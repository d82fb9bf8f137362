//! Property tests: the parallel hot paths are **bit-for-bit** identical
//! to their serial references — across every topology-generator family,
//! at every worker count (1, a few, and heavily oversubscribed).
//!
//! This is the determinism contract of the `tacc-par` layer: the CSR
//! kernels reach the adjacency-list Dijkstra's distances bit for bit,
//! and results merge by input index, so `f64::to_bits` equality must
//! hold exactly — not within a tolerance.

mod common;

use proptest::prelude::*;

use common::family_topology;
use tacc_topology::csr::{CsrGraph, SsspScratch};
use tacc_topology::routing::RoutingTable;
use tacc_topology::shortest_path::dijkstra;
use tacc_topology::DelayModel;

/// 1 = forced serial, 2/5 = modest pools, 17 = more workers than
/// servers (oversubscribed: most workers see an empty chunk).
const THREADS: [usize; 4] = [1, 2, 5, 17];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `delay_matrix` fanned out over any worker count equals the
    /// serial reference lane bit for bit, for every family.
    #[test]
    fn parallel_delay_matrix_is_bitwise_serial(
        family in 0usize..6,
        seed in 0u64..500,
        n in 4usize..16,
        m in 2usize..5,
    ) {
        let topo = family_topology(family, seed, n, m);
        let model = DelayModel::default();
        let serial = topo.delay_matrix_serial(&model);
        for threads in THREADS {
            let par = topo.delay_matrix_with_threads(&model, threads);
            prop_assert!(
                serial.iter().map(f64::to_bits).eq(par.iter().map(f64::to_bits)),
                "family={family} threads={threads}: parallel delay matrix diverged"
            );
        }
        // The default entry point (worker count from the environment)
        // lands on the same matrix too.
        let default = topo.delay_matrix(&model);
        prop_assert!(serial.iter().map(f64::to_bits).eq(default.iter().map(f64::to_bits)));
    }

    /// The cached-cost CSR bucket kernel settles every node to exactly
    /// the distance the adjacency-list Dijkstra computes, from every
    /// node of every family — including router/device sources the
    /// production sweeps never use.
    #[test]
    fn csr_sssp_is_bitwise_dijkstra(
        family in 0usize..6,
        seed in 0u64..500,
        n in 4usize..16,
        m in 2usize..5,
    ) {
        let topo = family_topology(family, seed, n, m);
        let model = DelayModel::default();
        let csr = CsrGraph::from_graph(topo.graph(), |l| model.link_delay_ms(l));
        prop_assert_eq!(csr.kernel_name(), "bucket", "family={} has positive costs", family);
        let mut scratch = SsspScratch::new();
        for (source, _) in topo.graph().nodes() {
            let reference = dijkstra(topo.graph(), source, |l| model.link_delay_ms(l));
            let dist = csr.sssp_into(source, &mut scratch);
            prop_assert_eq!(dist.len(), reference.len());
            for (v, (&d, &r)) in dist.iter().zip(&reference).enumerate() {
                prop_assert!(
                    d.to_bits() == r.to_bits(),
                    "family={family} source={:?} node={v}: csr={d} dijkstra={r}",
                    source
                );
            }
        }
    }

    /// Routing tables (paths, not just distances) are invariant in the
    /// worker count, for every family.
    #[test]
    fn routing_table_is_worker_count_invariant(
        family in 0usize..6,
        seed in 0u64..200,
        n in 4usize..12,
        m in 2usize..5,
    ) {
        let topo = family_topology(family, seed, n, m);
        let model = DelayModel::default();
        let reference = RoutingTable::compute_with_threads(&topo, &model, 1);
        for threads in THREADS {
            let table = RoutingTable::compute_with_threads(&topo, &model, threads);
            for i in 0..topo.num_iot() {
                for j in 0..topo.num_servers() {
                    prop_assert_eq!(
                        table.route(&topo, i, j),
                        reference.route(&topo, i, j),
                        "family={} threads={} ({},{})", family, threads, i, j
                    );
                }
            }
        }
    }
}
