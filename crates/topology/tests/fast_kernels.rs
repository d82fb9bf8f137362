//! Property tests for the fast-path kernels built on the CSR bucket
//! queue and the leaf-compressed core. The core carries a
//! **bit-for-bit** contract against the adjacency-list Dijkstra
//! reference — not a tolerance — across every topology-generator
//! family, because it is a drop-in replacement on paths whose outputs
//! are pinned byte-identical (delay matrices, obs streams, snapshots).
//! The bucket queue is checked here against the CSR heap loop
//! and in `par_equivalence.rs` against the adjacency-list Dijkstra.

mod common;

use proptest::prelude::*;

use common::family_topology;
use tacc_topology::csr::{CsrGraph, SsspScratch};
use tacc_topology::shortest_path::dijkstra;
use tacc_topology::{CompressedCore, DelayModel};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The bucket kernel settles every node to exactly the distance the
    /// heap loop behind `sssp_tree_into` reaches, from every node of
    /// every family — including router/device sources the production
    /// sweeps never use.
    #[test]
    fn bucket_sssp_is_bitwise_heap_dijkstra(
        family in 0usize..6,
        seed in 0u64..500,
        n in 4usize..16,
        m in 2usize..5,
    ) {
        let topo = family_topology(family, seed, n, m);
        let model = DelayModel::default();
        let csr = CsrGraph::from_graph(topo.graph(), |l| model.link_delay_ms(l));
        prop_assert_eq!(csr.kernel_name(), "bucket", "family={} has positive costs", family);
        let nodes = topo.graph().node_count();
        let (mut parent_node, mut parent_link) = (vec![None; nodes], vec![None; nodes]);
        let mut heap_scratch = SsspScratch::new();
        let mut bucket_scratch = SsspScratch::new();
        for (source, _) in topo.graph().nodes() {
            let v = source.index();
            let reference =
                csr.sssp_tree_into(source, &mut heap_scratch, &mut parent_node, &mut parent_link);
            let dist = csr.sssp_into(source, &mut bucket_scratch);
            for (node, (&d, &r)) in dist.iter().zip(reference).enumerate() {
                prop_assert!(
                    d.to_bits() == r.to_bits(),
                    "family={family} source={v} node={node}: bucket={d} heap={r}"
                );
            }
        }
    }

    /// Leaf compression reconstitutes every original-node distance
    /// bit-for-bit, from every server, for every family.
    #[test]
    fn compressed_core_distances_are_bitwise_full_graph(
        family in 0usize..6,
        seed in 0u64..500,
        n in 4usize..16,
        m in 2usize..5,
    ) {
        let topo = family_topology(family, seed, n, m);
        let model = DelayModel::default();
        let core = CompressedCore::from_graph(topo.graph(), |l| model.link_delay_ms(l));
        let mut scratch = SsspScratch::new();
        for &server in topo.server_nodes() {
            let reference = dijkstra(topo.graph(), server, |l| model.link_delay_ms(l));
            let dist = core.sssp_into(server, &mut scratch).to_vec();
            for (node, _) in topo.graph().nodes() {
                let v = node.index();
                let got = core.distance(&dist, node);
                prop_assert!(
                    got.to_bits() == reference[v].to_bits(),
                    "family={family} source={:?} node={v}: compressed={got} full={}",
                    server, reference[v]
                );
            }
        }
    }
}
