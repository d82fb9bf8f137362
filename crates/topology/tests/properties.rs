//! Property-based tests of the topology substrate.
//!
//! Invariants checked:
//! - Dijkstra distances satisfy the triangle inequality and match a
//!   Floyd–Warshall oracle written out below.
//! - Shortest paths on undirected graphs are symmetric.
//! - Delay matrices of generated topologies are finite, positive and
//!   deterministic in the seed.

#![allow(clippy::needless_range_loop)] // index-symmetric matrix checks

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use tacc_topology::generators::{RandomGeometric, TopologyGenerator};
use tacc_topology::shortest_path::dijkstra;
use tacc_topology::{DelayModel, Graph, Link, NodeId, NodeKind};

/// All-pairs distances by Floyd–Warshall: `O(n³)` and structurally
/// independent of Dijkstra, which makes it the oracle for it.
/// `result[u][v]` is `f64::INFINITY` when `v` is unreachable from `u`.
fn floyd_warshall(graph: &Graph, link_cost: impl Fn(&Link) -> f64) -> Vec<Vec<f64>> {
    let n = graph.node_count();
    let mut dist = vec![vec![f64::INFINITY; n]; n];
    for (i, row) in dist.iter_mut().enumerate() {
        row[i] = 0.0;
    }
    for (_, link) in graph.links() {
        let c = link_cost(link);
        let (a, b) = (link.a().index(), link.b().index());
        // Parallel links: keep the cheaper one.
        if c < dist[a][b] {
            dist[a][b] = c;
            dist[b][a] = c;
        }
    }
    for k in 0..n {
        for i in 0..n {
            let dik = dist[i][k];
            if dik.is_infinite() {
                continue;
            }
            for j in 0..n {
                let through = dik + dist[k][j];
                if through < dist[i][j] {
                    dist[i][j] = through;
                }
            }
        }
    }
    dist
}

/// Builds a random connected graph from a proptest-provided edge list.
fn arbitrary_graph() -> impl Strategy<Value = Graph> {
    // 3..=10 nodes; a random spanning chain guarantees connectivity, plus
    // up to 15 extra random links.
    (3usize..=10, proptest::collection::vec((0usize..10, 0usize..10, 1u32..100), 0..15)).prop_map(
        |(n, extra)| {
            let mut g = Graph::new();
            let ids: Vec<_> = (0..n).map(|_| g.add_node(NodeKind::Router)).collect();
            for w in ids.windows(2) {
                g.add_link(w[0], w[1], 1.0, 100.0).unwrap();
            }
            for (a, b, lat) in extra {
                let (a, b) = (a % n, b % n);
                if a != b {
                    g.add_link(ids[a], ids[b], f64::from(lat) / 10.0, 100.0).unwrap();
                }
            }
            g
        },
    )
}

/// Node ids of a graph in index order.
fn node_ids(g: &Graph) -> Vec<NodeId> {
    g.nodes().map(|(id, _)| id).collect()
}

proptest! {
    #[test]
    fn dijkstra_matches_floyd_warshall(g in arbitrary_graph()) {
        let fw = floyd_warshall(&g, |l| l.latency_ms());
        let ids = node_ids(&g);
        for s in 0..g.node_count() {
            let d = dijkstra(&g, ids[s], |l| l.latency_ms());
            for t in 0..g.node_count() {
                let diff = (fw[s][t] - d[t]).abs();
                prop_assert!(diff < 1e-9, "s={s} t={t}: fw={} dij={}", fw[s][t], d[t]);
            }
        }
    }

    #[test]
    fn shortest_paths_are_symmetric(g in arbitrary_graph()) {
        let fw = floyd_warshall(&g, |l| l.latency_ms());
        for s in 0..g.node_count() {
            for t in 0..g.node_count() {
                prop_assert!((fw[s][t] - fw[t][s]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn shortest_paths_satisfy_triangle_inequality(g in arbitrary_graph()) {
        let fw = floyd_warshall(&g, |l| l.latency_ms());
        let n = g.node_count();
        for a in 0..n {
            for b in 0..n {
                for c in 0..n {
                    prop_assert!(fw[a][c] <= fw[a][b] + fw[b][c] + 1e-9);
                }
            }
        }
    }

    #[test]
    fn generated_delay_matrices_are_finite_positive_and_deterministic(
        seed in 0u64..1000,
        n in 2usize..20,
        m in 1usize..5,
    ) {
        let gen = RandomGeometric::builder()
            .num_iot(n)
            .num_servers(m)
            .num_routers(6)
            .build()
            .unwrap();
        let t1 = gen.generate(&mut ChaCha8Rng::seed_from_u64(seed)).unwrap();
        let t2 = gen.generate(&mut ChaCha8Rng::seed_from_u64(seed)).unwrap();
        prop_assert_eq!(&t1, &t2);
        let dm = t1.delay_matrix(&DelayModel::default());
        prop_assert_eq!(dm.num_iot(), n);
        prop_assert_eq!(dm.num_servers(), m);
        for d in dm.iter() {
            prop_assert!(d.is_finite() && d > 0.0);
        }
    }

    #[test]
    fn delay_grows_with_message_size(seed in 0u64..50) {
        let gen = RandomGeometric::builder().num_iot(5).num_servers(2).build().unwrap();
        let t = gen.generate(&mut ChaCha8Rng::seed_from_u64(seed)).unwrap();
        let small = t.delay_matrix(&DelayModel::new(10.0, 0.0));
        let large = t.delay_matrix(&DelayModel::new(1000.0, 0.0));
        for i in 0..5 {
            for j in 0..2 {
                prop_assert!(large.get(i, j) > small.get(i, j));
            }
        }
    }
}

proptest! {
    /// Route extraction must agree with the delay matrix on every pair,
    /// for every generated topology: the links of the route sum to
    /// exactly the shortest-path delay.
    #[test]
    fn routes_cost_exactly_the_matrix_delay(seed in 0u64..200) {
        use tacc_topology::routing::RoutingTable;
        let gen = RandomGeometric::builder()
            .num_iot(10)
            .num_servers(3)
            .num_routers(6)
            .build()
            .unwrap();
        let topo = gen.generate(&mut ChaCha8Rng::seed_from_u64(seed)).unwrap();
        let model = DelayModel::default();
        let table = RoutingTable::compute(&topo, &model);
        let dm = topo.delay_matrix(&model);
        for i in 0..topo.num_iot() {
            for j in 0..topo.num_servers() {
                let route = table.route(&topo, i, j).expect("generated topologies are connected");
                let cost: f64 = route
                    .iter()
                    .map(|&l| model.link_delay_ms(topo.graph().link(l)))
                    .sum();
                prop_assert!((cost - dm.get(i, j)).abs() < 1e-9,
                    "({i},{j}): route {cost} vs matrix {}", dm.get(i, j));
                // A route never repeats a link (simple path).
                let mut seen = route.clone();
                seen.sort();
                seen.dedup();
                prop_assert_eq!(seen.len(), route.len(), "route repeats a link");
            }
        }
    }

    /// Total link traffic equals Σ flow_i · hops_i — conservation.
    #[test]
    fn congestion_conserves_flow(seed in 0u64..100) {
        use tacc_topology::routing::{congestion, RoutingTable};
        let gen = RandomGeometric::builder()
            .num_iot(8)
            .num_servers(2)
            .num_routers(5)
            .build()
            .unwrap();
        let topo = gen.generate(&mut ChaCha8Rng::seed_from_u64(seed)).unwrap();
        let model = DelayModel::default();
        let table = RoutingTable::compute(&topo, &model);
        let assignment: Vec<usize> = (0..8).map(|i| i % 2).collect();
        let flow: Vec<f64> = (0..8).map(|i| 1.0 + i as f64 * 0.5).collect();
        let report = congestion(&topo, &model, &assignment, &flow);
        let expected: f64 = (0..8)
            .map(|i| {
                let hops = table.route(&topo, i, assignment[i]).unwrap().len();
                flow[i] * hops as f64
            })
            .sum();
        prop_assert!((report.total_link_traffic - expected).abs() < 1e-9);
        prop_assert!(report.bottleneck.1 <= report.total_link_traffic + 1e-9);
    }
}
