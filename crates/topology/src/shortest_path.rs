//! The plainly written shortest-path reference over a [`Graph`].
//!
//! [`dijkstra`] and [`dijkstra_with_predecessors`] run binary-heap
//! Dijkstra straight over the adjacency list, evaluating a link-cost
//! closure at every relaxation. They are the reference every fast kernel
//! is property-tested against bit for bit: the CSR bucket queue and
//! heap tree kernel in [`crate::csr`], the leaf-compressed core in
//! [`crate::compress`] and the incremental trees in
//! [`crate::incremental`]. [`crate::Topology::delay_matrix_serial`]
//! builds the delay matrix with one [`dijkstra`] per server.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::{Graph, Link, NodeId};

/// The heap entry of every Dijkstra loop in the crate, ordered so
/// `BinaryHeap` (a max-heap) pops the smallest cost first and breaks
/// cost ties on the smaller node index. The tie-break fixes the settle
/// order, and with it the floating-point relaxation order, so every
/// heap kernel settles nodes in the same sequence.
#[derive(Debug, PartialEq)]
pub(crate) struct HeapEntry {
    pub(crate) cost: f64,
    pub(crate) node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Costs are non-negative and never NaN by construction.
        other
            .cost
            .partial_cmp(&self.cost)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.index().cmp(&self.node.index()))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Single-source shortest path distances from `source` under `link_cost`.
///
/// Returns one distance per node (indexed by [`NodeId::index`]); nodes
/// unreachable from `source` get `f64::INFINITY`.
///
/// # Panics
///
/// Panics if `source` is not a node of `graph`, or (in debug builds) if
/// `link_cost` returns a negative or non-finite cost.
///
/// # Example
///
/// ```
/// use tacc_topology::{Graph, NodeKind};
/// use tacc_topology::shortest_path::dijkstra;
///
/// # fn main() -> Result<(), tacc_topology::TopologyError> {
/// let mut g = Graph::new();
/// let a = g.add_node(NodeKind::Router);
/// let b = g.add_node(NodeKind::Router);
/// let c = g.add_node(NodeKind::Router);
/// g.add_link(a, b, 1.0, 100.0)?;
/// g.add_link(b, c, 2.0, 100.0)?;
/// g.add_link(a, c, 10.0, 100.0)?;
/// let dist = dijkstra(&g, a, |l| l.latency_ms());
/// assert_eq!(dist[c.index()], 3.0); // via b, not the direct 10 ms link
/// # Ok(())
/// # }
/// ```
pub fn dijkstra(graph: &Graph, source: NodeId, link_cost: impl Fn(&Link) -> f64) -> Vec<f64> {
    dijkstra_with_predecessors(graph, source, link_cost).0
}

/// Like [`dijkstra`], but also returns the predecessor of every node on its
/// shortest path from `source` (or `None` for the source itself and
/// unreachable nodes).
pub fn dijkstra_with_predecessors(
    graph: &Graph,
    source: NodeId,
    link_cost: impl Fn(&Link) -> f64,
) -> (Vec<f64>, Vec<Option<NodeId>>) {
    assert!(source.index() < graph.node_count(), "source {source} not in graph");
    let mut dist = vec![f64::INFINITY; graph.node_count()];
    let mut prev: Vec<Option<NodeId>> = vec![None; graph.node_count()];
    let mut heap = BinaryHeap::new();
    dist[source.index()] = 0.0;
    heap.push(HeapEntry { cost: 0.0, node: source });
    while let Some(HeapEntry { cost, node }) = heap.pop() {
        if cost > dist[node.index()] {
            continue; // stale entry
        }
        for nb in graph.neighbors(node) {
            let link = graph.link(nb.link);
            let c = link_cost(link);
            debug_assert!(c.is_finite() && c >= 0.0, "link cost must be finite and >= 0, got {c}");
            let next = cost + c;
            if next < dist[nb.node.index()] {
                dist[nb.node.index()] = next;
                prev[nb.node.index()] = Some(node);
                heap.push(HeapEntry { cost: next, node: nb.node });
            }
        }
    }
    (dist, prev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeKind;

    fn line_graph(n: usize) -> Graph {
        let mut g = Graph::new();
        let ids: Vec<_> = (0..n).map(|_| g.add_node(NodeKind::Router)).collect();
        for w in ids.windows(2) {
            g.add_link(w[0], w[1], 1.0, 100.0).unwrap();
        }
        g
    }

    #[test]
    fn dijkstra_on_line_graph() {
        let g = line_graph(5);
        let dist = dijkstra(&g, NodeId(0), |l| l.latency_ms());
        assert_eq!(dist, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    /// Floyd–Warshall over link latencies: an all-pairs oracle that
    /// shares no code with the heap.
    fn floyd_warshall(g: &Graph) -> Vec<Vec<f64>> {
        let n = g.node_count();
        let mut dist = vec![vec![f64::INFINITY; n]; n];
        for (i, row) in dist.iter_mut().enumerate() {
            row[i] = 0.0;
        }
        for (_, link) in g.links() {
            let (a, b) = (link.a().index(), link.b().index());
            let c = link.latency_ms().min(dist[a][b]);
            dist[a][b] = c;
            dist[b][a] = c;
        }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    let through = dist[i][k] + dist[k][j];
                    if through < dist[i][j] {
                        dist[i][j] = through;
                    }
                }
            }
        }
        dist
    }

    #[test]
    fn floyd_warshall_matches_dijkstra_on_line() {
        let g = line_graph(6);
        let fw = floyd_warshall(&g);
        for s in 0..6 {
            let d = dijkstra(&g, NodeId(s as u32), |l| l.latency_ms());
            for t in 0..6 {
                assert_eq!(fw[s][t], d[t], "mismatch {s}->{t}");
            }
        }
    }

    #[test]
    fn dijkstra_prefers_cheaper_multi_hop_route() {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::Router);
        let b = g.add_node(NodeKind::Router);
        let c = g.add_node(NodeKind::Router);
        g.add_link(a, b, 1.0, 100.0).unwrap();
        g.add_link(b, c, 1.0, 100.0).unwrap();
        g.add_link(a, c, 5.0, 100.0).unwrap();
        let dist = dijkstra(&g, a, |l| l.latency_ms());
        assert_eq!(dist[c.index()], 2.0);
    }

    #[test]
    fn dijkstra_marks_unreachable_as_infinity() {
        let mut g = line_graph(3);
        let lonely = g.add_node(NodeKind::Router);
        let dist = dijkstra(&g, NodeId(0), |l| l.latency_ms());
        assert!(dist[lonely.index()].is_infinite());
    }

    #[test]
    fn dijkstra_handles_parallel_links() {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::Router);
        let b = g.add_node(NodeKind::Router);
        g.add_link(a, b, 5.0, 100.0).unwrap();
        g.add_link(a, b, 2.0, 100.0).unwrap();
        let dist = dijkstra(&g, a, |l| l.latency_ms());
        assert_eq!(dist[b.index()], 2.0);
    }

    #[test]
    fn dijkstra_with_zero_cost_links() {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::Router);
        let b = g.add_node(NodeKind::Router);
        g.add_link(a, b, 0.0, 100.0).unwrap();
        let dist = dijkstra(&g, a, |l| l.latency_ms());
        assert_eq!(dist[b.index()], 0.0);
    }

    #[test]
    #[should_panic(expected = "not in graph")]
    fn dijkstra_panics_on_foreign_source() {
        let g = line_graph(2);
        let _ = dijkstra(&g, NodeId(99), |l| l.latency_ms());
    }

    #[test]
    fn predecessors_reconstruct_path() {
        let g = line_graph(4);
        let (_, prev) = dijkstra_with_predecessors(&g, NodeId(0), |l| l.latency_ms());
        let mut path = vec![NodeId(3)];
        while let Some(p) = prev[path.last().unwrap().index()] {
            path.push(p);
        }
        path.reverse();
        assert_eq!(path, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn path_to_self_is_singleton() {
        // The source has no predecessor, so its path is itself alone.
        let g = line_graph(2);
        let (dist, prev) = dijkstra_with_predecessors(&g, NodeId(0), |l| l.latency_ms());
        assert_eq!((dist[0], prev[0]), (0.0, None));
    }

    #[test]
    fn path_to_unreachable_is_none() {
        let mut g = line_graph(2);
        let lonely = g.add_node(NodeKind::Router);
        let (dist, prev) = dijkstra_with_predecessors(&g, NodeId(0), |l| l.latency_ms());
        assert_eq!(prev[lonely.index()], None);
        assert!(dist[lonely.index()].is_infinite());
    }

    #[test]
    fn heap_entry_orders_smallest_first() {
        let mut heap = BinaryHeap::new();
        heap.push(HeapEntry { cost: 3.0, node: NodeId(0) });
        heap.push(HeapEntry { cost: 1.0, node: NodeId(2) });
        heap.push(HeapEntry { cost: 2.0, node: NodeId(1) });
        heap.push(HeapEntry { cost: 1.0, node: NodeId(1) });
        let popped: Vec<(f64, usize)> =
            std::iter::from_fn(|| heap.pop()).map(|e| (e.cost, e.node.index())).collect();
        assert_eq!(popped, vec![(1.0, 1), (1.0, 2), (2.0, 1), (3.0, 0)]);
    }
}
