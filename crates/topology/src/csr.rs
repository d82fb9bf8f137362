//! Flat compressed-sparse-row (CSR) mirror of [`Graph`] with
//! cached-cost shortest-path kernels.
//!
//! The pointer-chasing `Vec<Vec<Neighbor>>` adjacency list is the right
//! structure for *building* a graph; it is the wrong one for running
//! thousands of shortest-path sweeps over it. [`CsrGraph`] snapshots a
//! graph (under one link-cost function) into four flat arrays — edge
//! offsets, edge targets, **pre-evaluated** edge costs, and the
//! originating link ids — so the inner relaxation loop is sequential
//! array traversal with no per-relaxation cost-closure calls and no
//! per-node indirection.
//!
//! Two kernels run on a snapshot:
//!
//! - [`CsrGraph::sssp_into`], the distance kernel behind the delay
//!   matrix and the zone layout: a bucket queue, with a binary-heap
//!   fallback for cost arrays that have no finite positive cost;
//! - [`CsrGraph::sssp_tree_into`], the binary-heap kernel that also
//!   records shortest-path tree parents for
//!   [`crate::routing::RoutingTable`].
//!
//! # Determinism contract
//!
//! Both kernels are bit-for-bit identical to
//! [`crate::shortest_path::dijkstra`] on the source graph:
//!
//! - CSR rows preserve the adjacency-list order of
//!   [`Graph::neighbors`], so the heap kernel relaxes edges in the same
//!   sequence and breaks cost ties on the smaller node index, exactly
//!   like the adjacency-list reference — which also makes its tree
//!   parents the reference's predecessors;
//! - each directed edge's cost is the same `f64` the closure would
//!   return at relaxation time (it is a pure function of the link), so
//!   every distance is the same left-to-right sum;
//! - the bucket queue relaxes in a different order but reaches the same
//!   unique fixpoint (see [`CsrGraph::sssp_into`]).
//!
//! The property tests in `tests/par_equivalence.rs` enforce this across
//! every topology-generator family, from every source node.
//!
//! Because the kernels borrow their working memory from an
//! [`SsspScratch`], a caller sweeping many sources (the delay matrix runs
//! one SSSP per edge server) allocates once per worker instead of once
//! per source.

use std::collections::BinaryHeap;

use crate::shortest_path::HeapEntry;
use crate::{Graph, Link, LinkId, NodeId};

/// Reusable working memory for the CSR shortest-path kernels: the
/// distance array, the binary heap, and the circular bucket array all
/// survive across runs, so a sweep over many sources performs a
/// bounded number of allocations total (per worker), not per source.
#[derive(Debug, Default)]
pub struct SsspScratch {
    dist: Vec<f64>,
    heap: BinaryHeap<HeapEntry>,
    /// Circular bucket array of the bucket-queue kernel; `buckets[k]`
    /// holds nodes whose tentative distance maps to absolute bucket
    /// index `≡ k (mod len)`.
    buckets: Vec<Vec<u32>>,
}

impl SsspScratch {
    /// Creates an empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        SsspScratch::default()
    }
}

/// A read-only CSR snapshot of a [`Graph`] under one link-cost
/// function.
///
/// Edge costs are evaluated once at construction and stored per
/// *directed* edge (each undirected link appears twice). Costs must not
/// be NaN; `f64::INFINITY` is permitted and marks a link unusable, the
/// same convention as [`crate::incremental::SsspTree`] cost arrays.
///
/// # Example
///
/// ```
/// use tacc_topology::csr::{CsrGraph, SsspScratch};
/// use tacc_topology::{Graph, NodeKind};
///
/// # fn main() -> Result<(), tacc_topology::TopologyError> {
/// let mut g = Graph::new();
/// let a = g.add_node(NodeKind::Router);
/// let b = g.add_node(NodeKind::Router);
/// let c = g.add_node(NodeKind::Router);
/// g.add_link(a, b, 1.0, 100.0)?;
/// g.add_link(b, c, 2.0, 100.0)?;
/// let csr = CsrGraph::from_graph(&g, |l| l.latency_ms());
/// let mut scratch = SsspScratch::new();
/// let dist = csr.sssp_into(a, &mut scratch);
/// assert_eq!(dist[c.index()], 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v + 1]` indexes node `v`'s directed edges.
    offsets: Vec<u32>,
    /// Target node of each directed edge.
    targets: Vec<u32>,
    /// Pre-evaluated cost of each directed edge.
    costs: Vec<f64>,
    /// The undirected [`LinkId`] each directed edge came from.
    links: Vec<u32>,
    /// Bucket width of the bucket-queue kernel, chosen from the cost
    /// distribution at construction; `0.0` means the weight range is
    /// pathological (no finite positive cost) and [`CsrGraph::sssp_into`]
    /// falls back to the binary heap.
    bucket_delta: f64,
    /// Circular bucket count (`ceil(c_max / delta) + 2`); see
    /// [`CsrGraph::run_buckets`] for the window invariant it backs.
    bucket_slots: u32,
}

impl CsrGraph {
    /// Snapshots `graph` with each link's cost evaluated once through
    /// `link_cost`. Row order mirrors [`Graph::neighbors`] exactly.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `link_cost` returns NaN or a
    /// negative cost.
    pub fn from_graph(graph: &Graph, link_cost: impl Fn(&Link) -> f64) -> Self {
        let link_costs: Vec<f64> = graph.links().map(|(_, link)| link_cost(link)).collect();
        Self::from_link_costs(graph, &link_costs)
    }

    /// Snapshots `graph` with an explicit per-link cost array — the
    /// form maintained by [`crate::incremental`] and the online
    /// runtime, where failed links carry `f64::INFINITY`.
    ///
    /// # Panics
    ///
    /// Panics if `costs` is not one entry per link, or (in debug
    /// builds) if a cost is NaN or negative.
    pub fn from_link_costs(graph: &Graph, costs: &[f64]) -> Self {
        assert_eq!(costs.len(), graph.link_count(), "one cost per link");
        let n = graph.node_count();
        let directed = graph.link_count() * 2;
        let mut csr = CsrGraph {
            offsets: Vec::with_capacity(n + 1),
            targets: Vec::with_capacity(directed),
            costs: Vec::with_capacity(directed),
            links: Vec::with_capacity(directed),
            bucket_delta: 0.0,
            bucket_slots: 0,
        };
        csr.offsets.push(0);
        for v in 0..n {
            for nb in graph.neighbors(NodeId(v as u32)) {
                let c = costs[nb.link.index()];
                debug_assert!(!c.is_nan() && c >= 0.0, "link cost must be non-negative, got {c}");
                csr.targets.push(nb.node.0);
                csr.costs.push(c);
                csr.links.push(nb.link.0);
            }
            csr.offsets.push(csr.targets.len() as u32);
        }
        let (delta, slots) = plan_buckets(&csr.costs);
        csr.bucket_delta = delta;
        csr.bucket_slots = slots;
        csr
    }

    /// Assembles a snapshot from pre-built CSR arrays (the
    /// leaf-compression path in [`crate::compress`] filters rows
    /// itself). `offsets` must have one entry per node plus a leading
    /// zero, and the three edge arrays must be the same length.
    pub(crate) fn from_raw_parts(
        offsets: Vec<u32>,
        targets: Vec<u32>,
        costs: Vec<f64>,
        links: Vec<u32>,
    ) -> Self {
        assert!(!offsets.is_empty() && offsets[0] == 0, "offsets must start at 0");
        assert_eq!(*offsets.last().expect("non-empty") as usize, targets.len());
        assert_eq!(targets.len(), costs.len());
        assert_eq!(targets.len(), links.len());
        let (delta, slots) = plan_buckets(&costs);
        CsrGraph { offsets, targets, costs, links, bucket_delta: delta, bucket_slots: slots }
    }

    /// Number of nodes in the snapshot.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges (twice the source graph's link count).
    pub fn directed_edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Single-source shortest-path distances from `source`, writing
    /// into (and borrowing from) `scratch`. Unreachable nodes get
    /// `f64::INFINITY`. Bit-for-bit identical to
    /// [`crate::shortest_path::dijkstra`] under the snapshot's cost
    /// function.
    ///
    /// Runs the bucket queue when the snapshot's weight range permits
    /// one (see [`CsrGraph::kernel_name`]) and the binary heap
    /// otherwise. Both run strict-improvement relaxation to the same
    /// unique fixpoint — every settled distance is the minimum
    /// left-to-right `f64` path sum, and `f64` addition is monotone — so
    /// the dispatch never changes a single bit of the result
    /// (property-tested against the reference across all six topology
    /// families).
    ///
    /// # Panics
    ///
    /// Panics if `source` is not a node of the snapshot.
    pub fn sssp_into<'a>(&self, source: NodeId, scratch: &'a mut SsspScratch) -> &'a [f64] {
        if self.bucket_delta > 0.0 {
            self.run_buckets(source, scratch);
        } else {
            self.run(source, scratch, |_, _, _| {});
        }
        &scratch.dist
    }

    /// The distance kernel [`CsrGraph::sssp_into`] dispatches to:
    /// `"bucket"` when the cost distribution admits integer bucketing,
    /// `"heap"` for the pathological fallback (all costs zero, or no
    /// finite cost at all). Tree extraction
    /// ([`CsrGraph::sssp_tree_into`]) always runs the heap: parents are
    /// relaxation-*order*-dependent, so only the order-preserving kernel
    /// may produce them.
    pub fn kernel_name(&self) -> &'static str {
        if self.bucket_delta > 0.0 {
            "bucket"
        } else {
            "heap"
        }
    }

    /// Like [`CsrGraph::sssp_into`], but also records each node's
    /// shortest-path tree parent (`parent_node`) and the link reaching
    /// it (`parent_link`) — the inputs `RoutingTable` needs. Both
    /// slices must be one entry per node; entries for the source and
    /// unreachable nodes come back `None`.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range or either slice has the wrong
    /// length.
    pub fn sssp_tree_into<'a>(
        &self,
        source: NodeId,
        scratch: &'a mut SsspScratch,
        parent_node: &mut [Option<NodeId>],
        parent_link: &mut [Option<LinkId>],
    ) -> &'a [f64] {
        let n = self.node_count();
        assert_eq!(parent_node.len(), n, "one parent entry per node");
        assert_eq!(parent_link.len(), n, "one parent-link entry per node");
        parent_node.fill(None);
        parent_link.fill(None);
        self.run(source, scratch, |improved, from, link| {
            parent_node[improved as usize] = Some(NodeId(from));
            parent_link[improved as usize] = Some(LinkId(link));
        });
        &scratch.dist
    }

    /// The binary-heap relaxation loop behind
    /// [`CsrGraph::sssp_tree_into`] and the fallback of
    /// [`CsrGraph::sssp_into`]; `on_improve(node, parent, link)` fires
    /// exactly when `dist[node]` is lowered.
    fn run(
        &self,
        source: NodeId,
        scratch: &mut SsspScratch,
        mut on_improve: impl FnMut(u32, u32, u32),
    ) {
        let n = self.node_count();
        assert!(source.index() < n, "source {source} not in graph");
        scratch.dist.clear();
        scratch.dist.resize(n, f64::INFINITY);
        scratch.heap.clear();
        scratch.dist[source.index()] = 0.0;
        scratch.heap.push(HeapEntry { cost: 0.0, node: source });
        while let Some(HeapEntry { cost, node }) = scratch.heap.pop() {
            if cost > scratch.dist[node.index()] {
                continue; // stale entry
            }
            let lo = self.offsets[node.index()] as usize;
            let hi = self.offsets[node.index() + 1] as usize;
            for e in lo..hi {
                let next = cost + self.costs[e];
                let t = self.targets[e];
                if next < scratch.dist[t as usize] {
                    scratch.dist[t as usize] = next;
                    on_improve(t, node.0, self.links[e]);
                    scratch.heap.push(HeapEntry { cost: next, node: NodeId(t) });
                }
            }
        }
    }

    /// The bucket-queue relaxation loop: tentative distances are binned
    /// into a circular array of `bucket_slots` buckets of width
    /// `bucket_delta`, processed in increasing absolute bucket index.
    ///
    /// Correctness/bit-identity: the loop performs exactly the same
    /// strict-improvement relaxations (`next < dist[t]`) as the heap
    /// kernel and terminates only when no entry is pending, i.e. at the
    /// relaxation fixpoint. Since every finite edge cost is
    /// non-negative and `f64` addition is monotone, that fixpoint is
    /// unique — `dist[v]` is the minimum left-to-right `f64` path sum
    /// from the source — so the distances match the heap kernel bit for
    /// bit even though the *order* of relaxations differs.
    ///
    /// Window invariant: while processing absolute bucket `cur`, every
    /// pending entry has distance in `[cur·δ, (cur+1)·δ + c_max)`, so
    /// absolute indices span at most `ceil(c_max/δ) + 2 = bucket_slots`
    /// buckets and the circular array never aliases two live indices.
    /// A node improved *within* the current bucket (zero or sub-δ cost
    /// edges) re-enters the same slot and is drained in the same pass.
    fn run_buckets(&self, source: NodeId, scratch: &mut SsspScratch) {
        let n = self.node_count();
        assert!(source.index() < n, "source {source} not in graph");
        let delta = self.bucket_delta;
        let slots = self.bucket_slots as usize;
        scratch.dist.clear();
        scratch.dist.resize(n, f64::INFINITY);
        if scratch.buckets.len() < slots {
            scratch.buckets.resize_with(slots, Vec::new);
        }
        for bucket in &mut scratch.buckets {
            bucket.clear();
        }
        scratch.dist[source.index()] = 0.0;
        scratch.buckets[0].push(source.0);
        let mut pending = 1usize;
        let mut cur = 0u64;
        while pending > 0 {
            let slot = (cur % slots as u64) as usize;
            while let Some(node) = scratch.buckets[slot].pop() {
                pending -= 1;
                let d = scratch.dist[node as usize];
                // Stale unless the node's current distance still maps to
                // this absolute bucket (it was improved and re-binned,
                // or already settled in an earlier bucket).
                if (d / delta) as u64 != cur {
                    continue;
                }
                let lo = self.offsets[node as usize] as usize;
                let hi = self.offsets[node as usize + 1] as usize;
                for e in lo..hi {
                    let next = d + self.costs[e];
                    let t = self.targets[e] as usize;
                    if next < scratch.dist[t] {
                        scratch.dist[t] = next;
                        let bin = ((next / delta) as u64 % slots as u64) as usize;
                        scratch.buckets[bin].push(t as u32);
                        pending += 1;
                    }
                }
            }
            cur += 1;
        }
    }
}

/// Picks the bucket width and circular bucket count for a cost array.
///
/// `δ = max(c_min⁺, c_max / 1024)` — the smallest positive cost, floored
/// so the absolute-index walk stays within ~1024 buckets per `c_max` of
/// distance. Returns `(0.0, 0)` (heap fallback) when no finite positive
/// cost exists: an all-zero or all-disabled graph gives the bucket
/// kernel nothing to bin on.
fn plan_buckets(costs: &[f64]) -> (f64, u32) {
    let mut min_pos = f64::INFINITY;
    let mut max_finite = 0.0f64;
    for &c in costs {
        if c.is_finite() {
            if c > 0.0 && c < min_pos {
                min_pos = c;
            }
            if c > max_finite {
                max_finite = c;
            }
        }
    }
    if !min_pos.is_finite() || max_finite <= 0.0 {
        return (0.0, 0);
    }
    let delta = min_pos.max(max_finite / 1024.0);
    let slots = (max_finite / delta).ceil() as u32 + 2;
    (delta, slots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shortest_path::{dijkstra, dijkstra_with_predecessors};
    use crate::NodeKind;

    /// A graph with parallel links, a zero-cost link and an isolated
    /// node — the corner cases the kernels must agree on.
    fn gnarly() -> Graph {
        let mut g = Graph::new();
        let n: Vec<_> = (0..6).map(|_| g.add_node(NodeKind::Router)).collect();
        g.add_link(n[0], n[1], 1.0, 100.0).unwrap();
        g.add_link(n[1], n[2], 2.0, 100.0).unwrap();
        g.add_link(n[0], n[2], 5.0, 100.0).unwrap();
        g.add_link(n[0], n[2], 2.5, 100.0).unwrap(); // parallel, cheaper
        g.add_link(n[2], n[3], 0.0, 100.0).unwrap(); // zero cost
        g.add_link(n[3], n[4], 4.0, 100.0).unwrap();
        // n[5] stays isolated.
        g
    }

    #[test]
    fn csr_mirrors_adjacency_shape() {
        let g = gnarly();
        let csr = CsrGraph::from_graph(&g, |l| l.latency_ms());
        assert_eq!(csr.node_count(), g.node_count());
        assert_eq!(csr.directed_edge_count(), 2 * g.link_count());
    }

    #[test]
    fn sssp_matches_dijkstra_bit_for_bit_from_every_source() {
        let g = gnarly();
        let csr = CsrGraph::from_graph(&g, |l| l.latency_ms());
        let mut scratch = SsspScratch::new();
        for s in 0..g.node_count() {
            let source = NodeId(s as u32);
            let reference = dijkstra(&g, source, |l| l.latency_ms());
            let dist = csr.sssp_into(source, &mut scratch);
            assert_eq!(dist.len(), reference.len());
            for (v, (a, b)) in dist.iter().zip(&reference).enumerate() {
                assert!(
                    a.to_bits() == b.to_bits(),
                    "source {s}, node {v}: csr {a} vs dijkstra {b}"
                );
            }
        }
    }

    #[test]
    fn bucket_kernel_matches_heap_bit_for_bit() {
        // The bucket loop against the heap loop tree extraction runs:
        // different relaxation order, same fixpoint.
        let g = gnarly();
        let csr = CsrGraph::from_graph(&g, |l| l.latency_ms());
        assert_eq!(csr.kernel_name(), "bucket");
        let mut heap_scratch = SsspScratch::new();
        let mut bucket_scratch = SsspScratch::new();
        for s in 0..g.node_count() {
            let source = NodeId(s as u32);
            csr.run(source, &mut heap_scratch, |_, _, _| {});
            let bucket = csr.sssp_into(source, &mut bucket_scratch);
            for (v, (a, b)) in bucket.iter().zip(&heap_scratch.dist).enumerate() {
                assert!(a.to_bits() == b.to_bits(), "source {s}, node {v}: bucket {a} vs heap {b}");
            }
        }
    }

    #[test]
    fn scratch_reuse_does_not_leak_state_between_sources() {
        let g = gnarly();
        let csr = CsrGraph::from_graph(&g, |l| l.latency_ms());
        let mut reused = SsspScratch::new();
        let first = csr.sssp_into(NodeId(0), &mut reused).to_vec();
        let _ = csr.sssp_into(NodeId(4), &mut reused);
        let again = csr.sssp_into(NodeId(0), &mut reused).to_vec();
        assert_eq!(first, again);
    }

    #[test]
    fn tree_parents_match_predecessor_dijkstra() {
        let g = gnarly();
        let csr = CsrGraph::from_graph(&g, |l| l.latency_ms());
        let mut scratch = SsspScratch::new();
        let n = g.node_count();
        let mut parent_node = vec![None; n];
        let mut parent_link = vec![None; n];
        for s in 0..n {
            let source = NodeId(s as u32);
            let (ref_dist, ref_prev) = dijkstra_with_predecessors(&g, source, |l| l.latency_ms());
            let dist = csr.sssp_tree_into(source, &mut scratch, &mut parent_node, &mut parent_link);
            assert_eq!(dist, &ref_dist[..], "distances from {s}");
            assert_eq!(parent_node, ref_prev, "parents from {s}");
        }
    }

    #[test]
    fn infinite_link_costs_disable_links() {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::Router);
        let b = g.add_node(NodeKind::Router);
        let c = g.add_node(NodeKind::Router);
        g.add_link(a, b, 1.0, 100.0).unwrap();
        g.add_link(b, c, 1.0, 100.0).unwrap();
        let csr = CsrGraph::from_link_costs(&g, &[f64::INFINITY, 1.0]);
        let mut scratch = SsspScratch::new();
        let dist = csr.sssp_into(a, &mut scratch);
        assert_eq!(dist[a.index()], 0.0);
        assert!(dist[b.index()].is_infinite());
        assert!(dist[c.index()].is_infinite());
    }

    #[test]
    fn bucket_scratch_reuse_does_not_leak_state() {
        // One scratch shared by snapshots with different bucket plans
        // (the wide one needs far more slots) and by the heap tree
        // kernel.
        let g = gnarly();
        let narrow = CsrGraph::from_graph(&g, |l| l.latency_ms());
        let wide = CsrGraph::from_graph(&g, |l| l.latency_ms() * 1e3 + 1e-3);
        assert_eq!((narrow.kernel_name(), wide.kernel_name()), ("bucket", "bucket"));
        let mut reused = SsspScratch::new();
        let first = narrow.sssp_into(NodeId(0), &mut reused).to_vec();
        let _ = wide.sssp_into(NodeId(4), &mut reused);
        let n = g.node_count();
        let _ = wide.sssp_tree_into(NodeId(3), &mut reused, &mut vec![None; n], &mut vec![None; n]);
        let again = narrow.sssp_into(NodeId(0), &mut reused).to_vec();
        assert_eq!(first, again);
    }

    #[test]
    fn pathological_weight_ranges_fall_back_to_heap() {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::Router);
        let b = g.add_node(NodeKind::Router);
        let c = g.add_node(NodeKind::Router);
        g.add_link(a, b, 1.0, 100.0).unwrap();
        g.add_link(b, c, 1.0, 100.0).unwrap();
        // All-zero costs: nothing to bin on.
        let zero = CsrGraph::from_link_costs(&g, &[0.0, 0.0]);
        assert_eq!(zero.kernel_name(), "heap");
        let mut scratch = SsspScratch::new();
        assert_eq!(zero.sssp_into(a, &mut scratch), &[0.0, 0.0, 0.0]);
        // All links disabled: likewise.
        let dead = CsrGraph::from_link_costs(&g, &[f64::INFINITY, f64::INFINITY]);
        assert_eq!(dead.kernel_name(), "heap");
        let dist = dead.sssp_into(a, &mut scratch);
        assert_eq!(dist[0], 0.0);
        assert!(dist[1].is_infinite() && dist[2].is_infinite());
        // A zero-cost link alongside positive ones still buckets (the
        // zero-cost edge re-enters the current bucket and is drained in
        // the same pass).
        let mixed = CsrGraph::from_link_costs(&g, &[0.0, 2.0]);
        assert_eq!(mixed.kernel_name(), "bucket");
        assert_eq!(mixed.sssp_into(a, &mut scratch), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn bucket_kernel_handles_disabled_links_and_wide_ranges() {
        // A 1e6:1 weight spread (delta floors at c_max/1024) plus a
        // disabled link, which the reference graph simply leaves out.
        let costs = [1e-3, 250.0, f64::INFINITY, 1e3, 0.125];
        let ends = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)];
        let mut g = Graph::new();
        let mut reference = Graph::new();
        let n: Vec<_> = (0..5).map(|_| g.add_node(NodeKind::Router)).collect();
        for _ in 0..5 {
            reference.add_node(NodeKind::Router);
        }
        for (&(a, b), &c) in ends.iter().zip(&costs) {
            g.add_link(n[a], n[b], 1.0, 100.0).unwrap();
            if c.is_finite() {
                reference.add_link(n[a], n[b], c, 100.0).unwrap();
            }
        }
        let csr = CsrGraph::from_link_costs(&g, &costs);
        assert_eq!(csr.kernel_name(), "bucket");
        let mut scratch = SsspScratch::new();
        for s in 0..5 {
            let source = NodeId(s);
            let dist = csr.sssp_into(source, &mut scratch);
            let want = dijkstra(&reference, source, |l| l.latency_ms());
            assert_eq!(
                dist.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                "source {s}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "one cost per link")]
    fn wrong_cost_length_panics() {
        let g = gnarly();
        let _ = CsrGraph::from_link_costs(&g, &[1.0]);
    }

    #[test]
    #[should_panic(expected = "not in graph")]
    fn foreign_source_panics() {
        let g = gnarly();
        let csr = CsrGraph::from_graph(&g, |l| l.latency_ms());
        let _ = csr.sssp_into(NodeId(99), &mut SsspScratch::new());
    }
}
