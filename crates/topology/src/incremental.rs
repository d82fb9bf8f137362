//! Incrementally maintained single-source shortest-path trees.
//!
//! The online reconfiguration runtime (`tacc-runtime`) keeps one
//! shortest-path tree per edge server and must update the IoT→server
//! delay matrix whenever a link's cost drifts or a node's links are
//! taken down. Recomputing every tree from scratch on each event is
//! `O(m · (E log V))`; most events touch a small region of one or two
//! trees, so a [`SsspTree`] instead repairs only the affected part:
//!
//! - **Cost decrease** — seed a Dijkstra re-relaxation from the changed
//!   link's endpoints; only nodes whose distance actually improves are
//!   re-settled.
//! - **Cost increase** (including disabling a link by raising its cost
//!   to `f64::INFINITY`) — if the link is not a tree edge the tree is
//!   untouched; otherwise the subtree hanging off the link is
//!   invalidated and re-grown from its boundary (Ramalingam–Reps
//!   style).
//!
//! Costs live in an external per-link array so callers can disable
//! links (server failure) without mutating the [`Graph`]. Every
//! operation reports [`UpdateStats`] — the runtime uses them to report
//! incremental-vs-full work savings — and a repair also lists the nodes
//! whose distance it wrote, so a caller holding a matrix read out of the
//! tree patches only those entries.
//!
//! The distances produced are *exactly* (bit-for-bit) those of a fresh
//! [`dijkstra`](crate::shortest_path::dijkstra) run: both compute each
//! distance as the same left-to-right sum of link costs along a
//! shortest path, and both take exact minima over the same candidate
//! set. [`SsspTree::matches_full`] checks this and backs the debug
//! assertions in the runtime.
//!
//! Every distance a tree holds is also its parent's distance plus the
//! parent link's cost, bitwise — the one addition that wrote it
//! ([`SsspTree::parent_sum_mismatch`] checks this). So the source and the
//! parent links ([`ParentTree`]) determine the whole tree under the
//! costs: [`SsspTree::from_parents`] rebuilds the distances in tree
//! order and refuses, as a [`ParentFault`], any parent array that is
//! not a shortest-path tree under those costs. Snapshots store that form.

use serde::{Deserialize, Serialize};
use std::collections::BinaryHeap;
use std::fmt;

use crate::shortest_path::HeapEntry;
use crate::{Graph, LinkId, NodeId};

/// Work performed by one tree operation, in relaxation units.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct UpdateStats {
    /// Nodes settled (popped from the heap with a current distance).
    pub settled: u64,
    /// Incident links examined during relaxation.
    pub edges_scanned: u64,
}

impl UpdateStats {
    /// Accumulates another operation's work into this one.
    pub fn absorb(&mut self, other: UpdateStats) {
        self.settled += other.settled;
        self.edges_scanned += other.edges_scanned;
    }
}

/// A single-source shortest-path tree that can be repaired in place
/// after link-cost changes.
///
/// The tree does not borrow the graph; every method takes the graph
/// and the current per-link cost array (`f64::INFINITY` = unusable
/// link). The caller must present a cost array consistent with the
/// sequence of [`SsspTree::apply_cost_change`] calls.
///
/// # Example
///
/// ```
/// use tacc_topology::incremental::SsspTree;
/// use tacc_topology::{Graph, NodeKind};
///
/// # fn main() -> Result<(), tacc_topology::TopologyError> {
/// let mut g = Graph::new();
/// let a = g.add_node(NodeKind::Router);
/// let b = g.add_node(NodeKind::Router);
/// let c = g.add_node(NodeKind::Router);
/// let ab = g.add_link(a, b, 1.0, 100.0)?;
/// let _bc = g.add_link(b, c, 1.0, 100.0)?;
/// let mut costs = vec![1.0, 1.0];
/// let (mut tree, _) = SsspTree::build(&g, a, &costs);
/// assert_eq!(tree.distance(c), 2.0);
///
/// costs[ab.index()] = 5.0; // drift on a—b
/// let mut touched = Vec::new();
/// tree.apply_cost_change(&g, &costs, ab, 1.0, &mut touched);
/// assert_eq!(tree.distance(c), 6.0);
/// assert_eq!(touched, vec![b, c]); // a's distance was never written
/// assert!(tree.matches_full(&g, &costs));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SsspTree {
    source: NodeId,
    /// Distance from the source, `f64::INFINITY` when unreachable.
    dist: Vec<f64>,
    /// The link to each node's tree parent (`None` for the source and
    /// unreachable nodes).
    parent_link: Vec<Option<LinkId>>,
}

/// The stored form of an [`SsspTree`]: its source and each node's parent
/// link, without the distances they determine. [`SsspTree::parents`]
/// takes it and [`SsspTree::from_parents`] rebuilds the tree from it,
/// refusing a parent array that is not a shortest-path tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParentTree {
    source: NodeId,
    parent_link: Vec<Option<LinkId>>,
}

impl ParentTree {
    /// The node the tree grows from.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The number of parent entries, one per node of the graph the tree
    /// was taken over. Only a deserialized value can disagree with its
    /// graph, which is what an input quarantine looks for.
    pub fn node_count(&self) -> usize {
        self.parent_link.len()
    }
}

/// Why [`SsspTree::from_parents`] refused a parent array: a node or link
/// that keeps it from being a shortest-path tree under the given costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ParentFault {
    /// `link` is not a link of the graph incident to `node`, or its other
    /// endpoint is not a node of the graph.
    ForeignLink {
        /// The node holding the parent entry.
        node: NodeId,
        /// Its parent link.
        link: LinkId,
    },
    /// `node`'s parent link is disabled: its cost is not finite.
    DisabledLink {
        /// The node holding the parent entry.
        node: NodeId,
        /// Its parent link.
        link: LinkId,
    },
    /// The parent chain from `node` cycles or ends away from the source
    /// (the source itself holding a parent included).
    Unrooted {
        /// The first node whose chain does not end at the source.
        node: NodeId,
    },
    /// `link` would shorten `node`'s rebuilt distance: the tree is not a
    /// shortest-path tree (or misses a node the source reaches).
    Shortcut {
        /// The node whose distance the link improves.
        node: NodeId,
        /// The improving link.
        link: LinkId,
    },
}

impl fmt::Display for ParentFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ParentFault::ForeignLink { node, link } => write!(
                f,
                "node {} hangs off link {}, which is not incident to it",
                node.index(),
                link.index()
            ),
            ParentFault::DisabledLink { node, link } => {
                write!(f, "node {} hangs off disabled link {}", node.index(), link.index())
            }
            ParentFault::Unrooted { node } => {
                write!(f, "the parent chain from node {} cycles or misses the source", node.index())
            }
            ParentFault::Shortcut { node, link } => write!(
                f,
                "link {} would shorten the distance of node {}",
                link.index(),
                node.index()
            ),
        }
    }
}

impl SsspTree {
    /// Builds the tree with a full Dijkstra run.
    ///
    /// # Panics
    ///
    /// Panics if `source` is not a node of `graph` or `costs` is not
    /// one entry per link.
    pub fn build(graph: &Graph, source: NodeId, costs: &[f64]) -> (Self, UpdateStats) {
        assert!(source.index() < graph.node_count(), "source {source} not in graph");
        let mut tree = SsspTree {
            source,
            dist: vec![f64::INFINITY; graph.node_count()],
            parent_link: vec![None; graph.node_count()],
        };
        let stats = tree.rebuild(graph, costs);
        (tree, stats)
    }

    /// The tree's source node.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Distance from the source to `node` (`f64::INFINITY` when
    /// unreachable).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn distance(&self, node: NodeId) -> f64 {
        self.dist[node.index()]
    }

    /// All distances, indexed by [`NodeId::index`].
    pub fn distances(&self) -> &[f64] {
        &self.dist
    }

    /// The tree's stored form: its source and parent links.
    pub fn parents(&self) -> ParentTree {
        ParentTree { source: self.source, parent_link: self.parent_link.clone() }
    }

    /// Rebuilds a tree from its parents under `costs`: in tree order
    /// from the source, each reached node's distance is its parent's
    /// plus the parent link's cost — the addition that wrote it — and
    /// every other node is unreachable. A tree [`SsspTree::parents`]
    /// took comes back bit for bit when `costs` are the ones it was
    /// maintained under.
    ///
    /// # Errors
    ///
    /// The first [`ParentFault`]: a parent link not incident to its node
    /// or over a disabled link, a parent chain that cycles or misses the
    /// source, or a link that would shorten a rebuilt distance.
    ///
    /// # Panics
    ///
    /// Panics if the source is not a node of `graph`, or `parents` or
    /// `costs` do not hold one entry per node and per link.
    pub fn from_parents(
        graph: &Graph,
        costs: &[f64],
        parents: &ParentTree,
    ) -> Result<SsspTree, ParentFault> {
        let ParentTree { source, parent_link } = parents;
        let (source, n) = (*source, graph.node_count());
        assert!(source.index() < n, "source {source} not in graph");
        assert_eq!(parent_link.len(), n, "parent array must have one entry per node");
        assert_eq!(costs.len(), graph.link_count(), "cost array must have one entry per link");

        // Each entry's parent node, then the children grouped by parent
        // (counting sort) so the distances can be summed in tree order.
        let mut parent = vec![None; n];
        for (v, entry) in parent_link.iter().enumerate() {
            let Some(link) = *entry else { continue };
            let node = NodeId(v as u32);
            if node == source {
                return Err(ParentFault::Unrooted { node });
            }
            let up = (link.index() < graph.link_count())
                .then(|| graph.link(link))
                .and_then(|l| match (l.a() == node, l.b() == node) {
                    (true, _) => Some(l.b()),
                    (_, true) => Some(l.a()),
                    _ => None,
                })
                .filter(|p| p.index() < n);
            let Some(up) = up else { return Err(ParentFault::ForeignLink { node, link }) };
            if !costs[link.index()].is_finite() {
                return Err(ParentFault::DisabledLink { node, link });
            }
            parent[v] = Some(up.index());
        }
        let mut first = vec![0usize; n + 1];
        for &p in parent.iter().flatten() {
            first[p + 1] += 1;
        }
        for i in 0..n {
            first[i + 1] += first[i];
        }
        let mut next = first.clone();
        let mut children = vec![0usize; first[n]];
        for (v, p) in parent.iter().enumerate() {
            if let Some(p) = *p {
                children[next[p]] = v;
                next[p] += 1;
            }
        }

        let mut dist = vec![f64::INFINITY; n];
        let mut reached = vec![false; n];
        let mut order = vec![source.index()];
        dist[source.index()] = 0.0;
        reached[source.index()] = true;
        let mut head = 0;
        while let Some(&u) = order.get(head) {
            head += 1;
            for &c in &children[first[u]..first[u + 1]] {
                let link = parent_link[c].expect("a child has a parent link");
                dist[c] = dist[u] + costs[link.index()];
                reached[c] = true;
                order.push(c);
            }
        }
        if let Some(v) = (0..n).find(|&v| parent[v].is_some() && !reached[v]) {
            return Err(ParentFault::Unrooted { node: NodeId(v as u32) });
        }
        for (id, link) in graph.links() {
            let (a, b) = (link.a().index(), link.b().index());
            let c = costs[id.index()];
            if a >= n || b >= n || !c.is_finite() {
                continue;
            }
            for (from, to) in [(a, b), (b, a)] {
                if dist[from] + c < dist[to] {
                    return Err(ParentFault::Shortcut { node: NodeId(to as u32), link: id });
                }
            }
        }
        Ok(SsspTree { source, dist, parent_link: parent_link.clone() })
    }

    /// The first node whose distance is not, bit for bit, its parent's
    /// distance plus its parent link's cost under `costs` — `None` for
    /// every tree [`SsspTree::build`] and the repairs leave behind, which
    /// is what lets [`SsspTree::from_parents`] rebuild the distances.
    ///
    /// # Panics
    ///
    /// Panics if the tree or `costs` do not fit `graph`.
    pub fn parent_sum_mismatch(&self, graph: &Graph, costs: &[f64]) -> Option<NodeId> {
        self.check_dimensions(graph, costs);
        self.parent_link.iter().enumerate().find_map(|(v, entry)| {
            let link = (*entry)?;
            let node = NodeId(v as u32);
            let parent = graph.link(link).opposite(node);
            let sum = self.dist[parent.index()] + costs[link.index()];
            (sum.to_bits() != self.dist[v].to_bits()).then_some(node)
        })
    }

    /// Recomputes the whole tree from scratch — the fallback path, and
    /// the baseline that incremental repairs are measured against.
    pub fn rebuild(&mut self, graph: &Graph, costs: &[f64]) -> UpdateStats {
        self.check_dimensions(graph, costs);
        self.dist.fill(f64::INFINITY);
        self.parent_link.fill(None);
        self.dist[self.source.index()] = 0.0;
        let mut heap = BinaryHeap::new();
        heap.push(HeapEntry { cost: 0.0, node: self.source });
        self.run_dijkstra(graph, costs, heap, None)
    }

    /// Repairs the tree after the cost of `changed` moved from
    /// `old_cost` to `costs[changed.index()]`.
    ///
    /// The cost array must already hold the new value. Raising a cost
    /// to `f64::INFINITY` removes the link from consideration (the
    /// failure primitive); lowering it from `f64::INFINITY` re-adds it.
    ///
    /// `touched` is cleared and then receives every node whose distance
    /// the repair wrote, each once and in no particular order; a written
    /// distance may equal the old one. Every other node keeps its
    /// distance bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `changed` is out of range, `costs` has the wrong
    /// length, or (in debug builds) a finite cost is negative.
    pub fn apply_cost_change(
        &mut self,
        graph: &Graph,
        costs: &[f64],
        changed: LinkId,
        old_cost: f64,
        touched: &mut Vec<NodeId>,
    ) -> UpdateStats {
        self.check_dimensions(graph, costs);
        touched.clear();
        let new_cost = costs[changed.index()];
        debug_assert!(
            new_cost >= 0.0,
            "link cost must be non-negative, got {new_cost} for {changed}"
        );
        if new_cost == old_cost {
            return UpdateStats::default();
        }
        if new_cost < old_cost {
            self.apply_decrease(graph, costs, changed, touched)
        } else {
            self.apply_increase(graph, costs, changed, touched)
        }
    }

    /// Cost went down: distances can only improve. Seed the heap with
    /// whichever endpoints improve through the cheaper link and
    /// re-relax forward. Every distance written is pushed and later
    /// settled at its final value, so the settled nodes are exactly the
    /// touched ones.
    fn apply_decrease(
        &mut self,
        graph: &Graph,
        costs: &[f64],
        changed: LinkId,
        touched: &mut Vec<NodeId>,
    ) -> UpdateStats {
        let link = graph.link(changed);
        let c = costs[changed.index()];
        let mut heap = BinaryHeap::new();
        for (from, to) in [(link.a(), link.b()), (link.b(), link.a())] {
            let candidate = self.dist[from.index()] + c;
            if candidate < self.dist[to.index()] {
                self.dist[to.index()] = candidate;
                self.parent_link[to.index()] = Some(changed);
                heap.push(HeapEntry { cost: candidate, node: to });
            }
        }
        self.run_dijkstra(graph, costs, heap, Some(touched))
    }

    /// Cost went up: only nodes whose tree path crosses the changed
    /// link can move. Invalidate that subtree, then re-grow it from
    /// boundary candidates. The subtree is the touched set: raising a
    /// cost shortens no path, so the re-growth settles nothing outside
    /// it.
    fn apply_increase(
        &mut self,
        graph: &Graph,
        costs: &[f64],
        changed: LinkId,
        touched: &mut Vec<NodeId>,
    ) -> UpdateStats {
        let link = graph.link(changed);
        // The child endpoint is the one that reaches its parent through
        // the changed link. If neither endpoint does, no shortest path
        // uses the link and nothing can get worse.
        let child = if self.parent_link[link.a().index()] == Some(changed) {
            link.a()
        } else if self.parent_link[link.b().index()] == Some(changed) {
            link.b()
        } else {
            return UpdateStats::default();
        };

        // Collect the subtree under `child` (its tree path uses the
        // changed link) straight into `touched`. One pass over the
        // adjacency of invalidated nodes; membership spreads along
        // parent links.
        let mut invalid = vec![false; self.dist.len()];
        invalid[child.index()] = true;
        let mut frontier = vec![child];
        let subtree = touched;
        subtree.push(child);
        while let Some(u) = frontier.pop() {
            for nb in graph.neighbors(u) {
                let v = nb.node;
                if !invalid[v.index()] && self.parent_link[v.index()] == Some(nb.link) {
                    invalid[v.index()] = true;
                    frontier.push(v);
                    subtree.push(v);
                }
            }
        }
        let mut stats = UpdateStats::default();
        for &v in subtree.iter() {
            self.dist[v.index()] = f64::INFINITY;
            self.parent_link[v.index()] = None;
        }

        // Boundary relaxation: the best way back into the subtree is
        // through some link from a still-valid node (the changed link
        // itself included, at its new cost).
        let mut heap = BinaryHeap::new();
        for &v in subtree.iter() {
            for nb in graph.neighbors(v) {
                stats.edges_scanned += 1;
                let u = nb.node;
                if invalid[u.index()] {
                    continue;
                }
                let candidate = self.dist[u.index()] + costs[nb.link.index()];
                if candidate < self.dist[v.index()] {
                    self.dist[v.index()] = candidate;
                    self.parent_link[v.index()] = Some(nb.link);
                    heap.push(HeapEntry { cost: candidate, node: v });
                }
            }
        }
        stats.absorb(self.run_dijkstra(graph, costs, heap, None));
        stats
    }

    /// Standard relaxation loop over an already-seeded heap; each
    /// settled node is appended to `settled` when one is given.
    fn run_dijkstra(
        &mut self,
        graph: &Graph,
        costs: &[f64],
        mut heap: BinaryHeap<HeapEntry>,
        mut settled: Option<&mut Vec<NodeId>>,
    ) -> UpdateStats {
        let mut stats = UpdateStats::default();
        while let Some(HeapEntry { cost, node }) = heap.pop() {
            if cost > self.dist[node.index()] {
                continue; // stale entry
            }
            stats.settled += 1;
            if let Some(settled) = settled.as_deref_mut() {
                settled.push(node);
            }
            for nb in graph.neighbors(node) {
                stats.edges_scanned += 1;
                let c = costs[nb.link.index()];
                debug_assert!(!c.is_nan() && c >= 0.0, "link cost must be non-negative, got {c}");
                let next = cost + c;
                if next < self.dist[nb.node.index()] {
                    self.dist[nb.node.index()] = next;
                    self.parent_link[nb.node.index()] = Some(nb.link);
                    heap.push(HeapEntry { cost: next, node: nb.node });
                }
            }
        }
        stats
    }

    /// `true` when the maintained distances equal (bit-for-bit) a fresh
    /// full recomputation — the consistency oracle behind the runtime's
    /// debug assertions and the property tests.
    pub fn matches_full(&self, graph: &Graph, costs: &[f64]) -> bool {
        let (fresh, _) = SsspTree::build(graph, self.source, costs);
        self.dist == fresh.dist
    }

    fn check_dimensions(&self, graph: &Graph, costs: &[f64]) {
        assert_eq!(costs.len(), graph.link_count(), "cost array must have one entry per link");
        assert_eq!(self.dist.len(), graph.node_count(), "tree was built for a different graph");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeKind;

    /// A 4-cycle with a chord:
    ///
    /// ```text
    ///   n0 ──0── n1
    ///   │2        │1
    ///   n3 ──3── n2
    ///    \___4___/   (n0—n2 chord)
    /// ```
    fn diamond() -> (Graph, Vec<f64>) {
        let mut g = Graph::new();
        let n: Vec<_> = (0..4).map(|_| g.add_node(NodeKind::Router)).collect();
        g.add_link(n[0], n[1], 1.0, 100.0).unwrap();
        g.add_link(n[1], n[2], 1.0, 100.0).unwrap();
        g.add_link(n[0], n[3], 1.0, 100.0).unwrap();
        g.add_link(n[3], n[2], 1.0, 100.0).unwrap();
        g.add_link(n[0], n[2], 5.0, 100.0).unwrap();
        let costs = vec![1.0, 1.0, 1.0, 1.0, 5.0];
        (g, costs)
    }

    #[test]
    fn build_matches_dijkstra() {
        let (g, costs) = diamond();
        let (tree, stats) = SsspTree::build(&g, NodeId(0), &costs);
        assert_eq!(tree.distances(), &[0.0, 1.0, 2.0, 1.0]);
        assert!(stats.settled >= 4);
    }

    #[test]
    fn decrease_improves_through_chord() {
        let (g, mut costs) = diamond();
        let (mut tree, _) = SsspTree::build(&g, NodeId(0), &costs);
        costs[4] = 0.5; // chord n0—n2 now cheapest
        tree.apply_cost_change(&g, &costs, LinkId(4), 5.0, &mut Vec::new());
        assert_eq!(tree.distance(NodeId(2)), 0.5);
        assert!(tree.matches_full(&g, &costs));
    }

    #[test]
    fn increase_on_non_tree_link_is_free() {
        let (g, mut costs) = diamond();
        let (mut tree, _) = SsspTree::build(&g, NodeId(0), &costs);
        costs[4] = 50.0; // chord is not a tree edge
        let stats = tree.apply_cost_change(&g, &costs, LinkId(4), 5.0, &mut Vec::new());
        assert_eq!(stats, UpdateStats::default());
        assert!(tree.matches_full(&g, &costs));
    }

    #[test]
    fn increase_reroutes_subtree() {
        let (g, mut costs) = diamond();
        let (mut tree, _) = SsspTree::build(&g, NodeId(0), &costs);
        // n1 is reached via link 0; raising it reroutes n1 through n2.
        costs[0] = 10.0;
        tree.apply_cost_change(&g, &costs, LinkId(0), 1.0, &mut Vec::new());
        assert_eq!(tree.distance(NodeId(1)), 3.0); // n0→n3→n2→n1
        assert!(tree.matches_full(&g, &costs));
    }

    #[test]
    fn disable_and_reenable_roundtrips() {
        let (g, mut costs) = diamond();
        let (mut tree, _) = SsspTree::build(&g, NodeId(0), &costs);
        let before = tree.clone();

        costs[0] = f64::INFINITY;
        tree.apply_cost_change(&g, &costs, LinkId(0), 1.0, &mut Vec::new());
        assert!(tree.matches_full(&g, &costs));
        assert_eq!(tree.distance(NodeId(1)), 3.0);

        costs[0] = 1.0;
        tree.apply_cost_change(&g, &costs, LinkId(0), f64::INFINITY, &mut Vec::new());
        assert!(tree.matches_full(&g, &costs));
        assert_eq!(tree.distances(), before.distances());
    }

    #[test]
    fn disconnection_marks_subtree_unreachable() {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::Router);
        let b = g.add_node(NodeKind::Router);
        let c = g.add_node(NodeKind::Router);
        let ab = g.add_link(a, b, 1.0, 100.0).unwrap();
        g.add_link(b, c, 1.0, 100.0).unwrap();
        let mut costs = vec![1.0, 1.0];
        let (mut tree, _) = SsspTree::build(&g, a, &costs);

        costs[ab.index()] = f64::INFINITY;
        tree.apply_cost_change(&g, &costs, ab, 1.0, &mut Vec::new());
        assert!(tree.distance(b).is_infinite());
        assert!(tree.distance(c).is_infinite());
        assert!(tree.matches_full(&g, &costs));
    }

    #[test]
    fn unchanged_cost_is_a_noop() {
        let (g, costs) = diamond();
        let (mut tree, _) = SsspTree::build(&g, NodeId(0), &costs);
        let stats = tree.apply_cost_change(&g, &costs, LinkId(1), costs[1], &mut Vec::new());
        assert_eq!(stats, UpdateStats::default());
    }

    #[test]
    fn random_change_sequences_stay_consistent() {
        // Deterministic pseudo-random walk over cost changes on a grid
        // with chords; after every step the tree must match a fresh
        // Dijkstra bit-for-bit.
        let mut g = Graph::new();
        let nodes: Vec<_> = (0..12).map(|_| g.add_node(NodeKind::Router)).collect();
        let mut links = Vec::new();
        for i in 0..nodes.len() {
            for j in (i + 1)..nodes.len() {
                if (i * 7 + j * 3) % 4 == 0 {
                    let base = 1.0 + ((i * 13 + j) % 9) as f64;
                    links.push((g.add_link(nodes[i], nodes[j], base, 100.0).unwrap(), base));
                }
            }
        }
        let mut costs: Vec<f64> = links.iter().map(|&(_, c)| c).collect();
        let (mut tree, _) = SsspTree::build(&g, nodes[0], &costs);

        let mut state = 0x1234_5678_u64;
        let mut touched = Vec::new();
        for step in 0..200 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let idx = (state >> 33) as usize % costs.len();
            let old = costs[idx];
            costs[idx] = match state % 4 {
                0 => f64::INFINITY,
                1 => old / 2.0,
                2 => (step % 11) as f64 + 0.5,
                _ => old * 3.0 + 1.0,
            };
            if costs[idx] == old {
                continue;
            }
            let before = tree.distances().to_vec();
            let stats = tree.apply_cost_change(&g, &costs, links[idx].0, old, &mut touched);
            assert!(tree.matches_full(&g, &costs), "diverged at step {step}");

            // The touched list names each written node once, and every
            // node it leaves out kept its distance bit for bit.
            let mut listed = vec![false; before.len()];
            for node in &touched {
                assert!(!listed[node.index()], "step {step}: {node} listed twice");
                listed[node.index()] = true;
            }
            for (v, (&was, &now)) in before.iter().zip(tree.distances()).enumerate() {
                if !listed[v] {
                    assert_eq!(was.to_bits(), now.to_bits(), "step {step}: n{v} moved untouched");
                }
            }
            if costs[idx] < old {
                assert_eq!(touched.len() as u64, stats.settled, "step {step}: decrease settles");
            }
        }
    }

    #[test]
    fn touched_lists_exactly_the_rewritten_nodes() {
        let (g, mut costs) = diamond();
        let (mut tree, _) = SsspTree::build(&g, NodeId(0), &costs);
        let mut touched = vec![NodeId(3)]; // stale content is cleared

        // n2 is reached through n1 (the lower index wins the tie), so
        // raising link 0 rewrites the subtree n1, n2 and nothing else.
        costs[0] = 10.0;
        tree.apply_cost_change(&g, &costs, LinkId(0), 1.0, &mut touched);
        assert_eq!(touched, vec![NodeId(1), NodeId(2)]);

        // The chord is off the tree: raising it touches nothing.
        costs[4] = 50.0;
        tree.apply_cost_change(&g, &costs, LinkId(4), 5.0, &mut touched);
        assert!(touched.is_empty());

        // Lowering link 0 back re-settles n1 only: n2 ties at 2 and
        // keeps its route through n3.
        costs[0] = 1.0;
        let stats = tree.apply_cost_change(&g, &costs, LinkId(0), 10.0, &mut touched);
        assert_eq!(touched, vec![NodeId(1)]);
        assert_eq!(stats.settled, 1);
    }

    #[test]
    fn serde_roundtrip_preserves_tree() {
        let (g, costs) = diamond();
        let (tree, _) = SsspTree::build(&g, NodeId(0), &costs);
        let json = serde_json::to_string(&tree.parents()).unwrap();
        assert_eq!(json, r#"{"source":0,"parent_link":[null,0,1,2]}"#);
        let back: ParentTree = serde_json::from_str(&json).unwrap();
        assert_eq!(SsspTree::from_parents(&g, &costs, &back), Ok(tree));
    }

    /// The diamond's tree from n0 with one parent entry replaced.
    fn edited(node: usize, link: Option<usize>) -> ParentTree {
        let (g, costs) = diamond();
        let mut parents = SsspTree::build(&g, NodeId(0), &costs).0.parents();
        parents.parent_link[node] = link.map(|l| LinkId(l as u32));
        parents
    }

    #[test]
    fn from_parents_refuses_every_kind_of_bad_parent() {
        let (g, mut costs) = diamond();
        let rebuild = |parents: ParentTree, costs: &[f64]| {
            SsspTree::from_parents(&g, costs, &parents).unwrap_err()
        };
        let (n, l) = (|i: u32| NodeId(i), |i: u32| LinkId(i));
        // n2 hanging off n0—n3 (not incident), or off a link past the graph.
        let foreign = rebuild(edited(2, Some(2)), &costs);
        assert_eq!(foreign, ParentFault::ForeignLink { node: n(2), link: l(2) });
        let past = rebuild(edited(2, Some(9)), &costs);
        assert_eq!(past, ParentFault::ForeignLink { node: n(2), link: l(9) });
        // n1 hanging off n0—n1 while that link is disabled.
        costs[0] = f64::INFINITY;
        let disabled = rebuild(edited(1, Some(0)), &costs);
        assert_eq!(disabled, ParentFault::DisabledLink { node: n(1), link: l(0) });
        costs[0] = 1.0;
        // n1 and n2 each other's parent; the source holding a parent.
        let cycle = rebuild(edited(1, Some(1)), &costs);
        assert_eq!(cycle, ParentFault::Unrooted { node: n(1) });
        let rooted_elsewhere = rebuild(edited(0, Some(0)), &costs);
        assert_eq!(rooted_elsewhere, ParentFault::Unrooted { node: n(0) });
        // n2 through the chord (5 instead of 2), or left unreachable.
        let long_way = rebuild(edited(2, Some(4)), &costs);
        assert_eq!(long_way, ParentFault::Shortcut { node: n(2), link: l(1) });
        let dropped = rebuild(edited(2, None), &costs);
        assert_eq!(dropped, ParentFault::Shortcut { node: n(2), link: l(1) });
        assert_eq!(
            dropped.to_string(),
            "link 1 would shorten the distance of node 2",
            "faults name plain indices"
        );
    }

    #[test]
    fn random_trees_rebuild_from_their_parents_bit_for_bit() {
        // A chord graph whose links are raised, lowered, disabled and
        // re-enabled at random: after every repair the distances are the
        // parent sums, and the parents alone rebuild the tree.
        let mut g = Graph::new();
        let nodes: Vec<_> = (0..10).map(|_| g.add_node(NodeKind::Router)).collect();
        for i in 0..nodes.len() {
            for j in (i + 1)..nodes.len() {
                if (i * 5 + j * 3) % 4 == 0 {
                    g.add_link(nodes[i], nodes[j], 1.0, 100.0).unwrap();
                }
            }
        }
        let mut costs: Vec<f64> = (0..g.link_count()).map(|i| 0.1 * (i % 7) as f64 + 0.3).collect();
        let (mut tree, _) = SsspTree::build(&g, nodes[3], &costs);
        let mut state = 0x9e37_79b9_u64;
        for step in 0..150 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let idx = (state >> 33) as usize % costs.len();
            let old = costs[idx];
            costs[idx] =
                if state % 3 == 0 { f64::INFINITY } else { ((state >> 40) % 97) as f64 / 7.0 };
            tree.apply_cost_change(&g, &costs, LinkId(idx as u32), old, &mut Vec::new());
            assert_eq!(tree.parent_sum_mismatch(&g, &costs), None, "step {step}");
            let back = SsspTree::from_parents(&g, &costs, &tree.parents()).unwrap();
            let bits = |t: &SsspTree| t.distances().iter().map(|d| d.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&back), bits(&tree), "step {step}");
            assert_eq!(back, tree, "step {step}");
        }
    }

    #[test]
    #[should_panic(expected = "one entry per link")]
    fn wrong_cost_length_panics() {
        let (g, _) = diamond();
        let _ = SsspTree::build(&g, NodeId(0), &[1.0]);
    }
}
