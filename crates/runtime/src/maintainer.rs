//! Incremental maintenance of the IoT × server delays.
//!
//! [`DelayMaintainer`] owns one [`SsspTree`] per edge server plus the
//! effective per-link cost array, and repairs both in place as link
//! latencies drift and servers fail or recover. In incremental mode only
//! the shortest-path trees actually affected by a change are re-relaxed,
//! and each step reports the `(row, column)` entries of the IoT nodes a
//! repair touched; the runtime reads their new values out of the trees
//! ([`DelayMaintainer::delay`]) and patches its cluster's instance, the
//! one materialized delay matrix. Debug builds — and release builds
//! running under `TACC_CHECK=1`, see [`crate::check`] — assert after
//! every repair that each tree agrees with a from-scratch Dijkstra. The
//! full-recompute fallback rebuilds every tree on every change, reports
//! every entry, and serves as the correctness oracle and worst-case
//! bound.
//!
//! Server failure is modeled as *node* failure (matching
//! [`tacc_topology::Topology::with_failed_node`]): every link incident to
//! the failed server's node gets an infinite cost, which simultaneously
//! blanks the server's own column and reroutes any other server's paths
//! that ran through it. Links are reference-counted so two failed
//! endpoints must both recover before the link carries traffic again.

use serde::{Deserialize, Serialize};
use tacc_topology::incremental::{SsspTree, UpdateStats};
use tacc_topology::{DelayMatrix, DelayModel, LinkId, NodeId, Topology};

/// Maintains per-server shortest-path trees across topology changes;
/// the delays are read out of them. Serializes as part of runtime
/// snapshots; the restored value is field-for-field identical, so
/// resumed runs repair the exact same tree structures.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DelayMaintainer {
    model: DelayModel,
    /// Per-link cost under `model` with the link's *current* latency,
    /// ignoring failures.
    base_costs: Vec<f64>,
    /// Per-link count of failed endpoints (0, 1 or 2); the effective cost
    /// is infinite while non-zero.
    disabled: Vec<u32>,
    /// Effective costs: `base_costs` with disabled links at infinity.
    costs: Vec<f64>,
    /// One tree per server, in role order: tree `j` is rooted at
    /// server `j` and holds column `j` of the delay matrix.
    trees: Vec<SsspTree>,
    failed: Vec<bool>,
    /// Fallback mode: rebuild every tree from scratch on every change.
    full_mode: bool,
    /// Work of one full rebuild of all trees (measured at construction) —
    /// the baseline that incremental savings are reported against.
    baseline: UpdateStats,
}

impl DelayMaintainer {
    /// Builds the trees for a healthy topology.
    pub fn new(topology: &Topology, model: DelayModel, full_mode: bool) -> Self {
        debug_assert!(
            topology.iot_nodes().windows(2).all(|w| w[0] < w[1]),
            "row lookup binary-searches the IoT nodes"
        );
        let graph = topology.graph();
        let base_costs: Vec<f64> =
            graph.links().map(|(_, link)| model.link_delay_ms(link)).collect();
        let costs = base_costs.clone();
        let mut baseline = UpdateStats::default();
        let trees: Vec<SsspTree> = topology
            .server_nodes()
            .iter()
            .map(|&node| {
                let (tree, stats) = SsspTree::build(graph, node, &costs);
                baseline.absorb(stats);
                tree
            })
            .collect();
        DelayMaintainer {
            model,
            base_costs,
            disabled: vec![0; graph.link_count()],
            costs,
            trees,
            failed: vec![false; topology.num_servers()],
            full_mode,
            baseline,
        }
    }

    /// The delay from IoT device `iot` to server `server`, read out of
    /// the server's tree: `f64::INFINITY` when unreachable, including
    /// every entry of a failed server's column.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn delay(&self, topology: &Topology, iot: usize, server: usize) -> f64 {
        self.trees[server].distance(topology.iot_nodes()[iot])
    }

    /// The whole delay matrix, read out of the trees: what the runtime's
    /// construction and invariant checks hold its cluster's instance to.
    ///
    /// # Panics
    ///
    /// Panics if the maintainer's trees do not fit `topology`
    /// ([`DelayMaintainer::shape_mismatches`] is non-empty) or hold a
    /// negative or NaN distance at an IoT node.
    pub fn delay_matrix(&self, topology: &Topology) -> DelayMatrix {
        let rows: Vec<Vec<f64>> = topology
            .iot_nodes()
            .iter()
            .map(|&iot| self.trees.iter().map(|tree| tree.distance(iot)).collect())
            .collect();
        DelayMatrix::from_rows_with_nodes(
            rows,
            topology.iot_nodes().to_vec(),
            self.trees.iter().map(SsspTree::source).collect(),
        )
    }

    /// The link-delay model the costs derive from.
    pub fn model(&self) -> &DelayModel {
        &self.model
    }

    /// Whether server `server` is currently failed.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn is_failed(&self, server: usize) -> bool {
        self.failed[server]
    }

    /// Number of currently alive servers.
    pub fn alive_count(&self) -> usize {
        self.failed.iter().filter(|&&f| !f).count()
    }

    /// The measured work of one from-scratch rebuild of every tree — what
    /// each change would cost without incremental repair.
    pub fn full_rebuild_baseline(&self) -> UpdateStats {
        self.baseline
    }

    /// The effective per-link costs the trees currently run on (drifted
    /// latencies, failed links at `∞`). This is the cost array a
    /// [`tacc_topology::CompressedCore`] — and the zone layout on top
    /// of it — takes to see exactly the delays this maintainer serves.
    pub fn link_costs(&self) -> &[f64] {
        &self.costs
    }

    /// Where this maintainer's shape disagrees with `topology`, as
    /// `(what, found, expected)` lengths: the per-link `base_costs`,
    /// `costs` and `disabled` against the link count, `failed` and
    /// `trees` against the server count, and every tree against the node
    /// count. Empty for any maintainer [`DelayMaintainer::new`] built
    /// over `topology`; a deserialized one that disagrees would index out
    /// of bounds when its delays are read or on the next step, so
    /// snapshot quarantine reports these before a restore, and the
    /// restore itself refuses them.
    pub fn shape_mismatches(&self, topology: &Topology) -> Vec<(&'static str, usize, usize)> {
        let graph = topology.graph();
        let (links, nodes) = (graph.link_count(), graph.node_count());
        let mut lengths = vec![
            ("maintainer base_costs", self.base_costs.len(), links),
            ("maintainer costs", self.costs.len(), links),
            ("maintainer disabled", self.disabled.len(), links),
            ("maintainer failed", self.failed.len(), topology.num_servers()),
            ("maintainer trees", self.trees.len(), topology.num_servers()),
        ];
        for tree in &self.trees {
            let (distances, parents) = tree.node_lengths();
            lengths.push(("maintainer tree distances", distances, nodes));
            lengths.push(("maintainer tree parent links", parents, nodes));
        }
        lengths.retain(|&(_, found, expected)| found != expected);
        lengths
    }

    /// The trees not rooted at their server's node, as `(server, found,
    /// expected)`: tree `j` must grow from `topology.server_nodes()[j]`.
    /// Empty for any maintainer [`DelayMaintainer::new`] built over
    /// `topology`. A deserialized tree with another source passes every
    /// length check, then repairs and rebuilds from the wrong node (or
    /// out of the graph), so snapshot quarantine reports these too.
    pub fn misrooted_trees(&self, topology: &Topology) -> Vec<(usize, NodeId, NodeId)> {
        self.trees
            .iter()
            .zip(topology.server_nodes())
            .enumerate()
            .filter(|(_, (tree, &node))| tree.source() != node)
            .map(|(server, (tree, &node))| (server, tree.source(), node))
            .collect()
    }

    /// The distances no shortest-path tree can hold, as `(server, node
    /// index, distance)`: a NaN or negative distance at any node of tree
    /// `server`, and a root distance other than 0. Empty for any
    /// maintainer [`DelayMaintainer::new`] built. A deserialized tree
    /// carrying one passes the shape and root checks, and the next
    /// repair that reaches an IoT row writes it into the cluster's
    /// delays, which refuse it with a panic; snapshot quarantine
    /// reports these before a restore.
    pub fn bad_tree_distances(&self) -> Vec<(usize, usize, f64)> {
        let mut bad = Vec::new();
        for (server, tree) in self.trees.iter().enumerate() {
            let root = tree.source().index();
            for (node, &d) in tree.distances().iter().enumerate() {
                if d.is_nan() || d < 0.0 || (node == root && d != 0.0) {
                    bad.push((server, node, d));
                }
            }
        }
        bad
    }

    /// Applies a latency drift that the caller has already written into
    /// `topology` (via [`Topology::set_link_latency`]). Returns the repair
    /// work performed and appends to `changed` the `(row, column)`
    /// entries whose delay it rewrote — possibly with repeats, and
    /// possibly entries whose value came out the same; their new values
    /// are [`DelayMaintainer::delay`]. Every entry it leaves out is
    /// unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `link` does not belong to the topology the maintainer
    /// was built from.
    pub fn drift(
        &mut self,
        topology: &Topology,
        link: LinkId,
        changed: &mut Vec<(usize, usize)>,
    ) -> UpdateStats {
        let new_base = self.model.link_delay_ms(topology.graph().link(link));
        self.base_costs[link.index()] = new_base;
        if self.disabled[link.index()] > 0 {
            // The link is failed: its effective cost stays infinite, so no
            // tree can change. The new base takes effect on recovery.
            return UpdateStats::default();
        }
        let old = self.costs[link.index()];
        self.costs[link.index()] = new_base;
        let stats = self.repair(topology, link, old, changed);
        self.finish(topology, changed);
        stats
    }

    /// Fails a server: all links incident to its node become infinite.
    /// Idempotence is the caller's concern ([`DelayMaintainer::is_failed`]).
    /// Reports rewritten entries into `changed` like
    /// [`DelayMaintainer::drift`].
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range or already failed.
    pub fn fail_server(
        &mut self,
        topology: &Topology,
        server: usize,
        changed: &mut Vec<(usize, usize)>,
    ) -> UpdateStats {
        assert!(!self.failed[server], "server {server} is already failed");
        self.failed[server] = true;
        let stats = self.set_incident_links(topology, server, true, changed);
        self.finish(topology, changed);
        stats
    }

    /// Recovers a failed server: incident links whose other endpoint is
    /// alive return to their base cost. Reports rewritten entries into
    /// `changed` like [`DelayMaintainer::drift`].
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range or not failed.
    pub fn recover_server(
        &mut self,
        topology: &Topology,
        server: usize,
        changed: &mut Vec<(usize, usize)>,
    ) -> UpdateStats {
        assert!(self.failed[server], "server {server} is not failed");
        self.failed[server] = false;
        let stats = self.set_incident_links(topology, server, false, changed);
        self.finish(topology, changed);
        stats
    }

    /// Disables (`disable = true`) or re-enables the links incident to a
    /// server's node, repairing every tree per changed link.
    // Exact float equality is deliberate: an unchanged cost (bitwise)
    // needs no repair, and any numeric change does.
    #[allow(clippy::float_cmp)]
    fn set_incident_links(
        &mut self,
        topology: &Topology,
        server: usize,
        disable: bool,
        changed: &mut Vec<(usize, usize)>,
    ) -> UpdateStats {
        let node = topology.server_nodes()[server];
        let incident: Vec<LinkId> =
            topology.graph().neighbors(node).iter().map(|n| n.link).collect();
        let mut total = UpdateStats::default();
        for link in incident {
            let idx = link.index();
            let old = self.costs[idx];
            if disable {
                self.disabled[idx] += 1;
                self.costs[idx] = f64::INFINITY;
            } else {
                self.disabled[idx] -= 1;
                if self.disabled[idx] > 0 {
                    continue; // other endpoint still failed
                }
                self.costs[idx] = self.base_costs[idx];
            }
            if self.costs[idx] != old {
                total.absorb(self.repair(topology, link, old, changed));
            }
        }
        total
    }

    /// Repairs every tree after `costs[link]` changed from `old_cost`,
    /// honoring the full-recompute fallback mode. In incremental mode it
    /// also appends to `changed` the entries of the IoT nodes each
    /// repair touched (rows found by binary search: [`Topology::new`]
    /// lists IoT nodes in ascending id order).
    fn repair(
        &mut self,
        topology: &Topology,
        link: LinkId,
        old_cost: f64,
        changed: &mut Vec<(usize, usize)>,
    ) -> UpdateStats {
        let graph = topology.graph();
        let iot = topology.iot_nodes();
        let mut touched = Vec::new();
        let mut total = UpdateStats::default();
        for (column, tree) in self.trees.iter_mut().enumerate() {
            if self.full_mode {
                total.absorb(tree.rebuild(graph, &self.costs));
                continue;
            }
            total.absorb(tree.apply_cost_change(graph, &self.costs, link, old_cost, &mut touched));
            // The full-recompute oracle: always in debug builds, and
            // in release builds when TACC_CHECK=1 — so an
            // incremental-repair drift bug cannot hide behind
            // `--release` (see `crate::check`).
            if cfg!(debug_assertions) || crate::check::enabled() {
                assert!(
                    tree.matches_full(graph, &self.costs),
                    "incremental repair diverged from full Dijkstra for server at {:?}",
                    tree.source()
                );
            }
            // Routers and servers have no row; only IoT nodes do.
            for node in &touched {
                if let Ok(row) = iot.binary_search(node) {
                    changed.push((row, column));
                }
            }
        }
        total
    }

    /// Completes one event's report. Full mode rebuilt every tree, so it
    /// lists every entry; incremental mode listed its entries during the
    /// repairs.
    fn finish(&self, topology: &Topology, changed: &mut Vec<(usize, usize)>) {
        if self.full_mode {
            for row in 0..topology.num_iot() {
                changed.extend((0..self.trees.len()).map(|column| (row, column)));
            }
        }
    }

    /// Correctness oracle: the delays read out of the trees must equal
    /// the matrix derived from scratch on the equivalent degraded
    /// topology (failed servers' nodes disconnected). Used by tests and
    /// the sampled deep invariant check.
    // The contract is *bit-for-bit* agreement, so exact comparison is
    // the point, not an accident.
    #[allow(clippy::float_cmp)]
    pub fn matches_full_recompute(&self, topology: &Topology) -> bool {
        let mut degraded = topology.clone();
        for (server, &failed) in self.failed.iter().enumerate() {
            if failed {
                degraded = degraded.with_failed_node(topology.server_nodes()[server]);
            }
        }
        let fresh = degraded.delay_matrix(&self.model);
        // with_failed_node reassigns link ids, so compare matrices (the
        // externally visible product), not trees.
        (0..fresh.num_iot()).all(|i| {
            (0..fresh.num_servers()).all(|j| {
                let (a, b) = (self.delay(topology, i, j), fresh.get(i, j));
                a == b || (a.is_infinite() && b.is_infinite())
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacc_workload::{ScenarioBuilder, TopologyFamily};

    fn topology() -> Topology {
        ScenarioBuilder::new()
            .num_iot(20)
            .num_servers(4)
            .family(TopologyFamily::RandomGeometric)
            .build(11)
            .unwrap()
            .topology()
            .clone()
    }

    #[test]
    fn initial_matrix_matches_topology_derivation() {
        let topo = topology();
        let model = DelayModel::default();
        let maintainer = DelayMaintainer::new(&topo, model.clone(), false);
        assert_eq!(maintainer.delay_matrix(&topo), topo.delay_matrix(&model));
    }

    #[test]
    fn drift_tracks_full_recompute() {
        let mut topo = topology();
        let model = DelayModel::default();
        let mut maintainer = DelayMaintainer::new(&topo, model.clone(), false);
        for (step, raw) in [(0usize, 9.0f64), (3, 0.1), (7, 4.5), (3, 2.0)] {
            let link = topo.graph().link_id(step % topo.graph().link_count());
            topo.set_link_latency(link, raw).unwrap();
            maintainer.drift(&topo, link, &mut Vec::new());
            assert_eq!(
                maintainer.delay_matrix(&topo),
                topo.delay_matrix(&model),
                "after drift to {raw}"
            );
        }
    }

    #[test]
    fn fail_and_recover_round_trip() {
        let topo = topology();
        let model = DelayModel::default();
        let mut maintainer = DelayMaintainer::new(&topo, model.clone(), false);
        let before = maintainer.delay_matrix(&topo);

        maintainer.fail_server(&topo, 1, &mut Vec::new());
        assert!(maintainer.is_failed(1));
        assert_eq!(maintainer.alive_count(), 3);
        // The failed column is unreachable for every device.
        for i in 0..before.num_iot() {
            assert!(maintainer.delay(&topo, i, 1).is_infinite());
        }
        assert!(maintainer.matches_full_recompute(&topo));

        maintainer.recover_server(&topo, 1, &mut Vec::new());
        assert_eq!(maintainer.delay_matrix(&topo), before, "recovery restores the original matrix");
    }

    #[test]
    fn built_and_repaired_trees_hold_no_bad_distance() {
        for full_mode in [false, true] {
            let topo = topology();
            let mut maintainer = DelayMaintainer::new(&topo, DelayModel::default(), full_mode);
            assert!(maintainer.bad_tree_distances().is_empty());
            // A failed server's tree reaches nothing but keeps its root at 0.
            maintainer.fail_server(&topo, 0, &mut Vec::new());
            maintainer.fail_server(&topo, 2, &mut Vec::new());
            assert!(maintainer.bad_tree_distances().is_empty(), "full mode {full_mode}");
        }
    }

    #[test]
    fn overlapping_failures_reference_count_links() {
        let topo = topology();
        let mut maintainer = DelayMaintainer::new(&topo, DelayModel::default(), false);
        let before = maintainer.delay_matrix(&topo);
        maintainer.fail_server(&topo, 0, &mut Vec::new());
        maintainer.fail_server(&topo, 2, &mut Vec::new());
        assert!(maintainer.matches_full_recompute(&topo));
        maintainer.recover_server(&topo, 0, &mut Vec::new());
        assert!(maintainer.matches_full_recompute(&topo));
        maintainer.recover_server(&topo, 2, &mut Vec::new());
        assert_eq!(maintainer.delay_matrix(&topo), before);
    }

    #[test]
    fn drift_on_failed_link_applies_after_recovery() {
        let mut topo = topology();
        let model = DelayModel::default();
        let mut maintainer = DelayMaintainer::new(&topo, model.clone(), false);
        let node = topo.server_nodes()[2];
        let link = topo.graph().neighbors(node)[0].link;

        maintainer.fail_server(&topo, 2, &mut Vec::new());
        topo.set_link_latency(link, 50.0).unwrap();
        let stats = maintainer.drift(&topo, link, &mut Vec::new());
        assert_eq!(stats, UpdateStats::default(), "failed link drift does no tree work");

        maintainer.recover_server(&topo, 2, &mut Vec::new());
        assert_eq!(maintainer.delay_matrix(&topo), topo.delay_matrix(&model));
    }

    #[test]
    fn full_mode_agrees_with_incremental() {
        let mut topo_a = topology();
        let mut topo_b = topology();
        let mut inc = DelayMaintainer::new(&topo_a, DelayModel::default(), false);
        let mut full = DelayMaintainer::new(&topo_b, DelayModel::default(), true);
        let link_count = topo_a.graph().link_count();
        for step in 0..6 {
            let link_a = topo_a.graph().link_id(step * 3 % link_count);
            let link_b = topo_b.graph().link_id(step * 3 % link_count);
            topo_a.set_link_latency(link_a, 1.0 + step as f64).unwrap();
            topo_b.set_link_latency(link_b, 1.0 + step as f64).unwrap();
            let inc_stats = inc.drift(&topo_a, link_a, &mut Vec::new());
            let full_stats = full.drift(&topo_b, link_b, &mut Vec::new());
            assert_eq!(inc.delay_matrix(&topo_a), full.delay_matrix(&topo_b));
            assert!(
                inc_stats.settled <= full_stats.settled,
                "incremental repair must not settle more than a rebuild"
            );
        }
    }

    #[test]
    fn oracle_answers_match_the_maintained_matrix_bit_for_bit() {
        let mut topo = topology();
        let model = DelayModel::default();
        let mut maintainer = DelayMaintainer::new(&topo, model, false);
        let link = topo.graph().link_id(1);
        topo.set_link_latency(link, 3.75).unwrap();
        maintainer.drift(&topo, link, &mut Vec::new());
        maintainer.fail_server(&topo, 2, &mut Vec::new());
        let matrix = maintainer.delay_matrix(&topo);
        assert_eq!(matrix.num_iot(), topo.num_iot());
        assert_eq!(matrix.num_servers(), topo.num_servers());
        for i in 0..matrix.num_iot() {
            for j in 0..matrix.num_servers() {
                assert_eq!(
                    maintainer.delay(&topo, i, j).to_bits(),
                    matrix.get(i, j).to_bits(),
                    "entry ({i}, {j})"
                );
            }
        }
    }

    /// Every entry a step leaves out of its `changed` list keeps its
    /// bits, and every listed entry is in range — in both modes.
    #[test]
    fn changed_lists_cover_every_moved_entry() {
        for full_mode in [false, true] {
            let mut topo = topology();
            let mut maintainer = DelayMaintainer::new(&topo, DelayModel::default(), full_mode);
            let link_count = topo.graph().link_count();
            for step in 0..12 {
                let before = maintainer.delay_matrix(&topo);
                let mut changed = Vec::new();
                match step % 4 {
                    0 | 2 => {
                        let link = topo.graph().link_id(step * 7 % link_count);
                        topo.set_link_latency(link, 0.5 + step as f64).unwrap();
                        maintainer.drift(&topo, link, &mut changed);
                    }
                    1 => {
                        maintainer.fail_server(&topo, 1, &mut changed);
                    }
                    _ => {
                        maintainer.recover_server(&topo, 1, &mut changed);
                    }
                }
                let after = maintainer.delay_matrix(&topo);
                assert!(maintainer.matches_full_recompute(&topo), "step {step}");
                let mut listed = vec![false; after.num_iot() * after.num_servers()];
                for &(i, j) in &changed {
                    assert!(i < after.num_iot() && j < after.num_servers(), "step {step}");
                    listed[i * after.num_servers() + j] = true;
                }
                for i in 0..after.num_iot() {
                    for j in 0..after.num_servers() {
                        if !listed[i * after.num_servers() + j] {
                            assert_eq!(
                                before.get(i, j).to_bits(),
                                after.get(i, j).to_bits(),
                                "full {full_mode}, step {step}: ({i}, {j}) moved unlisted"
                            );
                        }
                    }
                }
                if step % 4 == 1 {
                    assert!(!changed.is_empty(), "a failure blanks a whole column");
                }
            }
        }
    }

    #[test]
    fn snapshot_round_trip_is_exact() {
        let mut topo = topology();
        let mut maintainer = DelayMaintainer::new(&topo, DelayModel::default(), false);
        let link = topo.graph().link_id(2);
        topo.set_link_latency(link, 7.25).unwrap();
        maintainer.drift(&topo, link, &mut Vec::new());
        maintainer.fail_server(&topo, 3, &mut Vec::new());

        let json = serde_json::to_string(&maintainer).unwrap();
        let value = serde_json::from_str(&json).unwrap();
        let back: DelayMaintainer = serde_json::from_value(&value).unwrap();
        assert_eq!(maintainer, back);
    }
}
