//! Incremental maintenance of the IoT × server delay matrix.
//!
//! [`DelayMaintainer`] owns one [`SsspTree`] per edge server plus the
//! effective per-link cost array, and repairs both in place as link
//! latencies drift and servers fail or recover. In incremental mode only
//! the shortest-path trees actually affected by a change are re-relaxed,
//! and only the matrix entries of the IoT nodes a repair touched are
//! rewritten; each step reports those `(row, column)` entries so the
//! runtime can patch its cluster's copy the same way. Debug builds — and
//! release builds running under `TACC_CHECK=1`, see [`crate::check`] —
//! assert after every repair that each tree agrees with a from-scratch
//! Dijkstra and the patched matrix with a full read-out of the trees.
//! The full-recompute fallback rebuilds every tree on every change,
//! re-reads the whole matrix, and serves as the correctness oracle and
//! worst-case bound.
//!
//! Server failure is modeled as *node* failure (matching
//! [`tacc_topology::Topology::with_failed_node`]): every link incident to
//! the failed server's node gets an infinite cost, which simultaneously
//! blanks the server's own column and reroutes any other server's paths
//! that ran through it. Links are reference-counted so two failed
//! endpoints must both recover before the link carries traffic again.

use serde::{Deserialize, Serialize};
use tacc_topology::incremental::{SsspTree, UpdateStats};
use tacc_topology::{DelayMatrix, DelayModel, DelayOracle, LinkId, Topology};

/// Maintains per-server shortest-path trees and the delay matrix across
/// topology changes. Serializes as part of runtime snapshots; the restored
/// value is field-for-field identical, so resumed runs repair the exact
/// same tree structures.
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
    /// One tree per server column, in role order.
    trees: Vec<SsspTree>,
    matrix: DelayMatrix,
    failed: Vec<bool>,
    /// Fallback mode: rebuild every tree from scratch on every change.
    full_mode: bool,
    /// Work of one full rebuild of all trees (measured at construction) —
    /// the baseline that incremental savings are reported against.
    baseline: UpdateStats,
}

impl DelayMaintainer {
    /// Builds the trees and matrix for a healthy topology.
    pub fn new(topology: &Topology, model: DelayModel, full_mode: bool) -> Self {
        let columns: Vec<usize> = (0..topology.num_servers()).collect();
        Self::new_scoped(topology, model, full_mode, &columns)
    }

    /// Builds a maintainer that keeps trees and matrix columns only for
    /// the listed server indices (a zone's members), in the given
    /// order. Everything downstream — drift repair, failure handling,
    /// the oracle impl — works in *column* space: column `c` is server
    /// `columns[c]` of the topology. A scoped column is bit-identical
    /// to the corresponding column of an unscoped maintainer fed the
    /// same events, because each tree only depends on its own source
    /// and the shared link costs.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is empty or any index is out of range.
    pub fn new_scoped(
        topology: &Topology,
        model: DelayModel,
        full_mode: bool,
        columns: &[usize],
    ) -> Self {
        assert!(!columns.is_empty(), "a maintainer needs at least one server column");
        debug_assert!(
            topology.iot_nodes().windows(2).all(|w| w[0] < w[1]),
            "row lookup binary-searches the IoT nodes"
        );
        let graph = topology.graph();
        let base_costs: Vec<f64> =
            graph.links().map(|(_, link)| model.link_delay_ms(link)).collect();
        let costs = base_costs.clone();
        let mut baseline = UpdateStats::default();
        let trees: Vec<SsspTree> = columns
            .iter()
            .map(|&server| {
                let (tree, stats) = SsspTree::build(graph, topology.server_nodes()[server], &costs);
                baseline.absorb(stats);
                tree
            })
            .collect();
        let matrix = matrix_from_trees(&trees, topology);
        DelayMaintainer {
            model,
            base_costs,
            disabled: vec![0; graph.link_count()],
            costs,
            trees,
            matrix,
            failed: vec![false; columns.len()],
            full_mode,
            baseline,
        }
    }

    /// The maintained delay matrix.
    pub fn matrix(&self) -> &DelayMatrix {
        &self.matrix
    }

    /// The link-delay model the costs derive from.
    pub fn model(&self) -> &DelayModel {
        &self.model
    }

    /// Whether server column `server` is currently failed.
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
    /// `trees` against the server count, the matrix against the IoT and
    /// server counts (and its stored data and node lists against its own
    /// dimensions), and every tree against the node count. Empty for any
    /// maintainer [`DelayMaintainer::new`] built over `topology`; a
    /// deserialized one that disagrees would index out of bounds on the
    /// next step, so snapshot quarantine reports these before a restore.
    pub fn shape_mismatches(&self, topology: &Topology) -> Vec<(&'static str, usize, usize)> {
        let graph = topology.graph();
        let (links, nodes) = (graph.link_count(), graph.node_count());
        let (rows, columns) = (self.matrix.num_iot(), self.matrix.num_servers());
        let (data, iot_nodes, server_nodes) = self.matrix.stored_lengths();
        let mut lengths = vec![
            ("maintainer base_costs", self.base_costs.len(), links),
            ("maintainer costs", self.costs.len(), links),
            ("maintainer disabled", self.disabled.len(), links),
            ("maintainer failed", self.failed.len(), topology.num_servers()),
            ("maintainer trees", self.trees.len(), topology.num_servers()),
            ("maintainer matrix rows", rows, topology.num_iot()),
            ("maintainer matrix columns", columns, topology.num_servers()),
            ("maintainer matrix data", data, rows.saturating_mul(columns)),
            ("maintainer matrix IoT nodes", iot_nodes, rows),
            ("maintainer matrix server nodes", server_nodes, columns),
        ];
        for tree in &self.trees {
            let (distances, parents) = tree.node_lengths();
            lengths.push(("maintainer tree distances", distances, nodes));
            lengths.push(("maintainer tree parent links", parents, nodes));
        }
        lengths.retain(|&(_, found, expected)| found != expected);
        lengths
    }

    /// Applies a latency drift that the caller has already written into
    /// `topology` (via [`Topology::set_link_latency`]). Returns the repair
    /// work performed and appends to `changed` the `(row, column)`
    /// matrix entries it rewrote — possibly with repeats, and possibly
    /// entries whose value came out the same. Every entry it leaves out
    /// is unchanged.
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
        // Column space, not topology space: a scoped maintainer's
        // column `server` may sit on any topology server node.
        let node = self.matrix.server_node(server);
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
    /// also patches the matrix entries of the IoT nodes each repair
    /// touched (found by binary search: [`Topology::new`] lists IoT
    /// nodes in ascending id order) and appends them to `changed`.
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
            for &node in &touched {
                if let Ok(row) = iot.binary_search(&node) {
                    self.matrix.set(row, column, tree.distance(node));
                    changed.push((row, column));
                }
            }
        }
        total
    }

    /// Completes one event's matrix update. Full mode re-reads the whole
    /// matrix out of its rebuilt trees and lists every entry that moved;
    /// incremental mode has patched its entries already, and checks them
    /// against that same read-out where the tree oracle runs.
    fn finish(&mut self, topology: &Topology, changed: &mut Vec<(usize, usize)>) {
        if self.full_mode {
            let fresh = matrix_from_trees(&self.trees, topology);
            for row in 0..fresh.num_iot() {
                let (old, new) = (self.matrix.row(row), fresh.row(row));
                for (column, (a, b)) in old.iter().zip(new).enumerate() {
                    if a.to_bits() != b.to_bits() {
                        changed.push((row, column));
                    }
                }
            }
            self.matrix = fresh;
        } else if cfg!(debug_assertions) || crate::check::enabled() {
            assert!(
                self.matrix == matrix_from_trees(&self.trees, topology),
                "patched delay matrix diverged from a full read-out of its trees"
            );
        }
    }

    /// Correctness oracle: the maintained matrix must equal the one
    /// derived from scratch on the equivalent degraded topology (failed
    /// servers' nodes disconnected). Used by tests and debug assertions.
    // The contract is *bit-for-bit* agreement, so exact comparison is
    // the point, not an accident.
    #[allow(clippy::float_cmp)]
    pub fn matches_full_recompute(&self, topology: &Topology) -> bool {
        let mut degraded = topology.clone();
        for (server, &failed) in self.failed.iter().enumerate() {
            if failed {
                degraded = degraded.with_failed_node(self.matrix.server_node(server));
            }
        }
        let fresh = degraded.delay_matrix(&self.model);
        // Map each maintained column to its topology server index — the
        // identity for an unscoped maintainer, the member list for a
        // scoped one.
        let global: Vec<usize> = (0..self.matrix.num_servers())
            .map(|j| {
                let node = self.matrix.server_node(j);
                topology
                    .server_nodes()
                    .iter()
                    .position(|&s| s == node)
                    .expect("maintained columns are topology servers")
            })
            .collect();
        // with_failed_node reassigns link ids, so compare matrices (the
        // externally visible product), not trees.
        (0..self.matrix.num_iot()).all(|i| {
            global.iter().enumerate().all(|(j, &gj)| {
                let a = self.matrix.get(i, j);
                let b = fresh.get(i, gj);
                a == b || (a.is_infinite() && b.is_infinite())
            })
        })
    }
}

/// The maintainer answers delay queries straight from its per-server
/// shortest-path trees — the same values as [`DelayMaintainer::matrix`]
/// (the matrix is patched from the trees after every event), but
/// available per entry without touching the materialized matrix. Online
/// paths that only need a sliver of the matrix (one event's device, one
/// query's sub-instance) go through this impl.
impl DelayOracle for DelayMaintainer {
    fn num_iot(&self) -> usize {
        self.matrix.num_iot()
    }

    fn num_servers(&self) -> usize {
        self.matrix.num_servers()
    }

    fn delay(&self, iot: usize, server: usize) -> f64 {
        self.trees[server].distance(self.matrix.iot_node(iot))
    }

    fn materialize(&self) -> DelayMatrix {
        self.matrix.clone()
    }
}

/// Reads the whole matrix out of the trees: at construction, on every
/// full-mode event, and as the oracle for patched ones. Columns of failed
/// servers come out infinite because all their incident links do. Column
/// nodes come from the tree sources, so scoped maintainers get exactly
/// their columns.
fn matrix_from_trees(trees: &[SsspTree], topology: &Topology) -> DelayMatrix {
    let rows: Vec<Vec<f64>> = topology
        .iot_nodes()
        .iter()
        .map(|&iot| trees.iter().map(|tree| tree.distance(iot)).collect())
        .collect();
    DelayMatrix::from_rows_with_nodes(
        rows,
        topology.iot_nodes().to_vec(),
        trees.iter().map(SsspTree::source).collect(),
    )
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
        assert_eq!(maintainer.matrix(), &topo.delay_matrix(&model));
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
            assert_eq!(maintainer.matrix(), &topo.delay_matrix(&model), "after drift to {raw}");
        }
    }

    #[test]
    fn fail_and_recover_round_trip() {
        let topo = topology();
        let model = DelayModel::default();
        let mut maintainer = DelayMaintainer::new(&topo, model.clone(), false);
        let before = maintainer.matrix().clone();

        maintainer.fail_server(&topo, 1, &mut Vec::new());
        assert!(maintainer.is_failed(1));
        assert_eq!(maintainer.alive_count(), 3);
        // The failed column is unreachable for every device.
        for i in 0..before.num_iot() {
            assert!(maintainer.matrix().get(i, 1).is_infinite());
        }
        assert!(maintainer.matches_full_recompute(&topo));

        maintainer.recover_server(&topo, 1, &mut Vec::new());
        assert_eq!(maintainer.matrix(), &before, "recovery restores the original matrix");
    }

    #[test]
    fn overlapping_failures_reference_count_links() {
        let topo = topology();
        let mut maintainer = DelayMaintainer::new(&topo, DelayModel::default(), false);
        let before = maintainer.matrix().clone();
        maintainer.fail_server(&topo, 0, &mut Vec::new());
        maintainer.fail_server(&topo, 2, &mut Vec::new());
        assert!(maintainer.matches_full_recompute(&topo));
        maintainer.recover_server(&topo, 0, &mut Vec::new());
        assert!(maintainer.matches_full_recompute(&topo));
        maintainer.recover_server(&topo, 2, &mut Vec::new());
        assert_eq!(maintainer.matrix(), &before);
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
        assert_eq!(maintainer.matrix(), &topo.delay_matrix(&model));
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
            assert_eq!(inc.matrix(), full.matrix());
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
        let matrix = maintainer.matrix();
        assert_eq!(DelayOracle::num_iot(&maintainer), matrix.num_iot());
        assert_eq!(DelayOracle::num_servers(&maintainer), matrix.num_servers());
        for i in 0..matrix.num_iot() {
            for j in 0..matrix.num_servers() {
                assert_eq!(
                    DelayOracle::delay(&maintainer, i, j).to_bits(),
                    matrix.get(i, j).to_bits(),
                    "entry ({i}, {j})"
                );
            }
        }
        assert_eq!(&DelayOracle::materialize(&maintainer), matrix);
    }

    #[test]
    fn scoped_columns_are_bitwise_equal_to_the_full_maintainer() {
        let mut topo = topology();
        let model = DelayModel::default();
        let columns = [3usize, 1];
        let mut full = DelayMaintainer::new(&topo, model.clone(), false);
        let mut scoped = DelayMaintainer::new_scoped(&topo, model, false, &columns);
        assert_eq!(scoped.matrix().num_servers(), columns.len());

        let check = |full: &DelayMaintainer, scoped: &DelayMaintainer, what: &str| {
            for (c, &j) in columns.iter().enumerate() {
                assert_eq!(
                    scoped.matrix().server_node(c),
                    full.matrix().server_node(j),
                    "{what}: column {c} node"
                );
                for i in 0..full.matrix().num_iot() {
                    assert_eq!(
                        scoped.matrix().get(i, c).to_bits(),
                        full.matrix().get(i, j).to_bits(),
                        "{what}: entry ({i}, {j})"
                    );
                }
            }
            assert!(
                scoped
                    .link_costs()
                    .iter()
                    .map(|c| c.to_bits())
                    .eq(full.link_costs().iter().map(|c| c.to_bits())),
                "{what}: link costs diverged"
            );
        };
        check(&full, &scoped, "initial");

        let link = topo.graph().link_id(2);
        topo.set_link_latency(link, 6.5).unwrap();
        full.drift(&topo, link, &mut Vec::new());
        scoped.drift(&topo, link, &mut Vec::new());
        check(&full, &scoped, "after drift");

        // Server 3 is column 0 of the scoped maintainer.
        full.fail_server(&topo, 3, &mut Vec::new());
        scoped.fail_server(&topo, 0, &mut Vec::new());
        assert!(scoped.is_failed(0));
        assert!(scoped.matches_full_recompute(&topo));
        check(&full, &scoped, "after failure");

        full.recover_server(&topo, 3, &mut Vec::new());
        scoped.recover_server(&topo, 0, &mut Vec::new());
        assert!(scoped.matches_full_recompute(&topo));
        check(&full, &scoped, "after recovery");
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
                let before = maintainer.matrix().clone();
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
                let after = maintainer.matrix();
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
