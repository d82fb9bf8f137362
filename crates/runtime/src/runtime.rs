//! The online reconfiguration control plane.
//!
//! [`Runtime`] wires the pieces together: it ingests a [`Trace`]'s event
//! stream, keeps the cluster's delay matrix current through a
//! [`DelayMaintainer`], and drives the [`DynamicCluster`] — placing
//! joining devices, evacuating failed servers with priority-aware
//! shedding, and spending a bounded migration budget after every
//! topology change to win back delay. Everything is deterministic:
//! replaying the same trace with the same [`RuntimeConfig`] produces
//! bit-identical assignments and [`CoreMetrics`], including across a
//! snapshot/restore interruption.

use std::time::Instant;

use serde::{Deserialize, Serialize};
use serde_json::{json, Value};
use tacc_core::{Algorithm, DynamicCluster};
use tacc_gap::GapInstance;
use tacc_topology::{DelayModel, LinkId, Topology};
use tacc_workload::{Scenario, TimedEvent, Trace, TraceEvent, TraceScenario};

use crate::maintainer::DelayMaintainer;
use crate::metrics::RuntimeMetrics;
use crate::{RuntimeError, RuntimeSnapshot};

/// Which solver produces the initial assignment and periodic refreshes.
///
/// A deliberately small, serializable selector (snapshots must capture
/// it): both variants use the workspace defaults of the underlying
/// algorithm. The full [`Algorithm`] registry remains available through
/// [`tacc_core`] for offline experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReassignPolicy {
    /// Constructive greedy with regret ordering — fast and deterministic.
    Greedy,
    /// The paper's tabular Q-learning with default hyper-parameters,
    /// retrained from a per-refresh seed.
    QLearning,
}

impl ReassignPolicy {
    /// The corresponding solver selector.
    pub fn algorithm(self) -> Algorithm {
        match self {
            ReassignPolicy::Greedy => Algorithm::greedy(),
            ReassignPolicy::QLearning => Algorithm::q_learning(),
        }
    }

    /// CLI/display name.
    pub fn name(self) -> &'static str {
        match self {
            ReassignPolicy::Greedy => "greedy",
            ReassignPolicy::QLearning => "q-learning",
        }
    }

    /// Looks a policy up by its [`ReassignPolicy::name`].
    pub fn from_name(name: &str) -> Option<ReassignPolicy> {
        match name {
            "greedy" => Some(ReassignPolicy::Greedy),
            "q-learning" => Some(ReassignPolicy::QLearning),
            _ => None,
        }
    }
}

/// Tunables of the online control plane.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuntimeConfig {
    /// Solver for the initial assignment and refreshes.
    pub policy: ReassignPolicy,
    /// Seed of the initial solve; refresh `r` re-derives its own seed
    /// from `(seed, r)` so retraining is deterministic but decorrelated.
    pub seed: u64,
    /// Maximum migrations spent per reconfiguration pass (after each
    /// delay-changing event and per policy refresh).
    pub migration_budget: usize,
    /// Re-solve with the policy every this many events (`None` = never);
    /// the result is applied under the migration budget.
    pub refresh_every: Option<u64>,
    /// Per-device priorities governing shedding (higher sheds later).
    /// Empty means all `1.0`.
    pub priorities: Vec<f64>,
    /// Delay-maintenance fallback: rebuild every shortest-path tree on
    /// every change instead of incremental repair.
    pub full_recompute: bool,
    /// Link-delay model; must match the one the scenario's instance was
    /// derived with.
    pub delay_model: DelayModel,
}

impl Default for RuntimeConfig {
    /// Greedy policy, seed 0, budget 4, no periodic refresh, uniform
    /// priorities, incremental maintenance, default delay model.
    fn default() -> Self {
        RuntimeConfig {
            policy: ReassignPolicy::Greedy,
            seed: 0,
            migration_budget: 4,
            refresh_every: None,
            priorities: Vec::new(),
            full_recompute: false,
            delay_model: DelayModel::default(),
        }
    }
}

/// What happened to a device that needed a server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Placement {
    /// Placed on this server (possibly after shedding others).
    Placed(usize),
    /// Alive servers existed at finite delay, but none could make room;
    /// the device itself was shed (a capacity shortage).
    Shed,
    /// No alive server is reachable at finite delay at all — the device
    /// is partitioned away, not shed for capacity.
    Unreachable,
}

/// Where a device stands in the runtime's conservation law: every device
/// is in exactly one of these states at every event boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceState {
    /// Actively served by this server.
    Assigned(usize),
    /// Wants service and could reach an alive server, but capacity ran
    /// out; re-admitted (highest priority first) when room frees up.
    Shed,
    /// Wants service but no alive server is reachable at finite delay —
    /// a network partition, not a capacity shortage. Re-admitted
    /// (highest priority first) when the partition heals.
    Unreachable,
    /// Left the deployment (or never joined); not re-admitted.
    Departed,
}

/// The online reconfiguration runtime. See the crate-level docs for the
/// event semantics and the module docs for the determinism contract.
#[derive(Debug, Clone)]
pub struct Runtime {
    config: RuntimeConfig,
    /// The trace scenario this runtime was built from, when known (set by
    /// [`Runtime::from_trace`], `None` under [`Runtime::new`]). Travels in
    /// snapshots so restore can reject a snapshot from a different trace.
    scenario: Option<TraceScenario>,
    topology: Topology,
    maintainer: DelayMaintainer,
    cluster: DynamicCluster,
    priorities: Vec<f64>,
    /// Which devices currently *want* service. Differs from the cluster's
    /// active set exactly on shed and unreachable devices: they are
    /// unassigned but still wanted, and are re-admitted when capacity or
    /// connectivity returns.
    wanted: Vec<bool>,
    /// Which wanted-but-unassigned devices currently have no alive server
    /// at finite delay (see [`DeviceState::Unreachable`]). Recomputed
    /// after every event by `reclassify`.
    unreachable: Vec<bool>,
    /// Trace events consumed so far (the resume point of snapshots).
    cursor: u64,
    metrics: RuntimeMetrics,
}

impl Runtime {
    /// Builds the runtime a trace describes: materializes the scenario,
    /// solves the initial assignment with the configured policy, and
    /// starts delay maintenance.
    ///
    /// # Errors
    ///
    /// Propagates trace validation, scenario construction and initial
    /// solve failures, and rejects configs inconsistent with the
    /// scenario.
    pub fn from_trace(trace: &Trace, config: RuntimeConfig) -> Result<Runtime, RuntimeError> {
        trace.validate()?;
        let scenario = trace.scenario.build()?;
        let mut runtime = Runtime::new(&scenario, config)?;
        runtime.scenario = Some(trace.scenario.clone());
        Ok(runtime)
    }

    /// Builds the runtime over an already-materialized scenario.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] for bad priorities or a
    /// delay model that disagrees with the scenario's instance, and
    /// propagates initial-solve failures.
    pub fn new(scenario: &Scenario, config: RuntimeConfig) -> Result<Runtime, RuntimeError> {
        let n = scenario.instance().num_devices();
        let priorities = if config.priorities.is_empty() {
            vec![1.0; n]
        } else {
            if config.priorities.len() != n {
                return Err(RuntimeError::InvalidConfig {
                    reason: format!("{} priorities for {n} devices", config.priorities.len()),
                });
            }
            if config.priorities.iter().any(|p| !p.is_finite() || *p <= 0.0) {
                return Err(RuntimeError::InvalidConfig {
                    reason: "priorities must be finite and positive".to_owned(),
                });
            }
            config.priorities.clone()
        };

        let maintainer = DelayMaintainer::new(
            scenario.topology(),
            config.delay_model.clone(),
            config.full_recompute,
        );
        if maintainer.delay_matrix(scenario.topology()) != *scenario.instance().delays() {
            return Err(RuntimeError::InvalidConfig {
                reason: "delay model does not reproduce the scenario's delay matrix".to_owned(),
            });
        }

        let solver = config.policy.algorithm().solver(config.seed);
        let solution = solver.solve(scenario.instance())?;
        let cluster =
            DynamicCluster::from_assignment(scenario.instance().clone(), solution.assignment)?;

        Ok(Runtime {
            config,
            scenario: None,
            topology: scenario.topology().clone(),
            maintainer,
            cluster,
            priorities,
            wanted: vec![true; n],
            unreachable: vec![false; n],
            cursor: 0,
            metrics: RuntimeMetrics::default(),
        })
    }

    /// Replays every not-yet-consumed event of `trace` (all of them on a
    /// fresh runtime; the remainder after a restore).
    ///
    /// # Errors
    ///
    /// Stops at the first structurally invalid event (e.g. a link index
    /// past the topology). State-inconsistent but well-formed events —
    /// joining an active device, failing a failed server — are counted
    /// as ignored and never error.
    pub fn run(&mut self, trace: &Trace) -> Result<(), RuntimeError> {
        trace.validate()?;
        while (self.cursor as usize) < trace.events.len() {
            let index = self.cursor as usize;
            self.step(index, &trace.events[index])?;
        }
        Ok(())
    }

    /// Processes a single event (the unit of [`Runtime::run`]).
    ///
    /// # Errors
    ///
    /// See [`Runtime::run`].
    pub fn step(&mut self, index: usize, timed: &TimedEvent) -> Result<(), RuntimeError> {
        let _span = tacc_obs::span!("runtime.step");
        tacc_obs::counter_add("runtime.events", 1);
        let started = Instant::now();
        {
            let _span = tacc_obs::span!("apply");
            self.apply(index, &timed.event)?;
        }
        {
            let _span = tacc_obs::span!("reclassify");
            self.reclassify();
        }
        self.metrics.record_latency(&timed.event, started.elapsed());
        self.cursor += 1;
        if let Some(every) = self.config.refresh_every {
            if every > 0 && self.cursor % every == 0 {
                self.refresh();
            }
        }
        if crate::check::enabled() {
            let _span = tacc_obs::span!("check");
            crate::check::InvariantChecker::default().check(self)?;
        }
        Ok(())
    }

    fn apply(&mut self, index: usize, event: &TraceEvent) -> Result<(), RuntimeError> {
        match *event {
            TraceEvent::DeviceJoin { device } => {
                self.wanted[device] = true;
                if self.cluster.is_active(device) {
                    self.metrics.core.events.ignored += 1;
                    return Ok(());
                }
                self.metrics.core.events.count(event);
                self.place_with_shedding(device);
            }
            TraceEvent::DeviceLeave { device } => {
                self.wanted[device] = false;
                if !self.cluster.is_active(device) {
                    self.metrics.core.events.ignored += 1;
                    return Ok(());
                }
                self.metrics.core.events.count(event);
                self.cluster.leave(device);
                self.readmit();
            }
            TraceEvent::ServerFail { server } => {
                if self.maintainer.is_failed(server) {
                    self.metrics.core.events.ignored += 1;
                    return Ok(());
                }
                self.metrics.core.events.count(event);
                let mut changed = Vec::new();
                let stats = {
                    let _span = tacc_obs::span!("repair");
                    self.maintainer.fail_server(&self.topology, server, &mut changed)
                };
                self.account_delay_update(stats);
                self.push_delays(&changed);
                self.evacuate(server);
            }
            TraceEvent::ServerRecover { server } => {
                if !self.maintainer.is_failed(server) {
                    self.metrics.core.events.ignored += 1;
                    return Ok(());
                }
                self.metrics.core.events.count(event);
                let mut changed = Vec::new();
                let stats = {
                    let _span = tacc_obs::span!("repair");
                    self.maintainer.recover_server(&self.topology, server, &mut changed)
                };
                self.account_delay_update(stats);
                self.push_delays(&changed);
                self.rebalance_budgeted();
                self.readmit();
            }
            TraceEvent::LinkLatencyDrift { link, latency_ms } => {
                if link >= self.topology.graph().link_count() {
                    return Err(RuntimeError::InvalidEvent {
                        index,
                        reason: format!(
                            "link {link} out of range ({})",
                            self.topology.graph().link_count()
                        ),
                    });
                }
                let id: LinkId = self.topology.graph().link_id(link);
                self.topology
                    .set_link_latency(id, latency_ms)
                    .map_err(|e| RuntimeError::InvalidEvent { index, reason: e.to_string() })?;
                self.metrics.core.events.count(event);
                let mut changed = Vec::new();
                let stats = {
                    let _span = tacc_obs::span!("repair");
                    self.maintainer.drift(&self.topology, id, &mut changed)
                };
                self.account_delay_update(stats);
                self.push_delays(&changed);
                self.rebalance_budgeted();
            }
        }
        Ok(())
    }

    /// Books the repair work of one delay-changing event against the
    /// measured full-rebuild baseline.
    fn account_delay_update(&mut self, stats: tacc_topology::incremental::UpdateStats) {
        tacc_obs::counter_add("runtime.delay_updates", 1);
        tacc_obs::observe("runtime.repair_settled", stats.settled);
        self.metrics.core.delay_updates += 1;
        self.metrics.core.repair_work.absorb(stats);
        self.metrics.core.full_equivalent_work.absorb(self.maintainer.full_rebuild_baseline());
    }

    /// Writes the entries a repair rewrote into the cluster's instance,
    /// reading their values out of the maintainer's trees; every other
    /// entry already agrees. Debug builds, and release builds under
    /// `TACC_CHECK=1`, then check the whole instance against a read-out.
    fn push_delays(&mut self, changed: &[(usize, usize)]) {
        for &(device, server) in changed {
            let delay = self.maintainer.delay(&self.topology, device, server);
            self.cluster
                .set_delay(device, server, delay)
                .expect("maintained delays are never NaN or negative");
        }
        if cfg!(debug_assertions) || crate::check::enabled() {
            assert!(
                *self.cluster.instance().delays() == self.maintainer.delay_matrix(&self.topology),
                "patched delay matrix diverged from a full read-out of its trees"
            );
        }
    }

    /// Moves every device off a failed server, highest priority first.
    fn evacuate(&mut self, server: usize) {
        let _span = tacc_obs::span!("evacuate");
        let mut evacuees: Vec<usize> = (0..self.cluster.instance().num_devices())
            .filter(|&d| self.cluster.server_of(d) == Some(server))
            .collect();
        // Highest priority places first (gets the pick of the remaining
        // capacity); ties resolve toward the lower device index.
        evacuees.sort_by(|&a, &b| {
            self.priorities[b]
                .partial_cmp(&self.priorities[a])
                .expect("priorities are finite")
                .then(a.cmp(&b))
        });
        for &device in &evacuees {
            self.cluster.leave(device);
        }
        for &device in &evacuees {
            if let Placement::Placed(_) = self.place_with_shedding(device) {
                tacc_obs::counter_add("runtime.migrations", 1);
                self.metrics.core.migrations += 1;
            }
        }
    }

    /// Brings shed-but-still-wanted devices back once capacity frees up
    /// (a server recovered, or a device left). Highest priority returns
    /// first; placement is strictly non-disruptive — no shedding, no
    /// migrations of already-served devices.
    fn readmit(&mut self) {
        let _span = tacc_obs::span!("readmit");
        let mut waiting: Vec<usize> = (0..self.cluster.instance().num_devices())
            .filter(|&d| self.wanted[d] && !self.cluster.is_active(d))
            .collect();
        waiting.sort_by(|&a, &b| {
            self.priorities[b]
                .partial_cmp(&self.priorities[a])
                .expect("priorities are finite")
                .then(a.cmp(&b))
        });
        for device in waiting {
            let m = self.cluster.instance().num_servers();
            let delay = |j: usize| self.cluster.instance().delay(device, j);
            let mut best: Option<(f64, usize)> = None;
            for j in (0..m).filter(|&j| !self.maintainer.is_failed(j) && delay(j).is_finite()) {
                if self.cluster.fits(device, j) && best.map_or(true, |(d, _)| delay(j) < d) {
                    best = Some((delay(j), j));
                }
            }
            if let Some((_, j)) = best {
                let placed = self.cluster.try_place(device, j);
                debug_assert!(placed, "fits() held under the same loads");
                tacc_obs::counter_add("runtime.readmissions", 1);
                self.metrics.core.readmissions += 1;
            }
        }
    }

    /// Places an inactive device on the best alive server, shedding
    /// strictly-lower-priority devices if that is the only way to make
    /// room, or shedding the device itself as a last resort. A device
    /// with no alive server at finite delay at all is *unreachable*, not
    /// shed — it counts under a separate metric and is not an eviction.
    /// Never panics and never overloads a server.
    fn place_with_shedding(&mut self, device: usize) -> Placement {
        let m = self.cluster.instance().num_servers();
        let delay = |j: usize| self.cluster.instance().delay(device, j);
        let usable = |j: usize| !self.maintainer.is_failed(j) && delay(j).is_finite();

        // Partitioned away: nothing to place on, nothing to shed for.
        if !(0..m).any(usable) {
            return Placement::Unreachable;
        }

        // Preferred path: the cheapest alive server with room.
        let mut best: Option<(f64, usize)> = None;
        for j in (0..m).filter(|&j| usable(j)) {
            if self.cluster.fits(device, j) && best.map_or(true, |(d, _)| delay(j) < d) {
                best = Some((delay(j), j));
            }
        }
        if let Some((_, j)) = best {
            let placed = self.cluster.try_place(device, j);
            debug_assert!(placed, "fits() held under the same loads");
            return Placement::Placed(j);
        }

        // Degraded path: shed strictly-lower-priority devices from the
        // cheapest server where that frees enough room.
        let mut servers: Vec<usize> = (0..m).filter(|&j| usable(j)).collect();
        servers.sort_by(|&a, &b| {
            delay(a).partial_cmp(&delay(b)).expect("finite by usable()").then(a.cmp(&b))
        });
        for j in servers {
            let needed = self.cluster.server_loads()[j] + self.cluster.instance().demand(device, j)
                - self.cluster.instance().capacity(j);
            // Lowest priority sheds first; ties resolve toward the lower
            // device index.
            let mut victims: Vec<usize> = (0..self.cluster.instance().num_devices())
                .filter(|&d| {
                    self.cluster.server_of(d) == Some(j)
                        && self.priorities[d] < self.priorities[device]
                })
                .collect();
            victims.sort_by(|&a, &b| {
                self.priorities[a]
                    .partial_cmp(&self.priorities[b])
                    .expect("priorities are finite")
                    .then(a.cmp(&b))
            });
            let mut freed = 0.0;
            let mut chosen = Vec::new();
            for d in victims {
                if freed >= needed {
                    break;
                }
                freed += self.cluster.instance().demand(d, j);
                chosen.push(d);
            }
            if freed >= needed {
                for d in chosen {
                    self.cluster.leave(d);
                    tacc_obs::counter_add("runtime.evictions", 1);
                    self.metrics.core.evictions += 1;
                    self.metrics.core.shed_devices.push(d);
                }
                let placed = self.cluster.try_place(device, j);
                debug_assert!(placed, "shedding freed the required capacity");
                return Placement::Placed(j);
            }
        }

        // Last resort: the device itself stays out.
        tacc_obs::counter_add("runtime.evictions", 1);
        self.metrics.core.evictions += 1;
        self.metrics.core.shed_devices.push(device);
        Placement::Shed
    }

    /// Whether any alive server can reach `device` at finite delay.
    fn has_usable_server(&self, device: usize) -> bool {
        let m = self.cluster.instance().num_servers();
        (0..m).any(|j| {
            !self.maintainer.is_failed(j) && self.cluster.instance().delay(device, j).is_finite()
        })
    }

    /// Recomputes the unreachable set after an event: a device is
    /// unreachable iff it wants service, is not assigned, and no alive
    /// server can reach it at finite delay. Counts false→true flips (a
    /// device staying unreachable across events counts once); devices
    /// that become reachable again drop back to `Shed` until
    /// [`Runtime::readmit`] finds them room.
    fn reclassify(&mut self) {
        let n = self.cluster.instance().num_devices();
        for device in 0..n {
            let stranded = self.wanted[device]
                && !self.cluster.is_active(device)
                && !self.has_usable_server(device);
            if stranded && !self.unreachable[device] {
                tacc_obs::counter_add("runtime.unreachable_transitions", 1);
                self.metrics.core.unreachable_transitions += 1;
            }
            self.unreachable[device] = stranded;
        }
    }

    /// One migration-budgeted greedy rebalance pass.
    fn rebalance_budgeted(&mut self) {
        let _span = tacc_obs::span!("rebalance");
        let moved = self.cluster.rebalance(self.config.migration_budget);
        tacc_obs::counter_add("runtime.migrations", moved as u64);
        self.metrics.core.migrations += moved as u64;
    }

    /// Re-solves the assignment of active devices over alive servers with
    /// the configured policy and applies the best migrations under the
    /// budget. Solver failures skip the refresh (the seed sequence still
    /// advances, keeping replays aligned).
    fn refresh(&mut self) {
        let _span = tacc_obs::span!("refresh");
        self.metrics.core.refreshes += 1;
        let refresh_seed = self
            .config
            .seed
            .wrapping_add(self.metrics.core.refreshes.wrapping_mul(0x9E37_79B9_7F4A_7C15));

        let instance = self.cluster.instance();
        let active: Vec<usize> =
            (0..instance.num_devices()).filter(|&d| self.cluster.is_active(d)).collect();
        let alive: Vec<usize> =
            (0..instance.num_servers()).filter(|&j| !self.maintainer.is_failed(j)).collect();
        if active.is_empty() || alive.is_empty() {
            return;
        }

        let rows: Vec<Vec<f64>> =
            active.iter().map(|&d| alive.iter().map(|&j| instance.delay(d, j)).collect()).collect();
        let demands: Vec<f64> = active
            .iter()
            .flat_map(|&d| alive.iter().map(move |&j| instance.demand(d, j)))
            .collect();
        let capacities: Vec<f64> = alive.iter().map(|&j| instance.capacity(j)).collect();
        let Ok(sub) = GapInstance::builder(tacc_topology::DelayMatrix::from_rows(rows))
            .demand_matrix(demands)
            .capacities(capacities)
            .build()
        else {
            return;
        };

        let Ok(solution) = self.config.policy.algorithm().solver(refresh_seed).solve(&sub) else {
            return;
        };

        // Candidate moves toward the refreshed assignment, best gain
        // first (ties toward the lower device index).
        let mut moves: Vec<(f64, usize, usize)> = Vec::new();
        for (row, &device) in active.iter().enumerate() {
            let Some(sub_server) = solution.assignment.server_of(row) else { continue };
            let target = alive[sub_server];
            let current = self.cluster.server_of(device).expect("active devices are assigned");
            if target == current {
                continue;
            }
            let gain = instance.delay(device, current) - instance.delay(device, target);
            if gain > 1e-12 {
                moves.push((gain, device, target));
            }
        }
        moves.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("gains are finite").then(a.1.cmp(&b.1)));

        let mut budget = self.config.migration_budget;
        for (_, device, target) in moves {
            if budget == 0 {
                break;
            }
            if self.cluster.fits(device, target) {
                self.cluster.leave(device);
                let placed = self.cluster.try_place(device, target);
                debug_assert!(placed, "fits() held under the same loads");
                tacc_obs::counter_add("runtime.migrations", 1);
                self.metrics.core.migrations += 1;
                budget -= 1;
            }
        }
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// The (possibly drifted) topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The delay maintenance engine.
    pub fn maintainer(&self) -> &DelayMaintainer {
        &self.maintainer
    }

    /// The live cluster configuration.
    pub fn cluster(&self) -> &DynamicCluster {
        &self.cluster
    }

    /// Events consumed so far.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// All metrics collected so far.
    pub fn metrics(&self) -> &RuntimeMetrics {
        &self.metrics
    }

    /// Whether `device` currently wants service (shed and unreachable
    /// devices still want it; departed ones do not).
    pub fn is_wanted(&self, device: usize) -> bool {
        self.wanted[device]
    }

    /// Whether `device` is wanted but has no alive server at finite delay.
    pub fn is_unreachable(&self, device: usize) -> bool {
        self.unreachable[device]
    }

    /// Which of the four conservation states `device` is in.
    pub fn device_state(&self, device: usize) -> DeviceState {
        if let Some(server) = self.cluster.server_of(device) {
            DeviceState::Assigned(server)
        } else if !self.wanted[device] {
            DeviceState::Departed
        } else if self.unreachable[device] {
            DeviceState::Unreachable
        } else {
            DeviceState::Shed
        }
    }

    /// Devices currently in [`DeviceState::Shed`].
    pub fn shed_count(&self) -> usize {
        (0..self.cluster.instance().num_devices())
            .filter(|&d| self.device_state(d) == DeviceState::Shed)
            .count()
    }

    /// Devices currently in [`DeviceState::Unreachable`].
    pub fn unreachable_count(&self) -> usize {
        self.unreachable.iter().filter(|&&u| u).count()
    }

    /// Devices currently in [`DeviceState::Departed`].
    pub fn departed_count(&self) -> usize {
        self.wanted.iter().filter(|&&w| !w).count()
    }

    /// The worst overload across servers, in demand units: `max(0, load −
    /// capacity)` maximized over servers. Must stay `0` (up to float
    /// noise) at every event boundary.
    pub fn max_overload(&self) -> f64 {
        let loads = self.cluster.server_loads();
        (0..self.cluster.instance().num_servers())
            .map(|j| loads[j] - self.cluster.instance().capacity(j))
            .fold(0.0, f64::max)
    }

    /// Verifies the runtime's hard invariants, returning a typed error
    /// (never panicking) on the first violation. The shallow checks — no
    /// overloaded server, device conservation (assigned ⊕ shed ⊕
    /// unreachable ⊕ departed), assignments on alive servers at finite
    /// delay, the unreachable set agreeing with a recompute, and the
    /// cluster's delay matrix equal to a read-out of the maintainer's
    /// trees — are cheap enough to run per event. `deep` adds the
    /// expensive ones: every shortest-path column re-derived from
    /// scratch, and a snapshot surviving a JSON round-trip bit-for-bit.
    ///
    /// [`Runtime::step`] runs this automatically (deep on a sampled
    /// cadence) when the `TACC_CHECK=1` environment switch is set; see
    /// [`crate::check`].
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Invariant`] naming the first violated
    /// invariant and the cursor it was detected at.
    pub fn check_invariants(&self, deep: bool) -> Result<(), RuntimeError> {
        let fail = |reason: String| Err(RuntimeError::Invariant { cursor: self.cursor, reason });

        let overload = self.max_overload();
        if overload > 1e-9 {
            return fail(format!("server overloaded by {overload} demand units"));
        }

        let n = self.cluster.instance().num_devices();
        for device in 0..n {
            if let Some(server) = self.cluster.server_of(device) {
                if !self.wanted[device] {
                    return fail(format!("device {device} is assigned but departed"));
                }
                if self.unreachable[device] {
                    return fail(format!(
                        "device {device} is both assigned and marked unreachable"
                    ));
                }
                if self.maintainer.is_failed(server) {
                    return fail(format!("device {device} assigned to failed server {server}"));
                }
                if !self.cluster.instance().delay(device, server).is_finite() {
                    return fail(format!(
                        "device {device} assigned to server {server} at infinite delay"
                    ));
                }
            } else {
                let stranded = self.wanted[device] && !self.has_usable_server(device);
                if self.unreachable[device] != stranded {
                    return fail(format!(
                        "device {device} unreachable flag disagrees with the topology \
                         (flag {}, recomputed {stranded})",
                        self.unreachable[device]
                    ));
                }
            }
        }

        if *self.cluster.instance().delays() != self.maintainer.delay_matrix(&self.topology) {
            return fail("cluster delay matrix lags the maintainer's trees".to_owned());
        }

        if deep {
            if !self.maintainer.matches_full_recompute(&self.topology) {
                return fail("incremental delay columns diverge from a full recompute".to_owned());
            }
            let snapshot = self.snapshot();
            match RuntimeSnapshot::from_json(&snapshot.to_json()) {
                Ok(round) if round == snapshot => {}
                Ok(_) => {
                    return fail("snapshot JSON round-trip is not idempotent".to_owned());
                }
                Err(e) => {
                    return fail(format!("snapshot does not survive its own JSON: {e}"));
                }
            }
            // The snapshot stores parents only: they must rebuild every
            // distance and cost this runtime holds.
            match DelayMaintainer::restore(&snapshot.maintainer, &self.topology) {
                Ok(rebuilt) if rebuilt == self.maintainer => {}
                Ok(_) => {
                    return fail("the snapshot's parent trees rebuild other delays".to_owned());
                }
                Err(e) => return fail(format!("the snapshot's parent trees do not rebuild: {e}")),
            }
        }
        Ok(())
    }

    /// The deterministic end-of-run report: cursor, per-device
    /// assignment, delay/feasibility summary and metrics.
    /// `include_timing` appends the machine-dependent latency histograms
    /// (excluded by default so reports are byte-comparable).
    pub fn report_json(&self, include_timing: bool) -> Value {
        let instance = self.cluster.instance();
        let assignment: Vec<Value> = (0..instance.num_devices())
            .map(|d| match self.cluster.server_of(d) {
                Some(j) => Value::UInt(j as u64),
                None => Value::Null,
            })
            .collect();
        let mut value = json!({
            "cursor": self.cursor,
            "active_devices": self.cluster.active_count(),
            "shed_devices": self.shed_count(),
            "unreachable_devices": self.unreachable_count(),
            "departed_devices": self.departed_count(),
            "alive_servers": self.maintainer.alive_count(),
            "total_delay_ms": self.cluster.total_delay(),
            "feasible": self.cluster.is_feasible()
        });
        if let Value::Object(fields) = &mut value {
            fields.push(("assignment".to_owned(), Value::Array(assignment)));
            fields.push(("metrics".to_owned(), self.metrics.to_json(include_timing)));
        }
        value
    }

    /// Captures the complete resumable state. Restoring with
    /// [`Runtime::restore`] and finishing the trace produces bit-identical
    /// results to an uninterrupted run (wall-clock latency histograms
    /// excepted — they are measurements, not state).
    pub fn snapshot(&self) -> RuntimeSnapshot {
        RuntimeSnapshot {
            version: RuntimeSnapshot::FORMAT_VERSION,
            scenario: self.scenario.clone(),
            config: self.config.clone(),
            topology: self.topology.clone(),
            maintainer: self.maintainer.snapshot(),
            assignment: self.cluster.assignment().clone(),
            wanted: self.wanted.clone(),
            unreachable: self.unreachable.clone(),
            migrations: self.cluster.migrations(),
            cursor: self.cursor,
            metrics: self.metrics.core.clone(),
        }
    }

    /// Rebuilds a runtime from a snapshot plus the trace it was taken
    /// from (the trace supplies what the snapshot deliberately omits:
    /// demands and capacities, which never change). The delay maintainer
    /// is rebuilt from the snapshot's topology and parent trees
    /// ([`DelayMaintainer::restore`]), and the cluster's delay matrix is
    /// read out of the rebuilt trees.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidSnapshot`] for a format version
    /// this build does not read, shape mismatches with the trace's
    /// scenario, and a maintainer that does not rebuild over the
    /// snapshot's topology: arrays that do not fit it, a misrooted tree,
    /// or parents that are not a shortest-path tree under the rebuilt
    /// link costs.
    pub fn restore(snapshot: RuntimeSnapshot, trace: &Trace) -> Result<Runtime, RuntimeError> {
        if !RuntimeSnapshot::READ_VERSIONS.contains(&snapshot.version) {
            return Err(RuntimeSnapshot::unread_version(snapshot.version));
        }
        trace.validate()?;
        if let Some(snapped) = &snapshot.scenario {
            if *snapped != trace.scenario {
                return Err(RuntimeError::InvalidSnapshot {
                    reason: "snapshot scenario does not match the trace".to_owned(),
                });
            }
        }
        let scenario = trace.scenario.build()?;
        // Drift moves latencies only: the nodes and their roles are the
        // scenario's, which keeps every tree read below in range.
        let (snapped, built) = (&snapshot.topology, scenario.topology());
        if snapped.iot_nodes() != built.iot_nodes()
            || snapped.server_nodes() != built.server_nodes()
            || snapped.graph().node_count() != built.graph().node_count()
        {
            return Err(RuntimeError::InvalidSnapshot {
                reason: "snapshot topology does not match the trace's scenario".to_owned(),
            });
        }
        if (snapshot.cursor as usize) > trace.events.len() {
            return Err(RuntimeError::InvalidSnapshot {
                reason: format!(
                    "snapshot cursor {} past the trace's {} events",
                    snapshot.cursor,
                    trace.events.len()
                ),
            });
        }
        let n = scenario.instance().num_devices();
        let priorities = if snapshot.config.priorities.is_empty() {
            vec![1.0; n]
        } else if snapshot.config.priorities.len() == n {
            snapshot.config.priorities.clone()
        } else {
            return Err(RuntimeError::InvalidSnapshot {
                reason: "snapshot priorities do not match the scenario".to_owned(),
            });
        };
        if snapshot.wanted.len() != n {
            return Err(RuntimeError::InvalidSnapshot {
                reason: "snapshot wanted set does not match the scenario".to_owned(),
            });
        }
        if snapshot.unreachable.len() != n {
            return Err(RuntimeError::InvalidSnapshot {
                reason: "snapshot unreachable set does not match the scenario".to_owned(),
            });
        }
        // Quarantine reports the same findings the rebuild refuses.
        let maintainer = DelayMaintainer::restore(&snapshot.maintainer, &snapshot.topology)?;
        let mut instance = scenario.instance().clone();
        for device in 0..n {
            for server in 0..instance.num_servers() {
                let delay = maintainer.delay(&snapshot.topology, device, server);
                instance.set_delay(device, server, delay)?;
            }
        }
        let cluster =
            DynamicCluster::from_partial(instance, snapshot.assignment, snapshot.migrations)?;
        Ok(Runtime {
            config: snapshot.config,
            scenario: snapshot.scenario,
            topology: snapshot.topology,
            maintainer,
            cluster,
            priorities,
            wanted: snapshot.wanted,
            unreachable: snapshot.unreachable,
            cursor: snapshot.cursor,
            metrics: RuntimeMetrics { core: snapshot.metrics, ..RuntimeMetrics::default() },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacc_workload::{TraceGenerator, TraceScenario};

    fn small_trace(seed: u64, events: usize) -> Trace {
        TraceGenerator::new(TraceScenario {
            num_iot: 20,
            num_servers: 4,
            ..TraceScenario::default()
        })
        .num_events(events)
        .generate(seed)
        .unwrap()
    }

    #[test]
    fn policy_names_round_trip() {
        for policy in [ReassignPolicy::Greedy, ReassignPolicy::QLearning] {
            assert_eq!(ReassignPolicy::from_name(policy.name()), Some(policy));
        }
        assert_eq!(ReassignPolicy::from_name("annealing"), None);
    }

    #[test]
    fn full_run_processes_every_event_and_stays_consistent() {
        let trace = small_trace(11, 60);
        let mut rt = Runtime::from_trace(&trace, RuntimeConfig::default()).unwrap();
        rt.run(&trace).unwrap();
        assert_eq!(rt.cursor(), 60);
        assert_eq!(rt.metrics().core.events.total(), 60);
        assert!(rt.cluster().is_feasible());
        assert!(rt.maintainer().matches_full_recompute(rt.topology()));
        // Active devices sit on alive servers with finite delay.
        for d in 0..rt.cluster().instance().num_devices() {
            if let Some(j) = rt.cluster().server_of(d) {
                assert!(!rt.maintainer().is_failed(j), "device {d} on failed server {j}");
                assert!(rt.cluster().instance().delay(d, j).is_finite());
            }
        }
    }

    #[test]
    fn replay_is_deterministic() {
        let trace = small_trace(23, 80);
        let config = RuntimeConfig { refresh_every: Some(25), ..RuntimeConfig::default() };
        let mut a = Runtime::from_trace(&trace, config.clone()).unwrap();
        a.run(&trace).unwrap();
        let mut b = Runtime::from_trace(&trace, config).unwrap();
        b.run(&trace).unwrap();
        let ja = serde_json::to_string(&a.report_json(false)).unwrap();
        let jb = serde_json::to_string(&b.report_json(false)).unwrap();
        assert_eq!(ja, jb);
    }

    #[test]
    fn snapshot_restore_continue_matches_uninterrupted() {
        let trace = small_trace(5, 70);
        let config = RuntimeConfig { refresh_every: Some(20), ..RuntimeConfig::default() };

        let mut whole = Runtime::from_trace(&trace, config.clone()).unwrap();
        whole.run(&trace).unwrap();

        let mut first = Runtime::from_trace(&trace, config).unwrap();
        for index in 0..35 {
            first.step(index, &trace.events[index]).unwrap();
        }
        let json = first.snapshot().to_json();
        let snapshot = RuntimeSnapshot::from_json(&json).unwrap();
        let mut resumed = Runtime::restore(snapshot, &trace).unwrap();
        resumed.run(&trace).unwrap();

        assert_eq!(
            serde_json::to_string(&whole.report_json(false)).unwrap(),
            serde_json::to_string(&resumed.report_json(false)).unwrap()
        );
        assert_eq!(whole.snapshot(), resumed.snapshot());
        // The snapshot stores tree parents: compare distances and costs too.
        assert_eq!(format!("{:?}", whole.maintainer()), format!("{:?}", resumed.maintainer()));
    }

    #[test]
    fn failed_server_is_evacuated_and_recovery_rebalances() {
        let trace = small_trace(3, 0);
        let mut rt = Runtime::from_trace(&trace, RuntimeConfig::default()).unwrap();
        let server = rt.cluster().server_of(0).unwrap();
        rt.step(0, &TimedEvent { time_ms: 1.0, event: TraceEvent::ServerFail { server } }).unwrap();
        for d in 0..rt.cluster().instance().num_devices() {
            assert_ne!(rt.cluster().server_of(d), Some(server));
        }
        assert!(rt.metrics().core.events.server_fail == 1);
        rt.step(1, &TimedEvent { time_ms: 2.0, event: TraceEvent::ServerRecover { server } })
            .unwrap();
        assert!(rt.cluster().is_feasible());
        assert!(rt.maintainer().matches_full_recompute(rt.topology()));
    }

    #[test]
    fn inconsistent_events_are_ignored_not_fatal() {
        let trace = small_trace(9, 0);
        let mut rt = Runtime::from_trace(&trace, RuntimeConfig::default()).unwrap();
        // Joining an already-active device and recovering a healthy server
        // are no-ops.
        rt.step(0, &TimedEvent { time_ms: 0.0, event: TraceEvent::DeviceJoin { device: 0 } })
            .unwrap();
        rt.step(1, &TimedEvent { time_ms: 1.0, event: TraceEvent::ServerRecover { server: 0 } })
            .unwrap();
        assert_eq!(rt.metrics().core.events.ignored, 2);
        // A link index past the topology is a hard error.
        let bad = TimedEvent {
            time_ms: 2.0,
            event: TraceEvent::LinkLatencyDrift { link: usize::MAX, latency_ms: 1.0 },
        };
        assert!(matches!(rt.step(2, &bad), Err(RuntimeError::InvalidEvent { index: 2, .. })));
    }

    #[test]
    fn shedding_prefers_low_priority_and_reports() {
        let trace = small_trace(17, 0);
        let n = 20;
        let mut priorities = vec![1.0; n];
        priorities[0] = 10.0; // device 0 outranks everyone
        let config = RuntimeConfig { priorities, ..RuntimeConfig::default() };
        let mut rt = Runtime::from_trace(&trace, config).unwrap();
        // Fail every server but one: the survivor cannot hold everybody,
        // so low-priority devices get shed — but never device 0.
        let m = rt.cluster().instance().num_servers();
        for (i, server) in (1..m).enumerate() {
            rt.step(i, &TimedEvent { time_ms: i as f64, event: TraceEvent::ServerFail { server } })
                .unwrap();
        }
        assert!(rt.cluster().is_feasible());
        assert!(rt.metrics().core.evictions > 0, "one server cannot hold all 20 devices");
        assert!(rt.cluster().is_active(0), "highest-priority device survives");
        assert!(!rt.metrics().core.shed_devices.contains(&0));
    }

    #[test]
    fn shed_devices_return_when_the_cluster_recovers() {
        let trace = small_trace(17, 0);
        let mut rt = Runtime::from_trace(&trace, RuntimeConfig::default()).unwrap();
        let n = rt.cluster().instance().num_devices();
        let m = rt.cluster().instance().num_servers();
        // Crash everything but server 0: some of the 20 devices must be
        // shed. They stay *wanted*, so recovery brings them all back.
        for (i, server) in (1..m).enumerate() {
            rt.step(i, &TimedEvent { time_ms: i as f64, event: TraceEvent::ServerFail { server } })
                .unwrap();
        }
        assert!(rt.cluster().active_count() < n, "one server cannot hold all devices");
        for (i, server) in (1..m).enumerate() {
            let index = (m - 1) + i;
            rt.step(
                index,
                &TimedEvent { time_ms: index as f64, event: TraceEvent::ServerRecover { server } },
            )
            .unwrap();
        }
        assert_eq!(rt.cluster().active_count(), n, "every shed device is re-admitted");
        assert!(rt.metrics().core.readmissions > 0);
        assert!(rt.cluster().is_feasible());
        // A device that deliberately left is *not* re-admitted.
        let index = 2 * (m - 1);
        rt.step(
            index,
            &TimedEvent { time_ms: index as f64, event: TraceEvent::DeviceLeave { device: 3 } },
        )
        .unwrap();
        assert!(!rt.cluster().is_active(3));
    }

    #[test]
    fn q_learning_policy_runs_deterministically() {
        let trace = TraceGenerator::new(TraceScenario {
            num_iot: 12,
            num_servers: 3,
            ..TraceScenario::default()
        })
        .num_events(20)
        .generate(2)
        .unwrap();
        let config = RuntimeConfig {
            policy: ReassignPolicy::QLearning,
            refresh_every: Some(10),
            ..RuntimeConfig::default()
        };
        let mut a = Runtime::from_trace(&trace, config.clone()).unwrap();
        a.run(&trace).unwrap();
        let mut b = Runtime::from_trace(&trace, config).unwrap();
        b.run(&trace).unwrap();
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(format!("{:?}", a.maintainer()), format!("{:?}", b.maintainer()));
    }

    #[test]
    fn failing_every_server_strands_devices_as_unreachable_not_shed() {
        let trace = small_trace(41, 0);
        let mut rt = Runtime::from_trace(&trace, RuntimeConfig::default()).unwrap();
        let n = rt.cluster().instance().num_devices();
        let m = rt.cluster().instance().num_servers();
        for (i, server) in (0..m).enumerate() {
            rt.step(i, &TimedEvent { time_ms: i as f64, event: TraceEvent::ServerFail { server } })
                .unwrap();
        }
        assert_eq!(rt.cluster().active_count(), 0);
        assert_eq!(rt.unreachable_count(), n, "with no servers alive everyone is partitioned");
        assert_eq!(rt.shed_count(), 0, "a partition is not a capacity shortage");
        assert_eq!(rt.metrics().core.unreachable_transitions as usize, n);
        rt.check_invariants(true).unwrap();
        // Healing re-admits everyone (highest priority first).
        for (i, server) in (0..m).enumerate() {
            let index = m + i;
            rt.step(
                index,
                &TimedEvent { time_ms: index as f64, event: TraceEvent::ServerRecover { server } },
            )
            .unwrap();
        }
        assert_eq!(rt.cluster().active_count(), n);
        assert_eq!(rt.unreachable_count(), 0);
        rt.check_invariants(true).unwrap();
    }

    #[test]
    fn device_states_partition_the_fleet() {
        let trace = small_trace(7, 0);
        let mut rt = Runtime::from_trace(&trace, RuntimeConfig::default()).unwrap();
        let n = rt.cluster().instance().num_devices();
        rt.step(0, &TimedEvent { time_ms: 0.0, event: TraceEvent::DeviceLeave { device: 2 } })
            .unwrap();
        assert_eq!(rt.device_state(2), DeviceState::Departed);
        assert!(matches!(rt.device_state(0), DeviceState::Assigned(_)));
        let counted = rt.cluster().active_count()
            + rt.shed_count()
            + rt.unreachable_count()
            + rt.departed_count();
        assert_eq!(counted, n, "the four states partition the devices");
        rt.check_invariants(true).unwrap();
    }

    #[test]
    fn invariants_hold_along_a_generated_trace() {
        let trace = small_trace(31, 60);
        let config = RuntimeConfig { refresh_every: Some(16), ..RuntimeConfig::default() };
        let mut rt = Runtime::from_trace(&trace, config).unwrap();
        for index in 0..trace.events.len() {
            rt.step(index, &trace.events[index]).unwrap();
            let deep = rt.cursor() % 8 == 0;
            rt.check_invariants(deep).unwrap();
        }
    }

    #[test]
    fn restore_rejects_a_snapshot_from_a_different_trace() {
        let trace = small_trace(5, 10);
        let mut rt = Runtime::from_trace(&trace, RuntimeConfig::default()).unwrap();
        rt.run(&trace).unwrap();
        let snapshot = rt.snapshot();
        let other = TraceGenerator::new(TraceScenario {
            num_iot: 20,
            num_servers: 4,
            seed: 999,
            ..TraceScenario::default()
        })
        .num_events(10)
        .generate(1)
        .unwrap();
        let err = Runtime::restore(snapshot, &other).unwrap_err();
        let RuntimeError::InvalidSnapshot { reason } = &err else {
            panic!("expected InvalidSnapshot, got {err:?}");
        };
        assert!(reason.contains("scenario does not match"), "got: {reason}");
    }

    #[test]
    fn incremental_savings_are_reported() {
        let trace = small_trace(29, 120);
        let mut rt = Runtime::from_trace(&trace, RuntimeConfig::default()).unwrap();
        rt.run(&trace).unwrap();
        let core = &rt.metrics().core;
        if core.delay_updates > 0 {
            assert!(core.full_equivalent_work.settled > 0);
            assert!(core.savings_ratio() > 0.0, "incremental repair should beat full rebuilds");
        }
    }
}
