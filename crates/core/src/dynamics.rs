//! Dynamic cluster maintenance under device churn.
//!
//! The paper configures a *static* population, but real deployments see
//! devices join and leave. This module keeps a configuration alive across
//! churn: joins are placed online (cheapest fitting server), leaves free
//! capacity, and an explicit, migration-budgeted [`DynamicCluster::rebalance`]
//! recovers delay that churn has eroded — the operational trade-off being
//! *migrations cost service interruptions*, so operators bound them.
//!
//! The churn experiment (`exp_churn`) quantifies the knob: how much mean
//! delay does each migration buy back?

use tacc_gap::{Assignment, GapError, GapInstance};

/// A live cluster configuration that absorbs joins/leaves and supports
/// budgeted rebalancing.
///
/// Devices are identified by their index in the underlying
/// [`GapInstance`]; the instance fixes the *universe* of devices while
/// the cluster tracks which of them are currently active.
#[derive(Debug, Clone)]
pub struct DynamicCluster {
    instance: GapInstance,
    assignment: Assignment,
    active: Vec<bool>,
    loads: Vec<f64>,
    migrations: u64,
}

impl DynamicCluster {
    /// Creates an empty cluster (no device active) over `instance`.
    pub fn new(instance: GapInstance) -> Self {
        let n = instance.num_devices();
        let m = instance.num_servers();
        DynamicCluster {
            assignment: Assignment::unassigned(n, m),
            active: vec![false; n],
            loads: vec![0.0; m],
            instance,
            // Migration counting starts at zero; joins are not migrations.
            migrations: 0,
        }
    }

    /// Starts from an existing (complete) assignment with every device
    /// active — the hand-off from the static configurator.
    ///
    /// # Errors
    ///
    /// Returns [`GapError::IncompleteAssignment`] if `assignment` leaves
    /// a device out.
    pub fn from_assignment(
        instance: GapInstance,
        assignment: Assignment,
    ) -> Result<Self, GapError> {
        if let Some(device) = assignment.first_unassigned() {
            return Err(GapError::IncompleteAssignment { device });
        }
        let loads = assignment.server_loads(&instance);
        let n = instance.num_devices();
        Ok(DynamicCluster { assignment, active: vec![true; n], loads, instance, migrations: 0 })
    }

    /// Rebuilds a cluster from a possibly partial assignment: unassigned
    /// devices are inactive, loads are recomputed, and `migrations`
    /// restores the migration counter. This is the restore path of
    /// runtime snapshots, where [`DynamicCluster::from_assignment`]'s
    /// everyone-active precondition does not hold.
    ///
    /// # Errors
    ///
    /// Returns [`GapError::DimensionMismatch`] when the assignment's
    /// device or server count disagrees with the instance.
    pub fn from_partial(
        instance: GapInstance,
        assignment: Assignment,
        migrations: u64,
    ) -> Result<Self, GapError> {
        if assignment.num_devices() != instance.num_devices() {
            return Err(GapError::DimensionMismatch {
                what: "assignment devices",
                expected: instance.num_devices(),
                actual: assignment.num_devices(),
            });
        }
        if assignment.num_servers() != instance.num_servers() {
            return Err(GapError::DimensionMismatch {
                what: "assignment servers",
                expected: instance.num_servers(),
                actual: assignment.num_servers(),
            });
        }
        let loads = assignment.server_loads(&instance);
        let active: Vec<bool> =
            (0..instance.num_devices()).map(|i| assignment.server_of(i).is_some()).collect();
        Ok(DynamicCluster { assignment, active, loads, instance, migrations })
    }

    /// The underlying instance.
    pub fn instance(&self) -> &GapInstance {
        &self.instance
    }

    /// The current assignment; inactive devices read as unassigned.
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// Whether `device` is currently active.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range.
    pub fn is_active(&self, device: usize) -> bool {
        self.active[device]
    }

    /// Number of active devices.
    pub fn active_count(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Server currently hosting an active `device`.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range.
    pub fn server_of(&self, device: usize) -> Option<usize> {
        if self.active[device] {
            self.assignment.server_of(device)
        } else {
            None
        }
    }

    /// Total migrations performed by [`DynamicCluster::rebalance`] so far
    /// (joins and leaves do not count).
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Current per-server loads.
    pub fn server_loads(&self) -> &[f64] {
        &self.loads
    }

    /// Total communication delay of the active devices.
    pub fn total_delay(&self) -> f64 {
        self.assignment.partial_delay(&self.instance)
    }

    /// Mean per-active-device delay (NaN when nothing is active).
    pub fn mean_delay(&self) -> f64 {
        self.total_delay() / self.active_count() as f64
    }

    /// `true` while no server exceeds its capacity.
    pub fn is_feasible(&self) -> bool {
        (0..self.loads.len()).all(|j| self.loads[j] <= self.instance.capacity(j) + 1e-9)
    }

    /// Activates a device, placing it on the cheapest server with room
    /// (overflowing to the least-overloaded server when nothing fits).
    /// Returns the chosen server.
    ///
    /// # Errors
    ///
    /// Returns [`GapError::IncompleteAssignment`] — reused as "already
    /// active" marker is *not* done; instead activating an active device
    /// is a logic error and panics.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range or already active.
    pub fn join(&mut self, device: usize) -> Result<usize, GapError> {
        assert!(!self.active[device], "device {device} is already active");
        let m = self.instance.num_servers();
        let mut best: Option<(usize, f64)> = None;
        for j in 0..m {
            if self.loads[j] + self.instance.demand(device, j) <= self.instance.capacity(j) + 1e-9 {
                let d = self.instance.delay(device, j);
                if best.map_or(true, |(_, bd)| d < bd) {
                    best = Some((j, d));
                }
            }
        }
        let j = match best {
            Some((j, _)) => j,
            None => {
                // Overflow: least resulting overload.
                (0..m)
                    .min_by(|&a, &b| {
                        let oa = self.loads[a] + self.instance.demand(device, a)
                            - self.instance.capacity(a);
                        let ob = self.loads[b] + self.instance.demand(device, b)
                            - self.instance.capacity(b);
                        oa.partial_cmp(&ob).expect("loads are not NaN")
                    })
                    .expect("at least one server")
            }
        };
        self.loads[j] += self.instance.demand(device, j);
        self.assignment.assign(device, j)?;
        self.active[device] = true;
        Ok(j)
    }

    /// Whether placing `device` on `server` would respect capacity.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn fits(&self, device: usize, server: usize) -> bool {
        self.loads[server] + self.instance.demand(device, server)
            <= self.instance.capacity(server) + 1e-9
    }

    /// Activates a device on an explicit server, unlike
    /// [`DynamicCluster::join`] which picks one. Returns `false` (leaving
    /// the cluster untouched) when the placement would overload the
    /// server — the caller decides what degradation looks like.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range or already active, or if
    /// `server` is out of range.
    pub fn try_place(&mut self, device: usize, server: usize) -> bool {
        assert!(!self.active[device], "device {device} is already active");
        if !self.fits(device, server) {
            return false;
        }
        self.loads[server] += self.instance.demand(device, server);
        self.assignment.assign(device, server).expect("server index checked by fits");
        self.active[device] = true;
        true
    }

    /// Overwrites one delay `d(device, server)` of the instance — the
    /// hook for online delay maintenance, which patches only the entries
    /// a topology change touched. Loads and the assignment are
    /// unchanged; only delay-derived quantities move.
    ///
    /// # Errors
    ///
    /// Propagates [`GapInstance::set_delay`] validation errors.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn set_delay(&mut self, device: usize, server: usize, delay: f64) -> Result<(), GapError> {
        self.instance.set_delay(device, server, delay)
    }

    /// Deactivates a device, freeing its server capacity.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range or not active.
    pub fn leave(&mut self, device: usize) {
        assert!(self.active[device], "device {device} is not active");
        let j = self.assignment.unassign(device).expect("active devices are assigned");
        self.loads[j] -= self.instance.demand(device, j);
        self.active[device] = false;
    }

    /// Performs up to `budget` migrations, each the currently
    /// best-gain feasibility-preserving single-device shift. Returns the
    /// number of migrations actually performed (stops early at a local
    /// optimum).
    ///
    /// Each migration is one pass over the active devices' delay and
    /// demand rows. A move must gain more than `1e-12` and strictly more
    /// than the best move found before it in device-then-server order,
    /// so ties go to the lowest device, then the lowest server.
    pub fn rebalance(&mut self, budget: usize) -> usize {
        // Capacities never change; loads move with every migration.
        let limits: Vec<f64> = self.instance.capacities().iter().map(|c| c + 1e-9).collect();
        let mut performed = 0;
        for _ in 0..budget {
            // The gain a move must beat: the floor, then the best so far.
            let mut threshold = 1e-12;
            let mut best: Option<(usize, usize)> = None; // (device, to)
            for (device, _) in self.active.iter().enumerate().filter(|&(_, &active)| active) {
                let from = self.assignment.server_of(device).expect("active");
                let delays = self.instance.delay_row(device);
                let demands = self.instance.demand_row(device);
                let current = delays[from];
                let targets = delays.iter().zip(demands).zip(self.loads.iter().zip(&limits));
                for (to, ((&delay, &demand), (&load, &limit))) in targets.enumerate() {
                    // Staying put gains 0 (NaN when unreachable), never
                    // more than the threshold.
                    let gain = current - delay;
                    if gain > threshold && load + demand <= limit {
                        threshold = gain;
                        best = Some((device, to));
                    }
                }
            }
            let Some((device, to)) = best else { break };
            let from = self.assignment.server_of(device).expect("active");
            self.loads[from] -= self.instance.demand(device, from);
            self.loads[to] += self.instance.demand(device, to);
            self.assignment.assign(device, to).expect("server in range");
            self.migrations += 1;
            performed += 1;
        }
        performed
    }

    /// The per-pair scan [`DynamicCluster::rebalance`] replaced, kept as
    /// the reference its proptest compares against.
    #[cfg(test)]
    fn rebalance_reference(&mut self, budget: usize) -> usize {
        let m = self.instance.num_servers();
        let mut performed = 0;
        for _ in 0..budget {
            let mut best: Option<(f64, usize, usize)> = None; // (gain, device, to)
            for device in 0..self.active.len() {
                if !self.active[device] {
                    continue;
                }
                let from = self.assignment.server_of(device).expect("active");
                let current = self.instance.delay(device, from);
                for to in 0..m {
                    if to == from {
                        continue;
                    }
                    if self.loads[to] + self.instance.demand(device, to)
                        > self.instance.capacity(to) + 1e-9
                    {
                        continue;
                    }
                    let gain = current - self.instance.delay(device, to);
                    if gain > 1e-12 && best.map_or(true, |(g, _, _)| gain > g) {
                        best = Some((gain, device, to));
                    }
                }
            }
            let Some((_, device, to)) = best else { break };
            let from = self.assignment.server_of(device).expect("active");
            self.loads[from] -= self.instance.demand(device, from);
            self.loads[to] += self.instance.demand(device, to);
            self.assignment.assign(device, to).expect("server in range");
            self.migrations += 1;
            performed += 1;
        }
        performed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacc_topology::DelayMatrix;

    fn instance() -> GapInstance {
        let delays = DelayMatrix::from_rows(vec![
            vec![1.0, 5.0],
            vec![2.0, 3.0],
            vec![6.0, 1.0],
            vec![4.0, 2.0],
        ]);
        GapInstance::builder(delays).uniform_demand(1.0).uniform_capacity(2.0).build().unwrap()
    }

    #[test]
    fn joins_pick_cheapest_fitting_server() {
        let mut c = DynamicCluster::new(instance());
        assert_eq!(c.join(0).unwrap(), 0);
        assert_eq!(c.join(1).unwrap(), 0); // server 0 now full
        assert_eq!(c.join(2).unwrap(), 1);
        assert_eq!(c.active_count(), 3);
        assert!(c.is_feasible());
        assert_eq!(c.total_delay(), 1.0 + 2.0 + 1.0);
    }

    #[test]
    fn leave_frees_capacity_for_later_joins() {
        let mut c = DynamicCluster::new(instance());
        c.join(0).unwrap();
        c.join(1).unwrap();
        // Device 3 prefers server 1 (delay 2) since server 0 is full.
        assert_eq!(c.join(3).unwrap(), 1);
        c.leave(1);
        assert_eq!(c.active_count(), 2);
        // Server 0 has room again; device 2 still prefers server 1.
        assert_eq!(c.join(2).unwrap(), 1);
        assert!(c.is_feasible());
    }

    #[test]
    fn rebalance_recovers_churn_damage() {
        // Hand the cluster a feasible but badly crossed assignment (the
        // kind churn leaves behind) with enough slack for shifts.
        let delays = DelayMatrix::from_rows(vec![
            vec![1.0, 5.0],
            vec![2.0, 3.0],
            vec![6.0, 1.0],
            vec![4.0, 2.0],
        ]);
        let inst =
            GapInstance::builder(delays).uniform_demand(1.0).uniform_capacity(3.0).build().unwrap();
        let crossed = Assignment::from_vec(vec![1, 1, 0, 0], 2).unwrap();
        let mut c = DynamicCluster::from_assignment(inst, crossed).unwrap();
        assert_eq!(c.total_delay(), 5.0 + 3.0 + 6.0 + 4.0);

        // Budget 1: exactly the single best-gain migration (device 2 → s1,
        // gain 5).
        assert_eq!(c.rebalance(1), 1);
        assert_eq!(c.server_of(2), Some(1));
        assert_eq!(c.total_delay(), 13.0);
        assert_eq!(c.migrations(), 1);

        // Unlimited budget reaches the optimum 1 + 2 + 1 + 2 = 6.
        c.rebalance(100);
        assert_eq!(c.total_delay(), 6.0);
        assert!(c.is_feasible());
        assert!(c.migrations() >= 3);
    }

    #[test]
    fn rebalance_respects_budget() {
        let mut c = DynamicCluster::new(instance());
        c.join(2).unwrap(); // s1 (1.0)
        c.join(3).unwrap(); // s1 (2.0) — s1 now full
                            // Put both onto their worst servers by simulating churn: leave and
                            // rejoin in an order that forces bad placement is convoluted;
                            // instead verify budget 0 does nothing.
        assert_eq!(c.rebalance(0), 0);
        assert_eq!(c.migrations(), 0);
    }

    #[test]
    fn from_assignment_hands_off_cleanly() {
        let inst = instance();
        let a = Assignment::from_vec(vec![0, 0, 1, 1], 2).unwrap();
        let c = DynamicCluster::from_assignment(inst, a).unwrap();
        assert_eq!(c.active_count(), 4);
        assert!(c.is_feasible());
        assert_eq!(c.server_loads(), &[2.0, 2.0]);
        assert_eq!(c.total_delay(), 1.0 + 2.0 + 1.0 + 2.0);
    }

    #[test]
    fn from_incomplete_assignment_fails() {
        let inst = instance();
        let a = Assignment::unassigned(4, 2);
        assert!(matches!(
            DynamicCluster::from_assignment(inst, a),
            Err(GapError::IncompleteAssignment { device: 0 })
        ));
    }

    /// A random cluster for the rebalance equivalence proptest: about a
    /// quarter of the devices inactive, assignments that may already
    /// overload a server, capacities from loose to tighter than the
    /// total demand, some unreachable pairs, and (with `ties`) delays
    /// and demands on a coarse grid so many moves gain exactly the same.
    fn random_cluster(n: usize, m: usize, seed: u64, ties: bool, tightness: f64) -> DynamicCluster {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut draw = |lo: f64, hi: f64| {
            if ties {
                f64::from(rng.random_range(0u32..4)).mul_add((hi - lo) / 4.0, lo)
            } else {
                rng.random_range(lo..hi)
            }
        };
        let mut rows = Vec::with_capacity(n);
        let mut demands = Vec::with_capacity(n * m);
        for _ in 0..n {
            rows.push((0..m).map(|_| draw(0.0, 8.0)).collect::<Vec<f64>>());
            demands.extend((0..m).map(|_| draw(0.5, 2.5)));
        }
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
        for row in &mut rows {
            for d in row.iter_mut() {
                if rng.random_bool(0.08) {
                    *d = f64::INFINITY;
                }
            }
        }
        let total: f64 = demands.iter().sum::<f64>() / m as f64;
        let capacities: Vec<f64> =
            (0..m).map(|_| total * tightness / m as f64 * rng.random_range(0.7..1.3)).collect();
        let inst = GapInstance::builder(DelayMatrix::from_rows(rows))
            .demand_matrix(demands)
            .capacities(capacities)
            .build()
            .unwrap();
        let mut assignment = Assignment::unassigned(n, m);
        for device in 0..n {
            if rng.random_bool(0.75) {
                assignment.assign(device, rng.random_range(0..m)).unwrap();
            }
        }
        DynamicCluster::from_partial(inst, assignment, 0).unwrap()
    }

    fn same_state(a: &DynamicCluster, b: &DynamicCluster) -> bool {
        a.assignment() == b.assignment()
            && a.migrations() == b.migrations()
            && a.server_loads()
                .iter()
                .map(|l| l.to_bits())
                .eq(b.server_loads().iter().map(|l| l.to_bits()))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(200))]

        /// The one-pass scan picks the reference scan's moves in the same
        /// order: equal return values, assignments, migration counts and
        /// bitwise loads at budgets 0, 1, 4 and unbounded, and equal
        /// states after every single move.
        #[test]
        fn rebalance_matches_the_reference_scan(
            n in 1usize..=14,
            m in 1usize..=5,
            seed in 0u64..1_000_000,
            ties in 0u8..2,
            tightness in 0.5f64..1.6,
        ) {
            let cluster = random_cluster(n, m, seed, ties == 1, tightness);
            for budget in [0, 1, 4, usize::MAX] {
                let (mut fast, mut reference) = (cluster.clone(), cluster.clone());
                proptest::prop_assert_eq!(fast.rebalance(budget), reference.rebalance_reference(budget));
                proptest::prop_assert!(same_state(&fast, &reference), "budget {}", budget);
            }
            let (mut fast, mut reference) = (cluster.clone(), cluster);
            loop {
                let moved = fast.rebalance(1);
                proptest::prop_assert_eq!(moved, reference.rebalance_reference(1));
                proptest::prop_assert!(same_state(&fast, &reference), "after {} moves", fast.migrations());
                if moved == 0 {
                    break;
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "already active")]
    fn double_join_panics() {
        let mut c = DynamicCluster::new(instance());
        c.join(0).unwrap();
        c.join(0).unwrap();
    }

    #[test]
    #[should_panic(expected = "not active")]
    fn leave_of_inactive_panics() {
        let mut c = DynamicCluster::new(instance());
        c.leave(0);
    }

    #[test]
    fn overflow_join_marks_infeasible() {
        let delays = DelayMatrix::from_rows(vec![vec![1.0]; 3]);
        let inst =
            GapInstance::builder(delays).uniform_demand(1.0).capacities(vec![2.0]).build().unwrap();
        let mut c = DynamicCluster::new(inst);
        c.join(0).unwrap();
        c.join(1).unwrap();
        assert!(c.is_feasible());
        c.join(2).unwrap();
        assert!(!c.is_feasible());
        // The departed capacity restores feasibility.
        c.leave(0);
        assert!(c.is_feasible());
    }
}
