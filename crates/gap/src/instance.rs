use serde::{Deserialize, Serialize};
use tacc_topology::DelayMatrix;

use crate::GapError;

/// A validated generalized-assignment instance.
///
/// Holds the `n × m` communication-delay matrix `d(i, j)` (from
/// [`tacc_topology`]), the `n × m` demand matrix `w(i, j)` (the load device
/// `i` puts on server `j` if assigned there), and the per-server capacities
/// `c(j)`. All demands and capacities are strictly positive and finite;
/// delays are non-negative.
///
/// Solvers share instances freely by reference (`GapInstance` is
/// `Sync`). Demands and capacities are fixed once built; only the
/// online runtime's [`GapInstance::set_delay`] changes an instance in
/// place, and only its delays.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GapInstance {
    delays: DelayMatrix,
    /// Row-major `n × m` demands.
    demands: Vec<f64>,
    capacities: Vec<f64>,
}

impl GapInstance {
    /// Starts building an instance around a delay matrix.
    pub fn builder(delays: DelayMatrix) -> GapInstanceBuilder {
        GapInstanceBuilder { delays, demands: None, capacities: None, priorities: None }
    }

    /// Number of IoT devices (`n`).
    pub fn num_devices(&self) -> usize {
        self.delays.num_iot()
    }

    /// Number of edge servers (`m`).
    pub fn num_servers(&self) -> usize {
        self.delays.num_servers()
    }

    /// Communication delay `d(i, j)` in milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn delay(&self, device: usize, server: usize) -> f64 {
        self.delays.get(device, server)
    }

    /// Demand `w(i, j)` that device `i` places on server `j`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn demand(&self, device: usize, server: usize) -> f64 {
        assert!(device < self.num_devices() && server < self.num_servers());
        self.demands[device * self.num_servers() + server]
    }

    /// Capacity `c(j)` of server `j`.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn capacity(&self, server: usize) -> f64 {
        self.capacities[server]
    }

    /// All capacities, indexed by server.
    pub fn capacities(&self) -> &[f64] {
        &self.capacities
    }

    /// The underlying delay matrix.
    pub fn delays(&self) -> &DelayMatrix {
        &self.delays
    }

    /// The delays from one device to every server.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range.
    pub fn delay_row(&self, device: usize) -> &[f64] {
        self.delays.row(device)
    }

    /// The demands from one device toward every server.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range.
    pub fn demand_row(&self, device: usize) -> &[f64] {
        assert!(device < self.num_devices());
        &self.demands[device * self.num_servers()..(device + 1) * self.num_servers()]
    }

    /// A copy of this instance with the delay matrix replaced — the hook
    /// the online runtime uses when link drift or server failure changes
    /// `d(i, j)` while demands and capacities stay put.
    ///
    /// # Errors
    ///
    /// - [`GapError::DimensionMismatch`] when `delays` is not `n × m`.
    /// - [`GapError::InvalidDelay`] for a NaN or negative entry
    ///   (`f64::INFINITY` is allowed and marks an unreachable pair).
    pub fn with_delays(&self, delays: DelayMatrix) -> Result<GapInstance, GapError> {
        if delays.num_iot() != self.num_devices() {
            return Err(GapError::DimensionMismatch {
                what: "delay matrix rows",
                expected: self.num_devices(),
                actual: delays.num_iot(),
            });
        }
        if delays.num_servers() != self.num_servers() {
            return Err(GapError::DimensionMismatch {
                what: "delay matrix columns",
                expected: self.num_servers(),
                actual: delays.num_servers(),
            });
        }
        for i in 0..self.num_devices() {
            for (j, &d) in delays.row(i).iter().enumerate() {
                if d.is_nan() || d < 0.0 {
                    return Err(GapError::InvalidDelay { device: i, server: j, value: d });
                }
            }
        }
        Ok(GapInstance {
            delays,
            demands: self.demands.clone(),
            capacities: self.capacities.clone(),
        })
    }

    /// Overwrites one delay `d(i, j)` in place — the hook the online
    /// runtime uses to patch the entries a link drift or server failure
    /// changed, while demands and capacities stay put. Validates like
    /// [`GapInstance::with_delays`].
    ///
    /// # Errors
    ///
    /// [`GapError::InvalidDelay`] for a NaN or negative value
    /// (`f64::INFINITY` is allowed and marks an unreachable pair); the
    /// instance is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn set_delay(&mut self, device: usize, server: usize, delay: f64) -> Result<(), GapError> {
        if delay.is_nan() || delay < 0.0 {
            return Err(GapError::InvalidDelay { device, server, value: delay });
        }
        self.delays.set(device, server, delay);
        Ok(())
    }

    /// System load factor: total minimum demand divided by total capacity.
    ///
    /// Uses each device's *minimum* demand over servers, so a value above
    /// 1.0 proves infeasibility while a value below 1.0 does not guarantee
    /// feasibility (GAP feasibility is itself NP-hard).
    pub fn load_factor(&self) -> f64 {
        let min_demand: f64 = (0..self.num_devices())
            .map(|i| self.demand_row(i).iter().cloned().fold(f64::INFINITY, f64::min))
            .sum();
        min_demand / self.capacities.iter().sum::<f64>()
    }

    /// Quick necessary feasibility checks.
    ///
    /// Returns `false` when some device does not fit alone on any server or
    /// when [`GapInstance::load_factor`] exceeds 1.0. A `true` result does
    /// *not* guarantee feasibility.
    pub fn may_be_feasible(&self) -> bool {
        if self.load_factor() > 1.0 {
            return false;
        }
        (0..self.num_devices())
            .all(|i| (0..self.num_servers()).any(|j| self.demand(i, j) <= self.capacity(j)))
    }
}

/// Builder for [`GapInstance`]; see [`GapInstance::builder`].
#[derive(Debug, Clone)]
pub struct GapInstanceBuilder {
    delays: DelayMatrix,
    demands: Option<Vec<f64>>,
    capacities: Option<Vec<f64>>,
    priorities: Option<Vec<f64>>,
}

impl GapInstanceBuilder {
    /// Every device places the same demand on every server.
    pub fn uniform_demand(mut self, demand: f64) -> Self {
        let n = self.delays.num_iot() * self.delays.num_servers();
        self.demands = Some(vec![demand; n]);
        self
    }

    /// Device `i` places demand `demands[i]` on whichever server it is
    /// assigned to (the classic server-independent demand model).
    ///
    /// Dimension errors are reported by [`GapInstanceBuilder::build`].
    pub fn device_demands(mut self, demands: Vec<f64>) -> Self {
        let m = self.delays.num_servers();
        let expanded: Vec<f64> =
            demands.iter().flat_map(|&w| std::iter::repeat(w).take(m)).collect();
        // Remember the intended row count for validation in build():
        // if demands.len() != n, expanded.len() != n*m and build() errors.
        self.demands = Some(expanded);
        self
    }

    /// Full `n × m` demand matrix in row-major order (general GAP, where a
    /// device may cost different servers differently).
    pub fn demand_matrix(mut self, demands: Vec<f64>) -> Self {
        self.demands = Some(demands);
        self
    }

    /// Per-server capacities.
    pub fn capacities(mut self, capacities: Vec<f64>) -> Self {
        self.capacities = Some(capacities);
        self
    }

    /// Every server gets the same capacity.
    pub fn uniform_capacity(mut self, capacity: f64) -> Self {
        self.capacities = Some(vec![capacity; self.delays.num_servers()]);
        self
    }

    /// Per-device criticality weights: the objective becomes the
    /// *priority-weighted* total delay `Σ_i p_i · d(i, x(i))`, implemented
    /// by scaling device `i`'s delay row by `p_i` at build time. A
    /// deadline-critical device with `p_i = 3.0` counts three times as
    /// much as a best-effort one — every solver and bound works unchanged
    /// because the weighting is absorbed into the cost matrix.
    pub fn device_priorities(mut self, priorities: Vec<f64>) -> Self {
        self.priorities = Some(priorities);
        self
    }

    /// Validates everything and produces the instance.
    ///
    /// # Errors
    ///
    /// - [`GapError::DimensionMismatch`] when demand or capacity lengths
    ///   disagree with the delay matrix (or were never provided).
    /// - [`GapError::InvalidDemand`] / [`GapError::InvalidCapacity`] /
    ///   [`GapError::InvalidDelay`] for non-positive or non-finite values.
    pub fn build(self) -> Result<GapInstance, GapError> {
        let n = self.delays.num_iot();
        let m = self.delays.num_servers();
        let delays = match self.priorities {
            None => self.delays,
            Some(priorities) => {
                if priorities.len() != n {
                    return Err(GapError::DimensionMismatch {
                        what: "priorities",
                        expected: n,
                        actual: priorities.len(),
                    });
                }
                for (i, &p) in priorities.iter().enumerate() {
                    if !p.is_finite() || p <= 0.0 {
                        return Err(GapError::InvalidPriority { device: i, value: p });
                    }
                }
                let rows: Vec<Vec<f64>> = (0..n)
                    .map(|i| self.delays.row(i).iter().map(|d| d * priorities[i]).collect())
                    .collect();
                DelayMatrix::from_rows(rows)
            }
        };
        let demands = self.demands.unwrap_or_default();
        if demands.len() != n * m {
            return Err(GapError::DimensionMismatch {
                what: "demand matrix",
                expected: n * m,
                actual: demands.len(),
            });
        }
        let capacities = self.capacities.unwrap_or_default();
        if capacities.len() != m {
            return Err(GapError::DimensionMismatch {
                what: "capacities",
                expected: m,
                actual: capacities.len(),
            });
        }
        for i in 0..n {
            for j in 0..m {
                let w = demands[i * m + j];
                if !w.is_finite() || w <= 0.0 {
                    return Err(GapError::InvalidDemand { device: i, server: j, value: w });
                }
                let d = delays.get(i, j);
                if d.is_nan() || d < 0.0 {
                    return Err(GapError::InvalidDelay { device: i, server: j, value: d });
                }
            }
        }
        for (j, &c) in capacities.iter().enumerate() {
            if !c.is_finite() || c <= 0.0 {
                return Err(GapError::InvalidCapacity { server: j, value: c });
            }
        }
        Ok(GapInstance { delays, demands, capacities })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delays_2x2() -> DelayMatrix {
        DelayMatrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]])
    }

    #[test]
    fn builder_with_uniform_demand() {
        let inst = GapInstance::builder(delays_2x2())
            .uniform_demand(2.0)
            .capacities(vec![5.0, 5.0])
            .build()
            .unwrap();
        assert_eq!(inst.num_devices(), 2);
        assert_eq!(inst.num_servers(), 2);
        assert_eq!(inst.demand(1, 0), 2.0);
        assert_eq!(inst.capacity(1), 5.0);
        assert_eq!(inst.delay(1, 1), 4.0);
    }

    #[test]
    fn device_demands_expand_per_server() {
        let inst = GapInstance::builder(delays_2x2())
            .device_demands(vec![1.5, 2.5])
            .uniform_capacity(10.0)
            .build()
            .unwrap();
        assert_eq!(inst.demand(0, 0), 1.5);
        assert_eq!(inst.demand(0, 1), 1.5);
        assert_eq!(inst.demand(1, 0), 2.5);
    }

    #[test]
    fn demand_matrix_allows_server_dependent_costs() {
        let inst = GapInstance::builder(delays_2x2())
            .demand_matrix(vec![1.0, 2.0, 3.0, 4.0])
            .uniform_capacity(10.0)
            .build()
            .unwrap();
        assert_eq!(inst.demand(0, 1), 2.0);
        assert_eq!(inst.demand(1, 0), 3.0);
    }

    #[test]
    fn missing_parts_are_dimension_errors() {
        let err = GapInstance::builder(delays_2x2()).build().unwrap_err();
        assert!(matches!(err, GapError::DimensionMismatch { what: "demand matrix", .. }));
        let err = GapInstance::builder(delays_2x2()).uniform_demand(1.0).build().unwrap_err();
        assert!(matches!(err, GapError::DimensionMismatch { what: "capacities", .. }));
    }

    #[test]
    fn wrong_device_demand_length_is_an_error() {
        let err = GapInstance::builder(delays_2x2())
            .device_demands(vec![1.0])
            .uniform_capacity(5.0)
            .build()
            .unwrap_err();
        assert!(matches!(err, GapError::DimensionMismatch { .. }));
    }

    #[test]
    fn non_positive_values_are_rejected() {
        let err = GapInstance::builder(delays_2x2())
            .uniform_demand(0.0)
            .uniform_capacity(5.0)
            .build()
            .unwrap_err();
        assert!(matches!(err, GapError::InvalidDemand { .. }));
        let err = GapInstance::builder(delays_2x2())
            .uniform_demand(1.0)
            .uniform_capacity(-1.0)
            .build()
            .unwrap_err();
        assert!(matches!(err, GapError::InvalidCapacity { .. }));
    }

    #[test]
    fn infinite_delay_is_accepted_as_unreachable() {
        // DelayMatrix rejects NaN at construction (fail-fast); an
        // *infinite* delay is a legal "unreachable pair" marker that the
        // instance must carry through so solvers can route around it.
        let delays = DelayMatrix::from_rows(vec![vec![f64::INFINITY, 1.0]]);
        let inst =
            GapInstance::builder(delays).uniform_demand(1.0).uniform_capacity(5.0).build().unwrap();
        assert!(inst.delay(0, 0).is_infinite());
    }

    #[test]
    fn set_delay_patches_one_entry_and_validates() {
        let mut inst = GapInstance::builder(delays_2x2())
            .uniform_demand(1.0)
            .uniform_capacity(5.0)
            .build()
            .unwrap();
        inst.set_delay(1, 0, f64::INFINITY).unwrap();
        inst.set_delay(0, 1, 0.5).unwrap();
        assert!(inst.delay(1, 0).is_infinite());
        assert_eq!(inst.delay(0, 1), 0.5);
        assert_eq!(inst.delay(0, 0), 1.0);
        assert_eq!(inst.delay(1, 1), 4.0);

        let before = inst.clone();
        for bad in [f64::NAN, -1.0] {
            let err = inst.set_delay(1, 1, bad).unwrap_err();
            assert!(matches!(err, GapError::InvalidDelay { device: 1, server: 1, .. }));
        }
        assert_eq!(inst, before, "a rejected delay leaves the instance unchanged");
    }

    #[test]
    fn load_factor_and_feasibility_hints() {
        let inst = GapInstance::builder(delays_2x2())
            .uniform_demand(2.0)
            .capacities(vec![4.0, 4.0])
            .build()
            .unwrap();
        assert!((inst.load_factor() - 0.5).abs() < 1e-12);
        assert!(inst.may_be_feasible());

        let overloaded = GapInstance::builder(delays_2x2())
            .uniform_demand(5.0)
            .capacities(vec![4.0, 4.0])
            .build()
            .unwrap();
        assert!(overloaded.load_factor() > 1.0);
        assert!(!overloaded.may_be_feasible());
    }

    #[test]
    fn oversized_single_device_fails_feasibility_hint() {
        let delays = DelayMatrix::from_rows(vec![vec![1.0, 1.0], vec![1.0, 1.0]]);
        // Device demands 3 but the largest server holds 2; total capacity
        // is fine, single-device fit is not.
        let inst = GapInstance::builder(delays)
            .demand_matrix(vec![3.0, 3.0, 0.5, 0.5])
            .capacities(vec![2.0, 2.0])
            .build()
            .unwrap();
        assert!(inst.load_factor() < 1.0);
        assert!(!inst.may_be_feasible());
    }
}

#[cfg(test)]
mod priority_tests {
    use super::*;

    fn delays() -> DelayMatrix {
        DelayMatrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]])
    }

    #[test]
    fn priorities_scale_delay_rows() {
        let inst = GapInstance::builder(delays())
            .uniform_demand(1.0)
            .uniform_capacity(5.0)
            .device_priorities(vec![2.0, 0.5])
            .build()
            .unwrap();
        assert_eq!(inst.delay(0, 0), 2.0);
        assert_eq!(inst.delay(0, 1), 4.0);
        assert_eq!(inst.delay(1, 0), 1.5);
        assert_eq!(inst.delay(1, 1), 2.0);
    }

    #[test]
    fn priorities_change_contested_optima() {
        use crate::exact::BruteForce;
        use crate::Solver;
        // Both devices prefer server 0 (capacity 1). Unweighted, device 0
        // (cheaper detour) yields; with a high priority on device 1's
        // detour cost inverted, the assignment flips.
        let delays = DelayMatrix::from_rows(vec![vec![1.0, 2.0], vec![1.0, 3.0]]);
        let unweighted = GapInstance::builder(delays.clone())
            .uniform_demand(1.0)
            .capacities(vec![1.0, 5.0])
            .build()
            .unwrap();
        let s = BruteForce::default().solve(&unweighted).unwrap();
        // Unweighted optimum: device 1 takes server 0 (detour 2 beats 1? —
        // options: [0,1]=1+3=4, [1,0]=2+1=3 → device 1 on server 0).
        assert_eq!(s.assignment.server_of(1), Some(0));

        let weighted = GapInstance::builder(delays)
            .uniform_demand(1.0)
            .capacities(vec![1.0, 5.0])
            .device_priorities(vec![10.0, 1.0])
            .build()
            .unwrap();
        let s = BruteForce::default().solve(&weighted).unwrap();
        // Device 0's delays now dominate: it must get its best server.
        assert_eq!(s.assignment.server_of(0), Some(0));
    }

    #[test]
    fn invalid_priorities_are_rejected() {
        let err = GapInstance::builder(delays())
            .uniform_demand(1.0)
            .uniform_capacity(5.0)
            .device_priorities(vec![1.0])
            .build()
            .unwrap_err();
        assert!(matches!(err, GapError::DimensionMismatch { what: "priorities", .. }));
        let err = GapInstance::builder(delays())
            .uniform_demand(1.0)
            .uniform_capacity(5.0)
            .device_priorities(vec![1.0, 0.0])
            .build()
            .unwrap_err();
        assert!(matches!(err, GapError::InvalidPriority { device: 1, .. }));
    }
}
