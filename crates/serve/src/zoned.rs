//! The zoned Solve: the one pipeline both `tacc serve --zones` and
//! `tacc solve --zones` run.

use std::sync::Mutex;

use serde_json::Value;
use tacc_core::Algorithm;
use tacc_gap::GapInstance;
use tacc_guard::{Budget, DegradationLevel, GuardReport, Supervisor, SupervisorConfig};
use tacc_topology::{NodeId, Topology};
use tacc_zone::{dense_solve, RouterConfig, ZoneLayout, ZonedSolution};

/// What [`zoned_solve`] answers.
#[derive(Debug)]
pub struct ZonedAnswer {
    /// The merged solve, parallel to the `devices` asked for; its server
    /// slots index the `servers` slice.
    pub solution: ZonedSolution,
    /// The zones' guard reports as one: solver `zoned:<algorithm>`, the
    /// merged objective and feasibility, the worst degradation any zone
    /// reported, and the budget, spend, fallbacks, panics and breaker
    /// trips summed over the zones.
    pub report: GuardReport,
    /// Devices the router spilled past their nearest zone's headroom.
    pub router_spills: usize,
}

impl ZonedAnswer {
    /// The fields of the deterministic `zones` stream record.
    pub fn zones_record(&self) -> Vec<(String, Value)> {
        vec![
            ("zones".to_owned(), Value::UInt(self.solution.zones.len() as u64)),
            ("router_spills".to_owned(), Value::UInt(self.router_spills as u64)),
            ("border_refinements".to_owned(), Value::UInt(self.solution.refinements as u64)),
            ("budget".to_owned(), Value::UInt(self.report.budget.unwrap_or(0))),
        ]
    }
}

/// Solves `devices` (device indices of `instance`) over `servers`
/// (server indices) zone by zone: lays the servers out in `zones` zones
/// over the link `costs` in force (`∞` for a failed link), routes the
/// devices, splits `budget` across the zones by routed device count
/// ([`Budget::unlimited`] grants [`tacc_zone::DEFAULT_ROUNDS`] to each),
/// and answers each zone with `algorithm`, seeded `seed + zone`, under
/// its own guard ladder. A zone whose ladder is exhausted (even greedy
/// cannot place its devices) takes [`dense_solve`]'s complete, possibly
/// overloaded assignment, which the merge flags infeasible. The answer
/// is the same at any worker count.
///
/// # Panics
///
/// Panics if `algorithm` is one-shot or `servers` is empty.
#[allow(clippy::too_many_arguments)]
pub fn zoned_solve(
    topology: &Topology,
    costs: &[f64],
    instance: &GapInstance,
    devices: &[usize],
    servers: &[usize],
    zones: usize,
    algorithm: &Algorithm,
    seed: u64,
    budget: &Budget,
) -> ZonedAnswer {
    let capacities: Vec<f64> = servers.iter().map(|&j| instance.capacity(j)).collect();
    let layout = ZoneLayout::build_scoped(topology, costs, servers, &capacities, zones);
    let nodes: Vec<NodeId> = devices.iter().map(|&d| topology.iot_nodes()[d]).collect();
    let demands: Vec<f64> = devices.iter().map(|&d| instance.demand(d, 0)).collect();
    let routing = layout.route(&nodes, &demands, &RouterConfig::default());
    let budgets = layout.split_rounds(&routing, budget);
    // Reports land in a zone-indexed side table, so the parallel merge
    // stays deterministic.
    let reports: Mutex<Vec<Option<GuardReport>>> = Mutex::new(vec![None; layout.num_zones()]);
    let solution = layout.solve_with(&nodes, &demands, &routing, &budgets, |zone, sub, share| {
        let zone_seed = seed.wrapping_add(zone as u64);
        let primary = algorithm.anytime_solver(zone_seed).expect("an anytime algorithm");
        let mut supervisor = Supervisor::new(SupervisorConfig::default());
        match supervisor.supervise(primary.as_ref(), sub, &Budget::units(share)) {
            Ok((solution, guard)) => {
                reports.lock().expect("report table")[zone] = Some(guard);
                solution
            }
            Err(_) => dense_solve(sub, zone_seed, 1),
        }
    });
    let reports = reports.into_inner().expect("report table");
    let mut report = GuardReport {
        solver: format!("zoned:{}", algorithm.name()),
        budget: Some(budgets.iter().sum()),
        spent: 0,
        completed: reports.iter().all(|r| r.as_ref().is_some_and(|guard| guard.completed)),
        objective: solution.objective,
        feasible: solution.feasible,
        degradation: DegradationLevel::None,
        fallbacks: 0,
        panics_caught: 0,
        breaker_trips: 0,
        wallclock_tripped: false,
    };
    for guard in reports.iter().flatten() {
        report.spent += guard.spent;
        report.fallbacks += guard.fallbacks;
        report.panics_caught += guard.panics_caught;
        report.breaker_trips += guard.breaker_trips;
        report.wallclock_tripped |= guard.wallclock_tripped;
        report.degradation = report.degradation.max(guard.degradation);
    }
    ZonedAnswer { solution, report, router_spills: routing.spills }
}
