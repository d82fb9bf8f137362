//! Property-based tests of the anytime contract and the fallback ladder.
//!
//! Invariants:
//! - Any budget — even zero units — yields a feasible incumbent whenever
//!   the greedy warm start finds one.
//! - For a fixed seed, quality is monotone non-worsening in budget: a
//!   truncated run is a prefix of the full run's RNG trajectory.
//! - Same seed + same budget → byte-identical `GuardReport` JSON.
//! - A primary that panics mid-run never escapes `supervise`: the ladder
//!   still returns a feasible assignment.

use proptest::prelude::*;

use tacc_baselines::{
    DeviceOrder, Genetic, GeneticConfig, Greedy, LocalSearch, SimulatedAnnealing, TabuSearch,
};
use tacc_gap::{AnytimeSolver, Budget, GapError, GapInstance, GuardReport, Solution, Solver};
use tacc_guard::{Supervisor, SupervisorConfig};
use tacc_rl::{EpsilonSchedule, QLearning, QLearningConfig};
use tacc_topology::DelayMatrix;

fn instance_strategy() -> impl Strategy<Value = GapInstance> {
    (3usize..=8, 2usize..=3).prop_flat_map(|(n, m)| {
        let delays = proptest::collection::vec(1u32..30, n * m);
        (Just(n), Just(m), delays).prop_map(|(n, m, delays)| {
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|i| delays[i * m..(i + 1) * m].iter().map(|&d| f64::from(d)).collect())
                .collect();
            let cap = ((n as f64 / m as f64) * 1.4).max(1.0);
            GapInstance::builder(DelayMatrix::from_rows(rows))
                .uniform_demand(1.0)
                .uniform_capacity(cap)
                .build()
                .expect("valid instance")
        })
    })
}

/// The anytime portfolio under test: one RL learner, local search and
/// the three metaheuristics.
fn anytime_portfolio(seed: u64) -> Vec<Box<dyn AnytimeSolver>> {
    let ql = QLearningConfig {
        episodes: 60,
        epsilon: EpsilonSchedule::new(1.0, 0.05, 0.95),
        ..QLearningConfig::default()
    };
    vec![
        Box::new(QLearning::new(ql, seed)),
        Box::new(LocalSearch::new(seed)),
        Box::new(SimulatedAnnealing::new(seed)),
        Box::new(TabuSearch::new(seed)),
        Box::new(Genetic::new(GeneticConfig { generations: 40, ..GeneticConfig::default() }, seed)),
    ]
}

/// Whether the greedy warm start can seed a feasible incumbent — the
/// precondition of the anytime feasibility guarantee.
fn warm_start_feasible(inst: &GapInstance) -> bool {
    Greedy::new(DeviceOrder::RegretDescending).solve(inst).map(|s| s.feasible).unwrap_or(false)
}

/// A primary that always panics mid-run (stands in for a crashing RL
/// stage).
#[derive(Debug)]
struct PanickingSolver;

impl Solver for PanickingSolver {
    fn solve(&self, _: &GapInstance) -> Result<Solution, GapError> {
        panic!("boom");
    }
    fn name(&self) -> &str {
        "panicking"
    }
}

impl AnytimeSolver for PanickingSolver {
    fn solve_within(
        &self,
        _: &GapInstance,
        _: &Budget,
    ) -> Result<(Solution, GuardReport), GapError> {
        panic!("mid-episode boom");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn any_budget_yields_a_feasible_incumbent(
        inst in instance_strategy(),
        seed in 0u64..50,
        units in 0u64..25,
    ) {
        if !warm_start_feasible(&inst) {
            return Ok(());
        }
        for solver in anytime_portfolio(seed) {
            let (s, g) = solver
                .solve_within(&inst, &Budget::units(units))
                .expect("budget exhaustion is a degradation, not an error");
            prop_assert!(s.feasible, "{}: infeasible under budget {units}", g.solver);
            prop_assert!(s.assignment.is_feasible(&inst), "{}", g.solver);
            prop_assert!(g.spent <= units, "{}: spent {} > budget {units}", g.solver, g.spent);
        }
    }

    #[test]
    fn quality_is_monotone_non_worsening_in_budget(
        inst in instance_strategy(),
        seed in 0u64..50,
    ) {
        if !warm_start_feasible(&inst) {
            return Ok(());
        }
        for solver in anytime_portfolio(seed) {
            let mut prev = f64::INFINITY;
            for units in [0u64, 1, 4, 12, 40] {
                let (s, g) = solver.solve_within(&inst, &Budget::units(units)).expect("anytime");
                prop_assert!(
                    s.objective <= prev + 1e-9,
                    "{}: budget {units} worsened {prev} -> {}",
                    g.solver,
                    s.objective
                );
                prev = s.objective;
            }
        }
    }

    #[test]
    fn same_seed_and_budget_are_byte_identical(
        inst in instance_strategy(),
        seed in 0u64..50,
        units in 0u64..20,
    ) {
        for solver in anytime_portfolio(seed) {
            let run = || {
                let (s, g) = solver.solve_within(&inst, &Budget::units(units)).expect("anytime");
                (s.assignment.clone(), serde_json::to_string(&g).expect("serializable"))
            };
            let (a1, g1) = run();
            let (a2, g2) = run();
            prop_assert_eq!(a1, a2);
            prop_assert_eq!(g1, g2);
        }
    }

    #[test]
    fn a_panicking_primary_never_escapes_supervise(
        inst in instance_strategy(),
        units in 0u64..20,
    ) {
        if !warm_start_feasible(&inst) {
            return Ok(());
        }
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut sup = Supervisor::new(SupervisorConfig::default());
        let outcome = sup.supervise(&PanickingSolver, &inst, &Budget::units(units));
        std::panic::set_hook(prev);
        let (s, g) = outcome.expect("ladder must absorb the panic");
        prop_assert!(s.feasible);
        prop_assert!(s.assignment.is_feasible(&inst));
        prop_assert_eq!(g.panics_caught, 1);
        prop_assert!(g.fallbacks >= 1);
    }
}
