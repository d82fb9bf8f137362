//! Property-based tests of the RL learners.
//!
//! Invariants:
//! - All learners return complete assignments and respect the
//!   capacity-free lower bound.
//! - With loose capacities, trained policies recover every device's
//!   nearest server (the capacity-free optimum).
//! - Seed determinism holds for all learners.
//! - Q-learning beats the random baseline on contended instances.

use proptest::prelude::*;

use tacc_baselines::RandomAssign;
use tacc_gap::bounds::capacity_free_bound;
use tacc_gap::{GapInstance, Solver};
use tacc_rl::{
    BanditAssign, BanditConfig, EpsilonSchedule, LfaConfig, LfaQLearning, QLearning,
    QLearningConfig, Sarsa,
};
use tacc_topology::DelayMatrix;

fn instance_strategy(loose: bool) -> impl Strategy<Value = GapInstance> {
    (3usize..=8, 2usize..=3).prop_flat_map(move |(n, m)| {
        let delays = proptest::collection::vec(1u32..30, n * m);
        (Just(n), Just(m), delays).prop_map(move |(n, m, delays)| {
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|i| delays[i * m..(i + 1) * m].iter().map(|&d| f64::from(d)).collect())
                .collect();
            let cap = if loose { n as f64 * 2.0 } else { (n as f64 / m as f64) * 1.4 };
            GapInstance::builder(DelayMatrix::from_rows(rows))
                .uniform_demand(1.0)
                .uniform_capacity(cap.max(1.0))
                .build()
                .expect("valid instance")
        })
    })
}

fn quick_ql(episodes: usize) -> QLearningConfig {
    QLearningConfig {
        episodes,
        epsilon: EpsilonSchedule::new(1.0, 0.05, 0.98),
        ..QLearningConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn learners_complete_and_respect_bound(inst in instance_strategy(false)) {
        let lb = capacity_free_bound(&inst);
        let solvers: Vec<Box<dyn Solver>> = vec![
            Box::new(QLearning::new(quick_ql(150), 5)),
            Box::new(Sarsa::new(quick_ql(150), 5)),
            Box::new(LfaQLearning::new(LfaConfig {
                episodes: 150,
                epsilon: EpsilonSchedule::new(1.0, 0.05, 0.98),
                ..LfaConfig::default()
            }, 5)),
            Box::new(BanditAssign::new(BanditConfig {
                episodes: 150,
                epsilon: EpsilonSchedule::new(1.0, 0.05, 0.98),
                ..BanditConfig::default()
            }, 5)),
        ];
        for solver in &solvers {
            let s = solver.solve(&inst).expect("learner failed");
            prop_assert!(s.assignment.is_complete(), "{} incomplete", solver.name());
            prop_assert!(s.objective >= lb - 1e-9,
                "{} objective {} beats the lower bound {lb}", solver.name(), s.objective);
        }
    }

    #[test]
    fn loose_capacity_recovers_nearest_assignment(inst in instance_strategy(true)) {
        let lb = capacity_free_bound(&inst);
        let s = QLearning::new(quick_ql(300), 9).solve(&inst).expect("ql");
        prop_assert!(s.feasible);
        prop_assert!((s.objective - lb).abs() < 1e-9,
            "QL {} did not reach the unconstrained optimum {lb}", s.objective);
    }

    #[test]
    fn seed_determinism(inst in instance_strategy(false), seed in 0u64..100) {
        let a = QLearning::new(quick_ql(80), seed).solve(&inst).expect("ql");
        let b = QLearning::new(quick_ql(80), seed).solve(&inst).expect("ql");
        prop_assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    fn qlearning_is_near_optimal_on_tiny_instances(inst in instance_strategy(false)) {
        use tacc_gap::exact::BruteForce;
        use tacc_gap::GapError;
        let optimum = match BruteForce::default().solve(&inst) {
            Ok(s) => s.objective,
            Err(GapError::Infeasible) => return Ok(()),
            Err(e) => return Err(TestCaseError::fail(format!("brute force failed: {e}"))),
        };
        let ql = QLearning::new(quick_ql(400), 3).solve(&inst).expect("ql");
        prop_assert!(ql.feasible, "instance is feasible but QL overloaded");
        prop_assert!(ql.objective <= optimum * 1.5 + 1e-9,
            "QL {} more than 50% above optimum {optimum}", ql.objective);
        // And it must always clear the single-draw random floor on average
        // quality: compare against the *worst* of 5 random draws.
        let worst_random = (0..5)
            .map(|s| RandomAssign::new(s).solve(&inst).expect("random").objective)
            .fold(0.0, f64::max);
        prop_assert!(ql.objective <= worst_random + 1e-9,
            "QL {} lost to the worst random draw {worst_random}", ql.objective);
    }
}
