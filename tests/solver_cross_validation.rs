//! Cross-validation of heuristics against the exact optimum on small
//! instances — the integration-level version of experiment E7.

use tacc_core::baselines::{DeviceOrder, Greedy, LocalSearch, SimulatedAnnealing, TabuSearch};
use tacc_core::gap::exact::BranchAndBound;
use tacc_core::gap::{AnytimeSolver, Budget, GapError, Solver};
use tacc_core::rl::{EpsilonSchedule, QLearning, QLearningConfig, Sarsa};
use tacc_core::workload::{seeds, ScenarioBuilder};

fn ql_config() -> QLearningConfig {
    QLearningConfig {
        episodes: 1500,
        epsilon: EpsilonSchedule::new(1.0, 0.03, 0.995),
        ..QLearningConfig::default()
    }
}

#[test]
fn heuristics_stay_within_ten_percent_of_optimal_on_small_instances() {
    let trial_seeds = seeds(2022, 6);
    let mut gaps: Vec<(String, f64)> = Vec::new();
    for &seed in &trial_seeds {
        let scenario = ScenarioBuilder::new()
            .num_iot(14)
            .num_servers(3)
            .load_factor(0.8)
            .build(seed)
            .expect("scenario");
        let inst = scenario.instance();
        let optimum = match BranchAndBound::default().solve(inst) {
            Ok(s) => s.objective,
            Err(GapError::Infeasible) => continue,
            Err(e) => panic!("branch and bound failed: {e}"),
        };

        let solvers: Vec<Box<dyn Solver>> = vec![
            Box::new(QLearning::new(ql_config(), seed)),
            Box::new(Sarsa::new(ql_config(), seed)),
            Box::new(LocalSearch::new(seed)),
            Box::new(SimulatedAnnealing::new(seed)),
            Box::new(TabuSearch::new(seed)),
        ];
        for solver in &solvers {
            let s = solver.solve(inst).expect("solve");
            assert!(s.feasible, "{} infeasible on a feasible instance", solver.name());
            assert!(s.objective >= optimum - 1e-9, "{} beat the optimum?!", solver.name());
            gaps.push((solver.name().to_owned(), (s.objective - optimum) / optimum));
        }
        // The anytime sweep, run to its local optimum.
        let (sweep, _) = LocalSearch::new(seed).solve_within(inst, &Budget::unlimited()).unwrap();
        assert!(sweep.feasible, "the local-search sweep is infeasible on a feasible instance");
        assert!(sweep.objective >= optimum - 1e-9, "the local-search sweep beat the optimum?!");
        gaps.push(("local-search sweep".to_owned(), (sweep.objective - optimum) / optimum));
    }
    assert!(!gaps.is_empty(), "no feasible trials");
    // Per-solver mean gap must stay under 10%.
    for name in [
        "q-learning",
        "sarsa",
        "local-search",
        "local-search sweep",
        "simulated-annealing",
        "tabu-search",
    ] {
        let series: Vec<f64> = gaps.iter().filter(|(n, _)| n == name).map(|(_, g)| *g).collect();
        let mean = series.iter().sum::<f64>() / series.len() as f64;
        assert!(mean < 0.10, "{name}: mean optimality gap {:.1}% too large", mean * 100.0);
    }
}

#[test]
fn qlearning_matches_exact_on_trivially_separable_instances() {
    // With loose capacity the optimum is each device's nearest server;
    // QL must find exactly that (zero gap, not just "small").
    for seed in [1u64, 2, 3] {
        let scenario = ScenarioBuilder::new()
            .num_iot(12)
            .num_servers(3)
            .load_factor(0.3)
            .build(seed)
            .expect("scenario");
        let inst = scenario.instance();
        let optimum = BranchAndBound::default().solve(inst).expect("exact").objective;
        let ql = QLearning::new(ql_config(), seed).solve(inst).expect("ql");
        assert!(
            (ql.objective - optimum).abs() < 1e-9,
            "seed {seed}: QL {} vs optimum {optimum}",
            ql.objective
        );
    }
}

#[test]
fn the_anytime_sweep_repairs_an_overloaded_greedy_start() {
    // At 20 × 4 and load 0.97 the regret-greedy fill overloads a server
    // on most seeds; the repair ahead of the sweep must still find a
    // feasible assignment on every one of them.
    let mut overloaded_starts = 0;
    for seed in 1u64..=10 {
        let scenario = ScenarioBuilder::new()
            .num_iot(20)
            .num_servers(4)
            .load_factor(0.97)
            .build(seed)
            .expect("scenario");
        let inst = scenario.instance();
        let greedy = Greedy::new(DeviceOrder::RegretDescending).solve(inst).expect("greedy");
        if !greedy.feasible {
            overloaded_starts += 1;
        }
        let (s, g) = LocalSearch::new(seed).solve_within(inst, &Budget::units(2000)).unwrap();
        assert!(s.feasible, "seed {seed}: the sweep left a server overloaded");
        assert!(s.assignment.is_feasible(inst));
        assert!(g.spent <= 2000);
    }
    assert_eq!(overloaded_starts, 7, "seven of these seeds start overloaded");
}
