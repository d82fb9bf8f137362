//! Cross-validation of heuristics against the exact optimum on small
//! instances — the integration-level version of experiment E7.

use tacc_core::baselines::{LocalSearch, SimulatedAnnealing, TabuSearch};
use tacc_core::gap::exact::BranchAndBound;
use tacc_core::gap::{GapError, Solver};
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
    }
    assert!(!gaps.is_empty(), "no feasible trials");
    // Per-solver mean gap must stay under 10%.
    for name in ["q-learning", "sarsa", "local-search", "simulated-annealing", "tabu-search"] {
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
