//! E4 (paper Fig. 5): RL training convergence.
//!
//! 100 devices, 10 servers, load factor 0.8. Emits the per-episode reward
//! (window-smoothed), the best-so-far objective and ε for Q-learning and
//! SARSA. Expected shape: reward climbs steeply in the first few hundred
//! episodes and plateaus; the best objective reaches within a few percent
//! of its final value inside ~1–2k episodes.
//!
//! Run: `cargo run --release -p tacc-bench --bin exp_rl_convergence [--quick]`

use tacc_bench::{fmt3, ExperimentContext};
use tacc_core::metrics::Table;
use tacc_core::workload::ScenarioBuilder;
use tacc_rl::{QLearning, QLearningConfig, Sarsa, TrainingReport};

fn emit(table: &mut Table, learner: &str, report: &TrainingReport, stride: usize) {
    // Window-smoothed reward: mean over the trailing `stride` episodes.
    let history = report.history();
    for (idx, point) in history.iter().enumerate() {
        if idx % stride != 0 && idx + 1 != history.len() {
            continue;
        }
        let lo = idx.saturating_sub(stride - 1);
        let window = &history[lo..=idx];
        let smoothed = window.iter().map(|p| p.reward).sum::<f64>() / window.len() as f64;
        table.push_row(vec![
            learner.to_owned(),
            point.episode.to_string(),
            fmt3(smoothed),
            fmt3(point.best_objective),
            fmt3(point.epsilon),
        ]);
    }
}

fn main() {
    let ctx = ExperimentContext::from_args("exp_rl_convergence", 1);
    let episodes = if ctx.quick { 800 } else { 5000 };
    let stride = if ctx.quick { 20 } else { 50 };
    let seed = ctx.trial_seeds[0];

    let scenario = ScenarioBuilder::new()
        .num_iot(100)
        .num_servers(10)
        .load_factor(0.8)
        .build(seed)
        .expect("scenario");
    let instance = scenario.instance();

    let mut table = Table::new(vec![
        "learner".into(),
        "episode".into(),
        "smoothed_reward".into(),
        "best_objective_ms".into(),
        "epsilon".into(),
    ]);

    let ql_cfg = QLearningConfig { episodes, ..QLearningConfig::default() };
    let (ql_solution, ql_report) =
        QLearning::new(ql_cfg, seed).train(instance).expect("q-learning");
    emit(&mut table, "q-learning", &ql_report, stride);
    eprintln!(
        "[exp_rl_convergence] q-learning: final objective {:.3}, convergence episode {:?}, {} tabular states",
        ql_solution.objective,
        ql_report.convergence_episode(),
        ql_report.num_states()
    );

    // Cold start (no delay prior): the classic rising RL curve — shows
    // what the topology-aware prior is worth at episode 0.
    let cold_cfg = QLearningConfig {
        episodes,
        delay_prior: false,
        epsilon: tacc_rl::EpsilonSchedule::new(1.0, 0.02, 0.999),
        ..QLearningConfig::default()
    };
    let (cold_solution, cold_report) =
        QLearning::new(cold_cfg, seed).train(instance).expect("q-learning cold");
    emit(&mut table, "q-learning-cold", &cold_report, stride);
    eprintln!(
        "[exp_rl_convergence] q-learning-cold: final objective {:.3}, convergence episode {:?}",
        cold_solution.objective,
        cold_report.convergence_episode()
    );

    let sarsa_cfg = QLearningConfig { episodes, ..QLearningConfig::default() };
    let (sarsa_solution, sarsa_report) =
        Sarsa::new(sarsa_cfg, seed).train(instance).expect("sarsa");
    emit(&mut table, "sarsa", &sarsa_report, stride);
    eprintln!(
        "[exp_rl_convergence] sarsa: final objective {:.3}, convergence episode {:?}",
        sarsa_solution.objective,
        sarsa_report.convergence_episode()
    );

    ctx.finish(&table);
}
