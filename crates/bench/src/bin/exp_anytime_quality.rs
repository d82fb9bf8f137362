//! E16: anytime solution quality vs deterministic work budget.
//!
//! For each instance size × anytime algorithm × budget, run
//! `solve_within` under a hard cap of that many work units (episodes for
//! Q-learning, annealing steps for SA, generations for the GA, devices
//! scanned for local search) and
//! tabulate the incumbent's quality against the greedy-regret warm start
//! and the full-budget run. The contract under test: **feasibility is
//! 1.000 under every budget** — even one unit — because every anytime
//! solver seeds a greedy incumbent before spending its first unit, and
//! quality is monotone non-worsening as the budget grows (same seed, the
//! truncated run is a prefix of the full run's RNG trajectory).
//!
//! Expected shape: `vs_greedy` starts at 1.000 for budget 1 (the warm
//! start itself) and never rises above it as budgets grow (the GA dips
//! below 1 on small contended instances; greedy-regret is already
//! near-optimal at scale); `spent` saturates at the algorithm's
//! configured full run; `feasible_rate` never leaves 1.000 — this
//! experiment exists to catch the day it does.
//!
//! A second table, `exp_anytime_quality_serve.csv`, compares the two
//! candidates for the daemon's `Solve` primary, q-learning and local
//! search, at the shapes `tacc serve` solves: the per-zone sub-instances
//! of an 8-zone 2,000 × 40 session (125 × 5 to 300 × 8 at a 250-unit
//! share) and the flat 1,000 × 20 session at the full 2,000-unit query
//! budget, each at loads 0.7, 0.9 and 0.97. Per cell it reports
//! `vs_greedy`, the share of instances improved over the greedy start
//! (a lower objective, or a feasible answer where greedy overloads), the
//! feasible rate, and the wall-clock milliseconds per solve (trials run
//! one at a time).
//!
//! Run: `cargo run --release -p tacc-bench --bin exp_anytime_quality [--quick]`

use std::time::Instant;

use tacc_bench::{fmt3, ExperimentContext};
use tacc_core::metrics::Table;
use tacc_core::workload::ScenarioBuilder;
use tacc_core::Algorithm;
use tacc_gap::{Budget, GapInstance, Solution};

fn greedy_solution(instance: &GapInstance) -> Solution {
    let greedy = Algorithm::greedy().solver(0);
    greedy.solve(instance).expect("greedy")
}

/// The serve-shape table described in the module docs.
fn serve_shapes(ctx: &ExperimentContext) -> Table {
    let shapes: &[(usize, usize, u64)] = ctx
        .sizes(&[(125, 5, 250), (200, 5, 250), (300, 8, 250), (1000, 20, 2000)], &[(125, 5, 250)]);
    let loads: &[f64] = ctx.sizes(&[0.7, 0.9, 0.97], &[0.9]);
    let lineup =
        [("q-learning", Algorithm::q_learning()), ("local-search", Algorithm::LocalSearch)];
    let mut table = Table::new(vec![
        "devices".into(),
        "servers".into(),
        "load".into(),
        "budget".into(),
        "algorithm".into(),
        "vs_greedy".into(),
        "improved_rate".into(),
        "feasible_rate".into(),
        "ms_per_solve".into(),
    ]);
    for &(devices, servers, budget) in shapes {
        for &load in loads {
            let instances: Vec<(u64, GapInstance, Solution)> = ctx
                .trial_seeds
                .iter()
                .map(|&seed| {
                    let scenario = ScenarioBuilder::new()
                        .num_iot(devices)
                        .num_servers(servers)
                        .load_factor(load)
                        .build(seed)
                        .expect("scenario");
                    let instance = scenario.instance().clone();
                    let greedy = greedy_solution(&instance);
                    (seed, instance, greedy)
                })
                .collect();
            for (label, algorithm) in &lineup {
                let (mut ratio, mut improved, mut feasible, mut ms) = (0.0, 0.0, 0.0, 0.0);
                for (seed, instance, greedy) in &instances {
                    let solver = algorithm.anytime_solver(*seed).expect("anytime lineup");
                    let started = Instant::now();
                    let (solution, _) = solver
                        .solve_within(instance, &Budget::units(budget))
                        .expect("budget exhaustion is not an error");
                    ms += started.elapsed().as_secs_f64() * 1e3;
                    ratio += solution.objective / greedy.objective;
                    if solution.feasible {
                        feasible += 1.0;
                        if !greedy.feasible || solution.objective < greedy.objective - 1e-9 {
                            improved += 1.0;
                        }
                    }
                }
                let trials = instances.len() as f64;
                table.push_row(vec![
                    devices.to_string(),
                    servers.to_string(),
                    format!("{load:.2}"),
                    budget.to_string(),
                    (*label).to_owned(),
                    fmt3(ratio / trials),
                    fmt3(improved / trials),
                    fmt3(feasible / trials),
                    fmt3(ms / trials),
                ]);
            }
        }
        eprintln!("[exp_anytime_quality] finished serve shape {devices} x {servers}");
    }
    table
}

fn main() {
    let ctx = ExperimentContext::from_args("exp_anytime_quality", 5);
    let sizes: &[usize] = ctx.sizes(&[50, 200, 500], &[30]);
    let budgets: &[u64] = ctx.sizes(&[1, 10, 100, 1000], &[1, 10, 50]);
    let lineup: Vec<(&str, Algorithm)> = vec![
        ("q-learning", Algorithm::q_learning()),
        ("simulated-annealing", Algorithm::SimulatedAnnealing),
        ("genetic", Algorithm::Genetic(Default::default())),
        ("local-search", Algorithm::LocalSearch),
    ];

    let mut table = Table::new(vec![
        "devices".into(),
        "algorithm".into(),
        "budget".into(),
        "feasible_rate".into(),
        "vs_greedy".into(),
        "vs_full_budget".into(),
        "spent".into(),
        "completed_rate".into(),
    ]);

    for &devices in sizes {
        let servers = (devices / 10).max(3);
        // One instance per trial seed, shared across algorithms/budgets so
        // every cell sees the same workload.
        let instances: Vec<(u64, GapInstance, f64)> = ctx
            .trial_seeds
            .iter()
            .map(|&seed| {
                let scenario = ScenarioBuilder::new()
                    .num_iot(devices)
                    .num_servers(servers)
                    .load_factor(0.7)
                    .build(seed)
                    .expect("scenario");
                let instance = scenario.instance().clone();
                let greedy = greedy_solution(&instance).objective;
                (seed, instance, greedy)
            })
            .collect();

        for (label, algorithm) in &lineup {
            // The full-budget reference per trial: what the solver reaches
            // with its configured completion.
            let full: Vec<f64> = tacc_par::par_map(&instances, |(seed, instance, _)| {
                let solver = algorithm.anytime_solver(*seed).expect("anytime lineup");
                solver.solve_within(instance, &Budget::unlimited()).expect("full run").0.objective
            });

            for &budget in budgets {
                let cells = tacc_par::par_map(&instances, |(seed, instance, greedy)| {
                    let solver = algorithm.anytime_solver(*seed).expect("anytime lineup");
                    let (solution, guard) = solver
                        .solve_within(instance, &Budget::units(budget))
                        .expect("budget exhaustion is not an error");
                    assert!(
                        solution.feasible,
                        "{label}: infeasible under budget {budget} (n = {devices}, seed {seed})"
                    );
                    (solution.objective / greedy, solution.objective, guard)
                });
                let trials = cells.len() as f64;
                let feasible_rate = 1.0; // asserted per-cell above
                let vs_greedy = cells.iter().map(|(r, _, _)| r).sum::<f64>() / trials;
                let vs_full =
                    cells.iter().zip(&full).map(|((_, obj, _), f)| obj / f).sum::<f64>() / trials;
                let spent = cells.iter().map(|(_, _, g)| g.spent as f64).sum::<f64>() / trials;
                let completed =
                    cells.iter().filter(|(_, _, g)| g.completed).count() as f64 / trials;
                table.push_row(vec![
                    devices.to_string(),
                    (*label).to_owned(),
                    budget.to_string(),
                    fmt3(feasible_rate),
                    fmt3(vs_greedy),
                    fmt3(vs_full),
                    fmt3(spent),
                    fmt3(completed),
                ]);
            }
        }
        eprintln!("[exp_anytime_quality] finished n = {devices}");
    }
    ctx.finish(&table);
    ctx.finish_extra("serve", &serve_shapes(&ctx));
}
