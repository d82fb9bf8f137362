//! Shared harness for the TACC experiment binaries.
//!
//! Each `src/bin/exp_*.rs` regenerates one table or figure of the paper's
//! evaluation (see `DESIGN.md` for the experiment index and
//! `EXPERIMENTS.md` for recorded results). This library holds what they
//! share: the experiment context (quick mode, seed fan-out, output
//! directory), the standard solver line-ups, and aggregation helpers.
//!
//! Every binary accepts:
//!
//! - `--quick` — shrink sizes/seeds so the whole suite runs in CI time;
//! - `--seeds N` — override the number of trials per configuration;
//! - `--out DIR` — override the CSV output directory (default `results/`).

#![warn(missing_docs)]

pub mod csv;
pub mod plot;

use std::path::PathBuf;
use std::time::Instant;

use tacc_core::metrics::{OnlineStats, Table};
use tacc_core::workload::seeds;
use tacc_core::Algorithm;
use tacc_gap::{GapInstance, Solution};

/// Parsed command line + derived settings shared by every experiment.
#[derive(Debug, Clone)]
pub struct ExperimentContext {
    /// Experiment identifier, used for the CSV filename.
    pub name: &'static str,
    /// Reduced sizes for CI / smoke runs.
    pub quick: bool,
    /// Trial seeds (already fanned out from the master seed).
    pub trial_seeds: Vec<u64>,
    /// Output directory for CSV artifacts.
    pub out_dir: PathBuf,
    started: Instant,
}

impl ExperimentContext {
    /// Parses `std::env::args` and builds the context. `default_trials`
    /// is the full-mode trial count (quick mode runs 3).
    pub fn from_args(name: &'static str, default_trials: usize) -> Self {
        let args: Vec<String> = std::env::args().collect();
        let quick = args.iter().any(|a| a == "--quick");
        let mut trials = if quick { 3.min(default_trials) } else { default_trials };
        let mut out_dir = PathBuf::from("results");
        let mut master_seed = 2022u64;
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--seeds" => {
                    if let Some(v) = it.next() {
                        trials = v.parse().expect("--seeds takes a positive integer");
                    }
                }
                "--out" => {
                    if let Some(v) = it.next() {
                        out_dir = PathBuf::from(v);
                    }
                }
                "--master-seed" => {
                    if let Some(v) = it.next() {
                        master_seed = v.parse().expect("--master-seed takes an integer");
                    }
                }
                _ => {}
            }
        }
        assert!(trials > 0, "need at least one trial");
        eprintln!("[{name}] quick={quick} trials={trials}");
        ExperimentContext {
            name,
            quick,
            trial_seeds: seeds(master_seed, trials),
            out_dir,
            started: Instant::now(),
        }
    }

    /// Picks between the full and quick variant of a parameter list.
    pub fn sizes<'a, T: Clone>(&self, full: &'a [T], quick: &'a [T]) -> &'a [T] {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// Prints the table and writes `<out>/<name>.csv`.
    pub fn finish(&self, table: &Table) {
        self.write(&format!("{}.csv", self.name), table);
    }

    /// Prints a second table of the experiment and writes it to
    /// `<out>/<name>_<suffix>.csv`.
    pub fn finish_extra(&self, suffix: &str, table: &Table) {
        self.write(&format!("{}_{suffix}.csv", self.name), table);
    }

    fn write(&self, file: &str, table: &Table) {
        println!("{}", table.to_ascii());
        let path = self.out_dir.join(file);
        table.write_csv(&path).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        eprintln!(
            "[{}] wrote {} ({} rows) in {:.1?}",
            self.name,
            path.display(),
            table.num_rows(),
            self.started.elapsed()
        );
    }
}

/// The comparator line-up used by the delay experiments (E1, E2, E6):
/// the paper's learners plus one representative per classical family.
pub fn delay_lineup() -> Vec<Algorithm> {
    vec![
        Algorithm::q_learning(),
        Algorithm::QLearningPolished(Default::default()),
        Algorithm::Sarsa(Default::default()),
        Algorithm::greedy(),
        Algorithm::BestFitDecreasing,
        Algorithm::MartelloToth(tacc_core::baselines::Desirability::DelayRegret),
        Algorithm::LocalSearch,
        Algorithm::Lagrangian,
        Algorithm::SimulatedAnnealing,
        Algorithm::TabuSearch,
        Algorithm::Genetic(Default::default()),
        Algorithm::Random,
        Algorithm::RoundRobin,
    ]
}

/// The compact line-up for expensive sweeps (E3, E5, E9).
pub fn compact_lineup() -> Vec<Algorithm> {
    vec![
        Algorithm::q_learning(),
        Algorithm::greedy(),
        Algorithm::BestFitDecreasing,
        Algorithm::LocalSearch,
        Algorithm::NearestServer,
        Algorithm::RoundRobin,
    ]
}

/// Aggregated outcome of one (algorithm, configuration) cell across
/// trials.
#[derive(Debug, Clone, Default)]
pub struct CellStats {
    /// Per-device mean delay across trials.
    pub mean_delay: OnlineStats,
    /// Total objective across trials.
    pub total_delay: OnlineStats,
    /// Wall-clock solve time (seconds).
    pub solve_seconds: OnlineStats,
    /// Number of trials with a capacity-respecting result.
    pub feasible_trials: u64,
    /// Number of trials.
    pub trials: u64,
    /// Total capacity overload across trials (0 for feasible ones).
    pub overload: OnlineStats,
    /// Maximum server utilization across trials.
    pub max_utilization: OnlineStats,
    /// Jain's fairness of server loads across trials.
    pub fairness: OnlineStats,
}

impl CellStats {
    /// Folds one solver run into the cell.
    pub fn push(&mut self, instance: &GapInstance, solution: &Solution) {
        self.trials += 1;
        if solution.feasible {
            self.feasible_trials += 1;
        }
        self.mean_delay.push(solution.mean_delay());
        self.total_delay.push(solution.objective);
        self.solve_seconds.push(solution.stats.elapsed.as_secs_f64());
        self.overload.push(solution.assignment.total_overload(instance));
        let loads = solution.assignment.server_loads(instance);
        let max_util =
            loads.iter().enumerate().map(|(j, &l)| l / instance.capacity(j)).fold(0.0, f64::max);
        self.max_utilization.push(max_util);
        self.fairness.push(tacc_core::metrics::jains_index(&loads));
    }

    /// Fraction of trials that were feasible.
    pub fn feasible_rate(&self) -> f64 {
        if self.trials == 0 {
            f64::NAN
        } else {
            self.feasible_trials as f64 / self.trials as f64
        }
    }
}

/// Runs `algorithm` (seeded per trial) on each `(seed, instance)` pair and
/// aggregates.
pub fn run_cell(algorithm: &Algorithm, instances: &[(u64, GapInstance)]) -> CellStats {
    let mut cell = CellStats::default();
    for (seed, instance) in instances {
        let solver = algorithm.solver(*seed);
        let solution =
            solver.solve(instance).unwrap_or_else(|e| panic!("{} failed: {e}", solver.name()));
        cell.push(instance, &solution);
    }
    cell
}

/// [`run_cell`] with the trials solved on `tacc-par` workers.
///
/// Each trial is seeded independently, so solving them concurrently and
/// folding the solutions back in trial order yields exactly the
/// [`CellStats`] that [`run_cell`] produces — except `solve_seconds`,
/// which measures wall clock and is only meaningful when the workers do
/// not contend for cores. Timing experiments should keep each
/// algorithm's trials on one thread and parallelize across the
/// portfolio instead.
pub fn run_cell_par(algorithm: &Algorithm, instances: &[(u64, GapInstance)]) -> CellStats {
    let solutions = tacc_par::par_map(instances, |(seed, instance)| {
        let solver = algorithm.solver(*seed);
        solver.solve(instance).unwrap_or_else(|e| panic!("{} failed: {e}", solver.name()))
    });
    let mut cell = CellStats::default();
    for ((_, instance), solution) in instances.iter().zip(&solutions) {
        cell.push(instance, solution);
    }
    cell
}

/// Formats a float with 3 decimals, rendering NaN as an empty cell.
pub fn fmt3(x: f64) -> String {
    if x.is_nan() {
        String::new()
    } else {
        format!("{x:.3}")
    }
}

/// Formats a float with 5 decimals, rendering NaN as an empty cell.
pub fn fmt5(x: f64) -> String {
    if x.is_nan() {
        String::new()
    } else {
        format!("{x:.5}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacc_topology::DelayMatrix;

    fn instance() -> GapInstance {
        GapInstance::builder(DelayMatrix::from_rows(vec![vec![1.0, 2.0], vec![2.0, 1.0]]))
            .uniform_demand(1.0)
            .uniform_capacity(2.0)
            .build()
            .unwrap()
    }

    #[test]
    fn cell_stats_aggregate_runs() {
        let instances = vec![(1u64, instance()), (2u64, instance())];
        let cell = run_cell(&Algorithm::greedy(), &instances);
        assert_eq!(cell.trials, 2);
        assert_eq!(cell.feasible_rate(), 1.0);
        assert_eq!(cell.total_delay.mean(), 2.0);
        assert_eq!(cell.mean_delay.mean(), 1.0);
        assert!(cell.max_utilization.mean() <= 1.0);
    }

    #[test]
    fn parallel_cell_matches_serial() {
        let instances = vec![(1u64, instance()), (2u64, instance()), (3u64, instance())];
        for algorithm in [Algorithm::greedy(), Algorithm::q_learning()] {
            let serial = run_cell(&algorithm, &instances);
            let par = run_cell_par(&algorithm, &instances);
            assert_eq!(par.trials, serial.trials);
            assert_eq!(par.feasible_trials, serial.feasible_trials);
            // Objective aggregates are deterministic (identical fold
            // order); only the wall-clock stat may differ.
            assert_eq!(par.total_delay.mean().to_bits(), serial.total_delay.mean().to_bits());
            assert_eq!(par.mean_delay.mean().to_bits(), serial.mean_delay.mean().to_bits());
            assert_eq!(par.fairness.mean().to_bits(), serial.fairness.mean().to_bits());
        }
    }

    #[test]
    fn lineups_have_unique_names() {
        for lineup in [delay_lineup(), compact_lineup()] {
            let mut names: Vec<String> = lineup.iter().map(Algorithm::name).collect();
            let before = names.len();
            names.sort();
            names.dedup();
            assert_eq!(names.len(), before);
        }
    }

    #[test]
    fn formatting_handles_nan() {
        assert_eq!(fmt3(1.23456), "1.235");
        assert_eq!(fmt3(f64::NAN), "");
        assert_eq!(fmt5(0.123456), "0.12346");
    }
}
