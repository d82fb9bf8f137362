//! Deterministic work budgets and the anytime-solver contract.
//!
//! A production control plane cannot let a solver run unbounded: the
//! reconfiguration deadline arrives whether or not Q-learning has
//! converged. This module defines the vocabulary the supervision layer
//! (`tacc-guard`) shares with every budget-aware solver:
//!
//! - [`Budget`]: a cap on *deterministic work units* (episodes for the RL
//!   family, devices scanned for local search, steps/generations/iterations
//!   for the metaheuristics). Counting units instead of wall-clock keeps
//!   budgeted runs bit-for-bit reproducible: same seed + same budget →
//!   same answer, on any machine.
//! - [`BudgetMeter`]: the running tally a solver consults once per unit.
//!   A wall-clock backstop exists for operators who want a hard ceiling on
//!   a wedged solver, but it is *off by default* and only armed through the
//!   [`WALLCLOCK_ENV`] environment variable, because tripping it makes the
//!   result machine-dependent.
//! - [`GuardReport`]: what a budgeted run hands back — units spent, the
//!   quality reached, and how far down the degradation ladder the answer
//!   came from.
//! - [`AnytimeSolver`]: the trait extension over [`Solver`] that budgeted
//!   solvers implement. The contract: maintain a feasible incumbent from
//!   the first unit onward and return the best-so-far when the meter runs
//!   dry, never an error merely because time ran out.

use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::{GapError, GapInstance, Solution, Solver};

/// Environment variable arming the wall-clock backstop, in milliseconds.
///
/// When set (e.g. `TACC_WALLCLOCK_GUARD=500`), every [`BudgetMeter`]
/// additionally stops granting units once the elapsed wall-clock exceeds
/// the given number of milliseconds. This is a *non-deterministic*
/// emergency brake: two runs may stop at different units, so budgeted
/// results are only byte-identical while it stays unset (or unhit).
pub const WALLCLOCK_ENV: &str = "TACC_WALLCLOCK_GUARD";

/// A deterministic cap on solver work.
///
/// The unit is solver-specific, a fixed slice of the solver's work:
/// episodes (Q-learning, SARSA, double Q-learning), devices scanned
/// (local search: one device's shifts and swaps), annealing steps, GA
/// generations, or tabu iterations. [`Budget::unlimited`] lets the
/// solver run to its configured completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Budget {
    units: Option<u64>,
}

impl Budget {
    /// No cap: the solver runs to its configured completion.
    #[must_use]
    pub const fn unlimited() -> Self {
        Budget { units: None }
    }

    /// Caps the run at `n` work units.
    #[must_use]
    pub const fn units(n: u64) -> Self {
        Budget { units: Some(n) }
    }

    /// The cap, or `None` when unlimited.
    #[must_use]
    pub const fn limit(&self) -> Option<u64> {
        self.units
    }

    /// Starts a meter for one budgeted run.
    ///
    /// Reads [`WALLCLOCK_ENV`] once, here, so a long run's per-unit cost
    /// is a single integer compare.
    #[must_use]
    pub fn meter(&self) -> BudgetMeter {
        let deadline = std::env::var(WALLCLOCK_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .map(|ms| Instant::now() + Duration::from_millis(ms));
        BudgetMeter { limit: self.units, spent: 0, deadline, wallclock_tripped: false }
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

/// The running tally of a budgeted run.
///
/// Solvers call [`BudgetMeter::take`] once before each work unit; a
/// `false` answer means "stop now and return the incumbent".
#[derive(Debug)]
pub struct BudgetMeter {
    limit: Option<u64>,
    spent: u64,
    deadline: Option<Instant>,
    wallclock_tripped: bool,
}

impl BudgetMeter {
    /// Tries to spend one unit. Returns `false` — without spending — when
    /// the budget is exhausted or the wall-clock backstop (if armed via
    /// [`WALLCLOCK_ENV`]) has expired.
    pub fn take(&mut self) -> bool {
        if let Some(limit) = self.limit {
            if self.spent >= limit {
                return false;
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.wallclock_tripped = true;
                return false;
            }
        }
        self.spent += 1;
        true
    }

    /// Units granted so far.
    #[must_use]
    pub const fn spent(&self) -> u64 {
        self.spent
    }

    /// Whether the non-deterministic wall-clock backstop cut the run short.
    #[must_use]
    pub const fn wallclock_tripped(&self) -> bool {
        self.wallclock_tripped
    }
}

/// How far down the degradation ladder an answer came from.
///
/// Ordered: a larger level is a worse outcome. [`GuardReport`] carries the
/// level so operators can alert on anything above `Truncated`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub enum DegradationLevel {
    /// The solver ran to its configured completion inside the budget.
    #[default]
    None,
    /// The budget expired mid-run; the answer is the best-so-far incumbent.
    Truncated,
    /// The primary solver failed (panic, error, or infeasible output) and
    /// a fallback heuristic produced the answer.
    Fallback,
    /// Every live solver failed; the answer is a previously recorded
    /// last-known-good assignment that still fits the instance.
    LastKnownGood,
}

impl DegradationLevel {
    /// Stable lowercase label used in reports and obs streams.
    #[must_use]
    pub const fn label(&self) -> &'static str {
        match self {
            DegradationLevel::None => "none",
            DegradationLevel::Truncated => "truncated",
            DegradationLevel::Fallback => "fallback",
            DegradationLevel::LastKnownGood => "last-known-good",
        }
    }
}

/// The outcome record of a budgeted (and possibly supervised) solve.
///
/// Every field is deterministic for a fixed seed + budget, except
/// `wallclock_tripped`, which can only ever be `true` when the operator
/// armed [`WALLCLOCK_ENV`]. Serializing two same-seed reports therefore
/// yields byte-identical JSON in the default configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GuardReport {
    /// Name of the solver (or ladder stage) that produced the answer.
    pub solver: String,
    /// The configured cap, or `None` for unlimited.
    pub budget: Option<u64>,
    /// Work units actually spent by the answering stage.
    pub spent: u64,
    /// Whether the answering stage ran to its configured completion.
    pub completed: bool,
    /// Objective value (total delay, ms) of the returned assignment.
    pub objective: f64,
    /// Whether the returned assignment respects every server capacity.
    pub feasible: bool,
    /// How far down the degradation ladder the answer came from.
    pub degradation: DegradationLevel,
    /// Ladder stages that failed before the answering stage (0 for a
    /// direct anytime run).
    pub fallbacks: u32,
    /// Panics caught by the supervisor during this solve.
    pub panics_caught: u32,
    /// Circuit-breaker trips recorded during this solve.
    pub breaker_trips: u32,
    /// Whether the non-deterministic wall-clock backstop fired.
    pub wallclock_tripped: bool,
}

impl GuardReport {
    /// Builds the report for a direct (unsupervised) anytime run.
    #[must_use]
    pub fn for_run(
        solver: &str,
        solution: &Solution,
        meter: &BudgetMeter,
        budget: &Budget,
        completed: bool,
    ) -> Self {
        GuardReport {
            solver: solver.to_string(),
            budget: budget.limit(),
            spent: meter.spent(),
            completed,
            objective: solution.objective,
            feasible: solution.feasible,
            degradation: if completed {
                DegradationLevel::None
            } else {
                DegradationLevel::Truncated
            },
            fallbacks: 0,
            panics_caught: 0,
            breaker_trips: 0,
            wallclock_tripped: meter.wallclock_tripped(),
        }
    }
}

/// The anytime-solver contract: best-so-far under a deterministic budget.
///
/// Implementations must
///
/// 1. seed a feasible incumbent *before* spending the first unit (TACC
///    solvers use a greedy warm start), so any budget — even zero units —
///    yields a feasible assignment whenever the warm start finds one;
/// 2. only ever replace the incumbent with a strictly better feasible
///    assignment, making quality monotone non-worsening in budget for a
///    fixed seed (a truncated run is a prefix of the full run's RNG
///    trajectory); and
/// 3. return `Ok` with the incumbent when the budget expires — exhaustion
///    is a degradation, not an error.
pub trait AnytimeSolver: Solver {
    /// Runs for at most `budget` work units and returns the incumbent plus
    /// the [`GuardReport`] describing how the run ended.
    ///
    /// # Errors
    ///
    /// Returns [`GapError`] only for the same structural failures
    /// [`Solver::solve`] can report — never because the budget ran out.
    fn solve_within(
        &self,
        instance: &GapInstance,
        budget: &Budget,
    ) -> Result<(Solution, GuardReport), GapError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_meter_always_grants() {
        let mut meter = Budget::unlimited().meter();
        for _ in 0..10_000 {
            assert!(meter.take());
        }
        assert_eq!(meter.spent(), 10_000);
        assert!(!meter.wallclock_tripped());
    }

    #[test]
    fn capped_meter_grants_exactly_the_budget() {
        let mut meter = Budget::units(3).meter();
        assert!(meter.take());
        assert!(meter.take());
        assert!(meter.take());
        assert!(!meter.take());
        assert!(!meter.take());
        assert_eq!(meter.spent(), 3);
    }

    #[test]
    fn zero_budget_grants_nothing() {
        let mut meter = Budget::units(0).meter();
        assert!(!meter.take());
        assert_eq!(meter.spent(), 0);
    }

    #[test]
    fn degradation_levels_are_ordered() {
        assert!(DegradationLevel::None < DegradationLevel::Truncated);
        assert!(DegradationLevel::Truncated < DegradationLevel::Fallback);
        assert!(DegradationLevel::Fallback < DegradationLevel::LastKnownGood);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(DegradationLevel::None.label(), "none");
        assert_eq!(DegradationLevel::LastKnownGood.label(), "last-known-good");
    }
}
