//! # tacc-guard — supervision layer: anytime solving, fallback ladders, input quarantine
//!
//! Everything below this crate is built for a friendly world: well-formed
//! inputs, solvers that terminate, and callers with unlimited patience.
//! `tacc-guard` is the layer that faces the other world. It wraps the
//! solver stack in three guarantees:
//!
//! 1. **Deadline-aware anytime solving.** A [`Budget`] caps the work a
//!    solver may spend in deterministic units (RL episodes, devices
//!    scanned by local search, SA steps, GA generations). Every
//!    [`AnytimeSolver`] seeds a feasible incumbent before spending its
//!    first unit and returns best-so-far when the budget runs out —
//!    exhaustion is a *truncation*, never an error.
//!    Same seed + same budget → byte-identical [`GuardReport`].
//! 2. **A fallback ladder with circuit breakers.** [`Supervisor::supervise`]
//!    runs primary solver → greedy → last-known-good, catching panics at
//!    every rung and short-circuiting repeatedly-failing stages through a
//!    per-stage, step-counted [`CircuitBreaker`] (no wall-clock — breaker
//!    trajectories replay deterministically).
//! 3. **Input quarantine.** [`validate::validate_trace`],
//!    [`validate::validate_snapshot`] and friends run one typed validation
//!    pass over everything loaded from outside, catching what serde-derived
//!    deserialization lets through (NaN latencies, dangling node
//!    references, backwards timestamps) before it reaches solver code.
//!
//! Wall-clock enters exactly once, optionally: setting
//! [`WALLCLOCK_ENV`]`=<ms>` arms a non-deterministic backstop deadline on
//! every budget meter, for operators who need a hard latency bound and
//! accept losing run-to-run reproducibility.

#![warn(missing_docs)]
#![warn(clippy::pedantic)]
#![allow(clippy::module_name_repetitions)]
#![allow(clippy::cast_precision_loss)]

pub mod breaker;
mod error;
mod supervise;
pub mod validate;

pub use breaker::{BreakerState, CircuitBreaker};
pub use error::GuardError;
pub use supervise::{Supervisor, SupervisorConfig, FORCE_PANIC_ENV};
pub use validate::{QuarantineReport, Severity, ValidationIssue};

// The anytime vocabulary lives in `tacc-gap` (next to the `Solver` trait
// it extends) so solver crates can implement it without a cycle; re-export
// it here so guard users need only one import.
pub use tacc_gap::{
    AnytimeSolver, Budget, BudgetMeter, DegradationLevel, GuardReport, WALLCLOCK_ENV,
};
