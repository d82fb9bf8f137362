//! Zero-cost-when-off observability for the TACC workspace.
//!
//! Three pieces, all dependency-free and all inert unless switched on:
//!
//! - a process-wide [`Registry`] of named **counters**, **gauges** and
//!   fixed-bucket **histograms**, with [`RegistrySnapshot`] /
//!   [`RegistrySnapshot::diff`] and deterministic text + JSON export;
//! - **span-style scoped timers** ([`span!`]) that aggregate into a
//!   per-phase profile tree ([`ProfileSnapshot`]) rendered by
//!   `tacc obs-report`;
//! - a stable-schema **JSONL event stream** ([`StreamWriter`]) behind
//!   `run-trace --obs-out` / `solve --obs-out`, byte-identical across
//!   replays of the same seed.
//!
//! # The `TACC_OBS` switch
//!
//! Everything is gated on [`enabled`], resolved once from the `TACC_OBS`
//! environment variable (`1`/`true`/`on`/`yes`, case-insensitive) and
//! cached in a single atomic. With the switch off — the default — every
//! entry point is a load-and-branch: [`span!`] constructs a guard with no
//! clock read and no thread-local touch, counter and histogram calls
//! return before formatting anything, and no lock is ever taken. The
//! `delay_matrix` and solver-portfolio benches bound the off-path tax at
//! ≤1% (see `DESIGN.md` § Observability).
//!
//! Harnesses that *want* instrumentation regardless of the environment
//! (the `tacc obs-report` command, tests) call [`set_enabled`] before the
//! first metric touch.
//!
//! # Determinism contract
//!
//! Counters and gauges record *deterministic* quantities (event counts,
//! objective values); **value histograms** ([`observe`]) likewise. Only
//! **time histograms** ([`observe_time`]) and span timings hold
//! wall-clock measurements. Exports honour the split: the JSONL stream
//! and `RegistrySnapshot::to_json(false)` carry the deterministic
//! metrics only, so two replays of the same seed produce byte-identical
//! streams; `obs-report` and `to_json(true)` add the timing sections.
//!
//! # Example
//!
//! ```
//! tacc_obs::set_enabled(true);
//! {
//!     let _span = tacc_obs::span!("demo.phase");
//!     tacc_obs::counter_add("demo.widgets", 3);
//!     tacc_obs::observe("demo.batch_size", 128);
//! }
//! let registry = tacc_obs::registry_snapshot();
//! assert_eq!(registry.counter("demo.widgets"), Some(3));
//! assert!(tacc_obs::profile_snapshot().phase_total_ns("demo.phase").is_some());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod registry;
pub mod report;
pub mod span;
pub mod stream;

use std::sync::atomic::{AtomicU8, Ordering};

pub use registry::{FixedHistogram, MetricValue, Registry, RegistrySnapshot};
pub use report::render;
pub use span::{ProfileSnapshot, SpanGuard};
pub use stream::{StreamWriter, STREAM_VERSION};

/// Environment variable switching instrumentation on (`1`, `true`, `on`,
/// `yes`; case-insensitive).
pub const OBS_ENV: &str = "TACC_OBS";

/// 0 = unresolved, 1 = off, 2 = on.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Whether instrumentation is live. The first call resolves [`OBS_ENV`]
/// and caches the answer; after that this is a single relaxed atomic
/// load — the entire cost of every disabled [`span!`] / counter call.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        0 => resolve_from_env(),
        state => state == 2,
    }
}

#[cold]
fn resolve_from_env() -> bool {
    let on = std::env::var(OBS_ENV)
        .is_ok_and(|v| matches!(v.to_ascii_lowercase().as_str(), "1" | "true" | "on" | "yes"));
    // Another thread may have resolved (or `set_enabled` may have fired)
    // concurrently; first writer wins so the answer stays stable.
    let _ = STATE.compare_exchange(0, if on { 2 } else { 1 }, Ordering::Relaxed, Ordering::Relaxed);
    STATE.load(Ordering::Relaxed) == 2
}

/// Forces instrumentation on or off for the rest of the process,
/// overriding [`OBS_ENV`]. Used by `tacc obs-report` (which always wants
/// the profile) and by tests.
pub fn set_enabled(on: bool) {
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Adds `n` to the named counter. No-op when disabled.
#[inline]
pub fn counter_add(name: &'static str, n: u64) {
    if enabled() {
        Registry::global().counter_add(name, n);
    }
}

/// Sets the named gauge to `value`. No-op when disabled.
#[inline]
pub fn gauge_set(name: &'static str, value: f64) {
    if enabled() {
        Registry::global().gauge_set(name, value);
    }
}

/// Records a deterministic quantity into the named value histogram.
/// No-op when disabled.
#[inline]
pub fn observe(name: &'static str, value: u64) {
    if enabled() {
        Registry::global().observe(name, value);
    }
}

/// Records a wall-clock duration into the named time histogram (in
/// nanoseconds). Time histograms are measurements, not state: they are
/// excluded from deterministic exports. No-op when disabled.
#[inline]
pub fn observe_time(name: &'static str, elapsed: std::time::Duration) {
    if enabled() {
        Registry::global().observe_time(name, elapsed);
    }
}

/// A point-in-time copy of the global registry.
pub fn registry_snapshot() -> RegistrySnapshot {
    Registry::global().snapshot()
}

/// A point-in-time copy of the global profile tree.
pub fn profile_snapshot() -> ProfileSnapshot {
    span::snapshot()
}

/// Clears the global registry and profile tree. For harnesses that run
/// several instrumented workloads in one process (`tacc obs-report`,
/// tests) and want each report to start from zero.
pub fn reset() {
    Registry::global().clear();
    span::clear();
}

/// Opens a scoped timer that aggregates into the profile tree under the
/// given `&'static str` name, nested inside any enclosing span on the
/// same thread. Bind the guard (`let _span = ...`) — dropping it ends
/// the span. Compiled down to a load-and-branch when obs is off.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// The gate, registry and profile are process-global; tests that
    /// flip them take this lock so the default parallel test runner
    /// cannot interleave them.
    static GLOBALS: Mutex<()> = Mutex::new(());

    /// Takes [`GLOBALS`], recovering it from a test that panicked while
    /// holding it: each test sets the gate before it reads anything, so
    /// one failure is reported once instead of poisoning every later
    /// test.
    fn globals() -> MutexGuard<'static, ()> {
        GLOBALS.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn disabled_calls_are_inert() {
        let _guard = globals();
        set_enabled(false);
        reset();
        counter_add("off.counter", 5);
        observe("off.hist", 1);
        observe_time("off.time", std::time::Duration::from_micros(1));
        {
            let _span = span!("off.span");
        }
        assert_eq!(registry_snapshot().counter("off.counter"), None);
        assert!(profile_snapshot().is_empty());
    }

    #[test]
    fn enabled_round_trip_through_the_globals() {
        let _guard = globals();
        set_enabled(true);
        reset();
        counter_add("on.counter", 2);
        counter_add("on.counter", 3);
        gauge_set("on.gauge", 1.5);
        observe("on.values", 7);
        {
            let _outer = span!("on.outer");
            let _inner = span!("on.inner");
        }
        let registry = registry_snapshot();
        assert_eq!(registry.counter("on.counter"), Some(5));
        let profile = profile_snapshot();
        assert!(profile.phase_total_ns("on.outer").is_some());
        assert!(profile.phase_total_ns("on.outer/on.inner").is_some());
        reset();
        set_enabled(false);
    }

    #[test]
    fn disabled_span_overhead_is_negligible() {
        let _guard = globals();
        set_enabled(false);
        // 10M disabled spans must be load-and-branch cheap. The bound is
        // deliberately loose (50ns/op ≈ 100× the expected cost), while a
        // regression that starts reading the clock or taking the lock
        // (~1µs/op under contention) still fails loudly. The spans run
        // as equal rounds and the fastest round is judged: a test binary
        // running beside this one can preempt some rounds, but a slow
        // probe slows every round.
        const ROUNDS: u64 = 10;
        const ITERS: u64 = 1_000_000;
        let per_op = (0..ROUNDS)
            .map(|_| {
                let start = std::time::Instant::now();
                for _ in 0..ITERS {
                    let _span = span!("overhead.probe");
                    counter_add("overhead.counter", 1);
                }
                start.elapsed().as_nanos() as f64 / ITERS as f64
            })
            .fold(f64::INFINITY, f64::min);
        assert!(per_op < 50.0, "disabled obs costs {per_op:.1}ns per span+counter");
        assert_eq!(registry_snapshot().counter("overhead.counter"), None);
    }
}
