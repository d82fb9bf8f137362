//! Release-mode invariant checking, gated by `TACC_CHECK=1`.
//!
//! The runtime's hard guarantees — no overloaded server, device
//! conservation, delay columns that match a full recompute, idempotent
//! snapshots — have historically lived in `debug_assert!`s, which vanish
//! under `--release`. This module promotes them to checks that can run in
//! release CI: set `TACC_CHECK=1` in the environment and
//! [`crate::Runtime::step`] verifies the cheap invariants after *every*
//! event and the expensive ones (full shortest-path recompute, snapshot
//! JSON round-trip, the maintainer rebuilt from the snapshot's parent
//! trees) on a sampled cadence. Violations surface as typed
//! [`crate::RuntimeError::Invariant`] errors, never panics, so harnesses
//! can report them.
//!
//! The `DelayMaintainer`'s per-repair tree oracles honour the same
//! switch: with `TACC_CHECK=1` every incremental repair is compared
//! against a from-scratch Dijkstra, and every repaired tree's distances
//! against its parent sums, even in release builds.

use std::sync::OnceLock;

/// Whether `TACC_CHECK` asks for release-mode invariant checking.
///
/// Recognizes `1`, `true`, `on` and `yes` (case-insensitive); anything
/// else — including unset — disables the checks. The environment is read
/// once and cached for the life of the process.
pub fn enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        std::env::var("TACC_CHECK")
            .is_ok_and(|v| matches!(v.to_ascii_lowercase().as_str(), "1" | "true" | "on" | "yes"))
    })
}

/// How often [`crate::Runtime::step`] runs the *expensive* checks (full
/// delay-matrix recompute, snapshot round-trip) when checking is enabled:
/// every `DEEP_CHECK_EVERY`-th event. The cheap checks (overload, device
/// conservation, reachability classification) run on every event.
pub const DEEP_CHECK_EVERY: u64 = 8;

/// Sampling policy plus entry point for explicit invariant verification —
/// what [`crate::Runtime::step`] consults when [`enabled`] and what
/// harnesses (e.g. `tacc-chaos`) drive directly regardless of the
/// environment.
#[derive(Debug, Clone, Copy)]
pub struct InvariantChecker {
    /// Cadence of the expensive checks (`0` = shallow checks only).
    pub deep_every: u64,
}

impl Default for InvariantChecker {
    /// Deep checks every [`DEEP_CHECK_EVERY`] events.
    fn default() -> Self {
        InvariantChecker { deep_every: DEEP_CHECK_EVERY }
    }
}

impl InvariantChecker {
    /// Verifies the runtime's invariants, running the expensive checks
    /// when the cursor lands on the configured cadence.
    ///
    /// # Errors
    ///
    /// Returns [`crate::RuntimeError::Invariant`] naming the first
    /// violated invariant.
    pub fn check(&self, runtime: &crate::Runtime) -> Result<(), crate::RuntimeError> {
        let deep = self.deep_every > 0 && runtime.cursor() % self.deep_every == 0;
        runtime.check_invariants(deep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_is_stable_across_calls() {
        // The value is cached; both reads must agree regardless of what
        // the environment said at process start.
        assert_eq!(enabled(), enabled());
    }

    #[test]
    fn default_checker_samples_deep_checks() {
        let checker = InvariantChecker::default();
        assert_eq!(checker.deep_every, DEEP_CHECK_EVERY);
    }
}
