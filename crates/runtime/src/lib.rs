//! # tacc-runtime — online reconfiguration control plane
//!
//! The static layers of this workspace answer *"what is the best cluster
//! configuration for this topology?"*. This crate answers the question an
//! operator actually faces: *"the deployment is live and the world keeps
//! changing — keep the configuration good, cheaply, without ever falling
//! over."*
//!
//! It consumes a time-ordered stream of edge events — devices joining
//! and leaving, servers failing and recovering, link latencies drifting —
//! and maintains three things in response:
//!
//! 1. **The delay matrix**, incrementally: instead of recomputing every
//!    shortest path after each change, [`DelayMaintainer`] repairs only
//!    the affected shortest-path trees
//!    ([`tacc_topology::incremental`]) and proves (in debug builds, and
//!    via an explicit oracle) that the result is bit-for-bit what a full
//!    recompute would produce. A full-recompute fallback is one config
//!    flag away.
//! 2. **The assignment**, under a migration budget: joins place onto the
//!    cheapest feasible alive server, failed servers are evacuated
//!    highest-priority-first, and every delay change is followed by a
//!    budgeted rebalance. When capacity runs out the runtime *degrades
//!    gracefully* — it sheds the lowest-priority devices, reports them in
//!    [`CoreMetrics::shed_devices`], and never panics. A device cut off
//!    from every alive server by a network partition enters the distinct
//!    [`DeviceState::Unreachable`] state and returns, highest priority
//!    first, when the partition heals. An optional periodic policy
//!    refresh re-solves the active sub-instance with the configured
//!    solver (greedy or the paper's Q-learning).
//! 3. **The evidence**: [`RuntimeMetrics`] counts events, migrations and
//!    evictions, measures incremental-vs-full repair savings, and keeps
//!    per-event-kind latency histograms. With `TACC_CHECK=1` in the
//!    environment, [`Runtime::step`] additionally verifies the hard
//!    invariants — no overload, device conservation, delay columns
//!    matching a full recompute, snapshot idempotence — after every
//!    event, even in release builds (see [`check`]).
//!
//! The whole runtime state is serializable: [`Runtime::snapshot`] /
//! [`Runtime::restore`] round-trip through JSON such that an interrupted
//! replay finishes with byte-identical assignment and deterministic
//! metrics to an uninterrupted one.
//!
//! ## Example
//!
//! ```
//! use tacc_runtime::{Runtime, RuntimeConfig};
//! use tacc_workload::{TraceGenerator, TraceScenario};
//!
//! # fn main() -> Result<(), tacc_runtime::RuntimeError> {
//! let trace = TraceGenerator::new(TraceScenario::default())
//!     .num_events(40)
//!     .generate(7)?;
//! let mut runtime = Runtime::from_trace(&trace, RuntimeConfig::default())?;
//! runtime.run(&trace)?;
//! assert_eq!(runtime.cursor(), 40);
//! assert!(runtime.cluster().is_feasible());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(clippy::pedantic)]
#![allow(clippy::module_name_repetitions)]
#![allow(clippy::cast_precision_loss)]
#![allow(clippy::must_use_candidate)]
#![allow(clippy::missing_panics_doc)]
// "IoT" et al. trip the doc-markdown heuristic throughout the workspace.
#![allow(clippy::doc_markdown)]
// The event cursor is bounded by `Vec` lengths; narrowing is safe.
#![allow(clippy::cast_possible_truncation)]

pub mod check;
mod error;
pub mod maintainer;
pub mod metrics;
mod runtime;
mod snapshot;

pub use check::InvariantChecker;
pub use error::RuntimeError;
pub use maintainer::{DelayMaintainer, MaintainerSnapshot};
pub use metrics::{CoreMetrics, EventCounts, LatencyHistogram, RuntimeMetrics};
pub use runtime::{DeviceState, ReassignPolicy, Runtime, RuntimeConfig};
pub use snapshot::RuntimeSnapshot;
