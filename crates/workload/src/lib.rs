//! Seeded scenario and workload generation for TACC experiments.
//!
//! A [`Scenario`] bundles everything one experimental trial needs: a
//! generated [`tacc_topology::Topology`], its delay matrix, and a
//! [`tacc_gap::GapInstance`] with demands drawn from a [`DemandModel`] and
//! capacities sized to a target [`ScenarioBuilder::load_factor`]. Every
//! scenario is a pure function of its builder parameters and seed, so any
//! figure in `EXPERIMENTS.md` can be regenerated bit-for-bit.
//!
//! # Example
//!
//! ```
//! use tacc_workload::{ScenarioBuilder, TopologyFamily, DemandModel};
//!
//! # fn main() -> Result<(), tacc_workload::WorkloadError> {
//! let scenario = ScenarioBuilder::new()
//!     .family(TopologyFamily::RandomGeometric)
//!     .num_iot(60)
//!     .num_servers(8)
//!     .load_factor(0.7)
//!     .demand_model(DemandModel::Uniform { lo: 0.5, hi: 2.0 })
//!     .build(42)?;
//! assert_eq!(scenario.instance().num_devices(), 60);
//! let rho = scenario.instance().load_factor();
//! assert!(rho <= 0.75, "load factor {rho} should be close to the 0.7 target");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod demand;
mod error;
mod scenario;
mod surge;
mod sweep;
mod trace;

pub use demand::DemandModel;
pub use error::WorkloadError;
pub use scenario::{Scenario, ScenarioBuilder, TopologyFamily};
pub use surge::{compose_traces, tier_priorities, SurgeGenerator};
pub use sweep::seeds;
pub use trace::{
    event_faults, EventFault, TimedEvent, Trace, TraceEvent, TraceGenerator, TraceScenario,
};
