//! Replayable event traces for the online reconfiguration runtime.
//!
//! A [`Trace`] is a self-contained experiment input: the scenario
//! parameters that deterministically regenerate the initial deployment
//! (topology + GAP instance) plus a time-ordered stream of
//! [`TraceEvent`]s — device churn, server failures/recoveries and
//! link-latency drift. Traces serialize to JSON (see the schema in
//! `DESIGN.md`), so any online-reconfiguration run can be replayed
//! bit-for-bit from a file, and [`TraceGenerator`] produces consistent
//! traces from a seed.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::{Scenario, ScenarioBuilder, TopologyFamily, WorkloadError};

/// One reconfiguration-relevant change in the deployment.
///
/// Device and server indices are role-local (row/column indices of the
/// delay matrix); `link` is the link's insertion index in the topology
/// graph ([`tacc_topology::Graph::link_id`] maps it back).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// An inactive IoT device comes online and needs a server.
    DeviceJoin {
        /// Role-local device index.
        device: usize,
    },
    /// An active IoT device goes offline, freeing its server share.
    DeviceLeave {
        /// Role-local device index.
        device: usize,
    },
    /// An edge server dies: its devices must evacuate and its network
    /// links stop carrying traffic.
    ServerFail {
        /// Role-local server index.
        server: usize,
    },
    /// A previously failed edge server comes back.
    ServerRecover {
        /// Role-local server index.
        server: usize,
    },
    /// The propagation latency of one network link changes (congestion,
    /// rerouting, radio conditions).
    LinkLatencyDrift {
        /// Link insertion index in the topology graph.
        link: usize,
        /// The link's new propagation latency in milliseconds.
        latency_ms: f64,
    },
}

impl TraceEvent {
    /// Stable display/metrics key for this event kind.
    pub fn kind_name(&self) -> &'static str {
        match self {
            TraceEvent::DeviceJoin { .. } => "device-join",
            TraceEvent::DeviceLeave { .. } => "device-leave",
            TraceEvent::ServerFail { .. } => "server-fail",
            TraceEvent::ServerRecover { .. } => "server-recover",
            TraceEvent::LinkLatencyDrift { .. } => "link-latency-drift",
        }
    }

    /// All kind names, in the order used by metrics tables.
    pub const KIND_NAMES: [&'static str; 5] =
        ["device-join", "device-leave", "server-fail", "server-recover", "link-latency-drift"];
}

/// A [`TraceEvent`] stamped with its occurrence time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimedEvent {
    /// Milliseconds since the start of the trace; non-decreasing within a
    /// trace.
    pub time_ms: f64,
    /// What happened.
    pub event: TraceEvent,
}

/// The scenario parameters a trace was generated against. Regenerating
/// with [`TraceScenario::build`] yields the exact topology and instance
/// the event indices refer to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceScenario {
    /// Topology family (serialized by its kebab-case name).
    pub family: TopologyFamily,
    /// Number of IoT devices.
    pub num_iot: usize,
    /// Number of edge servers.
    pub num_servers: usize,
    /// Target system load factor in `(0, 1]`.
    pub load_factor: f64,
    /// Seed of the scenario (topology + demands).
    pub seed: u64,
}

impl Default for TraceScenario {
    /// A small random-geometric deployment (40 devices, 6 servers, load
    /// factor 0.7, seed 0) — handy for tests and doc examples.
    fn default() -> Self {
        TraceScenario {
            family: TopologyFamily::RandomGeometric,
            num_iot: 40,
            num_servers: 6,
            load_factor: 0.7,
            seed: 0,
        }
    }
}

impl TraceScenario {
    /// Materializes the deployment this trace's indices refer to.
    ///
    /// # Errors
    ///
    /// Propagates [`ScenarioBuilder::build`] failures.
    pub fn build(&self) -> Result<Scenario, WorkloadError> {
        ScenarioBuilder::new()
            .family(self.family)
            .num_iot(self.num_iot)
            .num_servers(self.num_servers)
            .load_factor(self.load_factor)
            .build(self.seed)
    }
}

/// A replayable online-reconfiguration experiment input.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Trace format version; see [`Trace::FORMAT_VERSION`].
    pub version: u32,
    /// The deployment the events act on.
    pub scenario: TraceScenario,
    /// Time-ordered events.
    pub events: Vec<TimedEvent>,
}

impl Trace {
    /// The trace JSON format version this crate reads and writes.
    pub const FORMAT_VERSION: u32 = 1;

    /// Structural validation: format version, then the per-event rules
    /// of [`event_faults`]. Link indices can only be checked against the
    /// materialized topology, which the replaying runtime does.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidConfig`] naming the first violation.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        let invalid = |reason: String| Err(WorkloadError::InvalidConfig { reason });
        if self.version != Trace::FORMAT_VERSION {
            return invalid(format!(
                "trace format version {} (this build reads {})",
                self.version,
                Trace::FORMAT_VERSION
            ));
        }
        event_faults(&self.scenario, 0.0, &self.events)
            .first()
            .map_or(Ok(()), |fault| invalid(fault.to_string()))
    }

    /// Serializes to the pretty-printed JSON trace format.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("trace serialization is infallible")
    }

    /// Parses and validates a JSON trace.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidConfig`] for malformed JSON or a
    /// structurally invalid trace.
    pub fn from_json(text: &str) -> Result<Trace, WorkloadError> {
        let value = serde_json::from_str(text)
            .map_err(|e| WorkloadError::InvalidConfig { reason: format!("trace JSON: {e}") })?;
        let trace: Trace = serde_json::from_value(&value)
            .map_err(|e| WorkloadError::InvalidConfig { reason: format!("trace JSON: {e}") })?;
        trace.validate()?;
        Ok(trace)
    }

    /// A stable 64-bit fingerprint of the trace (FNV-1a over the
    /// canonical JSON rendering). Two traces fingerprint equal iff their
    /// JSON is byte-identical; crash-recovery journals store it so a
    /// resume against the wrong trace is caught immediately.
    pub fn fingerprint(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in self.to_json().bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        hash
    }
}

/// One broken per-event rule, found by [`event_faults`]. `index` is the
/// event's position in the slice that was checked.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventFault {
    /// The event time is NaN or infinite.
    NonFiniteTime {
        /// Event index.
        index: usize,
        /// The offending time.
        time_ms: f64,
    },
    /// The event time is earlier than the previous event's, or than the
    /// timeline start for the first event — which makes any negative
    /// time a fault, since timelines start at or after 0.
    TimeGoesBackwards {
        /// Event index.
        index: usize,
        /// The latest finite time before this event.
        prev_ms: f64,
        /// The offending time.
        time_ms: f64,
    },
    /// A device or server index is outside the scenario.
    IndexOutOfRange {
        /// Event index.
        index: usize,
        /// `"device"` or `"server"`.
        what: &'static str,
        /// The offending index.
        value: usize,
        /// The exclusive upper bound.
        limit: usize,
    },
    /// A drift latency is NaN, infinite or negative.
    BadDriftLatency {
        /// Event index.
        index: usize,
        /// The offending latency.
        latency_ms: f64,
    },
}

impl std::fmt::Display for EventFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            EventFault::TimeGoesBackwards { index, prev_ms, time_ms } if time_ms >= 0.0 => {
                write!(f, "event {index}: time {time_ms} goes backwards (previous {prev_ms})")
            }
            EventFault::NonFiniteTime { index, time_ms }
            | EventFault::TimeGoesBackwards { index, time_ms, .. } => {
                write!(f, "event {index}: time {time_ms} is not finite and non-negative")
            }
            EventFault::IndexOutOfRange { index, what, value, limit } => {
                write!(f, "event {index}: {what} {value} out of range ({limit})")
            }
            EventFault::BadDriftLatency { index, latency_ms } => write!(
                f,
                "event {index}: drift latency {latency_ms} is not finite and non-negative"
            ),
        }
    }
}

/// Checks a run of timed events against the per-event rules every trace,
/// quarantine pass and wire burst obeys: times finite and non-decreasing
/// from `start_ms` (the timeline's previous event time, `0.0` for a whole
/// trace), device and server indices inside `scenario`, drift latencies
/// finite and non-negative. Returns every fault, in event order; an
/// event's time fault precedes its index or latency fault. A faulty
/// finite time still becomes the reference for the next event.
#[must_use]
pub fn event_faults(
    scenario: &TraceScenario,
    start_ms: f64,
    events: &[TimedEvent],
) -> Vec<EventFault> {
    let mut faults = Vec::new();
    let mut prev_ms = start_ms;
    for (index, timed) in events.iter().enumerate() {
        let time_ms = timed.time_ms;
        if !time_ms.is_finite() {
            faults.push(EventFault::NonFiniteTime { index, time_ms });
        } else {
            if time_ms < prev_ms {
                faults.push(EventFault::TimeGoesBackwards { index, prev_ms, time_ms });
            }
            prev_ms = time_ms;
        }
        let (what, value, limit) = match timed.event {
            TraceEvent::DeviceJoin { device } | TraceEvent::DeviceLeave { device } => {
                ("device", device, scenario.num_iot)
            }
            TraceEvent::ServerFail { server } | TraceEvent::ServerRecover { server } => {
                ("server", server, scenario.num_servers)
            }
            TraceEvent::LinkLatencyDrift { latency_ms, .. } => {
                if !latency_ms.is_finite() || latency_ms < 0.0 {
                    faults.push(EventFault::BadDriftLatency { index, latency_ms });
                }
                continue;
            }
        };
        if value >= limit {
            faults.push(EventFault::IndexOutOfRange { index, what, value, limit });
        }
    }
    faults
}

/// Seeded generator of consistent [`Trace`]s.
///
/// "Consistent" means the event stream is always applicable to the
/// deployment state it creates: devices only leave while active and join
/// while inactive, servers only fail while alive (never the last one) and
/// recover while failed, and drift targets existing links with latencies
/// scaled from the link's original value.
///
/// # Example
///
/// ```
/// use tacc_workload::{TraceGenerator, TraceScenario, TopologyFamily};
///
/// # fn main() -> Result<(), tacc_workload::WorkloadError> {
/// let scenario = TraceScenario {
///     family: TopologyFamily::RandomGeometric,
///     num_iot: 30,
///     num_servers: 4,
///     load_factor: 0.7,
///     seed: 7,
/// };
/// let trace = TraceGenerator::new(scenario).num_events(50).generate(42)?;
/// assert_eq!(trace.events.len(), 50);
/// assert!(trace.validate().is_ok());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    scenario: TraceScenario,
    num_events: usize,
    mean_interarrival_ms: f64,
    // Sampling weights per event kind, in `TraceEvent::KIND_NAMES` order:
    // join, leave, fail, recover, drift.
    weights: [f64; 5],
    drift_factor: (f64, f64),
}

impl TraceGenerator {
    /// Starts a generator with defaults: 100 events, 250 ms mean
    /// inter-arrival, churn-heavy mix (join/leave weight 3 each, fail and
    /// recover 1 each, drift 4), drift factors in `[0.5, 2.0)`.
    pub fn new(scenario: TraceScenario) -> Self {
        TraceGenerator {
            scenario,
            num_events: 100,
            mean_interarrival_ms: 250.0,
            weights: [3.0, 3.0, 1.0, 1.0, 4.0],
            drift_factor: (0.5, 2.0),
        }
    }

    /// Number of events to generate.
    pub fn num_events(mut self, n: usize) -> Self {
        self.num_events = n;
        self
    }

    /// Mean exponential inter-arrival time between events, in
    /// milliseconds.
    pub fn mean_interarrival_ms(mut self, mean: f64) -> Self {
        self.mean_interarrival_ms = mean;
        self
    }

    /// Sampling weights per event kind, in [`TraceEvent::KIND_NAMES`]
    /// order (join, leave, fail, recover, drift). A zero weight disables
    /// the kind.
    pub fn weights(mut self, weights: [f64; 5]) -> Self {
        self.weights = weights;
        self
    }

    /// Range of multipliers applied to a link's *original* latency on
    /// drift (relative to the base so latencies never random-walk away).
    pub fn drift_factor(mut self, lo: f64, hi: f64) -> Self {
        self.drift_factor = (lo, hi);
        self
    }

    /// Generates the trace. The result is a pure function of the
    /// generator parameters and `seed` (which is independent of the
    /// scenario seed: one deployment can host many event streams).
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidConfig`] for non-positive
    /// inter-arrival times, negative weights, or an invalid drift range,
    /// and propagates scenario construction failures.
    pub fn generate(&self, seed: u64) -> Result<Trace, WorkloadError> {
        if !self.mean_interarrival_ms.is_finite() || self.mean_interarrival_ms <= 0.0 {
            return Err(WorkloadError::InvalidConfig {
                reason: format!(
                    "mean inter-arrival must be positive, got {}",
                    self.mean_interarrival_ms
                ),
            });
        }
        if self.weights.iter().any(|w| !w.is_finite() || *w < 0.0)
            || self.weights.iter().sum::<f64>() <= 0.0
        {
            return Err(WorkloadError::InvalidConfig {
                reason: format!(
                    "event weights must be non-negative with a positive sum, got {:?}",
                    self.weights
                ),
            });
        }
        let (lo, hi) = self.drift_factor;
        if !(lo.is_finite() && hi.is_finite()) || lo < 0.0 || hi <= lo {
            return Err(WorkloadError::InvalidConfig {
                reason: format!("drift factor range [{lo}, {hi}) is invalid"),
            });
        }

        // The topology fixes the link universe (count + base latencies).
        let deployment = self.scenario.build()?;
        let base_latency: Vec<f64> =
            deployment.topology().graph().links().map(|(_, l)| l.latency_ms()).collect();

        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut active = vec![true; self.scenario.num_iot];
        let mut alive = vec![true; self.scenario.num_servers];
        let mut inactive_count = 0usize;
        let mut failed_count = 0usize;
        let mut time_ms = 0.0f64;
        let mut events = Vec::with_capacity(self.num_events);

        for _ in 0..self.num_events {
            // Exponential inter-arrival via inverse transform; 1 - u is in
            // (0, 1] so ln() is finite.
            let u: f64 = rng.random();
            time_ms += -self.mean_interarrival_ms * (1.0 - u).ln();

            // Weights of the kinds that are feasible in the current state.
            let alive_count = self.scenario.num_servers - failed_count;
            let feasible = [
                (inactive_count > 0) as u8 as f64 * self.weights[0],
                (inactive_count < self.scenario.num_iot) as u8 as f64 * self.weights[1],
                (alive_count > 1) as u8 as f64 * self.weights[2],
                (failed_count > 0) as u8 as f64 * self.weights[3],
                (!base_latency.is_empty()) as u8 as f64 * self.weights[4],
            ];
            let total: f64 = feasible.iter().sum();
            // At least drift (or leave) is always feasible in any scenario
            // with a positive weight; if the user zeroed everything
            // feasible, skip the tick rather than loop forever.
            if total <= 0.0 {
                continue;
            }
            let mut pick = rng.random_range(0.0..total);
            let mut kind = 0usize;
            for (k, &w) in feasible.iter().enumerate() {
                if pick < w {
                    kind = k;
                    break;
                }
                pick -= w;
            }

            let event = match kind {
                0 => {
                    let device = nth_with(&active, |a| !a, rng.random_range(0..inactive_count));
                    active[device] = true;
                    inactive_count -= 1;
                    TraceEvent::DeviceJoin { device }
                }
                1 => {
                    let n_active = self.scenario.num_iot - inactive_count;
                    let device = nth_with(&active, |a| a, rng.random_range(0..n_active));
                    active[device] = false;
                    inactive_count += 1;
                    TraceEvent::DeviceLeave { device }
                }
                2 => {
                    let server = nth_with(&alive, |a| a, rng.random_range(0..alive_count));
                    alive[server] = false;
                    failed_count += 1;
                    TraceEvent::ServerFail { server }
                }
                3 => {
                    let server = nth_with(&alive, |a| !a, rng.random_range(0..failed_count));
                    alive[server] = true;
                    failed_count -= 1;
                    TraceEvent::ServerRecover { server }
                }
                _ => {
                    let link = rng.random_range(0..base_latency.len());
                    let factor = rng.random_range(lo..hi);
                    TraceEvent::LinkLatencyDrift { link, latency_ms: base_latency[link] * factor }
                }
            };
            events.push(TimedEvent { time_ms, event });
        }

        let trace =
            Trace { version: Trace::FORMAT_VERSION, scenario: self.scenario.clone(), events };
        debug_assert!(trace.validate().is_ok());
        Ok(trace)
    }
}

/// Index of the `n`-th element (0-based) satisfying `pred`.
fn nth_with(flags: &[bool], pred: impl Fn(bool) -> bool, n: usize) -> usize {
    flags
        .iter()
        .enumerate()
        .filter(|(_, &f)| pred(f))
        .nth(n)
        .map(|(i, _)| i)
        .expect("candidate count tracked by caller")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> TraceScenario {
        TraceScenario {
            family: TopologyFamily::RandomGeometric,
            num_iot: 20,
            num_servers: 4,
            load_factor: 0.7,
            seed: 7,
        }
    }

    #[test]
    fn generated_traces_validate_and_are_deterministic() {
        let g = TraceGenerator::new(scenario()).num_events(80);
        let a = g.generate(42).unwrap();
        let b = g.generate(42).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.events.len(), 80);
        a.validate().unwrap();
        let c = g.generate(43).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn fingerprint_is_stable_and_discriminates() {
        let g = TraceGenerator::new(scenario()).num_events(40);
        let a = g.generate(42).unwrap();
        assert_eq!(a.fingerprint(), a.fingerprint());
        assert_eq!(a.fingerprint(), Trace::from_json(&a.to_json()).unwrap().fingerprint());
        let b = g.generate(43).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut truncated = a.clone();
        truncated.events.pop();
        assert_ne!(a.fingerprint(), truncated.fingerprint());
    }

    #[test]
    fn generated_events_are_state_consistent() {
        let trace = TraceGenerator::new(scenario()).num_events(200).generate(1).unwrap();
        let mut active = [true; 20];
        let mut alive = [true; 4];
        for timed in &trace.events {
            match timed.event {
                TraceEvent::DeviceJoin { device } => {
                    assert!(!active[device]);
                    active[device] = true;
                }
                TraceEvent::DeviceLeave { device } => {
                    assert!(active[device]);
                    active[device] = false;
                }
                TraceEvent::ServerFail { server } => {
                    assert!(alive[server]);
                    alive[server] = false;
                    assert!(alive.iter().any(|&a| a), "never fails the last server");
                }
                TraceEvent::ServerRecover { server } => {
                    assert!(!alive[server]);
                    alive[server] = true;
                }
                TraceEvent::LinkLatencyDrift { latency_ms, .. } => {
                    assert!(latency_ms.is_finite() && latency_ms >= 0.0);
                }
            }
        }
    }

    #[test]
    fn json_round_trip_preserves_the_trace() {
        let trace = TraceGenerator::new(scenario()).num_events(30).generate(9).unwrap();
        let json = trace.to_json();
        let back = Trace::from_json(&json).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn validation_rejects_structural_errors() {
        let mut trace = TraceGenerator::new(scenario()).num_events(5).generate(3).unwrap();
        trace.version = 99;
        assert!(trace.validate().is_err());

        let mut trace = TraceGenerator::new(scenario()).num_events(5).generate(3).unwrap();
        trace.events[0].time_ms = f64::NAN;
        assert!(trace.validate().is_err());

        let mut trace = TraceGenerator::new(scenario()).num_events(5).generate(3).unwrap();
        if trace.events.len() >= 2 {
            trace.events[1].time_ms = -1.0;
            assert!(trace.validate().is_err());
        }

        let mut trace = TraceGenerator::new(scenario()).num_events(5).generate(3).unwrap();
        trace.events.push(TimedEvent {
            time_ms: f64::MAX,
            event: TraceEvent::DeviceJoin { device: 10_000 },
        });
        assert!(trace.validate().is_err());
    }

    #[test]
    fn invalid_generator_parameters_error() {
        assert!(TraceGenerator::new(scenario()).mean_interarrival_ms(0.0).generate(0).is_err());
        assert!(TraceGenerator::new(scenario())
            .weights([0.0, 0.0, 0.0, 0.0, -1.0])
            .generate(0)
            .is_err());
        assert!(TraceGenerator::new(scenario()).drift_factor(2.0, 1.0).generate(0).is_err());
    }

    #[test]
    fn scenario_build_matches_counts() {
        let s = scenario().build().unwrap();
        assert_eq!(s.instance().num_devices(), 20);
        assert_eq!(s.instance().num_servers(), 4);
    }
}
