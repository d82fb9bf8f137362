//! Input quarantine: one typed validation pass over everything the
//! control plane loads from outside — traces, topologies, snapshots.
//!
//! Construction-time validation (builders, `Trace::validate`) already
//! rejects most garbage, but serde-derived deserialization bypasses every
//! builder: a crafted snapshot can carry NaN link latencies, dangling
//! node references, or an assignment pointing at servers that do not
//! exist, and nothing notices until an index panic deep in the runtime.
//! The quarantine closes that hole: every load path calls one of the
//! `validate_*` functions here and gates on the resulting
//! [`QuarantineReport`] *before* the data reaches solver or runtime code.
//!
//! Issues come in two severities: **hard** violations (NaN/negative
//! latencies, capacity ≤ 0, dangling references, non-monotone
//! timestamps…) always reject; **advisory** findings (empty traces,
//! overcommitted load factors) only reject under `--strict-inputs`.

use std::collections::hash_map::{Entry, HashMap};
use std::fmt;

use serde::Serialize;
use tacc_gap::GapInstance;
use tacc_runtime::RuntimeSnapshot;
use tacc_topology::Graph;
use tacc_workload::{event_faults, EventFault, Trace, TraceScenario};

use crate::error::GuardError;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Severity {
    /// Always rejected: using the input would violate a runtime invariant.
    Hard,
    /// Suspicious but usable; rejected only under strict gating.
    Advisory,
}

/// One typed validation finding.
#[derive(Debug, Clone, PartialEq, Serialize)]
#[non_exhaustive]
pub enum ValidationIssue {
    /// Format version is not the one this build writes.
    BadVersion {
        /// Version found in the input.
        found: u32,
        /// Version this build expects.
        expected: u32,
    },
    /// A latency is NaN or infinite.
    NonFiniteLatency {
        /// Where the value sits (link index, event index…).
        location: String,
        /// The offending value.
        value: f64,
    },
    /// A latency is negative.
    NegativeLatency {
        /// Where the value sits.
        location: String,
        /// The offending value.
        value: f64,
    },
    /// A link bandwidth is non-positive or non-finite.
    NonPositiveBandwidth {
        /// Link insertion index.
        link: usize,
        /// The offending value.
        value: f64,
    },
    /// Two links join the same unordered node pair.
    DuplicateEdge {
        /// One endpoint.
        a: usize,
        /// The other endpoint.
        b: usize,
        /// Insertion index of the first occurrence.
        first_link: usize,
        /// Insertion index of the duplicate.
        duplicate_link: usize,
    },
    /// A link endpoint references a node that does not exist.
    DanglingNodeRef {
        /// Link insertion index.
        link: usize,
        /// The out-of-range node index.
        node: usize,
        /// Number of nodes in the graph.
        node_count: usize,
    },
    /// A link joins a node to itself.
    SelfLoop {
        /// Link insertion index.
        link: usize,
        /// The node.
        node: usize,
    },
    /// A capacity-bearing quantity (server capacity, load factor) is
    /// non-positive or non-finite.
    NonPositiveCapacity {
        /// Where the value sits.
        location: String,
        /// The offending value.
        value: f64,
    },
    /// Trace timestamps go backwards.
    NonMonotoneTimestamps {
        /// Event index at which time regressed.
        index: usize,
        /// The previous timestamp.
        prev_ms: f64,
        /// The regressing timestamp.
        time_ms: f64,
    },
    /// A trace timestamp is NaN or infinite.
    NonFiniteTimestamp {
        /// Event index.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// An entity index is out of range for its scenario.
    IndexOutOfRange {
        /// Event or record index.
        index: usize,
        /// What kind of entity ("device", "server"…).
        what: &'static str,
        /// The offending index value.
        value: usize,
        /// The exclusive upper bound.
        limit: usize,
    },
    /// Two containers that must agree in length do not.
    LengthMismatch {
        /// What was being matched ("assignment", "wanted"…).
        what: &'static str,
        /// Length found.
        found: usize,
        /// Length expected.
        expected: usize,
    },
    /// A snapshot's shortest-path tree is not rooted at its server's node.
    MisrootedTree {
        /// The server whose tree it is.
        server: usize,
        /// The node the tree grows from.
        found: usize,
        /// The server's node in the topology.
        expected: usize,
    },
    /// A snapshot's shortest-path tree holds a distance no tree can: NaN
    /// or negative anywhere, or other than 0 at its root.
    BadTreeDistance {
        /// The server whose tree it is.
        server: usize,
        /// The node holding the distance.
        node: usize,
        /// The offending distance.
        value: f64,
    },
    /// A per-device priority is non-positive or non-finite.
    BadPriority {
        /// Device index.
        device: usize,
        /// The offending value.
        value: f64,
    },
    /// The scenario declares zero devices or zero servers.
    EmptyScenario {
        /// Which count is zero.
        what: &'static str,
    },
    /// The trace carries no events (advisory).
    EmptyTrace,
    /// The load factor exceeds 1: the system is overcommitted by
    /// construction (advisory).
    Overcommitted {
        /// The declared load factor.
        load_factor: f64,
    },
}

impl ValidationIssue {
    /// This finding's severity.
    #[must_use]
    pub fn severity(&self) -> Severity {
        match self {
            ValidationIssue::EmptyTrace | ValidationIssue::Overcommitted { .. } => {
                Severity::Advisory
            }
            _ => Severity::Hard,
        }
    }
}

impl fmt::Display for ValidationIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationIssue::BadVersion { found, expected } => {
                write!(f, "format version {found}, expected {expected}")
            }
            ValidationIssue::NonFiniteLatency { location, value } => {
                write!(f, "non-finite latency {value} at {location}")
            }
            ValidationIssue::NegativeLatency { location, value } => {
                write!(f, "negative latency {value} at {location}")
            }
            ValidationIssue::NonPositiveBandwidth { link, value } => {
                write!(f, "non-positive bandwidth {value} on link {link}")
            }
            ValidationIssue::DuplicateEdge { a, b, first_link, duplicate_link } => {
                write!(f, "links {first_link} and {duplicate_link} both join nodes {a} and {b}")
            }
            ValidationIssue::DanglingNodeRef { link, node, node_count } => {
                write!(f, "link {link} references node {node} of {node_count}")
            }
            ValidationIssue::SelfLoop { link, node } => {
                write!(f, "link {link} joins node {node} to itself")
            }
            ValidationIssue::NonPositiveCapacity { location, value } => {
                write!(f, "non-positive capacity {value} at {location}")
            }
            ValidationIssue::NonMonotoneTimestamps { index, prev_ms, time_ms } => {
                write!(f, "event {index} goes back in time ({prev_ms} → {time_ms} ms)")
            }
            ValidationIssue::NonFiniteTimestamp { index, value } => {
                write!(f, "event {index} has non-finite timestamp {value}")
            }
            ValidationIssue::IndexOutOfRange { index, what, value, limit } => {
                write!(f, "record {index}: {what} index {value} out of range (< {limit})")
            }
            ValidationIssue::LengthMismatch { what, found, expected } => {
                write!(f, "{what} has length {found}, expected {expected}")
            }
            ValidationIssue::MisrootedTree { server, found, expected } => {
                write!(
                    f,
                    "maintainer tree {server} is rooted at node {found}, expected node {expected}"
                )
            }
            ValidationIssue::BadTreeDistance { server, node, value } => {
                write!(f, "maintainer tree {server} holds distance {value} at node {node}")
            }
            ValidationIssue::BadPriority { device, value } => {
                write!(f, "device {device} has bad priority {value}")
            }
            ValidationIssue::EmptyScenario { what } => write!(f, "scenario declares zero {what}"),
            ValidationIssue::EmptyTrace => write!(f, "trace carries no events"),
            ValidationIssue::Overcommitted { load_factor } => {
                write!(f, "load factor {load_factor} overcommits the cluster")
            }
        }
    }
}

/// The outcome of one quarantine pass.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct QuarantineReport {
    /// What was validated ("trace", "topology", "snapshot", "instance").
    pub subject: String,
    /// Every finding, in discovery order.
    pub issues: Vec<ValidationIssue>,
}

impl QuarantineReport {
    fn new(subject: &str) -> Self {
        QuarantineReport { subject: subject.to_string(), issues: Vec::new() }
    }

    /// No findings at all.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }

    /// Number of hard violations.
    #[must_use]
    pub fn hard_count(&self) -> usize {
        self.issues.iter().filter(|i| i.severity() == Severity::Hard).count()
    }

    /// Number of advisory findings.
    #[must_use]
    pub fn advisory_count(&self) -> usize {
        self.issues.len() - self.hard_count()
    }

    /// One line per finding, semicolon-joined.
    #[must_use]
    pub fn summary(&self) -> String {
        self.issues.iter().map(ToString::to_string).collect::<Vec<_>>().join("; ")
    }

    /// Gates on the report: hard violations always reject; under
    /// `strict`, advisory findings reject too.
    ///
    /// # Errors
    ///
    /// [`GuardError::Quarantined`] carrying this report.
    pub fn gate(&self, strict: bool) -> Result<(), GuardError> {
        let reject = if strict { !self.issues.is_empty() } else { self.hard_count() > 0 };
        if reject {
            tacc_obs::counter_add("guard.quarantined", 1);
            Err(GuardError::Quarantined(self.clone()))
        } else {
            Ok(())
        }
    }
}

/// Validates a topology graph: link latencies finite and non-negative,
/// bandwidths positive, no dangling endpoints, self-loops, or duplicate
/// edges. Serde-restored graphs bypass [`Graph::add_link`]'s checks, so
/// every snapshot-carried topology goes through here.
#[must_use]
pub fn validate_graph(graph: &Graph) -> QuarantineReport {
    let mut report = QuarantineReport::new("topology");
    let nodes = graph.node_count();
    // First link index per unordered endpoint pair.
    let mut seen: HashMap<(usize, usize), usize> = HashMap::with_capacity(graph.link_count());
    for (id, link) in graph.links() {
        let idx = id.index();
        let (a, b) = (link.a().index(), link.b().index());
        for node in [a, b] {
            if node >= nodes {
                report.issues.push(ValidationIssue::DanglingNodeRef {
                    link: idx,
                    node,
                    node_count: nodes,
                });
            }
        }
        if a == b {
            report.issues.push(ValidationIssue::SelfLoop { link: idx, node: a });
        }
        let latency = link.latency_ms();
        if !latency.is_finite() {
            report.issues.push(ValidationIssue::NonFiniteLatency {
                location: format!("link {idx}"),
                value: latency,
            });
        } else if latency < 0.0 {
            report.issues.push(ValidationIssue::NegativeLatency {
                location: format!("link {idx}"),
                value: latency,
            });
        }
        let bandwidth = link.bandwidth_mbps();
        if !bandwidth.is_finite() || bandwidth <= 0.0 {
            report
                .issues
                .push(ValidationIssue::NonPositiveBandwidth { link: idx, value: bandwidth });
        }
        match seen.entry((a.min(b), a.max(b))) {
            Entry::Occupied(first) => report.issues.push(ValidationIssue::DuplicateEdge {
                a,
                b,
                first_link: *first.get(),
                duplicate_link: idx,
            }),
            Entry::Vacant(slot) => {
                slot.insert(idx);
            }
        }
    }
    report
}

/// Scenario-level checks shared by trace and snapshot validation.
fn check_scenario(scenario: &TraceScenario, report: &mut QuarantineReport) {
    if scenario.num_iot == 0 {
        report.issues.push(ValidationIssue::EmptyScenario { what: "devices" });
    }
    if scenario.num_servers == 0 {
        report.issues.push(ValidationIssue::EmptyScenario { what: "servers" });
    }
    // Server capacities are derived from the load factor: a non-positive
    // or non-finite factor yields capacity ≤ 0 downstream.
    if !scenario.load_factor.is_finite() || scenario.load_factor <= 0.0 {
        report.issues.push(ValidationIssue::NonPositiveCapacity {
            location: "scenario load factor".to_string(),
            value: scenario.load_factor,
        });
    } else if scenario.load_factor > 1.0 {
        report.issues.push(ValidationIssue::Overcommitted { load_factor: scenario.load_factor });
    }
}

/// Validates a trace: version, scenario sanity, and the per-event rules
/// of [`tacc_workload::event_faults`] as typed findings. Subsumes
/// `Trace::validate` with every finding instead of a first-error-wins
/// result, and adds the advisory checks.
#[must_use]
pub fn validate_trace(trace: &Trace) -> QuarantineReport {
    let mut report = QuarantineReport::new("trace");
    if trace.version != Trace::FORMAT_VERSION {
        report.issues.push(ValidationIssue::BadVersion {
            found: trace.version,
            expected: Trace::FORMAT_VERSION,
        });
    }
    check_scenario(&trace.scenario, &mut report);
    if trace.events.is_empty() {
        report.issues.push(ValidationIssue::EmptyTrace);
    }
    report.issues.extend(event_faults(&trace.scenario, 0.0, &trace.events).into_iter().map(
        |fault| match fault {
            EventFault::NonFiniteTime { index, time_ms } => {
                ValidationIssue::NonFiniteTimestamp { index, value: time_ms }
            }
            EventFault::TimeGoesBackwards { index, prev_ms, time_ms } => {
                ValidationIssue::NonMonotoneTimestamps { index, prev_ms, time_ms }
            }
            EventFault::IndexOutOfRange { index, what, value, limit } => {
                ValidationIssue::IndexOutOfRange { index, what, value, limit }
            }
            EventFault::BadDriftLatency { index, latency_ms } if latency_ms.is_finite() => {
                ValidationIssue::NegativeLatency {
                    location: format!("event {index}"),
                    value: latency_ms,
                }
            }
            EventFault::BadDriftLatency { index, latency_ms } => {
                ValidationIssue::NonFiniteLatency {
                    location: format!("event {index}"),
                    value: latency_ms,
                }
            }
        },
    ));
    report
}

/// Validates a restored runtime snapshot: version, the carried topology
/// (serde bypasses all builder checks), per-device vector lengths against
/// the topology, assignment server indices, config priorities, and the
/// delay maintainer's own state: its arrays' shape
/// ([`tacc_runtime::DelayMaintainer::shape_mismatches`]), each tree's
/// source ([`tacc_runtime::DelayMaintainer::misrooted_trees`]) and its
/// distances ([`tacc_runtime::DelayMaintainer::bad_tree_distances`]).
/// The snapshot carries no delay matrix; the restore reads it out of the
/// trees this checks.
#[must_use]
pub fn validate_snapshot(snapshot: &RuntimeSnapshot) -> QuarantineReport {
    let mut report = QuarantineReport::new("snapshot");
    if snapshot.version != RuntimeSnapshot::FORMAT_VERSION {
        report.issues.push(ValidationIssue::BadVersion {
            found: snapshot.version,
            expected: RuntimeSnapshot::FORMAT_VERSION,
        });
    }
    let graph_report = validate_graph(snapshot.topology.graph());
    report.issues.extend(graph_report.issues);
    if let Some(scenario) = &snapshot.scenario {
        check_scenario(scenario, &mut report);
    }

    let num_iot = snapshot.topology.num_iot();
    let num_servers = snapshot.topology.num_servers();
    if snapshot.assignment.num_devices() != num_iot {
        report.issues.push(ValidationIssue::LengthMismatch {
            what: "assignment",
            found: snapshot.assignment.num_devices(),
            expected: num_iot,
        });
    }
    if snapshot.assignment.num_servers() != num_servers {
        report.issues.push(ValidationIssue::LengthMismatch {
            what: "assignment servers",
            found: snapshot.assignment.num_servers(),
            expected: num_servers,
        });
    }
    for (device, server) in snapshot.assignment.iter_assigned() {
        if server >= num_servers {
            report.issues.push(ValidationIssue::IndexOutOfRange {
                index: device,
                what: "assigned server",
                value: server,
                limit: num_servers,
            });
        }
    }
    if snapshot.wanted.len() != num_iot {
        report.issues.push(ValidationIssue::LengthMismatch {
            what: "wanted",
            found: snapshot.wanted.len(),
            expected: num_iot,
        });
    }
    if snapshot.unreachable.len() != num_iot {
        report.issues.push(ValidationIssue::LengthMismatch {
            what: "unreachable",
            found: snapshot.unreachable.len(),
            expected: num_iot,
        });
    }
    if !snapshot.config.priorities.is_empty() && snapshot.config.priorities.len() != num_iot {
        report.issues.push(ValidationIssue::LengthMismatch {
            what: "priorities",
            found: snapshot.config.priorities.len(),
            expected: num_iot,
        });
    }
    for (device, &p) in snapshot.config.priorities.iter().enumerate() {
        if !p.is_finite() || p <= 0.0 {
            report.issues.push(ValidationIssue::BadPriority { device, value: p });
        }
    }
    for (what, found, expected) in snapshot.maintainer.shape_mismatches(&snapshot.topology) {
        report.issues.push(ValidationIssue::LengthMismatch { what, found, expected });
    }
    for (server, found, expected) in snapshot.maintainer.misrooted_trees(&snapshot.topology) {
        let (found, expected) = (found.index(), expected.index());
        report.issues.push(ValidationIssue::MisrootedTree { server, found, expected });
    }
    for (server, node, value) in snapshot.maintainer.bad_tree_distances() {
        report.issues.push(ValidationIssue::BadTreeDistance { server, node, value });
    }
    report
}

/// Validates an assignment-problem instance: delays non-NaN and
/// non-negative, demands and capacities positive and finite. The builder
/// already enforces this; the pass exists for instances that arrive by
/// other roads (deserialization, FFI, tests).
#[must_use]
pub fn validate_instance(instance: &GapInstance) -> QuarantineReport {
    let mut report = QuarantineReport::new("instance");
    let (n, m) = (instance.num_devices(), instance.num_servers());
    for j in 0..m {
        let c = instance.capacity(j);
        if !c.is_finite() || c <= 0.0 {
            report.issues.push(ValidationIssue::NonPositiveCapacity {
                location: format!("server {j}"),
                value: c,
            });
        }
    }
    for i in 0..n {
        for j in 0..m {
            let d = instance.delay(i, j);
            if d.is_nan() {
                report.issues.push(ValidationIssue::NonFiniteLatency {
                    location: format!("delay[{i}][{j}]"),
                    value: d,
                });
            } else if d < 0.0 {
                report.issues.push(ValidationIssue::NegativeLatency {
                    location: format!("delay[{i}][{j}]"),
                    value: d,
                });
            }
            let w = instance.demand(i, j);
            if !w.is_finite() || w <= 0.0 {
                report.issues.push(ValidationIssue::NonPositiveCapacity {
                    location: format!("demand[{i}][{j}]"),
                    value: w,
                });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacc_topology::NodeKind;
    use tacc_workload::{TimedEvent, TraceEvent};

    fn tiny_trace() -> Trace {
        let scenario = TraceScenario { num_iot: 4, num_servers: 2, ..TraceScenario::default() };
        Trace {
            version: Trace::FORMAT_VERSION,
            scenario,
            events: vec![
                TimedEvent { time_ms: 1.0, event: TraceEvent::DeviceLeave { device: 0 } },
                TimedEvent { time_ms: 2.0, event: TraceEvent::DeviceJoin { device: 0 } },
            ],
        }
    }

    #[test]
    fn clean_trace_passes() {
        let report = validate_trace(&tiny_trace());
        assert!(report.is_clean(), "{}", report.summary());
        assert!(report.gate(true).is_ok());
    }

    #[test]
    fn backwards_time_and_bad_indices_are_hard() {
        let mut trace = tiny_trace();
        trace.events[1].time_ms = 0.5;
        trace.events.push(TimedEvent { time_ms: 3.0, event: TraceEvent::ServerFail { server: 9 } });
        let report = validate_trace(&trace);
        assert_eq!(report.hard_count(), 2);
        assert!(report.gate(false).is_err());
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, ValidationIssue::NonMonotoneTimestamps { index: 1, .. })));
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, ValidationIssue::IndexOutOfRange { value: 9, .. })));
    }

    #[test]
    fn negative_and_nan_drift_latencies_are_hard() {
        let mut trace = tiny_trace();
        trace.events.push(TimedEvent {
            time_ms: 3.0,
            event: TraceEvent::LinkLatencyDrift { link: 0, latency_ms: -2.0 },
        });
        trace.events.push(TimedEvent {
            time_ms: 4.0,
            event: TraceEvent::LinkLatencyDrift { link: 0, latency_ms: f64::NAN },
        });
        let report = validate_trace(&trace);
        assert_eq!(report.hard_count(), 2);
    }

    #[test]
    fn empty_trace_is_advisory_only() {
        let mut trace = tiny_trace();
        trace.events.clear();
        let report = validate_trace(&trace);
        assert_eq!(report.hard_count(), 0);
        assert_eq!(report.advisory_count(), 1);
        assert!(report.gate(false).is_ok(), "lenient gating lets advisories through");
        assert!(report.gate(true).is_err(), "strict gating rejects advisories");
    }

    #[test]
    fn bad_load_factor_is_a_capacity_violation() {
        let mut trace = tiny_trace();
        trace.scenario.load_factor = 0.0;
        assert_eq!(validate_trace(&trace).hard_count(), 1);
        trace.scenario.load_factor = f64::NAN;
        assert_eq!(validate_trace(&trace).hard_count(), 1);
        trace.scenario.load_factor = 1.4;
        let report = validate_trace(&trace);
        assert_eq!(report.hard_count(), 0);
        assert_eq!(report.advisory_count(), 1);
    }

    #[test]
    fn graph_validation_catches_structure_and_values() {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::IotDevice);
        let b = g.add_node(NodeKind::EdgeServer);
        let c = g.add_node(NodeKind::Router);
        g.add_link(a, b, 1.0, 100.0).unwrap();
        g.add_link(b, c, 2.0, 100.0).unwrap();
        assert!(validate_graph(&g).is_clean());
        // A duplicate of (a, b) — legal through the builder, flagged here.
        g.add_link(b, a, 3.0, 100.0).unwrap();
        let report = validate_graph(&g);
        assert_eq!(report.hard_count(), 1);
        assert!(matches!(report.issues[0], ValidationIssue::DuplicateEdge { .. }));
    }

    #[test]
    fn instance_validation_is_a_no_op_on_builder_output() {
        use tacc_topology::DelayMatrix;
        let inst = GapInstance::builder(DelayMatrix::from_rows(vec![vec![1.0, 2.0]]))
            .uniform_demand(1.0)
            .uniform_capacity(1.0)
            .build()
            .unwrap();
        assert!(validate_instance(&inst).is_clean());
    }

    #[test]
    fn quarantined_error_carries_the_report() {
        let mut trace = tiny_trace();
        trace.events[0].time_ms = f64::INFINITY;
        let err = validate_trace(&trace).gate(false).unwrap_err();
        match err {
            GuardError::Quarantined(report) => {
                assert_eq!(report.subject, "trace");
                assert_eq!(report.hard_count(), 1);
            }
            other => panic!("expected Quarantined, got {other:?}"),
        }
    }
}
