//! Adversarial regression tests for the runtime: hand-written traces
//! that fail the last alive server, snapshot/restore under in-flight
//! degradation, and the typed-error contract on every malformed-input
//! path (no panics, ever).

use serde_json::Value;
use tacc_runtime::{DeviceState, Runtime, RuntimeConfig, RuntimeError, RuntimeSnapshot};
use tacc_workload::{TimedEvent, Trace, TraceEvent, TraceScenario};

fn scenario() -> TraceScenario {
    TraceScenario { num_iot: 18, num_servers: 3, ..TraceScenario::default() }
}

fn trace_with(events: Vec<TimedEvent>) -> Trace {
    Trace { version: Trace::FORMAT_VERSION, scenario: scenario(), events }
}

fn at(time_ms: f64, event: TraceEvent) -> TimedEvent {
    TimedEvent { time_ms, event }
}

/// The hand-written schedule the polite generator refuses to emit:
/// every server — including the last one — goes down, holds, heals.
fn total_outage_trace() -> Trace {
    trace_with(vec![
        at(1.0, TraceEvent::ServerFail { server: 0 }),
        at(2.0, TraceEvent::ServerFail { server: 1 }),
        at(3.0, TraceEvent::ServerFail { server: 2 }),
        // Churn against a dead cluster.
        at(4.0, TraceEvent::DeviceLeave { device: 5 }),
        at(5.0, TraceEvent::DeviceJoin { device: 5 }),
        // Heal.
        at(6.0, TraceEvent::ServerRecover { server: 1 }),
        at(7.0, TraceEvent::ServerRecover { server: 0 }),
        at(8.0, TraceEvent::ServerRecover { server: 2 }),
    ])
}

#[test]
fn failing_the_last_alive_server_sheds_everyone_and_recovers() {
    let trace = total_outage_trace();
    let mut rt = Runtime::from_trace(&trace, RuntimeConfig::default()).unwrap();
    let n = rt.cluster().instance().num_devices();

    // Through the outage: never a panic, never an overload, reporting
    // keeps working at every boundary.
    let mut evictions_before_partition = 0;
    for index in 0..3 {
        // Failing servers 0 and 1 is a capacity crunch (sheds are
        // evictions); failing the *last* server is a partition and must
        // not count as one.
        if index == 2 {
            evictions_before_partition = rt.metrics().core.evictions;
        }
        rt.step(index, &trace.events[index]).unwrap();
        assert!(rt.max_overload() <= 1e-9, "no transient overload at event {index}");
        rt.check_invariants(true).unwrap();
        let report = serde_json::to_string(&rt.report_json(false)).unwrap();
        assert!(report.contains("\"unreachable_devices\""), "reporting survives the outage");
    }
    assert_eq!(rt.cluster().active_count(), 0, "no server means no service");
    assert_eq!(rt.unreachable_count(), n, "the whole fleet is unreachable, not shed");
    assert_eq!(
        rt.metrics().core.evictions,
        evictions_before_partition,
        "a partition is not an eviction"
    );

    // Churn against the dead cluster is absorbed.
    rt.step(3, &trace.events[3]).unwrap();
    assert_eq!(rt.device_state(5), DeviceState::Departed);
    rt.step(4, &trace.events[4]).unwrap();
    assert_eq!(rt.device_state(5), DeviceState::Unreachable);
    rt.check_invariants(true).unwrap();

    // Healing re-admits the entire fleet.
    for index in 5..trace.events.len() {
        rt.step(index, &trace.events[index]).unwrap();
    }
    assert_eq!(rt.cluster().active_count(), n, "full re-admission after the outage");
    assert_eq!(rt.unreachable_count(), 0);
    assert!(rt.metrics().core.readmissions >= n as u64);
    rt.check_invariants(true).unwrap();
}

#[test]
fn high_priority_devices_return_first_after_an_outage() {
    let mut priorities = vec![1.0; 18];
    priorities[7] = 10.0;
    let config = RuntimeConfig { priorities, ..RuntimeConfig::default() };
    let trace = trace_with(vec![
        at(1.0, TraceEvent::ServerFail { server: 0 }),
        at(2.0, TraceEvent::ServerFail { server: 1 }),
        at(3.0, TraceEvent::ServerFail { server: 2 }),
        // Heal only one server: capacity for some, not all. The
        // high-priority device must be among the first back.
        at(4.0, TraceEvent::ServerRecover { server: 0 }),
    ]);
    let mut rt = Runtime::from_trace(&trace, config).unwrap();
    rt.run(&trace).unwrap();
    if rt.cluster().active_count() > 0 {
        assert!(
            rt.cluster().is_active(7),
            "priority 10 device re-admitted before priority 1 peers"
        );
    }
    rt.check_invariants(true).unwrap();
}

#[test]
fn snapshot_restore_preserves_in_flight_degradation_byte_identically() {
    // Fail two servers (sheds for capacity), then all (unreachable), and
    // snapshot mid-degradation: both sets must restore byte-identically.
    let trace = total_outage_trace();
    let config = RuntimeConfig::default();
    let mut rt = Runtime::from_trace(&trace, config).unwrap();
    for index in 0..4 {
        rt.step(index, &trace.events[index]).unwrap();
    }
    assert!(rt.unreachable_count() > 0, "the snapshot captures live degradation");

    let snapshot = rt.snapshot();
    let json = snapshot.to_json();
    let parsed = RuntimeSnapshot::from_json(&json).unwrap();
    assert_eq!(parsed, snapshot, "snapshot survives its own JSON bit-for-bit");
    assert_eq!(parsed.to_json(), json, "and re-serializes byte-identically");

    let restored = Runtime::restore(parsed, &trace).unwrap();
    let n = rt.cluster().instance().num_devices();
    for d in 0..n {
        assert_eq!(restored.device_state(d), rt.device_state(d), "device {d} state restored");
        assert_eq!(restored.is_unreachable(d), rt.is_unreachable(d));
        assert_eq!(restored.is_wanted(d), rt.is_wanted(d));
    }
    restored.check_invariants(true).unwrap();

    // Finishing from the restore point matches the uninterrupted run.
    let mut whole = Runtime::from_trace(&trace, RuntimeConfig::default()).unwrap();
    whole.run(&trace).unwrap();
    let mut resumed = restored;
    resumed.run(&trace).unwrap();
    assert_eq!(whole.snapshot(), resumed.snapshot());
    // The snapshot stores tree parents: compare distances and costs too.
    assert_eq!(format!("{:?}", whole.maintainer()), format!("{:?}", resumed.maintainer()));
    assert_eq!(
        serde_json::to_string(&whole.report_json(false)).unwrap(),
        serde_json::to_string(&resumed.report_json(false)).unwrap()
    );
}

// --- Typed-error contract: malformed inputs never panic. -----------------

#[test]
fn malformed_snapshot_json_is_a_typed_error() {
    let err = RuntimeSnapshot::from_json("{\"version\": ").unwrap_err();
    assert!(matches!(err, RuntimeError::InvalidSnapshot { .. }), "got {err:?}");
    assert!(err.to_string().contains("malformed JSON"));
}

#[test]
fn old_snapshot_version_is_diagnosed_by_version_not_shape() {
    let err = RuntimeSnapshot::from_json("{\"version\": 1}").unwrap_err();
    let RuntimeError::InvalidSnapshot { reason } = &err else { panic!("got {err:?}") };
    assert!(reason.contains("version 1"), "got: {reason}");
    assert!(!reason.contains("missing field"), "version check fires before shape: {reason}");
}

#[test]
fn malformed_trace_json_is_a_typed_error() {
    let err = Trace::from_json("not json at all").unwrap_err();
    assert!(err.to_string().contains("trace JSON"));
    // A structurally complete trace with an unknown format version is
    // rejected by the version check, not a panic.
    let mut future = total_outage_trace();
    future.version = 99;
    let err = Trace::from_json(&future.to_json()).unwrap_err();
    assert!(err.to_string().contains("version 99"), "got: {err}");
}

#[test]
fn snapshot_against_the_wrong_trace_is_a_typed_error() {
    let trace = total_outage_trace();
    let mut rt = Runtime::from_trace(&trace, RuntimeConfig::default()).unwrap();
    rt.run(&trace).unwrap();
    let snapshot = rt.snapshot();

    let other = Trace {
        version: Trace::FORMAT_VERSION,
        scenario: TraceScenario { seed: 77, ..scenario() },
        events: Vec::new(),
    };
    let err = Runtime::restore(snapshot, &other).unwrap_err();
    let RuntimeError::InvalidSnapshot { reason } = &err else { panic!("got {err:?}") };
    assert!(reason.contains("scenario does not match"), "got: {reason}");
}

#[test]
fn snapshot_cursor_past_the_trace_is_a_typed_error() {
    let trace = total_outage_trace();
    let mut rt = Runtime::from_trace(&trace, RuntimeConfig::default()).unwrap();
    rt.run(&trace).unwrap();
    let snapshot = rt.snapshot();

    let mut truncated = trace.clone();
    truncated.events.truncate(2);
    let err = Runtime::restore(snapshot, &truncated).unwrap_err();
    let RuntimeError::InvalidSnapshot { reason } = &err else { panic!("got {err:?}") };
    assert!(reason.contains("cursor"), "got: {reason}");
}

/// One member of a JSON object, for editing in place.
fn member<'a>(value: &'a mut Value, key: &str) -> &'a mut Value {
    let Value::Object(fields) = value else { panic!("`{key}` sits in an object") };
    &mut fields.iter_mut().find(|(k, _)| k == key).expect("member present").1
}

/// A snapshot's first shortest-path tree.
fn first_tree(value: &mut Value) -> &mut Value {
    let Value::Array(trees) = member(member(value, "maintainer"), "trees") else {
        panic!("maintainer.trees is an array")
    };
    &mut trees[0]
}

/// The parent links of a snapshot's first shortest-path tree.
fn first_tree_parents(value: &mut Value) -> &mut Vec<Value> {
    let Value::Array(parents) = member(first_tree(value), "parent_link") else {
        panic!("parent_link is an array")
    };
    parents
}

/// Restore rebuilds the delay maintainer from the snapshot's parent
/// trees and reads the cluster's delays out of it, so a snapshot that no
/// quarantine saw gets a typed error, not a panic, when a tree does not
/// fit the topology, grows from a node outside it, hangs a node off a
/// link that does not exist, or the topology's nodes are not the
/// scenario's.
#[test]
fn restore_refuses_trees_it_cannot_read() {
    let trace = total_outage_trace();
    let mut rt = Runtime::from_trace(&trace, RuntimeConfig::default()).unwrap();
    for index in 0..2 {
        rt.step(index, &trace.events[index]).unwrap();
    }
    let snapshot: Value = serde_json::from_str(&rt.snapshot().to_json()).unwrap();
    let restore = |edit: &dyn Fn(&mut Value)| {
        let mut value = snapshot.clone();
        edit(&mut value);
        Runtime::restore(serde_json::from_value(&value).unwrap(), &trace).unwrap_err()
    };
    let mut probe = snapshot.clone();
    let Value::Array(iot) = member(member(&mut probe, "topology"), "iot") else {
        panic!("topology.iot is an array")
    };
    let &Value::UInt(device_node) = &iot[0] else { panic!("node ids are unsigned") };
    let device_node = usize::try_from(device_node).unwrap();

    let err = restore(&|value| {
        first_tree_parents(value).pop();
    });
    let RuntimeError::InvalidSnapshot { reason } = &err else { panic!("got {err:?}") };
    assert!(reason.contains("maintainer tree parent links has length"), "got: {reason}");

    let err = restore(&|value| *member(first_tree(value), "source") = Value::UInt(1_000_000));
    let RuntimeError::InvalidSnapshot { reason } = &err else { panic!("got {err:?}") };
    assert!(reason.contains("maintainer tree 0 is rooted at node 1000000"), "got: {reason}");

    let err = restore(&|value| first_tree_parents(value)[device_node] = Value::UInt(1_000_000));
    let RuntimeError::InvalidSnapshot { reason } = &err else { panic!("got {err:?}") };
    let foreign =
        format!("maintainer tree 0: node {device_node} hangs off link 1000000, which is not");
    assert!(reason.contains(&foreign), "got: {reason}");

    let err = restore(&|value| {
        let Value::Array(iot) = member(member(value, "topology"), "iot") else {
            panic!("topology.iot is an array")
        };
        iot[0] = Value::UInt(1_000_000);
    });
    let RuntimeError::InvalidSnapshot { reason } = &err else { panic!("got {err:?}") };
    assert!(reason.contains("topology does not match"), "got: {reason}");
}

#[test]
fn invariant_violations_are_typed_not_panics() {
    // Hand-corrupt a snapshot's unreachable set so the restored runtime
    // fails conservation — check_invariants must return the typed error.
    let trace = total_outage_trace();
    let mut rt = Runtime::from_trace(&trace, RuntimeConfig::default()).unwrap();
    for index in 0..3 {
        rt.step(index, &trace.events[index]).unwrap();
    }
    let mut snapshot = rt.snapshot();
    snapshot.unreachable[0] = false; // device 0 is in fact unreachable
    let corrupted = Runtime::restore(snapshot, &trace).unwrap();
    let err = corrupted.check_invariants(false).unwrap_err();
    let RuntimeError::Invariant { reason, .. } = &err else { panic!("got {err:?}") };
    assert!(reason.contains("unreachable flag"), "got: {reason}");
}
