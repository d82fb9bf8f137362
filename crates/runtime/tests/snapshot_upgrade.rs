//! Version-2 snapshots written while the delay maintainer still
//! serialized its own copy of the delay matrix (a `maintainer.matrix`
//! member), its base and effective link costs, its per-link disable
//! counts and every tree's distances restore to the same runtime; a
//! version-3 snapshot stores none of these. The fixtures come from `tacc run-trace` at such a
//! revision:
//!
//! - `upgrade-trace.json`: `gen-trace --devices 24 --servers 4 --events
//!   80 --seed 2`;
//! - `upgrade-snapshot.json`: its `--stop-after 40 --snapshot-out`
//!   restore point, taken with servers 1 and 3 failed;
//! - `upgrade-report.json`: the uninterrupted run's report.

use serde_json::Value;
use tacc_runtime::{Runtime, RuntimeSnapshot};
use tacc_topology::DelayMatrix;
use tacc_workload::Trace;

const TRACE: &str = include_str!("fixtures/upgrade-trace.json");
const SNAPSHOT: &str = include_str!("fixtures/upgrade-snapshot.json");
const REPORT: &str = include_str!("fixtures/upgrade-report.json");

/// One member of a JSON object.
fn member<'a>(value: &'a mut Value, key: &str) -> &'a mut Value {
    let Value::Object(fields) = value else { panic!("`{key}` sits in an object") };
    &mut fields.iter_mut().find(|(k, _)| k == key).expect("member present").1
}

fn restored() -> Runtime {
    let trace = Trace::from_json(TRACE).expect("fixture trace parses");
    let snapshot = RuntimeSnapshot::from_json(SNAPSHOT).expect("fixture snapshot parses");
    Runtime::restore(snapshot, &trace).expect("fixture snapshot restores")
}

#[test]
fn a_snapshot_carrying_the_matrix_restores_to_its_matrix() {
    let mut value: Value = serde_json::from_str(SNAPSHOT).unwrap();
    let stored: DelayMatrix =
        serde_json::from_value(member(member(&mut value, "maintainer"), "matrix")).unwrap();
    let runtime = restored();
    let read_out = runtime.cluster().instance().delays();
    assert_eq!(read_out, &stored);
    let bits = |m: &DelayMatrix| m.iter().map(f64::to_bits).collect::<Vec<u64>>();
    assert_eq!(bits(read_out), bits(&stored));
}

#[test]
fn a_snapshot_carrying_the_matrix_finishes_with_the_uninterrupted_report() {
    let trace = Trace::from_json(TRACE).unwrap();
    let mut runtime = restored();
    runtime.run(&trace).unwrap();
    let report = serde_json::to_string_pretty(&runtime.report_json(false)).unwrap();
    assert_eq!(report, REPORT.trim_end());
}

#[test]
fn a_snapshot_carrying_the_matrix_re_serializes_without_it() {
    let mut value: Value = serde_json::from_str(SNAPSHOT).unwrap();
    assert_eq!(serde_json::to_string(&value).unwrap(), SNAPSHOT, "the JSON tree is exact");
    // Version 3 drops the derived members and nothing else: the disable
    // counts follow from the failed servers.
    *member(&mut value, "version") = Value::UInt(3);
    let Value::Object(maintainer) = member(&mut value, "maintainer") else {
        panic!("the maintainer is an object")
    };
    let derived = ["matrix", "base_costs", "costs", "disabled"];
    maintainer.retain(|(key, _)| !derived.contains(&key.as_str()));
    let Value::Array(trees) = member(member(&mut value, "maintainer"), "trees") else {
        panic!("the trees are an array")
    };
    for tree in trees {
        let Value::Object(members) = tree else { panic!("a tree is an object") };
        members.retain(|(key, _)| key != "dist");
    }
    assert_eq!(restored().snapshot().to_json(), serde_json::to_string(&value).unwrap());
}
