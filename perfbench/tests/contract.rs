//! The benchmark's own checks. Every workload, run in smoke mode with
//! and without tracing, must print a result line whose metrics are
//! exactly the ones `BENCHMARK.json` declares, in order and with their
//! units, so a change that renames or drops a metric fails here instead
//! of silently leaving a gap in the record. Every smoke run must also
//! pass the correctness gate.

use std::path::Path;
use std::process::{Command, Output};

use serde_json::Value;

fn field<'v>(value: &'v Value, key: &str) -> &'v Value {
    value.get(key).unwrap_or_else(|| panic!("missing `{key}` in {value:?}"))
}

fn text(value: &Value) -> &str {
    match value {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

/// The `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    let Value::Array(metrics) = field(&doc, list) else { panic!("`{list}` is not a list") };
    metrics
        .iter()
        .map(|m| (text(field(m, "name")).to_owned(), text(field(m, "unit")).to_owned()))
        .collect()
}

fn perfbench(args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .envs(env.iter().copied())
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("perfbench runs")
}

const WORKLOADS: [&str; 3] = ["ingest", "zoned-solve", "failover"];

/// Runs one workload in smoke mode and parses its result line, which is
/// printed whether or not the gate passed.
fn smoke(workload: &str, trace: &str) -> (Output, Value) {
    let args =
        ["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", trace, "--smoke"];
    let out = perfbench(&args, &[]);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!(
            "{workload} --trace {trace} printed nothing:\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    let result = serde_json::from_str(last).expect("the last line is JSON");
    (out, result)
}

#[test]
fn every_workload_emits_every_declared_metric() {
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = declared(list);
        for workload in WORKLOADS {
            let (_, result) = smoke(workload, trace);
            let Value::Object(metrics) = field(&result, "metrics") else {
                panic!("metrics is not an object")
            };
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(
                        matches!(field(m, "value"), Value::Float(v) if v.is_finite()),
                        "{workload}: {name} is not a finite number"
                    );
                    (name.clone(), text(field(m, "unit")).to_owned())
                })
                .collect();
            assert_eq!(got, want, "{workload} --trace {trace}");
        }
    }
}

#[test]
fn smoke_runs_pass_the_correctness_gate() {
    for workload in WORKLOADS {
        let (out, result) = smoke(workload, "0");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let gate = stdout.lines().find(|l| l.starts_with("gate:")).unwrap_or("no gate line");
        assert!(out.status.success(), "{workload}: {gate}");
        assert!(matches!(field(&result, "correct"), Value::Bool(true)), "{workload}: {gate}");
        assert!(matches!(field(&result, "failed"), Value::UInt(0)), "{workload}: requests failed");
    }
}

#[test]
fn refuses_to_run_while_a_behaviour_switch_is_set() {
    for var in ["TACC_CHECK", "TACC_FAILPOINTS", "TACC_OBS"] {
        let out = perfbench(&["--workload", "ingest", "--smoke", "--seconds", "0"], &[(var, "1")]);
        assert!(!out.status.success(), "ran with {var} set");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("\"metrics\""));
    }
}
