//! Golden-schema tests: the shapes of the `BENCH_*.json` reports and
//! the `--obs-out` JSONL stream are API — downstream tooling parses
//! them across revisions. These tests pin field names and JSON types
//! with every value masked, so refactors can change numbers freely but
//! a silent rename, removal or type change fails loudly here. Bump
//! [`tacc_obs::STREAM_VERSION`] (and these goldens) to change the
//! stream on purpose.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;

/// Masks a JSON document to its shape: objects keep their field names
/// (in order — key order is part of the byte-determinism contract),
/// arrays collapse to their element shape, and every scalar becomes its
/// type name. Panics if an array mixes shapes.
fn schema(value: &Value) -> String {
    match value {
        Value::Null => "null".to_owned(),
        Value::Bool(_) => "bool".to_owned(),
        Value::UInt(_) => "uint".to_owned(),
        Value::Int(_) => "int".to_owned(),
        Value::Float(_) => "float".to_owned(),
        Value::Str(_) => "str".to_owned(),
        Value::Array(items) => match items.split_first() {
            None => "[]".to_owned(),
            Some((first, rest)) => {
                let shape = schema(first);
                for (i, item) in rest.iter().enumerate() {
                    assert_eq!(schema(item), shape, "array element {} diverges", i + 1);
                }
                format!("[{shape}]")
            }
        },
        Value::Object(fields) => {
            let inner: Vec<String> =
                fields.iter().map(|(k, v)| format!("{k}:{}", schema(v))).collect();
            format!("{{{}}}", inner.join(","))
        }
    }
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tacc-golden-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn load(path: &Path) -> Value {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("parsing {}: {e}", path.display()))
}

#[test]
fn bench_reports_keep_their_schema() {
    let dir = temp_dir("bench");
    tacc_cli::commands::bench_report(&[
        "--quick".to_owned(),
        "--reps".to_owned(),
        "1".to_owned(),
        "--out".to_owned(),
        dir.to_str().unwrap().to_owned(),
    ])
    .unwrap();

    assert_eq!(
        schema(&load(&dir.join("BENCH_delay_matrix.json"))),
        "{bench:str,git_rev:str,threads:uint,reps:uint,\
         sizes:[{devices:uint,servers:uint,kernel:str,serial_ms:float,bucket_ms:float,\
         identical:bool}]}"
    );
    assert_eq!(
        schema(&load(&dir.join("BENCH_solvers.json"))),
        "{bench:str,git_rev:str,threads:uint,reps:uint,devices:uint,servers:uint,\
         algorithms:[str],serial_ms:float,parallel_ms:float,speedup:float,identical:bool,\
         solvers:[{name:str,wall_ms:float,moves:uint,moves_per_sec:float,\
         total_delay_ms:float}],\
         zones:{devices:uint,servers:uint,zones:uint,zoned_ms:float,global_ms:float,\
         objective_ratio:float,identical_at_one_zone:bool}}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs the real `tacc` binary (observability on) and returns the
/// parsed records of the stream it wrote. A subprocess keeps the
/// process-global obs switch out of this test runner.
fn stream_records(dir: &Path, subcommand: &str, extra: &[&str]) -> Vec<Value> {
    let out_path = dir.join(format!("{subcommand}.jsonl"));
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_tacc"));
    cmd.arg(subcommand)
        .args(extra)
        .args(["--obs-out", out_path.to_str().unwrap()])
        .env("TACC_OBS", "1");
    let output = cmd.output().unwrap();
    assert!(
        output.status.success(),
        "tacc {subcommand} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = std::fs::read_to_string(&out_path).unwrap();
    text.lines().map(|line| serde_json::from_str(line).unwrap()).collect()
}

fn kind_of(record: &Value) -> &str {
    match record.get("kind") {
        Some(Value::Str(kind)) => kind,
        other => panic!("record without a kind: {other:?}"),
    }
}

/// The `registry` record has workload-dependent metric *names*, so its
/// golden masks one level deeper: every counter value must be a uint,
/// every gauge a float, and every value histogram the pinned histogram
/// shape.
fn assert_registry_schema(record: &Value) {
    assert!(matches!(record.get("seq"), Some(Value::UInt(_))), "{record:?}");
    assert!(matches!(record.get("kind"), Some(Value::Str(_))), "{record:?}");
    let Some(Value::Object(counters)) = record.get("counters") else {
        panic!("registry record lacks counters: {record:?}");
    };
    for (name, value) in counters {
        assert_eq!(schema(value), "uint", "counter {name}");
    }
    let Some(Value::Object(gauges)) = record.get("gauges") else {
        panic!("registry record lacks gauges: {record:?}");
    };
    for (name, value) in gauges {
        assert_eq!(schema(value), "float", "gauge {name}");
    }
    let Some(Value::Object(hists)) = record.get("value_histograms") else {
        panic!("registry record lacks value_histograms: {record:?}");
    };
    for (name, value) in hists {
        assert_eq!(
            schema(value),
            "{count:uint,sum:uint,max:uint,mean:float,buckets:[{le:uint,count:uint}]}",
            "value histogram {name}"
        );
    }
    // Time histograms never enter the deterministic stream.
    assert!(record.get("time_histograms").is_none(), "{record:?}");
}

#[test]
fn run_trace_obs_stream_keeps_its_schema() {
    let dir = temp_dir("stream-run-trace");
    let trace_path = dir.join("trace.json");
    let status = Command::new(env!("CARGO_BIN_EXE_tacc"))
        .args(["gen-trace", "--devices", "18", "--servers", "3", "--events", "40"])
        .args(["--seed", "9", "--out", trace_path.to_str().unwrap()])
        .status()
        .unwrap();
    assert!(status.success());

    let records = stream_records(
        &dir,
        "run-trace",
        &["--trace", trace_path.to_str().unwrap(), "--seed", "9"],
    );
    assert_eq!(records.len(), 1 + 40 + 1 + 1, "meta + steps + summary + registry");

    assert_eq!(kind_of(&records[0]), "meta");
    assert_eq!(
        schema(&records[0]),
        "{seq:uint,kind:str,stream_version:uint,source:str,trace_fingerprint:str,\
         events:uint,policy:str,seed:uint,start_cursor:uint}"
    );
    for record in &records[1..=40] {
        assert_eq!(kind_of(record), "step");
        assert_eq!(
            schema(record),
            "{seq:uint,kind:str,index:uint,event:str,active:uint,total_delay_ms:float}"
        );
    }
    assert_eq!(kind_of(&records[41]), "summary");
    assert_eq!(
        schema(&records[41]),
        "{seq:uint,kind:str,cursor:uint,active_devices:uint,shed_devices:uint,\
         unreachable_devices:uint,departed_devices:uint,total_delay_ms:float,feasible:bool}"
    );
    assert_eq!(kind_of(&records[42]), "registry");
    assert_registry_schema(&records[42]);

    // seq is dense and zero-based.
    for (i, record) in records.iter().enumerate() {
        assert_eq!(record.get("seq"), Some(&Value::UInt(i as u64)), "record {i}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn solve_obs_stream_keeps_its_schema() {
    let dir = temp_dir("stream-solve");
    let records = stream_records(
        &dir,
        "solve",
        &["--devices", "15", "--servers", "3", "--algorithm", "greedy-regret", "--seed", "4"],
    );
    assert_eq!(records.len(), 3, "meta + solution + registry");
    assert_eq!(
        schema(&records[0]),
        "{seq:uint,kind:str,stream_version:uint,source:str,algorithm:str,seed:uint,\
         devices:uint,servers:uint}"
    );
    assert_eq!(kind_of(&records[1]), "solution");
    assert_eq!(
        schema(&records[1]),
        "{seq:uint,kind:str,feasible:bool,total_delay_ms:float,mean_delay_ms:float,\
         iterations:uint,evaluations:uint}"
    );
    assert_eq!(kind_of(&records[2]), "registry");
    assert_registry_schema(&records[2]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn zoned_solve_obs_stream_keeps_its_schema() {
    let dir = temp_dir("stream-solve-zoned");
    let records = stream_records(
        &dir,
        "solve",
        &["--devices", "24", "--servers", "4", "--zones", "2", "--seed", "4"],
    );
    assert_eq!(records.len(), 4, "meta + zones + solution + registry");
    assert_eq!(kind_of(&records[0]), "meta");
    assert_eq!(
        schema(&records[0]),
        "{seq:uint,kind:str,stream_version:uint,source:str,seed:uint,devices:uint,\
         servers:uint}"
    );
    // The `zones` record is the same shape `tacc serve` emits on its
    // zone-decomposed Solve path — pinned once for both producers.
    assert_eq!(kind_of(&records[1]), "zones");
    assert_eq!(
        schema(&records[1]),
        "{seq:uint,kind:str,zones:uint,router_spills:uint,border_refinements:uint,\
         budget:uint}"
    );
    assert_eq!(kind_of(&records[2]), "solution");
    assert_eq!(
        schema(&records[2]),
        "{seq:uint,kind:str,feasible:bool,total_delay_ms:float,mean_delay_ms:float}"
    );
    assert_eq!(kind_of(&records[3]), "registry");
    assert_registry_schema(&records[3]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_session_obs_stream_keeps_its_schema() {
    use tacc_core::workload::{TimedEvent, Trace, TraceEvent, TraceScenario};
    use tacc_runtime::RuntimeConfig;
    use tacc_serve::{ServeConfig, Session};

    let dir = temp_dir("stream-serve");
    let out = dir.join("session.jsonl");
    let scenario = TraceScenario { num_iot: 16, num_servers: 3, ..TraceScenario::default() };
    let shell = Trace { version: Trace::FORMAT_VERSION, scenario, events: Vec::new() };
    // A parking config with a tight cap, so one scripted session emits
    // every record kind: push, overload, flush, solve, registry.
    let cfg = ServeConfig {
        batch_size: 1000,
        max_pending: 8,
        obs_out: Some(out.clone()),
        ..ServeConfig::default()
    };
    tacc_obs::set_enabled(true);
    let mut session = Session::start(shell, RuntimeConfig::default(), &cfg).unwrap();
    let burst = |len: usize| -> Vec<TimedEvent> {
        (0..len)
            .map(|i| TimedEvent {
                time_ms: 0.0,
                event: TraceEvent::LinkLatencyDrift { link: 0, latency_ms: 1.0 + i as f64 },
            })
            .collect()
    };
    session.push(burst(8), 0).unwrap(); // accepted
    session.push(burst(3), 0).unwrap(); // shed: 8 + 3 > 8
    session.flush().unwrap();
    session.solve(50).unwrap();
    session.close().unwrap();

    let text = std::fs::read_to_string(&out).unwrap();
    let records: Vec<Value> = text.lines().map(|l| serde_json::from_str(l).unwrap()).collect();
    assert_eq!(records.len(), 6, "meta + push + overload + flush + solve + registry");

    assert_eq!(kind_of(&records[0]), "meta");
    assert_eq!(
        schema(&records[0]),
        "{seq:uint,kind:str,stream_version:uint,source:str,family:str,num_iot:uint,\
         num_servers:uint,scenario_seed:uint,policy:str,seed:uint,recovered:bool,\
         start_cursor:uint}"
    );
    assert_eq!(kind_of(&records[1]), "push");
    assert_eq!(schema(&records[1]), "{seq:uint,kind:str,push:uint,queued:uint,pending:uint}");
    assert_eq!(kind_of(&records[2]), "overload");
    assert_eq!(
        schema(&records[2]),
        "{seq:uint,kind:str,pending:uint,cap:uint,rejected:uint,retry_after_ms:uint,\
         brownout:str}"
    );
    assert_eq!(kind_of(&records[3]), "flush");
    assert_eq!(
        schema(&records[3]),
        "{seq:uint,kind:str,applied:uint,cursor:uint,active:uint,total_delay_ms:float}"
    );
    assert_eq!(kind_of(&records[4]), "solve");
    assert_eq!(
        schema(&records[4]),
        "{seq:uint,kind:str,budget:uint,solver:str,degradation:str,objective:float,\
         feasible:bool,brownout:str}"
    );
    assert_eq!(kind_of(&records[5]), "registry");
    assert_registry_schema(&records[5]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn same_seed_streams_are_byte_identical() {
    let dir = temp_dir("stream-determinism");
    let trace_path = dir.join("trace.json");
    let status = Command::new(env!("CARGO_BIN_EXE_tacc"))
        .args(["gen-trace", "--devices", "18", "--servers", "3", "--events", "30"])
        .args(["--seed", "13", "--out", trace_path.to_str().unwrap()])
        .status()
        .unwrap();
    assert!(status.success());

    let run = |out: &Path| {
        let status = Command::new(env!("CARGO_BIN_EXE_tacc"))
            .args(["run-trace", "--trace", trace_path.to_str().unwrap(), "--seed", "13"])
            .args(["--obs-out", out.to_str().unwrap()])
            .env("TACC_OBS", "1")
            .stdout(std::process::Stdio::null())
            .status()
            .unwrap();
        assert!(status.success());
        std::fs::read(out).unwrap()
    };
    let a = run(&dir.join("a.jsonl"));
    let b = run(&dir.join("b.jsonl"));
    assert!(!a.is_empty());
    assert_eq!(a, b, "two same-seed replays must produce byte-identical streams");
    std::fs::remove_dir_all(&dir).ok();
}
