//! The daemon survival gates, against the real `tacc` binary:
//!
//! * SIGKILL at an event boundary, restart with `--recover`, and the
//!   restored state is *byte-identical* to an uninterrupted session —
//!   the journal, not luck, carries the daemon across the kill.
//! * SIGTERM is a *clean* shutdown: exit code 0, socket file removed.
//!
//! Both run the daemon as a subprocess over a Unix socket in a per-test
//! temp dir, so the tests hold from any invocation directory and never
//! collide on a port.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use tacc_core::workload::{Trace, TraceGenerator, TraceScenario};
use tacc_proto::Response;
use tacc_runtime::{RuntimeConfig, RuntimeSnapshot};
use tacc_serve::{Client, ServeConfig, Session};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tacc-serve-gate-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn scripted_trace() -> Trace {
    let scenario =
        TraceScenario { num_iot: 24, num_servers: 4, load_factor: 0.6, ..TraceScenario::default() };
    TraceGenerator::new(scenario).num_events(200).generate(17).unwrap()
}

fn shell(trace: &Trace) -> Trace {
    Trace { events: Vec::new(), ..trace.clone() }
}

/// Spawns `tacc serve` on a Unix socket, optionally journaled/recovering,
/// and waits for the socket to accept.
// Every caller kills and/or waits the returned child; clippy cannot see
// across the return.
#[allow(clippy::zombie_processes)]
fn spawn_daemon(socket: &Path, journal: Option<&Path>, recover: bool) -> Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_tacc"));
    cmd.args(["serve", "--uds", socket.to_str().unwrap()])
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if let Some(path) = journal {
        cmd.args(["--journal", path.to_str().unwrap()]);
    }
    if recover {
        cmd.arg("--recover");
    }
    let mut child = cmd.spawn().unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if socket.exists() && Client::connect_unix(socket).is_ok() {
            return child;
        }
        if Instant::now() >= deadline {
            // Reap the stuck daemon before failing — no zombies.
            child.kill().ok();
            child.wait().ok();
            panic!("daemon never came up on {}", socket.display());
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn sigkill_at_an_event_boundary_recovers_byte_identically() {
    let trace = scripted_trace();
    let dir = temp_dir("sigkill");
    let socket = dir.join("daemon.sock");
    let journal = dir.join("session.jsonl");

    // The uninterrupted reference, in-process: same events, same config
    // as the daemon's defaults.
    let expected = {
        let mut session =
            Session::start(shell(&trace), RuntimeConfig::default(), &ServeConfig::default())
                .unwrap();
        session.push(trace.events.clone(), 0).unwrap();
        session.flush().unwrap();
        session.snapshot_json().unwrap()
    };

    // Phase 1: acknowledge 120 events in bursts, then SIGKILL the daemon
    // at a burst boundary — after the Accepted response, so every one of
    // those events is already fsync'd in the journal.
    let mut child = spawn_daemon(&socket, Some(&journal), false);
    {
        let mut client = Client::connect_unix(&socket).unwrap();
        let response = client.init(shell(&trace), RuntimeConfig::default()).unwrap();
        assert!(matches!(response, Response::Initialized { .. }), "got {response:?}");
        for burst in trace.events[..120].chunks(40) {
            let response = client.push(burst.to_vec()).unwrap();
            assert!(matches!(response, Response::Accepted { .. }), "got {response:?}");
        }
    }
    child.kill().unwrap(); // SIGKILL: no drop handlers, no final snapshot
    child.wait().unwrap();
    std::fs::remove_file(&socket).ok(); // the kill leaves the stale socket behind

    // Phase 2: restart from the journal. Every acknowledged event must
    // be back — applied, not merely queued — before any new traffic.
    let mut child = spawn_daemon(&socket, Some(&journal), true);
    let mut client = Client::connect_unix(&socket).unwrap();
    let Response::Stats { cursor, pending, .. } = client.stats().unwrap() else {
        panic!("stats must answer Stats");
    };
    assert_eq!((cursor as usize, pending), (120, 0), "acknowledged events survived the kill");

    // Finish the trace; the final state matches the uninterrupted
    // reference byte for byte.
    client.push(trace.events[120..].to_vec()).unwrap();
    client.flush().unwrap();
    let Response::Snapshot { snapshot_json } = client.snapshot().unwrap() else {
        panic!("snapshot must answer Snapshot");
    };
    assert_eq!(snapshot_json, expected, "journal recovery restored byte-identical state");

    let response = client.shutdown().unwrap();
    assert!(matches!(response, Response::Bye), "got {response:?}");
    assert!(child.wait().unwrap().success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sigterm_is_a_clean_shutdown() {
    let trace = scripted_trace();
    let dir = temp_dir("sigterm");
    let socket = dir.join("daemon.sock");

    let mut child = spawn_daemon(&socket, None, false);
    {
        let mut client = Client::connect_unix(&socket).unwrap();
        client.init(shell(&trace), RuntimeConfig::default()).unwrap();
        client.push(trace.events[..60].to_vec()).unwrap();
    }

    // SIGTERM (15), not SIGKILL: the serve loop latches it on the next
    // idle tick, drains the session, and exits 0.
    let status = Command::new("kill").args(["-TERM", &child.id().to_string()]).status().unwrap();
    assert!(status.success());
    let status = child.wait().unwrap();
    assert!(status.success(), "SIGTERM exit must be clean, got {status:?}");
    assert!(!socket.exists(), "clean shutdown removes the socket file");
    std::fs::remove_dir_all(&dir).ok();
}

/// Under `tacc client --drive`, `--budget` is the per-Solve work budget
/// only: the session it initializes keeps the default migration budget,
/// whatever the Solve budget.
#[test]
fn a_driven_session_keeps_the_default_migration_budget() {
    let trace = scripted_trace();
    let dir = temp_dir("drive-budget");
    let trace_path = dir.join("trace.json");
    std::fs::write(&trace_path, trace.to_json()).unwrap();
    for budget in ["0", "400"] {
        let socket = dir.join(format!("budget-{budget}.sock"));
        let mut child = spawn_daemon(&socket, None, false);
        let output = Command::new(env!("CARGO_BIN_EXE_tacc"))
            .args(["client", "--uds", socket.to_str().unwrap(), "--drive"])
            .arg(&trace_path)
            .args(["--burst", "50", "--solve-every", "2", "--budget", budget])
            .args(["--snapshot", "--shutdown"])
            .output()
            .unwrap();
        assert!(output.status.success(), "--budget {budget}: {output:?}");
        let stdout = String::from_utf8(output.stdout).unwrap();
        let line = stdout.lines().find(|l| l.starts_with("{\"version\"")).expect("a snapshot");
        let snapshot = RuntimeSnapshot::from_json(line).unwrap();
        assert_eq!(snapshot.config.migration_budget, 4, "--budget {budget}");
        assert!(child.wait().unwrap().success());
    }
    std::fs::remove_dir_all(&dir).ok();
}
