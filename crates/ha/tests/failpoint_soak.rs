//! The failpoint soak gate: sweep EVERY registered failpoint at EVERY
//! occurrence index (and every applicable failure kind) through the full
//! primary → ship → standby → promote → restart pipeline, plus the
//! socket probes through a live in-thread daemon, and prove the
//! invariants the HA design stands on:
//!
//! - **zero escaped panics** — every fault surfaces as a typed error;
//! - **zero corrupted journals** — after any fault, a reopen heals the
//!   torn tail and a strict scan of both journals passes;
//! - **no acked state lost** — a restart from *either* surviving journal
//!   completes the workload to the byte-identical reference snapshot.
//!
//! Failpoint arming is process-global, so this is a single `#[test]` in
//! its own integration binary — nothing else may run beside it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tacc_chaos::{journal_line_count, scan_journal, Journal, RecoveryPolicy};
use tacc_ha::{JournalTail, StandbyCore};
use tacc_proto::Response;
use tacc_runtime::RuntimeConfig;
use tacc_serve::{Client, ServeConfig, ServeError, Server, Session};
use tacc_workload::{Trace, TraceGenerator, TraceScenario};

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tacc-ha-soak-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn scripted_trace() -> Trace {
    let scenario =
        TraceScenario { num_iot: 10, num_servers: 3, load_factor: 0.6, ..TraceScenario::default() };
    TraceGenerator::new(scenario).num_events(16).generate(31).unwrap()
}

fn shell(trace: &Trace) -> Trace {
    Trace { events: Vec::new(), ..trace.clone() }
}

fn serve_cfg(journal: &Path) -> ServeConfig {
    // A small snapshot cadence so `snapshot.save` is actually on the
    // swept path.
    ServeConfig {
        journal: Some(journal.to_path_buf()),
        snapshot_every: 8,
        ..ServeConfig::default()
    }
}

/// The full HA pipeline, in-process: primary session journals sequenced
/// bursts, every newly durable line ships to the standby, at the end the
/// standby promotes, and then a `serve --recover` restart reads the
/// promoted standby's journal back (promotion hands its replica over
/// without reading a journal, so the restart is what keeps the
/// `journal.open` and `snapshot.load` probes on the swept path). Returns
/// the promoted and the restarted snapshot. Any fault propagates as a
/// typed error — exactly what the sweep wants to see.
fn pipeline_run(dir: &Path, tag: &str) -> Result<(String, String), ServeError> {
    let trace = scripted_trace();
    let primary_journal = dir.join(format!("p-{tag}.jsonl"));
    let standby_journal = dir.join(format!("s-{tag}.jsonl"));

    let mut primary =
        Session::start(shell(&trace), RuntimeConfig::default(), &serve_cfg(&primary_journal))?;
    let mut tail = JournalTail::new(&primary_journal);
    let mut standby = StandbyCore::new(&serve_cfg(&standby_journal))?;

    let mut shipped = 0u64;
    for (seq, burst) in (((3u64 << 32) | 1)..).zip(trace.events.chunks(6)) {
        let response = primary.push(burst.to_vec(), seq)?;
        if !matches!(response, Response::Accepted { .. }) {
            return Err(ServeError::state(format!("push answered {response:?}")));
        }
        let lines = tail.poll()?;
        if !lines.is_empty() {
            shipped = standby.apply(shipped, &lines)?;
        }
    }
    primary.flush()?;
    let lines = tail.poll()?;
    if !lines.is_empty() {
        shipped = standby.apply(shipped, &lines)?;
    }
    let _ = shipped;
    let mut promoted = standby.promote()?;
    let promoted_snapshot = promoted.snapshot_json()?;
    drop(promoted);
    let mut restarted = Session::recover(&serve_cfg(&standby_journal))?;
    Ok((promoted_snapshot, restarted.snapshot_json()?))
}

/// After a faulted run: both surviving journals must heal on reopen,
/// scan strictly clean, and — wherever a session scenario already made
/// it to disk — carry a restart to the byte-identical reference.
fn assert_survivors_recover(dir: &Path, tag: &str, reference: &str, spec: &str) {
    let trace = scripted_trace();
    for side in ["p", "s"] {
        let path = dir.join(format!("{side}-{tag}.jsonl"));
        if !path.exists() {
            continue;
        }
        // Reopen heals any torn tail the fault left behind...
        drop(
            Journal::open_append(&path)
                .unwrap_or_else(|e| panic!("{spec}: healing the {side} journal failed: {e}")),
        );
        let lines = journal_line_count(&path).unwrap();
        if lines == 0 {
            // The fault struck before even the Begin record landed;
            // nothing was acked, nothing to recover.
            continue;
        }
        // ...after which the survivor scans strictly clean: no torn
        // tail, no corrupt records. A fault may corrupt an ack, never a
        // journal.
        let scan = scan_journal(&path, RecoveryPolicy::Strict)
            .unwrap_or_else(|e| panic!("{spec}: healed {side} journal fails a strict scan: {e}"));
        assert!(!scan.torn_tail, "{spec}: healed {side} journal still reports a torn tail");
        assert!(
            scan.corrupt_records.is_empty(),
            "{spec}: healed {side} journal holds corrupt records"
        );
        if lines < 2 {
            // Begin only — the scenario never landed; a restart has no
            // session to rebuild (and nothing was acked against it).
            continue;
        }
        // The decisive property: a `--recover`-style restart from this
        // journal alone, completing the remaining workload, lands on
        // the byte-identical reference. Acked events are all present
        // (no loss) and present once (no double-apply).
        let cfg = serve_cfg(&path);
        let mut session = Session::recover(&cfg)
            .unwrap_or_else(|e| panic!("{spec}: recovery from the {side} journal failed: {e}"));
        let cursor = session.cursor() as usize;
        assert!(
            cursor <= trace.events.len(),
            "{spec}: {side} journal replayed {cursor} events of {}",
            trace.events.len()
        );
        if cursor < trace.events.len() {
            let response = session.push(trace.events[cursor..].to_vec(), 0).unwrap();
            assert!(matches!(response, Response::Accepted { .. }), "got {response:?}");
        }
        session.flush().unwrap();
        let snapshot = session.snapshot_json().unwrap();
        assert_eq!(
            snapshot, reference,
            "{spec}: restarting from the {side} journal diverged from the reference"
        );
    }
}

/// Drives a live single-threaded daemon over a Unix socket from this
/// process, so the `socket.read`/`socket.write` probes fire inside the
/// real serve loop. Connection-level faults cost at most the connection;
/// the daemon itself must keep serving and shut down cleanly.
fn socket_run(dir: &Path, tag: &str) -> Result<(), ServeError> {
    let socket = dir.join(format!("sock-{tag}.sock"));
    let cfg = ServeConfig { read_timeout_ms: 20, ..ServeConfig::default() };
    let mut server = Server::bind(None, Some(&socket), cfg)?;
    let handle = std::thread::spawn(move || server.run());

    let deadline = Instant::now() + Duration::from_secs(30);
    while !socket.exists() || Client::connect_unix(&socket).is_err() {
        assert!(Instant::now() < deadline, "daemon never came up");
        std::thread::sleep(Duration::from_millis(10));
    }

    let trace = scripted_trace();
    let client_result = (|| -> Result<(), ServeError> {
        let mut client = Client::connect_unix(&socket)?;
        client.hello("soak")?;
        client.init(shell(&trace), RuntimeConfig::default())?;
        client.push(trace.events[..8].to_vec())?;
        client.stats()?;
        Ok(())
    })();

    // A socket failpoint fires once, so a fresh connection always gets
    // the shutdown through. The faulted write may be the `Bye` itself —
    // the daemon stops anyway (the stop latches before the write), so a
    // vanished socket file equally counts as down.
    let mut downed = false;
    for _ in 0..200 {
        if !socket.exists() {
            downed = true;
            break;
        }
        if let Ok(mut client) = Client::connect_unix(&socket) {
            if client.shutdown().is_ok() {
                downed = true;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(downed, "daemon refused shutdown after a socket fault");
    let served = handle.join().expect("the serve loop must never panic");
    served.expect("the serve loop must exit cleanly");
    assert!(!socket.exists(), "clean shutdown removes the socket file");
    client_result
}

#[test]
fn every_failpoint_at_every_occurrence_degrades_typed_or_fails_over_identically() {
    let dir = temp_dir();
    tacc_failpoints::disarm();

    // The uninterrupted reference all survivors are measured against.
    let (reference, restarted) =
        pipeline_run(&dir, "reference").expect("reference run must succeed");
    assert_eq!(restarted, reference, "a restart from the promoted journal diverged");

    // Census: run both harnesses in counting-only mode to learn how
    // often each failpoint is probed.
    tacc_failpoints::arm("count").unwrap();
    pipeline_run(&dir, "census").expect("census run must succeed");
    let pipeline_counts = tacc_failpoints::counts();
    tacc_failpoints::disarm();

    tacc_failpoints::arm("count").unwrap();
    socket_run(&dir, "census").expect("socket census run must succeed");
    let socket_counts = tacc_failpoints::counts();
    tacc_failpoints::disarm();

    // Every registered failpoint must be exercised by some harness —
    // a probe nothing reaches is a hole in the soak, not coverage.
    for name in tacc_failpoints::ALL {
        let covered =
            pipeline_counts.iter().chain(socket_counts.iter()).any(|(n, c)| n == name && *c > 0);
        assert!(covered, "failpoint {name} is never probed by the soak harnesses");
    }

    // Sweep the pipeline probes: every name, every occurrence, every
    // applicable kind.
    let mut swept = 0u32;
    for (name, count) in &pipeline_counts {
        for occurrence in 0..*count {
            let mut kinds = vec!["io"];
            if *name == "journal.write" {
                kinds.push("short");
                kinds.push("enospc");
            }
            if *name == "journal.fsync" || *name == "snapshot.save" {
                kinds.push("enospc");
            }
            for kind in kinds {
                let spec = format!("{name}@{occurrence}:{kind}");
                let tag = format!("{}-{occurrence}-{kind}", name.replace('.', "_"));
                tacc_failpoints::arm(&spec).unwrap();
                let outcome = catch_unwind(AssertUnwindSafe(|| pipeline_run(&dir, &tag)));
                let counts = tacc_failpoints::counts();
                tacc_failpoints::disarm();

                let result =
                    outcome.unwrap_or_else(|_| panic!("failpoint {spec}: escaped a panic"));
                let fired = counts.iter().any(|(n, c)| n == name && *c > occurrence);
                assert!(fired, "failpoint {spec} was armed but never fired");
                match result {
                    // The fault was absorbed (e.g. a re-ship covered
                    // it): the outcome must be byte-identical anyway.
                    Ok((promoted, restarted)) => {
                        assert_eq!(
                            promoted, reference,
                            "failpoint {spec}: an absorbed fault changed the promoted outcome"
                        );
                        assert_eq!(
                            restarted, reference,
                            "failpoint {spec}: an absorbed fault changed the restarted outcome"
                        );
                    }
                    // The fault surfaced: it must be typed (it is, by
                    // construction of `Result`) and every survivor must
                    // recover byte-identically.
                    Err(_typed) => assert_survivors_recover(&dir, &tag, &reference, &spec),
                }
                swept += 1;
            }
        }
    }
    assert!(swept >= 30, "suspiciously small pipeline sweep: {swept} runs");

    // Sweep the socket probes through the live daemon. Their occurrence
    // count includes timing-dependent idle ticks, so cap the sweep.
    let mut socket_swept = 0u32;
    for (name, count) in &socket_counts {
        if !name.starts_with("socket.") {
            continue;
        }
        for occurrence in 0..(*count).min(6) {
            let spec = format!("{name}@{occurrence}:reset");
            let tag = format!("{}-{occurrence}", name.replace('.', "_"));
            tacc_failpoints::arm(&spec).unwrap();
            let outcome = catch_unwind(AssertUnwindSafe(|| socket_run(&dir, &tag)));
            tacc_failpoints::disarm();
            // Ok (the faulted connection was not the one the client
            // watched) and a typed client-side error are both fine;
            // panics and unclean daemon shutdowns are not — and
            // `socket_run` asserts the latter internally.
            let _ = outcome.unwrap_or_else(|_| panic!("failpoint {spec}: escaped a panic"));
            socket_swept += 1;
        }
    }
    assert!(socket_swept >= 4, "suspiciously small socket sweep: {socket_swept} runs");

    std::fs::remove_dir_all(&dir).ok();
}
