//! End-to-end sessions over real sockets: the ISSUE's scripted-session
//! acceptance shape — load a topology, stream 1000+ trace events in
//! bursts, interleave assignment queries — plus the state-machine and
//! admission-control edges.

use std::path::PathBuf;
use std::thread::JoinHandle;

use tacc_proto::{ErrorCode, QueryState, Response};
use tacc_runtime::{ReassignPolicy, RuntimeConfig};
use tacc_serve::{Client, ServeConfig, Server, Session};
use tacc_workload::{Trace, TraceGenerator, TraceScenario};

fn scenario() -> TraceScenario {
    TraceScenario { num_iot: 30, num_servers: 5, load_factor: 0.6, ..TraceScenario::default() }
}

fn trace(num_events: usize, seed: u64) -> Trace {
    TraceGenerator::new(scenario()).num_events(num_events).generate(seed).unwrap()
}

/// The scenario-only shell a session is initialized from; events arrive
/// over the wire.
fn shell(trace: &Trace) -> Trace {
    Trace { events: Vec::new(), ..trace.clone() }
}

fn runtime_config() -> RuntimeConfig {
    RuntimeConfig { policy: ReassignPolicy::Greedy, seed: 7, ..RuntimeConfig::default() }
}

/// Boots a daemon on an ephemeral TCP port, returning the address and
/// the serve-loop handle.
fn boot(cfg: ServeConfig) -> (String, JoinHandle<()>) {
    let mut server = Server::bind(Some("127.0.0.1:0"), None, cfg).unwrap();
    let addr = server.endpoints()[0].strip_prefix("tcp:").unwrap().to_owned();
    let handle = std::thread::spawn(move || server.run().unwrap());
    (addr, handle)
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tacc-serve-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn a_scripted_session_streams_a_thousand_events_with_interleaved_queries() {
    let trace = trace(1200, 11);
    assert!(trace.events.len() >= 1000, "scenario generates the acceptance volume");
    let (addr, handle) = boot(ServeConfig::default());
    let mut client = Client::connect_tcp(&addr).unwrap();

    let Response::Hello { protocol, .. } = client.hello("session-test").unwrap() else {
        panic!("hello must answer Hello");
    };
    assert_eq!(protocol, tacc_proto::PROTOCOL_VERSION);

    let Response::Initialized { devices, servers, recovered, .. } =
        client.init(shell(&trace), runtime_config()).unwrap()
    else {
        panic!("init must answer Initialized");
    };
    assert_eq!((devices, servers), (30, 5));
    assert!(!recovered);

    // Stream the whole trace in bursts of 75, interleaving a device
    // query and a budgeted solve every few bursts.
    let mut pushed = 0usize;
    for (i, burst) in trace.events.chunks(75).enumerate() {
        match client.push(burst.to_vec()).unwrap() {
            Response::Accepted { queued, .. } => pushed += queued,
            other => panic!("push answered {other:?}"),
        }
        if i % 3 == 0 {
            match client.query(i % 30).unwrap() {
                Response::Device { device, state, server, .. } => {
                    assert_eq!(device, i % 30);
                    // Assigned answers carry a server; the others do not.
                    assert_eq!(state == QueryState::Assigned, server.is_some());
                }
                other => panic!("query answered {other:?}"),
            }
        }
        if i % 5 == 0 {
            match client.solve(400).unwrap() {
                Response::Solution { feasible, objective, spent, .. } => {
                    assert!(feasible, "the guard ladder answers feasibly");
                    assert!(objective.is_finite());
                    assert!(spent <= 400, "budget respected (spent {spent})");
                }
                other => panic!("solve answered {other:?}"),
            }
        }
    }
    assert_eq!(pushed, trace.events.len());

    // Everything lands after a final flush; the summary is coherent.
    let Response::Flushed { cursor, .. } = client.flush().unwrap() else {
        panic!("flush must answer Flushed");
    };
    assert_eq!(cursor as usize, trace.events.len());
    let Response::Stats { cursor, pending, active_devices, feasible, .. } = client.stats().unwrap()
    else {
        panic!("stats must answer Stats");
    };
    assert_eq!(cursor as usize, trace.events.len());
    assert_eq!(pending, 0);
    assert!(active_devices <= 30);
    assert!(feasible);

    let Response::Bye = client.shutdown().unwrap() else { panic!("shutdown must answer Bye") };
    handle.join().unwrap();
}

#[test]
fn coalesced_state_matches_an_unbatched_replay_exactly() {
    // The same events, pushed in wildly different burst shapes, must
    // land on byte-identical runtime snapshots — coalescing is a
    // latency optimization, never a semantic one.
    let trace = trace(300, 23);
    let mut snapshots = Vec::new();
    for burst_len in [1usize, 7, 300] {
        let mut session = Session::start(
            shell(&trace),
            runtime_config(),
            &ServeConfig { batch_size: 50, ..ServeConfig::default() },
        )
        .unwrap();
        for burst in trace.events.chunks(burst_len) {
            let response = session.push(burst.to_vec(), 0).unwrap();
            assert!(matches!(response, Response::Accepted { .. }), "got {response:?}");
        }
        session.flush().unwrap();
        snapshots.push(session.snapshot_json().unwrap());
    }
    assert_eq!(snapshots[0], snapshots[1]);
    assert_eq!(snapshots[1], snapshots[2]);
}

#[test]
fn overload_is_shed_with_a_typed_response_and_no_state_change() {
    let trace = trace(200, 31);
    let cfg = ServeConfig { batch_size: 1000, max_pending: 50, ..ServeConfig::default() };
    let mut session = Session::start(shell(&trace), runtime_config(), &cfg).unwrap();

    // Fill the backlog to the cap...
    let response = session.push(trace.events[..50].to_vec(), 0).unwrap();
    assert!(matches!(response, Response::Accepted { .. }));
    assert_eq!(session.pending(), 50);

    // ...then one more event must shed, atomically, with the decision
    // inputs (backlog, cap) and the retry hint in the response.
    let response = session.push(trace.events[50..60].to_vec(), 0).unwrap();
    let Response::Overloaded { pending, max_pending, rejected, retry_after_ms, brownout } =
        response
    else {
        panic!("expected Overloaded, got {response:?}");
    };
    assert_eq!((pending, max_pending, rejected), (50, 50, 10));
    assert!(retry_after_ms > 0, "a shed burst carries a retry hint");
    assert!(!brownout.is_empty(), "a shed burst reports the brownout level");
    assert_eq!(session.pending(), 50, "the rejected burst left no trace");

    // Draining re-admits.
    session.flush().unwrap();
    let response = session.push(trace.events[50..60].to_vec(), 0).unwrap();
    assert!(matches!(response, Response::Accepted { .. }));
}

#[test]
fn protocol_state_machine_rejections_are_typed() {
    let trace = trace(50, 41);
    let (addr, handle) = boot(ServeConfig::default());
    let mut client = Client::connect_tcp(&addr).unwrap();

    // Everything but Hello/Init/Metrics needs a session.
    let Response::Error { code, .. } = client.flush().unwrap() else {
        panic!("flush before init must error");
    };
    assert_eq!(code, ErrorCode::NotInitialized);

    // An Init trace must not smuggle events.
    let Response::Error { code, .. } = client.init(trace.clone(), runtime_config()).unwrap() else {
        panic!("init with events must error");
    };
    assert_eq!(code, ErrorCode::BadRequest);

    // A second Init is refused.
    let response = client.init(shell(&trace), runtime_config()).unwrap();
    assert!(matches!(response, Response::Initialized { .. }), "got {response:?}");
    let Response::Error { code, .. } = client.init(shell(&trace), runtime_config()).unwrap() else {
        panic!("double init must error");
    };
    assert_eq!(code, ErrorCode::AlreadyInitialized);

    // Out-of-range and time-reversed events are rejected whole.
    let mut backwards = trace.events[..3].to_vec();
    backwards[2].time_ms = 0.0;
    backwards[1].time_ms = 1e9;
    let Response::Error { code, .. } = client.push(backwards).unwrap() else {
        panic!("backwards burst must error");
    };
    assert_eq!(code, ErrorCode::BadRequest);

    let Response::Error { code, .. } = client.query(10_000).unwrap() else {
        panic!("out-of-range query must error");
    };
    assert_eq!(code, ErrorCode::BadRequest);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn a_dropped_session_recovers_byte_identically_from_its_journal() {
    let trace = trace(250, 53);
    let dir = temp_dir("recover");
    let journal = dir.join("session.jsonl");
    let cfg = ServeConfig {
        batch_size: 32,
        snapshot_every: 64,
        journal: Some(journal.clone()),
        ..ServeConfig::default()
    };

    // Reference: an uninterrupted session over the same events.
    let mut reference =
        Session::start(shell(&trace), runtime_config(), &ServeConfig::default()).unwrap();
    reference.push(trace.events.clone(), 0).unwrap();
    reference.flush().unwrap();
    let expected = reference.snapshot_json().unwrap();

    // The "crashed" session: events acknowledged, then the process is
    // gone — no close(), no final snapshot. Dropping without close
    // models the kill; every acknowledged burst is already fsync'd.
    {
        let mut session = Session::start(shell(&trace), runtime_config(), &cfg).unwrap();
        for burst in trace.events.chunks(17) {
            let response = session.push(burst.to_vec(), 0).unwrap();
            assert!(matches!(response, Response::Accepted { .. }), "got {response:?}");
        }
        // Deliberately NOT flushed and NOT closed: pending events must
        // still recover, because acceptance journaled them write-ahead.
    }

    let mut recovered = Session::recover(&cfg).unwrap();
    assert_eq!(recovered.cursor() as usize, trace.events.len(), "every acknowledged event");
    assert_eq!(recovered.snapshot_json().unwrap(), expected, "byte-identical state");
    // A snapshot stores tree parents, not distances: the delays too.
    let delays = |session: &Session| -> Vec<u64> {
        session.runtime().cluster().instance().delays().iter().map(|d| d.to_bits()).collect()
    };
    assert_eq!(delays(&recovered), delays(&reference), "bit-identical delays");

    // The recovered session keeps working: more events, more queries.
    let more = TraceGenerator::new(scenario()).num_events(40).generate(99).unwrap();
    let offset = trace.events.last().unwrap().time_ms;
    let continuation: Vec<_> = more
        .events
        .into_iter()
        .map(|mut t| {
            t.time_ms += offset;
            t
        })
        .collect();
    let response = recovered.push(continuation, 0).unwrap();
    assert!(matches!(response, Response::Accepted { .. }), "got {response:?}");
    recovered.flush().unwrap();
    recovered.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_journal_snapshot_that_fails_quarantine_is_refused_on_recovery() {
    use tacc_chaos::{Journal, JournalRecord};
    use tacc_runtime::RuntimeSnapshot;

    let trace = trace(120, 57);
    let dir = temp_dir("quarantine");
    let journal = dir.join("session.jsonl");
    let cfg = ServeConfig { journal: Some(journal.clone()), ..ServeConfig::default() };
    let mut snapshot = {
        let mut session = Session::start(shell(&trace), runtime_config(), &cfg).unwrap();
        session.push(trace.events.clone(), 0).unwrap();
        RuntimeSnapshot::from_json(&session.snapshot_json().unwrap()).unwrap()
    };
    // A CRC-intact restore point whose priorities are NaN: nothing but
    // the quarantine stands between it and the runtime's sort keys.
    snapshot.config.priorities = vec![f64::NAN; scenario().num_iot];
    Journal::open_append(&journal).unwrap().append(&JournalRecord::Snapshot { snapshot }).unwrap();

    let err = Session::recover(&cfg).unwrap_err().to_string();
    assert!(err.contains("quarantined") && err.contains("bad priority"), "got: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_refuses_an_algorithm_that_cannot_answer_solve() {
    let trace = trace(40, 61);
    let dir = temp_dir("algorithm");
    let journal = dir.join("session.jsonl");
    let cfg = ServeConfig { journal: Some(journal.clone()), ..ServeConfig::default() };
    let mut session = Session::start(shell(&trace), runtime_config(), &cfg).unwrap();
    session.push(trace.events.clone(), 0).unwrap();
    drop(session);
    let journaled = std::fs::read(&journal).unwrap();

    // Unchecked, the recovered daemon panicked on its first Solve.
    for (algorithm, want) in [("greedy-regret", "one-shot"), ("nope", "unknown algorithm")] {
        let cfg = ServeConfig { algorithm: algorithm.to_owned(), ..cfg.clone() };
        let err = Session::recover(&cfg).unwrap_err().to_string();
        assert!(err.contains(want), "{algorithm}: {err}");
    }
    assert_eq!(std::fs::read(&journal).unwrap(), journaled, "a refused recovery journals nothing");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_snapshot_answer_is_the_journaled_snapshot_byte_for_byte() {
    let trace = trace(150, 59);
    let dir = temp_dir("one-encoding");
    let journal = dir.join("session.jsonl");
    let (addr, handle) =
        boot(ServeConfig { journal: Some(journal.clone()), ..ServeConfig::default() });
    let mut client = Client::connect_tcp(&addr).unwrap();
    client.init(shell(&trace), runtime_config()).unwrap();
    client.push(trace.events.clone()).unwrap();
    let Response::Snapshot { snapshot_json } = client.snapshot().unwrap() else {
        panic!("snapshot must answer Snapshot");
    };
    // Shutdown closes the session, which journals a final snapshot of
    // the same (fully flushed) state.
    client.shutdown().unwrap();
    handle.join().unwrap();

    let text = std::fs::read_to_string(&journal).unwrap();
    let last = text.lines().last().unwrap();
    let marker = "\"record\":{\"Snapshot\":{\"snapshot\":";
    let start = last.find(marker).expect("the final record is a Snapshot") + marker.len();
    let journaled = last[start..].strip_suffix("}}}").expect("frame closes the record");
    assert_eq!(snapshot_json, journaled, "one snapshot encoding on the wire and in the journal");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sessions_work_over_unix_sockets_too() {
    let trace = trace(60, 61);
    let dir = temp_dir("uds");
    let socket = dir.join("daemon.sock");
    let mut server = Server::bind(None, Some(&socket), ServeConfig::default()).unwrap();
    assert_eq!(server.endpoints(), vec![format!("uds:{}", socket.display())]);
    let handle = std::thread::spawn(move || server.run().unwrap());

    let mut client = Client::connect_unix(&socket).unwrap();
    let response = client.init(shell(&trace), runtime_config()).unwrap();
    assert!(matches!(response, Response::Initialized { .. }), "got {response:?}");
    client.push(trace.events.clone()).unwrap();
    let Response::Stats { cursor, pending, .. } = client.stats().unwrap() else {
        panic!("stats must answer Stats");
    };
    assert_eq!((cursor as usize, pending), (trace.events.len(), 0));
    client.shutdown().unwrap();
    handle.join().unwrap();
    assert!(!socket.exists(), "clean shutdown removes the socket file");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_daemon_on_tcp_and_uds_answers_each_endpoint_in_turn() {
    let dir = temp_dir("both");
    let socket = dir.join("daemon.sock");
    let mut server =
        Server::bind(Some("127.0.0.1:0"), Some(&socket), ServeConfig::default()).unwrap();
    let endpoints = server.endpoints();
    assert_eq!(endpoints.len(), 2, "one TCP and one Unix listener: {endpoints:?}");
    let addr = endpoints[0].strip_prefix("tcp:").unwrap().to_owned();
    let handle = std::thread::spawn(move || server.run().unwrap());

    // Alternate endpoints: each connection is served, closed, and the
    // loop goes back to waiting on both listeners for the next one.
    for round in 0..3 {
        for over_tcp in [true, false] {
            let mut client = if over_tcp {
                Client::connect_tcp(&addr).unwrap()
            } else {
                Client::connect_unix(&socket).unwrap()
            };
            let response = client.hello("both-endpoints").unwrap();
            assert!(
                matches!(response, Response::Hello { .. }),
                "round {round}, tcp {over_tcp}: got {response:?}"
            );
        }
    }
    Client::connect_unix(&socket).unwrap().shutdown().unwrap();
    handle.join().unwrap();
    assert!(!socket.exists(), "clean shutdown removes the socket file");
    std::fs::remove_dir_all(&dir).ok();
}
