//! Replication determinism: the standby's journal copy is byte-identical
//! to the primary's, and a promoted standby lands on the *same bytes* a
//! snapshot of the primary shows — across every topology family, any
//! shipping chunk size, and under duplicate re-ships.

use std::path::{Path, PathBuf};

use proptest::prelude::*;
use tacc_chaos::{
    journal_line_count, scan_journal, Journal, JournalRecord, RecoveryPolicy, JOURNAL_VERSION,
};
use tacc_ha::{HaHooks, JournalTail, Replicator, StandbyCore};
use tacc_proto::{Request, Response};
use tacc_runtime::{Runtime, RuntimeConfig};
use tacc_serve::{Client, JournalState, ServeConfig, ServeError, Server, Session};
use tacc_workload::{TimedEvent, TopologyFamily, Trace, TraceEvent, TraceGenerator, TraceScenario};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tacc-ha-repl-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn scripted_trace(family: TopologyFamily, seed: u64) -> Trace {
    let scenario = TraceScenario { family, num_iot: 16, num_servers: 3, load_factor: 0.6, seed };
    TraceGenerator::new(scenario).num_events(48).generate(seed ^ 0x5a).unwrap()
}

/// A session's state as compared here: its snapshot JSON and its delay
/// matrix, bit for bit — a snapshot stores each tree's parents, not its
/// distances.
type State = (String, Vec<u64>);

/// A runtime's delay matrix, bit for bit.
fn delays(runtime: &Runtime) -> Vec<u64> {
    runtime.cluster().instance().delays().iter().map(|d| d.to_bits()).collect()
}

fn shell(trace: &Trace) -> Trace {
    Trace { events: Vec::new(), ..trace.clone() }
}

/// Drives a primary session and a standby core in-process: pushes the
/// trace in `chunk`-sized sequenced bursts, ships every newly journaled
/// line after each burst, promotes the standby at the end, and returns
/// `(primary state, promoted state, primary journal bytes, standby
/// journal bytes)`.
fn replicate_once(
    trace: &Trace,
    chunk: usize,
    dir: &Path,
    tag: &str,
) -> (State, State, Vec<u8>, Vec<u8>) {
    let primary_journal = dir.join(format!("primary-{tag}.jsonl"));
    let standby_journal = dir.join(format!("standby-{tag}.jsonl"));
    let primary_cfg =
        ServeConfig { journal: Some(primary_journal.clone()), ..ServeConfig::default() };
    let standby_cfg =
        ServeConfig { journal: Some(standby_journal.clone()), ..ServeConfig::default() };

    let mut primary = Session::start(shell(trace), RuntimeConfig::default(), &primary_cfg).unwrap();
    let mut tail = JournalTail::new(&primary_journal);
    let mut standby = StandbyCore::new(&standby_cfg).unwrap();

    let mut shipped = 0u64;
    for (seq, burst) in (((7u64 << 32) | 1)..).zip(trace.events.chunks(chunk.max(1))) {
        let response = primary.push(burst.to_vec(), seq).unwrap();
        assert!(matches!(response, Response::Accepted { .. }), "got {response:?}");
        let lines = tail.poll().unwrap();
        if !lines.is_empty() {
            shipped = standby.apply(shipped, &lines).unwrap();
        }
    }
    primary.flush().unwrap();
    let primary_snapshot = (primary.snapshot_json().unwrap(), delays(primary.runtime()));
    let lines = tail.poll().unwrap();
    if !lines.is_empty() {
        shipped = standby.apply(shipped, &lines).unwrap();
    }
    // Compare the copies *before* promotion: promoting appends a
    // `Recovered` record to the standby's journal, as any recovery does.
    let primary_bytes = std::fs::read(&primary_journal).unwrap();
    let standby_bytes = std::fs::read(&standby_journal).unwrap();
    assert_eq!(standby.lines(), shipped);

    let mut promoted = standby.promote().unwrap();
    let promoted_snapshot = (promoted.snapshot_json().unwrap(), delays(promoted.runtime()));
    (primary_snapshot, promoted_snapshot, primary_bytes, standby_bytes)
}

#[test]
fn a_promoted_standby_is_byte_identical_across_every_family() {
    let dir = temp_dir("families");
    for (i, family) in TopologyFamily::ALL.into_iter().enumerate() {
        let trace = scripted_trace(family, 23 + i as u64);
        let (primary, promoted, _, _) = replicate_once(&trace, 12, &dir, &format!("fam{i}"));
        assert_eq!(promoted, primary, "family {family:?}: promoted snapshot diverged");

        // Same journal prefix ⇒ same bytes, run to run.
        let (primary2, promoted2, _, _) =
            replicate_once(&trace, 12, &dir, &format!("fam{i}-again"));
        assert_eq!(primary2, primary, "family {family:?}: primary snapshot not deterministic");
        assert_eq!(promoted2, promoted, "family {family:?}: replication not deterministic");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn duplicate_reships_are_idempotent_and_gaps_are_typed() {
    let dir = temp_dir("idem");
    let trace = scripted_trace(TopologyFamily::RandomGeometric, 404);
    let journal = dir.join("primary.jsonl");
    let cfg = ServeConfig { journal: Some(journal.clone()), ..ServeConfig::default() };
    let standby_cfg =
        ServeConfig { journal: Some(dir.join("standby.jsonl")), ..ServeConfig::default() };

    let mut primary = Session::start(shell(&trace), RuntimeConfig::default(), &cfg).unwrap();
    primary.push(trace.events.clone(), 99).unwrap();
    primary.flush().unwrap();
    let mut tail = JournalTail::new(&journal);
    let lines = tail.poll().unwrap();
    assert!(lines.len() >= 3, "Begin + SessionScenario + events expected");

    let mut standby = StandbyCore::new(&standby_cfg).unwrap();
    let acked = standby.apply(0, &lines).unwrap();
    assert_eq!(acked, lines.len() as u64);

    // Re-shipping the identical batch (a retry after a lost ack) must
    // acknowledge without growing anything.
    assert_eq!(standby.apply(0, &lines).unwrap(), acked, "full re-ship must be a no-op");
    // A partial overlap applies only the unseen suffix — here: nothing.
    assert_eq!(standby.apply(acked - 1, &lines[lines.len() - 1..]).unwrap(), acked);
    // A gap is refused loudly, never papered over.
    let err = standby.apply(acked + 5, &lines).unwrap_err();
    assert!(err.to_string().contains("gap"), "gap must be a typed error, got: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_line_the_replica_cannot_step_is_journaled_once() {
    let dir = temp_dir("unsteppable");
    let trace = scripted_trace(TopologyFamily::RandomGeometric, 77);
    let journal = dir.join("primary.jsonl");
    let cfg = ServeConfig { journal: Some(journal.clone()), ..ServeConfig::default() };
    let standby_journal = dir.join("standby.jsonl");
    let standby_cfg =
        ServeConfig { journal: Some(standby_journal.clone()), ..ServeConfig::default() };

    let mut primary = Session::start(shell(&trace), RuntimeConfig::default(), &cfg).unwrap();
    primary.push(trace.events[..8].to_vec(), 1).unwrap();
    primary.flush().unwrap();
    let lines = JournalTail::new(&journal).poll().unwrap();
    let mut standby = StandbyCore::new(&standby_cfg).unwrap();
    let held = standby.apply(0, &lines).unwrap();

    // The next event of the timeline: a CRC-framed, well-formed record
    // whose link lies past the topology, so the replica cannot step it.
    let bad_path = dir.join("bad.jsonl");
    Journal::create_raw(&bad_path)
        .unwrap()
        .append(&JournalRecord::Event {
            index: 8,
            timed: TimedEvent {
                time_ms: trace.events[7].time_ms + 1.0,
                event: TraceEvent::LinkLatencyDrift { link: 1_000_000, latency_ms: 1.0 },
            },
        })
        .unwrap();
    let bad = vec![std::fs::read_to_string(&bad_path).unwrap().trim_end().to_owned()];

    // Re-shipping it after each refusal must neither duplicate the line
    // in the standby's copy nor ever be acknowledged.
    for attempt in 0..3 {
        let err = standby.apply(held, &bad).unwrap_err();
        assert!(err.to_string().contains("link 1000000"), "attempt {attempt}: {err}");
    }
    assert_eq!(journal_line_count(&standby_journal).unwrap(), held + 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// One handover case: a primary pushes the trace in sequenced bursts of
/// 7 (a coalesced flush every 16 pending events, a snapshot every
/// `snapshot_every` applied ones), optionally crashes with events still
/// pending and is recovered from its own journal after two bursts, and
/// ships every durable line. The standby promotes with the last burst
/// still unflushed on the primary, and the promoted session must equal
/// the rebuild of the standby's journal copy: snapshot JSON, delay
/// matrix, events and seq-dedup record.
fn assert_handover_equals_rebuild(
    family: TopologyFamily,
    seed: u64,
    snapshot_every: u64,
    recover_primary: bool,
    dir: &Path,
) {
    let case = format!("{family:?} snapshot_every={snapshot_every} recover={recover_primary}");
    let primary_journal = dir.join("primary.jsonl");
    let standby_journal = dir.join("standby.jsonl");
    let cfg = |journal: &Path| ServeConfig {
        journal: Some(journal.to_path_buf()),
        batch_size: 16,
        snapshot_every,
        ..ServeConfig::default()
    };
    let trace = scripted_trace(family, seed);
    let mut primary =
        Session::start(shell(&trace), RuntimeConfig::default(), &cfg(&primary_journal)).unwrap();
    let mut tail = JournalTail::new(&primary_journal);
    let mut standby = StandbyCore::new(&cfg(&standby_journal)).unwrap();

    let mut shipped = 0u64;
    let mut last = None;
    for (i, burst) in trace.events.chunks(7).enumerate() {
        if recover_primary && i == 2 {
            assert!(primary.pending() > 0, "{case}: the primary must crash with events pending");
            drop(primary);
            primary = Session::recover(&cfg(&primary_journal)).unwrap();
        }
        let seq = i as u64 + 1;
        let ack = primary.push(burst.to_vec(), seq).unwrap();
        last = Some((seq, burst.to_vec(), ack));
        shipped = standby.apply(shipped, &tail.poll().unwrap()).unwrap();
    }
    assert!(primary.pending() > 0, "{case}: the last burst must still be unflushed");
    let records = scan_journal(&standby_journal, RecoveryPolicy::Strict).unwrap().records;
    let holds = |kind: fn(&JournalRecord) -> bool| records.iter().any(kind);
    assert_eq!(
        holds(|r| matches!(r, JournalRecord::Snapshot { .. })),
        snapshot_every > 0,
        "{case}: Snapshot records in the copy"
    );
    assert_eq!(
        holds(|r| matches!(r, JournalRecord::Recovered { .. })),
        recover_primary,
        "{case}: Recovered records in the copy"
    );

    let rebuilt = JournalState::rebuild(&standby_journal).unwrap();
    let mut promoted = standby.promote().unwrap();
    assert_eq!(
        serde_json::to_string(promoted.events()).unwrap(),
        serde_json::to_string(rebuilt.events()).unwrap(),
        "{case}: promoted events differ from the rebuild"
    );
    let promoted_snapshot = promoted.snapshot_json().unwrap();
    assert_eq!(
        promoted_snapshot,
        rebuilt.runtime().unwrap().snapshot().to_json(),
        "{case}: promoted snapshot differs from the rebuild"
    );
    assert_eq!(promoted_snapshot, primary.snapshot_json().unwrap(), "{case}: primary differs");
    let promoted_delays = delays(promoted.runtime());
    assert_eq!(promoted_delays, delays(rebuilt.runtime().unwrap()), "{case}: rebuilt delays");
    assert_eq!(promoted_delays, delays(primary.runtime()), "{case}: primary delays");

    // The dedup record: re-sending the last acknowledged burst under its
    // seq is answered from the record and journals nothing.
    let (seq, burst, ack) = last.unwrap();
    let Response::Accepted { queued, pending } = ack else { panic!("{case}: acked {ack:?}") };
    assert_eq!(rebuilt.seq_ack(), Some((seq, queued as u64, pending as u64)), "{case}: seq-ack");
    let lines = journal_line_count(&standby_journal).unwrap();
    let events = promoted.events().len();
    assert_eq!(promoted.push(burst, seq).unwrap(), ack, "{case}: re-sent seq not deduplicated");
    assert_eq!(journal_line_count(&standby_journal).unwrap(), lines, "{case}: re-send journaled");
    assert_eq!(promoted.events().len(), events, "{case}: re-send queued events");
}

#[test]
fn promotion_hands_over_what_recovery_rebuilds_from_the_copy() {
    for (i, family) in TopologyFamily::ALL.into_iter().enumerate() {
        for snapshot_every in [4, 0] {
            for recover_primary in [false, true] {
                let dir = temp_dir(&format!("handover-{i}-{snapshot_every}-{recover_primary}"));
                assert_handover_equals_rebuild(
                    family,
                    61 + i as u64,
                    snapshot_every,
                    recover_primary,
                    &dir,
                );
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }
}

#[test]
fn a_read_that_takes_no_snapshot_leaves_nothing_to_ship() {
    let dir = temp_dir("read-ships-nothing");
    let trace = scripted_trace(TopologyFamily::ErdosRenyi, 31);
    let journal = dir.join("primary.jsonl");
    let cfg = ServeConfig { journal: Some(journal.clone()), ..ServeConfig::default() };
    let standby_cfg =
        ServeConfig { journal: Some(dir.join("standby.jsonl")), ..ServeConfig::default() };
    let mut primary = Session::start(shell(&trace), RuntimeConfig::default(), &cfg).unwrap();
    let mut tail = JournalTail::new(&journal);
    let mut standby = StandbyCore::new(&standby_cfg).unwrap();

    let mut shipped = 0;
    for (seq, burst) in (1..).zip(trace.events.chunks(8)) {
        primary.push(burst.to_vec(), seq).unwrap();
        let lines = tail.poll().unwrap();
        assert!(!lines.is_empty(), "a push ships its events");
        shipped = standby.apply(shipped, &lines).unwrap();
        // The query applies the burst (fewer events than the snapshot
        // cadence): nothing to make durable, nothing to ship.
        assert!(primary.pending() > 0);
        let offset = tail.offset();
        assert!(matches!(primary.query(0).unwrap(), Response::Device { .. }));
        assert_eq!(tail.poll().unwrap(), Vec::<String>::new(), "burst {seq}: a query shipped");
        assert_eq!(tail.offset(), offset);
    }
    let mut promoted = standby.promote().unwrap();
    assert_eq!(promoted.snapshot_json().unwrap(), primary.snapshot_json().unwrap());
    assert_eq!(delays(promoted.runtime()), delays(primary.runtime()));
    std::fs::remove_dir_all(&dir).ok();
}

/// Boots a daemon on a Unix socket in a thread, running `hooks`.
fn boot_with(
    socket: &Path,
    cfg: ServeConfig,
    mut hooks: HaHooks,
) -> std::thread::JoinHandle<Result<(), ServeError>> {
    let mut server = Server::bind(None, Some(socket), cfg).unwrap();
    std::thread::spawn(move || server.run_with(&mut hooks))
}

#[test]
fn a_primary_restarted_over_an_old_journal_ships_only_its_new_session() {
    let dir = temp_dir("stale-journal");
    let primary_journal = dir.join("primary.jsonl");
    let standby_journal = dir.join("standby.jsonl");
    let (primary_sock, standby_sock) = (dir.join("primary.sock"), dir.join("standby.sock"));
    let primary_cfg =
        ServeConfig { journal: Some(primary_journal.clone()), ..ServeConfig::default() };
    let standby_cfg =
        ServeConfig { journal: Some(standby_journal.clone()), ..ServeConfig::default() };

    // An earlier session's journal at the primary's path.
    let old = scripted_trace(TopologyFamily::Grid, 7);
    let mut earlier = Session::start(shell(&old), RuntimeConfig::default(), &primary_cfg).unwrap();
    earlier.push(old.events.clone(), 1).unwrap();
    earlier.close().unwrap();

    // A fresh standby, and a primary started over that journal without
    // `--recover`: its first requests precede any session.
    let trace = scripted_trace(TopologyFamily::Grid, 8);
    let standby = boot_with(
        &standby_sock,
        standby_cfg.clone(),
        HaHooks::standby(StandbyCore::new(&standby_cfg).unwrap()),
    );
    let replicator = Replicator::new(&primary_journal, standby_sock.to_str().unwrap());
    let primary = boot_with(&primary_sock, primary_cfg, HaHooks::primary(replicator));
    let mut client = Client::connect_unix(&primary_sock).unwrap();
    assert!(matches!(client.hello("stale-journal").unwrap(), Response::Hello { .. }));
    let response = client.init(shell(&trace), RuntimeConfig::default()).unwrap();
    assert!(matches!(response, Response::Initialized { .. }), "got {response:?}");
    for (seq, burst) in (1..).zip(trace.events.chunks(10)) {
        let response = client.request(&Request::Push { events: burst.to_vec(), seq }).unwrap();
        assert!(matches!(response, Response::Accepted { .. }), "seq {seq}: {response:?}");
    }
    // Every acked line is on the standby: its copy is the new journal.
    assert_eq!(std::fs::read(&standby_journal).unwrap(), std::fs::read(&primary_journal).unwrap());
    let expected = {
        let Response::Snapshot { snapshot_json } = client.snapshot().unwrap() else {
            panic!("snapshot must answer Snapshot");
        };
        snapshot_json
    };
    client.shutdown().unwrap();
    drop(client);
    primary.join().unwrap().unwrap();

    // The promoted standby serves the new session, not the old one.
    let mut client = Client::connect_unix(&standby_sock).unwrap();
    assert!(matches!(client.request(&Request::Promote).unwrap(), Response::Promoted { .. }));
    let Response::Snapshot { snapshot_json } = client.snapshot().unwrap() else {
        panic!("snapshot must answer Snapshot");
    };
    assert_eq!(snapshot_json, expected, "the promoted standby lost the new session");
    client.shutdown().unwrap();
    standby.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn promoting_before_the_session_scenario_is_a_typed_error() {
    let dir = temp_dir("early-promote");
    let trace = scripted_trace(TopologyFamily::BarabasiAlbert, 5);
    let journal = dir.join("primary.jsonl");
    let cfg = ServeConfig { journal: Some(journal.clone()), ..ServeConfig::default() };
    let standby_cfg =
        ServeConfig { journal: Some(dir.join("standby.jsonl")), ..ServeConfig::default() };
    let mut primary = Session::start(shell(&trace), RuntimeConfig::default(), &cfg).unwrap();
    primary.push(trace.events.clone(), 1).unwrap();
    let lines = JournalTail::new(&journal).poll().unwrap();

    let mut standby = StandbyCore::new(&standby_cfg).unwrap();
    let err = standby.promote().unwrap_err();
    assert!(matches!(err, ServeError::State { .. }), "nothing shipped: {err}");
    assert_eq!(standby.apply(0, &lines[..1]).unwrap(), 1);
    let err = standby.promote().unwrap_err();
    assert!(matches!(err, ServeError::State { .. }), "Begin only: {err}");
    assert!(err.to_string().contains("SessionScenario"), "Begin only: {err}");

    // Still a standby: the rest of the journal ships and promotes.
    assert_eq!(standby.apply(1, &lines[1..]).unwrap(), lines.len() as u64);
    let mut promoted = standby.promote().unwrap();
    assert_eq!(promoted.snapshot_json().unwrap(), primary.snapshot_json().unwrap());
    assert_eq!(delays(promoted.runtime()), delays(primary.runtime()));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_copy_that_does_not_open_with_a_current_begin_is_refused_as_recovery_refuses_it() {
    let dir = temp_dir("bad-begin");
    let trace = scripted_trace(TopologyFamily::Grid, 12);
    let journal = dir.join("primary.jsonl");
    let cfg = ServeConfig { journal: Some(journal.clone()), ..ServeConfig::default() };
    let standby_cfg =
        ServeConfig { journal: Some(dir.join("standby.jsonl")), ..ServeConfig::default() };
    let mut primary = Session::start(shell(&trace), RuntimeConfig::default(), &cfg).unwrap();
    primary.push(trace.events[..4].to_vec(), 1).unwrap();
    let lines = JournalTail::new(&journal).poll().unwrap();

    // A Begin that pins the previous journal version.
    let old_path = dir.join("old.jsonl");
    Journal::create_raw(&old_path)
        .unwrap()
        .append(&JournalRecord::Begin {
            journal_version: JOURNAL_VERSION - 1,
            trace_fingerprint: shell(&trace).fingerprint(),
            config: RuntimeConfig::default(),
        })
        .unwrap();
    let old_begin = std::fs::read_to_string(&old_path).unwrap().trim_end().to_owned();

    // A stream that starts past its Begin, and one opening with the old
    // version: the replica refuses each with recovery's own error.
    for (first, want) in [(&lines[1], "Begin record"), (&old_begin, "journal version")] {
        let mut standby = StandbyCore::new(&standby_cfg).unwrap();
        let err = standby.apply(0, std::slice::from_ref(first)).unwrap_err();
        assert!(matches!(err, ServeError::State { .. }), "got {err}");
        assert!(err.to_string().contains(want), "got {err}");
        let recovered = Session::recover(&standby_cfg).unwrap_err();
        assert_eq!(err.to_string(), recovered.to_string(), "replica and recovery disagree");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn promoting_past_an_unsteppable_line_reports_the_recovery_error() {
    let dir = temp_dir("unsteppable-promote");
    let trace = scripted_trace(TopologyFamily::RandomGeometric, 78);
    let journal = dir.join("primary.jsonl");
    let cfg = ServeConfig { journal: Some(journal.clone()), ..ServeConfig::default() };
    let standby_cfg =
        ServeConfig { journal: Some(dir.join("standby.jsonl")), ..ServeConfig::default() };
    let mut primary = Session::start(shell(&trace), RuntimeConfig::default(), &cfg).unwrap();
    primary.push(trace.events[..8].to_vec(), 1).unwrap();
    let lines = JournalTail::new(&journal).poll().unwrap();
    let mut standby = StandbyCore::new(&standby_cfg).unwrap();
    let held = standby.apply(0, &lines).unwrap();

    // A well-formed record of event 8 on a link past the topology.
    let bad_path = dir.join("bad.jsonl");
    Journal::create_raw(&bad_path)
        .unwrap()
        .append(&JournalRecord::Event {
            index: 8,
            timed: TimedEvent {
                time_ms: trace.events[7].time_ms + 1.0,
                event: TraceEvent::LinkLatencyDrift { link: 1_000_000, latency_ms: 1.0 },
            },
        })
        .unwrap();
    let bad = vec![std::fs::read_to_string(&bad_path).unwrap().trim_end().to_owned()];
    assert!(standby.apply(held, &bad).is_err());

    let err = standby.promote().unwrap_err();
    assert!(matches!(err, ServeError::State { .. }), "got {err}");
    assert!(err.to_string().contains("link 1000000"), "got {err}");
    let recovered = Session::recover(&standby_cfg).unwrap_err();
    assert_eq!(err.to_string(), recovered.to_string(), "promotion and recovery disagree");
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any (family, seed, chunking) ⇒ the promoted standby's snapshot
    /// equals the primary's and both journals hold identical bytes.
    #[test]
    fn replication_is_deterministic(
        family_idx in 0usize..6,
        seed in 0u64..1_000,
        chunk in 1usize..25,
    ) {
        let dir = temp_dir(&format!("prop-{family_idx}-{seed}-{chunk}"));
        let trace = scripted_trace(TopologyFamily::ALL[family_idx], seed);
        let (primary, promoted, pj, sj) = replicate_once(&trace, chunk, &dir, "prop");
        prop_assert_eq!(&promoted, &primary, "promoted snapshot diverged from the primary");
        prop_assert_eq!(pj, sj, "journal copies diverged");
        std::fs::remove_dir_all(&dir).ok();
    }
}
