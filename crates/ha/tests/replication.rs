//! Replication determinism: the standby's journal copy is byte-identical
//! to the primary's, and a promoted standby lands on the *same bytes* a
//! snapshot of the primary shows — across every topology family, any
//! shipping chunk size, and under duplicate re-ships.

use std::path::{Path, PathBuf};

use proptest::prelude::*;
use tacc_chaos::{journal_line_count, Journal, JournalRecord};
use tacc_ha::{JournalTail, StandbyCore};
use tacc_proto::Response;
use tacc_runtime::RuntimeConfig;
use tacc_serve::{ServeConfig, Session};
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

fn shell(trace: &Trace) -> Trace {
    Trace { events: Vec::new(), ..trace.clone() }
}

/// Drives a primary session and a standby core in-process: pushes the
/// trace in `chunk`-sized sequenced bursts, ships every newly journaled
/// line after each burst, promotes the standby at the end, and returns
/// `(primary snapshot, promoted snapshot, primary journal bytes,
/// standby journal bytes)`.
fn replicate_once(
    trace: &Trace,
    chunk: usize,
    dir: &Path,
    tag: &str,
) -> (String, String, Vec<u8>, Vec<u8>) {
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
    let primary_snapshot = primary.snapshot_json().unwrap();
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
    let promoted_snapshot = promoted.snapshot_json().unwrap();
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
