//! Crash-recovery journaling for trace replays.
//!
//! A [`Journal`] is an append-only JSONL file, fsync'd after every
//! record, that makes a `run-trace` replay recoverable from a hard kill
//! at *any* event boundary:
//!
//! - a `Begin` record pins the journal format version, the trace's
//!   [`Trace::fingerprint`] and the [`RuntimeConfig`], so a journal can
//!   never silently resume against the wrong trace or configuration;
//! - a `Step` record lands after every fully-processed event;
//! - a `Snapshot` record (the full [`RuntimeSnapshot`]) lands on a
//!   configurable cadence and is the restore point;
//! - a `Recovered` record marks each successful recovery, after which
//!   `Step` indices may legitimately replay (replay is deterministic, so
//!   re-processing an event reproduces the same state).
//!
//! Every line is a CRC-32 frame — `{"crc32":N,"record":{...}}` with the
//! checksum taken over the record's bytes exactly as written — so *any*
//! single corrupted byte is detected, not just bytes that break JSON
//! syntax, and a reader checks the checksum before it parses anything.
//!
//! Sessions whose events arrive over a wire instead of from a trace file
//! (the `tacc serve` daemon) add three record kinds: a `SessionScenario`
//! record pins the scenario the session was built from, `Event` records
//! persist each received event write-ahead — before it is applied — so a
//! journal alone reconstructs the entire trace a killed daemon had
//! accepted, and a `SeqAck` record, journaled in the *same* fsync as a
//! burst's `Event` records, holds the acknowledgement returned for an
//! idempotent `Push` sequence number. [`scan_journal`] reads a journal
//! without needing the trace up front, which is how a recovering daemon
//! bootstraps; a recovered (or promoted-standby) daemon restores its
//! seq-dedup state from the last `SeqAck`, so a client re-sending an
//! acked burst after failover gets the recorded acknowledgement instead
//! of a double-apply.
//!
//! The reader accepts exactly one format: CRC-framed lines under a
//! `Begin` record whose `journal_version` is [`JOURNAL_VERSION`]. An
//! unframed line is corrupt, and a journal of any other version is
//! refused with a typed [`ChaosError::Journal`].
//!
//! A `Snapshot` record is deserialized by serde, which bypasses every
//! builder check, so recovery passes it through the same input
//! quarantine (`tacc_guard::validate::validate_snapshot`) a
//! `run-trace --resume` file meets before [`Runtime::restore`] sees it.
//!
//! [`Journal::open_append`] — the recovery/standby reopen path — first
//! **truncates the torn tail**: any unterminated trailing bytes, plus a
//! final newline-terminated line whose CRC frame fails to verify (what
//! an ENOSPC or short write leaves behind). Without this, the next
//! append would concatenate onto the torn fragment and turn a tolerated
//! tail into hard mid-file corruption.
//!
//! Recovery damage tolerance is a [`RecoveryPolicy`]:
//!
//! - **Strict** ([`recover`]'s behavior): tolerates exactly a torn
//!   *final* line — what an fsync'd append leaves behind when the
//!   process dies mid-write. Corruption anywhere earlier is a hard
//!   [`ChaosError::Journal`].
//! - **Lenient** ([`recover_with`]): additionally skips corrupt
//!   mid-file records, reporting their line numbers in
//!   [`Recovery::corrupt_records`]. Safe because every record is
//!   advisory redundancy — a lost `Step` only lowers the step
//!   high-water mark, a lost `Snapshot` falls back to an earlier
//!   restore point, and deterministic replay closes the gap either way.
//!   A corrupt `Begin` is a hard error under both policies: without the
//!   trace fingerprint and config, nothing can be trusted.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};
use tacc_runtime::{Runtime, RuntimeConfig, RuntimeSnapshot};
use tacc_workload::{TimedEvent, Trace, TraceScenario};

use crate::crc::crc32;
use crate::ChaosError;

/// The journal format this build writes and the only one it reads.
pub const JOURNAL_VERSION: u32 = 4;

/// What every journal line starts with, up to its checksum's digits.
const FRAME_HEAD: &str = "{\"crc32\":";
/// What separates the checksum from the record; the line ends in `}`.
const FRAME_RECORD: &str = ",\"record\":";

/// One line of the journal.
///
/// `Snapshot` dwarfs the other variants by design — records are written
/// and read one line at a time, never held in bulk, so boxing would buy
/// nothing and cost a serialization-shape change.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[allow(clippy::large_enum_variant)]
pub enum JournalRecord {
    /// First record of every journal: format version, trace fingerprint
    /// and the replay configuration.
    Begin {
        /// Journal format version; see [`JOURNAL_VERSION`].
        journal_version: u32,
        /// [`Trace::fingerprint`] of the trace being replayed.
        trace_fingerprint: u64,
        /// The configuration the replay runs under.
        config: RuntimeConfig,
    },
    /// Event `index` was fully processed.
    Step {
        /// Index of the processed event in the trace.
        index: u64,
    },
    /// A restore point: the complete runtime state after `snapshot.cursor`
    /// events.
    Snapshot {
        /// The captured state.
        snapshot: RuntimeSnapshot,
    },
    /// A recovery re-attached to this journal at `cursor`; `Step` indices
    /// from `cursor` onward may repeat records from before the crash.
    Recovered {
        /// The cursor the recovered runtime resumed from.
        cursor: u64,
    },
    /// The scenario a wire-fed session was built from. Written once,
    /// right after `Begin`, by sessions whose events arrive over a
    /// protocol instead of from a trace file — it lets [`scan_journal`]
    /// callers rebuild the trace without any file besides the journal.
    SessionScenario {
        /// The generator scenario.
        scenario: TraceScenario,
    },
    /// An event accepted over the wire, persisted *before* it is
    /// applied. `index` is its position in the session's event timeline,
    /// so the full event list is reconstructible in order.
    Event {
        /// Position of this event in the session timeline.
        index: u64,
        /// The event itself.
        timed: TimedEvent,
    },
    /// The acknowledgement returned for an idempotent `Push`
    /// sequence number, durable in the same fsync as the burst's `Event`
    /// records. Recovery restores its seq-dedup state from the last one,
    /// so an acked burst re-sent across a crash or failover is answered
    /// from here instead of journaled twice.
    SeqAck {
        /// The client-chosen sequence number that was acknowledged.
        seq: u64,
        /// `Accepted::queued` of the recorded acknowledgement.
        queued: u64,
        /// `Accepted::pending` of the recorded acknowledgement.
        pending: u64,
    },
}

/// An open, append-only journal. Every [`Journal::append`] flushes and
/// fsyncs before returning, so a record that was appended survives any
/// subsequent kill.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
}

impl Journal {
    /// Creates (truncating) a journal and writes the `Begin` record.
    ///
    /// # Errors
    ///
    /// Returns [`ChaosError::Io`] on filesystem failures.
    pub fn create(
        path: &Path,
        trace: &Trace,
        config: &RuntimeConfig,
    ) -> Result<Journal, ChaosError> {
        failpoint(path, "journal.create")?;
        let file = File::create(path).map_err(|e| ChaosError::io(path, &e))?;
        let mut journal = Journal { file, path: path.to_path_buf() };
        journal.append(&JournalRecord::Begin {
            journal_version: JOURNAL_VERSION,
            trace_fingerprint: trace.fingerprint(),
            config: config.clone(),
        })?;
        Ok(journal)
    }

    /// Creates (truncating) an *empty* journal with no `Begin` record —
    /// the standby's receiving end, whose first shipped line IS the
    /// primary's `Begin`.
    ///
    /// # Errors
    ///
    /// Returns [`ChaosError::Io`] on filesystem failures.
    pub fn create_raw(path: &Path) -> Result<Journal, ChaosError> {
        failpoint(path, "journal.create")?;
        let file = File::create(path).map_err(|e| ChaosError::io(path, &e))?;
        Ok(Journal { file, path: path.to_path_buf() })
    }

    /// Re-opens an existing journal for appending (the recovery and
    /// standby-resync path), first truncating any torn tail — see the
    /// module docs. Without the truncation, appending after a mid-write
    /// kill or ENOSPC would concatenate onto the torn fragment and turn
    /// a tolerated tail into hard mid-file corruption.
    ///
    /// # Errors
    ///
    /// Returns [`ChaosError::Io`] on filesystem failures.
    pub fn open_append(path: &Path) -> Result<Journal, ChaosError> {
        failpoint(path, "journal.open")?;
        truncate_torn_tail(path)?;
        let file =
            OpenOptions::new().append(true).open(path).map_err(|e| ChaosError::io(path, &e))?;
        Ok(Journal { file, path: path.to_path_buf() })
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record as a single CRC-framed JSON line and fsyncs it
    /// to disk. The checksum covers the serialized record exactly as
    /// written, so any later single-byte damage — including damage that
    /// leaves the line syntactically valid — is detected on recovery.
    ///
    /// # Errors
    ///
    /// Returns [`ChaosError::Io`] on filesystem failures.
    pub fn append(&mut self, record: &JournalRecord) -> Result<(), ChaosError> {
        self.append_batch(std::slice::from_ref(record))
    }

    /// Appends a batch of records — each its own CRC-framed line — under
    /// a *single* fsync. The batch becomes durable atomically-enough for
    /// the recovery model: a kill during the write leaves at most a torn
    /// tail, which recovery already tolerates; a kill after the fsync
    /// preserves every record. One fsync per burst (instead of per
    /// event) is what makes write-ahead journaling affordable at wire
    /// ingest rates.
    ///
    /// # Errors
    ///
    /// Returns [`ChaosError::Io`] on filesystem failures.
    pub fn append_batch(&mut self, records: &[JournalRecord]) -> Result<(), ChaosError> {
        use std::fmt::Write as _;
        if records.is_empty() {
            return Ok(());
        }
        let mut lines = String::new();
        for record in records {
            let body = serde_json::to_string(record).expect("journal records are serializable");
            let checksum = crc32(body.as_bytes());
            writeln!(lines, "{FRAME_HEAD}{checksum}{FRAME_RECORD}{body}}}")
                .expect("writing to a String is infallible");
        }
        tacc_obs::counter_add("journal.records", records.len() as u64);
        self.write_and_sync(lines.as_bytes())
    }

    /// Appends pre-framed journal lines (newline-stripped, exactly as
    /// shipped by a replication stream) under a single fsync. The caller
    /// is responsible for having CRC-verified each line.
    ///
    /// # Errors
    ///
    /// Returns [`ChaosError::Io`] on filesystem failures.
    pub fn append_raw_lines(&mut self, lines: &[String]) -> Result<(), ChaosError> {
        if lines.is_empty() {
            return Ok(());
        }
        let mut buffer = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
        for line in lines {
            buffer.push_str(line);
            buffer.push('\n');
        }
        tacc_obs::counter_add("journal.records", lines.len() as u64);
        self.write_and_sync(buffer.as_bytes())
    }

    /// The shared durable-write tail: one `write_all`, one `sync_data`,
    /// both behind failpoints. A `short`-kind `journal.write` failpoint
    /// writes a torn partial prefix first — exactly the damage ENOSPC
    /// leaves — so harnesses can prove the reopen truncation heals it.
    fn write_and_sync(&mut self, bytes: &[u8]) -> Result<(), ChaosError> {
        if let Err(failure) = tacc_failpoints::check("journal.write") {
            if failure.is_short_write() {
                let torn = &bytes[..bytes.len() / 2];
                let _ = self.file.write_all(torn);
                let _ = self.file.sync_data();
            }
            return Err(ChaosError::io(&self.path, &failure.to_io_error()));
        }
        self.file.write_all(bytes).map_err(|e| ChaosError::io(&self.path, &e))?;
        if let Err(failure) = tacc_failpoints::check("journal.fsync") {
            return Err(ChaosError::io(&self.path, &failure.to_io_error()));
        }
        if tacc_obs::enabled() {
            let started = std::time::Instant::now();
            let synced = self.file.sync_data();
            tacc_obs::observe_time("journal.fsync", started.elapsed());
            synced.map_err(|e| ChaosError::io(&self.path, &e))
        } else {
            self.file.sync_data().map_err(|e| ChaosError::io(&self.path, &e))
        }
    }
}

/// Probes a named failpoint, rendering a fired fault as the same typed
/// [`ChaosError::Io`] a real filesystem failure would produce.
fn failpoint(path: &Path, name: &'static str) -> Result<(), ChaosError> {
    tacc_failpoints::check(name).map_err(|f| ChaosError::io(path, &f.to_io_error()))
}

/// Truncates the torn tail of a journal file in place: unterminated
/// trailing bytes (a mid-write kill), then a final newline-terminated
/// line that fails [`parse_journal_line`] (a torn CRC frame from ENOSPC
/// or a short write). Bounded to the final line — damage any earlier is
/// real corruption and stays visible to [`scan_journal`].
fn truncate_torn_tail(path: &Path) -> Result<(), ChaosError> {
    let bytes = std::fs::read(path).map_err(|e| ChaosError::io(path, &e))?;
    let mut keep = bytes.len();

    // Drop unterminated trailing bytes (no final newline).
    if keep > 0 && bytes[keep - 1] != b'\n' {
        keep = bytes[..keep].iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
    }
    // Drop a final complete line whose frame fails to verify, unless it
    // is the only line (a damaged Begin is fatal, not truncatable — the
    // scan must report it).
    if keep > 0 {
        let start = bytes[..keep - 1].iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
        if start > 0 && parse_journal_bytes(&bytes[start..keep - 1]).is_err() {
            keep = start;
        }
    }

    if keep < bytes.len() {
        tacc_obs::counter_add("journal.torn_tail_truncated", 1);
        let file =
            OpenOptions::new().write(true).open(path).map_err(|e| ChaosError::io(path, &e))?;
        file.set_len(keep as u64).map_err(|e| ChaosError::io(path, &e))?;
        file.sync_data().map_err(|e| ChaosError::io(path, &e))?;
    }
    Ok(())
}

/// Counts the journal lines currently in `path` (zero when the file
/// does not exist) — how a standby re-learns its durable length after
/// dropping a failed journal handle.
///
/// # Errors
///
/// Returns [`ChaosError::Io`] on any read failure other than the file
/// not existing.
pub fn journal_line_count(path: &Path) -> Result<u64, ChaosError> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(journal_lines(&bytes).count() as u64),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
        Err(e) => Err(ChaosError::io(path, &e)),
    }
}

/// A journal's lines, as every reader numbers them: its bytes split at
/// `\n` (a `\r` before it dropped), whitespace-only lines skipped. A
/// line stays bytes until [`parse_journal_bytes`] reads it, so one that
/// is not UTF-8 is one damaged line, not an unreadable file.
fn journal_lines(bytes: &[u8]) -> impl Iterator<Item = &[u8]> {
    bytes
        .split(|&b| b == b'\n')
        .map(|line| line.strip_suffix(b"\r").unwrap_or(line))
        .filter(|line| !line.iter().all(u8::is_ascii_whitespace))
}

/// [`parse_journal_line`] on a line's bytes; a line that is not UTF-8
/// fails like any other damaged frame.
fn parse_journal_bytes(line: &[u8]) -> Result<JournalRecord, String> {
    let line = std::str::from_utf8(line).map_err(|e| format!("line is not UTF-8: {e}"))?;
    parse_journal_line(line)
}

/// How [`recover_with`] treats corrupt mid-file records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// Any corrupt record before the final line is a hard error. This is
    /// the library default ([`recover`]) and the right choice when the
    /// journal is the system of record.
    #[default]
    Strict,
    /// Corrupt mid-file records are skipped and reported in
    /// [`Recovery::corrupt_records`]; recovery proceeds from what
    /// survives. The right choice when finishing the replay matters more
    /// than explaining the damage.
    Lenient,
}

/// What [`recover`] reconstructed from a journal.
#[derive(Debug)]
pub struct Recovery {
    /// The runtime, restored from the last intact snapshot (or rebuilt
    /// from the trace under the journaled config when no snapshot had
    /// landed yet). Re-running the remaining trace events reproduces the
    /// uninterrupted run byte-for-byte.
    pub runtime: Runtime,
    /// Whether a snapshot record provided the restore point.
    pub from_snapshot: bool,
    /// Highest event index with a durable `Step` record (`None` when the
    /// crash preceded the first step).
    pub last_step: Option<u64>,
    /// Whether the journal ended in a torn (unparseable) final line —
    /// expected after a mid-write kill, and tolerated under both
    /// policies.
    pub torn_tail: bool,
    /// Intact records read.
    pub records: usize,
    /// 1-based line numbers of corrupt mid-file records that were
    /// skipped. Always empty under [`RecoveryPolicy::Strict`].
    pub corrupt_records: Vec<usize>,
}

/// Parses (and CRC-verifies) one CRC-framed journal line. This is how a
/// replication standby validates each shipped line before making it
/// durable, and how a scan and a reopen read every line.
///
/// The frame is fixed — `{"crc32":N,"record":R}`, exactly as
/// [`Journal::append_batch`] writes it — so the checksum is taken over
/// the raw bytes of `R` and the record is parsed once, only after it
/// verifies. Any byte that differs from what was written fails: a digit
/// of `N` changes the stored checksum, a byte of the frame breaks the
/// frame, and a byte of `R` (whitespace included) breaks the CRC.
///
/// # Errors
///
/// A human-readable reason when the line is not an intact record.
pub fn parse_journal_line(line: &str) -> Result<JournalRecord, String> {
    let Some(framed) = line.strip_prefix(FRAME_HEAD) else {
        return Err("line is not a CRC frame".to_owned());
    };
    let digits = framed.bytes().take_while(u8::is_ascii_digit).count();
    let (stored, framed) = framed.split_at(digits);
    let stored: u32 = stored.parse().map_err(|_| "frame has a bad crc32".to_owned())?;
    let Some(body) = framed.strip_prefix(FRAME_RECORD).and_then(|r| r.strip_suffix('}')) else {
        return Err("frame is missing its record".to_owned());
    };
    let computed = crc32(body.as_bytes());
    if computed != stored {
        return Err(format!("CRC mismatch (stored {stored:#010x}, computed {computed:#010x})"));
    }
    serde_json::from_str::<JournalRecord>(body).map_err(|e| format!("bad record: {e}"))
}

/// A journal read end-to-end, validated but not yet replayed. This is
/// the bootstrap for recoveries that have *only* the journal — a
/// wire-fed daemon reconstructs its trace from the `SessionScenario` and
/// `Event` records in here.
#[derive(Debug)]
pub struct JournalScan {
    /// The trace fingerprint the journal pinned.
    pub trace_fingerprint: u64,
    /// The runtime configuration the journal pinned.
    pub config: RuntimeConfig,
    /// Every intact record, in file order (including the `Begin`).
    pub records: Vec<JournalRecord>,
    /// Whether the journal ended in a torn (unparseable) final line.
    pub torn_tail: bool,
    /// 1-based line numbers of corrupt mid-file records that were
    /// skipped. Always empty under [`RecoveryPolicy::Strict`].
    pub corrupt_records: Vec<usize>,
}

/// Reads and validates a journal without needing the trace it was
/// recorded against: line parsing under `policy`, `Begin`-record
/// presence, and the version check. Callers that *do* hold the trace
/// should use [`recover`]/[`recover_with`], which additionally verify
/// the fingerprint and rebuild the runtime.
///
/// # Errors
///
/// Returns [`ChaosError::Io`] if the journal cannot be read,
/// [`ChaosError::Journal`] if it is empty, does not start with an intact
/// `Begin` record, pins a version other than [`JOURNAL_VERSION`], or — under
/// [`RecoveryPolicy::Strict`] — has a corrupt record anywhere before the
/// final line.
pub fn scan_journal(path: &Path, policy: RecoveryPolicy) -> Result<JournalScan, ChaosError> {
    let bytes = std::fs::read(path).map_err(|e| ChaosError::io(path, &e))?;
    let lines: Vec<&[u8]> = journal_lines(&bytes).collect();
    if lines.is_empty() {
        return Err(ChaosError::Journal { reason: "journal is empty".to_owned() });
    }

    let mut records: Vec<JournalRecord> = Vec::with_capacity(lines.len());
    let mut torn_tail = false;
    let mut corrupt_records: Vec<usize> = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        match parse_journal_bytes(line) {
            Ok(record) => records.push(record),
            Err(_) if i + 1 == lines.len() && lines.len() > 1 => torn_tail = true,
            Err(reason) => match policy {
                RecoveryPolicy::Lenient if i > 0 => {
                    tacc_obs::counter_add("journal.corrupt_skipped", 1);
                    corrupt_records.push(i + 1);
                }
                _ => {
                    return Err(ChaosError::Journal {
                        reason: format!("corrupt record at line {}: {reason}", i + 1),
                    });
                }
            },
        }
    }

    let (trace_fingerprint, config) = begin_pins(records.first())?;
    let config = config.clone();
    Ok(JournalScan { trace_fingerprint, config, records, torn_tail, corrupt_records })
}

/// The pins a journal's first record carries — the trace fingerprint and
/// the runtime configuration — or the typed refusal of a journal that
/// does not open with a `Begin` record of [`JOURNAL_VERSION`]. This is
/// the check [`scan_journal`] makes, and the one a replication standby
/// makes on the first line it is shipped.
///
/// # Errors
///
/// [`ChaosError::Journal`] when `first` is missing, is not a `Begin`
/// record, or pins another journal version.
pub fn begin_pins(first: Option<&JournalRecord>) -> Result<(u64, &RuntimeConfig), ChaosError> {
    let Some(JournalRecord::Begin { journal_version, trace_fingerprint, config }) = first else {
        return Err(ChaosError::Journal {
            reason: "journal does not start with a Begin record".to_owned(),
        });
    };
    if *journal_version != JOURNAL_VERSION {
        return Err(ChaosError::Journal {
            reason: format!(
                "journal version {journal_version} (this build reads {JOURNAL_VERSION})"
            ),
        });
    }
    Ok((*trace_fingerprint, config))
}

/// Rebuilds a runtime from a journal plus the trace it was recorded
/// against, under [`RecoveryPolicy::Strict`]. See [`recover_with`].
///
/// # Errors
///
/// As [`recover_with`], with every corrupt mid-file record a hard error.
pub fn recover(path: &Path, trace: &Trace) -> Result<Recovery, ChaosError> {
    recover_with(path, trace, RecoveryPolicy::Strict)
}

/// Rebuilds a runtime from a journal plus the trace it was recorded
/// against, with `policy` deciding the fate of corrupt mid-file records
/// (a torn final line is tolerated under both policies).
///
/// # Errors
///
/// Returns [`ChaosError::Io`] if the journal cannot be read,
/// [`ChaosError::Journal`] if it is empty, does not start with an intact
/// `Begin` record, pins another journal version or a different trace
/// fingerprint, or — under [`RecoveryPolicy::Strict`] — has a corrupt
/// record anywhere before the final line; [`ChaosError::Quarantine`]
/// under either policy if the restore-point snapshot fails the input
/// quarantine; and propagates runtime restore failures.
pub fn recover_with(
    path: &Path,
    trace: &Trace,
    policy: RecoveryPolicy,
) -> Result<Recovery, ChaosError> {
    let scan = scan_journal(path, policy)?;
    if scan.trace_fingerprint != trace.fingerprint() {
        return Err(ChaosError::Journal {
            reason: format!(
                "journal was recorded against trace {:#018x}, \
                 not {:#018x}",
                scan.trace_fingerprint,
                trace.fingerprint()
            ),
        });
    }

    let mut last_snapshot: Option<&RuntimeSnapshot> = None;
    let mut last_step: Option<u64> = None;
    for record in &scan.records {
        match record {
            JournalRecord::Snapshot { snapshot } => last_snapshot = Some(snapshot),
            JournalRecord::Step { index } => {
                last_step = Some(last_step.map_or(*index, |s| s.max(*index)));
            }
            JournalRecord::Begin { .. }
            | JournalRecord::Recovered { .. }
            | JournalRecord::SessionScenario { .. }
            | JournalRecord::Event { .. }
            | JournalRecord::SeqAck { .. } => {}
        }
    }

    let (runtime, from_snapshot) = match last_snapshot {
        Some(snapshot) => {
            tacc_guard::validate::validate_snapshot(snapshot)
                .gate(false)
                .map_err(|e| ChaosError::Quarantine { reason: e.to_string() })?;
            (Runtime::restore(snapshot.clone(), trace)?, true)
        }
        None => (Runtime::from_trace(trace, scan.config)?, false),
    };
    Ok(Recovery {
        runtime,
        from_snapshot,
        last_step,
        torn_tail: scan.torn_tail,
        records: scan.records.len(),
        corrupt_records: scan.corrupt_records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacc_workload::{TraceGenerator, TraceScenario};

    fn trace() -> Trace {
        TraceGenerator::new(TraceScenario {
            num_iot: 15,
            num_servers: 3,
            ..TraceScenario::default()
        })
        .num_events(20)
        .generate(3)
        .unwrap()
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tacc-journal-test-{name}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn journal_round_trips_and_recovers_fresh() {
        let trace = trace();
        let config = RuntimeConfig::default();
        let path = temp_path("fresh");
        let mut journal = Journal::create(&path, &trace, &config).unwrap();
        journal.append(&JournalRecord::Step { index: 0 }).unwrap();
        drop(journal);

        let recovery = recover(&path, &trace).unwrap();
        assert!(!recovery.from_snapshot, "no snapshot record yet");
        assert_eq!(recovery.last_step, Some(0));
        assert!(!recovery.torn_tail);
        assert_eq!(recovery.runtime.cursor(), 0, "fresh rebuild starts at the top");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_torn_final_line_is_tolerated_but_earlier_corruption_is_not() {
        let trace = trace();
        let config = RuntimeConfig::default();
        let path = temp_path("torn");
        let mut journal = Journal::create(&path, &trace, &config).unwrap();
        journal.append(&JournalRecord::Step { index: 0 }).unwrap();
        journal.append(&JournalRecord::Step { index: 1 }).unwrap();
        drop(journal);

        // Tear the tail the way a mid-write kill would.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"Step\":{\"ind");
        std::fs::write(&path, &text).unwrap();
        let recovery = recover(&path, &trace).unwrap();
        assert!(recovery.torn_tail);
        assert_eq!(recovery.last_step, Some(1));

        // Corruption *before* the final line is a hard error.
        let mut lines: Vec<String> =
            std::fs::read_to_string(&path).unwrap().lines().map(str::to_owned).collect();
        lines[1] = "garbage".to_owned();
        std::fs::write(&path, lines.join("\n")).unwrap();
        let err = recover(&path, &trace).unwrap_err();
        assert!(matches!(err, ChaosError::Journal { .. }), "got {err:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_final_line_that_is_not_utf8_is_a_torn_tail() {
        let trace = trace();
        let path = temp_path("utf8-tail");
        let mut journal = Journal::create(&path, &trace, &RuntimeConfig::default()).unwrap();
        journal.append(&JournalRecord::Step { index: 0 }).unwrap();
        journal.append(&JournalRecord::Step { index: 1 }).unwrap();
        drop(journal);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes[..bytes.len() - 1].iter().rposition(|&b| b == b'\n').unwrap() + 1;
        bytes[last + 3] = 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        assert_eq!(journal_line_count(&path).unwrap(), 3, "a damaged line still counts");
        let recovery = recover(&path, &trace).unwrap();
        assert!(recovery.torn_tail);
        assert_eq!(recovery.last_step, Some(0));
        drop(Journal::open_append(&path).unwrap());
        assert_eq!(std::fs::read(&path).unwrap(), &bytes[..last], "the reopen truncates it");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lenient_recovery_skips_and_reports_corrupt_records() {
        let trace = trace();
        let config = RuntimeConfig::default();
        let path = temp_path("lenient");
        let mut journal = Journal::create(&path, &trace, &config).unwrap();
        for index in 0..4 {
            journal.append(&JournalRecord::Step { index }).unwrap();
        }
        drop(journal);

        // Corrupt a mid-file record (line 3 = Step 1).
        let mut lines: Vec<String> =
            std::fs::read_to_string(&path).unwrap().lines().map(str::to_owned).collect();
        lines[2] = "garbage".to_owned();
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();

        let err = recover_with(&path, &trace, RecoveryPolicy::Strict).unwrap_err();
        assert!(matches!(err, ChaosError::Journal { .. }), "strict must reject: {err:?}");

        let recovery = recover_with(&path, &trace, RecoveryPolicy::Lenient).unwrap();
        assert_eq!(recovery.corrupt_records, vec![3]);
        assert_eq!(recovery.last_step, Some(3), "surviving steps still counted");
        assert!(!recovery.torn_tail);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_corrupt_begin_record_is_fatal_even_leniently() {
        let trace = trace();
        let config = RuntimeConfig::default();
        let path = temp_path("bad-begin");
        let mut journal = Journal::create(&path, &trace, &config).unwrap();
        journal.append(&JournalRecord::Step { index: 0 }).unwrap();
        drop(journal);

        let mut lines: Vec<String> =
            std::fs::read_to_string(&path).unwrap().lines().map(str::to_owned).collect();
        lines[0] = lines[0].replace("crc32", "crc99");
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let err = recover_with(&path, &trace, RecoveryPolicy::Lenient).unwrap_err();
        let ChaosError::Journal { reason } = &err else { panic!("got {err:?}") };
        assert!(reason.contains("line 1"), "got: {reason}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unframed_lines_and_other_journal_versions_are_refused() {
        let trace = trace();
        let config = RuntimeConfig::default();
        let path = temp_path("refused");
        let mut journal = Journal::create(&path, &trace, &config).unwrap();
        journal.append(&JournalRecord::Step { index: 0 }).unwrap();
        drop(journal);
        let framed = std::fs::read_to_string(&path).unwrap();
        let unframed = serde_json::to_string(&JournalRecord::Step { index: 1 }).unwrap();

        // An unframed record line before the final line is corruption,
        // even though it parses as a record.
        let tail = framed.lines().last().unwrap();
        std::fs::write(&path, format!("{framed}{unframed}\n{tail}\n")).unwrap();
        let err = scan_journal(&path, RecoveryPolicy::Strict).unwrap_err();
        let ChaosError::Journal { reason } = &err else { panic!("got {err:?}") };
        assert!(reason.contains("line 3") && reason.contains("not a CRC frame"), "got: {reason}");

        // An unframed *final* line is a torn tail: reopening drops it.
        std::fs::write(&path, format!("{framed}{unframed}\n")).unwrap();
        drop(Journal::open_append(&path).unwrap());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), framed);

        // A CRC-intact Begin that pins any other format version is refused.
        for version in [1, 2, 3, JOURNAL_VERSION + 1] {
            let mut journal = Journal::create_raw(&path).unwrap();
            journal
                .append(&JournalRecord::Begin {
                    journal_version: version,
                    trace_fingerprint: trace.fingerprint(),
                    config: config.clone(),
                })
                .unwrap();
            journal.append(&JournalRecord::Step { index: 0 }).unwrap();
            drop(journal);
            for policy in [RecoveryPolicy::Strict, RecoveryPolicy::Lenient] {
                let err = scan_journal(&path, policy).unwrap_err();
                let ChaosError::Journal { reason } = &err else { panic!("got {err:?}") };
                assert!(reason.contains(&format!("journal version {version} ")), "got: {reason}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_snapshot_that_fails_quarantine_is_refused_under_both_policies() {
        let trace = trace();
        let config = RuntimeConfig::default();
        let mut runtime = Runtime::from_trace(&trace, config.clone()).unwrap();
        for (index, timed) in trace.events[..10].iter().enumerate() {
            runtime.step(index, timed).unwrap();
        }
        let clean = runtime.snapshot();
        let mut nan_priorities = clean.clone();
        nan_priorities.config.priorities = vec![f64::NAN; trace.scenario.num_iot];
        // Point the first link's second endpoint past the last node.
        let graph = clean.topology.graph();
        let (_, link) = graph.links().next().expect("topology has links");
        let (a, b) = (link.a().index(), link.b().index());
        let intact = format!("\"links\":[{{\"a\":{a},\"b\":{b},");
        let broken = format!("\"links\":[{{\"a\":{a},\"b\":{},", graph.node_count() + 5);
        let json = serde_json::to_string(&clean).unwrap();
        assert!(json.contains(&intact), "snapshot layout drifted");
        let dangling = RuntimeSnapshot::from_json(&json.replacen(&intact, &broken, 1)).unwrap();

        for snapshot in [nan_priorities, dangling] {
            let path = temp_path("quarantined-snapshot");
            let mut journal = Journal::create(&path, &trace, &config).unwrap();
            journal.append(&JournalRecord::Snapshot { snapshot }).unwrap();
            drop(journal);
            for policy in [RecoveryPolicy::Strict, RecoveryPolicy::Lenient] {
                let err = recover_with(&path, &trace, policy).unwrap_err();
                assert!(matches!(err, ChaosError::Quarantine { .. }), "{policy:?}: got {err:?}");
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn crc_catches_damage_that_keeps_the_json_valid() {
        let trace = trace();
        let config = RuntimeConfig::default();
        let path = temp_path("valid-json-damage");
        let mut journal = Journal::create(&path, &trace, &config).unwrap();
        journal.append(&JournalRecord::Step { index: 3 }).unwrap();
        journal.append(&JournalRecord::Step { index: 4 }).unwrap();
        drop(journal);

        // Flip the step index inside the framed record: still perfectly
        // valid JSON, but the stored CRC no longer matches. Without the
        // checksum this would have been accepted silently.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"index\":3"), "fixture drifted");
        std::fs::write(&path, text.replace("\"index\":3", "\"index\":8")).unwrap();

        let err = recover(&path, &trace).unwrap_err();
        let ChaosError::Journal { reason } = &err else { panic!("got {err:?}") };
        assert!(reason.contains("CRC mismatch"), "got: {reason}");

        let recovery = recover_with(&path, &trace, RecoveryPolicy::Lenient).unwrap();
        assert_eq!(recovery.corrupt_records, vec![2]);
        assert_eq!(recovery.last_step, Some(4), "the intact step survives");
        std::fs::remove_file(&path).ok();
    }

    /// `record` as the framed line [`Journal::append`] writes, newline
    /// stripped.
    fn framed(record: &JournalRecord) -> String {
        static FILES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let file = FILES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = temp_path(&format!("framed-{file}"));
        let mut journal = Journal::create_raw(&path).unwrap();
        journal.append(record).unwrap();
        drop(journal);
        let line = std::fs::read_to_string(&path).unwrap().trim_end().to_owned();
        std::fs::remove_file(&path).ok();
        line
    }

    /// A small runtime's snapshot, an event and a step, each framed.
    fn framed_lines() -> Vec<String> {
        let trace = TraceGenerator::new(TraceScenario {
            num_iot: 3,
            num_servers: 2,
            ..TraceScenario::default()
        })
        .num_events(4)
        .generate(5)
        .unwrap();
        let mut runtime = Runtime::from_trace(&trace, RuntimeConfig::default()).unwrap();
        runtime.run(&trace).unwrap();
        let lines: Vec<String> = [
            JournalRecord::Snapshot { snapshot: runtime.snapshot() },
            JournalRecord::Event { index: 3, timed: trace.events[3].clone() },
            JournalRecord::Step { index: 3 },
        ]
        .iter()
        .map(framed)
        .collect();
        for line in &lines {
            parse_journal_line(line).expect("an intact line parses");
        }
        lines
    }

    /// Every byte of the Event and Step lines set to every other value,
    /// and of the Snapshot line to every value one bit away (its frame
    /// bytes to every other value too): no line that is still UTF-8 —
    /// which every reader checks first — parses. Inside the record the
    /// CRC catches any change confined to one byte, whatever the value,
    /// so the bit flips stand for the rest there.
    #[test]
    fn every_single_byte_flip_of_a_framed_line_is_refused() {
        for line in framed_lines() {
            let record_at = line.find(FRAME_RECORD).unwrap() + FRAME_RECORD.len();
            let short = line.len() < 200;
            let mut bytes = line.clone().into_bytes();
            for at in 0..bytes.len() {
                let original = bytes[at];
                let every = short || at < record_at || at + 1 == bytes.len();
                let values: Vec<u8> = if every {
                    (0..=u8::MAX).filter(|&v| v != original).collect()
                } else {
                    (0..8).map(|bit| original ^ (1 << bit)).collect()
                };
                for value in values {
                    bytes[at] = value;
                    if let Ok(flipped) = std::str::from_utf8(&bytes) {
                        assert!(
                            parse_journal_line(flipped).is_err(),
                            "{}…: byte {at} set to {value:#04x} was accepted",
                            &line[..line.len().min(40)]
                        );
                    }
                }
                bytes[at] = original;
            }
        }
    }

    #[test]
    fn a_whitespace_edit_inside_a_record_is_refused() {
        for line in framed_lines() {
            let record_at = line.find(FRAME_RECORD).unwrap() + FRAME_RECORD.len();
            let mut edits = 0;
            for (at, byte) in line.bytes().enumerate().skip(record_at) {
                if byte == b':' || byte == b',' {
                    let spaced = format!("{} {}", &line[..=at], &line[at + 1..]);
                    let err = parse_journal_line(&spaced).unwrap_err();
                    assert!(err.contains("CRC mismatch"), "got: {err}");
                    edits += 1;
                }
            }
            assert!(edits > 0, "every record has a member");
        }
    }

    #[test]
    fn recovery_rejects_the_wrong_trace() {
        let trace = trace();
        let config = RuntimeConfig::default();
        let path = temp_path("wrong-trace");
        Journal::create(&path, &trace, &config).unwrap();

        let other = TraceGenerator::new(TraceScenario {
            num_iot: 15,
            num_servers: 3,
            ..TraceScenario::default()
        })
        .num_events(20)
        .generate(99)
        .unwrap();
        let err = recover(&path, &other).unwrap_err();
        let ChaosError::Journal { reason } = &err else { panic!("got {err:?}") };
        assert!(reason.contains("recorded against trace"), "got: {reason}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_batch_append_lands_every_record() {
        let trace = trace();
        let config = RuntimeConfig::default();
        let path = temp_path("batch");
        let mut journal = Journal::create(&path, &trace, &config).unwrap();
        let batch: Vec<JournalRecord> = trace.events[..4]
            .iter()
            .enumerate()
            .map(|(i, timed)| JournalRecord::Event { index: i as u64, timed: timed.clone() })
            .collect();
        journal.append_batch(&batch).unwrap();
        journal.append_batch(&[]).unwrap();
        drop(journal);

        let scan = scan_journal(&path, RecoveryPolicy::Strict).unwrap();
        assert_eq!(scan.records.len(), 5, "Begin + 4 events");
        let events: Vec<&JournalRecord> =
            scan.records.iter().filter(|r| matches!(r, JournalRecord::Event { .. })).collect();
        assert_eq!(events.len(), 4);
        for (i, record) in events.iter().enumerate() {
            let JournalRecord::Event { index, timed } = record else { unreachable!() };
            assert_eq!(*index, i as u64);
            assert_eq!(*timed, trace.events[i]);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_scan_reconstructs_a_wire_fed_session_without_the_trace() {
        let trace = trace();
        let config = RuntimeConfig::default();
        let path = temp_path("scan-session");
        // A wire-fed session journals against the *empty* trace (events
        // arrive later), pins the scenario, then write-ahead-journals
        // every event it accepts.
        let shell = Trace { events: Vec::new(), ..trace.clone() };
        let mut journal = Journal::create(&path, &shell, &config).unwrap();
        journal
            .append(&JournalRecord::SessionScenario { scenario: trace.scenario.clone() })
            .unwrap();
        let batch: Vec<JournalRecord> = trace
            .events
            .iter()
            .enumerate()
            .map(|(i, timed)| JournalRecord::Event { index: i as u64, timed: timed.clone() })
            .collect();
        journal.append_batch(&batch).unwrap();
        drop(journal);

        // The journal alone rebuilds the full trace.
        let scan = scan_journal(&path, RecoveryPolicy::Strict).unwrap();
        assert_eq!(scan.trace_fingerprint, shell.fingerprint());
        let mut scenario = None;
        let mut events = Vec::new();
        for record in &scan.records {
            match record {
                JournalRecord::SessionScenario { scenario: s } => scenario = Some(s.clone()),
                JournalRecord::Event { timed, .. } => events.push(timed.clone()),
                _ => {}
            }
        }
        let rebuilt = Trace { scenario: scenario.unwrap(), events, ..shell };
        assert_eq!(rebuilt.fingerprint(), trace.fingerprint(), "byte-identical trace");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopen_truncates_an_unterminated_tail_before_appending() {
        let trace = trace();
        let config = RuntimeConfig::default();
        let path = temp_path("reopen-unterminated");
        let mut journal = Journal::create(&path, &trace, &config).unwrap();
        journal.append(&JournalRecord::Step { index: 0 }).unwrap();
        drop(journal);
        let pristine = std::fs::read_to_string(&path).unwrap();

        // A mid-write kill: unterminated fragment at the tail. Appending
        // without truncation would concatenate onto it and corrupt the
        // next record too.
        std::fs::write(&path, format!("{pristine}{{\"crc32\":12,\"record\":{{\"St")).unwrap();
        let mut journal = Journal::open_append(&path).unwrap();
        journal.append(&JournalRecord::Step { index: 1 }).unwrap();
        drop(journal);

        let scan = scan_journal(&path, RecoveryPolicy::Strict).unwrap();
        assert!(!scan.torn_tail, "the torn fragment is gone, not tolerated");
        assert_eq!(scan.records.len(), 3, "Begin + step 0 + step 1");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopen_truncates_a_torn_crc_frame_on_the_final_line() {
        let trace = trace();
        let config = RuntimeConfig::default();
        let path = temp_path("reopen-torn-frame");
        let mut journal = Journal::create(&path, &trace, &config).unwrap();
        journal.append(&JournalRecord::Step { index: 0 }).unwrap();
        journal.append(&JournalRecord::Step { index: 1 }).unwrap();
        drop(journal);

        // ENOSPC-style damage: the final line is newline-terminated but
        // its frame no longer verifies (valid JSON, wrong checksum).
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("\"index\":1", "\"index\":7")).unwrap();
        let mut journal = Journal::open_append(&path).unwrap();
        journal.append(&JournalRecord::Step { index: 1 }).unwrap();
        drop(journal);

        let scan = scan_journal(&path, RecoveryPolicy::Strict).unwrap();
        assert_eq!(scan.records.len(), 3, "Begin + step 0 + re-appended step 1");
        assert!(scan.corrupt_records.is_empty());

        // But a damaged *Begin* is never truncated away: the scan must
        // see and report it.
        let text = std::fs::read_to_string(&path).unwrap();
        let first = text.lines().next().unwrap().replace("crc32", "crc99");
        std::fs::write(&path, format!("{first}\n")).unwrap();
        Journal::open_append(&path).unwrap();
        let err = scan_journal(&path, RecoveryPolicy::Lenient).unwrap_err();
        assert!(matches!(err, ChaosError::Journal { .. }), "got {err:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn raw_appends_ship_verbatim_lines_and_count_back() {
        let trace = trace();
        let config = RuntimeConfig::default();
        let primary = temp_path("raw-primary");
        let standby = temp_path("raw-standby");
        let mut journal = Journal::create(&primary, &trace, &config).unwrap();
        journal.append(&JournalRecord::Step { index: 0 }).unwrap();
        journal.append(&JournalRecord::SeqAck { seq: 31, queued: 4, pending: 2 }).unwrap();
        drop(journal);

        // Ship the primary's lines verbatim; the standby file becomes
        // byte-identical.
        let lines: Vec<String> =
            std::fs::read_to_string(&primary).unwrap().lines().map(str::to_owned).collect();
        for line in &lines {
            parse_journal_line(line).expect("shipped lines verify");
        }
        let mut replica = Journal::create_raw(&standby).unwrap();
        replica.append_raw_lines(&lines).unwrap();
        replica.append_raw_lines(&[]).unwrap();
        drop(replica);
        assert_eq!(
            std::fs::read(&primary).unwrap(),
            std::fs::read(&standby).unwrap(),
            "replica file is byte-identical"
        );
        assert_eq!(journal_line_count(&standby).unwrap(), 3);
        assert_eq!(journal_line_count(&temp_path("raw-nonexistent")).unwrap(), 0);

        // The scan sees the SeqAck intact.
        let scan = scan_journal(&standby, RecoveryPolicy::Strict).unwrap();
        let Some(JournalRecord::SeqAck { seq, queued, pending }) = scan.records.last() else {
            panic!("missing SeqAck");
        };
        assert_eq!((*seq, *queued, *pending), (31, 4, 2));
        std::fs::remove_file(&primary).ok();
        std::fs::remove_file(&standby).ok();
    }

    #[test]
    fn recovery_rejects_a_missing_begin_record() {
        let trace = trace();
        let path = temp_path("no-begin");
        Journal::create_raw(&path).unwrap().append(&JournalRecord::Step { index: 0 }).unwrap();
        let err = recover(&path, &trace).unwrap_err();
        let ChaosError::Journal { reason } = &err else { panic!("got {err:?}") };
        assert!(reason.contains("Begin"), "got: {reason}");
        std::fs::remove_file(&path).ok();
    }
}
