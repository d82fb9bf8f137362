//! The standby's receiving end: idempotent journal apply and promotion.

use std::path::PathBuf;

use tacc_chaos::{journal_line_count, parse_journal_line, Journal, JournalRecord};
use tacc_runtime::{Runtime, RuntimeConfig};
use tacc_serve::{ServeConfig, ServeError, Session};
use tacc_workload::Trace;

use crate::failpoint;

/// The standby's replication state: a verbatim copy of the primary's
/// journal (fsync'd batch by batch) plus an eagerly-maintained live
/// [`Runtime`] replica.
///
/// The journal copy is the source of truth — [`StandbyCore::promote`]
/// rebuilds the serving [`Session`] from it through the same
/// [`Session::recover`] path a `--recover` restart uses, so a promoted
/// standby is byte-identical to a recovered primary, and promotion costs
/// a full recovery (snapshot restore plus journal-tail replay). The live
/// replica does not shorten that: it refuses shipped events it cannot
/// step, and cross-checks the recovered cursor.
#[derive(Debug)]
pub struct StandbyCore {
    cfg: ServeConfig,
    path: PathBuf,
    /// `None` after an apply error — the next apply re-opens (healing
    /// any torn tail) and resynchronizes from the durable file.
    journal: Option<Journal>,
    /// Durable journal lines held (the replication cursor).
    lines: u64,
    replica: Replica,
}

/// The live runtime replica, built incrementally from shipped records.
#[derive(Debug, Default)]
struct Replica {
    config: Option<RuntimeConfig>,
    trace: Option<Trace>,
    runtime: Option<Runtime>,
}

impl Replica {
    /// Applies one shipped record. `Begin` carries the runtime config,
    /// `SessionScenario` materializes the runtime, each `Event` steps it
    /// eagerly; `Step`/`Snapshot`/`Recovered`/`SeqAck` are bookkeeping
    /// the recovery path consumes — the live replica ignores them.
    fn apply(&mut self, record: JournalRecord) -> Result<(), ServeError> {
        match record {
            JournalRecord::Begin { config, .. } => self.config = Some(config),
            JournalRecord::SessionScenario { scenario } => {
                let Some(config) = self.config.clone() else {
                    return Err(ServeError::state("SessionScenario shipped before Begin"));
                };
                let trace = Trace { version: Trace::FORMAT_VERSION, scenario, events: Vec::new() };
                let runtime = Runtime::from_trace(&trace, config)
                    .map_err(|e| ServeError::state(e.to_string()))?;
                self.trace = Some(trace);
                self.runtime = Some(runtime);
            }
            JournalRecord::Event { index, timed } => {
                let (Some(trace), Some(runtime)) = (self.trace.as_mut(), self.runtime.as_mut())
                else {
                    return Err(ServeError::state("Event shipped before SessionScenario"));
                };
                if index as usize != trace.events.len() {
                    return Err(ServeError::state(format!(
                        "replicated event {index} arrived at position {}",
                        trace.events.len()
                    )));
                }
                trace.events.push(timed);
                let i = trace.events.len() - 1;
                runtime.step(i, &trace.events[i]).map_err(|e| ServeError::state(e.to_string()))?;
            }
            JournalRecord::Step { .. }
            | JournalRecord::Snapshot { .. }
            | JournalRecord::Recovered { .. }
            | JournalRecord::SeqAck { .. } => {}
        }
        Ok(())
    }
}

impl StandbyCore {
    /// A fresh standby writing its journal copy to `cfg.journal`
    /// (truncating anything stale there — a standby's history *is* the
    /// primary's, shipped from line zero).
    ///
    /// # Errors
    ///
    /// [`ServeError::State`] when `cfg.journal` is unset,
    /// [`ServeError::Io`]/[`ServeError::State`] on filesystem failures.
    pub fn new(cfg: &ServeConfig) -> Result<StandbyCore, ServeError> {
        let Some(path) = cfg.journal.clone() else {
            return Err(ServeError::state("a standby needs --journal for its replica copy"));
        };
        let journal = Journal::create_raw(&path).map_err(|e| ServeError::state(e.to_string()))?;
        Ok(StandbyCore {
            cfg: cfg.clone(),
            path,
            journal: Some(journal),
            lines: 0,
            replica: Replica::default(),
        })
    }

    /// Durable journal lines held — the cursor acknowledged back to the
    /// primary.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// The live replica's applied-event cursor (`None` until the
    /// scenario has been shipped).
    pub fn replica_cursor(&self) -> Option<u64> {
        self.replica.runtime.as_ref().map(Runtime::cursor)
    }

    /// Re-opens the journal copy after an apply error: heals any torn
    /// tail the failure left, recounts the durable lines, and rebuilds
    /// the live replica from the file so memory and disk agree again.
    fn resync(&mut self) -> Result<(), ServeError> {
        let journal =
            Journal::open_append(&self.path).map_err(|e| ServeError::state(e.to_string()))?;
        self.lines =
            journal_line_count(&self.path).map_err(|e| ServeError::state(e.to_string()))?;
        let mut replica = Replica::default();
        let text = std::fs::read_to_string(&self.path)
            .map_err(|e| ServeError::io("re-reading the standby journal", &e))?;
        for line in text.lines().filter(|l| !l.is_empty()) {
            let record = parse_journal_line(line).map_err(ServeError::state)?;
            replica.apply(record)?;
        }
        self.replica = replica;
        self.journal = Some(journal);
        Ok(())
    }

    /// Applies a shipped batch: `base` is the number of lines the
    /// primary believes this standby already held, `lines` the journal
    /// lines from there on. Idempotent under re-ship — lines already
    /// held are skipped and the current cursor acknowledged — while a
    /// gap (`base` beyond the held count) is a typed error, never a
    /// silent hole. Every fresh line must parse as a journal record
    /// before anything is written; the batch is fsync'd once.
    ///
    /// Returns the new durable line count (the `ReplicaAck` cursor).
    ///
    /// # Errors
    ///
    /// [`ServeError::State`] on gaps, unparseable lines, events the
    /// replica cannot step, or filesystem failures; [`ServeError::Io`]
    /// when the `repl.apply` failpoint fires. After an error past the
    /// parse check the journal handle is dropped and the next apply
    /// resynchronizes from the durable file.
    pub fn apply(&mut self, base: u64, lines: &[String]) -> Result<u64, ServeError> {
        failpoint("repl.apply")?;
        if self.journal.is_none() {
            self.resync()?;
        }
        if base > self.lines {
            self.journal = None;
            return Err(ServeError::state(format!(
                "replication gap: standby holds {} lines but the primary shipped from {base}",
                self.lines
            )));
        }
        let already = (self.lines - base) as usize;
        if already >= lines.len() {
            return Ok(self.lines);
        }
        let fresh = &lines[already..];
        let mut records = Vec::with_capacity(fresh.len());
        for line in fresh {
            match parse_journal_line(line) {
                Ok(record) => records.push(record),
                Err(e) => {
                    return Err(ServeError::state(format!(
                        "refusing to replicate an unparseable journal line: {e}"
                    )));
                }
            }
        }
        let journal = self.journal.as_mut().expect("resynced above");
        if let Err(e) = journal.append_raw_lines(fresh) {
            self.journal = None;
            return Err(ServeError::state(e.to_string()));
        }
        for record in records {
            if let Err(e) = self.replica.apply(record) {
                // The lines are durable but the replica stopped partway
                // through them: resync from the file on the next apply
                // rather than append the same lines again.
                self.journal = None;
                return Err(e);
            }
        }
        self.lines += fresh.len() as u64;
        tacc_obs::counter_add("ha.replicated", fresh.len() as u64);
        Ok(self.lines)
    }

    /// Promotes this standby: rebuilds a serving [`Session`] from the
    /// journal copy through [`Session::recover`] — the same path a
    /// `--recover` restart takes, so the promoted state (and the push
    /// seq-dedup record) is byte-identical to a recovered primary — and
    /// cross-checks it against the live replica's cursor.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the `repl.promote` failpoint fires; plus
    /// everything [`Session::recover`] can return. The core stays a
    /// standby on error and keeps accepting replication.
    pub fn promote(&mut self) -> Result<Session, ServeError> {
        failpoint("repl.promote")?;
        // Recovery re-opens the file itself; drop our append handle.
        self.journal = None;
        let session = Session::recover(&self.cfg)?;
        if let Some(cursor) = self.replica_cursor() {
            if session.cursor() != cursor {
                return Err(ServeError::state(format!(
                    "promotion recovered cursor {} but the live replica sits at {cursor}",
                    session.cursor()
                )));
            }
        }
        tacc_obs::counter_add("ha.failovers", 1);
        Ok(session)
    }
}
