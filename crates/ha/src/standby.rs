//! The standby's receiving end: idempotent journal apply and promotion.

use std::fs::OpenOptions;
use std::path::PathBuf;

use tacc_chaos::{journal_line_count, parse_journal_line, Journal};
use tacc_runtime::Runtime;
use tacc_serve::{JournalState, ServeConfig, ServeError, Session};

use crate::failpoint;

/// The standby's replication state: a verbatim copy of the primary's
/// journal (fsync'd batch by batch) plus a live replica — the
/// [`JournalState`] that copy determines, kept current by stepping every
/// shipped event before the batch is acknowledged.
///
/// [`StandbyCore::promote`] hands the replica over as the serving
/// [`Session`] through [`Session::resume`], the same tail a `--recover`
/// restart ends in, so the promoted state (and the push seq-dedup
/// record) is byte-identical to a recovered primary without reading the
/// journal copy back. Under `TACC_CHECK=1` promotion also rebuilds the
/// copy the way recovery does and refuses to promote a replica that
/// differs from it.
#[derive(Debug)]
pub struct StandbyCore {
    cfg: ServeConfig,
    path: PathBuf,
    /// `None` after an apply or promotion error — the next apply or
    /// promotion re-opens the copy (healing any torn tail) and rebuilds
    /// the replica from the durable file.
    journal: Option<Journal>,
    /// Durable journal lines held (the replication cursor).
    lines: u64,
    /// What the journal copy determines; `None` until its `Begin`
    /// record arrives.
    replica: Option<JournalState>,
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
        Ok(StandbyCore { cfg: cfg.clone(), path, journal: Some(journal), lines: 0, replica: None })
    }

    /// Durable journal lines held — the cursor acknowledged back to the
    /// primary.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// The live replica's applied-event cursor (`None` until the
    /// scenario has been shipped).
    pub fn replica_cursor(&self) -> Option<u64> {
        self.replica.as_ref()?.runtime().map(Runtime::cursor)
    }

    /// Re-opens the journal copy after an apply or promotion error:
    /// heals any torn tail the failure left, recounts the durable lines,
    /// and rebuilds the replica from the file the way recovery does, so
    /// memory and disk agree again. An empty copy leaves no replica.
    fn resync(&mut self) -> Result<(), ServeError> {
        let journal =
            Journal::open_append(&self.path).map_err(|e| ServeError::state(e.to_string()))?;
        self.lines =
            journal_line_count(&self.path).map_err(|e| ServeError::state(e.to_string()))?;
        self.replica =
            if self.lines == 0 { None } else { Some(JournalState::rebuild(&self.path)?) };
        self.journal = Some(journal);
        Ok(())
    }

    /// Applies a shipped batch: `base` is the number of lines the
    /// primary believes this standby already held, `lines` the journal
    /// lines from there on. Idempotent under re-ship — lines already
    /// held are skipped and the current cursor acknowledged — while a
    /// gap (`base` beyond the held count) is a typed error, never a
    /// silent hole. Every fresh line must parse as a journal record
    /// before anything is written; the batch is fsync'd once, then the
    /// replica applies it (the first record must be a `Begin` of the
    /// current journal version, as recovery requires).
    ///
    /// Returns the new durable line count (the `ReplicaAck` cursor).
    ///
    /// # Errors
    ///
    /// [`ServeError::State`] on gaps, unparseable lines, records the
    /// replica refuses or cannot step, or filesystem failures;
    /// [`ServeError::Io`] when the `repl.apply` failpoint fires. After
    /// an error past the parse check the journal handle is dropped and
    /// the next apply resynchronizes from the durable file.
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
            let applied = match self.replica.as_mut() {
                Some(replica) => replica.apply(record),
                None => JournalState::begin(&record).map(|replica| self.replica = Some(replica)),
            };
            if let Err(e) = applied {
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

    /// Promotes this standby: appends a `Recovered` record to the open
    /// journal copy and hands the live replica over as the serving
    /// [`Session`] through [`Session::resume`] — no journal is read. The
    /// result equals a `--recover` restart from the copy byte for byte,
    /// push seq-dedup record included. Under `TACC_CHECK=1` that
    /// recovery is also rebuilt from the file and compared first: the
    /// runtime snapshot JSON, the delay matrix, the events and the
    /// seq-ack must match.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the `repl.promote` failpoint fires;
    /// [`ServeError::State`] when no record was shipped yet or the
    /// checked rebuild differs; plus everything [`JournalState::rebuild`]
    /// (on the resync after an earlier error, or under the check) and
    /// [`Session::resume`] can return. The core stays a standby on
    /// error and keeps accepting replication. A failure in the handover
    /// cuts the copy back to the lines shipped and drops the journal
    /// handle, so the next apply or promotion resynchronizes from the
    /// file.
    pub fn promote(&mut self) -> Result<Session, ServeError> {
        failpoint("repl.promote")?;
        if self.journal.is_none() {
            self.resync()?;
        }
        let Some(replica) = &self.replica else {
            return Err(ServeError::state("nothing to promote: no journal line was replicated"));
        };
        if tacc_runtime::check::enabled() {
            same_handover(replica, &JournalState::rebuild(&self.path)?)?;
        }
        // The copy must keep holding the primary's lines only, so a
        // failed handover cuts back whatever it appended: its `Recovered`
        // record may be written, torn or whole, before the error.
        let shipped_len = std::fs::metadata(&self.path)
            .map_err(|e| ServeError::io("sizing the journal copy", &e))?
            .len();
        let (Some(replica), Some(journal)) = (self.replica.take(), self.journal.take()) else {
            unreachable!("replica checked and journal resynced above");
        };
        let session = Session::resume(replica, journal, &self.cfg).map_err(|e| {
            let cut = OpenOptions::new().write(true).open(&self.path);
            match cut.and_then(|file| file.set_len(shipped_len)) {
                Ok(()) => e,
                Err(cut) => ServeError::state(format!(
                    "{e}; cutting the failed promotion's record from the copy also failed: {cut}"
                )),
            }
        })?;
        tacc_obs::counter_add("ha.failovers", 1);
        Ok(session)
    }
}

/// The recovery oracle of a checked promotion: the live replica must
/// hand over, byte for byte, what a rebuild of the journal copy derives
/// — the runtime snapshot JSON, the cluster's delay matrix (a snapshot
/// stores each tree's parents, not its distances), the events and the
/// seq-ack.
fn same_handover(replica: &JournalState, rebuilt: &JournalState) -> Result<(), ServeError> {
    let snapshot = |state: &JournalState| state.runtime().map(|r| r.snapshot().to_json());
    let delays = |state: &JournalState| -> Option<Vec<u64>> {
        state.runtime().map(|r| r.cluster().instance().delays().iter().map(f64::to_bits).collect())
    };
    let events =
        |state: &JournalState| serde_json::to_string(state.events()).expect("events serialize");
    let checks = [
        ("snapshot", snapshot(replica) == snapshot(rebuilt)),
        ("delay matrix", delays(replica) == delays(rebuilt)),
        ("events", events(replica) == events(rebuilt)),
        ("seq-ack", replica.seq_ack() == rebuilt.seq_ack()),
    ];
    for (what, same) in checks {
        if !same {
            return Err(ServeError::state(format!(
                "promotion check: the live replica's {what} differs from the journal copy's rebuild"
            )));
        }
    }
    Ok(())
}
