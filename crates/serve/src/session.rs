//! The daemon's resident state: one scenario, one runtime, one journal.

use serde_json::Value;
use tacc_chaos::{begin_pins, scan_journal, Journal, JournalRecord, RecoveryPolicy};
use tacc_core::Algorithm;
use tacc_gap::GapInstance;
use tacc_guard::validate::validate_snapshot;
use tacc_guard::{Budget, GuardReport, Supervisor, SupervisorConfig};
use tacc_obs::StreamWriter;
use tacc_proto::{ErrorCode, QueryState, Response};
use tacc_runtime::{DeviceState, Runtime, RuntimeConfig};
use tacc_workload::{event_faults, TimedEvent, Trace, TraceEvent, TraceScenario};

use std::path::Path;

use crate::surge::SurgeController;
use crate::{zoned_solve, ServeConfig, ServeError};

/// Probes a named failpoint, rendering a fired fault as the typed
/// [`ServeError::Io`] a real I/O failure on the same path would produce.
pub(crate) fn failpoint(name: &'static str) -> Result<(), ServeError> {
    tacc_failpoints::check(name).map_err(|f| ServeError::io(name, &f.to_io_error()))
}

/// A live control-plane session: the growing trace of wire-accepted
/// events, the runtime applying them, and the durability/observability
/// sidecars.
///
/// The coalescing contract: `push` journals and *queues* events;
/// [`Session::flush`] applies everything pending in one pass of
/// sequential [`Runtime::step`] calls — exactly the order a `run-trace`
/// replay would use — so the resulting state is independent of how
/// events were grouped into bursts, and a journal replay reproduces it
/// byte-for-byte.
#[derive(Debug)]
pub struct Session {
    trace: Trace,
    runtime: Runtime,
    journal: Option<Journal>,
    supervisor: Supervisor,
    cfg: ServeConfig,
    stream: Option<StreamWriter>,
    applied_since_snapshot: u64,
    solves: u64,
    pushes: u64,
    /// The brownout ladder; fed one observation per admission decision.
    surge: SurgeController,
    /// Sequence number of the most recently *accepted* sequenced push
    /// (`0` = none yet). A re-send of exactly this number is answered
    /// from [`Session::last_ack`] without touching state — the
    /// idempotency contract retrying clients rely on.
    last_seq: u64,
    /// The acknowledgement recorded for [`Session::last_seq`].
    last_ack: Option<Response>,
}

/// The deterministic session summary behind the `Stats` request.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionStats {
    /// Events applied so far.
    pub cursor: u64,
    /// Events accepted but not yet applied.
    pub pending: usize,
    /// Devices actively assigned.
    pub active_devices: usize,
    /// Devices shed for capacity.
    pub shed_devices: usize,
    /// Devices partitioned from every alive server.
    pub unreachable_devices: usize,
    /// Devices that departed.
    pub departed_devices: usize,
    /// Alive servers.
    pub alive_servers: usize,
    /// Total delay of the current assignment (ms).
    pub total_delay_ms: f64,
    /// Whether the current assignment is feasible.
    pub feasible: bool,
}

/// What a session journal determines: the `Begin` record's pins, the
/// scenario with every journaled event, a runtime that has applied all
/// of them, and the last push acknowledgement.
///
/// [`JournalState::rebuild`] derives it from a journal file, restoring
/// the last snapshot and replaying the events past it; a replication
/// standby keeps one current record by record through
/// [`JournalState::begin`] and [`JournalState::apply`], stepping every
/// event. Both land on the same bytes — the determinism contract of
/// snapshot restore — and [`Session::resume`] serves either.
#[derive(Debug)]
pub struct JournalState {
    /// The `Begin` record's fingerprint of the scenario-only trace.
    fingerprint: u64,
    /// The `Begin` record's runtime configuration.
    config: RuntimeConfig,
    /// The scenario and every journaled event in index order, with the
    /// runtime stepped through all of them; `None` until the journal
    /// holds a `SessionScenario` record.
    live: Option<(Trace, Runtime)>,
    /// The last `SeqAck` record, as `(seq, queued, pending)`.
    seq_ack: Option<(u64, u64, u64)>,
}

impl JournalState {
    /// Derives the state from the journal at `path` without changing
    /// the file: a strict scan, the scenario's fingerprint check against
    /// `Begin`, the input quarantine of the last snapshot, its restore,
    /// and the replay of every journaled event past it. A journal with
    /// no `SessionScenario` record (a standby's copy that holds only the
    /// `Begin`) rebuilds to a state without a runtime.
    ///
    /// # Errors
    ///
    /// [`ServeError::State`] when the journal is unreadable, damaged
    /// beyond its torn tail, out of event order or recorded against
    /// another scenario, or when its restore-point snapshot fails the
    /// quarantine, restore or replay; [`ServeError::Io`] when the
    /// `snapshot.load` failpoint fires.
    pub fn rebuild(path: &Path) -> Result<JournalState, ServeError> {
        let scan = scan_journal(path, RecoveryPolicy::Strict)
            .map_err(|e| ServeError::state(e.to_string()))?;
        let mut state = JournalState {
            fingerprint: scan.trace_fingerprint,
            config: scan.config,
            live: None,
            seq_ack: None,
        };
        let mut scenario = None;
        let mut events: Vec<TimedEvent> = Vec::new();
        let mut last_snapshot = None;
        for record in scan.records {
            match record {
                JournalRecord::SessionScenario { scenario: s } => scenario = Some(s),
                JournalRecord::Event { index, timed } => push_event(&mut events, index, timed)?,
                JournalRecord::Snapshot { snapshot } => last_snapshot = Some(snapshot),
                JournalRecord::SeqAck { seq, queued, pending } => {
                    state.seq_ack = Some((seq, queued, pending));
                }
                JournalRecord::Begin { .. }
                | JournalRecord::Step { .. }
                | JournalRecord::Recovered { .. } => {}
            }
        }
        let Some(scenario) = scenario else {
            return Ok(state);
        };
        let trace = Trace { events, ..state.shell(scenario)? };

        failpoint("snapshot.load")?;
        let mut runtime = match last_snapshot {
            Some(snapshot) => {
                // Serde bypasses every builder check: gate the restore
                // point through the same quarantine `--resume` uses.
                validate_snapshot(&snapshot)
                    .gate(false)
                    .map_err(|e| ServeError::state(e.to_string()))?;
                Runtime::restore(snapshot, &trace).map_err(|e| ServeError::state(e.to_string()))?
            }
            None => Runtime::from_trace(&trace, state.config.clone())
                .map_err(|e| ServeError::state(e.to_string()))?,
        };
        // Replay every journaled event past the restore point; the state
        // after this is byte-identical to an uninterrupted session that
        // flushed the same events.
        while (runtime.cursor() as usize) < trace.events.len() {
            let index = runtime.cursor() as usize;
            runtime
                .step(index, &trace.events[index])
                .map_err(|e| ServeError::state(e.to_string()))?;
        }
        state.live = Some((trace, runtime));
        Ok(state)
    }

    /// The state a journal's first record opens, refused exactly as
    /// [`scan_journal`] refuses a journal that does not start with a
    /// `Begin` record of the current journal version.
    ///
    /// # Errors
    ///
    /// [`ServeError::State`] carrying the scan's refusal.
    pub fn begin(first: &JournalRecord) -> Result<JournalState, ServeError> {
        let (fingerprint, config) =
            begin_pins(Some(first)).map_err(|e| ServeError::state(e.to_string()))?;
        Ok(JournalState { fingerprint, config: config.clone(), live: None, seq_ack: None })
    }

    /// Applies the journal's next record: `SessionScenario` (checked
    /// against the `Begin` fingerprint) builds the runtime, each `Event`
    /// is appended in index order and stepped at once, and `SeqAck`
    /// becomes the recorded acknowledgement. `Begin`, `Step`,
    /// `Snapshot` and `Recovered` change nothing
    /// [`JournalState::rebuild`] derives.
    ///
    /// # Errors
    ///
    /// [`ServeError::State`] for a scenario of another fingerprint, an
    /// event before the scenario or out of index order, or an event the
    /// runtime cannot step — after which the state is unusable.
    pub fn apply(&mut self, record: JournalRecord) -> Result<(), ServeError> {
        match record {
            JournalRecord::SessionScenario { scenario } => {
                let shell = self.shell(scenario)?;
                if self.live.is_none() {
                    let runtime = Runtime::from_trace(&shell, self.config.clone())
                        .map_err(|e| ServeError::state(e.to_string()))?;
                    self.live = Some((shell, runtime));
                }
            }
            JournalRecord::Event { index, timed } => {
                let Some((trace, runtime)) = self.live.as_mut() else {
                    return Err(ServeError::state("journal event before its SessionScenario"));
                };
                push_event(&mut trace.events, index, timed)?;
                let i = trace.events.len() - 1;
                runtime.step(i, &trace.events[i]).map_err(|e| ServeError::state(e.to_string()))?;
            }
            JournalRecord::SeqAck { seq, queued, pending } => {
                self.seq_ack = Some((seq, queued, pending));
            }
            JournalRecord::Begin { .. }
            | JournalRecord::Step { .. }
            | JournalRecord::Snapshot { .. }
            | JournalRecord::Recovered { .. } => {}
        }
        Ok(())
    }

    /// Every journaled event, in index order (none before the
    /// `SessionScenario` record).
    pub fn events(&self) -> &[TimedEvent] {
        self.live.as_ref().map_or(&[], |(trace, _)| &trace.events)
    }

    /// The runtime stepped through every journaled event (`None` before
    /// the `SessionScenario` record).
    pub fn runtime(&self) -> Option<&Runtime> {
        self.live.as_ref().map(|(_, runtime)| runtime)
    }

    /// The last journaled push acknowledgement, as `(seq, queued,
    /// pending)`.
    pub fn seq_ack(&self) -> Option<(u64, u64, u64)> {
        self.seq_ack
    }

    /// The scenario-only trace of `scenario`, verified against the
    /// `Begin` fingerprint so a swapped journal cannot masquerade.
    fn shell(&self, scenario: TraceScenario) -> Result<Trace, ServeError> {
        let shell = Trace { version: Trace::FORMAT_VERSION, scenario, events: Vec::new() };
        if self.fingerprint != shell.fingerprint() {
            return Err(ServeError::state(format!(
                "journal was recorded against scenario {:#018x}, not {:#018x}",
                self.fingerprint,
                shell.fingerprint()
            )));
        }
        Ok(shell)
    }
}

/// Appends journal event `index` to `events`, refusing a gap or repeat.
fn push_event(
    events: &mut Vec<TimedEvent>,
    index: u64,
    timed: TimedEvent,
) -> Result<(), ServeError> {
    if index as usize != events.len() {
        return Err(ServeError::state(format!(
            "journal event {index} arrived at position {}",
            events.len()
        )));
    }
    events.push(timed);
    Ok(())
}

impl Session {
    /// Starts a fresh session from a scenario-only trace (its `events`
    /// must be empty — events arrive over the wire). Solves the initial
    /// assignment, creates the journal (when configured) and opens the
    /// obs stream (when configured).
    ///
    /// # Errors
    ///
    /// [`ServeError::State`] for a non-empty event list, an algorithm
    /// that is not anytime-capable, or runtime construction failures;
    /// [`ServeError::Io`] for journal/stream filesystem failures.
    pub fn start(
        trace: Trace,
        config: RuntimeConfig,
        cfg: &ServeConfig,
    ) -> Result<Session, ServeError> {
        if !trace.events.is_empty() {
            return Err(ServeError::state(
                "Init traces carry the scenario only; push events over the wire",
            ));
        }
        check_algorithm(cfg)?;
        let runtime = Runtime::from_trace(&trace, config.clone())
            .map_err(|e| ServeError::state(e.to_string()))?;
        let journal = match &cfg.journal {
            Some(path) => {
                let mut journal = Journal::create(path, &trace, &config)
                    .map_err(|e| ServeError::state(e.to_string()))?;
                journal
                    .append(&JournalRecord::SessionScenario { scenario: trace.scenario.clone() })
                    .map_err(|e| ServeError::state(e.to_string()))?;
                Some(journal)
            }
            None => None,
        };
        let stream = open_stream(cfg, &trace, &runtime, false)?;
        Ok(Session {
            trace,
            runtime,
            journal,
            supervisor: Supervisor::new(SupervisorConfig::default()),
            cfg: cfg.clone(),
            stream,
            applied_since_snapshot: 0,
            solves: 0,
            pushes: 0,
            surge: SurgeController::new(cfg.surge.clone()),
            last_seq: 0,
            last_ack: None,
        })
    }

    /// Rebuilds a session from its journal alone — the `--recover`
    /// restart: [`JournalState::rebuild`] lands on exactly the state the
    /// killed daemon had acknowledged, and [`Session::resume`] serves it
    /// from the re-opened journal.
    ///
    /// # Errors
    ///
    /// [`ServeError::State`] when no journal is configured; plus
    /// everything [`JournalState::rebuild`] and [`Session::resume`] can
    /// return.
    pub fn recover(cfg: &ServeConfig) -> Result<Session, ServeError> {
        let Some(path) = &cfg.journal else {
            return Err(ServeError::state("recovery needs --journal"));
        };
        let state = JournalState::rebuild(path)?;
        let journal = Journal::open_append(path).map_err(|e| ServeError::state(e.to_string()))?;
        Session::resume(state, journal, cfg)
    }

    /// Serves a journal's state: appends a `Recovered` record to
    /// `journal` (the open handle of the journal `state` came from),
    /// opens the obs stream, and starts the session fields afresh — no
    /// solves, pushes or sub-cache, a new supervisor and brownout
    /// ladder — with the seq-dedup record restored from the last
    /// journaled acknowledgement, so an acked burst re-sent across the
    /// crash (or a failover) is answered from it instead of journaled
    /// twice. Recovery and standby promotion both end here.
    ///
    /// # Errors
    ///
    /// [`ServeError::State`] when the journal never recorded a session
    /// scenario, `cfg.algorithm` is unknown or one-shot (as
    /// [`Session::start`] refuses it), or the `Recovered` append fails;
    /// [`ServeError::Io`] for stream filesystem failures.
    pub fn resume(
        state: JournalState,
        mut journal: Journal,
        cfg: &ServeConfig,
    ) -> Result<Session, ServeError> {
        let Some((trace, runtime)) = state.live else {
            return Err(ServeError::state("journal has no SessionScenario record"));
        };
        check_algorithm(cfg)?;
        journal
            .append(&JournalRecord::Recovered { cursor: runtime.cursor() })
            .map_err(|e| ServeError::state(e.to_string()))?;
        let stream = open_stream(cfg, &trace, &runtime, true)?;
        tacc_obs::counter_add("serve.recoveries", 1);
        let (last_seq, last_ack) = match state.seq_ack {
            Some((seq, queued, pending)) => (
                seq,
                Some(Response::Accepted { queued: queued as usize, pending: pending as usize }),
            ),
            None => (0, None),
        };
        Ok(Session {
            trace,
            runtime,
            journal: Some(journal),
            supervisor: Supervisor::new(SupervisorConfig::default()),
            cfg: cfg.clone(),
            stream,
            applied_since_snapshot: 0,
            solves: 0,
            pushes: 0,
            surge: SurgeController::new(cfg.surge.clone()),
            last_seq,
            last_ack,
        })
    }

    /// Every event accepted so far, applied or pending, in timeline
    /// order.
    pub fn events(&self) -> &[TimedEvent] {
        &self.trace.events
    }

    /// Events accepted but not yet applied.
    pub fn pending(&self) -> usize {
        self.trace.events.len() - self.runtime.cursor() as usize
    }

    /// Events applied so far (the runtime cursor).
    pub fn cursor(&self) -> u64 {
        self.runtime.cursor()
    }

    /// The current brownout-ladder label (`normal`, `l1-budget`,
    /// `l2-deep-budget`, `l3-tier-shed`).
    pub fn brownout(&self) -> &'static str {
        self.surge.label()
    }

    /// The current brownout-ladder level (0–3).
    pub fn brownout_level(&self) -> u8 {
        self.surge.level()
    }

    /// The underlying runtime (read-only; tests and the server's
    /// `Initialized` response).
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// Accepts a burst: validates it whole, journals it durably (one
    /// fsync), queues it, and — once the backlog reaches
    /// [`ServeConfig::batch_size`] — applies everything in one coalesced
    /// pass. A burst that would overflow the (brownout-adjusted)
    /// admission cap is rejected atomically with `Overloaded` carrying a
    /// deterministic retry hint; an invalid burst with `BadRequest`.
    /// Neither touches session state.
    ///
    /// A nonzero `seq` makes the push idempotent: a re-send of the most
    /// recently accepted sequence number is answered with the recorded
    /// acknowledgement — no re-journal, no duplicate events — so a
    /// client that lost the ack to a timeout can retry blindly.
    /// Rejections are never recorded, so a shed sequence number retries
    /// into real admission. `seq == 0` means unsequenced.
    ///
    /// Every admission decision feeds the [`SurgeController`]; under
    /// deep brownout (L2+) a burst carrying no top-tier device faces a
    /// tightened cap — lowest tiers shed first, as deferral, never loss.
    ///
    /// # Errors
    ///
    /// [`ServeError::State`] only for journal or runtime failures —
    /// protocol-level rejections come back as `Ok(Response::...)`.
    pub fn push(&mut self, events: Vec<TimedEvent>, seq: u64) -> Result<Response, ServeError> {
        if seq != 0 && seq == self.last_seq {
            if let Some(ack) = &self.last_ack {
                tacc_obs::counter_add("serve.backpressure.dup_pushes", 1);
                return Ok(ack.clone());
            }
        }
        // The burst continues the session timeline: validated whole,
        // from the last accepted event's time.
        let start_ms = self.trace.events.last().map_or(0.0, |t| t.time_ms);
        if let Some(fault) = event_faults(&self.trace.scenario, start_ms, &events).first() {
            return Ok(Response::Error { code: ErrorCode::BadRequest, message: fault.to_string() });
        }
        let pending = self.pending();
        let low_tier = self.burst_is_low_tier(&events);
        let cap = self.surge.effective_cap(self.cfg.max_pending, low_tier);
        if pending + events.len() > cap {
            tacc_obs::counter_add("serve.overloaded", 1);
            tacc_obs::counter_add("serve.backpressure.rejects", 1);
            if cap < self.cfg.max_pending {
                tacc_obs::counter_add("serve.backpressure.tier_shed", 1);
            }
            self.surge.observe(pending, self.cfg.max_pending, true);
            let retry_after_ms = self.surge.retry_after_ms(pending, self.cfg.batch_size);
            let brownout = self.surge.label().to_owned();
            self.record_stream(
                "overload",
                vec![
                    ("pending".to_owned(), Value::UInt(pending as u64)),
                    ("cap".to_owned(), Value::UInt(cap as u64)),
                    ("rejected".to_owned(), Value::UInt(events.len() as u64)),
                    ("retry_after_ms".to_owned(), Value::UInt(retry_after_ms)),
                    ("brownout".to_owned(), Value::Str(brownout.clone())),
                ],
            )?;
            return Ok(Response::Overloaded {
                pending,
                max_pending: cap,
                rejected: events.len(),
                retry_after_ms,
                brownout,
            });
        }

        // Write-ahead: durable before acknowledged, all-or-nothing per
        // burst (one fsync). A sequenced burst's acknowledgement rides
        // the same fsync as its events (the pending count is predicted
        // across the possible batch-triggered flush below), so recovery
        // and failover restore the dedup state atomically with the
        // events it guards.
        if let Some(journal) = self.journal.as_mut() {
            let base = self.trace.events.len() as u64;
            let mut records: Vec<JournalRecord> = events
                .iter()
                .enumerate()
                .map(|(i, timed)| JournalRecord::Event {
                    index: base + i as u64,
                    timed: timed.clone(),
                })
                .collect();
            if seq != 0 {
                let pending_after = pending + events.len();
                let final_pending =
                    if pending_after >= self.cfg.batch_size { 0 } else { pending_after };
                records.push(JournalRecord::SeqAck {
                    seq,
                    queued: events.len() as u64,
                    pending: final_pending as u64,
                });
            }
            journal.append_batch(&records).map_err(|e| ServeError::state(e.to_string()))?;
        }

        let queued = events.len();
        self.trace.events.extend(events);
        self.pushes += 1;
        tacc_obs::counter_add("serve.events_accepted", queued as u64);
        let push_index = self.pushes;
        let pending_now = self.pending();
        self.surge.observe(pending_now, self.cfg.max_pending, false);
        self.record_stream(
            "push",
            vec![
                ("push".to_owned(), Value::UInt(push_index)),
                ("queued".to_owned(), Value::UInt(queued as u64)),
                ("pending".to_owned(), Value::UInt(pending_now as u64)),
            ],
        )?;

        if self.pending() >= self.cfg.batch_size {
            self.flush()?;
        }
        let response = Response::Accepted { queued, pending: self.pending() };
        if seq != 0 {
            self.last_seq = seq;
            self.last_ack = Some(response.clone());
        }
        Ok(response)
    }

    /// Whether a burst carries *no* top-tier device event — the bursts
    /// deep brownout sheds first. With no configured priorities (an
    /// untiered session) nothing is ever low tier, and non-device events
    /// (server failures, link drift) always count as top tier: shedding
    /// can only ever defer explicitly low-priority device traffic.
    fn burst_is_low_tier(&self, events: &[TimedEvent]) -> bool {
        let priorities = &self.runtime.config().priorities;
        if priorities.is_empty() || events.is_empty() {
            return false;
        }
        let top = priorities.iter().copied().fold(f64::MIN, f64::max);
        events.iter().all(|timed| match timed.event {
            TraceEvent::DeviceJoin { device } | TraceEvent::DeviceLeave { device } => {
                priorities.get(device).copied().unwrap_or(top) < top
            }
            _ => false,
        })
    }

    /// Applies every pending event in one coalesced pass. The journal
    /// already holds those events (`push` wrote them ahead), so a flush
    /// appends a record only when the snapshot cadence is due: the
    /// `Snapshot` restore point. Any other flush, and so every read that
    /// applies pending events first, writes no journal line, fsyncs
    /// nothing and leaves a replicating primary nothing to ship.
    ///
    /// # Errors
    ///
    /// [`ServeError::State`] on runtime or journal failures.
    pub fn flush(&mut self) -> Result<(u64, u64), ServeError> {
        let start = self.runtime.cursor();
        if self.pending() == 0 {
            return Ok((0, start));
        }
        while (self.runtime.cursor() as usize) < self.trace.events.len() {
            let index = self.runtime.cursor() as usize;
            self.runtime
                .step(index, &self.trace.events[index])
                .map_err(|e| ServeError::state(e.to_string()))?;
        }
        let cursor = self.runtime.cursor();
        let applied = cursor - start;
        self.applied_since_snapshot += applied;
        tacc_obs::counter_add("serve.flushes", 1);
        tacc_obs::counter_add("serve.events_applied", applied);

        if let Some(journal) = self.journal.as_mut() {
            if self.cfg.snapshot_every > 0 && self.applied_since_snapshot >= self.cfg.snapshot_every
            {
                failpoint("snapshot.save")?;
                journal
                    .append(&JournalRecord::Snapshot { snapshot: self.runtime.snapshot() })
                    .map_err(|e| ServeError::state(e.to_string()))?;
                self.applied_since_snapshot = 0;
            }
        }
        self.record_stream(
            "flush",
            vec![
                ("applied".to_owned(), Value::UInt(applied)),
                ("cursor".to_owned(), Value::UInt(cursor)),
                ("active".to_owned(), Value::UInt(self.runtime.cluster().active_count() as u64)),
                ("total_delay_ms".to_owned(), Value::Float(self.runtime.cluster().total_delay())),
            ],
        )?;
        Ok((applied, cursor))
    }

    /// Answers a device-state query against *current* state (pending
    /// events are flushed first, so an answer never describes a stale
    /// world).
    ///
    /// # Errors
    ///
    /// [`ServeError::State`] on flush failures.
    pub fn query(&mut self, device: usize) -> Result<Response, ServeError> {
        self.flush()?;
        if device >= self.trace.scenario.num_iot {
            return Ok(Response::Error {
                code: ErrorCode::BadRequest,
                message: format!("device {device} out of range ({})", self.trace.scenario.num_iot),
            });
        }
        tacc_obs::counter_add("serve.queries", 1);
        let (state, server) = match self.runtime.device_state(device) {
            DeviceState::Assigned(server) => (QueryState::Assigned, Some(server)),
            DeviceState::Shed => (QueryState::Shed, None),
            DeviceState::Unreachable => (QueryState::Unreachable, None),
            DeviceState::Departed => (QueryState::Departed, None),
        };
        let delay_ms = server.map(|s| self.runtime.cluster().instance().delay(device, s));
        Ok(Response::Device { device, state, server, delay_ms })
    }

    /// Re-solves the *current* sub-instance (active devices × alive
    /// servers) on the maintained delays under a deterministic work
    /// budget (`0` = the configured default). With `zones` ≤ 1 the
    /// session's supervisor runs the fallback ladder over the whole
    /// sub-instance; with more, [`zoned_solve`] runs one ladder per zone
    /// under budget shares that sum to the budget. Either way the answer
    /// is bounded — the primary anytime solver is truncated at the budget
    /// — and never a hang: the flat ladder answers feasibly or with a
    /// typed error, and a zoned answer is flagged infeasible when a zone
    /// whose ladder was exhausted leaves a server overloaded.
    ///
    /// Under brownout only the budget shrinks: ÷4 at L1, ÷16 at L2 and
    /// deeper. The delays, the path and the reported objective stay
    /// exact. Solve never mutates session state, so a degraded answer
    /// cannot perturb the event timeline or the final snapshot.
    ///
    /// # Errors
    ///
    /// [`ServeError::State`] on flush failures.
    pub fn solve(&mut self, budget_units: u64) -> Result<Response, ServeError> {
        self.flush()?;
        let requested = if budget_units == 0 { self.cfg.query_budget } else { budget_units };
        let units = self.surge.solve_budget(requested);
        let budget = Budget::units(units);
        let instance = self.runtime.cluster().instance();
        let active: Vec<usize> =
            (0..instance.num_devices()).filter(|&d| self.runtime.cluster().is_active(d)).collect();
        let alive: Vec<usize> = (0..instance.num_servers())
            .filter(|&j| !self.runtime.maintainer().is_failed(j))
            .collect();
        if active.is_empty() || alive.is_empty() {
            return Ok(Response::Error {
                code: ErrorCode::BadRequest,
                message: "nothing to solve: no active devices or no alive servers".to_owned(),
            });
        }
        let algorithm =
            Algorithm::by_name(&self.cfg.algorithm).expect("validated at session start");

        // Each branch answers the guard report and, per active device,
        // the slot in `alive` of its server.
        let (guard, slots): (GuardReport, Vec<Option<usize>>) = if self.cfg.zones >= 2 {
            let seed = self.next_seed();
            let answer = zoned_solve(
                self.runtime.topology(),
                self.runtime.maintainer().link_costs(),
                self.runtime.cluster().instance(),
                &active,
                &alive,
                self.cfg.zones,
                &algorithm,
                seed,
                &budget,
            );
            self.record_stream("zones", answer.zones_record())?;
            let slots = answer.solution.server_of_device.iter();
            (answer.report, slots.map(|&s| (s != u32::MAX).then_some(s as usize)).collect())
        } else {
            let rows: Vec<Vec<f64>> = active
                .iter()
                .map(|&d| alive.iter().map(|&j| instance.delay(d, j)).collect())
                .collect();
            let demands: Vec<f64> = active
                .iter()
                .flat_map(|&d| alive.iter().map(move |&j| instance.demand(d, j)))
                .collect();
            let capacities: Vec<f64> = alive.iter().map(|&j| instance.capacity(j)).collect();
            let sub = GapInstance::builder(tacc_topology::DelayMatrix::from_rows(rows))
                .demand_matrix(demands)
                .capacities(capacities)
                .build()
                .map_err(|e| ServeError::state(format!("sub-instance: {e}")))?;
            let primary = algorithm.anytime_solver(self.next_seed()).expect("validated");
            match self.supervisor.supervise(primary.as_ref(), &sub, &budget) {
                Ok((solution, guard)) => (
                    guard,
                    (0..active.len()).map(|row| solution.assignment.server_of(row)).collect(),
                ),
                Err(e) => {
                    return Ok(Response::Error {
                        code: ErrorCode::Internal,
                        message: format!("solve ladder exhausted: {e}"),
                    });
                }
            }
        };

        let assignment: Vec<(usize, usize)> = active
            .iter()
            .zip(slots)
            .filter_map(|(&device, slot)| slot.map(|s| (device, alive[s])))
            .collect();
        let degradation = guard.degradation.label().to_owned();
        self.record_stream(
            "solve",
            vec![
                ("budget".to_owned(), Value::UInt(units)),
                ("solver".to_owned(), Value::Str(guard.solver.clone())),
                ("degradation".to_owned(), Value::Str(degradation.clone())),
                ("objective".to_owned(), Value::Float(guard.objective)),
                ("feasible".to_owned(), Value::Bool(guard.feasible)),
                ("brownout".to_owned(), Value::Str(self.surge.label().to_owned())),
            ],
        )?;
        Ok(Response::Solution {
            feasible: guard.feasible,
            objective: guard.objective,
            solver: guard.solver,
            degradation,
            spent: guard.spent,
            fallbacks: guard.fallbacks,
            panics_caught: guard.panics_caught,
            assignment,
        })
    }

    /// Counts one more solve and returns its seed: the runtime seed
    /// advanced by the golden-ratio increment per solve.
    fn next_seed(&mut self) -> u64 {
        self.solves += 1;
        self.runtime.config().seed.wrapping_add(self.solves.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The deterministic session summary (flushes first).
    ///
    /// # Errors
    ///
    /// [`ServeError::State`] on flush failures.
    pub fn stats(&mut self) -> Result<SessionStats, ServeError> {
        self.flush()?;
        Ok(SessionStats {
            cursor: self.runtime.cursor(),
            pending: self.pending(),
            active_devices: self.runtime.cluster().active_count(),
            shed_devices: self.runtime.shed_count(),
            unreachable_devices: self.runtime.unreachable_count(),
            departed_devices: self.runtime.departed_count(),
            alive_servers: self.runtime.maintainer().alive_count(),
            total_delay_ms: self.runtime.cluster().total_delay(),
            feasible: self.runtime.cluster().is_feasible(),
        })
    }

    /// The full resumable snapshot, as JSON (flushes first).
    ///
    /// # Errors
    ///
    /// [`ServeError::State`] on flush failures.
    pub fn snapshot_json(&mut self) -> Result<String, ServeError> {
        self.flush()?;
        Ok(self.runtime.snapshot().to_json())
    }

    /// Finishes the session cleanly: flushes pending events, journals a
    /// final snapshot, and closes the obs stream with the registry
    /// snapshot appended. Called on `Shutdown` requests and SIGTERM.
    ///
    /// # Errors
    ///
    /// [`ServeError::State`] on flush/journal failures; [`ServeError::Io`]
    /// on stream failures.
    pub fn close(mut self) -> Result<(), ServeError> {
        self.flush()?;
        if let Some(journal) = self.journal.as_mut() {
            failpoint("snapshot.save")?;
            journal
                .append(&JournalRecord::Snapshot { snapshot: self.runtime.snapshot() })
                .map_err(|e| ServeError::state(e.to_string()))?;
        }
        if let Some(stream) = self.stream.take() {
            stream
                .finish(&tacc_obs::registry_snapshot())
                .map_err(|e| ServeError::io("finishing obs stream", &e))?;
        }
        Ok(())
    }

    /// Appends one record to the obs stream, when one is open.
    fn record_stream(
        &mut self,
        kind: &str,
        fields: Vec<(String, Value)>,
    ) -> Result<(), ServeError> {
        if let Some(stream) = self.stream.as_mut() {
            stream.record(kind, fields).map_err(|e| ServeError::io("obs stream", &e))?;
        }
        Ok(())
    }
}

/// Refuses a `cfg.algorithm` that cannot answer `Solve`: an unknown name
/// or a one-shot solver. Every session constructor checks it, so the
/// solve path can rely on an anytime solver.
fn check_algorithm(cfg: &ServeConfig) -> Result<(), ServeError> {
    let Some(algorithm) = Algorithm::by_name(&cfg.algorithm) else {
        return Err(ServeError::state(format!("unknown algorithm `{}`", cfg.algorithm)));
    };
    if algorithm.anytime_solver(0).is_none() {
        return Err(ServeError::state(format!(
            "`{}` is one-shot; Solve queries need an anytime-capable algorithm",
            cfg.algorithm
        )));
    }
    Ok(())
}

/// Opens the configured obs JSONL stream. Meta is deterministic only —
/// scenario coordinates and the session seed, never clocks — so two
/// same-seed sessions produce byte-identical streams.
fn open_stream(
    cfg: &ServeConfig,
    trace: &Trace,
    runtime: &Runtime,
    recovered: bool,
) -> Result<Option<StreamWriter>, ServeError> {
    let Some(path) = &cfg.obs_out else { return Ok(None) };
    let stream = StreamWriter::create(
        path,
        "serve",
        vec![
            ("family".to_owned(), Value::Str(format!("{:?}", trace.scenario.family))),
            ("num_iot".to_owned(), Value::UInt(trace.scenario.num_iot as u64)),
            ("num_servers".to_owned(), Value::UInt(trace.scenario.num_servers as u64)),
            ("scenario_seed".to_owned(), Value::UInt(trace.scenario.seed)),
            ("policy".to_owned(), Value::Str(runtime.config().policy.name().to_owned())),
            ("seed".to_owned(), Value::UInt(runtime.config().seed)),
            ("recovered".to_owned(), Value::Bool(recovered)),
            ("start_cursor".to_owned(), Value::UInt(runtime.cursor())),
        ],
    )
    .map_err(|e| ServeError::io("creating obs stream", &e))?;
    Ok(Some(stream))
}
