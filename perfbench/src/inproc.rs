//! The traced run's in-process pass: one epoch's request sequence sent
//! through each layer's public entry points, with a span around every
//! call.
//!
//! The pass is the pair, folded into one process. Each request is
//! encoded, framed over a `UnixStream` pair and decoded (proto), then
//! dispatched into a primary [`Session`] (serve). After every request
//! the primary's new journal lines are tailed, shipped as a `Replicate`
//! frame and applied by a [`StandbyCore`] (ha), exactly as the
//! primary's hooks do. The failover promotes the standby and the tail
//! cycles run on the promoted session.
//!
//! Some layers are reachable only inside another layer's call: the
//! journal append inside `Session::push`, the runtime step inside a
//! flush, the zone and guard calls inside a solve, the scan, restore
//! and replay inside a promotion. For those the pass calls the inner
//! layer's public function on identical inputs (a shadow runtime fed
//! the same events, a shadow journal fed the same records) right after
//! the outer call returns, as the outer span's shadow children. The
//! outer span's self time is then its own call minus its children, and
//! the sum of self times over a request's spans estimates what the
//! request cost.

use std::collections::BTreeMap;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use tacc_chaos::{parse_journal_line, scan_journal, Journal, JournalRecord, RecoveryPolicy};
use tacc_core::Algorithm;
use tacc_guard::{Budget, DegradationLevel, Supervisor, SupervisorConfig};
use tacc_ha::{JournalTail, StandbyCore};
use tacc_proto::{
    decode_request, decode_response, encode_request, encode_response, read_frame_event,
    write_frame, FrameEvent, Request, Response, MAX_FRAME_LEN,
};
use tacc_runtime::Runtime;
use tacc_serve::{dispatch_request, ServeConfig, Session};
use tacc_workload::{TimedEvent, Trace, TraceEvent};
use tacc_zone::{RouterConfig, ZoneLayout};

use crate::drive::Observed;
use crate::metrics::Metric;
use crate::stats::median;
use crate::tracer::Tracer;
use crate::workload::{Inputs, Shape, BURST};

/// Frames at most this large fit the socket buffer and are written and
/// read on one thread; larger ones need a concurrent reader.
const INLINE_FRAME: usize = 64 * 1024;

/// Counts the pass gathers next to its spans.
#[derive(Debug, Default)]
pub struct Layers {
    pub frames: u64,
    pub frame_bytes: u64,
    pub max_repl_payload: u64,
    pub requests: u64,
    pub errors: u64,
    pub flushes: u64,
    pub flushed_events: u64,
    pub journal_records: u64,
    pub journal_fsyncs: u64,
    pub journal_bytes: u64,
    pub snapshots: u64,
    pub snapshot_bytes: u64,
    pub max_line: u64,
    pub scan_bytes: u64,
    pub scan_useful_bytes: u64,
    pub lines_shipped: u64,
    pub bytes_shipped: u64,
    pub repl_errors: u64,
    pub replay_events: u64,
    pub refinements: u64,
    pub spills: u64,
    pub routed: u64,
    pub units: u64,
    pub fallbacks: u64,
    pub zone_solves: u64,
    pub full: u64,
    /// Requests of each kind the pass sent.
    pub kinds: BTreeMap<&'static str, u64>,
}

struct Pass<'a> {
    inputs: &'a Inputs,
    tracer: &'a mut Tracer,
    layers: Layers,
    cfg: ServeConfig,
    session: Option<Session>,
    wire: (UnixStream, UnixStream),
    /// Primary role: the journal tail and the standby it ships to.
    tail: Option<JournalTail>,
    standby: Option<StandbyCore>,
    shipped: u64,
    standby_journal: PathBuf,
    /// Shadows of the primary's runtime, the standby's replica, and the
    /// two journals.
    shadow: Option<Runtime>,
    replica: Option<Runtime>,
    replica_config: Option<tacc_runtime::RuntimeConfig>,
    replica_trace: Option<Trace>,
    shadow_journal: Journal,
    shadow_raw: Journal,
    /// The session's event timeline, for the shadow flush.
    events: Vec<TimedEvent>,
    since_snapshot: u64,
    solves: u64,
    /// The objective of the last shadow solve, checked against the real
    /// answer.
    shadow_objective: Option<f64>,
    seq: u64,
    req: u64,
}

fn kind_of(event: &TraceEvent) -> &'static str {
    match event {
        TraceEvent::DeviceJoin { .. } => "join",
        TraceEvent::DeviceLeave { .. } => "leave",
        TraceEvent::ServerFail { .. } => "fail",
        TraceEvent::ServerRecover { .. } => "recover",
        TraceEvent::LinkLatencyDrift { .. } => "drift",
    }
}

fn step_span(role: &str, event: &TraceEvent) -> &'static str {
    match (role, kind_of(event)) {
        ("flush", "join") => "flush.step.join",
        ("flush", "leave") => "flush.step.leave",
        ("flush", "fail") => "flush.step.fail",
        ("flush", "recover") => "flush.step.recover",
        ("flush", _) => "flush.step.drift",
        (_, "join") => "replica.step.join",
        (_, "leave") => "replica.step.leave",
        (_, "fail") => "replica.step.fail",
        (_, "recover") => "replica.step.recover",
        _ => "replica.step.drift",
    }
}

impl Pass<'_> {
    fn time<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        kind: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.tracer.enter(name, layer, kind, self.req);
        let out = f();
        self.tracer.exit(span);
        out
    }

    /// One frame written on one end of the socket pair and read on the
    /// other.
    fn frame(&mut self, kind: &'static str, payload: &[u8]) -> Result<Vec<u8>, String> {
        self.layers.frames += 1;
        self.layers.frame_bytes += payload.len() as u64 + 4;
        let span = self.tracer.enter("frame_io", "proto", kind, self.req);
        let (a, b) = (&mut self.wire.0, &mut self.wire.1);
        let read = if payload.len() <= INLINE_FRAME {
            write_frame(a, payload).map_err(|e| e.to_string())?;
            read_frame_event(b)
        } else {
            std::thread::scope(|scope| {
                let writer = scope.spawn(move || write_frame(a, payload));
                let read = read_frame_event(b);
                writer.join().expect("frame writer").and(read)
            })
        };
        self.tracer.exit(span);
        match read.map_err(|e| e.to_string())? {
            FrameEvent::Frame(bytes) => Ok(bytes),
            other => Err(format!("the socket pair yielded {other:?}")),
        }
    }

    /// Sends one request through proto → serve → ha → proto.
    fn request(&mut self, kind: &'static str, request: Request) -> Result<Response, String> {
        self.req += 1;
        self.layers.requests += 1;
        *self.layers.kinds.entry(kind).or_default() += 1;
        let root = self.tracer.enter("request", "pass", kind, self.req);
        let id = self.req;
        let payload = self.time("encode", "proto", kind, || encode_request(id, &request));
        let payload = self.frame(kind, &payload)?;
        let frame = self
            .time("decode", "proto", kind, || decode_request(&payload))
            .map_err(|e| e.to_string())?;

        let before = self.session.as_ref().map_or(0, Session::cursor);
        let pending = self.session.as_ref().map_or(0, Session::pending);
        let copy = frame.request.clone();
        let span = self.tracer.enter("dispatch", "serve", kind, self.req);
        let (response, _) = dispatch_request(&mut self.session, &self.cfg, frame.request);
        self.tracer.exit(span);
        self.tracer.adopt(span);
        self.shadow_dispatch(kind, &copy, pending)?;
        self.tracer.release(span);
        if matches!(response, Response::Error { .. } | Response::Overloaded { .. }) {
            self.layers.errors += 1;
            return Err(format!("in-process {kind} answered {response:?}"));
        }
        let after = self.session.as_ref().map_or(0, Session::cursor);
        if after > before {
            self.layers.flushes += 1;
            self.layers.flushed_events += after - before;
        }
        self.check_shadows(&response)?;
        if self.standby.is_some() {
            self.replicate(kind)?;
        }

        let bytes = self.time("encode", "proto", kind, || encode_response(id, &response));
        let bytes = self.frame(kind, &bytes)?;
        let answer = self
            .time("decode", "proto", kind, || decode_response(&bytes))
            .map_err(|e| e.to_string())?;
        self.tracer.exit(root);
        Ok(answer.response)
    }

    /// The inner-layer calls `dispatch_request` made, repeated on
    /// identical inputs inside the dispatch span.
    fn shadow_dispatch(
        &mut self,
        kind: &'static str,
        request: &Request,
        pending: usize,
    ) -> Result<(), String> {
        match request {
            Request::Init { trace, config } => {
                // `Runtime::from_trace` computes the delay matrix inside;
                // timing one more on its topology splits that share off.
                let span = self.tracer.enter("build", "runtime", kind, self.req);
                let runtime = Runtime::from_trace(trace, config.clone());
                self.tracer.exit(span);
                let runtime = runtime.map_err(|e| e.to_string())?;
                self.tracer.adopt(span);
                self.time("delay_matrix", "topology", kind, || {
                    std::hint::black_box(runtime.topology().delay_matrix(&config.delay_model))
                });
                self.tracer.release(span);
                self.shadow = Some(runtime);
                let records = [
                    JournalRecord::Begin {
                        journal_version: tacc_chaos::JOURNAL_VERSION,
                        trace_fingerprint: trace.fingerprint(),
                        config: config.clone(),
                    },
                    JournalRecord::SessionScenario { scenario: trace.scenario.clone() },
                ];
                for record in records {
                    self.append(kind, std::slice::from_ref(&record))?;
                }
            }
            Request::Push { events, seq } => {
                let base = self.events.len() as u64;
                let mut records: Vec<JournalRecord> = events
                    .iter()
                    .enumerate()
                    .map(|(i, timed)| JournalRecord::Event {
                        index: base + i as u64,
                        timed: timed.clone(),
                    })
                    .collect();
                let after = pending + events.len();
                let final_pending = if after >= self.cfg.batch_size { 0 } else { after };
                records.push(JournalRecord::SeqAck {
                    seq: *seq,
                    queued: events.len() as u64,
                    pending: final_pending as u64,
                });
                self.append(kind, &records)?;
                self.events.extend(events.iter().cloned());
                if after >= self.cfg.batch_size {
                    self.shadow_flush(kind)?;
                }
            }
            Request::Query { .. } => self.shadow_flush(kind)?,
            Request::Solve { budget_units } => {
                self.shadow_flush(kind)?;
                let units = if *budget_units == 0 { self.cfg.query_budget } else { *budget_units };
                self.shadow_solve(kind, units)?;
            }
            _ => {}
        }
        Ok(())
    }

    fn append(&mut self, kind: &'static str, records: &[JournalRecord]) -> Result<(), String> {
        self.layers.journal_records += records.len() as u64;
        self.layers.journal_fsyncs += 1;
        let span = self.tracer.enter("append", "journal", kind, self.req);
        let result = self.shadow_journal.append_batch(records);
        self.tracer.exit(span);
        result.map_err(|e| e.to_string())
    }

    /// `Session::flush`: step every pending event, then journal the
    /// high-water mark and, on the snapshot cadence, a snapshot.
    fn shadow_flush(&mut self, kind: &'static str) -> Result<(), String> {
        let mut runtime = self.shadow.take().ok_or("flush before Init")?;
        let start = runtime.cursor();
        while (runtime.cursor() as usize) < self.events.len() {
            let index = runtime.cursor() as usize;
            let name = step_span("flush", &self.events[index].event);
            let span = self.tracer.enter(name, "runtime", kind, self.req);
            let stepped = runtime.step(index, &self.events[index]);
            self.tracer.exit(span);
            stepped.map_err(|e| e.to_string())?;
        }
        let cursor = runtime.cursor();
        if cursor > start {
            self.since_snapshot += cursor - start;
            let mut records = vec![JournalRecord::Step { index: cursor - 1 }];
            if self.since_snapshot >= self.cfg.snapshot_every {
                let snapshot = self.time("snapshot", "runtime", kind, || runtime.snapshot());
                records.push(JournalRecord::Snapshot { snapshot });
                self.since_snapshot = 0;
            }
            self.append(kind, &records)?;
        }
        self.shadow = Some(runtime);
        Ok(())
    }

    /// `Session::solve_zoned` on the shadow runtime: partition, route,
    /// and one guard-supervised solver per zone.
    fn shadow_solve(&mut self, kind: &'static str, units: u64) -> Result<(), String> {
        let runtime = self.shadow.take().ok_or("solve before Init")?;
        let instance = runtime.cluster().instance();
        let active: Vec<usize> =
            (0..instance.num_devices()).filter(|&d| runtime.cluster().is_active(d)).collect();
        let alive: Vec<usize> =
            (0..instance.num_servers()).filter(|&j| !runtime.maintainer().is_failed(j)).collect();
        let capacities: Vec<f64> = alive.iter().map(|&j| instance.capacity(j)).collect();
        let topology = runtime.topology();
        let zones = self.cfg.zones;
        let layout = self.time("partition", "zone", kind, || {
            ZoneLayout::build_scoped(
                topology,
                runtime.maintainer().link_costs(),
                &alive,
                &capacities,
                zones,
            )
        });
        let devices: Vec<tacc_topology::NodeId> =
            active.iter().map(|&d| topology.iot_nodes()[d]).collect();
        let demands: Vec<f64> = active.iter().map(|&d| instance.demand(d, 0)).collect();
        let routing = self.time("route", "zone", kind, || {
            layout.route(&devices, &demands, &RouterConfig::default())
        });
        let budgets = layout.split_rounds(&routing, &Budget::units(units));
        self.solves += 1;
        let seed =
            runtime.config().seed.wrapping_add(self.solves.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let algorithm = Algorithm::by_name(&self.cfg.algorithm).ok_or("unknown algorithm")?;
        let calls: Mutex<Vec<(Instant, Instant, Option<tacc_guard::GuardReport>)>> =
            Mutex::new(Vec::new());
        let span = self.tracer.enter("solve", "zone", kind, self.req);
        let zoned =
            layout.solve_with(&devices, &demands, &routing, &budgets, |zone, sub, share| {
                let primary = algorithm
                    .anytime_solver(seed.wrapping_add(zone as u64))
                    .expect("anytime solver");
                let mut supervisor = Supervisor::new(SupervisorConfig::default());
                let started = Instant::now();
                let outcome = supervisor.supervise(primary.as_ref(), sub, &Budget::units(share));
                let ended = Instant::now();
                match outcome {
                    Ok((solution, report)) => {
                        calls.lock().expect("call log").push((started, ended, Some(report)));
                        solution
                    }
                    Err(_) => {
                        calls.lock().expect("call log").push((started, ended, None));
                        tacc_zone::dense_solve(sub, seed.wrapping_add(zone as u64), 1)
                    }
                }
            });
        for (started, ended, report) in calls.into_inner().expect("call log") {
            self.tracer.record("supervise", "guard", kind, self.req, Some(span), started, ended);
            self.layers.zone_solves += 1;
            if let Some(report) = report {
                self.layers.units += report.spent;
                self.layers.fallbacks += u64::from(report.fallbacks);
                self.layers.full += u64::from(report.degradation == DegradationLevel::None);
            }
        }
        self.tracer.exit(span);
        self.layers.refinements += zoned.refinements as u64;
        self.layers.spills += routing.spills as u64;
        self.layers.routed += devices.len() as u64;
        self.shadow_objective = Some(zoned.objective);
        self.shadow = Some(runtime);
        Ok(())
    }

    /// The shadows stand in for the real inner calls only if they did
    /// the same work: the shadow runtime must sit where the session's
    /// runtime sits, and a shadow solve must reach the real objective.
    fn check_shadows(&mut self, response: &Response) -> Result<(), String> {
        if let (Some(session), Some(shadow)) = (&self.session, &self.shadow) {
            let (real, twin) = (session.runtime(), shadow);
            if real.cursor() != twin.cursor()
                || real.cluster().total_delay() != twin.cluster().total_delay()
            {
                return Err(format!(
                    "the shadow runtime diverged at request {} (cursor {} vs {})",
                    self.req,
                    twin.cursor(),
                    real.cursor()
                ));
            }
        }
        if let Response::Solution { objective, .. } = response {
            if self.shadow_objective.take() != Some(*objective) {
                return Err(format!("the shadow solve diverged at request {}", self.req));
            }
        }
        Ok(())
    }

    /// The primary's post-dispatch hook: tail the journal, ship the new
    /// lines, wait for the standby's ack.
    fn replicate(&mut self, kind: &'static str) -> Result<(), String> {
        let sync = self.tracer.enter("sync", "ha", kind, self.req);
        let tail = self.tail.as_mut().expect("primary role");
        let span = self.tracer.enter("tail", "ha", kind, self.req);
        let lines = tail.poll().map_err(|e| e.to_string())?;
        self.tracer.exit(span);
        if !lines.is_empty() {
            let wait = self.tracer.enter("ack_wait", "ha", kind, self.req);
            let request = Request::Replicate { base: self.shipped, lines };
            let id = self.req;
            let payload = self.time("encode", "proto", kind, || encode_request(id, &request));
            self.layers.max_repl_payload = self.layers.max_repl_payload.max(payload.len() as u64);
            if payload.len() > MAX_FRAME_LEN {
                return Err(format!(
                    "a Replicate payload of {} bytes exceeds the frame cap",
                    payload.len()
                ));
            }
            let payload = self.frame(kind, &payload)?;
            let frame = self
                .time("decode", "proto", kind, || decode_request(&payload))
                .map_err(|e| e.to_string())?;
            let Request::Replicate { base, lines } = frame.request else {
                return Err("Replicate did not round-trip".to_owned());
            };
            let apply = self.tracer.enter("standby_apply", "ha", kind, self.req);
            let standby = self.standby.as_mut().expect("primary role");
            let acked = standby.apply(base, &lines);
            self.tracer.exit(apply);
            self.tracer.adopt(apply);
            self.shadow_apply(kind, &lines)?;
            self.tracer.release(apply);
            let acked = match acked {
                Ok(acked) => acked,
                Err(e) => {
                    self.layers.repl_errors += 1;
                    return Err(format!("standby apply failed: {e}"));
                }
            };
            self.layers.lines_shipped += lines.len() as u64;
            self.layers.bytes_shipped += lines.iter().map(|l| l.len() as u64).sum::<u64>();
            self.shipped = acked;
            let bytes = self.time("encode", "proto", kind, || {
                encode_response(id, &Response::ReplicaAck { acked })
            });
            let bytes = self.frame(kind, &bytes)?;
            self.time("decode", "proto", kind, || decode_response(&bytes))
                .map_err(|e| e.to_string())?;
            self.tracer.exit(wait);
        }
        self.tracer.exit(sync);
        Ok(())
    }

    /// `StandbyCore::apply`'s inner calls: parse every line, append the
    /// lines under one fsync, step the replica through new events.
    fn shadow_apply(&mut self, kind: &'static str, lines: &[String]) -> Result<(), String> {
        let span = self.tracer.enter("parse", "journal", kind, self.req);
        let records: Result<Vec<JournalRecord>, String> =
            lines.iter().map(|l| parse_journal_line(l)).collect();
        self.tracer.exit(span);
        self.layers.journal_records += lines.len() as u64;
        self.layers.journal_fsyncs += 1;
        let span = self.tracer.enter("append", "journal", kind, self.req);
        let appended = self.shadow_raw.append_raw_lines(lines);
        self.tracer.exit(span);
        appended.map_err(|e| e.to_string())?;
        for record in records? {
            match record {
                JournalRecord::Begin { config, .. } => self.replica_config = Some(config),
                JournalRecord::SessionScenario { scenario } => {
                    let config = self.replica_config.clone().ok_or("scenario before Begin")?;
                    let trace =
                        Trace { version: Trace::FORMAT_VERSION, scenario, events: Vec::new() };
                    let span = self.tracer.enter("replica.build", "runtime", kind, self.req);
                    let runtime = Runtime::from_trace(&trace, config);
                    self.tracer.exit(span);
                    self.replica = Some(runtime.map_err(|e| e.to_string())?);
                    self.replica_trace = Some(trace);
                }
                JournalRecord::Event { timed, .. } => {
                    let trace = self.replica_trace.as_mut().ok_or("event before Begin")?;
                    trace.events.push(timed);
                    let index = trace.events.len() - 1;
                    let runtime = self.replica.as_mut().ok_or("event before Begin")?;
                    let name = step_span("replica", &trace.events[index].event);
                    let span = self.tracer.enter(name, "runtime", kind, self.req);
                    let stepped = runtime.step(index, &trace.events[index]);
                    self.tracer.exit(span);
                    stepped.map_err(|e| e.to_string())?;
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// The failover: promote the standby (its scan, restore and replay
    /// repeated inside the span) and continue on the promoted session.
    fn promote(&mut self) -> Result<(), String> {
        self.req += 1;
        let kind = "failover";
        let span = self.tracer.enter("promote", "ha", kind, self.req);
        let mut standby = self.standby.take().expect("primary role");
        let promoted = standby.promote().map_err(|e| format!("promotion failed: {e}"))?;
        self.tracer.exit(span);
        self.tracer.adopt(span);

        let scan_span = self.tracer.enter("scan", "journal", kind, self.req);
        let scan = scan_journal(&self.standby_journal, RecoveryPolicy::Strict);
        self.tracer.exit(scan_span);
        let tacc_chaos::JournalScan { records, config, .. } = scan.map_err(|e| e.to_string())?;
        let mut events = Vec::new();
        let mut snapshot = None;
        for record in records {
            match record {
                JournalRecord::Event { timed, .. } => events.push(timed),
                JournalRecord::Snapshot { snapshot: s } => snapshot = Some(s),
                _ => {}
            }
        }
        let trace = Trace {
            version: Trace::FORMAT_VERSION,
            scenario: self.inputs.shell.scenario.clone(),
            events,
        };
        let span_restore = self.tracer.enter("restore", "runtime", kind, self.req);
        let restored = match snapshot {
            Some(snapshot) => Runtime::restore(snapshot, &trace),
            None => Runtime::from_trace(&trace, config),
        };
        self.tracer.exit(span_restore);
        let mut runtime = restored.map_err(|e| e.to_string())?;
        let replay = self.tracer.enter("replay", "runtime", kind, self.req);
        while (runtime.cursor() as usize) < trace.events.len() {
            let index = runtime.cursor() as usize;
            runtime.step(index, &trace.events[index]).map_err(|e| e.to_string())?;
            self.layers.replay_events += 1;
        }
        self.tracer.exit(replay);
        self.tracer.release(span);

        let text = std::fs::read_to_string(&self.standby_journal).map_err(|e| e.to_string())?;
        let lines: Vec<&str> = text.lines().collect();
        let last_snapshot = lines
            .iter()
            .rposition(|l| matches!(parse_journal_line(l), Ok(JournalRecord::Snapshot { .. })))
            .unwrap_or(0);
        self.layers.scan_bytes += text.len() as u64;
        self.layers.scan_useful_bytes +=
            lines[last_snapshot..].iter().map(|l| l.len() as u64 + 1).sum::<u64>();

        // The promoted session journals into the standby's file; so does
        // its shadow, which restarts from the recovered state.
        self.session = Some(promoted);
        self.tail = None;
        self.shadow = Some(runtime);
        self.since_snapshot = 0;
        self.solves = 0;
        Ok(())
    }
}

/// Runs the pass over one epoch of `inputs`, recording spans into
/// `tracer`.
pub fn pass(
    shape: &Shape,
    inputs: &Inputs,
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<Layers, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let journal = |name: &str| dir.join(name);
    let cfg = ServeConfig {
        journal: Some(journal("primary.jsonl")),
        zones: shape.zones,
        ..ServeConfig::default()
    };
    let standby_cfg = ServeConfig {
        journal: Some(journal("standby.jsonl")),
        zones: shape.zones,
        ..ServeConfig::default()
    };
    let wire = UnixStream::pair().map_err(|e| format!("socket pair: {e}"))?;
    let create = |name: &str| Journal::create_raw(&journal(name)).map_err(|e| e.to_string());
    let mut pass = Pass {
        inputs,
        tracer,
        layers: Layers::default(),
        tail: Some(JournalTail::new(&journal("primary.jsonl"))),
        standby: Some(StandbyCore::new(&standby_cfg).map_err(|e| e.to_string())?),
        shipped: 0,
        standby_journal: journal("standby.jsonl"),
        cfg,
        session: None,
        wire,
        shadow: None,
        replica: None,
        replica_config: None,
        replica_trace: None,
        shadow_journal: create("shadow.jsonl")?,
        shadow_raw: create("shadow-raw.jsonl")?,
        events: Vec::new(),
        since_snapshot: 0,
        solves: 0,
        shadow_objective: None,
        seq: 0,
        req: 0,
    };
    pass.request(
        "init",
        Request::Init { trace: inputs.shell.clone(), config: inputs.config.clone() },
    )?;
    for cycle in 0..shape.cycles() {
        // Warm-up requests get a kind of their own, so that coverage
        // compares each kind with the timed client calls of that kind.
        let warmup = shape.is_warmup(cycle);
        let kind = if cycle == shape.failover_cycle() {
            pass.promote()?;
            pass.cfg = standby_cfg.clone();
            "failover"
        } else if warmup {
            "warmup"
        } else {
            "push"
        };
        pass.seq += 1;
        let seq = pass.seq;
        let events = inputs.burst(cycle).to_vec();
        match pass.request(kind, Request::Push { events, seq })? {
            Response::Accepted { queued, .. } if queued == BURST => {}
            other => return Err(format!("in-process push answered {other:?}")),
        }
        let device = inputs.query_device(cycle);
        pass.request(if warmup { "warmup" } else { "query" }, Request::Query { device })?;
        if shape.solves_after(cycle) {
            let answer = pass.request("solve", Request::Solve { budget_units: 0 })?;
            if !matches!(answer, Response::Solution { .. }) {
                return Err(format!("in-process solve answered {answer:?}"));
            }
        }
    }
    let mut layers = std::mem::take(&mut pass.layers);
    for name in ["primary.jsonl", "standby.jsonl"] {
        let text = std::fs::read_to_string(journal(name)).map_err(|e| e.to_string())?;
        for line in text.lines() {
            layers.max_line = layers.max_line.max(line.len() as u64);
            if name == "primary.jsonl"
                && matches!(parse_journal_line(line), Ok(JournalRecord::Snapshot { .. }))
            {
                layers.snapshots += 1;
                layers.snapshot_bytes += line.len() as u64 + 1;
            }
        }
    }
    for name in ["shadow.jsonl", "shadow-raw.jsonl"] {
        layers.journal_bytes += std::fs::metadata(journal(name)).map_err(|e| e.to_string())?.len();
    }
    drop(pass);
    std::fs::remove_dir_all(dir).ok();
    Ok(layers)
}

/// The per-layer metrics of a traced run.
pub fn per_layer(obs: &Observed, tracer: &Tracer, layers: &Layers) -> Vec<Metric> {
    let spans = tracer.spans();
    let selfs = tracer.self_times_ns();
    let ms = |ns: u64| ns as f64 / 1e6;
    // Self time summed over spans matching a predicate.
    let sum_self = |pred: &dyn Fn(&crate::tracer::Span) -> bool| -> f64 {
        ms(spans.iter().zip(&selfs).filter(|(s, _)| pred(s)).map(|(_, &t)| t).sum())
    };
    let sum_dur = |pred: &dyn Fn(&crate::tracer::Span) -> bool| -> f64 {
        ms(spans.iter().filter(|s| pred(s)).map(crate::tracer::Span::duration_ns).sum())
    };
    // A span's subtree self time: what the real call cost, with the
    // shadow calls standing in for its inner layers.
    let mut subtree = selfs.clone();
    for i in (0..spans.len()).rev() {
        if let Some(p) = spans[i].parent {
            subtree[p] += subtree[i];
        }
    }
    let sum_subtree = |name: &str, layer: &str| -> f64 {
        ms(spans
            .iter()
            .zip(&subtree)
            .filter(|(s, _)| s.name == name && s.layer == layer)
            .map(|(_, &t)| t)
            .sum())
    };
    let count = |pred: &dyn Fn(&crate::tracer::Span) -> bool| {
        spans.iter().filter(|s| pred(s)).count() as f64
    };
    let is = |name: &'static str, layer: &'static str| {
        move |s: &crate::tracer::Span| s.name == name && s.layer == layer
    };
    let step = |s: &crate::tracer::Span| {
        s.layer == "runtime"
            && (s.name.starts_with("flush.step") || s.name.starts_with("replica.step"))
    };

    // Coverage: layer self time per request of a kind over the mean
    // client-observed time of that kind in epoch 0, whose requests the
    // pass replays. Supervisor calls run on worker threads in parallel;
    // they count once, as the wall time of the zone solve that ran them.
    let coverage = |kind: &str, client: &[f64]| -> f64 {
        let mut ns = 0u64;
        for (i, s) in spans.iter().enumerate() {
            if s.kind != kind || s.layer == "client" || s.layer == "pass" || s.name == "supervise" {
                continue;
            }
            ns += if s.name == "solve" && s.layer == "zone" { s.duration_ns() } else { selfs[i] };
        }
        let n = layers.kinds.get(kind).copied().unwrap_or(0).max(1) as f64;
        let mean_client = client.iter().sum::<f64>() / client.len().max(1) as f64;
        ms(ns) / n / mean_client
    };
    let (pushes, queries, solves) = obs.epoch0_samples;
    let client_ms: f64 = obs.push_ms.iter().chain(&obs.query_ms).chain(&obs.solve_ms).sum();
    let client_spans = count(&|s| s.layer == "client");

    let m = |name: &str, unit: &'static str, value: f64| Metric {
        name: name.to_owned(),
        unit,
        value,
        note: String::new(),
    };
    let share = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    vec![
        m("proto.frames", "count", layers.frames as f64),
        m("proto.bytes", "bytes", layers.frame_bytes as f64),
        m("proto.encode_ms", "ms", sum_self(&is("encode", "proto"))),
        m("proto.decode_ms", "ms", sum_self(&is("decode", "proto"))),
        m("proto.frame_io_ms", "ms", sum_self(&is("frame_io", "proto"))),
        m("proto.max_repl_payload_bytes", "bytes", layers.max_repl_payload as f64),
        m("proto.hello_rtt_ms", "ms", median(&obs.hello_ms)),
        m("serve.requests", "count", layers.requests as f64),
        m("serve.errors", "count", layers.errors as f64),
        m(
            "serve.dispatch_self_ms.push",
            "ms",
            sum_self(&|s| s.name == "dispatch" && s.kind == "push"),
        ),
        m(
            "serve.dispatch_self_ms.query",
            "ms",
            sum_self(&|s| s.name == "dispatch" && s.kind == "query"),
        ),
        m(
            "serve.dispatch_self_ms.solve",
            "ms",
            sum_self(&|s| s.name == "dispatch" && s.kind == "solve"),
        ),
        m("serve.events_per_flush", "count", share(layers.flushed_events, layers.flushes)),
        m("journal.records", "count", layers.journal_records as f64),
        m("journal.bytes_written", "bytes", layers.journal_bytes as f64),
        m("journal.fsyncs", "count", layers.journal_fsyncs as f64),
        m("journal.append_ms", "ms", sum_self(&is("append", "journal"))),
        m("journal.snapshots", "count", layers.snapshots as f64),
        m("journal.snapshot_bytes", "bytes", layers.snapshot_bytes as f64),
        m("journal.max_line_bytes", "bytes", layers.max_line as f64),
        m("journal.parse_ms", "ms", sum_self(&is("parse", "journal"))),
        m("journal.scan_ms", "ms", sum_self(&is("scan", "journal"))),
        m("journal.scan_bytes", "bytes", layers.scan_bytes as f64),
        m("journal.scan_useful_share", "ratio", share(layers.scan_useful_bytes, layers.scan_bytes)),
        m("ha.sync_ms", "ms", sum_subtree("sync", "ha")),
        m("ha.tail_ms", "ms", sum_self(&is("tail", "ha"))),
        m("ha.ack_wait_ms", "ms", sum_subtree("ack_wait", "ha")),
        m("ha.lines_shipped", "count", layers.lines_shipped as f64),
        m("ha.bytes_shipped", "bytes", layers.bytes_shipped as f64),
        m("ha.standby_apply_ms", "ms", sum_self(&is("standby_apply", "ha"))),
        m("ha.replica_step_ms", "ms", sum_dur(&|s| s.name.starts_with("replica.step"))),
        m("ha.promote_ms", "ms", sum_subtree("promote", "ha")),
        m("ha.replication_errors", "count", layers.repl_errors as f64),
        m("runtime.steps", "count", count(&step)),
        m("runtime.step_ms", "ms", sum_dur(&step)),
        m("runtime.step_ms.join", "ms", sum_dur(&|s| step(s) && s.name.ends_with(".join"))),
        m("runtime.step_ms.leave", "ms", sum_dur(&|s| step(s) && s.name.ends_with(".leave"))),
        m("runtime.step_ms.fail", "ms", sum_dur(&|s| step(s) && s.name.ends_with(".fail"))),
        m("runtime.step_ms.recover", "ms", sum_dur(&|s| step(s) && s.name.ends_with(".recover"))),
        m("runtime.step_ms.drift", "ms", sum_dur(&|s| step(s) && s.name.ends_with(".drift"))),
        m("runtime.snapshot_ms", "ms", sum_self(&is("snapshot", "runtime"))),
        m("runtime.restore_ms", "ms", sum_self(&is("restore", "runtime"))),
        m("runtime.replay_events", "count", layers.replay_events as f64),
        m("runtime.replay_ms", "ms", sum_self(&is("replay", "runtime"))),
        m("topology.delay_matrix_ms", "ms", sum_self(&is("delay_matrix", "topology"))),
        m("zone.partition_ms", "ms", sum_self(&is("partition", "zone"))),
        m("zone.route_ms", "ms", sum_self(&is("route", "zone"))),
        m("zone.solve_ms", "ms", sum_self(&is("solve", "zone"))),
        m("zone.refinements", "count", layers.refinements as f64),
        m("zone.spill_share", "ratio", share(layers.spills, layers.routed)),
        m("guard.supervise_ms", "ms", sum_self(&is("supervise", "guard"))),
        m("guard.units_spent", "count", layers.units as f64),
        m("guard.fallbacks", "count", layers.fallbacks as f64),
        m("guard.full_share", "ratio", share(layers.full, layers.zone_solves)),
        m("client.retries", "count", obs.retries as f64),
        m("client.reconnects", "count", obs.reconnects as f64),
        m("trace.coverage.push", "ratio", coverage("push", &obs.push_ms[..pushes])),
        m("trace.coverage.query", "ratio", coverage("query", &obs.query_ms[..queries])),
        m("trace.coverage.solve", "ratio", coverage("solve", &obs.solve_ms[..solves])),
        m("trace.overhead_share", "ratio", client_spans * span_cost_ms() / client_ms),
    ]
}

/// What recording one span costs, measured on a throwaway tracer.
fn span_cost_ms() -> f64 {
    const N: u32 = 20_000;
    let mut probe = Tracer::new();
    let started = Instant::now();
    for i in 0..N {
        let id = probe.enter("calibrate", "trace", "none", u64::from(i));
        probe.exit(id);
    }
    started.elapsed().as_secs_f64() * 1e3 / f64::from(N)
}
