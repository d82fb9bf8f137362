//! Drives the real pair over a socket, as a `tacc client` would, and
//! records what the client observes.

use std::path::Path;
use std::time::{Duration, Instant};

use tacc_proto::{Request, Response};
use tacc_serve::{Client, ClientConfig, RetryPolicy, ServeError};
use tacc_workload::TimedEvent;

use crate::daemon::Pair;
use crate::tracer::Tracer;
use crate::workload::{Inputs, Shape, BURST};

/// `Hello` round trips per epoch: the no-op floor every latency is read
/// against.
const HELLOS: usize = 32;

/// One `Solve` answer and the event count it was solved at.
#[derive(Debug, Clone)]
pub struct Answer {
    pub cursor: u64,
    pub feasible: bool,
    pub objective: f64,
    pub assignment: Vec<(usize, usize)>,
}

/// One `Stats` checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    pub cursor: u64,
    pub total_delay_ms: f64,
    pub active_devices: usize,
}

/// Everything the client observed over a run's epochs.
#[derive(Debug, Default)]
pub struct Observed {
    pub epochs: usize,
    pub push_ms: Vec<f64>,
    pub query_ms: Vec<f64>,
    pub solve_ms: Vec<f64>,
    pub setup_s: Vec<f64>,
    pub failover_ms: Vec<f64>,
    pub rss_mb: Vec<f64>,
    pub hello_ms: Vec<f64>,
    /// Events acknowledged inside the cycle loops (the failover push
    /// excluded) and the wall time those cycles took.
    pub events_acked: u64,
    pub cycle_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub retries: u64,
    pub reconnects: u64,
    /// Push, query and solve samples epoch 0 contributed (the traced
    /// run's in-process pass replays epoch 0).
    pub epoch0_samples: (usize, usize, usize),
    pub checkpoints: Vec<Vec<Checkpoint>>,
    pub answers: Vec<Vec<Answer>>,
    pub final_snapshots: Vec<String>,
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// The per-epoch state the cycle loop threads through.
struct Epoch<'a> {
    client: Client,
    tracer: Option<&'a mut Tracer>,
    obs: &'a mut Observed,
    seq: u64,
    req: u64,
}

impl Epoch<'_> {
    /// Sends one request, inside a `client` span when it is timed and
    /// the run is traced, and counts it as attempted; an
    /// `Error`/`Overloaded` answer or a transport failure counts as
    /// failed and ends the run. No retry layer sits in between, so no
    /// latency can hide a client sleep.
    fn call(
        &mut self,
        kind: &'static str,
        request: &Request,
        timed: bool,
    ) -> Result<(Response, f64), String> {
        self.req += 1;
        self.obs.attempted += 1;
        let tracer = self.tracer.as_deref_mut().filter(|_| timed);
        let span = tracer.map(|t| t.enter(kind, "client", kind, self.req));
        let started = Instant::now();
        let result = self.client.request(request);
        let elapsed = ms(started);
        if let (Some(t), Some(id)) = (self.tracer.as_deref_mut(), span) {
            t.exit(id);
        }
        match result {
            Ok(Response::Error { code, message }) => {
                self.obs.failed += 1;
                Err(format!("{kind} answered {code:?}: {message}"))
            }
            Ok(Response::Overloaded { .. }) => {
                self.obs.failed += 1;
                Err(format!("{kind} was shed with Overloaded"))
            }
            Ok(response) => Ok((response, elapsed)),
            Err(e) => {
                self.obs.failed += 1;
                Err(format!("{kind} failed: {e}"))
            }
        }
    }

    /// A push carrying the next idempotency sequence number, as every
    /// retrying client sends it (the daemon journals its `SeqAck`).
    fn push(&mut self, events: Vec<TimedEvent>, timed: bool) -> Result<(Response, f64), String> {
        self.seq += 1;
        self.call("push", &Request::Push { events, seq: self.seq }, timed)
    }

    /// The push after the SIGKILL. Untraced, `push_with_retry` rotates
    /// to the standby, promotes it and re-sends. Traced, the same loop
    /// is unrolled here so the retry and the reconnect show as spans.
    fn failover_push(&mut self, events: Vec<TimedEvent>) -> Result<Response, String> {
        self.req += 1;
        self.obs.attempted += 1;
        let Some(tracer) = self.tracer.as_deref_mut() else {
            return self
                .client
                .push_with_retry(events, &no_sleep_policy())
                .map_err(|e| format!("failover push failed: {e}"));
        };
        self.seq += 1;
        let request = Request::Push { events, seq: self.seq };
        let span = tracer.enter("push", "client", "failover", self.req);
        let first = self.client.request(&request);
        tracer.exit(span);
        match first {
            Err(e) if e.is_disconnect() => {
                self.obs.retries += 1;
                let span = tracer.enter("reconnect", "client", "failover", self.req);
                let reconnected = self.client.reconnect();
                tracer.exit(span);
                reconnected.map_err(|e: ServeError| format!("reconnect failed: {e}"))?;
                self.obs.reconnects += 1;
                let span = tracer.enter("push", "client", "failover", self.req);
                let second = self.client.request(&request);
                tracer.exit(span);
                second.map_err(|e| format!("failover re-send failed: {e}"))
            }
            other => other.map_err(|e| format!("failover push failed: {e}")),
        }
    }

    fn untimed(&mut self, request: &Request) -> Result<Response, String> {
        self.client.request(request).map_err(|e| format!("{request:?} failed: {e}"))
    }

    fn checkpoint(&mut self) -> Result<Checkpoint, String> {
        match self.untimed(&Request::Stats)? {
            Response::Stats { cursor, total_delay_ms, active_devices, .. } => {
                Ok(Checkpoint { cursor, total_delay_ms, active_devices })
            }
            other => Err(format!("Stats answered {other:?}")),
        }
    }
}

/// One retry, no sleep: with `base_backoff_ms: 1` the first backoff
/// step is 0 ms, so the failover time includes no client sleep.
fn no_sleep_policy() -> RetryPolicy {
    RetryPolicy { max_retries: 1, base_backoff_ms: 1, max_backoff_ms: 1, seed: 0 }
}

/// Spawns a pair, connects and sends `Init`, recording the set-up time
/// from the standby's spawn to the primary's `Initialized`.
fn start(
    tacc: &Path,
    dir: &Path,
    shape: &Shape,
    inputs: &Inputs,
    obs: &mut Observed,
) -> Result<(Pair, Client), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let spawned = Instant::now();
    let pair = Pair::spawn(tacc, dir, shape.zones)?;
    let config = ClientConfig {
        connect_timeout: Duration::from_secs(60),
        read_timeout: Duration::from_secs(60),
    };
    let mut client = Client::connect_failover_with(&pair.failover_list(), config)
        .map_err(|e| format!("connecting to the primary: {e}"))?;
    match client.init(inputs.shell.clone(), inputs.config.clone()) {
        Ok(Response::Initialized { .. }) => {}
        other => return Err(format!("Init answered {other:?}")),
    }
    obs.setup_s.push(spawned.elapsed().as_secs_f64());
    Ok((pair, client))
}

/// A set-up-only pair, killed right after `Init`: extra `setup_s`
/// samples, so a run reports a median over several set-ups.
pub fn setup_only(
    tacc: &Path,
    dir: &Path,
    shape: &Shape,
    inputs: &Inputs,
    obs: &mut Observed,
) -> Result<(), String> {
    start(tacc, dir, shape, inputs, obs).map(drop)
}

/// Runs one epoch: spawn the pair, `Init`, the cycle loop (warm-up
/// first) with a failover after `epoch_cycles` timed cycles, then fetch
/// the final snapshot and shut the promoted standby down.
pub fn epoch(
    tacc: &Path,
    dir: &Path,
    shape: &Shape,
    inputs: &Inputs,
    obs: &mut Observed,
    tracer: Option<&mut Tracer>,
) -> Result<(), String> {
    let (mut pair, client) = start(tacc, dir, shape, inputs, obs)?;
    let mut ep = Epoch { client, tracer, obs, seq: 0, req: 0 };
    for _ in 0..HELLOS {
        let started = Instant::now();
        ep.untimed(&Request::Hello { client: "perfbench".to_owned() })?;
        ep.obs.hello_ms.push(ms(started));
    }

    let mut checkpoints = Vec::new();
    let mut answers = Vec::new();
    let mut cursor = 0u64;
    for cycle in 0..shape.cycles() {
        let events = inputs.burst(cycle).to_vec();
        let timed = !shape.is_warmup(cycle);
        let cycle_started = Instant::now();
        if cycle == shape.failover_cycle() {
            ep.obs.rss_mb.push(pair.peak_rss_mb());
            let killed = Instant::now();
            pair.kill_primary()?;
            match ep.failover_push(events)? {
                Response::Accepted { queued, .. } if queued == BURST => {}
                other => return Err(format!("the failover push was answered {other:?}")),
            }
            ep.obs.failover_ms.push(ms(killed));
        } else {
            let (response, elapsed) = ep.push(events, timed)?;
            if !matches!(response, Response::Accepted { queued, .. } if queued == BURST) {
                return Err(format!("push answered {response:?}"));
            }
            if timed {
                ep.obs.push_ms.push(elapsed);
                ep.obs.events_acked += BURST as u64;
            }
        }
        cursor += BURST as u64;
        let busy_started = Instant::now();

        let device = inputs.query_device(cycle);
        let (response, elapsed) = ep.call("query", &Request::Query { device }, timed)?;
        match response {
            Response::Device { device: d, .. } if d == device => {
                if timed {
                    ep.obs.query_ms.push(elapsed);
                }
            }
            other => return Err(format!("query answered {other:?}")),
        }
        if shape.solves_after(cycle) {
            let (response, elapsed) =
                ep.call("solve", &Request::Solve { budget_units: 0 }, true)?;
            match response {
                Response::Solution { feasible, objective, assignment, .. } => {
                    ep.obs.solve_ms.push(elapsed);
                    answers.push(Answer { cursor, feasible, objective, assignment });
                }
                other => return Err(format!("solve answered {other:?}")),
            }
        }
        // The failover cycle's push is timed as `failover_ms`, not as
        // loop time.
        ep.obs.cycle_s += if !timed {
            0.0
        } else if cycle == shape.failover_cycle() {
            busy_started.elapsed().as_secs_f64()
        } else {
            cycle_started.elapsed().as_secs_f64()
        };
        if (cycle + 1) % shape.checkpoint_every == 0 || cycle + 1 == shape.cycles() {
            checkpoints.push(ep.checkpoint()?);
        }
    }

    let snapshot = match ep.untimed(&Request::Snapshot)? {
        Response::Snapshot { snapshot_json } => snapshot_json,
        other => return Err(format!("Snapshot answered {other:?}")),
    };
    ep.obs.rss_mb.push(pair.peak_rss_mb());
    match ep.untimed(&Request::Shutdown)? {
        Response::Bye => {}
        other => return Err(format!("Shutdown answered {other:?}")),
    }
    drop(ep.client);
    pair.wait_standby()?;
    ep.obs.final_snapshots.push(snapshot);
    ep.obs.checkpoints.push(checkpoints);
    ep.obs.answers.push(answers);
    if ep.obs.epochs == 0 {
        ep.obs.epoch0_samples =
            (ep.obs.push_ms.len(), ep.obs.query_ms.len(), ep.obs.solve_ms.len());
    }
    ep.obs.epochs += 1;
    Ok(())
}
