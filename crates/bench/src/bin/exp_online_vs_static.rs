//! E13 (online): what does online reconfiguration buy over a static
//! assignment once the deployment starts churning?
//!
//! Replays generated event traces (joins, leaves, server failures and
//! recoveries, link-latency drift) against three strategies:
//!
//! - **static** — the initial assignment, never reconfigured: a device is
//!   served only while its original server is alive and reachable;
//! - **online** — the `tacc-runtime` control plane with the default
//!   migration budget (evacuation, budgeted rebalance, shedding);
//! - **online-unbounded** — the same control plane re-solving after every
//!   event with an unbounded budget, an upper bound on what
//!   reconfiguration can achieve.
//!
//! Reported per strategy: the time-weighted mean delay of served devices,
//! the served device-time fraction, migrations and evictions, and — for
//! the online rows — the fraction of shortest-path settle work the
//! incremental delay maintenance avoided versus full recomputes.
//!
//! Trials are independent (one trace per seed), so seeds replay
//! concurrently on `tacc-par` workers and fold back in seed order — the
//! table is identical at any `TACC_THREADS`.
//!
//! Run: `cargo run --release -p tacc-bench --bin exp_online_vs_static [--quick]`

use tacc_bench::{fmt3, ExperimentContext};
use tacc_core::metrics::{OnlineStats, Table};
use tacc_core::workload::{Trace, TraceEvent, TraceGenerator, TraceScenario};
use tacc_runtime::{DelayMaintainer, Runtime, RuntimeConfig};

/// Time-weighted accumulators for one strategy over one trace.
#[derive(Debug, Default, Clone, Copy)]
struct Accum {
    delay_time: f64,  // Σ mean_delay(state) × dt over served devices
    served_time: f64, // Σ served(state) × dt
    wanted_time: f64, // Σ wanted(state) × dt
    weight: f64,      // Σ dt
}

impl Accum {
    fn push(&mut self, mean_delay: f64, served: usize, wanted: usize, dt: f64) {
        if served > 0 {
            self.delay_time += mean_delay * dt;
            self.weight += dt;
        }
        self.served_time += served as f64 * dt;
        self.wanted_time += wanted as f64 * dt;
    }

    fn mean_delay(&self) -> f64 {
        self.delay_time / self.weight
    }

    fn served_fraction(&self) -> f64 {
        self.served_time / self.wanted_time
    }
}

/// The interval each post-event state persists for (zero for the last).
fn dt(trace: &Trace, index: usize) -> f64 {
    trace.events.get(index + 1).map_or(0.0, |next| next.time_ms - trace.events[index].time_ms)
}

/// Replays the trace against the never-reconfiguring baseline: the
/// assignment is frozen at the initial solve; delays still drift and
/// servers still fail underneath it.
fn run_static(trace: &Trace, seed: u64) -> Accum {
    let scenario = trace.scenario.build().expect("trace scenario");
    let config = RuntimeConfig { seed, ..RuntimeConfig::default() };
    let runtime = Runtime::from_trace(trace, config).expect("static initial solve");
    let home: Vec<Option<usize>> =
        (0..scenario.instance().num_devices()).map(|d| runtime.cluster().server_of(d)).collect();

    let mut topology = scenario.topology().clone();
    let mut maintainer =
        DelayMaintainer::new(&topology, RuntimeConfig::default().delay_model, false);
    let mut wanted = vec![true; home.len()];
    let mut accum = Accum::default();

    for (index, timed) in trace.events.iter().enumerate() {
        match timed.event {
            TraceEvent::DeviceJoin { device } => wanted[device] = true,
            TraceEvent::DeviceLeave { device } => wanted[device] = false,
            TraceEvent::ServerFail { server } => {
                if !maintainer.is_failed(server) {
                    maintainer.fail_server(&topology, server, &mut Vec::new());
                }
            }
            TraceEvent::ServerRecover { server } => {
                if maintainer.is_failed(server) {
                    maintainer.recover_server(&topology, server, &mut Vec::new());
                }
            }
            TraceEvent::LinkLatencyDrift { link, latency_ms } => {
                let id = topology.graph().link_id(link);
                topology.set_link_latency(id, latency_ms).expect("generated drift is valid");
                maintainer.drift(&topology, id, &mut Vec::new());
            }
        }
        let mut served = 0;
        let mut delay_sum = 0.0;
        for (device, &server) in home.iter().enumerate() {
            let Some(server) = server else { continue };
            let delay = maintainer.delay(&topology, device, server);
            if wanted[device] && !maintainer.is_failed(server) && delay.is_finite() {
                served += 1;
                delay_sum += delay;
            }
        }
        let mean = if served > 0 { delay_sum / served as f64 } else { 0.0 };
        accum.push(mean, served, wanted.iter().filter(|&&w| w).count(), dt(trace, index));
    }
    accum
}

/// Replays the trace through the online runtime; returns the accumulator
/// plus (migrations, evictions, incremental savings ratio).
fn run_online(trace: &Trace, config: RuntimeConfig) -> (Accum, u64, u64, f64) {
    let mut runtime = Runtime::from_trace(trace, config).expect("online initial solve");
    let mut wanted = vec![true; runtime.cluster().instance().num_devices()];
    let mut accum = Accum::default();
    for (index, timed) in trace.events.iter().enumerate() {
        match timed.event {
            TraceEvent::DeviceJoin { device } => wanted[device] = true,
            TraceEvent::DeviceLeave { device } => wanted[device] = false,
            _ => {}
        }
        runtime.step(index, timed).expect("generated traces replay cleanly");
        let served = runtime.cluster().active_count();
        let mean = if served > 0 { runtime.cluster().total_delay() / served as f64 } else { 0.0 };
        accum.push(mean, served, wanted.iter().filter(|&&w| w).count(), dt(trace, index));
    }
    let core = &runtime.metrics().core;
    (accum, core.migrations, core.evictions, core.savings_ratio())
}

fn main() {
    let ctx = ExperimentContext::from_args("exp_online_vs_static", 8);
    let num_events = *ctx.sizes(&[400usize], &[100]).first().expect("one size");

    let mut table = Table::new(vec![
        "strategy".into(),
        "mean_delay_ms".into(),
        "ci95".into(),
        "served_frac".into(),
        "migrations".into(),
        "evictions".into(),
        "sssp_savings".into(),
    ]);

    let mut delay = [OnlineStats::default(); 3];
    let mut served = [OnlineStats::default(); 3];
    let mut migrations = [OnlineStats::default(); 3];
    let mut evictions = [OnlineStats::default(); 3];
    let mut savings = [OnlineStats::default(); 3];

    let trials = tacc_par::par_map(&ctx.trial_seeds, |&seed| {
        let trace = TraceGenerator::new(TraceScenario {
            num_iot: 100,
            num_servers: 10,
            seed,
            ..TraceScenario::default()
        })
        .num_events(num_events)
        .generate(seed)
        .expect("trace generation");

        let results = [
            (run_static(&trace, seed), 0, 0, f64::NAN),
            {
                let (a, m, e, s) =
                    run_online(&trace, RuntimeConfig { seed, ..RuntimeConfig::default() });
                (a, m, e, s)
            },
            {
                let (a, m, e, s) = run_online(
                    &trace,
                    RuntimeConfig {
                        seed,
                        migration_budget: usize::MAX,
                        refresh_every: Some(1),
                        ..RuntimeConfig::default()
                    },
                );
                (a, m, e, s)
            },
        ];
        eprintln!("[exp_online_vs_static] finished seed = {seed}");
        results
    });
    for results in trials {
        for (row, (accum, migs, evs, save)) in results.into_iter().enumerate() {
            delay[row].push(accum.mean_delay());
            served[row].push(accum.served_fraction());
            migrations[row].push(migs as f64);
            evictions[row].push(evs as f64);
            if save.is_finite() {
                savings[row].push(save);
            }
        }
    }

    for (row, name) in ["static", "online", "online-unbounded"].into_iter().enumerate() {
        table.push_row(vec![
            name.into(),
            fmt3(delay[row].mean()),
            fmt3(delay[row].ci95_half_width()),
            fmt3(served[row].mean()),
            fmt3(migrations[row].mean()),
            fmt3(evictions[row].mean()),
            fmt3(savings[row].mean()),
        ]);
    }
    ctx.finish(&table);
}
