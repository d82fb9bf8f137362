//! Zoned solves must answer feasibly whenever a feasible assignment
//! exists. The inputs are a small surge trace with correlated server
//! failures composed on top, so several servers go down while the
//! crowd peaks: the router then spills devices into a zone whose
//! per-zone solve cannot pack them, and only the merge-time capacity
//! repair in `tacc-zone` brings the answer back under every capacity.
//! Each solve is also checked against the runtime's own assignment,
//! which fits at every one of these states. Own binary because the obs
//! registry is process-global.

use tacc_chaos::{ChaosGenerator, ChaosProfile};
use tacc_proto::Response;
use tacc_runtime::RuntimeConfig;
use tacc_serve::{ServeConfig, Session};
use tacc_workload::{compose_traces, SurgeGenerator, Trace, TraceEvent, TraceScenario};

/// Events per push.
const BURST: usize = 16;
/// Untimed pushes before the first solve, then pushes in all.
const WARMUP: usize = 2;
const CYCLES: usize = 18;

/// A 60-device, 6-server surge trace of `CYCLES` bursts with the
/// server faults of a correlated-failures overlay composed on top.
fn inputs(seed: u64, epoch: u64) -> (Trace, RuntimeConfig) {
    let seed = seed.wrapping_mul(1_000_003).wrapping_add(epoch);
    let scenario = TraceScenario {
        num_iot: 60,
        num_servers: 6,
        load_factor: 0.7,
        seed: 2022,
        ..TraceScenario::default()
    };
    let needed = CYCLES * BURST;
    let mut horizon_ms = 30_000.0;
    let surge = loop {
        let surge = SurgeGenerator::new(scenario.clone())
            .horizon_ms(horizon_ms)
            .mobility_rate(0.05)
            .generate(seed)
            .unwrap();
        if surge.events.len() >= needed {
            break surge;
        }
        horizon_ms *= 2.0;
    };
    let used_ms = surge.events[needed - 1].time_ms.max(1.0);
    let mut overlay = ChaosGenerator::new(scenario, ChaosProfile::CorrelatedFailures)
        .num_events(48)
        .mean_gap_ms(used_ms / 16.0)
        .burst(3)
        .generate(seed ^ 0x000c_4a05)
        .unwrap();
    overlay.events.retain(|timed| {
        matches!(timed.event, TraceEvent::ServerFail { .. } | TraceEvent::ServerRecover { .. })
    });
    let mut trace = compose_traces(&surge, &overlay).unwrap();
    trace.events.truncate(needed);
    (trace, RuntimeConfig { seed, ..RuntimeConfig::default() })
}

#[test]
fn zoned_solves_stay_feasible_under_correlated_server_failures() {
    let mut solves = 0usize;
    for seed in [5, 6, 7] {
        for epoch in [0, 1] {
            let (trace, config) = inputs(seed, epoch);
            let shell = Trace { events: Vec::new(), ..trace.clone() };
            let cfg = ServeConfig { zones: 2, ..ServeConfig::default() };
            let mut session = Session::start(shell, config, &cfg).unwrap();
            for (cycle, burst) in trace.events.chunks(BURST).enumerate() {
                let pushed = session.push(burst.to_vec(), cycle as u64 + 1).unwrap();
                assert!(matches!(pushed, Response::Accepted { .. }), "push gave {pushed:?}");
                session.flush().unwrap();
                if cycle < WARMUP || (cycle - WARMUP) % 2 != 0 {
                    continue;
                }
                let Response::Solution { feasible, solver, assignment, .. } =
                    session.solve(0).unwrap()
                else {
                    panic!("seed {seed} epoch {epoch} cycle {cycle}: solve gave no solution");
                };
                if !solver.starts_with("zoned:") {
                    continue; // deep brownout answers through the flat path
                }
                solves += 1;
                let runtime = session.runtime();
                let instance = runtime.cluster().instance();
                let mut load = vec![0.0f64; instance.num_servers()];
                for &(device, server) in &assignment {
                    assert!(!runtime.maintainer().is_failed(server), "failed server {server}");
                    load[server] += instance.demand(device, server);
                }
                let mut own = vec![0.0f64; instance.num_servers()];
                for device in
                    (0..instance.num_devices()).filter(|&d| runtime.cluster().is_active(d))
                {
                    if let Some(server) = runtime.cluster().server_of(device) {
                        own[server] += instance.demand(device, server);
                    }
                }
                let fits = |loads: &[f64]| {
                    loads.iter().enumerate().all(|(j, &l)| l <= instance.capacity(j) + 1e-9)
                };
                assert!(fits(&own), "seed {seed} epoch {epoch} cycle {cycle}: no fit exists");
                assert!(
                    feasible && fits(&load),
                    "seed {seed} epoch {epoch} cycle {cycle}: zoned answer overloads a server \
                     (flagged feasible: {feasible}, loads {load:?})"
                );
                assert_eq!(assignment.len(), runtime.cluster().active_count());
            }
            session.close().unwrap();
        }
    }
    assert!(solves >= 30, "only {solves} zoned solves ran");
}
