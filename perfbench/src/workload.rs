//! The three workloads: their shapes and the seeded inputs they send.
//!
//! Every workload is a closed loop over one client connection. A cycle
//! pushes one burst of [`BURST`] events, queries a device the burst
//! touched, and on every `solve_every`-th timed cycle asks for a
//! budgeted solve. An epoch starts a fresh primary/standby pair, runs
//! `warmup_cycles` untimed cycles and `epoch_cycles` timed ones,
//! SIGKILLs the primary, fails over to the standby and runs
//! `tail_cycles` more timed cycles on it. Each epoch draws
//! its own traffic from `(seed, epoch)`, so a run's medians average
//! over several event streams. The shapes differ in what dominates a
//! cycle (see README.md for why each was chosen).

use tacc_chaos::{ChaosGenerator, ChaosProfile};
use tacc_runtime::RuntimeConfig;
use tacc_workload::{compose_traces, SurgeGenerator, TimedEvent, Trace, TraceEvent, TraceScenario};

/// Seed of every workload's deployment (topology, demands, capacities).
/// The deployment is fixed and `--seed` drives the traffic: which
/// devices come and go, which links drift, which servers fail. Across
/// seeds the random-geometric topology alone moved the zoned solve's
/// median by 1.7x, which would drown any change the benchmark is meant
/// to see.
pub const DEPLOYMENT_SEED: u64 = 2022;

/// Events per push.
pub const BURST: usize = 16;

/// A workload's size and request mix.
#[derive(Debug, Clone)]
pub struct Shape {
    pub name: &'static str,
    pub devices: usize,
    pub servers: usize,
    /// Share of active devices handing over (link drift) per surge tick.
    pub mobility: f64,
    /// Whether server failures from a `correlated-failures` chaos
    /// overlay are composed into the timeline.
    pub faults: bool,
    /// `--zones` of both daemons (solves are zone-decomposed).
    pub zones: usize,
    /// A solve follows the query on every timed cycle whose index,
    /// counted from the first timed cycle, is a multiple of this.
    pub solve_every: usize,
    /// Untimed cycles at the start of every epoch. `SurgeGenerator`
    /// opens each trace by bringing the all-active fleet down to half
    /// its devices at t = 0, one leave event per device. Those bursts
    /// cost a tenth of the ones that follow; timed, they made a third
    /// of the samples and put the medians on the edge between the two
    /// modes. The warm-up pushes and queries them like any cycle, so
    /// the journal, the standby and the gate see every event.
    pub warmup_cycles: usize,
    /// Timed cycles on the primary before it is killed.
    pub epoch_cycles: usize,
    /// Cycles on the promoted standby; the first one's push is the
    /// failover push.
    pub tail_cycles: usize,
    /// A `Stats` checkpoint (untimed) follows every this many cycles.
    pub checkpoint_every: usize,
    /// Epochs a run makes at least, whatever `--seconds` says.
    pub min_epochs: usize,
}

impl Shape {
    pub fn cycles(&self) -> usize {
        self.warmup_cycles + self.epoch_cycles + self.tail_cycles
    }

    /// The cycle whose push is the first one after the SIGKILL.
    pub fn failover_cycle(&self) -> usize {
        self.warmup_cycles + self.epoch_cycles
    }

    pub fn is_warmup(&self, cycle: usize) -> bool {
        cycle < self.warmup_cycles
    }

    /// Whether a solve follows the query of `cycle`.
    pub fn solves_after(&self, cycle: usize) -> bool {
        !self.is_warmup(cycle) && (cycle - self.warmup_cycles) % self.solve_every == 0
    }

    pub fn events(&self) -> usize {
        self.cycles() * BURST
    }
}

pub const NAMES: [&str; 3] = ["ingest", "zoned-solve", "failover"];

/// The shape of workload `name`; `smoke` shrinks it to run in seconds.
pub fn shape(name: &str, smoke: bool) -> Option<Shape> {
    let full = match name {
        "ingest" => Shape {
            name: "ingest",
            devices: 1_000,
            servers: 20,
            mobility: 0.05,
            faults: true,
            zones: 8,
            solve_every: 6,
            warmup_cycles: 32,
            epoch_cycles: 88,
            tail_cycles: 16,
            checkpoint_every: 32,
            // 1,030 timed pushes: ten samples beyond the push p99.
            min_epochs: 10,
        },
        "zoned-solve" => Shape {
            name: "zoned-solve",
            devices: 2_000,
            servers: 40,
            mobility: 0.0,
            faults: false,
            zones: 8,
            solve_every: 2,
            warmup_cycles: 64,
            epoch_cycles: 40,
            tail_cycles: 4,
            checkpoint_every: 16,
            min_epochs: 8,
        },
        "failover" => Shape {
            name: "failover",
            devices: 1_000,
            servers: 20,
            mobility: 0.05,
            faults: true,
            zones: 8,
            solve_every: 4,
            warmup_cycles: 32,
            epoch_cycles: 56,
            tail_cycles: 8,
            checkpoint_every: 32,
            min_epochs: 12,
        },
        _ => return None,
    };
    Some(if smoke {
        Shape {
            devices: 60,
            servers: 6,
            zones: 2,
            solve_every: 2,
            warmup_cycles: 2,
            epoch_cycles: 12,
            tail_cycles: 4,
            checkpoint_every: 4,
            min_epochs: 2,
            ..full
        }
    } else {
        full
    })
}

/// What a run sends: the scenario, the runtime configuration and the
/// epoch's events, all derived from the seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The scenario-only trace sent with `Init`.
    pub shell: Trace,
    /// The shell plus every event one epoch pushes.
    pub trace: Trace,
    pub config: RuntimeConfig,
}

impl Inputs {
    pub fn burst(&self, cycle: usize) -> &[TimedEvent] {
        &self.trace.events[cycle * BURST..(cycle + 1) * BURST]
    }

    /// A device the burst of `cycle` touched: the first joining or
    /// leaving device, else one picked from the cycle index.
    pub fn query_device(&self, cycle: usize) -> usize {
        self.burst(cycle)
            .iter()
            .find_map(|timed| match timed.event {
                TraceEvent::DeviceJoin { device } | TraceEvent::DeviceLeave { device } => {
                    Some(device)
                }
                _ => None,
            })
            .unwrap_or((cycle * 7_919) % self.trace.scenario.num_iot)
    }
}

/// Builds epoch `epoch`'s inputs from the seed: over the fixed
/// deployment, a surge trace (diurnal
/// churn, one flash crowd, handovers as link drift), with the server
/// faults of a `correlated-failures` chaos overlay composed on top when
/// the shape asks for them, cut to exactly one epoch's events.
pub fn inputs(shape: &Shape, seed: u64, epoch: usize) -> Result<Inputs, String> {
    let seed = seed.wrapping_mul(1_000_003).wrapping_add(epoch as u64);
    let scenario = TraceScenario {
        num_iot: shape.devices,
        num_servers: shape.servers,
        load_factor: 0.7,
        seed: DEPLOYMENT_SEED,
        ..TraceScenario::default()
    };
    let needed = shape.events();
    let mut horizon_ms = 30_000.0;
    let surge = loop {
        let surge = SurgeGenerator::new(scenario.clone())
            .horizon_ms(horizon_ms)
            .mobility_rate(shape.mobility)
            .generate(seed)
            .map_err(|e| e.to_string())?;
        if surge.events.len() >= needed {
            break surge;
        }
        horizon_ms *= 2.0;
    };
    let mut trace = if shape.faults {
        // Spread the fault rounds over the part of the timeline the
        // epoch uses; the surge trace owns every device event.
        let used_ms = surge.events[needed - 1].time_ms.max(1.0);
        let mut overlay = ChaosGenerator::new(scenario.clone(), ChaosProfile::CorrelatedFailures)
            .num_events(48)
            .mean_gap_ms(used_ms / 16.0)
            .burst(3)
            .generate(seed ^ 0x000c_4a05)
            .map_err(|e| e.to_string())?;
        overlay.events.retain(|timed| {
            matches!(timed.event, TraceEvent::ServerFail { .. } | TraceEvent::ServerRecover { .. })
        });
        compose_traces(&surge, &overlay).map_err(|e| e.to_string())?
    } else {
        surge
    };
    trace.events.truncate(needed);
    trace.validate().map_err(|e| e.to_string())?;
    let flood_timed = trace.events[shape.warmup_cycles * BURST..]
        .iter()
        .any(|timed| timed.time_ms <= 0.0 && matches!(timed.event, TraceEvent::DeviceLeave { .. }));
    if flood_timed {
        return Err(format!(
            "{}: the t = 0 leave flood runs past the {} warm-up cycles",
            shape.name, shape.warmup_cycles
        ));
    }
    let shell = Trace { events: Vec::new(), ..trace.clone() };
    Ok(Inputs { shell, trace, config: RuntimeConfig { seed, ..RuntimeConfig::default() } })
}
