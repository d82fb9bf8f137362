//! The `tacc` subcommands.

use std::path::Path;

use tacc_chaos::{
    corrupt_and_recover_everywhere, recover_with, run_with_crashes, ChaosGenerator, ChaosProfile,
    CrashPlan, Journal, JournalRecord, RecoveryPolicy,
};
use tacc_core::sim::SimConfig;
use tacc_core::workload::{
    DemandModel, Scenario, ScenarioBuilder, TopologyFamily, Trace, TraceGenerator, TraceScenario,
};
use tacc_core::{Algorithm, ClusterConfigurator};
use tacc_guard::{validate, Budget, QuarantineReport, Supervisor, SupervisorConfig};
use tacc_runtime::{ReassignPolicy, Runtime, RuntimeConfig, RuntimeSnapshot};
use tacc_zone::{dense_solve, ZoneLayout};

use crate::args::{Args, Flag, Spec};

/// Top-level usage text.
pub const USAGE: &str = "\
tacc — topology aware cluster configuration

USAGE:
  tacc solve     [OPTIONS]   configure a generated scenario with one algorithm
  tacc compare   [OPTIONS]   run a line-up of algorithms on the same scenario
  tacc simulate  [OPTIONS]   configure, then replay under Poisson traffic
  tacc topology  [OPTIONS]   emit a generated topology as Graphviz DOT
  tacc gen-trace [OPTIONS]   generate an online-reconfiguration event trace
  tacc run-trace [OPTIONS]   replay a trace through the online runtime
  tacc chaos     [OPTIONS]   adversarial faults + crash injection, prove recovery
  tacc serve     [OPTIONS]   always-on control-plane daemon (versioned wire protocol)
  tacc client    [OPTIONS]   drive a running daemon: one-shot ops or a scripted session
  tacc bench-report [OPTIONS] measure serial vs parallel hot paths, write JSON
  tacc obs-report [OPTIONS]  replay an instrumented workload, print the
                             phase profile and metric registry
  tacc algorithms            list algorithm names
  tacc families              list topology families
  tacc <command> --help      print this text

Each command takes only the flags listed for it below; any other flag is
a usage error.

SCENARIO OPTIONS (solve, compare, simulate, topology, obs-report; gen-trace
and chaos take all but --demand):
  --devices N        IoT devices                [default 100]
  --servers M        edge servers               [default 10]
  --load RHO         target load factor         [default 0.7]
  --family NAME      topology family            [default random-geometric]
  --demand MODEL     uniform | zipf | lognormal [default uniform]
  --seed S           scenario + solver seed     [default 42]

solve / simulate:
  --algorithm NAME   solver (see `tacc algorithms`) [default q-learning]
  --json             machine-readable output

solve only:
  --budget N         anytime work budget (episodes / device scans / steps /
                     generations); runs under the guard supervisor:
                     best-so-far answer, fallback ladder on failure,
                     GuardReport in the output. Requires an iterative
                     algorithm (the RL learners, local-search,
                     simulated-annealing, tabu-search, genetic)
  --zones K          hierarchical zone decomposition, as `tacc serve --zones`
                     answers Solve — partition the servers into K zones by
                     gateway locality, route devices on the compressed
                     delay summary, solve each zone with --algorithm under
                     its own guard ladder (in parallel), boundary-refine.
                     --budget is split across the zones [default 1000
                     units per zone]; --algorithm must be iterative, as for
                     --budget. K = 1 answers what --budget alone answers,
                     bit for bit

simulate only:
  --duration-ms D    simulated time             [default 30000]
  --deadline-ms D    per-request deadline       [default none]
  --round-trip       count the downlink delay too

gen-trace only:
  --events N         events to generate         [default 200]
  --mean-gap-ms G    mean event inter-arrival   [default 250]
  --out FILE         write the trace here       [default stdout]
  --surge            heavy-traffic mode: diurnal load curve + flash-crowd
                     join waves + device mobility re-attachment, emitted
                     as an ordinary format-v1 trace. Surge knobs:
    --horizon-ms T         trace length            [default 60000]
    --tick-ms T            load-curve sample step  [default 500]
    --base-rate R          baseline active fraction [default 0.5]
    --diurnal-amplitude A  sine swing around base  [default 0.3]
    --diurnal-period-ms T  sine period             [default 20000]
    --flash-crowds K       flash-crowd spikes      [default 1]
    --flash-magnitude M    spike height            [default 0.45]
    --flash-width-ms W     spike gaussian width    [default 1500]
    --mobility-rate R      handovers/device/tick   [default 0.05]
    --chaos-overlay NAME   compose the server-fault portion of a chaos
                           profile on top (the surge trace owns the
                           device timeline; overlay device churn is
                           dropped, server fail/recover kept)

run-trace only:
  --trace FILE       trace to replay (required)
  --seed S           runtime seed               [default 42]
  --policy NAME      greedy | q-learning        [default greedy]
  --budget N         migrations per reconfiguration pass [default 4]
  --refresh-every N  policy re-solve cadence    [default 0 = never]
  --full-recompute   rebuild all shortest paths per change
  --stop-after N     process only the first N events
  --snapshot-out F   write a resumable snapshot when stopping
  --resume FILE      resume from a snapshot (its config wins)
  --journal FILE     append-only fsync'd journal of the replay
  --snapshot-every N journal a full snapshot every N events [default 5]
  --recover          resume from --journal FILE after a crash
  --strict           with --recover: reject corrupt mid-journal records
                     instead of skipping and reporting them
  --timing           include wall-clock latency histograms in the report
  --strict-inputs    escalate advisory quarantine findings on the loaded
                     trace and snapshot to hard errors (client --drive too)

solve / run-trace:
  --obs-out FILE     write the deterministic observability stream (JSONL,
                     stable schema; implies TACC_OBS=1). Byte-identical
                     across replays of the same trace and seed.

obs-report only (replays --trace when given, otherwise generates a trace
from the gen-trace flags; always runs with observability on):
  --solve            profile a `solve` run instead of a trace replay
                     (accepts the solve flags, including --budget; guard
                     counters appear in the registry)
  --json             machine-readable profile + registry instead of text

chaos only:
  --profile NAME     correlated-failures | flapping | capacity-crunch |
                     burst-churn | partition | mixed  [default mixed]
  --events N         adversarial events to generate  [default 100]
  --burst K          faults per correlated burst     [default 3]
  --crash-every K    hard-kill every K events (0 = never) [default 7]
  --snapshot-every N journal snapshot cadence        [default 5]
  --journal FILE     keep the journal here           [default temp, removed]
  --corrupt-records  additionally flip one byte at every journal record
                     offset and prove detection + byte-identical recovery
  --truncate-at-byte N  additionally chop the journal to its first N bytes
                     (a simulated ENOSPC / torn write), reopen — which
                     truncates the torn tail — and prove the survivor
                     still recovers and finishes byte-identically
  (plus --devices/--servers/--load/--family/--seed and the run-trace
   policy flags; exits non-zero unless recovery is byte-identical)

serve only:
  --listen ADDR      accept TCP on ADDR (e.g. 127.0.0.1:7077)
  --uds PATH         accept on a Unix socket (either or both endpoints)
  --journal FILE     write-ahead journal; every acknowledged burst is
                     fsync'd before the Accepted response
  --recover          rebuild the session from --journal before serving
  --obs-out FILE     deterministic JSONL stream of the session
  --algorithm NAME   anytime solver answering Solve queries [default local-search]
  --batch-size N     pending events per coalesced apply     [default 64]
  --max-pending N    admission-control backlog cap          [default 4096]
  --query-budget N   default Solve work budget (units)      [default 2000]
  --snapshot-every N journal snapshot cadence (events)      [default 256]
  --read-timeout-ms T  idle wait per read on a connection before the
                     daemon re-checks for a termination signal [default 100]
  --no-brownout      pin the overload ladder at `normal` (admission
                     control and RetryAfter hints stay active)
  --high-water R     backlog ratio counting as pressure     [default 0.75]
  --low-water R      backlog ratio counting as calm         [default 0.25]
  --recover-after N  calm observations per ladder step-down [default 3]
  --standby          boot as the hot standby of a primary/standby pair:
                     accept journal replication into --journal (required)
                     and serve only after a Promote promotes this daemon
  --replicate-to A   boot as the primary of a pair: after every request,
                     ship the newly journaled lines (--journal required)
                     to the standby at A (host:port, or a /unix/socket
                     path) and withdraw any ack it cannot hold

client only (needs --connect ADDR, --uds PATH or --failover LIST):
  --failover LIST    comma-separated addresses (host:port, or socket
                     paths marked by a / or a .sock suffix) tried in
                     order; on connection loss the client
                     rotates to the next one, asks it to Promote, and
                     re-sends under the same push sequence numbers so the
                     new primary deduplicates anything already applied
  --client-timeout-ms T  connect + per-response timeout     [default 120000]
  --retry N          re-send a shed/timed-out push up to N times with
                     seeded jittered exponential backoff honoring the
                     daemon's retry_after_ms hint; re-sends reuse the
                     push sequence number, so the daemon deduplicates
                     a burst whose ack was lost          [default 0 = off]
  --retry-base-ms T  first backoff step                     [default 10]
  --retry-max-ms T   backoff step ceiling                   [default 2000]
  --retry-seed S     backoff jitter seed                    [default 0]
  --drive TRACE      scripted session: Init from the trace's scenario, push
                     its events in bursts, interleave queries, print stats
  --burst K          events per push while driving          [default 64]
  --query-every N    device query every N bursts (0 = off)  [default 5]
  --solve-every N    budgeted solve every N bursts (0 = off) [default 0]
  --budget N         work budget for those solves (0 = server default);
                     --drive also takes the run-trace policy flags for the
                     session's runtime, but not this one: the session keeps
                     the default migration budget (4)
  --hello | --promote | --stats | --metrics | --snapshot | --flush | --shutdown
                     one-shot requests (run in that order, after --drive
                     when both are given); each response prints as JSON.
                     --promote asks a standby to take over (a no-op
                     answered with was_primary on a serving daemon)
  --query D          one-shot device query
  --solve N          one-shot budgeted solve

bench-report only:
  --out DIR          where to write BENCH_*.json [default .]
  --reps N           timing repetitions, best-of  [default 3]
  --quick            smaller sizes for CI smoke runs

ENVIRONMENT:
  TACC_FAILPOINTS    deterministic fault injection: comma-separated
                     `name@occurrence:kind` specs (kind: io | enospc |
                     short | reset), e.g. `journal.fsync@2:enospc`.
                     Unset, every probe is a single relaxed atomic load.";

/// The scenario shape: what `solve`, `compare`, `simulate`, `topology`,
/// `gen-trace` and `chaos` build their scenario from.
const SCENARIO: &[Flag] = &[
    Flag::value("devices"),
    Flag::value("servers"),
    Flag::value("load"),
    Flag::value("family"),
    Flag::value("seed"),
];

/// The demand model, which only a solved scenario has (a trace does not).
const DEMAND: &[Flag] = &[Flag::value("demand")];

/// What [`solve_output`] reads besides the scenario.
const SOLVE_ONLY: &[Flag] = &[
    Flag::value("algorithm"),
    Flag::value("budget"),
    Flag::value("zones"),
    Flag::switch("json"),
    Flag::value("obs-out"),
];

/// What [`gen_trace_json`] reads besides the scenario.
const GEN_TRACE_ONLY: &[Flag] = &[
    Flag::value("events"),
    Flag::value("mean-gap-ms"),
    Flag::value("out"),
    Flag::switch("surge"),
    Flag::value("horizon-ms"),
    Flag::value("tick-ms"),
    Flag::value("base-rate"),
    Flag::value("diurnal-amplitude"),
    Flag::value("diurnal-period-ms"),
    Flag::value("flash-crowds"),
    Flag::value("flash-magnitude"),
    Flag::value("flash-width-ms"),
    Flag::value("mobility-rate"),
    Flag::value("chaos-overlay"),
    Flag::value("burst"),
];

/// What [`runtime_config_from`] reads.
const RUNTIME: &[Flag] = &[
    Flag::value("policy"),
    Flag::value("seed"),
    Flag::value("budget"),
    Flag::value("refresh-every"),
    Flag::switch("full-recompute"),
];

/// What [`run_trace_report`] reads besides the runtime config.
const RUN_TRACE_ONLY: &[Flag] = &[
    Flag::value("trace"),
    Flag::value("obs-out"),
    Flag::value("journal"),
    Flag::switch("recover"),
    Flag::switch("strict"),
    Flag::value("resume"),
    Flag::switch("strict-inputs"),
    Flag::value("snapshot-every"),
    Flag::value("stop-after"),
    Flag::value("snapshot-out"),
    Flag::switch("timing"),
];

const SOLVE: Spec = Spec { command: "solve", groups: &[SCENARIO, DEMAND, SOLVE_ONLY] };

const COMPARE: Spec = Spec { command: "compare", groups: &[SCENARIO, DEMAND] };

const SIMULATE: Spec = Spec {
    command: "simulate",
    groups: &[
        SCENARIO,
        DEMAND,
        &[
            Flag::value("algorithm"),
            Flag::value("duration-ms"),
            Flag::value("deadline-ms"),
            Flag::switch("round-trip"),
            Flag::switch("json"),
        ],
    ],
};

const TOPOLOGY: Spec = Spec { command: "topology", groups: &[SCENARIO, DEMAND] };

const GEN_TRACE: Spec = Spec { command: "gen-trace", groups: &[SCENARIO, GEN_TRACE_ONLY] };

const RUN_TRACE: Spec = Spec { command: "run-trace", groups: &[RUNTIME, RUN_TRACE_ONLY] };

const CHAOS: Spec = Spec {
    command: "chaos",
    groups: &[
        SCENARIO,
        RUNTIME,
        &[
            Flag::value("profile"),
            Flag::value("events"),
            Flag::value("mean-gap-ms"),
            Flag::value("burst"),
            Flag::value("crash-every"),
            Flag::value("snapshot-every"),
            Flag::value("journal"),
            Flag::switch("corrupt-records"),
            Flag::value("truncate-at-byte"),
        ],
    ],
};

const SERVE: Spec = Spec {
    command: "serve",
    groups: &[&[
        Flag::value("listen"),
        Flag::value("uds"),
        Flag::value("journal"),
        Flag::switch("recover"),
        Flag::value("obs-out"),
        Flag::value("algorithm"),
        Flag::value("batch-size"),
        Flag::value("max-pending"),
        Flag::value("query-budget"),
        Flag::value("snapshot-every"),
        Flag::value("read-timeout-ms"),
        Flag::value("zones"),
        Flag::switch("no-brownout"),
        Flag::value("high-water"),
        Flag::value("low-water"),
        Flag::value("recover-after"),
        Flag::switch("standby"),
        Flag::value("replicate-to"),
    ]],
};

const CLIENT: Spec = Spec {
    command: "client",
    groups: &[
        &[
            Flag::value("connect"),
            Flag::value("uds"),
            Flag::value("failover"),
            Flag::value("client-timeout-ms"),
            Flag::value("retry"),
            Flag::value("retry-base-ms"),
            Flag::value("retry-max-ms"),
            Flag::value("retry-seed"),
            Flag::value("drive"),
            Flag::switch("strict-inputs"),
            Flag::value("burst"),
            Flag::value("query-every"),
            Flag::value("solve-every"),
            Flag::value("budget"),
            Flag::switch("hello"),
            Flag::switch("promote"),
            Flag::value("query"),
            Flag::value("solve"),
            Flag::switch("flush"),
            Flag::switch("stats"),
            Flag::switch("metrics"),
            Flag::switch("snapshot"),
            Flag::switch("shutdown"),
        ],
        // `--drive` initializes the session with the runtime config.
        RUNTIME,
    ],
};

const BENCH_REPORT: Spec = Spec {
    command: "bench-report",
    groups: &[&[Flag::value("out"), Flag::value("reps"), Flag::switch("quick")]],
};

const OBS_REPORT: Spec = Spec {
    command: "obs-report",
    groups: &[
        &[Flag::switch("solve")],
        SCENARIO,
        DEMAND,
        SOLVE_ONLY,
        GEN_TRACE_ONLY,
        RUNTIME,
        RUN_TRACE_ONLY,
    ],
};

const ALGORITHMS: Spec = Spec { command: "algorithms", groups: &[] };

const FAMILIES: Spec = Spec { command: "families", groups: &[] };

fn family_by_name(name: &str) -> Result<TopologyFamily, String> {
    TopologyFamily::ALL
        .into_iter()
        .find(|f| f.name() == name)
        .ok_or_else(|| format!("unknown family `{name}` (see `tacc families`)"))
}

fn demand_by_name(name: &str) -> Result<DemandModel, String> {
    match name {
        "uniform" => Ok(DemandModel::Uniform { lo: 0.5, hi: 2.0 }),
        "zipf" => Ok(DemandModel::Zipf { base: 0.3, exponent: 1.5, num_ranks: 20 }),
        "lognormal" => Ok(DemandModel::LogNormal { mu: 0.0, sigma: 0.5 }),
        "constant" => Ok(DemandModel::Constant { value: 1.0 }),
        other => Err(format!("unknown demand model `{other}`")),
    }
}

fn scenario_from(args: &Args) -> Result<(Scenario, u64), String> {
    let devices = args.num_or("devices", 100usize)?;
    let servers = args.num_or("servers", 10usize)?;
    let load = args.num_or("load", 0.7f64)?;
    let seed = args.num_or("seed", 42u64)?;
    let family = family_by_name(args.str_or("family", "random-geometric"))?;
    let demand = demand_by_name(args.str_or("demand", "uniform"))?;
    let scenario = ScenarioBuilder::new()
        .family(family)
        .num_iot(devices)
        .num_servers(servers)
        .load_factor(load)
        .demand_model(demand)
        .build(seed)
        .map_err(|e| e.to_string())?;
    Ok((scenario, seed))
}

fn algorithm_from(args: &Args) -> Result<Algorithm, String> {
    let name = args.str_or("algorithm", "q-learning");
    Algorithm::by_name(name)
        .ok_or_else(|| format!("unknown algorithm `{name}` (see `tacc algorithms`)"))
}

/// Gates a quarantine report: hard violations (and, under
/// `--strict-inputs`, advisory findings) become errors; surviving
/// advisory findings are warned to stderr so they are never silent.
fn gate_inputs(report: &QuarantineReport, strict: bool) -> Result<(), String> {
    if report.advisory_count() > 0 && report.hard_count() == 0 && !strict {
        eprintln!(
            "[quarantine] {}: {} advisory finding(s): {}",
            report.subject,
            report.advisory_count(),
            report.summary()
        );
    }
    report.gate(strict).map_err(|e| e.to_string())
}

/// The optional `--budget N` anytime work budget.
fn budget_from(args: &Args) -> Result<Option<u64>, String> {
    match args.str_opt("budget") {
        None => Ok(None),
        Some(raw) => {
            raw.parse().map(Some).map_err(|_| format!("--budget got `{raw}`, expected a number"))
        }
    }
}

/// `tacc solve`
pub fn solve(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &SOLVE)?;
    println!("{}", solve_output(&args)?);
    Ok(())
}

fn solve_output(args: &Args) -> Result<String, String> {
    let obs_out = args.str_opt("obs-out");
    if obs_out.is_some() {
        tacc_obs::set_enabled(true);
        tacc_obs::reset();
    }
    let (scenario, seed) = scenario_from(args)?;
    let algorithm = algorithm_from(args)?;
    if let Some(zones) = args.str_opt("zones") {
        let zones: usize =
            zones.parse().map_err(|_| format!("--zones got `{zones}`, expected a number"))?;
        if zones == 0 {
            return Err("--zones needs at least one zone".to_owned());
        }
        if algorithm.anytime_solver(seed).is_none() {
            return Err(one_shot(&algorithm));
        }
        return solve_zoned(args, &scenario, &algorithm, seed, zones, obs_out);
    }
    if let Some(units) = budget_from(args)? {
        return solve_supervised(args, &scenario, &algorithm, seed, units, obs_out);
    }
    let config = ClusterConfigurator::from_scenario(&scenario)
        .algorithm(algorithm)
        .seed(seed)
        .configure()
        .map_err(|e| e.to_string())?;
    if let Some(path) = obs_out {
        write_solve_stream(Path::new(path), &config, seed).map_err(|e| e.to_string())?;
    }
    if args.has("json") {
        let assignment: Vec<usize> =
            (0..config.instance().num_devices()).map(|i| config.server_for(i)).collect();
        let doc = serde_json::json!({
            "algorithm": config.algorithm_name(),
            "feasible": config.is_feasible(),
            "total_delay_ms": config.total_delay_ms(),
            "mean_delay_ms": config.mean_delay_ms(),
            "load_fairness": config.load_fairness(),
            "server_loads": config.server_loads(),
            "assignment": assignment,
        });
        Ok(serde_json::to_string_pretty(&doc).expect("serializable"))
    } else {
        Ok(config.report())
    }
}

/// The refusal of a one-shot algorithm where a budgeted, supervised
/// solve is asked for (`--budget` or `--zones`).
fn one_shot(algorithm: &Algorithm) -> String {
    format!(
        "--budget needs an iterative algorithm (q-learning, double-q-learning, sarsa, \
         local-search, simulated-annealing, tabu-search, genetic); `{}` is one-shot",
        algorithm.name()
    )
}

/// The `--budget` path: the algorithm's anytime form under the guard
/// supervisor — deterministic best-so-far answer within the budget, the
/// fallback ladder on panic or error, and the [`tacc_guard::GuardReport`]
/// alongside the solution.
fn solve_supervised(
    args: &Args,
    scenario: &Scenario,
    algorithm: &Algorithm,
    seed: u64,
    units: u64,
    obs_out: Option<&str>,
) -> Result<String, String> {
    let Some(primary) = algorithm.anytime_solver(seed) else {
        return Err(one_shot(algorithm));
    };
    let instance = scenario.instance();
    let budget = Budget::units(units);
    let mut supervisor = Supervisor::new(SupervisorConfig::default());
    let (solution, guard) =
        supervisor.supervise(primary.as_ref(), instance, &budget).map_err(|e| e.to_string())?;

    if let Some(path) = obs_out {
        write_supervised_stream(Path::new(path), &guard, seed).map_err(|e| e.to_string())?;
    }
    let devices = instance.num_devices();
    let mean = if devices > 0 { solution.objective / devices as f64 } else { 0.0 };
    if args.has("json") {
        let assignment: Vec<i64> = (0..devices)
            .map(|i| solution.assignment.server_of(i).map_or(-1, |s| s as i64))
            .collect();
        let doc = serde_json::json!({
            "algorithm": guard.solver.clone(),
            "feasible": guard.feasible,
            "total_delay_ms": solution.objective,
            "mean_delay_ms": mean,
            "guard": serde_json::to_value(&guard),
            "assignment": assignment,
        });
        Ok(serde_json::to_string_pretty(&doc).expect("serializable"))
    } else {
        let budget_label = guard.budget.map_or_else(|| "unlimited".to_owned(), |b| b.to_string());
        Ok(format!(
            "supervised solve: {}\n\
             budget: {} unit(s), spent {}, completed: {}\n\
             degradation: {}\n\
             feasible: {}\n\
             total delay: {:.3} ms (mean {:.3} ms)\n\
             fallbacks: {}, panics caught: {}, breaker trips: {}",
            guard.solver,
            budget_label,
            guard.spent,
            guard.completed,
            guard.degradation.label(),
            guard.feasible,
            solution.objective,
            mean,
            guard.fallbacks,
            guard.panics_caught,
            guard.breaker_trips,
        ))
    }
}

/// The supervised-solve observability stream: meta, one `guard` record
/// (the full deterministic [`tacc_guard::GuardReport`]), and the closing
/// registry — where the `guard.*` counters (breaker trips, fallbacks,
/// panics caught) land.
fn write_supervised_stream(
    path: &Path,
    guard: &tacc_guard::GuardReport,
    seed: u64,
) -> std::io::Result<()> {
    use serde_json::Value;
    let mut stream = tacc_obs::StreamWriter::create(
        path,
        "solve-supervised",
        vec![
            ("algorithm".to_owned(), Value::Str(guard.solver.clone())),
            ("seed".to_owned(), Value::UInt(seed)),
        ],
    )?;
    let Value::Object(fields) = serde_json::to_value(guard) else {
        unreachable!("GuardReport serializes as an object")
    };
    stream.record("guard", fields)?;
    stream.finish(&tacc_obs::registry_snapshot())
}

/// The `--zones` path: the zoned Solve `tacc serve --zones` answers
/// with ([`tacc_serve::zoned_solve`]), over every server at the
/// scenario's link costs — `--algorithm` under one guard ladder per
/// zone, `--budget` split across the zones (unlimited: the zone
/// pipeline's default rounds per zone). One zone answers what `--budget`
/// alone answers.
fn solve_zoned(
    args: &Args,
    scenario: &Scenario,
    algorithm: &Algorithm,
    seed: u64,
    zones: usize,
    obs_out: Option<&str>,
) -> Result<String, String> {
    let (topology, instance) = (scenario.topology(), scenario.instance());
    let model = tacc_core::topology::DelayModel::default();
    let costs: Vec<f64> = topology.graph().links().map(|(_, l)| model.link_delay_ms(l)).collect();
    let devices: Vec<usize> = (0..instance.num_devices()).collect();
    let servers: Vec<usize> = (0..instance.num_servers()).collect();
    let budget = budget_from(args)?.map_or_else(Budget::unlimited, Budget::units);
    let answer = tacc_serve::zoned_solve(
        topology, &costs, instance, &devices, &servers, zones, algorithm, seed, &budget,
    );
    let (solution, report) = (&answer.solution, &answer.report);
    if let Some(path) = obs_out {
        write_zoned_stream(Path::new(path), &answer, servers.len(), seed)
            .map_err(|e| e.to_string())?;
    }
    let n = devices.len();
    let mean = if n > 0 { solution.objective / n as f64 } else { 0.0 };
    if args.has("json") {
        let zone_stats: Vec<serde_json::Value> = solution
            .zones
            .iter()
            .map(|z| {
                serde_json::json!({
                    "zone": z.zone,
                    "devices": z.devices,
                    "servers": z.servers,
                    "budget": z.budget,
                    "objective_ms": z.objective,
                    "feasible": z.feasible,
                })
            })
            .collect();
        let doc = serde_json::json!({
            "algorithm": report.solver.clone(),
            "zones": solution.zones.len(),
            "feasible": solution.feasible,
            "total_delay_ms": solution.objective,
            "mean_delay_ms": mean,
            "router_spills": answer.router_spills,
            "border_refinements": solution.refinements,
            "zone_stats": zone_stats,
            "assignment": solution.server_of_device,
            "zone_of_device": solution.zone_of_device,
        });
        Ok(serde_json::to_string_pretty(&doc).expect("serializable"))
    } else {
        let mut out = format!(
            "zoned solve: {} in {} zone(s) over {} servers\n\
             degradation: {}, spent {} unit(s)\n\
             feasible: {}\n\
             total delay: {:.3} ms (mean {:.3} ms)\n\
             router spills: {}, border refinements: {}\n\
             {:>4} {:>8} {:>8} {:>8} {:>14} {:>9}",
            report.solver,
            solution.zones.len(),
            servers.len(),
            report.degradation.label(),
            report.spent,
            solution.feasible,
            solution.objective,
            mean,
            answer.router_spills,
            solution.refinements,
            "zone",
            "devices",
            "servers",
            "budget",
            "delay(ms)",
            "feasible",
        );
        for z in &solution.zones {
            out.push_str(&format!(
                "\n{:>4} {:>8} {:>8} {:>8} {:>14.3} {:>9}",
                z.zone, z.devices, z.servers, z.budget, z.objective, z.feasible
            ));
        }
        Ok(out)
    }
}

/// The zoned-solve observability stream: meta, the `zones` record
/// `tacc serve` also emits, one `solution` record, and the closing
/// registry — where the `zone.*` and `guard.*` counters land.
fn write_zoned_stream(
    path: &Path,
    answer: &tacc_serve::ZonedAnswer,
    servers: usize,
    seed: u64,
) -> std::io::Result<()> {
    use serde_json::Value;
    let solution = &answer.solution;
    let devices = solution.server_of_device.len();
    let mean = if devices > 0 { solution.objective / devices as f64 } else { 0.0 };
    let mut stream = tacc_obs::StreamWriter::create(
        path,
        "solve-zoned",
        vec![
            ("seed".to_owned(), Value::UInt(seed)),
            ("devices".to_owned(), Value::UInt(devices as u64)),
            ("servers".to_owned(), Value::UInt(servers as u64)),
        ],
    )?;
    stream.record("zones", answer.zones_record())?;
    stream.record(
        "solution",
        vec![
            ("feasible".to_owned(), Value::Bool(solution.feasible)),
            ("total_delay_ms".to_owned(), Value::Float(solution.objective)),
            ("mean_delay_ms".to_owned(), Value::Float(mean)),
        ],
    )?;
    stream.finish(&tacc_obs::registry_snapshot())
}

/// Writes the `solve` observability stream: the meta record, one
/// `solution` record (deterministic solve facts only — wall-clock stays
/// out so replays are byte-identical), and the closing registry record.
fn write_solve_stream(
    path: &Path,
    config: &tacc_core::ClusterConfiguration,
    seed: u64,
) -> std::io::Result<()> {
    use serde_json::Value;
    let mut stream = tacc_obs::StreamWriter::create(
        path,
        "solve",
        vec![
            ("algorithm".to_owned(), Value::Str(config.algorithm_name().to_owned())),
            ("seed".to_owned(), Value::UInt(seed)),
            ("devices".to_owned(), Value::UInt(config.instance().num_devices() as u64)),
            ("servers".to_owned(), Value::UInt(config.instance().num_servers() as u64)),
        ],
    )?;
    let stats = &config.solution().stats;
    stream.record(
        "solution",
        vec![
            ("feasible".to_owned(), Value::Bool(config.is_feasible())),
            ("total_delay_ms".to_owned(), Value::Float(config.total_delay_ms())),
            ("mean_delay_ms".to_owned(), Value::Float(config.mean_delay_ms())),
            ("iterations".to_owned(), Value::UInt(stats.iterations)),
            ("evaluations".to_owned(), Value::UInt(stats.evaluations)),
        ],
    )?;
    stream.finish(&tacc_obs::registry_snapshot())
}

/// `tacc compare`
pub fn compare(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &COMPARE)?;
    let (scenario, seed) = scenario_from(&args)?;
    println!(
        "{:<22} {:>12} {:>9} {:>9} {:>12}",
        "algorithm", "delay(ms)", "feasible", "fairness", "solve"
    );
    for algorithm in Algorithm::standard_set() {
        let config = ClusterConfigurator::from_scenario(&scenario)
            .algorithm(algorithm)
            .seed(seed)
            .configure()
            .map_err(|e| e.to_string())?;
        println!(
            "{:<22} {:>12.3} {:>9} {:>9.3} {:>12.2?}",
            config.algorithm_name(),
            config.mean_delay_ms(),
            config.is_feasible(),
            config.load_fairness(),
            config.solution().stats.elapsed,
        );
    }
    Ok(())
}

/// `tacc simulate`
pub fn simulate(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &SIMULATE)?;
    let (scenario, seed) = scenario_from(&args)?;
    let algorithm = algorithm_from(&args)?;
    let duration_ms = args.num_or("duration-ms", 30_000.0f64)?;
    let deadline_ms = args.num_or("deadline-ms", f64::INFINITY)?;
    let config = ClusterConfigurator::from_scenario(&scenario)
        .algorithm(algorithm)
        .seed(seed)
        .configure()
        .map_err(|e| e.to_string())?;
    let report = config
        .simulate(SimConfig {
            duration_ms,
            warmup_ms: duration_ms * 0.1,
            seed,
            round_trip: args.has("round-trip"),
            deadline_ms,
        })
        .map_err(|e| e.to_string())?;
    if args.has("json") {
        let doc = serde_json::json!({
            "algorithm": config.algorithm_name(),
            "static_mean_delay_ms": config.mean_delay_ms(),
            "completed_requests": report.completed_requests(),
            "mean_latency_ms": report.latency_stats().mean(),
            "p50_latency_ms": report.latency_percentile(50.0),
            "p99_latency_ms": report.latency_percentile(99.0),
            "deadline_miss_ratio": report.deadline_miss_ratio(),
            "server_utilization": report.server_utilization(),
        });
        println!("{}", serde_json::to_string_pretty(&doc).expect("serializable"));
    } else {
        println!("{}", config.report());
        println!("--- simulation ({duration_ms:.0} ms) ---");
        println!("completed requests: {}", report.completed_requests());
        println!("mean latency: {:.3} ms", report.latency_stats().mean());
        println!("p99 latency:  {:.3} ms", report.latency_percentile(99.0));
        if deadline_ms.is_finite() {
            println!("deadline miss ratio: {:.2}%", report.deadline_miss_ratio() * 100.0);
        }
    }
    Ok(())
}

/// `tacc topology`
pub fn topology(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &TOPOLOGY)?;
    let (scenario, _) = scenario_from(&args)?;
    print!("{}", tacc_core::topology::export::to_dot(scenario.topology()));
    Ok(())
}

/// `tacc gen-trace`
pub fn gen_trace(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &GEN_TRACE)?;
    let json = gen_trace_json(&args)?;
    match args.str_opt("out") {
        Some(path) => std::fs::write(path, json).map_err(|e| format!("writing `{path}`: {e}"))?,
        None => println!("{json}"),
    }
    Ok(())
}

fn gen_trace_json(args: &Args) -> Result<String, String> {
    let seed = args.num_or("seed", 42u64)?;
    let scenario = TraceScenario {
        family: family_by_name(args.str_or("family", "random-geometric"))?,
        num_iot: args.num_or("devices", 100usize)?,
        num_servers: args.num_or("servers", 10usize)?,
        load_factor: args.num_or("load", 0.7f64)?,
        seed,
    };
    let trace = if args.has("surge") {
        surge_trace(args, scenario, seed)?
    } else {
        TraceGenerator::new(scenario)
            .num_events(args.num_or("events", 200usize)?)
            .mean_interarrival_ms(args.num_or("mean-gap-ms", 250.0f64)?)
            .generate(seed)
            .map_err(|e| e.to_string())?
    };
    Ok(trace.to_json())
}

/// The `gen-trace --surge` path: a heavy-traffic trace (diurnal load,
/// flash crowds, mobility re-attachment) from [`SurgeGenerator`], with
/// an optional `--chaos-overlay PROFILE` composed on top so recovery
/// drills and load surges can hit the daemon in the same timeline.
fn surge_trace(args: &Args, scenario: TraceScenario, seed: u64) -> Result<Trace, String> {
    use tacc_core::workload::{compose_traces, SurgeGenerator};
    let surge = SurgeGenerator::new(scenario.clone())
        .horizon_ms(args.num_or("horizon-ms", 60_000.0f64)?)
        .tick_ms(args.num_or("tick-ms", 500.0f64)?)
        .base_rate(args.num_or("base-rate", 0.5f64)?)
        .diurnal_amplitude(args.num_or("diurnal-amplitude", 0.3f64)?)
        .diurnal_period_ms(args.num_or("diurnal-period-ms", 20_000.0f64)?)
        .flash_crowds(args.num_or("flash-crowds", 1usize)?)
        .flash_magnitude(args.num_or("flash-magnitude", 0.45f64)?)
        .flash_width_ms(args.num_or("flash-width-ms", 1_500.0f64)?)
        .mobility_rate(args.num_or("mobility-rate", 0.05f64)?)
        .generate(seed)
        .map_err(|e| e.to_string())?;
    let Some(profile_name) = args.str_opt("chaos-overlay") else {
        return Ok(surge);
    };
    let profile = ChaosProfile::from_name(profile_name).ok_or_else(|| {
        let known: Vec<&str> = ChaosProfile::ALL.iter().map(|p| p.name()).collect();
        format!("unknown chaos profile `{profile_name}` (one of: {})", known.join(", "))
    })?;
    let mut overlay = ChaosGenerator::new(scenario, profile)
        .num_events(args.num_or("events", 40usize)?)
        .mean_gap_ms(args.num_or("mean-gap-ms", 1_000.0f64)?)
        .burst(args.num_or("burst", 3usize)?)
        .generate(seed ^ 0x000c_4a05)
        .map_err(|e| e.to_string())?;
    // Chaos profiles churn devices too, but the surge trace already owns
    // the device timeline — composing both would double-book join/leave
    // state. Keep the overlay's server faults (the part surge cannot
    // produce) and let the surge trace drive every device.
    overlay.events.retain(|timed| {
        matches!(
            timed.event,
            tacc_core::workload::TraceEvent::ServerFail { .. }
                | tacc_core::workload::TraceEvent::ServerRecover { .. }
        )
    });
    compose_traces(&surge, &overlay).map_err(|e| e.to_string())
}

/// `tacc run-trace`
pub fn run_trace(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &RUN_TRACE)?;
    println!("{}", run_trace_report(&args)?);
    Ok(())
}

fn runtime_config_from(args: &Args) -> Result<RuntimeConfig, String> {
    let policy_name = args.str_or("policy", "greedy");
    let policy = ReassignPolicy::from_name(policy_name)
        .ok_or_else(|| format!("unknown policy `{policy_name}`"))?;
    let refresh = args.num_or("refresh-every", 0u64)?;
    Ok(RuntimeConfig {
        policy,
        seed: args.num_or("seed", 42u64)?,
        migration_budget: args.num_or("budget", 4usize)?,
        refresh_every: (refresh > 0).then_some(refresh),
        full_recompute: args.has("full-recompute"),
        ..RuntimeConfig::default()
    })
}

fn run_trace_report(args: &Args) -> Result<String, String> {
    let obs_out = args.str_opt("obs-out");
    if obs_out.is_some() {
        tacc_obs::set_enabled(true);
        tacc_obs::reset();
    }
    let journal_path = args.str_opt("journal");
    if args.has("recover") && journal_path.is_none() {
        return Err("--recover needs --journal FILE".to_owned());
    }
    if journal_path.is_some() && args.str_opt("resume").is_some() {
        return Err(
            "--journal and --resume are mutually exclusive (use --recover to resume from a journal)"
                .to_owned(),
        );
    }

    let path = args.str_opt("trace").ok_or("run-trace needs --trace FILE")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading `{path}`: {e}"))?;
    let trace = Trace::from_json(&text).map_err(|e| e.to_string())?;
    gate_inputs(&validate::validate_trace(&trace), args.has("strict-inputs"))?;

    let mut journal = None;
    let mut runtime = if let Some(journal_file) = journal_path.filter(|_| args.has("recover")) {
        // Crash recovery: rebuild from the fsync'd journal, then keep
        // journaling the rest of the replay to the same file. The default
        // policy is lenient (skip-and-report mid-journal corruption);
        // `--strict` refuses to proceed past a single damaged record.
        let policy =
            if args.has("strict") { RecoveryPolicy::Strict } else { RecoveryPolicy::Lenient };
        let recovery =
            recover_with(Path::new(journal_file), &trace, policy).map_err(|e| e.to_string())?;
        if !recovery.corrupt_records.is_empty() {
            eprintln!(
                "[recover] skipped {} corrupt journal record(s) at line(s) {:?}",
                recovery.corrupt_records.len(),
                recovery.corrupt_records
            );
        }
        let mut handle =
            Journal::open_append(Path::new(journal_file)).map_err(|e| e.to_string())?;
        handle
            .append(&JournalRecord::Recovered { cursor: recovery.runtime.cursor() })
            .map_err(|e| e.to_string())?;
        journal = Some(handle);
        recovery.runtime
    } else if let Some(snap_path) = args.str_opt("resume") {
        let snap_text = std::fs::read_to_string(snap_path)
            .map_err(|e| format!("reading `{snap_path}`: {e}"))?;
        let snapshot = RuntimeSnapshot::from_json(&snap_text).map_err(|e| e.to_string())?;
        gate_inputs(&validate::validate_snapshot(&snapshot), args.has("strict-inputs"))?;
        Runtime::restore(snapshot, &trace).map_err(|e| e.to_string())?
    } else {
        let config = runtime_config_from(args)?;
        if let Some(journal_file) = journal_path {
            journal = Some(
                Journal::create(Path::new(journal_file), &trace, &config)
                    .map_err(|e| e.to_string())?,
            );
        }
        Runtime::from_trace(&trace, config).map_err(|e| e.to_string())?
    };

    use serde_json::Value;
    let mut stream = match obs_out {
        Some(path) => Some(
            tacc_obs::StreamWriter::create(
                Path::new(path),
                "run-trace",
                vec![
                    (
                        "trace_fingerprint".to_owned(),
                        Value::Str(format!("{:#018x}", trace.fingerprint())),
                    ),
                    ("events".to_owned(), Value::UInt(trace.events.len() as u64)),
                    ("policy".to_owned(), Value::Str(runtime.config().policy.name().to_owned())),
                    ("seed".to_owned(), Value::UInt(runtime.config().seed)),
                    ("start_cursor".to_owned(), Value::UInt(runtime.cursor())),
                ],
            )
            .map_err(|e| format!("creating `{path}`: {e}"))?,
        ),
        None => None,
    };

    let snapshot_every = args.num_or("snapshot-every", 5u64)?;
    let stop_after = args.num_or("stop-after", u64::MAX)?;
    let end = trace.events.len().min(usize::try_from(stop_after).unwrap_or(usize::MAX));
    while (runtime.cursor() as usize) < end {
        let index = runtime.cursor() as usize;
        runtime.step(index, &trace.events[index]).map_err(|e| e.to_string())?;
        if let Some(handle) = journal.as_mut() {
            handle
                .append(&JournalRecord::Step { index: index as u64 })
                .map_err(|e| e.to_string())?;
            if snapshot_every > 0 && runtime.cursor() % snapshot_every == 0 {
                handle
                    .append(&JournalRecord::Snapshot { snapshot: runtime.snapshot() })
                    .map_err(|e| e.to_string())?;
            }
        }
        if let Some(s) = stream.as_mut() {
            s.record(
                "step",
                vec![
                    ("index".to_owned(), Value::UInt(index as u64)),
                    (
                        "event".to_owned(),
                        Value::Str(trace.events[index].event.kind_name().to_owned()),
                    ),
                    ("active".to_owned(), Value::UInt(runtime.cluster().active_count() as u64)),
                    ("total_delay_ms".to_owned(), Value::Float(runtime.cluster().total_delay())),
                ],
            )
            .map_err(|e| e.to_string())?;
        }
    }

    if let Some(snap_path) = args.str_opt("snapshot-out") {
        std::fs::write(snap_path, runtime.snapshot().to_json())
            .map_err(|e| format!("writing `{snap_path}`: {e}"))?;
    }

    if let Some(mut s) = stream {
        s.record(
            "summary",
            vec![
                ("cursor".to_owned(), Value::UInt(runtime.cursor())),
                ("active_devices".to_owned(), Value::UInt(runtime.cluster().active_count() as u64)),
                ("shed_devices".to_owned(), Value::UInt(runtime.shed_count() as u64)),
                ("unreachable_devices".to_owned(), Value::UInt(runtime.unreachable_count() as u64)),
                ("departed_devices".to_owned(), Value::UInt(runtime.departed_count() as u64)),
                ("total_delay_ms".to_owned(), Value::Float(runtime.cluster().total_delay())),
                ("feasible".to_owned(), Value::Bool(runtime.cluster().is_feasible())),
            ],
        )
        .map_err(|e| e.to_string())?;
        s.finish(&tacc_obs::registry_snapshot()).map_err(|e| e.to_string())?;
    }

    serde_json::to_string_pretty(&runtime.report_json(args.has("timing")))
        .map_err(|e| e.to_string())
}

/// `tacc chaos`
///
/// Generates an adversarial fault schedule, replays it through the
/// runtime under crash injection (journaled, hard-killed every
/// `--crash-every` events, recovered from the journal), and prints the
/// survival report. Exits non-zero unless the recovered run is
/// byte-identical to an uninterrupted reference and no invariant was
/// violated along the way.
pub fn chaos(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &CHAOS)?;
    let (json, byte_identical) = chaos_report(&args)?;
    println!("{json}");
    if !byte_identical {
        return Err("crash recovery diverged from the uninterrupted reference run".to_owned());
    }
    Ok(())
}

fn chaos_report(args: &Args) -> Result<(String, bool), String> {
    let seed = args.num_or("seed", 42u64)?;
    let scenario = TraceScenario {
        family: family_by_name(args.str_or("family", "random-geometric"))?,
        num_iot: args.num_or("devices", 24usize)?,
        num_servers: args.num_or("servers", 4usize)?,
        load_factor: args.num_or("load", 0.7f64)?,
        seed,
    };
    let profile_name = args.str_or("profile", "mixed");
    let profile = ChaosProfile::from_name(profile_name).ok_or_else(|| {
        let known: Vec<&str> = ChaosProfile::ALL.iter().map(|p| p.name()).collect();
        format!("unknown chaos profile `{profile_name}` (one of: {})", known.join(", "))
    })?;
    let trace = ChaosGenerator::new(scenario, profile)
        .num_events(args.num_or("events", 100usize)?)
        .mean_gap_ms(args.num_or("mean-gap-ms", 50.0f64)?)
        .burst(args.num_or("burst", 3usize)?)
        .generate(seed)
        .map_err(|e| e.to_string())?;

    let plan = CrashPlan {
        config: runtime_config_from(args)?,
        crash_every: args.num_or("crash-every", 7u64)?,
        snapshot_every: args.num_or("snapshot-every", 5u64)?,
    };
    let keep_journal = args.str_opt("journal").is_some();
    let journal_path = match args.str_opt("journal") {
        Some(path) => std::path::PathBuf::from(path),
        None => {
            std::env::temp_dir().join(format!("tacc-chaos-{}-{seed}.jsonl", std::process::id()))
        }
    };
    let report = run_with_crashes(&trace, &plan, &journal_path).map_err(|e| e.to_string())?;
    let mut doc = report.to_json();
    if args.has("corrupt-records") {
        // The journal-integrity gate: a fresh journaled run, then one
        // flipped byte at every record offset — each must be detected
        // and survived with byte-identical lenient recovery.
        let corrupt_path = journal_path.with_extension("corrupt.jsonl");
        let proven = corrupt_and_recover_everywhere(
            &trace,
            &plan.config,
            plan.snapshot_every,
            &corrupt_path,
        )
        .map_err(|e| e.to_string())?;
        std::fs::remove_file(&corrupt_path).ok();
        if let serde_json::Value::Object(fields) = &mut doc {
            fields.push(("corruption_offsets_proven".to_owned(), serde_json::Value::UInt(proven)));
        }
    }
    if let Some(raw) = args.str_opt("truncate-at-byte") {
        // The torn-tail gate: journal a fresh run, chop the file at the
        // given byte (what an ENOSPC or power cut leaves behind), and
        // prove reopen-heal + recovery still finishes byte-identically.
        let at_byte: u64 = raw
            .parse()
            .map_err(|_| format!("--truncate-at-byte got `{raw}`, expected a number"))?;
        let torn_path = journal_path.with_extension("torn.jsonl");
        let surviving = tacc_chaos::truncate_and_recover(
            &trace,
            &plan.config,
            plan.snapshot_every,
            &torn_path,
            at_byte,
        )
        .map_err(|e| e.to_string())?;
        std::fs::remove_file(&torn_path).ok();
        if let serde_json::Value::Object(fields) = &mut doc {
            fields.push(("truncated_at_byte".to_owned(), serde_json::Value::UInt(at_byte)));
            fields.push((
                "truncation_surviving_lines".to_owned(),
                serde_json::Value::UInt(surviving),
            ));
        }
    }
    if !keep_journal {
        std::fs::remove_file(&journal_path).ok();
    }
    let json = serde_json::to_string_pretty(&doc).expect("chaos reports are serializable");
    Ok((json, report.byte_identical))
}

fn serve_config_from(args: &Args) -> Result<tacc_serve::ServeConfig, String> {
    let defaults = tacc_serve::ServeConfig::default();
    let surge = tacc_serve::SurgeConfig {
        brownout: !args.has("no-brownout"),
        high_water: args.num_or("high-water", defaults.surge.high_water)?,
        low_water: args.num_or("low-water", defaults.surge.low_water)?,
        recover_after: args.num_or("recover-after", defaults.surge.recover_after)?,
    };
    if !(0.0..=1.0).contains(&surge.low_water)
        || !(0.0..=1.0).contains(&surge.high_water)
        || surge.low_water > surge.high_water
    {
        return Err(format!(
            "watermarks need 0 <= --low-water <= --high-water <= 1 (got {} / {})",
            surge.low_water, surge.high_water
        ));
    }
    Ok(tacc_serve::ServeConfig {
        batch_size: args.num_or("batch-size", defaults.batch_size)?,
        max_pending: args.num_or("max-pending", defaults.max_pending)?,
        query_budget: args.num_or("query-budget", defaults.query_budget)?,
        snapshot_every: args.num_or("snapshot-every", defaults.snapshot_every)?,
        read_timeout_ms: args.num_or("read-timeout-ms", defaults.read_timeout_ms)?,
        algorithm: args.str_or("algorithm", &defaults.algorithm).to_owned(),
        journal: args.str_opt("journal").map(std::path::PathBuf::from),
        obs_out: args.str_opt("obs-out").map(std::path::PathBuf::from),
        zones: args.num_or("zones", defaults.zones)?,
        surge,
    })
}

/// `tacc serve`
///
/// Boots the control-plane daemon on `--listen` (TCP) and/or `--uds`
/// (Unix socket) and serves the versioned wire protocol until a
/// `Shutdown` request or SIGTERM/SIGINT — both drain the session
/// cleanly: pending events applied, journal and obs stream finished.
/// With `--standby` or `--replicate-to` the daemon boots as one half of
/// a primary/standby pair (see `tacc-ha`).
pub fn serve(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &SERVE)?;
    let cfg = serve_config_from(&args)?;
    if cfg.obs_out.is_some() {
        tacc_obs::set_enabled(true);
        tacc_obs::reset();
    }
    if args.has("recover") && cfg.journal.is_none() {
        return Err("--recover needs --journal FILE".to_owned());
    }
    if args.has("standby") && args.str_opt("replicate-to").is_some() {
        return Err("--standby and --replicate-to are mutually exclusive".to_owned());
    }
    if args.has("standby") && args.has("recover") {
        return Err("--standby and --recover are mutually exclusive (a standby's \
                    journal is the primary's, shipped from line zero)"
            .to_owned());
    }
    let mut hooks = if args.has("standby") {
        let core = tacc_ha::StandbyCore::new(&cfg).map_err(|e| e.to_string())?;
        Some(tacc_ha::HaHooks::standby(core))
    } else if let Some(standby_addr) = args.str_opt("replicate-to") {
        let Some(journal) = cfg.journal.clone() else {
            return Err(
                "--replicate-to needs --journal FILE (the journal is what ships)".to_owned()
            );
        };
        Some(tacc_ha::HaHooks::primary(tacc_ha::Replicator::new(&journal, standby_addr)))
    } else {
        None
    };
    let uds = args.str_opt("uds").map(std::path::PathBuf::from);
    let mut server = tacc_serve::Server::bind(args.str_opt("listen"), uds.as_deref(), cfg)
        .map_err(|e| e.to_string())?;
    if args.has("recover") {
        server.recover_session().map_err(|e| e.to_string())?;
    }
    tacc_serve::install_termination_handler();
    for endpoint in server.endpoints() {
        // Stderr, flushed line-by-line: scripts scrape the address from
        // here while stdout stays free for structured output.
        eprintln!("[serve] listening on {endpoint}");
    }
    match hooks.as_mut() {
        Some(hooks) => server.run_with(hooks).map_err(|e| e.to_string()),
        None => server.run().map_err(|e| e.to_string()),
    }
}

/// `tacc client`
///
/// Connects to a running daemon. `--drive TRACE` runs the scripted
/// session the acceptance gate describes — Init from the trace's
/// scenario, stream its events in bursts, interleave device queries and
/// budgeted solves — then any one-shot flags run in their listed order.
pub fn client(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &CLIENT)?;
    let timeout_ms = args.num_or("client-timeout-ms", 120_000u64)?;
    let cfg = tacc_serve::ClientConfig {
        connect_timeout: std::time::Duration::from_millis(timeout_ms.max(1)),
        read_timeout: std::time::Duration::from_millis(timeout_ms.max(1)),
    };
    let mut client = match (args.str_opt("failover"), args.str_opt("connect"), args.str_opt("uds"))
    {
        (Some(list), _, _) => {
            tacc_serve::Client::connect_failover_with(list, cfg).map_err(|e| e.to_string())?
        }
        (None, Some(addr), _) => {
            tacc_serve::Client::connect_tcp_with(addr, cfg).map_err(|e| e.to_string())?
        }
        (None, None, Some(path)) => tacc_serve::Client::connect_unix_with(Path::new(path), cfg)
            .map_err(|e| e.to_string())?,
        (None, None, None) => {
            return Err("client needs --connect ADDR, --uds PATH or --failover LIST".to_owned())
        }
    };

    if let Some(trace_path) = args.str_opt("drive") {
        drive_session(&mut client, &args, trace_path)?;
    }
    let print = |response: &tacc_proto::Response| {
        let doc = serde_json::to_value(response);
        println!("{}", serde_json::to_string_pretty(&doc).expect("serializable"));
    };
    if args.has("hello") {
        print(&client.hello("tacc-cli").map_err(|e| e.to_string())?);
    }
    if args.has("promote") {
        print(&client.request(&tacc_proto::Request::Promote).map_err(|e| e.to_string())?);
    }
    if let Some(raw) = args.str_opt("query") {
        let device: usize = raw.parse().map_err(|_| format!("--query got `{raw}`"))?;
        print(&client.query(device).map_err(|e| e.to_string())?);
    }
    if let Some(raw) = args.str_opt("solve") {
        let units: u64 = raw.parse().map_err(|_| format!("--solve got `{raw}`"))?;
        print(&client.solve(units).map_err(|e| e.to_string())?);
    }
    if args.has("flush") {
        print(&client.flush().map_err(|e| e.to_string())?);
    }
    if args.has("stats") {
        print(&client.stats().map_err(|e| e.to_string())?);
    }
    if args.has("metrics") {
        match client.metrics().map_err(|e| e.to_string())? {
            tacc_proto::Response::Metrics { text } => print!("{text}"),
            other => print(&other),
        }
    }
    if args.has("snapshot") {
        match client.snapshot().map_err(|e| e.to_string())? {
            tacc_proto::Response::Snapshot { snapshot_json } => println!("{snapshot_json}"),
            other => print(&other),
        }
    }
    if args.has("shutdown") {
        print(&client.shutdown().map_err(|e| e.to_string())?);
    }
    Ok(())
}

/// The scripted-session loop behind `tacc client --drive`.
fn drive_session(
    client: &mut tacc_serve::Client,
    args: &Args,
    trace_path: &str,
) -> Result<(), String> {
    use tacc_proto::Response;

    let text =
        std::fs::read_to_string(trace_path).map_err(|e| format!("reading `{trace_path}`: {e}"))?;
    let trace = Trace::from_json(&text).map_err(|e| e.to_string())?;
    gate_inputs(&validate::validate_trace(&trace), args.has("strict-inputs"))?;
    let burst = args.num_or("burst", 64usize)?.max(1);
    let query_every = args.num_or("query-every", 5usize)?;
    let solve_every = args.num_or("solve-every", 0usize)?;
    let budget = args.num_or("budget", 0u64)?;
    let retry_defaults = tacc_serve::RetryPolicy::default();
    let retry = tacc_serve::RetryPolicy {
        max_retries: args.num_or("retry", 0u32)?,
        base_backoff_ms: args.num_or("retry-base-ms", retry_defaults.base_backoff_ms)?,
        max_backoff_ms: args.num_or("retry-max-ms", retry_defaults.max_backoff_ms)?,
        seed: args.num_or("retry-seed", 0u64)?,
    };

    let shell = Trace { events: Vec::new(), ..trace.clone() };
    let devices = shell.scenario.num_iot;
    // `--budget` is the Solve budget here, not the migration budget.
    let config = RuntimeConfig {
        migration_budget: RuntimeConfig::default().migration_budget,
        ..runtime_config_from(args)?
    };
    match client.init(shell, config).map_err(|e| e.to_string())? {
        Response::Initialized { .. } => {}
        other => return Err(format!("Init answered {other:?}")),
    }
    let mut queries = 0u64;
    let mut solves = 0u64;
    for (i, chunk) in trace.events.chunks(burst).enumerate() {
        match client.push_with_retry(chunk.to_vec(), &retry).map_err(|e| e.to_string())? {
            Response::Accepted { .. } => {}
            Response::Overloaded { retry_after_ms, brownout, .. } => {
                return Err(format!(
                    "Push shed past the retry budget ({} retries; daemon at brownout `{brownout}`, \
                     retry_after_ms {retry_after_ms}) — raise --retry or --max-pending",
                    retry.max_retries
                ));
            }
            other => return Err(format!("Push answered {other:?}")),
        }
        if query_every > 0 && i % query_every == 0 && devices > 0 {
            match client.query(i % devices).map_err(|e| e.to_string())? {
                Response::Device { .. } => queries += 1,
                other => return Err(format!("Query answered {other:?}")),
            }
        }
        if solve_every > 0 && i % solve_every == 0 {
            match client.solve(budget).map_err(|e| e.to_string())? {
                Response::Solution { feasible: true, .. } => solves += 1,
                other => return Err(format!("Solve answered {other:?}")),
            }
        }
    }
    match client.flush().map_err(|e| e.to_string())? {
        Response::Flushed { .. } => {}
        other => return Err(format!("Flush answered {other:?}")),
    }
    let Response::Stats {
        cursor,
        pending,
        active_devices,
        shed_devices,
        unreachable_devices,
        departed_devices,
        alive_servers,
        total_delay_ms,
        feasible,
    } = client.stats().map_err(|e| e.to_string())?
    else {
        return Err("Stats answered the wrong shape".to_owned());
    };
    let doc = serde_json::json!({
        "driven_events": trace.events.len(),
        "bursts": trace.events.len().div_ceil(burst),
        "queries": queries,
        "solves": solves,
        "cursor": cursor,
        "pending": pending,
        "active_devices": active_devices,
        "shed_devices": shed_devices,
        "unreachable_devices": unreachable_devices,
        "departed_devices": departed_devices,
        "alive_servers": alive_servers,
        "total_delay_ms": total_delay_ms,
        "feasible": feasible,
    });
    println!("{}", serde_json::to_string_pretty(&doc).expect("serializable"));
    Ok(())
}

/// `tacc bench-report`
///
/// Times two hot paths and writes one JSON report per path for tracking
/// across revisions: the delay matrix (`BENCH_delay_matrix.json`), the
/// production compressed-core lane against the adjacency-list Dijkstra
/// reference, and the solver portfolio (`BENCH_solvers.json`), serial
/// vs parallel, plus the zone decomposition against the global solve.
/// Each fast lane is bit-for-bit identical to its reference; the report
/// records the check alongside the timings.
pub fn bench_report(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &BENCH_REPORT)?;
    let out_dir = std::path::PathBuf::from(args.str_or("out", "."));
    let reps = args.num_or("reps", 3usize)?.max(1);
    let quick = args.has("quick");
    let threads = tacc_par::worker_count();
    let rev = git_rev();

    let delay_doc = bench_delay_matrix(quick, reps, threads, &rev)?;
    write_report(&out_dir.join("BENCH_delay_matrix.json"), &delay_doc)?;
    let solver_doc = bench_solvers(quick, reps, threads, &rev)?;
    write_report(&out_dir.join("BENCH_solvers.json"), &solver_doc)?;
    Ok(())
}

/// `git rev-parse --short HEAD`, or `"unknown"` outside a work tree.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Best-of-`reps` wall-clock milliseconds, plus the last result.
fn best_of_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..reps {
        let start = std::time::Instant::now();
        let r = f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        result = Some(r);
    }
    (best, result.expect("reps >= 1"))
}

fn write_report(path: &std::path::Path, doc: &serde_json::Value) -> Result<(), String> {
    let json = serde_json::to_string_pretty(doc).expect("serializable");
    std::fs::write(path, json + "\n").map_err(|e| format!("writing `{}`: {e}", path.display()))?;
    eprintln!("[bench-report] wrote {}", path.display());
    Ok(())
}

fn bench_delay_matrix(
    quick: bool,
    reps: usize,
    threads: usize,
    rev: &str,
) -> Result<serde_json::Value, String> {
    let model = tacc_core::topology::DelayModel::default();
    let sizes: &[(usize, usize)] =
        if quick { &[(100, 8)] } else { &[(400, 16), (1600, 32), (6400, 64)] };
    let mut rows = Vec::new();
    for &(devices, servers) in sizes {
        let scenario = ScenarioBuilder::new()
            .num_iot(devices)
            .num_servers(servers)
            .build(2022)
            .map_err(|e| e.to_string())?;
        let topo = scenario.topology();
        // The SSSP kernel the production lane dispatches to on this
        // snapshot (bucket queue unless the weight range is
        // pathological).
        let core = tacc_core::topology::CompressedCore::from_graph(topo.graph(), |l| {
            model.link_delay_ms(l)
        });
        let kernel = format!("compressed-{}", core.core().kernel_name());
        let (serial_ms, serial) = best_of_ms(reps, || topo.delay_matrix_serial(&model));
        let (bucket_ms, bucket) =
            best_of_ms(reps, || topo.delay_matrix_with_threads(&model, threads));
        let identical = serial.iter().map(f64::to_bits).eq(bucket.iter().map(f64::to_bits));
        rows.push(serde_json::json!({
            "devices": devices,
            "servers": servers,
            "kernel": kernel,
            "serial_ms": serial_ms,
            "bucket_ms": bucket_ms,
            "identical": identical,
        }));
    }
    Ok(serde_json::json!({
        "bench": "delay_matrix",
        "git_rev": rev,
        "threads": threads,
        "reps": reps,
        "sizes": rows,
    }))
}

fn bench_solvers(
    quick: bool,
    reps: usize,
    threads: usize,
    rev: &str,
) -> Result<serde_json::Value, String> {
    let (devices, servers) = if quick { (40, 5) } else { (200, 10) };
    let scenario = ScenarioBuilder::new()
        .num_iot(devices)
        .num_servers(servers)
        .load_factor(0.7)
        .build(2022)
        .map_err(|e| e.to_string())?;
    let portfolio = Algorithm::standard_set();
    let solve = |algorithm: &Algorithm| {
        ClusterConfigurator::from_scenario(&scenario)
            .algorithm(algorithm.clone())
            .seed(2022)
            .configure()
            .map(|config| (config.total_delay_ms(), config.solution().stats.evaluations))
            .map_err(|e| e.to_string())
    };
    // Serial reference: the portfolio one algorithm at a time.
    let (serial_ms, serial) = best_of_ms(reps, || {
        portfolio.iter().map(solve).collect::<Result<Vec<(f64, u64)>, String>>()
    });
    let serial = serial?;
    // Parallel: race the portfolio, one thread per algorithm.
    let (parallel_ms, parallel) =
        best_of_ms(reps, || tacc_par::par_map(&portfolio, |algorithm| solve(algorithm)));
    let parallel: Vec<(f64, u64)> = parallel.into_iter().collect::<Result<_, _>>()?;
    let identical =
        serial.iter().map(|(d, _)| d.to_bits()).eq(parallel.iter().map(|(d, _)| d.to_bits()));
    // Per-solver lanes: wall time, objective-evaluation (move) count, and
    // the resulting move throughput, timed one solver at a time.
    let solvers = portfolio
        .iter()
        .map(|algorithm| {
            let (wall_ms, result) = best_of_ms(reps, || solve(algorithm));
            let (delay, moves) = result?;
            let moves_per_sec = if wall_ms > 0.0 { moves as f64 / (wall_ms / 1e3) } else { 0.0 };
            Ok(serde_json::json!({
                "name": algorithm.name(),
                "wall_ms": wall_ms,
                "moves": moves,
                "moves_per_sec": moves_per_sec,
                "total_delay_ms": delay,
            }))
        })
        .collect::<Result<Vec<serde_json::Value>, String>>()?;
    Ok(serde_json::json!({
        "bench": "solver_portfolio",
        "git_rev": rev,
        "threads": threads,
        "reps": reps,
        "devices": devices,
        "servers": servers,
        "algorithms": portfolio.iter().map(Algorithm::name).collect::<Vec<String>>(),
        "serial_ms": serial_ms,
        "parallel_ms": parallel_ms,
        "speedup": serial_ms / parallel_ms,
        "identical": identical,
        "solvers": solvers,
        "zones": bench_zones(quick, reps)?,
    }))
}

/// The zone-decomposition section of `BENCH_solvers.json`: the zoned
/// pipeline against the global dense reference solve on one scenario —
/// wall time for both lanes, the objective ratio, and the one-zone
/// strict-generalization check (bit-identical objective).
fn bench_zones(quick: bool, reps: usize) -> Result<serde_json::Value, String> {
    let (devices, servers, zones) = if quick { (100, 8, 2) } else { (1600, 32, 8) };
    let scenario = ScenarioBuilder::new()
        .num_iot(devices)
        .num_servers(servers)
        .load_factor(0.7)
        .build(2022)
        .map_err(|e| e.to_string())?;
    let instance = scenario.instance();
    let demands: Vec<f64> = (0..instance.num_devices()).map(|i| instance.demand(i, 0)).collect();
    let model = tacc_core::topology::DelayModel::default();
    let build = |k: usize| ZoneLayout::build(scenario.topology(), &model, instance.capacities(), k);
    let run = |layout: &ZoneLayout| {
        layout.solve(scenario.topology().iot_nodes(), &demands, 2022, &Budget::unlimited())
    };
    let (global_ms, global) =
        best_of_ms(reps, || dense_solve(instance, 2022, tacc_zone::DEFAULT_ROUNDS));
    let (zoned_ms, zoned) = best_of_ms(reps, || {
        let layout = build(zones);
        run(&layout)
    });
    let one_zone = run(&build(1));
    Ok(serde_json::json!({
        "devices": devices,
        "servers": servers,
        "zones": zones,
        "zoned_ms": zoned_ms,
        "global_ms": global_ms,
        "objective_ratio": zoned.objective / global.objective,
        "identical_at_one_zone": one_zone.objective.to_bits() == global.objective.to_bits(),
    }))
}

/// `tacc obs-report`
///
/// Runs an instrumented workload with observability forced on and prints
/// the per-phase profile tree, its wall-clock coverage, and the metric
/// registry. With `--trace FILE` it replays that trace (accepting every
/// `run-trace` flag); otherwise it generates a trace from the `gen-trace`
/// flags and replays it in memory. `--json` swaps the text report for a
/// machine-readable document (profile + full registry, timing included).
pub fn obs_report(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &OBS_REPORT)?;
    tacc_obs::set_enabled(true);
    tacc_obs::reset();
    let started = std::time::Instant::now();
    {
        // One root span over the whole workload: the profile's root total
        // accounts for (nearly) all of the measured wall-clock, and every
        // runtime/solver span nests beneath it.
        let _span = tacc_obs::span!("obs-report");
        if args.has("solve") {
            // Profile a (possibly supervised, with --budget) solve run:
            // the guard.* counters — breaker trips, fallbacks, panics
            // caught — land in the registry printed below.
            solve_output(&args)?;
        } else if args.str_opt("trace").is_some() {
            run_trace_report(&args)?;
        } else {
            let json = gen_trace_json(&args)?;
            let trace = Trace::from_json(&json).map_err(|e| e.to_string())?;
            let mut runtime = Runtime::from_trace(&trace, runtime_config_from(&args)?)
                .map_err(|e| e.to_string())?;
            runtime.run(&trace).map_err(|e| e.to_string())?;
        }
    }
    let wall = started.elapsed();
    let profile = tacc_obs::profile_snapshot();
    let registry = tacc_obs::registry_snapshot();
    if args.has("json") {
        let doc = serde_json::json!({
            "wall_ns": u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX),
            "profiled_ns": profile.root_total_ns(),
            "profile": profile.to_json(),
            "registry": registry.to_json(true),
        });
        println!("{}", serde_json::to_string_pretty(&doc).expect("serializable"));
    } else {
        print!("{}", tacc_obs::render(&profile, &registry, wall));
    }
    Ok(())
}

/// `tacc algorithms`
pub fn algorithms(argv: &[String]) -> Result<(), String> {
    Args::parse(argv, &ALGORITHMS)?;
    for algorithm in Algorithm::standard_set() {
        println!("{}", algorithm.name());
    }
    println!("nearest-server");
    println!("branch-and-bound");
    println!("brute-force");
    Ok(())
}

/// `tacc families`
pub fn families(argv: &[String]) -> Result<(), String> {
    Args::parse(argv, &FAMILIES)?;
    for family in TopologyFamily::ALL {
        println!("{}", family.name());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| (*x).to_owned()).collect()
    }

    #[test]
    fn solve_runs_with_a_fast_algorithm() {
        solve(&argv(&[
            "--devices",
            "12",
            "--servers",
            "3",
            "--algorithm",
            "greedy-regret",
            "--json",
        ]))
        .unwrap();
    }

    #[test]
    fn unknown_names_are_reported() {
        assert!(solve(&argv(&["--algorithm", "nope"])).is_err());
        assert!(solve(&argv(&["--family", "nope"])).is_err());
        assert!(solve(&argv(&["--demand", "nope"])).is_err());
    }

    #[test]
    fn budgeted_solve_is_deterministic_and_reports_the_guard() {
        // Same seed + same budget → byte-identical output, including the
        // embedded GuardReport; a one-shot algorithm is rejected with a
        // friendly diagnosis. This test also owns the forced-panic knob
        // (env vars are process-global, so all FORCE_PANIC use lives in
        // one test to avoid cross-test races).
        let base = ["--devices", "12", "--servers", "3", "--seed", "9", "--json"];
        let run = |extra: &[&str]| {
            let mut a: Vec<&str> = base.to_vec();
            a.extend_from_slice(extra);
            solve_output(&Args::parse(&argv(&a), &SOLVE).unwrap())
        };

        let first = run(&["--algorithm", "simulated-annealing", "--budget", "25"]).unwrap();
        let second = run(&["--algorithm", "simulated-annealing", "--budget", "25"]).unwrap();
        assert_eq!(first, second, "same seed + budget must be byte-identical");
        assert!(first.contains("\"guard\""), "the GuardReport rides along: {first}");
        assert!(first.contains("\"feasible\": true"), "{first}");

        let err = run(&["--algorithm", "greedy-regret", "--budget", "5"]).unwrap_err();
        assert!(err.contains("one-shot"), "got: {err}");
        let err = run(&["--budget", "lots"]).unwrap_err();
        assert!(err.contains("expected a number"), "got: {err}");

        // A primary that panics mid-episode degrades to the greedy
        // fallback — still feasible, no error escapes — and the breaker
        // trip is visible in the obs registry (what `tacc obs-report
        // --solve` prints).
        tacc_obs::set_enabled(true);
        tacc_obs::reset();
        std::env::set_var(tacc_guard::FORCE_PANIC_ENV, "1");
        let degraded = run(&["--algorithm", "q-learning", "--budget", "10"]);
        std::env::remove_var(tacc_guard::FORCE_PANIC_ENV);
        let registry = tacc_obs::registry_snapshot();
        tacc_obs::set_enabled(false);
        let degraded = degraded.unwrap();
        assert!(degraded.contains("\"degradation\": \"Fallback\""), "{degraded}");
        assert!(degraded.contains("\"feasible\": true"), "{degraded}");
        assert!(degraded.contains("\"panics_caught\": 1"), "{degraded}");
        assert!(registry.counter("guard.breaker_trips").unwrap_or(0) >= 1);
        assert!(registry.counter("guard.panics_caught").unwrap_or(0) >= 1);
    }

    #[test]
    fn quarantine_gates_traces_and_escalates_under_strict_inputs() {
        use tacc_core::workload::TraceGenerator;
        let dir = std::env::temp_dir().join("tacc-cli-quarantine-test");
        std::fs::create_dir_all(&dir).unwrap();
        let scenario = TraceScenario { num_iot: 10, num_servers: 3, ..TraceScenario::default() };

        // An empty trace is an advisory finding: warned and replayed by
        // default, a hard error under --strict-inputs.
        let empty = TraceGenerator::new(scenario.clone()).num_events(0).generate(1).unwrap();
        let empty_path = dir.join("empty.json");
        std::fs::write(&empty_path, empty.to_json()).unwrap();
        let flag = empty_path.to_str().unwrap();
        run_trace_report(&Args::parse(&argv(&["--trace", flag]), &RUN_TRACE).unwrap()).unwrap();
        let err = run_trace_report(
            &Args::parse(&argv(&["--trace", flag, "--strict-inputs"]), &RUN_TRACE).unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("quarantined"), "got: {err}");

        // A nonsensical load factor is a hard violation: rejected with or
        // without --strict-inputs (the loader used to accept it silently).
        let mut bad = TraceGenerator::new(scenario).num_events(5).generate(2).unwrap();
        bad.scenario.load_factor = -0.5;
        let bad_path = dir.join("bad-load.json");
        std::fs::write(&bad_path, bad.to_json()).unwrap();
        let err = run_trace_report(
            &Args::parse(&argv(&["--trace", bad_path.to_str().unwrap()]), &RUN_TRACE).unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("quarantined"), "got: {err}");
    }

    #[test]
    fn lenient_recovery_skips_corruption_and_strict_refuses() {
        let dir = std::env::temp_dir().join("tacc-cli-lenient-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("trace.json");
        let journal_path = dir.join("journal.jsonl");
        std::fs::remove_file(&journal_path).ok();

        let gen_args = Args::parse(
            &argv(&["--devices", "12", "--servers", "3", "--events", "30", "--seed", "11"]),
            &GEN_TRACE,
        )
        .unwrap();
        std::fs::write(&trace_path, gen_trace_json(&gen_args).unwrap()).unwrap();
        let trace_flag = trace_path.to_str().unwrap();
        let journal_flag = journal_path.to_str().unwrap();
        let run = |extra: &[&str]| {
            let mut a: Vec<&str> = vec!["--trace", trace_flag, "--seed", "11"];
            a.extend_from_slice(extra);
            run_trace_report(&Args::parse(&argv(&a), &RUN_TRACE).unwrap())
        };

        let whole = run(&[]).unwrap();
        run(&["--journal", journal_flag, "--stop-after", "17"]).unwrap();

        // Flip one byte inside a mid-journal record.
        let mut bytes = std::fs::read(&journal_path).unwrap();
        let line_starts: Vec<usize> = std::iter::once(0)
            .chain(bytes.iter().enumerate().filter(|(_, b)| **b == b'\n').map(|(i, _)| i + 1))
            .collect();
        let target = line_starts[2] + 10;
        bytes[target] ^= 0x20;
        std::fs::write(&journal_path, &bytes).unwrap();

        // Strict recovery refuses to run past the damage…
        let err = run(&["--journal", journal_flag, "--recover", "--strict"]).unwrap_err();
        assert!(err.contains("corrupt record"), "got: {err}");
        // …lenient recovery (the default) skips it, reports it, and the
        // finished replay is byte-identical to the uninterrupted run.
        let recovered = run(&["--journal", journal_flag, "--recover"]).unwrap();
        assert_eq!(whole, recovered);
        std::fs::remove_file(&journal_path).ok();
    }

    const SPECS: [Spec; 13] = [
        SOLVE,
        COMPARE,
        SIMULATE,
        TOPOLOGY,
        GEN_TRACE,
        RUN_TRACE,
        CHAOS,
        SERVE,
        CLIENT,
        BENCH_REPORT,
        OBS_REPORT,
        ALGORITHMS,
        FAMILIES,
    ];

    #[test]
    fn a_flag_shared_by_two_groups_agrees_on_its_kind() {
        for spec in SPECS {
            for flag in spec.groups.iter().flat_map(|group| group.iter()) {
                assert_eq!(spec.flag(flag.name), Some(*flag), "{}: --{}", spec.command, flag.name);
            }
        }
    }

    #[test]
    fn unknown_and_misspelt_flags_are_refused_before_anything_runs() {
        let err = solve(&argv(&["--bogus", "1", "--devices", "5", "--servers", "2"])).unwrap_err();
        assert!(err.contains("`--bogus`"), "got: {err}");
        // The trace is never read: the flag check comes first.
        let err = run_trace(&argv(&["--trace", "/nonexistent", "--stop-afer", "10"])).unwrap_err();
        assert!(err.contains("`--stop-afer`"), "got: {err}");
        let err = families(&argv(&["--json"])).unwrap_err();
        assert!(err.contains("`--json`"), "got: {err}");
    }

    #[test]
    fn the_benchmark_pair_flags_parse() {
        for serve_argv in [
            ["--uds", "s.sock", "--standby", "--journal", "s.jsonl", "--zones", "8"].as_slice(),
            ["--uds", "p.sock", "--journal", "p.jsonl", "--replicate-to", "s.sock", "--zones", "8"]
                .as_slice(),
        ] {
            let args = Args::parse(&argv(serve_argv), &SERVE).unwrap();
            serve_config_from(&args).unwrap();
        }
    }

    #[test]
    fn lists_never_fail() {
        algorithms(&[]).unwrap();
        families(&[]).unwrap();
    }

    #[test]
    fn every_listed_family_and_demand_parses() {
        for family in TopologyFamily::ALL {
            family_by_name(family.name()).unwrap();
        }
        for demand in ["uniform", "zipf", "lognormal", "constant"] {
            demand_by_name(demand).unwrap();
        }
    }

    #[test]
    fn trace_round_trip_is_deterministic_even_across_interruption() {
        let dir = std::env::temp_dir().join("tacc-cli-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("trace.json");
        let snap_path = dir.join("snapshot.json");

        let gen_args = Args::parse(
            &argv(&["--devices", "15", "--servers", "3", "--events", "50", "--seed", "42"]),
            &GEN_TRACE,
        )
        .unwrap();
        let json = gen_trace_json(&gen_args).unwrap();
        std::fs::write(&trace_path, &json).unwrap();
        // Regenerating produces the identical trace.
        assert_eq!(json, gen_trace_json(&gen_args).unwrap());

        let trace_flag = trace_path.to_str().unwrap();
        let base = ["--trace", trace_flag, "--seed", "42"];

        let run = |extra: &[&str]| {
            let mut a: Vec<&str> = base.to_vec();
            a.extend_from_slice(extra);
            run_trace_report(&Args::parse(&argv(&a), &RUN_TRACE).unwrap()).unwrap()
        };

        // Two uninterrupted runs are byte-identical.
        let whole = run(&[]);
        assert_eq!(whole, run(&[]));

        // Stop at event 25, snapshot, resume: still byte-identical.
        run(&["--stop-after", "25", "--snapshot-out", snap_path.to_str().unwrap()]);
        let resumed = run(&["--resume", snap_path.to_str().unwrap()]);
        assert_eq!(whole, resumed);
    }

    #[test]
    fn journaled_run_trace_recovers_byte_identically() {
        let dir = std::env::temp_dir().join("tacc-cli-journal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("trace.json");
        let journal_path = dir.join("journal.jsonl");
        std::fs::remove_file(&journal_path).ok();

        let gen_args = Args::parse(
            &argv(&["--devices", "15", "--servers", "3", "--events", "40", "--seed", "7"]),
            &GEN_TRACE,
        )
        .unwrap();
        std::fs::write(&trace_path, gen_trace_json(&gen_args).unwrap()).unwrap();

        let trace_flag = trace_path.to_str().unwrap();
        let journal_flag = journal_path.to_str().unwrap();
        let run = |extra: &[&str]| {
            let mut a: Vec<&str> = vec!["--trace", trace_flag, "--seed", "7"];
            a.extend_from_slice(extra);
            run_trace_report(&Args::parse(&argv(&a), &RUN_TRACE).unwrap()).unwrap()
        };

        let whole = run(&[]);
        // Journal the first 23 events, "crash", then recover from the
        // journal and finish: byte-identical to the uninterrupted run.
        run(&["--journal", journal_flag, "--stop-after", "23"]);
        let recovered = run(&["--journal", journal_flag, "--recover"]);
        assert_eq!(whole, recovered);
        std::fs::remove_file(&journal_path).ok();
    }

    #[test]
    fn a_journal_line_that_is_not_utf8_is_one_corrupt_record() {
        let dir = std::env::temp_dir().join(format!("tacc-cli-utf8-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (trace_path, journal_path) = (dir.join("trace.json"), dir.join("journal.jsonl"));
        let gen = ["--devices", "15", "--servers", "3", "--events", "40", "--seed", "7"];
        let gen = Args::parse(&argv(&gen), &GEN_TRACE).unwrap();
        std::fs::write(&trace_path, gen_trace_json(&gen).unwrap()).unwrap();
        let (trace_flag, journal_flag) =
            (trace_path.to_str().unwrap(), journal_path.to_str().unwrap());
        let run = |extra: &[&str]| {
            let mut a: Vec<&str> = vec!["--trace", trace_flag, "--seed", "7"];
            a.extend_from_slice(extra);
            run_trace_report(&Args::parse(&argv(&a), &RUN_TRACE).unwrap())
        };
        let whole = run(&[]).unwrap();
        run(&["--journal", journal_flag, "--stop-after", "23"]).unwrap();

        // One byte of line 4 (a `Step` record) set to 0xFF.
        let mut bytes = std::fs::read(&journal_path).unwrap();
        let line_starts: Vec<usize> = std::iter::once(0)
            .chain(bytes.iter().enumerate().filter(|(_, &b)| b == b'\n').map(|(i, _)| i + 1))
            .collect();
        bytes[line_starts[3] + 5] = 0xFF;
        std::fs::write(&journal_path, &bytes).unwrap();
        let trace = Trace::from_json(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();

        let err = recover_with(&journal_path, &trace, RecoveryPolicy::Strict).unwrap_err();
        assert!(err.to_string().contains("corrupt record at line 4"), "got: {err}");
        let recovery = recover_with(&journal_path, &trace, RecoveryPolicy::Lenient).unwrap();
        assert_eq!(recovery.corrupt_records, vec![4]);
        assert_eq!(run(&["--journal", journal_flag, "--recover"]).unwrap(), whole);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_derives_the_disable_counts_from_the_failed_servers() {
        use serde_json::Value;
        let dir = std::env::temp_dir().join(format!("tacc-cli-disabled-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (trace_path, snap_path) = (dir.join("trace.json"), dir.join("snapshot.json"));
        let gen =
            Args::parse(&argv(&["--devices", "60", "--servers", "6", "--seed", "3"]), &GEN_TRACE)
                .unwrap();
        std::fs::write(&trace_path, gen_trace_json(&gen).unwrap()).unwrap();
        let trace_flag = trace_path.to_str().unwrap();
        let run = |extra: &[&str]| {
            let mut a: Vec<&str> = vec!["--trace", trace_flag];
            a.extend_from_slice(extra);
            run_trace_report(&Args::parse(&argv(&a), &RUN_TRACE).unwrap()).unwrap()
        };
        let whole = run(&[]);
        run(&["--stop-after", "40", "--snapshot-out", snap_path.to_str().unwrap()]);

        // The snapshot with the disable counts its failed servers imply
        // (each link counts its failed server endpoints), except that
        // link 0, no server's link, claims one: restore derives the
        // counts from the failed servers instead, so the resumed run is
        // the whole one.
        let mut snapshot: Value =
            serde_json::from_str(&std::fs::read_to_string(&snap_path).unwrap()).unwrap();
        let topology = snapshot.get("topology").unwrap().clone();
        let (Some(Value::Array(servers)), Some(Value::Array(failed)), Some(Value::Array(links))) = (
            topology.get("servers"),
            snapshot.get("maintainer").and_then(|m| m.get("failed")),
            topology.get("graph").and_then(|g| g.get("links")),
        ) else {
            panic!("servers, failed flags and links are arrays")
        };
        let down: Vec<&Value> = servers
            .iter()
            .zip(failed)
            .filter(|(_, f)| **f == Value::Bool(true))
            .map(|p| p.0)
            .collect();
        let mut disabled: Vec<Value> = links
            .iter()
            .map(|l| {
                let ends = [l.get("a").unwrap(), l.get("b").unwrap()];
                Value::UInt(ends.iter().filter(|end| down.contains(end)).count() as u64)
            })
            .collect();
        assert_eq!(disabled[0], Value::UInt(0), "link 0 touches no failed server");
        disabled[0] = Value::UInt(1);
        let Value::Object(fields) = &mut snapshot else { panic!("a snapshot is an object") };
        let Some((_, Value::Object(maintainer))) =
            fields.iter_mut().find(|(k, _)| k == "maintainer")
        else {
            panic!("the maintainer is an object")
        };
        maintainer.retain(|(k, _)| k != "disabled");
        maintainer.push(("disabled".to_owned(), Value::Array(disabled)));
        std::fs::write(&snap_path, serde_json::to_string(&snapshot).unwrap()).unwrap();
        assert_eq!(run(&["--resume", snap_path.to_str().unwrap()]), whole);
        assert!(whole.contains("\"total_delay_ms\": 331.2453687550717"), "{whole}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_trace_journal_flag_conflicts_are_reported() {
        let args = Args::parse(&argv(&["--trace", "t.json", "--recover"]), &RUN_TRACE).unwrap();
        let err = run_trace_report(&args).unwrap_err();
        assert!(err.contains("--recover needs --journal"), "got: {err}");
        let args = Args::parse(
            &argv(&["--trace", "t.json", "--journal", "j.jsonl", "--resume", "s.json"]),
            &RUN_TRACE,
        )
        .unwrap();
        let err = run_trace_report(&args).unwrap_err();
        assert!(err.contains("mutually exclusive"), "got: {err}");
    }

    /// A 60 × 6 trace (`gen-trace --seed 3`), stopped after 40 events
    /// with a snapshot, and that snapshot edited eight ways — two of its
    /// maintainer's arrays cut short, server 0's tree re-rooted twice,
    /// server 0 marked failed under its live tree (so a node hangs off
    /// one of its disabled links), and that tree's parent links edited
    /// three ways (the first device hung off a link it is not on, onto a
    /// parent cycle, or cut loose) — each paired with the finding the
    /// quarantine must report. Unchecked, they panic on the next step,
    /// resume to a different report, or restore a state no run can
    /// reach.
    fn misshapen_maintainer_snapshots(dir: &Path) -> (Trace, Vec<(String, RuntimeSnapshot)>) {
        use serde_json::Value;
        std::fs::create_dir_all(dir).unwrap();
        let (trace_path, snap_path) = (dir.join("trace.json"), dir.join("snapshot.json"));
        let gen =
            Args::parse(&argv(&["--devices", "60", "--servers", "6", "--seed", "3"]), &GEN_TRACE)
                .unwrap();
        std::fs::write(&trace_path, gen_trace_json(&gen).unwrap()).unwrap();
        let stop = argv(&[
            "--trace",
            trace_path.to_str().unwrap(),
            "--stop-after",
            "40",
            "--snapshot-out",
            snap_path.to_str().unwrap(),
        ]);
        run_trace_report(&Args::parse(&stop, &RUN_TRACE).unwrap()).unwrap();
        let trace = Trace::from_json(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
        let snapshot: Value =
            serde_json::from_str(&std::fs::read_to_string(&snap_path).unwrap()).unwrap();
        // One member of a JSON object, for editing in place.
        fn member<'a>(value: &'a mut Value, key: &str) -> &'a mut Value {
            let Value::Object(fields) = value else { panic!("`{key}` sits in an object") };
            &mut fields.iter_mut().find(|(k, _)| k == key).expect("member present").1
        }
        // Server 0's tree, and its parent links.
        fn tree(value: &mut Value) -> &mut Value {
            let Value::Array(trees) = member(member(value, "maintainer"), "trees") else {
                panic!("maintainer.trees is an array")
            };
            &mut trees[0]
        }
        fn parents(value: &mut Value) -> &mut Vec<Value> {
            let Value::Array(parents) = member(tree(value), "parent_link") else {
                panic!("a tree's parent links are an array")
            };
            parents
        }
        let mut cases = Vec::new();
        for (field, keep) in [("failed", 3), ("trees", 2)] {
            let mut value = snapshot.clone();
            let Value::Array(items) = member(member(&mut value, "maintainer"), field) else {
                panic!("maintainer.{field} is an array")
            };
            items.truncate(keep);
            cases.push((format!("maintainer {field} has length {keep}"), value));
        }
        // Server 0's tree re-rooted outside the graph, then at server 1.
        let mut probe = snapshot.clone();
        let Value::Array(servers) = member(member(&mut probe, "topology"), "servers") else {
            panic!("topology.servers is an array")
        };
        let (&Value::UInt(home), &Value::UInt(next)) = (&servers[0], &servers[1]) else {
            panic!("node ids are unsigned")
        };
        for source in [1_000_000, next] {
            let mut value = snapshot.clone();
            *member(tree(&mut value), "source") = Value::UInt(source);
            let finding =
                format!("maintainer tree 0 is rooted at node {source}, expected node {home}");
            cases.push((finding, value));
        }
        // The first device, its parent link in server 0's tree, the node
        // it hangs off there, and a link it is not on.
        let Value::Array(iot) = member(member(&mut probe, "topology"), "iot") else {
            panic!("topology.iot is an array")
        };
        let &Value::UInt(device) = &iot[0] else { panic!("node ids are unsigned") };
        let device = device as usize;
        let &Value::UInt(link) = &parents(&mut probe)[device] else {
            panic!("a reached device has a parent link")
        };
        let Value::Array(links) =
            member(member(member(&mut probe, "topology"), "graph"), "links").clone()
        else {
            panic!("topology.graph.links is an array")
        };
        let ends = |l: &Value| match (l.get("a"), l.get("b")) {
            (Some(&Value::UInt(a)), Some(&Value::UInt(b))) => (a as usize, b as usize),
            _ => panic!("link endpoints are unsigned"),
        };
        let (a, b) = ends(&links[link as usize]);
        let up = if a == device { b } else { a };
        let foreign = links.iter().position(|l| ends(l).0 != device && ends(l).1 != device);
        let foreign = foreign.expect("some link misses the device");

        let mut value = snapshot.clone();
        parents(&mut value)[device] = Value::UInt(foreign as u64);
        let finding = format!(
            "maintainer tree 0: node {device} hangs off link {foreign}, which is not incident to it"
        );
        cases.push((finding, value));

        // Server 0 failed under its live tree: the first node whose
        // parent link touches server 0's node hangs off a disabled link.
        let mut value = snapshot.clone();
        let Value::Array(failed) = member(member(&mut value, "maintainer"), "failed") else {
            panic!("maintainer.failed is an array")
        };
        assert_eq!(failed[0], Value::Bool(false), "server 0 is alive at event 40");
        failed[0] = Value::Bool(true);
        let (node, hop) = parents(&mut probe)
            .iter()
            .enumerate()
            .find_map(|(node, parent)| {
                let &Value::UInt(l) = parent else { return None };
                let (a, b) = ends(&links[l as usize]);
                (a == home as usize || b == home as usize).then_some((node, l))
            })
            .expect("server 0's tree leaves its node");
        let finding = format!("maintainer tree 0: node {node} hangs off disabled link {hop}");
        cases.push((finding, value));

        let mut value = snapshot.clone();
        parents(&mut value)[up] = Value::UInt(link);
        let finding = "maintainer tree 0: the parent chain from node".to_owned();
        cases.push((finding, value));

        let mut value = snapshot.clone();
        parents(&mut value)[device] = Value::Null;
        let finding = format!("would shorten the distance of node {device}");
        cases.push((finding, value));
        let cases =
            cases.into_iter().map(|(f, value)| (f, serde_json::from_value(&value).unwrap()));
        (trace, cases.collect())
    }

    #[test]
    fn resume_quarantines_a_misshapen_maintainer() {
        let dir = std::env::temp_dir().join(format!("tacc-cli-resume-mnt-{}", std::process::id()));
        let (_, cases) = misshapen_maintainer_snapshots(&dir);
        let (trace_path, snap_path) = (dir.join("trace.json"), dir.join("cut.json"));
        for (finding, snapshot) in cases {
            std::fs::write(&snap_path, snapshot.to_json()).unwrap();
            let resume = argv(&[
                "--trace",
                trace_path.to_str().unwrap(),
                "--resume",
                snap_path.to_str().unwrap(),
            ]);
            let err = run_trace_report(&Args::parse(&resume, &RUN_TRACE).unwrap()).unwrap_err();
            assert!(err.contains(&finding), "want `{finding}`, got: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_recovery_quarantines_a_misshapen_maintainer() {
        let dir = std::env::temp_dir().join(format!("tacc-cli-recover-mnt-{}", std::process::id()));
        let (trace, cases) = misshapen_maintainer_snapshots(&dir);
        let journal_path = dir.join("journal.jsonl");
        for (finding, snapshot) in cases {
            let mut journal = Journal::create(&journal_path, &trace, &snapshot.config).unwrap();
            journal.append(&JournalRecord::Snapshot { snapshot }).unwrap();
            drop(journal);
            let err = recover_with(&journal_path, &trace, RecoveryPolicy::Strict).unwrap_err();
            assert!(
                matches!(&err, tacc_chaos::ChaosError::Quarantine { reason } if reason.contains(&finding)),
                "want `{finding}`, got: {err}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chaos_smoke_survives_every_profile_name() {
        for profile in ChaosProfile::ALL {
            let args = Args::parse(
                &argv(&[
                    "--profile",
                    profile.name(),
                    "--devices",
                    "10",
                    "--servers",
                    "3",
                    "--events",
                    "20",
                    "--crash-every",
                    "6",
                ]),
                &CHAOS,
            )
            .unwrap();
            let (json, byte_identical) = chaos_report(&args).unwrap();
            assert!(byte_identical, "{}: recovery diverged", profile.name());
            assert!(json.contains("\"byte_identical\": true"), "{}: {json}", profile.name());
        }
    }

    #[test]
    fn chaos_corrupt_records_gate_reports_proven_offsets() {
        let args = Args::parse(
            &argv(&[
                "--devices",
                "10",
                "--servers",
                "3",
                "--events",
                "15",
                "--crash-every",
                "6",
                "--corrupt-records",
            ]),
            &CHAOS,
        )
        .unwrap();
        let (json, byte_identical) = chaos_report(&args).unwrap();
        assert!(byte_identical);
        assert!(json.contains("\"corruption_offsets_proven\""), "{json}");
    }

    #[test]
    fn chaos_rejects_unknown_profiles() {
        let args = Args::parse(&argv(&["--profile", "nope"]), &CHAOS).unwrap();
        let err = chaos_report(&args).unwrap_err();
        assert!(err.contains("unknown chaos profile"), "got: {err}");
        assert!(err.contains("partition"), "the diagnosis lists the profiles: {err}");
    }

    #[test]
    fn run_trace_rejects_missing_inputs() {
        let args = Args::parse(&argv(&[]), &RUN_TRACE).unwrap();
        assert!(run_trace_report(&args).is_err());
        let args = Args::parse(&argv(&["--trace", "/nonexistent/trace.json"]), &RUN_TRACE).unwrap();
        assert!(run_trace_report(&args).is_err());
        let dir = std::env::temp_dir().join("tacc-cli-trace-test-bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        std::fs::write(&path, "{}").unwrap();
        let args = Args::parse(
            &argv(&["--trace", path.to_str().unwrap(), "--policy", "nope"]),
            &RUN_TRACE,
        )
        .unwrap();
        assert!(run_trace_report(&args).is_err());
    }

    #[test]
    fn bench_report_writes_valid_json() {
        use serde_json::Value;
        let dir = std::env::temp_dir().join("tacc-cli-bench-report-test");
        std::fs::create_dir_all(&dir).unwrap();
        bench_report(&argv(&["--quick", "--reps", "1", "--out", dir.to_str().unwrap()])).unwrap();
        let load = |name: &str| -> Value {
            let text = std::fs::read_to_string(dir.join(name)).unwrap();
            serde_json::from_str(&text).unwrap()
        };
        for name in ["BENCH_delay_matrix.json", "BENCH_solvers.json"] {
            let doc = load(name);
            assert!(matches!(doc.get("threads"), Some(Value::UInt(t)) if *t >= 1), "{name}");
            assert!(matches!(doc.get("git_rev"), Some(Value::Str(_))), "{name}");
        }
        let delay = load("BENCH_delay_matrix.json");
        let Some(Value::Array(rows)) = delay.get("sizes") else { panic!("sizes missing") };
        assert!(!rows.is_empty());
        for row in rows {
            assert_eq!(row.get("identical"), Some(&Value::Bool(true)));
            assert!(matches!(row.get("serial_ms"), Some(Value::Float(ms)) if *ms > 0.0));
        }
        let solvers = load("BENCH_solvers.json");
        assert_eq!(solvers.get("identical"), Some(&Value::Bool(true)));
        let zones = solvers.get("zones").expect("zones section");
        assert_eq!(zones.get("identical_at_one_zone"), Some(&Value::Bool(true)));
        assert!(
            matches!(zones.get("objective_ratio"), Some(Value::Float(r)) if *r > 0.5 && *r < 2.0)
        );
    }

    #[test]
    fn simulate_runs_quickly_on_a_small_scenario() {
        simulate(&argv(&[
            "--devices",
            "10",
            "--servers",
            "2",
            "--algorithm",
            "greedy-regret",
            "--duration-ms",
            "2000",
            "--deadline-ms",
            "50",
            "--json",
        ]))
        .unwrap();
    }
}

#[cfg(test)]
mod topology_tests {
    use super::*;

    #[test]
    fn topology_emits_dot() {
        let argv: Vec<String> =
            ["--devices", "5", "--servers", "2"].iter().map(|s| (*s).to_owned()).collect();
        topology(&argv).unwrap();
    }
}
