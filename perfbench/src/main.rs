//! `perfbench` — the client-observed benchmark of the replicated
//! `tacc serve` pair. See README.md for the workloads, the metrics and
//! how to run it.
//!
//! ```text
//! perfbench --workload ingest --seed 1 --seconds 10 --trace 0 [--smoke]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, measured against the real pair;
//! with `--trace 1` they are the per-layer ones from the traced run.

mod daemon;
mod drive;
mod gate;
mod inproc;
mod metrics;
mod stats;
mod tracer;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use drive::Observed;
use metrics::Metric;

/// Set-up-only pairs a run spawns before its epochs (each epoch adds
/// one more `setup_s` sample).
const EXTRA_SETUPS: usize = 5;

/// Environment switches that change what the daemon does; the numbers
/// would not describe the program as it runs in production.
const REFUSED_ENV: [&str; 3] = ["TACC_CHECK", "TACC_FAILPOINTS", "TACC_OBS"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, smoke: false };
    let mut i = 0;
    while i < argv.len() {
        let value = || argv.get(i + 1).ok_or_else(|| format!("{} needs a value", argv[i]));
        match argv[i].as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--smoke" => {
                args.smoke = true;
                i += 1;
                continue;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    if args.workload.is_empty() {
        return Err(format!("--workload is required (one of {})", workload::NAMES.join(", ")));
    }
    Ok(args)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

/// The `tacc` binary built by the same `cargo build` as this one.
fn tacc_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let tacc = exe.with_file_name("tacc");
    if !tacc.is_file() {
        return Err(format!("no `tacc` next to perfbench at {}", tacc.display()));
    }
    Ok(tacc)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        return Err(format!("refusing to run with {var} set: it changes what the daemon does"));
    }
    let shape = workload::shape(&args.workload, args.smoke).ok_or_else(|| {
        format!("unknown workload `{}` (one of {})", args.workload, workload::NAMES.join(", "))
    })?;
    let tacc = tacc_binary()?;
    let run_dir = PathBuf::from(".perfbench_run").join(format!(
        "{}-{}-{}",
        shape.name,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&run_dir)
        .map_err(|e| format!("creating {}: {e}", run_dir.display()))?;

    println!(
        "run: workload={} seed={} deployment_seed={} devices={} servers={} zones={} \
         events_per_epoch={} smoke={}",
        shape.name,
        args.seed,
        workload::DEPLOYMENT_SEED,
        shape.devices,
        shape.servers,
        shape.zones,
        shape.events(),
        args.smoke
    );
    println!(
        "build: source={} git={} tacc={} nproc={} tacc_par_workers={}",
        env!("PERFBENCH_SOURCE_DIGEST"),
        env!("PERFBENCH_GIT_REV"),
        tacc.display(),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        tacc_par::worker_count()
    );

    let result = measure(&args, &shape, &tacc, &run_dir);
    std::fs::remove_dir_all(&run_dir).ok();
    let (metrics, obs, correct) = result?;
    for m in &metrics {
        println!("metric: {} {} {}{}", m.name, m.value, m.unit, m.note);
    }
    if !metrics.iter().all(|m| m.value.is_finite()) {
        return Err("a metric is not finite".to_owned());
    }
    println!("{}", metrics::result_line(correct, obs.attempted, obs.failed, &metrics));
    Ok(correct)
}

/// Runs epochs until the cycle loops have measured `--seconds` (and the
/// shape's minimum epoch count), checks each epoch's answers after it,
/// and, when traced, adds the in-process pass over epoch 0's inputs.
fn measure(
    args: &Args,
    shape: &workload::Shape,
    tacc: &Path,
    run_dir: &Path,
) -> Result<(Vec<Metric>, Observed, bool), String> {
    let mut obs = Observed::default();
    let mut tracer = args.trace.then(tracer::Tracer::new);
    let first = workload::inputs(shape, args.seed, 0)?;
    let started = Instant::now();
    for i in 0..EXTRA_SETUPS {
        let dir = run_dir.join(format!("setup{i}"));
        drive::setup_only(tacc, &dir, shape, &first, &mut obs)?;
        std::fs::remove_dir_all(&dir).ok();
    }
    let (mut gate, mut gate_s, mut fingerprints) = (Ok(()), 0.0, Vec::new());
    while obs.epochs < shape.min_epochs || obs.cycle_s < args.seconds {
        let epoch = obs.epochs;
        let inputs =
            if epoch == 0 { first.clone() } else { workload::inputs(shape, args.seed, epoch)? };
        fingerprints.push(format!("{:#018x}", inputs.trace.fingerprint()));
        let dir = run_dir.join(format!("e{epoch}"));
        drive::epoch(tacc, &dir, shape, &inputs, &mut obs, tracer.as_mut())?;
        std::fs::remove_dir_all(&dir).ok();
        let checking = Instant::now();
        if gate.is_ok() {
            gate = gate::check(&inputs, &obs, epoch);
        }
        gate_s += checking.elapsed().as_secs_f64();
    }
    println!("traces: fingerprints [{}]", fingerprints.join(" "));
    println!(
        "gate: {} ({} epochs, {:.1} s in all, {:.1} s checking)",
        gate.as_ref().map_or_else(|e| format!("FAILED: {e}"), |()| "passed".to_owned()),
        obs.epochs,
        started.elapsed().as_secs_f64(),
        gate_s
    );
    let correct = gate.is_ok();
    for line in metrics::report_lines(&obs) {
        println!("{line}");
    }
    let metrics = match tracer {
        None => metrics::end_to_end(&obs),
        Some(mut tracer) => {
            let pass_dir = run_dir.join("inproc");
            let layers = inproc::pass(shape, &first, &pass_dir, &mut tracer)?;
            let cap = tacc_proto::MAX_FRAME_LEN as f64;
            println!(
                "frame_cap: journal.max_line_bytes={} ({:.1}% of MAX_FRAME_LEN) \
                 proto.max_repl_payload_bytes={} ({:.1}%) MAX_FRAME_LEN={}",
                layers.max_line,
                100.0 * layers.max_line as f64 / cap,
                layers.max_repl_payload,
                100.0 * layers.max_repl_payload as f64 / cap,
                tacc_proto::MAX_FRAME_LEN
            );
            let spans = PathBuf::from(".perfbench_out")
                .join(format!("spans-{}-{}.jsonl", shape.name, args.seed));
            if let Some(parent) = spans.parent() {
                std::fs::create_dir_all(parent).ok();
            }
            tracer.write_jsonl(&spans).map_err(|e| format!("writing {}: {e}", spans.display()))?;
            println!("spans: {} written to {}", tracer.spans().len(), spans.display());
            inproc::per_layer(&obs, &tracer, &layers)
        }
    };
    Ok((metrics, obs, correct))
}
