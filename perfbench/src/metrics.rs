//! The metrics a run reports, and its JSON result line.

use crate::drive::Observed;
use crate::stats::{beyond, median, percentile};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Sample count and context for the human-readable report.
    pub note: String,
}

fn metric(name: &str, unit: &'static str, value: f64, note: String) -> Metric {
    Metric { name: name.to_owned(), unit, value, note }
}

fn percentile_metric(name: &str, samples: &[f64], p: f64) -> Metric {
    metric(
        name,
        "ms",
        percentile(samples, p),
        format!(" (n={}, {} beyond p{p})", samples.len(), beyond(samples.len(), p)),
    )
}

/// The end-to-end metrics of an untraced run (see README.md).
pub fn end_to_end(obs: &Observed) -> Vec<Metric> {
    let epochs = format!(" (n={} epochs)", obs.epochs);
    let per_epoch_rss: Vec<f64> =
        obs.rss_mb.chunks(2).map(|c| c.iter().copied().fold(0.0, f64::max)).collect();
    let checkpoints: Vec<_> = obs.checkpoints.iter().flatten().collect();
    let delay_per_device =
        checkpoints.iter().map(|c| c.total_delay_ms / c.active_devices.max(1) as f64).sum::<f64>()
            / checkpoints.len() as f64;
    let answers: Vec<_> = obs.answers.iter().flatten().collect();
    let solve_delay =
        answers.iter().map(|a| a.objective / a.assignment.len().max(1) as f64).sum::<f64>()
            / answers.len() as f64;
    vec![
        metric("setup_s", "s", median(&obs.setup_s), format!(" (median, n={})", obs.setup_s.len())),
        percentile_metric("push_p50_ms", &obs.push_ms, 50.0),
        percentile_metric("query_p50_ms", &obs.query_ms, 50.0),
        percentile_metric("solve_p50_ms", &obs.solve_ms, 50.0),
        percentile_metric("solve_p90_ms", &obs.solve_ms, 90.0),
        metric(
            "events_per_s",
            "1/s",
            obs.events_acked as f64 / obs.cycle_s,
            format!(" ({} events in {:.3} s of cycles)", obs.events_acked, obs.cycle_s),
        ),
        metric(
            "failover_ms",
            "ms",
            median(&obs.failover_ms),
            format!(" (median, n={})", obs.failover_ms.len()),
        ),
        metric(
            "delay_per_device_ms",
            "ms",
            delay_per_device,
            format!(" (mean of {} checkpoints)", checkpoints.len()),
        ),
        metric(
            "solve_delay_per_device_ms",
            "ms",
            solve_delay,
            format!(" (mean of {} solutions)", answers.len()),
        ),
        metric("peak_rss_mb", "MB", median(&per_epoch_rss), epochs),
    ]
}

/// Lines of the human-readable report that carry no bound: the no-op
/// floor, the push and query p90 and every p99 that keeps ten samples
/// beyond it, the failover and set-up samples, and the failure share.
pub fn report_lines(obs: &Observed) -> Vec<String> {
    let mut lines = vec![format!(
        "floor: proto.hello_rtt_ms p50={:.4} (n={})",
        median(&obs.hello_ms),
        obs.hello_ms.len()
    )];
    let tails = [
        ("push", &obs.push_ms, 90.0),
        ("query", &obs.query_ms, 90.0),
        ("push", &obs.push_ms, 99.0),
        ("query", &obs.query_ms, 99.0),
        ("solve", &obs.solve_ms, 99.0),
    ];
    for (name, samples, p) in tails {
        if beyond(samples.len(), p) >= 10 {
            lines.push(format!(
                "tail: {name}_p{p}_ms {:.4} (n={}, {} beyond p{p})",
                percentile(samples, p),
                samples.len(),
                beyond(samples.len(), p)
            ));
        }
    }
    let list = |v: &[f64]| v.iter().map(|x| format!("{x:.4}")).collect::<Vec<_>>().join(" ");
    lines.push(format!("samples: failover_ms [{}]", list(&obs.failover_ms)));
    lines.push(format!("samples: setup_s [{}]", list(&obs.setup_s)));
    lines.push(format!(
        "failures: failed_share {} ({} of {} requests)",
        obs.failed as f64 / obs.attempted.max(1) as f64,
        obs.failed,
        obs.attempted
    ));
    lines
}

/// The JSON result line: every value printed with all its digits.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
