//! The crash harness: journaled replays, hard kills at event
//! boundaries, recovery, and proof that the result is byte-identical to
//! an uninterrupted run.
//!
//! Three entry points:
//!
//! - [`run_with_crashes`] replays a trace with a simulated hard kill at
//!   every `crash_every`-th event boundary (the `tacc chaos
//!   --crash-every k` path), recovering from the journal each time, and
//!   reports survival statistics.
//! - [`kill_at_every_boundary`] is the exhaustive version: one kill at
//!   *each* boundary of the trace, each followed by recovery and
//!   completion — the acceptance gate for the crash-recovery contract.
//! - [`corrupt_and_recover_everywhere`] attacks the journal instead of
//!   the process: one flipped byte at every record offset, each proven
//!   detected and survivable — the acceptance gate for the CRC-framed
//!   journal format.
//!
//! Both check the runtime's invariants after every event (deep checks on
//! the [`tacc_runtime::check::DEEP_CHECK_EVERY`] cadence) regardless of
//! the `TACC_CHECK` environment switch, track the maximum transient
//! overload (which must stay zero), and compare the final deterministic
//! report *and* snapshot against an uninterrupted reference run.

use std::path::Path;

use serde_json::{json, Value};
use tacc_runtime::{InvariantChecker, Runtime, RuntimeConfig, RuntimeSnapshot};
use tacc_workload::Trace;

use crate::journal::{recover, recover_with, Journal, JournalRecord, RecoveryPolicy};
use crate::ChaosError;

/// How a journaled, crash-injected replay is driven.
#[derive(Debug, Clone)]
pub struct CrashPlan {
    /// The replay configuration (must match across crash and reference
    /// runs for the byte-identical comparison to be meaningful).
    pub config: RuntimeConfig,
    /// Kill the process image at every `crash_every`-th event boundary
    /// (`0` = never crash; the journal is still written).
    pub crash_every: u64,
    /// Journal a full snapshot every `snapshot_every` events (`0` = only
    /// the implicit fresh start; recovery then replays from the top).
    pub snapshot_every: u64,
}

impl Default for CrashPlan {
    /// Default config, a crash every 7 events, a snapshot every 5.
    fn default() -> Self {
        CrashPlan { config: RuntimeConfig::default(), crash_every: 7, snapshot_every: 5 }
    }
}

/// What a crash-injected replay survived.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// Events in the trace (all were eventually processed).
    pub events: u64,
    /// Hard kills injected and recovered from.
    pub crashes: u64,
    /// Recoveries that restored from a journaled snapshot (the rest
    /// rebuilt from the trace top).
    pub snapshot_recoveries: u64,
    /// Events re-processed after recoveries (the replay tax of the
    /// snapshot cadence).
    pub replayed_events: u64,
    /// Worst transient overload observed at any event boundary, in
    /// demand units. The no-overload invariant requires `0.0`.
    pub max_overload: f64,
    /// Devices shed for capacity over the run.
    pub evictions: u64,
    /// Devices re-admitted over the run.
    pub readmissions: u64,
    /// Wanted devices that entered the unreachable state.
    pub unreachable_transitions: u64,
    /// Whether the final report and snapshot are byte-identical to the
    /// uninterrupted reference run.
    pub byte_identical: bool,
    /// Total delay of the final configuration, in milliseconds.
    pub final_delay_ms: f64,
    /// Actively served devices at the end of the run.
    pub final_active: usize,
}

impl ChaosReport {
    /// Deterministic JSON rendering (insertion-ordered keys).
    pub fn to_json(&self) -> Value {
        json!({
            "events": self.events,
            "crashes": self.crashes,
            "snapshot_recoveries": self.snapshot_recoveries,
            "replayed_events": self.replayed_events,
            "max_overload": self.max_overload,
            "evictions": self.evictions,
            "readmissions": self.readmissions,
            "unreachable_transitions": self.unreachable_transitions,
            "byte_identical": self.byte_identical,
            "final_delay_ms": self.final_delay_ms,
            "final_active": self.final_active
        })
    }
}

/// First-line defense shared by every harness entry point: the guard
/// layer's quarantine pass. Its hard findings cover everything
/// `Trace::validate` rejects (format version, event times, indices and
/// drift latencies), listed all at once, plus what serde lets through in
/// the scenario itself (a NaN load factor, zero devices).
fn quarantine(trace: &Trace) -> Result<(), ChaosError> {
    tacc_guard::validate::validate_trace(trace)
        .gate(false)
        .map_err(|e| ChaosError::Quarantine { reason: e.to_string() })
}

/// What the gates compare a finished run by: the deterministic report
/// string, the final snapshot and — since a snapshot stores each tree's
/// parents, not its distances — the cluster's delay matrix, bit for bit.
#[derive(PartialEq)]
struct Outcome {
    report: String,
    snapshot: RuntimeSnapshot,
    delays: Vec<u64>,
}

impl Outcome {
    fn of(runtime: &Runtime) -> Outcome {
        Outcome {
            report: serde_json::to_string(&runtime.report_json(false))
                .expect("reports are serializable"),
            snapshot: runtime.snapshot(),
            delays: runtime.cluster().instance().delays().iter().map(f64::to_bits).collect(),
        }
    }
}

/// The uninterrupted reference's outcome, plus the worst overload seen
/// along the way.
fn reference_run(trace: &Trace, config: &RuntimeConfig) -> Result<(Outcome, f64), ChaosError> {
    let checker = InvariantChecker::default();
    let mut runtime = Runtime::from_trace(trace, config.clone())?;
    let mut max_overload = 0.0f64;
    for index in 0..trace.events.len() {
        runtime.step(index, &trace.events[index])?;
        max_overload = max_overload.max(runtime.max_overload());
        checker.check(&runtime)?;
    }
    Ok((Outcome::of(&runtime), max_overload))
}

/// Replays `trace` under `plan`, journaling to `journal_path`, simulating
/// a hard kill (drop the runtime and the journal handle mid-flight) at
/// every `crash_every`-th event boundary, and recovering from the journal
/// each time.
///
/// # Errors
///
/// Propagates journal I/O, recovery and runtime failures, and returns
/// [`ChaosError::Mismatch`] if any invariant is violated en route —
/// recovery divergence itself is *reported* (`byte_identical: false`)
/// rather than raised, so experiments can tabulate it.
pub fn run_with_crashes(
    trace: &Trace,
    plan: &CrashPlan,
    journal_path: &Path,
) -> Result<ChaosReport, ChaosError> {
    quarantine(trace)?;
    let (reference, reference_overload) = reference_run(trace, &plan.config)?;

    let checker = InvariantChecker::default();
    let total = trace.events.len() as u64;
    let mut journal = Journal::create(journal_path, trace, &plan.config)?;
    let mut runtime = Runtime::from_trace(trace, plan.config.clone())?;
    let mut crashes = 0u64;
    let mut snapshot_recoveries = 0u64;
    let mut replayed_events = 0u64;
    let mut max_overload = reference_overload;
    // Absolute crash schedule: kill once at each multiple of
    // `crash_every`. Recovery rewinds at most to the last snapshot, so
    // the run always progresses past the last kill point.
    let mut next_crash = if plan.crash_every > 0 { plan.crash_every } else { u64::MAX };
    let mut high_water = 0u64;

    while (runtime.cursor() as usize) < trace.events.len() {
        let index = runtime.cursor() as usize;
        if (index as u64) < high_water {
            replayed_events += 1;
        }
        runtime.step(index, &trace.events[index])?;
        max_overload = max_overload.max(runtime.max_overload());
        checker.check(&runtime)?;
        journal.append(&JournalRecord::Step { index: index as u64 })?;
        high_water = high_water.max(runtime.cursor());
        if plan.snapshot_every > 0 && runtime.cursor() % plan.snapshot_every == 0 {
            journal.append(&JournalRecord::Snapshot { snapshot: runtime.snapshot() })?;
        }

        if runtime.cursor() >= next_crash && runtime.cursor() < total {
            // Simulated hard kill: both the runtime and the journal
            // handle vanish; only what was fsync'd survives.
            drop(runtime);
            drop(journal);
            let recovery = recover(journal_path, trace)?;
            runtime = recovery.runtime;
            if recovery.from_snapshot {
                snapshot_recoveries += 1;
            }
            journal = Journal::open_append(journal_path)?;
            journal.append(&JournalRecord::Recovered { cursor: runtime.cursor() })?;
            crashes += 1;
            next_crash += plan.crash_every;
        }
    }

    let byte_identical = Outcome::of(&runtime) == reference;
    if max_overload > 1e-9 {
        return Err(ChaosError::Mismatch {
            reason: format!("transient overload of {max_overload} demand units"),
        });
    }
    let core = &runtime.metrics().core;
    Ok(ChaosReport {
        events: total,
        crashes,
        snapshot_recoveries,
        replayed_events,
        max_overload,
        evictions: core.evictions,
        readmissions: core.readmissions,
        unreachable_transitions: core.unreachable_transitions,
        byte_identical,
        final_delay_ms: runtime.cluster().total_delay(),
        final_active: runtime.cluster().active_count(),
    })
}

/// The exhaustive crash-recovery gate: for every boundary `c` in
/// `1..=events`, replay with a single hard kill after `c` events, recover
/// from the journal, finish the trace, and require the result to be
/// byte-identical to the uninterrupted run. Returns the number of
/// boundaries proven.
///
/// # Errors
///
/// Returns [`ChaosError::Mismatch`] naming the first boundary whose
/// recovered run diverged (or that saw a transient overload), and
/// propagates journal and runtime failures.
pub fn kill_at_every_boundary(
    trace: &Trace,
    config: &RuntimeConfig,
    snapshot_every: u64,
    journal_path: &Path,
) -> Result<u64, ChaosError> {
    quarantine(trace)?;
    let (reference, _) = reference_run(trace, config)?;
    let checker = InvariantChecker::default();

    for crash_at in 1..=trace.events.len() {
        // Phase 1: run to the boundary, journaling, then "kill".
        let mut journal = Journal::create(journal_path, trace, config)?;
        let mut runtime = Runtime::from_trace(trace, config.clone())?;
        for index in 0..crash_at {
            runtime.step(index, &trace.events[index])?;
            journal.append(&JournalRecord::Step { index: index as u64 })?;
            if snapshot_every > 0 && runtime.cursor() % snapshot_every == 0 {
                journal.append(&JournalRecord::Snapshot { snapshot: runtime.snapshot() })?;
            }
        }
        drop(runtime);
        drop(journal);

        // Phase 2: recover and finish.
        let recovery = recover(journal_path, trace)?;
        let mut runtime = recovery.runtime;
        if recovery.last_step.map(|s| s + 1) != Some(crash_at as u64) {
            return Err(ChaosError::Mismatch {
                reason: format!(
                    "boundary {crash_at}: journal recorded steps through {:?}",
                    recovery.last_step
                ),
            });
        }
        while (runtime.cursor() as usize) < trace.events.len() {
            let index = runtime.cursor() as usize;
            runtime.step(index, &trace.events[index])?;
            if runtime.max_overload() > 1e-9 {
                return Err(ChaosError::Mismatch {
                    reason: format!(
                        "boundary {crash_at}: transient overload of {} demand units",
                        runtime.max_overload()
                    ),
                });
            }
            checker.check(&runtime)?;
        }
        if Outcome::of(&runtime) != reference {
            return Err(ChaosError::Mismatch {
                reason: format!("boundary {crash_at}: recovered run diverged from reference"),
            });
        }
    }
    Ok(trace.events.len() as u64)
}

/// The exhaustive corruption gate: run the trace once fully journaled,
/// then for every journal record after `Begin`, flip one byte of that
/// line (deterministically: XOR `0x20` at offset `line_no * 7 % len`) and
/// prove that the damage is *detected* (strict recovery rejects it; the
/// final line counts as a torn tail instead), that lenient recovery
/// *reports* it, and that finishing the trace from the lenient recovery
/// is byte-identical to the uninterrupted reference run. Returns the
/// number of record offsets proven.
///
/// # Errors
///
/// Returns [`ChaosError::Mismatch`] naming the first line whose
/// corruption went undetected or whose recovered run diverged, and
/// propagates journal and runtime failures.
pub fn corrupt_and_recover_everywhere(
    trace: &Trace,
    config: &RuntimeConfig,
    snapshot_every: u64,
    journal_path: &Path,
) -> Result<u64, ChaosError> {
    quarantine(trace)?;
    let (reference, _) = reference_run(trace, config)?;

    // One complete journaled run; its bytes are the corruption corpus.
    let mut journal = Journal::create(journal_path, trace, config)?;
    let mut runtime = Runtime::from_trace(trace, config.clone())?;
    for index in 0..trace.events.len() {
        runtime.step(index, &trace.events[index])?;
        journal.append(&JournalRecord::Step { index: index as u64 })?;
        if snapshot_every > 0 && runtime.cursor() % snapshot_every == 0 {
            journal.append(&JournalRecord::Snapshot { snapshot: runtime.snapshot() })?;
        }
    }
    drop(runtime);
    drop(journal);
    let pristine =
        std::fs::read_to_string(journal_path).map_err(|e| ChaosError::io(journal_path, &e))?;
    let lines: Vec<&str> = pristine.lines().collect();

    let mut proven = 0u64;
    for target in 1..lines.len() {
        // Rewrite the journal with one byte of line `target` flipped.
        let mut damaged = String::with_capacity(pristine.len());
        for (i, line) in lines.iter().enumerate() {
            if i == target {
                let mut bytes = line.as_bytes().to_vec();
                let offset = ((i + 1) * 7) % bytes.len();
                bytes[offset] ^= 0x20;
                damaged.push_str(&String::from_utf8_lossy(&bytes));
            } else {
                damaged.push_str(line);
            }
            damaged.push('\n');
        }
        std::fs::write(journal_path, &damaged).map_err(|e| ChaosError::io(journal_path, &e))?;

        let line_no = target + 1;
        // Detection: strict recovery must reject mid-file damage (the
        // final line is reported as a torn tail instead).
        let strict = recover_with(journal_path, trace, RecoveryPolicy::Strict);
        let is_tail = target + 1 == lines.len();
        match (&strict, is_tail) {
            (Err(ChaosError::Journal { .. }), false) | (Ok(_), true) => {}
            (other, _) => {
                return Err(ChaosError::Mismatch {
                    reason: format!(
                        "line {line_no}: corruption not detected as expected (strict: {})",
                        match other {
                            Ok(_) => "accepted".to_owned(),
                            Err(e) => format!("{e}"),
                        }
                    ),
                });
            }
        }

        // Reporting + completion: lenient recovery must name the damage
        // and still finish the trace byte-identically.
        let recovery = recover_with(journal_path, trace, RecoveryPolicy::Lenient)?;
        let reported = recovery.torn_tail || recovery.corrupt_records == vec![line_no];
        if !reported {
            return Err(ChaosError::Mismatch {
                reason: format!(
                    "line {line_no}: lenient recovery did not report the damage \
                     (torn_tail={}, corrupt={:?})",
                    recovery.torn_tail, recovery.corrupt_records
                ),
            });
        }
        let mut runtime = recovery.runtime;
        while (runtime.cursor() as usize) < trace.events.len() {
            let index = runtime.cursor() as usize;
            runtime.step(index, &trace.events[index])?;
        }
        if Outcome::of(&runtime) != reference {
            return Err(ChaosError::Mismatch {
                reason: format!("line {line_no}: recovery from corruption diverged from reference"),
            });
        }
        proven += 1;
    }

    // Restore the pristine journal so the caller can inspect it.
    std::fs::write(journal_path, &pristine).map_err(|e| ChaosError::io(journal_path, &e))?;
    Ok(proven)
}

/// The ENOSPC/short-write gate: run the trace once fully journaled, cut
/// the journal file at an arbitrary byte offset — mid-record, mid-frame,
/// wherever `at_byte` lands — and prove the reopen path heals it: a
/// torn tail is truncated to the last intact record boundary by
/// [`Journal::open_append`], strict recovery accepts the healed journal,
/// and finishing the trace from it is byte-identical to the
/// uninterrupted reference. Returns the number of intact journal lines
/// that survived the cut. The pristine journal is restored afterwards.
///
/// # Errors
///
/// Returns [`ChaosError::Journal`] when `at_byte` cuts into the `Begin`
/// record (nothing can be trusted without it — recovery *must* fail, so
/// there is nothing to prove), [`ChaosError::Mismatch`] when the healed
/// run diverges from the reference, and propagates journal and runtime
/// failures.
pub fn truncate_and_recover(
    trace: &Trace,
    config: &RuntimeConfig,
    snapshot_every: u64,
    journal_path: &Path,
    at_byte: u64,
) -> Result<u64, ChaosError> {
    quarantine(trace)?;
    let (reference, _) = reference_run(trace, config)?;

    // One complete journaled run; its bytes are the damage corpus.
    let mut journal = Journal::create(journal_path, trace, config)?;
    let mut runtime = Runtime::from_trace(trace, config.clone())?;
    for index in 0..trace.events.len() {
        runtime.step(index, &trace.events[index])?;
        journal.append(&JournalRecord::Step { index: index as u64 })?;
        if snapshot_every > 0 && runtime.cursor() % snapshot_every == 0 {
            journal.append(&JournalRecord::Snapshot { snapshot: runtime.snapshot() })?;
        }
    }
    drop(runtime);
    drop(journal);
    let pristine = std::fs::read(journal_path).map_err(|e| ChaosError::io(journal_path, &e))?;

    let begin_end =
        pristine.iter().position(|&b| b == b'\n').map_or(pristine.len() as u64, |p| p as u64 + 1);
    if at_byte < begin_end {
        return Err(ChaosError::Journal {
            reason: format!(
                "cut at byte {at_byte} severs the Begin record (ends at byte {begin_end}); \
                 a journal without an intact Begin is unrecoverable by design"
            ),
        });
    }

    // The cut: everything past `at_byte` is gone, exactly what ENOSPC or
    // a short write leaves behind.
    let cut = (at_byte as usize).min(pristine.len());
    std::fs::write(journal_path, &pristine[..cut]).map_err(|e| ChaosError::io(journal_path, &e))?;

    // Healing: reopening truncates the torn tail to an intact record
    // boundary, after which strict recovery accepts the journal...
    drop(Journal::open_append(journal_path)?);
    let surviving = crate::journal::journal_line_count(journal_path)?;
    let recovery = recover_with(journal_path, trace, RecoveryPolicy::Strict)?;
    if recovery.torn_tail || !recovery.corrupt_records.is_empty() {
        return Err(ChaosError::Mismatch {
            reason: format!(
                "cut at byte {at_byte}: reopen left damage behind \
                 (torn_tail={}, corrupt={:?})",
                recovery.torn_tail, recovery.corrupt_records
            ),
        });
    }

    // ...and finishing the trace reproduces the reference exactly.
    let mut runtime = recovery.runtime;
    while (runtime.cursor() as usize) < trace.events.len() {
        let index = runtime.cursor() as usize;
        runtime.step(index, &trace.events[index])?;
    }
    if Outcome::of(&runtime) != reference {
        return Err(ChaosError::Mismatch {
            reason: format!("cut at byte {at_byte}: healed run diverged from reference"),
        });
    }

    // Restore the pristine journal so the caller can inspect it.
    std::fs::write(journal_path, &pristine).map_err(|e| ChaosError::io(journal_path, &e))?;
    Ok(surviving)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChaosGenerator, ChaosProfile};
    use tacc_workload::{TraceEvent, TraceScenario};

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("tacc-runner-test-{name}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn crash_injected_replay_is_byte_identical() {
        let scenario = TraceScenario { num_iot: 16, num_servers: 4, ..TraceScenario::default() };
        let trace =
            ChaosGenerator::new(scenario, ChaosProfile::Mixed).num_events(40).generate(11).unwrap();
        let path = temp_path("mixed");
        let report = run_with_crashes(&trace, &CrashPlan::default(), &path).unwrap();
        assert!(report.byte_identical, "recovery must reproduce the reference run");
        assert!(report.crashes > 0, "the plan schedules crashes");
        assert!(report.max_overload <= 1e-9);
        assert_eq!(report.events, 40);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn no_crash_plan_still_journals_and_matches() {
        let scenario = TraceScenario { num_iot: 12, num_servers: 3, ..TraceScenario::default() };
        let trace = ChaosGenerator::new(scenario, ChaosProfile::Flapping)
            .num_events(25)
            .generate(4)
            .unwrap();
        let path = temp_path("nocrash");
        let plan = CrashPlan { crash_every: 0, ..CrashPlan::default() };
        let report = run_with_crashes(&trace, &plan, &path).unwrap();
        assert_eq!(report.crashes, 0);
        assert!(report.byte_identical);
        // The journal is complete and recoverable even without crashes.
        let recovery = recover(&path, &trace).unwrap();
        assert_eq!(recovery.last_step, Some(24));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_gate_proves_every_record_offset() {
        let scenario = TraceScenario { num_iot: 10, num_servers: 3, ..TraceScenario::default() };
        let trace =
            ChaosGenerator::new(scenario, ChaosProfile::Mixed).num_events(12).generate(21).unwrap();
        let path = temp_path("corrupt-gate");
        let proven =
            corrupt_and_recover_everywhere(&trace, &RuntimeConfig::default(), 4, &path).unwrap();
        // 12 steps + 3 snapshots (after events 4, 8, 12); Begin is exempt.
        assert_eq!(proven, 15);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_gate_heals_any_cut_past_the_begin_record() {
        let scenario = TraceScenario { num_iot: 10, num_servers: 3, ..TraceScenario::default() };
        let trace =
            ChaosGenerator::new(scenario, ChaosProfile::Mixed).num_events(12).generate(21).unwrap();
        let path = temp_path("truncate-gate");
        let config = RuntimeConfig::default();

        // Build the corpus once to learn its size, then cut at a spread
        // of offsets: record boundaries, mid-record, mid-frame, past EOF.
        truncate_and_recover(&trace, &config, 4, &path, u64::MAX).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        let begin_end = pristine.iter().position(|&b| b == b'\n').unwrap() as u64 + 1;
        let len = pristine.len() as u64;
        for at_byte in [begin_end, begin_end + 3, len / 2, len - 1, len, len + 100] {
            let surviving = truncate_and_recover(&trace, &config, 4, &path, at_byte).unwrap();
            assert!(surviving >= 1, "cut at {at_byte}: the Begin record always survives");
        }

        // Cutting into Begin itself is typed, not provable.
        let err = truncate_and_recover(&trace, &config, 4, &path, begin_end - 1).unwrap_err();
        assert!(matches!(err, ChaosError::Journal { .. }), "got {err:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chaos_runner_quarantines_malformed_traces() {
        let scenario = TraceScenario { num_iot: 10, num_servers: 3, ..TraceScenario::default() };
        let mut trace =
            ChaosGenerator::new(scenario, ChaosProfile::Mixed).num_events(8).generate(5).unwrap();
        // Smuggle in a NaN load factor: `Trace::validate` only checks the
        // event stream, so only the guard quarantine sees it — and a NaN
        // factor would otherwise poison every derived server capacity.
        trace.scenario.load_factor = f64::NAN;
        let path = temp_path("quarantine");
        let err = run_with_crashes(&trace, &CrashPlan::default(), &path).unwrap_err();
        assert!(matches!(err, ChaosError::Quarantine { .. }), "got {err:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_trace_with_bad_events_is_quarantined_with_every_finding() {
        let scenario = TraceScenario { num_iot: 10, num_servers: 3, ..TraceScenario::default() };
        let mut trace =
            ChaosGenerator::new(scenario, ChaosProfile::Mixed).num_events(8).generate(5).unwrap();
        for index in [2, 5] {
            trace.events[index].event = TraceEvent::DeviceJoin { device: 99 };
        }
        let path = temp_path("bad-events");
        let err = run_with_crashes(&trace, &CrashPlan::default(), &path).unwrap_err();
        let ChaosError::Quarantine { reason } = &err else { panic!("got {err:?}") };
        for index in [2, 5] {
            assert!(reason.contains(&format!("record {index}: device index 99")), "{reason}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn report_json_is_ordered_and_complete() {
        let report = ChaosReport {
            events: 10,
            crashes: 2,
            snapshot_recoveries: 1,
            replayed_events: 3,
            max_overload: 0.0,
            evictions: 4,
            readmissions: 4,
            unreachable_transitions: 5,
            byte_identical: true,
            final_delay_ms: 123.5,
            final_active: 9,
        };
        let text = serde_json::to_string(&report.to_json()).unwrap();
        assert!(text.starts_with("{\"events\":10,\"crashes\":2"));
        assert!(text.contains("\"byte_identical\":true"));
    }
}
