//! A promotion that fails at its `Recovered` append must leave a working
//! standby: one that accepts the next `Replicate` and then promotes to
//! the primary's bytes. Failpoint arming is process-global, so this is
//! a single `#[test]` in its own integration binary.

use std::path::PathBuf;

use tacc_chaos::journal_line_count;
use tacc_ha::{JournalTail, StandbyCore};
use tacc_runtime::{Runtime, RuntimeConfig};
use tacc_serve::{ServeConfig, Session};
use tacc_workload::{TopologyFamily, Trace, TraceGenerator, TraceScenario};

/// A session's delay matrix, bit for bit: a snapshot stores each tree's
/// parents, not its distances.
fn delays(runtime: &Runtime) -> Vec<u64> {
    runtime.cluster().instance().delays().iter().map(|d| d.to_bits()).collect()
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tacc-ha-promote-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn a_promotion_that_fails_at_its_recovered_append_keeps_a_standby() {
    let scenario = TraceScenario {
        family: TopologyFamily::BarabasiAlbert,
        num_iot: 16,
        num_servers: 3,
        load_factor: 0.6,
        seed: 9,
    };
    let trace = TraceGenerator::new(scenario).num_events(40).generate(17).unwrap();
    let shell = Trace { events: Vec::new(), ..trace.clone() };
    // The promotion's first journal write and fsync are its `Recovered`
    // append: fail it cleanly, torn, and after the bytes were written.
    for spec in ["journal.write@0:io", "journal.write@0:short", "journal.fsync@0:io"] {
        let dir = temp_dir(&spec.replace(['.', '@', ':'], "_"));
        let journal = dir.join("primary.jsonl");
        let standby_journal = dir.join("standby.jsonl");
        let cfg = |path: &PathBuf| ServeConfig {
            journal: Some(path.clone()),
            batch_size: 8,
            snapshot_every: 8,
            ..ServeConfig::default()
        };
        let mut primary =
            Session::start(shell.clone(), RuntimeConfig::default(), &cfg(&journal)).unwrap();
        let mut tail = JournalTail::new(&journal);
        let mut standby = StandbyCore::new(&cfg(&standby_journal)).unwrap();

        primary.push(trace.events[..20].to_vec(), 1).unwrap();
        let shipped = standby.apply(0, &tail.poll().unwrap()).unwrap();

        tacc_failpoints::arm(spec).unwrap();
        let failed = standby.promote();
        let counts = tacc_failpoints::counts();
        tacc_failpoints::disarm();
        let name = spec.split('@').next().unwrap();
        assert!(counts.iter().any(|(n, c)| *n == name && *c > 0), "{spec} never probed");
        assert!(failed.is_err(), "{spec}: the promotion must fail");
        assert_eq!(
            journal_line_count(&standby_journal).unwrap(),
            shipped,
            "{spec}: the failed promotion left a record in the copy"
        );

        // The standby accepts the rest of the primary's journal...
        primary.push(trace.events[20..].to_vec(), 2).unwrap();
        let acked = standby.apply(shipped, &tail.poll().unwrap()).unwrap();
        assert_eq!(acked, journal_line_count(&journal).unwrap(), "{spec}: short ack");
        assert_eq!(
            std::fs::read(&standby_journal).unwrap(),
            std::fs::read(&journal).unwrap(),
            "{spec}: the copy is no longer the primary's journal"
        );
        // ...and promotes to the primary's bytes.
        let mut promoted = standby.promote().unwrap();
        let (snapshot, delays) = (promoted.snapshot_json().unwrap(), delays(promoted.runtime()));
        assert_eq!(snapshot, primary.snapshot_json().unwrap(), "{spec}: promoted state differs");
        assert_eq!(delays, self::delays(primary.runtime()), "{spec}: promoted delays differ");
        std::fs::remove_dir_all(&dir).ok();
    }
}
