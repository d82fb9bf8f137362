//! Property-based tests of the online runtime.
//!
//! Invariants:
//! - Incremental delay maintenance is bit-for-bit equal to a full
//!   recompute after *any* generated event sequence, on every topology
//!   family.
//! - The full-recompute fallback mode produces the exact same visible
//!   behavior (matrix, assignment, event/migration accounting) as
//!   incremental mode — they differ only in repair work performed.
//!   Stepped side by side, the two agree after every single event on
//!   the cluster's delay matrix and the assignment, and each cluster
//!   matrix equals a read-out of its own runtime's trees.
//! - Interrupting a replay with snapshot → JSON → restore at any cut
//!   point changes nothing: the restored cluster matrix, read out of
//!   the restored trees, is bit for bit the interrupted one's, and the
//!   resumed run ends byte-identical to an uninterrupted one.
//! - A snapshot stores each tree's parents, not its distances or the
//!   link costs; snapshot → JSON → restore after any drift, failure and
//!   recovery history, in either maintenance mode, rebuilds the live
//!   delay maintainer bit for bit (distances, parents, base and
//!   effective costs) and the same cluster delay matrix.
//! - Traces survive a JSON round trip unchanged.

use proptest::prelude::*;

use tacc_runtime::{Runtime, RuntimeConfig, RuntimeSnapshot};
use tacc_topology::DelayMatrix;
use tacc_workload::{TopologyFamily, Trace, TraceGenerator, TraceScenario};

/// Strategy producing a small trace on a random topology family, plus a
/// cut fraction for interruption tests.
fn trace_and_cut() -> impl Strategy<Value = (Trace, f64)> {
    (
        0usize..TopologyFamily::ALL.len(),
        10usize..=25,
        3usize..=6,
        0u64..1000,
        20usize..=60,
        0.0f64..1.0,
    )
        .prop_map(|(family, num_iot, num_servers, seed, num_events, cut)| {
            let scenario = TraceScenario {
                family: TopologyFamily::ALL[family],
                num_iot,
                num_servers,
                load_factor: 0.7,
                seed,
            };
            let trace = TraceGenerator::new(scenario)
                .num_events(num_events)
                .generate(seed)
                .expect("generated traces are valid");
            (trace, cut)
        })
}

fn deterministic_report(runtime: &Runtime) -> String {
    serde_json::to_string(&runtime.report_json(false)).expect("report serializes")
}

/// The runtime's one delay matrix: its cluster's instance.
fn delays(runtime: &Runtime) -> &DelayMatrix {
    runtime.cluster().instance().delays()
}

/// The same matrix read out of the runtime's shortest-path trees.
fn read_out(runtime: &Runtime) -> DelayMatrix {
    runtime.maintainer().delay_matrix(runtime.topology())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After every event sequence, the incrementally maintained matrix
    /// equals a from-scratch recompute on the degraded topology, and the
    /// full-recompute fallback agrees with incremental mode on
    /// everything an observer can see.
    #[test]
    fn incremental_equals_full_recompute((trace, _) in trace_and_cut()) {
        let incremental = RuntimeConfig::default();
        let full = RuntimeConfig { full_recompute: true, ..RuntimeConfig::default() };

        let mut a = Runtime::from_trace(&trace, incremental).expect("runtime");
        a.run(&trace).expect("replay");
        prop_assert!(
            a.maintainer().matches_full_recompute(a.topology()),
            "incremental matrix diverged from full recompute"
        );

        let mut b = Runtime::from_trace(&trace, full).expect("runtime");
        b.run(&trace).expect("replay");
        prop_assert_eq!(delays(&a), delays(&b));
        prop_assert_eq!(delays(&a), &read_out(&a));
        prop_assert_eq!(delays(&b), &read_out(&b));
        prop_assert_eq!(a.cluster().assignment(), b.cluster().assignment());
        let (ca, cb) = (&a.metrics().core, &b.metrics().core);
        prop_assert_eq!(ca.events, cb.events);
        prop_assert_eq!(ca.migrations, cb.migrations);
        prop_assert_eq!(ca.evictions, cb.evictions);
        // Incremental repair never does more settle work than rebuilds.
        prop_assert!(ca.repair_work.settled <= cb.repair_work.settled);
    }

    /// An incremental and a full-recompute runtime stepped side by side
    /// through a drift-heavy trace agree after every event, on all six
    /// topology families: the incremental runtime patches only the
    /// entries its repairs touched, the full one rewrites every entry.
    #[test]
    fn patched_delays_match_full_recompute_after_every_event(
        num_iot in 10usize..=25,
        num_servers in 3usize..=6,
        seed in 0u64..1000,
        num_events in 20usize..=60,
    ) {
        for family in TopologyFamily::ALL {
            let scenario =
                TraceScenario { family, num_iot, num_servers, load_factor: 0.7, seed };
            let trace = TraceGenerator::new(scenario)
                .num_events(num_events)
                .weights([2.0, 2.0, 1.0, 1.0, 8.0])
                .generate(seed)
                .expect("generated traces are valid");
            let full = RuntimeConfig { full_recompute: true, ..RuntimeConfig::default() };
            let mut a = Runtime::from_trace(&trace, RuntimeConfig::default()).expect("runtime");
            let mut b = Runtime::from_trace(&trace, full).expect("runtime");
            for (index, timed) in trace.events.iter().enumerate() {
                a.step(index, timed).expect("incremental step");
                b.step(index, timed).expect("full step");
                let what = format!("{family:?}, event {index} ({})", timed.event.kind_name());
                prop_assert_eq!(delays(&a), delays(&b), "{}", what);
                prop_assert_eq!(delays(&a), &read_out(&a), "{}", what);
                prop_assert_eq!(delays(&b), &read_out(&b), "{}", what);
                prop_assert_eq!(a.cluster().assignment(), b.cluster().assignment(), "{}", what);
            }
        }
    }

    /// Snapshot → JSON → restore at any cut point, then finishing the
    /// trace, is indistinguishable from never having been interrupted.
    #[test]
    fn snapshot_restore_is_transparent((trace, cut) in trace_and_cut()) {
        let config = RuntimeConfig { refresh_every: Some(16), ..RuntimeConfig::default() };

        let mut whole = Runtime::from_trace(&trace, config.clone()).expect("runtime");
        whole.run(&trace).expect("replay");

        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let cut_at = ((trace.events.len() as f64) * cut) as usize;
        let mut first = Runtime::from_trace(&trace, config).expect("runtime");
        for index in 0..cut_at {
            first.step(index, &trace.events[index]).expect("replay");
        }
        let json = first.snapshot().to_json();
        let snapshot = RuntimeSnapshot::from_json(&json).expect("snapshot parses back");
        let mut resumed = Runtime::restore(snapshot, &trace).expect("restore");
        let bits = |m: &DelayMatrix| m.iter().map(f64::to_bits).collect::<Vec<u64>>();
        prop_assert_eq!(delays(&resumed), delays(&first));
        prop_assert_eq!(bits(delays(&resumed)), bits(delays(&first)));
        resumed.run(&trace).expect("resume replay");

        prop_assert_eq!(deterministic_report(&whole), deterministic_report(&resumed));
        prop_assert_eq!(whole.snapshot(), resumed.snapshot());
        prop_assert_eq!(bits(delays(&whole)), bits(delays(&resumed)));
    }

    /// Traces are stable under JSON round trips.
    #[test]
    fn trace_json_round_trip((trace, _) in trace_and_cut()) {
        let back = Trace::from_json(&trace.to_json()).expect("round trip parses");
        prop_assert_eq!(trace, back);
    }
}

proptest! {
    // Each case replays six families in two modes, restoring after
    // every event.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// After every event of a drift/fail/recover-heavy trace, on all six
    /// families and in both maintenance modes, the restored maintainer
    /// is the live one bit for bit: `{:?}` prints each `f64` as its
    /// shortest round-trip form, so equal debug text is equal bits for
    /// every distance and cost.
    #[test]
    fn restored_maintainer_is_the_live_one_bit_for_bit(
        num_iot in 8usize..=20,
        num_servers in 2usize..=5,
        seed in 0u64..1000,
        num_events in 15usize..=40,
    ) {
        for family in TopologyFamily::ALL {
            let scenario =
                TraceScenario { family, num_iot, num_servers, load_factor: 0.7, seed };
            let trace = TraceGenerator::new(scenario)
                .num_events(num_events)
                .weights([1.0, 1.0, 3.0, 3.0, 6.0])
                .generate(seed)
                .expect("generated traces are valid");
            for full_recompute in [false, true] {
                let config = RuntimeConfig { full_recompute, ..RuntimeConfig::default() };
                let mut live = Runtime::from_trace(&trace, config).expect("runtime");
                for (index, timed) in trace.events.iter().enumerate() {
                    live.step(index, timed).expect("step");
                    let what = format!("{family:?}, full {full_recompute}, event {index}");
                    let json = live.snapshot().to_json();
                    prop_assert!(!json.contains("\"dist\""), "{}", what);
                    let snapshot = RuntimeSnapshot::from_json(&json).expect("snapshot parses");
                    let restored = Runtime::restore(snapshot, &trace).expect("restore");
                    prop_assert_eq!(
                        format!("{:?}", restored.maintainer()),
                        format!("{:?}", live.maintainer()),
                        "{}",
                        what
                    );
                    prop_assert_eq!(restored.maintainer(), live.maintainer(), "{}", what);
                    let bits = |m: &DelayMatrix| m.iter().map(f64::to_bits).collect::<Vec<u64>>();
                    prop_assert_eq!(bits(delays(&restored)), bits(delays(&live)), "{}", what);
                }
            }
        }
    }
}
