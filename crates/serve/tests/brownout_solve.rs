//! A deep-brownout Solve runs the same path as a calm one, on the same
//! maintained delays: only its budget shrinks. Its objective is the
//! exact delay of the assignment it returns, flat and zoned, and a zoned
//! one still splits its (÷16) budget across the zones.

use std::path::PathBuf;

use tacc_proto::Response;
use tacc_runtime::{ReassignPolicy, RuntimeConfig};
use tacc_serve::{ServeConfig, Session};
use tacc_workload::{Trace, TraceGenerator, TraceScenario};

/// A 200 × 16 session that applied 400 events in calm 20-event bursts,
/// then had one 40-event burst shed twice against a cap of 30: two
/// pressured observations put the ladder at L2.
fn l2_session(cfg: ServeConfig) -> Session {
    let scenario = TraceScenario { num_iot: 200, num_servers: 16, ..TraceScenario::default() };
    let trace = TraceGenerator::new(scenario).num_events(440).generate(7).unwrap();
    let shell = Trace { events: Vec::new(), ..trace.clone() };
    let config =
        RuntimeConfig { policy: ReassignPolicy::Greedy, seed: 13, ..RuntimeConfig::default() };
    let cfg = ServeConfig { max_pending: 30, ..cfg };
    let mut session = Session::start(shell, config, &cfg).unwrap();
    let (calm, surge) = trace.events.split_at(400);
    for burst in calm.chunks(20) {
        assert!(matches!(session.push(burst.to_vec(), 0).unwrap(), Response::Accepted { .. }));
        session.flush().unwrap();
    }
    for _ in 0..2 {
        let shed = session.push(surge.to_vec(), 0).unwrap();
        assert!(matches!(shed, Response::Overloaded { .. }), "got {shed:?}");
    }
    assert_eq!(session.brownout(), "l2-deep-budget");
    session
}

/// Solves at L2 and checks the answer's objective against the exact
/// delays of its assignment, summed in its order; returns the solver
/// label and the units spent.
fn exact_l2_solve(session: &mut Session) -> (String, u64) {
    let Response::Solution { objective, solver, assignment, spent, feasible, .. } =
        session.solve(2000).unwrap()
    else {
        panic!("an L2 Solve answers a Solution");
    };
    assert!(feasible);
    let instance = session.runtime().cluster().instance();
    let exact = assignment.iter().fold(0.0, |sum, &(d, j)| sum + instance.delay(d, j));
    assert_eq!(objective.to_bits(), exact.to_bits(), "{solver}: {objective} vs exact {exact}");
    assert_eq!(assignment.len(), session.runtime().cluster().active_count());
    (solver, spent)
}

#[test]
fn an_l2_solve_reports_the_exact_delay_of_its_assignment() {
    let (solver, spent) = exact_l2_solve(&mut l2_session(ServeConfig::default()));
    assert_eq!(solver, "local-search");
    assert!(spent <= 2000 / 16, "the ÷16 budget holds: spent {spent}");
}

#[test]
fn an_l2_zoned_solve_splits_the_deep_budget_across_the_zones() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("tacc-serve-brownout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("zoned.jsonl");
    let cfg = ServeConfig { zones: 8, obs_out: Some(out.clone()), ..ServeConfig::default() };
    let mut session = l2_session(cfg);
    let (solver, spent) = exact_l2_solve(&mut session);
    assert_eq!(solver, "zoned:local-search");
    assert!(spent <= 2000 / 16, "the zones share the ÷16 budget: spent {spent}");
    session.close().unwrap();

    let stream = std::fs::read_to_string(&out).unwrap();
    let zones = stream.lines().find(|l| l.contains("\"kind\":\"zones\"")).expect("a zones record");
    assert!(zones.contains("\"zones\":8,") && zones.contains("\"budget\":125"), "{zones}");
    let solve = stream.lines().find(|l| l.contains("\"kind\":\"solve\"")).expect("a solve record");
    assert!(solve.contains("\"brownout\":\"l2-deep-budget\""), "{solve}");
    std::fs::remove_dir_all(&dir).ok();
}
