//! The zone-decomposed Solve path: answers stay feasible and target
//! alive servers, budget shares sum to the query budget, and two
//! same-seed zoned sessions are byte-identical — including the new
//! `zones` stream records. Own binary because the obs registry is
//! process-global.

use std::path::{Path, PathBuf};

use tacc_proto::Response;
use tacc_runtime::{ReassignPolicy, RuntimeConfig};
use tacc_serve::{ServeConfig, Session};
use tacc_workload::{Trace, TraceGenerator, TraceScenario};

fn fixtures() -> (Trace, Trace, RuntimeConfig) {
    let scenario =
        TraceScenario { num_iot: 30, num_servers: 6, load_factor: 0.6, ..TraceScenario::default() };
    let trace = TraceGenerator::new(scenario).num_events(300).generate(91).unwrap();
    let shell = Trace { events: Vec::new(), ..trace.clone() };
    let config =
        RuntimeConfig { policy: ReassignPolicy::Greedy, seed: 13, ..RuntimeConfig::default() };
    (trace, shell, config)
}

/// Runs two same-seed zoned sessions of `algorithm` over the fixture
/// trace, checks each Solve answer, and returns the two obs streams.
fn two_zoned_sessions(algorithm: &str, dir: &Path) -> Vec<Vec<u8>> {
    let (trace, shell, config) = fixtures();
    let mut streams = Vec::new();
    for run in 0..2 {
        let out = dir.join(format!("{algorithm}-run{run}.jsonl"));
        let cfg = ServeConfig {
            zones: 3,
            obs_out: Some(out.clone()),
            algorithm: algorithm.to_owned(),
            ..ServeConfig::default()
        };
        tacc_obs::reset();
        tacc_obs::set_enabled(true);
        let mut session = Session::start(shell.clone(), config.clone(), &cfg).unwrap();
        for burst in trace.events.chunks(40) {
            session.push(burst.to_vec(), 0).unwrap();
        }
        session.flush().unwrap();
        let response = session.solve(400).unwrap();
        match response {
            Response::Solution { feasible, objective, solver, assignment, .. } => {
                assert!(feasible, "zoned solve must respect capacities");
                assert!(objective.is_finite() && objective > 0.0);
                assert_eq!(solver, format!("zoned:{algorithm}"));
                assert!(!assignment.is_empty(), "active devices got servers");
                for &(_, server) in &assignment {
                    assert!(server < 6, "assigned server {server} out of range");
                }
            }
            other => panic!("expected a solution, got {other:?}"),
        }
        session.close().unwrap();
        streams.push(std::fs::read(&out).unwrap());
    }
    streams
}

#[test]
fn zoned_solve_answers_are_feasible_and_deterministic() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("tacc-serve-zoned-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // The default algorithm answers as `zoned:local-search`.
    assert_eq!(ServeConfig::default().algorithm, "local-search");
    let streams = two_zoned_sessions("local-search", &dir);
    assert_eq!(streams[0], streams[1], "same seed, same bytes (zones on)");
    let text = String::from_utf8(streams[0].clone()).unwrap();
    assert!(text.contains("\"kind\":\"zones\""), "stream carries the zones record:\n{text}");

    // The paper's learner stays servable through the same path.
    let streams = two_zoned_sessions("q-learning", &dir);
    assert_eq!(streams[0], streams[1], "same seed, same bytes (q-learning, zones on)");
    std::fs::remove_dir_all(&dir).ok();
}
