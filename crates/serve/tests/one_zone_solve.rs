//! A `zones <= 1` config answers `Solve` on the identical flat path. Own
//! binary because its sessions add to the process-global obs counters,
//! which the zoned stream test records with obs switched on.

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

#[test]
fn one_zone_config_stays_on_the_flat_path() {
    let (trace, shell, config) = fixtures();
    let mut flat = Session::start(shell.clone(), config.clone(), &ServeConfig::default()).unwrap();
    let mut one =
        Session::start(shell, config, &ServeConfig { zones: 1, ..ServeConfig::default() }).unwrap();
    for burst in trace.events.chunks(40) {
        flat.push(burst.to_vec(), 0).unwrap();
        one.push(burst.to_vec(), 0).unwrap();
    }
    let a = flat.solve(200).unwrap();
    let b = one.solve(200).unwrap();
    match (a, b) {
        (
            Response::Solution { objective: oa, solver: sa, assignment: aa, .. },
            Response::Solution { objective: ob, solver: sb, assignment: ab, .. },
        ) => {
            assert_eq!(oa.to_bits(), ob.to_bits(), "zones<=1 is the identical flat path");
            assert_eq!(sa, sb);
            assert_eq!(aa, ab);
        }
        other => panic!("expected two solutions, got {other:?}"),
    }
}
