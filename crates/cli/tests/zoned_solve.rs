//! `tacc solve --zones` runs the zoned Solve the daemon serves: the
//! chosen algorithm under one guard ladder per zone. One zone answers
//! exactly what the flat `--budget` solve answers, every answer's total
//! is the exact delay of its assignment, and a one-shot algorithm is
//! refused as `--budget` refuses it. Each run is its own process, so the
//! guard's process-global forced-panic switch cannot reach these.

use std::process::{Command, Output};

use serde_json::Value;
use tacc_core::workload::{DemandModel, ScenarioBuilder, TopologyFamily};

fn tacc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tacc")).args(args).output().unwrap()
}

/// `tacc solve --json` with `args`: its total delay and assignment.
fn solve(args: &[&str]) -> (f64, Vec<Value>) {
    let out = tacc(&[&["solve", "--json"], args].concat());
    assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    let doc: Value = serde_json::from_str(&String::from_utf8(out.stdout).unwrap()).unwrap();
    let Some(&Value::Float(total)) = doc.get("total_delay_ms") else { panic!("{doc:?}") };
    let Some(Value::Array(assignment)) = doc.get("assignment") else { panic!("{doc:?}") };
    (total, assignment.clone())
}

#[test]
fn one_zone_answers_what_the_budget_alone_answers() {
    for (family, demand, seed) in
        [("random-geometric", "uniform", "4"), ("hierarchical-tree", "zipf", "11")]
    {
        for algorithm in ["local-search", "q-learning", "simulated-annealing"] {
            let flat = format!(
                "--devices 120 --servers 8 --load 0.8 --family {family} --demand {demand} \
                 --seed {seed} --algorithm {algorithm} --budget 50"
            );
            let flat: Vec<&str> = flat.split_whitespace().collect();
            let (total, assignment) = solve(&flat);
            let (one_total, one_assignment) = solve(&[&flat[..], &["--zones", "1"]].concat());
            assert_eq!(one_total.to_bits(), total.to_bits(), "{family} {algorithm}");
            assert_eq!(one_assignment, assignment, "{family} {algorithm}");
        }
    }
}

#[test]
fn a_zoned_total_is_the_exact_delay_of_its_assignment() {
    let scenario = ScenarioBuilder::new()
        .family(TopologyFamily::RandomGeometric)
        .num_iot(240)
        .num_servers(12)
        .load_factor(0.7)
        .demand_model(DemandModel::Uniform { lo: 0.5, hi: 2.0 })
        .build(11)
        .unwrap();
    let instance = scenario.instance();
    let base = ["--devices", "240", "--servers", "12", "--seed", "11", "--zones", "4"];
    for extra in [&["--algorithm", "local-search", "--budget", "400"][..], &[]] {
        let (total, assignment) = solve(&[&base[..], extra].concat());
        let exact = assignment.iter().enumerate().fold(0.0, |sum, (i, server)| {
            let &Value::UInt(j) = server else { panic!("device {i} unassigned") };
            sum + instance.delay(i, j as usize)
        });
        assert_eq!(total.to_bits(), exact.to_bits(), "{extra:?}: {total} vs exact {exact}");
    }
}

#[test]
fn a_one_shot_algorithm_is_refused_with_zones_as_with_a_budget() {
    let base = ["solve", "--devices", "20", "--servers", "3", "--algorithm", "greedy-regret"];
    let budget = tacc(&[&base[..], &["--budget", "5"]].concat());
    let zones = tacc(&[&base[..], &["--zones", "2"]].concat());
    assert_eq!(zones.status.code(), Some(1));
    assert!(zones.stdout.is_empty(), "nothing was solved");
    let stderr = String::from_utf8(zones.stderr).unwrap();
    assert!(stderr.contains("`greedy-regret` is one-shot"), "{stderr}");
    assert_eq!(stderr, String::from_utf8(budget.stderr).unwrap());
}
