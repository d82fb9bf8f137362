//! Criterion micro-bench: the two `tacc-fast` hot-path kernels.
//!
//! Lane 1 — SSSP: the bucket-queue kernel on a CSR snapshot, one
//! per-server sweep over the full fan-out. Its distances are
//! bit-identical to the adjacency-list Dijkstra (property-tested in
//! `topology/tests/par_equivalence.rs`).
//!
//! Lane 2 — move evaluation: delta-objective probing via
//! [`tacc_gap::DeltaEval`] vs full-solution rescoring through
//! `Assignment::penalized_objective`, over the same deterministic move
//! sequence. This is the per-move cost the SA/tabu/local-search inner
//! loops pay.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use tacc_topology::csr::{CsrGraph, SsspScratch};
use tacc_topology::generators::{RandomGeometric, TopologyGenerator};
use tacc_topology::{DelayModel, Topology};

fn topology(num_iot: usize, num_servers: usize, routers: usize) -> Topology {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    RandomGeometric::builder()
        .num_iot(num_iot)
        .num_servers(num_servers)
        .num_routers(routers)
        .build()
        .expect("config")
        .generate(&mut rng)
        .expect("generate")
}

fn bench_sssp_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("sssp_kernel");
    let model = DelayModel::default();
    for &(n, m) in &[(400usize, 16usize), (1600, 32)] {
        let topo = topology(n, m, 32);
        let csr = CsrGraph::from_graph(topo.graph(), |l| model.link_delay_ms(l));
        let servers = topo.server_nodes().to_vec();
        group.bench_with_input(BenchmarkId::new("bucket", format!("{n}x{m}")), &n, |b, _| {
            let mut scratch = SsspScratch::new();
            b.iter(|| {
                for &s in &servers {
                    black_box(csr.sssp_into(s, &mut scratch));
                }
            });
        });
    }
    group.finish();
}

fn bench_move_eval(c: &mut Criterion) {
    use tacc_gap::{Assignment, DeltaEval, GapInstance};
    use tacc_workload::ScenarioBuilder;

    let mut group = c.benchmark_group("move_eval");
    for &(n, m) in &[(200usize, 10usize), (800, 20)] {
        let scenario = ScenarioBuilder::new()
            .num_iot(n)
            .num_servers(m)
            .load_factor(0.7)
            .build(2022)
            .expect("scenario");
        let instance: &GapInstance = scenario.instance();
        // Deterministic start + move sequence shared by both lanes.
        let mut start = Assignment::unassigned(n, m);
        for i in 0..n {
            start.assign(i, i % m).expect("assign");
        }
        let mut rng = ChaCha8Rng::seed_from_u64(2022);
        let moves: Vec<(usize, usize)> =
            (0..1024).map(|_| (rng.random_range(0..n), rng.random_range(0..m))).collect();
        let penalty = 100.0;

        group.bench_with_input(BenchmarkId::new("full", format!("{n}x{m}")), &n, |b, _| {
            b.iter(|| {
                let mut assignment = start.clone();
                let mut cost = 0.0;
                for &(device, server) in &moves {
                    assignment.assign(device, server).expect("assign");
                    cost = assignment.penalized_objective(instance, penalty);
                }
                black_box(cost)
            });
        });
        group.bench_with_input(BenchmarkId::new("delta", format!("{n}x{m}")), &n, |b, _| {
            b.iter(|| {
                let mut eval = DeltaEval::new(instance, start.clone());
                let mut cost = eval.objective(penalty);
                for &(device, server) in &moves {
                    let delta = eval.reassign_delta(device, server, penalty);
                    eval.apply_reassign(device, server);
                    cost += delta;
                }
                black_box(cost)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sssp_kernels, bench_move_eval);
criterion_main!(benches);
