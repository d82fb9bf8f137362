//! Criterion micro-bench: shortest-path kernels and delay-matrix
//! derivation — the per-scenario setup cost of every experiment.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use tacc_topology::generators::{RandomGeometric, TopologyGenerator};
use tacc_topology::shortest_path::dijkstra;
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

fn bench_dijkstra(c: &mut Criterion) {
    let mut group = c.benchmark_group("dijkstra_single_source");
    for &(n, r) in &[(100usize, 16usize), (400, 32), (1600, 64)] {
        let topo = topology(n, 10, r);
        let source = topo.server_nodes()[0];
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(dijkstra(topo.graph(), source, |l| l.latency_ms())));
        });
    }
    group.finish();
}

fn bench_delay_matrix(c: &mut Criterion) {
    let mut group = c.benchmark_group("delay_matrix");
    let model = DelayModel::default();
    for &(n, m) in &[(100usize, 10usize), (400, 20), (1600, 40)] {
        let topo = topology(n, m, 32);
        group.bench_with_input(
            BenchmarkId::new("iot_x_servers", format!("{n}x{m}")),
            &n,
            |b, _| {
                b.iter(|| black_box(topo.delay_matrix(&model)));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_dijkstra, bench_delay_matrix);
criterion_main!(benches);
