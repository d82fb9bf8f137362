//! Criterion micro-bench: incremental delay maintenance versus full
//! recompute — the per-event cost that makes the online runtime viable.
//!
//! `drift/incremental` repairs the affected shortest-path trees in place
//! after a single link-latency change; `drift/full` rebuilds every tree
//! (what the runtime's `full_recompute` fallback does); `fail_recover`
//! measures a server-failure + recovery round trip through the
//! incremental path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use tacc_runtime::DelayMaintainer;
use tacc_topology::generators::{RandomGeometric, TopologyGenerator};
use tacc_topology::{DelayModel, LinkId, Topology};

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

/// One drift event on a mid-range link, through a fresh maintainer.
fn drift_once(topology: &Topology, full_mode: bool) {
    let mut topo = topology.clone();
    let mut maintainer = DelayMaintainer::new(&topo, DelayModel::default(), full_mode);
    let link: LinkId = topo.graph().link_id(topo.graph().link_count() / 2);
    let base = topo.graph().link(link).latency_ms();
    topo.set_link_latency(link, base * 1.5).expect("valid latency");
    black_box(maintainer.drift(&topo, link, &mut Vec::new()));
}

fn bench_drift(c: &mut Criterion) {
    let mut group = c.benchmark_group("drift");
    for &(n, m, r) in &[(100usize, 10usize, 16usize), (400, 20, 32)] {
        let topo = topology(n, m, r);
        group.bench_with_input(BenchmarkId::new("incremental", format!("{n}x{m}")), &n, |b, _| {
            b.iter(|| drift_once(&topo, false))
        });
        group.bench_with_input(BenchmarkId::new("full", format!("{n}x{m}")), &n, |b, _| {
            b.iter(|| drift_once(&topo, true));
        });
    }
    group.finish();
}

fn bench_fail_recover(c: &mut Criterion) {
    let mut group = c.benchmark_group("fail_recover");
    for &(n, m, r) in &[(100usize, 10usize, 16usize), (400, 20, 32)] {
        let topo = topology(n, m, r);
        let mut maintainer = DelayMaintainer::new(&topo, DelayModel::default(), false);
        group.bench_with_input(BenchmarkId::from_parameter(format!("{n}x{m}")), &n, |b, _| {
            b.iter(|| {
                black_box(maintainer.fail_server(&topo, 0, &mut Vec::new()));
                black_box(maintainer.recover_server(&topo, 0, &mut Vec::new()));
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_drift, bench_fail_recover);
criterion_main!(benches);
