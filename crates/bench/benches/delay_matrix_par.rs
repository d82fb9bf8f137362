//! Criterion micro-bench: serial vs parallel delay-matrix derivation.
//!
//! Pins the speedup claim of the `tacc-par` layer: the per-server SSSP
//! fan-out in [`Topology::delay_matrix`] at explicit worker counts,
//! next to the serial adjacency-list Dijkstra reference lane. The
//! `par1` lane isolates the scheduling overhead and `parN` the scaling;
//! outputs are bit-for-bit identical in every lane.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
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

fn bench_delay_matrix_par(c: &mut Criterion) {
    let mut group = c.benchmark_group("delay_matrix_par");
    let model = DelayModel::default();
    for &(n, m) in &[(400usize, 16usize), (1600, 32)] {
        let topo = topology(n, m, 32);
        group.bench_with_input(BenchmarkId::new("serial", format!("{n}x{m}")), &n, |b, _| {
            b.iter(|| black_box(topo.delay_matrix_serial(&model)));
        });
        for threads in [1usize, 2, 4] {
            group.bench_with_input(
                BenchmarkId::new(format!("par{threads}"), format!("{n}x{m}")),
                &n,
                |b, _| {
                    b.iter(|| black_box(topo.delay_matrix_with_threads(&model, threads)));
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_delay_matrix_par);
criterion_main!(benches);
