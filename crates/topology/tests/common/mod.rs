//! Shared fixtures of the topology property tests.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use tacc_topology::generators::{
    BarabasiAlbert, ErdosRenyi, FatTree, Grid, HierarchicalTree, RandomGeometric, TopologyGenerator,
};
use tacc_topology::Topology;

/// One topology per generator family (`0..6`), seeded; small enough
/// that a property runs hundreds of cases in test time.
pub fn family_topology(family: usize, seed: u64, n: usize, m: usize) -> Topology {
    let rng = &mut ChaCha8Rng::seed_from_u64(seed);
    match family {
        0 => RandomGeometric::builder()
            .num_iot(n)
            .num_servers(m)
            .num_routers(8)
            .build()
            .unwrap()
            .generate(rng),
        1 => ErdosRenyi::builder()
            .num_iot(n)
            .num_servers(m)
            .num_routers(8)
            .build()
            .unwrap()
            .generate(rng),
        2 => BarabasiAlbert::builder()
            .num_iot(n)
            .num_servers(m)
            .num_routers(8)
            .build()
            .unwrap()
            .generate(rng),
        3 => HierarchicalTree::builder().num_iot(n).num_servers(m).build().unwrap().generate(rng),
        4 => Grid::builder().num_iot(n).num_servers(m).build().unwrap().generate(rng),
        5 => FatTree::builder().num_iot(n).num_servers(m).build().unwrap().generate(rng),
        other => panic!("unknown family index {other}"),
    }
    .expect("generated topologies are valid")
}
