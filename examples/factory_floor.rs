//! Factory-floor scenario: hard real-time robots on a grid network.
//!
//! An industrial hall runs a lattice of shop-floor switches; PLCs and
//! robots attach to the nearest switch and stream control telemetry to a
//! small on-premises edge cluster under a *stringent* deadline — exactly
//! the regime the paper's abstract motivates. The example shows how the
//! topology-aware Q-learning assignment keeps worst-case delay low while
//! capacity-blind and topology-blind policies pay for it.
//!
//! Run with: `cargo run --release -p tacc-core --example factory_floor`

use rand::SeedableRng;
use tacc_core::gap::bounds;
use tacc_core::rl::QLearningConfig;
use tacc_core::topology::generators::{Grid, TopologyGenerator};
use tacc_core::{Algorithm, ClusterConfigurator, CoreError};

/// `TACC_EXAMPLE_QUICK=1` shrinks the hall so the example suite
/// (`tests/examples.rs`, CI) can run every example in seconds.
fn quick() -> bool {
    std::env::var("TACC_EXAMPLE_QUICK").as_deref() == Ok("1")
}

fn main() -> Result<(), CoreError> {
    let quick = quick();
    let side = if quick { 3 } else { 6 };
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let topology = Grid::builder()
        .rows(side)
        .cols(side)
        .num_iot(if quick { 18 } else { 90 })
        .num_servers(if quick { 3 } else { 6 })
        .link_latency_ms((0.8, 1.2))
        .access_latency_ms((0.2, 0.5))
        .build()?
        .generate(&mut rng)?;

    // Robots are homogeneous: one load unit each; servers hold 18 (ρ≈0.83).
    let capacity = if quick { 8.0 } else { 18.0 };
    let build = |algorithm: Algorithm| {
        ClusterConfigurator::new(topology.clone())
            .uniform_demand(1.0)
            .uniform_capacity(capacity)
            .algorithm(algorithm)
            .seed(3)
            .configure()
    };

    println!(
        "{:<22} {:>10} {:>10} {:>9} {:>9}",
        "algorithm", "mean(ms)", "max(ms)", "feasible", "fair"
    );
    let mut lower_bound_instance = None;
    let episodes = if quick { 300 } else { QLearningConfig::default().episodes };
    for algorithm in [
        Algorithm::QLearning(QLearningConfig { episodes, ..QLearningConfig::default() }),
        Algorithm::Sarsa(QLearningConfig { episodes, ..QLearningConfig::default() }),
        Algorithm::greedy(),
        Algorithm::BestFitDecreasing,
        Algorithm::Random,
    ] {
        let config = build(algorithm)?;
        let max_delay = (0..config.instance().num_devices())
            .map(|i| config.instance().delay(i, config.server_for(i)))
            .fold(0.0f64, f64::max);
        println!(
            "{:<22} {:>10.2} {:>10.2} {:>9} {:>9.3}",
            config.algorithm_name(),
            config.mean_delay_ms(),
            max_delay,
            config.is_feasible(),
            config.load_fairness()
        );
        lower_bound_instance.get_or_insert_with(|| config.instance().clone());
    }

    if let Some(instance) = lower_bound_instance {
        println!(
            "\ncapacity-free lower bound: {:.2} ms total ({:.2} ms/device)",
            bounds::capacity_free_bound(&instance),
            bounds::capacity_free_bound(&instance) / instance.num_devices() as f64
        );
        println!(
            "lagrangian lower bound:    {:.2} ms total",
            bounds::lagrangian_bound(&instance, 200)
        );
    }
    Ok(())
}
