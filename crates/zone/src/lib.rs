//! Sharded hierarchical assignment for million-device topologies.
//!
//! The flat delay matrix is `O(devices × servers)` memory and every
//! solver in the workspace is global; neither reaches millions of
//! devices. This crate decomposes the problem hierarchically:
//!
//! 1. **Partition** — [`ZoneLayout`] groups servers into zones (edge
//!    sites) by gateway locality using farthest-point seeding over
//!    shortest-path distances on the leaf-compressed core.
//! 2. **Route** — a top-level router assigns each device to its
//!    nearest zone with remaining capacity headroom, reading delays
//!    from the per-zone compressed summary only (one `f64` per zone
//!    per *core* node) — the flat matrix is never materialized.
//! 3. **Solve** — each zone's GAP sub-instance is solved independently
//!    and in parallel via `tacc-par` under the zone's own capacity and
//!    a proportional share of the work budget ([`split_budget`]).
//! 4. **Refine** — devices near zone borders are re-offered to their
//!    second-nearest zone; improving, capacity-respecting moves are
//!    applied serially in device order. A merge that still overloads a
//!    server is then repaired by least-delay-increase shifts and swaps
//!    onto servers with room in any zone.
//!
//! The decomposition is a **strict generalization** of the global
//! solve: with one zone, routing is the identity, there are no border
//! devices, and the pipeline runs [`dense_solve`] on exactly the
//! delay/demand/capacity data the flat path produces — the objective
//! and assignment match the global solver bit-for-bit (asserted by the
//! cross-validation tests and `exp_zone_scale`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod layout;
mod solve;

pub use layout::{RouterConfig, ZoneLayout, ZoneRouting, NO_ZONE};
pub use solve::{dense_solve, split_budget, ZoneStats, ZonedSolution, DEFAULT_ROUNDS};

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tacc_gap::Budget;
    use tacc_topology::generators::{HierarchicalTree, TopologyGenerator};
    use tacc_topology::DelayModel;

    fn small_topology() -> tacc_topology::Topology {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        HierarchicalTree::builder()
            .num_iot(60)
            .num_servers(8)
            .build()
            .unwrap()
            .generate(&mut rng)
            .unwrap()
    }

    #[test]
    fn every_server_lands_in_exactly_one_zone() {
        let topo = small_topology();
        let caps = vec![10.0; topo.num_servers()];
        let layout = ZoneLayout::build(&topo, &DelayModel::default(), &caps, 3);
        assert_eq!(layout.num_zones(), 3);
        let mut seen = vec![false; topo.num_servers()];
        for z in 0..layout.num_zones() {
            assert!(!layout.zone_servers(z).is_empty(), "zone {z} is empty");
            for &s in layout.zone_servers(z) {
                assert!(!seen[s], "server {s} in two zones");
                seen[s] = true;
                assert_eq!(layout.zone_of_server(s), z);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn zone_count_is_clamped_to_server_count() {
        let topo = small_topology();
        let caps = vec![10.0; topo.num_servers()];
        let layout = ZoneLayout::build(&topo, &DelayModel::default(), &caps, 500);
        assert_eq!(layout.num_zones(), topo.num_servers());
    }

    #[test]
    fn lower_bound_is_the_exact_zone_minimum() {
        let topo = small_topology();
        let model = DelayModel::default();
        let caps = vec![10.0; topo.num_servers()];
        let layout = ZoneLayout::build(&topo, &model, &caps, 3);
        let matrix = topo.delay_matrix(&model);
        for (i, &dev) in topo.iot_nodes().iter().enumerate() {
            for z in 0..layout.num_zones() {
                let exact = layout
                    .zone_servers(z)
                    .iter()
                    .map(|&j| matrix.get(i, j))
                    .fold(f64::INFINITY, f64::min);
                let lb = layout.lower_bound(dev, z);
                assert_eq!(
                    lb.to_bits(),
                    exact.to_bits(),
                    "device {i} zone {z}: bound {lb} vs exact {exact}"
                );
            }
        }
    }

    #[test]
    fn split_budget_sums_exactly_and_is_proportional() {
        assert_eq!(split_budget(10, &[1, 1]), vec![5, 5]);
        assert_eq!(split_budget(10, &[3, 1]), vec![8, 2]);
        assert_eq!(split_budget(7, &[1, 1, 1]), vec![3, 2, 2]);
        assert_eq!(split_budget(5, &[0, 2, 0]), vec![0, 5, 0]);
        assert_eq!(split_budget(9, &[0, 0]), vec![9, 0]);
        for (total, weights) in
            [(1000u64, vec![5usize, 0, 17, 3]), (1, vec![9, 9]), (0, vec![1, 2, 3])]
        {
            let parts = split_budget(total, &weights);
            assert_eq!(parts.iter().sum::<u64>(), total);
        }
    }

    #[test]
    fn one_zone_solve_matches_the_dense_reference_bitwise() {
        let topo = small_topology();
        let model = DelayModel::default();
        let matrix = topo.delay_matrix(&model);
        let demands: Vec<f64> = (0..topo.num_iot()).map(|i| 1.0 + (i % 4) as f64 * 0.5).collect();
        let total: f64 = demands.iter().sum();
        let caps = vec![total / (0.7 * topo.num_servers() as f64); topo.num_servers()];
        let instance = tacc_gap::GapInstance::builder(matrix)
            .device_demands(demands.clone())
            .capacities(caps.clone())
            .build()
            .unwrap();
        let global = dense_solve(&instance, 42, DEFAULT_ROUNDS);

        let layout = ZoneLayout::build(&topo, &model, &caps, 1);
        let zoned = layout.solve(topo.iot_nodes(), &demands, 42, &Budget::unlimited());
        assert_eq!(zoned.objective.to_bits(), global.objective.to_bits());
        assert_eq!(zoned.feasible, global.feasible);
        assert_eq!(zoned.refinements, 0);
        for i in 0..topo.num_iot() {
            assert_eq!(zoned.server_of_device[i] as usize, global.assignment.server_of(i).unwrap());
        }
    }

    #[test]
    fn refinement_never_worsens_the_objective() {
        let topo = small_topology();
        let model = DelayModel::default();
        let demands: Vec<f64> = (0..topo.num_iot()).map(|i| 1.0 + (i % 3) as f64 * 0.7).collect();
        let total: f64 = demands.iter().sum();
        let caps = vec![total / (0.6 * topo.num_servers() as f64); topo.num_servers()];
        let layout = ZoneLayout::build(&topo, &model, &caps, 4);
        let routing = layout.route(topo.iot_nodes(), &demands, &RouterConfig::default());
        let budgets = layout.split_rounds(&routing, &Budget::units(64));
        assert_eq!(budgets.iter().sum::<u64>(), 64);
        let refined =
            layout.solve_with(topo.iot_nodes(), &demands, &routing, &budgets, |_, inst, b| {
                dense_solve(inst, 42, b)
            });
        let unrefined_total: f64 = refined.zones.iter().map(|z| z.objective).sum();
        assert!(refined.objective <= unrefined_total + 1e-9);
        assert!(refined.feasible);
    }
}
