//! Classical GAP heuristics — the "state of the art" the paper's RL
//! approach is compared against.
//!
//! Every solver implements [`tacc_gap::Solver`] and is fully deterministic
//! given its configuration (randomized algorithms carry an explicit seed).
//! The line-up covers the standard families from the GAP literature:
//!
//! | Solver | Family | Notes |
//! |--------|--------|-------|
//! | [`Greedy`] | constructive | cheapest fitting server, several device orderings |
//! | [`BestFitDecreasing`] | constructive | load-oriented bin-packing heuristic |
//! | [`MartelloToth`] | constructive + improvement | max-regret desirability with a shift pass |
//! | [`LocalSearch`] | improvement | shift + swap descent from a greedy start; anytime as a device sweep |
//! | [`SimulatedAnnealing`] | metaheuristic | penalized objective, geometric cooling |
//! | [`TabuSearch`] | metaheuristic | shift moves with tabu tenure + aspiration |
//! | [`Genetic`] | metaheuristic | tournament GA with repair |
//! | [`RandomAssign`] / [`RoundRobin`] | control | sanity floors for every experiment |
//!
//! # Example
//!
//! ```
//! use tacc_baselines::{Greedy, DeviceOrder};
//! use tacc_gap::{GapInstance, Solver};
//! use tacc_topology::DelayMatrix;
//!
//! # fn main() -> Result<(), tacc_gap::GapError> {
//! let delays = DelayMatrix::from_rows(vec![vec![1.0, 4.0], vec![2.0, 3.0]]);
//! let instance = GapInstance::builder(delays)
//!     .uniform_demand(1.0)
//!     .capacities(vec![1.0, 1.0])
//!     .build()?;
//! let solution = Greedy::new(DeviceOrder::RegretDescending).solve(&instance)?;
//! assert!(solution.feasible);
//! # Ok(())
//! # }
//! ```

// Indexed loops over parallel arrays (delays/demands/loads) are the
// clearest way to write these numeric kernels.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod best_fit;
mod common;
mod genetic;
mod greedy;
mod lagrangian;
mod local_search;
mod martello_toth;
mod nearest;
mod random;
mod simulated_annealing;
mod tabu;

pub use best_fit::BestFitDecreasing;
pub use genetic::{Genetic, GeneticConfig};
pub use greedy::{DeviceOrder, Greedy};
pub use lagrangian::LagrangianHeuristic;
pub use local_search::{LocalSearch, Neighborhood};
pub use martello_toth::{Desirability, MartelloToth};
pub use nearest::NearestServer;
pub use random::{RandomAssign, RoundRobin};
pub use simulated_annealing::{AnnealingSchedule, SimulatedAnnealing};
pub use tabu::TabuSearch;

use tacc_gap::Solver;

/// The standard comparator line-up used across all experiments: one
/// representative per heuristic family, with a shared `seed` for the
/// randomized members.
pub fn standard_lineup(seed: u64) -> Vec<Box<dyn Solver>> {
    vec![
        Box::new(RandomAssign::new(seed)),
        Box::new(RoundRobin::new()),
        Box::new(Greedy::new(DeviceOrder::RegretDescending)),
        Box::new(BestFitDecreasing::new()),
        Box::new(MartelloToth::new(Desirability::DelayRegret)),
        Box::new(LocalSearch::new(seed)),
        Box::new(SimulatedAnnealing::new(seed)),
        Box::new(TabuSearch::new(seed)),
        Box::new(Genetic::new(GeneticConfig::default(), seed)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacc_gap::GapInstance;
    use tacc_topology::DelayMatrix;

    #[test]
    fn standard_lineup_has_unique_names_and_solves() {
        let delays = DelayMatrix::from_rows(vec![
            vec![1.0, 4.0, 6.0],
            vec![2.0, 3.0, 5.0],
            vec![6.0, 2.0, 1.0],
            vec![3.0, 3.0, 3.0],
        ]);
        let inst =
            GapInstance::builder(delays).uniform_demand(1.0).uniform_capacity(2.0).build().unwrap();
        let lineup = standard_lineup(7);
        let mut names: Vec<String> = lineup.iter().map(|s| s.name().to_owned()).collect();
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate solver names");
        for solver in &lineup {
            let s = solver.solve(&inst).unwrap_or_else(|e| panic!("{}: {e}", solver.name()));
            assert!(s.assignment.is_complete(), "{} returned partial", solver.name());
        }
    }
}
