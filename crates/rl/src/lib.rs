//! Reinforcement-learning assignment heuristics — the primary contribution
//! of *"Topology Aware Cluster Configuration for Minimizing Communication
//! Delay in Edge Computing"* (ICDCS 2022).
//!
//! The GAP is solved episodically: an episode walks the IoT devices in a
//! fixed (topology-aware) order and picks an edge server for each. The
//! state captures the deciding device plus the *quantized residual
//! capacities* of every server; the reward is the negative communication
//! delay minus an overload penalty. Training converges to a policy whose
//! greedy rollout is a near-optimal, never-overloaded assignment.
//!
//! Five learners are provided (all implement [`tacc_gap::Solver`]). The
//! three tabular ones are one TD driver, [`TdLearner`], with a different
//! [`TdRule`] each: the driver owns the prior-seeded incumbent, the
//! budgeted episode loop, ε-greedy choice under the capacity mask and the
//! extraction rollout; a rule supplies only its value tables, greedy
//! action and TD target. LFA and the bandit keep their own value stores
//! but share the driver's ε-greedy pick, masked argmax and incumbent
//! bookkeeping.
//!
//! | Learner | Rule | State | Update | Role |
//! |---------|------|-------|--------|------|
//! | [`QLearning`] | [`QRule`] | tabular (device × residual levels) | off-policy TD(0) | the paper's headline algorithm |
//! | [`DoubleQLearning`] | [`DoubleQRule`] | two tables | double TD(0) | maximization-bias-corrected variant |
//! | [`Sarsa`] | [`SarsaRule`] | tabular | on-policy TD(0) | variant |
//! | [`LfaQLearning`] | — | topology-aware features | linear TD(0) | generalizing ablation |
//! | [`BanditAssign`] | — | none (per-device arms) | incremental mean | "does state matter?" ablation |
//!
//! # Example
//!
//! ```
//! use tacc_rl::{QLearning, QLearningConfig};
//! use tacc_gap::{GapInstance, Solver};
//! use tacc_topology::DelayMatrix;
//!
//! # fn main() -> Result<(), tacc_gap::GapError> {
//! let delays = DelayMatrix::from_rows(vec![
//!     vec![1.0, 5.0],
//!     vec![4.0, 2.0],
//!     vec![3.0, 3.0],
//! ]);
//! let instance = GapInstance::builder(delays)
//!     .uniform_demand(1.0)
//!     .capacities(vec![2.0, 1.0])
//!     .build()?;
//! let solver = QLearning::new(QLearningConfig::default(), 42);
//! let solution = solver.solve(&instance)?;
//! assert!(solution.feasible);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bandit;
mod features;
mod lfa;
mod mdp;
mod qtable;
mod report;
mod schedule;
mod trainer;

pub use bandit::{BanditAssign, BanditConfig};
pub use features::{FeatureExtractor, NUM_FEATURES};
pub use lfa::{LfaConfig, LfaQLearning};
pub use mdp::{AssignmentMdp, EpisodeOrder, StateKey};
pub use qtable::QTable;
pub use report::{EpisodePoint, TrainingReport};
pub use schedule::{EpsilonSchedule, LearningRate};
pub use trainer::{
    DoubleQLearning, DoubleQRule, QLearning, QLearningConfig, QRule, Sarsa, SarsaRule, TdLearner,
    TdRule,
};

/// Declares one `#[test]` per `name => check(args);` row, running
/// `trainer::checks::check::<rule>(args)`.
#[cfg(test)]
macro_rules! rule_tests {
    ($rule:ty; $($name:ident => $check:ident($($arg:expr),*);)+) => {
        $(
            #[test]
            fn $name() {
                crate::trainer::checks::$check::<$rule>($($arg),*);
            }
        )+
    };
}

// Each tabular learner's unit tests: one row per check from
// `trainer::checks`, with the learner's own episode counts and seeds.

#[cfg(test)]
mod qlearning {
    mod tests {
        use crate::trainer::checks::{contended_instance, never_loses_to_greedy};
        use crate::{QLearning, QLearningConfig, QRule};

        rule_tests! { QRule;
            reaches_the_optimum_on_a_small_trap => reaches_the_optimum_on_a_small_trap(800, 7);
            deterministic_in_seed => deterministic_in_seed(200, 3);
            rewards_improve_over_training => rewards_improve_over_training(600, 11);
            masking_keeps_assignments_feasible => masking_keeps_assignments_feasible(100, 5);
            works_without_masking_too => works_without_masking_too(1500, 9);
            prior_can_be_disabled_for_ablation => prior_can_be_disabled_for_ablation(800, 7);
            history_length_matches_episodes => history_length_matches_episodes(123, 0);
            anytime_incumbent_is_feasible_and_monotone_in_budget =>
                anytime_is_feasible_and_monotone_in_budget(800, 7, &[0, 1, 5, 20, 100, 800]);
            unlimited_budget_matches_plain_solve => unlimited_budget_matches_plain_solve(200, 3);
        }

        #[test]
        fn delay_prior_never_loses_to_greedy() {
            for seed in 0..6 {
                never_loses_to_greedy::<QRule>(&contended_instance(seed, 12, 20.0, 5.0), 300, seed);
            }
        }

        #[test]
        #[should_panic(expected = "gamma")]
        fn invalid_gamma_panics() {
            let _ = QLearning::new(QLearningConfig { gamma: 0.0, ..Default::default() }, 0);
        }
    }
}

#[cfg(test)]
mod double_q {
    mod tests {
        use crate::trainer::checks::{contended_instance, never_loses_to_greedy};
        use crate::DoubleQRule;

        rule_tests! { DoubleQRule;
            reaches_the_optimum_on_a_small_trap => reaches_the_optimum_on_a_small_trap(800, 7);
            deterministic_in_seed => deterministic_in_seed(200, 3);
            rewards_improve_over_training => rewards_improve_over_training(600, 11);
            masking_keeps_assignments_feasible => masking_keeps_assignments_feasible(100, 5);
            works_without_masking_too => works_without_masking_too(1500, 9);
            prior_can_be_disabled_for_ablation => prior_can_be_disabled_for_ablation(800, 7);
            produces_history_and_states => history_length_matches_episodes(120, 1);
            anytime_budget_truncates_and_stays_feasible =>
                anytime_is_feasible_and_monotone_in_budget(200, 3, &[0, 1, 25, 200]);
            unlimited_budget_matches_plain_solve => unlimited_budget_matches_plain_solve(200, 3);
        }

        #[test]
        fn never_loses_to_greedy_with_prior() {
            for seed in 0..4 {
                let inst = contended_instance(seed + 50, 10, 15.0, 4.0);
                never_loses_to_greedy::<DoubleQRule>(&inst, 300, seed);
            }
        }
    }
}

#[cfg(test)]
mod sarsa {
    mod tests {
        use crate::trainer::checks::{contended_instance, never_loses_to_greedy};
        use crate::SarsaRule;

        rule_tests! { SarsaRule;
            reaches_the_optimum_on_a_small_trap => reaches_the_optimum_on_a_small_trap(800, 5);
            deterministic_in_seed => deterministic_in_seed(150, 2);
            rewards_improve_over_training => rewards_improve_over_training(600, 11);
            masking_keeps_assignments_feasible => masking_keeps_assignments_feasible(100, 5);
            works_without_masking_too => works_without_masking_too(1500, 9);
            prior_can_be_disabled_for_ablation => prior_can_be_disabled_for_ablation(800, 7);
            produces_training_history => history_length_matches_episodes(100, 1);
            anytime_budget_truncates_and_stays_feasible =>
                anytime_is_feasible_and_monotone_in_budget(150, 2, &[0, 1, 10, 150]);
            unlimited_budget_matches_plain_solve => unlimited_budget_matches_plain_solve(200, 3);
        }

        #[test]
        fn delay_prior_never_loses_to_greedy() {
            for seed in 0..6 {
                never_loses_to_greedy::<SarsaRule>(
                    &contended_instance(seed, 12, 20.0, 5.0),
                    300,
                    seed,
                );
            }
        }
    }
}
