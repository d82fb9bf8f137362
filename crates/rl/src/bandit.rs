use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tacc_gap::{Assignment, GapError, GapInstance, Solution, SolveStats, Solver};

use crate::trainer::{masked_argmax, pick, Incumbent};
use crate::{AssignmentMdp, EpisodeOrder, EpsilonSchedule, TrainingReport};

/// Hyper-parameters of [`BanditAssign`].
#[derive(Debug, Clone, PartialEq)]
pub struct BanditConfig {
    /// Training episodes.
    pub episodes: usize,
    /// Exploration schedule.
    pub epsilon: EpsilonSchedule,
    /// Penalty λ per unit of capacity overload in the reward.
    pub overload_penalty: f64,
    /// Device visiting order.
    pub order: EpisodeOrder,
}

impl Default for BanditConfig {
    /// 2000 episodes, default ε schedule, λ = 100.
    fn default() -> Self {
        BanditConfig {
            episodes: 2000,
            epsilon: EpsilonSchedule::default(),
            overload_penalty: 100.0,
            order: EpisodeOrder::default(),
        }
    }
}

impl BanditConfig {
    fn validate(&self) {
        assert!(self.episodes > 0, "need at least one episode");
        assert!(self.overload_penalty >= 0.0, "penalty must be non-negative");
    }
}

/// Stateless per-device ε-greedy bandit — the "no MDP state" ablation arm.
///
/// Each device keeps an incremental-mean value per server, updated with
/// the same reward signal as [`crate::QLearning`] but *without* observing
/// residual capacities. Because rewards depend on what other devices chose
/// (overload is shared), the arms are non-stationary and the bandit
/// systematically underperforms state-conditioned learners under capacity
/// pressure — which is precisely what experiment E11 measures.
#[derive(Debug, Clone)]
pub struct BanditAssign {
    config: BanditConfig,
    seed: u64,
}

impl BanditAssign {
    /// Creates a bandit assigner.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (see [`BanditConfig`]).
    pub fn new(config: BanditConfig, seed: u64) -> Self {
        config.validate();
        BanditAssign { config, seed }
    }

    /// Trains on `instance`, returning the best solution and convergence
    /// record.
    ///
    /// # Errors
    ///
    /// Propagates [`GapError`] from assignment bookkeeping; never fails on
    /// a valid instance.
    pub fn train(&self, instance: &GapInstance) -> Result<(Solution, TrainingReport), GapError> {
        let start = Instant::now();
        let cfg = &self.config;
        let n = instance.num_devices();
        let m = instance.num_servers();
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut mdp = AssignmentMdp::new(instance, cfg.order, 2, cfg.overload_penalty);

        let mut values = vec![vec![0.0f64; m]; n];
        let mut counts = vec![vec![0u32; m]; n];
        let mut incumbent = Incumbent::new(cfg.episodes);
        // Every episode assigns every device, fully overwriting the last.
        let mut assignment = Assignment::unassigned(n, m);

        for episode in 0..cfg.episodes {
            let epsilon = cfg.epsilon.at(episode);
            mdp.reset();
            let mut episode_return = 0.0;

            while !mdp.is_done() {
                let device = mdp.current_device();
                let action = pick(&mdp, false, epsilon, &mut rng, || {
                    masked_argmax(&mdp, false, |j| values[device][j])
                });
                let reward = mdp.apply(action);
                assignment.assign(device, action)?;
                episode_return += reward;
                counts[device][action] += 1;
                let k = f64::from(counts[device][action]);
                values[device][action] += (reward - values[device][action]) / k;
            }
            incumbent.record(&assignment, instance, episode, episode_return, epsilon)?;
        }

        // Greedy extraction from the arm means.
        let (assignment, history, evaluations) = incumbent.finish(instance, true, || {
            let mut rollout = Assignment::unassigned(n, m);
            mdp.reset();
            while !mdp.is_done() {
                let device = mdp.current_device();
                let action = masked_argmax(&mdp, false, |j| values[device][j]);
                mdp.apply(action);
                rollout.assign(device, action)?;
            }
            Ok(rollout)
        })?;
        let stats =
            SolveStats { elapsed: start.elapsed(), iterations: cfg.episodes as u64, evaluations };
        Ok((Solution::evaluate(assignment, instance, stats)?, TrainingReport::new(history, 0)))
    }
}

impl Solver for BanditAssign {
    fn solve(&self, instance: &GapInstance) -> Result<Solution, GapError> {
        Ok(self.train(instance)?.0)
    }

    fn name(&self) -> &str {
        "bandit"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacc_topology::DelayMatrix;

    fn easy_instance() -> GapInstance {
        // Loose capacity: the bandit should learn each device's favourite.
        let delays = DelayMatrix::from_rows(vec![vec![1.0, 5.0], vec![6.0, 2.0]]);
        GapInstance::builder(delays).uniform_demand(1.0).uniform_capacity(5.0).build().unwrap()
    }

    #[test]
    fn learns_favourites_without_contention() {
        let inst = easy_instance();
        let cfg = BanditConfig {
            episodes: 400,
            epsilon: EpsilonSchedule::new(1.0, 0.05, 0.98),
            ..BanditConfig::default()
        };
        let s = BanditAssign::new(cfg, 1).solve(&inst).unwrap();
        assert!(s.feasible);
        assert_eq!(s.objective, 3.0);
    }

    #[test]
    fn deterministic_in_seed() {
        let inst = easy_instance();
        let a = BanditAssign::new(BanditConfig::default(), 4).solve(&inst).unwrap();
        let b = BanditAssign::new(BanditConfig::default(), 4).solve(&inst).unwrap();
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    fn tracks_best_feasible_under_contention() {
        // Tight capacity: the bandit's blind arms overload often, but the
        // best-feasible tracker must still return a feasible answer.
        let delays = DelayMatrix::from_rows(vec![vec![1.0, 2.0]; 4]);
        let inst = GapInstance::builder(delays)
            .uniform_demand(1.0)
            .capacities(vec![2.0, 2.0])
            .build()
            .unwrap();
        let s = BanditAssign::new(BanditConfig::default(), 2).solve(&inst).unwrap();
        assert!(s.feasible);
    }
}
