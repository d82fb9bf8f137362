use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tacc_gap::{Assignment, GapError, GapInstance, Solution, SolveStats, Solver};

use crate::trainer::{masked_argmax, masked_max, pick, Incumbent};
use crate::{
    AssignmentMdp, EpisodeOrder, EpsilonSchedule, FeatureExtractor, TrainingReport, NUM_FEATURES,
};

/// Hyper-parameters of [`LfaQLearning`].
#[derive(Debug, Clone, PartialEq)]
pub struct LfaConfig {
    /// Training episodes.
    pub episodes: usize,
    /// Discount factor.
    pub gamma: f64,
    /// Constant TD step size for the weight vector.
    pub alpha: f64,
    /// Exploration schedule.
    pub epsilon: EpsilonSchedule,
    /// Penalty λ per unit of capacity overload in the reward.
    pub overload_penalty: f64,
    /// Device visiting order.
    pub order: EpisodeOrder,
    /// Restrict action choice to fitting servers when possible.
    pub action_masking: bool,
}

impl Default for LfaConfig {
    /// 2000 episodes, γ = 1, α = 0.01, default ε schedule, λ = 100.
    fn default() -> Self {
        LfaConfig {
            episodes: 2000,
            gamma: 1.0,
            alpha: 0.01,
            epsilon: EpsilonSchedule::default(),
            overload_penalty: 100.0,
            order: EpisodeOrder::default(),
            action_masking: true,
        }
    }
}

impl LfaConfig {
    fn validate(&self) {
        assert!(self.episodes > 0, "need at least one episode");
        assert!(
            self.gamma > 0.0 && self.gamma <= 1.0,
            "gamma must be in (0, 1], got {}",
            self.gamma
        );
        assert!(self.alpha > 0.0 && self.alpha <= 1.0, "alpha must be in (0, 1]");
        assert!(self.overload_penalty >= 0.0, "penalty must be non-negative");
    }
}

/// Q-learning with linear function approximation over the topology-aware
/// features of [`FeatureExtractor`].
///
/// `Q(s, a) = θ · φ(s, a)` with semi-gradient TD(0) updates. Compared to
/// tabular [`crate::QLearning`] the value function has only
/// [`NUM_FEATURES`] parameters, so it generalizes across devices and
/// scales to instances whose tabular state space would be enormous — at
/// the cost of approximation bias. This is the "topology-aware features"
/// arm of the E11 ablation.
#[derive(Debug, Clone)]
pub struct LfaQLearning {
    config: LfaConfig,
    seed: u64,
}

impl LfaQLearning {
    /// Creates an LFA Q-learning solver.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (see [`LfaConfig`]).
    pub fn new(config: LfaConfig, seed: u64) -> Self {
        config.validate();
        LfaQLearning { config, seed }
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
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        // Residual levels are irrelevant for LFA (features read the exact
        // residuals); pass the minimum legal quantization.
        let mut mdp = AssignmentMdp::new(instance, cfg.order, 2, cfg.overload_penalty);
        let m = mdp.num_actions();
        let fx = FeatureExtractor::new(instance);
        let mut theta = [0.0f64; NUM_FEATURES];
        let masking = cfg.action_masking;
        let mut incumbent = Incumbent::new(cfg.episodes);
        // Scratch buffers reused across every step of every episode: the
        // per-action feature vectors of the current and successor states,
        // and the episode's assignment (fully overwritten each episode).
        let mut phi_by_action: Vec<[f64; NUM_FEATURES]> = Vec::with_capacity(m);
        let mut phi_next: Vec<[f64; NUM_FEATURES]> = Vec::with_capacity(m);
        let mut assignment = Assignment::unassigned(instance.num_devices(), m);

        for episode in 0..cfg.episodes {
            let epsilon = cfg.epsilon.at(episode);
            mdp.reset();
            let mut episode_return = 0.0;

            // The successor features extracted for step k's TD target are
            // exactly step k+1's decision features (nothing about the
            // state changes in between), so carry them over instead of
            // re-extracting — this halves the extractor work per episode.
            let mut carried = false;
            while !mdp.is_done() {
                let device = mdp.current_device();
                if carried {
                    std::mem::swap(&mut phi_by_action, &mut phi_next);
                    carried = false;
                } else {
                    phi_by_action.clear();
                    phi_by_action.extend((0..m).map(|j| fx.extract(&mdp, j)));
                }
                let action = pick(&mdp, masking, epsilon, &mut rng, || {
                    masked_argmax(&mdp, masking, |j| dot(&theta, &phi_by_action[j]))
                });
                let phi = phi_by_action[action];
                let q_sa = dot(&theta, &phi);
                let reward = mdp.apply(action);
                assignment.assign(device, action)?;
                episode_return += reward;

                let target = if mdp.is_done() {
                    reward
                } else {
                    // Extract the successor features once; the next
                    // iteration inherits them wholesale.
                    phi_next.clear();
                    phi_next.extend((0..m).map(|j| fx.extract(&mdp, j)));
                    carried = true;
                    reward + cfg.gamma * masked_max(&mdp, masking, |j| dot(&theta, &phi_next[j]))
                };
                let delta = target - q_sa;
                for (t, p) in theta.iter_mut().zip(phi.iter()) {
                    *t += cfg.alpha * delta * p;
                }
            }

            incumbent.record(&assignment, instance, episode, episode_return, epsilon)?;
        }

        // Greedy extraction; without a budget, training always completes.
        let (assignment, history, evaluations) = incumbent.finish(instance, true, || {
            mdp.reset();
            let mut rollout = Assignment::unassigned(instance.num_devices(), m);
            while !mdp.is_done() {
                phi_by_action.clear();
                phi_by_action.extend((0..m).map(|j| fx.extract(&mdp, j)));
                let action = masked_argmax(&mdp, masking, |j| dot(&theta, &phi_by_action[j]));
                let device = mdp.current_device();
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

fn dot(a: &[f64; NUM_FEATURES], b: &[f64; NUM_FEATURES]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

impl Solver for LfaQLearning {
    fn solve(&self, instance: &GapInstance) -> Result<Solution, GapError> {
        Ok(self.train(instance)?.0)
    }

    fn name(&self) -> &str {
        "lfa-q-learning"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacc_topology::DelayMatrix;

    fn instance() -> GapInstance {
        let delays = DelayMatrix::from_rows(vec![
            vec![1.0, 6.0],
            vec![2.0, 3.0],
            vec![5.0, 1.0],
            vec![4.0, 2.0],
        ]);
        GapInstance::builder(delays).uniform_demand(1.0).capacities(vec![2.0, 2.0]).build().unwrap()
    }

    fn quick(episodes: usize) -> LfaConfig {
        LfaConfig {
            episodes,
            epsilon: EpsilonSchedule::new(1.0, 0.05, 0.98),
            ..LfaConfig::default()
        }
    }

    #[test]
    fn finds_feasible_low_delay_assignment() {
        let inst = instance();
        let s = LfaQLearning::new(quick(500), 3).solve(&inst).unwrap();
        assert!(s.feasible);
        // Optimum is 1+2+1+2 = 6; LFA should land at or near it.
        assert!(s.objective <= 8.0, "LFA objective {} too far from optimum 6", s.objective);
    }

    #[test]
    fn deterministic_in_seed() {
        let inst = instance();
        let a = LfaQLearning::new(quick(100), 1).solve(&inst).unwrap();
        let b = LfaQLearning::new(quick(100), 1).solve(&inst).unwrap();
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    fn report_has_no_tabular_states() {
        let inst = instance();
        let (_, report) = LfaQLearning::new(quick(50), 0).train(&inst).unwrap();
        assert_eq!(report.num_states(), 0);
        assert_eq!(report.history().len(), 50);
    }
}
