//! The one TD-learning driver behind [`QLearning`], [`DoubleQLearning`]
//! and [`Sarsa`], plus the ε-greedy pick, masked argmax and incumbent
//! bookkeeping that [`crate::LfaQLearning`] and [`crate::BanditAssign`]
//! share with it.
//!
//! The three tabular learners differ only in their value tables and TD
//! target, so each is a [`TdRule`] plugged into [`TdLearner`] at compile
//! time; the driver owns the episode loop and everything around it.

use std::marker::PhantomData;
use std::time::Instant;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use tacc_gap::{
    AnytimeSolver, Assignment, Budget, GapError, GapInstance, GuardReport, Solution, SolveStats,
    Solver,
};

use crate::report::EpisodePoint;
use crate::{
    AssignmentMdp, EpisodeOrder, EpsilonSchedule, LearningRate, QTable, StateKey, TrainingReport,
};

/// Hyper-parameters of the tabular TD learners ([`QLearning`],
/// [`DoubleQLearning`] and [`Sarsa`]).
#[derive(Debug, Clone, PartialEq)]
pub struct QLearningConfig {
    /// Training episodes.
    pub episodes: usize,
    /// Discount factor; 1.0 is natural for the finite-horizon episode.
    pub gamma: f64,
    /// TD step-size schedule.
    pub learning_rate: LearningRate,
    /// Exploration schedule.
    pub epsilon: EpsilonSchedule,
    /// Penalty λ per unit of capacity overload in the reward.
    pub overload_penalty: f64,
    /// Residual-capacity quantization levels of the tabular state.
    pub capacity_levels: u8,
    /// Device visiting order within an episode.
    pub order: EpisodeOrder,
    /// When `true` (the paper's design), exploration and greedy extraction
    /// only consider servers the device still fits on, falling back to all
    /// servers when nothing fits. This is what enforces "none of the edge
    /// devices are overloaded" whenever a fitting choice exists.
    pub action_masking: bool,
    /// When `true` (the paper's *topology-aware* design), newly visited
    /// states are initialized with `Q(s, a) = −d(i, a)` instead of 0, so
    /// the untrained policy already equals delay-greedy and TD updates
    /// only refine it with capacity pressure. Disable for the
    /// "delay-blind initialization" arm of the E10/E11 ablations.
    pub delay_prior: bool,
}

impl Default for QLearningConfig {
    /// 3000 episodes, γ = 1, α = 0.1, ε: 0.6 → 0.02 (decay 0.999),
    /// λ = 100 ms/unit, 4 capacity levels, regret order, masking and the
    /// delay prior on.
    fn default() -> Self {
        QLearningConfig {
            episodes: 3000,
            gamma: 1.0,
            learning_rate: LearningRate::default(),
            epsilon: EpsilonSchedule::new(0.6, 0.02, 0.999),
            overload_penalty: 100.0,
            capacity_levels: 4,
            order: EpisodeOrder::default(),
            action_masking: true,
            delay_prior: true,
        }
    }
}

impl QLearningConfig {
    fn validate(&self) {
        assert!(self.episodes > 0, "need at least one episode");
        assert!(
            self.gamma > 0.0 && self.gamma <= 1.0,
            "gamma must be in (0, 1], got {}",
            self.gamma
        );
        assert!(self.overload_penalty >= 0.0, "penalty must be non-negative");
        assert!(self.capacity_levels >= 2, "need at least 2 capacity levels");
    }
}

mod sealed {
    pub trait Sealed {}
}

/// What one tabular TD learner adds to the shared driver: its value
/// tables, its greedy action, an optional draw between steps and its TD
/// target. Sealed; [`QRule`], [`DoubleQRule`] and [`SarsaRule`] are the
/// implementations.
pub trait TdRule: sealed::Sealed + Sized + std::fmt::Debug {
    /// The learner's [`Solver::name`].
    const NAME: &'static str;

    /// Empty value tables over `num_actions` actions.
    fn new(num_actions: usize) -> Self;

    /// Initializes `state`'s row in every table with `prior()` unless the
    /// state has been seen.
    fn ensure_row(&mut self, state: StateKey, prior: impl Fn() -> Vec<f64>);

    /// The action the learned values prefer in `state`, among the
    /// servers the current device fits on when `masking` is set.
    fn greedy(&self, mdp: &AssignmentMdp<'_>, state: StateKey, masking: bool) -> usize;

    /// A random draw taken once per step, after the step is applied and
    /// before the next action is picked.
    fn draw(&mut self, _rng: &mut ChaCha8Rng) {}

    /// The value the TD target bootstraps from in the successor state
    /// `next`, where the behaviour policy has picked `next_action`.
    fn bootstrap(
        &self,
        mdp: &AssignmentMdp<'_>,
        next: StateKey,
        next_action: usize,
        masking: bool,
    ) -> f64;

    /// Moves the value of `(state, action)` toward `target`.
    fn update(&mut self, state: StateKey, action: usize, rate: &LearningRate, target: f64);

    /// Distinct states in the value store.
    fn num_states(&self) -> usize;
}

/// Off-policy TD(0): bootstraps from `max_a Q(s′, a)` over the servers
/// the greedy policy may pick in `s′`.
#[derive(Debug, Clone)]
pub struct QRule {
    q: QTable,
}

/// Double Q-learning (van Hasselt, 2010): two tables, a coin per step
/// choosing which one to update, and a target that evaluates the updated
/// table's masked argmax in the other,
/// `r + γ · Q_B(s′, argmax_a Q_A(s′, a))`. Actions follow `Q_A + Q_B`.
#[derive(Debug, Clone)]
pub struct DoubleQRule {
    a: QTable,
    b: QTable,
    update_a: bool,
}

/// On-policy SARSA: bootstraps from the action the ε-greedy behaviour
/// policy actually takes next, `r + γ · Q(s′, a′)`.
#[derive(Debug, Clone)]
pub struct SarsaRule {
    q: QTable,
}

impl sealed::Sealed for QRule {}
impl sealed::Sealed for DoubleQRule {}
impl sealed::Sealed for SarsaRule {}

impl TdRule for QRule {
    const NAME: &'static str = "q-learning";

    fn new(num_actions: usize) -> Self {
        QRule { q: QTable::new(num_actions) }
    }

    fn ensure_row(&mut self, state: StateKey, prior: impl Fn() -> Vec<f64>) {
        self.q.ensure_row(state, prior);
    }

    fn greedy(&self, mdp: &AssignmentMdp<'_>, state: StateKey, masking: bool) -> usize {
        let row = self.q.row_ref(state);
        masked_argmax(mdp, masking, |j| row[j])
    }

    fn bootstrap(&self, mdp: &AssignmentMdp<'_>, next: StateKey, _: usize, masking: bool) -> f64 {
        let row = self.q.row_ref(next);
        masked_max(mdp, masking, |j| row[j])
    }

    fn update(&mut self, state: StateKey, action: usize, rate: &LearningRate, target: f64) {
        self.q.update_with(state, action, |v| rate.at(v), target);
    }

    fn num_states(&self) -> usize {
        self.q.num_states()
    }
}

impl TdRule for DoubleQRule {
    const NAME: &'static str = "double-q-learning";

    fn new(num_actions: usize) -> Self {
        DoubleQRule { a: QTable::new(num_actions), b: QTable::new(num_actions), update_a: false }
    }

    fn ensure_row(&mut self, state: StateKey, prior: impl Fn() -> Vec<f64>) {
        self.a.ensure_row(state, &prior);
        self.b.ensure_row(state, &prior);
    }

    fn greedy(&self, mdp: &AssignmentMdp<'_>, state: StateKey, masking: bool) -> usize {
        let (a, b) = (self.a.row_ref(state), self.b.row_ref(state));
        masked_argmax(mdp, masking, |j| a[j] + b[j])
    }

    fn draw(&mut self, rng: &mut ChaCha8Rng) {
        self.update_a = rng.random_bool(0.5);
    }

    fn bootstrap(&self, mdp: &AssignmentMdp<'_>, next: StateKey, _: usize, masking: bool) -> f64 {
        let (own, other) = if self.update_a { (&self.a, &self.b) } else { (&self.b, &self.a) };
        let row = own.row_ref(next);
        other.get(next, masked_argmax(mdp, masking, |j| row[j]))
    }

    fn update(&mut self, state: StateKey, action: usize, rate: &LearningRate, target: f64) {
        let table = if self.update_a { &mut self.a } else { &mut self.b };
        table.update_with(state, action, |v| rate.at(v), target);
    }

    fn num_states(&self) -> usize {
        self.a.num_states().max(self.b.num_states())
    }
}

impl TdRule for SarsaRule {
    const NAME: &'static str = "sarsa";

    fn new(num_actions: usize) -> Self {
        SarsaRule { q: QTable::new(num_actions) }
    }

    fn ensure_row(&mut self, state: StateKey, prior: impl Fn() -> Vec<f64>) {
        self.q.ensure_row(state, prior);
    }

    fn greedy(&self, mdp: &AssignmentMdp<'_>, state: StateKey, masking: bool) -> usize {
        let row = self.q.row_ref(state);
        masked_argmax(mdp, masking, |j| row[j])
    }

    fn bootstrap(&self, _: &AssignmentMdp<'_>, next: StateKey, next_action: usize, _: bool) -> f64 {
        self.q.get(next, next_action)
    }

    fn update(&mut self, state: StateKey, action: usize, rate: &LearningRate, target: f64) {
        self.q.update_with(state, action, |v| rate.at(v), target);
    }

    fn num_states(&self) -> usize {
        self.q.num_states()
    }
}

/// Tabular TD learning over the sequential-assignment MDP, with the TD
/// target of the rule `R`.
///
/// Each episode assigns every device once; TD(0) updates propagate the
/// end-of-episode capacity pressure back to early decisions, which is
/// exactly what one-shot greedy heuristics cannot do. The best feasible
/// assignment observed during training (or, if better, the final greedy
/// rollout) is returned.
#[derive(Debug, Clone)]
pub struct TdLearner<R> {
    config: QLearningConfig,
    seed: u64,
    rule: PhantomData<fn() -> R>,
}

/// Tabular Q-learning — the paper's headline RL heuristic.
pub type QLearning = TdLearner<QRule>;

/// Double Q-learning, the maximization-bias-corrected variant. With
/// stochastic demands and coarse residual quantization several actions
/// look spuriously good early; evaluating one table's argmax in the other
/// removes that bias. Shares [`QLearningConfig`] with [`QLearning`], so
/// the two are directly comparable in the sensitivity experiment.
pub type DoubleQLearning = TdLearner<DoubleQRule>;

/// On-policy SARSA. On this problem it typically converges to the same
/// assignments as Q-learning, slightly more conservatively near capacity
/// boundaries; it is included as the paper's "RL heuristics" plural and
/// as a robustness check.
pub type Sarsa = TdLearner<SarsaRule>;

impl<R: TdRule> TdLearner<R> {
    /// Creates a learner.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (see
    /// [`QLearningConfig`]).
    pub fn new(config: QLearningConfig, seed: u64) -> Self {
        config.validate();
        TdLearner { config, seed, rule: PhantomData }
    }

    /// The configuration in use.
    pub fn config(&self) -> &QLearningConfig {
        &self.config
    }

    /// Trains on `instance` and returns the best solution together with
    /// the convergence record (experiment E4 consumes the report).
    ///
    /// # Errors
    ///
    /// Propagates [`GapError`] from assignment bookkeeping; never fails on
    /// a valid instance.
    pub fn train(&self, instance: &GapInstance) -> Result<(Solution, TrainingReport), GapError> {
        let (solution, report, _) = self.train_within(instance, &Budget::unlimited())?;
        Ok((solution, report))
    }

    /// Budget-aware training: runs at most `budget` episodes and returns
    /// the feasible incumbent reached so far.
    ///
    /// The incumbent is seeded with the prior's greedy rollout *before*
    /// the first episode, so even a zero-episode budget yields a feasible
    /// assignment whenever the constructive baseline finds one, and each
    /// additional episode can only improve it (truncated runs are RNG
    /// prefixes of the full run). The ε = 0 extraction rollout only runs
    /// when the configured episode count completed inside the budget —
    /// its result is not monotone in training length, and skipping it on
    /// truncation is what makes quality monotone non-worsening in budget.
    ///
    /// # Errors
    ///
    /// Propagates [`GapError`] from assignment bookkeeping; never fails
    /// because the budget ran out.
    pub fn train_within(
        &self,
        instance: &GapInstance,
        budget: &Budget,
    ) -> Result<(Solution, TrainingReport, GuardReport), GapError> {
        let _span = tacc_obs::span!("rl.train");
        let start = Instant::now();
        let cfg = &self.config;
        let masking = cfg.action_masking;
        let mut meter = budget.meter();
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut mdp =
            AssignmentMdp::new(instance, cfg.order, cfg.capacity_levels, cfg.overload_penalty);
        let mut rule = R::new(mdp.num_actions());
        let mut incumbent = Incumbent::new(cfg.episodes);

        // With the delay prior the seed rollout is exactly masked
        // delay-greedy, so training can only improve on it.
        let seed_rollout = self.rollout(instance, &mut mdp, &mut rule)?;
        incumbent.offer(&seed_rollout, instance)?;

        // One assignment buffer for the whole run: every episode assigns
        // every device, fully overwriting the previous episode.
        let mut assignment = Assignment::unassigned(instance.num_devices(), mdp.num_actions());
        let mut episodes_run = 0usize;
        for episode in 0..cfg.episodes {
            if !meter.take() {
                break;
            }
            let _span = tacc_obs::span!("rl.episode");
            let epsilon = cfg.epsilon.at(episode);
            mdp.reset();
            let mut episode_return = 0.0;
            let mut state = mdp.state_key();
            self.prime(instance, &mdp, &mut rule, state);
            let mut action =
                pick(&mdp, masking, epsilon, &mut rng, || rule.greedy(&mdp, state, masking));
            loop {
                let device = mdp.current_device();
                let reward = mdp.apply(action);
                assignment.assign(device, action)?;
                episode_return += reward;
                rule.draw(&mut rng);
                if mdp.is_done() {
                    rule.update(state, action, &cfg.learning_rate, reward);
                    break;
                }
                // The successor state is the next decision state, so each
                // state is hashed once. a′ is picked before the update,
                // which only touches the row of `state`.
                let next = mdp.state_key();
                self.prime(instance, &mdp, &mut rule, next);
                let next_action =
                    pick(&mdp, masking, epsilon, &mut rng, || rule.greedy(&mdp, next, masking));
                let target = reward + cfg.gamma * rule.bootstrap(&mdp, next, next_action, masking);
                rule.update(state, action, &cfg.learning_rate, target);
                state = next;
                action = next_action;
            }
            incumbent.record(&assignment, instance, episode, episode_return, epsilon)?;
            episodes_run += 1;
        }
        let completed = episodes_run == cfg.episodes;

        let (assignment, history, evaluations) = incumbent
            .finish(instance, completed, || self.rollout(instance, &mut mdp, &mut rule))?;
        let stats =
            SolveStats { elapsed: start.elapsed(), iterations: episodes_run as u64, evaluations };
        let report = TrainingReport::new(history, rule.num_states());
        let solution = Solution::evaluate(assignment, instance, stats)?;
        let guard = GuardReport::for_run(R::NAME, &solution, &meter, budget, completed);
        Ok((solution, report, guard))
    }

    /// Seeds an unseen `state` with the delay prior when it is enabled.
    fn prime(
        &self,
        instance: &GapInstance,
        mdp: &AssignmentMdp<'_>,
        rule: &mut R,
        state: StateKey,
    ) {
        if self.config.delay_prior {
            let device = mdp.current_device();
            rule.ensure_row(state, || instance.delay_row(device).iter().map(|d| -d).collect());
        }
    }

    /// One ε = 0 rollout of the current values.
    fn rollout(
        &self,
        instance: &GapInstance,
        mdp: &mut AssignmentMdp<'_>,
        rule: &mut R,
    ) -> Result<Assignment, GapError> {
        let _span = tacc_obs::span!("rl.rollout");
        mdp.reset();
        let mut rollout = Assignment::unassigned(instance.num_devices(), mdp.num_actions());
        while !mdp.is_done() {
            let state = mdp.state_key();
            self.prime(instance, mdp, rule, state);
            let device = mdp.current_device();
            let action = rule.greedy(mdp, state, self.config.action_masking);
            mdp.apply(action);
            rollout.assign(device, action)?;
        }
        Ok(rollout)
    }
}

impl<R: TdRule> Solver for TdLearner<R> {
    fn solve(&self, instance: &GapInstance) -> Result<Solution, GapError> {
        Ok(self.train(instance)?.0)
    }

    fn name(&self) -> &str {
        R::NAME
    }
}

impl<R: TdRule> AnytimeSolver for TdLearner<R> {
    fn solve_within(
        &self,
        instance: &GapInstance,
        budget: &Budget,
    ) -> Result<(Solution, GuardReport), GapError> {
        let (solution, _, guard) = self.train_within(instance, budget)?;
        Ok((solution, guard))
    }
}

/// ε-greedy choice under the capacity mask: with probability ε a
/// uniformly random fitting server (any server when masking is off or
/// nothing fits), otherwise `greedy()`. Draws nothing at ε = 0.
pub(crate) fn pick(
    mdp: &AssignmentMdp<'_>,
    masking: bool,
    epsilon: f64,
    rng: &mut ChaCha8Rng,
    greedy: impl FnOnce() -> usize,
) -> usize {
    if epsilon > 0.0 && rng.random::<f64>() < epsilon {
        if masking {
            if let Some(j) = random_fitting(mdp, rng) {
                return j;
            }
        }
        return rng.random_range(0..mdp.num_actions());
    }
    greedy()
}

/// A uniformly random fitting server, without materializing the fitting
/// set. Consumes exactly one `random_range(0..count)` draw — the same
/// stream shape as indexing into a collected `Vec`.
fn random_fitting(mdp: &AssignmentMdp<'_>, rng: &mut ChaCha8Rng) -> Option<usize> {
    let m = mdp.num_actions();
    let count = (0..m).filter(|&j| mdp.action_fits(j)).count();
    if count == 0 {
        return None;
    }
    let k = rng.random_range(0..count);
    (0..m).filter(|&j| mdp.action_fits(j)).nth(k)
}

/// The server with the highest `value` among those the current device
/// fits on — among all servers when masking is off or nothing fits. Ties
/// go to the lowest index, so extraction is deterministic.
pub(crate) fn masked_argmax(
    mdp: &AssignmentMdp<'_>,
    masking: bool,
    value: impl Fn(usize) -> f64,
) -> usize {
    let m = mdp.num_actions();
    let fitting =
        if masking { argmax((0..m).filter(|&j| mdp.action_fits(j)), &value) } else { None };
    fitting.or_else(|| argmax(0..m, &value)).expect("at least one action")
}

fn argmax(actions: impl Iterator<Item = usize>, value: impl Fn(usize) -> f64) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for j in actions {
        let v = value(j);
        if best.map_or(true, |(_, b)| v > b) {
            best = Some((j, v));
        }
    }
    best.map(|(j, _)| j)
}

/// `max_a value(a)` over the servers the current device fits on, matching
/// what the greedy policy may do there; over all servers when masking is
/// off or the masked maximum is not finite.
pub(crate) fn masked_max(
    mdp: &AssignmentMdp<'_>,
    masking: bool,
    value: impl Fn(usize) -> f64,
) -> f64 {
    let m = mdp.num_actions();
    if masking {
        let masked =
            (0..m).filter(|&j| mdp.action_fits(j)).map(&value).fold(f64::NEG_INFINITY, f64::max);
        if masked.is_finite() {
            return masked;
        }
    }
    (0..m).map(value).fold(f64::NEG_INFINITY, f64::max)
}

/// The best feasible assignment seen so far, the per-episode history and
/// the count of full evaluations — the bookkeeping every learner shares.
#[derive(Debug)]
pub(crate) struct Incumbent {
    best: Option<(Assignment, f64)>,
    history: Vec<EpisodePoint>,
    evaluations: u64,
}

impl Incumbent {
    pub(crate) fn new(episodes: usize) -> Self {
        Incumbent { best: None, history: Vec::with_capacity(episodes), evaluations: 0 }
    }

    /// Evaluates a complete assignment and keeps a copy when it is
    /// feasible and strictly better than the incumbent; returns whether it
    /// was kept.
    fn offer(&mut self, assignment: &Assignment, instance: &GapInstance) -> Result<bool, GapError> {
        self.evaluations += 1;
        if assignment.is_feasible(instance) {
            let delay = assignment.total_delay(instance)?;
            if self.best.as_ref().map_or(true, |(_, b)| delay < *b) {
                self.best = Some((assignment.clone(), delay));
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Closes an episode: offers its assignment and appends its point to
    /// the history.
    pub(crate) fn record(
        &mut self,
        assignment: &Assignment,
        instance: &GapInstance,
        episode: usize,
        reward: f64,
        epsilon: f64,
    ) -> Result<(), GapError> {
        tacc_obs::counter_add("rl.episodes", 1);
        if self.offer(assignment, instance)? {
            tacc_obs::counter_add("rl.incumbent_improvements", 1);
        }
        let best_objective = self.best.as_ref().map_or(f64::INFINITY, |(_, b)| *b);
        self.history.push(EpisodePoint { episode, reward, best_objective, epsilon });
        Ok(())
    }

    /// The answer, the history and the evaluation count. The greedy
    /// `extract` rollout runs only when training `completed` or no
    /// feasible incumbent exists — its result is not monotone in training
    /// length — and replaces the incumbent when there is none or it is
    /// feasible and strictly better.
    pub(crate) fn finish(
        mut self,
        instance: &GapInstance,
        completed: bool,
        extract: impl FnOnce() -> Result<Assignment, GapError>,
    ) -> Result<(Assignment, Vec<EpisodePoint>, u64), GapError> {
        let assignment = match (self.best.take(), completed) {
            (Some((incumbent, _)), false) => incumbent,
            (best, _) => {
                let rollout = extract()?;
                self.evaluations += 1;
                let rollout_feasible = rollout.is_feasible(instance);
                let rollout_delay = rollout.total_delay(instance)?;
                match best {
                    Some((_, delay)) if rollout_feasible && rollout_delay < delay => rollout,
                    Some((incumbent, _)) => incumbent,
                    None => rollout,
                }
            }
        };
        Ok((assignment, self.history, self.evaluations))
    }
}

/// The checks every TD rule passes, written once and run per learner by
/// the `tests` modules at the crate root, each with its own episode
/// counts and seeds.
#[cfg(test)]
pub(crate) mod checks {
    use super::*;
    use tacc_baselines::{DeviceOrder, Greedy};
    use tacc_gap::exact::BruteForce;
    use tacc_gap::DegradationLevel;
    use tacc_topology::DelayMatrix;

    /// Greedy trap: device 0 decides first (highest regret) and its
    /// myopically best server starves device 2.
    fn trap_instance() -> GapInstance {
        let delays = DelayMatrix::from_rows(vec![vec![1.0, 9.0], vec![1.0, 2.0], vec![1.0, 8.0]]);
        GapInstance::builder(delays).uniform_demand(1.0).capacities(vec![2.0, 2.0]).build().unwrap()
    }

    /// `devices` unit-demand devices on three servers of capacity
    /// `capacity`, with delays drawn from `[1, max_delay)` by `rng_seed`.
    pub(crate) fn contended_instance(
        rng_seed: u64,
        devices: usize,
        max_delay: f64,
        capacity: f64,
    ) -> GapInstance {
        let mut rng = ChaCha8Rng::seed_from_u64(rng_seed);
        let rows: Vec<Vec<f64>> = (0..devices)
            .map(|_| (0..3).map(|_| rng.random_range(1.0..max_delay)).collect())
            .collect();
        GapInstance::builder(DelayMatrix::from_rows(rows))
            .uniform_demand(1.0)
            .uniform_capacity(capacity)
            .build()
            .unwrap()
    }

    fn quick(episodes: usize) -> QLearningConfig {
        QLearningConfig {
            episodes,
            epsilon: EpsilonSchedule::new(1.0, 0.05, 0.99),
            ..QLearningConfig::default()
        }
    }

    pub(crate) fn reaches_the_optimum_on_a_small_trap<R: TdRule>(episodes: usize, seed: u64) {
        let inst = trap_instance();
        let optimum = BruteForce::default().solve(&inst).unwrap().objective;
        let learner = TdLearner::<R>::new(quick(episodes), seed);
        let (solution, report) = learner.train(&inst).unwrap();
        assert!(solution.feasible);
        assert_eq!(solution.objective, optimum, "{} missed the optimum", learner.name());
        assert!(report.convergence_episode().is_some());
    }

    pub(crate) fn deterministic_in_seed<R: TdRule>(episodes: usize, seed: u64) {
        let inst = trap_instance();
        let a = TdLearner::<R>::new(quick(episodes), seed).solve(&inst).unwrap();
        let b = TdLearner::<R>::new(quick(episodes), seed).solve(&inst).unwrap();
        assert_eq!(a.assignment, b.assignment);
    }

    pub(crate) fn rewards_improve_over_training<R: TdRule>(episodes: usize, seed: u64) {
        let inst = trap_instance();
        let (_, report) = TdLearner::<R>::new(quick(episodes), seed).train(&inst).unwrap();
        let early: f64 = report.history()[..50].iter().map(|p| p.reward).sum::<f64>() / 50.0;
        let late = report.final_mean_reward(50);
        assert!(late >= early, "training regressed: early mean {early}, late mean {late}");
    }

    pub(crate) fn masking_keeps_assignments_feasible<R: TdRule>(episodes: usize, seed: u64) {
        // Tight capacities: random exploration without masking overloads
        // constantly; with masking every episode is feasible whenever
        // fitting choices exist, so the final answer must be feasible.
        let delays = DelayMatrix::from_rows(vec![vec![1.0, 2.0]; 6]);
        let inst = GapInstance::builder(delays)
            .uniform_demand(1.0)
            .capacities(vec![3.0, 3.0])
            .build()
            .unwrap();
        assert!(TdLearner::<R>::new(quick(episodes), seed).solve(&inst).unwrap().feasible);
    }

    pub(crate) fn works_without_masking_too<R: TdRule>(episodes: usize, seed: u64) {
        // The overload penalty alone should still steer it feasible.
        let cfg = QLearningConfig { action_masking: false, ..quick(episodes) };
        assert!(TdLearner::<R>::new(cfg, seed).solve(&trap_instance()).unwrap().feasible);
    }

    pub(crate) fn prior_can_be_disabled_for_ablation<R: TdRule>(episodes: usize, seed: u64) {
        // Still learns without the prior, just from a colder start.
        let cfg = QLearningConfig { delay_prior: false, ..quick(episodes) };
        assert!(TdLearner::<R>::new(cfg, seed).solve(&trap_instance()).unwrap().feasible);
    }

    pub(crate) fn history_length_matches_episodes<R: TdRule>(episodes: usize, seed: u64) {
        let inst = trap_instance();
        let (_, report) = TdLearner::<R>::new(quick(episodes), seed).train(&inst).unwrap();
        assert_eq!(report.history().len(), episodes);
        assert!(report.num_states() > 0);
    }

    /// The prior-seeded incumbent guarantees the learner matches or beats
    /// the one-shot greedy baseline on `inst`.
    pub(crate) fn never_loses_to_greedy<R: TdRule>(inst: &GapInstance, episodes: usize, seed: u64) {
        let greedy = Greedy::new(DeviceOrder::RegretDescending).solve(inst).unwrap();
        let s = TdLearner::<R>::new(quick(episodes), seed).solve(inst).unwrap();
        assert!(s.feasible);
        assert!(
            s.objective <= greedy.objective + 1e-9,
            "seed {seed}: {} lost to greedy {}",
            s.objective,
            greedy.objective
        );
    }

    /// Solves the trap within each of `budgets` (ascending, ending at
    /// `episodes`): every answer is feasible, no worse than the last, and
    /// the full budget reproduces the unbudgeted solve.
    pub(crate) fn anytime_is_feasible_and_monotone_in_budget<R: TdRule>(
        episodes: usize,
        seed: u64,
        budgets: &[u64],
    ) {
        let inst = trap_instance();
        let solver = TdLearner::<R>::new(quick(episodes), seed);
        let full = solver.solve(&inst).unwrap();
        let n = episodes as u64;
        let mut prev = f64::INFINITY;
        for &b in budgets {
            let (s, g) = solver.solve_within(&inst, &Budget::units(b)).unwrap();
            assert!(s.feasible, "budget {b}: infeasible");
            assert!(g.feasible);
            assert!(s.objective <= prev + 1e-9, "budget {b}: {} worse than {prev}", s.objective);
            assert_eq!(g.spent, b.min(n));
            assert_eq!(g.completed, b >= n);
            assert_eq!(
                g.degradation,
                if b >= n { DegradationLevel::None } else { DegradationLevel::Truncated }
            );
            assert!(!g.wallclock_tripped);
            prev = s.objective;
        }
        assert_eq!(prev, full.objective);
    }

    pub(crate) fn unlimited_budget_matches_plain_solve<R: TdRule>(episodes: usize, seed: u64) {
        let inst = trap_instance();
        let solver = TdLearner::<R>::new(quick(episodes), seed);
        let plain = solver.solve(&inst).unwrap();
        let (s, g) = solver.solve_within(&inst, &Budget::unlimited()).unwrap();
        assert_eq!(plain.assignment, s.assignment);
        assert!(g.completed);
        assert_eq!(g.budget, None);
        assert_eq!(g.spent, episodes as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacc_topology::DelayMatrix;

    #[test]
    fn greedy_action_prefers_higher_value() {
        // Device 0 fits on servers 0 and 2 only once server 1 is full.
        let delays = DelayMatrix::from_rows(vec![vec![1.0, 1.0, 1.0]; 2]);
        let inst = GapInstance::builder(delays)
            .uniform_demand(1.0)
            .capacities(vec![2.0, 1.0, 2.0])
            .build()
            .unwrap();
        let mut mdp = AssignmentMdp::new(&inst, EpisodeOrder::Index, 4, 100.0);
        let values = [-5.0, -1.0, -3.0];
        assert_eq!(masked_argmax(&mdp, true, |j| values[j]), 1);
        assert_eq!(masked_max(&mdp, true, |j| values[j]), -1.0);
        mdp.apply(1);
        assert_eq!(masked_argmax(&mdp, true, |j| values[j]), 2, "server 1 is full");
        assert_eq!(masked_max(&mdp, true, |j| values[j]), -3.0);
        assert_eq!(masked_argmax(&mdp, false, |j| values[j]), 1, "no mask, no exclusion");
        assert_eq!(masked_argmax(&mdp, true, |_| 0.0), 0, "ties go to the lowest index");
    }
}
