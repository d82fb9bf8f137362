use tacc_baselines::{
    BestFitDecreasing, Desirability, DeviceOrder, Genetic, GeneticConfig, Greedy,
    LagrangianHeuristic, LocalSearch, MartelloToth, NearestServer, RandomAssign, RoundRobin,
    SimulatedAnnealing, TabuSearch,
};
use tacc_gap::exact::{BranchAndBound, BruteForce};
use tacc_gap::{AnytimeSolver, Solver};
use tacc_rl::{
    BanditAssign, BanditConfig, DoubleQLearning, LfaConfig, LfaQLearning, QLearning,
    QLearningConfig, Sarsa,
};

/// The registry of every assignment algorithm in the workspace.
///
/// `Algorithm` is the facade-level selector: experiments, examples and the
/// [`crate::ClusterConfigurator`] all pick solvers through it, so a new
/// algorithm only needs to be registered here to appear everywhere.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum Algorithm {
    /// Tabular Q-learning (the paper's headline heuristic).
    QLearning(QLearningConfig),
    /// Q-learning followed by a local-search polish (hybrid extension).
    QLearningPolished(QLearningConfig),
    /// Double Q-learning (maximization-bias-corrected variant).
    DoubleQLearning(QLearningConfig),
    /// On-policy SARSA variant.
    Sarsa(QLearningConfig),
    /// Q-learning with topology-aware linear function approximation.
    LfaQLearning(LfaConfig),
    /// Stateless per-device bandit (ablation).
    Bandit(BanditConfig),
    /// Constructive greedy with a device ordering.
    Greedy(DeviceOrder),
    /// Load-oriented best-fit-decreasing.
    BestFitDecreasing,
    /// Martello–Toth max-regret construction with a shift pass.
    MartelloToth(Desirability),
    /// Shift+swap descent from a greedy start: steepest one-shot, a
    /// device sweep under a budget.
    LocalSearch,
    /// Lagrangian relaxation with primal repair.
    Lagrangian,
    /// Simulated annealing on the penalized objective.
    SimulatedAnnealing,
    /// Tabu search over shift moves.
    TabuSearch,
    /// Genetic algorithm with repair.
    Genetic(GeneticConfig),
    /// Uniform random assignment (control).
    Random,
    /// Round-robin assignment (control).
    RoundRobin,
    /// Capacity-blind nearest-server assignment (control; the delay-only
    /// policy the paper's overload constraint guards against).
    NearestServer,
    /// Exact branch-and-bound (exponential; small instances only).
    BranchAndBound,
    /// Exact exhaustive search (tiny instances only).
    BruteForce,
}

impl Algorithm {
    /// The paper's algorithm with default hyper-parameters.
    pub fn q_learning() -> Self {
        Algorithm::QLearning(QLearningConfig::default())
    }

    /// Greedy with the regret ordering — the strongest constructive
    /// baseline.
    pub fn greedy() -> Self {
        Algorithm::Greedy(DeviceOrder::RegretDescending)
    }

    /// Instantiates the solver behind this selector. Randomized
    /// algorithms derive their RNG stream from `seed`.
    pub fn solver(&self, seed: u64) -> Box<dyn Solver> {
        match self {
            Algorithm::QLearning(cfg) => Box::new(QLearning::new(cfg.clone(), seed)),
            Algorithm::QLearningPolished(cfg) => {
                Box::new(crate::QLearningPolished::new(cfg.clone(), seed))
            }
            Algorithm::DoubleQLearning(cfg) => Box::new(DoubleQLearning::new(cfg.clone(), seed)),
            Algorithm::Sarsa(cfg) => Box::new(Sarsa::new(cfg.clone(), seed)),
            Algorithm::LfaQLearning(cfg) => Box::new(LfaQLearning::new(cfg.clone(), seed)),
            Algorithm::Bandit(cfg) => Box::new(BanditAssign::new(cfg.clone(), seed)),
            Algorithm::Greedy(order) => Box::new(Greedy::new(*order)),
            Algorithm::BestFitDecreasing => Box::new(BestFitDecreasing::new()),
            Algorithm::MartelloToth(d) => Box::new(MartelloToth::new(*d)),
            Algorithm::LocalSearch => Box::new(LocalSearch::new(seed)),
            Algorithm::Lagrangian => Box::new(LagrangianHeuristic::new()),
            Algorithm::SimulatedAnnealing => Box::new(SimulatedAnnealing::new(seed)),
            Algorithm::TabuSearch => Box::new(TabuSearch::new(seed)),
            Algorithm::Genetic(cfg) => Box::new(Genetic::new(cfg.clone(), seed)),
            Algorithm::Random => Box::new(RandomAssign::new(seed)),
            Algorithm::RoundRobin => Box::new(RoundRobin::new()),
            Algorithm::NearestServer => Box::new(NearestServer::new()),
            Algorithm::BranchAndBound => Box::new(BranchAndBound::default()),
            Algorithm::BruteForce => Box::new(BruteForce::default()),
        }
    }

    /// Instantiates the solver as a budget-aware [`AnytimeSolver`], for
    /// algorithms with an iterative core (the tabular RL learners, local
    /// search and the metaheuristics). Returns `None` for constructive
    /// one-shot heuristics and the exact solvers, whose work is not
    /// meaningfully divisible into budget units.
    pub fn anytime_solver(&self, seed: u64) -> Option<Box<dyn AnytimeSolver>> {
        match self {
            Algorithm::QLearning(cfg) => Some(Box::new(QLearning::new(cfg.clone(), seed))),
            Algorithm::DoubleQLearning(cfg) => {
                Some(Box::new(DoubleQLearning::new(cfg.clone(), seed)))
            }
            Algorithm::Sarsa(cfg) => Some(Box::new(Sarsa::new(cfg.clone(), seed))),
            Algorithm::LocalSearch => Some(Box::new(LocalSearch::new(seed))),
            Algorithm::SimulatedAnnealing => Some(Box::new(SimulatedAnnealing::new(seed))),
            Algorithm::TabuSearch => Some(Box::new(TabuSearch::new(seed))),
            Algorithm::Genetic(cfg) => Some(Box::new(Genetic::new(cfg.clone(), seed))),
            _ => None,
        }
    }

    /// The solver's display name (same string the solver itself reports).
    pub fn name(&self) -> String {
        self.solver(0).name().to_owned()
    }

    /// The standard experiment line-up: the RL learners plus every
    /// classical family, excluding the exponential exact solvers.
    pub fn standard_set() -> Vec<Algorithm> {
        vec![
            Algorithm::q_learning(),
            Algorithm::QLearningPolished(QLearningConfig::default()),
            Algorithm::DoubleQLearning(QLearningConfig::default()),
            Algorithm::Sarsa(QLearningConfig::default()),
            Algorithm::LfaQLearning(LfaConfig::default()),
            Algorithm::Bandit(BanditConfig::default()),
            Algorithm::greedy(),
            Algorithm::BestFitDecreasing,
            Algorithm::MartelloToth(Desirability::DelayRegret),
            Algorithm::LocalSearch,
            Algorithm::Lagrangian,
            Algorithm::SimulatedAnnealing,
            Algorithm::TabuSearch,
            Algorithm::Genetic(GeneticConfig::default()),
            Algorithm::Random,
            Algorithm::RoundRobin,
        ]
    }

    /// Looks an algorithm up by its display name (as printed in
    /// experiment tables). Returns `None` for unknown names.
    pub fn by_name(name: &str) -> Option<Algorithm> {
        Algorithm::standard_set()
            .into_iter()
            .chain([Algorithm::NearestServer, Algorithm::BranchAndBound, Algorithm::BruteForce])
            .find(|a| a.name() == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacc_gap::GapInstance;
    use tacc_topology::DelayMatrix;

    fn instance() -> GapInstance {
        let delays = DelayMatrix::from_rows(vec![
            vec![1.0, 3.0, 5.0],
            vec![4.0, 1.0, 2.0],
            vec![2.0, 5.0, 1.0],
            vec![3.0, 2.0, 4.0],
        ]);
        GapInstance::builder(delays).uniform_demand(1.0).uniform_capacity(2.0).build().unwrap()
    }

    #[test]
    fn standard_set_solves_and_has_unique_names() {
        let inst = instance();
        let mut names = Vec::new();
        for alg in Algorithm::standard_set() {
            let solver = alg.solver(3);
            let s = solver.solve(&inst).unwrap_or_else(|e| panic!("{}: {e}", solver.name()));
            assert!(s.assignment.is_complete(), "{}", solver.name());
            names.push(alg.name());
        }
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn exact_algorithms_find_the_optimum() {
        let inst = instance();
        let bf = Algorithm::BruteForce.solver(0).solve(&inst).unwrap();
        let bb = Algorithm::BranchAndBound.solver(0).solve(&inst).unwrap();
        assert_eq!(bf.objective, bb.objective);
    }

    #[test]
    fn anytime_solvers_honor_budgets_and_one_shots_opt_out() {
        use tacc_gap::{Budget, DegradationLevel};
        let inst = instance();
        let mut anytime = 0;
        for alg in Algorithm::standard_set() {
            let Some(solver) = alg.anytime_solver(3) else { continue };
            anytime += 1;
            let (s, g) = solver.solve_within(&inst, &Budget::units(1)).unwrap();
            assert!(s.assignment.is_feasible(&inst), "{}", g.solver);
            assert!(g.spent <= 1, "{}: spent {}", g.solver, g.spent);
            assert_eq!(g.degradation, DegradationLevel::Truncated, "{}", g.solver);
        }
        assert_eq!(anytime, 7, "the RL learners, local search and the metaheuristics are anytime");
        assert!(Algorithm::greedy().anytime_solver(0).is_none());
        assert!(Algorithm::BruteForce.anytime_solver(0).is_none());
    }

    #[test]
    fn lookup_by_name_round_trips() {
        for alg in Algorithm::standard_set() {
            let name = alg.name();
            let found = Algorithm::by_name(&name).unwrap_or_else(|| panic!("{name} not found"));
            assert_eq!(found.name(), name);
        }
        assert!(Algorithm::by_name("no-such-algorithm").is_none());
        assert_eq!(Algorithm::by_name("branch-and-bound").unwrap().name(), "branch-and-bound");
    }
}
