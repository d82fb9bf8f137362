use std::time::Instant;

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tacc_gap::{
    AnytimeSolver, Assignment, Budget, BudgetMeter, DeltaEval, GapError, GapInstance, GuardReport,
    Solution, SolveStats, Solver,
};

use crate::common;

/// Which moves the local search explores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum Neighborhood {
    /// Only single-device relocations.
    Shift,
    /// Relocations plus pairwise exchanges (the default; strictly
    /// stronger, ~n·m + n² moves per round).
    #[default]
    ShiftAndSwap,
}

/// A strictly improving move: `(gain, device, server)` for a shift,
/// `(gain, device a, device b)` for a swap.
type Move = (f64, usize, usize);

/// Applies the better of the two moves, a shift winning a tie; returns
/// `false`, changing nothing, when there is neither.
fn apply_better(eval: &mut DeltaEval<'_>, shift: Option<Move>, swap: Option<Move>) -> bool {
    let shift_gain = shift.map_or(0.0, |(g, _, _)| g);
    let swap_gain = swap.map_or(0.0, |(g, _, _)| g);
    if shift_gain <= 0.0 && swap_gain <= 0.0 {
        return false;
    }
    if shift_gain >= swap_gain {
        let (_, i, j) = shift.expect("gain positive");
        eval.apply_reassign(i, j);
    } else {
        let (_, i, k) = swap.expect("gain positive");
        eval.apply_swap(i, k);
    }
    true
}

/// Shift + swap local search, started from the regret-greedy solution.
///
/// Both drivers share one per-device move scan and differ only in when
/// the chosen move is applied:
///
/// - [`Solver::solve`] and [`LocalSearch::improve`] run *steepest*
///   descent: each round scans the whole neighborhood and applies the
///   best feasibility-preserving improving move; it stops at a local
///   optimum or after `max_rounds`.
/// - [`AnytimeSolver::solve_within`] runs a *sweep*: it first repairs
///   an overloaded greedy start, then walks the devices and applies each
///   device's best improving move at once, so a budget buys progress in
///   proportion to what it pays. The budget unit is one device scanned.
///
/// The scan order is seed-shuffled so ties break differently across
/// seeds, which matters for the multi-seed experiment averages.
#[derive(Debug, Clone)]
pub struct LocalSearch {
    seed: u64,
    neighborhood: Neighborhood,
    max_rounds: usize,
}

impl LocalSearch {
    /// Creates a local search with the default neighborhood and round
    /// budget (1000).
    pub fn new(seed: u64) -> Self {
        LocalSearch { seed, neighborhood: Neighborhood::default(), max_rounds: 1000 }
    }

    /// Selects the move set.
    pub fn with_neighborhood(mut self, neighborhood: Neighborhood) -> Self {
        self.neighborhood = neighborhood;
        self
    }

    /// Caps the number of steepest-descent rounds, and of sweep passes
    /// in [`AnytimeSolver::solve_within`].
    pub fn with_max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// The seed-shuffled device order every scan walks.
    fn device_order(&self, n: usize) -> Vec<usize> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut devices: Vec<usize> = (0..n).collect();
        devices.shuffle(&mut rng);
        devices
    }

    /// Runs steepest descent from the supplied starting assignment
    /// instead of the greedy default. Used by `QLearningPolished` to
    /// polish the learner's assignment, and by the zone pipeline's
    /// reference dense solver.
    pub fn improve(
        &self,
        instance: &GapInstance,
        start_assignment: Assignment,
    ) -> Result<Solution, GapError> {
        let start = Instant::now();
        let mut eval = DeltaEval::new(instance, start_assignment);
        let mut evaluations = 0u64;
        let mut rounds = 0u64;
        let devices = self.device_order(instance.num_devices());

        for _ in 0..self.max_rounds {
            rounds += 1;
            // The round's best moves; `>` keeps the first in scan order
            // on ties.
            let mut best_shift: Option<Move> = None;
            let mut best_swap: Option<Move> = None;
            for x in 0..devices.len() {
                let (shift, swap) = self.scan_device(&eval, &devices, x, &mut evaluations);
                if let Some(m) = shift.filter(|m| best_shift.map_or(true, |b| m.0 > b.0)) {
                    best_shift = Some(m);
                }
                if let Some(m) = swap.filter(|m| best_swap.map_or(true, |b| m.0 > b.0)) {
                    best_swap = Some(m);
                }
            }
            if !apply_better(&mut eval, best_shift, best_swap) {
                break; // local optimum
            }
        }

        let stats = SolveStats { elapsed: start.elapsed(), iterations: rounds, evaluations };
        Solution::evaluate(eval.into_assignment(), instance, stats)
    }

    /// The move scan both drivers share: device `devices[x]`'s shift to
    /// every other server with room for it and, with
    /// [`Neighborhood::ShiftAndSwap`], its exchange with every device
    /// after it in `devices` that both servers can absorb. Returns the
    /// first strictly best shift and swap whose gain beats 1e-12; every
    /// probed move counts one evaluation.
    fn scan_device(
        &self,
        eval: &DeltaEval<'_>,
        devices: &[usize],
        x: usize,
        evaluations: &mut u64,
    ) -> (Option<Move>, Option<Move>) {
        let instance = eval.instance();
        let i = devices[x];
        let Some(si) = eval.assignment().server_of(i) else {
            return (None, None);
        };
        let cur_delay = eval.delay_of(i);
        let mut shift: Option<Move> = None;
        for j in 0..instance.num_servers() {
            if j == si {
                continue;
            }
            *evaluations += 1;
            if eval.load(j) + instance.demand(i, j) > instance.capacity(j) + 1e-9 {
                continue;
            }
            let gain = cur_delay - instance.delay(i, j);
            if gain > 1e-12 && shift.map_or(true, |(g, _, _)| gain > g) {
                shift = Some((gain, i, j));
            }
        }
        let mut swap: Option<Move> = None;
        if self.neighborhood == Neighborhood::ShiftAndSwap {
            for &k in &devices[x + 1..] {
                let sk = match eval.assignment().server_of(k) {
                    Some(sk) if sk != si => sk,
                    _ => continue,
                };
                *evaluations += 1;
                // Feasibility of the exchange.
                let load_si = eval.load(si) - instance.demand(i, si) + instance.demand(k, si);
                let load_sk = eval.load(sk) - instance.demand(k, sk) + instance.demand(i, sk);
                if load_si > instance.capacity(si) + 1e-9 || load_sk > instance.capacity(sk) + 1e-9
                {
                    continue;
                }
                let gain = eval.delay_of(i) + eval.delay_of(k)
                    - instance.delay(i, sk)
                    - instance.delay(k, si);
                if gain > 1e-12 && swap.map_or(true, |(g, _, _)| gain > g) {
                    swap = Some((gain, i, k));
                }
            }
        }
        (shift, swap)
    }

    /// The capacity repair ahead of the sweep: while a server is
    /// overloaded, applies the shift with the least delay increase that
    /// moves a device off an overloaded server onto a server with room;
    /// when none fits, the swap with a device of smaller demand there
    /// that lowers the overload and overloads no other server. Ties go
    /// to the lowest device, then server, index. Every move lowers the
    /// total overload, so the repair ends. Each device scanned costs one
    /// unit; returns `false` when the meter ran dry first.
    fn repair(
        &self,
        eval: &mut DeltaEval<'_>,
        meter: &mut BudgetMeter,
        evaluations: &mut u64,
    ) -> bool {
        let instance = eval.instance();
        let (n, m) = (instance.num_devices(), instance.num_servers());
        let overloaded =
            |eval: &DeltaEval<'_>, j: usize| eval.load(j) - instance.capacity(j) > 1e-9;
        while !eval.is_load_feasible() {
            let mut shift: Option<(f64, usize, usize)> = None;
            for i in 0..n {
                let Some(s) = eval.assignment().server_of(i) else { continue };
                if !overloaded(eval, s) {
                    continue;
                }
                if !meter.take() {
                    return false;
                }
                for t in 0..m {
                    if t == s {
                        continue;
                    }
                    *evaluations += 1;
                    if eval.load(t) + instance.demand(i, t) > instance.capacity(t) + 1e-9 {
                        continue;
                    }
                    let increase = instance.delay(i, t) - eval.delay_of(i);
                    if shift.map_or(true, |(b, _, _)| increase < b) {
                        shift = Some((increase, i, t));
                    }
                }
            }
            if let Some((_, i, t)) = shift {
                eval.apply_reassign(i, t);
                continue;
            }
            let mut swap: Option<(f64, usize, usize)> = None;
            for i in 0..n {
                let Some(s) = eval.assignment().server_of(i) else { continue };
                if !overloaded(eval, s) {
                    continue;
                }
                if !meter.take() {
                    return false;
                }
                for k in 0..n {
                    let t = match eval.assignment().server_of(k) {
                        Some(t) if t != s => t,
                        _ => continue,
                    };
                    *evaluations += 1;
                    if instance.demand(k, s) >= instance.demand(i, s)
                        || eval.load(t) - instance.demand(k, t) + instance.demand(i, t)
                            > instance.capacity(t) + 1e-9
                    {
                        continue;
                    }
                    let increase = instance.delay(i, t) + instance.delay(k, s)
                        - eval.delay_of(i)
                        - eval.delay_of(k);
                    if swap.map_or(true, |(b, _, _)| increase < b) {
                        swap = Some((increase, i, k));
                    }
                }
            }
            let Some((_, i, k)) = swap else { break };
            eval.apply_swap(i, k);
        }
        true
    }

    /// The anytime descent: passes over the seed-shuffled device order,
    /// each device scanned (one unit) and its best improving move applied
    /// at once, a shift winning a tie with a swap. Returns whether the
    /// run completed — a pass applied no move (a shift + swap local
    /// optimum) or `max_rounds` passes ran — and the passes begun.
    fn sweep(
        &self,
        eval: &mut DeltaEval<'_>,
        meter: &mut BudgetMeter,
        evaluations: &mut u64,
    ) -> (bool, u64) {
        let devices = self.device_order(eval.instance().num_devices());
        let mut passes = 0u64;
        for _ in 0..self.max_rounds {
            passes += 1;
            let mut moved = false;
            for x in 0..devices.len() {
                if !meter.take() {
                    return (false, passes);
                }
                let (shift, swap) = self.scan_device(eval, &devices, x, evaluations);
                moved |= apply_better(eval, shift, swap);
            }
            if !moved {
                break;
            }
        }
        (true, passes)
    }
}

impl Solver for LocalSearch {
    fn solve(&self, instance: &GapInstance) -> Result<Solution, GapError> {
        let order = common::regret_order(instance);
        let start_assignment = common::greedy_fill(instance, &order);
        self.improve(instance, start_assignment)
    }

    fn name(&self) -> &str {
        "local-search"
    }
}

impl AnytimeSolver for LocalSearch {
    /// Repair, then sweep, from the regret-greedy fill that
    /// [`Solver::solve`] starts from. The state only ever changes by a
    /// repair move (lower total overload) or an improving move (lower
    /// delay, no new overload), so a truncated run is a prefix of the
    /// unlimited one, a zero-unit budget returns the greedy start, and
    /// quality never worsens as the budget grows. A repair that finds no
    /// move ends the run, completed and infeasible.
    fn solve_within(
        &self,
        instance: &GapInstance,
        budget: &Budget,
    ) -> Result<(Solution, GuardReport), GapError> {
        let start = Instant::now();
        let mut meter = budget.meter();
        let mut evaluations = 0u64;
        let order = common::regret_order(instance);
        let mut eval = DeltaEval::new(instance, common::greedy_fill(instance, &order));
        let (completed, passes) = if !self.repair(&mut eval, &mut meter, &mut evaluations) {
            (false, 0)
        } else if !eval.is_load_feasible() {
            (true, 0)
        } else {
            self.sweep(&mut eval, &mut meter, &mut evaluations)
        };
        let stats = SolveStats { elapsed: start.elapsed(), iterations: passes, evaluations };
        let solution = Solution::evaluate(eval.into_assignment(), instance, stats)?;
        let guard = GuardReport::for_run(Solver::name(self), &solution, &meter, budget, completed);
        Ok((solution, guard))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeviceOrder, Greedy};
    use rand::Rng;
    use tacc_gap::DegradationLevel;
    use tacc_topology::DelayMatrix;

    /// An instance where greedy (any static order) lands in a state that
    /// only a *swap* can fix: two devices sitting on each other's
    /// preferred servers, both servers full.
    fn swap_trap() -> GapInstance {
        let delays = DelayMatrix::from_rows(vec![vec![1.0, 10.0], vec![10.0, 1.0]]);
        GapInstance::builder(delays).uniform_demand(1.0).capacities(vec![1.0, 1.0]).build().unwrap()
    }

    /// A seeded random `n × m` instance: delays in [1, 50), demands in
    /// [1, 4), every server holding `slack` times its even share.
    fn generated(seed: u64, n: usize, m: usize, slack: f64) -> GapInstance {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> =
            (0..n).map(|_| (0..m).map(|_| rng.random_range(1.0..50.0)).collect()).collect();
        let demands: Vec<f64> = (0..n).map(|_| rng.random_range(1.0..4.0)).collect();
        let cap = demands.iter().sum::<f64>() / m as f64 * slack;
        GapInstance::builder(DelayMatrix::from_rows(rows))
            .device_demands(demands)
            .uniform_capacity(cap)
            .build()
            .unwrap()
    }

    /// Whether any feasible shift or swap strictly lowers the delay of
    /// `a`, by brute force over every move.
    fn improving_move_exists(inst: &GapInstance, a: &Assignment) -> bool {
        let base = a.total_delay(inst).unwrap();
        let n = inst.num_devices();
        let better =
            |b: &Assignment| b.is_feasible(inst) && b.total_delay(inst).unwrap() < base - 1e-12;
        for i in 0..n {
            for j in 0..inst.num_servers() {
                let mut b = a.clone();
                b.assign(i, j).unwrap();
                if better(&b) {
                    return true;
                }
            }
            for k in i + 1..n {
                let (si, sk) = (a.server_of(i).unwrap(), a.server_of(k).unwrap());
                let mut b = a.clone();
                b.assign(i, sk).unwrap();
                b.assign(k, si).unwrap();
                if better(&b) {
                    return true;
                }
            }
        }
        false
    }

    #[test]
    fn swap_escapes_shift_local_optimum() {
        let inst = swap_trap();
        // Start from the crossed assignment.
        let crossed = Assignment::from_vec(vec![1, 0], 2).unwrap();
        assert_eq!(crossed.total_delay(&inst).unwrap(), 20.0);

        let shift_only = LocalSearch::new(0)
            .with_neighborhood(Neighborhood::Shift)
            .improve(&inst, crossed.clone())
            .unwrap();
        // No single shift is feasible: both servers are at capacity.
        assert_eq!(shift_only.objective, 20.0);

        let full = LocalSearch::new(0).improve(&inst, crossed).unwrap();
        assert_eq!(full.objective, 2.0);
        assert!(full.feasible);
    }

    #[test]
    fn never_worse_than_greedy_start() {
        for seed in 0..5 {
            let delays = DelayMatrix::from_rows(vec![
                vec![2.0, 7.0, 4.0],
                vec![3.0, 1.0, 6.0],
                vec![5.0, 5.0, 1.0],
                vec![4.0, 2.0, 2.0],
                vec![1.0, 8.0, 3.0],
            ]);
            let inst = GapInstance::builder(delays)
                .uniform_demand(1.0)
                .uniform_capacity(2.0)
                .build()
                .unwrap();
            let greedy = Greedy::new(DeviceOrder::RegretDescending).solve(&inst).unwrap();
            let ls = LocalSearch::new(seed).solve(&inst).unwrap();
            assert!(ls.objective <= greedy.objective + 1e-9, "seed {seed}");
            assert!(ls.feasible);
        }
    }

    #[test]
    fn respects_round_budget() {
        let inst = swap_trap();
        let s = LocalSearch::new(0).with_max_rounds(1).solve(&inst).unwrap();
        assert!(s.stats.iterations <= 1);
    }

    #[test]
    fn preserves_feasibility_of_start() {
        // Local search must never trade feasibility for delay.
        let inst = swap_trap();
        let s = LocalSearch::new(3).solve(&inst).unwrap();
        assert!(s.feasible);
        assert_eq!(s.objective, 2.0);
    }

    #[test]
    fn the_steepest_driver_is_pinned() {
        // Objective, probe count and rounds of the one-shot path on a
        // contended 100 × 8 instance, as recorded before the move scan
        // was shared with the sweep; E1–E18 and BENCH_solvers.json rest
        // on this path.
        let inst = generated(5, 100, 8, 1.04);
        let s = LocalSearch::new(3).solve(&inst).unwrap();
        assert_eq!(s.objective.to_bits(), 0x4084_2651_f078_534c, "objective {}", s.objective);
        assert_eq!(s.stats.evaluations, 71_015);
        assert_eq!(s.stats.iterations, 14);
        assert!(s.feasible);
    }

    #[test]
    fn an_unlimited_sweep_ends_where_no_feasible_move_improves() {
        for seed in 0..6 {
            for slack in [1.05, 1.3, 3.0] {
                let inst = generated(seed, 14, 3, slack);
                let (s, g) =
                    LocalSearch::new(seed).solve_within(&inst, &Budget::unlimited()).unwrap();
                if !s.feasible {
                    continue;
                }
                assert!(g.completed, "seed {seed}, slack {slack}");
                assert_eq!(g.degradation, DegradationLevel::None);
                assert!(
                    !improving_move_exists(&inst, &s.assignment),
                    "seed {seed}, slack {slack}: an improving move is left"
                );
            }
        }
    }

    #[test]
    fn completed_exactly_when_the_last_pass_applied_no_move() {
        let inst = generated(0, 30, 4, 1.05);
        let greedy = Greedy::new(DeviceOrder::RegretDescending).solve(&inst).unwrap();
        assert!(greedy.feasible, "no repair: every unit is a sweep scan");
        let solver = LocalSearch::new(0);
        let (full, g) = solver.solve_within(&inst, &Budget::unlimited()).unwrap();
        assert!(g.completed);
        assert!(full.stats.iterations >= 2, "the greedy start is improvable here");
        // Every pass scans all 30 devices, and only the last moves none.
        assert_eq!(g.spent, full.stats.iterations * 30);
        for units in 0..=g.spent + 5 {
            let (s, r) = solver.solve_within(&inst, &Budget::units(units)).unwrap();
            assert_eq!(r.completed, units >= g.spent, "budget {units}");
            assert_eq!(r.spent, units.min(g.spent), "budget {units}");
            if units + 30 >= g.spent {
                // Inside the last pass nothing moves any more.
                assert_eq!(s.assignment, full.assignment, "budget {units}");
            }
        }
    }

    #[test]
    fn budgeted_sweeps_are_monotone_prefixes_of_the_unlimited_run() {
        let inst = generated(5, 40, 5, 1.15);
        let solver = LocalSearch::new(9);
        let greedy = Greedy::new(DeviceOrder::RegretDescending).solve(&inst).unwrap();
        let (zero, g0) = solver.solve_within(&inst, &Budget::units(0)).unwrap();
        assert_eq!(zero.assignment, greedy.assignment, "zero units return the greedy start");
        assert_eq!((g0.spent, g0.completed), (0, false));
        assert_eq!(g0.degradation, DegradationLevel::Truncated);
        let mut prev = zero.objective;
        for units in [1u64, 7, 40, 41, 120, 400, 10_000] {
            let (s, g) = solver.solve_within(&inst, &Budget::units(units)).unwrap();
            assert!(s.feasible, "budget {units}");
            assert!(g.spent <= units, "budget {units}: spent {}", g.spent);
            assert!(s.objective <= prev + 1e-9, "budget {units}: {prev} -> {}", s.objective);
            prev = s.objective;
        }
    }

    #[test]
    fn repair_makes_an_overloaded_start_feasible() {
        // Regret order puts device 0 (regret 9) first onto server 0;
        // device 1 (regret 0) then fits nowhere and overflows onto server
        // 0, the lower index of two equal overloads. Only shifting device
        // 0 to server 1 makes room.
        let delays = DelayMatrix::from_rows(vec![vec![1.0, 10.0], vec![5.0, 5.0]]);
        let inst = GapInstance::builder(delays)
            .device_demands(vec![1.0, 2.0])
            .capacities(vec![2.0, 1.0])
            .build()
            .unwrap();
        let greedy = Greedy::new(DeviceOrder::RegretDescending).solve(&inst).unwrap();
        assert!(!greedy.feasible, "the fixture needs an overloaded greedy start");
        let (s, g) = LocalSearch::new(0).solve_within(&inst, &Budget::unlimited()).unwrap();
        assert!(s.feasible);
        assert_eq!(s.assignment.server_of(0), Some(1));
        assert_eq!(s.assignment.server_of(1), Some(0));
        assert!(g.completed);
    }

    #[test]
    fn a_stuck_repair_ends_completed_and_infeasible() {
        // Two devices of demand 2 on two servers of capacity 1: nothing
        // ever fits, so no repair move exists.
        let delays = DelayMatrix::from_rows(vec![vec![1.0, 2.0], vec![2.0, 1.0]]);
        let inst =
            GapInstance::builder(delays).uniform_demand(2.0).uniform_capacity(1.0).build().unwrap();
        let (s, g) = LocalSearch::new(0).solve_within(&inst, &Budget::units(50)).unwrap();
        assert!(!s.feasible);
        assert!(g.completed);
        assert!(g.spent <= 50);
    }
}
