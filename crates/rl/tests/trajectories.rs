//! Pinned trajectories of every RL learner.
//!
//! Each case trains one learner on one instance and folds everything the
//! run reports into one 64-bit FNV-1a digest: the assignment, the bits of
//! the objective, the iteration and evaluation counts, the number of
//! tabular states, every [`EpisodePoint`] bit for bit and, for budgeted
//! runs, the guard report's spent/completed/degradation.
//!
//! The history is pinned, not only the answer: on contended instances
//! different trajectories often end on the same assignment (at 200×10 all
//! three tabular learners return the greedy seed), so a changed update
//! rule or a reordered random draw need not move the final objective.
//!
//! On a mismatch the failure message prints the recomputed table, in the
//! format of the tables at the end of this file, for review.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use tacc_gap::{Budget, GapInstance, GuardReport, Solution};
use tacc_rl::{
    BanditAssign, BanditConfig, DoubleQLearning, EpisodePoint, EpsilonSchedule, LearningRate,
    LfaConfig, LfaQLearning, QLearning, Sarsa, TrainingReport,
};
use tacc_topology::DelayMatrix;

const EPISODES: usize = 80;
const BUDGETS: [u64; 4] = [0, 1, 7, 50];
const LEARNER_SEED: u64 = 7;

/// FNV-1a over little-endian words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, value: f64) {
        self.word(value.to_bits());
    }
}

fn digest(solution: &Solution, report: &TrainingReport, guard: Option<&GuardReport>) -> u64 {
    let mut d = Digest::new();
    let assignment = &solution.assignment;
    for device in 0..assignment.num_devices() {
        d.word(assignment.server_of(device).map_or(u64::MAX, |s| s as u64));
    }
    d.float(solution.objective);
    d.word(solution.stats.iterations);
    d.word(solution.stats.evaluations);
    d.word(report.num_states() as u64);
    d.word(report.history().len() as u64);
    for &EpisodePoint { episode, reward, best_objective, epsilon } in report.history() {
        d.word(episode as u64);
        d.float(reward);
        d.float(best_objective);
        d.float(epsilon);
    }
    if let Some(g) = guard {
        d.word(g.spent);
        d.word(u64::from(g.completed));
        for byte in g.degradation.label().bytes() {
            d.word(u64::from(byte));
        }
    }
    d.0
}

/// Greedy trap: device 0 decides first and its myopically best server
/// starves device 2.
fn trap() -> GapInstance {
    let delays = DelayMatrix::from_rows(vec![vec![1.0, 9.0], vec![1.0, 2.0], vec![1.0, 8.0]]);
    GapInstance::builder(delays).uniform_demand(1.0).capacities(vec![2.0, 2.0]).build().unwrap()
}

/// A seeded instance at load factor ≈ 0.9: random delays and device
/// demands, so episodes regularly run out of fitting servers.
fn contended(n: usize, m: usize, seed: u64) -> GapInstance {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let rows: Vec<Vec<f64>> =
        (0..n).map(|_| (0..m).map(|_| rng.random_range(1.0..20.0)).collect()).collect();
    let demands: Vec<f64> = (0..n).map(|_| rng.random_range(0.5..1.5)).collect();
    let capacity = demands.iter().sum::<f64>() / (0.9 * m as f64);
    GapInstance::builder(DelayMatrix::from_rows(rows))
        .device_demands(demands)
        .uniform_capacity(capacity)
        .build()
        .unwrap()
}

fn instances() -> Vec<(String, GapInstance)> {
    let mut out = vec![("trap".to_string(), trap())];
    for (n, m) in [(12, 3), (40, 4), (60, 5)] {
        for seed in [1, 2] {
            out.push((format!("{n}x{m}s{seed}"), contended(n, m, seed)));
        }
    }
    out
}

fn epsilon() -> EpsilonSchedule {
    EpsilonSchedule::new(1.0, 0.05, 0.97)
}

/// A learner's default configuration, typed by its constructor's
/// parameter so the cases never name the configuration type.
fn default_config<C: Default, S>(_new: fn(C, u64) -> S) -> C {
    C::default()
}

/// The cases of one tabular learner: full training, the budgeted runs
/// and the two ablation arms. γ < 1 and a visit-decayed step size, so a
/// rule that dropped the discount or miscounted visits changes its digest.
macro_rules! tabular_cases {
    ($learner:ident, $instance:expr, $out:expr, $prefix:expr) => {{
        let instance = $instance;
        let config = || {
            let mut cfg = default_config($learner::new);
            cfg.episodes = EPISODES;
            cfg.gamma = 0.9;
            cfg.learning_rate = LearningRate::VisitDecay { alpha0: 0.5, scale: 20.0 };
            cfg.epsilon = epsilon();
            cfg
        };
        let (s, r) = $learner::new(config(), LEARNER_SEED).train(instance).unwrap();
        $out.push((format!("{}/train", $prefix), digest(&s, &r, None)));
        let learner = $learner::new(config(), LEARNER_SEED);
        for b in BUDGETS {
            let (s, r, g) = learner.train_within(instance, &Budget::units(b)).unwrap();
            $out.push((format!("{}/within{b}", $prefix), digest(&s, &r, Some(&g))));
        }
        let mut no_prior = config();
        no_prior.delay_prior = false;
        let (s, r) = $learner::new(no_prior, LEARNER_SEED).train(instance).unwrap();
        $out.push((format!("{}/no-prior", $prefix), digest(&s, &r, None)));
        let mut no_mask = config();
        no_mask.action_masking = false;
        let (s, r) = $learner::new(no_mask, LEARNER_SEED).train(instance).unwrap();
        $out.push((format!("{}/no-mask", $prefix), digest(&s, &r, None)));
    }};
}

fn check(computed: Vec<(String, u64)>, pinned: &[(&str, u64)]) {
    let expected: Vec<(String, u64)> =
        pinned.iter().map(|&(name, d)| (name.to_string(), d)).collect();
    if computed != expected {
        let table: String =
            computed.iter().map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n")).collect();
        panic!("learner trajectories moved; recomputed table:\n{table}");
    }
}

#[test]
fn q_learning_trajectories_are_pinned() {
    let mut out = Vec::new();
    for (name, instance) in instances() {
        tabular_cases!(QLearning, &instance, out, name);
    }
    check(out, Q_LEARNING);
}

#[test]
fn double_q_learning_trajectories_are_pinned() {
    let mut out = Vec::new();
    for (name, instance) in instances() {
        tabular_cases!(DoubleQLearning, &instance, out, name);
    }
    check(out, DOUBLE_Q_LEARNING);
}

#[test]
fn sarsa_trajectories_are_pinned() {
    let mut out = Vec::new();
    for (name, instance) in instances() {
        tabular_cases!(Sarsa, &instance, out, name);
    }
    check(out, SARSA);
}

#[test]
fn lfa_and_bandit_trajectories_are_pinned() {
    let mut out = Vec::new();
    for (name, instance) in instances() {
        for masking in [true, false] {
            let cfg = LfaConfig {
                episodes: EPISODES,
                epsilon: epsilon(),
                action_masking: masking,
                ..LfaConfig::default()
            };
            let (s, r) = LfaQLearning::new(cfg, LEARNER_SEED).train(&instance).unwrap();
            let arm = if masking { "lfa" } else { "lfa-no-mask" };
            out.push((format!("{name}/{arm}"), digest(&s, &r, None)));
        }
        let cfg =
            BanditConfig { episodes: EPISODES, epsilon: epsilon(), ..BanditConfig::default() };
        let (s, r) = BanditAssign::new(cfg, LEARNER_SEED).train(&instance).unwrap();
        out.push((format!("{name}/bandit"), digest(&s, &r, None)));
    }
    check(out, LFA_AND_BANDIT);
}

const Q_LEARNING: &[(&str, u64)] = &[
    ("trap/train", 0xb65e1fc7282b0a5b),
    ("trap/within0", 0x7de0e823109bdbdc),
    ("trap/within1", 0xe168efece4bea1c3),
    ("trap/within7", 0x3113329fdef681d6),
    ("trap/within50", 0x017caa0a51a158ee),
    ("trap/no-prior", 0xb65e1fc7282b0a5b),
    ("trap/no-mask", 0x25d53b27fca52e45),
    ("12x3s1/train", 0x286e2f5fa3dd0ed6),
    ("12x3s1/within0", 0x80265fb776bd329f),
    ("12x3s1/within1", 0x0541d631ddea767f),
    ("12x3s1/within7", 0x7436fed2090e8296),
    ("12x3s1/within50", 0xf8b037096acba232),
    ("12x3s1/no-prior", 0x2a2e88c6192befe9),
    ("12x3s1/no-mask", 0xad3294ebf372ec76),
    ("12x3s2/train", 0x30a44b22af994907),
    ("12x3s2/within0", 0xafd9657d583579c7),
    ("12x3s2/within1", 0x531cfd88a40bd16a),
    ("12x3s2/within7", 0x268cae93ec36fd44),
    ("12x3s2/within50", 0xda86ed444bbc4d6e),
    ("12x3s2/no-prior", 0xea7901aa9de13111),
    ("12x3s2/no-mask", 0x097633a818408ba2),
    ("40x4s1/train", 0xb91f2747478e534d),
    ("40x4s1/within0", 0xd0b023a00816ed2b),
    ("40x4s1/within1", 0x3e133e3cd1aabbe1),
    ("40x4s1/within7", 0x2a0f280492e3a730),
    ("40x4s1/within50", 0x04b6eb5261faf904),
    ("40x4s1/no-prior", 0xf3e905f2ec0125aa),
    ("40x4s1/no-mask", 0xc4970530f244a7d4),
    ("40x4s2/train", 0x50ab964cab425dc4),
    ("40x4s2/within0", 0x32c6d7eec1fe506b),
    ("40x4s2/within1", 0x62f8a0d871f74ecf),
    ("40x4s2/within7", 0xc0df05954bcdaaa2),
    ("40x4s2/within50", 0x6b553d2c1b027c0c),
    ("40x4s2/no-prior", 0x109049001028efd8),
    ("40x4s2/no-mask", 0x9a1efe7effc7d78c),
    ("60x5s1/train", 0x3e6266f8cb849c29),
    ("60x5s1/within0", 0x40d63ba683f7c621),
    ("60x5s1/within1", 0x066ccd3779b5afee),
    ("60x5s1/within7", 0x18e00e547984a946),
    ("60x5s1/within50", 0xd6b5b8f9f7fb6bdd),
    ("60x5s1/no-prior", 0xda95223f7b9064da),
    ("60x5s1/no-mask", 0x8f22eb6915a7bdd5),
    ("60x5s2/train", 0xac2f6b92176dda9a),
    ("60x5s2/within0", 0x15395b4c5e7ca5f9),
    ("60x5s2/within1", 0xe378584296dffb44),
    ("60x5s2/within7", 0x3274e811be729d9e),
    ("60x5s2/within50", 0xf789337116b861f3),
    ("60x5s2/no-prior", 0x3811791dd4b13182),
    ("60x5s2/no-mask", 0xa8408ef2cea7b96a),
];
const DOUBLE_Q_LEARNING: &[(&str, u64)] = &[
    ("trap/train", 0x3754df95c49179e3),
    ("trap/within0", 0x7de0e823109bdbdc),
    ("trap/within1", 0xddf0c2f0b4f41937),
    ("trap/within7", 0x43ccb026c90178fe),
    ("trap/within50", 0x4b33e6cda3b0961c),
    ("trap/no-prior", 0xc90e239314cc8957),
    ("trap/no-mask", 0x9e02af48760fa8ea),
    ("12x3s1/train", 0x1c723d8fe7c018c7),
    ("12x3s1/within0", 0x80265fb776bd329f),
    ("12x3s1/within1", 0xfa568f96e08d0ae8),
    ("12x3s1/within7", 0x42dd1e34278cd99a),
    ("12x3s1/within50", 0x99a734038f7b7e77),
    ("12x3s1/no-prior", 0xb1c888a28e7f1a08),
    ("12x3s1/no-mask", 0x8864fe0bbe8c8b14),
    ("12x3s2/train", 0xd6fa987996e229fb),
    ("12x3s2/within0", 0xafd9657d583579c7),
    ("12x3s2/within1", 0x81fc97002caa236b),
    ("12x3s2/within7", 0x859fe482b8676962),
    ("12x3s2/within50", 0xb94587aea12f03e9),
    ("12x3s2/no-prior", 0x25fe4239f5035241),
    ("12x3s2/no-mask", 0x722dc6ae0f366ee8),
    ("40x4s1/train", 0x5ddb7bad5459080e),
    ("40x4s1/within0", 0xd0b023a00816ed2b),
    ("40x4s1/within1", 0xedc176f728a5f255),
    ("40x4s1/within7", 0x07fbd79eeb5daf59),
    ("40x4s1/within50", 0x52d24bcae1a94ec6),
    ("40x4s1/no-prior", 0xd93c44b7b008eb14),
    ("40x4s1/no-mask", 0x533830646336ee3b),
    ("40x4s2/train", 0xbd8123a285da4f3a),
    ("40x4s2/within0", 0x32c6d7eec1fe506b),
    ("40x4s2/within1", 0x85ebed2f6b170b9e),
    ("40x4s2/within7", 0x4adb7b96b535a921),
    ("40x4s2/within50", 0xfe2026c0dca9ed49),
    ("40x4s2/no-prior", 0xd9e3212d8f588765),
    ("40x4s2/no-mask", 0x2e6f9ecb224d391a),
    ("60x5s1/train", 0x730ad2603fa1d846),
    ("60x5s1/within0", 0x40d63ba683f7c621),
    ("60x5s1/within1", 0x018c2700594db685),
    ("60x5s1/within7", 0x00e01b7914e21ab9),
    ("60x5s1/within50", 0x19a0836623a887f2),
    ("60x5s1/no-prior", 0xc110f8ade7ee19aa),
    ("60x5s1/no-mask", 0x24b18400ee82c799),
    ("60x5s2/train", 0xaefe9def2b63e71f),
    ("60x5s2/within0", 0x15395b4c5e7ca5f9),
    ("60x5s2/within1", 0x4cb82a175e7b78ce),
    ("60x5s2/within7", 0xcd04da2f46821232),
    ("60x5s2/within50", 0x5556e13408d0c6bc),
    ("60x5s2/no-prior", 0x8e356d3895e3d11f),
    ("60x5s2/no-mask", 0xbb20109f258d7958),
];
const SARSA: &[(&str, u64)] = &[
    ("trap/train", 0xb65e1fc7282b0a5b),
    ("trap/within0", 0x7de0e823109bdbdc),
    ("trap/within1", 0xe168efece4bea1c3),
    ("trap/within7", 0x3113329fdef681d6),
    ("trap/within50", 0x017caa0a51a158ee),
    ("trap/no-prior", 0xb65e1fc7282b0a5b),
    ("trap/no-mask", 0xf940797fdf453842),
    ("12x3s1/train", 0xa9759650d10df2d8),
    ("12x3s1/within0", 0x80265fb776bd329f),
    ("12x3s1/within1", 0x0541d631ddea767f),
    ("12x3s1/within7", 0x7436fed2090e8296),
    ("12x3s1/within50", 0x58b6eb303806a10c),
    ("12x3s1/no-prior", 0x84a4218d95517258),
    ("12x3s1/no-mask", 0x1764ce767b8bb7d7),
    ("12x3s2/train", 0x9dd301b385d8dfa8),
    ("12x3s2/within0", 0xafd9657d583579c7),
    ("12x3s2/within1", 0x531cfd88a40bd16a),
    ("12x3s2/within7", 0x268cae93ec36fd44),
    ("12x3s2/within50", 0x84c6329d1d447499),
    ("12x3s2/no-prior", 0x36d2b45fddb9d06b),
    ("12x3s2/no-mask", 0x00278f9f2eb8cf99),
    ("40x4s1/train", 0x125d2b05c71d0c4d),
    ("40x4s1/within0", 0xd0b023a00816ed2b),
    ("40x4s1/within1", 0x3e133e3cd1aabbe1),
    ("40x4s1/within7", 0xd0c96590c636557c),
    ("40x4s1/within50", 0x8ec450f565c5a7de),
    ("40x4s1/no-prior", 0xf95675955b20829f),
    ("40x4s1/no-mask", 0x22e4b2e378948f2b),
    ("40x4s2/train", 0xb4cc32c286197624),
    ("40x4s2/within0", 0x32c6d7eec1fe506b),
    ("40x4s2/within1", 0x62f8a0d871f74ecf),
    ("40x4s2/within7", 0xd0b92c66585ef147),
    ("40x4s2/within50", 0x39e7c65433581387),
    ("40x4s2/no-prior", 0x38ae9fb1139d70b2),
    ("40x4s2/no-mask", 0xe884df7643db1afd),
    ("60x5s1/train", 0x8c31736d31f9f2b5),
    ("60x5s1/within0", 0x40d63ba683f7c621),
    ("60x5s1/within1", 0x066ccd3779b5afee),
    ("60x5s1/within7", 0x799a91e7c21c8986),
    ("60x5s1/within50", 0xb494110dc0908261),
    ("60x5s1/no-prior", 0x5419ad374f1a7a6f),
    ("60x5s1/no-mask", 0xa1c77db4ed5f96d1),
    ("60x5s2/train", 0x0965cdc64edffb60),
    ("60x5s2/within0", 0x15395b4c5e7ca5f9),
    ("60x5s2/within1", 0xe378584296dffb44),
    ("60x5s2/within7", 0xd4627b0a88efefaf),
    ("60x5s2/within50", 0x86dd8793b5d7df6e),
    ("60x5s2/no-prior", 0x1fb17aa8b49e0a42),
    ("60x5s2/no-mask", 0x0e2946dedef81a1a),
];
const LFA_AND_BANDIT: &[(&str, u64)] = &[
    ("trap/lfa", 0x70d1eba93089c698),
    ("trap/lfa-no-mask", 0x3d2ec87893e10324),
    ("trap/bandit", 0x850b6eb52bdf35c2),
    ("12x3s1/lfa", 0xb36dbf18d0d99ad6),
    ("12x3s1/lfa-no-mask", 0x119579c8eeab52ef),
    ("12x3s1/bandit", 0xb6f3b04178b4e923),
    ("12x3s2/lfa", 0x308eef1f66d5e5d7),
    ("12x3s2/lfa-no-mask", 0x3a7acb94717847c1),
    ("12x3s2/bandit", 0x521c9a99cda8d24f),
    ("40x4s1/lfa", 0x6f936d2ef72d9caa),
    ("40x4s1/lfa-no-mask", 0x5f68b1508244b861),
    ("40x4s1/bandit", 0xe0520d6745ec809e),
    ("40x4s2/lfa", 0x0eeb45ad0c468a4c),
    ("40x4s2/lfa-no-mask", 0x589992bb0b9302d5),
    ("40x4s2/bandit", 0xaecdc6b4f6abd567),
    ("60x5s1/lfa", 0x5d8dc8d2d35baaa3),
    ("60x5s1/lfa-no-mask", 0xc912b047bb08abcc),
    ("60x5s1/bandit", 0x249486e9c521fdcd),
    ("60x5s2/lfa", 0xa0f8ea5e97999c7c),
    ("60x5s2/lfa-no-mask", 0x2ad72b5ce1418191),
    ("60x5s2/bandit", 0x54701052eb185cd2),
];
