//! Delay oracles: answer `d(i, j)` queries without materializing the
//! full IoT × server delay matrix.
//!
//! The [`DelayMatrix`] is `O(devices × servers)` to build and store.
//! That is the right trade for the offline solvers, which read every
//! entry many times — but the online runtime and the serve control
//! plane often touch only a sliver of the matrix (one event's device,
//! one query's sub-instance). [`DelayOracle`] abstracts over "something
//! that can answer delay queries" so those paths can run against:
//!
//! - the exact materialized [`DelayMatrix`] (every query `O(1)`), or
//! - an [`AltOracle`]: A*-style landmark lower bounds (the ALT
//!   technique — A*, Landmarks, Triangle inequality) with **lazy exact
//!   refinement**. Construction runs one SSSP sweep per landmark on the
//!   leaf-compressed core; exact delays are computed one *server
//!   column* at a time, on first demand, and cached.
//!
//! Refined columns come from the same compressed-core kernel that
//! builds [`crate::Topology::delay_matrix`], so a refined entry is
//! bit-for-bit the matrix entry. The lower bound is conservative: it is
//! scaled down by one part in 10⁹ so that ulp-level rounding in the
//! landmark distance tables can never push it above the exact delay.
//!
//! Cache behaviour is observable through two `tacc-obs` counters:
//! `fast.oracle_refines` (column computed) and `fast.oracle_hits`
//! (query served from an already-refined column).

use std::cell::RefCell;

use crate::compress::CompressedCore;
use crate::csr::SsspScratch;
use crate::delay::{DelayMatrix, DelayModel};
use crate::{NodeId, Topology};

/// Answers IoT-device → edge-server delay queries.
///
/// `delay` is always exact (identical to the corresponding
/// [`DelayMatrix`] entry); `delay_bound` is an *admissible* lower bound
/// — never above the exact delay — that implementations may answer
/// much more cheaply. The default bound is the exact delay itself.
pub trait DelayOracle {
    /// Number of IoT devices (rows of the conceptual matrix).
    fn num_iot(&self) -> usize;

    /// Number of edge servers (columns of the conceptual matrix).
    fn num_servers(&self) -> usize;

    /// Exact shortest-path delay from device `iot` to server `server`,
    /// in milliseconds; `f64::INFINITY` when unreachable.
    fn delay(&self, iot: usize, server: usize) -> f64;

    /// An admissible lower bound on [`DelayOracle::delay`]: cheap to
    /// answer, never above the exact value.
    fn delay_bound(&self, iot: usize, server: usize) -> f64 {
        self.delay(iot, server)
    }

    /// Materializes the full exact matrix by querying every pair.
    /// Implementations with a faster path (or an existing matrix)
    /// override this.
    fn materialize(&self) -> DelayMatrix {
        let rows = (0..self.num_iot())
            .map(|i| (0..self.num_servers()).map(|j| self.delay(i, j)).collect())
            .collect();
        DelayMatrix::from_rows(rows)
    }
}

impl DelayOracle for DelayMatrix {
    fn num_iot(&self) -> usize {
        DelayMatrix::num_iot(self)
    }

    fn num_servers(&self) -> usize {
        DelayMatrix::num_servers(self)
    }

    fn delay(&self, iot: usize, server: usize) -> f64 {
        self.get(iot, server)
    }

    fn materialize(&self) -> DelayMatrix {
        self.clone()
    }
}

/// Safety margin applied to landmark bounds: the triangle inequality
/// holds exactly for true distances, but the stored distances carry
/// rounding of at most a few ulps, so the raw difference can exceed
/// the exact delay by a relative error on the order of 1e-15. Scaling
/// by `1 - 1e-9` swamps that while keeping the bound tight.
const BOUND_MARGIN: f64 = 1.0 - 1e-9;

/// Landmark-based delay oracle with lazy exact refinement.
///
/// See the module docs for the design; see
/// [`crate::compress::CompressedCore`] for why refined columns are
/// bit-identical to [`crate::Topology::delay_matrix`] entries.
#[derive(Debug)]
pub struct AltOracle {
    core: CompressedCore,
    iot: Vec<NodeId>,
    servers: Vec<NodeId>,
    /// `landmark_iot[l][i]` = distance from landmark `l` to device `i`.
    landmark_iot: Vec<Vec<f64>>,
    /// `landmark_servers[l][j]` = distance from landmark `l` to server `j`.
    landmark_servers: Vec<Vec<f64>>,
    state: RefCell<AltState>,
}

#[derive(Debug)]
struct AltState {
    /// Per-server exact delay columns, refined on first demand.
    columns: Vec<Option<Vec<f64>>>,
    scratch: SsspScratch,
}

impl AltOracle {
    /// Builds an oracle over `topology` under `model`, selecting up to
    /// `num_landmarks` landmarks by deterministic farthest-point
    /// traversal of the compressed core (seeded at the first server).
    ///
    /// Costs `num_landmarks + 1` SSSP sweeps on the core — independent
    /// of the device count, which is the point.
    ///
    /// # Panics
    ///
    /// Panics if the topology has no servers.
    pub fn new(topology: &Topology, model: &DelayModel, num_landmarks: usize) -> Self {
        let core = CompressedCore::from_graph(topology.graph(), |l| model.link_delay_ms(l));
        let iot = topology.iot_nodes().to_vec();
        let servers = topology.server_nodes().to_vec();
        assert!(!servers.is_empty(), "AltOracle needs at least one server");

        let mut scratch = SsspScratch::new();
        // Farthest-point landmark selection on the core: start from the
        // first server (always a core node), then repeatedly take the
        // core node farthest from everything selected so far. Ties and
        // iteration order are index-based, so selection is fully
        // deterministic for a given topology.
        let n_core = core.core_count();
        let mut min_dist = vec![f64::INFINITY; n_core];
        let mut landmarks: Vec<usize> = Vec::new();
        let seed = core.core_index(servers[0]).expect("servers are never pruned from the core");
        let mut next = seed;
        let mut landmark_iot = Vec::new();
        let mut landmark_servers = Vec::new();
        for _ in 0..num_landmarks.min(n_core) {
            landmarks.push(next);
            let dist = core.core().sssp_into(NodeId(next as u32), &mut scratch);
            landmark_iot.push(iot.iter().map(|&d| core.distance(dist, d)).collect::<Vec<f64>>());
            landmark_servers
                .push(servers.iter().map(|&s| core.distance(dist, s)).collect::<Vec<f64>>());
            let mut best: Option<usize> = None;
            for v in 0..n_core {
                if dist[v] < min_dist[v] {
                    min_dist[v] = dist[v];
                }
                let farther = match best {
                    None => min_dist[v].is_finite() && min_dist[v] > 0.0,
                    Some(b) => min_dist[v].is_finite() && min_dist[v] > min_dist[b],
                };
                if farther && !landmarks.contains(&v) {
                    best = Some(v);
                }
            }
            match best {
                Some(b) => next = b,
                // Everything reachable is already a landmark (tiny or
                // fully disconnected cores): stop early.
                None => break,
            }
        }

        let columns = vec![None; servers.len()];
        AltOracle {
            core,
            iot,
            servers,
            landmark_iot,
            landmark_servers,
            state: RefCell::new(AltState { columns, scratch }),
        }
    }

    /// Number of landmarks actually selected (≤ the requested count).
    pub fn num_landmarks(&self) -> usize {
        self.landmark_iot.len()
    }

    /// Number of server columns refined to exact delays so far.
    pub fn refined_columns(&self) -> usize {
        self.state.borrow().columns.iter().filter(|c| c.is_some()).count()
    }
}

impl DelayOracle for AltOracle {
    fn num_iot(&self) -> usize {
        self.iot.len()
    }

    fn num_servers(&self) -> usize {
        self.servers.len()
    }

    /// Exact delay; refines (and caches) the server's column on first
    /// demand with one compressed-core SSSP sweep.
    fn delay(&self, iot: usize, server: usize) -> f64 {
        let mut state = self.state.borrow_mut();
        let AltState { columns, scratch } = &mut *state;
        let column = &mut columns[server];
        if column.is_none() {
            tacc_obs::counter_add("fast.oracle_refines", 1);
            let dist = self.core.sssp_into(self.servers[server], scratch);
            *column = Some(self.iot.iter().map(|&d| self.core.distance(dist, d)).collect());
        } else {
            tacc_obs::counter_add("fast.oracle_hits", 1);
        }
        column.as_ref().expect("column refined above")[iot]
    }

    /// Landmark lower bound: `max_L |d(L, i) − d(L, j)|` over landmarks
    /// with both distances finite, scaled by `BOUND_MARGIN`. By the
    /// triangle inequality `d(i, j) ≥ |d(L, i) − d(L, j)|` for every
    /// landmark `L`, so the maximum is still a lower bound. Falls back
    /// to `0.0` (trivially admissible) when no landmark sees both
    /// endpoints. If the server's exact column is already refined, the
    /// exact delay is returned instead — it is both available and tight.
    fn delay_bound(&self, iot: usize, server: usize) -> f64 {
        if let Some(column) = &self.state.borrow().columns[server] {
            return column[iot];
        }
        let mut bound = 0.0f64;
        for (di, ds) in self.landmark_iot.iter().zip(&self.landmark_servers) {
            let (a, b) = (di[iot], ds[server]);
            if a.is_finite() && b.is_finite() {
                let diff = (a - b).abs();
                if diff > bound {
                    bound = diff;
                }
            }
        }
        bound * BOUND_MARGIN
    }

    fn materialize(&self) -> DelayMatrix {
        let rows = (0..self.iot.len())
            .map(|i| (0..self.servers.len()).map(|j| self.delay(i, j)).collect())
            .collect();
        DelayMatrix::from_rows_with_nodes(rows, self.iot.clone(), self.servers.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{RandomGeometric, TopologyGenerator};
    use rand::SeedableRng;

    fn sample_topology(seed: u64) -> Topology {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        RandomGeometric::builder()
            .num_iot(60)
            .num_servers(6)
            .num_routers(12)
            .build()
            .unwrap()
            .generate(&mut rng)
            .unwrap()
    }

    #[test]
    fn refined_delays_match_the_matrix_bit_for_bit() {
        let topo = sample_topology(11);
        let model = DelayModel::default();
        let matrix = topo.delay_matrix(&model);
        let oracle = AltOracle::new(&topo, &model, 4);
        for i in 0..matrix.num_iot() {
            for j in 0..matrix.num_servers() {
                assert_eq!(
                    DelayOracle::delay(&oracle, i, j).to_bits(),
                    matrix.get(i, j).to_bits(),
                    "entry ({i}, {j})"
                );
            }
        }
        assert_eq!(oracle.refined_columns(), matrix.num_servers());
    }

    #[test]
    fn bounds_are_admissible_and_tighten_after_refinement() {
        let topo = sample_topology(23);
        let model = DelayModel::default();
        let matrix = topo.delay_matrix(&model);
        let oracle = AltOracle::new(&topo, &model, 4);
        assert!(oracle.num_landmarks() >= 1);
        for i in 0..matrix.num_iot() {
            for j in 0..matrix.num_servers() {
                let bound = oracle.delay_bound(i, j);
                assert!(
                    bound <= matrix.get(i, j),
                    "bound {bound} exceeds exact {} at ({i}, {j})",
                    matrix.get(i, j)
                );
            }
        }
        // Refine one column: its bounds become the exact delays.
        let _ = DelayOracle::delay(&oracle, 0, 0);
        assert_eq!(oracle.refined_columns(), 1);
        for i in 0..matrix.num_iot() {
            assert_eq!(oracle.delay_bound(i, 0).to_bits(), matrix.get(i, 0).to_bits());
        }
    }

    #[test]
    fn lazy_refinement_only_touches_queried_columns() {
        let topo = sample_topology(5);
        let model = DelayModel::default();
        let oracle = AltOracle::new(&topo, &model, 2);
        assert_eq!(oracle.refined_columns(), 0);
        let a = DelayOracle::delay(&oracle, 3, 1);
        let b = DelayOracle::delay(&oracle, 4, 1);
        assert_eq!(oracle.refined_columns(), 1);
        assert!(a.is_finite() && b.is_finite());
    }

    #[test]
    fn matrix_oracle_is_the_identity() {
        let m = DelayMatrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 0.5]]);
        assert_eq!(DelayOracle::num_iot(&m), 2);
        assert_eq!(DelayOracle::num_servers(&m), 2);
        assert_eq!(DelayOracle::delay(&m, 1, 0), 3.0);
        assert_eq!(m.delay_bound(1, 1), 0.5);
        assert_eq!(DelayOracle::materialize(&m), m);
    }

    #[test]
    fn alt_materialize_reproduces_the_matrix() {
        let topo = sample_topology(42);
        let model = DelayModel::default();
        let matrix = topo.delay_matrix(&model);
        let oracle = AltOracle::new(&topo, &model, 3);
        let materialized = DelayOracle::materialize(&oracle);
        assert_eq!(materialized, matrix);
    }
}
