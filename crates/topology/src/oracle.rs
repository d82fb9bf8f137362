//! ALT delay bounds: answer `d(i, j)` with a cheap lower bound instead
//! of an exact shortest-path delay, without materializing the IoT ×
//! server delay matrix.
//!
//! [`AltOracle`] applies the ALT technique (A*, Landmarks, Triangle
//! inequality). Construction runs one SSSP sweep per landmark on the
//! leaf-compressed core and keeps each landmark's distances to every
//! device and server; [`AltOracle::delay_bound`] then answers in
//! `O(landmarks)`. The bound is conservative: it is scaled down by one
//! part in 10⁹ so that ulp-level rounding in the landmark distance
//! tables can never push it above the exact delay.

use crate::compress::CompressedCore;
use crate::csr::SsspScratch;
use crate::delay::DelayModel;
use crate::{NodeId, Topology};

/// Safety margin applied to landmark bounds: the triangle inequality
/// holds exactly for true distances, but the stored distances carry
/// rounding of at most a few ulps, so the raw difference can exceed
/// the exact delay by a relative error on the order of 1e-15. Scaling
/// by `1 - 1e-9` swamps that while keeping the bound tight.
const BOUND_MARGIN: f64 = 1.0 - 1e-9;

/// Landmark-based lower bounds on device → server delays.
///
/// See the module docs for the design.
#[derive(Debug)]
pub struct AltOracle {
    /// `landmark_iot[l][i]` = distance from landmark `l` to device `i`.
    landmark_iot: Vec<Vec<f64>>,
    /// `landmark_servers[l][j]` = distance from landmark `l` to server `j`.
    landmark_servers: Vec<Vec<f64>>,
}

impl AltOracle {
    /// Builds an oracle over `topology` under `model`, selecting up to
    /// `num_landmarks` landmarks by deterministic farthest-point
    /// traversal of the compressed core (seeded at the first server).
    ///
    /// Costs one SSSP sweep per landmark on the core — independent
    /// of the device count, which is the point.
    ///
    /// # Panics
    ///
    /// Panics if the topology has no servers.
    pub fn new(topology: &Topology, model: &DelayModel, num_landmarks: usize) -> Self {
        let core = CompressedCore::from_graph(topology.graph(), |l| model.link_delay_ms(l));
        let (iot, servers) = (topology.iot_nodes(), topology.server_nodes());
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

        AltOracle { landmark_iot, landmark_servers }
    }

    /// Number of landmarks actually selected (≤ the requested count).
    pub fn num_landmarks(&self) -> usize {
        self.landmark_iot.len()
    }

    /// Landmark lower bound on the delay from device `iot` to server
    /// `server`: `max_L |d(L, i) − d(L, j)|` over landmarks with both
    /// distances finite, scaled by `BOUND_MARGIN`. By the triangle
    /// inequality `d(i, j) ≥ |d(L, i) − d(L, j)|` for every landmark
    /// `L`, so the maximum is still a lower bound. Falls back to `0.0`
    /// (trivially admissible) when no landmark sees both endpoints.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn delay_bound(&self, iot: usize, server: usize) -> f64 {
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
    }
}
