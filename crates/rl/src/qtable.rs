use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::StateKey;

/// Identity hasher for [`StateKey`] lookups.
///
/// A `StateKey` *is already* an FNV-1a hash of the MDP state, so feeding
/// it through SipHash again (the `HashMap` default) only burns cycles in
/// the innermost training loop. This hasher passes the 64-bit key through
/// unchanged.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassthroughHasher(u64);

impl Hasher for PassthroughHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("StateKey hashes via write_u64 only");
    }

    fn write_u64(&mut self, value: u64) {
        self.0 = value;
    }
}

type PassthroughState = BuildHasherDefault<PassthroughHasher>;

/// Per-state storage: action values and visit counters side by side, so
/// one hash lookup serves both.
#[derive(Debug, Clone)]
struct QRow {
    values: Vec<f64>,
    visits: Vec<u32>,
}

/// A tabular action-value store over hashed MDP states.
///
/// Unvisited state-actions default to 0.0, which is *optimistic* for this
/// MDP (all true returns are negative) and therefore encourages systematic
/// early exploration. Per-pair visit counts support visit-decayed learning
/// rates.
#[derive(Debug, Clone, Default)]
pub struct QTable {
    rows: HashMap<StateKey, QRow, PassthroughState>,
    num_actions: usize,
    /// The values of every unvisited state.
    zeros: Vec<f64>,
}

impl QTable {
    /// Creates an empty table for `num_actions` actions per state.
    ///
    /// # Panics
    ///
    /// Panics if `num_actions` is 0.
    pub fn new(num_actions: usize) -> Self {
        assert!(num_actions > 0, "need at least one action");
        QTable { rows: HashMap::default(), num_actions, zeros: vec![0.0; num_actions] }
    }

    /// Q(s, a), defaulting to 0.0 for unvisited pairs.
    pub fn get(&self, state: StateKey, action: usize) -> f64 {
        self.row_ref(state)[action]
    }

    /// Borrowed action values of a state, all 0.0 when unvisited. One
    /// hash probe serves a whole masked argmax scan.
    pub fn row_ref(&self, state: StateKey) -> &[f64] {
        self.rows.get(&state).map_or(&self.zeros, |row| &row.values)
    }

    /// Initializes a state's action values if the state has never been
    /// seen, using `init` to produce the row. Subsequent calls are no-ops.
    ///
    /// This is how the *topology-aware delay prior* enters the table:
    /// the Q-learning solver seeds every new state with `−d(i, a)` so the
    /// untrained greedy policy already equals delay-greedy and training
    /// can only refine it.
    ///
    /// # Panics
    ///
    /// Panics if `init` returns a row of the wrong width.
    pub fn ensure_row(&mut self, state: StateKey, init: impl FnOnce() -> Vec<f64>) {
        if !self.rows.contains_key(&state) {
            let values = init();
            assert_eq!(values.len(), self.num_actions, "prior row has the wrong width");
            let visits = vec![0; self.num_actions];
            self.rows.insert(state, QRow { values, visits });
        }
    }

    /// Applies the TD update `Q(s,a) += α · (target − Q(s,a))` with
    /// `α = alpha_of(visits)`, the pair's *pre-update* visit count, and
    /// bumps that count — one hash probe for both.
    ///
    /// # Panics
    ///
    /// Panics if `action` is out of range.
    pub fn update_with(
        &mut self,
        state: StateKey,
        action: usize,
        alpha_of: impl FnOnce(u32) -> f64,
        target: f64,
    ) {
        assert!(action < self.num_actions, "action {action} out of range");
        let row = self.rows.entry(state).or_insert_with(|| QRow {
            values: vec![0.0; self.num_actions],
            visits: vec![0; self.num_actions],
        });
        let alpha = alpha_of(row.visits[action]);
        row.values[action] += alpha * (target - row.values[action]);
        row.visits[action] = row.visits[action].saturating_add(1);
    }

    /// Number of distinct states visited.
    pub fn num_states(&self) -> usize {
        self.rows.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> StateKey {
        // Build distinct keys through the MDP-independent debug surface:
        // hashing different devices yields different keys in practice; for
        // unit tests we only need *some* distinct keys, so reuse raw
        // construction via a tiny MDP-free helper.
        use tacc_gap::GapInstance;
        use tacc_topology::DelayMatrix;
        let delays = DelayMatrix::from_rows(vec![vec![1.0, 1.0]; 8]);
        let inst = GapInstance::builder(delays)
            .uniform_demand(1.0)
            .uniform_capacity(10.0)
            .build()
            .unwrap();
        let mut mdp = crate::AssignmentMdp::new(&inst, crate::EpisodeOrder::Index, 4, 1.0);
        for _ in 0..n {
            mdp.apply(0);
        }
        mdp.state_key()
    }

    #[test]
    fn defaults_are_zero_and_optimistic() {
        let q = QTable::new(3);
        let s = key(0);
        assert_eq!(q.get(s, 0), 0.0);
        assert_eq!(q.row_ref(s), &[0.0; 3]);
        assert_eq!(q.num_states(), 0);
    }

    #[test]
    fn update_moves_toward_target() {
        let mut q = QTable::new(2);
        let s = key(1);
        let mut seen = Vec::new();
        for _ in 0..2 {
            q.update_with(
                s,
                1,
                |visits| {
                    seen.push(visits);
                    0.5
                },
                -10.0,
            );
        }
        assert_eq!(q.get(s, 1), -7.5);
        assert_eq!(seen, vec![0, 1], "the step size sees the pre-update visit count");
        q.update_with(s, 0, |visits| f64::from(visits + 1) / 2.0, -4.0);
        assert_eq!(q.row_ref(s), &[-2.0, -7.5]);
    }

    #[test]
    fn states_are_counted() {
        let mut q = QTable::new(2);
        q.update_with(key(0), 0, |_| 0.1, 1.0);
        q.update_with(key(0), 1, |_| 0.1, 1.0);
        q.update_with(key(3), 0, |_| 0.1, 1.0);
        assert_eq!(q.num_states(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_action_panics() {
        let mut q = QTable::new(2);
        q.update_with(key(0), 2, |_| 0.1, 0.0);
    }
}
