//! Daemon tuning knobs.

use std::path::PathBuf;

use crate::surge::SurgeConfig;

/// How the daemon batches, sheds, budgets and persists. Every knob has a
/// deterministic effect — none of them trades correctness, only latency
/// against throughput.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Pending events that trigger an automatic coalesced flush. Bursts
    /// smaller than this are applied when a query needs current state
    /// (or on an explicit `Flush`).
    pub batch_size: usize,
    /// Admission-control cap: a `Push` that would grow the pending
    /// backlog past this is rejected whole with a typed `Overloaded`
    /// response.
    pub max_pending: usize,
    /// Default work budget (deterministic solver units) for `Solve`
    /// queries that the supervisor enforces.
    pub query_budget: u64,
    /// Journal a full snapshot every this many applied events (`0` =
    /// only the implicit snapshot cadence of recovery, i.e. never).
    /// Snapshots bound recovery replay length, nothing else.
    pub snapshot_every: u64,
    /// Read timeout on an open connection, in milliseconds: how often a
    /// silent client lets the daemon check its shutdown flags. Between
    /// connections a signal ends the accept wait at once.
    pub read_timeout_ms: u64,
    /// Algorithm answering `Solve` queries; must be anytime-capable
    /// (local-search, q-learning, sarsa, simulated-annealing, ...).
    pub algorithm: String,
    /// Write-ahead journal path (`None` = no durability).
    pub journal: Option<PathBuf>,
    /// Deterministic JSONL event stream path (`None` = no stream).
    pub obs_out: Option<PathBuf>,
    /// Zone-decomposed Solve: `>= 2` partitions the alive servers into
    /// this many zones and solves per-zone sub-instances under
    /// per-zone budget shares that sum to the query budget; `0`/`1` =
    /// the flat global sub-instance.
    pub zones: usize,
    /// Brownout ladder tuning (watermarks, hysteresis, master switch);
    /// see [`crate::SurgeController`].
    pub surge: SurgeConfig,
}

impl Default for ServeConfig {
    /// Flush every 64 pending events, shed past 4096, 2000 solver units
    /// per query, snapshot every 256 applied events, 100 ms read timeout,
    /// local-search queries (E16: at the daemon's shapes it matches or
    /// beats q-learning's objective, 13 to 61 times faster), no journal,
    /// no stream.
    fn default() -> Self {
        ServeConfig {
            batch_size: 64,
            max_pending: 4096,
            query_budget: 2000,
            snapshot_every: 256,
            read_timeout_ms: 100,
            algorithm: "local-search".to_owned(),
            journal: None,
            obs_out: None,
            zones: 0,
            surge: SurgeConfig::default(),
        }
    }
}
