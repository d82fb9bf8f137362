//! Serializable runtime state.
//!
//! A [`RuntimeSnapshot`] captures everything [`crate::Runtime`] needs to
//! resume a trace replay bit-for-bit: the configuration, the drifted
//! topology, the delay-maintenance state (each server's shortest-path
//! tree as its source and parent links, the per-link disable counts and
//! the failures), the assignment, the degradation sets (wanted and
//! unreachable devices), and the deterministic metrics. Derived data is
//! deliberately *not* stored: demands and capacities never change, so
//! the restore path re-derives them from the trace's scenario; the link
//! costs follow from the topology and the disable counts, the tree
//! distances from the costs and the parents, and the delay matrix is
//! read out of the rebuilt trees.
//!
//! Format version 3 stores the trees as parents only. Version-2
//! snapshots, which also carry the tree distances, both link-cost arrays
//! and possibly the maintainer's old `matrix` member, restore through
//! the same code: those members are ignored. Version 2 added the trace
//! scenario (so restore can reject a snapshot replayed against the wrong
//! trace) and the unreachable set (partition/degradation state).
//! Version-1 snapshots are rejected with a typed error naming the
//! versions this build reads.

use serde::{Deserialize, Serialize};
use serde_json::Value;
use tacc_gap::Assignment;
use tacc_topology::Topology;
use tacc_workload::TraceScenario;

use crate::maintainer::MaintainerSnapshot;
use crate::metrics::CoreMetrics;
use crate::runtime::RuntimeConfig;
use crate::RuntimeError;

/// The complete resumable state of a [`crate::Runtime`], produced by
/// [`crate::Runtime::snapshot`] and consumed by [`crate::Runtime::restore`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuntimeSnapshot {
    /// Snapshot format version; restore rejects other versions.
    pub version: u32,
    /// The trace scenario the runtime was built from, when known
    /// (`None` for runtimes constructed directly over a [`tacc_workload::Scenario`]).
    /// Restore rejects a snapshot whose scenario disagrees with the
    /// trace it is replayed against.
    pub scenario: Option<TraceScenario>,
    /// The runtime's configuration, restored verbatim.
    pub config: RuntimeConfig,
    /// The topology including all applied latency drifts.
    pub topology: Topology,
    /// Delay-maintenance state: each shortest-path tree's source and
    /// parent links, the link disable refcounts, failed servers and the
    /// savings baseline. Restore rebuilds the link costs and distances
    /// from these and the topology, and reads the delay matrix out of
    /// the rebuilt trees.
    pub maintainer: MaintainerSnapshot,
    /// The device → server assignment at the snapshot point.
    pub assignment: Assignment,
    /// Which devices want service (shed and unreachable devices stay
    /// wanted and are re-admitted when capacity or connectivity return).
    pub wanted: Vec<bool>,
    /// Which wanted-but-unassigned devices currently have no alive
    /// server at finite delay (partitioned away, as opposed to shed for
    /// capacity).
    pub unreachable: Vec<bool>,
    /// The cluster's internal migration counter (kept so
    /// `DynamicCluster::migrations` stays continuous across a restore).
    pub migrations: u64,
    /// Trace events consumed before the snapshot; replay resumes here.
    pub cursor: u64,
    /// Deterministic metrics accumulated so far. Wall-clock latency
    /// histograms are measurements, not state, and are not snapshotted.
    pub metrics: CoreMetrics,
}

impl RuntimeSnapshot {
    /// The snapshot format this build writes.
    pub const FORMAT_VERSION: u32 = 3;

    /// The snapshot formats this build reads: version 2's extra
    /// members (tree distances, link-cost arrays, the delay matrix) are
    /// ignored.
    pub const READ_VERSIONS: [u32; 2] = [2, RuntimeSnapshot::FORMAT_VERSION];

    /// The typed refusal of a snapshot in a format this build does not
    /// read.
    pub(crate) fn unread_version(version: impl std::fmt::Display) -> RuntimeError {
        let [oldest, newest] = RuntimeSnapshot::READ_VERSIONS;
        RuntimeError::InvalidSnapshot {
            reason: format!(
                "snapshot format version {version} (this build reads versions {oldest} and \
                 {newest})"
            ),
        }
    }

    /// Serializes the snapshot to deterministic, compact JSON — the same
    /// bytes a journal `Snapshot` record carries, so a `--snapshot-out`
    /// file, a served `Snapshot` answer and a journaled restore point are
    /// one encoding.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot serialization is infallible")
    }

    /// Parses a snapshot previously produced by [`RuntimeSnapshot::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidSnapshot`] on malformed JSON, a
    /// format-version mismatch (diagnosed before the shape is checked,
    /// so old snapshots get a clear message instead of a field error),
    /// or a shape mismatch.
    pub fn from_json(text: &str) -> Result<RuntimeSnapshot, RuntimeError> {
        let value: Value = serde_json::from_str(text).map_err(|e| {
            RuntimeError::InvalidSnapshot { reason: format!("malformed JSON: {e}") }
        })?;
        if let Some(Value::UInt(version)) = value.get("version") {
            if !RuntimeSnapshot::READ_VERSIONS.iter().any(|&v| u64::from(v) == *version) {
                return Err(RuntimeSnapshot::unread_version(version));
            }
        }
        serde_json::from_value(&value)
            .map_err(|e| RuntimeError::InvalidSnapshot { reason: e.to_string() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malformed_json_is_a_typed_error() {
        let err = RuntimeSnapshot::from_json("{not json").unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidSnapshot { .. }));
        assert!(err.to_string().contains("malformed JSON"));
    }

    #[test]
    fn version_mismatch_is_diagnosed_before_shape() {
        // A version-1 snapshot lacks the v2 fields; the version check
        // must fire first and name both versions.
        let err = RuntimeSnapshot::from_json(r#"{"version": 1, "cursor": 3}"#).unwrap_err();
        let RuntimeError::InvalidSnapshot { reason } = &err else {
            panic!("expected InvalidSnapshot, got {err:?}");
        };
        assert!(reason.contains("version 1"), "got: {reason}");
        assert!(reason.contains("reads versions 2 and 3"), "got: {reason}");
    }

    #[test]
    fn shape_mismatch_is_a_typed_error() {
        let err = RuntimeSnapshot::from_json(r#"{"version": 3}"#).unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidSnapshot { .. }));
    }
}
