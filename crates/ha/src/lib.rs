//! # tacc-ha — journal-shipping hot-standby replication
//!
//! The daemon in [`tacc_serve`] is durable but singular: a SIGKILL
//! loses availability until someone restarts it with `--recover`. This
//! crate turns it into a primary/standby *pair* with deterministic,
//! byte-identical failover, built from three small parts that plug into
//! the daemon through [`tacc_serve::ServerHooks`] — the core daemon
//! knows nothing about replication:
//!
//! - **[`Replicator`]** (primary side): tails the primary's own
//!   write-ahead journal with [`JournalTail`] and ships every newly
//!   durable line to the standby over the ordinary wire protocol
//!   (`Replicate` → `ReplicaAck`, protocol v3). It runs from
//!   [`HaHooks`]'s `post_dispatch` — *after* the request was applied and
//!   journaled, *before* the acknowledgement reaches the wire — so an
//!   `Accepted` the client sees implies the standby fsync'd the burst.
//!   If the standby cannot be reached, the `Accepted` is downgraded to
//!   a retryable error: nothing is ever acked that the standby does
//!   not hold.
//! - **[`StandbyCore`]** (standby side): receives shipped lines
//!   idempotently (re-ships of already-held lines are acknowledged, a
//!   gap is a typed error), verifies each parses as a journal record,
//!   appends them verbatim to its own journal (one fsync per batch),
//!   and keeps a live replica — the [`tacc_serve::JournalState`] the
//!   copy determines — by stepping every shipped event before it acks.
//! - **[`HaHooks`]**: the [`tacc_serve::ServerHooks`] implementation
//!   wiring both into the daemon. On the standby it intercepts
//!   `Replicate` and `Promote`; `Promote` hands the replica over as the
//!   serving [`tacc_serve::Session`] through the same tail
//!   ([`tacc_serve::Session::resume`]) a `--recover` restart ends in,
//!   without reading the journal copy back. That restores the push
//!   seq-dedup record, so a burst the dead primary acked and a
//!   failing-over client re-sends is answered from the record instead
//!   of applied twice. Under `TACC_CHECK=1` promotion also rebuilds the
//!   copy as recovery would and refuses a replica that differs.
//!
//! Failover is driven from the client side:
//! [`tacc_serve::Client::connect_failover`] holds the address list,
//! rotates on connection loss, and sends a best-effort `Promote` when
//! it lands on a different daemon.
//!
//! Every journal write, fsync, snapshot, socket and replication step on
//! this path carries a [`tacc_failpoints`] probe; the failpoint soak in
//! this crate's tests sweeps each of them at every occurrence index and
//! asserts the pair either degrades to a typed error or fails over
//! byte-identically — never corrupts state, never loses an acked push.

#![warn(missing_docs)]
#![warn(clippy::pedantic)]
#![allow(clippy::module_name_repetitions)]
#![allow(clippy::must_use_candidate)]
#![allow(clippy::missing_panics_doc)]
// "IoT" et al. trip the doc-markdown heuristic throughout the workspace.
#![allow(clippy::doc_markdown)]
// Line counts are bounded by `Vec` lengths; narrowing is safe.
#![allow(clippy::cast_possible_truncation)]
#![allow(clippy::cast_precision_loss)]

mod hooks;
mod standby;
mod tail;

pub use hooks::{HaHooks, Replicator};
pub use standby::StandbyCore;
pub use tail::JournalTail;

use tacc_serve::ServeError;

/// Probes a named failpoint, mapping a firing to the serve-layer error
/// type (same shape as the daemon's own probes).
pub(crate) fn failpoint(name: &'static str) -> Result<(), ServeError> {
    tacc_failpoints::check(name).map_err(|f| ServeError::io(name, &f.to_io_error()))
}
