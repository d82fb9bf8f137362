//! # tacc-serve — the always-on control-plane daemon
//!
//! Everything else in the workspace is batch: build a scenario, replay a
//! trace, print a report, exit. This crate keeps the reconfiguration
//! runtime *resident* and speaks [`tacc_proto`]'s length-framed,
//! version-tagged JSON protocol over TCP and/or a Unix socket, so
//! topology events and assignment queries arrive over a wire instead of
//! from files:
//!
//! - **Sessions** ([`Session`]): an `Init` request materializes a
//!   scenario and solves the initial assignment; `Push` bursts append
//!   trace events which **coalesce** — events are journaled durably at
//!   acknowledgement time and applied lazily, many per incremental
//!   maintenance pass, with application order identical to a
//!   `run-trace` replay so state never depends on how events were
//!   batched.
//! - **Bounded-latency queries**: `Solve` runs under a
//!   [`tacc_guard::Supervisor`] with a deterministic work
//!   [`tacc_guard::Budget`] and the full fallback ladder (anytime
//!   primary → greedy → last-known-good), so a query is answered
//!   feasibly within the budget or degrades explicitly — it never hangs.
//! - **Admission control & brownout** ([`SurgeController`]): a `Push`
//!   that would grow the pending backlog past
//!   [`ServeConfig::max_pending`] is shed with a typed `Overloaded`
//!   response carrying a deterministic `retry_after_ms` hint instead of
//!   being queued unboundedly; sustained pressure walks a hysteretic
//!   brownout ladder (solve budgets ÷4, then ÷16, then low-tier
//!   shedding) that recovers once the backlog drains.
//! - **Client resilience** ([`RetryPolicy`]): the bundled [`Client`]
//!   honors `retry_after_ms` with seeded, jittered exponential backoff
//!   and idempotent re-sends keyed on a push sequence number, so a shed
//!   burst is delivered exactly once even across retries.
//! - **Durability** ([`tacc_chaos::Journal`]): every accepted event is
//!   write-ahead journaled (one fsync per burst) before it is
//!   acknowledged, with periodic snapshots; a SIGKILLed daemon
//!   restarted with `--recover` rebuilds byte-identical state from the
//!   journal alone.
//! - **Observability**: the [`tacc_obs`] registry is scrapeable over the
//!   wire (`Metrics`) and an `--obs-out` JSONL stream records the
//!   deterministic session timeline — byte-identical across two
//!   same-seed scripted sessions.
//!
//! The daemon is deliberately single-threaded: connections are served
//! sequentially, which keeps every session transition totally ordered
//! (no interleaving to reason about) and matches the determinism
//! contract of the rest of the workspace. [`Client`] is the library the
//! `tacc client` subcommand and the integration tests drive.

#![warn(missing_docs)]

mod client;
mod config;
mod error;
mod server;
mod session;
mod signal;
mod surge;
mod zoned;

pub use client::{Client, ClientConfig, RetryPolicy};
pub use config::ServeConfig;
pub use error::ServeError;
pub use server::{dispatch_request, Listener, NoHooks, Server, ServerHooks};
pub use session::{JournalState, Session, SessionStats};
pub use signal::{install_termination_handler, termination_requested};
pub use surge::{SurgeConfig, SurgeController};
pub use zoned::{zoned_solve, ZonedAnswer};
