//! Wiring replication into the daemon through [`ServerHooks`].

use std::path::Path;

use tacc_proto::{ErrorCode, Request, Response};
use tacc_serve::{Client, ClientConfig, ServeConfig, ServeError, ServerHooks, Session};

use crate::{JournalTail, StandbyCore};

/// The primary's shipping side: tails the primary's journal and pushes
/// every newly durable line to the standby, keeping an in-memory
/// backlog across standby outages so nothing is skipped — `base` in
/// each `Replicate` is the shipped cursor, and the standby applies
/// idempotently, so a re-ship after a failed exchange never
/// double-applies.
#[derive(Debug)]
pub struct Replicator {
    addr: String,
    config: ClientConfig,
    client: Option<Client>,
    tail: JournalTail,
    backlog: Vec<String>,
    /// Lines the standby has acknowledged as durable.
    shipped: u64,
}

impl Replicator {
    /// A replicator tailing `journal` and shipping to `standby_addr`
    /// (an address as [`Client::connect_failover`] parses one: a `/`
    /// or a `.sock` suffix marks a Unix socket path, anything else is
    /// TCP `host:port`).
    pub fn new(journal: &Path, standby_addr: &str) -> Replicator {
        Replicator::with_config(journal, standby_addr, ClientConfig::default())
    }

    /// As [`Replicator::new`] with explicit client timeouts.
    pub fn with_config(journal: &Path, standby_addr: &str, config: ClientConfig) -> Replicator {
        Replicator {
            addr: standby_addr.to_owned(),
            config,
            client: None,
            tail: JournalTail::new(journal),
            backlog: Vec::new(),
            shipped: 0,
        }
    }

    /// Lines the standby has acknowledged as durable.
    pub fn shipped(&self) -> u64 {
        self.shipped
    }

    /// Lines read from the journal but not yet acknowledged.
    pub fn backlog(&self) -> usize {
        self.backlog.len()
    }

    /// The lazily-dialed connection to the standby.
    fn client(&mut self) -> Result<&mut Client, ServeError> {
        if self.client.is_none() {
            self.client = Some(Client::connect_failover_with(&self.addr, self.config.clone())?);
        }
        Ok(self.client.as_mut().expect("dialed above"))
    }

    /// One exchange with the standby, re-dialing once on a transport
    /// failure (the standby may have restarted between syncs).
    fn exchange(&mut self, request: &Request) -> Result<Response, ServeError> {
        match self.client()?.request(request) {
            Ok(response) => Ok(response),
            Err(e) if e.is_disconnect() => {
                self.client = None;
                self.client()?.request(request).map_err(|e| {
                    self.client = None;
                    e
                })
            }
            Err(e) => {
                self.client = None;
                Err(e)
            }
        }
    }

    /// Ships everything newly durable in the journal (plus any backlog
    /// from earlier failed syncs) and blocks for the standby's
    /// acknowledgement. Returns the number of lines acknowledged by
    /// this call; `Ok(0)` when there was nothing to ship.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`]/[`ServeError::State`] when tailing fails or
    /// the standby is unreachable or acknowledges short — the unshipped
    /// lines stay in the backlog and re-ship on the next sync.
    pub fn sync(&mut self) -> Result<u64, ServeError> {
        let fresh = self.tail.poll()?;
        self.backlog.extend(fresh);
        if self.backlog.is_empty() {
            return Ok(0);
        }
        tacc_obs::gauge_set("ha.lag", self.backlog.len() as f64);
        let request = Request::Replicate { base: self.shipped, lines: self.backlog.clone() };
        let expected = self.shipped + self.backlog.len() as u64;
        match self.exchange(&request)? {
            Response::ReplicaAck { acked } if acked >= expected => {
                let n = self.backlog.len() as u64;
                self.shipped = acked;
                self.backlog.clear();
                tacc_obs::gauge_set("ha.lag", 0.0);
                Ok(n)
            }
            Response::ReplicaAck { acked } => Err(ServeError::state(format!(
                "standby acknowledged {acked} lines where {expected} were shipped"
            ))),
            Response::Error { code, message } => Err(ServeError::state(format!(
                "standby rejected replication ({code:?}): {message}"
            ))),
            other => Err(ServeError::state(format!("standby answered {other:?} to a Replicate"))),
        }
    }
}

/// The [`ServerHooks`] implementation that turns a plain daemon into
/// one half of a primary/standby pair.
///
/// - **Standby role** ([`HaHooks::standby`]): intercepts `Replicate`
///   (apply + ack) and `Promote` (hand the live replica over as a
///   serving [`Session`] and install it — subsequent requests are
///   served as the new primary). `Hello`, `Metrics` and `Shutdown` pass
///   through; anything else is refused with a typed error until
///   promotion, so a confused client cannot split-brain the pair.
/// - **Primary role** ([`HaHooks::primary`]): after every request
///   dispatched while a session exists, ships the newly journaled lines
///   and — if the standby could not acknowledge them — downgrades an
///   `Accepted` to a retryable error, so no client ever holds an ack
///   the standby doesn't. Before the session exists nothing ships: the
///   file at the journal path is not yet the session's journal.
#[derive(Debug, Default)]
pub struct HaHooks {
    standby: Option<StandbyCore>,
    replicator: Option<Replicator>,
}

impl HaHooks {
    /// Hooks for a daemon starting as the standby.
    pub fn standby(core: StandbyCore) -> HaHooks {
        HaHooks { standby: Some(core), replicator: None }
    }

    /// Hooks for a daemon starting as the primary, shipping to one
    /// standby.
    pub fn primary(replicator: Replicator) -> HaHooks {
        HaHooks { standby: None, replicator: Some(replicator) }
    }

    /// Whether this daemon is (still) the standby.
    pub fn is_standby(&self) -> bool {
        self.standby.is_some()
    }
}

impl ServerHooks for HaHooks {
    fn pre_dispatch(
        &mut self,
        request: Request,
        session: &mut Option<Session>,
        _cfg: &ServeConfig,
    ) -> Result<(Response, bool), Request> {
        let Some(core) = self.standby.as_mut() else {
            return Err(request);
        };
        match request {
            Request::Replicate { base, lines } => {
                let response = match core.apply(base, &lines) {
                    Ok(acked) => Response::ReplicaAck { acked },
                    Err(e) => Response::Error {
                        code: ErrorCode::Internal,
                        message: format!("replication apply failed: {e}"),
                    },
                };
                Ok((response, false))
            }
            Request::Promote => match core.promote() {
                Ok(promoted) => {
                    let cursor = promoted.cursor();
                    *session = Some(promoted);
                    self.standby = None;
                    tacc_obs::counter_add("serve.sessions", 1);
                    Ok((Response::Promoted { cursor, was_primary: false }, false))
                }
                Err(e) => Ok((
                    Response::Error {
                        code: ErrorCode::Internal,
                        message: format!("promotion failed: {e}"),
                    },
                    false,
                )),
            },
            passthrough @ (Request::Hello { .. } | Request::Metrics | Request::Shutdown) => {
                Err(passthrough)
            }
            _ => Ok((
                Response::Error {
                    code: ErrorCode::BadRequest,
                    message: "this daemon is a standby; send Promote first".to_owned(),
                },
                false,
            )),
        }
    }

    fn post_dispatch(&mut self, response: Response, session: &mut Option<Session>) -> Response {
        let Some(replicator) = self.replicator.as_mut() else {
            return response;
        };
        // Before `Init` (or `--recover`) opens the session's journal, the
        // file at that path is whatever an earlier run left there, and
        // `Init` truncates it: shipping it would leave the tail's offset
        // inside a file that no longer exists. Ship nothing until then,
        // so the first read starts at line 0 of the session's journal.
        if session.is_none() {
            return response;
        }
        match replicator.sync() {
            Ok(_) => response,
            Err(e) => {
                tacc_obs::counter_add("ha.replication_errors", 1);
                // An ack the standby doesn't hold would be lost by a
                // failover; withdraw it. The client retries under the
                // same seq and the dedup record answers once the
                // standby catches back up.
                if matches!(response, Response::Accepted { .. }) {
                    Response::Error {
                        code: ErrorCode::Internal,
                        message: format!("replication to standby failed; retry: {e}"),
                    }
                } else {
                    response
                }
            }
        }
    }
}
