//! The accept/dispatch loop.
//!
//! One thread serves every connection in turn. Between connections the
//! loop blocks in one `poll(2)` over all bound listeners (declared in
//! `signal.rs`) and accepts as soon as a client knocks, so a connection
//! never waits on a timer: not a client's first connect, not a primary's
//! first dial to its standby, not the redial and `Promote` of a
//! failover. SIGTERM/SIGINT end the wait at once, and `ACCEPT_WAIT_MS`
//! bounds it. Listeners stay nonblocking, so a wake-up that finds nobody
//! to accept just waits again.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

use serde_json::Value;
use tacc_proto::{
    decode_request, encode_response, read_frame_event, write_frame, ErrorCode, FrameEvent,
    ProtoError, Request, Response, PROTOCOL_VERSION,
};
use tacc_runtime::Runtime;

use crate::session::failpoint;
use crate::signal::{termination_requested, wait_readable};
use crate::{ServeConfig, ServeError, Session};

/// Upper bound on one accept wait, in milliseconds. A connection or a
/// signal ends the wait at once; the bound only matters for a signal
/// that lands between the loop's flag check and the `poll(2)` call.
const ACCEPT_WAIT_MS: u16 = 5;

/// Role-specific interception around the dispatcher, the seam the
/// high-availability layer plugs into without the core daemon knowing
/// about replication:
///
/// - a **standby** implements [`ServerHooks::pre_dispatch`] to consume
///   `Replicate`/`Promote` (and fence the normal vocabulary until
///   promoted);
/// - a **primary** implements [`ServerHooks::post_dispatch`] to ship
///   freshly journaled lines after each request — and to *downgrade* an
///   acknowledgement whose replication failed, so nothing is acked that
///   the standby does not hold.
///
/// The default implementations are the identity; [`Server::run`] uses
/// [`NoHooks`].
pub trait ServerHooks {
    /// Runs before the dispatcher. Return `Ok` to answer the request
    /// yourself (short-circuiting dispatch), or give the request back
    /// with `Err` to let normal dispatch proceed. The `bool` asks the
    /// serve loop to stop.
    // The `Err` variant *is* the request, handed back by value so the
    // dispatcher can consume it without a clone — its size is the point.
    #[allow(clippy::result_large_err)]
    fn pre_dispatch(
        &mut self,
        request: Request,
        _session: &mut Option<Session>,
        _cfg: &ServeConfig,
    ) -> Result<(Response, bool), Request> {
        Err(request)
    }

    /// Runs after the dispatcher, before the response is written to the
    /// wire. May replace the response.
    fn post_dispatch(&mut self, response: Response, _session: &mut Option<Session>) -> Response {
        response
    }
}

/// The identity hooks: a plain single daemon.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoHooks;

impl ServerHooks for NoHooks {}

/// One bound endpoint the daemon accepts on.
#[derive(Debug)]
pub enum Listener {
    /// A TCP listener.
    Tcp(TcpListener),
    /// A Unix-domain-socket listener (with its path, for cleanup).
    Unix(UnixListener, PathBuf),
}

impl AsRawFd for Listener {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Unix(l, _) => l.as_raw_fd(),
        }
    }
}

/// The daemon: bound listeners, the (at most one) live session, and the
/// serve loop. Single-threaded by design — connections are served
/// sequentially, so every session transition is totally ordered and the
/// obs/journal byte streams are reproducible.
#[derive(Debug)]
pub struct Server {
    listeners: Vec<Listener>,
    cfg: ServeConfig,
    session: Option<Session>,
    stop: bool,
}

impl Server {
    /// Binds the requested endpoints (`--listen` TCP address and/or
    /// `--uds` socket path; at least one required). A pre-existing
    /// socket file at the UDS path is replaced.
    ///
    /// # Errors
    ///
    /// [`ServeError::State`] when no endpoint was requested,
    /// [`ServeError::Io`] on bind failures.
    pub fn bind(
        tcp: Option<&str>,
        uds: Option<&Path>,
        cfg: ServeConfig,
    ) -> Result<Server, ServeError> {
        let mut listeners = Vec::new();
        if let Some(addr) = tcp {
            let listener = TcpListener::bind(addr)
                .map_err(|e| ServeError::io(&format!("binding tcp {addr}"), &e))?;
            listener.set_nonblocking(true).map_err(|e| ServeError::io("tcp nonblocking", &e))?;
            listeners.push(Listener::Tcp(listener));
        }
        if let Some(path) = uds {
            // A daemon that died hard leaves its socket file behind.
            std::fs::remove_file(path).ok();
            let listener = UnixListener::bind(path)
                .map_err(|e| ServeError::io(&format!("binding uds {}", path.display()), &e))?;
            listener.set_nonblocking(true).map_err(|e| ServeError::io("uds nonblocking", &e))?;
            listeners.push(Listener::Unix(listener, path.to_path_buf()));
        }
        if listeners.is_empty() {
            return Err(ServeError::state("serve needs --listen and/or --uds"));
        }
        Ok(Server { listeners, cfg, session: None, stop: false })
    }

    /// The bound endpoints, for the startup banner.
    pub fn endpoints(&self) -> Vec<String> {
        self.listeners
            .iter()
            .map(|l| match l {
                Listener::Tcp(t) => {
                    t.local_addr().map_or_else(|_| "tcp:?".to_owned(), |a| format!("tcp:{a}"))
                }
                Listener::Unix(_, path) => format!("uds:{}", path.display()),
            })
            .collect()
    }

    /// Rebuilds the session from the configured journal before serving
    /// (the `--recover` path). See [`Session::recover`].
    ///
    /// # Errors
    ///
    /// As [`Session::recover`].
    pub fn recover_session(&mut self) -> Result<(), ServeError> {
        self.session = Some(Session::recover(&self.cfg)?);
        Ok(())
    }

    /// The live runtime, when a session exists (tests, banners).
    pub fn runtime(&self) -> Option<&Runtime> {
        self.session.as_ref().map(Session::runtime)
    }

    /// Serves until a `Shutdown` request or a termination signal, then
    /// closes the session cleanly (final flush + journal snapshot + obs
    /// stream finish). Wire damage — truncated frames, oversized length
    /// prefixes, hostile payloads — costs at most the offending
    /// *connection*; this loop only exits on an explicit stop.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on accept or accept-wait failures that are not
    /// transient, and session-close failures at shutdown.
    pub fn run(&mut self) -> Result<(), ServeError> {
        self.run_with(&mut NoHooks)
    }

    /// [`Server::run`] with role-specific [`ServerHooks`] — how a
    /// primary ships its journal and a standby consumes it.
    ///
    /// # Errors
    ///
    /// As [`Server::run`].
    pub fn run_with<H: ServerHooks>(&mut self, hooks: &mut H) -> Result<(), ServeError> {
        let fds: Vec<RawFd> = self.listeners.iter().map(AsRawFd::as_raw_fd).collect();
        while !self.stop && !termination_requested() {
            match self.accept_one()? {
                Some(mut conn) => {
                    tacc_obs::counter_add("serve.connections", 1);
                    self.serve_connection(&mut conn, hooks);
                }
                None => {
                    wait_readable(&fds, ACCEPT_WAIT_MS)
                        .map_err(|e| ServeError::io("accept wait", &e))?;
                }
            }
        }
        if let Some(session) = self.session.take() {
            session.close()?;
        }
        for listener in &self.listeners {
            if let Listener::Unix(_, path) = listener {
                std::fs::remove_file(path).ok();
            }
        }
        Ok(())
    }

    /// Polls every listener once; `None` means nobody is knocking.
    fn accept_one(&mut self) -> Result<Option<Connection>, ServeError> {
        let timeout = Duration::from_millis(self.cfg.read_timeout_ms.max(1));
        for listener in &self.listeners {
            match listener {
                Listener::Tcp(l) => match l.accept() {
                    Ok((stream, _)) => {
                        stream.set_nonblocking(false).map_err(|e| ServeError::io("conn", &e))?;
                        stream
                            .set_read_timeout(Some(timeout))
                            .map_err(|e| ServeError::io("conn", &e))?;
                        return Ok(Some(Connection::Tcp(stream)));
                    }
                    Err(e) if would_block(&e) => {}
                    Err(e) => return Err(ServeError::io("tcp accept", &e)),
                },
                Listener::Unix(l, _) => match l.accept() {
                    Ok((stream, _)) => {
                        stream.set_nonblocking(false).map_err(|e| ServeError::io("conn", &e))?;
                        stream
                            .set_read_timeout(Some(timeout))
                            .map_err(|e| ServeError::io("conn", &e))?;
                        return Ok(Some(Connection::Unix(stream)));
                    }
                    Err(e) if would_block(&e) => {}
                    Err(e) => return Err(ServeError::io("uds accept", &e)),
                },
            }
        }
        Ok(None)
    }

    /// Serves one connection until it closes, breaks framing, or the
    /// daemon is asked to stop. Never propagates connection damage —
    /// including injected `socket.read`/`socket.write` faults, which
    /// cost exactly the connection (the client's seq-dedup retry makes
    /// that loss safe).
    fn serve_connection<H: ServerHooks>(&mut self, conn: &mut Connection, hooks: &mut H) {
        loop {
            if failpoint("socket.read").is_err() {
                tacc_obs::counter_add("serve.wire_errors", 1);
                return;
            }
            match read_frame_event(conn) {
                Ok(FrameEvent::Frame(payload)) => {
                    tacc_obs::counter_add("serve.frames", 1);
                    let (response_bytes, shutdown) = self.handle_payload(&payload, hooks);
                    if failpoint("socket.write").is_err() {
                        tacc_obs::counter_add("serve.wire_errors", 1);
                        return;
                    }
                    if write_frame(conn, &response_bytes).is_err() {
                        return; // peer vanished mid-answer; their loss
                    }
                    if shutdown {
                        self.stop = true;
                        return;
                    }
                }
                Ok(FrameEvent::Idle) => {
                    if self.stop || termination_requested() {
                        return;
                    }
                }
                Ok(FrameEvent::Closed) => return,
                Err(_) => {
                    // Truncated / oversized / transport damage: framing
                    // on this connection is lost, drop it. The daemon —
                    // and the session — survive.
                    tacc_obs::counter_add("serve.wire_errors", 1);
                    return;
                }
            }
        }
    }

    /// Decodes, dispatches and encodes one request. Always produces an
    /// answerable response — protocol and session failures become typed
    /// `Error` responses, never daemon deaths.
    fn handle_payload<H: ServerHooks>(&mut self, payload: &[u8], hooks: &mut H) -> (Vec<u8>, bool) {
        let frame = match decode_request(payload) {
            Ok(frame) => frame,
            Err(ProtoError::UnsupportedVersion { got, supported }) => {
                tacc_obs::counter_add("serve.version_rejects", 1);
                let response = Response::Error {
                    code: ErrorCode::UnsupportedVersion,
                    message: format!(
                        "protocol version {got} not supported (this daemon speaks {supported})"
                    ),
                };
                return (encode_response(salvage_id(payload), &response), false);
            }
            Err(e) => {
                tacc_obs::counter_add("serve.malformed_rejects", 1);
                let response =
                    Response::Error { code: ErrorCode::Malformed, message: e.to_string() };
                return (encode_response(salvage_id(payload), &response), false);
            }
        };
        let (response, shutdown) =
            match hooks.pre_dispatch(frame.request, &mut self.session, &self.cfg) {
                Ok(answered) => answered,
                Err(request) => {
                    let (response, shutdown) =
                        dispatch_request(&mut self.session, &self.cfg, request);
                    (hooks.post_dispatch(response, &mut self.session), shutdown)
                }
            };
        if shutdown {
            // `stop` is also set by serve_connection; setting it here too
            // keeps hook-answered shutdowns honest.
            self.stop = true;
        }
        (encode_response(frame.id, &response), shutdown)
    }
}

/// The request dispatcher, shared by [`Server::run`] and the
/// high-availability hooks (a freshly promoted standby dispatches
/// through this exact function, so primary and standby answer every
/// request identically). The `bool` asks the serve loop to stop.
pub fn dispatch_request(
    session: &mut Option<Session>,
    cfg: &ServeConfig,
    request: Request,
) -> (Response, bool) {
    match request {
        Request::Hello { client: _ } => (
            Response::Hello {
                server: format!("tacc-serve/{}", env!("CARGO_PKG_VERSION")),
                protocol: PROTOCOL_VERSION,
            },
            false,
        ),
        Request::Init { trace, config } => {
            if session.is_some() {
                return (
                    Response::Error {
                        code: ErrorCode::AlreadyInitialized,
                        message: "a session is already live".to_owned(),
                    },
                    false,
                );
            }
            match Session::start(trace, config, cfg) {
                Ok(started) => {
                    let runtime = started.runtime();
                    let response = Response::Initialized {
                        devices: runtime.cluster().instance().num_devices(),
                        servers: runtime.cluster().instance().num_servers(),
                        active: runtime.cluster().active_count(),
                        recovered: false,
                        cursor: runtime.cursor(),
                    };
                    *session = Some(started);
                    (response, false)
                }
                Err(e) => {
                    (Response::Error { code: ErrorCode::BadRequest, message: e.to_string() }, false)
                }
            }
        }
        Request::Shutdown => (Response::Bye, true),
        Request::Metrics => {
            (Response::Metrics { text: tacc_obs::registry_snapshot().to_text() }, false)
        }
        // A primary (or solo daemon) is already what a Promote asks for;
        // answering the no-op lets a failover client probe blindly.
        Request::Promote => (
            Response::Promoted {
                cursor: session.as_ref().map_or(0, Session::cursor),
                was_primary: true,
            },
            false,
        ),
        // Only a daemon started as a standby consumes the replication
        // stream (its hooks intercept before dispatch).
        Request::Replicate { .. } => (
            Response::Error {
                code: ErrorCode::BadRequest,
                message: "this daemon is not a standby".to_owned(),
            },
            false,
        ),
        other => {
            let Some(session) = session.as_mut() else {
                return (
                    Response::Error {
                        code: ErrorCode::NotInitialized,
                        message: "no session; send Init first".to_owned(),
                    },
                    false,
                );
            };
            let result = match other {
                Request::Push { events, seq } => session.push(events, seq),
                Request::Flush => {
                    session.flush().map(|(applied, cursor)| Response::Flushed { applied, cursor })
                }
                Request::Query { device } => session.query(device),
                Request::Solve { budget_units } => session.solve(budget_units),
                Request::Stats => session.stats().map(|s| Response::Stats {
                    cursor: s.cursor,
                    pending: s.pending,
                    active_devices: s.active_devices,
                    shed_devices: s.shed_devices,
                    unreachable_devices: s.unreachable_devices,
                    departed_devices: s.departed_devices,
                    alive_servers: s.alive_servers,
                    total_delay_ms: s.total_delay_ms,
                    feasible: s.feasible,
                }),
                Request::Snapshot => session
                    .snapshot_json()
                    .map(|snapshot_json| Response::Snapshot { snapshot_json }),
                Request::Hello { .. }
                | Request::Init { .. }
                | Request::Metrics
                | Request::Shutdown
                | Request::Promote
                | Request::Replicate { .. } => unreachable!("handled above"),
            };
            match result {
                Ok(response) => (response, false),
                Err(e) => {
                    (Response::Error { code: ErrorCode::Internal, message: e.to_string() }, false)
                }
            }
        }
    }
}

/// An accepted client connection over either transport.
#[derive(Debug)]
enum Connection {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Read for Connection {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Connection::Tcp(s) => s.read(buf),
            Connection::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Connection {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Connection::Tcp(s) => s.write(buf),
            Connection::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Connection::Tcp(s) => s.flush(),
            Connection::Unix(s) => s.flush(),
        }
    }
}

/// Whether an accept error just means "nobody waiting".
fn would_block(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

/// Best-effort recovery of the correlation id from a payload too damaged
/// (or too foreign) to decode, so even rejections correlate.
fn salvage_id(payload: &[u8]) -> u64 {
    let Ok(text) = std::str::from_utf8(payload) else { return 0 };
    let Ok(value) = serde_json::from_str::<Value>(text) else { return 0 };
    match value.get("id") {
        Some(Value::UInt(id)) => *id,
        _ => 0,
    }
}
