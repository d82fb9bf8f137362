//! The message vocabulary and its versioned envelope.

use serde::{Deserialize, Serialize};
use serde_json::Value;
use tacc_runtime::RuntimeConfig;
use tacc_workload::{TimedEvent, Trace};

use crate::{ProtoError, PROTOCOL_VERSION};

/// What a client may ask the daemon.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[allow(clippy::large_enum_variant)] // Init dwarfs the rest by design; frames are one-at-a-time
pub enum Request {
    /// Handshake: announce the client. Always answered, even before a
    /// session exists.
    Hello {
        /// Free-form client name (for logs; never trusted).
        client: String,
    },
    /// Start a session: materialize the scenario, solve the initial
    /// assignment, begin journaling. The trace's `events` must be empty
    /// — events arrive over the wire via [`Request::Push`].
    Init {
        /// Scenario carrier (events must be empty).
        trace: Trace,
        /// Runtime configuration for the session.
        config: RuntimeConfig,
    },
    /// Append a burst of trace events to the session. Events are
    /// journaled durably at acknowledgement time and *applied* lazily —
    /// bursts coalesce into single maintenance passes.
    Push {
        /// Time-ordered events, continuing the session's timeline.
        events: Vec<TimedEvent>,
        /// Client-chosen idempotency sequence number (`0` = unsequenced).
        /// A re-send of the most recently *accepted* nonzero `seq` —
        /// after a timeout that lost the ack, say — is answered with the
        /// recorded acknowledgement instead of being journaled twice.
        seq: u64,
    },
    /// Force-apply everything pending (an explicit event boundary).
    Flush,
    /// Where does one device stand right now? (Cheap: flushes pending
    /// events, then reads state.)
    Query {
        /// Role-local device index.
        device: usize,
    },
    /// Re-solve the current instance under a work budget (guard
    /// supervision: anytime primary → greedy → last-known-good).
    Solve {
        /// Budget in deterministic solver work units.
        budget_units: u64,
    },
    /// The session's deterministic summary (cursor, device states,
    /// delay, feasibility).
    Stats,
    /// Scrape the metric registry (the `GET /metrics` analogue).
    Metrics,
    /// The full resumable [`tacc_runtime::RuntimeSnapshot`], as JSON.
    Snapshot,
    /// Stop the daemon cleanly after answering.
    Shutdown,
    /// Ship a run of journal lines to a standby. `base` is the
    /// number of lines the sender believes the standby already holds, so
    /// an idempotent re-ship after a lost ack overlaps instead of
    /// double-applying. Only a daemon started as a standby accepts this;
    /// anyone else answers a typed `BadRequest`.
    Replicate {
        /// Journal line count preceding `lines` (the standby's expected
        /// current length).
        base: u64,
        /// CRC-framed journal lines, newline-stripped, in journal order.
        lines: Vec<String>,
    },
    /// Ask a standby to take over as primary: it rebuilds its
    /// session through the journal recovery path and starts answering
    /// the full vocabulary. A primary (or solo daemon) treats this as a
    /// no-op acknowledgement so failover clients may probe blindly.
    Promote,
}

/// Machine-readable failure categories carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// The frame parsed but the request is invalid in this state or
    /// carries out-of-range data.
    BadRequest,
    /// A session already exists; `Init` is once per daemon run.
    AlreadyInitialized,
    /// No session yet; send `Init` first.
    NotInitialized,
    /// The envelope named a protocol version this build does not speak.
    UnsupportedVersion,
    /// The payload was not a well-formed request envelope.
    Malformed,
    /// The daemon hit an internal failure applying the request.
    Internal,
}

/// A device's conservation state, over the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueryState {
    /// Actively served.
    Assigned,
    /// Wanted, reachable, but out of capacity.
    Shed,
    /// Wanted but partitioned from every alive server.
    Unreachable,
    /// Not currently part of the deployment.
    Departed,
}

/// What the daemon answers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[allow(clippy::large_enum_variant)] // Snapshot dwarfs the rest by design
pub enum Response {
    /// Handshake answer.
    Hello {
        /// Daemon name + version string.
        server: String,
        /// The protocol version the daemon speaks.
        protocol: u32,
    },
    /// The session is live (fresh or recovered from a journal).
    Initialized {
        /// Devices in the scenario.
        devices: usize,
        /// Servers in the scenario.
        servers: usize,
        /// Devices actively assigned after the initial solve/recovery.
        active: usize,
        /// Whether the session was rebuilt from a journal.
        recovered: bool,
        /// Events already applied (nonzero only after recovery).
        cursor: u64,
    },
    /// A `Push` burst was journaled and queued.
    Accepted {
        /// Events accepted from this burst.
        queued: usize,
        /// Events now pending application.
        pending: usize,
    },
    /// Admission control shed the request: the pending backlog would
    /// exceed the daemon's budget. Typed, so clients can back off, and
    /// told *when* to come back and *why* they were shed.
    Overloaded {
        /// Events currently pending application.
        pending: usize,
        /// The admission cap the burst would have overflowed (the
        /// daemon's `--max-pending`, possibly tightened by brownout).
        max_pending: usize,
        /// Events rejected from this burst (none were applied).
        rejected: usize,
        /// Deterministic back-off hint in milliseconds — a function of
        /// queue depth and brownout level, never of wall clock.
        retry_after_ms: u64,
        /// The daemon's brownout ladder level (`normal`, `l1-budget`,
        /// `l2-deep-budget`, `l3-tier-shed`).
        brownout: String,
    },
    /// Pending events were applied.
    Flushed {
        /// Events applied by this pass.
        applied: u64,
        /// Events applied over the session's lifetime.
        cursor: u64,
    },
    /// Answer to [`Request::Query`].
    Device {
        /// The queried device.
        device: usize,
        /// Its conservation state.
        state: QueryState,
        /// Its server, when assigned.
        server: Option<usize>,
        /// Its delay to that server in milliseconds (`None` when not
        /// assigned).
        delay_ms: Option<f64>,
    },
    /// Answer to [`Request::Solve`]: the supervised re-solve outcome.
    Solution {
        /// Whether the returned assignment respects every capacity.
        feasible: bool,
        /// Total delay (ms) of the returned assignment over the active
        /// devices.
        objective: f64,
        /// Ladder stage that answered (solver name).
        solver: String,
        /// Degradation level label (`full`, `truncated`, `fallback`,
        /// `last-known-good`).
        degradation: String,
        /// Work units spent by the answering stage.
        spent: u64,
        /// Ladder stages that failed before the answer.
        fallbacks: u32,
        /// Panics the supervisor caught during this solve.
        panics_caught: u32,
        /// `(device, server)` pairs for the active devices.
        assignment: Vec<(usize, usize)>,
    },
    /// Answer to [`Request::Stats`] — the deterministic session summary.
    Stats {
        /// Events applied so far.
        cursor: u64,
        /// Events pending application.
        pending: usize,
        /// Devices actively assigned.
        active_devices: usize,
        /// Devices shed for capacity.
        shed_devices: usize,
        /// Devices partitioned from every alive server.
        unreachable_devices: usize,
        /// Devices that departed.
        departed_devices: usize,
        /// Alive servers.
        alive_servers: usize,
        /// Total delay of the current assignment (ms).
        total_delay_ms: f64,
        /// Whether the current assignment is feasible.
        feasible: bool,
    },
    /// Answer to [`Request::Metrics`]: the registry rendered as the
    /// deterministic text exposition (one `name value` per line).
    Metrics {
        /// The rendered registry.
        text: String,
    },
    /// Answer to [`Request::Snapshot`]: the full resumable state.
    Snapshot {
        /// `RuntimeSnapshot::to_json()` of the current state.
        snapshot_json: String,
    },
    /// Answer to [`Request::Replicate`]: the standby's durable
    /// journal length after applying (and fsyncing) the shipped lines.
    ReplicaAck {
        /// Total journal lines the standby now holds.
        acked: u64,
    },
    /// Answer to [`Request::Promote`].
    Promoted {
        /// Events applied by the (possibly freshly rebuilt) session.
        cursor: u64,
        /// `true` when the answering daemon was already the primary (the
        /// promote was a no-op); `false` when a standby actually took
        /// over.
        was_primary: bool,
    },
    /// The daemon is shutting down cleanly.
    Bye,
    /// A typed failure; the session (when any) is unharmed.
    Error {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable diagnosis.
        message: String,
    },
}

/// The versioned request envelope.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestFrame {
    /// Protocol version; see [`PROTOCOL_VERSION`].
    pub v: u32,
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The message body.
    pub request: Request,
}

/// The versioned response envelope.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResponseFrame {
    /// Protocol version; see [`PROTOCOL_VERSION`].
    pub v: u32,
    /// The correlation id of the request this answers (0 when the
    /// request was too damaged to carry one).
    pub id: u64,
    /// The message body.
    pub response: Response,
}

/// Serializes a request envelope to payload bytes.
#[must_use]
pub fn encode_request(id: u64, request: &Request) -> Vec<u8> {
    let frame = RequestFrame { v: PROTOCOL_VERSION, id, request: request.clone() };
    serde_json::to_string(&frame).expect("requests serialize").into_bytes()
}

/// Serializes a response envelope to payload bytes.
#[must_use]
pub fn encode_response(id: u64, response: &Response) -> Vec<u8> {
    let frame = ResponseFrame { v: PROTOCOL_VERSION, id, response: response.clone() };
    serde_json::to_string(&frame).expect("responses serialize").into_bytes()
}

/// Parses a payload into a JSON value and checks the envelope version
/// before any shape-dependent parse, so a frame of another protocol
/// version is refused by version rather than by a field error.
fn parse_envelope(payload: &[u8]) -> Result<Value, ProtoError> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| ProtoError::Malformed { reason: format!("payload is not UTF-8: {e}") })?;
    let value: Value = serde_json::from_str(text)
        .map_err(|e| ProtoError::Malformed { reason: format!("payload is not JSON: {e}") })?;
    match value.get("v") {
        Some(Value::UInt(v)) if *v == u64::from(PROTOCOL_VERSION) => Ok(value),
        Some(Value::UInt(v)) => {
            Err(ProtoError::UnsupportedVersion { got: *v, supported: PROTOCOL_VERSION })
        }
        Some(_) => Err(ProtoError::Malformed { reason: "envelope `v` is not an integer".into() }),
        None => Err(ProtoError::Malformed { reason: "envelope is missing `v`".into() }),
    }
}

/// Decodes a request payload, version-checking the envelope first.
///
/// # Errors
///
/// [`ProtoError::UnsupportedVersion`] for any `v` other than
/// [`PROTOCOL_VERSION`], [`ProtoError::Malformed`] for anything that is
/// not a well-formed request envelope.
pub fn decode_request(payload: &[u8]) -> Result<RequestFrame, ProtoError> {
    serde_json::from_value(&parse_envelope(payload)?)
        .map_err(|e| ProtoError::Malformed { reason: format!("request envelope: {e}") })
}

/// Decodes a response payload, version-checking the envelope first.
///
/// # Errors
///
/// As [`decode_request`], for response envelopes.
pub fn decode_response(payload: &[u8]) -> Result<ResponseFrame, ProtoError> {
    serde_json::from_value(&parse_envelope(payload)?)
        .map_err(|e| ProtoError::Malformed { reason: format!("response envelope: {e}") })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_envelopes_round_trip() {
        let requests = [
            Request::Hello { client: "test".into() },
            Request::Push { events: Vec::new(), seq: 3 },
            Request::Flush,
            Request::Query { device: 7 },
            Request::Solve { budget_units: 25 },
            Request::Stats,
            Request::Metrics,
            Request::Snapshot,
            Request::Shutdown,
            Request::Replicate { base: 12, lines: vec!["{\"crc32\":1,\"record\":null}".into()] },
            Request::Promote,
        ];
        for (i, request) in requests.iter().enumerate() {
            let bytes = encode_request(i as u64, request);
            let frame = decode_request(&bytes).unwrap();
            assert_eq!(frame.v, PROTOCOL_VERSION);
            assert_eq!(frame.id, i as u64);
            assert_eq!(&frame.request, request);
        }
    }

    #[test]
    fn response_envelopes_round_trip() {
        let responses = [
            Response::Hello { server: "tacc-serve".into(), protocol: PROTOCOL_VERSION },
            Response::Accepted { queued: 3, pending: 9 },
            Response::Overloaded {
                pending: 100,
                max_pending: 100,
                rejected: 5,
                retry_after_ms: 40,
                brownout: "l1-budget".into(),
            },
            Response::Device {
                device: 2,
                state: QueryState::Assigned,
                server: Some(1),
                delay_ms: Some(3.25),
            },
            Response::ReplicaAck { acked: 42 },
            Response::Promoted { cursor: 17, was_primary: false },
            Response::Bye,
            Response::Error { code: ErrorCode::NotInitialized, message: "send Init".into() },
        ];
        for (i, response) in responses.iter().enumerate() {
            let bytes = encode_response(i as u64, response);
            let frame = decode_response(&bytes).unwrap();
            assert_eq!(&frame.response, response);
        }
    }

    #[test]
    fn unknown_versions_are_typed_not_parse_errors() {
        // Well-formed bodies of older and newer protocols alike — a v1
        // Push without `seq`, a v2 Overloaded, a v4 frame — are refused
        // by version, never decoded or misreported as Malformed.
        let refused =
            |got: u64| ProtoError::UnsupportedVersion { got, supported: PROTOCOL_VERSION };
        for (version, text) in [
            (1, r#"{"v":1,"id":9,"request":{"Push":{"events":[]}}}"#),
            (2, r#"{"v":2,"id":5,"request":{"Push":{"events":[],"seq":11}}}"#),
            (4, r#"{"v":4,"id":1,"request":{"Stats":null}}"#),
            (99, r#"{"v":99,"id":1,"request":{"Stats":null}}"#),
        ] {
            assert_eq!(decode_request(text.as_bytes()).unwrap_err(), refused(version));
        }
        let v1_overloaded = r#"{"pending":10,"max_pending":12,"rejected":5}"#;
        let v2_overloaded =
            r#"{"pending":1,"max_pending":2,"rejected":1,"retry_after_ms":8,"brownout":"normal"}"#;
        for (version, text) in [
            (1, format!(r#"{{"v":1,"id":4,"response":{{"Overloaded":{v1_overloaded}}}}}"#)),
            (2, format!(r#"{{"v":2,"id":5,"response":{{"Overloaded":{v2_overloaded}}}}}"#)),
            (4, r#"{"v":4,"id":1,"response":{"Bye":null}}"#.to_owned()),
        ] {
            assert_eq!(decode_response(text.as_bytes()).unwrap_err(), refused(version));
        }
    }

    #[test]
    fn malformed_payloads_are_typed() {
        for payload in [
            &b"\xff\xfe"[..],                                // not UTF-8
            b"not json",                                     // not JSON
            b"{\"id\":1}",                                   // no version
            b"{\"v\":\"one\",\"id\":1}",                     // version not an integer
            b"{\"v\":3,\"id\":1}",                           // no body
            b"{\"v\":3,\"id\":1,\"request\":{\"Nope\":{}}}", // unknown message
        ] {
            let err = decode_request(payload).unwrap_err();
            assert!(matches!(err, ProtoError::Malformed { .. }), "{payload:?}: {err:?}");
        }
    }
}
