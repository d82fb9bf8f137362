//! # tacc-proto — the control-plane wire protocol
//!
//! The `tacc serve` daemon and its clients speak length-framed,
//! version-tagged JSON over a byte stream (TCP or a Unix socket):
//!
//! ```text
//! ┌────────────┬───────────────────────────────────────────┐
//! │ 4 bytes BE │ payload: one JSON document, UTF-8          │
//! │ payload len│ {"v":3,"id":N,"request":{...}}             │
//! └────────────┴───────────────────────────────────────────┘
//! ```
//!
//! Every payload is an envelope ([`RequestFrame`] / [`ResponseFrame`])
//! carrying the protocol version `v`, a client-chosen correlation `id`
//! (echoed verbatim in the response), and the message body. The version
//! is *peeked* from the parsed JSON before the body is shape-checked, so
//! a frame of any other protocol version is answered with a typed
//! [`ProtoError::UnsupportedVersion`] instead of a misleading
//! deserialization failure — the same peek-then-parse idiom the snapshot
//! format uses.
//!
//! Compatibility rules (see `DESIGN.md` § Control plane):
//!
//! - this build reads exactly one version, [`PROTOCOL_VERSION`]; every
//!   other `v`, older or newer, is refused with
//!   [`ProtoError::UnsupportedVersion`];
//! - adding a *new* [`Request`]/[`Response`] variant keeps the version
//!   (peers answer `Malformed` to messages they do not know);
//! - renaming or re-shaping an existing variant requires bumping
//!   [`PROTOCOL_VERSION`];
//! - frames larger than [`MAX_FRAME_LEN`] are rejected before
//!   allocation, so a hostile length prefix cannot balloon memory.
//!
//! Version 3 is the vocabulary of this crate: `Push` carries an
//! idempotency sequence number, `Overloaded` carries a deterministic
//! `retry_after_ms` hint plus the daemon's brownout level, and the
//! high-availability messages `Replicate` / `ReplicaAck` and `Promote` /
//! `Promoted` let a primary ship its journal to a standby and hand over.
//!
//! Everything here is pure data + framing; the daemon logic lives in
//! `tacc-serve`.

#![warn(missing_docs)]

mod error;
mod frame;
mod message;

pub use error::ProtoError;
pub use frame::{read_frame_event, write_frame, FrameEvent, MAX_FRAME_LEN};
pub use message::{
    decode_request, decode_response, encode_request, encode_response, ErrorCode, QueryState,
    Request, RequestFrame, Response, ResponseFrame,
};

/// The wire-protocol version this build writes and the only one it
/// reads; any other version is refused with
/// [`ProtoError::UnsupportedVersion`].
pub const PROTOCOL_VERSION: u32 = 3;
