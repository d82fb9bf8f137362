//! Property: envelopes round-trip bit-for-bit at the one protocol
//! version this build speaks, and the same envelope tagged with any other
//! version is refused with a typed `UnsupportedVersion` naming it —
//! never decoded, never reported as `Malformed`.

use proptest::prelude::*;

use tacc_proto::{
    decode_request, decode_response, encode_request, encode_response, ErrorCode, ProtoError,
    Request, Response, PROTOCOL_VERSION,
};

fn request_strategy() -> impl Strategy<Value = Request> {
    (0usize..8, (0u64..1_000_000_000), (0u64..1_000_000_000)).prop_map(|(pick, a, b)| match pick {
        0 => Request::Hello { client: format!("client-{a}") },
        1 => Request::Push { events: Vec::new(), seq: a },
        2 => Request::Flush,
        3 => Request::Query { device: (a % 1000) as usize },
        4 => Request::Solve { budget_units: a },
        5 => Request::Stats,
        6 => Request::Replicate {
            base: a,
            lines: vec![format!("{{\"crc32\":{b},\"record\":null}}")],
        },
        _ => Request::Promote,
    })
}

fn response_strategy() -> impl Strategy<Value = Response> {
    (0usize..7, (0u64..1_000_000_000), (0u64..1_000_000_000)).prop_map(|(pick, a, b)| match pick {
        0 => Response::Hello { server: format!("srv-{a}"), protocol: PROTOCOL_VERSION },
        1 => Response::Accepted { queued: (a % 4096) as usize, pending: (b % 4096) as usize },
        2 => Response::Overloaded {
            pending: (a % 4096) as usize,
            max_pending: 4096,
            rejected: (b % 64) as usize,
            retry_after_ms: a % 5000,
            brownout: "normal".into(),
        },
        3 => Response::Flushed { applied: a, cursor: a + b },
        4 => Response::ReplicaAck { acked: a },
        5 => Response::Promoted { cursor: a, was_primary: b % 2 == 0 },
        _ => Response::Error { code: ErrorCode::BadRequest, message: format!("m{a}") },
    })
}

/// Re-tags an encoded envelope with another protocol version.
fn retag(bytes: &[u8], version: u32) -> Vec<u8> {
    let text = std::str::from_utf8(bytes).expect("encoders write UTF-8");
    text.replacen(&format!("\"v\":{PROTOCOL_VERSION}"), &format!("\"v\":{version}"), 1).into_bytes()
}

/// Every version other than [`PROTOCOL_VERSION`] a peer might send.
fn other_versions() -> impl Iterator<Item = u32> {
    (0..=PROTOCOL_VERSION + 4).filter(|&v| v != PROTOCOL_VERSION)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A request envelope decodes to exactly the body that was encoded,
    /// re-encoding it is the identity, and the same bytes under any other
    /// version are refused by version.
    #[test]
    fn request_envelopes_survive_every_version(request in request_strategy(), id in (0u64..1_000_000_000)) {
        let bytes = encode_request(id, &request);
        let frame = decode_request(&bytes).expect("well-formed envelope decodes");
        prop_assert_eq!(frame.v, PROTOCOL_VERSION);
        prop_assert_eq!(frame.id, id);
        prop_assert_eq!(&frame.request, &request);
        prop_assert_eq!(encode_request(id, &frame.request), bytes.clone());
        for version in other_versions() {
            let err = decode_request(&retag(&bytes, version)).expect_err("other versions refused");
            prop_assert_eq!(
                err,
                ProtoError::UnsupportedVersion { got: u64::from(version), supported: PROTOCOL_VERSION }
            );
        }
    }

    /// Same for responses.
    #[test]
    fn response_envelopes_survive_every_version(response in response_strategy(), id in (0u64..1_000_000_000)) {
        let bytes = encode_response(id, &response);
        let frame = decode_response(&bytes).expect("well-formed envelope decodes");
        prop_assert_eq!(frame.v, PROTOCOL_VERSION);
        prop_assert_eq!(frame.id, id);
        prop_assert_eq!(&frame.response, &response);
        prop_assert_eq!(encode_response(id, &frame.response), bytes.clone());
        for version in other_versions() {
            let err = decode_response(&retag(&bytes, version)).expect_err("other versions refused");
            prop_assert_eq!(
                err,
                ProtoError::UnsupportedVersion { got: u64::from(version), supported: PROTOCOL_VERSION }
            );
        }
    }
}
