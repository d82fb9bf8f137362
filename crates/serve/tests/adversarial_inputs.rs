//! Fuzz-shaped negative tests at the wire level, against a *live*
//! daemon: truncated frames, hostile length prefixes, unknown protocol
//! versions, mid-frame disconnects, raw garbage. The invariant under
//! attack is always the same — the offending *connection* may die, the
//! daemon (and its session) never does, and whatever can be answered is
//! answered with a typed error. Companion to `tacc-guard`'s
//! `adversarial_inputs` suite, one layer down the stack.

use std::io::Write;
use std::net::TcpStream;
use std::thread::JoinHandle;

use tacc_proto::{ErrorCode, Response, MAX_FRAME_LEN};
use tacc_serve::{Client, ServeConfig, Server};

fn boot() -> (String, JoinHandle<()>) {
    let mut server = Server::bind(Some("127.0.0.1:0"), None, ServeConfig::default()).unwrap();
    let addr = server.endpoints()[0].strip_prefix("tcp:").unwrap().to_owned();
    let handle = std::thread::spawn(move || server.run().unwrap());
    (addr, handle)
}

/// The liveness probe: after an attack, a fresh well-formed connection
/// must still be answered.
///
/// The daemon serves connections sequentially, so every helper here
/// closes its own connection before returning — a client left in scope
/// would park the daemon on it and starve later connections.
fn assert_alive(addr: &str) {
    let mut client = Client::connect_tcp(addr).unwrap();
    let response = client.hello("liveness-probe").unwrap();
    assert!(matches!(response, Response::Hello { .. }), "daemon answered {response:?}");
}

/// Stops the daemon over an *existing* client connection (opening a new
/// one would wait behind it forever).
fn shutdown(mut client: Client, handle: JoinHandle<()>) {
    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn a_truncated_frame_kills_only_its_connection() {
    let (addr, handle) = boot();
    {
        let mut attacker = TcpStream::connect(&addr).unwrap();
        // Promise 1024 bytes, deliver 10, vanish.
        attacker.write_all(&1024u32.to_be_bytes()).unwrap();
        attacker.write_all(b"0123456789").unwrap();
    } // dropped here: mid-frame disconnect
    assert_alive(&addr);
    shutdown(Client::connect_tcp(&addr).unwrap(), handle);
}

#[test]
fn a_truncated_header_kills_only_its_connection() {
    let (addr, handle) = boot();
    {
        let mut attacker = TcpStream::connect(&addr).unwrap();
        attacker.write_all(&[0u8, 0]).unwrap(); // half a length prefix
    }
    assert_alive(&addr);
    shutdown(Client::connect_tcp(&addr).unwrap(), handle);
}

#[test]
fn an_oversized_length_prefix_is_dropped_without_allocation() {
    let (addr, handle) = boot();
    for hostile_len in [u32::MAX, (MAX_FRAME_LEN as u32) + 1] {
        let mut attacker = TcpStream::connect(&addr).unwrap();
        // A 4-byte header promising up to 4 GiB. The daemon must reject
        // it from the prefix alone — never allocate, never read on.
        attacker.write_all(&hostile_len.to_be_bytes()).unwrap();
        attacker.write_all(b"payload never arrives").unwrap();
        drop(attacker);
        assert_alive(&addr);
    }
    shutdown(Client::connect_tcp(&addr).unwrap(), handle);
}

#[test]
fn an_unknown_protocol_version_is_answered_not_dropped() {
    let (addr, handle) = boot();
    let mut client = Client::connect_tcp(&addr).unwrap();
    // Older protocols are refused exactly like future ones: a v1 Push
    // without `seq` is not upgraded, it is answered by version.
    for (version, payload) in [
        (1, r#"{"v":1,"id":42,"request":{"Push":{"events":[]}}}"#),
        (2, r#"{"v":2,"id":42,"request":{"Stats":null}}"#),
        (4, r#"{"v":4,"id":42,"request":{"Stats":null}}"#),
        (99, r#"{"v":99,"id":42,"request":{"Stats":null}}"#),
    ] {
        let response = client.send_raw(payload.as_bytes()).unwrap();
        let Response::Error { code, message } = response else {
            panic!("v{version}: expected a typed error, got {response:?}");
        };
        assert_eq!(code, ErrorCode::UnsupportedVersion);
        assert!(
            message.contains(&format!("version {version} ")),
            "names the offending version: {message}"
        );
    }
    // The same connection keeps working — the stream is still framed.
    let response = client.hello("still-here").unwrap();
    assert!(matches!(response, Response::Hello { .. }));
    shutdown(client, handle);
}

#[test]
fn malformed_payloads_are_answered_with_typed_errors() {
    let (addr, handle) = boot();
    let mut client = Client::connect_tcp(&addr).unwrap();
    for payload in [
        &b"\xff\xfe\xfd"[..],                                          // not UTF-8
        b"Mary had a little lamb",                                     // not JSON
        b"{}",                                                         // no envelope
        b"{\"v\":3,\"id\":3}",                                         // no body
        b"{\"v\":3,\"id\":3,\"request\":{\"Evil\":{}}}",               // unknown message
        b"{\"v\":3,\"id\":3,\"request\":{\"Query\":{\"device\":-1}}}", // wrong field type
    ] {
        let response = client.send_raw(payload).unwrap();
        let Response::Error { code, .. } = response else {
            panic!("{payload:?}: expected a typed error, got {response:?}");
        };
        assert_eq!(code, ErrorCode::Malformed, "{payload:?}");
    }
    let response = client.hello("survivor").unwrap();
    assert!(matches!(response, Response::Hello { .. }));
    shutdown(client, handle);
}

#[test]
fn garbage_bytes_never_kill_the_daemon() {
    let (addr, handle) = boot();
    // A deterministic xorshift spray: whatever these bytes decode to —
    // absurd lengths, torn frames, binary noise inside a valid frame —
    // the daemon answers the next honest client.
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    for round in 0..16 {
        let mut garbage = Vec::with_capacity(64);
        for _ in 0..(8 + round * 4) {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            garbage.extend_from_slice(&state.to_le_bytes());
        }
        let mut attacker = TcpStream::connect(&addr).unwrap();
        attacker.write_all(&garbage).unwrap();
        drop(attacker);
        assert_alive(&addr);
    }
    shutdown(Client::connect_tcp(&addr).unwrap(), handle);
}

#[test]
fn overload_answers_carry_the_decision_inputs_on_both_wire_versions() {
    use tacc_runtime::RuntimeConfig;
    use tacc_workload::{Trace, TraceGenerator, TraceScenario};

    // A parking config: the backlog fills to the cap and stays there, so
    // raw frames sent afterwards are guaranteed to shed.
    let cfg = ServeConfig { batch_size: 1000, max_pending: 8, ..ServeConfig::default() };
    let mut server = Server::bind(Some("127.0.0.1:0"), None, cfg).unwrap();
    let addr = server.endpoints()[0].strip_prefix("tcp:").unwrap().to_owned();
    let handle = std::thread::spawn(move || server.run().unwrap());

    let scenario = TraceScenario { num_iot: 20, num_servers: 4, ..TraceScenario::default() };
    let trace = TraceGenerator::new(scenario).num_events(80).generate(5).unwrap();
    let shell = Trace { events: Vec::new(), ..trace.clone() };
    let mut client = Client::connect_tcp(&addr).unwrap();
    client.init(shell, RuntimeConfig::default()).unwrap();
    let response = client.push(trace.events[..8].to_vec()).unwrap();
    assert!(matches!(response, Response::Accepted { pending: 8, .. }), "got {response:?}");

    // One drift event, hand-serialized in a v3 frame: it must be
    // answered with the full five-field Overloaded — backlog, effective
    // cap, rejected count, retry hint, brownout label.
    let event = r#"{"time_ms":1e9,"event":{"LinkLatencyDrift":{"link":0,"latency_ms":1.5}}}"#;
    let frame =
        format!(r#"{{"v":3,"id":9,"request":{{"Push":{{"events":[{event},{event}],"seq":0}}}}}}"#);
    let response = client.send_raw(frame.as_bytes()).unwrap();
    let Response::Overloaded { pending, max_pending, rejected, retry_after_ms, brownout } =
        response
    else {
        panic!("{frame}: expected Overloaded, got {response:?}");
    };
    assert_eq!((pending, max_pending, rejected), (8, 8, 2), "{frame}");
    assert!(retry_after_ms > 0, "{frame}: a shed burst carries a retry hint");
    assert!(!brownout.is_empty(), "{frame}: a shed burst reports the brownout level");

    // The same burst in v1 (no seq) and v2 frames is refused by version
    // before admission control ever sees it.
    for frame in [
        format!(r#"{{"v":1,"id":7,"request":{{"Push":{{"events":[{event},{event}]}}}}}}"#),
        format!(r#"{{"v":2,"id":8,"request":{{"Push":{{"events":[{event},{event}],"seq":0}}}}}}"#),
    ] {
        let response = client.send_raw(frame.as_bytes()).unwrap();
        let Response::Error { code, .. } = response else {
            panic!("{frame}: expected a version refusal, got {response:?}");
        };
        assert_eq!(code, ErrorCode::UnsupportedVersion, "{frame}");
    }

    // The connection survived the sheds, and the shed events left no
    // trace: Stats drains the backlog, so exactly the 8 admitted events
    // are applied — none of the rejected ones.
    let Response::Stats { cursor, pending, .. } = client.stats().unwrap() else {
        panic!("stats must answer Stats");
    };
    assert_eq!((cursor, pending), (8, 0), "rejected frames left no trace");
    shutdown(client, handle);
}

#[test]
fn an_attack_mid_session_leaves_the_session_intact() {
    use tacc_runtime::RuntimeConfig;
    use tacc_workload::{Trace, TraceGenerator, TraceScenario};

    let scenario = TraceScenario { num_iot: 20, num_servers: 4, ..TraceScenario::default() };
    let trace = TraceGenerator::new(scenario).num_events(80).generate(5).unwrap();
    let shell = Trace { events: Vec::new(), ..trace.clone() };

    let (addr, handle) = boot();
    let mut client = Client::connect_tcp(&addr).unwrap();
    client.init(shell, RuntimeConfig::default()).unwrap();
    client.push(trace.events[..40].to_vec()).unwrap();

    // Attack between two honest exchanges. The first client must hang
    // up for the (sequential) daemon to reach the attacker's connection.
    drop(client);
    {
        let mut attacker = TcpStream::connect(&addr).unwrap();
        attacker.write_all(&9999u32.to_be_bytes()).unwrap();
        attacker.write_all(b"half a frame").unwrap();
    }

    // The session neither died nor lost events.
    let mut client = Client::connect_tcp(&addr).unwrap();
    client.push(trace.events[40..].to_vec()).unwrap();
    let Response::Stats { cursor, pending, .. } = client.stats().unwrap() else {
        panic!("stats must answer Stats");
    };
    assert_eq!((cursor as usize, pending), (trace.events.len(), 0));
    shutdown(client, handle);
}
