//! A frame of deeply nested batches is a decode error, never a crash.
//!
//! Decoding recurses once per `Batch` level. Ten thousand levels fit in
//! a 50 KB frame, far under the 4 MiB cap, and used to overflow the
//! stack of whichever thread decoded them: a server worker, the
//! coordinator, or a client reading a response.

use std::net::SocketAddr;
use std::sync::Arc;

use ccmx::cluster::{serve_coordinator, ClusterConfig, Coordinator};
use ccmx::net::wire::{KIND_REQUEST, KIND_RESPONSE, MAX_BATCH_DEPTH};
use ccmx::net::{
    serve, Client, Request, Response, ServerConfig, TcpTransport, TransportConfig, WireCodec,
};

const DEEP: usize = 10_000;

/// `depth` nested one-member batches around tag 0 (`Ping` as a request,
/// `Pong` as a response), built byte by byte: encoding or dropping such
/// a value would recurse as deep as decoding it.
fn nested_batch_bytes(depth: usize) -> Vec<u8> {
    let mut bytes = [4u8, 1, 0, 0, 0].repeat(depth);
    bytes.push(0);
    bytes
}

#[test]
fn deep_nesting_is_a_decode_error_on_a_default_stack() {
    let bytes = nested_batch_bytes(DEEP);
    let (req, resp) = std::thread::spawn(move || {
        (
            Request::from_wire_bytes(&bytes).is_err(),
            Response::from_wire_bytes(&bytes).is_err(),
        )
    })
    .join()
    .expect("decoding thread survived");
    assert!(req, "a {DEEP}-deep request must not decode");
    assert!(resp, "a {DEEP}-deep response must not decode");
}

#[test]
fn nesting_up_to_the_cap_still_decodes() {
    let depth = MAX_BATCH_DEPTH as usize;
    assert!(depth >= 2, "a batch of batches must stay expressible");
    let req = Request::from_wire_bytes(&nested_batch_bytes(depth)).expect("decodes at the cap");
    assert_eq!(req.to_wire_bytes(), nested_batch_bytes(depth));
    let resp = Response::from_wire_bytes(&nested_batch_bytes(depth)).expect("decodes at the cap");
    assert_eq!(resp.to_wire_bytes(), nested_batch_bytes(depth));
    assert!(Request::from_wire_bytes(&nested_batch_bytes(depth + 1)).is_err());
    assert!(Response::from_wire_bytes(&nested_batch_bytes(depth + 1)).is_err());
}

/// Send the deep frame to `addr`: it must be answered with an error or
/// cost only its own connection, and a fresh connection must still get
/// `Pong`.
fn refuses_deep_frame_and_keeps_serving(addr: SocketAddr) {
    let mut t = TcpTransport::connect(addr, TransportConfig::default()).expect("connect");
    t.send_frame(KIND_REQUEST, &nested_batch_bytes(DEEP))
        .expect("send the deep frame");
    if let Ok((kind, payload)) = t.recv_frame() {
        assert_eq!(kind, KIND_RESPONSE);
        let resp = Response::from_wire_bytes(&payload).expect("a decodable answer");
        assert!(matches!(resp, Response::Error(_)), "got {resp:?}");
    }
    let mut fresh = Client::connect(addr, TransportConfig::default()).expect("reconnect");
    fresh.ping().expect("a fresh connection still gets Pong");
}

#[test]
fn server_survives_a_deeply_nested_batch() {
    let server = serve("127.0.0.1:0", ServerConfig::default()).expect("bind server");
    refuses_deep_frame_and_keeps_serving(server.addr());
    server.shutdown();
}

#[test]
fn coordinator_survives_a_deeply_nested_batch() {
    let coordinator = Arc::new(Coordinator::over_tcp(ClusterConfig::default(), Vec::new()));
    let front = serve_coordinator("127.0.0.1:0", ServerConfig::default(), coordinator)
        .expect("bind coordinator");
    refuses_deep_frame_and_keeps_serving(front.addr());
    front.shutdown();
}
