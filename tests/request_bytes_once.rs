//! Every request is counted once in `ccmx_server_request_bytes`, by
//! whichever loop read its frame: the event loop for a server's plain
//! connections and for the coordinator, the blocking loop for a
//! connection promoted to an interactive run.
//!
//! This file holds a single test so no other test in its process moves
//! the process-wide histogram while it counts.

use std::sync::Arc;

use ccmx::cluster::{serve_coordinator, ClusterConfig, Coordinator};
use ccmx::comm::BitString;
use ccmx::net::{serve, Client, ProtoSpec, ServerConfig, TransportConfig};

const N: u64 = 25;

fn requests_recorded() -> u64 {
    ccmx::obs::registry()
        .histogram(
            "ccmx_server_request_bytes",
            &[],
            ccmx::obs::buckets::SIZE_BYTES,
        )
        .snapshot()
        .count
}

/// Send `N` requests (pings and bounds) on `client`.
fn send_requests(client: &mut Client) {
    for i in 0..N {
        if i % 2 == 0 {
            client.ping().expect("ping");
        } else {
            client.bounds(5, 3, 20).expect("bounds");
        }
    }
}

#[test]
fn each_request_is_sized_once() {
    // Plain connection: the event loop reads every request frame.
    let server = serve("127.0.0.1:0", ServerConfig::default()).expect("bind server");
    let before = requests_recorded();
    let mut client = Client::connect(server.addr(), TransportConfig::default()).expect("connect");
    send_requests(&mut client);
    drop(client);
    assert_eq!(requests_recorded() - before, N, "event loop");

    // Promoted connection: after one interactive run the blocking loop
    // owns the socket and reads the requests that follow on it. The
    // interactive setup frame is not a request and is not sized.
    let before = requests_recorded();
    let mut client = Client::connect(server.addr(), TransportConfig::default()).expect("connect");
    let spec = ProtoSpec::SendAllSingularity { dim: 2, k: 2 };
    let (mine, theirs, _) = client
        .run_interactive(spec, &BitString::from_u64(0b1011_0010, 8), 3)
        .expect("interactive run");
    assert_eq!(mine, theirs);
    send_requests(&mut client);
    drop(client);
    server.shutdown();
    assert_eq!(requests_recorded() - before, N, "promoted connection");

    // The coordinator answers pings itself, so it needs no shards.
    let coordinator = Arc::new(Coordinator::over_tcp(ClusterConfig::default(), Vec::new()));
    let front = serve_coordinator("127.0.0.1:0", ServerConfig::default(), coordinator)
        .expect("bind coordinator");
    let before = requests_recorded();
    let mut client = Client::connect(front.addr(), TransportConfig::default()).expect("connect");
    for _ in 0..N {
        client.ping().expect("ping");
    }
    drop(client);
    front.shutdown();
    assert_eq!(requests_recorded() - before, N, "coordinator");
}
