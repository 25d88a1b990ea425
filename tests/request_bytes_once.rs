//! Every request is counted once in `ccmx_server_request_bytes`, by
//! whichever loop read its frame: the event loop for the evented engine
//! and the coordinator, the blocking loop for the threaded engine.
//!
//! This file holds a single test so no other test in its process moves
//! the process-wide histogram while it counts.

use std::sync::Arc;

use ccmx::cluster::{serve_coordinator, ClusterConfig, Coordinator};
use ccmx::net::{serve, Client, ServerConfig, ServerEngine, ServerHandle, TransportConfig};

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

/// Send `N` requests (pings and bounds) and return how many the
/// histogram gained.
fn count_requests(server: ServerHandle) -> u64 {
    let before = requests_recorded();
    let mut client = Client::connect(server.addr(), TransportConfig::default()).expect("connect");
    for i in 0..N {
        if i % 2 == 0 {
            client.ping().expect("ping");
        } else {
            client.bounds(5, 3, 20).expect("bounds");
        }
    }
    drop(client);
    server.shutdown();
    requests_recorded() - before
}

#[test]
fn each_request_is_sized_once() {
    let evented = serve("127.0.0.1:0", ServerConfig::default()).expect("bind evented");
    assert_eq!(count_requests(evented), N, "evented engine");

    let threaded = serve(
        "127.0.0.1:0",
        ServerConfig {
            engine: ServerEngine::Threaded,
            ..ServerConfig::default()
        },
    )
    .expect("bind threaded");
    assert_eq!(count_requests(threaded), N, "threaded engine");

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
