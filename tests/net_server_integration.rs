//! Cross-crate integration: a real TCP protocol-lab server under
//! concurrent load, checked for *bit-exact* agreement with the
//! in-process sequential runner.
//!
//! The load pattern: N >= 8 clients connect at once; each runs its own
//! interactive protocol session (client = agent A over the socket,
//! server = agent B), plus request/response traffic (bounds, batches).
//! One extra client connects and goes silent, proving the read timeout
//! reaps stalled connections without wedging the worker pool. Finally
//! the server shuts down gracefully and every thread joins.

use ccmx::comm::protocol::run_sequential;
use ccmx::net::{serve, Client, ProtoSpec, Request, Response, ServerConfig, TransportConfig};
use ccmx::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::TcpStream;
use std::time::Duration;

const N_CLIENTS: usize = 8;

fn test_server() -> ccmx::net::ServerHandle {
    serve(
        "127.0.0.1:0",
        ServerConfig {
            workers: 4,
            read_timeout: Duration::from_millis(500),
            write_timeout: Duration::from_millis(500),
            ..ServerConfig::default()
        },
    )
    .expect("bind integration-test server")
}

fn random_input(bits: usize, seed: u64) -> BitString {
    let mut rng = StdRng::seed_from_u64(seed);
    BitString::from_bits((0..bits).map(|_| rng.gen()).collect())
}

#[test]
fn concurrent_clients_get_bit_identical_transcripts() {
    let server = test_server();
    let addr = server.addr();

    let specs = [
        ProtoSpec::SendAllSingularity { dim: 2, k: 2 },
        ProtoSpec::ModPrimeSingularity {
            dim: 2,
            k: 2,
            security: 20,
        },
        ProtoSpec::FingerprintEquality {
            half_bits: 16,
            security: 20,
        },
    ];

    let handles: Vec<_> = (0..N_CLIENTS)
        .map(|c| {
            let spec = specs[c % specs.len()];
            std::thread::spawn(move || {
                let mut client =
                    Client::connect(addr, TransportConfig::default()).expect("client connects");
                let setup = spec.build();
                for round in 0..3u64 {
                    let seed = (c as u64) << 8 | round;
                    let input = random_input(setup.input_bits, seed ^ 0xA5A5);

                    // Live two-agent run over the socket.
                    let (mine, theirs, stats) = client
                        .run_interactive(spec, &input, seed)
                        .expect("interactive run");
                    assert_eq!(mine, theirs, "client/server transcripts diverged");

                    // Byte-for-byte agreement with the sequential runner.
                    let expected =
                        run_sequential(setup.proto.as_ref(), &setup.partition, &input, seed);
                    assert_eq!(mine, expected, "wire run diverged from sequential");

                    // The wire metered exactly the transcript's bits.
                    assert_eq!(
                        stats.bits_total(),
                        expected.transcript.total_bits(),
                        "wire bit count != sequential transcript bit count"
                    );

                    // Server-side in-process run agrees too.
                    let served = client.run(spec, &input, seed).expect("run request");
                    assert_eq!(served, expected);
                }
                client.stats().bits_total()
            })
        })
        .collect();

    let mut total_wire_bits = 0usize;
    for h in handles {
        total_wire_bits += h.join().expect("client thread panicked");
    }
    assert!(total_wire_bits > 0, "clients exchanged no protocol bits");

    let stats = server.stats();
    assert!(stats.connections_accepted >= N_CLIENTS as u64);
    assert_eq!(stats.interactive_runs, (N_CLIENTS * 3) as u64);
    server.shutdown();
}

#[test]
fn stalling_client_is_reaped_while_others_are_served() {
    let server = test_server();
    let addr = server.addr();

    // A client that connects and never speaks: it holds a worker until
    // the read timeout fires, then must be dropped.
    let stalled = TcpStream::connect(addr).expect("stalling client connects");

    // Meanwhile real clients keep getting answers.
    let workers: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client =
                    Client::connect(addr, TransportConfig::default()).expect("client connects");
                let b = client.bounds(5, 3, 20).expect("bounds served during stall");
                assert!(b.deterministic_upper_bits > 0.0);
                client.ping().expect("ping served during stall");
                i
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread panicked");
    }

    // Give the timeout a chance to reap the silent connection.
    std::thread::sleep(Duration::from_millis(800));
    assert!(
        server.stats().connections_dropped >= 1,
        "stalled connection was never dropped"
    );

    // The pool is not wedged: a fresh client still gets served.
    let mut client = Client::connect(addr, TransportConfig::default()).expect("fresh client");
    client
        .ping()
        .expect("pool wedged after reaping a stalled client");

    drop(stalled);
    server.shutdown();
}

#[test]
fn batches_amortize_and_match_sequential() {
    let server = test_server();
    let mut client = Client::connect(server.addr(), TransportConfig::default()).expect("connect");

    let spec = ProtoSpec::SendAllSingularity { dim: 2, k: 2 };
    let setup = spec.build();
    let inputs: Vec<BitString> = (0..6)
        .map(|i| random_input(setup.input_bits, 1000 + i))
        .collect();

    let mut reqs: Vec<Request> = inputs
        .iter()
        .enumerate()
        .map(|(i, input)| Request::Run {
            spec,
            input: input.clone(),
            seed: i as u64,
        })
        .collect();
    reqs.push(Request::Bounds {
        n: 5,
        k: 3,
        security: 20,
    });

    let resps = client.batch(reqs).expect("batch served");
    assert_eq!(resps.len(), 7);
    for (i, input) in inputs.iter().enumerate() {
        let expected = run_sequential(setup.proto.as_ref(), &setup.partition, input, i as u64);
        assert_eq!(resps[i], Response::Run(expected), "batch slot {i}");
    }
    assert!(matches!(resps[6], Response::Bounds(_)));

    // Repeated bounds requests hit the verdict cache.
    for _ in 0..5 {
        client.bounds(5, 3, 20).expect("cached bounds");
    }
    let cache = server.cache_stats();
    assert!(cache.hits >= 5, "bounds cache saw no hits: {cache:?}");
    assert_eq!(cache.misses, 1);

    server.shutdown();
}

#[test]
fn exact_singularity_is_served_remotely() {
    let server = test_server();
    let mut client = Client::connect(server.addr(), TransportConfig::default()).expect("connect");

    let enc = MatrixEncoding::new(3, 3);
    let singular = ccmx::linalg::matrix::int_matrix(&[&[1, 2, 3], &[2, 4, 6], &[0, 1, 5]]);
    let regular = ccmx::linalg::matrix::int_matrix(&[&[1, 0, 0], &[0, 1, 0], &[0, 0, 1]]);
    assert!(client
        .singularity(3, 3, &enc.encode(&singular))
        .expect("singular query"));
    assert!(!client
        .singularity(3, 3, &enc.encode(&regular))
        .expect("regular query"));

    server.shutdown();
}

/// Client settings for the cache tests: a 20x20 search runs for seconds
/// in a debug build, longer than the default 5 s read timeout allows.
fn patient() -> TransportConfig {
    TransportConfig {
        read_timeout: Some(Duration::from_secs(300)),
        ..TransportConfig::default()
    }
}

/// A server that keeps a quiet connection open while another one's
/// search runs, however slowly the test machine schedules the clients.
fn patient_server() -> ccmx::net::ServerHandle {
    serve(
        "127.0.0.1:0",
        ServerConfig {
            read_timeout: Duration::from_secs(300),
            ..ServerConfig::default()
        },
    )
    .expect("bind integration-test server")
}

/// A BENCH_e20 intersection-threshold search: `popcount(x & y) >= 2`
/// on a `dim x dim` truth matrix (CC = 5 at dim 18 and 20).
fn intersect_search(dim: usize) -> Request {
    Request::CcSearch {
        rows: dim,
        cols: dim,
        bits: BitString::from_bits(
            (0..dim * dim)
                .map(|i| ((i / dim) & (i % dim)).count_ones() >= 2)
                .collect(),
        ),
        depth_limit: 64,
    }
}

#[test]
fn cached_cc_hit_is_answered_before_a_slow_search() {
    let server = patient_server();
    let addr = server.addr();
    // Equality on 2 bits (CC = 3), cached by its first request.
    let cached = Request::CcSearch {
        rows: 4,
        cols: 4,
        bits: BitString::from_bits((0..16).map(|i| i / 4 == i % 4).collect()),
        depth_limit: 32,
    };
    let mut hit_client = Client::connect(addr, patient()).expect("connect");
    let first = hit_client.request(&cached).expect("cold cc search");
    assert!(matches!(
        first,
        Response::CcSearch {
            cc: 3,
            exact: true,
            ..
        }
    ));
    let misses = server.cache_stats().misses;

    let answered = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let slow = {
        let answered = std::sync::Arc::clone(&answered);
        std::thread::spawn(move || {
            let mut client = Client::connect(addr, patient()).expect("connect");
            let resp = client.request(&intersect_search(20)).expect("slow search");
            answered.lock().unwrap().push("search");
            resp
        })
    };
    // The search's miss is registered before it computes: from here on
    // the server is searching.
    while server.cache_stats().misses == misses {
        std::thread::sleep(Duration::from_millis(1));
    }
    let hit = hit_client.request(&cached).expect("cached cc search");
    answered.lock().unwrap().push("hit");
    let searched = slow.join().expect("search thread");

    assert_eq!(hit, first);
    assert!(matches!(
        searched,
        Response::CcSearch {
            cc: 5,
            exact: true,
            ..
        }
    ));
    assert_eq!(
        *answered.lock().unwrap(),
        ["hit", "search"],
        "the cached answer waited for the search"
    );
    server.shutdown();
}

#[test]
fn concurrent_identical_searches_run_one_solve() {
    let server = patient_server();
    let addr = server.addr();
    let start = std::sync::Arc::new(std::sync::Barrier::new(4));
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let start = std::sync::Arc::clone(&start);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr, patient()).expect("connect");
                start.wait();
                client.request(&intersect_search(20)).expect("search")
            })
        })
        .collect();
    let answers: Vec<Response> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .collect();
    assert!(matches!(
        answers[0],
        Response::CcSearch {
            cc: 5,
            exact: true,
            ..
        }
    ));
    assert!(answers.iter().all(|a| *a == answers[0]), "answers differ");
    let cache = server.cache_stats();
    assert_eq!((cache.misses, cache.hits), (1, 3), "{cache:?}");
    server.shutdown();
}
