//! E21: cold vs warm server start over the persistent certified-result
//! tier (`crates/store`).
//!
//! One deterministic E17-style storm — concurrent transports issuing
//! bounds, singularity and exact-CC requests, plus a `RetryClient`
//! committing idempotent interactive runs — is driven twice against the
//! *same data directory* across a full process-lifetime boundary:
//!
//! * **cold** — an empty store: every answer is computed and appended;
//! * **warm** — a fresh `serve` on the populated directory: the log is
//!   recovered, the caches are seeded, and the identical storm must be
//!   answered from disk with zero recomputation.
//!
//! `store_ok` asserts the warm answers are bit-identical to the cold
//! ones, the warm bounds/singularity caches saw no misses, every
//! idempotent run replayed from the recovered client store without wire
//! traffic, and recovery accepted at least as many records as the cold
//! lifetime certified.

use std::time::Instant;

use ccmx_bigint::Integer;
use ccmx_comm::functions::Singularity;
use ccmx_comm::BitString;
use ccmx_linalg::Matrix;
use ccmx_net::wire::{KIND_REQUEST, KIND_RESPONSE};
use ccmx_net::{
    serve, BreakerConfig, ProtoSpec, Request, Response, RetryClient, RetryPolicy, ServerConfig,
    TcpTransport, TransportConfig, WireCodec,
};

use super::{ratio, series, Check, Outcome};

pub(super) fn run(quick: bool) -> Outcome {
    let bounds_calls: usize = if quick { 8 } else { 24 };
    let sing_calls: usize = if quick { 6 } else { 16 };
    let runs: u64 = if quick { 4 } else { 12 };
    // The expensive anchor: branch-and-bound CC searches sized (from
    // the committed e20 rows) so the cold lifetime pays real compute —
    // milliseconds to ~100ms per instance — that the warm one skips.
    // `(dim, intersect)`: intersect-threshold or shift-threshold bits.
    let cc_items: &[(usize, bool)] = if quick {
        &[(16, false), (18, true)]
    } else {
        &[(16, false), (18, true), (20, true)]
    };

    let bounds_req = |i: usize| Request::Bounds {
        n: [5usize, 7, 9, 11][i % 4],
        k: [3u32, 4, 5][i % 3],
        security: 16 + (i as u32 % 4) * 8,
    };
    let enc = Singularity::new(3, 3).enc;
    let sing_req = |i: usize| {
        let mut x = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let m = Matrix::from_fn(3, 3, |_, _| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            Integer::from((x >> 33) as i64 % 8)
        });
        Request::Singularity {
            dim: 3,
            k: 3,
            input: enc.encode(&m),
        }
    };
    let cc_req = |dim: usize, intersect: bool| Request::CcSearch {
        rows: dim,
        cols: dim,
        bits: BitString::from_bits(
            (0..dim * dim)
                .map(|i| {
                    let (x, y) = (i / dim, i % dim);
                    if intersect {
                        (x & y).count_ones() >= 2
                    } else {
                        (x + y) % dim < dim / 2
                    }
                })
                .collect(),
        ),
        depth_limit: 64,
    };
    let run_spec = ProtoSpec::FingerprintEquality {
        half_bits: 16,
        security: 16,
    };
    let run_input = |s: u64| BitString::from_u64(0x21ed_0000 + s, 32);

    let roundtrip = |t: &mut TcpTransport, req: &Request| -> Response {
        t.send_frame(KIND_REQUEST, &req.to_wire_bytes())
            .expect("send");
        let (kind, payload) = t.recv_frame().expect("recv");
        assert_eq!(kind, KIND_RESPONSE);
        Response::from_wire_bytes(&payload).expect("decode")
    };

    // One full storm lifetime against `dir`: boot, concurrent request
    // streams, idempotent runs, shutdown. Returns the boot and storm
    // wall clocks, every response (in schedule order per stream), the
    // record count the server's store held at shutdown, how many runs
    // the client store recovered, how many runs replayed without wire
    // traffic, and the server's verdict-cache misses.
    #[allow(clippy::type_complexity)]
    let lifetime = |dir: &std::path::Path| -> (f64, f64, Vec<Response>, u64, usize, usize, u64) {
        let start = Instant::now();
        let server = serve(
            "127.0.0.1:0",
            ServerConfig {
                workers: 4,
                store_dir: Some(dir.join("server")),
                ..ServerConfig::default()
            },
        )
        .expect("bind e21 server");
        let boot_s = start.elapsed().as_secs_f64();
        let addr = server.addr().to_string();

        let start = Instant::now();
        let (mut responses, mut replays) = (Vec::new(), 0usize);
        let mut loaded = 0usize;
        std::thread::scope(|scope| {
            let streams = [
                scope.spawn(|| {
                    let mut t = TcpTransport::connect(server.addr(), TransportConfig::default())
                        .expect("connect e21 stream");
                    (0..bounds_calls)
                        .map(|i| roundtrip(&mut t, &bounds_req(i)))
                        .collect::<Vec<_>>()
                }),
                scope.spawn(|| {
                    let mut t = TcpTransport::connect(server.addr(), TransportConfig::default())
                        .expect("connect e21 stream");
                    (0..sing_calls)
                        .map(|i| roundtrip(&mut t, &sing_req(i)))
                        .collect::<Vec<_>>()
                }),
                scope.spawn(|| {
                    let mut t = TcpTransport::connect(server.addr(), TransportConfig::default())
                        .expect("connect e21 stream");
                    cc_items
                        .iter()
                        .map(|&(d, ix)| roundtrip(&mut t, &cc_req(d, ix)))
                        .collect::<Vec<_>>()
                }),
            ];
            // The run stream shares the storm wall clock from this thread.
            let mut rc = RetryClient::new(
                &addr,
                TransportConfig::default(),
                RetryPolicy::default(),
                BreakerConfig::default(),
            );
            loaded = rc.attach_store(&dir.join("client")).expect("client store");
            for s in 0..runs {
                let run = rc
                    .run_idempotent(run_spec, &run_input(s), s)
                    .expect("storm run");
                replays += usize::from(run.replayed);
            }
            for stream in streams {
                responses.extend(stream.join().expect("storm stream"));
            }
        });
        let storm_s = start.elapsed().as_secs_f64();

        let records = server
            .store_stat()
            .expect("store must be attached")
            .live_records;
        let misses = server.cache_stats().misses;
        server.shutdown();
        (boot_s, storm_s, responses, records, loaded, replays, misses)
    };

    let dir = std::env::temp_dir().join(format!("ccmx-bench-e21-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let (cold_boot, cold_storm, cold_resp, cold_records, cold_loaded, _, _) = lifetime(&dir);
    let (warm_boot, warm_storm, warm_resp, _, warm_loaded, warm_replays, warm_misses) =
        lifetime(&dir);
    // What the server's own store recovered across both lifetimes.
    let server_recovered = series("ccmx_store_recovered_records_total", &[("store", "server")]);

    // Recovery accounting, from the log itself: reopen the server store
    // and count what a third lifetime would accept.
    let recovered = {
        let s = ccmx_store::Store::open(ccmx_store::StoreConfig::new(dir.join("server")))
            .expect("reopen server store");
        assert!(
            s.recovery().quarantined_segments == 0,
            "clean shutdowns must recover clean"
        );
        s.recovery().recovered_records
    };

    let answered = |resp: &[Response]| resp.iter().all(|r| !matches!(r, Response::Error(_)));
    let store_ok = answered(&cold_resp)
        && cold_resp == warm_resp
        && cold_loaded == 0
        && warm_loaded == runs as usize
        && warm_replays == runs as usize
        && warm_misses == 0
        && recovered >= cold_records
        && cold_records > 0;
    let warm_speedup = ratio(cold_storm, warm_storm);

    let _ = std::fs::remove_dir_all(&dir);

    let mut body = String::new();
    out!(
        body,
        "  \"requests_per_storm\": {},",
        bounds_calls + sing_calls + cc_items.len() + runs as usize
    );
    out!(body, "  \"cold_boot_ms\": {:.3},", cold_boot * 1e3);
    out!(body, "  \"warm_boot_ms\": {:.3},", warm_boot * 1e3);
    out!(body, "  \"cold_storm_ms\": {:.3},", cold_storm * 1e3);
    out!(body, "  \"warm_storm_ms\": {:.3},", warm_storm * 1e3);
    out!(body, "  \"warm_speedup\": {warm_speedup:.2},");
    out!(body, "  \"certified_records\": {cold_records},");
    out!(body, "  \"recovered_records\": {recovered},");
    out!(body, "  \"warm_run_replays\": {warm_replays},");
    Outcome {
        body,
        checks: vec![
            Check::holds("store_ok", store_ok),
            Check::nonzero(
                "ccmx_store_recovered_records_total{store=\"server\"}",
                server_recovered,
            ),
            Check::at_least("warm_speedup", warm_speedup, 1.5),
        ],
    }
}
