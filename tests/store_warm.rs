//! Warm-restart integration: a server given a data directory persists
//! every certified verdict and, after a full process-lifetime boundary
//! (shutdown + fresh `serve`), answers the same requests from the
//! disk-seeded verdict cache with **zero recomputation** —
//! counter-verified through the per-instance cache statistics — while
//! the `ccmx_store_*` metric families show up on a live scrape. Stores
//! written in the legacy per-kind layout migrate on first open: bounds
//! and CC records re-key and still warm-hit, fingerprint-keyed
//! singularity records are dropped unread. Also exercises the durable
//! enumeration cursor against a real truth-matrix sweep.

use ccmx::comm::functions::Singularity;
use ccmx::comm::truth::TruthMatrix;
use ccmx::comm::{BitString, Partition};
use ccmx::net::wire::{KIND_REQUEST, KIND_RESPONSE};
use ccmx::net::{Request, Response, ServerConfig, TcpTransport, TransportConfig, WireCodec};
use ccmx::store::{DurableCursor, Keyspace, Store, StoreConfig};

fn tmp(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ccmx-warm-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn roundtrip(t: &mut TcpTransport, req: &Request) -> Response {
    t.send_frame(KIND_REQUEST, &req.to_wire_bytes()).unwrap();
    let (kind, payload) = t.recv_frame().unwrap();
    assert_eq!(kind, KIND_RESPONSE);
    Response::from_wire_bytes(&payload).unwrap()
}

#[test]
fn warm_restart_serves_certified_results_without_recompute() {
    let dir = tmp("server");
    let config = ServerConfig {
        workers: 2,
        store_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };

    let f = Singularity::new(2, 3);
    let m = ccmx::linalg::matrix::int_matrix(&[&[2, 7], &[3, 5]]);
    let requests = [
        Request::Bounds {
            n: 9,
            k: 4,
            security: 32,
        },
        Request::Singularity {
            dim: 2,
            k: 3,
            input: f.enc.encode(&m),
        },
        Request::CcSearch {
            rows: 4,
            cols: 4,
            bits: BitString::from_bits((0..16).map(|i| i / 4 == i % 4).collect()),
            depth_limit: 32,
        },
    ];

    // Cold lifetime: compute, persist, die.
    let cold: Vec<Response> = {
        let server = ccmx::net::serve("127.0.0.1:0", config.clone()).unwrap();
        let mut t = TcpTransport::connect(server.addr(), TransportConfig::default()).unwrap();
        let out = requests.iter().map(|r| roundtrip(&mut t, r)).collect();
        assert_eq!(server.store_stat().unwrap().live_records, 3);
        server.shutdown();
        out
    };
    for resp in &cold {
        assert!(
            !matches!(resp, Response::Error(_)),
            "cold answer failed: {resp:?}"
        );
    }

    // Warm lifetime: everything answers from the disk-seeded cache.
    let server = ccmx::net::serve("127.0.0.1:0", config).unwrap();
    let mut t = TcpTransport::connect(server.addr(), TransportConfig::default()).unwrap();
    for (req, cold_resp) in requests.iter().zip(&cold) {
        assert_eq!(
            &roundtrip(&mut t, req),
            cold_resp,
            "warm answer diverged for {req:?}"
        );
    }
    let cache = server.cache_stats();
    assert_eq!(
        (cache.hits, cache.misses),
        (3, 0),
        "a verdict was recomputed"
    );

    // The store tier is visible on a live scrape, families and all.
    let Response::Metrics(text) = roundtrip(&mut t, &Request::Metrics) else {
        panic!("expected metrics")
    };
    for series in [
        "ccmx_store_segments",
        "ccmx_store_live_records",
        "ccmx_store_appends_total",
        "ccmx_store_warm_seeded_total",
    ] {
        assert!(text.contains(series), "scrape lacks {series}");
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

fn store_config(dir: &std::path::Path) -> ServerConfig {
    ServerConfig {
        workers: 2,
        store_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    }
}

fn counter(name: &'static str, keyspace: &'static str) -> u64 {
    ccmx::obs::registry()
        .counter(name, &[("keyspace", keyspace)])
        .get()
}

#[test]
fn legacy_fingerprint_verdicts_are_dropped_not_trusted() {
    let dir = tmp("legacy-crt");
    let f = Singularity::new(2, 3);
    let m = ccmx::linalg::matrix::int_matrix(&[&[2, 7], &[3, 5]]);
    assert_eq!(ccmx::linalg::crt::rank_int(&m), 2, "M is nonsingular");
    // What a forced fingerprint collision would have persisted: a
    // legacy `crt` record under M's fingerprint that calls M singular.
    {
        let mut store = Store::open(StoreConfig::new(&dir).label("legacy")).unwrap();
        let mut key = Vec::new();
        2usize.put(&mut key);
        3u32.put(&mut key);
        ccmx::linalg::crt::matrix_fingerprint(&m).put(&mut key);
        ccmx::linalg::crt::active_backend()
            .id()
            .to_string()
            .put(&mut key);
        store.put(Keyspace::CRT, &key, &[1]).unwrap();
        store.sync().unwrap();
    }

    let dropped = counter("ccmx_store_legacy_dropped_total", "crt");
    let server = ccmx::net::serve("127.0.0.1:0", store_config(&dir)).unwrap();
    assert_eq!(
        counter("ccmx_store_legacy_dropped_total", "crt") - dropped,
        1,
        "the fingerprint record was not counted as dropped"
    );
    let mut t = TcpTransport::connect(server.addr(), TransportConfig::default()).unwrap();
    let req = Request::Singularity {
        dim: 2,
        k: 3,
        input: f.enc.encode(&m),
    };
    assert_eq!(
        roundtrip(&mut t, &req),
        Response::Singularity { singular: false }
    );
    assert_eq!(server.cache_stats().misses, 1, "the verdict was recomputed");
    // The legacy record is tombstoned; the fresh verdict is stored
    // under the exact request.
    let stat = server.store_stat().unwrap();
    assert_eq!(stat.per_keyspace, vec![("verdict".to_string(), 1)]);
    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn legacy_bounds_and_cc_records_warm_start_as_hits() {
    let dir = tmp("legacy-rekey");
    let (n, k, security) = (7usize, 3u32, 24u32);
    let bits = BitString::from_bits((0..16).map(|i| i / 4 == i % 4).collect());
    let requests = [
        Request::Bounds { n, k, security },
        Request::CcSearch {
            rows: 4,
            cols: 4,
            bits: bits.clone(),
            depth_limit: 32,
        },
    ];
    // Authentic answers, from a server without a store.
    let answers: Vec<Response> = {
        let server = ccmx::net::serve("127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut t = TcpTransport::connect(server.addr(), TransportConfig::default()).unwrap();
        requests.iter().map(|r| roundtrip(&mut t, r)).collect()
    };
    let Response::Bounds(report) = &answers[0] else {
        panic!("expected bounds, got {:?}", answers[0])
    };
    // Written in the legacy layout: per-kind keyspaces and key codecs.
    {
        let mut store = Store::open(StoreConfig::new(&dir).label("legacy")).unwrap();
        let mut key = Vec::new();
        n.put(&mut key);
        k.put(&mut key);
        security.put(&mut key);
        ccmx::linalg::crt::active_backend()
            .id()
            .to_string()
            .put(&mut key);
        store
            .put(Keyspace::BOUNDS, &key, &report.to_wire_bytes())
            .unwrap();
        let mut key = Vec::new();
        4usize.put(&mut key);
        4usize.put(&mut key);
        bits.put(&mut key);
        32u32.put(&mut key);
        store
            .put(Keyspace::CC, &key, &answers[1].to_wire_bytes())
            .unwrap();
        store.sync().unwrap();
    }

    let rekeyed = |ks| counter("ccmx_store_legacy_rekeyed_total", ks);
    let before = (rekeyed("bounds"), rekeyed("cc"));
    let server = ccmx::net::serve("127.0.0.1:0", store_config(&dir)).unwrap();
    assert_eq!(
        (rekeyed("bounds") - before.0, rekeyed("cc") - before.1),
        (1, 1)
    );
    let mut t = TcpTransport::connect(server.addr(), TransportConfig::default()).unwrap();
    for (req, answer) in requests.iter().zip(&answers) {
        assert_eq!(&roundtrip(&mut t, req), answer, "migrated {req:?}");
    }
    let cache = server.cache_stats();
    assert_eq!(
        (cache.hits, cache.misses),
        (2, 0),
        "a migrated verdict recomputed"
    );
    let stat = server.store_stat().unwrap();
    assert_eq!(stat.per_keyspace, vec![("verdict".to_string(), 2)]);
    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn durable_cursor_resumes_a_truth_matrix_sweep() {
    // Ground truth: the full 16x16 singularity truth matrix under π₀.
    let f = Singularity::new(2, 2);
    let pi = Partition::pi_zero(&f.enc);
    let t = TruthMatrix::enumerate(&f, &pi, 1);
    let expected: u64 = t.count_ones();
    let rows = t.rows() as u64;

    let dir = tmp("cursor");
    let acc_of = |c: &DurableCursor| -> u64 {
        if c.state().is_empty() {
            0
        } else {
            u64::from_le_bytes(c.state().try_into().unwrap())
        }
    };

    // First lifetime: sweep rows 0..10, committing every 4 rows, then
    // "crash" (drop without a final commit).
    {
        let mut store = Store::open(StoreConfig::new(&dir).label("sweep")).unwrap();
        let mut cursor = DurableCursor::load(&store, "singularity-2x2-rows", 4);
        let mut acc = acc_of(&cursor);
        for row in cursor.position()..10 {
            acc += t.row_ones(row as usize);
            cursor.set_state(acc.to_le_bytes().to_vec());
            cursor.advance(&mut store, row + 1).unwrap();
        }
    }

    // Second lifetime: resume at the last auto-commit (row 8 — the
    // crash cost at most `commit_every - 1` rows of re-enumeration),
    // finish the sweep, and land on the exact full-matrix count.
    let mut store = Store::open(StoreConfig::new(&dir).label("sweep")).unwrap();
    let mut cursor = DurableCursor::load(&store, "singularity-2x2-rows", 4);
    assert_eq!(cursor.position(), 8, "resume point is the last commit");
    let mut acc = acc_of(&cursor);
    for row in cursor.position()..rows {
        acc += t.row_ones(row as usize);
        cursor.set_state(acc.to_le_bytes().to_vec());
        cursor.advance(&mut store, row + 1).unwrap();
    }
    cursor.commit(&mut store).unwrap();
    assert_eq!(acc, expected, "resumed sweep must equal a clean sweep");

    // Third lifetime: the finished position itself is durable.
    let reopened = Store::open(StoreConfig::new(&dir).label("sweep")).unwrap();
    let done = DurableCursor::load(&reopened, "singularity-2x2-rows", 4);
    assert_eq!(done.position(), rows);
    assert_eq!(acc_of(&done), expected);
    std::fs::remove_dir_all(&dir).unwrap();
}
