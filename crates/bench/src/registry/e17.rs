//! E17: the chaos/retry/breaker stack under load.
//!
//! Four phases against a real loopback server: (1) a healthy baseline —
//! one `RetryClient` driving distinct idempotent interactive runs, each
//! checked for `wire bits == transcript bits`; (2) a retry storm —
//! several concurrent clients doing the same; (3) idempotent replays —
//! the same keys again, which must be served from cache with zero wire
//! traffic; (4) bounds latency healthy vs breaker-open, where the
//! degraded path answers from the client's cache while the breaker
//! refuses the wire. A seeded aggressive chaos soak closes the document
//! with the zero-divergence verdict.

use std::time::Instant;

use ccmx_net::{
    chaos_soak, serve, BreakerConfig, ChaosLevel, ProtoSpec, RetryClient, RetryPolicy,
    ServerConfig, TransportConfig,
};

use super::{push_rows, ratio, Check, Outcome};

pub(super) fn run(quick: bool) -> Outcome {
    let spec = ProtoSpec::ModPrimeSingularity {
        dim: 2,
        k: 4,
        security: 16,
    };
    let runs: u64 = if quick { 6 } else { 24 };
    let storm_clients: usize = 4;
    let bounds_calls: usize = if quick { 10 } else { 40 };
    let soak_trials: usize = if quick { 3 } else { 8 };
    let mut rows: Vec<String> = Vec::new();

    let server = serve("127.0.0.1:0", ServerConfig::default()).expect("bind e17 server");
    let addr = server.addr().to_string();
    let policy = RetryPolicy {
        jitter_seed: 17,
        ..RetryPolicy::default()
    };
    // A long open window so the degraded-latency phase below stays on
    // the cache path instead of racing the half-open probe clock.
    let breaker_cfg = BreakerConfig {
        open_for: std::time::Duration::from_secs(30),
        ..BreakerConfig::default()
    };
    let mut rc = RetryClient::new(&addr, TransportConfig::default(), policy, breaker_cfg);

    // Phase 1: healthy baseline, one client.
    let mut meter_ok = true;
    let start = Instant::now();
    for s in 0..runs {
        let input = ccmx_net::chaos::random_input(spec, 1700 + s);
        let run = rc.run_idempotent(spec, &input, s).expect("healthy run");
        meter_ok &= run.stats.bits_total() == run.result_a.transcript.total_bits();
    }
    let healthy_s = start.elapsed().as_secs_f64();
    let healthy_rps = runs as f64 / healthy_s;
    rows.push(format!(
        "{{\"workload\": \"healthy_idempotent_runs\", \"clients\": 1, \"runs\": {runs}, \"runs_per_sec\": {healthy_rps:.1}}}"
    ));

    // Phase 2: retry storm — concurrent clients, distinct keys each.
    let start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..storm_clients {
            let addr = addr.clone();
            scope.spawn(move || {
                let mut rc =
                    RetryClient::new(&addr, TransportConfig::default(), policy, breaker_cfg);
                for s in 0..runs {
                    let seed = ((c as u64) << 32) | s;
                    let input = ccmx_net::chaos::random_input(spec, seed);
                    let run = rc.run_idempotent(spec, &input, seed).expect("storm run");
                    assert!(!run.replayed, "distinct keys must hit the wire");
                }
            });
        }
    });
    let storm_s = start.elapsed().as_secs_f64();
    let storm_rps = (storm_clients as u64 * runs) as f64 / storm_s;
    rows.push(format!(
        "{{\"workload\": \"retry_storm\", \"clients\": {storm_clients}, \"runs\": {}, \"runs_per_sec\": {storm_rps:.1}}}",
        storm_clients as u64 * runs
    ));

    // Phase 3: idempotent replays — same keys as phase 1, zero wire.
    let committed_before = rc.committed_stats();
    let start = Instant::now();
    for s in 0..runs {
        let input = ccmx_net::chaos::random_input(spec, 1700 + s);
        let run = rc.run_idempotent(spec, &input, s).expect("replay");
        assert!(run.replayed, "repeat keys must replay from cache");
    }
    let replay_s = start.elapsed().as_secs_f64();
    let replay_rps = runs as f64 / replay_s;
    assert_eq!(
        rc.committed_stats(),
        committed_before,
        "replays must move no bits"
    );
    rows.push(format!(
        "{{\"workload\": \"idempotent_replays\", \"clients\": 1, \"runs\": {runs}, \"runs_per_sec\": {replay_rps:.1}}}"
    ));

    // Phase 4a: healthy bounds latency over the wire.
    let start = Instant::now();
    for _ in 0..bounds_calls {
        let (_, degraded) = rc.bounds_degraded(7, 3, 20).expect("healthy bounds");
        assert!(!degraded);
    }
    let healthy_bounds_us = start.elapsed().as_secs_f64() * 1e6 / bounds_calls as f64;
    rows.push(format!(
        "{{\"workload\": \"bounds_healthy\", \"calls\": {bounds_calls}, \"us_per_call\": {healthy_bounds_us:.1}}}"
    ));

    // Phase 4b: kill the server, trip the breaker, and measure the
    // degraded (cached) path.
    server.shutdown();
    let _ = rc.ping(); // exhausts retries; the failure streak opens the breaker
    assert_eq!(
        rc.breaker().state(),
        ccmx_net::BreakerState::Open,
        "breaker must be open for the degraded phase"
    );
    let start = Instant::now();
    for _ in 0..bounds_calls {
        let (_, degraded) = rc.bounds_degraded(7, 3, 20).expect("degraded bounds");
        assert!(degraded, "open breaker must serve from cache");
    }
    let degraded_bounds_us = start.elapsed().as_secs_f64() * 1e6 / bounds_calls as f64;
    rows.push(format!(
        "{{\"workload\": \"bounds_breaker_open_degraded\", \"calls\": {bounds_calls}, \"us_per_call\": {degraded_bounds_us:.1}}}"
    ));

    // Phase 5: seeded aggressive chaos soak — the divergence verdict.
    let soak = chaos_soak(spec, soak_trials, 17, ChaosLevel::Aggressive);
    rows.push(format!(
        "{{\"workload\": \"chaos_soak_aggressive\", \"trials\": {}, \"clean_bits\": {}, \"faulted_bits\": {}, \"faults_injected\": {}, \"retransmits\": {}}}",
        soak.trials, soak.clean_bits, soak.faulted_bits, soak.faults_injected, soak.retransmits
    ));

    let mut body = String::new();
    out!(body, "  \"healthy_runs_per_sec\": {healthy_rps:.1},");
    out!(body, "  \"storm_runs_per_sec\": {storm_rps:.1},");
    out!(body, "  \"replay_runs_per_sec\": {replay_rps:.1},");
    out!(body, "  \"bounds_healthy_us\": {healthy_bounds_us:.1},");
    out!(body, "  \"bounds_degraded_us\": {degraded_bounds_us:.1},");
    out!(
        body,
        "  \"degraded_speedup_over_healthy\": {:.1},",
        ratio(healthy_bounds_us, degraded_bounds_us)
    );
    out!(
        body,
        "  \"chaos_bit_divergence\": {},",
        soak.bit_divergence()
    );
    push_rows(&mut body, "results", &rows);
    Outcome {
        body,
        checks: vec![Check::holds(
            "zero_bit_divergence",
            soak.passed() && meter_ok,
        )],
    }
}
