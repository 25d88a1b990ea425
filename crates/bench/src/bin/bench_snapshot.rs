//! Machine-readable snapshots of the kernel benchmarks.
//!
//! Default mode runs the `e14_exact_kernels` workloads (committed as
//! `BENCH_e14.json`); `--e15` runs the `e15_enumeration_engine`
//! workloads — Gray-walk singularity fresh vs incremental, per-prime vs
//! batched residue reduction, plus re-measured e14 det/rank rows — and
//! is committed as `BENCH_e15.json`. Both use plain wall-clock timing so
//! the performance trajectory of the exact backends is tracked in-repo.
//!
//! The e15 document also carries an `incremental_ok` verdict: whether a
//! real `TruthMatrix::enumerate` run stayed on the incremental-oracle
//! path instead of falling back to fresh evaluation (checked by
//! `scripts/verify.sh --bench-smoke`).
//!
//! `--e16` runs the observability-overhead workloads from
//! `e16_observability` — registered counter vs raw atomic vs a mutexed
//! baseline, histogram record, span scope, full render — committed as
//! `BENCH_e16.json`.
//!
//! `--e17` runs the resilience-stack workloads: healthy interactive-run
//! throughput through a [`ccmx_net::RetryClient`], a concurrent retry
//! storm, idempotent-replay throughput, healthy vs breaker-open
//! (cache-degraded) bounds latency, and a seeded aggressive chaos soak
//! whose metered-bit divergence must be zero — committed as
//! `BENCH_e17.json`.
//!
//! Every mode starts from `ccmx_obs::registry().reset()` so the counter
//! rows of one document never include another mode's traffic, and every
//! document ends with a `metrics` dump of the registry as it stood when
//! the snapshot finished.
//!
//! `--e18` runs the cluster workloads against *separate* shard and
//! coordinator processes (the sibling `ccmx` binary must be built):
//! a 10k-connection concurrency wave against the coordinator's evented
//! engine, the cache-partition scaling sweep — one working set of
//! expensive bounds keys cycled through 2/4/8 shards whose per-shard
//! LRU only fits `1/4` of it, so aggregate cache capacity (not CPU) is
//! what added shards buy — and an in-process chaos-soaked resharding
//! run whose metered-bit divergence must be zero — committed as
//! `BENCH_e18.json`.
//!
//! `--e19` runs the communication-avoiding kernel workloads: the blocked
//! Montgomery elimination (panel factorization with one batched inversion
//! per panel + grouped-REDC trailing update, tile width derived from the
//! `CCMX_FAST_MEM_WORDS` Hong–Kung knob) against the scalar
//! delayed-reduction sweeps over full CRT prime plans, with the
//! `ccmx_iomodel_*` meter read back per kernel call and compared against
//! the Ω(n³/√M) Hong–Kung scale — committed as `BENCH_e19.json`. Its
//! `blocked_ok` verdict (blocked path actually taken, meter nonzero) is
//! checked by `scripts/verify.sh --bench-smoke`, and
//! `scripts/bench_snapshot.sh` gates `det_crt_blocked_speedup_n32 ≥ 1.3`.
//!
//! `--e20` runs the exact-CC branch-and-bound workloads: each instance
//! is solved serial-without-memo (the oracle baseline), serial-with-memo
//! and parallel-with-memo, and the speedups at the largest benched dim
//! are the committed acceptance gate in `BENCH_e20.json` (`verify.sh
//! --bench-smoke` replays the quick variant). `search_ok` asserts the
//! three configurations agreed on every CC value and that the memo
//! actually hit.
//!
//! `--e21` runs the persistent-store workloads: one deterministic
//! E17-style storm (concurrent bounds / singularity / exact-CC request
//! streams plus idempotent interactive runs) driven twice against the
//! same data directory across a full server-lifetime boundary — cold
//! (empty log, every answer computed and appended) vs warm (log
//! recovered, caches disk-seeded, zero recomputation) — committed as
//! `BENCH_e21.json`. Its `store_ok` verdict (warm answers bit-identical,
//! zero warm cache misses, every run replayed from the recovered client
//! store) plus `recovered_records > 0` and the warm-speedup floor are
//! checked by `scripts/verify.sh --bench-smoke`.
//!
//! Usage: `bench_snapshot [--quick] [--e15 | --e16 | --e17 | --e18 |
//! --e19 | --e20 | --e21]` — `--quick` lowers the repeat count (CI
//! smoke); the committed snapshots use the default.

use std::time::Instant;

use ccmx_bench::{random_matrix, rng_for};
use ccmx_bigint::{Integer, Natural, Rational};
use ccmx_comm::functions::Singularity;
use ccmx_comm::{MatrixEncoding, Partition};
use ccmx_linalg::parallel::default_threads;
use ccmx_linalg::ring::RationalField;
use ccmx_linalg::{bareiss, crt, gauss, modular, Matrix};

const ENTRY_BITS: u32 = 32;
const SIZES: [usize; 4] = [8, 16, 32, 64];
/// Repeat count for the cheap Montgomery-CRT rows (best-of minimum needs
/// more samples than the multi-second rational baselines to stabilize).
const CRT_REPS: usize = 9;
/// The rational baseline stops here: ℚ-Gauss coefficient blow-up makes
/// n = 64 take minutes per determinant.
const RATIONAL_MAX_N: usize = 32;

fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let start = Instant::now();
        let v = f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        out = Some(v);
    }
    (best, out.expect("reps >= 1"))
}

struct Row {
    n: usize,
    backend: &'static str,
    op: &'static str,
    millis: f64,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let reps = if quick { 1 } else { 3 };
    // Fresh counters per mode: e14/e15/e16 rows must be independent.
    ccmx_obs::registry().reset();
    if std::env::args().any(|a| a == "--e15") {
        e15_snapshot(reps);
        return;
    }
    if std::env::args().any(|a| a == "--e16") {
        e16_snapshot(if quick { 1 } else { CRT_REPS });
        return;
    }
    if std::env::args().any(|a| a == "--e17") {
        e17_snapshot(quick);
        return;
    }
    if std::env::args().any(|a| a == "--e18") {
        e18_snapshot(quick);
        return;
    }
    if std::env::args().any(|a| a == "--e19") {
        e19_snapshot(quick);
        return;
    }
    if std::env::args().any(|a| a == "--e20") {
        e20_snapshot(quick);
        return;
    }
    if std::env::args().any(|a| a == "--e21") {
        e21_snapshot(quick);
        return;
    }
    let threads = default_threads();
    let mut rng = rng_for("e14");
    let entry_bound = Natural::from(1u64 << ENTRY_BITS);
    let mut rows: Vec<Row> = Vec::new();

    // The CRT rows are cheap and also re-measured by `--e15`; extra reps
    // pin their best-of minimum so the two documents agree run-to-run.
    let crt_reps = if reps == 1 { 1 } else { CRT_REPS };
    for n in SIZES {
        let m: Matrix<Integer> = random_matrix(n, ENTRY_BITS, &mut rng);
        let mq = m.map(|e| Rational::from(e.clone()));

        let (crt_det_ms, det_crt) =
            time_best(crt_reps, || modular::det_via_crt(&m, &entry_bound, threads));
        rows.push(Row {
            n,
            backend: "montgomery_crt",
            op: "det",
            millis: crt_det_ms,
        });

        let (crt_rank_ms, rank_crt) = time_best(crt_reps, || crt::rank_int(&m));
        rows.push(Row {
            n,
            backend: "montgomery_crt",
            op: "rank",
            millis: crt_rank_ms,
        });

        let (bareiss_ms, det_bareiss) = time_best(reps, || bareiss::det(&m));
        rows.push(Row {
            n,
            backend: "bareiss",
            op: "det",
            millis: bareiss_ms,
        });
        assert_eq!(det_crt, det_bareiss, "backend disagreement at n = {n}");

        if n <= RATIONAL_MAX_N {
            let (q_det_ms, det_q) = time_best(reps, || gauss::det(&RationalField, &mq));
            rows.push(Row {
                n,
                backend: "rational_gauss",
                op: "det",
                millis: q_det_ms,
            });
            assert_eq!(
                det_q,
                Rational::from(det_crt.clone()),
                "rational det disagreement at n = {n}"
            );
            let (q_rank_ms, rank_q) = time_best(reps, || gauss::rank(&RationalField, &mq));
            rows.push(Row {
                n,
                backend: "rational_gauss",
                op: "rank",
                millis: q_rank_ms,
            });
            assert_eq!(rank_q, rank_crt, "rank disagreement at n = {n}");
        }
    }

    // Headline number for the acceptance gate: ℚ-Gauss / Montgomery-CRT
    // det speedup at n = 32.
    let ms_of = |backend: &str, op: &str, n: usize| {
        rows.iter()
            .find(|r| r.backend == backend && r.op == op && r.n == n)
            .map(|r| r.millis)
    };
    let speedup_32 = match (
        ms_of("rational_gauss", "det", 32),
        ms_of("montgomery_crt", "det", 32),
    ) {
        (Some(q), Some(c)) if c > 0.0 => q / c,
        _ => 0.0,
    };

    emit_e14(threads, reps, &rows, speedup_32);
}

/// Render the live registry as a JSON string array, one exposition line
/// per element, for embedding in a snapshot document.
fn metrics_json_lines(indent: &str) -> String {
    let text = ccmx_obs::registry().render();
    let lines: Vec<String> = text
        .lines()
        .map(|l| {
            format!(
                "{indent}\"{}\"",
                l.replace('\\', "\\\\").replace('"', "\\\"")
            )
        })
        .collect();
    lines.join(",\n")
}

/// The `--e15` snapshot: kernel-engine workloads, mirroring the
/// `e15_enumeration_engine` criterion bench, plus re-measured e14
/// det/rank rows (identical `rng_for("e14")` workload stream) so drift
/// of the CRT backends is visible from this document alone.
fn e15_snapshot(reps: usize) {
    let threads = default_threads();
    let mut rows: Vec<String> = Vec::new();

    // Gray-walk singularity: fresh eval vs incremental cursor.
    const WALK_STEPS: usize = 256;
    let mut speedup_walk_dim8 = 0.0;
    for dim in [4usize, 8] {
        let f = Singularity::new(dim, 1);
        let b_pos = ccmx_bench::b_positions(dim, 1);
        let steps = WALK_STEPS.min(1 << b_pos.len());
        let (fresh_ms, ones_fresh) =
            time_best(reps, || ccmx_bench::gray_walk_fresh(&f, &b_pos, steps));
        let (inc_ms, ones_inc) = time_best(reps, || {
            ccmx_bench::gray_walk_incremental(&f, &b_pos, steps)
        });
        assert_eq!(ones_fresh, ones_inc, "walk disagreement at dim {dim}");
        rows.push(format!(
            "{{\"workload\": \"gray_walk_fresh\", \"dim\": {dim}, \"k\": 1, \"steps\": {steps}, \"ms\": {fresh_ms:.4}}}"
        ));
        rows.push(format!(
            "{{\"workload\": \"gray_walk_incremental\", \"dim\": {dim}, \"k\": 1, \"steps\": {steps}, \"ms\": {inc_ms:.4}}}"
        ));
        if dim == 8 && inc_ms > 0.0 {
            speedup_walk_dim8 = fresh_ms / inc_ms;
        }
    }

    // Residue reduction: scalar per-prime vs one-pass batched.
    let mut rng = rng_for("e15");
    let n = 32usize;
    let entry_bits = 32u32;
    let m = random_matrix(n, entry_bits, &mut rng);
    let primes = modular::crt_prime_plan(n, &Natural::from(1u64 << entry_bits));
    let (per_prime_ms, _) = time_best(reps, || {
        let mut acc = 0u64;
        for &p in &primes {
            let field = ccmx_linalg::montgomery::MontgomeryField::new(p);
            for e in m.data() {
                acc = acc.wrapping_add(field.reduce(e));
            }
        }
        acc
    });
    let mut plan = ccmx_linalg::engine::ResiduePlan::new(&primes);
    let (batched_ms, _) = time_best(reps, || plan.reduce_matrix(&m));
    rows.push(format!(
        "{{\"workload\": \"reduce_per_prime\", \"n\": {n}, \"entry_bits\": {entry_bits}, \"primes\": {}, \"ms\": {per_prime_ms:.4}}}",
        primes.len()
    ));
    rows.push(format!(
        "{{\"workload\": \"reduce_batched\", \"n\": {n}, \"entry_bits\": {entry_bits}, \"primes\": {}, \"ms\": {batched_ms:.4}}}",
        primes.len()
    ));
    let speedup_reduction = if batched_ms > 0.0 {
        per_prime_ms / batched_ms
    } else {
        0.0
    };

    // Re-measured e14 CRT rows, on the same deterministic workloads and
    // repeat count as the default mode, so the two documents agree.
    let crt_reps = if reps == 1 { 1 } else { CRT_REPS };
    let mut rng14 = rng_for("e14");
    let entry_bound = Natural::from(1u64 << 32);
    for n in [8usize, 16, 32, 64] {
        let m: Matrix<Integer> = random_matrix(n, 32, &mut rng14);
        let (det_ms, _) = time_best(crt_reps, || modular::det_via_crt(&m, &entry_bound, threads));
        rows.push(format!(
            "{{\"workload\": \"e14_det_montgomery_crt\", \"n\": {n}, \"ms\": {det_ms:.4}}}"
        ));
        let (rank_ms, _) = time_best(crt_reps, || crt::rank_int(&m));
        rows.push(format!(
            "{{\"workload\": \"e14_rank_montgomery_crt\", \"n\": {n}, \"ms\": {rank_ms:.4}}}"
        ));
    }

    // Incremental-path verdict from a real enumeration: every point of a
    // singularity truth matrix must flow through the oracle cursor, and
    // engine refreshes must stay a small fraction of update steps.
    let f = Singularity::new(4, 1);
    let partition = Partition::pi_zero(&MatrixEncoding::new(4, 1));
    let (inc_pts_before, _) = ccmx_comm::truth::enumeration_stats();
    let (steps_before, fresh_before) = ccmx_linalg::engine::incremental_stats();
    let t = ccmx_comm::truth::TruthMatrix::enumerate(&f, &partition, threads);
    let (inc_pts_after, _) = ccmx_comm::truth::enumeration_stats();
    let (steps_after, fresh_after) = ccmx_linalg::engine::incremental_stats();
    let points = (t.rows() * t.cols()) as u64;
    let cursor_points = inc_pts_after - inc_pts_before;
    let steps = steps_after - steps_before;
    let fresh = fresh_after - fresh_before;
    let incremental_ok = cursor_points >= points && steps > 0 && fresh * 2 <= steps;

    println!("{{");
    println!("  \"experiment\": \"e15_enumeration_engine\",");
    println!("  \"threads\": {threads},");
    println!("  \"reps\": {reps},");
    println!("  \"speedup_incremental_gray_walk_dim8\": {speedup_walk_dim8:.2},");
    println!("  \"speedup_batched_reduction_n32_32bit\": {speedup_reduction:.2},");
    println!("  \"incremental_ok\": {incremental_ok},");
    println!("  \"enumeration_cursor_points\": {cursor_points},");
    println!("  \"engine_update_steps\": {steps},");
    println!("  \"engine_fresh_refreshes\": {fresh},");
    println!("  \"results_ms\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        println!("    {r}{comma}");
    }
    println!("  ],");
    println!("  \"metrics\": [");
    println!("{}", metrics_json_lines("    "));
    println!("  ]");
    println!("}}");
}

/// The `--e19` snapshot: communication-avoiding kernels vs the scalar
/// sweeps, with the Hong–Kung I/O meter read back.
///
/// For each `n`, the full CRT prime plan of a random 32-bit matrix is
/// eliminated twice — once through the scalar delayed-reduction oracle,
/// once through the blocked dispatcher — and the `ccmx_iomodel_*`
/// counter deltas across the blocked run yield modelled words moved per
/// kernel call, reported as a multiple of the Hong–Kung scale `n³/√M`.
/// The RREF rows do the same for the full echelon kernel on one prime.
/// `blocked_ok` asserts the dispatcher really took the blocked path
/// (nonzero blocked calls and words, zero scalar-path calls during the
/// blocked sections): a silently rotted dispatch heuristic fails the
/// `verify.sh --bench-smoke` gate instead of quietly benchmarking the
/// scalar kernel against itself.
fn e19_snapshot(quick: bool) {
    use ccmx_linalg::engine::ResiduePlan;
    use ccmx_linalg::iomodel::{self, Kernel};
    use ccmx_linalg::montgomery::{
        det_from_residues, det_from_residues_scalar, echelon_from_residues,
        echelon_from_residues_scalar,
    };

    let m_words = iomodel::fast_mem_words();
    let panel = iomodel::panel_width();
    let entry_bound = Natural::from(1u64 << ENTRY_BITS);
    let mut rng = rng_for("e19");
    let mut rows: Vec<String> = Vec::new();
    let mut speedup_32 = 0.0;
    let mut blocked_ok = true;

    for n in [16usize, 32, 48, 64] {
        // The n = 32 row is the acceptance gate: extra reps pin its
        // best-of minimum on a noisy single-core box.
        let reps = if quick {
            1
        } else if n <= 32 {
            31
        } else {
            9
        };
        let m: Matrix<Integer> = random_matrix(n, ENTRY_BITS, &mut rng);
        let primes = modular::crt_prime_plan(n, &entry_bound);
        let mut plan = ResiduePlan::new(&primes);
        let residues = plan.reduce_matrix(&m);
        let fields = plan.fields();
        let np = primes.len();

        let (scalar_ms, det_s) = time_best(reps, || {
            let mut acc = 0u64;
            for (k, f) in fields.iter().enumerate() {
                acc ^= det_from_residues_scalar(f, n, &residues[k]);
            }
            acc
        });
        let (w0, c0) = iomodel::kernel_stats(Kernel::Det, true);
        let (s0, _) = iomodel::kernel_stats(Kernel::Det, false);
        let (blocked_ms, det_b) = time_best(reps, || {
            let mut acc = 0u64;
            for (k, f) in fields.iter().enumerate() {
                acc ^= det_from_residues(f, n, &residues[k]);
            }
            acc
        });
        let (w1, c1) = iomodel::kernel_stats(Kernel::Det, true);
        let (s1, _) = iomodel::kernel_stats(Kernel::Det, false);
        assert_eq!(det_s, det_b, "blocked/scalar det disagreement at n = {n}");
        let calls = c1 - c0;
        blocked_ok &= calls > 0 && w1 > w0 && s1 == s0;
        let det_words = (w1 - w0).checked_div(calls).unwrap_or(0);
        let det_ratio = det_words as f64 / iomodel::hong_kung_bound(n);
        let speedup = if blocked_ms > 0.0 {
            scalar_ms / blocked_ms
        } else {
            0.0
        };
        if n == 32 {
            speedup_32 = speedup;
        }
        rows.push(format!(
            "{{\"workload\": \"det_scalar_crt\", \"n\": {n}, \"primes\": {np}, \"ms\": {scalar_ms:.4}}}"
        ));
        rows.push(format!(
            "{{\"workload\": \"det_blocked_crt\", \"n\": {n}, \"primes\": {np}, \"ms\": {blocked_ms:.4}, \
             \"speedup\": {speedup:.2}, \"words_per_call\": {det_words}, \"hong_kung_ratio\": {det_ratio:.2}}}"
        ));

        let (rref_s_ms, rank_s) = time_best(reps, || {
            echelon_from_residues_scalar(&fields[0], n, n, &residues[0]).rank()
        });
        let (rw0, rc0) = iomodel::kernel_stats(Kernel::Rref, true);
        let (rs0, _) = iomodel::kernel_stats(Kernel::Rref, false);
        let (rref_b_ms, rank_b) = time_best(reps, || {
            echelon_from_residues(&fields[0], n, n, &residues[0]).rank()
        });
        let (rw1, rc1) = iomodel::kernel_stats(Kernel::Rref, true);
        let (rs1, _) = iomodel::kernel_stats(Kernel::Rref, false);
        assert_eq!(
            rank_s, rank_b,
            "blocked/scalar rref disagreement at n = {n}"
        );
        let rcalls = rc1 - rc0;
        blocked_ok &= rcalls > 0 && rw1 > rw0 && rs1 == rs0;
        let rref_words = (rw1 - rw0).checked_div(rcalls).unwrap_or(0);
        let rref_ratio = rref_words as f64 / iomodel::hong_kung_bound(n);
        let rref_speedup = if rref_b_ms > 0.0 {
            rref_s_ms / rref_b_ms
        } else {
            0.0
        };
        rows.push(format!(
            "{{\"workload\": \"rref_scalar\", \"n\": {n}, \"ms\": {rref_s_ms:.4}}}"
        ));
        rows.push(format!(
            "{{\"workload\": \"rref_blocked\", \"n\": {n}, \"ms\": {rref_b_ms:.4}, \
             \"speedup\": {rref_speedup:.2}, \"words_per_call\": {rref_words}, \"hong_kung_ratio\": {rref_ratio:.2}}}"
        ));
    }

    println!("{{");
    println!("  \"experiment\": \"e19_comm_avoiding\",");
    println!("  \"fast_mem_words\": {m_words},");
    println!("  \"panel_width\": {panel},");
    println!("  \"quick\": {quick},");
    println!("  \"det_crt_blocked_speedup_n32\": {speedup_32:.2},");
    println!("  \"blocked_ok\": {blocked_ok},");
    println!("  \"results\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        println!("    {r}{comma}");
    }
    println!("  ],");
    println!("  \"metrics\": [");
    println!("{}", metrics_json_lines("    "));
    println!("  ]");
    println!("}}");
}

/// The `--e20` snapshot: the exact-CC branch-and-bound engine measured
/// as a perf artifact.
///
/// Instance choice matters: a *random* truth matrix is a bad benchmark,
/// because the two-sided χ bound (`rank(M) + rank(M̄)`) meets the
/// row-announce upper bound almost surely and the solver exits without
/// branching. The instances here are the ones where the bracket stays
/// open — intersection-threshold ("majority") matrices whose sub-
/// rectangles repeat heavily (the memo's best case), cyclic-shift
/// threshold matrices (wide move fans, memo-poor — an honest hard
/// case), the equality identity, and the paper's smallest singularity
/// truth matrix under π₀. Every instance is solved three ways:
///
/// * `serial_nomemo` — the pruned Bellman recursion alone,
/// * `serial_memo`   — plus the canonicalized sub-rectangle memo,
/// * `parallel_memo` — plus the root frontier fanned over the pool
///   with the shared atomic incumbent.
///
/// The acceptance gate is `parallel_memo` vs `serial_nomemo` at the
/// largest benched dim; `search_ok` additionally asserts all three
/// configurations returned identical CC values (a disagreement is a
/// solver bug, not a slow run) and that the memo recorded hits.
fn e20_snapshot(quick: bool) {
    use ccmx_comm::truth::TruthMatrix;
    use ccmx_search::{solve, SearchConfig};

    let mk = |n: usize, f: &dyn Fn(usize, usize) -> bool| TruthMatrix::from_fn(n, n, f);
    let paper = {
        let f = Singularity::new(2, 1);
        let pi0 = Partition::pi_zero(&f.enc);
        TruthMatrix::enumerate(&f, &pi0, 1)
    };
    let instances: Vec<(&'static str, TruthMatrix)> = vec![
        ("singularity_2x2_k1_pi0", paper),
        ("equality_8", mk(8, &|x, y| x == y)),
        ("shift_threshold_16", mk(16, &|x, y| (x + y) % 16 < 8)),
        (
            "intersect_ge2_18",
            mk(18, &|x, y| (x & y).count_ones() >= 2),
        ),
        (
            "intersect_ge2_20",
            mk(20, &|x, y| (x & y).count_ones() >= 2),
        ),
    ];
    // The big no-memo baselines run hundreds of milliseconds; a handful
    // of reps pins the best-of minimum without minutes of wall clock.
    let reps = if quick { 1 } else { 5 };
    let configs: [(&'static str, SearchConfig); 3] = [
        (
            "serial_nomemo",
            SearchConfig {
                threads: 1,
                use_memo: false,
                ..SearchConfig::default()
            },
        ),
        (
            "serial_memo",
            SearchConfig {
                threads: 1,
                ..SearchConfig::default()
            },
        ),
        (
            "parallel_memo",
            SearchConfig {
                threads: 4,
                ..SearchConfig::default()
            },
        ),
    ];

    let mut rows: Vec<String> = Vec::new();
    let mut search_ok = true;
    let mut memo_hits_total = 0u64;
    let mut largest = (0usize, 0.0f64, 0.0f64); // (dim, memo speedup, parallel speedup)
    for (name, t) in &instances {
        let dim = t.rows();
        let mut per_config: Vec<(f64, u32)> = Vec::new();
        for (label, cfg) in &configs {
            let (ms, r) = time_best(reps, || solve(t, cfg).expect("bench instance must solve"));
            search_ok &= r.exact;
            if *label != "serial_nomemo" {
                memo_hits_total += r.stats.memo_hits;
            }
            rows.push(format!(
                "{{\"workload\": \"cc_{label}\", \"instance\": \"{name}\", \"dim\": {dim}, \
                 \"cc\": {}, \"nodes\": {}, \"memo_hits\": {}, \"ms\": {ms:.4}}}",
                r.cc, r.stats.nodes, r.stats.memo_hits
            ));
            per_config.push((ms, r.cc));
        }
        // All three configurations must agree exactly — the parallel
        // incumbent and the memo may change work, never the answer.
        search_ok &= per_config.iter().all(|&(_, cc)| cc == per_config[0].1);
        let (base, memo, par) = (per_config[0].0, per_config[1].0, per_config[2].0);
        if dim >= largest.0 && base > 0.0 {
            largest = (dim, base / memo.max(1e-9), base / par.max(1e-9));
        }
    }
    search_ok &= memo_hits_total > 0;

    println!("{{");
    println!("  \"experiment\": \"e20_search\",");
    println!("  \"quick\": {quick},");
    println!("  \"largest_dim\": {},", largest.0);
    println!("  \"memo_speedup_largest\": {:.2},", largest.1);
    println!("  \"parallel_memo_speedup_largest\": {:.2},", largest.2);
    println!("  \"search_ok\": {search_ok},");
    println!("  \"results\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        println!("    {r}{comma}");
    }
    println!("  ],");
    println!("  \"metrics\": [");
    println!("{}", metrics_json_lines("    "));
    println!("  ]");
    println!("}}");
}

/// The `--e21` snapshot: cold vs warm server start over the persistent
/// certified-result tier (`crates/store`).
///
/// One deterministic E17-style storm — concurrent transports issuing
/// bounds, singularity and exact-CC requests, plus a `RetryClient`
/// committing idempotent interactive runs — is driven twice against the
/// *same data directory* across a full process-lifetime boundary:
///
/// * **cold** — an empty store: every answer is computed and appended;
/// * **warm** — a fresh `serve` on the populated directory: the log is
///   recovered, the caches are seeded, and the identical storm must be
///   answered from disk with zero recomputation.
///
/// `store_ok` asserts the warm answers are bit-identical to the cold
/// ones, the warm bounds/singularity caches saw no misses, every
/// idempotent run replayed from the recovered client store without wire
/// traffic, and recovery accepted at least as many records as the cold
/// lifetime certified. `verify.sh --bench-smoke` gates on `store_ok`,
/// `recovered_records > 0` and the warm speedup floor.
fn e21_snapshot(quick: bool) {
    use ccmx_comm::BitString;
    use ccmx_net::wire::{KIND_REQUEST, KIND_RESPONSE};
    use ccmx_net::{
        serve, BreakerConfig, ProtoSpec, Request, Response, RetryClient, RetryPolicy, ServerConfig,
        TcpTransport, TransportConfig, WireCodec,
    };

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
                    let mut t =
                        TcpTransport::connect(server.addr(), TransportConfig::default()).unwrap();
                    (0..bounds_calls)
                        .map(|i| roundtrip(&mut t, &bounds_req(i)))
                        .collect::<Vec<_>>()
                }),
                scope.spawn(|| {
                    let mut t =
                        TcpTransport::connect(server.addr(), TransportConfig::default()).unwrap();
                    (0..sing_calls)
                        .map(|i| roundtrip(&mut t, &sing_req(i)))
                        .collect::<Vec<_>>()
                }),
                scope.spawn(|| {
                    let mut t =
                        TcpTransport::connect(server.addr(), TransportConfig::default()).unwrap();
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

    // Recovery accounting, from the log itself: reopen the server store
    // read-only-ish and count what a third lifetime would accept.
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
    let warm_speedup = if warm_storm > 0.0 {
        cold_storm / warm_storm
    } else {
        0.0
    };

    let _ = std::fs::remove_dir_all(&dir);

    println!("{{");
    println!("  \"experiment\": \"e21_store_warm_restart\",");
    println!("  \"quick\": {quick},");
    println!(
        "  \"requests_per_storm\": {},",
        bounds_calls + sing_calls + cc_items.len() + runs as usize
    );
    println!("  \"cold_boot_ms\": {:.3},", cold_boot * 1e3);
    println!("  \"warm_boot_ms\": {:.3},", warm_boot * 1e3);
    println!("  \"cold_storm_ms\": {:.3},", cold_storm * 1e3);
    println!("  \"warm_storm_ms\": {:.3},", warm_storm * 1e3);
    println!("  \"warm_speedup\": {warm_speedup:.2},");
    println!("  \"certified_records\": {cold_records},");
    println!("  \"recovered_records\": {recovered},");
    println!("  \"warm_run_replays\": {warm_replays},");
    println!("  \"store_ok\": {store_ok},");
    println!("  \"metrics\": [");
    println!("{}", metrics_json_lines("    "));
    println!("  ]");
    println!("}}");
}

/// The `--e16` snapshot: per-op costs of the observability primitives,
/// wall-clock versions of the `e16_observability` criterion rows. The
/// headline ratios document that a registered counter increment is a
/// plain relaxed atomic add (parity with `raw_atomic_inc`) and how much
/// a mutexed counter would have cost instead.
fn e16_snapshot(reps: usize) {
    const OPS: usize = 1_000_000;
    const RENDER_OPS: usize = 1_000;
    let reg = ccmx_obs::registry();
    let mut rows: Vec<String> = Vec::new();
    let mut ns_of = |label: &str, ops: usize, f: &mut dyn FnMut()| -> f64 {
        let (ms, ()) = time_best(reps, || {
            for _ in 0..ops {
                f();
            }
        });
        let ns = ms * 1e6 / ops as f64;
        rows.push(format!(
            "{{\"workload\": \"{label}\", \"ops\": {ops}, \"ns_per_op\": {ns:.2}}}"
        ));
        ns
    };

    let counter = reg.counter("e16_snapshot_counter", &[]);
    let counter_ns = ns_of("counter_inc", OPS, &mut || {
        counter.inc();
    });

    let raw = std::sync::atomic::AtomicU64::new(0);
    let raw_ns = ns_of("raw_atomic_inc", OPS, &mut || {
        raw.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    });

    let locked = std::sync::Mutex::new(0u64);
    let mutex_ns = ns_of("mutex_inc_baseline", OPS, &mut || {
        *locked.lock().unwrap() += 1;
    });

    let hist = reg.histogram("e16_snapshot_hist", &[], ccmx_obs::buckets::LATENCY_NS);
    ns_of("histogram_record", OPS, &mut || {
        hist.record(12_345);
    });

    ns_of("span_scope", OPS / 10, &mut || {
        let _g = ccmx_obs::span("e16.snapshot");
    });

    ns_of("render", RENDER_OPS, &mut || {
        std::hint::black_box(reg.render());
    });

    println!("{{");
    println!("  \"experiment\": \"e16_observability\",");
    println!("  \"reps\": {reps},");
    println!(
        "  \"counter_inc_over_raw_atomic\": {:.2},",
        if raw_ns > 0.0 {
            counter_ns / raw_ns
        } else {
            0.0
        }
    );
    println!(
        "  \"mutex_over_lockfree_counter\": {:.2},",
        if counter_ns > 0.0 {
            mutex_ns / counter_ns
        } else {
            0.0
        }
    );
    println!("  \"results_ns\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        println!("    {r}{comma}");
    }
    println!("  ],");
    println!("  \"metrics\": [");
    println!("{}", metrics_json_lines("    "));
    println!("  ]");
    println!("}}");
}

/// The `--e17` snapshot: the chaos/retry/breaker stack under load.
///
/// Four phases against a real loopback server: (1) a healthy baseline —
/// one `RetryClient` driving distinct idempotent interactive runs, each
/// checked for `wire bits == transcript bits`; (2) a retry storm —
/// several concurrent clients doing the same; (3) idempotent replays —
/// the same keys again, which must be served from cache with zero wire
/// traffic; (4) bounds latency healthy vs breaker-open, where the
/// degraded path answers from the client's cache while the breaker
/// refuses the wire. A seeded aggressive chaos soak closes the document
/// with the zero-divergence verdict.
fn e17_snapshot(quick: bool) {
    use ccmx_net::{
        chaos_soak, serve, BreakerConfig, ChaosLevel, ProtoSpec, RetryClient, RetryPolicy,
        ServerConfig, TransportConfig,
    };

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

    let zero_divergence = soak.passed() && meter_ok;
    println!("{{");
    println!("  \"experiment\": \"e17_resilience_stack\",");
    println!("  \"quick\": {quick},");
    println!("  \"healthy_runs_per_sec\": {healthy_rps:.1},");
    println!("  \"storm_runs_per_sec\": {storm_rps:.1},");
    println!("  \"replay_runs_per_sec\": {replay_rps:.1},");
    println!("  \"bounds_healthy_us\": {healthy_bounds_us:.1},");
    println!("  \"bounds_degraded_us\": {degraded_bounds_us:.1},");
    println!(
        "  \"degraded_speedup_over_healthy\": {:.1},",
        if degraded_bounds_us > 0.0 {
            healthy_bounds_us / degraded_bounds_us
        } else {
            0.0
        }
    );
    println!("  \"chaos_bit_divergence\": {},", soak.bit_divergence());
    println!("  \"zero_bit_divergence\": {zero_divergence},");
    println!("  \"results\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        println!("    {r}{comma}");
    }
    println!("  ],");
    println!("  \"metrics\": [");
    println!("{}", metrics_json_lines("    "));
    println!("  ]");
    println!("}}");
}

/// A spawned `ccmx shard`/`ccmx coordinator` child. Killed on drop so a
/// panicking phase never leaks listeners.
struct LabProc {
    child: std::process::Child,
    /// Kept open: dropping the pipe would EPIPE the child's next
    /// heartbeat println and kill it early.
    _stdout: std::io::BufReader<std::process::ChildStdout>,
    addr: String,
}

impl Drop for LabProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawn the sibling `ccmx` binary with `args` and parse the bound
/// address from its first stdout line (`... on <addr> ...`).
fn spawn_lab(args: &[String]) -> LabProc {
    use std::io::BufRead;
    let bin = std::env::current_exe()
        .expect("current exe")
        .with_file_name("ccmx");
    assert!(
        bin.exists(),
        "{} not found — build it first (cargo build --release)",
        bin.display()
    );
    let mut child = std::process::Command::new(&bin)
        .args(args)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {}: {e}", bin.display()));
    let mut stdout = std::io::BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("child banner");
    let addr = line
        .split(" on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in child banner {line:?}"))
        .to_string();
    LabProc {
        child,
        _stdout: stdout,
        addr,
    }
}

/// Boot `shards` shard processes plus a coordinator fronting them.
/// Returns `(coordinator, shard procs)` — drop order doesn't matter,
/// every child dies with its guard.
fn spawn_cluster(shards: usize, cache_cap: usize, tag: &str) -> (LabProc, Vec<LabProc>) {
    let mut procs = Vec::new();
    let mut spec_args = Vec::new();
    for i in 0..shards {
        let name = format!("e18-{tag}-s{i}");
        let p = spawn_lab(&[
            "shard".into(),
            "127.0.0.1:0".into(),
            "--name".into(),
            name.clone(),
            "--cache-cap".into(),
            cache_cap.to_string(),
            "--workers".into(),
            "2".into(),
            "--idle-secs".into(),
            "120".into(),
        ]);
        spec_args.push("--shard".to_string());
        spec_args.push(format!("{name}={}", p.addr));
        procs.push(p);
    }
    let mut args = vec!["coordinator".to_string(), "127.0.0.1:0".to_string()];
    args.extend(spec_args);
    args.extend(["--idle-secs".to_string(), "120".to_string()]);
    let coordinator = spawn_lab(&args);
    (coordinator, procs)
}

/// The 10k-client wave: open `clients` real TCP connections to the
/// coordinator, one pipelined `Ping` each, all sockets held open until
/// every response has arrived — a single readiness loop on the server
/// side is carrying every one of them.
fn e18_concurrency_wave(addr: &str, clients: usize) -> (f64, usize, usize) {
    use ccmx_net::wire::{encode_frame, HEADER_BYTES, KIND_REQUEST};
    use ccmx_net::{Request, Response, WireCodec};
    use polling::{poll_fds, PollFd, POLLIN};
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;

    struct Wave {
        stream: std::net::TcpStream,
        buf: Vec<u8>,
        done: bool,
    }

    let ping = encode_frame(KIND_REQUEST, &Request::Ping.to_wire_bytes()).expect("ping frame");
    let mut conns: Vec<Wave> = Vec::with_capacity(clients);
    let mut ok = 0usize;
    let mut shed = 0usize;
    let started = Instant::now();
    let deadline = started + std::time::Duration::from_secs(120);

    let drain = |conns: &mut Vec<Wave>, ok: &mut usize, shed: &mut usize, wait_ms: i32| {
        let mut fds: Vec<PollFd> = Vec::new();
        let mut owners: Vec<usize> = Vec::new();
        for (i, c) in conns.iter().enumerate() {
            if !c.done {
                fds.push(PollFd::new(c.stream.as_raw_fd(), POLLIN));
                owners.push(i);
            }
        }
        if fds.is_empty() {
            return;
        }
        let n = poll_fds(&mut fds, wait_ms).expect("poll");
        if n == 0 {
            return;
        }
        let mut chunk = [0u8; 4096];
        for (fd, &i) in fds.iter().zip(&owners) {
            if !fd.readable() && !fd.broken() {
                continue;
            }
            let c = &mut conns[i];
            loop {
                match c.stream.read(&mut chunk) {
                    Ok(0) => {
                        // Closed without a full response (reset or
                        // server-side eviction): still an outcome.
                        c.done = true;
                        *shed += 1;
                        break;
                    }
                    Ok(n) => c.buf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => {
                        c.done = true;
                        *shed += 1;
                        break;
                    }
                }
                if c.buf.len() >= HEADER_BYTES {
                    let len = u32::from_le_bytes([c.buf[2], c.buf[3], c.buf[4], c.buf[5]]) as usize;
                    if c.buf.len() >= HEADER_BYTES + len {
                        match Response::from_wire_bytes(&c.buf[HEADER_BYTES..HEADER_BYTES + len]) {
                            Ok(Response::Pong) => *ok += 1,
                            _ => *shed += 1,
                        }
                        c.done = true;
                        break;
                    }
                }
            }
        }
    };

    // Ramp in batches so the accept queue and the pending-request meter
    // never see more than a batch of simultaneous arrivals.
    const BATCH: usize = 256;
    while conns.len() < clients {
        let batch = BATCH.min(clients - conns.len());
        for _ in 0..batch {
            let stream = std::net::TcpStream::connect(addr).expect("wave connect");
            stream.set_nodelay(true).ok();
            let mut c = Wave {
                stream,
                buf: Vec::new(),
                done: false,
            };
            c.stream.write_all(&ping).expect("wave ping");
            c.stream.set_nonblocking(true).expect("nonblocking");
            conns.push(c);
        }
        drain(&mut conns, &mut ok, &mut shed, 0);
    }
    while conns.iter().any(|c| !c.done) && Instant::now() < deadline {
        drain(&mut conns, &mut ok, &mut shed, 100);
    }
    let elapsed = started.elapsed().as_secs_f64();
    (elapsed, ok, shed)
}

/// The `--e18` snapshot: the sharded cluster measured as a system —
/// concurrency ceiling, cache-partition scaling, chaos-resharding
/// integrity. See the module docs for the phase breakdown.
fn e18_snapshot(quick: bool) {
    use ccmx_cluster::{cluster_soak, SoakConfig};
    use ccmx_net::{ChaosLevel, Client, TransportConfig};

    let clients: usize = if quick { 1_000 } else { 10_240 };
    // The scaling working set: `keys` distinct bounds requests whose
    // window selection costs milliseconds each (large n), against a
    // per-shard cache that holds only a quarter of them. 2 shards
    // thrash (the cyclic scan re-evicts every key before its next
    // visit), 4+ shards hold the whole set.
    let keys: usize = if quick { 96 } else { 1_024 };
    let cache_cap = keys / 4 * 3 / 2; // 3/8 of the set: < keys/2, > keys/4
    let key_of = |i: usize| -> (usize, u32) {
        let span = keys / 2;
        let n = if quick { 201 } else { 801 } + 2 * (i % span);
        let k = 32 + (i / span) as u32;
        (n, k)
    };
    let shard_counts: &[usize] = if quick { &[2, 4] } else { &[2, 4, 8] };
    let passes = 2usize;
    let mut rows: Vec<String> = Vec::new();

    // Phase A: the concurrency wave against a 2-shard cluster.
    let (coord, shards) = spawn_cluster(2, 64, "wave");
    let (wave_s, wave_ok, wave_other) = e18_concurrency_wave(&coord.addr, clients);
    drop(shards);
    drop(coord);
    assert_eq!(
        wave_ok + wave_other,
        clients,
        "every wave client must get an answer"
    );
    let wave_rps = clients as f64 / wave_s;
    rows.push(format!(
        "{{\"workload\": \"concurrency_wave\", \"clients\": {clients}, \"pong\": {wave_ok}, \"other\": {wave_other}, \"secs\": {wave_s:.2}, \"pings_per_sec\": {wave_rps:.0}}}"
    ));

    // Phase B: cache-partition scaling. Same working set, same single
    // driver, only the shard count changes.
    let mut runs_per_sec: Vec<(usize, f64)> = Vec::new();
    for &s in shard_counts {
        let (coord, shard_procs) = spawn_cluster(s, cache_cap, &format!("x{s}"));
        let mut client =
            Client::connect(coord.addr.as_str(), TransportConfig::default()).expect("connect");
        // Warm pass (untimed): populate whatever fits.
        for i in 0..keys {
            let (n, k) = key_of(i);
            client.bounds(n, k, 64).expect("warm bounds");
        }
        let start = Instant::now();
        for _ in 0..passes {
            for i in 0..keys {
                let (n, k) = key_of(i);
                client.bounds(n, k, 64).expect("timed bounds");
            }
        }
        let secs = start.elapsed().as_secs_f64();
        let rps = (passes * keys) as f64 / secs;
        runs_per_sec.push((s, rps));
        rows.push(format!(
            "{{\"workload\": \"cache_partition_scan\", \"shards\": {s}, \"distinct_keys\": {keys}, \"per_shard_cache\": {cache_cap}, \"requests\": {}, \"secs\": {secs:.2}, \"runs_per_sec\": {rps:.1}}}",
            passes * keys
        ));
        drop(client);
        drop(shard_procs);
        drop(coord);
    }
    let rps_of = |s: usize| {
        runs_per_sec
            .iter()
            .find(|(n, _)| *n == s)
            .map(|(_, r)| *r)
            .unwrap_or(0.0)
    };
    let scaling_2_to_4 = if rps_of(2) > 0.0 {
        rps_of(4) / rps_of(2)
    } else {
        0.0
    };

    // Phase C: in-process chaos-soaked resharding run — the integrity
    // verdict. Aggressive faults on every coordinator↔shard link, a
    // join at 1/3 and a leave at 2/3, every answer checked bit-for-bit.
    let soak = cluster_soak(SoakConfig {
        shards: 3,
        requests: if quick { 24 } else { 60 },
        seed: 18,
        level: ChaosLevel::Aggressive,
        reshard: true,
        kill: false,
    });
    assert!(soak.resharded, "the soak must join and leave mid-run");
    rows.push(format!(
        "{{\"workload\": \"chaos_reshard_soak\", \"shards\": {}, \"requests\": {}, \"answered\": {}, \"diverged\": {}, \"failovers\": {}, \"resharded\": {}}}",
        soak.shards_initial, soak.requests, soak.answered, soak.diverged, soak.failovers, soak.resharded
    ));

    println!("{{");
    println!("  \"experiment\": \"e18_cluster\",");
    println!("  \"quick\": {quick},");
    println!("  \"concurrent_clients\": {clients},");
    println!("  \"wave_pings_per_sec\": {wave_rps:.0},");
    for (s, rps) in &runs_per_sec {
        println!("  \"runs_per_sec_{s}_shards\": {rps:.1},");
    }
    println!("  \"scaling_2_to_4\": {scaling_2_to_4:.2},");
    if shard_counts.contains(&8) {
        let scaling_4_to_8 = if rps_of(4) > 0.0 {
            rps_of(8) / rps_of(4)
        } else {
            0.0
        };
        println!("  \"scaling_4_to_8\": {scaling_4_to_8:.2},");
    }
    println!("  \"soak_errors\": {},", soak.errors);
    println!("  \"zero_bit_divergence\": {},", soak.zero_bit_divergence);
    println!("  \"results\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        println!("    {r}{comma}");
    }
    println!("  ],");
    println!("  \"metrics\": [");
    println!("{}", metrics_json_lines("    "));
    println!("  ]");
    println!("}}");
}

fn emit_e14(threads: usize, reps: usize, rows: &[Row], speedup_32: f64) {
    println!("{{");
    println!("  \"experiment\": \"e14_exact_kernels\",");
    println!("  \"entry_bits\": {ENTRY_BITS},");
    println!("  \"threads\": {threads},");
    println!("  \"reps\": {reps},");
    println!("  \"speedup_rational_over_crt_det_n32\": {speedup_32:.2},");
    println!("  \"results_ms\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        println!(
            "    {{\"n\": {}, \"backend\": \"{}\", \"op\": \"{}\", \"ms\": {:.4}}}{comma}",
            r.n, r.backend, r.op, r.millis
        );
    }
    println!("  ],");
    println!("  \"metrics\": [");
    println!("{}", metrics_json_lines("    "));
    println!("  ]");
    println!("}}");
}
