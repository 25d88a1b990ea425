//! E14: the exact-arithmetic kernel shoot-out — rational Gauss vs
//! fraction-free Bareiss vs the Montgomery-CRT fast path, on random
//! `n × n` matrices of 32-bit entries.
//!
//! Random full-rank matrices let certified rank exit after one prime,
//! so two rank-deficient rows per `n` time the path singular inputs
//! take: a duplicated column (kernel vector `e_i − e_j`) and one row
//! the sum of two others (a generic rank `n − 1` input).

use ccmx_bigint::{Integer, Natural, Rational};
use ccmx_linalg::parallel::default_threads;
use ccmx_linalg::ring::RationalField;
use ccmx_linalg::{bareiss, crt, gauss, modular, Matrix};

use super::{push_rows, ratio, time_best, Outcome};
use crate::{random_matrix, random_row_sum_matrix, random_singular_matrix, rng_for};

const ENTRY_BITS: u32 = 32;
const SIZES: [usize; 4] = [8, 16, 32, 64];
/// Repeat count for the cheap Montgomery-CRT rows (best-of minimum needs
/// more samples than the multi-second rational baselines to stabilize).
const CRT_REPS: usize = 9;
/// The rational baseline stops here: ℚ-Gauss coefficient blow-up makes
/// n = 64 take minutes per determinant.
const RATIONAL_MAX_N: usize = 32;

struct Row {
    n: usize,
    backend: &'static str,
    op: &'static str,
    millis: f64,
}

pub(super) fn run(quick: bool) -> Outcome {
    let reps = if quick { 1 } else { 3 };
    let crt_reps = if quick { 1 } else { CRT_REPS };
    let threads = default_threads();
    let mut rng = rng_for("e14");
    let entry_bound = Natural::from(1u64 << ENTRY_BITS);
    let mut rows: Vec<Row> = Vec::new();

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

    // Rank-deficient inputs, from their own stream so the full-rank
    // workload above stays the one earlier documents timed.
    let mut rng = rng_for("e14-rank-deficient");
    for n in SIZES {
        let deficient = [
            (
                "rank_duplicate_column",
                random_singular_matrix(n, ENTRY_BITS, &mut rng),
            ),
            (
                "rank_row_sum",
                random_row_sum_matrix(n, ENTRY_BITS, &mut rng),
            ),
        ];
        for (op, m) in deficient {
            let (ms, rank) = time_best(crt_reps, || crt::rank_int(&m));
            assert!(rank < n, "{op} input has full rank at n = {n}");
            assert_eq!(
                rank,
                bareiss::rank(&m),
                "{op} Bareiss disagreement at n = {n}"
            );
            if n <= RATIONAL_MAX_N {
                let mq = m.map(|e| Rational::from(e.clone()));
                assert_eq!(
                    rank,
                    gauss::rank(&RationalField, &mq),
                    "{op} rational disagreement at n = {n}"
                );
            }
            rows.push(Row {
                n,
                backend: "montgomery_crt",
                op,
                millis: ms,
            });
        }
    }

    // Headline: ℚ-Gauss / Montgomery-CRT det speedup at n = 32.
    let ms_of = |backend: &str, op: &str, n: usize| {
        rows.iter()
            .find(|r| r.backend == backend && r.op == op && r.n == n)
            .map_or(0.0, |r| r.millis)
    };
    let speedup_32 = ratio(
        ms_of("rational_gauss", "det", 32),
        ms_of("montgomery_crt", "det", 32),
    );

    let mut body = String::new();
    out!(body, "  \"entry_bits\": {ENTRY_BITS},");
    out!(body, "  \"threads\": {threads},");
    out!(body, "  \"reps\": {reps},");
    out!(
        body,
        "  \"speedup_rational_over_crt_det_n32\": {speedup_32:.2},"
    );
    let rendered: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"n\": {}, \"backend\": \"{}\", \"op\": \"{}\", \"ms\": {:.4}}}",
                r.n, r.backend, r.op, r.millis
            )
        })
        .collect();
    push_rows(&mut body, "results_ms", &rendered);
    Outcome {
        body,
        checks: Vec::new(),
    }
}
