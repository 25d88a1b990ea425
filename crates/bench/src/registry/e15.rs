//! E15: the kernel engine — Gray-walk singularity fresh vs through the
//! incremental cursor, per-prime vs one-pass batched residue reduction,
//! and the `incremental_ok` verdict from a real enumeration.

use ccmx_bigint::Natural;
use ccmx_comm::functions::Singularity;
use ccmx_comm::truth::TruthMatrix;
use ccmx_comm::{MatrixEncoding, Partition};
use ccmx_linalg::engine::ResiduePlan;
use ccmx_linalg::modular;
use ccmx_linalg::montgomery::MontgomeryField;
use ccmx_linalg::parallel::default_threads;

use super::{push_rows, ratio, series, time_best, Check, Outcome};
use crate::{b_positions, gray_walk_fresh, gray_walk_incremental, random_matrix, rng_for};

pub(super) fn run(quick: bool) -> Outcome {
    let reps = if quick { 1 } else { 3 };
    let threads = default_threads();
    let mut rows: Vec<String> = Vec::new();

    // Gray-walk singularity: fresh eval vs incremental cursor.
    const WALK_STEPS: usize = 256;
    let mut speedup_walk_dim8 = 0.0;
    for dim in [4usize, 8] {
        let f = Singularity::new(dim, 1);
        let b_pos = b_positions(dim, 1);
        let steps = WALK_STEPS.min(1 << b_pos.len());
        let (fresh_ms, ones_fresh) = time_best(reps, || gray_walk_fresh(&f, &b_pos, steps));
        let (inc_ms, ones_inc) = time_best(reps, || gray_walk_incremental(&f, &b_pos, steps));
        assert_eq!(ones_fresh, ones_inc, "walk disagreement at dim {dim}");
        rows.push(format!(
            "{{\"workload\": \"gray_walk_fresh\", \"dim\": {dim}, \"k\": 1, \"steps\": {steps}, \"ms\": {fresh_ms:.4}}}"
        ));
        rows.push(format!(
            "{{\"workload\": \"gray_walk_incremental\", \"dim\": {dim}, \"k\": 1, \"steps\": {steps}, \"ms\": {inc_ms:.4}}}"
        ));
        if dim == 8 {
            speedup_walk_dim8 = ratio(fresh_ms, inc_ms);
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
            let field = MontgomeryField::new(p);
            for e in m.data() {
                acc = acc.wrapping_add(field.reduce(e));
            }
        }
        acc
    });
    let mut plan = ResiduePlan::new(&primes);
    let (batched_ms, _) = time_best(reps, || plan.reduce_matrix(&m));
    rows.push(format!(
        "{{\"workload\": \"reduce_per_prime\", \"n\": {n}, \"entry_bits\": {entry_bits}, \"primes\": {}, \"ms\": {per_prime_ms:.4}}}",
        primes.len()
    ));
    rows.push(format!(
        "{{\"workload\": \"reduce_batched\", \"n\": {n}, \"entry_bits\": {entry_bits}, \"primes\": {}, \"ms\": {batched_ms:.4}}}",
        primes.len()
    ));
    let speedup_reduction = ratio(per_prime_ms, batched_ms);

    // Incremental-path verdict from a real enumeration: every point of a
    // singularity truth matrix must flow through the oracle cursor, and
    // engine refreshes must stay a small fraction of update steps.
    let counts = || {
        (
            series("ccmx_enum_incremental_points_total", &[]),
            series("ccmx_engine_incremental_steps_total", &[]),
            series("ccmx_engine_fresh_refreshes_total", &[]),
        )
    };
    let f = Singularity::new(4, 1);
    let partition = Partition::pi_zero(&MatrixEncoding::new(4, 1));
    let (points0, steps0, fresh0) = counts();
    let t = TruthMatrix::enumerate(&f, &partition, threads);
    let (points1, steps1, fresh1) = counts();
    let points = (t.rows() * t.cols()) as u64;
    let cursor_points = points1 - points0;
    let steps = steps1 - steps0;
    let fresh = fresh1 - fresh0;
    let incremental_ok = cursor_points >= points && steps > 0 && fresh * 2 <= steps;

    let mut body = String::new();
    out!(body, "  \"threads\": {threads},");
    out!(body, "  \"reps\": {reps},");
    out!(
        body,
        "  \"speedup_incremental_gray_walk_dim8\": {speedup_walk_dim8:.2},"
    );
    out!(
        body,
        "  \"speedup_batched_reduction_n32_32bit\": {speedup_reduction:.2},"
    );
    out!(body, "  \"enumeration_cursor_points\": {cursor_points},");
    out!(body, "  \"engine_update_steps\": {steps},");
    out!(body, "  \"engine_fresh_refreshes\": {fresh},");
    push_rows(&mut body, "results_ms", &rows);
    Outcome {
        body,
        checks: vec![Check::holds("incremental_ok", incremental_ok)],
    }
}
