//! E19: communication-avoiding kernels vs the scalar sweeps, with the
//! Hong–Kung I/O meter read back.
//!
//! For each `n`, the full CRT prime plan of a random 32-bit matrix is
//! eliminated twice — once through the scalar delayed-reduction oracle,
//! once through the blocked dispatcher — and the `ccmx_iomodel_*`
//! counter deltas across the blocked run yield modelled words moved per
//! kernel call, reported as a multiple of the Hong–Kung scale `n³/√M`.
//! The RREF rows do the same for the full echelon kernel on one prime.
//! `blocked_ok` asserts the dispatcher really took the blocked path
//! (nonzero blocked calls and words, zero scalar-path calls during the
//! blocked sections), so a silently rotted dispatch heuristic fails the
//! check instead of quietly benchmarking the scalar kernel against
//! itself.

use ccmx_bigint::{Integer, Natural};
use ccmx_linalg::engine::ResiduePlan;
use ccmx_linalg::iomodel::{self, Kernel};
use ccmx_linalg::montgomery::{
    det_from_residues, det_from_residues_scalar, echelon_from_residues,
    echelon_from_residues_scalar,
};
use ccmx_linalg::{modular, Matrix};

use super::{push_rows, ratio, time_best, Check, Outcome};
use crate::{random_matrix, rng_for};

const ENTRY_BITS: u32 = 32;

pub(super) fn run(quick: bool) -> Outcome {
    let m_words = iomodel::fast_mem_words();
    let panel = iomodel::panel_width();
    let entry_bound = Natural::from(1u64 << ENTRY_BITS);
    let mut rng = rng_for("e19");
    let mut rows: Vec<String> = Vec::new();
    let mut speedup_32 = 0.0;
    let mut blocked_ok = true;

    for n in [16usize, 32, 48, 64] {
        // The n = 32 row is the speed floor: extra reps pin its
        // best-of minimum on a noisy box.
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
        let speedup = ratio(scalar_ms, blocked_ms);
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
        let rref_speedup = ratio(rref_s_ms, rref_b_ms);
        rows.push(format!(
            "{{\"workload\": \"rref_scalar\", \"n\": {n}, \"ms\": {rref_s_ms:.4}}}"
        ));
        rows.push(format!(
            "{{\"workload\": \"rref_blocked\", \"n\": {n}, \"ms\": {rref_b_ms:.4}, \
             \"speedup\": {rref_speedup:.2}, \"words_per_call\": {rref_words}, \"hong_kung_ratio\": {rref_ratio:.2}}}"
        ));
    }

    let mut body = String::new();
    out!(body, "  \"fast_mem_words\": {m_words},");
    out!(body, "  \"panel_width\": {panel},");
    out!(body, "  \"det_crt_blocked_speedup_n32\": {speedup_32:.2},");
    push_rows(&mut body, "results", &rows);
    Outcome {
        body,
        checks: vec![
            Check::holds("blocked_ok", blocked_ok),
            Check::at_least("det_crt_blocked_speedup_n32", speedup_32, 1.3).full_runs_only(),
        ],
    }
}
