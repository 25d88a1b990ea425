//! The kernel-engine layer: batched residue reduction and incremental
//! singularity evaluation.
//!
//! Two amortization engines sit here, both feeding the enumeration
//! stack:
//!
//! * [`ResiduePlan`] — a one-pass multi-prime reducer. The CRT pipeline
//!   used to call [`MontgomeryField::reduce`] (a full bigint division)
//!   per entry *per prime*; the plan instead walks the bigint matrix
//!   once and folds each entry's limbs against precomputed per-prime
//!   radix powers (one REDC per limb per prime, no bigint division), or
//!   descends a remainder tree for large prime plans. The residue
//!   matrices then fan out to the `*_from_residues` elimination kernels
//!   in [`crate::montgomery`].
//! * [`SingularityEngine`] — exact integer singularity under
//!   single-entry updates. A Gray-coded enumeration flips one input bit
//!   per step, which perturbs one matrix entry by `±2^bit`; the engine
//!   maintains, per CRT prime, the inverse of a base matrix and a small
//!   set of pending rank-one updates, deciding each step's singularity
//!   from an `m × m` capacitance determinant (Sherman–Morrison for
//!   `m = 1`) and reabsorbing updates into the inverse by the Woodbury
//!   identity — `O(n²)` per step instead of an `O(n³)` fresh
//!   elimination. The prime plan's product exceeds the Hadamard bound,
//!   so "singular mod every plan prime" is *exactly* "singular over ℤ".

use ccmx_bigint::{Integer, Natural};

use crate::matrix::Matrix;
use crate::modular::crt_prime_plan;
use crate::montgomery::MontgomeryField;
use crate::parallel;
use crate::pool;

// ----------------------------------------------------------------------
// One-pass multi-prime residue reduction
// ----------------------------------------------------------------------

/// Use a remainder tree instead of direct limb folds once a plan has at
/// least this many primes…
const TREE_MIN_PRIMES: usize = 8;
/// …and the entries are at least this many times wider than the prime
/// product. (With schoolbook bigint arithmetic the tree is a
/// constant-factor trade, not an asymptotic one; the gate keeps it on
/// the shapes where the single root division dominates both paths.)
const TREE_MIN_WIDTH_RATIO: usize = 2;

/// Entries per parallel-reduction task: small enough that prime × chunk
/// cells outnumber the workers (the cursor balances uneven bigint entry
/// widths), large enough that one cell amortizes its output allocation.
const PAR_ENTRY_CHUNK: usize = 256;

/// A reusable multi-prime reduction plan: the Montgomery fields of a
/// CRT prime set plus the precomputed per-prime radix powers (and, for
/// large plans, the prime product tree). Reducing a matrix through the
/// plan makes **one pass** over the bigint entries regardless of how
/// many primes the plan holds.
pub struct ResiduePlan {
    fields: Vec<MontgomeryField>,
    /// `powers[k][l] = 2^{64l}·R² mod p_k`, grown on demand to the
    /// widest entry seen (scratch state reused across reductions).
    powers: Vec<Vec<u64>>,
    /// Product tree over the primes: `levels[0]` = the primes
    /// themselves, each next level pairwise products, last = the full
    /// product. Built lazily on the first reduction that wants it.
    tree: Option<Vec<Vec<Natural>>>,
}

impl ResiduePlan {
    /// Build a plan over `primes` (each must satisfy the
    /// [`MontgomeryField`] constraints).
    pub fn new(primes: &[u64]) -> Self {
        let fields: Vec<MontgomeryField> =
            primes.iter().map(|&p| MontgomeryField::new(p)).collect();
        let powers = vec![Vec::new(); fields.len()];
        ResiduePlan {
            fields,
            powers,
            tree: None,
        }
    }

    /// The fields, in plan order.
    pub fn fields(&self) -> &[MontgomeryField] {
        &self.fields
    }

    fn ensure_powers(&mut self, limbs: usize) {
        if self.powers.first().is_some_and(|p| p.len() >= limbs) {
            return;
        }
        for (field, pw) in self.fields.iter().zip(self.powers.iter_mut()) {
            if pw.len() < limbs {
                *pw = field.limb_radix_powers(limbs);
            }
        }
    }

    fn ensure_tree(&mut self) -> &Vec<Vec<Natural>> {
        if self.tree.is_none() {
            let mut levels = vec![self
                .fields
                .iter()
                .map(|f| Natural::from(f.modulus()))
                .collect::<Vec<_>>()];
            while levels.last().unwrap().len() > 1 {
                let prev = levels.last().unwrap();
                let next: Vec<Natural> = prev
                    .chunks(2)
                    .map(|pair| {
                        if pair.len() == 2 {
                            &pair[0] * &pair[1]
                        } else {
                            pair[0].clone()
                        }
                    })
                    .collect();
                levels.push(next);
            }
            self.tree = Some(levels);
        }
        self.tree.as_ref().unwrap()
    }

    /// Reduce every entry of `m` into lazy Montgomery residues for every
    /// plan prime, in one pass: `out[k][i]` is entry `i` (row-major) mod
    /// prime `k`.
    pub fn reduce_matrix(&mut self, m: &Matrix<Integer>) -> Vec<Vec<u64>> {
        self.reduce_entries(m.data())
    }

    /// [`Self::reduce_matrix`] on a flat entry slice.
    pub fn reduce_entries(&mut self, entries: &[Integer]) -> Vec<Vec<u64>> {
        let max_limbs = entries
            .iter()
            .map(|e| e.magnitude().limbs().len())
            .max()
            .unwrap_or(0);
        self.ensure_powers(max_limbs.max(1));
        let nprimes = self.fields.len();
        let mut out: Vec<Vec<u64>> = (0..nprimes).map(|_| vec![0u64; entries.len()]).collect();
        // ~61 bits of product per prime → the root of the tree spans
        // about `nprimes` limbs.
        let use_tree = nprimes >= TREE_MIN_PRIMES && max_limbs >= TREE_MIN_WIDTH_RATIO * nprimes;
        if use_tree {
            self.ensure_tree();
        }
        for (i, e) in entries.iter().enumerate() {
            if e.is_zero() {
                continue;
            }
            if use_tree && e.magnitude().limbs().len() >= TREE_MIN_WIDTH_RATIO * nprimes {
                self.reduce_entry_tree(e, i, &mut out);
            } else {
                let limbs = e.magnitude().limbs();
                let negative = e.is_negative();
                for (k, field) in self.fields.iter().enumerate() {
                    out[k][i] = field.mont_from_limbs(limbs, negative, &self.powers[k]);
                }
            }
        }
        out
    }

    /// [`Self::reduce_matrix`] fanned out over the worker pool with the
    /// 2D prime × entry-chunk decomposition of
    /// [`Self::reduce_entries_par`].
    pub fn reduce_matrix_par(&mut self, m: &Matrix<Integer>, threads: usize) -> Vec<Vec<u64>> {
        self.reduce_entries_par(m.data(), threads)
    }

    /// [`Self::reduce_entries`] on the worker pool: the work grid is
    /// split two-dimensionally into prime × entry-chunk cells sharing
    /// one work-stealing cursor, replacing the per-prime-only split (a
    /// single prime's column of work can occupy every worker). The tree
    /// path fans out per entry chunk only — each remainder-tree descent
    /// spans all primes at once, so the prime dimension lives inside the
    /// task there. Bitwise-identical output to the serial pass.
    pub fn reduce_entries_par(&mut self, entries: &[Integer], threads: usize) -> Vec<Vec<u64>> {
        let nprimes = self.fields.len();
        let chunks = entries.len().div_ceil(PAR_ENTRY_CHUNK);
        if threads <= 1 || nprimes == 0 || nprimes * chunks < 2 || pool::in_worker() {
            return self.reduce_entries(entries);
        }
        let max_limbs = entries
            .iter()
            .map(|e| e.magnitude().limbs().len())
            .max()
            .unwrap_or(0);
        self.ensure_powers(max_limbs.max(1));
        let use_tree = nprimes >= TREE_MIN_PRIMES && max_limbs >= TREE_MIN_WIDTH_RATIO * nprimes;
        if use_tree {
            self.ensure_tree();
        }
        let bounds = |c: usize| (c * entries.len() / chunks, (c + 1) * entries.len() / chunks);
        let this: &Self = self;
        if use_tree {
            let chunk_outs: Vec<Vec<Vec<u64>>> = parallel::par_map(chunks, threads, |c| {
                let (lo, hi) = bounds(c);
                let mut local: Vec<Vec<u64>> = (0..nprimes).map(|_| vec![0u64; hi - lo]).collect();
                for (li, e) in entries[lo..hi].iter().enumerate() {
                    if e.is_zero() {
                        continue;
                    }
                    if e.magnitude().limbs().len() >= TREE_MIN_WIDTH_RATIO * nprimes {
                        this.reduce_entry_tree(e, li, &mut local);
                    } else {
                        let limbs = e.magnitude().limbs();
                        let negative = e.is_negative();
                        for (k, field) in this.fields.iter().enumerate() {
                            local[k][li] = field.mont_from_limbs(limbs, negative, &this.powers[k]);
                        }
                    }
                }
                local
            });
            let mut out: Vec<Vec<u64>> = (0..nprimes)
                .map(|_| Vec::with_capacity(entries.len()))
                .collect();
            for chunk in chunk_outs {
                for (k, part) in chunk.into_iter().enumerate() {
                    out[k].extend_from_slice(&part);
                }
            }
            out
        } else {
            let parts: Vec<Vec<u64>> = parallel::par_map2(nprimes, chunks, threads, |k, c| {
                let (lo, hi) = bounds(c);
                let field = &this.fields[k];
                let pw = &this.powers[k];
                entries[lo..hi]
                    .iter()
                    .map(|e| {
                        if e.is_zero() {
                            0
                        } else {
                            field.mont_from_limbs(e.magnitude().limbs(), e.is_negative(), pw)
                        }
                    })
                    .collect()
            });
            let mut parts = parts.into_iter();
            (0..nprimes)
                .map(|_| {
                    let mut row = Vec::with_capacity(entries.len());
                    for _ in 0..chunks {
                        row.extend_from_slice(&parts.next().expect("prime × chunk parts"));
                    }
                    row
                })
                .collect()
        }
    }

    /// Remainder-tree descent for one wide entry: reduce the magnitude
    /// by the root product once, then halve down the tree; the per-prime
    /// leaf remainders are single limbs, finished with one limb fold.
    fn reduce_entry_tree(&self, e: &Integer, i: usize, out: &mut [Vec<u64>]) {
        let tree = self.tree.as_ref().expect("tree built by caller");
        let negative = e.is_negative();
        let root = tree.last().unwrap();
        // (level, node index, remainder mod that node's product)
        let mut stack: Vec<(usize, usize, Natural)> =
            vec![(tree.len() - 1, 0, e.magnitude() % &root[0])];
        while let Some((level, node, rem)) = stack.pop() {
            if level == 0 {
                let field = &self.fields[node];
                out[node][i] = field.mont_from_limbs(rem.limbs(), negative, &self.powers[node]);
                continue;
            }
            let child_level = &tree[level - 1];
            let (left, right) = (2 * node, 2 * node + 1);
            if right < child_level.len() {
                stack.push((level - 1, right, &rem % &child_level[right]));
            }
            stack.push((level - 1, left, &rem % &child_level[left]));
        }
    }
}

// ----------------------------------------------------------------------
// Incremental singularity under single-entry updates
// ----------------------------------------------------------------------

/// Pending rank-one updates beyond this trigger a fresh elimination
/// (only reachable while the matrix stays singular across many
/// consecutive updates — the capacitance can't be absorbed then).
const MAX_PENDING: usize = 8;

/// Incremental update steps and fresh `O(n³)` refreshes, process-wide.
/// Healthy Gray-coded enumeration keeps refreshes a small fraction of
/// steps (a refresh happens per [`SingularityEngine::load`], after a
/// pending-set overflow, or while the base matrix is singular).
fn steps_counter() -> &'static ccmx_obs::Counter {
    ccmx_obs::counter!("ccmx_engine_incremental_steps_total")
}
fn refresh_counter() -> &'static ccmx_obs::Counter {
    ccmx_obs::counter!("ccmx_engine_fresh_refreshes_total")
}

/// Per-prime incremental state: the current residue matrix, and — when
/// the *base* matrix (current minus pending updates) is nonsingular —
/// its inverse, all in lazy Montgomery form.
struct PrimeState {
    field: MontgomeryField,
    /// Current matrix residues, row-major, always up to date.
    cur: Vec<u64>,
    /// Inverse of the base matrix (valid iff `has_inv`).
    inv: Vec<u64>,
    has_inv: bool,
    /// Rank-one updates `alpha·e_row·e_colᵀ` applied to the base to get
    /// the current matrix.
    pending: Vec<(usize, usize, u64)>,
    /// Is the *current* matrix singular mod this prime?
    singular: bool,
}

/// Exact singularity of an `n × n` integer matrix under a stream of
/// single-entry updates.
///
/// The prime plan covers the Hadamard bound for entries up to
/// `entry_bound`, so [`Self::is_singular`] ("singular mod every plan
/// prime") is exact over ℤ — callers must keep entries within the bound
/// they constructed the engine with.
pub struct SingularityEngine {
    n: usize,
    primes: Vec<PrimeState>,
    /// Reusable scratch for capacitance/Woodbury temporaries.
    scratch: Vec<u64>,
}

impl SingularityEngine {
    /// Engine for `n × n` matrices with entry magnitudes `<= entry_bound`.
    pub fn new(n: usize, entry_bound: &Natural) -> Self {
        let primes = crt_prime_plan(n, entry_bound)
            .into_iter()
            .map(|p| PrimeState {
                field: MontgomeryField::new(p),
                cur: vec![0; n * n],
                inv: vec![0; n * n],
                has_inv: false,
                pending: Vec::new(),
                singular: true,
            })
            .collect();
        SingularityEngine {
            n,
            primes,
            scratch: Vec::new(),
        }
    }

    /// Number of primes in the plan (each update costs `O(n²)` per
    /// prime).
    pub fn prime_count(&self) -> usize {
        self.primes.len()
    }

    /// Load a full matrix, replacing all incremental state. One batched
    /// reduction pass plus a fresh `O(n³)` elimination per prime.
    pub fn load(&mut self, m: &Matrix<Integer>) {
        assert_eq!(
            (m.rows(), m.cols()),
            (self.n, self.n),
            "engine dimension mismatch"
        );
        let mut plan = ResiduePlan::new(
            &self
                .primes
                .iter()
                .map(|s| s.field.modulus())
                .collect::<Vec<_>>(),
        );
        let residues = plan.reduce_matrix(m);
        for (state, res) in self.primes.iter_mut().zip(residues) {
            state.cur = res;
            state.pending.clear();
            refresh(state, self.n, &mut self.scratch);
        }
    }

    /// Is the current matrix singular over ℤ (det exactly zero)?
    pub fn is_singular(&self) -> bool {
        self.primes.iter().all(|s| s.singular)
    }

    /// Apply `entry[(row, col)] += delta` and return the new exact
    /// singularity verdict. Typical cost: one Sherman–Morrison update,
    /// `O(n²)` per prime.
    pub fn update(&mut self, row: usize, col: usize, delta: &Integer) -> bool {
        assert!(row < self.n && col < self.n, "update out of bounds");
        steps_counter().inc();
        for state in &mut self.primes {
            let alpha = state.field.reduce(delta);
            let idx = row * self.n + col;
            state.cur[idx] = state.field.add(state.cur[idx], alpha);
            if state.field.is_zero(alpha) {
                // The residue didn't move mod this prime; verdict stands.
                continue;
            }
            apply_update(state, self.n, row, col, alpha, &mut self.scratch);
            if cfg!(debug_assertions) && self.n <= 8 {
                let field = state.field;
                let fresh = crate::montgomery::det_from_residues(&field, self.n, &state.cur);
                debug_assert_eq!(
                    state.singular,
                    fresh == 0,
                    "incremental verdict diverged from fresh elimination (p = {})",
                    field.modulus()
                );
            }
        }
        self.is_singular()
    }
}

/// Merge one rank-one update into a prime's state and re-derive its
/// singularity verdict.
fn apply_update(
    state: &mut PrimeState,
    n: usize,
    row: usize,
    col: usize,
    alpha: u64,
    scratch: &mut Vec<u64>,
) {
    if !state.has_inv {
        // No usable base inverse: recompute from the current residues
        // (and capture an inverse if the matrix turned nonsingular).
        refresh(state, n, scratch);
        return;
    }
    let field = state.field;
    // Coalesce with an existing pending update to the same entry.
    if let Some(pos) = state
        .pending
        .iter()
        .position(|&(r, c, _)| r == row && c == col)
    {
        let merged = field.add(state.pending[pos].2, alpha);
        if field.is_zero(merged) {
            state.pending.swap_remove(pos);
        } else {
            state.pending[pos].2 = merged;
        }
    } else {
        state.pending.push((row, col, alpha));
    }
    if state.pending.is_empty() {
        // All updates cancelled: back at the (invertible) base.
        state.singular = false;
        return;
    }
    if state.pending.len() > MAX_PENDING {
        refresh(state, n, scratch);
        return;
    }
    // Capacitance test: with base B, updates A = B + Σ α_t·e_{r_t}e_{c_t}ᵀ
    // = B + U·Vᵀ, det(A) = det(B)·det(C) where
    // C[s][t] = δ_st + α_t · B⁻¹[c_s][r_t]   (m × m, m = |pending|).
    let m = state.pending.len();
    scratch.clear();
    scratch.resize(2 * m * m + 2 * m * n, 0);
    let (cap, rest) = scratch.split_at_mut(m * m);
    for s in 0..m {
        let (_, cs, _) = state.pending[s];
        for t in 0..m {
            let (rt, _, at) = state.pending[t];
            let mut v = field.mul(at, state.inv[cs * n + rt]);
            if s == t {
                v = field.add(v, field.one());
            }
            cap[s * m + t] = v;
        }
    }
    let (cap_inv, rest) = rest.split_at_mut(m * m);
    if !invert_small(&field, m, cap, cap_inv) {
        // det(C) = 0: the current matrix is singular mod p. Keep the
        // base and the pending set; later updates re-test.
        state.singular = true;
        return;
    }
    state.singular = false;
    // Woodbury absorb: A⁻¹ = B⁻¹ − (B⁻¹U)·C⁻¹·(VᵀB⁻¹).
    // X = B⁻¹U (n×m): X[r][t] = α_t·B⁻¹[r][r_t].
    // Z = C⁻¹·(VᵀB⁻¹) (m×n): Z[t][c] = Σ_s C⁻¹[t][s]·B⁻¹[c_s][c].
    let (x, z) = rest.split_at_mut(n * m);
    for r in 0..n {
        for (t, &(rt, _, at)) in state.pending.iter().enumerate() {
            x[r * m + t] = field.mul(at, state.inv[r * n + rt]);
        }
    }
    for t in 0..m {
        for c in 0..n {
            let mut acc = 0u64;
            for (s, &(_, cs, _)) in state.pending.iter().enumerate() {
                acc = field.add(acc, field.mul(cap_inv[t * m + s], state.inv[cs * n + c]));
            }
            z[t * n + c] = acc;
        }
    }
    for r in 0..n {
        for c in 0..n {
            let mut acc = state.inv[r * n + c];
            for t in 0..m {
                acc = field.sub_mul(acc, x[r * m + t], z[t * n + c]);
            }
            state.inv[r * n + c] = acc;
        }
    }
    state.pending.clear();
}

/// Fresh `O(n³)` Gauss–Jordan over the current residues: sets the
/// singularity verdict and, when nonsingular, rebases the inverse.
fn refresh(state: &mut PrimeState, n: usize, scratch: &mut Vec<u64>) {
    refresh_counter().inc();
    let field = state.field;
    state.pending.clear();
    scratch.clear();
    scratch.extend_from_slice(&state.cur);
    let a = &mut scratch[..];
    // Identity into the inverse buffer; Gauss–Jordan keeps it in step.
    state.inv.iter_mut().for_each(|v| *v = 0);
    for i in 0..n {
        state.inv[i * n + i] = field.one();
    }
    for col in 0..n {
        let Some(p_row) = (col..n).find(|&r| !field.is_zero(a[r * n + col])) else {
            state.singular = true;
            state.has_inv = false;
            return;
        };
        if p_row != col {
            for j in 0..n {
                a.swap(p_row * n + j, col * n + j);
                state.inv.swap(p_row * n + j, col * n + j);
            }
        }
        let pivot_inv = field
            .inv(a[col * n + col])
            .expect("nonzero pivot in a prime field");
        for j in 0..n {
            a[col * n + j] = field.mul(a[col * n + j], pivot_inv);
            state.inv[col * n + j] = field.mul(state.inv[col * n + j], pivot_inv);
        }
        for r in 0..n {
            if r == col {
                continue;
            }
            let factor = a[r * n + col];
            if field.is_zero(factor) {
                continue;
            }
            for j in 0..n {
                a[r * n + j] = field.sub_mul(a[r * n + j], factor, a[col * n + j]);
                state.inv[r * n + j] =
                    field.sub_mul(state.inv[r * n + j], factor, state.inv[col * n + j]);
            }
        }
    }
    state.singular = false;
    state.has_inv = true;
}

/// Gauss–Jordan inversion of a small `m × m` matrix (the capacitance).
/// Returns `false` (singular) without touching `out`'s meaning on
/// failure. `a` is clobbered.
fn invert_small(field: &MontgomeryField, m: usize, a: &mut [u64], out: &mut [u64]) -> bool {
    out.iter_mut().for_each(|v| *v = 0);
    for i in 0..m {
        out[i * m + i] = field.one();
    }
    for col in 0..m {
        let Some(p_row) = (col..m).find(|&r| !field.is_zero(a[r * m + col])) else {
            return false;
        };
        if p_row != col {
            for j in 0..m {
                a.swap(p_row * m + j, col * m + j);
                out.swap(p_row * m + j, col * m + j);
            }
        }
        let pivot_inv = field
            .inv(a[col * m + col])
            .expect("nonzero pivot in a prime field");
        for j in 0..m {
            a[col * m + j] = field.mul(a[col * m + j], pivot_inv);
            out[col * m + j] = field.mul(out[col * m + j], pivot_inv);
        }
        for r in 0..m {
            if r == col {
                continue;
            }
            let factor = a[r * m + col];
            if field.is_zero(factor) {
                continue;
            }
            for j in 0..m {
                a[r * m + j] = field.sub_mul(a[r * m + j], factor, a[col * m + j]);
                out[r * m + j] = field.sub_mul(out[r * m + j], factor, out[col * m + j]);
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bareiss;
    use crate::montgomery;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rand_int_matrix(n: usize, bits: u32, rng: &mut StdRng) -> Matrix<Integer> {
        Matrix::from_fn(n, n, |_, _| {
            let mag = rng.gen_range(0..(1i64 << bits));
            let sign = if rng.gen_bool(0.5) { -1 } else { 1 };
            Integer::from(sign * mag)
        })
    }

    #[test]
    fn batched_reduction_matches_per_prime_reduce() {
        let mut rng = StdRng::seed_from_u64(91);
        let primes: Vec<u64> = {
            let mut v = Vec::new();
            let mut p = ccmx_bigint::prime::next_prime(1 << 61);
            for _ in 0..4 {
                v.push(p);
                p = ccmx_bigint::prime::next_prime(p + 1);
            }
            v
        };
        let mut plan = ResiduePlan::new(&primes);
        for _ in 0..10 {
            let m = rand_int_matrix(5, 40, &mut rng);
            let batched = plan.reduce_matrix(&m);
            for (k, &p) in primes.iter().enumerate() {
                let field = MontgomeryField::new(p);
                for (i, e) in m.data().iter().enumerate() {
                    assert_eq!(
                        field.from_mont(batched[k][i]),
                        field.from_mont(field.reduce(e)),
                        "entry {i} mod {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn remainder_tree_path_matches_direct() {
        // Enough primes and wide enough entries to cross the tree gate.
        let mut rng = StdRng::seed_from_u64(92);
        let primes: Vec<u64> = {
            let mut v = Vec::new();
            let mut p = ccmx_bigint::prime::next_prime(1 << 61);
            for _ in 0..TREE_MIN_PRIMES {
                v.push(p);
                p = ccmx_bigint::prime::next_prime(p + 1);
            }
            v
        };
        let mut plan = ResiduePlan::new(&primes);
        // Entries with ~32 limbs (2048 bits) >= 2 * 8 primes.
        let wide = Matrix::from_fn(3, 3, |_, _| {
            let mut n = Natural::one();
            for _ in 0..32 {
                n = n * Natural::from(rng.gen_range(1u64 << 62..u64::MAX));
            }
            let neg = rng.gen_bool(0.5);
            let i = Integer::from(n);
            if neg {
                -&i
            } else {
                i
            }
        });
        let batched = plan.reduce_entries(wide.data());
        for (k, &p) in primes.iter().enumerate() {
            let field = MontgomeryField::new(p);
            for (i, e) in wide.data().iter().enumerate() {
                assert_eq!(
                    field.from_mont(batched[k][i]),
                    field.from_mont(field.reduce(e)),
                    "wide entry {i} mod {p}"
                );
            }
        }
    }

    #[test]
    fn batched_echelon_agrees_with_echelon_mod() {
        let mut rng = StdRng::seed_from_u64(93);
        let primes = [
            ccmx_bigint::prime::next_prime(1 << 61),
            ccmx_bigint::prime::next_prime((1 << 61) + 1000),
        ];
        let mut plan = ResiduePlan::new(&primes);
        for _ in 0..8 {
            let m = rand_int_matrix(4, 20, &mut rng);
            let residues = plan.reduce_matrix(&m);
            for (k, &p) in primes.iter().enumerate() {
                let via_plan =
                    montgomery::echelon_from_residues(&plan.fields()[k], 4, 4, &residues[k]);
                let fresh = montgomery::echelon_mod(&m, p);
                assert_eq!(via_plan.rref, fresh.rref);
                assert_eq!(via_plan.pivot_cols, fresh.pivot_cols);
                assert_eq!(via_plan.det, fresh.det);
            }
        }
    }

    #[test]
    fn parallel_reduction_matches_serial_direct_path() {
        let mut rng = StdRng::seed_from_u64(95);
        let primes: Vec<u64> = {
            let mut v = Vec::new();
            let mut p = ccmx_bigint::prime::next_prime(1 << 59);
            for _ in 0..5 {
                v.push(p);
                p = ccmx_bigint::prime::next_prime(p + 1);
            }
            v
        };
        // Enough entries to split into several chunks.
        let entries: Vec<Integer> = (0..700)
            .map(|_| {
                let mag = rng.gen_range(0..i64::MAX);
                let sign = if rng.gen_bool(0.5) { -1 } else { 1 };
                Integer::from(sign * mag)
            })
            .collect();
        let serial = ResiduePlan::new(&primes).reduce_entries(&entries);
        for threads in [2usize, 4] {
            let par = ResiduePlan::new(&primes).reduce_entries_par(&entries, threads);
            assert_eq!(par, serial, "threads={threads}");
        }
        // Serial-threads path is the identical code path.
        assert_eq!(
            ResiduePlan::new(&primes).reduce_entries_par(&entries, 1),
            serial
        );
    }

    #[test]
    fn parallel_reduction_matches_serial_tree_path() {
        let mut rng = StdRng::seed_from_u64(96);
        let primes: Vec<u64> = {
            let mut v = Vec::new();
            let mut p = ccmx_bigint::prime::next_prime(1 << 59);
            for _ in 0..TREE_MIN_PRIMES {
                v.push(p);
                p = ccmx_bigint::prime::next_prime(p + 1);
            }
            v
        };
        // Wide entries (cross the tree gate) mixed with narrow and zero.
        let entries: Vec<Integer> = (0..300)
            .map(|i| {
                if i % 7 == 0 {
                    Integer::zero()
                } else if i % 3 == 0 {
                    Integer::from(rng.gen_range(-1000i64..=1000))
                } else {
                    let mut n = Natural::one();
                    for _ in 0..2 * TREE_MIN_PRIMES {
                        n = n * Natural::from(rng.gen_range(1u64 << 62..u64::MAX));
                    }
                    let i = Integer::from(n);
                    if rng.gen_bool(0.5) {
                        -&i
                    } else {
                        i
                    }
                }
            })
            .collect();
        let serial = ResiduePlan::new(&primes).reduce_entries(&entries);
        let par = ResiduePlan::new(&primes).reduce_entries_par(&entries, 4);
        assert_eq!(par, serial);
    }

    #[test]
    fn incremental_engine_tracks_bareiss_over_flip_walk() {
        let mut rng = StdRng::seed_from_u64(94);
        for n in [2usize, 3, 4] {
            let bound = Natural::from(15u64); // 4-bit entries
            let mut engine = SingularityEngine::new(n, &bound);
            let mut m = Matrix::from_fn(n, n, |_, _| Integer::from(rng.gen_range(0i64..=15)));
            engine.load(&m);
            assert_eq!(engine.is_singular(), bareiss::is_singular(&m));
            for _ in 0..120 {
                let (r, c) = (rng.gen_range(0..n), rng.gen_range(0..n));
                let bit = rng.gen_range(0..4u32);
                // Flip bit `bit` of entry (r, c), staying in [0, 15].
                let delta = if m[(r, c)].magnitude().bit(bit as u64) {
                    Integer::from(-(1i64 << bit))
                } else {
                    Integer::from(1i64 << bit)
                };
                m[(r, c)] = &m[(r, c)] + &delta;
                let verdict = engine.update(r, c, &delta);
                assert_eq!(
                    verdict,
                    bareiss::is_singular(&m),
                    "divergence at n={n}, m={m:?}"
                );
            }
        }
    }

    #[test]
    fn incremental_engine_survives_singular_runs() {
        // Walk a 3×3 matrix through a deliberately long singular stretch
        // (zero column) and back out.
        let n = 3;
        let mut engine = SingularityEngine::new(n, &Natural::from(7u64));
        let mut m = Matrix::from_fn(n, n, |i, j| Integer::from(((i * 2 + j * 3) % 7) as i64));
        engine.load(&m);
        // Zero out column 1 step by step: singular once the column dies.
        for i in 0..n {
            let delta = -&m[(i, 1)];
            m[(i, 1)] = Integer::zero();
            let verdict = engine.update(i, 1, &delta);
            assert_eq!(verdict, bareiss::is_singular(&m));
        }
        assert!(engine.is_singular());
        // Restore entries one at a time.
        for i in 0..n {
            let delta = Integer::from((i + 1) as i64);
            m[(i, 1)] = delta.clone();
            let verdict = engine.update(i, 1, &delta);
            assert_eq!(verdict, bareiss::is_singular(&m));
        }
        assert!(steps_counter().get() > 0);
        assert!(
            refresh_counter().get() > 0,
            "load implies at least one refresh"
        );
    }

    #[test]
    fn stats_counters_advance() {
        let steps0 = steps_counter().get();
        let mut engine = SingularityEngine::new(2, &Natural::from(3u64));
        engine.load(&Matrix::from_fn(2, 2, |i, j| {
            Integer::from(((i + 2 * j) % 3) as i64)
        }));
        engine.update(0, 0, &Integer::from(1i64));
        assert!(steps_counter().get() > steps0);
    }
}
