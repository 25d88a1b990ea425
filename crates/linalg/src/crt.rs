//! CRT-certified exact rank, nullspace, span and solve over ℚ for
//! integer matrices — the fast path of every lemma verifier.
//!
//! Strategy: run the Montgomery elimination kernel
//! ([`crate::montgomery`]) modulo enough 61-bit primes that the product
//! exceeds twice the square of the Hadamard bound on the input's minors,
//! CRT-combine the residues, recover the rational RREF entries by
//! rational reconstruction, and then **certify** the result with exact
//! integer arithmetic:
//!
//! * a nullspace candidate `v` is accepted only after verifying
//!   `M·v = 0` over ℤ (denominators cleared) — together with one prime
//!   exhibiting rank `r`, this pins `rank_ℚ(M) = r` exactly (the modular
//!   rank is a lower bound via a nonzero minor; the verified independent
//!   nullspace vectors force `rank ≤ r` by rank–nullity);
//! * a solve candidate `x` is accepted only after verifying `A·x = b`
//!   over ℤ.
//!
//! Results are therefore *never heuristic*: every `try_*` function
//! either returns a certified-exact answer or `None`, and the `*_int`
//! wrappers fall back to rational Gaussian elimination (the original
//! oracle, kept bit-for-bit) when certification fails — which the
//! fallback counters make observable.

use ccmx_bigint::bounds::hadamard_bound;
use ccmx_bigint::modular::inv_mod_u64;
use ccmx_bigint::prime::next_prime;
use ccmx_bigint::{Integer, Natural, Rational};
use std::collections::BTreeMap;
use std::sync::OnceLock;

use crate::gauss;
use crate::matrix::Matrix;
use crate::montgomery::{self, ModEchelon};
use crate::parallel::{default_threads, par_map};
use crate::ring::RationalField;

// ----------------------------------------------------------------------
// Backend identification (cache keys, reports, observability)
// ----------------------------------------------------------------------

/// Which exact-arithmetic backend produced (or would produce) a result.
/// Downstream caches key on [`Backend::id`] so entries computed by
/// different engines can never be confused across an upgrade.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Gaussian elimination over ℚ with full `Rational` arithmetic.
    RationalGauss,
    /// Fraction-free integer elimination.
    Bareiss,
    /// Montgomery-kernel multi-prime CRT with exact certification.
    MontgomeryCrt,
}

impl Backend {
    /// Stable string identifier (wire-safe, cache-key-safe).
    pub fn id(self) -> &'static str {
        match self {
            Backend::RationalGauss => "rational",
            Backend::Bareiss => "bareiss",
            Backend::MontgomeryCrt => "crt",
        }
    }
}

/// The backend the certified fast path runs on. Bound computations that
/// memoize results include this in their cache keys.
pub fn active_backend() -> Backend {
    Backend::MontgomeryCrt
}

/// Registry-backed counter of certified fast-path results
/// (`ccmx_crt_certified_total`).
fn certified_counter() -> &'static ccmx_obs::Counter {
    ccmx_obs::counter!("ccmx_crt_certified_total")
}

/// Registry-backed counter of rational-Gauss fallbacks
/// (`ccmx_crt_fallback_total`).
fn fallback_counter() -> &'static ccmx_obs::Counter {
    ccmx_obs::counter!("ccmx_crt_fallback_total")
}

/// `(certified_fast_path_results, rational_fallbacks)` so far in this
/// process — the fallback rate should be ~0 in healthy operation.
///
/// Thin view over the shared [`ccmx_obs`] registry: the same numbers are
/// exported as `ccmx_crt_certified_total` / `ccmx_crt_fallback_total`.
pub fn fast_path_stats() -> (u64, u64) {
    (certified_counter().get(), fallback_counter().get())
}

/// Content fingerprint of an integer matrix: FNV-1a 64 over the shape
/// and the canonical decimal rendering of every entry in row-major
/// order. Stable across processes and backends, and useful for
/// bucketing, sampling and logs — but it is a non-injective 64-bit
/// hash: distinct matrices can share a fingerprint, and a collision can
/// be forced on purpose. It must never key a certified result; cache
/// and persist verdicts under the exact input instead.
pub fn matrix_fingerprint(m: &Matrix<Integer>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&(m.rows() as u64).to_le_bytes());
    eat(&(m.cols() as u64).to_le_bytes());
    for e in m.data() {
        eat(e.to_string().as_bytes());
        eat(b";");
    }
    h
}

// ----------------------------------------------------------------------
// Prime pool
// ----------------------------------------------------------------------

/// All CRT primes are drawn from `[2^59, 2^60)`: odd, Montgomery-lazy
/// compatible, below the grouped-REDC ceiling (so every per-prime
/// elimination takes the blocked communication-avoiding kernel), and big
/// enough that a handful covers any minor bound the verifiers produce.
/// The pool is grown lazily and shared process-wide.
fn with_primes<T>(f: impl FnOnce(&mut Vec<u64>) -> T) -> T {
    static POOL: OnceLock<parking_lot::Mutex<Vec<u64>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| parking_lot::Mutex::new(vec![next_prime(1 << 59)]));
    f(&mut pool.lock())
}

/// Consecutive pool primes starting at `offset` whose product exceeds
/// `target`.
fn plan_primes(target: &Natural, offset: usize) -> Vec<u64> {
    with_primes(|pool| {
        let mut out = Vec::new();
        let mut product = Natural::one();
        let mut i = offset;
        while product <= *target {
            while pool.len() <= i {
                let next = next_prime(pool.last().unwrap() + 1);
                assert!(next < montgomery::MAX_MODULUS, "prime pool exhausted");
                pool.push(next);
            }
            let p = pool[i];
            out.push(p);
            product = product * Natural::from(p);
            i += 1;
        }
        out
    })
}

/// The `i`-th pool prime (for single-prime probes).
fn pool_prime(i: usize) -> u64 {
    with_primes(|pool| {
        while pool.len() <= i {
            let next = next_prime(pool.last().unwrap() + 1);
            pool.push(next);
        }
        pool[i]
    })
}

/// Largest entry magnitude of `m` (at least 1).
fn entry_bound(m: &Matrix<Integer>) -> Natural {
    m.data()
        .iter()
        .map(|e| e.magnitude().clone())
        .max()
        .unwrap_or_else(Natural::one)
        .max(Natural::one())
}

/// `2·H²` where `H` is the Hadamard bound on `d × d` minors of a matrix
/// with entries bounded by `bound` — the modulus target that makes
/// rational reconstruction of RREF entries (quotients of minors) unique.
fn reconstruction_target(d: usize, bound: &Natural) -> (Natural, Natural) {
    let h = hadamard_bound(d, bound);
    let target = &(&h * &h) << 1u64;
    (h, target)
}

// ----------------------------------------------------------------------
// CRT reconstruction of the rational RREF
// ----------------------------------------------------------------------

/// The reconstructed (not yet verified) rational RREF structure.
struct QRref {
    rank: usize,
    pivot_cols: Vec<usize>,
    /// Rows `0..rank` of each **non-pivot** column of the RREF over ℚ.
    cols: BTreeMap<usize, Vec<Rational>>,
}

/// Residue RREFs mod each prime: one batched reduction pass over the
/// bigint matrix ([`crate::engine::ResiduePlan`]), itself fanned out in
/// the 2D prime × entry-chunk decomposition, then the per-prime
/// eliminations fan out over the pre-reduced residue matrices on the
/// worker pool (elimination is sequential per prime, so the prime axis
/// is its natural split).
fn rref_residues(m: &Matrix<Integer>, primes: &[u64], threads: usize) -> Vec<ModEchelon> {
    let mut plan = crate::engine::ResiduePlan::new(primes);
    let residues = plan.reduce_matrix_par(m, threads);
    let fields = plan.fields();
    let (rows, cols) = (m.rows(), m.cols());
    par_map(primes.len(), threads, |i| {
        montgomery::echelon_from_residues(&fields[i], rows, cols, &residues[i])
    })
}

/// Choose the reference echelon structure: maximum rank, then
/// lexicographically smallest pivot set (bad primes can only lose rank
/// or push pivots rightward). Returns indices of the matching residues.
fn consistent_subset(rrefs: &[ModEchelon]) -> Vec<usize> {
    // Compare by reference — no pivot-set clones per comparison.
    fn key(e: &ModEchelon) -> (std::cmp::Reverse<usize>, &[usize]) {
        (std::cmp::Reverse(e.rank()), &e.pivot_cols)
    }
    let best = rrefs
        .iter()
        .min_by(|a, b| key(a).cmp(&key(b)))
        .expect("at least one residue");
    rrefs
        .iter()
        .enumerate()
        .filter(|(_, e)| key(e) == key(best))
        .map(|(i, _)| i)
        .collect()
}

/// Reconstruct the rational RREF of `m` from modular images: rank, pivot
/// columns, and every non-pivot column (rows `0..rank`). `None` when the
/// prime windows keep disagreeing or a reconstruction fails — callers
/// fall back; exactness is certified by the *caller's* integer check.
fn reconstruct_rref(m: &Matrix<Integer>, threads: usize) -> Option<QRref> {
    let d = m.rows().min(m.cols());
    let bound = entry_bound(m);
    let (minor_bound, target) = reconstruction_target(d, &bound);

    let mut offset = 0usize;
    for _attempt in 0..3 {
        let primes = plan_primes(&target, offset);
        let used = primes.len();
        let rrefs = rref_residues(m, &primes, threads);
        let keep = consistent_subset(&rrefs);
        let modulus = keep
            .iter()
            .fold(Natural::one(), |acc, &i| acc * Natural::from(rrefs[i].p));
        if modulus <= target {
            // A deviant prime shrank the window below the bound: shift
            // to a fresh window and retry (astronomically rare).
            offset += used;
            continue;
        }
        let kept: Vec<&ModEchelon> = keep.iter().map(|&i| &rrefs[i]).collect();
        if let Some(q) = combine_and_reconstruct(&kept, &modulus, &minor_bound, m.cols()) {
            return Some(q);
        }
        offset += used;
    }
    None
}

/// Garner-style combination: precompute the CRT basis `c_i = M_i ·
/// (M_i^{-1} mod p_i)` once, then each entry is `Σ r_i·c_i mod M`.
fn combine_and_reconstruct(
    rrefs: &[&ModEchelon],
    modulus: &Natural,
    minor_bound: &Natural,
    cols: usize,
) -> Option<QRref> {
    let pivot_cols = rrefs[0].pivot_cols.clone();
    let rank = pivot_cols.len();
    let basis: Vec<Natural> = rrefs
        .iter()
        .map(|e| {
            let mi = modulus / &Natural::from(e.p);
            let mi_mod = (&mi % &Natural::from(e.p)).to_u64().expect("fits u64");
            let inv = inv_mod_u64(mi_mod, e.p).expect("coprime CRT moduli");
            mi * Natural::from(inv)
        })
        .collect();
    let reconstruct_entry = |row: usize, col: usize| -> Option<Rational> {
        let mut acc = Natural::zero();
        for (e, c) in rrefs.iter().zip(&basis) {
            let r = e.rref[(row, col)];
            if r != 0 {
                acc += c * &Natural::from(r);
            }
        }
        let x = &acc % modulus;
        crate::dixon::rational_reconstruct(&x, modulus, minor_bound)
    };
    let mut out = BTreeMap::new();
    let pivot_set: Vec<bool> = {
        let mut v = vec![false; cols];
        for &pc in &pivot_cols {
            v[pc] = true;
        }
        v
    };
    for (col, &is_pivot) in pivot_set.iter().enumerate() {
        if is_pivot {
            continue;
        }
        let mut entries = Vec::with_capacity(rank);
        for row in 0..rank {
            entries.push(reconstruct_entry(row, col)?);
        }
        out.insert(col, entries);
    }
    Some(QRref {
        rank,
        pivot_cols,
        cols: out,
    })
}

/// Clear denominators: `v·lcm(denoms)` as integers, plus the scale.
fn clear_denominators(v: &[Rational]) -> (Vec<Integer>, Natural) {
    let scale = v.iter().fold(Natural::one(), |acc, r| {
        ccmx_bigint::gcd::lcm(&acc, r.denominator())
    });
    let scale_q = Rational::from(Integer::from(scale.clone()));
    let ints = v
        .iter()
        .map(|r| (r * &scale_q).to_integer().expect("lcm clears denominator"))
        .collect();
    (ints, scale)
}

/// Does `m · v = 0` hold exactly (integer arithmetic, denominators
/// cleared)? The certification step of the nullspace fast path.
fn verify_in_kernel(m: &Matrix<Integer>, v: &[Rational]) -> bool {
    let (ints, _) = clear_denominators(v);
    (0..m.rows()).all(|i| {
        let mut acc = Integer::zero();
        for (j, x) in ints.iter().enumerate() {
            if !x.is_zero() && !m[(i, j)].is_zero() {
                acc += &(&m[(i, j)] * x);
            }
        }
        acc.is_zero()
    })
}

// ----------------------------------------------------------------------
// Certified computations (`try_*`: Some = certified exact, None = punt)
// ----------------------------------------------------------------------

/// Certified rank of an integer matrix over ℚ.
///
/// Fast exit: a single residue rank equal to `min(rows, cols)` is
/// already exact (modular rank never exceeds the rational rank). The
/// rank-deficient case goes through the verified nullspace.
pub fn try_rank(m: &Matrix<Integer>, threads: usize) -> Option<usize> {
    let d = m.rows().min(m.cols());
    if d == 0 {
        return Some(0);
    }
    let r = montgomery::rank_mod(m, pool_prime(0));
    if r == d {
        return Some(r);
    }
    try_nullspace(m, threads).map(|ns| m.cols() - ns.len())
}

/// Certified nullspace basis of `m` over ℚ, identical in shape and
/// value to [`gauss::nullspace`] over [`RationalField`]: one vector per
/// free column, unit at its free position.
pub fn try_nullspace(m: &Matrix<Integer>, threads: usize) -> Option<Vec<Vec<Rational>>> {
    if m.cols() == 0 {
        return Some(Vec::new());
    }
    if m.rows() == 0 {
        // Everything is in the kernel: the identity basis.
        return Some(
            (0..m.cols())
                .map(|f| {
                    let mut v = vec![Rational::zero(); m.cols()];
                    v[f] = Rational::one();
                    v
                })
                .collect(),
        );
    }
    let q = reconstruct_rref(m, threads)?;
    let pivot_of_col: Vec<Option<usize>> = {
        let mut v = vec![None; m.cols()];
        for (row, &pc) in q.pivot_cols.iter().enumerate() {
            v[pc] = Some(row);
        }
        v
    };
    let mut basis = Vec::new();
    for (free, entries) in &q.cols {
        let mut v = vec![Rational::zero(); m.cols()];
        v[*free] = Rational::one();
        for (col, pr) in pivot_of_col.iter().enumerate() {
            if let Some(row) = pr {
                v[col] = -&entries[*row];
            }
        }
        if !verify_in_kernel(m, &v) {
            return None;
        }
        basis.push(v);
    }
    // rank ≥ q.rank from the residues (a nonzero minor mod p), rank ≤
    // q.rank from the cols − rank verified independent kernel vectors:
    // the basis is certified complete.
    debug_assert_eq!(basis.len(), m.cols() - q.rank);
    Some(basis)
}

/// Certified particular solution of `a·x = b` over ℚ (free variables
/// zero, matching [`gauss::solve`]). `None` means "could not certify" —
/// including the possibly-inconsistent case, which the fallback decides.
pub fn try_solve(a: &Matrix<Integer>, b: &[Integer], threads: usize) -> Option<Vec<Rational>> {
    assert_eq!(a.rows(), b.len(), "rhs length mismatch");
    if a.rows() == 0 {
        return Some(vec![Rational::zero(); a.cols()]);
    }
    let aug = Matrix::from_fn(a.rows(), a.cols() + 1, |i, j| {
        if j < a.cols() {
            a[(i, j)].clone()
        } else {
            b[i].clone()
        }
    });
    let q = reconstruct_rref(&aug, threads)?;
    if q.pivot_cols.last() == Some(&a.cols()) {
        // Inconsistent modulo every consistent prime; let the exact
        // fallback produce the (certified) verdict.
        return None;
    }
    let mut x = vec![Rational::zero(); a.cols()];
    if let Some(entries) = q.cols.get(&a.cols()) {
        for (row, &pc) in q.pivot_cols.iter().enumerate() {
            x[pc] = entries[row].clone();
        }
    }
    // Certify: a·x = b exactly, denominators cleared.
    let (ints, scale) = clear_denominators(&x);
    let scale_i = Integer::from(scale);
    let ok = (0..a.rows()).all(|i| {
        let mut acc = Integer::zero();
        for (j, v) in ints.iter().enumerate() {
            if !v.is_zero() && !a[(i, j)].is_zero() {
                acc += &(&a[(i, j)] * v);
            }
        }
        acc == &b[i] * &scale_i
    });
    ok.then_some(x)
}

/// Certified `v ∈ column-span(a)` over ℚ.
pub fn try_in_column_span(a: &Matrix<Integer>, v: &[Integer], threads: usize) -> Option<bool> {
    assert_eq!(a.rows(), v.len(), "vector/matrix size mismatch");
    let ra = try_rank(a, threads)?;
    let aug = Matrix::from_fn(a.rows(), a.cols() + 1, |i, j| {
        if j < a.cols() {
            a[(i, j)].clone()
        } else {
            v[i].clone()
        }
    });
    let raug = try_rank(&aug, threads)?;
    Some(ra == raug)
}

/// Certified `dim(span(a) ∩ span(b))` over ℚ.
pub fn try_span_intersection_dim(
    a: &Matrix<Integer>,
    b: &Matrix<Integer>,
    threads: usize,
) -> Option<usize> {
    assert_eq!(a.rows(), b.rows(), "spans live in different ambient spaces");
    let concat = Matrix::from_fn(a.rows(), a.cols() + b.cols(), |i, j| {
        if j < a.cols() {
            a[(i, j)].clone()
        } else {
            b[(i, j - a.cols())].clone()
        }
    });
    let (ra, rb, rc) = (
        try_rank(a, threads)?,
        try_rank(b, threads)?,
        try_rank(&concat, threads)?,
    );
    Some(ra + rb - rc)
}

// ----------------------------------------------------------------------
// Fallback wrappers: certified fast path, rational-Gauss oracle on miss
// ----------------------------------------------------------------------

fn to_q(m: &Matrix<Integer>) -> Matrix<Rational> {
    m.map(|e| Rational::from(e.clone()))
}

fn certified<T>(fast: Option<T>, slow: impl FnOnce() -> T) -> T {
    match fast {
        Some(v) => {
            certified_counter().inc();
            v
        }
        None => {
            fallback_counter().inc();
            let _sp = ccmx_obs::span("crt.fallback");
            slow()
        }
    }
}

/// Exact rank over ℚ: certified CRT fast path, rational-Gauss fallback.
pub fn rank_int(m: &Matrix<Integer>) -> usize {
    certified(try_rank(m, default_threads()), || {
        gauss::rank(&RationalField, &to_q(m))
    })
}

/// Exact nullspace basis over ℚ (same basis as [`gauss::nullspace`]).
pub fn nullspace_int(m: &Matrix<Integer>) -> Vec<Vec<Rational>> {
    certified(try_nullspace(m, default_threads()), || {
        gauss::nullspace(&RationalField, &to_q(m))
    })
}

/// Exact span membership over ℚ (the Lemma 3.2/3.3 predicate).
pub fn in_column_span_int(a: &Matrix<Integer>, v: &[Integer]) -> bool {
    certified(try_in_column_span(a, v, default_threads()), || {
        let vq: Vec<Rational> = v.iter().map(|e| Rational::from(e.clone())).collect();
        gauss::in_column_span(&RationalField, &to_q(a), &vq)
    })
}

/// Exact particular solution of `a·x = b` over ℚ, or `None` if the
/// system is inconsistent (matches [`gauss::solve`]).
pub fn solve_q_int(a: &Matrix<Integer>, b: &[Integer]) -> Option<Vec<Rational>> {
    match try_solve(a, b, default_threads()) {
        Some(x) => {
            certified_counter().inc();
            Some(x)
        }
        None => {
            fallback_counter().inc();
            let bq: Vec<Rational> = b.iter().map(|e| Rational::from(e.clone())).collect();
            gauss::solve(&RationalField, &to_q(a), &bq)
        }
    }
}

/// Exact `dim(span(a) ∩ span(b))` over ℚ (the Lemma 3.6 quantity).
pub fn span_intersection_dim_int(a: &Matrix<Integer>, b: &Matrix<Integer>) -> usize {
    certified(try_span_intersection_dim(a, b, default_threads()), || {
        gauss::span_intersection_dim(&RationalField, &to_q(a), &to_q(b))
    })
}

/// Exact column-span equality over ℚ.
pub fn same_column_span_int(a: &Matrix<Integer>, b: &Matrix<Integer>) -> bool {
    let ra = rank_int(a);
    let rb = rank_int(b);
    ra == rb && span_intersection_dim_int(a, b) == ra
}

/// Indices of a certified maximal independent column set of `m` (so the
/// submatrix on them is a basis of the column space): candidate pivots
/// from a residue echelon, accepted when their count equals the exact
/// rank (independence mod `p` implies independence over ℚ). Falls back
/// to rational-Gauss pivots.
pub fn independent_columns_int(m: &Matrix<Integer>) -> Vec<usize> {
    let r = rank_int(m);
    for i in 0..3 {
        let e = montgomery::echelon_mod(m, pool_prime(i));
        if e.rank() == r {
            return e.pivot_cols;
        }
    }
    fallback_counter().inc();
    gauss::echelon(&RationalField, &to_q(m)).pivot_cols
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::int_matrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rand_matrix(rows: usize, cols: usize, bound: i64, rng: &mut StdRng) -> Matrix<Integer> {
        Matrix::from_fn(rows, cols, |_, _| {
            Integer::from(rng.gen_range(-bound..=bound))
        })
    }

    #[test]
    fn backend_ids_are_distinct() {
        let ids = [
            Backend::RationalGauss.id(),
            Backend::Bareiss.id(),
            Backend::MontgomeryCrt.id(),
        ];
        assert_eq!(
            ids.iter().collect::<std::collections::HashSet<_>>().len(),
            3
        );
        assert_eq!(active_backend(), Backend::MontgomeryCrt);
    }

    #[test]
    fn certified_rank_matches_oracle() {
        let mut rng = StdRng::seed_from_u64(71);
        for _ in 0..40 {
            let rows = rng.gen_range(1..=7);
            let cols = rng.gen_range(1..=7);
            let bound = [1i64, 100, 1 << 20][rng.gen_range(0..3)];
            let m = rand_matrix(rows, cols, bound, &mut rng);
            let oracle = gauss::rank(&RationalField, &to_q(&m));
            assert_eq!(try_rank(&m, 1), Some(oracle), "m = {m:?}");
            assert_eq!(rank_int(&m), oracle);
        }
    }

    #[test]
    fn certified_rank_on_engineered_deficiency() {
        // Duplicate and scaled columns: rank must drop and be certified.
        let m = int_matrix(&[&[1, 2, 3, 2], &[4, 5, 9, 10], &[7, 8, 15, 16]]);
        let oracle = gauss::rank(&RationalField, &to_q(&m));
        assert_eq!(try_rank(&m, 1), Some(oracle));
    }

    #[test]
    fn certified_nullspace_equals_oracle_exactly() {
        let mut rng = StdRng::seed_from_u64(72);
        for _ in 0..30 {
            let rows = rng.gen_range(1..=6);
            let cols = rng.gen_range(1..=6);
            let m = rand_matrix(rows, cols, 9, &mut rng);
            let oracle = gauss::nullspace(&RationalField, &to_q(&m));
            let fast = try_nullspace(&m, 1).expect("certification must succeed");
            assert_eq!(fast, oracle, "nullspace mismatch on {m:?}");
        }
    }

    #[test]
    fn nullspace_handles_degenerate_shapes() {
        let zero_rows = Matrix::from_fn(0, 3, |_, _| Integer::zero());
        let ns = nullspace_int(&zero_rows);
        assert_eq!(ns.len(), 3);
        let zero = Matrix::from_fn(2, 2, |_, _| Integer::zero());
        assert_eq!(nullspace_int(&zero).len(), 2);
        assert_eq!(rank_int(&zero), 0);
        let no_cols = Matrix::from_fn(3, 0, |_, _| Integer::zero());
        assert!(nullspace_int(&no_cols).is_empty());
        assert_eq!(rank_int(&no_cols), 0);
    }

    #[test]
    fn solve_matches_oracle() {
        let mut rng = StdRng::seed_from_u64(73);
        let f = RationalField;
        for _ in 0..30 {
            let rows = rng.gen_range(1..=5);
            let cols = rng.gen_range(1..=5);
            let a = rand_matrix(rows, cols, 6, &mut rng);
            let b: Vec<Integer> = (0..rows)
                .map(|_| Integer::from(rng.gen_range(-6i64..=6)))
                .collect();
            let bq: Vec<Rational> = b.iter().map(|e| Rational::from(e.clone())).collect();
            let oracle = gauss::solve(&f, &to_q(&a), &bq);
            assert_eq!(solve_q_int(&a, &b), oracle, "solve mismatch on {a:?} {b:?}");
        }
    }

    #[test]
    fn span_membership_and_intersection_match_oracle() {
        let mut rng = StdRng::seed_from_u64(74);
        let f = RationalField;
        for _ in 0..25 {
            let rows = rng.gen_range(1..=6);
            let a = rand_matrix(rows, rng.gen_range(1..=4), 5, &mut rng);
            let b = rand_matrix(rows, rng.gen_range(1..=4), 5, &mut rng);
            let v: Vec<Integer> = (0..rows)
                .map(|_| Integer::from(rng.gen_range(-5i64..=5)))
                .collect();
            let vq: Vec<Rational> = v.iter().map(|e| Rational::from(e.clone())).collect();
            assert_eq!(
                in_column_span_int(&a, &v),
                gauss::in_column_span(&f, &to_q(&a), &vq)
            );
            assert_eq!(
                span_intersection_dim_int(&a, &b),
                gauss::span_intersection_dim(&f, &to_q(&a), &to_q(&b))
            );
            assert_eq!(
                same_column_span_int(&a, &b),
                gauss::same_column_span(&f, &to_q(&a), &to_q(&b))
            );
        }
    }

    #[test]
    fn independent_columns_give_a_basis() {
        let mut rng = StdRng::seed_from_u64(75);
        for _ in 0..20 {
            let rows = rng.gen_range(1..=6);
            let cols = rng.gen_range(1..=6);
            let m = rand_matrix(rows, cols, 4, &mut rng);
            let sel = independent_columns_int(&m);
            assert_eq!(sel.len(), rank_int(&m));
            let sub = m.submatrix(&(0..rows).collect::<Vec<_>>(), &sel);
            assert_eq!(rank_int(&sub), sel.len());
        }
    }

    #[test]
    fn large_entries_still_certify() {
        // Entries far beyond u64: multi-prime CRT plus reconstruction.
        let big = Integer::from(1i64 << 62);
        let big2 = &big * &big; // 2^124
        let m = Matrix::from_fn(3, 4, |i, j| {
            if j == 3 {
                // Last column = first + second: engineered dependency.
                &m_entry(i, 0, &big2) + &m_entry(i, 1, &big2)
            } else {
                m_entry(i, j, &big2)
            }
        });
        let oracle = gauss::rank(&RationalField, &to_q(&m));
        assert_eq!(try_rank(&m, 2), Some(oracle));
        let ns = try_nullspace(&m, 2).expect("certified");
        assert_eq!(ns, gauss::nullspace(&RationalField, &to_q(&m)));
    }

    fn m_entry(i: usize, j: usize, scale: &Integer) -> Integer {
        &Integer::from((i * 3 + j + 1) as i64) * scale
    }

    #[test]
    fn fast_path_is_actually_taken() {
        let before = fast_path_stats();
        let m = int_matrix(&[&[1, 2], &[3, 4]]);
        assert_eq!(rank_int(&m), 2);
        let after = fast_path_stats();
        assert!(after.0 > before.0, "certified counter must advance");
    }
}
