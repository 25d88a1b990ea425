//! Montgomery-form GF(p) arithmetic and elimination kernels.
//!
//! The naive `u64` prime field ([`crate::ring::PrimeField`]) pays a
//! `u128` division (`%`) for every multiplication — the dominant cost of
//! the modular elimination hot loops behind the CRT determinant and the
//! certified rank engine. Montgomery representation replaces that
//! division with two multiplies and a shift (REDC), and for primes below
//! `2^62` the reduction can additionally be *delayed*: residues live in
//! the lazy window `[0, 2p)`, REDC's final conditional subtraction is
//! skipped, and the elimination inner loop `t ← t − f·s` costs one REDC
//! plus one add and one conditional subtract — no divisions anywhere.
//!
//! Layout:
//!
//! * [`MontgomeryField`] — the field object (`p` odd, `3 ≤ p < 2^62`)
//!   with conversion, lazy arithmetic, and inversion;
//! * [`echelon_mod`] / [`det_mod`] / [`rank_mod`] — specialized dense
//!   kernels over an [`Integer`] matrix reduced mod `p`, the substrate of
//!   [`crate::crt`]'s certified exact computations. Each dispatches to a
//!   cache-blocked *communication-avoiding* kernel (panel factorization +
//!   grouped-REDC trailing update, tile width from
//!   [`crate::iomodel::panel_width`]) when the modulus is below
//!   [`GROUPED_REDC_MAX_MODULUS`] and the matrix is kernel-scale, and to
//!   the scalar delayed-reduction sweep otherwise; both paths report
//!   Hong–Kung words moved into the `ccmx_iomodel_*` meter.
//!
//! Window arithmetic (all for `p < 2^62`, `R = 2^64`):
//! inputs `a, b < 2p` give `a·b < 4p² < p·R`, so `REDC(a·b) < a·b/R + p
//! < 2p` — the lazy window is closed under multiplication without the
//! final subtraction, and `x + (2p − y) < 4p < 2^64` never overflows.
//! For `p < 2^60` the window is wider still: *four* lazy products sum to
//! `< 16p² < p·R`, so the blocked kernels retire four multiply–adds per
//! REDC (see [`GROUPED_REDC_MAX_MODULUS`]).

use ccmx_bigint::modular::{inv_mod_u64, reduce_integer_u64};
use ccmx_bigint::Integer;

use crate::iomodel;
use crate::matrix::Matrix;

/// Largest modulus the lazy-reduction kernels accept (exclusive).
pub const MAX_MODULUS: u64 = 1 << 62;

/// Largest modulus (exclusive) for the grouped-REDC blocked kernels:
/// a `u128` sum of four lazy products needs `4·(2p)² < p·2^64`, i.e.
/// `p < 2^60`. The CRT prime pool draws from `next_prime(2^59)` upward
/// precisely so its primes qualify; explicitly supplied larger moduli
/// (up to [`MAX_MODULUS`]) still work through the scalar kernels.
pub const GROUPED_REDC_MAX_MODULUS: u64 = 1 << 60;

/// GF(p) in Montgomery form for an odd prime `3 ≤ p < 2^62`.
///
/// Elements are `u64` residues in the *lazy window* `[0, 2p)`, stored as
/// `a·R mod p` (up to one extra `p`), `R = 2^64`. Use [`to_mont`] /
/// [`from_mont`] at the boundary; everything in between stays lazy.
///
/// [`to_mont`]: MontgomeryField::to_mont
/// [`from_mont`]: MontgomeryField::from_mont
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MontgomeryField {
    p: u64,
    twop: u64,
    /// `-p^{-1} mod 2^64` (Newton iteration).
    neg_inv: u64,
    /// `R² mod p`, the to-Montgomery multiplier.
    r2: u64,
    /// `1` in Montgomery form.
    one: u64,
}

impl MontgomeryField {
    /// Construct the field. Panics unless `p` is odd and `3 ≤ p < 2^62`.
    /// (Primality is the caller's responsibility, exactly as for
    /// [`crate::ring::PrimeField`].)
    pub fn new(p: u64) -> Self {
        assert!(p >= 3 && p % 2 == 1, "Montgomery modulus must be odd >= 3");
        assert!(p < MAX_MODULUS, "Montgomery modulus must be < 2^62");
        // Newton–Hensel: x ← x(2 − p·x) doubles correct low bits.
        let mut inv = p; // correct to 3 bits (p odd)
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(p.wrapping_mul(inv)));
        }
        debug_assert_eq!(p.wrapping_mul(inv), 1);
        let neg_inv = inv.wrapping_neg();
        // R mod p, then square it with double-and-add to get R² mod p.
        let r = (u64::MAX % p) + 1; // 2^64 mod p (p > 1 so no overflow to 0 issues)
        let r_mod = if r == p { 0 } else { r };
        let r2 = ((r_mod as u128 * r_mod as u128) % p as u128) as u64;
        let mut field = MontgomeryField {
            p,
            twop: 2 * p,
            neg_inv,
            r2,
            one: 0,
        };
        field.one = field.to_mont(1);
        field
    }

    /// The modulus.
    #[inline]
    pub fn modulus(&self) -> u64 {
        self.p
    }

    /// `1` in Montgomery form.
    #[inline]
    pub fn one(&self) -> u64 {
        self.one
    }

    /// REDC: `t·R^{-1} mod p`, lazily (result `< 2p` for `t < 4p²`).
    #[inline(always)]
    fn redc(&self, t: u128) -> u64 {
        let m = (t as u64).wrapping_mul(self.neg_inv);
        let u = (t + m as u128 * self.p as u128) >> 64;
        u as u64
    }

    /// Lazy product of two lazy residues.
    #[inline(always)]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.twop && b < self.twop);
        self.redc(a as u128 * b as u128)
    }

    /// Lazy sum.
    #[inline(always)]
    pub fn add(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.twop && b < self.twop);
        let s = a + b; // < 4p < 2^64
        if s >= self.twop {
            s - self.twop
        } else {
            s
        }
    }

    /// Lazy difference.
    #[inline(always)]
    pub fn sub(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.twop && b < self.twop);
        let s = a + self.twop - b; // < 4p
        if s >= self.twop {
            s - self.twop
        } else {
            s
        }
    }

    /// The delayed-reduction elimination kernel: `t − f·s` in one REDC.
    #[inline(always)]
    pub fn sub_mul(&self, t: u64, f: u64, s: u64) -> u64 {
        self.sub(t, self.mul(f, s))
    }

    /// REDC of an accumulated sum of up to four lazy products. The
    /// blocked kernels sum four `f·s` products (`f, s < 2p`) in a `u128`
    /// and retire them with this single reduction — legal only for
    /// moduli below [`GROUPED_REDC_MAX_MODULUS`], where `4·(2p)² <
    /// p·2^64` keeps the sum under `p·R` (so the result stays lazy).
    #[inline(always)]
    fn redc_sum(&self, t: u128) -> u64 {
        debug_assert!(t < (self.p as u128) << 64, "grouped-REDC sum overflow");
        self.redc(t)
    }

    /// Is the lazy residue ≡ 0 (mod p)?
    #[inline(always)]
    pub fn is_zero(&self, a: u64) -> bool {
        a == 0 || a == self.p
    }

    /// Canonical residue `a < p` into Montgomery (lazy) form.
    #[inline]
    pub fn to_mont(&self, a: u64) -> u64 {
        debug_assert!(a < self.p);
        self.redc(a as u128 * self.r2 as u128)
    }

    /// Lazy Montgomery residue back to canonical `[0, p)`.
    #[inline]
    pub fn from_mont(&self, a: u64) -> u64 {
        debug_assert!(a < self.twop);
        let u = self.redc(a as u128); // < p + 1, i.e. <= p
        if u >= self.p {
            u - self.p
        } else {
            u
        }
    }

    /// Multiplicative inverse of a nonzero lazy residue (Montgomery
    /// form), via extended Euclid on the canonical value.
    pub fn inv(&self, a: u64) -> Option<u64> {
        let canonical = self.from_mont(a);
        if canonical == 0 {
            return None;
        }
        inv_mod_u64(canonical, self.p).map(|i| self.to_mont(i))
    }

    /// Reduce an [`Integer`] into the field (Montgomery form).
    pub fn reduce(&self, a: &Integer) -> u64 {
        self.to_mont(reduce_integer_u64(a, self.p))
    }

    /// Radix powers for [`Self::mont_from_limbs`]: `powers[l] =
    /// 2^{64·l}·R² mod p` (canonical), so that `REDC(limb · powers[l])`
    /// is the Montgomery form of `limb · 2^{64·l}`.
    pub fn limb_radix_powers(&self, count: usize) -> Vec<u64> {
        let mut powers = Vec::with_capacity(count);
        let mut cur = self.r2;
        for _ in 0..count {
            powers.push(cur);
            cur = (((cur as u128) << 64) % self.p as u128) as u64;
        }
        powers
    }

    /// Reduce a little-endian limb magnitude (optionally negated) into
    /// the field in one pass: one REDC per nonzero limb, **no bigint
    /// division**. `powers` must come from [`Self::limb_radix_powers`]
    /// with `powers.len() >= limbs.len()`.
    ///
    /// Window safety: `limb < 2^64` and `powers[l] < p` give `limb ·
    /// powers[l] < p·R`, so `REDC < 2p` — a lazy residue, closed under
    /// [`Self::add`].
    pub fn mont_from_limbs(&self, limbs: &[u64], negative: bool, powers: &[u64]) -> u64 {
        debug_assert!(powers.len() >= limbs.len(), "radix powers too short");
        let mut acc = 0u64;
        for (l, &limb) in limbs.iter().enumerate() {
            if limb != 0 {
                acc = self.add(acc, self.redc(limb as u128 * powers[l] as u128));
            }
        }
        if negative {
            acc = self.sub(0, acc);
        }
        acc
    }
}

/// Result of one modular elimination sweep: everything the CRT layer
/// needs, with residues back in **canonical** (non-Montgomery) form.
#[derive(Clone, Debug)]
pub struct ModEchelon {
    /// The prime.
    pub p: u64,
    /// Reduced row echelon form mod `p`, canonical residues.
    pub rref: Matrix<u64>,
    /// Pivot column of each pivot row, in row order.
    pub pivot_cols: Vec<usize>,
    /// `det mod p` (canonical) if the input was square, else `None`.
    pub det: Option<u64>,
}

impl ModEchelon {
    /// The rank mod `p`.
    pub fn rank(&self) -> usize {
        self.pivot_cols.len()
    }
}

/// Reduce an integer matrix mod `p` into lazy Montgomery residues.
fn reduce_matrix_mont(m: &Matrix<Integer>, field: &MontgomeryField) -> Vec<u64> {
    m.data().iter().map(|e| field.reduce(e)).collect()
}

/// Reduced row echelon form of an integer matrix mod `p`, through the
/// delayed-reduction Montgomery kernel. Bit-identical results to the
/// generic [`crate::gauss::echelon`] over [`crate::ring::PrimeField`],
/// several times faster.
pub fn echelon_mod(m: &Matrix<Integer>, p: u64) -> ModEchelon {
    let field = MontgomeryField::new(p);
    let a = reduce_matrix_mont(m, &field);
    echelon_from_residues(&field, m.rows(), m.cols(), &a)
}

/// [`echelon_mod`] on a matrix already reduced into lazy Montgomery
/// residues (row-major, `rows × cols`) — the fan-out target of the
/// one-pass multi-prime reducer in [`crate::engine`], which reduces the
/// bigint matrix once instead of once per prime.
///
/// Dispatches to the blocked communication-avoiding kernel when the
/// modulus and shape qualify (falling back to the scalar sweep on
/// rank-deficient inputs, where the blocked forward pass bails); results
/// are identical either way — RREF mod `p` is unique.
pub fn echelon_from_residues(
    field: &MontgomeryField,
    rows: usize,
    cols: usize,
    residues: &[u64],
) -> ModEchelon {
    if blocked_eligible(field, rows, cols) {
        if let Some(e) =
            echelon_from_residues_blocked(field, rows, cols, residues, iomodel::panel_width())
        {
            return e;
        }
    }
    echelon_from_residues_scalar(field, rows, cols, residues)
}

/// The scalar (column-at-a-time) Gauss–Jordan sweep behind
/// [`echelon_from_residues`] — also the oracle the blocked kernel is
/// property-tested against.
pub fn echelon_from_residues_scalar(
    field: &MontgomeryField,
    rows: usize,
    cols: usize,
    residues: &[u64],
) -> ModEchelon {
    assert_eq!(residues.len(), rows * cols, "residue buffer shape mismatch");
    let mut words = 0u64;
    let mut a = residues.to_vec();
    let idx = |r: usize, c: usize| r * cols + c;

    let mut pivot_cols = Vec::new();
    let mut det_sign_flip = false;
    let mut det = if rows == cols {
        Some(field.one())
    } else {
        None
    };
    let mut pivot_row = 0usize;
    for col in 0..cols {
        let Some(p_row) = (pivot_row..rows).find(|&r| !field.is_zero(a[idx(r, col)])) else {
            continue;
        };
        // Hong–Kung accounting for the unblocked sweep: the pivot-column
        // scan, the pivot-row scale (read+write) and, per eliminated row,
        // a pivot-row read plus a read+write of the trailing row.
        words += ((3 * (rows - 1) + 2) * (cols - col) + (rows - pivot_row)) as u64;
        if p_row != pivot_row {
            for j in col..cols {
                a.swap(idx(p_row, j), idx(pivot_row, j));
            }
            det_sign_flip = !det_sign_flip;
        }
        let pivot = a[idx(pivot_row, col)];
        if let Some(d) = det {
            det = Some(field.mul(d, pivot));
        }
        // Scale the pivot row so the pivot becomes 1.
        let inv = field.inv(pivot).expect("nonzero pivot in a prime field");
        for j in col..cols {
            a[idx(pivot_row, j)] = field.mul(a[idx(pivot_row, j)], inv);
        }
        // Eliminate the column everywhere else (full reduction). The
        // inner loop is the delayed-reduction hot path.
        for r in 0..rows {
            if r == pivot_row || field.is_zero(a[idx(r, col)]) {
                continue;
            }
            let factor = a[idx(r, col)];
            let (pr_base, r_base) = (idx(pivot_row, 0), idx(r, 0));
            for j in col..cols {
                a[r_base + j] = field.sub_mul(a[r_base + j], factor, a[pr_base + j]);
            }
        }
        pivot_cols.push(col);
        pivot_row += 1;
        if pivot_row == rows {
            break;
        }
    }
    if rows == cols && pivot_cols.len() < rows {
        det = Some(0);
    }
    let det = det.map(|d| {
        let v = field.from_mont(d);
        if det_sign_flip && v != 0 {
            field.modulus() - v
        } else {
            v
        }
    });
    flush_scalar_words(iomodel::Kernel::Rref, rows.min(cols), words);
    let rref = Matrix::from_vec(
        rows,
        cols,
        a.into_iter().map(|v| field.from_mont(v)).collect(),
    );
    ModEchelon {
        p: field.modulus(),
        rref,
        pivot_cols,
        det,
    }
}

/// Determinant of a square integer matrix mod `p` (forward elimination
/// only — cheaper than [`echelon_mod`] when the RREF is not needed).
pub fn det_mod(m: &Matrix<Integer>, p: u64) -> u64 {
    assert!(m.is_square(), "determinant of non-square matrix");
    let field = MontgomeryField::new(p);
    let a = reduce_matrix_mont(m, &field);
    det_from_residues(&field, m.rows(), &a)
}

/// [`det_mod`] on pre-reduced lazy Montgomery residues (`n × n`,
/// row-major). Dispatches to the blocked communication-avoiding kernel
/// when the modulus and shape qualify (the blocked forward pass handles
/// every determinant case itself — a pivotless column just means 0).
pub fn det_from_residues(field: &MontgomeryField, n: usize, residues: &[u64]) -> u64 {
    if blocked_eligible(field, n, n) {
        det_from_residues_blocked(field, n, residues, iomodel::panel_width())
    } else {
        det_from_residues_scalar(field, n, residues)
    }
}

/// The scalar forward-elimination determinant behind
/// [`det_from_residues`] — also the oracle the blocked kernel is
/// property-tested against.
pub fn det_from_residues_scalar(field: &MontgomeryField, n: usize, residues: &[u64]) -> u64 {
    assert_eq!(residues.len(), n * n, "residue buffer shape mismatch");
    if n == 0 {
        return 1 % field.modulus();
    }
    let mut words = 0u64;
    let mut a = residues.to_vec();
    let idx = |r: usize, c: usize| r * n + c;
    let mut det = field.one();
    let mut negate = false;
    for col in 0..n {
        let Some(p_row) = (col..n).find(|&r| !field.is_zero(a[idx(r, col)])) else {
            flush_scalar_words(iomodel::Kernel::Det, n, words);
            return 0;
        };
        words += ((3 * (n - col - 1) + 1) * (n - col)) as u64;
        if p_row != col {
            for j in col..n {
                a.swap(idx(p_row, j), idx(col, j));
            }
            negate = !negate;
        }
        let pivot = a[idx(col, col)];
        det = field.mul(det, pivot);
        let inv = field.inv(pivot).expect("nonzero pivot in a prime field");
        for r in col + 1..n {
            if field.is_zero(a[idx(r, col)]) {
                continue;
            }
            let factor = field.mul(a[idx(r, col)], inv);
            let (c_base, r_base) = (idx(col, 0), idx(r, 0));
            for j in col..n {
                a[r_base + j] = field.sub_mul(a[r_base + j], factor, a[c_base + j]);
            }
        }
    }
    flush_scalar_words(iomodel::Kernel::Det, n, words);
    let v = field.from_mont(det);
    if negate && v != 0 {
        field.modulus() - v
    } else {
        v
    }
}

/// Rank of an integer matrix mod `p` (forward elimination only).
pub fn rank_mod(m: &Matrix<Integer>, p: u64) -> usize {
    let field = MontgomeryField::new(p);
    let a = reduce_matrix_mont(m, &field);
    rank_from_residues(&field, m.rows(), m.cols(), &a)
}

/// [`rank_mod`] on pre-reduced lazy Montgomery residues (`rows × cols`,
/// row-major). Dispatches to the blocked communication-avoiding kernel
/// when the modulus and shape qualify; the blocked pass certifies full
/// rank or bails to the scalar sweep (rank-deficient inputs).
pub fn rank_from_residues(
    field: &MontgomeryField,
    rows: usize,
    cols: usize,
    residues: &[u64],
) -> usize {
    if blocked_eligible(field, rows, cols) {
        if let Some(rank) =
            rank_from_residues_blocked(field, rows, cols, residues, iomodel::panel_width())
        {
            return rank;
        }
    }
    rank_from_residues_scalar(field, rows, cols, residues)
}

/// The scalar forward-elimination rank behind [`rank_from_residues`] —
/// also the oracle the blocked kernel is property-tested against.
pub fn rank_from_residues_scalar(
    field: &MontgomeryField,
    rows: usize,
    cols: usize,
    residues: &[u64],
) -> usize {
    assert_eq!(residues.len(), rows * cols, "residue buffer shape mismatch");
    if rows == 0 || cols == 0 {
        return 0;
    }
    let mut words = 0u64;
    let mut a = residues.to_vec();
    let idx = |r: usize, c: usize| r * cols + c;
    let mut rank = 0usize;
    for col in 0..cols {
        let Some(p_row) = (rank..rows).find(|&r| !field.is_zero(a[idx(r, col)])) else {
            continue;
        };
        words += ((3 * (rows - rank - 1) + 1) * (cols - col)) as u64;
        if p_row != rank {
            for j in col..cols {
                a.swap(idx(p_row, j), idx(rank, j));
            }
        }
        let inv = field
            .inv(a[idx(rank, col)])
            .expect("nonzero pivot in a prime field");
        for r in rank + 1..rows {
            if field.is_zero(a[idx(r, col)]) {
                continue;
            }
            let factor = field.mul(a[idx(r, col)], inv);
            let (k_base, r_base) = (idx(rank, 0), idx(r, 0));
            for j in col..cols {
                a[r_base + j] = field.sub_mul(a[r_base + j], factor, a[k_base + j]);
            }
        }
        rank += 1;
        if rank == rows {
            break;
        }
    }
    flush_scalar_words(iomodel::Kernel::Rank, rows.min(cols), words);
    rank
}

// ---------------------------------------------------------------------
// Blocked (communication-avoiding) kernels.
//
// LAPACK-shaped right-looking elimination: factor a `b`-column panel
// with partial pivoting (multipliers stored in place of the zeros they
// create), finalize the panel pivot-row tails triangularly, then apply
// the rank-`b` trailing update `C ← C − F·P` as a GEMM swept in
// `b`-column tiles so the working set (one factor band, one pivot tile,
// one output band) fits the modelled fast memory. The GEMM inner loop
// retires four multiply–adds per REDC on the `[0, 2p)` lazy window —
// legal because dispatch requires `p <` [`GROUPED_REDC_MAX_MODULUS`].
//
// RREF/rank/det mod p are unique, so the blocked kernels must (and do)
// agree exactly with the scalar sweeps above; the proptests sweep tile
// widths against them.
// ---------------------------------------------------------------------

/// Number of output rows a GEMM register band carries: four rows share
/// each strided pivot-tile load, which is the instruction-level
/// parallelism that makes the blocked kernel beat the scalar sweep.
const GEMM_ROWS: usize = 4;

/// Does this modulus/shape qualify for the blocked path? Small shapes
/// stay scalar (and unmetered) so enumeration hot loops never pay panel
/// bookkeeping or registry traffic.
#[inline]
fn blocked_eligible(field: &MontgomeryField, rows: usize, cols: usize) -> bool {
    field.modulus() < GROUPED_REDC_MAX_MODULUS && rows.min(cols) >= iomodel::METER_MIN_DIM
}

/// Flush a scalar kernel's locally accumulated Hong–Kung words, if the
/// shape is kernel-scale (one registry touch; sub-threshold shapes skip
/// the meter entirely).
fn flush_scalar_words(kernel: iomodel::Kernel, min_dim: usize, words: u64) {
    if min_dim >= iomodel::METER_MIN_DIM {
        let mut io = iomodel::IoMeter::new(kernel);
        io.add(words);
        io.flush(false);
    }
}

/// Montgomery's batch-inversion trick over lazy residues: replaces the
/// `k ≤ 16` nonzero values in `v` by their field inverses using a single
/// modular inversion and `3(k−1)` multiplications. This is what makes
/// the blocked panels cheap: a scalar sweep pays one ~400ns extended-GCD
/// inversion per pivot, a panel pays one per `bw` pivots.
fn batch_invert(field: &MontgomeryField, v: &mut [u64]) {
    let k = v.len();
    if k == 0 {
        return;
    }
    debug_assert!(k <= 16);
    let mut prefix = [0u64; 16];
    let mut acc = v[0];
    prefix[0] = acc;
    for i in 1..k {
        acc = field.mul(acc, v[i]);
        prefix[i] = acc;
    }
    let mut inv_acc = field.inv(acc).expect("nonzero values in a prime field");
    for i in (1..k).rev() {
        let inv_i = field.mul(inv_acc, prefix[i - 1]);
        inv_acc = field.mul(inv_acc, v[i]);
        v[i] = inv_i;
    }
    v[0] = inv_acc;
}

/// What the blocked forward pass leaves behind on success (full column
/// rank over the leading `min(rows, cols)` columns).
struct BlockedForward {
    /// Product of pivots, Montgomery form (the determinant up to sign).
    det: u64,
    /// Row-swap parity.
    negate: bool,
    /// Montgomery inverses of the pivots, in pivot order — reused by the
    /// RREF normalization pass.
    pivot_invs: Vec<u64>,
}

/// Blocked forward elimination with partial pivoting, in place over the
/// lazy residues of an `rows × cols` matrix. On return the leading
/// `d = min(rows, cols)` columns are upper-trapezoidal (multiplier
/// scratch zeroed). Returns `None` the moment a column has no pivot —
/// rank-deficient input; callers either report det 0 (square) or fall
/// back to the scalar sweep.
fn blocked_forward(
    field: &MontgomeryField,
    rows: usize,
    cols: usize,
    a: &mut [u64],
    panel: usize,
    io: &mut iomodel::IoMeter,
) -> Option<BlockedForward> {
    let d = rows.min(cols);
    let mut det = field.one();
    let mut negate = false;
    let mut pivot_invs = Vec::with_capacity(d);
    let mut c0 = 0usize;
    while c0 < d {
        let c1 = (c0 + panel).min(d);
        let bw = c1 - c0;
        // Panel factorization: columns c0..c1 over rows c0..rows,
        // left-looking and **division-free** — every entry carries a known
        // unit scale (a product of the panel's scaled pivots), so each
        // column catches up on the panel columns already factored via
        // grouped-REDC dots on the raw scaled values, and the whole panel
        // needs exactly ONE modular inversion (batched, at panel end) to
        // recover true multipliers, pivots and U tails. Scale ledger: a
        // subdiagonal entry at panel column s carries S_s = Π_{c<s} p̃_c,
        // pivot row t carries S_t across its tail, and the catch-up for a
        // row needing the first m updates is
        //   ã[x][col] = S_m·orig − Σ_{s<m} T_s·ã[s][col]·ã[x][s],
        // with T_s = S_m / (p̃_s·S_s) folded into the negated weight
        // vector incrementally as the sweep passes each pivot row.
        let twop = 2 * field.modulus();
        // Lazy negation: stays strictly below 2p (0 maps to 0, not 2p).
        let negl = |v: u64| if v == 0 { 0 } else { twop - v };
        let mut sp = [0u64; 16]; // scaled pivots p̃_t
        let mut s_pref = [0u64; 17]; // S_t = Π_{c<t} p̃_c (Montgomery form)
        s_pref[0] = field.one();
        for col in c0..c1 {
            let k = col - c0;
            if k > 0 {
                let mut fbuf = [0u64; 16];
                // wbuf[0] pairs with the original entry (prefactor S_m);
                // wbuf[1..=m] hold −T_s·ã[s][col] for the panel's pivot
                // rows, rescaled and extended as the sweep passes them.
                let mut wbuf = [0u64; 16];
                wbuf[0] = s_pref[1];
                wbuf[1] = negl(a[c0 * cols + col]);
                for x in c0 + 1..rows {
                    let m = (x - c0).min(k);
                    fbuf[0] = a[x * cols + col];
                    fbuf[1..=m].copy_from_slice(&a[x * cols + c0..x * cols + c0 + m]);
                    let v = dot_grouped_dyn(field, &fbuf, &wbuf, m + 1);
                    a[x * cols + col] = v;
                    if m < k {
                        // Passed pivot row x: every T_s gains a p̃_m
                        // factor and the row's own finalized entry joins
                        // the weights (its T is the empty product).
                        for w in wbuf.iter_mut().take(m + 1).skip(1) {
                            *w = field.mul(*w, sp[m]);
                        }
                        wbuf[m + 1] = negl(v);
                        wbuf[0] = s_pref[m + 1];
                    }
                }
            }
            let p_row = (col..rows).find(|&r| !field.is_zero(a[r * cols + col]))?;
            if p_row != col {
                // Columns left of c0 are already zero in both rows; the
                // swap must carry this panel's raw scaled multipliers
                // (the pending updates they encode travel with the row,
                // and any two rows ≥ col have identical scale structure).
                for j in c0..cols {
                    a.swap(p_row * cols + j, col * cols + j);
                }
                negate = !negate;
            }
            sp[k] = a[col * cols + col];
            s_pref[k + 1] = field.mul(s_pref[k], sp[k]);
        }
        // Panel fix-up: one batched inversion recovers every pivot
        // inverse, then true multipliers f = ã·p̃⁻¹ (the row scales
        // cancel), true pivots p = p̃·S⁻¹, and unscaled pivot-row tails.
        let mut ip = [0u64; 16];
        ip[..bw].copy_from_slice(&sp[..bw]);
        batch_invert(field, &mut ip[..bw]);
        let mut inv_s = field.one();
        for t in 0..bw {
            let colt = c0 + t;
            let p_true = field.mul(sp[t], inv_s);
            det = field.mul(det, p_true);
            pivot_invs.push(field.mul(ip[t], s_pref[t]));
            for r in colt + 1..rows {
                let v = a[r * cols + colt];
                a[r * cols + colt] = if field.is_zero(v) {
                    0
                } else {
                    field.mul(v, ip[t])
                };
            }
            a[colt * cols + colt] = p_true;
            for j in colt + 1..c1 {
                a[colt * cols + j] = field.mul(a[colt * cols + j], inv_s);
            }
            inv_s = field.mul(inv_s, ip[t]);
        }
        // Panel traffic: the (rows−c0)×bw panel streams through fast
        // memory once, read and written.
        io.add((2 * (rows - c0) * bw) as u64);
        if c1 < cols {
            // Triangular finalize: each panel pivot-row tail takes the
            // updates from the pivot rows above it (row s is final before
            // any row t > s reads it).
            for t in c0 + 1..c1 {
                for s in c0..t {
                    let f = a[t * cols + s];
                    if field.is_zero(f) {
                        continue;
                    }
                    let (s_base, t_base) = (s * cols, t * cols);
                    for j in c1..cols {
                        a[t_base + j] = field.sub_mul(a[t_base + j], f, a[s_base + j]);
                    }
                    io.add((3 * (cols - c1)) as u64);
                }
            }
            // Trailing update: rows below the panel, columns after it.
            gemm_update(field, a, cols, c0, bw, c1, rows, c1, cols, io);
        }
        // The multiplier scratch is not part of the echelon result.
        for r in c0 + 1..rows {
            for s in c0..c1.min(r) {
                a[r * cols + s] = 0;
            }
        }
        c0 = c1;
    }
    Some(BlockedForward {
        det,
        negate,
        pivot_invs,
    })
}

/// Rank-`bw` GEMM update `row_r[j0..j1] −= Σ_t a[r][pr0+t] · a[pr0+t][j0..j1]`
/// for target rows `r0..r1` (which must not intersect the pivot rows
/// `pr0..pr0+bw`), swept in `bw`-wide column tiles with four-row register
/// bands and grouped REDC. Used by the forward pass (targets below the
/// panel) and the RREF back-pass (targets above it).
#[allow(clippy::too_many_arguments)]
fn gemm_update(
    field: &MontgomeryField,
    a: &mut [u64],
    cols: usize,
    pr0: usize,
    bw: usize,
    r0: usize,
    r1: usize,
    j0: usize,
    j1: usize,
    io: &mut iomodel::IoMeter,
) {
    if r0 >= r1 || j0 >= j1 || bw == 0 {
        return;
    }
    debug_assert!(r1 <= pr0 || r0 >= pr0 + bw, "targets alias pivot rows");
    let (tgt, piv, tgt_row0): (&mut [u64], &[u64], usize) = if r0 >= pr0 + bw {
        let (lo, hi) = a.split_at_mut(r0 * cols);
        (hi, &lo[pr0 * cols..(pr0 + bw) * cols], r0)
    } else {
        let (lo, hi) = a.split_at_mut(pr0 * cols);
        (lo, &hi[..bw * cols], 0)
    };
    let mut bands: Vec<&mut [u64]> = tgt[(r0 - tgt_row0) * cols..(r1 - tgt_row0) * cols]
        .chunks_exact_mut(cols)
        .collect();
    // Monomorphize on the panel width so the grouped-REDC inner loops
    // fully unroll (constant trip counts) — worth ~10% at n = 32.
    macro_rules! tiles {
        ($($n:literal)+) => {
            match bw {
                $($n => gemm_tiles::<$n>(field, &mut bands, piv, cols, pr0, j0, j1, io),)+
                _ => unreachable!("panel width is 1..=16"),
            }
        };
    }
    tiles!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16);
}

/// The tile/band sweep of [`gemm_update`] for one (constant) panel
/// width.
#[allow(clippy::too_many_arguments)]
fn gemm_tiles<const BW: usize>(
    field: &MontgomeryField,
    bands: &mut [&mut [u64]],
    piv: &[u64],
    cols: usize,
    pr0: usize,
    j0: usize,
    j1: usize,
    io: &mut iomodel::IoMeter,
) {
    // Column tile of 2·BW: the working set (BW×2BW pivot tile + a
    // four-row factor band and output band, 2b² + 12b words) still fits
    // the modelled fast memory the panel width was derived from (3b²),
    // and the wider sweep halves the per-tile loop overhead.
    let tile = (2 * BW).max(GEMM_ROWS);
    let mut t0 = j0;
    while t0 < j1 {
        let t1 = (t0 + tile).min(j1);
        // Pivot tile resident for the whole band sweep.
        io.add((BW * (t1 - t0)) as u64);
        for band in bands.chunks_mut(GEMM_ROWS) {
            // Factor band in, output band read+written.
            io.add((band.len() * BW + 2 * band.len() * (t1 - t0)) as u64);
            match band {
                [w, x, y, z] => gemm_band4::<BW>(
                    field,
                    [&mut **w, &mut **x, &mut **y, &mut **z],
                    piv,
                    cols,
                    pr0,
                    t0,
                    t1,
                ),
                _ => {
                    for row in band.iter_mut() {
                        gemm_band1::<BW>(field, row, piv, cols, pr0, t0, t1);
                    }
                }
            }
        }
        t0 = t1;
    }
}

/// Runtime-length variant of [`dot_grouped`] for the triangular
/// finalize, whose dot lengths (`1..panel`) vary per row.
#[inline(always)]
fn dot_grouped_dyn(field: &MontgomeryField, f: &[u64; 16], s: &[u64; 16], k: usize) -> u64 {
    let mut acc = 0u64;
    let mut t = 0;
    while t + 4 <= k {
        let sum = f[t] as u128 * s[t] as u128
            + f[t + 1] as u128 * s[t + 1] as u128
            + f[t + 2] as u128 * s[t + 2] as u128
            + f[t + 3] as u128 * s[t + 3] as u128;
        acc = field.add(acc, field.redc_sum(sum));
        t += 4;
    }
    if t < k {
        let mut sum = 0u128;
        for u in t..k {
            sum += f[u] as u128 * s[u] as u128;
        }
        acc = field.add(acc, field.redc_sum(sum));
    }
    acc
}

/// Grouped-REDC dot product of two `BW`-element vectors (lazy residues):
/// four products per `u128` accumulator, one REDC each. Safe because
/// `4·(2p)² < p·2^64` for `p <` [`GROUPED_REDC_MAX_MODULUS`].
#[inline(always)]
fn dot_grouped<const BW: usize>(field: &MontgomeryField, f: &[u64; BW], s: &[u64; BW]) -> u64 {
    let mut acc = 0u64;
    let mut t = 0;
    while t + 4 <= BW {
        let sum = f[t] as u128 * s[t] as u128
            + f[t + 1] as u128 * s[t + 1] as u128
            + f[t + 2] as u128 * s[t + 2] as u128
            + f[t + 3] as u128 * s[t + 3] as u128;
        acc = field.add(acc, field.redc_sum(sum));
        t += 4;
    }
    if t < BW {
        let mut sum = 0u128;
        for u in t..BW {
            sum += f[u] as u128 * s[u] as u128;
        }
        acc = field.add(acc, field.redc_sum(sum));
    }
    acc
}

/// Four-row GEMM register band over one column tile: the strided pivot
/// loads `a[pr0+t][j]` are shared by all four output rows.
#[inline(always)]
fn gemm_band4<const BW: usize>(
    field: &MontgomeryField,
    rows4: [&mut [u64]; 4],
    piv: &[u64],
    cols: usize,
    pr0: usize,
    j0: usize,
    j1: usize,
) {
    let mut f = [[0u64; BW]; 4];
    for (fk, row) in f.iter_mut().zip(rows4.iter()) {
        fk.copy_from_slice(&row[pr0..pr0 + BW]);
    }
    let [w, x, y, z] = rows4;
    for j in j0..j1 {
        let mut pv = [0u64; BW];
        for (t, p) in pv.iter_mut().enumerate() {
            *p = piv[t * cols + j];
        }
        let a0 = dot_grouped::<BW>(field, &f[0], &pv);
        let a1 = dot_grouped::<BW>(field, &f[1], &pv);
        let a2 = dot_grouped::<BW>(field, &f[2], &pv);
        let a3 = dot_grouped::<BW>(field, &f[3], &pv);
        w[j] = field.sub(w[j], a0);
        x[j] = field.sub(x[j], a1);
        y[j] = field.sub(y[j], a2);
        z[j] = field.sub(z[j], a3);
    }
}

/// Single-row tail of [`gemm_band4`] (bands of fewer than four rows).
#[inline(always)]
fn gemm_band1<const BW: usize>(
    field: &MontgomeryField,
    row: &mut [u64],
    piv: &[u64],
    cols: usize,
    pr0: usize,
    j0: usize,
    j1: usize,
) {
    let mut f = [0u64; BW];
    f.copy_from_slice(&row[pr0..pr0 + BW]);
    for j in j0..j1 {
        let mut pv = [0u64; BW];
        for (t, p) in pv.iter_mut().enumerate() {
            *p = piv[t * cols + j];
        }
        let acc = dot_grouped::<BW>(field, &f, &pv);
        row[j] = field.sub(row[j], acc);
    }
}

/// Assert a panel width the blocked kernels can take: `1..=16` (the
/// register bands are 16-wide) and a grouped-REDC-safe modulus.
fn assert_blocked_params(field: &MontgomeryField, panel: usize) {
    assert!(
        (1..=16).contains(&panel),
        "blocked panel width must be in 1..=16"
    );
    assert!(
        field.modulus() < GROUPED_REDC_MAX_MODULUS,
        "blocked kernels need p < 2^60 (grouped REDC)"
    );
}

/// [`det_from_residues`] through the blocked kernel with an explicit
/// panel width — exposed for the tile-sweep proptests and the E19 bench;
/// production dispatch uses [`crate::iomodel::panel_width`]. Handles
/// every input (a pivotless column means determinant 0), so it never
/// needs the scalar fallback. Requires `p <` [`GROUPED_REDC_MAX_MODULUS`].
pub fn det_from_residues_blocked(
    field: &MontgomeryField,
    n: usize,
    residues: &[u64],
    panel: usize,
) -> u64 {
    assert_eq!(residues.len(), n * n, "residue buffer shape mismatch");
    assert_blocked_params(field, panel);
    if n == 0 {
        return 1 % field.modulus();
    }
    let mut io = iomodel::IoMeter::new(iomodel::Kernel::Det);
    let mut a = residues.to_vec();
    let out = match blocked_forward(field, n, n, &mut a, panel, &mut io) {
        None => 0,
        Some(fw) => {
            let v = field.from_mont(fw.det);
            if fw.negate && v != 0 {
                field.modulus() - v
            } else {
                v
            }
        }
    };
    io.flush(true);
    out
}

/// [`rank_from_residues`] through the blocked kernel with an explicit
/// panel width. Returns `Some(min(rows, cols))` when the forward pass
/// certifies full column rank over the leading square, `None` when it
/// hits a pivotless column (rank-deficient — the caller falls back to
/// the scalar sweep, having spent at most one partial pass).
pub fn rank_from_residues_blocked(
    field: &MontgomeryField,
    rows: usize,
    cols: usize,
    residues: &[u64],
    panel: usize,
) -> Option<usize> {
    assert_eq!(residues.len(), rows * cols, "residue buffer shape mismatch");
    assert_blocked_params(field, panel);
    if rows == 0 || cols == 0 {
        return Some(0);
    }
    let mut io = iomodel::IoMeter::new(iomodel::Kernel::Rank);
    let mut a = residues.to_vec();
    let fw = blocked_forward(field, rows, cols, &mut a, panel, &mut io);
    io.flush(true);
    fw.map(|_| rows.min(cols))
}

/// [`echelon_from_residues`] through the blocked kernel with an explicit
/// panel width: blocked forward pass, pivot-row normalization, then a
/// blockwise Gauss–Jordan back-pass (within-panel triangular elimination
/// plus a grouped-REDC GEMM for the rows above, over the free columns
/// only). Returns `None` on rank-deficient input — the caller falls back
/// to the scalar sweep.
pub fn echelon_from_residues_blocked(
    field: &MontgomeryField,
    rows: usize,
    cols: usize,
    residues: &[u64],
    panel: usize,
) -> Option<ModEchelon> {
    assert_eq!(residues.len(), rows * cols, "residue buffer shape mismatch");
    assert_blocked_params(field, panel);
    if rows == 0 || cols == 0 {
        return None; // trivial shapes: let the scalar path handle them
    }
    let mut io = iomodel::IoMeter::new(iomodel::Kernel::Rref);
    let mut a = residues.to_vec();
    let Some(fw) = blocked_forward(field, rows, cols, &mut a, panel, &mut io) else {
        io.flush(true);
        return None;
    };
    let d = rows.min(cols);
    // Normalize the pivot rows (the forward pass keeps pivots raw so the
    // trailing updates need no scaling — normalization is done once).
    for (t, &inv) in fw.pivot_invs.iter().enumerate() {
        let base = t * cols;
        for j in t + 1..cols {
            a[base + j] = field.mul(a[base + j], inv);
        }
        a[base + t] = field.one();
        io.add((2 * (cols - t)) as u64);
    }
    // Back-pass, panels in reverse. Later panels have already cleared
    // their columns in every row above them, so each panel sees final
    // pivot rows below-right of it; only the free columns d..cols carry
    // arithmetic (for a full-rank square matrix there are none and the
    // back-pass is pure zeroing).
    let mut c1 = d;
    while c1 > 0 {
        let c0 = c1.saturating_sub(panel);
        // Within-panel: eliminate the upper-triangular block, bottom row
        // of the triangle first so every subtrahend row is final.
        for t in (c0..c1.saturating_sub(1)).rev() {
            for u in t + 1..c1 {
                let f = a[t * cols + u];
                a[t * cols + u] = 0;
                if field.is_zero(f) {
                    continue;
                }
                let (t_base, u_base) = (t * cols, u * cols);
                for j in d..cols {
                    a[t_base + j] = field.sub_mul(a[t_base + j], f, a[u_base + j]);
                }
                io.add((3 * (cols - d) + 2) as u64);
            }
        }
        // Rows above the panel: factors are the entries in the panel's
        // pivot columns; clearing them is the GEMM plus a zero fill.
        gemm_update(field, &mut a, cols, c0, c1 - c0, 0, c0, d, cols, &mut io);
        for r in 0..c0 {
            for u in c0..c1 {
                a[r * cols + u] = 0;
            }
        }
        io.add((2 * c0 * (c1 - c0)) as u64);
        c1 = c0;
    }
    io.flush(true);
    let det = if rows == cols {
        let v = field.from_mont(fw.det);
        Some(if fw.negate && v != 0 {
            field.modulus() - v
        } else {
            v
        })
    } else {
        None
    };
    let rref = Matrix::from_vec(
        rows,
        cols,
        a.into_iter().map(|v| field.from_mont(v)).collect(),
    );
    Some(ModEchelon {
        p: field.modulus(),
        rref,
        pivot_cols: (0..d).collect(),
        det,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gauss;
    use crate::matrix::int_matrix;
    use crate::ring::{PrimeField, Ring};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn field_ops_match_prime_field() {
        let p = 1_000_000_007u64;
        let mont = MontgomeryField::new(p);
        let naive = PrimeField::new(p);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..500 {
            let a = rng.gen_range(0..p);
            let b = rng.gen_range(0..p);
            let (am, bm) = (mont.to_mont(a), mont.to_mont(b));
            assert_eq!(mont.from_mont(mont.mul(am, bm)), naive.mul(&a, &b));
            assert_eq!(mont.from_mont(mont.add(am, bm)), naive.add(&a, &b));
            assert_eq!(mont.from_mont(mont.sub(am, bm)), naive.sub(&a, &b));
            assert_eq!(mont.from_mont(am), a);
        }
        for a in 1..200u64 {
            let inv = mont.inv(mont.to_mont(a)).unwrap();
            assert_eq!(mont.from_mont(mont.mul(mont.to_mont(a), inv)), 1);
        }
        assert_eq!(mont.inv(0), None);
        assert_eq!(mont.inv(p), None, "lazy p is also zero");
    }

    #[test]
    fn largest_supported_prime() {
        // Largest prime below 2^62: stresses the lazy-window bound.
        let p = ccmx_bigint::prime::next_prime((1 << 61) + (1 << 60));
        assert!(p < MAX_MODULUS);
        let mont = MontgomeryField::new(p);
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..200 {
            let a = rng.gen_range(0..p);
            let b = rng.gen_range(0..p);
            let expect = ((a as u128 * b as u128) % p as u128) as u64;
            assert_eq!(
                mont.from_mont(mont.mul(mont.to_mont(a), mont.to_mont(b))),
                expect
            );
        }
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn rejects_even_modulus() {
        let _ = MontgomeryField::new(1 << 20);
    }

    #[test]
    #[should_panic(expected = "2^62")]
    fn rejects_oversized_modulus() {
        let _ = MontgomeryField::new(ccmx_bigint::prime::next_prime(1 << 62));
    }

    #[test]
    fn det_matches_generic_gauss() {
        let mut rng = StdRng::seed_from_u64(11);
        for p in [
            5u64,
            97,
            1_000_000_007,
            ccmx_bigint::prime::next_prime(1 << 61),
        ] {
            for n in 0..=6usize {
                let m = Matrix::from_fn(n, n, |_, _| Integer::from(rng.gen_range(-50i64..=50)));
                let naive = PrimeField::new(p);
                let reduced = m.map(|e| naive.reduce(e));
                let expect = gauss::det(&naive, &reduced);
                assert_eq!(det_mod(&m, p), expect, "det mismatch p={p} n={n}");
            }
        }
    }

    #[test]
    fn rank_and_rref_match_generic_gauss() {
        let mut rng = StdRng::seed_from_u64(12);
        for p in [5u64, 97, 1_000_000_007] {
            for _ in 0..20 {
                let rows = rng.gen_range(1..=6);
                let cols = rng.gen_range(1..=6);
                let m =
                    Matrix::from_fn(rows, cols, |_, _| Integer::from(rng.gen_range(-10i64..=10)));
                let naive = PrimeField::new(p);
                let reduced = m.map(|e| naive.reduce(e));
                let expect = gauss::echelon(&naive, &reduced);
                let got = echelon_mod(&m, p);
                assert_eq!(got.rank(), expect.rank(), "rank mismatch p={p}");
                assert_eq!(got.pivot_cols, expect.pivot_cols);
                assert_eq!(got.rref, expect.rref, "rref mismatch p={p}");
                assert_eq!(rank_mod(&m, p), expect.rank());
            }
        }
    }

    #[test]
    fn singular_and_empty_edge_cases() {
        let sing = int_matrix(&[&[1, 2], &[2, 4]]);
        assert_eq!(det_mod(&sing, 1_000_000_007), 0);
        assert_eq!(rank_mod(&sing, 1_000_000_007), 1);
        let empty = Matrix::from_fn(0, 0, |_, _| Integer::zero());
        assert_eq!(det_mod(&empty, 97), 1);
        assert_eq!(rank_mod(&empty, 97), 0);
        let e = echelon_mod(&empty, 97);
        assert_eq!(e.rank(), 0);
        assert_eq!(e.det, Some(1));
    }

    #[test]
    fn det_sign_through_row_swaps() {
        // [[0,1],[1,0]] has det -1 ≡ p-1.
        let m = int_matrix(&[&[0, 1], &[1, 0]]);
        for p in [5u64, 1_000_000_007] {
            assert_eq!(det_mod(&m, p), p - 1);
            assert_eq!(echelon_mod(&m, p).det, Some(p - 1));
        }
    }

    /// Random lazy residues (canonical values, converted) for a p-field.
    fn random_residues(field: &MontgomeryField, rows: usize, cols: usize, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..rows * cols)
            .map(|_| field.to_mont(rng.gen_range(0..field.modulus())))
            .collect()
    }

    #[test]
    fn blocked_det_matches_scalar_across_panels() {
        let p = ccmx_bigint::prime::next_prime(1 << 59);
        let field = MontgomeryField::new(p);
        for n in [16usize, 17, 23, 32, 37] {
            let a = random_residues(&field, n, n, 100 + n as u64);
            let expect = det_from_residues_scalar(&field, n, &a);
            for panel in [1usize, 3, 4, 5, 8, 16] {
                assert_eq!(
                    det_from_residues_blocked(&field, n, &a, panel),
                    expect,
                    "n={n} panel={panel}"
                );
            }
            assert_eq!(det_from_residues(&field, n, &a), expect, "dispatch n={n}");
        }
    }

    #[test]
    fn blocked_kernels_small_prime_swaps_and_deficiency() {
        // p = 97 forces frequent zero entries, row swaps and genuine
        // rank deficiency at n = 20.
        let field = MontgomeryField::new(97);
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..30 {
            let n = 16 + (trial % 5);
            let a: Vec<u64> = (0..n * n)
                .map(|_| field.to_mont(rng.gen_range(0..8) % 97))
                .collect();
            let expect = det_from_residues_scalar(&field, n, &a);
            for panel in [4usize, 8] {
                assert_eq!(
                    det_from_residues_blocked(&field, n, &a, panel),
                    expect,
                    "trial={trial} panel={panel}"
                );
            }
            let rank = rank_from_residues_scalar(&field, n, n, &a);
            match rank_from_residues_blocked(&field, n, n, &a, 8) {
                Some(r) => assert_eq!(r, rank, "full-rank certificate trial={trial}"),
                None => assert!(rank < n, "blocked bailed on full-rank input trial={trial}"),
            }
            assert_eq!(rank_from_residues(&field, n, n, &a), rank);
        }
    }

    #[test]
    fn blocked_echelon_matches_scalar() {
        let p = ccmx_bigint::prime::next_prime(1 << 59);
        let field = MontgomeryField::new(p);
        for (rows, cols) in [(16usize, 16usize), (17, 29), (29, 17), (32, 32), (20, 45)] {
            let a = random_residues(&field, rows, cols, 500 + (rows * cols) as u64);
            let expect = echelon_from_residues_scalar(&field, rows, cols, &a);
            for panel in [3usize, 4, 8, 16] {
                let got = echelon_from_residues_blocked(&field, rows, cols, &a, panel)
                    .expect("random wide/square matrices are full-rank whp");
                assert_eq!(got.rref, expect.rref, "{rows}x{cols} panel={panel}");
                assert_eq!(got.pivot_cols, expect.pivot_cols);
                assert_eq!(got.det, expect.det);
            }
            let via_dispatch = echelon_from_residues(&field, rows, cols, &a);
            assert_eq!(via_dispatch.rref, expect.rref);
        }
    }

    #[test]
    fn blocked_meter_reports_words() {
        let p = ccmx_bigint::prime::next_prime(1 << 59);
        let field = MontgomeryField::new(p);
        let n = 32;
        let a = random_residues(&field, n, n, 9001);
        let (w0, c0) = iomodel::thread_kernel_stats(iomodel::Kernel::Det, true);
        let _ = det_from_residues_blocked(&field, n, &a, 8);
        let (w1, c1) = iomodel::thread_kernel_stats(iomodel::Kernel::Det, true);
        assert_eq!(c1 - c0, 1, "one blocked det call");
        let moved = w1 - w0;
        assert!(moved > 0, "meter must move words");
        // Within a constant factor of the Hong–Kung scale n³/√M for the
        // panel width 8 working set (3·8² = 192 words).
        let bound = (n as f64).powi(3) / (192f64).sqrt();
        let ratio = moved as f64 / bound;
        assert!(
            ratio > 0.5 && ratio < 20.0,
            "words {moved} vs bound {bound}: ratio {ratio}"
        );
    }

    #[test]
    fn scalar_meter_reports_words_at_kernel_scale() {
        let p = ccmx_bigint::prime::next_prime(1 << 59);
        let field = MontgomeryField::new(p);
        let n = 24;
        let a = random_residues(&field, n, n, 42);
        let (w0, _) = iomodel::thread_kernel_stats(iomodel::Kernel::Det, false);
        let _ = det_from_residues_scalar(&field, n, &a);
        let (w1, _) = iomodel::thread_kernel_stats(iomodel::Kernel::Det, false);
        assert!(w1 - w0 >= (n * n) as u64, "scalar path meters its sweep");
        // Sub-threshold shapes stay unmetered.
        let small = random_residues(&field, 4, 4, 43);
        let (s0, _) = iomodel::thread_kernel_stats(iomodel::Kernel::Det, false);
        let _ = det_from_residues_scalar(&field, 4, &small);
        let (s1, _) = iomodel::thread_kernel_stats(iomodel::Kernel::Det, false);
        assert_eq!(s1, s0, "small shapes skip the meter");
    }
}
