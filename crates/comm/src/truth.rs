//! Exhaustive truth matrices.
//!
//! Fix a function `f` and a partition `π`. Index rows by assignments to
//! A's bits and columns by assignments to B's bits; entry `(x, y)` is
//! `f(x ⋈ y)`. This is the object Yao's lower-bound method reasons about
//! (Section 2 of the paper): communication complexity under `π` is at
//! least `log₂ d(f) − 2`, where `d(f)` is the least number of disjoint
//! monochromatic rectangles partitioning this matrix.
//!
//! Rows are stored as packed `u64` bitsets; enumeration is parallelized
//! over rows with the worker pool from `ccmx-linalg`.

use ccmx_linalg::parallel::par_map;

use crate::bits::BitString;
use crate::functions::BooleanFunction;
use crate::partition::{Owner, Partition};

/// Points evaluated through an [`crate::functions::IncrementalOracle`]
/// cursor (one Gray-code flip each) vs. points evaluated by a fresh
/// full `eval` call, process-wide. The bench smoke gate reads these to
/// prove enumeration actually stayed on the incremental path.
fn incremental_counter() -> &'static ccmx_obs::Counter {
    ccmx_obs::counter!("ccmx_enum_incremental_points_total")
}
fn fresh_counter() -> &'static ccmx_obs::Counter {
    ccmx_obs::counter!("ccmx_enum_fresh_points_total")
}

/// `(incremental_points, fresh_points)` evaluated so far in this process.
///
/// Thin view over the shared [`ccmx_obs`] registry series
/// `ccmx_enum_incremental_points_total` and
/// `ccmx_enum_fresh_points_total`.
pub fn enumeration_stats() -> (u64, u64) {
    (incremental_counter().get(), fresh_counter().get())
}

/// Hard cap on either side's bit count: `2^20` rows/columns.
pub const MAX_SIDE_BITS: usize = 20;
/// Hard cap on the total enumeration work (rows × cols).
pub const MAX_TOTAL_BITS: usize = 26;

/// A fully enumerated truth matrix for `(f, π)`.
#[derive(Clone, PartialEq, Eq)]
pub struct TruthMatrix {
    rows: usize,
    cols: usize,
    /// Each row packed LSB-first into `u64` words.
    data: Vec<Vec<u64>>,
}

impl TruthMatrix {
    /// Enumerate the truth matrix of `f` under `partition`, using
    /// `threads` workers. Panics if the instance exceeds the caps.
    ///
    /// ```
    /// use ccmx_comm::functions::Equality;
    /// use ccmx_comm::protocols::fingerprint::fixed_partition;
    /// use ccmx_comm::truth::TruthMatrix;
    /// let t = TruthMatrix::enumerate(&Equality { half_bits: 3 }, &fixed_partition(3), 1);
    /// assert_eq!((t.rows(), t.cols()), (8, 8));
    /// assert_eq!(t.count_ones(), 8); // the identity matrix
    /// ```
    pub fn enumerate(f: &dyn BooleanFunction, partition: &Partition, threads: usize) -> Self {
        assert_eq!(
            f.num_bits(),
            partition.len(),
            "function/partition size mismatch"
        );
        let a_pos = partition.positions_of(Owner::A);
        let b_pos = partition.positions_of(Owner::B);
        let (na, nb) = (a_pos.len(), b_pos.len());
        assert!(
            na <= MAX_SIDE_BITS && nb <= MAX_SIDE_BITS,
            "side too large to enumerate"
        );
        assert!(
            na + nb <= MAX_TOTAL_BITS,
            "truth matrix too large to enumerate"
        );
        let rows = 1usize << na;
        let cols = 1usize << nb;
        let words = cols.div_ceil(64);
        let inc = f.as_incremental();
        let data = par_map(rows, threads, |x| {
            let mut input = BitString::zeros(partition.len());
            for (i, &pos) in a_pos.iter().enumerate() {
                input.set(pos, (x >> i) & 1 == 1);
            }
            let mut row = vec![0u64; words];
            // Walk B's assignments in Gray-code order: step i flips only
            // bit trailing_zeros(i), so each column costs one `set`
            // instead of nb. The visited code `gray = i ^ (i >> 1)`
            // covers all of 0..cols exactly once; `input` starts at
            // gray = 0 (all B bits zero) which BitString::zeros provides.
            let mut gray = 0usize;
            if let Some(oracle) = inc {
                // Incremental path: each Gray step is a single-bit flip
                // the oracle's cursor absorbs (O(dim²) per prime for
                // singularity vs. a fresh O(dim³) elimination). `input`
                // is still maintained so debug builds can cross-check
                // every cursor verdict against a fresh evaluation.
                let mut cursor = oracle.begin(&input);
                for i in 0..cols {
                    let v = if i == 0 {
                        cursor.value()
                    } else {
                        let j = i.trailing_zeros() as usize;
                        gray ^= 1 << j;
                        input.set(b_pos[j], (gray >> j) & 1 == 1);
                        cursor.flip(b_pos[j])
                    };
                    debug_assert_eq!(
                        v,
                        f.eval(&input),
                        "incremental cursor diverged from eval at row {x}, col {gray}"
                    );
                    if v {
                        row[gray / 64] |= 1u64 << (gray % 64);
                    }
                }
                incremental_counter().add(cols as u64);
            } else {
                for i in 0..cols {
                    if i > 0 {
                        let j = i.trailing_zeros() as usize;
                        gray ^= 1 << j;
                        input.set(b_pos[j], (gray >> j) & 1 == 1);
                    }
                    if f.eval(&input) {
                        row[gray / 64] |= 1u64 << (gray % 64);
                    }
                }
                fresh_counter().add(cols as u64);
            }
            row
        });
        TruthMatrix { rows, cols, data }
    }

    /// Build directly from a closure (tests and synthetic matrices).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> bool) -> Self {
        let words = cols.div_ceil(64);
        let data = (0..rows)
            .map(|x| {
                let mut row = vec![0u64; words];
                for y in 0..cols {
                    if f(x, y) {
                        row[y / 64] |= 1u64 << (y % 64);
                    }
                }
                row
            })
            .collect();
        TruthMatrix { rows, cols, data }
    }

    /// Number of rows (`2^{|A|}`).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (`2^{|B|}`).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Entry `(x, y)`.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> bool {
        (self.data[x][y / 64] >> (y % 64)) & 1 == 1
    }

    /// The packed words of row `x`.
    pub fn row_words(&self, x: usize) -> &[u64] {
        &self.data[x]
    }

    /// Total number of `1` entries.
    pub fn count_ones(&self) -> u64 {
        self.data
            .iter()
            .flatten()
            .map(|w| w.count_ones() as u64)
            .sum()
    }

    /// Number of `1`s in row `x`.
    pub fn row_ones(&self, x: usize) -> u64 {
        self.data[x].iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Number of distinct rows.
    pub fn distinct_rows(&self) -> usize {
        let mut set: std::collections::HashSet<&[u64]> = std::collections::HashSet::new();
        for r in &self.data {
            set.insert(r.as_slice());
        }
        set.len()
    }

    /// Number of distinct columns.
    pub fn distinct_cols(&self) -> usize {
        let mut set = std::collections::HashSet::new();
        for y in 0..self.cols {
            let col: Vec<u64> = {
                let words = self.rows.div_ceil(64);
                let mut col = vec![0u64; words];
                for (x, slot) in (0..self.rows).map(|x| (x, x)) {
                    if self.get(x, y) {
                        col[slot / 64] |= 1u64 << (slot % 64);
                    }
                }
                col
            };
            set.insert(col);
        }
        set.len()
    }

    /// The transpose.
    pub fn transpose(&self) -> TruthMatrix {
        TruthMatrix::from_fn(self.cols, self.rows, |x, y| self.get(y, x))
    }

    /// Remove duplicate rows, then duplicate columns (first occurrence
    /// kept, relative order preserved). A CC-preserving reduction: a
    /// protocol never needs to distinguish two inputs with identical
    /// truth-matrix lines, and rank / fooling-set certificates are
    /// invariant under it — so downstream bound computations shrink to
    /// `distinct_rows × distinct_cols` for free. (Removing duplicate
    /// rows cannot merge two distinct columns — they still differ at
    /// the kept representative — so the result is exactly
    /// [`TruthMatrix::distinct_rows`] × [`TruthMatrix::distinct_cols`].)
    pub fn dedup(&self) -> TruthMatrix {
        let mut seen_rows = std::collections::HashSet::new();
        let keep_rows: Vec<usize> = (0..self.rows)
            .filter(|&x| seen_rows.insert(self.data[x].clone()))
            .collect();
        let mut seen_cols = std::collections::HashSet::new();
        let keep_cols: Vec<usize> = (0..self.cols)
            .filter(|&y| {
                let col: Vec<bool> = keep_rows.iter().map(|&x| self.get(x, y)).collect();
                seen_cols.insert(col)
            })
            .collect();
        TruthMatrix::from_fn(keep_rows.len(), keep_cols.len(), |i, j| {
            self.get(keep_rows[i], keep_cols[j])
        })
    }
}

impl std::fmt::Debug for TruthMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "TruthMatrix {}x{} [", self.rows, self.cols)?;
        let show_r = self.rows.min(16);
        let show_c = self.cols.min(64);
        for x in 0..show_r {
            write!(f, "  ")?;
            for y in 0..show_c {
                write!(f, "{}", if self.get(x, y) { '1' } else { '0' })?;
            }
            writeln!(f, "{}", if self.cols > show_c { "…" } else { "" })?;
        }
        if self.rows > show_r {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::MatrixEncoding;
    use crate::functions::{Equality, Singularity};

    #[test]
    fn equality_truth_matrix_is_identity() {
        let f = Equality { half_bits: 4 };
        let p = crate::protocols::fingerprint::fixed_partition(4);
        let t = TruthMatrix::enumerate(&f, &p, 2);
        assert_eq!((t.rows(), t.cols()), (16, 16));
        for x in 0..16 {
            for y in 0..16 {
                assert_eq!(t.get(x, y), x == y);
            }
        }
        assert_eq!(t.count_ones(), 16);
        assert_eq!(t.distinct_rows(), 16);
        assert_eq!(t.distinct_cols(), 16);
    }

    #[test]
    fn dedup_collapses_to_distinct_lines() {
        // 6x6 built from a 3x3 core with every row and column doubled.
        let core = [
            [true, false, true],
            [false, true, true],
            [true, true, false],
        ];
        let t = TruthMatrix::from_fn(6, 6, |x, y| core[x / 2][y / 2]);
        let d = t.dedup();
        assert_eq!((d.rows(), d.cols()), (t.distinct_rows(), t.distinct_cols()));
        assert_eq!((d.rows(), d.cols()), (3, 3));
        for (x, row) in core.iter().enumerate() {
            for (y, &want) in row.iter().enumerate() {
                assert_eq!(d.get(x, y), want);
            }
        }
        // Already-distinct matrices are untouched; constants collapse to 1x1.
        let id = TruthMatrix::from_fn(4, 4, |x, y| x == y);
        assert_eq!((id.dedup().rows(), id.dedup().cols()), (4, 4));
        let ones = TruthMatrix::from_fn(5, 7, |_, _| true);
        assert_eq!((ones.dedup().rows(), ones.dedup().cols()), (1, 1));
    }

    #[test]
    fn singularity_2x2_k1_truth_matrix() {
        // 2x2 matrices of 1-bit entries under π₀: A holds column 1
        // (entries m11, m21), B column 2. M singular iff det = 0.
        let f = Singularity::new(2, 1);
        let enc = MatrixEncoding::new(2, 1);
        let p = Partition::pi_zero(&enc);
        let t = TruthMatrix::enumerate(&f, &p, 1);
        assert_eq!((t.rows(), t.cols()), (4, 4));
        // Exhaustive cross-check against the evaluator.
        let a_pos = p.positions_of(Owner::A);
        let b_pos = p.positions_of(Owner::B);
        for x in 0..4usize {
            for y in 0..4usize {
                let mut input = BitString::zeros(4);
                for (i, &pos) in a_pos.iter().enumerate() {
                    input.set(pos, (x >> i) & 1 == 1);
                }
                for (i, &pos) in b_pos.iter().enumerate() {
                    input.set(pos, (y >> i) & 1 == 1);
                }
                assert_eq!(t.get(x, y), f.eval(&input));
            }
        }
        // The all-zero matrix is singular: entry (0,0) is 1.
        assert!(t.get(0, 0));
    }

    #[test]
    fn parallel_enumeration_matches_serial() {
        let f = Singularity::new(2, 2);
        let enc = MatrixEncoding::new(2, 2);
        let p = Partition::pi_zero(&enc);
        let serial = TruthMatrix::enumerate(&f, &p, 1);
        let parallel = TruthMatrix::enumerate(&f, &p, 4);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn gray_code_enumeration_equals_naive() {
        // Bit-identical to the straightforward set-every-bit loop, on an
        // asymmetric partition (na ≠ nb) so row/col roles can't be mixed
        // up, for both an order-sensitive function and singularity.
        let f = Singularity::new(2, 2);
        let enc = MatrixEncoding::new(2, 2);
        let p = Partition::pi_zero(&enc);
        let t = TruthMatrix::enumerate(&f, &p, 1);
        let a_pos = p.positions_of(Owner::A);
        let b_pos = p.positions_of(Owner::B);
        let naive = TruthMatrix::from_fn(1 << a_pos.len(), 1 << b_pos.len(), |x, y| {
            let mut input = BitString::zeros(p.len());
            for (i, &pos) in a_pos.iter().enumerate() {
                input.set(pos, (x >> i) & 1 == 1);
            }
            for (i, &pos) in b_pos.iter().enumerate() {
                input.set(pos, (y >> i) & 1 == 1);
            }
            f.eval(&input)
        });
        assert_eq!(t, naive);
    }

    #[test]
    fn transpose_roundtrip() {
        let t = TruthMatrix::from_fn(5, 9, |x, y| (x * y) % 3 == 1);
        let tt = t.transpose().transpose();
        for x in 0..5 {
            for y in 0..9 {
                assert_eq!(t.get(x, y), tt.get(x, y));
            }
        }
    }

    #[test]
    fn enumeration_uses_incremental_path_for_singularity() {
        let (inc_before, _) = enumeration_stats();
        let f = Singularity::new(2, 2);
        let enc = MatrixEncoding::new(2, 2);
        let p = Partition::pi_zero(&enc);
        let t = TruthMatrix::enumerate(&f, &p, 1);
        let (inc_after, _) = enumeration_stats();
        // `>=`: counters are process-wide and other tests enumerate too.
        assert!(
            inc_after - inc_before >= (t.rows() * t.cols()) as u64,
            "every singularity point should go through the cursor"
        );
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn refuses_oversized_instances() {
        let f = Equality { half_bits: 40 };
        let p = crate::protocols::fingerprint::fixed_partition(40);
        let _ = TruthMatrix::enumerate(&f, &p, 1);
    }
}
