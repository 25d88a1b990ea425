//! Fraction-free (Bareiss) elimination over the integers.
//!
//! Bareiss' algorithm performs Gaussian elimination on an integer matrix
//! using only exact integer divisions, keeping every intermediate entry a
//! *minor* of the input — so entry sizes stay polynomial in `n·k` instead
//! of exploding the way naive fraction arithmetic does. This is the exact
//! ground-truth singularity test of the reproduction: `det(M) = 0` decides
//! the paper's central predicate.
//!
//! Experiment E14 (`BENCH_e14.json`) times this against rational
//! elimination (`gauss` over [`crate::ring::RationalField`]) and against
//! CRT-modular determinants ([`crate::modular`]).

use ccmx_bigint::Integer;

use crate::matrix::Matrix;

/// Result of a Bareiss elimination sweep.
#[derive(Clone, Debug)]
pub struct BareissResult {
    /// The determinant (exact), if the input was square.
    pub det: Option<Integer>,
    /// The rank of the input.
    pub rank: usize,
}

/// Run fraction-free elimination, returning determinant (for square
/// inputs) and rank.
pub fn bareiss(m: &Matrix<Integer>) -> BareissResult {
    let mut a = m.clone();
    let (rows, cols) = (a.rows(), a.cols());
    let mut sign = 1i64;
    let mut prev_pivot = Integer::one();
    let mut pivot_row = 0usize;
    let mut last_pivot = Integer::one();

    for col in 0..cols {
        if pivot_row == rows {
            break;
        }
        // Find a pivot.
        let Some(p) = (pivot_row..rows).find(|&r| !a[(r, col)].is_zero()) else {
            continue;
        };
        if p != pivot_row {
            a.swap_rows(p, pivot_row);
            sign = -sign;
        }
        let pivot = a[(pivot_row, col)].clone();
        // Fraction-free update of all rows below:
        // a[r][j] = (pivot * a[r][j] - a[r][col] * a[pr][j]) / prev_pivot
        for r in (pivot_row + 1)..rows {
            let factor = a[(r, col)].clone();
            let (target, source) = a.two_rows_mut(r, pivot_row);
            for j in (col + 1)..cols {
                let num = &(&pivot * &target[j]) - &(&factor * &source[j]);
                let (q, rem) = num.div_rem(&prev_pivot);
                debug_assert!(rem.is_zero(), "Bareiss division must be exact");
                target[j] = q;
            }
            target[col] = Integer::zero();
        }
        prev_pivot = pivot.clone();
        last_pivot = pivot;
        pivot_row += 1;
    }

    let rank = pivot_row;
    let det = if rows == cols {
        Some(if rank < rows {
            Integer::zero()
        } else if sign < 0 {
            -last_pivot
        } else {
            last_pivot
        })
    } else {
        None
    };
    BareissResult { det, rank }
}

/// Exact determinant of a square integer matrix.
///
/// ```
/// use ccmx_linalg::{bareiss, matrix::int_matrix};
/// let m = int_matrix(&[&[1, 2], &[3, 4]]);
/// assert_eq!(bareiss::det(&m).to_i64(), Some(-2));
/// ```
pub fn det(m: &Matrix<Integer>) -> Integer {
    assert!(m.is_square(), "determinant of non-square matrix");
    bareiss(m).det.expect("square input")
}

/// Exact rank of an integer matrix (over ℚ).
pub fn rank(m: &Matrix<Integer>) -> usize {
    bareiss(m).rank
}

/// Is the square integer matrix singular? The paper's central predicate.
pub fn is_singular(m: &Matrix<Integer>) -> bool {
    det(m).is_zero()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gauss;
    use crate::matrix::int_matrix;
    use crate::ring::RationalField;
    use ccmx_bigint::Rational;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn dets_match_known_values() {
        assert_eq!(det(&int_matrix(&[&[5]])), Integer::from(5i64));
        assert_eq!(det(&int_matrix(&[&[1, 2], &[3, 4]])), Integer::from(-2i64));
        assert_eq!(
            det(&int_matrix(&[&[6, 1, 1], &[4, -2, 5], &[2, 8, 7]])),
            Integer::from(-306i64)
        );
        assert_eq!(det(&int_matrix(&[&[0, 1], &[1, 0]])), Integer::from(-1i64));
        assert_eq!(det(&int_matrix(&[&[1, 2], &[2, 4]])), Integer::zero());
    }

    #[test]
    fn zero_sized_and_identity() {
        let m = Matrix::from_fn(0, 0, |_, _| Integer::zero());
        assert_eq!(det(&m), Integer::one());
        let i5 = int_matrix(&[
            &[1, 0, 0, 0, 0],
            &[0, 1, 0, 0, 0],
            &[0, 0, 1, 0, 0],
            &[0, 0, 0, 1, 0],
            &[0, 0, 0, 0, 1],
        ]);
        assert_eq!(det(&i5), Integer::one());
        assert_eq!(rank(&i5), 5);
    }

    #[test]
    fn rank_rectangular() {
        assert_eq!(rank(&int_matrix(&[&[1, 2, 3], &[2, 4, 6]])), 1);
        assert_eq!(rank(&int_matrix(&[&[1, 2, 3], &[0, 0, 4]])), 2);
        assert_eq!(rank(&int_matrix(&[&[0, 0], &[0, 0], &[0, 0]])), 0);
    }

    #[test]
    fn agrees_with_rational_elimination_randomized() {
        let mut rng = StdRng::seed_from_u64(42);
        let f = RationalField;
        for n in 1..=6usize {
            for _ in 0..20 {
                let m = Matrix::from_fn(n, n, |_, _| Integer::from(rng.gen_range(-9i64..=9)));
                let over_q = m.map(|e| Rational::from(e.clone()));
                let dq = gauss::det(&f, &over_q);
                assert_eq!(Rational::from(det(&m)), dq, "det mismatch on {m:?}");
                assert_eq!(rank(&m), gauss::rank(&f, &over_q), "rank mismatch on {m:?}");
            }
        }
    }

    #[test]
    fn determinant_multiplicativity() {
        let mut rng = StdRng::seed_from_u64(7);
        let zz = crate::ring::IntegerRing;
        for _ in 0..10 {
            let a = Matrix::from_fn(4, 4, |_, _| Integer::from(rng.gen_range(-5i64..=5)));
            let b = Matrix::from_fn(4, 4, |_, _| Integer::from(rng.gen_range(-5i64..=5)));
            let ab = a.mul(&zz, &b);
            assert_eq!(det(&ab), det(&a) * det(&b));
        }
    }

    #[test]
    fn transpose_invariance() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10 {
            let a = Matrix::from_fn(5, 5, |_, _| Integer::from(rng.gen_range(-5i64..=5)));
            assert_eq!(det(&a), det(&a.transpose()));
        }
    }

    #[test]
    fn large_entry_no_overflow() {
        // Entries around 2^40: det requires > 128-bit intermediates at n=6.
        let mut rng = StdRng::seed_from_u64(11);
        let big = 1i64 << 40;
        let m = Matrix::from_fn(6, 6, |_, _| Integer::from(rng.gen_range(-big..=big)));
        let d = det(&m);
        // Hadamard sanity: |det| <= bound.
        let bound = ccmx_bigint::bounds::hadamard_bound(6, &ccmx_bigint::Natural::from(big as u64));
        assert!(d.magnitude() <= &bound);
        // Cross-check against rational elimination.
        let f = RationalField;
        let over_q = m.map(|e| Rational::from(e.clone()));
        assert_eq!(Rational::from(d), gauss::det(&f, &over_q));
    }

    #[test]
    fn singular_by_construction() {
        // Row 2 = row 0 + row 1.
        let m = int_matrix(&[&[1, 7, 3], &[2, -1, 4], &[3, 6, 7]]);
        assert!(is_singular(&m));
        assert_eq!(rank(&m), 2);
    }
}
