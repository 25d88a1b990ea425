//! A cycle-accurate systolic array with bisection metering.
//!
//! The classic `n × n` mesh for matrix multiplication: `A` streams in
//! from the left edge (one skewed diagonal per cycle), `B` from the top;
//! cell `(i, j)` accumulates `C[i][j] = Σ_s A[i][s]·B[s][j]` as the
//! streams pass through, in `3n − 2` cycles.
//!
//! The point of simulating it here: **measure** the number of bits that
//! physically cross the chip's vertical bisection and compare with the
//! communication lower bound. Every `A`-value travels its entire row, so
//! `n²` values (`k` bits each) cross the central cut — the simulator
//! exhibits the `Ω(k n²)` information flow that Thompson's argument says
//! *every* correct chip must route across its bisection, which is what
//! turns Theorem 1.1 into `A·T² = Ω(k²n⁴)`.

use ccmx_linalg::ring::{PrimeField, Ring};
use ccmx_linalg::Matrix;

/// Traffic and timing measured by a simulation run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrafficReport {
    /// Cycles until all outputs are final.
    pub cycles: usize,
    /// Number of values that crossed the central vertical cut.
    pub crossings: usize,
    /// The same in bits (`crossings × bits-per-value`).
    pub bits: u64,
    /// Mesh side (area = side²).
    pub side: usize,
}

impl TrafficReport {
    /// Measured `A·T²` of this run (area × cycles²).
    pub fn at2(&self) -> f64 {
        let a = (self.side * self.side) as f64;
        let t = self.cycles as f64;
        a * t * t
    }
}

/// The systolic matrix-multiplication mesh over GF(p).
pub struct SystolicMatMul {
    field: PrimeField,
    /// Bits accounted per transmitted value.
    pub bits_per_value: u32,
}

impl SystolicMatMul {
    /// Build a mesh simulator over GF(p), accounting `bits_per_value`
    /// bits per transmitted word (use `k` for `k`-bit input entries).
    pub fn new(p: u64, bits_per_value: u32) -> Self {
        SystolicMatMul {
            field: PrimeField::new(p),
            bits_per_value,
        }
    }

    /// Run `C = A·B` on the mesh; returns `(C, report)`.
    ///
    /// ```
    /// use ccmx_linalg::Matrix;
    /// use ccmx_vlsi::SystolicMatMul;
    /// let mesh = SystolicMatMul::new(97, 7);
    /// let a = Matrix::from_vec(2, 2, vec![1u64, 2, 3, 4]);
    /// let b = Matrix::from_vec(2, 2, vec![5u64, 6, 7, 8]);
    /// let (c, report) = mesh.run(&a, &b);
    /// assert_eq!(c, Matrix::from_vec(2, 2, vec![19u64, 22, 43, 50]));
    /// assert_eq!(report.crossings, 4); // every A value crosses the cut
    /// ```
    ///
    /// Feeding schedule (standard skew): at cycle `t`, row `i` receives
    /// `A[i][t − i]` from the left (when `0 ≤ t − i < n`), column `j`
    /// receives `B[t − j][j]` from the top. Values propagate one cell per
    /// cycle; cell `(i, j)` multiplies the pair passing through it.
    pub fn run(&self, a: &Matrix<u64>, b: &Matrix<u64>) -> (Matrix<u64>, TrafficReport) {
        let n = a.rows();
        assert!(a.is_square() && b.is_square(), "mesh is square");
        assert_eq!(b.rows(), n);
        let f = &self.field;
        let cut = n / 2; // between columns cut-1 and cut
        let mut a_reg: Vec<Vec<Option<u64>>> = vec![vec![None; n]; n];
        let mut b_reg: Vec<Vec<Option<u64>>> = vec![vec![None; n]; n];
        let mut c = Matrix::from_fn(n, n, |_, _| 0u64);
        let mut crossings = 0usize;
        let cycles = 3 * n - 2;
        for t in 0..cycles {
            // Shift right / down (process columns right-to-left, rows
            // bottom-to-top so values move exactly one step per cycle).
            for i in 0..n {
                for j in (0..n).rev() {
                    let incoming = if j == 0 {
                        // Left edge feed.
                        t.checked_sub(i).filter(|&s| s < n).map(|s| a[(i, s)])
                    } else {
                        a_reg[i][j - 1]
                    };
                    if j == cut && incoming.is_some() && cut > 0 {
                        crossings += 1;
                    }
                    a_reg[i][j] = incoming;
                }
            }
            for j in 0..n {
                for i in (0..n).rev() {
                    let incoming = if i == 0 {
                        t.checked_sub(j).filter(|&s| s < n).map(|s| b[(s, j)])
                    } else {
                        b_reg[i - 1][j]
                    };
                    b_reg[i][j] = incoming;
                }
            }
            // Multiply-accumulate where both streams are present.
            for i in 0..n {
                for j in 0..n {
                    if let (Some(av), Some(bv)) = (a_reg[i][j], b_reg[i][j]) {
                        let prod = f.mul(&av, &bv);
                        c[(i, j)] = f.add(&c[(i, j)], &prod);
                    }
                }
            }
        }
        let report = TrafficReport {
            cycles,
            crossings,
            bits: crossings as u64 * self.bits_per_value as u64,
            side: n,
        };
        (c, report)
    }

    /// Expected crossings for an `n × n` run: every `A`-value that starts
    /// left of the cut crosses it once — `n · cut` values... all `n²`
    /// values pass every interior cut exactly once *if they are injected
    /// at the left edge*, which they are: `n²` crossings... except values
    /// injected at columns ≥ cut never exist (all injection is at column
    /// 0), so the count is exactly `n²`.
    pub fn expected_crossings(n: usize) -> usize {
        n * n
    }
}

/// A linear systolic array for matrix–vector multiplication — the
/// *contrast* workload: `y = A·x` moves only `Θ(k·n)` bits across the
/// array's bisection (the `x` values), versus `Θ(k·n²)` for the full
/// product mesh. Matvec is communication-cheap; the paper's point is
/// that *decision problems about the whole matrix* are not.
pub struct SystolicMatVec {
    field: PrimeField,
    /// Bits accounted per transmitted value.
    pub bits_per_value: u32,
}

impl SystolicMatVec {
    /// Build over GF(p).
    pub fn new(p: u64, bits_per_value: u32) -> Self {
        SystolicMatVec {
            field: PrimeField::new(p),
            bits_per_value,
        }
    }

    /// Run `y = A·x` on an `n`-cell linear array: cell `j` holds column
    /// `j` of `A`; `x_j` streams left-to-right and is consumed by cell
    /// `j`; partial sums of `y` accumulate in place (one `y` lane flowing
    /// right... here: `y_i` accumulated across cells, which is equivalent
    /// for traffic purposes — we meter the `x` stream crossing the middle).
    pub fn run(&self, a: &Matrix<u64>, x: &[u64]) -> (Vec<u64>, TrafficReport) {
        let n = a.rows();
        assert!(a.is_square());
        assert_eq!(x.len(), n);
        let f = &self.field;
        let cut = n / 2;
        // x_j enters at cell 0 on cycle j and moves one cell per cycle;
        // it is used by every cell it passes (cell i needs x_j for
        // y_i += A[i][j]·x_j? No — cell j owns column j and consumes x_j).
        // Traffic across the cut: x_j crosses iff j's consumer cell is
        // at index >= cut, i.e. n - cut values cross.
        let mut y = vec![0u64; n];
        let mut crossings = 0usize;
        for (j, &xj) in x.iter().enumerate() {
            if j >= cut && cut > 0 {
                crossings += 1; // x_j physically traverses the cut
            }
            for i in 0..n {
                let prod = f.mul(&a[(i, j)], &xj);
                y[i] = f.add(&y[i], &prod);
            }
        }
        let cycles = 2 * n - 1; // pipeline fill + drain
        let report = TrafficReport {
            cycles,
            crossings,
            bits: crossings as u64 * self.bits_per_value as u64,
            side: n, // linear array: area n × 1; `side` records length
        };
        (y, report)
    }

    /// Expected crossings: the `x` values consumed right of the cut.
    pub fn expected_crossings(n: usize) -> usize {
        if n < 2 {
            0
        } else {
            n - n / 2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_mat(n: usize, p: u64, rng: &mut StdRng) -> Matrix<u64> {
        Matrix::from_fn(n, n, |_, _| rng.gen_range(0..p))
    }

    #[test]
    fn computes_correct_products() {
        let mut rng = StdRng::seed_from_u64(81);
        let p = 1009;
        let mesh = SystolicMatMul::new(p, 10);
        let field = PrimeField::new(p);
        for n in [1usize, 2, 3, 5, 8] {
            let a = random_mat(n, p, &mut rng);
            let b = random_mat(n, p, &mut rng);
            let (c, report) = mesh.run(&a, &b);
            assert_eq!(c, a.mul(&field, &b), "systolic product wrong at n={n}");
            assert_eq!(report.cycles, 3 * n - 2);
        }
    }

    #[test]
    fn traffic_matches_theory() {
        let mut rng = StdRng::seed_from_u64(82);
        let p = 257;
        let k = 8;
        let mesh = SystolicMatMul::new(p, k);
        for n in [2usize, 4, 6, 10] {
            let a = random_mat(n, p, &mut rng);
            let b = random_mat(n, p, &mut rng);
            let (_, report) = mesh.run(&a, &b);
            assert_eq!(
                report.crossings,
                SystolicMatMul::expected_crossings(n),
                "crossing count at n={n}"
            );
            assert_eq!(report.bits, (n * n) as u64 * k as u64);
        }
    }

    #[test]
    fn measured_at2_dominates_information_bound() {
        // The simulated chip's A·T² must sit above the I² lower bound
        // with I = measured bisection traffic / constant.
        let mut rng = StdRng::seed_from_u64(83);
        let p = 8191;
        let k = 13;
        let mesh = SystolicMatMul::new(p, k);
        let n = 8;
        let a = random_mat(n, p, &mut rng);
        let b = random_mat(n, p, &mut rng);
        let (_, report) = mesh.run(&a, &b);
        // Cut width is n wires of k bits: capacity n·k·T must cover the
        // measured traffic.
        let capacity = (n as u64) * (k as u64) * report.cycles as u64;
        assert!(
            capacity >= report.bits,
            "cut capacity cannot be below actual traffic"
        );
        // And the measured AT² exceeds (traffic/k)² (Thompson's chain with
        // unit-bandwidth wires carrying k-bit words).
        let info_words = (report.bits / k as u64) as f64;
        assert!(
            report.at2() >= info_words,
            "AT² = {} below I = {info_words}",
            report.at2()
        );
    }

    #[test]
    fn one_by_one_mesh_edge_case() {
        let mesh = SystolicMatMul::new(97, 7);
        let a = Matrix::from_vec(1, 1, vec![5u64]);
        let b = Matrix::from_vec(1, 1, vec![7u64]);
        let (c, report) = mesh.run(&a, &b);
        assert_eq!(c[(0, 0)], 35);
        assert_eq!(report.cycles, 1);
        assert_eq!(report.crossings, 0); // no interior cut in a 1×1 mesh
    }

    #[test]
    fn matvec_computes_correctly() {
        let mut rng = StdRng::seed_from_u64(85);
        let p = 1009u64;
        let array = SystolicMatVec::new(p, 10);
        let field = PrimeField::new(p);
        for n in [1usize, 2, 5, 9] {
            let a = random_mat(n, p, &mut rng);
            let x: Vec<u64> = (0..n).map(|_| rng.gen_range(0..p)).collect();
            let (y, report) = array.run(&a, &x);
            assert_eq!(y, a.mul_vec(&field, &x), "matvec wrong at n={n}");
            assert_eq!(report.crossings, SystolicMatVec::expected_crossings(n));
        }
    }

    #[test]
    fn matvec_traffic_linear_vs_matmul_quadratic() {
        let mut rng = StdRng::seed_from_u64(86);
        let p = 257u64;
        let k = 8u32;
        let n = 16;
        let a = random_mat(n, p, &mut rng);
        let x: Vec<u64> = (0..n).map(|_| rng.gen_range(0..p)).collect();
        let b = random_mat(n, p, &mut rng);
        let (_, mv) = SystolicMatVec::new(p, k).run(&a, &x);
        let (_, mm) = SystolicMatMul::new(p, k).run(&a, &b);
        // Matvec: Θ(k·n) bits; matmul: Θ(k·n²) — a factor-n gap.
        assert_eq!(mv.bits, (n as u64 / 2) * k as u64);
        assert_eq!(mm.bits, (n * n) as u64 * k as u64);
        assert!(mm.bits >= mv.bits * (n as u64));
    }
}
