//! # ccmx-bench
//!
//! Shared workload generators and table rendering for the experiment
//! harness, and the [`registry`] of gated experiments. Every experiment
//! (see DESIGN.md and EXPERIMENTS.md) pulls its inputs from here, so the
//! `experiments` table binary (E1–E12) and the `bench_snapshot` runner
//! of the registry (E14–E21) draw from the same generators.
//!
//! Paper mapping: the experiments instantiate the quantities that
//! Chu & Schnitger's Theorem 1.1 and Corollaries 1.2/1.3 bound —
//! deterministic vs randomized communication for singularity testing
//! (E-series protocol costs), the truth-matrix rectangle machinery
//! behind the Ω(k n²) lower bound, the VLSI AT² consequences, and the
//! serving-stack experiments (retry storms, breaker degradation,
//! chaos-soak divergence) that keep the *metered-bit* invariant
//! `wire bits == Transcript::total_bits()` observable under load.

#![deny(missing_docs)]

pub mod registry;

use ccmx_bigint::Integer;
use ccmx_comm::functions::Singularity;
use ccmx_comm::{BitString, MatrixEncoding, Partition};
use ccmx_core::{Params, RestrictedInstance};
use ccmx_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic RNG for a named experiment (reproducible workloads).
pub fn rng_for(experiment: &str) -> StdRng {
    let mut seed = 0xCC_57u64;
    for b in experiment.bytes() {
        seed = seed.wrapping_mul(0x100000001B3).wrapping_add(b as u64);
    }
    StdRng::seed_from_u64(seed)
}

/// A uniform random `dim × dim` matrix of `k`-bit entries.
pub fn random_matrix(dim: usize, k: u32, rng: &mut StdRng) -> Matrix<Integer> {
    Matrix::from_fn(dim, dim, |_, _| {
        Integer::from(rng.gen_range(0..(1i64 << k)))
    })
}

/// A random matrix forced singular by duplicating a column.
pub fn random_singular_matrix(dim: usize, k: u32, rng: &mut StdRng) -> Matrix<Integer> {
    let mut m = random_matrix(dim, k, rng);
    let src = rng.gen_range(0..dim);
    let dst = (src + 1 + rng.gen_range(0..dim - 1)) % dim;
    for r in 0..dim {
        m[(r, dst)] = m[(r, src)].clone();
    }
    m
}

/// A random matrix of rank `dim − 1` with a generic kernel vector: one
/// row is replaced by the sum of two others (entries grow by one bit).
/// Needs `dim ≥ 3`.
pub fn random_row_sum_matrix(dim: usize, k: u32, rng: &mut StdRng) -> Matrix<Integer> {
    let mut m = random_matrix(dim, k, rng);
    let dst = rng.gen_range(0..dim);
    let a = (dst + 1 + rng.gen_range(0..dim - 1)) % dim;
    let b = (0..dim)
        .filter(|&r| r != dst && r != a)
        .nth(rng.gen_range(0..dim - 2))
        .expect("dim >= 3 leaves a third row");
    for c in 0..dim {
        m[(dst, c)] = &m[(a, c)] + &m[(b, c)];
    }
    m
}

/// Encode a matrix for the singularity function.
pub fn encode(dim: usize, k: u32, m: &Matrix<Integer>) -> BitString {
    MatrixEncoding::new(dim, k).encode(m)
}

/// The standard instance mix for protocol metering: half random, half
/// adversarially singular.
pub fn protocol_inputs(dim: usize, k: u32, count: usize, rng: &mut StdRng) -> Vec<BitString> {
    (0..count)
        .map(|i| {
            let m = if i % 2 == 0 {
                random_matrix(dim, k, rng)
            } else {
                random_singular_matrix(dim, k, rng)
            };
            encode(dim, k, &m)
        })
        .collect()
}

/// The π₀ partition for a `(dim, k)` singularity instance.
pub fn pi_zero(dim: usize, k: u32) -> Partition {
    Partition::pi_zero(&MatrixEncoding::new(dim, k))
}

/// The function object for `(dim, k)`.
pub fn singularity(dim: usize, k: u32) -> Singularity {
    Singularity::new(dim, k)
}

/// The B-owned bit positions of a `(dim, k)` singularity instance
/// under `π₀`, in the index order the Gray walk flips them.
pub fn b_positions(dim: usize, k: u32) -> Vec<usize> {
    pi_zero(dim, k).positions_of(ccmx_comm::partition::Owner::B)
}

/// Walk `steps` Gray-code flips of the B-side bits (the exact order
/// `TruthMatrix::enumerate` visits a row) evaluating `f` **fresh** at
/// every point. Returns the number of ones seen, so fresh and
/// incremental walks can be cross-checked.
pub fn gray_walk_fresh(f: &Singularity, b_pos: &[usize], steps: usize) -> u64 {
    use ccmx_comm::functions::BooleanFunction;
    let mut input = BitString::zeros(f.num_bits());
    let mut ones = u64::from(f.eval(&input));
    let mut gray = 0usize;
    for i in 1..steps {
        let j = i.trailing_zeros() as usize;
        gray ^= 1 << j;
        input.set(b_pos[j], (gray >> j) & 1 == 1);
        ones += u64::from(f.eval(&input));
    }
    ones
}

/// The same walk as [`gray_walk_fresh`], through the incremental-oracle
/// cursor (one rank-one engine update per step).
pub fn gray_walk_incremental(f: &Singularity, b_pos: &[usize], steps: usize) -> u64 {
    use ccmx_comm::functions::BooleanFunction;
    let oracle = f.as_incremental().expect("singularity is incremental");
    let input = BitString::zeros(f.num_bits());
    let mut cursor = oracle.begin(&input);
    let mut ones = u64::from(cursor.value());
    for i in 1..steps {
        let j = i.trailing_zeros() as usize;
        ones += u64::from(cursor.flip(b_pos[j]));
    }
    ones
}

/// Random free blocks `(C, E)` for the restricted family.
pub fn random_c_e(params: Params, rng: &mut StdRng) -> (Matrix<Integer>, Matrix<Integer>) {
    let h = params.h();
    let q = params.q_u64();
    let c = Matrix::from_fn(h, h, |_, _| Integer::from(rng.gen_range(0..q) as i64));
    let e = Matrix::from_fn(h, params.e_width(), |_, _| {
        Integer::from(rng.gen_range(0..q) as i64)
    });
    (c, e)
}

/// A random member of the restricted family.
pub fn random_instance(params: Params, rng: &mut StdRng) -> RestrictedInstance {
    RestrictedInstance::random(params, rng)
}

/// Simple fixed-width table printer for the `experiments` binary.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render with per-column widths.
    pub fn render(&self) -> String {
        let ncol = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..ncol {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::from("| ");
            for (c, cell) in cells.iter().enumerate() {
                line.push_str(&format!("{:>width$} | ", cell, width = widths[c]));
            }
            line.trim_end().to_string() + "\n"
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&"-".repeat(w + 2));
            sep.push('|');
        }
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccmx_comm::functions::BooleanFunction;
    use ccmx_linalg::bareiss;

    #[test]
    fn generators_are_reproducible() {
        let mut r1 = rng_for("test");
        let mut r2 = rng_for("test");
        assert_eq!(random_matrix(3, 4, &mut r1), random_matrix(3, 4, &mut r2));
    }

    #[test]
    fn singular_generator_is_singular() {
        let mut rng = rng_for("sing");
        for _ in 0..20 {
            let m = random_singular_matrix(4, 3, &mut rng);
            assert!(bareiss::is_singular(&m));
        }
    }

    #[test]
    fn inputs_match_function_domain() {
        let mut rng = rng_for("dom");
        let f = singularity(4, 2);
        for input in protocol_inputs(4, 2, 6, &mut rng) {
            assert_eq!(input.len(), f.num_bits());
            let _ = f.eval(&input);
        }
    }

    #[test]
    fn table_renders() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("| a | bb |"));
        assert!(s.contains("| 1 |  2 |"));
    }
}
