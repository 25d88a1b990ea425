//! Randomized linear-system solvability testing (Corollary 1.3's
//! problem) modulo a random prime.
//!
//! By Rouché–Capelli, `A·x = b` is solvable over ℚ iff
//! `rank(A) = rank([A | b])`. Both ranks can only *drop* when reduced
//! modulo `p`, and each drops only if `p` divides one of finitely many
//! nonzero maximal minors — so for a random prime from a
//! Hadamard-calibrated window, `rank_p = rank_ℚ` for both matrices with
//! high probability and the residue comparison decides solvability.
//!
//! Unlike the singularity protocol, the error here is **two-sided in
//! principle** (either rank can drop) but still bounded by the same
//! window analysis; the tests measure both sides.
//!
//! Cost: `64 + (d² + d)·window_bits` — again `O(n² max(log n, log k))`
//! against the deterministic `Θ(k n²)`.

use ccmx_bigint::bounds::hadamard_bound_k_bits;
use ccmx_bigint::prime::{window_for_error, PrimeWindow};
use ccmx_bigint::{Integer, Natural};
use ccmx_linalg::ring::{PrimeField, Ring};
use ccmx_linalg::{gauss, Matrix};
use rand::rngs::StdRng;

use crate::bits::BitString;
use crate::functions::Solvability;
use crate::protocol::{AgentCtx, Step, Turn, TwoPartyProtocol};

/// Randomized solvability of `A·x = b` modulo a random prime.
#[derive(Clone, Copy, Debug)]
pub struct ModPrimeSolvability {
    /// The function (fixes the `(A, b)` encoding).
    pub function: Solvability,
    /// The prime window.
    pub window: PrimeWindow,
}

impl ModPrimeSolvability {
    /// Window sized for per-minor error `<= 2^-security` against the
    /// augmented matrix's Hadamard bound.
    pub fn new(dim: usize, k: u32, security: u32) -> Self {
        let function = Solvability::new(dim, k);
        // Minors of [A | b] are at most (dim)x(dim); bound accordingly.
        let bound = hadamard_bound_k_bits(dim, k);
        ModPrimeSolvability {
            function,
            window: window_for_error(&bound, security),
        }
    }

    /// Exact cost in bits: prime + one residue per entry of `A` and `b`.
    pub fn predicted_cost(&self) -> usize {
        let d = self.function.enc.dim;
        64 + (d * d + d) * self.window.bits as usize
    }

    /// Reconstruct additive partial values of `(A, b)` from a share: the
    /// same trick as the singularity protocol — any subset of an entry's
    /// bits is an additive summand.
    fn partials(&self, ctx: &AgentCtx<'_>) -> (Matrix<Integer>, Vec<Integer>) {
        let enc = self.function.enc;
        let d = enc.dim;
        let k = enc.k as usize;
        let a_bits = enc.total_bits();
        let mut a = Matrix::from_fn(d, d, |_, _| Natural::zero());
        let mut b = vec![Natural::zero(); d];
        for (&pos, &val) in ctx.share.positions().iter().zip(ctx.share.values()) {
            if !val {
                continue;
            }
            if pos < a_bits {
                let (r, c, bit) = enc.coordinates(pos);
                a[(r, c)].set_bit(bit as u64, true);
            } else {
                let rel = pos - a_bits;
                b[rel / k].set_bit((rel % k) as u64, true);
            }
        }
        (
            a.map(|n| Integer::from(n.clone())),
            b.into_iter().map(Integer::from).collect(),
        )
    }
}

impl TwoPartyProtocol for ModPrimeSolvability {
    fn step(&self, ctx: &AgentCtx<'_>, rng: &mut StdRng) -> Step {
        let d = self.function.enc.dim;
        let w = self.window.bits as usize;
        match ctx.turn {
            Turn::A => {
                let p = self.window.sample(rng);
                let field = PrimeField::new(p);
                let (a, b) = self.partials(ctx);
                let mut msg = BitString::from_u64(p, 64);
                for r in 0..d {
                    for c in 0..d {
                        msg.extend(&BitString::from_u64(field.reduce(&a[(r, c)]), w));
                    }
                }
                for e in &b {
                    msg.extend(&BitString::from_u64(field.reduce(e), w));
                }
                Step::Send(msg)
            }
            Turn::B => {
                let msg = &ctx.transcript.messages()[0].bits;
                let p = BitString::from_bits(msg.as_slice()[..64].to_vec()).to_u64();
                let field = PrimeField::new(p);
                let (my_a, my_b) = self.partials(ctx);
                let read = |idx: usize| {
                    BitString::from_bits(msg.as_slice()[64 + idx * w..64 + (idx + 1) * w].to_vec())
                        .to_u64()
                };
                let a = Matrix::from_fn(d, d, |r, c| {
                    field.add(&read(r * d + c), &field.reduce(&my_a[(r, c)]))
                });
                let b: Vec<u64> = (0..d)
                    .map(|i| field.add(&read(d * d + i), &field.reduce(&my_b[i])))
                    .collect();
                let aug = Matrix::from_fn(d, d + 1, |r, c| if c < d { a[(r, c)] } else { b[r] });
                Step::Output(gauss::rank(&field, &a) == gauss::rank(&field, &aug))
            }
        }
    }

    fn name(&self) -> &'static str {
        "mod-random-prime-solvability"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::BooleanFunction;
    use crate::partition::Partition;
    use crate::protocol::run_sequential;
    use rand::{Rng, SeedableRng};

    fn random_system(dim: usize, k: u32, seed: u64, force_solvable: bool) -> BitString {
        let mut rng = StdRng::seed_from_u64(seed);
        let f = Solvability::new(dim, k);
        let a = Matrix::from_fn(dim, dim, |_, _| {
            Integer::from(rng.gen_range(0..(1i64 << k)))
        });
        let b: Vec<Integer> = if force_solvable {
            // b = A · x₀ for small non-negative x₀... keep entries in
            // range: use x₀ = e_j so b is a column of A.
            let j = rng.gen_range(0..dim);
            (0..dim).map(|i| a[(i, j)].clone()).collect()
        } else {
            (0..dim)
                .map(|_| Integer::from(rng.gen_range(0..(1i64 << k))))
                .collect()
        };
        f.encode(&a, &b)
    }

    #[test]
    fn correct_whp_and_costed() {
        let dim = 4;
        let k = 3;
        let proto = ModPrimeSolvability::new(dim, k, 25);
        let f = Solvability::new(dim, k);
        let p = {
            let mut rng = StdRng::seed_from_u64(1);
            Partition::random_even(f.num_bits(), &mut rng)
        };
        let mut errors = 0;
        for t in 0..40u64 {
            let input = random_system(dim, k, t, t % 2 == 0);
            let run = run_sequential(&proto, &p, &input, t);
            assert_eq!(run.cost_bits(), proto.predicted_cost());
            if run.output != f.eval(&input) {
                errors += 1;
            }
        }
        assert_eq!(errors, 0, "errors far above the 2^-25 analysis");
    }

    #[test]
    fn solvable_systems_accepted() {
        let dim = 4;
        let k = 4;
        let proto = ModPrimeSolvability::new(dim, k, 20);
        let f = Solvability::new(dim, k);
        let enc_bits = f.num_bits();
        let mut rng = StdRng::seed_from_u64(2);
        let p = Partition::random_even(enc_bits, &mut rng);
        for t in 0..20u64 {
            let input = random_system(dim, k, 100 + t, true);
            assert!(f.eval(&input), "constructed system must be solvable");
            let run = run_sequential(&proto, &p, &input, t);
            assert!(run.output, "solvable system rejected at t={t}");
        }
    }

    #[test]
    fn beats_deterministic_for_large_k() {
        let dim = 8;
        let k = 60;
        let proto = ModPrimeSolvability::new(dim, k, 8);
        let f = Solvability::new(dim, k);
        let det_cost = f.num_bits() / 2; // send-all under an even partition
        assert!(
            proto.predicted_cost() < det_cost,
            "{} should be below {}",
            proto.predicted_cost(),
            det_cost
        );
    }
}
