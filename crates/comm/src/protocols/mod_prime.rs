//! The randomized mod-a-random-prime singularity protocol.
//!
//! This realizes the probabilistic `O(n² max(log n, log k))` upper bound
//! the paper attributes to Leighton (1987):
//!
//! 1. Agent A samples a prime `p` from the window `[2^{b-1}, 2^b)`, where
//!    `b` is sized from the Hadamard bound so a *nonzero* determinant has
//!    at most an `ε` chance of vanishing mod `p` (see
//!    [`ccmx_bigint::prime::window_for_error`]).
//! 2. A sends `p`, followed by its **additive partial value** of every
//!    matrix entry reduced mod `p` (an agent holding an arbitrary subset
//!    of an entry's bits holds an additive summand of that entry, so this
//!    works for *every* partition, not just `π₀`).
//! 3. B adds its own partial values mod `p`, runs Gaussian elimination in
//!    GF(p), and announces `det ≡ 0 (mod p)`.
//!
//! Cost: `64 + d²·b` bits where `d` is the matrix dimension and
//! `b = O(max(log d, k + log d))`... for `k`-bit entries the window size
//! works out to `Θ(max(log d, log k))` once amortized per entry against
//! the deterministic `Θ(k·d²)`. The error is **one-sided**: a singular
//! matrix is always declared singular; a nonsingular one is misclassified
//! only if `p` divides its (nonzero) determinant.

use ccmx_bigint::bounds::hadamard_bound_k_bits;
use ccmx_bigint::prime::{window_for_error, PrimeWindow};
use ccmx_linalg::ring::{PrimeField, Ring};
use ccmx_linalg::{gauss, Matrix};
use rand::rngs::StdRng;

use crate::bits::BitString;
use crate::encoding::MatrixEncoding;
use crate::protocol::{AgentCtx, Step, Turn, TwoPartyProtocol};

/// Randomized singularity testing modulo a random prime.
#[derive(Clone, Copy, Debug)]
pub struct ModPrimeSingularity {
    /// The input encoding.
    pub enc: MatrixEncoding,
    /// The prime window A samples from.
    pub window: PrimeWindow,
}

impl ModPrimeSingularity {
    /// Build the protocol with a window sized for error `<= 2^-security`
    /// against the Hadamard bound of the instance family.
    pub fn new(dim: usize, k: u32, security: u32) -> Self {
        let enc = MatrixEncoding::new(dim, k);
        let bound = hadamard_bound_k_bits(dim, k);
        ModPrimeSingularity {
            enc,
            window: window_for_error(&bound, security),
        }
    }

    /// Exact cost in bits of every run: the prime (64) plus one residue of
    /// `window.bits` bits per matrix entry.
    pub fn predicted_cost(&self) -> usize {
        64 + self.enc.dim * self.enc.dim * self.window.bits as usize
    }

    /// Upper bound on the one-sided error probability for this window:
    /// (max prime divisors of a nonzero determinant in the window) /
    /// (number of primes in the window).
    pub fn error_bound(&self) -> f64 {
        let bound = hadamard_bound_k_bits(self.enc.dim, self.enc.k);
        let bad = ccmx_bigint::prime::max_prime_divisors_in_window(&bound, self.window) as f64;
        bad / self.window.count_lower_bound()
    }

    fn residues_message(&self, partials: &Matrix<ccmx_bigint::Integer>, p: u64) -> BitString {
        let field = PrimeField::new(p);
        let mut msg = BitString::from_u64(p, 64);
        for r in 0..self.enc.dim {
            for c in 0..self.enc.dim {
                let res = field.reduce(&partials[(r, c)]);
                msg.extend(&BitString::from_u64(res, self.window.bits as usize));
            }
        }
        msg
    }
}

impl TwoPartyProtocol for ModPrimeSingularity {
    fn step(&self, ctx: &AgentCtx<'_>, rng: &mut StdRng) -> Step {
        match ctx.turn {
            Turn::A => {
                let p = self.window.sample(rng);
                let partials = self.enc.partial_values(ctx.share);
                Step::Send(self.residues_message(&partials, p))
            }
            Turn::B => {
                let msg = &ctx.transcript.messages()[0].bits;
                let p = BitString::from_bits(msg.as_slice()[..64].to_vec()).to_u64();
                let field = PrimeField::new(p);
                let bits_per = self.window.bits as usize;
                let my_partials = self.enc.partial_values(ctx.share);
                let d = self.enc.dim;
                let m = Matrix::from_fn(d, d, |r, c| {
                    let idx = 64 + (r * d + c) * bits_per;
                    let a_res =
                        BitString::from_bits(msg.as_slice()[idx..idx + bits_per].to_vec()).to_u64();
                    field.add(&a_res, &field.reduce(&my_partials[(r, c)]))
                });
                Step::Output(gauss::is_singular(&field, &m))
            }
        }
    }

    fn name(&self) -> &'static str {
        "mod-random-prime"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::{BooleanFunction, Singularity};
    use crate::partition::Partition;
    use crate::protocol::run_sequential;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn never_misses_a_singular_matrix() {
        // One-sided error: singular => always declared singular.
        let dim = 4;
        let k = 2;
        let proto = ModPrimeSingularity::new(dim, k, 20);
        let f = Singularity::new(dim, k);
        let enc = proto.enc;
        let p = Partition::pi_zero(&enc);
        let mut rng = StdRng::seed_from_u64(10);
        let mut tested = 0;
        while tested < 25 {
            // Random matrix with a duplicated column: always singular.
            let mut m = ccmx_linalg::Matrix::from_fn(dim, dim, |_, _| {
                ccmx_bigint::Integer::from(rng.gen_range(0i64..(1 << k)))
            });
            for r in 0..dim {
                m[(r, dim - 1)] = m[(r, 0)].clone();
            }
            let input = enc.encode(&m);
            assert!(f.eval(&input), "constructed matrix must be singular");
            let r = run_sequential(&proto, &p, &input, rng.gen());
            assert!(r.output, "randomized protocol missed a singular matrix");
            tested += 1;
        }
    }

    #[test]
    fn correct_whp_on_random_matrices() {
        let dim = 4;
        let k = 3;
        let proto = ModPrimeSingularity::new(dim, k, 30);
        let f = Singularity::new(dim, k);
        let enc = proto.enc;
        let p = Partition::pi_zero(&enc);
        let mut rng = StdRng::seed_from_u64(77);
        let mut errors = 0;
        let trials = 60;
        for t in 0..trials {
            let m = ccmx_linalg::Matrix::from_fn(dim, dim, |_, _| {
                ccmx_bigint::Integer::from(rng.gen_range(0i64..(1 << k)))
            });
            let input = enc.encode(&m);
            let r = run_sequential(&proto, &p, &input, t);
            if r.output != f.eval(&input) {
                errors += 1;
            }
        }
        assert_eq!(errors, 0, "error rate far above the 2^-30 analysis");
    }

    #[test]
    fn cost_matches_prediction_and_beats_send_all_for_large_k() {
        // The crossover needs k >> window bits ≈ log(k·dim) + security:
        // large entries, enough entries to amortize the 64-bit prime, and
        // a constant-error setting (the paper's probabilistic model only
        // asks for error 1/2 - ε).
        let dim = 8;
        let k = 60;
        let proto = ModPrimeSingularity::new(dim, k, 8);
        let enc = proto.enc;
        let p = Partition::pi_zero(&enc);
        let mut rng = StdRng::seed_from_u64(3);
        let m = ccmx_linalg::Matrix::from_fn(dim, dim, |_, _| {
            ccmx_bigint::Integer::from(rng.gen_range(0i64..(1i64 << k)))
        });
        let input = enc.encode(&m);
        let r = run_sequential(&proto, &p, &input, 9);
        assert_eq!(r.cost_bits(), proto.predicted_cost());
        let send_all_cost = p.count_a(); // k(2n)²/2
        assert!(
            r.cost_bits() < send_all_cost,
            "randomized {} bits should beat deterministic {} bits at k={k}",
            r.cost_bits(),
            send_all_cost
        );
    }

    #[test]
    fn works_for_arbitrary_partitions() {
        // The additive-share trick must survive bit-granular partitions.
        let dim = 2;
        let k = 4;
        let proto = ModPrimeSingularity::new(dim, k, 25);
        let f = Singularity::new(dim, k);
        let enc = proto.enc;
        let mut rng = StdRng::seed_from_u64(12);
        for trial in 0..30u64 {
            let p = Partition::random_even(enc.total_bits(), &mut rng);
            let m = ccmx_linalg::Matrix::from_fn(dim, dim, |_, _| {
                ccmx_bigint::Integer::from(rng.gen_range(0i64..(1 << k)))
            });
            let input = enc.encode(&m);
            let r = run_sequential(&proto, &p, &input, trial);
            assert_eq!(r.output, f.eval(&input), "trial {trial}");
        }
    }

    #[test]
    fn error_bound_is_small() {
        let proto = ModPrimeSingularity::new(8, 8, 20);
        assert!(proto.error_bound() <= 1.0 / ((1u64 << 20) as f64) * 2.0);
    }
}
