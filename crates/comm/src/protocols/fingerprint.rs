//! Randomized equality via modular fingerprints.
//!
//! Deterministic equality of two `L`-bit strings needs `L` bits of
//! communication (its truth matrix is the identity: `2^L` fooling pairs).
//! With private coins, A can send `(p, x mod p)` for a random prime `p`
//! of `O(log L + security)` bits. This is the textbook separation the
//! paper's introduction situates Vuillemin's transitivity technique in —
//! and a second, independent demonstration (next to
//! [`crate::protocols::ModPrimeSingularity`]) of the deterministic vs
//! randomized gap that Theorem 1.1 makes precise for matrix problems.
//!
//! This protocol assumes the *fixed* left/right partition (A owns the
//! first half, B the second), as in the Lovász–Saks fixed-partition model
//! quoted in Section 1.

use ccmx_bigint::prime::{window_for_error, PrimeWindow};
use ccmx_bigint::Natural;
use rand::rngs::StdRng;

use crate::bits::BitString;
use crate::partition::Owner;
use crate::protocol::{AgentCtx, Step, Turn, TwoPartyProtocol};

/// Fingerprint equality of two `half_bits`-long strings.
#[derive(Clone, Copy, Debug)]
pub struct FingerprintEquality {
    /// Bits per half.
    pub half_bits: usize,
    /// Prime window for fingerprints.
    pub window: PrimeWindow,
}

impl FingerprintEquality {
    /// Window sized so the error is `<= 2^-security`. The value being
    /// fingerprinted is `x - y` with `|x - y| < 2^half_bits`.
    pub fn new(half_bits: usize, security: u32) -> Self {
        let bound = Natural::power_of_two(half_bits as u64);
        FingerprintEquality {
            half_bits,
            window: window_for_error(&bound, security),
        }
    }

    /// Cost of every run: prime + residue.
    pub fn predicted_cost(&self) -> usize {
        64 + self.window.bits as usize
    }

    fn my_value(&self, ctx: &AgentCtx<'_>) -> Natural {
        // A's half: positions 0..half; B's: half..2*half.
        let offset = match ctx.turn {
            Turn::A => 0,
            Turn::B => self.half_bits,
        };
        let mut v = Natural::zero();
        for i in 0..self.half_bits {
            if ctx
                .share
                .get(offset + i)
                .expect("fixed-partition protocol: agent must own its half")
            {
                v.set_bit(i as u64, true);
            }
        }
        v
    }
}

impl TwoPartyProtocol for FingerprintEquality {
    fn step(&self, ctx: &AgentCtx<'_>, rng: &mut StdRng) -> Step {
        // Enforce the fixed partition this protocol is designed for.
        for i in 0..self.half_bits {
            debug_assert_eq!(ctx.partition.owner(i), Owner::A);
            debug_assert_eq!(ctx.partition.owner(self.half_bits + i), Owner::B);
        }
        match ctx.turn {
            Turn::A => {
                let p = self.window.sample(rng);
                let x = self.my_value(ctx);
                let res = (&x % &Natural::from(p)).to_u64().expect("residue fits");
                let mut msg = BitString::from_u64(p, 64);
                msg.extend(&BitString::from_u64(res, self.window.bits as usize));
                Step::Send(msg)
            }
            Turn::B => {
                let msg = &ctx.transcript.messages()[0].bits;
                let p = BitString::from_bits(msg.as_slice()[..64].to_vec()).to_u64();
                let a_res = BitString::from_bits(msg.as_slice()[64..].to_vec()).to_u64();
                let y = self.my_value(ctx);
                let b_res = (&y % &Natural::from(p)).to_u64().expect("residue fits");
                Step::Output(a_res == b_res)
            }
        }
    }

    fn name(&self) -> &'static str {
        "fingerprint-equality"
    }
}

/// The fixed left/right partition this protocol runs under.
pub fn fixed_partition(half_bits: usize) -> crate::partition::Partition {
    crate::partition::Partition::new(
        (0..2 * half_bits)
            .map(|i| if i < half_bits { Owner::A } else { Owner::B })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::{BooleanFunction, Equality};
    use crate::protocol::run_sequential;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn equal_strings_always_accepted() {
        let half = 40;
        let proto = FingerprintEquality::new(half, 20);
        let p = fixed_partition(half);
        let mut rng = StdRng::seed_from_u64(5);
        for t in 0..20u64 {
            let x: u64 = rng.gen::<u64>() & ((1 << half) - 1);
            let mut input = BitString::from_u64(x, half);
            input.extend(&BitString::from_u64(x, half));
            let r = run_sequential(&proto, &p, &input, t);
            assert!(r.output);
            assert_eq!(r.cost_bits(), proto.predicted_cost());
        }
    }

    #[test]
    fn unequal_strings_rejected_whp() {
        let half = 40;
        let proto = FingerprintEquality::new(half, 30);
        let p = fixed_partition(half);
        let f = Equality { half_bits: half };
        let mut rng = StdRng::seed_from_u64(6);
        let mut wrong = 0;
        for t in 0..60u64 {
            let x: u64 = rng.gen::<u64>() & ((1 << half) - 1);
            let mut y: u64 = rng.gen::<u64>() & ((1 << half) - 1);
            if y == x {
                y ^= 1;
            }
            let mut input = BitString::from_u64(x, half);
            input.extend(&BitString::from_u64(y, half));
            let r = run_sequential(&proto, &p, &input, t);
            if r.output != f.eval(&input) {
                wrong += 1;
            }
        }
        assert_eq!(
            wrong, 0,
            "fingerprint equality erred far above the analysis"
        );
    }

    #[test]
    fn exponential_savings_over_send_all() {
        // Deterministic equality costs half_bits; fingerprinting costs
        // O(64 + window) independent of half_bits at fixed security.
        let half = 4096;
        let proto = FingerprintEquality::new(half, 20);
        assert!(proto.predicted_cost() < half / 8);
    }

    #[test]
    fn one_bit_difference_detected() {
        let half = 32;
        let proto = FingerprintEquality::new(half, 30);
        let p = fixed_partition(half);
        let x = 0xDEADBEEFu64 & ((1 << half) - 1);
        for flip in [0usize, 13, 31] {
            let y = x ^ (1 << flip);
            let mut input = BitString::from_u64(x, half);
            input.extend(&BitString::from_u64(y, half));
            let r = run_sequential(&proto, &p, &input, flip as u64);
            assert!(
                !r.output,
                "missed a single-bit difference at position {flip}"
            );
        }
    }
}
