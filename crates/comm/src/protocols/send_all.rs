//! The deterministic send-everything protocol.
//!
//! Agent A sends its entire share (in position order); agent B now knows
//! the full input, evaluates the function exactly, and announces. Cost:
//! `|A's share|` bits, i.e. `⌈N/2⌉` for an even partition — `2k·n²` for
//! the paper's `2n × 2n` input of `k`-bit entries. Theorem 1.1 shows this
//! trivial protocol is within a constant factor of optimal for
//! singularity testing; this struct is the experimental realization of
//! that upper bound for *any* [`BooleanFunction`].

use rand::rngs::StdRng;

use crate::bits::BitString;
use crate::functions::BooleanFunction;
use crate::partition::Owner;
use crate::protocol::{AgentCtx, Step, Turn, TwoPartyProtocol};

/// Send-everything protocol for an arbitrary function.
pub struct SendAll<F: BooleanFunction> {
    /// The function to decide (B's exact evaluator).
    pub function: F,
}

impl<F: BooleanFunction> SendAll<F> {
    /// Wrap a function.
    pub fn new(function: F) -> Self {
        SendAll { function }
    }

    /// Predicted cost in bits for a given partition (A's share size).
    pub fn predicted_cost(&self, partition: &crate::partition::Partition) -> usize {
        partition.count_a()
    }
}

impl<F: BooleanFunction> TwoPartyProtocol for SendAll<F> {
    fn step(&self, ctx: &AgentCtx<'_>, _rng: &mut StdRng) -> Step {
        match ctx.turn {
            Turn::A => Step::Send(ctx.share.to_bitstring()),
            Turn::B => {
                // Reassemble the full input: A's bits arrive in the order
                // of A's positions; B interleaves its own.
                let received = ctx.transcript.bits_from(Turn::A);
                let n = ctx.partition.len();
                let mut full = BitString::zeros(n);
                let mut ai = 0usize;
                for pos in 0..n {
                    match ctx.partition.owner(pos) {
                        Owner::A => {
                            full.set(pos, received.get(ai));
                            ai += 1;
                        }
                        Owner::B => {
                            full.set(pos, ctx.share.get(pos).expect("B owns this bit"));
                        }
                    }
                }
                debug_assert_eq!(ai, received.len());
                Step::Output(self.function.eval(&full))
            }
        }
    }

    fn name(&self) -> &'static str {
        "send-all"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::MatrixEncoding;
    use crate::functions::{Equality, Singularity};
    use crate::partition::Partition;
    use crate::protocol::run_sequential;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn correct_on_all_tiny_singularity_inputs() {
        let f = Singularity::new(2, 1);
        let enc = f.enc;
        let proto = SendAll::new(f);
        let p = Partition::pi_zero(&enc);
        for v in 0..(1u64 << enc.total_bits()) {
            let input = BitString::from_u64(v, enc.total_bits());
            let expect = Singularity::new(2, 1).eval(&input);
            let r = run_sequential(&proto, &p, &input, 0);
            assert_eq!(r.output, expect, "input {v:04b}");
            assert_eq!(r.cost_bits(), proto.predicted_cost(&p));
        }
    }

    #[test]
    fn cost_is_a_share_size_for_random_partitions() {
        let mut rng = StdRng::seed_from_u64(9);
        let f = Singularity::new(2, 3);
        let enc = f.enc;
        let proto = SendAll::new(f);
        for _ in 0..10 {
            let p = Partition::random_even(enc.total_bits(), &mut rng);
            let v: u64 = rng.gen::<u64>() & ((1 << enc.total_bits()) - 1);
            let input = BitString::from_u64(v, enc.total_bits());
            let r = run_sequential(&proto, &p, &input, 0);
            assert_eq!(r.cost_bits(), p.count_a());
            assert_eq!(r.output, Singularity::new(2, 3).eval(&input));
        }
    }

    #[test]
    fn works_when_a_owns_nothing() {
        // Degenerate partition: B owns everything; A sends 0 bits.
        let f = Equality { half_bits: 2 };
        let proto = SendAll::new(f);
        let p = Partition::new(vec![crate::partition::Owner::B; 4]);
        let input = BitString::from_u64(0b1010, 4);
        let r = run_sequential(&proto, &p, &input, 0);
        assert!(r.output);
        assert_eq!(r.cost_bits(), 0);
    }

    #[test]
    fn matrix_encoding_cost_matches_theory() {
        // For π₀ on a 2n × 2n matrix of k-bit entries the cost is
        // exactly 2k n² (half the k(2n)² input bits).
        for (two_n, k) in [(2usize, 1u32), (4, 2), (6, 3)] {
            let enc = MatrixEncoding::new(two_n, k);
            let p = Partition::pi_zero(&enc);
            let proto = SendAll::new(Singularity::new(two_n, k));
            assert_eq!(
                proto.predicted_cost(&p),
                k as usize * two_n * two_n / 2,
                "2n={two_n}, k={k}"
            );
        }
    }
}
