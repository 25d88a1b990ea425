//! Randomized-protocol analysis: empirical error estimation and error
//! amplification.
//!
//! The paper's probabilistic model accepts any protocol correct with
//! probability `> 1/2 + ε`. Two pieces make that executable:
//!
//! * [`estimate_error`] — a Monte-Carlo referee: run a protocol across
//!   independent coin seeds and inputs, report error rates *separately
//!   for yes- and no-instances* (exposing one-sidedness empirically).
//! * [`AmplifiedModPrime`] — sequential repetition of the mod-prime
//!   singularity protocol. Its error is one-sided (singular inputs are
//!   never misclassified), so the right vote is a conjunction: declare
//!   singular only if **every** round does. `t` rounds drive the error
//!   from `ε` to `ε^t` while multiplying cost by `t` — letting a *small*
//!   prime window (cheap rounds) match the reliability of one big round,
//!   a genuine trade-off surface over the paper's `O(n² max(log n, log
//!   k))` bound.

use rand::rngs::StdRng;

use crate::bits::BitString;
use crate::functions::BooleanFunction;
use crate::partition::Partition;
use crate::protocol::{run_sequential, AgentCtx, Step, Turn, TwoPartyProtocol};
use crate::protocols::ModPrimeSingularity;

/// Empirical error report, split by true answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ErrorEstimate {
    /// Runs on inputs with `f = true` (e.g. singular matrices).
    pub yes_runs: usize,
    /// ... of which misclassified.
    pub yes_errors: usize,
    /// Runs on inputs with `f = false`.
    pub no_runs: usize,
    /// ... of which misclassified.
    pub no_errors: usize,
}

impl ErrorEstimate {
    /// Overall empirical error rate.
    pub fn rate(&self) -> f64 {
        let total = self.yes_runs + self.no_runs;
        if total == 0 {
            0.0
        } else {
            (self.yes_errors + self.no_errors) as f64 / total as f64
        }
    }

    /// Is the observed behaviour one-sided (no yes-instance ever missed)?
    pub fn observed_one_sided(&self) -> bool {
        self.yes_errors == 0
    }
}

/// Run `proto` on every input with `seeds` independent coin seeds each,
/// refereeing against the exact evaluator.
pub fn estimate_error(
    proto: &dyn TwoPartyProtocol,
    partition: &Partition,
    f: &dyn BooleanFunction,
    inputs: &[BitString],
    seeds: u64,
) -> ErrorEstimate {
    let mut est = ErrorEstimate {
        yes_runs: 0,
        yes_errors: 0,
        no_runs: 0,
        no_errors: 0,
    };
    for (i, input) in inputs.iter().enumerate() {
        let truth = f.eval(input);
        for s in 0..seeds {
            let run = run_sequential(proto, partition, input, (i as u64) << 32 | s);
            if truth {
                est.yes_runs += 1;
                if !run.output {
                    est.yes_errors += 1;
                }
            } else {
                est.no_runs += 1;
                if run.output {
                    est.no_errors += 1;
                }
            }
        }
    }
    est
}

/// `t`-round sequential repetition of [`ModPrimeSingularity`] with the
/// conjunction vote.
///
/// Round `i`: A samples a fresh prime, sends `(p_i, residues)`; B
/// computes its verdict. For `i < t` B replies with the 1-bit verdict
/// (passing the turn back); after round `t`, B outputs the AND of all
/// verdicts. The protocol stays stateless: both agents recover the round
/// number and all past verdicts from the public transcript.
#[derive(Clone, Copy, Debug)]
pub struct AmplifiedModPrime {
    /// The single-round protocol.
    pub inner: ModPrimeSingularity,
    /// Number of repetitions (`>= 1`).
    pub rounds: usize,
}

impl AmplifiedModPrime {
    /// Build with `rounds >= 1`.
    pub fn new(inner: ModPrimeSingularity, rounds: usize) -> Self {
        assert!(rounds >= 1);
        AmplifiedModPrime { inner, rounds }
    }

    /// Exact cost: `t` A-messages plus `t − 1` verdict bits.
    pub fn predicted_cost(&self) -> usize {
        self.rounds * self.inner.predicted_cost() + (self.rounds - 1)
    }

    /// The amplified error bound `ε^t` (one-sided).
    pub fn error_bound(&self) -> f64 {
        self.inner.error_bound().powi(self.rounds as i32)
    }

    /// B's verdict for the A-message at transcript index `idx`.
    fn verdict_for(&self, ctx: &AgentCtx<'_>, idx: usize) -> bool {
        // Re-run the inner B-step against a truncated transcript view.
        let msg = &ctx.transcript.messages()[idx];
        debug_assert_eq!(msg.from, Turn::A);
        let mut sub = crate::protocol::Transcript::new();
        sub.push(Turn::A, msg.bits.clone());
        let sub_ctx = AgentCtx {
            turn: Turn::B,
            share: ctx.share,
            partition: ctx.partition,
            transcript: &sub,
        };
        // The inner protocol's B step is deterministic (no rng use);
        // a throwaway rng keeps the signature satisfied.
        let mut dummy = <StdRng as rand::SeedableRng>::seed_from_u64(0);
        match self.inner.step(&sub_ctx, &mut dummy) {
            Step::Output(v) => v,
            Step::Send(_) => unreachable!("inner B step must output"),
        }
    }
}

impl TwoPartyProtocol for AmplifiedModPrime {
    fn step(&self, ctx: &AgentCtx<'_>, rng: &mut StdRng) -> Step {
        let a_msgs: Vec<usize> = ctx
            .transcript
            .messages()
            .iter()
            .enumerate()
            .filter_map(|(i, m)| (m.from == Turn::A).then_some(i))
            .collect();
        match ctx.turn {
            Turn::A => {
                // Send the next independent round's message.
                debug_assert!(a_msgs.len() < self.rounds);
                let sub_ctx = AgentCtx {
                    turn: Turn::A,
                    share: ctx.share,
                    partition: ctx.partition,
                    transcript: &crate::protocol::Transcript::new(),
                };
                // rng advances across rounds → independent primes.
                self.inner.step(&sub_ctx, rng)
            }
            Turn::B => {
                let done = a_msgs.len();
                let verdict = self.verdict_for(ctx, *a_msgs.last().expect("A spoke"));
                if !verdict {
                    // A nonsingular witness is *certain* (one-sided):
                    // stop early, skipping the remaining rounds.
                    return Step::Output(false);
                }
                if done == self.rounds {
                    // All rounds said singular: conjunction vote.
                    Step::Output(true)
                } else {
                    // Acknowledge and pass the turn back (1 bit).
                    Step::Send(BitString::from_bits(vec![true]))
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "mod-random-prime-amplified"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::MatrixEncoding;
    use crate::functions::Singularity;
    use ccmx_bigint::Integer;
    use ccmx_linalg::Matrix;
    use rand::{Rng, SeedableRng};

    fn singular_input(enc: &MatrixEncoding, seed: u64) -> BitString {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = Matrix::from_fn(enc.dim, enc.dim, |_, _| {
            Integer::from(rng.gen_range(0..(1i64 << enc.k)))
        });
        for r in 0..enc.dim {
            m[(r, enc.dim - 1)] = m[(r, 0)].clone();
        }
        enc.encode(&m)
    }

    fn random_input(enc: &MatrixEncoding, seed: u64) -> BitString {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bits = BitString::zeros(enc.total_bits());
        for i in 0..enc.total_bits() {
            bits.set(i, rng.gen());
        }
        bits
    }

    #[test]
    fn amplified_is_correct_and_costed() {
        let inner = ModPrimeSingularity::new(4, 3, 15);
        let proto = AmplifiedModPrime::new(inner, 3);
        let enc = inner.enc;
        let p = Partition::pi_zero(&enc);
        let f = Singularity::new(4, 3);
        for s in 0..10u64 {
            let input = singular_input(&enc, s);
            let run = run_sequential(&proto, &p, &input, s);
            assert!(run.output, "amplified protocol missed a singular input");
            assert_eq!(run.cost_bits(), proto.predicted_cost());
            assert_eq!(run.transcript.rounds(), 2 * 3 - 1);
        }
        for s in 0..10u64 {
            let input = random_input(&enc, 1000 + s);
            let run = run_sequential(&proto, &p, &input, s);
            assert_eq!(run.output, f.eval(&input));
        }
    }

    #[test]
    fn amplification_reduces_error_bound() {
        let inner = ModPrimeSingularity::new(4, 2, 4); // deliberately weak
        let one = AmplifiedModPrime::new(inner, 1);
        let three = AmplifiedModPrime::new(inner, 3);
        assert!(three.error_bound() < one.error_bound());
        assert!((three.error_bound() - one.error_bound().powi(3)).abs() < 1e-12);
        assert!(three.predicted_cost() > one.predicted_cost());
    }

    #[test]
    fn estimate_error_separates_sides() {
        let inner = ModPrimeSingularity::new(4, 2, 12);
        let enc = inner.enc;
        let p = Partition::pi_zero(&enc);
        let f = Singularity::new(4, 2);
        let inputs: Vec<BitString> = (0..6)
            .map(|i| {
                if i % 2 == 0 {
                    singular_input(&enc, i)
                } else {
                    random_input(&enc, i)
                }
            })
            .collect();
        let est = estimate_error(&inner, &p, &f, &inputs, 10);
        assert!(
            est.observed_one_sided(),
            "mod-prime must never miss singular inputs"
        );
        assert!(
            est.rate() <= 0.1,
            "error rate {} far above analysis",
            est.rate()
        );
        assert_eq!(est.yes_runs + est.no_runs, 60);
        assert!(est.yes_runs >= 30, "singular inputs present");
    }

    #[test]
    fn early_exit_on_nonsingular_witness() {
        // If round 1 already finds det != 0 mod p, the protocol stops
        // without paying for the remaining rounds.
        let inner = ModPrimeSingularity::new(4, 3, 15);
        let proto = AmplifiedModPrime::new(inner, 4);
        let enc = inner.enc;
        let p = Partition::pi_zero(&enc);
        let input = {
            // Identity matrix: robustly nonsingular mod every prime.
            let m = Matrix::from_fn(4, 4, |i, j| Integer::from(if i == j { 1i64 } else { 0 }));
            enc.encode(&m)
        };
        let run = run_sequential(&proto, &p, &input, 5);
        assert!(!run.output);
        assert_eq!(
            run.cost_bits(),
            inner.predicted_cost(),
            "should stop after round 1"
        );
    }
}
