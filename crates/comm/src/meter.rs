//! Metering harnesses: run a protocol over input sweeps, check every
//! answer against the exact evaluator, and report worst/average cost.
//!
//! `Comm(f, π, P)` is a worst-case-over-inputs quantity; the harness
//! realizes it as `max` over an exhaustive sweep (small instances) or a
//! random sweep (larger ones), while simultaneously acting as a
//! correctness referee.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::bits::BitString;
use crate::functions::BooleanFunction;
use crate::partition::Partition;
use crate::protocol::{run_sequential, TwoPartyProtocol};

/// Report of a metering sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct MeterReport {
    /// Protocol name.
    pub protocol: &'static str,
    /// Inputs executed.
    pub trials: usize,
    /// Worst-case bits over the sweep.
    pub max_bits: usize,
    /// Best-case bits.
    pub min_bits: usize,
    /// Mean bits.
    pub mean_bits: f64,
    /// Worst-case rounds.
    pub max_rounds: usize,
    /// Number of inputs where the protocol's answer disagreed with the
    /// exact evaluator (0 for correct deterministic protocols; bounded by
    /// the analysis for randomized ones).
    pub errors: usize,
}

impl MeterReport {
    fn from_runs(protocol: &'static str, runs: &[(usize, usize, bool)]) -> Self {
        assert!(!runs.is_empty(), "metering sweep was empty");
        let max_bits = runs.iter().map(|r| r.0).max().unwrap();
        let min_bits = runs.iter().map(|r| r.0).min().unwrap();
        let mean_bits = runs.iter().map(|r| r.0 as f64).sum::<f64>() / runs.len() as f64;
        let max_rounds = runs.iter().map(|r| r.1).max().unwrap();
        let errors = runs.iter().filter(|r| !r.2).count();
        MeterReport {
            protocol,
            trials: runs.len(),
            max_bits,
            min_bits,
            mean_bits,
            max_rounds,
            errors,
        }
    }
}

/// Run the protocol on every input of the function's domain (guarded to
/// at most 2^22 inputs).
pub fn meter_exhaustive(
    proto: &dyn TwoPartyProtocol,
    partition: &Partition,
    f: &dyn BooleanFunction,
    seed: u64,
) -> MeterReport {
    let n = f.num_bits();
    assert!(n <= 22, "exhaustive metering capped at 22 input bits");
    let mut runs = Vec::with_capacity(1usize << n);
    for v in 0u64..(1u64 << n) {
        let input = BitString::from_u64(v, n);
        let r = run_sequential(proto, partition, &input, seed ^ v);
        runs.push((
            r.cost_bits(),
            r.transcript.rounds(),
            r.output == f.eval(&input),
        ));
    }
    MeterReport::from_runs(proto.name(), &runs)
}

/// Run the protocol on `trials` uniformly random inputs.
pub fn meter_random(
    proto: &dyn TwoPartyProtocol,
    partition: &Partition,
    f: &dyn BooleanFunction,
    trials: usize,
    seed: u64,
) -> MeterReport {
    let n = f.num_bits();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut runs = Vec::with_capacity(trials);
    for t in 0..trials {
        let input = BitString::from_bits((0..n).map(|_| rng.gen()).collect());
        let r = run_sequential(proto, partition, &input, seed.wrapping_add(t as u64));
        runs.push((
            r.cost_bits(),
            r.transcript.rounds(),
            r.output == f.eval(&input),
        ));
    }
    MeterReport::from_runs(proto.name(), &runs)
}

/// Run the protocol on caller-provided inputs (instance families like the
/// paper's restricted matrices).
pub fn meter_inputs(
    proto: &dyn TwoPartyProtocol,
    partition: &Partition,
    f: &dyn BooleanFunction,
    inputs: &[BitString],
    seed: u64,
) -> MeterReport {
    meter_inputs_with(&run_sequential, proto, partition, f, inputs, seed)
}

/// The runner seam: any executor with [`run_sequential`]'s signature.
///
/// `ccmx-net` passes TCP-transported executors through this to meter a
/// protocol *over real sockets* with the same referee; the reports must
/// agree bit-for-bit with the sequential runner's.
pub type Runner =
    dyn Fn(&dyn TwoPartyProtocol, &Partition, &BitString, u64) -> crate::protocol::RunResult;

/// [`meter_inputs`] with an explicit runner (sequential, or a wire
/// transport supplied by another crate).
pub fn meter_inputs_with(
    runner: &Runner,
    proto: &dyn TwoPartyProtocol,
    partition: &Partition,
    f: &dyn BooleanFunction,
    inputs: &[BitString],
    seed: u64,
) -> MeterReport {
    let runs: Vec<(usize, usize, bool)> = inputs
        .iter()
        .enumerate()
        .map(|(i, input)| {
            let r = runner(proto, partition, input, seed.wrapping_add(i as u64));
            (
                r.cost_bits(),
                r.transcript.rounds(),
                r.output == f.eval(input),
            )
        })
        .collect();
    MeterReport::from_runs(proto.name(), &runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::MatrixEncoding;
    use crate::functions::{Equality, Singularity};
    use crate::protocols::{FingerprintEquality, ModPrimeSingularity, SendAll};

    #[test]
    fn send_all_meters_exact_half() {
        let f = Singularity::new(2, 2);
        let enc = MatrixEncoding::new(2, 2);
        let p = Partition::pi_zero(&enc);
        let proto = SendAll::new(f);
        let rep = meter_exhaustive(&proto, &p, &Singularity::new(2, 2), 0);
        assert_eq!(rep.errors, 0);
        assert_eq!(rep.max_bits, 4);
        assert_eq!(rep.min_bits, 4);
        assert_eq!(rep.trials, 256);
        assert_eq!(rep.max_rounds, 1);
    }

    #[test]
    fn randomized_meter_reports_low_errors() {
        let proto = ModPrimeSingularity::new(2, 2, 25);
        let enc = proto.enc;
        let p = Partition::pi_zero(&enc);
        let rep = meter_exhaustive(&proto, &p, &Singularity::new(2, 2), 7);
        assert_eq!(
            rep.errors, 0,
            "2^-25 error should not materialize in 256 trials"
        );
        assert_eq!(rep.max_bits, proto.predicted_cost());
    }

    #[test]
    fn random_meter_runs() {
        let f = Equality { half_bits: 32 };
        let proto = FingerprintEquality::new(32, 25);
        let p = crate::protocols::fingerprint::fixed_partition(32);
        let rep = meter_random(&proto, &p, &f, 50, 3);
        assert_eq!(rep.trials, 50);
        assert_eq!(rep.errors, 0);
        assert_eq!(rep.max_bits, proto.predicted_cost());
    }

    #[test]
    fn meter_inputs_uses_given_instances() {
        let f = Equality { half_bits: 2 };
        let proto = SendAll::new(Equality { half_bits: 2 });
        let p = crate::protocols::fingerprint::fixed_partition(2);
        let inputs = vec![
            BitString::from_u64(0b0101, 4),
            BitString::from_u64(0b1101, 4),
        ];
        let rep = meter_inputs(&proto, &p, &f, &inputs, 0);
        assert_eq!(rep.trials, 2);
        assert_eq!(rep.errors, 0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_sweep_rejected() {
        let f = Equality { half_bits: 2 };
        let proto = SendAll::new(Equality { half_bits: 2 });
        let p = crate::protocols::fingerprint::fixed_partition(2);
        let _ = meter_inputs(&proto, &p, &f, &[], 0);
    }
}
