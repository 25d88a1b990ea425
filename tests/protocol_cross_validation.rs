//! Cross-validation of the protocol layer: the in-memory framed runner
//! (`run_mem_transport`: two agent threads exchanging encoded, framed
//! messages) and the sequential runner must be observationally
//! identical; randomized protocols must respect their error analyses;
//! and broken protocols must be rejected by the runner's backstops.

use ccmx::comm::meter::{meter_exhaustive, meter_random};
use ccmx::comm::partition::Owner;
use ccmx::comm::protocol::{AgentCtx, RunResult, Step, Transcript, Turn, TwoPartyProtocol};
use ccmx::comm::protocols::fingerprint::fixed_partition;
use ccmx::comm::protocols::{BisectEquality, ModPrimeSolvability};
use ccmx::comm::randomized::AmplifiedModPrime;
use ccmx::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Run `proto` both ways and require bit-identical results (the framed
/// runner also checks that both agents agree and that the wire metered
/// exactly the transcript's bits). Returns the sequential result.
fn assert_runners_agree(
    proto: &dyn TwoPartyProtocol,
    p: &Partition,
    input: &BitString,
    seed: u64,
) -> RunResult {
    let expected = run_sequential(proto, p, input, seed);
    assert_eq!(
        run_mem_transport(proto, p, input, seed),
        expected,
        "{} diverged over the framed link",
        proto.name()
    );
    expected
}

/// A toy protocol: A sends its share verbatim, B outputs the XOR of the
/// whole input.
struct XorProtocol;

impl TwoPartyProtocol for XorProtocol {
    fn step(&self, ctx: &AgentCtx<'_>, _rng: &mut StdRng) -> Step {
        match ctx.turn {
            Turn::A => Step::Send(ctx.share.to_bitstring()),
            Turn::B => {
                let received = ctx.transcript.bits_from(Turn::A);
                let ones =
                    received.count_ones() + ctx.share.values().iter().filter(|&&b| b).count();
                Step::Output(ones % 2 == 1)
            }
        }
    }
    fn name(&self) -> &'static str {
        "xor-toy"
    }
}

/// `x` followed by `y`, each `half` bits: an equality input.
fn halves(x: u64, y: u64, half: usize) -> BitString {
    let mut input = BitString::from_u64(x, half);
    input.extend(&BitString::from_u64(y, half));
    input
}

#[test]
fn runners_agree_on_every_protocol_function_pair() {
    let mut rng = StdRng::seed_from_u64(2);
    // Singularity / send-all.
    {
        let f = Singularity::new(4, 2);
        let enc = f.enc;
        let proto = SendAll::new(f);
        for trial in 0..10u64 {
            let p = Partition::random_even(enc.total_bits(), &mut rng);
            let bits: Vec<bool> = (0..enc.total_bits()).map(|_| rng.gen()).collect();
            let input = BitString::from_bits(bits);
            assert_runners_agree(&proto, &p, &input, trial);
        }
    }
    // Singularity / mod-prime (randomized: same seed → same transcript).
    {
        let proto = ModPrimeSingularity::new(4, 3, 20);
        let enc = proto.enc;
        let p = Partition::pi_zero(&enc);
        for trial in 0..10u64 {
            let bits: Vec<bool> = (0..enc.total_bits()).map(|_| rng.gen()).collect();
            let input = BitString::from_bits(bits);
            assert_runners_agree(&proto, &p, &input, trial);
        }
        // A singular 2×2 instance.
        let proto = ModPrimeSingularity::new(2, 2, 20);
        let p = Partition::pi_zero(&proto.enc);
        let m = ccmx::linalg::matrix::int_matrix(&[&[1, 2], &[3, 3]]);
        assert_runners_agree(&proto, &p, &proto.enc.encode(&m), 4);
    }
    // Equality / fingerprint.
    {
        let proto = FingerprintEquality::new(32, 20);
        let p = fixed_partition(32);
        for trial in 0..10u64 {
            let bits: Vec<bool> = (0..64).map(|_| rng.gen()).collect();
            let input = BitString::from_bits(bits);
            assert_runners_agree(&proto, &p, &input, trial);
        }
        let proto = FingerprintEquality::new(16, 20);
        let p = fixed_partition(16);
        assert_runners_agree(&proto, &p, &halves(0xABCD, 0xABCD, 16), 2);
    }
    // Parity / a toy protocol on an alternating partition.
    {
        let p = Partition::new(
            (0..10)
                .map(|i| if i % 2 == 0 { Owner::A } else { Owner::B })
                .collect(),
        );
        for v in [0u64, 1, 513, 1023, 700] {
            assert_runners_agree(&XorProtocol, &p, &BitString::from_u64(v, 10), 42);
        }
    }
    // Equality / send-all on a random even partition.
    {
        let proto = SendAll::new(Equality { half_bits: 6 });
        let p = Partition::random_even(12, &mut StdRng::seed_from_u64(5));
        for v in [0u64, 63 << 6 | 63, 0b000001_000001, 0b100000_000001] {
            assert_runners_agree(&proto, &p, &BitString::from_u64(v, 12), 1);
        }
    }
    // Equality / bisect, whose unequal inputs take a full bisection.
    {
        let proto = BisectEquality::new(16, 25);
        let p = fixed_partition(16);
        for (x, y) in [(0xFFFFu64, 0xFFFFu64), (0xFFFF, 0xFFFE), (0, 0x8000)] {
            let run = assert_runners_agree(&proto, &p, &halves(x, y, 16), 9);
            if x != y {
                assert!(
                    run.transcript.rounds() >= 2 * proto.rounds() - 1,
                    "expected a many-round run, got {} rounds",
                    run.transcript.rounds()
                );
            }
        }
    }
    // Solvability / mod-prime: b is a column of A, so A·x = b is solvable.
    {
        let f = Solvability::new(2, 2);
        let proto = ModPrimeSolvability::new(2, 2, 20);
        let p = Partition::random_even(f.num_bits(), &mut StdRng::seed_from_u64(3));
        let mut sys = StdRng::seed_from_u64(5);
        let a = Matrix::from_fn(2, 2, |_, _| Integer::from(sys.gen_range(0..4i64)));
        let j = sys.gen_range(0..2);
        let b: Vec<Integer> = (0..2).map(|i| a[(i, j)].clone()).collect();
        assert_runners_agree(&proto, &p, &f.encode(&a, &b), 8);
    }
    // Singularity / amplified mod-prime (three AND-voted rounds).
    {
        let inner = ModPrimeSingularity::new(2, 2, 10);
        let proto = AmplifiedModPrime::new(inner, 3);
        let p = Partition::pi_zero(&inner.enc);
        let mut bits = StdRng::seed_from_u64(7);
        let input = BitString::from_bits((0..inner.enc.total_bits()).map(|_| bits.gen()).collect());
        assert_runners_agree(&proto, &p, &input, 3);
    }
}

#[test]
fn deterministic_protocols_are_exhaustively_correct() {
    for (dim, k) in [(2usize, 1u32), (2, 2), (4, 1)] {
        let f = Singularity::new(dim, k);
        let enc = f.enc;
        let proto = SendAll::new(Singularity::new(dim, k));
        for p in [Partition::pi_zero(&enc), Partition::row_split(&enc)] {
            let rep = meter_exhaustive(&proto, &p, &f, 7);
            assert_eq!(rep.errors, 0, "send-all erred at dim={dim}, k={k}");
            assert_eq!(rep.max_bits, p.count_a());
            assert_eq!(rep.min_bits, p.count_a());
        }
    }
}

#[test]
fn randomized_protocol_error_rate_within_analysis() {
    // At security 10 the error bound is ≈ 2^-10; over 256 exhaustive
    // inputs we allow a small number of errors (each input is one
    // Bernoulli draw; 0–2 errors is the plausible band, >8 would mean
    // the analysis is wrong by an order of magnitude).
    let proto = ModPrimeSingularity::new(2, 4, 10);
    let enc = proto.enc;
    let p = Partition::pi_zero(&enc);
    let f = Singularity::new(2, 4);
    let rep = meter_exhaustive(&proto, &p, &f, 13);
    assert!(
        rep.errors <= 8,
        "error count {} far above the 2^-10 analysis over {} trials",
        rep.errors,
        rep.trials
    );
    // And the cost is input-independent.
    assert_eq!(rep.max_bits, rep.min_bits);
    assert_eq!(rep.max_bits, proto.predicted_cost());
}

#[test]
fn one_sidedness_of_randomized_protocol() {
    // Every singular input must be classified singular, for many seeds.
    let proto = ModPrimeSingularity::new(4, 4, 10);
    let enc = proto.enc;
    let p = Partition::pi_zero(&enc);
    let mut rng = StdRng::seed_from_u64(3);
    for t in 0..40u64 {
        let mut m = ccmx::linalg::Matrix::from_fn(4, 4, |_, _| {
            ccmx_bigint::Integer::from(rng.gen_range(0i64..16))
        });
        for r in 0..4 {
            m[(r, 3)] = m[(r, 1)].clone();
        }
        let input = enc.encode(&m);
        let run = run_sequential(&proto, &p, &input, t);
        assert!(run.output, "one-sided error violated at seed {t}");
    }
}

/// A protocol that "lies": it sends fewer bits than needed and guesses.
/// The metering harness must report its errors rather than its cost
/// savings — failure injection for the referee.
struct GuessingProtocol;

impl TwoPartyProtocol for GuessingProtocol {
    fn step(&self, ctx: &AgentCtx<'_>, _rng: &mut StdRng) -> Step {
        match ctx.turn {
            Turn::A => Step::Send(BitString::from_u64(0, 1)),
            Turn::B => Step::Output(false), // always guess "nonsingular"
        }
    }
    fn name(&self) -> &'static str {
        "guessing"
    }
}

#[test]
fn referee_catches_cheating_protocols() {
    let f = Singularity::new(2, 1);
    let enc = f.enc;
    let p = Partition::pi_zero(&enc);
    let rep = meter_exhaustive(&GuessingProtocol, &p, &f, 0);
    // The all-zero matrix (among others) is singular; guessing "false"
    // must be flagged.
    assert!(
        rep.errors > 0,
        "referee failed to catch the cheating protocol"
    );
    assert_eq!(rep.max_bits, 1);
}

/// A protocol whose agents disagree would deadlock/diverge; the round
/// limit must fire rather than hang.
struct PingPongForever;

impl TwoPartyProtocol for PingPongForever {
    fn step(&self, _ctx: &AgentCtx<'_>, _rng: &mut StdRng) -> Step {
        Step::Send(BitString::from_u64(1, 1))
    }
    fn name(&self) -> &'static str {
        "ping-pong-forever"
    }
}

#[test]
#[should_panic(expected = "round limit")]
fn round_limit_stops_divergent_protocols() {
    let enc = MatrixEncoding::new(2, 1);
    let p = Partition::pi_zero(&enc);
    let input = BitString::zeros(4);
    let _ = run_sequential(&PingPongForever, &p, &input, 0);
}

#[test]
fn transcripts_are_reconstructible_by_both_agents() {
    // The Transcripts both agents assemble independently in the framed
    // runner are asserted equal inside run_mem_transport; here we
    // additionally check the public accounting API.
    let f = Singularity::new(2, 2);
    let enc = f.enc;
    let p = Partition::pi_zero(&enc);
    let proto = SendAll::new(f);
    let input = BitString::from_u64(0xAB, enc.total_bits());
    let run = run_mem_transport(&proto, &p, &input, 0);
    let t: &Transcript = &run.transcript;
    assert_eq!(t.rounds(), 1);
    assert_eq!(t.bits_from(Turn::A).len(), p.count_a());
    assert_eq!(t.bits_from(Turn::B).len(), 0);
    assert_eq!(run.announced_by, Turn::B);
}

#[test]
fn meter_random_respects_trial_counts() {
    let f = Equality { half_bits: 8 };
    let proto = SendAll::new(Equality { half_bits: 8 });
    let p = fixed_partition(8);
    let rep = meter_random(&proto, &p, &f, 33, 5);
    assert_eq!(rep.trials, 33);
    assert_eq!(rep.errors, 0);
}
