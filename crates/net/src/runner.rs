//! Transported protocol runners: execute a two-party protocol with the
//! agents talking over a real transport, and return a [`RunResult`]
//! that must be *bit-identical* to `run_sequential` on the same
//! `(protocol, partition, input, seed)`.
//!
//! The guarantee holds by construction: every runner here drives the
//! same `ccmx_comm::run_agent` state machine as the in-process runners,
//! only the channel underneath changes. The `*_metered` variants also
//! return each endpoint's [`TransportStats`] so callers can assert that
//! the wire carried exactly `transcript.total_bits()` protocol bits.

use std::net::TcpListener;

use ccmx_comm::partition::Owner;
use ccmx_comm::protocol::{round_limit, run_agent, RunResult, Turn, TwoPartyProtocol};
use ccmx_comm::{BitString, Partition};

use crate::error::NetError;
use crate::transport::{
    mem_link_pair, AsChannel, TcpTransport, Transport, TransportConfig, TransportStats,
};

/// Drive both agents over an arbitrary connected transport pair,
/// propagating transport errors instead of panicking. After each agent
/// finishes, its transport is handed to a `finish` closure — identity
/// stats collection for the plain runners, recovery-traffic draining
/// for the chaos layer ([`crate::chaos`]).
#[allow(clippy::too_many_arguments)]
pub fn run_over_result<TA, TB, FA, FB, OA, OB>(
    proto: &dyn TwoPartyProtocol,
    partition: &Partition,
    input: &BitString,
    seed: u64,
    chan_a: TA,
    chan_b: TB,
    finish_a: FA,
    finish_b: FB,
) -> Result<(RunResult, OA, OB), NetError>
where
    TA: Transport + Send,
    TB: Transport + Send,
    FA: FnOnce(TA) -> Result<OA, NetError> + Send,
    FB: FnOnce(TB) -> Result<OB, NetError> + Send,
    OA: Send,
    OB: Send,
{
    assert_eq!(
        partition.len(),
        input.len(),
        "partition and input length mismatch"
    );
    let (share_a, share_b) = partition.split(input);
    let limit = round_limit(input.len());

    let (res_a, res_b) = std::thread::scope(|s| {
        let a = s.spawn(|| -> Result<(RunResult, OA), NetError> {
            let mut chan = AsChannel(chan_a);
            let r = run_agent(proto, partition, &share_a, Turn::A, seed, limit, &mut chan)
                .map_err(|e| NetError::Protocol(format!("agent A: {e}")))?;
            Ok((r, finish_a(chan.into_inner())?))
        });
        let b = s.spawn(|| -> Result<(RunResult, OB), NetError> {
            let mut chan = AsChannel(chan_b);
            let r = run_agent(proto, partition, &share_b, Turn::B, seed, limit, &mut chan)
                .map_err(|e| NetError::Protocol(format!("agent B: {e}")))?;
            Ok((r, finish_b(chan.into_inner())?))
        });
        (
            a.join().expect("agent A panicked"),
            b.join().expect("agent B panicked"),
        )
    });

    let (result_a, out_a) = res_a?;
    let (result_b, out_b) = res_b?;
    if result_a != result_b {
        return Err(NetError::Protocol(
            "the two agents disagree on the run result".to_string(),
        ));
    }
    Ok((result_a, out_a, out_b))
}

/// Drive both agents over an arbitrary connected transport pair.
fn run_over<TA, TB>(
    proto: &dyn TwoPartyProtocol,
    partition: &Partition,
    input: &BitString,
    seed: u64,
    chan_a: TA,
    chan_b: TB,
) -> (RunResult, TransportStats, TransportStats)
where
    TA: Transport + Send,
    TB: Transport + Send,
{
    let (result, stats_a, stats_b) = run_over_result(
        proto,
        partition,
        input,
        seed,
        chan_a,
        chan_b,
        |t: TA| Ok(t.stats()),
        |t: TB| Ok(t.stats()),
    )
    .expect("transported run failed");
    assert_eq!(
        stats_a.bits_total(),
        result.transcript.total_bits(),
        "wire metering diverged from the transcript"
    );
    (result, stats_a, stats_b)
}

/// Run over the in-memory framed link; returns per-endpoint stats.
pub fn run_mem_metered(
    proto: &dyn TwoPartyProtocol,
    partition: &Partition,
    input: &BitString,
    seed: u64,
) -> (RunResult, TransportStats, TransportStats) {
    let (chan_a, chan_b) = mem_link_pair(None);
    run_over(proto, partition, input, seed, chan_a, chan_b)
}

/// Run over a real TCP loopback connection; returns per-endpoint stats.
pub fn run_tcp_loopback_metered(
    proto: &dyn TwoPartyProtocol,
    partition: &Partition,
    input: &BitString,
    seed: u64,
) -> (RunResult, TransportStats, TransportStats) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
    let addr = listener.local_addr().expect("loopback listener address");
    let cfg = TransportConfig::default();

    // Accept on a helper thread so connect/accept cannot deadlock.
    let (accepted, connected) = std::thread::scope(|s| {
        let acceptor = s.spawn(move || {
            let (stream, _) = listener.accept().expect("accept loopback peer");
            TcpTransport::from_stream(stream, cfg).expect("wrap accepted stream")
        });
        let connected = TcpTransport::connect(addr, cfg).expect("connect loopback peer");
        (acceptor.join().expect("acceptor panicked"), connected)
    });

    run_over(proto, partition, input, seed, connected, accepted)
}

/// [`run_mem_metered`] with `run_sequential`'s signature, pluggable into
/// `ccmx_comm::meter::meter_inputs_with`.
pub fn run_mem_transport(
    proto: &dyn TwoPartyProtocol,
    partition: &Partition,
    input: &BitString,
    seed: u64,
) -> RunResult {
    run_mem_metered(proto, partition, input, seed).0
}

/// [`run_tcp_loopback_metered`] with `run_sequential`'s signature,
/// pluggable into `ccmx_comm::meter::meter_inputs_with`.
pub fn run_tcp_loopback(
    proto: &dyn TwoPartyProtocol,
    partition: &Partition,
    input: &BitString,
    seed: u64,
) -> RunResult {
    run_tcp_loopback_metered(proto, partition, input, seed).0
}

/// Sanity helper used by tests and the server: each endpoint's sent
/// bits must equal the transcript bits attributed to its agent.
pub fn endpoint_bits_consistent(
    result: &RunResult,
    stats_a: &TransportStats,
    stats_b: &TransportStats,
) -> bool {
    let a_bits = result.transcript.bits_from(Turn::A).len();
    let b_bits = result.transcript.bits_from(Turn::B).len();
    stats_a.bits_sent == a_bits
        && stats_b.bits_sent == b_bits
        && stats_a.bits_received == b_bits
        && stats_b.bits_received == a_bits
}

/// Count how many input positions each agent owns — convenience for
/// assembling interactive-session setups.
pub fn owned_positions(partition: &Partition, who: Owner) -> Vec<usize> {
    partition.positions_of(who)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccmx_comm::functions::{Equality, Singularity};
    use ccmx_comm::protocol::run_sequential;
    use ccmx_comm::protocols::{FingerprintEquality, ModPrimeSingularity, SendAll};
    use ccmx_comm::MatrixEncoding;

    fn assert_matches_sequential(
        proto: &dyn TwoPartyProtocol,
        partition: &Partition,
        input: &BitString,
        seed: u64,
    ) {
        let expected = run_sequential(proto, partition, input, seed);
        let (mem, ma, mb) = run_mem_metered(proto, partition, input, seed);
        assert_eq!(mem, expected, "mem transport diverged from sequential");
        assert!(endpoint_bits_consistent(&mem, &ma, &mb));
        let (tcp, ta, tb) = run_tcp_loopback_metered(proto, partition, input, seed);
        assert_eq!(tcp, expected, "tcp transport diverged from sequential");
        assert!(endpoint_bits_consistent(&tcp, &ta, &tb));
        assert_eq!(ta.bits_total(), expected.transcript.total_bits());
    }

    #[test]
    fn send_all_matches_sequential_over_both_transports() {
        let f = Singularity::new(2, 2);
        let enc = MatrixEncoding::new(2, 2);
        let partition = Partition::pi_zero(&enc);
        let proto = SendAll::new(f);
        for v in [0u64, 0b1010_1010, 0xff] {
            assert_matches_sequential(&proto, &partition, &BitString::from_u64(v, 8), 7 ^ v);
        }
    }

    #[test]
    fn mod_prime_matches_sequential_over_both_transports() {
        let proto = ModPrimeSingularity::new(2, 2, 20);
        let partition = Partition::pi_zero(&proto.enc);
        for v in [3u64, 0b1100_0011] {
            assert_matches_sequential(&proto, &partition, &BitString::from_u64(v, 8), 99 ^ v);
        }
    }

    #[test]
    fn fingerprint_matches_sequential_over_both_transports() {
        let proto = FingerprintEquality::new(16, 20);
        let partition = ccmx_comm::protocols::fingerprint::fixed_partition(16);
        let _ = Equality { half_bits: 16 };
        let equal = BitString::from_u64(0xabcd_abcd, 32);
        let unequal = BitString::from_u64(0xabcd_abce, 32);
        assert_matches_sequential(&proto, &partition, &equal, 1);
        assert_matches_sequential(&proto, &partition, &unequal, 2);
    }
}
