//! Deterministic fault injection underneath the bit-metering layer.
//!
//! The paper's protocols are a *measurement instrument*: a run is only
//! meaningful if the wire carried exactly `Transcript::total_bits()`
//! protocol bits. This module stress-tests that invariant by injecting
//! a seeded, reproducible schedule of faults — bit flips, truncations
//! (mid-frame cuts), duplicate deliveries, outright drops, delays and
//! stalls — *between* the metering layer and the raw byte link, then
//! recovering transparently so the metered count never moves.
//!
//! Layering:
//!
//! * [`FrameLink`] — the raw byte link: moves `(kind, payload)` frames
//!   and nothing else. Implemented by [`MemFrameLink`] (in-process
//!   channels) and by [`crate::TcpTransport`] (a real socket).
//! * [`FaultTransport`] — wraps a `FrameLink` and implements
//!   [`Transport`]. Every protocol message is sealed into a *chaos
//!   envelope* (`seq` + FNV-1a checksum + encoded message) and sent as
//!   a [`wire::KIND_CHAOS`] frame. The configured [`FaultPlan`] then
//!   mangles the envelope **payload only** — the outer frame header
//!   stays intact, so a TCP stream never desynchronizes and recovery
//!   traffic can flow on the same connection. A true socket teardown is
//!   modeled as envelope truncation for exactly this reason; the clean
//!   EOF vs mid-frame EOF distinction at the outer layer is covered by
//!   `wire::read_frame`'s own tests.
//!
//! Recovery is receiver-driven: corrupt or missing envelopes trigger a
//! `NACK(expected_seq)` back to the sender, which retransmits from its
//! send log; every third transmission of the same sequence number is
//! forced clean, so progress is guaranteed no matter the fault rates.
//! Duplicates (injected or caused by spurious NACKs) are dropped by
//! sequence number; out-of-order arrivals wait in a reorder buffer.
//!
//! **Metering is exactly-once by construction**: `bits_sent` ticks when
//! a message enters the send log (not per transmission) and
//! `bits_received` ticks when the in-order message is handed to the
//! agent (not per arrival). Retransmissions and duplicates only inflate
//! `raw_bytes_*`, never the metered protocol bits — which is the
//! invariant [`crate::chaos`] soaks assert as *zero divergence*.

use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

use ccmx_comm::protocol::WireMsg;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::NetError;
use crate::transport::{mem_link_pair, MemFrameLink, TcpTransport, Transport, TransportStats};
use crate::wire::{self, payload_bits, WireCodec, KIND_CHAOS};

// ----------------------------------------------------------------------
// The raw frame link
// ----------------------------------------------------------------------

/// A raw bidirectional link moving `(kind, payload)` frames with no
/// metering and no delivery guarantees beyond what the medium gives.
/// [`FaultTransport`] builds its sequenced, checksummed envelope
/// protocol on top of this.
///
/// `recv_link` must return [`NetError::Timeout`] when nothing arrives
/// within the link's configured read timeout — the fault layer uses
/// that tick to request retransmission of missing frames.
pub trait FrameLink {
    /// Send one frame.
    fn send_link(&mut self, kind: u8, payload: &[u8]) -> Result<(), NetError>;
    /// Receive the next frame, or [`NetError::Timeout`] after the
    /// link's read timeout.
    fn recv_link(&mut self) -> Result<(u8, Vec<u8>), NetError>;
}

/// An in-process link is a frame link: build the pair with a receive
/// timeout ([`fault_mem_pair`] passes [`DEFAULT_NACK_INTERVAL`]) so the
/// fault layer's NACK clock ticks.
impl FrameLink for MemFrameLink {
    fn send_link(&mut self, kind: u8, payload: &[u8]) -> Result<(), NetError> {
        self.send_frame(kind, payload)
    }

    fn recv_link(&mut self) -> Result<(u8, Vec<u8>), NetError> {
        self.recv_frame()
    }
}

/// A TCP socket is a frame link: construct it with a short
/// [`crate::TransportConfig::read_timeout`] so the fault layer's NACK
/// clock ticks at a useful rate.
impl FrameLink for TcpTransport {
    fn send_link(&mut self, kind: u8, payload: &[u8]) -> Result<(), NetError> {
        self.send_frame(kind, payload)
    }

    fn recv_link(&mut self) -> Result<(u8, Vec<u8>), NetError> {
        self.recv_frame()
    }
}

// ----------------------------------------------------------------------
// Fault schedule
// ----------------------------------------------------------------------

/// One kind of injected fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Flip one bit somewhere in the envelope.
    Flip,
    /// Cut the envelope short (models a mid-frame disconnect).
    Truncate,
    /// Deliver the envelope twice.
    Duplicate,
    /// Silently discard the envelope.
    Drop,
    /// Deliver after a short random delay.
    Delay,
    /// Deliver after a long pause (provoke the peer's NACK clock).
    Stall,
}

/// Per-transmission fault probabilities, in permille, plus the seed
/// that makes the whole schedule reproducible. The six rates must sum
/// to at most 1000; the remainder is the clean-delivery probability.
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    /// Seed for the deterministic fault schedule.
    pub seed: u64,
    /// Permille of transmissions that get one bit flipped.
    pub flip_permille: u32,
    /// Permille of transmissions cut short mid-envelope.
    pub truncate_permille: u32,
    /// Permille of transmissions delivered twice.
    pub duplicate_permille: u32,
    /// Permille of transmissions silently dropped.
    pub drop_permille: u32,
    /// Permille of transmissions delayed by up to [`Self::max_delay`].
    pub delay_permille: u32,
    /// Permille of transmissions stalled for [`Self::stall`].
    pub stall_permille: u32,
    /// Upper bound for an injected delay.
    pub max_delay: Duration,
    /// Length of an injected stall; should exceed the peer's NACK
    /// clock so stalls exercise the spurious-retransmit path.
    pub stall: Duration,
}

impl FaultConfig {
    /// No faults at all: the envelope protocol runs but every
    /// transmission is clean. The pass-through baseline.
    pub fn quiet(seed: u64) -> Self {
        FaultConfig {
            seed,
            flip_permille: 0,
            truncate_permille: 0,
            duplicate_permille: 0,
            drop_permille: 0,
            delay_permille: 0,
            stall_permille: 0,
            max_delay: Duration::ZERO,
            stall: Duration::ZERO,
        }
    }

    /// Moderate chaos: roughly one transmission in five is faulted.
    pub fn moderate(seed: u64) -> Self {
        FaultConfig {
            flip_permille: 60,
            truncate_permille: 40,
            duplicate_permille: 50,
            drop_permille: 40,
            delay_permille: 20,
            stall_permille: 10,
            max_delay: Duration::from_micros(500),
            stall: Duration::from_millis(25),
            ..FaultConfig::quiet(seed)
        }
    }

    /// Heavy chaos: roughly half of all transmissions are faulted.
    pub fn aggressive(seed: u64) -> Self {
        FaultConfig {
            flip_permille: 160,
            truncate_permille: 100,
            duplicate_permille: 120,
            drop_permille: 90,
            delay_permille: 20,
            stall_permille: 10,
            max_delay: Duration::from_micros(500),
            stall: Duration::from_millis(25),
            ..FaultConfig::quiet(seed)
        }
    }

    fn fault_permille(&self) -> u32 {
        self.flip_permille
            + self.truncate_permille
            + self.duplicate_permille
            + self.drop_permille
            + self.delay_permille
            + self.stall_permille
    }
}

/// The deterministic fault schedule: a seeded RNG mapped through the
/// configured permille rates. Each decision consumes exactly two RNG
/// draws (the roll and an auxiliary word), so the schedule is a pure
/// function of `(seed, decision index)` regardless of which faults
/// fire.
pub struct FaultPlan {
    rng: StdRng,
    config: FaultConfig,
}

impl FaultPlan {
    /// Build the schedule; panics if the fault rates exceed 1000‰.
    pub fn new(config: FaultConfig) -> Self {
        assert!(
            config.fault_permille() <= 1000,
            "fault rates sum to {}‰ > 1000‰",
            config.fault_permille()
        );
        FaultPlan {
            rng: StdRng::seed_from_u64(config.seed),
            config,
        }
    }

    /// Next scheduled action: `None` for a clean delivery, or a fault
    /// kind plus an auxiliary random word (bit position, cut point,
    /// delay scale — interpretation depends on the kind).
    ///
    /// Not an [`Iterator`]: `None` means "this transmission is clean",
    /// not "the schedule ended" — the schedule is infinite.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(FaultKind, u64)> {
        let roll: u32 = self.rng.gen_range(0..1000u32);
        let aux: u64 = self.rng.gen();
        let c = &self.config;
        let mut edge = c.flip_permille;
        if roll < edge {
            return Some((FaultKind::Flip, aux));
        }
        edge += c.truncate_permille;
        if roll < edge {
            return Some((FaultKind::Truncate, aux));
        }
        edge += c.duplicate_permille;
        if roll < edge {
            return Some((FaultKind::Duplicate, aux));
        }
        edge += c.drop_permille;
        if roll < edge {
            return Some((FaultKind::Drop, aux));
        }
        edge += c.delay_permille;
        if roll < edge {
            return Some((FaultKind::Delay, aux));
        }
        edge += c.stall_permille;
        if roll < edge {
            return Some((FaultKind::Stall, aux));
        }
        None
    }
}

/// Per-endpoint fault bookkeeping: what was injected on the send side
/// and what the recovery machinery did about the peer's injections.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Bit flips injected into outgoing envelopes.
    pub injected_flips: u64,
    /// Envelopes cut short on send.
    pub injected_truncations: u64,
    /// Envelopes delivered twice on purpose.
    pub injected_duplicates: u64,
    /// Envelopes silently dropped on send.
    pub injected_drops: u64,
    /// Envelopes delayed on send.
    pub injected_delays: u64,
    /// Envelopes stalled on send.
    pub injected_stalls: u64,
    /// Incoming envelopes rejected as corrupt (checksum or structure).
    pub corrupt_detected: u64,
    /// Incoming envelopes dropped as duplicates.
    pub duplicates_dropped: u64,
    /// Retransmission requests sent to the peer.
    pub nacks_sent: u64,
    /// Envelopes retransmitted at the peer's request.
    pub retransmits: u64,
}

impl FaultStats {
    /// Total faults injected on this endpoint's send side.
    pub fn injected_total(&self) -> u64 {
        self.injected_flips
            + self.injected_truncations
            + self.injected_duplicates
            + self.injected_drops
            + self.injected_delays
            + self.injected_stalls
    }
}

// ----------------------------------------------------------------------
// Chaos envelope codec
// ----------------------------------------------------------------------

const TAG_DATA: u8 = 0;
const TAG_NACK: u8 = 1;
/// tag + seq + checksum.
const DATA_HEADER: usize = 1 + 8 + 8;
const NACK_LEN: usize = 1 + 8;

/// FNV-1a over the sequence number and the inner payload. Each step
/// `h ← (h ⊕ byte)·p` is injective in `h`, so any single corrupted
/// byte in an equal-length envelope is detected with certainty;
/// length-changing corruption is caught structurally or with
/// probability `1 − 2⁻⁶⁴`.
fn fnv1a64(seq: u64, inner: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in seq.to_le_bytes().into_iter().chain(inner.iter().copied()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn data_envelope(seq: u64, inner: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(DATA_HEADER + inner.len());
    out.push(TAG_DATA);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&fnv1a64(seq, inner).to_le_bytes());
    out.extend_from_slice(inner);
    out
}

fn nack_envelope(seq: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(NACK_LEN);
    out.push(TAG_NACK);
    out.extend_from_slice(&seq.to_le_bytes());
    out
}

enum Envelope {
    Data { seq: u64, inner: Vec<u8> },
    Nack { seq: u64 },
    Corrupt(&'static str),
}

fn parse_envelope(payload: &[u8]) -> Envelope {
    let le8 = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8-byte slice"));
    match payload.first() {
        Some(&TAG_DATA) if payload.len() >= DATA_HEADER => {
            let seq = le8(&payload[1..9]);
            let checksum = le8(&payload[9..17]);
            let inner = &payload[DATA_HEADER..];
            if fnv1a64(seq, inner) == checksum {
                Envelope::Data {
                    seq,
                    inner: inner.to_vec(),
                }
            } else {
                Envelope::Corrupt("checksum mismatch")
            }
        }
        Some(&TAG_DATA) => Envelope::Corrupt("data envelope shorter than its header"),
        Some(&TAG_NACK) if payload.len() == NACK_LEN => Envelope::Nack {
            seq: le8(&payload[1..9]),
        },
        Some(&TAG_NACK) => Envelope::Corrupt("nack envelope of the wrong length"),
        Some(_) => Envelope::Corrupt("unknown envelope tag"),
        None => Envelope::Corrupt("empty envelope"),
    }
}

// ----------------------------------------------------------------------
// The fault transport
// ----------------------------------------------------------------------

/// Default total budget a `recv_wire` call spends waiting (including
/// recovery round trips) before giving up.
pub const DEFAULT_RECV_DEADLINE: Duration = Duration::from_secs(10);

/// Default NACK clock for [`fault_mem_pair`] links.
pub const DEFAULT_NACK_INTERVAL: Duration = Duration::from_millis(10);

/// A [`Transport`] that injects a deterministic fault schedule into
/// every envelope it transmits, and transparently recovers from the
/// peer's injections — without ever perturbing the metered protocol
/// bit count. See the module docs for the envelope protocol.
pub struct FaultTransport<L: FrameLink> {
    link: L,
    plan: FaultPlan,
    stats: TransportStats,
    fstats: FaultStats,
    next_send_seq: u64,
    next_recv_seq: u64,
    /// Inner (encoded message) bytes of everything sent, by sequence
    /// number, for NACK-driven retransmission.
    sent_log: Vec<Vec<u8>>,
    /// Transmission count per sequence number; every third attempt is
    /// forced clean so recovery always terminates.
    attempts: Vec<u32>,
    /// Out-of-order arrivals waiting for the gap to fill.
    reorder: BTreeMap<u64, Vec<u8>>,
    /// In-order payloads not yet handed to the agent.
    ready: VecDeque<Vec<u8>>,
    recv_deadline: Duration,
}

impl<L: FrameLink> FaultTransport<L> {
    /// Wrap a frame link with the given fault schedule.
    pub fn new(link: L, config: FaultConfig) -> Self {
        FaultTransport {
            link,
            plan: FaultPlan::new(config),
            stats: TransportStats::default(),
            fstats: FaultStats::default(),
            next_send_seq: 0,
            next_recv_seq: 0,
            sent_log: Vec::new(),
            attempts: Vec::new(),
            reorder: BTreeMap::new(),
            ready: VecDeque::new(),
            recv_deadline: DEFAULT_RECV_DEADLINE,
        }
    }

    /// Bound the total time one `recv_wire` call may spend waiting and
    /// recovering before reporting [`NetError::Timeout`].
    pub fn set_recv_deadline(&mut self, deadline: Duration) {
        self.recv_deadline = deadline;
    }

    /// Fault bookkeeping so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.fstats
    }

    /// Unwrap the underlying link.
    pub fn into_inner(self) -> L {
        self.link
    }

    fn note(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::Flip => {
                self.fstats.injected_flips += 1;
                ccmx_obs::counter!("ccmx_fault_injected_total", "fault" => "flip").inc();
            }
            FaultKind::Truncate => {
                self.fstats.injected_truncations += 1;
                ccmx_obs::counter!("ccmx_fault_injected_total", "fault" => "truncate").inc();
            }
            FaultKind::Duplicate => {
                self.fstats.injected_duplicates += 1;
                ccmx_obs::counter!("ccmx_fault_injected_total", "fault" => "duplicate").inc();
            }
            FaultKind::Drop => {
                self.fstats.injected_drops += 1;
                ccmx_obs::counter!("ccmx_fault_injected_total", "fault" => "drop").inc();
            }
            FaultKind::Delay => {
                self.fstats.injected_delays += 1;
                ccmx_obs::counter!("ccmx_fault_injected_total", "fault" => "delay").inc();
            }
            FaultKind::Stall => {
                self.fstats.injected_stalls += 1;
                ccmx_obs::counter!("ccmx_fault_injected_total", "fault" => "stall").inc();
            }
        }
    }

    /// Put one envelope on the link, counting its raw framed bytes.
    fn put(&mut self, envelope: &[u8]) -> Result<(), NetError> {
        self.stats.raw_bytes_sent += wire::HEADER_BYTES + envelope.len();
        self.link.send_link(KIND_CHAOS, envelope)
    }

    /// Transmit (or retransmit) the logged message `seq`, applying the
    /// next scheduled fault — except that every third attempt for the
    /// same sequence number is forced clean, so NACK-driven recovery
    /// terminates under any fault rates.
    fn transmit(&mut self, seq: u64) -> Result<(), NetError> {
        let idx = usize::try_from(seq).expect("sequence number fits usize");
        let attempt = self.attempts[idx];
        self.attempts[idx] += 1;
        let envelope = data_envelope(seq, &self.sent_log[idx]);
        let action = if attempt % 3 == 2 {
            None
        } else {
            self.plan.next()
        };
        match action {
            None => self.put(&envelope),
            Some((FaultKind::Flip, aux)) => {
                self.note(FaultKind::Flip);
                let mut env = envelope;
                let bit = (aux % (env.len() as u64 * 8)) as usize;
                env[bit / 8] ^= 1 << (bit % 8);
                self.put(&env)
            }
            Some((FaultKind::Truncate, aux)) => {
                self.note(FaultKind::Truncate);
                let mut env = envelope;
                let keep = (aux % env.len() as u64) as usize;
                env.truncate(keep);
                self.put(&env)
            }
            Some((FaultKind::Duplicate, _)) => {
                self.note(FaultKind::Duplicate);
                self.put(&envelope)?;
                self.put(&envelope)
            }
            Some((FaultKind::Drop, _)) => {
                self.note(FaultKind::Drop);
                Ok(())
            }
            Some((FaultKind::Delay, aux)) => {
                self.note(FaultKind::Delay);
                let cap = self.plan.config.max_delay.as_micros() as u64;
                std::thread::sleep(Duration::from_micros(aux % (cap + 1)));
                self.put(&envelope)
            }
            Some((FaultKind::Stall, _)) => {
                self.note(FaultKind::Stall);
                std::thread::sleep(self.plan.config.stall);
                self.put(&envelope)
            }
        }
    }

    /// Ask the peer to retransmit everything from `seq` on.
    fn send_nack(&mut self, seq: u64) -> Result<(), NetError> {
        self.fstats.nacks_sent += 1;
        ccmx_obs::counter!("ccmx_fault_nacks_total").inc();
        let env = nack_envelope(seq);
        self.put(&env)
    }

    /// Process one incoming chaos envelope: deliver, buffer, dedup,
    /// answer a NACK, or reject corruption (and NACK for a clean copy).
    fn handle_envelope(&mut self, payload: &[u8]) -> Result<(), NetError> {
        match parse_envelope(payload) {
            Envelope::Corrupt(_why) => {
                self.fstats.corrupt_detected += 1;
                ccmx_obs::counter!("ccmx_fault_corrupt_detected_total").inc();
                self.send_nack(self.next_recv_seq)
            }
            Envelope::Nack { seq } => {
                if seq < self.next_send_seq {
                    self.fstats.retransmits += 1;
                    ccmx_obs::counter!("ccmx_fault_retransmits_total").inc();
                    self.transmit(seq)
                } else {
                    // The peer is waiting for a message the protocol
                    // has not produced yet; its NACK clock fired early.
                    Ok(())
                }
            }
            Envelope::Data { seq, inner } => {
                if seq < self.next_recv_seq || self.reorder.contains_key(&seq) {
                    self.fstats.duplicates_dropped += 1;
                    ccmx_obs::counter!("ccmx_fault_duplicates_dropped_total").inc();
                    Ok(())
                } else if seq == self.next_recv_seq {
                    self.ready.push_back(inner);
                    self.next_recv_seq += 1;
                    while let Some(next) = self.reorder.remove(&self.next_recv_seq) {
                        self.ready.push_back(next);
                        self.next_recv_seq += 1;
                    }
                    Ok(())
                } else {
                    self.reorder.insert(seq, inner);
                    self.send_nack(self.next_recv_seq)
                }
            }
        }
    }

    /// Pump the link until at least one in-order inner payload sits in
    /// `ready` or `deadline` passes, running the full recovery protocol
    /// (NACKs on silence, retransmits on the peer's NACKs) meanwhile.
    fn fill_ready(&mut self, deadline: Instant) -> Result<(), NetError> {
        loop {
            if !self.ready.is_empty() {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(NetError::Timeout);
            }
            match self.link.recv_link() {
                Ok((KIND_CHAOS, payload)) => {
                    self.stats.raw_bytes_received += wire::HEADER_BYTES + payload.len();
                    self.handle_envelope(&payload)?;
                }
                Ok((kind, _)) => {
                    return Err(NetError::Protocol(format!(
                        "chaos link got unexpected frame kind {kind}"
                    )))
                }
                Err(NetError::Timeout) => {
                    // Nothing arrived within the NACK clock: assume our
                    // expected frame was lost and ask for it again (a
                    // spurious NACK is ignored by the peer).
                    self.send_nack(self.next_recv_seq)?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Send an arbitrary `(kind, payload)` frame through the chaos
    /// envelope machinery — same sequence numbers, checksums, NACK
    /// recovery and forced-clean retransmits as protocol messages, but
    /// **no protocol bits are metered**: sealed frames carry
    /// request/response traffic (e.g. a cluster coordinator talking to
    /// a shard), whose bytes are infrastructure, not Theorem 1.1
    /// communication. Do not mix sealed and [`Transport::send_wire`]
    /// traffic on one link: they share a sequence space but the
    /// receiver must know which decoder to apply.
    pub fn send_sealed(&mut self, kind: u8, payload: &[u8]) -> Result<(), NetError> {
        let seq = self.next_send_seq;
        self.next_send_seq += 1;
        let mut inner = Vec::with_capacity(1 + payload.len());
        inner.push(kind);
        inner.extend_from_slice(payload);
        self.sent_log.push(inner);
        self.attempts.push(0);
        self.transmit(seq)
    }

    /// Receive the next sealed `(kind, payload)` frame, in order,
    /// surviving whatever the fault schedule did to it in flight.
    pub fn recv_sealed(&mut self) -> Result<(u8, Vec<u8>), NetError> {
        let deadline = Instant::now() + self.recv_deadline;
        self.fill_ready(deadline)?;
        let mut inner = self.ready.pop_front().expect("fill_ready guarantees one");
        if inner.is_empty() {
            return Err(NetError::Protocol("empty sealed frame".to_string()));
        }
        let kind = inner.remove(0);
        Ok((kind, inner))
    }

    /// After the local agent has finished its run, keep servicing the
    /// peer's recovery traffic (NACKs for envelopes of ours that were
    /// dropped or corrupted in flight) until the link has been quiet
    /// for `quiet`. Without this, a faulted final message would strand
    /// the peer: the sender's agent is done and would never answer the
    /// NACK.
    pub fn drain(&mut self, quiet: Duration) -> Result<(), NetError> {
        let mut last = Instant::now();
        loop {
            match self.link.recv_link() {
                Ok((KIND_CHAOS, payload)) => {
                    self.stats.raw_bytes_received += wire::HEADER_BYTES + payload.len();
                    self.handle_envelope(&payload)?;
                    last = Instant::now();
                }
                Ok((_, _)) => last = Instant::now(),
                Err(NetError::Timeout) => {
                    if last.elapsed() >= quiet {
                        return Ok(());
                    }
                }
                Err(NetError::Disconnected) => return Ok(()),
                Err(e) => return Err(e),
            }
        }
    }
}

impl<L: FrameLink> Transport for FaultTransport<L> {
    fn send_wire(&mut self, msg: &WireMsg) -> Result<(), NetError> {
        let seq = self.next_send_seq;
        self.next_send_seq += 1;
        self.sent_log.push(msg.to_wire_bytes());
        self.attempts.push(0);
        // Metered exactly once, here — retransmissions and duplicates
        // below only move raw_bytes_sent.
        self.stats.msgs_sent += 1;
        self.stats.bits_sent += payload_bits(msg);
        self.transmit(seq)
    }

    fn recv_wire(&mut self) -> Result<WireMsg, NetError> {
        let deadline = Instant::now() + self.recv_deadline;
        self.fill_ready(deadline)?;
        let inner = self.ready.pop_front().expect("fill_ready guarantees one");
        let msg = WireMsg::from_wire_bytes(&inner)?;
        // Metered exactly once, on in-order delivery.
        self.stats.msgs_received += 1;
        self.stats.bits_received += payload_bits(&msg);
        Ok(msg)
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }
}

/// Two connected fault transports over in-memory links, each with its
/// own fault schedule (use [`FaultConfig::quiet`] on one side for
/// asymmetric chaos).
pub fn fault_mem_pair(
    cfg_a: FaultConfig,
    cfg_b: FaultConfig,
) -> (FaultTransport<MemFrameLink>, FaultTransport<MemFrameLink>) {
    let (la, lb) = mem_link_pair(Some(DEFAULT_NACK_INTERVAL));
    (
        FaultTransport::new(la, cfg_a),
        FaultTransport::new(lb, cfg_b),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccmx_comm::BitString;

    fn msg(v: u64, n: usize) -> WireMsg {
        WireMsg::Bits(BitString::from_u64(v, n))
    }

    #[test]
    fn fnv_detects_any_single_bit_flip() {
        let inner = b"some envelope payload".to_vec();
        let base = fnv1a64(42, &inner);
        for bit in 0..inner.len() * 8 {
            let mut mutated = inner.clone();
            mutated[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(base, fnv1a64(42, &mutated), "flip at bit {bit} undetected");
        }
        assert_ne!(base, fnv1a64(43, &inner), "seq corruption undetected");
    }

    #[test]
    fn envelope_round_trip_and_corruption() {
        let env = data_envelope(7, b"abc");
        match parse_envelope(&env) {
            Envelope::Data { seq, inner } => {
                assert_eq!(seq, 7);
                assert_eq!(inner, b"abc");
            }
            _ => panic!("clean data envelope rejected"),
        }
        assert!(matches!(
            parse_envelope(&nack_envelope(9)),
            Envelope::Nack { seq: 9 }
        ));
        assert!(matches!(parse_envelope(&[]), Envelope::Corrupt(_)));
        assert!(matches!(parse_envelope(&[2, 0, 0]), Envelope::Corrupt(_)));
        assert!(matches!(
            parse_envelope(&env[..DATA_HEADER - 1]),
            Envelope::Corrupt(_)
        ));
        let mut flipped = env.clone();
        flipped[DATA_HEADER] ^= 0x10;
        assert!(matches!(parse_envelope(&flipped), Envelope::Corrupt(_)));
    }

    #[test]
    fn fault_plan_is_deterministic() {
        let mut a = FaultPlan::new(FaultConfig::aggressive(99));
        let mut b = FaultPlan::new(FaultConfig::aggressive(99));
        for _ in 0..500 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn quiet_config_passes_messages_untouched() {
        let (mut a, mut b) = fault_mem_pair(FaultConfig::quiet(1), FaultConfig::quiet(2));
        for i in 0..20u64 {
            a.send_wire(&msg(i, 16)).unwrap();
        }
        a.send_wire(&WireMsg::Final(true)).unwrap();
        for i in 0..20u64 {
            assert_eq!(b.recv_wire().unwrap(), msg(i, 16));
        }
        assert_eq!(b.recv_wire().unwrap(), WireMsg::Final(true));
        assert_eq!(a.stats().bits_sent, 20 * 16);
        assert_eq!(b.stats().bits_received, 20 * 16);
        assert_eq!(a.fault_stats().injected_total(), 0);
        assert_eq!(b.fault_stats().nacks_sent, 0);
    }

    #[test]
    fn aggressive_faults_deliver_in_order_with_exact_metering() {
        let n = 60u64;
        let (mut a, mut b) = fault_mem_pair(FaultConfig::aggressive(7), FaultConfig::quiet(0));
        let receiver = std::thread::spawn(move || {
            for i in 0..n {
                assert_eq!(b.recv_wire().unwrap(), msg(i, 24), "message {i} mangled");
            }
            b.drain(Duration::from_millis(60)).unwrap();
            (b.stats(), b.fault_stats())
        });
        for i in 0..n {
            a.send_wire(&msg(i, 24)).unwrap();
        }
        a.drain(Duration::from_millis(60)).unwrap();
        let (b_stats, b_fault) = receiver.join().unwrap();

        assert_eq!(a.stats().bits_sent, n as usize * 24);
        assert_eq!(b_stats.bits_received, n as usize * 24);
        assert_eq!(b_stats.msgs_received, n as usize);
        let a_fault = a.fault_stats();
        assert!(a_fault.injected_total() > 0, "schedule injected nothing");
        // Destructive faults must all have been noticed and repaired.
        assert!(
            a_fault.injected_flips + a_fault.injected_truncations == 0
                || b_fault.corrupt_detected > 0
        );
        assert!(
            a_fault.injected_drops == 0 || b_fault.nacks_sent > 0,
            "drops happened but the receiver never NACKed"
        );
        assert!(
            a_fault.retransmits > 0 || a_fault.injected_total() == a_fault.injected_delays,
            "faults happened but nothing was retransmitted"
        );
        // Raw bytes inflate under recovery; metered bits never do.
        assert!(a.stats().raw_bytes_sent > a.stats().bits_sent / 8);
    }

    #[test]
    fn bidirectional_chaos_converges() {
        let rounds = 25u64;
        let (mut a, mut b) = fault_mem_pair(FaultConfig::aggressive(3), FaultConfig::moderate(4));
        let side_b = std::thread::spawn(move || {
            for i in 0..rounds {
                assert_eq!(b.recv_wire().unwrap(), msg(i, 8));
                b.send_wire(&msg(i ^ 0xff, 8)).unwrap();
            }
            b.drain(Duration::from_millis(60)).unwrap();
            b.stats()
        });
        for i in 0..rounds {
            a.send_wire(&msg(i, 8)).unwrap();
            assert_eq!(a.recv_wire().unwrap(), msg(i ^ 0xff, 8));
        }
        a.drain(Duration::from_millis(60)).unwrap();
        let b_stats = side_b.join().unwrap();
        assert_eq!(a.stats().bits_total(), rounds as usize * 16);
        assert_eq!(b_stats.bits_total(), rounds as usize * 16);
    }
}
