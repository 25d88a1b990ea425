//! The protocol abstraction, its reference runner, and the agent state
//! machine that transported runs share.
//!
//! A protocol is a deterministic (or private-coin randomized) rule that,
//! given an agent's share of the input and the transcript so far, decides
//! the agent's next action: send a message or announce the output. The
//! *cost* of a run is the total number of message bits exchanged —
//! exactly the quantity `Comm(f, π, P)` of the paper's Section 1.
//!
//! * [`run_sequential`] — in-process alternation of the two agents: the
//!   oracle, and the fast path of the metering sweeps.
//! * [`run_agent`] — one agent's half of a run over any [`MsgChannel`].
//!   `ccmx-net` drives it over framed in-memory links and TCP sockets,
//!   and its tests assert those runs reproduce [`run_sequential`]'s
//!   transcripts bit for bit.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::bits::{BitString, Share};
use crate::partition::Partition;

/// Which agent is acting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Turn {
    /// The first agent.
    A,
    /// The second agent.
    B,
}

impl Turn {
    /// The other agent.
    pub fn other(self) -> Turn {
        match self {
            Turn::A => Turn::B,
            Turn::B => Turn::A,
        }
    }
}

/// One message of a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Message {
    /// The sender.
    pub from: Turn,
    /// The payload bits.
    pub bits: BitString,
}

/// The sequence of messages exchanged so far. Both agents see the whole
/// transcript (that is the model: messages are the *only* shared state).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Transcript {
    messages: Vec<Message>,
}

impl Transcript {
    /// Empty transcript.
    pub fn new() -> Self {
        Transcript {
            messages: Vec::new(),
        }
    }

    /// Reassemble a transcript from decoded messages (the wire-transport
    /// layer's deserialization path).
    pub fn from_messages(messages: Vec<Message>) -> Self {
        Transcript { messages }
    }

    /// Append a message.
    pub fn push(&mut self, from: Turn, bits: BitString) {
        self.messages.push(Message { from, bits });
    }

    /// The messages in order.
    pub fn messages(&self) -> &[Message] {
        &self.messages
    }

    /// Total bits exchanged — the communication cost of the run.
    pub fn total_bits(&self) -> usize {
        self.messages.iter().map(|m| m.bits.len()).sum()
    }

    /// Number of messages (rounds).
    pub fn rounds(&self) -> usize {
        self.messages.len()
    }

    /// Messages sent by `who`, concatenated in order.
    pub fn bits_from(&self, who: Turn) -> BitString {
        let mut out = BitString::zeros(0);
        for m in &self.messages {
            if m.from == who {
                out.extend(&m.bits);
            }
        }
        out
    }
}

/// An agent's next action.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// Send these bits to the other agent (turn passes).
    Send(BitString),
    /// Announce the Boolean output; the run ends.
    Output(bool),
}

/// Everything an agent may legally look at when deciding its next step:
/// its own share, the public partition, and the transcript. (The runner
/// enforces this information barrier by construction — the full input is
/// never handed to a protocol.)
pub struct AgentCtx<'a> {
    /// Which agent is acting.
    pub turn: Turn,
    /// The acting agent's share of the input.
    pub share: &'a Share,
    /// The (public) partition.
    pub partition: &'a Partition,
    /// The (public) transcript so far.
    pub transcript: &'a Transcript,
}

/// A two-party protocol. `step` must be a function of the context and the
/// agent's private randomness only.
pub trait TwoPartyProtocol: Sync {
    /// Which agent speaks first.
    fn first_turn(&self) -> Turn {
        Turn::A
    }

    /// Decide the acting agent's next action.
    fn step(&self, ctx: &AgentCtx<'_>, rng: &mut StdRng) -> Step;

    /// Human-readable protocol name for reports.
    fn name(&self) -> &'static str;
}

/// The result of executing a protocol on one input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunResult {
    /// The announced output.
    pub output: bool,
    /// Who announced it.
    pub announced_by: Turn,
    /// The full transcript.
    pub transcript: Transcript,
}

impl RunResult {
    /// Communication cost in bits.
    pub fn cost_bits(&self) -> usize {
        self.transcript.total_bits()
    }
}

fn rng_for(seed: u64, turn: Turn) -> StdRng {
    // Derive per-agent private coins from the master seed.
    let tweak = match turn {
        Turn::A => 0x9E37_79B9_7F4A_7C15u64,
        Turn::B => 0xD1B5_4A32_D192_ED03u64,
    };
    StdRng::seed_from_u64(seed ^ tweak)
}

/// Maximum number of rounds before the runner declares the protocol
/// divergent (a correctness backstop, exercised by the failure-injection
/// tests).
pub fn round_limit(input_bits: usize) -> usize {
    2 * input_bits + 16
}

/// Execute a protocol in-process.
///
/// Panics if the protocol exceeds [`round_limit`] rounds — a protocol that
/// never outputs is a bug, not a long computation.
pub fn run_sequential(
    proto: &dyn TwoPartyProtocol,
    partition: &Partition,
    input: &BitString,
    seed: u64,
) -> RunResult {
    let _sp = ccmx_obs::span("protocol.run");
    let (share_a, share_b) = partition.split(input);
    let mut rng_a = rng_for(seed, Turn::A);
    let mut rng_b = rng_for(seed, Turn::B);
    let mut transcript = Transcript::new();
    let mut turn = proto.first_turn();
    let limit = round_limit(input.len());
    for _ in 0..limit {
        let (share, rng) = match turn {
            Turn::A => (&share_a, &mut rng_a),
            Turn::B => (&share_b, &mut rng_b),
        };
        let ctx = AgentCtx {
            turn,
            share,
            partition,
            transcript: &transcript,
        };
        match proto.step(&ctx, rng) {
            Step::Send(bits) => {
                transcript.push(turn, bits);
                turn = turn.other();
            }
            Step::Output(value) => {
                return RunResult {
                    output: value,
                    announced_by: turn,
                    transcript,
                };
            }
        }
    }
    panic!(
        "protocol '{}' exceeded the round limit ({limit}) without producing an output",
        proto.name()
    );
}

/// One unit on the wire between two agents: either a protocol message or
/// the announced output. This is the *entire* vocabulary two separated
/// parties exchange — any transport that can carry `WireMsg` can host a
/// protocol run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireMsg {
    /// A protocol message (its bits are metered).
    Bits(BitString),
    /// The announced output; the run ends.
    Final(bool),
}

/// Error from a [`MsgChannel`]: the peer vanished, timed out, or sent
/// garbage. Carries a human-readable description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChannelError(pub String);

impl std::fmt::Display for ChannelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "channel error: {}", self.0)
    }
}

impl std::error::Error for ChannelError {}

/// The transport seam: a duplex channel carrying [`WireMsg`] between the
/// two agents. `ccmx-net` implements it over framed in-memory links and
/// TCP sockets. [`run_agent`] is written against this trait only, so
/// every transport executes the *identical* agent state machine.
pub trait MsgChannel {
    /// Deliver a message to the peer.
    fn send_msg(&mut self, msg: WireMsg) -> Result<(), ChannelError>;
    /// Block until the peer's next message arrives.
    fn recv_msg(&mut self) -> Result<WireMsg, ChannelError>;
}

/// Execute one agent's half of a protocol over an arbitrary transport.
///
/// The agent sees only its own share; everything else arrives through
/// `chan`. Returns the agent's independently assembled [`RunResult`]
/// (both sides of a correct run assemble identical transcripts — the
/// runners assert this). Transport failures surface as `Err`; a
/// protocol exceeding [`round_limit`] panics, exactly as in
/// [`run_sequential`].
pub fn run_agent(
    proto: &dyn TwoPartyProtocol,
    partition: &Partition,
    share: &Share,
    turn: Turn,
    seed: u64,
    limit: usize,
    chan: &mut dyn MsgChannel,
) -> Result<RunResult, ChannelError> {
    let mut rng = rng_for(seed, turn);
    let mut transcript = Transcript::new();
    let mut my_turn = proto.first_turn() == turn;
    for _ in 0..limit {
        if my_turn {
            let ctx = AgentCtx {
                turn,
                share,
                partition,
                transcript: &transcript,
            };
            match proto.step(&ctx, &mut rng) {
                Step::Send(bits) => {
                    transcript.push(turn, bits.clone());
                    chan.send_msg(WireMsg::Bits(bits))?;
                    my_turn = false;
                }
                Step::Output(value) => {
                    chan.send_msg(WireMsg::Final(value))?;
                    return Ok(RunResult {
                        output: value,
                        announced_by: turn,
                        transcript,
                    });
                }
            }
        } else {
            match chan.recv_msg()? {
                WireMsg::Bits(bits) => {
                    transcript.push(turn.other(), bits);
                    my_turn = true;
                }
                WireMsg::Final(value) => {
                    return Ok(RunResult {
                        output: value,
                        announced_by: turn.other(),
                        transcript,
                    });
                }
            }
        }
    }
    panic!(
        "protocol '{}' exceeded the round limit ({limit}) in transported run",
        proto.name()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Owner;

    /// A toy protocol: A sends its share verbatim, B outputs the XOR of
    /// the whole input.
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

    /// A broken protocol that never outputs (failure injection).
    struct DivergentProtocol;

    impl TwoPartyProtocol for DivergentProtocol {
        fn step(&self, _ctx: &AgentCtx<'_>, _rng: &mut StdRng) -> Step {
            Step::Send(BitString::from_u64(1, 1))
        }
        fn name(&self) -> &'static str {
            "divergent"
        }
    }

    fn any_partition(len: usize) -> Partition {
        Partition::new(
            (0..len)
                .map(|i| if i % 2 == 0 { Owner::A } else { Owner::B })
                .collect(),
        )
    }

    #[test]
    fn xor_protocol_is_correct_on_all_inputs() {
        let len = 8;
        let p = any_partition(len);
        for v in 0..(1u64 << len) {
            let input = BitString::from_u64(v, len);
            let r = run_sequential(&XorProtocol, &p, &input, 0);
            assert_eq!(r.output, v.count_ones() % 2 == 1, "v = {v:b}");
            assert_eq!(r.cost_bits(), len / 2);
            assert_eq!(r.announced_by, Turn::B);
        }
    }

    #[test]
    #[should_panic(expected = "round limit")]
    fn divergent_protocol_is_rejected() {
        let p = any_partition(4);
        let input = BitString::zeros(4);
        let _ = run_sequential(&DivergentProtocol, &p, &input, 0);
    }

    #[test]
    fn transcript_accounting() {
        let mut t = Transcript::new();
        t.push(Turn::A, BitString::from_u64(0b101, 3));
        t.push(Turn::B, BitString::from_u64(0b1, 2));
        t.push(Turn::A, BitString::from_u64(0, 1));
        assert_eq!(t.total_bits(), 6);
        assert_eq!(t.rounds(), 3);
        assert_eq!(t.bits_from(Turn::A).len(), 4);
        assert_eq!(t.bits_from(Turn::B).len(), 2);
    }

    #[test]
    fn turn_other_is_involution() {
        assert_eq!(Turn::A.other(), Turn::B);
        assert_eq!(Turn::B.other().other(), Turn::B);
    }
}
