//! # ccmx-comm
//!
//! Yao's two-party communication-complexity model (Yao 1979, 1981), built
//! as a real executable system for the Chu–Schnitger reproduction.
//!
//! The model: an input of `N` bits is split between two agents by an
//! (even) *partition* `π`. The agents exchange binary messages according
//! to a fixed protocol until the answer is known; the cost of a protocol
//! is the worst-case number of bits exchanged, and the communication
//! complexity of a function is the min over protocols and partitions.
//!
//! This crate makes every object of that definition concrete:
//!
//! * [`bits`] — bit strings and shares,
//! * [`encoding`] — the paper's input encoding (`2n × 2n` matrices of
//!   `k`-bit entries) and bit-position geometry,
//! * [`partition`] — partitions of bit positions, including the paper's
//!   `π₀` (first `n` columns vs last `n` columns), random even partitions,
//!   and partition transforms,
//! * [`functions`] — the Boolean functions under study (singularity,
//!   equality, `A·B = C`, linear-system solvability),
//! * [`protocol`] — the protocol abstraction, metered transcripts, the
//!   in-process sequential runner, and the per-agent state machine that
//!   `ccmx-net` runs over framed links,
//! * [`protocols`] — concrete protocols: the deterministic send-everything
//!   upper bound (`Θ(k n²)`), the randomized mod-a-random-prime
//!   protocols for singularity and solvability realizing Leighton's
//!   `O(n² max(log n, log k))` bound, fingerprint and multi-round bisect
//!   equality,
//! * [`randomized`] — error estimation and amplification for randomized
//!   protocols,
//! * [`truth`] — exhaustive truth matrices for small instances,
//! * [`bounds`] — certified lower bounds on truth matrices: fooling sets,
//!   GF(2) rank, rectangle counting (Yao's `log₂ d(f) − 2`),
//! * [`yao`] — Yao's fundamental lemma executable: transcript classes of
//!   a deterministic protocol verified to be monochromatic rectangles,
//! * [`meter`] — worst-case metering harnesses.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod bits;
pub mod bounds;
pub mod encoding;
pub mod functions;
pub mod meter;
pub mod partition;
pub mod protocol;
pub mod protocols;
pub mod randomized;
pub mod truth;
pub mod yao;

pub use bits::BitString;
pub use encoding::MatrixEncoding;
pub use partition::Partition;
pub use protocol::{
    run_agent, run_sequential, ChannelError, Message, MsgChannel, RunResult, Step, Transcript,
    Turn, TwoPartyProtocol, WireMsg,
};
