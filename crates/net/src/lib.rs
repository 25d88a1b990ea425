//! # ccmx-net
//!
//! Wire-level transport and a multi-client protocol-lab server for the
//! Chu–Schnitger reproduction.
//!
//! The sequential runner in `ccmx-comm` executes both agents inside one
//! loop; this crate lifts the *same* agent state machine
//! (`ccmx_comm::run_agent`) onto framed byte streams, making the
//! two-party separation physical while keeping the
//! communication-complexity accounting exact. The layers:
//!
//! * [`wire`] — a length-prefixed, bit-accurate framed codec for every
//!   value that crosses a socket (`BitString`, `Message`, `Transcript`,
//!   `RunResult`, `MeterReport`, requests and responses). Hand-rolled
//!   because the build is fully offline and serde cannot be vendored;
//!   the codec's round-trip law is enforced by a property suite.
//! * [`transport`] — [`transport::Transport`]: in-memory
//!   ([`transport::MemFrameLink`], channels carrying encoded frames)
//!   and TCP ([`transport::TcpTransport`], timeouts + bounded retry
//!   with backoff). Both meter exactly the protocol bits they carry, so
//!   the wire cost of a run equals its transcript bit count.
//! * [`runner`] — transported runners whose [`ccmx_comm::RunResult`] is
//!   asserted bit-identical to `run_sequential`'s.
//! * [`evloop`] — a hand-rolled readiness-based event loop (nonblocking
//!   TCP + `poll(2)` via the vendored `polling` shim; the build is
//!   offline, so no async runtime): one thread owns the listener and
//!   every connection, buffers frames as they arrive, and queues each
//!   complete request frame as a job for the compute pool. Only a
//!   connection that starts an interactive run leaves the loop, for a
//!   dedicated thread. Thousands of open connections cost file
//!   descriptors, not threads. The [`evloop::EventHandler`] trait lets
//!   embedders (the cluster coordinator) reuse the engine with their
//!   own dispatch.
//! * [`server`] / [`client`] — the protocol-lab server on top of that
//!   engine (a compute pool for request execution, per-connection
//!   timeouts, per-request deadlines, strike-based slow-client
//!   eviction, queue-depth load shedding, graceful shutdown that
//!   drains in-flight batch groups) answering bound, singularity,
//!   protocol-run, and live interactive-run requests for many
//!   concurrent clients, with a single-flight verdict [`cache`] keyed
//!   on the exact request and a request [`batch`]er that amortizes
//!   protocol setup across bursts.
//! * [`fault`] / [`chaos`] — chaos engineering: [`fault::FaultTransport`]
//!   wraps any frame link in a deterministic seeded schedule of bit
//!   flips, truncations, drops, duplicates, delays and stalls, recovers
//!   via checksummed envelopes + NACK retransmission, and still meters
//!   *exactly* the protocol bits — the seeded soaks in [`chaos`] assert
//!   zero metered-bit divergence against `run_sequential`.
//! * [`retry`] / [`breaker`] — the client-side resilience stack:
//!   jittered exponential backoff behind an idempotency key (retried
//!   runs never double-count metered bits; see the two-ledger
//!   accounting in [`retry`]) and a per-peer closed/open/half-open
//!   [`breaker::CircuitBreaker`] with graceful degradation to cached
//!   Theorem 1.1 bounds while the peer is dark.
//!
//! Paper mapping: this crate is the physical realization of Yao's
//! two-party model that Chu & Schnitger's Theorem 1.1 lower-bounds —
//! two agents separated by a real byte stream, every protocol bit
//! metered. The chaos layer exists to defend that accounting: the
//! Ω(k n²) bound is a statement about *protocol* bits, so transport
//! faults, retransmissions and retries must never leak into the meter.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod api;
pub mod batch;
pub mod breaker;
pub mod cache;
pub mod chaos;
pub mod client;
pub mod error;
pub mod evloop;
pub mod fault;
pub(crate) mod persist;
pub mod retry;
pub mod runner;
pub mod server;
pub mod transport;
pub mod wire;

pub use api::{BoundsReport, InteractiveSetup, ProtoSpec, Request, Response};
pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use chaos::{chaos_soak, server_soak, ChaosLevel, ChaosReport};
pub use client::Client;
pub use error::NetError;
pub use evloop::{EventHandler, PromotedConn};
pub use fault::{
    fault_mem_pair, FaultConfig, FaultKind, FaultPlan, FaultStats, FaultTransport, FrameLink,
};
pub use retry::{IdempotentRun, RetryClient, RetryPolicy};
pub use runner::{run_mem_metered, run_mem_transport, run_tcp_loopback_metered};
pub use server::{serve, serve_with_handler, ServerConfig, ServerHandle, ServerStats};
pub use transport::{
    mem_link_pair, AsChannel, MemFrameLink, TcpTransport, Transport, TransportConfig,
    TransportStats,
};
pub use wire::WireCodec;
