//! # ccmx — the Chu–Schnitger communication-complexity laboratory
//!
//! A full reproduction of **Chu & Schnitger, "The Communication
//! Complexity of Several Problems in Matrix Computation"** (SPAA 1989;
//! *Journal of Complexity* 7:395–407, 1991), built as an executable
//! system: Yao's two-party model, the paper's hard-instance construction
//! and every numbered lemma, the reductions of Corollaries 1.2/1.3, the
//! randomized counterpoint, and the VLSI area–time consequences.
//!
//! This umbrella crate re-exports the workspace members:
//!
//! * [`bigint`] — from-scratch arbitrary-precision arithmetic,
//! * [`linalg`] — exact linear algebra over ℤ / ℚ / GF(p),
//! * [`comm`] — the communication model: partitions, metered protocols,
//!   truth matrices, rectangle lower bounds,
//! * [`core`] — the paper's construction, lemmas and reductions,
//! * [`net`] — wire-level transports and the multi-client protocol-lab
//!   server (`ccmx serve` / `ccmx client`), now on a readiness-based
//!   evented engine,
//! * [`cluster`] — the sharded lab: consistent-hash coordinator,
//!   breaker-guarded shard links, cluster chaos soaks
//!   (`ccmx shard` / `ccmx coordinator`),
//! * [`obs`] — the shared observability registry: lock-free counters,
//!   gauges and histograms, scoped span tracing, and Prometheus-style
//!   exposition (`ccmx client <addr> stats`),
//! * [`search`] — the exact `CC(f)` decision engine: branch-and-bound
//!   over protocol trees with a canonicalized rectangle memo,
//!   certificate-seeded pruning and verifiable optimal-protocol
//!   certificates (`ccmx cc`),
//! * [`store`] — the persistent certified-result tier: an append-only,
//!   checksummed, crash-recovering log under the server caches, so a
//!   restarted lab warm-starts from every verdict it ever certified
//!   (`ccmx serve --store`, `ccmx store stat|compact|verify`; format
//!   spec in `docs/STORAGE.md`),
//! * [`vlsi`] — Thompson-model AT² bounds and the systolic simulator.
//!
//! ## Quickstart
//!
//! ```
//! use ccmx::prelude::*;
//!
//! // The paper's singularity-testing function for 4x4 matrices of
//! // 2-bit entries, under the column partition π₀.
//! let f = Singularity::new(4, 2);
//! let enc = f.enc;
//! let pi0 = Partition::pi_zero(&enc);
//!
//! // Deterministic upper bound: ship half the input (Θ(k n²) bits).
//! let send_all = SendAll::new(f);
//! let m = ccmx::linalg::matrix::int_matrix(&[
//!     &[1, 2, 0, 3],
//!     &[0, 1, 1, 1],
//!     &[2, 0, 1, 0],
//!     &[1, 2, 0, 3], // duplicate row: singular
//! ]);
//! let input = enc.encode(&m);
//! let run = run_sequential(&send_all, &pi0, &input, 0);
//! assert!(run.output); // singular
//! assert_eq!(run.cost_bits(), pi0.count_a());
//! ```

pub use ccmx_bigint as bigint;
pub use ccmx_cluster as cluster;
pub use ccmx_comm as comm;
pub use ccmx_core as core;
pub use ccmx_linalg as linalg;
pub use ccmx_net as net;
pub use ccmx_obs as obs;
pub use ccmx_search as search;
pub use ccmx_store as store;
pub use ccmx_vlsi as vlsi;

/// The most commonly used items, in one import.
pub mod prelude {
    pub use ccmx_bigint::{Integer, Natural, Rational};
    pub use ccmx_comm::functions::{
        BooleanFunction, Equality, ProductCheck, Singularity, Solvability,
    };
    pub use ccmx_comm::protocols::{FingerprintEquality, ModPrimeSingularity, SendAll};
    pub use ccmx_comm::{run_sequential, BitString, MatrixEncoding, Partition};
    pub use ccmx_core::{Params, RestrictedInstance};
    pub use ccmx_linalg::{Matrix, Ring};
    pub use ccmx_net::run_mem_transport;
    pub use ccmx_vlsi::{Chip, SystolicMatMul, VlsiBounds};
}
