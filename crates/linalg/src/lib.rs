//! # ccmx-linalg
//!
//! Exact linear algebra over ℤ, ℚ and GF(p), built on [`ccmx_bigint`].
//!
//! This crate is the computational substrate of the Chu–Schnitger
//! reproduction. Everything the paper reasons about — singularity, rank,
//! determinants, span membership, the decompositions of Corollary 1.2 —
//! must be *decided exactly* here so that the executable lemmas in
//! `ccmx-core` and the protocols in `ccmx-comm` have ground truth.
//!
//! Layout:
//!
//! * [`ring`] — the `Ring`/`Field` abstraction (ring objects carry context
//!   such as the prime of GF(p); elements are plain data),
//! * [`matrix`] — dense row-major matrices with block/permutation helpers,
//! * [`gauss`] — Gaussian elimination over any field: rref, rank, det,
//!   nullspace, solve, span membership,
//! * [`bareiss`] — fraction-free (Bareiss) elimination over ℤ: determinant
//!   and rank without rational blow-up,
//! * [`montgomery`] — Montgomery-form GF(p) arithmetic with delayed
//!   reduction, and elimination kernels (`echelon_mod`/`det_mod`/`rank_mod`)
//!   built on it — cache-blocked (communication-avoiding) for small
//!   moduli, scalar otherwise,
//! * [`iomodel`] — the Hong–Kung I/O model: the fast-memory knob, the
//!   panel-width derivation and the `ccmx_iomodel_*` word meter the
//!   elimination kernels report into,
//! * [`modular`] — rank/det over GF(p) with `u64` kernels, random-prime rank,
//!   and CRT determinant reconstruction (optionally multi-threaded),
//! * [`crt`] — multi-prime CRT rank/nullspace/solve/span over ℤ with
//!   rational reconstruction and exact certification (the lemma verifiers'
//!   fast path),
//! * [`lup`], [`qr`], [`svd`] — the decompositions of Corollary 1.2 (for
//!   SVD, the *nonzero structure*, which is what the paper bounds),
//! * [`solve`] — exact solvability of `A·x = b` over ℚ (Corollary 1.3),
//! * [`pool`] — the persistent work-stealing worker pool (parked
//!   threads, injector queue, atomic-cursor batches),
//! * [`parallel`] — data-parallel kernels (`par_map`/`par_fold`)
//!   scheduled on the pool,
//! * [`engine`] — the kernel-engine layer: one-pass multi-prime residue
//!   reduction and the incremental (rank-one update) singularity engine
//!   behind Gray-coded enumeration.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod bareiss;
pub mod crt;
pub mod engine;
pub mod gauss;
pub mod inverse;
pub mod iomodel;
pub mod lup;
pub mod matrix;
pub mod modular;
pub mod montgomery;
pub mod parallel;
pub mod poly;
pub mod pool;
pub mod qr;
pub mod ring;
pub mod smith;
pub mod solve;
pub mod svd;

pub use matrix::Matrix;
pub use ring::{Field, IntegerRing, PrimeField, RationalField, Ring};
