//! # dmf-linalg
//!
//! Dense linear-algebra substrate for the DMFSGD reproduction.
//!
//! The DMFSGD paper (Liao et al., CoNEXT 2011) relies on the empirical
//! observation that pairwise network-performance matrices have *low
//! effective rank* (its Figure 1), and the centralized solver it is
//! compared against factorizes such matrices directly. This crate
//! provides everything those analyses need, built from scratch on
//! `std`:
//!
//! * [`Matrix`] — a row-major dense `f64` matrix with the small set of
//!   operations the project needs (transpose, matmul, norms, maps).
//! * [`Mask`] — an observation mask marking which entries of a pairwise
//!   measurement matrix are known (diagonals are never observed; real
//!   datasets have missing entries).
//! * [`kernels`] — the allocation-free hot-path primitives: fused
//!   [`kernels::dot`]/[`kernels::axpby`] and the inline [`CoordVec`]
//!   coordinate type backing every per-measurement SGD update.
//! * [`simd`] — the runtime-dispatched kernel implementations behind
//!   [`kernels`] and [`Matrix::matmul_nt`]: an AVX2+FMA path, a
//!   portable unrolled fallback, and the scalar reference they are
//!   both bitwise-pinned against (the lane-split-4 accumulation
//!   contract).
//! * [`svd`] — singular value decomposition: an exact one-sided Jacobi
//!   SVD for small/medium matrices and a randomized subspace iteration
//!   for the top-k spectrum of large matrices (Figure 1 uses a
//!   2255 × 2255 RTT matrix).
//! * [`decomp`] — QR (modified Gram–Schmidt), low-rank truncation and
//!   effective-rank utilities.
//! * [`stats`] — percentiles, medians and the scalar statistics used
//!   throughout the evaluation, plus Box–Muller normal sampling (the
//!   `rand` crate alone does not ship a normal distribution).
//!
//! Everything is deterministic given a seed — including across SIMD
//! dispatch paths, which are bitwise-identical by contract. The only
//! global state is the cached kernel-dispatch decision in [`simd`].
//!
//! # Position in the workspace
//!
//! `dmf-linalg` is the root of the crate DAG — it depends on nothing
//! but the vendored `rand`/`serde`. Every other crate builds on it:
//! `dmf-datasets` stores pairwise measurements in a [`Matrix`] with a
//! [`Mask`], `dmf-core` evaluates predictions into one, and
//! `dmf-bench` regenerates the paper's Figure 1 from [`svd`].

// `deny` rather than `forbid`: the `simd` module carries the crate's
// only `#[allow(unsafe_code)]`, scoped to the `std::arch` intrinsic
// implementations behind runtime feature detection and to the
// `prefetch` hint (an instruction that cannot fault).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod decomp;
pub mod kernels;
pub mod mask;
pub mod matrix;
#[deny(missing_docs)]
pub mod simd;
pub mod stats;
pub mod svd;

pub use kernels::CoordVec;
pub use mask::Mask;
pub use matrix::Matrix;
