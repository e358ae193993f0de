//! # dmf-baselines
//!
//! Reference algorithms the paper compares against (or that situate
//! DMFSGD in the literature):
//!
//! * [`vivaldi`] — the Vivaldi network coordinate system [Dabek et
//!   al., SIGCOMM 2004]: spring-relaxation Euclidean + height
//!   coordinates. DMFSGD borrows its architecture (random neighbor
//!   sets, probe-one-at-a-time); Vivaldi is the classical
//!   quantity-based predictor for RTT.
//! * [`centralized`] — centralized matrix factorization on the full
//!   observed matrix by batch gradient descent, for any of the
//!   losses. The decentralized SGD should approach it (it optimizes
//!   the same objective with full data access).
//! * [`selection`] — peer-selection reference strategies: the oracle
//!   (true-best) selector and score-matrix builders for it.
//!
//! # Position in the workspace
//!
//! Consumes the same substrate as the main algorithm so comparisons
//! are apples-to-apples: datasets from [`dmf_datasets`], losses from
//! [`dmf_core::loss`], matrices and masks from [`dmf_linalg`], and the
//! evaluation criteria of [`dmf_eval`]. `dmf-bench` pits these
//! baselines against DMFSGD in the ablation binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod centralized;
pub mod selection;
pub mod vivaldi;

pub use vivaldi::Vivaldi;
