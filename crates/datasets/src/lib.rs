//! # dmf-datasets
//!
//! Dataset substrate for the DMFSGD reproduction.
//!
//! The paper evaluates on three datasets that are not redistributable
//! here (Harvard/Azureus dynamic RTTs, Meridian static RTTs, HP-S3
//! pathChirp ABW). This crate builds **calibrated synthetic
//! equivalents** — generators that reproduce the properties DMFSGD
//! actually depends on:
//!
//! * low *effective rank* of the pairwise matrix (paper Figure 1),
//!   obtained from a two-tier Internet-like topology
//!   ([`topology`]): shared cluster-to-cluster paths plus per-node
//!   access links;
//! * the published scale of each dataset (node counts; median RTT
//!   ≈ 132 ms for Harvard, ≈ 56 ms for Meridian, median ABW ≈ 43 Mbps
//!   for HP-S3), enforced by exact median re-calibration;
//! * asymmetry and missing entries for ABW (HP-S3 has 4 % missing);
//! * timestamped, unevenly-sampled dynamic measurement streams for
//!   Harvard ([`dynamic`]);
//! * declarative *non-stationary scenarios* ([`scenario`]): drift,
//!   flash congestion, routing changes, probe loss, partitions,
//!   stragglers and churn composed over a timeline, with time-varying
//!   ground truth derived from the same topology model.
//!
//! Loaders for on-disk matrices/traces ([`io`]) accept the same
//! representation, so the real datasets can be dropped in when
//! available.
//!
//! # Position in the workspace
//!
//! Builds directly on [`dmf_linalg`]: a [`Dataset`] is a
//! [`dmf_linalg::Matrix`] of quantities plus a [`dmf_linalg::Mask`]
//! of observed pairs and a [`Metric`]. Downstream, `dmf-simnet`
//! probes these datasets, `dmf-core` trains on them, and `dmf-eval`
//! scores predictions against a [`ClassMatrix`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abw;
pub mod class;
pub mod dataset;
pub mod dynamic;
pub mod io;
pub mod metric;
pub mod rtt;
// The scenario spec is service surface (the quality suite and CI gate
// build on it): undocumented public items are hard errors, and
// tools/check_doc_guards.sh keeps the attribute from being dropped.
#[deny(missing_docs)]
pub mod scenario;
pub mod topology;

pub use class::ClassMatrix;
pub use dataset::Dataset;
pub use dynamic::{DynamicTrace, Measurement};
pub use metric::Metric;
pub use scenario::{Condition, Scenario, ScenarioSpec};
