//! # dmf-bench
//!
//! Experiment harness regenerating every table and figure of the
//! DMFSGD paper, plus the non-stationary scenario quality suite
//! (`scenario_suite` → `QUALITY.json`). How fast the system runs is
//! not measured here: that is the separate `benchmark/` package.
//!
//! One registry of artifacts ([`experiments::REGISTRY`]), run by name
//! by one binary, `run_all`: each artifact prints the same rows/series
//! the paper reports, writes a JSON record under `results/`, and has
//! the paper's claim for it checked ([`experiments::Artifact::claim`]).
//! Absolute numbers differ (the substrate is a calibrated synthetic
//! dataset, not the authors' testbed); the qualitative shape — who
//! wins, where the plateaus and crossovers sit — is what the claims
//! assert.
//!
//! The experiment index is the README's "Paper artifact → `run_all`
//! name" table.
//!
//! # Position in the workspace
//!
//! The consumer tip of the DAG: [`experiments`] trains
//! [`dmf_core::Session`] populations on [`dmf_datasets`] bundles,
//! injects label errors from [`dmf_simnet::errors`], compares against
//! a centralized batch solver of the same objective (the ablation),
//! and reports every number through [`dmf_eval`];
//! [`report`] persists the JSON records `run_all` writes. Nothing
//! depends on this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod centralized;
pub mod experiments;
pub mod parallel;
pub mod report;

pub use experiments::scale::{flag_value, Scale};
pub use experiments::trio::{DatasetBundle, Trio};
pub use parallel::{parallel_map, parallel_map_with};
