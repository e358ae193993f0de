//! # dmf-eval
//!
//! Evaluation criteria for performance-class prediction (paper §6.1
//! and §6.4):
//!
//! * [`roc`] — ROC curves and AUC, computed by sweeping the
//!   discrimination threshold `τ_c` over all prediction scores; AUC is
//!   implemented twice (trapezoid integration and the Mann–Whitney
//!   rank statistic) and the two are cross-checked by property tests.
//! * [`pr`] — precision–recall curves.
//! * [`confusion`] — confusion matrices and accuracy at the sign
//!   threshold (paper Table 2).
//! * [`convergence`] — AUC as a function of measurements consumed
//!   (paper Figure 5c).
//! * [`window`] — windowed and rolling AUC/accuracy for
//!   non-stationary scenarios, where quality per epoch (during a
//!   congestion storm, after a partition heals) is the question the
//!   end-of-run number cannot answer.
//! * [`peersel`] — the peer-selection criteria of §6.4: *stretch*
//!   (optimality) and the *unsatisfied-node percentage*
//!   (satisfaction).
//!
//! All functions take plain score/label pairs, so they evaluate any
//! predictor — DMFSGD, the centralized solver, or an oracle.
//!
//! # Position in the workspace
//!
//! Depends only on [`dmf_linalg`] (score matrices) and
//! [`dmf_datasets`] (class matrices): [`collect_scores`] pairs a
//! [`dmf_datasets::ClassMatrix`] with a predictor's
//! [`dmf_linalg::Matrix`] of scores into the [`ScoredLabel`]s every
//! criterion consumes. `dmf-agent` and `dmf-bench` both report through
//! this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod confusion;
pub mod convergence;
pub mod peersel;
pub mod pr;
pub mod roc;
// Per-window quality is service surface (the scenario suite and the
// CI quality gate consume it): undocumented public items are hard
// errors, and tools/check_doc_guards.sh keeps the attribute in place.
#[deny(missing_docs)]
pub mod window;

pub use confusion::ConfusionMatrix;
pub use convergence::ConvergenceTracker;
pub use roc::{auc_from_curve, auc_mann_whitney, roc_curve, RocPoint};
pub use window::{window_stats, RollingAuc, WindowStats};

/// A labeled prediction: the ground-truth class and the real-valued
/// score the predictor assigned (higher = more likely "good").
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoredLabel {
    /// Ground truth: `true` = positive class ("good").
    pub positive: bool,
    /// Predictor score (e.g. `u_i · v_j`).
    pub score: f64,
}

/// Collects scored labels for all observed pairs of a class matrix
/// against a score matrix.
pub fn collect_scores(
    class: &dmf_datasets::ClassMatrix,
    scores: &dmf_linalg::Matrix,
) -> Vec<ScoredLabel> {
    assert_eq!(
        (class.len(), class.len()),
        scores.shape(),
        "class/score shape mismatch"
    );
    class
        .mask
        .iter_known()
        .map(|(i, j)| ScoredLabel {
            positive: class.labels[(i, j)] > 0.0,
            score: scores[(i, j)],
        })
        .collect()
}
