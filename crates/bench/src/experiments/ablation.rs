//! Ablation (design-choice check): how much accuracy does
//! decentralization cost against a centralized solver on the same
//! objective, across measurement budgets?
//!
//! The centralized batch solver sees the whole observed matrix every
//! iteration; DMFSGD touches one measurement at a time at one node.
//! Expected shape: DMFSGD approaches the centralized AUC as its budget
//! grows, and the gap at the largest budget is small.

use crate::centralized::batch_gd_class;
use crate::experiments::scale::Scale;
use crate::experiments::training::{auc_of, default_config, train_class};
use crate::experiments::Artifact;
use dmf_core::Loss;
use dmf_datasets::rtt::meridian_like;
use dmf_eval::{collect_scores, roc::auc};
use serde::Serialize;

/// DMFSGD budgets swept, in measurements per node ÷ k.
const BUDGETS: [usize; 6] = [2, 5, 10, 20, 30, 50];

/// DMFSGD's AUC at one budget.
#[derive(Clone, Debug, Serialize)]
pub(crate) struct AblationRow {
    /// Measurements per node ÷ k.
    pub budget_times_k: usize,
    /// AUC of the decentralized system.
    pub auc_dmfsgd: f64,
}

/// The full ablation.
#[derive(Clone, Debug, Serialize)]
pub(crate) struct Ablation {
    /// Meridian-like node count (at most 300: the batch solver is
    /// dense).
    pub n: usize,
    /// AUC of centralized batch gradient descent.
    pub auc_centralized: f64,
    /// One row per budget of [`BUDGETS`].
    pub rows: Vec<AblationRow>,
}

/// Runs the ablation on a Meridian-like dataset with k = 10.
pub(crate) fn run(scale: &Scale, seed: u64) -> Ablation {
    let n = scale.meridian_nodes.min(300);
    let k = 10;
    let dataset = meridian_like(n, seed);
    let classes = dataset.classify(dataset.median());
    let central = batch_gd_class(&classes, 10, Loss::Logistic, 0.1, 0.1, 150, 1);
    let rows = BUDGETS
        .iter()
        .map(|&times_k| {
            // One session seed for every budget, so rows differ in
            // budget alone.
            let system = train_class(&classes, default_config(k, 7), n * k * times_k);
            AblationRow {
                budget_times_k: times_k,
                auc_dmfsgd: auc_of(&system, &classes),
            }
        })
        .collect();
    Ablation {
        n,
        auc_centralized: auc(&collect_scores(&classes, &central.predicted_scores())),
        rows,
    }
}

impl Artifact for Ablation {
    fn print_table(&self) {
        println!(
            "centralized batch GD ({} nodes): AUC = {:.3}\n",
            self.n, self.auc_centralized
        );
        println!("{:>12} {:>12} {:>8}", "budget(×k)", "AUC dmfsgd", "gap");
        for r in &self.rows {
            let gap = self.auc_centralized - r.auc_dmfsgd;
            println!("{:>12} {:>12.3} {gap:>8.3}", r.budget_times_k, r.auc_dmfsgd);
        }
    }

    /// At the largest budget DMFSGD is within 0.05 of the centralized
    /// AUC.
    fn claim(&self) -> bool {
        self.rows
            .last()
            .is_some_and(|r| r.auc_dmfsgd > self.auc_centralized - 0.05)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_quick_scale() {
        let a = run(&Scale::quick(), 5);
        assert_eq!(a.rows.len(), BUDGETS.len());
        assert!(a.claim(), "decentralized gap too large: {a:?}");
        // The budget sweep is what closes the gap.
        assert!(a.rows[0].auc_dmfsgd < a.rows[BUDGETS.len() - 1].auc_dmfsgd);
    }
}
