//! Figure 3 — AUC under different η and λ, for hinge and logistic
//! losses, on all three datasets.
//!
//! Row 1: η ∈ {0.001, 0.01, 0.1, 1.0} with λ = 0.1.
//! Row 2: λ ∈ {0.001, 0.01, 0.1, 1.0} with η = 0.1.
//! Expected shape: a broad plateau around η = λ = 0.1; logistic ≥
//! hinge in most cells; tiny η under-trains within the fixed budget.

use crate::experiments::scale::Scale;
use crate::experiments::training::{auc_of, default_config, BundleTrainer};
use crate::experiments::trio::Trio;
use crate::experiments::Artifact;
use crate::parallel::parallel_map;
use crate::report;
use dmf_core::Loss;
use serde::{Deserialize, Serialize};

/// Sweep values used by the paper.
const SWEEP: [f64; 4] = [0.001, 0.01, 0.1, 1.0];

/// One AUC measurement.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) struct Fig3Cell {
    /// Dataset name.
    pub dataset: String,
    /// Which parameter was swept ("eta" or "lambda").
    pub swept: String,
    /// The swept parameter's value.
    pub value: f64,
    /// Loss function.
    pub loss: String,
    /// Resulting AUC.
    pub auc: f64,
}

/// The full figure.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) struct Fig3 {
    /// All cells (3 datasets × 2 sweeps × 4 values × 2 losses).
    pub cells: Vec<Fig3Cell>,
}

/// Runs the experiment. The grid's cells are independent (each trains
/// its own system from its own seed), so they fan out across cores via
/// [`parallel_map`]; the cell order — and every byte of the result —
/// matches the serial loop exactly.
pub(crate) fn run(scale: &Scale, seed: u64) -> Fig3 {
    let trio = Trio::build(scale, seed);
    let trainer = BundleTrainer { trio: &trio, scale };
    // Per-bundle invariants computed once, shared read-only by cells.
    let classes: Vec<_> = trio
        .bundles()
        .iter()
        .map(|b| b.dataset.classify(b.dataset.median()))
        .collect();
    // Descriptors in the historical serial order.
    let mut grid = Vec::new();
    for b in 0..trio.bundles().len() {
        for loss in [Loss::Logistic, Loss::Hinge] {
            for &eta in &SWEEP {
                grid.push((b, loss, "eta", eta));
            }
            for &lambda in &SWEEP {
                grid.push((b, loss, "lambda", lambda));
            }
        }
    }
    let cells = parallel_map(grid, |(b, loss, swept, value)| {
        let bundle = trio.bundles()[b];
        let class = &classes[b];
        // λη < 1 is required; the (η=1, λ=0.1) corner is valid.
        let mut cfg = if swept == "eta" {
            let mut cfg = default_config(bundle.k, seed ^ 0xe7a);
            cfg.sgd.eta = value;
            cfg.sgd.lambda = 0.1;
            cfg
        } else {
            let mut cfg = default_config(bundle.k, seed ^ 0x1a3bda);
            cfg.sgd.eta = 0.1;
            cfg.sgd.lambda = value;
            cfg
        };
        cfg.sgd.loss = loss;
        let system = trainer.train(bundle, class, cfg, &[], 0);
        Fig3Cell {
            dataset: bundle.name.into(),
            swept: swept.into(),
            value,
            loss: format!("{loss:?}"),
            auc: auc_of(&system, class),
        }
    });
    Fig3 { cells }
}

impl Fig3 {
    /// AUC of a specific cell.
    pub fn auc(&self, dataset: &str, swept: &str, value: f64, loss: &str) -> Option<f64> {
        self.cells
            .iter()
            .find(|c| {
                c.dataset == dataset && c.swept == swept && c.value == value && c.loss == loss
            })
            .map(|c| c.auc)
    }
}

impl Artifact for Fig3 {
    fn print_table(&self) {
        let widths = [10, 9, 7, 7, 7, 7];
        for (swept, fixed) in [("eta", "λ"), ("lambda", "η")] {
            println!("Figure 3 — AUC vs {swept} ({fixed} fixed at 0.1)");
            let header = ["dataset", "loss", "0.001", "0.010", "0.100", "1.000"].map(String::from);
            println!("{}", report::row(&header, &widths));
            for dataset in ["Harvard", "Meridian", "HP-S3"] {
                for loss in ["Logistic", "Hinge"] {
                    let mut cells = vec![dataset.to_string(), loss.to_string()];
                    for &value in &SWEEP {
                        let auc = self.auc(dataset, swept, value, loss).unwrap_or(f64::NAN);
                        cells.push(format!("{auc:.3}"));
                    }
                    println!("{}", report::row(&cells, &widths));
                }
            }
            println!();
        }
    }

    /// A plateau at η = λ = 0.1 and logistic ≥ hinge in most cells.
    fn claim(&self) -> bool {
        // (a) the default η=0.1 cell is accurate on every dataset;
        let default_good = ["Harvard", "Meridian", "HP-S3"].iter().all(|d| {
            self.auc(d, "eta", 0.1, "Logistic")
                .map(|a| a > 0.8)
                .unwrap_or(false)
        });
        // (b) η=0.1 beats the under-trained η=0.001 everywhere (logistic).
        let eta_matters = ["Harvard", "Meridian", "HP-S3"].iter().all(|d| {
            match (
                self.auc(d, "eta", 0.1, "Logistic"),
                self.auc(d, "eta", 0.001, "Logistic"),
            ) {
                (Some(hi), Some(lo)) => hi > lo,
                _ => false,
            }
        });
        // (c) logistic ≥ hinge in the majority of cells.
        let mut logistic_wins = 0usize;
        let mut comparisons = 0usize;
        for c in self.cells.iter().filter(|c| c.loss == "Logistic") {
            if let Some(h) = self.auc(&c.dataset, &c.swept, c.value, "Hinge") {
                comparisons += 1;
                if c.auc >= h - 0.01 {
                    logistic_wins += 1;
                }
            }
        }
        default_good && eta_matters && comparisons > 0 && logistic_wins * 2 > comparisons
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_quick_scale_shape() {
        let fig = run(&Scale::quick(), 3);
        assert_eq!(fig.cells.len(), 3 * 2 * 2 * 4);
        assert!(fig.claim(), "figure 3 qualitative shape violated");
    }
}
