//! Table 2 — accuracy and confusion matrices under the default
//! configuration.
//!
//! The paper reports ≈ 89.4 % (Harvard), 85.4 % (Meridian) and 87.3 %
//! (HP-S3) accuracy with good/bad recalls in the 81–94 % range. The
//! shape to reproduce: accuracies well above 80 %, with "good" recall
//! a few points above "bad" recall on every dataset.

use crate::experiments::scale::Scale;
use crate::experiments::training::{default_config, BundleTrainer};
use crate::experiments::trio::Trio;
use crate::experiments::Artifact;
use crate::report;
use dmf_eval::{collect_scores, ConfusionMatrix};
use serde::{Deserialize, Serialize};

/// One dataset's row of Table 2.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) struct Table2Row {
    /// Dataset name.
    pub dataset: String,
    /// Overall accuracy.
    pub accuracy: f64,
    /// `[[P(G|G), P(B|G)], [P(G|B), P(B|B)]]` in percent.
    pub confusion_percent: [[f64; 2]; 2],
}

/// The full table.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) struct Table2 {
    /// Harvard, Meridian, HP-S3.
    pub rows: Vec<Table2Row>,
}

/// Runs the experiment.
pub(crate) fn run(scale: &Scale, seed: u64) -> Table2 {
    let trio = Trio::build(scale, seed);
    let trainer = BundleTrainer { trio: &trio, scale };
    let rows = trio
        .bundles()
        .iter()
        .map(|bundle| {
            let tau = bundle.dataset.median();
            let class = bundle.dataset.classify(tau);
            let system = trainer.train(
                bundle,
                &class,
                default_config(bundle.k, seed ^ 0x7ab1e2),
                &[],
                0,
            );
            let samples = collect_scores(&class, &system.predicted_scores());
            let cm = ConfusionMatrix::at_sign(&samples);
            Table2Row {
                dataset: bundle.name.to_string(),
                accuracy: cm.accuracy(),
                confusion_percent: cm.as_percentages(),
            }
        })
        .collect();
    Table2 { rows }
}

impl Artifact for Table2 {
    fn print_table(&self) {
        println!("Table 2 — confusion matrices (sign of x̂)");
        let widths = [12, 10, 10];
        for r in &self.rows {
            println!("\n{}  (accuracy = {:.1}%)", r.dataset, r.accuracy * 100.0);
            let header = ["", "pred Good", "pred Bad"].map(String::from);
            println!("{}", report::row(&header, &widths));
            for (actual, p) in ["actual Good", "actual Bad"]
                .iter()
                .zip(r.confusion_percent)
            {
                let cells = [
                    actual.to_string(),
                    format!("{:.1}%", p[0]),
                    format!("{:.1}%", p[1]),
                ];
                println!("{}", report::row(&cells, &widths));
            }
        }
    }

    /// Accuracy above 80 % with a dominant diagonal on every dataset.
    fn claim(&self) -> bool {
        self.rows.iter().all(|r| {
            let diag_dominant = r.confusion_percent[0][0] > r.confusion_percent[0][1]
                && r.confusion_percent[1][1] > r.confusion_percent[1][0];
            r.accuracy > 0.8 && diag_dominant
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_quick_scale() {
        let t = run(&Scale::quick(), 31);
        assert_eq!(t.rows.len(), 3);
        assert!(t.claim(), "table 2 shape violated: {:?}", t.rows);
    }
}
