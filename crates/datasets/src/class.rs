//! Binary class matrices (`+1` good / `−1` bad).
//!
//! Thresholding a quantity matrix at `τ` produces the input of the
//! class-based matrix-completion problem (paper §3.2 and Figure 2).
//! [`ClassMatrix`] keeps the labels together with the mask and the
//! threshold that produced them, and offers the Table-1 style summary
//! of class balance.

use crate::{Dataset, Metric};
use dmf_linalg::{Mask, Matrix};
use serde::{Deserialize, Serialize};

/// A ±1 class matrix with its observation mask.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClassMatrix {
    /// The metric the classes were derived from.
    pub metric: Metric,
    /// The threshold `τ` used.
    pub tau: f64,
    /// Labels: `+1.0` good, `−1.0` bad; unknown entries are 0.0 and
    /// excluded by the mask.
    pub labels: Matrix,
    /// Observation mask.
    pub mask: Mask,
}

impl ClassMatrix {
    /// Thresholds a dataset at `tau`.
    pub fn from_dataset(dataset: &Dataset, tau: f64) -> Self {
        let n = dataset.len();
        let mut labels = Matrix::zeros(n, n);
        for (i, j) in dataset.mask.iter_known() {
            labels[(i, j)] = dataset.metric.classify(dataset.values[(i, j)], tau);
        }
        Self {
            metric: dataset.metric,
            tau,
            labels,
            mask: dataset.mask.clone(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.labels.rows()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The label of a pair, if observed.
    pub fn label(&self, i: usize, j: usize) -> Option<f64> {
        if self.mask.is_known(i, j) {
            Some(self.labels[(i, j)])
        } else {
            None
        }
    }

    /// Sets a label (used by error-injection; the value must be ±1).
    pub fn set_label(&mut self, i: usize, j: usize, label: f64) {
        assert!(
            label == 1.0 || label == -1.0,
            "class label must be +1 or -1, got {label}"
        );
        assert!(self.mask.is_known(i, j), "cannot label an unobserved entry");
        self.labels[(i, j)] = label;
    }

    /// Fraction of observed entries labeled "good".
    pub fn good_fraction(&self) -> f64 {
        let mut good = 0usize;
        let mut total = 0usize;
        for (i, j) in self.mask.iter_known() {
            total += 1;
            if self.labels[(i, j)] > 0.0 {
                good += 1;
            }
        }
        if total == 0 {
            0.0
        } else {
            good as f64 / total as f64
        }
    }

    /// Number of labels that differ from `other` on commonly-observed
    /// entries (used to verify error-injection levels).
    pub fn disagreement_count(&self, other: &ClassMatrix) -> usize {
        assert_eq!(self.len(), other.len(), "class matrix size mismatch");
        let mut diff = 0;
        for (i, j) in self.mask.iter_known() {
            if other.mask.is_known(i, j) && self.labels[(i, j)] != other.labels[(i, j)] {
                diff += 1;
            }
        }
        diff
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmf_linalg::Mask;

    impl ClassMatrix {
        /// Count of observed (good, bad) labels.
        fn class_counts(&self) -> (usize, usize) {
            let mut good = 0;
            let mut bad = 0;
            for (i, j) in self.mask.iter_known() {
                if self.labels[(i, j)] > 0.0 {
                    good += 1;
                } else {
                    bad += 1;
                }
            }
            (good, bad)
        }
    }

    fn toy_dataset() -> Dataset {
        let values = Matrix::from_rows(&[
            &[0.0, 10.0, 20.0, 40.0],
            &[10.0, 0.0, 30.0, 50.0],
            &[20.0, 30.0, 0.0, 60.0],
            &[40.0, 50.0, 60.0, 0.0],
        ]);
        Dataset::new("toy", Metric::Rtt, values, Mask::full_off_diagonal(4))
    }

    #[test]
    fn labels_follow_threshold() {
        let cm = toy_dataset().classify(25.0);
        assert_eq!(cm.label(0, 1), Some(1.0)); // 10 <= 25
        assert_eq!(cm.label(0, 3), Some(-1.0)); // 40 > 25
        assert_eq!(cm.label(1, 1), None);
    }

    #[test]
    fn good_fraction_and_counts() {
        let cm = toy_dataset().classify(25.0);
        // good values: 10,10,20,20 → 4 of 12.
        assert!((cm.good_fraction() - 4.0 / 12.0).abs() < 1e-9);
        assert_eq!(cm.class_counts(), (4, 8));
    }

    #[test]
    fn set_label_validated() {
        let mut cm = toy_dataset().classify(25.0);
        cm.set_label(0, 1, -1.0);
        assert_eq!(cm.label(0, 1), Some(-1.0));
    }

    #[test]
    #[should_panic(expected = "must be +1 or -1")]
    fn set_label_rejects_other_values() {
        let mut cm = toy_dataset().classify(25.0);
        cm.set_label(0, 1, 0.5);
    }

    #[test]
    #[should_panic(expected = "unobserved entry")]
    fn set_label_rejects_unobserved() {
        let mut cm = toy_dataset().classify(25.0);
        cm.set_label(1, 1, 1.0);
    }

    #[test]
    fn disagreement_counts_flips() {
        let base = toy_dataset().classify(25.0);
        let mut flipped = base.clone();
        flipped.set_label(0, 1, -1.0);
        flipped.set_label(2, 3, 1.0);
        assert_eq!(base.disagreement_count(&flipped), 2);
        assert_eq!(base.disagreement_count(&base), 0);
    }

    #[test]
    fn tau_portion_table_monotone_for_rtt() {
        // Table 1's rows: the τ of each good-portion target.
        let d = toy_dataset();
        let portions = [0.10, 0.25, 0.50, 0.75, 0.90];
        let taus: Vec<f64> = portions
            .iter()
            .map(|&p| d.tau_for_good_portion(p))
            .collect();
        for w in taus.windows(2) {
            assert!(w[0] <= w[1], "τ must grow with good-portion for RTT");
        }
        // Achieved fraction should be near the requested portion.
        for (&portion, &tau) in portions.iter().zip(&taus) {
            let achieved = d.good_fraction(tau);
            assert!(
                (achieved - portion).abs() < 0.2,
                "achieved {achieved} too far from requested {portion}"
            );
        }
    }
}
