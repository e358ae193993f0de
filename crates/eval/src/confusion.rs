//! Confusion matrices and accuracy (paper Table 2).
//!
//! "Table 2 shows the accuracy rates, i.e., the percentage of the
//! correct predictions, and the confusion matrices, computed by taking
//! the sign of x̂_ij's and then comparing with the corresponding
//! x_ij's."

use crate::ScoredLabel;
use serde::{Deserialize, Serialize};

/// A binary confusion matrix.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfusionMatrix {
    /// Actual good, predicted good.
    pub true_positive: usize,
    /// Actual good, predicted bad.
    pub false_negative: usize,
    /// Actual bad, predicted good.
    pub false_positive: usize,
    /// Actual bad, predicted bad.
    pub true_negative: usize,
}

impl ConfusionMatrix {
    /// Builds the confusion matrix at a given score threshold
    /// (`score > threshold` ⇒ predicted good). The paper's Table 2
    /// uses `threshold = 0` (the sign of `x̂`).
    pub fn at_threshold(samples: &[ScoredLabel], threshold: f64) -> Self {
        let mut cm = Self::default();
        for s in samples {
            let predicted_good = s.score > threshold;
            match (s.positive, predicted_good) {
                (true, true) => cm.true_positive += 1,
                (true, false) => cm.false_negative += 1,
                (false, true) => cm.false_positive += 1,
                (false, false) => cm.true_negative += 1,
            }
        }
        cm
    }

    /// Builds the confusion matrix at the sign threshold (Table 2).
    pub fn at_sign(samples: &[ScoredLabel]) -> Self {
        Self::at_threshold(samples, 0.0)
    }

    /// Total samples counted.
    pub fn total(&self) -> usize {
        self.true_positive + self.false_negative + self.false_positive + self.true_negative
    }

    /// Overall accuracy.
    pub fn accuracy(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        (self.true_positive + self.true_negative) as f64 / self.total() as f64
    }

    /// P(predicted good | actual good) — the top-left percentage of the
    /// paper's per-dataset tables.
    fn good_recall(&self) -> f64 {
        let actual_good = self.true_positive + self.false_negative;
        if actual_good == 0 {
            return 0.0;
        }
        self.true_positive as f64 / actual_good as f64
    }

    /// P(predicted bad | actual bad).
    fn bad_recall(&self) -> f64 {
        let actual_bad = self.false_positive + self.true_negative;
        if actual_bad == 0 {
            return 0.0;
        }
        self.true_negative as f64 / actual_bad as f64
    }

    /// Renders the paper's Table-2 row layout:
    /// `[[P(G|G), P(B|G)], [P(G|B), P(B|B)]]` as percentages.
    pub fn as_percentages(&self) -> [[f64; 2]; 2] {
        [
            [
                self.good_recall() * 100.0,
                (1.0 - self.good_recall()) * 100.0,
            ],
            [(1.0 - self.bad_recall()) * 100.0, self.bad_recall() * 100.0],
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ConfusionMatrix {
        /// Precision of the good class.
        fn good_precision(&self) -> f64 {
            let predicted_good = self.true_positive + self.false_positive;
            if predicted_good == 0 {
                return 0.0;
            }
            self.true_positive as f64 / predicted_good as f64
        }
    }

    fn s(positive: bool, score: f64) -> ScoredLabel {
        ScoredLabel { positive, score }
    }

    #[test]
    fn counts_all_quadrants() {
        let samples = vec![
            s(true, 1.0),   // TP
            s(true, -1.0),  // FN
            s(false, 1.0),  // FP
            s(false, -1.0), // TN
        ];
        let cm = ConfusionMatrix::at_sign(&samples);
        assert_eq!(cm.true_positive, 1);
        assert_eq!(cm.false_negative, 1);
        assert_eq!(cm.false_positive, 1);
        assert_eq!(cm.true_negative, 1);
        assert_eq!(cm.total(), 4);
        assert_eq!(cm.accuracy(), 0.5);
    }

    #[test]
    fn perfect_prediction() {
        let samples = vec![s(true, 0.5), s(false, -0.5), s(true, 2.0)];
        let cm = ConfusionMatrix::at_sign(&samples);
        assert_eq!(cm.accuracy(), 1.0);
        assert_eq!(cm.good_recall(), 1.0);
        assert_eq!(cm.bad_recall(), 1.0);
        assert_eq!(cm.good_precision(), 1.0);
    }

    #[test]
    fn zero_score_counts_as_bad() {
        // The paper takes sign(x̂); we resolve sign(0) to "bad", i.e. a
        // strictly-positive score is needed to call a path good.
        let samples = vec![s(true, 0.0)];
        let cm = ConfusionMatrix::at_sign(&samples);
        assert_eq!(cm.false_negative, 1);
    }

    #[test]
    fn threshold_shifts_decisions() {
        let samples = vec![s(true, 0.4), s(false, 0.2)];
        let strict = ConfusionMatrix::at_threshold(&samples, 0.5);
        assert_eq!(strict.true_positive, 0);
        let lenient = ConfusionMatrix::at_threshold(&samples, 0.1);
        assert_eq!(lenient.true_positive, 1);
        assert_eq!(lenient.false_positive, 1);
    }

    #[test]
    fn percentages_layout() {
        let samples = vec![s(true, 1.0), s(true, 1.0), s(true, -1.0), s(false, -1.0)];
        let p = ConfusionMatrix::at_sign(&samples).as_percentages();
        assert!((p[0][0] - 200.0 / 3.0).abs() < 1e-9); // P(G|G)
        assert!((p[0][1] - 100.0 / 3.0).abs() < 1e-9); // P(B|G)
        assert_eq!(p[1][0], 0.0); // P(G|B)
        assert_eq!(p[1][1], 100.0); // P(B|B)
    }

    #[test]
    fn empty_is_zeroes() {
        let cm = ConfusionMatrix::at_sign(&[]);
        assert_eq!(cm.total(), 0);
        assert_eq!(cm.accuracy(), 0.0);
        assert_eq!(cm.good_recall(), 0.0);
    }
}
