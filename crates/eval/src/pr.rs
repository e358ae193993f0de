//! Precision–recall curves (paper §6.1, Figure 5b).
//!
//! "The precision for a class is the number of true positives divided
//! by the total number of elements labeled as belonging to the
//! positive class, and the recall for a class is equal to the TPR."

use crate::ScoredLabel;
use serde::{Deserialize, Serialize};

/// One precision–recall point at some discrimination threshold.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PrPoint {
    /// Recall (true positive rate).
    pub recall: f64,
    /// Precision.
    pub precision: f64,
    /// Threshold that produced the point.
    pub threshold: f64,
}

/// Computes the precision–recall curve by sweeping the threshold from
/// strict to lenient; points are ordered by increasing recall.
///
/// # Panics
/// Panics without positive samples.
pub fn pr_curve(samples: &[ScoredLabel]) -> Vec<PrPoint> {
    let positives = samples.iter().filter(|s| s.positive).count();
    assert!(positives > 0, "PR curve undefined without positive samples");

    let mut sorted: Vec<&ScoredLabel> = samples.iter().collect();
    sorted.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("NaN score"));

    let mut curve = Vec::new();
    let mut tp = 0usize;
    let mut predicted_pos = 0usize;
    let mut idx = 0;
    while idx < sorted.len() {
        let score = sorted[idx].score;
        while idx < sorted.len() && sorted[idx].score == score {
            if sorted[idx].positive {
                tp += 1;
            }
            predicted_pos += 1;
            idx += 1;
        }
        curve.push(PrPoint {
            recall: tp as f64 / positives as f64,
            precision: tp as f64 / predicted_pos as f64,
            threshold: score,
        });
    }
    curve
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Average precision: the PR curve summarized by the precision
    /// achieved at each positive sample (the usual AP metric).
    fn average_precision(samples: &[ScoredLabel]) -> f64 {
        let positives = samples.iter().filter(|s| s.positive).count();
        assert!(positives > 0, "AP undefined without positive samples");
        let mut sorted: Vec<&ScoredLabel> = samples.iter().collect();
        sorted.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("NaN score"));
        let mut tp = 0usize;
        let mut ap = 0.0;
        for (rank0, sample) in sorted.iter().enumerate() {
            if sample.positive {
                tp += 1;
                ap += tp as f64 / (rank0 + 1) as f64;
            }
        }
        ap / positives as f64
    }

    fn s(positive: bool, score: f64) -> ScoredLabel {
        ScoredLabel { positive, score }
    }

    #[test]
    fn perfect_ranking_has_unit_precision() {
        let samples = vec![s(true, 3.0), s(true, 2.0), s(false, 1.0), s(false, 0.5)];
        let curve = pr_curve(&samples);
        // While recall < 1 every predicted positive is a true positive.
        for p in curve
            .iter()
            .filter(|p| p.recall <= 1.0 && p.threshold >= 2.0)
        {
            assert_eq!(p.precision, 1.0);
        }
        assert_eq!(average_precision(&samples), 1.0);
    }

    #[test]
    fn recall_reaches_one() {
        let samples = vec![s(true, 1.0), s(false, 2.0), s(true, 0.0)];
        let curve = pr_curve(&samples);
        assert_eq!(curve.last().unwrap().recall, 1.0);
    }

    #[test]
    fn known_average_precision() {
        // Ranking: pos, neg, pos → AP = (1/1 + 2/3) / 2 = 5/6.
        let samples = vec![s(true, 3.0), s(false, 2.0), s(true, 1.0)];
        assert!((average_precision(&samples) - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn precision_in_unit_interval_and_recall_monotone() {
        let samples = vec![
            s(true, 0.8),
            s(false, 0.7),
            s(true, 0.6),
            s(false, 0.5),
            s(true, 0.4),
            s(false, 0.3),
        ];
        let curve = pr_curve(&samples);
        for w in curve.windows(2) {
            assert!(w[1].recall >= w[0].recall);
        }
        for p in &curve {
            assert!((0.0..=1.0).contains(&p.precision));
        }
    }

    #[test]
    fn ties_grouped() {
        let samples = vec![s(true, 1.0), s(false, 1.0)];
        let curve = pr_curve(&samples);
        assert_eq!(curve.len(), 1);
        assert_eq!(curve[0].precision, 0.5);
        assert_eq!(curve[0].recall, 1.0);
    }

    #[test]
    #[should_panic(expected = "positive samples")]
    fn no_positives_rejected() {
        pr_curve(&[s(false, 1.0)]);
    }
}
