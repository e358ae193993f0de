//! ROC curves and AUC.
//!
//! "The ROC and Precision-Recall curves are obtained by varying a
//! discrimination threshold τ_c when deciding the classes from x̂_ij's"
//! (paper §6.1). The curve below is the exact empirical ROC: one point
//! per distinct score value (ties handled jointly), from (0,0) to
//! (1,1).

use crate::ScoredLabel;
use serde::{Deserialize, Serialize};

/// One ROC point at some discrimination threshold.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RocPoint {
    /// False positive rate.
    pub fpr: f64,
    /// True positive rate (= recall).
    pub tpr: f64,
    /// The threshold that produced this point (`x̂ > threshold` ⇒
    /// predicted good). `-inf` for the all-positive corner.
    pub threshold: f64,
}

/// Computes the empirical ROC curve by sweeping `τ_c` from +∞ to −∞.
///
/// Returns points ordered from (0, 0) to (1, 1).
///
/// # Panics
/// Panics when either class is absent (ROC is undefined).
pub fn roc_curve(samples: &[ScoredLabel]) -> Vec<RocPoint> {
    let positives = samples.iter().filter(|s| s.positive).count();
    let negatives = samples.len() - positives;
    assert!(positives > 0, "ROC undefined without positive samples");
    assert!(negatives > 0, "ROC undefined without negative samples");

    let mut sorted: Vec<&ScoredLabel> = samples.iter().collect();
    // Descending by score: thresholds sweep from strict to lenient.
    sorted.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("NaN score"));

    let mut curve = vec![RocPoint {
        fpr: 0.0,
        tpr: 0.0,
        threshold: f64::INFINITY,
    }];
    let mut tp = 0usize;
    let mut fp = 0usize;
    let mut idx = 0;
    while idx < sorted.len() {
        // Consume all samples tied at this score together.
        let score = sorted[idx].score;
        while idx < sorted.len() && sorted[idx].score == score {
            if sorted[idx].positive {
                tp += 1;
            } else {
                fp += 1;
            }
            idx += 1;
        }
        curve.push(RocPoint {
            fpr: fp as f64 / negatives as f64,
            tpr: tp as f64 / positives as f64,
            threshold: score,
        });
    }
    curve
}

/// AUC by trapezoid integration of a ROC curve.
pub fn auc_from_curve(curve: &[RocPoint]) -> f64 {
    let mut auc = 0.0;
    for w in curve.windows(2) {
        auc += (w[1].fpr - w[0].fpr) * (w[1].tpr + w[0].tpr) / 2.0;
    }
    auc
}

/// Maps a score to a `u64` that orders as the score does: the IEEE-754
/// bit pattern with the sign bit flipped for non-negatives and every
/// bit flipped for negatives. `score + 0.0` folds −0.0 into +0.0 first,
/// so scores that compare equal get equal keys and nothing else does.
///
/// # Panics
/// Panics on NaN, which has no place in the order.
#[inline]
fn order_key(score: f64) -> u64 {
    assert!(!score.is_nan(), "NaN score");
    let bits = (score + 0.0).to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// AUC via the Mann–Whitney U statistic: the probability that a random
/// positive outscores a random negative (ties count ½). Equal to the
/// trapezoid AUC on the same data; both are exposed so tests can
/// cross-validate the implementations.
///
/// # Panics
/// Panics when either class is absent or a score is NaN.
pub fn auc_mann_whitney(samples: &[ScoredLabel]) -> f64 {
    let positives = samples.iter().filter(|s| s.positive).count();
    let negatives = samples.len() - positives;
    assert!(
        positives > 0 && negatives > 0,
        "AUC undefined for one class"
    );

    // Rank-based computation: O(n log n). Sorting integer keys in
    // place of `&ScoredLabel`s compared through `partial_cmp` keeps the
    // sort on 16-byte values it never has to dereference. The order
    // inside a tied block is free: every member gets the block's mean
    // rank, and the rank sum is a sum of half-integers below 2⁵²,
    // exact in any order.
    let mut sorted: Vec<(u64, bool)> = samples
        .iter()
        .map(|s| (order_key(s.score), s.positive))
        .collect();
    sorted.sort_unstable_by_key(|&(key, _)| key);

    // Assign average ranks to ties.
    let n = sorted.len();
    let mut rank_sum_pos = 0.0;
    let mut idx = 0;
    while idx < n {
        let key = sorted[idx].0;
        let start = idx;
        while idx < n && sorted[idx].0 == key {
            idx += 1;
        }
        // Ranks are 1-based; tied block [start, idx) shares the mean rank.
        let avg_rank = (start + 1 + idx) as f64 / 2.0;
        for &(_, positive) in &sorted[start..idx] {
            if positive {
                rank_sum_pos += avg_rank;
            }
        }
    }
    let p = positives as f64;
    let m = negatives as f64;
    (rank_sum_pos - p * (p + 1.0) / 2.0) / (p * m)
}

/// Convenience: AUC of scored labels (Mann–Whitney).
pub fn auc(samples: &[ScoredLabel]) -> f64 {
    auc_mann_whitney(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(positive: bool, score: f64) -> ScoredLabel {
        ScoredLabel { positive, score }
    }

    #[test]
    fn perfect_classifier_auc_one() {
        let samples = vec![s(true, 2.0), s(true, 1.5), s(false, -1.0), s(false, -2.0)];
        assert_eq!(auc_mann_whitney(&samples), 1.0);
        let curve = roc_curve(&samples);
        assert!((auc_from_curve(&curve) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inverted_classifier_auc_zero() {
        let samples = vec![s(true, -2.0), s(false, 1.0)];
        assert_eq!(auc_mann_whitney(&samples), 0.0);
    }

    #[test]
    fn random_ties_auc_half() {
        let samples = vec![s(true, 0.0), s(false, 0.0), s(true, 0.0), s(false, 0.0)];
        assert!((auc_mann_whitney(&samples) - 0.5).abs() < 1e-12);
        let curve = roc_curve(&samples);
        assert!((auc_from_curve(&curve) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn known_small_case() {
        // scores: pos {3, 1}, neg {2, 0}.
        // Pairs: (3>2), (3>0), (1<2), (1>0) → 3/4.
        let samples = vec![s(true, 3.0), s(true, 1.0), s(false, 2.0), s(false, 0.0)];
        assert!((auc_mann_whitney(&samples) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn curve_endpoints_and_monotonicity() {
        let samples = vec![
            s(true, 0.9),
            s(false, 0.8),
            s(true, 0.7),
            s(false, 0.3),
            s(true, 0.2),
        ];
        let curve = roc_curve(&samples);
        assert_eq!(curve.first().map(|p| (p.fpr, p.tpr)), Some((0.0, 0.0)));
        assert_eq!(curve.last().map(|p| (p.fpr, p.tpr)), Some((1.0, 1.0)));
        for w in curve.windows(2) {
            assert!(w[1].fpr >= w[0].fpr);
            assert!(w[1].tpr >= w[0].tpr);
            assert!(w[1].threshold <= w[0].threshold);
        }
    }

    #[test]
    fn trapezoid_equals_mann_whitney() {
        let samples = vec![
            s(true, 0.9),
            s(false, 0.9),
            s(true, 0.5),
            s(false, 0.4),
            s(true, 0.4),
            s(false, 0.1),
            s(true, -0.3),
        ];
        let a1 = auc_mann_whitney(&samples);
        let a2 = auc_from_curve(&roc_curve(&samples));
        assert!((a1 - a2).abs() < 1e-12, "{a1} vs {a2}");
    }

    #[test]
    #[should_panic(expected = "positive samples")]
    fn single_class_rejected() {
        roc_curve(&[s(false, 1.0), s(false, 2.0)]);
    }

    #[test]
    #[should_panic(expected = "AUC undefined for one class")]
    fn mann_whitney_rejects_a_single_class() {
        auc_mann_whitney(&[s(true, 1.0), s(true, 2.0)]);
    }

    #[test]
    #[should_panic(expected = "NaN score")]
    fn mann_whitney_rejects_nan() {
        auc_mann_whitney(&[s(true, 1.0), s(false, f64::NAN)]);
    }

    #[test]
    fn order_keys_order_as_scores_do() {
        let ascending = [
            f64::NEG_INFINITY,
            f64::MIN,
            -1.0,
            -f64::MIN_POSITIVE,
            -5e-324,
            0.0,
            5e-324,
            f64::MIN_POSITIVE,
            1.0,
            f64::MAX,
            f64::INFINITY,
        ];
        for w in ascending.windows(2) {
            assert!(order_key(w[0]) < order_key(w[1]), "{} vs {}", w[0], w[1]);
        }
        assert_eq!(order_key(-0.0), order_key(0.0));
    }
}
