//! Property-based tests for the evaluation criteria.

use dmf_eval::pr::pr_curve;
use dmf_eval::roc::{auc_from_curve, auc_mann_whitney, roc_curve};
use dmf_eval::window::{window_stats, RollingAuc};
use dmf_eval::ScoredLabel;
use proptest::prelude::*;

/// A strategy producing sample sets containing both classes.
fn mixed_samples() -> impl Strategy<Value = Vec<ScoredLabel>> {
    (
        proptest::collection::vec(-100.0f64..100.0, 1..40),
        proptest::collection::vec(-100.0f64..100.0, 1..40),
    )
        .prop_map(|(pos, neg)| {
            let mut v: Vec<ScoredLabel> = pos
                .into_iter()
                .map(|score| ScoredLabel {
                    positive: true,
                    score,
                })
                .collect();
            v.extend(neg.into_iter().map(|score| ScoredLabel {
                positive: false,
                score,
            }));
            v
        })
}

/// `auc_mann_whitney` as it stood before it sorted integer keys: a
/// stable sort of `&ScoredLabel` through `partial_cmp`, ties found by
/// float equality. Kept as the reference the key sort must match to
/// the bit.
fn auc_pointer_sort(samples: &[ScoredLabel]) -> f64 {
    let positives = samples.iter().filter(|s| s.positive).count();
    let negatives = samples.len() - positives;
    assert!(
        positives > 0 && negatives > 0,
        "AUC undefined for one class"
    );
    let mut sorted: Vec<&ScoredLabel> = samples.iter().collect();
    sorted.sort_by(|a, b| a.score.partial_cmp(&b.score).expect("NaN score"));
    let n = sorted.len();
    let mut rank_sum_pos = 0.0;
    let mut idx = 0;
    while idx < n {
        let score = sorted[idx].score;
        let start = idx;
        while idx < n && sorted[idx].score == score {
            idx += 1;
        }
        let avg_rank = (start + 1 + idx) as f64 / 2.0;
        for s in &sorted[start..idx] {
            if s.positive {
                rank_sum_pos += avg_rank;
            }
        }
    }
    let p = positives as f64;
    let m = negatives as f64;
    (rank_sum_pos - p * (p + 1.0) / 2.0) / (p * m)
}

/// Scores where an order-preserving integer key could go wrong: both
/// zeros (equal, different bits), both infinities, subnormals on both
/// sides of zero, the extremes, and neighbours one ulp apart.
const EDGE_SCORES: [f64; 14] = [
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    5e-324,
    -5e-324,
    f64::MIN_POSITIVE / 2.0,
    -f64::MIN_POSITIVE / 2.0,
    f64::MAX,
    f64::MIN,
    1.0,
    1.0 + f64::EPSILON,
    -1.0,
    0.25,
];

/// Both classes present, up to 2 000 samples, most scores drawn from
/// [`EDGE_SCORES`] so that nearly every sample sits in a tied block.
fn edge_heavy_samples() -> impl Strategy<Value = Vec<ScoredLabel>> {
    proptest::collection::vec((0usize..18, -3.0f64..3.0, any::<bool>()), 0..1999).prop_map(
        |draws| {
            let mut v = vec![
                ScoredLabel {
                    positive: true,
                    score: 0.0,
                },
                ScoredLabel {
                    positive: false,
                    score: -0.0,
                },
            ];
            v.extend(draws.into_iter().map(|(pick, free, positive)| ScoredLabel {
                positive,
                score: EDGE_SCORES.get(pick).copied().unwrap_or(free),
            }));
            v
        },
    )
}

/// One evaluation-sized input: 10⁶ samples, half of them quantised to
/// a thousandth so tied blocks run long.
#[test]
#[cfg_attr(debug_assertions, ignore = "sorts 10⁶ samples twice: release only")]
fn key_sort_auc_matches_pointer_sort_on_a_million_samples() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(24);
    let samples: Vec<ScoredLabel> = (0..1_000_000)
        .map(|_| {
            let raw = rng.gen::<f64>() * 4.0 - 2.0;
            ScoredLabel {
                positive: rng.gen::<f64>() < 0.5 + raw / 8.0,
                score: if rng.gen::<bool>() {
                    (raw * 1000.0).round() / 1000.0
                } else {
                    raw
                },
            }
        })
        .collect();
    assert_eq!(
        auc_mann_whitney(&samples).to_bits(),
        auc_pointer_sort(&samples).to_bits()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn key_sort_auc_is_bit_identical_to_pointer_sort(samples in edge_heavy_samples()) {
        prop_assert_eq!(
            auc_mann_whitney(&samples).to_bits(),
            auc_pointer_sort(&samples).to_bits()
        );
    }

    #[test]
    fn auc_in_unit_interval(samples in mixed_samples()) {
        let a = auc_mann_whitney(&samples);
        prop_assert!((0.0..=1.0).contains(&a), "AUC {a}");
    }

    #[test]
    fn trapezoid_matches_mann_whitney(samples in mixed_samples()) {
        let a1 = auc_mann_whitney(&samples);
        let a2 = auc_from_curve(&roc_curve(&samples));
        prop_assert!((a1 - a2).abs() < 1e-9, "mw {a1} vs trapezoid {a2}");
    }

    #[test]
    fn auc_flips_under_score_negation(samples in mixed_samples()) {
        let a = auc_mann_whitney(&samples);
        let negated: Vec<ScoredLabel> = samples
            .iter()
            .map(|s| ScoredLabel { positive: s.positive, score: -s.score })
            .collect();
        let b = auc_mann_whitney(&negated);
        prop_assert!((a + b - 1.0).abs() < 1e-9, "{a} + {b} != 1");
    }

    #[test]
    fn auc_invariant_under_monotone_transform(samples in mixed_samples()) {
        let a = auc_mann_whitney(&samples);
        let squashed: Vec<ScoredLabel> = samples
            .iter()
            .map(|s| ScoredLabel {
                positive: s.positive,
                // Positive affine map is strictly increasing (and,
                // unlike saturating maps such as tanh, never collapses
                // distinct scores at f64 precision) → ranking preserved.
                score: s.score * 0.5 + 10.0,
            })
            .collect();
        let b = auc_mann_whitney(&squashed);
        prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn roc_curve_is_monotone_staircase(samples in mixed_samples()) {
        let curve = roc_curve(&samples);
        prop_assert!(curve.len() >= 2);
        for w in curve.windows(2) {
            prop_assert!(w[1].fpr >= w[0].fpr - 1e-12);
            prop_assert!(w[1].tpr >= w[0].tpr - 1e-12);
        }
        let last = curve.last().unwrap();
        prop_assert!((last.fpr - 1.0).abs() < 1e-12);
        prop_assert!((last.tpr - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pr_recall_monotone_and_bounded(samples in mixed_samples()) {
        let curve = pr_curve(&samples);
        for w in curve.windows(2) {
            prop_assert!(w[1].recall >= w[0].recall - 1e-12);
        }
        for p in &curve {
            prop_assert!((0.0..=1.0).contains(&p.precision));
            prop_assert!((0.0..=1.0).contains(&p.recall));
        }
    }

    #[test]
    fn confusion_counts_are_exhaustive(samples in mixed_samples(), threshold in -50.0f64..50.0) {
        let cm = dmf_eval::ConfusionMatrix::at_threshold(&samples, threshold);
        prop_assert_eq!(cm.total(), samples.len());
        prop_assert!((0.0..=1.0).contains(&cm.accuracy()));
    }

    #[test]
    fn rolling_window_over_whole_stream_equals_global(samples in mixed_samples()) {
        // A window large enough to hold the whole stream must agree
        // exactly with the batch evaluation — the rolling machinery
        // may not perturb the statistics it windows.
        let mut w = RollingAuc::new(samples.len());
        for &x in &samples {
            w.push(x);
        }
        let global = window_stats(&samples).expect("mixed stream");
        let rolled = w.stats().expect("mixed stream");
        prop_assert!((rolled.auc - global.auc).abs() < 1e-12);
        prop_assert!((rolled.accuracy - global.accuracy).abs() < 1e-12);
        prop_assert_eq!(rolled.positives, global.positives);
        prop_assert_eq!(rolled.negatives, global.negatives);
        prop_assert!((rolled.auc - auc_mann_whitney(&samples)).abs() < 1e-12);
    }

    #[test]
    fn constant_stream_window_auc_equals_global(
        samples in mixed_samples(),
        reps in 2usize..5,
    ) {
        // A *constant* (periodic) stream: the same sample set arrives
        // over and over. However long the stream runs, a window
        // holding exactly one period sees the same multiset as the
        // global evaluation — AUC and accuracy are set statistics, so
        // windowed == global, regardless of where the window lands in
        // the period (the ring is rotated, the multiset is not).
        let period = samples.len();
        let mut w = RollingAuc::new(period);
        for _ in 0..reps {
            for &x in &samples {
                w.push(x);
            }
        }
        prop_assert_eq!(w.len(), period);
        let global = window_stats(&samples).expect("mixed stream");
        let rolled = w.stats().expect("window covers one full period");
        prop_assert!(
            (rolled.auc - global.auc).abs() < 1e-12,
            "window AUC {} != global AUC {}", rolled.auc, global.auc
        );
        prop_assert!((rolled.accuracy - global.accuracy).abs() < 1e-12);
    }

    #[test]
    fn partial_period_offset_keeps_window_auc_in_bounds(
        samples in mixed_samples(),
        offset in 1usize..20,
    ) {
        // Pushing a partial extra period rotates the ring mid-period;
        // the window still holds `period` of the last samples and the
        // statistics stay well-formed.
        let period = samples.len();
        let mut w = RollingAuc::new(period);
        for &x in &samples {
            w.push(x);
        }
        for &x in samples.iter().cycle().take(offset % period) {
            w.push(x);
        }
        if let Some(stats) = w.stats() {
            prop_assert!((0.0..=1.0).contains(&stats.auc));
            prop_assert!((0.0..=1.0).contains(&stats.accuracy));
            prop_assert_eq!(stats.positives + stats.negatives, period);
        }
    }
}
