//! Property-based tests for dataset generation and classification.

use dmf_datasets::rtt::meridian_like;
use dmf_datasets::Metric;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn classify_is_sign_consistent(value in 0.1f64..1e4, tau in 0.1f64..1e4) {
        let rtt = Metric::Rtt.classify(value, tau);
        let abw = Metric::Abw.classify(value, tau);
        prop_assert!(rtt == 1.0 || rtt == -1.0);
        prop_assert!(abw == 1.0 || abw == -1.0);
        if value != tau {
            // RTT and ABW orientations are exact opposites off the
            // threshold.
            prop_assert_eq!(rtt, -abw);
        }
    }

    #[test]
    fn good_fraction_monotone_in_tau_for_rtt(seed in 0u64..50, n in 20usize..50) {
        let d = meridian_like(n, seed);
        let lo = d.good_fraction(d.tau_for_good_portion(0.2));
        let hi = d.good_fraction(d.tau_for_good_portion(0.8));
        prop_assert!(lo <= hi + 1e-9);
    }

    #[test]
    fn tau_portion_table_achieves_requested(seed in 0u64..20) {
        let d = meridian_like(60, seed);
        for portion in [0.1, 0.25, 0.5, 0.75, 0.9] {
            let achieved = d.good_fraction(d.tau_for_good_portion(portion));
            prop_assert!(
                (achieved - portion).abs() < 0.05,
                "portion {} achieved {}", portion, achieved
            );
        }
    }

    #[test]
    fn class_matrix_balance_matches_good_fraction(seed in 0u64..20) {
        let d = meridian_like(40, seed);
        let tau = d.median();
        let cm = d.classify(tau);
        let good = cm.mask.iter_known().filter(|&(i, j)| cm.labels[(i, j)] > 0.0).count();
        let bad = cm.mask.iter_known().filter(|&(i, j)| cm.labels[(i, j)] < 0.0).count();
        prop_assert_eq!(good + bad, cm.mask.count_known());
        prop_assert!((cm.good_fraction() - d.good_fraction(tau)).abs() < 1e-12);
    }

    #[test]
    fn head_preserves_values(seed in 0u64..20, keep in 5usize..20) {
        let d = meridian_like(30, seed);
        let h = d.head(keep);
        for (i, j) in h.mask.iter_known() {
            prop_assert_eq!(h.values[(i, j)], d.values[(i, j)]);
        }
    }
}
