#[cfg(test)]
mod tests {
    //! The paper's §7 extension end to end: sessions trained with
    //! [`Loss::Ordinal`] on [`MulticlassLabels`]. The tests span the
    //! loss, the label provider and the session, so they live here
    //! rather than in any one of those modules.

    use crate::provider::{ClassLabelProvider, MeasurementProvider, MulticlassLabels};
    use crate::{Loss, Session};
    use dmf_datasets::abw::hps3_like;
    use dmf_datasets::rtt::meridian_like;
    use dmf_datasets::{Dataset, Metric};

    #[test]
    fn binary_case_matches_sign_rule() {
        let loss = Loss::Ordinal { classes: 2 };
        assert_eq!(loss.class_of_score(0.5), 2.0);
        assert_eq!(loss.class_of_score(-0.5), 1.0);
        // Loss and gradient equal the binary logistic at θ = 0.
        for score in [-2.0, -0.3, 0.0, 0.7, 3.0] {
            assert!((loss.value(2.0, score) - Loss::Logistic.value(1.0, score)).abs() < 1e-12);
            assert!((loss.value(1.0, score) - Loss::Logistic.value(-1.0, score)).abs() < 1e-12);
            assert!(
                (loss.gradient_factor(2.0, score) - Loss::Logistic.gradient_factor(1.0, score))
                    .abs()
                    < 1e-12
            );
        }
    }

    #[test]
    fn predict_class_partitions_score_axis() {
        // Thresholds at -1, 0, 1.
        let loss = Loss::Ordinal { classes: 4 };
        assert_eq!(loss.class_of_score(-5.0), 1.0);
        assert_eq!(loss.class_of_score(-0.5), 2.0);
        assert_eq!(loss.class_of_score(0.5), 3.0);
        assert_eq!(loss.class_of_score(5.0), 4.0);
        // The binary losses keep the sign rule.
        assert_eq!(Loss::Logistic.class_of_score(0.0), 1.0);
        assert_eq!(Loss::Hinge.class_of_score(-0.5), -1.0);
    }

    #[test]
    fn ordinal_gradient_matches_finite_difference() {
        let loss = Loss::Ordinal { classes: 5 };
        let h = 1e-7;
        for class in 1..=5 {
            let x = f64::from(class);
            for score in [-2.5, -0.7, 0.0, 1.3, 2.9] {
                let numeric = (loss.value(x, score + h) - loss.value(x, score - h)) / (2.0 * h);
                let analytic = loss.gradient_factor(x, score);
                assert!(
                    (numeric - analytic).abs() < 1e-5,
                    "class {class}, score {score}: {numeric} vs {analytic}"
                );
            }
        }
    }

    #[test]
    fn ordinal_loss_minimized_in_own_bin() {
        let loss = Loss::Ordinal { classes: 4 };
        // A score in the middle of class 3's bin (between 0 and 1).
        let score = 0.5;
        let own = loss.value(3.0, score);
        for other in [1.0, 2.0, 4.0] {
            assert!(
                loss.value(other, score) > own,
                "class {other} loss should exceed class 3 at its own bin"
            );
        }
    }

    #[test]
    fn quantile_labels_balanced() {
        let d = meridian_like(80, 1);
        let labels = MulticlassLabels::quantiles(&d, 4);
        let mut counts = [0usize; 5];
        for (_, _, c) in labels.iter() {
            counts[usize::from(c)] += 1;
        }
        let total: usize = counts.iter().sum();
        for (c, &count) in counts.iter().enumerate().skip(1) {
            let frac = count as f64 / total as f64;
            assert!(
                (frac - 0.25).abs() < 0.05,
                "class {c} has fraction {frac}, expected ~0.25"
            );
        }
        assert_eq!(labels.label(0, 0), None);
    }

    #[test]
    fn quantile_labels_quality_ascending_for_rtt() {
        // Class C must hold the *fastest* paths for RTT.
        let d = meridian_like(60, 2);
        let labels = MulticlassLabels::quantiles(&d, 3);
        let mut best_values = Vec::new();
        let mut worst_values = Vec::new();
        for (i, j, c) in labels.iter() {
            if c == 3 {
                best_values.push(d.values[(i, j)]);
            } else if c == 1 {
                worst_values.push(d.values[(i, j)]);
            }
        }
        let best_mean = dmf_linalg::stats::mean(&best_values);
        let worst_mean = dmf_linalg::stats::mean(&worst_values);
        assert!(
            best_mean < worst_mean,
            "class 3 (best) mean RTT {best_mean} must beat class 1 {worst_mean}"
        );
    }

    #[test]
    fn class_of_labels_fresh_values_like_the_observed_ones() {
        for d in [meridian_like(40, 6), hps3_like(40, 6)] {
            let labels = MulticlassLabels::quantiles(&d, 4);
            for (i, j, c) in labels.iter() {
                assert_eq!(labels.class_of(d.values[(i, j)]), c);
            }
            // Quality-ascending at both extremes, whatever the metric.
            let (best, worst) = match d.metric {
                Metric::Rtt => (0.0, f64::MAX),
                Metric::Abw => (f64::MAX, 0.0),
            };
            assert_eq!((labels.class_of(best), labels.class_of(worst)), (4, 1));
        }
    }

    /// A session trained on `classes` quantile classes of `d`, seeded
    /// like the experiments (rank 10, η = λ = 0.1, k = 10).
    fn ordinal_session(d: &Dataset, classes: u8, seed: u64) -> (Session, MulticlassLabels) {
        let mut labels = MulticlassLabels::quantiles(d, classes);
        let n = d.len();
        let mut session = Session::builder()
            .nodes(n)
            .loss(crate::Loss::Ordinal { classes })
            .seed(seed)
            .build()
            .expect("valid");
        session.run(n * 10 * 40, &mut labels).expect("run");
        (session, labels)
    }

    #[test]
    fn multiclass_training_beats_chance_rtt() {
        let (session, labels) = ordinal_session(&meridian_like(60, 3), 3, 3);
        let (exact, within_one, mae) = labels.evaluate(&session);
        // Chance: 1/3 exact, ~7/9 within-one.
        assert!(exact > 0.5, "exact accuracy {exact}");
        assert!(within_one > 0.9, "within-one accuracy {within_one}");
        assert!(mae < 0.6, "mean absolute class error {mae}");
    }

    #[test]
    fn multiclass_training_beats_chance_abw() {
        let (session, labels) = ordinal_session(&hps3_like(60, 4), 4, 4);
        let (exact, within_one, _) = labels.evaluate(&session);
        assert!(exact > 0.4, "exact accuracy {exact} (chance = 0.25)");
        assert!(within_one > 0.8, "within-one accuracy {within_one}");
    }

    /// Two classes are the binary problem: labels 1/2 under
    /// `Ordinal { classes: 2 }` train the very coordinates that −1/+1
    /// train under the logistic loss, on either algorithm.
    #[test]
    fn two_ordinal_classes_train_bitwise_like_the_logistic_loss() {
        /// ±1 labels relabeled as the classes 1 and 2.
        struct OneTwo(ClassLabelProvider);
        impl MeasurementProvider for OneTwo {
            fn measure(&mut self, i: usize, j: usize, rng: &mut dyn rand::RngCore) -> Option<f64> {
                self.0
                    .measure(i, j, rng)
                    .map(|x| if x > 0.0 { 2.0 } else { 1.0 })
            }
            fn metric(&self) -> Metric {
                self.0.metric()
            }
            fn len(&self) -> usize {
                self.0.len()
            }
        }
        for d in [meridian_like(40, 12), hps3_like(40, 12)] {
            let cm = d.classify(d.median());
            let build = |loss| {
                Session::builder()
                    .nodes(40)
                    .loss(loss)
                    .seed(12)
                    .build()
                    .unwrap()
            };
            let mut binary = build(Loss::Logistic);
            let mut ordinal = build(Loss::Ordinal { classes: 2 });
            binary
                .run(40 * 200, &mut ClassLabelProvider::new(cm.clone()))
                .unwrap();
            ordinal
                .run(40 * 200, &mut OneTwo(ClassLabelProvider::new(cm)))
                .unwrap();
            let bits = |s: &Session| -> Vec<u64> {
                s.nodes()
                    .iter()
                    .flat_map(|n| n.coords.u.iter().chain(n.coords.v.iter()))
                    .map(|c| c.to_bits())
                    .collect()
            };
            assert_eq!(bits(&binary), bits(&ordinal), "{:?}", d.metric);
            assert!(binary.measurements_used() > 0);
        }
    }
}
