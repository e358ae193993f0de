//! Multiclass (ordinal) performance classes — the paper's §7 future
//! work, implemented.
//!
//! "While we focus here on binary classification, our framework could
//! be extended to the prediction of more than two performance classes,
//! i.e., multiclass classification, which we would like to study in
//! the near future."
//!
//! Network performance classes are *ordered* (e.g. bad < fair < good <
//! excellent), so the natural extension is **ordinal** classification
//! with the immediate-threshold construction used by rating-based
//! matrix factorization (cf. MMMF): the real-valued score `x̂ = u · v`
//! is compared against `C − 1` fixed ordered thresholds
//! `θ_1 < … < θ_{C−1}`; class `c` means `θ_{c−1} < x̂ ≤ θ_c`. Training
//! a measurement of class `c` sums one binary loss per threshold:
//!
//! ```text
//! L(c, x̂) = Σ_{k=1}^{C−1} l(s_k, x̂ − θ_k),   s_k = +1 if c > k else −1
//! ```
//!
//! With `C = 2` and `θ_1 = 0` this degenerates exactly to the paper's
//! binary formulation, which is asserted by tests. The SGD step keeps
//! the same shape as eqs. 9–13 — the gradient factor is just a sum
//! over thresholds — so the decentralized protocol is unchanged: only
//! the one-byte class label on the wire gets richer.

use crate::config::SgdParams;
use crate::coords::dot;
use crate::loss::Loss;
use crate::node::DmfsgdNode;
use crate::provider::MeasurementProvider;
use dmf_datasets::{Dataset, Metric};
use dmf_linalg::Matrix;
use dmf_simnet::NeighborSets;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// An ordinal classifier over `C` classes with `C − 1` thresholds.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct OrdinalClassifier {
    /// Ascending score thresholds `θ_1 < … < θ_{C−1}`.
    pub thresholds: Vec<f64>,
    /// The per-threshold binary loss (hinge or logistic).
    pub loss: Loss,
}

impl OrdinalClassifier {
    /// `C` classes with symmetric, unit-spaced thresholds centered at
    /// zero (for `C = 2`: `θ = [0]`, the binary sign rule).
    pub fn equally_spaced(classes: usize, loss: Loss) -> Self {
        assert!(classes >= 2, "need at least two classes");
        assert!(
            loss.is_classification(),
            "ordinal training needs a classification loss"
        );
        let c = classes as f64;
        let thresholds = (1..classes).map(|k| k as f64 - c / 2.0).collect();
        Self { thresholds, loss }
    }

    /// Number of classes `C`.
    pub fn class_count(&self) -> usize {
        self.thresholds.len() + 1
    }

    /// Predicted class (1-based, ascending quality) from a score.
    pub fn predict_class(&self, score: f64) -> usize {
        1 + self.thresholds.iter().filter(|&&t| score > t).count()
    }

    /// The ordinal loss `L(c, x̂)`.
    pub fn loss_value(&self, class: usize, score: f64) -> f64 {
        self.check_class(class);
        self.thresholds
            .iter()
            .enumerate()
            .map(|(idx, &theta)| {
                let s = if class > idx + 1 { 1.0 } else { -1.0 };
                self.loss.value(s, score - theta)
            })
            .sum()
    }

    /// Gradient of the ordinal loss w.r.t. the score.
    pub fn gradient_factor(&self, class: usize, score: f64) -> f64 {
        self.check_class(class);
        self.thresholds
            .iter()
            .enumerate()
            .map(|(idx, &theta)| {
                let s = if class > idx + 1 { 1.0 } else { -1.0 };
                self.loss.gradient_factor(s, score - theta)
            })
            .sum()
    }

    fn check_class(&self, class: usize) {
        assert!(
            (1..=self.class_count()).contains(&class),
            "class {class} outside 1..={}",
            self.class_count()
        );
    }
}

/// One ordinal SGD step: like [`crate::update::sgd_step`] but with the
/// multi-threshold gradient factor.
pub fn ordinal_sgd_step(
    updated: &mut [f64],
    fixed: &[f64],
    class: usize,
    clf: &OrdinalClassifier,
    params: &SgdParams,
) {
    assert_eq!(updated.len(), fixed.len(), "coordinate rank mismatch");
    let score = dot(updated, fixed);
    let g = clf.gradient_factor(class, score);
    let shrink = 1.0 - params.eta * params.lambda;
    for (t, &f) in updated.iter_mut().zip(fixed.iter()) {
        *t = shrink * *t - params.eta * g * f;
    }
}

/// Multiclass labels derived from a quantity dataset by quantile
/// boundaries (class 1 = worst performance, `C` = best).
#[derive(Clone, Debug)]
pub struct MulticlassLabels {
    /// Quantity boundaries between classes (ascending in *quality*).
    pub boundaries: Vec<f64>,
    /// Metric orientation.
    pub metric: Metric,
    labels: Vec<u8>,
    n: usize,
}

impl MulticlassLabels {
    /// Splits the observed value distribution into `classes`
    /// equal-mass classes.
    pub fn quantiles(dataset: &Dataset, classes: usize) -> Self {
        assert!((2..=250).contains(&classes), "class count out of range");
        let observed = dataset.observed_values();
        // Quality-ascending boundaries: for RTT high values are *worse*,
        // so boundaries run from high to low quantiles.
        let boundaries: Vec<f64> = (1..classes)
            .map(|k| {
                let portion = k as f64 / classes as f64;
                // Portion of paths at least this good.
                let p = dataset.metric.percentile_for_good_portion(1.0 - portion);
                dmf_linalg::stats::percentile(&observed, p)
            })
            .collect();
        let n = dataset.len();
        let mut out = Self {
            boundaries,
            metric: dataset.metric,
            labels: vec![0u8; n * n],
            n,
        };
        for (i, j) in dataset.mask.iter_known() {
            out.labels[i * n + j] = out.class_of(dataset.values[(i, j)]) as u8;
        }
        out
    }

    /// The class (1-based, quality-ascending) of a measured quantity:
    /// the rule the observed labels were built with, for labeling a
    /// fresh measurement such as one from a trace replay.
    pub fn class_of(&self, value: f64) -> usize {
        1 + self
            .boundaries
            .iter()
            .filter(|&&b| match self.metric {
                Metric::Rtt => value <= b, // faster than boundary ⇒ better
                Metric::Abw => value >= b, // more bandwidth ⇒ better
            })
            .count()
    }

    /// The class of a pair, if observed (1-based; 0 = unobserved).
    pub fn label(&self, i: usize, j: usize) -> Option<usize> {
        let raw = self.labels[i * self.n + j];
        if raw == 0 {
            None
        } else {
            Some(raw as usize)
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Iterates observed `(i, j, class)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        (0..self.n)
            .flat_map(move |i| (0..self.n).filter_map(move |j| self.label(i, j).map(|c| (i, j, c))))
    }
}

/// A DMFSGD population trained on ordinal classes.
///
/// Reuses [`DmfsgdNode`] coordinates; the only change versus the
/// binary system is the per-measurement gradient.
pub struct MulticlassSystem {
    clf: OrdinalClassifier,
    params: SgdParams,
    nodes: Vec<DmfsgdNode>,
    neighbors: NeighborSets,
    rng: ChaCha8Rng,
    measurements: usize,
    symmetric: bool,
}

impl MulticlassSystem {
    /// Creates a system of `n` nodes for the given classifier.
    pub fn new(
        n: usize,
        rank: usize,
        k: usize,
        clf: OrdinalClassifier,
        params: SgdParams,
        metric: Metric,
        seed: u64,
    ) -> Self {
        params.validate();
        assert!(n > k, "need more nodes than neighbors");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let nodes = (0..n).map(|i| DmfsgdNode::new(i, rank, &mut rng)).collect();
        let neighbors = NeighborSets::random(n, k, &mut rng);
        Self {
            clf,
            params,
            nodes,
            neighbors,
            rng,
            measurements: 0,
            symmetric: metric.is_symmetric(),
        }
    }

    /// The classifier in force.
    pub fn classifier(&self) -> &OrdinalClassifier {
        &self.clf
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Measurements processed.
    pub fn measurements_used(&self) -> usize {
        self.measurements
    }

    /// Raw score `u_i · v_j`.
    pub fn raw_score(&self, i: usize, j: usize) -> f64 {
        self.nodes[i].predict_to(&self.nodes[j])
    }

    /// Predicted class for a pair.
    pub fn predict_class(&self, i: usize, j: usize) -> usize {
        self.clf.predict_class(self.raw_score(i, j))
    }

    /// All raw scores (diagonal zeroed).
    pub fn predicted_scores(&self) -> Matrix {
        let n = self.len();
        Matrix::from_fn(n, n, |i, j| if i == j { 0.0 } else { self.raw_score(i, j) })
    }

    /// Applies one class-`c` measurement for `(i, j)`, mirroring the
    /// Algorithm 1/2 structure.
    pub fn apply_measurement(&mut self, i: usize, j: usize, class: usize) {
        if self.symmetric {
            // Algorithm-1 shape: update u_i against v_j and v_i against
            // u_j (the symmetric label constrains both directions).
            let u_j = self.nodes[j].coords.u.clone();
            let v_j = self.nodes[j].coords.v.clone();
            ordinal_sgd_step(
                &mut self.nodes[i].coords.u,
                &v_j,
                class,
                &self.clf,
                &self.params,
            );
            ordinal_sgd_step(
                &mut self.nodes[i].coords.v,
                &u_j,
                class,
                &self.clf,
                &self.params,
            );
        } else {
            // Algorithm-2 shape: v_j updates at the target with the
            // pre-update snapshot sent back for u_i.
            let u_i = self.nodes[i].coords.u.clone();
            let v_snapshot = self.nodes[j].coords.v.clone();
            ordinal_sgd_step(
                &mut self.nodes[j].coords.v,
                &u_i,
                class,
                &self.clf,
                &self.params,
            );
            ordinal_sgd_step(
                &mut self.nodes[i].coords.u,
                &v_snapshot,
                class,
                &self.clf,
                &self.params,
            );
        }
        self.measurements += 1;
    }

    /// One random probe tick against a label source.
    pub fn tick(&mut self, labels: &MulticlassLabels) -> bool {
        let i = self.rng.gen_range(0..self.len());
        let j = self.neighbors.sample_neighbor(i, &mut self.rng);
        match labels.label(i, j) {
            Some(c) => {
                self.apply_measurement(i, j, c);
                true
            }
            None => false,
        }
    }

    /// Runs `count` ticks.
    pub fn run(&mut self, count: usize, labels: &MulticlassLabels) {
        assert_eq!(labels.len(), self.len(), "label/system size mismatch");
        for _ in 0..count {
            self.tick(labels);
        }
    }

    /// Evaluation: (exact accuracy, within-one-class accuracy, mean
    /// absolute class error) over observed pairs.
    pub fn evaluate(&self, labels: &MulticlassLabels) -> (f64, f64, f64) {
        let mut exact = 0usize;
        let mut within_one = 0usize;
        let mut abs_err = 0usize;
        let mut total = 0usize;
        for (i, j, truth) in labels.iter() {
            let predicted = self.predict_class(i, j);
            let err = truth.abs_diff(predicted);
            total += 1;
            if err == 0 {
                exact += 1;
            }
            if err <= 1 {
                within_one += 1;
            }
            abs_err += err;
        }
        assert!(total > 0, "no observed labels to evaluate");
        (
            exact as f64 / total as f64,
            within_one as f64 / total as f64,
            abs_err as f64 / total as f64,
        )
    }
}

/// Adapter: binary view of a multiclass system for AUC comparisons —
/// classes above `good_above` count as "good".
pub struct BinarizedProvider<'a> {
    labels: &'a MulticlassLabels,
    good_above: usize,
}

impl<'a> BinarizedProvider<'a> {
    /// Wraps multiclass labels; classes `> good_above` map to +1.
    pub fn new(labels: &'a MulticlassLabels, good_above: usize) -> Self {
        Self { labels, good_above }
    }
}

impl MeasurementProvider for BinarizedProvider<'_> {
    fn measure(&mut self, i: usize, j: usize, _rng: &mut dyn rand::RngCore) -> Option<f64> {
        self.labels
            .label(i, j)
            .map(|c| if c > self.good_above { 1.0 } else { -1.0 })
    }

    fn metric(&self) -> Metric {
        self.labels.metric
    }

    fn len(&self) -> usize {
        self.labels.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmf_datasets::abw::hps3_like;
    use dmf_datasets::rtt::meridian_like;

    fn params() -> SgdParams {
        SgdParams {
            eta: 0.1,
            lambda: 0.1,
            loss: Loss::Logistic,
        }
    }

    #[test]
    fn binary_case_matches_sign_rule() {
        let clf = OrdinalClassifier::equally_spaced(2, Loss::Logistic);
        assert_eq!(clf.thresholds, vec![0.0]);
        assert_eq!(clf.predict_class(0.5), 2);
        assert_eq!(clf.predict_class(-0.5), 1);
        // Loss and gradient equal the binary logistic at θ = 0.
        for score in [-2.0, -0.3, 0.0, 0.7, 3.0] {
            assert!((clf.loss_value(2, score) - Loss::Logistic.value(1.0, score)).abs() < 1e-12);
            assert!((clf.loss_value(1, score) - Loss::Logistic.value(-1.0, score)).abs() < 1e-12);
            assert!(
                (clf.gradient_factor(2, score) - Loss::Logistic.gradient_factor(1.0, score)).abs()
                    < 1e-12
            );
        }
    }

    #[test]
    fn predict_class_partitions_score_axis() {
        let clf = OrdinalClassifier::equally_spaced(4, Loss::Logistic);
        assert_eq!(clf.class_count(), 4);
        // Thresholds at -1, 0, 1.
        assert_eq!(clf.predict_class(-5.0), 1);
        assert_eq!(clf.predict_class(-0.5), 2);
        assert_eq!(clf.predict_class(0.5), 3);
        assert_eq!(clf.predict_class(5.0), 4);
    }

    #[test]
    fn ordinal_gradient_matches_finite_difference() {
        let clf = OrdinalClassifier::equally_spaced(5, Loss::Logistic);
        let h = 1e-7;
        for class in 1..=5 {
            for score in [-2.5, -0.7, 0.0, 1.3, 2.9] {
                let numeric = (clf.loss_value(class, score + h) - clf.loss_value(class, score - h))
                    / (2.0 * h);
                let analytic = clf.gradient_factor(class, score);
                assert!(
                    (numeric - analytic).abs() < 1e-5,
                    "class {class}, score {score}: {numeric} vs {analytic}"
                );
            }
        }
    }

    #[test]
    fn ordinal_loss_minimized_in_own_bin() {
        let clf = OrdinalClassifier::equally_spaced(4, Loss::Logistic);
        // A score in the middle of class 3's bin (between 0 and 1).
        let score = 0.5;
        let own = clf.loss_value(3, score);
        for other in [1, 2, 4] {
            assert!(
                clf.loss_value(other, score) > own,
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
            counts[c] += 1;
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

    #[test]
    fn multiclass_training_beats_chance_rtt() {
        let d = meridian_like(60, 3);
        let labels = MulticlassLabels::quantiles(&d, 3);
        let clf = OrdinalClassifier::equally_spaced(3, Loss::Logistic);
        let mut sys = MulticlassSystem::new(60, 10, 10, clf, params(), Metric::Rtt, 3);
        sys.run(60 * 10 * 40, &labels);
        let (exact, within_one, mae) = sys.evaluate(&labels);
        // Chance: 1/3 exact, ~7/9 within-one.
        assert!(exact > 0.5, "exact accuracy {exact}");
        assert!(within_one > 0.9, "within-one accuracy {within_one}");
        assert!(mae < 0.6, "mean absolute class error {mae}");
    }

    #[test]
    fn multiclass_training_beats_chance_abw() {
        let d = hps3_like(60, 4);
        let labels = MulticlassLabels::quantiles(&d, 4);
        let clf = OrdinalClassifier::equally_spaced(4, Loss::Logistic);
        let mut sys = MulticlassSystem::new(60, 10, 10, clf, params(), Metric::Abw, 4);
        sys.run(60 * 10 * 40, &labels);
        let (exact, within_one, _) = sys.evaluate(&labels);
        assert!(exact > 0.4, "exact accuracy {exact} (chance = 0.25)");
        assert!(within_one > 0.8, "within-one accuracy {within_one}");
    }

    #[test]
    fn binarized_provider_reduces_to_binary_problem() {
        let d = meridian_like(50, 5);
        let labels = MulticlassLabels::quantiles(&d, 4);
        let mut provider = BinarizedProvider::new(&labels, 2);
        let mut system = crate::Session::builder().nodes(50).build().expect("valid");
        system.run(50 * 10 * 25, &mut provider).expect("run");
        // Evaluate against the top-half classes as "good".
        let mut ok = 0usize;
        let mut total = 0usize;
        for (i, j, c) in labels.iter() {
            let truth_good = c > 2;
            let predicted_good = system.raw_score(i, j).expect("alive pair") > 0.0;
            total += 1;
            if truth_good == predicted_good {
                ok += 1;
            }
        }
        let acc = ok as f64 / total as f64;
        assert!(acc > 0.75, "binarized accuracy {acc}");
    }

    #[test]
    #[should_panic(expected = "class 7 outside")]
    fn class_bounds_checked() {
        let clf = OrdinalClassifier::equally_spaced(3, Loss::Logistic);
        clf.loss_value(7, 0.0);
    }
}
