//! Measurement providers: where training values come from.
//!
//! The session ([`crate::session`]) is agnostic to how a
//! measurement is produced. Three sources cover the paper's
//! experiments:
//!
//! * [`ClassLabelProvider`] — labels read from a (possibly
//!   error-injected) [`ClassMatrix`]; this is the paper's main
//!   evaluation path, where the measurement module is assumed to have
//!   produced the class matrix up front.
//! * [`QuantityProvider`] — raw quantities scaled to unit magnitude;
//!   used by quantity-based (regression) prediction in §6.4.
//! * [`ProbedClassProvider`] — classes measured *on the fly* by the
//!   simulated tools of `dmf-simnet` (ping+threshold for RTT,
//!   pathload-style train for ABW), exercising the cheap direct class
//!   measurement the paper advocates in §3.2.
//!
//! [`MulticlassLabels`] adds the paper's §7 future work: ordered
//! classes `1..=C` cut from a dataset by quantiles, for a session
//! trained with [`Loss::Ordinal`](crate::Loss::Ordinal).

use crate::error::ConfigError;
use crate::session::Session;
use dmf_datasets::{ClassMatrix, Dataset, Metric};
use dmf_simnet::probe::probed_class;
use rand::RngCore;

/// A source of training values `x` for node pairs.
pub trait MeasurementProvider {
    /// The value `x_ij` fed to SGD for pair `(i, j)`; `None` when the
    /// pair cannot be measured (missing ground truth).
    fn measure(&mut self, i: usize, j: usize, rng: &mut dyn RngCore) -> Option<f64>;

    /// The metric being measured (decides Algorithm 1 vs Algorithm 2).
    fn metric(&self) -> Metric;

    /// Number of nodes covered.
    fn len(&self) -> usize;

    /// True when the provider covers no nodes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Labels straight from a class matrix.
///
/// A tick reads one random pair, and at n = 1000 the matrix's `f64`
/// labels (8 MB) and `bool` mask (1 MB) both sit past L2, so every
/// `measure` paid two cache misses for two bits of information. The
/// provider therefore packs those two bits per ordered pair at
/// construction — n²/4 bytes, 250 KB at n = 1000 — and `measure` reads
/// only that table. The wrapped matrix is kept, immutable, for
/// [`class_matrix`](Self::class_matrix).
pub struct ClassLabelProvider {
    class: ClassMatrix,
    /// Two bits per ordered pair, row-major, four pairs to a byte:
    /// `0` unobserved, `1` bad (−1), `3` good (+1) — the label is
    /// `code − 2`.
    codes: Vec<u8>,
}

impl ClassLabelProvider {
    /// Wraps a class matrix (use `dmf_simnet::errors::inject` first to
    /// model erroneous measurements).
    ///
    /// # Panics
    /// Panics when the label matrix is not square, the mask does not
    /// cover it, or an observed label is neither `+1` nor `−1`.
    pub fn new(class: ClassMatrix) -> Self {
        let n = class.len();
        assert!(class.labels.is_square(), "class matrix must be square");
        let mut codes = vec![0u8; (n * n).div_ceil(4)];
        for i in 0..n {
            for (j, &x) in class.labels.row(i).iter().enumerate() {
                if !class.mask.is_known(i, j) {
                    continue;
                }
                // One test for both labels, and no branch on which it
                // is: the classes are close to a coin flip per pair.
                assert!(x.abs() == 1.0, "class label must be +1 or -1, got {x}");
                let code = (x as i8 + 2) as u8;
                let pair = i * n + j;
                codes[pair / 4] |= code << (pair % 4 * 2);
            }
        }
        Self { class, codes }
    }

    /// Access to the wrapped matrix.
    pub fn class_matrix(&self) -> &ClassMatrix {
        &self.class
    }
}

impl MeasurementProvider for ClassLabelProvider {
    fn measure(&mut self, i: usize, j: usize, _rng: &mut dyn RngCore) -> Option<f64> {
        let n = self.class.len();
        assert!(i < n && j < n, "mask index out of bounds");
        let pair = i * n + j;
        match self.codes[pair / 4] >> (pair % 4 * 2) & 3 {
            0 => None,
            code => Some(f64::from(code) - 2.0),
        }
    }

    fn metric(&self) -> Metric {
        self.class.metric
    }

    fn len(&self) -> usize {
        self.class.len()
    }
}

/// Raw quantities divided by a fixed scale.
pub struct QuantityProvider {
    dataset: Dataset,
    scale: f64,
}

impl QuantityProvider {
    /// Wraps a dataset; `scale` should be of the order of the dataset
    /// median so SGD sees values near 1.
    ///
    /// # Errors
    /// [`ConfigError::ValueScale`] unless `scale` is finite and strictly
    /// positive (the rule a quantity-mode config is held to).
    pub fn new(dataset: Dataset, scale: f64) -> Result<Self, ConfigError> {
        ConfigError::check_value_scale(scale)?;
        Ok(Self { dataset, scale })
    }

    /// The scale divisor.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

impl MeasurementProvider for QuantityProvider {
    fn measure(&mut self, i: usize, j: usize, _rng: &mut dyn RngCore) -> Option<f64> {
        self.dataset.value(i, j).map(|v| v / self.scale)
    }

    fn metric(&self) -> Metric {
        self.dataset.metric
    }

    fn len(&self) -> usize {
        self.dataset.len()
    }
}

/// Classes measured on the fly by simulated probing tools
/// ([`dmf_simnet::probe::probed_class`]).
pub struct ProbedClassProvider {
    dataset: Dataset,
    tau: f64,
}

impl ProbedClassProvider {
    /// Probes `dataset` at threshold/rate `tau`.
    ///
    /// # Errors
    /// [`ConfigError::Tau`] unless `tau` is finite and strictly positive.
    pub fn new(dataset: Dataset, tau: f64) -> Result<Self, ConfigError> {
        ConfigError::check_tau(tau)?;
        Ok(Self { dataset, tau })
    }
}

impl MeasurementProvider for ProbedClassProvider {
    fn measure(&mut self, i: usize, j: usize, rng: &mut dyn RngCore) -> Option<f64> {
        probed_class(&self.dataset, i, j, self.tau, rng)
    }

    fn metric(&self) -> Metric {
        self.dataset.metric
    }

    fn len(&self) -> usize {
        self.dataset.len()
    }
}

/// Ordered classes `1..=C` derived from a quantity dataset by
/// quantile boundaries (class 1 = worst performance, `C` = best): the
/// labels a [`Loss::Ordinal`](crate::Loss::Ordinal) session trains on.
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
    /// (`2..=250`) equal-mass classes.
    pub fn quantiles(dataset: &Dataset, classes: u8) -> Self {
        assert!((2..=250).contains(&classes), "class count out of range");
        let mut observed = dataset.observed_values();
        // Quality-ascending boundaries: for RTT high values are *worse*,
        // so boundaries run from high to low quantiles.
        let boundaries: Vec<f64> = (1..classes)
            .map(|k| {
                let portion = f64::from(k) / f64::from(classes);
                // Portion of paths at least this good.
                let p = dataset.metric.percentile_for_good_portion(1.0 - portion);
                dmf_linalg::stats::percentile_in_place(&mut observed, p)
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
            out.labels[i * n + j] = out.class_of(dataset.values[(i, j)]);
        }
        out
    }

    /// The class (1-based, quality-ascending) of a measured quantity:
    /// the rule the observed labels were built with, for labeling a
    /// fresh measurement such as one from a trace replay.
    pub fn class_of(&self, value: f64) -> u8 {
        1 + self
            .boundaries
            .iter()
            .filter(|&&b| match self.metric {
                Metric::Rtt => value <= b, // faster than boundary ⇒ better
                Metric::Abw => value >= b, // more bandwidth ⇒ better
            })
            .count() as u8
    }

    /// The class of a pair, if observed.
    pub fn label(&self, i: usize, j: usize) -> Option<u8> {
        Some(self.labels[i * self.n + j]).filter(|&c| c != 0)
    }

    /// Iterates observed `(i, j, class)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, u8)> + '_ {
        (0..self.n)
            .flat_map(move |i| (0..self.n).filter_map(move |j| self.label(i, j).map(|c| (i, j, c))))
    }

    /// Scores `session`'s predicted classes against the observed ones:
    /// (exact accuracy, within-one-class accuracy, mean absolute class
    /// error). Pairs with a departed end are skipped.
    pub fn evaluate(&self, session: &Session) -> (f64, f64, f64) {
        let errors: Vec<u8> = self
            .iter()
            .filter_map(|(i, j, truth)| {
                let predicted = session.predict_class(i, j).ok()?;
                Some(truth.abs_diff(predicted as u8))
            })
            .collect();
        assert!(!errors.is_empty(), "no observed labels to evaluate");
        let share = |count: usize| count as f64 / errors.len() as f64;
        (
            share(errors.iter().filter(|&&e| e == 0).count()),
            share(errors.iter().filter(|&&e| e <= 1).count()),
            share(errors.iter().map(|&e| usize::from(e)).sum()),
        )
    }
}

impl MeasurementProvider for MulticlassLabels {
    fn measure(&mut self, i: usize, j: usize, _rng: &mut dyn RngCore) -> Option<f64> {
        self.label(i, j).map(f64::from)
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    fn len(&self) -> usize {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmf_datasets::abw::hps3_like;
    use dmf_datasets::rtt::meridian_like;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn class_provider_returns_labels() {
        let d = meridian_like(20, 1);
        let tau = d.median();
        let cm = d.classify(tau);
        let mut p = ClassLabelProvider::new(cm.clone());
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for (i, j) in cm.mask.iter_known().take(50) {
            assert_eq!(p.measure(i, j, &mut rng), cm.label(i, j));
        }
        assert_eq!(p.measure(0, 0, &mut rng), None);
        assert_eq!(p.metric(), Metric::Rtt);
        assert_eq!(p.len(), 20);
    }

    /// The packed table against the matrix it was packed from, on
    /// every ordered pair: flipped labels, entries masked out after
    /// classification (their stale `±1` must not leak), the diagonal.
    #[test]
    fn packed_labels_match_the_class_matrix_on_every_pair() {
        use dmf_simnet::errors::{inject, ErrorModel};
        for d in [meridian_like(60, 6), hps3_like(60, 6)] {
            let mut cm = d.classify(d.median());
            let mut rng = ChaCha8Rng::seed_from_u64(6);
            let flipped = inject(
                &mut cm,
                &d,
                ErrorModel::FlipRandom { fraction: 0.15 },
                &mut rng,
            );
            assert!(flipped > 0, "error injection changed nothing");
            for (i, j) in [(0, 1), (1, 0), (17, 42), (30, 31), (59, 58)] {
                cm.mask.set(i, j, false);
            }
            let mut p = ClassLabelProvider::new(cm);
            let (mut good, mut bad, mut unobserved) = (0, 0, 0);
            for i in 0..60 {
                for j in 0..60 {
                    let x = p.measure(i, j, &mut rng);
                    assert_eq!(x, p.class_matrix().label(i, j), "pair ({i}, {j})");
                    match x {
                        Some(x) if x > 0.0 => good += 1,
                        Some(_) => bad += 1,
                        None => unobserved += 1,
                    }
                }
            }
            assert!(good > 0 && bad > 0, "{good} good, {bad} bad");
            assert!(unobserved >= 60 + 5, "{unobserved} unobserved");
        }
    }

    #[test]
    #[should_panic(expected = "mask index out of bounds")]
    fn class_provider_rejects_an_out_of_range_row() {
        let d = meridian_like(10, 1);
        let mut p = ClassLabelProvider::new(d.classify(d.median()));
        p.measure(10, 0, &mut ChaCha8Rng::seed_from_u64(1));
    }

    #[test]
    #[should_panic(expected = "mask index out of bounds")]
    fn class_provider_rejects_an_out_of_range_column() {
        let d = meridian_like(10, 1);
        let mut p = ClassLabelProvider::new(d.classify(d.median()));
        p.measure(0, 10, &mut ChaCha8Rng::seed_from_u64(1));
    }

    #[test]
    fn quantity_provider_scales() {
        let d = meridian_like(10, 2);
        let median = d.median();
        let v01 = d.values[(0, 1)];
        let mut p = QuantityProvider::new(d, median).expect("valid scale");
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let x = p.measure(0, 1, &mut rng).unwrap();
        assert!((x - v01 / median).abs() < 1e-12);
    }

    #[test]
    fn probed_rtt_classes_mostly_match_truth() {
        let d = meridian_like(40, 3);
        let tau = d.median();
        let truth = d.classify(tau);
        let mut p = ProbedClassProvider::new(d, tau).expect("valid tau");
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut agree = 0;
        let mut total = 0;
        for (i, j) in truth.mask.iter_known() {
            let x = p.measure(i, j, &mut rng).unwrap();
            assert!(x == 1.0 || x == -1.0);
            total += 1;
            if Some(x) == truth.label(i, j) {
                agree += 1;
            }
        }
        let rate = agree as f64 / total as f64;
        assert!(rate > 0.9, "probe agreement {rate} too low");
        assert!(rate < 1.0, "probing should not be perfectly noise-free");
    }

    #[test]
    fn probed_abw_classes_sane() {
        let d = hps3_like(40, 4);
        let tau = d.median();
        let truth = d.classify(tau);
        let mut p = ProbedClassProvider::new(d, tau).expect("valid tau");
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut agree = 0;
        let mut total = 0;
        for (i, j) in truth.mask.iter_known() {
            let Some(x) = p.measure(i, j, &mut rng) else {
                continue;
            };
            total += 1;
            if Some(x) == truth.label(i, j) {
                agree += 1;
            }
        }
        assert!(agree as f64 / total as f64 > 0.85);
    }

    #[test]
    fn quantity_scale_validated() {
        for scale in [f64::INFINITY, f64::NAN, 0.0, -1.0] {
            match QuantityProvider::new(meridian_like(5, 5), scale) {
                Err(ConfigError::ValueScale { value_scale }) => {
                    assert_eq!(value_scale.to_bits(), scale.to_bits());
                }
                Err(other) => panic!("scale {scale}: wrong refusal {other:?}"),
                Ok(_) => panic!("scale {scale} accepted"),
            }
        }
    }
}
