//! The [`Dataset`] container: a ground-truth pairwise measurement
//! matrix plus its observation mask and metric identity.

use crate::class::ClassMatrix;
use crate::Metric;
use dmf_linalg::stats::{percentile_in_place, Summary};
use dmf_linalg::{Mask, Matrix};
use serde::{Deserialize, Serialize};

/// A pairwise performance dataset over `n` nodes.
///
/// `values[(i, j)]` is the ground-truth quantity from node `i` to node
/// `j` (ms for RTT, Mbps for ABW); only entries with `mask.is_known`
/// are meaningful. The diagonal is never observed.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Dataset {
    /// Human-readable name (e.g. `"meridian-like"`).
    pub name: String,
    /// Which metric the values measure.
    pub metric: Metric,
    /// Ground-truth quantities.
    pub values: Matrix,
    /// Observation mask (true = entry exists in the dataset).
    pub mask: Mask,
}

impl Dataset {
    /// Builds a dataset, validating shapes.
    ///
    /// # Panics
    /// Panics if the mask shape differs from the value shape, or if the
    /// matrix is not square.
    pub fn new(name: impl Into<String>, metric: Metric, values: Matrix, mask: Mask) -> Self {
        assert!(values.is_square(), "pairwise dataset must be square");
        assert_eq!(
            (mask.rows(), mask.cols()),
            values.shape(),
            "mask/value shape mismatch"
        );
        Self {
            name: name.into(),
            metric,
            values,
            mask,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.values.rows()
    }

    /// True when the dataset has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All observed values, in row-major order.
    pub fn observed_values(&self) -> Vec<f64> {
        self.mask
            .iter_known()
            .map(|(i, j)| self.values[(i, j)])
            .collect()
    }

    /// The ground-truth quantity for a pair, if observed.
    pub fn value(&self, i: usize, j: usize) -> Option<f64> {
        if self.mask.is_known(i, j) {
            Some(self.values[(i, j)])
        } else {
            None
        }
    }

    /// Median of the observed values — the paper's default `τ`.
    pub fn median(&self) -> f64 {
        percentile_in_place(&mut self.observed_values(), 50.0)
    }

    /// `τ` that makes the requested fraction of observed paths "good"
    /// (Table 1's percentile sweep).
    pub fn tau_for_good_portion(&self, portion: f64) -> f64 {
        let p = self.metric.percentile_for_good_portion(portion);
        percentile_in_place(&mut self.observed_values(), p)
    }

    /// Summary statistics of observed values (used for calibration
    /// checks and harness output).
    pub fn summary(&self) -> Summary {
        Summary::of(&self.observed_values())
    }

    /// Thresholds the dataset into a ±1 class matrix at `tau`.
    pub fn classify(&self, tau: f64) -> ClassMatrix {
        ClassMatrix::from_dataset(self, tau)
    }

    /// Fraction of observed paths that are "good" at `tau`.
    pub fn good_fraction(&self, tau: f64) -> f64 {
        let obs = self.observed_values();
        if obs.is_empty() {
            return 0.0;
        }
        let good = obs
            .iter()
            .filter(|&&v| self.metric.classify(v, tau) > 0.0)
            .count();
        good as f64 / obs.len() as f64
    }

    /// Rescales all values by `factor` (calibration helper).
    pub fn scale_values(&mut self, factor: f64) {
        assert!(factor > 0.0, "scale factor must be positive");
        self.values = self.values.scale(factor);
    }

    /// Restricts the dataset to its first `n` nodes (used to cut the
    /// Figure-1 submatrices, e.g. 2255 of 2500 Meridian nodes).
    pub fn head(&self, n: usize) -> Dataset {
        assert!(
            n <= self.len(),
            "head({n}) larger than dataset ({})",
            self.len()
        );
        let values = self.values.submatrix(n, n);
        let mut mask = Mask::none(n, n);
        for (i, j) in self.mask.iter_known() {
            if i < n && j < n {
                mask.set(i, j, true);
            }
        }
        Dataset::new(format!("{}[0..{n}]", self.name), self.metric, values, mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_rtt() -> Dataset {
        // 3 nodes; values 10, 20, 30 observed off-diagonal (symmetric).
        let values =
            Matrix::from_rows(&[&[0.0, 10.0, 20.0], &[10.0, 0.0, 30.0], &[20.0, 30.0, 0.0]]);
        Dataset::new("toy", Metric::Rtt, values, Mask::full_off_diagonal(3))
    }

    #[test]
    fn observed_values_skip_diagonal() {
        let d = toy_rtt();
        let mut obs = d.observed_values();
        obs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(obs, vec![10.0, 10.0, 20.0, 20.0, 30.0, 30.0]);
    }

    #[test]
    fn median_and_tau() {
        let d = toy_rtt();
        assert_eq!(d.median(), 20.0);
        // 50% good for RTT is the median.
        assert!((d.tau_for_good_portion(0.5) - 20.0).abs() < 1e-9);
        // Small portions give small tau for RTT.
        assert!(d.tau_for_good_portion(0.1) < d.tau_for_good_portion(0.9));
    }

    #[test]
    fn good_fraction_tracks_tau() {
        let d = toy_rtt();
        assert!((d.good_fraction(10.0) - 2.0 / 6.0).abs() < 1e-9);
        assert!((d.good_fraction(30.0) - 1.0).abs() < 1e-9);
        assert_eq!(d.good_fraction(5.0), 0.0);
    }

    #[test]
    fn value_respects_mask() {
        let d = toy_rtt();
        assert_eq!(d.value(0, 1), Some(10.0));
        assert_eq!(d.value(1, 1), None);
    }

    #[test]
    fn scale_values_rescales_median() {
        let mut d = toy_rtt();
        d.scale_values(2.0);
        assert_eq!(d.median(), 40.0);
    }

    #[test]
    fn head_restricts() {
        let d = toy_rtt();
        let h = d.head(2);
        assert_eq!(h.len(), 2);
        assert_eq!(h.value(0, 1), Some(10.0));
        assert_eq!(h.value(1, 0), Some(10.0));
        assert_eq!(h.mask.count_known(), 2);
    }

    #[test]
    #[should_panic(expected = "must be square")]
    fn non_square_rejected() {
        let values = Matrix::zeros(2, 3);
        let mask = Mask::none(2, 3);
        Dataset::new("bad", Metric::Rtt, values, mask);
    }

    #[test]
    fn abw_good_fraction_orientation() {
        let values = Matrix::from_rows(&[&[0.0, 100.0], &[5.0, 0.0]]);
        let d = Dataset::new("abw", Metric::Abw, values, Mask::full_off_diagonal(2));
        // tau = 50: only the 100 path is good.
        assert!((d.good_fraction(50.0) - 0.5).abs() < 1e-9);
    }
}
