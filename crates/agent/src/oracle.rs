//! Ground-truth measurement oracle for localhost deployments.
//!
//! On a real network, an RTT probe measures the wire and an ABW probe
//! self-induces congestion. On localhost every path looks identical,
//! so agents consult this oracle instead: it serves the synthetic
//! ground truth through the same noisy instruments the simulator uses
//! ([`dmf_simnet::probe::probed_class`]). The oracle is shared read-only across agent
//! threads; per-probe randomness comes from a lock-protected RNG so
//! results stay reproducible for a given seed.

use dmf_core::ConfigError;
use dmf_datasets::{Dataset, Metric};
use dmf_simnet::probe::probed_class;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Mutex;

/// Shared measurement oracle.
pub struct MeasurementOracle {
    dataset: Dataset,
    tau: f64,
    rng: Mutex<ChaCha8Rng>,
}

impl MeasurementOracle {
    /// Builds an oracle over `dataset`, classifying at `tau`.
    ///
    /// # Errors
    /// [`ConfigError::Tau`] unless `tau` is finite and strictly positive.
    pub fn new(dataset: Dataset, tau: f64, seed: u64) -> Result<Self, ConfigError> {
        ConfigError::check_tau(tau)?;
        Ok(Self {
            dataset,
            tau,
            rng: Mutex::new(ChaCha8Rng::seed_from_u64(seed)),
        })
    }

    /// The metric the oracle serves.
    pub fn metric(&self) -> Metric {
        self.dataset.metric
    }

    /// The classification threshold in force.
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.dataset.len()
    }

    /// True when the oracle covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.dataset.is_empty()
    }

    /// The ground-truth dataset (for evaluation only — agents must not
    /// peek at it).
    pub fn ground_truth(&self) -> &Dataset {
        &self.dataset
    }

    /// Measures the class of `i → j` with the instrument the metric
    /// calls for: ping + threshold for RTT, a pathload train at rate
    /// `tau` for ABW (inferred at the target).
    pub fn measure_class(&self, i: usize, j: usize) -> Option<f64> {
        let mut rng = self.rng.lock().expect("oracle rng lock poisoned");
        probed_class(&self.dataset, i, j, self.tau, &mut *rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmf_datasets::abw::hps3_like;
    use dmf_datasets::rtt::meridian_like;

    #[test]
    fn rtt_oracle_classifies() {
        let d = meridian_like(20, 1);
        let tau = d.median();
        let oracle = MeasurementOracle::new(d, tau, 7).expect("valid tau");
        let x = oracle.measure_class(0, 1).unwrap();
        assert!(x == 1.0 || x == -1.0);
        assert_eq!(oracle.metric(), Metric::Rtt);
        assert_eq!(oracle.len(), 20);
    }

    #[test]
    fn abw_oracle_classifies() {
        let d = hps3_like(20, 2);
        let tau = d.median();
        let oracle = MeasurementOracle::new(d, tau, 8).expect("valid tau");
        let mut seen_good = false;
        let mut seen_bad = false;
        for i in 0..20 {
            for j in 0..20 {
                if i == j {
                    continue;
                }
                match oracle.measure_class(i, j) {
                    Some(1.0) => seen_good = true,
                    Some(-1.0) => seen_bad = true,
                    Some(other) => panic!("bad label {other}"),
                    None => {}
                }
            }
        }
        assert!(seen_good && seen_bad, "median threshold must split classes");
    }

    #[test]
    fn diagonal_unmeasurable() {
        let d = meridian_like(10, 3);
        let tau = d.median();
        let oracle = MeasurementOracle::new(d, tau, 9).expect("valid tau");
        assert_eq!(oracle.measure_class(4, 4), None);
    }

    #[test]
    fn mostly_agrees_with_truth() {
        let d = meridian_like(30, 4);
        let tau = d.median();
        let truth = d.classify(tau);
        let oracle = MeasurementOracle::new(d, tau, 10).expect("valid tau");
        let mut agree = 0;
        let mut total = 0;
        for (i, j) in truth.mask.iter_known() {
            if let Some(x) = oracle.measure_class(i, j) {
                total += 1;
                if Some(x) == truth.label(i, j) {
                    agree += 1;
                }
            }
        }
        assert!(agree as f64 / total as f64 > 0.9);
    }

    /// Both probed-class surfaces refuse a τ that `ConfigError::check_tau`
    /// refuses, with the same typed error.
    #[test]
    fn probed_surfaces_refuse_a_bad_tau() {
        use dmf_core::provider::ProbedClassProvider;
        let d = meridian_like(5, 5);
        for tau in [f64::INFINITY, f64::NAN, 0.0, -1.0] {
            let refused = |r: Result<(), ConfigError>| match r {
                Err(ConfigError::Tau { tau: got }) => got.to_bits() == tau.to_bits(),
                _ => false,
            };
            assert!(
                refused(MeasurementOracle::new(d.clone(), tau, 1).map(drop)),
                "oracle τ {tau}"
            );
            assert!(
                refused(ProbedClassProvider::new(d.clone(), tau).map(drop)),
                "provider τ {tau}"
            );
        }
    }
}
