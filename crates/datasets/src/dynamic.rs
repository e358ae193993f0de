//! Dynamic (timestamped) measurement traces — the Harvard workload.
//!
//! The Harvard dataset is a 4-hour stream of ~2.5 M application-level
//! RTT measurements between 226 Azureus clients, probed *passively*
//! with very uneven per-pair frequencies. The paper replays it in
//! timestamp order and builds the static ground truth by taking the
//! per-pair **median** of each measurement stream.
//!
//! [`harvard_like`] reproduces that workload: a Zipf-weighted pair
//! sampler (a few hot pairs, a long tail, some pairs never measured),
//! log-normal jitter around the topological base RTT, occasional
//! congestion spikes, and the same median-based ground-truth
//! construction.

use crate::rtt::RttDatasetConfig;
use crate::topology::Topology;
use crate::{Dataset, Metric};
use dmf_linalg::stats::log_normal_sample;
use dmf_linalg::{Mask, Matrix};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// One timestamped measurement.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Measurement {
    /// Seconds since trace start.
    pub time_s: f64,
    /// Probing node.
    pub from: usize,
    /// Target node.
    pub to: usize,
    /// Measured quantity (ms for RTT).
    pub value: f64,
}

/// A time-ordered stream of measurements over `n` nodes.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DynamicTrace {
    /// Trace name.
    pub name: String,
    /// Metric measured.
    pub metric: Metric,
    /// Number of nodes.
    pub nodes: usize,
    /// Measurements sorted by `time_s`.
    pub measurements: Vec<Measurement>,
}

impl DynamicTrace {
    /// Number of measurements.
    pub fn len(&self) -> usize {
        self.measurements.len()
    }

    /// True when the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.measurements.is_empty()
    }

    /// Builds the static ground truth the paper uses: per-pair median
    /// of the measurement stream; pairs never measured stay unknown.
    fn ground_truth_median(&self) -> Dataset {
        let n = self.nodes;
        let mut streams: Vec<Vec<f64>> = vec![Vec::new(); n * n];
        for m in &self.measurements {
            streams[m.from * n + m.to].push(m.value);
        }
        let mut values = Matrix::zeros(n, n);
        let mut mask = Mask::none(n, n);
        for i in 0..n {
            for j in 0..n {
                let s = &mut streams[i * n + j];
                if i != j && !s.is_empty() {
                    values[(i, j)] = dmf_linalg::stats::percentile_in_place(s, 50.0);
                    mask.set(i, j, true);
                }
            }
        }
        Dataset::new(format!("{}-median", self.name), self.metric, values, mask)
    }

    /// Scales every measurement value by `factor` (calibration).
    pub fn scale_values(&mut self, factor: f64) {
        assert!(factor > 0.0, "scale factor must be positive");
        for m in &mut self.measurements {
            m.value *= factor;
        }
    }

    /// Verifies the time ordering invariant (used by tests and after
    /// deserializing external traces).
    pub fn is_time_ordered(&self) -> bool {
        self.measurements
            .windows(2)
            .all(|w| w[0].time_s <= w[1].time_s)
    }
}

/// Configuration of the Harvard-like dynamic workload.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HarvardConfig {
    /// Underlying static RTT dataset configuration (node count etc.).
    pub rtt: RttDatasetConfig,
    /// Trace duration in seconds (paper: 4 hours).
    pub duration_s: f64,
    /// Total number of measurements to generate (paper: ~2.5 M; the
    /// default is smaller so tests and experiments stay fast — the
    /// workload's *shape* is what matters).
    pub total_measurements: usize,
    /// Zipf exponent of per-pair probe frequencies (1.0 ≈ classic
    /// popularity skew; 0 = uniform).
    pub pair_zipf_exponent: f64,
    /// Log-normal sigma of per-measurement jitter around the base RTT.
    pub jitter_sigma: f64,
    /// Probability that a measurement is a congestion spike.
    pub spike_probability: f64,
    /// Multiplier applied to spiked measurements.
    pub spike_factor: f64,
}

impl HarvardConfig {
    /// Paper-shaped defaults at a custom node count (paper: 226).
    pub fn new(nodes: usize, total_measurements: usize) -> Self {
        Self {
            rtt: RttDatasetConfig::harvard(nodes),
            duration_s: 4.0 * 3600.0,
            total_measurements,
            pair_zipf_exponent: 1.0,
            jitter_sigma: 0.12,
            spike_probability: 0.02,
            spike_factor: 3.0,
        }
    }
}

/// Generates a Harvard-like dynamic trace and its median ground truth
/// (calibrated so the ground-truth median hits the configured target).
pub fn harvard_like(config: &HarvardConfig, seed: u64) -> (DynamicTrace, Dataset) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let topology = Topology::generate(config.rtt.topology.clone(), &mut rng);
    let n = topology.len();
    assert!(n >= 2, "dynamic trace needs at least two nodes");

    // Zipf-ish weights over ordered pairs: weight of the pair with
    // popularity rank k is 1/k^s. Ranks are assigned by random
    // permutation so hot pairs are scattered across the matrix.
    let pair_count = n * (n - 1);
    let mut ranks: Vec<usize> = (0..pair_count).collect();
    // Fisher–Yates shuffle.
    for i in (1..pair_count).rev() {
        let j = rng.gen_range(0..=i);
        ranks.swap(i, j);
    }
    let weights: Vec<f64> = ranks
        .iter()
        .map(|&rank| 1.0 / ((rank + 1) as f64).powf(config.pair_zipf_exponent))
        .collect();
    // Cumulative distribution for sampling.
    let mut cdf = Vec::with_capacity(pair_count);
    let mut acc = 0.0;
    for w in &weights {
        acc += w;
        cdf.push(acc);
    }
    let total_w = acc;

    // Ordered-pair index → (from, to) skipping the diagonal.
    let pair_of = |idx: usize| -> (usize, usize) {
        let from = idx / (n - 1);
        let rem = idx % (n - 1);
        let to = if rem >= from { rem + 1 } else { rem };
        (from, to)
    };

    let mut measurements = Vec::with_capacity(config.total_measurements);
    for _ in 0..config.total_measurements {
        let pick = rng.gen::<f64>() * total_w;
        let idx = match cdf.binary_search_by(|probe| probe.partial_cmp(&pick).expect("NaN in CDF"))
        {
            Ok(i) => i,
            Err(i) => i.min(pair_count - 1),
        };
        let (from, to) = pair_of(idx);
        let base = topology.base_rtt(from, to);
        let mut value = base * log_normal_sample(&mut rng, 0.0, config.jitter_sigma);
        if rng.gen::<f64>() < config.spike_probability {
            value *= config.spike_factor;
        }
        measurements.push(Measurement {
            time_s: rng.gen::<f64>() * config.duration_s,
            from,
            to,
            value,
        });
    }
    measurements.sort_by(|a, b| a.time_s.partial_cmp(&b.time_s).expect("NaN timestamp"));

    let mut trace = DynamicTrace {
        name: config.rtt.name.clone(),
        metric: Metric::Rtt,
        nodes: n,
        measurements,
    };

    // Calibrate the *ground truth* median to the target, scaling the
    // raw measurements by the same factor so they stay consistent.
    let gt = trace.ground_truth_median();
    let factor = config.rtt.target_median_ms / gt.median();
    trace.scale_values(factor);
    let mut ground_truth = gt;
    ground_truth.scale_values(factor);

    (trace, ground_truth)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> HarvardConfig {
        HarvardConfig::new(40, 30_000)
    }

    #[test]
    fn trace_is_time_ordered() {
        let (trace, _) = harvard_like(&small_config(), 1);
        assert!(trace.is_time_ordered());
        assert_eq!(trace.len(), 30_000);
        assert!(!trace.is_empty());
    }

    #[test]
    fn ground_truth_median_calibrated() {
        let (_, gt) = harvard_like(&small_config(), 2);
        assert!(
            (gt.median() - 131.6).abs() < 1e-6,
            "ground truth median {}",
            gt.median()
        );
    }

    #[test]
    fn measurements_within_duration_and_bounds() {
        let cfg = small_config();
        let (trace, _) = harvard_like(&cfg, 3);
        for m in &trace.measurements {
            assert!(m.time_s >= 0.0 && m.time_s <= cfg.duration_s);
            assert!(m.from < 40 && m.to < 40 && m.from != m.to);
            assert!(m.value > 0.0);
        }
    }

    #[test]
    fn pair_frequencies_are_skewed() {
        let (trace, _) = harvard_like(&small_config(), 4);
        let n = trace.nodes;
        let mut counts = vec![0usize; n * n];
        for m in &trace.measurements {
            counts[m.from * n + m.to] += 1;
        }
        let mut nonzero: Vec<usize> = counts.into_iter().filter(|&c| c > 0).collect();
        nonzero.sort_unstable_by(|a, b| b.cmp(a));
        // Hot pairs must dominate: top pair far above the median pair.
        let top = nonzero[0];
        let med = nonzero[nonzero.len() / 2];
        assert!(
            top as f64 > 8.0 * med.max(1) as f64,
            "expected skew, got top={top} median={med}"
        );
    }

    #[test]
    fn ground_truth_masks_unmeasured_pairs() {
        // With Zipf skew and a limited measurement budget some pairs
        // are never probed — exactly like the passive Harvard trace.
        let mut cfg = small_config();
        cfg.total_measurements = 2_000;
        let (trace, gt) = harvard_like(&cfg, 5);
        let measured = gt.mask.count_known();
        assert!(measured > 0);
        assert!(
            measured < trace.nodes * (trace.nodes - 1),
            "every pair measured despite skewed sampling"
        );
    }

    #[test]
    fn median_robust_to_spikes() {
        // Ground truth uses medians, so occasional spikes must not
        // drag pair values to the spike level.
        let mut cfg = small_config();
        cfg.spike_probability = 0.05;
        let (trace, gt) = harvard_like(&cfg, 6);
        let n = trace.nodes;
        // Find a well-measured pair.
        let mut counts = vec![0usize; n * n];
        for m in &trace.measurements {
            counts[m.from * n + m.to] += 1;
        }
        let (idx, _) = counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, c)| *c)
            .expect("non-empty counts");
        let (i, j) = (idx / n, idx % n);
        let stream: Vec<f64> = trace
            .measurements
            .iter()
            .filter(|m| m.from == i && m.to == j)
            .map(|m| m.value)
            .collect();
        let med = gt.value(i, j).expect("pair must be observed");
        let max = stream.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(med < max, "median {med} must be below spike max {max}");
    }

    #[test]
    fn ground_truth_roundtrip_of_manual_trace() {
        let trace = DynamicTrace {
            name: "manual".into(),
            metric: Metric::Rtt,
            nodes: 3,
            measurements: vec![
                Measurement {
                    time_s: 0.0,
                    from: 0,
                    to: 1,
                    value: 10.0,
                },
                Measurement {
                    time_s: 1.0,
                    from: 0,
                    to: 1,
                    value: 20.0,
                },
                Measurement {
                    time_s: 2.0,
                    from: 0,
                    to: 1,
                    value: 30.0,
                },
                Measurement {
                    time_s: 3.0,
                    from: 2,
                    to: 1,
                    value: 7.0,
                },
            ],
        };
        let gt = trace.ground_truth_median();
        assert_eq!(gt.value(0, 1), Some(20.0));
        assert_eq!(gt.value(2, 1), Some(7.0));
        assert_eq!(gt.value(1, 0), None);
        assert_eq!(gt.mask.count_known(), 2);
    }
}
