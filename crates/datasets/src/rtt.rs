//! Synthetic RTT datasets calibrated to the paper's corpora.
//!
//! * [`meridian_like`] — a static 2500-node matrix mirroring the
//!   Meridian dataset (median ≈ 56.4 ms, symmetric, fully observed
//!   off-diagonal).
//! * [`RttDatasetConfig::harvard`] — the Harvard dataset's topology
//!   (226 nodes, median ≈ 131.6 ms, heavier tail: application-level
//!   RTTs measured between Azureus clients behind access links), which
//!   the *dynamic* Harvard trace of [`crate::dynamic`] is drawn from.
//!
//! Both configurations produce a two-tier topology (see
//! [`crate::topology`]) and then rescale all values so the observed
//! median matches the published median exactly — the experiments'
//! thresholds (`τ`) are percentile-based, so matching location and
//! shape is what matters.

use crate::topology::{Topology, TopologyConfig};
use crate::{Dataset, Metric};
use dmf_linalg::Mask;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Configuration of a synthetic RTT dataset.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RttDatasetConfig {
    /// Dataset name.
    pub name: String,
    /// Topology parameters (node count lives here).
    pub topology: TopologyConfig,
    /// Median the observed values are calibrated to (ms).
    pub target_median_ms: f64,
}

impl RttDatasetConfig {
    /// Meridian-like defaults at a custom size (the paper's matrix is
    /// 2500 × 2500; tests use smaller instances).
    pub fn meridian(nodes: usize) -> Self {
        Self {
            name: "meridian-like".into(),
            topology: TopologyConfig {
                nodes,
                clusters: (nodes / 100).clamp(8, 25),
                plane_size_ms: 70.0,
                access_mu: 1.6, // infrastructure nodes: small access delay
                access_sigma: 0.6,
                cluster_jitter_ms: 2.0,
                pair_noise_sigma: 0.08,
            },
            target_median_ms: 56.4,
        }
    }

    /// Harvard-like defaults at a custom size (paper: 226 nodes).
    /// Azureus clients sit behind residential access links: larger and
    /// more dispersed access delays, heavier pair noise.
    pub fn harvard(nodes: usize) -> Self {
        Self {
            name: "harvard-like".into(),
            topology: TopologyConfig {
                nodes,
                clusters: (nodes / 20).clamp(6, 16),
                plane_size_ms: 90.0,
                access_mu: 3.3, // median ≈ 27 ms of access delay per side
                access_sigma: 0.9,
                cluster_jitter_ms: 4.0,
                pair_noise_sigma: 0.15,
            },
            target_median_ms: 131.6,
        }
    }
}

/// Generates an RTT dataset plus the topology it came from.
fn generate_rtt_dataset(config: &RttDatasetConfig, seed: u64) -> (Topology, Dataset) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let topology = Topology::generate(config.topology.clone(), &mut rng);
    let values = topology.rtt_matrix(&mut rng);
    let mask = Mask::full_off_diagonal(topology.len());
    let mut dataset = Dataset::new(config.name.clone(), Metric::Rtt, values, mask);
    let median = dataset.median();
    assert!(median > 0.0, "degenerate topology produced zero median RTT");
    dataset.scale_values(config.target_median_ms / median);
    (topology, dataset)
}

/// Meridian-like static RTT dataset (paper size: 2500 nodes,
/// median 56.4 ms).
pub fn meridian_like(nodes: usize, seed: u64) -> Dataset {
    generate_rtt_dataset(&RttDatasetConfig::meridian(nodes), seed).1
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Harvard-like *static* RTT dataset (the per-pair medians; paper size:
    /// 226 nodes, median 131.6 ms). For the timestamped dynamic stream use
    /// [`crate::dynamic::harvard_like`].
    fn harvard_like_static(nodes: usize, seed: u64) -> Dataset {
        generate_rtt_dataset(&RttDatasetConfig::harvard(nodes), seed).1
    }

    #[test]
    fn meridian_median_calibrated() {
        let d = meridian_like(150, 1);
        assert!((d.median() - 56.4).abs() < 1e-6, "median {}", d.median());
        assert_eq!(d.len(), 150);
        assert_eq!(d.metric, Metric::Rtt);
    }

    #[test]
    fn harvard_median_calibrated() {
        let d = harvard_like_static(120, 2);
        assert!((d.median() - 131.6).abs() < 1e-6, "median {}", d.median());
    }

    #[test]
    fn values_positive_and_symmetric() {
        let d = meridian_like(80, 3);
        for i in 0..80 {
            for j in 0..80 {
                if i != j {
                    assert!(d.values[(i, j)] > 0.0);
                    assert!((d.values[(i, j)] - d.values[(j, i)]).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn harvard_has_heavier_tail_than_meridian() {
        let h = harvard_like_static(150, 4);
        let m = meridian_like(150, 4);
        // Compare tail weight via p90/p50 after identical calibration.
        let h_obs = h.observed_values();
        let m_obs = m.observed_values();
        let h_ratio = dmf_linalg::stats::percentile(&h_obs, 90.0) / h.median();
        let m_ratio = dmf_linalg::stats::percentile(&m_obs, 90.0) / m.median();
        assert!(
            h_ratio > m_ratio * 0.95,
            "harvard p90/p50 {h_ratio} should not be lighter than meridian {m_ratio}"
        );
    }

    #[test]
    fn deterministic_per_seed_distinct_across_seeds() {
        let a = meridian_like(60, 7);
        let b = meridian_like(60, 7);
        let c = meridian_like(60, 8);
        assert_eq!(a.values, b.values);
        assert_ne!(a.values, c.values);
    }

    #[test]
    fn table1_style_portions_bracket_median() {
        let d = meridian_like(200, 9);
        let t10 = d.tau_for_good_portion(0.10);
        let t50 = d.tau_for_good_portion(0.50);
        let t90 = d.tau_for_good_portion(0.90);
        assert!(t10 < t50 && t50 < t90);
        assert!((t50 - d.median()).abs() < 1e-9);
    }
}
