//! Synthetic available-bandwidth datasets calibrated to HP-S3.
//!
//! The HP-S3 dataset measured ABW between 459 PlanetLab-style nodes
//! with pathChirp; the paper extracts a dense 231-node matrix with 4 %
//! missing entries and a ≈ 43 Mbps median. What DMFSGD relies on:
//!
//! * **asymmetry** — `x_ij ≠ x_ji` (uplinks and downlinks differ);
//! * **low effective rank** — the bottleneck of most paths is one of
//!   the two access links, so the matrix is approximately
//!   `min(up_i, down_j)`, whose class-thresholded version is strongly
//!   structured; a minority of paths bottleneck in congested core
//!   links shared per cluster pair;
//! * **multi-modal values** — capacities cluster around technology
//!   tiers (DSL/Ethernet/fast-Ethernet…), not a smooth distribution;
//! * **missing entries** — 4 % of pairs unobserved.
//!
//! All four are reproduced here, then the median is calibrated exactly.

use crate::topology::{Topology, TopologyConfig};
use crate::{Dataset, Metric};
use dmf_linalg::stats::log_normal_sample;
use dmf_linalg::{Mask, Matrix};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Configuration of a synthetic ABW dataset.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct AbwDatasetConfig {
    /// Dataset name.
    pub name: String,
    /// Cluster layout (reuses the RTT topology machinery; only cluster
    /// membership matters for ABW).
    pub topology: TopologyConfig,
    /// Access-capacity tiers as `(capacity_mbps, weight)` pairs.
    pub tiers: Vec<(f64, f64)>,
    /// Core capacity for uncongested cluster pairs (Mbps).
    pub core_capacity_mbps: f64,
    /// Fraction of ordered cluster pairs whose core link is congested.
    pub congested_pair_fraction: f64,
    /// Congested core links have capacity scaled into this range.
    pub congestion_factor: (f64, f64),
    /// Log-normal sigma of per-direction access-capacity variation
    /// (same node, up vs down).
    pub asymmetry_sigma: f64,
    /// Log-normal sigma of per-pair cross-traffic noise.
    pub cross_traffic_sigma: f64,
    /// Fraction of off-diagonal entries hidden from the dataset.
    pub missing_fraction: f64,
    /// Median the observed values are calibrated to (Mbps).
    pub target_median_mbps: f64,
}

impl AbwDatasetConfig {
    /// HP-S3-like defaults at a custom size (the paper's dense matrix
    /// is 231 × 231 with 4 % missing and median 43.1 Mbps).
    pub fn hps3(nodes: usize) -> Self {
        Self {
            name: "hps3-like".into(),
            topology: TopologyConfig {
                nodes,
                clusters: (nodes / 20).clamp(6, 14),
                ..TopologyConfig::default()
            },
            // Capacity tiers loosely matching research-network hosts:
            // throttled DSL-ish, 10/45/100 Mbps Ethernet classes, and a
            // well-provisioned GigE-ish tail.
            tiers: vec![
                (8.0, 0.10),
                (20.0, 0.20),
                (45.0, 0.25),
                (80.0, 0.25),
                (150.0, 0.15),
                (400.0, 0.05),
            ],
            core_capacity_mbps: 300.0,
            congested_pair_fraction: 0.15,
            congestion_factor: (0.1, 0.5),
            asymmetry_sigma: 0.25,
            cross_traffic_sigma: 0.18,
            missing_fraction: 0.04,
            target_median_mbps: 43.1,
        }
    }
}

/// Samples a capacity tier by weight.
fn sample_tier(tiers: &[(f64, f64)], rng: &mut impl Rng) -> f64 {
    let total: f64 = tiers.iter().map(|(_, w)| w).sum();
    let mut pick = rng.gen::<f64>() * total;
    for &(cap, w) in tiers {
        if pick < w {
            return cap;
        }
        pick -= w;
    }
    tiers.last().expect("tier list must be non-empty").0
}

/// Generates an ABW dataset plus the topology it came from.
fn generate_abw_dataset(config: &AbwDatasetConfig, seed: u64) -> (Topology, Dataset) {
    assert!(!config.tiers.is_empty(), "ABW config needs capacity tiers");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let topology = Topology::generate(config.topology.clone(), &mut rng);
    let n = topology.len();
    let clusters = config.topology.clusters;

    // Per-node base tier, then asymmetric up/down capacities.
    let mut up = Vec::with_capacity(n);
    let mut down = Vec::with_capacity(n);
    for _ in 0..n {
        let base = sample_tier(&config.tiers, &mut rng);
        up.push(base * log_normal_sample(&mut rng, 0.0, config.asymmetry_sigma));
        down.push(base * log_normal_sample(&mut rng, 0.0, config.asymmetry_sigma));
    }

    // Core capacity per ordered cluster pair.
    let mut core = vec![config.core_capacity_mbps; clusters * clusters];
    for entry in core.iter_mut() {
        if rng.gen::<f64>() < config.congested_pair_fraction {
            let (lo, hi) = config.congestion_factor;
            *entry *= lo + rng.gen::<f64>() * (hi - lo);
        }
    }

    let mut values = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let core_cap = core[topology.cluster_of[i] * clusters + topology.cluster_of[j]];
            let path = up[i].min(down[j]).min(core_cap);
            values[(i, j)] = path * log_normal_sample(&mut rng, 0.0, config.cross_traffic_sigma);
        }
    }

    let mut mask = Mask::full_off_diagonal(n);
    mask.drop_random(config.missing_fraction, &mut rng);

    let mut dataset = Dataset::new(config.name.clone(), Metric::Abw, values, mask);
    let median = dataset.median();
    assert!(median > 0.0, "degenerate ABW dataset");
    dataset.scale_values(config.target_median_mbps / median);
    (topology, dataset)
}

/// HP-S3-like ABW dataset (paper size: 231 nodes, median 43.1 Mbps,
/// 4 % missing).
pub fn hps3_like(nodes: usize, seed: u64) -> Dataset {
    generate_abw_dataset(&AbwDatasetConfig::hps3(nodes), seed).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmf_linalg::decomp::effective_rank;
    use dmf_linalg::svd::randomized_top_k;

    #[test]
    fn median_calibrated() {
        let d = hps3_like(120, 1);
        assert!((d.median() - 43.1).abs() < 1e-6, "median {}", d.median());
        assert_eq!(d.metric, Metric::Abw);
    }

    #[test]
    fn values_positive() {
        let d = hps3_like(60, 2);
        for (i, j) in d.mask.iter_known() {
            assert!(d.values[(i, j)] > 0.0);
        }
    }

    #[test]
    fn missing_fraction_near_four_percent() {
        let d = hps3_like(150, 3);
        let known = d.mask.iter_known().filter(|&(i, j)| i != j).count();
        let density = known as f64 / (150 * 149) as f64;
        assert!(
            (density - 0.96).abs() < 0.02,
            "observed density {density}, expected ≈0.96"
        );
    }

    #[test]
    fn asymmetric_in_general() {
        let d = hps3_like(60, 4);
        let mut asym = 0usize;
        let mut total = 0usize;
        for i in 0..60 {
            for j in (i + 1)..60 {
                if d.mask.is_known(i, j) && d.mask.is_known(j, i) {
                    total += 1;
                    if (d.values[(i, j)] - d.values[(j, i)]).abs() > 1e-9 {
                        asym += 1;
                    }
                }
            }
        }
        assert!(total > 0);
        assert!(
            asym as f64 / total as f64 > 0.95,
            "ABW should be essentially always asymmetric"
        );
    }

    #[test]
    fn class_matrix_low_effective_rank() {
        // The thresholded ±1 matrix must be low-rank for matrix
        // completion to work (paper Figure 1, 'ABW class' curve).
        let d = hps3_like(120, 5);
        let cm = d.classify(d.median());
        let svd = randomized_top_k(&cm.labels, 30, 8, 3, 11);
        let er = effective_rank(&svd.singular_values, 0.9);
        assert!(er <= 20, "effective rank {er} of ABW class matrix too high");
    }

    #[test]
    fn tier_sampler_respects_weights() {
        let tiers = vec![(1.0, 0.9), (100.0, 0.1)];
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let lows = (0..5000)
            .filter(|_| sample_tier(&tiers, &mut rng) == 1.0)
            .count();
        assert!(
            (lows as f64 / 5000.0 - 0.9).abs() < 0.03,
            "tier weight not respected: {lows}/5000 low"
        );
    }

    #[test]
    fn abw_tau_orientation() {
        // For ABW a *smaller* good-portion needs a *larger* τ.
        let d = hps3_like(100, 7);
        let t10 = d.tau_for_good_portion(0.10);
        let t90 = d.tau_for_good_portion(0.90);
        assert!(t10 > t90, "τ(10%)={t10} must exceed τ(90%)={t90} for ABW");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = hps3_like(50, 8);
        let b = hps3_like(50, 8);
        assert_eq!(a.values, b.values);
        assert_eq!(a.mask, b.mask);
    }
}
