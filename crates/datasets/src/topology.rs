//! Two-tier synthetic Internet topology.
//!
//! The generator models what makes real pairwise performance matrices
//! low-rank (the property Figure 1 of the paper demonstrates): paths
//! between nearby nodes share infrastructure. Concretely:
//!
//! * *clusters* (PoPs/ASes) are placed in a 2-D delay plane; the
//!   backbone delay between two nodes is the Euclidean distance between
//!   their (jittered) positions — a structured, approximately-low-rank
//!   component shared by all co-located pairs;
//! * every node adds its private *access delay* on each path it is an
//!   endpoint of — an exactly rank-2 component (`a_i + a_j`);
//! * per-pair multiplicative noise models everything idiosyncratic
//!   (routing detours, queueing), keeping the matrix full-rank in the
//!   strict sense but with a fast-decaying spectrum, just like measured
//!   datasets.
//!
//! The same topology also carries per-node capacities used by the ABW
//! generator ([`crate::abw`]): bottlenecks sit at access links (node
//! tiers) or occasionally in the core (congested cluster pairs).

use dmf_linalg::stats::{log_normal_sample, normal_sample};
use dmf_linalg::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Parameters of the synthetic topology.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TopologyConfig {
    /// Number of end nodes.
    pub nodes: usize,
    /// Number of clusters (PoPs). More clusters → higher effective rank.
    pub clusters: usize,
    /// Side length of the square delay plane, in milliseconds of
    /// one-way backbone delay.
    pub plane_size_ms: f64,
    /// Log-normal `mu` of per-node access delay (ms); the median access
    /// delay is `exp(mu)`.
    pub access_mu: f64,
    /// Log-normal `sigma` of per-node access delay.
    pub access_sigma: f64,
    /// Std-dev of the node position jitter around its cluster center (ms).
    pub cluster_jitter_ms: f64,
    /// Relative per-pair noise (log-normal sigma) applied to each RTT.
    pub pair_noise_sigma: f64,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        Self {
            nodes: 200,
            clusters: 12,
            plane_size_ms: 80.0,
            access_mu: 2.0, // median ≈ 7.4 ms access delay
            access_sigma: 0.7,
            cluster_jitter_ms: 2.5,
            pair_noise_sigma: 0.08,
        }
    }
}

/// A realized topology: node placement plus access delays.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Topology {
    /// Configuration it was generated from.
    pub config: TopologyConfig,
    /// Cluster id of each node.
    pub cluster_of: Vec<usize>,
    /// Cluster center positions in the delay plane.
    pub cluster_pos: Vec<(f64, f64)>,
    /// Node positions (cluster center + jitter).
    pub node_pos: Vec<(f64, f64)>,
    /// Per-node access delay in ms (added on both path endpoints).
    pub access_delay: Vec<f64>,
}

impl Topology {
    /// Generates a topology from `config` using `rng`.
    ///
    /// # Panics
    /// Panics when `nodes` or `clusters` is zero.
    pub fn generate(config: TopologyConfig, rng: &mut impl Rng) -> Self {
        assert!(config.nodes > 0, "topology needs at least one node");
        assert!(config.clusters > 0, "topology needs at least one cluster");
        let cluster_pos: Vec<(f64, f64)> = (0..config.clusters)
            .map(|_| {
                (
                    rng.gen::<f64>() * config.plane_size_ms,
                    rng.gen::<f64>() * config.plane_size_ms,
                )
            })
            .collect();
        // Cluster sizes are skewed (popular PoPs host more nodes),
        // mirroring how PlanetLab/Azureus populations concentrate.
        let weights: Vec<f64> = (0..config.clusters)
            .map(|_| rng.gen::<f64>().powi(2) + 0.05)
            .collect();
        let total_w: f64 = weights.iter().sum();

        let mut cluster_of = Vec::with_capacity(config.nodes);
        let mut node_pos = Vec::with_capacity(config.nodes);
        let mut access_delay = Vec::with_capacity(config.nodes);
        for _ in 0..config.nodes {
            let mut pick = rng.gen::<f64>() * total_w;
            let mut c = 0;
            for (idx, w) in weights.iter().enumerate() {
                if pick < *w {
                    c = idx;
                    break;
                }
                pick -= w;
                c = idx;
            }
            cluster_of.push(c);
            let (cx, cy) = cluster_pos[c];
            node_pos.push((
                cx + normal_sample(rng, 0.0, config.cluster_jitter_ms),
                cy + normal_sample(rng, 0.0, config.cluster_jitter_ms),
            ));
            access_delay.push(log_normal_sample(
                rng,
                config.access_mu,
                config.access_sigma,
            ));
        }

        Self {
            config,
            cluster_of,
            cluster_pos,
            node_pos,
            access_delay,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.cluster_of.len()
    }

    /// True when the topology has no nodes (never happens for generated
    /// topologies; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.cluster_of.is_empty()
    }

    /// Backbone delay between two plane positions in ms (the one
    /// distance formula behind every RTT below).
    fn backbone_between((xi, yi): (f64, f64), (xj, yj): (f64, f64)) -> f64 {
        ((xi - xj).powi(2) + (yi - yj).powi(2)).sqrt()
    }

    /// The noise-free RTT between two nodes:
    /// `access_i + access_j + backbone(i, j)`, and 0 on the diagonal.
    pub fn base_rtt(&self, i: usize, j: usize) -> f64 {
        self.rtt_at_positions(i, j, self.node_pos[i], self.node_pos[j])
    }

    /// [`base_rtt`](Self::base_rtt) with the two nodes sitting at
    /// explicit plane positions instead of their realized ones. The
    /// single formula behind both the static generators and the
    /// time-varying scenario ground truth ([`crate::scenario`] moves
    /// positions during drift) — extend the RTT model here and both
    /// stay in lockstep.
    pub fn rtt_at_positions(&self, i: usize, j: usize, pi: (f64, f64), pj: (f64, f64)) -> f64 {
        if i == j {
            return 0.0;
        }
        self.access_delay[i] + self.access_delay[j] + Self::backbone_between(pi, pj)
    }

    /// Builds the full symmetric RTT matrix with per-pair log-normal
    /// noise (`pair_noise_sigma`), zero diagonal.
    pub fn rtt_matrix(&self, rng: &mut impl Rng) -> Matrix {
        let n = self.len();
        let sigma = self.config.pair_noise_sigma;
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in (i + 1)..n {
                let noise = log_normal_sample(rng, 0.0, sigma);
                let rtt = self.base_rtt(i, j) * noise;
                m[(i, j)] = rtt;
                m[(j, i)] = rtt;
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmf_linalg::decomp::effective_rank;
    use dmf_linalg::svd::randomized_top_k;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn small_topology(seed: u64) -> Topology {
        let cfg = TopologyConfig {
            nodes: 80,
            clusters: 8,
            ..TopologyConfig::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Topology::generate(cfg, &mut rng)
    }

    #[test]
    fn generate_respects_sizes() {
        let t = small_topology(1);
        assert_eq!(t.len(), 80);
        assert_eq!(t.cluster_pos.len(), 8);
        assert!(t.cluster_of.iter().all(|&c| c < 8));
        assert!(!t.is_empty());
    }

    #[test]
    fn access_delays_positive() {
        let t = small_topology(2);
        assert!(t.access_delay.iter().all(|&d| d > 0.0));
    }

    #[test]
    fn base_rtt_symmetric_zero_diagonal() {
        let t = small_topology(3);
        assert_eq!(t.base_rtt(5, 5), 0.0);
        assert!((t.base_rtt(1, 7) - t.base_rtt(7, 1)).abs() < 1e-12);
        assert!(t.base_rtt(1, 7) > 0.0);
    }

    #[test]
    fn rtt_matrix_properties() {
        let t = small_topology(4);
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let m = t.rtt_matrix(&mut rng);
        assert_eq!(m.shape(), (80, 80));
        for i in 0..80 {
            assert_eq!(m[(i, i)], 0.0);
            for j in 0..80 {
                assert!(
                    (m[(i, j)] - m[(j, i)]).abs() < 1e-12,
                    "RTT must be symmetric"
                );
                if i != j {
                    assert!(m[(i, j)] > 0.0);
                }
            }
        }
    }

    #[test]
    fn intra_cluster_pairs_are_closer_on_average() {
        let t = small_topology(5);
        let mut rng = ChaCha8Rng::seed_from_u64(100);
        let m = t.rtt_matrix(&mut rng);
        let mut intra = Vec::new();
        let mut inter = Vec::new();
        for i in 0..t.len() {
            for j in (i + 1)..t.len() {
                if t.cluster_of[i] == t.cluster_of[j] {
                    intra.push(m[(i, j)]);
                } else {
                    inter.push(m[(i, j)]);
                }
            }
        }
        let intra_mean = dmf_linalg::stats::mean(&intra);
        let inter_mean = dmf_linalg::stats::mean(&inter);
        assert!(
            intra_mean < inter_mean,
            "intra-cluster mean {intra_mean} should be below inter-cluster {inter_mean}"
        );
    }

    #[test]
    fn rtt_matrix_has_low_effective_rank() {
        // The core claim the generator must reproduce (paper Figure 1):
        // 95% of the spectral energy concentrated in few components.
        let t = small_topology(6);
        let mut rng = ChaCha8Rng::seed_from_u64(101);
        let m = t.rtt_matrix(&mut rng);
        let svd = randomized_top_k(&m, 30, 8, 3, 7);
        let er = effective_rank(&svd.singular_values, 0.95);
        assert!(
            er <= 12,
            "effective rank {er} too high for a clustered topology"
        );
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let cfg = TopologyConfig {
            nodes: 0,
            ..TopologyConfig::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        Topology::generate(cfg, &mut rng);
    }

    #[test]
    fn deterministic_for_seed() {
        let a = small_topology(42);
        let b = small_topology(42);
        assert_eq!(a.access_delay, b.access_delay);
        assert_eq!(a.cluster_of, b.cluster_of);
    }
}
