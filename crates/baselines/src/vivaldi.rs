//! Vivaldi network coordinates (Dabek, Cox, Kaashoek, Morris —
//! SIGCOMM 2004).
//!
//! Each node holds a point in a low-dimensional Euclidean space plus a
//! non-negative *height* modeling its access link; the RTT estimate
//! between two nodes is the Euclidean distance between their points
//! plus both heights. Measurements relax a virtual spring between the
//! two nodes, weighted by relative confidence, which is the adaptive
//! timestep of the original paper.
//!
//! Vivaldi is the architectural template DMFSGD cites (§5.3) and the
//! canonical quantity-based RTT predictor; it also illustrates what
//! matrix factorization fixes: Euclidean embeddings cannot express
//! triangle-inequality violations, while `u · v` factorizations can.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Tunables of the Vivaldi algorithm (defaults from the paper).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct VivaldiConfig {
    /// Embedding dimension (excluding height).
    pub dims: usize,
    /// Coordinate timestep gain `c_c`.
    pub cc: f64,
    /// Error-estimate gain `c_e`.
    pub ce: f64,
    /// Minimum height (keeps the height positive).
    pub min_height: f64,
}

impl Default for VivaldiConfig {
    fn default() -> Self {
        Self {
            dims: 2,
            cc: 0.25,
            ce: 0.25,
            min_height: 1e-3,
        }
    }
}

/// One node's Vivaldi state.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct VivaldiNode {
    position: Vec<f64>,
    height: f64,
    /// Local error estimate in (0, 1].
    error: f64,
}

/// A Vivaldi coordinate system over `n` nodes.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Vivaldi {
    config: VivaldiConfig,
    nodes: Vec<VivaldiNode>,
    observations: usize,
}

impl Vivaldi {
    /// Initializes all nodes at small random positions (breaking the
    /// symmetry of the all-zero start).
    pub fn new(n: usize, config: VivaldiConfig, rng: &mut impl Rng) -> Self {
        assert!(n >= 2, "need at least two nodes");
        assert!(config.dims >= 1, "need at least one dimension");
        let nodes = (0..n)
            .map(|_| VivaldiNode {
                position: (0..config.dims).map(|_| rng.gen::<f64>() * 1e-3).collect(),
                height: config.min_height,
                error: 1.0,
            })
            .collect();
        Self {
            config,
            nodes,
            observations: 0,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the system has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Measurements processed.
    pub fn observations(&self) -> usize {
        self.observations
    }

    /// The RTT estimate between `i` and `j` (symmetric).
    pub fn estimate(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        let a = &self.nodes[i];
        let b = &self.nodes[j];
        euclidean(&a.position, &b.position) + a.height + b.height
    }

    /// Local error estimate of node `i`.
    pub fn node_error(&self, i: usize) -> f64 {
        self.nodes[i].error
    }

    /// Processes one RTT measurement between `i` and `j` (node `i` is
    /// the observer, as in the original protocol).
    pub fn observe(&mut self, i: usize, j: usize, rtt: f64, rng: &mut impl Rng) {
        assert!(i != j, "self-measurement");
        assert!(rtt > 0.0, "RTT must be positive, got {rtt}");
        let predicted = self.estimate(i, j);
        let (e_i, e_j) = (self.nodes[i].error, self.nodes[j].error);

        // Confidence weight: how much node i trusts itself vs node j.
        let w = e_i / (e_i + e_j);
        // Relative error of this sample.
        let es = (predicted - rtt).abs() / rtt;
        // Update the local error estimate (EWMA weighted by w).
        self.nodes[i].error =
            (es * self.config.ce * w + e_i * (1.0 - self.config.ce * w)).clamp(1e-6, 1.0);

        // Move along the unit vector away from/toward j.
        let delta = self.config.cc * w;
        let force = rtt - predicted; // >0: too close, push apart
        let (dir, dist) = {
            let pi = &self.nodes[i].position;
            let pj = &self.nodes[j].position;
            let mut d: Vec<f64> = pi.iter().zip(pj.iter()).map(|(a, b)| a - b).collect();
            let norm = d.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm < 1e-9 {
                // Coincident points: pick a random direction.
                for x in d.iter_mut() {
                    *x = rng.gen::<f64>() - 0.5;
                }
                let n2 = d.iter().map(|x| x * x).sum::<f64>().sqrt();
                for x in d.iter_mut() {
                    *x /= n2;
                }
                (d, 0.0)
            } else {
                for x in d.iter_mut() {
                    *x /= norm;
                }
                (d, norm)
            }
        };
        let _ = dist;
        let node = &mut self.nodes[i];
        for (p, u) in node.position.iter_mut().zip(dir.iter()) {
            *p += delta * force * u;
        }
        // Height absorbs the residual shared by all of i's paths.
        node.height = (node.height + delta * force).max(self.config.min_height);
        self.observations += 1;
    }

    /// Median relative estimation error over the observed entries of a
    /// ground-truth matrix (evaluation helper).
    pub fn median_relative_error(&self, dataset: &dmf_datasets::Dataset) -> f64 {
        let mut errs: Vec<f64> = dataset
            .mask
            .iter_known()
            .map(|(i, j)| {
                let truth = dataset.values[(i, j)];
                (self.estimate(i, j) - truth).abs() / truth
            })
            .collect();
        assert!(!errs.is_empty(), "empty dataset");
        dmf_linalg::stats::percentile_in_place(&mut errs, 50.0)
    }
}

fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmf_datasets::rtt::meridian_like;
    use dmf_simnet::NeighborSets;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn estimates_symmetric_and_zero_diagonal() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let v = Vivaldi::new(10, VivaldiConfig::default(), &mut rng);
        assert_eq!(v.estimate(3, 3), 0.0);
        assert!((v.estimate(1, 2) - v.estimate(2, 1)).abs() < 1e-12);
        assert!(v.estimate(1, 2) >= 2.0 * VivaldiConfig::default().min_height);
    }

    #[test]
    fn learns_rtt_structure() {
        let d = meridian_like(60, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut viv = Vivaldi::new(60, VivaldiConfig::default(), &mut rng);
        let neighbors = NeighborSets::random(60, 10, &mut rng);
        let initial = viv.median_relative_error(&d);
        for _ in 0..60 * 400 {
            let i = rng.gen_range(0..60);
            let j = neighbors.sample_neighbor(i, &mut rng);
            viv.observe(i, j, d.values[(i, j)], &mut rng);
        }
        let trained = viv.median_relative_error(&d);
        assert!(
            trained < initial * 0.5,
            "vivaldi should at least halve the error: {initial} → {trained}"
        );
        assert!(trained < 0.5, "trained median relative error {trained}");
    }

    #[test]
    fn error_estimates_shrink_with_training() {
        let d = meridian_like(40, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut viv = Vivaldi::new(40, VivaldiConfig::default(), &mut rng);
        let neighbors = NeighborSets::random(40, 8, &mut rng);
        for _ in 0..40 * 300 {
            let i = rng.gen_range(0..40);
            let j = neighbors.sample_neighbor(i, &mut rng);
            viv.observe(i, j, d.values[(i, j)], &mut rng);
        }
        let avg_err: f64 = (0..40).map(|i| viv.node_error(i)).sum::<f64>() / 40.0;
        assert!(
            avg_err < 0.7,
            "confidence should improve, avg error {avg_err}"
        );
    }

    #[test]
    fn heights_stay_positive() {
        let d = meridian_like(30, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut viv = Vivaldi::new(30, VivaldiConfig::default(), &mut rng);
        for _ in 0..5000 {
            let i = rng.gen_range(0..30usize);
            let j = (i + 1 + rng.gen_range(0..29usize)) % 30;
            if i != j {
                viv.observe(i, j, d.values[(i, j)], &mut rng);
            }
        }
        for i in 0..30 {
            assert!(viv.nodes[i].height >= VivaldiConfig::default().min_height);
        }
    }

    #[test]
    #[should_panic(expected = "self-measurement")]
    fn self_measurement_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut viv = Vivaldi::new(5, VivaldiConfig::default(), &mut rng);
        viv.observe(2, 2, 10.0, &mut rng);
    }

    #[test]
    fn observation_counter() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mut viv = Vivaldi::new(5, VivaldiConfig::default(), &mut rng);
        viv.observe(0, 1, 50.0, &mut rng);
        viv.observe(1, 2, 60.0, &mut rng);
        assert_eq!(viv.observations(), 2);
    }
}
