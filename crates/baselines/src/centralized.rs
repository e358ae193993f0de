//! Centralized matrix factorization baselines.
//!
//! The paper's §2 positions DMFSGD against centralized approaches
//! that "collect and process the measurements at a central node"
//! (its own Figure 2 architecture before decentralization, MMMF \[20\],
//! IDES \[13\]). These baselines optimize the *same* regularized
//! objective (paper eq. 3) with full access to the observed matrix:
//!
//! * [`batch_gd`] — full-gradient descent for any loss (hinge,
//!   logistic, L2), and [`batch_gd_class`], its form over a class
//!   matrix, which the centralized ablation runs.
//!
//! The decentralized algorithm should approach their accuracy while
//! touching only per-node data — that comparison is an ablation the
//! benchmark harness reports.

use dmf_core::loss::Loss;
use dmf_datasets::ClassMatrix;
use dmf_linalg::{Mask, Matrix};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A factorization result `X̂ = U Vᵀ`.
#[derive(Clone, Debug)]
pub struct Factorization {
    /// `n × r` row factors.
    pub u: Matrix,
    /// `n × r` column factors.
    pub v: Matrix,
}

impl Factorization {
    /// Random uniform `[0, 1)` initialization (matching DMFSGD).
    pub fn random(n: usize, rank: usize, rng: &mut impl Rng) -> Self {
        Self {
            u: Matrix::from_fn(n, rank, |_, _| rng.gen::<f64>()),
            v: Matrix::from_fn(n, rank, |_, _| rng.gen::<f64>()),
        }
    }

    /// The predicted score for a pair.
    pub fn predict(&self, i: usize, j: usize) -> f64 {
        Matrix::dot(self.u.row(i), self.v.row(j))
    }

    /// Materializes all pairwise scores (diagonal zeroed).
    pub fn predicted_scores(&self) -> Matrix {
        let n = self.u.rows();
        Matrix::from_fn(n, n, |i, j| if i == j { 0.0 } else { self.predict(i, j) })
    }

    /// The regularized objective (paper eq. 3) over observed entries.
    pub fn objective(&self, values: &Matrix, mask: &Mask, loss: Loss, lambda: f64) -> f64 {
        let mut total = 0.0;
        for (i, j) in mask.iter_known() {
            total += loss.value(values[(i, j)], self.predict(i, j));
        }
        let reg: f64 = self
            .u
            .as_slice()
            .iter()
            .chain(self.v.as_slice().iter())
            .map(|x| x * x)
            .sum();
        total + lambda * reg
    }
}

/// Batch gradient descent on the full observed matrix.
///
/// Runs `iters` full passes; each pass computes the exact gradient of
/// eq. 3 over all observed entries and steps with learning rate `eta`
/// (per-entry scaling keeps `eta` comparable to the SGD step).
#[allow(clippy::too_many_arguments)] // mirrors the paper's hyper-parameter list
pub fn batch_gd(
    values: &Matrix,
    mask: &Mask,
    rank: usize,
    loss: Loss,
    eta: f64,
    lambda: f64,
    iters: usize,
    seed: u64,
) -> Factorization {
    assert!(values.is_square(), "pairwise matrix must be square");
    let n = values.rows();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut f = Factorization::random(n, rank, &mut rng);
    let observed = mask.count_known().max(1);
    let step = eta / (observed as f64 / n as f64); // normalize per-row visits

    for _ in 0..iters {
        let mut grad_u = Matrix::zeros(n, rank);
        let mut grad_v = Matrix::zeros(n, rank);
        for (i, j) in mask.iter_known() {
            let xhat = f.predict(i, j);
            let g = loss.gradient_factor(values[(i, j)], xhat);
            if g != 0.0 {
                for k in 0..rank {
                    grad_u[(i, k)] += g * f.v[(j, k)];
                    grad_v[(j, k)] += g * f.u[(i, k)];
                }
            }
        }
        for i in 0..n {
            for k in 0..rank {
                f.u[(i, k)] -= step * (grad_u[(i, k)] + lambda * f.u[(i, k)]);
                f.v[(i, k)] -= step * (grad_v[(i, k)] + lambda * f.v[(i, k)]);
            }
        }
    }
    f
}

/// Convenience: batch GD on a class matrix.
pub fn batch_gd_class(
    class: &ClassMatrix,
    rank: usize,
    loss: Loss,
    eta: f64,
    lambda: f64,
    iters: usize,
    seed: u64,
) -> Factorization {
    batch_gd(
        &class.labels,
        &class.mask,
        rank,
        loss,
        eta,
        lambda,
        iters,
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmf_datasets::rtt::meridian_like;
    use dmf_eval::{collect_scores, roc::auc};

    #[test]
    fn batch_gd_reaches_high_training_auc() {
        let d = meridian_like(60, 1);
        let cm = d.classify(d.median());
        let f = batch_gd_class(&cm, 10, Loss::Logistic, 0.1, 0.1, 150, 7);
        let a = auc(&collect_scores(&cm, &f.predicted_scores()));
        assert!(a > 0.9, "centralized batch GD AUC {a}");
    }

    #[test]
    fn batch_gd_decreases_objective() {
        let d = meridian_like(40, 2);
        let cm = d.classify(d.median());
        let early = batch_gd_class(&cm, 8, Loss::Logistic, 0.1, 0.1, 2, 3);
        let late = batch_gd_class(&cm, 8, Loss::Logistic, 0.1, 0.1, 60, 3);
        let obj_early = early.objective(&cm.labels, &cm.mask, Loss::Logistic, 0.1);
        let obj_late = late.objective(&cm.labels, &cm.mask, Loss::Logistic, 0.1);
        assert!(
            obj_late < obj_early,
            "objective should fall: {obj_early} → {obj_late}"
        );
    }

    #[test]
    fn factorization_prediction_consistency() {
        use rand::SeedableRng;
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let f = Factorization::random(5, 3, &mut rng);
        let scores = f.predicted_scores();
        assert_eq!(scores[(1, 2)], f.predict(1, 2));
        assert_eq!(scores[(3, 3)], 0.0);
    }
}
