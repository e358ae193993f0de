//! Centralized matrix factorization, the reference the ablation
//! (`experiments::ablation`) measures decentralization against.
//!
//! The paper's §2 positions DMFSGD against centralized approaches
//! that "collect and process the measurements at a central node"
//! (its own Figure 2 architecture before decentralization, MMMF \[20\],
//! IDES \[13\]). [`batch_gd_class`] optimizes the *same* regularized
//! objective (paper eq. 3) by full-gradient descent, with access to
//! the whole observed class matrix. The decentralized algorithm should
//! approach its accuracy while touching only per-node data.

use dmf_core::loss::Loss;
use dmf_datasets::ClassMatrix;
use dmf_linalg::Matrix;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A factorization result `X̂ = U Vᵀ`.
#[derive(Clone, Debug)]
pub(crate) struct Factorization {
    /// `n × r` row factors.
    u: Matrix,
    /// `n × r` column factors.
    v: Matrix,
}

impl Factorization {
    /// Random uniform `[0, 1)` initialization (matching DMFSGD).
    fn random(n: usize, rank: usize, rng: &mut impl Rng) -> Self {
        Self {
            u: Matrix::from_fn(n, rank, |_, _| rng.gen::<f64>()),
            v: Matrix::from_fn(n, rank, |_, _| rng.gen::<f64>()),
        }
    }

    /// The predicted score for a pair.
    fn predict(&self, i: usize, j: usize) -> f64 {
        Matrix::dot(self.u.row(i), self.v.row(j))
    }

    /// Materializes all pairwise scores (diagonal zeroed).
    pub(crate) fn predicted_scores(&self) -> Matrix {
        let n = self.u.rows();
        Matrix::from_fn(n, n, |i, j| if i == j { 0.0 } else { self.predict(i, j) })
    }
}

/// Batch gradient descent on a class matrix's observed entries.
///
/// Runs `iters` full passes; each pass computes the exact gradient of
/// eq. 3 over all observed entries and steps with learning rate `eta`
/// (per-entry scaling keeps `eta` comparable to the SGD step).
pub(crate) fn batch_gd_class(
    class: &ClassMatrix,
    rank: usize,
    loss: Loss,
    eta: f64,
    lambda: f64,
    iters: usize,
    seed: u64,
) -> Factorization {
    let (values, mask) = (&class.labels, &class.mask);
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

#[cfg(test)]
mod tests {
    use super::*;
    use dmf_core::provider::ClassLabelProvider;
    use dmf_core::{DmfsgdConfig, SessionBuilder};
    use dmf_datasets::rtt::meridian_like;
    use dmf_eval::{collect_scores, roc::auc};
    use dmf_linalg::Mask;

    impl Factorization {
        /// The regularized objective (paper eq. 3) over observed entries.
        fn objective(&self, values: &Matrix, mask: &Mask, loss: Loss, lambda: f64) -> f64 {
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

    #[test]
    fn decentralized_approaches_centralized_optimum() {
        let dataset = meridian_like(80, 1);
        let classes = dataset.classify(dataset.median());

        let central = batch_gd_class(&classes, 10, Loss::Logistic, 0.1, 0.1, 120, 1);
        let auc_central = auc(&collect_scores(&classes, &central.predicted_scores()));

        let mut provider = ClassLabelProvider::new(classes.clone());
        let mut cfg = DmfsgdConfig::paper_defaults();
        cfg.seed = 1;
        let mut system = SessionBuilder::from_config(cfg)
            .nodes(80)
            .build()
            .expect("valid config");
        system
            .run(80 * 10 * 30, &mut provider)
            .expect("provider covers the session");
        let auc_dec = auc(&collect_scores(&classes, &system.predicted_scores()));

        assert!(auc_central > 0.9, "centralized AUC {auc_central}");
        assert!(
            auc_dec > auc_central - 0.1,
            "decentralized {auc_dec} must approach centralized {auc_central}"
        );
    }
}
