//! Singular value decomposition.
//!
//! Two algorithms, chosen by problem size:
//!
//! * [`jacobi_svd`] — exact one-sided Jacobi SVD. Robust, simple,
//!   accurate to machine precision; `O(m n² · sweeps)`, fine for the
//!   few-hundred-node matrices in tests and for small experiments.
//! * [`randomized_top_k`] — randomized subspace iteration that extracts
//!   the leading `k` singular values of large matrices. Figure 1 of the
//!   paper needs the top-20 spectrum of a 2255 × 2255 RTT matrix, for
//!   which a full Jacobi SVD would be needlessly cubic.
//!
//! The convention is `A = U Σ Vᵀ` with singular values sorted in
//! descending order; `U` is `m × p`, `V` is `n × p` with
//! `p = min(m, n)` (or `k` for the randomized variant).

use crate::decomp::qr;
use crate::Matrix;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Result of a singular value decomposition `A = U Σ Vᵀ`.
#[derive(Clone, Debug)]
pub struct Svd {
    /// Left singular vectors, one per column.
    pub u: Matrix,
    /// Singular values, descending.
    pub singular_values: Vec<f64>,
    /// Right singular vectors, one per column.
    pub v: Matrix,
}

impl Svd {
    /// Reconstructs `U Σ Vᵀ` (useful in tests).
    pub fn reconstruct(&self) -> Matrix {
        crate::decomp::low_rank_approximation(
            &self.u,
            &self.singular_values,
            &self.v,
            self.singular_values.len(),
        )
    }
}

/// Exact SVD via one-sided Jacobi rotations.
///
/// Orthogonalizes the columns of a working copy of `A` by pairwise
/// Givens rotations (accumulated into `V`); on convergence the column
/// norms are the singular values and the normalized columns form `U`.
/// Converges quadratically; we cap at 60 sweeps which is far beyond
/// what any realistic input needs.
pub fn jacobi_svd(a: &Matrix) -> Svd {
    let (m, n) = a.shape();
    if m < n {
        // Work on the transpose and swap factors back.
        let svd_t = jacobi_svd(&a.transpose());
        return Svd {
            u: svd_t.v,
            singular_values: svd_t.singular_values,
            v: svd_t.u,
        };
    }

    let mut work = a.clone(); // m × n, columns get rotated
    let mut v = Matrix::identity(n);
    let eps = 1e-12;
    let max_sweeps = 60;

    for _sweep in 0..max_sweeps {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in (p + 1)..n {
                // Gram entries for the (p, q) column pair.
                let mut app = 0.0;
                let mut aqq = 0.0;
                let mut apq = 0.0;
                for i in 0..m {
                    let wp = work[(i, p)];
                    let wq = work[(i, q)];
                    app += wp * wp;
                    aqq += wq * wq;
                    apq += wp * wq;
                }
                if apq.abs() <= eps * (app * aqq).sqrt() || apq == 0.0 {
                    continue;
                }
                off = off.max(apq.abs() / (app * aqq).sqrt().max(f64::MIN_POSITIVE));

                // Rotation angle that zeroes the (p,q) Gram entry.
                let zeta = (aqq - app) / (2.0 * apq);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;

                for i in 0..m {
                    let wp = work[(i, p)];
                    let wq = work[(i, q)];
                    work[(i, p)] = c * wp - s * wq;
                    work[(i, q)] = s * wp + c * wq;
                }
                for i in 0..n {
                    let vp = v[(i, p)];
                    let vq = v[(i, q)];
                    v[(i, p)] = c * vp - s * vq;
                    v[(i, q)] = s * vp + c * vq;
                }
            }
        }
        if off < 1e-12 {
            break;
        }
    }

    // Extract singular values (column norms) and normalize U.
    let mut order: Vec<usize> = (0..n).collect();
    let mut sigmas = vec![0.0f64; n];
    for (j, sigma) in sigmas.iter_mut().enumerate() {
        let mut norm = 0.0;
        for i in 0..m {
            norm += work[(i, j)] * work[(i, j)];
        }
        *sigma = norm.sqrt();
    }
    order.sort_by(|&x, &y| {
        sigmas[y]
            .partial_cmp(&sigmas[x])
            .expect("NaN singular value")
    });

    let mut u = Matrix::zeros(m, n);
    let mut v_sorted = Matrix::zeros(n, n);
    let mut singular_values = Vec::with_capacity(n);
    for (new_j, &old_j) in order.iter().enumerate() {
        let sigma = sigmas[old_j];
        singular_values.push(sigma);
        if sigma > 1e-14 {
            for i in 0..m {
                u[(i, new_j)] = work[(i, old_j)] / sigma;
            }
        }
        for i in 0..n {
            v_sorted[(i, new_j)] = v[(i, old_j)];
        }
    }

    Svd {
        u,
        singular_values,
        v: v_sorted,
    }
}

/// Top-`k` singular values (and vectors) of a large matrix by
/// randomized subspace iteration (Halko–Martinsson–Tropp).
///
/// * `oversample` extra probe vectors sharpen the estimate (8–10 is
///   plenty for the fast-decaying spectra we target);
/// * `power_iters` power iterations sharpen separation between kept and
///   discarded singular values (2–3 suffices here).
///
/// The result is deterministic for a given `seed`.
pub fn randomized_top_k(
    a: &Matrix,
    k: usize,
    oversample: usize,
    power_iters: usize,
    seed: u64,
) -> Svd {
    let (m, n) = a.shape();
    let p = (k + oversample).min(n).min(m);
    assert!(p > 0, "randomized_top_k needs a non-empty target rank");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);

    // Gaussian probe block Ω (n × p).
    let omega = Matrix::from_fn(n, p, |_, _| crate::stats::normal_sample(&mut rng, 0.0, 1.0));

    // Y = A Ω, orthonormalize.
    let mut q = qr(&a.matmul(&omega)).0;
    let at = a.transpose();
    for _ in 0..power_iters {
        // Subspace iteration with re-orthonormalization each half-step
        // to avoid collapsing onto the dominant singular vector.
        let z = qr(&at.matmul(&q)).0;
        q = qr(&a.matmul(&z)).0;
    }

    // B = Qᵀ A is small (p × n): exact Jacobi SVD.
    let b = q.transpose().matmul(a);
    let svd_b = jacobi_svd(&b);

    // A ≈ Q B = (Q U_b) Σ Vᵀ.
    let u = q.matmul(&svd_b.u);
    let kk = k.min(svd_b.singular_values.len());
    let (m_u, _) = u.shape();
    let (n_v, _) = svd_b.v.shape();
    let u_k = Matrix::from_fn(m_u, kk, |i, j| u[(i, j)]);
    let v_k = Matrix::from_fn(n_v, kk, |i, j| svd_b.v[(i, j)]);
    Svd {
        u: u_k,
        singular_values: svd_b.singular_values[..kk].to_vec(),
        v: v_k,
    }
}

/// Convenience: just the singular values of `a` (exact Jacobi).
pub fn singular_values(a: &Matrix) -> Vec<f64> {
    jacobi_svd(a).singular_values
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// A random `m × n` matrix of exact rank `r`: the product of two
    /// Gaussian factors.
    fn random_low_rank(m: usize, n: usize, r: usize, rng: &mut impl Rng) -> Matrix {
        let left = Matrix::from_fn(m, r, |_, _| crate::stats::normal_sample(rng, 0.0, 1.0));
        let right = Matrix::from_fn(r, n, |_, _| crate::stats::normal_sample(rng, 0.0, 1.0));
        left.matmul(&right)
    }

    fn assert_orthonormal_cols(m: &Matrix, tol: f64) {
        let g = m.transpose().matmul(m);
        let id = Matrix::identity(m.cols());
        assert!(
            g.sub(&id).frobenius_norm() < tol,
            "columns not orthonormal: err {}",
            g.sub(&id).frobenius_norm()
        );
    }

    #[test]
    fn diagonal_matrix_svd() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 2.0]]);
        let svd = jacobi_svd(&a);
        assert!((svd.singular_values[0] - 3.0).abs() < 1e-10);
        assert!((svd.singular_values[1] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn known_2x2_svd() {
        // A = [[3, 0], [4, 5]]: singular values are sqrt(45) and sqrt(5).
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[4.0, 5.0]]);
        let svd = jacobi_svd(&a);
        assert!((svd.singular_values[0] - 45.0f64.sqrt()).abs() < 1e-10);
        assert!((svd.singular_values[1] - 5.0f64.sqrt()).abs() < 1e-10);
    }

    #[test]
    fn reconstruction_and_orthogonality() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let a = Matrix::from_fn(12, 7, |_, _| {
            crate::stats::normal_sample(&mut rng, 0.0, 1.0)
        });
        let svd = jacobi_svd(&a);
        assert!(svd.reconstruct().sub(&a).frobenius_norm() < 1e-8);
        assert_orthonormal_cols(&svd.v, 1e-8);
        // U has orthonormal columns wherever σ > 0.
        assert_orthonormal_cols(&svd.u, 1e-8);
        // Sorted descending.
        for w in svd.singular_values.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn wide_matrix_transposed_internally() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let a = Matrix::from_fn(5, 9, |_, _| crate::stats::normal_sample(&mut rng, 0.0, 1.0));
        let svd = jacobi_svd(&a);
        assert_eq!(svd.u.shape(), (5, 5));
        assert_eq!(svd.v.shape(), (9, 5));
        assert!(svd.reconstruct().sub(&a).frobenius_norm() < 1e-8);
    }

    #[test]
    fn rank_deficient_spectrum() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let a = random_low_rank(20, 20, 3, &mut rng);
        let svd = jacobi_svd(&a);
        assert!(svd.singular_values[2] > 1e-6);
        for &s in &svd.singular_values[3..] {
            assert!(s < 1e-8, "rank-3 matrix has extra singular value {s}");
        }
    }

    #[test]
    fn singular_values_match_eigen_of_gram() {
        // σ(A)² must equal eigenvalues of AᵀA; check the largest via
        // power iteration on the Gram matrix.
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let a = Matrix::from_fn(15, 10, |_, _| {
            crate::stats::normal_sample(&mut rng, 0.0, 1.0)
        });
        let gram = a.transpose().matmul(&a);
        // Power iteration.
        let mut x = vec![1.0; 10];
        for _ in 0..500 {
            let mut y = vec![0.0; 10];
            for i in 0..10 {
                for j in 0..10 {
                    y[i] += gram[(i, j)] * x[j];
                }
            }
            let norm = y.iter().map(|v| v * v).sum::<f64>().sqrt();
            for v in &mut y {
                *v /= norm;
            }
            x = y;
        }
        let mut lambda = 0.0;
        for i in 0..10 {
            let mut gx = 0.0;
            for j in 0..10 {
                gx += gram[(i, j)] * x[j];
            }
            lambda += x[i] * gx;
        }
        let svd = jacobi_svd(&a);
        assert!((svd.singular_values[0] - lambda.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn randomized_matches_exact_on_low_rank() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let a = random_low_rank(60, 60, 5, &mut rng);
        let exact = jacobi_svd(&a);
        let approx = randomized_top_k(&a, 5, 8, 2, 99);
        for i in 0..5 {
            let rel = (approx.singular_values[i] - exact.singular_values[i]).abs()
                / exact.singular_values[i];
            assert!(rel < 1e-6, "σ{i} rel err {rel}");
        }
    }

    #[test]
    fn randomized_top_k_truncates() {
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let a = random_low_rank(40, 30, 10, &mut rng);
        let approx = randomized_top_k(&a, 4, 6, 2, 1);
        assert_eq!(approx.singular_values.len(), 4);
        assert_eq!(approx.u.shape(), (40, 4));
        assert_eq!(approx.v.shape(), (30, 4));
    }

    #[test]
    fn zero_matrix_svd() {
        let a = Matrix::zeros(6, 4);
        let svd = jacobi_svd(&a);
        assert!(svd.singular_values.iter().all(|&s| s == 0.0));
    }
}
