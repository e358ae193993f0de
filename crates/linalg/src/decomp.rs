//! QR factorization, low-rank truncation and effective-rank utilities.
//!
//! Figure 1 of the paper plots *normalized* singular-value spectra to
//! argue that RTT/ABW matrices (and their binary class matrices) have
//! low effective rank. [`normalized_spectrum`] and [`effective_rank`]
//! implement exactly those views; [`qr`] is the building block of the
//! randomized SVD in [`crate::svd`].

use crate::Matrix;

/// Thin QR factorization via modified Gram–Schmidt.
///
/// Returns `(Q, R)` with `Q` of shape `m × n` having orthonormal columns
/// and `R` upper-triangular `n × n`, such that `A = Q R`.
/// Columns that are numerically dependent produce zero columns in `Q`
/// (and zero diagonal in `R`) rather than garbage.
pub fn qr(a: &Matrix) -> (Matrix, Matrix) {
    let (m, n) = a.shape();
    let mut q = a.clone();
    let mut r = Matrix::zeros(n, n);
    for j in 0..n {
        // Orthogonalize column j against previous columns (twice is
        // enough: "twice is enough" re-orthogonalization for MGS).
        for _pass in 0..2 {
            for i in 0..j {
                let mut dot = 0.0;
                for k in 0..m {
                    dot += q[(k, i)] * q[(k, j)];
                }
                r[(i, j)] += dot;
                for k in 0..m {
                    let qi = q[(k, i)];
                    q[(k, j)] -= dot * qi;
                }
            }
        }
        let mut norm = 0.0;
        for k in 0..m {
            norm += q[(k, j)] * q[(k, j)];
        }
        let norm = norm.sqrt();
        r[(j, j)] = norm;
        if norm > 1e-14 {
            for k in 0..m {
                q[(k, j)] /= norm;
            }
        } else {
            for k in 0..m {
                q[(k, j)] = 0.0;
            }
        }
    }
    (q, r)
}

/// Truncates an SVD-style factorization to rank `r`:
/// returns `U_r Σ_r V_rᵀ` given the full factors.
pub fn low_rank_approximation(u: &Matrix, singular_values: &[f64], v: &Matrix, r: usize) -> Matrix {
    let r = r.min(singular_values.len());
    let (m, _) = u.shape();
    let (n, _) = v.shape();
    let mut out = Matrix::zeros(m, n);
    for k in 0..r {
        let s = singular_values[k];
        for i in 0..m {
            let uik = u[(i, k)] * s;
            if uik == 0.0 {
                continue;
            }
            for j in 0..n {
                out[(i, j)] += uik * v[(j, k)];
            }
        }
    }
    out
}

/// Normalizes a singular-value spectrum so the largest value is 1
/// (the exact presentation of the paper's Figure 1).
pub fn normalized_spectrum(singular_values: &[f64]) -> Vec<f64> {
    let max = singular_values.iter().fold(0.0f64, |m, &s| m.max(s));
    if max == 0.0 {
        return vec![0.0; singular_values.len()];
    }
    singular_values.iter().map(|&s| s / max).collect()
}

/// The smallest `r` such that the top-`r` singular values capture at
/// least `energy_fraction` of the total squared spectrum.
///
/// This is the usual operational definition of "effective rank" backing
/// the paper's low-rank claim.
pub fn effective_rank(singular_values: &[f64], energy_fraction: f64) -> usize {
    assert!(
        (0.0..=1.0).contains(&energy_fraction),
        "energy fraction must be in [0,1]"
    );
    let total: f64 = singular_values.iter().map(|s| s * s).sum();
    if total == 0.0 {
        return 0;
    }
    let mut acc = 0.0;
    for (idx, s) in singular_values.iter().enumerate() {
        acc += s * s;
        if acc >= energy_fraction * total {
            return idx + 1;
        }
    }
    singular_values.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} !~ {b}");
    }

    #[test]
    fn qr_reconstructs_input() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let (q, r) = qr(&a);
        let qr_prod = q.matmul(&r);
        assert!(qr_prod.sub(&a).frobenius_norm() < 1e-10);
    }

    #[test]
    fn qr_columns_orthonormal() {
        let a = Matrix::from_rows(&[
            &[2.0, -1.0, 0.5],
            &[0.0, 3.0, 1.0],
            &[1.0, 1.0, 1.0],
            &[4.0, 0.0, -2.0],
        ]);
        let (q, _) = qr(&a);
        let qtq = q.transpose().matmul(&q);
        let id = Matrix::identity(3);
        assert!(qtq.sub(&id).frobenius_norm() < 1e-10);
    }

    #[test]
    fn qr_handles_rank_deficiency() {
        // Third column = first + second.
        let a = Matrix::from_rows(&[&[1.0, 0.0, 1.0], &[0.0, 1.0, 1.0], &[1.0, 1.0, 2.0]]);
        let (q, r) = qr(&a);
        assert!(q.matmul(&r).sub(&a).frobenius_norm() < 1e-9);
        assert!(r[(2, 2)].abs() < 1e-9, "dependent column should zero out");
    }

    #[test]
    fn low_rank_of_rank_one_matrix_is_exact() {
        // A = u vᵀ with u = [1,2], v = [3,4]; σ1 = |u||v|.
        let a = Matrix::from_rows(&[&[3.0, 4.0], &[6.0, 8.0]]);
        let svd = crate::svd::jacobi_svd(&a);
        let approx = low_rank_approximation(&svd.u, &svd.singular_values, &svd.v, 1);
        assert!(approx.sub(&a).frobenius_norm() < 1e-10);
    }

    #[test]
    fn normalized_spectrum_peaks_at_one() {
        let spec = normalized_spectrum(&[10.0, 5.0, 1.0]);
        assert_eq!(spec[0], 1.0);
        assert_close(spec[1], 0.5, 1e-12);
        assert_close(spec[2], 0.1, 1e-12);
    }

    #[test]
    fn normalized_spectrum_of_zeros() {
        assert_eq!(normalized_spectrum(&[0.0, 0.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn effective_rank_thresholds() {
        // Energies: 100, 1 → total 101.
        let sv = [10.0, 1.0];
        assert_eq!(effective_rank(&sv, 0.9), 1);
        assert_eq!(effective_rank(&sv, 0.999), 2);
        assert_eq!(effective_rank(&[0.0], 0.9), 0);
    }

    #[test]
    #[should_panic(expected = "energy fraction")]
    fn effective_rank_validates_fraction() {
        effective_rank(&[1.0], 1.5);
    }
}
