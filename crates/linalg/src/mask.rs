//! Observation masks over pairwise measurement matrices.
//!
//! The paper's weight matrix `W` (eq. 1) has `w_ij = 1` when `x_ij` is
//! known and `0` otherwise. The diagonal of a pairwise performance
//! matrix is never measured, and real datasets (HP-S3) additionally have
//! missing off-diagonal entries. [`Mask`] captures exactly that and is
//! stored independently of the value matrix so a single ground-truth
//! matrix can be combined with many sampling patterns.

use crate::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A boolean observation mask with the same shape as its value matrix.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Mask {
    rows: usize,
    cols: usize,
    known: Vec<bool>,
}

impl Mask {
    /// All entries unknown.
    pub fn none(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            known: vec![false; rows * cols],
        }
    }

    /// All entries known except the diagonal (the usual starting point
    /// for a full pairwise dataset).
    pub fn full_off_diagonal(n: usize) -> Self {
        let mut m = Self::none(n, n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    m.set(i, j, true);
                }
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Is entry `(i, j)` observed?
    pub fn is_known(&self, i: usize, j: usize) -> bool {
        assert!(i < self.rows && j < self.cols, "mask index out of bounds");
        self.known[i * self.cols + j]
    }

    /// Marks entry `(i, j)` as observed (`true`) or missing (`false`).
    pub fn set(&mut self, i: usize, j: usize, value: bool) {
        assert!(i < self.rows && j < self.cols, "mask index out of bounds");
        self.known[i * self.cols + j] = value;
    }

    /// Number of observed entries.
    pub fn count_known(&self) -> usize {
        self.known.iter().filter(|&&b| b).count()
    }

    /// Iterates over observed `(i, j)` positions in row-major order.
    pub fn iter_known(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let cols = self.cols;
        self.known
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(move |(idx, _)| (idx / cols, idx % cols))
    }

    /// Randomly hides `fraction` of the currently-known off-diagonal
    /// entries (models datasets with missing measurements, e.g. the 4 %
    /// missing entries of HP-S3).
    pub fn drop_random(&mut self, fraction: f64, rng: &mut impl Rng) {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction must be within [0,1], got {fraction}"
        );
        for idx in 0..self.known.len() {
            let (i, j) = (idx / self.cols, idx % self.cols);
            if i != j && self.known[idx] && rng.gen::<f64>() < fraction {
                self.known[idx] = false;
            }
        }
    }

    /// Applies the mask to a matrix: unknown entries are replaced with
    /// `fill` (typically 0.0). Shapes must match.
    pub fn apply(&self, m: &Matrix, fill: f64) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            m.shape(),
            "mask/matrix shape mismatch"
        );
        m.map_indexed(|i, j, v| if self.is_known(i, j) { v } else { fill })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    impl Mask {
        /// Builds the paper's 0/1 weight matrix `W`.
        fn to_weight_matrix(&self) -> Matrix {
            Matrix::from_fn(self.rows, self.cols, |i, j| {
                if self.is_known(i, j) {
                    1.0
                } else {
                    0.0
                }
            })
        }

        /// Fraction of observed entries among off-diagonal positions.
        fn off_diagonal_density(&self) -> f64 {
            let off_diag = (self.rows * self.cols).saturating_sub(self.rows.min(self.cols));
            if off_diag == 0 {
                return 0.0;
            }
            let known = self.iter_known().filter(|&(i, j)| i != j).count();
            known as f64 / off_diag as f64
        }
    }

    #[test]
    fn none_has_no_known_entries() {
        let m = Mask::none(3, 3);
        assert_eq!(m.count_known(), 0);
        assert_eq!(m.off_diagonal_density(), 0.0);
    }

    #[test]
    fn full_off_diagonal_excludes_diag() {
        let m = Mask::full_off_diagonal(4);
        assert_eq!(m.count_known(), 12);
        for i in 0..4 {
            assert!(!m.is_known(i, i));
        }
        assert!((m.off_diagonal_density() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn set_and_get() {
        let mut m = Mask::none(2, 2);
        m.set(0, 1, true);
        assert!(m.is_known(0, 1));
        assert!(!m.is_known(1, 0));
        m.set(0, 1, false);
        assert_eq!(m.count_known(), 0);
    }

    #[test]
    fn iter_known_order() {
        let mut m = Mask::none(2, 2);
        m.set(1, 0, true);
        m.set(0, 1, true);
        let known: Vec<_> = m.iter_known().collect();
        assert_eq!(known, vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn drop_random_removes_roughly_fraction() {
        let mut m = Mask::full_off_diagonal(60);
        let before = m.count_known();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        m.drop_random(0.25, &mut rng);
        let removed = before - m.count_known();
        let expected = before as f64 * 0.25;
        assert!(
            (removed as f64 - expected).abs() < expected * 0.25,
            "removed {removed}, expected ~{expected}"
        );
    }

    #[test]
    fn drop_random_zero_is_noop() {
        let mut m = Mask::full_off_diagonal(10);
        let before = m.count_known();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        m.drop_random(0.0, &mut rng);
        assert_eq!(m.count_known(), before);
    }

    #[test]
    fn weight_matrix_matches_mask() {
        let mut m = Mask::none(2, 2);
        m.set(0, 1, true);
        let w = m.to_weight_matrix();
        assert_eq!(w[(0, 1)], 1.0);
        assert_eq!(w[(1, 1)], 0.0);
    }

    #[test]
    fn apply_fills_unknown() {
        let mut mask = Mask::none(2, 2);
        mask.set(0, 0, true);
        let m = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let filled = mask.apply(&m, -1.0);
        assert_eq!(filled[(0, 0)], 5.0);
        assert_eq!(filled[(0, 1)], -1.0);
        assert_eq!(filled[(1, 1)], -1.0);
    }

    #[test]
    #[should_panic(expected = "fraction must be within")]
    fn drop_random_validates_fraction() {
        let mut m = Mask::none(2, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        m.drop_random(1.5, &mut rng);
    }
}
