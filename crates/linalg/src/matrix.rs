//! Row-major dense `f64` matrix.
//!
//! This is intentionally a small, predictable type rather than a general
//! linear-algebra library: the DMFSGD workloads only ever need dense
//! storage, elementwise maps, transpose, matrix products and column/row
//! views. Bounds are always checked; shapes are validated eagerly so that
//! misuse fails at the call site instead of corrupting an experiment.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix of `f64` values.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with `value`.
    fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows.checked_mul(cols).expect("matrix size overflow")],
        }
    }

    /// Creates a `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 0.0)
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} does not match shape {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix from nested row slices (convenient in tests).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows passed to Matrix::from_rows");
            data.extend_from_slice(row);
        }
        Self::from_vec(r, c, data)
    }

    /// Builds a matrix by evaluating `f(i, j)` for each entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self::from_vec(rows, cols, data)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True when the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i`.
    fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "col index {j} out of bounds ({})", self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    /// Panics when the inner dimensions disagree.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // ikj loop order keeps the inner loop sequential over both
        // operands, which matters for the large Figure-1 matrices.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let rhs_row = rhs.row(k);
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(rhs_row.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Matrix product against a transposed right-hand side:
    /// `self * rhsᵀ`, i.e. `out[i][j] = dot(self.row(i), rhs.row(j))`.
    ///
    /// This is the batched form of evaluating all pairwise scores
    /// `u_i · v_j` at once: both operands are iterated row-major (no
    /// strided column walks), and each entry accumulates through the
    /// same lane-split-4 fused-multiply-add chain as
    /// [`crate::kernels::dot`], so every entry is **bitwise identical**
    /// to the per-pair dot it replaces — only much faster, because the
    /// blocked/tiled backend in [`crate::simd`] keeps eight
    /// independent fma chains (AVX2 when the CPU has it, a portable
    /// unrolled fallback otherwise) streaming over `rhsᵀ` rows.
    ///
    /// # Panics
    /// Panics when the column counts (the shared inner dimension)
    /// disagree.
    pub fn matmul_nt(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_nt_into(rhs, &mut out);
        out
    }

    /// [`matmul_nt`](Self::matmul_nt) writing into an existing matrix,
    /// reusing its allocation. Evaluation loops that materialize the
    /// score matrix repeatedly (convergence tracking, the repo benchmark)
    /// avoid a large alloc/fault/free cycle per call this way.
    ///
    /// # Panics
    /// Panics when the column counts disagree.
    pub fn matmul_nt_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert!(
            self.cols == rhs.cols,
            "matmul_nt shape mismatch: {}x{} * ({}x{})ᵀ",
            self.rows,
            self.cols,
            rhs.rows,
            rhs.cols
        );
        let (rows, cols, inner) = (self.rows, rhs.rows, self.cols);
        let mut data = std::mem::take(&mut out.data);
        data.clear();
        data.reserve(rows * cols);
        if inner == 0 {
            data.resize(rows * cols, 0.0);
            *out = Matrix::from_vec(rows, cols, data);
            return;
        }
        // Pack rhsᵀ once (r × n, contiguous rows of length n) so the
        // hot loop is a pure streaming accumulation; the dispatcher
        // picks the AVX2 or portable tile kernel. The pack goes into a
        // 64-byte-aligned thread-local scratch: the tile kernels are
        // load-bound on rhsᵀ, so its alignment must not be left to the
        // allocator's mood (and the per-call transpose allocation
        // disappears with it).
        crate::simd::with_aligned_scratch(inner * cols, |rhs_t| {
            for (j, row) in rhs.data.chunks_exact(inner).enumerate() {
                for (k, &x) in row.iter().enumerate() {
                    rhs_t[k * cols + j] = x;
                }
            }
            crate::simd::matmul_nt_dispatch(
                &self.data, &rhs.data, rhs_t, rows, inner, cols, &mut data,
            );
        });
        *out = Matrix::from_vec(rows, cols, data);
    }

    /// Moves the backing storage out (for in-crate buffer reuse),
    /// leaving `self` as the 0×0 matrix.
    pub(crate) fn take_data(&mut self) -> Vec<f64> {
        self.rows = 0;
        self.cols = 0;
        std::mem::take(&mut self.data)
    }

    /// Elementwise map into a new matrix.
    pub fn map(&self, mut f: impl FnMut(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Elementwise map with index access.
    pub fn map_indexed(&self, mut f: impl FnMut(usize, usize, f64) -> f64) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |i, j| f(i, j, self[(i, j)]))
    }

    /// Scales every entry by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|x| x * s)
    }

    /// Elementwise sum `self + rhs`.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Elementwise difference `self - rhs`.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Frobenius norm `sqrt(Σ x²)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Largest absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, x| m.max(x.abs()))
    }

    /// Extracts the leading `rows × cols` submatrix.
    ///
    /// Used to cut the paper's 2255² / 201² Figure-1 matrices out of the
    /// full synthetic datasets.
    pub fn submatrix(&self, rows: usize, cols: usize) -> Matrix {
        assert!(
            rows <= self.rows && cols <= self.cols,
            "submatrix too large"
        );
        Matrix::from_fn(rows, cols, |i, j| self[(i, j)])
    }

    /// Iterates over `(i, j, value)` triples in row-major order.
    pub fn entries(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        let cols = self.cols;
        self.data
            .iter()
            .enumerate()
            .map(move |(idx, &v)| (idx / cols, idx % cols, v))
    }

    /// Dot product of two equal-length slices (shared helper; the
    /// fused-multiply-add chain of [`crate::kernels::dot`]).
    pub fn dot(a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len(), "dot length mismatch");
        crate::kernels::dot(a, b)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(8);
        for i in 0..show {
            let cells: Vec<String> = self.row(i)[..self.cols.min(8)]
                .iter()
                .map(|x| format!("{x:9.3}"))
                .collect();
            writeln!(
                f,
                "  [{}{}]",
                cells.join(", "),
                if self.cols > 8 { ", …" } else { "" }
            )?;
        }
        if self.rows > show {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
        assert!(!m.is_square());
    }

    #[test]
    fn identity_diagonal() {
        let id = Matrix::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(id[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_rows_and_index() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_checks_len() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m[(2, 0)];
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.5, -2.0, 0.5], &[0.0, 3.0, 9.0]]);
        assert_eq!(a.matmul(&Matrix::identity(3)), a);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[0.5, -1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[2.0, 0.0, 1.0], &[1.0, 1.0, 1.0], &[-1.0, 2.0, 0.5]]);
        assert_eq!(a.matmul_nt(&b), a.matmul(&b.transpose()));
        assert_eq!(a.matmul_nt(&b).shape(), (2, 3));
    }

    #[test]
    fn matmul_nt_bitwise_matches_row_dots() {
        let a = Matrix::from_fn(7, 5, |i, j| ((i * 31 + j * 17) as f64 * 0.137).sin());
        let b = Matrix::from_fn(6, 5, |i, j| ((i * 13 + j * 41) as f64 * 0.271).cos());
        let c = a.matmul_nt(&b);
        for i in 0..7 {
            for j in 0..6 {
                assert_eq!(
                    c[(i, j)].to_bits(),
                    Matrix::dot(a.row(i), b.row(j)).to_bits(),
                    "entry ({i},{j}) not bitwise equal"
                );
            }
        }
    }

    #[test]
    fn matmul_nt_into_reuses_buffer_and_matches() {
        let a = Matrix::from_fn(5, 3, |i, j| (i * 3 + j) as f64 * 0.5);
        let b = Matrix::from_fn(4, 3, |i, j| (i + j) as f64 - 1.5);
        let fresh = a.matmul_nt(&b);
        // Reuse a buffer of the wrong shape and stale contents.
        let mut out = Matrix::filled(2, 9, 7.0);
        a.matmul_nt_into(&b, &mut out);
        assert_eq!(out, fresh);
        // And again into the now-right-shaped buffer.
        a.matmul_nt_into(&b, &mut out);
        assert_eq!(out, fresh);
    }

    #[test]
    #[should_panic(expected = "matmul_nt shape mismatch")]
    fn matmul_nt_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 4);
        let _ = a.matmul_nt(&b);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[0.5, 0.5], &[0.5, 0.5]]);
        assert_eq!(a.add(&b).sub(&b), a);
    }

    #[test]
    fn frobenius_norm_345() {
        let m = Matrix::from_rows(&[&[3.0], &[4.0]]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn submatrix_takes_leading_block() {
        let m = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let s = m.submatrix(2, 3);
        assert_eq!(s, Matrix::from_rows(&[&[0.0, 1.0, 2.0], &[4.0, 5.0, 6.0]]));
    }

    #[test]
    fn entries_iterate_row_major() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let triples: Vec<_> = m.entries().collect();
        assert_eq!(
            triples,
            vec![(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0), (1, 1, 4.0)]
        );
    }

    #[test]
    fn dot_basic() {
        assert_eq!(Matrix::dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn map_indexed_sees_coordinates() {
        let m = Matrix::zeros(2, 2).map_indexed(|i, j, _| (i * 10 + j) as f64);
        assert_eq!(m[(1, 1)], 11.0);
    }

    #[test]
    fn serde_roundtrip() {
        let m = Matrix::from_rows(&[&[1.0, -2.5], &[0.0, 4.0]]);
        let json = serde_json::to_string(&m).unwrap();
        let back: Matrix = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }
}
