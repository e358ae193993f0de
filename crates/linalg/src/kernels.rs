//! Allocation-free hot-path kernels and the inline coordinate vector.
//!
//! The DMFSGD per-measurement work is O(r) vector arithmetic on
//! rank-`r` coordinates (paper §5.2, r = 10 by default). At millions
//! of updates per second the dominant costs are not the flops but the
//! heap traffic of `Vec<f64>` clones and the pointer chasing of
//! scattered allocations. This module provides:
//!
//! * [`dot`] / [`axpby`] — the two primitive kernels every update rule
//!   is built from. Both accumulate **in index order**, so results are
//!   bitwise-identical to the textbook loops they replace.
//! * [`CoordVec`] — a fixed-capacity inline vector: ranks up to
//!   [`MAX_INLINE_RANK`] live entirely inside the value (no heap);
//!   larger ranks (the Figure-4 `r = 100` sweep) transparently spill
//!   to a heap `Vec`. Cloning an inline `CoordVec` is a `memcpy`,
//!   which is what makes a probe/reply cycle allocation-free.

use serde::{DeError, Deserialize, Serialize, Value};
use std::ops::{Deref, DerefMut};

/// Largest rank stored inline (the paper's default is 10; Figure 4
/// shows small ranks suffice, so the spill path is cold).
pub const MAX_INLINE_RANK: usize = 16;

/// Dot product `Σ a[i]·b[i]`, fused-multiply-accumulated in the
/// **lane-split-4** order pinned by [`crate::simd`]: four interleaved
/// fma chains (lane `c` takes the elements with index ≡ `c` mod 4),
/// combined as `(acc₀+acc₂)+(acc₁+acc₃)`, then a sequential fma tail
/// for the last `len mod 4` elements.
///
/// The fused form costs one rounding per element instead of two and
/// maps to one `vfmadd` per four elements. The accumulation order is
/// the contract: the batched [`crate::Matrix::matmul_nt`] evaluates
/// the same chain per entry, so batched and per-pair score evaluation
/// are bitwise identical — and so are the AVX2, portable and scalar
/// dispatch paths (see [`crate::simd`] for the contract, its history
/// and the quantified diff against the pre-SIMD sequential chain).
///
/// # Panics
/// Panics when the lengths differ.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "coordinate rank mismatch");
    crate::simd::dot_dispatch(a, b)
}

/// Fused scale-and-axpy: `y[i] ← fma(beta, y[i], alpha·x[i])`.
///
/// One pass over both slices — the whole SGD update (shrinkage plus
/// gradient step) in a single kernel. Element-independent, so the
/// AVX2 path in [`crate::simd`] is bitwise identical to the scalar
/// loop (this contract is unchanged from the pre-SIMD kernels).
///
/// # Panics
/// Panics when the lengths differ.
#[inline]
pub fn axpby(y: &mut [f64], beta: f64, alpha: f64, x: &[f64]) {
    assert_eq!(y.len(), x.len(), "coordinate rank mismatch");
    crate::simd::axpby_dispatch(y, beta, alpha, x);
}

/// `out ← lhs · rhsᵀ` from caller-packed slices — the allocation-free
/// twin of [`crate::Matrix::matmul_nt_into`] for callers that already
/// hold the operands as flat row-major data (e.g. coordinates gathered
/// from per-node storage into [`crate::simd::with_aligned_scratch`]).
///
/// * `lhs` is `rows × inner` row-major,
/// * `rhs` is `cols × inner` row-major (the **un**transposed operand —
///   the kernels read it for sub-tile column tails),
/// * `rhs_t` is `inner × cols` row-major, i.e. `rhs` transposed. The
///   tile kernels stream it with vector loads, so pack it into
///   64-byte-aligned storage (see
///   [`with_aligned_scratch`](crate::simd::with_aligned_scratch)) —
///   an allocator-placed buffer can silently cost double-digit
///   percent on cache-line-straddling loads.
///
/// `out` is resized to `rows × cols`, reusing its allocation. Bits are
/// identical to [`crate::Matrix::matmul_nt`] — same dispatch, same
/// lane-split-4 contract on every path.
///
/// # Panics
/// Panics when a slice length disagrees with the stated shape.
pub fn matmul_nt_packed_into(
    lhs: &[f64],
    rhs: &[f64],
    rhs_t: &[f64],
    rows: usize,
    inner: usize,
    cols: usize,
    out: &mut crate::Matrix,
) {
    assert_eq!(lhs.len(), rows * inner, "lhs length vs rows×inner");
    assert_eq!(rhs.len(), cols * inner, "rhs length vs cols×inner");
    assert_eq!(rhs_t.len(), inner * cols, "rhs_t length vs inner×cols");
    let mut data = out.take_data();
    if inner == 0 {
        data.clear();
        data.resize(rows * cols, 0.0);
    } else {
        crate::simd::matmul_nt_dispatch(lhs, rhs, rhs_t, rows, inner, cols, &mut data);
    }
    *out = crate::Matrix::from_vec(rows, cols, data);
}

/// A rank-`r` coordinate vector, inline for `r ≤ 16`.
///
/// Dereferences to `[f64]`, so it drops into every API that consumes
/// slices. `PartialEq` compares element-wise regardless of storage.
#[derive(Clone, Debug)]
pub enum CoordVec {
    /// Rank ≤ [`MAX_INLINE_RANK`]: the elements live in the value.
    Inline {
        /// Number of live elements in `data`.
        len: u32,
        /// Element storage; entries past `len` are zero padding.
        data: [f64; MAX_INLINE_RANK],
    },
    /// Rank > [`MAX_INLINE_RANK`]: heap fallback.
    Spilled(Vec<f64>),
}

impl CoordVec {
    /// A zero vector of the given rank.
    pub fn zeros(rank: usize) -> Self {
        if rank <= MAX_INLINE_RANK {
            CoordVec::Inline {
                len: rank as u32,
                data: [0.0; MAX_INLINE_RANK],
            }
        } else {
            CoordVec::Spilled(vec![0.0; rank])
        }
    }

    /// Builds a vector of `rank` elements from `f(i)`, evaluated in
    /// index order (so RNG-backed initializers draw identically to the
    /// `Vec` code they replace).
    pub fn from_fn(rank: usize, mut f: impl FnMut(usize) -> f64) -> Self {
        let mut v = Self::zeros(rank);
        for (i, slot) in v.iter_mut().enumerate() {
            *slot = f(i);
        }
        v
    }

    /// Copies a slice.
    fn from_slice(s: &[f64]) -> Self {
        Self::from_fn(s.len(), |i| s[i])
    }

    /// The elements as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        match self {
            CoordVec::Inline { len, data } => &data[..*len as usize],
            CoordVec::Spilled(v) => v,
        }
    }

    /// The elements as a mutable slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        match self {
            CoordVec::Inline { len, data } => &mut data[..*len as usize],
            CoordVec::Spilled(v) => v,
        }
    }

    /// Copies out to a plain `Vec` (wire encoding, interop).
    pub fn to_vec(&self) -> Vec<f64> {
        self.as_slice().to_vec()
    }
}

impl Deref for CoordVec {
    type Target = [f64];
    #[inline]
    fn deref(&self) -> &[f64] {
        self.as_slice()
    }
}

impl DerefMut for CoordVec {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f64] {
        self.as_mut_slice()
    }
}

impl PartialEq for CoordVec {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Vec<f64>> for CoordVec {
    fn eq(&self, other: &Vec<f64>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl From<Vec<f64>> for CoordVec {
    fn from(v: Vec<f64>) -> Self {
        if v.len() <= MAX_INLINE_RANK {
            Self::from_slice(&v)
        } else {
            CoordVec::Spilled(v)
        }
    }
}

impl Serialize for CoordVec {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl Deserialize for CoordVec {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Vec::<f64>::from_value(v).map(CoordVec::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl CoordVec {
        /// True when the elements are stored inline (no heap).
        fn is_inline(&self) -> bool {
            matches!(self, CoordVec::Inline { .. })
        }
    }

    #[test]
    fn dot_matches_reference() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 5.0, 6.0];
        assert_eq!(dot(&a, &b), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn dot_is_bitwise_lane_split_4() {
        // Contract v2 (re-pinned with the SIMD kernels): four
        // interleaved fma chains, combined (acc0+acc2)+(acc1+acc3),
        // sequential fma tail. See crate::simd for the rationale.
        let a = [0.1f64, 0.2, 0.3, 0.4, 0.5, 0.6];
        let b = [1.7f64, -2.3, 0.9, 4.1, -0.7, 2.2];
        let mut acc = [0.0f64; 4];
        for c in 0..4 {
            acc[c] = a[c].mul_add(b[c], acc[c]);
        }
        let mut combined = (acc[0] + acc[2]) + (acc[1] + acc[3]);
        for k in 4..6 {
            combined = a[k].mul_add(b[k], combined);
        }
        assert_eq!(dot(&a, &b).to_bits(), combined.to_bits());
    }

    #[test]
    #[should_panic(expected = "rank mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn axpby_matches_reference() {
        let mut y = [1.0, 2.0];
        axpby(&mut y, 0.99, -0.2, &[1.0, 1.0]);
        assert!((y[0] - (0.99 - 0.2)).abs() < 1e-15);
        assert!((y[1] - (1.98 - 0.2)).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "rank mismatch")]
    fn axpby_length_mismatch_panics() {
        axpby(&mut [1.0], 1.0, 1.0, &[1.0, 2.0]);
    }

    #[test]
    fn coordvec_inline_until_cap() {
        for rank in [1, 10, MAX_INLINE_RANK] {
            let v = CoordVec::from_fn(rank, |i| i as f64);
            assert!(v.is_inline(), "rank {rank} must be inline");
            assert_eq!(v.len(), rank);
        }
        let big = CoordVec::from_fn(MAX_INLINE_RANK + 1, |i| i as f64);
        assert!(!big.is_inline());
        assert_eq!(big.len(), MAX_INLINE_RANK + 1);
    }

    #[test]
    fn coordvec_slice_roundtrip() {
        let v = CoordVec::from_slice(&[1.5, -2.0, 3.25]);
        assert_eq!(&*v, &[1.5, -2.0, 3.25]);
        assert_eq!(v.to_vec(), vec![1.5, -2.0, 3.25]);
        let mut w = v.clone();
        w[1] = 9.0;
        assert_eq!(&*w, &[1.5, 9.0, 3.25]);
        assert_ne!(w, v);
    }

    #[test]
    fn coordvec_eq_across_storage() {
        let inline = CoordVec::from_fn(3, |i| i as f64);
        let spilled = CoordVec::Spilled(vec![0.0, 1.0, 2.0]);
        assert_eq!(inline, spilled);
        assert_eq!(inline, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn coordvec_from_vec_inlines_small() {
        let v: CoordVec = vec![1.0; 8].into();
        assert!(v.is_inline());
        let w: CoordVec = vec![1.0; 40].into();
        assert!(!w.is_inline());
    }

    #[test]
    fn coordvec_serde_roundtrip_as_plain_array() {
        let v = CoordVec::from_slice(&[1.0, 2.5, -3.0]);
        let json = serde_json::to_string(&v).unwrap();
        assert_eq!(json, "[1,2.5,-3]");
        let back: CoordVec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, v);
        // Interop: a CoordVec reads back anything a Vec<f64> wrote.
        let from_vec: CoordVec = serde_json::from_str("[4,5]").unwrap();
        assert_eq!(from_vec, vec![4.0, 5.0]);
    }
}
