//! Node coordinates.
//!
//! Each node stores one row of `U` and one row of `V` (paper §5.2):
//! "ui and vi will be called the coordinates of node i". Coordinates
//! are initialized with random numbers uniformly distributed between 0
//! and 1 (§5.3) — the algorithms are empirically insensitive to this
//! initialization.
//!
//! Storage is the inline [`CoordVec`]: for the paper-scale ranks
//! (`r ≤ 16`) both factors live inside the node itself, so a node is
//! one contiguous block of memory and snapshotting coordinates for a
//! protocol message is a copy, not an allocation.

use dmf_linalg::kernels;
pub use dmf_linalg::CoordVec;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The rank-`r` coordinate pair `(u_i, v_i)` of a node.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Coordinates {
    /// Row of `U`: the node's "outgoing" factor.
    pub u: CoordVec,
    /// Row of `V`: the node's "incoming" factor.
    pub v: CoordVec,
}

impl Coordinates {
    /// Random initialization, uniform in `[0, 1)` (paper §5.3).
    ///
    /// Draws `u` first, then `v`, one element at a time — the same RNG
    /// consumption order as the historical `Vec`-backed initializer.
    pub fn random(rank: usize, rng: &mut impl Rng) -> Self {
        assert!(rank >= 1, "rank must be at least 1");
        Self {
            u: CoordVec::from_fn(rank, |_| rng.gen::<f64>()),
            v: CoordVec::from_fn(rank, |_| rng.gen::<f64>()),
        }
    }

    /// Builds coordinates from explicit vectors (tests, deserialized
    /// protocol messages).
    pub fn from_parts(u: Vec<f64>, v: Vec<f64>) -> Self {
        assert_eq!(u.len(), v.len(), "u/v rank mismatch");
        assert!(!u.is_empty(), "rank must be at least 1");
        Self {
            u: u.into(),
            v: v.into(),
        }
    }

    /// Coordinate rank `r`.
    pub fn rank(&self) -> usize {
        self.u.len()
    }

    /// Predicted measure from `self` to `other`:
    /// `x̂_ij = u_i · v_j` (paper eq. 2).
    pub fn predict_to(&self, other: &Coordinates) -> f64 {
        dot(&self.u, &other.v)
    }
}

/// Dot product helper shared with the update rules (re-exported from
/// [`dmf_linalg::kernels::dot`]).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    kernels::dot(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    impl Coordinates {
        /// Squared L2 norms `(‖u‖², ‖v‖²)` — the regularization terms.
        fn norms_sq(&self) -> (f64, f64) {
            (dot(&self.u, &self.u), dot(&self.v, &self.v))
        }
    }

    #[test]
    fn random_init_in_unit_interval() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let c = Coordinates::random(10, &mut rng);
        assert_eq!(c.rank(), 10);
        assert!(c
            .u
            .iter()
            .chain(c.v.iter())
            .all(|&x| (0.0..1.0).contains(&x)));
    }

    #[test]
    fn paper_rank_stays_inline() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let c = Coordinates::random(10, &mut rng);
        let inline = |v: &CoordVec| matches!(v, CoordVec::Inline { .. });
        assert!(inline(&c.u) && inline(&c.v));
        // Figure-4 rank sweep goes to 100: must spill, not panic.
        let big = Coordinates::random(100, &mut rng);
        assert_eq!(big.rank(), 100);
        assert!(!inline(&big.u));
    }

    #[test]
    fn predict_is_u_dot_v() {
        let a = Coordinates::from_parts(vec![1.0, 2.0], vec![0.0, 0.0]);
        let b = Coordinates::from_parts(vec![9.0, 9.0], vec![3.0, 4.0]);
        assert_eq!(a.predict_to(&b), 1.0 * 3.0 + 2.0 * 4.0);
        // Prediction is directional: b → a uses u_b · v_a.
        assert_eq!(b.predict_to(&a), 0.0);
    }

    #[test]
    fn norms_sq() {
        let c = Coordinates::from_parts(vec![3.0, 4.0], vec![1.0, 1.0]);
        assert_eq!(c.norms_sq(), (25.0, 2.0));
    }

    #[test]
    #[should_panic(expected = "rank mismatch")]
    fn mismatched_ranks_rejected() {
        Coordinates::from_parts(vec![1.0], vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "rank mismatch")]
    fn predict_checks_rank() {
        let a = Coordinates::from_parts(vec![1.0], vec![1.0]);
        let b = Coordinates::from_parts(vec![1.0, 2.0], vec![1.0, 2.0]);
        let _ = a.predict_to(&b);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut r1 = ChaCha8Rng::seed_from_u64(5);
        let mut r2 = ChaCha8Rng::seed_from_u64(5);
        assert_eq!(
            Coordinates::random(8, &mut r1),
            Coordinates::random(8, &mut r2)
        );
    }
}
