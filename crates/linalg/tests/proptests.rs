//! Property-based tests for the linear-algebra substrate.

use dmf_linalg::decomp::{effective_rank, normalized_spectrum, qr};
use dmf_linalg::stats::{median, percentile, percentile_in_place};
use dmf_linalg::svd::jacobi_svd;
use dmf_linalg::Matrix;
use proptest::prelude::*;

fn small_matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-100.0f64..100.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

/// The sort-based percentile the library's selection replaced, kept as
/// the reference: stable sort, then interpolate between `s[lo]` and
/// `s[hi]`.
fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

fn sorted_reference(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    percentile_of_sorted(&sorted, p)
}

/// Heavily tied values: a handful of levels (both signed zeros and
/// extreme magnitudes among them) plus a continuous range.
fn tied_values(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    let level = prop_oneof![
        Just(0.0f64),
        Just(-0.0f64),
        Just(1.0f64),
        Just(-1.0f64),
        Just(2.5f64),
        Just(1e300f64),
        Just(-1e-300f64),
        -10.0f64..10.0,
    ];
    proptest::collection::vec(level, 1..=max_len)
}

/// Percentiles at both ends, at the quartiles and anywhere between.
fn any_p() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0f64),
        Just(100.0f64),
        Just(50.0f64),
        Just(25.0f64),
        0.0f64..=100.0,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn percentile_selection_matches_sort_bitwise(
        values in prop_oneof![tied_values(2), tied_values(300)],
        p in any_p(),
    ) {
        let want = sorted_reference(&values, p).to_bits();
        prop_assert_eq!(percentile(&values, p).to_bits(), want);
        let mut buf = values.clone();
        prop_assert_eq!(percentile_in_place(&mut buf, p).to_bits(), want);
        // Reordered, not changed: a second selection on the same buffer
        // agrees too, and the buffer holds the same values bit for bit.
        prop_assert_eq!(percentile_in_place(&mut buf, p).to_bits(), want);
        let bits = |v: &[f64]| {
            let mut b: Vec<u64> = v.iter().map(|x| x.to_bits()).collect();
            b.sort_unstable();
            b
        };
        prop_assert_eq!(bits(&buf), bits(&values));
        prop_assert_eq!(median(&values).to_bits(), sorted_reference(&values, 50.0).to_bits());
    }

    #[test]
    fn transpose_is_involution(m in small_matrix(8)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_identity_right(m in small_matrix(8)) {
        let id = Matrix::identity(m.cols());
        let prod = m.matmul(&id);
        prop_assert!(prod.sub(&m).frobenius_norm() < 1e-9);
    }

    #[test]
    fn frobenius_norm_nonnegative_and_zero_only_for_zero(m in small_matrix(6)) {
        let norm = m.frobenius_norm();
        prop_assert!(norm >= 0.0);
        if norm == 0.0 {
            prop_assert!(m.as_slice().iter().all(|&x| x == 0.0));
        }
    }

    #[test]
    fn svd_singular_values_sorted_and_nonnegative(m in small_matrix(7)) {
        let svd = jacobi_svd(&m);
        for w in svd.singular_values.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-9);
        }
        prop_assert!(svd.singular_values.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn svd_reconstructs(m in small_matrix(7)) {
        let svd = jacobi_svd(&m);
        let err = svd.reconstruct().sub(&m).frobenius_norm();
        let scale = m.frobenius_norm().max(1.0);
        prop_assert!(err / scale < 1e-7, "relative reconstruction error {}", err / scale);
    }

    #[test]
    fn svd_largest_singular_value_bounds_frobenius(m in small_matrix(6)) {
        // σ₁ ≤ ‖A‖_F ≤ sqrt(p)·σ₁
        let svd = jacobi_svd(&m);
        let s1 = svd.singular_values[0];
        let fro = m.frobenius_norm();
        let p = svd.singular_values.len() as f64;
        prop_assert!(s1 <= fro + 1e-9);
        prop_assert!(fro <= p.sqrt() * s1 + 1e-9);
    }

    #[test]
    fn qr_reconstruction(m in small_matrix(6)) {
        let (q, r) = qr(&m);
        let err = q.matmul(&r).sub(&m).frobenius_norm();
        let scale = m.frobenius_norm().max(1.0);
        prop_assert!(err / scale < 1e-8);
    }

    #[test]
    fn normalized_spectrum_in_unit_interval(
        sv in proptest::collection::vec(0.0f64..1e6, 1..20)
    ) {
        let mut sorted = sv.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let spec = normalized_spectrum(&sorted);
        prop_assert!(spec.iter().all(|&s| (0.0..=1.0 + 1e-12).contains(&s)));
    }

    #[test]
    fn effective_rank_monotone_in_energy(
        sv in proptest::collection::vec(0.01f64..100.0, 1..15)
    ) {
        let mut sorted = sv.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let r_low = effective_rank(&sorted, 0.5);
        let r_high = effective_rank(&sorted, 0.99);
        prop_assert!(r_low <= r_high);
        prop_assert!(r_high <= sorted.len());
    }

    #[test]
    fn percentile_monotone_in_p(
        values in proptest::collection::vec(-1e4f64..1e4, 1..50),
        p1 in 0.0f64..100.0,
        p2 in 0.0f64..100.0,
    ) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(percentile(&values, lo) <= percentile(&values, hi) + 1e-9);
    }

    #[test]
    fn percentile_within_range(
        values in proptest::collection::vec(-1e4f64..1e4, 1..50),
        p in 0.0f64..100.0,
    ) {
        let v = percentile(&values, p);
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= min - 1e-9 && v <= max + 1e-9);
    }

    #[test]
    fn percentile_of_sorted_agrees(
        values in proptest::collection::vec(-1e4f64..1e4, 1..50),
        p in 0.0f64..100.0,
    ) {
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(percentile(&values, p), percentile_of_sorted(&sorted, p));
    }
}
