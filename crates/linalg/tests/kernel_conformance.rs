//! Differential conformance suite for the SIMD kernel dispatch paths.
//!
//! The lane-split-4 contract (see `dmf_linalg::simd`) promises that the
//! scalar reference, the portable unrolled fallback, the AVX2 path and
//! the AVX-512 matmul tiles produce **bitwise identical** results for
//! `dot`, `axpby` and `matmul_nt` — over *any* input, including
//! denormals, signed zeros, NaN, infinities, every rank 1..=32 and
//! unaligned slices. This suite
//! is what makes the SIMD kernels shippable: if a path ever diverges by
//! one bit, a property here fails.
//!
//! One deliberate carve-out: when a result is NaN, the *payload* bits
//! are not part of the contract (all paths must agree that it is NaN,
//! and they do — every element enters the accumulation through one
//! hardware fma — but IEEE-754 does not pin which NaN an invalid
//! operation returns, so we don't either).
//!
//! The suite also quantifies the one-time golden re-pin from the v1
//! (sequential-chain) contract to v2: same single-fma-per-element error
//! bound, different rounding order, difference bounded by
//! `n · ε · Σ|aᵢ·bᵢ|`.

use dmf_linalg::simd::{
    self, avx2_available, avx512_available, axpby_avx2, axpby_portable, axpby_reference, dot_avx2,
    dot_portable, dot_reference, matmul_nt_reference, Dispatch,
};
use dmf_linalg::Matrix;
use proptest::prelude::*;

/// Adversarial scalar: normals across the full dynamic range, plus the
/// IEEE-754 specials the contract must survive (±0.0, denormals, ±∞,
/// NaN).
fn adversarial_f64() -> impl Strategy<Value = f64> {
    // (The vendored prop_oneof! is unweighted — repeating the normal
    // range tilts the mix toward ordinary values.)
    prop_oneof![
        -1e6f64..1e6f64,
        -1e6f64..1e6f64,
        -1e6f64..1e6f64,
        -1e6f64..1e6f64,
        -1e6f64..1e6f64,
        -1e6f64..1e6f64,
        (-60i32..60).prop_map(|e| (e as f64).exp2()),
        (-60i32..60).prop_map(|e| -(e as f64).exp2()),
        Just(0.0f64),
        Just(-0.0f64),
        Just(f64::MIN_POSITIVE / 8.0),     // denormal
        Just(-f64::MIN_POSITIVE / 1024.0), // denormal
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::NAN),
        Just(1e300f64),
        Just(-1e300f64),
    ]
}

fn vec_pair(max_len: usize) -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (0..=max_len).prop_flat_map(|n| {
        (
            proptest::collection::vec(adversarial_f64(), n),
            proptest::collection::vec(adversarial_f64(), n),
        )
    })
}

/// Bitwise equality modulo NaN payloads.
fn same_bits(x: f64, y: f64, ctx: &str) -> Result<(), TestCaseError> {
    if x.is_nan() && y.is_nan() {
        return Ok(());
    }
    prop_assert_eq!(x.to_bits(), y.to_bits(), "{}: {} vs {}", ctx, x, y);
    Ok(())
}

/// Copies `v` into a fresh buffer at an element offset that breaks
/// 32-byte alignment, returning the buffer (the caller slices
/// `[1..1+n]`). `Vec<f64>` is 8-byte aligned; shifting by one element
/// guarantees the slice is *not* 32-byte aligned whenever the base is.
fn unalign(v: &[f64]) -> Vec<f64> {
    let mut buf = vec![0.0; v.len() + 1];
    buf[1..].copy_from_slice(v);
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dot_paths_bitwise_identical((a, b) in vec_pair(32)) {
        let want = dot_reference(&a, &b);
        same_bits(dot_portable(&a, &b), want, "portable")?;
        if avx2_available() {
            same_bits(dot_avx2(&a, &b), want, "avx2")?;
        }
        // Unaligned views of the same data take the same bits.
        let (ua, ub) = (unalign(&a), unalign(&b));
        same_bits(dot_portable(&ua[1..], &ub[1..]), want, "portable unaligned")?;
        if avx2_available() {
            same_bits(dot_avx2(&ua[1..], &ub[1..]), want, "avx2 unaligned")?;
        }
    }

    #[test]
    fn axpby_paths_bitwise_identical(
        (x, y) in vec_pair(32),
        beta in adversarial_f64(),
        alpha in adversarial_f64(),
    ) {
        let mut want = y.clone();
        axpby_reference(&mut want, beta, alpha, &x);
        let mut got = y.clone();
        axpby_portable(&mut got, beta, alpha, &x);
        for i in 0..want.len() {
            same_bits(got[i], want[i], "portable")?;
        }
        if avx2_available() {
            let ux = unalign(&x);
            let mut uy = unalign(&y);
            axpby_avx2(&mut uy[1..], beta, alpha, &ux[1..]);
            for i in 0..want.len() {
                same_bits(uy[1 + i], want[i], "avx2 unaligned")?;
            }
        }
    }

    #[test]
    fn matmul_nt_paths_bitwise_identical(
        rows in 1usize..6,
        inner in 1usize..33,
        cols in 1usize..19,
        seed in any::<u64>(),
    ) {
        // Deterministic adversarial fill mixing magnitudes, signed
        // zeros and denormals (NaN/∞ are covered by the dot property —
        // matmul entries *are* dots by the batched≡per-pair law below).
        let fill = |count: usize, salt: u64| -> Vec<f64> {
            (0..count)
                .map(|i| {
                    let h = (i as u64)
                        .wrapping_mul(0x9E3779B97F4A7C15)
                        .wrapping_add(seed ^ salt);
                    match h % 11 {
                        0 => 0.0,
                        1 => -0.0,
                        2 => f64::MIN_POSITIVE / 2.0,
                        3 => 1e300,
                        4 => -1e300,
                        _ => ((h >> 11) as f64 / (1u64 << 40) as f64) - 4000.0,
                    }
                })
                .collect()
        };
        let lhs = Matrix::from_vec(rows, inner, fill(rows * inner, 1));
        let rhs = Matrix::from_vec(cols, inner, fill(cols * inner, 2));

        let mut want = Vec::new();
        matmul_nt_reference(lhs.as_slice(), rhs.as_slice(), rows, inner, cols, &mut want);

        for path in [Dispatch::Portable, Dispatch::Avx2, Dispatch::Avx512] {
            if (path == Dispatch::Avx2 && !avx2_available())
                || (path == Dispatch::Avx512 && !avx512_available())
            {
                continue;
            }
            simd::set_thread_override(Some(path));
            let got = lhs.matmul_nt(&rhs);
            simd::set_thread_override(None);
            for (idx, (&g, &w)) in got.as_slice().iter().zip(want.iter()).enumerate() {
                same_bits(g, w, &format!("{path:?} entry {idx}"))?;
            }
        }
    }

    /// The packed entry point is the same computation as the `Matrix`
    /// surface: caller-packed slices (including a deliberately
    /// unaligned `rhsᵀ`) produce the same bits on every path.
    #[test]
    fn matmul_nt_packed_into_matches_matrix_surface(
        rows in 1usize..6,
        inner in 0usize..33,
        cols in 1usize..19,
        data in proptest::collection::vec(adversarial_f64(), 6 * 33 + 19 * 33),
    ) {
        let lhs = Matrix::from_fn(rows, inner, |i, j| data[i * inner + j]);
        let rhs = Matrix::from_fn(cols, inner, |i, j| data[6 * 33 + i * inner + j]);
        let want = lhs.matmul_nt(&rhs);

        let mut rhs_t = vec![0.0; inner * cols + 1];
        for j in 0..cols {
            for k in 0..inner {
                rhs_t[1 + k * cols + j] = rhs[(j, k)];
            }
        }
        for path in [Dispatch::Portable, Dispatch::Avx2, Dispatch::Avx512] {
            if (path == Dispatch::Avx2 && !avx2_available())
                || (path == Dispatch::Avx512 && !avx512_available())
            {
                continue;
            }
            simd::set_thread_override(Some(path));
            let mut got = Matrix::zeros(0, 0);
            dmf_linalg::kernels::matmul_nt_packed_into(
                lhs.as_slice(),
                rhs.as_slice(),
                &rhs_t[1..],
                rows,
                inner,
                cols,
                &mut got,
            );
            simd::set_thread_override(None);
            prop_assert_eq!(got.shape(), want.shape());
            for (idx, (&g, &w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                same_bits(g, w, &format!("{path:?} packed entry {idx}"))?;
            }
        }
    }

    #[test]
    fn matmul_nt_entries_equal_per_pair_dot(
        rows in 1usize..6,
        inner in 1usize..33,
        cols in 1usize..12,
        data in proptest::collection::vec(adversarial_f64(), 6 * 33 + 12 * 33),
    ) {
        let lhs = Matrix::from_fn(rows, inner, |i, j| data[i * inner + j]);
        let rhs = Matrix::from_fn(cols, inner, |i, j| data[6 * 33 + i * inner + j]);
        let prod = lhs.matmul_nt(&rhs);
        for i in 0..rows {
            for j in 0..cols {
                same_bits(
                    prod[(i, j)],
                    dmf_linalg::kernels::dot(lhs.row(i), rhs.row(j)),
                    &format!("entry ({i},{j})"),
                )?;
            }
        }
    }

    /// The documented v1→v2 golden re-pin: on finite inputs both
    /// contracts are single-fma-per-element summations of the same
    /// products, so they differ by at most the classic reordering
    /// bound `n · ε · Σ|aᵢ·bᵢ|`.
    #[test]
    fn v2_contract_stays_within_reordering_bound_of_v1(
        (a, b) in (1usize..33).prop_flat_map(|n| (
            proptest::collection::vec(-1e6f64..1e6, n),
            proptest::collection::vec(-1e6f64..1e6, n),
        )),
    ) {
        // v1: sequential chain, product-initialized.
        let mut v1 = a[0] * b[0];
        for i in 1..a.len() {
            v1 = a[i].mul_add(b[i], v1);
        }
        let v2 = dot_reference(&a, &b);
        let magnitude: f64 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();
        let bound = a.len() as f64 * f64::EPSILON * magnitude;
        prop_assert!(
            (v1 - v2).abs() <= bound.max(f64::MIN_POSITIVE),
            "v1 {v1} vs v2 {v2}, bound {bound}"
        );
    }
}

/// `simd::prefetch` takes any reference and is a hint on every
/// dispatch path (this suite also runs under `DMF_FORCE_SCALAR=1`):
/// the degenerate shapes do nothing, a value that ends on the last
/// byte of its allocation is not read past, and nothing it is handed
/// changes.
#[test]
fn prefetch_accepts_every_shape_and_touches_nothing() {
    #[repr(align(64))]
    #[derive(Clone, PartialEq, Debug)]
    struct NodeSized([u8; 300]);

    simd::prefetch::<[f64]>(&[]);
    simd::prefetch(&());
    simd::prefetch(&[(); 1000]);
    let one = [1.5f64];
    simd::prefetch(&one);
    simd::prefetch(&one[..]);
    // Exactly one line, exactly filled: the slice's last byte is the
    // allocation's last byte.
    let exact: Box<[u8]> = vec![7u8; 64].into_boxed_slice();
    simd::prefetch(&exact[..]);
    simd::prefetch(&exact[63..]);
    let node = NodeSized([9; 300]);
    simd::prefetch(&node);
    simd::prefetch(std::slice::from_ref(&node));

    assert_eq!(one, [1.5]);
    assert!(exact.iter().all(|&b| b == 7));
    assert_eq!(node, NodeSized([9; 300]));
}

#[test]
fn all_ranks_1_to_32_covered_exhaustively() {
    // The proptests sample ranks; this pins every rank deterministically
    // (chunk counts 0..=8, every tail length 0..=3).
    for n in 0..=32usize {
        let a: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) as f64).sin() * 1e3).collect();
        let b: Vec<f64> = (0..n).map(|i| ((i * 13 + 1) as f64).cos() * 1e-3).collect();
        let want = dot_reference(&a, &b);
        assert_eq!(dot_portable(&a, &b).to_bits(), want.to_bits(), "rank {n}");
        if avx2_available() {
            assert_eq!(dot_avx2(&a, &b).to_bits(), want.to_bits(), "rank {n}");
        }
    }
}

#[test]
fn nan_and_infinity_propagate_on_every_path() {
    for (a, b) in [
        (vec![1.0, f64::NAN, 3.0, 4.0, 5.0], vec![1.0; 5]),
        (vec![f64::INFINITY, 1.0, 2.0, 3.0], vec![1.0; 4]),
        // ∞ + (-∞) across lanes -> NaN at the combine step.
        (
            vec![f64::INFINITY, f64::NEG_INFINITY, 0.5, 0.5],
            vec![1.0, 1.0, 1.0, 1.0],
        ),
    ] {
        let want = dot_reference(&a, &b);
        let got = dot_portable(&a, &b);
        assert!(
            (want.is_nan() && got.is_nan()) || want.to_bits() == got.to_bits(),
            "portable: {got} vs {want}"
        );
        if avx2_available() {
            let got = dot_avx2(&a, &b);
            assert!(
                (want.is_nan() && got.is_nan()) || want.to_bits() == got.to_bits(),
                "avx2: {got} vs {want}"
            );
        }
    }
}
