//! Property-based tests for the DMFSGD update machinery.

use dmf_core::config::SgdParams;
use dmf_core::coords::dot;
use dmf_core::provider::ClassLabelProvider;
use dmf_core::update::sgd_step;
use dmf_core::{DmfsgdConfig, Loss, SessionBuilder};
use proptest::prelude::*;

/// The regularized objective contribution of one measurement at one
/// node (paper eq. 5): `l(x, x̂) + λ‖w‖²` where `w` is the updated
/// vector.
fn local_objective(updated: &[f64], fixed: &[f64], x: f64, params: &SgdParams) -> f64 {
    params.loss.value(x, dot(updated, fixed)) + params.lambda * dot(updated, updated)
}

fn coords(rank: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-2.0f64..2.0, rank..=rank)
}

/// The ordinal losses the loss lists below add to the binary ones.
const ORDINAL: [Loss; 3] = [
    Loss::Ordinal { classes: 2 },
    Loss::Ordinal { classes: 3 },
    Loss::Ordinal { classes: 5 },
];

/// The label `loss` trains on for the sign `x`: `x` itself, or under
/// an ordinal loss the extreme class on that side (`C` for +1, 1 for
/// −1).
fn label(loss: Loss, x: f64) -> f64 {
    match loss {
        Loss::Ordinal { classes } if x > 0.0 => f64::from(classes),
        Loss::Ordinal { .. } => 1.0,
        _ => x,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn loss_values_nonnegative(
        x in prop_oneof![Just(1.0f64), Just(-1.0f64)],
        xhat in -50.0f64..50.0,
    ) {
        for loss in [Loss::L2, Loss::Hinge, Loss::Logistic].into_iter().chain(ORDINAL) {
            let x = label(loss, x);
            prop_assert!(loss.value(x, xhat) >= 0.0);
            prop_assert!(loss.value(x, xhat).is_finite());
            prop_assert!(loss.gradient_factor(x, xhat).is_finite());
        }
    }

    #[test]
    fn gradient_sign_pushes_toward_label(
        x in prop_oneof![Just(1.0f64), Just(-1.0f64)],
        xhat in -5.0f64..5.0,
    ) {
        // For classification losses, g·x ≤ 0: the step −η·g·v moves x̂
        // toward the sign of x (or not at all when the margin is met).
        for loss in [Loss::Hinge, Loss::Logistic].into_iter().chain(ORDINAL) {
            let g = loss.gradient_factor(label(loss, x), xhat);
            prop_assert!(g * x <= 1e-12, "{loss:?}: g={g} x={x}");
        }
    }

    #[test]
    fn small_step_never_increases_smooth_objective(
        updated in coords(6),
        fixed in coords(6),
        x in prop_oneof![Just(1.0f64), Just(-1.0f64)],
    ) {
        for loss in [Loss::L2, Loss::Logistic].into_iter().chain(ORDINAL) {
            let x = label(loss, x);
            let p = SgdParams { eta: 0.005, lambda: 0.1, loss };
            let mut u = updated.clone();
            let before = local_objective(&u, &fixed, x, &p);
            sgd_step(&mut u, &fixed, x, &p);
            let after = local_objective(&u, &fixed, x, &p);
            prop_assert!(
                after <= before + 1e-9,
                "{loss:?}: {before} → {after}"
            );
        }
    }

    #[test]
    fn repeated_training_fits_the_label(
        mut updated in coords(8),
        fixed in coords(8),
        x in prop_oneof![Just(1.0f64), Just(-1.0f64)],
    ) {
        // Skip degenerate fixed vectors (no gradient direction).
        let norm = dot(&fixed, &fixed);
        prop_assume!(norm > 0.05);
        let p = SgdParams { eta: 0.1, lambda: 0.01, loss: Loss::Logistic };
        for _ in 0..400 {
            sgd_step(&mut updated, &fixed, x, &p);
        }
        let xhat = dot(&updated, &fixed);
        prop_assert!(xhat * x > 0.0, "failed to fit: x={x}, x̂={xhat}");
    }

    #[test]
    fn shrinkage_bounds_coordinate_growth(
        mut updated in coords(5),
        fixed in coords(5),
        x in prop_oneof![Just(1.0f64), Just(-1.0f64)],
    ) {
        // With η=λ=0.1 the norm stays bounded: ‖u‖ ≤ max(‖u₀‖, η‖v‖/(ηλ)).
        let p = SgdParams { eta: 0.1, lambda: 0.1, loss: Loss::Logistic };
        let v_norm = dot(&fixed, &fixed).sqrt();
        let bound = dot(&updated, &updated).sqrt().max(v_norm / 0.1) + 1.0;
        for _ in 0..200 {
            sgd_step(&mut updated, &fixed, x, &p);
            let norm = dot(&updated, &updated).sqrt();
            prop_assert!(norm <= bound, "norm {norm} escaped bound {bound}");
        }
    }

    #[test]
    fn ordinal_classifier_consistent(
        classes in 2u8..8,
        score in -10.0f64..10.0,
    ) {
        let loss = Loss::Ordinal { classes };
        let predicted = loss.class_of_score(score);
        prop_assert!((1.0..=f64::from(classes)).contains(&predicted));
        // The predicted class is (weakly) the cheapest under the loss
        // among all classes — up to boundary ties.
        let own_loss = loss.value(predicted, score);
        for c in (1..=classes).map(f64::from) {
            prop_assert!(
                own_loss <= loss.value(c, score) + 1e-9,
                "class {c} cheaper than predicted {predicted} at score {score}"
            );
        }
    }

    #[test]
    fn ordinal_prediction_monotone_in_score(
        classes in 2u8..8,
        s1 in -10.0f64..10.0,
        s2 in -10.0f64..10.0,
    ) {
        let loss = Loss::Ordinal { classes };
        let (lo, hi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
        prop_assert!(loss.class_of_score(lo) <= loss.class_of_score(hi));
    }

    #[test]
    fn batched_scores_bitwise_match_naive(
        n in 12usize..40,
        rank in 1usize..20,
        seed in 0u64..1_000,
        ticks in 0usize..1_500,
    ) {
        // The batched U·Vᵀ evaluation must equal the per-pair dot path
        // bit for bit, at any training state, inline or spilled rank.
        let d = dmf_datasets::rtt::meridian_like(n, seed);
        let class = d.classify(d.median());
        let mut cfg = DmfsgdConfig::paper_defaults();
        cfg.rank = rank;
        cfg.k = 8.min(n - 1);
        cfg.seed = seed;
        let mut provider = ClassLabelProvider::new(class);
        let mut sys = SessionBuilder::from_config(cfg)
            .nodes(n)
            .build()
            .expect("valid config");
        sys.run(ticks, &mut provider).expect("provider covers the session");
        let batched = sys.predicted_scores();
        let naive = sys.predicted_scores_naive();
        prop_assert_eq!(batched.shape(), naive.shape());
        for ((i, j, b), (_, _, a)) in batched.entries().zip(naive.entries()) {
            prop_assert_eq!(
                b.to_bits(), a.to_bits(),
                "entry ({},{}) differs: batched {} vs naive {}", i, j, b, a
            );
        }
    }

    #[test]
    fn snapshot_restore_run_is_byte_identical_to_uninterrupted_run(
        n in 12usize..36,
        seed in 0u64..1_000,
        warmup in 0usize..800,
        resumed in 1usize..800,
        churn in prop_oneof![Just(false), Just(true)],
    ) {
        // `snapshot → restore → run(k)` must equal an uninterrupted
        // `run(warmup + k)` bit for bit: coordinates, RNG position,
        // membership bookkeeping and counters all survive the JSON
        // detour exactly.
        let d = dmf_datasets::rtt::meridian_like(n, seed);
        let class = d.classify(d.median());
        let k = 6.min(n - 2);
        let build = || {
            dmf_core::Session::builder()
                .nodes(n)
                .k(k)
                .seed(seed)
                .build()
                .expect("valid config")
        };
        let mut interrupted = build();
        let mut uninterrupted = build();
        let mut p1 = ClassLabelProvider::new(class.clone());
        let mut p2 = ClassLabelProvider::new(class);
        interrupted.run(warmup, &mut p1).expect("warmup");
        uninterrupted.run(warmup, &mut p2).expect("warmup");
        if churn && n > k + 2 {
            // Membership state must survive checkpoints too.
            interrupted.leave(n / 2).expect("leave");
            uninterrupted.leave(n / 2).expect("leave");
        }

        // Checkpoint through the JSON wire format, not just memory.
        let json = interrupted.snapshot().to_json();
        let snap = dmf_core::Snapshot::from_json(&json).expect("parse");
        let mut restored = dmf_core::Session::restore(&snap).expect("restore");

        restored.run(resumed, &mut p1).expect("resume");
        uninterrupted.run(resumed, &mut p2).expect("continue");

        prop_assert_eq!(restored.measurements_used(), uninterrupted.measurements_used());
        let a = restored.predicted_scores();
        let b = uninterrupted.predicted_scores();
        prop_assert_eq!(a.shape(), b.shape());
        for ((i, j, x), (_, _, y)) in a.entries().zip(b.entries()) {
            prop_assert_eq!(
                x.to_bits(), y.to_bits(),
                "entry ({},{}) diverged after restore: {} vs {}", i, j, x, y
            );
        }
    }
}
