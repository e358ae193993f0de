//! Integration: DMFSGD under the erroneous-measurement scenarios and
//! both classification losses.

use dmfsgd::core::provider::ClassLabelProvider;
use dmfsgd::core::{DmfsgdConfig, Loss, SessionBuilder};
use dmfsgd::datasets::rtt::meridian_like;
use dmfsgd::eval::{collect_scores, roc::auc};
use dmfsgd::simnet::errors::{calibrate_delta, inject, BandErrorKind, ErrorModel};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn near_tau_errors_hurt_less_than_random_flips() {
    // The core of Figure 6 at integration level.
    let dataset = meridian_like(80, 2);
    let tau = dataset.median();
    let clean = dataset.classify(tau);
    let train_auc = |class: &dmfsgd::datasets::ClassMatrix, seed: u64| {
        let mut provider = ClassLabelProvider::new(class.clone());
        let mut cfg = DmfsgdConfig::paper_defaults();
        cfg.seed = seed;
        let mut system = SessionBuilder::from_config(cfg)
            .nodes(80)
            .build()
            .expect("valid config");
        system
            .run(80 * 10 * 25, &mut provider)
            .expect("provider covers the session");
        auc(&collect_scores(&clean, &system.predicted_scores()))
    };

    // Average over several injection/training seeds: at n = 80 a
    // single draw can tie the two error types; the paper's effect is a
    // population-level ordering.
    let delta = calibrate_delta(&dataset, tau, 0.15, BandErrorKind::FlipNearTau);
    let mut auc_near_sum = 0.0;
    let mut auc_random_sum = 0.0;
    let runs = 3;
    for round in 0..runs {
        let mut rng = ChaCha8Rng::seed_from_u64(7 + round);
        let mut near_tau = clean.clone();
        inject(
            &mut near_tau,
            &dataset,
            ErrorModel::FlipNearTau { delta },
            &mut rng,
        );
        let mut random = clean.clone();
        inject(
            &mut random,
            &dataset,
            ErrorModel::FlipRandom { fraction: 0.15 },
            &mut rng,
        );
        auc_near_sum += train_auc(&near_tau, 40 + round);
        auc_random_sum += train_auc(&random, 50 + round);
    }
    let auc_clean = train_auc(&clean, 3);
    let auc_near = auc_near_sum / runs as f64;
    let auc_random = auc_random_sum / runs as f64;

    assert!(auc_clean > 0.9);
    assert!(
        auc_near > auc_clean - 0.12,
        "near-τ errors should be mild: {auc_clean} → {auc_near}"
    );
    assert!(
        auc_random < auc_near + 0.01,
        "random flips ({auc_random}) must hurt at least as much as near-τ flips ({auc_near})"
    );
}

#[test]
fn classification_learns_from_one_bit_labels() {
    // DMFSGD class mode reaches high AUC from one-bit measurements
    // alone, with no quantity ever fed to it.
    let dataset = meridian_like(60, 3);
    let classes = dataset.classify(dataset.median());
    let mut provider = ClassLabelProvider::new(classes.clone());
    let mut cfg = DmfsgdConfig::paper_defaults();
    cfg.seed = 12;
    let mut system = SessionBuilder::from_config(cfg)
        .nodes(60)
        .build()
        .expect("valid config");
    system
        .run(60 * 10 * 25, &mut provider)
        .expect("provider covers the session");
    let a = auc(&collect_scores(&classes, &system.predicted_scores()));
    assert!(a > 0.85, "class-based AUC {a}");
}

#[test]
fn hinge_and_logistic_both_work_logistic_not_worse() {
    let dataset = meridian_like(70, 4);
    let classes = dataset.classify(dataset.median());
    let run = |loss: Loss, seed: u64| {
        let mut provider = ClassLabelProvider::new(classes.clone());
        let mut cfg = DmfsgdConfig::paper_defaults();
        cfg.sgd.loss = loss;
        cfg.seed = seed;
        let mut system = SessionBuilder::from_config(cfg)
            .nodes(70)
            .build()
            .expect("valid config");
        system
            .run(70 * 10 * 25, &mut provider)
            .expect("provider covers the session");
        auc(&collect_scores(&classes, &system.predicted_scores()))
    };
    let logistic = run(Loss::Logistic, 1);
    let hinge = run(Loss::Hinge, 1);
    assert!(
        logistic > 0.85 && hinge > 0.8,
        "logistic {logistic}, hinge {hinge}"
    );
    assert!(
        logistic > hinge - 0.03,
        "logistic ({logistic}) should not trail hinge ({hinge}) meaningfully"
    );
}
