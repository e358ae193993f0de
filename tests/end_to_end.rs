//! Cross-crate integration: full pipelines from dataset generation to
//! evaluated prediction, exercising the paper's three dataset shapes.

use dmfsgd::core::provider::{ClassLabelProvider, ProbedClassProvider};
use dmfsgd::core::{DmfsgdConfig, SessionBuilder};
use dmfsgd::datasets::abw::hps3_like;
use dmfsgd::datasets::dynamic::{harvard_like, HarvardConfig};
use dmfsgd::datasets::rtt::meridian_like;
use dmfsgd::eval::{collect_scores, roc::auc, ConfusionMatrix};

fn train_and_auc(dataset: &dmfsgd::datasets::Dataset, k: usize, seed: u64) -> f64 {
    let tau = dataset.median();
    let classes = dataset.classify(tau);
    let mut provider = ClassLabelProvider::new(classes.clone());
    let mut cfg = DmfsgdConfig::paper_defaults().with_k(k);
    cfg.seed = seed;
    let mut system = SessionBuilder::from_config(cfg)
        .nodes(dataset.len())
        .build()
        .expect("valid config");
    system
        .run(dataset.len() * k * 25, &mut provider)
        .expect("provider covers the session");
    auc(&collect_scores(&classes, &system.predicted_scores()))
}

#[test]
fn meridian_like_pipeline_reaches_paper_accuracy_band() {
    let dataset = meridian_like(120, 1);
    let a = train_and_auc(&dataset, 16, 1);
    assert!(a > 0.9, "Meridian-like AUC {a}");
}

#[test]
fn hps3_like_pipeline_reaches_paper_accuracy_band() {
    let dataset = hps3_like(120, 2);
    let a = train_and_auc(&dataset, 10, 2);
    assert!(a > 0.9, "HP-S3-like AUC {a}");
}

#[test]
fn harvard_like_trace_replay_pipeline() {
    let (trace, ground_truth) = harvard_like(&HarvardConfig::new(80, 80_000), 3);
    let tau = ground_truth.median();
    let classes = ground_truth.classify(tau);
    let mut cfg = DmfsgdConfig::paper_defaults();
    cfg.seed = 3;
    let mut system = SessionBuilder::from_config(cfg)
        .nodes(80)
        .tau(tau)
        .build()
        .expect("valid config");
    system.run_trace(&trace).expect("trace matches the session");
    let a = auc(&collect_scores(&classes, &system.predicted_scores()));
    assert!(a > 0.85, "Harvard-like trace AUC {a}");
}

#[test]
fn probed_measurements_match_label_training_closely() {
    // Training from noisy pathload/ping probes must land near training
    // from exact labels (the paper's cheap-measurement thesis).
    let dataset = hps3_like(90, 4);
    let tau = dataset.median();
    let classes = dataset.classify(tau);

    let mut exact_provider = ClassLabelProvider::new(classes.clone());
    let mut cfg = DmfsgdConfig::paper_defaults();
    cfg.seed = 4;
    let mut exact = SessionBuilder::from_config(cfg)
        .nodes(90)
        .build()
        .expect("valid config");
    exact
        .run(90 * 10 * 25, &mut exact_provider)
        .expect("provider covers the session");
    let auc_exact = auc(&collect_scores(&classes, &exact.predicted_scores()));

    let mut probe_provider = ProbedClassProvider::new(dataset.clone(), tau).expect("valid tau");
    let mut cfg2 = DmfsgdConfig::paper_defaults();
    cfg2.seed = 5;
    let mut probed = SessionBuilder::from_config(cfg2)
        .nodes(90)
        .build()
        .expect("valid config");
    probed
        .run(90 * 10 * 25, &mut probe_provider)
        .expect("provider covers the session");
    let auc_probed = auc(&collect_scores(&classes, &probed.predicted_scores()));

    assert!(
        auc_probed > auc_exact - 0.05,
        "probe-trained {auc_probed} too far below label-trained {auc_exact}"
    );
}

#[test]
fn accuracy_table_shape_on_all_three_datasets() {
    // Table 2's structure: accuracy > 80%, diagonal-dominant confusion.
    for (dataset, k, seed) in [
        (meridian_like(100, 6), 16usize, 6u64),
        (hps3_like(100, 7), 10, 7),
    ] {
        let tau = dataset.median();
        let classes = dataset.classify(tau);
        let mut provider = ClassLabelProvider::new(classes.clone());
        let mut cfg = DmfsgdConfig::paper_defaults().with_k(k);
        cfg.seed = seed;
        let mut system = SessionBuilder::from_config(cfg)
            .nodes(dataset.len())
            .build()
            .expect("valid config");
        system
            .run(dataset.len() * k * 25, &mut provider)
            .expect("provider covers the session");
        let cm = ConfusionMatrix::at_sign(&collect_scores(&classes, &system.predicted_scores()));
        assert!(
            cm.accuracy() > 0.8,
            "{}: accuracy {}",
            dataset.name,
            cm.accuracy()
        );
        // Table 2's diagonal: P(G|G) and P(B|B), in percent.
        let [[good_recall, _], [_, bad_recall]] = cm.as_percentages();
        assert!(
            good_recall > 70.0,
            "{}: G-recall {good_recall} %",
            dataset.name
        );
        assert!(
            bad_recall > 70.0,
            "{}: B-recall {bad_recall} %",
            dataset.name
        );
    }
}

#[test]
fn different_tau_portions_stay_usable() {
    // Figure 4c's claim at integration level.
    let dataset = meridian_like(90, 8);
    for portion in [0.25, 0.5, 0.75] {
        let tau = dataset.tau_for_good_portion(portion);
        let classes = dataset.classify(tau);
        let mut provider = ClassLabelProvider::new(classes.clone());
        let mut cfg = DmfsgdConfig::paper_defaults();
        cfg.seed = 9;
        let mut system = SessionBuilder::from_config(cfg)
            .nodes(90)
            .build()
            .expect("valid config");
        system
            .run(90 * 10 * 25, &mut provider)
            .expect("provider covers the session");
        let a = auc(&collect_scores(&classes, &system.predicted_scores()));
        assert!(a > 0.8, "portion {portion}: AUC {a}");
    }
}
