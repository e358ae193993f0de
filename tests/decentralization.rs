//! Integration: the three execution substrates — oracle-driven
//! simulation, event-driven message simulation, and real UDP agents —
//! must all learn the same structure.

use dmfsgd::core::provider::ClassLabelProvider;
use dmfsgd::core::runner::SimnetRunner;
use dmfsgd::core::{DmfsgdConfig, Session, SessionBuilder};
use dmfsgd::datasets::rtt::meridian_like;
use dmfsgd::eval::{collect_scores, roc::auc};
use dmfsgd::simnet::NetConfig;

/// Fraction of ordered pairs on which an oracle-trained session and a
/// simnet-trained runner predict the same class.
fn sign_agreement(session: &Session, runner: &SimnetRunner) -> f64 {
    let n = session.len().min(runner.nodes().len());
    let mut agree = 0usize;
    let mut total = 0usize;
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            total += 1;
            let oracle = session.raw_score(i, j).expect("live pair");
            if (oracle >= 0.0) == (runner.raw_score(i, j) >= 0.0) {
                agree += 1;
            }
        }
    }
    agree as f64 / total as f64
}

#[test]
fn oracle_and_simnet_training_agree() {
    let dataset = meridian_like(50, 1);
    let tau = dataset.median();
    let classes = dataset.classify(tau);

    let mut provider = ClassLabelProvider::new(classes.clone());
    let mut cfg = DmfsgdConfig::paper_defaults();
    cfg.seed = 1;
    let mut oracle_system = SessionBuilder::from_config(cfg)
        .nodes(50)
        .build()
        .expect("valid config");
    oracle_system
        .run(50 * 10 * 30, &mut provider)
        .expect("provider covers the session");
    let auc_oracle = auc(&collect_scores(&classes, &oracle_system.predicted_scores()));

    let mut runner = SimnetRunner::new(dataset, tau, cfg, NetConfig::default())
        .expect("valid config")
        .with_probe_interval(0.5)
        .expect("positive interval");
    runner.run_for(200.0).expect("positive duration");
    let auc_simnet = auc(&collect_scores(&classes, &runner.predicted_scores()));

    assert!(auc_oracle > 0.85, "oracle AUC {auc_oracle}");
    assert!(
        auc_simnet > auc_oracle - 0.08,
        "simnet AUC {auc_simnet} lags oracle {auc_oracle}"
    );
    // Beyond matching AUC, the two front-ends must agree pair by pair
    // on most class predictions — they learned the same structure,
    // not merely structures of equal quality.
    let agreement = sign_agreement(&oracle_system, &runner);
    assert!(
        agreement > 0.75,
        "oracle/simnet per-pair sign agreement {agreement}"
    );
}

#[test]
fn message_loss_degrades_gracefully() {
    // 40% datagram loss: fewer completed measurements, similar final
    // structure given enough simulated time.
    let dataset = meridian_like(40, 2);
    let tau = dataset.median();
    let classes = dataset.classify(tau);
    let cfg = DmfsgdConfig::paper_defaults();

    let run = |loss: f64, seconds: f64| {
        let mut runner = SimnetRunner::new(
            dataset.clone(),
            tau,
            cfg,
            NetConfig {
                loss_probability: loss,
                seed: 3,
                ..NetConfig::default()
            },
        )
        .expect("valid config")
        .with_probe_interval(0.5)
        .expect("positive interval");
        runner.run_for(seconds).expect("positive duration");
        (
            auc(&collect_scores(&classes, &runner.predicted_scores())),
            runner.stats(),
        )
    };

    let (auc_clean, stats_clean) = run(0.0, 150.0);
    let (auc_lossy, stats_lossy) = run(0.4, 250.0);
    assert!(
        stats_lossy.measurements_completed < stats_clean.measurements_completed,
        "loss must cost measurements"
    );
    assert!(auc_clean > 0.8);
    assert!(
        auc_lossy > 0.75,
        "40% loss should not break convergence: AUC {auc_lossy}"
    );
}

#[test]
fn udp_cluster_matches_oracle_training() {
    use dmfsgd::agent::{ClusterConfig, UdpCluster};
    use std::time::Duration;

    let dataset = meridian_like(20, 4);
    let tau = dataset.median();
    let classes = dataset.classify(tau);
    let outcome = UdpCluster::run(
        dataset,
        tau,
        ClusterConfig {
            duration: Duration::from_millis(2000),
            probe_interval: Duration::from_millis(2),
            ..ClusterConfig::default()
        },
    )
    .expect("cluster");
    let a = auc(&collect_scores(&classes, &outcome.predicted_scores()));
    assert!(a > 0.75, "UDP cluster AUC {a}");
}
