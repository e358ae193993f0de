//! Integration tests for the service-grade `Session` API: panic-free
//! error handling end to end, churn regression (AUC recovers past 0.8
//! after 20% turnover), snapshot/restore across front-ends.

use dmfsgd::core::provider::ClassLabelProvider;
use dmfsgd::core::runner::SimnetDriver;
use dmfsgd::datasets::rtt::meridian_like;
use dmfsgd::eval::{collect_scores, roc::auc};
use dmfsgd::simnet::NetConfig;
use dmfsgd::{ConfigError, DmfsgdError, MembershipError, Session, Snapshot, SnapshotError};

fn auc_of(session: &Session, classes: &dmfsgd::datasets::ClassMatrix) -> f64 {
    auc(&collect_scores(classes, &session.predicted_scores()))
}

/// The headline churn regression: 20% of a 100-node population leaves,
/// training continues, the slots rejoin cold, and accuracy must climb
/// back above 0.8 AUC.
#[test]
fn auc_recovers_above_080_after_20_percent_turnover() {
    let n = 100;
    let dataset = meridian_like(n, 31);
    let tau = dataset.median();
    let classes = dataset.classify(tau);
    let mut provider = ClassLabelProvider::new(classes.clone());
    let mut session = Session::builder()
        .nodes(n)
        .k(10)
        .seed(31)
        .tau(tau)
        .build()
        .expect("valid config");

    session.run(n * 10 * 20, &mut provider).expect("warmup");
    let steady = auc_of(&session, &classes);
    assert!(steady > 0.85, "steady-state AUC {steady}");

    // 20% turnover: every 5th node leaves…
    for id in (0..n).step_by(5) {
        session.leave(id).expect("leave");
    }
    assert_eq!(session.num_alive(), n - n / 5);
    session
        .run(n * 10 * 5, &mut provider)
        .expect("survivor run");

    // …and the slots are re-admitted with cold coordinates.
    for _ in 0..n / 5 {
        session.join().expect("rejoin");
    }
    assert_eq!(session.num_alive(), n);
    let cold = auc_of(&session, &classes);

    session.run(n * 10 * 25, &mut provider).expect("recovery");
    let recovered = auc_of(&session, &classes);
    assert!(
        recovered > 0.8,
        "AUC must recover past 0.8 after 20% turnover: cold {cold}, recovered {recovered}"
    );
    assert!(
        recovered > cold,
        "recovery training must improve on the cold rejoin state ({cold} → {recovered})"
    );
}

/// No public session API panics on bad caller input — each failure
/// mode is a typed `DmfsgdError` variant, reachable via facade paths.
#[test]
fn every_failure_mode_is_a_typed_error() {
    // Construction.
    assert!(matches!(
        Session::builder().nodes(5).k(10).build(),
        Err(ConfigError::TooFewNodes { n: 5, k: 10 })
    ));
    assert!(matches!(
        Session::builder().nodes(30).eta(-1.0).build(),
        Err(ConfigError::Eta { .. })
    ));
    assert!(matches!(
        Session::builder().nodes(30).tau(0.0).build(),
        Err(ConfigError::Tau { .. })
    ));

    let d = meridian_like(30, 32);
    let mut session = Session::builder()
        .nodes(30)
        .k(6)
        .seed(32)
        .build()
        .expect("valid config");

    // Queries.
    assert!(matches!(
        session.predict(0, 0),
        Err(DmfsgdError::Membership(MembershipError::SelfPair { id: 0 }))
    ));
    assert!(matches!(
        session.predict(0, 999),
        Err(DmfsgdError::Membership(MembershipError::UnknownNode { .. }))
    ));

    // Membership.
    session.leave(3).expect("leave");
    assert!(matches!(
        session.leave(3),
        Err(DmfsgdError::Membership(MembershipError::Departed { id: 3 }))
    ));
    assert!(matches!(
        session.predict(3, 4),
        Err(DmfsgdError::Membership(MembershipError::Departed { id: 3 }))
    ));

    // Provider mismatch.
    let small = meridian_like(10, 33);
    let mut provider = ClassLabelProvider::new(small.classify(small.median()));
    assert!(matches!(
        session.run(5, &mut provider),
        Err(DmfsgdError::Membership(
            MembershipError::ProviderMismatch { .. }
        ))
    ));

    // The simulated network classifies raw RTTs: it needs τ.
    assert!(matches!(
        SimnetDriver::new(&session, d.clone(), NetConfig::default()),
        Err(DmfsgdError::Config(ConfigError::MissingTau))
    ));

    // Snapshots: corrupt JSON parses or restores to a typed error.
    assert!(matches!(
        Snapshot::from_json("not json at all"),
        Err(SnapshotError::Parse(_))
    ));
    let json = session.snapshot().to_json();
    let tampered = json.replace("\"alive\":[", "\"alive\":[9999,");
    let snap = Snapshot::from_json(&tampered).expect("syntactically fine");
    assert!(matches!(
        Session::restore(&snap),
        Err(DmfsgdError::Snapshot(SnapshotError::Corrupt(_)))
    ));
}

/// A session trained by matrix replay, snapshotted, restored, and then
/// advanced over the *simulated network* keeps learning: a snapshot
/// carries a population from one transport's entry point to another.
#[test]
fn snapshot_bridges_front_ends() {
    let n = 40;
    let dataset = meridian_like(n, 34);
    let tau = dataset.median();
    let classes = dataset.classify(tau);
    let mut session = Session::builder()
        .nodes(n)
        .k(10)
        .seed(34)
        .tau(tau)
        .build()
        .expect("valid config");

    // Warm up by matrix replay.
    let mut provider = ClassLabelProvider::new(classes.clone());
    session
        .run(n * 10 * 10, &mut provider)
        .expect("oracle warmup");
    let warm = auc_of(&session, &classes);

    // Checkpoint through JSON, restore, continue over the simulated
    // network.
    let snap = Snapshot::from_json(&session.snapshot().to_json()).expect("roundtrip");
    let mut restored = Session::restore(&snap).expect("restore");
    let mut simnet = SimnetDriver::new(&restored, dataset, NetConfig::default())
        .expect("valid driver")
        .with_probe_interval(0.5)
        .expect("positive interval");
    simnet.run_until(&mut restored, 120.0).expect("simnet run");

    let continued = auc_of(&restored, &classes);
    assert!(
        continued > warm - 0.05,
        "simnet continuation must preserve oracle progress: {warm} → {continued}"
    );
    assert!(
        restored.measurements_used() > session.measurements_used(),
        "the restored session must have kept training"
    );
}
