//! Pins the `dmfsgd::` facade surface: every re-exported workspace
//! crate must stay reachable through the facade, the root-level
//! session API (`Session`, `SessionBuilder`, `Snapshot`,
//! `DmfsgdError`) must stay exported, and the quick-start
//! training path must keep its accuracy. A rename or dropped
//! re-export in `src/lib.rs` fails here before any downstream user
//! notices.

use dmfsgd::agent::{ClusterConfig, ClusterOutcome, MeasurementOracle, UdpCluster};
use dmfsgd::core::provider::ClassLabelProvider;
use dmfsgd::core::runner::SimnetDriver;
use dmfsgd::datasets::rtt::meridian_like;
use dmfsgd::datasets::{Dataset, Metric};
use dmfsgd::eval::{collect_scores, roc::auc};
use dmfsgd::linalg::{Mask, Matrix};
use dmfsgd::proto::{decode, encode, Message};
use dmfsgd::simnet::{EventQueue, NeighborSets};
use dmfsgd::{
    ConfigError, DmfsgdError, MembershipError, NodeId, Session, SessionBuilder, Snapshot,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The quick-start path from the crate docs, via facade paths only:
/// generate a dataset, build a session, train, evaluate AUC.
#[test]
fn facade_quick_start_trains_above_auc_080() {
    let dataset = meridian_like(60, 7);
    let tau = dataset.median();
    let classes = dataset.classify(tau);

    let mut provider = ClassLabelProvider::new(classes.clone());
    let mut session = Session::builder()
        .nodes(dataset.len())
        .seed(7)
        .tau(tau)
        .build()
        .expect("paper defaults are valid");
    session
        .run(60 * 10 * 25, &mut provider)
        .expect("provider covers the session");

    let a = auc(&collect_scores(&classes, &session.predicted_scores()));
    assert!(a > 0.8, "facade quick-start AUC {a} must exceed 0.8");
}

/// The root-level session surface: builder, typed errors, membership,
/// snapshots, queries and matrix replay, all via facade paths.
#[test]
fn session_surface_is_pinned_at_the_facade_root() {
    // Builder + typed ConfigError.
    let err: ConfigError = SessionBuilder::new().nodes(3).k(10).build().unwrap_err();
    assert!(matches!(err, ConfigError::TooFewNodes { n: 3, k: 10 }));
    let mut session = Session::builder()
        .nodes(24)
        .rank(8)
        .eta(0.1)
        .lambda(0.1)
        .k(6)
        .seed(1)
        .build()
        .expect("valid");

    // Membership + typed MembershipError wrapped in DmfsgdError.
    let departed: NodeId = 5;
    session.leave(departed).expect("first leave");
    let err: DmfsgdError = session.leave(departed).unwrap_err();
    assert!(matches!(
        err,
        DmfsgdError::Membership(MembershipError::Departed { id: 5 })
    ));
    let rejoined = session.join().expect("rejoin");
    assert_eq!(rejoined, departed);

    // Incremental queries.
    let score = session.raw_score(0, 1).expect("alive pair");
    assert_eq!(
        session.predict_class(0, 1).expect("alive pair"),
        if score >= 0.0 { 1.0 } else { -1.0 }
    );
    assert_eq!(session.rank_neighbors(0, 4).expect("alive").len(), 4);

    // Snapshot round trip through JSON.
    let snapshot: Snapshot = session.snapshot();
    let restored =
        Session::restore(&Snapshot::from_json(&snapshot.to_json()).expect("parse")).expect("valid");
    assert_eq!(restored.predicted_scores(), session.predicted_scores());

    // Matrix replay: every applied measurement is counted.
    let d = meridian_like(24, 1);
    let mut provider = ClassLabelProvider::new(d.classify(d.median()));
    let applied = session.run(480, &mut provider).expect("run");
    assert!(applied > 0);
    assert_eq!(applied, session.measurements_used());
}

/// Touches one load-bearing item in each re-exported crate so the
/// whole facade is compile-time pinned.
#[test]
fn every_reexported_crate_is_reachable() {
    let mut rng = ChaCha8Rng::seed_from_u64(1);

    // linalg
    let m = Matrix::from_fn(4, 4, |i, j| (i + j) as f64);
    assert_eq!(m.rows(), 4);
    let mask = Mask::full_off_diagonal(4);
    assert_eq!(mask.count_known(), 12);

    // datasets
    let dataset = meridian_like(16, 3);
    assert_eq!(dataset.metric, Metric::Rtt);
    assert!(dataset.median() > 0.0);

    // simnet
    let neighbors = NeighborSets::random(16, 4, &mut rng);
    assert_eq!(neighbors.neighbors(0).len(), 4);
    let mut queue: EventQueue<u32> = EventQueue::new();
    queue.schedule_at(1.0, 42);
    assert_eq!(queue.pop(), Some((1.0, 42)));

    // core and agent: each transport's entry point stays nameable.
    let session = Session::builder()
        .nodes(16)
        .k(4)
        .tau(dataset.median())
        .build()
        .expect("valid");
    assert_eq!(session.config().rank, 10);
    let _simnet_front_end: SimnetDriver = SimnetDriver::new(
        &session,
        dataset.clone(),
        dmfsgd::simnet::NetConfig::default(),
    )
    .expect("valid driver");
    let _udp_entry: fn(Dataset, f64, ClusterConfig) -> Result<ClusterOutcome, DmfsgdError> =
        UdpCluster::run;

    // eval
    let classes = dataset.classify(dataset.median());
    let scores = collect_scores(&classes, &Matrix::zeros(16, 16));
    assert!(!scores.is_empty());

    // proto
    let wire = encode(&Message::RttProbe { nonce: 99 });
    assert_eq!(decode(&wire), Ok(Message::RttProbe { nonce: 99 }));

    // agent
    let tau = dataset.median();
    let oracle = MeasurementOracle::new(dataset, tau, 5).expect("valid tau");
    let label = oracle.measure_class(0, 1).expect("off-diagonal measurable");
    assert!(label == 1.0 || label == -1.0);

    // service
    let partition = dmfsgd::service::Partition::new(16, 4).expect("valid partition");
    assert_eq!(partition.owner(0), 0);
    let svc =
        dmfsgd::service::PredictionService::build(*session.config(), 16, 4).expect("valid service");
    svc.update_rtt(0, 1, 1.0).expect("routed update");
    assert!(svc.predict(0, 1).expect("served prediction").is_finite());
}
