//! # dmfsgd — Decentralized Prediction of End-to-End Network Performance Classes
//!
//! A from-scratch Rust reproduction of Liao, Du, Geurts & Leduc,
//! *"Decentralized Prediction of End-to-End Network Performance
//! Classes"* (ACM CoNEXT 2011): the **DMFSGD** algorithms — matrix
//! completion of binary ("good"/"bad") pairwise performance classes by
//! fully decentralized stochastic gradient descent — together with the
//! datasets, simulator, evaluation criteria and a real UDP
//! deployment.
//!
//! This facade crate re-exports the public API of every workspace
//! member. Start with [`core`] (the algorithms), [`datasets`] (the
//! calibrated synthetic Harvard/Meridian/HP-S3 equivalents) and
//! [`eval`] (ROC/AUC, peer selection).
//!
//! ## Crate map
//!
//! | Re-export | Crate | Role |
//! |---|---|---|
//! | [`linalg`] | `dmf-linalg` | matrices, masks, SVD/QR, statistics |
//! | [`datasets`] | `dmf-datasets` | calibrated synthetic datasets and loaders |
//! | [`simnet`] | `dmf-simnet` | discrete-event network, probers, label errors |
//! | [`core`] | `dmf-core` | the DMFSGD algorithms, sessions and the simnet driver |
//! | [`eval`] | `dmf-eval` | ROC/AUC, PR, confusion, convergence, peer selection |
//! | [`proto`] | `dmf-proto` | binary wire protocol |
//! | [`ops`] | `dmf-ops` | metric handles, table-built snapshots, exporters, health policy, live quality |
//! | [`service`] | `dmf-service` | sharded, pipelined prediction service |
//! | [`agent`] | `dmf-agent` | real UDP deployment and long-running [`agent::Fleet`] |
//!
//! A narrative walk-through (experiment end-to-end, choosing the
//! `r`/`η`/`λ`/`k`/`τ` knobs, churn and snapshot/restore, reading the
//! outputs) lives in `docs/guide.md`; the paper-artifact-to-binary map
//! is in the repository `README.md`.
//!
//! ## Quick start
//!
//! The primary entry point is the [`Session`] API: a long-lived,
//! panic-free service population built with [`SessionBuilder`],
//! advanced through its transport's entry point, queried
//! incrementally, and persisted with [`Snapshot`]s. Every failure a caller can cause is
//! a typed [`DmfsgdError`].
//!
//! ```
//! use dmfsgd::core::provider::ClassLabelProvider;
//! use dmfsgd::datasets::rtt::meridian_like;
//! use dmfsgd::eval::{collect_scores, roc::auc};
//! use dmfsgd::{DmfsgdError, Session, Snapshot};
//!
//! // A 60-node RTT dataset calibrated to the Meridian median (56.4 ms).
//! let dataset = meridian_like(60, 7);
//! let tau = dataset.median();            // paper default threshold
//! let classes = dataset.classify(tau);   // ±1 class matrix
//!
//! // Build a session with the paper defaults (r=10, η=λ=0.1,
//! // logistic loss) — every knob validated, no panics.
//! let mut session = Session::builder()
//!     .nodes(dataset.len())
//!     .rank(10)
//!     .eta(0.1)
//!     .lambda(0.1)
//!     .k(10)
//!     .seed(7)
//!     .tau(tau)
//!     .build()?;
//!
//! // Train on ≈ 25×k measurements per node (matrix replay).
//! let mut provider = ClassLabelProvider::new(classes.clone());
//! session.run(60 * 10 * 25, &mut provider)?;
//!
//! // Incremental queries — no n² matrix materialized.
//! let class = session.predict_class(0, 1)?;
//! assert!(class == 1.0 || class == -1.0);
//! let best_peers = session.rank_neighbors(0, 3)?;
//! assert_eq!(best_peers.len(), 3);
//!
//! // Snapshot → restore round trips are bit-exact.
//! let snapshot = session.snapshot();
//! let restored = Session::restore(&Snapshot::from_json(&snapshot.to_json())?)?;
//! assert_eq!(restored.predicted_scores(), session.predicted_scores());
//!
//! // Offline evaluation over the full matrix.
//! let auc = auc(&collect_scores(&classes, &session.predicted_scores()));
//! assert!(auc > 0.85);
//! # Ok::<(), DmfsgdError>(())
//! ```
//!
//! Nodes can [`join`](Session::join) and [`leave`](Session::leave) a
//! running session (neighbor sets repair themselves). Each transport
//! has one entry point: matrix replay is [`Session::run`] (above), the
//! discrete-event simulator is
//! [`SimnetDriver::run_until`](core::runner::SimnetDriver::run_until),
//! and real UDP sockets are [`agent::UdpCluster::run`] or a
//! long-lived [`agent::Fleet`]. A [`Snapshot`] carries a population
//! from one to another: [`Session::restore`] resumes it under the
//! next, and [`agent::Fleet::checkpoint`] returns one from sockets.
//! To put a trained population behind a query surface, [`service`]
//! shards it behind a framed, pipelined wire protocol whose answers
//! are bit-identical to a single session's
//! (`examples/prediction_service.rs` is the end-to-end tour).
//!
//! Both serving layers are observable through [`ops`]: live metrics
//! (text/JSON exposition with a pinned schema), a rolling-AUC quality
//! gauge, and typed health verdicts — served in-band by the service
//! protocol and by [`agent::Fleet`], the long-running UDP deployment
//! with join/leave and live checkpointing (`examples/fleet_ops.rs`;
//! `docs/operations.md` is the operator runbook).

pub use dmf_agent as agent;
pub use dmf_core as core;
pub use dmf_datasets as datasets;
pub use dmf_eval as eval;
pub use dmf_linalg as linalg;
pub use dmf_ops as ops;
pub use dmf_proto as proto;
pub use dmf_service as service;
pub use dmf_simnet as simnet;

pub use dmf_core::{
    ConfigError, DmfsgdError, MembershipError, NodeId, Session, SessionBuilder, Snapshot,
    SnapshotError,
};
