//! # dmf-core — DMFSGD
//!
//! The primary contribution of *"Decentralized Prediction of End-to-End
//! Network Performance Classes"* (Liao, Du, Geurts, Leduc — CoNEXT
//! 2011): **D**ecentralized **M**atrix **F**actorization by
//! **S**tochastic **G**radient **D**escent.
//!
//! Every node `i` keeps two rank-`r` coordinate vectors `u_i` and
//! `v_i`; the predicted performance measure from `i` to `j` is
//! `x̂_ij = u_i · v_j`, and for class-based prediction its sign is the
//! predicted class. Nodes probe only `k` random neighbors; each
//! measurement triggers a constant-time local SGD step — no central
//! server, no landmarks, no materialized matrix.
//!
//! The primary entry point is the [`session`] module: build a
//! long-lived [`Session`] with [`SessionBuilder`] (panic-free, typed
//! [`DmfsgdError`]s), advance it through its transport's one entry
//! point, query it incrementally, and persist it with [`Snapshot`]s.
//!
//! Crate layout:
//!
//! * [`loss`] — the L2 / hinge / logistic loss functions and their
//!   (sub)gradients (paper eqs. 14–19), plus the ordinal loss over `C`
//!   ordered classes: the paper's §7 future work, trained by the same
//!   session and the same SGD step, and the binary logistic loss at
//!   `C = 2`.
//! * [`coords`] — node coordinates and the `u · v` predictor.
//! * [`update`] — the SGD update rule shared by eqs. 9, 10, 12, 13.
//! * [`node`] — per-node protocol state machines: Algorithm 1 (RTT,
//!   symmetric, sender-inferred) and Algorithm 2 (ABW, asymmetric,
//!   target-inferred).
//! * [`config`] — hyper-parameters with the paper's defaults
//!   (`r = 10`, `η = 0.1`, `λ = 0.1`, logistic loss).
//! * [`error`] — the [`DmfsgdError`] hierarchy: no public constructor
//!   or method of the session layer panics on user input.
//! * [`provider`] — measurement sources: ground-truth class labels
//!   (optionally error-injected), raw quantities, simulated
//!   ping/pathload probes, and quantile classes `1..=C` for the
//!   ordinal loss.
//! * [`session`] — the service API: [`Session`], [`SessionBuilder`],
//!   dynamic membership (join/leave/churn), incremental queries, and
//!   matrix replay ([`Session::run`], [`Session::run_trace`]).
//! * [`snapshot`] — serializable checkpoints; restore is
//!   bit-identical to never having stopped.
//! * [`epoch`] — the read half of the session's read/write split
//!   (the shard-serving primitive behind `dmf-service`): an
//!   [`EpochView`] lays the published coordinates out as per-slot
//!   seqlocks, answering [`Session`]'s queries bit-identically while
//!   reader threads never take a lock (and never see a torn slot)
//!   while writers — one at a time per slot — republish the slots
//!   they own.
//! * [`runner`] — the simulated-network front-end
//!   ([`runner::SimnetDriver`]): the same node logic driven through
//!   `dmf-simnet` message passing with latency and loss,
//!   demonstrating the fully decentralized operation — one driver
//!   for both of `SimNet`'s layouts, the dense one and the k-island
//!   one that takes RTT to 100 k nodes.
//! * [`endpoint`] — Algorithms 1 and 2 as datagrams: the one
//!   [`Endpoint`] both the simulator's wire mode and the UDP agents of
//!   `dmf-agent` run, each supplying only its transport.
//!
//! Each transport advances the session through one entry point:
//! [`Session::run`] replays the paper's evaluation schedule with zero
//! transport cost, [`SimnetDriver::run_until`] pushes every protocol
//! step through [`dmf_simnet::SimNet`] with latency and loss, and
//! `dmf_agent::UdpCluster::run` (or a long-lived `dmf_agent::Fleet`)
//! does the same over real sockets. A [`Snapshot`], or
//! [`Session::import_nodes`] for nodes trained elsewhere, carries a
//! population from one to the next — same session, different
//! substrate.
//!
//! # Position in the workspace
//!
//! Depends on [`dmf_linalg`] (coordinates, score matrices),
//! [`dmf_datasets`] (training data, [`dmf_datasets::ClassMatrix`]),
//! [`dmf_simnet`] (the simulated network under [`runner`], the
//! probe instruments behind [`provider`]) and [`dmf_proto`] (wire
//! decode errors wrapped into [`DmfsgdError`]). Downstream,
//! `dmf-eval` scores its predictions, `dmf-agent` deploys the node
//! logic over UDP, and `dmf-bench` sweeps its hyper-parameters and
//! solves the same objective centrally for the ablation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod coords;
#[deny(missing_docs)]
pub mod endpoint;
#[deny(missing_docs)]
pub mod epoch;
#[deny(missing_docs)]
pub mod error;
pub mod loss;
pub mod node;
pub mod provider;
pub mod runner;
#[deny(missing_docs)]
pub mod session;
#[doc(hidden)]
pub mod sharded;
#[deny(missing_docs)]
pub mod snapshot;
pub mod update;

pub use config::{DmfsgdConfig, PredictionMode, SgdParams};
pub use coords::{CoordVec, Coordinates};
pub use endpoint::{Endpoint, WireStats};
pub use epoch::EpochView;
pub use error::{ConfigError, DmfsgdError, MembershipError, NodeId, SnapshotError};
pub use loss::Loss;
pub use node::DmfsgdNode;
pub use runner::{ExchangeFidelity, SimnetDriver, SimnetRunner};
pub use session::{Session, SessionBuilder};
#[doc(hidden)]
pub use sharded::ShardedSimnetDriver;
pub use snapshot::Snapshot;

#[cfg(test)]
mod multiclass;
