//! # dmf-agent
//!
//! Real UDP deployment of DMFSGD: one OS thread and one
//! `std::net::UdpSocket` per agent, speaking the `dmf-proto` wire
//! format. This is the "deploy one such system" step the paper leaves
//! as future work (§7), demonstrated on localhost.
//!
//! What is real here: sockets, datagrams, the codec, concurrency,
//! probe scheduling, loss tolerance (UDP gives no delivery guarantee
//! and the agents don't need one). What is simulated: the *measured
//! value* itself — localhost paths are homogeneous, so probes consult
//! a shared [`oracle::MeasurementOracle`] backed by a synthetic ground
//! truth (the `dmf-datasets` crate docs give the substitution
//! rationale).
//!
//! * [`oracle`] — the ground-truth measurement oracle.
//! * [`agent`] — the per-node event loop: a UDP transport under
//!   [`dmf_core::endpoint`], the one Algorithm 1/2 datagram handler the
//!   simulator's wire mode runs too. The agent supplies sockets, peer
//!   addresses, nonce-and-sender matching with retries and eviction,
//!   the oracle's measurements and per-peer v2 contexts.
//! * [`transport`] — the [`Transport`] abstraction and
//!   [`FaultySocket`], a UDP socket wrapped in `dmf_proto`'s seeded
//!   fault injector (drop / duplicate / reorder / truncate /
//!   bit-flip) for deterministic loss-hardening tests.
//! * [`cluster`] — spawn-N-agents harness used by tests, examples and
//!   benchmarks.
//! * [`fleet`] — [`Fleet`], the long-running operational deployment:
//!   live join/leave of individual agents, a rolling fault-model
//!   swap, stop-the-world checkpoints, and the fleet-wide
//!   metrics/health surface.
//! * [`metrics`] — the agent-side observability surface: the
//!   [`AgentStats`] metric table, a one-shot exposition dump, and the
//!   live per-slot mirror ([`metrics::AgentMetricsSlot`]) feeding the
//!   fleet's counters and shared rolling-AUC quality window.
//!
//! Real sockets have two entry points: [`UdpCluster::run`] (launch,
//! run for a wall-clock budget, shut down) and a long-lived [`Fleet`].
//! Where matrix replay advances a [`dmf_core::Session`] through
//! `Session::run` and the simulated network through
//! `SimnetDriver::run_until`, a fleet's population comes back into a
//! session through [`Fleet::checkpoint`]: the [`dmf_core::Snapshot`]
//! it returns restores anywhere a session does.
//!
//! # Position in the workspace
//!
//! The deployment tip of the DAG: node state machines and their
//! datagram protocol come from [`dmf_core`], the wire format from
//! [`dmf_proto`], probe instruments from [`dmf_simnet::probe`], ground
//! truth from [`dmf_datasets`], outcome scoring from [`dmf_eval`], and
//! the metric/health vocabulary from [`dmf_ops`]. Nothing depends on
//! this crate — it exists to prove the algorithm runs (and can be
//! operated) on real sockets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod cluster;
#[deny(missing_docs)]
pub mod fleet;
#[deny(missing_docs)]
pub mod metrics;
pub mod oracle;
pub mod transport;

pub use agent::{run_agent, AgentHandle, AgentStats};
pub use cluster::{ClusterConfig, ClusterOutcome, UdpCluster};
pub use fleet::Fleet;
pub use metrics::{stats_snapshot, AgentMetricsSlot, StatMetric, STAT_METRICS};
pub use oracle::MeasurementOracle;
pub use transport::{FaultySocket, Transport};
