//! # dmf-simnet
//!
//! Discrete-event network simulation substrate for the DMFSGD
//! reproduction.
//!
//! The paper evaluates its decentralized protocol by replaying
//! measurements in simulation; this crate makes the simulation explicit
//! and reusable:
//!
//! * [`event`] — a deterministic future-event list (time-ordered,
//!   FIFO-stable for ties).
//! * [`net`] — [`net::SimNet`], the one link model: a message-passing
//!   network whose one-way delays derive from an RTT ground truth or
//!   a delay function, with jitter, optional packet loss (fault
//!   injection in the spirit of the smoltcp examples), partitions and
//!   stragglers, over islands of one RNG stream each sharing one event
//!   queue, and one delay function that a scenario swaps mid-run. Its
//!   own constructors build the dense layout (one island); only a
//!   measured RTT truth is an `n × n` table, which its function owns —
//!   any other net stores no per-pair state.
//! * [`probe`] — measurement tools behind one
//!   [`probe::probed_class`]: a ping-style RTT probe thresholded at
//!   `τ`, and a pathload-style binary ABW class probe (UDP train at
//!   rate `τ`: congestion or not) (paper §3.1–3.2).
//! * [`shard`] — [`shard::ShardedSimNet`], the k-island layout of the
//!   same struct (two constructors and a `Deref`), for 10k–100k-node
//!   populations where one dense delay table would not fit: it
//!   evaluates the caller's delay function per intra-island leg.
//! * [`errors`] — the four erroneous-label models of §6.3 plus the
//!   δ/p calibration that reproduces Table 3.
//! * [`neighbors`] — random `k`-neighbor sets (the Vivaldi-style
//!   architecture of §5.3) and the disjoint peer sets of §6.4.
//!
//! # Position in the workspace
//!
//! Sits between [`dmf_datasets`] (ground truth the probers measure —
//! one-way delays derive from a [`dmf_datasets::Dataset`]) and
//! `dmf-core`, whose `runner` module drives the DMFSGD node state
//! machines through [`SimNet`] message passing. `dmf-agent` reuses
//! the same [`probe`] instruments against its measurement oracle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod errors;
pub mod event;
pub mod neighbors;
pub mod net;
pub mod probe;
pub mod shard;

pub use event::{EventQueue, Lane, SimTime};
pub use neighbors::NeighborSets;
pub use net::{Delivery, NetConfig, SimNet};
pub use shard::ShardedSimNet;
