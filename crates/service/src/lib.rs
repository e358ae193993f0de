//! # dmf-service — sharded, pipelined prediction serving
//!
//! DMFSGD (CoNEXT 2011) trains coordinates decentrally, but something
//! still has to *answer queries*: an overlay scheduler asking "which
//! class is the path from `i` to `j`?", a peer selector asking for
//! `i`'s best neighbors. This crate is that serving layer — one
//! DMFSGD population behind one query surface:
//!
//! * [`partition`] — partitioning of the node id space into
//!   contiguous per-shard ranges with `O(1)` ownership lookup.
//! * [`service`] — the lock-striped service ([`PredictionService`]):
//!   each shard is a lock stripe over its range's nodes, and every
//!   node's coordinates are published into one lock-free seqlocked
//!   [`EpochView`](dmf_core::EpochView), so predictions and rank
//!   queries never block on writers. An update reads the peer's reply
//!   coordinates from the view (the paper's Algorithm 1 wire shape);
//!   its submitter takes the owning stripe's lock, applies the step
//!   and publishes the slot before unlocking — the service owns no
//!   threads and buffers nothing. Answers and snapshots are
//!   **bit-identical** to a single-session oracle fed the same
//!   operations in the same order — the conformance suite pins this
//!   at several shard counts.
//! * [`protocol`] — the framed request/response wire format:
//!   `check`/`consume` buffered decoding over a byte stream
//!   ([`ControlFlow`](std::ops::ControlFlow)-based head inspection),
//!   reusing `dmf-proto`'s header conventions and CRC32C checksum
//!   (the SSE4.2 `crc32` instruction on x86_64, a table elsewhere).
//!   Every response echoes its request's sequence number.
//! * [`connection`] — request pipelining with bounded backpressure:
//!   strictly in-order execution (deterministic response streams),
//!   a bounded admission window, and immediate typed
//!   [`ErrorCode::Overloaded`] rejection beyond it.
//! * [`client`] — sequence allocation, response matching, and the
//!   fold from remote errors into [`DmfsgdError`](dmf_core::DmfsgdError)
//!   (overload → `Transport`).
//! * [`loopback`] — an in-memory duplex byte pipe so benches and
//!   examples run the full wire path without sockets: a reader polls
//!   briefly before it parks, a send wakes only parked readers, and
//!   bytes cross in one bulk copy.
//! * [`metrics`] — the service's observability surface
//!   ([`ServiceMetrics`]): request/error/overload counters, latency
//!   histogram, per-shard update counters, a live rolling-AUC quality
//!   window and declared health rules, served over the protocol's
//!   `Metrics`/`Health` request types. Documented as an operator
//!   contract in `docs/operations.md`.
//!
//! # Position in the workspace
//!
//! Depends on `dmf-core` (sessions, views, typed errors), `dmf-proto`
//! (checksum, decode-error vocabulary) and `dmf-ops` (metric
//! registry, health semantics). Downstream, the repo benchmark
//! (`benchmark/`, workloads `serve-read` and `serve-write`) load-tests
//! it and the facade re-exports it as `dmfsgd::service`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[deny(missing_docs)]
pub mod client;
#[deny(missing_docs)]
pub mod connection;
#[deny(missing_docs)]
pub mod loopback;
#[deny(missing_docs)]
pub mod metrics;
#[deny(missing_docs)]
pub mod partition;
#[deny(missing_docs)]
pub mod protocol;
#[deny(missing_docs)]
pub mod service;

pub use client::ServiceClient;
pub use connection::{serve_loopback, ServerConnection};
pub use loopback::{loopback_pair, LoopbackEndpoint};
pub use metrics::{RequestKind, ServiceMetrics, DEFAULT_QUALITY_WINDOW};
pub use partition::Partition;
pub use protocol::{
    ErrorCode, MetricsFormat, ProtocolDecode, ProtocolEncode, Request, Response, CHECKSUM_LEN,
    HEADER_LEN,
};
pub use service::{PredictionService, WorkerStatsSnapshot};
