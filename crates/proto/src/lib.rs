//! # dmf-proto
//!
//! Binary wire protocol for DMFSGD probe/coordinate exchange.
//!
//! The paper's protocol needs exactly four datagrams (its Algorithms 1
//! and 2); this crate defines their on-the-wire form so the UDP
//! deployment in `dmf-agent` — and any future real deployment — has a
//! versioned, checksummed, bounds-checked codec instead of ad-hoc
//! serialization.
//!
//! Two wire versions share one frame, `magic | version | type |
//! payload_len | payload | CRC32C checksum`; negotiation is the
//! version byte, dispatched by [`decode_any`]. The [`frame`] module
//! writes and verifies that frame for both, and for the `dmf-service`
//! query protocol: its table lays out all three. **v1** carries
//! coordinates as a `u16` rank followed by `rank` f64 values. **v2**
//! ([`MessageV2`]) replaces raw vectors with quantized
//! [`delta::CoordUpdate`] blocks — binary16 keyframes or `i8` deltas
//! against the receiver's last-acknowledged state — framed with
//! per-stream sequence numbers; per-peer [`EncoderContext`] /
//! [`DecoderContext`] pairs track baselines, detect gaps, and fall
//! back to keyframes so datagram loss degrades to extra bytes, never
//! to wrong coordinates. The [`fault`] module provides the seeded
//! drop/duplicate/reorder/truncate/bit-flip injector that proves it.
//!
//! Rank is bounded by [`codec::MAX_RANK`] (blocks by
//! [`delta::MAX_BLOCK`]) so a hostile datagram cannot make a node
//! allocate unbounded memory — malformed input of any kind produces a
//! typed [`codec::DecodeError`], never a panic.
//!
//! # Position in the workspace
//!
//! A leaf crate: it depends only on the vendored `bytes` and knows
//! nothing about datasets or algorithms — messages carry plain
//! nonces, rates, labels and coordinate blocks. Its main consumer is
//! `dmf-agent`, whose UDP agents speak this format on the wire;
//! `dmf-core`'s simnet driver can route coordinate exchanges through
//! it for deterministic byte accounting, and `dmf-bench`
//! micro-benchmarks [`encode`]/[`decode`] throughput.
//!
//! The crate's one `unsafe` operation is the call from
//! [`frame::checksum`] into its SSE4.2 tier on x86_64, made only after
//! `is_x86_feature_detected!("sse4.2")` found the instruction set;
//! every other target, and every x86_64 CPU without SSE4.2, runs the
//! portable tier.

// `deny` rather than `forbid`: `frame::checksum` carries the crate's
// only `#[allow(unsafe_code)]`, scoped to the call into its `sse4.2`
// tier behind runtime feature detection (the intrinsics inside that
// tier are safe to call there).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod context;
pub mod delta;
pub mod fault;
pub mod frame;
pub mod message;
pub mod message_v2;

pub use codec::{
    checksum, decode, decode_any, decode_v2, encode, encode_v2, DecodeError, WireMessage,
    WireVersion,
};
pub use context::{Ack, ContextError, DecoderContext, EncoderContext};
pub use delta::{Block, CoordUpdate, UpdatePayload};
pub use fault::{FaultInjector, FaultSpec};
pub use message::Message;
pub use message_v2::MessageV2;
