//! Framed request/response protocol for the prediction service.
//!
//! The probe protocol in `dmf-proto` is datagram-shaped: one message
//! per packet, decoded all-or-nothing. A serving connection is
//! stream-shaped instead — requests arrive back to back in one byte
//! stream and the decoder must know, *before* parsing, whether a full
//! frame has buffered. This module follows the buffered-protocol
//! idiom: [`ProtocolDecode::check`] inspects the buffer head and
//! returns [`ControlFlow::Continue`] with the total length still
//! needed (read more and re-check) or [`ControlFlow::Break`] with the
//! length of the complete frame, after which
//! [`ProtocolDecode::consume`] parses exactly those bytes.
//!
//! Both probe protocol versions and this one are
//! [`dmf_proto::frame`] formats with one parser, so one hostile-input
//! analysis covers all three. This one is [`frame::SERVICE`]: magic
//! `0xD3F6` (distinct from the probe protocol's
//! `0xD3F5` so a misrouted datagram fails fast), a `u32` payload
//! length and the frame's CRC32C trailer, which detects every error
//! burst of at most 32 bits (a peer built before the trailer changed
//! from FNV-1a is refused with [`DecodeError::BadChecksum`]). Every
//! request and response payload begins with a `u32` sequence number:
//! responses are tagged with the sequence of the request they answer,
//! which is what makes pipelining safe — a client with 64 requests in
//! flight matches answers by sequence, not by arrival order (though
//! the server does answer in order).
//!
//! Malformed input of any kind produces a typed
//! [`DecodeError`] — never a panic, and never
//! an allocation larger than 1 MiB (`MAX_PAYLOAD`).

use dmf_ops::{DegradedReason, Health};
use dmf_proto::frame::{self, SERVICE};
use dmf_proto::DecodeError;
use std::ops::ControlFlow;

/// Fixed frame header length: magic + version + type + payload_len.
pub const HEADER_LEN: usize = SERVICE.header_len();

/// Trailing checksum length.
pub const CHECKSUM_LEN: usize = frame::CHECKSUM_LEN;

/// Upper bound on a frame's payload (1 MiB). A hostile length field
/// cannot make a peer buffer more than this per frame (snapshots are
/// the largest legitimate payload; see [`Response::SnapshotData`]).
const MAX_PAYLOAD: usize = SERVICE.max_payload();

/// Upper bound on the entry count of a [`Response::Ranked`] frame —
/// decoding rejects larger counts before allocating.
const MAX_RANKED: usize = 4096;

/// Upper bound on the reason count of a [`Response::HealthStatus`]
/// frame (the health rules define three reasons; the bound leaves
/// room without letting a hostile count allocate).
const MAX_HEALTH_REASONS: usize = 16;

/// Buffered protocol encoding: append one complete frame to `buf`.
///
/// Encoding is infallible (requests and responses are constructed
/// from already-validated values) and allocation-free beyond the
/// output buffer itself.
pub trait ProtocolEncode {
    /// Appends the encoded frame to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);
}

/// Buffered protocol decoding over a byte stream.
///
/// [`check`](Self::check) is called first. If it returns
/// [`ControlFlow::Continue`] with the expected total length, more
/// bytes are read until that length is buffered and the check is
/// repeated, until [`ControlFlow::Break`] reports a complete frame of
/// the returned length. Finally [`consume`](Self::consume) is called
/// with exactly that many bytes to construct the message.
pub trait ProtocolDecode: Sized {
    /// Inspects the head of `buf` without consuming it.
    fn check(buf: &[u8]) -> Result<ControlFlow<usize, usize>, DecodeError>;

    /// Parses one complete frame (`buf` must be exactly the length
    /// reported by [`check`](Self::check)'s `Break`).
    fn consume(buf: &[u8]) -> Result<Self, DecodeError>;
}

// ---- message type tags ----------------------------------------------

const T_PREDICT: u8 = 0x01;
const T_PREDICT_CLASS: u8 = 0x02;
const T_RANK: u8 = 0x03;
const T_UPDATE: u8 = 0x04;
const T_SNAPSHOT: u8 = 0x05;
const T_METRICS: u8 = 0x06;
const T_HEALTH: u8 = 0x07;
const T_VALUE: u8 = 0x81;
const T_CLASS: u8 = 0x82;
const T_RANKED: u8 = 0x83;
const T_UPDATED: u8 = 0x84;
const T_SNAPSHOT_DATA: u8 = 0x85;
const T_METRICS_DATA: u8 = 0x86;
const T_HEALTH_STATUS: u8 = 0x87;
const T_ERROR: u8 = 0xEE;

/// Exposition format requested by [`Request::Metrics`]. The formats
/// themselves are defined by `dmf-ops` (see `docs/operations.md`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricsFormat {
    /// Prometheus-style text lines.
    Text = 0,
    /// Schema-versioned JSON snapshot.
    Json = 1,
}

impl MetricsFormat {
    fn from_u8(v: u8) -> Result<Self, DecodeError> {
        match v {
            0 => Ok(Self::Text),
            1 => Ok(Self::Json),
            _ => Err(DecodeError::BadValue),
        }
    }
}

/// A client request. Every variant carries the client-chosen sequence
/// number echoed by the matching response.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Predicted measure for the path `i → j` (natural units).
    Predict {
        /// Pipelining sequence number.
        seq: u32,
        /// Source node id.
        i: u32,
        /// Destination node id.
        j: u32,
    },
    /// Predicted performance class (±1) for the path `i → j`.
    PredictClass {
        /// Pipelining sequence number.
        seq: u32,
        /// Source node id.
        i: u32,
        /// Destination node id.
        j: u32,
    },
    /// Node `i`'s neighbors ranked by predicted score, best first.
    RankNeighbors {
        /// Pipelining sequence number.
        seq: u32,
        /// Node whose neighbors are ranked.
        i: u32,
        /// Maximum entries returned.
        top_k: u16,
    },
    /// Apply an RTT-class measurement `x` for the pair `(i, j)`
    /// (Algorithm 1; `x` must be finite — decode enforces it).
    Update {
        /// Pipelining sequence number.
        seq: u32,
        /// Measuring node (the one whose coordinates move).
        i: u32,
        /// Probed neighbor.
        j: u32,
        /// Measured class value.
        x: f64,
    },
    /// Fetch the whole service's snapshot (JSON): one
    /// [`Snapshot`](dmf_core::Snapshot) of every node, whichever shard
    /// is named. An index past the service's shard count is answered
    /// with [`ErrorCode::BadRequest`].
    Snapshot {
        /// Pipelining sequence number.
        seq: u32,
        /// Shard index; any in-range index answers with the whole
        /// service.
        shard: u16,
    },
    /// Fetch the service's metrics snapshot in the requested
    /// exposition format. Answered with [`Response::MetricsData`], or
    /// [`ErrorCode::BadRequest`] when the serving connection has no
    /// metrics enabled.
    Metrics {
        /// Pipelining sequence number.
        seq: u32,
        /// Requested exposition format.
        format: MetricsFormat,
    },
    /// Fetch the service's health verdict. Answered with
    /// [`Response::HealthStatus`], or [`ErrorCode::BadRequest`] when
    /// the serving connection has no metrics enabled.
    Health {
        /// Pipelining sequence number.
        seq: u32,
    },
}

/// Remote failure category carried by [`Response::Error`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request named an unknown, departed or self-paired node.
    Membership = 1,
    /// The connection's in-flight window is full; retry after draining
    /// responses. Clients surface this as `DmfsgdError::Transport`.
    Overloaded = 2,
    /// The request was structurally valid but unserviceable (bad shard
    /// index, non-finite value, ...).
    BadRequest = 3,
    /// Server-side failure not attributable to the request.
    Internal = 4,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Result<Self, DecodeError> {
        match v {
            1 => Ok(Self::Membership),
            2 => Ok(Self::Overloaded),
            3 => Ok(Self::BadRequest),
            4 => Ok(Self::Internal),
            _ => Err(DecodeError::BadValue),
        }
    }
}

/// A server response. The `seq` echoes the request being answered.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Predict`].
    Value {
        /// Sequence of the request answered.
        seq: u32,
        /// Predicted measure in natural units.
        value: f64,
    },
    /// Answer to [`Request::PredictClass`].
    Class {
        /// Sequence of the request answered.
        seq: u32,
        /// Predicted class: `+1` or `-1` (decode enforces it).
        class: i8,
    },
    /// Answer to [`Request::RankNeighbors`].
    Ranked {
        /// Sequence of the request answered.
        seq: u32,
        /// `(node id, raw score)` pairs, best first.
        entries: Vec<(u32, f64)>,
    },
    /// Answer to [`Request::Update`]: the measurement was applied.
    Updated {
        /// Sequence of the request answered.
        seq: u32,
    },
    /// Answer to [`Request::Snapshot`].
    SnapshotData {
        /// Sequence of the request answered.
        seq: u32,
        /// The service's snapshot, JSON-encoded.
        json: Vec<u8>,
    },
    /// Answer to [`Request::Metrics`].
    MetricsData {
        /// Sequence of the request answered.
        seq: u32,
        /// The exposition format of `body` (echoes the request).
        format: MetricsFormat,
        /// The rendered metrics snapshot.
        body: Vec<u8>,
    },
    /// Answer to [`Request::Health`].
    HealthStatus {
        /// Sequence of the request answered.
        seq: u32,
        /// The health verdict at evaluation time.
        health: Health,
    },
    /// The request failed; carries a typed code and a human-readable
    /// message.
    Error {
        /// Sequence of the request that failed.
        seq: u32,
        /// Failure category.
        code: ErrorCode,
        /// Human-readable detail (UTF-8, at most `u16::MAX` bytes).
        message: String,
    },
}

impl Request {
    /// The request's sequence number.
    pub fn seq(&self) -> u32 {
        match self {
            Request::Predict { seq, .. }
            | Request::PredictClass { seq, .. }
            | Request::RankNeighbors { seq, .. }
            | Request::Update { seq, .. }
            | Request::Snapshot { seq, .. }
            | Request::Metrics { seq, .. }
            | Request::Health { seq } => *seq,
        }
    }
}

impl Response {
    /// The sequence number of the request this response answers.
    pub fn seq(&self) -> u32 {
        match self {
            Response::Value { seq, .. }
            | Response::Class { seq, .. }
            | Response::Ranked { seq, .. }
            | Response::Updated { seq }
            | Response::SnapshotData { seq, .. }
            | Response::MetricsData { seq, .. }
            | Response::HealthStatus { seq, .. }
            | Response::Error { seq, .. } => *seq,
        }
    }
}

// ---- encoding -------------------------------------------------------

impl Request {
    fn type_tag(&self) -> u8 {
        match self {
            Request::Predict { .. } => T_PREDICT,
            Request::PredictClass { .. } => T_PREDICT_CLASS,
            Request::RankNeighbors { .. } => T_RANK,
            Request::Update { .. } => T_UPDATE,
            Request::Snapshot { .. } => T_SNAPSHOT,
            Request::Metrics { .. } => T_METRICS,
            Request::Health { .. } => T_HEALTH,
        }
    }
}

impl ProtocolEncode for Request {
    fn encode(&self, buf: &mut Vec<u8>) {
        let start = SERVICE.begin(buf, self.type_tag());
        buf.extend_from_slice(&self.seq().to_le_bytes());
        match *self {
            Request::Predict { i, j, .. } | Request::PredictClass { i, j, .. } => {
                buf.extend_from_slice(&i.to_le_bytes());
                buf.extend_from_slice(&j.to_le_bytes());
            }
            Request::RankNeighbors { i, top_k, .. } => {
                buf.extend_from_slice(&i.to_le_bytes());
                buf.extend_from_slice(&top_k.to_le_bytes());
            }
            Request::Update { i, j, x, .. } => {
                buf.extend_from_slice(&i.to_le_bytes());
                buf.extend_from_slice(&j.to_le_bytes());
                buf.extend_from_slice(&x.to_le_bytes());
            }
            Request::Snapshot { shard, .. } => buf.extend_from_slice(&shard.to_le_bytes()),
            Request::Metrics { format, .. } => buf.push(format as u8),
            Request::Health { .. } => {}
        }
        SERVICE.seal(buf, start);
    }
}

/// A degraded reason's wire form: kind tag, observed value, limit.
fn reason_fields(r: &DegradedReason) -> (u8, f64, f64) {
    match *r {
        DegradedReason::QualityBelowFloor { auc, floor } => (1, auc, floor),
        DegradedReason::StaleCoordinates {
            staleness_s,
            limit_s,
        } => (2, staleness_s, limit_s),
        DegradedReason::HighRejectionRate { rate, limit } => (3, rate, limit),
    }
}

impl Response {
    fn type_tag(&self) -> u8 {
        match self {
            Response::Value { .. } => T_VALUE,
            Response::Class { .. } => T_CLASS,
            Response::Ranked { .. } => T_RANKED,
            Response::Updated { .. } => T_UPDATED,
            Response::SnapshotData { .. } => T_SNAPSHOT_DATA,
            Response::MetricsData { .. } => T_METRICS_DATA,
            Response::HealthStatus { .. } => T_HEALTH_STATUS,
            Response::Error { .. } => T_ERROR,
        }
    }

    /// Whether this response fits one frame: its payload within
    /// [`MAX_PAYLOAD`] and every count and length within its field and
    /// the bound the decoder enforces. The serving connection answers
    /// a response that does not with [`ErrorCode::BadRequest`] instead
    /// of encoding it; [`encode`](ProtocolEncode::encode) panics on one.
    pub(crate) fn fits_frame(&self) -> bool {
        match self {
            Response::Ranked { entries, .. } => entries.len() <= MAX_RANKED,
            // The blob follows `seq`, its `u32` length and (metrics)
            // the format byte.
            Response::SnapshotData { json, .. } => json.len() <= MAX_PAYLOAD - 8,
            Response::MetricsData { body, .. } => body.len() <= MAX_PAYLOAD - 9,
            Response::HealthStatus { health, .. } => match health {
                Health::Healthy => true,
                Health::Degraded { reasons } => reasons.len() <= MAX_HEALTH_REASONS,
                Health::Unready { reason } => reason.len() <= u16::MAX as usize,
            },
            Response::Error { message, .. } => message.len() <= u16::MAX as usize,
            Response::Value { .. } | Response::Class { .. } | Response::Updated { .. } => true,
        }
    }
}

impl ProtocolEncode for Response {
    fn encode(&self, buf: &mut Vec<u8>) {
        assert!(self.fits_frame(), "response does not fit one frame");
        let start = SERVICE.begin(buf, self.type_tag());
        buf.extend_from_slice(&self.seq().to_le_bytes());
        match self {
            Response::Value { value, .. } => buf.extend_from_slice(&value.to_le_bytes()),
            Response::Class { class, .. } => buf.push(*class as u8),
            Response::Ranked { entries, .. } => {
                buf.extend_from_slice(&(entries.len() as u16).to_le_bytes());
                for (id, score) in entries {
                    buf.extend_from_slice(&id.to_le_bytes());
                    buf.extend_from_slice(&score.to_le_bytes());
                }
            }
            Response::Updated { .. } => {}
            Response::SnapshotData { json, .. } => {
                buf.extend_from_slice(&(json.len() as u32).to_le_bytes());
                buf.extend_from_slice(json);
            }
            Response::MetricsData { format, body, .. } => {
                buf.push(*format as u8);
                buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
                buf.extend_from_slice(body);
            }
            Response::HealthStatus { health, .. } => {
                buf.push(health.code());
                match health {
                    Health::Healthy => {}
                    Health::Degraded { reasons } => {
                        buf.push(reasons.len() as u8);
                        for r in reasons {
                            let (kind, observed, limit) = reason_fields(r);
                            buf.push(kind);
                            buf.extend_from_slice(&observed.to_le_bytes());
                            buf.extend_from_slice(&limit.to_le_bytes());
                        }
                    }
                    Health::Unready { reason } => {
                        buf.extend_from_slice(&(reason.len() as u16).to_le_bytes());
                        buf.extend_from_slice(reason.as_bytes());
                    }
                }
            }
            Response::Error { code, message, .. } => {
                buf.push(*code as u8);
                buf.extend_from_slice(&(message.len() as u16).to_le_bytes());
                buf.extend_from_slice(message.as_bytes());
            }
        }
        SERVICE.seal(buf, start);
    }
}

// ---- decoding -------------------------------------------------------

fn is_request_type(ty: u8) -> bool {
    matches!(
        ty,
        T_PREDICT | T_PREDICT_CLASS | T_RANK | T_UPDATE | T_SNAPSHOT | T_METRICS | T_HEALTH
    )
}

fn is_response_type(ty: u8) -> bool {
    matches!(
        ty,
        T_VALUE
            | T_CLASS
            | T_RANKED
            | T_UPDATED
            | T_SNAPSHOT_DATA
            | T_METRICS_DATA
            | T_HEALTH_STATUS
            | T_ERROR
    )
}

impl ProtocolDecode for Request {
    fn check(buf: &[u8]) -> Result<ControlFlow<usize, usize>, DecodeError> {
        SERVICE.check(buf, is_request_type)
    }

    fn consume(buf: &[u8]) -> Result<Self, DecodeError> {
        let (ty, mut r) = SERVICE.consume(buf, is_request_type)?;
        let seq = r.u32()?;
        let req = match ty {
            T_PREDICT | T_PREDICT_CLASS => {
                let i = r.u32()?;
                let j = r.u32()?;
                if ty == T_PREDICT {
                    Request::Predict { seq, i, j }
                } else {
                    Request::PredictClass { seq, i, j }
                }
            }
            T_RANK => Request::RankNeighbors {
                seq,
                i: r.u32()?,
                top_k: r.u16()?,
            },
            T_UPDATE => {
                let i = r.u32()?;
                let j = r.u32()?;
                let x = r.f64()?;
                if !x.is_finite() {
                    return Err(DecodeError::BadValue);
                }
                Request::Update { seq, i, j, x }
            }
            T_SNAPSHOT => Request::Snapshot {
                seq,
                shard: r.u16()?,
            },
            T_METRICS => Request::Metrics {
                seq,
                format: MetricsFormat::from_u8(r.u8()?)?,
            },
            T_HEALTH => Request::Health { seq },
            _ => unreachable!("the frame check validated the type"),
        };
        r.finish()?;
        Ok(req)
    }
}

impl ProtocolDecode for Response {
    fn check(buf: &[u8]) -> Result<ControlFlow<usize, usize>, DecodeError> {
        SERVICE.check(buf, is_response_type)
    }

    fn consume(buf: &[u8]) -> Result<Self, DecodeError> {
        let (ty, mut r) = SERVICE.consume(buf, is_response_type)?;
        let seq = r.u32()?;
        let resp = match ty {
            T_VALUE => Response::Value {
                seq,
                value: r.f64()?,
            },
            T_CLASS => {
                let class = r.i8()?;
                if class != 1 && class != -1 {
                    return Err(DecodeError::BadValue);
                }
                Response::Class { seq, class }
            }
            T_RANKED => {
                let count = r.u16()? as usize;
                if count > MAX_RANKED {
                    return Err(DecodeError::BadValue);
                }
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    let id = r.u32()?;
                    let score = r.f64()?;
                    entries.push((id, score));
                }
                Response::Ranked { seq, entries }
            }
            T_UPDATED => Response::Updated { seq },
            T_SNAPSHOT_DATA => {
                let len = r.u32()? as usize;
                Response::SnapshotData {
                    seq,
                    json: r.take(len)?.to_vec(),
                }
            }
            T_METRICS_DATA => {
                let format = MetricsFormat::from_u8(r.u8()?)?;
                let len = r.u32()? as usize;
                Response::MetricsData {
                    seq,
                    format,
                    body: r.take(len)?.to_vec(),
                }
            }
            T_HEALTH_STATUS => {
                let health = match r.u8()? {
                    0 => Health::Healthy,
                    1 => {
                        let count = r.u8()? as usize;
                        if count == 0 || count > MAX_HEALTH_REASONS {
                            return Err(DecodeError::BadValue);
                        }
                        let mut reasons = Vec::with_capacity(count);
                        for _ in 0..count {
                            let kind = r.u8()?;
                            let observed = r.f64()?;
                            let limit = r.f64()?;
                            if !observed.is_finite() || !limit.is_finite() {
                                return Err(DecodeError::BadValue);
                            }
                            reasons.push(match kind {
                                1 => DegradedReason::QualityBelowFloor {
                                    auc: observed,
                                    floor: limit,
                                },
                                2 => DegradedReason::StaleCoordinates {
                                    staleness_s: observed,
                                    limit_s: limit,
                                },
                                3 => DegradedReason::HighRejectionRate {
                                    rate: observed,
                                    limit,
                                },
                                _ => return Err(DecodeError::BadValue),
                            });
                        }
                        Health::Degraded { reasons }
                    }
                    2 => {
                        let len = r.u16()? as usize;
                        Health::Unready {
                            reason: r.str(len)?.to_string(),
                        }
                    }
                    _ => return Err(DecodeError::BadValue),
                };
                Response::HealthStatus { seq, health }
            }
            T_ERROR => {
                let code = ErrorCode::from_u8(r.u8()?)?;
                let len = r.u16()? as usize;
                Response::Error {
                    seq,
                    code,
                    message: r.str(len)?.to_string(),
                }
            }
            _ => unreachable!("the frame check validated the type"),
        };
        r.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc<T: ProtocolEncode>(msg: &T) -> Vec<u8> {
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        buf
    }

    #[test]
    fn request_round_trips() {
        let reqs = [
            Request::Predict { seq: 7, i: 1, j: 2 },
            Request::PredictClass { seq: 8, i: 3, j: 4 },
            Request::RankNeighbors {
                seq: 9,
                i: 5,
                top_k: 32,
            },
            Request::Update {
                seq: 10,
                i: 6,
                j: 7,
                x: -1.0,
            },
            Request::Snapshot { seq: 11, shard: 3 },
            Request::Metrics {
                seq: 12,
                format: MetricsFormat::Text,
            },
            Request::Metrics {
                seq: 13,
                format: MetricsFormat::Json,
            },
            Request::Health { seq: 14 },
        ];
        for req in &reqs {
            let bytes = enc(req);
            assert_eq!(
                Request::check(&bytes).unwrap(),
                ControlFlow::Break(bytes.len())
            );
            assert_eq!(&Request::consume(&bytes).unwrap(), req);
        }
    }

    #[test]
    fn response_round_trips() {
        let resps = [
            Response::Value {
                seq: 1,
                value: 0.25,
            },
            Response::Class { seq: 2, class: -1 },
            Response::Ranked {
                seq: 3,
                entries: vec![(4, 1.5), (9, -0.25)],
            },
            Response::Updated { seq: 4 },
            Response::SnapshotData {
                seq: 5,
                json: b"{\"x\":1}".to_vec(),
            },
            Response::MetricsData {
                seq: 6,
                format: MetricsFormat::Text,
                body: b"# dmfsgd-metrics schema 1\n".to_vec(),
            },
            Response::HealthStatus {
                seq: 7,
                health: Health::Healthy,
            },
            Response::HealthStatus {
                seq: 8,
                health: Health::Degraded {
                    reasons: vec![
                        DegradedReason::QualityBelowFloor {
                            auc: 0.5,
                            floor: 0.75,
                        },
                        DegradedReason::StaleCoordinates {
                            staleness_s: 45.0,
                            limit_s: 30.0,
                        },
                        DegradedReason::HighRejectionRate {
                            rate: 0.3,
                            limit: 0.1,
                        },
                    ],
                },
            },
            Response::HealthStatus {
                seq: 9,
                health: Health::Unready {
                    reason: "quality window 3/50 samples".to_string(),
                },
            },
            Response::Error {
                seq: 6,
                code: ErrorCode::Overloaded,
                message: "window full".to_string(),
            },
        ];
        for resp in &resps {
            let bytes = enc(resp);
            assert_eq!(
                Response::check(&bytes).unwrap(),
                ControlFlow::Break(bytes.len())
            );
            assert_eq!(&Response::consume(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn check_asks_for_more_bytes_until_a_full_frame_buffers() {
        let bytes = enc(&Request::Predict { seq: 1, i: 2, j: 3 });
        assert_eq!(
            Request::check(&bytes[..4]).unwrap(),
            ControlFlow::Continue(HEADER_LEN)
        );
        assert_eq!(
            Request::check(&bytes[..HEADER_LEN]).unwrap(),
            ControlFlow::Continue(bytes.len())
        );
        assert_eq!(
            Request::check(&bytes[..bytes.len() - 1]).unwrap(),
            ControlFlow::Continue(bytes.len())
        );
    }

    #[test]
    fn direction_confusion_is_a_bad_type() {
        let req = enc(&Request::Predict { seq: 1, i: 2, j: 3 });
        assert_eq!(Response::check(&req).unwrap_err(), DecodeError::BadType);
        let resp = enc(&Response::Updated { seq: 1 });
        assert_eq!(Request::check(&resp).unwrap_err(), DecodeError::BadType);
    }

    #[test]
    fn corruption_is_typed_not_panicking() {
        let mut bytes = enc(&Request::Update {
            seq: 1,
            i: 2,
            j: 3,
            x: 1.0,
        });
        bytes[HEADER_LEN + 4] ^= 0x40;
        assert_eq!(
            Request::consume(&bytes).unwrap_err(),
            DecodeError::BadChecksum
        );

        let mut wrong_magic = enc(&Request::Snapshot { seq: 1, shard: 0 });
        wrong_magic[0] ^= 0xFF;
        assert_eq!(
            Request::check(&wrong_magic).unwrap_err(),
            DecodeError::BadMagic
        );

        let mut huge = enc(&Request::Snapshot { seq: 1, shard: 0 });
        huge[4..8].copy_from_slice(&(MAX_PAYLOAD as u32 + 1).to_le_bytes());
        assert_eq!(
            Request::check(&huge).unwrap_err(),
            DecodeError::LengthMismatch
        );
    }

    #[test]
    fn non_finite_update_values_are_rejected() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let bytes = enc(&Request::Update {
                seq: 1,
                i: 0,
                j: 1,
                x: bad,
            });
            assert_eq!(Request::consume(&bytes).unwrap_err(), DecodeError::BadValue);
        }
    }

    #[test]
    fn hostile_health_payloads_are_typed_errors() {
        // Unknown state byte.
        let mut buf = Vec::new();
        let start = SERVICE.begin(&mut buf, T_HEALTH_STATUS);
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.push(9);
        SERVICE.seal(&mut buf, start);
        assert_eq!(Response::consume(&buf).unwrap_err(), DecodeError::BadValue);

        // Degraded with zero reasons (the encoder never emits it).
        let mut buf = Vec::new();
        let start = SERVICE.begin(&mut buf, T_HEALTH_STATUS);
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.push(1);
        buf.push(0);
        SERVICE.seal(&mut buf, start);
        assert_eq!(Response::consume(&buf).unwrap_err(), DecodeError::BadValue);

        // Degraded reason carrying a NaN.
        let mut buf = Vec::new();
        let start = SERVICE.begin(&mut buf, T_HEALTH_STATUS);
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.push(1);
        buf.push(1);
        buf.push(1);
        buf.extend_from_slice(&f64::NAN.to_le_bytes());
        buf.extend_from_slice(&0.75f64.to_le_bytes());
        SERVICE.seal(&mut buf, start);
        assert_eq!(Response::consume(&buf).unwrap_err(), DecodeError::BadValue);

        // Metrics request with an unknown format byte.
        let mut buf = Vec::new();
        let start = SERVICE.begin(&mut buf, T_METRICS);
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.push(7);
        SERVICE.seal(&mut buf, start);
        assert_eq!(Request::consume(&buf).unwrap_err(), DecodeError::BadValue);
    }

    #[test]
    fn oversized_ranked_counts_are_rejected_before_allocation() {
        let mut buf = Vec::new();
        let start = SERVICE.begin(&mut buf, T_RANKED);
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&(MAX_RANKED as u16 + 1).to_le_bytes());
        SERVICE.seal(&mut buf, start);
        assert_eq!(Response::consume(&buf).unwrap_err(), DecodeError::BadValue);
    }
}
