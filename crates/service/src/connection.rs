//! Per-connection request pipelining with bounded backpressure:
//! [`ServerConnection`].
//!
//! The service speaks a pipelined protocol: a client may ship many
//! requests back to back without waiting for answers, and the server
//! executes them strictly in arrival order, tagging each response
//! with the request's sequence number. In-order execution is what
//! makes the whole stack deterministic — for a fixed request
//! schedule, the response byte stream is identical regardless of
//! shard count or timing (the conformance suite pins this).
//!
//! Backpressure is a bounded admission window, not an unbounded
//! queue: at most `max_in_flight` requests may be admitted and not
//! yet answered. A request arriving with the window full is *not*
//! buffered — it is answered immediately with
//! [`ErrorCode::Overloaded`], which clients surface as a typed
//! [`DmfsgdError::Transport`]. Memory per connection is therefore
//! bounded by the window size plus one frame, no matter how fast the
//! client pushes.
//!
//! The connection is transport-agnostic and manually pumped —
//! [`ingest`](ServerConnection::ingest) bytes in,
//! [`execute_one`](ServerConnection::execute_one) /
//! [`drain`](ServerConnection::drain) response bytes out — so tests
//! drive it deterministically. [`serve_loopback`] wraps the same pump
//! in a thread loop over a [`Loopback`](crate::loopback) pipe for the
//! benches and examples.

use crate::metrics::{RequestKind, ServiceMetrics};
use crate::protocol::{ErrorCode, ProtocolDecode, ProtocolEncode, Request, Response};
use crate::service::PredictionService;
use dmf_core::{DmfsgdError, NodeId};
use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::Instant;

/// Default admission window: how many requests may be in flight on
/// one connection before overload rejection kicks in.
const DEFAULT_MAX_IN_FLIGHT: usize = 128;

/// Server side of one pipelined connection (see the [module
/// docs](self)).
pub struct ServerConnection {
    service: Arc<PredictionService>,
    max_in_flight: usize,
    /// Undecoded stream bytes (at most one partial frame after each
    /// `ingest` returns).
    inbuf: Vec<u8>,
    /// Admitted, not-yet-executed requests, in arrival order.
    pending: VecDeque<Request>,
    /// Reusable rank buffer: neighbor ranking allocates nothing per
    /// query ([`PredictionService::rank_neighbors_into`]).
    rank_buf: Vec<(NodeId, f64)>,
    /// Requests rejected with [`ErrorCode::Overloaded`] so far.
    overload_rejections: u64,
    /// Observability sink, shared across the connections of one
    /// service. `None` (the default) serves with no instrumentation
    /// overhead and answers `Metrics`/`Health` requests with
    /// [`ErrorCode::BadRequest`].
    metrics: Option<Arc<ServiceMetrics>>,
}

impl ServerConnection {
    /// A connection serving `service` with the given admission window
    /// (`max_in_flight >= 1`; clamped up from 0).
    pub fn new(service: Arc<PredictionService>, max_in_flight: usize) -> Self {
        Self {
            service,
            max_in_flight: max_in_flight.max(1),
            inbuf: Vec::new(),
            pending: VecDeque::new(),
            rank_buf: Vec::new(),
            overload_rejections: 0,
            metrics: None,
        }
    }

    /// A connection with the default window of 128 in-flight requests.
    pub fn with_default_window(service: Arc<PredictionService>) -> Self {
        Self::new(service, DEFAULT_MAX_IN_FLIGHT)
    }

    /// An instrumented connection: every request is counted and
    /// timed into `metrics` (share one [`ServiceMetrics`] across all
    /// connections of a service), updates feed its live quality
    /// window, and `Metrics`/`Health` requests are answered from it.
    pub fn with_metrics(
        service: Arc<PredictionService>,
        max_in_flight: usize,
        metrics: Arc<ServiceMetrics>,
    ) -> Self {
        let mut conn = Self::new(service, max_in_flight);
        conn.metrics = Some(metrics);
        conn
    }

    /// Requests admitted and not yet executed.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Requests rejected with [`ErrorCode::Overloaded`] so far.
    pub fn overload_rejections(&self) -> u64 {
        self.overload_rejections
    }

    /// Feeds stream bytes into the connection. Complete frames are
    /// decoded and admitted (or overload-rejected straight into
    /// `out`); a trailing partial frame stays buffered for the next
    /// call.
    ///
    /// A framing error (bad magic, bad checksum, hostile length) is
    /// fatal to the connection — a byte stream with a corrupt frame
    /// header cannot be resynchronized — and surfaces as the typed
    /// [`DmfsgdError::Decode`]; the caller should drop the
    /// connection.
    pub fn ingest(&mut self, bytes: &[u8], out: &mut Vec<u8>) -> Result<(), DmfsgdError> {
        self.inbuf.extend_from_slice(bytes);
        let mut consumed = 0;
        loop {
            match Request::check(&self.inbuf[consumed..]) {
                Err(e) => {
                    self.inbuf.drain(..consumed);
                    return Err(e.into());
                }
                Ok(ControlFlow::Continue(_)) => break,
                Ok(ControlFlow::Break(len)) => {
                    let frame = &self.inbuf[consumed..consumed + len];
                    let req = match Request::consume(frame) {
                        Ok(req) => req,
                        Err(e) => {
                            self.inbuf.drain(..consumed);
                            return Err(e.into());
                        }
                    };
                    consumed += len;
                    if self.pending.len() >= self.max_in_flight {
                        self.overload_rejections += 1;
                        if let Some(m) = &self.metrics {
                            m.record_overload();
                        }
                        Response::Error {
                            seq: req.seq(),
                            code: ErrorCode::Overloaded,
                            message: format!(
                                "in-flight window full ({} requests)",
                                self.max_in_flight
                            ),
                        }
                        .encode(out);
                    } else {
                        self.pending.push_back(req);
                    }
                }
            }
        }
        self.inbuf.drain(..consumed);
        if let Some(m) = &self.metrics {
            m.set_in_flight(self.pending.len());
        }
        Ok(())
    }

    /// Executes the oldest pending request, appending its response
    /// frame to `out`. Returns whether a request was executed.
    ///
    /// Service-level failures (membership, bad shard index, ...) are
    /// answered with [`Response::Error`] — they never kill the
    /// connection.
    pub fn execute_one(&mut self, out: &mut Vec<u8>) -> bool {
        let Some(req) = self.pending.pop_front() else {
            return false;
        };
        let resp = self.execute(req);
        resp.encode(out);
        if let Some(m) = &self.metrics {
            m.set_in_flight(self.pending.len());
        }
        true
    }

    /// Executes every pending request in order; returns how many ran.
    pub fn drain(&mut self, out: &mut Vec<u8>) -> usize {
        let mut n = 0;
        while self.execute_one(out) {
            n += 1;
        }
        n
    }

    fn execute(&mut self, req: Request) -> Response {
        // A borrow: cloning the `Arc` would bump, per request, a count
        // on a cache line every connection of the service shares.
        let metrics = self.metrics.as_deref();
        let started = metrics.map(|_| Instant::now());
        let kind = request_kind(&req);
        let seq = req.seq();
        let result = match req {
            Request::Predict { i, j, .. } => self
                .service
                .predict(i as usize, j as usize)
                .map(|value| Response::Value { seq, value }),
            Request::PredictClass { i, j, .. } => self
                .service
                .predict_class(i as usize, j as usize)
                .map(|class| Response::Class {
                    seq,
                    class: if class >= 0.0 { 1 } else { -1 },
                }),
            Request::RankNeighbors { i, top_k, .. } => self
                .service
                .rank_neighbors_into(i as usize, top_k as usize, &mut self.rank_buf)
                .map(|()| Response::Ranked {
                    seq,
                    entries: self
                        .rank_buf
                        .iter()
                        .map(|&(id, score)| (id as u32, score))
                        .collect(),
                }),
            Request::Update { i, j, x, .. } => self
                .service
                .update_rtt_scored(i as usize, j as usize, x)
                .map(|score| {
                    if let Some(m) = metrics {
                        // The pre-update score against the measured
                        // class is the live quality pair.
                        let shard = self.service.partition().owner(i as usize);
                        m.record_update(shard, x > 0.0, score);
                    }
                    Response::Updated { seq }
                }),
            // Any in-range shard index answers with the whole service.
            Request::Snapshot { shard, .. } => match usize::from(shard) < self.service.shards() {
                true => self
                    .service
                    .snapshot()
                    .map(|snapshot| Response::SnapshotData {
                        seq,
                        json: snapshot.to_json().into_bytes(),
                    }),
                false => Err(DmfsgdError::Transport(format!(
                    "snapshot of shard {shard}, but the service has {} shards",
                    self.service.shards()
                ))),
            },
            Request::Metrics { format, .. } => match metrics {
                Some(m) => Ok(Response::MetricsData {
                    seq,
                    format,
                    body: m.render(format),
                }),
                None => Err(metrics_disabled()),
            },
            Request::Health { .. } => match metrics {
                Some(m) => Ok(Response::HealthStatus {
                    seq,
                    health: m.health(),
                }),
                None => Err(metrics_disabled()),
            },
        };
        // A snapshot of a few thousand nodes, a long ranking or a large
        // metrics body can outgrow one frame: answered like any other
        // bad request.
        let result = result.and_then(|resp| match resp.fits_frame() {
            true => Ok(resp),
            false => Err(DmfsgdError::Transport(
                "response exceeds the frame payload bound".to_string(),
            )),
        });
        let ok = result.is_ok();
        let resp = result.unwrap_or_else(|e| Response::Error {
            seq,
            code: error_code(&e),
            message: e.to_string(),
        });
        if let (Some(m), Some(t0)) = (metrics, started) {
            m.record_request(kind, ok, t0.elapsed().as_micros() as u64);
        }
        resp
    }
}

/// The metric label for a request (see
/// [`ServiceMetrics::record_request`]).
fn request_kind(req: &Request) -> RequestKind {
    match req {
        Request::Predict { .. } => RequestKind::Predict,
        Request::PredictClass { .. } => RequestKind::PredictClass,
        Request::RankNeighbors { .. } => RequestKind::Rank,
        Request::Update { .. } => RequestKind::Update,
        Request::Snapshot { .. } => RequestKind::Snapshot,
        Request::Metrics { .. } => RequestKind::Metrics,
        Request::Health { .. } => RequestKind::Health,
    }
}

/// The error answering `Metrics`/`Health` on an uninstrumented
/// connection (maps to [`ErrorCode::BadRequest`]).
fn metrics_disabled() -> DmfsgdError {
    DmfsgdError::Transport(
        "metrics are not enabled on this connection (ServerConnection::with_metrics)".to_string(),
    )
}

/// Maps a service error to its wire category. No service call can
/// fail with [`ErrorCode::Overloaded`]: that code is sent only by
/// [`ingest`](ServerConnection::ingest), for a full admission window.
fn error_code(e: &DmfsgdError) -> ErrorCode {
    match e {
        DmfsgdError::Membership(_) => ErrorCode::Membership,
        DmfsgdError::Config(_) | DmfsgdError::Import(_) | DmfsgdError::Transport(_) => {
            ErrorCode::BadRequest
        }
        _ => ErrorCode::Internal,
    }
}

/// Runs a connection as a thread loop over a loopback pipe: read,
/// ingest, drain, write back, until the peer closes. Framing errors
/// terminate the loop (the connection is unrecoverable); the error is
/// returned for the caller to log or assert on.
pub fn serve_loopback(
    mut conn: ServerConnection,
    pipe: crate::loopback::LoopbackEndpoint,
) -> Result<(), DmfsgdError> {
    let mut rx = Vec::new();
    let mut tx = Vec::new();
    loop {
        rx.clear();
        if pipe.recv(&mut rx) == 0 {
            return Ok(());
        }
        tx.clear();
        let res = conn.ingest(&rx, &mut tx);
        conn.drain(&mut tx);
        if !tx.is_empty() {
            pipe.send(&tx);
        }
        res?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmf_core::SessionBuilder;

    fn service(n: usize, shards: usize) -> Arc<PredictionService> {
        let s = SessionBuilder::new()
            .nodes(n)
            .seed(3)
            .build()
            .expect("valid");
        Arc::new(PredictionService::build(*s.config(), n, shards).expect("service"))
    }

    fn encode_req(req: &Request) -> Vec<u8> {
        let mut b = Vec::new();
        req.encode(&mut b);
        b
    }

    fn decode_all(mut bytes: &[u8]) -> Vec<Response> {
        let mut out = Vec::new();
        while !bytes.is_empty() {
            let ControlFlow::Break(len) = Response::check(bytes).expect("well-formed") else {
                panic!("truncated response stream");
            };
            out.push(Response::consume(&bytes[..len]).expect("decodes"));
            bytes = &bytes[len..];
        }
        out
    }

    #[test]
    fn requests_execute_in_order_with_matching_seqs() {
        let mut conn = ServerConnection::new(service(12, 3), 16);
        let mut wire = Vec::new();
        for (seq, (i, j)) in [(0u32, (0u32, 5u32)), (1, (5, 0)), (2, (3, 9))].into_iter() {
            Request::Predict { seq, i, j }.encode(&mut wire);
        }
        Request::RankNeighbors {
            seq: 3,
            i: 1,
            top_k: 4,
        }
        .encode(&mut wire);
        let mut out = Vec::new();
        conn.ingest(&wire, &mut out).unwrap();
        assert_eq!(conn.in_flight(), 4);
        conn.drain(&mut out);
        let resps = decode_all(&out);
        assert_eq!(
            resps.iter().map(Response::seq).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert!(matches!(resps[3], Response::Ranked { ref entries, .. } if entries.len() == 4));
    }

    #[test]
    fn partial_frames_buffer_across_ingest_calls() {
        let mut conn = ServerConnection::new(service(12, 2), 8);
        let wire = encode_req(&Request::Predict { seq: 9, i: 1, j: 2 });
        let mut out = Vec::new();
        for chunk in wire.chunks(3) {
            conn.ingest(chunk, &mut out).unwrap();
        }
        assert_eq!(conn.in_flight(), 1);
        conn.drain(&mut out);
        assert_eq!(decode_all(&out)[0].seq(), 9);
    }

    #[test]
    fn window_overflow_is_rejected_immediately_with_a_typed_code() {
        let mut conn = ServerConnection::new(service(12, 2), 4);
        let mut wire = Vec::new();
        for seq in 0..6u32 {
            Request::Predict { seq, i: 0, j: 1 }.encode(&mut wire);
        }
        let mut out = Vec::new();
        conn.ingest(&wire, &mut out).unwrap();
        // 4 admitted, 2 rejected without growing the queue.
        assert_eq!(conn.in_flight(), 4);
        assert_eq!(conn.overload_rejections(), 2);
        let rejections = decode_all(&out);
        assert_eq!(rejections.len(), 2);
        for (resp, want_seq) in rejections.iter().zip([4u32, 5]) {
            assert!(
                matches!(resp, Response::Error { seq, code: ErrorCode::Overloaded, .. } if *seq == want_seq)
            );
        }
        // Draining reopens the window.
        conn.drain(&mut out);
        assert_eq!(conn.in_flight(), 0);
        conn.ingest(
            &encode_req(&Request::Predict { seq: 6, i: 0, j: 1 }),
            &mut out,
        )
        .unwrap();
        assert_eq!(conn.in_flight(), 1);
    }

    #[test]
    fn service_errors_answer_the_request_instead_of_killing_the_connection() {
        let mut conn = ServerConnection::new(service(12, 2), 8);
        let mut out = Vec::new();
        conn.ingest(
            &encode_req(&Request::Predict { seq: 1, i: 3, j: 3 }),
            &mut out,
        )
        .unwrap();
        conn.ingest(
            &encode_req(&Request::Snapshot { seq: 2, shard: 77 }),
            &mut out,
        )
        .unwrap();
        conn.ingest(
            &encode_req(&Request::Predict { seq: 3, i: 0, j: 1 }),
            &mut out,
        )
        .unwrap();
        conn.drain(&mut out);
        let resps = decode_all(&out);
        assert!(matches!(
            &resps[0],
            Response::Error {
                seq: 1,
                code: ErrorCode::Membership,
                ..
            }
        ));
        assert!(matches!(
            &resps[1],
            Response::Error {
                seq: 2,
                code: ErrorCode::BadRequest,
                ..
            }
        ));
        assert!(matches!(&resps[2], Response::Value { seq: 3, .. }));
    }

    #[test]
    fn an_oversized_snapshot_is_a_typed_error_and_the_connection_survives() {
        // ≈ 483 B of snapshot JSON per node: 4 000 nodes outgrow a frame.
        let mut conn = ServerConnection::new(service(4000, 1), 8);
        let mut wire = encode_req(&Request::Snapshot { seq: 1, shard: 0 });
        Request::Predict { seq: 2, i: 0, j: 1 }.encode(&mut wire);
        let mut out = Vec::new();
        conn.ingest(&wire, &mut out).unwrap();
        conn.drain(&mut out);
        let resps = decode_all(&out);
        assert_eq!(resps.len(), 2);
        assert!(matches!(
            &resps[0],
            Response::Error {
                seq: 1,
                code: ErrorCode::BadRequest,
                ..
            }
        ));
        assert!(matches!(&resps[1], Response::Value { seq: 2, .. }));
    }

    #[test]
    fn framing_corruption_is_fatal_and_typed() {
        let mut conn = ServerConnection::new(service(12, 2), 8);
        let mut wire = encode_req(&Request::Predict { seq: 1, i: 0, j: 1 });
        wire[0] ^= 0xFF;
        let mut out = Vec::new();
        assert!(matches!(
            conn.ingest(&wire, &mut out).unwrap_err(),
            DmfsgdError::Decode(dmf_proto::DecodeError::BadMagic)
        ));
        // Sanity: the magic constant this connection expects.
        assert_eq!(dmf_proto::frame::SERVICE.magic(), 0xD3F6);
    }
}
