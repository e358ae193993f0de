//! Client side of the service protocol: [`ServiceClient`].
//!
//! The client is a sequence allocator plus a response decoder; like
//! [`ServerConnection`](crate::connection::ServerConnection) it is
//! transport-agnostic and manually pumped, so the same type drives a
//! deterministic test (bytes in, bytes out, no threads) and a
//! threaded load generator over a loopback pipe.
//!
//! Pipelining is the point: `submit_*` encodes a request into the
//! caller's wire buffer *without waiting* and returns its sequence
//! number; the caller ships as many as it likes, then feeds whatever
//! bytes come back to [`ingest`](ServiceClient::ingest) and pops
//! decoded responses with [`poll`](ServiceClient::poll). Responses
//! carry the request's sequence, so matching them to callers is a
//! lookup, not a protocol property. [`Response::into_result`] folds a
//! remote [`Response::Error`] into the crate's typed error surface —
//! an [`ErrorCode::Overloaded`](crate::protocol::ErrorCode::Overloaded)
//! rejection becomes
//! [`DmfsgdError::Transport`], which is how a pipelining client
//! notices it outran the server's admission window.

use crate::protocol::{MetricsFormat, ProtocolDecode, ProtocolEncode, Request, Response};
use dmf_core::DmfsgdError;
use std::ops::ControlFlow;

/// Client-side connection state: allocates sequence numbers and
/// decodes the pipelined response stream.
#[derive(Default)]
pub struct ServiceClient {
    next_seq: u32,
    /// Response-stream bytes; `inbuf[consumed..]` is undecoded.
    inbuf: Vec<u8>,
    /// Bytes of `inbuf` already polled out, dropped at the next
    /// `ingest` so a burst of responses costs one compaction, not one
    /// per response.
    consumed: usize,
    /// Responses submitted minus responses polled.
    outstanding: usize,
}

impl ServiceClient {
    /// A fresh client (sequences start at 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests submitted whose responses have not been polled yet.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    fn submit(&mut self, req: Request, wire: &mut Vec<u8>) -> u32 {
        let seq = req.seq();
        req.encode(wire);
        self.next_seq = self.next_seq.wrapping_add(1);
        self.outstanding += 1;
        seq
    }

    /// Encodes a predict request for `(i, j)`; returns its sequence.
    pub fn submit_predict(&mut self, i: u32, j: u32, wire: &mut Vec<u8>) -> u32 {
        let seq = self.next_seq;
        self.submit(Request::Predict { seq, i, j }, wire)
    }

    /// Encodes a class-predict request for `(i, j)`.
    pub fn submit_predict_class(&mut self, i: u32, j: u32, wire: &mut Vec<u8>) -> u32 {
        let seq = self.next_seq;
        self.submit(Request::PredictClass { seq, i, j }, wire)
    }

    /// Encodes a rank request for node `i`.
    pub fn submit_rank(&mut self, i: u32, top_k: u16, wire: &mut Vec<u8>) -> u32 {
        let seq = self.next_seq;
        self.submit(Request::RankNeighbors { seq, i, top_k }, wire)
    }

    /// Encodes an RTT-class update for `(i, j)` with value `x`.
    pub fn submit_update(&mut self, i: u32, j: u32, x: f64, wire: &mut Vec<u8>) -> u32 {
        let seq = self.next_seq;
        self.submit(Request::Update { seq, i, j, x }, wire)
    }

    /// Encodes a snapshot request; any `shard` below the service's
    /// shard count answers with the whole service's snapshot.
    pub fn submit_snapshot(&mut self, shard: u16, wire: &mut Vec<u8>) -> u32 {
        let seq = self.next_seq;
        self.submit(Request::Snapshot { seq, shard }, wire)
    }

    /// Encodes a metrics request in the given exposition format.
    pub fn submit_metrics(&mut self, format: MetricsFormat, wire: &mut Vec<u8>) -> u32 {
        let seq = self.next_seq;
        self.submit(Request::Metrics { seq, format }, wire)
    }

    /// Encodes a health request.
    pub fn submit_health(&mut self, wire: &mut Vec<u8>) -> u32 {
        let seq = self.next_seq;
        self.submit(Request::Health { seq }, wire)
    }

    /// Buffers response-stream bytes received from the server.
    pub fn ingest(&mut self, bytes: &[u8]) {
        self.inbuf.drain(..self.consumed);
        self.consumed = 0;
        self.inbuf.extend_from_slice(bytes);
    }

    /// Decodes the next complete response, if one has buffered.
    /// Framing corruption surfaces as the typed
    /// [`DmfsgdError::Decode`] and is fatal to the connection.
    pub fn poll(&mut self) -> Result<Option<Response>, DmfsgdError> {
        let unread = &self.inbuf[self.consumed..];
        match Response::check(unread)? {
            ControlFlow::Continue(_) => Ok(None),
            ControlFlow::Break(len) => {
                let resp = Response::consume(&unread[..len])?;
                self.consumed += len;
                self.outstanding = self.outstanding.saturating_sub(1);
                Ok(Some(resp))
            }
        }
    }
}

impl Response {
    /// Folds a remote error into the typed error surface: an
    /// [`ErrorCode::Overloaded`](crate::protocol::ErrorCode::Overloaded)
    /// rejection (and any other remote
    /// failure) becomes [`DmfsgdError::Transport`]; successful
    /// responses pass through unchanged.
    pub fn into_result(self) -> Result<Response, DmfsgdError> {
        match self {
            Response::Error { code, message, seq } => Err(DmfsgdError::Transport(format!(
                "request {seq} failed remotely ({code:?}): {message}"
            ))),
            ok => Ok(ok),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ErrorCode;

    #[test]
    fn sequences_increment_per_submission() {
        let mut c = ServiceClient::new();
        let mut wire = Vec::new();
        assert_eq!(c.submit_predict(0, 1, &mut wire), 0);
        assert_eq!(c.submit_rank(2, 8, &mut wire), 1);
        assert_eq!(c.submit_update(0, 1, 1.0, &mut wire), 2);
        assert_eq!(c.outstanding(), 3);
    }

    #[test]
    fn poll_decodes_a_pipelined_stream_incrementally() {
        let mut c = ServiceClient::new();
        let mut stream = Vec::new();
        Response::Value { seq: 0, value: 1.5 }.encode(&mut stream);
        Response::Updated { seq: 1 }.encode(&mut stream);
        c.outstanding = 2;

        c.ingest(&stream[..5]);
        assert!(c.poll().unwrap().is_none());
        c.ingest(&stream[5..]);
        assert_eq!(
            c.poll().unwrap(),
            Some(Response::Value { seq: 0, value: 1.5 })
        );
        assert_eq!(c.poll().unwrap(), Some(Response::Updated { seq: 1 }));
        assert!(c.poll().unwrap().is_none());
        assert_eq!(c.outstanding(), 0);
    }

    #[test]
    fn a_burst_polls_out_in_order_and_is_released_at_the_next_ingest() {
        const BURST: u32 = 4096;
        let mut c = ServiceClient::new();
        let mut stream = Vec::new();
        for seq in 0..BURST {
            Response::Updated { seq }.encode(&mut stream);
        }
        let mut tail = Vec::new();
        Response::Value {
            seq: BURST,
            value: 2.5,
        }
        .encode(&mut tail);
        stream.extend_from_slice(&tail[..7]);
        c.ingest(&stream);
        for seq in 0..BURST {
            assert_eq!(c.poll().unwrap(), Some(Response::Updated { seq }));
        }
        assert!(c.poll().unwrap().is_none(), "partial trailing frame");
        // Polling only moves the cursor; the next ingest drops the
        // polled prefix and keeps the partial frame.
        assert_eq!(c.inbuf.len(), stream.len());
        c.ingest(&tail[7..]);
        assert_eq!((c.consumed, c.inbuf.len()), (0, tail.len()));
        let last = Response::Value {
            seq: BURST,
            value: 2.5,
        };
        assert_eq!(c.poll().unwrap(), Some(last));
        c.ingest(&[]);
        assert!(c.inbuf.is_empty(), "buffer fully released");
    }

    #[test]
    fn overload_errors_become_typed_transport_failures() {
        let resp = Response::Error {
            seq: 64,
            code: ErrorCode::Overloaded,
            message: "in-flight window full (64 requests)".to_string(),
        };
        let err = resp.into_result().unwrap_err();
        assert!(matches!(&err, DmfsgdError::Transport(m) if m.contains("Overloaded")));
        assert!(Response::Updated { seq: 1 }.into_result().is_ok());
    }
}
