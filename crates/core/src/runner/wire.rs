//! Wire mode (see the `runner` module docs): v1/v2 `dmf-proto`
//! datagrams, the per-pair v2 contexts, buffer recycling and
//! [`WireStats`]. The handlers mirror the UDP agent's dispatch and
//! share the driver's per-message RTT bookkeeping.
//!
//! A v2 probe send prefetches its [`Exchange`], the struct and the live
//! part of its four context buffers: at k = 32 that state is 1.3 KB per
//! slot, 20 MB at 500 nodes, and the probe's delivery at the target and
//! the reply's back at the prober — one and two one-way delays, tens of
//! events, later — met it cold. At the send and not by queue lookahead,
//! as `sharded` does: the slot is in hand for free, where a lookahead
//! would have to decode the datagram to learn who the prober is. A hint
//! only, no datagram byte depends on it (`tests/wire_v2_golden.rs`).
//! The first touch at fire time stays cold: nothing can name the slot
//! before the neighbor is drawn.

use super::{Msg, SimnetDriver};
use crate::session::Session;
use dmf_datasets::Metric;
use dmf_linalg::simd::prefetch;
use dmf_proto::codec::encode_v2_into;
use dmf_proto::{
    decode_any, encode, Block, ContextError, CoordUpdate, DecoderContext, EncoderContext, Message,
    MessageV2, WireMessage, WireVersion,
};
use dmf_simnet::neighbors::NeighborSets;

/// Byte-level statistics of a wire-mode run (see
/// [`SimnetDriver::with_wire_version`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Datagrams handed to the transport (probes, replies, both
    /// directions).
    pub messages_sent: u64,
    /// Total encoded bytes handed to the transport.
    pub bytes_sent: u64,
    /// Datagrams that failed to decode or carried a wrong rank.
    pub decode_errors: u64,
    /// v2 deltas dropped because their baseline was no longer held.
    pub stale_deltas: u64,
    /// Sequence gaps observed across all per-pair decoder contexts.
    pub gaps_detected: u64,
    /// Keyframes sent across all per-pair encoder contexts.
    pub keyframes_sent: u64,
}

/// One direction of a v2 coordinate stream: the encoder at its sending
/// end and the decoder at its receiving end.
#[derive(Debug, Default)]
pub(super) struct Stream {
    pub(super) enc: EncoderContext,
    pub(super) dec: DecoderContext,
}

/// v2 state of one (prober → target) exchange, both ends of it.
#[derive(Debug, Default)]
pub(super) struct Exchange {
    /// `(prober, target)` the contexts belong to. Churn can hand a
    /// neighbor slot to another pair, which then starts afresh.
    pub(super) pair: (usize, usize),
    /// Target → prober: `u ‖ v` in RTT replies, `v` in ABW replies.
    pub(super) reply: Stream,
    /// Prober → target: `u` in ABW probes; RTT probes carry no
    /// coordinates.
    pub(super) probe: Stream,
}

impl Exchange {
    /// Hints what this exchange's next deliveries touch (module docs).
    /// Called at the v2 probe send only. `probe-wire`, M cycles/s,
    /// alternated 20 s runs, four each: 0.848–0.888 so, 0.851–0.892
    /// with a second call at the v2 reply sends (medians 0.884, 0.870;
    /// parent 0.59–0.67). The delay-table entries of both legs and the
    /// two nodes added nothing either.
    fn prefetch(&self) {
        prefetch(self);
        for stream in [&self.reply, &self.probe] {
            prefetch(stream.enc.held_states());
            prefetch(stream.dec.held_states());
        }
    }
}

/// The v2 state of the (prober → target) exchange: `table` has one
/// entry per neighbor slot. `None` when `target` is not, or no longer,
/// a neighbor of `prober`.
pub(super) fn exchange<'a>(
    table: &'a mut Vec<Exchange>,
    neighbors: &NeighborSets,
    prober: usize,
    target: usize,
) -> Option<&'a mut Exchange> {
    let slot = neighbors.slot(prober, target)?;
    if table.len() != neighbors.slots() {
        // First use, or a row changed length and moved every slot.
        table.clear();
        table.resize_with(neighbors.slots(), Exchange::default);
    }
    let found = &mut table[slot];
    if found.pair != (prober, target) {
        *found = Exchange {
            pair: (prober, target),
            ..Exchange::default()
        };
    }
    Some(found)
}

/// Applies a v2 update of `expected` values through `dec`, mapping
/// refusals onto the wire statistics. A block of another length is
/// refused before the context sees it: it must not become a baseline,
/// let alone an acked one. `None` means the update was dropped; after
/// a stale baseline, recovery rides the next ack's `want_keyframe`.
fn apply_update(
    dec: &mut DecoderContext,
    update: &CoordUpdate,
    expected: usize,
    stats: &mut WireStats,
) -> Option<Block<f64>> {
    if update.rank() != expected {
        stats.decode_errors += 1;
        return None;
    }
    let gaps_before = dec.gaps_detected();
    let applied = dec.apply(update).map(Block::from);
    stats.gaps_detected += dec.gaps_detected() - gaps_before;
    match applied {
        Ok(coords) => Some(coords),
        Err(ContextError::StaleBaseline { .. }) => {
            stats.stale_deltas += 1;
            None
        }
        Err(ContextError::RankMismatch { .. }) => {
            stats.decode_errors += 1;
            None
        }
    }
}

impl SimnetDriver {
    /// Counts and sends one encoded datagram through the simnet.
    fn send_wire(&mut self, from: usize, to: usize, bytes: Vec<u8>) {
        self.wire_stats.messages_sent += 1;
        self.wire_stats.bytes_sent += bytes.len() as u64;
        self.net.send(from, to, Msg::Wire(bytes));
    }

    /// A recycled datagram buffer, or a new one roomy enough for any v2
    /// datagram at an inline rank, so that recycling settles at once.
    fn take_buf(&mut self) -> Vec<u8> {
        self.free_bufs
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(96))
    }

    fn send_v1(&mut self, from: usize, to: usize, msg: &Message) {
        let mut bytes = self.take_buf();
        bytes.clear();
        bytes.extend_from_slice(&encode(msg));
        self.send_wire(from, to, bytes);
    }

    fn send_v2(&mut self, from: usize, to: usize, msg: &MessageV2) {
        if msg.update().is_some_and(|update| update.is_keyframe()) {
            self.wire_stats.keyframes_sent += 1;
        }
        let mut bytes = self.take_buf();
        encode_v2_into(msg, &mut bytes);
        self.send_wire(from, to, bytes);
    }

    /// Wire-mode probe firing at node `i`: draw the neighbor, encode
    /// the probe in the configured version, remember the RTT pending
    /// entry, and put the bytes on the (lossy, delayed) network.
    pub(super) fn fire_wire_probe(
        &mut self,
        session: &mut Session,
        version: WireVersion,
        i: usize,
        now: f64,
    ) {
        let j = session.neighbors.sample_neighbor(i, &mut session.rng);
        self.fused.stats.probes_sent += 1;
        self.wire_nonce += 1;
        let nonce = self.wire_nonce;
        if self.dataset.metric == Metric::Rtt {
            self.note_rtt_probe(session, i, j, now);
        }
        match (version, self.dataset.metric) {
            (WireVersion::V1, Metric::Rtt) => self.send_v1(i, j, &Message::RttProbe { nonce }),
            (WireVersion::V1, Metric::Abw) => {
                let probe = Message::AbwProbe {
                    nonce,
                    rate_mbps: self.fused.tau,
                    u: session.nodes[i].coords.u.to_vec(),
                };
                self.send_v1(i, j, &probe);
            }
            (WireVersion::V2, metric) => {
                let ex = exchange(&mut self.exchanges, &session.neighbors, i, j)
                    .expect("j was drawn from i's neighbors");
                ex.prefetch();
                let nonce = nonce as u32;
                let ack = ex.reply.dec.ack();
                let probe = match metric {
                    Metric::Rtt => MessageV2::RttProbe { nonce, ack },
                    Metric::Abw => MessageV2::AbwProbe {
                        nonce,
                        rate_mbps: self.fused.tau,
                        ack,
                        update: ex.probe.enc.encode(&session.nodes[i].coords.u),
                    },
                };
                self.send_v2(i, j, &probe);
            }
        }
    }

    /// Wire-mode dispatch: decode the datagram and run the same
    /// Algorithm 1/2 steps as the native handlers, through the codec
    /// (v1) or the codec plus per-pair contexts (v2). Mirrors the UDP
    /// agent's dispatch; replies always use the version the probe
    /// spoke.
    pub(super) fn handle_wire(
        &mut self,
        session: &mut Session,
        now: f64,
        from: usize,
        to: usize,
        bytes: &[u8],
    ) {
        if !session.is_alive(to) {
            return;
        }
        let msg = match decode_any(bytes) {
            Ok(msg) => msg,
            Err(_) => {
                self.wire_stats.decode_errors += 1;
                return;
            }
        };
        let rank = session.config.rank;
        let params = session.config.sgd;
        match msg {
            WireMessage::V1(Message::RttProbe { nonce }) => {
                let (u, v) = session.nodes[to].rtt_reply();
                let reply = Message::RttReply {
                    nonce,
                    u: u.to_vec(),
                    v: v.to_vec(),
                };
                self.send_v1(to, from, &reply);
            }
            WireMessage::V1(Message::RttReply { u, v, .. }) => {
                if u.len() != rank || v.len() != rank {
                    self.wire_stats.decode_errors += 1;
                    return;
                }
                self.complete_rtt_cycle(session, now, to, from, &u, &v);
            }
            WireMessage::V1(Message::AbwProbe { nonce, u, .. }) => {
                if u.len() != rank {
                    self.wire_stats.decode_errors += 1;
                    return;
                }
                let Some(x) = self.abw_prober.probe_class(
                    &self.dataset,
                    from,
                    to,
                    self.fused.tau,
                    &mut session.rng,
                ) else {
                    return;
                };
                let v = session.nodes[to].on_abw_probe(x, &u, &params);
                let reply = Message::AbwReply {
                    nonce,
                    x,
                    v: v.to_vec(),
                };
                self.send_v1(to, from, &reply);
            }
            WireMessage::V1(Message::AbwReply { x, v, .. }) => {
                if v.len() != rank {
                    self.wire_stats.decode_errors += 1;
                    return;
                }
                session.nodes[to].on_abw_reply(x, &v, &params);
                session.measurements += 1;
                self.fused.stats.measurements_completed += 1;
            }
            WireMessage::V2(MessageV2::RttProbe { nonce, ack }) => {
                let Some(ex) = exchange(&mut self.exchanges, &session.neighbors, from, to) else {
                    return;
                };
                let enc = &mut ex.reply.enc;
                if let Some(ack) = ack {
                    enc.on_ack(ack);
                }
                // One update block carries u ‖ v under one sequence.
                let coords = &session.nodes[to].coords;
                let mut block = Block::zeros(coords.u.len() + coords.v.len());
                let (u, v) = block.split_at_mut(coords.u.len());
                u.copy_from_slice(&coords.u);
                v.copy_from_slice(&coords.v);
                let update = enc.encode(&block);
                self.send_v2(to, from, &MessageV2::RttReply { nonce, update });
            }
            WireMessage::V2(MessageV2::RttReply { update, .. }) => {
                let Some(ex) = exchange(&mut self.exchanges, &session.neighbors, to, from) else {
                    return;
                };
                let dec = &mut ex.reply.dec;
                let Some(coords) = apply_update(dec, &update, 2 * rank, &mut self.wire_stats)
                else {
                    return;
                };
                let (u, v) = coords.split_at(rank);
                self.complete_rtt_cycle(session, now, to, from, u, v);
            }
            WireMessage::V2(MessageV2::AbwProbe {
                nonce, ack, update, ..
            }) => {
                let Some(ex) = exchange(&mut self.exchanges, &session.neighbors, from, to) else {
                    return;
                };
                if let Some(ack) = ack {
                    ex.reply.enc.on_ack(ack);
                }
                let dec = &mut ex.probe.dec;
                let Some(u) = apply_update(dec, &update, rank, &mut self.wire_stats) else {
                    return;
                };
                let reply_ack = dec.ack();
                let Some(x) = self.abw_prober.probe_class(
                    &self.dataset,
                    from,
                    to,
                    self.fused.tau,
                    &mut session.rng,
                ) else {
                    return;
                };
                let v = session.nodes[to].on_abw_probe(x, &u, &params);
                let reply = MessageV2::AbwReply {
                    nonce,
                    x,
                    ack: reply_ack,
                    update: ex.reply.enc.encode(&v),
                };
                self.send_v2(to, from, &reply);
            }
            WireMessage::V2(MessageV2::AbwReply { x, ack, update, .. }) => {
                let Some(ex) = exchange(&mut self.exchanges, &session.neighbors, to, from) else {
                    return;
                };
                if let Some(ack) = ack {
                    ex.probe.enc.on_ack(ack);
                }
                let dec = &mut ex.reply.dec;
                let Some(v) = apply_update(dec, &update, rank, &mut self.wire_stats) else {
                    return;
                };
                session.nodes[to].on_abw_reply(x, &v, &params);
                session.measurements += 1;
                self.fused.stats.measurements_completed += 1;
            }
        }
    }
}
