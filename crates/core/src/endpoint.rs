//! The datagram form of Algorithms 1 and 2, written once.
//!
//! An [`Endpoint`] takes one node from "a datagram from peer `p`
//! arrived" to "reply bytes ready" or "node trained": it decodes either
//! wire version ([`decode_any`]), refuses coordinates of the wrong
//! rank, runs the v2 contexts (acks in, updates applied with every
//! refusal counted in [`WireStats`], replies encoded) and takes the
//! [`DmfsgdNode`] step. It encodes the node's probes too, and every
//! datagram goes into a buffer the caller supplies. A reply follows the
//! version of the probe it answers, which lets v1 and v2 nodes share a
//! network.
//!
//! There is one endpoint and there are two transports: the simulator's
//! wire mode ([`SimnetDriver::with_wire_version`], which `probe-wire`
//! times) and the UDP agents of `dmf-agent`. Each supplies through
//! [`Link`] only what differs:
//!
//! | | simulator | UDP agent |
//! |---|---|---|
//! | where bytes go | `SimNet::send` | `Transport::send_to` |
//! | which probe a reply answers | the prober's pending entry for the sender | nonce and sender, with retries and eviction |
//! | the measurement | the simulated round trip (RTT), `probe::pathload` (ABW) | `MeasurementOracle` |
//! | where a peer's v2 contexts live | one table indexed by neighbor slot | per peer, one stream per direction and role |
//!
//! Both run the steps in one order: decode, apply the coordinates, then
//! match the reply to its probe. So a reply to an abandoned probe still
//! advances its stream's decoder instead of costing a gap and a
//! keyframe, and a reply from another peer than the probed one never
//! touches the probed peer's stream.
//!
//! [`SimnetDriver::with_wire_version`]: crate::runner::SimnetDriver::with_wire_version

use crate::config::DmfsgdConfig;
use crate::node::DmfsgdNode;
use dmf_datasets::Metric;
use dmf_proto::codec::{encode_into, encode_v2_into};
use dmf_proto::{
    decode_any, Block, ContextError, CoordUpdate, DecoderContext, EncoderContext, Message,
    MessageV2, WireMessage, WireVersion,
};

/// Byte and codec counters of an [`Endpoint`]: one node's in an agent,
/// every node's together in the simulator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Datagrams encoded for the transport (probes, replies, both
    /// directions).
    pub messages_sent: u64,
    /// Total encoded bytes handed to the transport.
    pub bytes_sent: u64,
    /// Datagrams that failed to decode or carried a wrong rank.
    pub decode_errors: u64,
    /// v2 deltas dropped because their baseline was no longer held.
    pub stale_deltas: u64,
    /// Sequence gaps observed across all decoder contexts.
    pub gaps_detected: u64,
    /// Keyframes sent across all encoder contexts.
    pub keyframes_sent: u64,
}

/// The prober's end of one (prober → target) v2 exchange.
#[derive(Debug, Default)]
pub struct ProberEnd {
    /// The prober's `u`, which ABW probes carry.
    pub probe_enc: EncoderContext,
    /// The target's replies: `u ‖ v` for RTT, `v` for ABW.
    pub reply_dec: DecoderContext,
}

/// The target's end of one (prober → target) v2 exchange.
#[derive(Debug, Default)]
pub struct TargetEnd {
    /// The prober's `u`, which ABW probes carry.
    pub probe_dec: DecoderContext,
    /// This node's replies to the prober.
    pub reply_enc: EncoderContext,
}

/// What a transport supplies to the [`Endpoint`] of one node (module
/// docs). Peers are node ids.
pub trait Link {
    /// The node's end of the exchange it runs as prober with `target`;
    /// `None` when `target` is not, or no longer, a neighbor.
    fn prober_end(&mut self, target: usize) -> Option<&mut ProberEnd>;

    /// The node's end of the exchange `prober` runs with it; `None`
    /// when the transport keeps none for `prober`.
    fn target_end(&mut self, prober: usize) -> Option<&mut TargetEnd>;

    /// Algorithm 2 at the target: the class of the path from `prober`,
    /// measured now, or `None` when it cannot be measured.
    fn abw_class(&mut self, prober: usize) -> Option<f64>;

    /// A reply to probe `nonce` arrived from `target` with the target's
    /// `v` and, for ABW, the class `carried` the target measured.
    /// Matches it to its probe and returns the class `node` trains on
    /// next (`carried`, or for RTT the transport's own measurement), or
    /// `None` to drop the reply.
    fn complete(
        &mut self,
        node: &DmfsgdNode,
        target: usize,
        nonce: u64,
        carried: Option<f64>,
        v: &[f64],
    ) -> Option<f64>;
}

/// One node's side of the wire protocol (module docs).
#[derive(Clone, Debug)]
pub struct Endpoint {
    version: WireVersion,
    metric: Metric,
    tau: f64,
    stats: WireStats,
}

impl Endpoint {
    /// An endpoint that probes in `version` for `metric`: Algorithm 1
    /// for RTT, Algorithm 2 for ABW, whose probes announce `tau` as
    /// their rate.
    pub fn new(version: WireVersion, metric: Metric, tau: f64) -> Self {
        Self {
            version,
            metric,
            tau,
            stats: WireStats::default(),
        }
    }

    /// The counters so far.
    pub fn stats(&self) -> WireStats {
        self.stats
    }

    /// Encodes into `out` the probe `node` sends to `target` under
    /// `nonce`. Returns the nonce as the reply will carry it: on v2,
    /// its low 32 bits.
    ///
    /// # Panics
    /// On v2, if `link` holds no prober end for `target`: probe
    /// neighbors only.
    pub fn probe(
        &mut self,
        link: &mut impl Link,
        node: &DmfsgdNode,
        target: usize,
        nonce: u64,
        out: &mut Vec<u8>,
    ) -> u64 {
        let (rate_mbps, u) = (self.tau, &node.coords.u);
        if self.version == WireVersion::V1 {
            let probe = match self.metric {
                Metric::Rtt => Message::RttProbe { nonce },
                Metric::Abw => Message::AbwProbe {
                    nonce,
                    rate_mbps,
                    u: u.to_vec(),
                },
            };
            self.put_v1(&probe, out);
            return nonce;
        }
        let end = link.prober_end(target).expect("a probe goes to a neighbor");
        let (nonce, ack) = (nonce as u32, end.reply_dec.ack());
        let probe = match self.metric {
            Metric::Rtt => MessageV2::RttProbe { nonce, ack },
            Metric::Abw => MessageV2::AbwProbe {
                nonce,
                rate_mbps,
                ack,
                update: end.probe_enc.encode(u),
            },
        };
        self.put_v2(&probe, out);
        u64::from(nonce)
    }

    /// Runs the Algorithm 1/2 step a datagram `from` a peer asks of
    /// `node`, whose rank and SGD parameters are `config`'s. Returns
    /// `true` when `out` holds the reply, for `from`.
    pub fn receive(
        &mut self,
        link: &mut impl Link,
        node: &mut DmfsgdNode,
        config: &DmfsgdConfig,
        from: usize,
        datagram: &[u8],
        out: &mut Vec<u8>,
    ) -> bool {
        out.clear();
        self.step(link, node, config, from, datagram, out);
        !out.is_empty()
    }

    /// [`receive`](Self::receive), every refusal a `None`.
    fn step(
        &mut self,
        link: &mut impl Link,
        node: &mut DmfsgdNode,
        config: &DmfsgdConfig,
        from: usize,
        datagram: &[u8],
        out: &mut Vec<u8>,
    ) -> Option<()> {
        let msg = decode_any(datagram)
            .inspect_err(|_| self.stats.decode_errors += 1)
            .ok()?;
        let (rank, params) = (config.rank, &config.sgd);
        match msg {
            WireMessage::V1(Message::RttProbe { nonce }) => {
                let (u, v) = (node.coords.u.to_vec(), node.coords.v.to_vec());
                self.put_v1(&Message::RttReply { nonce, u, v }, out);
            }
            WireMessage::V1(Message::RttReply { nonce, u, v }) => {
                self.check(u.len() == rank && v.len() == rank)?;
                let x = link.complete(node, from, nonce, None, &v)?;
                node.on_rtt_measurement(x, &u, &v, params);
            }
            WireMessage::V1(Message::AbwProbe { nonce, u, .. }) => {
                self.check(u.len() == rank)?;
                let x = link.abw_class(from)?;
                let v = node.on_abw_probe(x, &u, params).to_vec();
                self.put_v1(&Message::AbwReply { nonce, x, v }, out);
            }
            WireMessage::V1(Message::AbwReply { nonce, x, v }) => {
                self.check(v.len() == rank)?;
                let x = link.complete(node, from, nonce, Some(x), &v)?;
                node.on_abw_reply(x, &v, params);
            }
            WireMessage::V2(MessageV2::RttProbe { nonce, ack }) => {
                let end = link.target_end(from)?;
                if let Some(ack) = ack {
                    end.reply_enc.on_ack(ack);
                }
                // One update block carries u ‖ v under one sequence.
                let coords = &node.coords;
                let mut block = Block::zeros(coords.u.len() + coords.v.len());
                let (u, v) = block.split_at_mut(coords.u.len());
                u.copy_from_slice(&coords.u);
                v.copy_from_slice(&coords.v);
                let update = end.reply_enc.encode(&block);
                self.put_v2(&MessageV2::RttReply { nonce, update }, out);
            }
            WireMessage::V2(MessageV2::RttReply { nonce, update }) => {
                let end = link.prober_end(from)?;
                let coords = self.apply(&mut end.reply_dec, &update, 2 * rank)?;
                let (u, v) = coords.split_at(rank);
                let x = link.complete(node, from, nonce.into(), None, v)?;
                node.on_rtt_measurement(x, u, v, params);
            }
            WireMessage::V2(MessageV2::AbwProbe {
                nonce, ack, update, ..
            }) => {
                let end = link.target_end(from)?;
                if let Some(ack) = ack {
                    end.reply_enc.on_ack(ack);
                }
                let u = self.apply(&mut end.probe_dec, &update, rank)?;
                let ack = end.probe_dec.ack();
                let x = link.abw_class(from)?;
                let v = node.on_abw_probe(x, &u, params);
                // Looked up again: measuring needed the link.
                let update = link.target_end(from)?.reply_enc.encode(&v);
                let reply = MessageV2::AbwReply {
                    nonce,
                    x,
                    ack,
                    update,
                };
                self.put_v2(&reply, out);
            }
            WireMessage::V2(MessageV2::AbwReply {
                nonce,
                x,
                ack,
                update,
            }) => {
                let end = link.prober_end(from)?;
                if let Some(ack) = ack {
                    end.probe_enc.on_ack(ack);
                }
                let v = self.apply(&mut end.reply_dec, &update, rank)?;
                let x = link.complete(node, from, nonce.into(), Some(x), &v)?;
                node.on_abw_reply(x, &v, params);
            }
        }
        Some(())
    }

    /// A failed rank check, counted as a decode error.
    fn check(&mut self, rank_ok: bool) -> Option<()> {
        self.stats.decode_errors += u64::from(!rank_ok);
        rank_ok.then_some(())
    }

    /// Applies a v2 update of `expected` values through `dec`, counting
    /// a refusal. A block of another length is refused before the
    /// context sees it: it must not become a baseline, let alone an
    /// acked one. After a stale baseline, recovery rides the next ack's
    /// `want_keyframe`.
    fn apply(
        &mut self,
        dec: &mut DecoderContext,
        update: &CoordUpdate,
        expected: usize,
    ) -> Option<Block<f64>> {
        self.check(update.rank() == expected)?;
        let gaps_before = dec.gaps_detected();
        let applied = dec.apply(update).map(Block::from);
        self.stats.gaps_detected += dec.gaps_detected() - gaps_before;
        match applied {
            Ok(coords) => return Some(coords),
            Err(ContextError::StaleBaseline { .. }) => self.stats.stale_deltas += 1,
            Err(ContextError::RankMismatch { .. }) => self.stats.decode_errors += 1,
        }
        None
    }

    fn put_v1(&mut self, msg: &Message, out: &mut Vec<u8>) {
        encode_into(msg, out);
        self.stats.messages_sent += 1;
        self.stats.bytes_sent += out.len() as u64;
    }

    fn put_v2(&mut self, msg: &MessageV2, out: &mut Vec<u8>) {
        let keyframe = msg.update().is_some_and(CoordUpdate::is_keyframe);
        self.stats.keyframes_sent += u64::from(keyframe);
        encode_v2_into(msg, out);
        self.stats.messages_sent += 1;
        self.stats.bytes_sent += out.len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrong_rank_update_never_reaches_the_decoder() {
        let mut endpoint = Endpoint::new(WireVersion::V2, Metric::Rtt, 1.0);
        let mut dec = DecoderContext::new();
        let first = EncoderContext::new().encode(&[0.5; 20]);
        assert!(endpoint.apply(&mut dec, &first, 20).is_some());
        let before = dec.clone();

        // A keyframe two values short, numbered so that the decoder
        // would take it as its newest.
        let mut short = EncoderContext::new().encode(&[0.25; 18]);
        short.seq = first.seq.wrapping_add(5);
        assert!(endpoint.apply(&mut dec, &short, 20).is_none());
        assert_eq!(endpoint.stats().decode_errors, 1);
        assert_eq!(dec.ack(), before.ack(), "the refused block was acked");
        assert_eq!(dec, before, "the refused block changed the decoder");
    }
}
