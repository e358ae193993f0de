//! The per-node UDP event loop.
//!
//! Each agent owns one transport endpoint and one [`DmfsgdNode`]. The
//! loop alternates between:
//!
//! 1. receiving datagrams (with a short read timeout so the loop stays
//!    responsive) and dispatching them through the Algorithm 1/2
//!    handlers;
//! 2. firing a probe at a random neighbor whenever the probe interval
//!    has elapsed;
//! 3. retransmitting outstanding probes whose per-probe timeout
//!    expired, with jittered exponential backoff and a bounded retry
//!    budget.
//!
//! Datagrams that fail to decode are counted and dropped — a hostile
//! or corrupted packet cannot crash an agent (see the codec's
//! fault-model tests). Replies are matched to probes by nonce;
//! unsolicited or stale replies are ignored, so duplicated or
//! reordered UDP delivery is harmless.
//!
//! # Wire versions
//!
//! An agent *probes* in its configured [`WireVersion`] but *replies*
//! in whatever version the incoming probe spoke — that single rule is
//! the whole of version negotiation, and it lets v1 and v2 agents
//! coexist in one cluster. On v2, coordinates travel as quantized
//! delta/keyframe updates through per-peer
//! [`EncoderContext`]/[`DecoderContext`] pairs: lost datagrams show up
//! as sequence gaps, stale deltas are dropped (never half-applied),
//! and the decoder's piggybacked ack asks for a keyframe to resync.

use crate::metrics::AgentMetricsSlot;
use crate::oracle::MeasurementOracle;
use crate::transport::Transport;
use dmf_core::coords::dot;
use dmf_core::{DmfsgdConfig, DmfsgdError, DmfsgdNode, MembershipError};
use dmf_datasets::Metric;
use dmf_proto::{
    decode_any, encode, encode_v2, Block, ContextError, CoordUpdate, DecoderContext,
    EncoderContext, Message, MessageV2, WireMessage, WireVersion,
};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counters reported by an agent after shutdown.
#[derive(Clone, Copy, Debug, Default)]
pub struct AgentStats {
    /// Probes sent (first transmissions; retries counted separately).
    pub probes_sent: usize,
    /// SGD updates applied (prober side).
    pub updates_applied: usize,
    /// Datagrams that failed to decode (or carried a wrong rank).
    pub decode_errors: usize,
    /// Replies that matched no outstanding probe.
    pub unmatched_replies: usize,
    /// Probe retransmissions after a timeout.
    pub retries: usize,
    /// Probes abandoned after exhausting the retry budget.
    pub probes_abandoned: usize,
    /// Outstanding entries evicted oldest-first to bound the table.
    pub evictions: usize,
    /// Sequence gaps observed across all per-peer decoder contexts.
    pub gaps_detected: u64,
    /// Keyframes sent across all per-peer encoder contexts.
    pub keyframes_sent: u64,
    /// Deltas dropped because their baseline was no longer held.
    pub stale_deltas: usize,
    /// Application bytes handed to the transport.
    pub bytes_sent: u64,
    /// Application bytes received from the transport.
    pub bytes_received: u64,
}

impl AgentStats {
    /// Adds another agent's (or run's) counters into this one —
    /// how a fleet slot accumulates totals across leave/rejoin
    /// cycles, and how a cluster folds per-agent stats into one dump.
    pub fn merge(&mut self, other: &Self) {
        self.probes_sent += other.probes_sent;
        self.updates_applied += other.updates_applied;
        self.decode_errors += other.decode_errors;
        self.unmatched_replies += other.unmatched_replies;
        self.retries += other.retries;
        self.probes_abandoned += other.probes_abandoned;
        self.evictions += other.evictions;
        self.gaps_detected += other.gaps_detected;
        self.keyframes_sent += other.keyframes_sent;
        self.stale_deltas += other.stale_deltas;
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
    }
}

/// Everything an agent thread needs to run.
pub struct AgentHandle<T: Transport = std::net::UdpSocket> {
    /// The node this agent embodies — its starting coordinates. A
    /// fresh node for a cold start, or a trained one when the agent
    /// resumes a [`dmf_core::Session`] (see
    /// [`crate::driver::UdpDriver`]).
    pub node: DmfsgdNode,
    /// Bound transport (already non-blocking via a read timeout on
    /// the underlying socket).
    pub socket: T,
    /// Peer addresses indexed by node id.
    pub peers: Vec<SocketAddr>,
    /// Ids of this agent's neighbors.
    pub neighbors: Vec<usize>,
    /// Shared measurement oracle.
    pub oracle: Arc<MeasurementOracle>,
    /// Algorithm parameters.
    pub config: DmfsgdConfig,
    /// Cooperative stop flag.
    pub stop: Arc<AtomicBool>,
    /// Wall-clock probe period.
    pub probe_interval: Duration,
    /// Protocol version this agent probes in (replies always match
    /// the probe's version).
    pub wire: WireVersion,
    /// Per-probe reply timeout before a retransmission.
    pub probe_timeout: Duration,
    /// Retransmissions allowed per probe before it is abandoned.
    pub max_retries: u32,
    /// Optional live metrics mirror: the loop flushes its counters
    /// here every probe firing and records each applied update's
    /// (ground truth, pre-update score) pair into its quality window.
    /// `None` leaves the hot path untouched.
    pub metrics: Option<Arc<AgentMetricsSlot>>,
}

/// One in-flight probe awaiting its reply.
struct Outstanding {
    nonce: u64,
    target: usize,
    /// The encoded datagram, kept so a retry resends identical bytes
    /// (same nonce, same sequence state — re-encoding would burn a v2
    /// sequence number on a datagram that may still arrive).
    wire: Vec<u8>,
    first_sent: Instant,
    deadline: Instant,
    attempts: u32,
}

/// Runs the agent loop until the stop flag rises; returns the trained
/// node and the counters. `rng_seed` drives probe scheduling and
/// backoff jitter only — coordinates come in through the handle.
///
/// # Errors
/// Returns [`MembershipError::NoNeighbors`] (as a [`DmfsgdError`])
/// when the handle carries an empty neighbor set; transport failures
/// while probing are tolerated (UDP sends are best-effort), not
/// escalated.
pub fn run_agent<T: Transport>(
    handle: AgentHandle<T>,
    rng_seed: u64,
) -> Result<(DmfsgdNode, AgentStats), DmfsgdError> {
    let AgentHandle {
        mut node,
        socket,
        peers,
        neighbors,
        oracle,
        config,
        stop,
        probe_interval,
        wire,
        probe_timeout,
        max_retries,
        metrics,
    } = handle;
    let id = node.id;
    if neighbors.is_empty() {
        return Err(MembershipError::NoNeighbors { id }.into());
    }
    let mut rng = ChaCha8Rng::seed_from_u64(rng_seed);
    let params = config.sgd;
    let metric = oracle.metric();
    let mut stats = AgentStats::default();

    // In-flight probes, bounded by oldest-first eviction.
    let mut outstanding: Vec<Outstanding> = Vec::new();
    let outstanding_cap = 4 * neighbors.len() + 16;
    let mut next_nonce: u64 = (id as u64) << 32;
    let mut last_probe = Instant::now() - probe_interval; // probe immediately
    let mut buf = [0u8; 4096];

    // Per-peer v2 contexts: encoders for coordinate streams this
    // agent sends, decoders for streams it receives.
    let mut enc_ctxs: HashMap<usize, EncoderContext> = HashMap::new();
    let mut dec_ctxs: HashMap<usize, DecoderContext> = HashMap::new();

    while !stop.load(Ordering::Relaxed) {
        let now = Instant::now();

        // -- fire a probe when due ------------------------------------
        if now.duration_since(last_probe) >= probe_interval {
            last_probe = now;
            let target = neighbors[rng.gen_range(0..neighbors.len())];
            next_nonce += 1;
            let nonce = next_nonce;
            // v2 nonces are u32 on the wire; the outstanding key must
            // match what the reply will carry back.
            let match_key = match wire {
                WireVersion::V1 => nonce,
                WireVersion::V2 => u64::from(nonce as u32),
            };
            let datagram: Vec<u8> = match (wire, metric) {
                (WireVersion::V1, Metric::Rtt) => encode(&Message::RttProbe { nonce }).to_vec(),
                (WireVersion::V1, Metric::Abw) => encode(&Message::AbwProbe {
                    nonce,
                    rate_mbps: oracle.tau(),
                    u: node.coords.u.to_vec(),
                })
                .to_vec(),
                (WireVersion::V2, Metric::Rtt) => {
                    let ack = dec_ctxs.get(&target).and_then(|d| d.ack());
                    encode_v2(&MessageV2::RttProbe {
                        nonce: nonce as u32,
                        ack,
                    })
                    .to_vec()
                }
                (WireVersion::V2, Metric::Abw) => {
                    let ack = dec_ctxs.get(&target).and_then(|d| d.ack());
                    let update = enc_ctxs.entry(target).or_default().encode(&node.coords.u);
                    encode_v2(&MessageV2::AbwProbe {
                        nonce: nonce as u32,
                        rate_mbps: oracle.tau(),
                        ack,
                        update,
                    })
                    .to_vec()
                }
            };
            // Keep the table bounded even under heavy reply loss:
            // evict the probe that has been in flight longest.
            if outstanding.len() >= outstanding_cap {
                if let Some(oldest) = outstanding
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, o)| o.first_sent)
                    .map(|(idx, _)| idx)
                {
                    outstanding.swap_remove(oldest);
                    stats.evictions += 1;
                }
            }
            if socket.send_to(&datagram, peers[target]).is_ok() {
                stats.probes_sent += 1;
                stats.bytes_sent += datagram.len() as u64;
            }
            outstanding.push(Outstanding {
                nonce: match_key,
                target,
                wire: datagram,
                first_sent: now,
                deadline: now + probe_timeout,
                attempts: 1,
            });
            // Once per probe period is frequent enough for a live
            // view and cheap enough (a dozen relaxed stores) not to
            // matter; the context counters are folded in so the live
            // mirror sees them without waiting for loop exit.
            if let Some(slot) = &metrics {
                let mut flushed = stats;
                flushed.gaps_detected = dec_ctxs.values().map(|d| d.gaps_detected()).sum();
                flushed.keyframes_sent = enc_ctxs.values().map(|e| e.keyframes_sent()).sum();
                slot.flush(&flushed);
            }
        }

        // -- retransmit expired probes (jittered backoff) -------------
        let mut idx = 0;
        while idx < outstanding.len() {
            if outstanding[idx].deadline > now {
                idx += 1;
                continue;
            }
            if outstanding[idx].attempts > max_retries {
                outstanding.swap_remove(idx);
                stats.probes_abandoned += 1;
                continue;
            }
            let entry = &mut outstanding[idx];
            entry.attempts += 1;
            // Exponential backoff with ±25% jitter so a cluster-wide
            // loss burst does not resynchronize every agent's retries.
            let backoff = probe_timeout.as_secs_f64()
                * f64::from(1u32 << (entry.attempts - 1).min(8))
                * rng.gen_range(0.75..1.25);
            entry.deadline = now + Duration::from_secs_f64(backoff);
            if socket.send_to(&entry.wire, peers[entry.target]).is_ok() {
                stats.retries += 1;
                stats.bytes_sent += entry.wire.len() as u64;
            }
            idx += 1;
        }

        // -- receive and dispatch -------------------------------------
        let (len, src) = match socket.recv_from(&mut buf) {
            Ok(ok) => ok,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => continue,
        };
        stats.bytes_received += len as u64;
        let msg = match decode_any(&buf[..len]) {
            Ok(m) => m,
            Err(_) => {
                stats.decode_errors += 1;
                continue;
            }
        };

        match msg {
            WireMessage::V1(msg) => handle_v1(
                msg,
                &mut node,
                &socket,
                src,
                &peers,
                &oracle,
                &config,
                &params,
                &mut outstanding,
                &mut stats,
                metrics.as_deref(),
            ),
            WireMessage::V2(msg) => handle_v2(
                msg,
                &mut node,
                &socket,
                src,
                &peers,
                &oracle,
                &config,
                &params,
                &mut outstanding,
                &mut enc_ctxs,
                &mut dec_ctxs,
                &mut stats,
                metrics.as_deref(),
            ),
        }
    }

    // Fold per-peer context counters into the agent totals.
    stats.gaps_detected = dec_ctxs.values().map(|d| d.gaps_detected()).sum();
    stats.keyframes_sent = enc_ctxs.values().map(|e| e.keyframes_sent()).sum();
    if let Some(slot) = &metrics {
        slot.flush(&stats);
    }

    Ok((node, stats))
}

fn take_outstanding(outstanding: &mut Vec<Outstanding>, nonce: u64) -> Option<usize> {
    let idx = outstanding.iter().position(|o| o.nonce == nonce)?;
    Some(outstanding.swap_remove(idx).target)
}

/// Algorithm 1/2 dispatch for a v1 datagram. Replies are v1: a peer
/// that probes in v1 is answered in v1.
#[allow(clippy::too_many_arguments)]
fn handle_v1<T: Transport>(
    msg: Message,
    node: &mut DmfsgdNode,
    socket: &T,
    src: SocketAddr,
    peers: &[SocketAddr],
    oracle: &MeasurementOracle,
    config: &DmfsgdConfig,
    params: &dmf_core::SgdParams,
    outstanding: &mut Vec<Outstanding>,
    stats: &mut AgentStats,
    metrics: Option<&AgentMetricsSlot>,
) {
    let id = node.id;
    match msg {
        Message::RttProbe { nonce } => {
            // Algorithm 1 step 2: reply with coordinates.
            let (u, v) = node.rtt_reply();
            let reply = encode(&Message::RttReply {
                nonce,
                u: u.to_vec(),
                v: v.to_vec(),
            });
            if socket.send_to(&reply, src).is_ok() {
                stats.bytes_sent += reply.len() as u64;
            }
        }
        Message::RttReply { nonce, u, v } => {
            // Steps 3–4: measure (via oracle) and update.
            let Some(target) = take_outstanding(outstanding, nonce) else {
                stats.unmatched_replies += 1;
                return;
            };
            if u.len() != config.rank || v.len() != config.rank {
                stats.decode_errors += 1;
                return;
            }
            if let Some(x) = oracle.rtt_class(id, target) {
                if let Some(slot) = metrics {
                    slot.record_quality(x > 0.0, dot(&node.coords.u, &v));
                }
                node.on_rtt_measurement(x, &u, &v, params);
                stats.updates_applied += 1;
            }
        }
        Message::AbwProbe {
            nonce,
            rate_mbps: _,
            u,
        } => {
            // Algorithm 2 steps 2–4 at the target. The prober's id
            // is recovered from its source address.
            let Some(prober) = peers.iter().position(|&p| p == src) else {
                return; // unknown sender
            };
            if u.len() != config.rank {
                stats.decode_errors += 1;
                return;
            }
            let Some(x) = oracle.abw_class(prober, id) else {
                return;
            };
            let v = node.on_abw_probe(x, &u, params);
            let reply = encode(&Message::AbwReply {
                nonce,
                x,
                v: v.to_vec(),
            });
            if socket.send_to(&reply, src).is_ok() {
                stats.bytes_sent += reply.len() as u64;
            }
        }
        Message::AbwReply { nonce, x, v } => {
            // Step 5 at the prober.
            if take_outstanding(outstanding, nonce).is_none() {
                stats.unmatched_replies += 1;
                return;
            }
            if v.len() != config.rank {
                stats.decode_errors += 1;
                return;
            }
            if let Some(slot) = metrics {
                slot.record_quality(x > 0.0, dot(&node.coords.u, &v));
            }
            node.on_abw_reply(x, &v, params);
            stats.updates_applied += 1;
        }
    }
}

/// Applies a v2 update of `expected` values through `dec`, counting a
/// refusal in `stats`. A block of another length is refused before the
/// context sees it: it must not become a baseline, let alone an acked
/// one. After a stale delta the next probe's ack carries
/// `want_keyframe`.
fn apply_update(
    dec: &mut DecoderContext,
    update: &CoordUpdate,
    expected: usize,
    stats: &mut AgentStats,
) -> Option<Block<f64>> {
    if update.rank() != expected {
        stats.decode_errors += 1;
        return None;
    }
    match dec.apply(update) {
        Ok(coords) => Some(coords.into()),
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

/// Algorithm 1/2 dispatch for a v2 datagram: quantized updates
/// through the per-peer contexts, acks fed back to the encoders.
#[allow(clippy::too_many_arguments)]
fn handle_v2<T: Transport>(
    msg: MessageV2,
    node: &mut DmfsgdNode,
    socket: &T,
    src: SocketAddr,
    peers: &[SocketAddr],
    oracle: &MeasurementOracle,
    config: &DmfsgdConfig,
    params: &dmf_core::SgdParams,
    outstanding: &mut Vec<Outstanding>,
    enc_ctxs: &mut HashMap<usize, EncoderContext>,
    dec_ctxs: &mut HashMap<usize, DecoderContext>,
    stats: &mut AgentStats,
    metrics: Option<&AgentMetricsSlot>,
) {
    let id = node.id;
    match msg {
        MessageV2::RttProbe { nonce, ack } => {
            let Some(prober) = peers.iter().position(|&p| p == src) else {
                return; // unknown sender
            };
            let enc = enc_ctxs.entry(prober).or_default();
            if let Some(ack) = ack {
                enc.on_ack(ack);
            }
            // One update block carries u ‖ v under one sequence number.
            let (u, v) = node.rtt_reply();
            let coords: Block<f64> = u.iter().chain(v.iter()).copied().collect();
            let update = enc.encode(&coords);
            let reply = encode_v2(&MessageV2::RttReply { nonce, update });
            if socket.send_to(&reply, src).is_ok() {
                stats.bytes_sent += reply.len() as u64;
            }
        }
        MessageV2::RttReply { nonce, update } => {
            let Some(target) = take_outstanding(outstanding, u64::from(nonce)) else {
                stats.unmatched_replies += 1;
                return;
            };
            let dec = dec_ctxs.entry(target).or_default();
            let Some(coords) = apply_update(dec, &update, 2 * config.rank, stats) else {
                return;
            };
            let (u, v) = coords.split_at(config.rank);
            if let Some(x) = oracle.rtt_class(id, target) {
                if let Some(slot) = metrics {
                    slot.record_quality(x > 0.0, dot(&node.coords.u, v));
                }
                node.on_rtt_measurement(x, u, v, params);
                stats.updates_applied += 1;
            }
        }
        MessageV2::AbwProbe {
            nonce,
            rate_mbps: _,
            ack,
            update,
        } => {
            let Some(prober) = peers.iter().position(|&p| p == src) else {
                return; // unknown sender
            };
            // The probe's ack confirms our v-stream toward the prober.
            if let Some(ack) = ack {
                enc_ctxs.entry(prober).or_default().on_ack(ack);
            }
            let dec = dec_ctxs.entry(prober).or_default();
            let Some(u) = apply_update(dec, &update, config.rank, stats) else {
                return;
            };
            let reply_ack = dec.ack();
            let Some(x) = oracle.abw_class(prober, id) else {
                return;
            };
            let v = node.on_abw_probe(x, &u, params);
            let update = enc_ctxs.entry(prober).or_default().encode(&v);
            let reply = encode_v2(&MessageV2::AbwReply {
                nonce,
                x,
                ack: reply_ack,
                update,
            });
            if socket.send_to(&reply, src).is_ok() {
                stats.bytes_sent += reply.len() as u64;
            }
        }
        MessageV2::AbwReply {
            nonce,
            x,
            ack,
            update,
        } => {
            let Some(target) = take_outstanding(outstanding, u64::from(nonce)) else {
                stats.unmatched_replies += 1;
                return;
            };
            // The reply's ack confirms our u-stream toward the target.
            if let Some(ack) = ack {
                enc_ctxs.entry(target).or_default().on_ack(ack);
            }
            let dec = dec_ctxs.entry(target).or_default();
            let Some(v) = apply_update(dec, &update, config.rank, stats) else {
                return;
            };
            if let Some(slot) = metrics {
                slot.record_quality(x > 0.0, dot(&node.coords.u, &v));
            }
            node.on_abw_reply(x, &v, params);
            stats.updates_applied += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrong_rank_update_never_reaches_the_decoder() {
        let mut dec = DecoderContext::new();
        let mut stats = AgentStats::default();
        let first = EncoderContext::new().encode(&[0.5; 20]);
        assert!(apply_update(&mut dec, &first, 20, &mut stats).is_some());
        let before = dec.clone();

        // A keyframe two values short, numbered so that the decoder
        // would take it as its newest.
        let mut short = EncoderContext::new().encode(&[0.25; 18]);
        short.seq = first.seq.wrapping_add(5);
        assert!(apply_update(&mut dec, &short, 20, &mut stats).is_none());
        assert_eq!(stats.decode_errors, 1);
        assert_eq!(dec.ack(), before.ack(), "the refused block was acked");
        assert_eq!(dec, before, "the refused block changed the decoder");
    }
}
