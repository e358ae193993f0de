//! The per-node UDP event loop.
//!
//! Each agent owns one transport endpoint and one [`DmfsgdNode`]. The
//! loop alternates between:
//!
//! 1. receiving datagrams (with a short read timeout so the loop stays
//!    responsive) and handing them to the node's [`Endpoint`];
//! 2. firing a probe at a random neighbor whenever the probe interval
//!    has elapsed;
//! 3. retransmitting outstanding probes whose per-probe timeout
//!    expired, with jittered exponential backoff and a bounded retry
//!    budget.
//!
//! The protocol — decoding, rank checks, the v2 contexts, the SGD
//! steps, encoding, replies in the version of the probe — is
//! [`dmf_core::endpoint`], the code the simulator's wire mode runs too.
//! The agent supplies its transport: datagrams go out through
//! [`Transport::send_to`], a sender is resolved through the address
//! book (a stranger's datagram is dropped unread), a reply is matched
//! to its probe by nonce *and* sender, the measurement comes from the
//! [`MeasurementOracle`], and the v2 contexts live per peer, one stream
//! per direction and role: as prober, the agent's `u` (ABW) and the
//! peer's replies; as target, the peer's `u` and the agent's replies.
//!
//! Datagrams that fail to decode are counted and dropped — a hostile
//! or corrupted packet cannot crash an agent (see the codec's
//! fault-model tests). Unsolicited or stale replies are counted and
//! ignored, so duplicated or reordered UDP delivery is harmless.

use crate::metrics::AgentMetricsSlot;
use crate::oracle::MeasurementOracle;
use crate::transport::Transport;
use dmf_core::coords::dot;
use dmf_core::endpoint::{Endpoint, Link, ProberEnd, TargetEnd, WireStats};
use dmf_core::{DmfsgdConfig, DmfsgdError, DmfsgdNode, MembershipError};
use dmf_proto::WireVersion;
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

    /// The loop's transport counters completed with the endpoint's
    /// codec counters. The loop counts only retransmitted bytes itself:
    /// every datagram the endpoint encodes is in `wire.bytes_sent`.
    fn with_wire(self, wire: WireStats) -> Self {
        Self {
            decode_errors: wire.decode_errors as usize,
            gaps_detected: wire.gaps_detected,
            keyframes_sent: wire.keyframes_sent,
            stale_deltas: wire.stale_deltas as usize,
            bytes_sent: self.bytes_sent + wire.bytes_sent,
            ..self
        }
    }
}

/// Everything an agent thread needs to run.
pub struct AgentHandle<T: Transport = std::net::UdpSocket> {
    /// The node this agent embodies — its starting coordinates. A
    /// fresh node for a cold start, or the trained one a
    /// [`Fleet`](crate::fleet::Fleet) slot kept when it rejoins.
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
    /// Live metrics mirror: the loop flushes its counters here every
    /// probe firing and records each applied update's (ground truth,
    /// pre-update score) pair into its quality window.
    pub metrics: Arc<AgentMetricsSlot>,
}

/// One in-flight probe awaiting its reply.
struct Outstanding {
    /// The nonce as the reply carries it.
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

/// The agent's [`Link`]: per-peer contexts, probes matched by nonce and
/// sender, measurements from the oracle.
struct AgentLink<'a> {
    id: usize,
    oracle: &'a MeasurementOracle,
    metrics: Arc<AgentMetricsSlot>,
    /// The agent's ends of the exchanges it runs with each target.
    probing: HashMap<usize, ProberEnd>,
    /// Its ends of the exchanges each prober runs with it.
    serving: HashMap<usize, TargetEnd>,
    /// In-flight probes, bounded by oldest-first eviction.
    outstanding: Vec<Outstanding>,
    /// Transport counters (see [`AgentStats::with_wire`]).
    stats: AgentStats,
}

impl Link for AgentLink<'_> {
    fn prober_end(&mut self, target: usize) -> Option<&mut ProberEnd> {
        Some(self.probing.entry(target).or_default())
    }

    fn target_end(&mut self, prober: usize) -> Option<&mut TargetEnd> {
        Some(self.serving.entry(prober).or_default())
    }

    fn abw_class(&mut self, prober: usize) -> Option<f64> {
        self.oracle.measure_class(prober, self.id)
    }

    fn complete(
        &mut self,
        node: &DmfsgdNode,
        target: usize,
        nonce: u64,
        carried: Option<f64>,
        v: &[f64],
    ) -> Option<f64> {
        let Some(idx) = self
            .outstanding
            .iter()
            .position(|o| o.nonce == nonce && o.target == target)
        else {
            self.stats.unmatched_replies += 1;
            return None;
        };
        self.outstanding.swap_remove(idx);
        let x = carried.or_else(|| self.oracle.measure_class(self.id, target))?;
        self.metrics.record_quality(x > 0.0, dot(&node.coords.u, v));
        self.stats.updates_applied += 1;
        Some(x)
    }
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
    let (mut node, neighbors, peers) = (handle.node, &handle.neighbors, &handle.peers);
    let (socket, config, oracle) = (&handle.socket, &handle.config, &handle.oracle);
    let (probe_interval, probe_timeout) = (handle.probe_interval, handle.probe_timeout);
    let id = node.id;
    if neighbors.is_empty() {
        return Err(MembershipError::NoNeighbors { id }.into());
    }
    let mut rng = ChaCha8Rng::seed_from_u64(rng_seed);
    let mut endpoint = Endpoint::new(handle.wire, oracle.metric(), oracle.tau());
    let mut link = AgentLink {
        id,
        oracle,
        metrics: handle.metrics,
        probing: HashMap::new(),
        serving: HashMap::new(),
        outstanding: Vec::new(),
        stats: AgentStats::default(),
    };

    let outstanding_cap = 4 * neighbors.len() + 16;
    let mut next_nonce: u64 = (id as u64) << 32;
    let mut last_probe = Instant::now() - probe_interval; // probe immediately
    let mut buf = [0u8; 4096];
    let mut reply = Vec::new();

    while !handle.stop.load(Ordering::Relaxed) {
        let now = Instant::now();

        // -- fire a probe when due ------------------------------------
        if now.duration_since(last_probe) >= probe_interval {
            last_probe = now;
            let target = neighbors[rng.gen_range(0..neighbors.len())];
            next_nonce += 1;
            let mut datagram = Vec::new();
            let nonce = endpoint.probe(&mut link, &node, target, next_nonce, &mut datagram);
            // Keep the table bounded even under heavy reply loss:
            // evict the probe that has been in flight longest.
            let outstanding = &mut link.outstanding;
            if outstanding.len() >= outstanding_cap {
                let oldest = (0..outstanding.len()).min_by_key(|&i| outstanding[i].first_sent);
                outstanding.swap_remove(oldest.expect("a full table holds probes"));
                link.stats.evictions += 1;
            }
            if socket.send_to(&datagram, peers[target]).is_ok() {
                link.stats.probes_sent += 1;
            }
            outstanding.push(Outstanding {
                nonce,
                target,
                wire: datagram,
                first_sent: now,
                deadline: now + probe_timeout,
                attempts: 1,
            });
            // Once per probe period is frequent enough for a live
            // view and cheap enough (a dozen relaxed stores) not to
            // matter.
            link.metrics.flush(&link.stats.with_wire(endpoint.stats()));
        }

        // -- retransmit expired probes (jittered backoff) -------------
        let stats = &mut link.stats;
        link.outstanding.retain_mut(|entry| {
            if entry.deadline > now {
                return true;
            }
            if entry.attempts > handle.max_retries {
                stats.probes_abandoned += 1;
                return false;
            }
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
            true
        });

        // -- receive and dispatch -------------------------------------
        // A timeout (or any receive error) just loops.
        let Ok((len, src)) = socket.recv_from(&mut buf) else {
            continue;
        };
        link.stats.bytes_received += len as u64;
        let Some(from) = peers.iter().position(|&p| p == src) else {
            continue;
        };
        if endpoint.receive(&mut link, &mut node, config, from, &buf[..len], &mut reply) {
            // Best-effort like every UDP send; the bytes are counted.
            let _ = socket.send_to(&reply, src);
        }
    }

    let stats = link.stats.with_wire(endpoint.stats());
    link.metrics.flush(&stats);
    Ok((node, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmf_datasets::abw::hps3_like;
    use dmf_datasets::rtt::meridian_like;
    use dmf_datasets::Metric;
    use dmf_ops::LiveQuality;
    use dmf_proto::{decode_v2, DecoderContext};

    /// One agent's node, endpoint and link per node of `oracle`, without
    /// sockets: datagrams are handed across by the test.
    fn agents(
        oracle: &MeasurementOracle,
        version: WireVersion,
    ) -> (Vec<DmfsgdNode>, Vec<Endpoint>, Vec<AgentLink<'_>>) {
        let n = oracle.len();
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let rank = DmfsgdConfig::paper_defaults().rank;
        let nodes = (0..n).map(|i| DmfsgdNode::new(i, rank, &mut rng)).collect();
        let endpoint = Endpoint::new(version, oracle.metric(), oracle.tau());
        let link = |id| AgentLink {
            id,
            oracle,
            metrics: Arc::new(AgentMetricsSlot::new(Arc::new(LiveQuality::new(8)))),
            probing: HashMap::new(),
            serving: HashMap::new(),
            outstanding: Vec::new(),
            stats: AgentStats::default(),
        };
        let links = (0..n).map(link).collect();
        (nodes, vec![endpoint; n], links)
    }

    /// What the loop does when it fires: encode, remember, "send".
    fn probe(
        endpoint: &mut Endpoint,
        link: &mut AgentLink<'_>,
        node: &DmfsgdNode,
        target: usize,
        nonce: u64,
    ) -> Vec<u8> {
        let mut datagram = Vec::new();
        let nonce = endpoint.probe(link, node, target, nonce, &mut datagram);
        let now = Instant::now();
        link.outstanding.push(Outstanding {
            nonce,
            target,
            wire: datagram.clone(),
            first_sent: now,
            deadline: now + Duration::from_secs(1),
            attempts: 1,
        });
        datagram
    }

    #[test]
    fn a_live_nonce_from_another_peer_is_unmatched_and_the_probe_still_waits() {
        let dataset = meridian_like(3, 5);
        let oracle =
            MeasurementOracle::new(dataset.clone(), dataset.median(), 5).expect("valid tau");
        let config = DmfsgdConfig::paper_defaults();
        let mut out = Vec::new();
        for version in [WireVersion::V1, WireVersion::V2] {
            let (mut nodes, mut endpoints, mut links) = agents(&oracle, version);
            let datagram = probe(&mut endpoints[0], &mut links[0], &nodes[0], 1, 7);

            // Node 2 answers node 0's probe to node 1: its reply
            // carries the live nonce, but from the wrong address.
            let mut stray = Vec::new();
            assert!(endpoints[2].receive(
                &mut links[2],
                &mut nodes[2],
                &config,
                0,
                &datagram,
                &mut stray
            ));
            let before = nodes[0].clone();
            assert!(!endpoints[0].receive(
                &mut links[0],
                &mut nodes[0],
                &config,
                2,
                &stray,
                &mut out
            ));
            assert_eq!(links[0].stats.unmatched_replies, 1, "{version}");
            assert_eq!(
                links[0].outstanding.len(),
                1,
                "{version}: the probe was taken"
            );
            assert_eq!(nodes[0], before, "{version}: trained on a stranger's reply");
            let untouched = |end: &ProberEnd| end.reply_dec == DecoderContext::new();
            assert!(
                links[0].probing.get(&1).is_none_or(untouched),
                "{version}: the stray reply touched node 1's stream"
            );

            // Node 1's own reply still completes the probe.
            let mut answer = Vec::new();
            assert!(endpoints[1].receive(
                &mut links[1],
                &mut nodes[1],
                &config,
                0,
                &datagram,
                &mut answer
            ));
            assert!(!endpoints[0].receive(
                &mut links[0],
                &mut nodes[0],
                &config,
                1,
                &answer,
                &mut out
            ));
            assert!(links[0].outstanding.is_empty(), "{version}");
            assert_eq!(links[0].stats.updates_applied, 1, "{version}");
        }
    }

    #[test]
    fn mutual_neighbors_keep_probe_and_reply_streams_apart() {
        let dataset = hps3_like(12, 6);
        assert_eq!(dataset.metric, Metric::Abw);
        let (a, b) = dataset
            .mask
            .iter_known()
            .find(|&(i, j)| dataset.value(j, i).is_some())
            .expect("a pair measured both ways");
        let oracle =
            MeasurementOracle::new(dataset.clone(), dataset.median(), 6).expect("valid tau");
        let config = DmfsgdConfig::paper_defaults();
        let (mut nodes, mut endpoints, mut links) = agents(&oracle, WireVersion::V2);
        let seq = |datagram: &[u8]| {
            let msg = decode_v2(datagram).expect("well-formed");
            msg.update().expect("ABW datagrams carry coordinates").seq
        };

        // a's datagrams to b, by stream, over a random interleaving.
        let (mut probes, mut replies) = (Vec::new(), Vec::new());
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let rounds = 64;
        for nonce in 0..rounds {
            let (prober, target) = if rng.gen::<bool>() { (a, b) } else { (b, a) };
            let datagram = probe(
                &mut endpoints[prober],
                &mut links[prober],
                &nodes[prober],
                target,
                nonce,
            );
            let mut reply = Vec::new();
            assert!(endpoints[target].receive(
                &mut links[target],
                &mut nodes[target],
                &config,
                prober,
                &datagram,
                &mut reply
            ));
            let mut none = Vec::new();
            assert!(!endpoints[prober].receive(
                &mut links[prober],
                &mut nodes[prober],
                &config,
                target,
                &reply,
                &mut none
            ));
            if prober == a {
                probes.push(seq(&datagram));
            } else {
                replies.push(seq(&reply));
            }
        }
        let consecutive = |seqs: &[u16]| seqs.windows(2).all(|w| w[1] == w[0].wrapping_add(1));
        assert!(probes.len() > 10 && replies.len() > 10, "both roles ran");
        assert!(consecutive(&probes), "a's probes to b: {probes:?}");
        assert!(consecutive(&replies), "a's replies to b: {replies:?}");
        let applied = links[a].stats.updates_applied + links[b].stats.updates_applied;
        assert_eq!(applied, rounds as usize, "every reply matched and trained");
        for endpoint in [&endpoints[a], &endpoints[b]] {
            let stats = endpoint.stats();
            assert_eq!(
                stats.decode_errors + stats.stale_deltas + stats.gaps_detected,
                0
            );
        }
    }
}
