//! Fully decentralized execution over the simulated network.
//!
//! [`SimnetDriver`] is the simulated-network front-end of the
//! [`Driver`] trait: it drives the same
//! [`DmfsgdNode`] state machines held by a [`Session`], but every
//! protocol step is an actual message with latency (and optionally
//! loss) through [`dmf_simnet::SimNet`]:
//!
//! * **RTT (Algorithm 1)** — node `i` timestamps its probe; the RTT is
//!   *inferred from the simulated round-trip itself* (reply arrival −
//!   probe departure), exactly as ping infers it, then thresholded at
//!   `τ`.
//! * **ABW (Algorithm 2)** — the probe carries `u_i`; the *target*
//!   runs the pathload-style train against ground truth, updates
//!   `v_j`, and replies with `(x_ij, v_j)`.
//!
//! A probe timer per node fires every `probe_interval_s` (plus jitter)
//! and picks a uniform random neighbor — the Vivaldi-style schedule of
//! §5.3. Losing a reply simply loses one training opportunity; the
//! algorithm needs no reliability from the transport. Departed nodes
//! (see [`Session::leave`]) neither probe nor reply; their timer
//! chains idle until the slot rejoins.
//!
//! [`SimnetRunner`] bundles a private `Session` with a `SimnetDriver`
//! for the common build-train-evaluate flow; use the driver directly
//! when the session must outlive the transport (snapshots, mixed
//! front-ends).
//!
//! # Hot-path layout
//!
//! A probe/reply cycle is allocation-free after warmup: coordinate
//! snapshots ride the [`Msg`] enum as inline [`CoordVec`]s (rank ≤ 16
//! never touches the heap), outstanding RTT probes live in small
//! per-node scratch lists whose capacity is reused, and the event
//! queue recycles its payload slots. Outstanding-probe bookkeeping is
//! O(probes actually in flight) per node, not O(n²) in the population.
//! The same holds in wire mode over protocol v2: datagram buffers come
//! back from delivery to a free list, update blocks are inline, and
//! the per-pair contexts sit in one table indexed by the prober's
//! neighbor slot ([`NeighborSets::slot`](dmf_simnet::neighbors::NeighborSets::slot)).

use crate::config::DmfsgdConfig;
use crate::coords::CoordVec;
use crate::error::{ConfigError, DmfsgdError, MembershipError};
use crate::node::DmfsgdNode;
use crate::session::{Driver, Session, SessionBuilder};
use dmf_datasets::{Dataset, Metric};
use dmf_linalg::Matrix;
use dmf_proto::codec::encode_v2_into;
use dmf_proto::{
    decode_any, encode, Block, ContextError, CoordUpdate, DecoderContext, EncoderContext, Message,
    MessageV2, WireMessage, WireVersion,
};
use dmf_simnet::neighbors::NeighborSets;
use dmf_simnet::probe::PathloadProber;
use dmf_simnet::{NetConfig, SimNet};
use rand::Rng;

/// Protocol messages exchanged by DMFSGD nodes.
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    /// RTT probe (Algorithm 1, step 1).
    RttProbe,
    /// RTT reply carrying the target's coordinates (step 2).
    RttReply {
        /// `u_j` of the replying node.
        u: CoordVec,
        /// `v_j` of the replying node.
        v: CoordVec,
    },
    /// ABW probe carrying the prober's `u_i` and the probe rate
    /// (Algorithm 2, step 1).
    AbwProbe {
        /// `u_i` of the probing node.
        u: CoordVec,
    },
    /// ABW reply carrying the measured class and the target's
    /// pre-update `v_j` (step 3).
    AbwReply {
        /// The class label inferred at the target.
        x: f64,
        /// `v_j` snapshot.
        v: CoordVec,
    },
    /// Event-collapsed RTT round trip ([`ExchangeFidelity::Fused`]):
    /// delivered back at the prober when the reply would have arrived,
    /// carrying only the probe departure time.
    RttExchange {
        /// Simulated send time of the probe (seconds).
        sent_at: f64,
    },
    /// An encoded `dmf-proto` datagram (wire mode, see
    /// [`SimnetDriver::with_wire_version`]): the exact bytes a real
    /// agent would put on the network, decoded at delivery.
    Wire(Vec<u8>),
    /// Per-node probe timer.
    ProbeTick,
}

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

/// How the driver executes an RTT probe/reply exchange.
///
/// The two modes train on the same measurement stream — an RTT
/// inferred from two jittered, lossy one-way delays, classified at τ —
/// and differ only in event mechanics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExchangeFidelity {
    /// Every protocol message is its own queue delivery (three events
    /// per probe cycle; the reply carries the target's coordinate
    /// snapshot taken at probe arrival). This is the
    /// maximum-fidelity mode the ABW protocol always uses — there the
    /// *target* trains on probe arrival, so the intermediate delivery
    /// is observable.
    PerMessage,
    /// One completion event per round trip (default for RTT). Valid
    /// because an RTT probe has no observable effect at the target —
    /// node `j` only echoes its coordinates, it does not learn — so
    /// the probe leg needs no event of its own. The coordinates are
    /// read at exchange completion (one reply-flight-time fresher
    /// than in per-message mode, ~tens of simulated milliseconds;
    /// statistically indistinguishable, see the fidelity tests).
    /// Roughly 2× faster: two events per cycle instead of three and
    /// no coordinate payloads through the queue.
    #[default]
    Fused,
}

/// Statistics of a simulated run.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunnerStats {
    /// Probes sent.
    pub probes_sent: usize,
    /// Measurements completed (SGD updates at the prober side).
    pub measurements_completed: usize,
}

/// The transport surface the fused RTT protocol needs — satisfied by
/// both the single-queue [`SimNet`] and the sharded
/// [`dmf_simnet::ShardedSimNet`], so one implementation of the
/// protocol (probe firing, exchange completion, timer chaining)
/// drives both. Deliberately minimal: the fused path never uses
/// `send`, impairment hooks, or a ground-truth dataset.
pub(crate) trait RttTransport {
    /// Schedules a fused round trip departing at `at`; false = lost.
    fn roundtrip_at(&mut self, from: usize, to: usize, at: f64, msg: Msg) -> bool;
    /// Schedules a lossless timer after `delay` seconds.
    fn set_timer(&mut self, node: usize, delay: f64, msg: Msg);
    /// Schedules a lossless timer at absolute time `at`.
    fn set_timer_at(&mut self, node: usize, at: f64, msg: Msg);
}

impl RttTransport for SimNet<Msg> {
    fn roundtrip_at(&mut self, from: usize, to: usize, at: f64, msg: Msg) -> bool {
        SimNet::roundtrip_at(self, from, to, at, msg)
    }
    fn set_timer(&mut self, node: usize, delay: f64, msg: Msg) {
        SimNet::set_timer(self, node, delay, msg)
    }
    fn set_timer_at(&mut self, node: usize, at: f64, msg: Msg) {
        SimNet::set_timer_at(self, node, at, msg)
    }
}

impl RttTransport for dmf_simnet::ShardedSimNet<Msg> {
    fn roundtrip_at(&mut self, from: usize, to: usize, at: f64, msg: Msg) -> bool {
        dmf_simnet::ShardedSimNet::roundtrip_at(self, from, to, at, msg)
    }
    fn set_timer(&mut self, node: usize, delay: f64, msg: Msg) {
        dmf_simnet::ShardedSimNet::set_timer(self, node, delay, msg)
    }
    fn set_timer_at(&mut self, node: usize, at: f64, msg: Msg) {
        dmf_simnet::ShardedSimNet::set_timer_at(self, node, at, msg)
    }
}

/// Fused-mode probe departing node `i` at (current or future) time
/// `tick_at`: draws the neighbor and schedules the round trip. A lost
/// exchange would break the probe chain, so it falls back to a bare
/// timer that keeps the probe clock ticking.
pub(crate) fn fused_fire_probe<N: RttTransport>(
    net: &mut N,
    session: &mut Session,
    stats: &mut RunnerStats,
    probe_interval_s: f64,
    i: usize,
    tick_at: f64,
) {
    let j = session.neighbors.sample_neighbor(i, &mut session.rng);
    stats.probes_sent += 1;
    if !net.roundtrip_at(i, j, tick_at, Msg::RttExchange { sent_at: tick_at }) {
        let jitter = 0.9 + 0.2 * session.rng.gen::<f64>();
        net.set_timer_at(i, tick_at + probe_interval_s * jitter, Msg::ProbeTick);
    }
}

/// Re-arms node `i`'s probe timer one jittered interval ahead.
pub(crate) fn fused_rearm_timer<N: RttTransport>(
    net: &mut N,
    session: &mut Session,
    probe_interval_s: f64,
    i: usize,
) {
    let jitter = 0.9 + 0.2 * session.rng.gen::<f64>();
    net.set_timer(i, probe_interval_s * jitter, Msg::ProbeTick);
}

/// Fused steps 2–4 at node `i` (= `to`): the round trip against `j`
/// (= `from`) just completed at `now`; classify its duration at `tau`,
/// train against the target's live coordinates, and chain the next
/// probe.
#[allow(clippy::too_many_arguments)] // protocol state, not a config bag
pub(crate) fn fused_on_exchange<N: RttTransport>(
    net: &mut N,
    session: &mut Session,
    stats: &mut RunnerStats,
    probe_interval_s: f64,
    tau: f64,
    now: f64,
    i: usize,
    j: usize,
    sent_at: f64,
) {
    if !session.is_alive(i) {
        // Prober left with the exchange in flight: keep the probe
        // clock ticking for a future rejoin.
        fused_rearm_timer(net, session, probe_interval_s, i);
        return;
    }
    if session.is_alive(j) {
        let rtt_ms = (now - sent_at) * 1000.0;
        let x = Metric::Rtt.classify(rtt_ms, tau);
        let params = session.config.sgd;
        // Disjoint borrows of prober and target (i ≠ j by the
        // neighbor-set invariant) avoid snapshot copies.
        let (prober, target) = if i < j {
            let (lo, hi) = session.nodes.split_at_mut(j);
            (&mut lo[i], &hi[0])
        } else {
            let (lo, hi) = session.nodes.split_at_mut(i);
            (&mut hi[0], &lo[j])
        };
        prober.on_rtt_measurement(x, &target.coords.u, &target.coords.v, &params);
        session.measurements += 1;
        stats.measurements_completed += 1;
    }
    // Chain node i's next probe directly: one event per probe cycle
    // instead of a separate timer tick. The next tick nominally fires
    // at `sent_at + interval`, which lies beyond this completion
    // whenever the probe interval exceeds one RTT (the Vivaldi-style
    // regime); if a pathological config makes it land in the past,
    // fall back to an immediate timer so the schedule only ever
    // slips, never panics.
    let jitter = 0.9 + 0.2 * session.rng.gen::<f64>();
    let t_next = sent_at + probe_interval_s * jitter;
    if t_next > now {
        fused_fire_probe(net, session, stats, probe_interval_s, i, t_next);
    } else {
        net.set_timer(i, 0.0, Msg::ProbeTick);
    }
}

/// One direction of a v2 coordinate stream: the encoder at its sending
/// end and the decoder at its receiving end.
#[derive(Debug, Default)]
struct Stream {
    enc: EncoderContext,
    dec: DecoderContext,
}

/// v2 state of one (prober → target) exchange, both ends of it.
#[derive(Debug, Default)]
struct Exchange {
    /// `(prober, target)` the contexts belong to. Churn can hand a
    /// neighbor slot to another pair, which then starts afresh.
    pair: (usize, usize),
    /// Target → prober: `u ‖ v` in RTT replies, `v` in ABW replies.
    reply: Stream,
    /// Prober → target: `u` in ABW probes; RTT probes carry no
    /// coordinates.
    probe: Stream,
}

/// The v2 state of the (prober → target) exchange: `table` has one
/// entry per neighbor slot. `None` when `target` is not, or no longer,
/// a neighbor of `prober`.
fn exchange<'a>(
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

/// The simulated-network front-end: owns the transport (event queue,
/// latency/loss model, outstanding-probe bookkeeping) while the
/// [`Session`] owns the learning state. Advance it with
/// [`run_until`](Self::run_until) or through the [`Driver`] trait.
pub struct SimnetDriver {
    net: SimNet<Msg>,
    dataset: Dataset,
    tau: f64,
    /// Outstanding RTT probes per probing node: `(target, send time)`,
    /// at most one entry per target — a re-probe overwrites the
    /// timestamp, so a lost reply can never pair a stale entry with a
    /// fresh exchange. Sized by what is actually in flight (typically
    /// 0–2 entries, ≤ k under heavy loss), capacity reused for the
    /// whole run.
    pending_rtt: Vec<Vec<(usize, f64)>>,
    abw_prober: PathloadProber,
    probe_interval_s: f64,
    fidelity: ExchangeFidelity,
    /// Whether the per-node probe timers have been seeded (first run
    /// only — the chains re-arm themselves after that).
    timers_seeded: bool,
    /// Simulated seconds one [`Driver::round`] advances.
    quantum_s: f64,
    stats: RunnerStats,
    /// When set, every protocol leg travels as encoded `dmf-proto`
    /// bytes ([`Msg::Wire`]) in this version instead of native enum
    /// payloads.
    wire: Option<WireVersion>,
    wire_nonce: u64,
    /// v2 coordinate-stream state, one entry per neighbor slot (see
    /// [`exchange`]); empty until the first v2 datagram.
    exchanges: Vec<Exchange>,
    /// Datagram buffers back from delivery, for the next sends.
    free_bufs: Vec<Vec<u8>>,
    wire_stats: WireStats,
}

impl SimnetDriver {
    /// Builds the transport for `session` over `dataset` (whose metric
    /// decides Algorithm 1 vs 2). The classification threshold comes
    /// from the session (set it via
    /// [`SessionBuilder::tau`](crate::session::SessionBuilder::tau)).
    ///
    /// Message delays always need an RTT-like latency model; ABW
    /// datasets use a uniform control-plane delay instead.
    pub fn new(
        session: &Session,
        dataset: Dataset,
        net_config: NetConfig,
    ) -> Result<Self, DmfsgdError> {
        let tau = session.tau().ok_or(ConfigError::MissingTau)?;
        Self::with_tau(session, dataset, tau, net_config)
    }

    /// [`new`](Self::new) with an explicit threshold, overriding the
    /// session's τ.
    pub fn with_tau(
        session: &Session,
        dataset: Dataset,
        tau: f64,
        net_config: NetConfig,
    ) -> Result<Self, DmfsgdError> {
        ConfigError::check_tau(tau)?;
        let n = dataset.len();
        if n != session.len() {
            return Err(MembershipError::ProviderMismatch {
                provider: n,
                session: session.len(),
            }
            .into());
        }
        let net = if dataset.metric == Metric::Rtt {
            SimNet::from_rtt_dataset(&dataset, net_config)
        } else {
            SimNet::uniform(n, 0.04, net_config)
        };
        Ok(Self {
            net,
            dataset,
            tau,
            pending_rtt: (0..n).map(|_| Vec::with_capacity(4)).collect(),
            abw_prober: PathloadProber::default(),
            probe_interval_s: 1.0,
            fidelity: ExchangeFidelity::default(),
            timers_seeded: false,
            quantum_s: 10.0,
            stats: RunnerStats::default(),
            wire: None,
            wire_nonce: 0,
            exchanges: Vec::new(),
            free_bufs: Vec::new(),
            wire_stats: WireStats::default(),
        })
    }

    /// Sets the probe timer period (default 1 s).
    pub fn with_probe_interval(mut self, seconds: f64) -> Result<Self, DmfsgdError> {
        let valid = seconds.is_finite() && seconds > 0.0;
        if !valid {
            return Err(ConfigError::ProbeInterval { seconds }.into());
        }
        self.probe_interval_s = seconds;
        Ok(self)
    }

    /// Sets the simulated seconds one [`Driver::round`] advances
    /// (default 10 s).
    pub fn with_quantum(mut self, seconds: f64) -> Result<Self, DmfsgdError> {
        let valid = seconds.is_finite() && seconds > 0.0;
        if !valid {
            return Err(ConfigError::Duration { seconds }.into());
        }
        self.quantum_s = seconds;
        Ok(self)
    }

    /// Selects how RTT exchanges execute (default
    /// [`ExchangeFidelity::Fused`]; ABW always runs per-message).
    pub fn with_exchange_fidelity(mut self, fidelity: ExchangeFidelity) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// Routes every protocol leg through the real `dmf-proto` codec:
    /// probes and replies travel as encoded datagrams ([`Msg::Wire`])
    /// in `version`, decoded at delivery, with v2 runs maintaining
    /// per-pair encoder/decoder contexts exactly like the UDP agents.
    /// Implies per-message event flow — the fused RTT shortcut never
    /// applies, since every leg must be a datagram to be counted in
    /// [`wire_stats`](Self::wire_stats).
    pub fn with_wire_version(mut self, version: WireVersion) -> Self {
        self.wire = Some(version);
        self
    }

    /// Run statistics.
    pub fn stats(&self) -> RunnerStats {
        self.stats
    }

    /// Byte-level statistics of a wire-mode run (all zeros unless
    /// [`with_wire_version`](Self::with_wire_version) was set).
    pub fn wire_stats(&self) -> WireStats {
        self.wire_stats
    }

    /// Current simulated time (the timestamp of the last delivered
    /// event; 0 before the first).
    pub fn now(&self) -> f64 {
        self.net.now()
    }

    // ---- scenario impairment hooks ----------------------------------
    //
    // Non-stationary scenarios mutate the transport mid-run: loss
    // epochs, partitions, stragglers, and ground-truth re-embeddings
    // (drift, congestion). Each hook validates here and forwards to
    // the simnet layer, so the scenario harness never trips a panic.

    /// Replaces the message-loss probability (scenario loss epochs).
    pub fn set_loss_probability(&mut self, probability: f64) -> Result<(), DmfsgdError> {
        if !(0.0..=1.0).contains(&probability) {
            return Err(ConfigError::LossProbability { probability }.into());
        }
        self.net.set_loss_probability(probability);
        Ok(())
    }

    /// Partitions the network: `island` nodes exchange no messages
    /// with the rest until [`clear_partition`](Self::clear_partition)
    /// (island-internal traffic still flows; ground truth is
    /// unchanged). Replaces any previous partition. An island holding
    /// the whole population is rejected — the cut would be empty,
    /// silently inverting the caller's intent.
    pub fn set_partition(&mut self, island: &[usize]) -> Result<(), DmfsgdError> {
        let n = self.net.len();
        if let Some(&bad) = island.iter().find(|&&i| i >= n) {
            return Err(MembershipError::UnknownNode { id: bad, slots: n }.into());
        }
        let mut member = vec![false; n];
        for &i in island {
            member[i] = true;
        }
        if member.iter().all(|&m| m) {
            return Err(ConfigError::FullPartition { nodes: n }.into());
        }
        self.net.set_partition(island);
        Ok(())
    }

    /// Partitions the network into arbitrary connectivity classes
    /// (one entry per node; messages pass only between equal
    /// classes), so several islands can be mutually cut at once — the
    /// shape `dmf_datasets::scenario::Impairments::partition_classes`
    /// produces. An empty slice heals everything.
    pub fn set_partition_classes(&mut self, classes: &[u32]) -> Result<(), DmfsgdError> {
        let n = self.net.len();
        if !classes.is_empty() && classes.len() != n {
            return Err(MembershipError::ProviderMismatch {
                provider: classes.len(),
                session: n,
            }
            .into());
        }
        self.net.set_partition_classes(classes);
        Ok(())
    }

    /// Heals any partition.
    pub fn clear_partition(&mut self) {
        self.net.clear_partition();
    }

    /// Multiplies every message leg touching `node` by `factor`
    /// (straggler injection; `1.0` restores the node).
    pub fn set_delay_factor(&mut self, node: usize, factor: f64) -> Result<(), DmfsgdError> {
        let n = self.net.len();
        if node >= n {
            return Err(MembershipError::UnknownNode { id: node, slots: n }.into());
        }
        if !(factor.is_finite() && factor > 0.0) {
            return Err(ConfigError::DelayFactor { factor }.into());
        }
        self.net.set_delay_factor(node, factor);
        Ok(())
    }

    /// Re-embeds the network on a new RTT ground truth (drift or
    /// congestion stepped the real delays): the delay table and the
    /// driver's dataset are replaced, so every message sent from now
    /// on — and therefore every measured RTT — reflects the new truth.
    /// Messages already in flight keep the delay they departed with.
    pub fn update_rtt_ground_truth(&mut self, dataset: Dataset) -> Result<(), DmfsgdError> {
        // Re-embedding needs an RTT-derived delay table on both sides:
        // an ABW driver has none, and a non-RTT truth defines none.
        // The error names whichever side is not RTT (the driver first).
        let offender = [self.dataset.metric, dataset.metric]
            .into_iter()
            .find(|&m| m != Metric::Rtt);
        if let Some(got) = offender {
            return Err(ConfigError::MetricMismatch {
                expected: Metric::Rtt,
                got,
            }
            .into());
        }
        if dataset.len() != self.net.len() {
            return Err(MembershipError::ProviderMismatch {
                provider: dataset.len(),
                session: self.net.len(),
            }
            .into());
        }
        self.net.set_one_way_delays_from_rtt(&dataset);
        self.dataset = dataset;
        Ok(())
    }

    /// Runs the protocol until simulated time `deadline_s`, starting
    /// all probe timers at jittered offsets on the first call. Returns
    /// the measurements completed during this call.
    ///
    /// Events scheduled past `deadline_s` stay queued: the simulated
    /// clock never overshoots the deadline, and a later call with a
    /// larger deadline picks up exactly where this one stopped. A
    /// non-finite deadline is rejected as [`ConfigError::Duration`].
    pub fn run_until(
        &mut self,
        session: &mut Session,
        deadline_s: f64,
    ) -> Result<usize, DmfsgdError> {
        ConfigError::check_deadline(deadline_s)?;
        if session.len() != self.net.len() {
            return Err(MembershipError::ProviderMismatch {
                provider: self.net.len(),
                session: session.len(),
            }
            .into());
        }
        let before = self.stats.measurements_completed;
        // Seed one probe timer per node on the first call only: every
        // timer chain re-arms itself, so a resumed run keeps the
        // configured probe rate instead of stacking a second chain.
        if !self.timers_seeded {
            self.timers_seeded = true;
            let n = self.net.len();
            for i in 0..n {
                let offset = session.rng.gen::<f64>() * self.probe_interval_s;
                self.net.set_timer(i, offset, Msg::ProbeTick);
            }
        }
        while let Some((now, delivery)) = self.net.next_delivery_before(deadline_s) {
            self.handle(session, now, delivery.from, delivery.to, delivery.msg);
        }
        Ok(self.stats.measurements_completed - before)
    }

    /// Fused-mode probe firing (shared with the sharded driver; see
    /// [`fused_fire_probe`]).
    fn fire_fused_probe(&mut self, session: &mut Session, i: usize, tick_at: f64) {
        fused_fire_probe(
            &mut self.net,
            session,
            &mut self.stats,
            self.probe_interval_s,
            i,
            tick_at,
        );
    }

    /// Re-arms node `i`'s probe timer one jittered interval ahead.
    fn rearm_timer(&mut self, session: &mut Session, i: usize) {
        fused_rearm_timer(&mut self.net, session, self.probe_interval_s, i);
    }

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

    /// Remembers that `i` probed `j` at `now`. One slot per target:
    /// re-probing a neighbor whose reply is still pending (or was
    /// lost) restarts its timestamp, so a stale entry can never pair
    /// with a fresh reply.
    fn note_rtt_probe(&mut self, i: usize, j: usize, now: f64) {
        let pending = &mut self.pending_rtt[i];
        match pending.iter_mut().find(|(target, _)| *target == j) {
            Some(entry) => entry.1 = now,
            None => pending.push((j, now)),
        }
    }

    /// Wire-mode probe firing at node `i`: draw the neighbor, encode
    /// the probe in the configured version, remember the RTT pending
    /// entry, and put the bytes on the (lossy, delayed) network.
    fn fire_wire_probe(&mut self, session: &mut Session, version: WireVersion, i: usize, now: f64) {
        let j = session.neighbors.sample_neighbor(i, &mut session.rng);
        self.stats.probes_sent += 1;
        self.wire_nonce += 1;
        let nonce = self.wire_nonce;
        if self.dataset.metric == Metric::Rtt {
            self.note_rtt_probe(i, j, now);
        }
        match (version, self.dataset.metric) {
            (WireVersion::V1, Metric::Rtt) => self.send_v1(i, j, &Message::RttProbe { nonce }),
            (WireVersion::V1, Metric::Abw) => {
                let probe = Message::AbwProbe {
                    nonce,
                    rate_mbps: self.tau,
                    u: session.nodes[i].coords.u.to_vec(),
                };
                self.send_v1(i, j, &probe);
            }
            (WireVersion::V2, metric) => {
                let ex = exchange(&mut self.exchanges, &session.neighbors, i, j)
                    .expect("j was drawn from i's neighbors");
                let nonce = nonce as u32;
                let ack = ex.reply.dec.ack();
                let probe = match metric {
                    Metric::Rtt => MessageV2::RttProbe { nonce, ack },
                    Metric::Abw => MessageV2::AbwProbe {
                        nonce,
                        rate_mbps: self.tau,
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
    fn handle_wire(
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
                    self.tau,
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
                self.stats.measurements_completed += 1;
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
                let (u, v) = session.nodes[to].rtt_reply();
                let block: Block<f64> = u.iter().chain(v.iter()).copied().collect();
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
                    self.tau,
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
                self.stats.measurements_completed += 1;
            }
        }
    }

    /// RTT steps 3–4 at the prober `i`: pair the reply with its
    /// pending probe, infer the RTT from the measured round-trip time
    /// of this very exchange, classify at τ, and train.
    fn complete_rtt_cycle(
        &mut self,
        session: &mut Session,
        now: f64,
        i: usize,
        j: usize,
        u: &[f64],
        v: &[f64],
    ) {
        let pending = &mut self.pending_rtt[i];
        let Some(pos) = pending.iter().position(|&(target, _)| target == j) else {
            return; // duplicate or stale reply
        };
        let (_, sent_at) = pending.swap_remove(pos);
        let rtt_ms = (now - sent_at) * 1000.0;
        let x = Metric::Rtt.classify(rtt_ms, self.tau);
        let params = session.config.sgd;
        session.nodes[i].on_rtt_measurement(x, u, v, &params);
        session.measurements += 1;
        self.stats.measurements_completed += 1;
    }

    fn handle(&mut self, session: &mut Session, now: f64, from: usize, to: usize, msg: Msg) {
        match msg {
            Msg::ProbeTick => {
                let i = to;
                // A departed node keeps its timer chain idling (one
                // cheap self-event per interval) so a rejoined slot
                // resumes probing without external re-seeding.
                if !session.is_alive(i) {
                    self.rearm_timer(session, i);
                    return;
                }
                if let Some(version) = self.wire {
                    self.fire_wire_probe(session, version, i, now);
                    self.rearm_timer(session, i);
                    return;
                }
                if self.dataset.metric == Metric::Rtt && self.fidelity == ExchangeFidelity::Fused {
                    // The whole round trip is one future event (no
                    // outstanding-probe bookkeeping; the completion
                    // handler chains the next probe itself).
                    self.fire_fused_probe(session, i, now);
                    return;
                }
                let j = session.neighbors.sample_neighbor(i, &mut session.rng);
                self.stats.probes_sent += 1;
                match self.dataset.metric {
                    Metric::Rtt => {
                        self.note_rtt_probe(i, j, now);
                        self.net.send(i, j, Msg::RttProbe);
                    }
                    Metric::Abw => {
                        let u = session.nodes[i].coords.u.clone();
                        self.net.send(i, j, Msg::AbwProbe { u });
                    }
                }
                // Re-arm the timer.
                self.rearm_timer(session, i);
            }
            Msg::Wire(bytes) => {
                self.handle_wire(session, now, from, to, &bytes);
                self.free_bufs.push(bytes);
            }
            Msg::RttProbe => {
                // Step 2 at node j: reply with coordinates (departed
                // nodes answer no probes; the prober's pending entry
                // is overwritten by its next probe of that target).
                if !session.is_alive(to) {
                    return;
                }
                let (u, v) = session.nodes[to].rtt_reply();
                self.net.send(to, from, Msg::RttReply { u, v });
            }
            Msg::RttExchange { sent_at } => {
                // Fused steps 2–4 at node i (shared with the sharded
                // driver; see [`fused_on_exchange`]).
                fused_on_exchange(
                    &mut self.net,
                    session,
                    &mut self.stats,
                    self.probe_interval_s,
                    self.tau,
                    now,
                    to,
                    from,
                    sent_at,
                );
            }
            Msg::RttReply { u, v } => {
                // Steps 3–4 at node i.
                if session.is_alive(to) {
                    self.complete_rtt_cycle(session, now, to, from, &u, &v);
                }
            }
            Msg::AbwProbe { u } => {
                // Steps 2–4 at target j: measure, snapshot v_j, update.
                let j = to;
                let i = from;
                if !session.is_alive(j) {
                    return;
                }
                let Some(x) =
                    self.abw_prober
                        .probe_class(&self.dataset, i, j, self.tau, &mut session.rng)
                else {
                    return; // pair not in ground truth
                };
                let params = session.config.sgd;
                let v = session.nodes[j].on_abw_probe(x, &u, &params);
                self.net.send(j, i, Msg::AbwReply { x, v });
            }
            Msg::AbwReply { x, v } => {
                // Step 5 at node i.
                if !session.is_alive(to) {
                    return;
                }
                let params = session.config.sgd;
                session.nodes[to].on_abw_reply(x, &v, &params);
                session.measurements += 1;
                self.stats.measurements_completed += 1;
            }
        }
    }
}

impl std::fmt::Debug for SimnetDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimnetDriver")
            .field("nodes", &self.net.len())
            .field("metric", &self.dataset.metric)
            .field("tau", &self.tau)
            .field("probe_interval_s", &self.probe_interval_s)
            .field("fidelity", &self.fidelity)
            .field("quantum_s", &self.quantum_s)
            .field("wire", &self.wire)
            .field("now", &self.net.now())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Driver for SimnetDriver {
    /// One round = one quantum of simulated time (see
    /// [`with_quantum`](Self::with_quantum)).
    fn round(&mut self, session: &mut Session) -> Result<usize, DmfsgdError> {
        let deadline = self.net.now() + self.quantum_s;
        self.run_until(session, deadline)
    }
}

/// A DMFSGD deployment over the simulated network: a [`Session`]
/// bundled with its [`SimnetDriver`] for the common
/// build-train-evaluate flow.
#[derive(Debug)]
pub struct SimnetRunner {
    session: Session,
    driver: SimnetDriver,
}

impl SimnetRunner {
    /// Builds a runner over `dataset` (RTT or ABW decides the
    /// algorithm), classifying at `tau`.
    ///
    /// The internal session derives its RNG stream from
    /// `config.seed ^ 0x5117_babe` — kept from the historical runner
    /// so simulated runs stay reproducible across releases —
    /// distinguishing it from an oracle-driven session with the same
    /// seed.
    pub fn new(
        dataset: Dataset,
        tau: f64,
        config: DmfsgdConfig,
        net_config: NetConfig,
    ) -> Result<Self, DmfsgdError> {
        let mut session_config = config;
        session_config.seed ^= 0x5117_babe;
        let session = SessionBuilder::from_config(session_config)
            .nodes(dataset.len())
            .tau(tau)
            .build()?;
        let driver = SimnetDriver::new(&session, dataset, net_config)?;
        Ok(Self { session, driver })
    }

    /// Sets the probe timer period (default 1 s).
    pub fn with_probe_interval(mut self, seconds: f64) -> Result<Self, DmfsgdError> {
        self.driver = self.driver.with_probe_interval(seconds)?;
        Ok(self)
    }

    /// Selects how RTT exchanges execute (default
    /// [`ExchangeFidelity::Fused`]; ABW always runs per-message).
    pub fn with_exchange_fidelity(mut self, fidelity: ExchangeFidelity) -> Self {
        self.driver = self.driver.with_exchange_fidelity(fidelity);
        self
    }

    /// Routes every protocol leg through the real `dmf-proto` codec
    /// (see [`SimnetDriver::with_wire_version`]).
    pub fn with_wire_version(mut self, version: WireVersion) -> Self {
        self.driver = self.driver.with_wire_version(version);
        self
    }

    /// Byte-level statistics of a wire-mode run (see
    /// [`SimnetDriver::wire_stats`]).
    pub fn wire_stats(&self) -> WireStats {
        self.driver.wire_stats()
    }

    /// The underlying session (live coordinates, membership, queries).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Mutable access to the underlying session (membership changes
    /// between runs).
    pub fn session_mut(&mut self) -> &mut Session {
        &mut self.session
    }

    /// Splits the runner into its session and driver.
    pub fn into_parts(self) -> (Session, SimnetDriver) {
        (self.session, self.driver)
    }

    /// Immutable access to the nodes.
    pub fn nodes(&self) -> &[DmfsgdNode] {
        self.session.nodes()
    }

    /// Run statistics.
    pub fn stats(&self) -> RunnerStats {
        self.driver.stats()
    }

    /// Current simulated time (the timestamp of the last delivered
    /// event; 0 before the first).
    pub fn now(&self) -> f64 {
        self.driver.now()
    }

    /// Raw predictor score `u_i · v_j`.
    pub fn raw_score(&self, i: usize, j: usize) -> f64 {
        self.session.raw_score_unchecked(i, j)
    }

    /// Materializes all pairwise scores for evaluation as one batched
    /// `U·Vᵀ` product (bitwise-identical to evaluating
    /// [`raw_score`](Self::raw_score) per pair, orders of magnitude
    /// faster at population scale).
    pub fn predicted_scores(&self) -> Matrix {
        self.session.predicted_scores()
    }

    /// [`predicted_scores`](Self::predicted_scores) into an existing
    /// matrix, reusing its allocation across repeated evaluations.
    pub fn predicted_scores_into(&self, out: &mut Matrix) {
        self.session.predicted_scores_into(out);
    }

    /// Reference implementation of [`predicted_scores`]: one virtual
    /// per-pair dot at a time. Kept for the equivalence property tests
    /// and as documentation of the semantics.
    ///
    /// [`predicted_scores`]: Self::predicted_scores
    pub fn predicted_scores_naive(&self) -> Matrix {
        self.session.predicted_scores_naive()
    }

    /// Runs the protocol until simulated time `duration_s`, starting
    /// all probe timers at jittered offsets.
    ///
    /// Events scheduled past `duration_s` stay queued: the simulated
    /// clock never overshoots the deadline, and a later `run_for` with
    /// a larger deadline picks up exactly where this one stopped.
    pub fn run_for(&mut self, duration_s: f64) -> Result<usize, DmfsgdError> {
        let valid = duration_s.is_finite() && duration_s > 0.0;
        if !valid {
            return Err(ConfigError::Duration {
                seconds: duration_s,
            }
            .into());
        }
        self.driver.run_until(&mut self.session, duration_s)
    }

    /// Consumes the runner and returns the trained nodes. Evaluation
    /// works on [`predicted_scores`](Self::predicted_scores) directly.
    pub fn into_nodes(self) -> Vec<DmfsgdNode> {
        self.session.into_nodes()
    }
}

/// All pairwise scores `u_i · v_j` (diagonal zeroed) as one `U·Vᵀ`
/// product over coordinate rows packed contiguously.
pub(crate) fn batched_scores(nodes: &[DmfsgdNode]) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    batched_scores_into(nodes, &mut out);
    out
}

/// [`batched_scores`] into an existing matrix, reusing its allocation
/// (repeated evaluation never re-faults the n² buffer).
pub(crate) fn batched_scores_into(nodes: &[DmfsgdNode], out: &mut Matrix) {
    let n = nodes.len();
    if n == 0 {
        *out = Matrix::zeros(0, 0);
        return;
    }
    let r = nodes[0].coords.rank();
    // Fully allocation-free per call: all three operand views (U as
    // `lhs`, V as `rhs`, the kernels' streamed Vᵀ as `rhs_t`) are
    // packed into one reusable 64-byte-aligned thread-local scratch
    // and handed to the packed kernel entry point. Repeated evaluation
    // (convergence tracking, the repo benchmark) touches the allocator for
    // nothing but the first call's `out` buffer.
    dmf_linalg::simd::with_aligned_scratch(3 * n * r, |scratch| {
        let (ud, rest) = scratch.split_at_mut(n * r);
        let (vd, vt) = rest.split_at_mut(n * r);
        for (i, node) in nodes.iter().enumerate() {
            ud[i * r..(i + 1) * r].copy_from_slice(&node.coords.u);
            vd[i * r..(i + 1) * r].copy_from_slice(&node.coords.v);
        }
        for k in 0..r {
            for (i, row) in vd.chunks_exact(r).enumerate() {
                vt[k * n + i] = row[k];
            }
        }
        dmf_linalg::kernels::matmul_nt_packed_into(ud, vd, vt, n, r, n, out);
    });
    for i in 0..n {
        out[(i, i)] = 0.0;
    }
}

/// [`batched_scores_into`] through the typed-error matmul surface: a
/// `u`/`v` rank mismatch comes back as [`DmfsgdError::Shape`], and a
/// node whose ranks disagree with node 0's as
/// [`DmfsgdError::Import`] — never a panic. On error `out` is left
/// untouched. Valid sessions can't fail here, so the infallible
/// packing above stays the hot path.
pub(crate) fn try_batched_scores_into(
    nodes: &[DmfsgdNode],
    out: &mut Matrix,
) -> Result<(), DmfsgdError> {
    let n = nodes.len();
    if n == 0 {
        *out = Matrix::zeros(0, 0);
        return Ok(());
    }
    let ru = nodes[0].coords.u.len();
    let rv = nodes[0].coords.v.len();
    for (i, node) in nodes.iter().enumerate() {
        if node.coords.u.len() != ru || node.coords.v.len() != rv {
            return Err(DmfsgdError::Import(format!(
                "node {i} coordinate ranks ({}, {}) differ from node 0's ({ru}, {rv})",
                node.coords.u.len(),
                node.coords.v.len()
            )));
        }
    }
    let mut ud = Vec::with_capacity(n * ru);
    let mut vd = Vec::with_capacity(n * rv);
    for node in nodes {
        ud.extend_from_slice(&node.coords.u);
        vd.extend_from_slice(&node.coords.v);
    }
    let u = Matrix::from_vec(n, ru, ud);
    let v = Matrix::from_vec(n, rv, vd);
    u.try_matmul_nt_into(&v, out)?;
    for i in 0..n {
        out[(i, i)] = 0.0;
    }
    Ok(())
}

/// Fraction of ordered pairs on which an oracle-trained session and a
/// simnet-trained runner predict the same class — the
/// cross-front-end agreement metric (pinned by
/// `tests/decentralization.rs`).
pub fn sign_agreement(session: &Session, runner: &SimnetRunner) -> f64 {
    let n = session.len().min(runner.nodes().len());
    let mut agree = 0usize;
    let mut total = 0usize;
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            total += 1;
            if (session.raw_score_unchecked(i, j) >= 0.0) == (runner.raw_score(i, j) >= 0.0) {
                agree += 1;
            }
        }
    }
    agree as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmf_datasets::abw::hps3_like;
    use dmf_datasets::rtt::meridian_like;

    fn sign_accuracy(runner: &SimnetRunner, class: &dmf_datasets::ClassMatrix) -> f64 {
        let mut ok = 0usize;
        let mut total = 0usize;
        for (i, j) in class.mask.iter_known() {
            total += 1;
            let predicted = if runner.raw_score(i, j) >= 0.0 {
                1.0
            } else {
                -1.0
            };
            if Some(predicted) == class.label(i, j) {
                ok += 1;
            }
        }
        ok as f64 / total as f64
    }

    #[test]
    fn rtt_protocol_learns_over_messages() {
        let d = meridian_like(40, 1);
        let tau = d.median();
        let cm = d.classify(tau);
        let mut runner =
            SimnetRunner::new(d, tau, DmfsgdConfig::paper_defaults(), NetConfig::default())
                .expect("valid")
                .with_probe_interval(0.5)
                .expect("positive interval");
        runner.run_for(150.0).expect("run");
        let acc = sign_accuracy(&runner, &cm);
        assert!(acc > 0.7, "message-driven accuracy {acc}");
        assert!(runner.stats().measurements_completed > 1000);
    }

    #[test]
    fn per_message_fidelity_learns_like_fused() {
        // The event-collapsed default and the full three-event flow
        // must both converge, with comparable accuracy and matching
        // probe accounting.
        let run_with = |fidelity: ExchangeFidelity| {
            let d = meridian_like(40, 1);
            let tau = d.median();
            let cm = d.classify(tau);
            let mut runner =
                SimnetRunner::new(d, tau, DmfsgdConfig::paper_defaults(), NetConfig::default())
                    .expect("valid")
                    .with_probe_interval(0.5)
                    .expect("positive interval")
                    .with_exchange_fidelity(fidelity);
            runner.run_for(150.0).expect("run");
            (sign_accuracy(&runner, &cm), runner.stats())
        };
        let (acc_fused, stats_fused) = run_with(ExchangeFidelity::Fused);
        let (acc_msg, stats_msg) = run_with(ExchangeFidelity::PerMessage);
        assert!(acc_msg > 0.7, "per-message accuracy {acc_msg}");
        assert!(acc_fused > 0.7, "fused accuracy {acc_fused}");
        assert!(
            (acc_fused - acc_msg).abs() < 0.1,
            "fidelity modes diverge: fused {acc_fused} vs per-message {acc_msg}"
        );
        // Same probe schedule in both modes, except that the fused
        // chain accounts each probe when it is scheduled (up to one
        // interval ahead per node) and jitter streams differ at the
        // run's tail — bounded by a couple of probes per node.
        let n = 40;
        assert!(
            stats_fused.probes_sent.abs_diff(stats_msg.probes_sent) <= 2 * n,
            "probe accounting diverged: fused {} vs per-message {}",
            stats_fused.probes_sent,
            stats_msg.probes_sent
        );
    }

    #[test]
    fn per_message_fidelity_survives_loss() {
        let d = meridian_like(30, 3);
        let tau = d.median();
        let cm = d.classify(tau);
        let mut runner = SimnetRunner::new(
            d,
            tau,
            DmfsgdConfig::paper_defaults(),
            NetConfig {
                loss_probability: 0.3,
                ..NetConfig::default()
            },
        )
        .expect("valid")
        .with_probe_interval(0.5)
        .expect("positive interval")
        .with_exchange_fidelity(ExchangeFidelity::PerMessage);
        runner.run_for(200.0).expect("run");
        let acc = sign_accuracy(&runner, &cm);
        assert!(acc > 0.65, "per-message lossy accuracy {acc}");
    }

    #[test]
    fn abw_protocol_learns_over_messages() {
        let d = hps3_like(40, 2);
        let tau = d.median();
        let cm = d.classify(tau);
        let mut runner =
            SimnetRunner::new(d, tau, DmfsgdConfig::paper_defaults(), NetConfig::default())
                .expect("valid")
                .with_probe_interval(0.5)
                .expect("positive interval");
        runner.run_for(150.0).expect("run");
        let acc = sign_accuracy(&runner, &cm);
        assert!(acc > 0.65, "ABW message-driven accuracy {acc}");
    }

    #[test]
    fn survives_heavy_message_loss() {
        // Fault injection: 30% loss must slow, not break, convergence.
        let d = meridian_like(30, 3);
        let tau = d.median();
        let cm = d.classify(tau);
        let mut runner = SimnetRunner::new(
            d,
            tau,
            DmfsgdConfig::paper_defaults(),
            NetConfig {
                loss_probability: 0.3,
                ..NetConfig::default()
            },
        )
        .expect("valid")
        .with_probe_interval(0.5)
        .expect("positive interval");
        runner.run_for(200.0).expect("run");
        let stats = runner.stats();
        assert!(
            stats.measurements_completed < stats.probes_sent,
            "loss must cost some measurements"
        );
        let acc = sign_accuracy(&runner, &cm);
        assert!(acc > 0.65, "lossy accuracy {acc}");
    }

    #[test]
    fn measured_rtt_comes_from_simulated_latency() {
        // With zero jitter, inferring RTT from message timing must
        // classify exactly like the ground truth.
        let d = meridian_like(25, 4);
        let tau = d.median();
        let cm = d.classify(tau);
        let mut runner = SimnetRunner::new(
            d,
            tau,
            DmfsgdConfig::paper_defaults(),
            NetConfig {
                delay_jitter_sigma: 0.0,
                ..NetConfig::default()
            },
        )
        .expect("valid")
        .with_probe_interval(0.3)
        .expect("positive interval");
        runner.run_for(120.0).expect("run");
        let acc = sign_accuracy(&runner, &cm);
        assert!(acc > 0.75, "noise-free timing accuracy {acc}");
    }

    #[test]
    fn deterministic_given_seed() {
        let build = || {
            let d = meridian_like(20, 5);
            let tau = d.median();
            let mut r =
                SimnetRunner::new(d, tau, DmfsgdConfig::paper_defaults(), NetConfig::default())
                    .expect("valid");
            r.run_for(30.0).expect("run");
            r.predicted_scores()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn constructor_and_knobs_return_typed_errors() {
        let d = meridian_like(20, 6);
        let tau = d.median();
        assert!(matches!(
            SimnetRunner::new(
                d.clone(),
                -1.0,
                DmfsgdConfig::paper_defaults(),
                NetConfig::default()
            )
            .unwrap_err(),
            DmfsgdError::Config(ConfigError::Tau { .. })
        ));
        let mut small = DmfsgdConfig::paper_defaults();
        small.k = 30;
        assert!(matches!(
            SimnetRunner::new(d.clone(), tau, small, NetConfig::default()).unwrap_err(),
            DmfsgdError::Config(ConfigError::TooFewNodes { .. })
        ));
        let runner = SimnetRunner::new(
            d.clone(),
            tau,
            DmfsgdConfig::paper_defaults(),
            NetConfig::default(),
        )
        .expect("valid");
        assert!(matches!(
            runner.with_probe_interval(0.0).unwrap_err(),
            DmfsgdError::Config(ConfigError::ProbeInterval { .. })
        ));
        let mut runner =
            SimnetRunner::new(d, tau, DmfsgdConfig::paper_defaults(), NetConfig::default())
                .expect("valid");
        assert!(matches!(
            runner.run_for(0.0).unwrap_err(),
            DmfsgdError::Config(ConfigError::Duration { .. })
        ));
    }

    #[test]
    fn driver_rounds_advance_in_quanta() {
        let d = meridian_like(25, 9);
        let tau = d.median();
        let mut session = Session::builder()
            .nodes(25)
            .k(8)
            .seed(9)
            .tau(tau)
            .build()
            .expect("valid");
        let mut driver = SimnetDriver::new(&session, d, NetConfig::default())
            .expect("valid")
            .with_quantum(15.0)
            .expect("positive quantum");
        let applied = session.drive(&mut driver, 4).expect("drive");
        assert!(driver.now() <= 60.0, "clock overshot the rounds");
        assert!(applied > 0, "rounds must complete measurements");
        assert_eq!(applied, driver.stats().measurements_completed);
        assert_eq!(applied, session.measurements_used());
    }

    #[test]
    fn non_finite_deadline_is_rejected_not_spun_on() {
        let d = meridian_like(25, 9);
        let mut session = Session::builder()
            .nodes(25)
            .k(8)
            .seed(9)
            .tau(d.median())
            .build()
            .expect("valid");
        let mut driver = SimnetDriver::new(&session, d, NetConfig::default()).expect("valid");
        for deadline in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                driver.run_until(&mut session, deadline).unwrap_err(),
                DmfsgdError::Config(ConfigError::Duration { .. })
            ));
        }
        // The rejected calls seeded no timers; a finite one still runs.
        assert_eq!(driver.stats().probes_sent, 0);
        assert!(driver.run_until(&mut session, 3.0).expect("finite") > 0);
    }

    #[test]
    fn churn_mid_simulation_keeps_learning() {
        let d = meridian_like(30, 10);
        let tau = d.median();
        let cm = d.classify(tau);
        let mut session = Session::builder()
            .nodes(30)
            .k(8)
            .seed(10)
            .tau(tau)
            .build()
            .expect("valid");
        let mut driver = SimnetDriver::new(&session, d, NetConfig::default())
            .expect("valid")
            .with_probe_interval(0.5)
            .expect("positive interval");
        driver.run_until(&mut session, 60.0).expect("warmup");
        session.leave(4).expect("leave");
        session.leave(11).expect("leave");
        driver.run_until(&mut session, 120.0).expect("degraded run");
        session.join().expect("rejoin");
        session.join().expect("rejoin");
        driver.run_until(&mut session, 220.0).expect("recovery");
        // Accuracy over alive pairs after the full churn cycle.
        let mut ok = 0usize;
        let mut total = 0usize;
        for (i, j) in cm.mask.iter_known() {
            total += 1;
            let predicted = if session.raw_score_unchecked(i, j) >= 0.0 {
                1.0
            } else {
                -1.0
            };
            if Some(predicted) == cm.label(i, j) {
                ok += 1;
            }
        }
        let acc = ok as f64 / total as f64;
        assert!(acc > 0.65, "post-churn simnet accuracy {acc}");
    }

    #[test]
    fn run_for_never_overshoots_deadline() {
        // Regression: the historical loop peeked the *last-delivered*
        // time, so one event past the deadline still got through and
        // the clock ended beyond `duration_s`.
        let d = meridian_like(25, 6);
        let tau = d.median();
        let mut runner =
            SimnetRunner::new(d, tau, DmfsgdConfig::paper_defaults(), NetConfig::default())
                .expect("valid")
                .with_probe_interval(0.37)
                .expect("positive interval");
        let duration = 41.3;
        runner.run_for(duration).expect("run");
        assert!(
            runner.now() <= duration,
            "simulated clock {} overshot the {duration}s deadline",
            runner.now()
        );
        // And the deadline region was actually reached, not stopped short.
        assert!(runner.now() > duration - 2.0 * 0.37, "stopped early");
    }

    #[test]
    fn run_for_resumes_where_it_stopped() {
        let d = meridian_like(20, 7);
        let tau = d.median();
        let mut runner =
            SimnetRunner::new(d, tau, DmfsgdConfig::paper_defaults(), NetConfig::default())
                .expect("valid");
        runner.run_for(20.0).expect("run");
        let mid = runner.stats().measurements_completed;
        runner.run_for(40.0).expect("run");
        assert!(runner.now() <= 40.0);
        let second_half = runner.stats().measurements_completed - mid;
        // Resuming must keep the configured probe rate, not stack a
        // second timer chain per node (which would double the rate).
        assert!(second_half > mid / 2, "resumed run stalled");
        assert!(
            second_half < mid * 2,
            "resumed run probes too fast: {mid} then {second_half} — timer chains stacked?"
        );
    }

    #[test]
    fn scenario_hooks_validate_with_typed_errors() {
        let d = meridian_like(20, 12);
        let tau = d.median();
        let mut session = Session::builder()
            .nodes(20)
            .k(6)
            .seed(12)
            .tau(tau)
            .build()
            .expect("valid");
        let mut driver =
            SimnetDriver::new(&session, d.clone(), NetConfig::default()).expect("valid");
        assert!(matches!(
            driver.set_loss_probability(1.5).unwrap_err(),
            DmfsgdError::Config(ConfigError::LossProbability { .. })
        ));
        assert!(matches!(
            driver.set_partition(&[3, 99]).unwrap_err(),
            DmfsgdError::Membership(MembershipError::UnknownNode { id: 99, slots: 20 })
        ));
        let everyone: Vec<usize> = (0..20).collect();
        assert!(matches!(
            driver.set_partition(&everyone).unwrap_err(),
            DmfsgdError::Config(ConfigError::FullPartition { nodes: 20 })
        ));
        assert!(matches!(
            driver.set_partition_classes(&[1, 2, 3]).unwrap_err(),
            DmfsgdError::Membership(MembershipError::ProviderMismatch {
                provider: 3,
                session: 20
            })
        ));
        assert!(matches!(
            driver.set_delay_factor(0, 0.0).unwrap_err(),
            DmfsgdError::Config(ConfigError::DelayFactor { .. })
        ));
        assert!(matches!(
            driver.set_delay_factor(99, 2.0).unwrap_err(),
            DmfsgdError::Membership(MembershipError::UnknownNode { .. })
        ));
        assert!(matches!(
            driver
                .update_rtt_ground_truth(meridian_like(10, 1))
                .unwrap_err(),
            DmfsgdError::Membership(MembershipError::ProviderMismatch {
                provider: 10,
                session: 20
            })
        ));
        assert!(matches!(
            driver
                .update_rtt_ground_truth(hps3_like(20, 1))
                .unwrap_err(),
            DmfsgdError::Config(ConfigError::MetricMismatch { .. })
        ));
        let mut abw_session = Session::builder()
            .nodes(20)
            .k(6)
            .seed(12)
            .tau(hps3_like(20, 2).median())
            .build()
            .expect("valid");
        let mut abw_driver =
            SimnetDriver::new(&abw_session, hps3_like(20, 2), NetConfig::default()).expect("valid");
        assert!(matches!(
            abw_driver
                .update_rtt_ground_truth(meridian_like(20, 1))
                .unwrap_err(),
            DmfsgdError::Config(ConfigError::MetricMismatch { .. })
        ));
        // The happy paths still drive the protocol.
        driver.set_loss_probability(0.1).expect("valid p");
        driver.set_partition(&[0, 1]).expect("valid island");
        driver.clear_partition();
        driver.set_delay_factor(0, 2.0).expect("valid factor");
        driver.update_rtt_ground_truth(d).expect("same truth");
        driver.run_until(&mut session, 10.0).expect("runs");
        abw_driver.run_until(&mut abw_session, 10.0).expect("runs");
    }

    #[test]
    fn ground_truth_re_embedding_is_learned() {
        // Train to convergence, step the ground truth (a congestion
        // that flips many classes at the fixed τ), keep training: the
        // predictor must track the *new* truth.
        let d = meridian_like(30, 13);
        let tau = d.median();
        let mut session = Session::builder()
            .nodes(30)
            .k(8)
            .seed(13)
            .tau(tau)
            .build()
            .expect("valid");
        let mut driver = SimnetDriver::new(&session, d.clone(), NetConfig::default())
            .expect("valid")
            .with_probe_interval(0.5)
            .expect("positive interval");
        driver.run_until(&mut session, 150.0).expect("warmup");

        let mut congested = d;
        congested.scale_values(2.5); // most paths now classify "bad" at τ
        let new_classes = congested.classify(tau);
        driver
            .update_rtt_ground_truth(congested)
            .expect("same shape");
        let accuracy = |session: &Session, cm: &dmf_datasets::ClassMatrix| {
            let mut ok = 0usize;
            let mut total = 0usize;
            for (i, j) in cm.mask.iter_known() {
                total += 1;
                let predicted = if session.raw_score_unchecked(i, j) >= 0.0 {
                    1.0
                } else {
                    -1.0
                };
                if Some(predicted) == cm.label(i, j) {
                    ok += 1;
                }
            }
            ok as f64 / total as f64
        };
        let stale = accuracy(&session, &new_classes);
        driver.run_until(&mut session, 450.0).expect("relearn");
        let adapted = accuracy(&session, &new_classes);
        assert!(
            adapted > stale + 0.1 && adapted > 0.7,
            "re-embedding not tracked: {stale} → {adapted}"
        );
    }

    #[test]
    fn partition_epoch_stalls_only_cross_island_learning() {
        let d = meridian_like(24, 14);
        let tau = d.median();
        let mut session = Session::builder()
            .nodes(24)
            .k(8)
            .seed(14)
            .tau(tau)
            .build()
            .expect("valid");
        let mut driver = SimnetDriver::new(&session, d, NetConfig::default())
            .expect("valid")
            .with_probe_interval(0.5)
            .expect("positive interval");
        driver.run_until(&mut session, 30.0).expect("warmup");
        let island: Vec<usize> = (0..6).collect();
        driver.set_partition(&island).expect("valid island");
        let before = driver.stats().measurements_completed;
        driver
            .run_until(&mut session, 90.0)
            .expect("partitioned run");
        let during = driver.stats().measurements_completed - before;
        assert!(during > 0, "intra-side probing must continue");
        driver.clear_partition();
        driver.run_until(&mut session, 150.0).expect("healed run");
        let healed = driver.stats().measurements_completed - before - during;
        assert!(
            healed > during,
            "healing must raise the measurement rate ({during} during vs {healed} after)"
        );
    }

    #[test]
    fn wire_v2_learns_and_is_deterministic() {
        let build = || {
            let d = meridian_like(30, 21);
            let tau = d.median();
            let cm = d.classify(tau);
            let mut runner =
                SimnetRunner::new(d, tau, DmfsgdConfig::paper_defaults(), NetConfig::default())
                    .expect("valid")
                    .with_probe_interval(0.5)
                    .expect("positive interval")
                    .with_wire_version(WireVersion::V2);
            runner.run_for(150.0).expect("run");
            let acc = sign_accuracy(&runner, &cm);
            (acc, runner.wire_stats(), runner.predicted_scores())
        };
        let (acc, stats, scores) = build();
        assert!(acc > 0.7, "wire-v2 accuracy {acc}");
        assert!(stats.bytes_sent > 0 && stats.messages_sent > 0);
        assert!(stats.keyframes_sent > 0, "cadence must send keyframes");
        assert_eq!(stats.decode_errors, 0, "clean simnet, no corruption");
        // Recorded before the per-pair state moved to trimmed rings in
        // a slot table: the datagrams are the same, byte for byte.
        assert_eq!(
            (stats.messages_sent, stats.bytes_sent, stats.keyframes_sent),
            (17_985, 549_199, 643)
        );
        let (_, stats2, scores2) = build();
        assert_eq!(scores, scores2, "wire mode must stay deterministic");
        assert_eq!(stats, stats2, "wire stats must stay deterministic");
    }

    #[test]
    fn wrong_rank_keyframe_never_reaches_the_context() {
        let d = meridian_like(30, 25);
        let tau = d.median();
        let (mut session, mut driver) =
            SimnetRunner::new(d, tau, DmfsgdConfig::paper_defaults(), NetConfig::default())
                .expect("valid")
                .with_wire_version(WireVersion::V2)
                .into_parts();
        driver.run_until(&mut session, 60.0).expect("run");
        // A pair that has exchanged: its decoder holds baselines and
        // has something to ack.
        let (prober, target) = driver
            .exchanges
            .iter()
            .find(|ex| ex.reply.dec.ack().is_some())
            .expect("60 s complete many cycles")
            .pair;
        let decoder = |driver: &mut SimnetDriver, session: &Session| {
            let ex = exchange(&mut driver.exchanges, &session.neighbors, prober, target);
            ex.expect("still neighbors").reply.dec.clone()
        };
        let before = decoder(&mut driver, &session);
        let newest = before.ack().expect("checked above").seq;

        // A well-formed reply whose block is two values short of u ‖ v,
        // numbered so that the decoder would take it as its newest.
        let rank = session.config.rank;
        let mut update = EncoderContext::new().encode(&vec![0.25; 2 * rank - 2]);
        assert!(
            update.is_keyframe(),
            "a fresh encoder opens with a keyframe"
        );
        update.seq = newest.wrapping_add(5);
        let mut bytes = Vec::new();
        encode_v2_into(&MessageV2::RttReply { nonce: 1, update }, &mut bytes);
        let errors = driver.wire_stats().decode_errors;
        let now = driver.now();
        driver.handle_wire(&mut session, now, target, prober, &bytes);

        assert_eq!(driver.wire_stats().decode_errors, errors + 1);
        let after = decoder(&mut driver, &session);
        assert_eq!(after.ack(), before.ack(), "the refused block was acked");
        assert_eq!(after, before, "the refused block changed the decoder");
    }

    #[test]
    fn wire_v2_survives_loss_with_gap_recovery() {
        let d = meridian_like(30, 22);
        let tau = d.median();
        let cm = d.classify(tau);
        let mut runner = SimnetRunner::new(
            d,
            tau,
            DmfsgdConfig::paper_defaults(),
            NetConfig {
                loss_probability: 0.3,
                ..NetConfig::default()
            },
        )
        .expect("valid")
        .with_probe_interval(0.5)
        .expect("positive interval")
        .with_wire_version(WireVersion::V2);
        runner.run_for(200.0).expect("run");
        let acc = sign_accuracy(&runner, &cm);
        assert!(acc > 0.65, "lossy wire-v2 accuracy {acc}");
        let stats = runner.wire_stats();
        assert!(stats.gaps_detected > 0, "30% loss must surface as gaps");
        assert!(stats.keyframes_sent > 0, "gaps must trigger keyframes");
    }

    #[test]
    fn wire_v2_spends_far_fewer_bytes_than_v1() {
        // The headline robustness/efficiency claim at the driver
        // level: same workload, same learning outcome, ≥ 3× fewer
        // bytes per completed probe cycle on the delta protocol.
        let run_with = |version: WireVersion| {
            let d = meridian_like(30, 23);
            let tau = d.median();
            let cm = d.classify(tau);
            let mut runner =
                SimnetRunner::new(d, tau, DmfsgdConfig::paper_defaults(), NetConfig::default())
                    .expect("valid")
                    .with_probe_interval(0.5)
                    .expect("positive interval")
                    .with_wire_version(version);
            runner.run_for(150.0).expect("run");
            let cycles = runner.stats().measurements_completed as f64;
            let per_cycle = runner.wire_stats().bytes_sent as f64 / cycles;
            (sign_accuracy(&runner, &cm), per_cycle)
        };
        let (acc_v1, bytes_v1) = run_with(WireVersion::V1);
        let (acc_v2, bytes_v2) = run_with(WireVersion::V2);
        assert!(acc_v1 > 0.7, "wire-v1 accuracy {acc_v1}");
        assert!(acc_v2 > 0.7, "wire-v2 accuracy {acc_v2}");
        let ratio = bytes_v1 / bytes_v2;
        assert!(
            ratio >= 3.0,
            "v2 must cut bytes/cycle ≥ 3×: v1 {bytes_v1:.1} vs v2 {bytes_v2:.1} (ratio {ratio:.2})"
        );
    }

    #[test]
    fn wire_mode_abw_learns_both_versions() {
        for version in [WireVersion::V1, WireVersion::V2] {
            let d = hps3_like(30, 24);
            let tau = d.median();
            let cm = d.classify(tau);
            let mut runner =
                SimnetRunner::new(d, tau, DmfsgdConfig::paper_defaults(), NetConfig::default())
                    .expect("valid")
                    .with_probe_interval(0.5)
                    .expect("positive interval")
                    .with_wire_version(version);
            runner.run_for(150.0).expect("run");
            let acc = sign_accuracy(&runner, &cm);
            assert!(acc > 0.65, "ABW wire-{version} accuracy {acc}");
        }
    }

    #[test]
    fn batched_scores_match_naive_per_pair() {
        let d = meridian_like(30, 8);
        let tau = d.median();
        let mut runner =
            SimnetRunner::new(d, tau, DmfsgdConfig::paper_defaults(), NetConfig::default())
                .expect("valid");
        runner.run_for(25.0).expect("run");
        let batched = runner.predicted_scores();
        let naive = runner.predicted_scores_naive();
        assert_eq!(batched, naive, "batched U·Vᵀ must equal per-pair dots");
    }

    #[test]
    fn try_predicted_scores_matches_infallible_on_valid_sessions() {
        let d = meridian_like(20, 3);
        let tau = d.median();
        let mut runner =
            SimnetRunner::new(d, tau, DmfsgdConfig::paper_defaults(), NetConfig::default())
                .expect("valid");
        runner.run_for(15.0).expect("run");
        let want = runner.session().predicted_scores();
        let got = runner
            .session()
            .try_predicted_scores()
            .expect("valid shapes");
        assert_eq!(got, want);
    }

    #[test]
    fn try_predicted_scores_surfaces_shape_mismatch_as_typed_error() {
        let mut session = crate::session::SessionBuilder::new()
            .nodes(12)
            .tau(60.0)
            .build()
            .expect("valid");
        // Hand-corrupt one node's v rank: unreachable through imports
        // (rank-validated), but exactly the inconsistency the fallible
        // surface must catch instead of panicking.
        let r = session.nodes[0].coords.v.len();
        for node in &mut session.nodes {
            node.coords.v = CoordVec::zeros(r + 2);
        }
        let mut out = Matrix::zeros(0, 0);
        let err = session
            .try_predicted_scores_into(&mut out)
            .expect_err("u/v rank mismatch");
        match err {
            DmfsgdError::Shape(e) => {
                assert_eq!(e.op, "matmul_nt");
                assert_eq!(e.lhs.1, r, "lhs inner dim is the u rank");
                assert_eq!(e.rhs.1, r + 2, "rhs inner dim is the corrupted v rank");
            }
            other => panic!("expected Shape error, got {other:?}"),
        }
        assert_eq!(out.rows(), 0, "output untouched on error");
        // A per-node inconsistency (one node disagreeing with node 0)
        // is an import-shaped inconsistency, also typed.
        session.nodes[3].coords.v = CoordVec::zeros(r);
        let err = session
            .try_predicted_scores_into(&mut out)
            .expect_err("per-node rank mismatch");
        assert!(matches!(err, DmfsgdError::Import(_)), "got {err:?}");
    }
}
