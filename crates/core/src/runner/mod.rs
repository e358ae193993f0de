//! Fully decentralized execution over the simulated network.
//!
//! [`SimnetDriver`] is the simulated network's entry point:
//! [`run_until`](SimnetDriver::run_until) drives the same
//! [`DmfsgdNode`](crate::node::DmfsgdNode) state machines held by a
//! [`Session`], but every protocol step is an actual message with
//! latency (and optionally loss) through [`dmf_simnet::SimNet`]:
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
//! # Either layout, one loop
//!
//! [`SimnetDriver::new`] builds the dense layout from a ground-truth
//! [`Dataset`]; [`SimnetDriver::from_net`] runs RTT over a pre-built
//! net of either layout — typically a
//! [`ShardedSimNet`](dmf_simnet::ShardedSimNet) over a delay function,
//! the 10 k–100 k-node path, whose memory is linear in the population.
//! Every RTT mode measures the simulated round trip itself, so an RTT
//! driver holds no dataset: the net is the truth. Only ABW still needs
//! a dense one, because its target's prober measures against it, and
//! that `n × n` object is what the k-island layout exists to avoid.
//! Whatever the layout and mode, one [`run_until`](SimnetDriver::run_until)
//! pops the deliveries and one handler runs them.
//!
//! # Layout: one module per exchange mode
//!
//! This module is the driver: construction, the scenario hooks, the
//! event loop with its lookahead and the per-message handlers (each
//! protocol leg a native [`Msg`] delivery: ABW always, RTT under
//! [`ExchangeFidelity::PerMessage`]). Benchmark lane:
//! `core.runner_permsg_cycles_per_s`.
//!
//! `fused` is the default RTT mode, one completion event per probe
//! cycle: protocol state and steps in one struct. Lanes:
//! `core.runner_fused_cycles_per_s`, and `sim-fused` at 100 k nodes.
//!
//! `wire` is [`SimnetDriver::with_wire_version`]: every leg a real
//! `dmf-proto` datagram, handled by the [`Endpoint`] the UDP agents run
//! too; `wire` is only the simulator's transport under it. Lanes:
//! `core.runner_wire_v1_cycles_per_s` (v1) and `probe-wire` (v2).
//!
//! `facade` is [`SimnetRunner`], a private `Session` bundled with a
//! `SimnetDriver` (what those lanes construct); use the driver directly
//! when the session must outlive the transport (snapshots, mixed
//! front-ends).
//!
//! # Hot-path layout
//!
//! A probe/reply cycle is allocation-free after warmup: coordinate
//! snapshots ride the [`Msg`] enum in boxed [`CoordVec`]s (inline up to
//! rank 16) that delivery returns to a free list, outstanding RTT
//! probes live in small per-node scratch lists whose capacity is
//! reused, and the event queue recycles its payload slots.
//! Outstanding-probe bookkeeping is O(probes in flight) per node, not
//! O(n²) in the population, and fused RTT allocates none of it. The
//! same holds in wire mode over protocol v2: datagram buffers have a
//! free list too, update blocks are inline, and the per-pair contexts
//! sit in one table indexed by the prober's neighbor slot
//! ([`NeighborSets::slot`](dmf_simnet::neighbors::NeighborSets::slot)).
//! At k = 32 that table outgrows the cache, so a v2 probe send
//! prefetches the slot its two deliveries will touch (see `wire`).
//!
//! # The lookahead pipeline
//!
//! At 100 k nodes the per-node state (≈ 30 MB of coordinates, 4 MB of
//! one-line event payloads) lives in DRAM, and a delivery touches about
//! eight cache lines of it that nothing before it touched: handled
//! one at a time, the loop spends half its wall waiting on those
//! misses. But the queue's head bucket is sorted, so the next
//! ~100 deliveries are known
//! ([`SimNet::upcoming`](dmf_simnet::SimNet::upcoming)), and with
//! them exactly which lines they will need. After each pop the loop
//! therefore advances three later deliveries one stage each:
//!
//! 1. `SLOT_AHEAD` (12) deliveries ahead, prefetch the event's payload
//!    slot — until it is resident, who the delivery is for is unknown.
//!    The slot is named by address only
//!    ([`SimNet::prefetch_upcoming`](dmf_simnet::SimNet::prefetch_upcoming)):
//!    `upcoming` would read the cold slot to hand out its payload and
//!    take the very miss this stage exists to hide;
//! 2. `NODES_AHEAD` (6) ahead the payload has arrived: read its
//!    `to`/`from` and prefetch the prober's node, the target's
//!    coordinates, both liveness entries and the bounds of the
//!    prober's neighbor row;
//! 3. `ROW_AHEAD` (3) ahead the bounds have arrived: prefetch the
//!    neighbor row the next probe will be drawn from.
//!
//! These are prefetch hints and nothing else: no arithmetic, RNG draw
//! or event moves, so every result is bit-identical with and without
//! them, and the pipeline runs on every layout and mode. On a
//! population that fits in the cache the hinted lines are already
//! resident. The distances are constants, not options, because there
//! is nothing to tune: a miss costs about as long as one or two
//! deliveries take to handle, and the rate measured flat from 8/4/2
//! to 32/16/4, with five-line payload slots and again with one-line
//! ones (each stage removed in turn cost about a quarter of the gain;
//! looking past the head bucket into the next one when it runs short
//! made no difference and is not done).

mod facade;
pub(crate) mod fused;
mod wire;

pub use facade::SimnetRunner;

use crate::coords::CoordVec;
use crate::endpoint::{Endpoint, WireStats};
use crate::error::{ConfigError, DmfsgdError, MembershipError};
use crate::session::Session;
use dmf_datasets::{Dataset, Metric};
use dmf_linalg::simd::prefetch;
use dmf_proto::WireVersion;
use dmf_simnet::probe::pathload;
use dmf_simnet::{Delivery, NetConfig, SimNet};
use fused::FusedRtt;
use wire::Exchange;

/// Protocol messages exchanged by DMFSGD nodes.
///
/// Coordinate snapshots travel in boxes, recycled like [`Msg::Wire`]'s
/// buffers: a queued [`Delivery<Msg>`] is one cache line, not five.
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    /// RTT probe (Algorithm 1, step 1).
    RttProbe,
    /// RTT reply carrying the target's coordinates (step 2).
    RttReply {
        /// `u_j` of the replying node.
        u: Box<CoordVec>,
        /// `v_j` of the replying node.
        v: Box<CoordVec>,
    },
    /// ABW probe carrying the prober's `u_i` and the probe rate
    /// (Algorithm 2, step 1).
    AbwProbe {
        /// `u_i` of the probing node.
        u: Box<CoordVec>,
    },
    /// ABW reply carrying the measured class and the target's
    /// pre-update `v_j` (step 3).
    AbwReply {
        /// The class label inferred at the target.
        x: f64,
        /// `v_j` snapshot.
        v: Box<CoordVec>,
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

// An inline `CoordVec` (136 bytes) in any variant grows these back to 288 / 272.
const _: () =
    assert!(std::mem::size_of::<Delivery<Msg>>() <= 40 && std::mem::size_of::<Msg>() <= 24);

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
    /// no coordinate snapshots (which [`Msg`] boxes, in every mode).
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

/// The simulated-network front-end: owns the transport (event queue,
/// latency/loss model, outstanding-probe bookkeeping) while the
/// [`Session`] owns the learning state. Advance it with
/// [`run_until`](Self::run_until).
pub struct SimnetDriver {
    net: SimNet<Msg>,
    /// The ABW ground truth the target's prober measures against;
    /// `None` for RTT, whose truth is the net's own delays.
    abw_truth: Option<Dataset>,
    /// Threshold, probe clock and counters, which every mode uses, and
    /// the fused protocol itself.
    fused: FusedRtt,
    /// Outstanding RTT probes per probing node: `(target, send time)`,
    /// at most one entry per target — a re-probe overwrites the
    /// timestamp, so a lost reply can never pair a stale entry with a
    /// fresh exchange. Sized by what is actually in flight (typically
    /// 0–2 entries), capacity reused for the whole run. Never more than
    /// k, loss and churn included: a new entry first evicts those whose
    /// target has since left the prober's neighbor row. Empty until
    /// the first per-message or wire RTT probe: fused RTT never needs
    /// it, and at 100 k nodes the lists would cost ≈ 10 MB.
    pending_rtt: Vec<Vec<(usize, f64)>>,
    fidelity: ExchangeFidelity,
    /// When set, every protocol leg travels as encoded `dmf-proto`
    /// bytes ([`Msg::Wire`]), encoded and run by this endpoint, instead
    /// of native enum payloads.
    wire: Option<Endpoint>,
    wire_nonce: u64,
    /// v2 coordinate-stream state, one entry per neighbor slot (see
    /// [`wire::exchange`]); empty until the first v2 datagram.
    exchanges: Vec<Exchange>,
    /// Datagram buffers back from delivery, for the next sends.
    free_bufs: Vec<Vec<u8>>,
    /// Coordinate boxes back from delivery, likewise: a pool of allocations.
    #[allow(clippy::vec_box)]
    free_coords: Vec<Box<CoordVec>>,
}

impl SimnetDriver {
    /// Builds the transport for `session` over `dataset` (whose metric
    /// decides Algorithm 1 vs 2). The classification threshold comes
    /// from the session (set it via
    /// [`SessionBuilder::tau`](crate::session::SessionBuilder::tau)).
    ///
    /// An RTT dataset becomes the dense layout's delay function, over
    /// an `f32` table the net owns ([`SimNet::from_rtt_dataset`]); the
    /// dataset is not kept. An ABW dataset is the truth the targets
    /// measure, and its messages travel at a uniform control-plane
    /// delay. A scenario that re-embeds its truth builds the net itself
    /// over a delay function ([`from_net`](Self::from_net)) and swaps
    /// it ([`set_delay_fn`](Self::set_delay_fn)).
    pub fn new(
        session: &Session,
        dataset: Dataset,
        net_config: NetConfig,
    ) -> Result<Self, DmfsgdError> {
        ConfigError::check_net_config(&net_config)?;
        if dataset.metric == Metric::Rtt {
            return Self::from_net(session, SimNet::from_rtt_dataset(&dataset, net_config));
        }
        let net = SimNet::uniform(dataset.len(), 0.04, net_config);
        let mut driver = Self::from_net(session, net)?;
        driver.abw_truth = Some(dataset);
        Ok(driver)
    }

    /// Runs RTT (Algorithm 1) for `session` over a pre-built `net` of
    /// either layout: a [`SimNet`], or a
    /// [`ShardedSimNet`](dmf_simnet::ShardedSimNet) from
    /// [`from_delay_fn`](dmf_simnet::ShardedSimNet::from_delay_fn) —
    /// at 100 k nodes no dense ground truth exists, and none is needed:
    /// every RTT mode measures the net's own round trips. The
    /// classification threshold comes from the session.
    pub fn from_net(session: &Session, net: impl Into<SimNet<Msg>>) -> Result<Self, DmfsgdError> {
        let net = net.into();
        let fused = FusedRtt::new(session.tau().ok_or(ConfigError::MissingTau)?)?;
        if net.len() != session.len() {
            return Err(MembershipError::ProviderMismatch {
                provider: net.len(),
                session: session.len(),
            }
            .into());
        }
        Ok(Self {
            net,
            abw_truth: None,
            fused,
            pending_rtt: Vec::new(),
            fidelity: ExchangeFidelity::default(),
            wire: None,
            wire_nonce: 0,
            exchanges: Vec::new(),
            free_bufs: Vec::new(),
            free_coords: Vec::new(),
        })
    }

    /// Sets the probe timer period (default 1 s).
    pub fn with_probe_interval(mut self, seconds: f64) -> Result<Self, DmfsgdError> {
        self.fused.set_probe_interval(seconds)?;
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
    /// in `version`, run at delivery by the same
    /// [`Endpoint`] the UDP agents run.
    /// Implies per-message event flow — the fused RTT shortcut never
    /// applies, since every leg must be a datagram to be counted in
    /// [`wire_stats`](Self::wire_stats).
    pub fn with_wire_version(mut self, version: WireVersion) -> Self {
        self.wire = Some(Endpoint::new(version, self.metric(), self.fused.tau));
        self
    }

    /// Run statistics.
    pub fn stats(&self) -> RunnerStats {
        self.fused.stats
    }

    /// Byte-level statistics of a wire-mode run (all zeros unless
    /// [`with_wire_version`](Self::with_wire_version) was set).
    pub fn wire_stats(&self) -> WireStats {
        self.wire.as_ref().map(Endpoint::stats).unwrap_or_default()
    }

    /// Current simulated time (the timestamp of the last delivered
    /// event; 0 before the first).
    pub fn now(&self) -> f64 {
        self.net.now()
    }

    /// The underlying transport (island layout, network stats, the
    /// bytes of per-pair delay state it holds).
    pub fn net(&self) -> &SimNet<Msg> {
        &self.net
    }

    /// ABW when the driver holds a ground truth to measure, else RTT.
    fn metric(&self) -> Metric {
        match self.abw_truth {
            Some(_) => Metric::Abw,
            None => Metric::Rtt,
        }
    }

    // ---- scenario impairment hooks ----------------------------------
    //
    // Non-stationary scenarios mutate the transport mid-run: loss
    // epochs, partitions, stragglers, and ground-truth re-embeddings
    // (drift, congestion). Each hook validates its arguments here and
    // forwards to the simnet layer, so the scenario harness never
    // trips a simnet assertion; a delay function is the one argument
    // that cannot be checked. Every hook works on either layout.

    /// Replaces the message-loss probability (scenario loss epochs).
    pub fn set_loss_probability(&mut self, probability: f64) -> Result<(), DmfsgdError> {
        ConfigError::check_loss_probability(probability)?;
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
    /// (straggler injection; `1.0` restores the node). The factor must
    /// be finite and positive as the `f32` the network stores: `1e39`
    /// would round to ∞ and `1e-50` to 0.
    pub fn set_delay_factor(&mut self, node: usize, factor: f64) -> Result<(), DmfsgdError> {
        let n = self.net.len();
        if node >= n {
            return Err(MembershipError::UnknownNode { id: node, slots: n }.into());
        }
        let stored = factor as f32;
        if !(stored.is_finite() && stored > 0.0) {
            return Err(ConfigError::DelayFactor { factor }.into());
        }
        self.net.set_delay_factor(node, factor);
        Ok(())
    }

    /// Re-embeds the network (drift or congestion moved the real
    /// delays): every leg sent from now on — and therefore every
    /// measured RTT — takes its one-way delay from `delay_s`, with
    /// [`SimNet::from_delay_fn`]'s contract (seconds, pure, rounded
    /// through `f32`). Legs already in flight keep the delay they
    /// departed with, and cross-island legs of a k-island net keep the
    /// default delay. Nothing can be checked up front: the function
    /// must return finite, non-negative seconds for every pair.
    pub fn set_delay_fn(&mut self, delay_s: impl Fn(usize, usize) -> f64 + Send + Sync + 'static) {
        self.net.set_delay_fn(delay_s);
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
        self.fused.begin_run(&mut self.net, session, deadline_s)?;
        let before = self.fused.stats.measurements_completed;
        while let Some((now, delivery)) = self.net.next_delivery_before(deadline_s) {
            prefetch_upcoming(&self.net, session);
            self.handle(session, now, delivery.from, delivery.to, delivery.msg);
        }
        Ok(self.fused.stats.measurements_completed - before)
    }

    /// `coords` in a recycled box, or a new one while the list fills or
    /// makes up for the boxes lost messages took with them.
    fn boxed(&mut self, coords: CoordVec) -> Box<CoordVec> {
        let Some(mut slot) = self.free_coords.pop() else {
            return Box::new(coords);
        };
        *slot = coords;
        slot
    }

    /// Remembers that `i` probed `j` at `now`. One slot per target:
    /// re-probing a neighbor whose reply is still pending (or was
    /// lost) restarts its timestamp, so a stale entry can never pair
    /// with a fresh reply. A target that churn took out of `i`'s row is
    /// never re-probed, so a new entry first drops those left behind.
    fn note_rtt_probe(&mut self, session: &Session, i: usize, j: usize, now: f64) {
        if self.pending_rtt.is_empty() {
            self.pending_rtt
                .resize_with(self.net.len(), || Vec::with_capacity(4));
        }
        let pending = &mut self.pending_rtt[i];
        match pending.iter_mut().find(|(target, _)| *target == j) {
            Some(entry) => entry.1 = now,
            None => {
                pending.retain(|&(target, _)| session.neighbors.contains(i, target));
                pending.push((j, now));
            }
        }
    }

    fn handle(&mut self, session: &mut Session, now: f64, from: usize, to: usize, msg: Msg) {
        match msg {
            Msg::ProbeTick => {
                let i = to;
                // A departed node only re-arms: its timer chain idles
                // (one cheap self-event per interval) so a rejoined
                // slot resumes probing without external re-seeding.
                if session.is_alive(i) {
                    if self.wire.is_some() {
                        self.fire_wire_probe(session, i, now);
                    } else if self.metric() == Metric::Rtt
                        && self.fidelity == ExchangeFidelity::Fused
                    {
                        // The whole round trip is one future event,
                        // whose completion chains the next probe
                        // itself: no pending entry, no timer.
                        self.fused.fire(&mut self.net, session, i, now);
                        return;
                    } else {
                        let j = session.neighbors.sample_neighbor(i, &mut session.rng);
                        self.fused.stats.probes_sent += 1;
                        match self.metric() {
                            Metric::Rtt => {
                                self.note_rtt_probe(session, i, j, now);
                                self.net.send(i, j, Msg::RttProbe);
                            }
                            Metric::Abw => {
                                let u = self.boxed(session.nodes[i].coords.u.clone());
                                self.net.send(i, j, Msg::AbwProbe { u });
                            }
                        }
                    }
                }
                self.fused.rearm(&mut self.net, session, i);
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
                let (u, v) = (self.boxed(u), self.boxed(v));
                self.net.send(to, from, Msg::RttReply { u, v });
            }
            Msg::RttExchange { sent_at } => {
                self.fused
                    .on_exchange(&mut self.net, session, now, to, from, sent_at);
            }
            Msg::RttReply { u, v } => {
                // Steps 3–4 at node i, unless the reply is a duplicate
                // or stale.
                if session.is_alive(to) {
                    let tau = self.fused.tau;
                    if let Some(x) = rtt_class(&mut self.pending_rtt, to, from, now, tau) {
                        let params = session.config.sgd;
                        session.nodes[to].on_rtt_measurement(x, &u, &v, &params);
                        session.measurements += 1;
                        self.fused.stats.measurements_completed += 1;
                    }
                }
                self.free_coords.extend([u, v]);
            }
            Msg::AbwProbe { u } => {
                // Steps 2–4 at target j: measure, snapshot v_j, update.
                let (i, j) = (from, to);
                if session.is_alive(j) {
                    let truth = self.abw_truth.as_ref().expect("ABW probes need ABW truth");
                    let tau = self.fused.tau;
                    if let Some(x) = pathload(truth, i, j, tau, &mut session.rng) {
                        let params = session.config.sgd;
                        let v = session.nodes[j].on_abw_probe(x, &u, &params);
                        let v = self.boxed(v);
                        self.net.send(j, i, Msg::AbwReply { x, v });
                    }
                }
                self.free_coords.push(u);
            }
            Msg::AbwReply { x, v } => {
                // Step 5 at node i.
                if session.is_alive(to) {
                    let params = session.config.sgd;
                    session.nodes[to].on_abw_reply(x, &v, &params);
                    session.measurements += 1;
                    self.fused.stats.measurements_completed += 1;
                }
                self.free_coords.push(v);
            }
        }
    }
}

impl std::fmt::Debug for SimnetDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimnetDriver")
            .field("nodes", &self.net.len())
            .field("islands", &self.net.islands())
            .field("metric", &self.metric())
            .field("fidelity", &self.fidelity)
            .field("wire", &self.wire)
            .field("now", &self.net.now())
            .field("protocol", &self.fused)
            .finish_non_exhaustive()
    }
}

/// RTT steps 3–4 at prober `i`: pairs a reply from `j` with its entry
/// in `i`'s list of `pending` probes and classifies at `tau` the round
/// trip this very exchange measured. `None` for a duplicate or stale
/// reply.
fn rtt_class(
    pending: &mut [Vec<(usize, f64)>],
    i: usize,
    j: usize,
    now: f64,
    tau: f64,
) -> Option<f64> {
    // No lists before the first probe: nothing can be pending.
    let pending = pending.get_mut(i)?;
    let pos = pending.iter().position(|&(target, _)| target == j)?;
    let (_, sent_at) = pending.swap_remove(pos);
    Some(Metric::Rtt.classify((now - sent_at) * 1000.0, tau))
}

/// How many deliveries ahead of the one being handled each stage of
/// the lookahead works (see the module docs). Sweep on `sim-fused`
/// (100 k nodes, M events/s, 2-vCPU host, alternated 8 s runs) with
/// the 40-byte slots: 1.34–1.50 without any lookahead; 2.71–3.13 at
/// 8/4/2 and 2.81–3.09 at 12/6/3 (seven runs each, medians 3.04 and
/// 2.87), 2.68–2.78 at 24/12/4, 2.71–2.93 at 32/16/4 (three each).
const SLOT_AHEAD: usize = 12;
const NODES_AHEAD: usize = 6;
const ROW_AHEAD: usize = 3;

/// One step of the software pipeline: called once per delivery, it
/// moves three later deliveries each one stage closer to being
/// cache-resident when their turn comes. Hints only — nothing here
/// reads protocol state or draws from an RNG.
#[inline]
fn prefetch_upcoming(net: &SimNet<Msg>, session: &Session) {
    net.prefetch_upcoming(SLOT_AHEAD);
    if let Some(mid) = net.upcoming(NODES_AHEAD) {
        prefetch(&session.nodes[mid.to]);
        prefetch(&session.nodes[mid.from].coords);
        prefetch(&session.slot_pos[mid.to]);
        prefetch(&session.slot_pos[mid.from]);
        session.neighbors.prefetch_bounds(mid.to);
    }
    if let Some(near) = net.upcoming(ROW_AHEAD) {
        session.neighbors.prefetch_row(near.to);
    }
}

#[cfg(test)]
mod tests {
    use super::wire::exchange;
    use super::*;
    use crate::config::DmfsgdConfig;
    use crate::session::SessionBuilder;
    use dmf_datasets::abw::hps3_like;
    use dmf_datasets::rtt::meridian_like;
    use dmf_proto::codec::encode_v2_into;
    use dmf_proto::{EncoderContext, MessageV2};
    use dmf_simnet::ShardedSimNet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

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
        // A loss level the mid-run hook would refuse is refused at
        // construction too: 1.5 would drop everything, NaN nothing.
        for loss_probability in [1.5, f64::NAN] {
            let lossy = NetConfig {
                loss_probability,
                ..NetConfig::default()
            };
            assert!(matches!(
                SimnetRunner::new(d.clone(), tau, DmfsgdConfig::paper_defaults(), lossy)
                    .unwrap_err(),
                DmfsgdError::Config(ConfigError::LossProbability { .. })
            ));
        }
        // The other two floats: a NaN sigma would silently mean "no
        // jitter", and a default delay that is ∞ as the `f32` the
        // network stores would panic in the queue mid-run.
        for delay_jitter_sigma in [-0.05, f64::NAN] {
            let jittery = NetConfig {
                delay_jitter_sigma,
                ..NetConfig::default()
            };
            assert!(matches!(
                SimnetRunner::new(d.clone(), tau, DmfsgdConfig::paper_defaults(), jittery)
                    .unwrap_err(),
                DmfsgdError::Config(ConfigError::JitterSigma { .. })
            ));
        }
        for default_one_way_delay_s in [-0.05, f64::NAN, 1e39] {
            let unreachable = NetConfig {
                default_one_way_delay_s,
                ..NetConfig::default()
            };
            assert!(matches!(
                SimnetRunner::new(d.clone(), tau, DmfsgdConfig::paper_defaults(), unreachable)
                    .unwrap_err(),
                DmfsgdError::Config(ConfigError::DefaultDelay { .. })
            ));
        }
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
    fn non_finite_deadline_is_rejected_not_spun_on() {
        let d = meridian_like(25, 9);
        let mut session = Session::builder()
            .nodes(25)
            .k(8)
            .seed(9)
            .tau(d.median())
            .build()
            .expect("valid");
        let dense = SimnetDriver::new(&session, d, NetConfig::default()).expect("valid");
        let net = ShardedSimNet::uniform(25, 4, 0.02, quiet(0));
        let islands = SimnetDriver::from_net(&session, net).expect("valid");
        for mut driver in [dense, islands] {
            for deadline in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                assert!(matches!(
                    driver.run_until(&mut session, deadline).unwrap_err(),
                    DmfsgdError::Config(ConfigError::Duration { .. })
                ));
            }
            // The rejected calls seeded no timers; a finite one still runs.
            assert_eq!((driver.net().pending(), driver.stats().probes_sent), (0, 0));
            assert!(driver.run_until(&mut session, 3.0).expect("finite") > 0);
        }
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
    fn churn_leaves_no_stale_outstanding_probes() {
        // Regression: an entry whose target left the prober's row (it
        // departed before replying, or the prober's slot was handed to
        // a newcomer with a fresh row) was never overwritten nor
        // removed: these 200 rounds left 88 entries, the longest list
        // 7, where 38 are in flight, at most 3 from one node.
        let d = meridian_like(30, 27);
        let tau = d.median();
        let mut session = Session::builder()
            .nodes(30)
            .k(8)
            .seed(27)
            .tau(tau)
            .build()
            .expect("valid");
        let mut driver = SimnetDriver::new(&session, d, NetConfig::default())
            .expect("valid")
            .with_probe_interval(0.05)
            .expect("positive interval")
            .with_exchange_fidelity(ExchangeFidelity::PerMessage);
        let mut now = 5.0;
        driver.run_until(&mut session, now).expect("warmup");
        for round in 0..200 {
            let leaver = session.alive()[round * 7 % session.num_alive()];
            session.leave(leaver).expect("29 alive > k + 1");
            now += 0.05;
            driver.run_until(&mut session, now).expect("one down");
            session.join().expect("the freed slot");
            now += 0.05;
            driver.run_until(&mut session, now).expect("rejoined");
        }
        // Every node probes a hundred times more; lossless, so what
        // stays outstanding is in flight to a current neighbor.
        driver.run_until(&mut session, now + 5.0).expect("settle");
        for (i, pending) in driver.pending_rtt.iter().enumerate() {
            assert!(pending.len() <= 8, "node {i} holds {pending:?}");
            for &(target, _) in pending {
                assert!(
                    session.neighbors.contains(i, target),
                    "node {i} still waits for {target}, no longer its neighbor"
                );
            }
        }
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
        let mid = runner.run_for(20.0).expect("run");
        assert_eq!(mid, runner.stats().measurements_completed);
        let second_half = runner.run_for(40.0).expect("run");
        assert!(runner.now() > 20.0 && runner.now() <= 40.0);
        // Every completed measurement is one update the session applied.
        assert_eq!(mid + second_half, runner.stats().measurements_completed);
        assert_eq!(mid + second_half, runner.session().measurements_used());
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
        // Valid as `f64`, ∞ / 0 as the `f32` the network stores.
        for factor in [1e39, 1e-50] {
            assert!(matches!(
                driver.set_delay_factor(0, factor).unwrap_err(),
                DmfsgdError::Config(ConfigError::DelayFactor { .. })
            ));
        }
        assert!(matches!(
            driver.set_delay_factor(99, 2.0).unwrap_err(),
            DmfsgdError::Membership(MembershipError::UnknownNode { .. })
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
        // The happy paths still drive the protocol; a delay function
        // has nothing to validate, and either metric takes one.
        driver.set_loss_probability(0.1).expect("valid p");
        driver.set_partition(&[0, 1]).expect("valid island");
        driver.clear_partition();
        driver.set_delay_factor(0, 2.0).expect("valid factor");
        driver.set_delay_fn(move |i, j| d.values[(i, j)] / 2.0 / 1000.0);
        abw_driver.set_delay_fn(|_, _| 0.02);
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
        driver.set_delay_fn(move |i, j| congested.values[(i, j)] / 2.0 / 1000.0);
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
    fn coordinate_pool_refills_after_loss_without_growing() {
        // A lost reply drops its two boxes, so under loss the pool must
        // allocate replacements — and once loss stops, hold no more
        // boxes than were ever in flight at once.
        let d = meridian_like(40, 26);
        let tau = d.median();
        let mut session = Session::builder()
            .nodes(40)
            .tau(tau)
            .build()
            .expect("valid");
        let mut driver = SimnetDriver::new(&session, d, NetConfig::default())
            .expect("valid")
            .with_exchange_fidelity(ExchangeFidelity::PerMessage);
        driver
            .run_until(&mut session, 0.0)
            .expect("seeds the timers");
        let mut peak_in_flight = 0;
        for (loss, until) in [(0.0, 20.0), (0.2, 60.0), (0.0, 100.0)] {
            driver.set_loss_probability(loss).expect("a probability");
            // One delivery at a time, so that no peak goes unseen.
            while let Some(t) = driver.net.peek_time().filter(|&t| t <= until) {
                driver.run_until(&mut session, t).expect("finite");
                // Probes carry no box, each reply two.
                peak_in_flight = peak_in_flight.max(2 * driver.net.pending_messages());
                assert!(
                    driver.free_coords.len() <= peak_in_flight,
                    "{} boxes pooled at t={t}, {peak_in_flight} ever in flight",
                    driver.free_coords.len()
                );
            }
        }
        assert!(driver.net.stats().dropped > 100, "the lossy phase lost");
        assert!(!driver.free_coords.is_empty(), "replies came home");
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
        let mut session = Session::builder()
            .nodes(30)
            .tau(tau)
            .build()
            .expect("valid");
        let mut driver = SimnetDriver::new(&session, d, NetConfig::default())
            .expect("valid")
            .with_wire_version(WireVersion::V2);
        driver.run_until(&mut session, 60.0).expect("run");
        // A pair that has exchanged: its decoder holds baselines and
        // has something to ack.
        let (prober, target) = driver
            .exchanges
            .iter()
            .find(|ex| ex.prober.reply_dec.ack().is_some())
            .expect("60 s complete many cycles")
            .pair;
        let decoder = |driver: &mut SimnetDriver, session: &Session| {
            let ex = exchange(&mut driver.exchanges, &session.neighbors, prober, target);
            ex.expect("still neighbors").prober.reply_dec.clone()
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
        let naive = runner.session().predicted_scores_naive();
        assert_eq!(batched, naive, "batched U·Vᵀ must equal per-pair dots");
    }

    fn session(n: usize, seed: u64) -> Session {
        let config = DmfsgdConfig {
            seed,
            ..DmfsgdConfig::paper_defaults()
        };
        SessionBuilder::from_config(config)
            .nodes(n)
            .tau(60.0)
            .build()
            .unwrap()
    }

    fn quiet(seed: u64) -> NetConfig {
        NetConfig {
            delay_jitter_sigma: 0.0,
            seed,
            ..NetConfig::default()
        }
    }

    /// A function-backed 32-node net in 4 islands: intra-island RTTs
    /// of 40–118 ms, so both classes of τ = 60 ms occur.
    fn four_islands(config: NetConfig) -> ShardedSimNet<Msg> {
        ShardedSimNet::from_delay_fn(32, 4, config, |i, j| {
            0.02 + 0.001 * ((i * 7 + j * 3) % 40) as f64
        })
    }

    #[test]
    fn k_island_net_trains_and_reports_stats() {
        let mut s = session(32, 9);
        let mut driver = SimnetDriver::from_net(&s, four_islands(quiet(1))).unwrap();
        let applied = driver.run_until(&mut s, 30.0).unwrap();
        assert!(applied > 200, "fused probes every second: {applied}");
        assert_eq!(driver.stats().measurements_completed, applied);
        assert!(driver.stats().probes_sent >= applied);
        assert!(driver.now() <= 30.0);
        assert_eq!(s.measurements_used(), applied);
        // A resumed run starts past the first deadline, stops at the
        // second, and keeps the three counts in step.
        let more = driver.run_until(&mut s, 35.0).unwrap();
        assert!(more > 0);
        assert!(driver.now() > 30.0 && driver.now() <= 35.0);
        assert_eq!(driver.stats().measurements_completed, applied + more);
        assert_eq!(s.measurements_used(), applied + more);
    }

    /// Per-message and wire-v2 RTT over 4 islands, with jitter and
    /// loss drawn from four island streams: both train, and a
    /// same-seed rerun replays each bit for bit.
    #[test]
    fn k_island_per_message_and_wire_v2_rtt_replay_bitwise() {
        let run = |wire: bool| {
            let mut s = session(32, 11);
            let net = four_islands(NetConfig {
                loss_probability: 0.05,
                seed: 11,
                ..NetConfig::default()
            });
            let driver = SimnetDriver::from_net(&s, net).unwrap();
            let mut driver = if wire {
                driver.with_wire_version(WireVersion::V2)
            } else {
                driver.with_exchange_fidelity(ExchangeFidelity::PerMessage)
            };
            let applied = driver.run_until(&mut s, 30.0).unwrap();
            let stats = (driver.net().stats(), driver.wire_stats());
            (applied, stats, s.snapshot().to_json())
        };
        for wire in [false, true] {
            let first = run(wire);
            assert!(first.0 > 200, "wire={wire}: {} applied", first.0);
            assert!(first.1 .0.dropped > 0, "wire={wire}: the islands lose");
            assert_eq!(first.1 .1.messages_sent > 0, wire);
            assert!(first == run(wire), "wire={wire}: same seed, another run");
        }
    }

    /// The same 24-node network twice, each behind its own identically
    /// seeded session: the dense layout built from the dataset, and a
    /// 1-island function-backed net with the same delays (no jitter or
    /// loss → no RNG divergence).
    fn one_island_pair(fidelity: ExchangeFidelity) -> [(Session, SimnetDriver); 2] {
        let d = meridian_like(24, 5);
        let dense_session = session(24, 4);
        let island_session = session(24, 4);
        let dense = SimnetDriver::new(&dense_session, d.clone(), quiet(2)).unwrap();
        // Mirror `SimNet::from_rtt_dataset` exactly: known pairs take
        // RTT/2, unknown pairs (incl. the diagonal) the default delay.
        let default = quiet(2).default_one_way_delay_s;
        let delay = move |i: usize, j: usize| {
            if d.mask.is_known(i, j) {
                d.values[(i, j)] / 2.0 / 1000.0
            } else {
                default
            }
        };
        let net = ShardedSimNet::from_delay_fn(24, 1, quiet(2), delay);
        let island = SimnetDriver::from_net(&island_session, net).unwrap();
        [
            (dense_session, dense.with_exchange_fidelity(fidelity)),
            (island_session, island.with_exchange_fidelity(fidelity)),
        ]
    }

    fn assert_bitwise_equal([(dense, _), (island, _)]: &[(Session, SimnetDriver); 2]) {
        assert_eq!(
            dense.measurements_used(),
            island.measurements_used(),
            "same measurement count"
        );
        let a = dense.predicted_scores();
        let b = island.predicted_scores();
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "coordinates diverged");
        }
    }

    /// A 1-island function-backed net replays the dense layout
    /// bit-for-bit, in either RTT fidelity (session RNG draws happen
    /// in identical delivery order). This is the end-to-end leg of the
    /// order-equivalence story: not just the event order, but the
    /// learned coordinates match.
    #[test]
    fn one_island_matches_single_net_driver_bitwise() {
        for fidelity in [ExchangeFidelity::Fused, ExchangeFidelity::PerMessage] {
            let mut pair = one_island_pair(fidelity);
            for (s, driver) in &mut pair {
                driver.run_until(s, 20.0).unwrap();
            }
            assert_bitwise_equal(&pair);
        }
    }

    /// The same replay across membership churn, which is what reaches
    /// the loop's dead-node branches: a departed prober's exchange
    /// comes home and its timer idles, and exchanges already in flight
    /// towards a departed target complete untrained. The lookahead
    /// reads those slots early, so this also pins that it does not
    /// care who is alive.
    #[test]
    fn one_island_matches_single_net_driver_bitwise_across_churn() {
        for fidelity in [ExchangeFidelity::Fused, ExchangeFidelity::PerMessage] {
            let mut pair = one_island_pair(fidelity);
            for (s, driver) in &mut pair {
                driver.run_until(s, 8.0).unwrap();
                s.leave(3).unwrap();
                s.leave(17).unwrap();
            }
            let (s, island) = &mut pair[1];
            let before = (island.net().stats(), island.stats());
            island.run_until(s, 14.0).unwrap();
            let net = island.net().stats();
            let exchanges = net.delivered - before.0.delivered;
            let trained = island.stats().measurements_completed - before.1.measurements_completed;
            assert!(net.timers - before.0.timers >= 10, "departed probers idle");
            assert!(
                exchanges - trained > 2,
                "beyond the two departed probers' own exchanges, some completed \
                 against a departed target: {exchanges} delivered, {trained} trained"
            );
            let (s, dense) = &mut pair[0];
            dense.run_until(s, 14.0).unwrap();
            for (s, driver) in &mut pair {
                s.join().unwrap();
                s.join().unwrap();
                driver.run_until(s, 20.0).unwrap();
                assert_eq!(s.num_alive(), 24);
            }
            assert_bitwise_equal(&pair);
        }
    }

    #[test]
    fn population_mismatch_is_typed() {
        let s = session(16, 0);
        let net = ShardedSimNet::uniform(17, 3, 0.02, quiet(0));
        let err = SimnetDriver::from_net(&s, net).unwrap_err();
        assert!(matches!(
            err,
            DmfsgdError::Membership(MembershipError::ProviderMismatch { .. })
        ));
    }

    #[test]
    fn re_embedding_a_k_island_net_runs() {
        let mut s = session(24, 3);
        let net = ShardedSimNet::uniform(24, 4, 0.02, quiet(0));
        let mut driver = SimnetDriver::from_net(&s, net).unwrap();
        assert!(driver.run_until(&mut s, 5.0).unwrap() > 0);
        // The swap takes: the new function is asked for intra-island
        // legs (islands of 6 ids) and never for cross-island ones.
        let calls = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&calls);
        driver.set_delay_fn(move |i, j| {
            assert_eq!(i / 6, j / 6, "asked for a cross-island leg");
            counter.fetch_add(1, Ordering::Relaxed);
            0.03
        });
        assert_eq!(driver.net().table_bytes(), 0);
        assert!(driver.run_until(&mut s, 10.0).unwrap() > 0);
        assert!(calls.load(Ordering::Relaxed) > 0, "the new function runs");
    }
}
