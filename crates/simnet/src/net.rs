//! Message-passing network simulation: one link model, two layouts.
//!
//! [`SimNet`] delivers opaque messages between nodes with one-way
//! delays derived from the RTT ground truth (half the pair RTT, plus
//! log-normal jitter) and optional random loss. Timers are modeled as
//! lossless self-deliveries. The structure mirrors how a real
//! deployment behaves — a probe is a message exchange taking real time,
//! a reply can be lost — and in wire mode the node logic on top of it is
//! the very datagram handler the UDP agents in `dmf-agent` run
//! (`dmf_core::endpoint`); only the transport under it differs.
//!
//! Everything a message meets on its way — leg delay, partition cut,
//! per-leg loss draw, straggler factor, jitter draw, the in-flight
//! accounting — is written here once, over a population stored as
//! contiguous *islands* (an RNG stream each) sharing one event queue
//! and one delay source: a function of global ids, evaluated when an
//! intra-island leg is sent, which a scenario swaps mid-run
//! ([`SimNet::set_delay_fn`]) when the network under the nodes moves.
//! A measured RTT truth is such a function too, over the `n × n` table
//! it owns ([`SimNet::from_rtt_dataset`]). The constructors on
//! [`SimNet`] build the **dense** layout, one island;
//! [`ShardedSimNet`](crate::ShardedSimNet)'s build the **k-island**
//! layout of the same struct, whose cross-island pairs travel at the
//! default delay (see [`crate::shard`] for why and what it costs).

use crate::event::{EventQueue, Lane, SimTime};
use dmf_datasets::Dataset;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Network behaviour knobs (fault injection included).
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Probability that any network message is silently dropped.
    /// Timers never drop.
    pub loss_probability: f64,
    /// Log-normal sigma of per-message delay jitter (finite, ≥ 0).
    pub delay_jitter_sigma: f64,
    /// Fallback one-way delay (seconds) for pairs without ground-truth
    /// RTT (unmeasured pairs in sparse datasets), and the delay of every
    /// cross-island leg on the k-island layout; finite, ≥ 0 as `f32`.
    pub default_one_way_delay_s: f64,
    /// RNG seed for delays and losses.
    pub seed: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            loss_probability: 0.0,
            delay_jitter_sigma: 0.05,
            default_one_way_delay_s: 0.05,
            seed: 0,
        }
    }
}

/// A message being delivered to a node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivery<M> {
    /// Sender node id (`from == to` for timers).
    pub from: usize,
    /// Destination node id.
    pub to: usize,
    /// Payload.
    pub msg: M,
}

/// Counters describing what the network did (used by tests and the
/// harness to report fault-injection levels actually achieved).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages handed to `send` (excluding timers).
    pub sent: usize,
    /// Messages delivered (excluding timers).
    pub delivered: usize,
    /// Messages dropped by loss injection.
    pub dropped: usize,
    /// Timers fired.
    pub timers: usize,
}

/// Per-message multiplicative delay jitter: `exp(σ·Z)`, `Z ~ N(0,1)`.
///
/// Box–Muller yields *two* independent normals per pair of uniforms
/// (the cosine and sine projections); the historical sampler computed
/// the cosine one and threw the sine away, paying `ln`/`sqrt`/`cos`
/// on every message. Banking the companion halves the transcendental
/// cost of the single hottest sampler in a simulated run while
/// drawing from exactly the same distribution.
struct JitterSampler {
    sigma: f64,
    banked: Option<f64>,
}

impl JitterSampler {
    fn new(sigma: f64) -> Self {
        Self {
            sigma,
            banked: None,
        }
    }

    #[inline]
    fn sample(&mut self, rng: &mut ChaCha8Rng) -> f64 {
        let z = match self.banked.take() {
            Some(z) => z,
            None => {
                // Box–Muller; u1 in (0, 1] avoids ln(0).
                let u1: f64 = 1.0 - rng.gen::<f64>();
                let u2: f64 = rng.gen();
                let r = (-2.0 * u1.ln()).sqrt();
                let (sin, cos) = (2.0 * std::f64::consts::PI * u2).sin_cos();
                self.banked = Some(r * sin);
                r * cos
            }
        };
        (self.sigma * z).exp()
    }
}

/// What a layout splits: the RNG stream an island's senders draw loss
/// and jitter from. An island owns no events and no per-pair state —
/// its intra-island delays come from the net's one delay function.
struct Island {
    rng: ChaCha8Rng,
    jitter: JitterSampler,
}

impl Island {
    /// One per-leg loss decision (no draw at all on a loss-free
    /// network).
    #[inline]
    fn draw_loss(&mut self, loss_probability: f64) -> bool {
        loss_probability > 0.0 && self.rng.gen::<f64>() < loss_probability
    }

    /// One multiplicative jitter factor (exactly `1.0`, with no RNG
    /// draw, when jitter is disabled).
    #[inline]
    fn draw_jitter(&mut self) -> f64 {
        if self.jitter.sigma > 0.0 {
            self.jitter.sample(&mut self.rng)
        } else {
            1.0
        }
    }
}

/// The simulated network: an event queue plus a latency/loss model,
/// with mid-run impairment hooks (loss level, partitions, stragglers,
/// a swapped delay function) for non-stationary scenarios. Node ids
/// are global (`0..n`); island membership is by contiguous range.
pub struct SimNet<M> {
    queue: EventQueue<Delivery<M>>,
    islands: Vec<Island>,
    island_size: usize,
    n: usize,
    /// The one delay source: a pure function of global ids, evaluated
    /// once per intra-island leg at send time and never at
    /// construction. Its value is rounded through `f32`: delays are
    /// physical quantities good to well under a relative 1e-7, and a
    /// table of measured delays stores `f32`, so a function and a table
    /// of the same delays give bit-identical legs.
    delay_s: Box<dyn Fn(usize, usize) -> f64 + Send + Sync>,
    /// Bytes of per-pair state `delay_s` owns: the measured truth's
    /// table under [`from_rtt_dataset`](Self::from_rtt_dataset), 0
    /// after [`set_delay_fn`](Self::set_delay_fn) and for every other
    /// constructor.
    table_bytes: usize,
    /// One-way delay between islands: the configured default, rounded
    /// through `f32` like every intra-island delay, so a cross-island
    /// leg costs bit-exactly what the same pair would in a dense table.
    cross_delay_s: f64,
    loss_probability: f64,
    stats: NetStats,
    in_flight_non_timer: usize,
    /// Partition classes: a message passes only between nodes of
    /// equal class, so each bit models one independent island's cut.
    /// Empty = no partition (the hot-path fast case).
    partition_class: Vec<u32>,
    /// Per-node delay multiplier (stragglers); empty = all ones.
    delay_factor: Vec<f32>,
}

impl<M> SimNet<M> {
    /// Builds a network over `n` nodes whose one-way delays come from
    /// an RTT dataset in **milliseconds** (delay = RTT/2, converted to
    /// seconds). Pairs the dataset does not cover use the configured
    /// default delay. The delays are read into an `n × n` `f32` table
    /// that the net's delay function owns: a measured truth is data.
    pub fn from_rtt_dataset(dataset: &Dataset, config: NetConfig) -> Self {
        let n = dataset.len();
        let mut table = vec![config.default_one_way_delay_s as f32; n * n];
        for (i, j) in dataset.mask.iter_known() {
            table[i * n + j] = (dataset.values[(i, j)] / 2.0 / 1000.0) as f32;
        }
        let table_bytes = std::mem::size_of_val(table.as_slice());
        let mut net = Self::from_delay_fn(n, config, move |i, j| f64::from(table[i * n + j]));
        net.table_bytes = table_bytes;
        net
    }

    /// Builds a network with a uniform one-way delay (useful for unit
    /// tests of protocol logic).
    pub fn uniform(n: usize, one_way_delay_s: f64, config: NetConfig) -> Self {
        Self::from_delay_fn(n, config, move |_, _| one_way_delay_s)
    }

    /// Builds a network whose one-way delay for the leg `i → j` is
    /// `delay_s(i, j)` (seconds). This is the dataset-free
    /// constructor: synthetic topologies embed a delay model directly
    /// instead of materializing an `n × n` ground-truth matrix first.
    ///
    /// The net keeps `delay_s` and stores no per-pair state: it is
    /// evaluated once per leg, when the leg is sent, in no fixed order
    /// and never at construction, so it must be pure. Its value is
    /// rounded through `f32`, as a table entry would be, and must be
    /// finite and ≥ 0 *as `f32`* (`1e39` rounds to ∞), or
    /// [`send`](Self::send) panics: such a leg would be scheduled in
    /// the past or at t = ∞.
    pub fn from_delay_fn(
        n: usize,
        config: NetConfig,
        delay_s: impl Fn(usize, usize) -> f64 + Send + Sync + 'static,
    ) -> Self {
        // Steady state holds ~1 timer per node plus the in-flight
        // messages; reserving up front keeps the hot loop
        // allocation-free from the first delivery.
        Self::with_layout(n, 1, 4 * n + 16, config, delay_s)
    }

    /// The one constructor: `n` nodes in `⌈n / s⌉` islands of
    /// `s = ⌈n / islands⌉` consecutive ids (the last may be shorter;
    /// none is empty), whose intra-island legs take `delay_s` over
    /// **global** ids. Island `k` seeds its stream from `config.seed`
    /// offset by `k`, so island 0 — the dense layout's only one — draws
    /// from `config.seed` itself.
    pub(crate) fn with_layout(
        n: usize,
        islands: usize,
        queue_capacity: usize,
        config: NetConfig,
        delay_s: impl Fn(usize, usize) -> f64 + Send + Sync + 'static,
    ) -> Self {
        // NaN would pass for "no jitter" (`sigma > 0.0` is false) and
        // for "no loss"; the queue takes no NaN or ∞, which `1e39` is
        // as stored.
        check_loss_probability(config.loss_probability);
        let sigma = config.delay_jitter_sigma;
        let cross_delay = config.default_one_way_delay_s as f32;
        assert!(
            sigma >= 0.0 && sigma.is_finite() && cross_delay >= 0.0 && cross_delay.is_finite(),
            "jitter sigma {sigma} or default delay {cross_delay} s out of [0, ∞)"
        );
        let island_size = n.div_ceil(islands).max(1);
        let islands = (0..n.div_ceil(island_size))
            .map(|k| {
                let seed = config
                    .seed
                    .wrapping_add((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                Island {
                    rng: ChaCha8Rng::seed_from_u64(seed),
                    jitter: JitterSampler::new(sigma),
                }
            })
            .collect();
        Self {
            queue: EventQueue::with_capacity(queue_capacity),
            islands,
            island_size,
            n,
            delay_s: Box::new(delay_s),
            table_bytes: 0,
            cross_delay_s: f64::from(cross_delay),
            loss_probability: config.loss_probability,
            stats: NetStats::default(),
            in_flight_non_timer: 0,
            partition_class: Vec::new(),
            delay_factor: Vec::new(),
        }
    }

    /// Number of nodes (across all islands).
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of islands (1 for the dense layout).
    pub fn islands(&self) -> usize {
        self.islands.len()
    }

    /// The island a global node id belongs to.
    ///
    /// # Panics
    /// Panics on an out-of-range id.
    pub fn island_of(&self, node: usize) -> usize {
        assert!(node < self.n, "node id out of range");
        node / self.island_size
    }

    /// Current simulated time in seconds.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Network statistics so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    // ---- impairment hooks (non-stationary scenarios) ----------------

    /// Replaces the message-loss probability mid-run (scenario loss
    /// epochs). Timers are still never lost.
    ///
    /// # Panics
    /// Panics when `p` is not a probability.
    pub fn set_loss_probability(&mut self, p: f64) {
        check_loss_probability(p);
        self.loss_probability = p;
    }

    /// The message-loss probability currently in force.
    pub fn loss_probability(&self) -> f64 {
        self.loss_probability
    }

    /// Partitions the network into one island: `island` nodes can no
    /// longer exchange messages with the rest (island-internal and
    /// mainland-internal traffic still flows; cut messages count as
    /// dropped). Replaces any previous partition. Timers keep firing
    /// on both sides. For several concurrent islands use
    /// [`set_partition_classes`](Self::set_partition_classes).
    ///
    /// # Panics
    /// Panics on an out-of-range node id, or when the island holds the
    /// whole population (the cut would be empty, silently inverting
    /// the caller's intent).
    pub fn set_partition(&mut self, island: &[usize]) {
        if island.is_empty() {
            self.partition_class.clear();
            return;
        }
        let mut classes = vec![0u32; self.n];
        for &i in island {
            assert!(i < self.n, "node id out of range");
            classes[i] = 1;
        }
        assert!(
            classes.contains(&0),
            "partition island must be a strict subset of the population"
        );
        self.partition_class = classes;
    }

    /// Partitions the network into arbitrary connectivity classes: a
    /// message passes only between nodes of equal class, so several
    /// islands can be cut from the mainland *and from each other* at
    /// once (encode each island as its own bit, as
    /// `dmf_datasets::scenario::Impairments::partition_classes` does).
    /// An empty slice (or all-equal classes) means fully connected.
    /// Replaces any previous partition.
    ///
    /// # Panics
    /// Panics when `classes` is non-empty and not one entry per node.
    pub fn set_partition_classes(&mut self, classes: &[u32]) {
        if classes.is_empty() {
            self.partition_class.clear();
            return;
        }
        assert_eq!(
            classes.len(),
            self.n,
            "partition class vector shape mismatch"
        );
        self.partition_class.clear();
        self.partition_class.extend_from_slice(classes);
    }

    /// Heals any partition.
    pub fn clear_partition(&mut self) {
        self.partition_class.clear();
    }

    /// True when a message between `from` and `to` would cross an
    /// active partition cut.
    fn is_cut(&self, from: usize, to: usize) -> bool {
        !self.partition_class.is_empty() && self.partition_class[from] != self.partition_class[to]
    }

    /// Multiplies every message leg touching `node` by `factor`
    /// (straggler injection: the host is slow, not the path — ground
    /// truth is unaffected). Factors from both endpoints compose
    /// multiplicatively; `1.0` restores the node.
    ///
    /// # Panics
    /// Panics on an out-of-range id, or a factor that is not finite
    /// and positive *as stored* (`f32`: `1e39` would round to ∞ and
    /// `1e-50` to 0, and a leg of either never arrives).
    pub fn set_delay_factor(&mut self, node: usize, factor: f64) {
        assert!(node < self.n, "node id out of range");
        let stored = factor as f32;
        assert!(
            stored.is_finite() && stored > 0.0,
            "delay factor must be positive (got {factor})"
        );
        if self.delay_factor.is_empty() {
            if stored == 1.0 {
                return;
            }
            self.delay_factor = vec![1.0; self.n];
        }
        self.delay_factor[node] = stored;
    }

    /// Replaces the delay function mid-run (re-embedding: drift or
    /// congestion moved the network). Legs already in flight keep the
    /// delay they departed with; every leg sent afterwards asks
    /// `delay_s`, under [`from_delay_fn`](Self::from_delay_fn)'s
    /// contract: finite and ≥ 0 as `f32`, or [`send`](Self::send)
    /// panics. On the k-island layout cross-island legs keep the
    /// default delay. A table the old function owned is freed with it.
    pub fn set_delay_fn(&mut self, delay_s: impl Fn(usize, usize) -> f64 + Send + Sync + 'static) {
        self.delay_s = Box::new(delay_s);
        self.table_bytes = 0;
    }

    /// One-way delay of the leg `from → to` (`sf`, `st` their
    /// islands), in seconds: the delay function's value or the
    /// cross-island default, times both endpoints' straggler factors.
    #[inline]
    fn leg_delay_s(&self, sf: usize, st: usize, from: usize, to: usize) -> f64 {
        let base = if sf == st {
            f64::from((self.delay_s)(from, to) as f32)
        } else {
            self.cross_delay_s
        };
        if self.delay_factor.is_empty() {
            base
        } else {
            base * (f64::from(self.delay_factor[from]) * f64::from(self.delay_factor[to]))
        }
    }

    /// Sends `msg` from `from` to `to`, subject to partitions, then
    /// loss and jitter drawn from the *sender's* island stream.
    ///
    /// # Panics
    /// Panics on an out-of-range node id, or on a leg delay that is
    /// negative or not finite (see [`from_delay_fn`](Self::from_delay_fn)).
    pub fn send(&mut self, from: usize, to: usize, msg: M) {
        let (sf, st) = (self.island_of(from), self.island_of(to));
        self.stats.sent += 1;
        if self.is_cut(from, to) || self.islands[sf].draw_loss(self.loss_probability) {
            self.stats.dropped += 1;
            return;
        }
        let base = self.leg_delay_s(sf, st, from, to);
        let jitter = self.islands[sf].draw_jitter();
        self.in_flight_non_timer += 1;
        self.queue
            .schedule_after(base * jitter, Delivery { from, to, msg });
    }

    /// Schedules a lossless timer for `node` after `delay` seconds.
    ///
    /// Timers ride the far queue lane: they are periodic with
    /// ~second horizons while message deliveries land within
    /// milliseconds, and separating the populations keeps delivery
    /// pops out of the (much larger) timer heap.
    ///
    /// # Panics
    /// Panics on an out-of-range id, or a delay that is negative or
    /// not finite.
    pub fn set_timer(&mut self, node: usize, delay: SimTime, msg: M) {
        assert!(delay >= 0.0, "negative timer delay {delay}");
        self.set_timer_at(node, self.now() + delay, msg);
    }

    /// Schedules a lossless timer for `node` at absolute time `at`.
    ///
    /// # Panics
    /// Panics on an out-of-range id, or a time that is not finite or
    /// lies in the simulated past.
    pub fn set_timer_at(&mut self, node: usize, at: SimTime, msg: M) {
        assert!(node < self.n, "node id out of range");
        self.queue.schedule_at_on(
            Lane::Far,
            at,
            Delivery {
                from: node,
                to: node,
                msg,
            },
        );
    }

    /// Schedules a full probe→reply round trip as **one** delivery:
    /// `msg` arrives back at `from` after
    /// `delay(from→to)·jitter + delay(to→from)·jitter`, with loss
    /// applied independently to each leg (either loss silently drops
    /// the whole exchange, exactly as losing that message would).
    /// Returns whether the exchange survived (false = a leg was lost).
    ///
    /// This is the event-collapsed fast path for request/response
    /// exchanges whose request leg has no observable effect at the
    /// responder: it halves the event count and keeps coordinate
    /// payloads out of the queue entirely. Use [`send`](Self::send)
    /// when the intermediate delivery matters.
    pub fn roundtrip(&mut self, from: usize, to: usize, msg: M) -> bool {
        self.roundtrip_at(from, to, self.now(), msg)
    }

    /// [`roundtrip`](Self::roundtrip) departing at the (current or
    /// future) absolute time `at`: the completion delivers at
    /// `at + rtt`. Lets a driver chain periodic exchanges without a
    /// separate timer event per period. Both legs draw from the
    /// prober's island stream.
    ///
    /// # Panics
    /// Panics on an out-of-range id or a departure in the past.
    pub fn roundtrip_at(&mut self, from: usize, to: usize, at: SimTime, msg: M) -> bool {
        let (sf, st) = (self.island_of(from), self.island_of(to));
        assert!(at >= self.now(), "roundtrip departing in the past");
        self.stats.sent += 2;
        if self.is_cut(from, to) {
            // The probe leg dies at the cut; the reply is never sent.
            self.stats.dropped += 1;
            return false;
        }
        let lost_fwd = self.islands[sf].draw_loss(self.loss_probability);
        let lost_back = self.islands[sf].draw_loss(self.loss_probability);
        if lost_fwd || lost_back {
            self.stats.dropped += usize::from(lost_fwd) + usize::from(lost_back);
            return false;
        }
        let fwd = self.leg_delay_s(sf, st, from, to);
        let back = self.leg_delay_s(st, sf, to, from);
        let island = &mut self.islands[sf];
        let rtt = fwd * island.draw_jitter() + back * island.draw_jitter();
        self.in_flight_non_timer += 1;
        self.queue.schedule_at_on(
            Lane::Far,
            at + rtt,
            Delivery {
                from: to,
                to: from,
                msg,
            },
        );
        true
    }

    /// Delivers the next message (advancing simulated time).
    pub fn next_delivery(&mut self) -> Option<(SimTime, Delivery<M>)> {
        self.next_delivery_before(SimTime::INFINITY)
    }

    /// Delivers the next message only if it is due at or before
    /// `deadline`; later messages stay queued and the clock stays put.
    pub fn next_delivery_before(&mut self, deadline: SimTime) -> Option<(SimTime, Delivery<M>)> {
        let (t, d) = self.queue.pop_before(deadline)?;
        if d.from == d.to {
            self.stats.timers += 1;
        } else {
            self.stats.delivered += 1;
            self.in_flight_non_timer -= 1;
        }
        Some((t, d))
    }

    /// Timestamp of the next delivery without consuming it (`None`
    /// when the queue is empty). Lets run loops stop *before* an event
    /// past their deadline instead of delivering it first.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// The delivery `k` far-lane pops after the next one, if the
    /// queue's sorted head bucket reaches that far
    /// ([`EventQueue::upcoming`]): a hint for prefetching the state it
    /// will touch, never a promise about delivery order.
    pub fn upcoming(&self, k: usize) -> Option<&Delivery<M>> {
        self.queue.upcoming(k)
    }

    /// Prefetches the queue slot holding the delivery
    /// [`upcoming(k)`](Self::upcoming) would show, without reading it
    /// ([`EventQueue::prefetch_upcoming`]): the first stage of a
    /// lookahead, before the delivery's addressees can be known.
    #[inline]
    pub fn prefetch_upcoming(&self, k: usize) {
        self.queue.prefetch_upcoming(k);
    }

    /// Number of queued deliveries (timers included).
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Number of queued *network* messages (timers excluded).
    pub fn pending_messages(&self) -> usize {
        self.in_flight_non_timer
    }

    /// Bytes of per-pair delay state the net holds: `n² · 4` for a net
    /// built on a measured RTT truth
    /// ([`from_rtt_dataset`](Self::from_rtt_dataset)) until its delay
    /// function is swapped, and 0 otherwise: the net stores no other
    /// per-pair state at any population or island count.
    pub fn table_bytes(&self) -> usize {
        self.table_bytes
    }
}

/// The one range check on a loss probability, at construction and in
/// [`SimNet::set_loss_probability`] alike: NaN would never drop a
/// message, and a value above 1 would drop every one.
fn check_loss_probability(p: f64) {
    assert!(
        (0.0..=1.0).contains(&p),
        "loss probability {p} out of [0, 1]"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmf_datasets::rtt::meridian_like;

    #[test]
    fn message_arrives_after_half_rtt() {
        let d = meridian_like(10, 1);
        let mut net: SimNet<&str> = SimNet::from_rtt_dataset(
            &d,
            NetConfig {
                delay_jitter_sigma: 0.0,
                ..NetConfig::default()
            },
        );
        net.send(0, 1, "probe");
        let (t, delivery) = net.next_delivery().unwrap();
        assert_eq!(
            delivery,
            Delivery {
                from: 0,
                to: 1,
                msg: "probe"
            }
        );
        let expected = d.values[(0, 1)] / 2.0 / 1000.0;
        // Delays are stored as f32: exact to a relative ~6e-8.
        assert!(
            (t - expected).abs() < expected * 1e-6,
            "t={t}, expected {expected}"
        );

        // A pair the dataset does not cover travels at the default.
        let mut sparse = d;
        sparse.mask.set(0, 1, false);
        let config = NetConfig {
            delay_jitter_sigma: 0.0,
            ..NetConfig::default()
        };
        let default = f64::from(config.default_one_way_delay_s as f32);
        let mut net: SimNet<&str> = SimNet::from_rtt_dataset(&sparse, config);
        net.send(0, 1, "probe");
        assert_eq!(net.next_delivery().unwrap().0, default);
    }

    #[test]
    fn round_trip_takes_full_rtt() {
        let d = meridian_like(10, 2);
        let mut net: SimNet<u8> = SimNet::from_rtt_dataset(
            &d,
            NetConfig {
                delay_jitter_sigma: 0.0,
                ..NetConfig::default()
            },
        );
        net.send(3, 7, 1);
        let (_, probe) = net.next_delivery().unwrap();
        net.send(probe.to, probe.from, 2);
        let (t, reply) = net.next_delivery().unwrap();
        assert_eq!(reply.to, 3);
        let expected_rtt_s = d.values[(3, 7)] / 1000.0;
        assert!((t - expected_rtt_s).abs() < expected_rtt_s * 1e-6);
    }

    #[test]
    fn loss_injection_drops_messages() {
        let mut net: SimNet<u32> = SimNet::uniform(
            4,
            0.01,
            NetConfig {
                loss_probability: 0.5,
                seed: 3,
                ..NetConfig::default()
            },
        );
        for i in 0..1000 {
            net.send(0, 1, i);
        }
        let stats = net.stats();
        assert_eq!(stats.sent, 1000);
        assert!(
            stats.dropped > 350 && stats.dropped < 650,
            "dropped {}",
            stats.dropped
        );
        assert_eq!(net.pending_messages() + stats.dropped, 1000);
    }

    #[test]
    fn timers_never_drop() {
        let mut net: SimNet<u32> = SimNet::uniform(
            2,
            0.01,
            NetConfig {
                loss_probability: 1.0,
                seed: 4,
                ..NetConfig::default()
            },
        );
        for i in 0..50 {
            net.set_timer(1, 0.1 + i as f64, i);
        }
        let mut fired = 0;
        while let Some((_, d)) = net.next_delivery() {
            assert_eq!(d.from, d.to);
            fired += 1;
        }
        assert_eq!(fired, 50);
        assert_eq!(net.stats().timers, 50);
    }

    #[test]
    fn deliveries_are_time_ordered() {
        let d = meridian_like(20, 5);
        let mut net: SimNet<usize> = SimNet::from_rtt_dataset(&d, NetConfig::default());
        for i in 0..19 {
            net.send(i, i + 1, i);
        }
        let mut last = 0.0;
        while let Some((t, _)) = net.next_delivery() {
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn send_validates_node_ids() {
        let mut net: SimNet<()> = SimNet::uniform(2, 0.01, NetConfig::default());
        net.send(0, 5, ());
    }

    #[test]
    fn partition_cuts_cross_island_traffic_only() {
        let mut net: SimNet<u32> = SimNet::uniform(
            6,
            0.01,
            NetConfig {
                delay_jitter_sigma: 0.0,
                ..NetConfig::default()
            },
        );
        net.set_partition(&[0, 1]);
        assert!(net.is_cut(0, 3) && net.is_cut(3, 0));
        assert!(!net.is_cut(0, 1), "island-internal traffic flows");
        assert!(!net.is_cut(4, 5), "mainland-internal traffic flows");
        net.send(0, 3, 1); // cut: dropped
        net.send(0, 1, 2); // island-internal: delivered
        net.send(4, 5, 3); // mainland: delivered
        assert!(!net.roundtrip(2, 1, 9), "roundtrip across the cut dies");
        assert!(net.roundtrip(0, 1, 10));
        let mut got = Vec::new();
        while let Some((_, d)) = net.next_delivery() {
            got.push(d.msg);
        }
        got.sort_unstable();
        assert_eq!(got, vec![2, 3, 10]);
        assert_eq!(net.stats().dropped, 2);

        // Healing restores full connectivity.
        net.clear_partition();
        assert!(!net.is_cut(0, 3));
        assert!(net.roundtrip(2, 1, 11));
    }

    #[test]
    fn partition_classes_cut_islands_from_each_other() {
        let mut net: SimNet<u32> = SimNet::uniform(
            6,
            0.01,
            NetConfig {
                delay_jitter_sigma: 0.0,
                ..NetConfig::default()
            },
        );
        // Two islands {0,1} and {2,3}, mainland {4,5}: every
        // cross-group pair is cut, intra-group traffic flows.
        net.set_partition_classes(&[1, 1, 2, 2, 0, 0]);
        assert!(net.is_cut(0, 2), "islands are mutually cut");
        assert!(net.is_cut(1, 4) && net.is_cut(3, 5));
        assert!(!net.is_cut(0, 1) && !net.is_cut(2, 3) && !net.is_cut(4, 5));
        net.send(0, 2, 1); // island↔island: dropped
        net.send(2, 3, 2); // intra-island: delivered
        net.send(4, 5, 3); // mainland: delivered
        let mut got = Vec::new();
        while let Some((_, d)) = net.next_delivery() {
            got.push(d.msg);
        }
        got.sort_unstable();
        assert_eq!(got, vec![2, 3]);
        // Empty classes heal; all-equal classes are fully connected.
        net.set_partition_classes(&[]);
        assert!(!net.is_cut(0, 2));
        net.set_partition_classes(&[7, 7, 7, 7, 7, 7]);
        assert!(!net.is_cut(0, 5));
    }

    #[test]
    #[should_panic(expected = "strict subset")]
    fn full_population_island_rejected() {
        let mut net: SimNet<()> = SimNet::uniform(3, 0.01, NetConfig::default());
        net.set_partition(&[0, 1, 2]);
    }

    #[test]
    fn straggler_factor_slows_both_legs() {
        let mut net: SimNet<u8> = SimNet::uniform(
            3,
            0.01,
            NetConfig {
                delay_jitter_sigma: 0.0,
                ..NetConfig::default()
            },
        );
        net.set_delay_factor(1, 5.0);
        net.send(0, 1, 1);
        let (t, _) = net.next_delivery().unwrap();
        assert!((t - 0.05).abs() < 1e-7, "leg to the straggler is 5×: {t}");
        net.send(0, 2, 2);
        let (t2, _) = net.next_delivery().unwrap();
        assert!((t2 - t - 0.01).abs() < 1e-7, "non-straggler leg unchanged");
        assert!(net.roundtrip(2, 1, 3));
        let (t3, _) = net.next_delivery().unwrap();
        assert!(
            (t3 - t2 - 0.10).abs() < 1e-7,
            "round trip via the straggler is 5× both ways: {}",
            t3 - t2
        );
        // Restoring the factor restores timing.
        net.set_delay_factor(1, 1.0);
        net.send(0, 1, 4);
        let (t4, _) = net.next_delivery().unwrap();
        assert!((t4 - t3 - 0.01).abs() < 1e-7);
    }

    #[test]
    #[should_panic(expected = "cannot schedule at a non-finite time")]
    fn infinite_leg_delay_rejected_at_send() {
        // Finite as `f64`, ∞ once rounded through `f32`: the leg would
        // be delivered at t = ∞ and move the clock there.
        let mut net: SimNet<()> = SimNet::from_delay_fn(2, NetConfig::default(), |_, _| 1e39);
        net.send(0, 1, ());
    }

    #[test]
    #[should_panic(expected = "cannot schedule at a non-finite time")]
    fn infinite_timer_rejected() {
        let mut net: SimNet<()> = SimNet::uniform(2, 0.01, NetConfig::default());
        net.set_timer(0, f64::INFINITY, ());
    }

    #[test]
    #[should_panic(expected = "delay factor must be positive")]
    fn delay_factor_validated_as_stored() {
        // Finite and positive as `f64`, but ∞ once rounded to the
        // `f32` the table of factors holds.
        let mut net: SimNet<()> = SimNet::uniform(2, 0.01, NetConfig::default());
        net.set_delay_factor(0, 1e39);
    }

    #[test]
    fn loss_probability_update_takes_effect() {
        let mut net: SimNet<u32> = SimNet::uniform(2, 0.01, NetConfig::default());
        assert_eq!(net.loss_probability(), 0.0);
        for i in 0..100 {
            net.send(0, 1, i);
        }
        assert_eq!(net.stats().dropped, 0);
        net.set_loss_probability(1.0);
        for i in 0..100 {
            net.send(0, 1, i);
        }
        assert_eq!(net.stats().dropped, 100);
        net.set_loss_probability(0.0);
        net.send(0, 1, 7);
        assert_eq!(net.stats().dropped, 100);
    }

    #[test]
    fn delay_re_embedding_applies_to_new_sends() {
        let d = meridian_like(8, 11);
        let mut net: SimNet<u8> = SimNet::from_rtt_dataset(
            &d,
            NetConfig {
                delay_jitter_sigma: 0.0,
                ..NetConfig::default()
            },
        );
        let mut congested = d.clone();
        congested.scale_values(3.0);
        net.send(0, 1, 1); // in flight under the old delays
        net.set_delay_fn(move |i, j| congested.values[(i, j)] / 2.0 / 1000.0);
        net.send(0, 1, 2);
        let (t1, _) = net.next_delivery().unwrap();
        let (t2, _) = net.next_delivery().unwrap();
        let old = d.values[(0, 1)] / 2.0 / 1000.0;
        assert!((t1 - old).abs() < old * 1e-6, "in-flight keeps old delay");
        assert!(
            (t2 - 3.0 * old).abs() < 3.0 * old * 1e-6,
            "post-update sends see the congested network"
        );
    }

    #[test]
    #[should_panic(expected = "out of [0, 1]")]
    fn loss_probability_validated() {
        let mut net: SimNet<()> = SimNet::uniform(2, 0.01, NetConfig::default());
        net.set_loss_probability(1.5);
    }

    #[test]
    #[should_panic(expected = "loss probability NaN out of [0, 1]")]
    fn nan_loss_probability_rejected_at_construction() {
        // NaN fails every `<`, so an unchecked net would never drop.
        let config = NetConfig {
            loss_probability: f64::NAN,
            ..NetConfig::default()
        };
        let _: SimNet<()> = SimNet::uniform(2, 0.01, config);
    }

    #[test]
    #[should_panic(expected = "loss probability 1.5 out of [0, 1]")]
    fn loss_probability_above_one_rejected_at_construction() {
        let config = NetConfig {
            loss_probability: 1.5,
            ..NetConfig::default()
        };
        let _: SimNet<()> = SimNet::uniform(2, 0.01, config);
    }

    #[test]
    #[should_panic(expected = "jitter sigma NaN or")]
    fn jitter_sigma_validated_at_construction() {
        let config = NetConfig {
            delay_jitter_sigma: f64::NAN,
            ..NetConfig::default()
        };
        let _: SimNet<()> = SimNet::uniform(2, 0.01, config);
    }

    #[test]
    #[should_panic(expected = "default delay inf s out of")]
    fn default_delay_validated_as_stored() {
        // Finite as `f64`, ∞ as the `f32` cross-island delay.
        let config = NetConfig {
            default_one_way_delay_s: 1e39,
            ..NetConfig::default()
        };
        let _: SimNet<()> = SimNet::uniform(2, 0.01, config);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn partition_validates_ids() {
        let mut net: SimNet<()> = SimNet::uniform(2, 0.01, NetConfig::default());
        net.set_partition(&[5]);
    }

    #[test]
    fn deterministic_for_seed() {
        let run = |seed| {
            let mut net: SimNet<u32> = SimNet::uniform(
                3,
                0.02,
                NetConfig {
                    seed,
                    loss_probability: 0.2,
                    ..NetConfig::default()
                },
            );
            for i in 0..100 {
                net.send((i % 3) as usize, ((i + 1) % 3) as usize, i);
            }
            let mut log = Vec::new();
            while let Some((t, d)) = net.next_delivery() {
                log.push((t.to_bits(), d.msg));
            }
            log
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
