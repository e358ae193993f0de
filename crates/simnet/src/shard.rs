//! Sharded network simulation for population scales where one dense
//! delay table stops fitting.
//!
//! A single [`SimNet`](crate::SimNet) stores an `n × n` one-way delay
//! table: 4 bytes per pair, which is 400 MB at `n = 10 000` and 40 GB
//! at `n = 100 000`. [`ShardedSimNet`] breaks that quadratic wall by
//! splitting the population into `k` contiguous *islands*, each with
//! its own delay table and its own jitter/loss RNG stream; traffic
//! between islands uses the configured default one-way delay, so no
//! cross-island table exists at all. Memory becomes `k · (n/k)²` table
//! entries — linear in `n` for a fixed island size.
//!
//! # One queue, many tables
//!
//! The quadratic object is the delay table, never the event list: the
//! pending events number about one per node whatever the layout. So
//! only the tables (and the RNG streams that go with them) are split.
//! Every delivery, whichever islands it touches, is scheduled into and
//! popped from **one** [`EventQueue`], whose `(time, insertion order)`
//! key is by construction the total order a single-queue
//! [`SimNet`](crate::SimNet) delivers in, with one clock. Nothing is
//! merged and nothing can drift: `tests/shard_merge.rs` pins the
//! delivery stream against a real [`SimNet`](crate::SimNet) run for
//! every island count, and `dmf-core`'s `sharded_golden` test pins a
//! jittered multi-island run's bytes.
//!
//! One queue also means one *sorted* head bucket, so the deliveries
//! about to happen can be read before they do:
//! [`ShardedSimNet::upcoming`] hands a run loop the next far-lane
//! deliveries so it can prefetch the node state they will touch — at
//! 100 k nodes that state lives in DRAM, and waiting for it one event
//! at a time is most of a run's wall (`dmf-core`'s sharded driver has
//! the pipeline). It is a view for hints only; delivery order is what
//! [`next_delivery`](ShardedSimNet::next_delivery) says.
//!
//! # Model carve-outs
//!
//! Cross-island messages see the default delay with the *sender's*
//! island jitter/loss stream; intra-island messages see the island's
//! own table and stream. The mid-run impairment hooks (partitions,
//! stragglers, re-embedding) are intentionally not exposed here — the
//! scale workloads are partition-free; use [`SimNet`](crate::SimNet)
//! when a scenario needs them.

use crate::event::{EventQueue, Lane, SimTime};
use crate::net::{Delivery, JitterSampler, NetConfig, NetStats};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// What sharding splits: one island's `m × m` one-way delay table
/// (seconds, row-major over *local* ids, `f32` like
/// [`SimNet`](crate::SimNet)'s) and the RNG stream its senders draw
/// jitter and loss from. An island owns no events.
struct Island {
    one_way_delay: Vec<f32>,
    m: usize,
    rng: ChaCha8Rng,
    jitter: JitterSampler,
}

impl Island {
    /// Table delay for a *local* pair, in seconds.
    #[inline]
    fn delay_s(&self, from: usize, to: usize) -> f64 {
        f64::from(self.one_way_delay[from * self.m + to])
    }

    /// One per-leg loss decision (no draw at all on a loss-free
    /// network, matching [`SimNet::send`](crate::SimNet::send)).
    #[inline]
    fn draw_loss(&mut self, loss_probability: f64) -> bool {
        loss_probability > 0.0 && self.rng.gen::<f64>() < loss_probability
    }

    /// One multiplicative jitter factor (exactly `1.0`, with no RNG
    /// draw, when jitter is disabled).
    #[inline]
    fn draw_jitter(&mut self) -> f64 {
        if self.jitter.sigma() > 0.0 {
            self.jitter.sample(&mut self.rng)
        } else {
            1.0
        }
    }
}

/// A population split into per-island delay tables and RNG streams
/// over one shared event queue. Node ids are global (`0..n`); island
/// membership is by contiguous range.
pub struct ShardedSimNet<M> {
    islands: Vec<Island>,
    island_size: usize,
    n: usize,
    cross_delay_s: f64,
    loss_probability: f64,
    queue: EventQueue<Delivery<M>>,
    stats: NetStats,
    in_flight_non_timer: usize,
}

impl<M> ShardedSimNet<M> {
    /// Builds a sharded network with a uniform one-way delay, split
    /// into (at most) `islands` contiguous islands.
    ///
    /// # Panics
    /// Panics when `n == 0` or `islands == 0` or `islands > n`.
    pub fn uniform(n: usize, islands: usize, one_way_delay_s: f64, config: NetConfig) -> Self {
        Self::from_delay_fn(n, islands, config, |_, _| one_way_delay_s)
    }

    /// Builds a sharded network whose *intra-island* one-way delays
    /// come from `delay_s(i, j)` over **global** ids (evaluated island
    /// by island, row-major within each); cross-island pairs use
    /// `config.default_one_way_delay_s` and are never asked of
    /// `delay_s`. Island `k` covers global ids
    /// `[k·s, min((k+1)·s, n))` with `s = ⌈n / islands⌉`; the realized
    /// island count is `⌈n / s⌉`, which can be smaller than requested
    /// (no empty islands are created).
    ///
    /// Each island draws jitter/loss from its own RNG stream,
    /// decorrelated from `config.seed` by island index (island 0 keeps
    /// the seed unchanged, so a 1-island sharded net replays a plain
    /// [`SimNet`](crate::SimNet) bit-for-bit).
    ///
    /// # Panics
    /// Panics when `n == 0` or `islands == 0` or `islands > n`.
    pub fn from_delay_fn(
        n: usize,
        islands: usize,
        config: NetConfig,
        mut delay_s: impl FnMut(usize, usize) -> f64,
    ) -> Self {
        assert!(n > 0, "sharded network needs at least one node");
        assert!(
            islands > 0 && islands <= n,
            "island count {islands} out of range 1..={n}"
        );
        let island_size = n.div_ceil(islands);
        let islands = (0..n.div_ceil(island_size))
            .map(|k| {
                let start = k * island_size;
                let m = island_size.min(n - start);
                let mut one_way_delay = Vec::with_capacity(m * m);
                for i in start..start + m {
                    for j in start..start + m {
                        one_way_delay.push(delay_s(i, j) as f32);
                    }
                }
                let seed = config
                    .seed
                    .wrapping_add((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                Island {
                    one_way_delay,
                    m,
                    rng: ChaCha8Rng::seed_from_u64(seed),
                    jitter: JitterSampler::new(config.delay_jitter_sigma),
                }
            })
            .collect();
        Self {
            islands,
            island_size,
            n,
            // Rounded through f32 like every table entry, so a
            // cross-island leg costs bit-exactly what the same pair
            // would cost in a single net's table.
            cross_delay_s: f64::from(config.default_one_way_delay_s as f32),
            loss_probability: config.loss_probability,
            // The fused protocol keeps one event per node pending (its
            // timer or its exchange in flight); `send` traffic beyond
            // that grows the queue on demand.
            queue: EventQueue::with_capacity(n + 16),
            stats: NetStats::default(),
            in_flight_non_timer: 0,
        }
    }

    /// Number of nodes (across all islands).
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the network has no nodes (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of islands.
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

    /// Aggregate network statistics so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Total bytes held by the per-island delay tables — the number
    /// the sharding exists to shrink (`k · ⌈n/k⌉²` entries instead of
    /// `n²`).
    pub fn table_bytes(&self) -> usize {
        self.islands
            .iter()
            .map(|island| island.one_way_delay.len() * std::mem::size_of::<f32>())
            .sum()
    }

    /// Sends `msg` from `from` to `to` (global ids), subject to loss
    /// and jitter drawn from the sender's island stream. Cross-island
    /// pairs travel at the default one-way delay.
    ///
    /// # Panics
    /// Panics on an out-of-range node id.
    pub fn send(&mut self, from: usize, to: usize, msg: M) {
        let (sf, st) = (self.island_of(from), self.island_of(to));
        self.stats.sent += 1;
        let island = &mut self.islands[sf];
        if island.draw_loss(self.loss_probability) {
            self.stats.dropped += 1;
            return;
        }
        let base = if sf == st {
            let start = sf * self.island_size;
            island.delay_s(from - start, to - start)
        } else {
            self.cross_delay_s
        };
        let jitter = island.draw_jitter();
        self.in_flight_non_timer += 1;
        self.queue
            .schedule_after(base * jitter, Delivery { from, to, msg });
    }

    /// Schedules a lossless timer for `node` after `delay` seconds.
    pub fn set_timer(&mut self, node: usize, delay: SimTime, msg: M) {
        assert!(delay >= 0.0, "negative timer delay {delay}");
        self.set_timer_at(node, self.now() + delay, msg);
    }

    /// Schedules a lossless timer for `node` at absolute time `at`.
    ///
    /// # Panics
    /// Panics on an out-of-range id or a time in the simulated past.
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

    /// Schedules a full probe→reply round trip as one delivery, like
    /// [`SimNet::roundtrip`](crate::SimNet::roundtrip): `msg` arrives
    /// back at `from` after both legs' delay, with loss applied per
    /// leg. Returns whether the exchange survived.
    pub fn roundtrip(&mut self, from: usize, to: usize, msg: M) -> bool {
        self.roundtrip_at(from, to, self.now(), msg)
    }

    /// [`roundtrip`](Self::roundtrip) departing at absolute time `at`;
    /// the completion delivers at `at + rtt`.
    ///
    /// # Panics
    /// Panics on an out-of-range id or a departure in the past.
    pub fn roundtrip_at(&mut self, from: usize, to: usize, at: SimTime, msg: M) -> bool {
        let (sf, st) = (self.island_of(from), self.island_of(to));
        assert!(at >= self.now(), "roundtrip departing in the past");
        self.stats.sent += 2;
        let island = &mut self.islands[sf];
        let lost_fwd = island.draw_loss(self.loss_probability);
        let lost_back = island.draw_loss(self.loss_probability);
        if lost_fwd || lost_back {
            self.stats.dropped += usize::from(lost_fwd) + usize::from(lost_back);
            return false;
        }
        let (fwd, back) = if sf == st {
            let start = sf * self.island_size;
            (
                island.delay_s(from - start, to - start),
                island.delay_s(to - start, from - start),
            )
        } else {
            (self.cross_delay_s, self.cross_delay_s)
        };
        let j1 = island.draw_jitter();
        let j2 = island.draw_jitter();
        let rtt = fwd * j1 + back * j2;
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

    /// Delivers the next message across all islands, advancing the
    /// clock.
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

    /// Timestamp of the next delivery without consuming it.
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

    /// Number of queued deliveries (timers included).
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Number of queued *network* messages (timers excluded).
    pub fn pending_messages(&self) -> usize {
        self.in_flight_non_timer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimNet;

    fn quiet(seed: u64) -> NetConfig {
        NetConfig {
            delay_jitter_sigma: 0.0,
            seed,
            ..NetConfig::default()
        }
    }

    #[test]
    fn islands_partition_ids_contiguously() {
        let net: ShardedSimNet<()> = ShardedSimNet::uniform(10, 3, 0.01, quiet(0));
        // ⌈10/3⌉ = 4 → islands [0,4), [4,8), [8,10).
        assert_eq!(net.islands(), 3);
        assert_eq!(net.island_of(0), 0);
        assert_eq!(net.island_of(3), 0);
        assert_eq!(net.island_of(4), 1);
        assert_eq!(net.island_of(9), 2);
    }

    #[test]
    fn no_empty_islands_created() {
        // ⌈6/4⌉ = 2 → only 3 islands materialize, none empty.
        let net: ShardedSimNet<()> = ShardedSimNet::uniform(6, 4, 0.01, quiet(0));
        assert_eq!(net.islands(), 3);
        assert_eq!(net.island_of(5), 2);
    }

    #[test]
    fn intra_island_uses_table_cross_island_uses_default() {
        let config = quiet(1);
        let default = config.default_one_way_delay_s;
        let mut net: ShardedSimNet<u8> =
            ShardedSimNet::from_delay_fn(8, 2, config, |i, j| 0.001 * (1 + i + j) as f64);
        net.send(0, 1, 1); // intra-island 0: table delay 0.002
        net.send(1, 5, 2); // cross-island: default delay
        let (t1, d1) = net.next_delivery().unwrap();
        assert_eq!((d1.from, d1.to, d1.msg), (0, 1, 1));
        assert!((t1 - 0.002).abs() < 1e-9, "t1={t1}");
        let (t2, d2) = net.next_delivery().unwrap();
        assert_eq!((d2.from, d2.to, d2.msg), (1, 5, 2));
        // The cross-island delay is the f32-rounded default.
        assert!((t2 - f64::from(default as f32)).abs() < 1e-12, "t2={t2}");
        assert_eq!(net.stats().delivered, 2);
    }

    #[test]
    fn roundtrip_returns_to_sender_after_both_legs() {
        let mut net: ShardedSimNet<u8> =
            ShardedSimNet::from_delay_fn(8, 2, quiet(2), |i, j| 0.001 * (1 + i + j) as f64);
        assert!(net.roundtrip(2, 3, 9)); // fwd 0.006 + back 0.006
        let (t, d) = net.next_delivery().unwrap();
        assert_eq!((d.from, d.to, d.msg), (3, 2, 9));
        assert!((t - 0.012).abs() < 1e-9, "t={t}");
        // Cross-island roundtrip: default both legs.
        assert!(net.roundtrip(0, 7, 8));
        let (t2, d2) = net.next_delivery().unwrap();
        assert_eq!((d2.from, d2.to), (7, 0));
        // Cross-island delay is the f32-rounded default (matching
        // intra-island table bits), so mirror the rounding here.
        let rtt = 2.0 * f64::from(NetConfig::default().default_one_way_delay_s as f32);
        assert!((t2 - t - rtt).abs() < 1e-12, "t2-t={}", t2 - t);
    }

    #[test]
    fn merged_stream_is_globally_time_ordered_with_fifo_ties() {
        let mut net: ShardedSimNet<usize> = ShardedSimNet::uniform(12, 4, 0.01, quiet(3));
        // Same-time timers scheduled across different islands must
        // come back in scheduling order (the global seq tie-break).
        for (i, node) in [11, 0, 5, 8, 2].into_iter().enumerate() {
            net.set_timer_at(node, 1.0, i);
        }
        for node in 0..12 {
            net.set_timer_at(node, 0.5 + node as f64 * 0.01, 100 + node);
        }
        let mut log = Vec::new();
        let mut last = (0u64, 0u64);
        while let Some((t, d)) = net.next_delivery() {
            log.push(d.msg);
            let key = (t.to_bits(), 0);
            assert!(key >= last, "time went backwards");
            last = key;
        }
        assert_eq!(&log[..12], &(100..112).collect::<Vec<_>>()[..]);
        assert_eq!(&log[12..], &[0, 1, 2, 3, 4]);
        assert_eq!(net.stats().timers, 17);
    }

    #[test]
    fn timers_interleave_with_messages_across_islands() {
        let mut net: ShardedSimNet<u32> = ShardedSimNet::uniform(9, 3, 0.01, quiet(4));
        net.set_timer(4, 0.005, 1);
        net.send(0, 8, 2); // cross: arrives at 0.05
        net.set_timer(8, 0.02, 3);
        let order: Vec<u32> =
            std::iter::from_fn(|| net.next_delivery().map(|(_, d)| d.msg)).collect();
        assert_eq!(order, vec![1, 3, 2]);
        assert_eq!(net.pending(), 0);
        assert_eq!(net.pending_messages(), 0);
    }

    #[test]
    fn sharding_breaks_the_quadratic_table() {
        let single: SimNet<()> = SimNet::uniform(1024, 0.01, quiet(0));
        let sharded: ShardedSimNet<()> = ShardedSimNet::uniform(1024, 16, 0.01, quiet(0));
        assert_eq!(single.table_bytes(), 1024 * 1024 * 4);
        // 16 islands of 64: 16 · 64² entries = n²/16.
        assert_eq!(sharded.table_bytes(), single.table_bytes() / 16);
    }

    #[test]
    fn loss_and_jitter_draw_from_island_streams_deterministically() {
        let run = |seed| {
            let mut net: ShardedSimNet<u32> = ShardedSimNet::uniform(
                8,
                2,
                0.02,
                NetConfig {
                    seed,
                    loss_probability: 0.3,
                    delay_jitter_sigma: 0.1,
                    ..NetConfig::default()
                },
            );
            for i in 0..200u32 {
                let from = (i as usize * 3) % 8;
                let to = (i as usize * 5 + 1) % 8;
                if from != to {
                    net.send(from, to, i);
                }
            }
            let mut log = Vec::new();
            while let Some((t, d)) = net.next_delivery() {
                log.push((t.to_bits(), d.from, d.to, d.msg));
            }
            (log, net.stats())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0, run(8).0);
        let (_, stats) = run(7);
        assert!(stats.dropped > 20, "loss injection active: {stats:?}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn send_validates_global_ids() {
        let mut net: ShardedSimNet<()> = ShardedSimNet::uniform(4, 2, 0.01, quiet(0));
        net.send(0, 4, ());
    }

    #[test]
    #[should_panic(expected = "island count")]
    fn more_islands_than_nodes_rejected() {
        let _: ShardedSimNet<()> = ShardedSimNet::uniform(3, 4, 0.01, quiet(0));
    }
}
