//! The k-island layout of [`SimNet`], for population scales where one
//! dense delay table stops fitting.
//!
//! A dense `n × n` one-way delay table costs 4 bytes per pair: 400 MB
//! at `n = 10 000` and 40 GB at `n = 100 000`. [`ShardedSimNet`] never
//! builds one. It splits the population into `k` contiguous *islands*,
//! each with its own jitter/loss RNG stream, and keeps the caller's
//! delay function instead of its values: an intra-island leg evaluates
//! it when the leg is sent, and traffic between islands uses the
//! configured default one-way delay. A function-backed net therefore
//! holds no per-pair state at all — memory is the per-node state,
//! linear in `n` whatever the island size.
//!
//! It is a layout, not a second model: [`ShardedSimNet`] is its two
//! constructors and derefs to (or converts into) the [`SimNet`] they
//! fill, so `send`, `roundtrip_at`, the delivery accounting and every
//! hook are the code in [`crate::net`], and a one-island sharded net
//! *is* the dense layout.
//!
//! # One queue, many RNG streams
//!
//! No object here grows with the square of anything, and the event
//! list never did: the pending events number about one per node
//! whatever the layout. So only the RNG streams are split, which keeps
//! an island's loss and jitter draws independent of traffic elsewhere.
//! Every delivery, whichever islands it touches, is scheduled into and
//! popped from **one** [`EventQueue`](crate::EventQueue), whose
//! `(time, insertion order)` key is the total order of the dense
//! layout, with one clock. Nothing is merged and nothing can drift:
//! `tests/shard_merge.rs` pins the k-island delivery stream against the
//! dense one for every island count, impairment hooks included, and
//! `dmf-core`'s `sharded_golden` test pins a jittered multi-island
//! run's bytes.
//!
//! One queue also means one *sorted* head bucket, so the deliveries
//! about to happen can be read before they do: [`SimNet::upcoming`]
//! hands a run loop the next far-lane deliveries so it can prefetch
//! the node state they will touch — at 100 k nodes that state lives in
//! DRAM, and waiting for it one event at a time is most of a run's
//! wall (`dmf-core`'s `SimnetDriver` runs that pipeline on every
//! layout). It is a view for hints only; delivery order is what
//! [`next_delivery`](SimNet::next_delivery) says.
//!
//! # Model carve-outs
//!
//! Cross-island messages see the default delay with the *sender's*
//! island jitter/loss stream; intra-island messages see the delay
//! function and the island's own stream. The per-node impairment
//! hooks — loss level, partitions, stragglers — are per-node state
//! and work on either layout. Re-embedding
//! ([`SimNet::set_one_way_delays_from_rtt`]) does not: it takes a dense
//! ground truth, whose cross-island pairs this layout gives the
//! default delay, and panics when asked. The constructors reserve one
//! queue slot per node (the fused protocol keeps one event per node
//! pending, its timer or its exchange in flight) where the dense ones
//! reserve four: at 100 k nodes and `dmf-core`'s 40-byte deliveries
//! the difference is ≈ 12 MB; `send` traffic beyond it grows the queue
//! on demand.

use crate::net::{NetConfig, SimNet};
use std::ops::{Deref, DerefMut};

/// A [`SimNet`] in the k-island layout: per-island RNG streams and
/// one delay function over one shared event queue. Everything but
/// construction is [`SimNet`]'s, reached through `Deref`.
pub struct ShardedSimNet<M>(SimNet<M>);

impl<M> ShardedSimNet<M> {
    /// Builds a sharded network with a uniform one-way delay, split
    /// into (at most) `islands` contiguous islands.
    ///
    /// # Panics
    /// Panics when `n == 0` or `islands == 0` or `islands > n`.
    pub fn uniform(n: usize, islands: usize, one_way_delay_s: f64, config: NetConfig) -> Self {
        Self::from_delay_fn(n, islands, config, move |_, _| one_way_delay_s)
    }

    /// Builds a sharded network whose *intra-island* one-way delays
    /// come from `delay_s(i, j)` over **global** ids; cross-island
    /// pairs use `config.default_one_way_delay_s` and are never asked
    /// of `delay_s`. The net keeps `delay_s` and stores no per-pair
    /// state: it is evaluated once per intra-island leg, when the leg
    /// is sent, in no fixed order and never at construction, so it
    /// must be pure. Its value is rounded through `f32`.
    ///
    /// Island `k` covers global ids `[k·s, min((k+1)·s, n))` with
    /// `s = ⌈n / islands⌉`; the realized island count is `⌈n / s⌉`,
    /// which can be smaller than requested (no empty islands are
    /// created).
    ///
    /// Each island draws jitter/loss from its own RNG stream,
    /// decorrelated from `config.seed` by island index (island 0 keeps
    /// the seed unchanged, so a 1-island sharded net replays the dense
    /// layout bit-for-bit).
    ///
    /// # Panics
    /// Panics when `n == 0` or `islands == 0` or `islands > n`.
    pub fn from_delay_fn(
        n: usize,
        islands: usize,
        config: NetConfig,
        delay_s: impl Fn(usize, usize) -> f64 + Send + Sync + 'static,
    ) -> Self {
        assert!(n > 0, "sharded network needs at least one node");
        assert!(
            islands > 0 && islands <= n,
            "island count {islands} out of range 1..={n}"
        );
        Self(SimNet::with_layout(n, islands, n + 16, config, delay_s))
    }
}

impl<M> From<ShardedSimNet<M>> for SimNet<M> {
    fn from(net: ShardedSimNet<M>) -> Self {
        net.0
    }
}

impl<M> Deref for ShardedSimNet<M> {
    type Target = SimNet<M>;

    fn deref(&self) -> &SimNet<M> {
        &self.0
    }
}

impl<M> DerefMut for ShardedSimNet<M> {
    fn deref_mut(&mut self) -> &mut SimNet<M> {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmf_datasets::rtt::meridian_like;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

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
        net.send(0, 1, 1); // intra-island 0: delay 0.002
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
        // Cross-island delay is the f32-rounded default (rounded like
        // every intra-island delay), so mirror the rounding here.
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
        // A function-backed net holds no per-pair state, whatever its
        // population and island count (`sim-fused`'s 100 k nodes in 391
        // islands included)…
        for (n, islands) in [(1024, 1), (1024, 16), (4000, 7), (17, 17), (100_000, 391)] {
            let net: ShardedSimNet<()> = ShardedSimNet::uniform(n, islands, 0.01, quiet(0));
            assert_eq!(net.table_bytes(), 0, "n={n}, islands={islands}");
        }
        let dense: SimNet<()> = SimNet::uniform(1024, 0.01, quiet(0));
        assert_eq!(dense.table_bytes(), 0);
        // …while a measured truth is data: n² · 4 bytes, which a
        // re-embedding keeps, and which re-embedding a function-backed
        // dense net puts in place of its function.
        let truth = meridian_like(64, 3);
        let mut measured: SimNet<()> = SimNet::from_rtt_dataset(&truth, quiet(0));
        assert_eq!(measured.table_bytes(), 64 * 64 * 4);
        measured.set_one_way_delays_from_rtt(&truth);
        assert_eq!(measured.table_bytes(), 64 * 64 * 4);
        let mut re_embedded: SimNet<()> = SimNet::uniform(64, 0.01, quiet(0));
        re_embedded.set_one_way_delays_from_rtt(&truth);
        assert_eq!(re_embedded.table_bytes(), 64 * 64 * 4);
    }

    /// The delay model of the laziness test, also its eager reference.
    fn counted_delay_s(i: usize, j: usize) -> f64 {
        0.002 + 0.000_1 * ((i * 13 + j * 7) % 97) as f64
    }

    #[test]
    fn delay_fn_is_evaluated_per_intra_island_leg_never_at_construction() {
        let calls = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&calls);
        let mut net: ShardedSimNet<usize> =
            ShardedSimNet::from_delay_fn(512, 8, quiet(5), move |i, j| {
                counter.fetch_add(1, Ordering::Relaxed);
                counted_delay_s(i, j)
            });
        assert_eq!(net.islands(), 8);
        assert_eq!(
            calls.load(Ordering::Relaxed),
            0,
            "construction calls nothing"
        );

        // What a table entry held: the function's value through `f32`.
        let cross = f64::from(quiet(5).default_one_way_delay_s as f32);
        let leg = |net: &ShardedSimNet<usize>, i: usize, j: usize| {
            if net.island_of(i) == net.island_of(j) {
                (f64::from(counted_delay_s(i, j) as f32), 1)
            } else {
                (cross, 0)
            }
        };
        // (from, to, round trip?): intra and cross sends and exchanges,
        // islands of 64 ids.
        let mix = [
            (3, 60, false),
            (3, 200, false),
            (70, 127, true),
            (130, 500, true),
            (511, 448, false),
            (64, 65, true),
            (447, 448, false),
            (255, 192, true),
        ];
        let mut expected_calls = 0;
        for (k, &(from, to, roundtrip)) in mix.iter().enumerate() {
            let (fwd, fwd_calls) = leg(&net, from, to);
            let expected_t = if roundtrip {
                let (back, back_calls) = leg(&net, to, from);
                let at = net.now() + 0.25;
                assert!(net.roundtrip_at(from, to, at, k));
                expected_calls += fwd_calls + back_calls;
                at + (fwd + back)
            } else {
                let sent_at = net.now();
                net.send(from, to, k);
                expected_calls += fwd_calls;
                sent_at + fwd
            };
            let (t, d) = net.next_delivery().unwrap();
            assert_eq!((t, d.msg), (expected_t, k), "op {k}: {from} → {to}");
            assert_eq!(
                calls.load(Ordering::Relaxed),
                expected_calls,
                "one call per intra-island leg, none per cross-island one (op {k})"
            );
        }
        assert_eq!(expected_calls, 1 + 2 + 1 + 2 + 2, "the mix has intra legs");
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
