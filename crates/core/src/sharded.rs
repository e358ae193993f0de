//! Fused-RTT execution over a sharded network — the 10k–100k-node
//! front-end.
//!
//! [`ShardedSimnetDriver`] drives the same fused RTT protocol as
//! [`SimnetDriver`](crate::runner::SimnetDriver) — literally the same
//! code: both embed `runner::fused`'s protocol struct, which takes the
//! `SimNet` either layout is — but through a [`ShardedSimNet`], which
//! evaluates its delay function per leg and stores no per-pair state,
//! so memory is linear in the population instead of quadratic. Two
//! deliberate scope cuts against the full driver:
//!
//! * **RTT, fused fidelity only.** The per-message and ABW paths need
//!   a ground-truth [`Dataset`](dmf_datasets::Dataset) at the target
//!   (and the ABW prober measures against it), which is itself an
//!   `n × n` object — the very thing sharding removes. The fused RTT
//!   path measures the *simulated network itself*, so no dataset ever
//!   materializes.
//! * **No impairment hooks.** The k-island layout has loss levels,
//!   partitions and stragglers (not re-embedding), but the scale
//!   workloads are impairment-free, so this driver forwards none.
//!
//! Determinism carries over unchanged: the sharded net delivers from
//! one event queue in the order a single net would (pinned by
//! `dmf-simnet/tests/shard_merge.rs`), the protocol draws from the
//! session RNG in delivery order, and the SGD arithmetic is
//! bitwise-pinned across SIMD dispatch paths.
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
//! them. The distances are constants, not options, because there is
//! nothing to tune: a miss costs about as long as one or two
//! deliveries take to handle, and the rate measured flat from 8/4/2
//! to 32/16/4, with five-line payload slots and again with one-line
//! ones (each stage removed in turn cost about a quarter of the gain;
//! looking past the head bucket into the next one when it runs short
//! made no difference and is not done).
//! [`SimnetDriver`](crate::runner::SimnetDriver) has no such stage: its
//! populations fit in the L2 cache.

use crate::error::{ConfigError, DmfsgdError, MembershipError};
use crate::runner::fused::FusedRtt;
use crate::runner::{Msg, RunnerStats};
use crate::session::{Driver, Session};
use dmf_linalg::simd::prefetch;
use dmf_simnet::ShardedSimNet;

/// The sharded-network front-end of the [`Driver`] trait: owns a
/// [`ShardedSimNet`] transport while the [`Session`] owns the learning
/// state. Advance it with [`run_until`](Self::run_until) or through
/// [`Driver::round`].
pub struct ShardedSimnetDriver {
    net: ShardedSimNet<Msg>,
    fused: FusedRtt,
}

impl ShardedSimnetDriver {
    /// Builds the driver over a pre-built sharded transport (construct
    /// one with [`ShardedSimNet::from_delay_fn`] — typically from a
    /// synthetic delay model, since at this scale no dense ground
    /// truth exists). The classification threshold comes from the
    /// session ([`SessionBuilder::tau`]).
    ///
    /// [`SessionBuilder::tau`]: crate::session::SessionBuilder::tau
    pub fn new(session: &Session, net: ShardedSimNet<Msg>) -> Result<Self, DmfsgdError> {
        let tau = session.tau().ok_or(ConfigError::MissingTau)?;
        Self::with_tau(session, net, tau)
    }

    /// [`new`](Self::new) with an explicit threshold, overriding the
    /// session's τ.
    pub fn with_tau(
        session: &Session,
        net: ShardedSimNet<Msg>,
        tau: f64,
    ) -> Result<Self, DmfsgdError> {
        let fused = FusedRtt::new(tau)?;
        if net.len() != session.len() {
            return Err(MembershipError::ProviderMismatch {
                provider: net.len(),
                session: session.len(),
            }
            .into());
        }
        Ok(Self { net, fused })
    }

    /// Sets the probe timer period (default 1 s).
    pub fn with_probe_interval(mut self, seconds: f64) -> Result<Self, DmfsgdError> {
        self.fused.set_probe_interval(seconds)?;
        Ok(self)
    }

    /// Sets the simulated seconds one [`Driver::round`] advances
    /// (default 10 s).
    pub fn with_quantum(mut self, seconds: f64) -> Result<Self, DmfsgdError> {
        self.fused.set_quantum(seconds)?;
        Ok(self)
    }

    /// Run statistics.
    pub fn stats(&self) -> RunnerStats {
        self.fused.stats
    }

    /// Current simulated time (the timestamp of the last delivered
    /// event; 0 before the first).
    pub fn now(&self) -> f64 {
        self.net.now()
    }

    /// The underlying transport (island layout, network stats, delay
    /// table memory accounting).
    pub fn net(&self) -> &ShardedSimNet<Msg> {
        &self.net
    }

    /// Runs the protocol until simulated time `deadline_s`, starting
    /// all probe timers at jittered offsets on the first call. Returns
    /// the measurements completed during this call. Events scheduled
    /// past `deadline_s` stay queued, exactly as in
    /// [`SimnetDriver::run_until`](crate::runner::SimnetDriver::run_until),
    /// and a non-finite deadline is the same [`ConfigError::Duration`].
    pub fn run_until(
        &mut self,
        session: &mut Session,
        deadline_s: f64,
    ) -> Result<usize, DmfsgdError> {
        self.fused.begin_run(&mut self.net, session, deadline_s)?;
        let before = self.fused.stats.measurements_completed;
        while let Some((now, delivery)) = self.net.next_delivery_before(deadline_s) {
            prefetch_upcoming(&self.net, session);
            match delivery.msg {
                Msg::ProbeTick if !session.is_alive(delivery.to) => {
                    self.fused.rearm(&mut self.net, session, delivery.to);
                }
                Msg::ProbeTick => {
                    self.fused.fire(&mut self.net, session, delivery.to, now);
                }
                Msg::RttExchange { sent_at } => {
                    let (i, j) = (delivery.to, delivery.from);
                    self.fused
                        .on_exchange(&mut self.net, session, now, i, j, sent_at);
                }
                // This driver only ever schedules ticks and fused
                // exchanges; nothing else can come back out.
                other => unreachable!("sharded driver delivered {other:?}"),
            }
        }
        Ok(self.fused.stats.measurements_completed - before)
    }
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
fn prefetch_upcoming(net: &ShardedSimNet<Msg>, session: &Session) {
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

impl std::fmt::Debug for ShardedSimnetDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSimnetDriver")
            .field("nodes", &self.net.len())
            .field("islands", &self.net.islands())
            .field("now", &self.net.now())
            .field("protocol", &self.fused)
            .finish_non_exhaustive()
    }
}

impl Driver for ShardedSimnetDriver {
    /// One round = one quantum of simulated time (see
    /// [`with_quantum`](Self::with_quantum)).
    fn round(&mut self, session: &mut Session) -> Result<usize, DmfsgdError> {
        let deadline = self.net.now() + self.fused.quantum_s;
        self.run_until(session, deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DmfsgdConfig;
    use crate::runner::SimnetDriver;
    use crate::session::SessionBuilder;
    use dmf_datasets::rtt::meridian_like;
    use dmf_simnet::NetConfig;

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

    #[test]
    fn sharded_driver_trains_and_reports_stats() {
        let mut s = session(32, 9);
        let net = ShardedSimNet::from_delay_fn(32, 4, quiet(1), |i, j| {
            0.02 + 0.001 * ((i * 7 + j * 3) % 40) as f64
        });
        let mut driver = ShardedSimnetDriver::new(&s, net).unwrap();
        let applied = driver.run_until(&mut s, 30.0).unwrap();
        assert!(applied > 200, "fused probes every second: {applied}");
        assert_eq!(driver.stats().measurements_completed, applied);
        assert!(driver.stats().probes_sent >= applied);
        assert!(driver.now() <= 30.0);
        assert_eq!(s.measurements_used(), applied);
    }

    /// The same 24-node network twice: behind the single-net driver
    /// and behind a 1-island sharded one (same delays, no jitter/loss
    /// → no RNG divergence), each with its own identically seeded
    /// session.
    fn one_island_pair() -> ((Session, SimnetDriver), (Session, ShardedSimnetDriver)) {
        let d = meridian_like(24, 5);
        let s_single = session(24, 4);
        let s_sharded = session(24, 4);

        let single = SimnetDriver::new(&s_single, d.clone(), quiet(2)).unwrap();
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
        let sharded = ShardedSimnetDriver::new(&s_sharded, net).unwrap();
        ((s_single, single), (s_sharded, sharded))
    }

    fn assert_bitwise_equal(s_single: &Session, s_sharded: &Session) {
        assert_eq!(
            s_single.measurements_used(),
            s_sharded.measurements_used(),
            "same measurement count"
        );
        let a = s_single.predicted_scores();
        let b = s_sharded.predicted_scores();
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "coordinates diverged");
        }
    }

    /// A 1-island sharded transport replays the single-net driver
    /// bit-for-bit (session RNG draws happen in identical delivery
    /// order). This is the end-to-end leg of the order-equivalence
    /// story: not just the event order, but the learned coordinates
    /// match.
    #[test]
    fn one_island_matches_single_net_driver_bitwise() {
        let ((mut s_single, mut single), (mut s_sharded, mut sharded)) = one_island_pair();
        single.run_until(&mut s_single, 20.0).unwrap();
        sharded.run_until(&mut s_sharded, 20.0).unwrap();
        assert_bitwise_equal(&s_single, &s_sharded);
    }

    /// The same replay across membership churn, which is what reaches
    /// the loop's dead-node branches: a departed prober's exchange
    /// comes home and its timer idles, and exchanges already in flight
    /// towards a departed target complete untrained. The lookahead
    /// reads those slots early, so this also pins that it does not
    /// care who is alive.
    #[test]
    fn one_island_matches_single_net_driver_bitwise_across_churn() {
        let ((mut s_single, mut single), (mut s_sharded, mut sharded)) = one_island_pair();
        single.run_until(&mut s_single, 8.0).unwrap();
        sharded.run_until(&mut s_sharded, 8.0).unwrap();
        for s in [&mut s_single, &mut s_sharded] {
            s.leave(3).unwrap();
            s.leave(17).unwrap();
        }
        let before = (sharded.net().stats(), sharded.stats());
        single.run_until(&mut s_single, 14.0).unwrap();
        sharded.run_until(&mut s_sharded, 14.0).unwrap();
        let net = sharded.net().stats();
        let exchanges = net.delivered - before.0.delivered;
        let trained = sharded.stats().measurements_completed - before.1.measurements_completed;
        assert!(net.timers - before.0.timers >= 10, "departed probers idle");
        assert!(
            exchanges - trained > 2,
            "beyond the two departed probers' own exchanges, some completed \
             against a departed target: {exchanges} delivered, {trained} trained"
        );
        for s in [&mut s_single, &mut s_sharded] {
            s.join().unwrap();
            s.join().unwrap();
        }
        single.run_until(&mut s_single, 20.0).unwrap();
        sharded.run_until(&mut s_sharded, 20.0).unwrap();
        assert_eq!(s_sharded.num_alive(), 24);
        assert_bitwise_equal(&s_single, &s_sharded);
    }

    #[test]
    fn driver_round_advances_one_quantum() {
        let mut s = session(16, 1);
        let net = ShardedSimNet::uniform(16, 4, 0.02, quiet(0));
        let mut driver = ShardedSimnetDriver::new(&s, net)
            .unwrap()
            .with_quantum(5.0)
            .unwrap();
        let first = driver.round(&mut s).unwrap();
        assert!(first > 0);
        assert!(driver.now() <= 5.0);
        driver.round(&mut s).unwrap();
        assert!(driver.now() > 5.0 && driver.now() <= 10.0);
    }

    #[test]
    fn population_mismatch_is_typed() {
        let s = session(16, 0);
        let net = ShardedSimNet::uniform(17, 3, 0.02, quiet(0));
        let err = ShardedSimnetDriver::new(&s, net).unwrap_err();
        assert!(matches!(
            err,
            DmfsgdError::Membership(MembershipError::ProviderMismatch { .. })
        ));
    }

    #[test]
    fn non_finite_deadline_is_rejected_not_spun_on() {
        let mut s = session(16, 2);
        let net = ShardedSimNet::uniform(16, 4, 0.02, quiet(0));
        let mut driver = ShardedSimnetDriver::new(&s, net).unwrap();
        for deadline in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                driver.run_until(&mut s, deadline).unwrap_err(),
                DmfsgdError::Config(ConfigError::Duration { .. })
            ));
        }
        // Nothing was seeded or delivered by the rejected calls.
        assert_eq!(driver.net().pending(), 0);
        assert!(driver.run_until(&mut s, 3.0).unwrap() > 0);
    }

    #[test]
    fn memory_accounting_is_linear_in_population() {
        // A function-backed net stores no per-pair state, so its delay
        // memory is zero at any population and island count — the
        // `sim-fused` layout (100 k nodes in 391 islands) included.
        for (n, islands) in [(1000, 10), (2000, 20), (2000, 1), (100_000, 391)] {
            let net: ShardedSimNet<Msg> = ShardedSimNet::uniform(n, islands, 0.02, quiet(0));
            assert_eq!(net.table_bytes(), 0, "n={n}, islands={islands}");
        }
    }
}
