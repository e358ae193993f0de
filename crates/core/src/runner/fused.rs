//! The fused RTT protocol (see the `runner` module docs): its whole
//! state — threshold, probe clock, counters — and its four steps over
//! a `SimNet<Msg>` of either layout, embedded by both simnet drivers.

use super::{Msg, RunnerStats};
use crate::error::{ConfigError, DmfsgdError, MembershipError};
use crate::session::Session;
use dmf_datasets::Metric;
use dmf_simnet::SimNet;
use rand::Rng;

/// Probe-clock state and the fused protocol steps.
#[derive(Debug)]
pub(crate) struct FusedRtt {
    pub(crate) tau: f64,
    pub(crate) probe_interval_s: f64,
    /// Whether the per-node probe timers have been seeded (first run
    /// only — the chains re-arm themselves after that).
    timers_seeded: bool,
    pub(crate) stats: RunnerStats,
}

impl FusedRtt {
    /// A 1 s probe clock, classifying at `tau`.
    pub(crate) fn new(tau: f64) -> Result<Self, ConfigError> {
        ConfigError::check_tau(tau)?;
        Ok(Self {
            tau,
            probe_interval_s: 1.0,
            timers_seeded: false,
            stats: RunnerStats::default(),
        })
    }

    pub(crate) fn set_probe_interval(&mut self, seconds: f64) -> Result<(), ConfigError> {
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err(ConfigError::ProbeInterval { seconds });
        }
        self.probe_interval_s = seconds;
        Ok(())
    }

    /// Opens a `run_until(deadline_s)`: rejects a non-finite deadline
    /// or a session of another size, then seeds one probe timer per
    /// node at a jittered offset — on the first call only: every timer
    /// chain re-arms itself, so a resumed run keeps the configured
    /// probe rate instead of stacking a second chain.
    pub(crate) fn begin_run(
        &mut self,
        net: &mut SimNet<Msg>,
        session: &mut Session,
        deadline_s: f64,
    ) -> Result<(), DmfsgdError> {
        ConfigError::check_deadline(deadline_s)?;
        if session.len() != net.len() {
            return Err(MembershipError::ProviderMismatch {
                provider: net.len(),
                session: session.len(),
            }
            .into());
        }
        if !self.timers_seeded {
            self.timers_seeded = true;
            for i in 0..net.len() {
                let offset = session.rng.gen::<f64>() * self.probe_interval_s;
                net.set_timer(i, offset, Msg::ProbeTick);
            }
        }
        Ok(())
    }

    /// Re-arms node `i`'s probe timer one jittered interval ahead.
    pub(crate) fn rearm(&self, net: &mut SimNet<Msg>, session: &mut Session, i: usize) {
        let jitter = 0.9 + 0.2 * session.rng.gen::<f64>();
        net.set_timer(i, self.probe_interval_s * jitter, Msg::ProbeTick);
    }

    /// Probe departing node `i` at (current or future) time `tick_at`:
    /// draws the neighbor and schedules the whole round trip as one
    /// future event. A lost exchange would break the probe chain, so
    /// it falls back to a bare timer that keeps the probe clock
    /// ticking.
    pub(crate) fn fire(
        &mut self,
        net: &mut SimNet<Msg>,
        session: &mut Session,
        i: usize,
        tick_at: f64,
    ) {
        let j = session.neighbors.sample_neighbor(i, &mut session.rng);
        self.stats.probes_sent += 1;
        if !net.roundtrip_at(i, j, tick_at, Msg::RttExchange { sent_at: tick_at }) {
            let jitter = 0.9 + 0.2 * session.rng.gen::<f64>();
            net.set_timer_at(i, tick_at + self.probe_interval_s * jitter, Msg::ProbeTick);
        }
    }

    /// Steps 2–4 at node `i`: the round trip against `j` that left at
    /// `sent_at` just completed at `now`; classify its duration at τ,
    /// train against the target's live coordinates, and chain the
    /// next probe.
    pub(crate) fn on_exchange(
        &mut self,
        net: &mut SimNet<Msg>,
        session: &mut Session,
        now: f64,
        i: usize,
        j: usize,
        sent_at: f64,
    ) {
        if !session.is_alive(i) {
            // Prober left with the exchange in flight: keep the probe
            // clock ticking for a future rejoin.
            self.rearm(net, session, i);
            return;
        }
        if session.is_alive(j) {
            let rtt_ms = (now - sent_at) * 1000.0;
            let x = Metric::Rtt.classify(rtt_ms, self.tau);
            let params = session.config.sgd;
            // i ≠ j by the neighbor-set invariant.
            let (prober, target) = session.pair_mut(i, j);
            prober.on_rtt_measurement(x, &target.coords.u, &target.coords.v, &params);
            session.measurements += 1;
            self.stats.measurements_completed += 1;
        }
        // Chain node i's next probe directly: one event per probe cycle
        // instead of a separate timer tick. The next tick nominally
        // fires at `sent_at + interval`, which lies beyond this
        // completion whenever the probe interval exceeds one RTT (the
        // Vivaldi-style regime); if a pathological config makes it land
        // in the past, fall back to an immediate timer so the schedule
        // only ever slips, never panics.
        let jitter = 0.9 + 0.2 * session.rng.gen::<f64>();
        let t_next = sent_at + self.probe_interval_s * jitter;
        if t_next > now {
            self.fire(net, session, i, t_next);
        } else {
            net.set_timer(i, 0.0, Msg::ProbeTick);
        }
    }
}
