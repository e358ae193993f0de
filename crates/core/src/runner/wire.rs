//! Wire mode (see the `runner` module docs): the simulator's [`Link`]
//! under the shared [`Endpoint`], whose docs say what it supplies. Both
//! ends of an exchange's v2 contexts sit together in one table indexed
//! by the prober's neighbor slot.
//!
//! A v2 probe send prefetches its [`Exchange`], the struct and the live
//! part of its four context buffers: at k = 32 that state is 1.3 KB per
//! slot, 20 MB at 500 nodes, and the probe's delivery at the target and
//! the reply's back at the prober — one and two one-way delays, tens of
//! events, later — met it cold. At the send and not by the driver's
//! queue lookahead: the slot is in hand for free, where a lookahead
//! would have to decode the datagram to learn who the prober is. A hint
//! only, no datagram byte depends on it (`tests/wire_v2_golden.rs`).
//! The first touch at fire time stays cold: nothing can name the slot
//! before the neighbor is drawn.

use super::fused::FusedRtt;
use super::{rtt_class, Msg, SimnetDriver};
use crate::endpoint::{Endpoint, Link, ProberEnd, TargetEnd};
use crate::node::DmfsgdNode;
use crate::session::Session;
use dmf_datasets::{Dataset, Metric};
use dmf_linalg::simd::prefetch;
use dmf_simnet::neighbors::NeighborSets;
use dmf_simnet::probe::PathloadProber;
use rand_chacha::ChaCha8Rng;

/// v2 state of one (prober → target) exchange, both ends of it.
#[derive(Debug, Default)]
pub(super) struct Exchange {
    /// `(prober, target)` the contexts belong to. Churn can hand a
    /// neighbor slot to another pair, which then starts afresh.
    pub(super) pair: (usize, usize),
    pub(super) prober: ProberEnd,
    pub(super) target: TargetEnd,
}

impl Exchange {
    /// Hints what this exchange's next deliveries touch (module docs).
    /// Called at the v2 probe send only. `probe-wire`, M cycles/s,
    /// alternated 20 s runs, four each: 0.848–0.888 so, 0.851–0.892
    /// with a second call at the v2 reply sends (medians 0.884, 0.870;
    /// parent 0.59–0.67). The delay-table entries of both legs and the
    /// two nodes added nothing either.
    fn prefetch(&self) {
        prefetch(self);
        prefetch(self.prober.probe_enc.held_states());
        prefetch(self.prober.reply_dec.held_states());
        prefetch(self.target.probe_dec.held_states());
        prefetch(self.target.reply_enc.held_states());
    }
}

/// The v2 state of the (prober → target) exchange: `table` has one
/// entry per neighbor slot. `None` when `target` is not, or no longer,
/// a neighbor of `prober`.
pub(super) fn exchange<'a>(
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

/// The simulator's [`Link`] at node `me`, for one event.
struct SimLink<'a> {
    me: usize,
    now: f64,
    /// Set for a probe send, the one lookup that prefetches.
    sending: bool,
    exchanges: &'a mut Vec<Exchange>,
    neighbors: &'a NeighborSets,
    pending_rtt: &'a mut [Vec<(usize, f64)>],
    fused: &'a mut FusedRtt,
    abw_prober: &'a PathloadProber,
    abw_truth: Option<&'a Dataset>,
    rng: &'a mut ChaCha8Rng,
    measurements: &'a mut usize,
}

impl Link for SimLink<'_> {
    fn prober_end(&mut self, target: usize) -> Option<&mut ProberEnd> {
        let ex = exchange(self.exchanges, self.neighbors, self.me, target)?;
        if self.sending {
            ex.prefetch();
        }
        Some(&mut ex.prober)
    }

    fn target_end(&mut self, prober: usize) -> Option<&mut TargetEnd> {
        let ex = exchange(self.exchanges, self.neighbors, prober, self.me)?;
        Some(&mut ex.target)
    }

    fn abw_class(&mut self, prober: usize) -> Option<f64> {
        let tau = self.fused.tau;
        self.abw_prober
            .probe_class(self.abw_truth?, prober, self.me, tau, self.rng)
    }

    fn complete(
        &mut self,
        _: &DmfsgdNode,
        target: usize,
        _: u64,
        carried: Option<f64>,
        _: &[f64],
    ) -> Option<f64> {
        let x = match carried {
            Some(x) => x,
            None => rtt_class(self.pending_rtt, self.me, target, self.now, self.fused.tau)?,
        };
        *self.measurements += 1;
        self.fused.stats.measurements_completed += 1;
        Some(x)
    }
}

impl SimnetDriver {
    /// The endpoint, node `me` and the simulator's link at `me`;
    /// `sending` for a probe send.
    fn wire_parts<'a>(
        &'a mut self,
        session: &'a mut Session,
        me: usize,
        now: f64,
        sending: bool,
    ) -> (&'a mut Endpoint, SimLink<'a>, &'a mut DmfsgdNode) {
        let link = SimLink {
            me,
            now,
            sending,
            exchanges: &mut self.exchanges,
            neighbors: &session.neighbors,
            pending_rtt: &mut self.pending_rtt,
            fused: &mut self.fused,
            abw_prober: &self.abw_prober,
            abw_truth: self.abw_truth.as_ref(),
            rng: &mut session.rng,
            measurements: &mut session.measurements,
        };
        let endpoint = self.wire.as_mut().expect("wire mode");
        (endpoint, link, &mut session.nodes[me])
    }

    /// A recycled datagram buffer, or a new one roomy enough for any v2
    /// datagram at an inline rank, so that recycling settles at once.
    fn take_buf(&mut self) -> Vec<u8> {
        self.free_bufs
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(96))
    }

    /// Wire-mode probe firing at node `i`: draw the neighbor, remember
    /// the RTT pending entry, and put the endpoint's probe on the
    /// (lossy, delayed) network.
    pub(super) fn fire_wire_probe(&mut self, session: &mut Session, i: usize, now: f64) {
        let j = session.neighbors.sample_neighbor(i, &mut session.rng);
        self.fused.stats.probes_sent += 1;
        self.wire_nonce += 1;
        let nonce = self.wire_nonce;
        if self.metric() == Metric::Rtt {
            self.note_rtt_probe(session, i, j, now);
        }
        let mut bytes = self.take_buf();
        let (endpoint, mut link, node) = self.wire_parts(session, i, now, true);
        endpoint.probe(&mut link, node, j, nonce, &mut bytes);
        self.net.send(i, j, Msg::Wire(bytes));
    }

    /// Wire-mode delivery of `bytes` from `from` at `to`: the endpoint
    /// runs it, and a reply it writes goes back on the network.
    pub(super) fn handle_wire(
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
        let config = session.config;
        let mut reply = self.take_buf();
        let (endpoint, mut link, node) = self.wire_parts(session, to, now, false);
        if endpoint.receive(&mut link, node, &config, from, bytes, &mut reply) {
            self.net.send(to, from, Msg::Wire(reply));
        } else {
            self.free_bufs.push(reply);
        }
    }
}
