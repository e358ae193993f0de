//! The three workloads without a service in front: `probe-wire` (the
//! paper's probe path with real datagrams), `sim-fused` (event queue,
//! sharded delay tables and `sgd_step` at a cache-hostile population, no
//! codec) and `train-oracle` (the algorithm alone).
//!
//! Each advances its system in slices of fixed work until `--seconds` of
//! slice time have been measured. `ops_per_s` is the rate of the fastest
//! tenth of the slices (the 90th percentile of the slices' operations
//! per second) and `lat_us` the time one operation takes at that rate:
//! what the code does while the host leaves it alone, which on a shared
//! machine repeats from run to run where the median slice does not. A
//! slice the host stalled in moves neither. `auc` is read after a fixed number of slices, so it depends
//! on the seed and not on how fast the host is; a run never stops before
//! that point.

use crate::gen::paper_config;
use crate::host;
use crate::report::{num, obj, Outcome};
use crate::stats::{self, FAST_TENTH};
use crate::trace::{self, Tracer};
use dmf_core::provider::ClassLabelProvider;
use dmf_core::runner::{Msg, SimnetRunner};
use dmf_core::{Session, SessionBuilder, ShardedSimnetDriver};
use dmf_datasets::rtt::meridian_like;
use dmf_datasets::ClassMatrix;
use dmf_eval::roc::auc;
use dmf_eval::{collect_scores, ScoredLabel};
use dmf_linalg::Matrix;
use dmf_proto::WireVersion;
use dmf_simnet::{NetConfig, ShardedSimNet};
use std::time::Instant;

/// What the timed part of a run came to.
struct Timed {
    ops_per_s: f64,
    op_us: f64,
    wall_s: f64,
    ops: u64,
    slices: usize,
}

/// Slice timings of one run.
/// `(wall seconds, operations)` per slice.
#[derive(Default)]
struct Slices(Vec<(f64, u64)>);

impl Slices {
    fn push(&mut self, wall_s: f64, ops: u64) {
        self.0.push((wall_s, ops));
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn wall_s(&self) -> f64 {
        self.0.iter().map(|s| s.0).sum()
    }

    fn ops(&self) -> u64 {
        self.0.iter().map(|s| s.1).sum()
    }

    /// The rate the fastest tenth of the slices reach or exceed.
    fn ops_per_s(&self) -> f64 {
        let rates: Vec<f64> = self.0.iter().map(|s| s.1 as f64 / s.0).collect();
        stats::percentile(&rates, FAST_TENTH)
    }

    /// Microseconds per operation at [`Self::ops_per_s`].
    fn op_us(&self) -> f64 {
        1e6 / self.ops_per_s()
    }

    /// Whether the run may stop: the fixed part is done and `seconds` of
    /// slice time have been measured.
    fn done(&self, fixed_slices: usize, seconds: f64) -> bool {
        self.len() >= fixed_slices && self.wall_s() >= seconds
    }

    fn timed(&self) -> Timed {
        Timed {
            ops_per_s: self.ops_per_s(),
            op_us: self.op_us(),
            wall_s: self.wall_s(),
            ops: self.ops(),
            slices: self.len(),
        }
    }
}

fn finish(out: &mut Outcome, traced: bool, setup_s: &[f64], timed: &Timed, auc: f64, rss_mb: f64) {
    if traced {
        out.set("trace.ops", timed.ops as f64);
        out.set("trace.wall_s", timed.wall_s);
    } else {
        out.set("setup_s", stats::median(setup_s));
        out.set("ops_per_s", timed.ops_per_s);
        out.set("lat_us", timed.op_us);
        out.set("auc", auc);
        out.set("rss_mb", rss_mb);
    }
    out.detail.push((
        "slices".into(),
        obj(vec![
            ("count", num(timed.slices as f64)),
            ("wall_s", num(timed.wall_s)),
            ("operations", num(timed.ops as f64)),
            ("mean_ops_per_s", num(timed.ops as f64 / timed.wall_s)),
        ]),
    ));
}

// ---- probe-wire -----------------------------------------------------

const PW_NODES: usize = 500;
const PW_NEIGHBORS: usize = 32;
/// Simulated seconds per slice: about 1 000 probe cycles, a few
/// milliseconds, so that slices fall between the host's slow bursts.
const PW_SLICE_SIM_S: f64 = 2.0;
/// Slices after which `auc` is read: 1200 simulated seconds.
const PW_FIXED_SLICES: usize = 600;
const PW_AUC_FLOOR: f64 = 0.90;

pub fn probe_wire(seed: u64, seconds: f64, traced: bool, setups: usize) -> Outcome {
    let mut out = Outcome::new("probe-wire", traced);
    let mut tr = Tracer::for_run(traced);
    let root = tr.enter("workload", (0, 0));
    let ((mut runner, class), setup_s) = trace::set_up_repeatedly(setups, &mut tr, |tr| {
        let dataset = tr.span("datasets.generate", || meridian_like(PW_NODES, seed));
        let tau = dataset.median();
        let class = tr.span("datasets.classify", || dataset.classify(tau));
        let runner = tr.span("runner.build", || {
            let net = NetConfig {
                seed,
                ..NetConfig::default()
            };
            SimnetRunner::new(dataset, tau, paper_config(PW_NEIGHBORS, seed), net)
                .expect("paper defaults are valid")
                .with_wire_version(WireVersion::V2)
        });
        (runner, class)
    });

    let mut slices = Slices::default();
    let mut auc_fixed = 0.0;
    while !slices.done(PW_FIXED_SLICES, seconds) {
        let until = (slices.len() + 1) as f64 * PW_SLICE_SIM_S;
        let span = tr.enter("runner.run_for", (0, 0));
        let t = Instant::now();
        let cycles = runner.run_for(until).expect("positive duration");
        slices.push(t.elapsed().as_secs_f64(), cycles as u64);
        tr.exit(span);
        if slices.len() == PW_FIXED_SLICES {
            auc_fixed = evaluate(&class, &mut tr, |m| runner.predicted_scores_into(m));
        }
    }
    let rss_mb = host::rss_mb();
    let cycles = runner.stats().measurements_completed as u64;
    let wire = runner.wire_stats();

    out.attempted = cycles + wire.decode_errors + wire.stale_deltas;
    out.failed = wire.decode_errors + wire.stale_deltas;
    out.check(
        "auc_floor",
        auc_fixed >= PW_AUC_FLOOR,
        format!("{auc_fixed:.6} >= {PW_AUC_FLOOR} after {PW_FIXED_SLICES} slices"),
    );
    out.check(
        "no_sequence_gaps",
        wire.gaps_detected == 0,
        format!("{} gaps detected on a lossless network", wire.gaps_detected),
    );
    out.check(
        "every_cycle_counted",
        cycles == slices.ops(),
        format!(
            "{cycles} cycles completed, {} returned by run_for",
            slices.ops()
        ),
    );
    if traced {
        let per_cycle = |v: u64| v as f64 / cycles.max(1) as f64;
        out.set("proto.bytes_per_cycle", per_cycle(wire.bytes_sent));
        out.set("proto.msgs_per_cycle", per_cycle(wire.messages_sent));
        out.set(
            "proto.keyframe_share",
            wire.keyframes_sent as f64 / wire.messages_sent.max(1) as f64,
        );
        out.set("proto.gaps_detected", wire.gaps_detected as f64);
        out.est = Some(crate::report::Inside {
            coded_cycles: cycles,
            sgd_steps: 2 * cycles,
            // Probe delivery, reply delivery and the probe timer.
            events: 3 * cycles,
        });
    }
    out.detail.push((
        "wire".into(),
        obj(vec![
            (
                "bytes_per_cycle",
                num(wire.bytes_sent as f64 / cycles.max(1) as f64),
            ),
            ("messages_sent", num(wire.messages_sent as f64)),
            ("keyframes_sent", num(wire.keyframes_sent as f64)),
        ]),
    ));
    finish(
        &mut out,
        traced,
        &setup_s,
        &slices.timed(),
        auc_fixed,
        rss_mb,
    );
    tr.exit(root);
    out.spans = tr.into_spans();
    out
}

/// Full-matrix evaluation: scores, scored labels, AUC, each in a span.
fn evaluate(class: &ClassMatrix, tr: &mut Tracer, scores_into: impl FnOnce(&mut Matrix)) -> f64 {
    let mut scores = Matrix::zeros(0, 0);
    tr.span("core.predicted_scores", || scores_into(&mut scores));
    let samples = tr.span("eval.collect_scores", || collect_scores(class, &scores));
    tr.span("eval.auc", || auc(&samples))
}

// ---- sim-fused ------------------------------------------------------

const SF_NODES: usize = 100_000;
const SF_ISLAND_SIZE: usize = 256;
const SF_NEIGHBORS: usize = 10;
/// Class threshold on the simulated RTT, milliseconds.
const SF_TAU_MS: f64 = 25.0;
/// Simulated seconds per slice (one probe per node: about 200 k events).
const SF_SLICE_SIM_S: f64 = 1.0;
/// Slices after which `auc` is read: 10 simulated seconds.
const SF_FIXED_SLICES: usize = 10;

/// One-way delay, seconds, of a synthetic plane: nodes sit on a square
/// grid in id order, 5 ms base plus 50 µs per grid step.
pub fn geometric_delay_s(n: usize) -> impl Fn(usize, usize) -> f64 {
    let side = (n as f64).sqrt().ceil().max(1.0) as usize;
    move |i, j| {
        let dx = (i % side).abs_diff(j % side) as f64;
        let dy = (i / side).abs_diff(j / side) as f64;
        0.005 + 0.000_05 * (dx * dx + dy * dy).sqrt()
    }
}

pub fn sim_fused(seed: u64, seconds: f64, traced: bool, setups: usize) -> Outcome {
    let mut out = Outcome::new("sim-fused", traced);
    let mut tr = Tracer::for_run(traced);
    let root = tr.enter("workload", (0, 0));
    let net_cfg = NetConfig {
        seed,
        ..NetConfig::default()
    };
    let cross_rtt_ms = 2.0 * f64::from(net_cfg.default_one_way_delay_s as f32) * 1e3;
    let ((mut session, mut driver), setup_s) = trace::set_up_repeatedly(setups, &mut tr, |tr| {
        let session = tr.span("session.build", || {
            SessionBuilder::from_config(paper_config(SF_NEIGHBORS, seed))
                .nodes(SF_NODES)
                .tau(SF_TAU_MS)
                .build()
                .expect("paper defaults are valid")
        });
        let net: ShardedSimNet<Msg> = tr.span("simnet.build", || {
            ShardedSimNet::from_delay_fn(
                SF_NODES,
                SF_NODES.div_ceil(SF_ISLAND_SIZE),
                net_cfg.clone(),
                geometric_delay_s(SF_NODES),
            )
        });
        let driver = tr.span("driver.build", || {
            ShardedSimnetDriver::new(&session, net).expect("population matches")
        });
        (session, driver)
    });

    let mut slices = Slices::default();
    let mut auc_fixed = 0.0;
    let mut events_before = 0u64;
    while !slices.done(SF_FIXED_SLICES, seconds) {
        let until = (slices.len() + 1) as f64 * SF_SLICE_SIM_S;
        let span = tr.enter("driver.run_until", (0, 0));
        let t = Instant::now();
        driver
            .run_until(&mut session, until)
            .expect("population matches");
        let wall = t.elapsed().as_secs_f64();
        tr.exit(span);
        let s = driver.net().stats();
        let events = (s.delivered + s.timers) as u64;
        slices.push(wall, events - events_before);
        events_before = events;
        if slices.len() == SF_FIXED_SLICES {
            auc_fixed = tr.span("eval.neighbor_auc", || {
                neighbor_pair_auc(&session, &driver, cross_rtt_ms)
            });
        }
    }
    let rss_mb = host::rss_mb();
    let net = driver.net().stats();
    let completed = driver.stats().measurements_completed as u64;

    out.attempted = completed + net.dropped as u64;
    out.failed = net.dropped as u64;
    out.check(
        "updates_match_measurements",
        session.measurements_used() as u64 == completed,
        format!(
            "{} updates applied, {completed} measurements completed",
            session.measurements_used()
        ),
    );
    let finite = session.nodes().iter().all(|n| {
        n.coords
            .u
            .iter()
            .chain(n.coords.v.iter())
            .all(|c| c.is_finite())
    });
    out.check("coordinates_finite", finite, format!("{SF_NODES} nodes"));
    out.check(
        "auc_floor",
        auc_fixed >= SF_AUC_FLOOR,
        format!("{auc_fixed:.6} >= {SF_AUC_FLOOR} after {SF_FIXED_SLICES} slices"),
    );
    if traced {
        out.set("simnet.delivered", net.delivered as f64);
        out.set("simnet.timers", net.timers as f64);
        out.set("simnet.dropped", net.dropped as f64);
        out.est = Some(crate::report::Inside {
            coded_cycles: 0,
            sgd_steps: 2 * completed,
            events: (net.delivered + net.timers) as u64,
        });
    }
    out.detail.push((
        "population".into(),
        obj(vec![
            ("nodes", num(SF_NODES as f64)),
            ("islands", num(driver.net().islands() as f64)),
            (
                "delay_table_mb",
                num(driver.net().table_bytes() as f64 / (1 << 20) as f64),
            ),
            ("measurements_completed", num(completed as f64)),
        ]),
    ));
    finish(
        &mut out,
        traced,
        &setup_s,
        &slices.timed(),
        auc_fixed,
        rss_mb,
    );
    tr.exit(root);
    out.spans = tr.into_spans();
    out
}

/// Lowest acceptable `auc` on `sim-fused`: six seeds read 0.597–0.617
/// (see [`neighbor_pair_auc`] for why it is this low), chance is 0.5.
const SF_AUC_FLOOR: f64 = 0.55;

/// AUC over every (node, neighbor) pair the population probes, against
/// the class of the pair's noise-free simulated RTT: twice the grid
/// delay inside an island, twice the default delay across islands.
/// Random neighbors are almost all across islands and so in one class:
/// of a million probed pairs about 1 100 are good, each seen about once
/// by the time this is read. Pairs never probed carry no signal at all,
/// which is why this is not the sampled-pairs AUC of the serving
/// workloads. Read it as a fingerprint of the arithmetic (it repeats
/// exactly for a seed), not as a quality claim.
fn neighbor_pair_auc(session: &Session, driver: &ShardedSimnetDriver, cross_rtt_ms: f64) -> f64 {
    let delay = geometric_delay_s(SF_NODES);
    let net = driver.net();
    let mut samples = Vec::with_capacity(SF_NODES * SF_NEIGHBORS);
    for i in 0..SF_NODES {
        for &j in session.neighbors().neighbors(i) {
            let rtt_ms = if net.island_of(i) == net.island_of(j) {
                2.0 * f64::from(delay(i, j) as f32) * 1e3
            } else {
                cross_rtt_ms
            };
            samples.push(ScoredLabel {
                positive: rtt_ms <= SF_TAU_MS,
                score: session.raw_score(i, j).expect("neighbors are valid pairs"),
            });
        }
    }
    auc(&samples)
}

// ---- train-oracle ---------------------------------------------------

const TO_NODES: usize = 1000;
const TO_NEIGHBORS: usize = 32;
/// Ticks per round of the convergence curve; each round ends in a full
/// evaluation (scores, scored labels, AUC).
const TO_ROUND_TICKS: usize = 4_000_000;
/// Ticks per timed slice of a round, about a millisecond: this loop is
/// the one the host's other tenants slow the most, in bursts shorter
/// than a round, so a round is timed in parts small enough to fall
/// between them.
const TO_SLICE_TICKS: usize = 8_000;
/// Rounds after which `auc` is read: 8 M ticks.
const TO_FIXED_ROUNDS: usize = 2;
const TO_AUC_FLOOR: f64 = 0.88;

pub fn train_oracle(seed: u64, seconds: f64, traced: bool, setups: usize) -> Outcome {
    let mut out = Outcome::new("train-oracle", traced);
    let mut tr = Tracer::for_run(traced);
    let root = tr.enter("workload", (0, 0));
    let ((mut session, mut provider), setup_s) = trace::set_up_repeatedly(setups, &mut tr, |tr| {
        let dataset = tr.span("datasets.generate", || meridian_like(TO_NODES, seed));
        let class = tr.span("datasets.classify", || dataset.classify(dataset.median()));
        let session = tr.span("session.build", || {
            SessionBuilder::from_config(paper_config(TO_NEIGHBORS, seed))
                .nodes(TO_NODES)
                .build()
                .expect("paper defaults are valid")
        });
        (session, ClassLabelProvider::new(class))
    });

    // Training slices and, per round, the time of its evaluation.
    let mut slices = Slices::default();
    let mut eval_s = Vec::new();
    let mut curve = Vec::new();
    let mut applied = 0u64;
    while curve.len() < TO_FIXED_ROUNDS || slices.wall_s() + eval_s.iter().sum::<f64>() < seconds {
        let span = tr.enter("session.run", (0, 0));
        for _ in 0..TO_ROUND_TICKS / TO_SLICE_TICKS {
            let t = Instant::now();
            applied += session
                .run(TO_SLICE_TICKS, &mut provider)
                .expect("provider covers the session") as u64;
            slices.push(t.elapsed().as_secs_f64(), TO_SLICE_TICKS as u64);
        }
        tr.exit(span);
        let t = Instant::now();
        curve.push(evaluate(provider.class_matrix(), &mut tr, |m| {
            session.predicted_scores_into(m)
        }));
        eval_s.push(t.elapsed().as_secs_f64());
    }
    let rss_mb = host::rss_mb();
    let auc_fixed = curve[TO_FIXED_ROUNDS - 1];
    // A round is its ticks and one evaluation: the rate of a round whose
    // training ran at the fast-tenth rate and whose evaluation took the
    // fast-tenth time. The per-tick median is of training alone.
    let train_s = slices.wall_s();
    let round_s =
        TO_ROUND_TICKS as f64 / slices.ops_per_s() + stats::percentile(&eval_s, 1.0 - FAST_TENTH);
    let timed = Timed {
        ops_per_s: TO_ROUND_TICKS as f64 / round_s,
        wall_s: train_s + eval_s.iter().sum::<f64>(),
        ..slices.timed()
    };

    out.attempted = slices.ops();
    out.failed = slices.ops() - applied;
    out.check(
        "auc_floor",
        auc_fixed >= TO_AUC_FLOOR,
        format!("{auc_fixed:.6} >= {TO_AUC_FLOOR} after {TO_FIXED_ROUNDS} rounds"),
    );
    out.check(
        "every_tick_applied",
        applied == session.measurements_used() as u64 && applied == slices.ops(),
        format!("{applied} of {} ticks applied", slices.ops()),
    );
    if traced {
        out.set("core.run_updates_per_s", applied as f64 / train_s);
        out.est = Some(crate::report::Inside {
            coded_cycles: 0,
            sgd_steps: 2 * applied,
            events: 0,
        });
    }
    out.detail.push((
        "convergence_curve_auc".into(),
        serde::Value::Array(curve.iter().map(|&a| num(a)).collect()),
    ));
    out.detail.push((
        "evaluation_share_of_wall".into(),
        num(1.0 - train_s / timed.wall_s),
    ));
    out.detail
        .push(("evaluation_p50_s".into(), num(stats::median(&eval_s))));
    finish(&mut out, traced, &setup_s, &timed, auc_fixed, rss_mb);
    tr.exit(root);
    out.spans = tr.into_spans();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_statistics_ignore_a_stalled_slice() {
        let s = Slices(vec![(1.0, 1_000_000), (1.0, 1_000_000), (4.0, 1_000_000)]);
        assert_eq!(s.ops(), 3_000_000);
        assert_eq!(s.wall_s(), 6.0);
        // Rates of 1 M, 1 M and 250 k per second: the stalled slice does
        // not move the rate, nor the time per operation read from it.
        assert_eq!(s.ops_per_s(), 1_000_000.0);
        assert_eq!(s.op_us(), 1.0);
        // Twenty slices at 1 k to 20 k per second: the fastest tenth
        // starts at the 18th.
        let ramp = Slices((1..=20).map(|k| (1.0, 1000 * k)).collect());
        assert_eq!(ramp.ops_per_s(), 18_000.0);
        assert!(!s.done(4, 1.0), "the fixed part is not finished");
        assert!(!s.done(3, 7.0), "the time budget is not used up");
        assert!(s.done(3, 6.0));
    }

    #[test]
    fn grid_delays_are_symmetric_and_grow_with_distance() {
        let d = geometric_delay_s(10_000);
        assert_eq!(d(17, 4242).to_bits(), d(4242, 17).to_bits());
        assert!(d(0, 0) >= 0.005);
        assert!(d(0, 9_999) > d(0, 1));
    }
}
