//! Composable non-stationary network scenarios.
//!
//! The paper's evaluation is essentially stationary: static matrices
//! plus one passively-probed replay. Real deployments are not — RTTs
//! drift as routes re-embed, cluster pairs congest and recover,
//! routing changes step the ground truth, probes get lost, segments
//! partition, and nodes churn. A [`ScenarioSpec`] declares such a
//! regime as a list of [`Condition`]s composed over a timeline, and
//! [`Scenario::realize`] turns it into a deterministic engine that
//! answers three questions for any simulated time `t`:
//!
//! * what is the ground-truth RTT matrix *right now*
//!   ([`Scenario::ground_truth_at`])?
//! * which transport impairments are active — probe loss, partitions,
//!   stragglers ([`Scenario::impairments_at`])?
//! * which membership events are due
//!   ([`Scenario::membership_events`])?
//!
//! The split keeps layers honest: this module owns *what the network
//! is doing* (pure data, seedable, serde-serializable), the simnet
//! layer owns *how messages experience it* (delay functions, drop
//! filters), and the harness in `dmf-bench` stitches the two together
//! window by window to measure prediction quality under each regime.
//!
//! Ground truth is derived from the same two-tier [`Topology`] the
//! static generators use: drift moves node positions in the delay
//! plane (a re-embedding), congestion and routing changes multiply
//! selected pairs, and the per-pair log-normal noise and median
//! calibration of [`crate::rtt`] are preserved — so a scenario with no
//! conditions reproduces a calibrated stationary dataset.

use crate::rtt::RttDatasetConfig;
use crate::topology::Topology;
use crate::{Dataset, Metric};
use dmf_linalg::stats::log_normal_sample;
use dmf_linalg::{Mask, Matrix};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One network condition composed onto the scenario timeline.
///
/// Epoch-style conditions are active for `start_s <= t < end_s`; step
/// conditions apply from their trigger time onward. Conditions
/// compose: factors multiply, loss probabilities take the maximum,
/// partitions union.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Condition {
    /// Continuous RTT drift: a fraction of nodes migrate linearly to
    /// new positions in the delay plane between `start_s` and `end_s`
    /// (the topology re-embeds itself, as when routes shift under
    /// load-balancing).
    Drift {
        /// Drift epoch start (seconds).
        start_s: f64,
        /// Drift epoch end; positions stay at their target afterwards.
        end_s: f64,
        /// Fraction of nodes that move (0–1).
        node_fraction: f64,
        /// Maximum per-axis displacement in ms of one-way delay.
        max_shift_ms: f64,
    },
    /// Flash congestion: all paths between the chosen number of
    /// cluster pairs see their RTT multiplied by `factor` for the
    /// duration of the epoch, then recover.
    FlashCongestion {
        /// Congestion epoch start (seconds).
        start_s: f64,
        /// Congestion epoch end (seconds).
        end_s: f64,
        /// How many distinct cluster pairs congest.
        cluster_pairs: usize,
        /// RTT multiplier on affected paths (> 1 = congestion).
        factor: f64,
    },
    /// Routing change: a step function at `at_s` that permanently
    /// multiplies a random fraction of pairs by `factor` (detours via
    /// a longer path after a route withdrawal).
    RoutingShift {
        /// When the routing table changes (seconds).
        at_s: f64,
        /// Fraction of unordered pairs affected (0–1).
        pair_fraction: f64,
        /// RTT multiplier on affected pairs from `at_s` onward.
        factor: f64,
    },
    /// Lossy control plane: probe messages drop with the given
    /// probability during the epoch (injected at the simnet layer).
    ProbeLoss {
        /// Loss epoch start (seconds).
        start_s: f64,
        /// Loss epoch end (seconds).
        end_s: f64,
        /// Per-message drop probability (0–1).
        probability: f64,
    },
    /// Network partition: a fraction of nodes form an island that
    /// cannot exchange messages with the mainland for the epoch
    /// (island-internal traffic still flows). Ground truth is
    /// unchanged — the paths exist, the messages don't.
    Partition {
        /// Partition start (seconds).
        start_s: f64,
        /// Partition heal time (seconds).
        end_s: f64,
        /// Fraction of nodes isolated into the island (0–1).
        node_fraction: f64,
    },
    /// Straggler nodes: a fraction of nodes whose message legs are
    /// slowed by `delay_factor` for the whole run (overloaded hosts,
    /// not slow paths — ground truth is unchanged).
    Straggler {
        /// Fraction of nodes that straggle (0–1).
        node_fraction: f64,
        /// Multiplier on every message leg touching a straggler.
        delay_factor: f64,
    },
    /// Membership churn: a fraction of nodes leave at `leave_at_s` and
    /// the same number rejoin at `rejoin_at_s` (driven through the
    /// `Session::join`/`leave` API by the harness).
    Churn {
        /// When the group departs (seconds).
        leave_at_s: f64,
        /// When replacements rejoin (seconds).
        rejoin_at_s: f64,
        /// Fraction of nodes that churn (0–1).
        node_fraction: f64,
    },
}

/// A declarative, seedable description of a non-stationary scenario:
/// the stationary substrate (an [`RttDatasetConfig`]) plus a timeline
/// of [`Condition`]s and an evaluation window size.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Scenario name (registry key, reported in `QUALITY.json`).
    pub name: String,
    /// Master seed: topology, noise, and every condition realization
    /// derive from it, so a spec realizes identically every time.
    pub seed: u64,
    /// The stationary substrate (node count, clusters, calibration).
    pub rtt: RttDatasetConfig,
    /// Total simulated duration in seconds.
    pub duration_s: f64,
    /// Evaluation window length in seconds (quality is measured per
    /// window, not only at the end).
    pub window_s: f64,
    /// The conditions composed onto the timeline.
    pub conditions: Vec<Condition>,
}

impl ScenarioSpec {
    /// A stationary scenario (no conditions) over the given substrate.
    pub fn stationary(
        name: impl Into<String>,
        rtt: RttDatasetConfig,
        seed: u64,
        duration_s: f64,
        window_s: f64,
    ) -> Self {
        Self {
            name: name.into(),
            seed,
            rtt,
            duration_s,
            window_s,
            conditions: Vec::new(),
        }
    }

    /// Adds a condition (builder-style).
    pub fn with(mut self, condition: Condition) -> Self {
        self.conditions.push(condition);
        self
    }
}

/// Transport impairments active at one instant, as pure data: the
/// harness forwards them to the simnet layer.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Impairments {
    /// Probe drop probability (maximum over active
    /// [`Condition::ProbeLoss`] epochs; 0 when none).
    pub loss_probability: f64,
    /// Active partition islands, one (sorted) node set per active
    /// [`Condition::Partition`]. Each island is cut from everything
    /// outside it *independently* — two concurrent partitions do not
    /// merge into one island (their members are mutually cut too,
    /// each being outside the other's island).
    pub islands: Vec<Vec<usize>>,
    /// Per-node message delay multipliers from
    /// [`Condition::Straggler`] (static for the run).
    pub stragglers: Vec<(usize, f64)>,
}

impl Impairments {
    /// Per-node partition classes over a population of `n` nodes: two
    /// nodes can exchange messages iff their classes are equal. Each
    /// active island contributes one membership bit, so every cut
    /// applies independently. Empty when no partition is active
    /// (= fully connected).
    ///
    /// # Panics
    /// Panics when an island id is out of range or more than 32
    /// partitions are concurrently active (the class space is a
    /// `u32` bitmask).
    pub fn partition_classes(&self, n: usize) -> Vec<u32> {
        if self.islands.is_empty() {
            return Vec::new();
        }
        assert!(
            self.islands.len() <= 32,
            "at most 32 concurrent partitions supported, got {}",
            self.islands.len()
        );
        let mut classes = vec![0u32; n];
        for (k, island) in self.islands.iter().enumerate() {
            for &i in island {
                assert!(i < n, "island node id {i} out of range for {n} nodes");
                classes[i] |= 1 << k;
            }
        }
        classes
    }
}

/// A membership change the harness must apply at
/// [`MembershipEvent::at_s`].
#[derive(Clone, Debug, PartialEq)]
pub struct MembershipEvent {
    /// When the event is due (seconds).
    pub at_s: f64,
    /// What happens.
    pub kind: MembershipEventKind,
}

/// The kind of a [`MembershipEvent`].
#[derive(Clone, Debug, PartialEq)]
pub enum MembershipEventKind {
    /// These nodes leave the session.
    Leave(Vec<usize>),
    /// This many nodes rejoin (the session re-admits into the freed
    /// slots).
    Rejoin(usize),
}

/// One realized condition: the random draws (which nodes move, which
/// cluster pairs congest, …) are fixed at realization time so every
/// query is pure.
#[derive(Clone, Debug)]
enum Effect {
    Drift {
        start_s: f64,
        end_s: f64,
        /// `shift[i]` is node `i`'s total displacement over the
        /// epoch, when it drifts. Stored as a displacement (not an
        /// absolute target) so stacked drift conditions compose
        /// additively instead of a later epoch reverting an earlier
        /// one.
        shift: Vec<Option<(f64, f64)>>,
    },
    FlashCongestion {
        start_s: f64,
        end_s: f64,
        /// Congested cluster pairs, stored as `(min, max)`.
        pairs: Vec<(usize, usize)>,
        factor: f64,
    },
    RoutingShift {
        at_s: f64,
        /// Affected pairs (symmetric mask).
        affected: Mask,
        factor: f64,
    },
    ProbeLoss {
        start_s: f64,
        end_s: f64,
        probability: f64,
    },
    Partition {
        start_s: f64,
        end_s: f64,
        isolated: Vec<usize>,
    },
    Straggler {
        nodes: Vec<usize>,
        delay_factor: f64,
    },
    Churn {
        leave_at_s: f64,
        rejoin_at_s: f64,
        leavers: Vec<usize>,
    },
}

/// A realized scenario: topology, per-pair noise, calibration and
/// every condition's random draws are fixed, so all queries are pure
/// functions of simulated time.
#[derive(Clone, Debug)]
pub struct Scenario {
    spec: ScenarioSpec,
    topology: Topology,
    /// Per-pair multiplicative log-normal noise (symmetric, unit
    /// diagonal) — the idiosyncratic component of [`crate::topology`].
    noise: Matrix,
    /// Global factor calibrating the stationary median to
    /// `spec.rtt.target_median_ms`.
    calibration: f64,
    effects: Vec<Effect>,
}

/// Samples `count` distinct values from `0..n` by partial
/// Fisher–Yates (deterministic in `rng`).
fn sample_distinct(rng: &mut ChaCha8Rng, n: usize, count: usize) -> Vec<usize> {
    debug_assert!(count <= n);
    let mut pool: Vec<usize> = (0..n).collect();
    for i in 0..count {
        let j = rng.gen_range(i..n);
        pool.swap(i, j);
    }
    pool.truncate(count);
    pool
}

/// Rounds a fraction of `n` to a node count, clamped to `1..=n` for
/// positive fractions (a declared condition always touches someone).
fn fraction_count(n: usize, fraction: f64) -> usize {
    assert!(
        (0.0..=1.0).contains(&fraction),
        "fraction {fraction} out of [0, 1]"
    );
    if fraction == 0.0 {
        0
    } else {
        ((fraction * n as f64).round() as usize).clamp(1, n)
    }
}

fn check_epoch(start_s: f64, end_s: f64, duration_s: f64) {
    assert!(
        start_s >= 0.0 && end_s > start_s && start_s < duration_s,
        "epoch [{start_s}, {end_s}) must be non-empty and start within \
         the {duration_s}s scenario"
    );
}

impl Scenario {
    /// Realizes a spec: generates the topology, draws every
    /// condition's random choices, and calibrates the stationary
    /// median — all from `spec.seed`, so equal specs realize
    /// identically.
    ///
    /// # Panics
    /// Panics when the spec is malformed (non-positive durations,
    /// fractions outside `[0, 1]`, empty epochs, factors that are not
    /// positive and finite).
    pub fn realize(spec: ScenarioSpec) -> Self {
        assert!(
            spec.duration_s.is_finite() && spec.duration_s > 0.0,
            "scenario duration must be positive"
        );
        assert!(
            spec.window_s.is_finite() && spec.window_s > 0.0 && spec.window_s <= spec.duration_s,
            "window must be positive and no longer than the scenario"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(spec.seed);
        let topology = Topology::generate(spec.rtt.topology.clone(), &mut rng);
        let n = topology.len();
        assert!(n >= 2, "scenario needs at least two nodes");

        // Per-pair noise, exactly as the static generator draws it.
        let sigma = spec.rtt.topology.pair_noise_sigma;
        let mut noise = Matrix::zeros(n, n);
        for i in 0..n {
            noise[(i, i)] = 1.0;
            for j in (i + 1)..n {
                let f = log_normal_sample(&mut rng, 0.0, sigma);
                noise[(i, j)] = f;
                noise[(j, i)] = f;
            }
        }

        // Calibrate the *stationary* substrate (no conditions) to the
        // target median; conditions then perturb the calibrated truth.
        let mut stationary: Vec<f64> = Vec::with_capacity(n * (n - 1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                stationary.push(topology.base_rtt(i, j) * noise[(i, j)]);
            }
        }
        let median = dmf_linalg::stats::percentile_in_place(&mut stationary, 50.0);
        assert!(median > 0.0, "degenerate topology: zero median RTT");
        let calibration = spec.rtt.target_median_ms / median;

        let effects = spec
            .conditions
            .iter()
            .map(|c| Self::realize_condition(c, &topology, spec.duration_s, &mut rng))
            .collect();

        Self {
            spec,
            topology,
            noise,
            calibration,
            effects,
        }
    }

    fn realize_condition(
        condition: &Condition,
        topology: &Topology,
        duration_s: f64,
        rng: &mut ChaCha8Rng,
    ) -> Effect {
        let n = topology.len();
        match *condition {
            Condition::Drift {
                start_s,
                end_s,
                node_fraction,
                max_shift_ms,
            } => {
                check_epoch(start_s, end_s, duration_s);
                assert!(
                    max_shift_ms.is_finite() && max_shift_ms > 0.0,
                    "drift shift must be positive"
                );
                let movers = sample_distinct(rng, n, fraction_count(n, node_fraction));
                let mut shift = vec![None; n];
                for &i in &movers {
                    // Uniform displacement in the ±max_shift square.
                    let dx = (2.0 * rng.gen::<f64>() - 1.0) * max_shift_ms;
                    let dy = (2.0 * rng.gen::<f64>() - 1.0) * max_shift_ms;
                    shift[i] = Some((dx, dy));
                }
                Effect::Drift {
                    start_s,
                    end_s,
                    shift,
                }
            }
            Condition::FlashCongestion {
                start_s,
                end_s,
                cluster_pairs,
                factor,
            } => {
                check_epoch(start_s, end_s, duration_s);
                assert!(
                    factor.is_finite() && factor > 0.0,
                    "congestion factor must be positive"
                );
                let clusters = topology.cluster_pos.len();
                let mut all: Vec<(usize, usize)> = Vec::new();
                for a in 0..clusters {
                    for b in (a + 1)..clusters {
                        all.push((a, b));
                    }
                }
                let count = cluster_pairs.min(all.len());
                let picks = sample_distinct(rng, all.len(), count);
                let pairs = picks.into_iter().map(|k| all[k]).collect();
                Effect::FlashCongestion {
                    start_s,
                    end_s,
                    pairs,
                    factor,
                }
            }
            Condition::RoutingShift {
                at_s,
                pair_fraction,
                factor,
            } => {
                assert!(
                    (0.0..duration_s).contains(&at_s),
                    "routing shift at {at_s}s outside the {duration_s}s scenario"
                );
                assert!(
                    (0.0..=1.0).contains(&pair_fraction),
                    "pair fraction {pair_fraction} out of [0, 1]"
                );
                assert!(
                    factor.is_finite() && factor > 0.0,
                    "routing factor must be positive"
                );
                let mut affected = Mask::none(n, n);
                for i in 0..n {
                    for j in (i + 1)..n {
                        if rng.gen::<f64>() < pair_fraction {
                            affected.set(i, j, true);
                            affected.set(j, i, true);
                        }
                    }
                }
                Effect::RoutingShift {
                    at_s,
                    affected,
                    factor,
                }
            }
            Condition::ProbeLoss {
                start_s,
                end_s,
                probability,
            } => {
                check_epoch(start_s, end_s, duration_s);
                assert!(
                    (0.0..=1.0).contains(&probability),
                    "loss probability {probability} out of [0, 1]"
                );
                Effect::ProbeLoss {
                    start_s,
                    end_s,
                    probability,
                }
            }
            Condition::Partition {
                start_s,
                end_s,
                node_fraction,
            } => {
                check_epoch(start_s, end_s, duration_s);
                let count = fraction_count(n, node_fraction);
                // An island holding every node cuts nothing (the cut
                // is between island and mainland), silently inverting
                // the spec's intent — reject it loudly instead.
                assert!(
                    count < n,
                    "partition island must be a strict subset of the population \
                     (node_fraction {node_fraction} isolates all {n} nodes)"
                );
                let isolated = sample_distinct(rng, n, count);
                Effect::Partition {
                    start_s,
                    end_s,
                    isolated,
                }
            }
            Condition::Straggler {
                node_fraction,
                delay_factor,
            } => {
                assert!(
                    delay_factor.is_finite() && delay_factor > 0.0,
                    "straggler factor must be positive"
                );
                let nodes = sample_distinct(rng, n, fraction_count(n, node_fraction));
                Effect::Straggler {
                    nodes,
                    delay_factor,
                }
            }
            Condition::Churn {
                leave_at_s,
                rejoin_at_s,
                node_fraction,
            } => {
                assert!(
                    (0.0..duration_s).contains(&leave_at_s) && rejoin_at_s > leave_at_s,
                    "churn must leave within the scenario and rejoin after leaving"
                );
                let count = fraction_count(n, node_fraction);
                // Leaving everyone can never be applied (survivors
                // must sustain their neighbor sets) — fail at realize
                // time, not as a mid-run harness panic.
                assert!(
                    count < n,
                    "churn group must be a strict subset of the population \
                     (node_fraction {node_fraction} churns all {n} nodes)"
                );
                let leavers = sample_distinct(rng, n, count);
                Effect::Churn {
                    leave_at_s,
                    rejoin_at_s,
                    leavers,
                }
            }
        }
    }

    // ---- introspection ----------------------------------------------

    /// The spec this scenario was realized from.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// The realized topology (cluster membership, initial positions).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.topology.len()
    }

    /// Number of evaluation windows (the last one may be shorter when
    /// the duration is not a multiple of the window).
    pub fn window_count(&self) -> usize {
        // The epsilon absorbs float-division residue: a ratio landing
        // a few ulps above an integer (5.7 / 1.9 = 3.0000000000000004)
        // must not fabricate a phantom empty final window.
        ((self.spec.duration_s / self.spec.window_s - 1e-9).ceil() as usize).max(1)
    }

    /// `(start, end)` of window `w` in seconds.
    ///
    /// # Panics
    /// Panics when `w >= window_count()`.
    pub fn window_bounds(&self, w: usize) -> (f64, f64) {
        assert!(w < self.window_count(), "window {w} out of range");
        let start = w as f64 * self.spec.window_s;
        let end = (start + self.spec.window_s).min(self.spec.duration_s);
        (start, end)
    }

    /// Every instant in `(0, duration)` where some condition starts,
    /// ends or triggers — sorted and deduplicated. The harness cuts
    /// its simulation segments at these times (plus window bounds) so
    /// piecewise-constant approximations never straddle a transition.
    pub fn transition_times(&self) -> Vec<f64> {
        let mut times = Vec::new();
        for e in &self.effects {
            match *e {
                Effect::Drift { start_s, end_s, .. }
                | Effect::FlashCongestion { start_s, end_s, .. }
                | Effect::ProbeLoss { start_s, end_s, .. }
                | Effect::Partition { start_s, end_s, .. } => {
                    times.push(start_s);
                    times.push(end_s);
                }
                Effect::RoutingShift { at_s, .. } => times.push(at_s),
                Effect::Churn {
                    leave_at_s,
                    rejoin_at_s,
                    ..
                } => {
                    times.push(leave_at_s);
                    times.push(rejoin_at_s);
                }
                Effect::Straggler { .. } => {}
            }
        }
        times.retain(|&t| t > 0.0 && t < self.spec.duration_s);
        times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        times.dedup();
        times
    }

    /// True when the ground truth at `t1` may differ from the truth
    /// at `t0` (`t0 <= t1`): some drift progresses, or a congestion
    /// epoch or routing step begins/ends, inside the interval.
    /// Conservative in the cheap direction (a `true` only costs a
    /// recomputation); harnesses use it to skip delay re-embeddings
    /// across segments where nothing moved.
    pub fn truth_changes_between(&self, t0: f64, t1: f64) -> bool {
        debug_assert!(t0 <= t1);
        self.effects.iter().any(|e| match *e {
            // Drift progress moves strictly inside (start, end).
            Effect::Drift { start_s, end_s, .. } => t1 > start_s && t0 < end_s,
            // Epoch factors change exactly at the boundary crossings.
            Effect::FlashCongestion { start_s, end_s, .. } => {
                (t0 < start_s && t1 >= start_s) || (t0 < end_s && t1 >= end_s)
            }
            Effect::RoutingShift { at_s, .. } => t0 < at_s && t1 >= at_s,
            Effect::ProbeLoss { .. } | Effect::Partition { .. } => false,
            Effect::Straggler { .. } | Effect::Churn { .. } => false,
        })
    }

    // ---- ground truth -----------------------------------------------

    /// Node `i`'s position in the delay plane at time `t` (initial
    /// position, drifting linearly to its target during drift epochs).
    fn node_pos_at(&self, i: usize, t: f64) -> (f64, f64) {
        let mut pos = self.topology.node_pos[i];
        // Displacements add: each drift epoch contributes its own
        // progress-scaled shift, so stacked drifts accumulate instead
        // of a later epoch pulling the node back toward its origin.
        for e in &self.effects {
            if let Effect::Drift {
                start_s,
                end_s,
                shift,
            } = e
            {
                if let Some((dx, dy)) = shift[i] {
                    let progress = ((t - start_s) / (end_s - start_s)).clamp(0.0, 1.0);
                    pos = (pos.0 + progress * dx, pos.1 + progress * dy);
                }
            }
        }
        pos
    }

    /// The multiplicative condition factor on pair `(i, j)` at `t`
    /// (flash congestion on the pair's clusters, routing shifts).
    fn pair_factor(&self, i: usize, j: usize, t: f64) -> f64 {
        let ci = self.topology.cluster_of[i].min(self.topology.cluster_of[j]);
        let cj = self.topology.cluster_of[i].max(self.topology.cluster_of[j]);
        let mut factor = 1.0;
        for e in &self.effects {
            match e {
                Effect::FlashCongestion {
                    start_s,
                    end_s,
                    pairs,
                    factor: f,
                } if t >= *start_s && t < *end_s && pairs.contains(&(ci, cj)) => {
                    factor *= f;
                }
                Effect::RoutingShift {
                    at_s,
                    affected,
                    factor: f,
                } if t >= *at_s && affected.is_known(i, j) => {
                    factor *= f;
                }
                _ => {}
            }
        }
        factor
    }

    /// The ground-truth RTT of `(i, j)` at time `t` from both nodes'
    /// positions — the one formula (`base · noise · calibration ·
    /// factors`) behind the batched [`ground_truth_at`](Self::ground_truth_at).
    fn rtt_from_positions(
        &self,
        i: usize,
        j: usize,
        pi: (f64, f64),
        pj: (f64, f64),
        t: f64,
    ) -> f64 {
        if i == j {
            return 0.0;
        }
        self.topology.rtt_at_positions(i, j, pi, pj)
            * self.noise[(i, j)]
            * self.calibration
            * self.pair_factor(i, j, t)
    }

    /// The complete ground-truth RTT dataset at time `t` (symmetric,
    /// full off-diagonal mask, in ms). At `t = 0` with no conditions
    /// triggering at zero this is a calibrated stationary dataset with
    /// median `spec.rtt.target_median_ms`.
    pub fn ground_truth_at(&self, t: f64) -> Dataset {
        let n = self.nodes();
        let pos = self.positions_at(t);
        let mut values = Matrix::zeros(n, n);
        for i in 0..n {
            for j in (i + 1)..n {
                let rtt = self.rtt_from_positions(i, j, pos[i], pos[j], t);
                values[(i, j)] = rtt;
                values[(j, i)] = rtt;
            }
        }
        Dataset::new(
            format!("{}@{t:.0}s", self.spec.name),
            Metric::Rtt,
            values,
            Mask::full_off_diagonal(n),
        )
    }

    /// The one-way delay (seconds) of every ordered pair at time `t`,
    /// as a function a simulated network evaluates per leg
    /// (`dmf_simnet::SimNet::from_delay_fn` and `set_delay_fn`): half
    /// the pair's RTT, by the same expression and pair order as
    /// [`ground_truth_at`](Self::ground_truth_at)`(t)`'s entry, so
    /// `f(i, j)` is that entry `/ 2 / 1000` to the bit. It captures the
    /// `n` positions at `t` and the scenario, and no per-pair state.
    pub fn one_way_delay_fn(
        self: &Arc<Self>,
        t: f64,
    ) -> impl Fn(usize, usize) -> f64 + Send + Sync + 'static {
        let pos = self.positions_at(t);
        let scenario = Arc::clone(self);
        move |i, j| {
            let (a, b) = (i.min(j), i.max(j));
            scenario.rtt_from_positions(a, b, pos[a], pos[b], t) / 2.0 / 1000.0
        }
    }

    /// Every node's position at `t`: one drifted position per node,
    /// not one per pair.
    fn positions_at(&self, t: f64) -> Vec<(f64, f64)> {
        (0..self.nodes()).map(|i| self.node_pos_at(i, t)).collect()
    }

    // ---- impairments and membership ---------------------------------

    /// The transport impairments active at time `t`.
    pub fn impairments_at(&self, t: f64) -> Impairments {
        let mut imp = Impairments::default();
        for e in &self.effects {
            match e {
                Effect::ProbeLoss {
                    start_s,
                    end_s,
                    probability,
                } if t >= *start_s && t < *end_s => {
                    imp.loss_probability = imp.loss_probability.max(*probability);
                }
                Effect::Partition {
                    start_s,
                    end_s,
                    isolated,
                } if t >= *start_s && t < *end_s => {
                    let mut island = isolated.clone();
                    island.sort_unstable();
                    imp.islands.push(island);
                }
                Effect::Straggler {
                    nodes,
                    delay_factor,
                } => {
                    imp.stragglers
                        .extend(nodes.iter().map(|&i| (i, *delay_factor)));
                }
                _ => {}
            }
        }
        // Factors multiply (the module's composition rule): a node
        // named by several straggler conditions gets one entry with
        // the product, so consumers can apply entries by assignment.
        imp.stragglers.sort_unstable_by_key(|&(i, _)| i);
        imp.stragglers.dedup_by(|later, first| {
            if later.0 == first.0 {
                first.1 *= later.1;
                true
            } else {
                false
            }
        });
        imp
    }

    /// Membership events due over the whole run, sorted by time.
    pub fn membership_events(&self) -> Vec<MembershipEvent> {
        let mut events = Vec::new();
        for e in &self.effects {
            if let Effect::Churn {
                leave_at_s,
                rejoin_at_s,
                leavers,
            } = e
            {
                events.push(MembershipEvent {
                    at_s: *leave_at_s,
                    kind: MembershipEventKind::Leave(leavers.clone()),
                });
                if *rejoin_at_s < self.spec.duration_s {
                    events.push(MembershipEvent {
                        at_s: *rejoin_at_s,
                        kind: MembershipEventKind::Rejoin(leavers.len()),
                    });
                }
            }
        }
        events.sort_by(|a, b| a.at_s.partial_cmp(&b.at_s).expect("finite times"));
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Scenario {
        /// The ground-truth RTT of the ordered pair `(i, j)` at time `t`
        /// (symmetric in `(i, j)`; zero on the diagonal).
        fn rtt_at(&self, i: usize, j: usize, t: f64) -> f64 {
            self.rtt_from_positions(i, j, self.node_pos_at(i, t), self.node_pos_at(j, t), t)
        }
    }

    fn small_rtt(nodes: usize) -> RttDatasetConfig {
        RttDatasetConfig::meridian(nodes)
    }

    fn base_spec(seed: u64) -> ScenarioSpec {
        ScenarioSpec::stationary("test", small_rtt(40), seed, 300.0, 30.0)
    }

    #[test]
    fn stationary_scenario_is_calibrated_and_constant() {
        let s = Scenario::realize(base_spec(1));
        let d0 = s.ground_truth_at(0.0);
        assert!((d0.median() - 56.4).abs() < 1e-6, "median {}", d0.median());
        let d_late = s.ground_truth_at(299.0);
        assert_eq!(d0.values, d_late.values, "no conditions, no change");
        for i in 0..40 {
            assert_eq!(s.rtt_at(i, i, 100.0), 0.0);
            for j in 0..40 {
                assert!((s.rtt_at(i, j, 50.0) - s.rtt_at(j, i, 50.0)).abs() < 1e-12);
                if i != j {
                    assert!(s.rtt_at(i, j, 50.0) > 0.0);
                }
            }
        }
    }

    #[test]
    fn realization_deterministic_per_seed() {
        let spec = base_spec(7).with(Condition::Drift {
            start_s: 60.0,
            end_s: 240.0,
            node_fraction: 0.3,
            max_shift_ms: 30.0,
        });
        let a = Scenario::realize(spec.clone());
        let b = Scenario::realize(spec);
        assert_eq!(
            a.ground_truth_at(150.0).values,
            b.ground_truth_at(150.0).values
        );
        let mut other = base_spec(8).with(Condition::Drift {
            start_s: 60.0,
            end_s: 240.0,
            node_fraction: 0.3,
            max_shift_ms: 30.0,
        });
        other.name = "test".into();
        let c = Scenario::realize(other);
        assert_ne!(
            a.ground_truth_at(150.0).values,
            c.ground_truth_at(150.0).values
        );
    }

    #[test]
    fn drift_moves_only_after_start_and_settles() {
        let spec = base_spec(2).with(Condition::Drift {
            start_s: 100.0,
            end_s: 200.0,
            node_fraction: 0.25,
            max_shift_ms: 25.0,
        });
        let s = Scenario::realize(spec);
        let before = s.ground_truth_at(0.0);
        assert_eq!(
            before.values,
            s.ground_truth_at(99.9).values,
            "nothing moves before the epoch"
        );
        let mid = s.ground_truth_at(150.0);
        let after = s.ground_truth_at(200.0);
        assert_ne!(before.values, mid.values, "drift must change the truth");
        assert_eq!(
            after.values,
            s.ground_truth_at(299.0).values,
            "positions settle at the drift target"
        );
        // Some node moved, and no node teleported beyond the shift box.
        let mut moved = 0;
        for i in 0..s.nodes() {
            let (x0, y0) = s.node_pos_at(i, 0.0);
            let (x1, y1) = s.node_pos_at(i, 250.0);
            let (dx, dy) = ((x1 - x0).abs(), (y1 - y0).abs());
            if dx > 0.0 || dy > 0.0 {
                moved += 1;
            }
            assert!(dx <= 25.0 + 1e-9 && dy <= 25.0 + 1e-9, "node {i} jumped");
        }
        assert_eq!(moved, 10, "25% of 40 nodes drift");
    }

    #[test]
    fn stacked_drifts_accumulate_displacement() {
        // Two sequential full-population drifts: the second epoch must
        // build on where the first one settled, not revert it.
        let spec = base_spec(14)
            .with(Condition::Drift {
                start_s: 20.0,
                end_s: 80.0,
                node_fraction: 1.0,
                max_shift_ms: 15.0,
            })
            .with(Condition::Drift {
                start_s: 120.0,
                end_s: 180.0,
                node_fraction: 1.0,
                max_shift_ms: 15.0,
            });
        let s = Scenario::realize(spec);
        for i in 0..s.nodes() {
            let p0 = s.node_pos_at(i, 0.0);
            let after_first = s.node_pos_at(i, 100.0);
            let d1 = (after_first.0 - p0.0, after_first.1 - p0.1);
            let settled = s.node_pos_at(i, 200.0);
            let d_total = (settled.0 - p0.0, settled.1 - p0.1);
            let d2 = (d_total.0 - d1.0, d_total.1 - d1.1);
            assert!(
                d1.0.abs() > 0.0 || d1.1.abs() > 0.0,
                "node {i} never moved in epoch 1"
            );
            assert!(
                d2.0.abs() > 1e-12 || d2.1.abs() > 1e-12,
                "node {i}'s second epoch must add displacement on top of the first \
                 (total {d_total:?} vs first {d1:?})"
            );
            assert!(d2.0.abs() <= 15.0 + 1e-9 && d2.1.abs() <= 15.0 + 1e-9);
        }
    }

    #[test]
    fn flash_congestion_multiplies_epoch_only() {
        let spec = base_spec(3).with(Condition::FlashCongestion {
            start_s: 120.0,
            end_s: 180.0,
            cluster_pairs: 2,
            factor: 4.0,
        });
        let s = Scenario::realize(spec);
        let congested: Vec<(usize, usize)> = match &s.effects[0] {
            Effect::FlashCongestion { pairs, .. } => pairs.clone(),
            other => panic!("unexpected effect {other:?}"),
        };
        assert_eq!(congested.len(), 2);
        let mut hit = 0;
        for i in 0..s.nodes() {
            for j in (i + 1)..s.nodes() {
                let (ci, cj) = (s.topology.cluster_of[i], s.topology.cluster_of[j]);
                let key = (ci.min(cj), ci.max(cj));
                let quiet = s.rtt_at(i, j, 60.0);
                let busy = s.rtt_at(i, j, 150.0);
                let after = s.rtt_at(i, j, 180.0);
                if congested.contains(&key) {
                    hit += 1;
                    assert!((busy - 4.0 * quiet).abs() < 1e-9, "epoch multiplies RTT");
                } else {
                    assert_eq!(quiet, busy, "uncongested pair changed");
                }
                assert_eq!(quiet, after, "congestion must fully recover");
            }
        }
        assert!(hit > 0, "some node pair sits on a congested cluster pair");
    }

    #[test]
    fn routing_shift_is_a_persistent_step() {
        let spec = base_spec(4).with(Condition::RoutingShift {
            at_s: 150.0,
            pair_fraction: 0.2,
            factor: 2.0,
        });
        let s = Scenario::realize(spec);
        let before = s.ground_truth_at(149.0);
        let after = s.ground_truth_at(150.0);
        let end = s.ground_truth_at(299.9);
        assert_eq!(after.values, end.values, "step persists to the end");
        let mut shifted = 0;
        let mut unshifted = 0;
        for i in 0..s.nodes() {
            for j in (i + 1)..s.nodes() {
                let (b, a) = (before.values[(i, j)], after.values[(i, j)]);
                if (a - 2.0 * b).abs() < 1e-9 {
                    shifted += 1;
                } else {
                    assert_eq!(a, b, "pair neither shifted nor unchanged");
                    unshifted += 1;
                }
            }
        }
        let total = (shifted + unshifted) as f64;
        let frac = shifted as f64 / total;
        assert!(
            (0.1..=0.3).contains(&frac),
            "{shifted}/{total} pairs shifted (expected ≈ 20%)"
        );
    }

    #[test]
    fn impairments_compose_over_epochs() {
        let spec = base_spec(5)
            .with(Condition::ProbeLoss {
                start_s: 50.0,
                end_s: 150.0,
                probability: 0.2,
            })
            .with(Condition::ProbeLoss {
                start_s: 100.0,
                end_s: 200.0,
                probability: 0.4,
            })
            .with(Condition::Partition {
                start_s: 100.0,
                end_s: 160.0,
                node_fraction: 0.25,
            })
            .with(Condition::Straggler {
                node_fraction: 0.1,
                delay_factor: 3.0,
            });
        let s = Scenario::realize(spec);
        let quiet = s.impairments_at(10.0);
        assert_eq!(quiet.loss_probability, 0.0);
        assert!(quiet.islands.is_empty());
        assert_eq!(quiet.stragglers.len(), 4, "stragglers are static");

        let one = s.impairments_at(60.0);
        assert_eq!(one.loss_probability, 0.2);
        let overlap = s.impairments_at(120.0);
        assert_eq!(overlap.loss_probability, 0.4, "overlap takes the max");
        assert_eq!(overlap.islands.len(), 1);
        assert_eq!(overlap.islands[0].len(), 10, "25% of 40 isolated");
        assert!(overlap.islands[0].windows(2).all(|w| w[0] < w[1]));
        let healed = s.impairments_at(250.0);
        assert_eq!(healed.loss_probability, 0.0);
        assert!(healed.islands.is_empty());
    }

    #[test]
    fn concurrent_partitions_stay_mutually_cut() {
        // Two overlapping partition epochs: each island must be cut
        // from everything outside itself, including the other island —
        // not merged into one big island whose members intercommunicate.
        let spec = base_spec(16)
            .with(Condition::Partition {
                start_s: 100.0,
                end_s: 300.0,
                node_fraction: 0.2,
            })
            .with(Condition::Partition {
                start_s: 150.0,
                end_s: 250.0,
                node_fraction: 0.2,
            });
        let s = Scenario::realize(spec);
        let imp = s.impairments_at(200.0);
        assert_eq!(imp.islands.len(), 2);
        let classes = imp.partition_classes(40);
        assert_eq!(classes.len(), 40);
        for (k, island) in imp.islands.iter().enumerate() {
            for &i in island {
                assert_ne!(classes[i] & (1 << k), 0, "island member lost its bit");
            }
        }
        // Nodes in exactly one island carry distinct classes from
        // nodes in exactly the other island and from the mainland.
        let only = |k: usize| {
            imp.islands[k]
                .iter()
                .copied()
                .find(|i| !imp.islands[1 - k].contains(i))
        };
        if let (Some(a), Some(b)) = (only(0), only(1)) {
            assert_ne!(classes[a], classes[b], "two islands must be mutually cut");
            assert_ne!(classes[a], 0, "island cut from the mainland");
        }
        // One epoch over: a single island remains.
        let late = s.impairments_at(280.0);
        assert_eq!(late.islands.len(), 1);
        assert!(s.impairments_at(320.0).islands.is_empty());
        assert!(s.impairments_at(320.0).partition_classes(40).is_empty());
    }

    #[test]
    fn overlapping_straggler_factors_multiply() {
        let spec = base_spec(12)
            .with(Condition::Straggler {
                node_fraction: 1.0,
                delay_factor: 2.0,
            })
            .with(Condition::Straggler {
                node_fraction: 1.0,
                delay_factor: 3.0,
            });
        let s = Scenario::realize(spec);
        let imp = s.impairments_at(0.0);
        assert_eq!(imp.stragglers.len(), 40, "one entry per node");
        assert!(
            imp.stragglers.iter().all(|&(_, f)| f == 6.0),
            "factors compose multiplicatively: {:?}",
            &imp.stragglers[..3]
        );
    }

    #[test]
    fn membership_events_sorted_and_sized() {
        let spec = base_spec(6).with(Condition::Churn {
            leave_at_s: 90.0,
            rejoin_at_s: 210.0,
            node_fraction: 0.1,
        });
        let s = Scenario::realize(spec);
        let events = s.membership_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].at_s, 90.0);
        match &events[0].kind {
            MembershipEventKind::Leave(ids) => {
                assert_eq!(ids.len(), 4);
                assert!(ids.iter().all(|&i| i < 40));
            }
            other => panic!("expected leave, got {other:?}"),
        }
        assert_eq!(events[1].at_s, 210.0);
        assert_eq!(events[1].kind, MembershipEventKind::Rejoin(4));
    }

    #[test]
    fn transition_times_sorted_within_run() {
        let spec = base_spec(7)
            .with(Condition::FlashCongestion {
                start_s: 120.0,
                end_s: 180.0,
                cluster_pairs: 1,
                factor: 3.0,
            })
            .with(Condition::RoutingShift {
                at_s: 60.0,
                pair_fraction: 0.1,
                factor: 1.5,
            })
            .with(Condition::Churn {
                leave_at_s: 120.0,
                rejoin_at_s: 400.0, // beyond the run: no rejoin event
                node_fraction: 0.1,
            });
        let s = Scenario::realize(spec);
        assert_eq!(s.transition_times(), vec![60.0, 120.0, 180.0]);
        assert_eq!(s.membership_events().len(), 1, "rejoin beyond the run");
    }

    #[test]
    fn truth_changes_only_where_conditions_move_it() {
        let spec = base_spec(13)
            .with(Condition::Drift {
                start_s: 100.0,
                end_s: 200.0,
                node_fraction: 0.2,
                max_shift_ms: 20.0,
            })
            .with(Condition::RoutingShift {
                at_s: 250.0,
                pair_fraction: 0.1,
                factor: 1.5,
            })
            .with(Condition::Partition {
                start_s: 40.0,
                end_s: 80.0,
                node_fraction: 0.3,
            });
        let s = Scenario::realize(spec);
        // Partitions never move the truth.
        assert!(!s.truth_changes_between(40.0, 80.0));
        assert!(!s.truth_changes_between(0.0, 100.0), "before the drift");
        assert!(s.truth_changes_between(100.0, 130.0), "drift in progress");
        assert!(s.truth_changes_between(190.0, 210.0), "drift tail");
        assert!(!s.truth_changes_between(200.0, 249.0), "settled gap");
        assert!(s.truth_changes_between(240.0, 250.0), "routing step");
        assert!(!s.truth_changes_between(250.0, 299.0), "after the step");
        // The claim it backs: equal truths across a quiet interval.
        assert_eq!(
            s.ground_truth_at(200.0).values,
            s.ground_truth_at(249.0).values
        );
    }

    #[test]
    fn windows_tile_the_duration() {
        let mut spec = base_spec(8);
        spec.duration_s = 100.0;
        spec.window_s = 30.0;
        let s = Scenario::realize(spec);
        assert_eq!(s.window_count(), 4);
        assert_eq!(s.window_bounds(0), (0.0, 30.0));
        assert_eq!(s.window_bounds(3), (90.0, 100.0), "last window clamps");

        // Float-division residue must not fabricate an empty phantom
        // window: 5.7 / 1.9 is 3.0000000000000004 in f64.
        let mut odd = base_spec(9);
        odd.duration_s = 5.7;
        odd.window_s = 1.9;
        let s = Scenario::realize(odd);
        assert_eq!(s.window_count(), 3);
        let (start, end) = s.window_bounds(2);
        assert!(end > start, "last window must be non-empty");
        assert!((end - 5.7).abs() < 1e-9, "last window ends at the duration");
    }

    #[test]
    fn spec_json_roundtrip() {
        let spec = base_spec(9)
            .with(Condition::Partition {
                start_s: 10.0,
                end_s: 20.0,
                node_fraction: 0.5,
            })
            .with(Condition::Straggler {
                node_fraction: 0.2,
                delay_factor: 2.5,
            });
        let json = serde_json::to_string(&spec).expect("serialize");
        let back: ScenarioSpec = serde_json::from_str(&json).expect("parse");
        assert_eq!(back.name, spec.name);
        assert_eq!(back.conditions.len(), 2);
        let a = Scenario::realize(spec);
        let b = Scenario::realize(back);
        assert_eq!(
            a.ground_truth_at(15.0).values,
            b.ground_truth_at(15.0).values,
            "a spec surviving serde realizes identically"
        );
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_epoch_rejected() {
        Scenario::realize(base_spec(10).with(Condition::ProbeLoss {
            start_s: 50.0,
            end_s: 50.0,
            probability: 0.1,
        }));
    }

    #[test]
    #[should_panic(expected = "strict subset")]
    fn full_population_partition_rejected() {
        Scenario::realize(base_spec(15).with(Condition::Partition {
            start_s: 10.0,
            end_s: 20.0,
            node_fraction: 1.0,
        }));
    }

    #[test]
    #[should_panic(expected = "strict subset")]
    fn full_population_churn_rejected() {
        Scenario::realize(base_spec(17).with(Condition::Churn {
            leave_at_s: 10.0,
            rejoin_at_s: 20.0,
            node_fraction: 1.0,
        }));
    }

    #[test]
    #[should_panic(expected = "out of [0, 1]")]
    fn fraction_out_of_range_rejected() {
        Scenario::realize(base_spec(11).with(Condition::Partition {
            start_s: 10.0,
            end_s: 20.0,
            node_fraction: 1.5,
        }));
    }
}
