//! Tracked prediction-quality suite over non-stationary scenarios
//! (`scenario_suite` binary).
//!
//! The repo benchmark (`benchmark/`) tracks how *fast* the hot paths
//! run; this module tracks whether prediction quality *holds* when
//! the network refuses to stand still. A [`registry`] of
//! named [`ScenarioSpec`]s — stationary baseline, drift, flash
//! congestion, routing changes, partition + loss, churn under drift —
//! is executed end-to-end on the simulated network: the harness cuts
//! the timeline at every condition transition and window boundary,
//! swaps the network's delay function, injects impairments, drives
//! membership through `Session::join`/`leave`, and scores the session
//! per window with [`dmf_eval::window`]. The result is a schema-stable
//! [`QualityReport`] (`QUALITY.json`) with per-scenario, per-window
//! AUC/accuracy and a pinned AUC floor per scenario — the quality
//! counterpart of the speed numbers `benchmark/` produces.
//!
//! Quality floors are CI-safe where wall-clock thresholds are not:
//! every run is byte-deterministic given the spec seeds, so a broken
//! floor is a real regression, never scheduler noise.

use crate::experiments::scale::Scale;
use crate::experiments::training::default_config;
use crate::experiments::Artifact;
use crate::report;
use dmf_core::runner::SimnetDriver;
use dmf_core::{Session, SessionBuilder};
use dmf_datasets::rtt::RttDatasetConfig;
use dmf_datasets::scenario::{MembershipEventKind, Scenario};
use dmf_datasets::{ClassMatrix, Condition, ScenarioSpec};
use dmf_eval::window::window_stats;
use dmf_eval::ScoredLabel;
use dmf_linalg::Matrix;
use dmf_proto::WireVersion;
use dmf_simnet::{NetConfig, SimNet};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Bump when the `QUALITY.json` layout changes incompatibly (the CI
/// gate and comparison scripts key on this).
pub const QUALITY_SCHEMA_VERSION: u32 = 1;

/// Neighbor count every scenario population runs with.
const SCENARIO_K: usize = 10;

/// Probe timer period (seconds) for every scenario.
const PROBE_INTERVAL_S: f64 = 0.5;

/// Timeline cut tolerance: transitions closer than this collapse.
const CUT_EPS: f64 = 1e-9;

/// Quality of one evaluation window of one scenario.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WindowQuality {
    /// Window index (0-based).
    pub index: usize,
    /// Window start in simulated seconds.
    pub t_start_s: f64,
    /// Window end in simulated seconds.
    pub t_end_s: f64,
    /// AUC over alive pairs against the ground truth the network ran
    /// on at the window's close (the truth of the window's last
    /// segment — ground truth is piecewise-constant at segment
    /// granularity, so this is `ground_truth_at(<last segment
    /// start>)`, the same matrix the probes measured).
    pub auc: f64,
    /// Sign accuracy over the same pairs.
    pub accuracy: f64,
    /// Measurements completed during the window.
    pub measurements: usize,
    /// Alive nodes at the window's close.
    pub alive: usize,
}

/// One scenario's full quality record.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScenarioQuality {
    /// Registry name.
    pub name: String,
    /// Seed the scenario realized from.
    pub seed: u64,
    /// Population size.
    pub nodes: usize,
    /// The pinned floor the final window's AUC must clear.
    pub auc_floor: f64,
    /// AUC of the last window (the gated number).
    pub final_auc: f64,
    /// Worst window AUC (how deep the scenario bit).
    pub min_auc: f64,
    /// First window whose AUC cleared the floor (`null` when none
    /// did) — the convergence measure.
    pub windows_to_floor: Option<usize>,
    /// `final_auc >= auc_floor`.
    pub pass: bool,
    /// Per-window series.
    pub windows: Vec<WindowQuality>,
}

/// The full suite result, as persisted to `QUALITY.json`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct QualityReport {
    /// JSON layout version ([`QUALITY_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Scale preset name ("quick" / "standard" / "paper").
    pub scale: String,
    /// Free-form label (`--label`; e.g. "tracked", a commit id).
    pub label: String,
    /// All scenarios, in registry order.
    pub scenarios: Vec<ScenarioQuality>,
    /// True when every scenario cleared its floor.
    pub all_pass: bool,
}

impl QualityReport {
    /// Looks up a scenario by name.
    pub fn scenario(&self, name: &str) -> Option<&ScenarioQuality> {
        self.scenarios.iter().find(|s| s.name == name)
    }
}

impl Artifact for QualityReport {
    fn print_table(&self) {
        let widths = [20, 8, 9, 9, 9, 7, 6];
        let header = [
            "scenario", "windows", "min AUC", "final", "floor", "conv@", "gate",
        ];
        println!("{}", report::row(&header.map(String::from), &widths));
        for s in &self.scenarios {
            let cells = [
                s.name.clone(),
                s.windows.len().to_string(),
                format!("{:.3}", s.min_auc),
                format!("{:.3}", s.final_auc),
                format!("{:.2}", s.auc_floor),
                s.windows_to_floor
                    .map_or_else(|| "-".into(), |w| format!("w{w}")),
                if s.pass { "pass" } else { "FAIL" }.into(),
            ];
            println!("{}", report::row(&cells, &widths));
        }
    }

    /// Every scenario's final-window AUC clears its pinned floor.
    fn claim(&self) -> bool {
        self.all_pass
    }
}

/// One registry entry: a spec plus its pinned AUC floor.
#[derive(Clone, Debug)]
pub struct ScenarioCase {
    /// The declarative scenario.
    pub spec: ScenarioSpec,
    /// Floor the final window's AUC must clear in CI.
    pub auc_floor: f64,
    /// When set, the scenario runs in driver wire mode: every
    /// protocol leg travels as encoded `dmf-proto` datagrams of this
    /// version (the loss-hardening scenarios gate the v2 delta
    /// protocol this way). `None` uses the native enum transport.
    pub wire: Option<WireVersion>,
}

/// The tracked scenario registry. Every entry runs 600 simulated
/// seconds in 30-second evaluation windows over a Meridian-like
/// substrate whose population follows the scale preset; condition
/// timings are aligned so each scenario converges, gets hit, and has
/// room to recover before the gated final window.
///
/// To add a scenario: append a case here (compose any [`Condition`]s),
/// pick a floor from a few local runs, and extend the expected-name
/// list in the CI gate — nothing else is needed; the suite, the JSON
/// schema and `run_all` pick it up automatically.
pub fn registry(scale: &Scale) -> Vec<ScenarioCase> {
    let nodes = scale.harvard_nodes;
    let substrate = || RttDatasetConfig::meridian(nodes);
    let spec =
        |name: &str, seed: u64| ScenarioSpec::stationary(name, substrate(), seed, 600.0, 30.0);
    vec![
        ScenarioCase {
            // Control: the paper's stationary regime, windowed.
            spec: spec("baseline-stationary", 101),
            auc_floor: 0.85,
            wire: None,
        },
        ScenarioCase {
            // Continuous re-embedding: 40% of nodes migrate across the
            // delay plane over five minutes.
            spec: spec("drift", 102).with(Condition::Drift {
                start_s: 150.0,
                end_s: 450.0,
                node_fraction: 0.4,
                max_shift_ms: 35.0,
            }),
            auc_floor: 0.82,
            wire: None,
        },
        ScenarioCase {
            // A two-minute congestion storm quadruples RTTs between
            // five cluster pairs, then fully recovers.
            spec: spec("flash-congestion", 103).with(Condition::FlashCongestion {
                start_s: 240.0,
                end_s: 360.0,
                cluster_pairs: 5,
                factor: 4.0,
            }),
            auc_floor: 0.82,
            wire: None,
        },
        ScenarioCase {
            // A routing step permanently detours 20% of pairs at the
            // half-way mark; the back half must re-learn them.
            spec: spec("routing-change", 104).with(Condition::RoutingShift {
                at_s: 300.0,
                pair_fraction: 0.2,
                factor: 2.2,
            }),
            auc_floor: 0.80,
            wire: None,
        },
        ScenarioCase {
            // The hard one: a third of the population is partitioned
            // off behind a lossy control plane while the topology
            // re-embeds underneath — the isolated island keeps serving
            // stale coordinates and can only catch up after the heal.
            spec: spec("partition-loss", 105)
                .with(Condition::Partition {
                    start_s: 180.0,
                    end_s: 450.0,
                    node_fraction: 0.35,
                })
                .with(Condition::ProbeLoss {
                    start_s: 180.0,
                    end_s: 450.0,
                    probability: 0.5,
                })
                .with(Condition::Drift {
                    start_s: 180.0,
                    end_s: 420.0,
                    node_fraction: 0.5,
                    max_shift_ms: 50.0,
                }),
            auc_floor: 0.80,
            wire: None,
        },
        ScenarioCase {
            // Membership churn while the topology drifts and 10% of
            // hosts straggle: rejoined nodes bootstrap cold
            // coordinates against a moving target.
            spec: spec("churn-under-drift", 106)
                .with(Condition::Churn {
                    leave_at_s: 180.0,
                    rejoin_at_s: 330.0,
                    node_fraction: 0.12,
                })
                .with(Condition::Drift {
                    start_s: 150.0,
                    end_s: 450.0,
                    node_fraction: 0.3,
                    max_shift_ms: 30.0,
                })
                .with(Condition::Straggler {
                    node_fraction: 0.1,
                    delay_factor: 3.0,
                }),
            auc_floor: 0.75,
            wire: None,
        },
        ScenarioCase {
            // Protocol-level robustness gate: a four-minute 50%
            // probe-loss epoch with every message traveling as real
            // v2 delta-protocol bytes. Class prediction must hold at
            // parity with the native-transport scenarios — loss
            // degrades to gaps, keyframes and extra bytes, never to
            // wrong coordinates.
            spec: spec("loss-wire-v2", 107).with(Condition::ProbeLoss {
                start_s: 180.0,
                end_s: 420.0,
                probability: 0.5,
            }),
            auc_floor: 0.80,
            wire: Some(WireVersion::V2),
        },
    ]
}

/// Scored labels over pairs whose both endpoints are alive (departed
/// slots hold stale coordinates that no caller would query).
fn alive_scores(session: &Session, classes: &ClassMatrix, scores: &Matrix) -> Vec<ScoredLabel> {
    classes
        .mask
        .iter_known()
        .filter(|&(i, j)| session.is_alive(i) && session.is_alive(j))
        .map(|(i, j)| ScoredLabel {
            positive: classes.labels[(i, j)] > 0.0,
            score: scores[(i, j)],
        })
        .collect()
}

/// Runs one scenario end-to-end and scores it per window.
pub fn run_case(case: &ScenarioCase) -> ScenarioQuality {
    let scenario = Arc::new(Scenario::realize(case.spec.clone()));
    let n = scenario.nodes();
    let gt0 = scenario.ground_truth_at(0.0);
    // τ is pinned to the *stationary* median: conditions later move
    // the truth across this fixed operating point, which is exactly
    // what makes them hard.
    let tau = gt0.median();
    let mut session = SessionBuilder::from_config(default_config(SCENARIO_K, case.spec.seed))
        .nodes(n)
        .tau(tau)
        .build()
        .expect("scenario population is valid");
    // The net asks the scenario for each leg's delay: it holds no
    // per-pair state, and the truth as a matrix is for scoring only.
    let net = SimNet::from_delay_fn(
        n,
        NetConfig {
            seed: case.spec.seed,
            ..NetConfig::default()
        },
        scenario.one_way_delay_fn(0.0),
    );
    let mut driver = SimnetDriver::from_net(&session, net)
        .expect("scenario substrate matches the session")
        .with_probe_interval(PROBE_INTERVAL_S)
        .expect("positive probe interval");
    assert_eq!(driver.net().table_bytes(), 0, "no per-pair delay state");
    if let Some(version) = case.wire {
        driver = driver.with_wire_version(version);
    }

    // Stragglers are a static property of the run.
    for (node, factor) in scenario.impairments_at(0.0).stragglers {
        driver
            .set_delay_factor(node, factor)
            .expect("realized straggler ids are in range");
    }

    // Cut the timeline at every window end and condition transition,
    // so piecewise-constant approximations (delay functions, loss
    // levels) never straddle a change.
    let mut cuts: Vec<f64> = (0..scenario.window_count())
        .map(|w| scenario.window_bounds(w).1)
        .collect();
    cuts.extend(scenario.transition_times());
    cuts.sort_by(|a, b| a.partial_cmp(b).expect("finite cut times"));
    cuts.dedup_by(|a, b| (*a - *b).abs() < CUT_EPS);

    let mut events = scenario.membership_events().into_iter().peekable();
    let mut current_gt = gt0;
    let mut windows: Vec<WindowQuality> = Vec::with_capacity(scenario.window_count());
    let mut scores = Matrix::zeros(0, 0);
    let mut window_start_meas = 0usize;
    let mut window_index = 0usize;
    let mut t0 = 0.0;
    let mut last_refresh_t = 0.0;
    for &t1 in &cuts {
        // Segment [t0, t1): membership, impairments and ground truth
        // as of t0 hold for the whole segment (the cuts guarantee it).
        while let Some(e) = events.peek() {
            if e.at_s > t0 + CUT_EPS {
                break;
            }
            match &e.kind {
                MembershipEventKind::Leave(ids) => {
                    for &id in ids {
                        session.leave(id).expect("churn leaves a viable population");
                    }
                }
                MembershipEventKind::Rejoin(count) => {
                    for _ in 0..*count {
                        session.join().expect("rejoin into freed slots");
                    }
                }
            }
            events.next();
        }
        let imp = scenario.impairments_at(t0);
        driver
            .set_loss_probability(imp.loss_probability)
            .expect("realized probability is in range");
        driver
            .set_partition_classes(&imp.partition_classes(n))
            .expect("realized island ids are in range");
        // The driver was constructed on the t = 0 truth; re-embed only
        // across segments where some condition actually moved it.
        if t0 > 0.0 && scenario.truth_changes_between(last_refresh_t, t0) {
            driver.set_delay_fn(scenario.one_way_delay_fn(t0));
            assert_eq!(driver.net().table_bytes(), 0, "no per-pair delay state");
            current_gt = scenario.ground_truth_at(t0);
            last_refresh_t = t0;
        }

        driver
            .run_until(&mut session, t1)
            .expect("population size never changes mid-run");

        let (w_start, w_end) = scenario.window_bounds(window_index);
        if (t1 - w_end).abs() < CUT_EPS {
            let classes = current_gt.classify(tau);
            session.predicted_scores_into(&mut scores);
            let samples = alive_scores(&session, &classes, &scores);
            let stats = window_stats(&samples).unwrap_or_else(|| {
                panic!(
                    "scenario '{}' window [{w_start}, {w_end}) is single-class at \
                     τ = {tau:.3}: every alive pair classifies the same, so AUC is \
                     undefined — weaken the condition factors or re-center τ so both \
                     classes survive every window",
                    case.spec.name
                )
            });
            let completed = driver.stats().measurements_completed;
            windows.push(WindowQuality {
                index: window_index,
                t_start_s: w_start,
                t_end_s: w_end,
                auc: stats.auc,
                accuracy: stats.accuracy,
                measurements: completed - window_start_meas,
                alive: session.num_alive(),
            });
            window_start_meas = completed;
            window_index += 1;
        }
        t0 = t1;
    }
    debug_assert_eq!(windows.len(), scenario.window_count());

    let final_auc = windows.last().expect("at least one window").auc;
    let min_auc = windows.iter().map(|w| w.auc).fold(f64::INFINITY, f64::min);
    let windows_to_floor = windows
        .iter()
        .find(|w| w.auc >= case.auc_floor)
        .map(|w| w.index);
    ScenarioQuality {
        name: case.spec.name.clone(),
        seed: case.spec.seed,
        nodes: n,
        auc_floor: case.auc_floor,
        final_auc,
        min_auc,
        windows_to_floor,
        pass: final_auc >= case.auc_floor,
        windows,
    }
}

/// Runs the whole registry at `scale`.
pub fn run(scale: &Scale, label: &str) -> QualityReport {
    let scenarios: Vec<ScenarioQuality> = registry(scale).iter().map(run_case).collect();
    let all_pass = scenarios.iter().all(|s| s.pass);
    QualityReport {
        schema_version: QUALITY_SCHEMA_VERSION,
        scale: scale.name().to_string(),
        label: label.to_string(),
        scenarios,
        all_pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_the_tracked_seven() {
        let names: Vec<String> = registry(&Scale::quick())
            .into_iter()
            .map(|c| c.spec.name)
            .collect();
        assert_eq!(
            names,
            [
                "baseline-stationary",
                "drift",
                "flash-congestion",
                "routing-change",
                "partition-loss",
                "churn-under-drift",
                "loss-wire-v2",
            ]
        );
    }

    /// What the net measures is what windows are scored against: for
    /// every tracked spec, at t = 0 and at every transition, the delay
    /// function gives each ordered pair the `f32` one-way delay a table
    /// read from the ground truth would hold, to the bit.
    #[test]
    fn delay_fn_equals_ground_truth_table_bit_for_bit() {
        for case in registry(&Scale::quick()) {
            let scenario = Arc::new(Scenario::realize(case.spec.clone()));
            let n = scenario.nodes();
            let instants = std::iter::once(0.0).chain(scenario.transition_times());
            for t in instants {
                let delay_s = scenario.one_way_delay_fn(t);
                let truth = scenario.ground_truth_at(t);
                for i in 0..n {
                    for j in (0..n).filter(|&j| j != i) {
                        let table = (truth.values[(i, j)] / 2.0 / 1000.0) as f32;
                        assert_eq!(
                            (delay_s(i, j) as f32).to_bits(),
                            table.to_bits(),
                            "{} at t = {t}: pair ({i}, {j})",
                            case.spec.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn loss_wire_v2_scenario_clears_its_floor() {
        let cases = registry(&Scale::quick());
        let case = cases
            .iter()
            .find(|c| c.spec.name == "loss-wire-v2")
            .expect("registry has the wire scenario");
        assert_eq!(case.wire, Some(WireVersion::V2));
        let q = run_case(case);
        assert_eq!(q.windows.len(), 20);
        assert!(
            q.pass,
            "v2 wire protocol under 50% probe loss must hold the floor: \
             final AUC {} < {}",
            q.final_auc, q.auc_floor
        );
        // The loss epoch [180, 420) must actually bite throughput.
        let in_epoch: usize = q
            .windows
            .iter()
            .filter(|w| w.t_start_s >= 180.0 && w.t_end_s <= 420.0)
            .map(|w| w.measurements)
            .sum::<usize>();
        let clear: usize = q
            .windows
            .iter()
            .filter(|w| w.t_end_s <= 180.0)
            .map(|w| w.measurements)
            .sum::<usize>();
        assert!(
            in_epoch < clear * 2,
            "50% loss over twice the clear span must not double throughput"
        );
    }

    #[test]
    fn baseline_scenario_converges_and_reports_all_windows() {
        let case = &registry(&Scale::quick())[0];
        let q = run_case(case);
        assert_eq!(q.windows.len(), 20);
        assert_eq!(q.nodes, Scale::quick().harvard_nodes);
        assert!(q.pass, "stationary baseline must clear its floor");
        assert!(q.final_auc > q.windows[0].auc, "training must help");
        assert_eq!(
            q.windows_to_floor.map(|w| w < 8),
            Some(true),
            "baseline converges within the first 8 windows"
        );
        for (i, w) in q.windows.iter().enumerate() {
            assert_eq!(w.index, i);
            assert!(w.t_end_s > w.t_start_s);
            assert!((0.0..=1.0).contains(&w.auc));
            assert!((0.0..=1.0).contains(&w.accuracy));
            assert!(w.measurements > 0, "window {i} completed no measurements");
            assert_eq!(w.alive, q.nodes);
        }
    }

    #[test]
    fn churn_scenario_tracks_membership_in_windows() {
        let cases = registry(&Scale::quick());
        let case = cases.iter().find(|c| c.spec.name == "churn-under-drift");
        let q = run_case(case.expect("registry has the churn scenario"));
        let n = q.nodes;
        let during: Vec<usize> = q
            .windows
            .iter()
            .filter(|w| w.t_start_s >= 180.0 && w.t_end_s <= 330.0)
            .map(|w| w.alive)
            .collect();
        assert!(!during.is_empty());
        assert!(
            during.iter().all(|&alive| alive < n),
            "alive count must drop during the churn epoch: {during:?}"
        );
        assert!(
            q.windows.last().map(|w| w.alive) == Some(n),
            "population recovers after rejoin"
        );
    }
}
