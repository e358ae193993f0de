//! Figure 7 — peer selection: optimality (stretch) vs satisfaction
//! (unsatisfied-node percentage).
//!
//! Each node gets a peer set (size 10–60) disjoint from its training
//! neighbors and picks one peer by: Random / Classification (largest
//! `x̂`) / Regression (best predicted quantity) / Classification
//! trained on 15 % noisy labels (10 % flip-near-τ + 5 % good→bad).
//!
//! Expected shape: both predictors beat Random on both criteria;
//! Regression wins on stretch (it optimizes magnitude); Classification
//! achieves comparable satisfaction (≈10 % unsatisfied) and noise
//! costs it only a few points.

use crate::experiments::scale::Scale;
use crate::experiments::training::{
    default_config, predicted_quantities, train_quantity, train_quantity_trace, BundleTrainer,
};
use crate::experiments::trio::Trio;
use crate::experiments::Artifact;
use dmf_eval::peersel::{evaluate_peer_selection, SelectionStrategy};
use dmf_simnet::errors::{
    calibrate_delta, calibrate_good_to_bad_fraction, inject, BandErrorKind, ErrorModel,
};
use dmf_simnet::NeighborSets;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Peer-set sizes swept (paper: 10..60).
const PEER_COUNTS: [usize; 6] = [10, 20, 30, 40, 50, 60];

/// The four selection methods, in legend order.
const METHODS: [&str; 4] = [
    "Random",
    "Classification",
    "Regression",
    "Classification with noise",
];

/// One (dataset, method, peer-count) outcome.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) struct Fig7Cell {
    /// Dataset name.
    pub dataset: String,
    /// Method: "Random", "Classification", "Regression",
    /// "Classification with noise".
    pub method: String,
    /// Peer-set size.
    pub peers: usize,
    /// Average stretch.
    pub stretch: f64,
    /// Unsatisfied-node fraction.
    pub unsatisfied: f64,
}

/// The full figure.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) struct Fig7 {
    /// All cells.
    pub cells: Vec<Fig7Cell>,
}

/// Runs the experiment.
pub(crate) fn run(scale: &Scale, seed: u64) -> Fig7 {
    let trio = Trio::build(scale, seed);
    let trainer = BundleTrainer { trio: &trio, scale };
    let mut cells = Vec::new();

    for bundle in trio.bundles() {
        let n = bundle.dataset.len();
        let tau = bundle.dataset.median();
        let clean = bundle.dataset.classify(tau);
        let ticks = scale.ticks(n, bundle.k);

        // Classification on clean labels.
        let class_system = trainer.train(
            bundle,
            &clean,
            default_config(bundle.k, seed ^ 0x0f17),
            &[],
            0,
        );
        let class_scores = class_system.predicted_scores();

        // Classification on noisy labels: 10% flip-near-τ + 5% good→bad.
        let delta = calibrate_delta(&bundle.dataset, tau, 0.10, BandErrorKind::FlipNearTau);
        let error_models = [
            ErrorModel::FlipNearTau { delta },
            ErrorModel::GoodToBad {
                fraction_of_good: calibrate_good_to_bad_fraction(&clean, 0.05),
            },
        ];
        let noisy_system = if bundle.name == "Harvard" {
            // Errors happen at measurement time during trace replay.
            trainer.train(
                bundle,
                &clean,
                default_config(bundle.k, seed ^ 0x0f18),
                &error_models,
                seed ^ 0xbad,
            )
        } else {
            let mut noisy = clean.clone();
            let mut err_rng = ChaCha8Rng::seed_from_u64(seed ^ 0xbad);
            for model in error_models {
                inject(&mut noisy, &bundle.dataset, model, &mut err_rng);
            }
            trainer.train(
                bundle,
                &noisy,
                default_config(bundle.k, seed ^ 0x0f18),
                &[],
                0,
            )
        };
        let noisy_scores = noisy_system.predicted_scores();

        // Regression (quantity-based, L2): trace replay for Harvard,
        // random order otherwise.
        let quantity_system = if bundle.name == "Harvard" {
            train_quantity_trace(&trio.harvard_trace, tau, bundle.k, seed ^ 0x0f19)
        } else {
            train_quantity(&bundle.dataset, bundle.k, seed ^ 0x0f19, ticks)
        };
        let quantities = predicted_quantities(&quantity_system);

        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9ee5);
        let neighbors = NeighborSets::random(n, bundle.k, &mut rng);
        for &m in &PEER_COUNTS {
            if m + bundle.k + 1 > n {
                continue; // quick-scale instances can't fit this peer count
            }
            let peer_sets = neighbors.disjoint_peer_sets(m, &mut rng);
            let strategies = [
                SelectionStrategy::Random,
                SelectionStrategy::HighestScore(&class_scores),
                SelectionStrategy::BestPredictedQuantity(&quantities, bundle.dataset.metric),
                SelectionStrategy::HighestScore(&noisy_scores),
            ];
            for (method, strategy) in METHODS.into_iter().zip(strategies) {
                let out =
                    evaluate_peer_selection(&bundle.dataset, tau, &peer_sets, strategy, &mut rng);
                cells.push(Fig7Cell {
                    dataset: bundle.name.into(),
                    method: method.into(),
                    peers: m,
                    stretch: out.avg_stretch,
                    unsatisfied: out.unsatisfied_fraction,
                });
            }
        }
    }
    Fig7 { cells }
}

impl Fig7 {
    /// Mean of a column over peer counts.
    fn mean_over_peers(&self, dataset: &str, method: &str, f: impl Fn(&Fig7Cell) -> f64) -> f64 {
        let vals: Vec<f64> = self
            .cells
            .iter()
            .filter(|c| c.dataset == dataset && c.method == method)
            .map(f)
            .collect();
        dmf_linalg::stats::mean(&vals)
    }
}

impl Artifact for Fig7 {
    fn print_table(&self) {
        for (title, stretch) in [("stretch", true), ("unsatisfied-node fraction", false)] {
            println!("Figure 7 — {title} vs peer-set size");
            for dataset in ["Harvard", "Meridian", "HP-S3"] {
                println!("  {dataset}:");
                for method in METHODS {
                    let mut series: Vec<(usize, f64)> = self
                        .cells
                        .iter()
                        .filter(|c| c.dataset == dataset && c.method == method)
                        .map(|c| (c.peers, if stretch { c.stretch } else { c.unsatisfied }))
                        .collect();
                    series.sort_by_key(|&(p, _)| p);
                    let cells: Vec<String> =
                        series.iter().map(|(p, v)| format!("{p}:{v:.3}")).collect();
                    println!("    {:<26} {}", method, cells.join("  "));
                }
            }
            println!();
        }
    }

    /// Both predictors beat Random on stretch and satisfaction, and
    /// classification stays satisfactory with noisy labels.
    fn claim(&self) -> bool {
        ["Harvard", "Meridian", "HP-S3"].iter().all(|d| {
            let stretch_gap = |m: &str, better_than: &str| {
                let a = self.mean_over_peers(d, m, |c| c.stretch);
                let b = self.mean_over_peers(d, better_than, |c| c.stretch);
                // "Closer to 1 is better": compare distances from 1.
                (a - 1.0).abs() <= (b - 1.0).abs() + 0.02
            };
            let sat = |m: &str| self.mean_over_peers(d, m, |c| c.unsatisfied);
            // Both predictors beat random on both criteria.
            stretch_gap("Classification", "Random")
                && stretch_gap("Regression", "Random")
                && sat("Classification") < sat("Random")
                && sat("Regression") < sat("Random")
                // Classification stays satisfactory even with noise.
                && sat("Classification with noise") < sat("Random")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_quick_scale() {
        let fig = run(&Scale::quick(), 61);
        assert!(!fig.cells.is_empty());
        assert!(fig.claim(), "figure 7 ordering violated");
        // Stretch orientation: ≥1 for RTT datasets, ≤1 for ABW.
        for c in &fig.cells {
            if c.dataset == "HP-S3" {
                assert!(c.stretch <= 1.0 + 1e-9, "{c:?}");
            } else {
                assert!(c.stretch >= 1.0 - 1e-9, "{c:?}");
            }
        }
    }
}
