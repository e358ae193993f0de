//! Figure 6 — robustness against erroneous class labels.
//!
//! Error levels {0, 5, 10, 15} % of all labels, injected before
//! training: Types 1 & 4 for Harvard and Meridian; Types 1–4 for
//! HP-S3. Expected shape: band errors near τ (Types 1–2) barely dent
//! the AUC; random flips and good→bad flips (Types 3–4) hurt much
//! more.

use crate::experiments::scale::Scale;
use crate::experiments::training::{auc_of, default_config, train_class, train_trace_class};
use crate::experiments::trio::Trio;
use crate::experiments::Artifact;
use crate::report;
use dmf_simnet::errors::{
    calibrate_delta, calibrate_good_to_bad_fraction, inject, BandErrorKind, ErrorModel,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Error levels swept (fractions of all labels).
pub const LEVELS: [f64; 4] = [0.0, 0.05, 0.10, 0.15];

/// One AUC measurement under injected errors.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) struct Fig6Cell {
    /// Dataset name.
    pub dataset: String,
    /// Error type (1–4).
    pub error_type: u8,
    /// Target fraction of erroneous labels.
    pub level: f64,
    /// Fraction actually injected.
    pub achieved_level: f64,
    /// AUC against the *clean* labels.
    pub auc: f64,
}

/// The full figure.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) struct Fig6 {
    /// All cells.
    pub cells: Vec<Fig6Cell>,
}

/// Runs the experiment. Every (dataset, error type, level) cell trains
/// independently, so the grid fans out across cores via
/// [`crate::parallel::parallel_map`] with order-stable results.
pub(crate) fn run(scale: &Scale, seed: u64) -> Fig6 {
    let trio = Trio::build(scale, seed);
    // Per-bundle invariants computed once, shared read-only by cells.
    let prep: Vec<(f64, dmf_datasets::ClassMatrix, usize)> = trio
        .bundles()
        .iter()
        .map(|b| {
            let tau = b.dataset.median();
            let clean = b.dataset.classify(tau);
            (tau, clean, scale.ticks(b.dataset.len(), b.k))
        })
        .collect();
    let mut grid = Vec::new();
    for (b, bundle) in trio.bundles().into_iter().enumerate() {
        let types: &[u8] = if bundle.name == "HP-S3" {
            &[1, 2, 3, 4]
        } else {
            &[1, 4]
        };
        for &ty in types {
            for &level in &LEVELS {
                grid.push((b, ty, level));
            }
        }
    }
    let cells = crate::parallel::parallel_map(grid, |(b, ty, level)| {
        let bundle = trio.bundles()[b];
        let (tau, clean, ticks) = &prep[b];
        run_cell(&trio, bundle, clean, *tau, *ticks, ty, level, seed)
    });
    Fig6 { cells }
}

#[allow(clippy::too_many_arguments)]
fn run_cell(
    trio: &Trio,
    bundle: &crate::experiments::trio::DatasetBundle,
    clean: &dmf_datasets::ClassMatrix,
    tau: f64,
    ticks: usize,
    ty: u8,
    level: f64,
    seed: u64,
) -> Fig6Cell {
    let model = if level > 0.0 {
        Some(match ty {
            1 => ErrorModel::FlipNearTau {
                delta: calibrate_delta(&bundle.dataset, tau, level, BandErrorKind::FlipNearTau),
            },
            2 => ErrorModel::UnderestimationBias {
                delta: calibrate_delta(
                    &bundle.dataset,
                    tau,
                    level,
                    BandErrorKind::UnderestimationBias,
                ),
            },
            3 => ErrorModel::FlipRandom { fraction: level },
            4 => ErrorModel::GoodToBad {
                fraction_of_good: calibrate_good_to_bad_fraction(clean, level),
            },
            other => panic!("unknown error type {other}"),
        })
    } else {
        None
    };
    // Harvard: trace replay with errors applied at measurement time;
    // static datasets: label matrix injection, then random-order
    // training.
    let (system, achieved) = if bundle.name == "Harvard" {
        let errors: Vec<ErrorModel> = model.into_iter().collect();
        train_trace_class(
            &trio.harvard_trace,
            tau,
            default_config(bundle.k, seed ^ 0x000f_160b),
            &errors,
            seed ^ (ty as u64) << 8 ^ 0xf16,
        )
    } else {
        let mut noisy = clean.clone();
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (ty as u64) << 8 ^ 0xf16);
        let changed = match model {
            Some(m) => inject(&mut noisy, &bundle.dataset, m, &mut rng),
            None => 0,
        };
        let system = train_class(&noisy, default_config(bundle.k, seed ^ 0x000f_160b), ticks);
        (system, changed as f64 / clean.mask.count_known() as f64)
    };
    Fig6Cell {
        dataset: bundle.name.into(),
        error_type: ty,
        level,
        achieved_level: achieved,
        auc: auc_of(&system, clean),
    }
}

impl Fig6 {
    /// AUC for a (dataset, type, level) cell.
    pub fn auc(&self, dataset: &str, ty: u8, level: f64) -> Option<f64> {
        self.cells
            .iter()
            .find(|c| c.dataset == dataset && c.error_type == ty && c.level == level)
            .map(|c| c.auc)
    }
}

impl Artifact for Fig6 {
    fn print_table(&self) {
        println!("Figure 6 — AUC under erroneous labels");
        let widths = [10, 6, 7, 7, 7, 7];
        let header = ["dataset", "type", "0%", "5%", "10%", "15%"].map(String::from);
        println!("{}", report::row(&header, &widths));
        for dataset in ["Harvard", "Meridian", "HP-S3"] {
            for ty in 1u8..=4 {
                let aucs = LEVELS.map(|level| self.auc(dataset, ty, level));
                if aucs.iter().all(Option::is_none) {
                    continue;
                }
                let cells = [dataset.to_string(), format!("{ty}")].into_iter().chain(
                    aucs.iter()
                        .map(|a| a.map_or_else(|| "-".into(), |a| format!("{a:.3}"))),
                );
                println!("{}", report::row(&cells.collect::<Vec<_>>(), &widths));
            }
        }
    }

    /// Random errors (Type 3/4) hurt more than near-τ errors (Type 1/2)
    /// at the 15 % level, and near-τ errors keep the AUC close to clean.
    fn claim(&self) -> bool {
        let near_tau_mild = ["Harvard", "Meridian", "HP-S3"].iter().all(|d| {
            match (self.auc(d, 1, 0.0), self.auc(d, 1, 0.15)) {
                (Some(clean), Some(noisy)) => noisy > clean - 0.12,
                _ => false,
            }
        });
        let random_hurts_more = ["Harvard", "Meridian", "HP-S3"].iter().all(|d| {
            match (self.auc(d, 1, 0.15), self.auc(d, 4, 0.15)) {
                (Some(t1), Some(t4)) => t4 < t1 + 0.01,
                _ => false,
            }
        });
        near_tau_mild && random_hurts_more
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_quick_scale() {
        let fig = run(&Scale::quick(), 41);
        // Harvard/Meridian: 2 types × 4 levels; HP-S3: 4 × 4.
        assert_eq!(fig.cells.len(), 2 * 4 + 2 * 4 + 4 * 4);
        assert!(fig.claim(), "figure 6 robustness shape violated");
        // Achieved levels must track targets.
        for c in fig
            .cells
            .iter()
            .filter(|c| c.level > 0.0 && c.error_type != 2)
        {
            assert!(
                (c.achieved_level - c.level).abs() < 0.03,
                "{} type {} level {}: achieved {}",
                c.dataset,
                c.error_type,
                c.level,
                c.achieved_level
            );
        }
    }
}
