//! Figure 4 — AUC under different rank `r`, neighbor count `k`, and
//! classification threshold `τ`.
//!
//! * (a) r ∈ {3, 10, 20, 100} at default k;
//! * (b) k ∈ {5, 10, 30, 50} (Harvard, HP-S3) / {16, 32, 64, 128}
//!   (Meridian) at r = 10;
//! * (c) τ at good-portions {10, 25, 50, 75, 90} % at defaults.
//!
//! Expected shape: a small (r, k) pair already suffices; increasing k
//! helps monotonically-ish; extreme portions are easier than the
//! balanced 50 % point or comparable (AUC stays high across the
//! sweep).

use crate::experiments::scale::Scale;
use crate::experiments::training::{auc_of, default_config, BundleTrainer};
use crate::experiments::trio::{DatasetBundle, Trio};
use crate::experiments::Artifact;
use serde::{Deserialize, Serialize};

/// The rank sweep of Figure 4a.
const RANKS: [usize; 4] = [3, 10, 20, 100];
/// The portion sweep of Figure 4c.
pub const PORTIONS: [f64; 5] = [0.10, 0.25, 0.50, 0.75, 0.90];

/// One measurement.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) struct Fig4Cell {
    /// Dataset name.
    pub dataset: String,
    /// Which sub-figure: "r", "k" or "tau".
    pub sweep: String,
    /// Swept value (rank, k, or good-portion).
    pub value: f64,
    /// Resulting AUC.
    pub auc: f64,
}

/// The full figure.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) struct Fig4 {
    /// All cells.
    pub cells: Vec<Fig4Cell>,
}

/// The paper's k grid for a dataset (Meridian gets the larger one).
fn k_grid(bundle: &DatasetBundle) -> Vec<usize> {
    if bundle.name == "Meridian" {
        vec![16, 32, 64, 128]
    } else {
        vec![5, 10, 30, 50]
    }
}

/// Runs the three sweeps.
pub(crate) fn run(scale: &Scale, seed: u64) -> Fig4 {
    let trio = Trio::build(scale, seed);
    let trainer = BundleTrainer { trio: &trio, scale };
    let mut cells = Vec::new();
    for bundle in trio.bundles() {
        let n = bundle.dataset.len();
        let tau_med = bundle.dataset.median();
        let class_med = bundle.dataset.classify(tau_med);

        for &r in &RANKS {
            let mut cfg = default_config(bundle.k, seed ^ 0x000f_194a);
            cfg.rank = r;
            let system = trainer.train(bundle, &class_med, cfg, &[], 0);
            cells.push(Fig4Cell {
                dataset: bundle.name.into(),
                sweep: "r".into(),
                value: r as f64,
                auc: auc_of(&system, &class_med),
            });
        }

        for k in k_grid(bundle) {
            if k >= n {
                continue; // quick-scale instances may be too small
            }
            let cfg = default_config(k, seed ^ 0x000f_194b);
            let system = trainer.train(bundle, &class_med, cfg, &[], 0);
            cells.push(Fig4Cell {
                dataset: bundle.name.into(),
                sweep: "k".into(),
                value: k as f64,
                auc: auc_of(&system, &class_med),
            });
        }

        for &portion in &PORTIONS {
            let tau = bundle.dataset.tau_for_good_portion(portion);
            let class = bundle.dataset.classify(tau);
            let cfg = default_config(bundle.k, seed ^ 0x000f_194c);
            let system = trainer.train(bundle, &class, cfg, &[], 0);
            cells.push(Fig4Cell {
                dataset: bundle.name.into(),
                sweep: "tau".into(),
                value: portion,
                auc: auc_of(&system, &class),
            });
        }
    }
    Fig4 { cells }
}

impl Fig4 {
    /// Cells of one sweep for one dataset, ordered by value.
    pub fn series(&self, dataset: &str, sweep: &str) -> Vec<(f64, f64)> {
        let mut v: Vec<(f64, f64)> = self
            .cells
            .iter()
            .filter(|c| c.dataset == dataset && c.sweep == sweep)
            .map(|c| (c.value, c.auc))
            .collect();
        v.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN"));
        v
    }
}

impl Artifact for Fig4 {
    fn print_table(&self) {
        for sweep in ["r", "k", "tau"] {
            println!("Figure 4 — AUC vs {sweep}");
            for dataset in ["Harvard", "Meridian", "HP-S3"] {
                let cells: Vec<String> = std::iter::once(format!("{dataset:>9}"))
                    .chain(
                        self.series(dataset, sweep)
                            .iter()
                            .map(|(v, a)| format!("{v}:{a:.3}")),
                    )
                    .collect();
                println!("  {}", cells.join("  "));
            }
            println!();
        }
    }

    /// Figure 4a: on every dataset r = 10 is within 0.05 of the best
    /// rank's AUC — bigger ranks are "either costly or worthless".
    fn claim(&self) -> bool {
        ["Harvard", "Meridian", "HP-S3"].iter().all(|d| {
            let series = self.series(d, "r");
            let best = series.iter().map(|&(_, a)| a).fold(0.0f64, f64::max);
            series.iter().any(|&(r, a)| r == 10.0 && a > best - 0.05)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_sweep_shape() {
        let fig = run(&Scale::quick(), 11);
        for d in ["Harvard", "Meridian", "HP-S3"] {
            assert_eq!(fig.series(d, "r").len(), 4, "{d} rank series");
        }
        assert!(fig.claim(), "r=10 should be near-optimal everywhere");
    }

    #[test]
    fn tau_sweep_covers_portions() {
        let fig = run(&Scale::quick(), 12);
        for d in ["Harvard", "Meridian", "HP-S3"] {
            let series = fig.series(d, "tau");
            assert_eq!(series.len(), 5);
            // All portions should stay usable (AUC > 0.7 at quick scale).
            for (portion, auc) in series {
                assert!(auc > 0.7, "{d} portion {portion}: AUC {auc}");
            }
        }
    }
}
