//! Table 1 — impact of τ on the portion of "good" paths.
//!
//! For good-portions {10, 25, 50, 75, 90} % the paper reports the τ
//! achieving them on each dataset (ms for the RTT datasets, Mbps for
//! HP-S3). τ grows with portion for RTT and shrinks for ABW.

use crate::experiments::scale::Scale;
use crate::experiments::trio::Trio;
use crate::experiments::Artifact;
use crate::report;
use dmf_datasets::Metric;
use serde::{Deserialize, Serialize};

/// The portions the paper sweeps.
pub const PORTIONS: [f64; 5] = [0.10, 0.25, 0.50, 0.75, 0.90];

/// One dataset column of Table 1.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) struct Table1Column {
    /// Dataset name.
    pub dataset: String,
    /// Unit string (ms / Mbps).
    pub unit: String,
    /// Whether the metric is RTT (for the monotonicity check).
    pub metric: Metric,
    /// `(portion, tau, achieved portion)` rows.
    pub rows: Vec<(f64, f64, f64)>,
}

/// The full table.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) struct Table1 {
    /// Harvard, Meridian, HP-S3 columns.
    pub columns: Vec<Table1Column>,
}

/// Runs the experiment.
pub(crate) fn run(scale: &Scale, seed: u64) -> Table1 {
    let trio = Trio::build(scale, seed);
    let columns = trio
        .bundles()
        .iter()
        .map(|bundle| {
            let rows = PORTIONS
                .iter()
                .map(|&portion| {
                    let tau = bundle.dataset.tau_for_good_portion(portion);
                    (portion, tau, bundle.dataset.good_fraction(tau))
                })
                .collect();
            Table1Column {
                dataset: bundle.name.to_string(),
                unit: bundle.dataset.metric.unit().to_string(),
                metric: bundle.dataset.metric,
                rows,
            }
        })
        .collect();
    Table1 { columns }
}

impl Artifact for Table1 {
    fn print_table(&self) {
        println!("Table 1 — impact of τ on portions of good paths");
        let widths = [6, 16, 16, 16];
        let header: Vec<String> = std::iter::once("Good%".to_string())
            .chain(
                self.columns
                    .iter()
                    .map(|c| format!("{} ({})", c.dataset, c.unit)),
            )
            .collect();
        println!("{}", report::row(&header, &widths));
        for (idx, &portion) in PORTIONS.iter().enumerate() {
            let cells: Vec<String> = std::iter::once(format!("{:.0}%", portion * 100.0))
                .chain(self.columns.iter().map(|c| format!("{:.1}", c.rows[idx].1)))
                .collect();
            println!("{}", report::row(&cells, &widths));
        }
    }

    /// τ grows with the good portion for RTT and shrinks for ABW, and
    /// every column achieves the requested portions within 5 points.
    fn claim(&self) -> bool {
        self.columns.iter().all(|col| {
            let monotone = col.rows.windows(2).all(|w| {
                if col.metric.lower_is_better() {
                    w[0].1 <= w[1].1
                } else {
                    w[0].1 >= w[1].1
                }
            });
            let achieves = col.rows.iter().all(|&(p, _, a)| (p - a).abs() < 0.05);
            monotone && achieves
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_structure() {
        let t = run(&Scale::quick(), 7);
        assert_eq!(t.columns.len(), 3);
        assert!(t.claim());
        // Median row (50%) must match the calibrated medians.
        let med = |name: &str| t.columns.iter().find(|c| c.dataset == name).unwrap().rows[2].1;
        assert!((med("Harvard") - 131.6).abs() < 1.0);
        assert!((med("Meridian") - 56.4).abs() < 1.0);
        assert!((med("HP-S3") - 43.1).abs() < 1.0);
    }
}
