//! Extension (the paper's §7 future work): ordinal multiclass
//! prediction accuracy as the class count grows, on all three
//! datasets.
//!
//! Training follows the paper's §6.1 protocol like every other
//! experiment: Harvard replays its time-ordered trace, each
//! measurement labeled by the rule its quantile classes were built
//! with ([`MulticlassLabels::class_of`]); Meridian and HP-S3 train on
//! random-pair schedules. Expected shape: exact accuracy well above
//! chance (1/C) at every C.

use crate::experiments::scale::Scale;
use crate::experiments::trio::Trio;
use crate::experiments::Artifact;
use dmf_core::provider::MulticlassLabels;
use dmf_core::{Loss, Session};
use serde::{Serialize, Value};

/// Class counts swept.
const CLASS_COUNTS: [u8; 3] = [2, 3, 5];

/// One (dataset, class count) outcome.
#[derive(Clone, Debug, Serialize)]
pub(crate) struct MulticlassRow {
    /// Dataset name.
    pub dataset: String,
    /// Class count `C`.
    pub classes: usize,
    /// Fraction of observed pairs predicted in their exact class.
    pub exact_accuracy: f64,
    /// Fraction predicted at most one class off.
    pub within_one_accuracy: f64,
    /// Mean absolute class error.
    pub mean_abs_class_error: f64,
}

/// The full experiment; its record is the bare row list.
#[derive(Clone, Debug)]
pub(crate) struct Multiclass {
    /// Datasets in paper order, each at every [`CLASS_COUNTS`] entry.
    pub rows: Vec<MulticlassRow>,
}

impl Serialize for Multiclass {
    fn to_value(&self) -> Value {
        self.rows.to_value()
    }
}

/// Runs the experiment.
pub(crate) fn run(scale: &Scale, seed: u64) -> Multiclass {
    let trio = Trio::build(scale, seed);
    let mut rows = Vec::new();
    for bundle in trio.bundles() {
        let n = bundle.dataset.len();
        for classes in CLASS_COUNTS {
            let mut labels = MulticlassLabels::quantiles(&bundle.dataset, classes);
            let mut session = Session::builder()
                .nodes(n)
                .k(bundle.k)
                .loss(Loss::Ordinal { classes })
                .seed(u64::from(classes))
                .build()
                .expect("valid ordinal configuration");
            if bundle.name == "Harvard" {
                for m in &trio.harvard_trace.measurements {
                    let class = f64::from(labels.class_of(m.value));
                    session
                        .apply_measurement(m.from, m.to, class, bundle.dataset.metric)
                        .expect("trace pair and class in range");
                }
            } else {
                session
                    .run(n * bundle.k * 40, &mut labels)
                    .expect("labels cover the session");
            }
            let (exact, within_one, mae) = labels.evaluate(&session);
            rows.push(MulticlassRow {
                dataset: bundle.name.to_string(),
                classes: classes.into(),
                exact_accuracy: exact,
                within_one_accuracy: within_one,
                mean_abs_class_error: mae,
            });
        }
    }
    Multiclass { rows }
}

impl Artifact for Multiclass {
    fn print_table(&self) {
        println!(
            "{:>10} {:>3} {:>10} {:>10} {:>12} {:>8}",
            "dataset", "C", "exact", "chance", "within-one", "MAE"
        );
        for r in &self.rows {
            println!(
                "{:>10} {:>3} {:>9.1}% {:>9.1}% {:>11.1}% {:>8.2}",
                r.dataset,
                r.classes,
                r.exact_accuracy * 100.0,
                100.0 / r.classes as f64,
                r.within_one_accuracy * 100.0,
                r.mean_abs_class_error
            );
        }
    }

    /// Exact accuracy above 1.5× chance (1.5 / C) at every C on every
    /// dataset.
    fn claim(&self) -> bool {
        self.rows
            .iter()
            .all(|r| r.exact_accuracy > 1.5 / r.classes as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiclass_quick_scale() {
        let m = run(&Scale::quick(), 42);
        assert_eq!(m.rows.len(), 3 * CLASS_COUNTS.len());
        assert!(m.claim(), "multiclass accuracy near chance: {:?}", m.rows);
        for r in &m.rows {
            assert!(r.within_one_accuracy >= r.exact_accuracy, "{r:?}");
        }
        let json = serde_json::to_string(&m).expect("serialize");
        assert!(json.starts_with('['), "the record is the bare row list");
    }
}
