//! Experiment implementations, one module per paper artifact, and the
//! registry `run_all` runs them from.
//!
//! A registry [`Entry`] is a name — also the stem of the
//! `results/<name>.json` record it writes — and a `run`. The result
//! type carries the rest: the table the paper reports
//! ([`Artifact::print_table`]) and the paper's claim for that artifact
//! as one predicate ([`Artifact::claim`]).

use crate::experiments::scale::Scale;
use serde::Serialize;

pub mod ablation;
pub mod fig1;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod multiclass;
pub mod scale;
pub mod scenario;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod training;
pub mod trio;

/// An experiment's result as `run_all` handles it: written to
/// `results/<name>.json`, printed as the paper's rows, and checked
/// against the paper's claim.
pub trait Artifact: Serialize {
    /// Prints the rows/series the paper reports.
    fn print_table(&self);
    /// The paper's claim for this artifact, checked on this result.
    fn claim(&self) -> bool;
}

/// One runnable artifact.
pub struct Entry {
    /// Artifact name, also the stem of its `results/` record.
    pub name: &'static str,
    /// Runs the experiment at a scale from a seed.
    pub run: fn(&Scale, u64) -> Box<dyn Artifact>,
}

macro_rules! registry {
    ($($name:literal => $run:expr),* $(,)?) => {
        [$(Entry { name: $name, run: |scale, seed| Box::new($run(scale, seed)) }),*]
    };
}

/// Every artifact, in the order `run_all` runs them.
pub static REGISTRY: [Entry; 12] = registry![
    "fig1_singular_values" => fig1::run,
    "table1_tau_portions" => table1::run,
    "fig3_eta_lambda" => fig3::run,
    "fig4_r_k_tau" => fig4::run,
    "fig5_accuracy" => fig5::run,
    "table2_confusion" => table2::run,
    "fig6_robustness" => fig6::run,
    "table3_delta_calibration" => table3::run,
    "fig7_peer_selection" => fig7::run,
    "ablation_centralized" => ablation::run,
    "ext_multiclass" => multiclass::run,
    // Beyond the paper; the scenario registry carries its own seeds.
    "scenario_quality" => |scale, _| scenario::run(scale, "run_all"),
];
