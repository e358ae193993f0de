//! Experiment scale presets.
//!
//! The paper's full sizes (2500-node Meridian, 2.5 M Harvard
//! measurements) are reachable with [`Scale::paper`], but parameter
//! sweeps at that size take hours. The standard scale keeps the exact
//! Harvard/HP-S3 node counts and scales Meridian and the trace volume
//! down — enough for every qualitative claim to hold — and is what
//! `run_all` uses by default (`--paper` switches up, `--quick` down).

use serde::{Deserialize, Serialize};

/// Node counts and budgets for one harness run.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Scale {
    /// Harvard node count (paper: 226).
    pub harvard_nodes: usize,
    /// Meridian node count (paper: 2500).
    pub meridian_nodes: usize,
    /// HP-S3 node count (paper: 231).
    pub hps3_nodes: usize,
    /// Harvard dynamic trace volume (paper: 2 492 546).
    pub harvard_measurements: usize,
    /// Training budget in measurements per node, as a multiple of `k`
    /// (the paper observes convergence within 20×k; default trains to
    /// 30×k).
    pub budget_k_multiplier: usize,
    /// Neighbor count for Harvard (paper: 10).
    pub k_harvard: usize,
    /// Neighbor count for Meridian (paper: 32).
    pub k_meridian: usize,
    /// Neighbor count for HP-S3 (paper: 10).
    pub k_hps3: usize,
}

impl Scale {
    /// Small instance for unit/integration tests (seconds).
    pub fn quick() -> Self {
        Self {
            harvard_nodes: 60,
            meridian_nodes: 80,
            hps3_nodes: 60,
            harvard_measurements: 40_000,
            budget_k_multiplier: 25,
            k_harvard: 10,
            k_meridian: 16,
            k_hps3: 10,
        }
    }

    /// Default harness scale (minutes for the full suite).
    fn standard() -> Self {
        Self {
            harvard_nodes: 226,
            meridian_nodes: 500,
            hps3_nodes: 231,
            harvard_measurements: 400_000,
            budget_k_multiplier: 30,
            k_harvard: 10,
            k_meridian: 32,
            k_hps3: 10,
        }
    }

    /// The paper's sizes (hours for the sweep figures).
    pub fn paper() -> Self {
        Self {
            harvard_nodes: 226,
            meridian_nodes: 2500,
            hps3_nodes: 231,
            harvard_measurements: 2_492_546,
            budget_k_multiplier: 30,
            k_harvard: 10,
            k_meridian: 32,
            k_hps3: 10,
        }
    }

    /// Parses `--quick` / `--paper` from argv, defaulting to the
    /// standard scale.
    pub fn from_args(args: &[String]) -> Self {
        if args.iter().any(|a| a == "--paper") {
            Self::paper()
        } else if args.iter().any(|a| a == "--quick") {
            Self::quick()
        } else {
            Self::standard()
        }
    }

    /// Preset name recorded in reports (`QUALITY.json`'s `scale`
    /// field): presets are told apart by their Meridian node count,
    /// and anything that is neither paper nor standard size reads
    /// `quick`.
    pub fn name(&self) -> &'static str {
        if self.meridian_nodes == Self::paper().meridian_nodes {
            "paper"
        } else if self.meridian_nodes == Self::standard().meridian_nodes {
            "standard"
        } else {
            "quick"
        }
    }

    /// Training tick budget for a dataset of `n` nodes with `k`
    /// neighbors: `n · k · budget_k_multiplier` total measurements
    /// (= `k · multiplier` per node on average).
    pub fn ticks(&self, n: usize, k: usize) -> usize {
        n * k * self.budget_k_multiplier
    }
}

/// The value following `flag` in argv (`--out FILE` style), if any —
/// the argument convention of `scenario_suite`.
pub fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_ordered_by_size() {
        let q = Scale::quick();
        let s = Scale::standard();
        let p = Scale::paper();
        assert!(q.meridian_nodes < s.meridian_nodes);
        assert!(s.meridian_nodes <= p.meridian_nodes);
        assert_eq!(p.harvard_nodes, 226);
        assert_eq!(p.hps3_nodes, 231);
        assert_eq!(p.harvard_measurements, 2_492_546);
    }

    #[test]
    fn args_parsing() {
        assert_eq!(
            Scale::from_args(&["--paper".into()]).meridian_nodes,
            Scale::paper().meridian_nodes
        );
        assert_eq!(
            Scale::from_args(&["--quick".into()]).meridian_nodes,
            Scale::quick().meridian_nodes
        );
        assert_eq!(
            Scale::from_args(&[]).meridian_nodes,
            Scale::standard().meridian_nodes
        );
    }

    #[test]
    fn names_follow_the_presets_and_the_argv_flags() {
        assert_eq!(Scale::quick().name(), "quick");
        assert_eq!(Scale::standard().name(), "standard");
        assert_eq!(Scale::paper().name(), "paper");
        assert_eq!(Scale::from_args(&["--quick".into()]).name(), "quick");
        assert_eq!(Scale::from_args(&[]).name(), "standard");
        assert_eq!(Scale::from_args(&["--paper".into()]).name(), "paper");
    }

    #[test]
    fn tick_budget() {
        let s = Scale::quick();
        assert_eq!(s.ticks(100, 10), 100 * 10 * 25);
    }
}
