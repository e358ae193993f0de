//! Riding out a flash-congestion epoch: a `Session` keeps serving
//! while RTTs between several cluster pairs quadruple for two
//! minutes, and windowed quality shows the dip and the recovery that
//! a single end-of-run number would hide.
//!
//! The scenario engine (`dmfsgd::datasets::scenario`) declares the
//! storm; the simnet driver's impairment hooks swap the network's
//! delay function window by window, so the nodes *measure* the
//! congested network rather than being told about it.
//!
//! ```sh
//! cargo run --release --example flash_congestion
//! ```

use dmfsgd::core::runner::SimnetDriver;
use dmfsgd::datasets::rtt::RttDatasetConfig;
use dmfsgd::datasets::scenario::{Condition, Scenario, ScenarioSpec};
use dmfsgd::eval::window::window_stats;
use dmfsgd::eval::{collect_scores, ScoredLabel};
use dmfsgd::simnet::{NetConfig, SimNet};
use dmfsgd::{DmfsgdError, Session};
use std::sync::Arc;

fn main() -> Result<(), DmfsgdError> {
    let (storm_start, storm_end) = (180.0, 300.0);
    let spec = ScenarioSpec::stationary(
        "flash-congestion-demo",
        RttDatasetConfig::meridian(120),
        23,
        480.0,
        30.0,
    )
    .with(Condition::FlashCongestion {
        start_s: storm_start,
        end_s: storm_end,
        cluster_pairs: 12,
        factor: 4.0,
    });
    let scenario = Arc::new(Scenario::realize(spec));

    // τ is pinned to the calm median — the storm pushes paths across
    // this fixed operating point, which is what the predictor must
    // track.
    let calm = scenario.ground_truth_at(0.0);
    let tau = calm.median();
    let mut session = Session::builder()
        .nodes(scenario.nodes())
        .k(10)
        .seed(23)
        .tau(tau)
        .build()?;
    let net = SimNet::from_delay_fn(
        scenario.nodes(),
        NetConfig::default(),
        scenario.one_way_delay_fn(0.0),
    );
    let mut driver = SimnetDriver::from_net(&session, net)?.with_probe_interval(0.5)?;

    println!(
        "flash congestion: {} nodes, RTT ×4 between 12 cluster pairs for t ∈ [{storm_start}, {storm_end})\n",
        scenario.nodes()
    );
    println!(
        "{:>8} {:>10} {:>7} {:>9} {:>13}",
        "window", "phase", "AUC", "accuracy", "measurements"
    );

    let mut calm_auc = 0.0; // last pre-storm window
    let mut storm_min = f64::INFINITY;
    let mut last_meas = 0usize;
    for w in 0..scenario.window_count() {
        let (start, end) = scenario.window_bounds(w);
        // Re-embed the network on the delays in force for this window
        // (piecewise-constant, exactly like the scenario_suite
        // harness), then let the protocol run the window out and score
        // it against the same instant's truth.
        driver.set_delay_fn(scenario.one_way_delay_fn(start));
        driver.run_until(&mut session, end)?;

        let classes = scenario.ground_truth_at(start).classify(tau);
        let samples: Vec<ScoredLabel> = collect_scores(&classes, &session.predicted_scores());
        let stats = window_stats(&samples).expect("median split keeps both classes");
        let completed = driver.stats().measurements_completed;
        let phase = if start >= storm_start && start < storm_end {
            "STORM"
        } else if start < storm_start {
            "calm"
        } else {
            "recovery"
        };
        println!(
            "{:>8} {:>10} {:>7.3} {:>9.3} {:>13}",
            format!("[{start:.0},{end:.0})"),
            phase,
            stats.auc,
            stats.accuracy,
            completed - last_meas,
        );
        last_meas = completed;
        if phase == "calm" {
            calm_auc = stats.auc;
        }
        if phase == "STORM" {
            storm_min = storm_min.min(stats.auc);
        }
    }

    let classes = scenario.ground_truth_at(480.0).classify(tau);
    let final_auc = {
        let samples = collect_scores(&classes, &session.predicted_scores());
        window_stats(&samples).expect("both classes").auc
    };
    assert!(calm_auc > 0.85, "pre-storm AUC {calm_auc}");
    assert!(
        storm_min < calm_auc - 0.05,
        "the storm should dent windowed AUC ({calm_auc:.3} calm vs {storm_min:.3} storm)"
    );
    assert!(final_auc > 0.85, "post-recovery AUC {final_auc}");
    println!(
        "\nok: windowed AUC dipped to {storm_min:.3} during the storm and recovered to \
         {final_auc:.3}\nonce the congestion cleared — the session re-learned both truths \
         from live probes."
    );
    Ok(())
}
