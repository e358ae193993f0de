//! Runs every table/figure experiment in sequence — plus the
//! non-stationary scenario quality suite — and records all JSON
//! outputs under `results/`.

use dmf_bench::experiments::{
    fig1, fig3, fig4, fig5, fig6, fig7, scenario, table1, table2, table3,
};
use dmf_bench::report;
use dmf_bench::Scale;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_args(&args);
    let seed = 42;
    println!("running all experiments at scale {scale:?}");

    let t = Instant::now();
    macro_rules! step {
        ($name:literal, $expr:expr) => {{
            let start = Instant::now();
            let value = $expr;
            let path = report::write_json($name, &value);
            println!(
                "{:<28} {:>7.1}s  -> {}",
                $name,
                start.elapsed().as_secs_f64(),
                path.display()
            );
            value
        }};
    }

    let fig1 = step!("fig1_singular_values", fig1::run(&scale, seed));
    assert!(fig1.decays_fast(), "fig1 shape");
    let table1 = step!("table1_tau_portions", table1::run(&scale, seed));
    assert!(table1.structure_holds(), "table1 shape");
    let fig3 = step!("fig3_eta_lambda", fig3::run(&scale, seed));
    assert!(fig3.shape_holds(), "fig3 shape");
    let fig4 = step!("fig4_r_k_tau", fig4::run(&scale, seed, &["r", "k", "tau"]));
    for d in ["Harvard", "Meridian", "HP-S3"] {
        assert!(fig4.small_rank_suffices(d), "fig4 shape for {d}");
    }
    let fig5 = step!("fig5_accuracy", fig5::run(&scale, seed));
    fig5.assert_convergence_bounds();
    let table2 = step!("table2_confusion", table2::run(&scale, seed));
    assert!(table2.shape_holds(), "table2 shape");
    let fig6 = step!("fig6_robustness", fig6::run(&scale, seed));
    assert!(fig6.shape_holds(), "fig6 shape");
    let table3 = step!("table3_delta_calibration", table3::run(&scale, seed));
    assert!(table3.monotone(), "table3 shape");
    let fig7 = step!("fig7_peer_selection", fig7::run(&scale, seed));
    assert!(fig7.shape_holds(), "fig7 shape");
    // Beyond the paper: the non-stationary scenario registry, with its
    // per-scenario AUC floors enforced (the same gate CI runs).
    let quality = step!("scenario_quality", scenario::run(&scale, "run_all"));
    assert!(
        quality.all_pass,
        "scenario quality floors broken: {:?}",
        quality
            .scenarios
            .iter()
            .filter(|s| !s.pass)
            .map(|s| (&s.name, s.final_auc, s.auc_floor))
            .collect::<Vec<_>>()
    );

    println!(
        "\nall experiments done in {:.1}s — every paper-shape and quality assertion passed",
        t.elapsed().as_secs_f64()
    );
}
