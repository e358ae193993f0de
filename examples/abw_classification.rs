//! The ABW workflow end-to-end (the paper's second metric): direct
//! class measurement by pathload-style UDP trains, the asymmetric
//! Algorithm 2, and the discrete-event simulation with message loss.
//!
//! ```sh
//! cargo run --release --example abw_classification
//! ```

use dmfsgd::core::provider::ProbedClassProvider;
use dmfsgd::core::runner::SimnetRunner;
use dmfsgd::core::DmfsgdConfig;
use dmfsgd::datasets::abw::hps3_like;
use dmfsgd::eval::{collect_scores, roc::auc};
use dmfsgd::simnet::NetConfig;
use dmfsgd::{DmfsgdError, Session};

fn main() -> Result<(), DmfsgdError> {
    let n = 150;
    let dataset = hps3_like(n, 21);
    let tau = dataset.median();
    let classes = dataset.classify(tau);
    println!(
        "ABW network: {n} nodes, probing at rate τ = {tau:.1} Mbps\n\
         (a probe is one UDP train: congestion observed ⇒ 'bad', else 'good')\n"
    );

    // --- 1. Oracle-driven training with on-the-fly pathload probes ---
    let mut provider = ProbedClassProvider::new(dataset.clone(), tau)?;
    let mut cfg = DmfsgdConfig::paper_defaults();
    cfg.seed = 4;
    let mut system = Session::builder().config(cfg).nodes(n).tau(tau).build()?;
    system.run(n * cfg.k * 25, &mut provider)?;
    let auc_direct = auc(&collect_scores(&classes, &system.predicted_scores()));
    println!("Algorithm 2 with live pathload probes:      AUC = {auc_direct:.3}");

    // --- 2. The same protocol through the event-driven simulator, ----
    //        now with 20% message loss injected.
    let mut runner = SimnetRunner::new(
        dataset,
        tau,
        cfg,
        NetConfig {
            loss_probability: 0.2,
            ..NetConfig::default()
        },
    )?
    .with_probe_interval(0.5)?;
    runner.run_for(250.0)?; // simulated seconds
    let stats = runner.stats();
    let auc_simnet = auc(&collect_scores(&classes, &runner.predicted_scores()));
    println!(
        "same, over simulated messages (20% loss):   AUC = {auc_simnet:.3}  \
         ({}/{} probes completed)",
        stats.measurements_completed, stats.probes_sent
    );

    assert!(auc_direct > 0.85);
    assert!(auc_simnet > 0.8);
    println!(
        "\nok: one-bit ABW measurements suffice, and losing a fifth of all\n\
         datagrams only slows convergence — no retransmission logic needed"
    );
    Ok(())
}
