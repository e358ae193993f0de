//! Ablation (design-choice check): how much accuracy does
//! decentralization cost versus a centralized solver on the same
//! objective, across measurement budgets?
//!
//! The centralized batch solver sees the whole observed matrix every
//! iteration; DMFSGD touches one measurement at a time at one node.
//! Expected shape: DMFSGD approaches the centralized AUC as its budget
//! grows, and the gap at the paper budget (≈30×k per node) is small.

use dmf_baselines::centralized::batch_gd_class;
use dmf_bench::experiments::training::{auc_of, default_config, train_class};
use dmf_bench::report;
use dmf_bench::Scale;
use dmf_core::Loss;
use dmf_datasets::rtt::meridian_like;
use dmf_eval::{collect_scores, roc::auc};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    budget_times_k: usize,
    auc_dmfsgd: f64,
}

#[derive(Serialize)]
struct Ablation {
    n: usize,
    auc_centralized: f64,
    rows: Vec<Row>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_args(&args);
    let n = scale.meridian_nodes.min(300);
    let k = 10;
    let dataset = meridian_like(n, 42);
    let classes = dataset.classify(dataset.median());

    let central = batch_gd_class(&classes, 10, Loss::Logistic, 0.1, 0.1, 150, 1);
    let auc_central = auc(&collect_scores(&classes, &central.predicted_scores()));
    println!("centralized batch GD ({n} nodes): AUC = {auc_central:.3}\n");

    println!("{:>12} {:>12} {:>8}", "budget(×k)", "AUC dmfsgd", "gap");
    let mut rows = Vec::new();
    for times_k in [2usize, 5, 10, 20, 30, 50] {
        let system = train_class(&classes, default_config(k, 7), n * k * times_k);
        let a = auc_of(&system, &classes);
        println!("{times_k:>12} {a:>12.3} {:>8.3}", auc_central - a);
        rows.push(Row {
            budget_times_k: times_k,
            auc_dmfsgd: a,
        });
    }

    let result = Ablation {
        n,
        auc_centralized: auc_central,
        rows,
    };
    let path = report::write_json("ablation_centralized", &result);
    println!("\nwritten: {}", path.display());

    let last = result.rows.last().expect("rows");
    assert!(
        last.auc_dmfsgd > auc_central - 0.05,
        "decentralized ({}) must close to within 0.05 of centralized ({auc_central})",
        last.auc_dmfsgd
    );
    println!("shape (decentralized approaches centralized): YES");
}
