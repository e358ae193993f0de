//! A *real* decentralized deployment: N agents, each with its own UDP
//! socket and OS thread, speaking the dmf-proto wire format on
//! localhost. No simulator in the loop — datagrams, nonces, losses and
//! all. (Measured values come from the shared oracle; see the `dmf-agent`
//! crate docs.)
//!
//! ```sh
//! cargo run --release --example live_udp_cluster
//! ```

use dmfsgd::agent::{ClusterConfig, UdpCluster};
use dmfsgd::datasets::rtt::meridian_like;
use dmfsgd::eval::{collect_scores, roc::auc, ConfusionMatrix};
use std::time::Duration;

fn main() {
    let n = 48;
    let dataset = meridian_like(n, 3);
    let tau = dataset.median();
    let classes = dataset.classify(tau);
    println!("spawning {n} UDP agents on 127.0.0.1 (τ = {tau:.1} ms)…");

    let outcome = UdpCluster::run(
        dataset,
        tau,
        ClusterConfig {
            duration: Duration::from_secs(3),
            probe_interval: Duration::from_millis(3),
            ..ClusterConfig::default()
        },
    )
    .expect("cluster");

    let probes: usize = outcome.stats.iter().map(|s| s.probes_sent).sum();
    let decode_errors: usize = outcome.stats.iter().map(|s| s.decode_errors).sum();
    println!(
        "ran for 3 s: {probes} probes sent, {} SGD updates applied, {decode_errors} decode errors",
        outcome.total_updates()
    );

    let samples = collect_scores(&classes, &outcome.predicted_scores());
    let a = auc(&samples);
    let cm = ConfusionMatrix::at_sign(&samples);
    println!("AUC = {a:.3}, accuracy = {:.1}%", cm.accuracy() * 100.0);
    assert!(a > 0.75, "live cluster should learn the class structure");
    println!("ok: the protocol converges over real sockets with zero coordination");
}
