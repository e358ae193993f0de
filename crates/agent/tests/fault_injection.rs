//! End-to-end fault injection over real UDP sockets.
//!
//! Every agent's outgoing datagrams pass through the seeded
//! `dmf_proto` fault injector — drops, duplicates, reorders,
//! truncations and bit flips — and the cluster must still learn the
//! class structure: on wire v2, loss degrades to sequence gaps and
//! keyframe resyncs, corruption to counted decode errors, and never
//! to wrong coordinates or a panic.

use dmf_agent::{
    run_agent, AgentHandle, AgentMetricsSlot, ClusterConfig, MeasurementOracle, UdpCluster,
};
use dmf_core::{DmfsgdConfig, DmfsgdError, DmfsgdNode, MembershipError};
use dmf_datasets::abw::hps3_like;
use dmf_datasets::rtt::meridian_like;
use dmf_datasets::Dataset;
use dmf_eval::{collect_scores, roc::auc};
use dmf_ops::LiveQuality;
use dmf_proto::{FaultSpec, WireVersion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// The headline robustness test: a 24-node v2 cluster under the
/// standard lossy fault model still ranks pairs well, while the
/// recovery machinery (gaps → keyframes, corruption → decode errors)
/// is demonstrably exercised.
#[test]
fn lossy_cluster_still_learns() {
    let d = meridian_like(24, 11);
    let tau = d.median();
    let cm = d.classify(tau);
    let outcome = UdpCluster::run(
        d,
        tau,
        ClusterConfig {
            duration: Duration::from_millis(3000),
            probe_interval: Duration::from_millis(2),
            wire: WireVersion::V2,
            faults: Some(FaultSpec::lossy()),
            ..ClusterConfig::default()
        },
    )
    .expect("lossy cluster run");

    let gaps: u64 = outcome.stats.iter().map(|s| s.gaps_detected).sum();
    let keyframes: u64 = outcome.stats.iter().map(|s| s.keyframes_sent).sum();
    let decode_errors: usize = outcome.stats.iter().map(|s| s.decode_errors).sum();
    let retries: usize = outcome.stats.iter().map(|s| s.retries).sum();
    assert!(gaps > 0, "20% drop must surface as sequence gaps");
    assert!(keyframes > 0, "gaps and cadence must trigger keyframes");
    assert!(decode_errors > 0, "bit flips must surface as decode errors");
    assert!(retries > 0, "dropped replies must trigger retransmissions");

    let a = auc(&collect_scores(&cm, &outcome.predicted_scores()));
    assert!(a > 0.8, "lossy v2 cluster AUC {a}");
}

/// Mixed-version cluster: a v1 prober and a v2 prober answering each
/// other, on Algorithm 1 (RTT) and on Algorithm 2 (ABW). Replies follow
/// the probe's version, so both sides learn.
#[test]
fn v1_and_v2_agents_interoperate() {
    for d in [meridian_like(2, 7), hps3_like(2, 7)] {
        mixed_pair_learns(d);
    }
}

fn mixed_pair_learns(d: Dataset) {
    let metric = d.metric;
    let tau = d.median();
    let oracle = Arc::new(MeasurementOracle::new(d, tau, 99).expect("valid tau"));
    let config = DmfsgdConfig {
        k: 1,
        ..DmfsgdConfig::paper_defaults()
    };
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let stop = Arc::new(AtomicBool::new(false));

    let sockets: Vec<UdpSocket> = (0..2)
        .map(|_| {
            let s = UdpSocket::bind("127.0.0.1:0").expect("bind");
            s.set_read_timeout(Some(Duration::from_millis(2)))
                .expect("timeout");
            s
        })
        .collect();
    let addrs: Vec<_> = sockets.iter().map(|s| s.local_addr().unwrap()).collect();

    let mut handles = Vec::new();
    for (id, socket) in sockets.into_iter().enumerate() {
        let handle = AgentHandle {
            node: DmfsgdNode::new(id, config.rank, &mut rng),
            socket,
            peers: addrs.clone(),
            neighbors: vec![1 - id],
            oracle: Arc::clone(&oracle),
            config,
            stop: Arc::clone(&stop),
            probe_interval: Duration::from_millis(2),
            wire: if id == 0 {
                WireVersion::V1
            } else {
                WireVersion::V2
            },
            probe_timeout: Duration::from_millis(40),
            max_retries: 2,
            metrics: Arc::new(AgentMetricsSlot::new(Arc::new(LiveQuality::new(8)))),
        };
        handles.push(thread::spawn(move || run_agent(handle, 1000 + id as u64)));
    }

    thread::sleep(Duration::from_millis(400));
    stop.store(true, Ordering::Relaxed);

    for handle in handles {
        let (_, stats) = handle
            .join()
            .expect("agent thread")
            .expect("agent loop result");
        assert!(
            stats.probes_sent > 0,
            "{metric:?}: both versions must probe"
        );
        assert!(
            stats.updates_applied > 0,
            "{metric:?}: both versions must apply updates: {stats:?}"
        );
        assert_eq!(
            stats.decode_errors, 0,
            "{metric:?}: clean link, no decode errors"
        );
    }
}

/// Satellite of the robustness pass: an empty neighbor set is a typed
/// error, not a panic inside the agent thread.
#[test]
fn no_neighbors_is_a_typed_error() {
    let d = meridian_like(2, 8);
    let tau = d.median();
    let oracle = Arc::new(MeasurementOracle::new(d, tau, 3).expect("valid tau"));
    let config = DmfsgdConfig::paper_defaults();
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let socket = UdpSocket::bind("127.0.0.1:0").expect("bind");
    socket
        .set_read_timeout(Some(Duration::from_millis(2)))
        .expect("timeout");
    let addr = socket.local_addr().unwrap();

    let handle = AgentHandle {
        node: DmfsgdNode::new(7, config.rank, &mut rng),
        socket,
        peers: vec![addr],
        neighbors: Vec::new(),
        oracle,
        config,
        stop: Arc::new(AtomicBool::new(false)),
        probe_interval: Duration::from_millis(2),
        wire: WireVersion::V2,
        probe_timeout: Duration::from_millis(40),
        max_retries: 2,
        metrics: Arc::new(AgentMetricsSlot::new(Arc::new(LiveQuality::new(8)))),
    };
    match run_agent(handle, 0) {
        Err(DmfsgdError::Membership(MembershipError::NoNeighbors { id })) => assert_eq!(id, 7),
        other => panic!("expected NoNeighbors, got {other:?}"),
    }
}
