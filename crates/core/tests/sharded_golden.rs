//! Golden fingerprint of a multi-island **jittered** fused run.
//!
//! `dmf-simnet/tests/shard_merge.rs` compares the sharded net with a
//! single-queue net and is jitter-free by design, so it cannot see a
//! change in the *order* islands draw from their RNG streams. This
//! test can: 2 048 nodes in 8 islands for 20 simulated seconds, once
//! under the default `NetConfig` (log-normal jitter on every leg) and
//! once with 2 % loss on top (per-leg loss draws, fallback timers),
//! with the snapshot bytes and the network counters pinned to the
//! values the per-island-queue + merge-heap implementation produced on
//! the commit before one shared event queue replaced it. Any
//! reordering of deliveries, RNG draws or SGD arithmetic moves the
//! hash.
//!
//! The constants depend on the host libm (`ln`, `exp`, `sin_cos` feed
//! the jitter): if they ever fail on an untouched simulator, print the
//! fingerprint on the previous commit with the same toolchain
//! (`cargo test -p dmf-core --test sharded_golden -- --nocapture`) and
//! compare against that instead.

use dmf_core::{DmfsgdConfig, SessionBuilder, SimnetDriver};
use dmf_simnet::net::NetStats;
use dmf_simnet::{NetConfig, ShardedSimNet};

const NODES: usize = 2048;
const ISLANDS: usize = 8;
const SIM_SECONDS: f64 = 20.0;
const SEED: u64 = 15;

/// What one run leaves behind: FNV-1a of the snapshot JSON, the
/// measurements applied, the network counters.
type Fingerprint = (u64, usize, NetStats);

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn fingerprint(loss_probability: f64) -> Fingerprint {
    let config = DmfsgdConfig {
        seed: SEED,
        ..DmfsgdConfig::paper_defaults()
    };
    let mut session = SessionBuilder::from_config(config)
        .nodes(NODES)
        .tau(60.0)
        .build()
        .unwrap();
    let net_cfg = NetConfig {
        seed: SEED,
        loss_probability,
        ..NetConfig::default()
    };
    // Intra-island RTTs run 8–110 ms, so both classes of τ = 60 ms occur.
    let net = ShardedSimNet::from_delay_fn(NODES, ISLANDS, net_cfg, |i, j| {
        0.004 + 0.0004 * ((i * 13 + j * 7) % 128) as f64
    });
    let mut driver = SimnetDriver::from_net(&session, net).unwrap();
    let applied = driver.run_until(&mut session, SIM_SECONDS).unwrap();
    let hash = fnv1a(session.snapshot().to_json().as_bytes());
    let print = (hash, applied, driver.net().stats());
    println!("loss={loss_probability}: {print:#x?}");
    print
}

#[test]
fn jittered_multi_island_run_matches_pre_swap_fingerprint() {
    let golden: Fingerprint = (
        0x2bd9_f23e_3afc_08f9,
        40_754,
        NetStats {
            sent: 85_604,
            delivered: 40_754,
            dropped: 0,
            timers: 2_048,
        },
    );
    assert_eq!(fingerprint(0.0), golden);
}

#[test]
fn lossy_jittered_run_matches_pre_swap_fingerprint() {
    let golden: Fingerprint = (
        0xe5bd_9867_8c50_dcdb,
        39_129,
        NetStats {
            sent: 85_398,
            delivered: 39_129,
            dropped: 1_694,
            timers: 3_570,
        },
    );
    assert_eq!(fingerprint(0.02), golden);
}
