//! Golden fingerprint of the wire-mode v2 lane across commits.
//!
//! `wire_v2_learns_and_is_deterministic` compares a run with itself;
//! this test compares it with the commit before the wire-mode sends
//! began to prefetch their per-pair contexts. 60 meridian-like (RTT)
//! or hps3-like (ABW) nodes, k = 8, every leg a `dmf-proto` v2
//! datagram, with a 30 % loss epoch (sequence gaps, keyframes sent
//! again until one is acked) and one leave/join (neighbor slots handed
//! to other pairs, whose contexts start afresh). The driver offers no
//! tap on the datagrams themselves, so the fingerprint is what they
//! leave behind: [`WireStats`] (every byte sent is counted there), the
//! cycles completed, and FNV-1a over the bit pattern of every
//! coordinate — one wrong byte in one delta moves a reconstruction and
//! with it the hash. A prefetch hint must move none of it.
//!
//! The constants depend on the host libm (`ln`, `exp`, `sin_cos` feed
//! the jitter): if they ever fail on an untouched driver, print the
//! fingerprint on the previous commit with the same toolchain
//! (`cargo test -p dmf-core --test wire_v2_golden -- --nocapture`) and
//! compare against that instead.

use dmf_core::{Session, SimnetDriver, WireStats};
use dmf_datasets::abw::hps3_like;
use dmf_datasets::rtt::meridian_like;
use dmf_datasets::Dataset;
use dmf_proto::WireVersion;
use dmf_simnet::NetConfig;

const NODES: usize = 60;
const SEED: u64 = 23;

/// What one run leaves behind: FNV-1a of every coordinate's bits, the
/// cycles completed, the byte-level counters.
type Fingerprint = (u64, usize, WireStats);

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn fingerprint(dataset: Dataset) -> Fingerprint {
    let mut session = Session::builder()
        .nodes(NODES)
        .k(8)
        .seed(SEED)
        .tau(dataset.median())
        .build()
        .unwrap();
    let net = NetConfig {
        seed: SEED,
        ..NetConfig::default()
    };
    let mut driver = SimnetDriver::new(&session, dataset, net)
        .unwrap()
        .with_probe_interval(0.25)
        .unwrap()
        .with_wire_version(WireVersion::V2);
    driver.run_until(&mut session, 40.0).unwrap();
    driver.set_loss_probability(0.3).unwrap();
    driver.run_until(&mut session, 80.0).unwrap();
    driver.set_loss_probability(0.0).unwrap();
    driver.run_until(&mut session, 100.0).unwrap();
    session.leave(7).unwrap();
    driver.run_until(&mut session, 130.0).unwrap();
    assert_eq!(session.join().unwrap(), 7, "the freed slot is reused");
    driver.run_until(&mut session, 180.0).unwrap();

    let hash = session
        .nodes()
        .iter()
        .flat_map(|node| node.coords.u.iter().chain(node.coords.v.iter()))
        .fold(0xcbf2_9ce4_8422_2325, |h, c| {
            fnv1a(h, &c.to_bits().to_le_bytes())
        });
    let print = (
        hash,
        driver.stats().measurements_completed,
        driver.wire_stats(),
    );
    println!("{print:#x?}");
    print
}

#[test]
fn rtt_run_matches_pre_prefetch_fingerprint() {
    let golden: Fingerprint = (
        0x8e6a_c500_f00b_a7bf,
        38_177,
        WireStats {
            messages_sent: 83_216,
            bytes_sent: 2_499_162,
            decode_errors: 0,
            stale_deltas: 0,
            gaps_detected: 1_974,
            keyframes_sent: 2_587,
        },
    );
    assert_eq!(fingerprint(meridian_like(NODES, SEED)), golden);
}

#[test]
fn abw_run_matches_pre_prefetch_fingerprint() {
    let golden: Fingerprint = (
        0x1c05_9fd2_852d_0bbb,
        36_463,
        WireStats {
            messages_sent: 81_479,
            bytes_sent: 3_181_439,
            decode_errors: 0,
            stale_deltas: 0,
            gaps_detected: 4_785,
            keyframes_sent: 7_043,
        },
    );
    assert_eq!(fingerprint(hps3_like(NODES, SEED)), golden);
}
