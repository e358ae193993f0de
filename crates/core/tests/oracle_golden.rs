//! Golden fingerprint of the oracle tick across commits.
//!
//! The fused and wire drivers each have a pin (`sharded_golden`,
//! `wire_v2_golden`); this is the one for [`Session::run`], the path
//! every figure of the paper is trained through: tick → provider →
//! `apply_unchecked`. 60 nodes, k = 8, 20 000 ticks on a
//! meridian-like RTT class matrix (Algorithm 1: the prober updates
//! `u_i` and `v_i` against the target's live coordinates) and 20 000
//! on an hps3-like ABW one (Algorithm 2: the target updates `v_j`,
//! then the prober `u_i` against the pre-update `v_j`; its missing
//! entries make some ticks unmeasurable). The fingerprint is the
//! number of ticks applied and FNV-1a over the bit pattern of every
//! coordinate, captured on the commit before the provider packed its
//! labels and `apply_unchecked` borrowed the pair in place of copying
//! the reply: neither may move a bit.
//!
//! The constants depend on the host libm (the logistic loss calls
//! `exp`): if they ever fail on an untouched session, print the
//! fingerprint on the previous commit with the same toolchain
//! (`cargo test -p dmf-core --test oracle_golden -- --nocapture`) and
//! compare against that instead.

use dmf_core::provider::ClassLabelProvider;
use dmf_core::Session;
use dmf_datasets::abw::hps3_like;
use dmf_datasets::rtt::meridian_like;
use dmf_datasets::Dataset;

const NODES: usize = 60;
const SEED: u64 = 24;
const TICKS: usize = 20_000;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a of every coordinate's bits after the run, and the ticks
/// that found a label.
fn fingerprint(dataset: Dataset) -> (u64, usize) {
    let mut session = Session::builder()
        .nodes(NODES)
        .k(8)
        .seed(SEED)
        .build()
        .unwrap();
    let mut provider = ClassLabelProvider::new(dataset.classify(dataset.median()));
    let applied = session.run(TICKS, &mut provider).unwrap();
    assert_eq!(applied, session.measurements_used());
    let hash = session
        .nodes()
        .iter()
        .flat_map(|node| node.coords.u.iter().chain(node.coords.v.iter()))
        .fold(0xcbf2_9ce4_8422_2325, |h, c| {
            fnv1a(h, &c.to_bits().to_le_bytes())
        });
    println!("{:#x?}", (hash, applied));
    (hash, applied)
}

#[test]
fn rtt_run_matches_pre_borrow_fingerprint() {
    let golden = (0x91c4_2aad_a3a7_cfbc, 20_000);
    assert_eq!(fingerprint(meridian_like(NODES, SEED)), golden);
}

#[test]
fn abw_run_matches_pre_borrow_fingerprint() {
    let golden = (0xbbdc_9e43_550b_dc5b, 19_145);
    assert_eq!(fingerprint(hps3_like(NODES, SEED)), golden);
}
