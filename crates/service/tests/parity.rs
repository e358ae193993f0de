//! Accuracy parity: the sharded service, driven through the *full*
//! wire path (client → framed protocol → pipelined connection →
//! lock stripes), answers bit-identically to a single [`Session`]
//! oracle fed the same operations in the same order, and its snapshot
//! is the oracle's snapshot byte for byte.
//!
//! This is the conformance anchor of the serving layer: it runs at
//! several shard counts and under `DMF_FORCE_SCALAR=1` in CI (the
//! service-conformance leg), so neither the lock striping, the wire
//! codec, nor the SIMD dispatch may perturb a single bit of the
//! predictions — and the derived AUC over a real workload is equal,
//! not merely close.

use dmf_core::{DmfsgdConfig, Session, SessionBuilder};
use dmf_eval::ScoredLabel;
use dmf_service::{PredictionService, ProtocolDecode, Response, ServerConnection, ServiceClient};
use std::ops::ControlFlow;
use std::sync::Arc;

fn paper_config(n: usize, seed: u64) -> DmfsgdConfig {
    let s = SessionBuilder::new()
        .nodes(n)
        .seed(seed)
        .build()
        .expect("valid defaults");
    *s.config()
}

/// A deterministic mixed schedule over an `n`-node population:
/// `(i, j, x)` RTT-class measurements crossing every shard boundary.
fn schedule(n: usize, steps: usize) -> Vec<(usize, usize, f64)> {
    (0..steps)
        .map(|s| {
            let i = (s * 7 + s / 11) % n;
            let j = (i + 1 + (s * 5) % (n - 1)) % n;
            let x = if (s * 13) % 3 == 0 { -1.0 } else { 1.0 };
            (i, j, x)
        })
        .collect()
}

fn decode_stream(mut bytes: &[u8]) -> Vec<Response> {
    let mut out = Vec::new();
    while !bytes.is_empty() {
        let ControlFlow::Break(len) = Response::check(bytes).expect("well-formed stream") else {
            panic!("truncated response stream");
        };
        out.push(Response::consume(&bytes[..len]).expect("decodes"));
        bytes = &bytes[len..];
    }
    out
}

/// Drives the schedule through the wire path against a service with
/// `shards` shards, interleaves predict/rank queries and ends with a
/// snapshot request; returns the decoded response stream.
fn run_wire(n: usize, seed: u64, shards: usize, ops: &[(usize, usize, f64)]) -> Vec<Response> {
    let svc = Arc::new(
        PredictionService::build(paper_config(n, seed), n, shards).expect("service builds"),
    );
    let mut conn = ServerConnection::new(svc, 256);
    let mut client = ServiceClient::new();
    let mut wire = Vec::new();
    let mut resp_bytes = Vec::new();
    for (step, &(i, j, x)) in ops.iter().enumerate() {
        client.submit_update(i as u32, j as u32, x, &mut wire);
        // Interleave reads so queries observe mid-training state.
        if step % 3 == 0 {
            client.submit_predict(j as u32, i as u32, &mut wire);
        }
        if step % 7 == 0 {
            client.submit_rank(i as u32, 8, &mut wire);
        }
        if step % 5 == 0 {
            let cj = (j + 1) % n;
            if cj != i {
                client.submit_predict_class(i as u32, cj as u32, &mut wire);
            }
        }
        // Pipelined flush every few ops, mid-frame chunking included.
        if step % 4 == 3 {
            for chunk in wire.chunks(13) {
                conn.ingest(chunk, &mut resp_bytes).expect("clean stream");
            }
            wire.clear();
            conn.drain(&mut resp_bytes);
        }
    }
    // Any in-range shard index answers with the whole service.
    client.submit_snapshot((shards - 1) as u16, &mut wire);
    for chunk in wire.chunks(13) {
        conn.ingest(chunk, &mut resp_bytes).expect("clean stream");
    }
    conn.drain(&mut resp_bytes);
    decode_stream(&resp_bytes)
}

/// Replays the same logical operations directly against a single
/// session, producing the expected responses and the final snapshot
/// JSON.
fn run_oracle(n: usize, seed: u64, ops: &[(usize, usize, f64)]) -> (Vec<(String, f64)>, String) {
    let mut oracle = Session::builder()
        .config(paper_config(n, seed))
        .nodes(n)
        .build()
        .expect("oracle builds");
    let mut expected = Vec::new();
    for (step, &(i, j, x)) in ops.iter().enumerate() {
        oracle
            .apply_measurement(i, j, x, dmf_datasets::Metric::Rtt)
            .expect("oracle update");
        expected.push(("updated".to_string(), 0.0));
        if step % 3 == 0 {
            expected.push(("value".to_string(), oracle.predict(j, i).expect("predict")));
        }
        if step % 7 == 0 {
            let ranked = oracle.rank_neighbors(i, 8).expect("rank");
            // Flatten the ranked list into comparable numbers.
            for (id, score) in &ranked {
                expected.push((format!("rank:{id}"), *score));
            }
            expected.push(("rank-end".to_string(), ranked.len() as f64));
        }
        if step % 5 == 0 {
            let cj = (j + 1) % n;
            if cj != i {
                expected.push((
                    "class".to_string(),
                    oracle.predict_class(i, cj).expect("class"),
                ));
            }
        }
    }
    (expected, oracle.snapshot().to_json())
}

fn flatten(responses: &[Response]) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for resp in responses {
        match resp {
            Response::Updated { .. } => out.push(("updated".to_string(), 0.0)),
            Response::Value { value, .. } => out.push(("value".to_string(), *value)),
            Response::Class { class, .. } => out.push(("class".to_string(), f64::from(*class))),
            Response::Ranked { entries, .. } => {
                for (id, score) in entries {
                    out.push((format!("rank:{id}"), *score));
                }
                out.push(("rank-end".to_string(), entries.len() as f64));
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    out
}

#[test]
fn sharded_wire_path_is_bit_identical_to_the_oracle() {
    let (n, seed) = (48, 20260807);
    let ops = schedule(n, 600);
    let (expected, snapshot) = run_oracle(n, seed, &ops);
    for shards in [1usize, 2, 4] {
        let mut responses = run_wire(n, seed, shards, &ops);
        match responses.pop() {
            Some(Response::SnapshotData { json, .. }) => assert!(
                json == snapshot.as_bytes(),
                "{shards} shards: the service snapshot differs from the oracle's"
            ),
            other => panic!("{shards} shards: expected the snapshot, got {other:?}"),
        }
        let got = flatten(&responses);
        assert_eq!(got.len(), expected.len(), "{shards} shards: response count");
        for (k, (g, e)) in got.iter().zip(&expected).enumerate() {
            assert_eq!(g.0, e.0, "{shards} shards, response {k}: kind");
            assert!(
                g.1 == e.1 || (g.1.is_nan() && e.1.is_nan()),
                "{shards} shards, response {k} ({}): {} != {} (bitwise)",
                g.0,
                g.1,
                e.1
            );
        }
    }
}

#[test]
fn auc_over_a_real_workload_is_equal_not_close() {
    let n = 60;
    let d = dmf_datasets::rtt::meridian_like(n, 31);
    let tau = d.median();
    let cm = d.classify(tau);

    // Train oracle and sharded service on the same label stream.
    let cfg = paper_config(n, 97);
    let mut oracle = Session::builder().config(cfg).nodes(n).build().unwrap();
    let svc = PredictionService::build(cfg, n, 4).unwrap();
    let mut applied = 0usize;
    's: for round in 0..200usize {
        for i in 0..n {
            let j = (i + 1 + round) % n;
            if let Some(x) = cm.label(i, j) {
                oracle
                    .apply_measurement(i, j, x, dmf_datasets::Metric::Rtt)
                    .unwrap();
                svc.update_rtt(i, j, x).unwrap();
                applied += 1;
                if applied >= 6_000 {
                    break 's;
                }
            }
        }
    }

    // Score every known pair on both surfaces.
    let mut oracle_samples = Vec::new();
    let mut svc_samples = Vec::new();
    for (i, j) in cm.mask.iter_known() {
        let Some(label) = cm.label(i, j) else {
            continue;
        };
        oracle_samples.push(ScoredLabel {
            positive: label > 0.0,
            score: oracle.raw_score(i, j).unwrap(),
        });
        svc_samples.push(ScoredLabel {
            positive: label > 0.0,
            score: svc.predict(i, j).unwrap(),
        });
    }
    let auc_oracle = dmf_eval::roc::auc(&oracle_samples);
    let auc_svc = dmf_eval::roc::auc(&svc_samples);
    assert!(
        auc_oracle == auc_svc,
        "AUC must be equal, not close: oracle {auc_oracle} vs sharded {auc_svc}"
    );
    assert!(
        auc_oracle > 0.7,
        "workload should actually learn (AUC {auc_oracle})"
    );
}
