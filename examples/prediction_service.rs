//! The serving layer end-to-end: a 4-shard prediction service over a
//! loopback wire, driven by a pipelined client with mixed traffic —
//! RTT-class updates, scalar predictions, neighbor rankings — and
//! measured for throughput, tail latency and ranking quality.
//!
//! The sharded service answers **bit-identically** to a single
//! `Session` fed the same operations (the dmf-service conformance
//! suite pins this), so the AUC printed at the end is the AUC any
//! single-node deployment would report; sharding buys throughput,
//! never accuracy.
//!
//! ```sh
//! cargo run --release --example prediction_service
//! ```

use dmfsgd::eval::{roc::auc, ScoredLabel};
use dmfsgd::service::{
    loopback_pair, serve_loopback, PredictionService, Response, ServerConnection, ServiceClient,
};
use dmfsgd::{DmfsgdError, Session};
use std::collections::VecDeque;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

const SHARDS: usize = 4;
const IN_FLIGHT: usize = 48; // below the server window: no rejections

fn main() -> Result<(), DmfsgdError> {
    let n = 120;
    let dataset = dmfsgd::datasets::rtt::meridian_like(n, 17);
    let tau = dataset.median();
    let classes = dataset.classify(tau);

    // A service is built like a session: same config, same seed —
    // each shard is a lock stripe over its id range's nodes.
    let config = *Session::builder().nodes(n).seed(17).build()?.config();
    let service = Arc::new(PredictionService::build(config, n, SHARDS)?);
    println!(
        "prediction service: {n} nodes in {SHARDS} shards (τ = {tau:.1} ms), \
         pipelined at {IN_FLIGHT} in flight\n"
    );

    // Server side: one pipelined connection on its own thread, talking
    // through an in-memory byte pipe (swap in a socket and nothing
    // else changes — the connection is transport-agnostic).
    let (server_end, client_end) = loopback_pair();
    let conn = ServerConnection::with_default_window(Arc::clone(&service));
    let server = thread::spawn(move || serve_loopback(conn, server_end));

    // Client side: train the whole population through the wire with
    // measured labels, interleaving reads so the stream stays mixed.
    let mut client = ServiceClient::new();
    let mut wire = Vec::new();
    let mut rx = Vec::new();
    let mut pending: VecDeque<Instant> = VecDeque::new();
    let mut latencies_us: Vec<f64> = Vec::new();
    let mut completed = 0usize;

    // Every measured pair trains; every few ops a read rides along in
    // the same pipeline, observing mid-training state.
    let mut schedule = Vec::new();
    for round in 0..250usize {
        for i in 0..n {
            let j = (i + 1 + (round * 37) % (n - 1)) % n;
            if let Some(x) = classes.label(i, j) {
                schedule.push((true, i as u32, j as u32, x));
                match (round * n + i) % 5 {
                    4 => schedule.push((false, j as u32, i as u32, 0.0)),
                    3 => schedule.push((false, i as u32, u32::MAX, 0.0)),
                    _ => {}
                }
            }
        }
    }
    let started = Instant::now();
    let mut next = 0usize;
    while completed < schedule.len() {
        while next < schedule.len() && client.outstanding() < IN_FLIGHT {
            match schedule[next] {
                (true, i, j, x) => client.submit_update(i, j, x, &mut wire),
                (false, i, u32::MAX, _) => client.submit_rank(i, 8, &mut wire),
                (false, i, j, _) => client.submit_predict(i, j, &mut wire),
            };
            pending.push_back(Instant::now());
            next += 1;
        }
        if !wire.is_empty() {
            client_end.send(&wire);
            wire.clear();
        }
        rx.clear();
        if client_end.recv(&mut rx) == 0 {
            break;
        }
        client.ingest(&rx);
        while let Some(resp) = client.poll()? {
            resp.into_result()?; // no overloads below the window
            let t = pending.pop_front().expect("in-order responses");
            latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
            completed += 1;
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    latencies_us.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let pct = |p: f64| latencies_us[((latencies_us.len() - 1) as f64 * p).round() as usize];
    println!(
        "{} requests in {elapsed:.2} s  →  {:.0} qps, p50 {:.1} µs, p99 {:.1} µs",
        completed,
        completed as f64 / elapsed,
        pct(0.50),
        pct(0.99),
    );

    // Score every known pair through the service and report AUC —
    // equal, not close, to the single-session number. Same windowed
    // submission: the admission window is a contract, not a hint.
    let pairs: Vec<(usize, usize, f64)> = classes
        .mask
        .iter_known()
        .filter_map(|(i, j)| classes.label(i, j).map(|x| (i, j, x)))
        .collect();
    let mut samples = Vec::new();
    let mut queried: VecDeque<bool> = VecDeque::new();
    let mut next_pair = 0usize;
    while samples.len() < pairs.len() {
        while next_pair < pairs.len() && client.outstanding() < IN_FLIGHT {
            let (i, j, x) = pairs[next_pair];
            client.submit_predict(i as u32, j as u32, &mut wire);
            queried.push_back(x > 0.0);
            next_pair += 1;
        }
        if !wire.is_empty() {
            client_end.send(&wire);
            wire.clear();
        }
        rx.clear();
        if client_end.recv(&mut rx) == 0 {
            break;
        }
        client.ingest(&rx);
        while let Some(resp) = client.poll()? {
            let positive = queried.pop_front().expect("one label per query");
            if let Response::Value { value, .. } = resp.into_result()? {
                samples.push(ScoredLabel {
                    positive,
                    score: value,
                });
            }
        }
    }
    client_end.close();
    server.join().expect("server thread")?;

    let auc = auc(&samples);
    println!(
        "ranking quality over {} known pairs: AUC = {auc:.3}",
        samples.len()
    );
    assert!(auc > 0.8, "the served coordinates should have learned");
    Ok(())
}
