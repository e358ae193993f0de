//! Tracked serving-layer load generation: qps and tail latency for
//! the sharded prediction service (`load_gen` binary; the
//! `service_runs` field of `BENCH.json`, schema v5).
//!
//! The serving layer's pitch is operational: one pipelined connection
//! sustains a deep in-flight window with bounded memory, and sharding
//! the node space raises throughput without perturbing a single bit
//! of the answers (the conformance suite owns the correctness half;
//! this module tracks the throughput half). Each [`ServiceRun`]
//! drives mixed traffic — RTT-class updates, scalar predictions,
//! neighbor rankings — through the *full* wire path: framed client
//! encoding, a loopback byte pipe, per-connection server threads,
//! the shard router. Latency is measured per request from submission
//! to decoded response, so the percentiles include framing, queueing
//! behind the pipeline, and shard-queue contention, not just the
//! matrix arithmetic — and is reported both overall and *per request
//! kind*, because the write path (single-writer batch drain) and the
//! read path (lock-free epoch reads) have different tails by design.
//!
//! Every preset measures a matrix of shard counts × traffic mixes
//! ([`MIXES`]): the default mix mirrors a training deployment (1/3
//! updates), the read-heavy mix a serving-dominated one. The run also
//! records the shard write path's batching behaviour (batch-size and
//! queue-depth distributions from
//! [`dmf_service::WorkerStatsSnapshot`]), which
//! is the mechanism the shard-scaling pitch rests on.
//!
//! The workload is fixed-work per scale preset (request count,
//! connection count, in-flight depth are hard-coded per preset), so
//! qps across PRs is comparable the same way the `perf` wall-clock
//! metrics are.

use dmf_service::{
    loopback_pair, serve_loopback, PredictionService, Response, ServerConnection, ServiceClient,
    WorkerStatsSnapshot, DEFAULT_MAX_IN_FLIGHT,
};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use crate::experiments::training::default_config;

/// Config seed shared by every run, so shard count and mix are the
/// only variables across the runs of one report.
const SERVICE_SEED: u64 = 53;

/// Shard counts the full presets sweep: the single-shard baseline,
/// the tracked sharded deployment, and the scaling tail.
pub const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Shard counts the quick preset (CI smoke) sweeps.
pub const QUICK_SHARD_COUNTS: [usize; 2] = [1, 4];

/// Traffic mixes every preset measures, as read percentages: the
/// default training mix (1/3 updates, matching the conformance
/// schedules) and a serving-dominated read-heavy mix.
pub const MIXES: [u32; 2] = [67, 90];

/// Load parameters per preset: population, requests per connection,
/// concurrent connections, and client-side in-flight depth.
fn service_workload(scale_name: &str) -> (usize, usize, usize, usize) {
    match scale_name {
        "paper" => (512, 40_000, 4, 64),
        "standard" => (256, 20_000, 4, 64),
        _ => (64, 2_500, 2, 32),
    }
}

/// The shard counts a preset sweeps by default.
pub fn shard_counts(scale_name: &str) -> &'static [usize] {
    match scale_name {
        "paper" | "standard" => &SHARD_COUNTS,
        _ => &QUICK_SHARD_COUNTS,
    }
}

/// The request kind lane a sample lands in.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Update,
    Predict,
    Rank,
}

/// The deterministic mix: request `s` of a connection is an update
/// with probability `100 - read_pct` (hashed, so update positions are
/// spread rather than strided), and reads split evenly between
/// predictions and rank queries.
fn kind_for(s: u32, read_pct: u32) -> Kind {
    let roll = (s.wrapping_mul(0x9E37_79B1) >> 16) % 100;
    if roll >= read_pct {
        Kind::Update
    } else if roll.is_multiple_of(2) {
        Kind::Predict
    } else {
        Kind::Rank
    }
}

/// Latency summary of one request-kind lane within a run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct KindLatency {
    /// Requests of this kind completed.
    pub requests: usize,
    /// Median submission-to-response latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile submission-to-response latency, microseconds.
    pub p99_us: f64,
}

/// The shard write path's batching behaviour over one run, summed
/// across shards (from [`dmf_service::WorkerStatsSnapshot`]).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BatchingStats {
    /// Update batches drained (write-lock acquisitions that did work).
    pub batches: u64,
    /// Updates applied through those batches.
    pub updates: u64,
    /// Always 0 since the service stopped running worker threads
    /// (every batch is drained by a submitting connection); kept for
    /// the `BENCH.json` v5 schema.
    pub worker_batches: u64,
    /// Mean updates per batch.
    pub mean_batch: f64,
    /// Largest single batch observed.
    pub max_batch: u64,
    /// Deepest update-queue backlog observed at enqueue time.
    pub max_queue_depth: u64,
    /// Batch-size distribution over [`dmf_service::DIST_BUCKETS`]
    /// (`<=1, <=2, <=4, ... <=64, overflow`).
    pub batch_hist: Vec<u64>,
    /// Queue-depth distribution over the same buckets.
    pub depth_hist: Vec<u64>,
}

impl BatchingStats {
    fn from_shards(stats: &[WorkerStatsSnapshot]) -> Self {
        let mut total = WorkerStatsSnapshot::default();
        for s in stats {
            total.merge(s);
        }
        BatchingStats {
            batches: total.batches,
            updates: total.updates,
            worker_batches: total.worker_batches,
            mean_batch: total.mean_batch(),
            max_batch: total.max_batch,
            max_queue_depth: total.max_depth,
            batch_hist: total.batch_hist.to_vec(),
            depth_hist: total.depth_hist.to_vec(),
        }
    }
}

/// One load-generation run against the sharded service.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ServiceRun {
    /// Shards the node space was partitioned into.
    pub shards: usize,
    /// Percentage of read requests in the mix (the rest are updates).
    pub read_pct: u32,
    /// Concurrent pipelined connections.
    pub connections: usize,
    /// Service population (node count).
    pub nodes: usize,
    /// Total requests completed across all connections.
    pub requests: usize,
    /// Client-side in-flight depth each connection sustained.
    pub max_in_flight: usize,
    /// The headline metric: `requests / elapsed_s`, all connections.
    pub qps: f64,
    /// Median submission-to-response latency, microseconds, all kinds.
    pub p50_us: f64,
    /// 99th-percentile submission-to-response latency, microseconds,
    /// all kinds.
    pub p99_us: f64,
    /// The update lane (the single-writer batch path).
    pub update: KindLatency,
    /// The prediction lane (lock-free epoch reads).
    pub predict: KindLatency,
    /// The rank lane (lock-free cross-shard fan-out).
    pub rank: KindLatency,
    /// The write path's batching behaviour, summed across shards.
    pub batching: BatchingStats,
    /// Overload rejections observed client-side (the depth stays
    /// below the server window, so a nonzero count is a regression).
    pub overload_rejections: u64,
    /// Wall-clock seconds for the whole run.
    pub elapsed_s: f64,
}

/// Latency samples and error count from one connection's client loop.
struct ConnStats {
    /// `(kind, latency_us)` per completed request, completion order.
    latencies_us: Vec<(Kind, f64)>,
    overloads: u64,
}

/// Drives one pipelined connection over a loopback pipe: keeps up to
/// `depth` requests in flight, mixing updates, predictions and rank
/// queries per `read_pct`, and times each request from submission to
/// decoded response. The server side runs [`serve_loopback`] on its
/// own thread, sharing `svc` with every other connection.
fn drive_connection(
    svc: Arc<PredictionService>,
    nodes: u32,
    requests: u32,
    depth: usize,
    read_pct: u32,
    conn_id: u32,
) -> ConnStats {
    let (server_end, client_end) = loopback_pair();
    let conn = ServerConnection::new(svc, DEFAULT_MAX_IN_FLIGHT);
    let server = thread::spawn(move || serve_loopback(conn, server_end));

    let mut client = ServiceClient::new();
    let mut wire = Vec::new();
    let mut rx = Vec::new();
    let mut submit_times: VecDeque<(Kind, Instant)> = VecDeque::with_capacity(depth);
    let mut stats = ConnStats {
        latencies_us: Vec::with_capacity(requests as usize),
        overloads: 0,
    };
    let mut submitted = 0u32;
    while stats.latencies_us.len() < requests as usize {
        while submitted < requests && client.outstanding() < depth {
            let s = submitted.wrapping_add(conn_id.wrapping_mul(0x9E37));
            let i = (s.wrapping_mul(11)) % nodes;
            let j = (i + 1 + s % (nodes - 1)) % nodes;
            let kind = kind_for(s, read_pct);
            match kind {
                Kind::Update => {
                    let x = if s.is_multiple_of(5) { -1.0 } else { 1.0 };
                    client.submit_update(i, j, x, &mut wire)
                }
                Kind::Predict => client.submit_predict(i, j, &mut wire),
                Kind::Rank => client.submit_rank(i, 8, &mut wire),
            };
            submit_times.push_back((kind, Instant::now()));
            submitted += 1;
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
        while let Some(resp) = client.poll().expect("clean response stream") {
            // In-order execution below the server window: responses
            // pair with submissions front-to-back.
            let (kind, t) = submit_times.pop_front().expect("response has a submission");
            stats
                .latencies_us
                .push((kind, t.elapsed().as_secs_f64() * 1e6));
            if matches!(resp, Response::Error { .. }) {
                stats.overloads += 1;
            }
        }
    }
    client_end.close();
    server
        .join()
        .expect("server thread")
        .expect("no framing errors under clean load");
    stats
}

/// `p`-th percentile (0..=1) of an unsorted sample set.
fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let idx = ((samples.len() - 1) as f64 * p).round() as usize;
    samples[idx]
}

/// Summarizes one kind's lane out of the pooled samples.
fn lane(samples: &[(Kind, f64)], kind: Kind) -> KindLatency {
    let mut lane: Vec<f64> = samples
        .iter()
        .filter(|(k, _)| *k == kind)
        .map(|&(_, us)| us)
        .collect();
    KindLatency {
        requests: lane.len(),
        p50_us: percentile(&mut lane, 0.50),
        p99_us: percentile(&mut lane, 0.99),
    }
}

/// Runs one load-generation pass at `shards` shards and `read_pct`.
pub fn run_one(
    nodes: usize,
    requests_per_conn: usize,
    connections: usize,
    depth: usize,
    shards: usize,
    read_pct: u32,
) -> ServiceRun {
    let cfg = default_config(10, SERVICE_SEED);
    let svc = Arc::new(
        PredictionService::build(cfg, nodes, shards).expect("bench service configuration is valid"),
    );

    let start = Instant::now();
    let clients: Vec<_> = (0..connections)
        .map(|c| {
            let svc = Arc::clone(&svc);
            thread::spawn(move || {
                drive_connection(
                    svc,
                    nodes as u32,
                    requests_per_conn as u32,
                    depth,
                    read_pct,
                    c as u32,
                )
            })
        })
        .collect();
    let stats: Vec<ConnStats> = clients
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    let elapsed_s = start.elapsed().as_secs_f64();
    let batching = BatchingStats::from_shards(&svc.worker_stats());

    let samples: Vec<(Kind, f64)> = stats.iter().flat_map(|s| s.latencies_us.clone()).collect();
    let mut latencies: Vec<f64> = samples.iter().map(|&(_, us)| us).collect();
    let requests = latencies.len();
    ServiceRun {
        shards,
        read_pct,
        connections,
        nodes,
        requests,
        max_in_flight: depth,
        qps: requests as f64 / elapsed_s.max(1e-12),
        p50_us: percentile(&mut latencies, 0.50),
        p99_us: percentile(&mut latencies, 0.99),
        update: lane(&samples, Kind::Update),
        predict: lane(&samples, Kind::Predict),
        rank: lane(&samples, Kind::Rank),
        batching,
        overload_rejections: stats.iter().map(|s| s.overloads).sum(),
        elapsed_s,
    }
}

/// Runs the preset workload at each `(mix, shard count)` pair
/// (`load_gen --shards/--read-pct/--connections` hook in here; `0`
/// for `connections` keeps the preset's default).
pub fn run_matrix(
    scale_name: &str,
    mixes: &[u32],
    shards: &[usize],
    connections_override: usize,
) -> Vec<ServiceRun> {
    let (nodes, requests_per_conn, preset_conns, depth) = service_workload(scale_name);
    let connections = if connections_override == 0 {
        preset_conns
    } else {
        connections_override
    };
    let mut runs = Vec::with_capacity(mixes.len() * shards.len());
    for &read_pct in mixes {
        for &s in shards {
            runs.push(run_one(
                nodes,
                requests_per_conn,
                connections,
                depth,
                s,
                read_pct,
            ));
        }
    }
    runs
}

/// Runs the preset workload over the full tracked matrix — the record
/// in `BENCH.json`: every [`MIXES`] entry × every preset shard count.
pub fn run(scale_name: &str) -> Vec<ServiceRun> {
    run_matrix(scale_name, &MIXES, shard_counts(scale_name), 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_load_gen_covers_the_mix_by_shard_matrix() {
        let runs = run("quick");
        assert_eq!(runs.len(), MIXES.len() * QUICK_SHARD_COUNTS.len());
        let mut expect = Vec::new();
        for &mix in &MIXES {
            for &shards in &QUICK_SHARD_COUNTS {
                expect.push((mix, shards));
            }
        }
        for (run, (mix, shards)) in runs.iter().zip(expect) {
            assert_eq!(run.shards, shards);
            assert_eq!(run.read_pct, mix);
            assert_eq!(run.nodes, 64);
            assert_eq!(run.requests, run.connections * 2_500);
            assert_eq!(
                run.requests,
                run.update.requests + run.predict.requests + run.rank.requests,
                "every request lands in exactly one lane"
            );
            assert!(run.update.requests > 0, "mix {mix}: updates present");
            assert!(
                run.predict.requests + run.rank.requests
                    > run.requests * (mix as usize).saturating_sub(15) / 100,
                "mix {mix}: read share near the knob"
            );
            assert!(run.qps > 0.0, "{shards} shards: no throughput");
            assert!(
                run.p50_us > 0.0 && run.p50_us <= run.p99_us,
                "{shards} shards: percentiles out of order ({} vs {})",
                run.p50_us,
                run.p99_us
            );
            assert_eq!(
                run.batching.updates as usize, run.update.requests,
                "every update drained through the batch machinery"
            );
            assert!(run.batching.batches > 0);
            assert!(run.batching.mean_batch >= 1.0);
            assert_eq!(
                run.batching.batch_hist.iter().sum::<u64>(),
                run.batching.batches,
                "batch histogram is complete"
            );
            assert_eq!(
                run.overload_rejections, 0,
                "{shards} shards: depth below the window must never overload"
            );
            assert!(run.elapsed_s > 0.0);
        }
    }

    #[test]
    fn the_mix_knob_tracks_the_requested_read_share() {
        for read_pct in [50u32, 67, 90] {
            let updates = (0..10_000u32)
                .filter(|&s| matches!(kind_for(s, read_pct), Kind::Update))
                .count();
            let want = (100 - read_pct) as f64 / 100.0;
            let got = updates as f64 / 10_000.0;
            assert!(
                (got - want).abs() < 0.03,
                "read_pct {read_pct}: update share {got} vs {want}"
            );
        }
    }

    #[test]
    fn percentiles_pick_the_expected_ranks() {
        let mut s = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&mut s, 0.50), 3.0);
        assert_eq!(percentile(&mut s, 0.99), 5.0);
        assert_eq!(percentile(&mut s, 0.0), 1.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
    }
}
