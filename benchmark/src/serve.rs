//! The serving workloads `serve-read` and `serve-write`: a sharded
//! `PredictionService`, pre-trained in set-up, driven over the full wire
//! path (`ServiceClient` -> `loopback_pair` -> `serve_loopback` /
//! `ServerConnection` -> shard router -> `EpochView`).
//!
//! Two timed phases follow a fixed-count warm-up. The **open loop**
//! sends on a fixed schedule from one spin-paced connection and times
//! every request from the instant it was *due*; the **closed loop**
//! keeps a fixed number of requests in flight on each of `min(2, cores)`
//! connections and counts answers per 100 ms window, reporting the rate
//! of the fastest tenth of the windows. Both are bounded: at most
//! [`IN_FLIGHT_CAP`] requests are ever in flight (a request that falls
//! due beyond the cap waits, and its wait is part of its latency), and a
//! phase that has not finished by twice its length counts what is still
//! unsent or unanswered as failed instead of waiting for it.

use crate::gen::{
    paper_config, ClassBits, Digest, Lane, Mix, Req, Schedule, SplitMix64, Stream, RANK_TOP_K,
};
use crate::report::{num, obj, Outcome};
use crate::stats;
use crate::trace::{self, Tracer};
use dmf_core::{Session, SessionBuilder, Snapshot};
use dmf_datasets::rtt::meridian_like;
use dmf_datasets::Metric;
use dmf_eval::roc::auc;
use dmf_eval::ScoredLabel;
use dmf_service::{
    loopback_pair, serve_loopback, ErrorCode, LoopbackEndpoint, PredictionService, Response,
    ServerConnection, ServiceClient,
};
use dmf_simnet::NeighborSets;
use serde::Value;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

/// Service population, shard count and neighbor count.
pub const NODES: usize = 1024;
pub const SHARDS: usize = 2;
const NEIGHBORS: usize = 10;
/// Measurements the population is trained on before serving: uniformly
/// drawn pairs, as the update requests draw them, so the predictions for
/// any pair (not only for a node's ten neighbors) start out trained.
const PRETRAIN_UPDATES: usize = 1_000_000;
/// Closed-loop requests sent through one connection before anything is
/// timed. A count, not a duration, so the state the timed phases start
/// from is the same on every run of a seed.
const WARM_UP_REQUESTS: u64 = 50_000;
/// Open-loop arrival rate, requests per second.
pub const OPEN_RATE: f64 = 200_000.0;
/// Segments the open-loop phase is cut into for the latency median.
const OPEN_SEGMENTS: usize = 4;
/// Most requests the generator keeps in flight on a connection; also
/// the server-side admission window, so the window itself never sheds.
pub const IN_FLIGHT_CAP: usize = 1024;
/// Requests each closed-loop connection keeps in flight.
const CLOSED_DEPTH: usize = 64;
/// The closed-loop phase counts answers per window of this length; the
/// phase's rate is that of the fastest tenth of its windows.
const CLOSED_WINDOW: Duration = Duration::from_millis(100);
/// Leading responses of each closed-loop connection covered by the
/// oracle digest.
const DIGEST_REQUESTS: u64 = 200_000;
/// Sampled pairs behind the served-prediction AUC.
const AUC_PAIRS: usize = 200_000;
/// Requests of the traced in-thread pump and batches of its threaded
/// variant; fixed so a trace file stays a few megabytes.
const TRACED_REQUESTS: u64 = 128 * 1024;
const TRACED_PING_PONGS: u64 = 2_000;
const PUMP_BATCH: u64 = 64;
/// Lowest acceptable AUC of the served predictions.
const AUC_FLOOR: f64 = 0.90;

/// Everything set-up produces: the ground truth, the trained snapshot
/// the service (and the oracle) start from, and the running service.
struct Served {
    class: ClassBits,
    snapshot: Snapshot,
    svc: Arc<PredictionService>,
}

/// Set-up: generate and classify the dataset, train a session on it,
/// stand the sharded service up from its snapshot, warm the wire path.
fn set_up(seed: u64, mix: Mix, tr: &mut Tracer) -> Served {
    let dataset = tr.span("datasets.generate", || meridian_like(NODES, seed));
    let matrix = tr.span("datasets.classify", || dataset.classify(dataset.median()));
    let class = ClassBits::new(&matrix);
    let snapshot = tr.span("session.pretrain", || {
        let mut session = SessionBuilder::from_config(paper_config(NEIGHBORS, seed))
            .nodes(NODES)
            .build()
            .expect("paper defaults are valid");
        let mut rng = SplitMix64::new(seed ^ 0x0007_2A1E);
        for _ in 0..PRETRAIN_UPDATES {
            let (i, j) = rng.distinct_pair(NODES as u64);
            let (i, j) = (i as usize, j as usize);
            session
                .apply_measurement(i, j, class.label(i, j), Metric::Rtt)
                .expect("drawn pairs are valid");
        }
        session.snapshot()
    });
    let svc = tr.span("service.build", || {
        Arc::new(PredictionService::from_snapshot(&snapshot, SHARDS).expect("snapshot restores"))
    });
    let served = Served {
        class,
        snapshot,
        svc,
    };
    tr.span("service.warm_up", || {
        let sched = served.schedule(seed, mix);
        let warm = closed_loop(
            &served.svc,
            &sched,
            None,
            1,
            Stop::AfterRequests(WARM_UP_REQUESTS),
            |_| Stream::WarmUp,
        );
        assert_eq!(
            warm.connections[0].tally.ok, WARM_UP_REQUESTS,
            "warm-up requests must all be answered"
        );
    });
    served
}

impl Served {
    fn schedule(&self, seed: u64, mix: Mix) -> Schedule<'_> {
        Schedule {
            seed,
            mix,
            class: &self.class,
        }
    }
}

// ---- responses, digests and the oracle ------------------------------

/// Folds one response into `digest`; `rank_payload` says whether a rank
/// answer's entries are covered or only their count. Returns whether
/// the response is a success of the kind the request asked for.
fn digest_response(digest: &mut Digest, req: Req, resp: &Response, rank_payload: bool) -> bool {
    match (req, resp) {
        (Req::Predict { .. }, Response::Value { seq, value }) => {
            digest.u64(1 << 32 | u64::from(*seq));
            digest.u64(value.to_bits());
            true
        }
        (Req::Update { .. }, Response::Updated { seq }) => {
            digest.u64(2 << 32 | u64::from(*seq));
            true
        }
        (Req::Rank { .. }, Response::Ranked { seq, entries }) => {
            digest.u64(3 << 32 | u64::from(*seq));
            digest.u64(entries.len() as u64);
            if rank_payload {
                for (id, score) in entries {
                    digest.u64(u64::from(*id));
                    digest.u64(score.to_bits());
                }
            }
            true
        }
        _ => false,
    }
}

/// A rank answer read while another connection writes cannot be replayed
/// (it reads neighbors on every lane), so it is checked for shape: at
/// most `RANK_TOP_K` distinct neighbors of `i`, finite scores, best
/// first with the lower id first on a tie.
fn rank_is_well_formed(neighbors: &NeighborSets, i: u32, entries: &[(u32, f64)]) -> bool {
    let row = neighbors.neighbors(i as usize);
    entries.len() == row.len().min(usize::from(RANK_TOP_K))
        && entries
            .iter()
            .all(|(id, score)| score.is_finite() && row.contains(&(*id as usize)))
        && entries
            .windows(2)
            .all(|w| w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0))
}

/// The single-session reference the served answers are held to.
#[derive(Clone)]
struct Oracle {
    session: Session,
    rank_buf: Vec<(usize, f64)>,
}

impl Oracle {
    fn new(snapshot: &Snapshot) -> Self {
        Self {
            session: Session::restore(snapshot).expect("snapshot restores"),
            rank_buf: Vec::new(),
        }
    }

    fn answer(&mut self, seq: u32, req: Req) -> Response {
        match req {
            Req::Predict { i, j } => Response::Value {
                seq,
                value: self
                    .session
                    .predict(i as usize, j as usize)
                    .expect("generated pairs are valid"),
            },
            Req::Update { i, j, x } => {
                self.session
                    .apply_measurement(i as usize, j as usize, x, Metric::Rtt)
                    .expect("generated pairs are valid");
                Response::Updated { seq }
            }
            Req::Rank { i } => {
                self.session
                    .rank_neighbors_into(i as usize, usize::from(RANK_TOP_K), &mut self.rank_buf)
                    .expect("generated ids are valid");
                Response::Ranked {
                    seq,
                    entries: self
                        .rank_buf
                        .iter()
                        .map(|&(id, score)| (id as u32, score))
                        .collect(),
                }
            }
        }
    }

    /// Replays requests `indices` of `stream`, a connection's first,
    /// returning the digest of the answers.
    fn replay(
        &mut self,
        sched: &Schedule,
        stream: Stream,
        lane: Lane,
        indices: std::ops::Range<u64>,
        rank_payload: bool,
    ) -> Digest {
        let mut digest = Digest::default();
        for index in indices {
            let req = sched.request(stream, lane, index);
            // A connection's sequence numbers count its requests from 0.
            let resp = self.answer(index as u32, req);
            digest_response(&mut digest, req, &resp, rank_payload);
        }
        digest
    }
}

// ---- the wire path --------------------------------------------------

fn submit(client: &mut ServiceClient, req: Req, wire: &mut Vec<u8>) {
    match req {
        Req::Predict { i, j } => client.submit_predict(i, j, wire),
        Req::Rank { i } => client.submit_rank(i, RANK_TOP_K, wire),
        Req::Update { i, j, x } => client.submit_update(i, j, x, wire),
    };
}

/// One connection: the client end of a loopback pipe whose server end is
/// served by `serve_loopback` on a thread of its own.
struct Connection {
    client: ServiceClient,
    pipe: LoopbackEndpoint,
    /// The server's end, kept so a watchdog can close the direction the
    /// client reads and wake it at a phase deadline.
    peer: LoopbackEndpoint,
    server: thread::JoinHandle<Result<(), dmf_core::DmfsgdError>>,
}

impl Connection {
    fn open(svc: &Arc<PredictionService>) -> Self {
        let (server_end, client_end) = loopback_pair();
        let conn = ServerConnection::new(Arc::clone(svc), IN_FLIGHT_CAP);
        Self {
            client: ServiceClient::new(),
            pipe: client_end,
            peer: server_end.clone(),
            server: thread::spawn(move || serve_loopback(conn, server_end)),
        }
    }

    /// Closes the pipe and joins the server thread.
    fn close(self) {
        self.pipe.close();
        self.server
            .join()
            .expect("server thread")
            .expect("no framing errors on a clean stream");
    }
}

/// Tallies of one connection's answers.
#[derive(Clone, Debug, Default)]
struct Tally {
    submitted: u64,
    ok: u64,
    errors: u64,
    overloads: u64,
    malformed_ranks: u64,
    digest: Digest,
    digested: u64,
}

impl Tally {
    fn unanswered(&self) -> u64 {
        self.submitted - self.ok - self.errors
    }

    /// Checks one response against the request it answers.
    fn take(
        &mut self,
        req: Req,
        expected_seq: u32,
        resp: &Response,
        digest_limit: u64,
        neighbors: Option<&NeighborSets>,
    ) {
        let answered = self.ok + self.errors;
        let mut scratch = Digest::default();
        let digest = if answered < digest_limit {
            self.digested += 1;
            &mut self.digest
        } else {
            &mut scratch
        };
        // With `neighbors` given, another connection may be writing:
        // rank payloads stay out of the digest and are shape-checked.
        let ok =
            resp.seq() == expected_seq && digest_response(digest, req, resp, neighbors.is_none());
        if ok {
            self.ok += 1;
            if let (Some(nb), Req::Rank { i }, Response::Ranked { entries, .. }) =
                (neighbors, req, resp)
            {
                if !rank_is_well_formed(nb, i, entries) {
                    self.malformed_ranks += 1;
                }
            }
        } else {
            self.errors += 1;
            if let Response::Error {
                code: ErrorCode::Overloaded,
                ..
            } = resp
            {
                self.overloads += 1;
            }
        }
    }
}

// ---- open loop ------------------------------------------------------

struct OpenLoop {
    tally: Tally,
    /// Requests of the schedule still unsent at the phase deadline.
    shed: u64,
    /// Latency from intended send time, µs, per segment of the schedule.
    segments: Vec<Vec<f64>>,
    /// How late each sent request left, µs.
    lateness_us: Vec<f64>,
    wall_s: f64,
}

fn open_loop(svc: &Arc<PredictionService>, sched: &Schedule, duration: Duration) -> OpenLoop {
    let total = (OPEN_RATE * duration.as_secs_f64()).round() as u64;
    let gap_ns = 1e9 / OPEN_RATE;
    let per_segment = total.div_ceil(OPEN_SEGMENTS as u64).max(1);
    let mut out = OpenLoop {
        tally: Tally::default(),
        shed: 0,
        // Sized up front: growing them would leave freed blocks behind
        // that `rss_mb` then counts or not, depending on the allocator.
        segments: (0..OPEN_SEGMENTS)
            .map(|_| Vec::with_capacity(per_segment as usize))
            .collect(),
        lateness_us: Vec::with_capacity(total as usize),
        wall_s: 0.0,
    };
    let mut conn = Connection::open(svc);
    let mut in_flight: VecDeque<(u64, Req)> = VecDeque::with_capacity(IN_FLIGHT_CAP);
    let (mut wire, mut rx) = (Vec::new(), Vec::new());
    let mut next = 0u64;
    let mut seq_expected = 0u32;
    let start = Instant::now();
    let deadline = duration * 2;
    loop {
        let now_ns = start.elapsed().as_nanos() as f64;
        // Everything due goes out now, up to the cap; what the cap holds
        // back leaves late and is timed from when it was due all the same.
        while next < total && (next as f64) * gap_ns <= now_ns && in_flight.len() < IN_FLIGHT_CAP {
            let req = sched.request(Stream::Open, Lane::WHOLE, next);
            submit(&mut conn.client, req, &mut wire);
            in_flight.push_back((next, req));
            out.lateness_us
                .push((now_ns - (next as f64) * gap_ns) / 1e3);
            next += 1;
        }
        if !wire.is_empty() {
            conn.pipe.send(&wire);
            wire.clear();
        }
        rx.clear();
        if conn.pipe.try_recv(&mut rx) > 0 {
            conn.client.ingest(&rx);
            let got_ns = start.elapsed().as_nanos() as f64;
            while let Some(resp) = conn.client.poll().expect("clean response stream") {
                let (index, req) = in_flight.pop_front().expect("a response has a request");
                out.tally.take(req, seq_expected, &resp, u64::MAX, None);
                seq_expected = seq_expected.wrapping_add(1);
                let segment = ((index / per_segment) as usize).min(OPEN_SEGMENTS - 1);
                out.segments[segment].push((got_ns - (index as f64) * gap_ns) / 1e3);
            }
        }
        if (next == total && in_flight.is_empty()) || start.elapsed() > deadline {
            break;
        }
        std::hint::spin_loop();
    }
    out.tally.submitted = next;
    out.shed = total - next;
    out.wall_s = start.elapsed().as_secs_f64();
    conn.close();
    out
}

// ---- closed loop ----------------------------------------------------

#[derive(Clone, Copy)]
enum Stop {
    /// Stop submitting after this long; answers count while it lasts.
    After(Duration),
    /// Submit exactly this many requests (the warm-up).
    AfterRequests(u64),
}

struct ClosedConnection {
    tally: Tally,
    /// Answers per [`CLOSED_WINDOW`] of the timed phase, whole windows
    /// only (empty for the warm-up, which is not timed).
    windows: Vec<u64>,
}

struct ClosedLoop {
    connections: Vec<ClosedConnection>,
    wall_s: f64,
}

impl ClosedLoop {
    /// Answers per second: each window's answers over all connections,
    /// then the rate the fastest tenth of the windows reach, so what the
    /// host takes away (a stall, a slow second) costs the windows it
    /// falls in and not the result.
    fn ok_per_s(&self) -> f64 {
        let windows = self.connections.iter().map(|c| c.windows.as_slice());
        fast_window_rate(windows, CLOSED_WINDOW.as_secs_f64())
    }
}

/// Sums the per-connection window counts window by window and returns
/// the [`stats::FAST_TENTH`] percentile of the sums, per second.
fn fast_window_rate<'a>(connections: impl Iterator<Item = &'a [u64]>, window_s: f64) -> f64 {
    let mut totals: Vec<f64> = Vec::new();
    for windows in connections {
        totals.resize(totals.len().max(windows.len()), 0.0);
        for (total, &n) in totals.iter_mut().zip(windows) {
            *total += n as f64;
        }
    }
    stats::percentile(&totals, stats::FAST_TENTH) / window_s
}

/// Runs `connections` closed-loop connections side by side, connection
/// `c` on lane `c` of `connections`. `neighbors` switches the rank
/// answers from digest to shape check (see [`rank_is_well_formed`]).
fn closed_loop(
    svc: &Arc<PredictionService>,
    sched: &Schedule,
    neighbors: Option<&NeighborSets>,
    connections: u32,
    stop: Stop,
    stream_of: fn(u32) -> Stream,
) -> ClosedLoop {
    let barrier = Barrier::new(connections as usize + 1);
    let finished = AtomicUsize::new(0);
    let mut opened: Vec<Connection> = (0..connections).map(|_| Connection::open(svc)).collect();
    let peers: Vec<LoopbackEndpoint> = opened.iter().map(|c| c.peer.clone()).collect();
    let mut results = Vec::new();
    let mut wall_s = 0.0;
    thread::scope(|scope| {
        let handles: Vec<_> = opened
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let lane = Lane {
                    index: c as u32,
                    of: connections,
                };
                let stream = stream_of(c as u32);
                let (barrier, finished) = (&barrier, &finished);
                scope.spawn(move || {
                    barrier.wait();
                    let r = drive_closed(conn, sched, neighbors, lane, stream, stop);
                    finished.fetch_add(1, Ordering::Release);
                    r
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        if let Stop::After(d) = stop {
            // Phase deadline: twice its length. A connection still
            // waiting then has its pipe closed under it, and what it
            // never heard back counts as failed.
            while finished.load(Ordering::Acquire) < connections as usize {
                if start.elapsed() > d * 2 {
                    peers.iter().for_each(LoopbackEndpoint::close);
                    break;
                }
                thread::sleep(Duration::from_millis(5));
            }
        }
        results = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        wall_s = start.elapsed().as_secs_f64();
    });
    opened.into_iter().for_each(Connection::close);
    ClosedLoop {
        connections: results,
        wall_s,
    }
}

fn drive_closed(
    conn: &mut Connection,
    sched: &Schedule,
    neighbors: Option<&NeighborSets>,
    lane: Lane,
    stream: Stream,
    stop: Stop,
) -> ClosedConnection {
    let mut out = ClosedConnection {
        tally: Tally::default(),
        windows: match stop {
            Stop::After(d) => vec![0; (d.as_nanos() / CLOSED_WINDOW.as_nanos()) as usize],
            Stop::AfterRequests(_) => Vec::new(),
        },
    };
    let mut in_flight: VecDeque<Req> = VecDeque::with_capacity(CLOSED_DEPTH);
    let (mut wire, mut rx) = (Vec::new(), Vec::new());
    let mut seq_expected = 0u32;
    let start = Instant::now();
    let budget = match stop {
        Stop::After(_) => u64::MAX,
        Stop::AfterRequests(n) => n,
    };
    loop {
        let submitting = match stop {
            Stop::After(d) => start.elapsed() < d,
            Stop::AfterRequests(_) => true,
        };
        while submitting && in_flight.len() < CLOSED_DEPTH && out.tally.submitted < budget {
            let req = sched.request(stream, lane, out.tally.submitted);
            submit(&mut conn.client, req, &mut wire);
            in_flight.push_back(req);
            out.tally.submitted += 1;
        }
        if !wire.is_empty() {
            conn.pipe.send(&wire);
            wire.clear();
        }
        if in_flight.is_empty() {
            break;
        }
        rx.clear();
        if conn.pipe.recv(&mut rx) == 0 {
            // Closed under us at the phase deadline.
            break;
        }
        conn.client.ingest(&rx);
        // Answers past the last whole window (the drain after the stop)
        // fall outside the vector and are not counted.
        let window = (start.elapsed().as_nanos() / CLOSED_WINDOW.as_nanos()) as usize;
        while let Some(resp) = conn.client.poll().expect("clean response stream") {
            let req = in_flight.pop_front().expect("a response has a request");
            out.tally
                .take(req, seq_expected, &resp, DIGEST_REQUESTS, neighbors);
            seq_expected = seq_expected.wrapping_add(1);
            if let Some(n) = out.windows.get_mut(window) {
                *n += 1;
            }
        }
    }
    out
}

// ---- the served predictions' quality --------------------------------

/// AUC of `predict` over seeded sampled pairs against the ground truth.
fn served_auc(svc: &PredictionService, class: &ClassBits, seed: u64) -> f64 {
    let mut rng = SplitMix64::new(seed ^ 0xA0C5_EED5);
    let n = class.len() as u64;
    let samples: Vec<ScoredLabel> = (0..AUC_PAIRS)
        .map(|_| {
            let (i, j) = rng.distinct_pair(n);
            let (i, j) = (i as usize, j as usize);
            ScoredLabel {
                positive: class.good(i, j),
                score: svc.predict(i, j).expect("sampled pairs are valid"),
            }
        })
        .collect();
    auc(&samples)
}

// ---- the traced pass ------------------------------------------------

fn execute_span(req: Req) -> &'static str {
    match req {
        Req::Update { .. } => "connection.execute_update",
        _ => "connection.execute_read",
    }
}

/// Pumps `requests` through client and connection on this thread, 64 at
/// a time, with a span around every boundary call. Returns whether
/// every answer was a success. With a tracer that is off this is the
/// untraced baseline the tracing overhead is measured against.
pub fn pump_in_thread(conn: &mut ServerConnection, requests: &[Req], tr: &mut Tracer) -> bool {
    let mut client = ServiceClient::new();
    let (mut wire, mut out) = (Vec::new(), Vec::new());
    let mut tally = Tally::default();
    let mut seq = 0u32;
    for (b, batch) in requests.chunks(PUMP_BATCH as usize).enumerate() {
        let lo = b as u64 * PUMP_BATCH;
        let ids = (lo, lo + batch.len() as u64 - 1);
        let span = tr.enter("pump.batch", ids);
        wire.clear();
        out.clear();
        let s = tr.enter("client.encode", ids);
        for &req in batch {
            submit(&mut client, req, &mut wire);
        }
        tr.exit(s);
        let s = tr.enter("connection.ingest", ids);
        conn.ingest(&wire, &mut out).expect("clean request stream");
        tr.exit(s);
        // One span per run of consecutive executions of one kind, so a
        // span's cost is spread over the run instead of doubling the
        // price of every request.
        let mut k = 0;
        while k < batch.len() {
            let name = execute_span(batch[k]);
            let run = batch[k..]
                .iter()
                .take_while(|&&r| execute_span(r) == name)
                .count();
            let s = tr.enter(name, (lo + k as u64, lo + (k + run) as u64 - 1));
            for _ in 0..run {
                conn.execute_one(&mut out);
            }
            tr.exit(s);
            k += run;
        }
        let s = tr.enter("client.decode", ids);
        client.ingest(&out);
        for &req in batch {
            let resp = client
                .poll()
                .expect("clean response stream")
                .expect("one answer per request");
            tally.submitted += 1;
            tally.take(req, seq, &resp, 0, None);
            seq = seq.wrapping_add(1);
        }
        tr.exit(s);
        tr.exit(span);
    }
    tally.errors == 0
}

/// The threaded variant: one batch at a time ping-pongs over a loopback
/// pipe between this thread and a server thread running the same
/// ingest/drain loop as `serve_loopback`, so the two pipe hand-offs get
/// spans of their own (`loopback.c2s`, `loopback.s2c`).
fn pump_threaded(svc: &Arc<PredictionService>, requests: &[Req], tr: &mut Tracer) -> bool {
    let (server_end, client_end) = loopback_pair();
    let clock = tr.sibling();
    let mut conn = ServerConnection::new(Arc::clone(svc), IN_FLIGHT_CAP);
    // The server stamps, per batch: bytes received, answers sent.
    let server = thread::spawn(move || {
        let mut stamps: Vec<(u64, u64)> = Vec::new();
        let (mut rx, mut tx) = (Vec::new(), Vec::new());
        loop {
            rx.clear();
            if server_end.recv(&mut rx) == 0 {
                return stamps;
            }
            let received = clock.now_ns();
            tx.clear();
            conn.ingest(&rx, &mut tx).expect("clean request stream");
            conn.drain(&mut tx);
            let sent = clock.now_ns();
            server_end.send(&tx);
            stamps.push((received, sent));
        }
    });
    let mut client = ServiceClient::new();
    let (mut wire, mut rx) = (Vec::new(), Vec::new());
    let mut tally = Tally::default();
    let mut seq = 0u32;
    // Client-side stamps per batch: (batch span, encode end = send,
    // answers received, decode end).
    let mut stamps: Vec<(u64, u64, u64, u64)> = Vec::new();
    for batch in requests.chunks(PUMP_BATCH as usize) {
        let t0 = tr.now_ns();
        wire.clear();
        for &req in batch {
            submit(&mut client, req, &mut wire);
        }
        let t_sent = tr.now_ns();
        client_end.send(&wire);
        let mut answered = 0;
        let mut t_received = t_sent;
        while answered < batch.len() {
            rx.clear();
            if client_end.recv(&mut rx) == 0 {
                break;
            }
            t_received = tr.now_ns();
            client.ingest(&rx);
            while let Some(resp) = client.poll().expect("clean response stream") {
                tally.submitted += 1;
                tally.take(batch[answered], seq, &resp, 0, None);
                seq = seq.wrapping_add(1);
                answered += 1;
            }
        }
        stamps.push((t0, t_sent, t_received, tr.now_ns()));
    }
    client_end.close();
    let server_stamps = server.join().expect("server thread");
    for (b, (c, s)) in stamps.iter().zip(&server_stamps).enumerate() {
        let lo = b as u64 * PUMP_BATCH;
        let ids = (lo, lo + PUMP_BATCH - 1);
        let batch = Some(tr.record("pump.batch_threaded", (c.0, c.3), None, ids));
        tr.record("client.encode", (c.0, c.1), batch, ids);
        tr.record("loopback.c2s", (c.1, s.0), batch, ids);
        tr.record("connection.serve", (s.0, s.1), batch, ids);
        tr.record("loopback.s2c", (s.1, c.2), batch, ids);
        tr.record("client.decode", (c.2, c.3), batch, ids);
    }
    tally.errors == 0 && server_stamps.len() == stamps.len()
}

// ---- the workload ---------------------------------------------------

/// Runs one serving workload for about `seconds` of timed phases.
pub fn run(
    workload: &'static str,
    mix: Mix,
    seed: u64,
    seconds: f64,
    traced: bool,
    setups: usize,
) -> Outcome {
    let mut out = Outcome::new(workload, traced);
    // The spans of a traced run cover set-up and the traced pass, not
    // the timed phases.
    let mut tr = Tracer::for_run(traced);

    let (served, setup_s) = trace::set_up_repeatedly(setups, &mut tr, |tr| set_up(seed, mix, tr));
    let sched = served.schedule(seed, mix);
    let connections = crate::host::serve_connections();

    // Open loop: 40 % of the timed budget.
    let open = open_loop(&served.svc, &sched, Duration::from_secs_f64(seconds * 0.4));
    let auc_served = served_auc(&served.svc, &served.class, seed);

    // Closed loop: the other 60 %.
    let stats_before = merged_worker_stats(&served.svc);
    let oracle = Oracle::new(&served.snapshot);
    // Alone on the service, a connection's rank answers replay too.
    let shape_checked_ranks = (connections > 1).then(|| oracle.session.neighbors());
    let closed = closed_loop(
        &served.svc,
        &sched,
        shape_checked_ranks,
        connections,
        Stop::After(Duration::from_secs_f64(seconds * 0.6)),
        |connection| Stream::Closed { connection },
    );
    let stats_after = merged_worker_stats(&served.svc);
    let rss_mb = crate::host::rss_mb();

    check_against_oracle(&mut out, oracle, &sched, &open, &closed);
    out.check(
        "auc_floor",
        auc_served >= AUC_FLOOR,
        format!("{auc_served:.6} >= {AUC_FLOOR}"),
    );

    let closed_tallies = || closed.connections.iter().map(|c| &c.tally);
    let closed_submitted: u64 = closed_tallies().map(|t| t.submitted).sum();
    let closed_unanswered: u64 = closed_tallies().map(Tally::unanswered).sum();
    let errors = open.tally.errors + closed_tallies().map(|t| t.errors).sum::<u64>();
    let overloads = open.tally.overloads + closed_tallies().map(|t| t.overloads).sum::<u64>();
    out.attempted = open.tally.submitted + open.shed + closed_submitted;
    out.failed = open.shed + open.tally.unanswered() + closed_unanswered + errors;

    let mut pooled: Vec<f64> = open.segments.iter().flatten().copied().collect();
    stats::sort(&mut pooled);
    let mut late = open.lateness_us.clone();
    stats::sort(&mut late);
    let lat_p50 = stats::median_of_segment_medians(&open.segments);
    let lat = |p| stats::percentile_sorted(&pooled, p);
    if traced {
        out.set("loadgen.lat_p90_us", lat(0.90));
        out.set("loadgen.lat_p99_us", lat(0.99));
        out.set("loadgen.lat_p999_us", lat(0.999));
        out.set("loadgen.lat_samples", pooled.len() as f64);
        out.set("loadgen.late_p99_us", stats::percentile_sorted(&late, 0.99));
        out.set("loadgen.achieved_rps", open.tally.ok as f64 / open.wall_s);
        out.set("loadgen.shed", open.shed as f64);
        let batches = (stats_after.batches - stats_before.batches).max(1) as f64;
        let updates = stats_after.updates - stats_before.updates;
        let by_worker = stats_after.worker_batches - stats_before.worker_batches;
        out.set("service.mean_batch", updates as f64 / batches);
        out.set("service.worker_batch_share", by_worker as f64 / batches);
        out.set("service.max_queue_depth", stats_after.max_depth as f64);
        out.set("service.overload_rejections", overloads as f64);
    } else {
        out.set("setup_s", stats::median(&setup_s));
        out.set("ops_per_s", closed.ok_per_s());
        out.set("lat_us", lat_p50);
        out.set("auc", auc_served);
        out.set("rss_mb", rss_mb);
    }
    let segment_p50 = open.segments.iter().map(|s| num(stats::median(s)));
    // The highest percentile with ten samples beyond it.
    let tail = stats::highest_supported_percentile(pooled.len())
        .map_or(Value::Null, |(label, p)| obj(vec![(label, num(lat(p)))]));
    out.detail.push((
        "open_loop".into(),
        obj(vec![
            ("rate_rps", num(OPEN_RATE)),
            ("connections", num(1.0)),
            ("sent", num(open.tally.submitted as f64)),
            ("ok", num(open.tally.ok as f64)),
            ("errors", num(open.tally.errors as f64)),
            ("shed", num(open.shed as f64)),
            ("unanswered", num(open.tally.unanswered() as f64)),
            ("wall_s", num(open.wall_s)),
            ("lat_p50_us", num(lat_p50)),
            ("segment_p50_us", Value::Array(segment_p50.collect())),
            ("lat_p99_us", num(lat(0.99))),
            ("lat_tail_us", tail),
            ("lat_max_us", num(lat(1.0))),
            ("late_p99_us", num(stats::percentile_sorted(&late, 0.99))),
            ("late_max_us", num(stats::percentile_sorted(&late, 1.0))),
        ]),
    ));
    out.detail.push((
        "closed_loop".into(),
        obj(vec![
            ("connections", num(f64::from(connections))),
            ("in_flight_per_connection", num(CLOSED_DEPTH as f64)),
            ("submitted", num(closed_submitted as f64)),
            ("unanswered", num(closed_unanswered as f64)),
            ("wall_s", num(closed.wall_s)),
            ("window_ms", num(CLOSED_WINDOW.as_secs_f64() * 1e3)),
            ("ok_per_s", num(closed.ok_per_s())),
        ]),
    ));

    if traced {
        traced_pass(&served, &sched, &mut tr, &mut out);
    }
    out.spans = tr.into_spans();
    out
}

/// The output checks: no error response, and the answer digests equal a
/// replay of the same requests on a single session restored from the
/// snapshot the service was built from.
fn check_against_oracle(
    out: &mut Outcome,
    mut oracle: Oracle,
    sched: &Schedule,
    open: &OpenLoop,
    closed: &ClosedLoop,
) {
    oracle.replay(
        sched,
        Stream::WarmUp,
        Lane::WHOLE,
        0..WARM_UP_REQUESTS,
        true,
    );
    let sent = 0..open.tally.submitted;
    let want = oracle.replay(sched, Stream::Open, Lane::WHOLE, sent, true);
    out.check(
        "open_loop_digest",
        want == open.tally.digest && open.tally.unanswered() == 0,
        format!(
            "{} answers, digest {:016x} vs oracle {:016x}",
            open.tally.ok,
            open.tally.digest.value(),
            want.value()
        ),
    );
    // Each closed-loop connection continues from the state the open loop
    // left, on its own lane and untouched by the other's writes.
    let connections = closed.connections.len() as u32;
    let names = ["closed_loop_digest_c0", "closed_loop_digest_c1"];
    let mut errors = open.tally.errors;
    for (c, (conn, name)) in closed.connections.iter().zip(names).enumerate() {
        let connection = c as u32;
        let lane = Lane {
            index: connection,
            of: connections,
        };
        let want = oracle.clone().replay(
            sched,
            Stream::Closed { connection },
            lane,
            0..conn.tally.digested,
            connections == 1,
        );
        out.check(
            name,
            want == conn.tally.digest && conn.tally.malformed_ranks == 0,
            format!(
                "first {} answers, digest {:016x} vs oracle {:016x}, {} malformed rank answers",
                conn.tally.digested,
                conn.tally.digest.value(),
                want.value(),
                conn.tally.malformed_ranks
            ),
        );
        errors += conn.tally.errors;
    }
    out.check(
        "no_error_responses",
        errors == 0,
        format!("{errors} error responses"),
    );
}

fn merged_worker_stats(svc: &PredictionService) -> dmf_service::WorkerStatsSnapshot {
    let mut total = dmf_service::WorkerStatsSnapshot::default();
    for s in svc.worker_stats() {
        total.merge(&s);
    }
    total
}

/// The in-thread pump, untraced then traced over the same requests (the
/// difference is the tracing overhead), then the threaded variant.
fn traced_pass(served: &Served, sched: &Schedule, tr: &mut Tracer, out: &mut Outcome) {
    let requests: Vec<Req> = (0..TRACED_REQUESTS)
        .map(|k| sched.request(Stream::Traced, Lane::WHOLE, k))
        .collect();
    let mut conn = ServerConnection::new(Arc::clone(&served.svc), IN_FLIGHT_CAP);
    // Untraced first, twice (the first warms the path), then traced.
    let mut untraced_s = f64::MAX;
    let mut ok = true;
    for _ in 0..2 {
        let t = Instant::now();
        ok &= pump_in_thread(&mut conn, &requests, &mut Tracer::off());
        untraced_s = untraced_s.min(t.elapsed().as_secs_f64());
    }
    let span = tr.enter("pump.in_thread", (0, TRACED_REQUESTS - 1));
    let t = Instant::now();
    ok &= pump_in_thread(&mut conn, &requests, tr);
    let traced_s = t.elapsed().as_secs_f64();
    tr.exit(span);
    out.set(
        "trace.overhead_pct",
        100.0 * (traced_s - untraced_s) / untraced_s,
    );
    out.set("trace.ops", TRACED_REQUESTS as f64);
    out.set("trace.wall_s", traced_s);
    let ping_pongs = &requests[..(TRACED_PING_PONGS * PUMP_BATCH) as usize];
    let span = tr.enter("pump.threaded", (0, ping_pongs.len() as u64 - 1));
    ok &= pump_threaded(&served.svc, ping_pongs, tr);
    tr.exit(span);
    out.check(
        "traced_pump_answers",
        ok,
        "every traced request answered without error".into(),
    );
}

/// Fills the serve-specific `trace.*` metrics from the finished spans.
pub fn trace_metrics(out: &mut Outcome) {
    let spans = &out.spans;
    // Total duration and requests covered, per (parent name, span name).
    let mut sums: BTreeMap<(&str, &str), (u64, u64)> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            let e = sums
                .entry((spans[parent as usize].name, s.name))
                .or_insert((0, 0));
            e.0 += s.duration_ns();
            e.1 += s.requests.1 - s.requests.0 + 1;
        }
    }
    let sum = |parent, name| sums.get(&(parent, name)).copied().unwrap_or((0, 0));
    // Mean per request of a boundary call of the in-thread pump.
    let per_request = |name| {
        let (ns, requests) = sum("pump.batch", name);
        ns as f64 / requests.max(1) as f64
    };
    // A hand-off of the threaded variant moves a whole batch.
    let per_hand_off_us = |name| {
        let (ns, requests) = sum("pump.batch_threaded", name);
        ns as f64 / (requests / PUMP_BATCH).max(1) as f64 / 1e3
    };
    let pump_ns = sum("pump.in_thread", "pump.batch").0;
    let metrics = [
        ("trace.client_encode_ns", per_request("client.encode")),
        (
            "trace.connection_ingest_ns",
            per_request("connection.ingest"),
        ),
        (
            "trace.connection_execute_read_ns",
            per_request("connection.execute_read"),
        ),
        (
            "trace.connection_execute_update_ns",
            per_request("connection.execute_update"),
        ),
        ("trace.client_decode_ns", per_request("client.decode")),
        ("trace.loopback_c2s_us", per_hand_off_us("loopback.c2s")),
        ("trace.loopback_s2c_us", per_hand_off_us("loopback.s2c")),
        // Update executions over everything the in-thread pump did.
        (
            "trace.share_write_path",
            sum("pump.batch", "connection.execute_update").0 as f64 / pump_ns.max(1) as f64,
        ),
    ];
    for (name, value) in metrics {
        out.set(name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_rate_is_the_fast_tenth_window_over_all_connections() {
        // Window sums 20, 21, ... 40 with a stalled window (4) among
        // them: the fastest tenth starts at 38 per 0.1 s.
        let a: Vec<u64> = (0..21).map(|k| if k == 7 { 2 } else { 10 + k }).collect();
        let b: Vec<u64> = (0..21).map(|k| if k == 7 { 2 } else { 10 }).collect();
        let rate = fast_window_rate([&a[..], &b[..]].into_iter(), 0.1);
        assert_eq!(rate, 380.0);
        assert_eq!(fast_window_rate(std::iter::empty(), 0.1), 0.0);
    }
}
