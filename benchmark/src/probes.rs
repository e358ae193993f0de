//! Per-layer probes: each times calls into one layer's public functions
//! with the other layers out of the way. They do not depend on the
//! workload; a traced run of any workload reports all of them beside the
//! counts and spans of that workload.
//!
//! Small calls are timed in batches and reported as the median batch's
//! time per call, at rank 10 unless the name says otherwise.

use crate::gen::{paper_config, Mix, Req, SplitMix64, RANK_TOP_K};
use crate::report::Outcome;
use crate::serve;
use crate::stats;
use crate::trace::{self, Tracer};
use dmf_core::provider::ClassLabelProvider;
use dmf_core::runner::SimnetRunner;
use dmf_core::session::RemoteRtt;
use dmf_core::{DmfsgdConfig, EpochView, ExchangeFidelity, SessionBuilder, SgdParams};
use dmf_datasets::rtt::meridian_like;
use dmf_eval::collect_scores;
use dmf_eval::roc::auc;
use dmf_linalg::Matrix;
use dmf_proto::{
    decode, decode_v2, encode, encode_v2, DecoderContext, EncoderContext, Message, MessageV2,
    WireVersion,
};
use dmf_service::{
    loopback_pair, PredictionService, ProtocolDecode, ProtocolEncode, Request, RequestKind,
    Response, ServerConnection, ServiceClient, ServiceMetrics,
};
use dmf_simnet::{EventQueue, NetConfig, ShardedSimNet, SimNet};
use std::hint::black_box;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

const RANK: usize = 10;
/// Time spent on each small-call probe.
const BUDGET: Duration = Duration::from_millis(30);
/// Population of the service and view probes (the serving workloads').
const SERVICE_NODES: usize = serve::NODES;

/// Median nanoseconds per call of `f`, over batches that fill `BUDGET`.
fn per_call_ns(mut f: impl FnMut()) -> f64 {
    // Grow the batch until one takes 100 µs or more, so the clock reads
    // cost nothing beside it.
    let mut batch = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        if t.elapsed() >= Duration::from_micros(100) || batch >= 1 << 24 {
            break;
        }
        batch *= 4;
    }
    let mut samples = Vec::new();
    let start = Instant::now();
    while start.elapsed() < BUDGET || samples.len() < 9 {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    stats::median(&samples)
}

/// Median wall seconds of `f` over `reps` runs, with the last result.
fn wall_s<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let (last, walls) = trace::repeat_timed(reps, &mut Tracer::off(), "probe", |_| f());
    (stats::median(&walls), last)
}

fn coords(rng: &mut SplitMix64) -> Vec<f64> {
    (0..RANK)
        .map(|_| (rng.below(2_000) as f64 - 1_000.0) / 1_000.0)
        .collect()
}

/// The probes' populations are all seeded alike.
fn config(k: usize) -> DmfsgdConfig {
    paper_config(k, 17)
}

/// Runs every probe and stores the results in `out`. Values a workload
/// measured itself, on its own run, are left as they are.
pub fn run_all(out: &mut Outcome) {
    let mut set = |name: &'static str, value: f64| {
        out.values.entry(name).or_insert(value);
    };
    let mut rng = SplitMix64::new(0x0BE5);
    linalg(&mut set, &mut rng);
    core_and_eval(&mut set, &mut rng);
    simnet(&mut set);
    proto(&mut set, &mut rng);
    service(&mut set);
    set("trace.span_ns", {
        let mut tr = Tracer::new(Instant::now());
        let per = per_call_ns(|| {
            let s = tr.enter("probe", (0, 0));
            tr.exit(s);
        });
        black_box(tr.into_spans().len());
        per
    });
}

fn linalg(set: &mut impl FnMut(&'static str, f64), rng: &mut SplitMix64) {
    let (a, b) = (coords(rng), coords(rng));
    let mut y = coords(rng);
    set(
        "linalg.dot_ns",
        per_call_ns(|| {
            black_box(dmf_linalg::kernels::dot(black_box(&a), black_box(&b)));
        }),
    );
    set(
        "linalg.axpby_ns",
        per_call_ns(|| {
            // beta·y + alpha·x with |beta| < 1 keeps y bounded.
            dmf_linalg::kernels::axpby(black_box(&mut y), 0.99, 0.01, black_box(&a));
        }),
    );
    let u = Matrix::from_fn(1000, RANK, |i, j| ((i * 31 + j * 7) % 13) as f64 / 13.0);
    let v = Matrix::from_fn(1000, RANK, |i, j| ((i * 17 + j * 3) % 11) as f64 / 11.0);
    let mut product = Matrix::zeros(0, 0);
    let (per, ()) = wall_s(15, || {
        u.matmul_nt_into(black_box(&v), &mut product);
        black_box(&product);
    });
    set("linalg.matmul_nt_entries_per_s", 1e6 / per);
}

fn core_and_eval(set: &mut impl FnMut(&'static str, f64), rng: &mut SplitMix64) {
    let params = SgdParams {
        eta: 0.1,
        lambda: 0.1,
        loss: dmf_core::Loss::Logistic,
    };
    let fixed = coords(rng);
    let mut updated = coords(rng);
    let mut flip = 1.0;
    set(
        "core.sgd_step_ns",
        per_call_ns(|| {
            flip = -flip;
            dmf_core::update::sgd_step(black_box(&mut updated), black_box(&fixed), flip, &params);
        }),
    );

    // datasets + the n = 1000 session the training and evaluation
    // probes share.
    let (per, dataset) = wall_s(3, || meridian_like(1000, 23));
    set("datasets.meridian_like_s_n1000", per);
    let tau = dataset.median();
    let (per, class) = wall_s(5, || dataset.classify(tau));
    set("datasets.classify_s_n1000", per);
    let mut session = SessionBuilder::from_config(config(32))
        .nodes(1000)
        .build()
        .expect("paper defaults are valid");
    let mut provider = ClassLabelProvider::new(class.clone());
    let ticks = 400_000;
    let (per, _) = wall_s(3, || {
        session
            .run(ticks, &mut provider)
            .expect("provider covers the session")
    });
    set("core.run_updates_per_s", ticks as f64 / per);
    let mut scores = Matrix::zeros(0, 0);
    let (per, ()) = wall_s(15, || {
        session.predicted_scores_into(&mut scores);
        black_box(&scores);
    });
    set("core.predicted_scores_entries_per_s", 1e6 / per);
    let pairs = (1000 * 999) as f64;
    let (per, samples) = wall_s(5, || collect_scores(&class, &scores));
    set("eval.collect_scores_pairs_per_s", pairs / per);
    let (per, _) = wall_s(3, || auc(black_box(&samples)));
    set("eval.auc_pairs_per_s", pairs / per);

    // The three exchange modes behind probe-wire's v2, on one input.
    let small = meridian_like(500, 29);
    let runner = |f: fn(SimnetRunner) -> SimnetRunner| {
        let tau = small.median();
        let mut r = f(
            SimnetRunner::new(small.clone(), tau, config(32), NetConfig::default())
                .expect("paper defaults are valid"),
        );
        let t = Instant::now();
        let cycles = r.run_for(300.0).expect("positive duration");
        cycles as f64 / t.elapsed().as_secs_f64()
    };
    set("core.runner_fused_cycles_per_s", runner(|r| r));
    set(
        "core.runner_permsg_cycles_per_s",
        runner(|r| r.with_exchange_fidelity(ExchangeFidelity::PerMessage)),
    );
    set(
        "core.runner_wire_v1_cycles_per_s",
        runner(|r| r.with_wire_version(WireVersion::V1)),
    );

    // The shard write path's session calls and the published view.
    let mut session = SessionBuilder::from_config(config(10))
        .nodes(SERVICE_NODES)
        .build()
        .expect("paper defaults are valid");
    let (u_j, v_j) = (coords(rng), coords(rng));
    let mut i = 0;
    set(
        "core.apply_rtt_remote_ns",
        per_call_ns(|| {
            i = (i + 7) % SERVICE_NODES;
            session
                .apply_rtt_remote(i, 1.0, black_box(&u_j), black_box(&v_j))
                .expect("valid update");
        }),
    );
    let mut pre_scores = Vec::new();
    for (name, size) in [
        ("core.apply_batch_ns_b1", 1usize),
        ("core.apply_batch_ns_b16", 16),
        ("core.apply_batch_ns_b64", 64),
    ] {
        let batch: Vec<RemoteRtt> = (0..size)
            .map(|k| RemoteRtt {
                i: (k * 13) % SERVICE_NODES,
                x: if k % 3 == 0 { -1.0 } else { 1.0 },
                u_j: &u_j,
                v_j: &v_j,
            })
            .collect();
        let per_batch = per_call_ns(|| {
            session
                .apply_rtt_remote_batch(black_box(&batch), &mut pre_scores)
                .expect("valid batch");
        });
        set(name, per_batch / size as f64);
    }
    let view = EpochView::capture(&session);
    let slot = session.node(5).expect("node 5 exists").coords.clone();
    set(
        "core.epoch_publish_ns",
        per_call_ns(|| {
            i = (i + 7) % SERVICE_NODES;
            view.publish_slot(i, black_box(&slot), true)
                .expect("slot fits the view");
        }),
    );
    let (mut u, mut v) = (vec![0.0; RANK], vec![0.0; RANK]);
    let mut read = || {
        i = (i + 7) % SERVICE_NODES;
        black_box(view.read_into(i, &mut u, &mut v));
    };
    set("core.epoch_read_ns", per_call_ns(&mut read));
    // The same read while a second thread republishes slots flat out.
    let stop = AtomicBool::new(false);
    let contended = thread::scope(|scope| {
        scope.spawn(|| {
            let mut k = 0;
            while !stop.load(Ordering::Relaxed) {
                k = (k + 7) % SERVICE_NODES;
                view.publish_slot(k, &slot, true)
                    .expect("slot fits the view");
            }
        });
        let per = per_call_ns(&mut read);
        stop.store(true, Ordering::Relaxed);
        per
    });
    set("core.epoch_read_contended_ns", contended);
    set(
        "core.epoch_predict_ns",
        per_call_ns(|| {
            i = (i + 7) % SERVICE_NODES;
            black_box(
                view.predict(i, (i + 1) % SERVICE_NODES)
                    .expect("valid pair"),
            );
        }),
    );
    let mut ranked = Vec::new();
    set(
        "core.epoch_rank_ns",
        per_call_ns(|| {
            i = (i + 7) % SERVICE_NODES;
            view.rank_neighbors_into(i, usize::from(RANK_TOP_K), &mut ranked)
                .expect("valid id");
        }),
    );
}

fn simnet(set: &mut impl FnMut(&'static str, f64)) {
    // Schedule + pop with 10 k events pending.
    let mut queue: EventQueue<u32> = EventQueue::with_capacity(16_384);
    let mut rng = SplitMix64::new(3);
    for k in 0..10_000u32 {
        queue.schedule_after(rng.below(1_000_000) as f64 * 1e-6, k);
    }
    set(
        "simnet.queue_ns_per_event",
        per_call_ns(|| {
            let (_, e) = queue.pop().expect("queue stays full");
            queue.schedule_after(1.0 + rng.below(1_000_000) as f64 * 1e-6, e);
        }),
    );
    let n = 1024;
    let mut net: SimNet<u32> = SimNet::uniform(n, 0.01, NetConfig::default());
    let mut k = 0;
    set(
        "simnet.roundtrip_ns",
        per_call_ns(|| {
            k = (k + 7) % n;
            net.roundtrip(k, (k + 1) % n, 0);
            black_box(net.next_delivery());
        }),
    );
    set(
        "simnet.send_ns",
        per_call_ns(|| {
            k = (k + 7) % n;
            net.send(k, (k + 1) % n, 0);
            black_box(net.next_delivery());
        }),
    );
    let n = 4096;
    let mut sharded: ShardedSimNet<u32> = ShardedSimNet::uniform(n, 16, 0.01, NetConfig::default());
    set(
        "simnet.sharded_roundtrip_ns",
        per_call_ns(|| {
            k = (k + 1031) % n;
            sharded.roundtrip(k, (k + 1) % n, 0);
            black_box(sharded.next_delivery());
        }),
    );
    // The sim-fused population: 100 k nodes, islands of 256, grid delays.
    let t = Instant::now();
    let big: ShardedSimNet<u32> = ShardedSimNet::from_delay_fn(
        100_000,
        100_000usize.div_ceil(256),
        NetConfig::default(),
        crate::batch::geometric_delay_s(100_000),
    );
    set("simnet.build_s_100k", t.elapsed().as_secs_f64());
    drop(big);
}

fn proto(set: &mut impl FnMut(&'static str, f64), rng: &mut SplitMix64) {
    // v2: a reply's coordinate block through encoder context, codec and
    // decoder context, the ack fed back as a live pair would. The runner
    // keeps one context pair per (node, neighbor); 4096 pairs visited in
    // turn keep this probe's contexts as cold as the runner's are.
    const PAIRS: usize = 4096;
    let mut pairs: Vec<(EncoderContext, DecoderContext, Vec<f64>)> = (0..PAIRS)
        .map(|_| {
            let block = coords(rng).into_iter().chain(coords(rng)).collect();
            (EncoderContext::new(), DecoderContext::new(), block)
        })
        .collect();
    let (mut enc_samples, mut dec_samples) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut nonce = 0u32;
    while start.elapsed() < BUDGET * 4 || enc_samples.len() < 20 {
        let (mut enc_ns, mut dec_ns) = (0u128, 0u128);
        for (enc, dec, block) in &mut pairs {
            // A small drift, as one SGD step would cause.
            for c in block.iter_mut() {
                *c += 1e-3;
            }
            nonce = nonce.wrapping_add(1);
            let t0 = Instant::now();
            let update = enc.encode(black_box(block));
            let wire = encode_v2(&MessageV2::RttReply { nonce, update });
            let t1 = Instant::now();
            let msg = decode_v2(black_box(&wire)).expect("own encoding decodes");
            let update = msg.update().expect("a reply carries an update");
            black_box(dec.apply(update).expect("in-order stream applies"));
            let t2 = Instant::now();
            enc_ns += (t1 - t0).as_nanos();
            dec_ns += (t2 - t1).as_nanos();
            if let Some(ack) = dec.ack() {
                enc.on_ack(ack);
            }
        }
        enc_samples.push(enc_ns as f64 / PAIRS as f64);
        dec_samples.push(dec_ns as f64 / PAIRS as f64);
    }
    set("proto.v2_encode_ns", stats::median(&enc_samples));
    set("proto.v2_decode_ns", stats::median(&dec_samples));

    let reply = Message::RttReply {
        nonce: 42,
        u: coords(rng),
        v: coords(rng),
    };
    let wire = encode(&reply);
    set(
        "proto.v1_encode_ns",
        per_call_ns(|| {
            black_box(encode(black_box(&reply)));
        }),
    );
    set(
        "proto.v1_decode_ns",
        per_call_ns(|| {
            black_box(decode(black_box(&wire)).expect("own encoding decodes"));
        }),
    );
}

/// Encode, head check and parse of one frame, through `buf`.
fn codec_round<T: ProtocolEncode + ProtocolDecode>(frame: &T, buf: &mut Vec<u8>) {
    buf.clear();
    frame.encode(buf);
    let ControlFlow::Break(len) = T::check(buf).expect("own encoding checks") else {
        panic!("a whole frame is buffered");
    };
    black_box(T::consume(&buf[..len]).expect("own encoding parses"));
}

/// Seeded requests for the in-thread pumps: the `serve-read` mix.
fn pump_requests(count: usize) -> Vec<Req> {
    let mut rng = SplitMix64::new(0x9E37);
    let n = SERVICE_NODES as u64;
    (0..count)
        .map(|_| {
            let (i, j) = rng.distinct_pair(n);
            Mix::SERVE_READ.pick(rng.below(100), i as u32, j as u32, || 1.0)
        })
        .collect()
}

fn service(set: &mut impl FnMut(&'static str, f64)) {
    let (per, svc) = wall_s(3, || {
        PredictionService::build(config(10), SERVICE_NODES, serve::SHARDS)
            .expect("paper defaults are valid")
    });
    set("service.build_ms", 1e3 * per);
    let svc = Arc::new(svc);
    let n = SERVICE_NODES;
    let mut i = 0;
    set(
        "service.predict_ns",
        per_call_ns(|| {
            i = (i + 7) % n;
            black_box(svc.predict(i, (i + 513) % n).expect("valid pair"));
        }),
    );
    let mut ranked = Vec::new();
    set(
        "service.rank_ns",
        per_call_ns(|| {
            i = (i + 7) % n;
            svc.rank_neighbors_into(i, usize::from(RANK_TOP_K), &mut ranked)
                .expect("valid id");
        }),
    );
    set(
        "service.update_ns",
        per_call_ns(|| {
            i = (i + 7) % n;
            svc.update_rtt(i, (i + 513) % n, 1.0).expect("valid update");
        }),
    );
    // Two threads on one shard: the first half of the id space.
    let half = n / serve::SHARDS;
    let stop = AtomicBool::new(false);
    let contended = thread::scope(|scope| {
        scope.spawn(|| {
            let mut k = 0;
            while !stop.load(Ordering::Relaxed) {
                k = (k + 11) % half;
                // A full queue is backpressure, not an error here.
                let _ = svc.update_rtt(k, (k + 1) % half, -1.0);
            }
        });
        let per = per_call_ns(|| {
            i = (i + 7) % half;
            let _ = svc.update_rtt(i, (i + 3) % half, 1.0);
        });
        stop.store(true, Ordering::Relaxed);
        per
    });
    set("service.update_contended_ns", contended);

    let mut buf = Vec::new();
    let req = Request::Predict {
        seq: 9,
        i: 3,
        j: 700,
    };
    set(
        "service.req_codec_ns",
        per_call_ns(|| codec_round(black_box(&req), &mut buf)),
    );
    let value = Response::Value {
        seq: 9,
        value: 0.731,
    };
    set(
        "service.resp_codec_predict_ns",
        per_call_ns(|| codec_round(black_box(&value), &mut buf)),
    );
    let ranked = Response::Ranked {
        seq: 9,
        entries: (0..u32::from(RANK_TOP_K))
            .map(|k| (k * 97, 1.0 - f64::from(k) * 0.1))
            .collect(),
    };
    set(
        "service.resp_codec_rank_ns",
        per_call_ns(|| codec_round(black_box(&ranked), &mut buf)),
    );

    // One hand-off through the loopback pipe: half an echo round trip.
    let (a, b) = loopback_pair();
    let echo = thread::spawn(move || {
        let mut buf = Vec::new();
        loop {
            buf.clear();
            if b.recv(&mut buf) == 0 {
                return;
            }
            b.send(&buf);
        }
    });
    let mut rx = Vec::new();
    let round_trip = per_call_ns(|| {
        a.send(&[1]);
        rx.clear();
        a.recv(&mut rx);
    });
    a.close();
    echo.join().expect("echo thread");
    set("service.loopback_handoff_us", round_trip / 2.0 / 1e3);

    // Draining `count` buffered responses, per response.
    for (name, count) in [
        ("service.client_poll_ns_b64", 64usize),
        ("service.client_poll_ns_b4096", 4096),
    ] {
        let mut stream = Vec::new();
        for seq in 0..count as u32 {
            Response::Value { seq, value: 0.5 }.encode(&mut stream);
        }
        let mut client = ServiceClient::new();
        let per_burst = per_call_ns(|| {
            client.ingest(black_box(&stream));
            while let Some(resp) = client.poll().expect("clean stream") {
                black_box(resp);
            }
        });
        set(name, per_burst / count as f64);
    }

    let metrics = ServiceMetrics::new(serve::SHARDS);
    set(
        "ops.record_request_ns",
        per_call_ns(|| metrics.record_request(RequestKind::Predict, true, black_box(12))),
    );
    // Instrumented over plain throughput of the same in-thread pump,
    // alternating the two so drift hits both alike.
    let requests = pump_requests(64 * 1024);
    let mut plain = ServerConnection::new(Arc::clone(&svc), serve::IN_FLIGHT_CAP);
    let mut instrumented = ServerConnection::with_metrics(
        Arc::clone(&svc),
        serve::IN_FLIGHT_CAP,
        Arc::new(ServiceMetrics::new(serve::SHARDS)),
    );
    let (mut plain_s, mut instrumented_s) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        for (conn, walls) in [
            (&mut plain, &mut plain_s),
            (&mut instrumented, &mut instrumented_s),
        ] {
            let t = Instant::now();
            assert!(serve::pump_in_thread(conn, &requests, &mut Tracer::off()));
            walls.push(t.elapsed().as_secs_f64());
        }
    }
    set(
        "ops.instrumented_qps_ratio",
        stats::median(&plain_s) / stats::median(&instrumented_s),
    );
}
