//! Pipelining conformance: determinism of the response byte stream,
//! sustained in-flight depth, and typed overload rejection —
//! including a threaded stress run over the loopback transport.

use dmf_core::{DmfsgdConfig, DmfsgdError, SessionBuilder};
use dmf_service::{
    loopback_pair, serve_loopback, ErrorCode, PredictionService, ProtocolDecode, ProtocolEncode,
    Request, Response, ServerConnection, ServiceClient,
};
use std::ops::ControlFlow;
use std::sync::{Arc, Barrier};
use std::thread;

fn paper_config(n: usize, seed: u64) -> DmfsgdConfig {
    let s = SessionBuilder::new()
        .nodes(n)
        .seed(seed)
        .build()
        .expect("valid defaults");
    *s.config()
}

fn service(n: usize, seed: u64, shards: usize) -> Arc<PredictionService> {
    Arc::new(PredictionService::build(paper_config(n, seed), n, shards).expect("service"))
}

/// A deterministic pipelined request stream mixing the service's
/// message kinds, with a whole-service snapshot every 100 requests.
fn request_stream(n: u32, ops: usize) -> Vec<u8> {
    let mut client = ServiceClient::new();
    let mut wire = Vec::new();
    for s in 0..ops as u32 {
        let i = (s * 7) % n;
        let j = (i + 1 + (s * 5) % (n - 1)) % n;
        match s % 4 {
            0 => client.submit_update(i, j, if s % 3 == 0 { -1.0 } else { 1.0 }, &mut wire),
            1 => client.submit_predict(i, j, &mut wire),
            2 => client.submit_rank(i, 6, &mut wire),
            _ => client.submit_predict_class(j, i, &mut wire),
        };
        if s % 100 == 99 {
            client.submit_snapshot(0, &mut wire);
        }
    }
    wire
}

/// Pumps one fixed byte stream through a fresh service with the given
/// shard count, chunked at `chunk` bytes per ingest; returns the raw
/// response bytes.
fn pump(shards: usize, stream: &[u8], chunk: usize, window: usize) -> Vec<u8> {
    let mut conn = ServerConnection::new(service(32, 5, shards), window);
    let mut out = Vec::new();
    for part in stream.chunks(chunk) {
        conn.ingest(part, &mut out).expect("clean stream");
        conn.drain(&mut out);
    }
    conn.drain(&mut out);
    out
}

#[test]
fn response_stream_is_byte_identical_across_shard_counts() {
    let stream = request_stream(32, 500);
    let reference = pump(1, &stream, 17, 256);
    for shards in [2usize, 4, 8] {
        let got = pump(shards, &stream, 17, 256);
        assert_eq!(
            got, reference,
            "{shards} shards must produce the identical response byte stream"
        );
    }
}

#[test]
fn response_stream_is_invariant_to_chunking_and_window() {
    let stream = request_stream(32, 300);
    let reference = pump(4, &stream, stream.len(), 512);
    for chunk in [1usize, 7, 64] {
        assert_eq!(pump(4, &stream, chunk, 512), reference, "chunk {chunk}");
    }
    // A window large enough to admit everything never rejects, so the
    // stream is also window-invariant above the high-water mark.
    assert_eq!(pump(4, &stream, 17, 300), reference);
}

#[test]
fn connection_sustains_64_in_flight_with_bounded_memory() {
    let svc = service(32, 6, 4);
    let mut conn = ServerConnection::new(svc, 64);
    let mut client = ServiceClient::new();
    let mut out = Vec::new();
    let mut answered = 0usize;

    // 20 rounds: fill the window to exactly 64, then drain — the
    // admission queue never exceeds the window, whatever the client
    // pushes.
    for round in 0..20u32 {
        let mut wire = Vec::new();
        for k in 0..64u32 {
            let i = (round * 64 + k) % 32;
            client.submit_predict(i, (i + 1) % 32, &mut wire);
        }
        conn.ingest(&wire, &mut out).expect("clean stream");
        assert_eq!(conn.in_flight(), 64, "round {round} fills the window");
        assert_eq!(conn.overload_rejections(), 0);
        answered += conn.drain(&mut out);
        assert_eq!(conn.in_flight(), 0);
    }
    assert_eq!(answered, 20 * 64);

    // Every submitted request got exactly one response, in order.
    let mut seqs = Vec::new();
    let mut bytes = &out[..];
    while !bytes.is_empty() {
        let ControlFlow::Break(len) = Response::check(bytes).expect("well-formed") else {
            panic!("truncated stream");
        };
        seqs.push(Response::consume(&bytes[..len]).expect("decodes").seq());
        bytes = &bytes[len..];
    }
    assert_eq!(seqs, (0..20 * 64).collect::<Vec<u32>>());
}

#[test]
fn the_65th_in_flight_request_is_rejected_with_a_typed_overload() {
    let mut conn = ServerConnection::new(service(32, 6, 2), 64);
    let mut wire = Vec::new();
    for seq in 0..65u32 {
        Request::Predict { seq, i: 0, j: 1 }.encode(&mut wire);
    }
    let mut out = Vec::new();
    conn.ingest(&wire, &mut out).expect("clean stream");
    assert_eq!(conn.in_flight(), 64);
    assert_eq!(conn.overload_rejections(), 1);

    // The rejection is already on the wire, before any execution.
    let ControlFlow::Break(len) = Response::check(&out).expect("well-formed") else {
        panic!("rejection not flushed");
    };
    let rejection = Response::consume(&out[..len]).expect("decodes");
    assert!(matches!(
        rejection,
        Response::Error {
            seq: 64,
            code: ErrorCode::Overloaded,
            ..
        }
    ));
    // And the client-side fold pins the typed error.
    let err = rejection.into_result().unwrap_err();
    assert!(
        matches!(&err, DmfsgdError::Transport(m) if m.contains("Overloaded")),
        "got {err:?}"
    );

    // All 64 admitted requests still complete exactly once.
    out.clear();
    assert_eq!(conn.drain(&mut out), 64);
}

#[test]
fn threaded_loopback_round_trip_under_pipelined_mixed_traffic() {
    let svc = service(40, 9, 4);
    let (server_end, client_end) = loopback_pair();
    let conn = ServerConnection::new(svc, 64);
    let server = thread::spawn(move || serve_loopback(conn, server_end));

    let mut client = ServiceClient::new();
    let mut wire = Vec::new();
    let mut responses = Vec::new();
    let total = 1_000u32;
    let mut submitted = 0u32;
    let mut rx = Vec::new();
    while responses.len() < total as usize {
        // Keep up to 48 in flight (below the server window: no
        // rejections expected in this test).
        while submitted < total && client.outstanding() < 48 {
            let i = (submitted * 11) % 40;
            let j = (i + 1 + submitted % 39) % 40;
            match submitted % 3 {
                0 => client.submit_update(i, j, 1.0, &mut wire),
                1 => client.submit_predict(i, j, &mut wire),
                _ => client.submit_rank(i, 5, &mut wire),
            };
            submitted += 1;
        }
        if !wire.is_empty() {
            client_end.send(&wire);
            wire.clear();
        }
        rx.clear();
        if client_end.recv(&mut rx) == 0 {
            panic!("server closed early");
        }
        client.ingest(&rx);
        while let Some(resp) = client.poll().expect("clean stream") {
            responses.push(resp.into_result().expect("no failures in this schedule"));
        }
    }
    client_end.close();
    server
        .join()
        .expect("server thread")
        .expect("no framing errors");

    // Responses arrive in submission order (in-order execution), one
    // per request.
    let seqs: Vec<u32> = responses.iter().map(Response::seq).collect();
    assert_eq!(seqs, (0..total).collect::<Vec<u32>>());
}

/// One connection's request stream confined to its own node block
/// (`[block * width, (block + 1) * width)`): updates, predicts and
/// class queries whose answers depend only on that block's
/// coordinates. Rank queries are excluded on purpose — neighbor sets
/// span blocks, so their answers legitimately depend on concurrent
/// foreign updates.
fn block_stream(block: u32, width: u32, ops: usize) -> Vec<u8> {
    let mut client = ServiceClient::new();
    let mut wire = Vec::new();
    let base = block * width;
    for s in 0..ops as u32 {
        let i = base + (s * 3) % width;
        let j = base + ((s * 3) % width + 1 + s % (width - 1)) % width;
        match s % 3 {
            0 => client.submit_update(i, j, if s % 5 == 0 { -1.0 } else { 1.0 }, &mut wire),
            1 => client.submit_predict(i, j, &mut wire),
            _ => client.submit_predict_class(j, i, &mut wire),
        };
    }
    wire
}

/// Conformance for the locked write path: the same per-connection
/// schedules produce bit-identical response streams whether the
/// connections are pumped one after another (every shard lock taken
/// uncontended) or all at once against the same service (submitters
/// blocking on each other's shard locks). Two connections share each
/// shard, so the concurrent run genuinely contends the write locks;
/// block confinement makes each connection's answers
/// interleaving-proof.
#[test]
fn contended_updates_match_the_serial_path_bit_for_bit() {
    const CONNS: u32 = 4;
    const WIDTH: u32 = 8;
    const OPS: usize = 600;
    let n = (CONNS * WIDTH) as usize;
    let streams: Vec<Vec<u8>> = (0..CONNS).map(|c| block_stream(c, WIDTH, OPS)).collect();

    // Reference: connections pumped strictly one after another.
    let svc = service(n, 21, 2);
    let reference: Vec<Vec<u8>> = streams
        .iter()
        .map(|stream| {
            let mut conn = ServerConnection::new(Arc::clone(&svc), 64);
            let mut out = Vec::new();
            for part in stream.chunks(48) {
                conn.ingest(part, &mut out).expect("clean stream");
                conn.drain(&mut out);
            }
            out
        })
        .collect();
    let serial_stats = svc.worker_stats();
    assert_eq!(
        serial_stats.iter().map(|s| s.updates).sum::<u64>(),
        (CONNS as u64) * (OPS as u64).div_ceil(3),
        "every update applied"
    );

    // Same schedules, all connections at once, repeated a few rounds
    // to give the schedulers chances to interleave differently.
    for round in 0..3 {
        let svc = service(n, 21, 2);
        let outs: Vec<Vec<u8>> = {
            let handles: Vec<_> = streams
                .iter()
                .map(|stream| {
                    let svc = Arc::clone(&svc);
                    let stream = stream.clone();
                    thread::spawn(move || {
                        let mut conn = ServerConnection::new(svc, 64);
                        let mut out = Vec::new();
                        for part in stream.chunks(48) {
                            conn.ingest(part, &mut out).expect("clean stream");
                            conn.drain(&mut out);
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("conn"))
                .collect()
        };
        for (c, (got, want)) in outs.iter().zip(&reference).enumerate() {
            assert_eq!(
                got, want,
                "round {round}: connection {c}'s response bytes diverged under contention"
            );
        }
        assert_eq!(
            svc.worker_stats().iter().map(|s| s.updates).sum::<u64>(),
            (CONNS as u64) * (OPS as u64).div_ceil(3)
        );
    }
}

/// The scored-update surface under the same contention: the pre-update
/// score sequence each writer observes is bit-identical to the one the
/// single-session oracle produces for its schedule — the shard lock
/// neither reorders a writer's updates nor lets one read half-applied
/// coordinates. Run with 4 writers over 2 shards and with 8 writers
/// all on 1 shard.
#[test]
fn concurrent_scored_updates_match_the_oracle_score_sequences() {
    scored_updates_match_the_oracle(4, 2);
    scored_updates_match_the_oracle(8, 1);
}

fn scored_updates_match_the_oracle(writers: usize, shards: usize) {
    const WIDTH: usize = 8;
    const UPDATES: usize = 300;
    let n = writers * WIDTH;
    let cfg = paper_config(n, 23);
    let schedule = |c: usize, s: usize| {
        let base = c * WIDTH;
        let i = base + (s * 3) % WIDTH;
        let j = base + ((s * 3) % WIDTH + 1 + s % (WIDTH - 1)) % WIDTH;
        (i, j, if s.is_multiple_of(5) { -1.0 } else { 1.0 })
    };

    let mut oracle = SessionBuilder::new()
        .config(cfg)
        .nodes(n)
        .build()
        .expect("oracle");
    let mut want: Vec<Vec<f64>> = vec![Vec::new(); writers];
    for (c, lane) in want.iter_mut().enumerate() {
        for s in 0..UPDATES {
            let (i, j, x) = schedule(c, s);
            let (u_j, v_j) = {
                let node = oracle.node(j).expect("in range");
                (node.coords.u.to_vec(), node.coords.v.to_vec())
            };
            let score = dmf_core::coords::dot(&oracle.node(i).expect("in range").coords.u, &v_j);
            oracle.apply_rtt_remote(i, x, &u_j, &v_j).expect("applies");
            lane.push(score);
        }
    }

    let svc = service(n, 23, shards);
    let start = Arc::new(Barrier::new(writers));
    let handles: Vec<_> = (0..writers)
        .map(|c| {
            let (svc, start) = (Arc::clone(&svc), Arc::clone(&start));
            thread::spawn(move || {
                start.wait();
                (0..UPDATES)
                    .map(|s| {
                        let (i, j, x) = schedule(c, s);
                        svc.update_rtt_scored(i, j, x).expect("applies")
                    })
                    .collect::<Vec<f64>>()
            })
        })
        .collect();
    for (c, handle) in handles.into_iter().enumerate() {
        let got = handle.join().expect("writer");
        assert_eq!(
            got, want[c],
            "{writers} writers on {shards} shards: writer {c}'s score sequence"
        );
    }
    for i in 0..n {
        for j in 0..n {
            if i != j {
                assert_eq!(
                    svc.predict(i, j).expect("serves"),
                    oracle.predict(i, j).expect("serves"),
                    "({i},{j}) after the concurrent run"
                );
            }
        }
    }
}
