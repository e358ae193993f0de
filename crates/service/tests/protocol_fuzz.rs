//! Mutation fuzzing of the service protocol: encode a corpus of
//! valid request/response frames, then round-trip, truncate,
//! bit-flip, splice and misdirect them, asserting every mutant is
//! rejected with a typed `DecodeError` — never a panic, never a
//! silent mis-decode behind a passing checksum.
//!
//! Small errors are *guaranteed* detectable: the service protocol
//! reuses `dmf-proto`'s CRC32C trailer, which detects every error
//! burst of at most 32 bits and, at these frame lengths, every error
//! of one to three bits (the argument in `dmf-proto`'s mutation
//! suite carries over verbatim); splices rely on the 2⁻³² collision
//! bound, which is sound for any realistic case count.

use dmf_service::{ErrorCode, ProtocolDecode, ProtocolEncode, Request, Response, HEADER_LEN};
use proptest::prelude::*;
use std::ops::ControlFlow;

fn request_corpus() -> Vec<(Request, Vec<u8>)> {
    let reqs = vec![
        Request::Predict { seq: 0, i: 1, j: 2 },
        Request::Predict {
            seq: u32::MAX,
            i: u32::MAX,
            j: 0,
        },
        Request::PredictClass {
            seq: 3,
            i: 40,
            j: 7,
        },
        Request::RankNeighbors {
            seq: 4,
            i: 9,
            top_k: u16::MAX,
        },
        Request::Update {
            seq: 5,
            i: 11,
            j: 12,
            x: -1.0,
        },
        Request::Update {
            seq: 6,
            i: 0,
            j: 1,
            x: 0.015625,
        },
        Request::Snapshot { seq: 7, shard: 3 },
    ];
    reqs.into_iter()
        .map(|r| {
            let mut b = Vec::new();
            r.encode(&mut b);
            (r, b)
        })
        .collect()
}

fn response_corpus() -> Vec<(Response, Vec<u8>)> {
    let resps = vec![
        Response::Value {
            seq: 0,
            value: -3.25,
        },
        Response::Class { seq: 1, class: 1 },
        Response::Class { seq: 2, class: -1 },
        Response::Ranked {
            seq: 3,
            entries: vec![(7, 2.5), (1, 2.5), (0, -1.0)],
        },
        Response::Ranked {
            seq: 4,
            entries: Vec::new(),
        },
        Response::Updated { seq: 5 },
        Response::SnapshotData {
            seq: 6,
            json: br#"{"schema_version":3}"#.to_vec(),
        },
        Response::Error {
            seq: 7,
            code: ErrorCode::Overloaded,
            message: "in-flight window full (64 requests)".to_string(),
        },
        Response::Error {
            seq: 8,
            code: ErrorCode::Membership,
            message: String::new(),
        },
    ];
    resps
        .into_iter()
        .map(|r| {
            let mut b = Vec::new();
            r.encode(&mut b);
            (r, b)
        })
        .collect()
}

/// All corpus frames, both directions, for the byte-level mutations.
fn all_frames() -> Vec<Vec<u8>> {
    request_corpus()
        .into_iter()
        .map(|(_, b)| b)
        .chain(response_corpus().into_iter().map(|(_, b)| b))
        .collect()
}

fn pick(frames: &[Vec<u8>], seed: usize) -> Vec<u8> {
    frames[seed % frames.len()].clone()
}

/// Decoding a mutated frame through whichever direction accepts its
/// type tag; an error from both directions counts as rejection.
fn decode_either(frame: &[u8]) -> Result<(), ()> {
    let req = Request::check(frame);
    let resp = Response::check(frame);
    let ok_as = |r: Result<ControlFlow<usize, usize>, dmf_proto::DecodeError>, is_req: bool| match r
    {
        Ok(ControlFlow::Break(len)) if len == frame.len() => {
            if is_req {
                Request::consume(frame).map(|_| ()).map_err(|_| ())
            } else {
                Response::consume(frame).map(|_| ()).map_err(|_| ())
            }
        }
        _ => Err(()),
    };
    ok_as(req, true).or_else(|_| ok_as(resp, false))
}

/// Every single-bit flip and every pair of flipped bits, in every
/// corpus frame, trailer included, is refused.
#[test]
fn checksum_refuses_every_one_and_two_bit_flip() {
    for mut frame in all_frames() {
        let bits = frame.len() * 8;
        let flip = |frame: &mut [u8], bit: usize| frame[bit / 8] ^= 1 << (bit % 8);
        for a in 0..bits {
            flip(&mut frame, a);
            assert!(
                decode_either(&frame).is_err(),
                "flipped bit {a} must be refused"
            );
            for b in a + 1..bits {
                flip(&mut frame, b);
                assert!(
                    decode_either(&frame).is_err(),
                    "flipped bits {a} and {b} must be refused"
                );
                flip(&mut frame, b);
            }
            flip(&mut frame, a);
        }
    }
}

#[test]
fn every_corpus_frame_round_trips() {
    for (req, bytes) in request_corpus() {
        assert_eq!(
            Request::check(&bytes).unwrap(),
            ControlFlow::Break(bytes.len())
        );
        assert_eq!(Request::consume(&bytes).unwrap(), req);
    }
    for (resp, bytes) in response_corpus() {
        assert_eq!(
            Response::check(&bytes).unwrap(),
            ControlFlow::Break(bytes.len())
        );
        assert_eq!(Response::consume(&bytes).unwrap(), resp);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary requests round-trip bit-exactly (finite update
    /// values; non-finite ones are rejected by construction).
    #[test]
    fn arbitrary_requests_round_trip(
        seq in any::<u32>(),
        i in any::<u32>(),
        j in any::<u32>(),
        top_k in any::<u16>(),
        shard in any::<u16>(),
        x in -1.0e300f64..1.0e300,
        kind in 0usize..5,
    ) {
        let req = match kind {
            0 => Request::Predict { seq, i, j },
            1 => Request::PredictClass { seq, i, j },
            2 => Request::RankNeighbors { seq, i, top_k },
            3 => Request::Update { seq, i, j, x },
            _ => Request::Snapshot { seq, shard },
        };
        let mut bytes = Vec::new();
        req.encode(&mut bytes);
        prop_assert_eq!(Request::check(&bytes).unwrap(), ControlFlow::Break(bytes.len()));
        prop_assert_eq!(Request::consume(&bytes).unwrap(), req);
    }

    /// Arbitrary well-formed responses round-trip bit-exactly.
    #[test]
    fn arbitrary_responses_round_trip(
        seq in any::<u32>(),
        value in -1.0e300f64..1.0e300,
        entries in proptest::collection::vec((any::<u32>(), -1.0e300f64..1.0e300), 0..40),
        message_bytes in proptest::collection::vec(0x20u8..0x7F, 0..120),
        kind in 0usize..5,
    ) {
        let message = String::from_utf8(message_bytes).expect("printable ASCII");
        let resp = match kind {
            0 => Response::Value { seq, value },
            1 => Response::Class { seq, class: if seq.is_multiple_of(2) { 1 } else { -1 } },
            2 => Response::Ranked { seq, entries },
            3 => Response::Updated { seq },
            _ => Response::Error { seq, code: ErrorCode::BadRequest, message },
        };
        let mut bytes = Vec::new();
        resp.encode(&mut bytes);
        prop_assert_eq!(Response::check(&bytes).unwrap(), ControlFlow::Break(bytes.len()));
        prop_assert_eq!(Response::consume(&bytes).unwrap(), resp);
    }

    /// Every proper prefix of every frame is incomplete (check asks
    /// for more) or rejected — consume never accepts a truncation.
    #[test]
    fn truncation_never_decodes(frame_seed in any::<usize>(), cut in 1usize..64) {
        let frame = pick(&all_frames(), frame_seed);
        let keep = frame.len().saturating_sub(cut.min(frame.len()));
        let head = &frame[..keep];
        // check either wants more bytes or errors; consume must error.
        if let Ok(ControlFlow::Break(len)) = Request::check(head) {
            prop_assert!(len < head.len() || Request::consume(head).is_err());
        }
        if let Ok(ControlFlow::Break(len)) = Response::check(head) {
            prop_assert!(len < head.len() || Response::consume(head).is_err());
        }
        prop_assert!(decode_either(head).is_err());
    }

    /// Every single-bit flip is rejected — strictly, not
    /// probabilistically (CRC32C detects every burst of ≤ 32 bits).
    #[test]
    fn single_bit_flip_always_rejected(frame_seed in any::<usize>(), bit_seed in any::<usize>()) {
        let mut frame = pick(&all_frames(), frame_seed);
        let bit = bit_seed % (frame.len() * 8);
        frame[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(decode_either(&frame).is_err(), "flipped bit {} must be detected", bit);
    }

    /// Splicing random bytes over a random region is rejected
    /// whenever it changes the frame at all.
    #[test]
    fn splice_always_rejected(
        frame_seed in any::<usize>(),
        at_seed in any::<usize>(),
        cut in 0usize..16,
        replacement in proptest::collection::vec(any::<u8>(), 0..24),
    ) {
        let frame = pick(&all_frames(), frame_seed);
        let at = at_seed % frame.len();
        let end = (at + cut).min(frame.len());
        let mut spliced = frame.clone();
        spliced.splice(at..end, replacement);
        prop_assume!(spliced != frame);
        prop_assert!(decode_either(&spliced).is_err());
    }

    /// Concatenating two frames never decodes as one: the stream
    /// decoder consumes exactly the first frame, and single-frame
    /// consume rejects the tail as a length mismatch.
    #[test]
    fn concatenation_is_framed_not_confused(a_seed in any::<usize>(), b_seed in any::<usize>()) {
        let frames = all_frames();
        let a = pick(&frames, a_seed);
        let mut glued = a.clone();
        glued.extend_from_slice(&pick(&frames, b_seed));
        // Single-frame consume rejects...
        prop_assert!(Request::consume(&glued).is_err());
        prop_assert!(Response::consume(&glued).is_err());
        // ...while stream check reports exactly the first frame.
        let checked = Request::check(&glued).or_else(|_| Response::check(&glued)).unwrap();
        prop_assert_eq!(checked, ControlFlow::Break(a.len()));
    }

    /// A frame fed to the wrong direction is a typed BadType, caught
    /// at the header — before any payload allocation.
    #[test]
    fn direction_misdelivery_is_typed(req_seed in any::<usize>(), resp_seed in any::<usize>()) {
        let req = pick(&request_corpus().into_iter().map(|(_, b)| b).collect::<Vec<_>>(), req_seed);
        let resp = pick(&response_corpus().into_iter().map(|(_, b)| b).collect::<Vec<_>>(), resp_seed);
        prop_assert_eq!(Response::check(&req).unwrap_err(), dmf_proto::DecodeError::BadType);
        prop_assert_eq!(Request::check(&resp).unwrap_err(), dmf_proto::DecodeError::BadType);
        prop_assert!(req.len() >= HEADER_LEN && resp.len() >= HEADER_LEN);
    }
}
