//! Every frame's bytes, pinned: one frame of every message kind in
//! the three framed wire formats — probe v1 and v2 (`dmf-proto`) and
//! the service protocol — checksum trailer included.
//!
//! The table below was captured from the encoders and is the contract
//! a refactor of the framing code must keep: the encoders reproduce
//! every row byte for byte, and the decoders read every row back into
//! the message that produced it. A deliberate wire change re-captures
//! the table: a failing row prints the bytes the encoder now writes.

use dmf_ops::{DegradedReason, Health};
use dmf_proto::delta::quantize_keyframe;
use dmf_proto::{
    decode, decode_v2, encode, encode_v2, Ack, CoordUpdate, Message, MessageV2, UpdatePayload,
};
use dmf_service::{ErrorCode, MetricsFormat, ProtocolDecode, ProtocolEncode, Request, Response};

/// A frame of one of the three formats, with the message it encodes.
// A v2 message carries its update block inline, as in `WireMessage`.
#[allow(clippy::large_enum_variant)]
enum Frame {
    V1(Message),
    V2(MessageV2),
    Request(Request),
    Response(Response),
}

impl Frame {
    fn encode(&self) -> Vec<u8> {
        match self {
            Frame::V1(m) => encode(m).to_vec(),
            Frame::V2(m) => encode_v2(m).to_vec(),
            Frame::Request(r) => {
                let mut buf = Vec::new();
                r.encode(&mut buf);
                buf
            }
            Frame::Response(r) => {
                let mut buf = Vec::new();
                r.encode(&mut buf);
                buf
            }
        }
    }

    /// Decodes `bytes` in this frame's format and re-encodes the
    /// result.
    fn reencode(&self, bytes: &[u8]) -> Vec<u8> {
        match self {
            Frame::V1(_) => Frame::V1(decode(bytes).expect("v1 decodes")).encode(),
            Frame::V2(_) => Frame::V2(decode_v2(bytes).expect("v2 decodes")).encode(),
            Frame::Request(_) => {
                Frame::Request(Request::consume(bytes).expect("request decodes")).encode()
            }
            Frame::Response(_) => {
                Frame::Response(Response::consume(bytes).expect("response decodes")).encode()
            }
        }
    }
}

fn frames() -> Vec<(&'static str, Frame)> {
    let keyframe = |seq: u16, coords: &[f64]| CoordUpdate {
        seq,
        payload: UpdatePayload::Keyframe {
            coords: quantize_keyframe(coords),
        },
    };
    let delta = |seq: u16, base_seq: u16, quants: Vec<i8>| CoordUpdate {
        seq,
        payload: UpdatePayload::Delta {
            base_seq,
            scale: 0.0078125, // exactly representable in binary16
            quants: quants.into(),
        },
    };
    vec![
        (
            "v1 RttProbe",
            Frame::V1(Message::RttProbe {
                nonce: 0x0102_0304_0506_0708,
            }),
        ),
        (
            "v1 RttReply",
            Frame::V1(Message::RttReply {
                nonce: 43,
                u: vec![0.1, -0.2, 3.5],
                v: vec![1.0, 2.0, -0.5],
            }),
        ),
        (
            "v1 AbwProbe",
            Frame::V1(Message::AbwProbe {
                nonce: 44,
                rate_mbps: 43.1,
                u: vec![0.9, -1.25],
            }),
        ),
        (
            "v1 AbwReply",
            Frame::V1(Message::AbwReply {
                nonce: 45,
                x: -1.0,
                v: vec![-2.0, 0.0],
            }),
        ),
        (
            "v2 RttProbe",
            Frame::V2(MessageV2::RttProbe {
                nonce: 0x0102_0304,
                ack: Some(Ack {
                    seq: 0xBEEF,
                    want_keyframe: true,
                }),
            }),
        ),
        (
            "v2 RttReply keyframe",
            Frame::V2(MessageV2::RttReply {
                nonce: 3,
                update: keyframe(0, &[0.1, -0.2, 3.5, 1.0, 2.0, -0.5]),
            }),
        ),
        (
            "v2 AbwProbe delta",
            Frame::V2(MessageV2::AbwProbe {
                nonce: 5,
                rate_mbps: 43.0,
                ack: Some(Ack {
                    seq: 3,
                    want_keyframe: false,
                }),
                update: delta(9, 7, vec![1, -127, 0, 127]),
            }),
        ),
        (
            "v2 AbwReply keyframe",
            Frame::V2(MessageV2::AbwReply {
                nonce: 6,
                x: -1.0,
                ack: None,
                update: keyframe(2, &[0.9, -0.5, 0.25]),
            }),
        ),
        (
            "req Predict",
            Frame::Request(Request::Predict {
                seq: 7,
                i: 1,
                j: 0x0A0B_0C0D,
            }),
        ),
        (
            "req PredictClass",
            Frame::Request(Request::PredictClass { seq: 8, i: 3, j: 4 }),
        ),
        (
            "req RankNeighbors",
            Frame::Request(Request::RankNeighbors {
                seq: 9,
                i: 5,
                top_k: 32,
            }),
        ),
        (
            "req Update",
            Frame::Request(Request::Update {
                seq: 10,
                i: 6,
                j: 7,
                x: -1.0,
            }),
        ),
        (
            "req Snapshot",
            Frame::Request(Request::Snapshot { seq: 11, shard: 3 }),
        ),
        (
            "req Metrics",
            Frame::Request(Request::Metrics {
                seq: 12,
                format: MetricsFormat::Json,
            }),
        ),
        ("req Health", Frame::Request(Request::Health { seq: 13 })),
        (
            "resp Value",
            Frame::Response(Response::Value {
                seq: 1,
                value: 0.25,
            }),
        ),
        (
            "resp Class",
            Frame::Response(Response::Class { seq: 2, class: -1 }),
        ),
        (
            "resp Ranked",
            Frame::Response(Response::Ranked {
                seq: 3,
                entries: vec![(4, 1.5), (9, -0.25)],
            }),
        ),
        (
            "resp Updated",
            Frame::Response(Response::Updated { seq: 4 }),
        ),
        (
            "resp SnapshotData",
            Frame::Response(Response::SnapshotData {
                seq: 5,
                json: b"{\"x\":1}".to_vec(),
            }),
        ),
        (
            "resp MetricsData",
            Frame::Response(Response::MetricsData {
                seq: 6,
                format: MetricsFormat::Text,
                body: b"# dmfsgd-metrics schema 1\n".to_vec(),
            }),
        ),
        (
            "resp HealthStatus",
            Frame::Response(Response::HealthStatus {
                seq: 7,
                health: Health::Degraded {
                    reasons: vec![
                        DegradedReason::QualityBelowFloor {
                            auc: 0.5,
                            floor: 0.75,
                        },
                        DegradedReason::HighRejectionRate {
                            rate: 0.3,
                            limit: 0.1,
                        },
                    ],
                },
            }),
        ),
        (
            "resp Error",
            Frame::Response(Response::Error {
                seq: 8,
                code: ErrorCode::Overloaded,
                message: "window full".to_string(),
            }),
        ),
    ]
}

/// `(frame, lowercase hex of its bytes)`, in [`frames`] order.
const GOLDEN: &[(&str, &str)] = &[
    ("v1 RttProbe", "f5d30101080000000807060504030201410a3c94"),
    ("v1 RttReply", "f5d301023c0000002b0000000000000003009a9999999999b93f9a9999999999c9bf0000000000000c400300000000000000f03f0000000000000040000000000000e0bf1b317787"),
    ("v1 AbwProbe", "f5d30103220000002c00000000000000cdcccccccc8c45400200cdccccccccccec3f000000000000f4bf975f4746"),
    ("v1 AbwReply", "f5d30104220000002d00000000000000000000000000f0bf020000000000000000c000000000000000006d8c3f37"),
    ("v2 RttProbe", "f5d3020107000403020103efbeeb4f29ca"),
    ("v2 RttReply keyframe", "f5d302021500030000000100000600662e66b20043003c004000b86f465add"),
    ("v2 AbwProbe delta", "f5d3020318000500000001030000002c420009000700002004000181007feceda14a"),
    ("v2 AbwReply keyframe", "f5d3020411000600000000ff0102000300333b00b800341e211210"),
    ("req Predict", "f6d301010c00000007000000010000000d0c0b0a779e167f"),
    ("req PredictClass", "f6d301020c000000080000000300000004000000a1ebeb5a"),
    ("req RankNeighbors", "f6d301030a00000009000000050000002000c36e80b0"),
    ("req Update", "f6d30104140000000a0000000600000007000000000000000000f0bf759e7876"),
    ("req Snapshot", "f6d30105060000000b00000003000b55d7cc"),
    ("req Metrics", "f6d30106050000000c0000000158a9dc32"),
    ("req Health", "f6d30107040000000d000000471cc202"),
    ("resp Value", "f6d301810c00000001000000000000000000d03f8d845489"),
    ("resp Class", "f6d301820500000002000000ffd00db861"),
    ("resp Ranked", "f6d301831e00000003000000020004000000000000000000f83f09000000000000000000d0bf5d068194"),
    ("resp Updated", "f6d301840400000004000000dbdc0496"),
    ("resp SnapshotData", "f6d301850f00000005000000070000007b2278223a317d27b32aa8"),
    ("resp MetricsData", "f6d301862300000006000000001a0000002320646d667367642d6d65747269637320736368656d6120310ad120ec0e"),
    ("resp HealthStatus", "f6d301872800000007000000010201000000000000e03f000000000000e83f03333333333333d33f9a9999999999b93f010ede94"),
    ("resp Error", "f6d301ee1200000008000000020b0077696e646f772066756c6c653a5839"),
];

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
        .collect()
}

#[test]
fn every_frame_encodes_to_its_pinned_bytes() {
    let frames = frames();
    let names: Vec<_> = frames.iter().map(|(name, _)| *name).collect();
    let pinned: Vec<_> = GOLDEN.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, pinned);
    for ((name, frame), (_, want)) in frames.iter().zip(GOLDEN) {
        assert_eq!(hex(&frame.encode()), *want, "{name}");
    }
}

#[test]
fn every_pinned_frame_decodes_to_its_message() {
    for ((name, frame), (_, want)) in frames().iter().zip(GOLDEN) {
        let bytes = unhex(want);
        assert_eq!(frame.reencode(&bytes), bytes, "{name}");
    }
}
