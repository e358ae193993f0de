//! Property-based fuzzing of the wire codec (both versions).
//!
//! Adversarial byte-level mutations (truncate / bit-flip / splice)
//! live in `tests/mutation_fuzz.rs`; this file covers roundtrips and
//! structural invariants.

use dmf_proto::delta::quantize_keyframe;
use dmf_proto::{
    decode, decode_any, decode_v2, encode, encode_v2, Ack, CoordUpdate, Message, MessageV2,
    UpdatePayload, WireMessage,
};
use proptest::prelude::*;

/// CRC32C from its definition, one bit at a time (reflected
/// polynomial `0x82F63B78`, initial value and final xor all ones).
fn crc32c_bitwise(data: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0x82F6_3B78
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

fn coords(max_rank: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1e6f64..1e6, 1..=max_rank)
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        any::<u64>().prop_map(|nonce| Message::RttProbe { nonce }),
        (any::<u64>(), coords(32)).prop_map(|(nonce, u)| {
            let v = u.iter().map(|x| x * 0.5 - 1.0).collect();
            Message::RttReply { nonce, u, v }
        }),
        (any::<u64>(), 0.001f64..1e4, coords(32)).prop_map(|(nonce, rate_mbps, u)| {
            Message::AbwProbe {
                nonce,
                rate_mbps,
                u,
            }
        }),
        (any::<u64>(), any::<bool>(), coords(32)).prop_map(|(nonce, good, v)| {
            Message::AbwReply {
                nonce,
                x: if good { 1.0 } else { -1.0 },
                v,
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every frame ends in the CRC32C of everything before it, computed
    /// here from the definition rather than by `dmf_proto::checksum`.
    #[test]
    fn checksum_is_every_frames_trailer(msg in arb_message(), msg_v2 in arb_message_v2()) {
        for wire in [encode(&msg), encode_v2(&msg_v2)] {
            let (body, trailer) = wire.split_at(wire.len() - 4);
            prop_assert_eq!(trailer, crc32c_bitwise(body).to_le_bytes());
        }
    }

    #[test]
    fn roundtrip(msg in arb_message()) {
        let wire = encode(&msg);
        prop_assert_eq!(decode(&wire), Ok(msg));
    }

    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Any result is acceptable; panicking or hanging is not.
        let _ = decode(&bytes);
    }

    #[test]
    fn random_bytes_essentially_never_decode(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        // With a 32-bit checksum and magic, random noise must not parse.
        prop_assert!(decode(&bytes).is_err());
    }

    #[test]
    fn corruption_detected(msg in arb_message(), pos_seed in any::<usize>(), flip in 1u8..=255) {
        let wire = encode(&msg).to_vec();
        let pos = pos_seed % wire.len();
        let mut corrupted = wire.clone();
        corrupted[pos] ^= flip;
        // Either detected as an error — or, astronomically unlikely,
        // decodes to something different; it must never decode to a
        // *wrong equal* message silently.
        match decode(&corrupted) {
            Err(_) => {}
            Ok(m) => prop_assert_ne!(m, decode(&wire).unwrap()),
        }
    }

    #[test]
    fn truncation_detected(msg in arb_message(), cut in 1usize..64) {
        let wire = encode(&msg);
        let keep = wire.len().saturating_sub(cut);
        prop_assert!(decode(&wire[..keep]).is_err());
    }

    #[test]
    fn encoded_size_is_linear_in_rank(rank in 1usize..=64) {
        let msg = Message::AbwReply { nonce: 1, x: 1.0, v: vec![0.5; rank] };
        let wire = encode(&msg);
        // header(8) + nonce(8) + x(8) + rank(2) + 8·rank + checksum(4)
        prop_assert_eq!(wire.len(), 8 + 8 + 8 + 2 + 8 * rank + 4);
    }

    #[test]
    fn roundtrip_v2(msg in arb_message_v2()) {
        let wire = encode_v2(&msg);
        prop_assert_eq!(decode_v2(&wire), Ok(msg.clone()));
        prop_assert_eq!(decode_any(&wire), Ok(WireMessage::V2(msg)));
    }

    #[test]
    fn decode_any_random_bytes_never_panic_or_parse(
        bytes in proptest::collection::vec(any::<u8>(), 0..512)
    ) {
        prop_assert!(decode_any(&bytes).is_err());
    }

    #[test]
    fn v2_delta_size_is_linear_in_rank(rank in 1usize..=64) {
        let msg = MessageV2::RttReply {
            nonce: 1,
            update: CoordUpdate {
                seq: 5,
                payload: UpdatePayload::Delta {
                    base_seq: 4,
                    scale: 0.0,
                    quants: vec![0; 2 * rank].into(),
                },
            },
        };
        let wire = encode_v2(&msg);
        // header(6) + nonce(4) + flags(1) + seq(2) + base_seq(2) +
        // scale(2) + count(2) + 2·rank·i8 + checksum(4)
        prop_assert_eq!(wire.len(), 6 + 4 + 1 + 2 + 2 + 2 + 2 + 2 * rank + 4);
        // A v1 reply of the same rank carries 8 bytes per coordinate.
        let v1 = encode(&Message::RttReply { nonce: 1, u: vec![0.5; rank], v: vec![0.5; rank] });
        prop_assert!(v1.len() > 2 * rank * 7);
    }
}

fn arb_ack() -> impl Strategy<Value = Option<Ack>> {
    (any::<bool>(), any::<u16>(), any::<bool>())
        .prop_map(|(present, seq, want_keyframe)| present.then_some(Ack { seq, want_keyframe }))
}

fn arb_update(half_rank: bool) -> impl Strategy<Value = CoordUpdate> {
    let rank = if half_rank { 1usize..=16 } else { 1usize..=32 };
    let mul = if half_rank { 2 } else { 1 };
    prop_oneof![
        (any::<u16>(), rank.clone(), -10.0f64..10.0).prop_map(move |(seq, r, base)| {
            let coords: Vec<f64> = (0..r * mul).map(|i| base + i as f64 * 0.01).collect();
            CoordUpdate {
                seq,
                payload: UpdatePayload::Keyframe {
                    coords: quantize_keyframe(&coords),
                },
            }
        }),
        (any::<u16>(), any::<u16>(), 0u16..0x7C00, rank).prop_map(
            move |(seq, base_seq, scale_bits, r)| {
                CoordUpdate {
                    seq,
                    payload: UpdatePayload::Delta {
                        base_seq,
                        scale: dmf_proto::delta::f16_to_f64(scale_bits),
                        quants: (0..r * mul).map(|i| (i as i8).wrapping_mul(37)).collect(),
                    },
                }
            }
        ),
    ]
}

fn arb_message_v2() -> impl Strategy<Value = MessageV2> {
    prop_oneof![
        (any::<u32>(), arb_ack()).prop_map(|(nonce, ack)| MessageV2::RttProbe { nonce, ack }),
        (any::<u32>(), arb_update(true))
            .prop_map(|(nonce, update)| MessageV2::RttReply { nonce, update }),
        (any::<u32>(), 0.001f32..1e4, arb_ack(), arb_update(false)).prop_map(
            |(nonce, rate, ack, update)| MessageV2::AbwProbe {
                nonce,
                // Choosing the rate among f32 values keeps the f64 →
                // f32 → f64 wire trip exact, so roundtrip can assert
                // full equality.
                rate_mbps: f64::from(rate),
                ack,
                update,
            }
        ),
        (any::<u32>(), any::<bool>(), arb_ack(), arb_update(false)).prop_map(
            |(nonce, good, ack, update)| MessageV2::AbwReply {
                nonce,
                x: if good { 1.0 } else { -1.0 },
                ack,
                update,
            }
        ),
    ]
}
