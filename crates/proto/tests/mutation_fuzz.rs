//! Mutation fuzzing of the codec: encode a corpus of valid v1/v2
//! frames, then truncate, bit-flip and splice them, asserting every
//! mutant is rejected with a typed `DecodeError` — never a panic,
//! never a silent mis-decode behind a passing checksum.
//!
//! Small errors are *guaranteed* detectable: the trailer is CRC32C,
//! which detects every error burst of at most 32 bits and, in a frame
//! of up to 659 bytes (every corpus frame is far shorter), every error
//! of one to three bits, trailer bits included.
//! `checksum_refuses_every_one_and_two_bit_flip` checks the one- and
//! two-bit cases exhaustively on the corpus.
//! Splices could in principle forge a frame with a colliding
//! checksum, but at 2⁻³² per attempt the strict assertion below is
//! sound for any realistic number of fuzz cases.
//!
//! The last property exercises the layer above the codec: an
//! encoder/decoder context pair driven through a random loss + ack
//! schedule must stay convergent (reconstructions track the true
//! coordinates) and must recover via keyframe after any gap — the
//! "loss degrades to extra bytes, never wrong coordinates" contract.

use dmf_proto::delta::quantize_keyframe;
use dmf_proto::{
    decode_any, encode, encode_v2, Ack, CoordUpdate, DecoderContext, EncoderContext, Message,
    MessageV2, UpdatePayload,
};
use proptest::prelude::*;

/// A corpus of valid frames spanning both versions, every message
/// kind, and both update payload kinds.
fn corpus() -> Vec<Vec<u8>> {
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
    let ack = Some(Ack {
        seq: 7,
        want_keyframe: true,
    });
    vec![
        encode(&Message::RttProbe { nonce: 42 }).to_vec(),
        encode(&Message::RttReply {
            nonce: 43,
            u: vec![0.1, -0.2, 3.5],
            v: vec![1.0, 2.0, -0.5],
        })
        .to_vec(),
        encode(&Message::AbwProbe {
            nonce: 44,
            rate_mbps: 43.1,
            u: vec![0.9; 10],
        })
        .to_vec(),
        encode(&Message::AbwReply {
            nonce: 45,
            x: -1.0,
            v: vec![-2.0, 0.0],
        })
        .to_vec(),
        encode_v2(&MessageV2::RttProbe { nonce: 1, ack }).to_vec(),
        encode_v2(&MessageV2::RttProbe {
            nonce: 2,
            ack: None,
        })
        .to_vec(),
        encode_v2(&MessageV2::RttReply {
            nonce: 3,
            update: keyframe(0, &[0.25, -0.75, 1.5, 2.0]),
        })
        .to_vec(),
        encode_v2(&MessageV2::RttReply {
            nonce: 4,
            update: delta(9, 8, vec![1, -1, 127, -127, 0, 3]),
        })
        .to_vec(),
        encode_v2(&MessageV2::AbwProbe {
            nonce: 5,
            rate_mbps: 43.0,
            ack,
            update: keyframe(2, &[0.9; 10]),
        })
        .to_vec(),
        encode_v2(&MessageV2::AbwReply {
            nonce: 6,
            x: 1.0,
            ack: None,
            update: delta(3, 2, vec![-2, 0]),
        })
        .to_vec(),
    ]
}

fn pick(frames: &[Vec<u8>], seed: usize) -> Vec<u8> {
    frames[seed % frames.len()].clone()
}

/// Every single-bit flip and every pair of flipped bits, in every
/// corpus frame, trailer included, is refused.
#[test]
fn checksum_refuses_every_one_and_two_bit_flip() {
    for mut frame in corpus() {
        let bits = frame.len() * 8;
        let flip = |frame: &mut [u8], bit: usize| frame[bit / 8] ^= 1 << (bit % 8);
        for a in 0..bits {
            flip(&mut frame, a);
            assert!(
                decode_any(&frame).is_err(),
                "flipped bit {a} must be refused"
            );
            for b in a + 1..bits {
                flip(&mut frame, b);
                assert!(
                    decode_any(&frame).is_err(),
                    "flipped bits {a} and {b} must be refused"
                );
                flip(&mut frame, b);
            }
            flip(&mut frame, a);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every proper prefix of every frame is rejected.
    #[test]
    fn truncation_always_rejected(frame_seed in any::<usize>(), cut in 1usize..64) {
        let frame = pick(&corpus(), frame_seed);
        let keep = frame.len().saturating_sub(cut);
        prop_assert!(decode_any(&frame[..keep]).is_err());
    }

    /// Every single-bit flip is rejected (see the module docs for why
    /// this is strict, not probabilistic).
    #[test]
    fn single_bit_flip_always_rejected(frame_seed in any::<usize>(), bit_seed in any::<usize>()) {
        let mut frame = pick(&corpus(), frame_seed);
        let bit = bit_seed % (frame.len() * 8);
        frame[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(decode_any(&frame).is_err(), "flipped bit {bit} must be detected");
    }

    /// Splicing random bytes over a random region (possibly changing
    /// the length) is rejected whenever it changes the frame at all.
    #[test]
    fn splice_always_rejected(
        frame_seed in any::<usize>(),
        at_seed in any::<usize>(),
        cut in 0usize..16,
        replacement in proptest::collection::vec(any::<u8>(), 0..24),
    ) {
        let frame = pick(&corpus(), frame_seed);
        let at = at_seed % frame.len();
        let end = (at + cut).min(frame.len());
        let mut spliced = frame.clone();
        spliced.splice(at..end, replacement);
        prop_assume!(spliced != frame);
        prop_assert!(decode_any(&spliced).is_err());
    }

    /// Concatenating two frames (a classic framing confusion) is
    /// rejected: the length field no longer matches.
    #[test]
    fn concatenation_rejected(a_seed in any::<usize>(), b_seed in any::<usize>()) {
        let frames = corpus();
        let mut glued = pick(&frames, a_seed);
        glued.extend_from_slice(&pick(&frames, b_seed));
        prop_assert!(decode_any(&glued).is_err());
    }

    /// Context-layer convergence under random loss: whatever updates
    /// survive, every successful reconstruction tracks the true
    /// coordinates, and a forced keyframe always resyncs.
    #[test]
    fn contexts_converge_under_random_loss(
        seed in any::<u64>(),
        drop_pattern in proptest::collection::vec(any::<bool>(), 8..48),
        ack_pattern in proptest::collection::vec(any::<bool>(), 8..48),
    ) {
        let mut enc = EncoderContext::with_keyframe_interval(8);
        let mut dec = DecoderContext::new();
        let mut coords: Vec<f64> =
            (0..6).map(|i| ((seed >> (i * 8)) & 0xFF) as f64 / 256.0 - 0.5).collect();

        for (round, lost) in drop_pattern.iter().enumerate() {
            coords = coords.iter().map(|c| c + 0.004).collect();
            let update = enc.encode(&coords);
            if *lost {
                continue;
            }
            match dec.apply(&update) {
                Ok(recon) => {
                    for (r, c) in recon.iter().zip(&coords) {
                        prop_assert!(
                            (r - c).abs() < 0.05,
                            "round {round}: reconstruction {r} diverged from {c}"
                        );
                    }
                }
                Err(_) => prop_assert!(dec.wants_keyframe()),
            }
            if ack_pattern[round % ack_pattern.len()] {
                if let Some(ack) = dec.ack() {
                    enc.on_ack(ack);
                }
            }
        }

        // Recovery is always one keyframe away.
        enc.force_keyframe();
        let update = enc.encode(&coords);
        let recon = dec.apply(&update).expect("keyframes always decode");
        for (r, c) in recon.iter().zip(&coords) {
            prop_assert!((r - c).abs() < 0.01);
        }
    }
}
