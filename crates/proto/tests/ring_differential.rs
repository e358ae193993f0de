//! Differential test of the trimmed, flat context rings against the
//! rings they replaced.
//!
//! The reference model below is the previous implementation, kept
//! whole: a 32-deep `VecDeque<(u16, Vec<f64>)>` of everything sent, an
//! 8-deep one of everything decoded, nothing ever dropped except by
//! those caps. Both implementations are driven through
//! [`dmf_proto::fault`]'s seeded injector, on the coordinate stream and
//! on the acks coming back.
//!
//! * Without reordering the two must be indistinguishable: the same
//!   datagram bytes, the same reconstructions, the same acks, the same
//!   counters — for any amount of loss and duplication.
//! * With reordering the decoders may differ in exactly one way: a
//!   delta that was overtaken in flight by a delta on a newer baseline
//!   is refused (`StaleBaseline`, keyframe requested) where the full
//!   ring still held its baseline. Whatever either decoder accepts is
//!   the encoder's reconstruction, bit for bit.

use dmf_proto::context::{DECODED_RING, SENT_RING};
use dmf_proto::delta::{apply_delta, quantize_delta, quantize_keyframe};
use dmf_proto::{
    decode_v2, encode_v2, Ack, ContextError, CoordUpdate, DecoderContext, EncoderContext,
    FaultInjector, FaultSpec, MessageV2, UpdatePayload,
};
use std::collections::{HashMap, VecDeque};

const KEYFRAME_INTERVAL: u16 = 16;
/// `u ‖ v` at the paper's rank 10.
const BLOCK: usize = 20;

fn seq_newer(a: u16, b: u16) -> bool {
    a.wrapping_sub(b) as i16 > 0
}

fn applied(base: &[f64], scale: f64, quants: &[i8]) -> Vec<f64> {
    let mut coords = vec![0.0; base.len()];
    apply_delta(base, scale, quants, &mut coords);
    coords
}

/// The encoder as it was: an acked copy plus an untrimmed sent ring.
struct RefEncoder {
    next_seq: u16,
    since_keyframe: u16,
    force_keyframe: bool,
    acked: Option<(u16, Vec<f64>)>,
    sent: VecDeque<(u16, Vec<f64>)>,
    keyframes_sent: u64,
}

impl RefEncoder {
    fn new() -> Self {
        RefEncoder {
            next_seq: 0,
            since_keyframe: 0,
            force_keyframe: false,
            acked: None,
            sent: VecDeque::new(),
            keyframes_sent: 0,
        }
    }

    fn encode(&mut self, coords: &[f64]) -> CoordUpdate {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        let need_keyframe =
            self.force_keyframe || self.since_keyframe >= KEYFRAME_INTERVAL || self.acked.is_none();
        let (payload, reconstruction) = match &self.acked {
            Some((base_seq, base)) if !need_keyframe => {
                let mut reconstruction = vec![0.0; base.len()];
                let (scale, quants) = quantize_delta(base, coords, &mut reconstruction);
                self.since_keyframe += 1;
                let payload = UpdatePayload::Delta {
                    base_seq: *base_seq,
                    scale,
                    quants,
                };
                (payload, reconstruction)
            }
            _ => {
                let quantized = quantize_keyframe(coords);
                self.force_keyframe = false;
                self.since_keyframe = 0;
                self.keyframes_sent += 1;
                let reconstruction = quantized.to_vec();
                (
                    UpdatePayload::Keyframe { coords: quantized },
                    reconstruction,
                )
            }
        };
        self.sent.push_back((seq, reconstruction));
        while self.sent.len() > SENT_RING {
            self.sent.pop_front();
        }
        CoordUpdate { seq, payload }
    }

    fn on_ack(&mut self, ack: Ack) {
        if ack.want_keyframe {
            self.force_keyframe = true;
        }
        let newer = self
            .acked
            .as_ref()
            .is_none_or(|(current, _)| seq_newer(ack.seq, *current));
        if newer {
            if let Some(state) = self.sent.iter().find(|(s, _)| *s == ack.seq) {
                self.acked = Some(state.clone());
            }
        }
    }
}

/// The decoder as it was: the last eight reconstructions, whatever
/// their sequence numbers.
#[derive(Default)]
struct RefDecoder {
    states: VecDeque<(u16, Vec<f64>)>,
    newest: Option<u16>,
    want_keyframe: bool,
    gaps_detected: u64,
}

impl RefDecoder {
    fn apply(&mut self, update: &CoordUpdate) -> Result<Vec<f64>, ContextError> {
        if let Some(newest) = self.newest {
            let jump = update.seq.wrapping_sub(newest);
            if (jump as i16) > 1 {
                self.gaps_detected += u64::from(jump - 1);
            }
        }
        let coords = match &update.payload {
            UpdatePayload::Keyframe { coords } => {
                self.want_keyframe = false;
                coords.to_vec()
            }
            UpdatePayload::Delta {
                base_seq,
                scale,
                quants,
            } => match self.states.iter().find(|(s, _)| s == base_seq) {
                Some((_, base)) => applied(base, *scale, quants),
                None => {
                    self.want_keyframe = true;
                    return Err(ContextError::StaleBaseline {
                        base_seq: *base_seq,
                        seq: update.seq,
                    });
                }
            },
        };
        self.states.push_back((update.seq, coords.clone()));
        while self.states.len() > DECODED_RING {
            self.states.pop_front();
        }
        if self.newest.is_none_or(|n| seq_newer(update.seq, n)) {
            self.newest = Some(update.seq);
        }
        Ok(coords)
    }

    fn ack(&self) -> Option<Ack> {
        self.newest.map(|seq| Ack {
            seq,
            want_keyframe: self.want_keyframe,
        })
    }
}

/// Coordinates that move a little every round, as under SGD, with an
/// occasional jump (a rejoin) so that delta scales vary.
struct Walk {
    coords: Vec<f64>,
    state: u64,
}

impl Walk {
    fn new(seed: u64) -> Self {
        let mut walk = Walk {
            coords: vec![0.0; BLOCK],
            state: seed | 1,
        };
        for i in 0..BLOCK {
            walk.coords[i] = walk.unit() * 2.0 - 1.0;
        }
        walk
    }

    fn unit(&mut self) -> f64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        (self.state >> 11) as f64 / (1u64 << 53) as f64
    }

    fn step(&mut self) -> &[f64] {
        let jump = self.unit() < 0.001;
        for i in 0..BLOCK {
            let step = if jump { 1.0 } else { 0.004 };
            self.coords[i] += (self.unit() - 0.5) * step;
        }
        &self.coords
    }
}

fn reply(nonce: u32, update: CoordUpdate) -> Vec<u8> {
    encode_v2(&MessageV2::RttReply { nonce, update }).to_vec()
}

fn update_of(datagram: &[u8]) -> CoordUpdate {
    match decode_v2(datagram).expect("uncorrupted datagram decodes") {
        MessageV2::RttReply { update, .. } => update,
        other => panic!("expected a reply, got {other:?}"),
    }
}

/// The ack as the next probe would carry it, through its own injector.
fn acks_delivered(ack: Option<Ack>, nonce: u32, faults: &mut FaultInjector) -> Vec<Ack> {
    let probe = encode_v2(&MessageV2::RttProbe { nonce, ack });
    faults
        .apply(&probe)
        .iter()
        .filter_map(
            |datagram| match decode_v2(datagram).expect("uncorrupted probe decodes") {
                MessageV2::RttProbe { ack, .. } => ack,
                other => panic!("expected a probe, got {other:?}"),
            },
        )
        .collect()
}

#[test]
fn in_order_streams_are_indistinguishable_from_untrimmed_rings() {
    // Past one wrap of the u16 sequence space per seed, 2.8·10⁵ in all.
    const UPDATES: u32 = 70_000;
    let mut total_stale = 0;
    // The last rate loses acks 32 sends in a row, which fills the
    // encoder's ring to its cap.
    for (seed, drop) in [(1u64, 0.05), (2, 0.3), (3, 0.6), (4, 0.9)] {
        let spec = FaultSpec {
            drop,
            duplicate: 0.1,
            ..FaultSpec::none()
        };
        let mut forward = FaultInjector::new(spec, seed);
        let mut backward = FaultInjector::new(spec, seed ^ 0xACED);
        let mut walk = Walk::new(seed);
        let (mut enc, mut ref_enc) = (
            EncoderContext::with_keyframe_interval(KEYFRAME_INTERVAL),
            RefEncoder::new(),
        );
        let (mut dec, mut ref_dec) = (DecoderContext::new(), RefDecoder::default());
        let mut stale = 0u64;

        for nonce in 0..UPDATES {
            let coords = walk.step();
            let datagram = reply(nonce, enc.encode(coords));
            assert_eq!(
                datagram,
                reply(nonce, ref_enc.encode(coords)),
                "seed {seed} update {nonce}: datagram bytes differ"
            );
            for delivered in forward.apply(&datagram) {
                let update = update_of(&delivered);
                let got = dec.apply(&update).map(<[f64]>::to_vec);
                assert_eq!(
                    got,
                    ref_dec.apply(&update),
                    "seed {seed} update {nonce}: decoders disagree"
                );
                stale += u64::from(got.is_err());
            }
            assert_eq!(dec.ack(), ref_dec.ack(), "seed {seed} update {nonce}");
            for ack in acks_delivered(dec.ack(), nonce, &mut backward) {
                enc.on_ack(ack);
                ref_enc.on_ack(ack);
            }
        }
        assert_eq!(dec.gaps_detected(), ref_dec.gaps_detected);
        assert_eq!(enc.keyframes_sent(), ref_enc.keyframes_sent);
        assert!(dec.gaps_detected() > 0, "seed {seed}: loss must show");
        assert!(enc.deltas_sent() > 0, "seed {seed}: acks must get through");
        total_stale += stale;
    }
    // The heavy-loss runs outrun the decoder's ring now and then, so the
    // refusal path is compared too, not only the happy one.
    assert!(total_stale > 0, "no baseline was ever lost");
}

#[test]
fn reordering_costs_keyframes_never_wrong_coordinates() {
    let spec = FaultSpec {
        drop: 0.1,
        duplicate: 0.05,
        reorder: 0.15,
        ..FaultSpec::none()
    };
    let mut forward = FaultInjector::new(spec, 11);
    let mut backward = FaultInjector::new(spec, 12);
    let mut walk = Walk::new(13);
    let mut enc = EncoderContext::with_keyframe_interval(KEYFRAME_INTERVAL);
    let (mut dec, mut ref_dec) = (DecoderContext::new(), RefDecoder::default());
    // What the encoder reconstructed for each update it sent, rebuilt
    // here from the updates alone.
    let mut truth: HashMap<u16, Vec<f64>> = HashMap::new();
    // Newest baseline a delta accepted by the trimmed decoder built on.
    let mut newest_base: Option<u16> = None;
    let (mut overtaken, mut accepted) = (0u32, 0u32);

    for nonce in 0..40_000u32 {
        let update = enc.encode(walk.step());
        let reconstruction = match &update.payload {
            UpdatePayload::Keyframe { coords } => coords.to_vec(),
            UpdatePayload::Delta {
                base_seq,
                scale,
                quants,
            } => applied(&truth[base_seq], *scale, quants),
        };
        truth.insert(update.seq, reconstruction);

        for delivered in forward.apply(&reply(nonce, update)) {
            let update = update_of(&delivered);
            let got = dec.apply(&update).map(<[f64]>::to_vec);
            let reference = ref_dec.apply(&update);
            for coords in [&got, &reference].into_iter().flatten() {
                assert_eq!(
                    coords, &truth[&update.seq],
                    "update {nonce}: wrong coordinates"
                );
            }
            match (&got, &update.payload) {
                (Ok(_), UpdatePayload::Delta { base_seq, .. }) => {
                    accepted += 1;
                    if newest_base.is_none_or(|newest| seq_newer(*base_seq, newest)) {
                        newest_base = Some(*base_seq);
                    }
                }
                (Ok(_), UpdatePayload::Keyframe { .. }) => accepted += 1,
                (Err(err), UpdatePayload::Delta { base_seq, .. }) => {
                    assert!(matches!(err, ContextError::StaleBaseline { .. }));
                    assert!(dec.wants_keyframe(), "a refusal must ask for a keyframe");
                    if reference.is_ok() {
                        // The documented difference, and nothing else:
                        // this delta's baseline is older than one a
                        // later-sent delta has already built on.
                        let newest = newest_base.expect("a baseline was trimmed");
                        assert!(
                            seq_newer(newest, *base_seq),
                            "update {nonce}: refused a delta on baseline {base_seq}, \
                             newest applied baseline {newest}"
                        );
                        overtaken += 1;
                    }
                }
                (Err(_), UpdatePayload::Keyframe { .. }) => panic!("keyframes always decode"),
            }
        }
        for ack in acks_delivered(dec.ack(), nonce, &mut backward) {
            enc.on_ack(ack);
        }
    }
    assert!(overtaken > 0, "the schedule never overtook a delta");
    assert!(
        accepted > 20_000,
        "the stream must keep flowing: {accepted} updates accepted"
    );
}
