//! Per-peer encoder/decoder contexts for the v2 delta stream.
//!
//! Each *ordered* pair of peers owns one [`EncoderContext`] (sender
//! side) and one [`DecoderContext`] (receiver side). The encoder
//! deltas against the receiver's **last-acknowledged** state — never
//! against unacked in-flight updates — so losing any number of
//! datagrams in between leaves later deltas decodable. When loss does
//! outrun the decoder's short reconstruction ring (or corruption eats
//! the baseline), [`DecoderContext::apply`] reports the gap, flags
//! `want_keyframe` on its next [`Ack`], and the encoder answers with a
//! full-state keyframe; periodic keyframes bound the recovery time
//! even when the acks themselves are lost. Loss degrades to extra
//! bytes, never to wrong coordinates.
//!
//! Sequence numbers are per-stream wrapping `u16`s; a non-contiguous
//! arrival is counted as a detected gap (the alec-codec discipline:
//! verify, then update the context only from what actually decoded).
//!
//! # What the rings retain
//!
//! Both sides keep `(seq, reconstruction)` entries, and both keep only
//! the entries that can still be referenced:
//!
//! * **Encoder.** The acked baseline, followed by every update sent
//!   after it (at most [`SENT_RING`] of those). [`EncoderContext::on_ack`]
//!   accepts an ack only if it is newer than the baseline, so an entry
//!   sent before the baseline can never be selected again and is
//!   dropped when the baseline advances. This is unobservable: every
//!   datagram is byte-identical to what an untrimmed ring produces.
//! * **Decoder.** The reconstructions at or after the `base_seq` of the
//!   last delta applied (at most [`DECODED_RING`]). The encoder's
//!   baseline only moves forward, so every delta sent later references
//!   that `base_seq` or a newer one. An in-order stream — lossy and
//!   duplicated as it may be — decodes exactly as with an untrimmed
//!   ring. The one difference: a delta overtaken *in flight* by a delta
//!   on a newer baseline finds its own baseline gone, is dropped as
//!   [`ContextError::StaleBaseline`] and costs a keyframe — extra bytes,
//!   never wrong coordinates.
//!
//! A block of a different length (a rank change) clears the ring: no
//! held entry could serve as its baseline.
//!
//! The reconstructions of one context share one buffer at a fixed
//! stride, grown (by doubling) to the most entries ever held at once,
//! and a delta is reconstructed from one entry straight into the next.
//! On a stream whose acks arrive, an encoder holds the baseline and the
//! update in flight. A decoder holds the same two, and a third around
//! each periodic keyframe: a keyframe drops nothing, because the
//! encoder keeps its old baseline until the keyframe's ack arrives. At
//! rank 10 an RTT stream's block is `u ‖ v` = 20 values = 160 B, so the
//! encoder's buffer settles at 2 × 160 B beside 72 B of fields and the
//! decoder's at 4 × 160 B beside 88 B: about 1.1 KB per ordered pair,
//! where untrimmed rings of one `Vec` per entry came to about 10 KB
//! (32 + 8 entries, each 160 B and its own allocation).

use crate::delta::{apply_delta, quantize_delta, quantize_keyframe, CoordUpdate, UpdatePayload};

/// Default number of deltas between unconditional keyframes.
const DEFAULT_KEYFRAME_INTERVAL: u16 = 16;

/// Most sent-but-unacked reconstructions the encoder keeps to resolve
/// acks against.
pub const SENT_RING: usize = 32;

/// Most recently-decoded reconstructions the decoder keeps as
/// candidate delta baselines.
pub const DECODED_RING: usize = 8;

/// `true` if wrapping sequence number `a` is newer than `b`.
fn seq_newer(a: u16, b: u16) -> bool {
    a.wrapping_sub(b) as i16 > 0
}

/// Reconstructions of one length, oldest first, packed at that stride
/// in one buffer that grows to the most entries ever held.
#[derive(Clone, Debug, Default)]
struct States {
    len: usize,
    /// Values per reconstruction; 0 until the first push.
    stride: usize,
    data: Vec<f64>,
}

/// Equal when the held entries are; what dropped entries left behind
/// in the buffer does not count.
impl PartialEq for States {
    fn eq(&self, other: &Self) -> bool {
        self.stride == other.stride && self.held() == other.held()
    }
}

impl States {
    /// Every held entry, oldest first: `len × stride` values.
    fn held(&self) -> &[f64] {
        &self.data[..self.len * self.stride]
    }

    fn get(&self, idx: usize) -> &[f64] {
        &self.data[idx * self.stride..(idx + 1) * self.stride]
    }

    /// Appends a state, still to be written, and returns it with the
    /// states held before it, so that a delta is reconstructed from one
    /// of those straight into it.
    fn push_slot(&mut self) -> (&[f64], &mut [f64]) {
        let (start, end) = (self.len * self.stride, (self.len + 1) * self.stride);
        if self.data.len() < end {
            self.data.resize(end, 0.0);
        }
        self.len += 1;
        let (held, slot) = self.data[..end].split_at_mut(start);
        (held, slot)
    }

    /// Appends a copy of `state`, which has the held length (see
    /// [`reset`](Self::reset)).
    fn push(&mut self, state: &[f64]) {
        self.push_slot().1.copy_from_slice(state);
    }

    /// Empties the ring for states of `stride` values.
    fn reset(&mut self, stride: usize) {
        self.len = 0;
        self.stride = stride;
        self.data.clear();
    }

    /// Overwrites entry `to` with entry `from`.
    fn copy_entry(&mut self, from: usize, to: usize) {
        let from = from * self.stride;
        self.data
            .copy_within(from..from + self.stride, to * self.stride);
    }

    fn drop_oldest(&mut self, count: usize) {
        self.data
            .copy_within(count * self.stride..self.len * self.stride, 0);
        self.len -= count;
    }
}

/// A cumulative acknowledgement riding on reverse-direction traffic:
/// "my newest decoded update is `seq`" plus an explicit keyframe
/// request when the decoder has lost its baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ack {
    /// Newest sequence number the receiver has decoded.
    pub seq: u16,
    /// Receiver cannot decode deltas and needs a keyframe.
    pub want_keyframe: bool,
}

/// Why a [`DecoderContext`] rejected an otherwise well-formed update.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ContextError {
    /// Delta references a baseline this decoder no longer (or never)
    /// holds; a keyframe has been requested via [`DecoderContext::ack`].
    StaleBaseline {
        /// The baseline the delta was computed against.
        base_seq: u16,
        /// The update that could not be applied.
        seq: u16,
    },
    /// Delta rank disagrees with the referenced baseline's rank.
    RankMismatch {
        /// Rank of the held baseline.
        expected: usize,
        /// Rank carried by the delta.
        got: usize,
    },
}

impl std::fmt::Display for ContextError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContextError::StaleBaseline { base_seq, seq } => {
                write!(f, "update #{seq}: baseline #{base_seq} not held")
            }
            ContextError::RankMismatch { expected, got } => {
                write!(f, "delta rank {got} != baseline rank {expected}")
            }
        }
    }
}

impl std::error::Error for ContextError {}

/// Sender half of a v2 coordinate stream toward one peer.
#[derive(Clone, Debug, PartialEq)]
pub struct EncoderContext {
    next_seq: u16,
    keyframe_interval: u16,
    since_keyframe: u16,
    force_keyframe: bool,
    /// Whether the oldest entry of `sent` is the receiver-confirmed
    /// baseline, numbered `base_seq` — the only state deltas are
    /// computed against.
    acked: bool,
    base_seq: u16,
    /// The baseline (when `acked`), then the reconstructions of the
    /// updates sent last, the newest numbered `next_seq − 1`, so that an
    /// incoming ack resolves to the exact bytes-derived state.
    sent: States,
    keyframes_sent: u64,
    deltas_sent: u64,
}

impl Default for EncoderContext {
    fn default() -> Self {
        Self::new()
    }
}

impl EncoderContext {
    /// Context with the default keyframe interval (16 deltas between
    /// unconditional keyframes).
    pub fn new() -> Self {
        Self::with_keyframe_interval(DEFAULT_KEYFRAME_INTERVAL)
    }

    /// Context sending an unconditional keyframe every `interval`
    /// updates (clamped to ≥ 1).
    pub fn with_keyframe_interval(interval: u16) -> Self {
        EncoderContext {
            next_seq: 0,
            keyframe_interval: interval.max(1),
            since_keyframe: 0,
            force_keyframe: false,
            acked: false,
            base_seq: 0,
            sent: States::default(),
            keyframes_sent: 0,
            deltas_sent: 0,
        }
    }

    /// Encodes the next update for `coords`, advancing the stream.
    ///
    /// Falls back to a keyframe when: no state has been acked yet, the
    /// peer requested one, the periodic interval elapsed, or the rank
    /// changed.
    pub fn encode(&mut self, coords: &[f64]) -> CoordUpdate {
        let seq = self.next_seq;

        let need_keyframe = self.force_keyframe
            || self.since_keyframe >= self.keyframe_interval
            || !self.acked
            || self.sent.stride != coords.len();

        let payload = if need_keyframe {
            let quantized = quantize_keyframe(coords);
            if quantized.len() != self.sent.stride {
                self.sent.reset(quantized.len());
                self.acked = false;
            }
            self.make_room();
            self.sent.push(&quantized);
            self.force_keyframe = false;
            self.since_keyframe = 0;
            self.keyframes_sent += 1;
            UpdatePayload::Keyframe { coords: quantized }
        } else {
            self.make_room();
            let (held, reconstruction) = self.sent.push_slot();
            let (scale, quants) = quantize_delta(&held[..coords.len()], coords, reconstruction);
            self.since_keyframe += 1;
            self.deltas_sent += 1;
            UpdatePayload::Delta {
                base_seq: self.base_seq,
                scale,
                quants,
            }
        };
        self.next_seq = seq.wrapping_add(1);
        CoordUpdate { seq, payload }
    }

    /// Feeds back an [`Ack`] from the peer. Advances the delta
    /// baseline when the acked update is still in the sent ring, and
    /// schedules a keyframe when the peer asked for one.
    pub fn on_ack(&mut self, ack: Ack) {
        if ack.want_keyframe {
            self.force_keyframe = true;
        }
        if self.acked && !seq_newer(ack.seq, self.base_seq) {
            return;
        }
        // The unacked entries are numbered consecutively up to
        // `next_seq − 1`.
        let age = usize::from(self.next_seq.wrapping_sub(ack.seq));
        let unacked = self.sent.len - usize::from(self.acked);
        if (1..=unacked).contains(&age) {
            self.sent.drop_oldest(self.sent.len - age);
            self.base_seq = ack.seq;
            self.acked = true;
        }
    }

    /// Forces the next [`encode`](Self::encode) to emit a keyframe.
    pub fn force_keyframe(&mut self) {
        self.force_keyframe = true;
    }

    /// Keyframes emitted so far.
    pub fn keyframes_sent(&self) -> u64 {
        self.keyframes_sent
    }

    /// Deltas emitted so far.
    pub fn deltas_sent(&self) -> u64 {
        self.deltas_sent
    }

    /// The reconstructions held now, packed oldest first (none when
    /// fresh): the memory the next `encode` and `on_ack` read, for a
    /// caller that sizes or prefetches it.
    pub fn held_states(&self) -> &[f64] {
        self.sent.held()
    }

    /// Before a push: a ring full of unacked updates loses the oldest
    /// of them; the baseline in front of it stays.
    fn make_room(&mut self) {
        if self.sent.len - usize::from(self.acked) == SENT_RING {
            if self.acked {
                self.sent.copy_entry(0, 1);
            }
            self.sent.drop_oldest(1);
        }
    }
}

/// Receiver half of a v2 coordinate stream from one peer.
#[derive(Clone, Debug, Default)]
pub struct DecoderContext {
    /// Recently-decoded reconstructions, candidate baselines, in
    /// arrival order…
    states: States,
    /// …and the sequence number each arrived under (one more than the
    /// cap: a new state is written before the oldest goes).
    seqs: [u16; DECODED_RING + 1],
    /// Newest decoded sequence number.
    newest: Option<u16>,
    want_keyframe: bool,
    gaps_detected: u64,
}

/// Equal when the held baselines, flags and gap count are.
impl PartialEq for DecoderContext {
    fn eq(&self, other: &Self) -> bool {
        self.states == other.states
            && self.seqs[..self.states.len] == other.seqs[..other.states.len]
            && (self.newest, self.want_keyframe) == (other.newest, other.want_keyframe)
            && self.gaps_detected == other.gaps_detected
    }
}

impl DecoderContext {
    /// Fresh context holding no baseline (first decodable update must
    /// be a keyframe — which is exactly what a fresh encoder sends).
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies one update, returning the reconstructed coordinates
    /// (the context's own copy, good until the next call).
    ///
    /// Keyframes always succeed. Deltas succeed iff the referenced
    /// baseline is still held; otherwise the context records the gap,
    /// raises `want_keyframe`, and the caller drops the update —
    /// stale data is never half-applied.
    pub fn apply(&mut self, update: &CoordUpdate) -> Result<&[f64], ContextError> {
        if let Some(newest) = self.newest {
            let jump = update.seq.wrapping_sub(newest);
            if (jump as i16) > 1 {
                self.gaps_detected += u64::from(jump - 1);
            }
        }

        match &update.payload {
            UpdatePayload::Keyframe { coords } => {
                self.want_keyframe = false;
                if coords.len() != self.states.stride {
                    self.states.reset(coords.len());
                }
                self.states.push(coords);
            }
            UpdatePayload::Delta {
                base_seq,
                scale,
                quants,
            } => {
                if self.position(*base_seq).is_none() {
                    self.want_keyframe = true;
                    return Err(ContextError::StaleBaseline {
                        base_seq: *base_seq,
                        seq: update.seq,
                    });
                }
                if self.states.stride != quants.len() {
                    self.want_keyframe = true;
                    return Err(ContextError::RankMismatch {
                        expected: self.states.stride,
                        got: quants.len(),
                    });
                }
                self.drop_older_than(*base_seq);
                let at = self.position(*base_seq).expect("the baseline is kept");
                let (held, coords) = self.states.push_slot();
                let base = &held[at * quants.len()..][..quants.len()];
                apply_delta(base, *scale, quants, coords);
            }
        }
        self.seqs[self.states.len - 1] = update.seq;
        if self.states.len > DECODED_RING {
            self.seqs.copy_within(1.., 0);
            self.states.drop_oldest(1);
        }
        if self.newest.is_none_or(|n| seq_newer(update.seq, n)) {
            self.newest = Some(update.seq);
        }
        Ok(self.states.get(self.states.len - 1))
    }

    /// Index of the oldest held state numbered `seq`.
    fn position(&self, seq: u16) -> Option<usize> {
        self.seqs[..self.states.len].iter().position(|&s| s == seq)
    }

    /// Drops every held state older than `seq`, keeping arrival order.
    fn drop_older_than(&mut self, seq: u16) {
        let mut kept = 0;
        for idx in 0..self.states.len {
            if seq_newer(seq, self.seqs[idx]) {
                continue;
            }
            if kept != idx {
                self.seqs[kept] = self.seqs[idx];
                self.states.copy_entry(idx, kept);
            }
            kept += 1;
        }
        self.states.len = kept;
    }

    /// The acknowledgement to piggyback on the next reverse-direction
    /// message, or `None` before anything has been decoded.
    pub fn ack(&self) -> Option<Ack> {
        self.newest.map(|seq| Ack {
            seq,
            want_keyframe: self.want_keyframe,
        })
    }

    /// Whether this decoder is waiting for a keyframe.
    pub fn wants_keyframe(&self) -> bool {
        self.want_keyframe
    }

    /// Sequence-number gaps observed (lost or reordered updates).
    pub fn gaps_detected(&self) -> u64 {
        self.gaps_detected
    }

    /// The reconstructions held now, packed oldest first (none when
    /// fresh): the memory the next `apply` reads, for a caller that
    /// sizes or prefetches it.
    pub fn held_states(&self) -> &[f64] {
        self.states.held()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drift(coords: &[f64], step: f64) -> Vec<f64> {
        coords.iter().map(|c| c + step).collect()
    }

    /// Lossless conversation: after the first keyframe, everything is
    /// a delta and both sides agree bit-for-bit.
    #[test]
    fn lossless_stream_stays_in_sync() {
        let mut enc = EncoderContext::with_keyframe_interval(u16::MAX);
        let mut dec = DecoderContext::new();
        let mut coords: Vec<f64> = (0..8).map(|i| i as f64 * 0.25 - 1.0).collect();

        let mut keyframes = 0;
        for round in 0..40 {
            let update = enc.encode(&coords);
            if update.is_keyframe() {
                keyframes += 1;
            }
            let recon = dec.apply(&update).expect("lossless stream decodes");
            for (r, c) in recon.iter().zip(&coords) {
                assert!((r - c).abs() < 0.02, "round {round}: {r} vs {c}");
            }
            // Feed the ack straight back, as the reverse channel would.
            enc.on_ack(dec.ack().expect("decoded at least one update"));
            coords = drift(&coords, 0.003);
        }
        assert_eq!(keyframes, 1, "only the priming update is a keyframe");
        assert_eq!(dec.gaps_detected(), 0);
    }

    /// The pinned gap→keyframe recovery sequence: drop a delta, watch
    /// the decoder detect the gap, then (after baseline loss) request
    /// and accept a keyframe. Fully deterministic.
    #[test]
    fn gap_recovery_regression() {
        let mut enc = EncoderContext::with_keyframe_interval(u16::MAX);
        let mut dec = DecoderContext::new();
        let mut coords = vec![0.5, -0.5, 0.25, -0.25];

        // seq 0: priming keyframe, delivered + acked.
        let update = enc.encode(&coords);
        assert!(update.is_keyframe());
        dec.apply(&update).expect("keyframe");
        enc.on_ack(dec.ack().unwrap());

        // seq 1: delta, LOST — the ack for seq 0 stands.
        coords = drift(&coords, 0.01);
        let lost = enc.encode(&coords);
        assert!(!lost.is_keyframe());

        // seq 2: delta against the still-acked seq 0 — decodes fine,
        // and the decoder has counted exactly one missing update.
        coords = drift(&coords, 0.01);
        let update = enc.encode(&coords);
        assert!(!update.is_keyframe());
        dec.apply(&update).expect("delta against acked base");
        assert_eq!(dec.gaps_detected(), 1);
        assert!(!dec.wants_keyframe());

        // Now simulate total baseline loss (e.g. the peer restarted).
        let mut fresh = DecoderContext::new();
        coords = drift(&coords, 0.01);
        let update = enc.encode(&coords);
        let err = fresh.apply(&update).expect_err("no baseline held");
        assert!(matches!(err, ContextError::StaleBaseline { .. }));
        assert!(fresh.wants_keyframe());

        // The want_keyframe flag travels on the next reverse message;
        // a fresh decoder has no seq yet, so the agent sends seq=0 +
        // want_keyframe via its own path — here we force it directly.
        enc.force_keyframe();
        coords = drift(&coords, 0.01);
        let update = enc.encode(&coords);
        assert!(update.is_keyframe(), "gap must trigger a keyframe");
        let recon = fresh.apply(&update).expect("keyframe always decodes");
        for (r, c) in recon.iter().zip(&coords) {
            assert!((r - c).abs() < 0.02);
        }
        assert!(!fresh.wants_keyframe(), "keyframe clears the request");
    }

    #[test]
    fn want_keyframe_ack_forces_keyframe() {
        let mut enc = EncoderContext::with_keyframe_interval(u16::MAX);
        let coords = vec![1.0, 2.0];
        let first = enc.encode(&coords);
        enc.on_ack(Ack {
            seq: first.seq,
            want_keyframe: false,
        });
        assert!(!enc.encode(&coords).is_keyframe(), "acked → delta");
        enc.on_ack(Ack {
            seq: first.seq,
            want_keyframe: true,
        });
        assert!(enc.encode(&coords).is_keyframe(), "requested → keyframe");
    }

    #[test]
    fn periodic_keyframes_bound_recovery() {
        let mut enc = EncoderContext::with_keyframe_interval(4);
        let coords = vec![0.1, 0.2, 0.3];
        let primed = enc.encode(&coords).seq;
        enc.on_ack(Ack {
            seq: primed,
            want_keyframe: false,
        });
        let mut kinds = Vec::new();
        for _ in 0..8 {
            kinds.push(enc.encode(&coords).is_keyframe());
        }
        // 4 deltas, then the interval forces a keyframe, repeat.
        assert_eq!(
            kinds,
            vec![false, false, false, false, true, false, false, false]
        );
    }

    #[test]
    fn rank_change_falls_back_to_keyframe() {
        let mut enc = EncoderContext::new();
        let first = enc.encode(&[1.0, 2.0]);
        enc.on_ack(Ack {
            seq: first.seq,
            want_keyframe: false,
        });
        let update = enc.encode(&[1.0, 2.0, 3.0]);
        assert!(update.is_keyframe(), "rank change cannot be a delta");
    }

    #[test]
    fn duplicate_and_reordered_updates_are_harmless() {
        let mut enc = EncoderContext::with_keyframe_interval(u16::MAX);
        let mut dec = DecoderContext::new();
        let a = enc.encode(&[1.0, 1.0]);
        dec.apply(&a).unwrap();
        enc.on_ack(dec.ack().unwrap());
        let b = enc.encode(&[1.01, 1.01]);
        dec.apply(&b).unwrap();
        // Duplicate of b, then a re-delivery of old a: both decode
        // without advancing the ack or counting gaps.
        dec.apply(&b).unwrap();
        dec.apply(&a).unwrap();
        assert_eq!(dec.ack().unwrap().seq, b.seq);
        assert_eq!(dec.gaps_detected(), 0);
    }

    /// `held_states` is exactly the live entries: nothing when fresh,
    /// `len × stride` values after, and never what `drop_oldest` or a
    /// rank reset left behind in the buffer.
    #[test]
    fn held_states_are_exactly_the_live_entries() {
        let mut enc = EncoderContext::with_keyframe_interval(u16::MAX);
        let mut dec = DecoderContext::new();
        assert!(enc.held_states().is_empty() && dec.held_states().is_empty());

        // Three unacked updates of four values: all three are held.
        let coords = [0.5, -0.5, 0.25, -0.25];
        let sent: Vec<CoordUpdate> = (0..3).map(|_| enc.encode(&coords)).collect();
        assert_eq!(enc.held_states().len(), 3 * 4);
        for update in &sent {
            dec.apply(update).expect("keyframes decode");
        }
        assert_eq!(dec.held_states().len(), 3 * 4);
        assert_eq!(enc.held_states(), dec.held_states());

        // The ack of the newest drops the two older ones from the
        // encoder; the delta on that baseline drops them from the
        // decoder. Both buffers keep their three entries' capacity.
        enc.on_ack(dec.ack().expect("decoded"));
        assert_eq!(enc.held_states(), &dec.held_states()[2 * 4..]);
        let delta = enc.encode(&drift(&coords, 0.01));
        assert!(!delta.is_keyframe());
        let decoded = dec.apply(&delta).expect("baseline held").to_vec();
        assert_eq!(enc.held_states().len(), 2 * 4, "baseline and delta");
        assert_eq!(enc.held_states(), dec.held_states());
        assert_eq!(&dec.held_states()[4..], decoded);

        // A rank change restarts both rings at the new stride.
        let wider = enc.encode(&[1.0; 6]);
        assert!(wider.is_keyframe());
        dec.apply(&wider).expect("keyframe");
        assert_eq!(enc.held_states(), [1.0; 6]);
        assert_eq!(dec.held_states(), [1.0; 6]);
    }

    #[test]
    fn seq_wraparound_stays_ordered() {
        assert!(seq_newer(0, u16::MAX));
        assert!(seq_newer(5, u16::MAX - 5));
        assert!(!seq_newer(u16::MAX, 0));
        assert!(!seq_newer(7, 7));
    }

    #[test]
    fn stale_delta_is_never_half_applied() {
        let mut dec = DecoderContext::new();
        let update = CoordUpdate {
            seq: 9,
            payload: UpdatePayload::Delta {
                base_seq: 3,
                scale: 0.01,
                quants: vec![1, -1].into(),
            },
        };
        assert!(dec.apply(&update).is_err());
        assert!(dec.ack().is_none(), "nothing decoded, nothing acked");
        assert!(dec.wants_keyframe());
    }
}
