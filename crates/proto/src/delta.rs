//! Quantized coordinate updates: f16 keyframes and i8 deltas.
//!
//! Protocol v2 never ships raw f64 coordinates. A [`CoordUpdate`] is
//! either a **keyframe** (every coordinate rounded to IEEE 754
//! binary16) or a **delta** (per-coordinate differences against an
//! earlier reconstructed state, scaled to `i8`). Both sides of a
//! connection reconstruct coordinates *from the transmitted bytes
//! only* — the encoder keeps the dequantized values it actually sent,
//! not the exact values it was given — so quantization error never
//! accumulates: each delta is computed against the state the receiver
//! really holds, and the residual left by one update is folded into
//! the next.
//!
//! The paper's outputs are classes (`sign(u_i · v_j)`), which makes
//! coordinates extremely tolerant of low-precision transport; see the
//! byte-accounting table in `docs/guide.md`.

/// Largest finite binary16 value; encoder input is clamped to ±this.
const F16_MAX: f64 = 65504.0;

/// Upper bound on values in one update block (a v2 `RttReply` carries
/// `u` and `v` concatenated, so this is twice [`crate::codec::MAX_RANK`]).
pub const MAX_BLOCK: usize = 2 * crate::codec::MAX_RANK;

/// Values a [`Block`] holds without touching the heap: `u ‖ v` at
/// rank 16, the same rank up to which `dmf_linalg::CoordVec` is inline.
const INLINE_BLOCK: usize = 32;

/// The values of one update block — coordinates or delta quanta —
/// stored in the value itself up to 32 (`INLINE_BLOCK`) of them, so that
/// encoding and decoding at the paper's ranks never allocate. Longer
/// blocks (up to [`MAX_BLOCK`] from the network) spill to a `Vec`.
///
/// Dereferences to a slice; equality compares the values regardless of
/// storage.
#[derive(Clone)]
pub struct Block<T>(Repr<T>);

#[derive(Clone)]
enum Repr<T> {
    Inline { len: u8, data: [T; INLINE_BLOCK] },
    Spilled(Vec<T>),
}

impl<T: Copy + Default> Block<T> {
    /// A block of `len` default values (zeros), to be written through
    /// the slice it dereferences to.
    pub fn zeros(len: usize) -> Self {
        if len > INLINE_BLOCK {
            return Block(Repr::Spilled(vec![T::default(); len]));
        }
        Block(Repr::Inline {
            len: len as u8,
            data: [T::default(); INLINE_BLOCK],
        })
    }

    /// Appends one value.
    fn push(&mut self, value: T) {
        match &mut self.0 {
            Repr::Inline { len, data } => {
                if let Some(slot) = data.get_mut(usize::from(*len)) {
                    *slot = value;
                    *len += 1;
                } else {
                    let mut spilled = Vec::with_capacity(2 * INLINE_BLOCK);
                    spilled.extend_from_slice(data);
                    spilled.push(value);
                    self.0 = Repr::Spilled(spilled);
                }
            }
            Repr::Spilled(values) => values.push(value),
        }
    }
}

impl<T> std::ops::Deref for Block<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::Inline { len, data } => &data[..usize::from(*len)],
            Repr::Spilled(values) => values,
        }
    }
}

impl<T> std::ops::DerefMut for Block<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Inline { len, data } => &mut data[..usize::from(*len)],
            Repr::Spilled(values) => values,
        }
    }
}

impl<T: Copy + Default> FromIterator<T> for Block<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut block = Block::zeros(0);
        for value in iter {
            block.push(value);
        }
        block
    }
}

impl<T: Copy + Default> From<&[T]> for Block<T> {
    fn from(values: &[T]) -> Self {
        let mut block = Block::zeros(values.len());
        block.copy_from_slice(values);
        block
    }
}

impl<T: Copy + Default> From<Vec<T>> for Block<T> {
    fn from(values: Vec<T>) -> Self {
        if values.len() <= INLINE_BLOCK {
            Block::from(values.as_slice())
        } else {
            Block(Repr::Spilled(values))
        }
    }
}

impl<T: PartialEq> PartialEq for Block<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: PartialEq> PartialEq<Vec<T>> for Block<T> {
    fn eq(&self, other: &Vec<T>) -> bool {
        **self == **other
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Block<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// Rounds an `f64` to the nearest binary16 and returns its bit
/// pattern. Non-finite input is treated as zero; magnitudes beyond
/// `F16_MAX` (65504) saturate to the largest finite half. Never produces an
/// infinity or NaN pattern.
pub fn f16_from_f64(value: f64) -> u16 {
    let value = if value.is_finite() { value } else { 0.0 };
    let value = value.clamp(-F16_MAX, F16_MAX) as f32;

    let bits = value.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let mant = bits & 0x007F_FFFF;
    let unbiased = exp - 127;

    if unbiased < -24 {
        // Below the smallest half subnormal: flush to signed zero.
        return sign;
    }
    if unbiased < -14 {
        // Half subnormal range: shift the implicit-bit mantissa down
        // and round to nearest even.
        let shift = (13 - 14 - unbiased) as u32; // 14..=23
        let full = mant | 0x0080_0000;
        let mut half = (full >> shift) as u16;
        let round = full & ((1u32 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        if round > halfway || (round == halfway && half & 1 == 1) {
            half += 1;
        }
        return sign | half;
    }

    let mut h_exp = (unbiased + 15) as u32;
    let mut h_mant = mant >> 13;
    let round = mant & 0x1FFF;
    if round > 0x1000 || (round == 0x1000 && h_mant & 1 == 1) {
        h_mant += 1;
        if h_mant == 0x400 {
            h_mant = 0;
            h_exp += 1;
        }
    }
    if h_exp >= 31 {
        // Unreachable after the clamp above, but keep the saturation
        // so this function can never emit an inf/NaN pattern.
        return sign | 0x7BFF;
    }
    sign | ((h_exp as u16) << 10) | h_mant as u16
}

/// Expands a binary16 bit pattern to `f64` (exact). Exponent-31
/// patterns (inf/NaN) map to NaN; the codec rejects them before this
/// is reached on the decode path.
pub fn f16_to_f64(bits: u16) -> f64 {
    let negative = bits & 0x8000 != 0;
    let exp = u32::from(bits >> 10) & 0x1F;
    let mant = u32::from(bits & 0x3FF);
    match exp {
        // Subnormal (and signed zero): ±mant × 2⁻²⁴.
        0 => {
            let sign = if negative { -1.0 } else { 1.0 };
            sign * f64::from(mant) / 16_777_216.0
        }
        31 => f64::NAN,
        // Normal: sign, exponent and mantissa moved into a binary32.
        e => {
            let sign = u32::from(negative) << 31;
            f64::from(f32::from_bits(sign | (e + 112) << 23 | mant << 13))
        }
    }
}

/// Whether a binary16 bit pattern is finite (not inf/NaN).
pub fn f16_is_finite(bits: u16) -> bool {
    (bits >> 10) & 0x1F != 31
}

/// Rounds every coordinate to its nearest binary16 value — the exact
/// state a receiver reconstructs from a keyframe.
pub fn quantize_keyframe(coords: &[f64]) -> Block<f64> {
    let mut quantized = Block::zeros(coords.len());
    for (q, &c) in quantized.iter_mut().zip(coords) {
        *q = f16_to_f64(f16_from_f64(c));
    }
    quantized
}

/// One reconstructed value — the arithmetic both encoder and decoder
/// run, so their states stay bit-identical.
#[inline]
fn reconstruct(base: f64, quant: i8, scale: f64) -> f64 {
    base + f64::from(quant) * scale
}

/// Quantizes `coords − baseline` to a shared binary16 scale and
/// per-coordinate `i8` steps, and writes the state a receiver will
/// reconstruct from them into `reconstruction` (in the same pass: the
/// encoder keeps exactly that state, see the module docs).
///
/// Returns `(scale, quants)` with every quant in `[-127, 127]` and
/// `scale ≥ 0` exactly representable in binary16. A zero scale means
/// the update is a no-op (all diffs below half precision).
///
/// # Panics
/// Panics if the slices differ in length (an internal programming
/// error — the encoder context always deltas against a same-rank
/// baseline).
pub fn quantize_delta(
    baseline: &[f64],
    coords: &[f64],
    reconstruction: &mut [f64],
) -> (f64, Block<i8>) {
    assert_eq!(
        baseline.len(),
        coords.len(),
        "delta baseline rank {} != coords rank {}",
        baseline.len(),
        coords.len()
    );
    assert_eq!(baseline.len(), reconstruction.len());
    let max_abs = baseline
        .iter()
        .zip(coords)
        .map(|(&b, &c)| (c - b).abs())
        .fold(0.0f64, f64::max);
    let scale = f16_to_f64(f16_from_f64(max_abs / 127.0));
    let mut quants = Block::zeros(coords.len());
    if scale == 0.0 || !scale.is_finite() {
        apply_delta(baseline, 0.0, &quants, reconstruction);
        return (0.0, quants);
    }
    let inputs = baseline.iter().zip(coords);
    let outputs = quants.iter_mut().zip(reconstruction);
    for ((&base, &coord), (quant, reconstructed)) in inputs.zip(outputs) {
        *quant = ((coord - base) / scale).round().clamp(-127.0, 127.0) as i8;
        *reconstructed = reconstruct(base, *quant, scale);
    }
    (scale, quants)
}

/// Reconstructs coordinates from a baseline and a quantized delta into
/// `out`.
///
/// # Panics
/// Panics if the slices differ in length; callers validate rank
/// before reconstruction.
pub fn apply_delta(baseline: &[f64], scale: f64, quants: &[i8], out: &mut [f64]) {
    assert_eq!(
        baseline.len(),
        quants.len(),
        "delta baseline rank {} != quant rank {}",
        baseline.len(),
        quants.len()
    );
    assert_eq!(baseline.len(), out.len());
    for ((out, &base), &quant) in out.iter_mut().zip(baseline).zip(quants) {
        *out = reconstruct(base, quant, scale);
    }
}

/// One coordinate update on a v2 stream: a sequence number plus a
/// keyframe or delta payload.
#[derive(Clone, Debug, PartialEq)]
pub struct CoordUpdate {
    /// Position in the sender's per-peer stream (wrapping `u16`);
    /// non-contiguous arrivals are how the decoder detects gaps.
    pub seq: u16,
    /// The quantized coordinates.
    pub payload: UpdatePayload,
}

/// The body of a [`CoordUpdate`].
// Inline on purpose: boxing the keyframe's block, as the lint
// suggests, puts an allocation back on the probe path.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq)]
pub enum UpdatePayload {
    /// Full state, each value binary16-rounded. Always decodable.
    Keyframe {
        /// The reconstructed coordinate block.
        coords: Block<f64>,
    },
    /// Differences against an earlier update's reconstruction.
    Delta {
        /// Sequence number of the baseline this delta builds on.
        base_seq: u16,
        /// Step size shared by all quants (binary16-exact, ≥ 0).
        scale: f64,
        /// Per-coordinate steps in `[-127, 127]`.
        quants: Block<i8>,
    },
}

impl CoordUpdate {
    /// Number of coordinate values carried.
    pub fn rank(&self) -> usize {
        match &self.payload {
            UpdatePayload::Keyframe { coords } => coords.len(),
            UpdatePayload::Delta { quants, .. } => quants.len(),
        }
    }

    /// Whether this update is a full-state keyframe.
    pub fn is_keyframe(&self) -> bool {
        matches!(self.payload, UpdatePayload::Keyframe { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_roundtrips_exact_halves() {
        for value in [0.0, -0.0, 1.0, -1.0, 0.5, 1024.0, 65504.0, -65504.0] {
            let bits = f16_from_f64(value);
            assert_eq!(f16_to_f64(bits), value, "{value} must round-trip");
        }
    }

    /// Every finite pattern expands to the value its fields spell out.
    #[test]
    fn f16_to_f64_matches_the_definition_on_every_pattern() {
        for bits in 0..=u16::MAX {
            let sign = if bits & 0x8000 != 0 { -1.0 } else { 1.0 };
            let exp = i32::from((bits >> 10) & 0x1F);
            let mant = f64::from(bits & 0x3FF);
            let want = match exp {
                0 => sign * mant * (-24f64).exp2(),
                31 => {
                    assert!(f16_to_f64(bits).is_nan());
                    continue;
                }
                e => sign * (1.0 + mant / 1024.0) * f64::from(e - 15).exp2(),
            };
            assert_eq!(f16_to_f64(bits).to_bits(), want.to_bits(), "{bits:#06x}");
        }
    }

    #[test]
    fn f16_quantization_is_idempotent() {
        for &value in &[0.3, -2.7, 1e-3, 700.25, -1e-6, 9999.0] {
            let once = f16_to_f64(f16_from_f64(value));
            let twice = f16_to_f64(f16_from_f64(once));
            assert_eq!(once, twice, "{value}: second rounding must be a no-op");
        }
    }

    #[test]
    fn f16_never_emits_non_finite() {
        for value in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 1e300, -1e300] {
            let bits = f16_from_f64(value);
            assert!(f16_is_finite(bits), "{value} must encode finite");
        }
    }

    #[test]
    fn f16_relative_error_is_half_precision() {
        for i in 0..1000 {
            let value = (i as f64 - 500.0) * 0.013 + 0.0007;
            let back = f16_to_f64(f16_from_f64(value));
            let err = (back - value).abs();
            assert!(
                err <= value.abs() * 1e-3 + 6e-8,
                "{value} -> {back}: err {err}"
            );
        }
    }

    #[test]
    fn f16_subnormals_roundtrip() {
        // Smallest positive half subnormal is 2^-24.
        let tiny = (-24f64).exp2();
        assert_eq!(f16_to_f64(f16_from_f64(tiny)), tiny);
        // Below half of it: flushes to zero.
        assert_eq!(f16_to_f64(f16_from_f64(tiny / 4.0)), 0.0);
    }

    #[test]
    fn block_is_inline_until_cap_then_spills() {
        let at_cap: Block<i8> = (0..INLINE_BLOCK).map(|i| i as i8).collect();
        assert!(matches!(at_cap.0, Repr::Inline { .. }));
        assert_eq!(at_cap.len(), INLINE_BLOCK);
        let mut over = at_cap.clone();
        over.push(99);
        assert!(matches!(over.0, Repr::Spilled(_)));
        assert_eq!(over[..INLINE_BLOCK], at_cap[..]);
        assert_eq!(over[INLINE_BLOCK], 99);
        // Equality looks at the values, not at where they live.
        let values: Vec<i8> = over.to_vec();
        assert_eq!(Block::from(values.clone()), over);
        assert_eq!(Block::from(&values[..3]), vec![0, 1, 2]);
    }

    #[test]
    fn delta_roundtrip_recovers_small_motion() {
        let baseline: Vec<f64> = (0..10).map(|i| i as f64 * 0.1 - 0.4).collect();
        let coords: Vec<f64> = baseline.iter().map(|b| b + 0.011).collect();
        let (mut sent, mut recon) = ([0.0; 10], [0.0; 10]);
        let (scale, quants) = quantize_delta(&baseline, &coords, &mut sent);
        assert!(quants.iter().all(|&q| (-127..=127).contains(&q)));
        apply_delta(&baseline, scale, &quants, &mut recon);
        assert_eq!(sent, recon, "both ends hold the same state");
        for (r, c) in recon.iter().zip(&coords) {
            assert!((r - c).abs() <= scale, "recon {r} vs {c} (scale {scale})");
        }
    }

    #[test]
    fn delta_of_identical_states_is_zero() {
        let baseline = [1.0, -2.0, 3.0];
        let (mut sent, mut recon) = ([9.0; 3], [9.0; 3]);
        let (scale, quants) = quantize_delta(&baseline, &baseline, &mut sent);
        assert_eq!(scale, 0.0);
        assert_eq!(quants, vec![0, 0, 0]);
        apply_delta(&baseline, scale, &quants, &mut recon);
        assert_eq!((sent, recon), (baseline, baseline));
    }

    #[test]
    fn delta_scale_bounds_every_quant() {
        // Large asymmetric motion still quantizes into range.
        let baseline = [0.0, 0.0, 0.0, 0.0];
        let coords = [5.0, -5.0, 0.1, 0.0];
        let (mut sent, mut recon) = ([0.0; 4], [0.0; 4]);
        let (scale, quants) = quantize_delta(&baseline, &coords, &mut sent);
        assert!(quants.iter().all(|&q| (-127..=127).contains(&q)));
        apply_delta(&baseline, scale, &quants, &mut recon);
        assert_eq!(sent, recon, "both ends hold the same state");
        for (r, c) in recon.iter().zip(&coords) {
            assert!((r - c).abs() <= scale, "recon {r} vs {c}");
        }
    }

    #[test]
    fn keyframe_quantization_matches_reconstruction() {
        let coords = [0.123, -4.56, 7.89, 0.0];
        let q = quantize_keyframe(&coords);
        // Re-quantizing the reconstructed state is a no-op — encoder
        // and decoder agree on the baseline bit-for-bit.
        assert_eq!(quantize_keyframe(&q), q);
    }
}
