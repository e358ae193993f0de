//! Encoding and decoding of protocol messages (v1 and v2).
//!
//! Both versions are [`crate::frame`] formats ([`PROBE_V1`],
//! [`PROBE_V2`]): the header, length field and checksum are written
//! and verified there, so this module only lays out payloads.
//!
//! Every decode path is total: malformed, truncated, corrupted or
//! hostile datagrams produce a [`DecodeError`], never a panic or an
//! unbounded allocation. These paths are exercised end-to-end by the
//! seeded fault-injection harness in [`crate::fault`] — see
//! `examples/lossy_cluster.rs`, which runs a live UDP cluster through
//! 20% drop plus corruption — and by the mutation-fuzz proptests in
//! `tests/mutation_fuzz.rs`.
//!
//! Version negotiation happens on the header byte at offset 2:
//! [`decode_any`] dispatches to the v1 or v2 parser, so a v2 node
//! stays able to decode (and answer) v1 peers.

use crate::context::Ack;
use crate::delta::{
    f16_from_f64, f16_is_finite, f16_to_f64, Block, CoordUpdate, UpdatePayload, MAX_BLOCK,
};
use crate::frame::{Reader, PROBE_V1, PROBE_V2};
use crate::message::Message;
use crate::message_v2::MessageV2;
use bytes::{BufMut, Bytes};

pub use crate::frame::{checksum, CHECKSUM_LEN};

/// Protocol version 1 (full f64 coordinates).
const VERSION: u8 = PROBE_V1.version();
/// Protocol version 2 (quantized delta/keyframe coordinates).
const VERSION_V2: u8 = PROBE_V2.version();
/// Upper bound on coordinate rank accepted from the network.
pub const MAX_RANK: usize = 256;
/// v1 header length in bytes (magic + version + type + payload_len u32).
pub const HEADER_LEN: usize = PROBE_V1.header_len();

/// Which protocol version a sender speaks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum WireVersion {
    /// Version 1: plain f64 coordinate vectors.
    V1,
    /// Version 2: delta/keyframe quantized updates (default).
    #[default]
    V2,
}

impl WireVersion {
    /// The version byte this variant puts on the wire.
    fn header_byte(self) -> u8 {
        match self {
            WireVersion::V1 => VERSION,
            WireVersion::V2 => VERSION_V2,
        }
    }
}

impl std::fmt::Display for WireVersion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.header_byte())
    }
}

/// A successfully decoded datagram of either protocol version.
// A v2 message carries its update block inline (see `UpdatePayload`).
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq)]
pub enum WireMessage {
    /// A protocol-v1 message.
    V1(Message),
    /// A protocol-v2 message.
    V2(MessageV2),
}

/// Why a datagram was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Shorter than header + checksum.
    TooShort,
    /// Magic mismatch.
    BadMagic,
    /// Unknown protocol version.
    BadVersion,
    /// Unknown message type tag.
    BadType,
    /// Header length field disagrees with the datagram size.
    LengthMismatch,
    /// CRC32C trailer mismatch: corruption, or a frame sealed with the
    /// FNV-1a trailer older builds wrote.
    BadChecksum,
    /// Payload shorter than its own fields claim.
    TruncatedPayload,
    /// Coordinate rank of 0 or above [`MAX_RANK`].
    BadRank,
    /// Non-finite float, or a class label other than ±1.
    BadValue,
    /// Payload longer than its fields account for.
    TrailingBytes,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DecodeError::TooShort => "datagram too short",
            DecodeError::BadMagic => "bad magic",
            DecodeError::BadVersion => "unsupported version",
            DecodeError::BadType => "unknown message type",
            DecodeError::LengthMismatch => "length field mismatch",
            DecodeError::BadChecksum => "checksum mismatch",
            DecodeError::TruncatedPayload => "truncated payload",
            DecodeError::BadRank => "coordinate rank out of bounds",
            DecodeError::BadValue => "invalid field value",
            DecodeError::TrailingBytes => "trailing bytes after payload",
        };
        f.write_str(s)
    }
}

impl std::error::Error for DecodeError {}

fn put_coords(buf: &mut Vec<u8>, coords: &[f64]) {
    assert!(
        (1..=MAX_RANK).contains(&coords.len()),
        "coordinate rank {} outside 1..={MAX_RANK}",
        coords.len()
    );
    buf.put_u16_le(coords.len() as u16);
    for &c in coords {
        buf.put_f64_le(c);
    }
}

/// Encodes a message into a standalone datagram.
///
/// # Panics
/// As [`encode_into`].
pub fn encode(msg: &Message) -> Bytes {
    let mut out = Vec::with_capacity(64);
    encode_into(msg, &mut out);
    Bytes::from(out)
}

/// [`encode`] into a caller-owned buffer: `out` is cleared and left
/// holding exactly the datagram, so a reused buffer makes encoding
/// allocation-free.
///
/// # Panics
/// Panics if a coordinate vector exceeds [`MAX_RANK`] (an internal
/// programming error, not a network condition).
pub fn encode_into(msg: &Message, out: &mut Vec<u8>) {
    out.clear();
    let start = PROBE_V1.begin(out, msg.type_tag());
    match msg {
        Message::RttProbe { nonce } => out.put_u64_le(*nonce),
        Message::RttReply { nonce, u, v } => {
            out.put_u64_le(*nonce);
            put_coords(out, u);
            put_coords(out, v);
        }
        Message::AbwProbe {
            nonce,
            rate_mbps,
            u,
        } => {
            out.put_u64_le(*nonce);
            out.put_f64_le(*rate_mbps);
            put_coords(out, u);
        }
        Message::AbwReply { nonce, x, v } => {
            out.put_u64_le(*nonce);
            out.put_f64_le(*x);
            put_coords(out, v);
        }
    }
    PROBE_V1.seal(out, start);
}

/// Reads a finite `f64`.
fn get_finite(r: &mut Reader) -> Result<f64, DecodeError> {
    let value = r.f64()?;
    if value.is_finite() {
        Ok(value)
    } else {
        Err(DecodeError::BadValue)
    }
}

fn get_coords(r: &mut Reader) -> Result<Vec<f64>, DecodeError> {
    let rank = r.u16()? as usize;
    if rank == 0 || rank > MAX_RANK {
        return Err(DecodeError::BadRank);
    }
    let mut values = Reader::new(r.take(rank * 8)?);
    let mut coords = Vec::with_capacity(rank);
    for _ in 0..rank {
        coords.push(get_finite(&mut values)?);
    }
    Ok(coords)
}

/// Decodes a datagram.
pub fn decode(datagram: &[u8]) -> Result<Message, DecodeError> {
    let (type_tag, mut r) = PROBE_V1.open(datagram)?;
    let msg = match type_tag {
        1 => Message::RttProbe { nonce: r.u64()? },
        2 => {
            let nonce = r.u64()?;
            let u = get_coords(&mut r)?;
            let v = get_coords(&mut r)?;
            if u.len() != v.len() {
                return Err(DecodeError::BadRank);
            }
            Message::RttReply { nonce, u, v }
        }
        3 => {
            let nonce = r.u64()?;
            let rate_mbps = get_finite(&mut r)?;
            if rate_mbps <= 0.0 {
                return Err(DecodeError::BadValue);
            }
            let u = get_coords(&mut r)?;
            Message::AbwProbe {
                nonce,
                rate_mbps,
                u,
            }
        }
        4 => {
            let nonce = r.u64()?;
            let x = get_finite(&mut r)?;
            if x != 1.0 && x != -1.0 {
                return Err(DecodeError::BadValue);
            }
            let v = get_coords(&mut r)?;
            Message::AbwReply { nonce, x, v }
        }
        _ => return Err(DecodeError::BadType),
    };
    r.finish()?;
    Ok(msg)
}

// ---------------------------------------------------------------- v2

/// Message flag bits (v2): ack present / ack requests a keyframe.
const FLAG_HAS_ACK: u8 = 0b01;
const FLAG_WANT_KEYFRAME: u8 = 0b10;
/// Update-block flag bit (v2): payload is a keyframe, not a delta.
const FLAG_KEYFRAME: u8 = 0b01;

fn put_ack_flags(buf: &mut Vec<u8>, ack: Option<Ack>) {
    match ack {
        None => buf.put_u8(0),
        Some(ack) => {
            let mut flags = FLAG_HAS_ACK;
            if ack.want_keyframe {
                flags |= FLAG_WANT_KEYFRAME;
            }
            buf.put_u8(flags);
            buf.put_u16_le(ack.seq);
        }
    }
}

fn put_update(buf: &mut Vec<u8>, update: &CoordUpdate) {
    let rank = update.rank();
    assert!(
        (1..=MAX_BLOCK).contains(&rank),
        "update rank {rank} outside 1..={MAX_BLOCK}"
    );
    match &update.payload {
        UpdatePayload::Keyframe { coords } => {
            buf.put_u8(FLAG_KEYFRAME);
            buf.put_u16_le(update.seq);
            buf.put_u16_le(coords.len() as u16);
            for &c in coords.iter() {
                buf.put_u16_le(f16_from_f64(c));
            }
        }
        UpdatePayload::Delta {
            base_seq,
            scale,
            quants,
        } => {
            buf.put_u8(0);
            buf.put_u16_le(update.seq);
            buf.put_u16_le(*base_seq);
            buf.put_u16_le(f16_from_f64(*scale));
            buf.put_u16_le(quants.len() as u16);
            for &q in quants.iter() {
                buf.put_i8(q);
            }
        }
    }
}

/// Encodes a v2 message into a standalone datagram.
///
/// # Panics
/// As [`encode_v2_into`].
pub fn encode_v2(msg: &MessageV2) -> Bytes {
    let mut out = Vec::with_capacity(64);
    encode_v2_into(msg, &mut out);
    Bytes::from(out)
}

/// [`encode_v2`] into a caller-owned buffer: `out` is cleared and left
/// holding exactly the datagram, so a reused buffer makes encoding
/// allocation-free.
///
/// # Panics
/// Panics if an update block is empty or exceeds
/// [`MAX_BLOCK`] values, or if an `RttReply`
/// block has odd rank (it must carry `u ‖ v`) — internal programming
/// errors, not network conditions.
pub fn encode_v2_into(msg: &MessageV2, out: &mut Vec<u8>) {
    out.clear();
    let start = PROBE_V2.begin(out, msg.type_tag());
    match msg {
        MessageV2::RttProbe { nonce, ack } => {
            out.put_u32_le(*nonce);
            put_ack_flags(out, *ack);
        }
        MessageV2::RttReply { nonce, update } => {
            assert!(
                update.rank() % 2 == 0,
                "RttReply update must carry u ‖ v (even rank, got {})",
                update.rank()
            );
            out.put_u32_le(*nonce);
            put_update(out, update);
        }
        MessageV2::AbwProbe {
            nonce,
            rate_mbps,
            ack,
            update,
        } => {
            out.put_u32_le(*nonce);
            put_ack_flags(out, *ack);
            out.put_f32_le(*rate_mbps as f32);
            put_update(out, update);
        }
        MessageV2::AbwReply {
            nonce,
            x,
            ack,
            update,
        } => {
            out.put_u32_le(*nonce);
            put_ack_flags(out, *ack);
            out.put_i8(if *x >= 0.0 { 1 } else { -1 });
            put_update(out, update);
        }
    }
    PROBE_V2.seal(out, start);
}

fn get_ack_flags(r: &mut Reader) -> Result<Option<Ack>, DecodeError> {
    let flags = r.u8()?;
    if flags & !(FLAG_HAS_ACK | FLAG_WANT_KEYFRAME) != 0 {
        return Err(DecodeError::BadValue);
    }
    if flags & FLAG_HAS_ACK == 0 {
        // A want_keyframe bit without an ack is malformed.
        if flags & FLAG_WANT_KEYFRAME != 0 {
            return Err(DecodeError::BadValue);
        }
        return Ok(None);
    }
    Ok(Some(Ack {
        seq: r.u16()?,
        want_keyframe: flags & FLAG_WANT_KEYFRAME != 0,
    }))
}

fn get_rank(r: &mut Reader) -> Result<usize, DecodeError> {
    let rank = r.u16()? as usize;
    if rank == 0 || rank > MAX_BLOCK {
        return Err(DecodeError::BadRank);
    }
    Ok(rank)
}

fn get_update(r: &mut Reader) -> Result<CoordUpdate, DecodeError> {
    // Both fields are read before the flags are judged: a block cut
    // short inside them is truncated, whatever its flags say.
    let flags = r.u8()?;
    let seq = r.u16()?;
    if flags & !FLAG_KEYFRAME != 0 {
        return Err(DecodeError::BadValue);
    }

    if flags & FLAG_KEYFRAME != 0 {
        let rank = get_rank(r)?;
        let values = r.take(rank * 2)?;
        let mut coords = Block::zeros(rank);
        for (coord, bytes) in coords.iter_mut().zip(values.chunks_exact(2)) {
            let bits = u16::from_le_bytes([bytes[0], bytes[1]]);
            if !f16_is_finite(bits) {
                return Err(DecodeError::BadValue);
            }
            *coord = f16_to_f64(bits);
        }
        Ok(CoordUpdate {
            seq,
            payload: UpdatePayload::Keyframe { coords },
        })
    } else {
        let base_seq = r.u16()?;
        let scale_bits = r.u16()?;
        // The scale is a magnitude: reject inf/NaN and negative zero
        // patterns alike (the encoder never emits a sign bit here).
        if !f16_is_finite(scale_bits) || scale_bits & 0x8000 != 0 {
            return Err(DecodeError::BadValue);
        }
        let scale = f16_to_f64(scale_bits);
        let rank = get_rank(r)?;
        let values = r.take(rank)?;
        let mut quants = Block::zeros(rank);
        for (quant, &byte) in quants.iter_mut().zip(values) {
            *quant = byte as i8;
        }
        Ok(CoordUpdate {
            seq,
            payload: UpdatePayload::Delta {
                base_seq,
                scale,
                quants,
            },
        })
    }
}

/// Decodes a v2 datagram.
pub fn decode_v2(datagram: &[u8]) -> Result<MessageV2, DecodeError> {
    let (type_tag, mut r) = PROBE_V2.open(datagram)?;
    let msg = match type_tag {
        1 => {
            let nonce = r.u32()?;
            let ack = get_ack_flags(&mut r)?;
            MessageV2::RttProbe { nonce, ack }
        }
        2 => {
            let nonce = r.u32()?;
            let update = get_update(&mut r)?;
            if update.rank() % 2 != 0 {
                return Err(DecodeError::BadRank);
            }
            MessageV2::RttReply { nonce, update }
        }
        3 => {
            let nonce = r.u32()?;
            let ack = get_ack_flags(&mut r)?;
            let rate = r.f32()?;
            if !rate.is_finite() || rate <= 0.0 {
                return Err(DecodeError::BadValue);
            }
            let update = get_update(&mut r)?;
            MessageV2::AbwProbe {
                nonce,
                rate_mbps: f64::from(rate),
                ack,
                update,
            }
        }
        4 => {
            let nonce = r.u32()?;
            let ack = get_ack_flags(&mut r)?;
            let x = match r.i8()? {
                1 => 1.0,
                -1 => -1.0,
                _ => return Err(DecodeError::BadValue),
            };
            let update = get_update(&mut r)?;
            MessageV2::AbwReply {
                nonce,
                x,
                ack,
                update,
            }
        }
        _ => return Err(DecodeError::BadType),
    };
    r.finish()?;
    Ok(msg)
}

/// Decodes a datagram of either protocol version, dispatching on the
/// version byte at offset 2 — this is the whole of version
/// negotiation: a node answers in whatever version the probe spoke.
///
/// Everything that is not v1 goes to the v2 parser, whose frame check
/// still tells corruption ([`DecodeError::BadChecksum`]) and a foreign
/// magic from a genuinely newer protocol ([`DecodeError::BadVersion`]).
pub fn decode_any(datagram: &[u8]) -> Result<WireMessage, DecodeError> {
    match datagram.get(2) {
        Some(&VERSION) => decode(datagram).map(WireMessage::V1),
        _ => decode_v2(datagram).map(WireMessage::V2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    /// v2 header length in bytes (magic + version + type + payload_len u16).
    const HEADER_LEN_V2: usize = PROBE_V2.header_len();

    /// Protocol magic (little-endian on the wire).
    const MAGIC: u16 = PROBE_V1.magic();

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::RttProbe { nonce: 42 },
            Message::RttReply {
                nonce: 43,
                u: vec![0.1, -0.2, 3.5],
                v: vec![1.0, 2.0, -0.5],
            },
            Message::AbwProbe {
                nonce: 44,
                rate_mbps: 43.1,
                u: vec![0.9; 10],
            },
            Message::AbwReply {
                nonce: 45,
                x: -1.0,
                v: vec![-2.0, 0.0],
            },
        ]
    }

    #[test]
    fn roundtrip_all_kinds() {
        for msg in sample_messages() {
            let wire = encode(&msg);
            let back = decode(&wire).expect("roundtrip");
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn golden_rtt_probe_layout() {
        let wire = encode(&Message::RttProbe {
            nonce: 0x0102_0304_0506_0708,
        });
        // magic LE
        assert_eq!(&wire[0..2], &[0xF5, 0xD3]);
        assert_eq!(wire[2], VERSION);
        assert_eq!(wire[3], 1); // type
        assert_eq!(&wire[4..8], &8u32.to_le_bytes()); // payload length
        assert_eq!(&wire[8..16], &0x0102_0304_0506_0708u64.to_le_bytes());
        assert_eq!(wire.len(), HEADER_LEN + 8 + CHECKSUM_LEN);
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let wire = encode(&Message::RttReply {
            nonce: 7,
            u: vec![1.0, 2.0],
            v: vec![3.0, 4.0],
        });
        for len in 0..wire.len() {
            assert!(
                decode(&wire[..len]).is_err(),
                "truncation to {len} bytes must fail"
            );
        }
    }

    #[test]
    fn rejects_single_byte_corruption() {
        let wire = encode(&Message::AbwReply {
            nonce: 9,
            x: 1.0,
            v: vec![0.25, -0.75],
        });
        for pos in 0..wire.len() {
            let mut corrupted = wire.to_vec();
            corrupted[pos] ^= 0xFF;
            let result = decode(&corrupted);
            assert!(
                result.is_err(),
                "flipping byte {pos} must be detected, got {result:?}"
            );
        }
    }

    #[test]
    fn rejects_bad_magic_version_type() {
        let wire = encode(&Message::RttProbe { nonce: 1 }).to_vec();
        let refresh = |mut w: Vec<u8>| {
            let n = w.len() - CHECKSUM_LEN;
            let c = checksum(&w[..n]);
            let idx = n;
            w[idx..].copy_from_slice(&c.to_le_bytes());
            w
        };
        let mut bad_magic = wire.clone();
        bad_magic[0] = 0;
        assert_eq!(decode(&refresh(bad_magic)), Err(DecodeError::BadMagic));
        let mut bad_version = wire.clone();
        bad_version[2] = 9;
        assert_eq!(decode(&refresh(bad_version)), Err(DecodeError::BadVersion));
        let mut bad_type = wire.clone();
        bad_type[3] = 200;
        assert_eq!(decode(&refresh(bad_type)), Err(DecodeError::BadType));
    }

    #[test]
    fn rejects_invalid_class_label() {
        let wire = encode(&Message::AbwReply {
            nonce: 1,
            x: 1.0,
            v: vec![0.5],
        })
        .to_vec();
        // Patch x (payload offset 8) to 0.5 and refresh the checksum.
        let mut patched = wire;
        let x_off = HEADER_LEN + 8;
        patched[x_off..x_off + 8].copy_from_slice(&0.5f64.to_le_bytes());
        let n = patched.len() - CHECKSUM_LEN;
        let c = checksum(&patched[..n]);
        patched[n..].copy_from_slice(&c.to_le_bytes());
        assert_eq!(decode(&patched), Err(DecodeError::BadValue));
    }

    #[test]
    fn rejects_nan_coordinates() {
        let wire = encode(&Message::RttReply {
            nonce: 1,
            u: vec![1.0],
            v: vec![2.0],
        })
        .to_vec();
        // u[0] sits at payload offset 8 (nonce) + 2 (rank).
        let mut patched = wire;
        let off = HEADER_LEN + 10;
        patched[off..off + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        let n = patched.len() - CHECKSUM_LEN;
        let c = checksum(&patched[..n]);
        patched[n..].copy_from_slice(&c.to_le_bytes());
        assert_eq!(decode(&patched), Err(DecodeError::BadValue));
    }

    #[test]
    fn rejects_oversized_rank() {
        let wire = encode(&Message::AbwProbe {
            nonce: 1,
            rate_mbps: 10.0,
            u: vec![1.0],
        })
        .to_vec();
        // Rank field sits at payload offset 8 + 8.
        let mut patched = wire;
        let off = HEADER_LEN + 16;
        patched[off..off + 2].copy_from_slice(&(MAX_RANK as u16 + 1).to_le_bytes());
        let n = patched.len() - CHECKSUM_LEN;
        let c = checksum(&patched[..n]);
        patched[n..].copy_from_slice(&c.to_le_bytes());
        assert_eq!(decode(&patched), Err(DecodeError::BadRank));
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut extended = encode(&Message::RttProbe { nonce: 3 }).to_vec();
        // Append a byte inside the payload region and fix both the
        // length field and the checksum.
        let insert_at = extended.len() - CHECKSUM_LEN;
        extended.insert(insert_at, 0xAB);
        let payload_len = (extended.len() - HEADER_LEN - CHECKSUM_LEN) as u32;
        extended[4..8].copy_from_slice(&payload_len.to_le_bytes());
        let n = extended.len() - CHECKSUM_LEN;
        let c = checksum(&extended[..n]);
        extended[n..].copy_from_slice(&c.to_le_bytes());
        assert_eq!(decode(&extended), Err(DecodeError::TrailingBytes));
    }

    #[test]
    #[should_panic(expected = "coordinate rank")]
    fn encode_rejects_empty_coords() {
        encode(&Message::RttReply {
            nonce: 1,
            u: vec![],
            v: vec![],
        });
    }

    #[test]
    fn mismatched_uv_ranks_rejected() {
        // Hand-craft a RttReply with rank(u)=1, rank(v)=2.
        let mut payload = BytesMut::new();
        payload.put_u64_le(5);
        payload.put_u16_le(1);
        payload.put_f64_le(1.0);
        payload.put_u16_le(2);
        payload.put_f64_le(2.0);
        payload.put_f64_le(3.0);
        let mut out = BytesMut::new();
        out.put_u16_le(MAGIC);
        out.put_u8(VERSION);
        out.put_u8(2);
        out.put_u32_le(payload.len() as u32);
        out.extend_from_slice(&payload);
        let c = checksum(&out);
        out.put_u32_le(c);
        assert_eq!(decode(&out), Err(DecodeError::BadRank));
    }

    // ------------------------------------------------------------ v2

    fn keyframe(seq: u16, coords: Vec<f64>) -> CoordUpdate {
        CoordUpdate {
            seq,
            payload: UpdatePayload::Keyframe {
                coords: crate::delta::quantize_keyframe(&coords),
            },
        }
    }

    fn delta(seq: u16, base_seq: u16, scale: f64, quants: Vec<i8>) -> CoordUpdate {
        CoordUpdate {
            seq,
            payload: UpdatePayload::Delta {
                base_seq,
                scale: f16_to_f64(f16_from_f64(scale)),
                quants: quants.into(),
            },
        }
    }

    fn sample_v2_messages() -> Vec<MessageV2> {
        vec![
            MessageV2::RttProbe {
                nonce: 1,
                ack: None,
            },
            MessageV2::RttProbe {
                nonce: 2,
                ack: Some(Ack {
                    seq: 40_000,
                    want_keyframe: true,
                }),
            },
            MessageV2::RttReply {
                nonce: 3,
                update: keyframe(0, vec![0.1, -0.2, 3.5, 1.0, 2.0, -0.5]),
            },
            MessageV2::RttReply {
                nonce: 4,
                update: delta(9, 7, 0.01, vec![1, -127, 0, 127]),
            },
            MessageV2::AbwProbe {
                nonce: 5,
                rate_mbps: 43.0,
                ack: Some(Ack {
                    seq: 3,
                    want_keyframe: false,
                }),
                update: keyframe(2, vec![0.9; 10]),
            },
            MessageV2::AbwReply {
                nonce: 6,
                x: -1.0,
                ack: None,
                update: delta(3, 2, 0.5, vec![-2, 0]),
            },
        ]
    }

    #[test]
    fn roundtrip_v2_all_kinds() {
        for msg in sample_v2_messages() {
            let wire = encode_v2(&msg);
            let back = decode_v2(&wire).expect("roundtrip");
            // rate_mbps passes through f32; everything else is exact.
            match (&back, &msg) {
                (
                    MessageV2::AbwProbe { rate_mbps: got, .. },
                    MessageV2::AbwProbe {
                        rate_mbps: want, ..
                    },
                ) => assert!((got - want).abs() < 1e-3),
                _ => assert_eq!(back, msg),
            }
            assert_eq!(decode_any(&wire), Ok(WireMessage::V2(back)));
        }
    }

    #[test]
    fn golden_v2_probe_layout() {
        let wire = encode_v2(&MessageV2::RttProbe {
            nonce: 0x0102_0304,
            ack: Some(Ack {
                seq: 0xBEEF,
                want_keyframe: true,
            }),
        });
        assert_eq!(&wire[0..2], &[0xF5, 0xD3]); // magic LE
        assert_eq!(wire[2], VERSION_V2);
        assert_eq!(wire[3], 1); // type
        assert_eq!(&wire[4..6], &7u16.to_le_bytes()); // payload length
        assert_eq!(&wire[6..10], &0x0102_0304u32.to_le_bytes());
        assert_eq!(wire[10], FLAG_HAS_ACK | FLAG_WANT_KEYFRAME);
        assert_eq!(&wire[11..13], &0xBEEFu16.to_le_bytes());
        assert_eq!(wire.len(), HEADER_LEN_V2 + 7 + CHECKSUM_LEN);
    }

    /// Pins the datagram sizes behind the ≥3× bytes-per-cycle claim
    /// (rank 10): a v1 RTT cycle is 204 bytes, a v2 delta cycle 60.
    #[test]
    fn v2_frame_sizes_at_rank_10() {
        let v1_probe = encode(&Message::RttProbe { nonce: 1 });
        let v1_reply = encode(&Message::RttReply {
            nonce: 1,
            u: vec![0.1; 10],
            v: vec![0.2; 10],
        });
        assert_eq!(v1_probe.len() + v1_reply.len(), 20 + 184);

        let ack = Some(Ack {
            seq: 1,
            want_keyframe: false,
        });
        let v2_probe = encode_v2(&MessageV2::RttProbe { nonce: 1, ack });
        let v2_delta = encode_v2(&MessageV2::RttReply {
            nonce: 1,
            update: delta(2, 1, 0.01, vec![3; 20]),
        });
        let v2_key = encode_v2(&MessageV2::RttReply {
            nonce: 1,
            update: keyframe(2, vec![0.1; 20]),
        });
        assert_eq!(v2_probe.len(), 17);
        assert_eq!(v2_delta.len(), 43);
        assert_eq!(v2_key.len(), 59);
        let v1_cycle = (v1_probe.len() + v1_reply.len()) as f64;
        let v2_cycle = (v2_probe.len() + v2_delta.len()) as f64;
        assert!(
            v1_cycle / v2_cycle >= 3.0,
            "delta cycle must be ≥3× smaller"
        );
    }

    #[test]
    fn versions_reject_each_other_cleanly() {
        let v2 = encode_v2(&MessageV2::RttProbe {
            nonce: 9,
            ack: None,
        });
        assert_eq!(decode(&v2), Err(DecodeError::BadVersion));
        let v1 = encode(&Message::RttProbe { nonce: 9 });
        assert_eq!(decode_v2(&v1), Err(DecodeError::BadVersion));
        // decode_any accepts both.
        assert!(matches!(decode_any(&v1), Ok(WireMessage::V1(_))));
        assert!(matches!(decode_any(&v2), Ok(WireMessage::V2(_))));
    }

    #[test]
    fn decode_any_unknown_version() {
        let mut wire = encode_v2(&MessageV2::RttProbe {
            nonce: 9,
            ack: None,
        })
        .to_vec();
        wire[2] = 7;
        let n = wire.len() - CHECKSUM_LEN;
        let c = checksum(&wire[..n]);
        wire[n..].copy_from_slice(&c.to_le_bytes());
        assert_eq!(decode_any(&wire), Err(DecodeError::BadVersion));
        // Corrupted frames report the checksum, not the version.
        wire[6] ^= 0x40;
        assert_eq!(decode_any(&wire), Err(DecodeError::BadChecksum));
    }

    #[test]
    fn v2_rejects_truncation_at_every_length() {
        for msg in sample_v2_messages() {
            let wire = encode_v2(&msg);
            for len in 0..wire.len() {
                assert!(
                    decode_v2(&wire[..len]).is_err() && decode_any(&wire[..len]).is_err(),
                    "truncation to {len} bytes must fail"
                );
            }
        }
    }

    #[test]
    fn v2_rejects_single_byte_corruption() {
        for msg in sample_v2_messages() {
            let wire = encode_v2(&msg);
            for pos in 0..wire.len() {
                let mut corrupted = wire.to_vec();
                corrupted[pos] ^= 0xFF;
                assert!(
                    decode_any(&corrupted).is_err(),
                    "flipping byte {pos} must be detected"
                );
            }
        }
    }

    #[test]
    fn v2_rejects_undefined_flag_bits() {
        let refresh = |mut w: Vec<u8>| {
            let n = w.len() - CHECKSUM_LEN;
            let c = checksum(&w[..n]);
            w[n..].copy_from_slice(&c.to_le_bytes());
            w
        };
        // Message flags byte sits at payload offset 4 (after nonce).
        let wire = encode_v2(&MessageV2::RttProbe {
            nonce: 1,
            ack: None,
        })
        .to_vec();
        let mut bad = wire.clone();
        bad[HEADER_LEN_V2 + 4] = 0b100;
        assert_eq!(decode_v2(&refresh(bad)), Err(DecodeError::BadValue));
        // want_keyframe without an ack is malformed too.
        let mut orphan = wire;
        orphan[HEADER_LEN_V2 + 4] = FLAG_WANT_KEYFRAME;
        assert_eq!(decode_v2(&refresh(orphan)), Err(DecodeError::BadValue));
        // Update flags byte (RttReply: right after the nonce).
        let wire = encode_v2(&MessageV2::RttReply {
            nonce: 1,
            update: keyframe(0, vec![1.0, 2.0]),
        })
        .to_vec();
        let mut bad = wire;
        bad[HEADER_LEN_V2 + 4] |= 0b1000;
        assert_eq!(decode_v2(&refresh(bad)), Err(DecodeError::BadValue));
    }

    #[test]
    fn v2_rejects_odd_rtt_reply_rank() {
        // Odd rank can't split into u ‖ v.
        let wire = encode_v2(&MessageV2::RttReply {
            nonce: 1,
            update: keyframe(0, vec![1.0, 2.0]),
        })
        .to_vec();
        // Keyframe count field: payload offset 4 (nonce) + 1 (flags) +
        // 2 (seq) = 7. Shrink 2 -> 1 and drop the last f16.
        let mut patched = wire;
        patched[HEADER_LEN_V2 + 7..HEADER_LEN_V2 + 9].copy_from_slice(&1u16.to_le_bytes());
        let split = patched.len() - CHECKSUM_LEN - 2;
        patched.drain(split..split + 2);
        let new_len = (patched.len() - HEADER_LEN_V2 - CHECKSUM_LEN) as u16;
        patched[4..6].copy_from_slice(&new_len.to_le_bytes());
        let n = patched.len() - CHECKSUM_LEN;
        let c = checksum(&patched[..n]);
        patched[n..].copy_from_slice(&c.to_le_bytes());
        assert_eq!(decode_v2(&patched), Err(DecodeError::BadRank));
    }

    #[test]
    fn v2_rejects_non_finite_keyframe_values() {
        let wire = encode_v2(&MessageV2::RttReply {
            nonce: 1,
            update: keyframe(0, vec![1.0, 2.0]),
        })
        .to_vec();
        // First f16 value: payload offset 4 + 1 + 2 + 2 = 9.
        let mut patched = wire;
        let off = HEADER_LEN_V2 + 9;
        patched[off..off + 2].copy_from_slice(&0x7C00u16.to_le_bytes()); // +inf
        let n = patched.len() - CHECKSUM_LEN;
        let c = checksum(&patched[..n]);
        patched[n..].copy_from_slice(&c.to_le_bytes());
        assert_eq!(decode_v2(&patched), Err(DecodeError::BadValue));
    }

    #[test]
    fn v2_rejects_negative_or_nan_delta_scale() {
        let wire = encode_v2(&MessageV2::RttReply {
            nonce: 1,
            update: delta(5, 4, 0.25, vec![1, -1]),
        })
        .to_vec();
        // Scale f16: payload offset 4 + 1 + 2 + 2 (base_seq) = 9.
        for bad_bits in [0x7E00u16, 0xBC00u16] {
            // NaN, -1.0
            let mut patched = wire.clone();
            let off = HEADER_LEN_V2 + 9;
            patched[off..off + 2].copy_from_slice(&bad_bits.to_le_bytes());
            let n = patched.len() - CHECKSUM_LEN;
            let c = checksum(&patched[..n]);
            patched[n..].copy_from_slice(&c.to_le_bytes());
            assert_eq!(decode_v2(&patched), Err(DecodeError::BadValue));
        }
    }

    #[test]
    fn v2_rejects_trailing_bytes() {
        let mut extended = encode_v2(&MessageV2::RttProbe {
            nonce: 3,
            ack: None,
        })
        .to_vec();
        let insert_at = extended.len() - CHECKSUM_LEN;
        extended.insert(insert_at, 0xAB);
        let payload_len = (extended.len() - HEADER_LEN_V2 - CHECKSUM_LEN) as u16;
        extended[4..6].copy_from_slice(&payload_len.to_le_bytes());
        let n = extended.len() - CHECKSUM_LEN;
        let c = checksum(&extended[..n]);
        extended[n..].copy_from_slice(&c.to_le_bytes());
        assert_eq!(decode_v2(&extended), Err(DecodeError::TrailingBytes));
    }

    #[test]
    #[should_panic(expected = "even rank")]
    fn encode_v2_rejects_odd_rtt_reply() {
        encode_v2(&MessageV2::RttReply {
            nonce: 1,
            update: keyframe(0, vec![1.0, 2.0, 3.0]),
        });
    }
}
