//! The frame every DMFSGD wire format shares: header, payload, CRC32C
//! trailer, and the bounds-checked reader that parses payloads.
//!
//! Three formats use it — probe v1 and v2 ([`crate::codec`]) and the
//! `dmf-service` query protocol — and differ only in the constants of
//! a [`Format`]. A frame is `magic | version | type | payload_len |
//! payload | checksum`, all integers little-endian:
//!
//! | format | magic | version | type | `payload_len` | header | payload bound | checksum |
//! |---|---|---|---|---|---|---|---|
//! | [`PROBE_V1`] | `0xD3F5` u16 | `1` u8 | u8 | u32 | 8 B | `u32::MAX` | CRC32C u32 |
//! | [`PROBE_V2`] | `0xD3F5` u16 | `2` u8 | u8 | u16 | 6 B | `u16::MAX` | CRC32C u32 |
//! | [`SERVICE`] | `0xD3F6` u16 | `1` u8 | u8 | u32 | 8 B | 1 MiB | CRC32C u32 |
//!
//! The checksum is [`checksum`] (CRC32C) over everything before it.
//! It detects every error burst of at most 32 bits, and every error of
//! one to three bits in a frame of up to 659 bytes (5,243 bits before
//! the trailer). Frames sealed with the FNV-1a trailer of older builds
//! are refused as [`DecodeError::BadChecksum`]: the version bytes did
//! not change, because agents and the service are built from one tree
//! and no frame is stored.
//!
//! Encoders [`begin`](Format::begin) a frame, append the payload and
//! [`seal`](Format::seal) it, which patches in the length, so no
//! encoder computes one. A datagram is verified whole by
//! [`open`](Format::open); a stream head is inspected by
//! [`check`](Format::check) before the frame has arrived and verified
//! by [`consume`](Format::consume) once it has. All three hand the
//! payload to a [`Reader`], whose reads fail with typed
//! [`DecodeError`]s, never a panic.

use crate::codec::DecodeError;
use std::ops::ControlFlow;

/// Trailing checksum length.
pub const CHECKSUM_LEN: usize = 4;

/// One framed wire format: the header constants and the payload bound.
/// The three formats are the only values: the length field is 2 or 4
/// bytes wide and the bound fits it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Format {
    magic: u16,
    version: u8,
    /// Width of the `payload_len` field in bytes.
    len_bytes: usize,
    max_payload: usize,
}

/// Probe protocol v1: full `f64` coordinates.
pub const PROBE_V1: Format = Format {
    magic: 0xD3F5,
    version: 1,
    len_bytes: 4,
    max_payload: u32::MAX as usize,
};

/// Probe protocol v2: quantized delta/keyframe coordinates.
pub const PROBE_V2: Format = Format {
    magic: 0xD3F5,
    version: 2,
    len_bytes: 2,
    max_payload: u16::MAX as usize,
};

/// The `dmf-service` query protocol. Its magic differs from the probe
/// protocol's so a misrouted frame fails fast; its payload bound caps
/// what a hostile length field can make a peer buffer.
pub const SERVICE: Format = Format {
    magic: 0xD3F6,
    version: 1,
    len_bytes: 4,
    max_payload: 1 << 20,
};

/// CRC32C (Castagnoli: reflected polynomial `0x82F6_3B78`, initial
/// value and final xor `0xFFFF_FFFF`, the iSCSI and ext4 CRC) over a
/// byte slice — the trailer of every frame, and called from nowhere
/// else. On x86_64 CPUs with SSE4.2 it runs the `crc32` instruction
/// eight bytes at a time; elsewhere, slicing-by-8 over 8 KiB of
/// compile-time tables. Both tiers return the same value for every
/// input.
#[inline]
pub fn checksum(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("sse4.2") {
        // SAFETY: `checksum_sse42` is compiled with `sse4.2`, and
        // `is_x86_feature_detected!("sse4.2")` just found it on this
        // CPU (under `target-cpu=native` the check folds to `true`).
        #[allow(unsafe_code)]
        return unsafe { checksum_sse42(data) };
    }
    checksum_portable(data)
}

/// The hardware tier of [`checksum`]: the SSE4.2 `crc32` instruction,
/// which computes exactly CRC32C, over 8-byte little-endian words and
/// then the tail byte by byte.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn checksum_sse42(data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let (words, tail) = data.as_chunks::<8>();
    let mut crc = u64::from(u32::MAX);
    for word in words {
        crc = _mm_crc32_u64(crc, u64::from_le_bytes(*word));
    }
    // `_mm_crc32_u64` leaves the high half zero.
    let mut crc = crc as u32;
    for &b in tail {
        crc = _mm_crc32_u8(crc, b);
    }
    !crc
}

/// CRC32C's reflected generator polynomial.
const POLY: u32 = 0x82F6_3B78;

/// Slicing-by-8 tables: `TABLES[k][b]` is the CRC register after byte
/// `b` followed by `k` zero bytes, starting from 0. Built at compile
/// time (8 KiB of `static` data, no initialization at run time).
static TABLES: [[u32; 256]; 8] = tables();

const fn tables() -> [[u32; 256]; 8] {
    let mut t = [[0; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// The portable tier of [`checksum`]: eight table lookups per 8-byte
/// word instead of eight dependent shifts per byte.
fn checksum_portable(data: &[u8]) -> u32 {
    let t = &TABLES;
    let (words, tail) = data.as_chunks::<8>();
    let mut crc = u32::MAX;
    for w in words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in tail {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

impl Format {
    /// Frame magic.
    pub const fn magic(&self) -> u16 {
        self.magic
    }

    /// Version byte.
    pub const fn version(&self) -> u8 {
        self.version
    }

    /// Largest payload a frame of this format carries.
    pub const fn max_payload(&self) -> usize {
        self.max_payload
    }

    /// Header length: magic, version, type and the length field.
    pub const fn header_len(&self) -> usize {
        4 + self.len_bytes
    }

    /// Appends a header for a frame of type `ty` with the length field
    /// left blank, and returns the offset the frame starts at (for
    /// [`seal`](Self::seal)).
    #[inline]
    pub fn begin(&self, buf: &mut Vec<u8>, ty: u8) -> usize {
        let start = buf.len();
        buf.extend_from_slice(&self.magic.to_le_bytes());
        buf.push(self.version);
        buf.push(ty);
        buf.extend_from_slice(&[0; 4][..self.len_bytes]);
        start
    }

    /// Completes the frame begun at `start`: patches the length of
    /// everything appended since the header into the length field and
    /// appends the checksum.
    ///
    /// # Panics
    /// Panics if the payload exceeds [`max_payload`](Self::max_payload())
    /// — an encoder's programming error, not a network condition.
    #[inline]
    pub fn seal(&self, buf: &mut Vec<u8>, start: usize) {
        let payload_len = buf.len() - start - self.header_len();
        assert!(
            payload_len <= self.max_payload,
            "frame payload of {payload_len} bytes exceeds {}",
            self.max_payload
        );
        buf[start + 4..start + self.header_len()]
            .copy_from_slice(&(payload_len as u32).to_le_bytes()[..self.len_bytes]);
        let trailer = checksum(&buf[start..]);
        buf.extend_from_slice(&trailer.to_le_bytes());
    }

    /// The `payload_len` field of a header (`header` holds at least
    /// [`header_len`](Self::header_len) bytes).
    fn payload_len(&self, header: &[u8]) -> usize {
        let mut len = [0; 4];
        len[..self.len_bytes].copy_from_slice(&header[4..self.header_len()]);
        u32::from_le_bytes(len) as usize
    }

    /// Verifies a whole datagram and returns its type byte and a
    /// reader over its payload. Checks run in a fixed order — size,
    /// checksum, magic, version, length — so corruption anywhere is
    /// reported as [`DecodeError::BadChecksum`] before any header
    /// field is trusted. The type byte is the caller's to validate.
    #[inline]
    pub fn open<'a>(&self, datagram: &'a [u8]) -> Result<(u8, Reader<'a>), DecodeError> {
        let header_len = self.header_len();
        if datagram.len() < header_len + CHECKSUM_LEN {
            return Err(DecodeError::TooShort);
        }
        let body = verify(datagram)?;
        if u16::from_le_bytes([body[0], body[1]]) != self.magic {
            return Err(DecodeError::BadMagic);
        }
        if body[2] != self.version {
            return Err(DecodeError::BadVersion);
        }
        let (header, payload) = body.split_at(header_len);
        if self.payload_len(header) != payload.len() {
            return Err(DecodeError::LengthMismatch);
        }
        Ok((header[3], Reader::new(payload)))
    }

    /// Inspects the head of a byte stream without consuming it: checks
    /// magic, version, type (against `known_type`) and the length bound
    /// — in that order — then reports the frame's total length, as
    /// [`ControlFlow::Continue`] while more bytes are needed and
    /// [`ControlFlow::Break`] once the whole frame has buffered. The
    /// checksum is verified by [`consume`](Self::consume).
    pub fn check(
        &self,
        buf: &[u8],
        known_type: fn(u8) -> bool,
    ) -> Result<ControlFlow<usize, usize>, DecodeError> {
        let header_len = self.header_len();
        if buf.len() < header_len {
            return Ok(ControlFlow::Continue(header_len));
        }
        if u16::from_le_bytes([buf[0], buf[1]]) != self.magic {
            return Err(DecodeError::BadMagic);
        }
        if buf[2] != self.version {
            return Err(DecodeError::BadVersion);
        }
        if !known_type(buf[3]) {
            return Err(DecodeError::BadType);
        }
        let payload_len = self.payload_len(buf);
        if payload_len > self.max_payload {
            return Err(DecodeError::LengthMismatch);
        }
        let total = header_len + payload_len + CHECKSUM_LEN;
        if buf.len() < total {
            Ok(ControlFlow::Continue(total))
        } else {
            Ok(ControlFlow::Break(total))
        }
    }

    /// Verifies one complete stream frame — `buf` must be exactly the
    /// length [`check`](Self::check) reported — and returns its type
    /// byte and a reader over its payload.
    pub fn consume<'a>(
        &self,
        buf: &'a [u8],
        known_type: fn(u8) -> bool,
    ) -> Result<(u8, Reader<'a>), DecodeError> {
        let total = match self.check(buf, known_type)? {
            ControlFlow::Continue(_) => return Err(DecodeError::TooShort),
            ControlFlow::Break(total) => total,
        };
        if buf.len() != total {
            return Err(DecodeError::LengthMismatch);
        }
        let body = verify(buf)?;
        Ok((buf[3], Reader::new(&body[self.header_len()..])))
    }
}

/// Checks a frame's trailer against the rest (`frame` holds at least
/// [`CHECKSUM_LEN`] bytes) and returns the rest.
fn verify(frame: &[u8]) -> Result<&[u8], DecodeError> {
    let (body, trailer) = frame.split_at(frame.len() - CHECKSUM_LEN);
    if trailer == checksum(body).to_le_bytes() {
        Ok(body)
    } else {
        Err(DecodeError::BadChecksum)
    }
}

/// `fn t(&mut self) -> Result<t, DecodeError>` for each listed type:
/// the next `size_of::<t>()` bytes, little-endian.
macro_rules! reads {
    ($($t:ident),*) => {$(
        #[doc = concat!("Reads a little-endian `", stringify!($t), "`.")]
        #[inline]
        pub fn $t(&mut self) -> Result<$t, DecodeError> {
            self.array().map($t::from_le_bytes)
        }
    )*};
}

/// A little-endian cursor over a frame's payload. Every read is
/// bounds-checked: reading past the end is
/// [`DecodeError::TruncatedPayload`], and [`finish`](Self::finish)
/// reports unread bytes as [`DecodeError::TrailingBytes`].
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader over `payload`.
    pub fn new(payload: &'a [u8]) -> Self {
        Self { rest: payload }
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let (head, rest) = self
            .rest
            .split_at_checked(n)
            .ok_or(DecodeError::TruncatedPayload)?;
        self.rest = rest;
        Ok(head)
    }

    /// The next `len` bytes as UTF-8 text; anything else is
    /// [`DecodeError::BadValue`].
    pub fn str(&mut self, len: usize) -> Result<&'a str, DecodeError> {
        std::str::from_utf8(self.take(len)?).map_err(|_| DecodeError::BadValue)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    reads!(u8, i8, u16, u32, u64, f32, f64);

    /// Ends the read: every payload byte must have been consumed.
    #[inline]
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// CRC32C from its definition, one bit at a time: the reference
    /// both tiers are checked against.
    fn bitwise(data: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 == 1 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn checksum_known_answers() {
        let ascending: Vec<u8> = (0..32).collect();
        let descending: Vec<u8> = (0..32).rev().collect();
        // The CRC catalogue's check value, then RFC 3720 §B.4.
        let cases: [(&[u8], u32); 6] = [
            (b"123456789", 0xE306_9283),
            (b"", 0),
            (&[0; 32], 0x8A91_36AA),
            (&[0xFF; 32], 0x62A8_AB43),
            (&ascending, 0x46DD_794E),
            (&descending, 0x113F_DB5C),
        ];
        for (data, want) in cases {
            assert_eq!(checksum(data), want, "{data:02x?}");
            assert_eq!(checksum_portable(data), want, "{data:02x?}");
            assert_eq!(bitwise(data), want, "{data:02x?}");
        }
    }

    /// `checksum` runs the hardware tier where SSE4.2 is present, so
    /// there this compares the two tiers; elsewhere it compares the
    /// portable tier with the bitwise reference.
    fn assert_tiers_agree(data: &[u8]) {
        let portable = checksum_portable(data);
        assert_eq!(checksum(data), portable, "{} bytes", data.len());
        assert_eq!(portable, bitwise(data), "{} bytes", data.len());
    }

    #[test]
    fn checksum_tiers_agree_at_every_length_and_offset() {
        let mut x = 0x9E37_79B9_u32;
        let buf: Vec<u8> = (0..308)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        for offset in 0..8 {
            for len in 0..=300 {
                assert_tiers_agree(&buf[offset..offset + len]);
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn checksum_tiers_agree_on_random_buffers(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..2048)
        ) {
            assert_tiers_agree(&data);
        }
    }

    #[test]
    fn seal_patches_the_length_of_what_was_written() {
        for format in [PROBE_V1, PROBE_V2, SERVICE] {
            let mut buf = vec![0xAA]; // a frame need not start at 0
            let start = format.begin(&mut buf, 7);
            buf.extend_from_slice(b"payload");
            format.seal(&mut buf, start);
            let frame = &buf[start..];
            assert_eq!(frame.len(), format.header_len() + 7 + CHECKSUM_LEN);
            let (ty, mut r) = format.open(frame).expect("opens");
            assert_eq!(ty, 7);
            assert_eq!(r.take(7).unwrap(), b"payload");
            r.finish().unwrap();
            let accept_all = |_| true;
            assert_eq!(
                format.check(frame, accept_all),
                Ok(ControlFlow::Break(frame.len()))
            );
            assert!(format.consume(frame, accept_all).is_ok());
        }
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn seal_rejects_an_oversized_payload() {
        let mut buf = Vec::new();
        let start = PROBE_V2.begin(&mut buf, 1);
        buf.resize(buf.len() + u16::MAX as usize + 1, 0);
        PROBE_V2.seal(&mut buf, start);
    }

    #[test]
    fn reader_reports_truncation_and_trailing_bytes() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u16(), Ok(0x0201));
        assert_eq!(r.u16(), Err(DecodeError::TruncatedPayload));
        assert_eq!(r.take(usize::MAX), Err(DecodeError::TruncatedPayload));
        assert_eq!(r.clone().finish(), Err(DecodeError::TrailingBytes));
        assert_eq!(r.i8(), Ok(3));
        assert_eq!(r.finish(), Ok(()));
    }
}
