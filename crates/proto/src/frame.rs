//! The frame every DMFSGD wire format shares: header, payload, FNV-1a
//! trailer, and the bounds-checked reader that parses payloads.
//!
//! Three formats use it — probe v1 and v2 ([`crate::codec`]) and the
//! `dmf-service` query protocol — and differ only in the constants of
//! a [`Format`]. A frame is `magic | version | type | payload_len |
//! payload | checksum`, all integers little-endian:
//!
//! | format | magic | version | type | `payload_len` | header | payload bound | checksum |
//! |---|---|---|---|---|---|---|---|
//! | [`PROBE_V1`] | `0xD3F5` u16 | `1` u8 | u8 | u32 | 8 B | `u32::MAX` | u32 |
//! | [`PROBE_V2`] | `0xD3F5` u16 | `2` u8 | u8 | u16 | 6 B | `u16::MAX` | u32 |
//! | [`SERVICE`] | `0xD3F6` u16 | `1` u8 | u8 | u32 | 8 B | 1 MiB | u32 |
//!
//! The checksum is [`fnv1a`] over everything before it. Encoders
//! [`begin`](Format::begin) a frame, append the payload and
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

/// FNV-1a 32-bit over a byte slice — the trailer of every frame, and
/// called from nowhere else. Single-bit flips are always detected:
/// each byte's state transition (xor, then multiply by an odd
/// constant) is a bijection of the running hash.
pub fn fnv1a(data: &[u8]) -> u32 {
    let mut hash: u32 = 0x811c_9dc5;
    for &b in data {
        hash ^= b as u32;
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
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
        let checksum = fnv1a(&buf[start..]);
        buf.extend_from_slice(&checksum.to_le_bytes());
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
    if trailer == fnv1a(body).to_le_bytes() {
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

    #[test]
    fn fnv1a_known_answers() {
        assert_eq!(fnv1a(b""), 0x811c_9dc5);
        assert_eq!(fnv1a(b"a"), 0xe40c_292c);
        assert_eq!(fnv1a(b"foobar"), 0xbf9c_f968);
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
