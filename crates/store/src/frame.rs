//! The record-log codec shared by `CHAIN.log` and `MANIFEST.journal`: a
//! log is a concatenation of frames,
//!
//! ```text
//! len varint · kind u8 · body (len bytes) · checksum u64 LE
//! ```
//!
//! where the checksum covers every preceding byte of the frame. Segments
//! use the same varint and checksum. [`read_valid_prefix`] is the one
//! torn-tail rule: a log is its longest prefix of whole, checksum-valid
//! frames, and the rest is debris of a crash mid-append.

use iri_core::fxhash::FxHasher;
use std::hash::Hasher;

/// One frame read back from a log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// The log's tag for this record.
    pub kind: u8,
    /// The record's bytes.
    pub body: &'a [u8],
}

/// FxHash of `bytes`: the checksum of every segment image and frame.
#[inline]
#[must_use]
pub(crate) fn checksum(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

/// Appends `v` as an LEB128 unsigned varint.
#[inline]
pub(crate) fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Decodes the LEB128 varint at `bytes[*pos..]` and moves `pos` past
/// it. `None` if it is cut short or overflows 64 bits. Always inlined:
/// the batched column decoder calls it for every multi-byte varint, and
/// left out of line it made one-hour window queries ~30 % slower.
#[inline(always)]
pub(crate) fn read_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = bytes.get(*pos)?;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return None;
        }
        *pos += 1;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Appends one frame of `kind` holding `body` to `buf`.
pub fn put_frame(buf: &mut Vec<u8>, kind: u8, body: &[u8]) {
    let start = buf.len();
    put_varint(buf, body.len() as u64);
    buf.push(kind);
    buf.extend_from_slice(body);
    let sum = checksum(&buf[start..]);
    buf.extend_from_slice(&sum.to_le_bytes());
}

/// The whole, checksum-valid frame at the front of `bytes` and the bytes
/// it spans, or `None` if there is none.
fn read_frame(bytes: &[u8]) -> Option<(Frame<'_>, usize)> {
    let mut n = 0;
    let len = read_varint(bytes, &mut n)?;
    let body_end = usize::try_from(len).ok()?.checked_add(n + 1)?;
    let end = body_end.checked_add(8)?;
    let frame = bytes.get(..end)?;
    let (covered, sum) = frame.split_at(body_end);
    let sum = u64::from_le_bytes(sum.try_into().ok()?);
    let (kind, body) = (covered[n], &covered[n + 1..]);
    (checksum(covered) == sum).then_some((Frame { kind, body }, end))
}

/// Splits a log into its valid prefix: every whole, checksum-valid frame
/// from the start, and the offset where that prefix ends. Bytes from
/// `torn_at` on are a torn tail; `torn_at == bytes.len()` means none.
#[must_use]
pub fn read_valid_prefix(bytes: &[u8]) -> (Vec<Frame<'_>>, usize) {
    let mut frames = Vec::new();
    let mut at = 0;
    while let Some((frame, len)) = read_frame(&bytes[at..]) {
        frames.push(frame);
        at += len;
    }
    (frames, at)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip_at_every_width() {
        for v in [0, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
            assert_eq!(read_varint(&buf[..buf.len() - 1], &mut 0), None);
        }
        // Eleven continuation bytes overflow 64 bits.
        assert_eq!(read_varint(&[0xff; 11], &mut 0), None);
    }

    #[test]
    fn an_empty_body_is_a_ten_byte_frame() {
        let mut buf = Vec::new();
        put_frame(&mut buf, 7, b"");
        assert_eq!(buf.len(), 10);
        let (frames, torn_at) = read_valid_prefix(&buf);
        assert_eq!(frames, vec![Frame { kind: 7, body: b"" }]);
        assert_eq!(torn_at, 10);
    }
}
