//! Binary wire encoding for values, tuples and relation rows.
//!
//! The `ccpi-site` crate ships relation contents between sites; this
//! module owns the storage-level encoding so the wire protocol and the
//! storage layer can't drift apart. The format is little-endian and
//! self-describing enough to validate:
//!
//! ```text
//! str     := u32 byte-length, utf8 bytes
//! value   := tag u8 (0 = Int, 1 = Str), then i64 | str
//! tuple   := u16 arity, value*
//! rows    := u32 count, tuple*
//! ```
//!
//! Decoders take `(&[u8], &mut usize)` cursors so callers can splice
//! multiple objects into one buffer; every decoder checks bounds and
//! returns [`WireError`] instead of panicking on malformed input (the
//! remote site must survive garbage frames).

use crate::tuple::Tuple;
use ccpi_ir::Value;
use std::fmt;

/// Decoding failures; encoding cannot fail.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the object did.
    Truncated,
    /// An unknown tag byte where a value tag was expected.
    BadTag(u8),
    /// A string payload was not valid UTF-8.
    BadUtf8,
    /// A declared length exceeds the sanity limit (corrupt or hostile
    /// frame).
    OversizedLength(u64),
    /// A payload checksum did not match its contents (bit rot, a
    /// truncated write, or deliberate corruption in transit).
    Checksum {
        /// Checksum the payload claims.
        expected: u64,
        /// Checksum the bytes actually hash to.
        actual: u64,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire object truncated"),
            WireError::BadTag(t) => write!(f, "unknown value tag {t:#04x}"),
            WireError::BadUtf8 => write!(f, "string payload is not UTF-8"),
            WireError::OversizedLength(n) => {
                write!(f, "declared length {n} exceeds sanity limit")
            }
            WireError::Checksum { expected, actual } => {
                write!(
                    f,
                    "payload checksum mismatch (claims {expected:#018x}, bytes hash to {actual:#018x})"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Upper bound on any single declared length (strings, arities, row
/// counts). Prevents a corrupt length prefix from triggering a huge
/// allocation before the bounds check catches it.
const MAX_LEN: u64 = 64 * 1024 * 1024;

/// Appends a `u32` (little-endian).
pub fn encode_u32(v: u32, out: &mut Vec<u8>) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Reads a `u32` (little-endian).
pub fn decode_u32(buf: &[u8], pos: &mut usize) -> Result<u32, WireError> {
    let bytes = take(buf, pos, 4)?;
    Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
}

/// Appends a `u64` (little-endian).
pub fn encode_u64(v: u64, out: &mut Vec<u8>) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Reads a `u64` (little-endian).
pub fn decode_u64(buf: &[u8], pos: &mut usize) -> Result<u64, WireError> {
    let bytes = take(buf, pos, 8)?;
    Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
}

/// FNV-1a 64-bit hash — the payload checksum. Not cryptographic; it
/// detects accidental corruption (flipped bytes, truncation), which is
/// the fault model the site protocol defends against.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Seals a frame body: `u64 nonce ++ body ++ u64 fnv1a64(nonce ++ body)`
/// — the one envelope of site wire messages, server protocol frames,
/// WAL records and checkpoints.
pub fn seal(nonce: u64, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 16);
    encode_u64(nonce, &mut out);
    out.extend_from_slice(body);
    let sum = fnv1a64(&out);
    encode_u64(sum, &mut out);
    out
}

/// Splits a sealed frame back into `(nonce, body)`, verifying the
/// checksum.
pub fn unseal(buf: &[u8]) -> Result<(u64, &[u8]), WireError> {
    if buf.len() < 16 {
        return Err(WireError::Truncated);
    }
    let (payload, trailer) = buf.split_at(buf.len() - 8);
    let expected = decode_u64(trailer, &mut 0)?;
    let actual = fnv1a64(payload);
    if expected != actual {
        return Err(WireError::Checksum { expected, actual });
    }
    let nonce = decode_u64(payload, &mut 0)?;
    Ok((nonce, &payload[8..]))
}

/// Appends a length-prefixed UTF-8 string.
pub fn encode_str(s: &str, out: &mut Vec<u8>) {
    encode_u32(s.len() as u32, out);
    out.extend_from_slice(s.as_bytes());
}

/// Reads a length-prefixed UTF-8 string.
pub fn decode_str(buf: &[u8], pos: &mut usize) -> Result<String, WireError> {
    let len = decode_u32(buf, pos)? as u64;
    if len > MAX_LEN {
        return Err(WireError::OversizedLength(len));
    }
    let bytes = take(buf, pos, len as usize)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
}

/// Appends one value.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Int(i) => {
            out.push(0);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(1);
            encode_str(s.as_str(), out);
        }
    }
}

/// Reads one value.
pub fn decode_value(buf: &[u8], pos: &mut usize) -> Result<Value, WireError> {
    let tag = take(buf, pos, 1)?[0];
    match tag {
        0 => {
            let bytes = take(buf, pos, 8)?;
            Ok(Value::Int(i64::from_le_bytes(
                bytes.try_into().expect("8 bytes"),
            )))
        }
        1 => Ok(Value::str(decode_str(buf, pos)?)),
        t => Err(WireError::BadTag(t)),
    }
}

/// Appends one tuple.
pub fn encode_tuple(t: &Tuple, out: &mut Vec<u8>) {
    out.extend_from_slice(&(t.arity() as u16).to_le_bytes());
    for v in t.iter() {
        encode_value(v, out);
    }
}

/// Reads one tuple.
pub fn decode_tuple(buf: &[u8], pos: &mut usize) -> Result<Tuple, WireError> {
    let bytes = take(buf, pos, 2)?;
    let arity = u16::from_le_bytes(bytes.try_into().expect("2 bytes")) as usize;
    let mut values = Vec::with_capacity(arity);
    for _ in 0..arity {
        values.push(decode_value(buf, pos)?);
    }
    Ok(Tuple::new(values))
}

/// Appends a counted sequence of tuples (e.g. a relation scan result).
pub fn encode_rows<'a>(rows: impl ExactSizeIterator<Item = &'a Tuple>, out: &mut Vec<u8>) {
    encode_u32(rows.len() as u32, out);
    for t in rows {
        encode_tuple(t, out);
    }
}

/// Reads a counted sequence of tuples.
pub fn decode_rows(buf: &[u8], pos: &mut usize) -> Result<Vec<Tuple>, WireError> {
    let count = decode_u32(buf, pos)? as u64;
    if count > MAX_LEN {
        return Err(WireError::OversizedLength(count));
    }
    let mut rows = Vec::with_capacity(count.min(1024) as usize);
    for _ in 0..count {
        rows.push(decode_tuple(buf, pos)?);
    }
    Ok(rows)
}

fn take<'a>(buf: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], WireError> {
    let end = pos.checked_add(n).ok_or(WireError::Truncated)?;
    if end > buf.len() {
        return Err(WireError::Truncated);
    }
    let slice = &buf[*pos..end];
    *pos = end;
    Ok(slice)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn values_round_trip() {
        for v in [
            Value::int(0),
            Value::int(-1),
            Value::int(i64::MAX),
            Value::int(i64::MIN),
            Value::str(""),
            Value::str("toy"),
            Value::str("naïve—λ"),
        ] {
            let mut buf = Vec::new();
            encode_value(&v, &mut buf);
            let mut pos = 0;
            assert_eq!(decode_value(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len(), "no trailing bytes for {v:?}");
        }
    }

    #[test]
    fn tuples_and_rows_round_trip() {
        let rows = vec![tuple![], tuple![1, "a"], tuple!["jones", "shoe", 50]];
        let mut buf = Vec::new();
        encode_rows(rows.iter(), &mut buf);
        let mut pos = 0;
        assert_eq!(decode_rows(&buf, &mut pos).unwrap(), rows);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut buf = Vec::new();
        encode_tuple(&tuple!["jones", 50], &mut buf);
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert!(
                decode_tuple(&buf[..cut], &mut pos).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn bad_tag_and_bad_utf8_rejected() {
        let mut pos = 0;
        assert_eq!(decode_value(&[7], &mut pos), Err(WireError::BadTag(7)));
        // tag=Str, len=1, invalid byte.
        let buf = [1u8, 1, 0, 0, 0, 0xff];
        let mut pos = 0;
        assert_eq!(decode_value(&buf, &mut pos), Err(WireError::BadUtf8));
    }

    #[test]
    fn u64_round_trip_and_fnv_vectors() {
        let mut buf = Vec::new();
        encode_u64(u64::MAX, &mut buf);
        encode_u64(0, &mut buf);
        let mut pos = 0;
        assert_eq!(decode_u64(&buf, &mut pos).unwrap(), u64::MAX);
        assert_eq!(decode_u64(&buf, &mut pos).unwrap(), 0);
        assert_eq!(pos, buf.len());
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn sealed_frames_keep_their_layout() {
        let frame = seal(7, b"ab");
        let mut want = vec![7, 0, 0, 0, 0, 0, 0, 0, b'a', b'b'];
        let sum = fnv1a64(&want);
        want.extend_from_slice(&sum.to_le_bytes());
        assert_eq!(frame, want);
        assert_eq!(unseal(&frame).unwrap(), (7, &b"ab"[..]));
        let mut flipped = frame.clone();
        flipped[8] ^= 1;
        assert!(matches!(unseal(&flipped), Err(WireError::Checksum { .. })));
        assert_eq!(unseal(&frame[..15]), Err(WireError::Truncated));
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        // tag=Str with a 4 GiB-ish length prefix.
        let buf = [1u8, 0xff, 0xff, 0xff, 0xff];
        let mut pos = 0;
        assert!(matches!(
            decode_value(&buf, &mut pos),
            Err(WireError::OversizedLength(_))
        ));
    }
}
