//! The site protocol: batched requests and responses in one frame each.
//!
//! A *frame* is the unit the transport moves: a `u32` little-endian length
//! prefix followed by that many payload bytes (framing is the transport's
//! job; this module encodes/decodes payloads). One request frame carries a
//! **batch** of requests; the reply frame carries exactly one response per
//! request, in order. Batching is how the client amortises round trips:
//! a full check that needs three remote relations costs one round trip,
//! not three.
//!
//! Payload grammar (on top of [`ccpi_storage::wirefmt`]):
//!
//! ```text
//! sealed         := u64 nonce, body, u64 fnv1a64(nonce ++ body)
//! body (request) := u32 count, request*
//! request        := 0x00                                  ; Ping
//!                 | 0x01 str(pred)                        ; Scan
//!                 | 0x02 str(pred) u32(col) value         ; FetchFiltered
//!                 | 0x03 str(pred) rows                   ; Push
//! body (response):= u32 count, response*
//! response       := 0x00                                  ; Pong
//!                 | 0x01 str(pred) rows                   ; Rows
//!                 | 0x02 str(message)                     ; Error
//!                 | 0x03 str(message)                     ; BadFrame
//!                 | 0x04 u32(count)                       ; Applied
//! ```
//!
//! Every payload is **sealed**: a `u64` exchange nonce up front and an
//! FNV-1a 64 checksum of everything before it at the end. The checksum
//! turns silent corruption (a flipped byte that still decodes!) into a
//! detectable — and therefore retryable — failure; the echoed nonce
//! detects stale or duplicated replies from a desynchronised connection.
//! Neither is cryptographic: the threat model is bit rot and software
//! faults, not an adversary.

use ccpi_ir::Value;
use ccpi_storage::wirefmt::{
    decode_rows, decode_str, decode_u32, decode_value, encode_rows, encode_str, encode_u32,
    encode_value, seal, unseal, WireError,
};
use ccpi_storage::Tuple;

/// One request to a remote site.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness / round-trip probe.
    Ping,
    /// Full contents of a relation.
    Scan {
        /// Relation name.
        pred: String,
    },
    /// Tuples of `pred` whose component `col` equals `value` — lets a
    /// client pull a slice instead of the whole relation.
    FetchFiltered {
        /// Relation name.
        pred: String,
        /// Zero-based column index.
        col: u32,
        /// Required value at that column.
        value: Value,
    },
    /// Insert a batch of tuples into `pred` — the migration copy path.
    /// Idempotent by construction: relations have set semantics, so a
    /// replayed push (after a timeout whose original did land) converges
    /// to the same state.
    Push {
        /// Relation name.
        pred: String,
        /// Tuples to insert.
        rows: Vec<Tuple>,
    },
}

/// One response from a remote site (positionally paired with the request).
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Tuples answering a scan or filtered fetch.
    Rows {
        /// Relation name (echoed).
        pred: String,
        /// Matching tuples.
        rows: Vec<Tuple>,
    },
    /// The request could not be served (unknown relation, bad column).
    /// An *application* failure: the frame arrived intact, the answer is
    /// a definite no — retrying the same request cannot help.
    Error {
        /// Human-readable reason.
        message: String,
    },
    /// The request **frame** could not be decoded (failed checksum,
    /// truncation, bad tag). A *transport-integrity* failure: the client
    /// should poison the connection and retry, because a clean resend of
    /// the same batch may well succeed.
    BadFrame {
        /// Human-readable reason.
        message: String,
    },
    /// Answer to [`Request::Push`]: how many of the pushed tuples were
    /// newly inserted (replays of an already-landed batch report 0 —
    /// harmless, and useful for copy-progress accounting).
    Applied {
        /// Number of tuples that were not already present.
        count: u32,
    },
}

/// Encodes a request batch into a sealed frame payload.
pub fn encode_requests(nonce: u64, reqs: &[Request]) -> Vec<u8> {
    let mut body = Vec::new();
    encode_u32(reqs.len() as u32, &mut body);
    for r in reqs {
        match r {
            Request::Ping => body.push(0),
            Request::Scan { pred } => {
                body.push(1);
                encode_str(pred, &mut body);
            }
            Request::FetchFiltered { pred, col, value } => {
                body.push(2);
                encode_str(pred, &mut body);
                encode_u32(*col, &mut body);
                encode_value(value, &mut body);
            }
            Request::Push { pred, rows } => {
                body.push(3);
                encode_str(pred, &mut body);
                encode_rows(rows.iter(), &mut body);
            }
        }
    }
    seal(nonce, &body)
}

/// Decodes a sealed request batch; returns the client's nonce (to echo)
/// and the requests.
pub fn decode_requests(buf: &[u8]) -> Result<(u64, Vec<Request>), WireError> {
    let (nonce, body) = unseal(buf)?;
    let mut pos = 0;
    let count = decode_u32(body, &mut pos)?;
    let mut reqs = Vec::with_capacity(count.min(1024) as usize);
    for _ in 0..count {
        let tag = *body.get(pos).ok_or(WireError::Truncated)?;
        pos += 1;
        reqs.push(match tag {
            0 => Request::Ping,
            1 => Request::Scan {
                pred: decode_str(body, &mut pos)?,
            },
            2 => Request::FetchFiltered {
                pred: decode_str(body, &mut pos)?,
                col: decode_u32(body, &mut pos)?,
                value: decode_value(body, &mut pos)?,
            },
            3 => Request::Push {
                pred: decode_str(body, &mut pos)?,
                rows: decode_rows(body, &mut pos)?,
            },
            t => return Err(WireError::BadTag(t)),
        });
    }
    expect_end(body, pos)?;
    Ok((nonce, reqs))
}

/// Encodes a response batch into a sealed frame payload; `nonce` must be
/// the one decoded from the request being answered.
pub fn encode_responses(nonce: u64, resps: &[Response]) -> Vec<u8> {
    let mut body = Vec::new();
    encode_u32(resps.len() as u32, &mut body);
    for r in resps {
        match r {
            Response::Pong => body.push(0),
            Response::Rows { pred, rows } => {
                body.push(1);
                encode_str(pred, &mut body);
                encode_rows(rows.iter(), &mut body);
            }
            Response::Error { message } => {
                body.push(2);
                encode_str(message, &mut body);
            }
            Response::BadFrame { message } => {
                body.push(3);
                encode_str(message, &mut body);
            }
            Response::Applied { count } => {
                body.push(4);
                encode_u32(*count, &mut body);
            }
        }
    }
    seal(nonce, &body)
}

/// Decodes a sealed response batch; returns the echoed nonce and the
/// responses. The caller must check the nonce against the one it sent.
pub fn decode_responses(buf: &[u8]) -> Result<(u64, Vec<Response>), WireError> {
    let (nonce, body) = unseal(buf)?;
    let mut pos = 0;
    let count = decode_u32(body, &mut pos)?;
    let mut resps = Vec::with_capacity(count.min(1024) as usize);
    for _ in 0..count {
        let tag = *body.get(pos).ok_or(WireError::Truncated)?;
        pos += 1;
        resps.push(match tag {
            0 => Response::Pong,
            1 => Response::Rows {
                pred: decode_str(body, &mut pos)?,
                rows: decode_rows(body, &mut pos)?,
            },
            2 => Response::Error {
                message: decode_str(body, &mut pos)?,
            },
            3 => Response::BadFrame {
                message: decode_str(body, &mut pos)?,
            },
            4 => Response::Applied {
                count: decode_u32(body, &mut pos)?,
            },
            t => return Err(WireError::BadTag(t)),
        });
    }
    expect_end(body, pos)?;
    Ok((nonce, resps))
}

fn expect_end(buf: &[u8], pos: usize) -> Result<(), WireError> {
    if pos == buf.len() {
        Ok(())
    } else {
        // Trailing garbage means the frame is not what its count claims.
        Err(WireError::Truncated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccpi_storage::tuple;

    #[test]
    fn request_batches_round_trip() {
        let reqs = vec![
            Request::Ping,
            Request::Scan { pred: "r".into() },
            Request::FetchFiltered {
                pred: "dept".into(),
                col: 1,
                value: Value::str("toy"),
            },
            Request::Push {
                pred: "emp".into(),
                rows: vec![tuple!["jones", "shoe", 50], tuple!["smith", "toy", 70]],
            },
        ];
        let buf = encode_requests(7, &reqs);
        assert_eq!(decode_requests(&buf).unwrap(), (7, reqs));
    }

    #[test]
    fn response_batches_round_trip() {
        let resps = vec![
            Response::Pong,
            Response::Rows {
                pred: "r".into(),
                rows: vec![tuple![20], tuple![42]],
            },
            Response::Error {
                message: "unknown relation q".into(),
            },
            Response::BadFrame {
                message: "checksum mismatch".into(),
            },
            Response::Applied { count: 2 },
        ];
        let buf = encode_responses(u64::MAX, &resps);
        assert_eq!(decode_responses(&buf).unwrap(), (u64::MAX, resps));
    }

    #[test]
    fn garbage_frames_rejected() {
        assert!(decode_requests(&[]).is_err());
        assert!(decode_responses(&[9, 9, 9]).is_err());
        // Valid batch with trailing garbage is rejected too (the trailing
        // byte shifts the checksum window, so the seal itself fails).
        let mut buf = encode_requests(1, &[Request::Ping]);
        buf.push(0xaa);
        assert!(decode_requests(&buf).is_err());
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let buf = encode_responses(
            3,
            &[Response::Rows {
                pred: "r".into(),
                rows: vec![tuple![20, "x"]],
            }],
        );
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0xff;
            assert!(
                decode_responses(&bad).is_err(),
                "flipping byte {i} must not decode"
            );
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let buf = encode_requests(9, &[Request::Scan { pred: "r".into() }]);
        for cut in 0..buf.len() {
            assert!(
                decode_requests(&buf[..cut]).is_err(),
                "truncating to {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn push_frames_detect_corruption_like_any_other() {
        let buf = encode_requests(
            11,
            &[Request::Push {
                pred: "emp".into(),
                rows: vec![tuple!["jones", "shoe", 50]],
            }],
        );
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0xff;
            assert!(
                decode_requests(&bad).is_err(),
                "flipping byte {i} must not decode"
            );
        }
        for cut in 0..buf.len() {
            assert!(
                decode_requests(&buf[..cut]).is_err(),
                "truncating to {cut} bytes must not decode"
            );
        }
        let applied = encode_responses(11, &[Response::Applied { count: 1 }]);
        for i in 0..applied.len() {
            let mut bad = applied.clone();
            bad[i] ^= 0xff;
            assert!(
                decode_responses(&bad).is_err(),
                "flipping byte {i} must not decode"
            );
        }
    }

    #[test]
    fn checksum_failure_is_reported_as_checksum() {
        let mut buf = encode_requests(1, &[Request::Ping]);
        let mid = buf.len() / 2;
        buf[mid] ^= 0x01;
        assert!(matches!(
            decode_requests(&buf),
            Err(WireError::Checksum { .. })
        ));
    }
}
