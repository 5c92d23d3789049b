//! The admission-service wire protocol: request/response batches in the
//! workspace's checksummed **wire-v2** sealed-frame envelope.
//!
//! ```text
//! frame  := u64 nonce, body, u64 fnv1a64(nonce ++ body)
//! body   := u32 count, message*
//! ```
//!
//! The envelope is byte-for-byte the `ccpi-site` idiom: the FNV-1a
//! trailer detects corruption and truncation, the echoed nonce rejects
//! stale or replayed replies. A server that cannot verify a request
//! frame answers a single [`ServerResponse::BadFrame`] under nonce 0 —
//! the client treats that as a transport-integrity failure, distinct
//! from an application-level [`ServerResponse::Error`].

use ccpi_storage::wirefmt::{self, seal, unseal, WireError};
use ccpi_storage::{Tuple, Update};

/// One admission-service request.
#[derive(Clone, Debug, PartialEq)]
pub enum ServerRequest {
    /// Liveness probe.
    Ping,
    /// Submit a batch of updates for admission. The reply reports, per
    /// update in order, whether it was admitted (durably logged and
    /// applied) and which constraints rejected it.
    Submit {
        /// The updates, judged and admitted in order.
        updates: Vec<Update>,
    },
    /// Read a whole relation from the latest published MVCC snapshot.
    Query {
        /// Relation name.
        pred: String,
    },
    /// Read the latest published snapshot's version counter.
    Version,
}

/// Per-update admission verdict inside [`ServerResponse::Admitted`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdmitResult {
    /// Was the update admitted (fsync'd and applied)?
    pub admitted: bool,
    /// Constraints the check reported violated.
    pub violations: Vec<String>,
    /// Constraints whose outcome was unknown (an unverifiable update is
    /// not admissible).
    pub unknowns: Vec<String>,
    /// Proof-carrying certificates for the verdicts, one per certified
    /// constraint: `(name, encoded ccpi-audit certificate)`. Empty
    /// unless the server was configured to return certificates
    /// (`ServerConfig::certificates`) — clients re-verify them with the
    /// standalone auditor instead of trusting the engine.
    pub certificates: Vec<(String, Vec<u8>)>,
}

/// One admission-service response.
#[derive(Clone, Debug, PartialEq)]
pub enum ServerResponse {
    /// Reply to [`ServerRequest::Ping`].
    Pong,
    /// Reply to [`ServerRequest::Submit`]: one verdict per update, in
    /// submission order. An admitted update is durable when this frame
    /// is sent — the ack *is* the group-commit barrier.
    Admitted {
        /// Per-update verdicts.
        results: Vec<AdmitResult>,
    },
    /// Reply to [`ServerRequest::Query`]: the relation's rows as of the
    /// snapshot identified by `version`.
    Rows {
        /// Echoed relation name.
        pred: String,
        /// [`Database::version`](ccpi_storage::Database::version) of the
        /// snapshot served.
        version: u64,
        /// The rows, in sorted tuple order.
        rows: Vec<Tuple>,
    },
    /// Reply to [`ServerRequest::Version`].
    Version {
        /// The latest published snapshot's version counter.
        version: u64,
    },
    /// Application-level failure (unknown relation, admission pipeline
    /// down). The exchange itself was sound.
    Error {
        /// Human-readable cause.
        message: String,
    },
    /// The request frame failed its integrity checks; sent under nonce 0
    /// because the real nonce was inside the unverifiable seal.
    BadFrame {
        /// Human-readable cause.
        message: String,
    },
    /// The admission queue is at capacity. The submission was **not**
    /// enqueued — no part of it will be judged or logged — so resending
    /// the identical batch after a backoff is safe (unlike a transport
    /// failure mid-`Submit`, which may have landed).
    Busy {
        /// The server's configured queue depth, for diagnostics.
        depth: u32,
    },
    /// A submitted update is owned by another shard under the server's
    /// current partitioning epoch. Nothing from the batch was judged or
    /// logged; the client should refresh its routing (the epoch says
    /// whether its map is stale) and resend to `owner`.
    WrongShard {
        /// The shard that owns the offending update.
        owner: u32,
        /// The server's partitioning epoch — a client holding a smaller
        /// epoch knows its routing table is stale, not merely wrong.
        epoch: u64,
        /// Human-readable detail (which update, which shard this is).
        message: String,
    },
}

fn encode_update(u: &Update, out: &mut Vec<u8>) {
    out.push(if u.is_insert() { 0 } else { 1 });
    wirefmt::encode_str(u.pred().as_str(), out);
    wirefmt::encode_tuple(u.tuple(), out);
}

fn decode_update(buf: &[u8], pos: &mut usize) -> Result<Update, WireError> {
    let kind = take_u8(buf, pos)?;
    let pred = wirefmt::decode_str(buf, pos)?;
    let tuple = wirefmt::decode_tuple(buf, pos)?;
    match kind {
        0 => Ok(Update::insert(pred, tuple)),
        1 => Ok(Update::delete(pred, tuple)),
        t => Err(WireError::BadTag(t)),
    }
}

fn encode_strings(items: &[String], out: &mut Vec<u8>) {
    wirefmt::encode_u32(items.len() as u32, out);
    for s in items {
        wirefmt::encode_str(s, out);
    }
}

fn decode_strings(buf: &[u8], pos: &mut usize) -> Result<Vec<String>, WireError> {
    let n = wirefmt::decode_u32(buf, pos)?;
    let mut items = Vec::with_capacity(n.min(1024) as usize);
    for _ in 0..n {
        items.push(wirefmt::decode_str(buf, pos)?);
    }
    Ok(items)
}

fn take_u8(buf: &[u8], pos: &mut usize) -> Result<u8, WireError> {
    if *pos >= buf.len() {
        return Err(WireError::Truncated);
    }
    let b = buf[*pos];
    *pos += 1;
    Ok(b)
}

impl ServerRequest {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ServerRequest::Ping => out.push(0),
            ServerRequest::Submit { updates } => {
                out.push(1);
                wirefmt::encode_u32(updates.len() as u32, out);
                for u in updates {
                    encode_update(u, out);
                }
            }
            ServerRequest::Query { pred } => {
                out.push(2);
                wirefmt::encode_str(pred, out);
            }
            ServerRequest::Version => out.push(3),
        }
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Result<ServerRequest, WireError> {
        match take_u8(buf, pos)? {
            0 => Ok(ServerRequest::Ping),
            1 => {
                let n = wirefmt::decode_u32(buf, pos)?;
                let mut updates = Vec::with_capacity(n.min(1024) as usize);
                for _ in 0..n {
                    updates.push(decode_update(buf, pos)?);
                }
                Ok(ServerRequest::Submit { updates })
            }
            2 => Ok(ServerRequest::Query {
                pred: wirefmt::decode_str(buf, pos)?,
            }),
            3 => Ok(ServerRequest::Version),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl ServerResponse {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ServerResponse::Pong => out.push(0),
            ServerResponse::Admitted { results } => {
                out.push(1);
                wirefmt::encode_u32(results.len() as u32, out);
                for r in results {
                    out.push(r.admitted as u8);
                    encode_strings(&r.violations, out);
                    encode_strings(&r.unknowns, out);
                    wirefmt::encode_u32(r.certificates.len() as u32, out);
                    for (name, bytes) in &r.certificates {
                        wirefmt::encode_str(name, out);
                        wirefmt::encode_u32(bytes.len() as u32, out);
                        out.extend_from_slice(bytes);
                    }
                }
            }
            ServerResponse::Rows {
                pred,
                version,
                rows,
            } => {
                out.push(2);
                wirefmt::encode_str(pred, out);
                wirefmt::encode_u64(*version, out);
                wirefmt::encode_rows(rows.iter(), out);
            }
            ServerResponse::Version { version } => {
                out.push(3);
                wirefmt::encode_u64(*version, out);
            }
            ServerResponse::Error { message } => {
                out.push(4);
                wirefmt::encode_str(message, out);
            }
            ServerResponse::BadFrame { message } => {
                out.push(5);
                wirefmt::encode_str(message, out);
            }
            ServerResponse::Busy { depth } => {
                out.push(6);
                wirefmt::encode_u32(*depth, out);
            }
            ServerResponse::WrongShard {
                owner,
                epoch,
                message,
            } => {
                out.push(7);
                wirefmt::encode_u32(*owner, out);
                wirefmt::encode_u64(*epoch, out);
                wirefmt::encode_str(message, out);
            }
        }
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Result<ServerResponse, WireError> {
        match take_u8(buf, pos)? {
            0 => Ok(ServerResponse::Pong),
            1 => {
                let n = wirefmt::decode_u32(buf, pos)?;
                let mut results = Vec::with_capacity(n.min(1024) as usize);
                for _ in 0..n {
                    let admitted = match take_u8(buf, pos)? {
                        0 => false,
                        1 => true,
                        t => return Err(WireError::BadTag(t)),
                    };
                    let violations = decode_strings(buf, pos)?;
                    let unknowns = decode_strings(buf, pos)?;
                    let nc = wirefmt::decode_u32(buf, pos)?;
                    let mut certificates = Vec::with_capacity(nc.min(1024) as usize);
                    for _ in 0..nc {
                        let name = wirefmt::decode_str(buf, pos)?;
                        let len = wirefmt::decode_u32(buf, pos)? as usize;
                        if *pos + len > buf.len() {
                            return Err(WireError::Truncated);
                        }
                        certificates.push((name, buf[*pos..*pos + len].to_vec()));
                        *pos += len;
                    }
                    results.push(AdmitResult {
                        admitted,
                        violations,
                        unknowns,
                        certificates,
                    });
                }
                Ok(ServerResponse::Admitted { results })
            }
            2 => Ok(ServerResponse::Rows {
                pred: wirefmt::decode_str(buf, pos)?,
                version: wirefmt::decode_u64(buf, pos)?,
                rows: wirefmt::decode_rows(buf, pos)?,
            }),
            3 => Ok(ServerResponse::Version {
                version: wirefmt::decode_u64(buf, pos)?,
            }),
            4 => Ok(ServerResponse::Error {
                message: wirefmt::decode_str(buf, pos)?,
            }),
            5 => Ok(ServerResponse::BadFrame {
                message: wirefmt::decode_str(buf, pos)?,
            }),
            6 => Ok(ServerResponse::Busy {
                depth: wirefmt::decode_u32(buf, pos)?,
            }),
            7 => Ok(ServerResponse::WrongShard {
                owner: wirefmt::decode_u32(buf, pos)?,
                epoch: wirefmt::decode_u64(buf, pos)?,
                message: wirefmt::decode_str(buf, pos)?,
            }),
            t => Err(WireError::BadTag(t)),
        }
    }
}

fn expect_end(buf: &[u8], pos: usize) -> Result<(), WireError> {
    if pos != buf.len() {
        return Err(WireError::Truncated);
    }
    Ok(())
}

/// Encodes a request batch under an exchange nonce.
pub fn encode_requests(nonce: u64, reqs: &[ServerRequest]) -> Vec<u8> {
    let mut body = Vec::new();
    wirefmt::encode_u32(reqs.len() as u32, &mut body);
    for r in reqs {
        r.encode(&mut body);
    }
    seal(nonce, &body)
}

/// Decodes and verifies a request batch, returning the nonce.
pub fn decode_requests(frame: &[u8]) -> Result<(u64, Vec<ServerRequest>), WireError> {
    let (nonce, body) = unseal(frame)?;
    let mut pos = 0;
    let n = wirefmt::decode_u32(body, &mut pos)?;
    let mut reqs = Vec::with_capacity(n.min(1024) as usize);
    for _ in 0..n {
        reqs.push(ServerRequest::decode(body, &mut pos)?);
    }
    expect_end(body, pos)?;
    Ok((nonce, reqs))
}

/// Encodes a response batch under the echoed exchange nonce.
pub fn encode_responses(nonce: u64, resps: &[ServerResponse]) -> Vec<u8> {
    let mut body = Vec::new();
    wirefmt::encode_u32(resps.len() as u32, &mut body);
    for r in resps {
        r.encode(&mut body);
    }
    seal(nonce, &body)
}

/// Decodes and verifies a response batch, returning the echoed nonce.
pub fn decode_responses(frame: &[u8]) -> Result<(u64, Vec<ServerResponse>), WireError> {
    let (nonce, body) = unseal(frame)?;
    let mut pos = 0;
    let n = wirefmt::decode_u32(body, &mut pos)?;
    let mut resps = Vec::with_capacity(n.min(1024) as usize);
    for _ in 0..n {
        resps.push(ServerResponse::decode(body, &mut pos)?);
    }
    expect_end(body, pos)?;
    Ok((nonce, resps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccpi_storage::tuple;

    fn sample_requests() -> Vec<ServerRequest> {
        vec![
            ServerRequest::Ping,
            ServerRequest::Submit {
                updates: vec![
                    Update::insert("acct", tuple![1, 100]),
                    Update::delete("acct", tuple!["x", -5]),
                ],
            },
            ServerRequest::Query {
                pred: "acct".into(),
            },
            ServerRequest::Version,
        ]
    }

    fn sample_responses() -> Vec<ServerResponse> {
        vec![
            ServerResponse::Pong,
            ServerResponse::Admitted {
                results: vec![
                    AdmitResult {
                        admitted: true,
                        violations: vec![],
                        unknowns: vec![],
                        certificates: vec![("positive".into(), vec![0x01, 0x02, 0x03])],
                    },
                    AdmitResult {
                        admitted: false,
                        violations: vec!["positive".into()],
                        unknowns: vec!["remote-ref".into()],
                        certificates: vec![],
                    },
                ],
            },
            ServerResponse::Rows {
                pred: "acct".into(),
                version: 7,
                rows: vec![tuple![1, 100], tuple![2, 50]],
            },
            ServerResponse::Version { version: 7 },
            ServerResponse::Error {
                message: "unknown relation `nope`".into(),
            },
            ServerResponse::BadFrame {
                message: "bad request frame: checksum".into(),
            },
            ServerResponse::Busy { depth: 1024 },
            ServerResponse::WrongShard {
                owner: 3,
                epoch: 2,
                message: "update 0 belongs to shard 3".into(),
            },
        ]
    }

    #[test]
    fn requests_round_trip() {
        let reqs = sample_requests();
        let frame = encode_requests(42, &reqs);
        let (nonce, decoded) = decode_requests(&frame).unwrap();
        assert_eq!(nonce, 42);
        assert_eq!(decoded, reqs);
    }

    #[test]
    fn responses_round_trip() {
        let resps = sample_responses();
        let frame = encode_responses(99, &resps);
        let (nonce, decoded) = decode_responses(&frame).unwrap();
        assert_eq!(nonce, 99);
        assert_eq!(decoded, resps);
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(decode_requests(&[]).is_err());
        assert!(decode_requests(&[0xff; 7]).is_err());
        assert!(decode_responses(&[0x00; 64]).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        // Valid body plus a trailing byte, re-sealed so the checksum is
        // fine: the decoder must still reject the excess.
        let mut body = Vec::new();
        wirefmt::encode_u32(1, &mut body);
        ServerRequest::Ping.encode(&mut body);
        body.push(0xaa);
        let frame = seal(5, &body);
        assert!(matches!(decode_requests(&frame), Err(WireError::Truncated)));
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let frame = encode_requests(7, &sample_requests());
        for i in 0..frame.len() {
            let mut corrupt = frame.clone();
            corrupt[i] ^= 0xff;
            assert!(
                decode_requests(&corrupt).is_err(),
                "flip at byte {i} went undetected"
            );
        }
        let frame = encode_responses(8, &sample_responses());
        for i in 0..frame.len() {
            let mut corrupt = frame.clone();
            corrupt[i] ^= 0xff;
            assert!(
                decode_responses(&corrupt).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let frame = encode_requests(7, &sample_requests());
        for cut in 0..frame.len() {
            assert!(
                decode_requests(&frame[..cut]).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
        let frame = encode_responses(8, &sample_responses());
        for cut in 0..frame.len() {
            assert!(
                decode_responses(&frame[..cut]).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
    }

    #[test]
    fn checksum_failure_reports_the_error_kind() {
        let mut frame = encode_requests(3, &[ServerRequest::Ping]);
        let mid = frame.len() / 2;
        frame[mid] ^= 0x01;
        assert!(matches!(
            decode_requests(&frame),
            Err(WireError::Checksum { .. })
        ));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use ccpi_storage::tuple;
    use proptest::prelude::*;

    fn update_strategy() -> impl Strategy<Value = Update> {
        ("[a-z]{1,8}", -100i64..100, 0i64..50, any::<bool>()).prop_map(|(pred, a, b, ins)| {
            if ins {
                Update::insert(pred, tuple![a, b])
            } else {
                Update::delete(pred, tuple![a, b])
            }
        })
    }

    fn request_strategy() -> impl Strategy<Value = ServerRequest> {
        prop_oneof![
            Just(ServerRequest::Ping),
            prop::collection::vec(update_strategy(), 0..6)
                .prop_map(|updates| ServerRequest::Submit { updates }),
            "[a-z]{1,8}".prop_map(|pred| ServerRequest::Query { pred }),
            Just(ServerRequest::Version),
        ]
    }

    fn admit_result_strategy() -> impl Strategy<Value = AdmitResult> {
        (
            any::<bool>(),
            prop::collection::vec("[a-z]{1,6}".prop_map(String::from), 0..3),
            prop::collection::vec("[a-z]{1,6}".prop_map(String::from), 0..3),
            prop::collection::vec(
                ("[a-z]{1,6}", prop::collection::vec(any::<u8>(), 0..24)),
                0..3,
            ),
        )
            .prop_map(
                |(admitted, violations, unknowns, certificates)| AdmitResult {
                    admitted,
                    violations,
                    unknowns,
                    certificates,
                },
            )
    }

    fn response_strategy() -> impl Strategy<Value = ServerResponse> {
        prop_oneof![
            Just(ServerResponse::Pong),
            prop::collection::vec(admit_result_strategy(), 0..4)
                .prop_map(|results| ServerResponse::Admitted { results }),
            (
                "[a-z]{1,8}",
                any::<u64>(),
                prop::collection::vec((-50i64..50, -50i64..50), 0..5)
            )
                .prop_map(|(pred, version, pairs)| ServerResponse::Rows {
                    pred,
                    version,
                    rows: pairs.into_iter().map(|(a, b)| tuple![a, b]).collect(),
                }),
            any::<u64>().prop_map(|version| ServerResponse::Version { version }),
            ".{0,40}".prop_map(|message| ServerResponse::Error { message }),
            ".{0,40}".prop_map(|message| ServerResponse::BadFrame { message }),
            any::<u32>().prop_map(|depth| ServerResponse::Busy { depth }),
            (any::<u32>(), any::<u64>(), ".{0,40}").prop_map(|(owner, epoch, message)| {
                ServerResponse::WrongShard {
                    owner,
                    epoch,
                    message,
                }
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Any request batch round-trips through the sealed codec.
        #[test]
        fn request_batches_round_trip(
            nonce in any::<u64>(),
            reqs in prop::collection::vec(request_strategy(), 0..5),
        ) {
            let frame = encode_requests(nonce, &reqs);
            let (n, decoded) = decode_requests(&frame).unwrap();
            prop_assert_eq!(n, nonce);
            prop_assert_eq!(decoded, reqs);
        }

        /// Any response batch round-trips through the sealed codec.
        #[test]
        fn response_batches_round_trip(
            nonce in any::<u64>(),
            resps in prop::collection::vec(response_strategy(), 0..5),
        ) {
            let frame = encode_responses(nonce, &resps);
            let (n, decoded) = decode_responses(&frame).unwrap();
            prop_assert_eq!(n, nonce);
            prop_assert_eq!(decoded, resps);
        }

        /// A corrupted frame never decodes as something else: any single
        /// byte XOR'd with a non-zero mask is detected.
        #[test]
        fn corrupted_request_frames_are_rejected(
            nonce in any::<u64>(),
            reqs in prop::collection::vec(request_strategy(), 0..4),
            idx in any::<usize>(),
            mask in 1u8..=255,
        ) {
            let mut frame = encode_requests(nonce, &reqs);
            let i = idx % frame.len();
            frame[i] ^= mask;
            prop_assert!(decode_requests(&frame).is_err());
        }

        /// A truncated frame never decodes: any strict prefix is
        /// detected.
        #[test]
        fn truncated_response_frames_are_rejected(
            nonce in any::<u64>(),
            resps in prop::collection::vec(response_strategy(), 0..4),
            cut in any::<usize>(),
        ) {
            let frame = encode_responses(nonce, &resps);
            let cut = cut % frame.len();
            prop_assert!(decode_responses(&frame[..cut]).is_err());
        }
    }
}
