//! The site client: batching, deadlines, bounded retry with exponential
//! backoff, and measured transport counters.
//!
//! [`SiteClient`] is the crate's [`RemoteSource`] implementation: the
//! constraint manager asks it for remote relations only when the
//! escalation ladder reaches stage 4, and every wire interaction is
//! counted so [`CheckReport::wire`](ccpi::report::CheckReport) carries
//! *measured* numbers.
//!
//! Failure taxonomy the retry loop enforces:
//!
//! * **Retryable** — timeout, disconnect: the request may simply not have
//!   arrived; resend after backoff.
//! * **Retryable with poison** — a corrupt frame (failed checksum, stale
//!   nonce, undecodable bytes, peer `BadFrame`): the *connection* can no
//!   longer be trusted, so [`Transport::reset`] forces a re-dial before
//!   the resend. Never loop on a desynchronised stream.
//! * **Fatal** — an application-level [`Response::Error`] (unknown
//!   relation, bad column): the frame arrived intact and the answer is a
//!   definite no; retrying cannot change it.
//!
//! The whole exchange — every attempt plus every backoff sleep — is
//! bounded by one exchange deadline, so a caller's latency budget holds
//! regardless of the retry schedule.

use crate::transport::{Transport, TransportError};
use crate::wire::{decode_responses, encode_requests, Request, Response};
use ccpi::remote::{RemoteError, RemoteSource};
use ccpi::report::WireStats;
use ccpi_storage::Tuple;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bounded retry with exponential backoff.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts (first try included). `1` disables retries.
    pub attempts: u32,
    /// Sleep before the first retry; doubles per retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    /// Three attempts, 10 ms → 20 ms backoff.
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(200),
        }
    }
}

impl RetryPolicy {
    /// No retries at all.
    pub fn none() -> Self {
        RetryPolicy {
            attempts: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        }
    }

    /// The backoff slept before retry number `retry` (zero-based):
    /// `base_backoff * 2^retry`, capped at `max_backoff`.
    pub fn backoff_for(&self, retry: u32) -> Duration {
        let doubled = 1u32.checked_shl(retry.min(31)).unwrap_or(u32::MAX);
        self.base_backoff
            .checked_mul(doubled)
            .map_or(self.max_backoff, |d| d.min(self.max_backoff))
    }

    /// Sum of every backoff a full retry cycle can sleep — the fixed part
    /// of the worst-case exchange latency.
    pub fn total_backoff(&self) -> Duration {
        (0..self.attempts.saturating_sub(1))
            .map(|i| self.backoff_for(i))
            .sum()
    }
}

/// Cumulative transport counters, shared and thread-safe.
///
/// Counter semantics: `requests` counts protocol requests issued (each
/// batch entry once, however many retries it takes); `round_trips` counts
/// frames actually sent (so `round_trips - retries` is the number of
/// distinct exchanges); bytes count framed payloads per attempt —
/// retransmitted bytes are real bytes.
///
/// The failure counters reconcile: every failed attempt lands in exactly
/// one of `timeouts`, `disconnects`, `corrupt_frames`, and is followed by
/// either a retry or a failed exchange, so
/// `timeouts + disconnects + corrupt_frames == retries + failed_exchanges`
/// holds at every quiescent point. The chaos harness asserts this against
/// its fault log.
#[derive(Debug, Default)]
pub struct SiteMetrics {
    requests: AtomicU64,
    round_trips: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    retries: AtomicU64,
    timeouts: AtomicU64,
    corrupt_frames: AtomicU64,
    disconnects: AtomicU64,
    redials: AtomicU64,
    failed_exchanges: AtomicU64,
}

impl SiteMetrics {
    /// A point-in-time copy.
    pub fn snapshot(&self) -> WireStats {
        WireStats {
            requests: self.requests.load(Ordering::Relaxed),
            round_trips: self.round_trips.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            corrupt_frames: self.corrupt_frames.load(Ordering::Relaxed),
            disconnects: self.disconnects.load(Ordering::Relaxed),
            redials: self.redials.load(Ordering::Relaxed),
            failed_exchanges: self.failed_exchanges.load(Ordering::Relaxed),
        }
    }
}

/// A client for one remote site.
pub struct SiteClient {
    transport: Box<dyn Transport>,
    /// Per-round-trip deadline.
    deadline: Duration,
    /// Whole-exchange deadline (attempts + backoffs). `None` derives one
    /// from the per-attempt deadline and the retry policy.
    exchange_deadline: Option<Duration>,
    retry: RetryPolicy,
    metrics: Arc<SiteMetrics>,
    /// Monotonic per-exchange nonce; echoed by the server so stale or
    /// duplicated replies are detectable.
    nonce: u64,
}

impl SiteClient {
    /// A client over any transport with the default deadline (1 s) and
    /// retry policy.
    pub fn new(transport: impl Transport + 'static) -> SiteClient {
        SiteClient {
            transport: Box::new(transport),
            deadline: Duration::from_secs(1),
            exchange_deadline: None,
            retry: RetryPolicy::default(),
            metrics: Arc::new(SiteMetrics::default()),
            nonce: 0,
        }
    }

    /// Sets the per-round-trip deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> SiteClient {
        self.deadline = deadline;
        self
    }

    /// Bounds the **whole** exchange — every attempt and every backoff
    /// sleep — by one deadline. Without it the bound is derived:
    /// `deadline * attempts + total_backoff`, i.e. "let the retry policy
    /// run to completion but not a microsecond longer".
    pub fn with_exchange_deadline(mut self, deadline: Duration) -> SiteClient {
        self.exchange_deadline = Some(deadline);
        self
    }

    /// Sets the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> SiteClient {
        self.retry = retry;
        self
    }

    /// Shared handle to the cumulative counters.
    pub fn metrics(&self) -> Arc<SiteMetrics> {
        Arc::clone(&self.metrics)
    }

    fn exchange_budget(&self) -> Duration {
        self.exchange_deadline.unwrap_or_else(|| {
            self.deadline * self.retry.attempts.max(1) + self.retry.total_backoff()
        })
    }

    /// A corrupt frame poisons the connection: count it, force a re-dial,
    /// let the retry loop resend on a fresh stream.
    fn poison(&mut self) {
        self.metrics.corrupt_frames.fetch_add(1, Ordering::Relaxed);
        self.metrics.redials.fetch_add(1, Ordering::Relaxed);
        self.transport.reset();
    }

    /// Sends one batch; returns one response per request, in order.
    ///
    /// Retries the *whole batch* on timeout, disconnect, or corrupt frame
    /// (reads are side-effect-free and [`Request::Push`] is idempotent
    /// under set semantics, so replays are safe), sleeping an
    /// exponentially growing backoff between attempts; corrupt frames
    /// additionally poison the connection so the resend starts on a fresh
    /// one. The exchange deadline bounds everything. When every attempt
    /// fails the batch resolves to [`RemoteError::Unavailable`].
    pub fn exchange(&mut self, reqs: &[Request]) -> Result<Vec<Response>, RemoteError> {
        self.nonce = self.nonce.wrapping_add(1);
        let nonce = self.nonce;
        let payload = encode_requests(nonce, reqs);
        self.metrics
            .requests
            .fetch_add(reqs.len() as u64, Ordering::Relaxed);
        let start = Instant::now();
        let budget = self.exchange_budget();
        let mut last_err = String::from("exchange deadline left no time for an attempt");
        for attempt in 0..self.retry.attempts.max(1) {
            if attempt > 0 {
                let Some(remaining) = budget.checked_sub(start.elapsed()) else {
                    break;
                };
                std::thread::sleep(self.retry.backoff_for(attempt - 1).min(remaining));
            }
            let Some(remaining) = budget.checked_sub(start.elapsed()) else {
                break;
            };
            if attempt > 0 {
                // Counted here, not at the sleep: a retry that the budget
                // cancels before the frame goes out is not a retry.
                self.metrics.retries.fetch_add(1, Ordering::Relaxed);
            }
            let attempt_deadline = self.deadline.min(remaining).max(Duration::from_millis(1));
            self.metrics.round_trips.fetch_add(1, Ordering::Relaxed);
            self.metrics
                .bytes_sent
                .fetch_add(self.transport.framed_len(&payload), Ordering::Relaxed);
            match self.transport.round_trip(&payload, attempt_deadline) {
                Ok(reply) => {
                    self.metrics
                        .bytes_received
                        .fetch_add(self.transport.framed_len(&reply), Ordering::Relaxed);
                    match decode_responses(&reply) {
                        Ok((echo, resps)) => {
                            let bad = resps.iter().find_map(|r| match r {
                                Response::BadFrame { message } => Some(message.clone()),
                                _ => None,
                            });
                            if let Some(message) = bad {
                                last_err = format!("peer rejected our frame: {message}");
                                self.poison();
                            } else if echo != nonce {
                                last_err = format!(
                                    "stale or duplicated reply (nonce {echo}, expected {nonce})"
                                );
                                self.poison();
                            } else if resps.len() != reqs.len() {
                                last_err =
                                    format!("{} responses to {} requests", resps.len(), reqs.len());
                                self.poison();
                            } else {
                                return Ok(resps);
                            }
                        }
                        Err(e) => {
                            last_err = format!("undecodable reply: {e}");
                            self.poison();
                        }
                    }
                }
                Err(TransportError::Timeout) => {
                    self.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
                    last_err = "deadline expired".into();
                }
                Err(TransportError::Disconnected(m)) => {
                    self.metrics.disconnects.fetch_add(1, Ordering::Relaxed);
                    last_err = format!("disconnected: {m}");
                }
                Err(TransportError::Protocol(m)) => {
                    // The bytes on the stream violate the framing — same
                    // trust failure as a bad checksum.
                    last_err = format!("framing violation: {m}");
                    self.poison();
                }
            }
        }
        self.metrics
            .failed_exchanges
            .fetch_add(1, Ordering::Relaxed);
        Err(RemoteError::Unavailable(last_err))
    }

    /// Round-trip probe.
    pub fn ping(&mut self) -> Result<(), RemoteError> {
        match self.exchange(&[Request::Ping])?.pop() {
            Some(Response::Pong) => Ok(()),
            other => Err(RemoteError::Protocol(format!(
                "expected Pong, got {other:?}"
            ))),
        }
    }

    /// Fetches several relations in **one** round trip; returns them in
    /// request order.
    pub fn scan_many(&mut self, preds: &[&str]) -> Result<Vec<Vec<Tuple>>, RemoteError> {
        let reqs: Vec<Request> = preds
            .iter()
            .map(|p| Request::Scan {
                pred: (*p).to_string(),
            })
            .collect();
        self.exchange(&reqs)?
            .into_iter()
            .map(|resp| match resp {
                Response::Rows { rows, .. } => Ok(rows),
                Response::Error { message } => Err(RemoteError::Protocol(message)),
                Response::Pong => Err(RemoteError::Protocol("unexpected Pong".into())),
                // `exchange` retries these away or fails the exchange.
                other => Err(RemoteError::Protocol(format!(
                    "expected Rows, got {other:?}"
                ))),
            })
            .collect()
    }

    /// Pushes a batch of tuples into a remote relation — the migration
    /// copy path. Returns how many were newly inserted there (a replayed
    /// batch after a lost reply reports 0 for the duplicates; the final
    /// state is identical either way).
    pub fn push_rows(&mut self, pred: &str, rows: Vec<Tuple>) -> Result<usize, RemoteError> {
        let req = Request::Push {
            pred: pred.to_string(),
            rows,
        };
        match self.exchange(&[req])?.pop() {
            Some(Response::Applied { count }) => Ok(count as usize),
            Some(Response::Error { message }) => Err(RemoteError::Protocol(message)),
            other => Err(RemoteError::Protocol(format!(
                "expected Applied, got {other:?}"
            ))),
        }
    }
}

impl RemoteSource for SiteClient {
    fn fetch_relation(&mut self, pred: &str) -> Result<Vec<Tuple>, RemoteError> {
        Ok(self.scan_many(&[pred])?.pop().expect("one answer"))
    }

    fn wire_stats(&self) -> WireStats {
        self.metrics.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::RemoteSite;
    use crate::transport::ChannelTransport;
    use ccpi_storage::{tuple, Database, Locality};

    fn spawn_site() -> (SiteClient, RemoteSite) {
        let mut db = Database::new();
        db.declare("r", 1, Locality::Remote).unwrap();
        db.insert("r", tuple![20]).unwrap();
        let site = RemoteSite::new(db);
        let (transport, end) = ChannelTransport::pair();
        site.serve_channel(end);
        (SiteClient::new(transport), site)
    }

    #[test]
    fn scan_through_channel_counts_one_round_trip() {
        let (mut client, _site) = spawn_site();
        let rows = client.fetch_relation("r").unwrap();
        assert_eq!(rows, vec![tuple![20]]);
        let stats = client.wire_stats();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.round_trips, 1);
        assert_eq!(stats.retries, 0);
        assert!(stats.bytes_sent > 0 && stats.bytes_received > 0);
    }

    #[test]
    fn batched_scans_share_a_round_trip() {
        let mut db = Database::new();
        db.declare("r", 1, Locality::Remote).unwrap();
        db.declare("s", 2, Locality::Remote).unwrap();
        db.insert("r", tuple![1]).unwrap();
        db.insert("s", tuple![1, 2]).unwrap();
        let site = RemoteSite::new(db);
        let (transport, end) = ChannelTransport::pair();
        site.serve_channel(end);
        let mut client = SiteClient::new(transport);
        let both = client.scan_many(&["r", "s"]).unwrap();
        assert_eq!(both[0], vec![tuple![1]]);
        assert_eq!(both[1], vec![tuple![1, 2]]);
        assert_eq!(client.wire_stats().requests, 2);
        assert_eq!(client.wire_stats().round_trips, 1);
        assert_eq!(site.batches_served(), 1);
    }

    #[test]
    fn push_rows_lands_and_replays_harmlessly() {
        let (mut client, site) = spawn_site();
        let n = client
            .push_rows("r", vec![tuple![20], tuple![99]])
            .unwrap();
        assert_eq!(n, 1, "20 was already present");
        let n = client.push_rows("r", vec![tuple![99]]).unwrap();
        assert_eq!(n, 0, "replay is absorbed");
        assert_eq!(site.database().lock().unwrap().relation("r").unwrap().len(), 2);
        let err = client.push_rows("nope", vec![tuple![1]]).unwrap_err();
        assert!(matches!(err, RemoteError::Protocol(_)), "{err:?}");
    }

    #[test]
    fn dead_transport_exhausts_retries_then_degrades() {
        let (transport, end) = ChannelTransport::pair();
        drop(end); // remote gone before the first call
        let mut client = SiteClient::new(transport)
            .with_deadline(Duration::from_millis(20))
            .with_retry(RetryPolicy {
                attempts: 3,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(2),
            });
        let err = client.fetch_relation("r").unwrap_err();
        assert!(matches!(err, RemoteError::Unavailable(_)), "{err:?}");
        let stats = client.wire_stats();
        assert_eq!(stats.round_trips, 3);
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.disconnects, 3);
        assert_eq!(stats.failed_exchanges, 1);
        // Reconciliation invariant at a quiescent point.
        assert_eq!(
            stats.timeouts + stats.disconnects + stats.corrupt_frames,
            stats.retries + stats.failed_exchanges
        );
    }

    #[test]
    fn silent_server_counts_timeouts() {
        let (transport, _end) = ChannelTransport::pair(); // never answers
        let mut client = SiteClient::new(transport)
            .with_deadline(Duration::from_millis(10))
            .with_retry(RetryPolicy {
                attempts: 2,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(1),
            });
        assert!(client.ping().is_err());
        let stats = client.wire_stats();
        assert_eq!(stats.timeouts, 2);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.failed_exchanges, 1);
    }

    #[test]
    fn server_error_response_is_protocol_not_unavailable() {
        let (mut client, _site) = spawn_site();
        let err = client.fetch_relation("nope").unwrap_err();
        assert!(matches!(err, RemoteError::Protocol(_)), "{err:?}");
        // An intact application-level refusal is not a wire failure.
        assert_eq!(client.wire_stats().corrupt_frames, 0);
        assert_eq!(client.wire_stats().retries, 0);
    }

    #[test]
    fn corrupt_reply_poisons_then_recovers_on_retry() {
        // A hand-rolled server that garbles its first reply and answers
        // honestly afterwards.
        let (transport, end) = ChannelTransport::pair();
        let mut db = Database::new();
        db.declare("r", 1, Locality::Remote).unwrap();
        db.insert("r", tuple![20]).unwrap();
        let site = RemoteSite::new(db);
        std::thread::spawn(move || {
            let mut first = true;
            while let Ok(frame) = end.requests.recv() {
                let mut reply = site.handle_frame(&frame);
                if first {
                    first = false;
                    let mid = reply.len() / 2;
                    reply[mid] ^= 0xff; // silent corruption in transit
                }
                if end.replies.send(reply).is_err() {
                    break;
                }
            }
        });
        let mut client = SiteClient::new(transport).with_retry(RetryPolicy {
            attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
        });
        // The corruption is detected (not believed), retried, and the
        // second attempt succeeds.
        let rows = client.fetch_relation("r").unwrap();
        assert_eq!(rows, vec![tuple![20]]);
        let stats = client.wire_stats();
        assert_eq!(stats.corrupt_frames, 1);
        assert_eq!(stats.redials, 1);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.round_trips, 2);
        assert_eq!(stats.failed_exchanges, 0);
    }

    #[test]
    fn stale_reply_is_rejected_by_nonce() {
        // The server replays its previous reply: decodes fine, checksum
        // fine, but the nonce belongs to an older exchange.
        let (transport, end) = ChannelTransport::pair();
        let mut db = Database::new();
        db.declare("r", 1, Locality::Remote).unwrap();
        db.insert("r", tuple![20]).unwrap();
        let site = RemoteSite::new(db);
        std::thread::spawn(move || {
            let mut previous: Option<Vec<u8>> = None;
            let mut served = 0u32;
            while let Ok(frame) = end.requests.recv() {
                let fresh = site.handle_frame(&frame);
                served += 1;
                let reply = if served == 2 {
                    previous.clone().expect("one earlier reply")
                } else {
                    fresh.clone()
                };
                previous = Some(fresh);
                if end.replies.send(reply).is_err() {
                    break;
                }
            }
        });
        let mut client = SiteClient::new(transport).with_retry(RetryPolicy {
            attempts: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(1),
        });
        client.fetch_relation("r").unwrap(); // exchange 1, honest
        client.fetch_relation("r").unwrap(); // exchange 2: stale, then retried
        let stats = client.wire_stats();
        assert_eq!(stats.corrupt_frames, 1);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.failed_exchanges, 0);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            attempts: 8,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(200),
        };
        let schedule: Vec<u64> = (0..7)
            .map(|i| p.backoff_for(i).as_millis() as u64)
            .collect();
        assert_eq!(schedule, vec![10, 20, 40, 80, 160, 200, 200]);
        assert_eq!(p.total_backoff(), Duration::from_millis(710));
        assert_eq!(RetryPolicy::none().total_backoff(), Duration::ZERO);
    }

    #[test]
    fn exchange_deadline_bounds_total_wait() {
        // A silent server and a generous retry policy: without the
        // exchange deadline this would wait ~10 * (50ms + backoff). The
        // deadline must cut the whole exchange off near 120 ms.
        let (transport, _end) = ChannelTransport::pair();
        let mut client = SiteClient::new(transport)
            .with_deadline(Duration::from_millis(50))
            .with_exchange_deadline(Duration::from_millis(120))
            .with_retry(RetryPolicy {
                attempts: 10,
                base_backoff: Duration::from_millis(20),
                max_backoff: Duration::from_millis(40),
            });
        let start = Instant::now();
        let err = client.fetch_relation("r").unwrap_err();
        let elapsed = start.elapsed();
        assert!(matches!(err, RemoteError::Unavailable(_)));
        assert!(
            elapsed < Duration::from_millis(400),
            "exchange ran {elapsed:?}, deadline was 120ms"
        );
        let stats = client.wire_stats();
        assert!(
            stats.round_trips < 10,
            "budget should cut attempts short, made {}",
            stats.round_trips
        );
        assert_eq!(stats.failed_exchanges, 1);
        assert_eq!(
            stats.timeouts + stats.disconnects + stats.corrupt_frames,
            stats.retries + stats.failed_exchanges
        );
    }
}
