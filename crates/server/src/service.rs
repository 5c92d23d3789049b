//! The admission service: serialized admit stage, commit-group windows,
//! MVCC snapshot publication, TCP front end.
//!
//! ## Thread topology
//!
//! ```text
//!  client ── TCP ──► connection worker ──┐
//!  client ── TCP ──► connection worker ──┼─ mpsc ─► admit thread ─► DurableManager
//!  client ── TCP ──► connection worker ──┘            │                (WAL + fsync)
//!        ▲                 │ reads                    ▼ publishes
//!        └── Query/Version ◄─────── Arc<RwLock<DatabaseSnapshot>>
//! ```
//!
//! **One thread owns the [`DurableManager`].** Every `Submit` funnels
//! through the mpsc queue into that admit thread, so concurrent clients
//! are judged serially against one evolving state — the same
//! re-judgment discipline as the single-caller batch pipeline, which is
//! what makes it impossible for two individually-clean but
//! jointly-violating updates from different connections to both be
//! admitted.
//!
//! **Commit-group windows.** The admit thread takes one job, then drains
//! every job that queued up behind it while the previous group was
//! committing, flattens them into a single
//! [`process_updates_grouped`](ccpi::durable::DurableManager::process_updates_grouped)
//! call (one shared fsync), splits the verdicts back along job
//! boundaries, and only then acks each client. The deeper the queue, the
//! larger the group: the service self-clocks into batching exactly when
//! batching pays. The invariant is inherited verbatim from the durable
//! layer: **ack ⇒ fsync'd ⇒ admitted under the serialized re-judgment**.
//! With [`ServerConfig::group_commit`] off, the admit thread calls the
//! per-update-fsync pipeline instead — the measured baseline for E13.
//!
//! **MVCC reads.** After every commit group the admit thread publishes a
//! fresh [`DatabaseSnapshot`]; `Query`/`Version` requests are answered by
//! the connection workers from the latest published snapshot under a
//! brief `RwLock` read — they never enqueue behind the admission writer,
//! and a batch of reads in one frame sees one consistent version.
//!
//! **Backpressure.** The job queue is bounded by
//! [`ServerConfig::queue_depth`]. A `Submit` arriving at a full queue is
//! answered with [`ServerResponse::Busy`] *without* being enqueued, so
//! the reply is an honest "nothing happened": the client can resend the
//! identical batch after a backoff with no double-apply risk
//! ([`AdmissionClient::submit_with_backoff`](crate::client::AdmissionClient::submit_with_backoff)
//! does exactly that, and retries on no other error).
//!
//! ## Shutdown
//!
//! [`ServerHandle::stop`] (idempotent, safe to race, implied by `Drop`)
//! raises the stop flag and joins, in order: the accept loop (which
//! joins every connection worker), then the admit thread. The admit
//! thread drains any still-queued jobs with an error reply before
//! exiting, so no client is left waiting on an ack that will never come;
//! anything unacknowledged is, by the WAL contract, also unapplied after
//! recovery.

use crate::proto::{self, AdmitResult, ServerRequest, ServerResponse};
use ccpi::durable::DurableManager;
use ccpi_site::transport::{read_frame, write_frame};
use ccpi_storage::{DatabaseSnapshot, Partitioning, Update};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// A shard's identity within a partitioned fleet: which shard this server
/// is, under which [`Partitioning`]. With one in place, admission refuses
/// updates that belong to another shard — a mis-routed update must bounce
/// back to the router naming its true owner, never be judged against a
/// fragment that cannot see the co-located rows its constraints join.
#[derive(Clone, Debug)]
pub struct ShardAssignment {
    /// The fleet-wide partitioning (identical on every shard server).
    pub parts: Partitioning,
    /// This server's shard index.
    pub shard: usize,
}

impl ShardAssignment {
    /// `Err` when some update's owner shard is not this server. The
    /// rejection carries the true owner *and* this server's partitioning
    /// epoch, so a router holding a stale table can tell a transient
    /// mis-route (epoch moved under it — refresh and resend) from a
    /// genuinely wrong destination.
    fn admissible(&self, updates: &[Update]) -> Result<(), Rejection> {
        for u in updates {
            let owners = self.parts.owners(u.pred().as_str(), u.tuple());
            if !owners.contains(&self.shard) {
                return Err(Rejection::WrongShard {
                    owner: owners[0] as u32,
                    epoch: self.parts.epoch(),
                    message: format!(
                        "update {} belongs to shard {} at epoch {} (this server is shard {})",
                        u,
                        owners[0],
                        self.parts.epoch(),
                        self.shard
                    ),
                });
            }
        }
        Ok(())
    }
}

/// Why a `Submit` was refused before (or instead of) admission. Most
/// refusals are plain errors; a [`Rejection::WrongShard`] is a routing
/// redirect, answered on the wire as
/// [`ServerResponse::WrongShard`](crate::proto::ServerResponse::WrongShard)
/// so the client can re-route instead of failing.
#[derive(Clone, Debug)]
enum Rejection {
    /// A terminal refusal (unknown relation, arity mismatch, pipeline
    /// failure, shutdown).
    Error(String),
    /// The batch belongs to `owner` under the partitioning at `epoch`;
    /// nothing was judged or logged here.
    WrongShard {
        owner: u32,
        epoch: u64,
        message: String,
    },
}

/// How the admission service commits and what it records.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Commit each admit window with one shared fsync (the default).
    /// `false` falls back to the per-update-fsync pipeline — functionally
    /// identical, measurably slower; kept as the E13 baseline.
    pub group_commit: bool,
    /// Record every `(update, admitted)` decision in submission order,
    /// readable via [`ServerHandle::decisions`]. Used by the soundness
    /// twin in the benchmark; costs a mutex push per update.
    pub record_decisions: bool,
    /// Maximum `Submit` jobs (one per in-flight `Submit` request, however
    /// many updates it carries) queued ahead of the admit thread. When
    /// the queue is full the connection worker answers
    /// [`ServerResponse::Busy`] immediately instead of enqueueing — the
    /// job never enters the pipeline, so the client may safely resend
    /// after a backoff. Clamped to at least 1.
    pub queue_depth: usize,
    /// Shard identity for partitioned deployments: when set, updates
    /// owned by another shard are refused at validation (before the WAL),
    /// with an error naming the owner. `None` (the default) serves the
    /// whole keyspace.
    pub shard: Option<ShardAssignment>,
    /// Return proof-carrying certificates with every verdict
    /// ([`AdmitResult::certificates`]) and log them into the WAL for
    /// certificate-replay recovery. Clients re-verify the certificates
    /// with the standalone `ccpi-audit` checker instead of trusting the
    /// engine. Off by default: certificates cost witness extraction per
    /// verdict and bytes on the wire.
    pub certificates: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            group_commit: true,
            record_decisions: false,
            queue_depth: 1024,
            shard: None,
            certificates: false,
        }
    }
}

/// Cumulative service counters, shared and thread-safe.
#[derive(Debug, Default)]
pub struct ServerStats {
    submitted: AtomicU64,
    admitted: AtomicU64,
    groups: AtomicU64,
    snapshot_reads: AtomicU64,
    busy_rejections: AtomicU64,
}

impl ServerStats {
    /// Updates received for admission (across all clients).
    pub fn submitted(&self) -> u64 {
        self.submitted.load(Ordering::Relaxed)
    }

    /// Updates admitted (durably logged and applied).
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Commit groups executed. `submitted / groups` is the mean group
    /// size — the fsync amortization factor under group commit.
    pub fn groups(&self) -> u64 {
        self.groups.load(Ordering::Relaxed)
    }

    /// `Query`/`Version` requests answered from a published snapshot.
    pub fn snapshot_reads(&self) -> u64 {
        self.snapshot_reads.load(Ordering::Relaxed)
    }

    /// `Submit` requests refused with [`ServerResponse::Busy`] because
    /// the admission queue was at capacity.
    pub fn busy_rejections(&self) -> u64 {
        self.busy_rejections.load(Ordering::Relaxed)
    }
}

/// One client's submission, queued for the admit thread.
struct Job {
    updates: Vec<Update>,
    reply: Sender<Result<Vec<AdmitResult>, Rejection>>,
}

/// State shared by every connection worker.
struct Shared {
    jobs: SyncSender<Job>,
    queue_depth: u32,
    snapshot: Arc<RwLock<DatabaseSnapshot>>,
    stats: Arc<ServerStats>,
}

/// Binds `addr` and serves the admission protocol until the returned
/// handle is stopped or dropped. The server takes ownership of the
/// durable manager; after `stop`, re-open the store with
/// [`DurableManager::recover`].
pub fn serve(
    mut mgr: DurableManager,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    if config.certificates {
        mgr.set_certificate_logging(true);
    }
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local_addr = listener.local_addr()?;

    let snapshot = Arc::new(RwLock::new(mgr.database().snapshot()));
    let stats = Arc::new(ServerStats::default());
    let decisions = Arc::new(Mutex::new(Vec::new()));
    let stop = Arc::new(AtomicBool::new(false));
    // A *bounded* queue: when `queue_depth` jobs are already waiting, the
    // connection workers answer `Busy` instead of piling on — admission
    // latency stays bounded and memory cannot grow without limit under a
    // submit storm.
    let queue_depth = config.queue_depth.max(1);
    let (job_tx, job_rx) = std::sync::mpsc::sync_channel::<Job>(queue_depth);

    let admit = {
        let snapshot = Arc::clone(&snapshot);
        let stats = Arc::clone(&stats);
        let decisions = Arc::clone(&decisions);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            admit_loop(mgr, job_rx, config, snapshot, stats, decisions, stop)
        })
    };

    let accept = {
        let stop = Arc::clone(&stop);
        let shared = Shared {
            jobs: job_tx,
            queue_depth: queue_depth as u32,
            snapshot: Arc::clone(&snapshot),
            stats: Arc::clone(&stats),
        };
        let shared = Arc::new(shared);
        std::thread::spawn(move || {
            let mut workers: Vec<JoinHandle<()>> = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        stream.set_nodelay(true).ok();
                        // Short read timeout so workers notice the stop
                        // flag even on idle connections.
                        stream
                            .set_read_timeout(Some(Duration::from_millis(50)))
                            .ok();
                        let shared = Arc::clone(&shared);
                        let stop = Arc::clone(&stop);
                        workers.push(std::thread::spawn(move || {
                            serve_connection(shared, stream, stop)
                        }));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
            for w in workers {
                w.join().ok();
            }
        })
    };

    Ok(ServerHandle {
        addr: local_addr,
        stop_flag: stop,
        join: Mutex::new(Some((accept, admit))),
        stats,
        decisions,
    })
}

/// The single thread that owns the durable manager: drains commit-group
/// windows off the job queue, commits each as one batch, publishes the
/// post-group snapshot, and acks the waiting clients.
fn admit_loop(
    mut mgr: DurableManager,
    jobs: Receiver<Job>,
    config: ServerConfig,
    snapshot: Arc<RwLock<DatabaseSnapshot>>,
    stats: Arc<ServerStats>,
    decisions: Arc<Mutex<Vec<(Update, bool)>>>,
    stop: Arc<AtomicBool>,
) {
    loop {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        // Block briefly for the first job; the timeout bounds how long a
        // raised stop flag can go unnoticed on an idle queue.
        let first = match jobs.recv_timeout(Duration::from_millis(10)) {
            Ok(job) => job,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        // The commit-group window: everything that queued up while the
        // previous group was busy commits under this group's fsync.
        let mut window = vec![first];
        while let Ok(job) = jobs.try_recv() {
            window.push(job);
        }
        commit_group(&mut mgr, window, &config, &snapshot, &stats, &decisions);
    }
    // Nothing past this point will ever be acked; say so instead of
    // leaving clients blocked on a reply that cannot come.
    while let Ok(job) = jobs.try_recv() {
        job.reply
            .send(Err(Rejection::Error("server stopping".into())))
            .ok();
    }
}

/// Commits one window: a single flattened batch through the durable
/// pipeline, verdicts split back along job boundaries.
fn commit_group(
    mgr: &mut DurableManager,
    window: Vec<Job>,
    config: &ServerConfig,
    snapshot: &RwLock<DatabaseSnapshot>,
    stats: &ServerStats,
    decisions: &Mutex<Vec<(Update, bool)>>,
) {
    // Structural validation against the authoritative state, before
    // anything touches the WAL. `check_updates` passes a wrong-arity or
    // undeclared update straight through (no constraint matches it), but
    // `apply_update` rejects it *after* its record is appended — which
    // would leave a record in the log that recovery cannot replay. A
    // malformed job is refused here, charged to its own client only.
    let mut valid = Vec::with_capacity(window.len());
    for job in window {
        match validate(mgr, config.shard.as_ref(), &job.updates) {
            Ok(()) => valid.push(job),
            Err(m) => {
                job.reply.send(Err(m)).ok();
            }
        }
    }
    let window = valid;
    if window.is_empty() {
        return;
    }

    let flat: Vec<Update> = window
        .iter()
        .flat_map(|j| j.updates.iter().cloned())
        .collect();
    let result = if config.group_commit {
        mgr.process_updates_grouped(&flat)
    } else {
        mgr.process_updates(&flat)
    };
    if result.error.is_some() && result.completed.is_empty() && window.len() > 1 {
        // The flattened batch failed before anything was admitted —
        // typically one job's malformed update failing the upfront check
        // for the whole window. Re-run each job as its own group so the
        // offender's error is not charged to its innocent neighbors.
        for job in window {
            let single = vec![job];
            commit_group(mgr, single, config, snapshot, stats, decisions);
        }
        return;
    }
    // `completed` is the acknowledged prefix: every verdict in it is
    // fsync'd (group mode: under the group's shared sync). Updates past
    // it were never acknowledged and, by the WAL contract, will not
    // survive recovery.
    let verdicts: Vec<AdmitResult> = result
        .completed
        .iter()
        .map(|(report, applied)| AdmitResult {
            admitted: *applied,
            violations: report.violations().iter().map(|s| s.to_string()).collect(),
            unknowns: report.unknowns().iter().map(|s| s.to_string()).collect(),
            certificates: report
                .certificates
                .iter()
                .map(|(name, cert)| (name.clone(), cert.encode()))
                .collect(),
        })
        .collect();
    let failure = Rejection::Error(
        result
            .error
            .map(|e| e.to_string())
            .unwrap_or_else(|| "admission pipeline failed".into()),
    );

    if config.record_decisions {
        let mut log = decisions.lock().expect("decision log lock");
        for (u, v) in flat.iter().zip(&verdicts) {
            log.push((u.clone(), v.admitted));
        }
    }
    stats.groups.fetch_add(1, Ordering::Relaxed);
    stats
        .submitted
        .fetch_add(flat.len() as u64, Ordering::Relaxed);
    stats.admitted.fetch_add(
        verdicts.iter().filter(|v| v.admitted).count() as u64,
        Ordering::Relaxed,
    );

    // Publish the post-group state before acking: a client that sees its
    // ack and immediately queries must find its own write. The previous
    // snapshot is dropped after the lock is released: it is often the
    // last owner of a relation version the group's apply copied, and
    // freeing that takes milliseconds every reader would wait out.
    let fresh = mgr.database().snapshot();
    let stale = std::mem::replace(&mut *snapshot.write().expect("snapshot lock"), fresh);
    drop(stale);

    let mut iter = verdicts.into_iter();
    for job in window {
        let n = job.updates.len();
        let chunk: Vec<AdmitResult> = iter.by_ref().take(n).collect();
        let reply = if chunk.len() == n {
            Ok(chunk)
        } else {
            // This job straddles the failure point; none of its verdicts
            // were fully acknowledged.
            Err(failure.clone())
        };
        job.reply.send(reply).ok();
    }
}

/// Rejects updates the durable pipeline could log but never apply — and,
/// on a shard server, updates another shard owns.
fn validate(
    mgr: &DurableManager,
    shard: Option<&ShardAssignment>,
    updates: &[Update],
) -> Result<(), Rejection> {
    if let Some(assignment) = shard {
        assignment.admissible(updates)?;
    }
    for u in updates {
        match mgr.database().decl(u.pred().as_str()) {
            None => {
                return Err(Rejection::Error(format!(
                    "unknown relation `{}`",
                    u.pred()
                )))
            }
            Some(decl) if decl.arity != u.tuple().arity() => {
                return Err(Rejection::Error(format!(
                    "arity mismatch for `{}`: declared {}, got {}",
                    u.pred(),
                    decl.arity,
                    u.tuple().arity()
                )))
            }
            Some(_) => {}
        }
    }
    Ok(())
}

fn serve_connection(shared: Arc<Shared>, mut stream: TcpStream, stop: Arc<AtomicBool>) {
    loop {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        match read_frame(&mut stream) {
            Ok(Some(frame)) => {
                let reply = handle_frame(&shared, &frame);
                if write_frame(&mut stream, &reply).is_err() {
                    return;
                }
            }
            Ok(None) => return, // clean hang-up
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue; // idle; re-check the stop flag
            }
            Err(_) => return,
        }
    }
}

/// Answers one request batch. Malformed frames yield a single
/// [`ServerResponse::BadFrame`] under nonce 0 (the real nonce is inside
/// the unverifiable seal) rather than killing the connection.
fn handle_frame(shared: &Shared, frame: &[u8]) -> Vec<u8> {
    match proto::decode_requests(frame) {
        Ok((nonce, reqs)) => {
            let resps: Vec<ServerResponse> = reqs.iter().map(|r| answer(shared, r)).collect();
            proto::encode_responses(nonce, &resps)
        }
        Err(e) => proto::encode_responses(
            0,
            &[ServerResponse::BadFrame {
                message: format!("bad request frame: {e}"),
            }],
        ),
    }
}

fn answer(shared: &Shared, req: &ServerRequest) -> ServerResponse {
    match req {
        ServerRequest::Ping => ServerResponse::Pong,
        ServerRequest::Version => {
            shared.stats.snapshot_reads.fetch_add(1, Ordering::Relaxed);
            let snap = shared.snapshot.read().expect("snapshot lock");
            ServerResponse::Version {
                version: snap.version(),
            }
        }
        ServerRequest::Query { pred } => {
            shared.stats.snapshot_reads.fetch_add(1, Ordering::Relaxed);
            // Clone the Arc-pinned snapshot out of the lock (O(1)) so the
            // scan itself never holds the publication lock.
            let snap = shared.snapshot.read().expect("snapshot lock").clone();
            match snap.relation(pred) {
                Some(rel) => ServerResponse::Rows {
                    pred: pred.clone(),
                    version: snap.version(),
                    rows: rel.iter().cloned().collect(),
                },
                None => ServerResponse::Error {
                    message: format!("unknown relation `{pred}`"),
                },
            }
        }
        ServerRequest::Submit { updates } => {
            let (tx, rx) = std::sync::mpsc::channel();
            let job = Job {
                updates: updates.clone(),
                reply: tx,
            };
            // `try_send` so a full queue refuses immediately: the job is
            // returned to us untouched, which is what makes the `Busy`
            // reply an honest "nothing happened, resend freely".
            match shared.jobs.try_send(job) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) => {
                    shared.stats.busy_rejections.fetch_add(1, Ordering::Relaxed);
                    return ServerResponse::Busy {
                        depth: shared.queue_depth,
                    };
                }
                Err(TrySendError::Disconnected(_)) => {
                    return ServerResponse::Error {
                        message: "admission pipeline is down".into(),
                    };
                }
            }
            match rx.recv() {
                Ok(Ok(results)) => ServerResponse::Admitted { results },
                Ok(Err(Rejection::Error(message))) => ServerResponse::Error { message },
                Ok(Err(Rejection::WrongShard {
                    owner,
                    epoch,
                    message,
                })) => ServerResponse::WrongShard {
                    owner,
                    epoch,
                    message,
                },
                // The admit thread dropped our reply sender (shutdown
                // mid-flight): nothing was acknowledged.
                Err(_) => ServerResponse::Error {
                    message: "admission pipeline dropped the request".into(),
                },
            }
        }
    }
}

/// A running admission server. Stopping (or dropping) it shuts down the
/// accept loop, every connection worker, and the admit thread, releasing
/// the durable store directory for [`DurableManager::recover`].
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    stop_flag: Arc<AtomicBool>,
    // The join handles sit behind a mutex so concurrent `stop` calls (or
    // a `stop`/drop race) serialize: exactly one caller joins, the rest
    // wait on the lock until the winner is done.
    join: Mutex<Option<(JoinHandle<()>, JoinHandle<()>)>>,
    stats: Arc<ServerStats>,
    decisions: Arc<Mutex<Vec<(Update, bool)>>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Shared handle to the cumulative counters.
    pub fn stats(&self) -> Arc<ServerStats> {
        Arc::clone(&self.stats)
    }

    /// The `(update, admitted)` decisions in admission order, if
    /// [`ServerConfig::record_decisions`] was on. A single-threaded
    /// [`DurableManager`] replaying exactly these updates must reach
    /// exactly these verdicts — the benchmark's soundness twin asserts
    /// it.
    pub fn decisions(&self) -> Vec<(Update, bool)> {
        self.decisions.lock().expect("decision log lock").clone()
    }

    /// Signals shutdown and waits for every server thread to exit.
    /// Idempotent and safe to race: any number of concurrent calls
    /// (including the implicit one in `Drop`) all return only after the
    /// server is fully down.
    pub fn stop(&self) {
        self.stop_flag.store(true, Ordering::Relaxed);
        // Taking the handles under the lock decides the single joiner;
        // holding the lock across the joins makes the losers *wait* for
        // the shutdown rather than merely skip it.
        let mut slot = self.join.lock().expect("server join lock");
        if let Some((accept, admit)) = slot.take() {
            accept.join().ok();
            admit.join().ok();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{AdmissionClient, ClientError};
    use ccpi_storage::wal::scratch_dir;
    use ccpi_storage::{tuple, Database, Locality};

    fn emp_db() -> Database {
        let mut db = Database::new();
        db.declare("emp", 3, Locality::Local).unwrap();
        db.declare("dept", 1, Locality::Local).unwrap();
        db.insert("dept", tuple!["sales"]).unwrap();
        db.insert("dept", tuple!["toys"]).unwrap();
        db.insert("emp", tuple!["ann", "sales", 80]).unwrap();
        db
    }

    fn build_store(dir: &std::path::Path) -> DurableManager {
        let mut mgr = DurableManager::create(dir, emp_db()).unwrap();
        mgr.add_constraint("referential", "panic :- emp(E,D,S) & not dept(D).")
            .unwrap();
        mgr.add_constraint("floor", "panic :- emp(E,D,S) & S < 10.")
            .unwrap();
        mgr
    }

    #[test]
    fn end_to_end_submit_query_version() {
        let dir = scratch_dir("server-e2e");
        let server = serve(build_store(&dir), "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut client = AdmissionClient::connect(server.addr());

        client.ping().unwrap();
        let v0 = client.version().unwrap();

        let results = client
            .submit(&[
                Update::insert("emp", tuple!["bob", "toys", 50]),
                Update::insert("emp", tuple!["eve", "ghost", 50]),
            ])
            .unwrap();
        assert!(results[0].admitted);
        assert!(!results[1].admitted, "dangling dept must be rejected");
        assert_eq!(results[1].violations, vec!["referential".to_string()]);

        // The admitting client's own write is visible to its next read.
        let (v1, rows) = client.query("emp").unwrap();
        assert!(v1 > v0, "snapshot version must advance past {v0}");
        assert!(rows.contains(&tuple!["bob", "toys", 50]));
        assert!(!rows.iter().any(|t| t == &tuple!["eve", "ghost", 50]));

        let err = client.query("nope").unwrap_err();
        assert!(matches!(err, ClientError::Server(_)), "{err:?}");

        let stats = server.stats();
        assert_eq!(stats.submitted(), 2);
        assert_eq!(stats.admitted(), 1);
        assert!(stats.groups() >= 1);
        assert!(stats.snapshot_reads() >= 3);

        server.stop();
        // The store is durable: the admitted update survives recovery,
        // the rejected one never entered the WAL.
        let (rec, _) = DurableManager::recover(&dir).unwrap();
        assert!(rec
            .database()
            .relation("emp")
            .unwrap()
            .contains(&tuple!["bob", "toys", 50]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn jointly_violating_concurrent_submissions_never_both_admit() {
        // Two clients race updates that are each clean alone but violate
        // together: deleting the last `dept` row while inserting an `emp`
        // row that references it. The serialized admit stage must reject
        // at least one, every round, whichever order they arrive in.
        for round in 0..5 {
            let dir = scratch_dir(&format!("server-joint-{round}"));
            let server = serve(build_store(&dir), "127.0.0.1:0", ServerConfig::default()).unwrap();
            let addr = server.addr();

            let barrier = Arc::new(std::sync::Barrier::new(2));
            let spawn = |update: Update, barrier: Arc<std::sync::Barrier>| {
                std::thread::spawn(move || {
                    let mut client = AdmissionClient::connect(addr);
                    barrier.wait();
                    client.submit(&[update]).unwrap().remove(0)
                })
            };
            let a = spawn(
                Update::insert("emp", tuple!["bob", "toys", 50]),
                Arc::clone(&barrier),
            );
            let b = spawn(Update::delete("dept", tuple!["toys"]), barrier);
            let ra = a.join().unwrap();
            let rb = b.join().unwrap();
            assert!(
                !(ra.admitted && rb.admitted),
                "round {round}: jointly-violating updates both admitted"
            );

            // And the surviving state actually satisfies the constraint.
            let mut client = AdmissionClient::connect(addr);
            let (_, emps) = client.query("emp").unwrap();
            let (_, depts) = client.query("dept").unwrap();
            let toys_emp = emps.iter().any(|t| t == &tuple!["bob", "toys", 50]);
            let toys_dept = depts.contains(&tuple!["toys"]);
            assert!(
                !toys_emp || toys_dept,
                "round {round}: dangling reference admitted"
            );
            server.stop();
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn malformed_frame_gets_bad_frame_under_nonce_zero() {
        let dir = scratch_dir("server-badframe");
        let server = serve(build_store(&dir), "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write_frame(&mut stream, &[0xff; 9]).unwrap();
        let reply = read_frame(&mut stream).unwrap().unwrap();
        let (nonce, resps) = proto::decode_responses(&reply).unwrap();
        assert_eq!(nonce, 0, "an unverifiable nonce must not be echoed");
        assert!(matches!(&resps[0], ServerResponse::BadFrame { .. }));

        // The connection survives: an honest exchange still works.
        let frame = proto::encode_requests(3, &[ServerRequest::Ping]);
        write_frame(&mut stream, &frame).unwrap();
        let reply = read_frame(&mut stream).unwrap().unwrap();
        let (nonce, resps) = proto::decode_responses(&reply).unwrap();
        assert_eq!(nonce, 3);
        assert_eq!(resps, vec![ServerResponse::Pong]);
        server.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn per_update_fsync_mode_reaches_the_same_verdicts() {
        let dir = scratch_dir("server-perupdate");
        let config = ServerConfig {
            group_commit: false,
            record_decisions: true,
            ..ServerConfig::default()
        };
        let server = serve(build_store(&dir), "127.0.0.1:0", config).unwrap();
        let mut client = AdmissionClient::connect(server.addr());
        let results = client
            .submit(&[
                Update::insert("emp", tuple!["bob", "toys", 50]),
                Update::insert("emp", tuple!["low", "toys", 5]),
            ])
            .unwrap();
        assert!(results[0].admitted);
        assert!(!results[1].admitted);
        assert_eq!(
            server.decisions(),
            vec![
                (Update::insert("emp", tuple!["bob", "toys", 50]), true),
                (Update::insert("emp", tuple!["low", "toys", 5]), false),
            ]
        );
        server.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Churn through a deliberately tiny admission queue: many clients
    /// submitting concurrently against `queue_depth: 1`. Busy refusals
    /// are expected and handled by the client backoff; the invariant is
    /// that *every* batch eventually lands exactly once and the final
    /// state contains every row.
    #[test]
    fn tiny_queue_backpressure_churn() {
        let dir = scratch_dir("server-backpressure");
        let config = ServerConfig {
            queue_depth: 1,
            ..ServerConfig::default()
        };
        let server = serve(build_store(&dir), "127.0.0.1:0", config).unwrap();
        let addr = server.addr();

        const CLIENTS: usize = 6;
        const PER_CLIENT: usize = 5;
        let barrier = Arc::new(std::sync::Barrier::new(CLIENTS));
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut client = AdmissionClient::connect(addr);
                    barrier.wait();
                    for k in 0..PER_CLIENT {
                        let upd = Update::insert(
                            "emp",
                            tuple![format!("w{c}x{k}"), "sales", 20 + k as i64],
                        );
                        let results = client
                            .submit_with_backoff(&[upd], 64, Duration::from_millis(1))
                            .unwrap();
                        assert!(results[0].admitted, "clean insert w{c}x{k} refused");
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }

        let mut client = AdmissionClient::connect(addr);
        let (_, rows) = client.query("emp").unwrap();
        for c in 0..CLIENTS {
            for k in 0..PER_CLIENT {
                assert!(
                    rows.contains(&tuple![format!("w{c}x{k}"), "sales", 20 + k as i64]),
                    "w{c}x{k} missing after churn"
                );
            }
        }
        let stats = server.stats();
        assert_eq!(
            stats.submitted(),
            (CLIENTS * PER_CLIENT) as u64,
            "every batch must be judged exactly once (Busy refusals are not submissions)"
        );
        server.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Two shard servers, each owning its own durable WAL over its own
    /// fragment: a correctly-routed update is admitted; a mis-routed one
    /// is refused before the WAL, with an error naming the true owner.
    #[test]
    fn shard_servers_refuse_misrouted_updates() {
        let parts = Partitioning::new(2).hash("emp", 1).hash("dept", 0);
        // Find two dept keys owned by different shards.
        let mut key_for = [None::<i64>; 2];
        for d in 0.. {
            let k = parts.owner("dept", &tuple![d]).unwrap();
            if key_for[k].is_none() {
                key_for[k] = Some(d);
                if key_for.iter().all(Option::is_some) {
                    break;
                }
            }
        }
        let keys = [key_for[0].unwrap(), key_for[1].unwrap()];

        let mut servers = Vec::new();
        let mut dirs = Vec::new();
        for (shard, &key) in keys.iter().enumerate() {
            let mut db = Database::new();
            db.declare("emp", 3, Locality::Local).unwrap();
            db.declare("dept", 1, Locality::Local).unwrap();
            // Each store holds only its fragment's dept rows.
            db.insert("dept", tuple![key]).unwrap();
            let dir = scratch_dir(&format!("server-shard-{shard}"));
            let mut mgr = DurableManager::create(&dir, db).unwrap();
            mgr.add_constraint("referential", "panic :- emp(E,D,S) & not dept(D).")
                .unwrap();
            let config = ServerConfig {
                shard: Some(ShardAssignment {
                    parts: parts.clone(),
                    shard,
                }),
                ..ServerConfig::default()
            };
            servers.push(serve(mgr, "127.0.0.1:0", config).unwrap());
            dirs.push(dir);
        }

        for shard in 0..2usize {
            let mut client = AdmissionClient::connect(servers[shard].addr());
            // Routed to its owner: admitted against the fragment.
            let own = Update::insert("emp", tuple![format!("w{shard}"), keys[shard], 50]);
            let results = client.submit(std::slice::from_ref(&own)).unwrap();
            assert!(
                results[0].admitted,
                "routed update refused on shard {shard}"
            );

            // Mis-routed: refused with the owner and epoch named, nothing
            // logged — a structured redirect, not a terminal error.
            let other = Update::insert("emp", tuple!["stray", keys[1 - shard], 50]);
            let err = client.submit(&[other]).unwrap_err();
            match err {
                ClientError::WrongShard {
                    owner,
                    epoch,
                    ref message,
                } => {
                    assert_eq!(owner as usize, 1 - shard, "redirect must name the owner");
                    assert_eq!(epoch, parts.epoch(), "redirect must carry the epoch");
                    assert!(
                        message.contains(&format!("belongs to shard {}", 1 - shard)),
                        "error must name the owner: {message}"
                    );
                }
                other => panic!("expected a wrong-shard redirect, got {other:?}"),
            }
        }

        for (server, dir) in servers.into_iter().zip(dirs) {
            server.stop();
            // Only the routed update survives in each shard's WAL.
            let (rec, _) = DurableManager::recover(&dir).unwrap();
            assert_eq!(rec.database().relation("emp").unwrap().len(), 1);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// With [`ServerConfig::certificates`] on, every definite verdict
    /// ships proof-carrying certificates. The client re-verifies them
    /// with the standalone `ccpi-audit` checker against its own replica
    /// of the store — built from the constraint *sources* alone, never
    /// the server's solver or join plans — so an admitted update is
    /// believed because its proof checks, not because the engine said so.
    #[test]
    fn clients_verify_server_issued_certificates() {
        use ccpi::prelude::parse_constraint;
        use ccpi_audit::{Auditor, Certificate, Verdict};

        let dir = scratch_dir("server-certs");
        let config = ServerConfig {
            certificates: true,
            ..ServerConfig::default()
        };
        let server = serve(build_store(&dir), "127.0.0.1:0", config).unwrap();
        let mut client = AdmissionClient::connect(server.addr());

        let updates = [
            Update::insert("emp", tuple!["bob", "toys", 50]),
            Update::insert("emp", tuple!["low", "toys", 5]),
        ];
        let results = client.submit(&updates).unwrap();
        assert!(results[0].admitted);
        assert!(!results[1].admitted, "floor violation must be rejected");

        // The client's trusted side: a replica of the initial store plus
        // an auditor over the published constraint sources.
        let mut replica = emp_db();
        let mut auditor = Auditor::new();
        auditor.register(
            "referential",
            parse_constraint("panic :- emp(E,D,S) & not dept(D).").unwrap(),
        );
        auditor.register(
            "floor",
            parse_constraint("panic :- emp(E,D,S) & S < 10.").unwrap(),
        );

        // Replay the batch against the replica: an admitted update's
        // certificates bind the evolving state it was (re-)judged on; a
        // rejected update was refused at the batch's base check, so its
        // proofs bind the pre-batch state.
        let base = replica.clone();
        for (update, result) in updates.iter().zip(&results) {
            let judged_on = if result.admitted { &replica } else { &base };
            assert!(
                !result.certificates.is_empty(),
                "a certificate-mode verdict must carry proofs"
            );
            for (name, bytes) in &result.certificates {
                let cert = Certificate::decode(bytes).expect("wire-clean certificate");
                assert_eq!(&cert.constraint, name);
                assert_eq!(
                    &cert.update, update,
                    "certificate must bind the update it judged"
                );
                let verdict = auditor
                    .verify_lenient(&cert, judged_on)
                    .unwrap_or_else(|rej| panic!("certificate for `{name}` rejected: {rej}"));
                assert_eq!(
                    verdict.holds(),
                    result.admitted || *name != "floor",
                    "auditor and engine disagree on `{name}`"
                );
            }
            if result.admitted {
                replica.apply(update).unwrap();
            }
        }

        // The rejected update's floor certificate is a *violation* proof:
        // a witness tuple assignment the auditor re-evaluates.
        let floor = results[1]
            .certificates
            .iter()
            .find(|(n, _)| n == "floor")
            .map(|(_, b)| Certificate::decode(b).unwrap())
            .expect("the violated constraint must be certified");
        assert_eq!(
            auditor.verify_lenient(&floor, &base).unwrap(),
            Verdict::Violated
        );

        // Tampering is caught client-side: flip a byte, decoding fails.
        let (_, bytes) = &results[1].certificates[0];
        let mut forged = bytes.clone();
        let mid = forged.len() / 2;
        forged[mid] ^= 0x40;
        assert!(
            Certificate::decode(&forged).is_err(),
            "a bit-flipped certificate must not decode"
        );

        server.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Certificates are strictly opt-in: the default configuration puts
    /// no proof bytes on the wire.
    #[test]
    fn default_config_ships_no_certificates() {
        let dir = scratch_dir("server-nocerts");
        let server = serve(build_store(&dir), "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut client = AdmissionClient::connect(server.addr());
        let results = client
            .submit(&[Update::insert("emp", tuple!["bob", "toys", 50])])
            .unwrap();
        assert!(results[0].admitted);
        assert!(results[0].certificates.is_empty());
        server.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stop_is_idempotent_under_concurrent_callers() {
        let dir = scratch_dir("server-stop");
        let server =
            Arc::new(serve(build_store(&dir), "127.0.0.1:0", ServerConfig::default()).unwrap());
        let addr = server.addr();

        // Hammer connect/disconnect cycles while the server goes down.
        let hammer = std::thread::spawn(move || {
            for _ in 0..50 {
                if let Ok(s) = TcpStream::connect(addr) {
                    drop(s);
                }
            }
        });

        let s2 = Arc::clone(&server);
        let racer = std::thread::spawn(move || s2.stop());
        server.stop();
        racer.join().unwrap();
        server.stop();
        hammer.join().unwrap();
        drop(server);
        // The store directory is released: recovery opens it cleanly.
        let (_, report) = DurableManager::recover(&dir).unwrap();
        assert_eq!(report.dropped_bytes, 0, "no torn WAL tail after stop");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
