//! The traced run (`--trace 1`): where an ack's time goes, layer by layer.
//!
//! Every number is taken from outside the program — by timing calls into
//! public functions or reading values they return:
//!
//! 1. a single-client **probe** over TCP gives the uncontended mean ack and
//!    the exact per-admit WAL counts;
//! 2. a short **loaded window** gives the commit-group size under load;
//! 3. the **traced replay** performs the same generated requests
//!    single-threaded and in-process, in the order the server performs them
//!    (encode → wire → decode → `process_updates_grouped` → verdicts →
//!    snapshot publish → encode → wire → decode), with a span around each
//!    call; a second pass has a lock-step twin `ConstraintManager` repeat
//!    the checks the durable manager made inside `process_updates_grouped`,
//!    so they can be timed and their stage reports read without the twin's
//!    memory traffic disturbing the first pass;
//! 4. every third replayed request runs with tracing off, which prices the
//!    tracing against its neighbours;
//! 5. micro-measurements price `Database::apply`, the WAL writer and WAL
//!    replay on the workload's own data.

use crate::harness::{judge, micros, CertChecker, Oracle, Store};
use crate::json::Json;
use crate::run::{drive, Config, Measured, Output};
use crate::stats::mean;
use crate::trace::{SpanId, Tracer};
use crate::workload::{base_db, ClientStream, Request, Spec, CONSTRAINTS};
use ccpi::durable::DurableManager;
use ccpi::report::{LocalTestKind, Method, Stage4Kind, StageTimes};
use ccpi::{CheckReport, ConstraintManager};
use ccpi_server::proto::{
    decode_requests, decode_responses, encode_requests, encode_responses, AdmitResult,
    ServerRequest, ServerResponse,
};
use ccpi_server::ClientError;
use ccpi_site::transport::{read_frame, write_frame};
use ccpi_storage::wal::{read_checkpoint, replay_wal, DiskGuard, WalRecord, WalWriter, WAL_FILE};
use ccpi_storage::{tuple, Database, DatabaseSnapshot, Partitioning, Update};
use std::collections::BTreeMap;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::Instant;

/// Spans that make up the service time of a request (everything between
/// `submit` and its return except the wire).
const SERVICE_SPANS: [&str; 8] = [
    "server.proto.encode_req",
    "storage.partition.route",
    "server.proto.decode_req",
    "core.durable.process_grouped",
    "server.service.results",
    "storage.database.snapshot",
    "server.proto.encode_resp",
    "server.proto.decode_resp",
];

/// A loopback peer that answers each frame with a frame of the length the
/// request's first four bytes name: the wire cost of an exchange of the
/// real frame sizes, with nothing behind it.
struct EchoPeer {
    stream: TcpStream,
    peer: Option<std::thread::JoinHandle<()>>,
    request: Vec<u8>,
}

impl EchoPeer {
    fn start() -> std::io::Result<EchoPeer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let peer = std::thread::spawn(move || {
            let Ok((mut stream, _)) = listener.accept() else {
                return;
            };
            stream.set_nodelay(true).ok();
            while let Ok(Some(frame)) = read_frame(&mut stream) {
                let wanted = frame
                    .get(..4)
                    .map_or(0, |b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]));
                if write_frame(&mut stream, &vec![0u8; wanted as usize]).is_err() {
                    return;
                }
            }
        });
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(EchoPeer {
            stream,
            peer: Some(peer),
            request: Vec::new(),
        })
    }

    fn prepare(&mut self, request_len: usize, response_len: usize) {
        self.request.clear();
        self.request.resize(request_len.max(4), 0);
        self.request[..4].copy_from_slice(&(response_len as u32).to_le_bytes());
    }

    fn round_trip(&mut self) -> std::io::Result<()> {
        write_frame(&mut self.stream, &self.request)?;
        read_frame(&mut self.stream).map(|_| ())
    }
}

impl Drop for EchoPeer {
    fn drop(&mut self) {
        // Hanging up ends the peer's read loop.
        self.stream.shutdown(std::net::Shutdown::Both).ok();
        if let Some(peer) = self.peer.take() {
            peer.join().ok();
        }
    }
}

/// Consecutive updates with the same owner go out as one exchange, as
/// `FleetClient::submit` sends them. `timed` wraps each routing decision
/// (one `owners` call for the client, one for the owner's admission).
fn runs_by_owner(
    spec: &Spec,
    parts: &Partitioning,
    req: &Request,
    mut timed: impl FnMut(&mut dyn FnMut() -> usize) -> usize,
) -> Vec<(usize, Request)> {
    if spec.shards == 1 {
        return vec![(0, req.clone())];
    }
    let mut runs: Vec<(usize, Request)> = Vec::new();
    for (update, expect) in req.updates.iter().zip(&req.expect) {
        let owner = timed(&mut || {
            parts.owners(update.pred().as_str(), update.tuple());
            parts.owners(update.pred().as_str(), update.tuple())[0]
        });
        match runs.last_mut() {
            Some((shard, run)) if *shard == owner => {
                run.updates.push(update.clone());
                run.expect.push(*expect);
            }
            _ => runs.push((
                owner,
                Request {
                    updates: vec![update.clone()],
                    expect: vec![*expect],
                },
            )),
        }
    }
    runs
}

/// One shard's in-process stand-in for its server: the durable manager and
/// the snapshot the server would have published.
struct Replica {
    mgr: DurableManager,
    published: DatabaseSnapshot,
}

/// The verdicts the server builds from a commit group's reports.
fn admit_results(completed: &[(CheckReport, bool)]) -> Vec<AdmitResult> {
    completed
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
        .collect()
}

/// Every third request is replayed with tracing off, so the price of the
/// spans is the difference between neighbours in one pass, not between
/// two passes that found the allocator and the page cache differently.
fn traced_request(r: usize) -> bool {
    r % 3 != 2
}

/// What the service pass hands the check pass, per request and exchange.
struct Exchange {
    shard: usize,
    run: Request,
    /// The `process_updates_grouped` span the twin's checks belong under.
    grouped: SpanId,
    admitted: Vec<bool>,
}

struct ServiceReplay {
    exchanges: Vec<Vec<Exchange>>,
    traced_requests: usize,
    /// Mean wall time of a traced / an untraced request, µs.
    traced_us: f64,
    untraced_us: f64,
    request_bytes: u64,
    response_bytes: u64,
    certs: Option<CertChecker>,
    oracle: Oracle,
}

/// Pass 1: `requests` requests of client 0's stream, performed in-process
/// in the order the server performs them, against fresh stores under
/// `scratch`.
fn replay_service(
    spec: &Spec,
    seed: u64,
    requests: usize,
    scratch: &Path,
    tracer: &mut Tracer,
) -> Result<ServiceReplay, String> {
    let base = base_db(spec, seed);
    let parts = spec.partitioning();
    let mut replicas = Vec::with_capacity(spec.shards);
    for (shard, fragment) in spec.fragments(&base)?.into_iter().enumerate() {
        let dir = scratch.join(format!("replay{shard}"));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
        }
        let mut mgr = DurableManager::create(&dir, fragment).map_err(|e| e.to_string())?;
        for (name, source) in CONSTRAINTS {
            mgr.add_constraint(name, source)
                .map_err(|e| e.to_string())?;
        }
        // What `serve()` does with `ServerConfig::certificates`.
        mgr.set_certificate_logging(spec.batch);
        let published = mgr.database().snapshot();
        replicas.push(Replica { mgr, published });
    }
    let mut echo = EchoPeer::start().map_err(|e| e.to_string())?;
    let mut out = ServiceReplay {
        exchanges: Vec::with_capacity(requests),
        traced_requests: 0,
        traced_us: 0.0,
        untraced_us: 0.0,
        request_bytes: 0,
        response_bytes: 0,
        certs: spec.batch.then(|| CertChecker::new(base)),
        oracle: Oracle::default(),
    };
    let mut stream = ClientStream::new(spec, seed, 0);
    for r in 0..requests {
        let req = stream.next_request();
        let traced = traced_request(r);
        tracer.set_on(traced);
        let started = Instant::now();
        let root = tracer.begin_request(r);
        let mut exchanges = Vec::new();
        let mut audit_us = 0.0;
        let runs = runs_by_owner(spec, &parts, &req, |route| {
            tracer.time("storage.partition.route", route)
        });
        for (shard, run) in runs {
            let replica = &mut replicas[shard];
            let nonce = r as u64 + 1;

            let frame = tracer.time("server.proto.encode_req", || {
                let updates = run.updates.clone();
                encode_requests(nonce, &[ServerRequest::Submit { updates }])
            });
            let decoded = tracer.time("server.proto.decode_req", || decode_requests(&frame));
            let updates = match decoded {
                Ok((_, mut reqs)) => match reqs.pop() {
                    Some(ServerRequest::Submit { updates }) => updates,
                    other => return Err(format!("request frame decoded to {other:?}")),
                },
                Err(e) => return Err(format!("request frame does not decode: {e}")),
            };

            let grouped = tracer.enter("core.durable.process_grouped");
            let result = replica.mgr.process_updates_grouped(&updates);
            tracer.exit(grouped);
            if let Some(e) = result.error {
                return Err(format!("process_updates_grouped: {e}"));
            }
            let admitted = result
                .completed
                .iter()
                .map(|(_, applied)| *applied)
                .collect();
            let results = tracer.time("server.service.results", || {
                admit_results(&result.completed)
            });
            tracer.time("storage.database.snapshot", || {
                replica.published = replica.mgr.database().snapshot();
            });
            let reply = tracer.time("server.proto.encode_resp", || {
                encode_responses(nonce, &[ServerResponse::Admitted { results }])
            });
            echo.prepare(frame.len(), reply.len());
            tracer
                .time("site.transport.rtt", || echo.round_trip())
                .map_err(|e| format!("echo peer: {e}"))?;
            let answered = tracer.time("server.proto.decode_resp", || decode_responses(&reply));
            let outcome = match answered {
                Ok((_, mut resps)) => match resps.pop() {
                    Some(ServerResponse::Admitted { results }) => Ok(results),
                    other => Err(ClientError::Protocol(format!("unexpected reply {other:?}"))),
                },
                Err(e) => Err(ClientError::Protocol(e.to_string())),
            };
            if traced {
                out.request_bytes += frame.len() as u64;
                out.response_bytes += reply.len() as u64;
            }

            // The client's own work after the ack: outside the request's wall
            // time, as it is outside the measured ack.
            let auditing = Instant::now();
            let mut problems = judge(&run, &outcome);
            if let (Some(checker), Ok(results)) = (out.certs.as_mut(), &outcome) {
                tracer.time("audit.verify", || {
                    checker.verify(&run, results, &mut problems)
                });
            }
            problems.into_iter().for_each(|p| out.oracle.record(p));
            audit_us += micros(auditing);
            exchanges.push(Exchange {
                shard,
                run,
                grouped,
                admitted,
            });
        }
        tracer.exit(root);
        let wall_us = micros(started) - audit_us;
        if traced {
            out.traced_requests += 1;
            out.traced_us += wall_us;
        } else {
            out.untraced_us += wall_us;
        }
        out.exchanges.push(exchanges);
    }
    out.traced_us /= out.traced_requests.max(1) as f64;
    out.untraced_us /= (requests - out.traced_requests).max(1) as f64;
    Ok(out)
}

/// What the twin's reports add up to over a replay.
#[derive(Default)]
struct CheckTotals {
    stage: StageTimes,
    /// Final `(update, constraint)` outcomes by how they were settled.
    settled: BTreeMap<&'static str, u64>,
    outcomes: u64,
    stage4: BTreeMap<&'static str, u64>,
    updates: u64,
}

impl CheckTotals {
    /// A check that ran (pre-state batch check or re-judgment): its time
    /// and stage-4 work count whether or not its verdict was final.
    fn ran(&mut self, report: &CheckReport) {
        self.stage.absorb(&report.stage_times);
        for (kind, n) in report.stage4_histogram() {
            let name = match kind {
                Stage4Kind::FullSnapshot => "full_snapshot",
                Stage4Kind::DeltaSeeded => "delta_seeded",
                Stage4Kind::CachedVerdict => "cached",
            };
            *self.stage4.entry(name).or_default() += n as u64;
        }
    }

    /// The report an update's verdict was taken from.
    fn settled(&mut self, report: &CheckReport) {
        self.updates += 1;
        self.outcomes += report.outcomes.len() as u64;
        for (method, n) in report.method_histogram() {
            let name = match method {
                Method::Subsumed => "subsumed",
                Method::IndependentOfUpdate => "independent",
                Method::PreTest => "pretest",
                Method::LocalTest(
                    LocalTestKind::RaPlan | LocalTestKind::Interval | LocalTestKind::Containment,
                ) => "local_test",
                Method::FullCheck => "full_check",
            };
            *self.settled.entry(name).or_default() += n as u64;
        }
        *self.settled.entry("unknown").or_default() += report.unknowns().len() as u64;
        *self.settled.entry("violated").or_default() += report.violations().len() as u64;
    }

    fn share(&self, name: &str) -> f64 {
        self.settled.get(name).copied().unwrap_or(0) as f64 / self.outcomes.max(1) as f64
    }
}

struct CheckReplay {
    checks: CheckTotals,
    /// Per request, the records its admitted updates put in the WAL.
    wal_records: Vec<Vec<WalRecord>>,
    oracle: Oracle,
}

/// Pass 2: a lock-step twin `ConstraintManager` per shard repeats, on the
/// same requests, the checks `process_updates_grouped` made in pass 1 —
/// the whole batch against the pre-state, then every clean update again
/// once an earlier admission has moved the state — so they can be timed
/// and their stage reports read. The reports `process_updates_grouped`
/// returns are the pre-state ones only; the re-judgments are where an
/// insert after an applied delete pays.
fn replay_checks(
    spec: &Spec,
    seed: u64,
    service: &ServiceReplay,
    tracer: &mut Tracer,
) -> Result<CheckReplay, String> {
    let base = base_db(spec, seed);
    let mut twins = Vec::with_capacity(spec.shards);
    for fragment in spec.fragments(&base)? {
        let mut twin = ConstraintManager::new(fragment);
        for (name, source) in CONSTRAINTS {
            twin.add_constraint(name, source)
                .map_err(|e| e.to_string())?;
        }
        twin.set_certificates(spec.batch);
        twins.push(twin);
    }
    let mut out = CheckReplay {
        checks: CheckTotals::default(),
        wal_records: Vec::with_capacity(service.exchanges.len()),
        oracle: Oracle::default(),
    };
    let mut seq = 1u64;
    for (r, exchanges) in service.exchanges.iter().enumerate() {
        tracer.set_on(traced_request(r));
        tracer.set_request(r);
        let mut records = Vec::new();
        for Exchange {
            shard,
            run,
            grouped,
            admitted,
        } in exchanges
        {
            let twin = &mut twins[*shard];
            let reports = tracer
                .time_twin("core.manager.check", *grouped, || {
                    twin.check_updates(&run.updates)
                })
                .map_err(|e| format!("twin check: {e}"))?;
            let mut dirty = false;
            for ((update, report), served) in run.updates.iter().zip(reports).zip(admitted) {
                out.checks.ran(&report);
                let mut verdict = report;
                if verdict.all_hold() && dirty {
                    verdict = tracer
                        .time_twin("core.manager.check", *grouped, || twin.check_update(update))
                        .map_err(|e| format!("twin re-check: {e}"))?;
                    out.checks.ran(&verdict);
                }
                out.checks.settled(&verdict);
                let admit = verdict.all_hold();
                out.oracle.check(admit == *served, || {
                    format!("{update}: twin admits={admit}, the store answered {served}")
                });
                if admit {
                    twin.apply_update(update).map_err(|e| e.to_string())?;
                    dirty = true;
                    let certs = verdict
                        .certificates
                        .iter()
                        .map(|(name, cert)| (name.clone(), cert.encode()))
                        .collect();
                    let update = update.clone();
                    records.push(if spec.batch {
                        WalRecord::ApplyCertified { seq, update, certs }
                    } else {
                        WalRecord::Apply { seq, update }
                    });
                    seq += 1;
                }
            }
        }
        out.wal_records.push(records);
    }
    Ok(out)
}

struct Probe {
    mean_ack_us: f64,
    bytes_per_admit: f64,
    syncs_per_admit: f64,
    redirects: u64,
}

fn wal_bytes(store: &Store) -> u64 {
    store
        .dirs
        .iter()
        .filter_map(|d| std::fs::metadata(d.join(WAL_FILE)).ok())
        .map(|m| m.len())
        .sum()
}

/// `requests` requests of client 0, one at a time over TCP: every commit
/// group is one exchange, so the per-admit counts repeat exactly.
fn probe(
    store: &Store,
    stream: &mut ClientStream,
    requests: usize,
    certs: &mut Option<CertChecker>,
    oracle: &mut Oracle,
) -> Probe {
    let mut submitter = store.submitter();
    let before = (
        store.stat(|s| s.groups()),
        store.stat(|s| s.admitted()),
        wal_bytes(store),
    );
    let mut acks = Vec::with_capacity(requests);
    for _ in 0..requests {
        let req = stream.next_request();
        let started = Instant::now();
        let outcome = submitter.submit(&req.updates);
        acks.push(micros(started));
        let mut problems = judge(&req, &outcome);
        if let (Some(checker), Ok(results)) = (certs.as_mut(), &outcome) {
            checker.verify(&req, results, &mut problems);
        }
        problems.into_iter().for_each(|p| oracle.record(p));
    }
    let admitted = (store.stat(|s| s.admitted()) - before.1).max(1) as f64;
    Probe {
        mean_ack_us: mean(&acks),
        bytes_per_admit: (wal_bytes(store) - before.2) as f64 / admitted,
        syncs_per_admit: (store.stat(|s| s.groups()) - before.0) as f64 / admitted,
        redirects: submitter.redirects(),
    }
}

/// `Database::apply` on the store a server holds: alone, and as the first
/// apply after a snapshot was taken (the copy-on-write copy every commit
/// group pays once the published snapshot pins the previous state).
fn time_apply(fragment: &Database) -> (f64, f64) {
    const PLAIN: usize = 200;
    const PINNED: usize = 12;
    let mut db = fragment.clone();
    let probe_tuple = |k: usize| tuple![format!("probe{k}"), "d0", 100];
    // Unshare from `fragment` before timing.
    db.apply(&Update::insert("emp", probe_tuple(0)))
        .expect("schema");
    let mut plain = 0.0;
    for k in 1..=PLAIN {
        let insert = Update::insert("emp", probe_tuple(k));
        let started = Instant::now();
        db.apply(&insert).expect("schema");
        db.apply(&insert.inverse()).expect("schema");
        plain += micros(started) / 2.0;
    }
    let mut pinned = 0.0;
    for k in 1..=PINNED {
        let insert = Update::insert("emp", probe_tuple(k));
        let snapshot = db.snapshot();
        let started = Instant::now();
        db.apply(&insert).expect("schema");
        pinned += micros(started);
        drop(snapshot);
        db.apply(&insert.inverse()).expect("schema");
    }
    (plain / PLAIN as f64, pinned / PINNED as f64)
}

/// `WalWriter::append` / `sync` on a scratch log fed the records the
/// replayed requests produced, one sync per request as group commit does.
fn time_wal(records: &[Vec<WalRecord>], scratch: &Path) -> Result<(f64, f64), String> {
    let path = scratch.join("scratch-wal.bin");
    let mut guard = DiskGuard::new();
    let mut wal = WalWriter::create(&path, &mut guard).map_err(|e| e.to_string())?;
    let (mut append_us, mut appends, mut sync_us, mut syncs) = (0.0, 0u64, 0.0, 0u64);
    for group in records.iter().filter(|g| !g.is_empty()) {
        for record in group {
            let started = Instant::now();
            wal.append(record, &mut guard).map_err(|e| e.to_string())?;
            append_us += micros(started);
            appends += 1;
        }
        let started = Instant::now();
        wal.sync(&mut guard).map_err(|e| e.to_string())?;
        sync_us += micros(started);
        syncs += 1;
    }
    std::fs::remove_file(&path).ok();
    Ok((
        append_us / appends.max(1) as f64,
        sync_us / syncs.max(1) as f64,
    ))
}

/// `read_checkpoint` and `replay_wal` on the directories the run left.
fn time_recovery_parts(store: &Store) -> Result<(f64, f64), String> {
    let (mut load_ms, mut replay_us, mut records) = (0.0, 0.0, 0usize);
    for dir in &store.dirs {
        let started = Instant::now();
        read_checkpoint(dir).map_err(|e| e.to_string())?;
        load_ms += micros(started) / 1e3;
        let started = Instant::now();
        let replayed = replay_wal(&dir.join(WAL_FILE)).map_err(|e| e.to_string())?;
        replay_us += micros(started);
        records += replayed.records.len();
    }
    Ok((load_ms, replay_us / records.max(1) as f64))
}

pub fn run(cfg: &Config) -> Result<Output, String> {
    let spec = &cfg.spec;
    let mut oracle = Oracle::default();
    // The replay covers `traced_requests` at a 30-second window and
    // proportionally fewer in a shorter run; the count depends on nothing
    // measured, so the exact-count metrics repeat run to run.
    let requests = ((spec.traced_requests as f64 * cfg.seconds / 30.0).ceil() as usize).max(8);

    let store = Store::set_up(spec, cfg.seed, &cfg.scratch)?;
    let mut stream = ClientStream::new(spec, cfg.seed, 0);
    let mut certs = spec.batch.then(|| CertChecker::new(store.base.clone()));
    let probed = probe(&store, &mut stream, requests, &mut certs, &mut oracle);

    // The loaded window: the measured run's clients, for the group size.
    let before = (
        store.stat(|s| s.submitted()),
        store.stat(|s| s.groups()),
        store.stat(|s| s.busy_rejections()),
    );
    let mut clients = vec![(stream, certs)];
    clients.extend((1..spec.submitters).map(|c| (ClientStream::new(spec, cfg.seed, c), None)));
    let loaded_s = (cfg.seconds / 4.0).clamp(0.5, 5.0);
    let (logs, _) = drive(&store, clients, false, loaded_s, Instant::now());
    let submitted = store.stat(|s| s.submitted()) - before.0;
    let groups = store.stat(|s| s.groups()) - before.1;
    let busy = store.stat(|s| s.busy_rejections()) - before.2;
    let loaded_requests: usize = logs.iter().map(|l| l.samples.len()).sum();
    for log in logs {
        oracle.merge(log.oracle);
    }
    store.stop();
    let (checkpoint_load_ms, replay_us_per_record) = time_recovery_parts(&store)?;
    // What one server holds: the store `Database::apply` is timed on.
    let fragment = spec.fragments(&store.base)?.swap_remove(0);
    let add_constraint_us = store.add_constraint_us;
    drop(store);

    let mut tracer = Tracer::new(true);
    let service = replay_service(spec, cfg.seed, requests, &cfg.scratch, &mut tracer)?;
    let checked = replay_checks(spec, cfg.seed, &service, &mut tracer)?;
    let (apply_us, apply_pinned_us) = time_apply(&fragment);
    let (append_us, sync_us) = time_wal(&checked.wal_records, &cfg.scratch)?;

    let trace_path = cfg
        .scratch
        .parent()
        .unwrap_or(&cfg.scratch)
        .join(format!("trace-{}.jsonl", spec.name));
    tracer.write_jsonl(&trace_path).map_err(|e| e.to_string())?;

    // Span means are per traced request; the twin's counts cover them all.
    let totals = tracer.totals();
    let n = service.traced_requests.max(1) as f64;
    let total = |name: &str| totals.get(name).map_or(0.0, |t| t.0) / n;
    let own = |name: &str| totals.get(name).map_or(0.0, |t| t.1) / n;
    let service_us: f64 = SERVICE_SPANS.iter().map(|s| total(s)).sum();
    let rtt_us = total("site.transport.rtt");
    let check_us = total("core.manager.check");
    let checks = &checked.checks;
    let updates = checks.updates.max(1) as f64;
    let updates_per_request = updates / requests as f64;
    let stage4 = |name: &str| checks.stage4.get(name).copied().unwrap_or(0) as f64;
    let audit = service.certs.as_ref();
    let audited = |f: fn(&CertChecker) -> f64| audit.map_or(0.0, f);

    let metrics = vec![
        (
            "server.proto.encode_req_us",
            total("server.proto.encode_req"),
        ),
        (
            "server.proto.decode_req_us",
            total("server.proto.decode_req"),
        ),
        (
            "server.proto.encode_resp_us",
            total("server.proto.encode_resp"),
        ),
        (
            "server.proto.decode_resp_us",
            total("server.proto.decode_resp"),
        ),
        ("server.proto.req_bytes", service.request_bytes as f64 / n),
        ("server.proto.resp_bytes", service.response_bytes as f64 / n),
        ("site.transport.rtt_us", rtt_us),
        (
            "server.service.mean_group",
            submitted as f64 / groups.max(1) as f64,
        ),
        (
            "server.service.busy_share",
            busy as f64 / (loaded_requests as u64 + busy).max(1) as f64,
        ),
        ("server.service.results_us", total("server.service.results")),
        (
            "server.service.residual_us",
            probed.mean_ack_us - service_us - rtt_us,
        ),
        (
            "core.durable.process_grouped_us",
            total("core.durable.process_grouped"),
        ),
        (
            "core.durable.commit_us",
            own("core.durable.process_grouped"),
        ),
        ("core.manager.check_us", check_us),
        (
            "core.manager.unattributed_us",
            (check_us - checks.stage.total_us() / requests as f64).max(0.0),
        ),
        ("core.manager.add_constraint_us", add_constraint_us),
        (
            "core.pipeline.subsumption_us",
            checks.stage.subsumption_us / updates,
        ),
        (
            "core.pipeline.prefilter_us",
            checks.stage.prefilter_us / updates,
        ),
        (
            "core.pipeline.pretest_us",
            checks.stage.pretest_us / updates,
        ),
        (
            "core.pipeline.independence_us",
            checks.stage.independence_us / updates,
        ),
        (
            "core.pipeline.local_test_us",
            checks.stage.local_test_us / updates,
        ),
        ("core.pipeline.stage4_us", checks.stage.stage4_us / updates),
        ("core.pipeline.settled.subsumed", checks.share("subsumed")),
        (
            "core.pipeline.settled.independent",
            checks.share("independent"),
        ),
        ("core.pipeline.settled.pretest", checks.share("pretest")),
        (
            "core.pipeline.settled.local_test",
            checks.share("local_test"),
        ),
        (
            "core.pipeline.settled.full_check",
            checks.share("full_check"),
        ),
        ("core.pipeline.violated_share", checks.share("violated")),
        ("core.pipeline.unknown_share", checks.share("unknown")),
        (
            "core.pipeline.stage4.full_snapshot",
            stage4("full_snapshot"),
        ),
        ("core.pipeline.stage4.delta_seeded", stage4("delta_seeded")),
        ("core.pipeline.stage4.cached", stage4("cached")),
        ("storage.database.apply_us", apply_us),
        ("storage.database.apply_pinned_us", apply_pinned_us),
        (
            "storage.database.snapshot_us",
            total("storage.database.snapshot"),
        ),
        ("storage.wal.append_us", append_us),
        ("storage.wal.sync_us", sync_us),
        ("storage.wal.bytes_per_admit", probed.bytes_per_admit),
        ("storage.wal.syncs_per_admit", probed.syncs_per_admit),
        ("storage.wal.replay_us_per_record", replay_us_per_record),
        ("storage.wal.checkpoint_load_ms", checkpoint_load_ms),
        // Two `owners` calls per update: the client's and the owner's.
        (
            "storage.partition.route_us",
            total("storage.partition.route") / updates_per_request / 2.0,
        ),
        ("server.client.redirects", probed.redirects as f64),
        (
            "audit.cert_bytes_per_update",
            audited(|c| c.bytes as f64 / c.updates.max(1) as f64),
        ),
        (
            "audit.verify_us",
            audited(|c| c.verify_us / c.updates.max(1) as f64),
        ),
        (
            "audit.certified_share",
            audited(|c| c.certificates as f64) / checks.outcomes.max(1) as f64,
        ),
        ("audit.rejected", audited(|c| c.rejected as f64)),
        ("trace.service_us", service_us),
        ("trace.probe_ack_us", probed.mean_ack_us),
        ("trace.coverage", (service_us + rtt_us) / probed.mean_ack_us),
        (
            "trace.overhead_share",
            service.traced_us / service.untraced_us - 1.0,
        ),
    ];
    oracle.merge(service.oracle);
    oracle.merge(checked.oracle);
    oracle.check(probed.redirects == 0, || {
        format!("{} wrong-shard redirects", probed.redirects)
    });

    // The budget: every layer's self time per request, largest first.
    let mut budget: Vec<(&str, f64)> = totals
        .iter()
        .filter(|(name, _)| **name != "request")
        .map(|(name, t)| (*name, t.1 / n))
        .collect();
    budget.sort_by(|a, b| b.1.total_cmp(&a.1));
    let detail = Json::obj([
        ("replayed_requests", Json::Num(requests as f64)),
        ("traced_requests", Json::Num(n)),
        ("traced_updates", Json::Num(checks.updates as f64)),
        ("spans", Json::Num(tracer.spans().len() as f64)),
        (
            "trace_file",
            Json::Str(format!("out/trace-{}.jsonl", spec.name)),
        ),
        (
            "self_us_per_request",
            Json::Arr(
                budget
                    .into_iter()
                    .map(|(name, us)| {
                        Json::obj([("layer", Json::Str(name.into())), ("us", Json::Num(us))])
                    })
                    .collect(),
            ),
        ),
    ]);
    let metrics = metrics
        .into_iter()
        .map(|(name, value)| Measured {
            name,
            value,
            spread: 0.0,
        })
        .collect();
    Ok(Output {
        metrics,
        detail,
        oracle,
    })
}
