//! E13 — the closed-loop admission-service harness behind
//! `BENCH_server.json`.
//!
//! N clients connect to a live [`ccpi_server`] instance over real TCP and
//! submit updates back-to-back (closed loop: each client keeps exactly
//! one submission in flight). The admit thread drains whatever queued
//! while the previous group was committing, and the whole window shares
//! one fsync (group commit, the server's only commit mode).
//!
//! While the submitters run, a dedicated reader thread issues
//! `Query`/`Version` requests continuously — sustained MVCC snapshot
//! reads that by construction never enqueue behind the admission writer;
//! the row reports how many it completed.
//!
//! Every run also executes the **soundness twin**: the server records its
//! `(update, admitted)` decision log, and a fresh single-threaded
//! [`DurableManager`] replays exactly that update sequence, verdict by
//! verdict. Any divergence means concurrent admission reached a different
//! judgment than the serial semantics — the count must be zero. The twin
//! also cross-checks the recovered server store against its own final
//! state.

use ccpi::durable::DurableManager;
use ccpi_server::{serve, AdmissionClient, ServerConfig};
use ccpi_storage::wal::scratch_dir;
use ccpi_storage::{tuple, Database, Locality, Update};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// One measured cell.
#[derive(Clone, Debug, serde::Serialize)]
pub struct ServerRow {
    /// Concurrent closed-loop submitters.
    pub clients: usize,
    /// Always `"group-commit"`: the perf guard finds its row in the
    /// committed `BENCH_server.json` by this key.
    pub mode: &'static str,
    /// Updates per submit request. Small batches keep the wire/dispatch
    /// cost per update honest on a small host; every window still pays
    /// one fsync.
    pub batch: usize,
    /// Updates submitted (and acknowledged) across all clients.
    pub updates: usize,
    /// Acknowledged admissions per second (updates / wall clock).
    pub admissions_per_sec: f64,
    /// Median request-ack latency, milliseconds (submit → durable
    /// verdict for the whole batch).
    pub p50_ack_ms: f64,
    /// 99th-percentile request-ack latency, milliseconds.
    pub p99_ack_ms: f64,
    /// Commit groups the admit thread executed; `updates / groups` is the
    /// fsync amortization factor.
    pub groups: u64,
    /// Mean commit-group size.
    pub mean_group: f64,
    /// Snapshot reads completed by the concurrent reader during the run.
    pub snapshot_reads: u64,
    /// Verdicts where the single-threaded twin disagreed with the
    /// concurrent server. Must be zero.
    pub twin_divergences: usize,
}

/// The workload store: a 2-ary `acct` relation under a sign constraint,
/// plus a small `branch` reference relation for the concurrent reader to
/// scan (scanning the growing `acct` itself would measure row-encoding
/// bandwidth, not snapshot isolation). Cheap checks on purpose — E13
/// measures the *commit* path, so the judging cost must not drown the
/// fsync cost being amortized.
fn build_store(dir: &std::path::Path) -> DurableManager {
    let mut db = Database::new();
    db.declare("acct", 2, Locality::Local).unwrap();
    db.declare("branch", 1, Locality::Local).unwrap();
    for b in 0..8i64 {
        db.insert("branch", tuple![b]).unwrap();
    }
    let mut mgr = DurableManager::create(dir, db).unwrap();
    mgr.add_constraint("positive", "panic :- acct(I,A) & A < 0.")
        .unwrap();
    mgr
}

/// Runs one closed-loop cell: `clients` submitters × `batches` requests
/// of `batch` updates each, one sustained snapshot reader, then the
/// soundness twin.
pub fn measure_cell(clients: usize, batches: usize, batch: usize) -> ServerRow {
    let dir = scratch_dir(&format!("e13-{clients}"));
    let config = ServerConfig {
        record_decisions: true,
        ..ServerConfig::default()
    };
    let server = serve(build_store(&dir), "127.0.0.1:0", config).unwrap();
    let addr = server.addr();

    // Sustained MVCC reads for the whole run: version probes alternating
    // with scans of the small `branch` relation, paced at ~1 kHz so the
    // reader exercises the snapshot path continuously without
    // monopolising small hosts (reads never block behind the admission
    // writer either way — this bounds the *CPU* contention, not the lock
    // contention). The versions it observes must never go backwards:
    // that is the MVCC pinning claim, checked here on every read.
    let read_stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let read_stop = Arc::clone(&read_stop);
        std::thread::spawn(move || {
            let mut client = AdmissionClient::connect(addr).with_deadline(Duration::from_secs(5));
            let mut reads = 0u64;
            let mut last_version = 0u64;
            while !read_stop.load(Ordering::Relaxed) {
                let seen = if reads.is_multiple_of(2) {
                    let (version, rows) = client.query("branch").unwrap();
                    assert_eq!(rows.len(), 8, "reference relation scan torn");
                    version
                } else {
                    client.version().unwrap()
                };
                assert!(seen >= last_version, "snapshot version went backwards");
                last_version = seen;
                reads += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            reads
        })
    };

    // Closed-loop submitters: every row unique and admissible, except one
    // violation per 16 so rejection verdicts flow through the same path.
    let barrier = Arc::new(Barrier::new(clients + 1));
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client =
                    AdmissionClient::connect(addr).with_deadline(Duration::from_secs(30));
                client.ping().unwrap(); // connection warm before the gun
                barrier.wait();
                let mut lat_ms = Vec::with_capacity(batches);
                for r in 0..batches {
                    let ids: Vec<usize> =
                        (0..batch).map(|k| (c * batches + r) * batch + k).collect();
                    let request: Vec<Update> = ids
                        .iter()
                        .map(|&id| {
                            let amount = if id % 16 == 15 { -1 } else { id as i64 };
                            Update::insert("acct", tuple![id as i64, amount])
                        })
                        .collect();
                    let start = Instant::now();
                    let results = client.submit(&request).unwrap();
                    lat_ms.push(start.elapsed().as_secs_f64() * 1e3);
                    for (id, result) in ids.iter().zip(&results) {
                        assert_eq!(
                            result.admitted,
                            id % 16 != 15,
                            "client {c} update {id}: wrong verdict"
                        );
                    }
                }
                lat_ms
            })
        })
        .collect();

    barrier.wait();
    let start = Instant::now();
    let mut lat_ms: Vec<f64> = Vec::with_capacity(clients * batches);
    for w in workers {
        lat_ms.extend(w.join().expect("submitter panicked"));
    }
    let elapsed = start.elapsed().as_secs_f64();

    // One full snapshot scan against the live server: the final MVCC
    // read must see exactly the admitted rows, none of the rejects.
    let updates = clients * batches * batch;
    let expected_admitted = (0..updates).filter(|id| id % 16 != 15).count();
    let mut checker = AdmissionClient::connect(addr).with_deadline(Duration::from_secs(30));
    let (_, rows) = checker.query("acct").expect("final snapshot scan failed");
    assert_eq!(
        rows.len(),
        expected_admitted,
        "final snapshot does not hold exactly the admitted rows"
    );

    read_stop.store(true, Ordering::Relaxed);
    let snapshot_reads = reader.join().expect("reader panicked");

    let stats = server.stats();
    let decisions = server.decisions();
    server.stop();

    // Soundness twin: a fresh single-threaded manager replays the exact
    // admission order and must reach the exact verdicts.
    let twin_dir = scratch_dir(&format!("e13-twin-{clients}"));
    let mut twin = build_store(&twin_dir);
    let mut twin_divergences = 0usize;
    for (update, admitted) in &decisions {
        let (_, applied) = twin.process(update).expect("twin pipeline failed");
        if applied != *admitted {
            twin_divergences += 1;
        }
    }
    // And the recovered server store must equal the twin's final state.
    let (recovered, _) = DurableManager::recover(&dir).expect("server store must recover");
    if recovered.database().relation("acct") != twin.database().relation("acct") {
        twin_divergences += 1;
    }
    drop(twin);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&twin_dir).ok();

    lat_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pct = |p: f64| lat_ms[((lat_ms.len() - 1) as f64 * p) as usize];
    let groups = stats.groups();
    ServerRow {
        clients,
        mode: "group-commit",
        batch,
        updates,
        admissions_per_sec: updates as f64 / elapsed,
        p50_ack_ms: pct(0.50),
        p99_ack_ms: pct(0.99),
        groups,
        mean_group: updates as f64 / groups.max(1) as f64,
        snapshot_reads,
        twin_divergences,
    }
}

/// The full E13 grid: one cell per client count. `per_total` is the
/// approximate total updates per cell (split across the clients in
/// requests of `batch`), so every cell commits comparable work.
pub fn measure(client_counts: &[usize], per_total: usize, batch: usize) -> Vec<ServerRow> {
    client_counts
        .iter()
        .map(|&clients| measure_cell(clients, (per_total / (clients * batch)).max(1), batch))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_cell_is_sound() {
        let row = measure_cell(4, 2, 4);
        assert_eq!(row.updates, 32);
        assert_eq!(row.twin_divergences, 0);
        assert!(row.admissions_per_sec > 0.0);
        assert!(row.p99_ack_ms >= row.p50_ack_ms);
        assert!(row.groups >= 1);
        assert!(row.snapshot_reads > 0, "reader made no progress");
    }
}
