//! The repository-level durability gate: a short seeded crash soak
//! through the E12 harness plus end-to-end corruption and mid-batch
//! crash scenarios against [`DurableManager`] stores on disk. The CI
//! `crash` job runs this on every PR; the nightly soak runs the same
//! harness at acceptance scale through `experiments --crash`.

use ccpi::durable::DurableManager;
use ccpi::remote::{RemoteError, RemoteSource};
use ccpi::report::WireStats;
use ccpi_bench::crash::{soak, CrashConfig};
use ccpi_storage::wal::{replay_wal, scratch_dir, CHECKPOINT_TMP, WAL_FILE};
use ccpi_storage::{tuple, Database, Locality, Tuple, Update};
use std::fs;
use std::path::Path;

const REFERENTIAL: &str = "panic :- emp(E,D,S) & not dept(D).";

fn emp_db() -> Database {
    let mut db = Database::new();
    db.declare("emp", 3, Locality::Local).unwrap();
    db.declare("dept", 1, Locality::Local).unwrap();
    db.insert("dept", tuple!["sales"]).unwrap();
    db.insert("emp", tuple!["ann", "sales", 80]).unwrap();
    db
}

/// A fresh durable store with one constraint and `n` admitted inserts.
fn store_with(dir: &Path, n: usize) -> DurableManager {
    let mut mgr = DurableManager::create(dir, emp_db()).unwrap();
    mgr.add_constraint("referential", REFERENTIAL).unwrap();
    for i in 0..n {
        let u = Update::insert("emp", tuple![format!("w{i}").as_str(), "sales", 50]);
        let (_, applied) = mgr.process(&u).unwrap();
        assert!(applied, "clean insert {i} admitted");
    }
    mgr
}

fn has_emp(mgr: &DurableManager, i: usize) -> bool {
    mgr.database()
        .relation("emp")
        .unwrap()
        .contains(&tuple![format!("w{i}").as_str(), "sales", 50])
}

/// Frame byte ranges of a WAL file's valid prefix (past the 8-byte
/// header): each entry is the whole frame, length prefix included.
fn frame_ranges(wal: &[u8], valid_len: u64) -> Vec<std::ops::Range<usize>> {
    let mut ranges = Vec::new();
    let mut pos = 8usize;
    while pos + 4 <= valid_len as usize {
        let len = u32::from_le_bytes(wal[pos..pos + 4].try_into().unwrap()) as usize;
        ranges.push(pos..pos + 4 + len);
        pos += 4 + len;
    }
    ranges
}

/// Three seeds by six kill points of the E12 harness: every recovered
/// state is audited, is a prefix-consistent twin state, loses no
/// acknowledged update, and keeps answering like the crash-free twin.
#[test]
fn seeded_crash_soaks_recover_prefix_consistent_twins() {
    let cfg = CrashConfig {
        steps: 24,
        kill_points: 6,
        checkpoint_every: 5,
        employees: 60,
        departments: 5,
        continuation: 4,
    };
    let mut crashes = 0usize;
    for seed in [21, 22, 23] {
        let stats = soak(seed, &cfg).unwrap_or_else(|failure| panic!("{failure}"));
        assert_eq!(stats.kill_points, 6, "seed {seed}");
        crashes += stats.crashes;
    }
    assert!(crashes > 0, "kill budgets must fire across 3x6 points");
}

/// A record truncated mid-write is dropped at recovery: replay ends at
/// the last complete record, and only unacknowledged data is lost.
#[test]
fn truncated_tail_record_ends_replay_at_the_last_complete_record() {
    let dir = scratch_dir("crt-trunc");
    drop(store_with(&dir, 3));
    let wal_path = dir.join(WAL_FILE);
    let len = fs::metadata(&wal_path).unwrap().len();
    let f = fs::OpenOptions::new().write(true).open(&wal_path).unwrap();
    f.set_len(len - 5).unwrap();
    drop(f);

    let (rec, report) = DurableManager::recover(&dir).unwrap();
    assert_eq!(report.replayed_applies, 2, "torn third record dropped");
    assert!(report.dropped_bytes > 0);
    assert!(has_emp(&rec, 0) && has_emp(&rec, 1) && !has_emp(&rec, 2));
    fs::remove_dir_all(&dir).unwrap();
}

/// A bit flip inside a mid-log record fails its checksum, and replay
/// stops there: later records — though intact — are past the
/// crash-consistent prefix and must not be applied.
#[test]
fn bit_flipped_record_ends_replay_at_the_corruption() {
    let dir = scratch_dir("crt-flip");
    drop(store_with(&dir, 3));
    let wal_path = dir.join(WAL_FILE);
    let mut bytes = fs::read(&wal_path).unwrap();
    let replay = replay_wal(&wal_path).unwrap();
    let ranges = frame_ranges(&bytes, replay.valid_len);
    assert_eq!(ranges.len(), 3 + 1, "3 applies + 1 constraint registration");
    // Flip one byte in the middle of the second apply record's body.
    let mid = (ranges[2].start + ranges[2].end) / 2;
    bytes[mid] ^= 0x40;
    fs::write(&wal_path, &bytes).unwrap();

    let (rec, report) = DurableManager::recover(&dir).unwrap();
    assert_eq!(report.replayed_applies, 1, "replay stops at the corruption");
    assert!(
        report.dropped_bytes > 0,
        "flipped and later records dropped"
    );
    assert!(has_emp(&rec, 0) && !has_emp(&rec, 1) && !has_emp(&rec, 2));
    fs::remove_dir_all(&dir).unwrap();
}

/// A duplicated (re-appended) record has a stale nonce and is rejected:
/// checksums alone would accept it, the frame sequence does not.
#[test]
fn duplicated_record_is_rejected_by_nonce_sequencing() {
    let dir = scratch_dir("crt-dup");
    drop(store_with(&dir, 3));
    let wal_path = dir.join(WAL_FILE);
    let mut bytes = fs::read(&wal_path).unwrap();
    let replay = replay_wal(&wal_path).unwrap();
    let last = frame_ranges(&bytes, replay.valid_len).pop().unwrap();
    let dup = bytes[last].to_vec();
    bytes.extend_from_slice(&dup);
    fs::write(&wal_path, &bytes).unwrap();

    let (rec, report) = DurableManager::recover(&dir).unwrap();
    assert_eq!(report.replayed_applies, 3, "original records all replay");
    assert_eq!(
        report.dropped_bytes,
        dup.len() as u64,
        "the duplicate is dropped, not re-applied"
    );
    assert_eq!(rec.database().relation("emp").unwrap().len(), 1 + 3);
    fs::remove_dir_all(&dir).unwrap();
}

/// A leftover checkpoint staging file — torn or even complete — is
/// ignored and removed: only the rename commits a checkpoint.
#[test]
fn leftover_checkpoint_tmp_is_ignored_and_cleaned() {
    let dir = scratch_dir("crt-tmp");
    drop(store_with(&dir, 2));
    let tmp = dir.join(CHECKPOINT_TMP);
    fs::write(&tmp, b"half-staged checkpoint garbage").unwrap();

    let (rec, report) = DurableManager::recover(&dir).unwrap();
    assert!(report.tmp_cleaned, "staging leftover detected");
    assert!(!tmp.exists(), "and removed");
    assert!(has_emp(&rec, 0) && has_emp(&rec, 1));
    fs::remove_dir_all(&dir).unwrap();
}

/// A crash mid-batch acknowledges nothing — the batch is one commit
/// group — and recovery holds only a prefix of the group's admitted
/// updates (here none: the lost page cache takes the unsynced group).
#[test]
fn crash_mid_batch_never_loses_an_acknowledged_update() {
    let dir = scratch_dir("crt-batch");
    let mut mgr = store_with(&dir, 0);
    let updates: Vec<Update> = (0..6)
        .map(|i| Update::insert("emp", tuple![format!("w{i}").as_str(), "sales", 50]))
        .collect();
    mgr.set_crash_budget(Some((150, true)));
    let result = mgr.process_updates_grouped(&updates);
    let err = result.error.expect("budget fires mid-batch");
    assert!(err.is_injected_crash(), "{err}");
    assert!(
        result.completed.is_empty(),
        "a failed group acknowledges nothing"
    );
    drop(mgr);

    let (rec, report) = DurableManager::recover(&dir).unwrap();
    let logged = report.replayed_applies;
    assert!(logged < updates.len(), "unlogged update applied");
    for i in 0..updates.len() {
        assert_eq!(
            has_emp(&rec, i),
            i < logged,
            "recovery holds exactly a prefix of the group (update {i})"
        );
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// An in-memory remote, counting how often each relation is fetched.
struct MapRemote {
    sal_rows: Vec<Tuple>,
    fetches: usize,
}

impl RemoteSource for MapRemote {
    fn fetch_relation(&mut self, pred: &str) -> Result<Vec<Tuple>, RemoteError> {
        self.fetches += 1;
        match pred {
            "salRange" => Ok(self.sal_rows.clone()),
            other => Err(RemoteError::Unavailable(format!("no relation {other}"))),
        }
    }

    fn wire_stats(&self) -> WireStats {
        WireStats::default()
    }
}

/// A store over a remote `salRange`, with a pay-floor constraint.
fn remote_store(dir: &Path) -> DurableManager {
    let mut view = Database::new();
    view.declare("emp", 3, Locality::Local).unwrap();
    view.declare("salRange", 3, Locality::Remote).unwrap();
    view.insert("emp", tuple!["ann", "sales", 80]).unwrap();
    let mut mgr = DurableManager::create(dir, view).unwrap();
    mgr.add_constraint(
        "pay-floor",
        "panic :- emp(E,D,S) & salRange(D,Low,High) & S < Low.",
    )
    .unwrap();
    mgr
}

/// Remote batches hydrate each remote relation once per batch and share
/// one fsync: after a restart every admitted update of the batch is
/// present and every rejected one absent.
#[test]
fn remote_batch_hydrates_once_and_shares_one_fsync() {
    let dir = scratch_dir("crt-remote");
    let mut mgr = remote_store(&dir);
    let remote_rows = || MapRemote {
        sal_rows: vec![tuple!["sales", 50, 100]],
        fetches: 0,
    };
    let mut remote = remote_rows();

    let updates = vec![
        Update::insert("emp", tuple!["bob", "sales", 60]),
        Update::insert("emp", tuple!["eve", "sales", 10]), // below the floor
        Update::insert("emp", tuple!["kim", "sales", 70]),
    ];
    let result = mgr.process_updates_with_remote(&updates, &mut remote);
    assert!(result.error.is_none());
    let admitted: Vec<bool> = result.completed.iter().map(|(_, a)| *a).collect();
    assert_eq!(admitted, vec![true, false, true]);
    assert_eq!(remote.fetches, 1, "one hydration for the whole batch");

    // The same updates one batch each: one fsync per admitted update, so
    // the group saved one sync per admitted update past the first.
    let singles_dir = scratch_dir("crt-remote-singles");
    let mut singles = remote_store(&singles_dir);
    for u in &updates {
        let r = singles.process_updates_with_remote(std::slice::from_ref(u), &mut remote_rows());
        assert!(r.error.is_none());
    }
    assert_eq!(
        mgr.bytes_written() + 1,
        singles.bytes_written(),
        "two admitted updates share one sync grant"
    );
    drop(singles);
    fs::remove_dir_all(&singles_dir).unwrap();
    drop(mgr);

    let (rec, report) = DurableManager::recover(&dir).unwrap();
    assert_eq!(report.replayed_applies, 2);
    let emp = rec.database().relation("emp").unwrap();
    assert!(emp.contains(&tuple!["bob", "sales", 60]));
    assert!(!emp.contains(&tuple!["eve", "sales", 10]));
    assert!(emp.contains(&tuple!["kim", "sales", 70]));
    assert!(
        rec.database().relation("salRange").unwrap().is_empty(),
        "hydrated remote data never leaks into the durable state"
    );
    fs::remove_dir_all(&dir).unwrap();
}
