//! Durable manager state: write-ahead log and checkpoint codec.
//!
//! The managers in `ccpi-core` acknowledge an update only after a record
//! describing it is on disk (fsync'd), so a crash never loses an
//! acknowledged update; periodic checkpoints bound replay time. This
//! module owns the on-disk formats and the low-level write pipeline —
//! including the fault-injection hooks the crash soak drives.
//!
//! ## WAL format
//!
//! ```text
//! file    := magic "CCPIWAL1", frame*
//! frame   := u32 sealed-length, sealed
//! sealed  := u64 nonce, body, u64 fnv1a64(nonce ++ body)
//! body    := tag u8, record fields (see [`WalRecord`])
//! ```
//!
//! The sealing is the `ccpi-site` wire-v2 idiom: the FNV-1a trailer
//! detects torn writes and bit rot, and the nonce — here the frame's
//! index in the log — rejects duplicated or re-ordered frames, which a
//! checksum alone would accept. Replay stops at the first frame that is
//! truncated, fails its checksum, or carries the wrong nonce: everything
//! before it is the **crash-consistent prefix**, everything after was
//! never acknowledged.
//!
//! ## Checkpoint format
//!
//! A checkpoint is one sealed frame (magic `CCPICKP1`) holding the full
//! database, the registered constraint sources, per-constraint delta-plan
//! signatures, and the exportable stage-4 verdicts. It is written to
//! `checkpoint.bin.tmp`, fsync'd, then renamed over `checkpoint.bin` —
//! readers see the old checkpoint or the new one, never a torn one. A
//! leftover `.tmp` (crash before the rename) is ignored and removed at
//! recovery.
//!
//! ## Fault injection
//!
//! Every durable write is metered through a [`DiskGuard`]. An unarmed
//! guard just counts bytes; an armed one stops the pipeline after a
//! seeded byte budget — mid-record, mid-checkpoint, even mid-header —
//! leaving exactly the bytes a real crash at that offset would leave.
//! The crash soak in `ccpi-bench` replays the same workload against a
//! schedule of budgets and asserts recovery from every prefix.

use crate::database::{Database, Locality};
use crate::update::Update;
use crate::wirefmt::{self, seal, unseal, WireError};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex};

/// WAL file name inside a durable directory.
pub const WAL_FILE: &str = "wal.bin";
/// Checkpoint file name inside a durable directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.bin";
/// Scratch name a checkpoint is staged under before its atomic rename.
pub const CHECKPOINT_TMP: &str = "checkpoint.bin.tmp";

const WAL_MAGIC: &[u8; 8] = b"CCPIWAL1";
const CKPT_MAGIC: &[u8; 8] = b"CCPICKP1";

/// Upper bound on one sealed frame; a corrupt length prefix must not
/// trigger a giant allocation before the bounds check.
const MAX_FRAME: u64 = 256 * 1024 * 1024;

/// Durability-layer failures.
#[derive(Debug)]
pub enum WalError {
    /// An I/O operation failed.
    Io(std::io::Error),
    /// A frame or checkpoint failed to decode (corruption that is not a
    /// recoverable torn tail — e.g. a damaged checkpoint body).
    Wire(WireError),
    /// A file did not start with the expected magic.
    BadMagic,
    /// The injected crash budget ran out: the pipeline must abort exactly
    /// as if the process had died at this byte offset.
    CrashInjected,
    /// A previous append or sync failed and may have left a torn frame on
    /// disk; the writer refuses every further append until the log is
    /// reopened through replay + [`WalWriter::resume`]. Without this,
    /// records appended after the failure would sit past the torn frame —
    /// acknowledged as durable, silently dropped at replay.
    Poisoned,
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::Wire(e) => write!(f, "wal decode error: {e}"),
            WalError::BadMagic => write!(f, "bad file magic"),
            WalError::CrashInjected => write!(f, "injected crash: disk budget exhausted"),
            WalError::Poisoned => write!(
                f,
                "wal writer poisoned by an earlier write failure; reopen via recovery"
            ),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}
impl From<WireError> for WalError {
    fn from(e: WireError) -> Self {
        WalError::Wire(e)
    }
}

/// Meters every durable write, and — when armed with a byte budget —
/// injects a crash at an exact offset into the write stream.
///
/// The byte stream is deterministic for a given workload (lengths never
/// depend on randomness), so an offset observed in a crash-free
/// reference run names the same point in a re-run. An fsync and a rename
/// each charge one byte, giving the schedule kill points *between*
/// writing and syncing and *between* staging and renaming a checkpoint.
#[derive(Debug, Default)]
pub struct DiskGuard {
    /// Bytes granted so far (writes, plus one per fsync/rename).
    pub written: u64,
    budget: Option<u64>,
    drop_unsynced: bool,
}

impl DiskGuard {
    /// An unarmed guard: counts bytes, never crashes.
    pub fn new() -> Self {
        DiskGuard::default()
    }

    /// A guard that injects a crash once `budget` bytes have been
    /// granted. With `drop_unsynced`, bytes written since the last fsync
    /// are discarded at the crash — modeling a page cache that never
    /// reached the platter; without it they survive as a torn tail.
    pub fn with_budget(budget: u64, drop_unsynced: bool) -> Self {
        DiskGuard {
            written: 0,
            budget: Some(budget),
            drop_unsynced,
        }
    }

    /// Should this crash also discard unsynced bytes?
    pub fn drops_unsynced(&self) -> bool {
        self.drop_unsynced
    }

    /// Has the injected crash fired?
    pub fn crashed(&self) -> bool {
        self.budget == Some(0)
    }

    /// Grants up to `n` bytes; fewer means the crash fires after the
    /// returned count is written.
    fn grant(&mut self, n: u64) -> u64 {
        let allowed = match self.budget.as_mut() {
            None => n,
            Some(b) => {
                let allowed = n.min(*b);
                *b -= allowed;
                allowed
            }
        };
        self.written += allowed;
        allowed
    }
}

/// One durable log record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// A committed update. `seq` increases by one per applied update
    /// across the store's lifetime; replay skips records already folded
    /// into the checkpoint.
    Apply {
        /// Lifetime sequence number of the apply.
        seq: u64,
        /// The update itself.
        update: Update,
    },
    /// A relation declared after the last checkpoint.
    Declare {
        /// Relation name.
        name: String,
        /// Arity.
        arity: usize,
        /// Local or remote.
        locality: Locality,
    },
    /// A constraint registered after the last checkpoint.
    AddConstraint {
        /// Registration name.
        name: String,
        /// Canonical constraint source text.
        source: String,
    },
    /// A committed update together with the proof-carrying certificates
    /// the admission check emitted (one encoded `ccpi-audit` certificate
    /// per certified constraint; opaque bytes at this layer). Written
    /// only when certificate logging is enabled — the default pipeline
    /// keeps emitting plain [`WalRecord::Apply`] frames, so existing
    /// byte-exact crash schedules are unaffected.
    ApplyCertified {
        /// Lifetime sequence number of the apply.
        seq: u64,
        /// The update itself.
        update: Update,
        /// `(constraint name, encoded certificate)` pairs.
        certs: Vec<(String, Vec<u8>)>,
    },
    /// A live re-partitioning opened its dual-ownership window: spans are
    /// being copied from `from_epoch`'s owners to `to_epoch`'s. Until a
    /// matching commit lands, `from_epoch` is the epoch in force — a
    /// recovery that finds an unterminated begin treats the migration as
    /// aborted, so every node lands in exactly one epoch.
    MigrationBegin {
        /// The epoch the window leaves.
        from_epoch: u64,
        /// The epoch a commit would arrive in.
        to_epoch: u64,
        /// Number of moving spans (diagnostic; the plan itself is
        /// reconstructible from the partitioning pair).
        spans: u32,
    },
    /// Ownership flipped atomically: `epoch` is now in force.
    MigrationCommit {
        /// The epoch now in force.
        epoch: u64,
    },
    /// The window closed without flipping (dead peer, severed link):
    /// `epoch` was abandoned and its predecessor stays in force.
    MigrationAbort {
        /// The abandoned target epoch.
        epoch: u64,
    },
}

/// Folds a replayed record sequence into the partitioning epoch the
/// recovering node must land in: a committed migration advances to its
/// target epoch; an aborted — or unterminated, the crash-mid-copy case —
/// migration stays at its source epoch. The result is always exactly one
/// epoch, never a straddle.
pub fn migration_epoch(records: &[WalRecord]) -> u64 {
    let mut epoch = 0;
    for rec in records {
        match rec {
            WalRecord::MigrationBegin { from_epoch, .. } => epoch = *from_epoch,
            WalRecord::MigrationCommit { epoch: e } => epoch = *e,
            // Abort keeps the begin's from_epoch.
            _ => {}
        }
    }
    epoch
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

fn encode_locality(l: Locality, out: &mut Vec<u8>) {
    out.push(match l {
        Locality::Local => 0,
        Locality::Remote => 1,
    });
}

fn decode_locality(buf: &[u8], pos: &mut usize) -> Result<Locality, WireError> {
    match take_u8(buf, pos)? {
        0 => Ok(Locality::Local),
        1 => Ok(Locality::Remote),
        t => Err(WireError::BadTag(t)),
    }
}

impl WalRecord {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WalRecord::Apply { seq, update } => {
                out.push(0);
                wirefmt::encode_u64(*seq, &mut out);
                encode_update(update, &mut out);
            }
            WalRecord::Declare {
                name,
                arity,
                locality,
            } => {
                out.push(1);
                wirefmt::encode_str(name, &mut out);
                wirefmt::encode_u32(*arity as u32, &mut out);
                encode_locality(*locality, &mut out);
            }
            WalRecord::AddConstraint { name, source } => {
                out.push(2);
                wirefmt::encode_str(name, &mut out);
                wirefmt::encode_str(source, &mut out);
            }
            WalRecord::ApplyCertified { seq, update, certs } => {
                out.push(3);
                wirefmt::encode_u64(*seq, &mut out);
                encode_update(update, &mut out);
                wirefmt::encode_u32(certs.len() as u32, &mut out);
                for (name, bytes) in certs {
                    wirefmt::encode_str(name, &mut out);
                    wirefmt::encode_u32(bytes.len() as u32, &mut out);
                    out.extend_from_slice(bytes);
                }
            }
            WalRecord::MigrationBegin {
                from_epoch,
                to_epoch,
                spans,
            } => {
                out.push(4);
                wirefmt::encode_u64(*from_epoch, &mut out);
                wirefmt::encode_u64(*to_epoch, &mut out);
                wirefmt::encode_u32(*spans, &mut out);
            }
            WalRecord::MigrationCommit { epoch } => {
                out.push(5);
                wirefmt::encode_u64(*epoch, &mut out);
            }
            WalRecord::MigrationAbort { epoch } => {
                out.push(6);
                wirefmt::encode_u64(*epoch, &mut out);
            }
        }
        out
    }

    fn decode(buf: &[u8]) -> Result<WalRecord, WireError> {
        let mut pos = 0;
        let rec = match take_u8(buf, &mut pos)? {
            0 => WalRecord::Apply {
                seq: wirefmt::decode_u64(buf, &mut pos)?,
                update: decode_update(buf, &mut pos)?,
            },
            1 => WalRecord::Declare {
                name: wirefmt::decode_str(buf, &mut pos)?,
                arity: wirefmt::decode_u32(buf, &mut pos)? as usize,
                locality: decode_locality(buf, &mut pos)?,
            },
            2 => WalRecord::AddConstraint {
                name: wirefmt::decode_str(buf, &mut pos)?,
                source: wirefmt::decode_str(buf, &mut pos)?,
            },
            3 => {
                let seq = wirefmt::decode_u64(buf, &mut pos)?;
                let update = decode_update(buf, &mut pos)?;
                let n = wirefmt::decode_u32(buf, &mut pos)?;
                let mut certs = Vec::with_capacity(n.min(1024) as usize);
                for _ in 0..n {
                    let name = wirefmt::decode_str(buf, &mut pos)?;
                    let len = wirefmt::decode_u32(buf, &mut pos)? as usize;
                    if pos + len > buf.len() {
                        return Err(WireError::Truncated);
                    }
                    certs.push((name, buf[pos..pos + len].to_vec()));
                    pos += len;
                }
                WalRecord::ApplyCertified { seq, update, certs }
            }
            4 => WalRecord::MigrationBegin {
                from_epoch: wirefmt::decode_u64(buf, &mut pos)?,
                to_epoch: wirefmt::decode_u64(buf, &mut pos)?,
                spans: wirefmt::decode_u32(buf, &mut pos)?,
            },
            5 => WalRecord::MigrationCommit {
                epoch: wirefmt::decode_u64(buf, &mut pos)?,
            },
            6 => WalRecord::MigrationAbort {
                epoch: wirefmt::decode_u64(buf, &mut pos)?,
            },
            t => return Err(WireError::BadTag(t)),
        };
        if pos != buf.len() {
            return Err(WireError::Truncated);
        }
        Ok(rec)
    }
}

fn take_u8(buf: &[u8], pos: &mut usize) -> Result<u8, WireError> {
    if *pos >= buf.len() {
        return Err(WireError::Truncated);
    }
    let b = buf[*pos];
    *pos += 1;
    Ok(b)
}

/// How replay reached the end of the log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalTail {
    /// Every byte belonged to a complete, valid frame.
    Clean,
    /// Replay stopped before end-of-file at a truncated, corrupt, or
    /// out-of-sequence frame; `dropped_bytes` were not replayed.
    Torn {
        /// Bytes from the end of the crash-consistent prefix to EOF.
        dropped_bytes: u64,
    },
}

/// The crash-consistent prefix of a WAL file.
#[derive(Debug)]
pub struct WalReplay {
    /// Records of the valid prefix, in log order.
    pub records: Vec<WalRecord>,
    /// Frame count of the valid prefix (the next frame's nonce).
    pub frames: u64,
    /// Byte length of the valid prefix, including the header; 0 when the
    /// header itself is missing or torn.
    pub valid_len: u64,
    /// Whether anything past the prefix was dropped.
    pub tail: WalTail,
}

/// Reads a WAL file and returns its crash-consistent prefix: the longest
/// run of complete frames with valid checksums and consecutive nonces.
/// A missing file replays as an empty, torn log.
pub fn replay_wal(path: &Path) -> Result<WalReplay, WalError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(WalError::Io(e)),
    };
    let mut replay = WalReplay {
        records: Vec::new(),
        frames: 0,
        valid_len: 0,
        tail: WalTail::Clean,
    };
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        replay.tail = WalTail::Torn {
            dropped_bytes: bytes.len() as u64,
        };
        return Ok(replay);
    }
    let mut pos = WAL_MAGIC.len();
    replay.valid_len = pos as u64;
    loop {
        if pos == bytes.len() {
            return Ok(replay); // Clean end.
        }
        let frame_start = pos;
        let torn = |start: usize| WalTail::Torn {
            dropped_bytes: (bytes.len() - start) as u64,
        };
        let mut cur = pos;
        let Ok(len) = wirefmt::decode_u32(&bytes, &mut cur) else {
            replay.tail = torn(frame_start);
            return Ok(replay);
        };
        if len as u64 > MAX_FRAME || cur + len as usize > bytes.len() {
            replay.tail = torn(frame_start);
            return Ok(replay);
        }
        let sealed = &bytes[cur..cur + len as usize];
        let parsed = unseal(sealed).and_then(|(nonce, body)| {
            if nonce != replay.frames {
                // A duplicated or spliced frame: valid bytes, wrong
                // position. It was never written by this log's writer at
                // this offset, so the prefix ends here.
                return Err(WireError::BadTag(0));
            }
            WalRecord::decode(body)
        });
        match parsed {
            Ok(rec) => {
                replay.records.push(rec);
                replay.frames += 1;
                pos = cur + len as usize;
                replay.valid_len = pos as u64;
            }
            Err(_) => {
                replay.tail = torn(frame_start);
                return Ok(replay);
            }
        }
    }
}

/// Appends sealed records to a WAL file. All writes go through a
/// [`DiskGuard`]; an update is durable only once [`WalWriter::sync`]
/// returns.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    /// Nonce of the next frame (= frames written so far).
    next_nonce: u64,
    /// Logical file length after every successful append.
    len: u64,
    /// Length known durable (covered by the last fsync).
    synced_len: u64,
    /// Set when a failed append or sync may have left the on-disk tail in
    /// an unknown state that could not be rolled back. A poisoned writer
    /// refuses every further append/sync ([`WalError::Poisoned`]) so an
    /// acknowledged record can never land past a torn frame, where replay
    /// would silently drop it.
    poisoned: bool,
}

impl WalWriter {
    /// Creates (or truncates) a WAL file: header written and fsync'd.
    pub fn create(path: &Path, guard: &mut DiskGuard) -> Result<Self, WalError> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        let mut w = WalWriter {
            file,
            path: path.to_path_buf(),
            next_nonce: 0,
            len: 0,
            synced_len: 0,
            poisoned: false,
        };
        w.write_guarded(WAL_MAGIC, guard)?;
        w.len = WAL_MAGIC.len() as u64;
        w.sync(guard)?;
        Ok(w)
    }

    /// Re-opens a WAL at the crash-consistent prefix `replay` found:
    /// truncates any torn tail (making the truncation durable) and
    /// positions for appends. A log whose header never made it to disk is
    /// recreated from scratch.
    pub fn resume(
        path: &Path,
        replay: &WalReplay,
        guard: &mut DiskGuard,
    ) -> Result<Self, WalError> {
        if replay.valid_len < WAL_MAGIC.len() as u64 {
            return Self::create(path, guard);
        }
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(replay.valid_len)?;
        let mut w = WalWriter {
            file,
            path: path.to_path_buf(),
            next_nonce: replay.frames,
            len: replay.valid_len,
            synced_len: replay.valid_len,
            poisoned: false,
        };
        w.file.seek(SeekFrom::End(0))?;
        w.file.sync_data()?;
        Ok(w)
    }

    /// The WAL file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record. Not durable until [`WalWriter::sync`].
    pub fn append(&mut self, rec: &WalRecord, guard: &mut DiskGuard) -> Result<(), WalError> {
        if self.poisoned {
            return Err(WalError::Poisoned);
        }
        let sealed = seal(self.next_nonce, &rec.encode());
        let mut frame = Vec::with_capacity(4 + sealed.len());
        wirefmt::encode_u32(sealed.len() as u32, &mut frame);
        frame.extend_from_slice(&sealed);
        self.write_guarded(&frame, guard)?;
        self.len += frame.len() as u64;
        self.next_nonce += 1;
        Ok(())
    }

    /// Forces everything appended so far to disk. Only after this returns
    /// may the corresponding updates be acknowledged.
    pub fn sync(&mut self, guard: &mut DiskGuard) -> Result<(), WalError> {
        if self.poisoned {
            return Err(WalError::Poisoned);
        }
        if guard.grant(1) == 0 {
            // Crash between write and fsync: the appended bytes may or
            // may not have reached the platter. The simulated process is
            // dead — this writer must never accept another byte.
            self.poisoned = true;
            self.crash_cleanup(guard);
            return Err(WalError::CrashInjected);
        }
        if let Err(e) = self.file.sync_data() {
            // Whether the appended bytes are durable is now unknowable;
            // nothing may ever be acknowledged through this writer again.
            self.poisoned = true;
            return Err(WalError::Io(e));
        }
        self.synced_len = self.len;
        Ok(())
    }

    /// Writes `bytes`, honouring the guard: a crash mid-grant leaves the
    /// allowed prefix on disk (a torn write) and aborts.
    fn write_guarded(&mut self, bytes: &[u8], guard: &mut DiskGuard) -> Result<(), WalError> {
        let allowed = guard.grant(bytes.len() as u64) as usize;
        if let Err(e) = self.file.write_all(&bytes[..allowed]) {
            // A real I/O failure: an unknown prefix of the frame may be on
            // disk. Cut the file back to the last good length so a later
            // append cannot land past a torn frame; if even that fails,
            // poison the writer.
            self.poisoned = self.truncate_to_len().is_err();
            return Err(WalError::Io(e));
        }
        if allowed < bytes.len() {
            self.poisoned = true;
            self.crash_cleanup(guard);
            return Err(WalError::CrashInjected);
        }
        Ok(())
    }

    /// Truncates the file back to the last successfully-appended length,
    /// dropping a torn frame, and repositions for appends.
    fn truncate_to_len(&mut self) -> std::io::Result<()> {
        self.file.set_len(self.len)?;
        self.file.seek(SeekFrom::Start(self.len))?;
        Ok(())
    }

    /// Models what the injected crash leaves behind: with
    /// `drop_unsynced`, everything past the last fsync barrier vanishes.
    fn crash_cleanup(&mut self, guard: &DiskGuard) {
        if guard.drops_unsynced() {
            let _ = self.file.set_len(self.synced_len);
        }
    }
}

/// Counters a [`GroupCommitWal`] keeps, for amortization assertions and
/// the E13 tables: `syncs / appends` is the group-commit win.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GroupCommitStats {
    /// Records appended (each acked caller contributed at least one).
    pub appends: u64,
    /// Physical fsyncs issued. With concurrent callers this is strictly
    /// less than `appends`: one shared fsync acks a whole in-flight group.
    pub syncs: u64,
}

struct GroupState {
    wal: WalWriter,
    guard: DiskGuard,
    /// A leader is currently fsyncing outside the lock.
    leader_active: bool,
    stats: GroupCommitStats,
}

/// A thread-safe group-commit front-end over a [`WalWriter`].
///
/// Concurrent callers funnel through [`GroupCommitWal::append_and_sync`]:
/// each appends its sealed frame under the lock, then either *leads* —
/// issuing one `fsync` that covers every frame appended so far — or
/// *follows*, parking until a leader's shared sync covers its frame.
/// In-flight appends from N callers thus collapse into one physical
/// fsync, amortizing the per-update sync that dominates the durable
/// pipeline's cost, while preserving the ack invariant exactly: a caller
/// returns `Ok` only once its own frame is fsync'd.
///
/// The leader fsyncs on a cloned file handle **outside** the lock, so
/// followers keep appending during the disk wait and the next leader's
/// sync covers them all — the classic group-commit pipeline. Correctness
/// of the handoff: the leader captures the logical length under the lock
/// *before* releasing it, and every byte below that length was fully
/// written (under the lock) before the fsync began, so crediting
/// durability up to the captured length is sound.
///
/// Failure semantics are inherited from [`WalWriter`]: a failed append
/// or sync poisons the writer, every caller in the affected group gets
/// the error (or [`WalError::Poisoned`]), and no later append can land
/// past a torn frame. Crash injection through the shared [`DiskGuard`]
/// stays deterministic — grants happen under the lock, in arrival order.
pub struct GroupCommitWal {
    state: Mutex<GroupState>,
    /// Signals followers when a shared sync lands (or fails).
    synced: Condvar,
}

impl GroupCommitWal {
    /// Wraps a writer (and the guard metering it) for shared use.
    pub fn new(wal: WalWriter, guard: DiskGuard) -> Self {
        GroupCommitWal {
            state: Mutex::new(GroupState {
                wal,
                guard,
                leader_active: false,
                stats: GroupCommitStats::default(),
            }),
            synced: Condvar::new(),
        }
    }

    /// Appends `rec` and returns once a (possibly shared) fsync covers
    /// it — the record is durable when this returns `Ok`. See the type
    /// docs for the leader/follower protocol and failure semantics.
    pub fn append_and_sync(&self, rec: &WalRecord) -> Result<(), WalError> {
        let mut st = self.state.lock().expect("group wal lock");
        {
            let s = &mut *st;
            s.wal.append(rec, &mut s.guard)?;
            s.stats.appends += 1;
        }
        let target = st.wal.len;
        loop {
            if st.wal.synced_len >= target {
                return Ok(());
            }
            if st.wal.poisoned {
                return Err(WalError::Poisoned);
            }
            if st.leader_active {
                // A leader's fsync is in flight; it may not cover our
                // frame (we may have appended after it captured its
                // length), so re-check on wake rather than assume.
                st = self.synced.wait(st).expect("group wal lock");
                continue;
            }
            // Become the leader for everything appended so far.
            st.leader_active = true;
            let end = st.wal.len;
            if st.guard.grant(1) == 0 {
                // Injected crash at the shared sync: the whole in-flight
                // group dies unacknowledged, exactly like a single-caller
                // sync crash.
                st.wal.poisoned = true;
                let s = &mut *st;
                s.wal.crash_cleanup(&s.guard);
                st.leader_active = false;
                self.synced.notify_all();
                return Err(WalError::CrashInjected);
            }
            let file = match st.wal.file.try_clone() {
                Ok(f) => f,
                Err(e) => {
                    st.wal.poisoned = true;
                    st.leader_active = false;
                    self.synced.notify_all();
                    return Err(WalError::Io(e));
                }
            };
            drop(st);
            let res = file.sync_data();
            st = self.state.lock().expect("group wal lock");
            st.leader_active = false;
            match res {
                Ok(()) => {
                    st.wal.synced_len = st.wal.synced_len.max(end);
                    st.stats.syncs += 1;
                    self.synced.notify_all();
                    // Our own frame is ≤ `end` by construction, but loop
                    // anyway: the invariant lives in one place.
                }
                Err(e) => {
                    // Whether the group's bytes are durable is unknowable.
                    st.wal.poisoned = true;
                    self.synced.notify_all();
                    return Err(WalError::Io(e));
                }
            }
        }
    }

    /// Counters so far (appends and physical syncs).
    pub fn stats(&self) -> GroupCommitStats {
        self.state.lock().expect("group wal lock").stats
    }

    /// Has an earlier failure poisoned the underlying writer?
    pub fn is_poisoned(&self) -> bool {
        self.state.lock().expect("group wal lock").wal.poisoned
    }

    /// Tears the front-end down, returning the writer and guard (e.g. to
    /// run recovery through [`replay_wal`] + [`WalWriter::resume`]).
    pub fn into_inner(self) -> (WalWriter, DiskGuard) {
        let st = self.state.into_inner().expect("group wal lock");
        (st.wal, st.guard)
    }
}

/// One registered constraint as persisted in a checkpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConstraintRecord {
    /// Registration name.
    pub name: String,
    /// Canonical source text (re-parsed at recovery).
    pub source: String,
    /// Fingerprint of the delta-plan set compiled from the source, so
    /// recovery can tell whether recompilation produced the same plans.
    pub plan_sig: u64,
}

/// One stage-4 verdict persisted in a checkpoint: restored after
/// recovery only if its relations are bytewise the checkpoint's (fresh
/// `TupleSnapshot` pins are taken at restore time).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointVerdict {
    /// Constraint name.
    pub constraint: String,
    /// The update identity the verdict is keyed on.
    pub update: Update,
    /// The memoized verdict.
    pub violated: bool,
    /// Remote tuples accounting captured with the verdict.
    pub tuples: u64,
    /// Remote bytes accounting captured with the verdict.
    pub bytes: u64,
}

/// A full durable snapshot of manager state.
#[derive(Debug)]
pub struct Checkpoint {
    /// [`Database::version`] at checkpoint time.
    pub version: u64,
    /// Sequence number of the last applied update folded into `db`
    /// (0 = none); replay skips `Apply` records at or below it.
    pub last_seq: u64,
    /// Opaque solver-domain tag owned by the manager layer.
    pub solver_domain: u8,
    /// The full database.
    pub db: Database,
    /// Registered constraints, in registration order.
    pub constraints: Vec<ConstraintRecord>,
    /// Exportable stage-4 verdicts.
    pub verdicts: Vec<CheckpointVerdict>,
}

impl Checkpoint {
    fn encode_body(&self) -> Vec<u8> {
        let mut out = Vec::new();
        wirefmt::encode_u64(self.version, &mut out);
        wirefmt::encode_u64(self.last_seq, &mut out);
        out.push(self.solver_domain);
        let decls: Vec<_> = self.db.decls().collect();
        wirefmt::encode_u32(decls.len() as u32, &mut out);
        for d in decls {
            wirefmt::encode_str(d.name.as_str(), &mut out);
            wirefmt::encode_u32(d.arity as u32, &mut out);
            encode_locality(d.locality, &mut out);
            let rel = self.db.relation(d.name.as_str()).expect("declared");
            let rows: Vec<&crate::tuple::Tuple> = rel.iter().collect();
            wirefmt::encode_rows(rows.into_iter(), &mut out);
        }
        wirefmt::encode_u32(self.constraints.len() as u32, &mut out);
        for c in &self.constraints {
            wirefmt::encode_str(&c.name, &mut out);
            wirefmt::encode_str(&c.source, &mut out);
            wirefmt::encode_u64(c.plan_sig, &mut out);
        }
        wirefmt::encode_u32(self.verdicts.len() as u32, &mut out);
        for v in &self.verdicts {
            wirefmt::encode_str(&v.constraint, &mut out);
            encode_update(&v.update, &mut out);
            out.push(v.violated as u8);
            wirefmt::encode_u64(v.tuples, &mut out);
            wirefmt::encode_u64(v.bytes, &mut out);
        }
        out
    }

    fn decode_body(buf: &[u8]) -> Result<Checkpoint, WireError> {
        let mut pos = 0;
        let version = wirefmt::decode_u64(buf, &mut pos)?;
        let last_seq = wirefmt::decode_u64(buf, &mut pos)?;
        let solver_domain = take_u8(buf, &mut pos)?;
        let mut db = Database::new();
        let n_decls = wirefmt::decode_u32(buf, &mut pos)?;
        for _ in 0..n_decls {
            let name = wirefmt::decode_str(buf, &mut pos)?;
            let arity = wirefmt::decode_u32(buf, &mut pos)? as usize;
            let locality = decode_locality(buf, &mut pos)?;
            db.declare(&name, arity, locality)
                .map_err(|_| WireError::BadTag(1))?;
            for t in wirefmt::decode_rows(buf, &mut pos)? {
                db.insert(&name, t).map_err(|_| WireError::BadTag(1))?;
            }
        }
        db.force_version(version);
        let mut constraints = Vec::new();
        let n_constraints = wirefmt::decode_u32(buf, &mut pos)?;
        for _ in 0..n_constraints {
            constraints.push(ConstraintRecord {
                name: wirefmt::decode_str(buf, &mut pos)?,
                source: wirefmt::decode_str(buf, &mut pos)?,
                plan_sig: wirefmt::decode_u64(buf, &mut pos)?,
            });
        }
        let mut verdicts = Vec::new();
        let n_verdicts = wirefmt::decode_u32(buf, &mut pos)?;
        for _ in 0..n_verdicts {
            verdicts.push(CheckpointVerdict {
                constraint: wirefmt::decode_str(buf, &mut pos)?,
                update: decode_update(buf, &mut pos)?,
                violated: take_u8(buf, &mut pos)? != 0,
                tuples: wirefmt::decode_u64(buf, &mut pos)?,
                bytes: wirefmt::decode_u64(buf, &mut pos)?,
            });
        }
        if pos != buf.len() {
            return Err(WireError::Truncated);
        }
        Ok(Checkpoint {
            version,
            last_seq,
            solver_domain,
            db,
            constraints,
            verdicts,
        })
    }
}

/// Writes a checkpoint atomically: staged to `checkpoint.bin.tmp`,
/// fsync'd, then renamed over `checkpoint.bin`. The fsync and the rename
/// each charge the guard, so the injected-crash schedule covers "tmp
/// fully written but never renamed" — recovery must ignore it.
pub fn write_checkpoint(
    dir: &Path,
    ckpt: &Checkpoint,
    guard: &mut DiskGuard,
) -> Result<(), WalError> {
    let sealed = seal(ckpt.version, &ckpt.encode_body());
    let mut bytes = Vec::with_capacity(CKPT_MAGIC.len() + 4 + sealed.len());
    bytes.extend_from_slice(CKPT_MAGIC);
    wirefmt::encode_u32(sealed.len() as u32, &mut bytes);
    bytes.extend_from_slice(&sealed);

    let tmp = dir.join(CHECKPOINT_TMP);
    let mut file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(&tmp)?;
    let allowed = guard.grant(bytes.len() as u64) as usize;
    file.write_all(&bytes[..allowed])?;
    if allowed < bytes.len() {
        if guard.drops_unsynced() {
            // The staged bytes never reached the platter; what survives
            // is an empty (or vanished) tmp file.
            let _ = file.set_len(0);
        }
        return Err(WalError::CrashInjected);
    }
    if guard.grant(1) == 0 {
        if guard.drops_unsynced() {
            let _ = file.set_len(0);
        }
        return Err(WalError::CrashInjected);
    }
    file.sync_data()?;
    if guard.grant(1) == 0 {
        // Crash between staging and rename: a complete, valid tmp file
        // is left behind. Recovery must ignore and remove it.
        return Err(WalError::CrashInjected);
    }
    std::fs::rename(&tmp, dir.join(CHECKPOINT_FILE))?;
    // Make the rename itself durable (best-effort; not all platforms
    // support fsync on directories).
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Reads the checkpoint in `dir`, first removing any staged
/// `checkpoint.bin.tmp` a crash left behind (complete or torn — either
/// way it was never committed). Returns the checkpoint (`None` when
/// there has never been one) and whether a leftover tmp was cleaned.
pub fn read_checkpoint(dir: &Path) -> Result<(Option<Checkpoint>, bool), WalError> {
    let tmp = dir.join(CHECKPOINT_TMP);
    let tmp_cleaned = match std::fs::remove_file(&tmp) {
        Ok(()) => true,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => false,
        Err(e) => return Err(WalError::Io(e)),
    };
    let path = dir.join(CHECKPOINT_FILE);
    let mut bytes = Vec::new();
    match File::open(&path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((None, tmp_cleaned)),
        Err(e) => return Err(WalError::Io(e)),
    }
    if bytes.len() < CKPT_MAGIC.len() || &bytes[..CKPT_MAGIC.len()] != CKPT_MAGIC {
        return Err(WalError::BadMagic);
    }
    let mut pos = CKPT_MAGIC.len();
    let len = wirefmt::decode_u32(&bytes, &mut pos)? as usize;
    if len as u64 > MAX_FRAME || pos + len > bytes.len() {
        return Err(WalError::Wire(WireError::Truncated));
    }
    let (nonce, body) = unseal(&bytes[pos..pos + len])?;
    let ckpt = Checkpoint::decode_body(body)?;
    if nonce != ckpt.version {
        return Err(WalError::Wire(WireError::Checksum {
            expected: ckpt.version,
            actual: nonce,
        }));
    }
    Ok((Some(ckpt), tmp_cleaned))
}

/// A unique scratch directory under the system temp dir, created on
/// call. Shared by the durability tests and the crash-soak harness so
/// concurrent runs never collide.
pub fn scratch_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("ccpi-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Declare {
                name: "emp".into(),
                arity: 3,
                locality: Locality::Local,
            },
            WalRecord::AddConstraint {
                name: "floor".into(),
                source: "panic :- emp(N,D,S) & S < 10.".into(),
            },
            WalRecord::Apply {
                seq: 1,
                update: Update::insert("emp", tuple!["jones", "shoe", 50]),
            },
            WalRecord::Apply {
                seq: 2,
                update: Update::delete("emp", tuple!["jones", "shoe", 50]),
            },
        ]
    }

    fn write_log(dir: &Path) -> (PathBuf, Vec<WalRecord>) {
        let path = dir.join(WAL_FILE);
        let mut guard = DiskGuard::new();
        let mut w = WalWriter::create(&path, &mut guard).unwrap();
        let recs = sample_records();
        for r in &recs {
            w.append(r, &mut guard).unwrap();
        }
        w.sync(&mut guard).unwrap();
        (path, recs)
    }

    #[test]
    fn wal_round_trips_all_record_kinds() {
        let dir = scratch_dir("wal-rt");
        let (path, recs) = write_log(&dir);
        let replay = replay_wal(&path).unwrap();
        assert_eq!(replay.records, recs);
        assert_eq!(replay.frames, recs.len() as u64);
        assert_eq!(replay.tail, WalTail::Clean);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn certified_apply_records_round_trip_alongside_plain_ones() {
        // Kept out of `sample_records` on purpose: the crash-soak byte
        // schedules pin the default record stream's exact lengths.
        let dir = scratch_dir("wal-cert");
        let path = dir.join(WAL_FILE);
        let mut guard = DiskGuard::new();
        let mut w = WalWriter::create(&path, &mut guard).unwrap();
        let recs = vec![
            WalRecord::Apply {
                seq: 1,
                update: Update::insert("emp", tuple!["jones", "shoe", 50]),
            },
            WalRecord::ApplyCertified {
                seq: 2,
                update: Update::insert("emp", tuple!["smith", "toy", 70]),
                certs: vec![
                    ("floor".into(), vec![0xde, 0xad, 0xbe, 0xef]),
                    ("ceiling".into(), Vec::new()),
                ],
            },
            WalRecord::ApplyCertified {
                seq: 3,
                update: Update::delete("emp", tuple!["jones", "shoe", 50]),
                certs: Vec::new(),
            },
        ];
        for r in &recs {
            w.append(r, &mut guard).unwrap();
        }
        w.sync(&mut guard).unwrap();
        let replay = replay_wal(&path).unwrap();
        assert_eq!(replay.records, recs);
        assert_eq!(replay.tail, WalTail::Clean);

        // A truncated certificate payload is corruption, not a panic or
        // an over-read: every strict prefix of the body must fail to
        // decode.
        let body = recs[1].encode();
        for cut in 1..body.len() {
            assert!(WalRecord::decode(&body[..cut]).is_err(), "prefix {cut}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn migration_records_round_trip_and_reject_prefixes() {
        let dir = scratch_dir("wal-mig");
        let path = dir.join(WAL_FILE);
        let mut guard = DiskGuard::new();
        let mut w = WalWriter::create(&path, &mut guard).unwrap();
        let recs = vec![
            WalRecord::MigrationBegin {
                from_epoch: 0,
                to_epoch: 1,
                spans: 3,
            },
            WalRecord::MigrationCommit { epoch: 1 },
            WalRecord::MigrationBegin {
                from_epoch: 1,
                to_epoch: 2,
                spans: 1,
            },
            WalRecord::MigrationAbort { epoch: 2 },
        ];
        for r in &recs {
            w.append(r, &mut guard).unwrap();
        }
        w.sync(&mut guard).unwrap();
        let replay = replay_wal(&path).unwrap();
        assert_eq!(replay.records, recs);
        assert_eq!(replay.tail, WalTail::Clean);
        for rec in &recs {
            let body = rec.encode();
            for cut in 0..body.len() {
                assert!(WalRecord::decode(&body[..cut]).is_err(), "prefix {cut}");
            }
            let mut padded = body.clone();
            padded.push(0);
            assert!(
                WalRecord::decode(&padded).is_err(),
                "trailing byte must be rejected"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn migration_epoch_lands_in_exactly_one_epoch() {
        let begin = |from: u64, to: u64| WalRecord::MigrationBegin {
            from_epoch: from,
            to_epoch: to,
            spans: 1,
        };
        // No migrations at all: epoch 0.
        assert_eq!(migration_epoch(&sample_records()), 0);
        // Committed migration advances.
        assert_eq!(
            migration_epoch(&[begin(0, 1), WalRecord::MigrationCommit { epoch: 1 }]),
            1
        );
        // Aborted migration stays at the source epoch.
        assert_eq!(
            migration_epoch(&[
                begin(0, 1),
                WalRecord::MigrationCommit { epoch: 1 },
                begin(1, 2),
                WalRecord::MigrationAbort { epoch: 2 },
            ]),
            1
        );
        // Crash mid-copy (unterminated begin) is an implicit abort.
        assert_eq!(
            migration_epoch(&[
                begin(0, 1),
                WalRecord::MigrationCommit { epoch: 1 },
                begin(1, 2),
            ]),
            1
        );
        // Interleaved applies don't disturb the fold.
        assert_eq!(
            migration_epoch(&[
                begin(0, 1),
                WalRecord::Apply {
                    seq: 1,
                    update: Update::insert("emp", tuple!["jones", "shoe", 50]),
                },
                WalRecord::MigrationCommit { epoch: 1 },
            ]),
            1
        );
    }

    #[test]
    fn truncated_tail_record_ends_replay_at_last_complete_record() {
        let dir = scratch_dir("wal-trunc");
        let (path, recs) = write_log(&dir);
        let full = std::fs::read(&path).unwrap();
        let clean = replay_wal(&path).unwrap();
        // Cut anywhere strictly inside the last frame: replay must drop
        // exactly that frame and keep the prefix.
        let last_start = {
            // Re-derive the last frame's start by replaying the first
            // n-1 records' prefix length.
            let mut w = DiskGuard::new();
            let tmp = dir.join("prefix.bin");
            let mut writer = WalWriter::create(&tmp, &mut w).unwrap();
            for r in &recs[..recs.len() - 1] {
                writer.append(r, &mut w).unwrap();
            }
            writer.sync(&mut w).unwrap();
            std::fs::metadata(&tmp).unwrap().len() as usize
        };
        for cut in [last_start + 1, last_start + 5, full.len() - 1] {
            std::fs::write(&path, &full[..cut]).unwrap();
            let replay = replay_wal(&path).unwrap();
            assert_eq!(replay.records, recs[..recs.len() - 1]);
            assert_eq!(
                replay.tail,
                WalTail::Torn {
                    dropped_bytes: (cut - last_start) as u64
                }
            );
            assert_eq!(replay.valid_len, last_start as u64);
        }
        assert_eq!(clean.valid_len, full.len() as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flipped_checksum_ends_replay_before_the_record() {
        let dir = scratch_dir("wal-flip");
        let (path, recs) = write_log(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one bit in the last frame's payload.
        let n = bytes.len();
        bytes[n - 12] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let replay = replay_wal(&path).unwrap();
        assert_eq!(replay.records, recs[..recs.len() - 1]);
        assert!(matches!(replay.tail, WalTail::Torn { .. }));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicated_record_is_rejected_by_its_nonce() {
        let dir = scratch_dir("wal-dup");
        let (path, recs) = write_log(&dir);
        // Duplicate the final frame verbatim: checksum valid, position
        // wrong.
        let full = std::fs::read(&path).unwrap();
        let mut prefix_guard = DiskGuard::new();
        let tmp = dir.join("prefix.bin");
        let mut writer = WalWriter::create(&tmp, &mut prefix_guard).unwrap();
        for r in &recs[..recs.len() - 1] {
            writer.append(r, &mut prefix_guard).unwrap();
        }
        writer.sync(&mut prefix_guard).unwrap();
        let last_start = std::fs::metadata(&tmp).unwrap().len() as usize;
        let mut bytes = full.clone();
        bytes.extend_from_slice(&full[last_start..]);
        std::fs::write(&path, &bytes).unwrap();
        let replay = replay_wal(&path).unwrap();
        assert_eq!(replay.records, recs, "original records all survive");
        assert!(
            matches!(replay.tail, WalTail::Torn { .. }),
            "the duplicate is dropped, not replayed twice"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_truncates_torn_tail_and_appends() {
        let dir = scratch_dir("wal-resume");
        let (path, recs) = write_log(&dir);
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let replay = replay_wal(&path).unwrap();
        assert_eq!(replay.records.len(), recs.len() - 1);
        let mut guard = DiskGuard::new();
        let mut w = WalWriter::resume(&path, &replay, &mut guard).unwrap();
        let extra = WalRecord::Apply {
            seq: 9,
            update: Update::insert("emp", tuple!["smith", "toy", 70]),
        };
        w.append(&extra, &mut guard).unwrap();
        w.sync(&mut guard).unwrap();
        let replay2 = replay_wal(&path).unwrap();
        let mut expect = recs[..recs.len() - 1].to_vec();
        expect.push(extra);
        assert_eq!(replay2.records, expect);
        assert_eq!(replay2.tail, WalTail::Clean);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_crash_mid_append_leaves_a_torn_write() {
        let dir = scratch_dir("wal-crash");
        let path = dir.join(WAL_FILE);
        let mut guard = DiskGuard::new();
        let mut w = WalWriter::create(&path, &mut guard).unwrap();
        let recs = sample_records();
        w.append(&recs[0], &mut guard).unwrap();
        w.sync(&mut guard).unwrap();
        let synced = std::fs::metadata(&path).unwrap().len();
        // Arm a budget that dies 5 bytes into the next frame.
        let mut armed = DiskGuard::with_budget(5, false);
        assert!(matches!(
            w.append(&recs[2], &mut armed),
            Err(WalError::CrashInjected)
        ));
        assert_eq!(std::fs::metadata(&path).unwrap().len(), synced + 5);
        let replay = replay_wal(&path).unwrap();
        assert_eq!(replay.records, recs[..1]);
        assert_eq!(replay.tail, WalTail::Torn { dropped_bytes: 5 });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writer_is_poisoned_after_a_failed_append() {
        let dir = scratch_dir("wal-poison");
        let path = dir.join(WAL_FILE);
        let mut guard = DiskGuard::new();
        let mut w = WalWriter::create(&path, &mut guard).unwrap();
        let recs = sample_records();
        w.append(&recs[0], &mut guard).unwrap();
        w.sync(&mut guard).unwrap();
        // A failed append leaves a torn frame; the writer must refuse to
        // put further (acknowledgeable) records past it.
        let mut armed = DiskGuard::with_budget(5, false);
        assert!(matches!(
            w.append(&recs[1], &mut armed),
            Err(WalError::CrashInjected)
        ));
        assert!(matches!(
            w.append(&recs[2], &mut guard),
            Err(WalError::Poisoned)
        ));
        assert!(matches!(w.sync(&mut guard), Err(WalError::Poisoned)));
        // Recovery path: replay drops the torn frame, resume truncates it
        // and reopens a usable writer.
        let replay = replay_wal(&path).unwrap();
        assert_eq!(replay.records, recs[..1]);
        let mut w2 = WalWriter::resume(&path, &replay, &mut guard).unwrap();
        w2.append(&recs[2], &mut guard).unwrap();
        w2.sync(&mut guard).unwrap();
        let replay2 = replay_wal(&path).unwrap();
        assert_eq!(replay2.records, vec![recs[0].clone(), recs[2].clone()]);
        assert_eq!(replay2.tail, WalTail::Clean);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_crash_can_drop_unsynced_bytes() {
        let dir = scratch_dir("wal-dropun");
        let path = dir.join(WAL_FILE);
        let mut guard = DiskGuard::new();
        let mut w = WalWriter::create(&path, &mut guard).unwrap();
        let recs = sample_records();
        w.append(&recs[0], &mut guard).unwrap();
        w.sync(&mut guard).unwrap();
        let synced = std::fs::metadata(&path).unwrap().len();
        // Write a full record, then crash at the fsync with the page
        // cache lost: the record vanishes entirely.
        let mut armed = DiskGuard::with_budget(1000, true);
        w.append(&recs[2], &mut armed).unwrap();
        armed.budget = Some(0);
        assert!(matches!(w.sync(&mut armed), Err(WalError::CrashInjected)));
        assert_eq!(std::fs::metadata(&path).unwrap().len(), synced);
        let replay = replay_wal(&path).unwrap();
        assert_eq!(replay.records, recs[..1]);
        assert_eq!(replay.tail, WalTail::Clean);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn sample_checkpoint() -> Checkpoint {
        let mut db = Database::new();
        db.declare("emp", 3, Locality::Local).unwrap();
        db.declare("dept", 1, Locality::Remote).unwrap();
        db.insert("emp", tuple!["jones", "shoe", 50]).unwrap();
        db.insert("dept", tuple!["shoe"]).unwrap();
        let version = db.version();
        Checkpoint {
            version,
            last_seq: 42,
            solver_domain: 1,
            db,
            constraints: vec![ConstraintRecord {
                name: "floor".into(),
                source: "panic :- emp(N,D,S) & S < 10.".into(),
                plan_sig: 0xdead_beef,
            }],
            verdicts: vec![CheckpointVerdict {
                constraint: "floor".into(),
                update: Update::insert("emp", tuple!["smith", "toy", 70]),
                violated: false,
                tuples: 3,
                bytes: 17,
            }],
        }
    }

    #[test]
    fn checkpoint_round_trips_and_restores_the_version() {
        let dir = scratch_dir("ckpt-rt");
        let ckpt = sample_checkpoint();
        let mut guard = DiskGuard::new();
        write_checkpoint(&dir, &ckpt, &mut guard).unwrap();
        let (loaded, cleaned) = read_checkpoint(&dir).unwrap();
        let loaded = loaded.unwrap();
        assert!(!cleaned);
        assert_eq!(loaded.version, ckpt.version);
        assert_eq!(loaded.db.version(), ckpt.version);
        assert_eq!(loaded.last_seq, 42);
        assert_eq!(loaded.solver_domain, 1);
        assert_eq!(loaded.constraints, ckpt.constraints);
        assert_eq!(loaded.verdicts, ckpt.verdicts);
        assert_eq!(
            loaded.db.relation("emp").unwrap(),
            ckpt.db.relation("emp").unwrap()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn leftover_checkpoint_tmp_is_ignored_and_cleaned() {
        let dir = scratch_dir("ckpt-tmp");
        let ckpt = sample_checkpoint();
        let mut guard = DiskGuard::new();
        write_checkpoint(&dir, &ckpt, &mut guard).unwrap();
        // A later checkpoint crashed right before its rename, leaving a
        // complete tmp behind — it was never committed and must lose to
        // the renamed file.
        let mut newer = sample_checkpoint();
        newer.last_seq = 99;
        newer.db.insert("dept", tuple!["toy"]).unwrap();
        newer.version = newer.db.version();
        // Size the write in a throwaway dir, then arm a budget that
        // exhausts exactly at the rename charge: full write and fsync
        // succeed, the rename never happens.
        let mut sized = DiskGuard::new();
        let probe_dir = scratch_dir("ckpt-tmp-probe");
        write_checkpoint(&probe_dir, &newer, &mut sized).unwrap();
        std::fs::remove_dir_all(&probe_dir).unwrap();
        let mut armed = DiskGuard::with_budget(sized.written - 1, false);
        assert!(matches!(
            write_checkpoint(&dir, &newer, &mut armed),
            Err(WalError::CrashInjected)
        ));
        assert!(dir.join(CHECKPOINT_TMP).exists(), "tmp left behind");
        let (loaded, cleaned) = read_checkpoint(&dir).unwrap();
        assert!(cleaned, "tmp removed at recovery");
        assert!(!dir.join(CHECKPOINT_TMP).exists());
        assert_eq!(loaded.unwrap().last_seq, 42, "committed checkpoint wins");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_acks_every_concurrent_appender_durably() {
        use std::sync::Arc;
        let dir = scratch_dir("gcw-concurrent");
        let path = dir.join(WAL_FILE);
        let mut guard = DiskGuard::new();
        let w = WalWriter::create(&path, &mut guard).unwrap();
        let group = Arc::new(GroupCommitWal::new(w, guard));
        let threads = 8;
        let per_thread = 25;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let g = Arc::clone(&group);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        let rec = WalRecord::Apply {
                            seq: (t * per_thread + i) as u64,
                            update: Update::insert("emp", tuple![t as i64, i as i64]),
                        };
                        g.append_and_sync(&rec).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = group.stats();
        assert_eq!(stats.appends, (threads * per_thread) as u64);
        assert!(stats.syncs >= 1 && stats.syncs <= stats.appends);
        // Every acked record is on disk, in a clean log with consecutive
        // nonces (replay validates the nonces itself).
        let replay = replay_wal(&path).unwrap();
        assert_eq!(replay.tail, WalTail::Clean);
        assert_eq!(replay.records.len(), threads * per_thread);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_shares_one_fsync_across_a_parked_group() {
        use std::sync::Arc;
        let dir = scratch_dir("gcw-amortize");
        let path = dir.join(WAL_FILE);
        let mut guard = DiskGuard::new();
        let w = WalWriter::create(&path, &mut guard).unwrap();
        let group = Arc::new(GroupCommitWal::new(w, guard));
        // Build a real in-flight group: many appenders started together
        // behind a barrier. The first leader's fsync covers whatever
        // landed before it captured the length; stragglers share later
        // syncs. With 16 racing appenders the physical sync count must
        // come in under one-per-record on any schedule where at least two
        // overlap; assert the invariant that can never break — syncs ≤
        // appends — plus full durability of every ack.
        let n = 16;
        let barrier = Arc::new(std::sync::Barrier::new(n));
        let handles: Vec<_> = (0..n)
            .map(|t| {
                let g = Arc::clone(&group);
                let b = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    b.wait();
                    let rec = WalRecord::Apply {
                        seq: t as u64,
                        update: Update::insert("emp", tuple![t as i64]),
                    };
                    g.append_and_sync(&rec).unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = group.stats();
        assert_eq!(stats.appends, n as u64);
        assert!(stats.syncs <= stats.appends);
        assert_eq!(
            replay_wal(&path).unwrap().records.len(),
            n,
            "every acked append is durable"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_crash_poisons_the_whole_group() {
        use std::sync::Arc;
        let dir = scratch_dir("gcw-crash");
        let path = dir.join(WAL_FILE);
        let mut guard = DiskGuard::new();
        let w = WalWriter::create(&path, &mut guard).unwrap();
        // Enough budget for a couple of appends, then the pipeline dies
        // (mid-append or at the shared sync grant, depending on the
        // schedule). The invariant under every schedule: a caller acked
        // `Ok` has its record in the crash-consistent prefix, everyone
        // else gets an error, and the group ends poisoned.
        let armed = DiskGuard::with_budget(120, false);
        let group = Arc::new(GroupCommitWal::new(w, armed));
        let handles: Vec<_> = (0..6)
            .map(|t| {
                let g = Arc::clone(&group);
                std::thread::spawn(move || {
                    let rec = WalRecord::Apply {
                        seq: t as u64,
                        update: Update::insert("emp", tuple![t as i64, 0i64, 0i64]),
                    };
                    (t as u64, g.append_and_sync(&rec))
                })
            })
            .collect();
        let results: Vec<(u64, Result<(), WalError>)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(
            results.iter().any(|(_, r)| r.is_err()),
            "the armed budget must fire"
        );
        assert!(group.is_poisoned());
        let durable: Vec<u64> = replay_wal(&path)
            .unwrap()
            .records
            .iter()
            .map(|r| match r {
                WalRecord::Apply { seq, .. } => *seq,
                _ => unreachable!(),
            })
            .collect();
        for (seq, result) in &results {
            if result.is_ok() {
                assert!(
                    durable.contains(seq),
                    "acked record {seq} missing from the crash-consistent prefix"
                );
            }
        }
        // Further traffic is refused until recovery.
        let late = WalRecord::Apply {
            seq: 99,
            update: Update::insert("emp", tuple![9i64]),
        };
        assert!(matches!(
            group.append_and_sync(&late),
            Err(WalError::Poisoned)
        ));
        // Recovery path: replay drops any torn tail, resume reopens.
        let (_w, _g) = Arc::try_unwrap(group)
            .ok()
            .map(|g| g.into_inner())
            .expect("sole owner");
        let replay = replay_wal(&path).unwrap();
        let mut fresh = DiskGuard::new();
        let mut w2 = WalWriter::resume(&path, &replay, &mut fresh).unwrap();
        w2.append(&late, &mut fresh).unwrap();
        w2.sync(&mut fresh).unwrap();
        assert_eq!(replay_wal(&path).unwrap().tail, WalTail::Clean);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_checkpoint_is_an_error_not_a_prefix() {
        let dir = scratch_dir("ckpt-corrupt");
        let ckpt = sample_checkpoint();
        let mut guard = DiskGuard::new();
        write_checkpoint(&dir, &ckpt, &mut guard).unwrap();
        let path = dir.join(CHECKPOINT_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n / 2] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_checkpoint(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
