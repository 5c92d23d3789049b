//! Durable manager state: write-ahead logging, checkpoints, recovery.
//!
//! A [`DurableManager`] wraps a [`ConstraintManager`] with the
//! storage-layer durability pipeline (`ccpi_storage::wal`):
//!
//! * **Write-ahead log** — an update is *acknowledged* (returned as
//!   applied) only after its `Apply` record is fsync'd. Declarations and
//!   constraint registrations are logged the same way, so the whole
//!   manager configuration survives a crash, not just the data.
//! * **Checkpoints** — periodically (or on demand) the full database,
//!   the registered constraint sources with their compiled delta-plan
//!   signatures, and the currently-valid stage-4 verdicts are serialized
//!   atomically (temp file + rename) and the WAL is rotated. Replay cost
//!   is bounded by the records since the last checkpoint.
//! * **Recovery** — [`DurableManager::recover`] loads the checkpoint
//!   (ignoring and removing any staged temp file a crash left behind),
//!   re-registers every constraint from source — which *recompiles* its
//!   engine, join plans, and delta plans — restores checkpointed stage-4
//!   verdicts, replays the crash-consistent prefix of the WAL, and then
//!   **audits**: one ground full evaluation per locally judgeable
//!   constraint must find the recovered state violation-free before the
//!   manager accepts traffic. Constraints that read remote relations are
//!   exempt from the audit and reported in
//!   [`RecoveryReport::audit_skipped_remote`]: the recovered local view
//!   holds no remote data, so a ground evaluation would judge contents
//!   that were never there — their admission-time checks ran hydrated.
//!
//! ## Admission semantics
//!
//! Unlike [`ConstraintManager::process`], which applies even violating
//! updates and leaves the decision to the caller, the durable pipeline
//! is an *admission* pipeline: [`DurableManager::process`] applies an
//! update only when its check reports neither a violation nor an
//! `Unknown` (an unverifiable update is not admissible). That is what makes
//! the recovery audit an invariant rather than a hope — every state this
//! manager ever persisted satisfied every audited constraint, which
//! is also the paper's §2 standing assumption that the incremental
//! checks themselves rely on.
//!
//! Registering a constraint is itself an admission decision:
//! [`DurableManager::add_constraint`] ground-evaluates the new
//! constraint against the current database and refuses registration
//! ([`DurableError::RegistrationRejected`]) when the data already
//! violates it — otherwise the registration would durably commit a store
//! whose every future recovery fails its audit. Remote-reading
//! constraints are exempt here exactly as the audit exempts them.
//!
//! Batch admission ([`DurableManager::process_updates`] and the remote
//! variant) *checks* the whole batch against the pre-batch state — the
//! reports keep [`ConstraintManager::check_updates`] semantics, and the
//! remote variant keeps its one-hydration-per-batch transport saving —
//! but *admits* against the evolving state: once an earlier update of
//! the batch has been applied, each later clean-looking update is
//! re-judged against the current database before its WAL record is
//! written, so two individually-clean but jointly-violating updates can
//! never both persist. A rejected update whose (pre-batch) report shows
//! no violation was rejected by this evolving-state re-check. For a
//! remote batch the re-check judges only constraints with no remote
//! atoms; remote-reading constraints keep their hydrated pre-batch
//! verdicts. Durability remains strictly per update: each admitted
//! update's WAL record is fsync'd *before* it is applied, so a crash
//! mid-batch never acknowledges an unlogged update.
//!
//! [`DurableManager::process_updates_grouped`] trades that per-update
//! durability boundary for throughput: the whole batch is one *commit
//! group* — every admitted record is appended (and applied in memory, so
//! the evolving-state re-judgment above is unchanged) and a **single
//! fsync** at the end covers the group. Acknowledgement moves to the
//! group boundary: nothing in the batch is acknowledged until that
//! shared fsync returns, and on any failure the caller must treat the
//! *entire* group as unacknowledged ([`BatchResult::completed`] comes
//! back empty). The admission service (`ccpi-server`) drives this path,
//! merging the in-flight requests of concurrent clients into one group
//! so N clients share one fsync; the group-commit invariant there —
//! ack ⇒ fsync'd ⇒ admitted under the serialized re-judgment — is
//! exactly this method's contract.
//!
//! ## Verdict-cache persistence
//!
//! Stage-4 verdict validity is pinned by [`TupleSnapshot`] pointer
//! equality, which cannot survive a process restart. A checkpoint
//! therefore captures the *contents* of every verdict whose pins are
//! live at checkpoint time; recovery re-installs them against the
//! freshly loaded relations **before** WAL replay, taking fresh pins.
//! Replaying a record that touches a relation then invalidates exactly
//! the restored verdicts that read it — the pin mechanism itself
//! enforces the "only where the pins revalidate" rule.
//!
//! [`TupleSnapshot`]: ccpi_storage::TupleSnapshot

use crate::manager::{ConstraintManager, ManagerError};
use crate::remote::RemoteSource;
use crate::report::CheckReport;
use ccpi_arith::{Domain, Solver};
use ccpi_audit::{Auditor, Certificate};
use ccpi_storage::wal::{
    read_checkpoint, replay_wal, write_checkpoint, Checkpoint, CheckpointVerdict, ConstraintRecord,
    DiskGuard, WalError, WalRecord, WalTail, WalWriter, WAL_FILE,
};
use ccpi_storage::{Database, Locality, Update};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Durability-layer failures.
#[derive(Debug)]
pub enum DurableError {
    /// The WAL or checkpoint pipeline failed (I/O, corruption, or an
    /// injected crash).
    Wal(WalError),
    /// The wrapped manager failed (parse, validation, storage).
    Manager(ManagerError),
    /// Recovery found no checkpoint — the directory never held a durable
    /// manager (or its creation crashed before the first checkpoint
    /// committed, in which case nothing was ever acknowledged).
    MissingCheckpoint,
    /// The recovery audit found constraints violated on the recovered
    /// state. The store is corrupt or was mutated outside the pipeline.
    AuditFailed(Vec<String>),
    /// [`DurableManager::add_constraint`] refused the registration: the
    /// database this manager already persisted violates the new
    /// constraint, so admitting it would make every future recovery fail
    /// its audit. Nothing was registered or logged.
    RegistrationRejected(String),
    /// Certificate-replay recovery found a logged certificate that does
    /// not re-verify against the replayed pre-state: tampered bytes, a
    /// stale instance, or an admission whose claimed verdict the
    /// independent auditor refutes. The store's history cannot be
    /// trusted — refuse to serve.
    CertificateRejected {
        /// Constraint the certificate claimed a verdict for.
        constraint: String,
        /// Sequence number of the WAL record carrying it.
        seq: u64,
        /// The auditor's rejection (or decode failure).
        reason: String,
    },
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Wal(e) => write!(f, "durability pipeline: {e}"),
            DurableError::Manager(e) => write!(f, "manager: {e}"),
            DurableError::MissingCheckpoint => {
                write!(f, "recovery found no committed checkpoint")
            }
            DurableError::AuditFailed(names) => {
                write!(
                    f,
                    "recovery audit failed: constraints violated on the recovered \
                     state: {}",
                    names.join(", ")
                )
            }
            DurableError::RegistrationRejected(name) => {
                write!(
                    f,
                    "constraint `{name}` rejected: the current database already \
                     violates it"
                )
            }
            DurableError::CertificateRejected {
                constraint,
                seq,
                reason,
            } => {
                write!(
                    f,
                    "certificate for `{constraint}` at seq {seq} rejected by the \
                     recovery auditor: {reason}"
                )
            }
        }
    }
}

impl std::error::Error for DurableError {}

impl From<WalError> for DurableError {
    fn from(e: WalError) -> Self {
        DurableError::Wal(e)
    }
}
impl From<ManagerError> for DurableError {
    fn from(e: ManagerError) -> Self {
        DurableError::Manager(e)
    }
}
impl From<ccpi_storage::StorageError> for DurableError {
    fn from(e: ccpi_storage::StorageError) -> Self {
        DurableError::Manager(ManagerError::Storage(e))
    }
}

impl DurableError {
    /// Was this the crash-soak's injected crash (as opposed to a real
    /// failure)?
    pub fn is_injected_crash(&self) -> bool {
        matches!(self, DurableError::Wal(WalError::CrashInjected))
    }
}

/// What [`DurableManager::recover`] did, for diagnostics and the crash
/// soak's assertions.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// [`Database::version`] recorded in the checkpoint.
    pub checkpoint_version: u64,
    /// Last applied sequence number folded into the checkpoint.
    pub checkpoint_seq: u64,
    /// WAL records replayed past the checkpoint (all kinds).
    pub replayed: usize,
    /// Of those, committed updates re-applied.
    pub replayed_applies: usize,
    /// WAL records skipped because the checkpoint already contained them
    /// (a crash landed between the checkpoint rename and the WAL
    /// rotation).
    pub skipped: usize,
    /// Bytes of torn or corrupt WAL tail dropped (never acknowledged).
    pub dropped_bytes: u64,
    /// Whether a staged checkpoint temp file was found and removed.
    pub tmp_cleaned: bool,
    /// Stage-4 verdicts re-installed from the checkpoint (WAL replay may
    /// then invalidate some again through their fresh pins).
    pub verdicts_restored: usize,
    /// Constraints whose recompiled delta plans no longer match the
    /// checkpointed signature — the plan compiler (or schema) changed
    /// under the checkpoint.
    pub plans_changed: Vec<String>,
    /// Constraints audited (and found to hold) on the recovered state.
    pub audited: usize,
    /// Constraints excluded from the recovery audit because they read
    /// remote relations: the recovered local view holds no remote data to
    /// judge them against (their admission-time checks ran hydrated).
    pub audit_skipped_remote: Vec<String>,
    /// Certificates decoded and re-verified during WAL replay
    /// ([`AuditMode::CertificateReplay`] only).
    pub certs_replayed: usize,
    /// Constraints whose end-of-recovery audit was discharged by
    /// certificate coverage — every replayed apply carried a verified
    /// certificate for them — instead of a ground full evaluation. This
    /// set *includes* remote-reading constraints (the certificates carry
    /// the remote rows the admission checks read), which the ground
    /// audit can only exempt.
    pub audited_by_certificate: usize,
}

/// How [`DurableManager::recover_with_audit`] establishes that the
/// recovered state is violation-free before accepting traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AuditMode {
    /// One ground full evaluation per locally judgeable constraint;
    /// remote-reading constraints are exempt (reported in
    /// [`RecoveryReport::audit_skipped_remote`]). The default.
    Ground,
    /// Re-verify the proof-carrying certificates logged with each apply
    /// (see [`DurableManager::set_certificate_logging`]) against the
    /// replayed pre-states, through the standalone `ccpi-audit` checker.
    /// A constraint covered by a verified certificate on *every*
    /// replayed apply skips the ground evaluation — including
    /// remote-reading constraints, whose certificates carry the remote
    /// rows their admission checks read. Uncovered constraints fall back
    /// to the ground audit (with its remote exemption). Any certificate
    /// that fails to decode or re-verify fails recovery with
    /// [`DurableError::CertificateRejected`].
    CertificateReplay,
}

/// Result of a durable batch: the acknowledged prefix, plus the error
/// that stopped the batch early (if any). Updates past `completed` were
/// never acknowledged — their WAL records never fsync'd.
#[derive(Debug)]
pub struct BatchResult {
    /// Per-update `(report, applied)` for the acknowledged prefix, in
    /// batch order.
    pub completed: Vec<(CheckReport, bool)>,
    /// `Some` when the pipeline died mid-batch (e.g. an injected crash).
    pub error: Option<DurableError>,
}

/// Wire-encodes a report's certificates for WAL logging. Empty (and
/// free) unless the manager has certificate emission enabled.
fn encode_certs(report: &CheckReport) -> Vec<(String, Vec<u8>)> {
    report
        .certificates
        .iter()
        .map(|(name, cert)| (name.clone(), cert.encode()))
        .collect()
}

fn domain_tag(domain: Domain) -> u8 {
    match domain {
        Domain::Dense => 0,
        Domain::Integer => 1,
    }
}

fn solver_for_tag(tag: u8) -> Solver {
    if tag == 1 {
        Solver::integer()
    } else {
        Solver::dense()
    }
}

/// A [`ConstraintManager`] whose state survives crashes. See the module
/// docs for the pipeline and its semantics.
pub struct DurableManager {
    inner: ConstraintManager,
    dir: PathBuf,
    wal: WalWriter,
    guard: DiskGuard,
    /// Sequence number the next applied update will be logged with.
    next_seq: u64,
    /// Applied updates since the last checkpoint.
    since_checkpoint: u64,
    /// Auto-checkpoint after this many applied updates (`None` = only on
    /// explicit [`DurableManager::checkpoint`] calls).
    checkpoint_every: Option<u64>,
    /// When set, admitted updates are logged as
    /// [`WalRecord::ApplyCertified`] carrying the admission check's
    /// proof-carrying certificates, enabling
    /// [`AuditMode::CertificateReplay`] at the next recovery.
    cert_logging: bool,
}

impl DurableManager {
    /// Creates a durable manager in `dir` (created if missing) over `db`
    /// with the dense-order solver. The seed state is checkpointed
    /// immediately: a store that exists is always recoverable.
    pub fn create(dir: &Path, db: Database) -> Result<Self, DurableError> {
        Self::create_with_solver(dir, db, Solver::dense())
    }

    /// [`DurableManager::create`] with an explicit solver domain.
    pub fn create_with_solver(
        dir: &Path,
        db: Database,
        solver: Solver,
    ) -> Result<Self, DurableError> {
        std::fs::create_dir_all(dir).map_err(WalError::Io)?;
        let inner = ConstraintManager::with_solver(db, solver);
        let mut mgr = DurableManager {
            inner,
            dir: dir.to_path_buf(),
            wal: WalWriter::create(&dir.join(WAL_FILE), &mut DiskGuard::new())?,
            guard: DiskGuard::new(),
            next_seq: 1,
            since_checkpoint: 0,
            checkpoint_every: None,
            cert_logging: false,
        };
        mgr.checkpoint()?;
        Ok(mgr)
    }

    /// Recovers a durable manager from `dir`: checkpoint load, constraint
    /// recompilation, verdict restoration, WAL replay, audit. See the
    /// module docs for the exact sequence and its invariants. Equivalent
    /// to [`DurableManager::recover_with_audit`] with [`AuditMode::Ground`].
    pub fn recover(dir: &Path) -> Result<(Self, RecoveryReport), DurableError> {
        Self::recover_with_audit(dir, AuditMode::Ground)
    }

    /// [`DurableManager::recover`] with an explicit [`AuditMode`]. Under
    /// [`AuditMode::CertificateReplay`] each logged certificate is
    /// decoded and re-verified (through the standalone `ccpi-audit`
    /// checker, built from the persisted constraint sources) against the
    /// replayed pre-state *before* its update is applied; constraints a
    /// verified certificate vouched for on every replayed apply skip the
    /// end-of-recovery ground evaluation.
    pub fn recover_with_audit(
        dir: &Path,
        mode: AuditMode,
    ) -> Result<(Self, RecoveryReport), DurableError> {
        let certify = mode == AuditMode::CertificateReplay;
        let mut report = RecoveryReport::default();
        let (ckpt, tmp_cleaned) = read_checkpoint(dir)?;
        report.tmp_cleaned = tmp_cleaned;
        let ckpt = ckpt.ok_or(DurableError::MissingCheckpoint)?;
        report.checkpoint_version = ckpt.version;
        report.checkpoint_seq = ckpt.last_seq;

        // Re-register every constraint from its persisted source. This
        // recompiles the engine, the stage-3 artifacts, and the seeded
        // delta plans; the stored signature tells us whether the
        // recompiled plans match the ones the checkpointed verdicts were
        // computed under.
        let mut inner = ConstraintManager::with_solver(ckpt.db, solver_for_tag(ckpt.solver_domain));
        // The trusted side of certificate replay: an auditor built by
        // independently re-parsing the persisted sources — it shares no
        // solver, join plan, or pipeline state with `inner`.
        let mut auditor = Auditor::new();
        // Which constraints a verified certificate has vouched for on
        // every replayed apply so far (vacuously all, before any apply).
        let mut covered: BTreeMap<String, bool> = BTreeMap::new();
        for c in &ckpt.constraints {
            inner.add_constraint(&c.name, &c.source)?;
            if inner.plan_signature(&c.name) != Some(c.plan_sig) {
                report.plans_changed.push(c.name.clone());
            }
            if certify {
                if let Ok(parsed) = ccpi_parser::parse_constraint(&c.source) {
                    auditor.register(&c.name, parsed);
                }
                covered.insert(c.name.clone(), true);
            }
        }

        // Restore checkpointed verdicts against the freshly loaded
        // relations, *before* replay: each replayed record that touches a
        // relation invalidates the restored verdicts reading it through
        // their fresh pins — exactly the revalidation rule we want.
        for v in &ckpt.verdicts {
            if inner.restore_verdict(
                &v.constraint,
                &v.update,
                v.violated,
                v.tuples as usize,
                v.bytes as usize,
            ) {
                report.verdicts_restored += 1;
            }
        }

        // Replay the crash-consistent prefix of the WAL, in commit order.
        let wal_path = dir.join(WAL_FILE);
        let replay = replay_wal(&wal_path)?;
        if let WalTail::Torn { dropped_bytes } = replay.tail {
            report.dropped_bytes = dropped_bytes;
        }
        let mut next_seq = ckpt.last_seq + 1;
        for rec in &replay.records {
            // Both apply flavours replay the same way; the certified one
            // additionally carries evidence to re-verify first.
            let (seq, update, certs) = match rec {
                WalRecord::Apply { seq, update } => (seq, update, &[][..]),
                WalRecord::ApplyCertified { seq, update, certs } => (seq, update, certs.as_slice()),
                WalRecord::Declare {
                    name,
                    arity,
                    locality,
                } => {
                    if inner.database().decl(name).is_some() {
                        report.skipped += 1;
                    } else {
                        inner.database_mut().declare(name, *arity, *locality)?;
                        report.replayed += 1;
                    }
                    continue;
                }
                WalRecord::AddConstraint { name, source } => {
                    if inner.plan_signature(name).is_some() {
                        report.skipped += 1;
                    } else {
                        inner.add_constraint(name, source)?;
                        report.replayed += 1;
                        if certify {
                            if let Ok(parsed) = ccpi_parser::parse_constraint(source) {
                                auditor.register(name, parsed);
                            }
                            // Vacuously covered until its first apply.
                            covered.insert(name.clone(), true);
                        }
                    }
                    continue;
                }
                // Topology metadata written by the sharded layer's
                // migration coordinator: single-site recovery has no
                // ownership map to move, so these carry no state.
                WalRecord::MigrationBegin { .. }
                | WalRecord::MigrationCommit { .. }
                | WalRecord::MigrationAbort { .. } => {
                    report.skipped += 1;
                    continue;
                }
            };
            if *seq <= ckpt.last_seq {
                // Already folded into the checkpoint: the crash landed
                // between the checkpoint rename and the WAL rotation.
                report.skipped += 1;
                continue;
            }
            // Certificates speak about the pre-apply state. Decode and
            // bind them first, apply the update, then verify in replay
            // mode (`verify_applied` re-checks against the post-state
            // without cloning the pre-state — O(Δ) per record, which is
            // what makes this mode faster than the ground audit). Pins
            // only — version counters are not reproducible across a
            // restart. A rejection fails recovery outright, so verifying
            // after the apply loses nothing.
            let mut decoded: Vec<(&String, Certificate)> = Vec::with_capacity(certs.len());
            if certify {
                for (name, bytes) in certs {
                    let rejected = |reason: String| DurableError::CertificateRejected {
                        constraint: name.clone(),
                        seq: *seq,
                        reason,
                    };
                    let cert = Certificate::decode(bytes)
                        .map_err(|e| rejected(format!("decode failed: {e}")))?;
                    if cert.update != *update {
                        return Err(rejected("certificate is for a different update".into()));
                    }
                    decoded.push((name, cert));
                }
            }
            let changed = inner.apply_update(update)?;
            if certify {
                let mut vouched: Vec<&str> = Vec::with_capacity(decoded.len());
                for (name, cert) in &decoded {
                    let rejected = |reason: String| DurableError::CertificateRejected {
                        constraint: (*name).clone(),
                        seq: *seq,
                        reason,
                    };
                    match auditor.verify_applied(cert, inner.database(), changed) {
                        Ok(v) if v.holds() => {
                            vouched.push(name.as_str());
                            report.certs_replayed += 1;
                        }
                        // This store only admits non-violating updates: a
                        // certified *violation* in its log means the
                        // admission decision itself was forged.
                        Ok(_) => {
                            return Err(rejected(
                                "certificate proves a violation for an admitted update".into(),
                            ))
                        }
                        Err(rej) => return Err(rejected(rej.to_string())),
                    }
                }
                for (name, cov) in covered.iter_mut() {
                    if !vouched.contains(&name.as_str()) {
                        *cov = false;
                    }
                }
            }
            next_seq = seq + 1;
            report.replayed += 1;
            report.replayed_applies += 1;
        }

        // The audit: ground truth for every locally judgeable constraint
        // on the recovered state. The admission pipeline only ever
        // persisted states satisfying those, so a violation here means
        // corruption — refuse to serve. Remote-reading constraints are
        // skipped (and reported): their remote relations are empty in the
        // recovered local view, so a ground evaluation would judge data
        // that was never there.
        let names: Vec<String> = inner
            .constraints()
            .iter()
            .map(|(n, _)| n.to_string())
            .collect();
        let mut violated = Vec::new();
        for name in names {
            if certify && covered.get(&name) == Some(&true) {
                // Every replayed apply carried a verified certificate for
                // this constraint: the chain of pre-state proofs reaches
                // the recovered state, ground evaluation included for
                // remote readers (the certificates recorded the remote
                // rows their checks read).
                report.audited_by_certificate += 1;
            } else if inner.reads_remote(&name) {
                report.audit_skipped_remote.push(name);
            } else if inner.audit_constraint(&name).unwrap_or(false) {
                violated.push(name);
            } else {
                report.audited += 1;
            }
        }
        if !violated.is_empty() {
            return Err(DurableError::AuditFailed(violated));
        }

        // Truncate any torn tail and reopen the log for appends.
        let mut guard = DiskGuard::new();
        let wal = WalWriter::resume(&wal_path, &replay, &mut guard)?;
        Ok((
            DurableManager {
                inner,
                dir: dir.to_path_buf(),
                wal,
                guard: DiskGuard::new(),
                next_seq,
                since_checkpoint: 0,
                checkpoint_every: None,
                cert_logging: false,
            },
            report,
        ))
    }

    /// Turns certificate logging on or off (default off). When on, the
    /// wrapped manager emits proof-carrying certificates and every
    /// admitted update is logged as a [`WalRecord::ApplyCertified`]
    /// carrying them, so the next recovery can run
    /// [`AuditMode::CertificateReplay`]. The default plain-`Apply` byte
    /// stream is unchanged when off.
    pub fn set_certificate_logging(&mut self, enabled: bool) {
        self.cert_logging = enabled;
        self.inner.set_certificates(enabled);
    }

    /// Is certificate logging enabled?
    pub fn certificate_logging(&self) -> bool {
        self.cert_logging
    }

    /// Read access to the wrapped manager.
    pub fn manager(&self) -> &ConstraintManager {
        &self.inner
    }

    /// Write access to the wrapped manager. Mutations made through this
    /// **bypass the WAL** — they are not durable and can fail the next
    /// recovery audit. Test and measurement use only.
    pub fn manager_mut(&mut self) -> &mut ConstraintManager {
        &mut self.inner
    }

    /// Read access to the database.
    pub fn database(&self) -> &Database {
        self.inner.database()
    }

    /// The durable directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Sequence number the next applied update will be logged with.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Bytes pushed through the durable pipeline since the current disk
    /// guard was installed (writes, plus one per fsync/rename).
    pub fn bytes_written(&self) -> u64 {
        self.guard.written
    }

    /// Auto-checkpoint after every `n` applied updates (`None` disables;
    /// the default). Checkpoints also rotate the WAL.
    pub fn set_checkpoint_interval(&mut self, n: Option<u64>) {
        self.checkpoint_every = n;
    }

    /// Arms (or disarms) crash injection: the pipeline dies after
    /// `budget` more durable bytes. `drop_unsynced` models losing the
    /// page cache. Crash-soak use only.
    pub fn set_crash_budget(&mut self, budget: Option<(u64, bool)>) {
        self.guard = match budget {
            Some((bytes, drop_unsynced)) => DiskGuard::with_budget(bytes, drop_unsynced),
            None => DiskGuard::new(),
        };
    }

    /// Declares a relation durably (logged and fsync'd before returning).
    pub fn declare(
        &mut self,
        name: &str,
        arity: usize,
        locality: Locality,
    ) -> Result<(), DurableError> {
        if self.inner.database().decl(name).is_some() {
            // Validate compatibility but log nothing: re-declaration of
            // an identical shape commits no state.
            self.inner.database_mut().declare(name, arity, locality)?;
            return Ok(());
        }
        // WAL-then-apply, like every other durable mutation: a fresh
        // declaration cannot fail validation, so the record goes to the
        // log first. If the append or fsync fails, memory is untouched
        // and a torn record falls off the crash-consistent prefix; a
        // record that made it durable despite the error is simply
        // re-skipped if the caller retries the declaration.
        let rec = WalRecord::Declare {
            name: name.to_string(),
            arity,
            locality,
        };
        self.wal.append(&rec, &mut self.guard)?;
        self.wal.sync(&mut self.guard)?;
        self.inner.database_mut().declare(name, arity, locality)?;
        Ok(())
    }

    /// Registers a constraint durably (logged and fsync'd before
    /// returning). Registration is an admission decision: a constraint
    /// the current database already violates is refused with
    /// [`DurableError::RegistrationRejected`] — committing it would make
    /// every future recovery fail its audit. Constraints that read
    /// remote relations are exempt from that pre-check, exactly as the
    /// recovery audit exempts them.
    pub fn add_constraint(&mut self, name: &str, source: &str) -> Result<(), DurableError> {
        // Register first: this is also the validation (parse, engine
        // compilation, duplicate detection). Any failure past this point
        // rolls the registration back, so memory and log cannot diverge.
        self.inner.add_constraint(name, source)?;
        if !self.inner.reads_remote(name) && self.inner.audit_constraint(name) == Some(true) {
            self.inner.remove_constraint(name);
            return Err(DurableError::RegistrationRejected(name.to_string()));
        }
        let rec = WalRecord::AddConstraint {
            name: name.to_string(),
            source: source.to_string(),
        };
        let logged = match self.wal.append(&rec, &mut self.guard) {
            Ok(()) => self.wal.sync(&mut self.guard),
            Err(e) => Err(e),
        };
        if let Err(e) = logged {
            // The registration never committed to the log: undo the
            // in-memory half. (A record that reached the platter despite
            // the error is re-skipped at replay only if re-registered;
            // otherwise it re-registers the constraint at recovery — the
            // log is the authority.)
            self.inner.remove_constraint(name);
            return Err(e.into());
        }
        Ok(())
    }

    /// Checks one update without applying it (no durability involved).
    pub fn check_update(&mut self, update: &Update) -> Result<CheckReport, DurableError> {
        Ok(self.inner.check_update(update)?)
    }

    /// Checks, then — when the check reports no violation — logs,
    /// fsyncs, and applies the update, in that order. Returns the report
    /// and whether the update was applied. When this returns `Ok`, an
    /// applied update is durable; when it returns `Err`, the update may
    /// or may not have reached the log (a crash-consistent recovery
    /// resolves it either way, but it was never *acknowledged*).
    pub fn process(&mut self, update: &Update) -> Result<(CheckReport, bool), DurableError> {
        let report = self.inner.check_update(update)?;
        if !report.violations().is_empty() || !report.unknowns().is_empty() {
            return Ok((report, false));
        }
        let certs = encode_certs(&report);
        self.log_and_apply(update, certs)?;
        self.maybe_checkpoint()?;
        Ok((report, true))
    }

    /// Batch admission: checks the whole batch with
    /// [`ConstraintManager::check_updates`] semantics, then admits the
    /// clean updates in order — re-judged against the evolving state once
    /// earlier admissions have moved it, each one logged and fsync'd
    /// before it is applied. See the module docs for the semantics and
    /// [`BatchResult`] for mid-batch crash behavior.
    pub fn process_updates(&mut self, updates: &[Update]) -> BatchResult {
        let reports = match self.inner.check_updates(updates) {
            Ok(r) => r,
            Err(e) => {
                return BatchResult {
                    completed: Vec::new(),
                    error: Some(e.into()),
                }
            }
        };
        self.admit_batch(updates, reports, false)
    }

    /// Group-commit batch admission: same checking and evolving-state
    /// re-judgment as [`DurableManager::process_updates`], but the whole
    /// batch shares **one fsync**. Each admitted update's record is
    /// appended and applied in memory as the batch progresses (so later
    /// updates are re-judged against the evolving state exactly as in
    /// the per-update path); the single sync at the end makes the group
    /// durable, and only then is anything acknowledged.
    ///
    /// On any failure — append, re-judgment, apply, or the shared sync —
    /// the **entire group is unacknowledged**: `completed` comes back
    /// empty alongside the error, the writer is poisoned, and recovery
    /// resolves what (if anything) reached the platter. A group that
    /// returns `Ok` is durable as a unit; replay can never surface a
    /// suffix of it without its prefix, because records were appended in
    /// admission order.
    pub fn process_updates_grouped(&mut self, updates: &[Update]) -> BatchResult {
        let reports = match self.inner.check_updates(updates) {
            Ok(r) => r,
            Err(e) => {
                return BatchResult {
                    completed: Vec::new(),
                    error: Some(e.into()),
                }
            }
        };
        let judged: Vec<String> = self
            .inner
            .constraints()
            .iter()
            .map(|(n, _)| n.to_string())
            .collect();
        let mut completed = Vec::with_capacity(updates.len());
        let mut dirty = false;
        let mut admitted_any = false;
        for (update, report) in updates.iter().zip(reports) {
            let (report, admit) = match self.decide(update, report, dirty, &judged) {
                Ok(decided) => decided,
                Err(e) => {
                    return BatchResult {
                        completed: Vec::new(),
                        error: Some(e.into()),
                    };
                }
            };
            if admit {
                let certs = encode_certs(&report);
                if let Err(e) = self.log_deferred_and_apply(update, certs) {
                    return BatchResult {
                        completed: Vec::new(),
                        error: Some(e),
                    };
                }
                dirty = true;
                admitted_any = true;
            }
            completed.push((report, admit));
        }
        if admitted_any {
            // The shared group sync: the whole batch becomes durable (and
            // acknowledgeable) here, or not at all.
            if let Err(e) = self.wal.sync(&mut self.guard) {
                return BatchResult {
                    completed: Vec::new(),
                    error: Some(e.into()),
                };
            }
            // The group is durable once the sync returned: a checkpoint
            // failure past this point does not retract the acks.
            if let Err(e) = self.maybe_checkpoint() {
                return BatchResult {
                    completed,
                    error: Some(e),
                };
            }
        }
        BatchResult {
            completed,
            error: None,
        }
    }

    /// Batch admission through a remote source: one hydration pass per
    /// batch (the transport saving of
    /// [`ConstraintManager::check_updates_with_remote`]), durability per
    /// update — every admitted update's WAL record is fsync'd before its
    /// apply, so a crash mid-batch never acknowledges an unlogged
    /// update.
    pub fn process_updates_with_remote(
        &mut self,
        updates: &[Update],
        remote: &mut dyn RemoteSource,
    ) -> BatchResult {
        let reports = match self.inner.check_updates_with_remote(updates, remote) {
            Ok(r) => r,
            Err(e) => {
                return BatchResult {
                    completed: Vec::new(),
                    error: Some(e.into()),
                }
            }
        };
        self.admit_batch(updates, reports, true)
    }

    /// The deciding report for one update of a checked batch, and whether
    /// it admits. Until an admission has moved the state (`dirty`), that
    /// is the batch's pre-state report. After, a clean-looking update is
    /// re-judged against the evolving database, and the re-judgment
    /// decides: its outcomes for the `judged` constraints, its
    /// certificates (the proofs must bind the state the verdict was
    /// rendered on, and match the WAL), so a rejection names the
    /// constraint that caused it. Constraints outside `judged` keep the
    /// pre-state outcome, and the report keeps the pre-state wire counters:
    /// the re-judgment reads nothing remote.
    fn decide(
        &mut self,
        update: &Update,
        first: CheckReport,
        dirty: bool,
        judged: &[String],
    ) -> Result<(CheckReport, bool), ManagerError> {
        if !first.all_hold() || !dirty || judged.is_empty() {
            let admit = first.all_hold();
            return Ok((first, admit));
        }
        let mut re = self.inner.check_update(update)?;
        for (name, outcome) in &mut re.outcomes {
            if let Some(kept) = first.outcome(name).filter(|_| !judged.contains(name)) {
                *outcome = kept;
            }
        }
        re.wire = first.wire;
        let admit = re.all_hold();
        Ok((re, admit))
    }

    /// Admits a checked batch in order. `reports` were computed against
    /// the pre-batch state; once an admission has moved the state past
    /// it, each later clean-looking update is re-judged against the
    /// evolving database before its WAL record is written — two
    /// individually-clean but jointly-violating updates must never both
    /// persist, or the next recovery audit would brick the store. With
    /// `remote_batch`, constraints that read remote relations keep their
    /// hydrated pre-batch verdicts (the local view cannot re-judge them);
    /// only locally judgeable constraints — the ones the audit covers —
    /// are re-checked.
    fn admit_batch(
        &mut self,
        updates: &[Update],
        reports: Vec<CheckReport>,
        remote_batch: bool,
    ) -> BatchResult {
        let judged: Vec<String> = self
            .inner
            .constraints()
            .iter()
            .map(|(n, _)| n.to_string())
            .filter(|n| !remote_batch || !self.inner.reads_remote(n))
            .collect();
        let mut completed = Vec::with_capacity(updates.len());
        let mut dirty = false;
        for (update, report) in updates.iter().zip(reports) {
            let (report, admit) = match self.decide(update, report, dirty, &judged) {
                Ok(decided) => decided,
                Err(e) => {
                    return BatchResult {
                        completed,
                        error: Some(e.into()),
                    };
                }
            };
            if admit {
                let certs = encode_certs(&report);
                if let Err(e) = self.log_and_apply(update, certs) {
                    return BatchResult {
                        completed,
                        error: Some(e),
                    };
                }
                dirty = true;
            }
            completed.push((report, admit));
            if admit {
                if let Err(e) = self.maybe_checkpoint() {
                    return BatchResult {
                        completed,
                        error: Some(e),
                    };
                }
            }
        }
        BatchResult {
            completed,
            error: None,
        }
    }

    /// The WAL record for an admission: a plain `Apply`, or — under
    /// certificate logging — an `ApplyCertified` carrying the admission
    /// check's encoded certificates.
    fn apply_record(&self, update: &Update, certs: Vec<(String, Vec<u8>)>) -> WalRecord {
        if self.cert_logging {
            WalRecord::ApplyCertified {
                seq: self.next_seq,
                update: update.clone(),
                certs,
            }
        } else {
            WalRecord::Apply {
                seq: self.next_seq,
                update: update.clone(),
            }
        }
    }

    /// The WAL-then-apply core: append, fsync, apply, in that order.
    fn log_and_apply(
        &mut self,
        update: &Update,
        certs: Vec<(String, Vec<u8>)>,
    ) -> Result<(), DurableError> {
        let rec = self.apply_record(update, certs);
        self.wal.append(&rec, &mut self.guard)?;
        self.wal.sync(&mut self.guard)?;
        self.inner.apply_update(update)?;
        self.next_seq += 1;
        self.since_checkpoint += 1;
        Ok(())
    }

    /// The group-commit half of [`DurableManager::log_and_apply`]:
    /// append and apply without the fsync. The caller owns the shared
    /// group sync and must not acknowledge anything before it returns.
    fn log_deferred_and_apply(
        &mut self,
        update: &Update,
        certs: Vec<(String, Vec<u8>)>,
    ) -> Result<(), DurableError> {
        let rec = self.apply_record(update, certs);
        self.wal.append(&rec, &mut self.guard)?;
        self.inner.apply_update(update)?;
        self.next_seq += 1;
        self.since_checkpoint += 1;
        Ok(())
    }

    fn maybe_checkpoint(&mut self) -> Result<(), DurableError> {
        if let Some(every) = self.checkpoint_every {
            if self.since_checkpoint >= every {
                self.checkpoint()?;
            }
        }
        Ok(())
    }

    /// Writes a checkpoint (full database, constraint sources and plan
    /// signatures, currently-valid stage-4 verdicts) atomically, then
    /// rotates the WAL. On return, replay cost for a crash right now is
    /// zero records.
    pub fn checkpoint(&mut self) -> Result<(), DurableError> {
        let constraints = self
            .inner
            .durable_constraints()
            .into_iter()
            .map(|(name, source, plan_sig)| ConstraintRecord {
                name,
                source,
                plan_sig,
            })
            .collect();
        let verdicts = self
            .inner
            .export_verdicts()
            .into_iter()
            .map(
                |(constraint, update, violated, tuples, bytes)| CheckpointVerdict {
                    constraint,
                    update,
                    violated,
                    tuples: tuples as u64,
                    bytes: bytes as u64,
                },
            )
            .collect();
        let ckpt = Checkpoint {
            version: self.inner.database().version(),
            last_seq: self.next_seq - 1,
            solver_domain: domain_tag(self.inner.solver().domain),
            db: self.inner.database().clone(),
            constraints,
            verdicts,
        };
        write_checkpoint(&self.dir, &ckpt, &mut self.guard)?;
        // Rotate: records at or below `last_seq` are folded into the
        // renamed checkpoint; a crash before this truncation is handled
        // at replay by the seq comparison.
        self.wal = WalWriter::create(&self.dir.join(WAL_FILE), &mut self.guard)?;
        self.since_checkpoint = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Outcome;
    use ccpi_storage::wal::scratch_dir;
    use ccpi_storage::{tuple, Locality};

    fn emp_db() -> Database {
        let mut db = Database::new();
        db.declare("emp", 3, Locality::Local).unwrap();
        db.declare("dept", 1, Locality::Local).unwrap();
        db.insert("dept", tuple!["sales"]).unwrap();
        db.insert("dept", tuple!["toys"]).unwrap();
        db.insert("emp", tuple!["ann", "sales", 80]).unwrap();
        db
    }

    const REFERENTIAL: &str = "panic :- emp(E,D,S) & not dept(D).";
    const FLOOR: &str = "panic :- emp(E,D,S) & S < 10.";

    fn build_store(dir: &std::path::Path) -> DurableManager {
        let mut mgr = DurableManager::create(dir, emp_db()).unwrap();
        mgr.add_constraint("referential", REFERENTIAL).unwrap();
        mgr.add_constraint("floor", FLOOR).unwrap();
        mgr
    }

    #[test]
    fn create_process_recover_round_trip() {
        let dir = scratch_dir("durable-rt");
        let mut mgr = build_store(&dir);
        let (r1, a1) = mgr
            .process(&Update::insert("emp", tuple!["bob", "toys", 50]))
            .unwrap();
        assert!(a1, "clean insert admitted");
        assert!(r1.violations().is_empty());
        let (r2, a2) = mgr
            .process(&Update::insert("emp", tuple!["eve", "ghost", 50]))
            .unwrap();
        assert!(!a2, "dangling dept rejected, not applied");
        assert_eq!(r2.violations(), vec!["referential"]);
        let (_, a3) = mgr
            .process(&Update::delete("emp", tuple!["ann", "sales", 80]))
            .unwrap();
        assert!(a3);
        let want = mgr.database().clone();
        drop(mgr);

        let (rec, report) = DurableManager::recover(&dir).unwrap();
        assert_eq!(report.replayed_applies, 2, "two admitted updates replayed");
        assert_eq!(report.audited, 2);
        assert!(report.plans_changed.is_empty());
        assert_eq!(
            rec.database().relation("emp").unwrap(),
            want.relation("emp").unwrap()
        );
        assert!(rec
            .database()
            .relation("emp")
            .unwrap()
            .contains(&tuple!["bob", "toys", 50]));
        assert_eq!(rec.next_seq(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_bounds_replay_and_restores_verdicts() {
        let dir = scratch_dir("durable-ckpt");
        let mut mgr = build_store(&dir);
        for i in 0..6 {
            let (_, applied) = mgr
                .process(&Update::insert(
                    "emp",
                    tuple![format!("w{i}").as_str(), "sales", 40 + i],
                ))
                .unwrap();
            assert!(applied);
        }
        // Seed a stage-4 verdict (an uncovered check), then checkpoint:
        // the verdict's pins are live, so it must be exported. The
        // compiled pre-tests would settle this probe before stage 4, so
        // pin them off for the seeding check.
        let probe = Update::insert("emp", tuple!["probe", "toys", 55]);
        mgr.manager_mut().set_pretest_checking(Some(false));
        mgr.check_update(&probe).unwrap();
        mgr.checkpoint().unwrap();
        drop(mgr);

        let (mut rec, report) = DurableManager::recover(&dir).unwrap();
        assert_eq!(report.replayed, 0, "checkpoint rotation emptied the WAL");
        assert!(report.verdicts_restored > 0, "live verdicts travel");
        // The restored verdict answers the same probe from the cache.
        let r = rec.check_update(&probe).unwrap();
        assert!(r
            .outcomes
            .iter()
            .all(|(_, o)| !matches!(o, Outcome::Unknown(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_audit_rejects_out_of_band_corruption() {
        let dir = scratch_dir("durable-audit");
        let mut mgr = build_store(&dir);
        // Bypass the WAL: mutate the database directly into a violating
        // state, then checkpoint it.
        mgr.manager_mut()
            .database_mut()
            .insert("emp", tuple!["eve", "ghost", 50])
            .unwrap();
        mgr.checkpoint().unwrap();
        drop(mgr);
        match DurableManager::recover(&dir) {
            Err(DurableError::AuditFailed(names)) => {
                assert_eq!(names, vec!["referential".to_string()]);
            }
            Err(other) => panic!("expected audit failure, got {other}"),
            Ok(_) => panic!("expected audit failure, got a recovered manager"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batch_admission_is_durable_per_update() {
        let dir = scratch_dir("durable-batch");
        let mut mgr = build_store(&dir);
        let updates = vec![
            Update::insert("emp", tuple!["bob", "toys", 50]),
            Update::insert("emp", tuple!["eve", "ghost", 50]), // rejected
            Update::insert("emp", tuple!["kim", "sales", 60]),
        ];
        let result = mgr.process_updates(&updates);
        assert!(result.error.is_none());
        let admitted: Vec<bool> = result.completed.iter().map(|(_, a)| *a).collect();
        assert_eq!(admitted, vec![true, false, true]);
        drop(mgr);
        let (rec, report) = DurableManager::recover(&dir).unwrap();
        assert_eq!(report.replayed_applies, 2);
        let emp = rec.database().relation("emp").unwrap();
        assert!(emp.contains(&tuple!["bob", "toys", 50]));
        assert!(!emp.contains(&tuple!["eve", "ghost", 50]));
        assert!(emp.contains(&tuple!["kim", "sales", 60]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_crash_mid_batch_acknowledges_only_the_logged_prefix() {
        let dir = scratch_dir("durable-crashbatch");
        let mut mgr = build_store(&dir);
        let updates: Vec<Update> = (0..5)
            .map(|i| Update::insert("emp", tuple![format!("w{i}").as_str(), "sales", 50]))
            .collect();
        // Budget for roughly one and a half records: the second apply's
        // log write dies mid-record.
        mgr.set_crash_budget(Some((90, false)));
        let result = mgr.process_updates(&updates);
        let err = result.error.expect("crash fires");
        assert!(err.is_injected_crash());
        let acked = result.completed.len();
        assert!(acked < updates.len());
        drop(mgr);
        let (rec, report) = DurableManager::recover(&dir).unwrap();
        // Everything acknowledged survived; at most one unacknowledged
        // record (logged but not yet returned) may additionally appear.
        assert!(report.replayed_applies >= acked);
        assert!(report.replayed_applies <= acked + 1);
        for (i, _) in updates.iter().enumerate().take(acked) {
            assert!(
                rec.database().relation("emp").unwrap().contains(&tuple![
                    format!("w{i}").as_str(),
                    "sales",
                    50
                ]),
                "acknowledged update {i} lost"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn violated_constraint_registration_is_rejected_not_bricked() {
        let dir = scratch_dir("durable-regadmit");
        let mut mgr = build_store(&dir);
        // emp(ann, sales, 80) already breaks a 70-ceiling: registering it
        // would persist a store whose every recovery fails its audit.
        let err = mgr
            .add_constraint("ceiling", "panic :- emp(E,D,S) & S > 70.")
            .expect_err("violated registration refused");
        assert!(
            matches!(err, DurableError::RegistrationRejected(ref n) if n == "ceiling"),
            "{err}"
        );
        assert_eq!(mgr.manager().constraints().len(), 2, "not registered");
        // The store keeps admitting and keeps recovering.
        let (_, applied) = mgr
            .process(&Update::insert("emp", tuple!["bob", "toys", 50]))
            .unwrap();
        assert!(applied);
        drop(mgr);
        let (rec, report) = DurableManager::recover(&dir).unwrap();
        assert_eq!(rec.manager().constraints().len(), 2);
        assert_eq!(report.audited, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_constraint_logging_rolls_back_the_registration() {
        let dir = scratch_dir("durable-regroll");
        let mut mgr = build_store(&dir);
        // The pipeline dies mid-append of the AddConstraint record: the
        // in-memory registration must roll back so memory and log agree.
        mgr.set_crash_budget(Some((3, false)));
        let err = mgr
            .add_constraint("ceiling", "panic :- emp(E,D,S) & S > 500.")
            .expect_err("crash fires");
        assert!(err.is_injected_crash(), "{err}");
        assert_eq!(mgr.manager().constraints().len(), 2, "rolled back");
        drop(mgr);
        let (rec, _) = DurableManager::recover(&dir).unwrap();
        assert_eq!(rec.manager().constraints().len(), 2, "log agrees");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A remote source serving one relation, for the audit-exemption test.
    struct DeptRemote;

    impl crate::remote::RemoteSource for DeptRemote {
        fn fetch_relation(
            &mut self,
            pred: &str,
        ) -> Result<Vec<ccpi_storage::Tuple>, crate::remote::RemoteError> {
            match pred {
                "rdept" => Ok(vec![tuple!["sales"], tuple!["toys"]]),
                other => Err(crate::remote::RemoteError::Unavailable(other.into())),
            }
        }

        fn wire_stats(&self) -> crate::report::WireStats {
            Default::default()
        }
    }

    #[test]
    fn remote_reading_constraint_is_exempt_from_the_recovery_audit() {
        let dir = scratch_dir("durable-remoteaudit");
        let mut db = Database::new();
        db.declare("emp", 3, Locality::Local).unwrap();
        db.declare("rdept", 1, Locality::Remote).unwrap();
        db.insert("emp", tuple!["ann", "sales", 80]).unwrap();
        let mut mgr = DurableManager::create(&dir, db).unwrap();
        mgr.add_constraint("remote-ref", "panic :- emp(E,D,S) & not rdept(D).")
            .unwrap();
        let mut remote = DeptRemote;
        let result = mgr.process_updates_with_remote(
            &[Update::insert("emp", tuple!["bob", "toys", 50])],
            &mut remote,
        );
        assert!(result.error.is_none());
        assert!(result.completed[0].1, "hydrated check admits the update");
        drop(mgr);
        // The recovered local view has no rdept rows, so a ground audit
        // of remote-ref would spuriously fail and brick the store. It
        // must be skipped and reported, not judged.
        let (rec, report) = DurableManager::recover(&dir).unwrap();
        assert_eq!(report.audit_skipped_remote, vec!["remote-ref".to_string()]);
        assert_eq!(report.audited, 0);
        assert!(rec
            .database()
            .relation("emp")
            .unwrap()
            .contains(&tuple!["bob", "toys", 50]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn jointly_violating_batch_updates_are_not_both_admitted() {
        let dir = scratch_dir("durable-joint");
        let mut mgr = build_store(&dir);
        // Each update is clean against the pre-batch state; together they
        // leave bob dangling. Admitting both would persist a state the
        // next recovery audit must reject.
        let updates = vec![
            Update::insert("emp", tuple!["bob", "toys", 50]),
            Update::delete("dept", tuple!["toys"]),
        ];
        let result = mgr.process_updates(&updates);
        assert!(result.error.is_none());
        let admitted: Vec<bool> = result.completed.iter().map(|(_, a)| *a).collect();
        assert_eq!(
            admitted,
            vec![true, false],
            "the delete is re-judged against the evolving state"
        );
        drop(mgr);
        let (rec, report) = DurableManager::recover(&dir).unwrap();
        assert_eq!(report.replayed_applies, 1);
        assert!(rec
            .database()
            .relation("dept")
            .unwrap()
            .contains(&tuple!["toys"]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejudged_rejection_names_the_violated_constraint() {
        // The insert is clean against the pre-batch state; only the
        // re-judgment after the applied delete sees it dangle. Both batch
        // admission paths must report the constraint that rejected it.
        let updates = vec![
            Update::delete("dept", tuple!["toys"]),
            Update::insert("emp", tuple!["x", "toys", 50]),
        ];
        for grouped in [true, false] {
            let dir = scratch_dir("durable-rejudge-names");
            let mut mgr = build_store(&dir);
            let result = if grouped {
                mgr.process_updates_grouped(&updates)
            } else {
                mgr.process_updates(&updates)
            };
            assert!(result.error.is_none());
            assert!(result.completed[0].1, "the delete is admitted");
            let (report, admitted) = &result.completed[1];
            assert!(!admitted, "grouped={grouped}");
            assert_eq!(
                report.violations(),
                vec!["referential"],
                "grouped={grouped}"
            );
            assert!(report.unknowns().is_empty());
            drop(mgr);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn grouped_admission_matches_per_update_decisions_with_fewer_fsyncs() {
        let dir_g = scratch_dir("durable-group");
        let dir_p = scratch_dir("durable-group-twin");
        let mut grouped = build_store(&dir_g);
        let mut per_update = build_store(&dir_p);
        // Clean, violating, jointly-violating, clean — the decision
        // pattern must be identical in both modes.
        let updates = vec![
            Update::insert("emp", tuple!["bob", "toys", 50]),
            Update::insert("emp", tuple!["eve", "ghost", 50]), // violating
            Update::delete("dept", tuple!["toys"]),            // jointly violating with bob
            Update::insert("emp", tuple!["kim", "sales", 60]),
        ];
        let rg = grouped.process_updates_grouped(&updates);
        let rp = per_update.process_updates(&updates);
        assert!(rg.error.is_none() && rp.error.is_none());
        let decisions =
            |r: &BatchResult| -> Vec<bool> { r.completed.iter().map(|(_, a)| *a).collect() };
        assert_eq!(decisions(&rg), vec![true, false, false, true]);
        assert_eq!(decisions(&rg), decisions(&rp));
        // Same byte stream of appends, but one shared fsync instead of
        // one per admitted update: 2 admitted → exactly 1 fsync saved.
        assert_eq!(
            grouped.bytes_written() + 1,
            per_update.bytes_written(),
            "the group shares a single sync grant"
        );
        // The group is durable as a unit.
        drop(grouped);
        let (rec, report) = DurableManager::recover(&dir_g).unwrap();
        assert_eq!(report.replayed_applies, 2);
        let emp = rec.database().relation("emp").unwrap();
        assert!(emp.contains(&tuple!["bob", "toys", 50]));
        assert!(emp.contains(&tuple!["kim", "sales", 60]));
        assert!(rec
            .database()
            .relation("dept")
            .unwrap()
            .contains(&tuple!["toys"]));
        std::fs::remove_dir_all(&dir_g).unwrap();
        std::fs::remove_dir_all(&dir_p).unwrap();
    }

    #[test]
    fn grouped_crash_at_the_shared_sync_acknowledges_nothing() {
        // Size the batch's byte stream with an unarmed probe run, then
        // re-run with a budget that dies exactly at the shared sync: all
        // appends land in the page cache, the group fsync never does.
        let probe_dir = scratch_dir("durable-gcrash-probe");
        let mut probe = build_store(&probe_dir);
        let before = probe.bytes_written();
        let updates = vec![
            Update::insert("emp", tuple!["bob", "toys", 50]),
            Update::insert("emp", tuple!["kim", "sales", 60]),
            Update::insert("emp", tuple!["lee", "toys", 70]),
        ];
        let r = probe.process_updates_grouped(&updates);
        assert!(r.error.is_none());
        assert_eq!(r.completed.len(), 3);
        let batch_bytes = probe.bytes_written() - before;
        std::fs::remove_dir_all(&probe_dir).unwrap();

        let dir = scratch_dir("durable-gcrash");
        let mut mgr = build_store(&dir);
        // Everything but the final sync grant fits the budget; the page
        // cache is lost with the crash (`drop_unsynced`).
        mgr.set_crash_budget(Some((batch_bytes - 1, true)));
        let result = mgr.process_updates_grouped(&updates);
        let err = result.error.expect("crash fires at the shared sync");
        assert!(err.is_injected_crash(), "{err}");
        assert!(
            result.completed.is_empty(),
            "a failed group acknowledges nothing"
        );
        drop(mgr);
        let (rec, report) = DurableManager::recover(&dir).unwrap();
        assert_eq!(
            report.replayed_applies, 0,
            "unsynced group vanished with the page cache"
        );
        assert!(!rec
            .database()
            .relation("emp")
            .unwrap()
            .contains(&tuple!["bob", "toys", 50]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn certificate_replay_audit_discharges_the_ground_check() {
        let dir = scratch_dir("durable-certaudit");
        let mut mgr = build_store(&dir);
        mgr.set_certificate_logging(true);
        for (name, dept, sal) in [("bob", "toys", 50i64), ("kim", "sales", 60)] {
            let (_, applied) = mgr
                .process(&Update::insert("emp", tuple![name, dept, sal]))
                .unwrap();
            assert!(applied);
        }
        // A rejected update must leave no certified record behind.
        let (_, applied) = mgr
            .process(&Update::insert("emp", tuple!["eve", "ghost", 50]))
            .unwrap();
        assert!(!applied);
        let want = mgr.database().clone();
        drop(mgr);

        let (rec, report) =
            DurableManager::recover_with_audit(&dir, AuditMode::CertificateReplay).unwrap();
        assert_eq!(report.replayed_applies, 2);
        assert!(report.certs_replayed >= 4, "two certs per admitted update");
        assert_eq!(
            report.audited_by_certificate, 2,
            "both constraints covered on every apply"
        );
        assert_eq!(report.audited, 0, "no ground evaluation needed");
        assert_eq!(
            rec.database().relation("emp").unwrap(),
            want.relation("emp").unwrap()
        );

        // The same log still recovers under the ground mode: certified
        // records replay like plain ones.
        let (_, ground) = DurableManager::recover(&dir).unwrap();
        assert_eq!(ground.replayed_applies, 2);
        assert_eq!(ground.audited, 2);
        assert_eq!(ground.audited_by_certificate, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tampered_certificate_fails_certificate_replay_recovery() {
        use ccpi_storage::wal::{replay_wal, DiskGuard, WalWriter, WAL_FILE};
        let dir = scratch_dir("durable-certtamper");
        let mut mgr = build_store(&dir);
        mgr.set_certificate_logging(true);
        let (_, applied) = mgr
            .process(&Update::insert("emp", tuple!["bob", "toys", 50]))
            .unwrap();
        assert!(applied);
        drop(mgr);

        // Rewrite the log with one bit flipped inside a certificate's
        // payload. The WAL frame is re-sealed (valid), so only the
        // certificate's own checksum can catch it.
        let wal_path = dir.join(WAL_FILE);
        let mut records = replay_wal(&wal_path).unwrap().records;
        let mut flipped = false;
        for rec in &mut records {
            if let WalRecord::ApplyCertified { certs, .. } = rec {
                if let Some((_, bytes)) = certs.first_mut() {
                    let mid = bytes.len() / 2;
                    bytes[mid] ^= 0x10;
                    flipped = true;
                    break;
                }
            }
        }
        assert!(flipped, "the log holds a certified apply");
        let mut guard = DiskGuard::new();
        let mut w = WalWriter::create(&wal_path, &mut guard).unwrap();
        for rec in &records {
            w.append(rec, &mut guard).unwrap();
        }
        w.sync(&mut guard).unwrap();

        match DurableManager::recover_with_audit(&dir, AuditMode::CertificateReplay) {
            Err(DurableError::CertificateRejected { seq, reason, .. }) => {
                assert_eq!(seq, 1);
                assert!(reason.contains("decode failed"), "{reason}");
            }
            Err(other) => panic!("expected certificate rejection, got {other}"),
            Ok(_) => panic!("tampered certificate must fail recovery"),
        }
        // The ground mode does not consult certificates and still
        // recovers — the update itself is intact.
        let (rec, _) = DurableManager::recover(&dir).unwrap();
        assert!(rec
            .database()
            .relation("emp")
            .unwrap()
            .contains(&tuple!["bob", "toys", 50]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn certified_remote_constraint_loses_its_audit_exemption() {
        let dir = scratch_dir("durable-certremote");
        let mut db = Database::new();
        db.declare("emp", 3, Locality::Local).unwrap();
        db.declare("rdept", 1, Locality::Remote).unwrap();
        db.insert("emp", tuple!["ann", "sales", 80]).unwrap();
        let mut mgr = DurableManager::create(&dir, db).unwrap();
        mgr.add_constraint("remote-ref", "panic :- emp(E,D,S) & not rdept(D).")
            .unwrap();
        mgr.set_certificate_logging(true);
        let mut remote = DeptRemote;
        let result = mgr.process_updates_with_remote(
            &[Update::insert("emp", tuple!["bob", "toys", 50])],
            &mut remote,
        );
        assert!(result.error.is_none());
        assert!(result.completed[0].1);
        drop(mgr);

        // Ground mode must skip the remote reader; certificate replay
        // re-verifies it from the recorded remote rows instead.
        let (_, ground) = DurableManager::recover(&dir).unwrap();
        assert_eq!(ground.audit_skipped_remote, vec!["remote-ref".to_string()]);
        let (_, certified) =
            DurableManager::recover_with_audit(&dir, AuditMode::CertificateReplay).unwrap();
        assert!(certified.audit_skipped_remote.is_empty(), "exemption gone");
        assert_eq!(certified.audited_by_certificate, 1);
        assert!(certified.certs_replayed >= 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn declarations_and_constraints_added_after_checkpoint_survive() {
        let dir = scratch_dir("durable-ddl");
        let mut mgr = build_store(&dir);
        mgr.declare("audit", 2, Locality::Remote).unwrap();
        mgr.add_constraint("ceiling", "panic :- emp(E,D,S) & S > 500.")
            .unwrap();
        drop(mgr);
        let (rec, report) = DurableManager::recover(&dir).unwrap();
        assert_eq!(
            report.replayed,
            2 + 2,
            "2 registrations + decl + constraint"
        );
        assert_eq!(rec.database().locality("audit"), Some(Locality::Remote));
        assert_eq!(rec.manager().constraints().len(), 3);
        assert_eq!(report.audited, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
