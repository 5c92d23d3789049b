//! The constraint manager and its checking pipeline.

use crate::pipeline::{Applicability, PlanShape, StageId, StagePipeline};
use crate::remote::RemoteSource;
use crate::report::{
    CheckReport, LocalTestKind, Method, Outcome, Stage4Kind, StageTimes, UnknownCause, WireStats,
};
use ccpi_arith::Solver;
use ccpi_audit::{matcher as audit_matcher, Certificate, CertificateBody, Stage as CertStage};
use ccpi_containment::subsume::subsumes;
use ccpi_containment::thm51::PreparedUnion;
use ccpi_datalog::{DatalogError, DeltaPlanSet, Engine};
use ccpi_ir::class::{classify, ConstraintClass};
use ccpi_ir::{Constraint, Cq};
use ccpi_localtest::{compile_ra, extend_union, prepare_union, Cqc, IcqTest, LocalTestPlan};
use ccpi_parser::ParseError;
use ccpi_rewrite::independence::{independent_of_update, independent_of_update_rewrite};
use ccpi_rewrite::pretest::{PreTestSet, PreVerdict};
use ccpi_storage::{
    Database, DeltaSet, Locality, Relation, StorageError, TupleSnapshot, Update, UpdateTemplate,
};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Mutex;
use std::time::Instant;

/// Errors from manager operations.
#[derive(Debug)]
pub enum ManagerError {
    /// Constraint source failed to parse/validate.
    Parse(ParseError),
    /// The constraint program failed engine validation.
    Datalog(DatalogError),
    /// A storage-level problem (unknown relation, arity mismatch).
    Storage(StorageError),
    /// Duplicate constraint name.
    DuplicateName(String),
}

impl fmt::Display for ManagerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManagerError::Parse(e) => write!(f, "{e}"),
            ManagerError::Datalog(e) => write!(f, "{e}"),
            ManagerError::Storage(e) => write!(f, "{e}"),
            ManagerError::DuplicateName(n) => write!(f, "constraint `{n}` already registered"),
        }
    }
}

impl std::error::Error for ManagerError {}

impl From<ParseError> for ManagerError {
    fn from(e: ParseError) -> Self {
        ManagerError::Parse(e)
    }
}
impl From<DatalogError> for ManagerError {
    fn from(e: DatalogError) -> Self {
        ManagerError::Datalog(e)
    }
}
impl From<StorageError> for ManagerError {
    fn from(e: StorageError) -> Self {
        ManagerError::Storage(e)
    }
}

/// A registered constraint and its precompiled artifacts.
struct Registered {
    name: String,
    /// Canonical source text (re-parses to `constraint`); what a
    /// checkpoint persists so recovery can re-register and recompile.
    source: String,
    constraint: Constraint,
    class: ConstraintClass,
    engine: Engine,
    /// §5 form, when the constraint is a single CQC with one local subgoal.
    cqc: Option<Cqc>,
    /// Theorem 5.3 compiled plan (arithmetic-free CQCs).
    ra_plan: Option<LocalTestPlan>,
    /// Theorem 6.1 interval test (single-remote-variable ICQs).
    icq: Option<IcqTest>,
    /// §3: subsumed by the other registered constraints.
    subsumed: bool,
    /// Seeded delta plans plus the polarity analysis that decides, per
    /// update, whether stage 4 can run from the Δ alone. Compiled once at
    /// registration — the "static monotonicity analysis" of the delta path.
    delta: DeltaPlanSet,
    /// Compiled weakest-precondition pre-tests, one per update template
    /// (flat constraints only — empty otherwise).
    pretests: PreTestSet,
    /// The data-driven cheap-stage pipeline compiled from the pre-tests,
    /// the delta analysis and the locality declarations.
    pipeline: StagePipeline,
    /// Stage-3 cache: the Theorem 5.2 union (this constraint's reductions
    /// plus its siblings' over the shared local relation), prepared once
    /// per relation version and probed by every subsequent check. Interior
    /// mutability because checks take `&self`; when the check loop fans
    /// local tests out, each scoped thread touches only its own
    /// constraint's slot.
    union_cache: Mutex<Option<UnionCache>>,
    /// Stage-4 verdict cache: the last full-check verdict with its
    /// validity key. Same interior-mutability discipline as `union_cache`.
    stage4_cache: Mutex<Option<Stage4Cache>>,
}

/// One prepared Theorem 5.2 union plus its validity token.
struct UnionCache {
    /// Pin of the local relation's tuple set at preparation time. Pointer
    /// equality against the live relation certifies the union still
    /// matches the data (any mutation is forced through copy-on-write
    /// while the pin is held, so stale hits are impossible).
    snapshot: TupleSnapshot,
    union: PreparedUnion,
}

/// Validity pins: one entry per relevant relation — a snapshot of its
/// tuple set, or `None` when the relation did not exist. All pins must
/// still match the live database (pointer equality) for the pinned value
/// to be reusable; every mutation path goes through copy-on-write, so a
/// stale hit is impossible.
type Pins = Vec<(String, Option<TupleSnapshot>)>;

/// One memoized stage-4 verdict: valid while the update value and every
/// relation the constraint reads are unchanged.
struct Stage4Cache {
    update: Update,
    pins: Pins,
    violated: bool,
    /// Remote tuples/bytes accounting captured with the verdict, so a hit
    /// reports the same costs the original computation did.
    tuples: usize,
    bytes: usize,
}

/// The memoized post-update snapshot shared by snapshot-path full checks:
/// keyed on the update value plus the database's monotone
/// [`Database::version`], so any committed mutation (applies, hydration,
/// bulk loads, new declarations) invalidates it automatically. The
/// version subsumes the per-relation pins an earlier revision kept here —
/// this memo pinned *every* relation, so one global counter is exactly
/// as precise and O(1) to compare. (The stage-3 union and stage-4 verdict
/// caches keep per-relation `TupleSnapshot` pins instead: they must
/// survive mutations to relations their constraint never reads, which a
/// global counter cannot express.)
struct PostSnapshot {
    update: Update,
    version: u64,
    after: Database,
}

/// What stage 4 concluded for one constraint, and how.
struct Stage4Result {
    outcome: Outcome,
    tuples: usize,
    bytes: usize,
    kind: Stage4Kind,
    /// Δ-tuples pushed through seeded plans (0 off the delta path).
    seeds: usize,
}

/// What the cheap stages concluded for one constraint, plus any reads
/// the settling stage performed — pre-test residuals may probe
/// remote-declared relations, and those reads are accounted exactly like
/// the full check's.
struct CheapOutcome {
    outcome: Outcome,
    tuples: usize,
    bytes: usize,
}

impl CheapOutcome {
    /// A conclusion that read nothing.
    fn free(outcome: Outcome) -> CheapOutcome {
        CheapOutcome {
            outcome,
            tuples: 0,
            bytes: 0,
        }
    }
}

/// Runs `f`, adding its wall-clock microseconds to `acc`.
fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let r = f();
    *acc += t0.elapsed().as_secs_f64() * 1e6;
    r
}

fn micros_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

/// The host's core count: how many local tests can overlap.
fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where one (constraint, update) pair stands in the check loop.
enum Slot {
    /// Settled without stage 4: by a cheap stage, or `Unknown` because a
    /// remote relation it needs could not be fetched.
    Cheap(CheapOutcome),
    /// Escalated; stage 4 has not run yet.
    Pending,
    /// Settled by stage 4.
    Full(Stage4Result),
}

fn verdict_outcome(violated: bool) -> Outcome {
    if violated {
        Outcome::Violated
    } else {
        Outcome::Holds(Method::FullCheck)
    }
}

/// Folds one stage-4 result into a report, in escalation order.
fn push_stage4(report: &mut CheckReport, name: String, r: Stage4Result) {
    report.remote_tuples_read += r.tuples;
    report.remote_bytes_read += r.bytes;
    report.full_checks += 1;
    report.delta_tuples_joined += r.seeds;
    report.stage4_kinds.push((name.clone(), r.kind));
    report.outcomes.push((name, r.outcome));
}

/// The constraint manager: owns the database, registers constraints, and
/// walks the paper's escalation ladder on every update.
pub struct ConstraintManager {
    db: Database,
    solver: Solver,
    constraints: Vec<Registered>,
    /// `Some(false)` disables the stage-4 delta path (every escalation
    /// takes the snapshot fallback) — for A/B measurement and debugging.
    delta_override: Option<bool>,
    /// `Some(false)` disables the compiled pre-test pipeline (checks walk
    /// the legacy subsumption → independence → local-test ladder) — for
    /// A/B measurement; verdicts are identical.
    pretest_override: Option<bool>,
    /// Memoized post-update snapshot (see [`PostSnapshot`]); survives
    /// across checks so repeating an update never re-clones the database.
    post_memo: Option<PostSnapshot>,
    /// Lifetime count of snapshot (re)builds, for tests and diagnostics.
    post_rebuilds: usize,
    /// When set, every check emits proof-carrying certificates for its
    /// definite verdicts on single-rule constraints (off by default —
    /// emission costs a witness extraction per violation).
    certificates: bool,
}

impl ConstraintManager {
    /// Creates a manager over a database (whose catalog carries the
    /// local/remote split). Uses the dense-order solver, the paper's
    /// setting; see [`ConstraintManager::with_solver`].
    pub fn new(db: Database) -> Self {
        Self::with_solver(db, Solver::dense())
    }

    /// Creates a manager with an explicit solver domain (e.g.
    /// [`ccpi_arith::Domain::Integer`] for integer-typed schemas).
    pub fn with_solver(db: Database, solver: Solver) -> Self {
        ConstraintManager {
            db,
            solver,
            constraints: Vec::new(),
            delta_override: None,
            pretest_override: None,
            post_memo: None,
            post_rebuilds: 0,
            certificates: false,
        }
    }

    /// Pins the compiled pre-test pipeline on or off; `None` restores the
    /// default (on for every flat constraint). Disabling routes every
    /// check through the legacy fixed-order ladder — verdicts are
    /// identical either way; methods, read counters and timings differ.
    pub fn set_pretest_checking(&mut self, enabled: Option<bool>) {
        self.pretest_override = enabled;
    }

    /// Is the compiled pre-test pipeline active?
    fn pretest_wanted(&self) -> bool {
        self.pretest_override.unwrap_or(true)
    }

    /// The compiled plan shape for one (constraint, template) pair —
    /// `None` for unknown names and for non-flat constraints (which keep
    /// the legacy ladder). Inspection surface for benchmarks and tests.
    pub fn plan_shape(&self, name: &str, template: &UpdateTemplate) -> Option<PlanShape> {
        let reg = self.constraints.iter().find(|r| r.name == name)?;
        if !reg.pretests.compiled() {
            return None;
        }
        Some(reg.pipeline.plan(template).shape())
    }

    /// Pins the stage-4 delta path on or off; `None` restores the default
    /// (on whenever the registration-time analysis proves an update
    /// eligible). Disabling forces every escalation through the snapshot
    /// fallback — useful for A/B measurement; verdicts are identical.
    pub fn set_delta_checking(&mut self, enabled: Option<bool>) {
        self.delta_override = enabled;
    }

    /// Does this update take constraint `i`'s seeded delta path?
    fn delta_eligible(&self, i: usize, delta: &DeltaSet) -> bool {
        self.delta_override.unwrap_or(true) && self.constraints[i].delta.eligible(delta)
    }

    /// How many times the memoized post-update snapshot has been built
    /// over this manager's lifetime. Checking the same update twice
    /// against an unchanged database builds it at most once.
    pub fn post_snapshot_rebuilds(&self) -> usize {
        self.post_rebuilds
    }

    /// Turns proof-carrying verdicts on or off (default off). When on,
    /// every definite outcome on a single-rule constraint ships a
    /// [`Certificate`] in [`CheckReport::certificates`], re-verifiable by
    /// the standalone `ccpi-audit` checker: a ground witness for
    /// `Violated`, the containment mapping for a §3 subsumption pass,
    /// and the Δ-plan identity for every other pass.
    pub fn set_certificates(&mut self, enabled: bool) {
        self.certificates = enabled;
    }

    /// Are proof-carrying verdicts enabled?
    pub fn certificates_enabled(&self) -> bool {
        self.certificates
    }

    /// Read access to the database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Write access to the database (bulk loading).
    pub fn database_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Registers a constraint from source text.
    pub fn add_constraint(&mut self, name: &str, source: &str) -> Result<(), ManagerError> {
        let c = ccpi_parser::parse_constraint(source)?;
        self.add_with_source(name, c, source.to_string())
    }

    /// Registers an already-built constraint. The persisted form is the
    /// constraint's canonical rendering (it re-parses to the same
    /// program for everything the grammar can express), so a checkpoint
    /// of this manager can re-register it at recovery.
    pub fn add(&mut self, name: &str, constraint: Constraint) -> Result<(), ManagerError> {
        let source = constraint.to_string();
        self.add_with_source(name, constraint, source)
    }

    fn add_with_source(
        &mut self,
        name: &str,
        constraint: Constraint,
        source: String,
    ) -> Result<(), ManagerError> {
        if self.constraints.iter().any(|r| r.name == name) {
            return Err(ManagerError::DuplicateName(name.to_string()));
        }
        let class = classify(constraint.program());
        let engine = Engine::new(constraint.program().clone())?;

        // §5 form?
        let cqc = if constraint.is_single_rule() {
            let rule = constraint.panic_rules().next().expect("validated");
            let cq = Cq::from_rule(rule);
            Cqc::new(cq, |p| self.db.locality(p)).ok()
        } else {
            None
        };
        let ra_plan = cqc.as_ref().and_then(|c| compile_ra(c).ok());
        let domain = self.solver.domain;
        let icq = cqc.as_ref().and_then(|c| IcqTest::new(c, domain).ok());
        // Registration-time monotonicity analysis + seeded delta plans:
        // decides, per future update, whether stage 4 can run from the
        // Δ alone instead of a post-update snapshot.
        let delta = DeltaPlanSet::compile(constraint.program());
        // Compiled pre-tests and the per-template stage pipeline: which
        // cheap stages run, in which order, for each update shape.
        let pretests = PreTestSet::compile(&constraint);
        let has_local_test = ra_plan.is_some() || icq.is_some() || cqc.is_some();
        let pipeline =
            StagePipeline::compile(&pretests, &delta, &|p| self.db.locality(p), has_local_test);

        self.constraints.push(Registered {
            name: name.to_string(),
            source,
            constraint,
            class,
            engine,
            cqc,
            ra_plan,
            icq,
            subsumed: false,
            delta,
            pretests,
            pipeline,
            union_cache: Mutex::new(None),
            stage4_cache: Mutex::new(None),
        });
        // A new constraint can contribute reductions to its siblings'
        // stage-3 unions; any prepared union is now incomplete.
        for r in &mut self.constraints {
            *r.union_cache.get_mut().expect("union cache lock poisoned") = None;
        }
        self.recompute_subsumption();
        Ok(())
    }

    /// §3: recompute which constraints are subsumed by the rest.
    fn recompute_subsumption(&mut self) {
        let all: Vec<Constraint> = self
            .constraints
            .iter()
            .map(|r| r.constraint.clone())
            .collect();
        for (i, reg) in self.constraints.iter_mut().enumerate() {
            let others: Vec<Constraint> = all
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, c)| c.clone())
                .collect();
            reg.subsumed = !others.is_empty()
                && subsumes(&others, &reg.constraint, self.solver)
                    .map(|s| s.answer.is_yes())
                    .unwrap_or(false);
        }
    }

    /// The registered constraint names, with their Fig. 2.1 classes.
    pub fn constraints(&self) -> Vec<(&str, ConstraintClass)> {
        self.constraints
            .iter()
            .map(|r| (r.name.as_str(), r.class))
            .collect()
    }

    /// Is the named constraint subsumed by the others (§3)?
    pub fn is_subsumed(&self, name: &str) -> Option<bool> {
        self.constraints
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.subsumed)
    }

    /// Checks one update against every constraint **without applying it**.
    /// Assumes all constraints hold on the current database (the paper's
    /// standing assumption, §2). A batch of one: the report equals
    /// `check_updates(&[update.clone()])[0]`.
    pub fn check_update(&mut self, update: &Update) -> Result<CheckReport, ManagerError> {
        let mut reports = self.check_loop(std::slice::from_ref(update), None, host_cores)?;
        Ok(reports.pop().expect("one report per update"))
    }

    /// Like [`check_update`](Self::check_update), but the manager's
    /// database is a **local view** (remote relations declared, empty) and
    /// stage 4 reads remote relations through `remote`.
    ///
    /// Each remote relation a full check needs is fetched at most once per
    /// call (and re-fetched fresh on the next call). If a fetch fails the
    /// affected constraints report
    /// [`Outcome::Unknown`]`(`[`UnknownCause::RemoteUnavailable`]`)` — the
    /// call itself still succeeds; unreachability is an answer, not an
    /// error. Transport counters measured during the call land in
    /// [`CheckReport::wire`].
    pub fn check_update_with_remote(
        &mut self,
        update: &Update,
        remote: &mut dyn RemoteSource,
    ) -> Result<CheckReport, ManagerError> {
        let mut reports =
            self.check_loop(std::slice::from_ref(update), Some(remote), host_cores)?;
        Ok(reports.pop().expect("one report per update"))
    }

    /// Checks a batch of updates **without applying any of them**. Report
    /// `k` has the same outcomes and counters as `check_update(&updates[k])`
    /// — per-update semantics; the updates do not see each other — but the
    /// batch shares machinery a sequential loop rebuilds per call: each
    /// constraint's delta plans are seeded with the batch's Δ-tuples in
    /// one pass over a single relation load, snapshot fallbacks share the
    /// memoized post-update build per distinct update, and duplicate
    /// updates hit the stage-4 verdict cache.
    pub fn check_updates(&mut self, updates: &[Update]) -> Result<Vec<CheckReport>, ManagerError> {
        self.check_loop(updates, None, host_cores)
    }

    /// Batch variant of
    /// [`check_update_with_remote`](Self::check_update_with_remote): each
    /// remote relation is hydrated **at most once per batch** instead of
    /// once per update — the transport saving is the point of batching,
    /// so per-report [`CheckReport::wire`] stats attribute each fetch to
    /// the first update that needed it rather than repeating per update.
    /// Degradation stays **per update**: an unreachable relation turns
    /// only the updates that needed it while it was down to `Unknown`,
    /// and later updates in the batch re-try the fetch. Outcomes and
    /// read counters still match per-update checks.
    pub fn check_updates_with_remote(
        &mut self,
        updates: &[Update],
        remote: &mut dyn RemoteSource,
    ) -> Result<Vec<CheckReport>, ManagerError> {
        self.check_loop(updates, Some(remote), host_cores)
    }

    /// The one check loop behind every public check entry point, in
    /// three passes:
    ///
    /// 1. **cheap stages**, constraint-major. They read no remote
    ///    contents (pre-tests whose residuals read remote relations are
    ///    skipped while a remote source is in play; local tests read only
    ///    `L`), so they run before any hydration. A constraint gets a
    ///    scoped thread of its own only when it runs a §5–6 local test
    ///    on some update of the call, at least two constraints do, and
    ///    `workers()` reports two or more cores; everything else runs on
    ///    the calling thread, where a µs-scale stage costs less than a
    ///    thread spawn;
    /// 2. **hydration**, update-major, only with a remote source: the
    ///    remote relations every escalated constraint reads, each fetched
    ///    at most once per call;
    /// 3. **stage 4**, constraint-major, on the calling thread.
    ///
    /// `workers` is asked only once two constraints qualify, so the
    /// inline path never queries the host.
    fn check_loop(
        &mut self,
        updates: &[Update],
        remote: Option<&mut dyn RemoteSource>,
        workers: fn() -> usize,
    ) -> Result<Vec<CheckReport>, ManagerError> {
        let n = self.constraints.len();
        let mut times = vec![StageTimes::default(); updates.len()];

        // Pass 1: `slots[i][u]` is where constraint `i` stands on update
        // `u` once the cheap stages ran.
        let remote_in_play = remote.is_some();
        let this = &*self;
        let cheap = move |i: usize| -> Vec<(Slot, StageTimes)> {
            updates
                .iter()
                .map(|update| {
                    let mut t = StageTimes::default();
                    let slot = match this.try_cheap_stages(i, update, remote_in_play, &mut t) {
                        Some(c) => Slot::Cheap(c),
                        None => Slot::Pending,
                    };
                    (slot, t)
                })
                .collect()
        };
        let fan: Vec<bool> = (0..n)
            .map(|i| updates.iter().any(|u| this.runs_local_test(i, u)))
            .collect();
        let columns: Vec<Vec<(Slot, StageTimes)>> =
            if fan.iter().filter(|&&f| f).count() >= 2 && workers() >= 2 {
                std::thread::scope(|scope| {
                    let spawned: Vec<_> = (0..n)
                        .map(|i| fan[i].then(|| scope.spawn(move || cheap(i))))
                        .collect();
                    let mut columns: Vec<_> = (0..n)
                        .map(|i| if fan[i] { Vec::new() } else { cheap(i) })
                        .collect();
                    for (column, h) in columns.iter_mut().zip(spawned) {
                        if let Some(h) = h {
                            *column = h.join().expect("constraint checker thread panicked");
                        }
                    }
                    columns
                })
            } else {
                (0..n).map(cheap).collect()
            };
        let mut slots: Vec<Vec<Slot>> = Vec::with_capacity(n);
        for column in columns {
            let mut row = Vec::with_capacity(updates.len());
            for (u, (slot, t)) in column.into_iter().enumerate() {
                times[u].absorb(&t);
                row.push(slot);
            }
            slots.push(row);
        }

        // Pass 2: hydration. The `hydrated` map persists across the
        // whole call, so each remote relation is fetched at most once;
        // the per-update wire delta attributes each fetch to the first
        // update whose escalation needed it.
        let mut wires = vec![WireStats::default(); updates.len()];
        let mut hydrated: BTreeMap<String, bool> = BTreeMap::new();
        if let Some(src) = remote {
            for (u, wire) in wires.iter_mut().enumerate() {
                // Successful hydrations persist for the whole call;
                // *failed* ones are forgotten at each update boundary, so
                // a transient fault degrades the update that hit it and
                // the next update re-tries the fetch. One poisoned
                // exchange must not flip an unrelated update's verdict to
                // Unknown.
                hydrated.retain(|_, ok| *ok);
                let before = src.wire_stats();
                for (i, row) in slots.iter_mut().enumerate() {
                    if !matches!(row[u], Slot::Pending) {
                        continue;
                    }
                    let preds: Vec<String> = self.constraints[i]
                        .constraint
                        .program()
                        .edb_predicates()
                        .into_iter()
                        .filter(|p| self.db.locality(p.as_str()) == Some(Locality::Remote))
                        .map(|p| p.as_str().to_string())
                        .collect();
                    let mut reachable = true;
                    for pred in preds {
                        let ok = match hydrated.get(&pred) {
                            Some(&ok) => ok,
                            None => {
                                // Hydration swaps the relation's tuple
                                // set, so the memoized post-update
                                // snapshot's pins go stale on their own.
                                let ok = self.hydrate_remote(src, &pred);
                                hydrated.insert(pred, ok);
                                ok
                            }
                        };
                        reachable &= ok;
                    }
                    if !reachable {
                        row[u] = Slot::Cheap(CheapOutcome::free(Outcome::Unknown(
                            UnknownCause::RemoteUnavailable,
                        )));
                    }
                }
                *wire = src.wire_stats().delta_since(&before);
            }
        }

        // Pass 3: stage 4, in cost order per escalation — the verdict
        // cache (same update, same version of every relation the
        // constraint reads); the delta path, when the registration-time
        // monotonicity analysis says the Δ decides the verdict (seeded
        // plans over the *pre-update* relations, batched per constraint
        // over one relation load); else the engine on the memoized
        // copy-on-write post-update snapshot. The delta path leans on the
        // standing assumption (§2): the pre-update database satisfies the
        // constraint, so a post-update violation must derive through a
        // Δ-tuple.
        if slots.iter().flatten().any(|s| matches!(s, Slot::Pending)) {
            let deltas: Vec<DeltaSet> = updates.iter().map(DeltaSet::from_update).collect();
            for (i, row) in slots.iter_mut().enumerate() {
                let mut batched: Vec<usize> = Vec::new();
                for (u, update) in updates.iter().enumerate() {
                    if !matches!(row[u], Slot::Pending) {
                        continue;
                    }
                    let t0 = Instant::now();
                    if let Some(hit) = self.stage4_probe(i, update) {
                        row[u] = Slot::Full(hit);
                    } else if self.delta_eligible(i, &deltas[u]) {
                        batched.push(u);
                    } else {
                        self.ensure_post_snapshot(update)?;
                        let after = &self.post_memo.as_ref().expect("just built").after;
                        let violated = self.constraints[i].engine.run(after).derives_panic();
                        let (tuples, bytes) = self.remote_cost(i);
                        self.stage4_store(i, update, violated, tuples, bytes);
                        row[u] = Slot::Full(Stage4Result {
                            outcome: verdict_outcome(violated),
                            tuples,
                            bytes,
                            kind: Stage4Kind::FullSnapshot,
                            seeds: 0,
                        });
                    }
                    times[u].stage4_us += micros_since(t0);
                }
                if batched.is_empty() {
                    continue;
                }
                let t0 = Instant::now();
                let (tuples, bytes) = self.remote_cost(i);
                let ds: Vec<DeltaSet> = batched.iter().map(|&u| deltas[u].clone()).collect();
                let verdicts = self.constraints[i].delta.check_batch(&self.db, &ds);
                for (&u, v) in batched.iter().zip(&verdicts) {
                    self.stage4_store(i, &updates[u], v.violated, tuples, bytes);
                    row[u] = Slot::Full(Stage4Result {
                        outcome: verdict_outcome(v.violated),
                        tuples,
                        bytes,
                        kind: Stage4Kind::DeltaSeeded,
                        seeds: v.seeds_joined,
                    });
                }
                // One timed pass decided the whole batch slice: attribute
                // an equal share to each update it settled.
                let share = micros_since(t0) / batched.len() as f64;
                for &u in &batched {
                    times[u].stage4_us += share;
                }
            }
        }

        // Assemble per-update reports in registration order, then
        // restore the local view.
        let mut reports = Vec::with_capacity(updates.len());
        for (u, update) in updates.iter().enumerate() {
            let mut report = CheckReport::default();
            for (i, row) in slots.iter_mut().enumerate() {
                let name = self.constraints[i].name.clone();
                match std::mem::replace(&mut row[u], Slot::Pending) {
                    Slot::Cheap(cheap) => {
                        report.outcomes.push((name, cheap.outcome));
                        report.remote_tuples_read += cheap.tuples;
                        report.remote_bytes_read += cheap.bytes;
                    }
                    Slot::Full(r) => push_stage4(&mut report, name, r),
                    Slot::Pending => unreachable!("pass 3 settled every escalation"),
                }
            }
            report.wire = wires[u];
            report.stage_times = times[u];
            if self.certificates {
                let t0 = Instant::now();
                self.certify_report(update, &mut report)?;
                report.stage_times.certify_us = micros_since(t0);
            }
            reports.push(report);
        }
        for (pred, ok) in &hydrated {
            if *ok {
                if let Some(rel) = self.db.relation_mut(pred) {
                    rel.clear();
                }
            }
        }
        Ok(reports)
    }

    /// Does constraint `i`'s cheap ladder run a §5–6 local test on
    /// `update`? Read from what registration compiled: an insert whose
    /// plan holds a local-test stage the delta path does not gate, or —
    /// off the compiled pipeline — the legacy ladder's local test.
    fn runs_local_test(&self, i: usize, update: &Update) -> bool {
        let Update::Insert { pred, .. } = update else {
            return false;
        };
        let reg = &self.constraints[i];
        if !self.pretest_wanted() || !reg.pretests.compiled() {
            return reg
                .cqc
                .as_ref()
                .is_some_and(|c| c.local_pred().as_str() == pred.as_str())
                && !self.stage4_beats_local_test(i, update);
        }
        let delta_on = self.delta_override.unwrap_or(true);
        reg.pipeline
            .plan(&UpdateTemplate::of(update))
            .stages()
            .iter()
            .any(|s| s.id == StageId::LocalTest && !(s.delta_gated && delta_on))
    }

    /// The sibling constraints of `i` (everything else, registration
    /// order) — the `C₁ ∪ ⋯ ∪ Cₙ` of the §4 containment test.
    fn siblings(&self, i: usize) -> Vec<Constraint> {
        self.constraints
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .map(|(_, r)| r.constraint.clone())
            .collect()
    }

    /// The cheap stages for constraint `i`, all read-only. `None` means
    /// escalate to a full check.
    ///
    /// Flat constraints walk their compiled [`StagePipeline`] plan for
    /// the update's template — cheapest stage first, each stage skipped
    /// when its declared applicability rules it out (`remote_in_play`
    /// disables pre-tests whose residuals read remote-declared
    /// relations: the local view holds those empty before hydration).
    /// Non-flat constraints — and every constraint when
    /// [`set_pretest_checking`](Self::set_pretest_checking) pins the
    /// pipeline off — take the legacy fixed-order ladder instead.
    fn try_cheap_stages(
        &self,
        i: usize,
        update: &Update,
        remote_in_play: bool,
        times: &mut StageTimes,
    ) -> Option<CheapOutcome> {
        let reg = &self.constraints[i];
        if !self.pretest_wanted() || !reg.pretests.compiled() {
            return self.try_cheap_stages_legacy(i, update, times);
        }
        let template = UpdateTemplate::of(update);
        for stage in reg.pipeline.plan(&template).stages() {
            match stage.id {
                StageId::Subsumption => {
                    if timed(&mut times.subsumption_us, || reg.subsumed) {
                        return Some(CheapOutcome::free(Outcome::Holds(Method::Subsumed)));
                    }
                }
                StageId::Prefilter => {
                    let v = timed(&mut times.prefilter_us, || {
                        reg.pretests.prefilter(update, self.solver)
                    });
                    if v == PreVerdict::Untouched {
                        return Some(CheapOutcome::free(Outcome::Holds(
                            Method::IndependentOfUpdate,
                        )));
                    }
                }
                StageId::PreTest => {
                    if stage.applicability == Applicability::SingleSiteOnly && remote_in_play {
                        continue;
                    }
                    let eval = timed(&mut times.pretest_us, || {
                        reg.pretests.eval(&self.db, update, self.solver, &|p| {
                            self.db.locality(p) == Some(Locality::Remote)
                        })
                    });
                    let outcome = match eval.verdict {
                        PreVerdict::Untouched => Outcome::Holds(Method::IndependentOfUpdate),
                        PreVerdict::Holds => Outcome::Holds(Method::PreTest),
                        PreVerdict::Violated => Outcome::Violated,
                        // Reads performed before the open host surfaced
                        // are not charged — the full check re-derives the
                        // verdict and charges its own remote cost.
                        PreVerdict::Escalate => continue,
                    };
                    return Some(CheapOutcome {
                        outcome,
                        tuples: eval.tuples_read as usize,
                        bytes: eval.bytes_read as usize,
                    });
                }
                StageId::Independence => {
                    // The compiled prefilter already ran (it precedes this
                    // stage in every plan), so only the rewrite +
                    // containment half remains.
                    let independent = timed(&mut times.independence_us, || {
                        independent_of_update_rewrite(
                            &reg.constraint,
                            &self.siblings(i),
                            update,
                            self.solver,
                        )
                        .map(|a| a.is_yes())
                        .unwrap_or(false)
                    });
                    if independent {
                        return Some(CheapOutcome::free(Outcome::Holds(
                            Method::IndependentOfUpdate,
                        )));
                    }
                }
                StageId::LocalTest => {
                    // Statically gated: the delta-seeded stage 4 decides
                    // this template exactly in O(|Δ|) with zero wire cost
                    // — unless the delta path is pinned off at runtime.
                    if stage.delta_gated && self.delta_override.unwrap_or(true) {
                        continue;
                    }
                    let Update::Insert { pred, tuple } = update else {
                        continue;
                    };
                    let kind = timed(&mut times.local_test_us, || {
                        self.try_local_test(i, pred.as_str(), tuple)
                    });
                    if let Some(kind) = kind {
                        return Some(CheapOutcome::free(Outcome::Holds(Method::LocalTest(kind))));
                    }
                }
            }
        }
        None
    }

    /// The fixed-order ladder of earlier revisions: §3 subsumption, §4
    /// independence of the update, §5–6 complete local tests. Used for
    /// non-flat constraints and when the pre-test pipeline is pinned off.
    fn try_cheap_stages_legacy(
        &self,
        i: usize,
        update: &Update,
        times: &mut StageTimes,
    ) -> Option<CheapOutcome> {
        // Stage 1 — subsumption.
        if timed(&mut times.subsumption_us, || self.constraints[i].subsumed) {
            return Some(CheapOutcome::free(Outcome::Holds(Method::Subsumed)));
        }

        // Stage 2 — query independent of update.
        let independent = timed(&mut times.independence_us, || {
            independent_of_update(
                &self.constraints[i].constraint,
                &self.siblings(i),
                update,
                self.solver,
            )
            .map(|a| a.is_yes())
            .unwrap_or(false)
        });
        if independent {
            return Some(CheapOutcome::free(Outcome::Holds(
                Method::IndependentOfUpdate,
            )));
        }

        // Stage 3 — complete local test (insertions into the constraint's
        // local relation). Cost-gated: the ladder prefers stage 3 because
        // stage 4 normally pays wire traffic, but when the constraint
        // reads no remote relation and the Δ is delta-eligible, stage 4
        // decides the update exactly via the seeded plans in O(|Δ|) —
        // strictly cheaper than the local test's O(|L|) pass — so
        // escalate directly.
        if let Update::Insert { pred, tuple } = update {
            if !self.stage4_beats_local_test(i, update) {
                let kind = timed(&mut times.local_test_us, || {
                    self.try_local_test(i, pred.as_str(), tuple)
                });
                if let Some(kind) = kind {
                    return Some(CheapOutcome::free(Outcome::Holds(Method::LocalTest(kind))));
                }
            }
        }
        None
    }

    /// Would escalating constraint `i` straight to stage 4 be cheaper
    /// than running its complete local test? True when the update is
    /// delta-eligible (the seeded plans decide it in O(|Δ|), no snapshot)
    /// *and* the constraint reads no remote relation (escalation costs no
    /// wire traffic). Pinning the delta path off
    /// ([`ConstraintManager::set_delta_checking`]) disables the gate with
    /// it, so the ladder degrades to its paper order.
    fn stage4_beats_local_test(&self, i: usize, update: &Update) -> bool {
        let delta = DeltaSet::from_update(update);
        self.delta_eligible(i, &delta)
            && self.constraints[i]
                .constraint
                .program()
                .edb_predicates()
                .iter()
                .all(|p| self.db.locality(p.as_str()) != Some(Locality::Remote))
    }

    /// Remote tuples/bytes a full check of constraint `i` consults: every
    /// remote relation the constraint mentions, in full.
    fn remote_cost(&self, i: usize) -> (usize, usize) {
        let mut tuples = 0usize;
        let mut bytes = 0usize;
        let program = self.constraints[i].constraint.program();
        for pred in program.edb_predicates() {
            if self.db.locality(pred.as_str()) == Some(Locality::Remote) {
                if let Some(rel) = self.db.relation(pred.as_str()) {
                    tuples += rel.len();
                    bytes += rel.iter().map(|t| t.transfer_bytes()).sum::<usize>();
                }
            }
        }
        (tuples, bytes)
    }

    /// Fetches remote relation `pred` through `src` and installs it into
    /// the database. Returns `false` (instead of erroring) when the fetch
    /// fails or the payload doesn't match the declared shape.
    fn hydrate_remote(&mut self, src: &mut dyn RemoteSource, pred: &str) -> bool {
        let Some(arity) = self.db.decl(pred).map(|d| d.arity) else {
            return false;
        };
        match src.fetch_relation(pred) {
            Ok(rows) if rows.iter().all(|t| t.arity() == arity) => {
                let rel = ccpi_storage::Relation::from_tuples(arity, rows);
                self.db.set_relation(pred, rel).is_ok()
            }
            _ => false,
        }
    }

    /// Checks, then applies the update (even when violations are found —
    /// callers who want to reject can consult the report first).
    pub fn process(&mut self, update: &Update) -> Result<CheckReport, ManagerError> {
        let report = self.check_update(update)?;
        self.apply_update(update)?;
        Ok(report)
    }

    /// Applies the update **without checking it**, maintaining the
    /// manager's incremental caches. Returns whether the database
    /// changed. This is the apply half of [`process`](Self::process), for
    /// callers (the durable admission pipeline, recovery replay) that
    /// have already decided admission.
    pub fn apply_update(&mut self, update: &Update) -> Result<bool, ManagerError> {
        // An insert extends each affected Theorem 5.2 union by the new
        // tuple's reductions, so a cache that is current at apply time can
        // be maintained incrementally instead of rebuilt from scratch on
        // the next check. (Deletes shrink unions and simply invalidate:
        // the snapshot pin makes that automatic.) Currency must be judged
        // against the pre-apply tuple set.
        let current: Vec<bool> = match update {
            Update::Insert { pred, .. } => self.current_union_caches(pred.as_str()),
            Update::Delete { .. } => Vec::new(),
        };
        let changed = self.db.apply(update)?;
        if changed {
            if let Update::Insert { pred, tuple } = update {
                self.extend_union_caches(pred.as_str(), tuple, &current);
            }
        }
        Ok(changed)
    }

    /// Which constraints' union caches exist and match `pred`'s current
    /// tuple set?
    fn current_union_caches(&self, pred: &str) -> Vec<bool> {
        let Some(rel) = self.db.relation(pred) else {
            return vec![false; self.constraints.len()];
        };
        self.constraints
            .iter()
            .map(|r| {
                r.union_cache
                    .lock()
                    .expect("union cache lock poisoned")
                    .as_ref()
                    .is_some_and(|c| c.snapshot.same_as(rel))
            })
            .collect()
    }

    /// After `tuple` was inserted into `pred`, appends its reductions to
    /// every union cache that was current pre-insert (`current`) and
    /// re-pins those caches to the post-insert tuple set.
    fn extend_union_caches(&mut self, pred: &str, tuple: &ccpi_storage::Tuple, current: &[bool]) {
        let Some(rel) = self.db.relation(pred) else {
            return;
        };
        // The new tuple's reduction under each registered CQC over `pred`.
        let reds: Vec<Option<Cq>> = self
            .constraints
            .iter()
            .map(|r| {
                r.cqc
                    .as_ref()
                    .filter(|c| c.local_pred().as_str() == pred)
                    .and_then(|c| c.red(tuple))
            })
            .collect();
        for i in 0..self.constraints.len() {
            if !current.get(i).copied().unwrap_or(false) {
                continue;
            }
            let slot = self.constraints[i]
                .union_cache
                .get_mut()
                .expect("union cache lock poisoned");
            let Some(cache) = slot.as_mut() else {
                continue;
            };
            // Own reduction first, then siblings' in registration order —
            // the same grouping a from-scratch build uses.
            let mut ok = true;
            if let Some(r) = &reds[i] {
                ok &= cache.union.add_member(r).is_ok();
            }
            for (j, red) in reds.iter().enumerate() {
                if j == i {
                    continue;
                }
                if let Some(r) = red {
                    ok &= cache.union.add_member(r).is_ok();
                }
            }
            if ok {
                cache.snapshot = rel.snapshot();
            } else {
                *slot = None;
            }
        }
    }

    fn try_local_test(
        &self,
        i: usize,
        pred: &str,
        tuple: &ccpi_storage::Tuple,
    ) -> Option<LocalTestKind> {
        let reg = &self.constraints[i];
        let cqc = reg.cqc.as_ref()?;
        if cqc.local_pred().as_str() != pred {
            return None;
        }
        let local = self.db.relation(pred)?;
        if tuple.arity() != local.arity() {
            return None;
        }
        // Multi-constraint extension (Theorem 5.2's "add to the union …
        // the reductions of the other constraints by all tuples in L"):
        // does any sibling CQC share this local relation?
        let has_siblings = self.constraints.iter().enumerate().any(|(j, o)| {
            j != i
                && o.cqc
                    .as_ref()
                    .is_some_and(|c| c.local_pred().as_str() == pred)
        });
        // With no sibling reductions, the compiled artifacts are complete:
        // a negative answer settles the local test. With siblings, a
        // negative compiled answer may still be rescued by the extended
        // union, so fall through to the containment test.
        if !has_siblings {
            if let Some(plan) = &reg.ra_plan {
                return plan
                    .test(tuple, local)
                    .holds()
                    .then_some(LocalTestKind::RaPlan);
            }
            if let Some(icq) = &reg.icq {
                return icq
                    .test(tuple, local)
                    .holds()
                    .then_some(LocalTestKind::Interval);
            }
        } else {
            if let Some(plan) = &reg.ra_plan {
                if plan.test(tuple, local).holds() {
                    return Some(LocalTestKind::RaPlan);
                }
            }
            if let Some(icq) = &reg.icq {
                if icq.test(tuple, local).holds() {
                    return Some(LocalTestKind::Interval);
                }
            }
        }
        // Example 5.4: no reduction — the insertion cannot violate C.
        let Some(red_t) = cqc.red(tuple) else {
            return Some(LocalTestKind::Containment);
        };
        // The containment test proper, through the prepared-union cache:
        // reductions of a fixed CQC all share one rectified shape, so the
        // union's disjuncts are tuple-independent and survive across
        // checks until the relation itself changes.
        let mut slot = reg.union_cache.lock().expect("union cache lock poisoned");
        if !slot.as_ref().is_some_and(|c| c.snapshot.same_as(local)) {
            *slot = self.build_union_cache(i, cqc, local, &red_t);
        }
        // A failed build (impossible for a validated CQC) is conservative:
        // escalate to a full check.
        let cache = slot.as_ref()?;
        match cache.union.contains(&red_t, self.solver) {
            Ok(true) => Some(LocalTestKind::Containment),
            _ => None,
        }
    }

    /// Prepares constraint `i`'s Theorem 5.2 union over `local`: its own
    /// reductions first, then each sibling's (registration order), exactly
    /// the union `complete_local_test_with` would assemble per check.
    fn build_union_cache(
        &self,
        i: usize,
        cqc: &Cqc,
        local: &Relation,
        red_t: &Cq,
    ) -> Option<UnionCache> {
        // Pin the tuple set *before* reading it, so a concurrent mutation
        // (none exist today — checks share `&self` — but cheap insurance)
        // could only invalidate, never falsely validate.
        let snapshot = local.snapshot();
        let mut union = prepare_union(cqc, red_t, local).ok()?;
        for (j, other) in self.constraints.iter().enumerate() {
            if j == i {
                continue;
            }
            let Some(ocqc) = other.cqc.as_ref() else {
                continue;
            };
            if ocqc.local_pred() != cqc.local_pred() {
                continue;
            }
            extend_union(&mut union, ocqc, local).ok()?;
        }
        Some(UnionCache { snapshot, union })
    }

    /// Probes constraint `i`'s stage-4 verdict cache.
    fn stage4_probe(&self, i: usize, update: &Update) -> Option<Stage4Result> {
        let slot = self.constraints[i]
            .stage4_cache
            .lock()
            .expect("stage-4 cache lock poisoned");
        let cache = slot.as_ref()?;
        if cache.update != *update || !self.pins_current(&cache.pins) {
            return None;
        }
        Some(Stage4Result {
            outcome: verdict_outcome(cache.violated),
            tuples: cache.tuples,
            bytes: cache.bytes,
            kind: Stage4Kind::CachedVerdict,
            seeds: 0,
        })
    }

    /// Records constraint `i`'s stage-4 verdict with its validity key:
    /// the update value plus pins of every relation the constraint reads.
    fn stage4_store(&self, i: usize, update: &Update, violated: bool, tuples: usize, bytes: usize) {
        let pins = self.constraints[i]
            .constraint
            .program()
            .edb_predicates()
            .into_iter()
            .map(|p| {
                let snap = self.db.relation(p.as_str()).map(|r| r.snapshot());
                (p.as_str().to_string(), snap)
            })
            .collect();
        *self.constraints[i]
            .stage4_cache
            .lock()
            .expect("stage-4 cache lock poisoned") = Some(Stage4Cache {
            update: update.clone(),
            pins,
            violated,
            tuples,
            bytes,
        });
    }

    /// Do all pins still match the live database? A relation that existed
    /// must be the same tuple-set version; one that was absent must still
    /// be absent.
    fn pins_current(&self, pins: &Pins) -> bool {
        pins.iter()
            .all(|(pred, pin)| match (pin, self.db.relation(pred)) {
                (Some(snap), Some(rel)) => snap.same_as(rel),
                (None, None) => true,
                _ => false,
            })
    }

    /// The solver this manager was configured with.
    pub fn solver(&self) -> Solver {
        self.solver
    }

    /// Each registered constraint's name, canonical source, and compiled
    /// delta-plan signature, in registration order — what a checkpoint
    /// persists so recovery can re-register and recompile, then compare
    /// fingerprints.
    pub fn durable_constraints(&self) -> Vec<(String, String, u64)> {
        self.constraints
            .iter()
            .map(|r| (r.name.clone(), r.source.clone(), r.delta.signature()))
            .collect()
    }

    /// The delta-plan signature of a registered constraint.
    pub fn plan_signature(&self, name: &str) -> Option<u64> {
        self.constraints
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.delta.signature())
    }

    /// Stage-4 verdicts whose validity pins still match the live
    /// database — the entries a checkpoint may carry across a restart
    /// (`TupleSnapshot` pins are process-local pointers and cannot be
    /// persisted themselves; validity is re-established at restore time
    /// against the freshly loaded relations).
    pub fn export_verdicts(&self) -> Vec<(String, Update, bool, usize, usize)> {
        self.constraints
            .iter()
            .filter_map(|r| {
                let slot = r.stage4_cache.lock().expect("stage-4 cache lock poisoned");
                let c = slot.as_ref()?;
                if !self.pins_current(&c.pins) {
                    return None;
                }
                Some((
                    r.name.clone(),
                    c.update.clone(),
                    c.violated,
                    c.tuples,
                    c.bytes,
                ))
            })
            .collect()
    }

    /// Re-installs an exported stage-4 verdict, pinning it to the *live*
    /// relations. Sound only when the relations the constraint reads
    /// hold exactly the contents they held when the verdict was
    /// exported — recovery establishes that by restoring verdicts
    /// immediately after loading the checkpoint database and only when
    /// WAL replay touched none of the constraint's relations. Returns
    /// `false` for an unknown constraint name.
    pub fn restore_verdict(
        &self,
        name: &str,
        update: &Update,
        violated: bool,
        tuples: usize,
        bytes: usize,
    ) -> bool {
        let Some(i) = self.constraints.iter().position(|r| r.name == name) else {
            return false;
        };
        self.stage4_store(i, update, violated, tuples, bytes);
        true
    }

    /// Does the named constraint read any relation declared `Remote`?
    /// Such a constraint cannot be judged from the local view alone (its
    /// remote relations are empty there), so the durable pipeline's
    /// ground audits exempt it. `false` for an unknown name.
    pub fn reads_remote(&self, name: &str) -> bool {
        self.constraint_reads(name)
            .iter()
            .any(|p| self.db.locality(p) == Some(Locality::Remote))
    }

    /// Unregisters a constraint by name, undoing its registration-time
    /// side effects (sibling union caches, subsumption). This is the
    /// rollback half of a durable registration whose admission check or
    /// WAL logging failed. Returns whether the constraint was present.
    pub fn remove_constraint(&mut self, name: &str) -> bool {
        let Some(i) = self.constraints.iter().position(|r| r.name == name) else {
            return false;
        };
        self.constraints.remove(i);
        // The removed constraint may have contributed reductions to its
        // siblings' stage-3 unions; any prepared union is now stale.
        for r in &mut self.constraints {
            *r.union_cache.get_mut().expect("union cache lock poisoned") = None;
        }
        self.recompute_subsumption();
        true
    }

    /// Ground truth for one registered constraint against the current
    /// database: a full engine evaluation, bypassing all caches and local
    /// tests. `None` for an unknown name.
    pub fn audit_constraint(&self, name: &str) -> Option<bool> {
        self.constraints
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.engine.run(&self.db).derives_panic())
    }

    /// The EDB relations a registered constraint reads.
    pub fn constraint_reads(&self, name: &str) -> Vec<String> {
        self.constraints
            .iter()
            .find(|r| r.name == name)
            .map(|r| {
                r.constraint
                    .program()
                    .edb_predicates()
                    .into_iter()
                    .map(|p| p.as_str().to_string())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Ground truth for every registered constraint against the current
    /// database: one full engine evaluation each, bypassing all caches
    /// and local tests. The durable recovery audit runs the
    /// [`audit_constraint`](Self::audit_constraint) form per constraint
    /// so it can exempt remote-reading constraints, which a local ground
    /// evaluation cannot judge.
    pub fn audit_full_check(&self) -> Vec<(String, bool)> {
        self.constraints
            .iter()
            .map(|r| (r.name.clone(), r.engine.run(&self.db).derives_panic()))
            .collect()
    }

    /// Builds (or revalidates) the memoized post-update snapshot: the
    /// copy-on-write clone of the database with `update` applied that
    /// every snapshot-path full check of that update shares — across
    /// constraints *and* across repeated checks of the same update. The
    /// memo is keyed on the update value plus pins over every declared
    /// relation, so any database mutation invalidates it automatically.
    fn ensure_post_snapshot(&mut self, update: &Update) -> Result<(), ManagerError> {
        let current = self
            .post_memo
            .as_ref()
            .is_some_and(|m| m.update == *update && m.version == self.db.version());
        if current {
            return Ok(());
        }
        // Copy-on-write: only the updated relation's tuple set is
        // physically copied; the others keep sharing storage and index
        // caches with `self.db`, and the stage-3 union caches pinned to
        // `self.db`'s relations stay valid across the check.
        let mut after = self.db.clone();
        after.apply(update)?;
        self.post_memo = Some(PostSnapshot {
            update: update.clone(),
            version: self.db.version(),
            after,
        });
        self.post_rebuilds += 1;
        Ok(())
    }

    /// Attaches a proof-carrying [`Certificate`] to every definite
    /// verdict in `report` (the check loop calls it only when
    /// [`set_certificates`](Self::set_certificates) enabled emission, and
    /// times it as [`StageTimes::certify_us`]).
    ///
    /// The certificate is *evidence the auditor can re-derive*, not a
    /// transcript of how the engine decided: a ground witness tuple
    /// assignment for `Violated`, the §3 containment mapping for a
    /// subsumption pass, and the Δ-plan identity (re-runnable seeded
    /// search) for everything else. Each carries the pre-state version,
    /// per-relation pins, and — so a checker without remote access can
    /// replay stage-4 verdicts — the remote rows the decision read.
    /// Multi-rule constraints and `Unknown` outcomes get no certificate.
    fn certify_report(
        &mut self,
        update: &Update,
        report: &mut CheckReport,
    ) -> Result<(), ManagerError> {
        // A violation witness lives in the post-update state; build (or
        // reuse) the shared snapshot once, before the read-only loop.
        if report.outcomes.iter().any(|(_, o)| *o == Outcome::Violated) {
            self.ensure_post_snapshot(update)?;
        }
        let outcomes = report.outcomes.clone();
        for (name, outcome) in &outcomes {
            let Some(i) = self.constraints.iter().position(|r| r.name == *name) else {
                continue;
            };
            if !self.constraints[i].constraint.is_single_rule() {
                continue;
            }
            let Some(rule) = self.constraints[i].constraint.panic_rules().next() else {
                continue;
            };
            let stage4_stage = || match report.stage4_kind(name) {
                Some(Stage4Kind::DeltaSeeded) => CertStage::DeltaSeeded,
                Some(Stage4Kind::CachedVerdict) => CertStage::CachedVerdict,
                _ => CertStage::FullSnapshot,
            };
            let (stage, body) = match outcome {
                Outcome::Unknown(_) => continue,
                Outcome::Violated => {
                    let after = &self.post_memo.as_ref().expect("built above").after;
                    let Some(env) = audit_matcher::find_witness(rule, after) else {
                        continue;
                    };
                    (
                        stage4_stage(),
                        CertificateBody::Witness {
                            rule_index: 0,
                            assignment: audit_matcher::subst_assignment(&env),
                        },
                    )
                }
                Outcome::Holds(Method::Subsumed) => {
                    // Recover the containment mapping: some single-rule
                    // sibling maps homomorphically into this rule.
                    let mapped = self.constraints.iter().enumerate().find_map(|(j, sib)| {
                        if j == i || !sib.constraint.is_single_rule() {
                            return None;
                        }
                        let sib_rule = sib.constraint.panic_rules().next()?;
                        let h = audit_matcher::find_homomorphism(sib_rule, rule)?;
                        Some(CertificateBody::Subsumed {
                            by: sib.name.clone(),
                            mapping: audit_matcher::subst_mapping(&h),
                        })
                    });
                    match mapped {
                        Some(body) => (CertStage::Subsumption, body),
                        // The engine's containment test is semantic; when
                        // no syntactic mapping exists, fall back to the
                        // universal Δ-plan re-check.
                        None => (CertStage::Subsumption, CertificateBody::DeltaPass),
                    }
                }
                Outcome::Holds(Method::IndependentOfUpdate) => {
                    (CertStage::Independence, CertificateBody::DeltaPass)
                }
                Outcome::Holds(Method::PreTest) => (CertStage::PreTest, CertificateBody::DeltaPass),
                Outcome::Holds(Method::LocalTest(_)) => {
                    (CertStage::LocalTest, CertificateBody::DeltaPass)
                }
                Outcome::Holds(Method::FullCheck) => (stage4_stage(), CertificateBody::DeltaPass),
            };
            let preds = self.constraints[i].constraint.program().edb_predicates();
            let pins = preds
                .iter()
                .map(|p| {
                    let len = self
                        .db
                        .relation(p.as_str())
                        .map(|r| r.len() as u64)
                        .unwrap_or(u64::MAX);
                    (p.as_str().to_string(), len)
                })
                .collect();
            let remote_rows = preds
                .iter()
                .filter(|p| self.db.locality(p.as_str()) == Some(Locality::Remote))
                .map(|p| {
                    let arity = self
                        .db
                        .decl(p.as_str())
                        .map(|d| d.arity as u32)
                        .unwrap_or(0);
                    let rows = self
                        .db
                        .relation(p.as_str())
                        .map(|r| r.iter().cloned().collect())
                        .unwrap_or_default();
                    (p.as_str().to_string(), arity, rows)
                })
                .collect();
            report.certificates.push((
                name.clone(),
                Certificate {
                    constraint: name.clone(),
                    stage,
                    db_version: self.db.version(),
                    update: update.clone(),
                    pins,
                    remote_rows,
                    body,
                },
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccpi_storage::tuple;

    fn intervals_mgr() -> ConstraintManager {
        let mut db = Database::new();
        db.declare("l", 2, Locality::Local).unwrap();
        db.declare("r", 1, Locality::Remote).unwrap();
        db.insert("l", tuple![3, 6]).unwrap();
        db.insert("l", tuple![5, 10]).unwrap();
        let mut mgr = ConstraintManager::new(db);
        mgr.add_constraint("intervals", "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y.")
            .unwrap();
        mgr
    }

    #[test]
    fn local_test_certifies_example_5_3_with_zero_remote_reads() {
        let mut mgr = intervals_mgr();
        let report = mgr
            .check_update(&Update::insert("l", tuple![4, 8]))
            .unwrap();
        assert!(matches!(
            report.outcome("intervals"),
            Some(Outcome::Holds(Method::LocalTest(LocalTestKind::Interval)))
        ));
        assert_eq!(report.remote_tuples_read, 0);
        assert_eq!(report.full_checks, 0);
    }

    #[test]
    fn uncovered_insert_falls_through_to_full_check() {
        let mut mgr = intervals_mgr();
        // Remote has a point at 20; inserting (15,25) forbids it.
        mgr.database_mut().insert("r", tuple![20]).unwrap();
        let report = mgr
            .check_update(&Update::insert("l", tuple![15, 25]))
            .unwrap();
        assert_eq!(report.outcome("intervals"), Some(Outcome::Violated));
        assert!(report.remote_tuples_read > 0);
        // The database is unchanged by check_update.
        assert_eq!(mgr.database().relation("l").unwrap().len(), 2);
    }

    #[test]
    fn uncovered_but_unviolated_insert_passes_full_check() {
        let mut mgr = intervals_mgr();
        // On the legacy ladder the uncovered insert escalates to stage 4.
        mgr.set_pretest_checking(Some(false));
        let report = mgr
            .check_update(&Update::insert("l", tuple![15, 25]))
            .unwrap();
        assert!(matches!(
            report.outcome("intervals"),
            Some(Outcome::Holds(Method::FullCheck))
        ));
        assert_eq!(report.full_checks, 1);
    }

    #[test]
    fn pretest_settles_uncovered_inserts_without_a_full_check() {
        let mut mgr = intervals_mgr();
        // Same uncovered insert as above, compiled pipeline on (the
        // default): the pre-test's filtered scan of `r` (empty) settles
        // the check with zero full checks.
        let report = mgr
            .check_update(&Update::insert("l", tuple![15, 25]))
            .unwrap();
        assert!(matches!(
            report.outcome("intervals"),
            Some(Outcome::Holds(Method::PreTest))
        ));
        assert_eq!(report.full_checks, 0);
        assert!(report.stage_times.pretest_us > 0.0);

        // The plan shapes the pipeline compiled for `intervals`.
        assert_eq!(
            mgr.plan_shape("intervals", &UpdateTemplate::insert("l")),
            Some(crate::pipeline::PlanShape::FullLadder),
            "the scan residual reads remote r"
        );
        assert_eq!(
            mgr.plan_shape("intervals", &UpdateTemplate::delete("l")),
            Some(crate::pipeline::PlanShape::PrefilterOnly),
            "deletes from a positively-read relation cannot violate"
        );
    }

    #[test]
    fn independence_stage_fires_for_unrelated_updates() {
        let mut db = Database::new();
        db.declare("emp", 3, Locality::Local).unwrap();
        db.declare("dept", 1, Locality::Remote).unwrap();
        let mut mgr = ConstraintManager::new(db);
        mgr.add_constraint("ri", "panic :- emp(E,D,S) & not dept(D).")
            .unwrap();
        // Inserting a department can only shrink the violation set.
        let report = mgr
            .check_update(&Update::insert("dept", tuple!["toy"]))
            .unwrap();
        assert!(matches!(
            report.outcome("ri"),
            Some(Outcome::Holds(Method::IndependentOfUpdate))
        ));
    }

    #[test]
    fn subsumption_stage_skips_redundant_constraints() {
        let mut db = Database::new();
        db.declare("emp", 2, Locality::Local).unwrap();
        let mut mgr = ConstraintManager::new(db);
        mgr.add_constraint("loose", "panic :- emp(E,D1) & emp(E,D2).")
            .unwrap();
        mgr.add_constraint("tight", "panic :- emp(E,sales) & emp(E,accounting).")
            .unwrap();
        assert_eq!(mgr.is_subsumed("tight"), Some(true));
        assert_eq!(mgr.is_subsumed("loose"), Some(false));
        let report = mgr
            .check_update(&Update::insert("emp", tuple!["x", "sales"]))
            .unwrap();
        assert!(matches!(
            report.outcome("tight"),
            Some(Outcome::Holds(Method::Subsumed))
        ));
    }

    #[test]
    fn ra_plan_stage_fires_for_arithmetic_free_cqcs() {
        let mut db = Database::new();
        db.declare("l", 2, Locality::Local).unwrap();
        db.declare("r", 2, Locality::Remote).unwrap();
        db.insert("l", tuple![1, 2]).unwrap();
        let mut mgr = ConstraintManager::new(db);
        mgr.add_constraint("af", "panic :- l(X,Y) & r(X,Y).")
            .unwrap();
        // Duplicate insert: covered by the existing row via the RA plan.
        let report = mgr
            .check_update(&Update::insert("l", tuple![1, 2]))
            .unwrap();
        assert!(matches!(
            report.outcome("af"),
            Some(Outcome::Holds(Method::LocalTest(LocalTestKind::RaPlan)))
        ));
    }

    #[test]
    fn process_applies_the_update() {
        let mut mgr = intervals_mgr();
        mgr.process(&Update::insert("l", tuple![4, 8])).unwrap();
        assert_eq!(mgr.database().relation("l").unwrap().len(), 3);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut mgr = intervals_mgr();
        let err = mgr
            .add_constraint("intervals", "panic :- r(Z).")
            .unwrap_err();
        assert!(matches!(err, ManagerError::DuplicateName(_)));
    }

    #[test]
    fn multi_constraint_reductions_extend_the_union() {
        // Two interval constraints over the same local relation; the
        // second's reductions help cover the first's insert.
        let mut db = Database::new();
        db.declare("l", 2, Locality::Local).unwrap();
        db.declare("r", 1, Locality::Remote).unwrap();
        db.insert("l", tuple![3, 6]).unwrap();
        let mut mgr = ConstraintManager::new(db);
        // A non-ICQ-compilable variant to force the containment path:
        // two remote subgoals sharing Z is still handled by thm52.
        mgr.add_constraint("a", "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y.")
            .unwrap();
        // "b" forbids r-points in [5,10] whenever ANY l-row exists with
        // first component <= 5 — gives reductions covering [5,10].
        mgr.add_constraint("b", "panic :- l(X,Y) & r(Z) & 5 <= Z & Z <= 10 & X <= 5.")
            .unwrap();
        let report = mgr
            .check_update(&Update::insert("l", tuple![5, 8]))
            .unwrap();
        // Constraint "a" alone can't cover [5,8] from [3,6], but b's
        // reduction [5,10] (valid since l has (3,6) with 3 <= 5) does.
        let a = report.outcome("a").unwrap();
        assert!(a.holds() && a.method() != Some(Method::FullCheck), "{a:?}");
    }

    /// Two interval constraints over one local relation: the compiled
    /// shortcuts can't certify across constraints, so these go through the
    /// prepared-union containment path (and therefore the cache).
    fn siblings_mgr(rows: &[(i64, i64)]) -> ConstraintManager {
        let mut db = Database::new();
        db.declare("l", 2, Locality::Local).unwrap();
        db.declare("r", 1, Locality::Remote).unwrap();
        for &(a, b) in rows {
            db.insert("l", tuple![a, b]).unwrap();
        }
        let mut mgr = ConstraintManager::new(db);
        mgr.add_constraint("a", "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y.")
            .unwrap();
        mgr.add_constraint("b", "panic :- l(X,Y) & r(Z) & 5 <= Z & Z <= 10 & X <= 5.")
            .unwrap();
        mgr
    }

    /// `process` maintains the prepared union incrementally on inserts:
    /// a tuple admitted after the cache was built must contribute its
    /// reductions (own *and* sibling) to later local tests.
    #[test]
    fn process_insert_extends_the_union_cache() {
        let mut mgr = siblings_mgr(&[]);
        // The union cache sits behind the stage-3 containment test; the
        // compiled pre-tests would settle these inserts first.
        mgr.set_pretest_checking(Some(false));
        // Build `a`'s cache over the empty relation: nothing covers [5,8],
        // so this escalates (and holds only because `r` is empty).
        let r = mgr
            .check_update(&Update::insert("l", tuple![5, 8]))
            .unwrap();
        assert!(matches!(
            r.outcome("a"),
            Some(Outcome::Holds(Method::FullCheck))
        ));
        // Admit (3,6). `a`'s union gains RED_a((3,6)) = [3,6] and — the
        // multi-constraint extension — RED_b((3,6)) = [5,10].
        mgr.process(&Update::insert("l", tuple![3, 6])).unwrap();
        // [5,8] is covered only through sibling `b`'s reduction.
        let r = mgr
            .check_update(&Update::insert("l", tuple![5, 8]))
            .unwrap();
        assert!(matches!(
            r.outcome("a"),
            Some(Outcome::Holds(Method::LocalTest(
                LocalTestKind::Containment
            )))
        ));
    }

    /// Deleting the tuple whose reductions covered an insert must
    /// invalidate the prepared union: a stale cache would certify an
    /// insert that is no longer safe.
    #[test]
    fn process_delete_invalidates_the_union_cache() {
        let mut mgr = siblings_mgr(&[(3, 6)]);
        // Same reason as the insert variant: reach the union cache.
        mgr.set_pretest_checking(Some(false));
        // Warm `a`'s cache: [5,8] covered via sibling `b`'s [5,10].
        let r = mgr
            .check_update(&Update::insert("l", tuple![5, 8]))
            .unwrap();
        assert!(matches!(
            r.outcome("a"),
            Some(Outcome::Holds(Method::LocalTest(
                LocalTestKind::Containment
            )))
        ));
        // Remove (3,6): `b`'s reduction disappears with it.
        mgr.process(&Update::delete("l", tuple![3, 6])).unwrap();
        let r = mgr
            .check_update(&Update::insert("l", tuple![5, 8]))
            .unwrap();
        // No longer locally certifiable: must escalate to stage 4.
        assert!(matches!(
            r.outcome("a"),
            Some(Outcome::Holds(Method::FullCheck))
        ));
    }

    /// Differential check: a long-lived manager (whose union caches are
    /// built once and maintained across updates) reports exactly what a
    /// from-scratch manager reports at every step of a mixed stream.
    #[test]
    fn cached_manager_matches_fresh_manager_across_a_stream() {
        fn base_db() -> Database {
            let mut db = Database::new();
            db.declare("l", 2, Locality::Local).unwrap();
            db.declare("r", 1, Locality::Remote).unwrap();
            db
        }
        fn managers(db: &Database) -> ConstraintManager {
            let mut mgr = ConstraintManager::new(db.clone());
            mgr.add_constraint("a", "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y.")
                .unwrap();
            mgr.add_constraint("b", "panic :- l(X,Y) & r(Z) & 5 <= Z & Z <= 10 & X <= 5.")
                .unwrap();
            mgr
        }
        let mut live = managers(&base_db());
        // A deterministic mixed stream of interval inserts and deletes.
        let mut seed = 0x2545f49_u64;
        let mut next = move |m: u64| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) % m
        };
        for _ in 0..40 {
            let (a, w) = (next(12) as i64, next(8) as i64);
            let t = tuple![a, a + w];
            let update = if next(4) == 0 {
                Update::delete("l", t)
            } else {
                Update::insert("l", t)
            };
            // A fresh manager over the same database has no caches at all.
            let mut fresh = managers(live.database());
            let want = fresh.check_update(&update).unwrap();
            let got = live.process(&update).unwrap();
            assert_eq!(got, want, "diverged on {update:?}");
        }
    }

    #[test]
    fn remote_source_hydrates_stage_four() {
        use crate::distributed::SiteSplit;
        use crate::remote::{RemoteError, RemoteSource};
        use crate::report::WireStats;

        /// Serves from a captured database and counts fetches.
        struct DbSource {
            remote: Database,
            fetches: u64,
        }
        impl RemoteSource for DbSource {
            fn fetch_relation(
                &mut self,
                pred: &str,
            ) -> Result<Vec<ccpi_storage::Tuple>, RemoteError> {
                self.fetches += 1;
                self.remote
                    .relation(pred)
                    .map(|r| r.iter().cloned().collect())
                    .ok_or_else(|| RemoteError::Protocol(format!("unknown relation {pred}")))
            }
            fn wire_stats(&self) -> WireStats {
                WireStats {
                    requests: self.fetches,
                    round_trips: self.fetches,
                    ..WireStats::default()
                }
            }
        }

        let mut db = Database::new();
        db.declare("l", 2, Locality::Local).unwrap();
        db.declare("r", 1, Locality::Remote).unwrap();
        db.insert("l", tuple![3, 6]).unwrap();
        db.insert("l", tuple![5, 10]).unwrap();
        db.insert("r", tuple![20]).unwrap();
        let split = SiteSplit::of(&db);
        let mut src = DbSource {
            remote: split.remote,
            fetches: 0,
        };
        let mut mgr = ConstraintManager::new(SiteSplit::local_view(&db));
        mgr.add_constraint("intervals", "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y.")
            .unwrap();

        // Covered insert: settled by stage 3, zero fetches.
        let report = mgr
            .check_update_with_remote(&Update::insert("l", tuple![4, 8]), &mut src)
            .unwrap();
        assert!(matches!(
            report.outcome("intervals"),
            Some(Outcome::Holds(Method::LocalTest(_)))
        ));
        assert_eq!(src.fetches, 0);
        assert!(report.wire.is_zero());

        // Violating insert: needs the remote point r(20).
        let report = mgr
            .check_update_with_remote(&Update::insert("l", tuple![15, 25]), &mut src)
            .unwrap();
        assert_eq!(report.outcome("intervals"), Some(Outcome::Violated));
        assert_eq!(src.fetches, 1);
        assert_eq!(report.wire.requests, 1);
        assert!(report.remote_tuples_read > 0);
        // The local view is restored: remote relations empty again.
        assert!(mgr.database().relation("r").unwrap().is_empty());

        // Safe-but-uncovered insert: full check passes via the wire.
        let report = mgr
            .check_update_with_remote(&Update::insert("l", tuple![21, 30]), &mut src)
            .unwrap();
        assert!(matches!(
            report.outcome("intervals"),
            Some(Outcome::Holds(Method::FullCheck))
        ));
    }

    #[test]
    fn unreachable_remote_degrades_to_unknown() {
        use crate::remote::UnreachableRemote;
        let mut db = Database::new();
        db.declare("l", 2, Locality::Local).unwrap();
        db.declare("r", 1, Locality::Remote).unwrap();
        db.insert("l", tuple![3, 6]).unwrap();
        let mut mgr = ConstraintManager::new(db);
        mgr.add_constraint("intervals", "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y.")
            .unwrap();
        let mut dead = UnreachableRemote;

        // Stage 3 still certifies covered inserts without the remote.
        let report = mgr
            .check_update_with_remote(&Update::insert("l", tuple![3, 6]), &mut dead)
            .unwrap();
        assert!(report.outcome("intervals").unwrap().holds());

        // An uncovered insert cannot be settled: Unknown, not an error.
        let report = mgr
            .check_update_with_remote(&Update::insert("l", tuple![15, 25]), &mut dead)
            .unwrap();
        assert_eq!(
            report.outcome("intervals"),
            Some(Outcome::Unknown(UnknownCause::RemoteUnavailable))
        );
        assert_eq!(report.unknowns(), vec!["intervals"]);
        assert!(report.violations().is_empty());
        assert_eq!(report.full_checks, 0);
    }

    /// A three-constraint employee schema with enough data that every
    /// ladder stage is reachable; `dept` and `salRange` are remote (the
    /// paper's partial-information setting).
    pub(super) fn emp_mgr() -> ConstraintManager {
        emp_mgr_with(Locality::Remote)
    }

    /// [`emp_mgr`] with `dept` and `salRange` declared `elsewhere`.
    fn emp_mgr_with(elsewhere: Locality) -> ConstraintManager {
        let mut db = Database::new();
        db.declare("emp", 3, Locality::Local).unwrap();
        db.declare("dept", 1, elsewhere).unwrap();
        db.declare("salRange", 3, elsewhere).unwrap();
        for (e, d, s) in [("ann", "sales", 80i64), ("bob", "toys", 95)] {
            db.insert("emp", tuple![e, d, s]).unwrap();
        }
        for d in ["sales", "toys"] {
            db.insert("dept", tuple![d]).unwrap();
            db.insert("salRange", tuple![d, 10, 200]).unwrap();
        }
        let mut mgr = ConstraintManager::new(db);
        mgr.add_constraint("referential", "panic :- emp(E,D,S) & not dept(D).")
            .unwrap();
        mgr.add_constraint(
            "pay-floor",
            "panic :- emp(E,D,S) & salRange(D,Low,High) & S < Low.",
        )
        .unwrap();
        mgr.add_constraint(
            "pay-ceiling",
            "panic :- emp(E,D,S) & salRange(D,Low,High) & S > High.",
        )
        .unwrap();
        mgr
    }

    /// The constraints the check loop fans out for `update`.
    fn fanned_out(mgr: &ConstraintManager, update: &Update) -> Vec<String> {
        (0..mgr.constraints.len())
            .filter(|&i| mgr.runs_local_test(i, update))
            .map(|i| mgr.constraints[i].name.clone())
            .collect()
    }

    #[test]
    fn only_active_local_tests_fan_out() {
        let updates = [
            Update::insert("emp", tuple!["carol", "sales", 50]),
            Update::delete("emp", tuple!["ann", "sales", 80]),
            Update::insert("dept", tuple!["garden"]),
            Update::delete("dept", tuple!["sales"]),
        ];
        // All local: the delta path gates every local test, so nothing
        // leaves the calling thread.
        let local = emp_mgr_with(Locality::Local);
        for u in &updates {
            assert!(fanned_out(&local, u).is_empty(), "{u:?} fans out");
        }
        // Partial locality: an emp insert runs the §5 tests of exactly
        // the two salary constraints; nothing else fans out.
        let partial = emp_mgr();
        assert_eq!(
            fanned_out(&partial, &updates[0]),
            ["pay-floor", "pay-ceiling"]
        );
        for u in &updates[1..] {
            assert!(fanned_out(&partial, u).is_empty(), "{u:?} fans out");
        }
    }

    #[test]
    fn fanned_out_checks_match_inline_reports_exactly() {
        let updates = [
            Update::insert("emp", tuple!["carol", "sales", 50]), // holds
            Update::insert("emp", tuple!["dave", "ghost", 50]),  // referential violation
            Update::insert("emp", tuple!["erin", "toys", 5]),    // pay-floor violation
            Update::insert("emp", tuple!["erin", "toys", 500]),  // pay-ceiling violation
            Update::insert("dept", tuple!["garden"]),            // independent
            Update::delete("emp", tuple!["ann", "sales", 80]),   // deletion
        ];
        let mut inline = emp_mgr();
        let mut fanned = emp_mgr();
        for u in &updates {
            let a = inline
                .check_loop(std::slice::from_ref(u), None, || 1)
                .unwrap();
            let b = fanned
                .check_loop(std::slice::from_ref(u), None, || 2)
                .unwrap();
            assert_eq!(a, b, "reports diverge on {u:?}");
        }
        // And as one batch, where every emp insert shares the threads.
        let a = inline.check_loop(&updates, None, || 1).unwrap();
        let b = fanned.check_loop(&updates, None, || 2).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fanned_out_check_leaves_the_database_untouched() {
        let mut mgr = emp_mgr();
        // Force the escalations this test is about: with pre-tests on,
        // every emp insert settles before stage 4.
        mgr.set_pretest_checking(Some(false));
        let before = mgr.database().total_tuples();
        let u = Update::insert("emp", tuple!["dave", "ghost", 50]);
        assert_eq!(fanned_out(&mgr, &u), ["pay-floor", "pay-ceiling"]);
        let report = mgr.check_loop(&[u], None, || 2).unwrap().remove(0);
        assert_eq!(report.violations(), vec!["referential"]);
        assert_eq!(report.full_checks, 3);
        assert!(report.remote_tuples_read > 0);
        assert_eq!(mgr.database().total_tuples(), before);
    }

    #[test]
    fn violation_detection_is_sound_end_to_end() {
        // Randomized pipeline soundness: whatever the method, Holds must
        // agree with ground truth on the post-update database.
        use ccpi_datalog::constraint_violated;
        let mut mgr = intervals_mgr();
        mgr.database_mut().insert("r", tuple![7]).unwrap();
        // r(7) is inside the forbidden union [3,10]! The standing
        // assumption (constraints hold now) is violated; fix the data
        // first by removing the point.
        mgr.database_mut().delete("r", &tuple![7]).unwrap();
        mgr.database_mut().insert("r", tuple![20]).unwrap();

        let cases = [(4i64, 8i64), (15, 25), (18, 19), (20, 20), (21, 30)];
        for (a, b) in cases {
            let upd = Update::insert("l", tuple![a, b]);
            let report = mgr.check_update(&upd).unwrap();
            let outcome = report.outcome("intervals").unwrap();
            let mut after = mgr.database().clone();
            after.apply(&upd).unwrap();
            let c =
                ccpi_parser::parse_constraint("panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y.").unwrap();
            let truth = constraint_violated(&c, &after).unwrap();
            assert_eq!(!outcome.holds(), truth, "insert ({a},{b})");
        }
    }

    #[test]
    fn delta_path_decides_monotone_escalations_without_a_snapshot() {
        let mut mgr = emp_mgr();
        // This test exercises the stage-4 delta path; the compiled
        // pre-tests would settle these updates before it.
        mgr.set_pretest_checking(Some(false));
        // An uncovered emp insert escalates all three constraints; every
        // body is positive in emp, so all three ride the delta path.
        let u = Update::insert("emp", tuple!["dave", "ghost", 50]);
        let report = mgr.check_update(&u).unwrap();
        assert_eq!(report.violations(), vec!["referential"]);
        assert_eq!(report.full_checks, 3);
        for name in ["referential", "pay-floor", "pay-ceiling"] {
            assert_eq!(report.stage4_kind(name), Some(Stage4Kind::DeltaSeeded));
        }
        assert!(report.delta_tuples_joined >= 3, "one seed per constraint");
        assert_eq!(
            mgr.post_snapshot_rebuilds(),
            0,
            "an all-delta check never clones the database"
        );

        // Re-checking the same update hits the verdict cache: same
        // report, still no snapshot, nothing re-joined.
        let again = mgr.check_update(&u).unwrap();
        assert_eq!(again, report);
        for name in ["referential", "pay-floor", "pay-ceiling"] {
            assert_eq!(again.stage4_kind(name), Some(Stage4Kind::CachedVerdict));
        }
        assert_eq!(again.delta_tuples_joined, 0);
        assert_eq!(mgr.post_snapshot_rebuilds(), 0);

        // Deleting from a positively-read relation is monotone the other
        // way: decided on the delta path with zero seeds.
        let shrink = Update::delete("emp", tuple!["ann", "sales", 80]);
        let report = mgr.check_update(&shrink).unwrap();
        for (name, outcome) in &report.outcomes {
            assert!(outcome.holds(), "{name} cannot break by shrinking emp");
        }
        assert_eq!(mgr.post_snapshot_rebuilds(), 0);
    }

    #[test]
    fn post_update_snapshot_is_memoized_on_update_identity() {
        let mut mgr = emp_mgr();
        // Deleting a department settles via the exact pre-test (a local
        // emp scan) when the pipeline is on; this test is about the
        // snapshot fallback, so keep the legacy ladder.
        mgr.set_pretest_checking(Some(false));
        // Deleting a department can *create* referential violations —
        // a non-monotone case, so stage 4 takes the snapshot fallback.
        let u = Update::delete("dept", tuple!["sales"]);
        assert_eq!(mgr.post_snapshot_rebuilds(), 0);
        let r1 = mgr.check_update(&u).unwrap();
        assert_eq!(r1.outcome("referential"), Some(Outcome::Violated));
        assert_eq!(
            r1.stage4_kind("referential"),
            Some(Stage4Kind::FullSnapshot)
        );
        assert_eq!(mgr.post_snapshot_rebuilds(), 1);

        // Regression: the same update twice must not re-clone the
        // database — the verdict cache answers outright.
        let r2 = mgr.check_update(&u).unwrap();
        assert_eq!(r2, r1);
        assert_eq!(
            r2.stage4_kind("referential"),
            Some(Stage4Kind::CachedVerdict)
        );
        assert_eq!(mgr.post_snapshot_rebuilds(), 1);

        // A newly registered snapshot-path constraint checking the same
        // update reuses the memoized snapshot across calls.
        mgr.add_constraint("strict", "panic :- emp(E,D,S) & not dept(D) & S > 90.")
            .unwrap();
        let r3 = mgr.check_update(&u).unwrap();
        if r3.stage4_kind("strict") == Some(Stage4Kind::FullSnapshot) {
            assert_eq!(mgr.post_snapshot_rebuilds(), 1, "memoized on identity");
        }

        // Any database mutation invalidates the memo.
        mgr.database_mut()
            .insert("emp", tuple!["zed", "sales", 50])
            .unwrap();
        let r4 = mgr.check_update(&u).unwrap();
        assert_eq!(r4.outcome("referential"), Some(Outcome::Violated));
        assert!(
            mgr.post_snapshot_rebuilds() >= 2,
            "stale pins force a rebuild"
        );
    }

    #[test]
    fn batch_check_matches_sequential_checks() {
        let updates = [
            Update::insert("emp", tuple!["carol", "sales", 50]), // holds
            Update::insert("emp", tuple!["dave", "ghost", 50]),  // referential violation
            Update::insert("emp", tuple!["erin", "toys", 5]),    // pay-floor violation
            Update::insert("emp", tuple!["erin", "toys", 500]),  // pay-ceiling violation
            Update::insert("dept", tuple!["garden"]),            // independent
            Update::delete("emp", tuple!["ann", "sales", 80]),   // deletion
            Update::delete("dept", tuple!["sales"]),             // snapshot fallback
            Update::insert("emp", tuple!["dave", "ghost", 50]),  // duplicate → cache
        ];
        let mut seq = emp_mgr();
        let want: Vec<CheckReport> = updates
            .iter()
            .map(|u| seq.check_update(u).unwrap())
            .collect();

        let mut batch = emp_mgr();
        let before = batch.database().total_tuples();
        let got = batch.check_updates(&updates).unwrap();
        assert_eq!(got.len(), want.len());
        for ((g, w), u) in got.iter().zip(&want).zip(&updates) {
            assert_eq!(g, w, "batch diverges from sequential on {u:?}");
        }
        assert_eq!(
            batch.database().total_tuples(),
            before,
            "checking a batch applies nothing"
        );
    }

    /// A remote source over an in-memory remote site that counts its
    /// fetches and fails every one while `down`.
    struct CountingSource {
        remote: Database,
        fetches: u64,
        down: bool,
    }

    impl crate::remote::RemoteSource for CountingSource {
        fn fetch_relation(
            &mut self,
            pred: &str,
        ) -> Result<Vec<ccpi_storage::Tuple>, crate::remote::RemoteError> {
            use crate::remote::RemoteError;
            self.fetches += 1;
            if self.down {
                return Err(RemoteError::Protocol("site down".into()));
            }
            self.remote
                .relation(pred)
                .map(|r| r.iter().cloned().collect())
                .ok_or_else(|| RemoteError::Protocol(format!("unknown relation {pred}")))
        }
        fn wire_stats(&self) -> WireStats {
            WireStats {
                requests: self.fetches,
                round_trips: self.fetches,
                ..WireStats::default()
            }
        }
    }

    /// `intervals_mgr`'s constraint over a local view, with `r = {20}`
    /// behind a [`CountingSource`].
    fn intervals_split() -> (ConstraintManager, CountingSource) {
        use crate::distributed::SiteSplit;
        let mut db = Database::new();
        db.declare("l", 2, Locality::Local).unwrap();
        db.declare("r", 1, Locality::Remote).unwrap();
        db.insert("l", tuple![3, 6]).unwrap();
        db.insert("r", tuple![20]).unwrap();
        let src = CountingSource {
            remote: SiteSplit::of(&db).remote,
            fetches: 0,
            down: false,
        };
        let mut mgr = ConstraintManager::new(SiteSplit::local_view(&db));
        mgr.add_constraint("intervals", "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y.")
            .unwrap();
        (mgr, src)
    }

    #[test]
    fn single_remote_check_is_a_batch_of_one() {
        let updates = [
            Update::insert("l", tuple![4, 5]),   // local test settles
            Update::insert("l", tuple![15, 25]), // escalates: violated
            Update::insert("l", tuple![21, 30]), // escalates: holds
        ];
        for down in [false, true] {
            let (mut one, mut one_src) = intervals_split();
            let (mut batch, mut batch_src) = intervals_split();
            one_src.down = down;
            batch_src.down = down;
            for u in &updates {
                let a = one.check_update_with_remote(u, &mut one_src).unwrap();
                let b = batch
                    .check_updates_with_remote(std::slice::from_ref(u), &mut batch_src)
                    .unwrap()
                    .remove(0);
                assert_eq!(a, b, "{u:?} with the site down={down}");
                assert_eq!(a.stage4_kinds, b.stage4_kinds);
            }
            assert_eq!(one_src.fetches, batch_src.fetches);
        }
        // The failed fetch is an answer, not an error.
        let (mut mgr, mut src) = intervals_split();
        src.down = true;
        let report = mgr.check_update_with_remote(&updates[1], &mut src).unwrap();
        assert_eq!(report.unknowns(), vec!["intervals"]);
        assert_eq!(report.wire.requests, 1);
    }

    #[test]
    fn batch_hydrates_each_remote_relation_once() {
        let (mut mgr, mut src) = intervals_split();

        // Two escalating updates, one batch: the remote relation is
        // fetched once, attributed to the first update that needed it.
        let batch = [
            Update::insert("l", tuple![15, 25]),
            Update::insert("l", tuple![21, 30]),
        ];
        let reports = mgr.check_updates_with_remote(&batch, &mut src).unwrap();
        assert_eq!(src.fetches, 1, "one hydration for the whole batch");
        assert_eq!(reports[0].outcome("intervals"), Some(Outcome::Violated));
        assert!(matches!(
            reports[1].outcome("intervals"),
            Some(Outcome::Holds(Method::FullCheck))
        ));
        assert_eq!(reports[0].wire.requests, 1);
        assert_eq!(reports[1].wire.requests, 0);
        assert!(reports[0].remote_tuples_read > 0);
        // The local view is restored after the batch.
        assert!(mgr.database().relation("r").unwrap().is_empty());
    }

    /// Builds the trusted-side auditor for a manager: same constraint
    /// sources, parsed independently — no engine structures shared.
    fn auditor_for(mgr: &ConstraintManager) -> ccpi_audit::Auditor {
        let mut auditor = ccpi_audit::Auditor::new();
        for (name, source, _) in mgr.durable_constraints() {
            auditor.register(name, ccpi_parser::parse_constraint(&source).unwrap());
        }
        auditor
    }

    #[test]
    fn certificates_reverify_under_the_standalone_auditor() {
        // Local-only schema so the pre-state version is reproducible and
        // the strict (version-checking) verify applies.
        let mut db = Database::new();
        db.declare("emp", 3, Locality::Local).unwrap();
        db.declare("dept", 1, Locality::Local).unwrap();
        db.declare("salRange", 3, Locality::Local).unwrap();
        db.insert("dept", tuple!["sales"]).unwrap();
        db.insert("salRange", tuple!["sales", 10, 100]).unwrap();
        let mut mgr = ConstraintManager::new(db);
        mgr.add_constraint("referential", "panic :- emp(E,D,S) & not dept(D).")
            .unwrap();
        mgr.add_constraint(
            "floor",
            "panic :- emp(E,D,S) & salRange(D,Low,High) & S < Low.",
        )
        .unwrap();
        mgr.set_certificates(true);
        let auditor = auditor_for(&mgr);

        let updates = [
            Update::insert("emp", tuple!["ann", "sales", 50]), // holds
            Update::insert("emp", tuple!["bob", "ops", 50]),   // referential violation
            Update::insert("emp", tuple!["cay", "sales", 5]),  // floor violation
            Update::delete("dept", tuple!["sales"]),           // holds (no emp rows)
        ];
        for update in &updates {
            let report = mgr.check_update(update).unwrap();
            let snap = mgr.database().snapshot();
            for (name, outcome) in &report.outcomes {
                let cert = report
                    .certificate(name)
                    .unwrap_or_else(|| panic!("{name} verdict on {update:?} carries no cert"));
                let verdict = auditor
                    .verify(cert, &snap)
                    .unwrap_or_else(|e| panic!("{name} cert on {update:?} rejected: {e}"));
                assert_eq!(
                    verdict.holds(),
                    outcome.holds(),
                    "auditor disagreed with {name} on {update:?}"
                );
            }
            // Certificates survive the wire: decode(encode) re-verifies.
            for (_, cert) in &report.certificates {
                let back = ccpi_audit::Certificate::decode(&cert.encode()).unwrap();
                assert!(auditor.verify(&back, &snap).is_ok());
            }
            assert!(report.stage_times.certify_us > 0.0, "emission is timed");
        }
        mgr.set_certificates(false);
        let plain = mgr.check_update(&updates[1]).unwrap();
        assert!(plain.certificates.is_empty());
        assert_eq!(plain.stage_times.certify_us, 0.0);
    }

    #[test]
    fn tampered_manager_certificates_are_rejected() {
        let mut db = Database::new();
        db.declare("emp", 3, Locality::Local).unwrap();
        db.declare("dept", 1, Locality::Local).unwrap();
        let mut mgr = ConstraintManager::new(db);
        mgr.add_constraint("referential", "panic :- emp(E,D,S) & not dept(D).")
            .unwrap();
        mgr.set_certificates(true);
        let auditor = auditor_for(&mgr);

        let update = Update::insert("emp", tuple!["bob", "ops", 50]);
        let report = mgr.check_update(&update).unwrap();
        assert_eq!(report.outcome("referential"), Some(Outcome::Violated));
        let snap = mgr.database().snapshot();
        let cert = report.certificate("referential").unwrap();
        assert!(auditor.verify(cert, &snap).unwrap() == ccpi_audit::Verdict::Violated);

        // Nudge the witness's salary binding: the claimed violating
        // tuple no longer exists in the post-state.
        let mut forged = cert.clone();
        if let ccpi_audit::CertificateBody::Witness { assignment, .. } = &mut forged.body {
            for (_, v) in assignment.iter_mut() {
                if let ccpi_ir::Value::Int(n) = v {
                    *n += 1;
                }
            }
        }
        assert!(matches!(
            auditor.verify(&forged, &snap),
            Err(ccpi_audit::Rejection::BadWitness(_))
        ));

        // And a stale pre-state version is caught before any replay.
        let mut stale = cert.clone();
        stale.db_version += 1;
        assert!(matches!(
            auditor.verify(&stale, &snap),
            Err(ccpi_audit::Rejection::StaleVersion { .. })
        ));
    }

    #[test]
    fn subsumption_pass_ships_a_checkable_containment_mapping() {
        let mut db = Database::new();
        db.declare("emp", 2, Locality::Local).unwrap();
        let mut mgr = ConstraintManager::new(db);
        // The loose rule subsumes the tight one: any violation of
        // `tight` maps into a violation of `loose` via D2 ↦ sales.
        mgr.add_constraint("loose", "panic :- emp(E,accounting) & emp(E,D2).")
            .unwrap();
        mgr.add_constraint("tight", "panic :- emp(E,accounting) & emp(E,sales).")
            .unwrap();
        mgr.set_certificates(true);
        let auditor = auditor_for(&mgr);

        let update = Update::insert("emp", tuple!["ann", "sales"]);
        let report = mgr.check_update(&update).unwrap();
        let snap = mgr.database().snapshot();
        for (name, outcome) in &report.outcomes {
            assert!(outcome.holds(), "{name} should hold on {update:?}");
            let cert = report.certificate(name).expect("cert per verdict");
            assert!(auditor.verify(cert, &snap).unwrap().holds());
        }
        if report.outcome("tight") == Some(Outcome::Holds(Method::Subsumed)) {
            let cert = report.certificate("tight").unwrap();
            assert!(
                matches!(cert.body, ccpi_audit::CertificateBody::Subsumed { .. }),
                "subsumption pass should carry the containment mapping"
            );
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use ccpi_storage::tuple;
    use proptest::prelude::*;

    /// Random updates over the employee schema, biased toward the
    /// escalation-prone emp inserts but covering deletes and the remote
    /// relations so every stage-4 path (delta, monotone-delete, snapshot
    /// fallback, cached verdict) appears in batches.
    fn update_strategy() -> impl Strategy<Value = Update> {
        let name = prop_oneof![Just("ann"), Just("bob"), Just("carol"), Just("dave")];
        let dept = prop_oneof![Just("sales"), Just("toys"), Just("ghost")];
        prop_oneof![
            (name.clone(), dept.clone(), 0i64..250)
                .prop_map(|(e, d, s)| Update::insert("emp", tuple![e, d, s])),
            (name.clone(), dept.clone(), 0i64..250)
                .prop_map(|(e, d, s)| Update::insert("emp", tuple![e, d, s])),
            (name.clone(), dept.clone(), 0i64..250)
                .prop_map(|(e, d, s)| Update::insert("emp", tuple![e, d, s])),
            (name, dept.clone(), 0i64..250)
                .prop_map(|(e, d, s)| Update::delete("emp", tuple![e, d, s])),
            dept.clone().prop_map(|d| Update::insert("dept", tuple![d])),
            dept.clone().prop_map(|d| Update::delete("dept", tuple![d])),
            (dept.clone(), 0i64..50, 100i64..300)
                .prop_map(|(d, lo, hi)| Update::insert("salRange", tuple![d, lo, hi])),
            (dept, 0i64..50, 100i64..300)
                .prop_map(|(d, lo, hi)| Update::delete("salRange", tuple![d, lo, hi])),
        ]
    }

    /// A pool of flat denial constraints mixing negation and arithmetic
    /// over the employee schema. Every subset holds on the empty
    /// database, so streams grown through admission keep the standing
    /// assumption invariant.
    const POOL: &[(&str, &str)] = &[
        ("referential", "panic :- emp(E,D,S) & not dept(D)."),
        ("floor", "panic :- emp(E,D,S) & salRange(D,L,H) & S < L."),
        ("ceiling", "panic :- emp(E,D,S) & salRange(D,L,H) & S > H."),
        ("non-negative", "panic :- emp(E,D,S) & S < 0."),
        (
            "one-salary",
            "panic :- emp(E,D1,S1) & emp(E,D2,S2) & S1 < S2.",
        ),
        ("sane-range", "panic :- salRange(D,L,H) & H < L."),
        ("ranged-dept", "panic :- salRange(D,L,H) & not dept(D)."),
    ];

    /// Twin managers over the masked constraint subset: one on the
    /// compiled pre-test pipeline (the default), one pinned to the
    /// legacy ladder.
    fn pool_managers(mask: u8) -> (ConstraintManager, ConstraintManager) {
        let mut db = Database::new();
        db.declare("emp", 3, Locality::Local).unwrap();
        db.declare("dept", 1, Locality::Remote).unwrap();
        db.declare("salRange", 3, Locality::Remote).unwrap();
        let mut fast = ConstraintManager::new(db.clone());
        let mut slow = ConstraintManager::new(db);
        slow.set_pretest_checking(Some(false));
        for (i, (name, src)) in POOL.iter().enumerate() {
            if mask & (1 << i) != 0 {
                fast.add_constraint(name, src).unwrap();
                slow.add_constraint(name, src).unwrap();
            }
        }
        (fast, slow)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The compiled pre-test pipeline reaches exactly the verdicts
        /// the full escalation ladder reaches, on random subsets of
        /// denial constraints × random update streams grown through
        /// admission. Methods and read accounting legitimately differ
        /// between the two ladders; holds/violated must not.
        #[test]
        fn pretest_pipeline_matches_the_legacy_ladder(
            mask in 1u8..128,
            updates in prop::collection::vec(update_strategy(), 1..12),
        ) {
            let (mut fast, mut slow) = pool_managers(mask);
            for u in &updates {
                let a = fast.check_update(u).unwrap();
                let b = slow.check_update(u).unwrap();
                let va: Vec<(String, bool)> =
                    a.outcomes.iter().map(|(n, o)| (n.clone(), o.holds())).collect();
                let vb: Vec<(String, bool)> =
                    b.outcomes.iter().map(|(n, o)| (n.clone(), o.holds())).collect();
                prop_assert_eq!(va, vb, "verdicts diverged on {:?}", u);
                // Only admitted updates land, on both sides alike — the
                // pre-test's Holds leans on the standing assumption.
                if a.all_hold() {
                    fast.apply_update(u).unwrap();
                    slow.apply_update(u).unwrap();
                }
            }
        }

        /// `check_updates` of N updates ≡ N `check_update` calls, on the
        /// employee constraint set (the E6 workload's) and on random
        /// subsets of the pool on both ladders, across every stage-4 path
        /// a batch can mix.
        #[test]
        fn batch_equals_sequential_on_the_employee_constraints(
            mask in 1u8..128,
            updates in prop::collection::vec(update_strategy(), 1..8),
        ) {
            let (fast_seq, legacy_seq) = pool_managers(mask);
            let (fast_batch, legacy_batch) = pool_managers(mask);
            let pairs = [
                (super::tests::emp_mgr(), super::tests::emp_mgr()),
                (fast_seq, fast_batch),
                (legacy_seq, legacy_batch),
            ];
            for (mut seq, mut batch) in pairs {
                let want: Vec<CheckReport> = updates
                    .iter()
                    .map(|u| seq.check_update(u).unwrap())
                    .collect();
                let got = batch.check_updates(&updates).unwrap();
                prop_assert_eq!(got.len(), want.len());
                for ((g, w), u) in got.iter().zip(&want).zip(&updates) {
                    prop_assert_eq!(g, w, "batch diverged from sequential on {:?}", u);
                }
            }
        }
    }
}
