//! Check reports: which method settled each constraint, at what cost.

use std::fmt;

/// Which complete local test certified the constraint.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub enum LocalTestKind {
    /// The compiled Theorem 5.3 relational-algebra plan.
    RaPlan,
    /// The Theorem 6.1 forbidden-interval test.
    Interval,
    /// The general Theorem 5.2 reduction-containment test.
    Containment,
}

/// How a constraint was discharged.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub enum Method {
    /// §3: subsumed by the other registered constraints — never checked.
    Subsumed,
    /// §4: the update provably cannot introduce a violation.
    IndependentOfUpdate,
    /// A compiled weakest-precondition pre-test settled the update: the
    /// body instantiated with the Δ-tuple left a residual the pre-test
    /// could evaluate directly (comparisons only, ground probes, or one
    /// filtered existence scan).
    PreTest,
    /// §5–6: a complete local test succeeded (zero remote reads).
    LocalTest(LocalTestKind),
    /// Full evaluation touching remote data.
    FullCheck,
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Method::Subsumed => write!(f, "subsumed"),
            Method::IndependentOfUpdate => write!(f, "independent-of-update"),
            Method::PreTest => write!(f, "pre-test"),
            Method::LocalTest(LocalTestKind::RaPlan) => write!(f, "local-test(ra)"),
            Method::LocalTest(LocalTestKind::Interval) => write!(f, "local-test(interval)"),
            Method::LocalTest(LocalTestKind::Containment) => {
                write!(f, "local-test(containment)")
            }
            Method::FullCheck => write!(f, "full-check"),
        }
    }
}

/// How a stage-4 full check was actually evaluated. Attribution only —
/// the verdict is identical across kinds (the equivalence the delta-path
/// proptests pin down), so these fields are deliberately excluded from
/// [`CheckReport`]'s `PartialEq`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub enum Stage4Kind {
    /// Delta plans seeded with the update's Δ-tuples joined over the
    /// pre-update database — no post-update snapshot was built.
    DeltaSeeded,
    /// The classic path: evaluate the whole program over a copy-on-write
    /// post-update snapshot.
    FullSnapshot,
    /// A previously computed verdict for the same update against the same
    /// relation versions (certified by `TupleSnapshot` pins) was reused.
    CachedVerdict,
}

impl fmt::Display for Stage4Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stage4Kind::DeltaSeeded => write!(f, "delta-seeded"),
            Stage4Kind::FullSnapshot => write!(f, "full-snapshot"),
            Stage4Kind::CachedVerdict => write!(f, "cached-verdict"),
        }
    }
}

/// Why a constraint's status could not be determined.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub enum UnknownCause {
    /// The full check needed remote data and the remote site could not be
    /// reached (after retries/timeouts). The paper's partial-information
    /// setting taken literally: "accessing remote data may be expensive
    /// *or impossible*" — degrade gracefully rather than fail.
    RemoteUnavailable,
}

impl fmt::Display for UnknownCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnknownCause::RemoteUnavailable => write!(f, "remote unavailable"),
        }
    }
}

/// The verdict for one constraint.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub enum Outcome {
    /// The constraint still holds; `Method` says how we know.
    Holds(Method),
    /// The update would violate the constraint (established by the full
    /// check — the only stage that can say "no").
    Violated,
    /// Stages 1–3 could not certify the update and stage 4 could not run
    /// (e.g. the remote site is unreachable). Not a violation — the caller
    /// decides whether to block, queue, or optimistically apply.
    Unknown(UnknownCause),
}

impl Outcome {
    /// `true` only when the constraint is positively certified to hold.
    /// `Unknown` is *not* a certificate.
    pub fn holds(&self) -> bool {
        matches!(self, Outcome::Holds(_))
    }

    /// `true` when the status could not be determined.
    pub fn is_unknown(&self) -> bool {
        matches!(self, Outcome::Unknown(_))
    }

    /// The discharging method, if the constraint holds.
    pub fn method(&self) -> Option<Method> {
        match self {
            Outcome::Holds(m) => Some(*m),
            Outcome::Violated | Outcome::Unknown(_) => None,
        }
    }
}

/// Transport-level counters measured by a remote source during a check;
/// all zeros in the single-site setting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct WireStats {
    /// Individual requests issued (batched requests count each entry).
    pub requests: u64,
    /// Wire round trips (one per batch actually sent).
    pub round_trips: u64,
    /// Bytes written to the transport.
    pub bytes_sent: u64,
    /// Bytes read from the transport.
    pub bytes_received: u64,
    /// Re-sends after a failed/timed-out attempt.
    pub retries: u64,
    /// Attempts abandoned because the per-request deadline expired.
    pub timeouts: u64,
    /// Attempts whose reply was unusable: undecodable bytes, a failed
    /// payload checksum, a stale/duplicated nonce, a response count that
    /// does not match the batch, or a peer `BadFrame` report.
    pub corrupt_frames: u64,
    /// Attempts that found the peer gone mid-exchange.
    pub disconnects: u64,
    /// Connection resets forced by the client after a corrupt frame
    /// (poison-and-redial, never reuse a desynchronised stream).
    pub redials: u64,
    /// Whole exchanges abandoned after the retry budget (or the exchange
    /// deadline) ran out — each one surfaces as `RemoteUnavailable`.
    pub failed_exchanges: u64,
}

impl WireStats {
    /// Component-wise difference `self - earlier` (saturating), for
    /// turning two cumulative snapshots into a per-check delta.
    pub fn delta_since(&self, earlier: &WireStats) -> WireStats {
        WireStats {
            requests: self.requests.saturating_sub(earlier.requests),
            round_trips: self.round_trips.saturating_sub(earlier.round_trips),
            bytes_sent: self.bytes_sent.saturating_sub(earlier.bytes_sent),
            bytes_received: self.bytes_received.saturating_sub(earlier.bytes_received),
            retries: self.retries.saturating_sub(earlier.retries),
            timeouts: self.timeouts.saturating_sub(earlier.timeouts),
            corrupt_frames: self.corrupt_frames.saturating_sub(earlier.corrupt_frames),
            disconnects: self.disconnects.saturating_sub(earlier.disconnects),
            redials: self.redials.saturating_sub(earlier.redials),
            failed_exchanges: self
                .failed_exchanges
                .saturating_sub(earlier.failed_exchanges),
        }
    }

    /// Aggregates independent per-client cumulative snapshots into one
    /// total. This is the *stateless* way to report multi-shard wire
    /// traffic: fold fresh snapshots every time totals are wanted.
    ///
    /// Do **not** `absorb` cumulative snapshots into a long-lived
    /// accumulator across reporting rounds — a client whose counters were
    /// already absorbed once gets its whole history (redials included)
    /// counted again on every later round. `absorb` is for *deltas* (or a
    /// one-shot fold like this one); `merged` makes the one-shot shape the
    /// easy default.
    pub fn merged<'a>(snapshots: impl IntoIterator<Item = &'a WireStats>) -> WireStats {
        let mut total = WireStats::default();
        for s in snapshots {
            total.absorb(s);
        }
        total
    }

    /// Component-wise accumulation.
    pub fn absorb(&mut self, other: &WireStats) {
        self.requests += other.requests;
        self.round_trips += other.round_trips;
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.corrupt_frames += other.corrupt_frames;
        self.disconnects += other.disconnects;
        self.redials += other.redials;
        self.failed_exchanges += other.failed_exchanges;
    }

    /// `true` when nothing touched the wire.
    pub fn is_zero(&self) -> bool {
        *self == WireStats::default()
    }
}

impl fmt::Display for WireStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} req / {} rt / {}B out / {}B in / {} retries / {} timeouts",
            self.requests,
            self.round_trips,
            self.bytes_sent,
            self.bytes_received,
            self.retries,
            self.timeouts
        )?;
        if self.corrupt_frames + self.disconnects + self.redials + self.failed_exchanges > 0 {
            write!(
                f,
                " / {} corrupt / {} disconnects / {} redials / {} failed",
                self.corrupt_frames, self.disconnects, self.redials, self.failed_exchanges
            )?;
        }
        Ok(())
    }
}

/// Wall-clock microseconds spent in each pipeline stage during one
/// check, and in emitting its certificates, summed across constraints — including the local tests the
/// check loop fans out to scoped threads, so the sum can exceed the
/// check's wall clock. Attribution only: timings vary run to run, so — like
/// the stage-4 kinds — they are excluded from [`CheckReport`] equality.
/// E14 uses these to say *where* a check's time went.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct StageTimes {
    /// Stage 1, the subsumption flag test.
    pub subsumption_us: f64,
    /// The prefilter: compiled host filtering (unification + grounded
    /// comparisons + arith satisfiability) without residual evaluation.
    pub prefilter_us: f64,
    /// Compiled pre-test residual evaluation.
    pub pretest_us: f64,
    /// The §4 rewrite+containment independence test.
    pub independence_us: f64,
    /// §5–6 complete local tests.
    pub local_test_us: f64,
    /// Stage 4: delta-seeded / snapshot full checks and verdict-cache
    /// probes.
    pub stage4_us: f64,
    /// Certificate emission for the finished report (witness search,
    /// pins, remote rows); zero unless certificates are enabled.
    pub certify_us: f64,
}

impl StageTimes {
    /// Component-wise accumulation (merging per-thread timers).
    pub fn absorb(&mut self, other: &StageTimes) {
        self.subsumption_us += other.subsumption_us;
        self.prefilter_us += other.prefilter_us;
        self.pretest_us += other.pretest_us;
        self.independence_us += other.independence_us;
        self.local_test_us += other.local_test_us;
        self.stage4_us += other.stage4_us;
        self.certify_us += other.certify_us;
    }

    /// Total microseconds across all stages and certificate emission.
    pub fn total_us(&self) -> f64 {
        self.subsumption_us
            + self.prefilter_us
            + self.pretest_us
            + self.independence_us
            + self.local_test_us
            + self.stage4_us
            + self.certify_us
    }
}

/// The result of checking one update against every registered constraint.
#[derive(Clone, Debug, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct CheckReport {
    /// Per-constraint outcomes, in registration order.
    pub outcomes: Vec<(String, Outcome)>,
    /// Remote tuples that had to be read (only the full-check stage reads
    /// remote data).
    pub remote_tuples_read: usize,
    /// Remote bytes transferred (per the tuple transfer-size model).
    pub remote_bytes_read: usize,
    /// Number of constraints that needed the full check.
    pub full_checks: usize,
    /// Measured transport counters (all zeros without a remote source).
    pub wire: WireStats,
    /// Per-constraint stage-4 evaluation kinds, in escalation order (only
    /// constraints that reached stage 4 appear). Attribution, not outcome.
    pub stage4_kinds: Vec<(String, Stage4Kind)>,
    /// Total Δ-tuples instantiated into delta plans across all seeded
    /// stage-4 evaluations of this check.
    pub delta_tuples_joined: usize,
    /// Microseconds spent per pipeline stage (attribution, not outcome).
    pub stage_times: StageTimes,
    /// Proof-carrying evidence for definite verdicts, keyed by constraint
    /// name (only emitted when the manager has certificates enabled, and
    /// only for single-rule constraints). Evidence, not outcome: like the
    /// attribution fields it is excluded from equality, since the same
    /// verdict re-derived by a differently-configured manager carries a
    /// different (but equally valid) certificate.
    pub certificates: Vec<(String, ccpi_audit::Certificate)>,
}

/// Equality ignores the *attribution* fields (`stage4_kinds`,
/// `delta_tuples_joined`, `stage_times`): a warm manager answering from
/// its verdict cache and a fresh manager re-deriving the same verdict
/// report the same check — which is exactly the equivalence the delta
/// path guarantees and the cached-vs-fresh stream tests assert — and
/// wall-clock timings are never comparable across runs.
impl PartialEq for CheckReport {
    fn eq(&self, other: &Self) -> bool {
        self.outcomes == other.outcomes
            && self.remote_tuples_read == other.remote_tuples_read
            && self.remote_bytes_read == other.remote_bytes_read
            && self.full_checks == other.full_checks
            && self.wire == other.wire
    }
}

impl Eq for CheckReport {}

impl CheckReport {
    /// The outcome for a constraint by name.
    pub fn outcome(&self, name: &str) -> Option<Outcome> {
        self.outcomes
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, o)| *o)
    }

    /// `true` when no constraint is violated.
    pub fn all_hold(&self) -> bool {
        self.outcomes.iter().all(|(_, o)| o.holds())
    }

    /// Names of violated constraints (`Unknown` is not a violation).
    pub fn violations(&self) -> Vec<&str> {
        self.outcomes
            .iter()
            .filter(|(_, o)| matches!(o, Outcome::Violated))
            .map(|(n, _)| n.as_str())
            .collect()
    }

    /// Names of constraints whose status could not be determined.
    pub fn unknowns(&self) -> Vec<&str> {
        self.outcomes
            .iter()
            .filter(|(_, o)| o.is_unknown())
            .map(|(n, _)| n.as_str())
            .collect()
    }

    /// How many constraints each method discharged.
    pub fn method_histogram(&self) -> Vec<(Method, usize)> {
        let methods = [
            Method::Subsumed,
            Method::IndependentOfUpdate,
            Method::PreTest,
            Method::LocalTest(LocalTestKind::RaPlan),
            Method::LocalTest(LocalTestKind::Interval),
            Method::LocalTest(LocalTestKind::Containment),
            Method::FullCheck,
        ];
        methods
            .into_iter()
            .map(|m| {
                let n = self
                    .outcomes
                    .iter()
                    .filter(|(_, o)| o.method() == Some(m))
                    .count();
                (m, n)
            })
            .collect()
    }

    /// How many stage-4 evaluations ran each way.
    pub fn stage4_histogram(&self) -> Vec<(Stage4Kind, usize)> {
        [
            Stage4Kind::DeltaSeeded,
            Stage4Kind::FullSnapshot,
            Stage4Kind::CachedVerdict,
        ]
        .into_iter()
        .map(|k| {
            let n = self.stage4_kinds.iter().filter(|(_, x)| *x == k).count();
            (k, n)
        })
        .collect()
    }

    /// The stage-4 kind recorded for a constraint, if it escalated.
    pub fn stage4_kind(&self, name: &str) -> Option<Stage4Kind> {
        self.stage4_kinds
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, k)| *k)
    }

    /// The certificate emitted for a constraint, if any.
    pub fn certificate(&self, name: &str) -> Option<&ccpi_audit::Certificate> {
        self.certificates
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c)
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, outcome) in &self.outcomes {
            match outcome {
                Outcome::Holds(m) => writeln!(f, "  {name}: holds [{m}]")?,
                Outcome::Violated => writeln!(f, "  {name}: VIOLATED")?,
                Outcome::Unknown(c) => writeln!(f, "  {name}: UNKNOWN ({c})")?,
            }
        }
        write!(
            f,
            "  remote reads: {} tuples / {} bytes; full checks: {}",
            self.remote_tuples_read, self.remote_bytes_read, self.full_checks
        )?;
        if !self.stage4_kinds.is_empty() {
            let parts: Vec<String> = self
                .stage4_kinds
                .iter()
                .map(|(n, k)| format!("{n}={k}"))
                .collect();
            write!(
                f,
                "\n  stage 4: {} ({} delta tuples joined)",
                parts.join(", "),
                self.delta_tuples_joined
            )?;
        }
        if !self.wire.is_zero() {
            write!(f, "\n  wire: {}", self.wire)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_accessors() {
        let r = CheckReport {
            outcomes: vec![
                ("a".into(), Outcome::Holds(Method::Subsumed)),
                ("b".into(), Outcome::Violated),
            ],
            remote_tuples_read: 5,
            remote_bytes_read: 80,
            full_checks: 1,
            wire: WireStats::default(),
            ..CheckReport::default()
        };
        assert!(!r.all_hold());
        assert_eq!(r.violations(), vec!["b"]);
        assert_eq!(r.outcome("a"), Some(Outcome::Holds(Method::Subsumed)));
        assert_eq!(r.outcome("missing"), None);
        let hist = r.method_histogram();
        assert_eq!(hist.iter().map(|(_, n)| n).sum::<usize>(), 1);
    }

    #[test]
    fn merged_counts_each_client_once() {
        // Two shard clients, each with one redial and one retry on its own
        // cumulative counter: the fleet total must be 2 of each, not 4 —
        // aggregation must not re-absorb a client's history.
        let a = WireStats {
            requests: 10,
            round_trips: 5,
            retries: 1,
            redials: 1,
            ..WireStats::default()
        };
        let b = WireStats {
            requests: 4,
            round_trips: 4,
            retries: 1,
            redials: 1,
            ..WireStats::default()
        };
        let total = WireStats::merged([&a, &b]);
        assert_eq!(total.requests, 14);
        assert_eq!(total.round_trips, 9);
        assert_eq!(total.retries, 2);
        assert_eq!(total.redials, 2);

        // Re-merging fresh snapshots is idempotent: the same inputs give
        // the same totals, unlike absorbing into a long-lived accumulator
        // (which double-counts every client's history per round).
        assert_eq!(WireStats::merged([&a, &b]), total);
        let mut stale_accumulator = total;
        stale_accumulator.absorb(&a);
        stale_accumulator.absorb(&b);
        assert_eq!(
            stale_accumulator.redials, 4,
            "the anti-pattern double-counts"
        );
    }

    #[test]
    fn merged_of_deltas_matches_delta_of_merged() {
        let before_a = WireStats {
            requests: 3,
            round_trips: 3,
            ..WireStats::default()
        };
        let after_a = WireStats {
            requests: 7,
            round_trips: 6,
            redials: 1,
            ..WireStats::default()
        };
        let before_b = WireStats::default();
        let after_b = WireStats {
            requests: 2,
            round_trips: 2,
            ..WireStats::default()
        };
        let per_client = WireStats::merged([
            &after_a.delta_since(&before_a),
            &after_b.delta_since(&before_b),
        ]);
        let merged_then_delta = WireStats::merged([&after_a, &after_b])
            .delta_since(&WireStats::merged([&before_a, &before_b]));
        assert_eq!(per_client, merged_then_delta);
    }

    #[test]
    fn display_mentions_violations() {
        let r = CheckReport {
            outcomes: vec![("x".into(), Outcome::Violated)],
            ..CheckReport::default()
        };
        assert!(r.to_string().contains("VIOLATED"));
    }

    #[test]
    fn outcome_helpers() {
        let h = Outcome::Holds(Method::FullCheck);
        assert!(h.holds());
        assert_eq!(h.method(), Some(Method::FullCheck));
        assert!(!Outcome::Violated.holds());
        assert_eq!(Outcome::Violated.method(), None);
        let u = Outcome::Unknown(UnknownCause::RemoteUnavailable);
        assert!(!u.holds());
        assert!(u.is_unknown());
        assert_eq!(u.method(), None);
    }

    #[test]
    fn unknown_is_not_a_violation() {
        let r = CheckReport {
            outcomes: vec![
                ("a".into(), Outcome::Holds(Method::Subsumed)),
                (
                    "b".into(),
                    Outcome::Unknown(UnknownCause::RemoteUnavailable),
                ),
            ],
            ..CheckReport::default()
        };
        assert!(r.violations().is_empty());
        assert_eq!(r.unknowns(), vec!["b"]);
        assert!(!r.all_hold(), "unknown is not a certificate");
        assert!(r.to_string().contains("UNKNOWN"));
    }

    #[cfg(feature = "serde")]
    #[test]
    fn report_serializes_to_json() {
        let r = CheckReport {
            outcomes: vec![
                (
                    "a".into(),
                    Outcome::Holds(Method::LocalTest(LocalTestKind::Interval)),
                ),
                (
                    "b".into(),
                    Outcome::Unknown(UnknownCause::RemoteUnavailable),
                ),
            ],
            stage4_kinds: vec![("b".into(), Stage4Kind::DeltaSeeded)],
            delta_tuples_joined: 3,
            ..CheckReport::default()
        };
        let json = serde::json::to_string(&r);
        assert!(json.contains("\"outcomes\""), "{json}");
        assert!(json.contains("LocalTest"), "{json}");
        assert!(json.contains("RemoteUnavailable"), "{json}");
        assert!(json.contains("\"wire\""), "{json}");
        assert!(json.contains("\"stage4_kinds\""), "{json}");
        assert!(json.contains("DeltaSeeded"), "{json}");
        assert!(json.contains("\"delta_tuples_joined\""), "{json}");
        assert!(json.contains("\"stage_times\""), "{json}");
        assert!(json.contains("\"pretest_us\""), "{json}");
        assert!(json.contains("\"certificates\""), "{json}");
    }

    #[test]
    fn stage_timing_is_excluded_from_equality() {
        let base = CheckReport {
            outcomes: vec![("a".into(), Outcome::Holds(Method::PreTest))],
            ..CheckReport::default()
        };
        let mut timed = base.clone();
        timed.stage_times.prefilter_us = 1.5;
        timed.stage_times.pretest_us = 2.5;
        assert_eq!(base, timed, "timings are attribution, not outcome");
        assert!(timed.stage_times.total_us() > 3.9);
        let mut acc = StageTimes::default();
        acc.absorb(&timed.stage_times);
        acc.absorb(&timed.stage_times);
        assert_eq!(acc.pretest_us, 5.0);
    }

    #[test]
    fn pretest_method_is_counted_and_displayed() {
        let r = CheckReport {
            outcomes: vec![
                ("a".into(), Outcome::Holds(Method::PreTest)),
                ("b".into(), Outcome::Holds(Method::Subsumed)),
            ],
            ..CheckReport::default()
        };
        let hist = r.method_histogram();
        let pretest = hist
            .iter()
            .find(|(m, _)| *m == Method::PreTest)
            .map(|(_, n)| *n);
        assert_eq!(pretest, Some(1));
        assert!(r.to_string().contains("pre-test"));
    }

    #[test]
    fn certificates_are_evidence_not_outcome() {
        use ccpi_audit::{Certificate, CertificateBody, Stage};
        let base = CheckReport {
            outcomes: vec![("a".into(), Outcome::Holds(Method::PreTest))],
            ..CheckReport::default()
        };
        let mut certified = base.clone();
        certified.certificates = vec![(
            "a".into(),
            Certificate {
                constraint: "a".into(),
                stage: Stage::PreTest,
                db_version: 1,
                update: ccpi_storage::Update::insert("p", ccpi_storage::tuple![1i64]),
                pins: vec![("p".into(), 0)],
                remote_rows: vec![],
                body: CertificateBody::DeltaPass,
            },
        )];
        assert_eq!(base, certified, "certificates are evidence, not outcome");
        assert_eq!(
            certified.certificate("a").map(|c| c.stage),
            Some(Stage::PreTest)
        );
        assert!(certified.certificate("zzz").is_none());
    }

    #[test]
    fn stage4_attribution_is_excluded_from_equality() {
        let base = CheckReport {
            outcomes: vec![("a".into(), Outcome::Holds(Method::FullCheck))],
            full_checks: 1,
            ..CheckReport::default()
        };
        let mut cached = base.clone();
        cached.stage4_kinds = vec![("a".into(), Stage4Kind::CachedVerdict)];
        let mut seeded = base.clone();
        seeded.stage4_kinds = vec![("a".into(), Stage4Kind::DeltaSeeded)];
        seeded.delta_tuples_joined = 2;
        assert_eq!(base, cached);
        assert_eq!(cached, seeded);
        // ...but real differences still show.
        let mut other = base.clone();
        other.full_checks = 2;
        assert_ne!(base, other);
    }

    #[test]
    fn stage4_histogram_counts_kinds() {
        let r = CheckReport {
            stage4_kinds: vec![
                ("a".into(), Stage4Kind::DeltaSeeded),
                ("b".into(), Stage4Kind::DeltaSeeded),
                ("c".into(), Stage4Kind::FullSnapshot),
            ],
            ..CheckReport::default()
        };
        let hist = r.stage4_histogram();
        assert_eq!(hist[0], (Stage4Kind::DeltaSeeded, 2));
        assert_eq!(hist[1], (Stage4Kind::FullSnapshot, 1));
        assert_eq!(hist[2], (Stage4Kind::CachedVerdict, 0));
        assert_eq!(r.stage4_kind("c"), Some(Stage4Kind::FullSnapshot));
        assert_eq!(r.stage4_kind("zzz"), None);
        assert!(r.to_string().contains("delta-seeded"));
    }

    #[test]
    fn wire_stats_delta_and_absorb() {
        let a = WireStats {
            requests: 3,
            round_trips: 2,
            bytes_sent: 100,
            bytes_received: 900,
            retries: 1,
            timeouts: 0,
            ..WireStats::default()
        };
        let b = WireStats {
            requests: 5,
            round_trips: 3,
            bytes_sent: 160,
            bytes_received: 1000,
            retries: 1,
            timeouts: 1,
            corrupt_frames: 2,
            disconnects: 1,
            redials: 2,
            failed_exchanges: 1,
        };
        let d = b.delta_since(&a);
        assert_eq!(d.requests, 2);
        assert_eq!(d.round_trips, 1);
        assert_eq!(d.bytes_sent, 60);
        assert_eq!(d.timeouts, 1);
        assert_eq!(d.corrupt_frames, 2);
        assert_eq!(d.redials, 2);
        assert_eq!(d.failed_exchanges, 1);
        let mut acc = a;
        acc.absorb(&d);
        assert_eq!(acc, b);
        assert!(WireStats::default().is_zero());
        assert!(!b.is_zero());
    }
}
