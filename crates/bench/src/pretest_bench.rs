//! E14 — compiled pre-tests vs the legacy fixed ladder
//! (`BENCH_pretest.json`).
//!
//! A/B-measures `ConstraintManager::check_update` over the E6/E9 mixed
//! employee stream *plus* a tail of all-escalate probes, with the
//! compiled pre-test pipeline **on** (the default for flat denial
//! constraints) and **off** (`set_pretest_checking(Some(false))`: the
//! PR 6 fixed ladder). Three numbers matter:
//!
//! * **settled fraction** — of the (update, constraint) pairs that the
//!   legacy ladder escalated to stage 4, how many the compiled pipeline
//!   settles earlier (pre-test verdict, residual ground probe, or
//!   filtered scan). The headline claim is ≥ 30%.
//! * **verdict divergences** — the full-ladder twin: both modes replay
//!   the identical stream (applying exactly the clean updates) and every
//!   per-constraint holds/violated verdict must agree. Must be zero —
//!   the pipeline is an optimization, not a semantics change.
//! * **µs per check** in each mode, with the pipeline's mean pre-test
//!   stage time attributed from [`CheckReport::stage_times`].
//!
//! [`measure`] additionally runs one modest E13-style group-commit
//! admission cell (real TCP, durable WAL, soundness twin) so the
//! committed file records admits/sec with the pipeline active in the
//! server's admit thread.
//!
//! [`CheckReport::stage_times`]: ccpi::prelude::CheckReport

use crate::server_bench::{self, ServerRow};
use crate::throughput::{config_at, escalating_update, manager_at};
use ccpi::prelude::{ConstraintManager, Update};
use ccpi_workload::emp::update_stream;
use ccpi_workload::rng;
use std::time::Instant;

/// One measured database size of the pre-test-vs-ladder comparison.
#[derive(Clone, Debug, serde::Serialize)]
pub struct PretestRow {
    /// Employee tuples in the database.
    pub tuples: usize,
    /// Updates replayed under both modes (mixed stream + escalate probes).
    pub stream_len: usize,
    /// (update, constraint) pairs the *legacy* ladder escalated to
    /// stage 4 across the stream.
    pub escalations_legacy: usize,
    /// The same count with the compiled pipeline on.
    pub escalations_pipeline: usize,
    /// `1 - escalations_pipeline / escalations_legacy`: the fraction of
    /// previously-escalating pairs the compiled pre-tests settle.
    pub settled_fraction: f64,
    /// Mean microseconds per check, legacy fixed ladder.
    pub legacy_check_us: f64,
    /// Mean microseconds per check, compiled pipeline.
    pub pipeline_check_us: f64,
    /// `legacy_check_us / pipeline_check_us`.
    pub speedup: f64,
    /// Mean microseconds spent in the pre-test stage per check (pipeline
    /// mode), from the per-stage timing counters.
    pub pretest_us_mean: f64,
    /// Per-constraint holds/violated verdicts that differed between the
    /// two modes. Must be zero.
    pub verdict_divergences: usize,
}

struct ModeStats {
    /// Per update: `(constraint, holds)` in registration order.
    verdicts: Vec<Vec<(String, bool)>>,
    escalations: usize,
    check_us: f64,
    pretest_us_mean: f64,
}

/// Replays `stream` through `mgr`, applying each update both modes will
/// agree is clean (the §2 standing assumption, enforced exactly as the
/// E10 harness does it).
fn replay(mgr: &mut ConstraintManager, stream: &[Update]) -> ModeStats {
    let mut verdicts = Vec::with_capacity(stream.len());
    let mut escalations = 0usize;
    let mut pretest_us = 0.0f64;
    let start = Instant::now();
    for update in stream {
        let report = mgr.check_update(update).unwrap();
        escalations += report.full_checks;
        pretest_us += report.stage_times.pretest_us;
        verdicts.push(
            report
                .outcomes
                .iter()
                .map(|(name, o)| (name.clone(), o.holds()))
                .collect(),
        );
        if report.all_hold() {
            mgr.database_mut().apply(update).unwrap();
        }
    }
    let check_us = start.elapsed().as_secs_f64() * 1e6 / stream.len() as f64;
    ModeStats {
        verdicts,
        escalations,
        check_us,
        pretest_us_mean: pretest_us / stream.len() as f64,
    }
}

/// Measures one size: a `stream_len`-update mixed stream followed by
/// `probes` distinct all-escalate probes, replayed identically under the
/// legacy ladder and the compiled pipeline.
pub fn measure_size(n: usize, stream_len: usize, probes: usize) -> PretestRow {
    let mut stream = update_stream(&config_at(n), &mut rng(11), stream_len);
    // The E9 probes defeat every *legacy* cheap stage for all three
    // constraints — this is exactly the population the compiled
    // pre-tests exist to settle (ghost department: the referential
    // residual probe refutes, the salRange probes come back empty).
    // Distinct employees per probe so the verdict cache never answers.
    stream.extend((0..probes).map(|k| escalating_update(2_000_000 + k)));

    // `manager_at` pins the legacy ladder (the E9/E10 baseline contract);
    // the pipeline side re-enables the default.
    let mut legacy = manager_at(n);
    let mut pipeline = manager_at(n);
    pipeline.set_pretest_checking(Some(true));

    let off = replay(&mut legacy, &stream);
    let on = replay(&mut pipeline, &stream);

    let verdict_divergences = off
        .verdicts
        .iter()
        .zip(&on.verdicts)
        .map(|(a, b)| a.iter().zip(b).filter(|(x, y)| x != y).count())
        .sum();
    let settled_fraction = if off.escalations == 0 {
        0.0
    } else {
        1.0 - on.escalations as f64 / off.escalations as f64
    };

    PretestRow {
        tuples: n,
        stream_len: stream.len(),
        escalations_legacy: off.escalations,
        escalations_pipeline: on.escalations,
        settled_fraction,
        legacy_check_us: off.check_us,
        pipeline_check_us: on.check_us,
        speedup: off.check_us / on.check_us,
        pretest_us_mean: on.pretest_us_mean,
        verdict_divergences,
    }
}

/// The full E14 result: one row per size plus a modest admission cell.
pub struct PretestReport {
    /// Per-size ladder-stream rows.
    pub rows: Vec<PretestRow>,
    /// One 8-client group-commit E13 cell with the pipeline in the admit
    /// thread (real TCP + WAL + soundness twin).
    pub admission: ServerRow,
}

/// Runs the harness over `sizes`, scaling the stream down as databases
/// grow, then the admission cell.
pub fn measure(sizes: &[usize]) -> PretestReport {
    let rows = sizes
        .iter()
        .map(|&n| {
            let (stream, probes) = if n <= 10_000 {
                (60, 40)
            } else if n <= 100_000 {
                (40, 30)
            } else {
                (20, 10)
            };
            measure_size(n, stream, probes)
        })
        .collect();
    let admission = server_bench::measure_cell(8, 8, 8);
    PretestReport { rows, admission }
}

/// The full E14 sizes (the E9/E10 ladder-stream sizes minus the 1M row —
/// the legacy lane replays every probe at full-evaluation cost).
pub const FULL_SIZES: [usize; 2] = [10_000, 100_000];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::throughput::{CONSTRAINTS, SMOKE_SIZES};

    /// The smoke run CI exercises: the identical code path as the
    /// committed BENCH_pretest.json numbers, at a tiny size — including
    /// the acceptance floor (≥30% of previously-escalating pairs
    /// settled) and the zero-divergence twin.
    #[test]
    fn smoke_pretests_settle_escalations_with_identical_verdicts() {
        let row = measure_size(SMOKE_SIZES[0], 12, 8);
        assert_eq!(row.tuples, SMOKE_SIZES[0]);
        assert!(row.legacy_check_us > 0.0);
        assert!(row.pipeline_check_us > 0.0);
        assert!(
            row.escalations_legacy >= CONSTRAINTS.len() * 8,
            "the probe tail must escalate under the legacy ladder"
        );
        assert!(
            row.settled_fraction >= 0.3,
            "settled fraction {:.2} below the 30% acceptance floor",
            row.settled_fraction
        );
        assert_eq!(row.verdict_divergences, 0, "modes disagreed on verdicts");
        assert!(
            row.pretest_us_mean > 0.0,
            "stage timing must attribute pre-test work"
        );
    }
}
