//! A distributed-inventory scenario: how many remote round trips do the
//! paper's tests avoid on a realistic update stream?
//!
//! A warehouse site owns `emp` (its staff roster); headquarters owns the
//! department catalog and salary policy. The site processes a stream of
//! hires, terminations and catalog changes, and we account for every
//! remote access the checking pipeline needed — the paper's motivating
//! metric — from the counters each `CheckReport` measures: full checks,
//! remote tuples and bytes read, and transport traffic. (Both sites live
//! in one process here, so remote reads are metered but no frame crosses
//! a wire; `two_site_tcp` runs the same ladder over TCP.)
//!
//! Run with: `cargo run --release --example distributed_inventory`

use ccpi_suite::core::prelude::*;
use ccpi_suite::core::report::{Method, WireStats};
use ccpi_suite::workload::emp::{database, update_stream, EmpConfig};
use ccpi_suite::workload::rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = EmpConfig {
        employees: 500,
        departments: 12,
        dangling_fraction: 0.0,
        salary_range: (10, 200),
    };
    let mut r = rng(42);
    let db = database(&cfg, &mut r);

    let mut mgr = ConstraintManager::new(db);
    mgr.add_constraint("referential", "panic :- emp(E,D,S) & not dept(D).")?;
    mgr.add_constraint(
        "pay-floor",
        "panic :- emp(E,D,S) & salRange(D,Low,High) & S < Low.",
    )?;
    mgr.add_constraint(
        "pay-ceiling",
        "panic :- emp(E,D,S) & salRange(D,Low,High) & S > High.",
    )?;

    let stream = update_stream(&cfg, &mut r, 200);

    let mut histogram: Vec<(Method, usize)> = Vec::new();
    let (mut violations, mut full_checks) = (0usize, 0usize);
    let (mut remote_tuples, mut remote_bytes) = (0usize, 0usize);
    let mut wire = WireStats::default();
    for update in &stream {
        let report = mgr.check_update(update)?;
        for (m, n) in report.method_histogram() {
            match histogram.iter_mut().find(|(hm, _)| *hm == m) {
                Some((_, total)) => *total += n,
                None => histogram.push((m, n)),
            }
        }
        violations += report.violations().len();
        full_checks += report.full_checks;
        remote_tuples += report.remote_tuples_read;
        remote_bytes += report.remote_bytes_read;
        wire.absorb(&report.wire);
        if report.all_hold() {
            mgr.database_mut().apply(update)?;
        }
    }

    let checks: usize = histogram.iter().map(|(_, n)| n).sum::<usize>() + violations;
    println!(
        "processed {} updates ({} constraint checks)",
        stream.len(),
        checks
    );
    println!("\ndischarged by method:");
    for (m, n) in &histogram {
        if *n > 0 {
            println!(
                "  {m:<24} {n:>6}  ({:.1}%)",
                100.0 * *n as f64 / checks as f64
            );
        }
    }
    println!("  {:<24} {violations:>6}", "violations");
    println!("\nfull checks: {full_checks}");
    println!("remote reads: {remote_tuples} tuples, {remote_bytes} bytes");
    println!("wire: {wire}");

    // Counterfactual: a checker with no partial-information machinery
    // would run a full (remote-touching) check per constraint per update.
    println!(
        "naive re-check: {} full checks against the measured {full_checks}",
        stream.len() * 3
    );
    Ok(())
}
