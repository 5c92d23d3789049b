//! The experiments driver: regenerates every figure-table and the
//! measured claims recorded in EXPERIMENTS.md.
//!
//! Usage:
//! ```text
//! experiments                   # all tables
//! experiments --table f21       # one table (f21|f41|f42|f61|examples|e1..e10|e14)
//! experiments --table e9 --smoke  # E9 at tiny sizes, no BENCH_joins.json
//! experiments --table e10 --smoke # E10 at tiny sizes, no BENCH_delta.json
//! experiments --table e14       # E14 compiled pre-tests vs legacy ladder;
//!                               # writes BENCH_pretest.json
//! experiments --table e14 --smoke # E14 at tiny sizes, no BENCH_pretest.json
//! experiments --guard           # E9 @ 10k + E10 @ 10k + E14 @ 10k vs the
//!                               # committed BENCH_joins.json / BENCH_delta.json
//!                               # / BENCH_pretest.json; exits nonzero on a >30%
//!                               # checks/sec or settled-rate regression
//! experiments --chaos           # E11 soak: 20 seeds x 250 steps against the
//!                               # fault-free twin, plus the sharded sever soak
//!                               # (seeded link cuts must degrade, never lie);
//!                               # writes target/chaos_events.log
//! experiments --chaos --smoke   # CI variant: 8 fixed seeds x 60 steps, <60 s
//! experiments --chaos --seeds N --steps M --seed-base B
//!                               # custom soak (the nightly job randomizes B);
//!                               # any failure prints the reproducing seed
//! experiments --crash           # E12 soak: 20 seeds x 50 kill points against
//!                               # the crash-free twin, then the recovery bench;
//!                               # writes target/crash_events.log and
//!                               # BENCH_recovery.json
//! experiments --crash --smoke   # CI variant: 3 seeds x 10 kill points, no
//!                               # BENCH_recovery.json rewrite
//! experiments --crash --seeds N --kills K --steps M --seed-base B
//!                               # custom crash soak; any failure prints the
//!                               # reproducing seed
//! experiments --server          # E13 closed-loop admission service over TCP:
//!                               # group commit at 1/8/64
//!                               # clients, concurrent snapshot reads, twin
//!                               # cross-check; writes BENCH_server.json
//! experiments --server --smoke  # CI variant: 4 clients, tiny run, no
//!                               # BENCH_server.json rewrite
//! experiments --shard           # E15 partitioned scale curve: 1/2/4/8 shards
//!                               # at 1M tuples, fragment-local admission with
//!                               # zero cross-shard wire, single-site twin
//!                               # cross-check, plus the cross-shard escalation
//!                               # cell; writes BENCH_shard.json
//! experiments --shard --smoke   # CI variant: 1/4 shards at tiny sizes, no
//!                               # BENCH_shard.json rewrite
//! experiments --migrate         # E17 migration soak: live split/merge under
//!                               # continuous admission, seeded faults and a
//!                               # mid-copy kill, static single-site twin
//!                               # cross-check; writes target/migrate_events.log
//!                               # and BENCH_migrate.json
//! experiments --migrate --smoke # CI variant: 3 seeds x 120 steps, no
//!                               # BENCH_migrate.json rewrite
//! experiments --migrate --seeds N --steps M --seed-base B
//!                               # custom migration soak (the nightly job
//!                               # randomizes B); any flip, lost tuple or
//!                               # epoch mismatch prints the reproducing seed
//! experiments --audit           # E16 differential audit: every certificate
//!                               # the engine emits is re-verified by the
//!                               # standalone auditor, then certificate-replay
//!                               # recovery is timed against the ground audit;
//!                               # writes target/audit_events.log and
//!                               # BENCH_audit.json
//! experiments --audit --smoke   # CI variant: 6 seeds x 60 steps, tiny
//!                               # recovery A/B, no BENCH_audit.json rewrite
//! experiments --audit --seeds N --steps M --seed-base B
//!                               # custom differential soak; any rejection
//!                               # prints the reproducing seed
//! ```

use ccpi::prelude::*;
use ccpi_arith::{Domain, Solver};
use ccpi_bench::{
    duplicated_remote_cqc, forbidden_intervals, forbidden_intervals_cq, interval_database,
};
use ccpi_containment::klug::{cqc_contained_in_union_klug, order_count};
use ccpi_containment::thm51::{cqc_contained_in_union, mapping_count};
use ccpi_datalog::Engine;
use ccpi_ir::class::{classify, ConstraintClass};
use ccpi_ir::Program;
use ccpi_localtest::{compile_ra, complete_local_test, DatalogIntervalTest, IcqTest};
use ccpi_rewrite::closure::{representative, verify_figure, UpdateKind};
use ccpi_workload::emp::{database as emp_database, update_stream, EmpConfig};
use ccpi_workload::queries::cycle_family;
use ccpi_workload::rng;
use ccpi_workload::windows::{local_relation, WindowConfig};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--guard") {
        std::process::exit(run_guard());
    }
    if args.iter().any(|a| a == "--chaos") {
        std::process::exit(run_chaos(&args));
    }
    if args.iter().any(|a| a == "--crash") {
        std::process::exit(run_crash(&args));
    }
    if args.iter().any(|a| a == "--server") {
        std::process::exit(run_server(&args));
    }
    if args.iter().any(|a| a == "--shard") {
        std::process::exit(run_shard(&args));
    }
    if args.iter().any(|a| a == "--audit") {
        std::process::exit(run_audit(&args));
    }
    if args.iter().any(|a| a == "--migrate") {
        std::process::exit(run_migrate(&args));
    }
    let table = args
        .iter()
        .position(|a| a == "--table")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str);
    let all = table.is_none();
    let want = |t: &str| all || table == Some(t);

    if want("f21") {
        table_f21();
    }
    if want("f41") {
        table_closure(UpdateKind::Insertion);
    }
    if want("f42") {
        table_closure(UpdateKind::Deletion);
    }
    if want("f61") {
        table_f61();
    }
    if want("examples") {
        table_examples();
    }
    if want("e2") {
        table_e2();
    }
    if want("e3") {
        table_e3();
    }
    if want("e4") {
        table_e4();
    }
    if want("e5") {
        table_e5();
    }
    if want("e6") {
        table_e6();
    }
    if want("e1") {
        table_e1();
    }
    if want("e7") {
        table_e7();
    }
    if want("e8") {
        table_e8();
    }
    if want("e9") {
        table_e9(args.iter().any(|a| a == "--smoke"));
    }
    if want("e10") {
        table_e10(args.iter().any(|a| a == "--smoke"));
    }
    if want("e14") {
        table_e14(args.iter().any(|a| a == "--smoke"));
    }
}

fn heading(s: &str) {
    println!("\n=== {s} ===");
}

/// Fig. 2.1 — the twelve classes, with a machine-classified representative
/// each and the paper's §2 examples placed.
fn table_f21() {
    heading("F2.1  The twelve constraint classes (Fig. 2.1)");
    println!(
        "{:<24} {:<18} {:>9} {:>9}",
        "class", "shape", "arith", "neg"
    );
    for class in ConstraintClass::all() {
        let rep = representative(class);
        assert_eq!(classify(rep.program()), class);
        println!(
            "{:<24} {:<18} {:>9} {:>9}",
            class.short_name(),
            class.shape.label(),
            class.arithmetic,
            class.negation
        );
    }
    println!("\nexample placements (§2):");
    for (name, src) in [
        ("Example 2.1", "panic :- emp(E,sales) & emp(E,accounting)."),
        ("Example 2.2", "panic :- emp(E,D,S) & not dept(D) & S < 100."),
        (
            "Example 2.3",
            "panic :- emp(E,D,S) & salRange(D,L,H) & S < L.\npanic :- emp(E,D,S) & salRange(D,L,H) & S > H.",
        ),
        (
            "Example 2.4",
            "panic :- boss(E,E).\nboss(E,M) :- emp(E,D,S) & manager(D,M).\nboss(E,F) :- boss(E,G) & boss(G,F).",
        ),
    ] {
        let c = parse_constraint(src).unwrap();
        println!("  {name}: {}", classify(c.program()).short_name());
    }
}

/// Figs. 4.1 / 4.2 — closure under insertion/deletion, verified by
/// actually rewriting a representative of every class.
fn table_closure(kind: UpdateKind) {
    let (label, figure) = match kind {
        UpdateKind::Insertion => ("insertion", "F4.1"),
        UpdateKind::Deletion => ("deletion", "F4.2"),
    };
    heading(&format!("{figure}  Classes preserved under {label}"));
    println!(
        "{:<24} {:>8} {:<24} {:>9}",
        "class", "circled", "rewrite lands in", "verified"
    );
    let mut circled = 0;
    for row in verify_figure(kind) {
        if row.claimed_closed {
            circled += 1;
        }
        println!(
            "{:<24} {:>8} {:<24} {:>9}",
            row.class.short_name(),
            if row.claimed_closed { "yes" } else { "-" },
            row.achieved_class.short_name(),
            if row.claimed_closed {
                if row.verified {
                    "ok"
                } else {
                    "FAIL"
                }
            } else {
                "-"
            }
        );
    }
    println!(
        "circled classes: {circled} (paper: {})",
        match kind {
            UpdateKind::Insertion => 8,
            UpdateKind::Deletion => 6,
        }
    );
}

/// Fig. 6.1 — the generated datalog test and its behaviour on Example 5.3.
fn table_f61() {
    heading("F6.1  Generated recursive-datalog complete local test");
    let cqc = forbidden_intervals();
    let icq = IcqTest::new(&cqc, Domain::Dense).unwrap();
    let test = DatalogIntervalTest::new(icq).unwrap();
    println!("for C: {}", cqc);
    println!("\n{}", test.program());
    let local = Relation::from_tuples(2, [tuple![3, 6], tuple![5, 10]]);
    println!("\nL = {{(3,6), (5,10)}}:");
    for (a, b) in [(4i64, 8i64), (2, 8), (4, 11)] {
        let v = test.test(&tuple![a, b], &local);
        println!(
            "  insert ({a},{b}): {}",
            if v.holds() {
                "ok(a,b) derived — safe"
            } else {
                "not derived — ask remote"
            }
        );
    }
}

/// The worked examples, each checked to reproduce the paper's outcome.
fn table_examples() {
    heading("T-EX  Paper examples reproduced");
    let solver = Solver::dense();

    let checks: Vec<(&str, bool)> = vec![
        ("Ex 2.1-2.4 parse & classify into Fig 2.1 classes", {
            [
                "panic :- emp(E,sales) & emp(E,accounting).",
                "panic :- emp(E,D,S) & not dept(D) & S < 100.",
            ]
            .iter()
            .all(|s| parse_constraint(s).is_ok())
        }),
        ("Ex 4.1: C3 ⊆ C1 (C2 not needed)", {
            let c3 = parse_cq("panic :- emp(E,D,S) & not dept(D) & D <> toy.").unwrap();
            let c1 = parse_cq("panic :- emp(E,D,S) & not dept(D).").unwrap();
            ccpi_containment::negation::contained_sufficient(&c3, &c1, solver).is_yes()
        }),
        (
            "Ex 5.1: r(U,V)&r(V,U) ⊆ r(A,B)&A<=B (both mappings needed)",
            {
                let c1 = parse_cq("panic :- r(U,V) & r(V,U).").unwrap();
                let c2 = parse_cq("panic :- r(A,B) & A <= B.").unwrap();
                cqc_contained_in_union(&c1, std::slice::from_ref(&c2), solver).unwrap()
            },
        ),
        ("Ex 5.3: RED((4,8)) ⊆ RED((3,6)) ∪ RED((5,10))", {
            let cqc = forbidden_intervals();
            let local = Relation::from_tuples(2, [tuple![3, 6], tuple![5, 10]]);
            complete_local_test(&cqc, &tuple![4, 8], &local, solver).holds()
        }),
        ("Ex 5.3: …but in neither reduction alone", {
            let cqc = forbidden_intervals();
            let one = Relation::from_tuples(2, [tuple![3, 6]]);
            let two = Relation::from_tuples(2, [tuple![5, 10]]);
            !complete_local_test(&cqc, &tuple![4, 8], &one, solver).holds()
                && !complete_local_test(&cqc, &tuple![4, 8], &two, solver).holds()
        }),
        ("Ex 5.4: RED((a,b,c)) does not exist; σ-test for (a,b,b)", {
            let cqc = ccpi_localtest::Cqc::with_local(
                parse_cq("panic :- l(X,Y,Y) & r(Y,Z,X).").unwrap(),
                "l",
            )
            .unwrap();
            let plan = compile_ra(&cqc).unwrap();
            let mut local = Relation::new(3);
            local.insert(tuple!["a", "b", "b"]);
            cqc.red(&tuple!["a", "b", "c"]).is_none()
                && plan.test(&tuple!["a", "b", "b"], &local).holds()
        }),
        ("Ex 6.1: Fig 6.1 program decides coverage", {
            let cqc = forbidden_intervals();
            let t = DatalogIntervalTest::new(IcqTest::new(&cqc, Domain::Dense).unwrap()).unwrap();
            let local = Relation::from_tuples(2, [tuple![3, 6], tuple![5, 10]]);
            t.test(&tuple![4, 8], &local).holds() && !t.test(&tuple![2, 8], &local).holds()
        }),
    ];
    for (name, ok) in checks {
        println!("  [{}] {name}", if ok { "ok" } else { "FAIL" });
        assert!(ok, "{name}");
    }
}

/// E2 — Theorem 5.1 vs Klug, measured.
fn table_e2() {
    heading("E2  Theorem 5.1 vs Klug [1988] (cycle family, contained in r(A,B)&A<=B)");
    println!(
        "{:<4} {:>10} {:>12} {:>14} {:>14}",
        "k", "mappings", "weak orders", "thm5.1 (µs)", "klug (µs)"
    );
    for k in [2usize, 3, 4, 5] {
        let (c1, c2) = cycle_family(k);
        let union = std::slice::from_ref(&c2);
        let m = mapping_count(&c1, union).unwrap();
        let w = order_count(&c1, union).unwrap();
        let t1 = time_us(|| {
            assert!(cqc_contained_in_union(&c1, union, Solver::dense()).unwrap());
        });
        let t2 = time_us(|| {
            assert!(cqc_contained_in_union_klug(&c1, union).unwrap());
        });
        println!("{k:<4} {m:>10} {w:>12} {t1:>14.1} {t2:>14.1}");
    }
}

/// E3 — local test flat in remote size; full check grows.
fn table_e3() {
    heading("E3  Local test vs full re-check as remote data grows");
    let cqc = forbidden_intervals();
    let icq = IcqTest::new(&cqc, Domain::Dense).unwrap();
    let cfg = WindowConfig {
        windows: 200,
        horizon: 100_000,
        width: (10, 500),
    };
    let windows = local_relation(&cfg, &mut rng(1));
    let probe = tuple![50_000, 50_001];
    let engine = Engine::new(Program::from(forbidden_intervals_cq().to_rule())).unwrap();
    println!(
        "{:<12} {:>16} {:>16} {:>14}",
        "remote |r|", "local test (µs)", "full check (µs)", "remote reads"
    );
    for remote in [100usize, 1_000, 10_000, 50_000] {
        let db = interval_database(&windows, remote);
        let t_local = time_us(|| {
            let _ = icq.test(&probe, &windows);
        });
        let t_full = time_us(|| {
            let mut after = db.clone();
            after.insert("l", probe.clone()).unwrap();
            let _ = engine.run(&after).derives_panic();
        });
        println!("{remote:<12} {t_local:>16.1} {t_full:>16.1} {remote:>14}");
    }
}

/// E4 — Theorem 5.3: compile cost vs query size, eval cost vs |L|.
fn table_e4() {
    heading("E4  Theorem 5.3 compile (exponential in query, data-independent)");
    println!("{:<4} {:>10} {:>16}", "k", "mappings", "compile (µs)");
    for k in [1usize, 2, 3, 4, 5, 6] {
        let cqc = duplicated_remote_cqc(k);
        let mut mappings = 0usize;
        let t = time_us(|| {
            mappings = compile_ra(&cqc).unwrap().mapping_count();
        });
        println!("{k:<4} {mappings:>10} {t:>16.1}");
    }
    println!("\nplan evaluation vs |L| (k = 3):");
    println!("{:<10} {:>14}", "|L|", "eval (µs)");
    let plan = compile_ra(&duplicated_remote_cqc(3)).unwrap();
    for n in [100i64, 1_000, 10_000] {
        let local = Relation::from_tuples(2, (0..n).map(|k| tuple![k, k + 1]));
        let t = tuple![n / 2, n / 2 + 1];
        let us = time_us(|| {
            let _ = plan.test(&t, &local);
        });
        println!("{n:<10} {us:>14.1}");
    }
}

/// E5 — the three interval tests vs |L|.
fn table_e5() {
    heading("E5  Forbidden intervals: interval-set vs Fig 6.1 datalog vs Thm 5.2");
    let cqc = forbidden_intervals();
    let icq = IcqTest::new(&cqc, Domain::Dense).unwrap();
    let datalog = DatalogIntervalTest::new(icq.clone()).unwrap();
    println!(
        "{:<8} {:>16} {:>16} {:>16}",
        "|L|", "intervals (µs)", "fig 6.1 (µs)", "thm 5.2 (µs)"
    );
    // The generated datalog program materializes O(|L|^2) merged
    // intervals (expressibility, not efficiency, is Theorem 6.1's claim),
    // so its column is capped at 50 windows.
    for n in [10usize, 25, 50, 100, 1_000] {
        let cfg = WindowConfig {
            windows: n,
            horizon: 10_000,
            width: (10, 200),
        };
        let windows = local_relation(&cfg, &mut rng(2));
        let probe = tuple![5_000, 5_050];
        let t1 = time_us(|| {
            let _ = icq.test(&probe, &windows);
        });
        let t2 = (n <= 50).then(|| {
            time_us(|| {
                let _ = datalog.test(&probe, &windows);
            })
        });
        let t3 = time_us(|| {
            let _ = complete_local_test(&cqc, &probe, &windows, Solver::dense());
        });
        let t2 = t2.map_or("-".to_string(), |v| format!("{v:.1}"));
        println!("{n:<8} {t1:>16.1} {t2:>16} {t3:>16.1}");
    }
}

/// E6 — the pipeline on a realistic stream: method mix & remote traffic.
fn table_e6() {
    heading("E6  Escalation-ladder mix on a 200-update employee stream");
    let cfg = EmpConfig {
        employees: 500,
        departments: 12,
        dangling_fraction: 0.0,
        salary_range: (10, 200),
    };
    let mut r = rng(42);
    let db = emp_database(&cfg, &mut r);
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

    let stream = update_stream(&cfg, &mut r, 200);
    let mut hist: Vec<(String, usize)> = Vec::new();
    let (mut violations, mut remote) = (0usize, 0usize);
    let start = Instant::now();
    for update in &stream {
        let report = mgr.check_update(update).unwrap();
        for (m, n) in report.method_histogram() {
            if n == 0 {
                continue;
            }
            let key = m.to_string();
            match hist.iter_mut().find(|(k, _)| *k == key) {
                Some((_, total)) => *total += n,
                None => hist.push((key, n)),
            }
        }
        violations += report.violations().len();
        remote += report.remote_tuples_read;
        if report.all_hold() {
            mgr.database_mut().apply(update).unwrap();
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let total: usize = hist.iter().map(|(_, n)| n).sum::<usize>() + violations;
    println!("{:<26} {:>8} {:>8}", "method", "checks", "%");
    for (m, n) in &hist {
        println!("{m:<26} {n:>8} {:>7.1}%", 100.0 * *n as f64 / total as f64);
    }
    println!("{:<26} {violations:>8}", "violations");
    println!("\nremote tuples read: {remote}; wall time: {elapsed:.2}s");
}

/// E1 — §3 subsumption latency vs constraint size.
fn table_e1() {
    heading("E1  Subsumption latency vs constraint size (NP-complete, 'short constraints')");
    use ccpi_containment::subsume::subsumes;
    use ccpi_ir::Constraint;
    use ccpi_workload::queries::{containment_pair, CqcConfig};
    println!("{:<10} {:>18}", "subgoals", "per check (µs)");
    for subgoals in [2usize, 3, 4, 5, 6] {
        let cfg = CqcConfig {
            subgoals,
            duplication: 2,
            comparisons: 0,
            variables: subgoals + 1,
            ..CqcConfig::default()
        };
        let mut r = rng(9_000 + subgoals as u64);
        let batch: Vec<(Constraint, Constraint)> = (0..16)
            .map(|_| {
                let (a, b) = containment_pair(&cfg, &mut r);
                (
                    Constraint::single(a.to_rule()).unwrap(),
                    Constraint::single(b.to_rule()).unwrap(),
                )
            })
            .collect();
        let us = time_us(|| {
            for (tight, loose) in &batch {
                let _ = subsumes(std::slice::from_ref(loose), tight, Solver::dense()).unwrap();
            }
        }) / batch.len() as f64;
        println!("{subgoals:<10} {us:>18.1}");
    }
}

/// E7 — substrate: semi-naive vs naive datalog on transitive closure.
fn table_e7() {
    heading("E7  Datalog engine: semi-naive vs naive on a chain closure");
    use ccpi_datalog::naive::run_naive;
    let program =
        ccpi_parser::parse_program("path(X,Y) :- e(X,Y).\npath(X,Z) :- path(X,Y) & e(Y,Z).")
            .unwrap();
    println!(
        "{:<8} {:>10} {:>18} {:>14}",
        "chain n", "|path|", "semi-naive (µs)", "naive (µs)"
    );
    for n in [20i64, 50, 100] {
        let mut db = Database::new();
        db.declare("e", 2, ccpi_storage::Locality::Local).unwrap();
        for k in 0..n {
            db.insert("e", tuple![k, k + 1]).unwrap();
        }
        let engine = Engine::new(program.clone()).unwrap();
        let size = engine.run(&db).total_tuples();
        let t_semi = time_us(|| {
            let _ = engine.run(&db).total_tuples();
        });
        let t_naive = time_us(|| {
            let _ = run_naive(&program, &db).unwrap().total_tuples();
        });
        println!("{n:<8} {size:>10} {t_semi:>18.1} {t_naive:>14.1}");
    }
}

/// E8 — the two-site subsystem: measured wire traffic and latency per
/// ladder stage, on both transports, plus graceful degradation when the
/// remote dies. Ends with a `CheckReport` exported as JSON (the serde
/// feature in action).
fn table_e8() {
    heading("E8  Two-site subsystem: measured wire traffic per stage");
    use ccpi::distributed::SiteSplit;
    use ccpi_site::prelude::*;
    use std::time::Duration;

    let mut db = Database::new();
    db.declare("l", 2, ccpi_storage::Locality::Local).unwrap();
    db.declare("r", 1, ccpi_storage::Locality::Remote).unwrap();
    db.insert("l", tuple![3, 6]).unwrap();
    db.insert("l", tuple![5, 10]).unwrap();
    for k in 0..64i64 {
        db.insert("r", tuple![100 + 3 * k]).unwrap();
    }
    const INTERVALS: &str = "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y.";
    let cases: [(&str, Update); 3] = [
        ("local-test", Update::insert("l", tuple![4, 8])),
        ("full-check (holds)", Update::insert("l", tuple![400, 410])),
        (
            "full-check (violated)",
            Update::insert("l", tuple![95, 300]),
        ),
    ];

    println!(
        "{:<9} {:<22} {:<28} {:>3} {:>8} {:>8} {:>9}",
        "transport", "update", "outcome", "rt", "B out", "B in", "µs"
    );
    let mut sample_report = None;
    for transport in ["channel", "tcp"] {
        let site = RemoteSite::new(SiteSplit::of(&db).remote);
        let (client, server) = match transport {
            "channel" => {
                let (t, end) = ChannelTransport::pair();
                site.serve_channel(end);
                (SiteClient::new(t), None)
            }
            _ => {
                let server = site.serve_tcp("127.0.0.1:0").unwrap();
                let t = TcpTransport::new(server.addr());
                (SiteClient::new(t), Some(server))
            }
        };
        let client = client
            .with_deadline(Duration::from_millis(200))
            .with_retry(RetryPolicy {
                attempts: 3,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(4),
            });
        let mut mgr = DistributedManager::for_local_site(&db, client);
        mgr.add_constraint("intervals", INTERVALS).unwrap();
        let mut before = mgr.wire_totals();
        for (label, upd) in &cases {
            let start = Instant::now();
            let report = mgr.check_update(upd).unwrap();
            let us = start.elapsed().as_secs_f64() * 1e6;
            let wire = mgr.wire_totals().delta_since(&before);
            before = mgr.wire_totals();
            println!(
                "{:<9} {:<22} {:<28} {:>3} {:>8} {:>8} {:>9.1}",
                transport,
                label,
                format!("{:?}", report.outcome("intervals").unwrap()),
                wire.round_trips,
                wire.bytes_sent,
                wire.bytes_received,
                us
            );
            if label.starts_with("full-check (viol") && transport == "tcp" {
                sample_report = Some(report);
            }
        }
        // Kill the remote (TCP only — a channel server lives as long as
        // its client) and repeat a full check: graceful degradation.
        if let Some(server) = server {
            server.stop();
            let start = Instant::now();
            let report = mgr
                .check_update(&Update::insert("l", tuple![95, 300]))
                .unwrap();
            let us = start.elapsed().as_secs_f64() * 1e6;
            let wire = mgr.wire_totals().delta_since(&before);
            println!(
                "{:<9} {:<22} {:<28} {:>3} {:>8} {:>8} {:>9.1}  ({} retries, {} timeouts)",
                transport,
                "full-check, site dead",
                format!("{:?}", report.outcome("intervals").unwrap()),
                wire.round_trips,
                wire.bytes_sent,
                wire.bytes_received,
                us,
                wire.retries,
                wire.timeouts
            );
        }
    }
    if let Some(report) = sample_report {
        println!("\nsample CheckReport as JSON (serde feature):");
        println!("{}", serde::json::to_string(&report));
    }
}

/// E9 — check throughput on the employee workload, before/after the
/// compiled-plan engine. Writes `BENCH_joins.json` at the repo root unless
/// running in `--smoke` mode (tiny sizes, no file).
fn table_e9(smoke: bool) {
    use ccpi_bench::throughput::{measure, ThroughputRow, FULL_SIZES, SMOKE_SIZES};

    heading("E9  Check throughput (checks/sec), employee workload, 3 constraints");
    let sizes: &[usize] = if smoke { &SMOKE_SIZES } else { &FULL_SIZES };
    let rows = measure(sizes);
    let baseline = baseline_rows();
    println!(
        "{:<10} {:>16} {:>14} {:>16} {:>14} {:>9}",
        "|emp|", "full (µs/chk)", "full chk/s", "ladder (µs/chk)", "ladder chk/s", "speedup"
    );
    for row in &rows {
        let speedup = baseline
            .iter()
            .find(|b| b.tuples == row.tuples)
            .map(|b| format!("{:.1}x", b.full_check_us / row.full_check_us))
            .unwrap_or_else(|| "-".to_string());
        println!(
            "{:<10} {:>16.1} {:>14.1} {:>16.1} {:>14.1} {:>9}",
            row.tuples,
            row.full_check_us,
            row.full_checks_per_sec,
            row.ladder_check_us,
            row.ladder_checks_per_sec,
            speedup
        );
    }
    if smoke {
        println!("(--smoke: tiny sizes, BENCH_joins.json not written)");
        return;
    }

    #[derive(serde::Serialize)]
    struct BenchRun {
        label: &'static str,
        rows: Vec<ThroughputRow>,
    }
    #[derive(serde::Serialize)]
    struct BenchFile {
        bench: &'static str,
        unit: &'static str,
        workload: &'static str,
        baseline: BenchRun,
        current: BenchRun,
    }
    let file = BenchFile {
        bench: "E9 joins-throughput",
        unit: "checks/sec through ConstraintManager::check_update",
        workload: "ccpi-workload emp generator, 50 departments, E6 constraint set \
                   (referential + pay-floor + pay-ceiling); `full` = all-escalate probe, \
                   `ladder` = mixed 4-kind update stream",
        baseline: BenchRun {
            label: BASELINE_LABEL,
            rows: baseline,
        },
        current: BenchRun {
            label: "this tree (compiled join plans + shared persistent indexes + \
                    prepared stage-3 unions + fanned-out local tests + seeded delta \
                    plans + stage-4 verdict cache)",
            rows,
        },
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_joins.json");
    std::fs::write(path, serde::json::to_string(&file) + "\n").unwrap();
    println!("\nwrote {path}");
}

/// E10 — delta-seeded stage 4 vs snapshot rebuild, single and batched,
/// with the report streams asserted equal. Writes `BENCH_delta.json` at
/// the repo root unless running in `--smoke` mode.
fn table_e10(smoke: bool) {
    use ccpi_bench::delta_bench::{measure, DeltaRow};
    use ccpi_bench::throughput::{FULL_SIZES, SMOKE_SIZES};

    heading("E10  Delta-driven stage 4 vs snapshot rebuild (identical verdicts)");
    let sizes: &[usize] = if smoke { &SMOKE_SIZES } else { &FULL_SIZES };
    let rows = measure(sizes);
    println!(
        "{:<10} {:>15} {:>16} {:>9} {:>16} {:>10} {:>7} {:>6}",
        "|emp|",
        "delta (µs/chk)",
        "snapshot (µs)",
        "speedup",
        "batch64 (µs/u)",
        "batch spd",
        "esc",
        "same"
    );
    for row in &rows {
        assert!(
            row.reports_identical,
            "delta and snapshot modes disagreed at {} tuples",
            row.tuples
        );
        assert_eq!(row.full_checks_delta, row.full_checks_snapshot);
        assert_eq!(row.violations_delta, row.violations_snapshot);
        println!(
            "{:<10} {:>15.1} {:>16.1} {:>8.1}x {:>16.1} {:>9.1}x {:>7} {:>6}",
            row.tuples,
            row.delta_check_us,
            row.snapshot_check_us,
            row.speedup,
            row.batch64_us_per_update,
            row.batch64_speedup,
            row.full_checks_delta,
            "yes"
        );
    }
    if smoke {
        println!("(--smoke: tiny sizes, BENCH_delta.json not written)");
        return;
    }

    #[derive(serde::Serialize)]
    struct BenchFile {
        bench: &'static str,
        unit: &'static str,
        workload: &'static str,
        label: &'static str,
        rows: Vec<DeltaRow>,
    }
    let file = BenchFile {
        bench: "E10 delta-vs-snapshot stage 4",
        unit: "µs per all-escalate check through ConstraintManager::check_update",
        workload: "ccpi-workload emp generator, 50 departments, E6 constraint set; \
                   per-row A/B of the same distinct-probe sequence with the delta \
                   path on vs set_delta_checking(Some(false)), plus a 64-probe \
                   check_updates batch; report streams asserted equal",
        label: "this tree (seeded delta plans + monotone-delete shortcut + \
                stage-4 verdict cache + memoized post-update snapshot)",
        rows,
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_delta.json");
    std::fs::write(path, serde::json::to_string(&file) + "\n").unwrap();
    println!("\nwrote {path}");
}

/// E14 — compiled weakest-precondition pre-tests vs the legacy fixed
/// ladder on the E6/E9 mixed stream plus an all-escalate probe tail, with
/// the verdict-twin assertion, then one group-commit admission cell with
/// the pipeline live in the admit thread. Writes `BENCH_pretest.json`
/// unless running in `--smoke` mode.
fn table_e14(smoke: bool) {
    use ccpi_bench::pretest_bench::{measure, measure_size, FULL_SIZES};
    use ccpi_bench::throughput::SMOKE_SIZES;

    heading("E14  Compiled pre-tests vs legacy ladder (identical verdicts)");
    println!(
        "{:<10} {:>7} {:>9} {:>9} {:>9} {:>15} {:>15} {:>9} {:>8}",
        "|emp|",
        "stream",
        "esc(old)",
        "esc(new)",
        "settled",
        "legacy (µs/chk)",
        "pipeline (µs)",
        "speedup",
        "diverg"
    );
    let print_row = |row: &ccpi_bench::pretest_bench::PretestRow| {
        assert_eq!(
            row.verdict_divergences, 0,
            "pre-test pipeline diverged from the full ladder at {} tuples",
            row.tuples
        );
        println!(
            "{:<10} {:>7} {:>9} {:>9} {:>8.0}% {:>15.1} {:>15.1} {:>8.1}x {:>8}",
            row.tuples,
            row.stream_len,
            row.escalations_legacy,
            row.escalations_pipeline,
            row.settled_fraction * 100.0,
            row.legacy_check_us,
            row.pipeline_check_us,
            row.speedup,
            row.verdict_divergences
        );
    };
    if smoke {
        for &n in &SMOKE_SIZES {
            print_row(&measure_size(n, 12, 8));
        }
        println!("(--smoke: tiny sizes, no admission cell, BENCH_pretest.json not written)");
        return;
    }

    let report = measure(&FULL_SIZES);
    for row in &report.rows {
        print_row(row);
    }
    assert_eq!(
        report.admission.twin_divergences, 0,
        "admission soundness twin diverged with the pipeline active"
    );
    println!(
        "\nadmission cell ({} clients, {}): {:.0} admits/s, {} twin divergences",
        report.admission.clients,
        report.admission.mode,
        report.admission.admissions_per_sec,
        report.admission.twin_divergences
    );

    #[derive(serde::Serialize)]
    struct BenchFile {
        bench: &'static str,
        unit: &'static str,
        workload: &'static str,
        label: &'static str,
        rows: Vec<ccpi_bench::pretest_bench::PretestRow>,
        admission: ccpi_bench::server_bench::ServerRow,
    }
    let file = BenchFile {
        bench: "E14 compiled pre-tests vs legacy ladder",
        unit: "µs per check through ConstraintManager::check_update; \
               settled_fraction = share of previously-escalating \
               (update, constraint) pairs settled before stage 4",
        workload: "ccpi-workload emp generator, 50 departments, E6 constraint set; \
                   mixed 4-kind stream + distinct all-escalate probe tail, \
                   replayed under set_pretest_checking(false) vs the compiled \
                   pipeline with verdict streams asserted equal; plus one \
                   8-client group-commit E13 admission cell",
        label: "this tree (registration-time weakest-precondition pre-tests + \
                cost-ordered stage pipeline + per-stage timing counters)",
        rows: report.rows,
        admission: report.admission,
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pretest.json");
    std::fs::write(path, serde::json::to_string(&file) + "\n").unwrap();
    println!("\nwrote {path}");
}

/// `--chaos`: the E11 soak. Runs [`ccpi_bench::chaos::soak`] over a seed
/// range, printing one row per seed and writing every fired-fault event
/// to `target/chaos_events.log` (uploaded as a CI artifact). Any
/// soundness failure prints the reproducing seed and exits nonzero.
fn run_chaos(args: &[String]) -> i32 {
    use ccpi_bench::chaos::{soak, ChaosConfig};

    let smoke = args.iter().any(|a| a == "--smoke");
    let num_after = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse::<u64>().ok())
    };
    let seeds = num_after("--seeds").unwrap_or(if smoke { 8 } else { 20 });
    let steps = num_after("--steps").unwrap_or(if smoke { 60 } else { 250 }) as usize;
    let seed_base = num_after("--seed-base").unwrap_or(0xC0FFEE);
    let cfg = ChaosConfig {
        steps,
        ..ChaosConfig::default()
    };

    heading(&format!(
        "E11  Chaos soak: {seeds} seeds x {steps} steps, fault rate {:.2} (seed base {seed_base})",
        cfg.fault_rate
    ));
    println!(
        "{:<12} {:>7} {:>8} {:>9} {:>9} {:>8} {:>9} {:>8}",
        "seed", "updates", "verdicts", "unknowns", "faults", "retries", "corrupt", "failed"
    );

    let log_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/chaos_events.log");
    let mut log_lines: Vec<String> = Vec::new();
    let mut totals = (0u64, 0u64, 0u64, 0u64); // updates, verdicts, unknowns, faults
    for seed in seed_base..seed_base + seeds {
        match soak(seed, &cfg) {
            Ok(stats) => {
                println!(
                    "{:<12} {:>7} {:>8} {:>9} {:>9} {:>8} {:>9} {:>8}",
                    format!("{seed:#x}"),
                    stats.updates,
                    stats.verdicts,
                    stats.unknowns,
                    stats.faults_fired,
                    stats.wire.retries,
                    stats.wire.corrupt_frames,
                    stats.wire.failed_exchanges
                );
                totals.0 += stats.updates as u64;
                totals.1 += stats.verdicts as u64;
                totals.2 += stats.unknowns as u64;
                totals.3 += stats.faults_fired as u64;
                log_lines.push(format!("# seed {seed:#x} ({} events)", stats.events.len()));
                log_lines.extend(stats.events);
            }
            Err(failure) => {
                log_lines.push(format!("# seed {seed:#x} FAILED: {failure}"));
                write_chaos_log(log_path, &log_lines);
                eprintln!("\n{failure}");
                eprintln!(
                    "reproduce with: cargo run --release -p ccpi-bench --bin experiments -- \
                     --chaos --seeds 1 --steps {steps} --seed-base {seed}"
                );
                return 1;
            }
        }
    }
    // The sharded degradation path (PR 8's fan-out): seeded link cuts
    // against a single-site twin. Same seed range, same event log.
    heading(&format!(
        "E11b Sever soak: {seeds} seeds x {steps} steps, 3 shards, 2 link cuts each \
         (seed base {seed_base})"
    ));
    println!(
        "{:<12} {:>8} {:>9} {:>11} {:>6}",
        "seed", "verdicts", "unknowns", "escalations", "cuts"
    );
    for seed in seed_base..seed_base + seeds {
        match ccpi_bench::shard_bench::sever_soak(seed, steps) {
            Ok(stats) => {
                println!(
                    "{:<12} {:>8} {:>9} {:>11} {:>6}",
                    format!("{seed:#x}"),
                    stats.verdicts,
                    stats.unknowns,
                    stats.escalations,
                    stats.severed.len()
                );
                totals.1 += stats.verdicts as u64;
                totals.2 += stats.unknowns as u64;
                log_lines.push(format!(
                    "# sever seed {seed:#x} ({} events)",
                    stats.events.len()
                ));
                log_lines.extend(stats.events);
            }
            Err(failure) => {
                log_lines.push(format!("# sever seed {seed:#x} FAILED: {failure}"));
                write_chaos_log(log_path, &log_lines);
                eprintln!("\n{failure}");
                eprintln!(
                    "reproduce with: cargo run --release -p ccpi-bench --bin experiments -- \
                     --chaos --seeds 1 --steps {steps} --seed-base {seed}"
                );
                return 1;
            }
        }
    }

    write_chaos_log(log_path, &log_lines);
    println!(
        "\nchaos soak ok: {} updates, {} verdicts (all sound), {} unknowns, \
         {} faults fired; event log at {log_path}",
        totals.0, totals.1, totals.2, totals.3
    );
    0
}

/// `--crash`: the E12 crash soak plus the recovery bench. Runs
/// [`ccpi_bench::crash::soak`] over a seed range — each seed trying a
/// schedule of byte-offset kill points against a crash-free twin — then
/// measures `DurableManager::recover` over growing WALs. Kill-point
/// events land in `target/crash_events.log` (uploaded as a CI artifact);
/// the full run rewrites `BENCH_recovery.json`. Any durability failure
/// prints the reproducing seed and exits nonzero.
fn run_crash(args: &[String]) -> i32 {
    use ccpi_bench::crash::{measure_recovery, soak, CrashConfig, RecoveryRow};

    let smoke = args.iter().any(|a| a == "--smoke");
    let num_after = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse::<u64>().ok())
    };
    let seeds = num_after("--seeds").unwrap_or(if smoke { 3 } else { 20 });
    let kills = num_after("--kills").unwrap_or(if smoke { 10 } else { 50 }) as usize;
    let steps = num_after("--steps").unwrap_or(if smoke { 20 } else { 48 }) as usize;
    let seed_base = num_after("--seed-base").unwrap_or(0x5EED);
    let cfg = CrashConfig {
        steps,
        kill_points: kills,
        ..CrashConfig::default()
    };

    heading(&format!(
        "E12  Crash soak: {seeds} seeds x {kills} kill points x {steps} steps, \
         checkpoint every {} (seed base {seed_base})",
        cfg.checkpoint_every
    ));
    println!(
        "{:<12} {:>7} {:>8} {:>7} {:>9} {:>9} {:>9} {:>5} {:>5}",
        "seed", "stream", "crashes", "acked", "replayed", "verdicts", "ckpt-tmp", "torn", "drop"
    );

    let log_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/crash_events.log");
    let mut log_lines: Vec<String> = Vec::new();
    let mut totals = (0u64, 0u64, 0u64); // crashes, acked, replayed
    for seed in seed_base..seed_base + seeds {
        match soak(seed, &cfg) {
            Ok(stats) => {
                println!(
                    "{:<12} {:>7} {:>8} {:>7} {:>9} {:>9} {:>9} {:>5} {:>5}",
                    format!("{seed:#x}"),
                    stats.stream_bytes,
                    stats.crashes,
                    stats.acked_total,
                    stats.replayed_total,
                    stats.verdicts_restored,
                    stats.tmp_cleaned,
                    stats.torn_tails,
                    stats.drops
                );
                totals.0 += stats.crashes as u64;
                totals.1 += stats.acked_total as u64;
                totals.2 += stats.replayed_total as u64;
                log_lines.push(format!(
                    "# seed {seed:#x} ({} kill points)",
                    stats.kill_points
                ));
                log_lines.extend(stats.events);
            }
            Err(failure) => {
                log_lines.push(format!("# seed {seed:#x} FAILED: {failure}"));
                write_chaos_log(log_path, &log_lines);
                eprintln!("\n{failure}");
                eprintln!(
                    "reproduce with: cargo run --release -p ccpi-bench --bin experiments -- \
                     --crash --seeds 1 --kills {kills} --steps {steps} --seed-base {seed}"
                );
                return 1;
            }
        }
    }
    write_chaos_log(log_path, &log_lines);
    println!(
        "\ncrash soak ok: {} crashes injected, {} updates acknowledged, {} WAL \
         records replayed, every recovered state audited clean and \
         prefix-consistent; event log at {log_path}",
        totals.0, totals.1, totals.2
    );

    heading("E12  Recovery time vs WAL length (1k-employee store, 3 constraints)");
    println!(
        "{:<10} {:>12} {:>13}",
        "replayed", "WAL (bytes)", "recover (ms)"
    );
    let sizes: &[usize] = if smoke {
        &[1_000]
    } else {
        &[1_000, 5_000, 10_000]
    };
    let mut rows: Vec<RecoveryRow> = Vec::new();
    for &n in sizes {
        let row = measure_recovery(n);
        println!(
            "{:<10} {:>12} {:>13.1}",
            row.replayed, row.wal_bytes, row.recover_ms
        );
        rows.push(row);
    }
    if smoke {
        println!("(--smoke: BENCH_recovery.json not written)");
        return 0;
    }

    #[derive(serde::Serialize)]
    struct BenchFile {
        bench: &'static str,
        unit: &'static str,
        workload: &'static str,
        label: &'static str,
        rows: Vec<RecoveryRow>,
    }
    let file = BenchFile {
        bench: "E12 crash recovery",
        unit: "ms per DurableManager::recover (checkpoint load + plan \
               recompilation + WAL replay + audited full check)",
        workload: "ccpi-workload emp generator, 1k employees, 10 departments, E6 \
                   constraint set; checkpoint plus a WAL of N committed inserts \
                   written through the storage API",
        label: "this tree (sealed-frame WAL + atomic checkpoints + audited recovery)",
        rows,
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_recovery.json");
    std::fs::write(path, serde::json::to_string(&file) + "\n").unwrap();
    println!("\nwrote {path}");
    0
}

/// `--audit`: the E16 differential audit. Runs
/// [`ccpi_bench::audit_bench::soak`] over a seed range — every definite
/// verdict's certificate is re-verified by the standalone auditor against
/// a strict pre-state snapshot, with any rejection or verdict divergence
/// fatal — then times certificate-replay recovery against the ground
/// audit over the same certified WAL. Events land in
/// `target/audit_events.log` (uploaded as a CI artifact); the full run
/// rewrites `BENCH_audit.json`. Failures print the reproducing seed and
/// exit nonzero.
fn run_audit(args: &[String]) -> i32 {
    use ccpi_bench::audit_bench::{measure_audit_recovery, soak, AuditConfig, AuditRecoveryRow};

    let smoke = args.iter().any(|a| a == "--smoke");
    let num_after = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse::<u64>().ok())
    };
    let seeds = num_after("--seeds").unwrap_or(if smoke { 6 } else { 20 });
    let steps = num_after("--steps").unwrap_or(if smoke { 60 } else { 250 }) as usize;
    let seed_base = num_after("--seed-base").unwrap_or(0xA0D17);
    let cfg = AuditConfig {
        steps,
        ..AuditConfig::default()
    };

    heading(&format!(
        "E16  Differential audit: {seeds} seeds x {steps} steps, engine vs standalone \
         auditor (seed base {seed_base})"
    ));
    println!(
        "{:<12} {:>6} {:>7} {:>11} {:>7} {:>9}",
        "seed", "steps", "certs", "violations", "holds", "overlays"
    );

    let log_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/audit_events.log");
    let mut log_lines: Vec<String> = Vec::new();
    let mut totals = (0u64, 0u64); // certs checked, violations
    for seed in seed_base..seed_base + seeds {
        match soak(seed, &cfg) {
            Ok(stats) => {
                println!(
                    "{:<12} {:>6} {:>7} {:>11} {:>7} {:>9}",
                    format!("{seed:#x}"),
                    stats.steps,
                    stats.certs_checked,
                    stats.violations,
                    stats.holds,
                    stats.remote_overlays
                );
                totals.0 += stats.certs_checked as u64;
                totals.1 += stats.violations as u64;
                log_lines.push(format!("# seed {seed:#x} ({} events)", stats.events.len()));
                log_lines.extend(stats.events);
            }
            Err(failure) => {
                log_lines.push(format!("# seed {seed:#x} FAILED: {failure}"));
                write_chaos_log(log_path, &log_lines);
                eprintln!("\n{failure}");
                eprintln!(
                    "reproduce with: cargo run --release -p ccpi-bench --bin experiments -- \
                     --audit --seeds 1 --steps {steps} --seed-base {seed}"
                );
                return 1;
            }
        }
    }
    write_chaos_log(log_path, &log_lines);
    println!(
        "\ndifferential audit ok: {} certificates cross-verified, 0 rejected, \
         {} violation witnesses re-checked; event log at {log_path}",
        totals.0, totals.1
    );

    heading("E16  Recovery audit: certificate replay vs ground full check");
    println!(
        "{:<10} {:>9} {:>9} {:>9} {:>11} {:>11} {:>8}",
        "employees", "replayed", "certs", "rejected", "ground (ms)", "replay (ms)", "speedup"
    );
    // Fixed WAL, growing store: the ground audit pays one full evaluation
    // per constraint (grows with the database), the replay audit one O(Δ)
    // proof check per certified record (flat).
    let sizes: &[(usize, usize)] = if smoke {
        &[(20_000, 400)]
    } else {
        &[(50_000, 2_000), (100_000, 2_000), (200_000, 2_000)]
    };
    let mut rows: Vec<AuditRecoveryRow> = Vec::new();
    for &(employees, replayed) in sizes {
        let row = measure_audit_recovery(employees, replayed);
        println!(
            "{:<10} {:>9} {:>9} {:>9} {:>11.1} {:>11.1} {:>7.2}x",
            row.employees,
            row.replayed,
            row.certs_replayed,
            row.rejected,
            row.ground_ms,
            row.replay_ms,
            row.speedup
        );
        rows.push(row);
    }
    if smoke {
        println!("(--smoke: BENCH_audit.json not written)");
        return 0;
    }

    #[derive(serde::Serialize)]
    struct BenchFile {
        bench: &'static str,
        unit: &'static str,
        workload: &'static str,
        label: &'static str,
        rows: Vec<AuditRecoveryRow>,
    }
    let file = BenchFile {
        bench: "E16 certificate-replay recovery audit",
        unit: "ms per DurableManager::recover — ground mode (WAL replay + one full \
               evaluation per constraint) vs AuditMode::CertificateReplay (WAL \
               replay + O(delta) proof check per certified record)",
        workload: "all-local employee store at growing sizes, 10 departments, E6 \
                   constraint set; checkpoint plus a fixed WAL of 2k certified \
                   committed inserts written through the storage API",
        label: "this tree (proof-carrying verdicts + standalone auditor)",
        rows,
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_audit.json");
    std::fs::write(path, serde::json::to_string(&file) + "\n").unwrap();
    println!("\nwrote {path}");
    0
}

fn write_chaos_log(path: &str, lines: &[String]) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).ok();
    }
    std::fs::write(path, lines.join("\n") + "\n").ok();
}

/// `--server`: the E13 closed-loop admission-service benchmark. A fleet
/// of TCP clients submits back-to-back against a live `ccpi-server`
/// (group commit) while a reader sustains MVCC snapshot queries; every
/// cell replays its decision log through a single-threaded twin and must
/// show zero verdict divergences. The full run rewrites
/// `BENCH_server.json`; any divergence exits nonzero.
fn run_server(args: &[String]) -> i32 {
    use ccpi_bench::server_bench::{measure, ServerRow};
    let smoke = args.iter().any(|a| a == "--smoke");

    heading("E13  Concurrent admission: group commit over TCP");
    // The full client-count matrix, and the explicit smoke cap: smoke
    // must never inherit the full matrix (64 closed-loop TCP clients and
    // 12.8k fsync'd updates per cell are a CI-killer), so it runs a
    // single cell with the fleet clamped to SMOKE_MAX_CLIENTS.
    const FULL_COUNTS: [usize; 3] = [1, 8, 64];
    const SMOKE_MAX_CLIENTS: usize = 4;
    let smoke_counts = [SMOKE_MAX_CLIENTS];
    let (counts, per_total, batch): (&[usize], usize, usize) = if smoke {
        (&smoke_counts, 64, 4)
    } else {
        (&FULL_COUNTS, 12_800, 32)
    };
    assert!(
        !smoke || counts.iter().all(|&c| c <= SMOKE_MAX_CLIENTS),
        "--smoke must cap the client fleet"
    );
    println!(
        "{:<8} {:>6} {:>8} {:>10} {:>8} {:>8} {:>7} {:>7} {:>11} {:>7}",
        "clients",
        "batch",
        "updates",
        "admits/s",
        "p50 ms",
        "p99 ms",
        "groups",
        "mean",
        "snap reads",
        "diverg"
    );
    let rows = measure(counts, per_total, batch);
    let mut divergences = 0usize;
    for row in &rows {
        println!(
            "{:<8} {:>6} {:>8} {:>10.0} {:>8.2} {:>8.2} {:>7} {:>7.1} {:>11} {:>7}",
            row.clients,
            row.batch,
            row.updates,
            row.admissions_per_sec,
            row.p50_ack_ms,
            row.p99_ack_ms,
            row.groups,
            row.mean_group,
            row.snapshot_reads,
            row.twin_divergences
        );
        divergences += row.twin_divergences;
    }

    if divergences > 0 {
        println!(
            "\nE13 FAILED: {divergences} verdict divergence(s) between the concurrent \
             server and the single-threaded twin"
        );
        return 1;
    }
    println!(
        "soundness twin: zero divergences across {} cells",
        rows.len()
    );
    if smoke {
        println!("(--smoke: tiny fleet, BENCH_server.json not written)");
        return 0;
    }

    #[derive(serde::Serialize)]
    struct BenchFile {
        bench: &'static str,
        unit: &'static str,
        workload: &'static str,
        label: &'static str,
        rows: Vec<ServerRow>,
    }
    let file = BenchFile {
        bench: "E13 concurrent admission service",
        unit: "acknowledged admissions per second over real TCP (closed loop, \
               ack = fsync'd verdict); ack latencies in ms",
        workload: "2-ary acct relation under one sign constraint; N closed-loop \
                   clients submitting unique single-update batches (1 violation \
                   per 16) plus one sustained snapshot-query reader; \
                   single-threaded twin replays every decision",
        label: "this tree (ccpi-server: group-commit WAL + MVCC snapshot reads + \
                serialized admit stage)",
        rows,
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_server.json");
    std::fs::write(path, serde::json::to_string(&file) + "\n").unwrap();
    println!("\nwrote {path}");
    0
}

/// `--shard`: the E15 partitioned scale curve. Admits the identical
/// mixed stream (1 violation in 16) through 1/2/4/8-shard deployments of
/// [`ccpi_site::ShardedManager`] under the fragment-closed E6
/// co-partitioning, charging each admission to its owning shard's clock
/// (share-nothing substreams — see `ccpi_bench::shard_bench`). Every
/// row asserts zero cross-shard wire traffic, zero escalations and zero
/// divergences against the single-site twin. A separate cell measures
/// the cross-shard escalation protocol under a deliberately non-closed
/// unique-name audit. Writes `BENCH_shard.json` unless `--smoke`.
fn run_shard(args: &[String]) -> i32 {
    use ccpi_bench::shard_bench::{
        measure_cell, measure_escalation, measure_range_cell, ShardRow,
    };

    let smoke = args.iter().any(|a| a == "--smoke");
    heading("E15  Partitioned scale curve (fragment-local admission)");
    println!(
        "{:<7} {:>9} {:>7} {:>9} {:>7} {:>12} {:>11} {:>8} {:>8} {:>5} {:>7}",
        "shards",
        "|emp|",
        "stream",
        "admitted",
        "rate",
        "agg adm/s",
        "max-busy",
        "wire-rt",
        "wire-B",
        "esc",
        "diverg"
    );
    let print_row = |row: &ShardRow| {
        assert_eq!(
            row.twin_divergences, 0,
            "sharded admission diverged from the single-site twin at {} shards",
            row.shards
        );
        assert_eq!(
            row.escalations, 0,
            "fragment-closed constraints must never escalate ({} shards)",
            row.shards
        );
        assert_eq!(
            row.wire_round_trips, 0,
            "fragment-local admission must cost zero wire ({} shards)",
            row.shards
        );
        println!(
            "{:<7} {:>9} {:>7} {:>9} {:>6.1}% {:>12.0} {:>9.1}ms {:>8} {:>8} {:>5} {:>7}",
            row.shards,
            row.tuples,
            row.updates,
            row.admitted,
            row.committed_rate * 100.0,
            row.admits_per_sec,
            row.max_shard_busy_ms,
            row.wire_round_trips,
            row.wire_bytes,
            row.escalations,
            row.twin_divergences
        );
    };

    if smoke {
        for &shards in &[1usize, 4] {
            print_row(&measure_cell(shards, 5_000, 1_024, 0xE15));
        }
        println!("range lane (department-name quantiles, same soundness bar):");
        print_row(&measure_range_cell(4, 5_000, 1_024, 0xE15));
        let esc = measure_escalation(256, 64, 0xE15);
        assert_eq!(esc.twin_divergences, 0, "escalation cell diverged");
        assert!(esc.escalations > 0, "the audit cell must escalate");
        println!(
            "\nescalation cell ({} shards, {} updates): {} escalations, \
             {} round trips, {} wire bytes, {:.1} µs/admit, {} divergences",
            esc.shards,
            esc.updates,
            esc.escalations,
            esc.wire_round_trips,
            esc.wire_bytes,
            esc.check_us,
            esc.twin_divergences
        );
        println!("(--smoke: tiny sizes, BENCH_shard.json not written)");
        return 0;
    }

    let mut rows = Vec::new();
    for &shards in &[1usize, 2, 4, 8] {
        let row = measure_cell(shards, 1_000_000, 16_384, 0xE15);
        print_row(&row);
        rows.push(row);
    }
    // The guard anchor: small enough for CI to re-measure on every PR.
    let guard = measure_cell(4, 10_000, 2_048, 0xE15);
    print_row(&guard);
    rows.push(guard);

    // The range-partitioned lane: identical workload routed by
    // department-name quantiles. Smaller sizes — the lane exists to show
    // range routing satisfies the same zero-wire/zero-divergence bar,
    // not to re-trace the scale curve.
    println!("\nrange lane (department-name quantiles, same soundness bar):");
    let mut range_rows = Vec::new();
    for &shards in &[1usize, 2, 4, 8] {
        let row = measure_range_cell(shards, 100_000, 8_192, 0xE15);
        print_row(&row);
        range_rows.push(row);
    }

    let escalation = measure_escalation(4_096, 512, 0xE15);
    assert_eq!(escalation.twin_divergences, 0, "escalation cell diverged");
    assert!(escalation.escalations > 0, "the audit cell must escalate");
    println!(
        "\nescalation cell ({} shards, {} updates): {} escalations, \
         {} round trips, {} wire bytes, {:.1} µs/admit, {} divergences",
        escalation.shards,
        escalation.updates,
        escalation.escalations,
        escalation.wire_round_trips,
        escalation.wire_bytes,
        escalation.check_us,
        escalation.twin_divergences
    );

    #[derive(serde::Serialize)]
    struct BenchFile {
        bench: &'static str,
        unit: &'static str,
        workload: &'static str,
        label: &'static str,
        rows: Vec<ShardRow>,
        range_rows: Vec<ShardRow>,
        escalation: ccpi_bench::shard_bench::EscalationRow,
    }
    let file = BenchFile {
        bench: "E15 partitioned scale curve",
        unit: "modeled aggregate admissions per second: total admitted / the \
               busiest shard's accumulated admission time (share-nothing \
               substreams; the zero-wire assertion licenses the model)",
        workload: "emp/dept/salRange co-partitioned (emp hashed on dept, dept \
                   on its key, salRange replicated) under the E6 constraint \
                   family; identical 1-in-16-violation stream per shard count; \
                   single-site twin replays every decision; plus a \
                   range-partitioned lane (department-name quantile bounds, \
                   routes_alike locality) and a 2-shard cross-shard \
                   unique-name escalation cell",
        label: "this tree (ccpi-site ShardedManager: compile-time locality \
                scopes + fragment-final verdict trust + wire-v2 fan-out \
                escalation)",
        rows,
        range_rows,
        escalation,
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_shard.json");
    std::fs::write(path, serde::json::to_string(&file) + "\n").unwrap();
    println!("\nwrote {path}");
    0
}

/// `--migrate`: the E17 migration chaos soak. Each seed runs the full
/// [`ccpi_bench::migrate_bench::migrate_soak`] schedule — a faulty-wire
/// split, a killed-and-aborted split, a clean re-split and a merge, all
/// while the same mixed stream is admitted and cross-checked against a
/// static single-site twin. A definite verdict that disagrees with the
/// twin (a *flip*), an Unknown outside a moving span, a WAL recovery
/// landing in the wrong epoch, or any post-migration state divergence
/// fails the soak and prints the reproducing seed. Writes
/// `target/migrate_events.log`, and `BENCH_migrate.json` unless
/// `--smoke`.
fn run_migrate(args: &[String]) -> i32 {
    use ccpi_bench::migrate_bench::run_soak;

    let smoke = args.iter().any(|a| a == "--smoke");
    let num_after = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse::<u64>().ok())
    };
    let seeds = num_after("--seeds").unwrap_or(if smoke { 3 } else { 12 });
    let steps = num_after("--steps").unwrap_or(if smoke { 120 } else { 240 }) as usize;
    let seed_base = num_after("--seed-base").unwrap_or(0xE17);
    let seed_list: Vec<u64> = (seed_base..seed_base + seeds).collect();

    heading(&format!(
        "E17  Migration soak: {seeds} seeds x {steps} steps, 4 shards, \
         3 live migrations + 1 mid-copy abort per seed (seed base {seed_base:#x})"
    ));

    let (row, events) = match run_soak(&seed_list, steps) {
        Ok(ok) => ok,
        Err(failure) => {
            eprintln!("\n{failure}");
            eprintln!(
                "reproduce with: cargo run --release -p ccpi-bench --bin experiments -- \
                 --migrate --seeds 1 --steps {steps} --seed-base {}",
                failure.seed
            );
            return 1;
        }
    };

    println!(
        "{:>6} {:>6} {:>10} {:>7} {:>6} {:>9} {:>9} {:>12} {:>12} {:>7} {:>7}",
        "seeds",
        "steps",
        "migrations",
        "aborts",
        "flips",
        "admitted",
        "unknowns",
        "steady-rate",
        "window-rate",
        "ratio",
        "faults"
    );
    println!(
        "{:>6} {:>6} {:>10} {:>7} {:>6} {:>9} {:>9} {:>11.1}% {:>11.1}% {:>7.2} {:>7}",
        row.seeds,
        row.steps_per_seed,
        row.migrations,
        row.aborts,
        row.flips,
        row.admitted,
        row.unknowns,
        row.steady_rate * 100.0,
        row.window_rate * 100.0,
        row.window_ratio,
        row.faults_injected
    );

    // The schedule is deterministic per seed: every seed must land 3
    // committed migrations and exactly 1 abort, must actually inject wire
    // faults, and must see at least one in-window Unknown somewhere in
    // the pool. The window floor is the acceptance bar: committed rate
    // inside migration windows stays >= 70% of the steady-state rate.
    let mut bad = Vec::new();
    if row.migrations != row.seeds * 3 {
        bad.push(format!(
            "expected {} committed migrations, saw {}",
            row.seeds * 3,
            row.migrations
        ));
    }
    if row.aborts != row.seeds {
        bad.push(format!(
            "expected {} mid-copy aborts, saw {}",
            row.seeds, row.aborts
        ));
    }
    if row.flips > 0 {
        bad.push(format!("{} definite-verdict flips", row.flips));
    }
    if row.wal_epoch_mismatches > 0 {
        bad.push(format!(
            "{} WAL recoveries landed in the wrong epoch",
            row.wal_epoch_mismatches
        ));
    }
    if row.unknowns == 0 {
        bad.push("no in-window Unknowns observed across the pool".to_string());
    }
    if row.faults_injected == 0 {
        bad.push("the chaos window injected no wire faults".to_string());
    }
    if row.window_ratio < 0.7 {
        bad.push(format!(
            "window committed rate is {:.2} of steady-state (floor 0.70)",
            row.window_ratio
        ));
    }
    let log_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/migrate_events.log");
    write_chaos_log(log_path, &events);
    if !bad.is_empty() {
        for b in &bad {
            eprintln!("FAILED: {b}");
        }
        eprintln!(
            "reproduce with: cargo run --release -p ccpi-bench --bin experiments -- \
             --migrate --seeds {seeds} --steps {steps} --seed-base {seed_base}"
        );
        return 1;
    }
    println!(
        "\nmigration soak ok: {} migrations committed, {} aborted cleanly, 0 flips, \
         {} in-window unknowns (all attributed), window/steady ratio {:.2}; \
         event log at {log_path}",
        row.migrations, row.aborts, row.unknowns, row.window_ratio
    );

    if smoke {
        println!("(--smoke: BENCH_migrate.json not written)");
        return 0;
    }

    #[derive(serde::Serialize)]
    struct BenchFile {
        bench: &'static str,
        unit: &'static str,
        workload: &'static str,
        label: &'static str,
        row: ccpi_bench::migrate_bench::MigrateRow,
    }
    let file = BenchFile {
        bench: "E17 migration chaos soak",
        unit: "committed admission rate inside migration windows vs steady \
               state (window_ratio = window_rate / steady_rate); flips and \
               wal_epoch_mismatches are soundness counters and must be zero",
        workload: "emp/dept/salRange on 4 shards under the E6 constraint \
                   family; per seed: one split under seeded wire faults \
                   (rate 0.2), one split killed mid-copy and aborted, one \
                   clean re-split, one merge — all under the 1-in-16 mixed \
                   stream with a static single-site twin replaying every \
                   definite verdict",
        label: "this tree (ccpi-site migration coordinator: epoch-versioned \
                ownership + dual-ownership copy window + WAL-logged \
                begin/commit/abort)",
        row,
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_migrate.json");
    std::fs::write(path, serde::json::to_string(&file) + "\n").unwrap();
    println!("wrote {path}");
    0
}

/// `--guard`: re-measures E9 and E10 at 10k tuples (best of two runs
/// each) and fails if checks/sec regressed more than 30% against the
/// committed `BENCH_joins.json` / `BENCH_delta.json` numbers. Run by
/// `suite/perf_guard.sh` in CI.
fn run_guard() -> i32 {
    use ccpi_bench::delta_bench;
    use ccpi_bench::throughput::measure_size;

    heading("PERF GUARD  E9 @ 10k tuples vs committed BENCH_joins.json");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_joins.json");
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            println!("cannot read {path}: {e}");
            return 2;
        }
    };
    // The vendored serde has no deserializer; the committed file is flat
    // enough to anchor by substring: the `current` run, its 10k row, then
    // the two per-check timings.
    let Some(current) = text.find("\"current\"").map(|i| &text[i..]) else {
        println!("{path}: no \"current\" run found");
        return 2;
    };
    let Some(row) = current.find("\"tuples\":10000").map(|i| &current[i..]) else {
        println!("{path}: no 10k row in the current run");
        return 2;
    };
    let (Some(committed_full), Some(committed_ladder)) = (
        json_number_after(row, "\"full_check_us\":"),
        json_number_after(row, "\"ladder_check_us\":"),
    ) else {
        println!("{path}: could not parse per-check timings from the 10k row");
        return 2;
    };

    // Best of two: CI machines are noisy and the guard must only catch
    // real regressions, not scheduler hiccups.
    let a = measure_size(10_000, 20, 40);
    let b = measure_size(10_000, 20, 40);
    let full = a.full_check_us.min(b.full_check_us);
    let ladder = a.ladder_check_us.min(b.ladder_check_us);

    let mut failed = false;
    let mut check = |regime: &str, measured: f64, committed: f64| {
        // checks/sec dropping >30% ⇔ µs/check growing beyond committed/0.7.
        let limit = committed / 0.7;
        let ratio = 1e6 / measured / (1e6 / committed);
        let verdict = if measured <= limit { "ok" } else { "REGRESSED" };
        println!(
            "{regime:<14} measured {measured:>10.1} µs/chk  committed {committed:>10.1}  \
             ({:.0}% of committed checks/sec, floor 70%)  [{verdict}]",
            ratio * 100.0
        );
        failed |= measured > limit;
    };
    check("full", full, committed_full);
    check("ladder", ladder, committed_ladder);

    heading("PERF GUARD  E10 @ 10k tuples vs committed BENCH_delta.json");
    let delta_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_delta.json");
    let delta_text = match std::fs::read_to_string(delta_path) {
        Ok(t) => t,
        Err(e) => {
            println!("cannot read {delta_path}: {e}");
            return 2;
        }
    };
    let Some(delta_row) = delta_text
        .find("\"tuples\":10000")
        .map(|i| &delta_text[i..])
    else {
        println!("{delta_path}: no 10k row found");
        return 2;
    };
    let (Some(committed_delta), Some(committed_batch)) = (
        json_number_after(delta_row, "\"delta_check_us\":"),
        json_number_after(delta_row, "\"batch64_us_per_update\":"),
    ) else {
        println!("{delta_path}: could not parse per-check timings from the 10k row");
        return 2;
    };
    let a = delta_bench::measure_size(10_000, 20, 20);
    let b = delta_bench::measure_size(10_000, 20, 20);
    check(
        "delta",
        a.delta_check_us.min(b.delta_check_us),
        committed_delta,
    );
    check(
        "batch64",
        a.batch64_us_per_update.min(b.batch64_us_per_update),
        committed_batch,
    );

    heading("PERF GUARD  E12 recovery @ 10k replayed vs committed BENCH_recovery.json");
    let rec_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_recovery.json");
    let rec_text = match std::fs::read_to_string(rec_path) {
        Ok(t) => t,
        Err(e) => {
            println!("cannot read {rec_path}: {e}");
            return 2;
        }
    };
    let Some(rec_row) = rec_text.find("\"replayed\":10000").map(|i| &rec_text[i..]) else {
        println!("{rec_path}: no 10k row found");
        return 2;
    };
    let Some(committed_recover) = json_number_after(rec_row, "\"recover_ms\":") else {
        println!("{rec_path}: could not parse recover_ms from the 10k row");
        return 2;
    };
    // Best of two again; the durability lane's budget is +30% wall clock
    // on the replay of 10k logged updates.
    let a = ccpi_bench::crash::measure_recovery(10_000);
    let b = ccpi_bench::crash::measure_recovery(10_000);
    let recover_ms = a.recover_ms.min(b.recover_ms);
    let rec_limit = committed_recover * 1.3;
    let verdict = if recover_ms <= rec_limit {
        "ok"
    } else {
        "REGRESSED"
    };
    println!(
        "{:<14} measured {recover_ms:>10.1} ms      committed {committed_recover:>10.1}  \
         (limit {rec_limit:.1} ms, +30%)  [{verdict}]",
        "recovery"
    );
    failed |= recover_ms > rec_limit;

    heading("PERF GUARD  E13 admissions @ 64 clients vs committed BENCH_server.json");
    let srv_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_server.json");
    let srv_text = match std::fs::read_to_string(srv_path) {
        Ok(t) => t,
        Err(e) => {
            println!("cannot read {srv_path}: {e}");
            return 2;
        }
    };
    let Some(srv_row) = srv_text
        .find("\"clients\":64,\"mode\":\"group-commit\"")
        .map(|i| &srv_text[i..])
    else {
        println!("{srv_path}: no 64-client group-commit row found");
        return 2;
    };
    let Some(committed_rate) = json_number_after(srv_row, "\"admissions_per_sec\":") else {
        println!("{srv_path}: could not parse admissions_per_sec from the 64-client row");
        return 2;
    };
    // Best of two, and admissions/sec is a rate — higher is better, so
    // the floor is 70% of the committed throughput (a >30% drop fails).
    let a = ccpi_bench::server_bench::measure_cell(64, 3, 32);
    let b = ccpi_bench::server_bench::measure_cell(64, 3, 32);
    if a.twin_divergences + b.twin_divergences > 0 {
        println!(
            "{:<14} twin divergences during the guard run: {} — admission soundness broken",
            "admissions",
            a.twin_divergences + b.twin_divergences
        );
        failed = true;
    }
    let measured_rate = a.admissions_per_sec.max(b.admissions_per_sec);
    let rate_floor = committed_rate * 0.7;
    let verdict = if measured_rate >= rate_floor {
        "ok"
    } else {
        "REGRESSED"
    };
    println!(
        "{:<14} measured {measured_rate:>10.0} adm/s   committed {committed_rate:>10.0}  \
         ({:.0}% of committed admissions/sec, floor 70%)  [{verdict}]",
        "admissions",
        measured_rate / committed_rate * 100.0
    );
    failed |= measured_rate < rate_floor;

    heading("PERF GUARD  E14 pre-tests @ 10k tuples vs committed BENCH_pretest.json");
    let pre_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pretest.json");
    let pre_text = match std::fs::read_to_string(pre_path) {
        Ok(t) => t,
        Err(e) => {
            println!("cannot read {pre_path}: {e}");
            return 2;
        }
    };
    let Some(pre_row) = pre_text.find("\"tuples\":10000").map(|i| &pre_text[i..]) else {
        println!("{pre_path}: no 10k row found");
        return 2;
    };
    let (Some(committed_settled), Some(committed_pipeline_us)) = (
        json_number_after(pre_row, "\"settled_fraction\":"),
        json_number_after(pre_row, "\"pipeline_check_us\":"),
    ) else {
        println!("{pre_path}: could not parse settled_fraction / pipeline_check_us");
        return 2;
    };
    // Best of two, same discipline as the lanes above. The settled rate
    // is deterministic (same stream, same plans) but guarded at the same
    // 70% floor so a pipeline change that silently stops settling trips
    // the lane; divergences fail outright.
    let a = ccpi_bench::pretest_bench::measure_size(10_000, 60, 40);
    let b = ccpi_bench::pretest_bench::measure_size(10_000, 60, 40);
    if a.verdict_divergences + b.verdict_divergences > 0 {
        println!(
            "{:<14} verdict divergences during the guard run: {} — pre-test soundness broken",
            "pre-tests",
            a.verdict_divergences + b.verdict_divergences
        );
        failed = true;
    }
    let measured_settled = a.settled_fraction.max(b.settled_fraction);
    let settled_floor = committed_settled * 0.7;
    let verdict = if measured_settled >= settled_floor {
        "ok"
    } else {
        "REGRESSED"
    };
    println!(
        "{:<14} measured {:>9.1}% settled  committed {:>9.1}%  (floor 70% of committed)  [{verdict}]",
        "settled-rate",
        measured_settled * 100.0,
        committed_settled * 100.0
    );
    failed |= measured_settled < settled_floor;
    // Same budget as the µs lanes: checks/sec dropping >30% ⇔ µs/check
    // growing beyond committed/0.7. (Inlined rather than reusing `check`:
    // the closure's mutable borrow of `failed` must not span the direct
    // `failed |=` updates above.)
    let measured_us = a.pipeline_check_us.min(b.pipeline_check_us);
    let us_limit = committed_pipeline_us / 0.7;
    let verdict = if measured_us <= us_limit {
        "ok"
    } else {
        "REGRESSED"
    };
    println!(
        "{:<14} measured {measured_us:>10.1} µs/chk  committed {committed_pipeline_us:>10.1}  \
         ({:.0}% of committed checks/sec, floor 70%)  [{verdict}]",
        "pipeline",
        1e6 / measured_us / (1e6 / committed_pipeline_us) * 100.0
    );
    failed |= measured_us > us_limit;

    heading("PERF GUARD  E15 sharding @ 4 shards/10k tuples vs committed BENCH_shard.json");
    let shard_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_shard.json");
    let shard_text = match std::fs::read_to_string(shard_path) {
        Ok(t) => t,
        Err(e) => {
            println!("cannot read {shard_path}: {e}");
            return 2;
        }
    };
    let Some(shard_row) = shard_text
        // Trailing comma matters: "tuples":10000 is a prefix of the
        // 1M rows' "tuples":1000000.
        .find("\"shards\":4,\"tuples\":10000,")
        .map(|i| &shard_text[i..])
    else {
        println!("{shard_path}: no 4-shard 10k guard row found");
        return 2;
    };
    let (Some(committed_shard_rate), Some(committed_shard_adm)) = (
        json_number_after(shard_row, "\"committed_rate\":"),
        json_number_after(shard_row, "\"admits_per_sec\":"),
    ) else {
        println!("{shard_path}: could not parse committed_rate / admits_per_sec");
        return 2;
    };
    // Best of two again. Soundness first: a twin divergence or any
    // escalation/wire traffic under the fragment-closed partitioning
    // fails outright, and the committed rate carries an *absolute* 70%
    // floor (the 1-in-16 stream admits ~94% when routing is correct — a
    // rate below 0.7 means updates are being judged on the wrong
    // fragment, not that the machine is slow).
    let a = ccpi_bench::shard_bench::measure_cell(4, 10_000, 2_048, 0xE15);
    let b = ccpi_bench::shard_bench::measure_cell(4, 10_000, 2_048, 0xE15);
    if a.twin_divergences + b.twin_divergences > 0 {
        println!(
            "{:<14} twin divergences during the guard run: {} — sharded admission unsound",
            "sharding",
            a.twin_divergences + b.twin_divergences
        );
        failed = true;
    }
    if a.escalations + b.escalations + a.wire_round_trips + b.wire_round_trips > 0 {
        println!(
            "{:<14} fragment-closed constraints escalated ({} times, {} round trips) — \
             locality analysis broken",
            "sharding",
            a.escalations + b.escalations,
            a.wire_round_trips + b.wire_round_trips
        );
        failed = true;
    }
    let measured_shard_rate = a.committed_rate.max(b.committed_rate);
    let verdict = if measured_shard_rate >= 0.7 {
        "ok"
    } else {
        "REGRESSED"
    };
    println!(
        "{:<14} measured {:>9.1}% committed  recorded {:>9.1}%  (absolute floor 70%)  [{verdict}]",
        "commit-rate",
        measured_shard_rate * 100.0,
        committed_shard_rate * 100.0
    );
    failed |= measured_shard_rate < 0.7;
    let measured_shard_adm = a.admits_per_sec.max(b.admits_per_sec);
    let adm_floor = committed_shard_adm * 0.7;
    let verdict = if measured_shard_adm >= adm_floor {
        "ok"
    } else {
        "REGRESSED"
    };
    println!(
        "{:<14} measured {measured_shard_adm:>10.0} adm/s   committed {committed_shard_adm:>10.0}  \
         ({:.0}% of committed admissions/sec, floor 70%)  [{verdict}]",
        "shard-adm",
        measured_shard_adm / committed_shard_adm * 100.0
    );
    failed |= measured_shard_adm < adm_floor;

    heading("PERF GUARD  E16 recovery audit @ 100k store vs committed BENCH_audit.json");
    let audit_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_audit.json");
    let audit_text = match std::fs::read_to_string(audit_path) {
        Ok(t) => t,
        Err(e) => {
            println!("cannot read {audit_path}: {e}");
            return 2;
        }
    };
    let Some(audit_row) = audit_text
        .find("\"employees\":100000")
        .map(|i| &audit_text[i..])
    else {
        println!("{audit_path}: no 100k-store row found");
        return 2;
    };
    let Some(committed_replay) = json_number_after(audit_row, "\"replay_ms\":") else {
        println!("{audit_path}: could not parse replay_ms from the 100k row");
        return 2;
    };
    // Best of two. The lane asserts the tentpole claim itself, not just a
    // wall-clock budget: certificate replay must beat the ground
    // full-check audit on the same certified WAL. Any auditor rejection
    // aborts inside the measurement (exit nonzero), so a forged or stale
    // certificate can never ride a green guard.
    let a = ccpi_bench::audit_bench::measure_audit_recovery(100_000, 2_000);
    let b = ccpi_bench::audit_bench::measure_audit_recovery(100_000, 2_000);
    if a.rejected + b.rejected > 0 {
        println!(
            "{:<14} {} certificates rejected during the guard run — audit soundness broken",
            "audit",
            a.rejected + b.rejected
        );
        failed = true;
    }
    let measured_speedup = a.speedup.max(b.speedup);
    let verdict = if measured_speedup > 1.0 {
        "ok"
    } else {
        "REGRESSED"
    };
    println!(
        "{:<14} measured {measured_speedup:>9.2}x speedup  (certificate replay vs ground \
         audit, floor 1.00x)  [{verdict}]",
        "audit-speedup"
    );
    failed |= measured_speedup <= 1.0;
    let measured_replay = a.replay_ms.min(b.replay_ms);
    let replay_limit = committed_replay * 1.3;
    let verdict = if measured_replay <= replay_limit {
        "ok"
    } else {
        "REGRESSED"
    };
    println!(
        "{:<14} measured {measured_replay:>10.1} ms      committed {committed_replay:>10.1}  \
         (limit {replay_limit:.1} ms, +30%)  [{verdict}]",
        "audit-replay"
    );
    failed |= measured_replay > replay_limit;

    heading("PERF GUARD  E17 migration soak @ 3 seeds vs committed BENCH_migrate.json");
    let migrate_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_migrate.json");
    let migrate_text = match std::fs::read_to_string(migrate_path) {
        Ok(t) => t,
        Err(e) => {
            println!("cannot read {migrate_path}: {e}");
            return 2;
        }
    };
    let Some(committed_ratio) = json_number_after(&migrate_text, "\"window_ratio\":") else {
        println!("{migrate_path}: could not parse window_ratio");
        return 2;
    };
    // One small pooled soak (3 seeds x 120 steps). Soundness is absolute:
    // any flip, unattributed Unknown, lost tuple or wrong-epoch recovery
    // fails inside the soak itself. The perf bar is the acceptance floor,
    // not a relative delta — migration windows must keep committing at
    // >= 70% of the steady-state rate, whatever the committed file says.
    match ccpi_bench::migrate_bench::run_soak(&[0xE17, 0xE18, 0xE19], 120) {
        Ok((row, _events)) => {
            if row.flips > 0 || row.wal_epoch_mismatches > 0 {
                println!(
                    "{:<14} {} flips, {} wrong-epoch recoveries during the guard soak — \
                     migration unsound",
                    "migration", row.flips, row.wal_epoch_mismatches
                );
                failed = true;
            }
            let verdict = if row.window_ratio >= 0.7 {
                "ok"
            } else {
                "REGRESSED"
            };
            println!(
                "{:<14} measured {:>9.2} window/steady ratio  recorded {committed_ratio:>9.2}  \
                 (absolute floor 0.70)  [{verdict}]",
                "migrate-ratio", row.window_ratio
            );
            failed |= row.window_ratio < 0.7;
        }
        Err(failure) => {
            println!("{:<14} soak FAILED: {failure}", "migration");
            failed = true;
        }
    }

    if failed {
        println!("\nperf guard FAILED: checks/sec regressed >30% vs the committed BENCH numbers");
        1
    } else {
        println!("\nperf guard ok");
        0
    }
}

/// Parses the number following `key` in serde's no-whitespace JSON output.
fn json_number_after(text: &str, key: &str) -> Option<f64> {
    let rest = &text[text.find(key)? + key.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

const BASELINE_LABEL: &str =
    "commit ae0d959 (pre-PR2: interpreted joins, per-instance index caches dropped on clone)";

/// The pre-PR-2 numbers, measured on this harness against the seed engine
/// (substitution-map joins, `scan_eq` full scans, indexes lost on clone)
/// before the compiled-plan work landed. Kept inline so every E9 run
/// re-emits the same baseline next to fresh `current` numbers and future
/// PRs have a fixed floor to defend.
fn baseline_rows() -> Vec<ccpi_bench::throughput::ThroughputRow> {
    use ccpi_bench::throughput::ThroughputRow;
    BASELINE_RAW
        .iter()
        .map(
            |&(tuples, full_check_us, ladder_check_us, ladder_full_checks)| ThroughputRow {
                tuples,
                full_check_us,
                full_checks_per_sec: 1e6 / full_check_us,
                ladder_check_us,
                ladder_checks_per_sec: 1e6 / ladder_check_us,
                ladder_full_checks,
            },
        )
        .collect()
}

/// (tuples, full µs/check, ladder µs/check, ladder stage-4 escalations).
const BASELINE_RAW: [(usize, f64, f64, usize); 3] = [
    (10_000, 200_202.8, 62_115.6, 28),
    (100_000, 2_212_468.1, 697_415.5, 28),
    (1_000_000, 30_286_284.2, 7_996_690.9, 16),
];

fn time_us(mut f: impl FnMut()) -> f64 {
    // Warm up once; spend fewer iterations on slow operations.
    let warm = Instant::now();
    f();
    let iters = if warm.elapsed().as_secs_f64() > 0.5 {
        1
    } else {
        5
    };
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1e6 / iters as f64
}
