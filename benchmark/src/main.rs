//! The E6 admission benchmark: client → wire → pipeline → WAL → ack on the
//! employee constraint family, with a per-layer budget. See `README.md`.
//!
//! ```text
//! e6bench --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--out FILE]
//!     one run of one workload in this process; the last line of stdout is
//!     the result object `/BENCHMARK.json` describes
//! e6bench [--seed N] [--workload NAME] [--seconds S] [--smoke] [--out FILE]
//!     a full set: for each workload a measured run and a traced run, each
//!     in a fresh child process; writes the result JSON
//! e6bench compare A.json B.json
//! ```

mod compare;
mod harness;
mod host;
mod json;
mod layers;
mod metrics;
mod run;
mod stats;
mod trace;
mod workload;

use json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// The benchmark's own directory: every file it writes goes under `out/`
/// here. `cargo run` exports the manifest directory; a bare binary falls
/// back to where it was built.
fn bench_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 42,
        seconds: None,
        trace: None,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                })
            }
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(name) = &parsed.workload {
        if workload::spec(name).is_none() {
            let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload `{name}`; one of {names:?}"));
        }
    }
    Ok(parsed)
}

fn spec_for(name: &str, smoke: bool) -> workload::Spec {
    let spec = workload::spec(name).expect("validated by parse_args");
    if smoke {
        spec.smoke()
    } else {
        spec
    }
}

/// A metric's unit and which direction is better, from the catalogue.
fn describe(name: &str) -> (&'static str, &'static str) {
    metrics::end_to_end(name)
        .map(|m| (m.unit, m.better.as_str()))
        .or_else(|| {
            metrics::per_layer()
                .find(|l| l.name == name)
                .map(|l| (l.unit, l.better.as_str()))
        })
        .unwrap_or(("", ""))
}

/// One run of one workload in this process.
fn single_run(args: &Args, traced: bool) -> Result<bool, String> {
    let name = args.workload.as_deref().ok_or("--trace needs --workload")?;
    let out_dir = bench_dir().join("out");
    let cfg = run::Config {
        spec: spec_for(name, args.smoke),
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.smoke { 2.0 } else { 30.0 }),
        scratch: out_dir.join(format!("run-{}", std::process::id())),
    };
    std::fs::create_dir_all(&cfg.scratch).map_err(|e| format!("{}: {e}", cfg.scratch.display()))?;
    let outcome = if traced {
        layers::run(&cfg)
    } else {
        run::run(&cfg)
    };
    std::fs::remove_dir_all(&cfg.scratch).ok();
    let output = outcome?;

    println!(
        "{name} seed {} window {} s {}",
        cfg.seed,
        cfg.seconds,
        if traced {
            "(traced run: per-layer metrics)"
        } else {
            "(measured run: end-to-end metrics)"
        }
    );
    for m in &output.metrics {
        let (unit, better) = describe(m.name);
        println!(
            "  {:<38} {:>14.4} {unit:<10} ({better} is better)",
            m.name, m.value
        );
    }
    println!("  detail {}", output.detail.render());
    output.oracle.print(name, cfg.seed);

    let metrics = Json::obj(output.metrics.iter().map(|m| {
        (
            m.name,
            Json::obj([
                ("value", Json::Num(m.value)),
                ("unit", Json::Str(describe(m.name).0.into())),
            ]),
        )
    }));
    let result = Json::obj([
        ("correct", Json::Bool(output.oracle.failed == 0)),
        ("attempted", Json::Num(output.oracle.attempted as f64)),
        ("failed", Json::Num(output.oracle.failed as f64)),
        ("metrics", metrics),
    ]);
    if let Some(path) = &args.out {
        let spreads = Json::obj(output.metrics.iter().map(|m| (m.name, Json::Num(m.spread))));
        let part = Json::obj([
            ("result", result.clone()),
            ("spreads", spreads),
            ("detail", output.detail),
        ]);
        std::fs::write(path, part.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", result.render());
    // A failed check is reported in the result, not through the exit code:
    // the run itself completed.
    Ok(true)
}

/// Runs one (workload, traced?) pair in a child process and reads its part.
fn child_run(
    args: &Args,
    name: &str,
    seconds: f64,
    traced: bool,
    out_dir: &Path,
) -> Result<Json, String> {
    let part = out_dir.join(format!("part-{name}-{}.json", u8::from(traced)));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe);
    child
        .args(["--workload", name, "--seed", &args.seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .arg("--out")
        .arg(&part)
        .env("CARGO_MANIFEST_DIR", bench_dir());
    if args.smoke {
        child.arg("--smoke");
    }
    // A failed check already shows in the part's counts; only a run that
    // produced no part is an error here.
    let status = child.status().map_err(|e| e.to_string())?;
    let text = std::fs::read_to_string(&part).map_err(|e| {
        format!(
            "{name} (trace {}): {status}, no result: {e}",
            u8::from(traced)
        )
    })?;
    std::fs::remove_file(&part).ok();
    Json::parse(&text)
}

/// A full set: every workload (or the one named), measured then traced.
fn full_set(args: &Args) -> Result<bool, String> {
    let out_dir = bench_dir().join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let seconds = args.seconds.unwrap_or(if args.smoke { 2.0 } else { 30.0 });
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for spec in workload::WORKLOADS {
        if args.workload.as_deref().is_some_and(|w| w != spec.name) {
            continue;
        }
        let measured = child_run(args, spec.name, seconds, false, &out_dir)?;
        let traced = child_run(args, spec.name, seconds, true, &out_dir)?;
        let number = |part: &Json, key: &str| {
            part.get("result")
                .and_then(|r| r.get(key))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        let attempted = number(&measured, "attempted") + number(&traced, "attempted");
        let failed = number(&measured, "failed") + number(&traced, "failed");
        all_correct &= failed == 0.0;
        let with_spread = |part: &Json| {
            let metrics = part
                .get("result")
                .and_then(|r| r.get("metrics"))
                .and_then(Json::as_obj);
            Json::obj(metrics.into_iter().flatten().map(|(name, m)| {
                let spread = part.get("spreads").and_then(|s| s.get(name)).cloned();
                let mut m = m.as_obj().cloned().unwrap_or_default();
                m.insert("spread".into(), spread.unwrap_or(Json::Num(0.0)));
                (name.clone(), Json::Obj(m))
            }))
        };
        let detail = |part: &Json| part.get("detail").cloned().unwrap_or(Json::Null);
        workloads.push((
            spec.name,
            Json::obj([
                ("why", Json::Str(spec.why.into())),
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("failed_share", Json::Num(failed / attempted.max(1.0))),
                ("end_to_end", with_spread(&measured)),
                ("per_layer", with_spread(&traced)),
                (
                    "detail",
                    Json::obj([("measured", detail(&measured)), ("traced", detail(&traced))]),
                ),
            ]),
        ));
    }
    let result = Json::obj([
        ("bench", Json::Str("e6-admission".into())),
        (
            "host",
            host::stamp(&bench_dir(), &out_dir, args.seed, seconds, args.smoke),
        ),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir.join("result.json"));
    std::fs::write(&path, result.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("result written to {}", path.display());
    Ok(all_correct)
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare::compare(&load(a)?, &load(b)?)?;
    Ok(compare::report(&rows))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let passed = match args.as_slice() {
        [cmd, a, b] if cmd == "compare" => compare_files(a, b),
        [cmd, ..] if cmd == "compare" => Err("usage: compare A.json B.json".into()),
        _ => parse_args(&args).and_then(|parsed| match parsed.trace {
            Some(traced) => single_run(&parsed, traced),
            None => full_set(&parsed),
        }),
    };
    match passed {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("e6bench: {e}");
            ExitCode::from(2)
        }
    }
}
