//! Runs a `--smoke` set through the real binary and checks the result JSON
//! is the one schema the README promises: every workload, every end-to-end
//! and per-layer metric with a unit, no failed operation, a host stamp.

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;
#[allow(dead_code)]
#[path = "../src/metrics.rs"]
mod metrics;

use json::Json;

fn as_str(value: &Json) -> Option<&str> {
    match value {
        Json::Str(s) => Some(s),
        _ => None,
    }
}
use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["e6-churn", "e6-partial", "e6-mixed-batch", "e6-fleet2"];

#[test]
fn smoke_set_reports_every_metric_of_every_workload() {
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out_dir).unwrap();
    let path = out_dir.join("smoke-result.json");
    let started = std::time::Instant::now();
    let status = Command::new(env!("CARGO_BIN_EXE_e6bench"))
        .args(["--smoke", "--seed", "7", "--out"])
        .arg(&path)
        .status()
        .expect("the benchmark binary runs");
    println!("smoke set took {:.1} s", started.elapsed().as_secs_f64());
    assert!(status.success(), "smoke set exited with {status}");

    let result = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    std::fs::remove_file(&path).ok();

    let host = result.get("host").expect("host stamp");
    for key in [
        "nproc",
        "seed",
        "seconds",
        "fsync_p50_us",
        "alloc_copy_p50_us",
    ] {
        assert!(host.get(key).and_then(Json::as_f64).is_some(), "host.{key}");
    }
    for key in ["git_rev", "rustc"] {
        assert!(host.get(key).and_then(as_str).is_some(), "host.{key}");
    }
    assert_eq!(host.get("seed").and_then(Json::as_f64), Some(7.0));
    assert_eq!(host.get("smoke"), Some(&Json::Bool(true)));

    let workloads = result
        .get("workloads")
        .and_then(Json::as_obj)
        .expect("workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for name in WORKLOADS {
        let w = workloads
            .get(name)
            .unwrap_or_else(|| panic!("workload {name}"));
        assert_eq!(
            w.get("failed_share").and_then(Json::as_f64),
            Some(0.0),
            "{name}"
        );
        assert!(
            w.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0,
            "{name}"
        );
        let metric = |section: &str, metric: &str, unit: &str| {
            let m = w
                .get(section)
                .and_then(|s| s.get(metric))
                .unwrap_or_else(|| panic!("{name}: no {section}/{metric}"));
            assert_eq!(
                m.get("unit").and_then(as_str),
                Some(unit),
                "{name}/{metric}"
            );
            assert!(
                m.get("spread").and_then(Json::as_f64).is_some(),
                "{name}/{metric}"
            );
            m.get("value")
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{name}: {section}/{metric} has no value"))
        };
        for m in &metrics::END_TO_END {
            assert!(!m.unit.is_empty());
            let value = metric("end_to_end", m.name, m.unit);
            assert!(value > 0.0, "{name}: {} = {value}", m.name);
        }
        for m in metrics::per_layer() {
            assert!(!m.unit.is_empty());
            metric("per_layer", m.name, m.unit);
        }
        // The layer predictions that hold at any size.
        let layer = |n: &str| {
            metric(
                "per_layer",
                n,
                metrics::per_layer().find(|l| l.name == n).unwrap().unit,
            )
        };
        assert_eq!(
            layer("core.pipeline.local_test_us") > 0.0,
            name == "e6-partial",
            "{name}"
        );
        assert_eq!(
            layer("audit.certified_share") > 0.0,
            name == "e6-mixed-batch",
            "{name}"
        );
        assert_eq!(
            layer("storage.partition.route_us") > 0.0,
            name == "e6-fleet2",
            "{name}"
        );
        assert_eq!(layer("audit.rejected"), 0.0, "{name}");
        assert_eq!(layer("server.client.redirects"), 0.0, "{name}");
        assert_eq!(layer("core.pipeline.unknown_share"), 0.0, "{name}");
    }
}

/// `/BENCHMARK.json` mirrors the metric catalogue and the workload list.
#[test]
fn benchmark_json_mirrors_the_catalogue() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let list = |key: &str| match doc.get(key) {
        Some(Json::Arr(items)) => items.clone(),
        other => panic!("{key}: {other:?}"),
    };
    let text = |item: &Json, key: &str| item.get(key).and_then(as_str).unwrap().to_string();

    let names: Vec<String> = list("workloads").iter().map(|w| text(w, "name")).collect();
    assert_eq!(names, WORKLOADS);

    let end_to_end = list("end_to_end");
    assert_eq!(end_to_end.len(), metrics::END_TO_END.len());
    for (item, m) in end_to_end.iter().zip(&metrics::END_TO_END) {
        assert_eq!(text(item, "name"), m.name);
        assert_eq!(text(item, "unit"), m.unit);
        assert_eq!(text(item, "better"), m.better.as_str());
        assert_eq!(
            item.get("bound").and_then(Json::as_f64),
            Some(m.bound),
            "{}",
            m.name
        );
    }
    let per_layer = list("per_layer");
    assert_eq!(per_layer.len(), metrics::per_layer().count());
    for (item, m) in per_layer.iter().zip(metrics::per_layer()) {
        assert_eq!(text(item, "name"), m.name);
        assert_eq!(text(item, "unit"), m.unit);
        assert_eq!(text(item, "better"), m.better.as_str());
    }
}
