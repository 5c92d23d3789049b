//! `compare A.json B.json`: holds B against A, one row per (workload,
//! end-to-end metric), with the bounds of the metric catalogue.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, SETUP_ABS_SLACK_S};

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Status {
    Ok,
    /// The within-run spread of either side is wider than the bound, so
    /// "no regression" cannot be told from noise.
    Unresolved,
    Regression,
}

pub struct Row {
    pub workload: String,
    pub metric: String,
    pub base: f64,
    pub new: f64,
    pub bound: f64,
    pub spread: f64,
    pub status: Status,
}

fn field(result: &Json, workload: &str, metric: &str, key: &str) -> Option<f64> {
    result
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get(key)?
        .as_f64()
}

/// Every pairing of B against the baseline A. A pairing missing on either
/// side is an error: a comparison that silently skips rows proves nothing.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("baseline has no `workloads`")?;
    let mut rows = Vec::new();
    for workload in workloads.keys() {
        for metric in &END_TO_END {
            let get = |side: &Json, which: &str, key: &str| {
                field(side, workload, metric.name, key)
                    .ok_or(format!("{which}: no {workload}/{}/{key}", metric.name))
            };
            let (base, new) = (get(a, "A", "value")?, get(b, "B", "value")?);
            let spread = get(a, "A", "spread")?.max(get(b, "B", "spread")?);
            let worse_by = match metric.better {
                Better::Lower => new - base,
                Better::Higher => base - new,
            };
            let mut allowed = metric.bound * base.abs();
            if metric.name == "setup_s" {
                allowed = allowed.max(SETUP_ABS_SLACK_S);
            }
            let status = if worse_by > allowed {
                Status::Regression
            } else if spread > metric.bound {
                Status::Unresolved
            } else {
                Status::Ok
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.name.into(),
                base,
                new,
                bound: metric.bound,
                spread,
                status,
            });
        }
        // Any rise in the failed share is a regression; expected 0.
        let failed = |side: &Json, which: &str| {
            side.get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get("failed_share"))
                .and_then(Json::as_f64)
                .ok_or(format!("{which}: no {workload}/failed_share"))
        };
        let (base, new) = (failed(a, "A")?, failed(b, "B")?);
        rows.push(Row {
            workload: workload.clone(),
            metric: "failed_share".into(),
            base,
            new,
            bound: 0.0,
            spread: 0.0,
            status: if new > base {
                Status::Regression
            } else {
                Status::Ok
            },
        });
    }
    Ok(rows)
}

/// Prints the rows; returns whether B passes (no regression).
pub fn report(rows: &[Row]) -> bool {
    println!(
        "{:<15} {:<14} {:>12} {:>12} {:>9} {:>7} {:>7}  status",
        "workload", "metric", "A (base)", "B", "B/A", "bound", "spread"
    );
    for row in rows {
        let ratio = if row.base != 0.0 {
            format!("{:.3}", row.new / row.base)
        } else {
            "-".into()
        };
        println!(
            "{:<15} {:<14} {:>12.4} {:>12.4} {:>9} {:>6.0}% {:>6.1}%  {}",
            row.workload,
            row.metric,
            row.base,
            row.new,
            ratio,
            row.bound * 100.0,
            row.spread * 100.0,
            match row.status {
                Status::Ok => "ok",
                Status::Unresolved => "unresolved",
                Status::Regression => "REGRESSION",
            }
        );
    }
    let count = |s: Status| rows.iter().filter(|r| r.status == s).count();
    println!(
        "{} pairings: {} ok, {} unresolved, {} regressions (ratios are B/A, A is the base)",
        rows.len(),
        count(Status::Ok),
        count(Status::Unresolved),
        count(Status::Regression)
    );
    count(Status::Regression) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(admits: f64, setup: f64, spread: f64, failed: f64) -> Json {
        let metric = |v: f64| Json::obj([("value", Json::Num(v)), ("spread", Json::Num(spread))]);
        let e2e = Json::obj(END_TO_END.iter().map(|m| {
            let v = match m.name {
                "admits_per_s" => admits,
                "setup_s" => setup,
                _ => 10.0,
            };
            (m.name, metric(v))
        }));
        Json::obj([(
            "workloads",
            Json::obj([(
                "w",
                Json::obj([("end_to_end", e2e), ("failed_share", Json::Num(failed))]),
            )]),
        )])
    }

    fn status(rows: &[Row], metric: &str) -> Status {
        rows.iter().find(|r| r.metric == metric).unwrap().status
    }

    #[test]
    fn bounds_directions_and_failures() {
        let bound = crate::metrics::end_to_end("admits_per_s").unwrap().bound;
        let base = result(100.0, 0.05, 0.01, 0.0);
        let admits = |b: &Json| status(&compare(&base, b).unwrap(), "admits_per_s");
        // Throughput is better higher: just inside the bound passes, just
        // outside does not, and a gain is never a regression.
        assert_eq!(
            admits(&result(100.0 * (1.0 - bound) + 1.0, 0.05, 0.01, 0.0)),
            Status::Ok
        );
        assert_eq!(
            admits(&result(100.0 * (1.0 - bound) - 1.0, 0.05, 0.01, 0.0)),
            Status::Regression
        );
        assert_eq!(admits(&result(150.0, 0.05, 0.01, 0.0)), Status::Ok);
        assert!(!report(
            &compare(&base, &result(10.0, 0.05, 0.01, 0.0)).unwrap()
        ));
        // Small set-ups may move by the absolute slack.
        let setup = |b: &Json| status(&compare(&base, b).unwrap(), "setup_s");
        assert_eq!(setup(&result(100.0, 0.14, 0.01, 0.0)), Status::Ok);
        assert_eq!(setup(&result(100.0, 0.16, 0.01, 0.0)), Status::Regression);
        // Spread wider than the bound: unresolved, not ok.
        assert_eq!(
            admits(&result(100.0, 0.05, bound + 0.02, 0.0)),
            Status::Unresolved
        );
        // Any rise in failures fails.
        let rows = compare(&base, &result(100.0, 0.05, 0.01, 0.001)).unwrap();
        assert_eq!(status(&rows, "failed_share"), Status::Regression);
        assert!(compare(&base, &Json::obj([("workloads", Json::obj::<&str>([]))])).is_err());
    }
}
