//! Report files: what a run writes with `--json`, and `--compare` of two of them.

use crate::json::Json;
use crate::metrics::{EndToEnd, END_TO_END};
use crate::sys;

/// Who measured, with what: enough to tell two reports apart.
pub fn meta(seed: u64, seconds: f64, quick: bool) -> Json {
    Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("quick", Json::Bool(quick)),
        ("nproc", Json::Num(sys::nproc() as f64)),
        (
            "git_revision",
            Json::str(sys::first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(sys::first_line_of("rustc", &["-V"]))),
    ])
}

/// Put one run's part under its workload, next to what is already there
/// (the measured and the traced run of a workload share one entry).
pub fn merge_run(report: &mut Json, workload: &str, part: Json) {
    let mut workloads = report.get("workloads").cloned().unwrap_or(Json::obj::<&str>([]));
    let mut entry = workloads.get(workload).cloned().unwrap_or(Json::obj::<&str>([]));
    for (key, value) in part.entries() {
        // Both runs count their own ops; keep the two apart.
        let counted = matches!(
            key.as_str(),
            "attempted" | "failed" | "failures" | "setup_s" | "speed_index"
        );
        let traced = part.get("per_layer").is_some();
        if counted && traced {
            entry.set(&format!("traced_{key}"), value.clone());
        } else {
            entry.set(key, value.clone());
        }
    }
    workloads.set(workload, entry);
    report.set("workloads", workloads);
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// The rounds of one side disagree by more than the bound: the pair
    /// cannot say whether the metric moved.
    Unresolved,
}

impl Verdict {
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How `after` stands against `before`, given the metric's direction and
/// bound and the larger of the two round spreads.
pub fn verdict(metric: &EndToEnd, before: f64, after: f64, spread: f64) -> Verdict {
    // Positive when `after` is worse, as a share of `before`.
    let worse_by = if metric.higher_is_better {
        (before - after) / before
    } else {
        (after - before) / before
    };
    if spread > metric.bound {
        Verdict::Unresolved
    } else if worse_by > metric.bound {
        Verdict::Worse
    } else if worse_by < -metric.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Print one row per workload and end-to-end metric; `Err` when any is worse.
pub fn compare(before: &Json, after: &Json) -> Result<(), String> {
    println!(
        "{:<18} {:<14} {:>14} {:>14} {:>8} {:>7} {:>8}  verdict",
        "workload", "metric", "before", "after", "ratio", "bound", "spread"
    );
    let mut worse = Vec::new();
    let workloads = before.get("workloads").ok_or("the first report has no workloads")?;
    for (workload, entry) in workloads.entries() {
        for metric in END_TO_END {
            let read = |report: &Json, field: &str| {
                report
                    .get("workloads")?
                    .get(workload)?
                    .get("end_to_end")?
                    .get(metric.name)?
                    .get(field)?
                    .as_f64()
            };
            let Some(a) = entry
                .get("end_to_end")
                .and_then(|m| m.get(metric.name)?.get("value")?.as_f64())
            else {
                continue;
            };
            let Some(b) = read(after, "value") else {
                println!("{workload:<18} {:<14} {a:>14.4} {:>14}", metric.name, "missing");
                worse.push(format!("{workload}/{} is missing from the second report", metric.name));
                continue;
            };
            let spread = read(before, "spread")
                .unwrap_or(0.0)
                .max(read(after, "spread").unwrap_or(0.0));
            let v = verdict(metric, a, b, spread);
            println!(
                "{workload:<18} {:<14} {a:>14.4} {b:>14.4} {:>8.3} {:>6.0}% {:>7.1}%  {}",
                metric.name,
                b / a,
                metric.bound * 100.0,
                spread * 100.0,
                v.word()
            );
            if v == Verdict::Worse {
                worse.push(format!("{workload}/{}: {a} -> {b} {}", metric.name, metric.unit));
            }
        }
    }
    if worse.is_empty() {
        Ok(())
    } else {
        Err(format!("worse than the first report:\n  {}", worse.join("\n  ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn a_verdict_follows_direction_bound_and_spread() {
        let rate = metric("ops_per_s");
        let latency = metric("op_p50_us");
        assert_eq!((rate.bound, latency.bound), (0.25, 0.25));
        assert_eq!(verdict(rate, 100.0, 90.0, 0.02), Verdict::Same);
        assert_eq!(verdict(rate, 100.0, 70.0, 0.02), Verdict::Worse);
        assert_eq!(verdict(rate, 100.0, 130.0, 0.02), Verdict::Better);
        assert_eq!(verdict(latency, 100.0, 130.0, 0.02), Verdict::Worse);
        assert_eq!(verdict(latency, 100.0, 70.0, 0.02), Verdict::Better);
        assert_eq!(verdict(latency, 100.0, 130.0, 0.30), Verdict::Unresolved);
    }

    fn report(value: f64) -> Json {
        let mut r = Json::obj([("meta", Json::Null)]);
        let part = Json::obj([
            ("attempted", Json::Num(10.0)),
            (
                "end_to_end",
                Json::obj([(
                    "ops_per_s",
                    Json::obj([("value", Json::Num(value)), ("spread", Json::Num(0.01))]),
                )]),
            ),
        ]);
        merge_run(&mut r, "tc_fixpoint", part);
        r
    }

    #[test]
    fn compare_fails_only_on_worse() {
        assert!(compare(&report(100.0), &report(90.0)).is_ok());
        assert!(compare(&report(100.0), &report(130.0)).is_ok());
        let err = compare(&report(100.0), &report(70.0)).unwrap_err();
        assert!(err.contains("tc_fixpoint/ops_per_s"), "{err}");
    }

    #[test]
    fn a_traced_run_keeps_its_counts_apart() {
        let mut r = report(100.0);
        let traced = Json::obj([
            ("attempted", Json::Num(7.0)),
            ("per_layer", Json::obj([("engine.derived", Json::Num(1.0))])),
        ]);
        merge_run(&mut r, "tc_fixpoint", traced);
        let entry = r.get("workloads").unwrap().get("tc_fixpoint").unwrap();
        assert_eq!(entry.get("attempted").and_then(Json::as_f64), Some(10.0));
        assert_eq!(entry.get("traced_attempted").and_then(Json::as_f64), Some(7.0));
        assert!(entry.get("end_to_end").is_some() && entry.get("per_layer").is_some());
    }
}
