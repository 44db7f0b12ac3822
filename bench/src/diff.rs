//! `bench diff old new`: one row per (workload, metric) with both
//! medians, the ratio with its base, and a verdict judged against the
//! bounds the old rows recorded.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::Json;
use crate::stats::{median, percentile};
use crate::Res;

/// Rows of a results file: JSON lines, one JSON array, or one object.
pub fn read_rows(path: &Path) -> Res<Vec<Json>> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
    if let Ok(doc) = Json::parse(&text) {
        return Ok(match doc {
            Json::Arr(rows) => rows,
            row => vec![row],
        });
    }
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| Json::parse(l).map_err(|e| format!("{path:?} line {}: {e}", i + 1)))
        .collect()
}

#[derive(Debug, Clone, PartialEq)]
struct Series {
    values: Vec<f64>,
    unit: String,
    /// `lower` / `higher`; absent on rows that do not say.
    better: Option<String>,
    /// End-to-end metrics carry the bound they are judged against.
    bound: Option<f64>,
}

type Key = (String, String);

fn collect(rows: &[Json]) -> BTreeMap<Key, Series> {
    let mut out: BTreeMap<Key, Series> = BTreeMap::new();
    for row in rows {
        let Some(workload) = row.get("workload").and_then(Json::as_str) else {
            continue;
        };
        let Some(metrics) = row.get("metrics").and_then(Json::as_object) else {
            continue;
        };
        for (name, m) in metrics {
            let Some(value) = m.get("value").and_then(Json::as_f64) else {
                continue;
            };
            let series = out
                .entry((workload.to_string(), name.clone()))
                .or_insert_with(|| Series {
                    values: Vec::new(),
                    unit: m.get("unit").and_then(Json::as_str).unwrap_or("").into(),
                    better: m.get("better").and_then(Json::as_str).map(str::to_string),
                    bound: m.get("bound").and_then(Json::as_f64),
                });
            series.values.push(value);
        }
        // Failures ride along as a metric with an absolute bound of zero.
        if let (Some(failed), Some(attempted)) = (
            row.get("failed").and_then(Json::as_f64),
            row.get("attempted").and_then(Json::as_f64),
        ) {
            out.entry((workload.to_string(), "failed_share".into()))
                .or_insert_with(|| Series {
                    values: Vec::new(),
                    unit: "ratio".into(),
                    better: Some("lower".into()),
                    bound: Some(0.0),
                })
                .values
                .push(failed / attempted.max(1.0));
        }
    }
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Same,
    /// The run-to-run spread is wider than the bound: neither unchanged
    /// nor changed can be claimed.
    Unresolved,
    /// A per-layer metric: no bound to judge against.
    Unjudged,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
            Verdict::Unjudged => "-",
        }
    }
}

fn iqr(values: &[f64]) -> f64 {
    if values.len() < 4 {
        return 0.0;
    }
    percentile(values, 0.75) - percentile(values, 0.25)
}

/// Judge `new` against `old` for a metric where `lower_is_better`, with
/// `bound` the share of the old median it may worsen by.
pub fn judge(old: &[f64], new: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (m_old, m_new) = (median(old), median(new));
    if bound == 0.0 {
        // An absolute bound (failures): any worsening is a regression.
        let worse = if lower_is_better {
            m_new > m_old
        } else {
            m_new < m_old
        };
        return if worse { Verdict::Worse } else { Verdict::Same };
    }
    if m_old == 0.0 {
        // No base to take a share of.
        return Verdict::Unresolved;
    }
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worsening = sign * (m_new - m_old) / m_old.abs();
    if worsening > bound {
        return Verdict::Worse;
    }
    let separated = if lower_is_better {
        new.iter().copied().fold(f64::MIN, f64::max) < old.iter().copied().fold(f64::MAX, f64::min)
    } else {
        new.iter().copied().fold(f64::MAX, f64::min) > old.iter().copied().fold(f64::MIN, f64::max)
    };
    let spread = iqr(old).max(iqr(new)) / m_old.abs();
    if spread > bound && !separated {
        return Verdict::Unresolved;
    }
    // A gain must clear the parent's own run-to-run spread.
    if worsening < 0.0 && -worsening > iqr(old) / m_old.abs() && (separated || old.len() >= 4) {
        return Verdict::Better;
    }
    Verdict::Same
}

pub fn diff(old_path: &Path, new_path: &Path) -> Res<String> {
    let old = collect(&read_rows(old_path)?);
    let new = collect(&read_rows(new_path)?);
    let mut out = String::new();
    out.push_str(&format!(
        "{:<20} {:<34} {:>14} {:>14} {:>24} {:>7} {}\n",
        "workload", "metric", "old median", "new median", "new/old (base)", "bound", "verdict"
    ));
    let mut worse = 0usize;
    let mut missing = 0usize;
    for (key, o) in &old {
        let Some(n) = new.get(key) else {
            // A metric the new runs stopped reporting must not vanish
            // from the table.
            missing += 1;
            out.push_str(&format!(
                "{:<20} {:<34} {:>14.4} {:>14} {:>24} {:>7} missing (runs {}/0)\n",
                key.0,
                key.1,
                median(&o.values),
                "-",
                "-",
                o.bound.map_or("-".to_string(), |b| format!("{b}")),
                o.values.len()
            ));
            continue;
        };
        let (m_old, m_new) = (median(&o.values), median(&n.values));
        let verdict = match (o.bound, o.better.as_deref()) {
            (Some(bound), Some(better)) => judge(&o.values, &n.values, better == "lower", bound),
            _ => Verdict::Unjudged,
        };
        worse += usize::from(verdict == Verdict::Worse);
        let ratio = if m_old == 0.0 {
            "n/a (base 0)".to_string()
        } else {
            format!("{:.3}x of {:.4} {}", m_new / m_old, m_old, o.unit)
        };
        out.push_str(&format!(
            "{:<20} {:<34} {:>14.4} {:>14.4} {:>24} {:>7} {} (runs {}/{})\n",
            key.0,
            key.1,
            m_old,
            m_new,
            ratio,
            o.bound.map_or("-".to_string(), |b| format!("{b}")),
            verdict.name(),
            o.values.len(),
            n.values.len()
        ));
    }
    out.push_str(&format!(
        "{worse} metric(s) worse than their bound, {missing} missing from the new runs\n"
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let old = [10.0, 10.1, 9.9, 10.0, 10.05];
        // Worse by more than 10 %.
        assert_eq!(
            judge(&old, &[11.5, 11.4, 11.6, 11.5], true, 0.10),
            Verdict::Worse
        );
        // Within the bound, small spread.
        assert_eq!(
            judge(&old, &[10.2, 10.1, 10.3, 10.2], true, 0.10),
            Verdict::Same
        );
        // Every new run beats every old run.
        assert_eq!(
            judge(&old, &[8.0, 8.1, 7.9, 8.0], true, 0.10),
            Verdict::Better
        );
        // Spread wider than the bound, overlapping runs.
        let noisy = [10.0, 13.0, 8.0, 12.0, 7.5];
        assert_eq!(
            judge(&noisy, &[9.5, 12.5, 8.5, 11.0], true, 0.10),
            Verdict::Unresolved
        );
        // Higher is better flips the direction.
        assert_eq!(
            judge(&old, &[8.0, 8.1, 7.9, 8.0], false, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            judge(&old, &[12.0, 12.1, 11.9, 12.0], false, 0.10),
            Verdict::Better
        );
        // Failures: absolute bound.
        assert_eq!(judge(&[0.0], &[0.01], true, 0.0), Verdict::Worse);
        assert_eq!(judge(&[0.0], &[0.0], true, 0.0), Verdict::Same);
        // A zero base has no share to judge by.
        assert_eq!(judge(&[0.0], &[1.0], true, 0.1), Verdict::Unresolved);
    }

    #[test]
    fn a_metric_the_new_runs_dropped_is_reported_missing() {
        let dir =
            crate::run::default_out_dir().join(format!("test-missing-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let row = |metrics: &str| format!("{{\"workload\":\"a\",\"metrics\":{{{metrics}}}}}\n");
        let m = |name: &str| {
            format!(
                "\"{name}\":{{\"value\":1.5,\"unit\":\"ms\",\"better\":\"lower\",\"bound\":0.1}}"
            )
        };
        let (old, new) = (dir.join("old.jsonl"), dir.join("new.jsonl"));
        std::fs::write(&old, row(&format!("{},{}", m("kept"), m("dropped")))).unwrap();
        std::fs::write(&new, row(&m("kept"))).unwrap();
        let table = diff(&old, &new).unwrap();
        let dropped = table.lines().find(|l| l.contains("dropped")).unwrap();
        assert!(dropped.contains("missing"), "{dropped}");
        assert!(
            table.ends_with("0 metric(s) worse than their bound, 1 missing from the new runs\n")
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rows_group_by_workload_and_metric() {
        let row = |w: &str, v: f64, failed: f64| {
            Json::obj([
                ("workload", Json::from(w)),
                ("attempted", Json::Num(100.0)),
                ("failed", Json::Num(failed)),
                (
                    "metrics",
                    Json::obj([(
                        "query_p50_ms",
                        Json::obj([
                            ("value", Json::Num(v)),
                            ("unit", Json::from("ms")),
                            ("better", Json::from("lower")),
                            ("bound", Json::Num(0.1)),
                        ]),
                    )]),
                ),
            ])
        };
        let rows = vec![row("a", 1.0, 0.0), row("a", 3.0, 1.0), row("b", 5.0, 0.0)];
        let grouped = collect(&rows);
        let a = &grouped[&("a".to_string(), "query_p50_ms".to_string())];
        assert_eq!(a.values, vec![1.0, 3.0]);
        assert_eq!(a.bound, Some(0.1));
        assert_eq!(
            grouped[&("a".to_string(), "failed_share".to_string())].values,
            vec![0.0, 0.01]
        );
        assert_eq!(grouped.len(), 4);
    }

    #[test]
    fn reads_json_lines_arrays_and_single_rows() {
        let dir = crate::run::default_out_dir().join(format!("test-diff-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let lines = dir.join("a.jsonl");
        std::fs::write(&lines, "{\"workload\":\"a\"}\n\n{\"workload\":\"b\"}\n").unwrap();
        assert_eq!(read_rows(&lines).unwrap().len(), 2);
        let array = dir.join("b.json");
        std::fs::write(&array, "[{\"workload\":\"a\"}]").unwrap();
        assert_eq!(read_rows(&array).unwrap().len(), 1);
        let single = dir.join("c.json");
        std::fs::write(&single, "{\"workload\":\"a\"}").unwrap();
        assert_eq!(read_rows(&single).unwrap().len(), 1);
        let bad = dir.join("d.json");
        std::fs::write(&bad, "{nope").unwrap();
        assert!(read_rows(&bad).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
