//! `compare A.json B.json`: judge result file B against base A with the
//! per-metric bounds `BENCHMARK.json` fixes.
//!
//! For every workload × end-to-end metric: `worse` when B's median is
//! worse than A's by more than the bound; `unresolved` when the
//! run-to-run spread of either side exceeds the bound — unless every run
//! of B reads better than every run of A; otherwise `ok`
//! (choosing-metrics §6.5). A larger failed share of operations is a
//! regression whatever the times say.

use crate::json::Json;
use crate::stats::Summary;

/// The judgement on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Ok,
    /// B is worse than A by more than the bound.
    Worse,
    /// The runs spread wider than the bound: no judgement.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge runs `b` against base runs `a`. `bound` is the share of A's
/// median by which B's may worsen.
pub fn judge(a: &[f64], b: &[f64], bound: f64, higher_is_better: bool) -> Option<Verdict> {
    let (sa, sb) = (Summary::of(a)?, Summary::of(b)?);
    // Fold direction away: `worse_by` is positive when B is worse.
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let worse_by = sign * (sb.median - sa.median) / sa.median.abs();
    let b_wins_every_pair = a.iter().all(|&x| b.iter().all(|&y| sign * (y - x) < 0.0));
    let noisy = sa.spread() > bound || sb.spread() > bound;
    Some(if noisy && !b_wins_every_pair {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    })
}

struct MetricRuns {
    name: String,
    unit: String,
    values: Vec<f64>,
}

struct Section {
    name: String,
    attempted: f64,
    failed: f64,
    metrics: Vec<MetricRuns>,
}

fn sections(file: &Json, path: &str) -> Result<Vec<Section>, String> {
    let bad = |what: &str| format!("{path}: {what}");
    file.get("workloads")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("no `workloads` array (not a result file?)"))?
        .iter()
        .map(|w| {
            let text = |k: &str| {
                w.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| bad(&format!("a workload lacks `{k}`")))
            };
            let number = |k: &str| {
                w.get(k)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| bad(&format!("a workload lacks `{k}`")))
            };
            let metrics = w
                .get("end_to_end")
                .and_then(Json::as_arr)
                .ok_or_else(|| bad("a workload lacks `end_to_end`"))?
                .iter()
                .map(|m| {
                    Ok(MetricRuns {
                        name: m
                            .get("name")
                            .and_then(Json::as_str)
                            .ok_or_else(|| bad("a metric lacks `name`"))?
                            .to_string(),
                        unit: m
                            .get("unit")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_string(),
                        values: m
                            .get("values")
                            .and_then(Json::as_arr)
                            .ok_or_else(|| bad("a metric lacks `values`"))?
                            .iter()
                            .filter_map(Json::as_f64)
                            .collect(),
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(Section {
                name: text("name")?,
                attempted: number("ops_attempted")?,
                failed: number("ops_failed")?,
                metrics,
            })
        })
        .collect()
}

/// `(bound, higher_is_better)` of every end-to-end metric `manifest`
/// (a parsed `BENCHMARK.json`) declares.
fn bounds(manifest: &Json) -> Result<Vec<(String, f64, bool)>, String> {
    manifest
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("the manifest has no `end_to_end` array")?
        .iter()
        .map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
                m.get("better")?.as_str()? == "higher",
            ))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "a manifest metric lacks name, bound or better".to_string())
}

/// The comparison table and whether B regressed.
pub struct Comparison {
    /// One row per workload × end-to-end metric, plus failure rows.
    pub table: String,
    /// True when any row is `worse` or B failed a larger share of its
    /// operations.
    pub regressed: bool,
}

/// Compare parsed result files `a` (base) and `b` under `manifest`.
pub fn compare(a: &Json, b: &Json, manifest: &Json) -> Result<Comparison, String> {
    let bounds = bounds(manifest)?;
    let (sa, sb) = (sections(a, "A")?, sections(b, "B")?);
    let mut table = format!(
        "{:<12} {:<20} {:>34} {:>34} {:>9} {:>6}  verdict\n",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B/A", "bound"
    );
    let mut regressed = false;
    for wa in &sa {
        let Some(wb) = sb.iter().find(|w| w.name == wa.name) else {
            table.push_str(&format!("{:<12} missing from B\n", wa.name));
            regressed = true;
            continue;
        };
        for ma in &wa.metrics {
            let Some(&(_, bound, higher)) = bounds.iter().find(|(n, _, _)| *n == ma.name) else {
                continue;
            };
            let Some(mb) = wb.metrics.iter().find(|m| m.name == ma.name) else {
                table.push_str(&format!("{:<12} {:<20} missing from B\n", wa.name, ma.name));
                regressed = true;
                continue;
            };
            let (Some(xa), Some(xb), Some(verdict)) = (
                Summary::of(&ma.values),
                Summary::of(&mb.values),
                judge(&ma.values, &mb.values, bound, higher),
            ) else {
                table.push_str(&format!("{:<12} {:<20} has no runs\n", wa.name, ma.name));
                regressed = true;
                continue;
            };
            regressed |= verdict == Verdict::Worse;
            let cell =
                |s: &Summary| format!("{:.5} [{:.5}, {:.5}] {}", s.median, s.q1, s.q3, ma.unit);
            table.push_str(&format!(
                "{:<12} {:<20} {:>34} {:>34} {:>9.4} {:>5.0}%  {}\n",
                wa.name,
                ma.name,
                cell(&xa),
                cell(&xb),
                xb.median / xa.median,
                100.0 * bound,
                verdict.label()
            ));
        }
        let share = |s: &Section| {
            if s.attempted > 0.0 {
                s.failed / s.attempted
            } else {
                1.0
            }
        };
        if share(wb) > share(wa) {
            table.push_str(&format!(
                "{:<12} ops_failed share rose: {}/{} in A, {}/{} in B  worse\n",
                wa.name, wa.failed, wa.attempted, wb.failed, wb.attempted
            ));
            regressed = true;
        }
    }
    Ok(Comparison { table, regressed })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_bound_direction_and_spread() {
        let base = [1.00, 1.01, 0.99, 1.00, 1.02];
        // 5 % slower, bound 10 %: ok. 20 % slower: worse.
        assert_eq!(
            judge(&base, &base.map(|x| x * 1.05), 0.10, false),
            Some(Verdict::Ok)
        );
        assert_eq!(
            judge(&base, &base.map(|x| x * 1.20), 0.10, false),
            Some(Verdict::Worse)
        );
        // For a rate, lower is the bad direction.
        assert_eq!(
            judge(&base, &base.map(|x| x * 0.80), 0.10, true),
            Some(Verdict::Worse)
        );
        assert_eq!(
            judge(&base, &base.map(|x| x * 1.20), 0.10, true),
            Some(Verdict::Ok)
        );
        // Spread wider than the bound: unresolved …
        let noisy = [0.7, 1.0, 1.3, 0.8, 1.2];
        assert_eq!(judge(&noisy, &base, 0.10, false), Some(Verdict::Unresolved));
        assert_eq!(judge(&base, &noisy, 0.10, false), Some(Verdict::Unresolved));
        // … unless every run of B beats every run of A.
        assert_eq!(
            judge(&noisy, &base.map(|x| x * 0.5), 0.10, false),
            Some(Verdict::Ok)
        );
        assert_eq!(judge(&[], &base, 0.10, false), None);
    }

    fn file(time: [f64; 3], failed: f64) -> Json {
        Json::obj([(
            "workloads",
            Json::Arr(vec![Json::obj([
                ("name", Json::str("duo_knap")),
                ("ops_attempted", Json::Num(30.0)),
                ("ops_failed", Json::Num(failed)),
                (
                    "end_to_end",
                    Json::Arr(vec![Json::obj([
                        ("name", Json::str("time_to_optimum_s")),
                        ("unit", Json::str("s")),
                        (
                            "values",
                            Json::Arr(time.iter().map(|&v| Json::Num(v)).collect()),
                        ),
                    ])]),
                ),
            ])]),
        )])
    }

    #[test]
    fn compare_flags_slowdowns_and_failures() {
        let manifest = Json::parse(
            r#"{"end_to_end": [{"name": "time_to_optimum_s", "unit": "s", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        let base = file([1.0, 1.01, 0.99], 0.0);
        let same = compare(&base, &file([1.02, 1.0, 1.01], 0.0), &manifest).unwrap();
        assert!(!same.regressed, "{}", same.table);
        assert!(same.table.contains("ok"));
        let slow = compare(&base, &file([1.3, 1.31, 1.29], 0.0), &manifest).unwrap();
        assert!(
            slow.regressed && slow.table.contains("worse"),
            "{}",
            slow.table
        );
        let failing = compare(&base, &file([1.0, 1.01, 0.99], 2.0), &manifest).unwrap();
        assert!(failing.regressed && failing.table.contains("ops_failed share rose"));
        assert!(compare(&Json::Null, &base, &manifest).is_err());
        assert!(compare(&base, &base, &Json::Null).is_err());
    }
}
