//! Printing runs and writing result files.

use crate::json::Json;
use crate::run::Record;
use crate::stats::Summary;
use crate::workloads::{MetricDef, Workload};

/// The one-line record a single run ends with: exactly `correct`,
/// `attempted`, `failed` and `metrics`, each metric with its value in full
/// precision and its unit.
pub fn record_line(record: &Record) -> String {
    Json::obj([
        ("correct", Json::Bool(record.correct())),
        ("attempted", Json::Num(record.attempted as f64)),
        ("failed", Json::Num(record.failed() as f64)),
        (
            "metrics",
            Json::Obj(
                record
                    .metrics
                    .iter()
                    .map(|m| {
                        (
                            m.def.name.to_string(),
                            Json::obj([
                                ("value", Json::Num(m.value)),
                                ("unit", Json::str(m.def.unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
    .render()
}

/// Human-readable rows of one run: every metric by name with its unit.
pub fn record_table(record: &Record) -> String {
    let mut out = format!(
        "{} seed {} ({}): {} operations attempted, {} failed\n",
        record.workload.name(),
        record.seed,
        if record.traced { "traced" } else { "untraced" },
        record.attempted,
        record.failed()
    );
    out.push_str(&format!("  # why: {}\n", record.workload.why()));
    for (key, value) in &record.info {
        out.push_str(&format!("  # {key}: {value}\n"));
    }
    for why in &record.failures {
        out.push_str(&format!("  ! failed: {why}\n"));
    }
    for m in &record.metrics {
        out.push_str(&format!(
            "  {:<12} {:<44} {:>16.6} {}\n",
            record.workload.name(),
            m.def.name,
            m.value,
            m.def.unit
        ));
    }
    out
}

/// The host the numbers were taken on: core count and kernel release.
pub fn host() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("kernel", Json::str(kernel)),
    ])
}

/// Every run of one workload in a `run` invocation: the untraced runs and
/// the one traced run.
pub struct WorkloadRuns {
    /// The workload.
    pub workload: Workload,
    /// The timed, untraced runs.
    pub timed: Vec<Record>,
    /// The traced run, if one was made.
    pub traced: Option<Record>,
}

impl WorkloadRuns {
    /// Operations attempted and failed over all runs.
    pub fn ops(&self) -> (u64, u64) {
        self.timed
            .iter()
            .chain(&self.traced)
            .fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed()))
    }

    /// Each end-to-end metric with its value in every timed run and their
    /// summary.
    fn end_to_end(&self) -> Vec<(MetricDef, Vec<f64>, Summary)> {
        let Some(first) = self.timed.first() else {
            return Vec::new();
        };
        first
            .metrics
            .iter()
            .filter_map(|m| {
                let values: Vec<f64> = self
                    .timed
                    .iter()
                    .filter_map(|r| r.value(m.def.name))
                    .collect();
                let summary = Summary::of(&values)?;
                Some((m.def, values, summary))
            })
            .collect()
    }

    /// One row per end-to-end metric: median and quartiles over the runs.
    pub fn table(&self) -> String {
        let (attempted, failed) = self.ops();
        let mut out = format!(
            "{}: ops_attempted {attempted}, ops_failed {failed}, {} timed runs\n",
            self.workload.name(),
            self.timed.len()
        );
        for (def, _, s) in self.end_to_end() {
            out.push_str(&format!(
                "  {:<12} {:<44} {:>14.6} {:<5} q1 {:.6} q3 {:.6} spread {:.1} % (n={})\n",
                self.workload.name(),
                def.name,
                s.median,
                def.unit,
                s.q1,
                s.q3,
                100.0 * s.spread(),
                s.n
            ));
        }
        if let Some(traced) = &self.traced {
            for m in &traced.metrics {
                out.push_str(&format!(
                    "  {:<12} {:<44} {:>14.6} {}\n",
                    self.workload.name(),
                    m.def.name,
                    m.value,
                    m.def.unit
                ));
            }
        }
        out
    }

    /// The workload's section of a result file.
    pub fn json(&self) -> Json {
        let (attempted, failed) = self.ops();
        let end_to_end: Vec<Json> = self
            .end_to_end()
            .into_iter()
            .map(|(def, values, s)| {
                Json::obj([
                    ("name", Json::str(def.name)),
                    ("unit", Json::str(def.unit)),
                    (
                        "better",
                        Json::str(if def.higher_is_better {
                            "higher"
                        } else {
                            "lower"
                        }),
                    ),
                    ("median", Json::Num(s.median)),
                    ("q1", Json::Num(s.q1)),
                    ("q3", Json::Num(s.q3)),
                    (
                        "values",
                        Json::Arr(values.into_iter().map(Json::Num).collect()),
                    ),
                ])
            })
            .collect();
        let per_layer: Vec<Json> = self.traced.as_ref().map_or(Vec::new(), |t| {
            t.metrics
                .iter()
                .map(|m| {
                    Json::obj([
                        ("name", Json::str(m.def.name)),
                        ("unit", Json::str(m.def.unit)),
                        ("value", Json::Num(m.value)),
                    ])
                })
                .collect()
        });
        let info = self
            .timed
            .first()
            .or(self.traced.as_ref())
            .map_or(Vec::new(), |r| r.info.clone());
        Json::obj([
            ("name", Json::str(self.workload.name())),
            ("ops_attempted", Json::Num(attempted as f64)),
            ("ops_failed", Json::Num(failed as f64)),
            ("end_to_end", Json::Arr(end_to_end)),
            ("per_layer", Json::Arr(per_layer)),
            (
                "info",
                Json::Obj(info.into_iter().map(|(k, v)| (k, Json::Str(v))).collect()),
            ),
        ])
    }
}

/// A whole result file.
pub fn result_file(
    seed: u64,
    seconds: f64,
    scale: &str,
    build_s: f64,
    workloads: &[WorkloadRuns],
) -> Json {
    Json::obj([
        ("benchmark", Json::str("ftbb-benchmark")),
        ("host", host()),
        ("seed", Json::Num(seed as f64)),
        ("seconds_per_run", Json::Num(seconds)),
        ("scale", Json::str(scale)),
        ("bench.build_s", Json::Num(build_s)),
        (
            "workloads",
            Json::Arr(workloads.iter().map(WorkloadRuns::json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Metric;
    use crate::workloads::END_TO_END;

    fn record(time: f64, failed: u64) -> Record {
        Record {
            workload: Workload::DuoKnap,
            seed: 4,
            traced: false,
            attempted: 10,
            failures: (0..failed).map(|i| format!("why {i}")).collect(),
            metrics: END_TO_END
                .iter()
                .map(|&def| Metric {
                    def,
                    value: if def.name == "time_to_optimum_s" {
                        time
                    } else {
                        0.25
                    },
                })
                .collect(),
            info: vec![("kill_at".to_string(), "0.3 s".to_string())],
        }
    }

    #[test]
    fn record_line_has_exactly_the_contract_keys() {
        let line = record_line(&record(1.2034567, 0));
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).unwrap();
        let Json::Obj(members) = &doc else {
            panic!("the record is an object");
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").unwrap().as_f64(), Some(10.0));
        assert!(matches!(doc.get("metrics"), Some(Json::Obj(m)) if m.len() == END_TO_END.len()));
        let t = doc
            .get("metrics")
            .unwrap()
            .get("time_to_optimum_s")
            .unwrap();
        assert_eq!(t.get("value").unwrap().as_f64(), Some(1.2034567));
        assert_eq!(t.get("unit").unwrap().as_str(), Some("s"));
        assert!(
            line.contains("\"attempted\":10,"),
            "whole numbers stay whole: {line}"
        );

        let failed = Json::parse(&record_line(&record(1.0, 2))).unwrap();
        assert_eq!(failed.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(failed.get("failed").unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn workload_section_aggregates_runs() {
        let runs = WorkloadRuns {
            workload: Workload::DuoKnap,
            timed: vec![record(1.0, 0), record(3.0, 1), record(2.0, 0)],
            traced: None,
        };
        assert_eq!(runs.ops(), (30, 1));
        let section = runs.json();
        assert_eq!(section.get("ops_failed").unwrap().as_f64(), Some(1.0));
        let time = &section.get("end_to_end").unwrap().as_arr().unwrap()[0];
        assert_eq!(time.get("median").unwrap().as_f64(), Some(2.0));
        assert_eq!(time.get("values").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(time.get("better").unwrap().as_str(), Some("lower"));
        assert!(runs.table().contains("time_to_optimum_s"));
        assert!(record_table(&record(1.0, 1)).contains("! failed: why 0"));
        let file = result_file(4, 12.0, "full", 9.5, &[runs]);
        assert_eq!(Json::parse(&file.pretty()).unwrap(), file);
        assert!(file.get("host").unwrap().get("nproc").is_some());
    }
}
