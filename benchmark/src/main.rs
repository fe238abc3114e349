//! `ftbb-benchmark` — the repository's end-to-end benchmark.
//!
//! Drives all three deployments of the protocol from outside — real
//! `ftbb-noded` clusters through `ftbb_wire::launch`, a `--service` pool
//! under a job stream through `ftbb_wire::submit_job`, and the paper's
//! discrete-event simulator through `ftbb_sim::run_sim` — checks every
//! result against the sequential optimum, and reports end-to-end metrics
//! plus one number per layer. See `benchmark/README.md`.

mod cluster;
mod compare;
mod des;
mod instances;
mod json;
mod probes;
mod report;
mod run;
mod service;
mod spans;
mod stats;
mod workloads;

use crate::json::Json;
use crate::report::WorkloadRuns;
use crate::run::{Options, Record};
use crate::workloads::{Scale, Workload, CHECK, FULL, RUN_SECONDS};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
ftbb-benchmark — end-to-end benchmark of the fault-tolerant branch-and-bound system

USAGE (from the repository root):
  cargo run --release --manifest-path benchmark/Cargo.toml -- <MODE>

MODES:
  --workload NAME --seed N --seconds S --trace 0|1
        One run of one workload. --trace 0 measures the end-to-end metrics
        with node telemetry off; --trace 1 repeats the workload with
        telemetry on, probes every layer under spans and reports the
        per-layer metrics. The last line of stdout is one JSON object:
        {\"correct\", \"attempted\", \"failed\", \"metrics\"}.
  run [--seed S] [--runs R] [--seconds T] [--workload NAME]... [--out FILE]
        Every (or each named) workload: one untimed warm-up, R timed runs
        (default 5) reported as median and quartiles, one traced run.
        Writes benchmark/results/FILE (default result-seed<S>.json).
  trace [--seed S] [--seconds T] [--workload NAME]...
        Only the traced run of each workload; spans go to
        benchmark/results/trace-<workload>.jsonl.
  check
        Smoke mode: small inputs, one short run and one traced run of all
        six workloads, the correctness oracle and the JSON writer.
  compare A.json B.json [--manifest BENCHMARK.json]
        Judge result file B against base A with the manifest's bounds;
        exits 1 on `worse` or a larger failed share.

WORKLOADS: solo_knap duo_knap crash_knap solo_maxsat service_mix des_100p
";

/// `--flag value` pairs and bare words of a command line.
struct Args {
    flags: Vec<(String, String)>,
    words: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut words = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(name) => {
                    let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    flags.push((name.to_string(), value.clone()));
                }
                None => words.push(arg.clone()),
            }
        }
        Ok(Args { flags, words })
    }

    fn all(&self, name: &str) -> Vec<&str> {
        self.flags
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn one<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.all(name).last() {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name}: cannot read `{v}`")),
        }
    }

    fn allow(&self, known: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(n, _)| !known.contains(&n.as_str()))
        {
            Some((n, _)) => Err(format!("unknown flag --{n}")),
            None => Ok(()),
        }
    }

    fn workloads(&self) -> Result<Vec<Workload>, String> {
        let named = self.all("workload");
        if named.is_empty() {
            return Ok(Workload::ALL.to_vec());
        }
        named
            .into_iter()
            .map(|n| Workload::from_name(n).ok_or_else(|| format!("unknown workload `{n}`")))
            .collect()
    }

    fn seconds(&self, default: f64) -> Result<f64, String> {
        let s = self.one("seconds")?.unwrap_or(default);
        if s.is_finite() && s > 0.0 && s <= 600.0 {
            Ok(s)
        } else {
            Err(format!("--seconds must be in (0, 600], not {s}"))
        }
    }
}

fn one_run(
    noded: &cluster::Noded,
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: Scale,
) -> Result<Record, String> {
    let record = run::run(
        noded,
        &Options {
            workload,
            seed,
            seconds,
            traced,
            scale,
        },
    )?;
    print!("{}", report::record_table(&record));
    Ok(record)
}

/// The contract mode: one run, one JSON line last.
fn single(args: &Args) -> Result<ExitCode, String> {
    args.allow(&["workload", "seed", "seconds", "trace"])?;
    let [name] = args.all("workload")[..] else {
        return Err("name exactly one --workload".to_string());
    };
    let workload = Workload::from_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed: u64 = args.one("seed")?.unwrap_or(1);
    let seconds = args.seconds(RUN_SECONDS)?;
    let traced = match args.one::<u8>("trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let noded = cluster::build_noded()?;
    println!(
        "bench.build_s {:.3} s (cargo build of ftbb-noded; not part of setup_s)",
        noded.build_s
    );
    let record = one_run(&noded, workload, seed, seconds, traced, FULL)?;
    println!("{}", report::record_line(&record));
    Ok(ExitCode::SUCCESS)
}

/// `run` and `trace`: every selected workload, aggregated.
fn many(args: &Args, timed_runs: bool) -> Result<ExitCode, String> {
    args.allow(&["workload", "seed", "seconds", "runs", "out"])?;
    let seed: u64 = args.one("seed")?.unwrap_or(1);
    let seconds = args.seconds(RUN_SECONDS)?;
    let runs: usize = args.one("runs")?.unwrap_or(5);
    if timed_runs && runs == 0 {
        return Err("--runs must be at least 1".to_string());
    }
    let out: String = args.one("out")?.unwrap_or_else(|| {
        format!(
            "{}-seed{seed}.json",
            if timed_runs { "result" } else { "trace" }
        )
    });
    let noded = cluster::build_noded()?;
    println!("bench.build_s {:.3} s", noded.build_s);
    let mut all = Vec::new();
    for workload in args.workloads()? {
        let mut timed = Vec::new();
        if timed_runs {
            // Untimed warm-up: page in the daemon, the loopback stack and
            // the allocator before anything is kept.
            one_run(&noded, workload, seed, seconds.min(2.0), false, FULL)?;
            for _ in 0..runs {
                timed.push(one_run(&noded, workload, seed, seconds, false, FULL)?);
            }
        }
        let traced = Some(one_run(&noded, workload, seed, seconds, true, FULL)?);
        all.push(WorkloadRuns {
            workload,
            timed,
            traced,
        });
    }
    finish(&all, seed, seconds, "full", noded.build_s, &out)
}

fn finish(
    all: &[WorkloadRuns],
    seed: u64,
    seconds: f64,
    scale: &str,
    build_s: f64,
    out: &str,
) -> Result<ExitCode, String> {
    println!("\n== summary: one row per workload x metric ==");
    for w in all {
        print!("{}", w.table());
    }
    let dir = cluster::results_dir();
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(out);
    let file = report::result_file(seed, seconds, scale, build_s, all);
    std::fs::write(&path, file.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    let failed: u64 = all.iter().map(|w| w.ops().1).sum();
    if failed > 0 {
        println!("{failed} operations FAILED");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// `check`: the smoke mode.
fn check(args: &Args) -> Result<ExitCode, String> {
    args.allow(&[])?;
    let started = std::time::Instant::now();
    let noded = cluster::build_noded()?;
    let mut all = Vec::new();
    for workload in Workload::ALL {
        let timed = vec![one_run(&noded, workload, 1, 0.8, false, CHECK)?];
        let traced = Some(one_run(&noded, workload, 1, 0.8, true, CHECK)?);
        all.push(WorkloadRuns {
            workload,
            timed,
            traced,
        });
    }
    let code = finish(&all, 1, 0.8, "check", noded.build_s, "check.json")?;
    // Read the file back: the writer and the parser must agree.
    let path = cluster::results_dir().join("check.json");
    let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
    let parsed = Json::parse(&text)?;
    let sections = parsed
        .get("workloads")
        .and_then(Json::as_arr)
        .map_or(0, <[Json]>::len);
    if sections != Workload::ALL.len() {
        return Err(format!("check.json holds {sections} workloads, not six"));
    }
    println!(
        "check: {} workloads in {:.1} s (build {:.1} s)",
        sections,
        started.elapsed().as_secs_f64(),
        noded.build_s
    );
    Ok(code)
}

fn compare_files(args: &Args) -> Result<ExitCode, String> {
    args.allow(&["manifest"])?;
    let [_, a, b] = &args.words[..] else {
        return Err("compare takes two result files".to_string());
    };
    let manifest: PathBuf = args
        .one("manifest")?
        .unwrap_or_else(|| cluster::repo_root().join("BENCHMARK.json"));
    let read = |path: &std::path::Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let comparison = compare::compare(&read(a.as_ref())?, &read(b.as_ref())?, &read(&manifest)?)?;
    print!("{}", comparison.table);
    Ok(if comparison.regressed {
        println!("REGRESSED");
        ExitCode::FAILURE
    } else {
        println!("no regression");
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() || raw.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return if raw.is_empty() {
            ExitCode::from(2)
        } else {
            ExitCode::SUCCESS
        };
    }
    let outcome = Args::parse(&raw).and_then(|args| match args.words.first().map(String::as_str) {
        None => single(&args),
        Some("run") if args.words.len() == 1 => many(&args, true),
        Some("trace") if args.words.len() == 1 => many(&args, false),
        Some("check") if args.words.len() == 1 => check(&args),
        Some("compare") => compare_files(&args),
        Some(other) => Err(format!("unknown mode `{other}`")),
    });
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ftbb-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
