//! The cluster workloads: real `ftbb-noded` processes on loopback through
//! `ftbb_wire::launch`, and what a traced launch says about each layer.

use crate::spans::Recorder;
use ftbb_core::TraceEvent;
use ftbb_wire::{
    launch, ClusterReport, ClusterSpec, GossipTiming, LifecycleEvent, ParsedMetrics, ProblemSpec,
};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The repository root: the benchmark package sits directly under it.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package has a parent directory")
        .to_path_buf()
}

/// Where result files, traces and node scratch directories go (ignored by
/// git through the root `.gitignore`'s `results/`).
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// The built daemon.
#[derive(Debug, Clone)]
pub struct Noded {
    /// Path to the `ftbb-noded` executable.
    pub path: PathBuf,
    /// Wall time of the `cargo build` that produced (or confirmed) it.
    pub build_s: f64,
}

/// Build `ftbb-noded` from the repository's own workspace, optimized, into
/// the target directory this benchmark executable was built into — so one
/// `CARGO_TARGET_DIR` (or none) covers both builds and the daemon is found
/// without reading the environment. Not part of `setup_s`: a compiler's
/// speed is not the system's.
pub fn build_noded() -> Result<Noded, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    // <target>/<profile>/ftbb-benchmark, or <target>/<profile>/deps/… under
    // `cargo test`.
    let target = exe
        .ancestors()
        .find(|p| {
            p.file_name()
                .is_some_and(|n| n == "release" || n == "debug")
        })
        .and_then(Path::parent)
        .ok_or_else(|| format!("{} is not inside a cargo target directory", exe.display()))?
        .to_path_buf();
    let root = repo_root();
    let started = Instant::now();
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "ftbb-wire", "--bin", "ftbb-noded"])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(&target)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    let build_s = started.elapsed().as_secs_f64();
    if !status.success() {
        return Err(format!("building ftbb-noded failed ({status})"));
    }
    let path = target.join("release").join("ftbb-noded");
    if !path.is_file() {
        return Err(format!("cargo succeeded but {} is missing", path.display()));
    }
    Ok(Noded { path, build_s })
}

/// How a cluster workload wires and disturbs its nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// One process, static membership.
    Solo,
    /// Two processes, static membership.
    Duo,
    /// Two processes in gossip mode at the daemon's default timing; node 1
    /// is SIGKILLed `kill_at` after wiring.
    Crash {
        /// Delay from wiring completion to the kill.
        kill_at: Duration,
    },
}

/// Node telemetry for a traced launch.
#[derive(Debug, Clone)]
pub struct NodeTrace {
    /// Directory for per-node JSONL traces.
    pub dir: PathBuf,
    /// `FTBB-METRICS` cadence, seconds.
    pub metrics_every_s: f64,
}

/// Per-node safety valve: far above any workload's run time, so it only
/// ever fires on a hang — which is then a counted failure.
const NODE_DEADLINE: Duration = Duration::from_secs(60);

/// The launcher spec of one cluster solve.
pub fn spec(
    noded: &Path,
    problem: &ProblemSpec,
    shape: Shape,
    seed: u64,
    trace: Option<&NodeTrace>,
) -> ClusterSpec {
    let (nodes, gossip, lifecycle) = match shape {
        Shape::Solo => (1, None, Vec::new()),
        Shape::Duo => (2, None, Vec::new()),
        Shape::Crash { kill_at } => (
            2,
            Some(GossipTiming::default()),
            vec![LifecycleEvent::kill(1, kill_at)],
        ),
    };
    ClusterSpec {
        noded: noded.to_path_buf(),
        nodes,
        lifecycle,
        crash_at: Vec::new(),
        problem: problem.clone(),
        wire_peers: false,
        service: false,
        jobs: Vec::new(),
        gossip,
        checkpoint_dir: None,
        checkpoint_every_s: 0.5,
        trace_dir: trace.map(|t| t.dir.clone()),
        metrics_every_s: trace.map(|t| t.metrics_every_s),
        deadline: NODE_DEADLINE,
        seed,
        workers: 1,
    }
}

/// One successful cluster solve.
#[derive(Debug)]
pub struct Solved {
    /// Wall clock of the `launch` call: spawn, wiring, readiness barrier,
    /// solve, every survivor reporting its outcome.
    pub wall_s: f64,
    /// What the launcher collected.
    pub report: ClusterReport,
}

/// Launch `spec` and check the result against the sequential `optimum`.
/// `Err` is a failed operation with its reason: the launcher erred, a
/// survivor did not terminate, the optimum differs, or a planned kill did
/// not land mid-run.
pub fn solve(spec: &ClusterSpec, optimum: f64, spans: Option<&Recorder>) -> Result<Solved, String> {
    let _span = spans.map(|r| r.span("wire.launcher.launch"));
    let started = Instant::now();
    let report = launch(spec).map_err(|e| e.to_string())?;
    let wall_s = started.elapsed().as_secs_f64();
    if !report.all_survivors_terminated {
        return Err("a surviving node did not detect termination".to_string());
    }
    match report.best {
        Some(best) if best.to_bits() == optimum.to_bits() => {}
        other => {
            return Err(format!(
                "cluster optimum {other:?} differs from the sequential optimum {optimum}"
            ))
        }
    }
    let planned: Vec<u32> = spec
        .lifecycle
        .iter()
        .filter_map(|e| match *e {
            LifecycleEvent::Kill { node, .. } => Some(node),
            _ => None,
        })
        .collect();
    if report.killed != planned {
        return Err(format!(
            "planned kills {planned:?} but nodes {:?} died mid-run (the kill landed after the node finished)",
            report.killed
        ));
    }
    Ok(Solved { wall_s, report })
}

/// Polls `/proc` for this process's `ftbb-noded` children and keeps the
/// largest resident-set high-water mark seen (`VmHWM`). The mark only
/// grows, so catching a child once shortly before it exits is enough.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<f64>>,
}

/// Parse one `/proc/<pid>/status` text: `(name, ppid, VmHWM in kB)`.
pub fn parse_proc_status(text: &str) -> Option<(String, u32, u64)> {
    let field = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .map(|v| v.trim().to_string())
    };
    let name = field("Name:")?;
    let ppid = field("PPid:")?.parse().ok()?;
    let hwm_kb = field("VmHWM:")?.split_whitespace().next()?.parse().ok()?;
    Some((name, ppid, hwm_kb))
}

impl RssSampler {
    /// Start polling every 100 ms.
    pub fn start() -> RssSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let me = std::process::id();
        let thread = std::thread::spawn(move || {
            let mut peak_kb = 0u64;
            while !flag.load(Ordering::Relaxed) {
                let Ok(entries) = std::fs::read_dir("/proc") else {
                    break;
                };
                for entry in entries.flatten() {
                    let name = entry.file_name();
                    if !name.to_string_lossy().bytes().all(|b| b.is_ascii_digit()) {
                        continue;
                    }
                    let Ok(text) = std::fs::read_to_string(entry.path().join("status")) else {
                        continue;
                    };
                    if let Some((comm, ppid, hwm_kb)) = parse_proc_status(&text) {
                        if ppid == me && comm.starts_with("ftbb-noded") {
                            peak_kb = peak_kb.max(hwm_kb);
                        }
                    }
                }
                std::thread::sleep(Duration::from_millis(100));
            }
            peak_kb as f64 / 1024.0
        });
        RssSampler {
            stop,
            thread: Some(thread),
        }
    }

    /// Stop polling; the peak in MiB (0 when `/proc` is unreadable).
    pub fn finish(mut self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        self.thread
            .take()
            .and_then(|t| t.join().ok())
            .unwrap_or(0.0)
    }
}

impl Drop for RssSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The last `FTBB-METRICS` snapshot of every node that reported one: the
/// engine prints a final snapshot at exit, so for a survivor this is its
/// whole life.
pub fn last_snapshots(report: &ClusterReport) -> Vec<&ParsedMetrics> {
    report.metrics.iter().filter_map(|s| s.last()).collect()
}

/// The Figure-3 phase clock summed over `snaps` (one snapshot per node):
/// the seven categories plus what they leave of elapsed time.
pub fn phase_metrics(snaps: &[&ParsedMetrics]) -> Vec<(&'static str, f64)> {
    let sum = |f: &dyn Fn(&ParsedMetrics) -> f64| snaps.iter().map(|m| f(m)).sum::<f64>();
    vec![
        ("core.phase.expand_s", sum(&|m| m.phase.expand_s)),
        ("core.phase.communicate_s", sum(&|m| m.phase.communicate_s)),
        ("core.phase.contract_s", sum(&|m| m.phase.contract_s)),
        (
            "core.phase.load_balance_s",
            sum(&|m| m.phase.load_balance_s),
        ),
        ("core.phase.membership_s", sum(&|m| m.phase.membership_s)),
        ("core.phase.idle_s", sum(&|m| m.phase.idle_s)),
        ("core.phase.checkpoint_s", sum(&|m| m.phase.checkpoint_s)),
        (
            "core.phase.unaccounted_s",
            sum(&|m| m.elapsed_s - m.phase.total()),
        ),
    ]
}

/// Share of the nodes' elapsed time the phase clock accounts for (1.0 =
/// the categories sum to elapsed exactly).
pub fn phase_reconciliation(snaps: &[&ParsedMetrics]) -> f64 {
    let elapsed: f64 = snaps.iter().map(|m| m.elapsed_s).sum();
    let accounted: f64 = snaps.iter().map(|m| m.phase.total()).sum();
    if elapsed > 0.0 {
        accounted / elapsed
    } else {
        0.0
    }
}

/// Seconds from the first timeline event of kind `from` to the first of
/// kind `to` at or after it.
fn gap_s(timeline: &[TraceEvent], from: &str, to: &str) -> Option<f64> {
    let start = timeline.iter().find(|e| e.kind == from)?.t_us;
    let end = timeline
        .iter()
        .find(|e| e.kind == to && e.t_us >= start)?
        .t_us;
    Some((end - start) as f64 / 1e6)
}

/// Per-layer metrics of one *traced* launch (node telemetry on), summed
/// over surviving nodes: the Figure-3 phase clock, protocol counters,
/// transport counters, launcher overhead and the recovery gaps.
pub fn layer_metrics(solved: &Solved, seq_expansions: u64) -> Vec<(&'static str, f64)> {
    let report = &solved.report;
    let snaps = last_snapshots(report);
    let outcomes: Vec<_> = report.outcomes.iter().flatten().collect();
    let total = |f: &dyn Fn(&ftbb_wire::ParsedOutcome) -> u64| {
        outcomes.iter().map(|o| f(o)).sum::<u64>() as f64
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let longest = snaps.iter().map(|m| m.elapsed_s).fold(0.0, f64::max);
    let expanded = total(&|o| o.expanded);
    let membership_frames = total(&|o| o.transport.membership_frames_sent);
    let kill_at = report
        .timeline
        .iter()
        .find(|e| e.kind == "kill")
        .zip(report.timeline.iter().find(|e| e.kind == "engine_start"))
        .map(|(kill, start)| (kill.t_us as f64 - start.t_us as f64) / 1e6);

    let mut values = phase_metrics(&snaps);
    values.extend([
        ("core.process.expanded", expanded),
        (
            "core.process.expanded_vs_sequential",
            ratio(expanded, seq_expansions as f64),
        ),
        ("core.process.pruned_at_pop", total(&|o| o.pruned_at_pop)),
        ("core.process.recoveries", total(&|o| o.recoveries)),
        (
            "core.process.bound_broadcasts",
            total(&|o| o.bound_broadcasts),
        ),
        ("wire.tcp.frames_sent", total(&|o| o.transport.sent)),
        (
            "wire.tcp.wire_bytes",
            total(&|o| o.transport.sent_wire_bytes),
        ),
        (
            "wire.tcp.frames_per_flush",
            ratio(
                total(&|o| o.transport.frames_flushed),
                total(&|o| o.transport.flushes),
            ),
        ),
        ("wire.tcp.dropped", total(&|o| o.transport.dropped())),
        ("wire.tcp.retried", total(&|o| o.transport.retried)),
        ("wire.launcher.startup_s", solved.wall_s - longest),
        ("wire.launcher.kill_at_s", kill_at.unwrap_or(0.0)),
        (
            "wire.launcher.kill_to_suspect_s",
            gap_s(&report.timeline, "kill", "suspect").unwrap_or(0.0),
        ),
        (
            "wire.launcher.suspect_to_recovery_s",
            gap_s(&report.timeline, "suspect", "recovery").unwrap_or(0.0),
        ),
        ("gossip.membership.frames_sent", membership_frames),
        (
            "gossip.membership.digest_entries_per_frame",
            ratio(
                total(&|o| o.transport.digest_entries_sent),
                membership_frames,
            ),
        ),
        ("gossip.membership.suspected", total(&|o| o.suspected)),
    ]);
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbb_bnb::Correlation;
    use ftbb_wire::{parse_metrics_line, parse_outcome_line, KnapsackSpec};

    fn event(t_us: u64, kind: &str) -> TraceEvent {
        TraceEvent {
            t_us,
            node: 0,
            incarnation: 0,
            job: 0,
            kind: kind.to_string(),
            fields: Vec::new(),
        }
    }

    #[test]
    fn spec_shapes() {
        let problem = ProblemSpec::Knapsack(KnapsackSpec {
            n: 10,
            range: 30,
            correlation: Correlation::Strong,
            frac: 0.5,
            seed: 4,
        });
        let solo = spec(Path::new("x"), &problem, Shape::Solo, 9, None);
        assert_eq!((solo.nodes, solo.seed), (1, 9));
        assert!(solo.gossip.is_none() && solo.lifecycle.is_empty() && solo.trace_dir.is_none());
        let trace = NodeTrace {
            dir: PathBuf::from("t"),
            metrics_every_s: 0.25,
        };
        let kill_at = Duration::from_millis(300);
        let crash = spec(
            Path::new("x"),
            &problem,
            Shape::Crash { kill_at },
            9,
            Some(&trace),
        );
        assert_eq!(crash.nodes, 2);
        assert_eq!(crash.gossip, Some(GossipTiming::default()));
        assert_eq!(crash.lifecycle, vec![LifecycleEvent::kill(1, kill_at)]);
        assert_eq!(crash.metrics_every_s, Some(0.25));
        assert_eq!(crash.problem, problem);
    }

    #[test]
    fn proc_status_fields() {
        let text = "Name:\tftbb-noded\nUmask:\t0022\nPPid:\t4242\nVmPeak:\t  9000 kB\nVmHWM:\t    5120 kB\n";
        assert_eq!(
            parse_proc_status(text),
            Some(("ftbb-noded".to_string(), 4242, 5120))
        );
        assert_eq!(parse_proc_status("Name:\tkthreadd\nPPid:\t0\n"), None);
    }

    #[test]
    fn timeline_gaps() {
        let timeline = vec![
            event(1_000_000, "engine_start"),
            event(1_100_000, "suspect"),
            event(1_300_000, "kill"),
            event(1_800_000, "suspect"),
            event(2_050_000, "recovery"),
        ];
        assert_eq!(gap_s(&timeline, "kill", "suspect"), Some(0.5));
        assert_eq!(gap_s(&timeline, "suspect", "recovery"), Some(0.95));
        assert_eq!(gap_s(&timeline, "kill", "join"), None);
    }

    /// The `FTBB-*` plumbing the per-layer table rests on: lines rendered
    /// the way the daemon renders them come back through the launcher's
    /// parsers and add up as documented.
    #[test]
    fn layer_metrics_sum_survivors_from_ftbb_lines() {
        let metrics = |id: u32, elapsed: f64, expand: f64, idle: f64| {
            parse_metrics_line(&format!(
                "FTBB-METRICS id={id} job=0 incarnation=0 seq=3 elapsed_s={elapsed} expand_s={expand} \
                 communicate_s=0.1 contract_s=0.05 load_balance_s=0 membership_s=0 idle_s={idle} \
                 checkpoint_s=0 expanded=10 pruned_at_pop=0 recoveries=0 suspected=0 forgotten=0 \
                 bound_bcast=0 bound_coalesced=0 bound_suppressed=0 mev_dropped=0 trace_dropped=0 \
                 workers=1 sent=5 dropped=0 flushes=2 frames_flushed=5 frames_per_flush=2.50 \
                 membership_frames=0 book_entries=0 digest_entries=0 book_per_frame=0.00 bound_frames=0"
            ))
            .expect("metrics line parses")
        };
        let outcome = |id: u32, expanded: u64, sent: u64| {
            parse_outcome_line(&format!(
                "FTBB-OUTCOME id={id} incarnation=0 terminated=true incumbent_bits=0xc059000000000000 \
                 incumbent=-100 expanded={expanded} pruned_at_pop=3 recoveries=1 suspected=1 forgotten=0 \
                 bound_bcast=2 bound_coalesced=0 bound_suppressed=0 mev_dropped=0 trace_dropped=0 \
                 workers=1 sent={sent} wire_bytes=900 encoded_bytes=800 dropped_full=1 \
                 dropped_disconnected=2 dropped_no_route=0 dropped_startup=0 dropped_stale=0 retried=4 \
                 connect_waits=0 reconnects=0 announces_sent=0 announces_recv=0 rejoins=0 joins=0 \
                 discovered=0 flushes=10 frames_flushed=30 membership_frames=6 book_entries=6 \
                 digest_entries=12 bound_frames=2"
            ))
            .expect("outcome line parses")
        };
        let report = ClusterReport {
            outcomes: vec![Some(outcome(0, 700, 40)), Some(outcome(1, 500, 20))],
            killed: Vec::new(),
            best: Some(-100.0),
            all_survivors_terminated: true,
            metrics: vec![
                vec![metrics(0, 0.5, 0.2, 0.0), metrics(0, 1.0, 0.6, 0.2)],
                vec![metrics(1, 0.9, 0.5, 0.2)],
            ],
            timeline: vec![event(10, "engine_start"), event(400_010, "kill")],
            jobs: Vec::new(),
            job_lines: vec![Vec::new(), Vec::new()],
            services: vec![None, None],
        };
        let solved = Solved {
            wall_s: 1.25,
            report,
        };
        let m: std::collections::HashMap<_, _> = layer_metrics(&solved, 1000).into_iter().collect();
        let close = |name: &str, want: f64| {
            assert!(
                (m[name] - want).abs() < 1e-9,
                "{name}: {} != {want}",
                m[name]
            );
        };
        close("core.phase.expand_s", 1.1);
        close("core.phase.idle_s", 0.4);
        // elapsed 1.9, accounted 1.1 + 0.2 + 0.1 + 0.4 = 1.8.
        close("core.phase.unaccounted_s", 0.1);
        close("core.process.expanded", 1200.0);
        close("core.process.expanded_vs_sequential", 1.2);
        close("core.process.recoveries", 2.0);
        close("wire.tcp.frames_sent", 60.0);
        close("wire.tcp.frames_per_flush", 3.0);
        close("wire.tcp.dropped", 6.0);
        close("wire.tcp.retried", 8.0);
        close("wire.launcher.startup_s", 0.25);
        close("wire.launcher.kill_at_s", 0.4);
        close("wire.launcher.kill_to_suspect_s", 0.0);
        close("gossip.membership.digest_entries_per_frame", 2.0);
        assert!((phase_reconciliation(&last_snapshots(&solved.report)) - 1.8 / 1.9).abs() < 1e-9);
    }
}
