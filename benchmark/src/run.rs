//! One benchmark run: set a workload up from its seed, measure it for the
//! requested time, check every result, and report metrics.
//!
//! An untraced run (`trace = false`) produces the end-to-end metrics with
//! node telemetry off. A traced run repeats the workload with telemetry
//! on, calls each layer's public functions on the workload's own inputs
//! under spans, and produces the per-layer metrics; the gap between the
//! two is `wire.noded.trace_overhead_ratio`.

use crate::cluster::{self, NodeTrace, Noded, Shape, Solved};
use crate::des;
use crate::instances::{self, Band, Instance};
use crate::probes;
use crate::service::{self, JobKind, Pool, Stream};
use crate::spans::Recorder;
use crate::stats;
use crate::workloads::{MetricDef, Scale, Workload, END_TO_END, JOB_KINDS, PER_LAYER};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One reported metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Its declaration.
    pub def: MetricDef,
    /// The measured value.
    pub value: f64,
}

/// What one run produced.
#[derive(Debug, Clone)]
pub struct Record {
    /// The workload.
    pub workload: Workload,
    /// The benchmark seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Operations attempted (cluster solves, jobs, simulator runs).
    pub attempted: u64,
    /// Why each failed operation failed (one entry per failure).
    pub failures: Vec<String>,
    /// Every end-to-end metric (untraced) or per-layer metric (traced).
    pub metrics: Vec<Metric>,
    /// Free-form facts about the inputs: chosen instance seeds, expansion
    /// counts, search cost, kill time.
    pub info: Vec<(String, String)>,
}

impl Record {
    /// Operations that failed.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// The run is correct when something ran and nothing failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failures.is_empty()
    }

    /// Value of metric `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.def.name == name)
            .map(|m| m.value)
    }
}

/// Options of one run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The benchmark seed: instances, protocol randomness, job order,
    /// simulator seed and crash victims all derive from it.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub traced: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// Cadence of `FTBB-METRICS` snapshots in traced launches.
const METRICS_EVERY_S: f64 = 0.25;

/// Fraction of the measured duo time at which `crash_knap` kills node 1
/// (the paper's Figure-6 schedule: a share of the failure-free time).
const KILL_FRACTION: f64 = 0.30;

/// Tally of operations with the reasons of the failed ones.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
}

impl Tally {
    fn record<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                eprintln!("benchmark: operation {} failed: {e}", self.attempted);
                self.failures.push(e);
                None
            }
        }
    }
}

fn metrics_from(defs: &[MetricDef], values: &[(&str, f64)]) -> Vec<Metric> {
    for (name, _) in values {
        debug_assert!(
            defs.iter().any(|d| d.name == *name),
            "{name} is not a declared metric"
        );
    }
    defs.iter()
        .map(|&def| Metric {
            def,
            // Later entries win: a workload-specific value replaces the
            // generic one collected earlier.
            value: values
                .iter()
                .rev()
                .find(|(n, _)| *n == def.name)
                .map_or(0.0, |&(_, v)| v),
        })
        .collect()
}

fn median(values: &[f64]) -> f64 {
    stats::median(values).unwrap_or(0.0)
}

/// Time `passes` executions of `pass`; the median duration is `setup_s`,
/// the last pass's product is kept.
fn setup_passes<T>(
    passes: usize,
    mut pass: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..passes.max(1) {
        let started = Instant::now();
        // Drop the previous product first: a pool must be torn down
        // before its replacement is timed.
        drop(last.take());
        last = Some(pass()?);
        times.push(started.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one pass"), median(&times)))
}

fn search(
    band: &Band,
    seed: u64,
    label: &str,
    info: &mut Vec<(String, String)>,
) -> Result<Instance, String> {
    let started = Instant::now();
    let instance = instances::search(band, seed)?;
    info.push((
        format!("instance.{label}"),
        format!(
            "seed {} ({} sequential depth-first expansions, optimum {}, candidate {} of the search, {:.3} s)",
            instance.instance_seed,
            instance.stats.expanded,
            instance.optimum,
            instance.candidates,
            started.elapsed().as_secs_f64()
        ),
    ));
    Ok(instance)
}

/// Materialise the instance from its spec and solve it sequentially: the
/// reference every operation is checked against, rebuilt the way a fresh
/// process would.
fn reference_pass(instance: &Instance) -> Result<(), String> {
    let any = instance.spec.instance().map_err(|e| e.to_string())?;
    let solved = instances::reference(&any, None);
    if solved.best != Some(instance.optimum) || solved.stats.expanded != instance.stats.expanded {
        return Err(format!(
            "the reference solve of instance seed {} does not repeat",
            instance.instance_seed
        ));
    }
    Ok(())
}

/// Run one workload once.
pub fn run(noded: &Noded, opts: &Options) -> Result<Record, String> {
    let mut info = vec![(
        "operation".to_string(),
        opts.workload.operation().to_string(),
    )];
    let spans = Recorder::new(format!("{}#{}", opts.workload.name(), opts.seed));
    let (tally, values) = match opts.workload {
        Workload::SoloKnap | Workload::DuoKnap | Workload::CrashKnap | Workload::SoloMaxsat => {
            run_cluster(noded, opts, &spans, &mut info)?
        }
        Workload::ServiceMix => run_service(noded, opts, &spans, &mut info)?,
        Workload::Des100p => run_des(opts, &spans, &mut info)?,
    };
    if opts.traced {
        let dir = cluster::results_dir();
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let path = dir.join(format!("trace-{}.jsonl", opts.workload.name()));
        std::fs::write(&path, spans.jsonl()).map_err(|e| e.to_string())?;
        eprint!("{}", spans.table());
        info.push(("spans".to_string(), path.display().to_string()));
    }
    let defs: &[MetricDef] = if opts.traced { &PER_LAYER } else { &END_TO_END };
    Ok(Record {
        workload: opts.workload,
        seed: opts.seed,
        traced: opts.traced,
        attempted: tally.attempted,
        failures: tally.failures,
        metrics: metrics_from(defs, &values),
        info,
    })
}

/// The benchmark's timing statistic: the mean, over a run's distinct
/// inputs, of each input's median operation time. One input (a cluster
/// workload's instance) makes it a plain median; several (the job kinds of
/// `service_mix`, the simulated systems of `des_100p`) keep it from
/// sitting on the boundary between two inputs' time ranges.
fn mean_of_medians(groups: &[Vec<f64>]) -> f64 {
    let medians: Vec<f64> = groups.iter().filter_map(|g| stats::median(g)).collect();
    if medians.is_empty() {
        0.0
    } else {
        medians.iter().sum::<f64>() / medians.len() as f64
    }
}

/// End-to-end metrics of a run. `groups` are the successful operations'
/// durations per distinct input; `busy_s` is the time they kept the system
/// busy (their sum when sequential, the stream's wall when concurrent).
fn end_to_end(groups: &[Vec<f64>], busy_s: f64, setup_s: f64) -> Values {
    let completed: usize = groups.iter().map(Vec::len).sum();
    vec![
        ("time_to_optimum_s", mean_of_medians(groups)),
        (
            "solves_per_s",
            if busy_s > 0.0 {
                completed as f64 / busy_s
            } else {
                0.0
            },
        ),
        ("setup_s", setup_s),
    ]
}

type Values = Vec<(&'static str, f64)>;

fn scratch_dir(opts: &Options, what: &str) -> PathBuf {
    cluster::results_dir().join(format!(
        "scratch-{}-{}-{what}",
        opts.workload.name(),
        std::process::id()
    ))
}

fn run_cluster(
    noded: &Noded,
    opts: &Options,
    spans: &Recorder,
    info: &mut Vec<(String, String)>,
) -> Result<(Tally, Values), String> {
    let band = match opts.workload {
        Workload::SoloMaxsat => opts.scale.maxsat,
        _ => opts.scale.knap,
    };
    let instance = search(&band, opts.seed, "cluster", info)?;
    // Times are scaled to the band's nominal tree size, so two seeds whose
    // instances sit at opposite ends of the band report comparable times.
    let to_nominal = if opts.workload.time_follows_tree_size() {
        band.nominal() / instance.stats.expanded as f64
    } else {
        1.0
    };
    info.push((
        "time_scale".to_string(),
        format!("{to_nominal:.4} (nominal {} expansions)", band.nominal()),
    ));

    // Set-up: reference solve, and for the crash workload one failure-free
    // duo solve per pass to place the kill at a fraction of its time.
    let mut calibration = Vec::new();
    let ((), setup_s) = setup_passes(opts.scale.setup_passes, || {
        reference_pass(&instance)?;
        if opts.workload == Workload::CrashKnap {
            let spec = cluster::spec(&noded.path, &instance.spec, Shape::Duo, opts.seed, None);
            calibration.push(cluster::solve(&spec, instance.optimum, None)?.wall_s);
        }
        Ok(())
    })?;
    let shape = match opts.workload {
        Workload::SoloKnap | Workload::SoloMaxsat => Shape::Solo,
        Workload::DuoKnap => Shape::Duo,
        _ => {
            let kill_at = Duration::from_secs_f64(KILL_FRACTION * median(&calibration));
            info.push((
                "kill_at".to_string(),
                format!(
                    "{:.3} s after wiring = {KILL_FRACTION} x median failure-free duo time over {} calibration solves",
                    kill_at.as_secs_f64(),
                    calibration.len()
                ),
            ));
            Shape::Crash { kill_at }
        }
    };

    let mut tally = Tally::default();
    let budget = Duration::from_secs_f64(opts.seconds);
    let started = Instant::now();
    if !opts.traced {
        let spec = cluster::spec(&noded.path, &instance.spec, shape, opts.seed, None);
        let mut times = Vec::new();
        while tally.attempted == 0 || started.elapsed() < budget {
            if let Some(solved) = tally.record(cluster::solve(&spec, instance.optimum, None)) {
                times.push(solved.wall_s * to_nominal);
            }
        }
        info.push(("samples_s".to_string(), format!("{times:.3?}")));
        let busy_s = times.iter().sum();
        return Ok((tally, end_to_end(&[times], busy_s, setup_s)));
    }

    // Traced: alternate untraced and traced solves for half the budget,
    // then probe the layers on this instance.
    let trace = NodeTrace {
        dir: scratch_dir(opts, "trace"),
        metrics_every_s: METRICS_EVERY_S,
    };
    let plain = cluster::spec(&noded.path, &instance.spec, shape, opts.seed, None);
    let traced = cluster::spec(&noded.path, &instance.spec, shape, opts.seed, Some(&trace));
    let (mut plain_times, mut traced_solves): (Vec<f64>, Vec<Solved>) = (Vec::new(), Vec::new());
    let sampler = cluster::RssSampler::start();
    while tally.attempted == 0 || started.elapsed() < budget / 2 {
        if let Some(s) = tally.record(cluster::solve(&plain, instance.optimum, None)) {
            plain_times.push(s.wall_s);
        }
        // Each traced solve starts from empty trace files: the daemon
        // appends, and a timeline must hold one solve.
        let _ = std::fs::remove_dir_all(&trace.dir);
        if let Some(s) = tally.record(cluster::solve(&traced, instance.optimum, Some(spans))) {
            traced_solves.push(s);
        }
    }
    let peak_rss_mb = sampler.finish();
    let _ = std::fs::remove_dir_all(&trace.dir);

    let mut values: Values = Vec::new();
    // Per metric, the median over the traced solves.
    let per_solve: Vec<Values> = traced_solves
        .iter()
        .map(|s| cluster::layer_metrics(s, instance.stats.expanded))
        .collect();
    if let Some(first) = per_solve.first() {
        for (i, &(name, _)) in first.iter().enumerate() {
            let column: Vec<f64> = per_solve.iter().map(|v| v[i].1).collect();
            values.push((name, median(&column)));
        }
    }
    let traced_times: Vec<f64> = traced_solves.iter().map(|s| s.wall_s).collect();
    if !plain_times.is_empty() && !traced_times.is_empty() {
        values.push((
            "wire.noded.trace_overhead_ratio",
            median(&traced_times) / median(&plain_times),
        ));
    }
    values.push(("wire.noded.peak_rss_mb", peak_rss_mb));
    let reconciled: Vec<f64> = traced_solves
        .iter()
        .map(|s| cluster::phase_reconciliation(&cluster::last_snapshots(&s.report)))
        .collect();
    info.push((
        "phase_reconciliation".to_string(),
        format!(
            "core.phase.* sums to {:.1} % of node elapsed (median over {} traced solves)",
            100.0 * median(&reconciled),
            reconciled.len()
        ),
    ));
    values.extend(probes::all(&instance.any, opts.seconds / 2.0, spans));
    Ok((tally, values))
}

/// The service pool's own lifetime beyond the run's measuring time: the
/// drop guard tears the pool down long before, and daemons orphaned by a
/// killed benchmark still exit on their own.
const POOL_GRACE_S: f64 = 120.0;

/// Pool size and closed-loop client count of `service_mix`: one of each
/// per core of the 2-core host the bounds were taken on.
const POOL_NODES: u32 = 2;
const CLIENTS: usize = 2;

struct ServiceSetup {
    pool: Pool,
    next_job: u64,
}

/// Successful latencies per job kind, each scaled to its kind's nominal
/// tree size.
fn latencies_by_kind(stream: &Stream, kinds: &[JobKind], bands: &[Band]) -> Vec<Vec<f64>> {
    let mut groups = vec![Vec::new(); kinds.len()];
    for s in stream.samples.iter().filter(|s| s.failure.is_none()) {
        let scale = bands[s.kind].nominal() / kinds[s.kind].instance.stats.expanded as f64;
        groups[s.kind].push(s.latency_s * scale);
    }
    groups
}

fn run_service(
    noded: &Noded,
    opts: &Options,
    spans: &Recorder,
    info: &mut Vec<(String, String)>,
) -> Result<(Tally, Values), String> {
    let bands = &opts.scale.jobs;
    let mut kinds = Vec::new();
    for (name, band) in JOB_KINDS.iter().zip(bands) {
        kinds.push(JobKind {
            name,
            instance: search(band, opts.seed, name, info)?,
        });
    }

    // Set-up: the four reference solves, pool spawn and wiring, and one
    // warm-up round so peer connections exist before anything is timed.
    let spawn = |trace: Option<&NodeTrace>| -> Result<ServiceSetup, String> {
        for k in &kinds {
            reference_pass(&k.instance)?;
        }
        let pool = Pool::spawn(
            &noded.path,
            POOL_NODES,
            opts.seed,
            opts.seconds + POOL_GRACE_S,
            trace,
        )?;
        let warm = service::run_stream(pool.addrs(), &kinds, 1, Duration::ZERO, opts.seed, 1);
        if let Some(bad) = warm.samples.iter().find_map(|s| s.failure.clone()) {
            return Err(format!("warm-up job failed: {bad}"));
        }
        Ok(ServiceSetup {
            pool,
            next_job: 1 + warm.samples.len() as u64,
        })
    };
    let (setup, setup_s) = setup_passes(opts.scale.setup_passes, || spawn(None))?;

    let mut tally = Tally::default();
    let mut note = |stream: &Stream| {
        for s in &stream.samples {
            tally.record(s.failure.clone().map_or(Ok(()), Err));
        }
    };
    let stream_on = |setup: &ServiceSetup, budget: Duration| {
        service::run_stream(
            setup.pool.addrs(),
            &kinds,
            CLIENTS,
            budget,
            opts.seed,
            setup.next_job,
        )
    };

    if !opts.traced {
        let stream = stream_on(&setup, Duration::from_secs_f64(opts.seconds));
        note(&stream);
        let groups = latencies_by_kind(&stream, &kinds, bands);
        info.push((
            "jobs".to_string(),
            format!(
                "{} latency samples, {CLIENTS} closed-loop clients; median scaled latency per kind: {}",
                groups.iter().map(Vec::len).sum::<usize>(),
                kinds
                    .iter()
                    .zip(&groups)
                    .map(|(k, g)| format!("{} {:.4} s", k.name, median(g)))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ));
        return Ok((tally, end_to_end(&groups, stream.wall_s, setup_s)));
    }

    // Traced: a third of the budget on the untraced pool, a third on a
    // pool with node telemetry, the rest on the probes.
    let third = Duration::from_secs_f64(opts.seconds / 3.0);
    let plain = stream_on(&setup, third);
    note(&plain);
    drop(setup);

    let trace = NodeTrace {
        dir: scratch_dir(opts, "trace"),
        metrics_every_s: METRICS_EVERY_S,
    };
    let _ = std::fs::remove_dir_all(&trace.dir);
    let traced_setup = spawn(Some(&trace))?;
    let sampler = cluster::RssSampler::start();
    let traced = {
        let span = spans.span("wire.submit.submit_job");
        let stream = stream_on(&traced_setup, third);
        span.set_calls(stream.samples.len() as u64);
        stream
    };
    note(&traced);
    // Followers print their FTBB-JOB line a moment after the gateway
    // answers its client; give the last ones time to land.
    std::thread::sleep(Duration::from_millis(300));
    let peak_rss_mb = sampler.finish();
    let (job_lines, snapshots) = traced_setup.pool.drain_lines();
    drop(traced_setup);
    let _ = std::fs::remove_dir_all(&trace.dir);

    let mut values: Values = Vec::new();
    let ok: Vec<&service::JobSample> = traced
        .samples
        .iter()
        .filter(|s| s.failure.is_none())
        .collect();
    let all: Vec<f64> = ok.iter().map(|s| s.latency_s).collect();
    for (i, name) in JOB_KINDS.iter().enumerate() {
        let def = PER_LAYER
            .iter()
            .find(|d| d.name.strip_prefix("service.job_p50_s.") == Some(name))
            .expect("declared per job kind");
        let of_kind: Vec<f64> = ok
            .iter()
            .filter(|s| s.kind == i)
            .map(|s| s.latency_s)
            .collect();
        values.push((def.name, median(&of_kind)));
    }
    values.push((
        "service.job_latency_p90_s",
        stats::percentile(&all, 90.0, 10).unwrap_or(0.0),
    ));
    info.push((
        "jobs".to_string(),
        format!(
            "{} traced latency samples ({} beyond p90; below 10 the p90 reads 0), {} untraced",
            all.len(),
            all.len() - (0.9 * all.len() as f64).ceil() as usize,
            plain.samples.len()
        ),
    ));
    // Pool-wide expansions of the timed jobs against their sequential
    // references, from the nodes' own FTBB-JOB lines.
    let kind_of: std::collections::HashMap<u64, usize> =
        ok.iter().map(|s| (s.job, s.kind)).collect();
    let pool_expanded: u64 = job_lines
        .iter()
        .flatten()
        .filter(|l| l.terminated && kind_of.contains_key(&l.job))
        .map(|l| l.expanded)
        .sum();
    let sequential: u64 = kind_of
        .values()
        .map(|&k| kinds[k].instance.stats.expanded)
        .sum();
    if sequential > 0 {
        let ratio = pool_expanded as f64 / sequential as f64;
        values.extend([
            ("service.expanded_vs_sequential", ratio),
            ("core.process.expanded", pool_expanded as f64),
            ("core.process.expanded_vs_sequential", ratio),
        ]);
    }
    // One pump per node serves every job, so any job's latest snapshot
    // carries the node's phase clock and transport totals.
    let latest: Vec<_> = snapshots
        .iter()
        .filter_map(|node| {
            node.iter()
                .max_by(|a, b| a.elapsed_s.total_cmp(&b.elapsed_s))
        })
        .collect();
    let sum =
        |f: &dyn Fn(&ftbb_wire::ParsedMetrics) -> f64| latest.iter().map(|m| f(m)).sum::<f64>();
    let flushes = sum(&|m| m.flushes as f64);
    values.extend(cluster::phase_metrics(&latest));
    values.extend([
        ("wire.tcp.frames_sent", sum(&|m| m.sent as f64)),
        ("wire.tcp.dropped", sum(&|m| m.dropped as f64)),
        (
            "wire.tcp.frames_per_flush",
            if flushes > 0.0 {
                sum(&|m| m.frames_flushed as f64) / flushes
            } else {
                0.0
            },
        ),
        ("wire.noded.peak_rss_mb", peak_rss_mb),
    ]);
    info.push((
        "phase_reconciliation".to_string(),
        format!(
            "core.phase.* sums to {:.1} % of node elapsed",
            100.0 * cluster::phase_reconciliation(&latest)
        ),
    ));
    // Same statistic as the end-to-end time, traced over untraced.
    let plain_time = mean_of_medians(&latencies_by_kind(&plain, &kinds, bands));
    if plain_time > 0.0 {
        values.push((
            "wire.noded.trace_overhead_ratio",
            mean_of_medians(&latencies_by_kind(&traced, &kinds, bands)) / plain_time,
        ));
    }
    values.extend(probes::all(
        &kinds[0].instance.any,
        opts.seconds / 3.0,
        spans,
    ));
    Ok((tally, values))
}

fn run_des(
    opts: &Options,
    spans: &Recorder,
    info: &mut Vec<(String, String)>,
) -> Result<(Tally, Values), String> {
    let size = opts.scale.des;
    let (inputs, setup_s) = setup_passes(opts.scale.setup_passes, || {
        des::inputs(size, opts.seed, size.systems)
    })?;
    info.push((
        "des".to_string(),
        format!(
            "{} systems (sub-seeds {}..) of {} simulated processes, {}-node trees, {} crashes each",
            inputs.len(),
            inputs[0].cfg.seed,
            size.procs,
            size.tree_nodes,
            size.crashes
        ),
    ));
    let mut tally = Tally::default();
    let budget = Duration::from_secs_f64(if opts.traced {
        opts.seconds / 2.0
    } else {
        opts.seconds
    });
    let started = Instant::now();
    // Round-robin over the systems until time is up and each has run once.
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); inputs.len()];
    let mut first: Vec<Option<ftbb_sim::RunReport>> = vec![None; inputs.len()];
    let mut turn = 0;
    while turn < inputs.len() || started.elapsed() < budget {
        let i = turn % inputs.len();
        turn += 1;
        let outcome = {
            let _span = opts.traced.then(|| spans.span("sim.run_sim"));
            des::run(&inputs[i])
        };
        // Virtual time is a count: it must repeat exactly for an input.
        let outcome = outcome.and_then(|(report, wall_s)| match &first[i] {
            Some(f) if f.exec_time != report.exec_time => Err(format!(
                "system {i}: sim exec time {:?} does not repeat ({:?} before)",
                report.exec_time, f.exec_time
            )),
            _ => Ok((report, wall_s)),
        });
        if let Some((report, wall_s)) = tally.record(outcome) {
            walls[i].push(wall_s);
            first[i].get_or_insert(report);
        }
    }
    if !opts.traced {
        let busy_s = walls.iter().flatten().sum();
        return Ok((tally, end_to_end(&walls, busy_s, setup_s)));
    }
    let runs: Vec<(&des::Input, &ftbb_sim::RunReport, f64)> = inputs
        .iter()
        .zip(&first)
        .zip(&walls)
        .filter_map(|((input, report), walls)| Some((input, report.as_ref()?, median(walls))))
        .collect();
    let mut values = des::layer_metrics(&runs);
    // The probes take the first system's tree as a recorded-tree instance.
    let recorded: ftbb_bnb::AnyInstance = (*inputs[0].tree).clone().into();
    values.extend(probes::all(&recorded, opts.seconds / 2.0, spans));
    Ok((tally, values))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_cover_every_declared_name_and_later_values_win() {
        let m = metrics_from(
            &PER_LAYER,
            &[
                ("core.process.expanded", 5.0),
                ("sim.efficiency", 0.5),
                ("core.process.expanded", 7.0),
            ],
        );
        assert_eq!(m.len(), PER_LAYER.len());
        let get = |name: &str| m.iter().find(|x| x.def.name == name).unwrap().value;
        assert_eq!(get("core.process.expanded"), 7.0);
        assert_eq!(get("sim.efficiency"), 0.5);
        assert_eq!(get("wire.tcp.dropped"), 0.0);
    }

    #[test]
    fn setup_passes_report_the_median_and_keep_the_last_product() {
        let mut n = 0;
        let (last, setup_s) = setup_passes(3, || {
            n += 1;
            std::thread::sleep(Duration::from_millis(2 * n));
            Ok(n)
        })
        .unwrap();
        assert_eq!(last, 3);
        assert!((0.004..0.006).contains(&setup_s), "{setup_s}");
        assert!(setup_passes(2, || Err::<(), _>("no".to_string())).is_err());
    }

    #[test]
    fn tally_counts_failures_with_reasons() {
        let mut t = Tally::default();
        assert_eq!(t.record(Ok(1)), Some(1));
        assert_eq!(t.record::<i32>(Err("boom".into())), None);
        assert_eq!((t.attempted, t.failures.len()), (2, 1));
        let r = Record {
            workload: Workload::SoloKnap,
            seed: 1,
            traced: false,
            attempted: t.attempted,
            failures: t.failures,
            metrics: metrics_from(&END_TO_END, &[("setup_s", 0.5)]),
            info: Vec::new(),
        };
        assert!(!r.correct());
        assert_eq!(r.value("setup_s"), Some(0.5));
        assert_eq!(r.value("nope"), None);
    }
}
