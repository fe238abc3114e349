//! Loopback cluster launcher: spawn one `ftbb-noded` OS process per node,
//! execute a **lifecycle plan** (SIGKILLs and checkpoint restarts)
//! mid-run, and collect the outcomes.
//!
//! This is the crate's reason to exist: the paper's fault-tolerance claim
//! exercised against *real* process death. A SIGKILLed node flushes
//! nothing, closes its sockets mid-frame, and leaves its last work grant
//! unreported — exactly the failure the complement-recovery mechanism
//! (§5.3.2) must absorb. The lifecycle plan adds the paper's target
//! environment's other half — nodes *returning*: a killed node can be
//! restarted from its checkpoint (`--resume`), rejoin the live cluster
//! under a new incarnation, and contribute expansions again.
//!
//! Wiring is race-free: every node is spawned with `--listen 127.0.0.1:0
//! --peers-from-stdin`, binds its own port, and announces it on a
//! machine-parseable `FTBB-READY` line; the launcher collects the lines
//! and writes the full peer map back over each node's stdin. No port is
//! ever reserved-then-released (the old `allocate_ports` race), and the
//! lifecycle clock starts only once every node has been wired. Restarts
//! rebind the node's *original* address (its peers keep their rosters),
//! and hold the `start` release for [`REJOIN_SETTLE`] — the rebound
//! listener sits silent, like a slow workstation coming back, while
//! peers' traffic addressed to the previous incarnation lands and is
//! counted off as stale.

use crate::config::{NodeConfig, ProblemSpec};
use crate::noded::{
    parse_job_line, parse_metrics_line, parse_outcome_line, parse_ready_line, parse_service_line,
    ParsedJob, ParsedMetrics, ParsedOutcome, ParsedService,
};
use crate::submit::{submit_job, SubmitOutcome};
use ftbb_core::{JobId, TraceEvent};
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// One step of a cluster's lifecycle plan, timed from wiring completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleEvent {
    /// SIGKILL the node: no cleanup, no flush, sockets die mid-frame.
    Kill {
        /// The node to kill.
        node: u32,
        /// Delay from wiring completion.
        at: Duration,
    },
    /// Restart a previously killed node from its checkpoint
    /// (`--resume`): it rebinds its original address, restores every
    /// `node-<id>-job-*.ckpt`, and rejoins under the next incarnation.
    /// Requires [`ClusterSpec::checkpoint_dir`].
    Restart {
        /// The node to restart.
        node: u32,
        /// Delay from wiring completion.
        at: Duration,
    },
    /// Spawn a brand-new node mid-run that was never part of any peer
    /// wiring: it starts with `--join --gossip-servers 0=<addr0>` and
    /// enters the live cluster through the elastic-join handshake.
    /// Requires [`ClusterSpec::gossip`]; `node` must be the next unused
    /// id (`nodes + number of prior joins`).
    Join {
        /// The id the joining node takes.
        node: u32,
        /// Delay from wiring completion.
        at: Duration,
    },
}

impl LifecycleEvent {
    /// A kill step.
    pub fn kill(node: u32, at: Duration) -> LifecycleEvent {
        LifecycleEvent::Kill { node, at }
    }

    /// A restart-from-checkpoint step.
    pub fn restart(node: u32, at: Duration) -> LifecycleEvent {
        LifecycleEvent::Restart { node, at }
    }

    /// An elastic-join step (a brand-new node enters mid-run).
    pub fn join(node: u32, at: Duration) -> LifecycleEvent {
        LifecycleEvent::Join { node, at }
    }

    fn at(&self) -> Duration {
        match *self {
            LifecycleEvent::Kill { at, .. }
            | LifecycleEvent::Restart { at, .. }
            | LifecycleEvent::Join { at, .. } => at,
        }
    }
}

/// Membership timing for a gossip-mode cluster (`ClusterSpec::gossip`).
/// Node 0 acts as the gossip server; every node gets these knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GossipTiming {
    /// Heartbeat gossip tick interval, seconds.
    pub interval_s: f64,
    /// Silence before suspicion (`t_fail`), seconds.
    pub suspect_s: f64,
    /// Suspicion before cleanup (`t_cleanup`), seconds.
    pub forget_s: f64,
}

impl Default for GossipTiming {
    /// The daemon's own defaults ([`crate::NodeConfig::default`]) — one
    /// source, so launcher-driven clusters and hand-started nodes cannot
    /// drift apart.
    fn default() -> Self {
        let d = NodeConfig::default();
        GossipTiming {
            interval_s: d.gossip_interval_s,
            suspect_s: d.suspect_after_s,
            forget_s: d.forget_after_s,
        }
    }
}

/// One step of a service cluster's **job stream**: submit `problem` as
/// job `job` to pool node `to` at `at` (timed from wiring completion,
/// same clock as the lifecycle plan — so kills, restarts, and
/// submissions interleave on one timeline). Requires
/// [`ClusterSpec::service`].
#[derive(Debug, Clone)]
pub struct JobStep {
    /// The job id (positive; 0 is reserved for single-run nodes).
    pub job: u64,
    /// Delay from wiring completion.
    pub at: Duration,
    /// The pool node to submit through (the job's gateway).
    pub to: u32,
    /// The problem to submit (materialized client-side and shipped as a
    /// `SubmitJob` frame; `ProblemSpec::Wire` is meaningless here).
    pub problem: ProblemSpec,
    /// How long the submitting client waits for the final result.
    pub timeout: Duration,
}

impl JobStep {
    /// A submission step with the default 60 s client timeout.
    pub fn submit(job: u64, at: Duration, to: u32, problem: ProblemSpec) -> JobStep {
        JobStep {
            job,
            at,
            to,
            problem,
            timeout: Duration::from_secs(60),
        }
    }
}

/// What one job-stream submission produced, from the client's vantage.
#[derive(Debug)]
pub struct JobReport {
    /// The job id.
    pub job: u64,
    /// The pool node it was submitted through.
    pub to: u32,
    /// The streamed outcome, or the client-side error (connection
    /// refused, timeout, corrupt stream) as text.
    pub result: Result<SubmitOutcome, String>,
}

/// How long a restarted node's bound-but-silent listener lingers before
/// the launcher releases it with `start`: the settle window in which
/// peers' traffic tagged for the previous incarnation piles into the
/// backlog and is then counted off as stale — the slow-rejoining
/// workstation of the paper's adaptive-pool environment, made
/// reproducible.
pub const REJOIN_SETTLE: Duration = Duration::from_millis(300);

/// A loopback cluster to launch.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Path to the `ftbb-noded` binary (tests use
    /// `env!("CARGO_BIN_EXE_ftbb-noded")`).
    pub noded: PathBuf,
    /// Number of nodes.
    pub nodes: u32,
    /// Lifecycle plan: kills and checkpoint restarts, executed in time
    /// order once every node has its peer map.
    pub lifecycle: Vec<LifecycleEvent>,
    /// Config-driven crash plan: `(node, seconds after its start)` —
    /// passed to the node as `--crash-at-s`, so the process `abort()`s
    /// itself instead of being killed externally.
    pub crash_at: Vec<(u32, f64)>,
    /// The shared problem (any kind — the launcher renders it as the
    /// matching `--problem*` flags).
    pub problem: ProblemSpec,
    /// Ship the problem over the wire: only node 0 gets the problem
    /// flags; every other node is started with `--problem wire` and
    /// learns the materialized instance from node 0's announce frame —
    /// peers solve a workload they never had locally.
    pub wire_peers: bool,
    /// Service mode: every node is started with `--service` (a long-lived
    /// multi-job pool; `problem` is ignored) and the [`ClusterSpec::jobs`]
    /// stream is submitted over TCP by launcher-side `ftbb-submit`
    /// clients. Per-job results land in [`ClusterReport::jobs`], per-node
    /// `FTBB-JOB` lines in [`ClusterReport::job_lines`], and the closing
    /// `FTBB-SERVICE` summaries in [`ClusterReport::services`].
    pub service: bool,
    /// The job stream for a service cluster, each step timed from wiring
    /// completion on the same clock as the lifecycle plan.
    pub jobs: Vec<JobStep>,
    /// Membership mode: when set, every node runs the gossip protocol
    /// with node 0 as the gossip server (`--gossip-servers 0` plus these
    /// timing knobs), and the lifecycle plan may contain `Join` steps —
    /// brand-new nodes entering mid-run through node 0's address.
    pub gossip: Option<GossipTiming>,
    /// Checkpoint directory passed to every node (`--checkpoint-dir`);
    /// required for `Restart` lifecycle steps.
    pub checkpoint_dir: Option<PathBuf>,
    /// Snapshot cadence in seconds (`--checkpoint-every-s`), used when
    /// `checkpoint_dir` is set.
    pub checkpoint_every_s: f64,
    /// Telemetry directory: when set, every node writes its structured
    /// trace to `<dir>/node-<id>.jsonl` (`--trace-file`; restarts append
    /// to the same file), and after the run the launcher merges all
    /// traces — plus its own kill/restart/join actions — into the
    /// cluster-wide [`ClusterReport::timeline`].
    pub trace_dir: Option<PathBuf>,
    /// Metrics cadence in seconds (`--metrics-every-s`): when set, every
    /// node prints interval `FTBB-METRICS` snapshots which the launcher
    /// collects into [`ClusterReport::metrics`].
    pub metrics_every_s: Option<f64>,
    /// Per-node wall-clock deadline.
    pub deadline: Duration,
    /// Base seed for per-node protocol randomness.
    pub seed: u64,
    /// Expansion workers per node (`--workers`): 1 expands inline on the
    /// protocol thread; more offload expansions to a worker pool.
    /// The optimum is identical either way.
    pub workers: usize,
}

/// What the cluster produced.
#[derive(Debug)]
pub struct ClusterReport {
    /// Outcomes parsed from node stdout, in node-id order — from a
    /// node's *latest* incarnation when it was restarted. Killed nodes
    /// that never came back produce none (their entry is `None`).
    /// Elastic joiners (`LifecycleEvent::Join`) take the ids after
    /// `nodes` and appear here too.
    pub outcomes: Vec<Option<ParsedOutcome>>,
    /// Ids that died (SIGKILL or config-driven crash) and never produced
    /// an outcome afterwards.
    pub killed: Vec<u32>,
    /// Best incumbent over terminated survivors.
    pub best: Option<f64>,
    /// Every non-killed node produced an outcome with `terminated=true`.
    pub all_survivors_terminated: bool,
    /// Interval `FTBB-METRICS` snapshots per node id, in emission order
    /// (empty unless [`ClusterSpec::metrics_every_s`] was set). A
    /// restarted node's series spans both lives; the `incarnation` field
    /// of each snapshot tells them apart.
    pub metrics: Vec<Vec<ParsedMetrics>>,
    /// The cluster-wide event timeline: every node's structured trace
    /// (read from [`ClusterSpec::trace_dir`]) merged with the launcher's
    /// own lifecycle actions (`kill`/`restart`/`join`, and in service
    /// mode `submit`, tagged `source=launcher`), ordered by the shared
    /// unix-microsecond timestamp — so job lifecycles (`job_submitted`,
    /// `job_announced`, `job_restored`) interleave with the membership
    /// events around them. Empty unless `trace_dir` was set.
    pub timeline: Vec<TraceEvent>,
    /// Per-job client-side results, in [`ClusterSpec::jobs`] order
    /// (empty outside service mode).
    pub jobs: Vec<JobReport>,
    /// `FTBB-JOB` completion lines per node id, in emission order: what
    /// each pool node locally concluded about each job it hosted (empty
    /// outside service mode).
    pub job_lines: Vec<Vec<ParsedJob>>,
    /// The closing `FTBB-SERVICE` summary per node id — `None` for
    /// killed-and-gone nodes (empty outside service mode).
    pub services: Vec<Option<ParsedService>>,
}

impl ClusterReport {
    /// Total subproblems expanded across all reporting nodes.
    pub fn total_expanded(&self) -> u64 {
        self.outcomes.iter().flatten().map(|o| o.expanded).sum()
    }

    /// The largest single-node share of the cluster's expansions, in
    /// `0.0..=1.0` (0 when nothing was expanded). The skew regression
    /// asserts this stays below ~0.9 on a no-failure cluster: before
    /// connection pre-establishment the root routinely expanded nearly
    /// the whole tree alone while its startup grants were dropped.
    pub fn max_expansion_share(&self) -> f64 {
        let total = self.total_expanded();
        if total == 0 {
            return 0.0;
        }
        let max = self
            .outcomes
            .iter()
            .flatten()
            .map(|o| o.expanded)
            .max()
            .unwrap_or(0);
        max as f64 / total as f64
    }

    /// One line per reporting node with its incarnation, expansion count
    /// and share — printed by [`launch`] so work skew *and* a rejoined
    /// incarnation's contribution are visible in CI logs. (Expansions
    /// are per-incarnation: a restarted node reports only what its new
    /// life expanded; whatever its killed life did rides in the
    /// checkpointed table, not in any count.)
    pub fn skew_summary(&self) -> String {
        let total = self.total_expanded();
        let mut out = String::new();
        for o in self.outcomes.iter().flatten() {
            let share = if total == 0 {
                0.0
            } else {
                o.expanded as f64 * 100.0 / total as f64
            };
            out.push_str(&format!(
                "launcher: node {} inc={} expanded={} ({share:.1}% of {total})\n",
                o.id, o.incarnation, o.expanded
            ));
        }
        out
    }

    /// One line per job-stream submission with its gateway and result —
    /// printed by [`launch`] in service mode so per-job progress is
    /// visible in CI logs.
    pub fn job_summary(&self) -> String {
        let mut out = String::new();
        for j in &self.jobs {
            match &j.result {
                Ok(o) => out.push_str(&format!(
                    "launcher: job {} via node {} accepted_by={} finished={} \
                     incumbent={} expanded={} incumbents_streamed={}\n",
                    j.job,
                    j.to,
                    o.accepted_by,
                    o.finished,
                    o.incumbent,
                    o.expanded,
                    o.incumbents.len()
                )),
                Err(e) => out.push_str(&format!(
                    "launcher: job {} via node {} FAILED: {e}\n",
                    j.job, j.to
                )),
            }
        }
        out
    }

    /// The human-readable telemetry digest: the merged cluster timeline
    /// (timestamps relative to its first event) followed by the per-node
    /// Figure-3 time-accounting table taken from each node's last
    /// `FTBB-METRICS` snapshot. Empty when the cluster ran without
    /// telemetry.
    pub fn cluster_report(&self) -> String {
        let mut out = String::new();
        if !self.timeline.is_empty() {
            let t0 = self.timeline[0].t_us;
            out.push_str(&format!(
                "cluster timeline ({} events):\n",
                self.timeline.len()
            ));
            for e in &self.timeline {
                let dt = e.t_us.saturating_sub(t0) as f64 / 1e6;
                out.push_str(&format!(
                    "  +{dt:8.3}s node {} inc={} {}",
                    e.node, e.incarnation, e.kind
                ));
                if e.job != 0 {
                    out.push_str(&format!(" job={}", e.job));
                }
                for (k, v) in &e.fields {
                    out.push_str(&format!(" {k}={v}"));
                }
                out.push('\n');
            }
        }
        let last: Vec<&ParsedMetrics> = self
            .metrics
            .iter()
            .filter_map(|series| series.last())
            .collect();
        if !last.is_empty() {
            out.push_str(
                "figure-3 time accounting (seconds, from each node's last FTBB-METRICS):\n",
            );
            out.push_str(
                "  node inc  elapsed   expand    comm contract  loadbal   member \
                 idle     ckpt      sum\n",
            );
            for m in last {
                let p = &m.phase;
                out.push_str(&format!(
                    "  {:>4} {:>3} {:>8.3} {:>8.3} {:>7.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} \
                     {:>8.3} {:>8.3}\n",
                    m.id,
                    m.incarnation,
                    m.elapsed_s,
                    p.expand_s,
                    p.communicate_s,
                    p.contract_s,
                    p.load_balance_s,
                    p.membership_s,
                    p.idle_s,
                    p.checkpoint_s,
                    p.total()
                ));
            }
        }
        out
    }
}

/// A launcher lifecycle action as a timeline event, stamped with the same
/// unix-microsecond clock the nodes' traces use, so kills and restarts
/// interleave correctly with the suspicions and recoveries they cause.
fn launcher_event(kind: &str, node: u32) -> TraceEvent {
    launcher_job_event(kind, node, 0)
}

/// A launcher action on a specific job (`submit` steps); `job == 0`
/// means a pool-level action.
fn launcher_job_event(kind: &str, node: u32, job: u64) -> TraceEvent {
    let t_us = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0);
    TraceEvent {
        t_us,
        node,
        incarnation: 0,
        job,
        kind: kind.to_string(),
        fields: vec![("source".to_string(), "launcher".to_string())],
    }
}

/// Launcher errors.
#[derive(Debug)]
pub enum LaunchError {
    /// Spawning or wiring failed.
    Io(std::io::Error),
    /// A node did not print its `FTBB-READY` line in time.
    NotReady {
        /// The node that stayed silent.
        id: u32,
    },
    /// A node outlived the launcher's patience.
    Timeout {
        /// The node that did not exit.
        id: u32,
    },
    /// The lifecycle plan is inconsistent (restart without a checkpoint
    /// directory, restart of a node that was never killed, …).
    BadPlan(String),
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::Io(e) => write!(f, "launch failed: {e}"),
            LaunchError::NotReady { id } => write!(f, "node {id} never reported ready"),
            LaunchError::Timeout { id } => write!(f, "node {id} did not exit in time"),
            LaunchError::BadPlan(e) => write!(f, "bad lifecycle plan: {e}"),
        }
    }
}

impl std::error::Error for LaunchError {}

impl From<std::io::Error> for LaunchError {
    fn from(e: std::io::Error) -> Self {
        LaunchError::Io(e)
    }
}

/// How long the launcher waits for every node's `FTBB-READY` line.
const READY_PATIENCE: Duration = Duration::from_secs(20);

/// One spawned node and the stream of its stdout lines.
struct Spawned {
    child: Child,
    stdin: Option<ChildStdin>,
    lines: Receiver<String>,
    addr: Option<SocketAddr>,
}

/// Spawn one node process and its stdout reader thread. Fresh lives
/// (`listen: None`) bind `127.0.0.1:0` and get their problem flags;
/// resumed lives rebind the first life's address (`listen: Some(..)`)
/// and resume instead — their problem binding lives in the checkpoint —
/// with a shortened readiness budget (live peers accept within
/// milliseconds; a permanently dead one must not stall the rejoin for
/// the full fresh-start budget). Joiners (`join_through: Some(server)`)
/// get no wiring at all: only the join switch, the addressed gossip
/// server and the concrete problem spec. The rules fill a [`NodeConfig`];
/// its `to_args` is the argv.
fn spawn_node(
    spec: &ClusterSpec,
    id: u32,
    listen: Option<SocketAddr>,
    join_through: Option<SocketAddr>,
) -> std::io::Result<Spawned> {
    let resume = listen.is_some();
    let joiner = join_through.is_some();
    let mut cfg = NodeConfig {
        id,
        deadline_s: spec.deadline.as_secs_f64(),
        seed: spec.seed,
        workers: spec.workers.max(1),
        peers_from_stdin: !joiner,
        checkpoint_dir: spec.checkpoint_dir.clone(),
        // One file per node id, append mode in the daemon: a restarted
        // incarnation continues the same file, and the merged timeline
        // shows both lives under their own incarnation stamps.
        trace_file: spec
            .trace_dir
            .as_ref()
            .map(|dir| dir.join(format!("node-{id}.jsonl"))),
        metrics_every_s: spec.metrics_every_s,
        service: spec.service,
        resume,
        ..NodeConfig::default()
    };
    if let Some(addr) = listen {
        cfg.listen = addr;
        cfg.preconnect_s = 1.5;
    }
    if let Some(gossip) = &spec.gossip {
        cfg.gossip_servers = vec![(0, join_through)];
        cfg.join = joiner;
        cfg.gossip_interval_s = gossip.interval_s;
        cfg.suspect_after_s = gossip.suspect_s;
        cfg.forget_after_s = gossip.forget_s;
    }
    if spec.checkpoint_dir.is_some() {
        cfg.checkpoint_every_s = spec.checkpoint_every_s;
    }
    if !resume {
        // The config-driven crash is a first life's; and a resumed life
        // takes its problem from the checkpoint, a service pool from the
        // job stream — neither gets the shared `problem` rendered.
        cfg.crash_at_s = spec
            .crash_at
            .iter()
            .find(|&&(node, _)| node == id)
            .map(|&(_, at)| at);
        if !spec.service {
            cfg.problem = if spec.wire_peers && id != 0 && !joiner {
                ProblemSpec::Wire
            } else {
                spec.problem.clone()
            };
        }
    }
    let mut cmd = Command::new(&spec.noded);
    cmd.args(cfg.to_args());
    cmd.stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let mut child = cmd.spawn()?;
    let stdin = child.stdin.take();
    let stdout = child.stdout.take().expect("stdout piped");
    // One reader thread per node: its stdout lines flow into a channel
    // the launcher drains (ready line now, outcome line after exit). The
    // thread ends at EOF.
    let (tx, rx) = channel();
    std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    Ok(Spawned {
        child,
        stdin,
        lines: rx,
        addr: listen,
    })
}

/// Wait for a node's `FTBB-READY` line and record its address.
fn await_ready(node: &mut Spawned, id: u32) -> Result<SocketAddr, LaunchError> {
    let deadline = Instant::now() + READY_PATIENCE;
    loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        match node.lines.recv_timeout(remaining) {
            Ok(line) => {
                if let Some((_, addr)) = parse_ready_line(&line) {
                    node.addr = Some(addr);
                    return Ok(addr);
                }
            }
            Err(_) => return Err(LaunchError::NotReady { id }),
        }
    }
}

/// Write the peer map (everyone but `id`) plus `start` into a node.
fn wire_node(node: &mut Spawned, id: usize, addrs: &[SocketAddr]) -> std::io::Result<()> {
    let mut stdin = node.stdin.take().expect("stdin piped");
    let mut wiring = String::new();
    for (peer, addr) in addrs.iter().enumerate() {
        if peer != id {
            wiring.push_str(&format!("peer {peer}={addr}\n"));
        }
    }
    wiring.push_str("start\n");
    stdin.write_all(wiring.as_bytes())
    // Dropping stdin afterwards closes the pipe cleanly.
}

/// Launch the cluster, wire it over stdin, execute the lifecycle plan
/// (kills and checkpoint restarts), wait for survivors, and aggregate
/// their outcomes.
pub fn launch(spec: &ClusterSpec) -> Result<ClusterReport, LaunchError> {
    assert!(spec.nodes >= 1);
    let n = spec.nodes as usize;
    validate_plan(spec)?;

    if let Some(dir) = &spec.trace_dir {
        std::fs::create_dir_all(dir)?;
    }

    let mut nodes: Vec<Spawned> = Vec::with_capacity(n);
    let reap_all = |nodes: &mut Vec<Spawned>| {
        for node in nodes.iter_mut() {
            let _ = node.child.kill();
            let _ = node.child.wait();
        }
    };

    for id in 0..spec.nodes {
        match spawn_node(spec, id, None, None) {
            Ok(spawned) => nodes.push(spawned),
            Err(e) => {
                // Don't orphan already-spawned nodes on a failed spawn.
                reap_all(&mut nodes);
                return Err(e.into());
            }
        }
    }

    // Collect every node's FTBB-READY line (each binds independently, so
    // sequential waits are fine — patience is per node).
    for id in 0..n {
        if let Err(e) = await_ready(&mut nodes[id], id as u32) {
            reap_all(&mut nodes);
            return Err(e);
        }
    }

    // Wire the full peer map into every node and release them with
    // `start`.
    let addrs: Vec<SocketAddr> = nodes.iter().map(|s| s.addr.expect("collected")).collect();
    for id in 0..n {
        if let Err(e) = wire_node(&mut nodes[id], id, &addrs) {
            reap_all(&mut nodes);
            return Err(e.into());
        }
    }
    let start = Instant::now();

    // Service mode: one launcher-side submit client per job step, each
    // sleeping until its scheduled time and then blocking on the result
    // stream — concurrent with the lifecycle plan below, so kills and
    // restarts land while jobs are mid-flight.
    let job_threads: Vec<std::thread::JoinHandle<(TraceEvent, JobReport)>> = spec
        .jobs
        .iter()
        .map(|step| {
            let step = step.clone();
            let addr = addrs[step.to as usize];
            std::thread::spawn(move || {
                let wait = step.at.saturating_sub(start.elapsed());
                std::thread::sleep(wait);
                let event = launcher_job_event("submit", step.to, step.job);
                let result =
                    step.problem
                        .instance()
                        .map_err(|e| e.to_string())
                        .and_then(|instance| {
                            submit_job(addr, JobId::from(step.job), &instance, step.timeout)
                                .map_err(|e| e.to_string())
                        });
                (
                    event,
                    JobReport {
                        job: step.job,
                        to: step.to,
                        result,
                    },
                )
            })
        })
        .collect();

    // Execute the lifecycle plan in time order: real SIGKILL (no
    // cleanup, no flush) and checkpoint restarts.
    let mut plan = spec.lifecycle.clone();
    plan.sort_by_key(|e| e.at());
    let mut killed = Vec::new();
    // Metrics accumulate per node id across lives (a restart replaces the
    // `Spawned`, so the first life's snapshots are drained before the
    // swap); the launcher's own actions become timeline events.
    let mut metrics: Vec<Vec<ParsedMetrics>> = (0..n).map(|_| Vec::new()).collect();
    let mut job_lines: Vec<Vec<ParsedJob>> = (0..n).map(|_| Vec::new()).collect();
    let mut timeline: Vec<TraceEvent> = Vec::new();
    for event in &plan {
        let elapsed = start.elapsed();
        if event.at() > elapsed {
            std::thread::sleep(event.at() - elapsed);
        }
        match *event {
            LifecycleEvent::Kill { node: id, .. } => {
                if (id as usize) >= nodes.len() {
                    continue;
                }
                match nodes[id as usize].child.try_wait() {
                    Ok(Some(_)) => {} // already exited — too late to kill mid-run
                    Ok(None) => {
                        let _ = nodes[id as usize].child.kill(); // SIGKILL on unix
                        killed.push(id);
                        timeline.push(launcher_event("kill", id));
                    }
                    Err(e) => {
                        reap_all(&mut nodes);
                        return Err(e.into());
                    }
                }
            }
            LifecycleEvent::Join { node: id, .. } => {
                // Validated: id is the next unused one. The joiner knows
                // only node 0's address — it appears in no peer wiring.
                debug_assert_eq!(id as usize, nodes.len());
                match join_node(spec, id, addrs[0]) {
                    Ok(spawned) => {
                        nodes.push(spawned);
                        metrics.push(Vec::new());
                        job_lines.push(Vec::new());
                        timeline.push(launcher_event("join", id));
                    }
                    Err(e) => {
                        reap_all(&mut nodes);
                        return Err(e);
                    }
                }
            }
            LifecycleEvent::Restart { node: id, .. } => {
                if (id as usize) >= nodes.len() || id >= spec.nodes {
                    continue;
                }
                // Make sure the first life is fully gone (SIGKILL is
                // asynchronous) so the original port can be rebound.
                let _ = nodes[id as usize].child.kill();
                let _ = nodes[id as usize].child.wait();
                // Keep the killed life's interval snapshots before its
                // stdout channel is dropped with the old `Spawned`.
                for line in nodes[id as usize].lines.try_iter() {
                    if let Some(m) = parse_metrics_line(&line) {
                        metrics[id as usize].push(m);
                    } else if let Some(j) = parse_job_line(&line) {
                        job_lines[id as usize].push(j);
                    }
                }
                match restart_node(spec, id, &addrs) {
                    Ok(spawned) => {
                        nodes[id as usize] = spawned;
                        timeline.push(launcher_event("restart", id));
                    }
                    Err(e) => {
                        reap_all(&mut nodes);
                        return Err(e);
                    }
                }
            }
        }
    }

    // Collect the job stream's results (each client self-limits via its
    // step timeout, so these joins terminate). Submit timestamps merge
    // into the timeline alongside kills and restarts.
    let mut job_reports: Vec<JobReport> = Vec::with_capacity(job_threads.len());
    for handle in job_threads {
        match handle.join() {
            Ok((event, report)) => {
                timeline.push(event);
                job_reports.push(report);
            }
            Err(_) => {
                reap_all(&mut nodes);
                return Err(LaunchError::Io(std::io::Error::other(
                    "a job submit client panicked",
                )));
            }
        }
    }

    // Wait for everything with a global timeout well past the node
    // deadline (nodes self-limit via --deadline-s). Restarts and joins
    // reset the per-node clock, so allow one extra deadline for the
    // latest event.
    let last_event = plan.last().map(|e| e.at()).unwrap_or(Duration::ZERO);
    let patience = spec.deadline + last_event + Duration::from_secs(30);
    let total = nodes.len();
    let mut outcomes: Vec<Option<ParsedOutcome>> = (0..total).map(|_| None).collect();
    let mut services: Vec<Option<ParsedService>> = (0..total).map(|_| None).collect();
    for id in 0..total {
        // A node's exit closes its stdout, so its reader thread sees EOF
        // and drops the sender: blocking on the line stream notices the
        // exit the moment it happens, where polling the child would add up
        // to one poll period to every measured solve. Every line is
        // scanned: interval FTBB-METRICS snapshots and the final
        // FTBB-OUTCOME ride the same stream.
        let mut lines = Vec::new();
        loop {
            match nodes[id]
                .lines
                .recv_timeout(patience.saturating_sub(start.elapsed()))
            {
                Ok(line) => lines.push(line),
                Err(RecvTimeoutError::Disconnected) => break,
                Err(RecvTimeoutError::Timeout) => {
                    reap_all(&mut nodes);
                    return Err(LaunchError::Timeout { id: id as u32 });
                }
            }
        }
        // EOF comes with the exit, so the reap is immediate; the loop only
        // guards a node that closed stdout and kept running.
        loop {
            match nodes[id].child.try_wait() {
                Ok(Some(_)) => break,
                Err(e) => {
                    reap_all(&mut nodes);
                    return Err(e.into());
                }
                Ok(None) if start.elapsed() > patience => {
                    reap_all(&mut nodes);
                    return Err(LaunchError::Timeout { id: id as u32 });
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        for line in lines {
            if let Some(m) = parse_metrics_line(&line) {
                metrics[id].push(m);
            } else if let Some(o) = parse_outcome_line(&line) {
                outcomes[id] = Some(o);
            } else if let Some(j) = parse_job_line(&line) {
                job_lines[id].push(j);
            } else if let Some(s) = parse_service_line(&line) {
                services[id] = Some(s);
            }
        }
    }

    // Merge every node's structured trace into the launcher's lifecycle
    // events: all stamps share the unix-microsecond clock, so a plain
    // sort yields the cluster-wide ordered timeline (a kill precedes the
    // suspicions and recoveries it causes).
    if let Some(dir) = &spec.trace_dir {
        for id in 0..total as u32 {
            let path = dir.join(format!("node-{id}.jsonl"));
            if let Ok(text) = std::fs::read_to_string(&path) {
                timeline.extend(text.lines().filter_map(TraceEvent::parse_jsonl));
            }
        }
    }
    timeline.sort_by_key(|e| e.t_us);

    // A node SIGKILLed (or config-crashed) after finishing still counts
    // as a survivor if its outcome line made it out — and a killed node
    // that was restarted and reported is a survivor too.
    let mut effective_killed: Vec<u32> = killed
        .iter()
        .copied()
        .chain(spec.crash_at.iter().map(|&(id, _)| id))
        .filter(|&id| {
            (id as usize) < total
                && outcomes[id as usize].is_none()
                && services[id as usize].is_none()
        })
        .collect();
    effective_killed.sort_unstable();
    effective_killed.dedup();
    // Service nodes close with an FTBB-SERVICE summary instead of an
    // FTBB-OUTCOME; "survived" means that summary made it out.
    let all_survivors_terminated = (0..total as u32)
        .filter(|id| !effective_killed.contains(id))
        .all(|id| {
            if spec.service {
                services[id as usize].is_some()
            } else {
                outcomes[id as usize]
                    .as_ref()
                    .map(|o| o.terminated)
                    .unwrap_or(false)
            }
        });
    let best = outcomes
        .iter()
        .flatten()
        .filter(|o| o.terminated)
        .map(|o| o.incumbent)
        .fold(f64::INFINITY, f64::min);

    let report = ClusterReport {
        outcomes,
        killed: effective_killed,
        best: best.is_finite().then_some(best),
        all_survivors_terminated,
        metrics,
        timeline,
        jobs: job_reports,
        job_lines,
        services,
    };
    // Per-node expansion counts on stderr, so work skew is visible in CI
    // logs (the multiprocess tests run with --nocapture there) — the
    // per-job digest in service mode — and the telemetry digest when the
    // cluster ran with it on.
    eprint!("{}", report.skew_summary());
    eprint!("{}", report.job_summary());
    eprint!("{}", report.cluster_report());
    Ok(report)
}

/// Static consistency of the lifecycle plan.
fn validate_plan(spec: &ClusterSpec) -> Result<(), LaunchError> {
    let bad = |m: String| Err(LaunchError::BadPlan(m));
    if !spec.jobs.is_empty() && !spec.service {
        return bad("a job stream needs ClusterSpec::service".to_string());
    }
    if spec.service {
        if spec.wire_peers {
            return bad(
                "service pools already ship every instance over the wire; drop wire_peers"
                    .to_string(),
            );
        }
        let mut seen = std::collections::HashSet::new();
        for step in &spec.jobs {
            if step.job == 0 {
                return bad("job 0 is reserved for single-run nodes".to_string());
            }
            if !seen.insert(step.job) {
                return bad(format!("duplicate job id {} in the job stream", step.job));
            }
            if step.to >= spec.nodes {
                return bad(format!(
                    "job {} submits to node {} but the pool has {} nodes",
                    step.job, step.to, spec.nodes
                ));
            }
            if matches!(step.problem, ProblemSpec::Wire) {
                return bad(format!(
                    "job {} has ProblemSpec::Wire; submissions materialize client-side",
                    step.job
                ));
            }
        }
    }
    let mut plan = spec.lifecycle.clone();
    plan.sort_by_key(|e| e.at());
    let mut dead: Vec<u32> = Vec::new();
    let mut total = spec.nodes;
    for event in &plan {
        match *event {
            LifecycleEvent::Kill { node, .. } => dead.push(node),
            LifecycleEvent::Restart { node, .. } => {
                if spec.checkpoint_dir.is_none() {
                    return bad(format!(
                        "restart of node {node} needs ClusterSpec::checkpoint_dir"
                    ));
                }
                match dead.iter().position(|&d| d == node) {
                    Some(i) => {
                        dead.remove(i);
                    }
                    None => {
                        return bad(format!("restart of node {node} without a preceding kill"));
                    }
                }
            }
            LifecycleEvent::Join { node, .. } => {
                if spec.service {
                    // The daemon rejects --join with --service; keep the
                    // plan honest instead of failing at spawn time.
                    return bad(format!(
                        "join of node {node}: elastic join is not supported in service mode"
                    ));
                }
                if spec.gossip.is_none() {
                    return bad(format!("join of node {node} needs ClusterSpec::gossip"));
                }
                if node != total {
                    return bad(format!(
                        "join must take the next unused id {total}, not {node}"
                    ));
                }
                total += 1;
            }
        }
    }
    Ok(())
}

/// Spawn an elastic joiner: a brand-new node that appears in no wiring
/// and knows only the gossip server's (node 0's) address.
fn join_node(spec: &ClusterSpec, id: u32, server: SocketAddr) -> Result<Spawned, LaunchError> {
    let mut node = spawn_node(spec, id, None, Some(server)).map_err(LaunchError::Io)?;
    await_ready(&mut node, id)?;
    // No wiring to write: the joiner bootstraps itself. Close its stdin
    // so it never blocks on a pipe nobody feeds.
    drop(node.stdin.take());
    Ok(node)
}

/// Bring a killed node back from its checkpoint: respawn with `--resume`
/// on the node's *original* address, hold the wiring for
/// [`REJOIN_SETTLE`], then release it.
fn restart_node(spec: &ClusterSpec, id: u32, addrs: &[SocketAddr]) -> Result<Spawned, LaunchError> {
    // Rebind the original address: peers keep their rosters, and their
    // in-flight traffic demonstrably lands on the new life (where the
    // incarnation filter disposes of it). The first bind can race the
    // kernel reclaiming the killed process's port — retry briefly.
    let addr = addrs[id as usize];
    let bind_deadline = Instant::now() + READY_PATIENCE;
    let mut node = loop {
        let mut spawned = spawn_node(spec, id, Some(addr), None).map_err(LaunchError::Io)?;
        match await_ready(&mut spawned, id) {
            Ok(_) => break spawned,
            Err(e) => {
                let _ = spawned.child.kill();
                let _ = spawned.child.wait();
                if Instant::now() >= bind_deadline {
                    return Err(e);
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    };
    // The settle window: the listener is bound (peers' reconnects land
    // in the backlog) but the daemon is still waiting for its wiring —
    // a slow workstation rejoining. Stale traffic accumulates here.
    std::thread::sleep(REJOIN_SETTLE);
    wire_node(&mut node, id as usize, addrs).map_err(LaunchError::Io)?;
    Ok(node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbb_runtime::TransportStats;

    fn outcome(id: u32, incarnation: u32, expanded: u64) -> ParsedOutcome {
        ParsedOutcome {
            id,
            incarnation,
            terminated: true,
            incumbent: -1.0,
            expanded,
            pruned_at_pop: 0,
            recoveries: 0,
            suspected: 0,
            forgotten: 0,
            bound_broadcasts: 0,
            bound_coalesced: 0,
            bound_suppressed: 0,
            membership_events_dropped: 0,
            trace_events_dropped: 0,
            workers: 1,
            transport: TransportStats::default(),
            control_shed: 0,
        }
    }

    fn mk_report(outcomes: Vec<Option<ParsedOutcome>>, killed: Vec<u32>) -> ClusterReport {
        let n = outcomes.len();
        ClusterReport {
            outcomes,
            killed,
            best: Some(-1.0),
            all_survivors_terminated: true,
            metrics: (0..n).map(|_| Vec::new()).collect(),
            timeline: Vec::new(),
            jobs: Vec::new(),
            job_lines: (0..n).map(|_| Vec::new()).collect(),
            services: (0..n).map(|_| None).collect(),
        }
    }

    #[test]
    fn expansion_share_and_summary() {
        let report = mk_report(
            vec![Some(outcome(0, 0, 75)), None, Some(outcome(2, 1, 25))],
            vec![1],
        );
        assert_eq!(report.total_expanded(), 100);
        assert!((report.max_expansion_share() - 0.75).abs() < 1e-12);
        let summary = report.skew_summary();
        assert!(summary.contains("node 0 inc=0 expanded=75 (75.0% of 100)"));
        assert!(
            summary.contains("node 2 inc=1 expanded=25 (25.0% of 100)"),
            "a rejoined incarnation's contribution must be visible: {summary}"
        );

        let empty = mk_report(vec![None], vec![0]);
        assert_eq!(empty.max_expansion_share(), 0.0);
    }

    #[test]
    fn cluster_report_renders_timeline_and_figure3_table() {
        use crate::noded::parse_metrics_line;
        use ftbb_core::TraceEvent;

        let mut r = mk_report(vec![Some(outcome(0, 0, 10)), None], vec![1]);
        assert_eq!(r.cluster_report(), "", "no telemetry, no digest");

        // A kill (launcher) followed by a survivor's suspicion of the
        // dead node, already time-ordered.
        r.timeline = vec![
            TraceEvent {
                t_us: 1_000_000,
                node: 1,
                incarnation: 0,
                job: 0,
                kind: "kill".into(),
                fields: vec![("source".into(), "launcher".into())],
            },
            TraceEvent {
                t_us: 1_400_000,
                node: 0,
                incarnation: 0,
                job: 0,
                kind: "suspect".into(),
                fields: vec![("peer".into(), "1".into())],
            },
        ];
        let snap = ftbb_runtime::MetricsSnapshot {
            id: 0,
            job: 0,
            incarnation: 0,
            seq: 3,
            elapsed_s: 2.5,
            phase: ftbb_core::PhaseTimes {
                expand_s: 1.5,
                ..Default::default()
            },
            metrics: Default::default(),
            transport: TransportStats::default(),
            trace_events_dropped: 0,
            workers: 1,
        };
        let line = crate::noded::metrics_line(&snap);
        r.metrics[0] = vec![parse_metrics_line(&line).expect("own line parses")];

        let digest = r.cluster_report();
        assert!(digest.contains("cluster timeline (2 events):"), "{digest}");
        assert!(
            digest.contains("+   0.000s node 1 inc=0 kill source=launcher"),
            "{digest}"
        );
        assert!(
            digest.contains("+   0.400s node 0 inc=0 suspect peer=1"),
            "{digest}"
        );
        assert!(digest.contains("figure-3 time accounting"), "{digest}");
        // One table row for node 0 (node 1 has no metrics).
        assert_eq!(
            digest
                .lines()
                .filter(|l| l.trim_start().starts_with("0 "))
                .count(),
            1,
            "{digest}"
        );
    }

    #[test]
    fn lifecycle_plans_are_validated() {
        let base = ClusterSpec {
            noded: PathBuf::from("/nonexistent"),
            nodes: 3,
            lifecycle: Vec::new(),
            crash_at: Vec::new(),
            problem: ProblemSpec::default(),
            wire_peers: false,
            service: false,
            jobs: Vec::new(),
            gossip: None,
            checkpoint_dir: None,
            checkpoint_every_s: 0.1,
            trace_dir: None,
            metrics_every_s: None,
            deadline: Duration::from_secs(1),
            seed: 1,
            workers: 1,
        };

        // Join without gossip mode.
        let mut spec = base.clone();
        spec.lifecycle = vec![LifecycleEvent::join(3, Duration::from_millis(10))];
        match validate_plan(&spec) {
            Err(LaunchError::BadPlan(e)) => assert!(e.contains("ClusterSpec::gossip"), "{e}"),
            other => panic!("expected BadPlan, got {other:?}"),
        }

        // Join with a wrong (already used / skipped) id.
        let mut spec = base.clone();
        spec.gossip = Some(GossipTiming::default());
        spec.lifecycle = vec![LifecycleEvent::join(5, Duration::from_millis(10))];
        match validate_plan(&spec) {
            Err(LaunchError::BadPlan(e)) => assert!(e.contains("next unused id 3"), "{e}"),
            other => panic!("expected BadPlan, got {other:?}"),
        }

        // Two joins take consecutive ids; killing a joiner is fine.
        let mut spec = base.clone();
        spec.gossip = Some(GossipTiming::default());
        spec.lifecycle = vec![
            LifecycleEvent::join(3, Duration::from_millis(10)),
            LifecycleEvent::join(4, Duration::from_millis(20)),
            LifecycleEvent::kill(4, Duration::from_millis(30)),
        ];
        assert!(validate_plan(&spec).is_ok());

        // Restart without a checkpoint dir.
        let mut spec = base.clone();
        spec.lifecycle = vec![
            LifecycleEvent::kill(1, Duration::from_millis(10)),
            LifecycleEvent::restart(1, Duration::from_millis(20)),
        ];
        assert!(matches!(validate_plan(&spec), Err(LaunchError::BadPlan(_))));

        // Restart of a never-killed node.
        let mut spec = base.clone();
        spec.checkpoint_dir = Some(PathBuf::from("/tmp/ckpt"));
        spec.lifecycle = vec![LifecycleEvent::restart(2, Duration::from_millis(20))];
        match validate_plan(&spec) {
            Err(LaunchError::BadPlan(e)) => assert!(e.contains("without a preceding kill"), "{e}"),
            other => panic!("expected BadPlan, got {other:?}"),
        }

        // A job stream without service mode.
        let mut spec = base.clone();
        spec.jobs = vec![JobStep::submit(
            1,
            Duration::ZERO,
            0,
            ProblemSpec::default(),
        )];
        match validate_plan(&spec) {
            Err(LaunchError::BadPlan(e)) => assert!(e.contains("ClusterSpec::service"), "{e}"),
            other => panic!("expected BadPlan, got {other:?}"),
        }

        // Service mode: job 0, duplicate ids, out-of-pool gateways, and
        // elastic joins are all rejected.
        let mut spec = base.clone();
        spec.service = true;
        spec.jobs = vec![JobStep::submit(
            0,
            Duration::ZERO,
            0,
            ProblemSpec::default(),
        )];
        match validate_plan(&spec) {
            Err(LaunchError::BadPlan(e)) => assert!(e.contains("reserved"), "{e}"),
            other => panic!("expected BadPlan, got {other:?}"),
        }
        spec.jobs = vec![
            JobStep::submit(7, Duration::ZERO, 0, ProblemSpec::default()),
            JobStep::submit(7, Duration::ZERO, 1, ProblemSpec::default()),
        ];
        match validate_plan(&spec) {
            Err(LaunchError::BadPlan(e)) => assert!(e.contains("duplicate job id 7"), "{e}"),
            other => panic!("expected BadPlan, got {other:?}"),
        }
        spec.jobs = vec![JobStep::submit(
            7,
            Duration::ZERO,
            9,
            ProblemSpec::default(),
        )];
        match validate_plan(&spec) {
            Err(LaunchError::BadPlan(e)) => assert!(e.contains("but the pool has"), "{e}"),
            other => panic!("expected BadPlan, got {other:?}"),
        }
        spec.jobs = Vec::new();
        spec.gossip = Some(GossipTiming::default());
        spec.lifecycle = vec![LifecycleEvent::join(3, Duration::from_millis(10))];
        match validate_plan(&spec) {
            Err(LaunchError::BadPlan(e)) => assert!(e.contains("service mode"), "{e}"),
            other => panic!("expected BadPlan, got {other:?}"),
        }

        // A well-formed service plan: staggered jobs, a kill, a restart.
        let mut spec = base.clone();
        spec.service = true;
        spec.checkpoint_dir = Some(PathBuf::from("/tmp/ckpt"));
        spec.jobs = vec![
            JobStep::submit(1, Duration::from_millis(0), 0, ProblemSpec::default()),
            JobStep::submit(2, Duration::from_millis(50), 1, ProblemSpec::default()),
        ];
        spec.lifecycle = vec![
            LifecycleEvent::kill(2, Duration::from_millis(100)),
            LifecycleEvent::restart(2, Duration::from_millis(200)),
        ];
        assert!(validate_plan(&spec).is_ok());

        // Kill → restart → kill again is a consistent story.
        let mut spec = base;
        spec.checkpoint_dir = Some(PathBuf::from("/tmp/ckpt"));
        spec.lifecycle = vec![
            LifecycleEvent::kill(1, Duration::from_millis(10)),
            LifecycleEvent::restart(1, Duration::from_millis(30)),
            LifecycleEvent::kill(1, Duration::from_millis(50)),
        ];
        assert!(validate_plan(&spec).is_ok());
    }
}
