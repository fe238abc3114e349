//! The body of the `ftbb-noded` binary: one protocol node per OS process.
//!
//! The daemon's startup is two-phase so clusters can be wired without a
//! port-allocation race: it binds its listener first (resolving
//! `--listen 127.0.0.1:0` to a real port), prints one machine-parseable
//! `FTBB-READY id=… addr=…` line, and — with `--peers-from-stdin` —
//! learns the peer map from `peer id=addr` stdin lines terminated by
//! `start`. It then runs the readiness barrier ([`Transport::ready`],
//! pre-establishing every peer connection) *before* injecting the
//! protocol's `Start` event, so the mesh is never half-formed when the
//! root hands out its first work grants.
//!
//! The daemon materializes the shared problem instance from its spec —
//! regenerated from generator parameters, loaded from a tree file, or
//! (with `--problem wire`) received in the root's problem-announce frame
//! — and drives the *identical* [`BnbProcess`] state machine the
//! simulator and the in-process cluster use; only the transport and the
//! clock differ. Codes are self-contained given the root instance,
//! however that instance arrived. On completion it prints a single
//! machine-parseable `FTBB-OUTCOME` line to stdout for the launcher to
//! collect.
//!
//! **Membership** (`--gossip-servers`): instead of a static member list,
//! the daemon runs the §5.2 gossip protocol — it joins through its
//! servers, heartbeats on `--gossip-interval-s`, suspects members silent
//! past `--suspect-after-s` (they leave the load-balancing targets and
//! their unreported work becomes recovery-eligible), and forgets them
//! past `--forget-after-s`. With `--join` the daemon starts knowing
//! *only* a server address — no peer flags, no stdin wiring: it sends a
//! wire-level join frame, gets the membership Welcome back, and discovers
//! every other member (and its route, via the codec-v4 address book
//! piggybacked on membership frames) through gossip. This is how a
//! brand-new machine enters a live cluster mid-run.
//!
//! **Service mode** (`--service`): the same daemon, except that no job is
//! admitted before the pump starts and the pump outlives its jobs. Jobs
//! stream in from `ftbb-submit` clients (this node becomes the job's
//! gateway and announces it to the pool with its first incumbent) and
//! from peer announces; each completes with one `FTBB-JOB`
//! line and the daemon closes with `FTBB-SERVICE` at its deadline. A
//! single run is the special case that admits exactly one job —
//! [`JobId::DEFAULT`], the configured or announced problem — up front and
//! exits when it halts.
//!
//! **Lifecycle**: with `--checkpoint-dir` the engine persists one snapshot
//! file per job (`node-<id>-job-<job>.ckpt`, job 0 for a single run;
//! atomic write-rename) at admission, every `--checkpoint-every-s`, and at
//! completion. With `--resume` the daemon restores every such file instead
//! of starting fresh: it comes back as the next **incarnation** of its
//! node, takes each problem binding from its checkpoint (no `--problem*`
//! flags, no announce wait), replays the readiness barrier for itself, and
//! sends the join frame a brand-new node sends, at its new incarnation,
//! so every peer re-registers it — new address and all — and starts
//! tagging traffic for its new life. Frames addressed to (or sent by) the
//! previous life are counted and dropped as stale by the transport.

use crate::codec::{encode_accepted, encode_result, EncodedFrame};
use crate::config::{NodeConfig, ProblemSpec};
use crate::lines::{line_codec, render_line, Fields};
use crate::tcp::{Control, TcpMesh, WireConfig};
use ftbb_bnb::{AnyInstance, BranchBound};
use ftbb_core::{BnbProcess, Checkpoint, CheckpointSink, JobId, PhaseTimes, ProtocolConfig};
use ftbb_des::SimTime;
use ftbb_runtime::{
    ClusterConfig, Inbound, JobEngine, JobOutcome, MetricsSnapshot, ServiceEngine, ServiceHooks,
    ServiceOutcome, Telemetry, Transport, TransportStats,
};
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, Write};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::{Duration, Instant};

/// Extra grace past the readiness budget that a `--problem wire` node
/// waits for the root's problem announce before giving up.
const ANNOUNCE_GRACE: Duration = Duration::from_secs(15);

/// What one daemon run produced.
#[derive(Debug)]
pub struct NodeReport {
    /// The pump's outcome: one [`JobOutcome`] per admitted job — exactly
    /// one, [`JobId::DEFAULT`], for a single run.
    pub outcome: ServiceOutcome,
    /// Transport-layer counters at exit.
    pub transport: TransportStats,
    /// Trace events the telemetry sink had to shed (0 when tracing is
    /// off or the writer kept up).
    pub trace_events_dropped: u64,
    /// Expansion worker threads the node ran with (1 = inline).
    pub workers: usize,
}

/// Checkpoint file of job `job` on node `id` under `dir`: one file per
/// job, so a job completing (or a new one arriving) never rewrites another
/// job's durable state. A single run is job 0.
pub fn job_checkpoint_path(dir: &Path, id: u32, job: JobId) -> PathBuf {
    dir.join(format!("node-{id}-job-{}.ckpt", job.raw()))
}

/// The durable checkpoint sink: snapshots route to
/// [`job_checkpoint_path`]`(dir, id, chk.job)` by the job id each
/// checkpoint carries, via atomic write-rename (write the blob to `…tmp`,
/// then rename over the live file), so a crash mid-write can never leave
/// a torn checkpoint — the previous snapshot survives intact.
pub struct JobDirSink {
    dir: PathBuf,
    id: u32,
}

impl JobDirSink {
    /// Create the directory (if needed) and the per-job sink for node
    /// `id`.
    pub fn new(dir: &Path, id: u32) -> std::io::Result<JobDirSink> {
        std::fs::create_dir_all(dir)?;
        Ok(JobDirSink {
            dir: dir.to_path_buf(),
            id,
        })
    }
}

impl CheckpointSink for JobDirSink {
    fn store(&mut self, chk: &Checkpoint) -> Result<(), String> {
        let path = job_checkpoint_path(&self.dir, self.id, chk.job);
        let tmp = path.with_extension("ckpt.tmp");
        std::fs::write(&tmp, chk.encode()).map_err(|e| format!("write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &path).map_err(|e| format!("rename into {}: {e}", path.display()))
    }
}

/// Scan `dir` for node `id`'s per-job checkpoints (the
/// [`job_checkpoint_path`] layout) and decode every one. Corrupt or
/// foreign files are errors — a restore must never silently drop a job.
pub fn scan_job_checkpoints(dir: &Path, id: u32) -> std::io::Result<Vec<Checkpoint>> {
    let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let prefix = format!("node-{id}-job-");
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if !name.starts_with(&prefix) || !name.ends_with(".ckpt") {
            continue;
        }
        let blob = std::fs::read(&path)?;
        let chk = Checkpoint::decode(&blob)
            .map_err(|e| bad(format!("corrupt checkpoint {}: {e}", path.display())))?;
        if chk.me != id {
            return Err(bad(format!(
                "checkpoint {} belongs to node {}, not node {id}",
                path.display(),
                chk.me
            )));
        }
        found.push(chk);
    }
    // Deterministic admission order regardless of directory iteration.
    found.sort_by_key(|chk| chk.job);
    Ok(found)
}

/// One `JobResult` frame the pump's hooks queue for the reply thread to
/// write back to the submitting client (hooks run on the pump thread and
/// must not block on sockets): an incumbent improvement (`finished:
/// false`) or the job's final state (`finished: terminated`).
struct SubmitReply {
    job: JobId,
    finished: bool,
    incumbent: f64,
    expanded: u64,
    /// The job's final state: nothing follows, so the client's stream is
    /// released once this is written.
    last: bool,
}

/// What the reply thread is handed, in the order it acts on it.
enum Reply {
    /// From the control thread, ahead of the job's admission: this node
    /// is the job's gateway and owes the pool its announce.
    Gateway { job: JobId, instance: AnyInstance },
    /// From the control thread: a client submitted a job id this node
    /// already admitted, and its new stream is the one registered now.
    Resubmitted(JobId),
    /// From the pump's hooks.
    Result(SubmitReply),
}

/// Run one node: bind, wire, pass the readiness barrier, admit the jobs
/// this mode starts with, and pump until they halt — or, as a `--service`
/// pool member, until the deadline (or a config-driven crash).
///
/// The modes differ only in which jobs are admitted before the pump
/// starts — a single run admits the configured (or announced) problem as
/// [`JobId::DEFAULT`]; `--resume` admits every job checkpoint this node
/// left behind; `--service` admits none — and in whether the control
/// thread admits what arrives mid-flight and the pump outlives its jobs
/// (`--service` only).
pub fn run(cfg: &NodeConfig) -> std::io::Result<NodeReport> {
    cfg.validate()
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?;
    let bad_input = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, msg);

    // Phase 1: bind the listener (resolving `:0`) and announce the
    // address, so whoever spawned us can wire the cluster race-free.
    let listener = TcpListener::bind(cfg.listen)?;
    let local_addr = listener.local_addr()?;
    println!("{}", ready_line(cfg.id, local_addr));
    std::io::stdout().flush()?;

    // Phase 2: learn the topology — from stdin when wired by a
    // launcher, from the parsed config otherwise.
    let peers = if cfg.peers_from_stdin {
        read_peer_wiring(std::io::stdin().lock())?
    } else {
        cfg.peers.clone()
    };
    if peers.iter().any(|&(id, _)| id == cfg.id) {
        return Err(bad_input(format!("peer wiring contains own id {}", cfg.id)));
    }
    let members = crate::config::member_ids(cfg.id, &peers);

    // Membership mode: resolve the gossip-server roster against the
    // wiring. Addressed entries (`0=HOST:PORT`) become mesh routes on
    // their own — the elastic-join path, where no wiring exists; bare
    // ids must already be wired.
    let mut mesh_peers = peers.clone();
    for &(sid, addr) in &cfg.gossip_servers {
        if sid == cfg.id {
            continue;
        }
        match addr {
            Some(a) => {
                if !mesh_peers.iter().any(|&(id, _)| id == sid) {
                    mesh_peers.push((sid, a));
                }
            }
            None => {
                if !peers.iter().any(|&(id, _)| id == sid) {
                    return Err(bad_input(format!(
                        "gossip server {sid} has no address and is not in the peer wiring; \
                         give it as {sid}=HOST:PORT"
                    )));
                }
            }
        }
    }

    // Resuming? Load the snapshots *before* the mesh exists: the mesh
    // must be born as the next incarnation so every frame it emits is
    // tagged for the new life. EVERY job checkpoint this node left behind
    // is restored: a restarted pool member rejoins each in-flight
    // computation, a restarted single run its job 0.
    let restored: Vec<Checkpoint> = if cfg.resume {
        let dir = cfg.checkpoint_dir.as_ref().expect("validated with resume");
        let found = scan_job_checkpoints(dir, cfg.id)?;
        if found.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!(
                    "no job checkpoints for node {} under {}",
                    cfg.id,
                    dir.display()
                ),
            ));
        }
        found
    } else {
        Vec::new()
    };
    // One incarnation per node life, shared by every restored job.
    let incarnation = restored
        .iter()
        .map(|chk| chk.incarnation + 1)
        .max()
        .unwrap_or(0);

    // Structured tracing: with `--trace-file` every lifecycle event of
    // this node (and of its engine) lands as one JSONL record. The file
    // is opened in append mode so a restarted node's lives accumulate in
    // one per-node trace.
    let telemetry = match &cfg.trace_file {
        Some(path) => {
            let file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?;
            Telemetry::to_writer(cfg.id, incarnation, Box::new(file))
        }
        None => Telemetry::disabled(),
    };
    telemetry.emit(
        "node_start",
        &[
            ("addr", local_addr.to_string()),
            ("peers", peers.len().to_string()),
            ("service", cfg.service.to_string()),
            ("restored_jobs", restored.len().to_string()),
            ("join", cfg.join.to_string()),
        ],
    );

    let (mesh, inbox) = TcpMesh::from_listener_incarnated_with(
        cfg.id,
        incarnation,
        listener,
        &mesh_peers,
        WireConfig,
    )?;

    // Phase 3: readiness barrier — pre-establish every peer connection
    // before `Start`, so the first work grants cannot vanish into
    // listeners that are still coming up. A rejoining node replays this
    // same barrier for itself: its peers are live, so it connects fast.
    // A peer that never appears is the Crash model's problem; start
    // anyway once the budget is spent.
    if !mesh.ready(Duration::from_secs_f64(cfg.preconnect_s)) {
        telemetry.emit(
            "barrier_timeout",
            &[("budget_s", cfg.preconnect_s.to_string())],
        );
        eprintln!(
            "ftbb-noded: readiness barrier timed out after {}s; starting on a partial mesh",
            cfg.preconnect_s
        );
    }

    // A node entering a live mesh introduces itself at the wire level
    // (id, incarnation, listen address) with one join frame. An elastic
    // joiner tells its gossip servers, so the reverse route exists before
    // the protocol-level membership Join asks for a Welcome over it; a
    // resumed node tells every peer, which re-points its routes at the
    // new life.
    if cfg.join {
        telemetry.emit("join", &[("servers", mesh_peers.len().to_string())]);
        eprintln!(
            "ftbb-noded: node {} joining through {} gossip server(s)",
            cfg.id,
            mesh_peers.len()
        );
    }
    if cfg.join || !restored.is_empty() {
        mesh.send_join();
    }

    // Millisecond-scale protocol timers, same profile as the in-process
    // cluster (ClusterConfig::new); node count only sizes defaults. In
    // membership mode the gossip knobs ride along — including into
    // restore, where the checkpoint's gossip binding expects them.
    let protocol = {
        let mut p = ClusterConfig::new(members.len() as u32).protocol;
        p.membership = cfg.membership();
        p.bound_flush_s = cfg.bound_flush_s;
        p
    };

    // The engine inherits the node's trace sink, and — with
    // `--metrics-every-s` — reports interval `FTBB-METRICS` lines on
    // stdout, flushed per line so the launcher can tail them live.
    let mut engine = ServiceEngine::new(cfg.id, incarnation);
    engine.daemon(cfg.service);
    engine.set_telemetry(telemetry.clone());
    engine.set_workers(cfg.workers);
    if let Some(every_s) = cfg.metrics_every_s {
        engine.set_metrics_reporter(
            Duration::from_secs_f64(every_s),
            Box::new(|snap: &MetricsSnapshot| {
                println!("{}", metrics_line(snap));
                let _ = std::io::stdout().flush();
            }),
        );
    }

    // Phase 4: admit the jobs this run starts with. All of it happens
    // after the readiness barrier, so handshake frames ride connections
    // that already exist.
    //
    // * Resume: state and problem bindings come from the checkpoints (the
    //   join frame above re-registered this node's new life with every
    //   peer).
    // * Single run: the configured (or announced) problem is job 0.
    // * Service: nothing yet; jobs arrive through the control thread.
    let mut seen_jobs: HashSet<JobId> = HashSet::new();
    for chk in &restored {
        seen_jobs.insert(chk.job);
        let job_engine = JobEngine::restore(
            chk,
            protocol.clone(),
            ftbb_core::node_seed(cfg.seed ^ chk.job.raw(), cfg.id),
        )
        .map_err(bad_input)?;
        telemetry.for_job(chk.job.raw()).emit(
            "job_restored",
            &[
                ("table_codes", chk.table.len().to_string()),
                ("pooled", chk.pool.len().to_string()),
                ("incumbent", chk.incumbent.to_string()),
            ],
        );
        engine.admit(job_engine);
    }
    if !restored.is_empty() {
        eprintln!(
            "ftbb-noded: node {} resuming {} job(s) as incarnation {incarnation}",
            cfg.id,
            restored.len()
        );
    } else if !cfg.service {
        // Same election as the in-process cluster — the state machine must
        // behave identically in every deployment. A joiner never holds
        // the root: it enters a computation that is already running
        // somewhere else.
        let holds_root = !cfg.join && ftbb_core::holds_root(cfg.id, &members);
        let instance = single_run_instance(cfg, &mesh, holds_root, &peers, &telemetry)?;
        engine.admit(build_job(
            cfg,
            &protocol,
            &members,
            SimTime::ZERO,
            JobId::DEFAULT,
            instance,
            holds_root,
        ));
    }

    // Mid-flight admission (service mode only): the control thread turns
    // submissions and peer announces into job engines and puts them on
    // the pump's inbox, where an idle pump takes them at once; hooks run
    // on the pump thread and hand results to the reply thread, which owns
    // the socket writes and announces a gateway's job to the pool with
    // its first result.
    let admission = cfg.service.then(|| {
        let (reply_tx, reply_rx) = channel::<Reply>();
        let (incumbent_tx, complete_tx) = (reply_tx.clone(), reply_tx.clone());
        engine.set_hooks(ServiceHooks {
            on_incumbent: Some(Box::new(move |job, incumbent| {
                let _ = incumbent_tx.send(Reply::Result(SubmitReply {
                    job,
                    finished: false,
                    incumbent,
                    expanded: 0,
                    last: false,
                }));
            })),
            on_complete: Some(Box::new(move |outcome: &JobOutcome| {
                println!("{}", job_line(outcome));
                let _ = std::io::stdout().flush();
                let _ = complete_tx.send(Reply::Result(SubmitReply {
                    job: outcome.job,
                    finished: outcome.terminated,
                    incumbent: outcome.incumbent,
                    expanded: outcome.metrics.expanded,
                    last: true,
                }));
            })),
        });
        ((mesh.inbox_sender(), reply_tx), reply_rx)
    });
    let (admit, reply_rx) = admission.unzip();

    // Config-driven crash: a genuine process death (abort), not a
    // simulated one — peers see only silence. The clock starts after the
    // readiness barrier, so `crash_at_s` measures computation time, not
    // wiring or pre-establishment time.
    if let Some(crash_at) = cfg.crash_at_s {
        let delay = Duration::from_secs_f64(crash_at.max(0.0));
        std::thread::spawn(move || {
            std::thread::sleep(delay);
            std::process::abort();
        });
    }

    // Build the sink before the scope so io errors surface cleanly.
    if let Some(dir) = &cfg.checkpoint_dir {
        let every = Duration::from_secs_f64(cfg.checkpoint_every_s);
        engine.set_checkpoint_sink(every, Box::new(JobDirSink::new(dir, cfg.id)?));
    }

    let deadline = Duration::from_secs_f64(cfg.deadline_s);
    let epoch = Instant::now();
    let outcome = std::thread::scope(|scope| {
        // The control stream is consumed in every mode; only what its
        // frames lead to differs. Both threads block on their channel.
        scope.spawn(|| {
            control_loop(
                &mesh, cfg, &protocol, &members, epoch, deadline, seen_jobs, admit, &telemetry,
            )
        });
        if let Some(reply_rx) = reply_rx {
            scope.spawn(|| reply_loop(&mesh, reply_rx));
        }
        let outcome = engine.run(&mesh, inbox, deadline);
        // The pump is gone and took its hooks along; closing the control
        // stream ends the control thread, and with it the reply channel's
        // last sender. Each thread finishes what is queued, then returns.
        mesh.close_control();
        outcome
    });

    // Let writer threads flush queued frames so the counters reflect
    // every settled send before the snapshot.
    mesh.drain(Duration::from_millis(500));

    // Dropping the last telemetry handle (the engine's clone died with
    // the engine) joins the trace writer: the file is complete before
    // the closing line goes out.
    let trace_events_dropped = telemetry.events_dropped();
    drop(telemetry);

    Ok(NodeReport {
        transport: mesh.stats(),
        outcome,
        trace_events_dropped,
        workers: cfg.workers,
    })
}

/// Resolve the problem a fresh single run solves as job 0: materialize a
/// concrete spec locally (the root additionally announces the instance,
/// so `--problem wire` peers can join a computation whose instance they
/// never generated), or — for `--problem wire` — wait for the root's
/// announce.
fn single_run_instance(
    cfg: &NodeConfig,
    mesh: &TcpMesh,
    holds_root: bool,
    peers: &[(u32, SocketAddr)],
    telemetry: &Telemetry,
) -> std::io::Result<AnyInstance> {
    let bad_input = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, msg);
    if cfg.problem != ProblemSpec::Wire {
        let instance = cfg
            .problem
            .instance()
            .map_err(|e| bad_input(e.to_string()))?;
        if holds_root && !peers.is_empty() && !mesh.announce_instance(JobId::DEFAULT, &instance) {
            // Not fatal: peers with concrete specs never read the
            // announce, so this cluster still runs. Only `--problem
            // wire` peers are affected — they will time out waiting
            // with their own clear error.
            telemetry.emit(
                "announce_too_large",
                &[("problem", instance.kind().to_string())],
            );
            eprintln!(
                "ftbb-noded: {} instance exceeds the announce frame limit; \
                 --problem wire peers (if any) cannot be served — give every \
                 node the concrete spec instead (e.g. --problem tree-file)",
                instance.kind()
            );
        }
        return Ok(instance);
    }
    if holds_root {
        return Err(bad_input(format!(
            "node {} would hold the root subproblem but has --problem wire; \
             the root must own a concrete problem spec",
            cfg.id
        )));
    }
    let patience = Duration::from_secs_f64(cfg.preconnect_s) + ANNOUNCE_GRACE;
    let asked = Instant::now();
    let (from, instance) = loop {
        match mesh.recv_control(patience.saturating_sub(asked.elapsed())) {
            Some(Control::Announce { from, instance, .. }) => break (from, instance),
            Some(other) => note_control(mesh, telemetry, other),
            None => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    format!(
                        "no problem announce arrived within {:.1}s",
                        patience.as_secs_f64()
                    ),
                ));
            }
        }
    };
    telemetry.emit(
        "announce_recv",
        &[
            ("from", from.to_string()),
            ("problem", instance.kind().to_string()),
        ],
    );
    eprintln!(
        "ftbb-noded: received {} instance from node {from}",
        instance.kind()
    );
    Ok(instance)
}

/// What every mode does with a control frame it has no further use for.
/// A join frame becomes a trace event, `rejoin_recv` for a restarted
/// node's later life and `join_recv` for a brand-new node (the mesh has
/// already re-pointed its routes); a job submitted to a node that admits
/// none is refused by closing the client's stream; an announce nobody is
/// waiting for — the root's, on a peer with a concrete spec — is
/// dropped.
fn note_control(mesh: &TcpMesh, telemetry: &Telemetry, control: Control) {
    match control {
        Control::Join(frame) => telemetry.emit(
            if frame.incarnation > 0 {
                "rejoin_recv"
            } else {
                "join_recv"
            },
            &[
                ("from", frame.from.to_string()),
                ("incarnation", frame.incarnation.to_string()),
                ("addr", frame.addr.to_string()),
            ],
        ),
        Control::Submit { job, .. } => {
            mesh.close_submitter(job);
            telemetry.for_job(job.raw()).emit("submit_refused", &[]);
        }
        Control::Announce { .. } => {}
    }
}

/// The consumer of the mesh's control stream, blocked on it until the
/// pump is gone ([`TcpMesh::close_control`]) or the node's deadline has
/// passed. On a service node (`admit` set) a job arrives either from a
/// client — this node becomes its gateway: accept the client, hold the
/// root, and leave the announce to [`reply_loop`] — or in a peer's
/// announce, which IS the admission of a follower. Everything else, in
/// every mode, goes to [`note_control`].
#[allow(clippy::too_many_arguments)]
fn control_loop(
    mesh: &TcpMesh,
    cfg: &NodeConfig,
    protocol: &ProtocolConfig,
    members: &[u32],
    epoch: Instant,
    deadline: Duration,
    mut seen: HashSet<JobId>,
    admit: Option<(Sender<Inbound>, Sender<Reply>)>,
    telemetry: &Telemetry,
) {
    while let Some(control) = mesh.recv_control(deadline.saturating_sub(epoch.elapsed())) {
        let (job, instance, announcer, (admit_tx, reply_tx)) = match (control, &admit) {
            (Control::Submit { job, instance }, Some(txs)) => (job, instance, None, txs),
            (
                Control::Announce {
                    from,
                    job,
                    instance,
                },
                Some(txs),
            ) => (job, instance, Some(from), txs),
            (other, _) => {
                note_control(mesh, telemetry, other);
                continue;
            }
        };
        let gateway = announcer.is_none();
        // Duplicate job ids are re-accepted (the client may be retrying)
        // but never admitted twice.
        let fresh = seen.insert(job);
        if fresh {
            telemetry.for_job(job.raw()).emit(
                if gateway {
                    "job_submitted"
                } else {
                    "job_announced"
                },
                &[
                    (
                        "from",
                        announcer.map_or_else(|| "client".to_string(), |n| n.to_string()),
                    ),
                    ("problem", instance.kind().to_string()),
                    ("control_depth", mesh.control_depth().to_string()),
                ],
            );
        }
        if gateway {
            mesh.send_submit_reply(job, &encode_accepted(job, cfg.id));
            if !fresh {
                let _ = reply_tx.send(Reply::Resubmitted(job));
            }
        }
        if fresh {
            if gateway {
                // Queued ahead of the admission, so the reply thread
                // holds it before the job's first result can exist.
                let _ = reply_tx.send(Reply::Gateway {
                    job,
                    instance: instance.clone(),
                });
            }
            let born = SimTime::from_secs_f64(epoch.elapsed().as_secs_f64());
            let engine = build_job(cfg, protocol, members, born, job, instance, gateway);
            let _ = admit_tx.send(Inbound::Admit(Box::new(engine)));
        }
    }
}

/// The result stream of a service node: incumbents and final outcomes,
/// written back to whoever submitted each job here, until the pump and
/// the control thread drop their senders. Peers' jobs have no registered
/// submitter; both calls are no-ops for them. A job's last result
/// releases its client's stream — a stream held past that is a socket
/// held for the life of the node. The last result is remembered, so a
/// client resubmitting a finished job gets it back at once; a job still
/// running answers the new stream when it finishes.
///
/// A gateway's job goes out to the pool with its first result, not at
/// submission, so a follower's opening work request meets a gateway past
/// its first dive and the grant carries a real incumbent. Announced at
/// submission the follower would race that dive, and how much of the
/// tree it searched blind would hang on which thread woke first. A job
/// whose first result is its last was solved before the pool could help.
fn reply_loop(mesh: &TcpMesh, replies: Receiver<Reply>) {
    let mut unannounced: HashMap<JobId, AnyInstance> = HashMap::new();
    let mut last_results: HashMap<JobId, EncodedFrame> = HashMap::new();
    for reply in replies.iter() {
        let r = match reply {
            Reply::Gateway { job, instance } => {
                unannounced.insert(job, instance);
                continue;
            }
            Reply::Resubmitted(job) => {
                if let Some(frame) = last_results.get(&job) {
                    mesh.send_submit_reply(job, frame);
                    mesh.close_submitter(job);
                }
                continue;
            }
            Reply::Result(r) => r,
        };
        if let Some(instance) = unannounced.remove(&r.job) {
            if !r.last && !mesh.announce_instance(r.job, &instance) {
                eprintln!(
                    "ftbb-noded: job {} instance exceeds the announce frame limit; \
                     solving on this node alone",
                    r.job.raw()
                );
            }
        }
        let frame = encode_result(r.job, r.finished, r.incumbent, r.expanded);
        mesh.send_submit_reply(r.job, &frame);
        if r.last {
            mesh.close_submitter(r.job);
            last_results.insert(r.job, frame);
        }
    }
}

/// Build the per-job engine for a newly admitted job: one protocol core
/// over the node's membership, born at pump time `now`, seeded per
/// `(node, job)` so concurrent jobs make independent random choices
/// (`seed ^ 0` for job 0: a single run keeps the cluster seed).
fn build_job(
    cfg: &NodeConfig,
    protocol: &ProtocolConfig,
    members: &[u32],
    now: SimTime,
    job: JobId,
    instance: AnyInstance,
    holds_root: bool,
) -> JobEngine {
    let root_bound = instance.bound(&instance.root());
    let seed = ftbb_core::node_seed(cfg.seed ^ job.raw(), cfg.id);
    let core = if cfg.gossip_mode() {
        // Membership mode: the member list is the gossip view's alive
        // set. Wired nodes seed the view with their peer map (immediate
        // load-balancing targets whose heartbeats must then keep
        // arriving); a joiner starts knowing only its servers and learns
        // the world from the Welcome.
        let server_ids: Vec<u32> = cfg.gossip_servers.iter().map(|&(id, _)| id).collect();
        let mut p = BnbProcess::with_membership(
            cfg.id,
            server_ids,
            cfg.is_gossip_server(),
            protocol.clone(),
            root_bound,
            holds_root,
            seed,
            now,
        );
        if !cfg.join {
            p.seed_membership_view(members, now);
        }
        p
    } else {
        BnbProcess::new(
            cfg.id,
            members.to_vec(),
            protocol.clone(),
            root_bound,
            holds_root,
            seed,
        )
    };
    // The engine's checkpoints carry the instance: `--resume` needs
    // neither a problem spec nor an announce.
    JobEngine::new(job, core, instance)
}

/// Render the machine-parseable readiness line a daemon prints the
/// moment its listener is bound — before it knows its peers.
pub fn ready_line(id: u32, addr: SocketAddr) -> String {
    render_line(
        "FTBB-READY",
        &[("id", id.to_string()), ("addr", addr.to_string())],
    )
}

/// Parse a line produced by [`ready_line`]. Returns `None` for
/// non-ready lines (so callers can scan whole stdout streams).
pub fn parse_ready_line(line: &str) -> Option<(u32, SocketAddr)> {
    let f = Fields::parse("FTBB-READY", line)?;
    Some((f.u32("id")?, f.get("addr")?.parse().ok()?))
}

/// Read launcher-supplied peer wiring: `peer <id>=<host>:<port>` lines
/// terminated by a `start` line. Blank lines are tolerated; anything
/// else (including EOF before `start`) is an error.
pub fn read_peer_wiring(input: impl BufRead) -> std::io::Result<Vec<(u32, SocketAddr)>> {
    let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let mut peers = Vec::new();
    for line in input.lines() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == "start" {
            return Ok(peers);
        }
        let Some(spec) = line.strip_prefix("peer ") else {
            return Err(bad(format!("unexpected wiring line `{line}`")));
        };
        peers.push(crate::config::parse_peer(spec.trim()).map_err(|e| bad(e.to_string()))?);
    }
    Err(std::io::Error::new(
        std::io::ErrorKind::UnexpectedEof,
        "stdin closed before `start`",
    ))
}

line_codec! {
    tag "FTBB-OUTCOME";
    /// One parsed `FTBB-OUTCOME` line.
    pub struct ParsedOutcome;
    /// Render the machine-parseable outcome line a single run closes
    /// with: `job` is the run's job 0 out of `report`. The incumbent is
    /// shipped as raw f64 bits so the launcher compares exactly, not
    /// through decimal.
    pub fn outcome_line(report: &NodeReport, job: &JobOutcome);
    /// Parse a line produced by [`outcome_line`]. Returns `None` for
    /// non-outcome lines (so callers can scan whole stdout streams).
    pub fn parse_outcome_line;
    fields {
        /// Node id.
        id: u32 = num("id") <- job.id,
        /// Which life of the node reported (0 = never restarted).
        incarnation: u32 = num("incarnation") <- job.incarnation,
        /// Did the node detect termination?
        terminated: bool = num("terminated") <- job.terminated,
        /// Final incumbent (exact bits).
        incumbent: f64 = bits("incumbent_bits") <- job.incumbent; "incumbent" = job.incumbent,
        /// Subproblems expanded.
        expanded: u64 = num("expanded") <- job.metrics.expanded,
        /// Pool entries pruned unexpanded at selection (incumbent improved
        /// after insertion; completed for termination, never expanded).
        pruned_at_pop: u64 = num("pruned_at_pop") <- job.metrics.pruned_at_pop,
        /// Complement recoveries performed.
        recoveries: u64 = num("recoveries") <- job.metrics.recoveries,
        /// Members suspected via heartbeat timeout (membership mode).
        suspected: u64 = num("suspected") <- job.metrics.peers_suspected,
        /// Members forgotten after the cleanup timeout (membership mode).
        forgotten: u64 = num("forgotten") <- job.metrics.peers_forgotten,
        /// Explicit bound-announce broadcasts the core flushed.
        bound_broadcasts: u64 = num("bound_bcast") <- job.metrics.bound_broadcasts,
        /// Bound improvements coalesced into an already-pending flush.
        bound_coalesced: u64 = num("bound_coalesced") <- job.metrics.bound_coalesced,
        /// Piggybacked incumbents suppressed as already-announced.
        bound_suppressed: u64 =
            num("bound_suppressed") <- job.metrics.bound_piggybacks_suppressed,
        /// Membership events the core's bounded buffer had to discard.
        membership_events_dropped: u64 =
            num("mev_dropped") <- job.metrics.membership_events_dropped,
        /// Trace events the telemetry sink's bounded queue had to discard.
        trace_events_dropped: u64 = num("trace_dropped") <- report.trace_events_dropped,
        /// Expansion worker threads the node ran with (1 = inline).
        workers: u64 = num("workers") <- report.workers,
        /// Transport counters at exit: the key group, so the parsed
        /// `transport.control_shed` is 0 — the line carries it as the
        /// next row.
        transport: TransportStats = group() <- report.transport,
        /// Control frames shed on a full control queue (a line without
        /// the key parses as 0).
        control_shed: u64 = added("control_shed") <- report.transport.control_shed,
    }
}

line_codec! {
    tag "FTBB-JOB";
    /// One parsed `FTBB-JOB` line.
    pub struct ParsedJob;
    /// Render the machine-parseable per-job outcome line a service node
    /// prints when a job completes (and again at exit for jobs still
    /// unfinished, with `terminated=false`). The incumbent ships as raw
    /// f64 bits so collectors compare exactly.
    pub fn job_line(outcome: &JobOutcome);
    /// Parse a line produced by [`job_line`]. Returns `None` for other
    /// lines (so callers can scan whole stdout streams).
    pub fn parse_job_line;
    fields {
        /// Node id.
        id: u32 = num("id") <- outcome.id,
        /// The job.
        job: u64 = num("job") <- outcome.job.raw(),
        /// Incarnation of the reporting service engine.
        incarnation: u32 = num("incarnation") <- outcome.incarnation,
        /// Did the protocol detect termination for this job?
        terminated: bool = num("terminated") <- outcome.terminated,
        /// The job's final incumbent on this node (exact bits).
        incumbent: f64 =
            bits("incumbent_bits") <- outcome.incumbent; "incumbent" = outcome.incumbent,
        /// Subproblems this node expanded for the job.
        expanded: u64 = num("expanded") <- outcome.metrics.expanded,
        /// Complement recoveries this node performed for the job.
        recoveries: u64 = num("recoveries") <- outcome.metrics.recoveries,
    }
}

line_codec! {
    tag "FTBB-SERVICE";
    /// One parsed `FTBB-SERVICE` line.
    pub struct ParsedService;
    /// Render the machine-parseable service exit line: how many jobs this
    /// node saw, how many finished, and the transport totals.
    pub fn service_line(report: &NodeReport);
    /// Parse a line produced by [`service_line`]. Returns `None` for other
    /// lines.
    pub fn parse_service_line;
    fields {
        /// Node id.
        id: u32 = num("id") <- report.outcome.id,
        /// Incarnation of the reporting service engine.
        incarnation: u32 = num("incarnation") <- report.outcome.incarnation,
        /// Jobs admitted over this life.
        jobs: u64 = num("jobs") <- report.outcome.admitted,
        /// Jobs that detected termination.
        finished: u64 = num("finished") <- report.outcome.finished,
        /// Trace events shed by the telemetry sink.
        trace_events_dropped: u64 = num("trace_dropped") <- report.trace_events_dropped,
        /// Messages handed to the wire.
        sent: u64 = num("sent") <- report.transport.sent,
        /// Send-side drops (all causes).
        dropped: u64 = num("dropped") <- report.transport.dropped(),
    }
}

line_codec! {
    tag "FTBB-METRICS";
    /// One parsed `FTBB-METRICS` interval line.
    pub struct ParsedMetrics;
    /// Render one machine-parseable `FTBB-METRICS` interval line from a
    /// live engine snapshot: the Figure-3 time breakdown (seconds per
    /// category), the protocol counters behind it, and the transport
    /// totals. Printed on stdout every `--metrics-every-s`, parseable via
    /// [`parse_metrics_line`].
    pub fn metrics_line(snap: &MetricsSnapshot);
    /// Parse a line produced by [`metrics_line`]. Returns `None` for
    /// non-metrics lines (so callers can scan whole stdout streams).
    pub fn parse_metrics_line;
    fields {
        /// Node id.
        id: u32 = num("id") <- snap.id,
        /// The job this snapshot is scoped to (0 for a single run).
        job: u64 = num("job") <- snap.job,
        /// Incarnation of the reporting engine.
        incarnation: u32 = num("incarnation") <- snap.incarnation,
        /// Snapshot sequence number within that life.
        seq: u64 = num("seq") <- snap.seq,
        /// Wall seconds since the engine started.
        elapsed_s: f64 = secs("elapsed_s") <- snap.elapsed_s,
        /// Figure-3 time breakdown; `phase.total()` reconciles with
        /// `elapsed_s`.
        phase: PhaseTimes = group() <- snap.phase,
        /// Subproblems expanded so far.
        expanded: u64 = num("expanded") <- snap.metrics.expanded,
        /// Pool entries pruned unexpanded at selection so far.
        pruned_at_pop: u64 = num("pruned_at_pop") <- snap.metrics.pruned_at_pop,
        /// Complement recoveries so far.
        recoveries: u64 = num("recoveries") <- snap.metrics.recoveries,
        /// Work reports sent so far (one per recipient).
        reports: u64 = added("reports") <- snap.metrics.reports_sent,
        /// Work requests sent so far.
        requests: u64 = added("requests") <- snap.metrics.work_requests_sent,
        /// Work grants received for a pending request so far.
        grants: u64 = added("grants") <- snap.metrics.grants_received,
        /// Seconds those requests waited for their grants, summed
        /// (`grant_wait_s / grants` is the mean request → grant latency).
        grant_wait_s: f64 = added("grant_wait_s") <- snap.metrics.grant_wait_s,
        /// Load-balancing rounds so far whose every request timed out
        /// (each stood for all `lb_rounds_before_recovery` rounds).
        silent_rounds: u64 = added("silent_rounds") <- snap.metrics.silent_rounds,
        /// Peer connections seen to close so far.
        peers_closed: u64 = added("peers_closed") <- snap.metrics.peers_closed,
        /// Members suspected so far.
        suspected: u64 = num("suspected") <- snap.metrics.peers_suspected,
        /// Members forgotten so far.
        forgotten: u64 = num("forgotten") <- snap.metrics.peers_forgotten,
        /// Explicit bound-announce broadcasts flushed so far.
        bound_broadcasts: u64 = num("bound_bcast") <- snap.metrics.bound_broadcasts,
        /// Bound improvements coalesced into a pending flush so far.
        bound_coalesced: u64 = num("bound_coalesced") <- snap.metrics.bound_coalesced,
        /// Piggybacked incumbents suppressed as already-announced so far.
        bound_suppressed: u64 =
            num("bound_suppressed") <- snap.metrics.bound_piggybacks_suppressed,
        /// Membership events discarded by the core's bounded buffer.
        membership_events_dropped: u64 =
            num("mev_dropped") <- snap.metrics.membership_events_dropped,
        /// Trace events discarded by the telemetry sink's bounded queue.
        trace_events_dropped: u64 = num("trace_dropped") <- snap.trace_events_dropped,
        /// Expansion worker threads driving the reporting engine.
        workers: u64 = num("workers") <- snap.workers,
        /// Messages handed to the wire so far.
        sent: u64 = num("sent") <- snap.transport.sent,
        /// Send-side drops so far (all causes).
        dropped: u64 = num("dropped") <- snap.transport.dropped(),
        /// Transport write flushes so far.
        flushes: u64 = num("flushes") <- snap.transport.flushes,
        /// Frames those flushes carried (`frames_flushed / flushes` is the
        /// achieved batching factor; the line also renders it directly as
        /// `frames_per_flush`).
        frames_flushed: u64 = num("frames_flushed") <- snap.transport.frames_flushed;
            "frames_per_flush" = format_args!("{:.2}", snap.transport.frames_per_flush()),
        /// Membership frames handed to the wire so far.
        membership_frames: u64 =
            num("membership_frames") <- snap.transport.membership_frames_sent,
        /// Piggybacked address-book entries those frames carried.
        book_entries: u64 = num("book_entries") <- snap.transport.book_entries_sent,
        /// Digest entries those frames carried (the line also renders the
        /// book entries per membership frame as `book_per_frame`).
        digest_entries: u64 = num("digest_entries") <- snap.transport.digest_entries_sent;
            "book_per_frame" = format_args!("{:.2}", snap.transport.book_entries_per_frame()),
        /// Explicit bound-announce frames handed to the wire so far.
        bound_frames: u64 = num("bound_frames") <- snap.transport.bound_broadcasts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{KnapsackSpec, ProblemSpec};
    use ftbb_core::ProcMetrics;

    fn sample_job() -> JobOutcome {
        JobOutcome {
            job: JobId::from(42),
            id: 3,
            incarnation: 2,
            terminated: true,
            incumbent: -127.5,
            metrics: ProcMetrics {
                expanded: 42,
                recoveries: 2,
                peers_suspected: 3,
                peers_forgotten: 1,
                bound_broadcasts: 4,
                bound_coalesced: 6,
                bound_piggybacks_suppressed: 8,
                membership_events_dropped: 17,
                ..Default::default()
            },
        }
    }

    /// A report whose transport counters are 1, 2, 3, … in declaration
    /// order, holding two jobs of which one finished, of seven admitted
    /// and five finished.
    fn sample_report() -> NodeReport {
        let mut next = 0;
        NodeReport {
            outcome: ServiceOutcome {
                id: 3,
                incarnation: 2,
                jobs: vec![
                    sample_job(),
                    JobOutcome {
                        terminated: false,
                        ..sample_job()
                    },
                ],
                admitted: 7,
                finished: 5,
                late_frames: 0,
                phase: PhaseTimes::default(),
                lifetime: Duration::from_millis(10),
            },
            transport: TransportStats {
                control_shed: 23,
                ..TransportStats::from_keyed(|_| {
                    next += 1;
                    Some(next)
                })
                .expect("every key answered")
            },
            trace_events_dropped: 5,
            workers: 4,
        }
    }

    fn sample_snapshot() -> MetricsSnapshot {
        MetricsSnapshot {
            id: 4,
            job: 3,
            incarnation: 1,
            seq: 7,
            elapsed_s: 2.5,
            phase: PhaseTimes {
                expand_s: 1.0,
                communicate_s: 0.5,
                contract_s: 0.25,
                load_balance_s: 0.125,
                membership_s: 0.0625,
                idle_s: 0.5,
                checkpoint_s: 0.0625,
            },
            metrics: ProcMetrics {
                expanded: 99,
                recoveries: 1,
                reports_sent: 13,
                work_requests_sent: 6,
                grants_received: 4,
                grant_wait_s: 0.0125,
                silent_rounds: 2,
                peers_closed: 1,
                peers_suspected: 2,
                peers_forgotten: 1,
                bound_broadcasts: 5,
                bound_coalesced: 7,
                bound_piggybacks_suppressed: 9,
                membership_events_dropped: 3,
                ..Default::default()
            },
            transport: TransportStats {
                sent: 11,
                dropped_full: 1,
                dropped_disconnected: 2,
                flushes: 5,
                frames_flushed: 10,
                membership_frames_sent: 4,
                book_entries_sent: 64,
                digest_entries_sent: 12,
                bound_broadcasts: 3,
                ..Default::default()
            },
            trace_events_dropped: 4,
            workers: 2,
        }
    }

    /// The exact text of one line per tag, captured from the hand-written
    /// renderers this module had before the lines were declared. The
    /// round-trip tests cannot see a renamed or reordered key; external
    /// collectors would.
    #[test]
    fn rendered_lines_match_the_pinned_text() {
        let report = sample_report();
        assert_eq!(
            ready_line(3, "127.0.0.1:45107".parse().unwrap()),
            "FTBB-READY id=3 addr=127.0.0.1:45107"
        );
        assert_eq!(
            outcome_line(&report, &report.outcome.jobs[0]),
            "FTBB-OUTCOME id=3 incarnation=2 terminated=true \
             incumbent_bits=0xc05fe00000000000 incumbent=-127.5 expanded=42 pruned_at_pop=0 \
             recoveries=2 suspected=3 forgotten=1 bound_bcast=4 bound_coalesced=6 \
             bound_suppressed=8 mev_dropped=17 trace_dropped=5 workers=4 sent=1 wire_bytes=2 \
             encoded_bytes=3 dropped_full=4 dropped_disconnected=5 dropped_no_route=6 \
             dropped_startup=7 dropped_stale=8 retried=9 connect_waits=10 reconnects=11 \
             announces_sent=12 announces_recv=13 rejoins=14 joins=15 discovered=16 flushes=17 \
             frames_flushed=18 membership_frames=19 book_entries=20 digest_entries=21 \
             bound_frames=22 control_shed=23"
        );
        assert_eq!(
            metrics_line(&sample_snapshot()),
            "FTBB-METRICS id=4 job=3 incarnation=1 seq=7 elapsed_s=2.500000 expand_s=1.000000 \
             communicate_s=0.500000 contract_s=0.250000 load_balance_s=0.125000 \
             membership_s=0.062500 idle_s=0.500000 checkpoint_s=0.062500 expanded=99 \
             pruned_at_pop=0 recoveries=1 reports=13 requests=6 grants=4 grant_wait_s=0.0125 \
             silent_rounds=2 peers_closed=1 suspected=2 forgotten=1 bound_bcast=5 bound_coalesced=7 bound_suppressed=9 \
             mev_dropped=3 trace_dropped=4 workers=2 sent=11 dropped=3 flushes=5 frames_flushed=10 frames_per_flush=2.00 \
             membership_frames=4 book_entries=64 digest_entries=12 book_per_frame=16.00 \
             bound_frames=3"
        );
        assert_eq!(
            job_line(&sample_job()),
            "FTBB-JOB id=3 job=42 incarnation=2 terminated=true \
             incumbent_bits=0xc05fe00000000000 incumbent=-127.5 expanded=42 recoveries=2"
        );
        assert_eq!(
            service_line(&report),
            "FTBB-SERVICE id=3 incarnation=2 jobs=7 finished=5 trace_dropped=5 sent=1 dropped=22"
        );
    }

    #[test]
    fn outcome_line_round_trips() {
        let report = sample_report();
        let job = &report.outcome.jobs[0];
        let parsed = parse_outcome_line(&outcome_line(&report, job)).expect("parses");
        assert_eq!(
            parsed,
            ParsedOutcome {
                id: 3,
                incarnation: 2,
                terminated: true,
                incumbent: -127.5,
                expanded: 42,
                pruned_at_pop: 0,
                recoveries: 2,
                suspected: 3,
                forgotten: 1,
                bound_broadcasts: 4,
                bound_coalesced: 6,
                bound_suppressed: 8,
                membership_events_dropped: 17,
                trace_events_dropped: 5,
                workers: 4,
                transport: TransportStats {
                    control_shed: 0,
                    ..report.transport
                },
                control_shed: 23,
            }
        );
        // A line from before the shed counter parses, with a zero.
        let older = outcome_line(&report, job).replace(" control_shed=23", "");
        let parsed = parse_outcome_line(&older).expect("parses");
        assert_eq!(parsed.control_shed, 0);
        assert_eq!(parse_outcome_line("unrelated noise"), None);
    }

    #[test]
    fn metrics_line_round_trips() {
        let snap = sample_snapshot();
        let parsed = parse_metrics_line(&metrics_line(&snap)).expect("parses");
        assert_eq!(
            parsed,
            ParsedMetrics {
                id: 4,
                job: 3,
                incarnation: 1,
                seq: 7,
                elapsed_s: 2.5,
                phase: snap.phase,
                expanded: 99,
                pruned_at_pop: 0,
                recoveries: 1,
                reports: 13,
                requests: 6,
                grants: 4,
                grant_wait_s: 0.0125,
                silent_rounds: 2,
                peers_closed: 1,
                suspected: 2,
                forgotten: 1,
                bound_broadcasts: 5,
                bound_coalesced: 7,
                bound_suppressed: 9,
                membership_events_dropped: 3,
                trace_events_dropped: 4,
                workers: 2,
                sent: 11,
                dropped: 3,
                flushes: 5,
                frames_flushed: 10,
                membership_frames: 4,
                book_entries: 64,
                digest_entries: 12,
                bound_frames: 3,
            }
        );
        assert!((parsed.phase.total() - 2.5).abs() < 1e-9);
        // A line from before the report and grant counters parses, with
        // zeros.
        let older =
            metrics_line(&snap).replace(" reports=13 requests=6 grants=4 grant_wait_s=0.0125", "");
        let parsed = parse_metrics_line(&older).expect("parses");
        assert_eq!((parsed.reports, parsed.requests), (0, 0));
        assert_eq!((parsed.grants, parsed.grant_wait_s), (0, 0.0));
        // So does one from before the silent-round counter, and one from
        // before the closed-peer counter.
        let older = metrics_line(&snap).replace(" silent_rounds=2", "");
        assert_eq!(parse_metrics_line(&older).unwrap().silent_rounds, 0);
        let older = metrics_line(&snap).replace(" peers_closed=1", "");
        assert_eq!(parse_metrics_line(&older).unwrap().peers_closed, 0);
        assert_eq!(parse_metrics_line("FTBB-OUTCOME id=1"), None);
        assert_eq!(parse_metrics_line("noise"), None);
    }

    #[test]
    fn ready_line_round_trips() {
        let addr: SocketAddr = "127.0.0.1:45107".parse().unwrap();
        let line = ready_line(3, addr);
        assert_eq!(parse_ready_line(&line), Some((3, addr)));
        assert_eq!(parse_ready_line("FTBB-OUTCOME id=3"), None);
        assert_eq!(parse_ready_line("noise"), None);
        assert_eq!(parse_ready_line("FTBB-READY id=x addr=nope"), None);
    }

    #[test]
    fn peer_wiring_parses_and_rejects() {
        let wiring = "peer 1=127.0.0.1:4501\n\npeer 2=127.0.0.1:4502\nstart\nignored-after\n";
        let peers = read_peer_wiring(wiring.as_bytes()).unwrap();
        assert_eq!(
            peers,
            vec![
                (1, "127.0.0.1:4501".parse().unwrap()),
                (2, "127.0.0.1:4502".parse().unwrap()),
            ]
        );

        // EOF before `start` is an error, as is junk.
        assert!(read_peer_wiring("peer 1=127.0.0.1:4501\n".as_bytes()).is_err());
        assert!(read_peer_wiring("launch the missiles\nstart\n".as_bytes()).is_err());
        assert!(read_peer_wiring("peer 1=not-an-addr\nstart\n".as_bytes()).is_err());
    }

    #[test]
    fn job_and_service_lines_round_trip() {
        assert_eq!(
            parse_job_line(&job_line(&sample_job())),
            Some(ParsedJob {
                id: 3,
                job: 42,
                incarnation: 2,
                terminated: true,
                incumbent: -127.5,
                expanded: 42,
                recoveries: 2,
            })
        );
        assert_eq!(parse_job_line("FTBB-OUTCOME id=1"), None);

        assert_eq!(
            parse_service_line(&service_line(&sample_report())),
            Some(ParsedService {
                id: 3,
                incarnation: 2,
                jobs: 7,
                finished: 5,
                trace_events_dropped: 5,
                sent: 1,
                dropped: 22,
            })
        );
        assert_eq!(parse_service_line("noise"), None);
    }

    #[test]
    fn sink_routes_atomic_snapshots_per_job_and_scan_restores_all() {
        let dir = std::env::temp_dir().join("ftbb-wire-jobsink-test");
        std::fs::remove_dir_all(&dir).ok();
        let mut sink = JobDirSink::new(&dir, 7).unwrap();

        let problem = std::sync::Arc::new(AnyInstance::from(ftbb_bnb::MaxSatInstance::generate(
            4, 8, 2,
        )));
        let chk = |job: u64| {
            BnbProcess::new(
                7,
                vec![6, 7],
                ftbb_core::ProtocolConfig::default(),
                0.0,
                true,
                1,
            )
            .checkpoint()
            .bind(0, Some(problem.clone()))
            .with_job(JobId::from(job))
        };
        sink.store(&chk(11)).unwrap();
        sink.store(&chk(22)).unwrap();

        let path = job_checkpoint_path(&dir, 7, JobId::from(11));
        assert_eq!(path, dir.join("node-7-job-11.ckpt"));
        assert_eq!(
            Checkpoint::decode(&std::fs::read(&path).unwrap()).unwrap(),
            chk(11)
        );
        assert!(job_checkpoint_path(&dir, 7, JobId::from(22)).exists());
        assert!(
            !dir.join("node-7-job-11.ckpt.tmp").exists(),
            "tmp files must be renamed away"
        );

        // A second store of the same job overwrites in place (rename
        // semantics) and leaves the other job's file alone.
        sink.store(&chk(11).bind(2, Some(problem.clone()))).unwrap();
        let back = Checkpoint::decode(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(back.incarnation, 2);

        // The scan restores every job (sorted), and skips other nodes'
        // files.
        sink.store(&chk(33)).unwrap(); // a third job
        let mut other = JobDirSink::new(&dir, 8).unwrap();
        let mut foreign = chk(99);
        foreign.me = 8;
        other.store(&foreign).unwrap();

        let found = scan_job_checkpoints(&dir, 7).unwrap();
        assert_eq!(
            found.iter().map(|c| c.job.raw()).collect::<Vec<_>>(),
            vec![11, 22, 33]
        );
        assert!(found.iter().all(|c| c.me == 7));

        // A corrupt file is a loud error, not a silently dropped job.
        std::fs::write(dir.join("node-7-job-44.ckpt"), b"garbage").unwrap();
        assert!(scan_job_checkpoints(&dir, 7).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_node_service_solves_submitted_jobs() {
        // One service node, two jobs submitted over real sockets via the
        // submit client: both must reach their sequential optima and
        // stream results back.
        let addr = crate::tcp::free_addr();
        let cfg = NodeConfig {
            id: 0,
            listen: addr,
            peers: Vec::new(),
            service: true,
            deadline_s: 3.0,
            seed: 5,
            ..Default::default()
        };
        let handle = std::thread::spawn(move || run(&cfg).expect("service runs"));

        let knap = AnyInstance::from(ftbb_bnb::KnapsackInstance::generate(
            14,
            50,
            ftbb_bnb::Correlation::Uncorrelated,
            0.5,
            3,
        ));
        let sat = AnyInstance::from(ftbb_bnb::MaxSatInstance::generate(10, 30, 2));

        // The daemon thread may not have bound its listener yet.
        let started = Instant::now();
        let a = loop {
            match crate::submit::submit_job(addr, JobId::from(1), &knap, Duration::from_secs(10)) {
                Err(e)
                    if e.kind() == std::io::ErrorKind::ConnectionRefused
                        && started.elapsed() < Duration::from_secs(5) =>
                {
                    std::thread::sleep(Duration::from_millis(5));
                }
                result => break result.expect("job 1 submits"),
            }
        };
        let b = crate::submit::submit_job(addr, JobId::from(2), &sat, Duration::from_secs(10))
            .expect("job 2 submits");

        let report = handle.join().expect("service thread");
        assert_eq!((report.outcome.admitted, report.outcome.finished), (2, 2));
        assert!(report.outcome.jobs.is_empty(), "finished jobs are retired");

        for (job, instance, result) in [(1u64, &knap, &a), (2u64, &sat, &b)] {
            assert_eq!(result.accepted_by, 0);
            assert!(result.finished, "job {job} must finish");
            let reference = ftbb_bnb::solve(instance, &ftbb_bnb::SolveConfig::default());
            assert_eq!(Some(result.incumbent), reference.best, "job {job} parity");
        }
    }

    #[test]
    fn a_single_run_node_refuses_submitted_jobs() {
        // Node 1 is a `--problem wire` peer of a root that has not
        // announced yet, so it sits in the announce wait — alive, not a
        // service. A job submitted to it must be refused at once (stream
        // closed), not parked until the client's own timeout.
        let root_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let root_addr = root_listener.local_addr().unwrap();
        let addr = crate::tcp::free_addr();
        let cfg = NodeConfig {
            id: 1,
            listen: addr,
            peers: vec![(0, root_addr)],
            problem: ProblemSpec::Wire,
            preconnect_s: 10.0,
            deadline_s: 0.5,
            ..Default::default()
        };
        let node = std::thread::spawn(move || run(&cfg).expect("single run"));
        let (root, _root_inbox) =
            TcpMesh::from_listener_incarnated_with(0, 0, root_listener, &[(1, addr)], WireConfig)
                .unwrap();
        assert!(root.ready(Duration::from_secs(10)), "node 1 comes up");

        let tiny = AnyInstance::from(ftbb_bnb::MaxSatInstance::generate(6, 12, 9));
        let err = crate::submit::submit_job(addr, JobId::from(5), &tiny, Duration::from_secs(5))
            .expect_err("a single-run node admits no jobs");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
        assert!(
            err.to_string()
                .contains("gateway closed the stream before job 5 finished"),
            "{err}"
        );

        // Release the node: the announce it was waiting for. Its root
        // never speaks the protocol, so it runs out its short deadline.
        assert!(root.announce_instance(JobId::DEFAULT, &tiny));
        let report = node.join().expect("node thread");
        assert_eq!(report.outcome.jobs.len(), 1);
        assert_eq!(report.outcome.jobs[0].job, JobId::DEFAULT);
    }

    #[test]
    fn a_gateway_announces_a_job_with_its_first_result_not_before() {
        // Node 0's reply thread over a live mesh; node 1 is a bare mesh
        // that shows what the pool hears, and when.
        let mesh = |id: u32, listener: TcpListener, peer: (u32, SocketAddr)| {
            TcpMesh::from_listener_incarnated_with(id, 0, listener, &[peer], WireConfig).unwrap()
        };
        let (listener_0, listener_1) = (
            TcpListener::bind("127.0.0.1:0").unwrap(),
            TcpListener::bind("127.0.0.1:0").unwrap(),
        );
        let addrs = (
            listener_0.local_addr().unwrap(),
            listener_1.local_addr().unwrap(),
        );
        let (gateway, _inbox_0) = mesh(0, listener_0, (1, addrs.1));
        let (peer, _inbox_1) = mesh(1, listener_1, (0, addrs.0));
        assert!(gateway.ready(Duration::from_secs(10)));

        let tiny = AnyInstance::from(ftbb_bnb::MaxSatInstance::generate(6, 12, 9));
        let result = |job: u64, last: bool| {
            Reply::Result(SubmitReply {
                job: JobId::from(job),
                finished: last,
                incumbent: 3.0,
                expanded: 0,
                last,
            })
        };
        let owed = |job: u64| Reply::Gateway {
            job: JobId::from(job),
            instance: tiny.clone(),
        };
        let quiet = Duration::from_millis(100);
        let (tx, rx) = channel();
        std::thread::scope(|scope| {
            scope.spawn(|| reply_loop(&gateway, rx));

            // Submitted and admitted, no result yet: the pool hears nothing.
            assert!(tx.send(owed(7)).is_ok());
            assert!(peer.recv_control(quiet).is_none(), "announced too early");

            // The first incumbent takes the announce along — once.
            assert!(tx.send(result(7, false)).is_ok());
            match peer.recv_control(Duration::from_secs(5)) {
                Some(Control::Announce {
                    from,
                    job,
                    instance,
                }) => {
                    assert_eq!((from, job), (0, JobId::from(7)));
                    assert_eq!(instance, tiny);
                }
                other => panic!("expected job 7's announce, got {other:?}"),
            }
            assert!(tx.send(result(7, false)).is_ok());
            assert!(tx.send(result(7, true)).is_ok());

            // Solved before any incumbent streamed out: never announced.
            assert!(tx.send(owed(8)).is_ok());
            assert!(tx.send(result(8, true)).is_ok());
            assert!(peer.recv_control(quiet).is_none(), "nothing left to share");
            drop(tx);
        });
    }

    fn single_run_cfg() -> NodeConfig {
        NodeConfig {
            id: 0,
            listen: "127.0.0.1:0".parse().unwrap(),
            peers: Vec::new(),
            problem: ProblemSpec::Knapsack(KnapsackSpec {
                n: 12,
                range: 40,
                ..Default::default()
            }),
            deadline_s: 30.0,
            seed: 5,
            ..Default::default()
        }
    }

    #[test]
    fn single_node_tcp_cluster_solves() {
        // The smallest possible multi-process deployment: one node, no
        // peers, real sockets for self-traffic — one job, the default
        // one.
        let cfg = single_run_cfg();
        let report = run(&cfg).expect("run succeeds");
        assert_eq!(report.outcome.incarnation, 0);
        assert_eq!(report.outcome.jobs.len(), 1);
        let job = &report.outcome.jobs[0];
        assert_eq!(job.job, JobId::DEFAULT);
        assert!(job.terminated, "single node must terminate");
        let reference = ftbb_bnb::solve(
            &cfg.problem.instance().unwrap(),
            &ftbb_bnb::SolveConfig::default(),
        );
        assert_eq!(Some(job.incumbent), reference.best);
    }

    #[test]
    fn single_node_checkpoints_and_resumes_terminated() {
        // A full single-process lifecycle: run with checkpoints, then
        // resume the finished snapshot — the second life must come back
        // as incarnation 1, already terminated, same incumbent.
        let dir = std::env::temp_dir().join("ftbb-wire-noded-resume-test");
        std::fs::remove_dir_all(&dir).ok();
        let cfg = NodeConfig {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every_s: 0.05,
            ..single_run_cfg()
        };
        let first = run(&cfg).expect("first life runs");
        assert!(first.outcome.jobs[0].terminated);
        let path = job_checkpoint_path(&dir, 0, JobId::DEFAULT);
        assert!(path.exists(), "a single run checkpoints as job 0");

        let resumed_cfg = NodeConfig {
            resume: true,
            ..cfg
        };
        let second = run(&resumed_cfg).expect("second life runs");
        assert_eq!(second.outcome.incarnation, 1);
        assert_eq!(second.outcome.jobs.len(), 1);
        let job = &second.outcome.jobs[0];
        assert!(job.terminated);
        assert_eq!(job.incumbent, first.outcome.jobs[0].incumbent);
        // The finished table restored: nothing left to expand, and the
        // engine exits promptly instead of idling to the deadline.
        assert_eq!(job.metrics.expanded, 0);
        assert!(
            second.outcome.lifetime < Duration::from_secs(10),
            "a restored-terminated engine must not idle to the deadline: {:?}",
            second.outcome.lifetime
        );

        // And the file now records the second life.
        let chk = Checkpoint::decode(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(chk.incarnation, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_without_a_snapshot_fails_loudly() {
        let dir = std::env::temp_dir().join("ftbb-wire-noded-nosnap-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = NodeConfig {
            id: 9,
            listen: "127.0.0.1:0".parse().unwrap(),
            checkpoint_dir: Some(dir.clone()),
            resume: true,
            ..Default::default()
        };
        let err = run(&cfg).expect_err("nothing to resume from");
        assert!(err.to_string().contains("checkpoint"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
