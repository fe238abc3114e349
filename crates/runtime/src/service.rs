//! The multi-job solve service: one pump, one transport, N jobs.
//!
//! Every node runs this one engine, split in two:
//!
//! * [`JobEngine`] — the thin per-job state machine (admitted →
//!   announced → solving → halted): one [`BnbProcess`], the job's
//!   [`AnyInstance`] and the [`AnyExpander`] made from it, one timer
//!   wheel, one pending-action queue, restorable from a job-scoped
//!   [`Checkpoint`]. With a worker pool, the pump registers each job's
//!   expander with the pool as a plain clone.
//! * [`ServiceEngine`] — owns the event pump. It multiplexes any number
//!   of concurrent [`JobEngine`]s over **one** inbox, one phase clock,
//!   and one transport: each loop iteration executes one pending action
//!   from the next job in round-robin order, folds inbound envelopes to
//!   the engine their [`JobId`] stamp names, fires every job's due
//!   timers, and runs the checkpoint/metrics cadences per job.
//!
//! A single run is the one-job case: the daemon (and [`crate::run_node`])
//! admits exactly one job ([`JobId::DEFAULT`]) before the pump starts, so
//! the 1-job pump *is* the N-job pump, and everything the single-run
//! regressions pin (phase reconciliation, restored-terminated fast exit,
//! snapshot cadence) holds for the service by construction.
//!
//! In daemon mode ([`ServiceEngine::daemon`]) the pump outlives its
//! jobs. New [`JobEngine`]s arrive while the pump runs on the same inbox
//! as the protocol frames ([`Inbound::Admit`]), so an idle pump wakes for
//! a new job as soon as for a frame. Completed jobs are reported through
//! [`ServiceHooks`] (incumbent improvements, completion) and then
//! retired: the pump drops the job and keeps only its id, so its loops,
//! its metrics lines and its memory follow the live jobs, not every job
//! it has served. Frames for a retired job are counted and dropped. The
//! engine exits only at its deadline. Envelopes for jobs not yet
//! admitted are stashed (bounded) and replayed on admission, so
//! job-announce races with protocol traffic lose nothing.

use crate::node::{CrashSwitch, MetricsReporter, MetricsSnapshot};
use crate::pool::{unit_deadline, Work, WorkerPool};
use crate::telemetry::Telemetry;
use crate::transport::{Envelope, Inbound, Transport};
use crossbeam::channel::{Receiver, RecvTimeoutError};
use ftbb_bnb::AnyInstance;
use ftbb_core::{
    Action, AnyExpander, BnbProcess, Checkpoint, CheckpointSink, Expander, JobId, MembershipEvent,
    NullSink, PEvent, PTimer, PhaseTimes, ProcMetrics, Protocol, ProtocolConfig, TimeCategory,
};
use ftbb_des::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bound on envelopes stashed per not-yet-admitted job. Traffic for a
/// job can outrun its admission (the announce frame races work grants);
/// everything within the bound is replayed when the job is admitted,
/// anything beyond is dropped — the protocol's loss tolerance covers it.
pub const JOB_STASH_CAP: usize = 256;

/// Bound on the job ids stashed at once. A frame stamped with an id that
/// is never admitted (a stale job, an announce that failed validation,
/// any nonzero id sent to a single-run node) would otherwise pin a
/// backlog for the node's whole life; envelopes for a new id past this
/// bound are dropped like those past [`JOB_STASH_CAP`].
pub const STASHED_JOBS_CAP: usize = 64;

/// Charge the wall time since `*mark` to `cat` and advance the mark.
pub(crate) fn charge(phase: &mut PhaseTimes, mark: &mut Instant, cat: TimeCategory) {
    let now = Instant::now();
    phase.add(cat, now.duration_since(*mark).as_secs_f64());
    *mark = now;
}

/// A pending timer in a job's heap: ordered by `(at, seq)` — and *equal*
/// by that key too, so `Ord`, `PartialOrd`, `PartialEq`, and `Eq` agree.
/// Equal deadlines fire in arming order (`seq` is unique per entry), the
/// order the simulator's event queue uses, so the two harnesses cannot
/// drift apart on simultaneous deadlines.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TimerEntry {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
    pub(crate) timer: PTimer,
}

impl TimerEntry {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for TimerEntry {}

impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// What one job reports when it completes (or when the service exits
/// with the job still unfinished — `terminated: false`).
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The job.
    pub job: JobId,
    /// Reporting node id.
    pub id: u32,
    /// Incarnation of the reporting service engine.
    pub incarnation: u32,
    /// Did the protocol detect termination for this job?
    pub terminated: bool,
    /// The job's final incumbent on this node.
    pub incumbent: f64,
    /// The job's protocol counters on this node.
    pub metrics: ProcMetrics,
}

/// What a service engine reports when its pump exits.
#[derive(Debug)]
pub struct ServiceOutcome {
    /// Node id.
    pub id: u32,
    /// Which life of the node produced this outcome.
    pub incarnation: u32,
    /// Outcomes of the jobs the pump still held at exit, in admission
    /// order: every job of a run that is not a daemon (a single run's job
    /// is `jobs[0]`). A daemon retires each job once its outcome has gone
    /// out through [`ServiceHooks::on_complete`], so here it lists only
    /// the jobs its deadline cut short.
    pub jobs: Vec<JobOutcome>,
    /// Jobs admitted over this life, retired ones included.
    pub admitted: u64,
    /// Jobs reported with termination detected, retired ones included.
    pub finished: u64,
    /// Frames that arrived for a halted or retired job, dropped.
    pub late_frames: u64,
    /// Figure-3 wall-time breakdown of this life (service-wide: the pump
    /// is shared, so the phase clock is too).
    pub phase: PhaseTimes,
    /// Wall-clock lifetime.
    pub lifetime: Duration,
}

/// Hook fired when a job completes (see [`ServiceHooks::on_complete`]).
pub type CompleteHook = Box<dyn FnMut(&JobOutcome) + Send>;

/// Callbacks a deployment installs on a [`ServiceEngine`]. All optional;
/// they fire on the pump thread, so keep them cheap (hand results to a
/// channel or a socket writer, don't compute).
#[derive(Default)]
pub struct ServiceHooks {
    /// A job's incumbent improved (streamed to submitters).
    pub on_incumbent: Option<Box<dyn FnMut(JobId, f64) + Send>>,
    /// A job completed (termination detected), or the service exited
    /// with the job unfinished (`terminated: false`).
    pub on_complete: Option<CompleteHook>,
}

/// The thin per-job engine: one protocol process, the job's instance and
/// its expander, one timer wheel, one action queue. Lifecycle: admitted
/// (constructed or restored) → started by the service pump → solving →
/// halted.
pub struct JobEngine {
    job: JobId,
    pub(crate) core: BnbProcess,
    expander: AnyExpander,
    /// The materialized workload, embedded in emitted checkpoints so a
    /// restore needs no problem spec and no announce frame.
    problem: Arc<AnyInstance>,
    timers: BinaryHeap<Reverse<TimerEntry>>,
    timer_seq: u64,
    pending: VecDeque<Action>,
    /// The buffer [`Protocol::step`] writes into, drained into `pending`.
    out: Vec<Action>,
    halted: bool,
    /// Job-stamped telemetry clone, installed at admission.
    telemetry: Telemetry,
    /// Outcome already delivered through the hooks.
    reported: bool,
    /// Work units handed to the worker pool and not yet harvested: the
    /// job is retired only once the pool holds nothing of it.
    in_pool: usize,
    last_recoveries: u64,
    last_incumbent: f64,
    metrics_seq: u64,
}

impl JobEngine {
    /// A job engine around an unstarted (or restored) process, solving
    /// `problem`. Its checkpoints carry the problem, so they restore
    /// without a problem spec.
    pub fn new(job: JobId, core: BnbProcess, problem: impl Into<Arc<AnyInstance>>) -> JobEngine {
        let problem = problem.into();
        JobEngine {
            job,
            core,
            // One deep copy per engine (the expander owns its instance);
            // the binding itself stays shared for the engine's lifetime.
            expander: AnyExpander::new((*problem).clone()),
            problem,
            timers: BinaryHeap::new(),
            timer_seq: 0,
            pending: VecDeque::new(),
            out: Vec::new(),
            halted: false,
            telemetry: Telemetry::disabled(),
            reported: false,
            in_pool: 0,
            last_recoveries: 0,
            last_incumbent: f64::INFINITY,
            metrics_seq: 0,
        }
    }

    /// Restore a job engine from a job-scoped checkpoint carrying a
    /// problem binding. The job id comes from the checkpoint; the
    /// incarnation is the *service's* (per node life, not per job). A
    /// checkpoint read from disk may carry no binding; that is refused.
    pub fn restore(
        chk: &Checkpoint,
        cfg: ProtocolConfig,
        rng_seed: u64,
    ) -> Result<JobEngine, String> {
        let problem = chk
            .problem
            .clone()
            .ok_or("checkpoint carries no problem binding; cannot rebuild the expander")?;
        Ok(JobEngine::new(
            chk.job,
            BnbProcess::restore(chk, cfg, rng_seed),
            problem,
        ))
    }

    /// This engine's job.
    pub fn job(&self) -> JobId {
        self.job
    }

    /// Has the job halted (terminated, with its final actions flushed)?
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Did the protocol detect termination for this job?
    pub fn terminated(&self) -> bool {
        self.core.is_terminated()
    }

    /// The job's current incumbent on this node.
    pub fn incumbent(&self) -> f64 {
        self.core.incumbent()
    }

    /// Snapshot the job's durable state, scoped to its job id and tagged
    /// with the service's incarnation and the problem binding.
    pub fn checkpoint(&self, incarnation: u32) -> Checkpoint {
        self.core
            .checkpoint()
            .bind(incarnation, Some(Arc::clone(&self.problem)))
            .with_job(self.job)
    }

    /// Handle the protocol `Start` event (the admitted → solving
    /// transition). A process restored from a post-termination
    /// checkpoint is done already; it emitted its Halt in a previous
    /// life and will not emit another.
    fn start(&mut self, t: SimTime) {
        self.step(PEvent::Start, t);
        self.halted |= self.core.is_terminated();
        self.last_incumbent = self.core.incumbent();
        self.last_recoveries = self.core.metrics().recoveries;
    }

    /// Step the job's process and queue the actions it requests.
    fn step(&mut self, event: PEvent, t: SimTime) {
        self.core.step(event, t, &mut self.out);
        self.pending.extend(self.out.drain(..));
    }

    /// Arm `timer` to fire `delay_s` after `t`.
    fn arm(&mut self, t: SimTime, delay_s: f64, timer: PTimer) {
        let at = t + SimTime::from_secs_f64(delay_s);
        let seq = self.timer_seq;
        self.timers.push(Reverse(TimerEntry { at, seq, timer }));
        self.timer_seq += 1;
    }

    /// Take the first timer due by `t`, if any.
    fn pop_due(&mut self, t: SimTime) -> Option<PTimer> {
        let due = self.timers.peek()?.0.at <= t;
        due.then(|| self.timers.pop().expect("peeked").0.timer)
    }

    fn deliver(&mut self, env: Envelope, t: SimTime) {
        let (from, msg) = (env.from, env.msg);
        self.step(PEvent::Recv { from, msg }, t);
    }

    fn outcome(&self, id: u32, incarnation: u32) -> JobOutcome {
        JobOutcome {
            job: self.job,
            id,
            incarnation,
            terminated: self.core.is_terminated(),
            incumbent: self.core.incumbent(),
            metrics: self.core.metrics().clone(),
        }
    }
}

/// The multi-job pump: owns the inbox, the phase clock, and a set of
/// [`JobEngine`]s it schedules round-robin — one pending action per loop
/// iteration, so jobs interleave with each other exactly as computation
/// interleaves with communication inside one job.
pub struct ServiceEngine {
    id: u32,
    incarnation: u32,
    /// The jobs the pump holds: every admitted job, less those retired.
    jobs: Vec<JobEngine>,
    cursor: usize,
    telemetry: Telemetry,
    metrics_every: Option<Duration>,
    metrics_out: Option<MetricsReporter>,
    hooks: ServiceHooks,
    daemon: bool,
    stash: HashMap<JobId, VecDeque<Envelope>>,
    /// Ids of the jobs a daemon has retired: their late frames are
    /// counted and dropped, never stashed.
    retired: HashSet<JobId>,
    admitted: u64,
    finished: u64,
    late_frames: u64,
    /// Configured expansion parallelism (1 = inline, no pool).
    workers: usize,
    /// The expansion worker pool, present only when `workers > 1`.
    pool: Option<WorkerPool>,
}

impl ServiceEngine {
    /// A service engine for node `id`, life `incarnation`, with no jobs
    /// admitted yet.
    pub fn new(id: u32, incarnation: u32) -> ServiceEngine {
        ServiceEngine {
            id,
            incarnation,
            jobs: Vec::new(),
            cursor: 0,
            telemetry: Telemetry::disabled(),
            metrics_every: None,
            metrics_out: None,
            hooks: ServiceHooks::default(),
            daemon: false,
            stash: HashMap::new(),
            retired: HashSet::new(),
            admitted: 0,
            finished: 0,
            late_frames: 0,
            workers: 1,
            pool: None,
        }
    }

    /// Install a structured trace sink; per-job events are emitted
    /// through job-stamped clones ([`Telemetry::for_job`]).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Install a periodic metrics reporter: every `every` of wall time,
    /// `out` receives one job-scoped [`MetricsSnapshot`] per live job,
    /// and each job's final snapshot once — at its retirement, or at
    /// exit (see [`MetricsSnapshot::job`]).
    pub fn set_metrics_reporter(&mut self, every: Duration, out: MetricsReporter) {
        self.metrics_every = Some(every);
        self.metrics_out = Some(out);
    }

    /// Install lifecycle callbacks.
    pub fn set_hooks(&mut self, hooks: ServiceHooks) {
        self.hooks = hooks;
    }

    /// Daemon mode: run to the deadline even when every admitted job has
    /// completed (the pool is long-lived; jobs stream in on the inbox),
    /// and retire each job once its outcome is reported. Off by default
    /// — a single run exits when its job halts.
    pub fn daemon(&mut self, on: bool) {
        self.daemon = on;
    }

    /// Run work units on `n` worker threads (a [`WorkerPool`]) instead
    /// of inline in the event pump. `1` — the default — keeps the inline
    /// path. The protocol state machine stays on the pump thread either
    /// way, and each job still has at most one unit outstanding, so the
    /// solved optimum is identical at every worker count; only wall time
    /// moves.
    pub fn set_workers(&mut self, n: usize) {
        assert!(n >= 1, "a node needs at least one expansion worker");
        self.workers = n;
        self.pool = (n > 1).then(|| WorkerPool::new(n));
    }

    /// Admit a job before the pump starts. (A running pump admits the
    /// jobs that arrive on its inbox as [`Inbound::Admit`].)
    pub fn admit(&mut self, engine: JobEngine) {
        debug_assert_eq!(engine.core.id(), self.id, "job engine belongs to this node");
        self.jobs.push(engine);
        self.admitted += 1;
    }

    /// Drive the pump with no persistence.
    pub fn run(
        self,
        transport: &dyn Transport,
        inbox: Receiver<Inbound>,
        crash: CrashSwitch,
        hard_deadline: Duration,
    ) -> Option<ServiceOutcome> {
        self.run_with_sink(transport, inbox, crash, hard_deadline, &mut NullSink, None)
    }

    /// Drive the pump until every job halts (or, in daemon mode, until
    /// the deadline), emitting per-job snapshots through `sink` at each
    /// job's admission, every `checkpoint_every`, and at each job's
    /// completion. Returns `None` if the node was crashed — crashed
    /// nodes report nothing.
    pub fn run_with_sink(
        mut self,
        transport: &dyn Transport,
        inbox: Receiver<Inbound>,
        crash: CrashSwitch,
        hard_deadline: Duration,
        sink: &mut dyn CheckpointSink,
        checkpoint_every: Option<Duration>,
    ) -> Option<ServiceOutcome> {
        let id = self.id;
        let epoch = Instant::now();
        let now = |epoch: Instant| SimTime::from_secs_f64(epoch.elapsed().as_secs_f64());
        // Snapshots are taken only on a checkpoint cadence.
        let mut sink = checkpoint_every.map(|_| sink);

        // The Figure-3 phase clock: every slice of wall time between two
        // marks is charged to exactly one category, so the per-category
        // sums reconcile with elapsed wall time. One clock for the whole
        // service — the pump is shared, so its time is.
        let mut phase = PhaseTimes::default();
        let mut mark = epoch;

        let finished_already =
            !self.jobs.is_empty() && self.jobs.iter().all(|j| j.core.is_terminated());
        self.telemetry.emit(
            "engine_start",
            &[
                ("finished_already", finished_already.to_string()),
                ("jobs", self.jobs.len().to_string()),
            ],
        );
        let t0 = now(epoch);
        for idx in 0..self.jobs.len() {
            self.start_job(idx, t0);
        }
        charge(&mut phase, &mut mark, TimeCategory::Expand);
        // An immediate snapshot bounds the restart hole: even a node
        // killed moments after (re)starting leaves restorable files.
        let mut last_checkpoint = Instant::now();
        if let Some(sink) = sink.as_deref_mut() {
            for idx in 0..self.jobs.len() {
                self.store_snapshot(idx, sink);
            }
            charge(&mut phase, &mut mark, TimeCategory::Checkpoint);
        }
        let mut last_metrics = Instant::now();

        loop {
            if crash.is_crashed() {
                return None;
            }
            if epoch.elapsed() > hard_deadline {
                // Deadline: the service's clean shutdown (daemon mode) or
                // the tests' safety valve; unfinished jobs report
                // `terminated: false`.
                break;
            }

            // Harvest completed pool work (non-blocking).
            if let Some(pool) = self.pool.as_mut() {
                let done: Vec<_> = std::iter::from_fn(|| pool.try_harvest()).collect();
                if !done.is_empty() {
                    self.deliver_work(done, now(epoch));
                    charge(&mut phase, &mut mark, TimeCategory::Expand);
                }
            }

            if let Some(idx) = self.next_actionable() {
                let action = self.jobs[idx].pending.pop_front().expect("peeked");
                let job = self.jobs[idx].job;
                match action {
                    Action::Send { to, msg } => {
                        transport.send(job, id, to, msg);
                        charge(&mut phase, &mut mark, TimeCategory::Communicate);
                    }
                    Action::StartWork { code, seq } => {
                        // One work unit: the depth-first search below the
                        // code from the job's incumbent, for at most the
                        // report gap of wall time — so the inbox, the timer
                        // wheels and the *other jobs* wait at most that long
                        // for this job's tree walk.
                        let engine = &mut self.jobs[idx];
                        let incumbent = engine.core.incumbent();
                        let budget = Duration::from_secs_f64(engine.core.config().report_gap_s());
                        if let Some(pool) = self.pool.as_mut() {
                            // Pool path: hand the unit to a worker thread
                            // and keep pumping — the result comes back
                            // through the harvest at the top of the loop,
                            // as a `UnitDone` indistinguishable from the
                            // inline one. The protocol's `work_seq` guard
                            // handles results that raced an interrupt.
                            pool.submit_unit(job.raw(), seq, code, incumbent, budget);
                            engine.in_pool += 1;
                        } else {
                            let mut keep_going = unit_deadline(budget);
                            let unit = engine.expander.explore(&code, incumbent, &mut keep_going);
                            engine.step(PEvent::UnitDone { seq, unit }, now(epoch));
                        }
                        charge(&mut phase, &mut mark, TimeCategory::Expand);
                    }
                    Action::SetTimer { delay_s, timer } => {
                        self.jobs[idx].arm(now(epoch), delay_s, timer);
                        charge(&mut phase, &mut mark, timer.category());
                    }
                    Action::Halt => {
                        let engine = &mut self.jobs[idx];
                        engine.halted = true;
                        engine.telemetry.emit(
                            "halt",
                            &[("incumbent", format!("{:?}", engine.core.incumbent()))],
                        );
                        charge(&mut phase, &mut mark, TimeCategory::Communicate);
                    }
                }
                if self.jobs.iter().any(|j| !j.halted) {
                    // Between actions, fold in whatever has arrived —
                    // without blocking; local work keeps priority over
                    // idling.
                    while let Ok(inbound) = inbox.try_recv() {
                        let t = now(epoch);
                        self.route(inbound, t, &mut phase, &mut mark, sink.as_deref_mut());
                    }
                }
            } else if self.all_jobs_done() && !self.daemon {
                break;
            } else if self.pool.as_ref().is_some_and(|p| p.in_flight() > 0) {
                // Workers are computing: fold in what has arrived, then
                // block on their results, not on the inbox — a result does
                // not wake an inbox wait, so each pool unit would cost the
                // whole wait. A message waits at most the 1 ms cap. The
                // wait *is* expansion time, so it is charged to Expand,
                // keeping the Figure-3 reconciliation honest.
                while let Ok(inbound) = inbox.try_recv() {
                    let t = now(epoch);
                    self.route(inbound, t, &mut phase, &mut mark, sink.as_deref_mut());
                }
                let wait = self
                    .next_timer_wait(now(epoch))
                    .min(Duration::from_millis(1));
                let pool = self.pool.as_mut().expect("checked above");
                let done = pool.harvest_timeout(wait);
                self.deliver_work(done, now(epoch));
                charge(&mut phase, &mut mark, TimeCategory::Expand);
            } else {
                // Idle: block on the inbox until the next timer deadline
                // across all live jobs. A frame and an admission both
                // arrive here, so either ends the wait at once.
                let wait = self.next_timer_wait(now(epoch));
                match inbox.recv_timeout(wait.min(Duration::from_millis(20))) {
                    Ok(inbound) => {
                        // Split the blocking receive: the wait itself was
                        // idle time; handling the item is charged to its
                        // own category.
                        charge(&mut phase, &mut mark, TimeCategory::Idle);
                        let t = now(epoch);
                        self.route(inbound, t, &mut phase, &mut mark, sink.as_deref_mut());
                    }
                    Err(RecvTimeoutError::Timeout) => {
                        charge(&mut phase, &mut mark, TimeCategory::Idle);
                    }
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }

            // Fire due timers across every live job. After a job's halt
            // only its remaining actions are flushed (final sends); no
            // new events are admitted for it.
            for idx in 0..self.jobs.len() {
                if self.jobs[idx].halted {
                    continue;
                }
                loop {
                    let t = now(epoch);
                    let Some(timer) = self.jobs[idx].pop_due(t) else {
                        break;
                    };
                    self.jobs[idx].step(PEvent::Timer(timer), t);
                    charge(&mut phase, &mut mark, timer.category());
                }
            }

            // Surface membership transitions and recoveries as typed,
            // job-stamped trace events.
            for engine in &mut self.jobs {
                for event in engine.core.take_membership_events() {
                    match event {
                        MembershipEvent::Suspected(peer) => engine
                            .telemetry
                            .emit("suspect", &[("peer", peer.to_string())]),
                        MembershipEvent::Forgotten(peer) => engine
                            .telemetry
                            .emit("forget", &[("peer", peer.to_string())]),
                    }
                }
                let metrics = engine.core.metrics();
                let recoveries = metrics.recoveries;
                if recoveries > engine.last_recoveries {
                    let silent = metrics.silent_rounds.to_string();
                    engine.telemetry.emit(
                        "recovery",
                        &[("total", recoveries.to_string()), ("silent_rounds", silent)],
                    );
                    engine.last_recoveries = recoveries;
                }
            }
            charge(&mut phase, &mut mark, TimeCategory::Membership);

            // Stream incumbent improvements and report completions.
            for idx in 0..self.jobs.len() {
                let incumbent = self.jobs[idx].core.incumbent();
                if incumbent.is_finite() && incumbent < self.jobs[idx].last_incumbent {
                    self.jobs[idx].last_incumbent = incumbent;
                    let job = self.jobs[idx].job;
                    if let Some(f) = self.hooks.on_incumbent.as_mut() {
                        f(job, incumbent);
                    }
                }
            }
            let mut idx = 0;
            while idx < self.jobs.len() {
                let engine = &self.jobs[idx];
                if !engine.halted || !engine.pending.is_empty() {
                    idx += 1;
                    continue;
                }
                if !engine.reported {
                    // The job's *final* snapshot precedes its result: a
                    // submitter that saw the result can rely on every
                    // pool node's disk agreeing the job is finished.
                    if let Some(sink) = sink.as_deref_mut() {
                        self.store_snapshot(idx, sink);
                        charge(&mut phase, &mut mark, TimeCategory::Checkpoint);
                    }
                    self.report_job_done(idx);
                    charge(&mut phase, &mut mark, TimeCategory::Communicate);
                }
                if self.daemon && self.jobs[idx].in_pool == 0 {
                    self.retire(idx, transport, epoch, &phase);
                    charge(&mut phase, &mut mark, TimeCategory::Communicate);
                } else {
                    idx += 1;
                }
            }

            if let (Some(every), Some(sink)) = (checkpoint_every, sink.as_deref_mut()) {
                if last_checkpoint.elapsed() >= every {
                    for idx in 0..self.jobs.len() {
                        if !self.jobs[idx].reported {
                            self.store_snapshot(idx, sink);
                        }
                    }
                    last_checkpoint = Instant::now();
                    charge(&mut phase, &mut mark, TimeCategory::Checkpoint);
                }
            }

            if let Some(every) = self.metrics_every {
                if last_metrics.elapsed() >= every {
                    for idx in 0..self.jobs.len() {
                        if !self.jobs[idx].reported {
                            self.report_metrics(Some(idx), transport, epoch, &phase);
                        }
                    }
                    last_metrics = Instant::now();
                    charge(&mut phase, &mut mark, TimeCategory::Communicate);
                }
            }
        }

        // Final snapshots for jobs that never completed (deadline exit),
        // so their files record the furthest state; completed jobs wrote
        // their final snapshot at completion.
        if let Some(sink) = sink {
            for idx in 0..self.jobs.len() {
                if !self.jobs[idx].reported {
                    self.store_snapshot(idx, sink);
                }
            }
            charge(&mut phase, &mut mark, TimeCategory::Checkpoint);
        }
        // And the final metrics lines: one per job still held, so even a
        // short-lived node leaves at least one line per job, or the
        // node's own when it holds none.
        if self.jobs.is_empty() {
            self.report_metrics(None, transport, epoch, &phase);
        }
        for idx in 0..self.jobs.len() {
            self.report_metrics(Some(idx), transport, epoch, &phase);
        }
        for idx in 0..self.jobs.len() {
            if !self.jobs[idx].reported {
                self.report_job_done(idx);
            }
        }
        let expanded: u64 = self.jobs.iter().map(|j| j.core.metrics().expanded).sum();
        let all_terminated = self.jobs.iter().all(|j| j.core.is_terminated());
        self.telemetry.emit(
            "engine_exit",
            &[
                ("terminated", all_terminated.to_string()),
                ("expanded", expanded.to_string()),
                ("late_frames", self.late_frames.to_string()),
            ],
        );

        let incarnation = self.incarnation;
        Some(ServiceOutcome {
            id,
            incarnation,
            jobs: self
                .jobs
                .iter()
                .map(|j| j.outcome(id, incarnation))
                .collect(),
            admitted: self.admitted,
            finished: self.finished,
            late_frames: self.late_frames,
            phase,
            lifetime: epoch.elapsed(),
        })
    }

    /// The next job (round-robin from the cursor) with a pending action.
    fn next_actionable(&mut self) -> Option<usize> {
        let n = self.jobs.len();
        for k in 0..n {
            let idx = (self.cursor + k) % n;
            if !self.jobs[idx].pending.is_empty() {
                self.cursor = (idx + 1) % n;
                return Some(idx);
            }
        }
        None
    }

    /// Feed harvested pool work back to its jobs as the event the inline
    /// path would have produced on the spot. Results for jobs that halted
    /// while the work was in flight (a redundant-work interrupt followed by
    /// termination) are dropped, like any late event for a halted job; so
    /// is a result for a job no longer held, which a job's retirement
    /// waits out.
    fn deliver_work(&mut self, done: impl IntoIterator<Item = (u64, u64, Work)>, t: SimTime) {
        for (job, seq, work) in done {
            let Some(engine) = self.jobs.iter_mut().find(|j| j.job.raw() == job) else {
                continue;
            };
            engine.in_pool -= 1;
            if engine.halted {
                continue;
            }
            engine.step(work.event(seq), t);
        }
    }

    fn all_jobs_done(&self) -> bool {
        self.jobs.iter().all(|j| j.halted && j.pending.is_empty())
    }

    /// Idle wait until the earliest timer deadline across live jobs.
    fn next_timer_wait(&self, t: SimTime) -> Duration {
        let mut earliest: Option<SimTime> = None;
        for engine in &self.jobs {
            if engine.halted {
                continue;
            }
            if let Some(Reverse(entry)) = engine.timers.peek() {
                earliest = Some(earliest.map_or(entry.at, |e| e.min(entry.at)));
            }
        }
        match earliest {
            Some(at) if at <= t => Duration::ZERO,
            Some(at) => Duration::from_secs_f64((at - t).as_secs_f64()),
            None => Duration::from_millis(5),
        }
    }

    /// Take one inbox item. A frame goes to the engine its job stamp
    /// names; it is stashed (bounded per job and in job ids) for a job not
    /// admitted yet, and counted and dropped for a halted or retired job
    /// (late traffic after termination). An admitted job is started at
    /// once, which replays its stash, and snapshotted into `sink`.
    fn route(
        &mut self,
        inbound: Inbound,
        t: SimTime,
        phase: &mut PhaseTimes,
        mark: &mut Instant,
        sink: Option<&mut (dyn CheckpointSink + '_)>,
    ) {
        let env = match inbound {
            Inbound::Frame(env) => env,
            Inbound::Admit(engine) => {
                self.admit(*engine);
                let idx = self.jobs.len() - 1;
                self.start_job(idx, t);
                charge(phase, mark, TimeCategory::Expand);
                if let Some(sink) = sink {
                    self.store_snapshot(idx, sink);
                    charge(phase, mark, TimeCategory::Checkpoint);
                }
                return;
            }
        };
        let cat = BnbProcess::category(&env.msg);
        match self.jobs.iter_mut().find(|j| j.job == env.job) {
            Some(engine) if !engine.halted => engine.deliver(env, t),
            Some(_) => self.late_frames += 1,
            None if self.retired.contains(&env.job) => self.late_frames += 1,
            None => {
                if self.stash.len() < STASHED_JOBS_CAP || self.stash.contains_key(&env.job) {
                    let backlog = self.stash.entry(env.job).or_default();
                    if backlog.len() < JOB_STASH_CAP {
                        backlog.push_back(env);
                    }
                }
            }
        }
        charge(phase, mark, cat);
    }

    /// Start an admitted job: stamp its telemetry, fire the protocol
    /// `Start`, and replay any stashed traffic.
    fn start_job(&mut self, idx: usize, t: SimTime) {
        let job = self.jobs[idx].job;
        if let Some(pool) = self.pool.as_ref() {
            pool.register(job.raw(), Box::new(self.jobs[idx].expander.clone()));
        }
        self.jobs[idx].telemetry = self.telemetry.for_job(job.raw());
        self.jobs[idx].telemetry.emit(
            "job_admitted",
            &[("jobs_running", self.jobs.len().to_string())],
        );
        self.jobs[idx].start(t);
        if let Some(backlog) = self.stash.remove(&job) {
            for env in backlog {
                self.jobs[idx].deliver(env, t);
            }
        }
    }

    /// Deliver a job's outcome exactly once: trace event + hook.
    fn report_job_done(&mut self, idx: usize) {
        self.jobs[idx].reported = true;
        let outcome = self.jobs[idx].outcome(self.id, self.incarnation);
        self.finished += u64::from(outcome.terminated);
        self.jobs[idx].telemetry.emit(
            "job_done",
            &[
                ("terminated", outcome.terminated.to_string()),
                ("incumbent", format!("{:?}", outcome.incumbent)),
                ("expanded", outcome.metrics.expanded.to_string()),
            ],
        );
        if let Some(f) = self.hooks.on_complete.as_mut() {
            f(&outcome);
        }
    }

    /// Drop a reported job that the pool holds nothing of (daemon mode):
    /// its final metrics line goes out, its pool prototype is released,
    /// and only its id stays behind.
    fn retire(
        &mut self,
        idx: usize,
        transport: &dyn Transport,
        epoch: Instant,
        phase: &PhaseTimes,
    ) {
        self.report_metrics(Some(idx), transport, epoch, phase);
        let engine = self.jobs.remove(idx);
        if let Some(pool) = self.pool.as_ref() {
            pool.unregister(engine.job.raw());
        }
        self.retired.insert(engine.job);
        if self.cursor > idx {
            self.cursor -= 1;
        }
        if self.cursor >= self.jobs.len() {
            self.cursor = 0;
        }
    }

    /// Hand the installed reporter one snapshot: of job `idx`, or for
    /// `None` of the node alone (job 0, no protocol counters).
    fn report_metrics(
        &mut self,
        idx: Option<usize>,
        transport: &dyn Transport,
        epoch: Instant,
        phase: &PhaseTimes,
    ) {
        let Some(out) = self.metrics_out.as_mut() else {
            return;
        };
        let (job, seq, metrics) = match idx {
            Some(idx) => {
                let engine = &mut self.jobs[idx];
                engine.metrics_seq += 1;
                let metrics = engine.core.metrics().clone();
                (engine.job, engine.metrics_seq - 1, metrics)
            }
            None => (JobId::DEFAULT, 0, ProcMetrics::default()),
        };
        out(&MetricsSnapshot {
            id: self.id,
            incarnation: self.incarnation,
            job: job.raw(),
            seq,
            elapsed_s: epoch.elapsed().as_secs_f64(),
            phase: *phase,
            metrics,
            transport: transport.stats(),
            trace_events_dropped: self.telemetry.events_dropped(),
            workers: self.workers,
        });
    }

    fn store_snapshot(&mut self, idx: usize, sink: &mut dyn CheckpointSink) {
        let engine = &self.jobs[idx];
        if let Err(e) = sink.store(&engine.checkpoint(self.incarnation)) {
            engine
                .telemetry
                .emit("checkpoint_error", &[("error", e.clone())]);
            eprintln!(
                "node {} (incarnation {}, job {}): checkpoint store failed: {e}",
                self.id, self.incarnation, engine.job
            );
        } else {
            engine.telemetry.emit("checkpoint", &[]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::ClusterConfig;
    use crate::transport::Mesh;
    use ftbb_bnb::{
        solve, BranchBound, Correlation, KnapsackInstance, MaxSatInstance, SolveConfig,
    };
    use ftbb_core::{holds_root, node_seed, Msg};
    use ftbb_tree::Code;
    use std::thread;

    /// A sink that remembers every snapshot it was handed.
    #[derive(Default)]
    struct VecSink(Vec<Checkpoint>);

    impl CheckpointSink for VecSink {
        fn store(&mut self, chk: &Checkpoint) -> Result<(), String> {
            self.0.push(chk.clone());
            Ok(())
        }
    }

    #[test]
    fn timer_entries_compare_consistently() {
        // Same key (deadline, sequence): equal AND Ordering::Equal, so Ord
        // and PartialEq agree whatever the payload.
        let a = TimerEntry {
            at: SimTime::from_millis(5),
            seq: 1,
            timer: PTimer::LbTimeout(3),
        };
        let b = TimerEntry {
            at: SimTime::from_millis(5),
            seq: 1,
            timer: PTimer::LbTimeout(9),
        };
        assert_eq!(a, b);
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);

        // Distinct keys order by deadline, then arming sequence — and are
        // never equal.
        let later = TimerEntry {
            at: SimTime::from_millis(6),
            seq: 0,
            timer: PTimer::LbTimeout(3),
        };
        assert!(a < later);
        assert_ne!(a, later);
        let same_time_later_seq = TimerEntry { seq: 2, ..a };
        assert!(a < same_time_later_seq);
        assert_ne!(a, same_time_later_seq);
    }

    #[test]
    fn timers_armed_in_one_step_with_equal_delays_fire_in_arming_order() {
        // A gossip-mode process arms its table gossip before its
        // membership tick on Start. With equal intervals the two come due
        // together, and fire in arming order, as in the simulator; the
        // later report flush fires last.
        let mut cfg = ProtocolConfig::default();
        let membership = cfg.membership.insert(Default::default());
        cfg.table_gossip_interval_s = membership.gossip_interval.as_secs_f64();
        cfg.report_interval_s = 2.0 * cfg.table_gossip_interval_s;
        let instance = tiny_instance();
        let root = instance.bound(&instance.root());
        let t0 = SimTime::from_millis(3);
        let core = BnbProcess::with_membership(0, vec![0], true, cfg.clone(), root, true, 1, t0);
        let mut job = JobEngine::new(JobId::DEFAULT, core, instance);
        job.start(t0);
        let armed: Vec<(f64, PTimer)> = job
            .pending
            .drain(..)
            .filter_map(|action| match action {
                Action::SetTimer { delay_s, timer } => Some((delay_s, timer)),
                _ => None,
            })
            .collect();
        let timers: Vec<PTimer> = armed.iter().map(|&(_, timer)| timer).collect();
        let order = [
            PTimer::ReportFlush,
            PTimer::TableGossip,
            PTimer::MembershipTick,
        ];
        assert_eq!(timers, order);
        for (delay_s, timer) in armed {
            job.arm(t0, delay_s, timer);
        }
        let gossip_due = t0 + SimTime::from_secs_f64(cfg.table_gossip_interval_s);
        let due_together: Vec<PTimer> = std::iter::from_fn(|| job.pop_due(gossip_due)).collect();
        assert_eq!(due_together, [PTimer::TableGossip, PTimer::MembershipTick]);
        assert_eq!(job.pop_due(SimTime::MAX), Some(PTimer::ReportFlush));
    }

    fn tiny_instance() -> ftbb_bnb::AnyInstance {
        KnapsackInstance::generate(12, 40, Correlation::Uncorrelated, 0.5, 5).into()
    }

    /// A one-node engine with `instance` admitted as the single-run job
    /// ([`JobId::DEFAULT`]).
    fn single_run(instance: &ftbb_bnb::AnyInstance) -> ServiceEngine {
        let root = instance.bound(&instance.root());
        let core = BnbProcess::new(0, vec![0], ProtocolConfig::default(), root, true, 3);
        let mut svc = ServiceEngine::new(0, 0);
        svc.admit(JobEngine::new(JobId::DEFAULT, core, instance.clone()));
        svc
    }

    #[test]
    fn single_run_solves_and_emits_bound_checkpoints() {
        let instance = tiny_instance();
        let reference = solve(&instance, &SolveConfig::default());
        let (mesh, mut inboxes) = Mesh::new(1);
        let mut sink = VecSink::default();
        let outcome = single_run(&instance)
            .run_with_sink(
                &mesh,
                inboxes.pop().unwrap(),
                CrashSwitch::default(),
                Duration::from_secs(30),
                &mut sink,
                Some(Duration::from_millis(1)),
            )
            .expect("not crashed");
        assert_eq!(outcome.incarnation, 0);
        assert_eq!(outcome.jobs.len(), 1);
        assert!(outcome.jobs[0].terminated);
        assert_eq!(Some(outcome.jobs[0].incumbent), reference.best);

        // At least the startup and exit snapshots, all bound, all scoped
        // to the default job, and all restorable (encode/decode round
        // trip).
        assert!(sink.0.len() >= 2, "{} snapshots", sink.0.len());
        for chk in &sink.0 {
            assert_eq!(chk.incarnation, 0);
            assert_eq!(chk.job, JobId::DEFAULT);
            assert_eq!(chk.problem.as_deref(), Some(&instance));
            assert_eq!(&Checkpoint::decode(&chk.encode()).unwrap(), chk);
        }
        // The final snapshot records the finished search.
        let last = sink.0.last().unwrap();
        assert_eq!(Some(last.incumbent), reference.best);
    }

    #[test]
    fn restored_single_run_finishes_the_interrupted_search() {
        let instance = tiny_instance();
        let reference = solve(&instance, &SolveConfig::default());

        // First life: crash immediately, keeping only the startup
        // snapshot (root in pool, nothing solved).
        let (mesh, mut inboxes) = Mesh::new(1);
        let mut sink = VecSink::default();
        let crash = CrashSwitch::default();
        crash.crash();
        let outcome = single_run(&instance).run_with_sink(
            &mesh,
            inboxes.pop().unwrap(),
            crash,
            Duration::from_secs(30),
            &mut sink,
            Some(Duration::from_millis(1)),
        );
        assert!(outcome.is_none(), "crashed engines report nothing");
        let chk = sink.0.first().expect("startup snapshot exists").clone();
        assert!(
            Checkpoint::decode(&chk.encode()).is_ok(),
            "snapshot survives persistence"
        );

        // Second life: restored from the snapshot, next incarnation,
        // solves to the sequential optimum with no problem spec in sight.
        let job = JobEngine::restore(&chk, ProtocolConfig::default(), 9).expect("bound checkpoint");
        assert_eq!(job.job(), JobId::DEFAULT);
        let mut svc: ServiceEngine = ServiceEngine::new(0, chk.incarnation + 1);
        svc.admit(job);
        let (mesh, mut inboxes) = Mesh::new(1);
        let outcome = svc
            .run(
                &mesh,
                inboxes.pop().unwrap(),
                CrashSwitch::default(),
                Duration::from_secs(30),
            )
            .expect("not crashed");
        assert_eq!(outcome.incarnation, 1);
        assert!(outcome.jobs[0].terminated);
        assert_eq!(Some(outcome.jobs[0].incumbent), reference.best);
    }

    #[test]
    fn phase_clock_reconciles_and_telemetry_records_lifecycle() {
        use ftbb_core::TraceEvent;
        use std::io::Write;
        use std::sync::Mutex;

        #[derive(Clone, Default)]
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let instance = tiny_instance();
        let mut svc = single_run(&instance);
        let buf = SharedBuf::default();
        let telemetry = Telemetry::to_writer(0, 0, Box::new(buf.clone()));
        svc.set_telemetry(telemetry.clone());
        let snaps: Arc<Mutex<Vec<MetricsSnapshot>>> = Arc::default();
        let sink = Arc::clone(&snaps);
        svc.set_metrics_reporter(
            Duration::from_millis(1),
            Box::new(move |s| sink.lock().unwrap().push(s.clone())),
        );

        let (mesh, mut inboxes) = Mesh::new(1);
        let outcome = svc
            .run(
                &mesh,
                inboxes.pop().unwrap(),
                CrashSwitch::default(),
                Duration::from_secs(30),
            )
            .expect("not crashed");
        assert!(outcome.jobs[0].terminated);

        // Every slice of wall time landed in some category: the breakdown
        // reconciles with the engine's lifetime (10% is the acceptance
        // tolerance; in-process it is far tighter).
        let total = outcome.phase.total();
        let elapsed = outcome.lifetime.as_secs_f64();
        assert!(
            (total - elapsed).abs() <= 0.1 * elapsed.max(1e-3),
            "phase sum {total} vs elapsed {elapsed}"
        );
        // A solving single node does real expansion work.
        assert!(outcome.phase.expand_s > 0.0);

        // Interval snapshots arrived, ordered, job-scoped to the default
        // job, and each reconciles too.
        let snaps = snaps.lock().unwrap();
        assert!(!snaps.is_empty());
        for (i, s) in snaps.iter().enumerate() {
            assert_eq!(s.seq, i as u64);
            assert_eq!(s.job, 0, "single-run snapshots carry the default job");
            assert!(
                (s.phase.total() - s.elapsed_s).abs() <= 0.1 * s.elapsed_s.max(1e-3),
                "snapshot {i}: {} vs {}",
                s.phase.total(),
                s.elapsed_s
            );
        }

        // The trace records the engine's lifecycle as typed events.
        drop(telemetry);
        let bytes = buf.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let kinds: Vec<String> = text
            .lines()
            .map(|l| {
                TraceEvent::parse_jsonl(l)
                    .expect("parseable trace line")
                    .kind
            })
            .collect();
        assert_eq!(kinds.first().map(String::as_str), Some("engine_start"));
        assert!(kinds.iter().any(|k| k == "halt"), "{kinds:?}");
        assert_eq!(kinds.last().map(String::as_str), Some("engine_exit"));
    }

    #[test]
    fn restore_without_binding_is_refused() {
        let core = BnbProcess::new(0, vec![0], ProtocolConfig::default(), 0.0, true, 1);
        let chk = core.checkpoint(); // bare: no problem binding
        let err = match JobEngine::restore(&chk, ProtocolConfig::default(), 1) {
            Err(e) => e,
            Ok(_) => panic!("bare checkpoint must not restore into an engine"),
        };
        assert!(err.contains("problem binding"), "{err}");
    }

    /// Build one node's service engine with the given jobs admitted,
    /// each job a `(JobId, AnyInstance)` pair; node `root_holder` holds
    /// every job's root.
    fn service_node(
        id: u32,
        members: &[u32],
        jobs: &[(JobId, ftbb_bnb::AnyInstance)],
        seed: u64,
    ) -> ServiceEngine {
        let protocol = ClusterConfig::new(members.len() as u32).protocol;
        let mut svc = ServiceEngine::new(id, 0);
        for (job, instance) in jobs {
            let core = BnbProcess::new(
                id,
                members.to_vec(),
                protocol.clone(),
                instance.bound(&instance.root()),
                holds_root(id, members),
                node_seed(seed ^ job.raw(), id),
            );
            svc.admit(JobEngine::new(*job, core, instance.clone()));
        }
        svc
    }

    /// Run a pool of `n` service nodes over an in-process mesh, every
    /// node admitted the same job set; returns each surviving node's
    /// outcome (crashed nodes return `None`).
    fn run_pool(
        n: u32,
        jobs: &[(JobId, ftbb_bnb::AnyInstance)],
        crashes: &[(u32, Duration)],
    ) -> Vec<Option<ServiceOutcome>> {
        run_pool_workers(n, jobs, crashes, 1)
    }

    /// Like [`run_pool`], with `workers` expansion threads per node.
    fn run_pool_workers(
        n: u32,
        jobs: &[(JobId, ftbb_bnb::AnyInstance)],
        crashes: &[(u32, Duration)],
        workers: usize,
    ) -> Vec<Option<ServiceOutcome>> {
        let members: Vec<u32> = (0..n).collect();
        let (mesh, mut inboxes) = Mesh::new(n as usize);
        let mesh = Arc::new(mesh);
        let switches: Vec<CrashSwitch> = (0..n).map(|_| CrashSwitch::default()).collect();
        let mut handles = Vec::new();
        for id in (0..n).rev() {
            let inbox = inboxes.pop().expect("one inbox per node");
            let mut svc = service_node(id, &members, jobs, 7);
            svc.set_workers(workers);
            let mesh = Arc::clone(&mesh);
            let switch = switches[id as usize].clone();
            handles.push(thread::spawn(move || {
                svc.run(&*mesh, inbox, switch, Duration::from_secs(30))
            }));
        }
        handles.reverse(); // spawned in reverse id order
        let crash_plan = crashes.to_vec();
        let injector_switches = switches.clone();
        let injector = thread::spawn(move || {
            let start = Instant::now();
            for (node, delay) in crash_plan {
                let elapsed = start.elapsed();
                if delay > elapsed {
                    thread::sleep(delay - elapsed);
                }
                injector_switches[node as usize].crash();
            }
        });
        let outcomes = handles
            .into_iter()
            .map(|h| h.join().expect("node thread panicked"))
            .collect();
        injector.join().expect("injector panicked");
        outcomes
    }

    fn two_jobs() -> Vec<(JobId, ftbb_bnb::AnyInstance)> {
        vec![
            (
                JobId(11),
                KnapsackInstance::generate(16, 60, Correlation::Uncorrelated, 0.5, 5).into(),
            ),
            (JobId(22), MaxSatInstance::generate(12, 40, 2).into()),
        ]
    }

    #[test]
    fn two_concurrent_jobs_reach_their_sequential_optima() {
        let jobs = two_jobs();
        let outcomes = run_pool(3, &jobs, &[]);
        for (id, outcome) in outcomes.iter().enumerate() {
            let outcome = outcome.as_ref().expect("no crashes in this run");
            assert_eq!(outcome.id as usize, id);
            assert_eq!(outcome.jobs.len(), 2, "both jobs report");
            for (job, instance) in &jobs {
                let reference = solve(instance, &SolveConfig::default());
                let jo = outcome
                    .jobs
                    .iter()
                    .find(|j| j.job == *job)
                    .expect("outcome for every admitted job");
                assert!(jo.terminated, "node {id} job {job} did not terminate");
                assert_eq!(
                    Some(jo.incumbent),
                    reference.best,
                    "node {id} job {job} parity"
                );
            }
        }
        // Both jobs genuinely interleaved across the pool: every node
        // reports per-job metrics, and the cluster expanded work for
        // both jobs.
        for (job, _) in &jobs {
            let expanded: u64 = outcomes
                .iter()
                .flatten()
                .flat_map(|o| &o.jobs)
                .filter(|j| j.job == *job)
                .map(|j| j.metrics.expanded)
                .sum();
            assert!(expanded > 0, "job {job} expanded nothing");
        }
    }

    #[test]
    fn worker_pool_reaches_the_same_optimum_as_inline() {
        // The determinism contract of `set_workers`: the solved optimum
        // is identical at every worker count, for every workload kind
        // (knapsack, MAX-SAT, recorded tree) — only wall time moves.
        let k = KnapsackInstance::generate(14, 50, Correlation::Uncorrelated, 0.5, 8);
        let tree = ftbb_bnb::record_basic_tree(&k, ftbb_bnb::RecordLimits::default())
            .expect("recordable instance");
        let jobs: Vec<(JobId, ftbb_bnb::AnyInstance)> = vec![
            (
                JobId(1),
                KnapsackInstance::generate(16, 60, Correlation::Uncorrelated, 0.5, 5).into(),
            ),
            (JobId(2), MaxSatInstance::generate(12, 40, 2).into()),
            (JobId(3), tree.into()),
        ];
        let inline_run = run_pool(2, &jobs, &[]);
        let pooled_run = run_pool_workers(2, &jobs, &[], 4);
        for (job, instance) in &jobs {
            let reference = solve(instance, &SolveConfig::default()).best;
            for (label, outcomes) in [("inline", &inline_run), ("pooled", &pooled_run)] {
                for outcome in outcomes {
                    let outcome = outcome.as_ref().expect("no crashes in this run");
                    let jo = outcome
                        .jobs
                        .iter()
                        .find(|j| j.job == *job)
                        .expect("outcome for every admitted job");
                    assert!(jo.terminated, "{label} job {job} did not terminate");
                    assert_eq!(Some(jo.incumbent), reference, "{label} job {job} parity");
                }
            }
        }
    }

    #[test]
    fn killing_a_node_mid_run_loses_neither_job() {
        // Larger jobs than the no-crash test, sized per build profile so
        // the pool is still solving both when the 3 ms crash lands. Debug:
        // 7 429 and 1 517 sequential expansions. Release, ~15x faster:
        // 593 769 and 31 166 (66 and 22 ms solved alone, ~30 ms for the
        // failure-free pool of three on a 2-core x86 host); the debug
        // pair finishes there in ~1.4 ms, before the crash.
        let (items, vars, clauses) = if cfg!(debug_assertions) {
            (32, 22, 90)
        } else {
            (40, 32, 140)
        };
        let jobs: Vec<(JobId, ftbb_bnb::AnyInstance)> = vec![
            (
                JobId(11),
                KnapsackInstance::generate(items, 80, Correlation::Strong, 0.5, 5).into(),
            ),
            (JobId(22), MaxSatInstance::generate(vars, clauses, 2).into()),
        ];
        let outcomes = run_pool(3, &jobs, &[(1, Duration::from_millis(3))]);
        assert!(outcomes[1].is_none(), "crashed nodes report nothing");
        for id in [0usize, 2] {
            let outcome = outcomes[id].as_ref().expect("survivor reports");
            for (job, instance) in &jobs {
                let reference = solve(instance, &SolveConfig::default());
                let jo = outcome.jobs.iter().find(|j| j.job == *job).unwrap();
                assert!(jo.terminated, "node {id} job {job} did not terminate");
                assert_eq!(
                    Some(jo.incumbent),
                    reference.best,
                    "node {id} job {job} parity after crash"
                );
            }
        }
    }

    #[test]
    fn daemon_pump_admits_jobs_mid_flight() {
        // One-node daemon: no jobs at start; two jobs stream in on its
        // inbox at different times; hooks observe completion; each job
        // is retired once reported; the daemon exits at its deadline.
        let instance_a: ftbb_bnb::AnyInstance =
            KnapsackInstance::generate(12, 40, Correlation::Uncorrelated, 0.5, 9).into();
        let instance_b: ftbb_bnb::AnyInstance = MaxSatInstance::generate(10, 30, 4).into();
        let ref_a = solve(&instance_a, &SolveConfig::default());
        let ref_b = solve(&instance_b, &SolveConfig::default());

        let (mesh, mut inboxes) = Mesh::new(1);
        let admit_tx = mesh.inbox_sender(0).expect("node 0");
        let mut svc: ServiceEngine = ServiceEngine::new(0, 0);
        svc.daemon(true);
        let completions: Arc<std::sync::Mutex<Vec<JobOutcome>>> = Arc::default();
        let sink = Arc::clone(&completions);
        svc.set_hooks(ServiceHooks {
            on_complete: Some(Box::new(move |o: &JobOutcome| {
                sink.lock().unwrap().push(o.clone());
            })),
            ..Default::default()
        });

        let inbox = inboxes.pop().unwrap();
        let handle = thread::spawn(move || {
            svc.run(&mesh, inbox, CrashSwitch::default(), Duration::from_secs(3))
        });

        let admit = |job: JobId, instance: &ftbb_bnb::AnyInstance| {
            let core = BnbProcess::new(
                0,
                vec![0],
                ClusterConfig::new(1).protocol,
                instance.bound(&instance.root()),
                true,
                node_seed(3 ^ job.raw(), 0),
            );
            Inbound::Admit(Box::new(JobEngine::new(job, core, instance.clone())))
        };
        assert!(admit_tx.send(admit(JobId(1), &instance_a)).is_ok());
        thread::sleep(Duration::from_millis(50));
        assert!(admit_tx.send(admit(JobId(2), &instance_b)).is_ok());

        let outcome = handle
            .join()
            .expect("daemon thread")
            .expect("daemon not crashed");
        assert_eq!((outcome.admitted, outcome.finished), (2, 2));
        assert!(outcome.jobs.is_empty(), "both finished jobs were retired");
        assert!(
            outcome.lifetime >= Duration::from_secs(3),
            "daemon runs to its deadline even after all jobs complete"
        );
        let done = completions.lock().unwrap();
        assert_eq!(done.len(), 2, "both completions delivered via hooks");
        let by_job = |job: JobId| done.iter().find(|o| o.job == job).unwrap();
        assert!(by_job(JobId(1)).terminated);
        assert_eq!(Some(by_job(JobId(1)).incumbent), ref_a.best);
        assert!(by_job(JobId(2)).terminated);
        assert_eq!(Some(by_job(JobId(2)).incumbent), ref_b.best);
    }

    /// A job for node 0 over `members`, solving `instance`, holding its
    /// root iff `holds_root`, ready to send to a running pump.
    fn admission(
        job: u64,
        members: &[u32],
        protocol: ProtocolConfig,
        instance: &ftbb_bnb::AnyInstance,
        holds_root: bool,
    ) -> Inbound {
        let root = instance.bound(&instance.root());
        let core = BnbProcess::new(0, members.to_vec(), protocol, root, holds_root, job);
        Inbound::Admit(Box::new(JobEngine::new(JobId(job), core, instance.clone())))
    }

    /// A daemon for node 0 of a fresh `nodes`-node mesh, run on its own
    /// thread until `deadline`. Node 0's completions arrive on the
    /// returned channel; the other nodes never run, but their inboxes
    /// stay open, so sends to them are delivered and counted.
    #[allow(clippy::type_complexity)]
    fn daemon_on_mesh(
        nodes: usize,
        deadline: Duration,
        setup: impl FnOnce(&mut ServiceEngine),
    ) -> (
        Arc<Mesh>,
        thread::JoinHandle<Option<ServiceOutcome>>,
        Receiver<JobOutcome>,
        Vec<Receiver<Inbound>>,
    ) {
        let (mesh, mut inboxes) = Mesh::new(nodes);
        let inbox = inboxes.remove(0);
        let (done_tx, done_rx) = crossbeam::channel::unbounded();
        let mut svc = ServiceEngine::new(0, 0);
        svc.daemon(true);
        svc.set_hooks(ServiceHooks {
            on_complete: Some(Box::new(move |o: &JobOutcome| {
                let _ = done_tx.send(o.clone());
            })),
            ..Default::default()
        });
        setup(&mut svc);
        let mesh = Arc::new(mesh);
        let pump_mesh = Arc::clone(&mesh);
        let handle =
            thread::spawn(move || svc.run(&*pump_mesh, inbox, CrashSwitch::default(), deadline));
        (mesh, handle, done_rx, inboxes)
    }

    #[test]
    fn late_frames_for_retired_jobs_are_dropped_and_take_no_stash_slot() {
        // More retired jobs than the stash has job slots, each sent a
        // late frame: none may take a slot, so a new job's early frames
        // are still stashed and replayed at its admission. The inbox is
        // one channel, so every item below is taken in the order sent.
        const RETIRED: u64 = STASHED_JOBS_CAP as u64 + 6;
        let (mesh, handle, done, _peer) =
            daemon_on_mesh(2, Duration::from_secs(2), |_: &mut ServiceEngine| ());
        let admit = mesh.inbox_sender(0).expect("node 0");
        let instance = tiny_instance();
        for job in 1..=RETIRED {
            let protocol = ClusterConfig::new(1).protocol;
            assert!(admit
                .send(admission(job, &[0], protocol, &instance, true))
                .is_ok());
        }
        // A job is retired in the pump pass that reports it, before the
        // pump reads its inbox again.
        for _ in 1..=RETIRED {
            done.recv_timeout(Duration::from_secs(10))
                .expect("every job finishes");
        }
        let report = || Msg::WorkReport {
            codes: vec![Code::root().child(0, true)],
            incumbent: f64::INFINITY,
        };
        for job in 1..=RETIRED {
            mesh.send(JobId(job), 1, 0, report());
        }
        let fresh = RETIRED + 1;
        for _ in 0..3 {
            mesh.send(JobId(fresh), 1, 0, report());
        }
        let protocol = ProtocolConfig::default();
        assert!(admit
            .send(admission(fresh, &[0, 1], protocol, &instance, true))
            .is_ok());
        let last = done
            .recv_timeout(Duration::from_secs(10))
            .expect("the new job finishes");
        assert_eq!(last.job, JobId(fresh));
        assert_eq!(
            last.metrics.reports_received, 3,
            "the new job's early frames were stashed and replayed"
        );

        let outcome = handle.join().expect("pump thread").expect("not crashed");
        assert_eq!(
            outcome.late_frames, RETIRED,
            "one late frame per retired job"
        );
        assert_eq!((outcome.admitted, outcome.finished), (fresh, fresh));
        assert!(outcome.jobs.is_empty(), "every finished job was retired");
    }

    #[test]
    fn a_pool_result_for_a_retired_job_is_dropped() {
        let instance = tiny_instance();
        let mut svc = single_run(&instance);
        svc.set_workers(2);
        svc.daemon(true);
        svc.retired.insert(JobId(9));
        svc.deliver_work([(9, 4, Work::Unit(Default::default()))], SimTime::ZERO);
        assert_eq!(svc.jobs.len(), 1, "the held job is untouched");
        assert!(svc.jobs[0].pending.is_empty());
    }

    #[test]
    fn an_admission_to_an_idle_pump_starts_before_the_next_timer_deadline() {
        // A parked job keeps every timer a minute away, so the idle pump
        // waits out its whole 20 ms cap between timer checks: it does not
        // hold the root, and its one peer never answers. A tiny job sent
        // to the idle pump must still start and finish at once; a pump
        // that noticed admissions only between waits would take 10 ms in
        // the median.
        const TRIALS: usize = 9;
        let minute = 60.0;
        let parked = ProtocolConfig {
            report_interval_s: minute,
            table_gossip_interval_s: minute,
            lb_timeout_s: minute,
            recovery_delay_s: minute,
            recovery_quiet_s: minute,
            ..Default::default()
        };
        let instance = tiny_instance();
        let (mesh, handle, done, _peer) = daemon_on_mesh(2, Duration::from_secs(2), |_| ());
        let admit = mesh.inbox_sender(0).expect("node 0");
        assert!(admit
            .send(admission(1, &[0, 1], parked, &instance, false))
            .is_ok());
        let mut latencies = Vec::new();
        for job in 2..2 + TRIALS as u64 {
            thread::sleep(Duration::from_millis(30));
            let sent = Instant::now();
            let protocol = ClusterConfig::new(1).protocol;
            assert!(admit
                .send(admission(job, &[0], protocol, &instance, true))
                .is_ok());
            let outcome = done
                .recv_timeout(Duration::from_secs(10))
                .expect("the job finishes");
            latencies.push(sent.elapsed());
            assert_eq!(outcome.job, JobId(job));
            assert!(outcome.terminated);
        }
        latencies.sort();
        let median = latencies[TRIALS / 2];
        assert!(
            median < Duration::from_millis(5),
            "admission to completion took {median:?} in the median: {latencies:?}"
        );
        let outcome = handle.join().expect("pump thread").expect("not crashed");
        assert_eq!(outcome.jobs.len(), 1, "only the parked job is held");
        assert_eq!(outcome.jobs[0].job, JobId(1));
    }

    #[test]
    fn a_retired_job_gets_no_further_metrics_lines() {
        // One job finishes at once; the daemon runs on for its deadline
        // with a 1 ms metrics cadence. The job's lines stop at its
        // retirement, the last carrying its final counters, and the
        // node, holding no job at exit, closes with its own job-0 line.
        let deadline = Duration::from_millis(400);
        let snaps: Arc<std::sync::Mutex<Vec<MetricsSnapshot>>> = Arc::default();
        let sink = Arc::clone(&snaps);
        let instance = tiny_instance();
        let (_mesh, handle, done, _) = daemon_on_mesh(1, deadline, |svc| {
            svc.set_metrics_reporter(
                Duration::from_millis(1),
                Box::new(move |s| sink.lock().unwrap().push(s.clone())),
            );
            let root = instance.bound(&instance.root());
            let core = BnbProcess::new(0, vec![0], ProtocolConfig::default(), root, true, 3);
            svc.admit(JobEngine::new(JobId(5), core, instance.clone()));
        });
        let finished = done
            .recv_timeout(Duration::from_secs(10))
            .expect("the job finishes");
        let outcome = handle.join().expect("pump thread").expect("not crashed");
        assert!(outcome.jobs.is_empty());

        let snaps = snaps.lock().unwrap();
        let (node, job): (Vec<_>, Vec<_>) = snaps.iter().partition(|s| s.job == 0);
        assert!(!job.is_empty(), "the job's final line");
        for (i, s) in job.iter().enumerate() {
            assert_eq!((s.job, s.seq), (5, i as u64));
        }
        let last = job.last().unwrap();
        assert_eq!(last.metrics.expanded, finished.metrics.expanded);
        assert!(
            last.elapsed_s < deadline.as_secs_f64() / 2.0,
            "a line at {:.3} s, after the job was retired",
            last.elapsed_s
        );
        assert_eq!(node.len(), 1, "one closing node line");
        assert!(node[0].elapsed_s >= deadline.as_secs_f64());
        assert_eq!(node[0].metrics.expanded, 0);
        assert!(std::ptr::eq(node[0], snaps.last().unwrap()), "it closes");
    }

    #[test]
    fn the_stash_is_bounded_in_job_ids_and_replays_on_admission() {
        let report = |job: u64| {
            Inbound::Frame(Envelope {
                job: JobId(job),
                from: 1,
                msg: Msg::WorkReport {
                    codes: vec![Code::root().child(0, true)],
                    incumbent: f64::INFINITY,
                },
            })
        };
        let mut svc = ServiceEngine::new(0, 0);
        let (mut phase, mut mark) = (PhaseTimes::default(), Instant::now());
        // A job stashed within the cap, then a flood of ids never admitted.
        for _ in 0..3 {
            svc.route(report(1), SimTime::ZERO, &mut phase, &mut mark, None);
        }
        for job in 2..10_002 {
            svc.route(report(job), SimTime::ZERO, &mut phase, &mut mark, None);
            assert!(svc.stash.len() <= STASHED_JOBS_CAP);
        }
        assert_eq!(svc.stash.len(), STASHED_JOBS_CAP);
        assert_eq!(svc.stash[&JobId(1)].len(), 3);

        // Admitting job 1 replays its backlog: three reports received.
        let instance = tiny_instance();
        let root = instance.bound(&instance.root());
        let core = BnbProcess::new(0, vec![0, 1], ProtocolConfig::default(), root, true, 1);
        svc.admit(JobEngine::new(JobId(1), core, instance));
        svc.start_job(0, SimTime::ZERO);
        assert!(!svc.stash.contains_key(&JobId(1)));
        assert_eq!(svc.jobs[0].core.metrics().reports_received, 3);
    }

    #[test]
    fn job_scoped_snapshots_restore_per_job() {
        // A service with two jobs crashes; both per-job snapshots
        // restore into job engines that finish their searches.
        let jobs = two_jobs();
        let mut svc = service_node(0, &[0], &jobs, 5);
        svc.set_telemetry(Telemetry::disabled());
        let (mesh, mut inboxes) = Mesh::new(1);

        let mut sink = VecSink::default();
        let crash = CrashSwitch::default();
        crash.crash();
        let outcome = svc.run_with_sink(
            &mesh,
            inboxes.pop().unwrap(),
            crash,
            Duration::from_secs(30),
            &mut sink,
            Some(Duration::from_millis(1)),
        );
        assert!(outcome.is_none(), "crashed engines report nothing");

        // Startup snapshots exist for both jobs, each scoped to its id.
        for (job, instance) in &jobs {
            let chk = sink
                .0
                .iter()
                .find(|c| c.job == *job)
                .expect("startup snapshot per job")
                .clone();
            let restored =
                JobEngine::restore(&chk, ClusterConfig::new(1).protocol, 11).expect("bound");
            assert_eq!(restored.job(), *job);

            let mut svc: ServiceEngine = ServiceEngine::new(0, chk.incarnation + 1);
            svc.admit(restored);
            let (mesh, mut inboxes) = Mesh::new(1);
            let outcome = svc
                .run(
                    &mesh,
                    inboxes.pop().unwrap(),
                    CrashSwitch::default(),
                    Duration::from_secs(30),
                )
                .expect("not crashed");
            let reference = solve(instance, &SolveConfig::default());
            assert_eq!(outcome.jobs.len(), 1);
            assert!(outcome.jobs[0].terminated);
            assert_eq!(Some(outcome.jobs[0].incumbent), reference.best);
        }
    }
}
