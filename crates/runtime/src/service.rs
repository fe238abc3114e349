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
//! jobs: new [`JobEngine`]s stream in over an admission channel while
//! the pump runs, completed jobs are reported through [`ServiceHooks`]
//! (admission, incumbent improvements, completion), and the engine exits
//! only at its deadline. Envelopes for jobs not yet admitted are stashed
//! (bounded) and replayed on admission, so job-announce races with
//! protocol traffic lose nothing.

use crate::node::{CrashSwitch, MetricsReporter, MetricsSnapshot};
use crate::pool::{unit_deadline, Work, WorkerPool};
use crate::telemetry::Telemetry;
use crate::transport::{Envelope, Transport};
use crossbeam::channel::{Receiver, RecvTimeoutError};
use ftbb_bnb::AnyInstance;
use ftbb_core::{
    Action, AnyExpander, BnbProcess, Checkpoint, CheckpointSink, Expander, JobId, MembershipEvent,
    NullSink, PEvent, PTimer, PhaseTimes, ProcMetrics, Protocol, ProtocolConfig, TimeCategory,
};
use ftbb_des::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
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
    /// Per-job outcomes, in admission order.
    pub jobs: Vec<JobOutcome>,
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
    /// A job was admitted and started.
    pub on_admitted: Option<Box<dyn FnMut(JobId) + Send>>,
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
    jobs: Vec<JobEngine>,
    cursor: usize,
    telemetry: Telemetry,
    metrics_every: Option<Duration>,
    metrics_out: Option<MetricsReporter>,
    hooks: ServiceHooks,
    admissions: Option<Receiver<JobEngine>>,
    daemon: bool,
    stash: HashMap<JobId, VecDeque<Envelope>>,
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
            admissions: None,
            daemon: false,
            stash: HashMap::new(),
            workers: 1,
            pool: None,
        }
    }

    /// Install a structured trace sink; per-job events are emitted
    /// through job-stamped clones ([`Telemetry::for_job`]).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Install a periodic metrics reporter: every `every` of wall time
    /// (and once at exit), `out` receives one job-scoped
    /// [`MetricsSnapshot`] per admitted job.
    pub fn set_metrics_reporter(&mut self, every: Duration, out: MetricsReporter) {
        self.metrics_every = Some(every);
        self.metrics_out = Some(out);
    }

    /// Install lifecycle callbacks.
    pub fn set_hooks(&mut self, hooks: ServiceHooks) {
        self.hooks = hooks;
    }

    /// Install the live admission channel: [`JobEngine`]s received on it
    /// while the pump runs are admitted and started mid-flight.
    pub fn set_admissions(&mut self, rx: Receiver<JobEngine>) {
        self.admissions = Some(rx);
    }

    /// Daemon mode: run to the deadline even when every admitted job has
    /// completed (the pool is long-lived; jobs stream in). Off by
    /// default — a single run exits when its job halts.
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

    /// Admit a job before the pump starts. (Mid-flight admission goes
    /// through [`ServiceEngine::set_admissions`].)
    pub fn admit(&mut self, engine: JobEngine) {
        debug_assert_eq!(engine.core.id(), self.id, "job engine belongs to this node");
        self.jobs.push(engine);
    }

    /// Drive the pump with no persistence.
    pub fn run(
        self,
        transport: &dyn Transport,
        inbox: Receiver<Envelope>,
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
        inbox: Receiver<Envelope>,
        crash: CrashSwitch,
        hard_deadline: Duration,
        sink: &mut dyn CheckpointSink,
        checkpoint_every: Option<Duration>,
    ) -> Option<ServiceOutcome> {
        let id = self.id;
        let epoch = Instant::now();
        let now = |epoch: Instant| SimTime::from_secs_f64(epoch.elapsed().as_secs_f64());

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
        if checkpoint_every.is_some() {
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

            // Mid-flight admissions: jobs streaming in while the pump
            // runs. Each is started, snapshotted, and handed its stashed
            // backlog.
            if let Some(rx) = &self.admissions {
                let mut newly: Vec<JobEngine> = Vec::new();
                while let Ok(engine) = rx.try_recv() {
                    newly.push(engine);
                }
                for engine in newly {
                    self.admit(engine);
                    let idx = self.jobs.len() - 1;
                    self.start_job(idx, now(epoch));
                    charge(&mut phase, &mut mark, TimeCategory::Expand);
                    if checkpoint_every.is_some() {
                        self.store_snapshot(idx, sink);
                        charge(&mut phase, &mut mark, TimeCategory::Checkpoint);
                    }
                }
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
                    while let Ok(env) = inbox.try_recv() {
                        self.route(env, now(epoch), &mut phase, &mut mark);
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
                while let Ok(env) = inbox.try_recv() {
                    self.route(env, now(epoch), &mut phase, &mut mark);
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
                // across all live jobs.
                let wait = self.next_timer_wait(now(epoch));
                match inbox.recv_timeout(wait.min(Duration::from_millis(20))) {
                    Ok(env) => {
                        // Split the blocking receive: the wait itself was
                        // idle time; handling the message is charged to
                        // the message's category.
                        charge(&mut phase, &mut mark, TimeCategory::Idle);
                        self.route(env, now(epoch), &mut phase, &mut mark);
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
            for idx in 0..self.jobs.len() {
                let done = self.jobs[idx].halted
                    && self.jobs[idx].pending.is_empty()
                    && !self.jobs[idx].reported;
                if done {
                    // The job's *final* snapshot precedes its result: a
                    // submitter that saw the result can rely on every
                    // pool node's disk agreeing the job is finished.
                    if checkpoint_every.is_some() {
                        self.store_snapshot(idx, sink);
                        charge(&mut phase, &mut mark, TimeCategory::Checkpoint);
                    }
                    self.report_job_done(idx);
                }
            }

            if let Some(every) = checkpoint_every {
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
                    self.report_metrics(transport, epoch, &phase);
                    last_metrics = Instant::now();
                    charge(&mut phase, &mut mark, TimeCategory::Communicate);
                }
            }
        }

        // Final snapshots for jobs that never completed (deadline exit),
        // so their files record the furthest state; completed jobs wrote
        // their final snapshot at completion.
        if checkpoint_every.is_some() {
            for idx in 0..self.jobs.len() {
                if !self.jobs[idx].reported {
                    self.store_snapshot(idx, sink);
                }
            }
            charge(&mut phase, &mut mark, TimeCategory::Checkpoint);
        }
        // And a final metrics snapshot, so even a short-lived node leaves
        // at least one interval line per job.
        if self.metrics_every.is_some() {
            self.report_metrics(transport, epoch, &phase);
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
    /// termination) are dropped, like any late event for a halted job.
    fn deliver_work(&mut self, done: impl IntoIterator<Item = (u64, u64, Work)>, t: SimTime) {
        for (job, seq, work) in done {
            let engine = self
                .jobs
                .iter_mut()
                .find(|j| j.job.raw() == job)
                .expect("pool results only for admitted jobs");
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

    /// Route one inbound envelope to the engine its job stamp names;
    /// stash (bounded per job and in job ids) for jobs not admitted yet;
    /// drop for halted jobs (late traffic after termination).
    fn route(&mut self, env: Envelope, t: SimTime, phase: &mut PhaseTimes, mark: &mut Instant) {
        let cat = BnbProcess::category(&env.msg);
        match self.jobs.iter_mut().find(|j| j.job == env.job) {
            Some(engine) if !engine.halted => {
                engine.deliver(env, t);
            }
            Some(_) => {} // halted job: late traffic, dropped
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
    /// `Start`, replay any stashed traffic, and announce the admission.
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
        if let Some(f) = self.hooks.on_admitted.as_mut() {
            f(job);
        }
    }

    /// Deliver a job's outcome exactly once: trace event + hook.
    fn report_job_done(&mut self, idx: usize) {
        self.jobs[idx].reported = true;
        let outcome = self.jobs[idx].outcome(self.id, self.incarnation);
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

    /// Build one job-scoped [`MetricsSnapshot`] per job and hand each to
    /// the installed reporter.
    fn report_metrics(&mut self, transport: &dyn Transport, epoch: Instant, phase: &PhaseTimes) {
        let Some(out) = self.metrics_out.as_mut() else {
            return;
        };
        for engine in &mut self.jobs {
            let snap = MetricsSnapshot {
                id: self.id,
                incarnation: self.incarnation,
                job: engine.job.raw(),
                seq: engine.metrics_seq,
                elapsed_s: epoch.elapsed().as_secs_f64(),
                phase: *phase,
                metrics: engine.core.metrics().clone(),
                transport: transport.stats(),
                trace_events_dropped: self.telemetry.events_dropped(),
                workers: self.workers,
            };
            engine.metrics_seq += 1;
            out(&snap);
        }
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
        // Larger jobs than the no-crash test (7 429 and 1 517 sequential
        // expansions), so the pool is still solving when the crash lands.
        let jobs: Vec<(JobId, ftbb_bnb::AnyInstance)> = vec![
            (
                JobId(11),
                KnapsackInstance::generate(32, 80, Correlation::Strong, 0.5, 5).into(),
            ),
            (JobId(22), MaxSatInstance::generate(22, 90, 2).into()),
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
        // One-node daemon: no jobs at start; two jobs stream in over the
        // admission channel at different times; hooks observe admission
        // and completion; the daemon exits at its deadline.
        let instance_a: ftbb_bnb::AnyInstance =
            KnapsackInstance::generate(12, 40, Correlation::Uncorrelated, 0.5, 9).into();
        let instance_b: ftbb_bnb::AnyInstance = MaxSatInstance::generate(10, 30, 4).into();
        let ref_a = solve(&instance_a, &SolveConfig::default());
        let ref_b = solve(&instance_b, &SolveConfig::default());

        let (mesh, mut inboxes) = Mesh::new(1);
        let (admit_tx, admit_rx) = crossbeam::channel::unbounded();
        let mut svc: ServiceEngine = ServiceEngine::new(0, 0);
        svc.set_admissions(admit_rx);
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
            JobEngine::new(job, core, instance.clone())
        };
        assert!(admit_tx.send(admit(JobId(1), &instance_a)).is_ok());
        thread::sleep(Duration::from_millis(50));
        assert!(admit_tx.send(admit(JobId(2), &instance_b)).is_ok());

        let outcome = handle
            .join()
            .expect("daemon thread")
            .expect("daemon not crashed");
        assert_eq!(outcome.jobs.len(), 2);
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

    #[test]
    fn the_stash_is_bounded_in_job_ids_and_replays_on_admission() {
        let report = |job: u64| Envelope {
            job: JobId(job),
            from: 1,
            msg: Msg::WorkReport {
                codes: vec![Code::root().child(0, true)],
                incumbent: f64::INFINITY,
            },
        };
        let mut svc = ServiceEngine::new(0, 0);
        let (mut phase, mut mark) = (PhaseTimes::default(), Instant::now());
        // A job stashed within the cap, then a flood of ids never admitted.
        for _ in 0..3 {
            svc.route(report(1), SimTime::ZERO, &mut phase, &mut mark);
        }
        for job in 2..10_002 {
            svc.route(report(job), SimTime::ZERO, &mut phase, &mut mark);
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
