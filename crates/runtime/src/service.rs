//! The multi-job solve service: one pump, one transport, N jobs.
//!
//! Every node runs this one engine, split in two:
//!
//! * [`JobEngine`] — the thin per-job state machine (admitted →
//!   announced → solving → halted): one [`BnbProcess`], the job's
//!   [`AnyInstance`] and the [`AnyExpander`] made from it, one timer
//!   wheel, one pending-action queue, restorable from a job-scoped
//!   [`Checkpoint`].
//! * [`ServiceEngine`] — owns the event pump. It multiplexes any number
//!   of concurrent [`JobEngine`]s over **one** inbox, one phase clock,
//!   and one transport: each pass executes one pending action from the
//!   next job in round-robin order, folds inbound envelopes to the engine
//!   their [`JobId`] stamp names, fires every job's due timers, and runs
//!   the checkpoint/metrics cadences per job.
//!
//! A pass never blocks and reads time only through the pump's clock, so
//! one pump has two drivers: [`ServiceEngine::run`] loops over
//! the passes on the wall clock and blocks on the inbox when a pass finds
//! nothing to do (a deployed node), and [`crate::run_cluster`] steps every
//! node of a cluster on virtual clocks from one event queue.
//!
//! A single run is the one-job case: the daemon (and
//! [`crate::run_cluster`]) admits exactly one job ([`JobId::DEFAULT`])
//! before the pump starts, so the 1-job pump *is* the N-job pump, and
//! everything the single-run regressions pin (phase reconciliation,
//! restored-terminated fast exit, snapshot cadence) holds for the service
//! by construction.
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

use crate::clock::{sim_time, Clock};
use crate::telemetry::Telemetry;
use crate::transport::{Envelope, Inbound, Transport, TransportStats};
use ftbb_bnb::AnyInstance;
use ftbb_core::{
    Action, AnyExpander, BnbProcess, Checkpoint, CheckpointSink, JobId, MembershipEvent, PEvent,
    PTimer, PhaseTimes, ProcMetrics, Protocol, ProtocolConfig, TimeCategory,
};
use ftbb_des::SimTime;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap, HashSet, VecDeque};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
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

/// What one job reports when it completes (or when the service exits
/// with the job still unfinished — `terminated: false`).
#[derive(Debug, Clone, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
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
    /// Figure-3 time breakdown of this life (service-wide: the pump is
    /// shared, so the phase clock is too).
    pub phase: PhaseTimes,
    /// Lifetime on the pump's clock.
    pub lifetime: Duration,
}

/// A periodic point-in-time view of a running engine, handed to the
/// metrics reporter installed via
/// [`ServiceEngine::set_metrics_reporter`]. `ftbb-wire`'s noded formats
/// these as `FTBB-METRICS` stdout lines.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Node id.
    pub id: u32,
    /// Incarnation of the reporting engine.
    pub incarnation: u32,
    /// Which job this snapshot describes (0 — [`JobId::DEFAULT`] — for
    /// a single run). The engine emits one snapshot per live job each
    /// cadence tick, and a job's final one once: when a daemon retires
    /// it, or at exit. A daemon that holds no job at exit emits one
    /// snapshot of its own under job 0, which a service node never
    /// admits: zero protocol counters, the node's phase clock and
    /// transport totals.
    pub job: u64,
    /// Snapshot sequence number for this job within this life (0, 1, ...).
    pub seq: u64,
    /// Seconds on the pump's clock since this engine started running.
    pub elapsed_s: f64,
    /// Figure-3 time breakdown so far; `phase.total()` reconciles with
    /// `elapsed_s` (everything the engine does is charged somewhere).
    pub phase: PhaseTimes,
    /// Protocol counters so far.
    pub metrics: ProcMetrics,
    /// Transport counters so far (shared across the process).
    pub transport: TransportStats,
    /// Trace events shed so far by the telemetry sink's bounded queue.
    pub trace_events_dropped: u64,
}

/// Consumer installed via [`ServiceEngine::set_metrics_reporter`];
/// receives [`MetricsSnapshot`]s on every cadence tick, at each
/// retirement and at clean exit.
pub type MetricsReporter = Box<dyn FnMut(&MetricsSnapshot) + Send>;

/// What a pump pass leaves its driver to do: step again at once, wait
/// (see [`ServiceEngine::step`]), or [`ServiceEngine::finish`].
pub(crate) enum Step {
    Busy,
    Idle(Duration),
    Exit,
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
    /// Armed timers as `(deadline, arming sequence, timer)`, earliest
    /// first: equal deadlines fire in arming order, the order of the
    /// simulator's event queue, so the harnesses cannot drift apart on
    /// simultaneous deadlines.
    timers: BinaryHeap<Reverse<(SimTime, u64, PTimer)>>,
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
        self.timers.push(Reverse((at, self.timer_seq, timer)));
        self.timer_seq += 1;
    }

    /// Take the first timer due by `t`, if any.
    fn pop_due(&mut self, t: SimTime) -> Option<PTimer> {
        let Reverse((at, _, timer)) = *self.timers.peek()?;
        (at <= t).then(|| {
            self.timers.pop();
            timer
        })
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

/// The multi-job pump: owns the phase clock and a set of [`JobEngine`]s
/// it schedules round-robin — one pending action per pass, so jobs
/// interleave with each other exactly as computation interleaves with
/// communication inside one job.
pub struct ServiceEngine {
    id: u32,
    incarnation: u32,
    /// The jobs the pump holds: every admitted job, less those retired.
    jobs: Vec<JobEngine>,
    cursor: usize,
    telemetry: Telemetry,
    /// The metrics cadence and where snapshots go.
    metrics: Option<(Duration, MetricsReporter)>,
    hooks: ServiceHooks,
    daemon: bool,
    stash: HashMap<JobId, VecDeque<Envelope>>,
    /// Ids of the jobs a daemon has retired: their late frames are
    /// counted and dropped, never stashed.
    retired: HashSet<JobId>,
    admitted: u64,
    finished: u64,
    late_frames: u64,
    /// Peers whose connection closed ([`Inbound::PeerClosed`]) and that
    /// have sent no frame since: a job admitted later starts with them
    /// closed too.
    closed: BTreeSet<u32>,
    /// Where the pump reads time; set by [`ServiceEngine::start`].
    pub(crate) clock: Clock,
    deadline: SimTime,
    /// The checkpoint cadence and where snapshots go.
    checkpoints: Option<(Duration, Box<dyn CheckpointSink>)>,
    /// The Figure-3 phase clock: every slice of time between two marks is
    /// charged to exactly one category, so the per-category sums
    /// reconcile with elapsed time. One clock for the whole service — the
    /// pump is shared, so its time is.
    phase: PhaseTimes,
    mark: SimTime,
    last_checkpoint: SimTime,
    last_metrics: SimTime,
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
            metrics: None,
            hooks: ServiceHooks::default(),
            daemon: false,
            stash: HashMap::new(),
            retired: HashSet::new(),
            admitted: 0,
            finished: 0,
            late_frames: 0,
            closed: BTreeSet::new(),
            clock: Clock::Virtual(SimTime::ZERO),
            deadline: SimTime::MAX,
            checkpoints: None,
            phase: PhaseTimes::default(),
            mark: SimTime::ZERO,
            last_checkpoint: SimTime::ZERO,
            last_metrics: SimTime::ZERO,
        }
    }

    /// Install a structured trace sink; per-job events are emitted
    /// through job-stamped clones ([`Telemetry::for_job`]).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Install a periodic metrics reporter: every `every` on the pump's
    /// clock, `out` receives one job-scoped [`MetricsSnapshot`] per live
    /// job, and each job's final snapshot once — at its retirement, or at
    /// exit (see [`MetricsSnapshot::job`]).
    pub fn set_metrics_reporter(&mut self, every: Duration, out: MetricsReporter) {
        self.metrics = Some((every, out));
    }

    /// Install a checkpoint sink: it receives each job's snapshot at the
    /// job's admission, every `every` on the pump's clock, and at the
    /// job's completion (or at exit, for a job still unfinished).
    pub fn set_checkpoint_sink(&mut self, every: Duration, sink: Box<dyn CheckpointSink>) {
        self.checkpoints = Some((every, sink));
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

    /// Admit a job before the pump starts. (A running pump admits the
    /// jobs that arrive on its inbox as [`Inbound::Admit`].)
    pub fn admit(&mut self, engine: JobEngine) {
        debug_assert_eq!(engine.core.id(), self.id, "job engine belongs to this node");
        self.jobs.push(engine);
        self.admitted += 1;
    }

    /// Drive the pump on the wall clock until every job halts (or, in
    /// daemon mode, until the deadline). When a pass finds nothing to do,
    /// the pump blocks on the inbox until the next timer deadline.
    pub fn run(
        mut self,
        transport: &dyn Transport,
        inbox: Receiver<Inbound>,
        hard_deadline: Duration,
    ) -> ServiceOutcome {
        self.start(Clock::Wall(Instant::now()), hard_deadline);
        loop {
            let wait = match self.step(transport, || inbox.try_recv().ok()) {
                Step::Busy => continue,
                Step::Exit => break,
                Step::Idle(wait) => wait,
            };
            // A frame and an admission both arrive here, so either ends
            // the wait at once.
            let waited = match inbox.recv_timeout(wait) {
                Ok(inbound) => Some(inbound),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => break,
            };
            self.resume(transport, waited);
        }
        self.finish(transport)
    }

    /// Start the pump on `clock`: start every admitted job and take their
    /// first snapshots. The pump exits once `deadline` has passed.
    pub(crate) fn start(&mut self, clock: Clock, deadline: Duration) {
        self.clock = clock;
        self.deadline = sim_time(deadline);
        let finished_already =
            !self.jobs.is_empty() && self.jobs.iter().all(|j| j.core.is_terminated());
        self.telemetry.emit(
            "engine_start",
            &[
                ("finished_already", finished_already.to_string()),
                ("jobs", self.jobs.len().to_string()),
            ],
        );
        for idx in 0..self.jobs.len() {
            self.start_job(idx);
        }
        self.charge(TimeCategory::Expand);
        // An immediate snapshot bounds the restart hole: even a node
        // killed moments after (re)starting leaves restorable files.
        self.last_checkpoint = self.clock.now();
        self.snapshot(None);
        self.last_metrics = self.clock.now();
    }

    /// One pass of the pump, without blocking: past the deadline, exit;
    /// execute one pending action, fold in whatever `inbox` holds, and
    /// settle. With no action pending the pass ends idle: the driver
    /// waits until the next timer deadline (20 ms at most) or an inbox
    /// item, then calls [`ServiceEngine::resume`].
    pub(crate) fn step(
        &mut self,
        transport: &dyn Transport,
        mut inbox: impl FnMut() -> Option<Inbound>,
    ) -> Step {
        if self.clock.now() > self.deadline {
            // The service's clean shutdown (daemon mode) or the tests'
            // safety valve; unfinished jobs report `terminated: false`.
            return Step::Exit;
        }
        let Some(idx) = self.next_actionable() else {
            if self.jobs.iter().all(|j| j.halted && j.pending.is_empty()) && !self.daemon {
                return Step::Exit;
            }
            return Step::Idle(self.next_timer_wait().min(Duration::from_millis(20)));
        };
        let action = self.jobs[idx].pending.pop_front().expect("peeked");
        let job = self.jobs[idx].job;
        match action {
            Action::Send { to, msg } => {
                transport.send(job, self.id, to, msg);
                self.charge(TimeCategory::Communicate);
            }
            Action::StartWork { code, seq } => {
                // One work unit: the depth-first search below the code
                // from the job's incumbent, for at most the report gap —
                // so the inbox, the timer wheels and the *other jobs*
                // wait at most that long for this job's tree walk.
                let engine = &mut self.jobs[idx];
                let incumbent = engine.core.incumbent();
                let budget = Duration::from_secs_f64(engine.core.config().report_gap_s());
                let unit = self
                    .clock
                    .explore(&mut engine.expander, &code, incumbent, budget);
                engine.step(PEvent::UnitDone { seq, unit }, self.clock.now());
                self.charge(TimeCategory::Expand);
            }
            Action::SetTimer { delay_s, timer } => {
                let now = self.clock.now();
                self.jobs[idx].arm(now, delay_s, timer);
                self.charge(timer.category());
            }
            Action::Halt => {
                let engine = &mut self.jobs[idx];
                engine.halted = true;
                engine.telemetry.emit(
                    "halt",
                    &[("incumbent", format!("{:?}", engine.core.incumbent()))],
                );
                self.charge(TimeCategory::Communicate);
            }
        }
        if self.jobs.iter().any(|j| !j.halted) {
            // Between actions, fold in whatever has arrived — without
            // blocking; local work keeps priority over idling.
            while let Some(inbound) = inbox() {
                self.route(inbound);
            }
        }
        self.settle(transport);
        Step::Busy
    }

    /// End an idle pass: charge the wait as idle, take what it brought.
    pub(crate) fn resume(&mut self, transport: &dyn Transport, waited: Option<Inbound>) {
        self.charge(TimeCategory::Idle);
        if let Some(inbound) = waited {
            self.route(inbound);
        }
        self.settle(transport);
    }

    /// Charge the time since the last mark to `cat` and move the mark.
    fn charge(&mut self, cat: TimeCategory) {
        let now = self.clock.now();
        self.phase
            .add(cat, now.saturating_sub(self.mark).as_secs_f64());
        self.mark = now;
    }

    /// The rest of a pass: fire every live job's due timers, surface
    /// membership transitions and recoveries, stream incumbent
    /// improvements, report (and in daemon mode retire) completed jobs,
    /// and run the checkpoint and metrics cadences.
    fn settle(&mut self, transport: &dyn Transport) {
        // After a job's halt only its remaining actions are flushed
        // (final sends); no new events are admitted for it.
        for idx in 0..self.jobs.len() {
            if self.jobs[idx].halted {
                continue;
            }
            loop {
                let t = self.clock.now();
                let Some(timer) = self.jobs[idx].pop_due(t) else {
                    break;
                };
                self.jobs[idx].step(PEvent::Timer(timer), t);
                self.charge(timer.category());
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
        self.charge(TimeCategory::Membership);

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
                // submitter that saw the result can rely on every pool
                // node's disk agreeing the job is finished.
                self.snapshot(Some(idx));
                self.report_job_done(idx);
                self.charge(TimeCategory::Communicate);
            }
            if self.daemon {
                self.retire(idx, transport);
                self.charge(TimeCategory::Communicate);
            } else {
                idx += 1;
            }
        }

        if let Some(&(every, _)) = self.checkpoints.as_ref() {
            if self.clock.now().saturating_sub(self.last_checkpoint) >= sim_time(every) {
                self.snapshot(None);
                self.last_checkpoint = self.clock.now();
            }
        }

        if let Some(&(every, _)) = self.metrics.as_ref() {
            if self.clock.now().saturating_sub(self.last_metrics) >= sim_time(every) {
                for idx in 0..self.jobs.len() {
                    if !self.jobs[idx].reported {
                        self.report_metrics(Some(idx), transport);
                    }
                }
                self.last_metrics = self.clock.now();
                self.charge(TimeCategory::Communicate);
            }
        }
    }

    /// Shut the pump down: final snapshots, metrics lines and outcomes
    /// for the jobs it still holds, then its outcome.
    pub(crate) fn finish(mut self, transport: &dyn Transport) -> ServiceOutcome {
        // Final snapshots for jobs that never completed (deadline exit),
        // so their files record the furthest state; completed jobs wrote
        // their final snapshot at completion.
        self.snapshot(None);
        // And the final metrics lines: one per job still held, so even a
        // short-lived node leaves at least one line per job, or the
        // node's own when it holds none.
        if self.jobs.is_empty() {
            self.report_metrics(None, transport);
        }
        for idx in 0..self.jobs.len() {
            self.report_metrics(Some(idx), transport);
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
        self.outcome()
    }

    /// The pump's outcome as it stands, with no side effect: what
    /// [`ServiceEngine::finish`] returns, and what a crash finds.
    pub(crate) fn outcome(&self) -> ServiceOutcome {
        let (id, incarnation) = (self.id, self.incarnation);
        let jobs = self.jobs.iter().map(|j| j.outcome(id, incarnation));
        ServiceOutcome {
            id,
            incarnation,
            jobs: jobs.collect(),
            admitted: self.admitted,
            finished: self.finished,
            late_frames: self.late_frames,
            phase: self.phase,
            lifetime: Duration::from_nanos(self.clock.now().as_nanos()),
        }
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

    /// Idle wait until the earliest timer deadline across live jobs.
    fn next_timer_wait(&self) -> Duration {
        let t = self.clock.now();
        let mut earliest: Option<SimTime> = None;
        for engine in &self.jobs {
            if engine.halted {
                continue;
            }
            if let Some(&Reverse((at, ..))) = engine.timers.peek() {
                earliest = Some(earliest.map_or(at, |e| e.min(at)));
            }
        }
        match earliest {
            Some(at) if at <= t => Duration::ZERO,
            Some(at) => Duration::from_nanos((at - t).as_nanos()),
            None => Duration::from_millis(5),
        }
    }

    /// Take one inbox item. A frame goes to the engine its job stamp
    /// names; it is stashed (bounded per job and in job ids) for a job not
    /// admitted yet, and counted and dropped for a halted or retired job
    /// (late traffic after termination). An admitted job is started at
    /// once, which replays its stash, and snapshotted. A peer's closed
    /// connection is traced, goes to every live job, and is remembered
    /// for the jobs admitted later until the peer's next frame.
    fn route(&mut self, inbound: Inbound) {
        let env = match inbound {
            Inbound::Frame(env) => env,
            Inbound::Admit(engine) => {
                self.admit(*engine);
                let idx = self.jobs.len() - 1;
                self.start_job(idx);
                self.charge(TimeCategory::Expand);
                self.snapshot(Some(idx));
                return;
            }
            Inbound::PeerClosed(peer) => {
                self.telemetry
                    .emit("peer_closed", &[("peer", peer.to_string())]);
                self.closed.insert(peer);
                let t = self.clock.now();
                for engine in self.jobs.iter_mut().filter(|j| !j.halted) {
                    engine.step(PEvent::PeerClosed(peer), t);
                }
                self.charge(TimeCategory::Membership);
                return;
            }
        };
        // A frame reopens its sender, as in the process itself.
        self.closed.remove(&env.from);
        let cat = BnbProcess::category(&env.msg);
        let t = self.clock.now();
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
        self.charge(cat);
    }

    /// Start an admitted job: stamp its telemetry, fire the protocol
    /// `Start`, replay any stashed traffic, then tell it of the peers
    /// whose connection is still closed.
    fn start_job(&mut self, idx: usize) {
        let t = self.clock.now();
        let job = self.jobs[idx].job;
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
        if !self.jobs[idx].halted {
            for &peer in &self.closed {
                self.jobs[idx].step(PEvent::PeerClosed(peer), t);
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

    /// Drop a reported job (daemon mode): its final metrics line goes
    /// out, and only its id stays behind.
    fn retire(&mut self, idx: usize, transport: &dyn Transport) {
        self.report_metrics(Some(idx), transport);
        let engine = self.jobs.remove(idx);
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
    fn report_metrics(&mut self, idx: Option<usize>, transport: &dyn Transport) {
        let Some((_, out)) = self.metrics.as_mut() else {
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
            elapsed_s: self.clock.now().as_secs_f64(),
            phase: self.phase,
            metrics,
            transport: transport.stats(),
            trace_events_dropped: self.telemetry.events_dropped(),
        });
    }

    /// With a checkpoint sink installed, store the snapshot of job `idx`,
    /// or for `None` of every job not yet reported, and charge the time.
    fn snapshot(&mut self, idx: Option<usize>) {
        let Some((_, sink)) = self.checkpoints.as_mut() else {
            return;
        };
        for (i, engine) in self.jobs.iter().enumerate() {
            if idx.map_or(engine.reported, |idx| idx != i) {
                continue;
            }
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
        self.charge(TimeCategory::Checkpoint);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{drive, ClusterConfig};
    use crate::transport::TransportCounters;
    use ftbb_bnb::{
        solve, BranchBound, Correlation, KnapsackInstance, MaxSatInstance, SolveConfig,
    };
    use ftbb_core::{holds_root, node_seed, Msg};
    use ftbb_tree::Code;
    use std::sync::mpsc::{channel, Sender};
    use std::thread;
    use std::time::Instant;

    /// A sink that remembers every snapshot it was handed; its clones
    /// share one list.
    #[derive(Clone, Default)]
    struct VecSink(Arc<std::sync::Mutex<Vec<Checkpoint>>>);

    impl VecSink {
        fn stored(&self) -> Vec<Checkpoint> {
            self.0.lock().unwrap().clone()
        }
    }

    impl CheckpointSink for VecSink {
        fn store(&mut self, chk: &Checkpoint) -> Result<(), String> {
            self.0.lock().unwrap().push(chk.clone());
            Ok(())
        }
    }

    /// Node 0's transport in the wall-clock tests: a send to node 0 comes
    /// back on its own inbox; its peers never run, so a send to one is
    /// counted and goes nowhere.
    struct Loopback {
        inbox: Sender<Inbound>,
        counters: TransportCounters,
    }

    impl Transport for Loopback {
        fn send(&self, job: JobId, from: u32, to: u32, msg: Msg) {
            let wire = msg.wire_size();
            self.counters.record_send(wire, wire);
            if to == 0 {
                let _ = self.inbox.send(Inbound::Frame(Envelope { job, from, msg }));
            }
        }

        fn endpoints(&self) -> usize {
            1
        }

        fn counters(&self) -> &TransportCounters {
            &self.counters
        }
    }

    /// Node 0 on the wall clock: its transport, the sending end of its
    /// inbox (admissions, and frames from peers that never run) and the
    /// inbox.
    fn wall_node() -> (Loopback, Sender<Inbound>, Receiver<Inbound>) {
        let (tx, inbox) = channel();
        let net = Loopback {
            inbox: tx.clone(),
            counters: TransportCounters::default(),
        };
        (net, tx, inbox)
    }

    /// Run `svc` as node 0 on the wall clock until `deadline`.
    fn run_wall(svc: ServiceEngine, deadline: Duration) -> ServiceOutcome {
        let (net, _tx, inbox) = wall_node();
        svc.run(&net, inbox, deadline)
    }

    fn ids(outcomes: &[ServiceOutcome]) -> Vec<u32> {
        outcomes.iter().map(|o| o.id).collect()
    }

    /// A work report for `job` from node 1.
    fn report(job: u64) -> Inbound {
        Inbound::Frame(Envelope {
            job: JobId(job),
            from: 1,
            msg: Msg::WorkReport {
                codes: vec![Code::root().child(0, true)],
                incumbent: f64::INFINITY,
            },
        })
    }

    #[test]
    fn timer_entries_compare_consistently() {
        // A job's timers order by deadline, then by arming sequence; the
        // timer itself never decides, so timers due together fire in
        // arming order whatever their payloads (`PTimer`'s own order puts
        // `LbTimeout(3)` before `LbTimeout(9)`, `ReportFlush` first).
        let core = BnbProcess::new(0, vec![0], ProtocolConfig::default(), 0.0, true, 1);
        let mut job = JobEngine::new(JobId::DEFAULT, core, tiny_instance());
        let t0 = SimTime::from_millis(5);
        let together = [
            PTimer::LbTimeout(9),
            PTimer::LbTimeout(3),
            PTimer::BoundFlush,
            PTimer::ReportFlush,
        ];
        for timer in together {
            job.arm(t0, 0.002, timer);
        }
        job.arm(t0, 0.001, PTimer::TableGossip);
        assert_eq!(job.pop_due(t0), None, "nothing is due yet");
        assert_eq!(
            job.pop_due(SimTime::from_millis(6)),
            Some(PTimer::TableGossip)
        );
        assert_eq!(job.pop_due(SimTime::from_millis(6)), None);
        let fired: Vec<PTimer> = std::iter::from_fn(|| job.pop_due(SimTime::MAX)).collect();
        assert_eq!(fired, together);
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
        let sink = VecSink::default();
        let mut svc = single_run(&instance);
        svc.set_checkpoint_sink(Duration::from_millis(1), Box::new(sink.clone()));
        let outcome = run_wall(svc, Duration::from_secs(30));
        assert_eq!(outcome.incarnation, 0);
        assert_eq!(outcome.jobs.len(), 1);
        assert!(outcome.jobs[0].terminated);
        assert_eq!(Some(outcome.jobs[0].incumbent), reference.best);

        // At least the startup and exit snapshots, all bound, all scoped
        // to the default job, and all restorable (encode/decode round
        // trip).
        let stored = sink.stored();
        assert!(stored.len() >= 2, "{} snapshots", stored.len());
        for chk in &stored {
            assert_eq!(chk.incarnation, 0);
            assert_eq!(chk.job, JobId::DEFAULT);
            assert_eq!(chk.problem.as_deref(), Some(&instance));
            assert_eq!(&Checkpoint::decode(&chk.encode()).unwrap(), chk);
        }
        // The final snapshot records the finished search.
        let last = stored.last().unwrap();
        assert_eq!(Some(last.incumbent), reference.best);
    }

    #[test]
    fn restored_single_run_finishes_the_interrupted_search() {
        let instance = tiny_instance();
        let reference = solve(&instance, &SolveConfig::default());

        // First life: its deadline has passed by its first pass, so it
        // leaves only its startup snapshot (root in pool, nothing solved)
        // and the unfinished final one.
        let sink = VecSink::default();
        let mut svc = single_run(&instance);
        svc.set_checkpoint_sink(Duration::from_millis(1), Box::new(sink.clone()));
        let outcome = run_wall(svc, Duration::ZERO);
        assert!(!outcome.jobs[0].terminated, "the deadline cut the search");
        assert_eq!(outcome.jobs[0].metrics.expanded, 0);
        let chk = sink.stored()[0].clone();
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
        let outcome = run_wall(svc, Duration::from_secs(30));
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

        // Every slice of time lands in some category, so the breakdown
        // reconciles with the engine's lifetime. On the wall clock, 10%
        // is the acceptance tolerance (in-process it is far tighter). On
        // a virtual clock, time moves only by a unit's cost or an idle
        // wait, each charged as it passes: the two agree to the
        // nanosecond.
        for on_virtual_clock in [false, true] {
            let reconciles = |total: f64, elapsed: f64| {
                if on_virtual_clock {
                    SimTime::from_secs_f64(total) == SimTime::from_secs_f64(elapsed)
                } else {
                    (total - elapsed).abs() <= 0.1 * elapsed.max(1e-3)
                }
            };
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

            let outcome = if on_virtual_clock {
                let (mut exited, _) = drive(vec![svc], &[], Duration::from_secs(30));
                exited.pop().expect("the node ran to the end")
            } else {
                run_wall(svc, Duration::from_secs(30))
            };
            assert!(outcome.jobs[0].terminated);
            let (total, elapsed) = (outcome.phase.total(), outcome.lifetime.as_secs_f64());
            assert!(
                reconciles(total, elapsed),
                "phase sum {total} vs elapsed {elapsed}"
            );
            // A solving single node does real expansion work.
            assert!(outcome.phase.expand_s > 0.0);

            // Interval snapshots arrived, ordered, job-scoped to the
            // default job, and each reconciles too.
            let snaps = snaps.lock().unwrap();
            assert!(!snaps.is_empty());
            for (i, s) in snaps.iter().enumerate() {
                assert_eq!(s.seq, i as u64);
                assert_eq!(s.job, 0, "single-run snapshots carry the default job");
                let total = s.phase.total();
                assert!(
                    reconciles(total, s.elapsed_s),
                    "snapshot {i}: {total} vs {}",
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

    /// Run a pool of `n` service nodes on virtual clocks, every node
    /// admitted the same job set, crashing node `c` at `at` for each
    /// `(c, at)` of `crashes`; the outcomes of the nodes that ran to the
    /// end, and of those crashed.
    fn run_pool(
        n: u32,
        jobs: &[(JobId, ftbb_bnb::AnyInstance)],
        crashes: &[(u32, Duration)],
    ) -> (Vec<ServiceOutcome>, Vec<ServiceOutcome>) {
        let members: Vec<u32> = (0..n).collect();
        let engines = members
            .iter()
            .map(|&id| service_node(id, &members, jobs, 7))
            .collect();
        drive(engines, crashes, Duration::from_secs(30))
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
        let (outcomes, crashed) = run_pool(3, &jobs, &[]);
        assert!(crashed.is_empty());
        assert_eq!(ids(&outcomes), [0, 1, 2]);
        for (id, outcome) in outcomes.iter().enumerate() {
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
                .flat_map(|o| &o.jobs)
                .filter(|j| j.job == *job)
                .map(|j| j.metrics.expanded)
                .sum();
            assert!(expanded > 0, "job {job} expanded nothing");
        }
    }

    #[test]
    fn killing_a_node_mid_run_loses_neither_job() {
        // Larger jobs than the no-crash test (7 429 and 1 517 sequential
        // expansions), so the pool is still solving both when node 1's
        // crash lands.
        let jobs: Vec<(JobId, ftbb_bnb::AnyInstance)> = vec![
            (
                JobId(11),
                KnapsackInstance::generate(32, 80, Correlation::Strong, 0.5, 5).into(),
            ),
            (JobId(22), MaxSatInstance::generate(22, 90, 2).into()),
        ];
        let crash_at = Duration::from_millis(20);
        let (survivors, crashed) = run_pool(3, &jobs, &[(1, crash_at)]);
        assert_eq!(ids(&survivors), [0, 2]);
        assert_eq!(ids(&crashed), [1], "the crash landed before node 1 exited");
        for jo in &crashed[0].jobs {
            assert!(
                jo.metrics.expanded > 0,
                "the victim had no work of job {}",
                jo.job
            );
        }
        for outcome in &survivors {
            let id = outcome.id;
            assert!(
                outcome.lifetime > crash_at,
                "node {id} ended before the crash"
            );
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

    /// A daemon for node 0, pumped on its own thread on the wall clock
    /// until `deadline`. Admissions and peer frames go in through the
    /// returned sender; node 0's completions come out on the returned
    /// channel; its peers never run.
    fn daemon_on_inbox(
        deadline: Duration,
        setup: impl FnOnce(&mut ServiceEngine),
    ) -> (
        Sender<Inbound>,
        thread::JoinHandle<ServiceOutcome>,
        Receiver<JobOutcome>,
    ) {
        let (net, tx, inbox) = wall_node();
        let (done_tx, done_rx) = channel();
        let mut svc = ServiceEngine::new(0, 0);
        svc.daemon(true);
        svc.set_hooks(ServiceHooks {
            on_complete: Some(Box::new(move |o: &JobOutcome| {
                let _ = done_tx.send(o.clone());
            })),
            ..Default::default()
        });
        setup(&mut svc);
        let handle = thread::spawn(move || svc.run(&net, inbox, deadline));
        (tx, handle, done_rx)
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

        let (admit, handle, done) = daemon_on_inbox(Duration::from_secs(3), |_| ());
        let protocol = ClusterConfig::new(1).protocol;
        assert!(admit
            .send(admission(1, &[0], protocol.clone(), &instance_a, true))
            .is_ok());
        thread::sleep(Duration::from_millis(50));
        assert!(admit
            .send(admission(2, &[0], protocol, &instance_b, true))
            .is_ok());

        let outcome = handle.join().expect("daemon thread");
        assert_eq!((outcome.admitted, outcome.finished), (2, 2));
        assert!(outcome.jobs.is_empty(), "both finished jobs were retired");
        assert!(
            outcome.lifetime >= Duration::from_secs(3),
            "daemon runs to its deadline even after all jobs complete"
        );
        let done: Vec<JobOutcome> = done.try_iter().collect();
        assert_eq!(done.len(), 2, "both completions delivered via hooks");
        let by_job = |job: JobId| done.iter().find(|o| o.job == job).unwrap();
        assert!(by_job(JobId(1)).terminated);
        assert_eq!(Some(by_job(JobId(1)).incumbent), ref_a.best);
        assert!(by_job(JobId(2)).terminated);
        assert_eq!(Some(by_job(JobId(2)).incumbent), ref_b.best);
    }

    #[test]
    fn late_frames_for_retired_jobs_are_dropped_and_take_no_stash_slot() {
        // More retired jobs than the stash has job slots, each sent a
        // late frame: none may take a slot, so a new job's early frames
        // are still stashed and replayed at its admission. The inbox is
        // one channel, so every item below is taken in the order sent.
        const RETIRED: u64 = STASHED_JOBS_CAP as u64 + 6;
        let (admit, handle, done) = daemon_on_inbox(Duration::from_secs(2), |_| ());
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
        for job in 1..=RETIRED {
            assert!(admit.send(report(job)).is_ok());
        }
        let fresh = RETIRED + 1;
        for _ in 0..3 {
            assert!(admit.send(report(fresh)).is_ok());
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

        let outcome = handle.join().expect("pump thread");
        assert_eq!(
            outcome.late_frames, RETIRED,
            "one late frame per retired job"
        );
        assert_eq!((outcome.admitted, outcome.finished), (fresh, fresh));
        assert!(outcome.jobs.is_empty(), "every finished job was retired");
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
        let (admit, handle, done) = daemon_on_inbox(Duration::from_secs(2), |_| ());
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
        let outcome = handle.join().expect("pump thread");
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
        let (_admit, handle, done) = daemon_on_inbox(deadline, |svc| {
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
        let outcome = handle.join().expect("pump thread");
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
        let mut svc = ServiceEngine::new(0, 0);
        // A job stashed within the cap, then a flood of ids never admitted.
        for _ in 0..3 {
            svc.route(report(1));
        }
        for job in 2..10_002 {
            svc.route(report(job));
            assert!(svc.stash.len() <= STASHED_JOBS_CAP);
        }
        assert_eq!(svc.stash.len(), STASHED_JOBS_CAP);
        assert_eq!(svc.stash[&JobId(1)].len(), 3);

        // Admitting job 1 replays its backlog: three reports received.
        let instance = tiny_instance();
        let root = instance.bound(&instance.root());
        let core = BnbProcess::new(0, vec![0, 1], ProtocolConfig::default(), root, true, 1);
        svc.admit(JobEngine::new(JobId(1), core, instance));
        svc.start_job(0);
        assert!(!svc.stash.contains_key(&JobId(1)));
        assert_eq!(svc.jobs[0].core.metrics().reports_received, 3);
    }

    /// A transport that records whom each send addresses.
    #[derive(Default)]
    struct Recipients {
        to: std::sync::Mutex<Vec<u32>>,
        counters: TransportCounters,
    }

    impl Transport for Recipients {
        fn send(&self, _: JobId, _: u32, to: u32, msg: Msg) {
            let wire = msg.wire_size();
            self.counters.record_send(wire, wire);
            self.to.lock().unwrap().push(to);
        }

        fn endpoints(&self) -> usize {
            2
        }

        fn counters(&self) -> &TransportCounters {
            &self.counters
        }
    }

    #[test]
    fn a_job_admitted_after_a_peer_closed_learns_of_it() {
        // Node 0 of a duo routes `before`, then admits a job that holds
        // the root and pumps it to its end on a virtual clock: the job's
        // `peers_closed` right after admission, its outcome, and whom its
        // sends addressed.
        let instance = tiny_instance();
        let run = |before: Vec<Inbound>| {
            let net = Recipients::default();
            let mut svc = ServiceEngine::new(0, 0);
            svc.start(Clock::Virtual(SimTime::ZERO), Duration::from_secs(30));
            for inbound in before {
                svc.route(inbound);
            }
            let protocol = ClusterConfig::new(2).protocol;
            svc.route(admission(1, &[0, 1], protocol, &instance, true));
            let peers_closed = svc.jobs[0].core.metrics().peers_closed;
            loop {
                match svc.step(&net, || None) {
                    Step::Busy => {}
                    Step::Idle(wait) => {
                        svc.clock = Clock::Virtual(svc.clock.now() + sim_time(wait));
                        svc.resume(&net, None);
                    }
                    Step::Exit => break,
                }
            }
            let outcome = svc.finish(&net);
            (
                peers_closed,
                outcome.jobs[0].clone(),
                net.to.into_inner().unwrap(),
            )
        };
        let reference = solve(&instance, &SolveConfig::default()).best;

        let (peers_closed, job, to) = run(vec![Inbound::PeerClosed(1)]);
        assert_eq!(peers_closed, 1, "the job started with peer 1 closed");
        assert!(job.terminated);
        assert_eq!(Some(job.incumbent), reference);
        assert!(!to.contains(&1), "a send addressed the closed peer: {to:?}");

        // A frame from the peer (here for a job not admitted) reopens it
        // for the node, before the job is admitted.
        let (peers_closed, job, _) = run(vec![Inbound::PeerClosed(1), report(9)]);
        assert_eq!(peers_closed, 0, "the peer spoke after its close");
        assert!(job.terminated);
    }

    #[test]
    fn job_scoped_snapshots_restore_per_job() {
        // A service with two jobs is cut short by its deadline; both
        // per-job startup snapshots restore into job engines that finish
        // their searches.
        let jobs = two_jobs();
        let mut svc = service_node(0, &[0], &jobs, 5);
        let sink = VecSink::default();
        svc.set_checkpoint_sink(Duration::from_millis(1), Box::new(sink.clone()));
        let outcome = run_wall(svc, Duration::ZERO);
        assert!(outcome.jobs.iter().all(|j| !j.terminated));
        let stored = sink.stored();

        // Startup snapshots exist for both jobs, each scoped to its id.
        for (job, instance) in &jobs {
            let chk = stored
                .iter()
                .find(|c| c.job == *job)
                .expect("startup snapshot per job")
                .clone();
            let restored =
                JobEngine::restore(&chk, ClusterConfig::new(1).protocol, 11).expect("bound");
            assert_eq!(restored.job(), *job);

            let mut svc: ServiceEngine = ServiceEngine::new(0, chk.incarnation + 1);
            svc.admit(restored);
            let outcome = run_wall(svc, Duration::from_secs(30));
            let reference = solve(instance, &SolveConfig::default());
            assert_eq!(outcome.jobs.len(), 1);
            assert!(outcome.jobs[0].terminated);
            assert_eq!(Some(outcome.jobs[0].incumbent), reference.best);
        }
    }
}
