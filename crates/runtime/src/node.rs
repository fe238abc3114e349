//! What a node reports, and the one-shot [`run_node`] helper.
//!
//! Every node — threaded harness, TCP daemon, single run or service pool
//! — is a [`crate::ServiceEngine`] pumping one or more
//! [`crate::JobEngine`]s; this module holds the types that pump hands
//! outward ([`MetricsSnapshot`] on the metrics cadence, [`NodeOutcome`]
//! from [`run_node`]) and the [`CrashSwitch`] failure injectors trip.
//! [`run_node`] is the short form harnesses use when they want neither
//! restore nor persistence: one fresh job ([`JobId::DEFAULT`]) run to
//! completion on its own pump.

use crate::service::{JobEngine, ServiceEngine, ServiceOutcome};
use crate::transport::{Inbound, Transport, TransportStats};
use crossbeam::channel::Receiver;
use ftbb_bnb::AnyInstance;
use ftbb_core::{BnbProcess, JobId, PhaseTimes, ProcMetrics};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What [`run_node`] reports when its one job's pump exits.
#[derive(Debug, Clone)]
pub struct NodeOutcome {
    /// Node id.
    pub id: u32,
    /// Which life of the node produced this outcome (0 = first).
    pub incarnation: u32,
    /// Did it detect termination (as opposed to being crashed)?
    pub terminated: bool,
    /// Its final incumbent.
    pub incumbent: f64,
    /// Protocol counters.
    pub metrics: ProcMetrics,
    /// Figure-3 wall-time breakdown of this life.
    pub phase: PhaseTimes,
    /// Wall-clock lifetime.
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
    /// Wall seconds since this engine started running.
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
    /// Expansion worker threads driving this engine (1 = work units
    /// inline in the event pump, no pool).
    pub workers: usize,
}

/// Crash switch handed to the failure injector.
#[derive(Debug, Clone, Default)]
pub struct CrashSwitch(Arc<AtomicBool>);

impl CrashSwitch {
    /// Trip the switch: the node dies silently at its next loop iteration.
    pub fn crash(&self) {
        self.0.store(true, Ordering::Release);
    }

    pub(crate) fn is_crashed(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Consumer installed via [`ServiceEngine::set_metrics_reporter`];
/// receives [`MetricsSnapshot`]s on every cadence tick, at each
/// retirement and at clean exit.
pub type MetricsReporter = Box<dyn FnMut(&MetricsSnapshot) + Send>;

/// Drive `core` on `problem` until termination or crash, with no restore
/// and no persistence: admit it as the one job of a fresh
/// [`ServiceEngine`] and pump that to completion. Returns the outcome
/// (`None` if the node was crashed — crashed nodes report nothing).
pub fn run_node(
    core: BnbProcess,
    problem: impl Into<Arc<AnyInstance>>,
    transport: &dyn Transport,
    inbox: Receiver<Inbound>,
    crash: CrashSwitch,
    hard_deadline: Duration,
) -> Option<NodeOutcome> {
    let mut service = ServiceEngine::new(core.id(), 0);
    service.admit(JobEngine::new(JobId::DEFAULT, core, problem));
    let ServiceOutcome {
        id,
        incarnation,
        jobs,
        phase,
        lifetime,
        ..
    } = service.run(transport, inbox, crash, hard_deadline)?;
    let job = jobs.into_iter().next().expect("the admitted job reports");
    Some(NodeOutcome {
        id,
        incarnation,
        terminated: job.terminated,
        incumbent: job.incumbent,
        metrics: job.metrics,
        phase,
        lifetime,
    })
}
