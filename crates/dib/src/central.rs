//! The centralized manager–worker baseline (paper §3).
//!
//! "Many investigations of parallel B&B for distributed-memory systems have
//! adopted a centralized approach in which a single manager maintains the
//! tree and hands out tasks to workers. While clearly not scalable, this
//! approach simplifies the management of information … the central manager
//! remains an obstacle to both scalability and fault tolerance."
//!
//! The manager (process 0) owns the pool, the incumbent, and the lease
//! ledger; workers are stateless executors. Both roles are one [`Central`]
//! state machine, so the simulator runs them in its one actor. Two
//! measurable weaknesses:
//!
//! 1. **Scalability** — every expansion costs two manager messages plus the
//!    manager's own dispatch overhead, so throughput saturates at
//!    `1 / manager_overhead` regardless of worker count.
//! 2. **Fault tolerance** — worker crashes are tolerated by reissuing
//!    leases after a timeout, but a manager crash ends the computation.

use ftbb_core::{Event, ProcMetrics, Protocol, TimeCategory};
use ftbb_des::SimTime;
use ftbb_tree::Code;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The manager's dispatch time per fetch, seconds: its serial bottleneck.
/// Fetches queue behind each other, and each reply leaves when the
/// dispatcher gets to it.
pub const DISPATCH_S: f64 = 2e-3;
/// How long a leased task may stay unreported before the manager reissues
/// it (worker-failure recovery), seconds.
const LEASE_TIMEOUT_S: f64 = 2.0;
/// A worker told to `Wait` fetches again after this long, seconds.
const RETRY_S: f64 = 0.02;

/// Messages of the centralized protocol.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CentralMsg {
    /// Worker → manager: "give me a task" (also returns results).
    Fetch {
        /// Completed task (code + expansion outcome), if any.
        result: Option<(Code, WorkerResult)>,
    },
    /// Manager → worker: a task lease.
    Task {
        /// Subproblem to expand.
        code: Code,
        /// Manager's incumbent.
        incumbent: f64,
    },
    /// Manager → worker: nothing available right now; retry later.
    Wait,
    /// Manager → everyone: computation finished.
    Done {
        /// Final incumbent.
        incumbent: f64,
    },
}

/// What a worker observed expanding a node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerResult {
    /// Feasible solution found at the node, if any.
    pub solution: Option<f64>,
    /// Children (bounds included), if the node branched.
    pub children: Option<(u16, f64, f64)>,
}

/// Timers of the centralized system.
#[derive(Debug, Clone, PartialEq)]
pub enum CentralAlarm {
    /// Manager: the dispatcher reached this reply; send it.
    Reply {
        /// The fetching worker.
        to: u32,
        /// Its reply.
        msg: CentralMsg,
    },
    /// Worker: fetch again after a `Wait`.
    Retry,
}

/// Actions of the centralized system.
pub type Action = ftbb_core::Action<CentralMsg, CentralAlarm>;

/// One process of the centralized system: process 0 is the manager, the
/// others are its workers.
#[derive(Debug)]
pub struct Central {
    me: u32,
    nprocs: u32,
    /// Manager: pending `(code, bound)` tasks.
    pool: Vec<(Code, f64)>,
    /// Manager: outstanding leases, code → (worker, issue time).
    leases: BTreeMap<Code, (u32, SimTime)>,
    /// Manager: when the dispatcher has worked off every fetch so far.
    dispatch_until: SimTime,
    /// Worker: the task it is expanding.
    current: Option<Code>,
    incumbent: f64,
    done: bool,
    /// A worker counts its expansions. Every fetch is answered by a grant
    /// (`Task`) or a denial (`Wait` or `Done`), so the manager's
    /// `grants_sent + denies_sent` fetches took `DISPATCH_S` each.
    metrics: ProcMetrics,
}

impl Central {
    /// Process `me` of `nprocs`; the manager starts with the root task.
    pub fn new(me: u32, nprocs: u32, root_bound: f64) -> Self {
        Central {
            me,
            nprocs,
            pool: if me == 0 {
                vec![(Code::root(), root_bound)]
            } else {
                Vec::new()
            },
            leases: BTreeMap::new(),
            dispatch_until: SimTime::ZERO,
            current: None,
            incumbent: f64::INFINITY,
            done: false,
            metrics: ProcMetrics::default(),
        }
    }

    /// Manager: process a worker's fetch (with optional result); returns
    /// the reply.
    fn on_fetch(
        &mut self,
        worker: u32,
        result: Option<(Code, WorkerResult)>,
        now: SimTime,
    ) -> CentralMsg {
        if let Some((code, res)) = result {
            // Accept results only from current leaseholders (stale reissued
            // leases are ignored — exactly-once effect per completion).
            if self.leases.get(&code).map(|&(w, _)| w) == Some(worker) {
                self.leases.remove(&code);
                if let Some(v) = res.solution {
                    self.incumbent = self.incumbent.min(v);
                }
                if let Some((var, lb, rb)) = res.children {
                    for (bit, b) in [(false, lb), (true, rb)] {
                        if b < self.incumbent {
                            self.pool.push((code.child(var, bit), b));
                        }
                    }
                }
            }
        }
        // Reissue expired leases (worker-failure recovery).
        let timeout = SimTime::from_secs_f64(LEASE_TIMEOUT_S);
        let expired: Vec<Code> = self
            .leases
            .iter()
            .filter(|(_, &(_, at))| now.saturating_sub(at) >= timeout)
            .map(|(c, _)| c.clone())
            .collect();
        for code in expired {
            self.leases.remove(&code);
            self.pool.push((code, f64::NEG_INFINITY));
        }
        // Prune stale pool entries eagerly.
        while self.pool.last().is_some_and(|&(_, b)| b >= self.incumbent) {
            self.pool.pop();
        }

        if let Some((code, _)) = self.pool.pop() {
            self.leases.insert(code.clone(), (worker, now));
            self.metrics.grants_sent += 1;
            let incumbent = self.incumbent;
            return CentralMsg::Task { code, incumbent };
        }
        self.metrics.denies_sent += 1;
        if !self.leases.is_empty() {
            return CentralMsg::Wait;
        }
        // Nothing pending, nothing leased: finished.
        self.done = true;
        let incumbent = self.incumbent;
        CentralMsg::Done { incumbent }
    }

    fn manage(
        &mut self,
        event: Event<CentralMsg, CentralAlarm>,
        now: SimTime,
        out: &mut Vec<Action>,
    ) {
        match event {
            Event::Recv {
                from,
                msg: CentralMsg::Fetch { result },
            } if !self.done => {
                // A serial server: this fetch queues behind earlier ones.
                self.dispatch_until =
                    self.dispatch_until.max(now) + SimTime::from_secs_f64(DISPATCH_S);
                let msg = self.on_fetch(from, result, now);
                out.push(Action::SetTimer {
                    delay_s: (self.dispatch_until - now).as_secs_f64(),
                    timer: CentralAlarm::Reply { to: from, msg },
                });
            }
            Event::Timer(CentralAlarm::Reply { to, msg }) => {
                let done = matches!(msg, CentralMsg::Done { .. });
                out.push(Action::Send { to, msg });
                if done {
                    let incumbent = self.incumbent;
                    for w in (1..self.nprocs).filter(|&w| w != to) {
                        let msg = CentralMsg::Done { incumbent };
                        out.push(Action::Send { to: w, msg });
                    }
                    out.push(Action::Halt);
                }
            }
            _ => {}
        }
    }

    fn work(&mut self, event: Event<CentralMsg, CentralAlarm>, out: &mut Vec<Action>) {
        let fetch = |result| Action::Send {
            to: 0,
            msg: CentralMsg::Fetch { result },
        };
        match event {
            Event::Start | Event::Timer(CentralAlarm::Retry) => out.push(fetch(None)),
            Event::Recv { msg, .. } => match msg {
                CentralMsg::Task { code, incumbent } => {
                    self.incumbent = self.incumbent.min(incumbent);
                    self.current = Some(code.clone());
                    let seq = self.metrics.expanded;
                    out.push(Action::StartWork { code, seq });
                }
                CentralMsg::Wait => out.push(Action::SetTimer {
                    delay_s: RETRY_S,
                    timer: CentralAlarm::Retry,
                }),
                CentralMsg::Done { incumbent } => {
                    self.incumbent = incumbent;
                    self.done = true;
                    out.push(Action::Halt);
                }
                CentralMsg::Fetch { .. } => {}
            },
            Event::WorkDone { expansion, .. } => {
                if let Some(code) = self.current.take() {
                    self.metrics.expanded += 1;
                    let result = WorkerResult {
                        solution: expansion.solution,
                        children: (expansion.children)
                            .map(|c| (c.var, c.left_bound, c.right_bound)),
                    };
                    out.push(fetch(Some((code, result))));
                }
            }
            Event::Timer(CentralAlarm::Reply { .. }) => {}
            Event::UnitDone { .. } => unreachable!("the baselines expand one node per StartWork"),
            // The manager's lease timeout is the only failure detector.
            Event::PeerClosed(_) => {}
        }
    }
}

impl Protocol for Central {
    type Msg = CentralMsg;
    type Timer = CentralAlarm;

    fn step(
        &mut self,
        event: Event<CentralMsg, CentralAlarm>,
        now: SimTime,
        out: &mut Vec<Action>,
    ) {
        match self.me {
            0 => self.manage(event, now, out),
            _ => self.work(event, out),
        }
    }

    fn category(msg: &CentralMsg) -> TimeCategory {
        match msg {
            CentralMsg::Done { .. } => TimeCategory::Communicate,
            _ => TimeCategory::LoadBalance,
        }
    }

    /// Same accounting scheme as the paper's protocol.
    fn wire_size(msg: &CentralMsg) -> usize {
        match msg {
            CentralMsg::Fetch { result: None } => 2,
            CentralMsg::Fetch {
                result: Some((code, _)),
            } => 2 + code.wire_size() + 24,
            CentralMsg::Task { code, .. } => 1 + code.wire_size() + 8,
            CentralMsg::Wait => 1,
            CentralMsg::Done { .. } => 9,
        }
    }

    fn metrics(&self) -> &ProcMetrics {
        &self.metrics
    }

    fn is_terminated(&self) -> bool {
        self.done
    }

    fn is_working(&self) -> bool {
        self.current.is_some()
    }

    fn incumbent(&self) -> f64 {
        self.incumbent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(solution: Option<f64>) -> WorkerResult {
        let children = None;
        WorkerResult { solution, children }
    }

    fn branch(left_bound: f64, right_bound: f64) -> WorkerResult {
        let children = Some((1, left_bound, right_bound));
        WorkerResult {
            solution: None,
            children,
        }
    }

    fn step(c: &mut Central, event: Event<CentralMsg, CentralAlarm>, ms: u64) -> Vec<Action> {
        let mut out = Vec::new();
        c.step(event, SimTime::from_millis(ms), &mut out);
        out
    }

    /// Deliver `worker`'s fetch to the manager at `ms`: the reply it
    /// schedules, and the dispatch delay before it leaves.
    fn fetch_delayed(
        c: &mut Central,
        worker: u32,
        result: Option<(Code, WorkerResult)>,
        ms: u64,
    ) -> (CentralMsg, f64) {
        let msg = CentralMsg::Fetch { result };
        match &step(c, Event::Recv { from: worker, msg }, ms)[..] {
            [Action::SetTimer {
                delay_s,
                timer: CentralAlarm::Reply { to, msg },
            }] if *to == worker => (msg.clone(), *delay_s),
            other => panic!("expected one scheduled reply, got {other:?}"),
        }
    }

    fn fetch(
        c: &mut Central,
        worker: u32,
        result: Option<(Code, WorkerResult)>,
        ms: u64,
    ) -> CentralMsg {
        fetch_delayed(c, worker, result, ms).0
    }

    fn task(reply: CentralMsg) -> Code {
        match reply {
            CentralMsg::Task { code, .. } => code,
            other => panic!("expected task, got {other:?}"),
        }
    }

    #[test]
    fn manager_hands_out_root_first() {
        let mut m = Central::new(0, 3, 0.0);
        assert!(task(fetch(&mut m, 1, None, 0)).is_root());
    }

    #[test]
    fn replies_leave_when_the_dispatcher_reaches_them() {
        let mut m = Central::new(0, 3, 0.0);
        assert_eq!(fetch_delayed(&mut m, 1, None, 0).1, DISPATCH_S);
        assert_eq!(fetch_delayed(&mut m, 2, None, 0).1, 2.0 * DISPATCH_S);
        assert_eq!(m.metrics.grants_sent + m.metrics.denies_sent, 2);
    }

    #[test]
    fn single_leaf_completes_computation() {
        let mut m = Central::new(0, 3, 0.0);
        let code = task(fetch(&mut m, 1, None, 0));
        let reply = fetch(&mut m, 1, Some((code, leaf(Some(4.0)))), 10);
        assert!(matches!(reply, CentralMsg::Done { incumbent } if incumbent == 4.0));
        assert!(m.is_terminated());
        // The reply leaves with the broadcast to every other worker.
        let timer = CentralAlarm::Reply { to: 1, msg: reply };
        let out = step(&mut m, Event::Timer(timer), 12);
        let to: Vec<u32> = out
            .iter()
            .filter_map(|a| match a {
                Action::Send { to, .. } => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(to, vec![1, 2]);
        assert!(matches!(out.last(), Some(Action::Halt)));
    }

    #[test]
    fn branch_results_enqueue_children() {
        let mut m = Central::new(0, 2, 0.0);
        let code = task(fetch(&mut m, 1, None, 0));
        fetch(&mut m, 1, Some((code, branch(0.5, 0.7))), 5);
        // One leased to the fetcher, one pooled.
        assert_eq!((m.leases.len(), m.pool.len()), (1, 1));
    }

    #[test]
    fn expired_lease_is_reissued() {
        let mut m = Central::new(0, 3, 0.0);
        let leased = task(fetch(&mut m, 1, None, 0));
        // Worker 1 silently dies; worker 2 fetches after the timeout.
        assert_eq!(task(fetch(&mut m, 2, None, 2_500)), leased);
    }

    #[test]
    fn stale_result_from_old_leaseholder_ignored() {
        let mut m = Central::new(0, 3, 0.0);
        let code = task(fetch(&mut m, 1, None, 0));
        // Lease expires and is reissued to worker 2.
        fetch(&mut m, 2, None, 2_500);
        // Worker 1's late result must not complete worker 2's lease, nor
        // supply the incumbent: worker 2's eventual result will.
        fetch(&mut m, 1, Some((code.clone(), leaf(Some(1.0)))), 2_510);
        assert_eq!(m.leases.get(&code).map(|&(w, _)| w), Some(2));
        assert!(m.incumbent().is_infinite());
    }

    #[test]
    fn eliminated_children_count_as_completed() {
        let mut m = Central::new(0, 2, 0.0);
        m.incumbent = 0.6;
        let code = task(fetch(&mut m, 1, None, 0));
        // Both children ≥ incumbent: eliminated ⇒ computation done.
        let reply = fetch(&mut m, 1, Some((code, branch(0.7, 0.9))), 5);
        assert!(matches!(reply, CentralMsg::Done { .. }));
    }
}
