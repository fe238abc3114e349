//! The DIB protocol process.
//!
//! DIB (Finkel & Manber 1987) keeps fault tolerance by *responsibility
//! tracking*: "each machine memorizes the problems for which it is
//! responsible, as well as the machines to which it sent problems … The
//! completion of a problem is reported to the machine the problem came
//! from. Hence, each machine can determine whether the work for which it is
//! responsible is still unsolved, and can redo that work in the case of
//! failure." (paper §3)
//!
//! Contrast with the paper's mechanism (§5.5): completion information flows
//! *up a fixed responsibility tree* instead of epidemically, so machine 0
//! (the root's owner) must survive for the computation to terminate — the
//! weakness the paper's decentralized mechanism removes.

use ftbb_core::{ChildPair, Event, ProcMetrics, Protocol, TimeCategory};
use ftbb_des::SimTime;
use ftbb_tree::{Code, CodeSet};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// DIB protocol messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DibMsg {
    /// "Send me work."
    Request {
        /// Sender's incumbent.
        incumbent: f64,
    },
    /// Donated subproblems; the sender stays responsible for them.
    Grant {
        /// `(code, bound)` pairs.
        items: Vec<(Code, f64)>,
        /// Sender's incumbent.
        incumbent: f64,
    },
    /// Nothing to spare.
    Deny {
        /// Sender's incumbent.
        incumbent: f64,
    },
    /// "The problems rooted at these codes are completed" — sent to the
    /// machine each problem came from.
    Completed {
        /// Completed transfer-unit codes.
        codes: Vec<Code>,
        /// Sender's incumbent.
        incumbent: f64,
    },
    /// Broadcast by machine 0 when the root completes.
    Done {
        /// Final incumbent.
        incumbent: f64,
    },
}

impl DibMsg {
    /// The piggybacked incumbent.
    pub fn incumbent(&self) -> f64 {
        match self {
            DibMsg::Request { incumbent }
            | DibMsg::Grant { incumbent, .. }
            | DibMsg::Deny { incumbent }
            | DibMsg::Completed { incumbent, .. }
            | DibMsg::Done { incumbent } => *incumbent,
        }
    }
}

/// Timers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DibTimer {
    /// Work-request retry pacing.
    Retry,
    /// Scan outstanding transfers for timeouts (failure recovery).
    Scan,
}

/// Actions of a DIB machine.
pub type Action = ftbb_core::Action<DibMsg, DibTimer>;

/// Work-request retry pacing, seconds.
const RETRY_S: f64 = 0.05;
/// Outstanding-transfer timeout before the donor redoes the work, seconds.
const REDO_TIMEOUT_S: f64 = 1.0;
/// Scan period of the outstanding-transfer ledger, seconds.
const SCAN_INTERVAL_S: f64 = 0.3;
/// Most subproblems one grant carries.
const GRANT_MAX: usize = 16;
/// A donor keeps at least this many subproblems.
const GRANT_KEEP_MIN: usize = 2;

/// One DIB machine.
pub struct DibProcess {
    me: u32,
    members: Vec<u32>,
    /// LIFO pool of `(code, bound)`.
    pool: Vec<(Code, f64)>,
    current: Option<Code>,
    work_seq: u64,
    /// Local completion knowledge (contracted), covering everything this
    /// machine has verified complete (own work + reported transfers).
    done: CodeSet,
    /// Transfers awaiting completion reports: code -> when it was granted.
    /// Ordered maps, so that the redo order and the report order follow
    /// the codes, not a hasher's random seed.
    outstanding: BTreeMap<Code, SimTime>,
    /// Problems received from others: code -> origin machine. Responsible
    /// for reporting their completion back.
    origin: BTreeMap<Code, u32>,
    incumbent: f64,
    terminated: bool,
    /// A retry timer is in flight (prevents timer-chain multiplication).
    retry_armed: bool,
    rng: SmallRng,
    /// Counters: `expanded`, `recoveries` (redos of expired transfers) and
    /// `reports_sent` (completion reports).
    metrics: ProcMetrics,
}

impl DibProcess {
    /// Create machine `me` of `nprocs` in the run seeded `seed`; machine 0
    /// owns the root problem.
    pub fn new(me: u32, nprocs: u32, root_bound: f64, seed: u64) -> Self {
        let mut pool = Vec::new();
        if me == 0 {
            pool.push((Code::root(), root_bound));
        }
        DibProcess {
            me,
            members: (0..nprocs).filter(|&m| m != me).collect(),
            pool,
            current: None,
            work_seq: 0,
            done: CodeSet::new(),
            outstanding: BTreeMap::new(),
            origin: BTreeMap::new(),
            incumbent: f64::INFINITY,
            terminated: false,
            retry_armed: false,
            rng: SmallRng::seed_from_u64(seed.wrapping_add(me.into())),
            metrics: ProcMetrics::default(),
        }
    }

    fn on_request(&mut self, from: u32, now: SimTime, out: &mut Vec<Action>) {
        let spare = self.pool.len().saturating_sub(GRANT_KEEP_MIN);
        let k = spare.min(GRANT_MAX).min(self.pool.len() / 2 + 1);
        if spare == 0 || k == 0 {
            out.push(Action::Send {
                to: from,
                msg: DibMsg::Deny {
                    incumbent: self.incumbent,
                },
            });
            return;
        }
        // Donate the oldest (shallowest) problems; stay responsible.
        let items: Vec<(Code, f64)> = self.pool.drain(..k).collect();
        for (code, _) in &items {
            self.outstanding.insert(code.clone(), now);
        }
        out.push(Action::Send {
            to: from,
            msg: DibMsg::Grant {
                items,
                incumbent: self.incumbent,
            },
        });
    }

    fn seek_work(&mut self, out: &mut Vec<Action>) {
        if let Some(&target) = self.members.choose(&mut self.rng) {
            out.push(Action::Send {
                to: target,
                msg: DibMsg::Request {
                    incumbent: self.incumbent,
                },
            });
        }
        // Pace the next attempt (covers lost replies and dead donors);
        // exactly one retry chain runs at a time.
        if !self.retry_armed {
            self.retry_armed = true;
            out.push(Action::SetTimer {
                delay_s: RETRY_S,
                timer: DibTimer::Retry,
            });
        }
    }

    fn start_next(&mut self, out: &mut Vec<Action>) {
        if self.terminated || self.current.is_some() {
            return;
        }
        while let Some((code, bound)) = self.pool.pop() {
            if self.done.contains(&code) {
                continue;
            }
            if bound >= self.incumbent {
                self.absorb_completion(code, out);
                if self.terminated {
                    return;
                }
                continue;
            }
            self.work_seq += 1;
            self.current = Some(code.clone());
            out.push(Action::StartWork {
                code,
                seq: self.work_seq,
            });
            return;
        }
        if !self.terminated {
            self.seek_work(out);
        }
    }

    /// Fold a completion into local knowledge, then propagate any
    /// transfer-unit completions to their origins.
    fn absorb_completion(&mut self, code: Code, out: &mut Vec<Action>) {
        self.done.insert(&code);
        // Report every received problem whose subtree is now complete.
        let finished: Vec<Code> = self
            .origin
            .keys()
            .filter(|c| self.done.contains(c))
            .cloned()
            .collect();
        let mut by_origin: BTreeMap<u32, Vec<Code>> = BTreeMap::new();
        for code in finished {
            let to = self.origin.remove(&code).expect("key exists");
            by_origin.entry(to).or_default().push(code);
        }
        for (to, codes) in by_origin {
            self.metrics.reports_sent += 1;
            out.push(Action::Send {
                to,
                msg: DibMsg::Completed {
                    codes,
                    incumbent: self.incumbent,
                },
            });
        }
        // Machine 0: global termination when the root is complete.
        if self.me == 0 && self.done.is_root_done() && !self.terminated {
            self.terminated = true;
            for &to in &self.members {
                out.push(Action::Send {
                    to,
                    msg: DibMsg::Done {
                        incumbent: self.incumbent,
                    },
                });
            }
            out.push(Action::Halt);
        }
    }

    fn scan_outstanding(&mut self, now: SimTime, out: &mut Vec<Action>) {
        let timeout = SimTime::from_secs_f64(REDO_TIMEOUT_S);
        let expired: Vec<Code> = self
            .outstanding
            .iter()
            .filter(|&(code, &since)| {
                now.saturating_sub(since) >= timeout && !self.done.contains(code)
            })
            .map(|(code, _)| code.clone())
            .collect();
        for code in expired {
            // Redo the work ourselves (possibly redundantly — DIB accepts
            // that, §5.5).
            self.outstanding.remove(&code);
            self.metrics.recoveries += 1;
            self.pool.push((code, f64::NEG_INFINITY));
        }
        if self.current.is_none() && !self.pool.is_empty() {
            self.start_next(out);
        }
    }
}

impl Protocol for DibProcess {
    type Msg = DibMsg;
    type Timer = DibTimer;

    fn step(&mut self, event: Event<DibMsg, DibTimer>, now: SimTime, out: &mut Vec<Action>) {
        if self.terminated {
            return;
        }
        match event {
            Event::Start => {
                out.push(Action::SetTimer {
                    delay_s: SCAN_INTERVAL_S,
                    timer: DibTimer::Scan,
                });
                self.start_next(out);
            }
            Event::UnitDone { .. } => unreachable!("the baselines expand one node per StartWork"),
            Event::WorkDone { seq, expansion } => {
                if seq != self.work_seq || self.current.is_none() {
                    return;
                }
                let code = self.current.take().expect("checked");
                self.metrics.expanded += 1;
                if let Some(v) = expansion.solution {
                    self.incumbent = self.incumbent.min(v);
                }
                match expansion.children {
                    None => self.absorb_completion(code, out),
                    Some(ChildPair {
                        var,
                        left_bound,
                        right_bound,
                    }) => {
                        for (bit, b) in [(false, left_bound), (true, right_bound)] {
                            let child = code.child(var, bit);
                            if b >= self.incumbent {
                                self.absorb_completion(child, out);
                            } else {
                                self.pool.push((child, b));
                            }
                        }
                    }
                }
                self.start_next(out);
            }
            Event::Recv { from, msg } => {
                self.incumbent = self.incumbent.min(msg.incumbent());
                match msg {
                    DibMsg::Request { .. } => self.on_request(from, now, out),
                    DibMsg::Grant { items, .. } => {
                        for (code, bound) in items {
                            if self.done.contains(&code) {
                                // Already proven complete: report straight back.
                                self.metrics.reports_sent += 1;
                                out.push(Action::Send {
                                    to: from,
                                    msg: DibMsg::Completed {
                                        codes: vec![code],
                                        incumbent: self.incumbent,
                                    },
                                });
                            } else {
                                self.origin.insert(code.clone(), from);
                                self.pool.push((code, bound));
                            }
                        }
                        if self.current.is_none() {
                            self.start_next(out);
                        }
                    }
                    // The retry chain armed by seek_work paces the next attempt.
                    DibMsg::Deny { .. } => {}
                    DibMsg::Completed { codes, .. } => {
                        for code in codes {
                            self.outstanding.remove(&code);
                            self.absorb_completion(code, out);
                        }
                    }
                    DibMsg::Done { .. } => {
                        self.terminated = true;
                        out.push(Action::Halt);
                    }
                }
            }
            Event::Timer(DibTimer::Retry) => {
                self.retry_armed = false;
                if self.current.is_none() && self.pool.is_empty() {
                    self.seek_work(out);
                }
            }
            Event::Timer(DibTimer::Scan) => {
                self.scan_outstanding(now, out);
                out.push(Action::SetTimer {
                    delay_s: SCAN_INTERVAL_S,
                    timer: DibTimer::Scan,
                });
            }
        }
    }

    fn category(msg: &DibMsg) -> TimeCategory {
        match msg {
            DibMsg::Request { .. } | DibMsg::Grant { .. } | DibMsg::Deny { .. } => {
                TimeCategory::LoadBalance
            }
            DibMsg::Completed { .. } | DibMsg::Done { .. } => TimeCategory::Communicate,
        }
    }

    /// Same accounting scheme as the paper's protocol.
    fn wire_size(msg: &DibMsg) -> usize {
        match msg {
            DibMsg::Request { .. } | DibMsg::Deny { .. } | DibMsg::Done { .. } => 9,
            DibMsg::Grant { items, .. } => {
                11 + items.iter().map(|(c, _)| c.wire_size() + 8).sum::<usize>()
            }
            DibMsg::Completed { codes, .. } => {
                11 + codes.iter().map(|c| c.wire_size()).sum::<usize>()
            }
        }
    }

    fn metrics(&self) -> &ProcMetrics {
        &self.metrics
    }

    fn is_terminated(&self) -> bool {
        self.terminated
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
    use ftbb_core::Expansion;

    fn step(p: &mut DibProcess, event: Event<DibMsg, DibTimer>, ms: u64) -> Vec<Action> {
        let mut out = Vec::new();
        p.step(event, SimTime::from_millis(ms), &mut out);
        out
    }

    fn recv(p: &mut DibProcess, from: u32, msg: DibMsg) -> Vec<Action> {
        step(p, Event::Recv { from, msg }, 0)
    }

    /// Machine 0 holding three subproblems after machine 1 asked it for
    /// work at 0, and the items it granted.
    fn donor() -> (DibProcess, Vec<(Code, f64)>) {
        let mut donor = DibProcess::new(0, 2, 0.0, 1);
        let decisions = [
            vec![(1, false)],
            vec![(1, true)],
            vec![(1, false), (2, false)],
        ];
        donor.pool = decisions.map(|d| (Code::from_decisions(&d), 0.0)).to_vec();
        let request = DibMsg::Request {
            incumbent: f64::INFINITY,
        };
        let granted = recv(&mut donor, 1, request)
            .into_iter()
            .find_map(|a| match a {
                Action::Send {
                    msg: DibMsg::Grant { items, .. },
                    ..
                } => Some(items),
                _ => None,
            });
        (donor, granted.expect("grant sent"))
    }

    #[test]
    fn machine0_owns_root() {
        let mut p = DibProcess::new(0, 2, 0.0, 1);
        let root = |a: &Action| matches!(a, Action::StartWork { code, .. } if code.is_root());
        assert!(step(&mut p, Event::Start, 0).iter().any(root));
    }

    #[test]
    fn root_leaf_completion_broadcasts_done() {
        let mut p = DibProcess::new(0, 3, 0.0, 1);
        step(&mut p, Event::Start, 0);
        let expansion = Expansion {
            cost: 1.0,
            bound: 0.0,
            solution: Some(5.0),
            children: None,
        };
        let actions = step(&mut p, Event::WorkDone { seq: 1, expansion }, 0);
        assert!(p.is_terminated());
        let done = |a: &&Action| {
            matches!(
                a,
                Action::Send {
                    msg: DibMsg::Done { .. },
                    ..
                }
            )
        };
        assert_eq!(actions.iter().filter(done).count(), 2);
    }

    #[test]
    fn grant_records_responsibility_and_completion_reports_back() {
        let (mut donor, granted) = donor();
        assert!(!granted.is_empty());
        assert_eq!(donor.outstanding.len(), granted.len());
        // Recipient completes one and reports; donor absorbs it.
        let code = granted[0].0.clone();
        let codes = vec![code.clone()];
        let incumbent = f64::INFINITY;
        recv(&mut donor, 1, DibMsg::Completed { codes, incumbent });
        assert!(donor.done.contains(&code));
        assert!(!donor.outstanding.contains_key(&code));
    }

    #[test]
    fn timeout_triggers_redo() {
        let (mut donor, _) = donor();
        // Granted at 0: a scan before the timeout keeps the transfers, the
        // first scan past it reclaims them.
        step(&mut donor, Event::Timer(DibTimer::Scan), 999);
        assert!(!donor.outstanding.is_empty());
        step(&mut donor, Event::Timer(DibTimer::Scan), 1_000);
        assert!(donor.outstanding.is_empty());
        assert!(donor.metrics.recoveries > 0);
    }

    #[test]
    fn non_root_terminates_only_on_done() {
        let mut p = DibProcess::new(1, 2, 0.0, 1);
        step(&mut p, Event::Start, 0);
        assert!(!p.is_terminated());
        let actions = recv(&mut p, 0, DibMsg::Done { incumbent: 3.0 });
        assert!(p.is_terminated());
        assert!(actions.iter().any(|a| matches!(a, Action::Halt)));
    }
}
