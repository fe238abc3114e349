//! Execution-profile tracing: the MPE/clog + Jumpshot substitute.
//!
//! Processes declare state transitions (`"bb"`, `"idle"`, `"contract"`, …);
//! the tracer records `(time, process, state)` points which are later folded
//! into per-process state *intervals*, exactly the information Jumpshot
//! renders for the paper's Figures 5 and 6.

use crate::event::ProcId;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// A single state-transition record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TracePoint {
    /// When the process entered the state.
    pub time: SimTime,
    /// Which process.
    pub proc: ProcId,
    /// State label (interned static string).
    pub state: &'static str,
}

/// A contiguous interval during which a process stayed in one state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StateInterval {
    /// Interval start.
    pub start: SimTime,
    /// Interval end (start of the next state, or end of run).
    pub end: SimTime,
    /// State label.
    pub state: &'static str,
}

/// Collects trace points during a run.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    points: Vec<TracePoint>,
}

impl Tracer {
    /// A tracer that records nothing (zero overhead beyond a branch).
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            points: Vec::new(),
        }
    }

    /// A recording tracer.
    pub fn enabled() -> Self {
        Tracer {
            enabled: true,
            points: Vec::new(),
        }
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record that `proc` entered `state` at `time`.
    pub fn record(&mut self, time: SimTime, proc: ProcId, state: &'static str) {
        if self.enabled {
            self.points.push(TracePoint { time, proc, state });
        }
    }

    /// All recorded points, in recording order.
    pub fn points(&self) -> &[TracePoint] {
        &self.points
    }

    /// Fold the point log into per-process interval timelines.
    ///
    /// `end` closes the final interval of each process (typically the
    /// simulation end time).
    pub fn timelines(&self, nprocs: usize, end: SimTime) -> Vec<Vec<StateInterval>> {
        let mut per_proc: Vec<Vec<&TracePoint>> = vec![Vec::new(); nprocs];
        for p in &self.points {
            if p.proc.index() < nprocs {
                per_proc[p.proc.index()].push(p);
            }
        }
        per_proc
            .into_iter()
            .map(|pts| {
                let mut intervals = Vec::with_capacity(pts.len());
                for w in pts.windows(2) {
                    intervals.push(StateInterval {
                        start: w[0].time,
                        end: w[1].time,
                        state: w[0].state,
                    });
                }
                if let Some(last) = pts.last() {
                    intervals.push(StateInterval {
                        start: last.time,
                        end: end.max(last.time),
                        state: last.state,
                    });
                }
                intervals
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::disabled();
        t.record(SimTime::ZERO, ProcId(0), "bb");
        assert!(t.points().is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn intervals_fold_correctly() {
        let mut t = Tracer::enabled();
        t.record(SimTime::from_secs(0), ProcId(0), "idle");
        t.record(SimTime::from_secs(2), ProcId(0), "bb");
        t.record(SimTime::from_secs(5), ProcId(0), "idle");
        t.record(SimTime::from_secs(1), ProcId(1), "bb");
        let tl = t.timelines(2, SimTime::from_secs(10));
        assert_eq!(
            tl[0],
            vec![
                StateInterval {
                    start: SimTime::from_secs(0),
                    end: SimTime::from_secs(2),
                    state: "idle"
                },
                StateInterval {
                    start: SimTime::from_secs(2),
                    end: SimTime::from_secs(5),
                    state: "bb"
                },
                StateInterval {
                    start: SimTime::from_secs(5),
                    end: SimTime::from_secs(10),
                    state: "idle"
                },
            ]
        );
        assert_eq!(tl[1].len(), 1);
        assert_eq!(tl[1][0].state, "bb");
        assert_eq!(tl[1][0].end, SimTime::from_secs(10));
    }

    #[test]
    fn out_of_range_proc_ignored() {
        let mut t = Tracer::enabled();
        t.record(SimTime::ZERO, ProcId(5), "bb");
        let tl = t.timelines(2, SimTime::from_secs(1));
        assert!(tl[0].is_empty() && tl[1].is_empty());
    }
}
