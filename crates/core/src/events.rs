//! The harness contract: events into and actions out of a protocol state
//! machine, stated once as the [`Protocol`] trait.
//!
//! A protocol is a pure deterministic state machine: [`Protocol::step`]
//! maps `(state, event, now)` to `(state', actions)`. The harness (the
//! `ftbb-sim` discrete-event actor, or `ftbb-runtime`'s pump in-process
//! or over TCP) supplies the events, executes the actions,
//! and owns every notion of real or virtual time and of the network. [`crate::BnbProcess`] is the
//! paper's protocol; the DIB and central baselines implement the same
//! trait, so one simulated actor runs all three.

use crate::message::Msg;
use crate::metrics::ProcMetrics;
use crate::telemetry::TimeCategory;
use crate::work::{Expansion, WorkUnit};
use ftbb_des::SimTime;
use ftbb_tree::Code;
use serde::{Deserialize, Serialize};

/// Timers the process can arm. All delays are in (virtual) seconds and are
/// interpreted by the harness; timers due at the same instant fire in
/// arming order, under every harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PTimer {
    /// Periodic completion-list flush check.
    ReportFlush,
    /// Periodic full-table gossip.
    TableGossip,
    /// Work-request reply deadline; the payload is the request sequence
    /// number (stale timers are ignored).
    LbTimeout(u32),
    /// Patience fuse before complement recovery begins.
    RecoveryFuse(u32),
    /// Membership gossip tick.
    MembershipTick,
    /// Bound-dissemination flush: coalesced incumbent improvements are
    /// broadcast as one explicit announce when this fires.
    BoundFlush,
}

impl PTimer {
    /// The Figure-3 category a firing is charged to. The recovery fuse is
    /// contraction: its expiry is what triggers complement recovery
    /// (§5.3.2).
    pub fn category(self) -> TimeCategory {
        match self {
            PTimer::ReportFlush | PTimer::TableGossip | PTimer::BoundFlush => {
                TimeCategory::Communicate
            }
            PTimer::LbTimeout(_) => TimeCategory::LoadBalance,
            PTimer::RecoveryFuse(_) => TimeCategory::Contract,
            PTimer::MembershipTick => TimeCategory::Membership,
        }
    }
}

/// A membership transition observed by the process (at its gossip tick).
/// Buffered inside [`crate::BnbProcess`] and drained by the harness (e.g.
/// `ftbb-runtime`'s engine surfaces them as engine events on stderr);
/// counted in [`crate::ProcMetrics::peers_suspected`] /
/// [`crate::ProcMetrics::peers_forgotten`] either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipEvent {
    /// A member's heartbeat went silent past `t_fail`: it is no longer a
    /// load-balancing target and its unreported work is now
    /// recovery-eligible.
    Suspected(u32),
    /// A member stayed silent past `t_cleanup` and was swept from the
    /// view (tombstoned).
    Forgotten(u32),
}

/// Events delivered to a protocol; the defaults name the paper's protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Event<M = Msg, T = PTimer> {
    /// Process activation.
    Start,
    /// The work a [`Action::StartWork`] requested finished as one
    /// expansion of its code (what the simulator delivers). `seq` matches
    /// the `StartWork`; stale completions are discarded.
    WorkDone {
        /// Work sequence number.
        seq: u64,
        /// The expansion result.
        expansion: Expansion,
    },
    /// The work a [`Action::StartWork`] requested finished as a
    /// depth-first [`WorkUnit`] below its code (what a deployed node
    /// delivers). `seq` matches the `StartWork`; stale units are
    /// discarded.
    UnitDone {
        /// Work sequence number.
        seq: u64,
        /// The unit's result.
        unit: WorkUnit,
    },
    /// A protocol message arrived.
    Recv {
        /// Sending process.
        from: u32,
        /// The message.
        msg: M,
    },
    /// A timer fired.
    Timer(T),
    /// The transport saw the connection from this peer close: a
    /// SIGKILLed daemon's sockets do that at once, long before its
    /// heartbeats are missed. A deployed node's transport delivers it
    /// (and `ftbb-runtime`'s in-process cluster, as loopback would); the
    /// simulator never does, so the paper's model is untouched. It is
    /// evidence of a crash, not proof: [`crate::BnbProcess`] stops
    /// addressing the peer until a frame from it arrives again, and the
    /// baselines ignore it.
    PeerClosed(u32),
}

/// The events of the paper's protocol, [`crate::BnbProcess`].
pub type PEvent = Event;

/// Actions requested by a protocol; the defaults name the paper's protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Action<M = Msg, T = PTimer> {
    /// Transmit `msg` to member `to`.
    Send {
        /// Destination member.
        to: u32,
        /// The message.
        msg: M,
    },
    /// Begin work on `code`. The harness runs the expander and answers
    /// with the same `seq`: either [`Event::WorkDone`] with one expansion
    /// after its cost has elapsed, or [`Event::UnitDone`] with the
    /// [`WorkUnit`] that [`crate::Expander::explore`] ran below the code
    /// from the process's incumbent. A unit holds the process for as long
    /// as it runs, so a harness bounds it
    /// ([`crate::ProtocolConfig::report_gap_s`] for a deployed node).
    StartWork {
        /// The subproblem to expand.
        code: Code,
        /// Sequence number to echo in `WorkDone`.
        seq: u64,
    },
    /// Arm a timer after `delay_s` seconds.
    SetTimer {
        /// Delay in seconds.
        delay_s: f64,
        /// The timer payload.
        timer: T,
    },
    /// The process has detected termination and stops.
    Halt,
}

impl<M, T> Action<M, T> {
    /// [`Action::Send`] of `msg` to `to`.
    pub(crate) fn send(to: u32, msg: M) -> Self {
        Action::Send { to, msg }
    }

    /// [`Action::SetTimer`] of `timer` after `delay_s` seconds.
    pub(crate) fn timer(delay_s: f64, timer: T) -> Self {
        Action::SetTimer { delay_s, timer }
    }
}

/// A protocol state machine, as every harness drives it.
///
/// Besides [`step`](Protocol::step), the trait holds the read-only views a
/// harness needs to charge time and to report a run.
pub trait Protocol {
    /// Messages exchanged between processes.
    type Msg;
    /// Timer payloads.
    type Timer;

    /// Handle one event at local time `now`, appending the actions it
    /// requests to `out`.
    fn step(
        &mut self,
        event: Event<Self::Msg, Self::Timer>,
        now: SimTime,
        out: &mut Vec<Action<Self::Msg, Self::Timer>>,
    );

    /// The Figure-3 category handling `msg` is charged to.
    fn category(msg: &Self::Msg) -> TimeCategory;

    /// Bytes `msg` occupies on the wire.
    fn wire_size(msg: &Self::Msg) -> usize;

    /// Cumulative counters. A harness reads `expanded` to tell a consumed
    /// `WorkDone` from a stale one, and `merge_codes_processed` to charge
    /// list contraction.
    fn metrics(&self) -> &ProcMetrics;

    /// Has this process learned that the computation is over?
    fn is_terminated(&self) -> bool;

    /// Is an expansion in flight?
    fn is_working(&self) -> bool;

    /// Best-known solution value (`INFINITY` if none).
    fn incumbent(&self) -> f64;

    /// Storage snapshot for the paper's Table 1 columns: the contracted
    /// table's minimal codes and the wire bytes of everything else held.
    /// `None` (the default) for a protocol that keeps no such table.
    fn storage_snapshot(&self) -> Option<(Vec<Code>, usize)> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_equality() {
        assert_eq!(PTimer::LbTimeout(3), PTimer::LbTimeout(3));
        assert_ne!(PTimer::LbTimeout(3), PTimer::LbTimeout(4));
        assert_ne!(PTimer::ReportFlush, PTimer::TableGossip);
    }
}
