//! Protocol tuning knobs.
//!
//! The paper stresses that "this overhead can be controlled by tuning
//! various execution parameters" (§6.3.1): report batch size, report fan-out
//! and frequency, table-gossip frequency, load-balancing patience, and how
//! soon failure is suspected. Every such parameter is explicit here so the
//! `ftbb-paper` rows can sweep them.

use ftbb_gossip::MembershipConfig;
use serde::{Deserialize, Serialize};

/// Consecutive failed work requests that make one load-balancing round:
/// after this many, the process arms the recovery fuse.
pub(crate) const LB_ATTEMPTS: u32 = 3;

/// A donor keeps at least this many subproblems for itself.
pub(crate) const GRANT_KEEP_MIN: usize = 2;

/// `report_interval_s` divided by this is the report gap (see
/// [`ProtocolConfig::report_gap_s`]).
const REPORT_GAP_DIVISOR: f64 = 8.0;

/// All tunables of one protocol process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProtocolConfig {
    /// `c`: flush the local completions as a work report once this many
    /// have accumulated (§5.3.2) — but no sooner than `report_interval_s /
    /// 8` after the previous report; until then they keep contracting.
    /// The first batch, the flush timer, the starvation flush of a process
    /// seeking work and the termination report are not held back.
    pub report_batch: usize,
    /// `m`: how many randomly chosen members receive each work report.
    pub report_fanout: usize,
    /// Flush non-empty local completions after this many seconds even if
    /// fewer than `c` have accumulated ("or the list has not been updated
    /// for a long time"). An eighth of it is also the shortest spacing of
    /// `c`-triggered reports (see `report_batch`).
    pub report_interval_s: f64,
    /// Interval between full-table gossips to one random member
    /// ("occasionally, … a member sends its table of completed problems to
    /// a randomly chosen member").
    pub table_gossip_interval_s: f64,
    /// Seconds to wait for a work-request reply before counting the attempt
    /// as failed (covers lost messages and crashed donors).
    pub lb_timeout_s: f64,
    /// Extra patience before recovery actually starts ("how soon failure is
    /// suspected after a machine unsuccessfully tries to get work"). Like
    /// the other patience knobs it gates only the first recovery of an
    /// outage: later complement codes follow back to back until a peer
    /// brings news (see `recovery_quiet_s`). After a silent round (see
    /// `lb_rounds_before_recovery`) it is paid once.
    pub recovery_delay_s: f64,
    /// Full load-balancing rounds (each three requests plus a
    /// `recovery_delay_s` pause) that must fail consecutively before the
    /// process suspects lost work and recovers by complementing. Higher
    /// values trade recovery latency for less redundant work — the paper's
    /// §6.3.1 tuning discussion. Paid once per outage, not per recovered
    /// subtree. A *silent* round — all three requests timed out, none
    /// denied — stands for all of them: a peer that neither grants nor
    /// denies is evidence enough, so its one fuse goes straight to the
    /// `recovery_quiet_s` gate. One deny keeps the full count: the peer is
    /// alive and starvation is load imbalance. A process whose every
    /// remaining peer's connection closed (`Event::PeerClosed`) pays no
    /// round at all: nobody is left to ask.
    pub lb_rounds_before_recovery: u32,
    /// Recovery additionally requires this many seconds without *news*
    /// (new completion codes, or granted work). While reports carrying new
    /// information keep arriving, the computation is alive somewhere and
    /// starvation is mere load imbalance, not lost work. Lost-work
    /// quiescence — everyone idle, gossip carrying nothing new — lets the
    /// timer expire, so recovery still always happens when it must. Once a
    /// recovery starts, the process keeps re-solving the complement without
    /// re-waiting any of these knobs until news arrives (a report that
    /// inserts a code, or a non-empty grant); then the next idle spell
    /// seeks work again and the full patience applies anew. A silent round
    /// (see `lb_rounds_before_recovery`) skips the remaining rounds but not
    /// this gate: its first recovery waits
    /// `max(3 · lb_timeout_s + recovery_delay_s, recovery_quiet_s)`. That
    /// floor has one exception: a process whose every remaining peer's
    /// connection closed (`Event::PeerClosed`) recovers at once, fuse and
    /// gate both skipped — nobody else can still hold the missing work,
    /// and a wrong guess costs only redundant work.
    pub recovery_quiet_s: f64,
    /// Maximum subproblems donated per work grant.
    pub grant_max: usize,
    /// Adapt the report-flush interval to the observed per-subproblem
    /// execution time (the paper's §7 future-work item: "an adaptive
    /// mechanism for deciding how often work reports should be sent, based
    /// on information collected at runtime"). When enabled, the effective
    /// interval targets `report_batch` node-times, clamped to
    /// `[report_interval_s / 8, report_interval_s × 8]`, so message volume
    /// per node stays flat across workload granularities.
    pub adaptive_reports: bool,
    /// Gossip membership protocol; `None` uses a static member list (the
    /// configuration of the paper's experiments, §6.2: "we do not include
    /// yet the membership protocol").
    pub membership: Option<MembershipConfig>,
    /// Bound-dissemination flush window, seconds. Incumbent improvements
    /// within one window coalesce into a single explicit
    /// [`crate::Msg::BoundAnnounce`] broadcast to every member, and
    /// load-balancing chatter stops re-piggybacking a bound every member
    /// already heard announced. `<= 0` disables the mechanism entirely
    /// (no broadcasts, every message piggybacks eagerly — the historical
    /// behavior). Suppression is epsilon-exact: a strictly better bound
    /// is never delayed past this window, and report/table-gossip
    /// messages always carry the literal incumbent (that channel is what
    /// guarantees a terminating member holds the exact optimum).
    pub bound_flush_s: f64,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            report_batch: 8,
            report_fanout: 2,
            report_interval_s: 2.0,
            table_gossip_interval_s: 10.0,
            lb_timeout_s: 0.5,
            recovery_delay_s: 1.0,
            lb_rounds_before_recovery: 3,
            recovery_quiet_s: 2.0,
            grant_max: 16,
            adaptive_reports: false,
            membership: None,
            bound_flush_s: 0.05,
        }
    }
}

impl ProtocolConfig {
    /// The report gap, in seconds: the shortest spacing of `c`-triggered
    /// reports and of the adaptive flush timer, and the longest a deployed
    /// node's work unit runs — so a request or a redundancy interrupt that
    /// lands mid-unit waits at most one gap.
    pub fn report_gap_s(&self) -> f64 {
        self.report_interval_s / REPORT_GAP_DIVISOR
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let c = ProtocolConfig::default();
        assert!(c.report_batch >= 1);
        assert!(c.report_fanout >= 1);
        assert!(c.grant_max > GRANT_KEEP_MIN);
        assert!(c.membership.is_none());
    }
}
