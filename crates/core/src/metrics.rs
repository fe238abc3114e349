//! Per-process protocol counters.
//!
//! Time-category accounting (BB / communication / contraction / load
//! balancing / idle — the stack of the paper's Figure 3) lives in the
//! harness, which knows costs; these counters capture protocol-level
//! events: expansions, eliminations, reports, recoveries, redundancy.

use serde::{Deserialize, Serialize};

/// Declares a metrics struct from one list of fields and derives `absorb`
/// (the element-wise merge used for cluster-level aggregation) from the
/// same list, so a counter added to the struct cannot be forgotten there.
macro_rules! mergeable_struct {
    (
        $(#[$meta:meta])*
        pub struct $Name:ident {
            $( $(#[$fmeta:meta])* pub $field:ident: $ty:ty, )*
        }
    ) => {
        $(#[$meta])*
        pub struct $Name {
            $( $(#[$fmeta])* pub $field: $ty, )*
        }

        impl $Name {
            /// Element-wise merge (for cluster-level aggregation):
            /// counters add.
            pub fn absorb(&mut self, other: &$Name) {
                $( Merge::merge(&mut self.$field, &other.$field); )*
            }
        }
    };
}

/// How one field of a [`mergeable_struct!`] combines with its peer.
trait Merge {
    fn merge(&mut self, other: &Self);
}

impl Merge for u64 {
    fn merge(&mut self, other: &u64) {
        *self += other;
    }
}

impl Merge for f64 {
    fn merge(&mut self, other: &f64) {
        *self += other;
    }
}

mergeable_struct! {
    /// Counters maintained by one protocol process.
    #[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
    pub struct ProcMetrics {
        /// Subproblems expanded (bounded + decomposed).
        pub expanded: u64,
        /// Children eliminated at creation (`l(v) ≥ U`).
        pub eliminated_at_insert: u64,
        /// Pool entries eliminated at selection.
        pub eliminated_at_pop: u64,
        /// Pool entries lazily pruned at `Pool::pop` because their bound could
        /// no longer improve the incumbent — discarded without expansion (the
        /// subtrees still complete into the table for termination detection).
        pub pruned_at_pop: u64,
        /// Pool entries skipped because the table already covered them.
        pub skipped_covered: u64,
        /// Leaves fathomed (solved or infeasible).
        pub fathomed: u64,
        /// Local incumbent improvements.
        pub incumbent_updates: u64,
        /// Work reports sent.
        pub reports_sent: u64,
        /// Work reports received.
        pub reports_received: u64,
        /// Codes shipped in sent reports, after compression, counted once
        /// per flush that reached at least one recipient (a flush with no
        /// recipient counts nothing).
        pub report_codes_sent: u64,
        /// Codes that compression removed from sent reports (paper: "the
        /// taller the subtree completed locally, the larger the number of
        /// codes that do not need to be sent"); like `report_codes_sent`,
        /// only flushes that reached a recipient count.
        pub report_codes_saved: u64,
        /// Table gossips sent.
        pub table_gossips_sent: u64,
        /// Work requests sent.
        pub work_requests_sent: u64,
        /// Work grants sent.
        pub grants_sent: u64,
        /// Work grants received in answer to this process's pending
        /// request.
        pub grants_received: u64,
        /// Seconds those grants took, each from its request leaving to
        /// the grant arriving (`grant_wait_s / grants_received` is the
        /// mean request → grant latency).
        pub grant_wait_s: f64,
        /// Subproblems donated.
        pub items_granted: u64,
        /// Work denials sent.
        pub denies_sent: u64,
        /// Work-request timeouts suffered.
        pub lb_timeouts: u64,
        /// Complement recoveries performed (§5.3.2 failure repair).
        pub recoveries: u64,
        /// Expansions interrupted because gossip revealed them redundant.
        pub redundant_interrupts: u64,
        /// Contraction merge operations (code insertions processed).
        pub merge_codes_processed: u64,
        /// Contractions performed while merging.
        pub merge_contractions: u64,
        /// Members this process suspected via heartbeat timeout (§5.2) —
        /// each transition to Suspected counts once; a member that recovers
        /// and goes silent again counts again.
        pub peers_suspected: u64,
        /// Members forgotten (swept after `t_cleanup`) from this process's
        /// membership view.
        pub peers_forgotten: u64,
        /// Membership events silently discarded because the process's bounded
        /// event buffer (driven by a harness that was not draining it) was
        /// full. Non-zero means the harness missed suspicion/forget
        /// transitions.
        pub membership_events_dropped: u64,
        /// Explicit bound-announce frames this process broadcast (one per
        /// member per flush window that carried a strictly better incumbent).
        pub bound_broadcasts: u64,
        /// Incumbent improvements that were *coalesced* into a flush window
        /// already armed — they rode a pending broadcast instead of causing
        /// one of their own (the batching win of bound suppression).
        pub bound_coalesced: u64,
        /// Outgoing frames whose incumbent piggyback was suppressed (stamped
        /// with the no-news sentinel) because every member had already been
        /// told the current bound.
        pub bound_piggybacks_suppressed: u64,
    }
}

impl ProcMetrics {
    /// Total eliminations.
    pub fn eliminated(&self) -> u64 {
        self.eliminated_at_insert + self.eliminated_at_pop + self.pruned_at_pop
    }

    /// Compression ratio of sent reports (saved / (saved + sent)); 0 when
    /// nothing was sent.
    pub fn compression_ratio(&self) -> f64 {
        let total = self.report_codes_sent + self.report_codes_saved;
        if total == 0 {
            0.0
        } else {
            self.report_codes_saved as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compression_ratio() {
        let mut m = ProcMetrics::default();
        assert_eq!(m.compression_ratio(), 0.0);
        m.report_codes_sent = 3;
        m.report_codes_saved = 1;
        assert!((m.compression_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn absorb_sums() {
        let mut a = ProcMetrics {
            expanded: 5,
            recoveries: 1,
            ..Default::default()
        };
        let b = ProcMetrics {
            expanded: 7,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.expanded, 12);
        assert_eq!(a.recoveries, 1);
    }
}
