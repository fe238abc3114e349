//! Protocol messages.
//!
//! Every message piggybacks the sender's best-known solution — "the
//! information sharing issue is solved by circulating the best-known
//! solution among processes, embedded in the most frequently sent messages"
//! (§5). `Incumbent` is a partial-ordered f64 where `INFINITY` means "no
//! solution known yet".

use ftbb_gossip::MembershipMsg;
use ftbb_tree::Code;
use serde::{Deserialize, Serialize};

/// The best-known solution value (minimization; `INFINITY` = none known).
pub type Incumbent = f64;

/// A subproblem shipped in a work grant: its code and last-known bound.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GrantItem {
    /// The subproblem's tree code.
    pub code: Code,
    /// Lower bound (pool priority; `-inf` for recovered items of unknown
    /// bound).
    pub bound: f64,
}

impl GrantItem {
    /// Bytes on the wire: code + 8-byte bound.
    pub fn wire_size(&self) -> usize {
        self.code.wire_size() + 8
    }
}

/// Messages exchanged by protocol processes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Msg {
    /// "I am starving — send me work."
    WorkRequest {
        /// Sender's incumbent.
        incumbent: Incumbent,
    },
    /// Donated subproblems.
    WorkGrant {
        /// The donated subproblems.
        items: Vec<GrantItem>,
        /// Sender's incumbent.
        incumbent: Incumbent,
    },
    /// "I have no work to spare."
    WorkDeny {
        /// Sender's incumbent.
        incumbent: Incumbent,
    },
    /// A batch of newly completed (contracted) codes (§5.3.2).
    WorkReport {
        /// Contracted completion codes.
        codes: Vec<Code>,
        /// Sender's incumbent.
        incumbent: Incumbent,
    },
    /// A full (contracted) completion table, sent occasionally to improve
    /// consistency and bootstrap newcomers.
    TableGossip {
        /// The contracted table.
        codes: Vec<Code>,
        /// Sender's incumbent.
        incumbent: Incumbent,
    },
    /// Membership protocol traffic (heartbeat gossip, join, welcome).
    Membership(MembershipMsg),
    /// An explicit bound broadcast: one coalesced announcement per
    /// improvement window instead of relying on the next
    /// happening-to-be-sent message to carry the news (the suppressed
    /// bound-dissemination mechanism; see
    /// [`crate::ProtocolConfig::bound_flush_s`]).
    BoundAnnounce {
        /// Sender's incumbent.
        incumbent: Incumbent,
    },
}

impl Msg {
    /// The piggybacked incumbent, if this message type carries one.
    pub fn incumbent(&self) -> Option<Incumbent> {
        match self {
            Msg::WorkRequest { incumbent }
            | Msg::WorkGrant { incumbent, .. }
            | Msg::WorkDeny { incumbent }
            | Msg::WorkReport { incumbent, .. }
            | Msg::TableGossip { incumbent, .. }
            | Msg::BoundAnnounce { incumbent } => Some(*incumbent),
            Msg::Membership(_) => None,
        }
    }

    /// Bytes on the wire (1 tag byte + 8 incumbent where applicable +
    /// payload).
    pub fn wire_size(&self) -> usize {
        match self {
            Msg::WorkRequest { .. } | Msg::WorkDeny { .. } | Msg::BoundAnnounce { .. } => 1 + 8,
            Msg::WorkGrant { items, .. } => {
                1 + 8 + 2 + items.iter().map(|i| i.wire_size()).sum::<usize>()
            }
            Msg::WorkReport { codes, .. } | Msg::TableGossip { codes, .. } => {
                1 + 8 + 2 + codes.iter().map(|c| c.wire_size()).sum::<usize>()
            }
            Msg::Membership(m) => 1 + m.wire_size(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BnbProcess, Protocol, TimeCategory};
    use ftbb_tree::Code;

    #[test]
    fn wire_sizes() {
        assert_eq!(
            Msg::WorkRequest {
                incumbent: f64::INFINITY
            }
            .wire_size(),
            9
        );
        let code = Code::from_decisions(&[(1, false), (2, true)]); // 6 bytes
        let report = Msg::WorkReport {
            codes: vec![code.clone()],
            incumbent: 1.0,
        };
        assert_eq!(report.wire_size(), 1 + 8 + 2 + 6);
        let grant = Msg::WorkGrant {
            items: vec![GrantItem { code, bound: 0.0 }],
            incumbent: 1.0,
        };
        assert_eq!(grant.wire_size(), 1 + 8 + 2 + 6 + 8);
        assert_eq!(Msg::BoundAnnounce { incumbent: 1.0 }.wire_size(), 9);
    }

    #[test]
    fn incumbent_piggybacked_everywhere_but_membership() {
        assert!(Msg::WorkDeny { incumbent: 3.0 }.incumbent().is_some());
        assert_eq!(Msg::BoundAnnounce { incumbent: 2.5 }.incumbent(), Some(2.5));
        let m = Msg::Membership(ftbb_gossip::MembershipMsg::Join { member: 1 });
        assert!(m.incumbent().is_none());
    }

    #[test]
    fn kind_classification() {
        let category = |msg: &Msg| BnbProcess::category(msg);
        let lb = [
            Msg::WorkRequest { incumbent: 0.0 },
            Msg::WorkGrant {
                items: vec![],
                incumbent: 0.0,
            },
            Msg::WorkDeny { incumbent: 0.0 },
        ];
        for msg in &lb {
            assert_eq!(category(msg), TimeCategory::LoadBalance, "{msg:?}");
        }
        let codes = Vec::new();
        let report = Msg::WorkReport {
            codes: codes.clone(),
            incumbent: 0.0,
        };
        assert_eq!(category(&report), TimeCategory::Contract);
        let gossip = Msg::TableGossip {
            codes,
            incumbent: 0.0,
        };
        assert_eq!(category(&gossip), TimeCategory::Contract);
        let join = Msg::Membership(ftbb_gossip::MembershipMsg::Join { member: 1 });
        assert_eq!(category(&join), TimeCategory::Membership);
        // Bound announces are information sharing, not load balancing:
        // they must never count against the LB message budget.
        let announce = Msg::BoundAnnounce { incumbent: 0.0 };
        assert_eq!(category(&announce), TimeCategory::Communicate);
    }
}
