//! # ftbb-gossip — epidemic communication and group membership
//!
//! Implements §5.2 of Iamnitchi & Foster (ICPP 2000); the epidemic
//! dissemination of §5.1 (work reports, table gossip) is `ftbb-core`'s:
//!
//! * [`view`] / [`membership`] — the gossip-style membership protocol with
//!   heartbeat counters, last-heard bookkeeping, timeout-based failure
//!   suspicion, cleanup, and gossip servers for joining (van Renesse et al.
//!   1998).
//!
//! All protocol state machines are transport-agnostic: they return the
//! messages to send and the caller (the DES simulator or the runtime
//! pump) delivers them.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod membership;
pub mod view;

pub use membership::{Membership, MembershipConfig, MembershipMsg};
pub use view::{
    MemberId, MemberRecord, MemberStatus, MembershipView, ViewDigest, DELTA_FULL_REFRESH,
};
