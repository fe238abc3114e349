//! # ftbb-core — the paper's fault-tolerance mechanism
//!
//! The primary contribution of Iamnitchi & Foster (ICPP 2000): a fully
//! decentralized, asynchronous, fault-tolerant parallel branch-and-bound
//! protocol for unreliable, dynamically sized resource pools.
//!
//! The protocol does **not** detect failed processors — it detects *missing
//! results*. Completed subproblems are encoded as tree codes and gossiped in
//! contracted work reports; any process that starves and cannot obtain work
//! complements its completion table and re-solves a missing subproblem.
//! Termination is detected when contraction produces the root code. The
//! loss of all processes but one cannot lose the computation.
//!
//! This crate is solely the state machine: [`BnbProcess`] implements
//! [`Protocol`], and nothing here reads a clock, spawns a thread or shares
//! memory. The harnesses own all of that and feed it events: `ftbb-sim`'s
//! discrete-event actor, and `ftbb-runtime`'s pump, which runs it over an
//! in-process mesh or, in `ftbb-wire`, between OS processes over TCP. The
//! same protocol code runs under every one of them.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod config;
pub mod events;
pub mod job;
pub mod message;
pub mod metrics;
pub mod process;
pub mod telemetry;
pub mod work;

pub use checkpoint::{Checkpoint, CheckpointSink, GossipBinding, NullSink};
pub use config::ProtocolConfig;
pub use events::{Action, Event, MembershipEvent, PEvent, PTimer, Protocol};
pub use job::JobId;
pub use message::{GrantItem, Incumbent, Msg};
pub use metrics::ProcMetrics;
pub use process::{holds_root, node_seed, BnbProcess};
pub use telemetry::{PhaseTimes, TimeCategory, TraceEvent};
pub use work::{AnyExpander, ChildPair, Expander, Expansion, ProblemExpander, WorkUnit};
