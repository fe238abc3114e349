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
//! [`BnbProcess`] is a pure state machine implementing [`Protocol`];
//! harnesses (the `ftbb-sim` discrete-event simulator and the
//! `ftbb-runtime` threaded runtime) feed it events and execute its actions.
//! The same protocol code runs in both.

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
pub use events::{Action, Category, Event, MembershipEvent, PEvent, PTimer, Protocol};
pub use job::JobId;
pub use message::{GrantItem, Incumbent, Msg, MsgKind};
pub use metrics::{ProcMetrics, TransportCounters, TransportStats};
pub use process::BnbProcess;
pub use telemetry::{PhaseTimes, Telemetry, TimeCategory, TraceEvent};
pub use work::{AnyExpander, ChildPair, Expander, Expansion, ProblemExpander, TreeExpander};
