//! # ftbb-runtime — the protocol on real threads
//!
//! The paper evaluates its algorithm in simulation only; this crate runs the
//! *identical* [`ftbb_core::BnbProcess`] state machine on real threads with
//! wall-clock timers — the "real implementation" the paper leaves as future
//! work.
//!
//! One pump drives every node: [`ServiceEngine`] multiplexes any number of
//! [`JobEngine`]s (a single run is the one-job case, see [`run_node`]).
//! The network is abstracted behind the [`Transport`] trait, so that pump
//! runs over *any* transport. This crate ships the in-process [`Mesh`]
//! (one channel per node); the `ftbb-wire` crate implements the same
//! trait over real TCP sockets between OS processes, so the identical
//! node loop runs in both deployments.
//!
//! Differences from the simulator are confined to the harness:
//!
//! * time is `Instant`-based instead of virtual;
//! * expansions run the actual [`ftbb_bnb::BranchBound`] computation by
//!   rebuilding node state from self-contained codes;
//! * crashes are injected by tripping a [`CrashSwitch`]: the thread stops
//!   silently, and peers see only silence — the Crash failure model;
//! * messages travel through the [`Transport`] (sends to dead nodes are
//!   dropped, like lost datagrams, and counted in
//!   [`ftbb_core::TransportCounters`]).
//!
//! Runs are not deterministic (thread scheduling), but correctness is: any
//! crash schedule that leaves one node alive yields the sequential optimum.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod harness;
pub mod node;
pub mod pool;
pub mod service;
pub mod transport;

pub use harness::{holds_root, node_seed, run_cluster, ClusterConfig, ClusterOutcome};
pub use node::{run_node, CrashSwitch, MetricsReporter, MetricsSnapshot, NodeOutcome};
pub use pool::{PoolExpander, WorkerPool};
pub use service::{JobEngine, JobOutcome, ServiceEngine, ServiceHooks, ServiceOutcome};
pub use transport::{Envelope, Mesh, Transport};
