//! # ftbb-runtime — the protocol in real time
//!
//! The paper evaluates its algorithm in simulation only; this crate runs the
//! *identical* [`ftbb_core::BnbProcess`] state machine against the wall
//! clock — the "real implementation" the paper leaves as future work. It
//! holds everything of a live node that is not the state machine: the
//! pump, the transports and their counters, the expansion worker pool and
//! the trace writer ([`Telemetry`]).
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
//! * work runs the actual [`ftbb_bnb::BranchBound`] computation, one
//!   depth-first unit ([`ftbb_core::Expander::explore`]) per `StartWork`
//!   for at most the report gap of wall time, where the simulator takes
//!   one expansion: codes are self-contained, and
//!   [`ftbb_core::ProblemExpander`] replays only the suffix of a code past
//!   the path it last replayed;
//! * the workload is any [`ftbb_bnb::AnyInstance`] (the simulator replays
//!   a recorded tree): every job — in the pump, on a pool worker, under
//!   [`run_cluster`] and [`run_node`] — expands through the
//!   [`ftbb_core::AnyExpander`] made from its instance, so nothing in this
//!   crate is generic over the problem or the expander;
//! * crashes are injected by tripping a [`CrashSwitch`]: the thread stops
//!   silently, and peers see only silence — the Crash failure model;
//! * messages travel through the [`Transport`] (sends to dead nodes are
//!   dropped, like lost datagrams, and counted in [`TransportCounters`]).
//!
//! Runs are not deterministic (thread scheduling), but correctness is: any
//! crash schedule that leaves one node alive yields the sequential optimum.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod harness;
pub mod node;
pub mod pool;
pub mod service;
pub mod telemetry;
pub mod transport;

pub use harness::{run_cluster, ClusterConfig, ClusterOutcome};
pub use node::{run_node, CrashSwitch, MetricsReporter, MetricsSnapshot, NodeOutcome};
pub use pool::{Work, WorkerPool};
pub use service::{JobEngine, JobOutcome, ServiceEngine, ServiceHooks, ServiceOutcome};
pub use telemetry::Telemetry;
pub use transport::{Envelope, Mesh, Transport, TransportCounters, TransportStats};
