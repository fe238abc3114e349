//! # ftbb-runtime — the protocol in real time
//!
//! The paper evaluates its algorithm in simulation only; this crate runs the
//! *identical* [`ftbb_core::BnbProcess`] state machine as a deployed node —
//! the "real implementation" the paper leaves as future work. It holds
//! everything of a live node that is not the state machine: the pump, the
//! transports and their counters, and the trace writer ([`Telemetry`]).
//!
//! One pump drives every node: [`ServiceEngine`] multiplexes any number of
//! [`JobEngine`]s (a single run is the one-job case). The network is
//! abstracted behind the [`Transport`] trait, so that pump runs over *any*
//! transport: `ftbb-wire` implements it over real TCP sockets between OS
//! processes, and this crate over a virtual network.
//!
//! A pump pass never blocks and reads time only through its clock, so
//! the pump has two drivers: [`ServiceEngine::run`] on the wall
//! clock, blocking on the node's inbox when a pass finds nothing to do
//! (`ftbb-noded` runs it), and [`run_cluster`], which steps every node of
//! a cluster in one process on virtual clocks from one event queue, over
//! a virtual network with [`ftbb_net::LatencyModel`] transit times. There
//! a node's clock moves only by the cost of the work units it runs and by
//! the time it waits, a planned crash drops its engine at that virtual
//! time (peers see only silence — the Crash failure model), and one seed
//! gives one outcome.
//!
//! Work runs the actual [`ftbb_bnb::BranchBound`] computation through the
//! [`ftbb_core::AnyExpander`] of each job's instance: one depth-first unit
//! ([`ftbb_core::Expander::explore`]) per `StartWork` for at most the
//! report gap of the clock, where the simulator takes one expansion.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod clock;
pub mod harness;
pub mod pool;
pub mod service;
pub mod telemetry;
pub mod transport;

pub use harness::{run_cluster, ClusterConfig, ClusterOutcome};
pub use pool::WorkerPool;
pub use service::{
    JobEngine, JobOutcome, MetricsReporter, MetricsSnapshot, ServiceEngine, ServiceHooks,
    ServiceOutcome,
};
pub use telemetry::Telemetry;
pub use transport::{Envelope, Inbound, Transport, TransportCounters, TransportStats};
