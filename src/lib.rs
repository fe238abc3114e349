//! # ftbb — fault-tolerant, fully decentralized distributed branch-and-bound
//!
//! A production-quality Rust reproduction of:
//!
//! > Adriana Iamnitchi and Ian Foster.
//! > *A Problem-Specific Fault-Tolerance Mechanism for Asynchronous,
//! > Distributed Systems.* ICPP 2000 (arXiv cs/0003054).
//!
//! The paper's contribution is a **problem-specific fault-tolerance
//! mechanism**: rather than detecting failed processors, the system detects
//! *missing results*. Every branch-and-bound subproblem is identified by its
//! position in the search tree, encoded as a sequence of
//! `⟨variable, branch⟩` pairs. Completed codes are gossiped epidemically in
//! contracted *work reports* (two sibling codes merge into their parent's
//! code); a starving process that cannot obtain work *complements* its
//! completion table and re-solves whatever is missing. When contraction
//! produces the root code, termination has been detected — and the loss of
//! all processes but one cannot lose the computation.
//!
//! ## Workspace tour
//!
//! | crate | contents |
//! |---|---|
//! | [`tree`] | tree codes, contracting code sets, complement recovery, basic trees |
//! | [`bnb`] | sequential B&B engine, knapsack & MAX-SAT, basic-tree recorder |
//! | [`gossip`] | gossip membership protocol: heartbeats, suspicion, join |
//! | [`core`] | the paper's protocol as a pure, transport-agnostic state machine |
//! | [`des`] | deterministic discrete-event engine (the Parsec substitute) |
//! | [`net`] | Internet-like network model (`1.5 + 0.005·L` ms, loss, partitions) |
//! | [`sim`] | the paper's simulation framework: metrics, failures, scenarios |
//! | [`runtime`] | the same protocol on real threads behind the `Transport` trait |
//! | [`wire`] | the same protocol on TCP sockets across OS processes (`ftbb-noded`) |
//! | [`dib`] | the DIB baseline (Finkel & Manber 1987) for §5.5's comparison |
//! | [`paper`] | the paper's evaluation as one table of experiments and checked claims (`ftbb-paper`) |
//!
//! ## Quickstart
//!
//! Simulate a 4-process cluster on a recorded search tree, crash two
//! processes mid-run, and still obtain the sequential optimum:
//!
//! ```
//! use ftbb::prelude::*;
//! use std::sync::Arc;
//!
//! let tree = Arc::new(ftbb::tree::random_basic_tree(&ftbb::tree::TreeConfig {
//!     target_nodes: 201,
//!     mean_cost: 0.005,
//!     seed: 7,
//!     ..Default::default()
//! }));
//!
//! let mut cfg = SimConfig::new(4);
//! cfg.protocol.lb_timeout_s = 0.05;
//! cfg.protocol.recovery_delay_s = 0.2;
//! cfg.protocol.recovery_quiet_s = 0.5;
//! cfg.failures = vec![
//!     (1, SimTime::from_millis(150)),
//!     (2, SimTime::from_millis(200)),
//! ];
//! let report = run_sim(&tree, &cfg);
//! assert!(report.all_live_terminated);
//! assert_eq!(report.best, tree.optimal());
//! ```

#![forbid(unsafe_code)]

pub use ftbb_bnb as bnb;
pub use ftbb_core as core;
pub use ftbb_des as des;
pub use ftbb_dib as dib;
pub use ftbb_gossip as gossip;
pub use ftbb_net as net;
pub use ftbb_runtime as runtime;
pub use ftbb_sim as sim;
pub use ftbb_tree as tree;
pub use ftbb_wire as wire;

pub mod paper;

/// The most common imports for using the library.
pub mod prelude {
    pub use ftbb_bnb::{
        solve, AnyInstance, BasicTreeProblem, BranchBound, KnapsackInstance, MaxSatInstance,
        SolveConfig,
    };
    pub use ftbb_core::{AnyExpander, BnbProcess, Expander, ProblemExpander, ProtocolConfig};
    pub use ftbb_des::{ProcId, SimTime};
    pub use ftbb_net::{LatencyModel, LossModel, NetworkConfig, PartitionSchedule};
    pub use ftbb_runtime::{run_cluster, ClusterConfig, Transport};
    pub use ftbb_sim::{run_sim, RunReport, SimConfig};
    pub use ftbb_tree::{Code, CodeSet};
    pub use ftbb_wire::{ClusterSpec, KnapsackSpec, MaxSatSpec, ProblemSpec, TcpMesh};
}
