//! # ftbb-bnb — sequential branch-and-bound engine and problems
//!
//! Implements §2 of Iamnitchi & Foster (ICPP 2000): the four-operator
//! (Decompose / Bound / Select / Eliminate) sequential B&B loop over a
//! depth-first pool, real problems (0/1 knapsack, weighted MAX-SAT), the
//! basic-tree recorder of §6.2, and a replay adapter that drives the engine
//! from recorded trees.
//!
//! The sequential engine is the *correctness oracle* for the distributed
//! algorithm: every simulated distributed run — under any crash schedule
//! that leaves at least one process alive — must find the same optimum.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod any;
pub mod engine;
pub mod knapsack;
pub mod maxsat;
pub mod pool;
pub mod problem;
pub mod recorder;
pub mod replay;

pub use any::{AnyInstance, AnyNode};
pub use engine::{solve, solve_observed, SolveConfig, SolveResult, SolveStats};
pub use knapsack::{Correlation, Item, KnapNode, KnapsackInstance};
pub use maxsat::{Clause, Literal, MaxSatInstance, SatNode};
pub use pool::{Pool, PoolEntry, SelectRule};
pub use problem::{Branch, BranchBound};
pub use recorder::{record_basic_tree, RecordError, RecordLimits};
pub use replay::BasicTreeProblem;
