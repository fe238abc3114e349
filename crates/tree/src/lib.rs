//! # ftbb-tree — the paper's problem-specific encoding and its algebra
//!
//! Implements the machinery of §5.3 of Iamnitchi & Foster (ICPP 2000):
//!
//! * [`Code`] — a subproblem encoded by its position in the B&B tree as a
//!   sequence of `⟨variable, branch⟩` decision pairs (Figure 1). Codes are
//!   self-contained: code + root instance data reconstructs the subproblem
//!   anywhere.
//! * [`CodeSet`] — a contracted set of completed codes: sibling codes merge
//!   into their parent, descendants of completed ancestors are dropped.
//!   This is both the *work-report compression* and, when contraction
//!   reaches the root code, the *termination detector* (§5.4).
//! * [`pick_recovery`] — failure recovery by complementing the completed
//!   set to find a subproblem nobody is known to have finished (§5.3.2).
//! * [`BasicTree`] — recorded, unpruned B&B trees with per-node bounds,
//!   costs and feasibility (§6.2), plus random generators and the calibrated
//!   workloads for every figure/table of the evaluation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod basic_tree;
pub mod code;
pub mod codeset;
pub mod complement;
pub mod generator;
pub mod io;

pub use basic_tree::{BasicNode, BasicTree, NodeId, TreeStats};
pub use code::{Code, Pair, Var};
pub use codeset::{CodeSet, MergeOutcome};
pub use complement::pick_recovery;
pub use generator::{calibrated, random_basic_tree, TreeConfig};
