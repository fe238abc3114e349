//! The branch-and-bound problem abstraction (§2 of the paper).
//!
//! A sequential B&B algorithm applies four operators over a pool of active
//! problems: **Decompose**, **Bound**, **Select**, **Eliminate**. This trait
//! supplies the problem-specific pieces (decompose, bound, feasibility); the
//! engine in [`crate::engine`] supplies select and eliminate.
//!
//! Everything minimizes. Maximization problems (like knapsack) negate their
//! objective.

use ftbb_tree::{Code, Var};

/// A problem solvable by branch and bound.
///
/// Subproblems (`Node`s) form a binary tree: [`decompose`](BranchBound::decompose)
/// splits a node into a left (branch bit 0) and right (branch bit 1) child by
/// deciding the node's [`branching_var`](BranchBound::branching_var). This
/// matches the paper's encoding assumption: "the branching factor for the
/// search tree is 2 and each branch is a decision on a condition variable."
pub trait BranchBound {
    /// A subproblem: the state accumulated along the path from the root.
    type Node: Clone;

    /// The root (original) problem.
    fn root(&self) -> Self::Node;

    /// Lower bound `l(v)` on the best objective in this subtree.
    fn bound(&self, node: &Self::Node) -> f64;

    /// If bounding this node produced a feasible solution, its value.
    fn solution(&self, node: &Self::Node) -> Option<f64>;

    /// The condition variable this node branches on, or `None` for a leaf.
    fn branching_var(&self, node: &Self::Node) -> Option<Var>;

    /// Split into (left = var:=0, right = var:=1), or `None` for a leaf.
    /// Must be `Some` exactly when `branching_var` is `Some`.
    fn decompose(&self, node: &Self::Node) -> Option<(Self::Node, Self::Node)>;

    /// Synthetic compute cost of bounding + decomposing this node, in
    /// seconds. Drives the recorded per-node times in basic trees (the
    /// paper's granularity). Defaults to a fixed 1 ms.
    fn cost(&self, _node: &Self::Node) -> f64 {
        0.001
    }

    /// Rebuild a node from its tree code by replaying the decisions from
    /// the root — this is what makes codes *self-contained* (§5.3.1): "the
    /// code (along with the initial data …) is enough to initiate a problem
    /// on any processor." Transfer and recovery need this from-root
    /// replay; a node's own descent replays only the suffix past its last
    /// path (`ftbb_core::ProblemExpander`), with the same per-step check.
    ///
    /// Returns `None` if the code does not correspond to a path of this
    /// problem's tree (wrong variable or descent past a leaf).
    fn rebuild(&self, code: &Code) -> Option<Self::Node> {
        let mut node = self.root();
        for pair in code.pairs() {
            if self.branching_var(&node)? != pair.var {
                return None;
            }
            let (l, r) = self.decompose(&node)?;
            node = if pair.bit { r } else { l };
        }
        Some(node)
    }
}
