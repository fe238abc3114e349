//! The branch-and-bound problem abstraction (§2 of the paper).
//!
//! A sequential B&B algorithm applies four operators over a pool of active
//! problems: **Decompose**, **Bound**, **Select**, **Eliminate**. This trait
//! supplies the problem-specific pieces (decompose, bound, feasibility); the
//! engine in [`crate::engine`] supplies select and eliminate.
//!
//! Everything minimizes. Maximization problems (like knapsack) negate their
//! objective.

use ftbb_tree::{Code, Pair, Var};

/// What one [`BranchBound::branch`] call finds at a node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Branch<N> {
    /// If bounding the node produced a feasible solution, its value.
    pub solution: Option<f64>,
    /// The branching variable and the children (left = var:=0, right =
    /// var:=1), each with its bound; `None` for a leaf.
    pub children: Option<(Var, [(f64, N); 2])>,
}

impl<N> Branch<N> {
    /// The child `pair` leads to: `None` at a leaf or when the node
    /// branches on another variable.
    pub fn child(self, pair: Pair) -> Option<N> {
        match self.children {
            Some((var, [(_, left), (_, right)])) if var == pair.var => {
                Some(if pair.bit { right } else { left })
            }
            _ => None,
        }
    }

    /// The same branch over another node type.
    pub fn map<M>(self, f: impl Fn(N) -> M) -> Branch<M> {
        Branch {
            solution: self.solution,
            children: self
                .children
                .map(|(var, [(lb, l), (rb, r)])| (var, [(lb, f(l)), (rb, f(r))])),
        }
    }
}

/// A problem solvable by branch and bound.
///
/// Subproblems (`Node`s) form a binary tree: [`branch`](BranchBound::branch)
/// splits a node into a left (branch bit 0) and right (branch bit 1) child
/// by deciding one condition variable. This matches the paper's encoding
/// assumption: "the branching factor for the search tree is 2 and each
/// branch is a decision on a condition variable."
pub trait BranchBound {
    /// A subproblem: the state accumulated along the path from the root.
    type Node: Clone;

    /// The root (original) problem.
    fn root(&self) -> Self::Node;

    /// Lower bound `l(v)` on the best objective in this subtree.
    fn bound(&self, node: &Self::Node) -> f64;

    /// §2's Bound and Decompose, once per node: the node's solution and,
    /// unless it is a leaf, its branching variable and both children, each
    /// with the bound [`bound`](BranchBound::bound) gives it, bit for bit.
    /// An expansion is one call, so what these share is computed once.
    fn branch(&self, node: &Self::Node) -> Branch<Self::Node>;

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
            node = self.branch(&node).child(pair)?;
        }
        Some(node)
    }
}
