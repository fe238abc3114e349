//! Replaying recorded basic trees through the [`BranchBound`] interface.
//!
//! This adapter is how the paper's simulation methodology works (§6.2): "the
//! simulation was configured so that it could be driven either by real
//! (precomputed) B&B trees or by random trees … The bound values are used
//! for pruning the test tree and obtaining the B&B tree, and for computing
//! the optimal solution."

use crate::problem::{Branch, BranchBound};
use ftbb_tree::{BasicTree, NodeId};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A [`BranchBound`] problem backed by a recorded [`BasicTree`].
///
/// The tree is shared (`Arc`), so every simulated process replays one
/// copy. Serializable so it can ride [`crate::AnyInstance`] over the
/// wire, as the tree's own bytes (the codec encodes `Arc<T>` as `T`); a
/// decoded value must be re-checked with [`BasicTree::validate`] (the
/// derive decodes structure, not invariants — `AnyInstance::validate`
/// does this for announce frames).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BasicTreeProblem {
    tree: Arc<BasicTree>,
}

impl BasicTreeProblem {
    /// Wrap a recorded tree, owned or shared.
    pub fn new(tree: impl Into<Arc<BasicTree>>) -> Self {
        BasicTreeProblem { tree: tree.into() }
    }

    /// The underlying tree.
    pub fn tree(&self) -> &BasicTree {
        &self.tree
    }
}

impl BranchBound for BasicTreeProblem {
    type Node = NodeId;

    fn root(&self) -> NodeId {
        self.tree.root()
    }

    fn bound(&self, node: &NodeId) -> f64 {
        self.tree.node(*node).bound
    }

    fn branch(&self, node: &NodeId) -> Branch<NodeId> {
        let n = self.tree.node(*node);
        Branch {
            solution: n.solution,
            children: n
                .children
                .map(|(l, r)| (n.var, [(self.bound(&l), l), (self.bound(&r), r)])),
        }
    }

    fn cost(&self, node: &NodeId) -> f64 {
        self.tree.node(*node).cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbb_tree::basic_tree::fig1_example;
    use ftbb_tree::Code;

    #[test]
    fn adapter_exposes_tree_data() {
        let p = BasicTreeProblem::new(fig1_example());
        let root = p.root();
        assert_eq!(p.bound(&root), 0.0);
        let (var, [(lb, l), (rb, r)]) = p.branch(&root).children.unwrap();
        assert_eq!(var, 1);
        assert_eq!((lb, rb), (p.bound(&l), p.bound(&r)));
        assert_eq!(p.bound(&l), 1.0);
        assert_eq!(p.bound(&r), 2.0);
        assert_eq!(p.branch(&l).solution, None);
        assert_eq!(p.cost(&root), 1.0);
    }

    #[test]
    fn rebuild_from_code_is_self_contained() {
        let p = BasicTreeProblem::new(fig1_example());
        // Code (x1,0)(x2,1) identifies node 4 (the optimum).
        let code = Code::from_decisions(&[(1, false), (2, true)]);
        let node = p.rebuild(&code).unwrap();
        assert_eq!(p.branch(&node).solution, Some(7.0));
        // Wrong variable: rejected.
        let bad = Code::from_decisions(&[(9, false)]);
        assert!(p.rebuild(&bad).is_none());
        // Descends past a leaf: rejected.
        let deep = Code::from_decisions(&[(1, false), (2, true), (4, false)]);
        assert!(p.rebuild(&deep).is_none());
    }
}
