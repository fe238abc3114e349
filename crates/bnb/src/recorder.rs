//! Recording basic trees from instrumented B&B runs (§6.2).
//!
//! "For real problems, we tested our algorithm on a set of basic trees that
//! we obtained from an instrumented B&B code. Basic trees are trees
//! generated by executing a branch-and-bound algorithm *without eliminating
//! the unpromising nodes*." The recorder performs that exhaustive traversal
//! over any [`BranchBound`] problem and emits a [`BasicTree`] carrying, per
//! node: bound value, compute time, and feasibility — the paper's record.

use crate::problem::BranchBound;
use ftbb_tree::{BasicNode, BasicTree, NodeId};

/// Limits for a recording run.
#[derive(Debug, Clone, Copy)]
pub struct RecordLimits {
    /// Abort if the full tree exceeds this many nodes ("creation of basic
    /// trees is computationally infeasible for anything but small
    /// problems").
    pub max_nodes: usize,
}

impl Default for RecordLimits {
    fn default() -> Self {
        RecordLimits { max_nodes: 500_000 }
    }
}

/// Recording failure.
#[derive(Debug, PartialEq, Eq)]
pub enum RecordError {
    /// The full tree exceeded [`RecordLimits::max_nodes`].
    TooLarge {
        /// The configured limit.
        limit: usize,
    },
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::TooLarge { limit } => {
                write!(f, "basic tree exceeds {limit} nodes")
            }
        }
    }
}

impl std::error::Error for RecordError {}

/// Exhaustively traverse `problem` (no elimination) and record its basic
/// tree. Child bounds are clamped to be ≥ the parent bound to absorb
/// floating-point noise from relaxation solvers.
pub fn record_basic_tree<P: BranchBound>(
    problem: &P,
    limits: RecordLimits,
) -> Result<BasicTree, RecordError> {
    let root = problem.root();
    let mut nodes: Vec<BasicNode> = vec![BasicNode {
        parent: None,
        var: 0,
        bound: problem.bound(&root),
        cost: problem.cost(&root),
        solution: None,
        children: None,
    }];
    // Depth-first traversal; stack holds (node state, arena index). A node
    // learns its solution when it is branched, its children then.
    let mut stack: Vec<(P::Node, NodeId)> = vec![(root, 0)];
    while let Some((state, idx)) = stack.pop() {
        let branch = problem.branch(&state);
        nodes[idx as usize].solution = branch.solution;
        let Some((var, [left, right])) = branch.children else {
            continue;
        };
        if nodes.len() + 2 > limits.max_nodes {
            return Err(RecordError::TooLarge {
                limit: limits.max_nodes,
            });
        }
        let parent_bound = nodes[idx as usize].bound;
        nodes[idx as usize].var = var;
        let push = |(bound, state): (f64, P::Node), bit: bool, nodes: &mut Vec<BasicNode>| {
            let id = nodes.len() as NodeId;
            nodes.push(BasicNode {
                parent: Some((idx, bit)),
                var: 0,
                bound: bound.max(parent_bound),
                cost: problem.cost(&state),
                solution: None,
                children: None,
            });
            (state, id)
        };
        let l = push(left, false, &mut nodes);
        let r = push(right, true, &mut nodes);
        nodes[idx as usize].children = Some((l.1, r.1));
        stack.push(l);
        stack.push(r);
    }
    Ok(BasicTree::new(nodes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{solve, SolveConfig};
    use crate::knapsack::{Correlation, KnapsackInstance};
    use crate::maxsat::MaxSatInstance;
    use crate::replay::BasicTreeProblem;

    #[test]
    fn recorded_knapsack_tree_preserves_optimum() {
        let k = KnapsackInstance::generate(12, 40, Correlation::Uncorrelated, 0.5, 7);
        let tree = record_basic_tree(&k, RecordLimits::default()).unwrap();
        // The recorded tree's optimum equals the direct solve's optimum.
        let direct = solve(&k, &SolveConfig::default());
        assert_eq!(tree.optimal(), direct.best);
        // Replaying the tree also finds it.
        let replay = solve(&BasicTreeProblem::new(tree), &SolveConfig::default());
        assert_eq!(replay.best, direct.best);
    }

    #[test]
    fn recorded_maxsat_tree_preserves_optimum() {
        let inst = MaxSatInstance::generate(9, 25, 5);
        let tree = record_basic_tree(&inst, RecordLimits::default()).unwrap();
        let direct = solve(&inst, &SolveConfig::default());
        assert_eq!(tree.optimal(), direct.best);
    }

    #[test]
    fn recording_is_exhaustive() {
        // Without elimination the recorded tree is at least as large as the
        // pruned search.
        let k = KnapsackInstance::generate(10, 30, Correlation::Weak, 0.5, 3);
        let tree = record_basic_tree(&k, RecordLimits::default()).unwrap();
        let direct = solve(&k, &SolveConfig::default());
        assert!(tree.len() as u64 >= direct.stats.expanded);
    }

    #[test]
    fn recorded_codes_resolve_in_problem() {
        let k = KnapsackInstance::generate(8, 20, Correlation::Uncorrelated, 0.5, 1);
        let tree = record_basic_tree(&k, RecordLimits::default()).unwrap();
        // Every recorded node's code rebuilds to a node with the same bound.
        for id in 0..tree.len() as NodeId {
            let code = tree.code_of(id);
            let state = k.rebuild(&code).expect("recorded code must replay");
            // Recorded bounds are clamped up to the parent's, so the raw
            // bound can only be at or below the recorded value.
            assert!(
                k.bound(&state) <= tree.node(id).bound + 1e-6,
                "bound mismatch at node {id}"
            );
        }
    }

    #[test]
    fn limit_enforced() {
        let k = KnapsackInstance::generate(30, 100, Correlation::SubsetSum, 0.5, 2);
        let err = record_basic_tree(&k, RecordLimits { max_nodes: 100 });
        assert_eq!(err.unwrap_err(), RecordError::TooLarge { limit: 100 });
    }
}
