//! Expanding subproblems: the bridge between the protocol (which deals only
//! in codes) and the actual B&B computation.
//!
//! Codes are self-contained (§5.3.1), so an [`Expander`] needs nothing but
//! the code (plus the initial problem data it was constructed with) to
//! bound and decompose any subproblem — including subproblems recovered by
//! complementing, which the local process has never seen. That property is
//! what *transfer and recovery* (grants, complements, restores) need; a
//! node's own depth-first descent does not, so [`ProblemExpander`] keeps
//! the path it last replayed and replays only the suffix of each code past
//! the prefix they share.

use ftbb_bnb::BranchBound;
use ftbb_tree::{BasicTree, Code, Pair, Var};
use std::sync::Arc;

/// Result of expanding one subproblem.
#[derive(Debug, Clone, PartialEq)]
pub struct Expansion {
    /// Seconds of compute consumed by bounding + decomposing.
    pub cost: f64,
    /// This node's (re)computed lower bound.
    pub bound: f64,
    /// Feasible solution value discovered at this node, if any.
    pub solution: Option<f64>,
    /// Children produced by decomposition; `None` for a leaf.
    pub children: Option<ChildPair>,
}

/// The two children created by a Decompose.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChildPair {
    /// The branching variable.
    pub var: Var,
    /// Left child's (branch 0) lower bound.
    pub left_bound: f64,
    /// Right child's (branch 1) lower bound.
    pub right_bound: f64,
}

/// Bound + decompose subproblems identified by tree codes.
pub trait Expander {
    /// Expand the subproblem with this code. Must be deterministic, and must
    /// succeed for any code reachable in the problem's tree (panics on
    /// foreign codes are acceptable — they indicate protocol corruption).
    ///
    /// The returned [`Expansion`] is a function of the code alone: an
    /// expander may keep node state between calls (as [`ProblemExpander`]
    /// keeps its last path), but the result must not depend on which codes
    /// it expanded before.
    fn expand(&mut self, code: &Code) -> Expansion;

    /// The root problem's lower bound (to seed the initial pool).
    fn root_bound(&self) -> f64;
}

/// Replays a recorded [`BasicTree`] — the paper's simulation driver (§6.2).
/// The tree is shared (`Arc`) so that every simulated process replays the
/// same workload without copying it.
#[derive(Debug, Clone)]
pub struct TreeExpander {
    tree: Arc<BasicTree>,
    /// Granularity factor applied to recorded costs (§6.2: "we tuned this
    /// granularity by multiplying all time values by a constant factor").
    granularity: f64,
}

impl TreeExpander {
    /// Replay `tree` at granularity 1.
    pub fn new(tree: impl Into<Arc<BasicTree>>) -> Self {
        TreeExpander {
            tree: tree.into(),
            granularity: 1.0,
        }
    }

    /// Replay with a cost multiplier.
    pub fn with_granularity(tree: impl Into<Arc<BasicTree>>, granularity: f64) -> Self {
        assert!(granularity > 0.0 && granularity.is_finite());
        TreeExpander {
            tree: tree.into(),
            granularity,
        }
    }

    /// The replayed tree.
    pub fn tree(&self) -> &BasicTree {
        &self.tree
    }
}

impl Expander for TreeExpander {
    fn expand(&mut self, code: &Code) -> Expansion {
        let id = self
            .tree
            .locate(code)
            .unwrap_or_else(|| panic!("code {code} does not exist in the basic tree"));
        let node = self.tree.node(id);
        let children = node.children.map(|(l, r)| ChildPair {
            var: node.var,
            left_bound: self.tree.node(l).bound,
            right_bound: self.tree.node(r).bound,
        });
        Expansion {
            cost: node.cost * self.granularity,
            bound: node.bound,
            solution: node.solution,
            children,
        }
    }

    fn root_bound(&self) -> f64 {
        self.tree.node(self.tree.root()).bound
    }
}

/// Expands a live [`BranchBound`] problem by replaying the code's decisions
/// — the "real implementation" path used by the threaded runtime and
/// `ftbb-noded`. It keeps the node states along the path it last replayed
/// and replays only the decisions past the prefix a code shares with that
/// path, with [`BranchBound::rebuild`]'s per-step check: a child of the
/// last expansion costs one step, and a code that arrived by grant,
/// recovery or restore replays from wherever it leaves the path (the root
/// at worst, which is `rebuild`).
#[derive(Debug, Clone)]
pub struct ProblemExpander<P: BranchBound> {
    problem: P,
    /// Node states along the last replayed path: `path[0]` is the root and
    /// `path[d + 1]` the node `pairs[d]` leads to. Bounded by tree depth.
    path: Vec<P::Node>,
    /// The decisions that reached `path[1..]`.
    pairs: Vec<Pair>,
}

impl<P: BranchBound> ProblemExpander<P> {
    /// Wrap a problem.
    pub fn new(problem: P) -> Self {
        ProblemExpander {
            path: vec![problem.root()],
            pairs: Vec::new(),
            problem,
        }
    }

    /// Move the path to `code`: keep the prefix they share, replay the
    /// rest. Panics on a code that does not replay, leaving the path on
    /// its last valid prefix.
    fn descend(&mut self, code: &Code) {
        let shared = self
            .pairs
            .iter()
            .zip(code.pairs())
            .take_while(|(a, b)| **a == *b)
            .count();
        self.pairs.truncate(shared);
        self.path.truncate(shared + 1);
        for pair in code.pairs().skip(shared) {
            let node = &self.path[self.pairs.len()];
            let next = match self.problem.branching_var(node) {
                Some(var) if var == pair.var => self.problem.decompose(node),
                _ => None,
            }
            .unwrap_or_else(|| panic!("code {code} does not replay in this problem"));
            self.path.push(if pair.bit { next.1 } else { next.0 });
            self.pairs.push(pair);
        }
    }

    /// The wrapped problem.
    pub fn problem(&self) -> &P {
        &self.problem
    }
}

/// The problem-agnostic expander: a [`ProblemExpander`] over
/// [`ftbb_bnb::AnyInstance`]. This is what deployment harnesses
/// (`ftbb-wire`'s `ftbb-noded`, the threaded runtime) use once the
/// workload has been materialized — whether locally from a spec or from
/// a peer's problem-announce frame — so the whole stack above this line
/// is generic over the problem kind.
pub type AnyExpander = ProblemExpander<ftbb_bnb::AnyInstance>;

impl<P: BranchBound> Expander for ProblemExpander<P> {
    fn expand(&mut self, code: &Code) -> Expansion {
        self.descend(code);
        let (problem, node) = (&self.problem, &self.path[self.pairs.len()]);
        let children = match (problem.branching_var(node), problem.decompose(node)) {
            (Some(var), Some((l, r))) => Some(ChildPair {
                var,
                left_bound: problem.bound(&l),
                right_bound: problem.bound(&r),
            }),
            _ => None,
        };
        Expansion {
            cost: problem.cost(node),
            bound: problem.bound(node),
            solution: problem.solution(node),
            children,
        }
    }

    fn root_bound(&self) -> f64 {
        self.problem.bound(&self.problem.root())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbb_bnb::{Correlation, KnapsackInstance};
    use ftbb_tree::basic_tree::fig1_example;

    #[test]
    fn tree_expander_replays_fig1() {
        let mut e = TreeExpander::new(fig1_example());
        let root = e.expand(&Code::root());
        assert_eq!(root.bound, 0.0);
        assert_eq!(root.cost, 1.0);
        let kids = root.children.unwrap();
        assert_eq!(kids.var, 1);
        assert_eq!(kids.left_bound, 1.0);
        assert_eq!(kids.right_bound, 2.0);
        // The optimum leaf.
        let leaf = e.expand(&Code::from_decisions(&[(1, false), (2, true)]));
        assert_eq!(leaf.solution, Some(7.0));
        assert!(leaf.children.is_none());
    }

    #[test]
    fn granularity_scales_cost_only() {
        let mut a = TreeExpander::new(fig1_example());
        let mut b = TreeExpander::with_granularity(fig1_example(), 10.0);
        let (ea, eb) = (a.expand(&Code::root()), b.expand(&Code::root()));
        assert_eq!(eb.cost, ea.cost * 10.0);
        assert_eq!(eb.bound, ea.bound);
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn foreign_code_panics() {
        let mut e = TreeExpander::new(fig1_example());
        e.expand(&Code::from_decisions(&[(99, true)]));
    }

    /// Shared body: a live expander over `problem` must agree with a
    /// [`TreeExpander`] replaying the tree recorded from that same
    /// problem, on every recorded node (bounds may differ only by the
    /// recorder's monotonicity clamp).
    fn assert_expander_agrees_with_recorder<P>(problem: P)
    where
        P: ftbb_bnb::BranchBound,
        P::Node: Clone,
    {
        let tree = ftbb_bnb::record_basic_tree(&problem, ftbb_bnb::RecordLimits::default())
            .expect("recordable instance");
        let mut live = ProblemExpander::new(problem);
        let mut replay = TreeExpander::new(tree.clone());
        for id in (0..tree.len() as u32).step_by(7) {
            let code = tree.code_of(id);
            let a = live.expand(&code);
            let b = replay.expand(&code);
            assert_eq!(a.children.map(|c| c.var), b.children.map(|c| c.var));
            assert_eq!(a.solution, b.solution);
            assert!(a.bound <= b.bound + 1e-9);
        }
        assert_eq!(live.root_bound(), replay.root_bound());
    }

    #[test]
    fn problem_expander_agrees_with_recorder() {
        assert_expander_agrees_with_recorder(KnapsackInstance::generate(
            10,
            30,
            Correlation::Uncorrelated,
            0.5,
            3,
        ));
    }

    #[test]
    fn problem_expander_agrees_with_recorder_maxsat() {
        // MAX-SAT branches on a *dynamically chosen* variable, so this
        // additionally checks that recorded ⟨var, value⟩ codes replay
        // through rebuild() when branching order differs across subtrees.
        assert_expander_agrees_with_recorder(ftbb_bnb::MaxSatInstance::generate(8, 22, 6));
    }

    #[test]
    fn problem_expander_agrees_with_recorder_recorded_tree() {
        // A recorded tree wrapped back into a BranchBound problem and
        // re-recorded: the round trip must be exact (the tree path has no
        // bound clamp to hide behind).
        let k = KnapsackInstance::generate(9, 25, Correlation::Weak, 0.5, 8);
        let tree = ftbb_bnb::record_basic_tree(&k, ftbb_bnb::RecordLimits::default()).unwrap();
        assert_expander_agrees_with_recorder(ftbb_bnb::BasicTreeProblem::new(tree));
    }

    #[test]
    fn any_expander_dispatches_all_variants() {
        use ftbb_bnb::AnyInstance;
        let k = KnapsackInstance::generate(10, 30, Correlation::Uncorrelated, 0.5, 3);
        let tree = ftbb_bnb::record_basic_tree(&k, ftbb_bnb::RecordLimits::default()).unwrap();
        let variants: Vec<AnyInstance> = vec![
            k.into(),
            ftbb_bnb::MaxSatInstance::generate(8, 22, 6).into(),
            tree.into(),
        ];
        for any in variants {
            assert_expander_agrees_with_recorder(any);
        }
    }
}
