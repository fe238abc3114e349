//! Expanding subproblems: the bridge between the protocol (which deals only
//! in codes) and the actual B&B computation.
//!
//! Codes are self-contained (§5.3.1), so an [`Expander`] needs nothing but
//! the code (plus the initial problem data it was constructed with) to
//! bound and decompose any subproblem — including subproblems recovered by
//! complementing, which the local process has never seen. That property is
//! what *transfer and recovery* (grants, complements, restores) need; a
//! node's own descent does not, so [`ProblemExpander`] keeps the path it
//! last replayed and replays only the suffix of each code past the prefix
//! they share.
//!
//! [`ProblemExpander`] is the one expander every harness runs, and the
//! one impl of [`Expander`]: the deployed nodes over a live problem as an
//! [`AnyExpander`] (any [`ftbb_bnb::AnyInstance`] kind), and the simulator
//! over a recorded tree (the paper's §6.2 method) as a
//! [`ftbb_bnb::BasicTreeProblem`]. Only Bound and Decompose depend on the
//! problem (§2), and they are the problem's [`BranchBound::branch`].
//!
//! The protocol needs codes only at its boundaries — donation, reports,
//! recovery, interruption — so the unit of work between two protocol steps
//! need not be one node. [`Expander::explore`] runs the sequential engine's
//! depth-first loop below a code until its subtree is done or the caller
//! stops it, and returns the [`WorkUnit`]: the finished subtrees as a few
//! contracted codes and the open frontier as pool entries. A harness that
//! answers `StartWork` with one [`Expander::expand`] instead feeds the
//! protocol a one-node unit.

use ftbb_bnb::BranchBound;
use ftbb_tree::{Code, Pair, Var};

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

impl Expansion {
    /// Expand `node` of `problem`: one [`BranchBound::branch`] call, and
    /// the node's own bound.
    pub fn of<P: BranchBound>(problem: &P, node: &P::Node) -> Expansion {
        let branch = problem.branch(node);
        Expansion {
            cost: problem.cost(node),
            bound: problem.bound(node),
            solution: branch.solution,
            children: branch
                .children
                .map(|(var, [(left_bound, _), (right_bound, _)])| ChildPair {
                    var,
                    left_bound,
                    right_bound,
                }),
        }
    }
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

/// What a work unit did: the depth-first search below one code, from the
/// code's own expansion until its subtree finished or the caller stopped
/// the search. The done and frontier codes tile the code's subtree with
/// the part the unit expanded: every subtree below the code is finished
/// (under a done code), open (a frontier entry), or on the path to one.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkUnit {
    /// Finished subtrees, contracted: the unit's code alone when its whole
    /// subtree finished, otherwise at most one finished child per open
    /// frame (an expanded node whose subtree is not finished).
    pub done: Vec<Code>,
    /// The open frontier as `(code, bound)`, in pool order: pushed in turn
    /// onto a depth-first pool, they pop in the order the unit would have
    /// expanded them.
    pub frontier: Vec<(Code, f64)>,
    /// The best solution found, when one beat the incumbent the unit
    /// started from.
    pub solution: Option<f64>,
    /// Nodes expanded (bounded + decomposed); at least the unit's code.
    pub expanded: u64,
    /// Children popped and discarded because their bound could no longer
    /// beat the unit's running incumbent.
    pub pruned: u64,
    /// Children discarded at creation (`l(v) ≥ U`).
    pub eliminated: u64,
    /// Leaves reached.
    pub fathomed: u64,
    /// Summed cost of the expanded nodes, in seconds.
    pub cost: f64,
}

impl WorkUnit {
    /// Make this the unit of one expansion of `code`: what the protocol
    /// makes of an [`Expansion`] when its incumbent is `incumbent`. A leaf
    /// finishes `code`; a child whose bound cannot beat the incumbent
    /// (improved by the node's own solution) finishes at once; the others
    /// are the frontier, left child first. Reuses the vectors' capacity:
    /// the simulator turns every expansion into one.
    pub fn set_one_node(&mut self, code: Code, expansion: Expansion, incumbent: f64) {
        let solution = expansion.solution.filter(|&v| v < incumbent);
        let incumbent = solution.unwrap_or(incumbent);
        let (mut done, mut frontier) = (
            std::mem::take(&mut self.done),
            std::mem::take(&mut self.frontier),
        );
        done.clear();
        frontier.clear();
        *self = WorkUnit {
            done,
            frontier,
            solution,
            expanded: 1,
            cost: expansion.cost,
            ..WorkUnit::default()
        };
        let Some(pair) = expansion.children else {
            self.fathomed = 1;
            self.done.push(code);
            return;
        };
        for (bit, bound) in [(false, pair.left_bound), (true, pair.right_bound)] {
            let child = code.child(pair.var, bit);
            if bound >= incumbent {
                self.eliminated += 1;
                self.done.push(child);
            } else {
                self.frontier.push((child, bound));
            }
        }
    }

    /// Raw completions — each leaf fathomed, child eliminated and entry
    /// pruned, the paper's unit of a work report's `c` — which the done
    /// codes contract.
    pub fn completions(&self) -> u64 {
        self.fathomed + self.eliminated + self.pruned
    }
}

/// Bound + decompose subproblems identified by tree codes.
///
/// [`ProblemExpander`] is the one impl: every harness expands through it,
/// and the runtime runs [`AnyExpander`]. It stays a trait only because
/// code outside the workspace (the benchmark's probes) names it to call
/// these methods.
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

    /// Run the sequential engine's depth-first loop below `code` as one
    /// [`WorkUnit`]: right child first, elimination at insert and pruning
    /// at pop, both against the unit's own running incumbent, which starts
    /// at `incumbent`. The code itself is always expanded; before each
    /// further expansion the unit asks `keep_going(expanded, cost)` with
    /// its counts so far, and stops with its open frontier when told no.
    /// Panics on a foreign code, like [`Expander::expand`].
    fn explore(
        &mut self,
        code: &Code,
        incumbent: f64,
        keep_going: &mut dyn FnMut(u64, f64) -> bool,
    ) -> WorkUnit;

    /// The root problem's lower bound (to seed the initial pool).
    fn root_bound(&self) -> f64;
}

/// An expanded node on the unit's path whose subtree is not finished.
struct Frame {
    var: Var,
    /// Children not finished yet (1 or 2).
    open: u8,
    /// The branch of the child that finished, once one has.
    done: Option<bool>,
}

/// A child waiting to be popped: the unit's stack entry.
struct Pending<N> {
    /// Depth of the child's parent, which is on the expander's path.
    depth: usize,
    pair: Pair,
    bound: f64,
    node: N,
}

/// The node at `depth` (branch `bit`) finished: count it against its
/// parent's frame, closing every frame it completes. `frames[i]` stands at
/// `base + i`, the unit's own code at `base`.
fn finish(frames: &mut Vec<Frame>, pairs: &[Pair], base: usize, mut depth: usize, mut bit: bool) {
    while depth > base {
        let frame = frames
            .last_mut()
            .expect("a node below the unit has an open parent");
        frame.open -= 1;
        if frame.open > 0 {
            frame.done = Some(bit);
            return;
        }
        frames.pop();
        depth -= 1;
        bit = depth > base && pairs[depth - 1].bit;
    }
}

/// Expands a [`BranchBound`] problem by replaying the code's decisions —
/// the expander of every harness: the in-process cluster and `ftbb-noded`
/// over any problem, the simulator over a recorded tree
/// ([`ftbb_bnb::BasicTreeProblem`]). It keeps the node states along the
/// path it last replayed and replays only the decisions past the prefix a
/// code shares with that path, with [`BranchBound::rebuild`]'s per-step
/// check: a child of the last expansion costs one step, and a code that
/// arrived by grant, recovery or restore replays from wherever it leaves
/// the path (the root at worst, which is `rebuild`).
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
            let next = self.problem.branch(node).child(pair);
            self.path.push(
                next.unwrap_or_else(|| panic!("code {code} does not replay in this problem")),
            );
            self.pairs.push(pair);
        }
    }

    /// Step the path to `node`, reached by `pair` from the path's node at
    /// `depth`: no replay, the state came from the parent's branch.
    fn enter(&mut self, depth: usize, pair: Pair, node: P::Node) {
        self.pairs.truncate(depth);
        self.path.truncate(depth + 1);
        self.path.push(node);
        self.pairs.push(pair);
    }
}

/// The problem-agnostic expander: a [`ProblemExpander`] over
/// [`ftbb_bnb::AnyInstance`], the one instance type of every deployment.
/// Jobs, pool workers and the in-process and TCP harnesses all run it,
/// whether the workload was materialized locally from a spec, from a
/// peer's problem-announce frame or from a checkpoint.
pub type AnyExpander = ProblemExpander<ftbb_bnb::AnyInstance>;

impl<P: BranchBound> Expander for ProblemExpander<P> {
    fn expand(&mut self, code: &Code) -> Expansion {
        self.descend(code);
        let (problem, node) = (&self.problem, &self.path[self.pairs.len()]);
        Expansion::of(problem, node)
    }

    /// Walks the node states: a child's state comes from its parent's
    /// branch, so no code is replayed inside the unit, and the unit leaves
    /// the path on the last node it expanded — the next unit, a frontier
    /// entry a decision or two off it, replays a step or two.
    fn explore(
        &mut self,
        code: &Code,
        mut incumbent: f64,
        keep_going: &mut dyn FnMut(u64, f64) -> bool,
    ) -> WorkUnit {
        self.descend(code);
        let base = self.pairs.len();
        let mut unit = WorkUnit::default();
        let mut frames: Vec<Frame> = Vec::new();
        let mut stack: Vec<Pending<P::Node>> = Vec::new();
        'nodes: loop {
            // Expand the node the path ends on.
            let depth = self.pairs.len();
            let node = &self.path[depth];
            let (cost, branch) = (self.problem.cost(node), self.problem.branch(node));
            unit.expanded += 1;
            unit.cost += cost;
            if let Some(v) = branch.solution.filter(|&v| v < incumbent) {
                incumbent = v;
                unit.solution = Some(v);
            }
            match branch.children {
                None => {
                    unit.fathomed += 1;
                    let bit = depth > base && self.pairs[depth - 1].bit;
                    finish(&mut frames, &self.pairs, base, depth, bit);
                }
                Some((var, children)) => {
                    frames.push(Frame {
                        var,
                        open: 2,
                        done: None,
                    });
                    for ((bound, node), bit) in children.into_iter().zip([false, true]) {
                        if bound >= incumbent {
                            unit.eliminated += 1;
                            finish(&mut frames, &self.pairs, base, depth + 1, bit);
                        } else {
                            let pair = Pair { var, bit };
                            stack.push(Pending {
                                depth,
                                pair,
                                bound,
                                node,
                            });
                        }
                    }
                }
            }
            // Pop the next child to expand, pruning the ones the incumbent
            // now rules out.
            while let Some(top) = stack.last() {
                if top.bound < incumbent {
                    if !keep_going(unit.expanded, unit.cost) {
                        break 'nodes;
                    }
                    let next = stack.pop().expect("peeked");
                    self.enter(next.depth, next.pair, next.node);
                    continue 'nodes;
                }
                let pruned = stack.pop().expect("peeked");
                unit.pruned += 1;
                finish(
                    &mut frames,
                    &self.pairs,
                    base,
                    pruned.depth + 1,
                    pruned.pair.bit,
                );
            }
            debug_assert!(frames.is_empty(), "the subtree finished with open frames");
            unit.done.push(code.clone());
            return unit;
        }
        // Stopped: every open frame is on the path.
        let prefix = |depth: usize, pair: Pair| -> Code {
            self.pairs[..depth].iter().copied().chain([pair]).collect()
        };
        for (i, frame) in frames.iter().enumerate() {
            if let Some(bit) = frame.done {
                let var = frame.var;
                unit.done.push(prefix(base + i, Pair { var, bit }));
            }
        }
        unit.frontier = stack
            .into_iter()
            .map(|p| (prefix(p.depth, p.pair), p.bound))
            .collect();
        unit
    }

    fn root_bound(&self) -> f64 {
        self.problem.bound(&self.problem.root())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbb_bnb::{BasicTreeProblem, Correlation, KnapsackInstance};
    use ftbb_tree::basic_tree::fig1_example;
    use ftbb_tree::{random_basic_tree, BasicTree, TreeConfig};

    /// The simulator's expander: a recorded tree, replayed.
    fn replay(tree: BasicTree) -> ProblemExpander<BasicTreeProblem> {
        ProblemExpander::new(BasicTreeProblem::new(tree))
    }

    #[test]
    fn tree_expander_replays_fig1() {
        let mut e = replay(fig1_example());
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
    fn a_scaled_tree_costs_each_node_one_multiply() {
        // The simulator's granularity (§6.2) is one `scale_costs` per run:
        // every expansion then costs exactly the recorded cost times the
        // factor.
        let tree = random_basic_tree(&TreeConfig {
            target_nodes: 301,
            seed: 9,
            ..Default::default()
        });
        for g in [0.1, 3.0, 100.0] {
            let mut scaled = tree.clone();
            scaled.scale_costs(g);
            let mut e = replay(scaled);
            for id in 0..tree.len() as u32 {
                let (got, want) = (e.expand(&tree.code_of(id)).cost, tree.node(id).cost * g);
                assert_eq!(got.to_bits(), want.to_bits(), "node {id} at {g}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not replay in this problem")]
    fn foreign_code_panics() {
        replay(fig1_example()).expand(&Code::from_decisions(&[(99, true)]));
    }

    /// Shared body: a live expander over `problem` must agree with the
    /// replay of the tree recorded from that same problem, on every
    /// recorded node (bounds may differ only by the recorder's
    /// monotonicity clamp).
    fn assert_expander_agrees_with_recorder<P>(problem: P)
    where
        P: ftbb_bnb::BranchBound,
        P::Node: Clone,
    {
        let tree = ftbb_bnb::record_basic_tree(&problem, ftbb_bnb::RecordLimits::default())
            .expect("recordable instance");
        let mut live = ProblemExpander::new(problem);
        let mut recorded = replay(tree.clone());
        for id in (0..tree.len() as u32).step_by(7) {
            let code = tree.code_of(id);
            let a = live.expand(&code);
            let b = recorded.expand(&code);
            assert_eq!(a.children.map(|c| c.var), b.children.map(|c| c.var));
            assert_eq!(a.solution, b.solution);
            assert!(a.bound <= b.bound + 1e-9);
        }
        assert_eq!(live.root_bound(), recorded.root_bound());
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
        assert_expander_agrees_with_recorder(BasicTreeProblem::new(tree));
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
