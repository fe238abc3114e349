//! Basic trees: recorded B&B search trees (§6.2).
//!
//! "Basic trees are trees generated by executing a branch-and-bound
//! algorithm without eliminating the unpromising nodes." Each node carries
//! (1) an identifier, (2) its bound value, (3) the time needed for bounding
//! and expanding it, and (4) whether its bound value is a feasible solution
//! — exactly the record the paper's instrumented code produces. The
//! simulator replays these trees, pruning with whatever incumbent each
//! simulated process happens to know, so the B&B tree actually explored
//! varies with communication timing and processor count, as in the paper.

use crate::code::{Code, Var};
use serde::{Deserialize, Serialize};

/// Index of a node in a [`BasicTree`].
pub type NodeId = u32;

/// One recorded search-tree node. Bounds are for *minimization*: a child's
/// bound is never smaller than its parent's.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BasicNode {
    /// Parent node and which child this is (`false` = left), `None` at root.
    pub parent: Option<(NodeId, bool)>,
    /// Branching (condition) variable used to decompose this node.
    /// Meaningful only when `children` is `Some`.
    pub var: Var,
    /// Lower bound `l(v)` on any solution in this subtree.
    pub bound: f64,
    /// Seconds of computation to bound and decompose this node.
    pub cost: f64,
    /// If the bounding operation found a feasible solution here, its value.
    pub solution: Option<f64>,
    /// Left and right children, or `None` for a leaf.
    pub children: Option<(NodeId, NodeId)>,
}

impl BasicNode {
    /// Is this node a leaf of the basic tree?
    pub fn is_leaf(&self) -> bool {
        self.children.is_none()
    }
}

/// A recorded (unpruned) B&B search tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BasicTree {
    nodes: Vec<BasicNode>,
}

/// Summary statistics of a basic tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeStats {
    /// Total nodes.
    pub nodes: usize,
    /// Leaves.
    pub leaves: usize,
    /// Maximum depth.
    pub max_depth: usize,
    /// Sum of per-node costs, in seconds (uniprocessor work, unpruned).
    pub total_cost: f64,
    /// Mean per-node cost, in seconds.
    pub mean_cost: f64,
    /// Optimal (minimum) feasible solution value, if any solution exists.
    pub optimal: Option<f64>,
}

impl BasicTree {
    /// Build from a node arena; node 0 must be the root. Validates the
    /// invariants and panics with a description if they are violated.
    pub fn new(nodes: Vec<BasicNode>) -> Self {
        let t = BasicTree { nodes };
        t.validate().expect("invalid basic tree");
        t
    }

    /// Build without validation (for trusted generators; debug builds still
    /// validate).
    pub fn new_unchecked(nodes: Vec<BasicNode>) -> Self {
        let t = BasicTree { nodes };
        debug_assert!(t.validate().is_ok(), "{:?}", t.validate());
        t
    }

    /// Check structural invariants. Total on any node arena — the serde
    /// decoder hands this arenas built from outside bytes — so the walk
    /// goes *down* from the root: a node is examined only after the chain
    /// of parents above it, and the root-path walk below therefore cannot
    /// leave the arena or loop on a cycle of forged parent pointers.
    pub fn validate(&self) -> Result<(), String> {
        let root = self.nodes.first().ok_or("empty tree")?;
        if root.parent.is_some() {
            return Err("root must have no parent".into());
        }
        let mut stack: Vec<NodeId> = vec![0];
        let mut reached = 0usize;
        while let Some(i) = stack.pop() {
            reached += 1;
            let n = &self.nodes[i as usize];
            if n.bound.is_nan() {
                return Err(format!("node {i}: bound is NaN"));
            }
            if n.cost < 0.0 || n.cost.is_nan() {
                return Err(format!("node {i}: negative or NaN cost"));
            }
            if let Some(s) = n.solution {
                if s + 1e-9 < n.bound || s.is_nan() {
                    return Err(format!("node {i}: solution {s} below bound {}", n.bound));
                }
            }
            let Some((l, r)) = n.children else { continue };
            for (kid, bit) in [(l, false), (r, true)] {
                let k = self
                    .nodes
                    .get(kid as usize)
                    .ok_or_else(|| format!("node {i}: child {kid} out of range"))?;
                // One parent field per node: no node is pushed twice, so
                // the walk ends after at most `len` nodes.
                if k.parent != Some((i, bit)) {
                    return Err(format!("node {kid}: bad parent back-pointer"));
                }
                if k.bound + 1e-9 < n.bound {
                    return Err(format!(
                        "node {kid}: bound {} below parent bound {}",
                        k.bound, n.bound
                    ));
                }
                stack.push(kid);
            }
            // Variables must be unique along any root path (codes depend on it).
            let mut cur = n.parent;
            while let Some((p, _)) = cur {
                let pn = &self.nodes[p as usize];
                if pn.var == n.var {
                    return Err(format!(
                        "node {i}: branching variable x{} repeats on its root path",
                        n.var
                    ));
                }
                cur = pn.parent;
            }
        }
        if reached != self.nodes.len() {
            return Err(format!(
                "{} node(s) unreachable from the root",
                self.nodes.len() - reached
            ));
        }
        Ok(())
    }

    /// The root node id (always 0).
    pub fn root(&self) -> NodeId {
        0
    }

    /// Node accessor.
    pub fn node(&self, id: NodeId) -> &BasicNode {
        &self.nodes[id as usize]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the tree has no nodes (never for validated trees).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All nodes.
    pub fn nodes(&self) -> &[BasicNode] {
        &self.nodes
    }

    /// The tree code of a node (path from the root).
    pub fn code_of(&self, id: NodeId) -> Code {
        let mut rev: Vec<(Var, bool)> = Vec::new();
        let mut cur = id;
        while let Some((p, bit)) = self.nodes[cur as usize].parent {
            rev.push((self.nodes[p as usize].var, bit));
            cur = p;
        }
        rev.reverse();
        Code::from_decisions(&rev)
    }

    /// Resolve a code to a node id, verifying branching variables along the
    /// way. `None` if the path leaves the tree or a variable mismatches.
    pub fn locate(&self, code: &Code) -> Option<NodeId> {
        let mut cur = self.root();
        for p in code.pairs() {
            let n = &self.nodes[cur as usize];
            let (l, r) = n.children?;
            if n.var != p.var {
                return None;
            }
            cur = if p.bit { r } else { l };
        }
        Some(cur)
    }

    /// Depth of a node.
    pub fn depth_of(&self, id: NodeId) -> usize {
        let mut d = 0;
        let mut cur = id;
        while let Some((p, _)) = self.nodes[cur as usize].parent {
            d += 1;
            cur = p;
        }
        d
    }

    /// The optimal (minimum) feasible solution value in the tree.
    pub fn optimal(&self) -> Option<f64> {
        self.nodes
            .iter()
            .filter_map(|n| n.solution)
            .min_by(|a, b| a.partial_cmp(b).expect("no NaN solutions"))
    }

    /// Summary statistics.
    pub fn stats(&self) -> TreeStats {
        let leaves = self.nodes.iter().filter(|n| n.is_leaf()).count();
        let total_cost: f64 = self.nodes.iter().map(|n| n.cost).sum();
        let max_depth = (0..self.nodes.len() as NodeId)
            .map(|i| self.depth_of(i))
            .max()
            .unwrap_or(0);
        TreeStats {
            nodes: self.nodes.len(),
            leaves,
            max_depth,
            total_cost,
            mean_cost: total_cost / self.nodes.len() as f64,
            optimal: self.optimal(),
        }
    }

    /// Multiply every node cost by `factor` — the paper's granularity tuning
    /// ("we tuned this granularity by multiplying all time values by a
    /// constant factor", §6.2).
    pub fn scale_costs(&mut self, factor: f64) {
        assert!(factor >= 0.0 && factor.is_finite());
        for n in &mut self.nodes {
            n.cost *= factor;
        }
    }
}

/// A hand-built 7-node example tree mirroring the paper's Figure 1/2 shape:
/// root branches on x1; left child on x2, right child on x3; the four
/// grandchildren are leaves. Useful in unit tests across the workspace.
pub fn fig1_example() -> BasicTree {
    let nodes = vec![
        // 0: root, branches on x1
        BasicNode {
            parent: None,
            var: 1,
            bound: 0.0,
            cost: 1.0,
            solution: None,
            children: Some((1, 2)),
        },
        // 1: (x1,0), branches on x2
        BasicNode {
            parent: Some((0, false)),
            var: 2,
            bound: 1.0,
            cost: 1.0,
            solution: None,
            children: Some((3, 4)),
        },
        // 2: (x1,1), branches on x3
        BasicNode {
            parent: Some((0, true)),
            var: 3,
            bound: 2.0,
            cost: 1.0,
            solution: None,
            children: Some((5, 6)),
        },
        // 3: (x1,0)(x2,0) — feasible leaf, value 10
        BasicNode {
            parent: Some((1, false)),
            var: 0,
            bound: 3.0,
            cost: 1.0,
            solution: Some(10.0),
            children: None,
        },
        // 4: (x1,0)(x2,1) — feasible leaf, value 7 (the optimum)
        BasicNode {
            parent: Some((1, true)),
            var: 0,
            bound: 2.0,
            cost: 1.0,
            solution: Some(7.0),
            children: None,
        },
        // 5: (x1,1)(x3,0) — infeasible leaf
        BasicNode {
            parent: Some((2, false)),
            var: 0,
            bound: 8.0,
            cost: 1.0,
            solution: None,
            children: None,
        },
        // 6: (x1,1)(x3,1) — feasible leaf, value 9
        BasicNode {
            parent: Some((2, true)),
            var: 0,
            bound: 4.0,
            cost: 1.0,
            solution: Some(9.0),
            children: None,
        },
    ];
    BasicTree::new(nodes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_shape() {
        let t = fig1_example();
        let s = t.stats();
        assert_eq!(s.nodes, 7);
        assert_eq!(s.leaves, 4);
        assert_eq!(s.max_depth, 2);
        assert_eq!(s.optimal, Some(7.0));
        assert_eq!(s.total_cost, 7.0);
    }

    #[test]
    fn codes_match_figure_1() {
        let t = fig1_example();
        assert_eq!(format!("{}", t.code_of(0)), "()");
        assert_eq!(format!("{}", t.code_of(1)), "(<x1,0>)");
        assert_eq!(format!("{}", t.code_of(2)), "(<x1,1>)");
        assert_eq!(format!("{}", t.code_of(4)), "(<x1,0>,<x2,1>)");
        assert_eq!(format!("{}", t.code_of(6)), "(<x1,1>,<x3,1>)");
    }

    #[test]
    fn locate_inverts_code_of() {
        let t = fig1_example();
        for id in 0..t.len() as NodeId {
            assert_eq!(t.locate(&t.code_of(id)), Some(id));
        }
    }

    #[test]
    fn locate_rejects_wrong_var() {
        let t = fig1_example();
        // Path exists structurally but claims the wrong variable.
        let bad = Code::from_decisions(&[(9, false)]);
        assert_eq!(t.locate(&bad), None);
        // Path descends past a leaf.
        let too_deep = Code::from_decisions(&[(1, false), (2, true), (9, false)]);
        assert_eq!(t.locate(&too_deep), None);
    }

    #[test]
    fn subtree_sizes() {
        // Nodes in the subtree rooted at `id`, `id` included.
        let subtree_size = |t: &BasicTree, id: NodeId| {
            let mut stack = vec![id];
            let mut n = 0;
            while let Some(x) = stack.pop() {
                n += 1;
                stack.extend(
                    t.nodes[x as usize]
                        .children
                        .iter()
                        .flat_map(|&(l, r)| [l, r]),
                );
            }
            n
        };
        let t = fig1_example();
        assert_eq!(subtree_size(&t, 0), 7);
        assert_eq!(subtree_size(&t, 1), 3);
        assert_eq!(subtree_size(&t, 3), 1);
    }

    #[test]
    fn scale_costs_is_granularity_knob() {
        let mut t = fig1_example();
        t.scale_costs(3.47);
        assert!((t.stats().mean_cost - 3.47).abs() < 1e-12);
    }

    #[test]
    fn validation_catches_bad_bounds() {
        let mut nodes = fig1_example().nodes().to_vec();
        nodes[3].bound = -5.0; // below parent's bound of 1.0
        assert!(BasicTree { nodes }.validate().is_err());
    }

    #[test]
    fn validation_catches_bad_backpointer() {
        let mut nodes = fig1_example().nodes().to_vec();
        nodes[3].parent = Some((2, false));
        assert!(BasicTree { nodes }.validate().is_err());
    }

    #[test]
    fn validation_catches_repeated_var_on_path() {
        let mut nodes = fig1_example().nodes().to_vec();
        nodes[1].var = 1; // same as root's var
        assert!(BasicTree { nodes }.validate().is_err());
    }

    #[test]
    fn validation_catches_solution_below_bound() {
        let mut nodes = fig1_example().nodes().to_vec();
        nodes[3].solution = Some(0.5); // below its bound of 3.0
        assert!(BasicTree { nodes }.validate().is_err());
    }
}
