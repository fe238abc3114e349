//! Problem-agnostic workloads: one serializable type over every
//! [`BranchBound`] problem the repo ships.
//!
//! The paper's mechanism is *problem-specific only through the tree code*
//! (§2, §5.3.1): any branch-and-bound problem whose decisions encode as
//! `⟨variable, value⟩` pairs rides the same recovery machinery. This
//! module makes that claim executable: [`AnyInstance`] is an enum over 0/1
//! knapsack, weighted MAX-SAT, and recorded basic trees, dispatching the
//! [`BranchBound`] operators per variant. Because it derives the workspace
//! serde codec, a materialized instance travels the wire unchanged — the
//! `ftbb-wire` problem-announce frame ships an [`AnyInstance`] so peers
//! can solve a problem they never generated locally.

use crate::knapsack::{Item, KnapNode, KnapsackInstance};
use crate::maxsat::{MaxSatInstance, SatNode};
use crate::problem::{Branch, BranchBound};
use crate::replay::BasicTreeProblem;
use ftbb_tree::NodeId;
use serde::{Deserialize, Serialize};

/// Any workload the cluster can solve, in one serializable value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AnyInstance {
    /// 0/1 knapsack ([`KnapsackInstance`]).
    Knapsack(KnapsackInstance),
    /// Weighted MAX-SAT ([`MaxSatInstance`]).
    MaxSat(MaxSatInstance),
    /// A recorded basic tree replayed through [`BasicTreeProblem`].
    RecordedTree(BasicTreeProblem),
}

/// A subproblem of an [`AnyInstance`]: the matching variant's node type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AnyNode {
    /// Knapsack subproblem.
    Knapsack(KnapNode),
    /// MAX-SAT partial assignment.
    MaxSat(SatNode),
    /// Recorded-tree node id.
    Tree(NodeId),
}

/// A node of the wrong variant reached an [`AnyInstance`] operator. Like a
/// foreign tree code, this indicates protocol corruption, not a user error.
fn mismatch(instance: &AnyInstance, node: &AnyNode) -> ! {
    panic!(
        "AnyInstance mismatch: {} instance asked to expand a {:?} node",
        instance.kind(),
        node
    );
}

impl AnyInstance {
    /// A human-readable workload label (`knapsack` / `maxsat` /
    /// `recorded-tree`) for logs and error messages. Note this names the
    /// *materialized* workload, not a config spelling: a recorded tree is
    /// the same instance whether it came from `--problem tree-file` or
    /// over the wire.
    pub fn kind(&self) -> &'static str {
        match self {
            AnyInstance::Knapsack(_) => "knapsack",
            AnyInstance::MaxSat(_) => "maxsat",
            AnyInstance::RecordedTree(_) => "recorded-tree",
        }
    }

    /// Structural validation, for instances decoded from untrusted bytes
    /// (the serde derive decodes structure, not invariants). Mirrors the
    /// panicking checks of the variants' constructors and the item order
    /// `KnapsackInstance::new` sorts into (out of profit-density order,
    /// the fractional tail bounds nothing and a solve proves a wrong
    /// optimum), and refuses what the solver's arithmetic cannot hold:
    /// more items than `KnapNode::level` indexes, or weights or profits
    /// whose sum overflows `u64`.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            AnyInstance::Knapsack(k) => {
                if k.capacity == 0 {
                    return Err("knapsack capacity must be at least 1".into());
                }
                if k.items.iter().any(|i| i.weight == 0) {
                    return Err("knapsack item weights must be at least 1".into());
                }
                if k.items.windows(2).any(|w| w[0].density() < w[1].density()) {
                    return Err("knapsack items must be in non-increasing profit density".into());
                }
                if k.items.len() > usize::from(u16::MAX) {
                    return Err("knapsack supports at most 65535 items".into());
                }
                let total = |of: fn(&Item) -> u64| {
                    k.items
                        .iter()
                        .try_fold(0u64, |sum, i| sum.checked_add(of(i)))
                };
                if total(|i| i.weight).is_none() || total(|i| i.profit).is_none() {
                    return Err("knapsack total weight or profit overflows u64".into());
                }
                Ok(())
            }
            AnyInstance::MaxSat(m) => m.validate(),
            AnyInstance::RecordedTree(t) => t.tree().validate(),
        }
    }
}

impl From<KnapsackInstance> for AnyInstance {
    fn from(k: KnapsackInstance) -> Self {
        AnyInstance::Knapsack(k)
    }
}

impl From<MaxSatInstance> for AnyInstance {
    fn from(m: MaxSatInstance) -> Self {
        AnyInstance::MaxSat(m)
    }
}

impl From<BasicTreeProblem> for AnyInstance {
    fn from(t: BasicTreeProblem) -> Self {
        AnyInstance::RecordedTree(t)
    }
}

impl From<ftbb_tree::BasicTree> for AnyInstance {
    fn from(t: ftbb_tree::BasicTree) -> Self {
        AnyInstance::RecordedTree(BasicTreeProblem::new(t))
    }
}

impl BranchBound for AnyInstance {
    type Node = AnyNode;

    fn root(&self) -> AnyNode {
        match self {
            AnyInstance::Knapsack(p) => AnyNode::Knapsack(p.root()),
            AnyInstance::MaxSat(p) => AnyNode::MaxSat(p.root()),
            AnyInstance::RecordedTree(p) => AnyNode::Tree(p.root()),
        }
    }

    fn bound(&self, node: &AnyNode) -> f64 {
        match (self, node) {
            (AnyInstance::Knapsack(p), AnyNode::Knapsack(n)) => p.bound(n),
            (AnyInstance::MaxSat(p), AnyNode::MaxSat(n)) => p.bound(n),
            (AnyInstance::RecordedTree(p), AnyNode::Tree(n)) => p.bound(n),
            _ => mismatch(self, node),
        }
    }

    fn branch(&self, node: &AnyNode) -> Branch<AnyNode> {
        match (self, node) {
            (AnyInstance::Knapsack(p), AnyNode::Knapsack(n)) => p.branch(n).map(AnyNode::Knapsack),
            (AnyInstance::MaxSat(p), AnyNode::MaxSat(n)) => p.branch(n).map(AnyNode::MaxSat),
            (AnyInstance::RecordedTree(p), AnyNode::Tree(n)) => p.branch(n).map(AnyNode::Tree),
            _ => mismatch(self, node),
        }
    }

    fn cost(&self, node: &AnyNode) -> f64 {
        match (self, node) {
            (AnyInstance::Knapsack(p), AnyNode::Knapsack(n)) => p.cost(n),
            (AnyInstance::MaxSat(p), AnyNode::MaxSat(n)) => p.cost(n),
            (AnyInstance::RecordedTree(p), AnyNode::Tree(n)) => p.cost(n),
            _ => mismatch(self, node),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{solve, SolveConfig};
    use crate::knapsack::Correlation;
    use crate::maxsat::Clause;
    use crate::recorder::{record_basic_tree, RecordLimits};
    use ftbb_tree::basic_tree::fig1_example;

    #[test]
    fn knapsack_dispatch_matches_direct_solve() {
        let k = KnapsackInstance::generate(14, 50, Correlation::Weak, 0.5, 9);
        let direct = solve(&k, &SolveConfig::default());
        let any = AnyInstance::from(k);
        let dispatched = solve(&any, &SolveConfig::default());
        assert_eq!(dispatched.best, direct.best);
        assert_eq!(dispatched.best_code, direct.best_code);
        assert_eq!(any.kind(), "knapsack");
    }

    #[test]
    fn maxsat_dispatch_matches_direct_solve() {
        let m = MaxSatInstance::generate(10, 30, 4);
        let direct = solve(&m, &SolveConfig::default());
        let any = AnyInstance::from(m);
        let dispatched = solve(&any, &SolveConfig::default());
        assert_eq!(dispatched.best, direct.best);
        assert_eq!(any.kind(), "maxsat");
    }

    #[test]
    fn recorded_tree_dispatch_matches_tree_optimum() {
        let any = AnyInstance::from(fig1_example());
        let r = solve(&any, &SolveConfig::default());
        assert_eq!(r.best, fig1_example().optimal());
        assert_eq!(any.kind(), "recorded-tree");
    }

    #[test]
    fn rebuild_is_self_contained_for_every_variant() {
        let variants: Vec<AnyInstance> = vec![
            KnapsackInstance::generate(12, 40, Correlation::Uncorrelated, 0.5, 3).into(),
            MaxSatInstance::generate(8, 20, 3).into(),
            fig1_example().into(),
        ];
        for any in variants {
            let r = solve(&any, &SolveConfig::default());
            let code = r.best_code.expect("feasible instance");
            let node = any.rebuild(&code).expect("own best code replays");
            assert_eq!(any.branch(&node).solution, r.best, "{}", any.kind());
        }
    }

    #[test]
    fn serde_round_trips_every_variant() {
        let k = KnapsackInstance::generate(10, 30, Correlation::Strong, 0.5, 5);
        let m = MaxSatInstance::generate(6, 12, 7);
        let tree = record_basic_tree(&k, RecordLimits::default()).unwrap();
        for any in [
            AnyInstance::Knapsack(k.clone()),
            AnyInstance::MaxSat(m),
            AnyInstance::RecordedTree(BasicTreeProblem::new(tree)),
        ] {
            let bytes = serde::encode(&any);
            let back: AnyInstance = serde::decode(&bytes).expect("round trip");
            assert_eq!(back, any);
            assert!(back.validate().is_ok());
        }
    }

    #[test]
    fn recorded_tree_encodes_as_variant_tag_and_tree_only() {
        // The problem shares its tree through an `Arc`; on the wire it is
        // the variant tag and the tree's own bytes, node by node.
        let tree = fig1_example();
        let bytes = serde::encode(&AnyInstance::from(tree.clone()));
        let mut expect = vec![2u8];
        expect.extend((tree.len() as u32).to_le_bytes());
        for id in 0..tree.len() as NodeId {
            let n = tree.node(id);
            match n.parent {
                None => expect.push(0),
                Some((parent, bit)) => {
                    expect.push(1);
                    expect.extend(parent.to_le_bytes());
                    expect.push(u8::from(bit));
                }
            }
            expect.extend(n.var.to_le_bytes());
            expect.extend(n.bound.to_le_bytes());
            expect.extend(n.cost.to_le_bytes());
            match n.solution {
                None => expect.push(0),
                Some(v) => {
                    expect.push(1);
                    expect.extend(v.to_le_bytes());
                }
            }
            match n.children {
                None => expect.push(0),
                Some((l, r)) => {
                    expect.push(1);
                    expect.extend(l.to_le_bytes());
                    expect.extend(r.to_le_bytes());
                }
            }
        }
        assert_eq!(bytes, expect);
        let back: AnyInstance = serde::decode(&bytes).expect("round trip");
        assert_eq!(back, AnyInstance::from(tree));
    }

    #[test]
    fn validate_rejects_corrupt_instances() {
        let mut k = KnapsackInstance::generate(5, 20, Correlation::Weak, 0.5, 1);
        k.capacity = 0;
        assert!(AnyInstance::Knapsack(k).validate().is_err());

        // `new` refuses these clauses; decoding, like untrusted bytes, does not.
        let decoded = |clauses: &Vec<Clause>| -> AnyInstance {
            let m: MaxSatInstance =
                serde::decode(&serde::encode(&(4u16, clauses.clone()))).unwrap();
            AnyInstance::MaxSat(m)
        };
        let mut clauses = MaxSatInstance::generate(4, 8, 1).clauses().to_vec();
        clauses[0].weight = -1.0;
        assert!(decoded(&clauses).validate().is_err());
        clauses[0].weight = 1.0;
        clauses[0].literals[0].var = 99;
        assert!(decoded(&clauses).validate().is_err());
    }

    #[test]
    fn validate_rejects_knapsacks_the_solver_cannot_add_up() {
        // Capacity u64::MAX and two items of weight 2^63: the take-branch
        // weight sum overflowed inside `solve` (a release build wrapped
        // and solved a different instance).
        let half = Item {
            weight: 1 << 63,
            profit: 1,
        };
        let overflowing = KnapsackInstance::new(u64::MAX, vec![half, half]);
        assert!(AnyInstance::Knapsack(overflowing).validate().is_err());

        let profit_overflow = Item {
            weight: 1,
            profit: u64::MAX,
        };
        let rich = KnapsackInstance::new(2, vec![profit_overflow, profit_overflow]);
        assert!(AnyInstance::Knapsack(rich).validate().is_err());

        let tiny = Item {
            weight: 1,
            profit: 1,
        };
        let too_many = KnapsackInstance::new(1, vec![tiny; usize::from(u16::MAX) + 1]);
        assert!(AnyInstance::Knapsack(too_many).validate().is_err());
        let most = KnapsackInstance::new(1, vec![tiny; usize::from(u16::MAX)]);
        assert!(AnyInstance::Knapsack(most).validate().is_ok());
    }

    #[test]
    fn validate_rejects_knapsack_items_out_of_density_order() {
        let item = |weight, profit| Item { weight, profit };
        let unsorted = |items| KnapsackInstance {
            capacity: 5,
            items,
            cost_per_item: 1e-5,
        };
        // The denser item second: the fractional tail is no bound.
        let bad = AnyInstance::Knapsack(unsorted(vec![item(1, 1), item(4, 40)]));
        let err = bad.validate().expect_err("unsorted items");
        assert!(err.contains("profit density"), "{err}");
        // Equal densities may come in any order.
        let tied = AnyInstance::Knapsack(unsorted(vec![item(1, 3), item(2, 6), item(3, 9)]));
        assert!(tied.validate().is_ok());
        let sorted = KnapsackInstance::new(5, vec![item(1, 1), item(4, 40)]);
        assert!(AnyInstance::Knapsack(sorted).validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "AnyInstance mismatch")]
    fn foreign_node_variant_panics() {
        let any = AnyInstance::from(MaxSatInstance::generate(4, 8, 1));
        let knap_node =
            AnyNode::Knapsack(KnapsackInstance::generate(4, 10, Correlation::Weak, 0.5, 1).root());
        any.bound(&knap_node);
    }
}
