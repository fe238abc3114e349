//! 0/1 knapsack as a [`BranchBound`] problem.
//!
//! The classic binary-decision B&B: items sorted by profit density, each
//! tree level decides take/skip for one item, bounds come from Dantzig's
//! fractional relaxation. Knapsack maximizes profit; the trait minimizes, so
//! the objective is negated profit.
//!
//! This is one of the "real problems" whose instrumented runs produce basic
//! trees (§6.2) — see [`crate::recorder`].

use crate::problem::{Branch, BranchBound};
use ftbb_tree::Var;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One item.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Item {
    /// Item weight.
    pub weight: u64,
    /// Item profit.
    pub profit: u64,
}

impl Item {
    /// Profit per unit of weight: the order items are sorted into, and
    /// the order Dantzig's bound needs.
    pub(crate) fn density(&self) -> f64 {
        self.profit as f64 / self.weight.max(1) as f64
    }
}

/// A 0/1 knapsack instance. Items are stored in profit-density order
/// (highest `profit/weight` first), which is also the branching order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KnapsackInstance {
    /// Knapsack capacity.
    pub capacity: u64,
    /// Items, sorted by decreasing profit density.
    pub items: Vec<Item>,
    /// Cost-model scale: seconds of simulated bounding work per remaining
    /// item. Affects only the recorded per-node costs, not correctness.
    pub cost_per_item: f64,
}

/// Correlation structure of generated instances (standard taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Correlation {
    /// Weights and profits independent uniform.
    Uncorrelated,
    /// Profit = weight ± small noise.
    Weak,
    /// Profit = weight + constant.
    Strong,
    /// Profit = weight (subset-sum).
    SubsetSum,
}

impl KnapsackInstance {
    /// Build from raw items (any order); sorts by density.
    pub fn new(capacity: u64, mut items: Vec<Item>) -> Self {
        items.sort_by(|a, b| {
            b.density()
                .partial_cmp(&a.density())
                .expect("finite densities")
        });
        KnapsackInstance {
            capacity,
            items,
            cost_per_item: 1e-5,
        }
    }

    /// Random instance: `n` items, coefficients in `[1, range]`, capacity a
    /// fraction of the total weight. Deterministic per seed.
    pub fn generate(
        n: usize,
        range: u64,
        correlation: Correlation,
        capacity_fraction: f64,
        seed: u64,
    ) -> Self {
        assert!(range >= 2 && n >= 1);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            let weight = rng.gen_range(1..=range);
            let profit = match correlation {
                Correlation::Uncorrelated => rng.gen_range(1..=range),
                Correlation::Weak => {
                    let noise = rng.gen_range(0..=range / 5);
                    (weight + noise).saturating_sub(range / 10).max(1)
                }
                Correlation::Strong => weight + range / 10,
                Correlation::SubsetSum => weight,
            };
            items.push(Item { weight, profit });
        }
        let total: u64 = items.iter().map(|i| i.weight).sum();
        let capacity = ((total as f64) * capacity_fraction).round() as u64;
        KnapsackInstance::new(capacity.max(1), items)
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True for the degenerate zero-item instance.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Exhaustive optimum (profit), for cross-checking small instances.
    pub fn brute_force(&self) -> u64 {
        assert!(self.items.len() <= 24, "brute force only for small n");
        let n = self.items.len();
        let mut best = 0u64;
        for mask in 0u32..(1u32 << n) {
            let (mut w, mut p) = (0u64, 0u64);
            for (i, item) in self.items.iter().enumerate() {
                if mask >> i & 1 == 1 {
                    w += item.weight;
                    p += item.profit;
                }
            }
            if w <= self.capacity {
                best = best.max(p);
            }
        }
        best
    }
}

/// A knapsack subproblem: decisions fixed for items `0..level`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnapNode {
    /// Next item to decide (density order).
    pub level: u16,
    /// Weight already committed.
    pub weight: u64,
    /// Profit already collected.
    pub profit: u64,
    /// True if a take-decision overflowed the capacity.
    pub infeasible: bool,
}

impl KnapsackInstance {
    /// Dantzig fractional upper bound on additional profit from `level` on,
    /// given `slack` remaining capacity. Also reports whether the greedy
    /// fill packed every remaining item (in which case the bound is exact
    /// and feasible).
    fn fractional_tail(&self, level: usize, slack: u64) -> (f64, bool) {
        let mut room = slack;
        let mut add = 0.0;
        for item in &self.items[level..] {
            if item.weight <= room {
                room -= item.weight;
                add += item.profit as f64;
            } else {
                add += item.profit as f64 * room as f64 / item.weight as f64;
                return (add, false);
            }
        }
        (add, true)
    }
}

impl BranchBound for KnapsackInstance {
    type Node = KnapNode;

    fn root(&self) -> KnapNode {
        KnapNode {
            level: 0,
            weight: 0,
            profit: 0,
            infeasible: false,
        }
    }

    fn bound(&self, node: &KnapNode) -> f64 {
        if node.infeasible {
            return f64::INFINITY;
        }
        let slack = self.capacity - node.weight;
        let (tail, _) = self.fractional_tail(node.level as usize, slack);
        -(node.profit as f64 + tail)
    }

    fn branch(&self, node: &KnapNode) -> Branch<KnapNode> {
        let leaf = |solution| Branch {
            solution,
            children: None,
        };
        if node.infeasible {
            return leaf(None);
        }
        let slack = self.capacity - node.weight;
        let (tail, complete) = self.fractional_tail(node.level as usize, slack);
        if complete {
            // Greedy packed every remaining item (none, past the last
            // level): the bound is feasible, and the node a leaf.
            return leaf(Some(-(node.profit as f64 + tail)));
        }
        let item = self.items[node.level as usize];
        // Left (bit 0): skip the item.
        let skip = KnapNode {
            level: node.level + 1,
            ..*node
        };
        // Right (bit 1): take the item (infeasible if it overflows).
        let take = if item.weight <= slack {
            KnapNode {
                weight: node.weight + item.weight,
                profit: node.profit + item.profit,
                ..skip
            }
        } else {
            KnapNode {
                infeasible: true,
                ..skip
            }
        };
        Branch {
            solution: None,
            children: Some((
                node.level as Var,
                [(self.bound(&skip), skip), (self.bound(&take), take)],
            )),
        }
    }

    fn cost(&self, node: &KnapNode) -> f64 {
        let remaining = self.items.len().saturating_sub(node.level as usize);
        self.cost_per_item * (1.0 + remaining as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{solve, SolveConfig};

    /// The operators as separate calls, each scanning its own fractional
    /// tail: the implementation [`BranchBound::branch`] replaced, kept as
    /// the reference it must match bit for bit.
    mod reference {
        use super::*;

        pub fn solution(inst: &KnapsackInstance, node: &KnapNode) -> Option<f64> {
            if node.infeasible {
                return None;
            }
            let slack = inst.capacity - node.weight;
            let (tail, complete) = inst.fractional_tail(node.level as usize, slack);
            if node.level as usize >= inst.items.len() {
                Some(-(node.profit as f64))
            } else if complete {
                Some(-(node.profit as f64 + tail))
            } else {
                None
            }
        }

        pub fn branching_var(inst: &KnapsackInstance, node: &KnapNode) -> Option<Var> {
            if node.infeasible || node.level as usize >= inst.items.len() {
                return None;
            }
            let slack = inst.capacity - node.weight;
            let (_, complete) = inst.fractional_tail(node.level as usize, slack);
            (!complete).then_some(node.level as Var)
        }

        pub fn bound(inst: &KnapsackInstance, node: &KnapNode) -> f64 {
            if node.infeasible {
                return f64::INFINITY;
            }
            let slack = inst.capacity - node.weight;
            let (tail, _) = inst.fractional_tail(node.level as usize, slack);
            -(node.profit as f64 + tail)
        }

        pub fn decompose(inst: &KnapsackInstance, node: &KnapNode) -> Option<(KnapNode, KnapNode)> {
            branching_var(inst, node)?;
            let item = inst.items[node.level as usize];
            let skip = KnapNode {
                level: node.level + 1,
                ..*node
            };
            let take = if node.weight + item.weight <= inst.capacity {
                KnapNode {
                    level: node.level + 1,
                    weight: node.weight + item.weight,
                    profit: node.profit + item.profit,
                    infeasible: false,
                }
            } else {
                KnapNode {
                    level: node.level + 1,
                    infeasible: true,
                    ..*node
                }
            };
            Some((skip, take))
        }
    }

    /// Check `branch` and `bound` against the separate operators at every
    /// node of `walks` random root-to-leaf paths: solution, variable, and
    /// both children's states and bounds, bit for bit.
    fn assert_matches_reference(inst: &KnapsackInstance, walks: usize, seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..walks {
            let mut node = inst.root();
            loop {
                assert_eq!(
                    inst.bound(&node).to_bits(),
                    reference::bound(inst, &node).to_bits(),
                    "bound at {node:?}"
                );
                let branch = inst.branch(&node);
                assert_eq!(
                    branch.solution.map(f64::to_bits),
                    reference::solution(inst, &node).map(f64::to_bits),
                    "solution at {node:?}"
                );
                let expect =
                    reference::branching_var(inst, &node).zip(reference::decompose(inst, &node));
                let Some((var, [(lb, l), (rb, r)])) = branch.children else {
                    assert_eq!(expect, None, "leaf at {node:?}");
                    break;
                };
                assert_eq!(expect, Some((var, (l, r))), "children at {node:?}");
                assert_eq!(
                    lb.to_bits(),
                    reference::bound(inst, &l).to_bits(),
                    "left bound at {node:?}"
                );
                assert_eq!(
                    rb.to_bits(),
                    reference::bound(inst, &r).to_bits(),
                    "right bound at {node:?}"
                );
                node = if rng.gen_bool(0.5) { r } else { l };
            }
        }
    }

    #[test]
    fn branch_matches_the_separate_operators() {
        for seed in 0..24 {
            for corr in [
                Correlation::Uncorrelated,
                Correlation::Weak,
                Correlation::Strong,
                Correlation::SubsetSum,
            ] {
                for (n, fraction) in [(1, 0.5), (6, 0.3), (20, 0.5), (60, 0.7), (200, 0.5)] {
                    let k = KnapsackInstance::generate(n, 120, corr, fraction, seed);
                    assert_matches_reference(&k, 12, seed);
                }
            }
        }
        assert_matches_reference(&tiny(), 32, 0);
    }

    fn tiny() -> KnapsackInstance {
        KnapsackInstance::new(
            10,
            vec![
                Item {
                    weight: 5,
                    profit: 10,
                },
                Item {
                    weight: 4,
                    profit: 40,
                },
                Item {
                    weight: 6,
                    profit: 30,
                },
                Item {
                    weight: 3,
                    profit: 50,
                },
            ],
        )
    }

    #[test]
    fn sorted_by_density() {
        let k = tiny();
        let densities: Vec<f64> = k.items.iter().map(Item::density).collect();
        assert!(densities.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn solves_tiny_instance() {
        let k = tiny();
        let r = solve(&k, &SolveConfig::default());
        // take items (3,50),(4,40): weight 7, profit 90 — beats (3,50)+(6,30).
        assert_eq!(r.best, Some(-90.0));
        assert_eq!(k.brute_force(), 90);
    }

    #[test]
    fn matches_brute_force_across_seeds() {
        for seed in 0..12 {
            for corr in [
                Correlation::Uncorrelated,
                Correlation::Weak,
                Correlation::Strong,
                Correlation::SubsetSum,
            ] {
                let k = KnapsackInstance::generate(14, 50, corr, 0.5, seed);
                let r = solve(&k, &SolveConfig::default());
                let expect = k.brute_force();
                assert_eq!(
                    r.best.map(|v| -v),
                    Some(expect as f64),
                    "seed {seed} corr {corr:?}"
                );
            }
        }
    }

    #[test]
    fn rebuild_replays_decisions() {
        let k = tiny();
        let r = solve(&k, &SolveConfig::default());
        let code = r.best_code.unwrap();
        let node = k.rebuild(&code).unwrap();
        assert_eq!(k.branch(&node).solution, r.best);
    }

    #[test]
    fn bound_is_admissible() {
        // The root bound must not exceed (in minimization, must lower-bound)
        // the optimum.
        for seed in 0..8 {
            let k = KnapsackInstance::generate(12, 30, Correlation::Uncorrelated, 0.4, seed);
            let root = k.root();
            let opt = -(k.brute_force() as f64);
            assert!(
                k.bound(&root) <= opt + 1e-9,
                "bound {} vs optimum {opt}",
                k.bound(&root)
            );
        }
    }

    #[test]
    fn infeasible_take_is_leaf_with_inf_bound() {
        let k = KnapsackInstance::new(
            3,
            vec![
                Item {
                    weight: 5,
                    profit: 100,
                },
                Item {
                    weight: 2,
                    profit: 1,
                },
            ],
        );
        let root = k.root();
        let (_, [_, (bound, take)]) = k.branch(&root).children.unwrap();
        assert!(take.infeasible);
        assert_eq!(bound, f64::INFINITY);
        let leaf = Branch {
            solution: None,
            children: None,
        };
        assert_eq!(k.branch(&take), leaf);
    }

    #[test]
    fn cost_decreases_with_depth() {
        let k = tiny();
        let root = k.root();
        let (_, [(_, skip), _]) = k.branch(&root).children.unwrap();
        assert!(k.cost(&skip) < k.cost(&root));
    }

    #[test]
    fn empty_capacity_instance() {
        let k = KnapsackInstance::new(
            1,
            vec![Item {
                weight: 10,
                profit: 10,
            }],
        );
        let r = solve(&k, &SolveConfig::default());
        assert_eq!(r.best, Some(0.0)); // take nothing
    }
}
