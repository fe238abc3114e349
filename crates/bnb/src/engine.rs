//! The sequential B&B engine (§2): Select, Bound, Decompose, Eliminate in a
//! loop over the pool of active problems. Serves as the correctness
//! reference for every distributed run — the distributed algorithm must find
//! exactly the same optimum on the same tree, regardless of failures.
//!
//! It selects depth-first, the way the protocol's nodes do, but it is its
//! own loop on purpose: the nodes' work-unit explorer is tested *against*
//! this engine, so the engine must not be built from it.

use crate::pool::{Pool, PoolEntry, SelectRule};
use crate::problem::BranchBound;
use ftbb_tree::Code;

/// Statistics of a sequential solve.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveStats {
    /// Nodes popped and processed (bounded + decomposed) — the paper's
    /// "nodes expanded".
    pub expanded: u64,
    /// Children discarded at creation because `l(v) ≥ U`.
    pub eliminated_at_insert: u64,
    /// Pool entries discarded at selection because the incumbent improved
    /// after they were inserted.
    pub eliminated_at_pop: u64,
    /// Leaves reached (fathomed: infeasible or fully solved).
    pub fathomed_leaves: u64,
    /// Times the incumbent improved.
    pub incumbent_updates: u64,
    /// Total simulated compute cost of expanded nodes, in seconds.
    pub total_cost: f64,
    /// Peak pool size (storage metric).
    pub peak_pool: usize,
}

/// Result of a sequential solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveResult {
    /// The optimal objective value, `None` if the problem is infeasible.
    pub best: Option<f64>,
    /// The code of the node where the optimum was found.
    pub best_code: Option<Code>,
    /// Counters.
    pub stats: SolveStats,
}

/// Configuration for a sequential solve.
#[derive(Debug, Clone)]
pub struct SolveConfig {
    /// Selection rule (depth-first, the only one).
    pub rule: SelectRule,
    /// Optional starting incumbent (e.g. from a heuristic).
    pub initial_incumbent: Option<f64>,
    /// Safety valve: abort after this many expansions (`None` = unlimited).
    pub max_expanded: Option<u64>,
}

impl Default for SolveConfig {
    fn default() -> Self {
        SolveConfig {
            rule: SelectRule::DepthFirst,
            initial_incumbent: None,
            max_expanded: None,
        }
    }
}

/// Solve `problem` to optimality.
pub fn solve<P: BranchBound>(problem: &P, config: &SolveConfig) -> SolveResult {
    solve_observed(problem, config, |_, _| {})
}

/// Solve, invoking `observe(code, bound)` for every expanded node — used by
/// the basic-tree recorder and by tests that need the expansion order.
pub fn solve_observed<P, F>(problem: &P, config: &SolveConfig, mut observe: F) -> SolveResult
where
    P: BranchBound,
    F: FnMut(&Code, f64),
{
    let mut pool: Pool<(P::Node, Code)> = Pool::new(config.rule);
    let mut incumbent = config.initial_incumbent.unwrap_or(f64::INFINITY);
    let mut best: Option<f64> = None;
    let mut best_code: Option<Code> = None;
    let mut stats = SolveStats::default();

    let root = problem.root();
    let root_bound = problem.bound(&root);
    pool.push(PoolEntry {
        bound: root_bound,
        depth: 0,
        node: (root, Code::root()),
    });

    // Eliminate (at selection), lazily inside the pool: the incumbent may
    // have improved since entries were inserted; `pop_improving` discards
    // the provably non-improving ones without expanding them.
    let mut pruned = Vec::new();
    loop {
        let next = pool.pop_improving(incumbent, &mut pruned);
        stats.eliminated_at_pop += pruned.len() as u64;
        pruned.clear();
        let Some(entry) = next else { break };
        if let Some(limit) = config.max_expanded {
            if stats.expanded >= limit {
                break;
            }
        }
        let (node, code) = entry.node;
        stats.expanded += 1;
        stats.total_cost += problem.cost(&node);
        observe(&code, entry.bound);

        // Bound may certify a feasible solution at this node; Decompose.
        let branch = problem.branch(&node);
        if let Some(value) = branch.solution {
            if value < incumbent {
                incumbent = value;
                best = Some(value);
                best_code = Some(code.clone());
                stats.incumbent_updates += 1;
            }
        }
        let Some((var, children)) = branch.children else {
            stats.fathomed_leaves += 1;
            continue;
        };
        for ((b, child), bit) in children.into_iter().zip([false, true]) {
            if b >= incumbent {
                stats.eliminated_at_insert += 1;
            } else {
                pool.push(PoolEntry {
                    bound: b,
                    depth: entry.depth + 1,
                    node: (child, code.child(var, bit)),
                });
            }
        }
    }

    stats.peak_pool = pool.peak_len();
    SolveResult {
        best,
        best_code,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::BasicTreeProblem;
    use ftbb_tree::basic_tree::fig1_example;

    #[test]
    fn solves_fig1_tree() {
        let problem = BasicTreeProblem::new(fig1_example());
        let r = solve(&problem, &SolveConfig::default());
        assert_eq!(r.best, Some(7.0));
        assert_eq!(
            r.best_code.unwrap(),
            Code::from_decisions(&[(1, false), (2, true)])
        );
        assert!(r.stats.expanded >= 4); // root, both internals, the optimum leaf
    }

    #[test]
    fn depth_first_finds_tree_optimum() {
        let tree = ftbb_tree::random_basic_tree(&ftbb_tree::TreeConfig {
            target_nodes: 2001,
            seed: 11,
            ..Default::default()
        });
        let problem = BasicTreeProblem::new(tree);
        let r = solve(&problem, &SolveConfig::default());
        assert_eq!(r.best, problem.tree().optimal());
    }

    #[test]
    fn initial_incumbent_prunes() {
        let problem = BasicTreeProblem::new(fig1_example());
        let cold = solve(&problem, &SolveConfig::default());
        let warm = solve(
            &problem,
            &SolveConfig {
                initial_incumbent: Some(7.5),
                ..Default::default()
            },
        );
        assert_eq!(warm.best, Some(7.0));
        assert!(warm.stats.expanded <= cold.stats.expanded);
        assert!(
            warm.stats.eliminated_at_insert + warm.stats.eliminated_at_pop
                >= cold.stats.eliminated_at_insert + cold.stats.eliminated_at_pop
        );
    }

    #[test]
    fn incumbent_below_optimum_yields_no_solution() {
        let problem = BasicTreeProblem::new(fig1_example());
        let r = solve(
            &problem,
            &SolveConfig {
                initial_incumbent: Some(5.0),
                ..Default::default()
            },
        );
        // Nothing beats 5.0 in this tree; search proves it quickly.
        assert_eq!(r.best, None);
    }

    #[test]
    fn max_expanded_aborts() {
        let tree = ftbb_tree::random_basic_tree(&ftbb_tree::TreeConfig {
            target_nodes: 4001,
            seed: 9,
            ..Default::default()
        });
        let problem = BasicTreeProblem::new(tree);
        let r = solve(
            &problem,
            &SolveConfig {
                max_expanded: Some(10),
                ..Default::default()
            },
        );
        assert!(r.stats.expanded <= 10);
    }

    #[test]
    fn observe_sees_expansion_order() {
        let problem = BasicTreeProblem::new(fig1_example());
        let mut codes = Vec::new();
        solve_observed(&problem, &SolveConfig::default(), |c, _| {
            codes.push(c.clone())
        });
        assert_eq!(codes[0], Code::root());
        // All observed codes are distinct.
        let mut dedup = codes.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), codes.len());
    }
}
