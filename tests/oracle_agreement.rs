//! The distributed system must agree with the sequential engine on every
//! workload type: random trees, recorded knapsack trees, recorded MAX-SAT
//! trees — across processor counts and seeds.

use ftbb::bnb::{
    record_basic_tree, solve, BasicTreeProblem, Correlation, KnapsackInstance, MaxSatInstance,
    RecordLimits, SolveConfig,
};
use ftbb::prelude::*;
use std::sync::Arc;

fn cfg(n: u32, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::new(n);
    cfg.seed = seed;
    cfg.protocol.report_interval_s = 0.05;
    cfg.protocol.table_gossip_interval_s = 0.3;
    cfg.protocol.lb_timeout_s = 0.02;
    cfg.protocol.recovery_delay_s = 0.1;
    cfg.protocol.recovery_quiet_s = 0.3;
    cfg.sample_interval_s = 0.2;
    cfg
}

#[test]
fn random_trees_many_seeds() {
    for seed in 0..6u64 {
        let tree = Arc::new(ftbb::tree::random_basic_tree(&ftbb::tree::TreeConfig {
            target_nodes: 301,
            mean_cost: 0.005,
            seed: 5000 + seed,
            ..Default::default()
        }));
        let sequential = solve(
            &BasicTreeProblem::new(Arc::clone(&tree)),
            &SolveConfig::default(),
        );
        let report = run_sim(&tree, &cfg(3 + (seed % 4) as u32, seed));
        assert!(report.all_live_terminated, "seed {seed}");
        assert_eq!(report.best, sequential.best, "seed {seed}");
    }
}

#[test]
fn recorded_knapsack_tree() {
    let mut k = KnapsackInstance::generate(14, 50, Correlation::Weak, 0.5, 9);
    k.cost_per_item = 1e-3;
    let sequential = solve(&k, &SolveConfig::default());
    let tree = Arc::new(record_basic_tree(&k, RecordLimits::default()).unwrap());
    for n in [1u32, 4, 8] {
        let report = run_sim(&tree, &cfg(n, 60 + n as u64));
        assert!(report.all_live_terminated, "{n} procs");
        assert_eq!(report.best, sequential.best, "{n} procs");
    }
}

#[test]
fn recorded_maxsat_tree() {
    let sat = MaxSatInstance::generate(10, 30, 17);
    let sequential = solve(&sat, &SolveConfig::default());
    let tree = Arc::new(record_basic_tree(&sat, RecordLimits::default()).unwrap());
    let report = run_sim(&tree, &cfg(4, 71));
    assert!(report.all_live_terminated);
    assert_eq!(report.best, sequential.best);
}

#[test]
fn infeasible_problem_terminates_with_no_solution() {
    // A basic tree with no feasible leaf: the system must still terminate
    // (every node gets completed) and report no solution.
    let mut nodes = ftbb::tree::basic_tree::fig1_example().nodes().to_vec();
    for n in &mut nodes {
        n.solution = None;
    }
    let tree = Arc::new(ftbb::tree::BasicTree::new(nodes));
    let report = run_sim(&tree, &cfg(3, 81));
    assert!(report.all_live_terminated);
    assert_eq!(report.best, None);
}

#[test]
fn single_node_tree() {
    // Degenerate: the root is itself a feasible leaf.
    let tree = Arc::new(ftbb::tree::BasicTree::new(vec![ftbb::tree::BasicNode {
        parent: None,
        var: 0,
        bound: 1.0,
        cost: 0.01,
        solution: Some(1.5),
        children: None,
    }]));
    let report = run_sim(&tree, &cfg(3, 91));
    assert!(report.all_live_terminated);
    assert_eq!(report.best, Some(1.5));
}

#[test]
fn expanded_unique_never_exceeds_tree() {
    let tree = Arc::new(ftbb::tree::random_basic_tree(&ftbb::tree::TreeConfig {
        target_nodes: 501,
        mean_cost: 0.005,
        seed: 123,
        ..Default::default()
    }));
    let report = run_sim(&tree, &cfg(6, 99));
    assert!(report.expanded_unique <= tree.len() as u64);
    // Total expansions = unique + redundant.
    assert_eq!(
        report.totals.expanded,
        report.expanded_unique + report.redundant_expansions
    );
}
