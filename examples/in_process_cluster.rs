//! The deployed node's pump, in one process: every node of a cluster runs
//! the same `ServiceEngine` that `ftbb-noded` runs, on a virtual clock,
//! over a simulated LAN. Half the nodes crash mid-run, and the answer is
//! checked against the sequential solver. One seed gives one run.
//!
//! Every node rebuilds subproblem state from self-contained tree codes —
//! the property that makes work recoverable anywhere (§5.3.1).
//!
//! Run: `cargo run --release --example in_process_cluster`

use ftbb::bnb::{solve, Correlation, KnapsackInstance, MaxSatInstance, SolveConfig};
use ftbb::prelude::*;
use std::time::Duration;

fn main() {
    // --- knapsack on 6 nodes, 3 crashes ------------------------------------
    let knapsack = KnapsackInstance::generate(32, 80, Correlation::Strong, 0.5, 5);
    let reference = solve(&knapsack, &SolveConfig::default());
    println!(
        "knapsack reference: profit {:?} ({} nodes)",
        reference.best.map(|v| -v),
        reference.stats.expanded
    );

    let mut cfg = ClusterConfig::new(6);
    cfg.crashes = vec![
        (2, Duration::from_millis(40)),
        (3, Duration::from_millis(60)),
        (4, Duration::from_millis(80)),
    ];
    let outcome = run_cluster(knapsack.clone(), &cfg);
    println!(
        "in-process cluster (3 of 6 crashed): profit {:?}, {} nodes reported back",
        outcome.best.map(|v| -v),
        outcome.nodes.len()
    );
    assert!(outcome.all_terminated);
    assert_eq!(outcome.best, reference.best);
    for (victim, (_, at)) in outcome.crashed.iter().zip(&cfg.crashes) {
        println!(
            "  node {} crashed at {at:?} of virtual time, having expanded {} nodes",
            victim.id, victim.jobs[0].metrics.expanded
        );
    }
    assert!(
        outcome
            .crashed
            .iter()
            .all(|v| v.jobs[0].metrics.expanded > 0),
        "every crash landed on a node with work"
    );
    let survivors = outcome.nodes.iter().map(|n| &n.jobs[0].metrics);
    let total_expanded: u64 = survivors.clone().map(|m| m.expanded).sum();
    let recoveries: u64 = survivors.map(|m| m.recoveries).sum();
    let lifetime = outcome.nodes.iter().map(|n| n.lifetime).max();
    println!("  survivors expanded {total_expanded} nodes, {recoveries} complement recoveries");
    println!("  the run took {lifetime:?} of virtual time");
    assert_eq!(run_cluster(knapsack, &cfg), outcome, "one seed, one run");

    // --- weighted MAX-SAT: dynamic branching orders ------------------------
    // MAX-SAT picks branching variables dynamically, so different subtrees
    // branch on different variables — the exact situation the paper's
    // ⟨variable, value⟩ encoding exists for.
    let sat = MaxSatInstance::generate(14, 60, 99);
    let sat_ref = solve(&sat, &SolveConfig::default());
    println!(
        "\nMAX-SAT reference: min falsified weight {:?}",
        sat_ref.best
    );
    let outcome = run_cluster(sat, &ClusterConfig::new(4));
    println!("in-process cluster (4 nodes):        {:?}", outcome.best);
    assert!(outcome.all_terminated);
    assert_eq!(outcome.best, sat_ref.best);

    println!("\nin-process runs match the sequential oracle ✓");
}
