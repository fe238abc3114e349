//! The protocol on *real threads*: the paper evaluates in simulation only;
//! this example runs the identical state machine on OS threads exchanging
//! messages over channels, crashes half the nodes, and checks the answer.
//!
//! Every node rebuilds subproblem state from self-contained tree codes —
//! the property that makes work recoverable anywhere (§5.3.1).
//!
//! Run: `cargo run --release --example threaded_cluster`

use ftbb::bnb::{solve, Correlation, KnapsackInstance, MaxSatInstance, SolveConfig};
use ftbb::prelude::*;
use std::time::Duration;

fn main() {
    // --- knapsack on 6 threads, 3 crashes ---------------------------------
    let knapsack = KnapsackInstance::generate(24, 90, Correlation::Uncorrelated, 0.5, 7);
    let reference = solve(&knapsack, &SolveConfig::default());
    println!(
        "knapsack reference: profit {:?} ({} nodes)",
        reference.best.map(|v| -v),
        reference.stats.expanded
    );

    let mut cfg = ClusterConfig::new(6);
    cfg.crashes = vec![
        (2, Duration::from_millis(4)),
        (3, Duration::from_millis(8)),
        (4, Duration::from_millis(12)),
    ];
    let outcome = run_cluster(knapsack, &cfg);
    println!(
        "threaded cluster (3 of 6 crashed): profit {:?}, {} nodes reported back",
        outcome.best.map(|v| -v),
        outcome.nodes.len()
    );
    assert!(outcome.all_terminated);
    assert_eq!(outcome.best, reference.best);

    let total_expanded: u64 = outcome.nodes.iter().map(|n| n.metrics.expanded).sum();
    let recoveries: u64 = outcome.nodes.iter().map(|n| n.metrics.recoveries).sum();
    println!("  survivors expanded {total_expanded} nodes, {recoveries} complement recoveries");

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
    println!("threaded cluster (4 nodes):        {:?}", outcome.best);
    assert!(outcome.all_terminated);
    assert_eq!(outcome.best, sat_ref.best);

    println!("\nthreaded runs match the sequential oracle ✓");
}
