//! Quickstart: the paper's mechanism in five minutes.
//!
//! 1. Encode subproblems as tree codes (Figure 1).
//! 2. Contract completed codes; watch termination appear (§5.3–5.4).
//! 3. Simulate a small cluster, crash most of it, and still get the answer.
//!
//! Run: `cargo run --release --example quickstart`

use ftbb::prelude::*;
use std::sync::Arc;

fn main() {
    // --- 1. Tree codes -----------------------------------------------------
    let root = Code::root();
    let left = root.child(1, false); // branch on x1 = 0
    let leaf = left.child(2, true); // then x2 = 1
    println!("root  = {root}");
    println!("left  = {left}");
    println!(
        "leaf  = {leaf}   (depth {}, {} bytes as the paper packs it)",
        leaf.depth(),
        leaf.wire_size()
    );
    println!("sibling of leaf = {}", leaf.sibling().unwrap());

    // --- 2. Contraction and termination detection --------------------------
    let mut table = CodeSet::new();
    table.insert(&Code::from_decisions(&[(1, false), (2, false)]));
    table.insert(&Code::from_decisions(&[(1, false), (2, true)]));
    println!("\nafter two sibling completions, the table holds: {table:?}");
    table.insert(&Code::from_decisions(&[(1, true)]));
    println!("after completing (x1,1) too:            {table:?}");
    println!("termination detected? {}", table.is_root_done());

    // --- 3. A fault-tolerant distributed run -------------------------------
    let tree = Arc::new(ftbb::tree::random_basic_tree(&ftbb::tree::TreeConfig {
        target_nodes: 2001,
        mean_cost: 0.01,
        seed: 42,
        ..Default::default()
    }));
    println!(
        "\nworkload: {} nodes, sequential optimum {:?}",
        tree.len(),
        tree.optimal()
    );

    let mut cfg = SimConfig::new(8);
    cfg.protocol.lb_timeout_s = 0.05;
    cfg.protocol.recovery_delay_s = 0.25;
    cfg.protocol.recovery_quiet_s = 1.0;
    // Crash 6 of the 8 processes mid-run.
    cfg.failures = (1..7)
        .map(|p| (p, SimTime::from_millis(800 + 100 * p as u64)))
        .collect();

    let report = run_sim(&tree, &cfg);
    println!(
        "8-process run with 6 crashes: best {:?} in {} (all survivors terminated: {})",
        report.best, report.exec_time, report.all_live_terminated
    );
    println!(
        "recoveries: {}, redundant expansions: {}, messages: {}",
        report.totals.recoveries, report.redundant_expansions, report.net.messages_sent
    );
    assert_eq!(report.best, tree.optimal());
    println!("\nthe crash of 6/8 processes did not change the answer ✓");
}
