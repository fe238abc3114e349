//! Cross-harness agreement (the in-process cluster of deployed pumps vs.
//! simulator vs. sequential) and the DIB comparison of §5.5.

use ftbb::bnb::{
    record_basic_tree, solve, AnyInstance, Correlation, KnapsackInstance, MaxSatInstance,
    RecordLimits, SolveConfig,
};
use ftbb::dib::DibProcess;
use ftbb::prelude::*;
use ftbb::sim::run_protocol;
use std::sync::Arc;
use std::time::Duration;

/// Every instance kind on the in-process cluster: knapsacks, a MAX-SAT
/// instance and a recorded tree, each against its sequential optimum.
#[test]
fn in_process_cluster_agrees_with_sequential() {
    let knapsack = |seed| KnapsackInstance::generate(18, 70, Correlation::Uncorrelated, 0.5, seed);
    let tree = record_basic_tree(&knapsack(13), RecordLimits::default()).expect("recordable");
    let mut instances: Vec<AnyInstance> = [3u64, 5, 8].map(|s| knapsack(s).into()).into();
    instances.push(MaxSatInstance::generate(16, 60, 4).into());
    instances.push(tree.into());
    for (i, instance) in instances.into_iter().enumerate() {
        let kind = instance.kind();
        let reference = solve(&instance, &SolveConfig::default());
        let outcome = run_cluster(instance, &ClusterConfig::new(4));
        assert!(outcome.all_terminated, "instance {i} ({kind})");
        assert_eq!(outcome.best, reference.best, "instance {i} ({kind})");
    }
}

/// Four of five nodes crash, one after another, each holding work it
/// had expanded from (7 429 sequential expansions; the failure-free
/// cluster takes ~140 ms of virtual time); the last node standing
/// finishes alone.
#[test]
fn in_process_cluster_survives_majority_crash() {
    let k = KnapsackInstance::generate(32, 80, Correlation::Strong, 0.5, 5);
    let reference = solve(&k, &SolveConfig::default());
    let mut cfg = ClusterConfig::new(5);
    cfg.crashes = vec![
        (1, Duration::from_millis(40)),
        (2, Duration::from_millis(60)),
        (3, Duration::from_millis(80)),
        (4, Duration::from_millis(100)),
    ];
    let outcome = run_cluster(k, &cfg);
    assert!(outcome.all_terminated);
    assert_eq!(outcome.best, reference.best);
    let ids =
        |nodes: &[ftbb::runtime::ServiceOutcome]| nodes.iter().map(|n| n.id).collect::<Vec<_>>();
    assert_eq!(ids(&outcome.nodes), [0], "only the survivor reports");
    assert_eq!(
        ids(&outcome.crashed),
        [1, 2, 3, 4],
        "every crash stopped its node"
    );
    for victim in &outcome.crashed {
        let expanded = victim.jobs[0].metrics.expanded;
        assert!(expanded > 0, "node {} had no work", victim.id);
    }
    assert!(outcome.nodes[0].lifetime > Duration::from_millis(100));
}

fn dib_tree(seed: u64) -> Arc<ftbb::tree::BasicTree> {
    Arc::new(ftbb::tree::random_basic_tree(&ftbb::tree::TreeConfig {
        target_nodes: 301,
        mean_cost: 0.01,
        seed,
        ..Default::default()
    }))
}

/// DIB on 4 machines, `failures` crashing, stopped at 30 s if it hangs.
fn dib_run(tree: &Arc<ftbb::tree::BasicTree>, failures: Vec<(u32, SimTime)>) -> RunReport {
    let mut cfg = SimConfig::baseline(4);
    cfg.failures = failures;
    cfg.horizon = Some(SimTime::from_secs(30));
    run_protocol(tree, &cfg, |pid, root| {
        DibProcess::new(pid, 4, root, cfg.seed)
    })
}

#[test]
fn dib_and_ftbb_agree_failure_free() {
    let tree = dib_tree(2100);
    let dib = dib_run(&tree, Vec::new());
    assert!(dib.all_live_terminated);
    assert_eq!(dib.best, tree.optimal());

    let mut cfg = SimConfig::new(4);
    cfg.protocol.lb_timeout_s = 0.05;
    cfg.protocol.recovery_delay_s = 0.2;
    cfg.protocol.recovery_quiet_s = 0.5;
    let ftbb = run_sim(&tree, &cfg);
    assert!(ftbb.all_live_terminated);
    assert_eq!(ftbb.best, dib.best);
}

#[test]
fn dib_root_failure_vs_ftbb_root_failure() {
    // The paper's §5.5 comparison, as an executable fact:
    // killing machine 0 stalls DIB but not the paper's mechanism.
    let tree = dib_tree(2200);

    let dib = dib_run(&tree, vec![(0, SimTime::from_millis(100))]);
    assert!(
        !dib.all_live_terminated,
        "DIB must stall when the root machine dies"
    );

    let mut ftbb_cfg = SimConfig::new(4);
    ftbb_cfg.protocol.lb_timeout_s = 0.05;
    ftbb_cfg.protocol.recovery_delay_s = 0.2;
    ftbb_cfg.protocol.recovery_quiet_s = 0.5;
    ftbb_cfg.failures = vec![(0, SimTime::from_millis(100))];
    let ftbb = run_sim(&tree, &ftbb_cfg);
    assert!(
        ftbb.all_live_terminated,
        "the decentralized mechanism must survive the same failure"
    );
    assert_eq!(ftbb.best, tree.optimal());
}

#[test]
fn dib_worker_failure_recovers_by_redo() {
    // Seed chosen so the crashed worker holds unreported transfers at the
    // crash instant (whether it does is a race against its own reports).
    let tree = dib_tree(2301);
    let report = dib_run(&tree, vec![(2, SimTime::from_millis(150))]);
    assert!(report.all_live_terminated);
    assert_eq!(report.best, tree.optimal());
    assert!(
        report.totals.recoveries > 0,
        "redo mechanism must have fired"
    );
}
