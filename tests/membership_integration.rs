//! The membership protocol inside the full system — the extension the paper
//! plans ("we plan to introduce the group membership protocol into our
//! simulations", §7). Processes bootstrap through a gossip server and learn
//! the member set dynamically instead of from a static list.

use ftbb::gossip::MembershipConfig;
use ftbb::prelude::*;
use std::sync::Arc;

fn workload(seed: u64) -> Arc<ftbb::tree::BasicTree> {
    Arc::new(ftbb::tree::random_basic_tree(&ftbb::tree::TreeConfig {
        target_nodes: 401,
        mean_cost: 0.01,
        seed,
        ..Default::default()
    }))
}

fn membership_cfg(n: u32, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::new(n);
    cfg.seed = seed;
    cfg.protocol.report_interval_s = 0.1;
    cfg.protocol.table_gossip_interval_s = 0.5;
    cfg.protocol.lb_timeout_s = 0.05;
    cfg.protocol.recovery_delay_s = 0.25;
    cfg.protocol.recovery_quiet_s = 0.8;
    cfg.protocol.membership = Some(MembershipConfig {
        gossip_interval: SimTime::from_millis(100),
        t_fail: SimTime::from_millis(800),
        t_cleanup: SimTime::from_secs(4),
        ..Default::default()
    });
    // Members discover each other through gossip server 0, so give them a
    // moment of stagger.
    cfg.start_stagger_s = 0.05;
    cfg.sample_interval_s = 0.25;
    cfg
}

#[test]
fn membership_cluster_solves() {
    let tree = workload(3100);
    let report = run_sim(&tree, &membership_cfg(5, 1));
    assert!(report.all_live_terminated);
    assert_eq!(report.best, tree.optimal());
}

#[test]
fn membership_cluster_with_crashes() {
    let tree = workload(3200);
    let mut cfg = membership_cfg(6, 2);
    cfg.failures = vec![
        (2, SimTime::from_millis(600)),
        (4, SimTime::from_millis(900)),
    ];
    let report = run_sim(&tree, &cfg);
    assert!(report.all_live_terminated);
    assert_eq!(report.best, tree.optimal());
}

#[test]
fn gossip_server_crash_after_bootstrap_is_survivable() {
    // The server (process 0) is "an ordinary member" once everyone has
    // joined; its crash afterwards must not matter (§5.2: the guarantee is
    // only that one server is up *for joining*).
    let tree = workload(3400);
    let mut cfg = membership_cfg(5, 4);
    cfg.failures = vec![(0, SimTime::from_millis(700))];
    let report = run_sim(&tree, &cfg);
    assert!(report.all_live_terminated);
    assert_eq!(report.best, tree.optimal());
}

#[test]
fn membership_matches_static_results() {
    // Same workload, static vs. dynamic membership: both find the optimum.
    let tree = workload(3300);
    let with_membership = run_sim(&tree, &membership_cfg(4, 3));
    let mut static_cfg = membership_cfg(4, 3);
    static_cfg.protocol.membership = None;
    let without = run_sim(&tree, &static_cfg);
    assert!(with_membership.all_live_terminated && without.all_live_terminated);
    assert_eq!(with_membership.best, without.best);
    assert_eq!(with_membership.best, tree.optimal());
}
