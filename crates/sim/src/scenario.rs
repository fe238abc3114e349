//! Named experiment scenarios: one per table/figure of the paper (§6.3).
//!
//! Each scenario pins the workload tree, the network, the protocol tuning,
//! and the overhead model, so the rows of `ftbb-paper` (`src/paper.rs` at
//! the workspace root) just sweep the processor counts and check claims.

use crate::driver::SimConfig;
use crate::shared::OverheadModel;
use ftbb_des::SimTime;
use ftbb_tree::{calibrated, BasicTree};
use std::sync::Arc;

/// The Figure 3 workload: ~3,500-node problem, 0.01 s/node, paper network.
pub fn fig3_tree() -> Arc<BasicTree> {
    Arc::new(calibrated::small_3500())
}

/// Simulation config for Figure 3 at `nprocs` processors.
///
/// Timers are scaled to the 0.01 s node granularity: reports flush about
/// every 25 node-times, load-balancing replies time out after 5 node-times.
pub fn fig3_config(nprocs: u32) -> SimConfig {
    let mut cfg = SimConfig::new(nprocs);
    cfg.protocol.report_batch = 16;
    cfg.protocol.report_fanout = 2;
    cfg.protocol.report_interval_s = 0.25;
    cfg.protocol.table_gossip_interval_s = 2.0;
    cfg.protocol.lb_timeout_s = 0.05;
    cfg.protocol.recovery_delay_s = 0.25;
    cfg.protocol.recovery_quiet_s = 1.5;
    cfg.protocol.grant_max = 16;
    cfg.overheads = OverheadModel {
        contract_per_code_s: 150e-6,
        send_busy_factor: 1.0,
        recv_fixed_s: 30e-6,
    };
    cfg.sample_interval_s = 0.25;
    cfg.start_stagger_s = 0.005;
    cfg.seed = 301;
    cfg
}

/// The Table 1 / Figure 4 workload: ~79,600-node problem, 3.47 s/node.
pub fn table1_tree() -> Arc<BasicTree> {
    Arc::new(calibrated::large_79600())
}

/// Simulation config for Table 1 at `nprocs` processors.
///
/// Timer scaling follows the granularity: nodes cost ~3.47 s, so reports
/// flush every ~10 node-times and recovery waits ~10 node-times.
pub fn table1_config(nprocs: u32) -> SimConfig {
    let mut cfg = SimConfig::new(nprocs);
    cfg.protocol.report_batch = 24;
    cfg.protocol.report_fanout = 2;
    cfg.protocol.report_interval_s = 30.0;
    cfg.protocol.table_gossip_interval_s = 300.0;
    cfg.protocol.lb_timeout_s = 4.0;
    cfg.protocol.recovery_delay_s = 8.0;
    cfg.protocol.recovery_quiet_s = 90.0;
    cfg.protocol.grant_max = 24;
    cfg.overheads = OverheadModel {
        contract_per_code_s: 15e-3,
        send_busy_factor: 1.0,
        recv_fixed_s: 1e-3,
    };
    cfg.sample_interval_s = 60.0;
    cfg.start_stagger_s = 0.5;
    cfg.seed = 791;
    cfg
}

/// The Figure 5/6 workload: a tiny problem on 3 processors, traced.
pub fn fig56_tree() -> Arc<BasicTree> {
    Arc::new(calibrated::tiny())
}

/// Simulation config for Figures 5 and 6 (3 processors, tracing on).
pub fn fig56_config() -> SimConfig {
    let mut cfg = SimConfig::new(3);
    cfg.protocol.report_batch = 4;
    cfg.protocol.report_fanout = 2;
    cfg.protocol.report_interval_s = 0.2;
    cfg.protocol.table_gossip_interval_s = 0.5;
    cfg.protocol.lb_timeout_s = 0.1;
    cfg.protocol.recovery_delay_s = 0.2;
    cfg.protocol.recovery_quiet_s = 0.8;
    cfg.trace = true;
    cfg.sample_interval_s = 0.1;
    cfg.seed = 56;
    cfg
}

/// Figure 6: same as Figure 5 plus the 2-of-3 crash at `fraction` of the
/// failure-free execution time `ref_exec`.
pub fn fig6_config(ref_exec: SimTime, fraction: f64) -> SimConfig {
    let mut cfg = fig56_config();
    cfg.failures = crate::failure::fig6_schedule(3, ref_exec, fraction);
    cfg
}

/// Granularity-study configs (§6.3.1): the Figure 3 problem with node costs
/// multiplied by `factor`, protocol timers scaled to match.
pub fn granularity_config(nprocs: u32, factor: f64) -> SimConfig {
    let mut cfg = fig3_config(nprocs);
    cfg.granularity = factor;
    // Deliberately do NOT scale report/gossip intervals: the paper observes
    // that fixed-interval reports waste communication at coarse granularity
    // ("communication increases unnecessarily because work reports are sent
    // at fixed time intervals") — the bench reproduces that effect. Only
    // the failure-related patience scales.
    cfg.protocol.lb_timeout_s *= factor.max(1.0);
    cfg.protocol.recovery_delay_s *= factor.max(1.0);
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_tree_matches_paper_scale() {
        let t = fig3_tree();
        assert!((3_000..=5_000).contains(&t.len()), "{} nodes", t.len());
        let mean = t.stats().mean_cost;
        assert!((mean - 0.01).abs() / 0.01 < 0.2, "mean {mean}");
    }

    #[test]
    fn fig56_runs_quickly() {
        let t = fig56_tree();
        assert!(t.len() < 200);
    }

    #[test]
    fn granularity_scales_patience_not_reports() {
        let base = fig3_config(4);
        let g = granularity_config(4, 10.0);
        assert_eq!(g.granularity, 10.0);
        assert_eq!(
            g.protocol.report_interval_s,
            base.protocol.report_interval_s
        );
        assert!(g.protocol.lb_timeout_s > base.protocol.lb_timeout_s);
    }
}
