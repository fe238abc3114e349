//! Property-based end-to-end test: for *arbitrary* crash schedules leaving
//! at least one process alive, and arbitrary loss rates up to 25%, the
//! simulated system terminates with the sequential optimum. This is the
//! paper's fault-tolerance theorem, fuzzed.

use ftbb::bnb::{solve, BasicTreeProblem, SolveConfig};
use ftbb::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    // Each case is a full cluster simulation; keep the count moderate.
    #![proptest_config(ProptestConfig {
        cases: 24,
        max_shrink_iters: 0,
        ..ProptestConfig::default()
    })]

    #[test]
    fn any_crash_schedule_preserves_the_answer(
        tree_seed in 0u64..1000,
        sim_seed in any::<u64>(),
        nprocs in 2u32..7,
        crash_bits in proptest::collection::vec(any::<bool>(), 8),
        crash_times_ms in proptest::collection::vec(50u64..3000, 8),
        loss_pct in 0u8..25,
    ) {
        let tree = Arc::new(ftbb::tree::random_basic_tree(&ftbb::tree::TreeConfig {
            target_nodes: 301,
            mean_cost: 0.01,
            seed: tree_seed,
            ..Default::default()
        }));
        let reference = solve(
            &BasicTreeProblem::new(Arc::clone(&tree)),
            &SolveConfig::default(),
        );

        let mut cfg = SimConfig::new(nprocs);
        cfg.seed = sim_seed;
        cfg.protocol.report_interval_s = 0.1;
        cfg.protocol.table_gossip_interval_s = 0.5;
        cfg.protocol.lb_timeout_s = 0.05;
        cfg.protocol.recovery_delay_s = 0.2;
        cfg.protocol.recovery_quiet_s = 0.6;
        cfg.sample_interval_s = 0.5;
        cfg.network.loss = LossModel::with_probability(loss_pct as f64 / 100.0);

        // Crash any subset of processes — except one designated survivor.
        let survivor = nprocs - 1;
        cfg.failures = (0..nprocs)
            .filter(|&p| p != survivor && crash_bits[p as usize % 8])
            .map(|p| (p, SimTime::from_millis(crash_times_ms[p as usize % 8])))
            .collect();

        let report = run_sim(&tree, &cfg);
        prop_assert!(report.all_live_terminated, "survivors failed to terminate");
        prop_assert_eq!(report.best, reference.best, "wrong optimum");
    }
}
