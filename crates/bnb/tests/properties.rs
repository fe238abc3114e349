//! Property-based tests of the sequential B&B engine against exhaustive
//! oracles — the engine is the workspace-wide correctness reference, so it
//! gets the strongest scrutiny.

use ftbb_bnb::{
    record_basic_tree, solve, BasicTreeProblem, Correlation, KnapsackInstance, MaxSatInstance,
    RecordLimits, SolveConfig,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Knapsack: B&B equals brute force for every correlation structure.
    #[test]
    fn knapsack_matches_brute_force(
        n in 4usize..13,
        range in 5u64..60,
        corr in 0u8..4,
        frac in 0.2f64..0.8,
        seed in any::<u64>(),
    ) {
        let correlation = match corr {
            0 => Correlation::Uncorrelated,
            1 => Correlation::Weak,
            2 => Correlation::Strong,
            _ => Correlation::SubsetSum,
        };
        let k = KnapsackInstance::generate(n, range, correlation, frac, seed);
        let expect = k.brute_force() as f64;
        let r = solve(&k, &SolveConfig::default());
        prop_assert_eq!(r.best.map(|v| -v), Some(expect));
    }

    /// MAX-SAT: B&B equals brute force.
    #[test]
    fn maxsat_matches_brute_force(
        vars in 3u16..10,
        clauses in 4usize..24,
        seed in any::<u64>(),
    ) {
        let inst = MaxSatInstance::generate(vars, clauses, seed);
        let expect = inst.brute_force();
        let r = solve(&inst, &SolveConfig::default());
        let got = r.best.expect("some assignment always exists");
        prop_assert!((got - expect).abs() < 1e-9, "got {got}, expected {expect}");
    }

    /// A recorded basic tree's optimum equals the live problem's optimum,
    /// and replaying it expands no more nodes than the recording holds.
    #[test]
    fn recording_preserves_optimum(n in 4usize..11, seed in any::<u64>()) {
        let k = KnapsackInstance::generate(n, 30, Correlation::Weak, 0.5, seed);
        let tree = record_basic_tree(&k, RecordLimits::default()).unwrap();
        let direct = solve(&k, &SolveConfig::default());
        prop_assert_eq!(tree.optimal(), direct.best);
        let replay = solve(&BasicTreeProblem::new(tree.clone()), &SolveConfig::default());
        prop_assert_eq!(replay.best, direct.best);
        prop_assert!(replay.stats.expanded as usize <= tree.len());
    }

    /// Warm starts never change the optimum when the initial incumbent is
    /// above it, and never report a solution when it is below it.
    #[test]
    fn warm_start_is_safe(n in 4usize..11, seed in any::<u64>(), offset in -0.4f64..0.4) {
        let k = KnapsackInstance::generate(n, 30, Correlation::Uncorrelated, 0.5, seed);
        let cold = solve(&k, &SolveConfig::default());
        let optimum = cold.best.expect("knapsack always has the empty solution");
        let warm_value = optimum + offset.abs() + 0.5; // strictly above optimum
        let warm = solve(&k, &SolveConfig {
            initial_incumbent: Some(warm_value),
            ..Default::default()
        });
        prop_assert_eq!(warm.best, Some(optimum));
        let blocked = solve(&k, &SolveConfig {
            initial_incumbent: Some(optimum - 0.5),
            ..Default::default()
        });
        prop_assert_eq!(blocked.best, None);
    }
}
