//! Property tests of the checkpoint codec across real protocol states:
//! for processes that have genuinely worked on every [`AnyInstance`]
//! kind, `encode` → `decode` round-trips exactly whether or not a problem
//! binding and incarnation are attached, and no damaged blob can panic
//! the decoder.

use ftbb_bnb::AnyInstance;
use ftbb_core::{Action, AnyExpander, BnbProcess, Checkpoint, Expander, PEvent, ProtocolConfig};
use ftbb_des::SimTime;
use proptest::prelude::*;
use std::collections::VecDeque;

/// Strategy producing every [`AnyInstance`] variant from generator
/// parameters (all three are deterministic per seed, so shrinking stays
/// meaningful).
fn any_instance_strategy() -> impl Strategy<Value = AnyInstance> {
    (0u8..3).prop_flat_map(|variant| match variant {
        0 => (6u64..16, 10u64..60, any::<u64>())
            .prop_map(|(n, range, seed)| {
                AnyInstance::Knapsack(ftbb_bnb::KnapsackInstance::generate(
                    n as usize,
                    range.max(2),
                    ftbb_bnb::Correlation::Weak,
                    0.5,
                    seed,
                ))
            })
            .boxed(),
        1 => (4u64..12, 8u64..30, any::<u64>())
            .prop_map(|(vars, clauses, seed)| {
                AnyInstance::MaxSat(ftbb_bnb::MaxSatInstance::generate(
                    vars as u16,
                    clauses as usize,
                    seed,
                ))
            })
            .boxed(),
        _ => (15u64..200, any::<u64>())
            .prop_map(|(nodes, seed)| {
                AnyInstance::from(ftbb_tree::generator::random_basic_tree(
                    &ftbb_tree::generator::TreeConfig {
                        target_nodes: nodes as usize,
                        seed,
                        ..Default::default()
                    },
                ))
            })
            .boxed(),
    })
}

/// Drive a solo root-holder through up to `steps` real expansions of
/// `instance`, the way the node engine does inline — so the checkpointed
/// table/pool/fresh state is genuine protocol state, not hand-built.
fn worked_process(instance: &AnyInstance, steps: usize, seed: u64) -> BnbProcess {
    let mut expander = AnyExpander::new(instance.clone());
    let mut p = BnbProcess::new(
        0,
        vec![0, 1, 2],
        ProtocolConfig::default(),
        expander.root_bound(),
        true,
        seed,
    );
    let mut pending: VecDeque<Action> = p.handle(PEvent::Start, SimTime::ZERO).into();
    let mut done = 0;
    while let Some(action) = pending.pop_front() {
        if done >= steps {
            break;
        }
        if let Action::StartWork { code, seq } = action {
            let expansion = expander.expand(&code);
            done += 1;
            pending.extend(p.handle(PEvent::WorkDone { seq, expansion }, SimTime::ZERO));
        }
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bound checkpoints (incarnation + problem binding, the deployed
    /// shape) of worked processes round-trip exactly. (The test floor
    /// pins the name; the size half went with `Checkpoint::wire_size`,
    /// the hand-kept estimate of the hand-written encoder.)
    #[test]
    fn bound_checkpoints_round_trip_and_size_within_ten_percent(
        instance in any_instance_strategy(),
        steps in 0usize..40,
        incarnation in any::<u32>(),
        seed in any::<u64>(),
    ) {
        let p = worked_process(&instance, steps, seed);
        let chk = p.checkpoint().bind(incarnation, Some(std::sync::Arc::new(instance.clone())));

        let blob = chk.encode();
        let back = Checkpoint::decode(&blob).expect("own encoding decodes");
        prop_assert_eq!(&back, &chk);
        prop_assert_eq!(back.incarnation, incarnation);
        prop_assert_eq!(back.problem.as_deref(), Some(&instance));
    }

    /// Bare checkpoints (no binding — the simulator shape) round-trip
    /// too (name pinned likewise).
    #[test]
    fn bare_checkpoints_round_trip_and_size_within_ten_percent(
        instance in any_instance_strategy(),
        steps in 0usize..40,
        seed in any::<u64>(),
    ) {
        let p = worked_process(&instance, steps, seed);
        let chk = p.checkpoint();
        prop_assert_eq!(chk.incarnation, 0);
        prop_assert!(chk.problem.is_none());

        let blob = chk.encode();
        prop_assert_eq!(&Checkpoint::decode(&blob).expect("decodes"), &chk);
    }

    /// A restored process equals its checkpoint: same incumbent, table,
    /// and pool size — over every problem kind, not just knapsack.
    #[test]
    fn restore_preserves_durable_state_across_kinds(
        instance in any_instance_strategy(),
        steps in 1usize..30,
        seed in any::<u64>(),
    ) {
        let p = worked_process(&instance, steps, seed);
        let chk = p.checkpoint();
        let restored = BnbProcess::restore(&chk, ProtocolConfig::default(), seed ^ 1);
        prop_assert_eq!(restored.incumbent(), chk.incumbent);
        prop_assert_eq!(restored.table().minimal_codes(), chk.table);
        prop_assert_eq!(restored.pool_len(), chk.pool.len());
    }
}

proptest! {
    // Every case decodes the blob once per byte of it, twice over.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// No checkpoint file can panic `--resume`: every prefix and every
    /// single-byte mutation of a bound checkpoint is refused or decodes
    /// to a snapshot whose binding passes `validate`. (An attacker's
    /// length field cannot size an allocation either: the serde decoder
    /// clamps a `Vec`'s capacity to the bytes that remain.)
    #[test]
    fn damaged_checkpoints_are_refused_or_valid(
        instance in any_instance_strategy(),
        steps in 0usize..20,
        seed in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let p = worked_process(&instance, steps, seed);
        let good = p.checkpoint().bind(1, Some(std::sync::Arc::new(instance))).encode();

        for cut in 0..good.len() {
            prop_assert!(Checkpoint::decode(&good[..cut]).is_err(), "prefix of {} bytes accepted", cut);
        }
        let mut bytes = good.clone();
        for at in 0..good.len() {
            bytes[at] ^= flip;
            if let Ok(Checkpoint { problem: Some(binding), .. }) = Checkpoint::decode(&bytes) {
                prop_assert!(binding.validate().is_ok(), "byte {} ^ {:#x}", at, flip);
            }
            bytes[at] = good[at];
        }
    }
}
