//! Property tests of the path-keeping [`ProblemExpander`]: over every
//! [`AnyInstance`] kind it returns, bit for bit, the [`Expansion`] a
//! from-root [`BranchBound::rebuild`] gives — whatever order the codes
//! come in: the order a process issues them, shuffled, or with jumps into
//! other subtrees and back to the root (the codes grants, recoveries and
//! restores bring). A foreign code mid-sequence still panics with the
//! message it always had, and the valid codes after it still expand
//! correctly.
//!
//! Its unit explorer, [`Expander::explore`], is the sequential engine cut
//! into pieces: driven to completion from the root with random budgets
//! over a depth-first pool of frontiers and a table of done codes, it
//! finds the depth-first engine's optimum with the engine's expansions;
//! each unit equals a plain stack walk over the reference expansions
//! ([`reference_unit`]), and its done and frontier codes tile its code's
//! subtree exactly.

use ftbb_bnb::{solve, AnyInstance, BranchBound, Pool, PoolEntry, SolveConfig};
use ftbb_core::{
    Action, AnyExpander, BnbProcess, ChildPair, Expander, Expansion, PEvent, ProtocolConfig,
    WorkUnit,
};
use ftbb_des::SimTime;
use ftbb_tree::{Code, CodeSet};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Codes issued per case: enough to descend past `Code::INLINE_CAP` and
/// backtrack, few enough that a case stays cheap.
const MAX_ISSUED: usize = 300;

/// Every [`AnyInstance`] variant, sized so depths cross the inline cap.
fn any_instance_strategy() -> impl Strategy<Value = AnyInstance> {
    (0u8..3).prop_flat_map(|variant| match variant {
        0 => (6u64..24, 10u64..60, any::<u64>())
            .prop_map(|(n, range, seed)| {
                AnyInstance::Knapsack(ftbb_bnb::KnapsackInstance::generate(
                    n as usize,
                    range,
                    ftbb_bnb::Correlation::Weak,
                    0.5,
                    seed,
                ))
            })
            .boxed(),
        1 => (4u64..18, 8u64..40, any::<u64>())
            .prop_map(|(vars, clauses, seed)| {
                AnyInstance::MaxSat(ftbb_bnb::MaxSatInstance::generate(
                    vars as u16,
                    clauses as usize,
                    seed,
                ))
            })
            .boxed(),
        _ => (15u64..300, any::<u64>())
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

/// The from-root reference: `rebuild` on every call, as `ProblemExpander`
/// expanded before it kept its path, and each child's bound from `bound`
/// on the child rather than the one `branch` derives with it. `None` for
/// a code that does not replay.
fn reference(problem: &AnyInstance, code: &Code) -> Option<Expansion> {
    let node = problem.rebuild(code)?;
    let branch = problem.branch(&node);
    Some(Expansion {
        cost: problem.cost(&node),
        bound: problem.bound(&node),
        solution: branch.solution,
        children: branch.children.map(|(var, [(_, l), (_, r)])| ChildPair {
            var,
            left_bound: problem.bound(&l),
            right_bound: problem.bound(&r),
        }),
    })
}

/// An expansion with every float as its bits, so equality is bit for bit.
type Bits = (u64, u64, Option<u64>, Option<(u16, u64, u64)>);

fn bits(e: &Expansion) -> Bits {
    (
        e.cost.to_bits(),
        e.bound.to_bits(),
        e.solution.map(f64::to_bits),
        e.children
            .map(|c| (c.var, c.left_bound.to_bits(), c.right_bound.to_bits())),
    )
}

/// The codes a solo root holder issues (`StartWork`), in order, driven by
/// the reference so the order does not depend on the expander under test.
fn issued(problem: &AnyInstance, seed: u64) -> Vec<Code> {
    let root_bound = problem.bound(&problem.root());
    let mut p = BnbProcess::new(
        0,
        vec![0],
        ProtocolConfig::default(),
        root_bound,
        true,
        seed,
    );
    let mut pending: VecDeque<Action> = p.handle(PEvent::Start, SimTime::ZERO).into();
    let mut codes = Vec::new();
    while let Some(action) = pending.pop_front() {
        if codes.len() >= MAX_ISSUED {
            break;
        }
        if let Action::StartWork { code, seq } = action {
            let expansion = reference(problem, &code).expect("issued codes replay");
            codes.push(code);
            pending.extend(p.handle(PEvent::WorkDone { seq, expansion }, SimTime::ZERO));
        }
    }
    codes
}

/// `codes` with a jump after each: to the root, to the code's sibling (a
/// granted subtree), to the sibling of a random ancestor (a complement
/// code a recovery re-solves), or to any issued code (a restore).
fn with_jumps(codes: &[Code], rng: &mut SmallRng) -> Vec<Code> {
    let mut out = Vec::with_capacity(2 * codes.len());
    for code in codes {
        out.push(code.clone());
        let jump = match rng.gen_range(0..4u8) {
            0 => Some(Code::root()),
            1 => code.sibling(),
            2 => {
                let depth = rng.gen_range(0..=code.depth());
                Code::from_pairs(code.pairs().take(depth).collect()).sibling()
            }
            _ => codes.choose(rng).cloned(),
        };
        out.extend(jump);
    }
    out
}

/// A code outside the problem's tree: `code` (which replays) extended by
/// one decision on a variable its node does not branch on.
fn foreign(problem: &AnyInstance, code: &Code) -> Code {
    let var = match reference(problem, code).and_then(|e| e.children) {
        Some(kids) => kids.var.wrapping_add(1),
        None => 0, // a leaf branches on nothing
    };
    let bad = code.child(var, true);
    assert!(reference(problem, &bad).is_none(), "{bad} must be foreign");
    bad
}

/// Expand `codes` in order through one path-keeping expander, each
/// checked bit for bit against the reference. With `foreign_at = (i,
/// bad)`, `bad` is fed just before `codes[i]` and must panic as a foreign
/// code always has.
fn assert_matches_reference(
    problem: &AnyInstance,
    codes: &[Code],
    foreign_at: Option<(usize, Code)>,
) {
    let mut cached = AnyExpander::new(problem.clone());
    for (i, code) in codes.iter().enumerate() {
        if let Some((_, bad)) = foreign_at.as_ref().filter(|(at, _)| *at == i) {
            let err = catch_unwind(AssertUnwindSafe(|| cached.expand(bad)))
                .expect_err("a foreign code must panic");
            let msg = err.downcast_ref::<String>().map_or("", String::as_str);
            assert!(msg.contains("does not replay in this problem"), "{msg}");
        }
        let want = reference(problem, code).expect("sequences hold tree codes only");
        assert_eq!(
            bits(&cached.expand(code)),
            bits(&want),
            "{} code #{i} {code}",
            problem.kind()
        );
    }
}

/// The from-root reference of a work unit: the depth-first engine's loop
/// below `code` over a stack of codes, one [`reference`] expansion per
/// node, stopping before the first expansion past `budget`. The finished
/// subtrees (leaves, eliminated children, pruned entries) are collected in
/// a [`CodeSet`], whose contraction gives the unit's done codes; the stack
/// left over is its frontier. It shares no walk code with
/// [`ProblemExpander`]'s frame-keeping walk.
fn reference_unit(problem: &AnyInstance, code: &Code, mut incumbent: f64, budget: u64) -> WorkUnit {
    let mut unit = WorkUnit::default();
    let mut finished = CodeSet::new();
    let mut stack: Vec<(Code, f64)> = Vec::new();
    let mut next = Some(code.clone());
    while let Some(at) = next.take() {
        let e = reference(problem, &at).expect("units stay inside the tree");
        unit.expanded += 1;
        unit.cost += e.cost;
        if let Some(v) = e.solution.filter(|&v| v < incumbent) {
            incumbent = v;
            unit.solution = Some(v);
        }
        match e.children {
            None => {
                unit.fathomed += 1;
                finished.insert(&at);
            }
            Some(kids) => {
                for (bit, bound) in [(false, kids.left_bound), (true, kids.right_bound)] {
                    let child = at.child(kids.var, bit);
                    if bound >= incumbent {
                        unit.eliminated += 1;
                        finished.insert(&child);
                    } else {
                        stack.push((child, bound));
                    }
                }
            }
        }
        while let Some((top, bound)) = stack.pop() {
            if bound >= incumbent {
                unit.pruned += 1;
                finished.insert(&top);
            } else if unit.expanded < budget {
                next = Some(top);
                break;
            } else {
                stack.push((top, bound));
                break;
            }
        }
    }
    unit.done = finished.minimal_codes();
    unit.done.sort_by_key(Code::depth);
    unit.frontier = stack;
    unit
}

/// `unit`'s done and frontier codes tile the subtree of `code`: all replay
/// below it, none contains another, and together they contract to it. The
/// done codes sit one per open frame, at distinct depths.
fn assert_tiles(problem: &AnyInstance, code: &Code, unit: &WorkUnit) {
    let parts: Vec<&Code> = (unit.done.iter())
        .chain(unit.frontier.iter().map(|(c, _)| c))
        .collect();
    for (i, part) in parts.iter().enumerate() {
        assert!(code.is_prefix_of(part), "{part} lies outside {code}");
        assert!(problem.rebuild(part).is_some(), "{part} does not replay");
        for other in &parts[i + 1..] {
            assert!(!part.is_prefix_of(other) && !other.is_prefix_of(part));
        }
    }
    let mut tiles = CodeSet::new();
    tiles.merge(parts.iter().copied());
    assert_eq!(tiles.minimal_codes(), vec![code.clone()], "lost subtree");
    let mut depths: Vec<usize> = unit.done.iter().map(Code::depth).collect();
    depths.sort_unstable();
    depths.dedup();
    assert_eq!(depths.len(), unit.done.len(), "two done codes in one frame");
    assert!(unit.completions() >= unit.done.len() as u64);
}

/// Drive units from the root to the end of the search, each with a random
/// budget of expansions, as a process does: frontiers into a depth-first
/// pool, done and pruned codes into a table. The total is the depth-first
/// engine's solve. With `foreign_at = Some(k)`, a foreign code is explored
/// before the `k`-th unit and must panic as it always has.
fn check_units(problem: &AnyInstance, seed: u64, foreign_at: Option<usize>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut fast = AnyExpander::new(problem.clone());
    let mut pool = Pool::new(Default::default());
    let mut table = CodeSet::new();
    let (mut incumbent, mut expanded, mut units) = (f64::INFINITY, 0, 0);
    let mut next = Some(Code::root());
    while let Some(code) = next {
        if foreign_at == Some(units) {
            let bad = foreign(problem, &code);
            let err = catch_unwind(AssertUnwindSafe(|| {
                fast.explore(&bad, incumbent, &mut |_, _| true)
            }))
            .expect_err("a foreign code must panic");
            let msg = err.downcast_ref::<String>().map_or("", String::as_str);
            assert!(msg.contains("does not replay in this problem"), "{msg}");
        }
        let budget = 1u64 << rng.gen_range(0..10);
        let unit = fast.explore(&code, incumbent, &mut |n, _| n < budget);
        let want = reference_unit(problem, &code, incumbent, budget);
        assert_eq!(unit, want, "{} unit #{units} at {code}", problem.kind());
        assert!(unit.expanded <= budget);
        assert_tiles(problem, &code, &unit);
        units += 1;
        expanded += unit.expanded;
        incumbent = unit.solution.map_or(incumbent, |v| v.min(incumbent));
        for done in &unit.done {
            assert!(!table.contains(done), "{done} completed twice");
            table.insert(done);
        }
        for (code, bound) in unit.frontier {
            let depth = code.depth() as u32;
            pool.push(PoolEntry {
                bound,
                depth,
                node: code,
            });
        }
        let mut pruned = Vec::new();
        next = pool.pop_improving(incumbent, &mut pruned).map(|e| e.node);
        for entry in pruned {
            table.insert(&entry.node);
        }
    }
    assert!(table.is_root_done());
    let engine = solve(problem, &SolveConfig::default());
    assert_eq!(
        incumbent.to_bits(),
        engine.best.unwrap_or(f64::INFINITY).to_bits()
    );
    assert_eq!(
        expanded,
        engine.stats.expanded,
        "{} expansions",
        problem.kind()
    );
}

/// The whole property for one instance and seed.
fn check(problem: &AnyInstance, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let codes = issued(problem, seed);
    assert_matches_reference(problem, &codes, None);

    let mut shuffled = codes.clone();
    shuffled.shuffle(&mut rng);
    assert_matches_reference(problem, &shuffled, None);

    let jumps = with_jumps(&codes, &mut rng);
    assert_matches_reference(problem, &jumps, None);

    let bad = foreign(problem, codes.choose(&mut rng).expect("the root is issued"));
    let at = rng.gen_range(0..jumps.len());
    assert_matches_reference(problem, &jumps, Some((at, bad)));

    check_units(problem, rng.gen(), None);
    check_units(problem, rng.gen(), Some(rng.gen_range(0..3)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The path-keeping expander is the reference expander, and its unit
    /// explorer is the depth-first engine.
    #[test]
    fn cached_expander_is_the_reference_expander(
        instance in any_instance_strategy(),
        seed in any::<u64>(),
    ) {
        check(&instance, seed);
    }
}

/// The deep sweep, 4 096 cases (CI runs it in release). Written out
/// because the `proptest!` shim does not carry `#[ignore]` through.
#[test]
#[ignore = "deep sweep: cargo test --release -p ftbb-core --test expander_props -- --ignored"]
fn cached_expander_is_the_reference_expander_deep() {
    let config = ProptestConfig::with_cases(4096);
    let strategy = (any_instance_strategy(), any::<u64>());
    for case in 0..config.cases {
        let mut rng = proptest::rng_for("cached_expander_is_the_reference_expander_deep", case);
        let (instance, seed) = strategy.generate(&mut rng);
        check(&instance, seed);
    }
}
