//! Property-based tests of the event queue and engine determinism — the
//! foundation of every reproducible experiment in the workspace.

use ftbb_des::{Ctx, Engine, Event, EventKind, EventQueue, ProcId, Process, RunLimits, SimTime};
use proptest::prelude::*;
use std::collections::BTreeSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Pushes and pops interleaved, each pop checked against a model
    /// ordered by `(time, push order)`: the earliest event pops, and
    /// equal-time events pop in insertion order. Pops between pushes
    /// free slab slots that later pushes reuse, so a slot mix-up shows as
    /// a wrong event.
    #[test]
    fn queue_is_a_stable_priority_queue(
        ops in proptest::collection::vec((0u64..50, 0u8..3), 1..300),
    ) {
        let mut q: EventQueue<usize, ()> = EventQueue::new();
        // The pending events' `(time, op index)`: the index grows with
        // every push, so the set's order is the pop order.
        let mut model: BTreeSet<(u64, usize)> = BTreeSet::new();
        let check_pop = |q: &mut EventQueue<usize, ()>, model: &mut BTreeSet<(u64, usize)>| {
            let expected = model.pop_first();
            let got = q.pop().map(|ev| match ev.kind {
                EventKind::Message { msg, .. } => (ev.time.as_nanos(), msg),
                _ => unreachable!(),
            });
            assert_eq!(got, expected);
            assert_eq!(q.len(), model.len());
        };
        // One op in three pops; the rest push at a time drawn from a
        // narrow range, so ties are common.
        for (i, &(t, op)) in ops.iter().enumerate() {
            if op == 0 {
                check_pop(&mut q, &mut model);
            } else {
                q.push(Event {
                    time: SimTime::from_nanos(t),
                    target: ProcId(0),
                    kind: EventKind::Message { from: ProcId(0), msg: i },
                });
                model.insert((t, i));
            }
            let earliest = model.first().map(|&(t, _)| SimTime::from_nanos(t));
            prop_assert_eq!(q.peek_time(), earliest);
        }
        while !model.is_empty() {
            check_pop(&mut q, &mut model);
        }
        prop_assert!(q.pop().is_none());
    }
}

/// A process that spreads tokens pseudo-randomly and logs receipt order.
struct Spreader {
    n: u32,
    budget: u32,
    log: Vec<(u64, u32)>,
}

impl Process for Spreader {
    type Msg = u32;
    type Timer = ();

    fn on_start(&mut self, ctx: &mut Ctx<'_, u32, ()>) {
        if ctx.pid() == ProcId(0) {
            ctx.send(ProcId(1 % self.n), SimTime::from_micros(5), 0);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, u32, ()>, _from: ProcId, token: u32) {
        self.log.push((ctx.now().as_nanos(), token));
        if self.budget > 0 {
            self.budget -= 1;
            use rand::Rng;
            let target = ProcId(ctx.rng().gen_range(0..self.n));
            let delay = SimTime::from_micros(ctx.rng().gen_range(1..50));
            ctx.send(target, delay, token + 1);
        }
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<'_, u32, ()>, _t: ()) {}
}

fn spread_run(seed: u64, n: u32) -> Vec<Vec<(u64, u32)>> {
    let mut eng = Engine::new(seed);
    for _ in 0..n {
        eng.add_process(
            Spreader {
                n,
                budget: 200,
                log: Vec::new(),
            },
            SimTime::ZERO,
        );
    }
    eng.run(RunLimits::max_events(100_000));
    (0..n).map(|i| eng.process(ProcId(i)).log.clone()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Two runs with the same seed produce bit-identical histories; a
    /// different seed (almost surely) diverges.
    #[test]
    fn engine_replays_exactly(seed in any::<u64>(), n in 2u32..6) {
        let a = spread_run(seed, n);
        let b = spread_run(seed, n);
        prop_assert_eq!(&a, &b);
        let c = spread_run(seed.wrapping_add(1), n);
        // Different seeds *may* coincide in principle; only check they ran.
        prop_assert!(c.iter().map(|l| l.len()).sum::<usize>() > 0);
    }
}
