//! The DES actor wrapping one protocol process — the only one: the
//! paper's protocol and both baselines run in it.
//!
//! Responsibilities: run the expander for `StartWork` actions, transmit
//! messages through the network model, and charge process time to the
//! paper's cost categories (B&B, communication, list contraction, load
//! balancing, redundant work; idle is derived).
//!
//! The actor models a single-threaded machine with the paper's polling loop
//! ("each process, after it has solved a B&B subproblem, checks to see
//! whether any messages are pending", §6.2): a `busy_until` watermark
//! serializes expansion work and message processing.

use crate::shared::Shared;
use ftbb_bnb::BasicTreeProblem;
use ftbb_core::{Action, Event, Expander, Expansion, ProblemExpander, Protocol, TimeCategory};
use ftbb_des::{Ctx, ProcId, Process, SimTime};
use ftbb_tree::Code;
use std::cell::RefCell;
use std::rc::Rc;

/// Per-process time-category accounting (the Figure 3 stack).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimeBreakdown {
    /// Useful B&B expansion time.
    pub bb: SimTime,
    /// Fault-tolerance communication (work reports, table gossip,
    /// membership) — sender side.
    pub comm: SimTime,
    /// Load-balancing time (requests, grants, denials, and their handling).
    pub lb: SimTime,
    /// List-contraction time (merging received reports).
    pub contract: SimTime,
    /// Redundant expansion time (re-doing work another process already did,
    /// or work discarded after a redundancy interrupt).
    pub redundant: SimTime,
}

impl TimeBreakdown {
    /// Sum of all busy categories.
    pub fn busy(&self) -> SimTime {
        self.bb + self.comm + self.lb + self.contract + self.redundant
    }
}

/// Timers used by the actor.
#[derive(Debug, Clone)]
pub enum SimTimer<T> {
    /// A protocol timer.
    Core(T),
    /// A scheduled expansion completion.
    WorkDone {
        /// Work sequence (stale completions are interrupted work).
        seq: u64,
        /// The expanded code (for the redundancy oracle).
        code: Code,
        /// The precomputed expansion.
        expansion: Expansion,
        /// Its charged virtual cost.
        cost: SimTime,
    },
    /// Periodic storage sampling.
    Sample,
}

/// The engine context of a [`SimProcess`] running `P`.
type SimCtx<'a, P> = Ctx<'a, <P as Protocol>::Msg, SimTimer<<P as Protocol>::Timer>>;

/// One simulated machine.
pub struct SimProcess<P: Protocol> {
    core: P,
    /// The deployed expander, replaying the run's recorded tree.
    expander: ProblemExpander<BasicTreeProblem>,
    shared: Rc<RefCell<Shared>>,
    /// Relative speed (paper §4: heterogeneity); higher = faster.
    speed: f64,
    busy_until: SimTime,
    sample_interval: SimTime,
    times: TimeBreakdown,
    last_state: &'static str,
    /// The action buffer every step reuses.
    out: Vec<Action<P::Msg, P::Timer>>,
}

impl<P: Protocol> SimProcess<P> {
    /// Build an actor.
    pub fn new(
        core: P,
        expander: ProblemExpander<BasicTreeProblem>,
        shared: Rc<RefCell<Shared>>,
        speed: f64,
        sample_interval: SimTime,
    ) -> Self {
        assert!(speed > 0.0);
        SimProcess {
            core,
            expander,
            shared,
            speed,
            busy_until: SimTime::ZERO,
            sample_interval,
            times: TimeBreakdown::default(),
            last_state: "",
            out: Vec::new(),
        }
    }

    /// The protocol process (post-run inspection).
    pub fn core(&self) -> &P {
        &self.core
    }

    /// Time-category totals.
    pub fn times(&self) -> &TimeBreakdown {
        &self.times
    }

    fn charge(&mut self, now: SimTime, cost: SimTime, bucket: Bucket) {
        self.busy_until = self.busy_until.max(now) + cost;
        match bucket {
            Bucket::Comm => self.times.comm += cost,
            Bucket::Lb => self.times.lb += cost,
            Bucket::Contract => self.times.contract += cost,
        }
    }

    fn trace_if_changed(&mut self, ctx: &mut SimCtx<'_, P>, state: &'static str) {
        if self.last_state != state {
            self.last_state = state;
            ctx.trace_state(state);
        }
    }

    /// Execute the actions the last step left in the buffer.
    fn apply_actions(&mut self, ctx: &mut SimCtx<'_, P>) {
        let now = ctx.now();
        let mut actions = std::mem::take(&mut self.out);
        for action in actions.drain(..) {
            match action {
                Action::Send { to, msg } => {
                    let bytes = P::wire_size(&msg);
                    // Load balancing has a bucket of its own; any other
                    // category is communication for the sender (and
                    // contraction for the receiver, see `on_message`).
                    let bucket = match P::category(&msg) {
                        TimeCategory::LoadBalance => Bucket::Lb,
                        _ => Bucket::Comm,
                    };
                    let (mean, factor) = {
                        let sh = self.shared.borrow();
                        (sh.net.mean_latency(bytes), sh.overheads.send_busy_factor)
                    };
                    self.charge(now, mean.scale(factor), bucket);
                    let verdict = self.shared.borrow_mut().net.transmit(
                        ctx.pid(),
                        ProcId(to),
                        bytes,
                        now,
                        ctx.rng(),
                    );
                    match verdict {
                        Ok(delay) => ctx.send(ProcId(to), delay, msg),
                        Err(_) => ctx.send_lost(ProcId(to), msg),
                    }
                }
                Action::StartWork { code, seq } => {
                    let expansion = self.expander.expand(&code);
                    let cost = SimTime::from_secs_f64(expansion.cost / self.speed);
                    let start = self.busy_until.max(now);
                    self.busy_until = start + cost;
                    ctx.set_timer(
                        self.busy_until - now,
                        SimTimer::WorkDone {
                            seq,
                            code,
                            expansion,
                            cost,
                        },
                    );
                    self.trace_if_changed(ctx, "bb");
                }
                Action::SetTimer { delay_s, timer } => {
                    ctx.set_timer(SimTime::from_secs_f64(delay_s), SimTimer::Core(timer));
                }
                Action::Halt => {
                    self.shared.borrow_mut().record_halt(ctx.pid().index(), now);
                    self.trace_if_changed(ctx, "done");
                    ctx.halt();
                }
            }
        }
        if !self.core.is_terminated() {
            let state = if self.core.is_working() { "bb" } else { "idle" };
            self.trace_if_changed(ctx, state);
        }
        self.out = actions;
    }
}

enum Bucket {
    Comm,
    Lb,
    Contract,
}

impl<P: Protocol> Process for SimProcess<P> {
    type Msg = P::Msg;
    type Timer = SimTimer<P::Timer>;

    fn on_start(&mut self, ctx: &mut SimCtx<'_, P>) {
        self.trace_if_changed(ctx, "idle");
        if self.core.storage_snapshot().is_some() {
            ctx.set_timer(self.sample_interval, SimTimer::Sample);
        }
        self.core.step(Event::Start, ctx.now(), &mut self.out);
        self.apply_actions(ctx);
    }

    fn on_message(&mut self, ctx: &mut SimCtx<'_, P>, from: ProcId, msg: P::Msg) {
        let now = ctx.now();
        let category = P::category(&msg);
        let merged_before = self.core.metrics().merge_codes_processed;
        self.core
            .step(Event::Recv { from: from.0, msg }, now, &mut self.out);
        let merged = self.core.metrics().merge_codes_processed - merged_before;
        let (recv_fixed, per_code) = {
            let sh = self.shared.borrow();
            (sh.overheads.recv_fixed_s, sh.overheads.contract_per_code_s)
        };
        let cost = SimTime::from_secs_f64(recv_fixed + per_code * merged as f64);
        let bucket = match category {
            TimeCategory::LoadBalance => Bucket::Lb,
            _ => Bucket::Contract,
        };
        self.charge(now, cost, bucket);
        self.apply_actions(ctx);
    }

    fn on_timer(&mut self, ctx: &mut SimCtx<'_, P>, timer: SimTimer<P::Timer>) {
        let now = ctx.now();
        match timer {
            SimTimer::Core(t) => {
                self.core.step(Event::Timer(t), now, &mut self.out);
                self.apply_actions(ctx);
            }
            SimTimer::WorkDone {
                seq,
                code,
                expansion,
                cost,
            } => {
                let expanded_before = self.core.metrics().expanded;
                self.core
                    .step(Event::WorkDone { seq, expansion }, now, &mut self.out);
                let consumed = self.core.metrics().expanded > expanded_before;
                if consumed {
                    let redundant = self.shared.borrow_mut().record_expansion(code);
                    if redundant {
                        self.times.redundant += cost;
                    } else {
                        self.times.bb += cost;
                    }
                } else {
                    // Interrupted (stale) work: the time was spent for nothing.
                    self.times.redundant += cost;
                }
                self.apply_actions(ctx);
            }
            SimTimer::Sample => {
                if let Some((codes, aux)) = self.core.storage_snapshot() {
                    self.shared
                        .borrow_mut()
                        .sample_storage(ctx.pid().index(), codes, aux);
                    ctx.set_timer(self.sample_interval, SimTimer::Sample);
                }
            }
        }
    }

    fn on_kill(&mut self, ctx: &mut SimCtx<'_, P>) {
        self.shared
            .borrow_mut()
            .record_crash(ctx.pid().index(), ctx.now());
    }
}
