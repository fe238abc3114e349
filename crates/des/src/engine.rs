//! The sequential discrete-event engine.
//!
//! Semantics follow Parsec's deterministic sequential mode: a global virtual
//! clock, a pending-event set ordered by `(time, schedule order)`, and
//! processes that exchange timestamped messages. Crashed processes silently
//! drop all subsequent events (fail-stop Crash model, paper §4).

use crate::event::{Event, EventKind, ProcId};
use crate::process::{Ctx, Effect, Process};
use crate::queue::EventQueue;
use crate::time::SimTime;
use crate::trace::Tracer;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Statistics for a completed run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Virtual time at which the last event was processed.
    pub end_time: SimTime,
    /// Number of events dispatched to live processes.
    pub events_dispatched: u64,
    /// Events dropped because their target had crashed or halted.
    pub events_dropped: u64,
    /// Messages lost in transit (explicit `send_lost`).
    pub messages_lost: u64,
    /// True if the run stopped because the event limit was hit.
    pub hit_event_limit: bool,
    /// True if the run stopped because the time horizon was hit.
    pub hit_time_limit: bool,
}

enum SlotState {
    Live,
    Crashed,
    Halted,
}

struct Slot<P> {
    proc: Option<P>,
    state: SlotState,
}

/// The discrete-event engine, generic over the process type.
pub struct Engine<P: Process> {
    slots: Vec<Slot<P>>,
    queue: EventQueue<P::Msg, P::Timer>,
    now: SimTime,
    rng: SmallRng,
    trace: Tracer,
    stats: RunStats,
    effects_buf: Vec<Effect<P::Msg, P::Timer>>,
}

impl<P: Process> Engine<P> {
    /// Create an engine with the given RNG seed. Identical seeds and process
    /// sets replay identically.
    pub fn new(seed: u64) -> Self {
        Engine {
            slots: Vec::new(),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            rng: SmallRng::seed_from_u64(seed),
            trace: Tracer::disabled(),
            stats: RunStats::default(),
            effects_buf: Vec::new(),
        }
    }

    /// Enable execution-profile tracing (state intervals).
    pub fn enable_trace(&mut self) {
        self.trace = Tracer::enabled();
    }

    /// Add a process; returns its id. Its `on_start` runs at `start_at`.
    pub fn add_process(&mut self, proc: P, start_at: SimTime) -> ProcId {
        let pid = ProcId(self.slots.len() as u32);
        self.slots.push(Slot {
            proc: Some(proc),
            state: SlotState::Live,
        });
        self.queue.push(Event {
            time: start_at,
            target: pid,
            kind: EventKind::Start,
        });
        pid
    }

    /// Schedule a fail-stop crash of `pid` at `at`.
    pub fn schedule_crash(&mut self, pid: ProcId, at: SimTime) {
        self.queue.push(Event {
            time: at,
            target: pid,
            kind: EventKind::Kill,
        });
    }

    /// Inject a message from outside the process set (e.g. a test driver).
    pub fn inject_message(&mut self, from: ProcId, to: ProcId, at: SimTime, msg: P::Msg) {
        self.queue.push(Event {
            time: at,
            target: to,
            kind: EventKind::Message { from, msg },
        });
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Is the process still live (not crashed, not halted)?
    pub fn is_live(&self, pid: ProcId) -> bool {
        matches!(self.slots[pid.index()].state, SlotState::Live)
    }

    /// Immutable access to a process's state (post-run inspection).
    pub fn process(&self, pid: ProcId) -> &P {
        self.slots[pid.index()]
            .proc
            .as_ref()
            .expect("process is being dispatched")
    }

    /// The tracer (read after run to build timelines).
    pub fn tracer(&self) -> &Tracer {
        &self.trace
    }

    /// Run until the event queue is empty or `limits` stop the run.
    pub fn run(&mut self, limits: RunLimits) -> RunStats {
        while let Some(next_time) = self.queue.peek_time() {
            if let Some(horizon) = limits.time_horizon {
                if next_time > horizon {
                    self.stats.hit_time_limit = true;
                    break;
                }
            }
            if let Some(max_events) = limits.max_events {
                if self.stats.events_dispatched >= max_events {
                    self.stats.hit_event_limit = true;
                    break;
                }
            }
            let event = self.queue.pop().expect("peeked");
            debug_assert!(event.time >= self.now, "time must be monotone");
            self.now = event.time;
            self.dispatch(event);
        }
        self.stats.end_time = self.now;
        self.stats.clone()
    }

    fn dispatch(&mut self, event: Event<P::Msg, P::Timer>) {
        let idx = event.target.index();
        assert!(idx < self.slots.len(), "event for unknown process {idx}");

        match event.kind {
            EventKind::Kill => {
                if matches!(self.slots[idx].state, SlotState::Live) {
                    // Run the crash hook, then drop all future events.
                    self.with_proc(event.target, |proc, ctx| proc.on_kill(ctx));
                    self.slots[idx].state = SlotState::Crashed;
                    self.trace.record(self.now, event.target, "crashed");
                }
                return;
            }
            _ => {
                if !matches!(self.slots[idx].state, SlotState::Live) {
                    self.stats.events_dropped += 1;
                    return;
                }
            }
        }

        self.stats.events_dispatched += 1;
        let target = event.target;
        let halted = match event.kind {
            EventKind::Start => self.with_proc(target, |proc, ctx| proc.on_start(ctx)),
            EventKind::Message { from, msg } => {
                self.with_proc(target, |proc, ctx| proc.on_message(ctx, from, msg))
            }
            EventKind::Timer(t) => self.with_proc(target, |proc, ctx| proc.on_timer(ctx, t)),
            EventKind::Kill => unreachable!("handled above"),
        };
        if halted {
            self.slots[target.index()].state = SlotState::Halted;
        }
    }

    /// Temporarily take the process out of its slot, run `f` with a fresh
    /// effect context, then apply the effects. Returns true if the process
    /// requested halt.
    fn with_proc<F>(&mut self, pid: ProcId, f: F) -> bool
    where
        F: FnOnce(&mut P, &mut Ctx<'_, P::Msg, P::Timer>),
    {
        let mut proc = self.slots[pid.index()]
            .proc
            .take()
            .expect("re-entrant dispatch");
        debug_assert!(self.effects_buf.is_empty());
        let mut effects = std::mem::take(&mut self.effects_buf);
        {
            let mut ctx = Ctx {
                now: self.now,
                pid,
                effects: &mut effects,
                rng: &mut self.rng,
                trace: &mut self.trace,
            };
            f(&mut proc, &mut ctx);
        }
        self.slots[pid.index()].proc = Some(proc);

        let mut halted = false;
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { to, delay, msg } => match delay {
                    Some(d) => self.queue.push(Event {
                        time: self.now.saturating_add(d),
                        target: to,
                        kind: EventKind::Message { from: pid, msg },
                    }),
                    None => self.stats.messages_lost += 1,
                },
                Effect::Timer { delay, timer } => self.queue.push(Event {
                    time: self.now.saturating_add(delay),
                    target: pid,
                    kind: EventKind::Timer(timer),
                }),
                Effect::Halt => halted = true,
            }
        }
        self.effects_buf = effects;
        halted
    }
}

/// Stop conditions for [`Engine::run`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RunLimits {
    /// Do not process events scheduled after this time.
    pub time_horizon: Option<SimTime>,
    /// Dispatch at most this many events.
    pub max_events: Option<u64>,
}

impl RunLimits {
    /// No limits: run to quiescence.
    pub fn none() -> Self {
        RunLimits::default()
    }

    /// Limit by virtual-time horizon.
    pub fn until(t: SimTime) -> Self {
        RunLimits {
            time_horizon: Some(t),
            max_events: None,
        }
    }

    /// Limit by event count (runaway-protocol guard in tests).
    pub fn max_events(n: u64) -> Self {
        RunLimits {
            time_horizon: None,
            max_events: Some(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ping-pong process: replies to every message until `limit` exchanges.
    struct PingPong {
        peer: Option<ProcId>,
        count: u32,
        limit: u32,
        log: Vec<(SimTime, u32)>,
    }

    impl Process for PingPong {
        type Msg = u32;
        type Timer = ();

        fn on_start(&mut self, ctx: &mut Ctx<'_, u32, ()>) {
            if let Some(peer) = self.peer {
                ctx.send(peer, SimTime::from_millis(1), 0);
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, u32, ()>, from: ProcId, msg: u32) {
            self.log.push((ctx.now(), msg));
            self.count += 1;
            if msg + 1 < self.limit {
                ctx.send(from, SimTime::from_millis(1), msg + 1);
            } else {
                ctx.halt();
            }
        }

        fn on_timer(&mut self, _ctx: &mut Ctx<'_, u32, ()>, _t: ()) {}
    }

    fn pingpong_pair(limit: u32) -> (Engine<PingPong>, ProcId, ProcId) {
        let mut eng = Engine::new(7);
        let a = eng.add_process(
            PingPong {
                peer: Some(ProcId(1)),
                count: 0,
                limit,
                log: vec![],
            },
            SimTime::ZERO,
        );
        let b = eng.add_process(
            PingPong {
                peer: None,
                count: 0,
                limit,
                log: vec![],
            },
            SimTime::ZERO,
        );
        (eng, a, b)
    }

    #[test]
    fn ping_pong_runs_to_completion() {
        let (mut eng, a, b) = pingpong_pair(10);
        let stats = eng.run(RunLimits::none());
        assert_eq!(eng.process(a).count + eng.process(b).count, 10);
        // 10 messages, 1ms apart.
        assert_eq!(stats.end_time, SimTime::from_millis(10));
        assert!(!stats.hit_event_limit && !stats.hit_time_limit);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let (mut eng, a, _) = pingpong_pair(50);
            eng.run(RunLimits::none());
            eng.process(a).log.clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn crash_drops_future_events() {
        let (mut eng, a, b) = pingpong_pair(1000);
        eng.schedule_crash(b, SimTime::from_millis(5));
        let stats = eng.run(RunLimits::none());
        assert!(!eng.is_live(b));
        assert!(eng.is_live(a));
        assert!(stats.events_dropped > 0);
        // B received messages only up to t=5ms.
        assert!(eng.process(b).count <= 5);
    }

    #[test]
    fn event_limit_stops_run() {
        let (mut eng, _, _) = pingpong_pair(1_000_000);
        let stats = eng.run(RunLimits::max_events(100));
        assert!(stats.hit_event_limit);
        assert!(stats.events_dispatched <= 100);
    }

    #[test]
    fn time_horizon_stops_run() {
        let (mut eng, _, _) = pingpong_pair(1_000_000);
        let stats = eng.run(RunLimits::until(SimTime::from_millis(20)));
        assert!(stats.hit_time_limit);
        assert!(stats.end_time <= SimTime::from_millis(20));
    }

    #[test]
    fn lost_messages_counted() {
        struct Loser;
        impl Process for Loser {
            type Msg = ();
            type Timer = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, (), ()>) {
                ctx.send_lost(ctx.pid(), ());
                ctx.halt();
            }
            fn on_message(&mut self, _: &mut Ctx<'_, (), ()>, _: ProcId, _: ()) {
                panic!("lost message must not arrive");
            }
            fn on_timer(&mut self, _: &mut Ctx<'_, (), ()>, _: ()) {}
        }
        let mut eng = Engine::new(0);
        eng.add_process(Loser, SimTime::ZERO);
        let stats = eng.run(RunLimits::none());
        assert_eq!(stats.messages_lost, 1);
    }

    #[test]
    fn halted_process_receives_nothing() {
        // With limit=2, process `a` halts after receiving msg 1.
        let (mut eng, a, b) = pingpong_pair(2);
        eng.inject_message(b, a, SimTime::from_secs(1), 99);
        let stats = eng.run(RunLimits::none());
        assert!(!eng.is_live(a));
        assert_eq!(stats.events_dropped, 1);
        assert!(eng.process(a).log.iter().all(|&(_, m)| m != 99));
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerProc {
            fired: Vec<u8>,
        }
        impl Process for TimerProc {
            type Msg = ();
            type Timer = u8;
            fn on_start(&mut self, ctx: &mut Ctx<'_, (), u8>) {
                ctx.set_timer(SimTime::from_millis(30), 3);
                ctx.set_timer(SimTime::from_millis(10), 1);
                ctx.set_timer(SimTime::from_millis(20), 2);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, (), u8>, _: ProcId, _: ()) {}
            fn on_timer(&mut self, _: &mut Ctx<'_, (), u8>, t: u8) {
                self.fired.push(t);
            }
        }
        let mut eng = Engine::new(0);
        let p = eng.add_process(TimerProc { fired: vec![] }, SimTime::ZERO);
        eng.run(RunLimits::none());
        assert_eq!(eng.process(p).fired, vec![1, 2, 3]);
    }
}
