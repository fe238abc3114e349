//! # ftbb-des — deterministic discrete-event simulation engine
//!
//! A from-scratch substitute for Parsec, the C-based discrete-event
//! simulation language used in the paper's experimental studies (§6.2):
//! processes are modeled by objects, interactions by timestamped message
//! exchanges, and a virtual clock advances from event to event.
//!
//! Design points:
//!
//! * **Deterministic**: events at equal times dispatch in scheduling order,
//!   and all randomness flows from one seeded RNG, so runs replay exactly.
//! * **Fail-stop crashes** ([`Engine::schedule_crash`]) implement the Crash
//!   failure model of the paper (§4): a crashed process silently drops all
//!   subsequent events; other processes are not notified.
//! * **Explicit delays**: the engine does not know about networks. Senders
//!   attach the transit delay to each message (computed by `ftbb-net`), or
//!   mark it lost.
//! * **Tracing** ([`trace::Tracer`]) records per-process state intervals —
//!   the substitute for the paper's MPE/clog logs and Jumpshot timelines
//!   (Figures 5 and 6).
//! * **Cheap per event**: a process stays in its slot while its handler
//!   runs, and the event heap ([`EventQueue`]) orders 24-byte keys while
//!   the events wait in a slab. Both keep a large actor or message from
//!   being copied over and over: an event costs what its handler does.
//!
//! ## Example
//!
//! ```
//! use ftbb_des::{Engine, RunLimits, Process, Ctx, ProcId, SimTime};
//!
//! struct Echo { got: u32 }
//! impl Process for Echo {
//!     type Msg = u32;
//!     type Timer = ();
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, u32, ()>) {
//!         if ctx.pid() == ProcId(0) {
//!             ctx.send(ProcId(1), SimTime::from_millis(2), 42);
//!         }
//!     }
//!     fn on_message(&mut self, ctx: &mut Ctx<'_, u32, ()>, _from: ProcId, m: u32) {
//!         self.got = m;
//!         ctx.halt();
//!     }
//!     fn on_timer(&mut self, _ctx: &mut Ctx<'_, u32, ()>, _t: ()) {}
//! }
//!
//! let mut eng = Engine::new(1);
//! eng.add_process(Echo { got: 0 }, SimTime::ZERO);
//! let receiver = eng.add_process(Echo { got: 0 }, SimTime::ZERO);
//! let stats = eng.run(RunLimits::none());
//! assert_eq!(eng.process(receiver).got, 42);
//! assert_eq!(stats.end_time, SimTime::from_millis(2));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod event;
pub mod process;
pub mod queue;
pub mod time;
pub mod trace;

pub use engine::{Engine, RunLimits, RunStats};
pub use event::{Event, EventKind, ProcId};
pub use process::{Ctx, Effect, Process};
pub use queue::EventQueue;
pub use time::SimTime;
pub use trace::{StateInterval, TracePoint, Tracer};
