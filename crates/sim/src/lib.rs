//! # ftbb-sim — the simulation framework of the paper's §6
//!
//! Wires [`ftbb_core::BnbProcess`] protocol processes into the
//! [`ftbb_des`] discrete-event engine and the [`ftbb_net`] network model,
//! reproducing the Parsec-based methodology of the paper:
//!
//! * workloads are recorded or random **basic trees**, replayed with
//!   incumbent-dependent pruning, so the explored B&B tree varies with
//!   communication timing and processor count;
//! * communication costs follow `1.5 + 0.005·L` ms;
//! * process time is charged to the Figure 3 categories (B&B,
//!   communication, list contraction, load balancing, redundant; idle is
//!   derived);
//! * storage and traffic are accounted system-wide (Table 1);
//! * crash schedules inject fail-stop failures (Figure 6, §6.3.2);
//! * state timelines reproduce the Jumpshot views (Figures 5/6).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod actor;
pub mod driver;
pub mod failure;
pub mod scenario;
pub mod shared;
pub mod timeline;

pub use actor::{SimProcess, TimeBreakdown};
pub use driver::{run_sim, ProcReport, RunReport, SimConfig};
pub use failure::{fig6_schedule, kill_all_but_one, kill_random_k};
pub use shared::{OverheadModel, Shared};
