//! # ftbb-dib — the DIB baseline
//!
//! DIB (Finkel & Manber, *DIB — A distributed implementation of
//! backtracking*, TOPLAS 1987) is "the only fully decentralized,
//! fault-tolerant B&B algorithm for distributed-memory architectures" prior
//! to the paper (§3). Its failure recovery tracks *responsibility*: donors
//! remember which machine got each subproblem, completions are reported to
//! the machine the problem came from, and unreported work is redone after a
//! timeout.
//!
//! This crate also hosts the *centralized manager–worker* baseline of §3
//! ([`central`]), whose manager is both a scalability bottleneck and a
//! single point of failure — the two problems the paper's design removes.
//!
//! The paper's comparison (§5.5) highlights DIB's structural weakness: the
//! responsibility chain is rooted at one machine, so that machine must be
//! reliable (or duplicated). This crate reproduces exactly that behaviour:
//! worker failures are survived via redo, but the failure of machine 0
//! leaves the system unable to detect termination —
//! see `driver::tests::dib_hangs_when_root_machine_dies`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod central;
pub mod central_driver;
pub mod driver;
pub mod process;

pub use central::{CentralMsg, Manager, WorkerResult};
pub use central_driver::{run_central, CentralConfig, CentralRunReport};
pub use driver::{run_dib, DibRunReport, DibSimConfig};
pub use process::{DibConfig, DibMsg, DibProcess};
