//! # ftbb-net — Internet-like network model
//!
//! Models the target architecture of the paper (§4): high, variable
//! latencies; message loss; temporary partitions — while honouring the
//! paper's minimal assumptions (no duplication, no corruption, no spontaneous
//! messages).
//!
//! The central entry point is [`Network::transmit`], which the simulator
//! calls for every protocol message: it accounts the traffic, applies the
//! partition schedule and loss model, and samples the latency model
//! (default: the paper's `1.5 + 0.005·L` ms).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod latency;
pub mod loss;
pub mod partition;
pub mod stats;
pub mod topology;

pub use latency::LatencyModel;
pub use loss::LossModel;
pub use partition::{PartitionSchedule, PartitionWindow};
pub use stats::NetStats;
pub use topology::{DropReason, Network, NetworkConfig};
