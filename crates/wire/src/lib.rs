//! # ftbb-wire — the protocol on real sockets, across real processes
//!
//! The paper evaluates its fault-tolerance mechanism in simulation;
//! `ftbb-runtime` moved it to real threads over in-process channels. This
//! crate takes the final step to real infrastructure: the *identical*
//! [`ftbb_core::BnbProcess`] state machine on TCP sockets between OS
//! processes, where message loss, reordering, split reads, and silent
//! peer death happen for real instead of by injection.
//!
//! | module | contents |
//! |---|---|
//! | [`codec`] | framed, version-tagged, checksummed binary encoding of envelopes, incarnation-stamped, with announce + join handshake frames |
//! | [`tcp`] | [`tcp::TcpMesh`] — the [`ftbb_runtime::Transport`] over sockets, with dynamic peer (re)registration, stale-incarnation filtering, and one bounded [`tcp::Control`] stream for everything that is not protocol traffic |
//! | [`config`] | `ftbb-noded` configuration, flags only: one key table (21 node keys + 9 `problem.*` keys, a row each) from which the flag reader ([`parse_args`]), the range checks, `--help` ([`config::help`]), [`NodeConfig::to_args`] and the launcher's argv are derived |
//! | [`lines`] | the shared `TAG key=value …` codec behind every `FTBB-*` stdout line, and the `line_codec!` declaration that derives a line's struct, renderer and parser from one row per field |
//! | [`noded`] | the one node daemon body ([`noded::run`]: a single run is job 0 of the `--service` pool), the four declared `FTBB-*` report lines, and the per-job [`noded::JobDirSink`] checkpoint store |
//! | [`submit`] | the `ftbb-submit` client: send a job to a service pool over one TCP connection and stream its results back |
//! | [`launcher`] | loopback cluster spawner with a lifecycle plan (SIGKILLs and checkpoint restarts) and cluster-wide telemetry aggregation |
//!
//! The `ftbb-noded` binary runs one node per process; the launcher spawns
//! a loopback cluster, SIGKILLs a subset mid-run — and can restart a
//! killed node from its checkpoint, which rejoins under a new
//! incarnation — and the surviving processes still converge to the
//! sequential optimum — the paper's theorem, demonstrated on genuinely
//! unreliable infrastructure.
//!
//! Startup is handled explicitly rather than hopefully: nodes announce
//! their bound address on a `FTBB-READY` line, the launcher wires the
//! peer map over stdin (no port pre-allocation race), and every node
//! runs a readiness barrier — pre-establishing its peer connections —
//! before the protocol's `Start`. That barrier is the only startup
//! mechanism: from the first frame on, delivery follows the paper's
//! Crash model — at most once, and a frame for a peer that is not
//! connected is a counted drop, never parked for later.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod config;
pub mod launcher;
pub mod lines;
pub mod noded;
pub mod submit;
pub mod tcp;

pub use codec::{
    decode_frame, encode_accepted, encode_announce, encode_frame, encode_join, encode_result,
    encode_submit, EncodedFrame, FrameDecoder, JoinFrame, WireError, WireFrame,
};
pub use config::{
    member_ids, parse_args, ConfigError, KnapsackSpec, MaxSatSpec, NodeConfig, ProblemSpec,
    TreeFileSpec, PROBLEM_KINDS,
};
pub use launcher::{
    launch, ClusterReport, ClusterSpec, GossipTiming, JobReport, JobStep, LaunchError,
    LifecycleEvent, REJOIN_SETTLE,
};
pub use lines::{render_f64_bits, render_line, Fields};
pub use noded::{
    job_checkpoint_path, job_line, metrics_line, outcome_line, parse_job_line, parse_metrics_line,
    parse_outcome_line, parse_ready_line, parse_service_line, read_peer_wiring, ready_line,
    service_line, JobDirSink, NodeReport, ParsedJob, ParsedMetrics, ParsedOutcome, ParsedService,
};
pub use submit::{submit_job, SubmitOutcome};
pub use tcp::{TcpMesh, WireConfig};
