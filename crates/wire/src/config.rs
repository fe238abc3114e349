//! `ftbb-noded` configuration: a TOML-subset file, CLI flags, or both
//! (flags override file values).
//!
//! Example config:
//!
//! ```toml
//! id = 0
//! listen = "127.0.0.1:4500"
//! peers = ["1=127.0.0.1:4501", "2=127.0.0.1:4502"]
//! deadline_s = 30.0
//! crash_at_s = 1.5          # optional: abort() mid-run (Crash model)
//! gossip_servers = ["0"]    # optional: membership mode (id 0 serves joins)
//! suspect_after_s = 0.5     # heartbeat silence before suspicion
//!
//! [problem]
//! kind = "knapsack"         # knapsack | maxsat | tree-file | wire
//! n = 24
//! range = 80
//! correlation = "weak"
//! frac = 0.5
//! seed = 11
//! ```
//!
//! The `[problem]` section is *tagged*: `kind` selects the workload and
//! the remaining keys are per-kind. `maxsat` takes `vars`, `clauses`,
//! `seed`; `tree-file` takes `file` (a basic tree written by
//! `ftbb_tree::io::write_tree_file`); `wire` takes nothing — the node
//! learns the materialized instance from the root's problem-announce
//! frame instead of generating it locally.
//!
//! The parser covers the subset above — scalar `key = value` pairs
//! (strings, integers, floats, booleans), string arrays, comments, and
//! `[section]` headers — which keeps the daemon dependency-free.

use crate::tcp::WireConfig;
use ftbb_bnb::{AnyInstance, BasicTreeProblem, Correlation, KnapsackInstance, MaxSatInstance};
use ftbb_des::SimTime;
use ftbb_gossip::MembershipConfig;
use std::collections::HashMap;
use std::fmt;
use std::net::SocketAddr;
use std::ops::RangeInclusive;
use std::path::PathBuf;
use std::time::Duration;

/// Configuration errors (parse or validation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "config error: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ConfigError> {
    Err(ConfigError(msg.into()))
}

/// The canonical list of problem kinds `ftbb-noded` understands, in the
/// spelling configs and `--problem` use. The single source for the
/// `assemble` kind check; [`PROBLEM_KINDS`] (help/error text) must stay
/// in sync — a unit test enforces it.
const KINDS: [&str; 4] = ["knapsack", "maxsat", "tree-file", "wire"];

/// The problem kinds `ftbb-noded` understands, for help and error text.
pub const PROBLEM_KINDS: &str = "knapsack | maxsat | tree-file | wire";

/// Parameters of a generated 0/1 knapsack workload.
#[derive(Debug, Clone, PartialEq)]
pub struct KnapsackSpec {
    /// Number of knapsack items.
    pub n: usize,
    /// Value/weight range.
    pub range: u64,
    /// Correlation structure.
    pub correlation: Correlation,
    /// Capacity as a fraction of total weight.
    pub frac: f64,
    /// Generator seed.
    pub seed: u64,
}

impl Default for KnapsackSpec {
    fn default() -> Self {
        KnapsackSpec {
            n: 20,
            range: 60,
            correlation: Correlation::Weak,
            frac: 0.5,
            seed: 1,
        }
    }
}

/// Parameters of a generated weighted MAX-SAT workload.
#[derive(Debug, Clone, PartialEq)]
pub struct MaxSatSpec {
    /// Number of boolean variables (2..=64).
    pub vars: u16,
    /// Number of random clauses.
    pub clauses: usize,
    /// Generator seed.
    pub seed: u64,
}

impl Default for MaxSatSpec {
    fn default() -> Self {
        MaxSatSpec {
            vars: 18,
            clauses: 50,
            seed: 1,
        }
    }
}

/// A recorded basic tree loaded from disk (`ftbb_tree::io` format).
#[derive(Debug, Clone, PartialEq)]
pub struct TreeFileSpec {
    /// Path to the tree file.
    pub file: PathBuf,
}

/// The problem a cluster solves. All nodes must agree on the *instance*;
/// with a generator spec (`knapsack`, `maxsat`) every node regenerates it
/// deterministically, with `tree-file` it is loaded from disk, and with
/// `wire` the node receives the materialized instance from the root's
/// problem-announce frame (codes are self-contained *given the root
/// instance*, paper §5.3.1 — however the instance got there).
#[derive(Debug, Clone, PartialEq)]
pub enum ProblemSpec {
    /// Generated 0/1 knapsack.
    Knapsack(KnapsackSpec),
    /// Generated weighted MAX-SAT.
    MaxSat(MaxSatSpec),
    /// Recorded basic tree from a file.
    TreeFile(TreeFileSpec),
    /// No local instance: learn it from a peer's announce frame.
    Wire,
}

impl Default for ProblemSpec {
    fn default() -> Self {
        ProblemSpec::Knapsack(KnapsackSpec::default())
    }
}

impl ProblemSpec {
    /// Convenience constructor for a tree-file workload.
    pub fn tree_file(file: impl Into<PathBuf>) -> Self {
        ProblemSpec::TreeFile(TreeFileSpec { file: file.into() })
    }

    /// The spec's kind tag, as written in configs and `--problem`.
    pub fn kind_name(&self) -> &'static str {
        match self {
            ProblemSpec::Knapsack(_) => "knapsack",
            ProblemSpec::MaxSat(_) => "maxsat",
            ProblemSpec::TreeFile(_) => "tree-file",
            ProblemSpec::Wire => "wire",
        }
    }

    /// Materialize the instance. Generators are deterministic per spec;
    /// `tree-file` reads (and validates) the file; `wire` has no local
    /// instance — the daemon must wait for the announce frame instead.
    pub fn instance(&self) -> Result<AnyInstance, ConfigError> {
        match self {
            ProblemSpec::Knapsack(k) => Ok(AnyInstance::Knapsack(KnapsackInstance::generate(
                k.n,
                k.range,
                k.correlation,
                k.frac,
                k.seed,
            ))),
            ProblemSpec::MaxSat(m) => Ok(AnyInstance::MaxSat(MaxSatInstance::generate(
                m.vars, m.clauses, m.seed,
            ))),
            ProblemSpec::TreeFile(t) => {
                let tree = ftbb_tree::io::read_tree_file(&t.file).map_err(|e| {
                    ConfigError(format!("cannot load tree file {}: {e}", t.file.display()))
                })?;
                Ok(AnyInstance::RecordedTree(BasicTreeProblem::new(tree)))
            }
            ProblemSpec::Wire => {
                err("problem kind `wire` has no local instance; it arrives in the announce frame")
            }
        }
    }

    /// Render this spec as `ftbb-noded` CLI flags — the launcher's
    /// kind-aware replacement for hand-assembled knapsack flags.
    pub fn flag_args(&self) -> Vec<String> {
        let mut args = vec!["--problem".to_string(), self.kind_name().to_string()];
        match self {
            ProblemSpec::Knapsack(k) => {
                args.extend([
                    "--problem-n".into(),
                    k.n.to_string(),
                    "--problem-range".into(),
                    k.range.to_string(),
                    "--problem-correlation".into(),
                    correlation_name(k.correlation).into(),
                    "--problem-frac".into(),
                    k.frac.to_string(),
                    "--problem-seed".into(),
                    k.seed.to_string(),
                ]);
            }
            ProblemSpec::MaxSat(m) => {
                args.extend([
                    "--problem-vars".into(),
                    m.vars.to_string(),
                    "--problem-clauses".into(),
                    m.clauses.to_string(),
                    "--problem-seed".into(),
                    m.seed.to_string(),
                ]);
            }
            ProblemSpec::TreeFile(t) => {
                args.extend([
                    "--problem-file".into(),
                    t.file.to_string_lossy().into_owned(),
                ]);
            }
            ProblemSpec::Wire => {}
        }
        args
    }

    /// Validate the spec's own parameters (generator preconditions).
    pub fn validate(&self) -> Result<(), ConfigError> {
        match self {
            ProblemSpec::Knapsack(k) => {
                if k.n == 0 {
                    return err("problem.n must be at least 1");
                }
                if k.range < 2 {
                    return err("problem.range must be at least 2");
                }
                if !(k.frac.is_finite() && k.frac > 0.0) {
                    return err("problem.frac must be a positive number");
                }
                Ok(())
            }
            ProblemSpec::MaxSat(m) => {
                if !(2..=64).contains(&m.vars) {
                    return err("problem.vars must be in 2..=64");
                }
                if m.clauses == 0 {
                    return err("problem.clauses must be at least 1");
                }
                Ok(())
            }
            ProblemSpec::TreeFile(t) => {
                if t.file.as_os_str().is_empty() {
                    return err("problem.file must be a non-empty path");
                }
                Ok(())
            }
            ProblemSpec::Wire => Ok(()),
        }
    }
}

fn correlation_from(name: &str) -> Result<Correlation, ConfigError> {
    match name {
        "uncorrelated" => Ok(Correlation::Uncorrelated),
        "weak" => Ok(Correlation::Weak),
        "strong" => Ok(Correlation::Strong),
        "subsetsum" | "subset_sum" => Ok(Correlation::SubsetSum),
        other => err(format!("unknown correlation `{other}`")),
    }
}

/// The flag/config spelling of a correlation value.
fn correlation_name(c: Correlation) -> &'static str {
    match c {
        Correlation::Uncorrelated => "uncorrelated",
        Correlation::Weak => "weak",
        Correlation::Strong => "strong",
        Correlation::SubsetSum => "subsetsum",
    }
}

/// Problem parameters as they accumulate from a config file or flags,
/// before the kind is resolved. `assemble` turns this into a
/// [`ProblemSpec`], rejecting parameters that do not belong to the
/// resolved kind (instead of silently ignoring them).
#[derive(Debug, Default)]
struct ProblemScratch {
    kind: Option<String>,
    n: Option<usize>,
    range: Option<u64>,
    correlation: Option<Correlation>,
    frac: Option<f64>,
    seed: Option<u64>,
    vars: Option<u16>,
    clauses: Option<usize>,
    file: Option<PathBuf>,
}

impl ProblemScratch {
    /// The kind this scratch resolves to (`knapsack` when none given).
    fn kind(&self) -> &str {
        self.kind.as_deref().unwrap_or(KINDS[0])
    }

    /// Merge `overrides` on top of this scratch (flags over file). When
    /// the override switches to a different kind, this scratch's
    /// parameters are discarded entirely — `--problem maxsat` must not
    /// inherit a config file's knapsack parameters.
    fn merged_with(self, overrides: ProblemScratch) -> ProblemScratch {
        if overrides.kind() != self.kind() && overrides.kind.is_some() {
            return overrides;
        }
        ProblemScratch {
            kind: overrides.kind.or(self.kind),
            n: overrides.n.or(self.n),
            range: overrides.range.or(self.range),
            correlation: overrides.correlation.or(self.correlation),
            frac: overrides.frac.or(self.frac),
            seed: overrides.seed.or(self.seed),
            vars: overrides.vars.or(self.vars),
            clauses: overrides.clauses.or(self.clauses),
            file: overrides.file.or(self.file),
        }
    }

    /// Resolve into a spec: explicit values win, per-kind defaults fill
    /// the gaps, and parameters foreign to the kind are rejected.
    fn assemble(self) -> Result<ProblemSpec, ConfigError> {
        let kind = self.kind();
        if !KINDS.contains(&kind) {
            return err(format!(
                "unsupported problem kind `{kind}` (supported: {PROBLEM_KINDS})"
            ));
        }
        // One row per parameter, declaring which kinds accept it. A new
        // kind or parameter is added here once — not once per kind — so
        // a foreign parameter can never be silently ignored.
        let ownership: [(bool, &str, &[&str]); 8] = [
            (self.n.is_some(), "problem.n / --problem-n", &["knapsack"]),
            (
                self.range.is_some(),
                "problem.range / --problem-range",
                &["knapsack"],
            ),
            (
                self.correlation.is_some(),
                "problem.correlation / --problem-correlation",
                &["knapsack"],
            ),
            (
                self.frac.is_some(),
                "problem.frac / --problem-frac",
                &["knapsack"],
            ),
            (
                self.seed.is_some(),
                "problem.seed / --problem-seed",
                &["knapsack", "maxsat"],
            ),
            (
                self.vars.is_some(),
                "problem.vars / --problem-vars",
                &["maxsat"],
            ),
            (
                self.clauses.is_some(),
                "problem.clauses / --problem-clauses",
                &["maxsat"],
            ),
            (
                self.file.is_some(),
                "problem.file / --problem-file",
                &["tree-file"],
            ),
        ];
        for (set, param, accepted_by) in ownership {
            if set && !accepted_by.contains(&kind) {
                return err(format!("`{param}` does not apply to problem kind `{kind}`"));
            }
        }
        match kind {
            "knapsack" => {
                let b = KnapsackSpec::default();
                Ok(ProblemSpec::Knapsack(KnapsackSpec {
                    n: self.n.unwrap_or(b.n),
                    range: self.range.unwrap_or(b.range),
                    correlation: self.correlation.unwrap_or(b.correlation),
                    frac: self.frac.unwrap_or(b.frac),
                    seed: self.seed.unwrap_or(b.seed),
                }))
            }
            "maxsat" => {
                let b = MaxSatSpec::default();
                Ok(ProblemSpec::MaxSat(MaxSatSpec {
                    vars: self.vars.unwrap_or(b.vars),
                    clauses: self.clauses.unwrap_or(b.clauses),
                    seed: self.seed.unwrap_or(b.seed),
                }))
            }
            "tree-file" => match self.file {
                Some(file) => Ok(ProblemSpec::TreeFile(TreeFileSpec { file })),
                None => err("problem kind `tree-file` requires problem.file / --problem-file"),
            },
            _ => Ok(ProblemSpec::Wire),
        }
    }
}

/// Everything one `ftbb-noded` process needs to run.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// This node's id.
    pub id: u32,
    /// Address to listen on.
    pub listen: SocketAddr,
    /// Peer nodes as `(id, address)`.
    pub peers: Vec<(u32, SocketAddr)>,
    /// The shared problem.
    pub problem: ProblemSpec,
    /// Hard wall-clock deadline in seconds (safety valve).
    pub deadline_s: f64,
    /// If set, the process `abort()`s this many seconds after start —
    /// a config-driven crash for experiments without an external killer.
    pub crash_at_s: Option<f64>,
    /// RNG seed for protocol randomness (target selection etc.).
    pub seed: u64,
    /// Readiness-barrier budget in seconds: how long the daemon waits
    /// for connections to every peer before injecting `Start`. Peers
    /// that never show up are the Crash model's problem — the node
    /// starts anyway once the budget is spent.
    pub preconnect_s: f64,
    /// Learn the peer map from stdin instead of flags/file: after
    /// printing its `FTBB-READY` line the daemon reads `peer id=addr`
    /// lines terminated by `start`. This is how the launcher wires a
    /// `--listen 127.0.0.1:0` cluster without pre-allocating ports.
    pub peers_from_stdin: bool,
    /// Directory for checkpoint snapshots (one `node-<id>-job-<job>.ckpt`
    /// per job — job 0 for a single run — written atomically via
    /// write-rename). `None` disables persistence.
    pub checkpoint_dir: Option<PathBuf>,
    /// Snapshot cadence in seconds (only meaningful with a checkpoint
    /// directory; an extra snapshot is always written at each job's
    /// admission and completion).
    pub checkpoint_every_s: f64,
    /// Restore every `checkpoint_dir/node-<id>-job-*.ckpt` instead of
    /// starting fresh: the node comes back under the next incarnation,
    /// takes each problem binding from its checkpoint (any `--problem*`
    /// flags are ignored), and announces its rejoin to the peers.
    pub resume: bool,
    /// Gossip servers as `(id, optional address)`. Non-empty enables
    /// **membership mode**: the node runs the §5.2 gossip protocol —
    /// joins through the servers, heartbeats, suspects silent members —
    /// instead of a static member list. Entries without an address
    /// (`--gossip-servers 0`) must be resolvable from the peer wiring;
    /// entries with one (`--gossip-servers 0=HOST:PORT`) need no wiring
    /// at all, which is what `--join` relies on. A node whose own id is
    /// listed *is* a gossip server.
    pub gossip_servers: Vec<(u32, Option<SocketAddr>)>,
    /// Elastic join: start knowing *only* the gossip servers (no peer
    /// flags, no stdin wiring) and enter the live cluster through the
    /// join handshake. Requires an addressed entry in `gossip_servers`.
    /// A joiner never holds the root subproblem.
    pub join: bool,
    /// Membership gossip tick interval in seconds (membership mode).
    pub gossip_interval_s: f64,
    /// Heartbeat silence before a member is suspected (`t_fail`), seconds.
    pub suspect_after_s: f64,
    /// Suspicion duration before a member is forgotten (`t_cleanup`),
    /// seconds; must be ≥ `suspect_after_s`.
    pub forget_after_s: f64,
    /// Startup retry window of the TCP transport, seconds (see
    /// [`crate::tcp::WireConfig::retry_window`]).
    pub retry_window_s: f64,
    /// Frame budget of that window (see
    /// [`crate::tcp::WireConfig::retry_max_frames`]).
    pub retry_max_frames: usize,
    /// Expansion worker threads per node. `1` (the default) keeps
    /// expansion inline in the event pump — the historical behaviour.
    /// Higher values run subproblem expansion on a work-stealing pool
    /// so multiple jobs expand in parallel; the protocol state machine
    /// stays single-threaded either way, so the optimum is identical.
    pub workers: usize,
    /// Most frames one transport flush coalesces into a single write
    /// (see [`crate::tcp::WireConfig::batch_max_frames`]); `1` disables
    /// batching.
    pub batch_max_frames: usize,
    /// Most address-book entries piggybacked per membership frame (see
    /// [`crate::tcp::WireConfig::book_max_entries`]); `0` ships the full
    /// roster on every frame, the pre-scale behavior.
    pub book_max_entries: usize,
    /// Bound-dissemination flush window in seconds (see
    /// [`ftbb_core::ProtocolConfig::bound_flush_s`]); `<= 0` disables
    /// suppression and explicit bound broadcasts — every message
    /// piggybacks the incumbent eagerly, the pre-scale behavior.
    pub bound_flush_s: f64,
    /// Service mode: instead of admitting one configured problem (job 0)
    /// and exiting when it halts, the same daemon admits nothing up front
    /// and outlives its jobs as a member of a solve pool. Jobs stream in
    /// over the shared transport — `ftbb-submit` clients send `SubmitJob`
    /// frames to any pool node (the receiver becomes that job's gateway,
    /// holds its root, and announces the instance to its peers) — and the
    /// node multiplexes every admitted job over one mesh until the
    /// deadline. The `--problem*` flags are ignored; checkpoints and
    /// `--resume` work as for a single run, one file per job.
    pub service: bool,
    /// Structured trace file (JSONL, one event per line), opened in
    /// append mode so a restarted node's lives accumulate. `None`
    /// disables tracing.
    pub trace_file: Option<PathBuf>,
    /// Interval in seconds between `FTBB-METRICS` stdout snapshots
    /// (Figure-3 time breakdown + counters); `None` disables them.
    pub metrics_every_s: Option<f64>,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            id: 0,
            listen: "127.0.0.1:0".parse().expect("static addr"),
            peers: Vec::new(),
            problem: ProblemSpec::default(),
            deadline_s: 30.0,
            crash_at_s: None,
            seed: 1,
            preconnect_s: 5.0,
            peers_from_stdin: false,
            checkpoint_dir: None,
            checkpoint_every_s: 0.5,
            resume: false,
            gossip_servers: Vec::new(),
            join: false,
            gossip_interval_s: 0.05,
            suspect_after_s: 0.5,
            forget_after_s: 3.0,
            retry_window_s: crate::tcp::RETRY_WINDOW.as_secs_f64(),
            retry_max_frames: crate::tcp::RETRY_MAX_FRAMES,
            workers: 1,
            batch_max_frames: crate::tcp::BATCH_MAX_FRAMES,
            book_max_entries: crate::tcp::BOOK_MAX_ENTRIES,
            bound_flush_s: ftbb_core::ProtocolConfig::default().bound_flush_s,
            service: false,
            trace_file: None,
            metrics_every_s: None,
        }
    }
}

/// Upper bound on every seconds-valued setting: a century. Far beyond any
/// sensible deployment, far inside what `Duration` and the pump's
/// nanosecond clock can represent.
const MAX_SECONDS: f64 = 100.0 * 365.25 * 86_400.0;

/// Member ids of a cluster (peers + self), sorted and deduplicated —
/// the canonical membership every node derives from its peer map,
/// whether that map came from flags, a file, or stdin wiring.
pub fn member_ids(id: u32, peers: &[(u32, SocketAddr)]) -> Vec<u32> {
    let mut m: Vec<u32> = peers.iter().map(|&(peer, _)| peer).collect();
    m.push(id);
    m.sort_unstable();
    m.dedup();
    m
}

impl NodeConfig {
    /// Member ids of the whole cluster (peers + self), sorted.
    pub fn members(&self) -> Vec<u32> {
        member_ids(self.id, &self.peers)
    }

    /// Is membership mode enabled (any gossip servers configured)?
    pub fn gossip_mode(&self) -> bool {
        !self.gossip_servers.is_empty()
    }

    /// Is this node itself a gossip server?
    pub fn is_gossip_server(&self) -> bool {
        self.gossip_servers.iter().any(|&(id, _)| id == self.id)
    }

    /// The membership protocol parameters, when membership mode is on.
    pub fn membership(&self) -> Option<MembershipConfig> {
        if !self.gossip_mode() {
            return None;
        }
        Some(MembershipConfig {
            gossip_interval: SimTime::from_secs_f64(self.gossip_interval_s),
            fanout: 2,
            t_fail: SimTime::from_secs_f64(self.suspect_after_s),
            t_cleanup: SimTime::from_secs_f64(self.forget_after_s),
            // Delta digests with the default per-frame cap: the scalable
            // mode (see the README's "Scaling" section).
            ..MembershipConfig::default()
        })
    }

    /// The transport tuning this daemon applies to its mesh.
    pub fn wire_config(&self) -> WireConfig {
        WireConfig {
            retry_window: Duration::from_secs_f64(self.retry_window_s),
            retry_max_frames: self.retry_max_frames,
            batch_max_frames: self.batch_max_frames,
            book_max_entries: self.book_max_entries,
        }
    }

    /// Validate cross-field invariants.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.peers.iter().any(|&(id, _)| id == self.id) {
            return err(format!("peer list contains own id {}", self.id));
        }
        // Every `*_s` setting becomes a `Duration` (or a timer deadline
        // added to the pump clock), and `Duration::from_secs_f64` panics
        // on NaN, infinity and anything past ~5.8e11 s — so each goes
        // through the one finite-and-bounded check, with the floor its
        // meaning needs. Non-positive `crash_at_s` (crash at once) and
        // `bound_flush_s` (suppression off) are deliberate settings; the
        // membership intervals only matter in membership mode.
        const POSITIVE: RangeInclusive<f64> = f64::MIN_POSITIVE..=MAX_SECONDS;
        const NON_NEGATIVE: RangeInclusive<f64> = 0.0..=MAX_SECONDS;
        const ANY_SIGN: RangeInclusive<f64> = -MAX_SECONDS..=MAX_SECONDS;
        let gossip = |v: f64| self.gossip_mode().then_some(v);
        let seconds = [
            ("deadline_s", Some(self.deadline_s), POSITIVE),
            ("crash_at_s", self.crash_at_s, ANY_SIGN),
            ("preconnect_s", Some(self.preconnect_s), NON_NEGATIVE),
            (
                "checkpoint_every_s",
                Some(self.checkpoint_every_s),
                POSITIVE,
            ),
            ("metrics_every_s", self.metrics_every_s, POSITIVE),
            // A retry window past an hour is a configuration mistake.
            ("retry_window_s", Some(self.retry_window_s), 0.0..=3600.0),
            ("bound_flush_s", Some(self.bound_flush_s), ANY_SIGN),
            (
                "gossip_interval_s",
                gossip(self.gossip_interval_s),
                POSITIVE,
            ),
            ("suspect_after_s", gossip(self.suspect_after_s), POSITIVE),
            ("forget_after_s", gossip(self.forget_after_s), POSITIVE),
        ];
        for (name, value, allowed) in seconds {
            // NaN is in no range, so it is rejected along with infinity.
            if let Some(v) = value.filter(|v| !allowed.contains(v)) {
                let floor = if *allowed.start() > 0.0 {
                    "above 0".to_string()
                } else {
                    format!("at least {}", allowed.start())
                };
                return err(format!(
                    "{name} must be a number of seconds {floor} and at most {}, got {v:?}",
                    allowed.end()
                ));
            }
        }
        if self.resume && self.checkpoint_dir.is_none() {
            return err("--resume needs --checkpoint-dir to know where the snapshot lives");
        }
        if self.workers == 0 {
            return err("workers must be at least 1");
        }
        if self.batch_max_frames == 0 {
            return err("batch_max_frames must be at least 1 (1 disables batching)");
        }
        if self.gossip_mode() && self.forget_after_s < self.suspect_after_s {
            return err("forget_after_s must be at least suspect_after_s");
        }
        if self.join {
            if !self.gossip_mode() {
                return err("--join needs --gossip-servers to know whom to join through");
            }
            if !self
                .gossip_servers
                .iter()
                .any(|&(id, addr)| id != self.id && addr.is_some())
            {
                return err(
                    "--join needs at least one gossip server given as ID=HOST:PORT \
                     (a joiner has no peer wiring to resolve bare ids against)",
                );
            }
            if !self.peers.is_empty() || self.peers_from_stdin {
                return err("--join replaces peer wiring; drop --peer/--peers-from-stdin");
            }
            if self.resume {
                return err("--join is for brand-new nodes; restarted nodes use --resume alone");
            }
            if self.problem == ProblemSpec::Wire {
                return err(
                    "--join needs a concrete problem spec (the root's announce is sent \
                     before a joiner exists)",
                );
            }
        }
        if self.service {
            if self.problem == ProblemSpec::Wire {
                return err(
                    "--service nodes receive every job's instance over the wire already; \
                     drop `--problem wire` (the --problem* flags are ignored in service mode)",
                );
            }
            if self.join {
                return err("--join is not supported with --service; wire the pool statically");
            }
        }
        self.problem.validate()?;
        if self.problem == ProblemSpec::Wire && self.peers.is_empty() && !self.peers_from_stdin {
            return err("problem kind `wire` needs at least one peer to announce the instance");
        }
        Ok(())
    }
}

// ------------------------------------------------------- TOML subset

/// A parsed scalar or string-array value.
#[derive(Debug, Clone, PartialEq)]
enum TomlValue {
    Str(String),
    Int(i64),
    Float(f64),
    Bool(bool),
    StrArray(Vec<String>),
}

impl TomlValue {
    fn parse(raw: &str, line_no: usize) -> Result<TomlValue, ConfigError> {
        let raw = raw.trim();
        if let Some(stripped) = raw.strip_prefix('"') {
            let Some(inner) = stripped.strip_suffix('"') else {
                return err(format!("line {line_no}: unterminated string"));
            };
            if inner.contains('"') {
                return err(format!("line {line_no}: embedded quotes unsupported"));
            }
            return Ok(TomlValue::Str(inner.to_string()));
        }
        if raw.starts_with('[') {
            let Some(inner) = raw.strip_prefix('[').and_then(|r| r.strip_suffix(']')) else {
                return err(format!("line {line_no}: unterminated array"));
            };
            let mut items = Vec::new();
            for part in inner.split(',') {
                let part = part.trim();
                if part.is_empty() {
                    continue;
                }
                match TomlValue::parse(part, line_no)? {
                    TomlValue::Str(s) => items.push(s),
                    _ => return err(format!("line {line_no}: only string arrays supported")),
                }
            }
            return Ok(TomlValue::StrArray(items));
        }
        match raw {
            "true" => return Ok(TomlValue::Bool(true)),
            "false" => return Ok(TomlValue::Bool(false)),
            _ => {}
        }
        if let Ok(i) = raw.parse::<i64>() {
            return Ok(TomlValue::Int(i));
        }
        if let Ok(f) = raw.parse::<f64>() {
            return Ok(TomlValue::Float(f));
        }
        err(format!("line {line_no}: cannot parse value `{raw}`"))
    }

    fn as_u64(&self, key: &str) -> Result<u64, ConfigError> {
        match self {
            TomlValue::Int(i) if *i >= 0 => Ok(*i as u64),
            _ => err(format!("`{key}` must be a non-negative integer")),
        }
    }

    fn as_f64(&self, key: &str) -> Result<f64, ConfigError> {
        match self {
            TomlValue::Int(i) => Ok(*i as f64),
            TomlValue::Float(f) => Ok(*f),
            _ => err(format!("`{key}` must be a number")),
        }
    }

    fn as_str(&self, key: &str) -> Result<&str, ConfigError> {
        match self {
            TomlValue::Str(s) => Ok(s),
            _ => err(format!("`{key}` must be a string")),
        }
    }
}

/// Parse the TOML subset into `section.key -> value` (top-level keys have
/// no dot).
fn parse_toml_subset(text: &str) -> Result<HashMap<String, TomlValue>, ConfigError> {
    let mut out = HashMap::new();
    let mut section = String::new();
    for (idx, line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = match line.find('#') {
            // A naive comment strip is fine: config strings never contain '#'.
            Some(pos) => &line[..pos],
            None => line,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[') {
            let Some(name) = name.strip_suffix(']') else {
                return err(format!("line {line_no}: malformed section header"));
            };
            section = name.trim().to_string();
            if section.starts_with('[') {
                return err(format!("line {line_no}: array-of-tables unsupported"));
            }
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return err(format!("line {line_no}: expected `key = value`"));
        };
        let key = key.trim();
        let full_key = if section.is_empty() {
            key.to_string()
        } else {
            format!("{section}.{key}")
        };
        out.insert(full_key, TomlValue::parse(value, line_no)?);
    }
    Ok(out)
}

/// Parse one gossip-server entry: `ID` (resolved from peer wiring) or
/// `ID=HOST:PORT` (self-contained — what `--join` requires).
pub(crate) fn parse_gossip_server(spec: &str) -> Result<(u32, Option<SocketAddr>), ConfigError> {
    let spec = spec.trim();
    if spec.contains('=') {
        let (id, addr) = parse_peer(spec)?;
        Ok((id, Some(addr)))
    } else {
        spec.parse().map(|id| (id, None)).map_err(|_| {
            ConfigError(format!(
                "bad gossip server `{spec}` (want ID or ID=HOST:PORT)"
            ))
        })
    }
}

pub(crate) fn parse_peer(spec: &str) -> Result<(u32, SocketAddr), ConfigError> {
    let Some((id, addr)) = spec.split_once('=') else {
        return err(format!("peer `{spec}` is not `id=host:port`"));
    };
    let id: u32 = id
        .trim()
        .parse()
        .map_err(|_| ConfigError(format!("bad peer id in `{spec}`")))?;
    let addr: SocketAddr = addr
        .trim()
        .parse()
        .map_err(|_| ConfigError(format!("bad peer address in `{spec}`")))?;
    Ok((id, addr))
}

/// Parse a config file's contents.
pub fn parse_config(text: &str) -> Result<NodeConfig, ConfigError> {
    let (mut cfg, problem) = parse_config_parts(text)?;
    cfg.problem = problem.assemble()?;
    cfg.validate()?;
    Ok(cfg)
}

/// Parse a config file into the non-problem fields plus the raw problem
/// scratch, deferring problem assembly and cross-field validation — so
/// `parse_args` can layer flags on top before requiredness checks run
/// (a file with `kind = "wire"` and peers given as `--peer` flags is
/// legitimate).
fn parse_config_parts(text: &str) -> Result<(NodeConfig, ProblemScratch), ConfigError> {
    let kv = parse_toml_subset(text)?;
    let mut cfg = NodeConfig::default();
    let mut problem = ProblemScratch::default();
    for (key, value) in &kv {
        match key.as_str() {
            "id" => cfg.id = value.as_u64(key)? as u32,
            "listen" => {
                cfg.listen = value
                    .as_str(key)?
                    .parse()
                    .map_err(|_| ConfigError("bad listen address".to_string()))?;
            }
            "peers" => match value {
                TomlValue::StrArray(items) => {
                    cfg.peers = items
                        .iter()
                        .map(|s| parse_peer(s))
                        .collect::<Result<_, _>>()?;
                }
                _ => return err("`peers` must be an array of \"id=host:port\" strings"),
            },
            "deadline_s" => cfg.deadline_s = value.as_f64(key)?,
            "crash_at_s" => cfg.crash_at_s = Some(value.as_f64(key)?),
            "seed" => cfg.seed = value.as_u64(key)?,
            "preconnect_s" => cfg.preconnect_s = value.as_f64(key)?,
            "peers_from_stdin" => match value {
                TomlValue::Bool(b) => cfg.peers_from_stdin = *b,
                _ => return err("`peers_from_stdin` must be a boolean"),
            },
            "checkpoint_dir" => cfg.checkpoint_dir = Some(PathBuf::from(value.as_str(key)?)),
            "checkpoint_every_s" => cfg.checkpoint_every_s = value.as_f64(key)?,
            "trace_file" => cfg.trace_file = Some(PathBuf::from(value.as_str(key)?)),
            "metrics_every_s" => cfg.metrics_every_s = Some(value.as_f64(key)?),
            "resume" => match value {
                TomlValue::Bool(b) => cfg.resume = *b,
                _ => return err("`resume` must be a boolean"),
            },
            "service" => match value {
                TomlValue::Bool(b) => cfg.service = *b,
                _ => return err("`service` must be a boolean"),
            },
            "gossip_servers" => match value {
                TomlValue::StrArray(items) => {
                    cfg.gossip_servers = items
                        .iter()
                        .map(|s| parse_gossip_server(s))
                        .collect::<Result<_, _>>()?;
                }
                _ => return err("`gossip_servers` must be an array of \"ID\" or \"ID=HOST:PORT\""),
            },
            "join" => match value {
                TomlValue::Bool(b) => cfg.join = *b,
                _ => return err("`join` must be a boolean"),
            },
            "gossip_interval_s" => cfg.gossip_interval_s = value.as_f64(key)?,
            "suspect_after_s" => cfg.suspect_after_s = value.as_f64(key)?,
            "forget_after_s" => cfg.forget_after_s = value.as_f64(key)?,
            "retry_window_s" => cfg.retry_window_s = value.as_f64(key)?,
            "retry_max_frames" => cfg.retry_max_frames = value.as_u64(key)? as usize,
            "workers" => cfg.workers = value.as_u64(key)? as usize,
            "batch_max_frames" => cfg.batch_max_frames = value.as_u64(key)? as usize,
            "book_max_entries" => cfg.book_max_entries = value.as_u64(key)? as usize,
            "bound_flush_s" => cfg.bound_flush_s = value.as_f64(key)?,
            "problem.kind" => problem.kind = Some(value.as_str(key)?.to_string()),
            "problem.n" => problem.n = Some(value.as_u64(key)? as usize),
            "problem.range" => problem.range = Some(value.as_u64(key)?),
            "problem.correlation" => {
                problem.correlation = Some(correlation_from(value.as_str(key)?)?);
            }
            "problem.frac" => problem.frac = Some(value.as_f64(key)?),
            "problem.seed" => problem.seed = Some(value.as_u64(key)?),
            "problem.vars" => {
                problem.vars = Some(
                    u16::try_from(value.as_u64(key)?)
                        .map_err(|_| ConfigError("problem.vars out of range".into()))?,
                );
            }
            "problem.clauses" => problem.clauses = Some(value.as_u64(key)? as usize),
            "problem.file" => problem.file = Some(PathBuf::from(value.as_str(key)?)),
            other => return err(format!("unknown config key `{other}`")),
        }
    }
    Ok((cfg, problem))
}

/// Parse CLI arguments (optionally seeded from `--config <file>`).
/// Flags override file values; see the crate README for the list.
pub fn parse_args(args: &[String]) -> Result<NodeConfig, ConfigError> {
    // First pass: locate --config to establish the base. The file's
    // problem section and cross-field invariants are NOT validated here
    // — flags may legitimately complete the file (e.g. `kind = "wire"`
    // in the file with peers supplied as `--peer` flags), so assembly
    // and validation run once, on the merged result.
    let mut base: Option<(NodeConfig, ProblemScratch)> = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--config" {
            let Some(path) = args.get(i + 1) else {
                return err("--config requires a path");
            };
            let text = std::fs::read_to_string(path)
                .map_err(|e| ConfigError(format!("cannot read config {path}: {e}")))?;
            base = Some(parse_config_parts(&text)?);
        }
        i += 1;
    }
    let (mut cfg, file_problem) = base.unwrap_or_default();

    // Flags override file values. For the repeatable --peer flag that
    // means the first occurrence *replaces* the file's peer list (so a
    // flag-supplied topology fully wins), and later occurrences append.
    // Problem flags accumulate in their own scratch and are merged over
    // the file's at the end, so `--problem maxsat` cleanly switches
    // kinds without inheriting the file's knapsack parameters.
    let mut problem = ProblemScratch::default();
    let mut peers_replaced = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let take = |name: &str| -> Result<String, ConfigError> {
            match args.get(i + 1) {
                Some(v) => Ok(v.clone()),
                None => err(format!("{name} requires a value")),
            }
        };
        match flag {
            "--config" => {
                i += 2; // handled in the first pass
                continue;
            }
            "--id" => {
                cfg.id = take("--id")?
                    .parse()
                    .map_err(|_| ConfigError("bad --id".into()))?;
            }
            "--listen" => {
                cfg.listen = take("--listen")?
                    .parse()
                    .map_err(|_| ConfigError("bad --listen address".into()))?;
            }
            "--peer" => {
                if !peers_replaced {
                    cfg.peers.clear();
                    peers_replaced = true;
                }
                cfg.peers.push(parse_peer(&take("--peer")?)?);
            }
            "--deadline-s" => {
                cfg.deadline_s = take("--deadline-s")?
                    .parse()
                    .map_err(|_| ConfigError("bad --deadline-s".into()))?;
            }
            "--crash-at-s" => {
                cfg.crash_at_s = Some(
                    take("--crash-at-s")?
                        .parse()
                        .map_err(|_| ConfigError("bad --crash-at-s".into()))?,
                );
            }
            "--seed" => {
                cfg.seed = take("--seed")?
                    .parse()
                    .map_err(|_| ConfigError("bad --seed".into()))?;
            }
            "--preconnect-s" => {
                cfg.preconnect_s = take("--preconnect-s")?
                    .parse()
                    .map_err(|_| ConfigError("bad --preconnect-s".into()))?;
            }
            "--peers-from-stdin" => {
                cfg.peers_from_stdin = true;
                i += 1; // flag takes no value
                continue;
            }
            "--checkpoint-dir" => {
                cfg.checkpoint_dir = Some(PathBuf::from(take("--checkpoint-dir")?));
            }
            "--checkpoint-every-s" => {
                cfg.checkpoint_every_s = take("--checkpoint-every-s")?
                    .parse()
                    .map_err(|_| ConfigError("bad --checkpoint-every-s".into()))?;
            }
            "--trace-file" => {
                cfg.trace_file = Some(PathBuf::from(take("--trace-file")?));
            }
            "--metrics-every-s" => {
                cfg.metrics_every_s = Some(
                    take("--metrics-every-s")?
                        .parse()
                        .map_err(|_| ConfigError("bad --metrics-every-s".into()))?,
                );
            }
            "--resume" => {
                cfg.resume = true;
                i += 1; // flag takes no value
                continue;
            }
            "--service" => {
                cfg.service = true;
                i += 1; // flag takes no value
                continue;
            }
            "--gossip-servers" => {
                cfg.gossip_servers = take("--gossip-servers")?
                    .split(',')
                    .filter(|s| !s.trim().is_empty())
                    .map(parse_gossip_server)
                    .collect::<Result<_, _>>()?;
            }
            "--join" => {
                cfg.join = true;
                i += 1; // flag takes no value
                continue;
            }
            "--gossip-interval-s" => {
                cfg.gossip_interval_s = take("--gossip-interval-s")?
                    .parse()
                    .map_err(|_| ConfigError("bad --gossip-interval-s".into()))?;
            }
            "--suspect-after-s" => {
                cfg.suspect_after_s = take("--suspect-after-s")?
                    .parse()
                    .map_err(|_| ConfigError("bad --suspect-after-s".into()))?;
            }
            "--forget-after-s" => {
                cfg.forget_after_s = take("--forget-after-s")?
                    .parse()
                    .map_err(|_| ConfigError("bad --forget-after-s".into()))?;
            }
            "--retry-window-s" => {
                cfg.retry_window_s = take("--retry-window-s")?
                    .parse()
                    .map_err(|_| ConfigError("bad --retry-window-s".into()))?;
            }
            "--retry-max-frames" => {
                cfg.retry_max_frames = take("--retry-max-frames")?
                    .parse()
                    .map_err(|_| ConfigError("bad --retry-max-frames".into()))?;
            }
            "--workers" => {
                cfg.workers = take("--workers")?
                    .parse()
                    .map_err(|_| ConfigError("bad --workers".into()))?;
            }
            "--batch-max-frames" => {
                cfg.batch_max_frames = take("--batch-max-frames")?
                    .parse()
                    .map_err(|_| ConfigError("bad --batch-max-frames".into()))?;
            }
            "--book-max-entries" => {
                cfg.book_max_entries = take("--book-max-entries")?
                    .parse()
                    .map_err(|_| ConfigError("bad --book-max-entries".into()))?;
            }
            "--bound-flush-s" => {
                cfg.bound_flush_s = take("--bound-flush-s")?
                    .parse()
                    .map_err(|_| ConfigError("bad --bound-flush-s".into()))?;
            }
            "--problem" => {
                problem.kind = Some(take("--problem")?);
            }
            "--problem-n" => {
                problem.n = Some(
                    take("--problem-n")?
                        .parse()
                        .map_err(|_| ConfigError("bad --problem-n".into()))?,
                );
            }
            "--problem-range" => {
                problem.range = Some(
                    take("--problem-range")?
                        .parse()
                        .map_err(|_| ConfigError("bad --problem-range".into()))?,
                );
            }
            "--problem-correlation" => {
                problem.correlation = Some(correlation_from(&take("--problem-correlation")?)?);
            }
            "--problem-frac" => {
                problem.frac = Some(
                    take("--problem-frac")?
                        .parse()
                        .map_err(|_| ConfigError("bad --problem-frac".into()))?,
                );
            }
            "--problem-seed" => {
                problem.seed = Some(
                    take("--problem-seed")?
                        .parse()
                        .map_err(|_| ConfigError("bad --problem-seed".into()))?,
                );
            }
            "--problem-vars" => {
                problem.vars = Some(
                    take("--problem-vars")?
                        .parse()
                        .map_err(|_| ConfigError("bad --problem-vars".into()))?,
                );
            }
            "--problem-clauses" => {
                problem.clauses = Some(
                    take("--problem-clauses")?
                        .parse()
                        .map_err(|_| ConfigError("bad --problem-clauses".into()))?,
                );
            }
            "--problem-file" => {
                problem.file = Some(PathBuf::from(take("--problem-file")?));
            }
            other => return err(format!("unknown flag `{other}`")),
        }
        i += 2;
    }
    cfg.problem = file_problem.merged_with(problem).assemble()?;
    cfg.validate()?;
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# cluster node zero
id = 0
listen = "127.0.0.1:4500"
peers = ["1=127.0.0.1:4501", "2=127.0.0.1:4502"]
deadline_s = 12.5
crash_at_s = 1.5
seed = 9

[problem]
kind = "knapsack"
n = 24
range = 80
correlation = "weak"
frac = 0.5
seed = 11
"#;

    #[test]
    fn parses_full_config() {
        let cfg = parse_config(SAMPLE).unwrap();
        assert_eq!(cfg.id, 0);
        assert_eq!(cfg.listen, "127.0.0.1:4500".parse().unwrap());
        assert_eq!(cfg.peers.len(), 2);
        assert_eq!(cfg.peers[1], (2, "127.0.0.1:4502".parse().unwrap()));
        assert_eq!(cfg.deadline_s, 12.5);
        assert_eq!(cfg.crash_at_s, Some(1.5));
        assert_eq!(cfg.seed, 9);
        let ProblemSpec::Knapsack(k) = &cfg.problem else {
            panic!("expected knapsack, got {:?}", cfg.problem);
        };
        assert_eq!(k.n, 24);
        assert_eq!(k.range, 80);
        assert_eq!(k.correlation, Correlation::Weak);
        assert_eq!(k.seed, 11);
        assert_eq!(cfg.members(), vec![0, 1, 2]);
    }

    #[test]
    fn parses_maxsat_config() {
        let cfg = parse_config(
            "id = 0\n[problem]\nkind = \"maxsat\"\nvars = 14\nclauses = 40\nseed = 3\n",
        )
        .unwrap();
        assert_eq!(
            cfg.problem,
            ProblemSpec::MaxSat(MaxSatSpec {
                vars: 14,
                clauses: 40,
                seed: 3,
            })
        );
        // Deterministic per spec, like every generator kind.
        assert_eq!(
            cfg.problem.instance().unwrap(),
            cfg.problem.instance().unwrap()
        );
    }

    #[test]
    fn parses_tree_file_and_wire_configs() {
        let cfg =
            parse_config("[problem]\nkind = \"tree-file\"\nfile = \"/tmp/t.ftbb\"\n").unwrap();
        assert_eq!(cfg.problem, ProblemSpec::tree_file("/tmp/t.ftbb"));

        // `wire` has no params and no local instance; it needs a peer to
        // hear the announce from.
        let cfg =
            parse_config("id = 1\npeers = [\"0=127.0.0.1:4500\"]\n[problem]\nkind = \"wire\"\n")
                .unwrap();
        assert_eq!(cfg.problem, ProblemSpec::Wire);
        assert!(cfg.problem.instance().is_err());
        assert!(parse_config("[problem]\nkind = \"wire\"\n").is_err());
    }

    #[test]
    fn unknown_kind_error_lists_supported_kinds() {
        let e = parse_config("[problem]\nkind = \"sudoku\"\n").unwrap_err();
        for kind in KINDS {
            assert!(e.0.contains(kind), "`{kind}` missing from: {e}");
        }
    }

    #[test]
    fn kind_list_spellings_agree() {
        // The canonical KINDS slice, the help/error text, and every
        // spec's kind_name must not drift apart.
        assert_eq!(PROBLEM_KINDS, KINDS.join(" | "));
        for spec in [
            ProblemSpec::Knapsack(KnapsackSpec::default()),
            ProblemSpec::MaxSat(MaxSatSpec::default()),
            ProblemSpec::tree_file("/tmp/t.ftbb"),
            ProblemSpec::Wire,
        ] {
            assert!(KINDS.contains(&spec.kind_name()), "{}", spec.kind_name());
        }
    }

    #[test]
    fn flags_complete_a_partial_config_file() {
        // The file alone would be invalid; flags legitimately complete
        // it, and only the merged result is validated.
        let dir = std::env::temp_dir().join("ftbb-wire-config-partial-test");
        std::fs::create_dir_all(&dir).unwrap();

        // wire kind in the file, peers from flags.
        let wire_path = dir.join("wire.toml");
        std::fs::write(&wire_path, "id = 1\n[problem]\nkind = \"wire\"\n").unwrap();
        let args: Vec<String> = [
            "--config",
            wire_path.to_str().unwrap(),
            "--peer",
            "0=127.0.0.1:4500",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let cfg = parse_args(&args).unwrap();
        assert_eq!(cfg.problem, ProblemSpec::Wire);
        assert_eq!(cfg.peers.len(), 1);

        // tree-file kind in the file, path from flags.
        let tree_path = dir.join("tree.toml");
        std::fs::write(&tree_path, "[problem]\nkind = \"tree-file\"\n").unwrap();
        let args: Vec<String> = [
            "--config",
            tree_path.to_str().unwrap(),
            "--problem-file",
            "/tmp/w.ftbb",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let cfg = parse_args(&args).unwrap();
        assert_eq!(cfg.problem, ProblemSpec::tree_file("/tmp/w.ftbb"));

        // Standalone, the same files still fail (nothing completes them).
        let solo: Vec<String> = ["--config", wire_path.to_str().unwrap()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse_args(&solo).is_err());
        std::fs::remove_file(&wire_path).ok();
        std::fs::remove_file(&tree_path).ok();
    }

    #[test]
    fn foreign_params_are_rejected_not_ignored() {
        // Knapsack params under a maxsat kind (and vice versa) are
        // configuration mistakes, loudly reported.
        assert!(parse_config("[problem]\nkind = \"maxsat\"\nn = 24\n").is_err());
        assert!(parse_config("[problem]\nkind = \"knapsack\"\nvars = 8\n").is_err());
        assert!(parse_config("[problem]\nkind = \"wire\"\nseed = 3\n").is_err());
        assert!(parse_config("[problem]\nkind = \"tree-file\"\n").is_err());

        let args: Vec<String> = ["--problem", "maxsat", "--problem-frac", "0.5"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse_args(&args).is_err());
    }

    #[test]
    fn problem_flag_switches_kind_without_inheriting_params() {
        let dir = std::env::temp_dir().join("ftbb-wire-config-kind-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("node.toml");
        std::fs::write(&path, SAMPLE).unwrap();
        // The file is knapsack (n=24 etc.); switching to maxsat on the
        // command line must not drag knapsack params along.
        let args: Vec<String> = [
            "--config",
            path.to_str().unwrap(),
            "--problem",
            "maxsat",
            "--problem-vars",
            "12",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let cfg = parse_args(&args).unwrap();
        assert_eq!(
            cfg.problem,
            ProblemSpec::MaxSat(MaxSatSpec {
                vars: 12,
                ..Default::default()
            })
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flag_args_round_trip_through_the_parser() {
        let specs = [
            ProblemSpec::Knapsack(KnapsackSpec {
                n: 30,
                range: 99,
                correlation: Correlation::SubsetSum,
                frac: 0.4,
                seed: 17,
            }),
            ProblemSpec::MaxSat(MaxSatSpec {
                vars: 21,
                clauses: 77,
                seed: 5,
            }),
            ProblemSpec::tree_file("/tmp/workload.ftbb"),
        ];
        for spec in specs {
            let mut args = spec.flag_args();
            // `wire` needs peers; generators don't. Give every spec one.
            args.extend(["--peer".to_string(), "1=127.0.0.1:4501".to_string()]);
            let cfg = parse_args(&args).unwrap();
            assert_eq!(cfg.problem, spec, "flags: {args:?}");
        }
        let mut args = ProblemSpec::Wire.flag_args();
        args.extend(["--peer".to_string(), "1=127.0.0.1:4501".to_string()]);
        assert_eq!(parse_args(&args).unwrap().problem, ProblemSpec::Wire);
    }

    #[test]
    fn flags_override_file() {
        let dir = std::env::temp_dir().join("ftbb-wire-config-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("node.toml");
        std::fs::write(&path, SAMPLE).unwrap();
        // Without new peer flags the file's peer list stands, so taking
        // id 2 (listed as a peer in the file) must be rejected.
        let args: Vec<String> = [
            "--config",
            path.to_str().unwrap(),
            "--id",
            "2",
            "--listen",
            "127.0.0.1:4502",
            "--problem-seed",
            "77",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let err = parse_args(&args).unwrap_err();
        assert!(err.0.contains("own id"), "{err}");

        // The first --peer flag REPLACES the file's peer list (flags
        // override file values), so the same identity switch works once
        // the topology is given on the command line.
        let args: Vec<String> = [
            "--config",
            path.to_str().unwrap(),
            "--id",
            "2",
            "--listen",
            "127.0.0.1:4502",
            "--peer",
            "0=127.0.0.1:4500",
            "--peer",
            "1=127.0.0.1:4501",
            "--problem-seed",
            "77",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let cfg = parse_args(&args).unwrap();
        assert_eq!(cfg.id, 2);
        let ProblemSpec::Knapsack(k) = &cfg.problem else {
            panic!("expected knapsack");
        };
        assert_eq!(k.seed, 77);
        assert_eq!(k.n, 24, "non-overridden file values survive");
        assert_eq!(cfg.members(), vec![0, 1, 2]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_config("id = ").is_err());
        assert!(parse_config("peers = [3]").is_err());
        assert!(parse_config("listen = \"not-an-addr\"").is_err());
        assert!(parse_config("mystery = 1").is_err());
        assert!(parse_config("[problem\nn = 3").is_err());
        assert!(parse_config("id = 0\npeers = [\"0=127.0.0.1:1\"]").is_err());
        assert!(parse_config("deadline_s = -1").is_err());
        assert!(parse_config("preconnect_s = -0.5").is_err());
        assert!(parse_config("peers_from_stdin = 3").is_err());
        assert!(parse_config("[problem]\ncorrelation = \"psychic\"").is_err());
    }

    #[test]
    fn parses_lifecycle_options() {
        let cfg = parse_config(
            "checkpoint_dir = \"/tmp/ckpts\"\ncheckpoint_every_s = 0.25\nresume = true\n",
        )
        .unwrap();
        assert_eq!(cfg.checkpoint_dir, Some(PathBuf::from("/tmp/ckpts")));
        assert_eq!(cfg.checkpoint_every_s, 0.25);
        assert!(cfg.resume);

        let args: Vec<String> = [
            "--checkpoint-dir",
            "/tmp/elsewhere",
            "--checkpoint-every-s",
            "1.5",
            "--resume",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let cfg = parse_args(&args).unwrap();
        assert_eq!(cfg.checkpoint_dir, Some(PathBuf::from("/tmp/elsewhere")));
        assert_eq!(cfg.checkpoint_every_s, 1.5);
        assert!(cfg.resume);

        // Resume without a checkpoint directory has nothing to resume
        // from; a non-positive cadence would never snapshot.
        assert!(parse_config("resume = true\n").is_err());
        assert!(parse_config("checkpoint_every_s = 0\n").is_err());
        assert!(parse_config("checkpoint_every_s = -2\n").is_err());
        assert!(parse_config("resume = 3\n").is_err());
    }

    #[test]
    fn parses_telemetry_options() {
        let cfg = parse_config("trace_file = \"/tmp/n0.jsonl\"\nmetrics_every_s = 0.5\n").unwrap();
        assert_eq!(cfg.trace_file, Some(PathBuf::from("/tmp/n0.jsonl")));
        assert_eq!(cfg.metrics_every_s, Some(0.5));

        let args: Vec<String> = ["--trace-file", "/tmp/n1.jsonl", "--metrics-every-s", "0.25"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let cfg = parse_args(&args).unwrap();
        assert_eq!(cfg.trace_file, Some(PathBuf::from("/tmp/n1.jsonl")));
        assert_eq!(cfg.metrics_every_s, Some(0.25));

        // Defaults: telemetry off.
        let cfg = parse_config("").unwrap();
        assert_eq!(cfg.trace_file, None);
        assert_eq!(cfg.metrics_every_s, None);

        // A cadence that never fires is a config mistake, not a mode.
        assert!(parse_config("metrics_every_s = 0\n").is_err());
        assert!(parse_config("metrics_every_s = -1\n").is_err());
    }

    #[test]
    fn parses_gossip_and_transport_options() {
        let cfg = parse_config(
            "gossip_servers = [\"0\", \"3=127.0.0.1:4503\"]\ngossip_interval_s = 0.1\n\
             suspect_after_s = 0.4\nforget_after_s = 2.0\nretry_window_s = 0.25\n\
             retry_max_frames = 16\n",
        )
        .unwrap();
        assert!(cfg.gossip_mode());
        assert!(cfg.is_gossip_server(), "own id 0 is listed as a server");
        assert_eq!(
            cfg.gossip_servers,
            vec![(0, None), (3, Some("127.0.0.1:4503".parse().unwrap()))]
        );
        let m = cfg.membership().expect("membership mode");
        assert_eq!(m.gossip_interval, SimTime::from_secs_f64(0.1));
        assert_eq!(m.t_fail, SimTime::from_secs_f64(0.4));
        assert_eq!(m.t_cleanup, SimTime::from_secs_f64(2.0));
        let w = cfg.wire_config();
        assert_eq!(w.retry_window, Duration::from_secs_f64(0.25));
        assert_eq!(w.retry_max_frames, 16);

        // Defaults: static mode, historical transport constants.
        let plain = NodeConfig::default();
        assert!(!plain.gossip_mode());
        assert_eq!(plain.membership(), None);
        assert_eq!(plain.wire_config(), WireConfig::default());

        // Inverted membership timeouts are a configuration mistake.
        assert!(parse_config(
            "gossip_servers = [\"0\"]\nsuspect_after_s = 2.0\nforget_after_s = 1.0\n"
        )
        .is_err());
    }

    #[test]
    fn join_mode_is_validated() {
        let ok: Vec<String> = [
            "--id",
            "5",
            "--join",
            "--gossip-servers",
            "0=127.0.0.1:4500",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let cfg = parse_args(&ok).unwrap();
        assert!(cfg.join && cfg.gossip_mode() && !cfg.is_gossip_server());
        assert_eq!(cfg.gossip_servers.len(), 1);

        // --join without servers, with bare-id servers only, with peer
        // wiring, with --resume, or with --problem wire: all rejected.
        let cases: Vec<Vec<&str>> = vec![
            vec!["--id", "5", "--join"],
            vec!["--id", "5", "--join", "--gossip-servers", "0"],
            vec![
                "--id",
                "5",
                "--join",
                "--gossip-servers",
                "0=127.0.0.1:4500",
                "--peer",
                "1=127.0.0.1:4501",
            ],
            vec![
                "--id",
                "5",
                "--join",
                "--gossip-servers",
                "0=127.0.0.1:4500",
                "--checkpoint-dir",
                "/tmp/x",
                "--resume",
            ],
            vec![
                "--id",
                "5",
                "--join",
                "--gossip-servers",
                "0=127.0.0.1:4500",
                "--problem",
                "wire",
            ],
        ];
        for case in cases {
            let args: Vec<String> = case.iter().map(|s| s.to_string()).collect();
            assert!(parse_args(&args).is_err(), "{args:?} must be rejected");
        }
    }

    #[test]
    fn seconds_settings_are_finite_and_bounded_in_flags_and_toml() {
        // Every value here passed validation once and then aborted the
        // daemon inside `Duration::from_secs_f64` (or overflowed the pump
        // clock); each must be a typed config error in both spellings.
        // Rows: TOML key (the flag is its dashed form), one more value
        // outside that key's own range, and whether the check needs
        // membership mode to apply.
        let cases = [
            ("deadline_s", "0", false),
            ("crash_at_s", "-inf", false),
            ("preconnect_s", "-0.5", false),
            ("checkpoint_every_s", "0", false),
            ("metrics_every_s", "0", false),
            ("retry_window_s", "3601", false),
            ("bound_flush_s", "-1e300", false),
            ("gossip_interval_s", "0", true),
            ("suspect_after_s", "0", true),
            ("forget_after_s", "0", true),
        ];
        for (key, out_of_range, gossip) in cases {
            let flag = format!("--{}", key.replace('_', "-"));
            for bad in ["inf", "NaN", "1e300", out_of_range] {
                let mut args = vec![flag.clone(), bad.to_string()];
                let mut toml = format!("{key} = {bad}\n");
                if gossip {
                    args.extend(["--gossip-servers".to_string(), "0".to_string()]);
                    toml.push_str("gossip_servers = [\"0\"]\n");
                }
                for (spelling, result) in [
                    (format!("{args:?}"), parse_args(&args)),
                    (toml.clone(), parse_config(&toml)),
                ] {
                    let e = result.expect_err(&format!("{spelling} must be rejected"));
                    assert!(e.to_string().contains(key), "{spelling}: {e}");
                }
            }
        }

        // The deliberate non-positive settings and ordinary values pass.
        for ok in [
            vec!["--crash-at-s", "-1"],
            vec!["--crash-at-s", "0"],
            vec!["--bound-flush-s", "0"],
            vec!["--bound-flush-s", "-1"],
            vec!["--preconnect-s", "0"],
            vec!["--retry-window-s", "0"],
            vec!["--deadline-s", "86400"],
        ] {
            let args: Vec<String> = ok.iter().map(|s| s.to_string()).collect();
            assert!(parse_args(&args).is_ok(), "{args:?} must be accepted");
        }
    }

    #[test]
    fn parses_service_mode_options() {
        let cfg = parse_config("service = true\n").unwrap();
        assert!(cfg.service);

        let args: Vec<String> = ["--service"].iter().map(|s| s.to_string()).collect();
        let cfg = parse_args(&args).unwrap();
        assert!(cfg.service);
        assert!(!NodeConfig::default().service);

        // Service nodes get every instance over the wire; `--problem
        // wire` is the single-run announce handshake, not a job stream.
        assert!(parse_config(
            "service = true\npeers = [\"1=127.0.0.1:4501\"]\n[problem]\nkind = \"wire\"\n"
        )
        .is_err());
        // Elastic join of a service pool is out of scope.
        assert!(parse_config("service = true\njoin = true\ngossip_servers = [\"0\"]\n").is_err());
        assert!(parse_config("service = 3\n").is_err());
    }

    #[test]
    fn parses_startup_wiring_options() {
        let cfg = parse_config("preconnect_s = 2.5\npeers_from_stdin = true").unwrap();
        assert_eq!(cfg.preconnect_s, 2.5);
        assert!(cfg.peers_from_stdin);

        let args: Vec<String> = ["--peers-from-stdin", "--preconnect-s", "0.25"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let cfg = parse_args(&args).unwrap();
        assert!(cfg.peers_from_stdin);
        assert_eq!(cfg.preconnect_s, 0.25);
    }

    #[test]
    fn same_spec_same_instance_across_nodes() {
        let spec = ProblemSpec::default();
        let a = spec.instance().unwrap();
        let b = spec.instance().unwrap();
        assert_eq!(a, b, "instance generation must be deterministic");
    }

    #[test]
    fn tree_file_spec_loads_a_written_tree() {
        let dir = std::env::temp_dir().join("ftbb-wire-treefile-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig1.ftbb");
        let tree = ftbb_tree::basic_tree::fig1_example();
        ftbb_tree::io::write_tree_file(&tree, &path).unwrap();

        let spec = ProblemSpec::tree_file(&path);
        let instance = spec.instance().unwrap();
        assert_eq!(instance, AnyInstance::from(tree));

        let missing = ProblemSpec::tree_file(dir.join("nope.ftbb"));
        assert!(missing.instance().is_err());
        std::fs::remove_file(&path).ok();
    }
}
