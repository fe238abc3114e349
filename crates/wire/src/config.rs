//! `ftbb-noded` configuration: every setting is a command-line flag.
//!
//! The problem flags are *tagged*: `--problem KIND` selects the workload
//! and the `--problem-*` parameters are per-kind. `knapsack` (the
//! default) takes `n`, `range`, `correlation`, `frac` and `seed`;
//! `maxsat` takes `vars`, `clauses` and `seed`; `tree-file` takes `file`
//! (a basic tree written by `ftbb_tree::io::write_tree_file`); `wire`
//! takes nothing — the node learns the materialized instance from the
//! root's problem-announce frame instead of generating it locally. The
//! kind is applied before its parameters wherever it stands on the
//! command line, and a parameter foreign to the kind is rejected, never
//! ignored.
//!
//! # One key table
//!
//! Every key is declared **once**: the node keys as rows of the
//! `node_keys!` declaration (which also derives [`NodeConfig`] and its
//! `Default`), the `problem.*` keys as rows of `PROBLEM_KEYS`. A row
//! gives the field with its doc comment (which is also its `--help`
//! text), the default, the allowed range, the help section and the
//! metavar; the field's type is the value kind (its `Setting` impl holds
//! the one `parse(&str)` every value goes through, whether it came from
//! a flag or from a hand-built [`NodeConfig`] in `validate`). The flag
//! is derived from the row's name (`--` + name with `_`/`.` → `-`; only
//! `--peer` and `--problem` are spelled by hand). The flag reader, the
//! per-key range checks in `validate`, [`help`], [`NodeConfig::to_args`]
//! / [`ProblemSpec::flag_args`] and the launcher's argv all walk those
//! rows — **adding a key is adding one row**.

use ftbb_bnb::{AnyInstance, BasicTreeProblem, Correlation, KnapsackInstance, MaxSatInstance};
use ftbb_des::SimTime;
use ftbb_gossip::MembershipConfig;
use std::fmt;
use std::net::SocketAddr;
use std::path::PathBuf;

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
/// spelling `--problem` takes; the first is the default.
/// [`PROBLEM_KINDS`] (help/error text) must stay in sync — a unit test
/// enforces it.
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

    /// The spec's kind tag, as `--problem` takes it.
    pub fn kind_name(&self) -> &'static str {
        match self {
            ProblemSpec::Knapsack(_) => "knapsack",
            ProblemSpec::MaxSat(_) => "maxsat",
            ProblemSpec::TreeFile(_) => "tree-file",
            ProblemSpec::Wire => "wire",
        }
    }

    /// The spec a kind starts from before its parameters are applied:
    /// the generators' defaults, and a `tree-file` still missing its
    /// (required) file.
    fn of_kind(kind: &str) -> Option<ProblemSpec> {
        [
            ProblemSpec::default(),
            ProblemSpec::MaxSat(MaxSatSpec::default()),
            ProblemSpec::tree_file(""),
            ProblemSpec::Wire,
        ]
        .into_iter()
        .find(|spec| spec.kind_name() == kind)
    }

    /// Materialize the instance. Generators are deterministic per spec;
    /// `tree-file` reads the file; `wire` has no local instance — the
    /// daemon must wait for the announce frame instead. Whatever was
    /// materialized passes [`AnyInstance::validate`], the check every
    /// announced or submitted instance passes on decode.
    pub fn instance(&self) -> Result<AnyInstance, ConfigError> {
        let instance = match self {
            ProblemSpec::Knapsack(k) => AnyInstance::Knapsack(KnapsackInstance::generate(
                k.n,
                k.range,
                k.correlation,
                k.frac,
                k.seed,
            )),
            ProblemSpec::MaxSat(m) => {
                AnyInstance::MaxSat(MaxSatInstance::generate(m.vars, m.clauses, m.seed))
            }
            ProblemSpec::TreeFile(t) => {
                let tree = ftbb_tree::io::read_tree_file(&t.file).map_err(|e| {
                    ConfigError(format!("cannot load tree file {}: {e}", t.file.display()))
                })?;
                AnyInstance::RecordedTree(BasicTreeProblem::new(tree))
            }
            ProblemSpec::Wire => {
                return err("problem kind `wire` has no local instance; \
                            it arrives in the announce frame");
            }
        };
        instance
            .validate()
            .map_err(|e| ConfigError(format!("invalid {} instance: {e}", instance.kind())))?;
        Ok(instance)
    }

    /// Render this spec as `ftbb-noded` CLI flags: `--problem KIND`
    /// first, then every parameter of the kind in `PROBLEM_KEYS` order
    /// (the seed last).
    pub fn flag_args(&self) -> Vec<String> {
        let mut args = Vec::new();
        for key in PROBLEM_KEYS {
            key.push_args((key.get)(self), &mut args);
        }
        args
    }

    /// Validate the spec's own parameters (generator preconditions):
    /// each against the range its `PROBLEM_KEYS` row declares.
    pub fn validate(&self) -> Result<(), ConfigError> {
        verify(PROBLEM_KEYS, self)
    }
}

fn correlation_from(name: &str) -> Option<Correlation> {
    match name {
        "uncorrelated" => Some(Correlation::Uncorrelated),
        "weak" => Some(Correlation::Weak),
        "strong" => Some(Correlation::Strong),
        "subsetsum" | "subset_sum" => Some(Correlation::SubsetSum),
        _ => None,
    }
}

/// The flag spelling of a correlation value.
fn correlation_name(c: Correlation) -> &'static str {
    match c {
        Correlation::Uncorrelated => "uncorrelated",
        Correlation::Weak => "weak",
        Correlation::Strong => "strong",
        Correlation::SubsetSum => "subsetsum",
    }
}

// ----------------------------------------------------- the key table

/// The values a key accepts, beyond what its type can hold.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Range {
    /// Whatever the type holds.
    Any,
    /// An integer in `min..=max` (capped by the field's own type).
    Int(u64, u64),
    /// A finite number in `min..=max`.
    Num(f64, f64),
}

/// Upper bound on every seconds-valued setting: a century. Far beyond any
/// sensible deployment, far inside what `Duration` and the pump's
/// nanosecond clock can represent — `Duration::from_secs_f64` panics on
/// NaN, infinity and anything past ~5.8e11 s, so every `*_s` key carries
/// one of the three ranges below.
const MAX_SECONDS: f64 = 100.0 * 365.25 * 86_400.0;
const POSITIVE: Range = Range::Num(f64::MIN_POSITIVE, MAX_SECONDS);
const NON_NEGATIVE: Range = Range::Num(0.0, MAX_SECONDS);
/// A non-positive `bound_flush_s` (suppression off) is a deliberate
/// setting.
const ANY_SIGN: Range = Range::Num(-MAX_SECONDS, MAX_SECONDS);

/// A value kind: one impl per field type, holding the **one** parser a
/// value of that kind goes through — from a flag, or (rendered and read
/// back) from a hand-built [`NodeConfig`] in `validate` — so it is
/// range-checked and narrowed by the same code whichever way it arrived.
trait Setting: Sized {
    /// A switch: its flag stands alone instead of taking a value.
    const SWITCH: bool = false;
    /// Read a value; the error says what was expected instead.
    fn parse(text: &str, range: Range) -> Result<Self, String>;
    /// The text `parse` reads back to this value; `None` for "unset"
    /// (`None`, `false`, an empty list).
    fn render(&self) -> Option<String>;
}

macro_rules! integer_settings {
    ($($int:ty),*) => {$(
        impl Setting for $int {
            fn parse(text: &str, range: Range) -> Result<Self, String> {
                let (min, max) = match range {
                    Range::Int(min, max) => (min, max),
                    _ => (0, u64::MAX),
                };
                let max = u64::try_from(<$int>::MAX).map_or(max, |widest| max.min(widest));
                text.parse::<$int>()
                    .ok()
                    .filter(|&v| u64::try_from(v).is_ok_and(|v| (min..=max).contains(&v)))
                    .ok_or_else(|| format!("an integer in {min}..={max}"))
            }
            fn render(&self) -> Option<String> {
                Some(self.to_string())
            }
        }
    )*};
}
integer_settings!(u16, u32, u64, usize);

impl Setting for f64 {
    fn parse(text: &str, range: Range) -> Result<Self, String> {
        let (min, max) = match range {
            Range::Num(min, max) => (min, max),
            _ => (f64::MIN, f64::MAX),
        };
        // NaN is in no range, so it is rejected along with infinity.
        text.parse::<f64>()
            .ok()
            .filter(|v| (min..=max).contains(v))
            .ok_or_else(|| {
                let floor = if min == f64::MIN_POSITIVE {
                    "above 0".to_string()
                } else {
                    format!("at least {min}")
                };
                if max == f64::MAX {
                    format!("a finite number {floor}")
                } else {
                    format!("a number {floor} and at most {max}")
                }
            })
    }
    fn render(&self) -> Option<String> {
        Some(self.to_string())
    }
}

/// The kinds without a range, one row each: the type, what it expects,
/// how it is read, how it is written.
macro_rules! plain_settings {
    ($(
        $kind:ty: $expects:literal,
        |$text:ident| $parse:expr, |$value:ident| $render:expr;
    )*) => {$(
        impl Setting for $kind {
            fn parse($text: &str, _: Range) -> Result<Self, String> {
                $parse.ok_or_else(|| $expects.to_string())
            }
            fn render(&self) -> Option<String> {
                let $value = self;
                $render
            }
        }
    )*};
}

plain_settings! {
    PathBuf: "a non-empty path",
    |text| (!text.is_empty()).then(|| PathBuf::from(text)),
    |path| Some(path.display().to_string());

    SocketAddr: "a HOST:PORT socket address",
    |text| text.parse().ok(), |addr| Some(addr.to_string());

    Correlation: "one of uncorrelated | weak | strong | subsetsum",
    |text| correlation_from(text), |c| Some(correlation_name(*c).to_string());

    // The peer map.
    Vec<(u32, SocketAddr)>: "a list of ID=HOST:PORT peers",
    |text| parse_list(text, parse_peer),
    |peers| render_list(peers.iter().map(|(id, addr)| format!("{id}={addr}")));

    // Gossip servers: bare ids are resolved from the peer wiring, addressed
    // ones are self-contained — what `--join` requires.
    Vec<(u32, Option<SocketAddr>)>: "a list of ID or ID=HOST:PORT gossip servers",
    |text| parse_list(text, parse_gossip_server),
    |servers| render_list(servers.iter().map(|(id, addr)| match addr {
        Some(addr) => format!("{id}={addr}"),
        None => id.to_string(),
    }));
}

/// Read a comma-separated list item by item (blank items are skipped).
fn parse_list<T>(text: &str, item: impl Fn(&str) -> Result<T, ConfigError>) -> Option<Vec<T>> {
    let items = text.split(',').filter(|s| !s.trim().is_empty());
    items.map(item).collect::<Result<_, _>>().ok()
}

fn render_list(items: impl Iterator<Item = String>) -> Option<String> {
    let text = items.collect::<Vec<_>>().join(",");
    (!text.is_empty()).then_some(text)
}

/// A switch: its flag alone sets it.
impl Setting for bool {
    const SWITCH: bool = true;
    fn parse(text: &str, _: Range) -> Result<Self, String> {
        text.parse().map_err(|_| "a boolean".to_string())
    }
    fn render(&self) -> Option<String> {
        self.then(|| "true".to_string())
    }
}

/// An optional setting: unset until a flag gives it a value.
impl<S: Setting> Setting for Option<S> {
    const SWITCH: bool = S::SWITCH;
    fn parse(text: &str, range: Range) -> Result<Self, String> {
        S::parse(text, range).map(Some)
    }
    fn render(&self) -> Option<String> {
        self.as_ref().and_then(S::render)
    }
}

// The `--help` blocks, in the order the rows list them.
const NODE: &str = "FLAGS";
const MEMBERSHIP: &str = "MEMBERSHIP (gossip protocol instead of a static member list)";
const PERFORMANCE: &str = "PERFORMANCE";
const SERVICE: &str = "SERVICE MODE (a long-lived multi-job solve pool)";
const LIFECYCLE: &str = "LIFECYCLE (checkpoint persistence and restart/rejoin)";
const TELEMETRY: &str = "TELEMETRY (structured tracing and interval metrics)";
const PROBLEM: &str = "PROBLEM (tagged; --problem selects the kind, the rest are per-kind)";

/// The row name of the peer map, whose flag is the repeatable `--peer`
/// (one entry per occurrence).
const PEERS: &str = "peers";
/// The row name of the problem kind, whose flag is `--problem`.
const KIND: &str = "problem.kind";

/// One configuration key of a `T` (a [`NodeConfig`] or a
/// [`ProblemSpec`]): everything the reader, the checks, the help and
/// the argv renderer know about it.
struct Key<T: 'static> {
    /// The row's name (`problem.key` for a problem key); the flag is
    /// derived from it, see [`Key::flag`].
    name: &'static str,
    range: Range,
    /// The `--help` block the key is listed under.
    section: &'static str,
    metavar: &'static str,
    /// The `--help` text: a node key's is its field's doc comment.
    help: &'static str,
    /// A switch: the flag takes no value.
    switch: bool,
    /// Parse `text` into the field.
    set: fn(&mut T, &str, Range) -> Result<(), String>,
    /// The field, rendered; `None` when unset (or, for a problem
    /// parameter, when the spec's kind does not carry it).
    get: fn(&T) -> Option<String>,
}

impl<T> Key<T> {
    /// The flag spelling: `--` + the name with `_`/`.` → `-`,
    /// except for the two flags that predate the rule.
    fn flag(&self) -> String {
        match self.name {
            PEERS => "--peer".to_string(),
            KIND => "--problem".to_string(),
            name => format!("--{}", name.replace(['_', '.'], "-")),
        }
    }

    /// Parse `text` into this key's field of `target`.
    fn parse_into(&self, target: &mut T, text: &str) -> Result<(), ConfigError> {
        (self.set)(target, text, self.range).map_err(|expected| {
            ConfigError(format!(
                "`{}` must be {expected}, got `{text}`",
                self.flag()
            ))
        })
    }

    /// Append the flag(s) that set this key to `value`.
    fn push_args(&self, value: Option<String>, args: &mut Vec<String>) {
        let Some(text) = value else { return };
        if self.switch {
            args.push(self.flag());
        } else if self.name == PEERS {
            for peer in text.split(',') {
                args.extend([self.flag(), peer.to_string()]);
            }
        } else {
            args.extend([self.flag(), text]);
        }
    }

    /// This key's `--help` entry, with the default taken from `default`
    /// and the range from the row.
    fn help_entry(&self, default: &T, out: &mut String) {
        const COLUMN: usize = 34;
        const WIDTH: usize = 38;
        let mut notes = Vec::new();
        if let Range::Int(min, max) = self.range {
            notes.push(format!("{min}..={max}"));
        }
        if let Some(text) = (self.get)(default).filter(|t| !t.is_empty()) {
            if !self.switch {
                notes.push(format!("default {text}"));
            }
        }
        let mut sentence = self.help.to_string();
        if !notes.is_empty() {
            sentence.push_str(&format!(" ({})", notes.join("; ")));
        }
        let mut line = format!(
            "{:<COLUMN$}",
            format!("    {} {}", self.flag(), self.metavar)
        );
        for word in sentence.split_whitespace() {
            let used = line.chars().count();
            if used > COLUMN && used + 1 + word.chars().count() > COLUMN + WIDTH {
                out.push_str(&line);
                out.push('\n');
                line = " ".repeat(COLUMN);
            } else if used > COLUMN {
                line.push(' ');
            }
            line.push_str(word);
        }
        out.push_str(&line);
        out.push('\n');
    }
}

/// Check every value `target` holds now — however it got there — against
/// its row: render it and read it back through the row's own parser.
fn verify<T: Clone>(table: &[Key<T>], target: &T) -> Result<(), ConfigError> {
    let mut probe = target.clone();
    for key in table {
        if let Some(text) = (key.get)(target) {
            key.parse_into(&mut probe, &text)?;
        }
    }
    Ok(())
}

/// Declares the node keys once — one row per key — and derives
/// [`NodeConfig`], its `Default` and the `NODE_KEYS` table from the rows.
///
/// A row reads `/// doc  field: Type = default;  range, SECTION, "METAVAR";`.
/// The field's type is its value kind ([`Setting`]), its name gives its
/// flag, and its doc comment is also its `--help` text — so it is
/// written to read well in both places.
macro_rules! node_keys {
    ($(
        $(#[doc = $doc:literal])+
        $field:ident: $kind:ty = $default:expr;
        $range:expr, $section:ident, $metavar:literal;
    )*) => {
        /// Everything one `ftbb-noded` process needs to run.
        #[derive(Debug, Clone, PartialEq)]
        pub struct NodeConfig {
            $($(#[doc = $doc])+ pub $field: $kind,)*
            /// The shared problem (the `--problem*` flags, see
            /// `PROBLEM_KEYS`).
            pub problem: ProblemSpec,
        }

        impl Default for NodeConfig {
            fn default() -> Self {
                NodeConfig {
                    $($field: $default,)*
                    problem: ProblemSpec::default(),
                }
            }
        }

        /// Every key outside the problem, in `--help` order.
        static NODE_KEYS: &[Key<NodeConfig>] = &[$(Key {
            name: stringify!($field),
            range: $range,
            section: $section,
            metavar: $metavar,
            help: concat!($($doc),+),
            switch: <$kind as Setting>::SWITCH,
            set: |cfg, text, range| {
                cfg.$field = Setting::parse(text, range)?;
                Ok(())
            },
            get: |cfg| cfg.$field.render(),
        },)*];
    };
}

node_keys! {
    /// This node's id.
    id: u32 = 0;
    Range::Any, NODE, "N";

    /// Address to listen on; port 0 picks a free port, announced on the
    /// `FTBB-READY` line.
    listen: SocketAddr = SocketAddr::from(([127, 0, 0, 1], 0));
    Range::Any, NODE, "HOST:PORT";

    /// Peer nodes as `(id, address)`; the flag is repeatable, one peer
    /// per occurrence.
    peers: Vec<(u32, SocketAddr)> = Vec::new();
    Range::Any, NODE, "ID=HOST:PORT";

    /// Learn the peer map from stdin instead of `--peer` flags: after
    /// printing its `FTBB-READY` line the daemon reads `peer ID=HOST:PORT`
    /// lines terminated by `start`. This is how the launcher wires a
    /// `--listen 127.0.0.1:0` cluster without pre-allocating ports.
    peers_from_stdin: bool = false;
    Range::Any, NODE, "";

    /// Readiness-barrier budget in seconds: how long the daemon waits
    /// for connections to every peer before injecting `Start`. Peers
    /// that never show up are the Crash model's problem — the node
    /// starts anyway once the budget is spent.
    preconnect_s: f64 = 5.0;
    NON_NEGATIVE, NODE, "SECS";

    /// Hard wall-clock deadline in seconds (safety valve).
    deadline_s: f64 = 30.0;
    POSITIVE, NODE, "SECS";

    /// RNG seed for protocol randomness (target selection etc.).
    seed: u64 = 1;
    Range::Any, NODE, "N";

    /// Gossip servers as `(id, optional address)`, comma-separated on
    /// the command line. Non-empty enables **membership mode**: the node
    /// runs the §5.2 gossip protocol — joins through the servers,
    /// heartbeats, suspects silent members — instead of a static member
    /// list. Entries without an address (`--gossip-servers 0`) must be
    /// resolvable from the peer wiring; entries with one
    /// (`--gossip-servers 0=HOST:PORT`) need no wiring at all, which is
    /// what `--join` relies on. A node whose own id is listed *is* a
    /// gossip server and answers joins.
    gossip_servers: Vec<(u32, Option<SocketAddr>)> = Vec::new();
    Range::Any, MEMBERSHIP, "LIST";

    /// Elastic join: start knowing *only* the gossip servers (no peer
    /// flags, no stdin wiring) and enter the live cluster through the
    /// join handshake. Requires an addressed entry in `gossip_servers`.
    /// A joiner never holds the root subproblem.
    join: bool = false;
    Range::Any, MEMBERSHIP, "";

    /// Membership gossip tick interval in seconds (membership mode).
    gossip_interval_s: f64 = 0.05;
    POSITIVE, MEMBERSHIP, "SECS";

    /// Heartbeat silence before a member is suspected (`t_fail`), seconds.
    suspect_after_s: f64 = 0.5;
    POSITIVE, MEMBERSHIP, "SECS";

    /// Suspicion duration before a member is forgotten (`t_cleanup`),
    /// seconds; must be ≥ `suspect_after_s`.
    forget_after_s: f64 = 3.0;
    POSITIVE, MEMBERSHIP, "SECS";

    /// Bound-dissemination flush window in seconds
    /// (`ftbb_core::ProtocolConfig::bound_flush_s`): incumbent
    /// improvements coalesce into one `BoundAnnounce` broadcast per
    /// window and unchanged bounds are omitted from load-balancing
    /// chatter. `<= 0` disables suppression and explicit bound
    /// broadcasts — every message piggybacks the incumbent eagerly, the
    /// pre-scale behavior.
    bound_flush_s: f64 = ftbb_core::ProtocolConfig::default().bound_flush_s;
    ANY_SIGN, PERFORMANCE, "SECS";

    /// Service mode: instead of admitting one configured problem (job 0)
    /// and exiting when it halts, the same daemon admits nothing up front
    /// and outlives its jobs as a member of a solve pool. Jobs stream in
    /// over the shared transport — `ftbb-submit` clients send `SubmitJob`
    /// frames to any pool node (the receiver becomes that job's gateway,
    /// holds its root, and announces the instance to its peers) — and the
    /// node multiplexes every admitted job over one mesh until the
    /// deadline, printing one `FTBB-JOB` line per completed job and a
    /// closing `FTBB-SERVICE` summary. The `--problem*` flags are
    /// ignored; checkpoints and `--resume` work as for a single run, one
    /// file per job.
    service: bool = false;
    Range::Any, SERVICE, "";

    /// Directory for checkpoint snapshots (one `node-<id>-job-<job>.ckpt`
    /// per job — job 0 for a single run — written atomically via
    /// write-rename at admission, every cadence tick, and at completion).
    /// Unset, nothing is persisted.
    checkpoint_dir: Option<PathBuf> = None;
    Range::Any, LIFECYCLE, "DIR";

    /// Snapshot cadence in seconds (only meaningful with a checkpoint
    /// directory; an extra snapshot is always written at each job's
    /// admission and completion).
    checkpoint_every_s: f64 = 0.5;
    POSITIVE, LIFECYCLE, "SECS";

    /// Restore every `checkpoint_dir/node-<id>-job-*.ckpt` instead of
    /// starting fresh: the node comes back under the next incarnation,
    /// takes each problem binding from its checkpoint (any `--problem*`
    /// flags are ignored), and announces its rejoin to the peers.
    resume: bool = false;
    Range::Any, LIFECYCLE, "";

    /// Structured trace file (JSONL, one event per line: timestamp,
    /// node, incarnation, kind, fields), opened in append mode so a
    /// restarted node's lives accumulate. Tracing never blocks the node:
    /// overflow is counted and reported, not waited on. Unset, there is
    /// no tracing.
    trace_file: Option<PathBuf> = None;
    Range::Any, TELEMETRY, "PATH";

    /// Interval in seconds between `FTBB-METRICS` stdout snapshots
    /// (Figure-3 time breakdown + process and transport counters);
    /// unset, there are none.
    metrics_every_s: Option<f64> = None;
    POSITIVE, TELEMETRY, "SECS";
}

/// One `problem.*` parameter row; the spec variants that carry the field
/// (`pattern => place`) are the kinds that take the parameter.
macro_rules! problem_key {
    (
        $name:literal: $kind:ty, $pattern:pat => $place:expr;
        $range:expr, $metavar:literal, $help:literal
    ) => {
        Key {
            name: $name,
            range: $range,
            section: PROBLEM,
            metavar: $metavar,
            help: $help,
            switch: <$kind as Setting>::SWITCH,
            set: |spec, text, range| {
                if let $pattern = spec {
                    $place = Setting::parse(text, range)?;
                }
                Ok(())
            },
            get: |spec| match spec {
                $pattern => ($place).render(),
                _ => None,
            },
        }
    };
}

/// The problem keys, kind first (setting it resets the spec to that
/// kind's defaults) and the seed last — the order
/// [`ProblemSpec::flag_args`] renders. A parameter belongs to the kinds
/// whose spec carries its field and is rejected under any other, never
/// ignored.
///
/// The generator caps keep every accepted spec's instance valid
/// ([`ProblemSpec::instance`]): `n` fits `KnapNode::level` (a `u16`),
/// and 65 535 items of profit at most 1.2 × 2^32 (the top of `range`
/// plus its correlation offset) sum far below 2^64; `clauses` stops
/// where the clause list would outgrow a node's memory.
static PROBLEM_KEYS: &[Key<ProblemSpec>] = &[
    Key {
        name: KIND,
        range: Range::Any,
        section: PROBLEM,
        metavar: "KIND",
        help: "knapsack | maxsat | tree-file | wire; `wire` receives the instance from the \
               root's announce frame instead of generating it locally",
        switch: false,
        set: |spec, text, _| {
            *spec = ProblemSpec::of_kind(text).ok_or_else(|| format!("one of {PROBLEM_KINDS}"))?;
            Ok(())
        },
        get: |spec| Some(spec.kind_name().to_string()),
    },
    problem_key!("problem.n": usize, ProblemSpec::Knapsack(k) => k.n;
        Range::Int(1, u16::MAX as u64), "N", "knapsack items"),
    problem_key!("problem.range": u64, ProblemSpec::Knapsack(k) => k.range;
        Range::Int(2, 1 << 32), "N", "value/weight range"),
    problem_key!("problem.correlation": Correlation, ProblemSpec::Knapsack(k) => k.correlation;
        Range::Any, "NAME", "uncorrelated | weak | strong | subsetsum"),
    problem_key!("problem.frac": f64, ProblemSpec::Knapsack(k) => k.frac;
        Range::Num(f64::MIN_POSITIVE, f64::MAX), "F", "capacity as a fraction of total weight"),
    problem_key!("problem.vars": u16, ProblemSpec::MaxSat(m) => m.vars;
        Range::Int(2, 64), "N", "boolean variables"),
    problem_key!("problem.clauses": usize, ProblemSpec::MaxSat(m) => m.clauses;
        Range::Int(1, 1 << 20), "N", "random weighted clauses"),
    problem_key!("problem.file": PathBuf, ProblemSpec::TreeFile(t) => t.file;
        Range::Any, "PATH", "recorded basic tree (ftbb_tree::io), required"),
    problem_key!("problem.seed": u64,
        ProblemSpec::Knapsack(KnapsackSpec { seed, .. })
        | ProblemSpec::MaxSat(MaxSatSpec { seed, .. }) => *seed;
        Range::Any, "N", "instance seed, the same on every node"),
];

/// Member ids of a cluster (peers + self), sorted and deduplicated —
/// the canonical membership every node derives from its peer map,
/// whether that map came from flags or stdin wiring.
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
            t_fail: SimTime::from_secs_f64(self.suspect_after_s),
            t_cleanup: SimTime::from_secs_f64(self.forget_after_s),
            // Delta digests with the default per-frame cap: the scalable
            // mode (see the README's "Scaling" section).
            ..MembershipConfig::default()
        })
    }

    /// Render this configuration as `ftbb-noded` CLI flags: every key
    /// that differs from [`NodeConfig::default`], in table order, then
    /// [`ProblemSpec::flag_args`] unless the problem is the default one.
    /// `parse_args(&cfg.to_args())` gives `cfg` back.
    pub fn to_args(&self) -> Vec<String> {
        let default = NodeConfig::default();
        let mut args = Vec::new();
        for key in NODE_KEYS {
            let value = (key.get)(self);
            if value != (key.get)(&default) {
                key.push_args(value, &mut args);
            }
        }
        if self.problem != default.problem {
            args.extend(self.problem.flag_args());
        }
        args
    }

    /// Validate every key against its row's range (a hand-built config
    /// never went through the flag reader), then the cross-field
    /// invariants.
    pub fn validate(&self) -> Result<(), ConfigError> {
        verify(NODE_KEYS, self)?;
        self.problem.validate()?;
        if self.peers.iter().any(|&(id, _)| id == self.id) {
            return err(format!("peer list contains own id {}", self.id));
        }
        if self.resume && self.checkpoint_dir.is_none() {
            return err("`--resume` needs --checkpoint-dir to know where the snapshot lives");
        }
        if self.gossip_mode() && self.forget_after_s < self.suspect_after_s {
            return err("--forget-after-s must be at least --suspect-after-s");
        }
        if self.join {
            if !self.gossip_mode() {
                return err("`--join` needs --gossip-servers to know whom to join through");
            }
            if !self
                .gossip_servers
                .iter()
                .any(|&(id, addr)| id != self.id && addr.is_some())
            {
                return err(
                    "`--join` needs at least one gossip server given as ID=HOST:PORT \
                     (a joiner has no peer wiring to resolve bare ids against)",
                );
            }
            if !self.peers.is_empty() || self.peers_from_stdin {
                return err("`--join` replaces peer wiring; drop --peer/--peers-from-stdin");
            }
            if self.resume {
                return err("`--join` is for brand-new nodes; restarted nodes use --resume alone");
            }
            if self.problem == ProblemSpec::Wire {
                return err(
                    "`--join` needs a concrete problem spec (the root's announce is sent \
                     before a joiner exists)",
                );
            }
        }
        if self.service {
            if self.problem == ProblemSpec::Wire {
                return err(
                    "`--service` nodes receive every job's instance over the wire already; \
                     drop `--problem wire` (the --problem* flags are ignored in service mode)",
                );
            }
            if self.join {
                return err("`--join` is not supported with --service; wire the pool statically");
            }
        }
        if self.problem == ProblemSpec::Wire && self.peers.is_empty() && !self.peers_from_stdin {
            return err("problem kind `wire` needs at least one peer to announce the instance");
        }
        Ok(())
    }
}

/// The option reference `ftbb-noded --help` prints: every table row
/// under its section, each default rendered from
/// [`NodeConfig::default`].
pub fn help() -> String {
    let default = NodeConfig::default();
    let mut out = String::new();
    let mut section = None;
    for key in NODE_KEYS {
        if section.replace(key.section) != Some(key.section) {
            out.push_str(&format!("\n{}:\n", key.section));
        }
        key.help_entry(&default, &mut out);
    }
    out + &problem_help()
}

/// The PROBLEM block of `--help` (shared by `ftbb-noded` and
/// `ftbb-submit`): the kind, then each kind's parameters with that
/// kind's defaults.
pub fn problem_help() -> String {
    let mut out = format!("\n{PROBLEM}:\n");
    PROBLEM_KEYS[0].help_entry(&ProblemSpec::default(), &mut out);
    for kind in KINDS {
        let Some(default) = ProblemSpec::of_kind(kind) else {
            continue;
        };
        let mut params = PROBLEM_KEYS[1..]
            .iter()
            .filter(|key| (key.get)(&default).is_some())
            .peekable();
        if params.peek().is_some() {
            out.push_str(&format!("  {kind}:\n"));
        }
        for key in params {
            key.help_entry(&default, &mut out);
        }
    }
    out
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

// ------------------------------------------------------ the flag reader

/// Parse CLI arguments; `ftbb-noded --help` lists them.
pub fn parse_args(args: &[String]) -> Result<NodeConfig, ConfigError> {
    let cfg = resolve(args)?;
    cfg.validate()?;
    Ok(cfg)
}

/// Route every flag (and its value, unless it is a switch) to its row,
/// without the cross-field checks. Node keys apply in order: a repeated
/// flag's last value wins, except `--peer`, whose occurrences add up.
/// The problem kind is applied first, wherever it stands, then its
/// parameters; a parameter foreign to the kind is rejected instead of
/// silently ignored.
fn resolve(args: &[String]) -> Result<NodeConfig, ConfigError> {
    let mut cfg = NodeConfig::default();
    let mut problem = Vec::new();
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let mut value = |switch: bool| {
            if switch {
                return Ok("true".to_string());
            }
            let text = rest.next().cloned();
            text.ok_or_else(|| ConfigError(format!("{flag} requires a value")))
        };
        if let Some(key) = NODE_KEYS.iter().find(|key| key.flag() == *flag) {
            let mut text = value(key.switch)?;
            if key.name == PEERS {
                if let Some(earlier) = (key.get)(&cfg) {
                    text = format!("{earlier},{text}");
                }
            }
            key.parse_into(&mut cfg, &text)?;
        } else if let Some(key) = PROBLEM_KEYS.iter().find(|key| key.flag() == *flag) {
            problem.push((key, value(key.switch)?));
        } else {
            return err(format!("unknown flag `{flag}`"));
        }
    }
    let kind = problem.iter().rfind(|(key, _)| key.name == KIND);
    let kind = kind.map_or(KINDS[0], |(_, text)| text.as_str());
    PROBLEM_KEYS[0].parse_into(&mut cfg.problem, kind)?;
    for (key, text) in problem.iter().filter(|(key, _)| key.name != KIND) {
        // A spec carries exactly the fields its kind takes.
        if (key.get)(&cfg.problem).is_none() {
            return err(format!(
                "`{}` does not apply to problem kind `{kind}`",
                key.flag()
            ));
        }
        key.parse_into(&mut cfg.problem, text)?;
    }
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `line`'s whitespace-separated words as an argv.
    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn parse(line: &str) -> Result<NodeConfig, ConfigError> {
        parse_args(&argv(line))
    }

    #[test]
    fn parses_full_config() {
        let cfg = parse(
            "--id 0 --listen 127.0.0.1:4500 --peer 1=127.0.0.1:4501 --peer 2=127.0.0.1:4502 \
             --deadline-s 12.5 --seed 9 --problem knapsack --problem-n 24 \
             --problem-range 80 --problem-correlation weak --problem-frac 0.5 --problem-seed 11",
        )
        .unwrap();
        assert_eq!(cfg.id, 0);
        assert_eq!(cfg.listen, "127.0.0.1:4500".parse().unwrap());
        assert_eq!(cfg.peers.len(), 2);
        assert_eq!(cfg.peers[1], (2, "127.0.0.1:4502".parse().unwrap()));
        assert_eq!(cfg.deadline_s, 12.5);
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
        let cfg = parse(
            "--id 0 --problem maxsat --problem-vars 14 --problem-clauses 40 --problem-seed 3",
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
        let cfg = parse("--problem tree-file --problem-file /tmp/t.ftbb").unwrap();
        assert_eq!(cfg.problem, ProblemSpec::tree_file("/tmp/t.ftbb"));

        // `wire` has no params and no local instance; it needs a peer to
        // hear the announce from.
        let cfg = parse("--id 1 --peer 0=127.0.0.1:4500 --problem wire").unwrap();
        assert_eq!(cfg.problem, ProblemSpec::Wire);
        assert!(cfg.problem.instance().is_err());
        assert!(parse("--problem wire").is_err());
    }

    #[test]
    fn unknown_kind_error_lists_supported_kinds() {
        let e = parse("--problem sudoku").unwrap_err();
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
        // Every kind has the spec its parameters are applied to, and the
        // kind row leads the table (`flag_args` renders it first).
        for kind in KINDS {
            assert_eq!(
                ProblemSpec::of_kind(kind).map(|s| s.kind_name()),
                Some(kind)
            );
        }
        assert_eq!(ProblemSpec::of_kind(KINDS[0]), Some(ProblemSpec::default()));
        assert_eq!(PROBLEM_KEYS[0].name, KIND);
    }

    #[test]
    fn foreign_params_are_rejected_not_ignored() {
        // Knapsack params under a maxsat kind (and vice versa) are
        // configuration mistakes, loudly reported.
        for line in [
            "--problem maxsat --problem-n 24",
            "--problem knapsack --problem-vars 8",
            "--problem wire --problem-seed 3 --peer 1=127.0.0.1:4501",
            "--problem maxsat --problem-frac 0.5",
        ] {
            let e = parse(line).expect_err(line);
            assert!(
                e.0.contains("does not apply to problem kind"),
                "{line}: {e}"
            );
        }
        assert!(
            parse("--problem tree-file").is_err(),
            "the file is required"
        );

        // The kind is applied first, wherever it stands.
        let cfg = parse("--problem-vars 8 --problem maxsat").unwrap();
        assert_eq!(
            cfg.problem,
            ProblemSpec::MaxSat(MaxSatSpec {
                vars: 8,
                ..Default::default()
            })
        );
        let e = parse("--problem-n 24 --problem maxsat").unwrap_err();
        assert_eq!(e.0, "`--problem-n` does not apply to problem kind `maxsat`");
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
    fn rejects_malformed_input() {
        for line in [
            "--id",
            "--peer 3",
            "--listen not-an-addr",
            "--mystery 1",
            "--id 0 --peer 0=127.0.0.1:1",
            "--deadline-s -1",
            "--preconnect-s -0.5",
            // A switch takes no value: the `3` is read as a flag.
            "--peers-from-stdin 3",
            "--problem-correlation psychic",
        ] {
            assert!(parse(line).is_err(), "{line}");
        }

        // One value just past each integer kind's width or cap: the
        // kind's one parser names the flag and its range (a reader that
        // narrowed with `as` once ran `id = 4294967296` as node 0).
        for (name, bad, range) in [
            ("id", "4294967296", "0..=4294967295"),
            ("seed", "18446744073709551616", "0..=18446744073709551615"),
            ("problem.vars", "70000", "2..=64"),
            ("problem.clauses", "1048577", "1..=1048576"),
        ] {
            let (args, flag) = match PROBLEM_KEYS.iter().find(|key| key.name == name) {
                Some(key) => (spell(key, problem_homes(key)[0].0, bad), key.flag()),
                None => {
                    let key = NODE_KEYS.iter().find(|key| key.name == name).unwrap();
                    (spell(key, None, bad), key.flag())
                }
            };
            let text = parse_args(&args)
                .expect_err(&format!("{args:?}"))
                .to_string();
            assert!(
                text.starts_with("config error: ") && text.contains(&flag) && text.contains(range),
                "{text}"
            );
        }
    }

    #[test]
    fn parses_lifecycle_options() {
        let cfg = parse("--checkpoint-dir /tmp/ckpts --checkpoint-every-s 0.25 --resume").unwrap();
        assert_eq!(cfg.checkpoint_dir, Some(PathBuf::from("/tmp/ckpts")));
        assert_eq!(cfg.checkpoint_every_s, 0.25);
        assert!(cfg.resume);

        // Resume without a checkpoint directory has nothing to resume
        // from; a non-positive cadence would never snapshot.
        for line in [
            "--resume",
            "--checkpoint-every-s 0",
            "--checkpoint-every-s -2",
        ] {
            assert!(parse(line).is_err(), "{line}");
        }
    }

    #[test]
    fn parses_telemetry_options() {
        let cfg = parse("--trace-file /tmp/n1.jsonl --metrics-every-s 0.25").unwrap();
        assert_eq!(cfg.trace_file, Some(PathBuf::from("/tmp/n1.jsonl")));
        assert_eq!(cfg.metrics_every_s, Some(0.25));

        // Defaults: telemetry off.
        let cfg = parse("").unwrap();
        assert_eq!(cfg.trace_file, None);
        assert_eq!(cfg.metrics_every_s, None);

        // A cadence that never fires is a config mistake, not a mode.
        assert!(parse("--metrics-every-s 0").is_err());
        assert!(parse("--metrics-every-s -1").is_err());
    }

    #[test]
    fn parses_gossip_and_transport_options() {
        let cfg = parse(
            "--gossip-servers 0,3=127.0.0.1:4503 --gossip-interval-s 0.1 \
             --suspect-after-s 0.4 --forget-after-s 2.0",
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

        // Defaults: static mode. The transport runs on the constants in
        // `tcp.rs`; they are not keys.
        let plain = NodeConfig::default();
        assert!(!plain.gossip_mode());
        assert_eq!(plain.membership(), None);
        for gone in ["--batch-max-frames", "--book-max-entries"] {
            let e = parse(&format!("{gone} 1")).unwrap_err();
            assert!(e.0.contains("unknown flag"), "{e}");
        }

        // Inverted membership timeouts are a configuration mistake.
        assert!(parse("--gossip-servers 0 --suspect-after-s 2.0 --forget-after-s 1.0").is_err());
    }

    #[test]
    fn join_mode_is_validated() {
        let cfg = parse("--id 5 --join --gossip-servers 0=127.0.0.1:4500").unwrap();
        assert!(cfg.join && cfg.gossip_mode() && !cfg.is_gossip_server());
        assert_eq!(cfg.gossip_servers.len(), 1);

        // --join without servers, with bare-id servers only, with peer
        // wiring, with --resume, or with --problem wire: all rejected.
        let joiner = "--id 5 --join --gossip-servers 0=127.0.0.1:4500";
        for line in [
            "--id 5 --join".to_string(),
            "--id 5 --join --gossip-servers 0".to_string(),
            format!("{joiner} --peer 1=127.0.0.1:4501"),
            format!("{joiner} --checkpoint-dir /tmp/x --resume"),
            format!("{joiner} --problem wire"),
        ] {
            assert!(parse(&line).is_err(), "{line} must be rejected");
        }
    }

    #[test]
    fn seconds_settings_are_finite_and_bounded_in_flags_and_toml() {
        // Every value here passed validation once and then aborted the
        // daemon inside `Duration::from_secs_f64` (or overflowed the pump
        // clock); each must be a typed config error naming the flag.
        // Rows: the flag and one more value outside its own range.
        let cases = [
            ("--deadline-s", "0"),
            ("--preconnect-s", "-0.5"),
            ("--checkpoint-every-s", "0"),
            ("--metrics-every-s", "0"),
            ("--bound-flush-s", "-1e300"),
            ("--gossip-interval-s", "0"),
            ("--suspect-after-s", "0"),
            ("--forget-after-s", "0"),
        ];
        for (flag, out_of_range) in cases {
            for bad in ["inf", "NaN", "1e300", out_of_range] {
                let line = format!("{flag} {bad}");
                let e = parse(&line).expect_err(&format!("{line} must be rejected"));
                assert!(e.to_string().contains(flag), "{line}: {e}");
            }
        }

        // The deliberate non-positive settings and ordinary values pass.
        for ok in [
            "--bound-flush-s 0",
            "--bound-flush-s -1",
            "--preconnect-s 0",
            "--deadline-s 86400",
        ] {
            assert!(parse(ok).is_ok(), "{ok} must be accepted");
        }
    }

    #[test]
    fn parses_service_mode_options() {
        assert!(parse("--service").unwrap().service);
        assert!(!NodeConfig::default().service);

        // Service nodes get every instance over the wire; `--problem
        // wire` is the single-run announce handshake, not a job stream.
        assert!(parse("--service --peer 1=127.0.0.1:4501 --problem wire").is_err());
        // Elastic join of a service pool is out of scope.
        let e = parse("--id 5 --service --join --gossip-servers 0=127.0.0.1:4500").unwrap_err();
        assert!(e.0.contains("not supported with --service"), "{e}");
    }

    #[test]
    fn parses_startup_wiring_options() {
        let cfg = parse("--peers-from-stdin --preconnect-s 0.25").unwrap();
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

    // ------------------------------------------- properties of the table

    /// The flags that set `key` to `text`, under problem `kind` for a
    /// problem parameter.
    fn spell<T>(key: &Key<T>, kind: Option<&str>, text: &str) -> Vec<String> {
        let mut args = Vec::new();
        if let Some(kind) = kind {
            args.extend([PROBLEM_KEYS[0].flag(), kind.to_string()]);
        }
        key.push_args(Some(text.to_string()), &mut args);
        args
    }

    /// Where a key can be tried out: under which problem kind (if it is a
    /// parameter of some), and on what starting value.
    type Home<T> = (Option<&'static str>, T);

    /// The homes of a problem key: every kind that takes the parameter
    /// (the kind row itself lives on the default spec).
    fn problem_homes(key: &Key<ProblemSpec>) -> Vec<Home<ProblemSpec>> {
        if key.name == KIND {
            return vec![(None, ProblemSpec::default())];
        }
        let homes = KINDS.map(|kind| (Some(kind), ProblemSpec::of_kind(kind).unwrap()));
        homes
            .into_iter()
            .filter(|(_, spec)| (key.get)(spec).is_some())
            .collect()
    }

    fn accepts<T: Clone>(key: &Key<T>, on: &T, text: &str) -> bool {
        key.parse_into(&mut on.clone(), text).is_ok()
    }

    /// A value `key` accepts: the last of the candidates (ordered from
    /// particular to anything-goes) that the row's own parser lets
    /// through — so the generators know ranges, never key names.
    fn sample<T: Clone>(key: &Key<T>, on: &T, draw: u64) -> String {
        let pick = (draw % 4) as usize;
        let candidates: Vec<String> = match key.range {
            _ if key.switch => vec!["true".to_string()],
            Range::Int(min, max) => {
                vec![(min + draw % ((max - min).min(999) + 1)).to_string()]
            }
            Range::Num(min, max) => {
                let x = (draw % 100_000) as f64 / 1000.0;
                let x = if min < 0.0 { x - 50.0 } else { x };
                vec![x.clamp(min, max).to_string()]
            }
            Range::Any => {
                let mut lists = [
                    "0,3=127.0.0.1:4503".to_string(),
                    format!("1=127.0.0.1:4501,2=127.0.0.1:{}", 1024 + draw % 60_000),
                ];
                lists.rotate_left(pick % 2);
                let mut texts = vec![
                    (draw >> 32).to_string(),
                    draw.to_string(),
                    KINDS[pick].to_string(),
                    ["uncorrelated", "weak", "strong", "subsetsum"][pick].to_string(),
                    format!("127.0.0.1:{}", 1024 + draw % 60_000),
                ];
                texts.extend(lists);
                // Any path goes, so it comes last.
                texts.push(format!("/tmp/ftbb #{draw}/x y"));
                texts
            }
        };
        candidates
            .into_iter()
            .rfind(|text| accepts(key, on, text))
            .unwrap_or_else(|| panic!("no sample for `{}`", key.name))
    }

    /// Values `key` must reject: just outside its range, plus junk of
    /// every shape — whatever of it the row's parser refuses.
    fn rejects<T: Clone>(key: &Key<T>, on: &T) -> Vec<String> {
        let mut bad: Vec<String> = [
            "",
            "-1",
            "x y",
            "18446744073709551616",
            "NaN",
            "inf",
            "1=nowhere",
        ]
        .map(String::from)
        .to_vec();
        match key.range {
            Range::Int(min, max) => {
                bad.extend(min.checked_sub(1).map(|v| v.to_string()));
                bad.extend(max.checked_add(1).map(|v| v.to_string()));
            }
            Range::Num(min, max) => {
                bad.push((min - min.abs() * 1e-9 - f64::MIN_POSITIVE).to_string());
                bad.push((max + max.abs() * 1e-9).to_string());
            }
            Range::Any => {}
        }
        bad.retain(|text| !accepts(key, on, text));
        bad
    }

    /// Walk one table: every row's flag is accepted, rejected outside its
    /// range with an error naming the flag, and listed in `--help` with
    /// the default of each of its homes. The flags go through `resolve`
    /// (no cross-field validation): what a single row does, whatever the
    /// rest of the config would need.
    fn walk<T: Clone + PartialEq + fmt::Debug>(
        table: &[Key<T>],
        part: fn(&NodeConfig) -> &T,
        homes: impl Fn(&Key<T>) -> Vec<Home<T>>,
    ) {
        let help = help();
        for key in table {
            let homes = homes(key);
            let (kind, home) = &homes[0];
            let good = sample(key, home, 0x5eed);
            let args = spell(key, *kind, &good);
            let cfg = resolve(&args).unwrap_or_else(|e| panic!("{args:?}: {e}"));
            assert_eq!((key.get)(part(&cfg)), Some(good), "{}", key.name);

            // (A switch's flag takes no value to get wrong.)
            if !key.switch {
                let bad = rejects(key, home);
                assert!(!bad.is_empty(), "`{}` rejects nothing", key.name);
                for text in bad {
                    let args = spell(key, *kind, &text);
                    let e = resolve(&args).expect_err(&format!("{args:?}"));
                    let named = format!("`{}` must be ", key.flag());
                    assert!(e.0.starts_with(&named), "{args:?}: {e}");
                }
            }

            for (_, default) in &homes {
                let mut entry = String::new();
                key.help_entry(default, &mut entry);
                assert!(help.contains(&entry), "--help lacks:\n{entry}");
                let entry = entry.split_whitespace().collect::<Vec<_>>().join(" ");
                assert!(entry.starts_with(&key.flag()), "{entry}");
                match (key.get)(default).filter(|d| !d.is_empty()) {
                    Some(d) if !key.switch => {
                        assert!(entry.contains(&format!("default {d})")), "{entry}")
                    }
                    _ => assert!(!entry.contains("(default"), "{entry}"),
                }
            }
        }
    }

    #[test]
    fn every_row_reads_in_both_spellings_checks_its_range_and_is_in_help() {
        walk(
            NODE_KEYS,
            |cfg| cfg,
            |_| vec![(None, NodeConfig::default())],
        );
        walk(PROBLEM_KEYS, |cfg| &cfg.problem, problem_homes);
        // 21 node keys + 9 problem keys, and no two share a flag.
        assert_eq!((NODE_KEYS.len(), PROBLEM_KEYS.len()), (19, 9));
        let mut flags: Vec<String> = NODE_KEYS.iter().map(Key::flag).collect();
        flags.extend(PROBLEM_KEYS.iter().map(Key::flag));
        flags.sort();
        flags.dedup();
        assert_eq!(flags.len(), 28, "{flags:?}");
    }

    /// `NodeConfig::default()` as the parent commit printed it (minus the
    /// four transport keys that became constants and the deleted crash
    /// and worker-count keys; `problem` moved last): the table must not
    /// move a default.
    #[test]
    fn defaults_are_pinned() {
        let pinned =
            "NodeConfig { id: 0, listen: 127.0.0.1:0, peers: [], peers_from_stdin: false, \
                      preconnect_s: 5.0, deadline_s: 30.0, seed: 1, \
                      gossip_servers: [], join: false, gossip_interval_s: 0.05, \
                      suspect_after_s: 0.5, forget_after_s: 3.0, bound_flush_s: 0.05, \
                      service: false, checkpoint_dir: None, checkpoint_every_s: 0.5, \
                      resume: false, trace_file: None, metrics_every_s: None, \
                      problem: Knapsack(KnapsackSpec { n: 20, range: 60, correlation: Weak, \
                      frac: 0.5, seed: 1 }) }";
        assert_eq!(format!("{:?}", NodeConfig::default()), pinned);
        assert_eq!(
            ProblemSpec::of_kind("maxsat"),
            Some(ProblemSpec::MaxSat(MaxSatSpec {
                vars: 18,
                clauses: 50,
                seed: 1
            }))
        );
        assert!(NodeConfig::default().to_args().is_empty());
    }

    /// Every `ftbb-noded` command in the README's ```sh blocks and in the
    /// binary's doc example is one the flag reader takes (backslash
    /// continuations joined).
    #[test]
    fn every_noded_command_in_the_docs_parses() {
        let binary_doc: String = include_str!("bin/ftbb-noded.rs")
            .lines()
            .map_while(|line| line.strip_prefix("//!"))
            .map(|line| format!("{line}\n"))
            .collect();
        for (name, text, fence) in [
            ("README.md", include_str!("../../../README.md"), "```sh"),
            ("ftbb-noded.rs", binary_doc.as_str(), "```text"),
        ] {
            let mut commands = 0;
            let mut lines = text.lines();
            while let Some(line) = lines.next() {
                if line.trim() != fence {
                    continue;
                }
                let block: Vec<&str> = lines
                    .by_ref()
                    .take_while(|l| l.trim() != "```")
                    .map(str::trim)
                    .collect();
                let block = block.join("\n").replace("\\\n", " ");
                for command in block.lines().filter_map(|l| l.strip_prefix("ftbb-noded ")) {
                    parse(command).unwrap_or_else(|e| panic!("{name}: ftbb-noded {command}: {e}"));
                    commands += 1;
                }
            }
            assert!(commands > 0, "{name} has no ftbb-noded command");
        }
    }

    /// A valid config grown row by row from `draws`: each row's sampled
    /// value is kept if the config still parses with it — so cross-field
    /// rules (`join` needs an addressed server, `resume` a directory, …)
    /// shape the result without being restated here. The problem goes in
    /// as one group: a kind with every parameter it takes.
    fn config_from(draws: &[u64]) -> NodeConfig {
        let mut args: Vec<String> = Vec::new();
        let mut draws = draws.iter().copied();
        let mut draw = || draws.next().expect("one draw per row");
        for key in NODE_KEYS {
            let draw = draw();
            let mut grown = args.clone();
            key.push_args(
                Some(sample(key, &NodeConfig::default(), draw / 3)),
                &mut grown,
            );
            if draw % 3 != 0 && parse_args(&grown).is_ok() {
                args = grown;
            }
        }
        let kind = KINDS[(draw() % 4) as usize];
        let spec = ProblemSpec::of_kind(kind).unwrap();
        let mut grown = args.clone();
        for key in PROBLEM_KEYS {
            let draw = draw();
            if key.name == KIND {
                key.push_args(Some(kind.to_string()), &mut grown);
            } else if (key.get)(&spec).is_some() {
                key.push_args(Some(sample(key, &spec, draw)), &mut grown);
            }
        }
        if parse_args(&grown).is_ok() {
            args = grown;
        }
        parse_args(&args).expect("grown from accepted steps")
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn configs_round_trip_through_flags_and_through_toml(
            draws in proptest::collection::vec(
                proptest::any::<u64>(),
                NODE_KEYS.len() + PROBLEM_KEYS.len() + 1,
            )
        ) {
            let cfg = config_from(&draws);
            let args = cfg.to_args();
            proptest::prop_assert_eq!(parse_args(&args).as_ref(), Ok(&cfg), "{:?}", args);
        }
    }
}
