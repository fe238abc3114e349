//! The acceptance test for the wire subsystem: a real multi-process
//! cluster over loopback TCP, with real SIGKILLs — and checkpoint
//! restarts — mid-run.
//!
//! This is the paper's fault-tolerance theorem on genuine infrastructure:
//! killed processes flush nothing and close sockets mid-frame, yet the
//! survivors detect the missing results, recover them by complementing
//! their completion tables, and terminate with the sequential optimum.
//! The restart regression adds the paper's target environment's other
//! half — nodes *returning*: a killed node restored from its checkpoint
//! rejoins the live cluster under a new incarnation and contributes
//! expansions again, while traffic addressed to its previous life is
//! counted off as stale.

use ftbb_bnb::{solve, Correlation, SolveConfig};
use ftbb_wire::launcher::{launch, ClusterSpec, GossipTiming, JobStep, LifecycleEvent};
use ftbb_wire::{KnapsackSpec, MaxSatSpec, ProblemSpec};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

fn noded() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_ftbb-noded"))
}

/// Baseline spec: no lifecycle events, no checkpoints. Tests override
/// what they exercise.
fn base_spec(problem: ProblemSpec, nodes: u32, seed: u64) -> ClusterSpec {
    ClusterSpec {
        noded: noded(),
        nodes,
        lifecycle: Vec::new(),
        crash_at: Vec::new(),
        problem,
        wire_peers: false,
        service: false,
        jobs: Vec::new(),
        gossip: None,
        checkpoint_dir: None,
        checkpoint_every_s: 0.05,
        trace_dir: None,
        metrics_every_s: None,
        deadline: Duration::from_secs(60),
        seed,
        workers: 1,
    }
}

/// A problem big enough that a cluster runs for a while, so kills at tens
/// of milliseconds land mid-computation: a failure-free solve outlasts the
/// latest such kill (120 ms) by ≥ 2×, whatever the build profile, and a
/// debug node expands ~10× slower than a release one. Debug runs the first
/// 42-item instance from generator seed 0 up whose sequential depth-first
/// solve takes 3.0–3.6 M expansions — seed 963, 3 181 153 expansions
/// (single node ~1.8 s, 5 nodes on 2 cores ~2 s); release the first 50-item
/// one with 9–11 M — seed 1168, 10 408 947 expansions (single node
/// ~0.7 s, 5 nodes 0.4–0.9 s). Scenarios that must still be running
/// hundreds of milliseconds in use [`lifecycle_problem`]. A cluster is no
/// faster than one node when its processes outnumber the cores.
fn heavy_problem() -> ProblemSpec {
    let (n, seed) = if cfg!(debug_assertions) {
        (42, 963)
    } else {
        (50, 1168)
    };
    ProblemSpec::Knapsack(KnapsackSpec {
        n,
        range: 120,
        correlation: Correlation::Strong,
        frac: 0.5,
        seed,
    })
}

/// The instance of the scenarios whose assertions need the survivors still
/// running at a wall-clock deadline — a restart reaching its peers, or a
/// dead node's suspicion at kill + `suspect_s`. A failure-free solve must
/// outlast that deadline (0.65 s at most here) by ≥ 2×, whatever the build
/// profile: debug runs [`heavy_problem`] (5 nodes, failure-free: ~2 s),
/// release the first 60-item instance from generator seed 0 up whose
/// sequential depth-first solve takes 55–65 M expansions — seed 423,
/// 62 917 315 expansions (5 nodes on 2 cores, failure-free: ~2.2 s;
/// `heavy_problem` there finishes in under a second, too close to the
/// deadlines).
fn lifecycle_problem() -> ProblemSpec {
    if cfg!(debug_assertions) {
        return heavy_problem();
    }
    ProblemSpec::Knapsack(KnapsackSpec {
        n: 60,
        range: 120,
        correlation: Correlation::Strong,
        frac: 0.5,
        seed: 423,
    })
}

/// The instance of the MAX-SAT kill regression. A failure-free solve
/// must outlast its latest kill (120 ms) by ≥ 2×, whatever the build
/// profile. Debug runs the first 34-variable, 150-clause instance from
/// generator seed 0 up whose sequential depth-first solve takes 60–100 k
/// expansions — seed 4, 89 869 expansions (single node ~0.65 s on a
/// 2-core x86 host). Release runs the first 40-variable, 180-clause one
/// with 0.9–1.3 M — seed 14, 1 169 222 expansions (single node ~0.85 s;
/// no 34-variable, 150-clause instance from seeds 0–1 599 reaches 0.7 M,
/// and the largest, seed 168's 509 576, takes ~0.33 s, under 2× the kill
/// on a faster host).
fn maxsat_kill_problem() -> ProblemSpec {
    let (vars, clauses, seed) = if cfg!(debug_assertions) {
        (34, 150, 4)
    } else {
        (40, 180, 14)
    };
    ProblemSpec::MaxSat(MaxSatSpec {
        vars,
        clauses,
        seed,
    })
}

/// The sequential optimum for a spec — the oracle every surviving node
/// must agree with. Solved once per spec per test binary: the scenarios
/// share their instances.
fn reference_best(problem: &ProblemSpec) -> Option<f64> {
    static SOLVED: Mutex<Vec<(ProblemSpec, Option<f64>)>> = Mutex::new(Vec::new());
    let mut solved = SOLVED
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    if let Some((_, best)) = solved.iter().find(|(spec, _)| spec == problem) {
        return *best;
    }
    let instance = problem.instance().expect("materializable spec");
    let best = solve(&instance, &SolveConfig::default()).best;
    solved.push((problem.clone(), best));
    best
}

#[test]
fn five_processes_two_sigkills_still_reach_the_optimum() {
    let problem = heavy_problem();
    let reference = reference_best(&problem);
    assert!(reference.is_some(), "instance must be feasible");

    let mut spec = base_spec(problem, 5, 7);
    spec.lifecycle = vec![
        LifecycleEvent::kill(1, Duration::from_millis(60)),
        LifecycleEvent::kill(3, Duration::from_millis(120)),
    ];
    let report = launch(&spec).expect("cluster launches");

    assert!(
        !report.killed.is_empty(),
        "no SIGKILL landed mid-run — the cluster finished too fast for the kill plan"
    );
    assert!(
        report.all_survivors_terminated,
        "survivors failed to terminate: {:?}",
        report.outcomes
    );
    assert_eq!(
        report.best, reference,
        "survivors disagree with the sequential optimum"
    );
    // Every surviving node individually knows the optimum (the incumbent
    // circulates in every message).
    for outcome in report.outcomes.iter().flatten() {
        if outcome.terminated {
            assert_eq!(Some(outcome.incumbent), reference, "node {}", outcome.id);
        }
    }
}

/// The closed-connection regression: a gossip-mode duo whose node 1 is
/// SIGKILLed mid-run (the [`heavy_problem`] kill placement). The killed
/// daemon's sockets close at once, so the survivor learns of the crash
/// from its transport (`peers_closed` on its last `FTBB-METRICS`
/// snapshot) and, with nobody left to ask, re-solves the lost work
/// without playing a single load-balancing round (`silent_rounds` 0).
/// Its idle time is printed, not asserted. The silent round itself is
/// pinned by `ftbb-core`'s process tests.
///
/// Suspicion is set past the run, so the close, not a heartbeat timeout,
/// is what the survivor acts on.
#[test]
fn two_node_kill_survivor_recovers_once_its_peer_closes() {
    let problem = heavy_problem();
    let reference = reference_best(&problem);
    assert!(reference.is_some(), "instance must be feasible");

    let mut spec = base_spec(problem, 2, 37);
    spec.gossip = Some(GossipTiming {
        suspect_s: 30.0,
        forget_s: 60.0,
        ..GossipTiming::default()
    });
    spec.metrics_every_s = Some(0.25);
    spec.lifecycle = vec![LifecycleEvent::kill(1, Duration::from_millis(60))];
    let report = launch(&spec).expect("cluster launches");

    assert_eq!(
        report.killed,
        vec![1],
        "node 1 must die mid-run: {report:?}"
    );
    assert!(
        report.all_survivors_terminated,
        "the survivor failed to terminate: {:?}",
        report.outcomes
    );
    assert_eq!(report.best, reference);
    let survivor = report.outcomes[0].as_ref().expect("node 0 reports");
    let last = report.metrics[0].last().expect("node 0 reports metrics");
    println!(
        "survivor: idle_s={:.4} recoveries={} silent_rounds={} peers_closed={} suspected={}",
        last.phase.idle_s,
        survivor.recoveries,
        last.silent_rounds,
        last.peers_closed,
        survivor.suspected
    );
    assert!(survivor.recoveries >= 1, "{survivor:?}");
    assert!(last.peers_closed >= 1, "{last:?}");
    assert_eq!(last.silent_rounds, 0, "{last:?}");
}

/// The startup-skew regression: before connection pre-establishment, the
/// root's first work grants were silently dropped while its peers'
/// listeners were still coming up (connect backoff), so the root solved
/// most of the tree alone and the peers starved into recovery. The
/// readiness barrier is the one startup mechanism — nothing is parked and
/// retried behind it — so a no-failure cluster must have dropped *zero*
/// frames, in any bucket, when its nodes first report, and must spread
/// the expansions: no single node may account for more than ~90% of the
/// tree.
#[test]
fn no_kill_cluster_loses_no_startup_grants_and_shares_the_work() {
    let problem = heavy_problem();
    let reference = reference_best(&problem);

    let mut spec = base_spec(problem, 5, 9);
    spec.metrics_every_s = Some(0.05);
    // launch() itself prints the per-node skew summary to stderr, which
    // the CI step surfaces with --nocapture.
    let report = launch(&spec).expect("cluster launches");

    assert!(
        report.all_survivors_terminated,
        "nodes failed to terminate: {:?}",
        report.outcomes
    );
    assert_eq!(report.best, reference);
    assert_eq!(report.outcomes.iter().flatten().count(), 5);

    // Startup: each node's first interval snapshot (50 ms in, everyone
    // still solving) counts every send-side drop since `Start`.
    let first: Vec<_> = report.metrics.iter().filter_map(|m| m.first()).collect();
    assert!(!first.is_empty(), "no node reported an interval snapshot");
    assert!(first.iter().any(|m| m.sent > 0), "{first:?}");
    for m in first {
        assert_eq!(m.dropped, 0, "node {} dropped frames at startup", m.id);
    }
    // Over the whole run only `dropped_disconnected` may be nonzero: a
    // node's parting frames to peers that detected termination first and
    // have already exited.
    for o in report.outcomes.iter().flatten() {
        let t = &o.transport;
        assert_eq!(
            (t.dropped() - t.dropped_disconnected, t.retried),
            (0, 0),
            "node {}: {t:?}",
            o.id
        );
    }
    // First lives everywhere: nothing is ever stale without a restart.
    let stale: u64 = report
        .outcomes
        .iter()
        .flatten()
        .map(|o| o.transport.dropped_stale)
        .sum();
    assert_eq!(
        stale, 0,
        "no restart, no stale frames: {:?}",
        report.outcomes
    );

    let share = report.max_expansion_share();
    assert!(
        share <= 0.90,
        "work skew: one node expanded {:.1}% of {} total nodes\n{}",
        share * 100.0,
        report.total_expanded(),
        report.skew_summary()
    );

    // Report cadence: a `c`-triggered batch leaves at most once per
    // `report_interval_s / 8` (plus the ungated first batch); the only
    // other reports are a starving node's flush before each work request
    // and the flush timer's, once per `report_interval_s`.
    let protocol = ftbb_runtime::ClusterConfig::new(5).protocol;
    let interval = protocol.report_interval_s;
    let last: Vec<_> = report.metrics.iter().filter_map(|m| m.last()).collect();
    assert_eq!(last.len(), 5, "every node prints a final snapshot");
    for m in last {
        let batches = (m.elapsed_s / (interval / 8.0)).ceil() as u64 + 1;
        let timer = (m.elapsed_s / interval).ceil() as u64;
        let bound = protocol.report_fanout as u64 * (batches + m.requests + timer);
        let counts = format!(
            "node {}: {} reports, {} requests, {} expanded in {:.3} s (bound {bound})",
            m.id, m.reports, m.requests, m.expanded, m.elapsed_s
        );
        eprintln!("{counts}");
        assert!(m.reports <= bound, "{counts}");
    }
}

#[test]
fn four_processes_no_failures_reach_the_optimum() {
    let problem = ProblemSpec::Knapsack(KnapsackSpec {
        n: 18,
        range: 60,
        correlation: Correlation::Uncorrelated,
        frac: 0.5,
        seed: 5,
    });
    let reference = reference_best(&problem);

    let report = launch(&base_spec(problem, 4, 3)).expect("cluster launches");

    assert!(report.all_survivors_terminated);
    assert_eq!(report.best, reference);
    assert_eq!(report.outcomes.iter().flatten().count(), 4);
    // Nobody restarted: every outcome is a first life.
    for o in report.outcomes.iter().flatten() {
        assert_eq!(o.incarnation, 0, "node {}", o.id);
    }
    // Real sockets carried real traffic: framing overhead is visible in
    // the aggregated transport counters. (A single node may legitimately
    // send nothing — e.g. the root solving its whole subtree before any
    // work request reaches it.)
    let total_sent: u64 = report
        .outcomes
        .iter()
        .flatten()
        .map(|o| o.transport.sent)
        .sum();
    let total_wire: u64 = report
        .outcomes
        .iter()
        .flatten()
        .map(|o| o.transport.sent_wire_bytes)
        .sum();
    let total_encoded: u64 = report
        .outcomes
        .iter()
        .flatten()
        .map(|o| o.transport.sent_encoded_bytes)
        .sum();
    assert!(total_sent > 0, "the cluster exchanged no messages at all");
    assert!(
        total_encoded > total_wire,
        "frame headers must show up in encoded bytes"
    );
}

/// The saturation regression: a five-node cluster with a SIGKILL mid-run
/// still agrees with the sequential optimum, and the batched writers
/// actually coalesce: across the cluster, more frames are flushed than
/// flushes happen (mean frames-per-flush above one).
#[test]
fn five_nodes_survive_a_kill_and_batch_their_frames() {
    let problem = heavy_problem();
    let reference = reference_best(&problem);
    assert!(reference.is_some(), "instance must be feasible");

    let mut spec = base_spec(problem, 5, 11);
    spec.lifecycle = vec![LifecycleEvent::kill(2, Duration::from_millis(80))];
    let report = launch(&spec).expect("cluster launches");

    assert!(
        report.all_survivors_terminated,
        "survivors failed to terminate: {:?}",
        report.outcomes
    );
    assert_eq!(
        report.best, reference,
        "the cluster disagrees with the sequential optimum"
    );
    for outcome in report.outcomes.iter().flatten() {
        if outcome.terminated {
            assert_eq!(Some(outcome.incumbent), reference, "node {}", outcome.id);
        }
    }
    let (flushes, frames) = report
        .outcomes
        .iter()
        .flatten()
        .fold((0u64, 0u64), |(fl, fr), o| {
            (fl + o.transport.flushes, fr + o.transport.frames_flushed)
        });
    assert!(flushes > 0, "the cluster exchanged no messages at all");
    assert!(
        frames > flushes,
        "batching never coalesced: {frames} frames over {flushes} flushes"
    );
}

/// The MAX-SAT mirror of the SIGKILL acceptance test, with the workload
/// additionally shipped over the wire: only node 0 knows the problem
/// spec; the other four start `--problem wire` and receive the
/// materialized instance in node 0's announce frame. Two of those
/// wire-fed peers are then SIGKILLed mid-run, and the survivors (which
/// include wire-fed peers) must still reach the sequential optimum —
/// the recovery machinery is genuinely problem-agnostic.
#[test]
fn five_process_maxsat_cluster_two_sigkills_reach_the_optimum() {
    let problem = maxsat_kill_problem();
    let reference = reference_best(&problem);
    assert!(reference.is_some(), "instance must be feasible");

    let mut spec = base_spec(problem, 5, 21);
    spec.wire_peers = true;
    spec.lifecycle = vec![
        LifecycleEvent::kill(1, Duration::from_millis(60)),
        LifecycleEvent::kill(3, Duration::from_millis(120)),
    ];
    let report = launch(&spec).expect("cluster launches");

    assert!(
        !report.killed.is_empty(),
        "no SIGKILL landed mid-run — the cluster finished too fast for the kill plan"
    );
    assert!(
        report.all_survivors_terminated,
        "survivors failed to terminate: {:?}",
        report.outcomes
    );
    assert_eq!(
        report.best, reference,
        "survivors disagree with the sequential optimum"
    );
    for o in report.outcomes.iter().flatten() {
        if o.terminated {
            assert_eq!(Some(o.incumbent), reference, "node {}", o.id);
        }
    }
    // The announce handshake is visible in the transport counters: the
    // root handed one announce per peer to the wire, and every surviving
    // wire-fed peer received exactly one.
    let root = report.outcomes[0].as_ref().expect("root survives");
    assert_eq!(
        root.transport.announces_sent, 4,
        "root announces to every peer: {:?}",
        root.transport
    );
    for o in report.outcomes.iter().flatten().skip(1) {
        assert_eq!(
            o.transport.announces_recv, 1,
            "wire peer {} sees one announce: {:?}",
            o.id, o.transport
        );
    }
}

/// A recorded-tree workload from a file, solved by peers that have
/// neither the file nor the generator: node 0 loads the tree with
/// `--problem tree-file`, peers start `--problem wire` and learn the
/// whole tree from the announce frame. Survivor parity with the
/// sequential optimum proves the instance transfer was faithful.
#[test]
fn tree_file_cluster_ships_the_tree_to_wire_peers() {
    use ftbb_tree::generator::{random_basic_tree, TreeConfig};

    let tree = random_basic_tree(&TreeConfig {
        target_nodes: 4001,
        mean_cost: 0.0004,
        seed: 23,
        ..Default::default()
    });
    let dir = std::env::temp_dir().join("ftbb-wire-treefile-cluster");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("workload.ftbb");
    ftbb_tree::io::write_tree_file(&tree, &path).unwrap();

    let problem = ProblemSpec::tree_file(&path);
    let reference = reference_best(&problem);
    assert_eq!(reference, tree.optimal());

    let mut spec = base_spec(problem, 3, 5);
    spec.wire_peers = true;
    let report = launch(&spec).expect("cluster launches");
    std::fs::remove_file(&path).ok();

    assert!(
        report.all_survivors_terminated,
        "nodes failed to terminate: {:?}",
        report.outcomes
    );
    assert_eq!(report.best, reference);
    assert_eq!(report.outcomes.iter().flatten().count(), 3);
    // The wire peers did real work on an instance they never loaded.
    for o in report.outcomes.iter().flatten() {
        assert_eq!(Some(o.incumbent), reference, "node {}", o.id);
    }
}

/// The elastic-join regression — the gossip-membership acceptance test.
///
/// Three nodes start through the launcher's wiring with the membership
/// protocol on (node 0 is the gossip server). Two more nodes then join
/// mid-run knowing *only* node 0's address — they appear in no peer
/// wiring whatsoever and discover the rest of the cluster through the
/// join handshake, the membership Welcome, and the codec-v4 address
/// books piggybacked on gossip. One original (wired) node is SIGKILLed;
/// its heartbeats stop, so the survivors must *suspect* it via the
/// §5.2 timeout (asserted on the new suspicion counters), drop it from
/// load balancing, recover its unreported work, and still reach the
/// sequential optimum — with the joiners contributing expansions.
#[test]
fn joined_nodes_contribute_and_dead_node_is_suspected() {
    let problem = lifecycle_problem();
    let reference = reference_best(&problem);
    assert!(reference.is_some(), "instance must be feasible");

    let mut spec = base_spec(problem, 3, 29);
    spec.gossip = Some(GossipTiming {
        interval_s: 0.03,
        suspect_s: 0.35,
        forget_s: 3.0,
    });
    spec.lifecycle = vec![
        LifecycleEvent::join(3, Duration::from_millis(80)),
        LifecycleEvent::join(4, Duration::from_millis(120)),
        LifecycleEvent::kill(1, Duration::from_millis(220)),
    ];
    let report = launch(&spec).expect("cluster launches");

    assert_eq!(
        report.killed,
        vec![1],
        "node 1 must die mid-run: {report:?}"
    );
    assert!(
        report.all_survivors_terminated,
        "survivors (incl. joiners) failed to terminate: {:?}",
        report.outcomes
    );
    assert_eq!(
        report.best, reference,
        "cluster disagrees with the sequential optimum"
    );
    assert_eq!(report.outcomes.len(), 5, "3 wired nodes + 2 joiners");

    // The joiners entered through the server and did real work.
    let joiner_expanded: u64 = [3usize, 4]
        .iter()
        .filter_map(|&id| report.outcomes[id].as_ref())
        .map(|o| o.expanded)
        .sum();
    assert!(
        joiner_expanded > 0,
        "joiners must contribute expansions:\n{}",
        report.skew_summary()
    );
    for &id in &[3usize, 4] {
        let o = report.outcomes[id].as_ref().expect("joiner reports");
        assert!(o.terminated, "joiner {id} detects termination");
        assert_eq!(Some(o.incumbent), reference, "joiner {id}");
    }

    // The join handshake is visible on the server's counters…
    let server = report.outcomes[0].as_ref().expect("server survives");
    assert!(
        server.transport.joins >= 2,
        "server must see both join frames: {:?}",
        server.transport
    );
    // …and gossip discovery opened routes nobody wired: some survivor
    // learned a peer purely from a piggybacked address book.
    let discovered: u64 = report
        .outcomes
        .iter()
        .flatten()
        .map(|o| o.transport.peers_discovered)
        .sum();
    assert!(
        discovered >= 1,
        "address books must teach unwired routes: {:?}",
        report.outcomes
    );

    // The SIGKILLed node went silent; the membership protocol must have
    // suspected it somewhere (heartbeat timeout), which is what removed
    // it from load balancing and made its work recovery-eligible.
    let suspected: u64 = report.outcomes.iter().flatten().map(|o| o.suspected).sum();
    assert!(
        suspected >= 1,
        "the dead node must be suspected via heartbeat timeout: {:?}",
        report.outcomes
    );
}

/// The telemetry regression — the observability acceptance test.
///
/// Five nodes run with structured tracing (`--trace-file`) and interval
/// metrics (`--metrics-every-s`) on; one node is SIGKILLed mid-run. The
/// launcher must come back with (a) several parseable `FTBB-METRICS`
/// snapshots per survivor whose Figure-3 category times reconcile with
/// the node's elapsed wall clock, and (b) a merged cluster timeline in
/// which the kill precedes the survivors' suspicion of the dead node,
/// which precedes a recovery — the paper's §5 failure story, readable
/// off one ordered event stream.
#[test]
fn telemetry_timeline_orders_kill_suspicion_recovery() {
    let problem = lifecycle_problem();
    let reference = reference_best(&problem);
    assert!(reference.is_some(), "instance must be feasible");

    let dir = std::env::temp_dir().join("ftbb-wire-telemetry-regression");
    std::fs::remove_dir_all(&dir).ok();

    let mut spec = base_spec(problem, 5, 31);
    spec.gossip = Some(GossipTiming {
        interval_s: 0.03,
        suspect_s: 0.35,
        forget_s: 3.0,
    });
    spec.trace_dir = Some(dir.clone());
    spec.metrics_every_s = Some(0.12);
    spec.lifecycle = vec![LifecycleEvent::kill(2, Duration::from_millis(150))];
    let report = launch(&spec).expect("cluster launches");
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(
        report.killed,
        vec![2],
        "node 2 must die mid-run: {report:?}"
    );
    assert!(
        report.all_survivors_terminated,
        "survivors failed to terminate: {:?}",
        report.outcomes
    );
    assert_eq!(report.best, reference);

    // (a) Interval metrics: every survivor produced several parseable
    // snapshots, and each node's Figure-3 category times sum to its
    // elapsed wall clock (the phase clock attributes *every* slice of
    // the event pump to exactly one category).
    for &id in &[0usize, 1, 3, 4] {
        let series = &report.metrics[id];
        assert!(
            series.len() >= 3,
            "survivor {id} produced {} FTBB-METRICS snapshots, want >= 3\n{}",
            series.len(),
            report.cluster_report()
        );
        for pair in series.windows(2) {
            assert!(pair[0].seq < pair[1].seq, "snapshots arrive in order");
        }
        let last = series.last().unwrap();
        let drift = (last.phase.total() - last.elapsed_s).abs();
        assert!(
            drift <= 0.1 * last.elapsed_s + 0.05,
            "node {id}: category times {:.3}s vs elapsed {:.3}s — the phase \
             clock must account for the whole event pump",
            last.phase.total(),
            last.elapsed_s
        );
        assert!(last.phase.expand_s > 0.0, "node {id} did real work");
    }

    // (b) The merged timeline tells the failure story in order: the
    // launcher's kill, then a *survivor* suspecting node 2 via the
    // heartbeat timeout, then a recovery of the dead node's work.
    let timeline = &report.timeline;
    assert!(!timeline.is_empty(), "trace_dir must yield a timeline");
    for pair in timeline.windows(2) {
        assert!(pair[0].t_us <= pair[1].t_us, "timeline is time-ordered");
    }
    // Every node's engine announced itself.
    for id in 0..5u32 {
        assert!(
            timeline
                .iter()
                .any(|e| e.node == id && e.kind == "engine_start"),
            "node {id} must appear in the merged timeline"
        );
    }
    let kill_at = timeline
        .iter()
        .position(|e| e.kind == "kill" && e.node == 2)
        .expect("launcher kill event in timeline");
    let suspect_at = timeline
        .iter()
        .position(|e| e.kind == "suspect" && e.node != 2 && e.field("peer") == Some("2"))
        .expect("a survivor must suspect the dead node");
    let recovery_at = timeline
        .iter()
        .position(|e| e.kind == "recovery")
        .unwrap_or_else(|| {
            // Whether node 2 had done any work before it died tells a lost
            // recovery from a node that held nothing to recover.
            let before_kill = match report.metrics[2].last() {
                Some(m) => format!("{} expanded at {:.3} s", m.expanded, m.elapsed_s),
                None => "no FTBB-METRICS snapshot".to_string(),
            };
            panic!(
                "the dead node's work must be recovered; node 2's last \
                 FTBB-METRICS before the kill: {before_kill}\n{}",
                report.cluster_report()
            )
        });
    // The killed node's sockets closed at once: a survivor that heard
    // from it traced the close, long before its heartbeats ran out.
    assert!(
        timeline
            .iter()
            .any(|e| e.kind == "peer_closed" && e.node != 2 && e.field("peer") == Some("2")),
        "a survivor must see the dead node's connection close: {}",
        report.cluster_report()
    );
    assert!(
        kill_at < suspect_at,
        "suspicion follows the kill: {}",
        report.cluster_report()
    );
    assert!(
        kill_at < recovery_at,
        "recovery follows the kill: {}",
        report.cluster_report()
    );
}

/// The service-mode regression — the multi-job pool acceptance test.
///
/// A 3-node `--service` pool (per-job checkpoints, job-scoped metrics,
/// structured tracing) receives three staggered jobs of three different
/// problem kinds — MAX-SAT, knapsack, and a recorded tree file — through
/// two different gateway nodes. Mid-stream, node 2 is SIGKILLed and then
/// restarted with `--resume`, which restores *all* its per-job
/// checkpoints and rejoins each job. All three submit clients must still
/// stream back a finished result matching that job's sequential optimum,
/// every pool node (including the restarted one) must close with its
/// `FTBB-SERVICE` summary, and the interval metrics must carry the job
/// dimension.
#[test]
fn service_pool_finishes_three_staggered_jobs_through_a_kill_and_restart() {
    use ftbb_tree::generator::{random_basic_tree, TreeConfig};

    let tmp = std::env::temp_dir().join("ftbb-wire-service-regression");
    std::fs::remove_dir_all(&tmp).ok();
    let ckpt_dir = tmp.join("ckpt");
    let trace_dir = tmp.join("trace");
    std::fs::create_dir_all(&ckpt_dir).unwrap();

    let tree = random_basic_tree(&TreeConfig {
        target_nodes: 4001,
        mean_cost: 0.0004,
        seed: 23,
        ..Default::default()
    });
    let tree_path = tmp.join("workload.ftbb");
    ftbb_tree::io::write_tree_file(&tree, &tree_path).unwrap();

    // Jobs 1 and 2 take ~0.12 s and ~0.09 s single-node in a debug build
    // (process start included), so the kill at 400 ms may land after
    // they finish; no assertion below needs a job in flight at the kill.
    let problems = [
        ProblemSpec::MaxSat(MaxSatSpec {
            vars: 26,
            clauses: 110,
            seed: 13,
        }),
        ProblemSpec::Knapsack(KnapsackSpec {
            n: 36,
            range: 120,
            correlation: Correlation::Strong,
            frac: 0.5,
            seed: 3,
        }),
        ProblemSpec::tree_file(&tree_path),
    ];
    let references: Vec<Option<f64>> = problems.iter().map(reference_best).collect();
    for (i, r) in references.iter().enumerate() {
        assert!(r.is_some(), "job {} must be feasible", i + 1);
    }

    // Jobs 1 and 3 enter through gateway node 0, job 2 through node 1;
    // node 2 is never a gateway, so killing it severs no client stream.
    let mut spec = base_spec(ProblemSpec::default(), 3, 41);
    spec.service = true;
    // The pool is a daemon: it runs to this deadline even after all jobs
    // finish, so the deadline is also the test's wall-clock floor. Jobs
    // finish around 8 s here in a debug build; leave headroom for CI.
    spec.deadline = Duration::from_secs(15);
    spec.checkpoint_dir = Some(ckpt_dir);
    spec.checkpoint_every_s = 0.05;
    spec.trace_dir = Some(trace_dir);
    spec.metrics_every_s = Some(0.15);
    spec.jobs = vec![
        JobStep::submit(1, Duration::from_millis(0), 0, problems[0].clone()),
        JobStep::submit(2, Duration::from_millis(120), 1, problems[1].clone()),
        JobStep::submit(3, Duration::from_millis(240), 0, problems[2].clone()),
    ];
    spec.lifecycle = vec![
        LifecycleEvent::kill(2, Duration::from_millis(400)),
        LifecycleEvent::restart(2, Duration::from_millis(700)),
    ];
    let report = launch(&spec).expect("service cluster launches");
    std::fs::remove_dir_all(&tmp).ok();

    // Every submit client streamed back a finished result with
    // per-job sequential parity — the kill lost none of the stream.
    assert_eq!(report.jobs.len(), 3);
    for (step, reference) in report.jobs.iter().zip(&references) {
        let outcome = step
            .result
            .as_ref()
            .unwrap_or_else(|e| panic!("job {} failed: {e}", step.job));
        assert!(outcome.finished, "job {} must finish", step.job);
        assert_eq!(
            Some(outcome.incumbent),
            *reference,
            "job {} disagrees with its sequential optimum",
            step.job
        );
    }

    // The killed node came back and every pool node closed with its
    // FTBB-SERVICE summary.
    assert_eq!(report.killed, Vec::<u32>::new(), "node 2 must come back");
    assert!(
        report.all_survivors_terminated,
        "every service node must report: {:?}",
        report.services
    );
    let restarted = report.services[2].as_ref().expect("node 2 reports");
    assert!(
        restarted.incarnation >= 1,
        "the restarted node must report a later life: {restarted:?}"
    );

    // Each job's completion is visible on at least its gateway's stdout,
    // with the same per-job parity.
    for (job, reference) in (1u64..=3).zip(&references) {
        let line = report
            .job_lines
            .iter()
            .flatten()
            .find(|j| j.job == job && j.terminated)
            .unwrap_or_else(|| panic!("no terminated FTBB-JOB line for job {job}"));
        assert_eq!(Some(line.incumbent), *reference, "job {job}");
    }

    // Interval metrics carry the job dimension: job-scoped snapshots
    // parse and at least two distinct jobs show up.
    let job_dims: std::collections::HashSet<u64> = report
        .metrics
        .iter()
        .flatten()
        .map(|m| m.job)
        .filter(|&j| j != 0)
        .collect();
    assert!(
        job_dims.len() >= 2,
        "job-scoped FTBB-METRICS must cover several jobs, got {job_dims:?}"
    );

    // The merged timeline interleaves the job stream with the membership
    // events: every submission is stamped with its job dimension, and
    // the kill/restart pair brackets at least one of them.
    let submits: Vec<usize> = (1u64..=3)
        .map(|job| {
            report
                .timeline
                .iter()
                .position(|e| e.kind == "submit" && e.job == job)
                .unwrap_or_else(|| panic!("no submit event for job {job} in the timeline"))
        })
        .collect();
    let kill_at = report
        .timeline
        .iter()
        .position(|e| e.kind == "kill" && e.node == 2)
        .expect("kill event in timeline");
    let restart_at = report
        .timeline
        .iter()
        .position(|e| e.kind == "restart" && e.node == 2)
        .expect("restart event in timeline");
    assert!(kill_at < restart_at, "kill precedes restart");
    assert!(
        submits.iter().any(|&s| s < kill_at),
        "at least one job was submitted before the kill"
    );
}

/// The scale regression — a hundred real processes on one loopback host.
///
/// 97 wired nodes start in gossip mode with node 0 as the server; three
/// more join mid-run knowing only node 0's address; two wired nodes are
/// SIGKILLed. The survivors must still agree with the sequential
/// optimum — and the scale machinery must be visibly at work: every
/// node's piggybacked address books average at most the per-frame cap
/// (`BOOK_MAX_ENTRIES`, 16), strictly below the uncapped baseline of
/// roughly one entry per roster member (~100 here), so membership frame
/// cost stays O(cap) instead of O(n) as the cluster grows.
///
/// Ignored by default: it spawns ~100 OS processes and takes minutes on
/// one core. CI runs it explicitly (`--ignored`), as can you:
/// `cargo test -p ftbb-wire --test multiprocess hundred -- --ignored`.
#[test]
#[ignore = "spawns ~100 processes; run explicitly via the CI scale step"]
fn hundred_process_gossip_cluster_caps_books_and_reaches_the_optimum() {
    const WIRED: u32 = 97;
    const TOTAL: u32 = 100; // 97 wired + 3 joiners
    const BOOK_CAP: f64 = ftbb_wire::tcp::BOOK_MAX_ENTRIES as f64;

    // Big enough that both SIGKILLs land mid-run even with a 100-process
    // startup ramp: a failure-free run outlasts the last kill (2 s) by
    // ≥ 2×. Small enough that 100 processes get through it well inside
    // the deadline. Debug runs the first 34-item instance from generator
    // seed 0 up whose sequential depth-first solve takes 0.5–0.7 M
    // expansions — seed 2191, 517 832 expansions (failure-free, the 97
    // wired nodes on 2 cores halt 8–13 s after wiring; `heavy_problem`
    // takes 50 s there). Release runs `heavy_problem` (halts 5–8 s after
    // wiring; the debug instance ends within about a second there, before
    // the work has spread).
    let problem = if cfg!(debug_assertions) {
        ProblemSpec::Knapsack(KnapsackSpec {
            n: 34,
            range: 120,
            correlation: Correlation::Strong,
            frac: 0.5,
            seed: 2191,
        })
    } else {
        heavy_problem()
    };
    let reference = reference_best(&problem);
    assert!(reference.is_some(), "instance must be feasible");

    let mut spec = base_spec(problem, WIRED, 43);
    // One core runs all hundred processes: stretch the failure-detector
    // clock so scheduling hiccups are not read as death, and give the
    // run a generous deadline.
    spec.deadline = Duration::from_secs(240);
    spec.gossip = Some(GossipTiming {
        interval_s: 0.25,
        suspect_s: 5.0,
        forget_s: 60.0,
    });
    spec.lifecycle = vec![
        LifecycleEvent::join(97, Duration::from_millis(400)),
        LifecycleEvent::join(98, Duration::from_millis(700)),
        LifecycleEvent::join(99, Duration::from_millis(1000)),
        LifecycleEvent::kill(5, Duration::from_millis(1500)),
        LifecycleEvent::kill(23, Duration::from_millis(2000)),
    ];
    let report = launch(&spec).expect("cluster launches");

    let mut killed = report.killed.clone();
    killed.sort_unstable();
    assert_eq!(killed, vec![5, 23], "both SIGKILLs must land mid-run");
    assert!(
        report.all_survivors_terminated,
        "survivors failed to terminate:\n{}",
        report.skew_summary()
    );
    assert_eq!(
        report.best, reference,
        "cluster disagrees with the sequential optimum"
    );
    assert_eq!(report.outcomes.len(), TOTAL as usize);
    for o in report.outcomes.iter().flatten() {
        if o.terminated {
            assert_eq!(Some(o.incumbent), reference, "node {}", o.id);
        }
    }

    // The joiners entered through the server and finished with the
    // cluster.
    for &id in &[97usize, 98, 99] {
        let o = report.outcomes[id].as_ref().expect("joiner reports");
        assert!(o.terminated, "joiner {id} detects termination");
    }

    // Capped piggyback books: each node averaged at most the 16-entry
    // cap per membership frame — the uncapped baseline ships the full
    // roster, one entry per member it knows (~100 at this size), every
    // frame. The strict `< TOTAL/2` bound is what fails if the cap ever
    // regresses to full-roster shipping.
    let mut sampled = 0u32;
    for o in report.outcomes.iter().flatten() {
        let frames = o.transport.membership_frames_sent;
        if frames == 0 {
            continue;
        }
        sampled += 1;
        let per_frame = o.transport.book_entries_sent as f64 / frames as f64;
        assert!(
            per_frame <= BOOK_CAP + 1e-9,
            "node {}: {per_frame:.1} book entries/frame exceeds the {BOOK_CAP} cap",
            o.id
        );
        assert!(
            per_frame < TOTAL as f64 / 2.0,
            "node {}: {per_frame:.1} book entries/frame is not sublinear in the roster",
            o.id
        );
    }
    assert!(
        sampled >= (TOTAL / 2),
        "most nodes must have sent membership frames, got {sampled}"
    );

    // Delta digests: gossip frames carry record deltas, not the full
    // 100-record table — the same sublinearity on the digest axis.
    let (digest_entries, digest_frames) =
        report
            .outcomes
            .iter()
            .flatten()
            .fold((0u64, 0u64), |(e, f), o| {
                (
                    e + o.transport.digest_entries_sent,
                    f + o.transport.membership_frames_sent,
                )
            });
    assert!(digest_frames > 0);
    let digest_per_frame = digest_entries as f64 / digest_frames as f64;
    assert!(
        digest_per_frame < TOTAL as f64 / 2.0,
        "digests average {digest_per_frame:.1} entries/frame — not sublinear"
    );
}

/// The restart/rejoin regression — the node-lifecycle acceptance test.
///
/// Five nodes with periodic checkpoints; nodes 1 and 3 are SIGKILLed
/// mid-run; node 1 is then restarted from its checkpoint (`--resume`) at
/// its original address. The restarted process must come back as
/// incarnation 1, rejoin the live cluster through the rejoin handshake,
/// contribute expansions under its new incarnation, and the cluster must
/// still match the sequential optimum. The kills close the dead nodes'
/// connections, so the survivors see them closed and stop writing to
/// them (`peers_closed`); the stale-incarnation filter that would catch
/// frames still addressed to node 1's first life is pinned by
/// `tcp::tests::reconnects_after_peer_restart`.
#[test]
fn killed_node_restarts_from_checkpoint_and_rejoins() {
    let problem = lifecycle_problem();
    let reference = reference_best(&problem);
    assert!(reference.is_some(), "instance must be feasible");

    let dir = std::env::temp_dir().join("ftbb-wire-restart-regression");
    std::fs::remove_dir_all(&dir).ok();

    let mut spec = base_spec(problem, 5, 17);
    spec.checkpoint_dir = Some(dir.clone());
    spec.checkpoint_every_s = 0.02; // several snapshots before the kill
    spec.metrics_every_s = Some(0.25);
    spec.lifecycle = vec![
        LifecycleEvent::kill(1, Duration::from_millis(80)),
        LifecycleEvent::kill(3, Duration::from_millis(140)),
        LifecycleEvent::restart(1, Duration::from_millis(300)),
    ];
    let report = launch(&spec).expect("cluster launches");
    std::fs::remove_dir_all(&dir).ok();

    // Node 3 stays dead; node 1 came back and reported.
    assert_eq!(report.killed, vec![3], "only node 3 stays dead: {report:?}");
    assert!(
        report.all_survivors_terminated,
        "survivors (incl. the rejoined node) failed to terminate: {:?}",
        report.outcomes
    );
    assert_eq!(
        report.best, reference,
        "cluster disagrees with the sequential optimum"
    );

    let rejoined = report.outcomes[1]
        .as_ref()
        .expect("restarted node reports an outcome");
    assert_eq!(
        rejoined.incarnation, 1,
        "the restarted node must report its second life"
    );
    assert!(rejoined.terminated, "the rejoined node detects termination");
    assert_eq!(Some(rejoined.incumbent), reference);
    assert!(
        rejoined.expanded > 0,
        "the rejoined incarnation must contribute expansions:\n{}",
        report.skew_summary()
    );

    // The rejoin handshake reached the live nodes (3 is dead; 0, 2, 4
    // can each see it — at least the survivors' counters show it).
    let rejoins_seen: u64 = [0usize, 2, 4]
        .iter()
        .filter_map(|&id| report.outcomes[id].as_ref())
        .map(|o| o.transport.rejoins)
        .sum();
    assert!(
        rejoins_seen >= 1,
        "peers must observe the rejoin frame: {:?}",
        report.outcomes
    );

    // The kills closed the dead nodes' connections: the survivors saw
    // it, and stopped addressing them until node 1's new life spoke.
    let closed: u64 = [0usize, 2, 4]
        .iter()
        .filter_map(|&id| report.metrics[id].last())
        .map(|m| m.peers_closed)
        .sum();
    assert!(
        closed >= 1,
        "survivors must see the killed nodes' connections close: {:?}",
        report.metrics
    );
}

/// The single-run lifecycle by hand, no launcher: one `ftbb-noded` solving
/// a configured problem is SIGKILLed mid-run; a second process started
/// with `--resume` (and no `--problem*` flags) must find the first life's
/// `node-0-job-0.ckpt` — a single run is job 0 of the one checkpoint
/// layout — come back as incarnation 1, and print the sequential optimum.
#[test]
fn single_run_killed_mid_run_resumes_its_job_0_checkpoint() {
    use ftbb_wire::parse_outcome_line;
    use std::process::{Command, Stdio};
    use std::time::Instant;

    let problem = heavy_problem();
    let reference = reference_best(&problem);
    let dir = std::env::temp_dir().join("ftbb-wire-single-run-resume");
    std::fs::remove_dir_all(&dir).ok();
    let checkpoint = dir.join("node-0-job-0.ckpt");

    let node = |extra: &[String]| {
        Command::new(noded())
            .args(["--id", "0", "--listen", "127.0.0.1:0", "--deadline-s", "60"])
            .args(["--checkpoint-every-s", "0.02", "--checkpoint-dir"])
            .arg(&dir)
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("ftbb-noded spawns")
    };

    // First life: the admission snapshot lands within milliseconds of the
    // start; a ~2 s search is then killed well before it can finish.
    let mut first = node(&problem.flag_args());
    let spawned = Instant::now();
    while !checkpoint.exists() {
        assert!(
            spawned.elapsed() < Duration::from_secs(20),
            "no {} appeared",
            checkpoint.display()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(100));
    first.kill().expect("SIGKILL lands");
    let first_out = first.wait_with_output().expect("first life reaped");
    let first_stdout = String::from_utf8_lossy(&first_out.stdout);
    assert!(
        !first_stdout
            .lines()
            .any(|l| parse_outcome_line(l).is_some()),
        "the first life finished before the kill — nothing was resumed: {first_stdout}"
    );
    assert!(
        !dir.join("node-0.ckpt").exists(),
        "the single-file layout is gone"
    );

    // Second life: everything it needs rides in the checkpoint.
    let second = node(&["--resume".to_string()])
        .wait_with_output()
        .expect("second life exits");
    std::fs::remove_dir_all(&dir).ok();
    assert!(second.status.success(), "second life: {:?}", second.status);
    let outcome = String::from_utf8_lossy(&second.stdout)
        .lines()
        .find_map(parse_outcome_line)
        .expect("the resumed run prints FTBB-OUTCOME");
    assert_eq!(outcome.incarnation, 1, "the resumed run is the next life");
    assert!(outcome.terminated);
    assert_eq!(Some(outcome.incumbent), reference);
}
