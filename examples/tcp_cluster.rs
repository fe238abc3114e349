//! Multi-process TCP cluster demo: spawn five `ftbb-noded` OS processes
//! over loopback, SIGKILL two of them mid-run, and watch the survivors
//! still converge to the sequential optimum.
//!
//! Only node 0 is given the problem spec — the other four start with
//! `--problem wire` and receive the materialized instance in node 0's
//! problem-announce frame, demonstrating that peers can solve a workload
//! they never had locally.
//!
//! ```text
//! cargo build -p ftbb-wire          # builds the ftbb-noded daemon
//! cargo run --example tcp_cluster
//! ```

use ftbb::bnb::{solve, SolveConfig};
use ftbb::wire::launcher::{launch, ClusterSpec, LifecycleEvent};
use ftbb::wire::{KnapsackSpec, ProblemSpec};
use ftbb_bnb::Correlation;
use std::path::PathBuf;
use std::time::Duration;

/// Locate the `ftbb-noded` binary next to this example (same target
/// directory), or take it from `FTBB_NODED`.
fn find_noded() -> PathBuf {
    if let Ok(path) = std::env::var("FTBB_NODED") {
        return PathBuf::from(path);
    }
    let exe = std::env::current_exe().expect("current exe");
    // target/<profile>/examples/tcp_cluster -> target/<profile>/ftbb-noded
    let profile_dir = exe
        .parent()
        .and_then(|p| p.parent())
        .expect("target profile dir");
    let candidate = profile_dir.join("ftbb-noded");
    if candidate.exists() {
        candidate
    } else {
        panic!(
            "ftbb-noded not found at {}; build it with `cargo build -p ftbb-wire` \
             or set FTBB_NODED",
            candidate.display()
        );
    }
}

fn main() {
    // Sized per build profile so a cluster of five runs for two to four
    // seconds and the restart at 400 ms rejoins a live cluster: debug
    // solves ~3.2 M depth-first expansions, release (~10× faster per
    // expansion) ~63 M.
    let (n, seed) = if cfg!(debug_assertions) {
        (42, 963)
    } else {
        (60, 423)
    };
    let problem = ProblemSpec::Knapsack(KnapsackSpec {
        n,
        range: 120,
        correlation: Correlation::Strong,
        frac: 0.5,
        seed,
    });
    println!("solving the reference sequentially…");
    let reference = solve(&problem.instance().unwrap(), &SolveConfig::default());
    println!("sequential optimum: {:?}", reference.best);

    // Lifecycle plan: SIGKILL two nodes mid-run, then bring node 1 back
    // from its checkpoint — it rejoins under incarnation 1 and keeps
    // contributing expansions.
    let checkpoint_dir = std::env::temp_dir().join("ftbb-tcp-cluster-example");
    let spec = ClusterSpec {
        noded: find_noded(),
        nodes: 5,
        crash_at: Vec::new(),
        lifecycle: vec![
            LifecycleEvent::kill(1, Duration::from_millis(60)),
            LifecycleEvent::kill(3, Duration::from_millis(120)),
            LifecycleEvent::restart(1, Duration::from_millis(400)),
        ],
        problem,
        wire_peers: true,
        gossip: None,
        service: false,
        jobs: Vec::new(),
        checkpoint_dir: Some(checkpoint_dir.clone()),
        checkpoint_every_s: 0.05,
        trace_dir: Some(checkpoint_dir.join("traces")),
        metrics_every_s: Some(0.25),
        deadline: Duration::from_secs(60),
        seed: 42,
        workers: 1,
    };
    println!(
        "launching {} ftbb-noded processes on loopback ({} workload; only \
         node 0 has the spec, peers learn it over the wire); lifecycle plan: {:?}",
        spec.nodes,
        spec.problem.kind_name(),
        spec.lifecycle
    );
    let report = launch(&spec).expect("cluster launch");

    for (id, outcome) in report.outcomes.iter().enumerate() {
        match outcome {
            Some(o) => println!(
                "node {id} (incarnation {}): terminated={} incumbent={} expanded={} \
                 recoveries={} sent={} dropped={} (full={}, disconnected={}, no_route={}) \
                 stale={} rejoins={} connect_waits={}",
                o.incarnation,
                o.terminated,
                o.incumbent,
                o.expanded,
                o.recoveries,
                o.transport.sent,
                o.transport.dropped(),
                o.transport.dropped_full,
                o.transport.dropped_disconnected,
                o.transport.dropped_no_route,
                o.transport.dropped_stale,
                o.transport.rejoins,
                o.transport.connect_waits,
            ),
            None => println!("node {id}: no outcome (SIGKILLed, never restarted)"),
        }
    }
    std::fs::remove_dir_all(&checkpoint_dir).ok();
    println!("killed for good: {:?}", report.killed);
    println!(
        "survivors terminated: {} — best: {:?}",
        report.all_survivors_terminated, report.best
    );
    assert_eq!(
        report.best, reference.best,
        "survivors must reach the sequential optimum"
    );
    println!("OK: the kills did not change the answer.");
    assert!(
        report
            .outcomes
            .iter()
            .flatten()
            .any(|o| o.transport.rejoins >= 1),
        "no survivor saw node 1 rejoin: the restart missed the live cluster"
    );
    println!("OK: the restarted node 1 rejoined the live cluster.");
}
