//! Spawning and supervising a whole cluster of threaded nodes.

use crate::node::{run_node, CrashSwitch, NodeOutcome};
use crate::transport::Mesh;
use ftbb_bnb::{AnyInstance, BranchBound};
use ftbb_core::{holds_root, node_seed, BnbProcess, ProtocolConfig};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Configuration of a threaded cluster run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of nodes.
    pub nodes: u32,
    /// Protocol parameters (timers in *real* seconds — keep them small).
    pub protocol: ProtocolConfig,
    /// Crash plan: `(node, delay from start)`.
    pub crashes: Vec<(u32, Duration)>,
    /// Per-node hard deadline (tests' safety valve).
    pub deadline: Duration,
    /// Base RNG seed.
    pub seed: u64,
}

impl ClusterConfig {
    /// Sensible defaults for in-process runs: millisecond-scale timers.
    pub fn new(nodes: u32) -> Self {
        let protocol = ProtocolConfig {
            report_batch: 8,
            report_interval_s: 0.01,
            table_gossip_interval_s: 0.05,
            lb_timeout_s: 0.01,
            recovery_delay_s: 0.02,
            lb_rounds_before_recovery: 2,
            recovery_quiet_s: 0.05,
            ..Default::default()
        };
        ClusterConfig {
            nodes,
            protocol,
            crashes: Vec::new(),
            deadline: Duration::from_secs(30),
            seed: 1,
        }
    }
}

/// Result of a cluster run.
#[derive(Debug)]
pub struct ClusterOutcome {
    /// Outcomes of nodes that finished (crashed nodes report nothing).
    pub nodes: Vec<NodeOutcome>,
    /// Best solution over terminated nodes (`None` if none/infeasible).
    pub best: Option<f64>,
    /// Did every surviving node detect termination?
    pub all_terminated: bool,
}

/// Run `problem` on a threaded cluster. Each node rebuilds subproblem state
/// from codes (self-contained encoding), exactly as a distributed
/// deployment would.
///
/// The harness takes any workload as an [`AnyInstance`] — the same
/// enum-dispatched type the TCP deployment ships over the wire — so a
/// knapsack, a MAX-SAT instance or a recorded tree is passed as is.
pub fn run_cluster(problem: impl Into<AnyInstance>, cfg: &ClusterConfig) -> ClusterOutcome {
    assert!(cfg.nodes >= 1);
    let problem = Arc::new(problem.into());
    let root_bound = problem.bound(&problem.root());
    let n = cfg.nodes as usize;
    let (mesh, mut inboxes) = Mesh::new(n);
    let mesh = Arc::new(mesh);
    let members: Vec<u32> = (0..cfg.nodes).collect();
    let switches: Vec<CrashSwitch> = (0..n).map(|_| CrashSwitch::default()).collect();

    let mut handles = Vec::with_capacity(n);
    for id in (0..cfg.nodes).rev() {
        let inbox = inboxes.pop().expect("one inbox per node");
        let core = BnbProcess::new(
            id,
            members.clone(),
            cfg.protocol.clone(),
            root_bound,
            holds_root(id, &members),
            node_seed(cfg.seed, id),
        );
        let problem = Arc::clone(&problem);
        let mesh = Arc::clone(&mesh);
        let switch = switches[id as usize].clone();
        let deadline = cfg.deadline;
        handles.push(thread::spawn(move || {
            run_node(core, problem, &*mesh, inbox, switch, deadline)
        }));
    }

    // Failure injector.
    let crash_plan = cfg.crashes.clone();
    let injector_switches: Vec<CrashSwitch> = switches.clone();
    let injector = thread::spawn(move || {
        let start = std::time::Instant::now();
        let mut plan = crash_plan;
        plan.sort_by_key(|&(_, d)| d);
        for (node, delay) in plan {
            let elapsed = start.elapsed();
            if delay > elapsed {
                thread::sleep(delay - elapsed);
            }
            if let Some(s) = injector_switches.get(node as usize) {
                s.crash();
            }
        }
    });

    let mut nodes = Vec::new();
    for handle in handles {
        if let Some(outcome) = handle.join().expect("node thread panicked") {
            nodes.push(outcome);
        }
    }
    injector.join().expect("injector panicked");

    let crashed: Vec<u32> = cfg.crashes.iter().map(|&(p, _)| p).collect();
    let survivors = cfg.nodes as usize - {
        let mut c = crashed.clone();
        c.sort_unstable();
        c.dedup();
        c.len()
    };
    let all_terminated = nodes.iter().filter(|o| o.terminated).count()
        >= survivors.min(nodes.len())
        && nodes.iter().all(|o| o.terminated);
    let best = nodes
        .iter()
        .filter(|o| o.terminated)
        .map(|o| o.incumbent)
        .fold(f64::INFINITY, f64::min);
    ClusterOutcome {
        nodes,
        best: if best.is_finite() { Some(best) } else { None },
        all_terminated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbb_bnb::{solve, Correlation, KnapsackInstance, SolveConfig};

    fn knapsack(seed: u64) -> KnapsackInstance {
        KnapsackInstance::generate(16, 60, Correlation::Uncorrelated, 0.5, seed)
    }

    #[test]
    fn threaded_cluster_solves_knapsack() {
        let k = knapsack(5);
        let reference = solve(&k, &SolveConfig::default());
        let outcome = run_cluster(k, &ClusterConfig::new(4));
        assert!(outcome.all_terminated, "cluster did not terminate");
        assert_eq!(outcome.best, reference.best);
        assert_eq!(outcome.nodes.len(), 4);
    }

    #[test]
    fn single_node_cluster() {
        let k = knapsack(7);
        let reference = solve(&k, &SolveConfig::default());
        let outcome = run_cluster(k, &ClusterConfig::new(1));
        assert!(outcome.all_terminated);
        assert_eq!(outcome.best, reference.best);
    }

    #[test]
    fn threaded_cluster_is_problem_agnostic() {
        // The same harness runs every AnyInstance variant — knapsack,
        // MAX-SAT (dynamic branching order), and a recorded tree — and
        // each matches its own sequential optimum.
        use ftbb_bnb::AnyInstance;
        let k = knapsack(3);
        let tree = ftbb_bnb::record_basic_tree(&k, ftbb_bnb::RecordLimits::default()).unwrap();
        let variants: Vec<AnyInstance> = vec![
            k.into(),
            ftbb_bnb::MaxSatInstance::generate(12, 40, 2).into(),
            tree.into(),
        ];
        for any in variants {
            let kind = any.kind();
            let reference = solve(&any, &SolveConfig::default());
            let outcome = run_cluster(any, &ClusterConfig::new(3));
            assert!(outcome.all_terminated, "{kind} did not terminate");
            assert_eq!(outcome.best, reference.best, "{kind}");
        }
    }

    #[test]
    fn crash_one_of_three_still_solves_maxsat() {
        // The fault-tolerance machinery never sees the problem kind:
        // crashing a node mid-run on a MAX-SAT workload recovers exactly
        // like the knapsack case.
        let m = ftbb_bnb::MaxSatInstance::generate(20, 70, 9);
        let reference = solve(&m, &SolveConfig::default());
        let mut cfg = ClusterConfig::new(3);
        cfg.crashes = vec![(1, Duration::from_millis(8))];
        let outcome = run_cluster(m, &cfg);
        assert!(outcome.all_terminated, "survivors did not terminate");
        assert_eq!(outcome.best, reference.best);
    }

    #[test]
    fn crash_two_of_four_still_solves() {
        // Larger instance so the crashes land mid-computation.
        let k = KnapsackInstance::generate(22, 80, Correlation::Weak, 0.5, 11);
        let reference = solve(&k, &SolveConfig::default());
        let mut cfg = ClusterConfig::new(4);
        cfg.crashes = vec![
            (1, Duration::from_millis(5)),
            (2, Duration::from_millis(10)),
        ];
        let outcome = run_cluster(k, &cfg);
        assert!(outcome.all_terminated, "survivors did not terminate");
        assert_eq!(outcome.best, reference.best);
        // Crash timing races with completion: between the two survivors and
        // all four nodes may report, but every reporter saw termination.
        assert!((2..=4).contains(&outcome.nodes.len()));
        assert!(outcome.nodes.iter().all(|n| n.terminated));
    }
}
