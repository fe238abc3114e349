//! The in-process cluster: every node's pump on a virtual clock over a
//! virtual network, stepped by one [`EventQueue`] of deliveries, wake-ups
//! and planned crashes on the caller's thread. A node never handles an
//! event before its own clock, so frames wait while it is busy, as in a
//! real inbox. A node that crashes or exits closes its connections, as a
//! killed daemon's sockets do on loopback: every live node it had sent a
//! frame gets [`Inbound::PeerClosed`] once that frame and a LAN transit
//! have passed. Nothing reads the wall clock: one seed, one outcome.

use crate::clock::{sim_time, Clock};
use crate::service::{JobEngine, ServiceEngine, ServiceOutcome, Step};
use crate::transport::{transit, Inbound, SimNet};
use ftbb_bnb::{AnyInstance, BranchBound};
use ftbb_core::{holds_root, node_seed, BnbProcess, JobId, ProtocolConfig};
use ftbb_des::{Event, EventKind, EventQueue, ProcId, SimTime};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// Configuration of an in-process cluster run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of nodes.
    pub nodes: u32,
    /// Protocol parameters (timers in seconds of the nodes' clocks).
    pub protocol: ProtocolConfig,
    /// Crash plan: `(node, virtual time from start)`.
    pub crashes: Vec<(u32, Duration)>,
    /// Per-node deadline in virtual time (tests' safety valve).
    pub deadline: Duration,
    /// Base RNG seed.
    pub seed: u64,
}

impl ClusterConfig {
    /// The deployed profile: millisecond-scale timers (`ftbb-noded` runs
    /// the same).
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

/// Result of a cluster run. Every node runs the one job
/// [`JobId::DEFAULT`], its `jobs[0]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterOutcome {
    /// Outcomes of the nodes that ran to the end, in id order.
    pub nodes: Vec<ServiceOutcome>,
    /// The nodes a planned crash stopped, in id order, as they stood when
    /// it landed. A crash planned after its node exited stops nothing.
    pub crashed: Vec<ServiceOutcome>,
    /// Best solution over terminated nodes (`None` if none/infeasible).
    pub best: Option<f64>,
    /// Did every node that ran to the end detect termination?
    pub all_terminated: bool,
}

/// Run `problem` on an in-process cluster. Each node rebuilds subproblem
/// state from codes (self-contained encoding), exactly as a distributed
/// deployment would.
///
/// The harness takes any workload as an [`AnyInstance`] — the same
/// enum-dispatched type the TCP deployment ships over the wire — so a
/// knapsack, a MAX-SAT instance or a recorded tree is passed as is.
pub fn run_cluster(problem: impl Into<AnyInstance>, cfg: &ClusterConfig) -> ClusterOutcome {
    assert!(cfg.nodes >= 1);
    let problem = Arc::new(problem.into());
    let root_bound = problem.bound(&problem.root());
    let members: Vec<u32> = (0..cfg.nodes).collect();
    let engines = members.iter().map(|&id| {
        let core = BnbProcess::new(
            id,
            members.clone(),
            cfg.protocol.clone(),
            root_bound,
            holds_root(id, &members),
            node_seed(cfg.seed, id),
        );
        let mut engine = ServiceEngine::new(id, 0);
        engine.admit(JobEngine::new(JobId::DEFAULT, core, Arc::clone(&problem)));
        engine
    });
    let (nodes, crashed) = drive(engines.collect(), &cfg.crashes, cfg.deadline);
    let jobs = || nodes.iter().flat_map(|n| &n.jobs);
    let best = jobs()
        .filter(|j| j.terminated)
        .map(|j| j.incumbent)
        .fold(f64::INFINITY, f64::min);
    ClusterOutcome {
        all_terminated: jobs().all(|j| j.terminated),
        best: best.is_finite().then_some(best),
        nodes,
        crashed,
    }
}

/// Deliveries carry what reaches the inbox; wake-ups carry their
/// generation.
type Queue = EventQueue<Inbound, u64>;

/// An event for node `id` at `time`.
fn event(time: SimTime, id: u32, kind: EventKind<Inbound, u64>) -> Event<Inbound, u64> {
    let target = ProcId(id);
    Event { time, target, kind }
}

/// One node under [`drive`].
struct Node {
    /// The pump; gone once the node crashed or exited.
    engine: Option<ServiceEngine>,
    /// Frames that reached the node and wait for its pump.
    arrived: VecDeque<Inbound>,
    /// Generation of the node's one live wake-up; older ones are stale.
    wake: u64,
    /// The last pass ended idle: the next wake-up resumes it.
    idle: bool,
    /// Per node: when the last frame this node sent it arrives (`None`
    /// before the first). Those nodes learn when this one closes.
    sent_to: Vec<Option<SimTime>>,
}

impl Node {
    /// Wake the node at `at` instead of at its pending wake-up.
    fn wake_at(&mut self, queue: &mut Queue, id: u32, at: SimTime) {
        self.wake += 1;
        queue.push(event(at, id, EventKind::Timer(self.wake)));
    }
}

/// Run every engine (`engines[i]` is node `i`) on its own virtual clock
/// until each has exited or crashed, crashing node `n` at virtual time
/// `at` for each `(n, at)` of `crashes`; returns the outcomes of the nodes
/// that exited and of those crashed. A wake-up runs one pass, so the
/// events inside a node's long work unit are handled before its next.
pub(crate) fn drive(
    engines: Vec<ServiceEngine>,
    crashes: &[(u32, Duration)],
    deadline: Duration,
) -> (Vec<ServiceOutcome>, Vec<ServiceOutcome>) {
    let n = engines.len();
    let net = SimNet::new(n);
    let mut queue = Queue::new();
    let mut nodes = Vec::with_capacity(n);
    for (id, mut engine) in (0..).zip(engines) {
        engine.start(Clock::Virtual(SimTime::ZERO), deadline);
        let mut node = Node {
            engine: Some(engine),
            arrived: VecDeque::new(),
            wake: 0,
            idle: false,
            sent_to: vec![None; n],
        };
        node.wake_at(&mut queue, id, SimTime::ZERO);
        nodes.push(node);
    }
    for &(id, at) in crashes {
        queue.push(event(sim_time(at), id, EventKind::Kill));
    }
    let (mut exited, mut crashed) = (Vec::new(), Vec::new());
    while let Some(Event { time, target, kind }) = queue.pop() {
        let id = target.0;
        // A crash planned for an id outside the cluster, and every event
        // of a node that has crashed or exited, finds nobody.
        let Some(node) = nodes.get_mut(target.index()) else {
            continue;
        };
        let Some(engine) = node.engine.as_mut() else {
            continue;
        };
        match kind {
            EventKind::Kill => {
                crashed.push(engine.outcome());
                node.engine = None;
                close(&mut nodes, &net, &mut queue, id, time);
            }
            EventKind::Message { msg, .. } => {
                node.arrived.push_back(msg);
                if node.idle {
                    node.wake_at(&mut queue, id, time);
                }
            }
            EventKind::Timer(wake) if wake == node.wake => {
                // A busy node's clock is past the wake-up already.
                engine.clock = Clock::Virtual(time.max(engine.clock.now()));
                if std::mem::take(&mut node.idle) {
                    engine.resume(&net, node.arrived.pop_front());
                }
                let step = engine.step(&net, || node.arrived.pop_front());
                let now = engine.clock.now();
                let exits = matches!(step, Step::Exit);
                match step {
                    Step::Busy => node.wake_at(&mut queue, id, now),
                    Step::Idle(wait) => {
                        node.idle = true;
                        let waits = node.arrived.is_empty();
                        let at = if waits { now + sim_time(wait) } else { now };
                        node.wake_at(&mut queue, id, at);
                    }
                    Step::Exit => {
                        let engine = node.engine.take().expect("the node was stepped");
                        exited.push(engine.finish(&net));
                    }
                }
                // A pass sends at most once, after any unit it ran, so
                // its frames leave at the node's clock after the pass.
                for (to, transit, msg) in net.take_outbox() {
                    let (from, at) = (ProcId(msg.from), now + transit);
                    let last = &mut node.sent_to[to as usize];
                    *last = (*last).max(Some(at));
                    let msg = Inbound::Frame(msg);
                    queue.push(event(at, to, EventKind::Message { from, msg }));
                }
                if exits {
                    close(&mut nodes, &net, &mut queue, id, now);
                }
            }
            EventKind::Timer(_) | EventKind::Start => {}
        }
    }
    exited.sort_by_key(|o| o.id);
    crashed.sort_by_key(|o| o.id);
    (exited, crashed)
}

/// Node `id` crashed or exited at `at`: sends to it are dropped from now
/// on, and each live node it sent a frame learns of the close after that
/// frame, as a socket's close follows its data.
fn close(nodes: &mut [Node], net: &SimNet, queue: &mut Queue, id: u32, at: SimTime) {
    net.close(id);
    let sent_to = std::mem::take(&mut nodes[id as usize].sent_to);
    for (to, last) in (0..).zip(sent_to) {
        let Some(last) = last.filter(|_| nodes[to as usize].engine.is_some()) else {
            continue;
        };
        let (from, msg) = (ProcId(id), Inbound::PeerClosed(id));
        let arrives = last.max(at + transit(0));
        queue.push(event(arrives, to, EventKind::Message { from, msg }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbb_bnb::{solve, Correlation, KnapsackInstance, SolveConfig};

    fn knapsack(seed: u64) -> KnapsackInstance {
        KnapsackInstance::generate(16, 60, Correlation::Uncorrelated, 0.5, seed)
    }

    fn ids(nodes: &[ServiceOutcome]) -> Vec<u32> {
        nodes.iter().map(|n| n.id).collect()
    }

    /// Every planned crash landed mid-run: its victim had expanded work,
    /// and some node ran on past it.
    fn crashes_landed_mid_run(outcome: &ClusterOutcome, cfg: &ClusterConfig) {
        let mut planned: Vec<u32> = cfg.crashes.iter().map(|&(id, _)| id).collect();
        planned.sort_unstable();
        assert_eq!(
            ids(&outcome.crashed),
            planned,
            "every crash stopped its node"
        );
        for victim in &outcome.crashed {
            assert!(
                victim.jobs[0].metrics.expanded > 0,
                "node {} expanded nothing",
                victim.id
            );
        }
        let last_crash = cfg.crashes.iter().map(|&(_, at)| at).max();
        let end = outcome.nodes.iter().map(|n| n.lifetime).max();
        assert!(
            end > last_crash,
            "the run ended at {end:?}, before {last_crash:?}"
        );
    }

    #[test]
    fn in_process_cluster_solves_knapsack() {
        let k = knapsack(5);
        let reference = solve(&k, &SolveConfig::default());
        let outcome = run_cluster(k, &ClusterConfig::new(4));
        assert!(outcome.all_terminated, "cluster did not terminate");
        assert_eq!(outcome.best, reference.best);
        assert_eq!(ids(&outcome.nodes), [0, 1, 2, 3]);
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
    fn in_process_cluster_is_problem_agnostic() {
        // The same harness runs every AnyInstance variant — knapsack,
        // MAX-SAT (dynamic branching order), and a recorded tree — and
        // each matches its own sequential optimum.
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
        assert_eq!(ids(&outcome.nodes), [0, 2]);
        crashes_landed_mid_run(&outcome, &cfg);
    }

    #[test]
    fn crash_two_of_four_still_solves() {
        let k = KnapsackInstance::generate(22, 80, Correlation::Weak, 0.5, 11);
        let reference = solve(&k, &SolveConfig::default());
        let mut cfg = ClusterConfig::new(4);
        cfg.crashes = vec![
            (1, Duration::from_millis(5)),
            (3, Duration::from_millis(10)),
        ];
        let outcome = run_cluster(k, &cfg);
        assert!(outcome.all_terminated, "survivors did not terminate");
        assert_eq!(outcome.best, reference.best);
        assert_eq!(ids(&outcome.nodes), [0, 2]);
        crashes_landed_mid_run(&outcome, &cfg);
    }

    #[test]
    fn a_crash_closes_the_victims_connections() {
        // The survivor heard from the victim, so its connection's close
        // reaches it after a LAN transit: with nobody left to ask, it
        // recovers at once instead of playing a silent round.
        let k = KnapsackInstance::generate(22, 80, Correlation::Weak, 0.5, 11);
        let reference = solve(&k, &SolveConfig::default());
        let mut cfg = ClusterConfig::new(2);
        cfg.crashes = vec![(1, Duration::from_millis(5))];
        let outcome = run_cluster(k, &cfg);
        crashes_landed_mid_run(&outcome, &cfg);
        assert_eq!(outcome.best, reference.best);
        let survivor = &outcome.nodes[0].jobs[0].metrics;
        assert_eq!(survivor.peers_closed, 1, "{survivor:?}");
        assert_eq!(survivor.silent_rounds, 0, "{survivor:?}");
        assert!(survivor.recoveries >= 1, "{survivor:?}");
    }

    #[test]
    fn one_seed_one_outcome() {
        // The driver reads no wall clock and starts no thread: a seed and
        // a crash plan fix the whole run, every node's counters, phase
        // clock and lifetime included. Only a unit's cost and an idle
        // wait move a virtual clock, and each is charged as it passes,
        // so every node's phase clock adds up to its lifetime to the
        // nanosecond.
        let mut cfg = ClusterConfig::new(4);
        cfg.seed = 17;
        cfg.crashes = vec![(2, Duration::from_millis(6))];
        let k = KnapsackInstance::generate(20, 80, Correlation::Weak, 0.5, 4);
        let first = run_cluster(k.clone(), &cfg);
        assert_eq!(first, run_cluster(k, &cfg));
        crashes_landed_mid_run(&first, &cfg);
        for node in first.nodes.iter().chain(&first.crashed) {
            let total = SimTime::from_secs_f64(node.phase.total());
            assert_eq!(total, sim_time(node.lifetime), "node {}", node.id);
        }
    }
}
