//! Building and running whole-cluster simulations.

use crate::actor::{SimProcess, TimeBreakdown};
use crate::shared::{OverheadModel, Shared};
use ftbb_bnb::BasicTreeProblem;
use ftbb_core::{
    holds_root, node_seed, BnbProcess, Expander, ProblemExpander, ProcMetrics, Protocol,
    ProtocolConfig,
};
use ftbb_des::{Engine, ProcId, RunLimits, RunStats, SimTime, StateInterval};
use ftbb_net::{NetStats, Network, NetworkConfig};
use ftbb_tree::BasicTree;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Full configuration of one simulated run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of processes.
    pub nprocs: u32,
    /// Protocol parameters (shared by all processes).
    pub protocol: ProtocolConfig,
    /// Network model.
    pub network: NetworkConfig,
    /// Overhead model (contraction, send/receive costs).
    pub overheads: OverheadModel,
    /// Granularity multiplier on recorded node costs (§6.2), applied once
    /// per run to one shared copy of the tree.
    pub granularity: f64,
    /// Per-process relative speeds; empty = all 1.0 (homogeneous).
    pub speeds: Vec<f64>,
    /// Crash schedule: `(process, time)`.
    pub failures: Vec<(u32, SimTime)>,
    /// Non-root processes start uniformly inside `[0, start_stagger_s]`.
    pub start_stagger_s: f64,
    /// Storage sampling period, in seconds.
    pub sample_interval_s: f64,
    /// Master seed (engine + per-process protocol RNGs).
    pub seed: u64,
    /// Record state timelines (Figures 5/6).
    pub trace: bool,
    /// Safety valve on dispatched events.
    pub max_events: u64,
    /// Optional virtual-time horizon.
    pub horizon: Option<SimTime>,
}

impl SimConfig {
    /// A reasonable default configuration for `nprocs` processes on the
    /// paper's network.
    pub fn new(nprocs: u32) -> Self {
        SimConfig {
            nprocs,
            protocol: ProtocolConfig::default(),
            network: NetworkConfig::paper(),
            overheads: OverheadModel::default(),
            granularity: 1.0,
            speeds: Vec::new(),
            failures: Vec::new(),
            start_stagger_s: 0.01,
            sample_interval_s: 1.0,
            seed: 1,
            trace: false,
            max_events: 500_000_000,
            horizon: None,
        }
    }

    /// [`SimConfig::new`] with messages free for their sender and receiver
    /// ([`OverheadModel::ZERO`]) and every process starting at 0: how the
    /// DIB and central baselines are run.
    pub fn baseline(nprocs: u32) -> Self {
        SimConfig {
            overheads: OverheadModel::ZERO,
            start_stagger_s: 0.0,
            ..SimConfig::new(nprocs)
        }
    }
}

/// Per-process outcome.
#[derive(Debug, Clone)]
pub struct ProcReport {
    /// Time-category totals.
    pub times: TimeBreakdown,
    /// Idle time: lifetime minus busy time.
    pub idle: SimTime,
    /// Protocol counters.
    pub metrics: ProcMetrics,
    /// When the process detected termination (halted).
    pub halted_at: Option<SimTime>,
    /// When the process crashed, if it did.
    pub crashed_at: Option<SimTime>,
}

/// Everything measured in one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Wall-clock (virtual) completion: when the last live process halted.
    pub exec_time: SimTime,
    /// Earliest termination detection.
    pub first_detection: Option<SimTime>,
    /// The best solution at the terminated processes (`None` = infeasible).
    pub best: Option<f64>,
    /// Did every non-crashed process detect termination?
    pub all_live_terminated: bool,
    /// Per-process reports.
    pub procs: Vec<ProcReport>,
    /// Aggregated protocol counters.
    pub totals: ProcMetrics,
    /// Network traffic counters.
    pub net: NetStats,
    /// Unique subproblems expanded across the system.
    pub expanded_unique: u64,
    /// Redundant (repeated) expansions.
    pub redundant_expansions: u64,
    /// Peak of summed per-process storage, bytes.
    pub storage_peak_bytes: usize,
    /// Duplicated information at the peak, bytes.
    pub storage_redundant_bytes: usize,
    /// Per-process state timelines (if tracing was on).
    pub timelines: Option<Vec<Vec<StateInterval>>>,
    /// Engine statistics.
    pub engine: RunStats,
}

impl RunReport {
    /// Fraction of total busy+idle time spent in a category, system-wide.
    pub fn fraction(&self, pick: impl Fn(&ProcReport) -> SimTime) -> f64 {
        let total: f64 = self
            .procs
            .iter()
            .map(|p| p.times.busy().as_secs_f64() + p.idle.as_secs_f64())
            .sum();
        if total <= 0.0 {
            return 0.0;
        }
        let part: f64 = self.procs.iter().map(|p| pick(p).as_secs_f64()).sum();
        part / total
    }

    /// Communication in MB/hour/processor (Table 1's last column).
    pub fn comm_mb_per_hour_per_proc(&self) -> f64 {
        self.net
            .mb_per_hour_per_proc(self.exec_time, self.procs.len())
    }
}

/// Run one simulation of the paper's protocol over `tree` under `cfg`.
pub fn run_sim(tree: &Arc<BasicTree>, cfg: &SimConfig) -> RunReport {
    let members: Vec<u32> = (0..cfg.nprocs).collect();
    run_protocol(tree, cfg, |pid, root_bound| {
        let seed = node_seed(cfg.seed, pid);
        let root = holds_root(pid, &members);
        if cfg.protocol.membership.is_some() {
            BnbProcess::with_membership(
                pid,
                vec![0], // process 0 doubles as the gossip server
                pid == 0,
                cfg.protocol.clone(),
                root_bound,
                root,
                seed,
                SimTime::ZERO,
            )
        } else {
            let protocol = cfg.protocol.clone();
            BnbProcess::new(pid, members.clone(), protocol, root_bound, root, seed)
        }
    })
}

/// Run one simulation over `tree` under `cfg`, with the protocol process
/// `make(pid, root_bound)` builds on every member.
pub fn run_protocol<P: Protocol>(
    tree: &Arc<BasicTree>,
    cfg: &SimConfig,
    mut make: impl FnMut(u32, f64) -> P,
) -> RunReport {
    assert!(cfg.nprocs >= 1);
    let n = cfg.nprocs as usize;
    let shared = Rc::new(RefCell::new(Shared::new(
        Network::new(cfg.network.clone(), n),
        n,
        cfg.overheads,
    )));

    let mut engine: Engine<SimProcess<P>> = Engine::new(cfg.seed);
    if cfg.trace {
        engine.enable_trace();
    }

    // Granularity scales one shared copy of the tree, once per run.
    assert!(cfg.granularity > 0.0 && cfg.granularity.is_finite());
    let tree = if cfg.granularity == 1.0 {
        Arc::clone(tree)
    } else {
        let mut scaled = BasicTree::clone(tree);
        scaled.scale_costs(cfg.granularity);
        Arc::new(scaled)
    };
    let mut seeder = SmallRng::seed_from_u64(cfg.seed ^ 0x5eed_5eed);
    for pid in 0..cfg.nprocs {
        let expander = ProblemExpander::new(BasicTreeProblem::new(Arc::clone(&tree)));
        let core = make(pid, expander.root_bound());
        let speed = cfg.speeds.get(pid as usize).copied().unwrap_or(1.0);
        let actor = SimProcess::new(
            core,
            expander,
            Rc::clone(&shared),
            speed,
            SimTime::from_secs_f64(cfg.sample_interval_s.max(1e-3)),
        );
        let start_at = if pid == 0 || cfg.start_stagger_s <= 0.0 {
            SimTime::ZERO
        } else {
            SimTime::from_secs_f64(seeder.gen_range(0.0..=cfg.start_stagger_s))
        };
        let got = engine.add_process(actor, start_at);
        debug_assert_eq!(got, ProcId(pid));
    }
    for &(pid, at) in &cfg.failures {
        assert!(pid < cfg.nprocs, "failure schedule names unknown process");
        engine.schedule_crash(ProcId(pid), at);
    }

    let limits = RunLimits {
        time_horizon: cfg.horizon,
        max_events: Some(cfg.max_events),
    };
    let stats = engine.run(limits);

    // ---- collect ----
    let sh = shared.borrow();
    let mut procs = Vec::with_capacity(n);
    let mut totals = ProcMetrics::default();
    let mut best = f64::INFINITY;
    let mut all_live_terminated = true;
    let mut exec_time = SimTime::ZERO;
    for pid in 0..n {
        let actor = engine.process(ProcId(pid as u32));
        let core = actor.core();
        let halted_at = sh.halted_at[pid];
        let crashed_at = sh.crashed_at[pid];
        let lifetime_end = halted_at.or(crashed_at).unwrap_or(stats.end_time);
        let idle = lifetime_end.saturating_sub(actor.times().busy());
        totals.absorb(core.metrics());
        if crashed_at.is_none() {
            if core.is_terminated() {
                best = best.min(core.incumbent());
                exec_time = exec_time.max(halted_at.unwrap_or(stats.end_time));
            } else {
                all_live_terminated = false;
            }
        }
        procs.push(ProcReport {
            times: *actor.times(),
            idle,
            metrics: core.metrics().clone(),
            halted_at,
            crashed_at,
        });
    }
    if !all_live_terminated {
        exec_time = stats.end_time;
    }

    let timelines = if cfg.trace {
        Some(engine.tracer().timelines(n, stats.end_time))
    } else {
        None
    };

    RunReport {
        exec_time,
        first_detection: sh.first_detection,
        best: if best.is_finite() { Some(best) } else { None },
        all_live_terminated,
        procs,
        totals,
        net: sh.net.stats().clone(),
        expanded_unique: sh.expanded_global.len() as u64,
        redundant_expansions: sh.redundant_expansions,
        storage_peak_bytes: sh.peak_storage_sum,
        storage_redundant_bytes: sh.peak_storage_redundant,
        timelines,
        engine: stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbb_core::Msg;
    use ftbb_dib::{Central, DibProcess};
    use ftbb_gossip::MembershipConfig;
    use ftbb_tree::{random_basic_tree, TreeConfig};

    fn tree(target_nodes: usize, seed: u64) -> Arc<BasicTree> {
        Arc::new(random_basic_tree(&TreeConfig {
            target_nodes,
            mean_cost: 0.01,
            seed,
            ..Default::default()
        }))
    }

    fn small_tree() -> Arc<BasicTree> {
        tree(401, 7)
    }

    fn dib(tree: &Arc<BasicTree>, cfg: &SimConfig) -> RunReport {
        run_protocol(tree, cfg, |pid, root| {
            DibProcess::new(pid, cfg.nprocs, root, cfg.seed)
        })
    }

    fn central(tree: &Arc<BasicTree>, cfg: &SimConfig) -> RunReport {
        run_protocol(tree, cfg, |pid, root| Central::new(pid, cfg.nprocs, root))
    }

    /// `cfg` run by each of the three protocols the one actor runs: the
    /// paper's, DIB and the central manager–worker system.
    fn three_protocols(tree: &Arc<BasicTree>, cfg: &SimConfig) -> [(&'static str, RunReport); 3] {
        let ftbb = ("ftbb", run_sim(tree, cfg));
        [
            ftbb,
            ("dib", dib(tree, cfg)),
            ("central", central(tree, cfg)),
        ]
    }

    /// A crash schedule from `(process, milliseconds)` pairs.
    fn crashes(at_ms: &[(u32, u64)]) -> Vec<(u32, SimTime)> {
        let at = |&(pid, ms): &(u32, u64)| (pid, SimTime::from_millis(ms));
        at_ms.iter().map(at).collect()
    }

    /// A baseline run's config: `n` processes, `failures`, and a horizon
    /// for the runs that hang.
    fn baseline_cfg(n: u32, failures: &[(u32, u64)], horizon_s: u64) -> SimConfig {
        let mut cfg = SimConfig::baseline(n);
        cfg.failures = crashes(failures);
        cfg.horizon = Some(SimTime::from_secs(horizon_s));
        cfg
    }

    fn quick_cfg(n: u32, seed: u64) -> SimConfig {
        let mut cfg = SimConfig::new(n);
        cfg.seed = seed;
        cfg.protocol.report_interval_s = 0.2;
        cfg.protocol.table_gossip_interval_s = 1.0;
        cfg.protocol.lb_timeout_s = 0.1;
        cfg.protocol.recovery_delay_s = 0.3;
        cfg.sample_interval_s = 0.2;
        cfg
    }

    #[test]
    fn single_process_solves_tree() {
        let tree = small_tree();
        let report = run_sim(&tree, &quick_cfg(1, 3));
        assert!(report.all_live_terminated);
        assert_eq!(report.best, tree.optimal());
        assert_eq!(report.redundant_expansions, 0);
        assert!(report.exec_time > SimTime::ZERO);
    }

    #[test]
    fn four_processes_agree_with_sequential() {
        let tree = small_tree();
        let report = run_sim(&tree, &quick_cfg(4, 11));
        assert!(report.all_live_terminated, "not all terminated");
        assert_eq!(report.best, tree.optimal());
        // Work was actually distributed.
        let working_procs = report
            .procs
            .iter()
            .filter(|p| p.metrics.expanded > 0)
            .count();
        assert!(working_procs >= 2, "only {working_procs} procs worked");
    }

    #[test]
    fn deterministic_replay() {
        // Staggered worker crashes make DIB redo expired transfers, in an
        // order that must not depend on a hasher's random seed.
        for seed in 0..4 {
            let tree = tree(2001, 100 + seed);
            let mut cfg = quick_cfg(6, 5);
            cfg.failures = crashes(&[(2, 300), (3, 400), (4, 500)]);
            let again = three_protocols(&tree, &cfg);
            for ((name, a), (_, b)) in three_protocols(&tree, &cfg).iter().zip(&again) {
                assert_eq!(a.exec_time, b.exec_time, "{name}, tree {seed}");
                assert_eq!(a.totals, b.totals, "{name}, tree {seed}");
                assert_eq!(a.net.messages_sent, b.net.messages_sent, "{name}");
                assert_eq!(a.redundant_expansions, b.redundant_expansions, "{name}");
            }
        }

        // The paper's protocol's trajectory, pinned: a change to
        // `ftbb-core` that claims to change no behaviour must leave every
        // one of these numbers as it is.
        let pinned = |report: &RunReport| {
            let totals = &report.totals;
            (
                report.exec_time,
                totals.expanded,
                report.net.messages_sent,
                report.redundant_expansions,
                report.engine.events_dispatched,
                totals.peers_suspected + totals.peers_forgotten,
                report.storage_peak_bytes,
                report.storage_redundant_bytes,
            )
        };
        // The staggered-crash scenario above, on a static member list.
        let mut cfg = quick_cfg(6, 5);
        cfg.failures = crashes(&[(2, 300), (3, 400), (4, 500)]);
        let report = run_sim(&tree(2001, 100), &cfg);
        let expected = (
            SimTime::from_nanos(4_148_030_725),
            605,
            316,
            0,
            992,
            0,
            1312,
            206,
        );
        assert_eq!(pinned(&report), expected, "static");
        // Gossip membership with two crashes: the survivors suspect and
        // then forget the dead, and recover their lost work.
        let mut cfg = quick_cfg(6, 5);
        cfg.protocol.membership = Some(MembershipConfig {
            gossip_interval: SimTime::from_millis(100),
            t_fail: SimTime::from_millis(400),
            t_cleanup: SimTime::from_millis(1500),
            ..Default::default()
        });
        cfg.start_stagger_s = 0.05;
        cfg.failures = crashes(&[(2, 300), (4, 500)]);
        let report = run_sim(&tree(4001, 101), &cfg);
        let totals = &report.totals;
        assert!(totals.peers_suspected > 0 && totals.peers_forgotten > 0);
        assert!(totals.recoveries > 0 && report.all_live_terminated);
        let expected = (
            SimTime::from_nanos(6_963_974_761),
            1124,
            1263,
            8,
            3151,
            16,
            2146,
            398,
        );
        assert_eq!(pinned(&report), expected, "gossip");
    }

    #[test]
    fn crash_of_one_process_recovers() {
        let tree = small_tree();
        let mut cfg = quick_cfg(4, 13);
        // Kill process 1 early — its pool contents must be recovered.
        cfg.failures = vec![(1, SimTime::from_millis(300))];
        let report = run_sim(&tree, &cfg);
        assert!(report.all_live_terminated);
        assert_eq!(report.best, tree.optimal());
        assert!(report.procs[1].crashed_at.is_some());
        assert!(report.procs[1].halted_at.is_none());
    }

    #[test]
    fn a_silent_round_is_the_survivors_whole_patience() {
        // Process 1 dies mid-run; the survivor's requests to it go
        // unanswered, and that one silent round is all it waits before
        // recovering, once the quiet window has passed.
        let tree = small_tree();
        let mut cfg = quick_cfg(2, 41);
        cfg.protocol.recovery_quiet_s = 0.5;
        cfg.trace = true;
        let crash = SimTime::from_millis(400);
        cfg.failures = vec![(1, crash)];
        let report = run_sim(&tree, &cfg);
        assert!(report.all_live_terminated);
        assert_eq!(report.best, tree.optimal());
        let survivor = &report.procs[0].metrics;
        assert!(survivor.recoveries >= 1 && survivor.silent_rounds >= 1);
        // The survivor's first idle spell after the crash ends in its first
        // recovery: nobody else is left to grant work.
        let timeline = &report.timelines.as_ref().expect("tracing on")[0];
        let idle = timeline
            .iter()
            .position(|iv| iv.state == "idle" && iv.start >= crash)
            .expect("the survivor idles");
        let (idle, recovery) = (&timeline[idle], &timeline[idle + 1]);
        assert_eq!(recovery.state, "bb");
        // One round of three timed-out requests, one fuse, and at most one
        // message in flight; never before the quiet window.
        let p = &cfg.protocol;
        let request = Msg::WorkRequest { incumbent: 0.0 };
        let bytes = request.wire_size() + cfg.network.header_bytes;
        let latency = SimTime::from_millis_f64(cfg.network.latency.mean_ms(bytes));
        let patience = SimTime::from_secs_f64(3.0 * p.lb_timeout_s + p.recovery_delay_s);
        assert!(recovery.start <= idle.start + patience + latency);
        assert!(recovery.start >= idle.start + SimTime::from_secs_f64(p.recovery_quiet_s));
    }

    #[test]
    fn crash_of_root_holder_recovers() {
        let tree = small_tree();
        let mut cfg = quick_cfg(4, 17);
        cfg.failures = vec![(0, SimTime::from_millis(200))];
        let report = run_sim(&tree, &cfg);
        assert!(report.all_live_terminated);
        assert_eq!(report.best, tree.optimal());
    }

    #[test]
    fn all_but_one_crash_still_solves() {
        // The paper's headline guarantee (§5.5): "the failure of all
        // processes but one still allows the problem to be correctly solved."
        let tree = small_tree();
        let mut cfg = quick_cfg(4, 19);
        cfg.failures = vec![
            (0, SimTime::from_millis(400)),
            (1, SimTime::from_millis(450)),
            (3, SimTime::from_millis(500)),
        ];
        let report = run_sim(&tree, &cfg);
        assert!(report.all_live_terminated);
        assert_eq!(report.best, tree.optimal());
        // The survivor inevitably redid some lost work.
        assert!(report.totals.recoveries > 0 || report.redundant_expansions > 0);
    }

    #[test]
    fn message_loss_does_not_break_correctness() {
        let tree = small_tree();
        let mut cfg = quick_cfg(4, 23);
        cfg.network.loss = ftbb_net::LossModel::with_probability(0.2);
        let report = run_sim(&tree, &cfg);
        assert!(report.all_live_terminated);
        assert_eq!(report.best, tree.optimal());
        assert!(report.net.messages_lost > 0);
    }

    #[test]
    fn trace_produces_timelines() {
        let tree = small_tree();
        let mut cfg = quick_cfg(2, 29);
        cfg.trace = true;
        let report = run_sim(&tree, &cfg);
        let tl = report.timelines.expect("tracing on");
        assert_eq!(tl.len(), 2);
        assert!(tl.iter().all(|t| !t.is_empty()));
    }

    #[test]
    fn breakdown_accounts_time() {
        let tree = small_tree();
        for (name, report) in three_protocols(&tree, &quick_cfg(3, 31)) {
            for (i, p) in report.procs.iter().enumerate() {
                let lifetime = p.halted_at.unwrap().as_secs_f64();
                let accounted = (p.times.busy() + p.idle).as_secs_f64();
                // busy + idle covers the lifetime; a small tail past the halt
                // instant is possible (the final termination broadcast is
                // charged at halt time).
                assert!(
                    accounted >= lifetime - 1e-9,
                    "{name} proc {i}: busy+idle {accounted} < lifetime {lifetime}"
                );
                assert!(
                    accounted - lifetime < 0.05 * lifetime + 0.05,
                    "{name} proc {i}: unexplained busy tail: {accounted} vs {lifetime}"
                );
                // Expansion time lands in bb or (if every expansion raced
                // with another process) in the redundant bucket.
                let expanding = p.times.bb + p.times.redundant;
                assert!(expanding > SimTime::ZERO || p.metrics.expanded == 0);
            }
            // Unique expansions ≤ tree size.
            assert!(report.expanded_unique <= tree.len() as u64, "{name}");
        }
    }

    #[test]
    fn faster_processor_does_more_work() {
        let tree = small_tree();
        let mut cfg = quick_cfg(2, 37);
        cfg.speeds = vec![4.0, 0.5];
        let report = run_sim(&tree, &cfg);
        assert!(report.all_live_terminated);
        assert_eq!(report.best, tree.optimal());
        assert!(
            report.procs[0].metrics.expanded > report.procs[1].metrics.expanded,
            "fast proc {} vs slow {}",
            report.procs[0].metrics.expanded,
            report.procs[1].metrics.expanded
        );
    }

    #[test]
    fn dib_solves_without_failures() {
        let t = tree(301, 21);
        let report = dib(&t, &baseline_cfg(4, &[], 3600));
        assert!(report.all_live_terminated);
        assert_eq!(report.best, t.optimal());
    }

    #[test]
    fn dib_survives_worker_failure() {
        let t = tree(301, 21);
        let report = dib(&t, &baseline_cfg(4, &[(2, 200)], 3600));
        assert!(report.all_live_terminated, "workers must recover via redo");
        assert_eq!(report.best, t.optimal());
    }

    #[test]
    fn dib_hangs_when_root_machine_dies() {
        // The comparison of §5.5: DIB's hierarchy needs a reliable root.
        let report = dib(&tree(301, 21), &baseline_cfg(4, &[(0, 100)], 60));
        let why = "without machine 0 nobody can detect termination";
        assert!(!report.all_live_terminated, "{why}");
    }

    #[test]
    fn dib_single_machine() {
        let t = tree(301, 21);
        let report = dib(&t, &baseline_cfg(1, &[], 3600));
        assert!(report.all_live_terminated);
        assert_eq!(report.best, t.optimal());
    }

    #[test]
    fn central_solves_failure_free() {
        let t = tree(301, 77);
        let report = central(&t, &baseline_cfg(5, &[], 3600));
        assert!(report.all_live_terminated);
        assert_eq!(report.best, t.optimal());
    }

    #[test]
    fn central_tolerates_worker_crash() {
        let t = tree(301, 77);
        let report = central(&t, &baseline_cfg(5, &[(3, 200)], 3600));
        let why = "lease reissue must recover worker loss";
        assert!(report.all_live_terminated, "{why}");
        assert_eq!(report.best, t.optimal());
    }

    #[test]
    fn central_dies_with_manager() {
        let report = central(&tree(301, 77), &baseline_cfg(5, &[(0, 100)], 30));
        assert!(!report.all_live_terminated, "manager crash must be fatal");
    }

    #[test]
    fn manager_is_a_bottleneck() {
        // With tiny node costs, adding workers stops helping: the manager's
        // serial dispatch saturates.
        let t = Arc::new(random_basic_tree(&TreeConfig {
            target_nodes: 1001,
            mean_cost: 0.002, // cheap nodes: dispatch-bound
            seed: 3,
            ..Default::default()
        }));
        let small = central(&t, &baseline_cfg(3, &[], 3600)).exec_time;
        let large = central(&t, &baseline_cfg(17, &[], 3600)).exec_time;
        let speedup = small.as_secs_f64() / large.as_secs_f64();
        assert!(
            speedup < 4.0,
            "8× more workers must not yield near-linear speedup (got {speedup:.1}×)"
        );
    }
}
