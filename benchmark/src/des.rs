//! The DES workload: the paper's own method (§6), a hundred simulated
//! processes replaying a random basic tree with ten crashes.

use ftbb_des::SimTime;
use ftbb_sim::{kill_random_k, run_sim, OverheadModel, RunReport, SimConfig};
use ftbb_tree::{generator::repair_path_vars, random_basic_tree, BasicTree, TreeConfig};
use std::sync::Arc;

/// Everything one DES run needs; the same input always gives the same
/// virtual result.
#[derive(Debug, Clone)]
pub struct Input {
    /// The workload tree.
    pub tree: Arc<BasicTree>,
    /// The full simulation configuration, crash schedule included.
    pub cfg: SimConfig,
    /// The tree's optimum, the value every run must report.
    pub optimum: f64,
}

/// Size of the simulated system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Size {
    /// Simulated processes.
    pub procs: u32,
    /// Nodes in the generated tree.
    pub tree_nodes: usize,
    /// Processes crashed, half at 60 s and half at 120 s virtual.
    pub crashes: u32,
    /// Independent systems (tree, protocol seed, victims) one run measures.
    pub systems: usize,
}

/// Build the input of benchmark seed `seed`: `crates/bench`'s scale-study
/// tree shape and protocol/overhead tuning, with the tree, the protocol
/// randomness and the crash victims all drawn from the seed.
pub fn input(size: Size, seed: u64) -> Result<Input, String> {
    let tree = Arc::new(repair_path_vars(&random_basic_tree(&TreeConfig {
        target_nodes: size.tree_nodes,
        mean_cost: 0.5,
        cost_cv: 0.6,
        balance: 0.35,
        solution_density: 0.25,
        bound_growth: 0.02,
        solution_margin: 0.9,
        seed,
    })));
    let optimum = tree
        .optimal()
        .ok_or_else(|| format!("the tree of seed {seed} has no feasible solution"))?;
    let mut cfg = SimConfig::new(size.procs);
    cfg.seed = seed;
    cfg.protocol.report_batch = 24;
    cfg.protocol.report_fanout = 2;
    cfg.protocol.report_interval_s = 6.0;
    cfg.protocol.table_gossip_interval_s = 45.0;
    cfg.protocol.lb_timeout_s = 0.6;
    cfg.protocol.recovery_delay_s = 3.0;
    cfg.protocol.recovery_quiet_s = 90.0;
    cfg.protocol.grant_max = 24;
    cfg.overheads = OverheadModel {
        contract_per_code_s: 2e-3,
        send_busy_factor: 1.0,
        recv_fixed_s: 200e-6,
    };
    cfg.sample_interval_s = 20.0;
    cfg.start_stagger_s = 1.0;
    if size.crashes > 0 {
        cfg.failures = kill_random_k(
            size.procs,
            size.crashes,
            &[SimTime::from_secs(60), SimTime::from_secs(120)],
            seed,
        );
    }
    Ok(Input { tree, cfg, optimum })
}

/// Run the simulation once; `Err` is a failed operation (a live process
/// did not terminate, or the optimum differs from the tree's).
pub fn run(input: &Input) -> Result<(RunReport, f64), String> {
    let started = std::time::Instant::now();
    let report = run_sim(&input.tree, &input.cfg);
    let wall_s = started.elapsed().as_secs_f64();
    if !report.all_live_terminated {
        return Err("a live simulated process did not terminate".to_string());
    }
    match report.best {
        Some(best) if best.to_bits() == input.optimum.to_bits() => Ok((report, wall_s)),
        other => Err(format!(
            "simulated optimum {other:?} differs from the tree's optimum {}",
            input.optimum
        )),
    }
}

/// The inputs of benchmark seed `seed`: `count` independent systems with
/// sub-seeds `1000·seed + i`. One simulated system's wall time swings by a
/// fifth with its seed (which processes die, how tables grow), so a run
/// measures several and reports their mean.
pub fn inputs(size: Size, seed: u64, count: usize) -> Result<Vec<Input>, String> {
    (0..count as u64)
        .map(|i| input(size, seed.wrapping_mul(1000).wrapping_add(i)))
        .collect()
}

/// Per-layer metrics over one run of each input, all from the
/// [`RunReport`]s: counts and virtual time are summed and repeat exactly
/// for a seed, `events_per_s` is host speed.
pub fn layer_metrics(runs: &[(&Input, &RunReport, f64)]) -> Vec<(&'static str, f64)> {
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let sum = |f: &dyn Fn(&Input, &RunReport, f64) -> f64| {
        runs.iter().map(|&(i, r, w)| f(i, r, w)).sum::<f64>()
    };
    // Seconds of process time in a Figure-3 category, system-wide.
    let category = |pick: &dyn Fn(&ftbb_sim::TimeBreakdown) -> SimTime| {
        sum(&|_, r, _| r.procs.iter().map(|p| pick(&p.times).as_secs_f64()).sum())
    };
    let lifetime = sum(&|_, r, _| {
        r.procs
            .iter()
            .map(|p| p.times.busy().as_secs_f64() + p.idle.as_secs_f64())
            .sum()
    });
    let exec = sum(&|_, r, _| r.exec_time.as_secs_f64());
    let events = sum(&|_, r, _| r.engine.events_dispatched as f64);
    let expanded = sum(&|_, r, _| r.totals.expanded as f64);
    let useful = category(&|t| t.bb);
    vec![
        ("sim.exec_virtual_s", exec),
        ("des.engine.events_dispatched", events),
        ("des.engine.events_per_s", ratio(events, sum(&|_, _, w| w))),
        (
            "sim.messages_per_expansion",
            ratio(sum(&|_, r, _| r.net.messages_sent as f64), expanded),
        ),
        (
            "sim.redundant_expansions",
            sum(&|_, r, _| r.redundant_expansions as f64),
        ),
        (
            "sim.efficiency",
            ratio(
                useful,
                sum(&|i, r, _| f64::from(i.cfg.nprocs) * r.exec_time.as_secs_f64()),
            ),
        ),
        ("sim.time.bb_frac", ratio(useful, lifetime)),
        ("sim.time.comm_frac", ratio(category(&|t| t.comm), lifetime)),
        ("sim.time.lb_frac", ratio(category(&|t| t.lb), lifetime)),
        (
            "sim.time.contract_frac",
            ratio(category(&|t| t.contract), lifetime),
        ),
        (
            "sim.time.redundant_frac",
            ratio(category(&|t| t.redundant), lifetime),
        ),
        ("core.process.expanded", expanded),
        (
            "core.process.expanded_vs_sequential",
            ratio(expanded, sum(&|i, _, _| i.tree.len() as f64)),
        ),
        (
            "core.process.pruned_at_pop",
            sum(&|_, r, _| r.totals.pruned_at_pop as f64),
        ),
        (
            "core.process.recoveries",
            sum(&|_, r, _| r.totals.recoveries as f64),
        ),
        (
            "core.process.bound_broadcasts",
            sum(&|_, r, _| r.totals.bound_broadcasts as f64),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Size = Size {
        procs: 8,
        tree_nodes: 801,
        crashes: 2,
        systems: 3,
    };

    #[test]
    fn same_seed_same_virtual_result() {
        let a = input(TINY, 5).unwrap();
        let b = input(TINY, 5).unwrap();
        assert_eq!(a.cfg.failures, b.cfg.failures);
        assert_eq!(a.cfg.failures.len(), 2);
        let (ra, _) = run(&a).unwrap();
        let (rb, _) = run(&b).unwrap();
        assert_eq!(ra.exec_time, rb.exec_time, "sim_exec must repeat exactly");
        assert_eq!(ra.engine.events_dispatched, rb.engine.events_dispatched);
        assert_eq!(ra.totals.expanded, rb.totals.expanded);
        let m: std::collections::HashMap<_, _> = layer_metrics(&[(&a, &ra, 1.0), (&b, &rb, 3.0)])
            .into_iter()
            .collect();
        assert_eq!(m["sim.exec_virtual_s"], 2.0 * ra.exec_time.as_secs_f64());
        assert_eq!(
            m["des.engine.events_per_s"],
            2.0 * ra.engine.events_dispatched as f64 / 4.0
        );
        assert!((m["sim.time.bb_frac"] - ra.fraction(|p| p.times.bb)).abs() < 1e-12);
        assert!(m["sim.efficiency"] > 0.0 && m["sim.efficiency"] <= 1.0);
    }

    #[test]
    fn sub_seeds_give_different_systems() {
        let set = inputs(TINY, 4, 3).unwrap();
        assert_eq!(set.len(), 3);
        assert_eq!(set[1].cfg.seed, 4001);
        assert!(set[0].tree.nodes() != set[1].tree.nodes());
        let again = inputs(TINY, 4, 3).unwrap();
        assert_eq!(set[2].tree.nodes(), again[2].tree.nodes());
        assert_eq!(set[2].cfg.failures, again[2].cfg.failures);
    }
}
