//! The benchmark's fixed tables: workloads, instance bands and metrics.
//!
//! `BENCHMARK.json` at the repository root repeats the workload and metric
//! names with their regression bounds; a unit test keeps the two in step.

use crate::des;
use crate::instances::{Band, Family};

/// One set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One process, knapsack.
    SoloKnap,
    /// Two processes, the same knapsack band.
    DuoKnap,
    /// Two processes in gossip mode, one SIGKILLed mid-run.
    CrashKnap,
    /// One process, MAX-SAT.
    SoloMaxsat,
    /// Two-node service pool under a closed-loop job stream.
    ServiceMix,
    /// The discrete-event simulator at a hundred processes.
    Des100p,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 6] = [
        Workload::SoloKnap,
        Workload::DuoKnap,
        Workload::CrashKnap,
        Workload::SoloMaxsat,
        Workload::ServiceMix,
        Workload::Des100p,
    ];

    /// The name used on the command line and in result files.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SoloKnap => "solo_knap",
            Workload::DuoKnap => "duo_knap",
            Workload::CrashKnap => "crash_knap",
            Workload::SoloMaxsat => "solo_maxsat",
            Workload::ServiceMix => "service_mix",
            Workload::Des100p => "des_100p",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one counted operation of this workload is.
    pub fn operation(self) -> &'static str {
        match self {
            Workload::ServiceMix => "job (submit_job call to final result)",
            Workload::Des100p => "run_sim call",
            _ => "cluster solve (launch call to every survivor's outcome)",
        }
    }

    /// Whether the workload's operation time follows its instance's tree
    /// size, so that scaling it to the band's nominal size makes two seeds'
    /// instances comparable. Not so with the crash: across the band its
    /// time shows no trend with size (ten seeds: 2.7–3.1 s against 450 k–
    /// 546 k expansions) because the survivor waits on suspicion and
    /// recovery timers, and scaling would add the size spread instead of
    /// removing it.
    pub fn time_follows_tree_size(self) -> bool {
        self != Workload::CrashKnap
    }

    /// Why the workload exists: which layers it loads and what a gain or
    /// loss on it means.
    pub fn why(self) -> &'static str {
        match self {
            Workload::SoloKnap => {
                "Single-node baseline on a fine-grained tree: core::work rebuild, core::process and bnb::pool bookkeeping and tree::codeset do all the work, wire none; a codec or socket gain must not show here."
            }
            Workload::DuoKnap => {
                "Same tree on 2 processes: adds wire::codec, wire::tcp, reports/contraction and load balancing; where a wire or report-batching gain shows. solo/(2*duo) time is the scaling efficiency."
            }
            Workload::CrashKnap => {
                "The paper's claim: gossip mode, node 1 SIGKILLed at 0.30 of the measured duo time, optimum unchanged. Suspicion, complement recovery and the LB/recovery timers dominate, not expansion."
            }
            Workload::SoloMaxsat => {
                "Same layers as solo_knap used differently: fewer, costlier expansions with large node payloads; a per-expansion fixed saving barely moves it, a size-proportional one does."
            }
            Workload::ServiceMix => {
                "2-node --service pool, closed loop of 2 waiting clients over four job kinds: the duo_knap machinery created, announced, terminated and torn down per job; heavier per-job set-up shows as a loss."
            }
            Workload::Des100p => {
                "The paper's own method: run_sim with 100 simulated processes and 10 crashes. core::process, gossip, tree, des and sim at 100 members; wire and runtime idle. Virtual time repeats exactly."
            }
        }
    }
}

/// Measuring time of one run when `--seconds` is not given: the
/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 14.0;

/// The four job kinds of `service_mix`, in round-robin order.
pub const JOB_KINDS: [&str; 4] = ["knap_m", "knap_xs", "sat_m", "sat_s"];

/// Input sizes. `FULL` is what `BENCHMARK.json` gates on; `CHECK` is the
/// smoke mode's, small enough that all six workloads finish in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// `solo_knap`, `duo_knap`, `crash_knap`.
    pub knap: Band,
    /// `solo_maxsat`.
    pub maxsat: Band,
    /// `service_mix` job kinds, in [`JOB_KINDS`] order.
    pub jobs: [Band; 4],
    /// `des_100p`.
    pub des: des::Size,
    /// Set-up passes per run; `setup_s` is their median.
    pub setup_passes: usize,
}

const fn knap(n: usize, lo: u64, hi: u64) -> Band {
    Band {
        family: Family::Knapsack { n, range: 120 },
        lo,
        hi,
    }
}

const fn maxsat(vars: u16, clauses: usize, lo: u64, hi: u64) -> Band {
    Band {
        family: Family::MaxSat { vars, clauses },
        lo,
        hi,
    }
}

/// The gated sizes. A cluster solve takes about a second (three with the
/// crash), so a run of `run_seconds` holds ten or so and their median is
/// steady. Times are scaled to a band's nominal size, so the knapsack and
/// job bands (±10 %) are only as narrow as `crash_knap`'s timer-dominated
/// time and the search's cost need; MAX-SAT's is wider because every
/// rejected MAX-SAT candidate costs a tenth of a second.
pub const FULL: Scale = Scale {
    knap: knap(50, 450_000, 550_000),
    maxsat: maxsat(32, 140, 20_000, 40_000),
    jobs: [
        knap(36, 72_000, 88_000),
        knap(36, 900, 1_100),
        maxsat(30, 130, 13_500, 16_500),
        maxsat(26, 110, 4_500, 5_500),
    ],
    des: des::Size {
        procs: 100,
        tree_nodes: 5_001,
        crashes: 10,
        systems: 12,
    },
    setup_passes: 3,
};

/// The smoke sizes.
pub const CHECK: Scale = Scale {
    knap: knap(40, 40_000, 80_000),
    maxsat: maxsat(24, 100, 1_500, 4_000),
    jobs: [
        knap(30, 4_000, 8_000),
        knap(30, 200, 800),
        maxsat(22, 90, 800, 1_600),
        maxsat(20, 80, 300, 800),
    ],
    des: des::Size {
        procs: 20,
        tree_nodes: 1_001,
        crashes: 2,
        systems: 3,
    },
    setup_passes: 1,
};

/// A metric's declaration: name, unit, and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// The name printed, written to result files and declared in
    /// `BENCHMARK.json`.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

/// What a user of the system sees, reported by every workload from runs
/// with telemetry off. One operation is a cluster solve, a service job or
/// a simulator run — each ends with a proven optimum.
pub const END_TO_END: [MetricDef; 3] = [
    lower("time_to_optimum_s", "s"),
    higher("solves_per_s", "1/s"),
    lower("setup_s", "s"),
];

/// One number per layer (module path), reported by the traced run. A
/// metric a workload cannot exercise reads 0 there (see the README's
/// coverage table).
pub const PER_LAYER: [MetricDef; 67] = [
    lower("core.phase.expand_s", "s"),
    lower("core.phase.communicate_s", "s"),
    lower("core.phase.contract_s", "s"),
    lower("core.phase.load_balance_s", "s"),
    lower("core.phase.membership_s", "s"),
    lower("core.phase.idle_s", "s"),
    lower("core.phase.checkpoint_s", "s"),
    lower("core.phase.unaccounted_s", "s"),
    lower("core.process.expanded", "count"),
    lower("core.process.expanded_vs_sequential", "ratio"),
    lower("core.process.pruned_at_pop", "count"),
    lower("core.process.recoveries", "count"),
    lower("core.process.bound_broadcasts", "count"),
    lower("core.process.handle_ns_per_event", "ns"),
    lower("core.process.events", "count"),
    lower("core.work.expand_ns", "ns"),
    lower("core.work.expand_calls", "count"),
    lower("bnb.engine.solve_s", "s"),
    lower("bnb.engine.expansions", "count"),
    lower("bnb.engine.ns_per_expansion", "ns"),
    lower("bnb.pool.push_pop_ns", "ns"),
    lower("bnb.pool.split_off_ns", "ns"),
    lower("tree.code.child_clone_ns", "ns"),
    lower("tree.codeset.insert_ns", "ns"),
    lower("tree.codeset.contains_ns", "ns"),
    lower("tree.codeset.merge_ns_per_code", "ns"),
    lower("tree.codeset.complement_us", "us"),
    higher("tree.codeset.contraction_ratio", "ratio"),
    lower("tree.codeset.peak_bytes", "bytes"),
    lower("wire.codec.encode_ns_per_frame", "ns"),
    lower("wire.codec.decode_ns_per_frame", "ns"),
    lower("wire.codec.bytes_per_frame", "bytes"),
    lower("wire.tcp.frames_sent", "count"),
    lower("wire.tcp.wire_bytes", "bytes"),
    higher("wire.tcp.frames_per_flush", "ratio"),
    lower("wire.tcp.dropped", "count"),
    lower("wire.tcp.retried", "count"),
    higher("wire.tcp.loopback_frames_per_s", "1/s"),
    lower("wire.tcp.loopback_rtt_us", "us"),
    lower("wire.launcher.startup_s", "s"),
    lower("wire.noded.peak_rss_mb", "MiB"),
    lower("wire.noded.trace_overhead_ratio", "ratio"),
    lower("wire.launcher.kill_at_s", "s"),
    lower("wire.launcher.kill_to_suspect_s", "s"),
    lower("wire.launcher.suspect_to_recovery_s", "s"),
    lower("gossip.membership.frames_sent", "count"),
    lower("gossip.membership.digest_entries_per_frame", "ratio"),
    lower("gossip.membership.suspected", "count"),
    lower("gossip.membership.tick_us_n100", "us"),
    lower("runtime.pool.task_overhead_ns", "ns"),
    lower("service.job_p50_s.knap_m", "s"),
    lower("service.job_p50_s.knap_xs", "s"),
    lower("service.job_p50_s.sat_m", "s"),
    lower("service.job_p50_s.sat_s", "s"),
    lower("service.job_latency_p90_s", "s"),
    lower("service.expanded_vs_sequential", "ratio"),
    lower("sim.exec_virtual_s", "s"),
    lower("des.engine.events_dispatched", "count"),
    higher("des.engine.events_per_s", "1/s"),
    lower("sim.messages_per_expansion", "ratio"),
    lower("sim.redundant_expansions", "count"),
    higher("sim.efficiency", "ratio"),
    higher("sim.time.bb_frac", "ratio"),
    lower("sim.time.comm_frac", "ratio"),
    lower("sim.time.lb_frac", "ratio"),
    lower("sim.time.contract_frac", "ratio"),
    lower("sim.time.redundant_frac", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn manifest() -> Json {
        let path = crate::cluster::repo_root().join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(section: &Json) -> Vec<(String, String, bool)> {
        section
            .as_arr()
            .expect("an array of metrics")
            .iter()
            .map(|m| {
                (
                    m.get("name").unwrap().as_str().unwrap().to_string(),
                    m.get("unit").unwrap().as_str().unwrap().to_string(),
                    m.get("better").unwrap().as_str().unwrap() == "higher",
                )
            })
            .collect()
    }

    fn table(defs: &[MetricDef]) -> Vec<(String, String, bool)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string(), d.higher_is_better))
            .collect()
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{} why is too long", w.name());
            assert!(!w.why().contains('\n'));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(d.name), "{} declared twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for kind in JOB_KINDS {
            assert!(seen.contains(format!("service.job_p50_s.{kind}").as_str()));
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_tables() {
        let m = manifest();
        let workloads: Vec<&str> = m
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        for w in m.get("workloads").unwrap().as_arr().unwrap() {
            let name = w.get("name").unwrap().as_str().unwrap();
            assert_eq!(
                w.get("why").unwrap().as_str().unwrap(),
                Workload::from_name(name).unwrap().why()
            );
        }
        assert_eq!(m.get("run_seconds").unwrap().as_f64(), Some(RUN_SECONDS));
        assert_eq!(declared(m.get("end_to_end").unwrap()), table(&END_TO_END));
        assert_eq!(declared(m.get("per_layer").unwrap()), table(&PER_LAYER));
        for e in m.get("end_to_end").unwrap().as_arr().unwrap() {
            let bound = e.get("bound").unwrap().as_f64().unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }
}
