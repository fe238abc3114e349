//! The seeded crash sweep: hundreds of in-process cluster runs, each a
//! seeded crash plan on a small knapsack or MAX-SAT instance, checked
//! against the sequential optimum.
//!
//! `run_cluster` closes a crashed node's connections as a killed daemon's
//! loopback sockets do (`Inbound::PeerClosed`), so this is where the
//! closed-peer rule — a survivor with nobody left to ask recovers at
//! once — meets every crash timing, not only the hand-picked ones.
//!
//! `cargo test --test crash_sweep` runs the tier-1 sweep; the deep one is
//! `cargo test --release --test crash_sweep -- --ignored`.

use ftbb::bnb::{Correlation, MaxSatInstance};
use ftbb::prelude::*;
use std::time::Duration;

/// The sweep's instances: small enough for a debug build, big enough that
/// a crash usually lands while the victim holds work.
fn instances() -> Vec<AnyInstance> {
    let knapsack = |n, corr, seed| KnapsackInstance::generate(n, 60, corr, 0.5, seed).into();
    vec![
        knapsack(26, Correlation::Strong, 1),
        knapsack(30, Correlation::Weak, 2),
        knapsack(24, Correlation::Strong, 3),
        MaxSatInstance::generate(16, 60, 4).into(),
        MaxSatInstance::generate(17, 70, 5).into(),
        MaxSatInstance::generate(15, 80, 6).into(),
    ]
}

/// SplitMix64: the sweep's one source of randomness, seeded per schedule.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// What a sweep saw, for its own sanity checks.
#[derive(Default)]
struct Tally {
    schedules: usize,
    /// Schedules with at least one crash that found its node running.
    landed: usize,
    /// Two-node schedules whose victim had expanded work.
    duo_losses: usize,
    /// ...of which the survivor saw the victim's connection close.
    duo_closes: usize,
    /// ...of which the survivor had never heard from the victim.
    duo_unheard: usize,
    /// ...of which the survivor re-solved some of the lost work.
    duo_recoveries: usize,
}

/// Run `schedules` seeded crash plans and check each one.
fn sweep(schedules: u64) -> Tally {
    let instances = instances();
    let optima: Vec<Option<f64>> = instances
        .iter()
        .map(|i| solve(i, &SolveConfig::default()).best)
        .collect();
    // Each (instance, size)'s failure-free lifetime: crash times are drawn
    // inside it, so most crashes land mid-run.
    let mut lifetimes = std::collections::HashMap::new();
    let mut tally = Tally::default();
    for schedule in 0..schedules {
        let mut draw = Draw(schedule);
        let which = (schedule % instances.len() as u64) as usize;
        let nodes = 2 + draw.below(5) as u32;
        let lifetime = *lifetimes.entry((which, nodes)).or_insert_with(|| {
            let outcome = run_cluster(instances[which].clone(), &ClusterConfig::new(nodes));
            outcome.nodes.iter().map(|n| n.lifetime).max().unwrap()
        });
        let mut cfg = ClusterConfig::new(nodes);
        cfg.seed = schedule;
        let mut victims: Vec<u32> = (0..nodes).collect();
        let kills = 1 + draw.below(u64::from(nodes) - 1) as usize;
        for i in 0..kills {
            let j = i + draw.below((victims.len() - i) as u64) as usize;
            victims.swap(i, j);
            let at = draw.below(lifetime.as_micros() as u64 + 1);
            cfg.crashes.push((victims[i], Duration::from_micros(at)));
        }
        let outcome = run_cluster(instances[which].clone(), &cfg);
        let plan = format!(
            "schedule {schedule}: {nodes} nodes, crashes {:?}",
            cfg.crashes
        );
        assert!(!outcome.nodes.is_empty(), "{plan}: nobody survived");
        for node in &outcome.nodes {
            let job = &node.jobs[0];
            assert!(job.terminated, "{plan}: node {} did not terminate", node.id);
            let incumbent = optima[which].unwrap_or(f64::INFINITY);
            assert_eq!(job.incumbent, incumbent, "{plan}: node {}", node.id);
        }
        tally.schedules += 1;
        tally.landed += usize::from(!outcome.crashed.is_empty());
        if let ([victim], [survivor]) = (&outcome.crashed[..], &outcome.nodes[..]) {
            if victim.jobs[0].metrics.expanded > 0 {
                // A close reaches only a node that heard from the victim,
                // as on TCP, where a connection is anonymous until its
                // first frame: a victim killed before it sent the survivor
                // anything leaves it the silent round to find out.
                let metrics = &survivor.jobs[0].metrics;
                let heard = metrics.grants_received + metrics.reports_received;
                if heard + metrics.peers_closed > 0 {
                    assert_eq!(metrics.silent_rounds, 0, "{plan}: {metrics:?}");
                } else {
                    tally.duo_unheard += 1;
                }
                tally.duo_losses += 1;
                tally.duo_closes += metrics.peers_closed as usize;
                tally.duo_recoveries += usize::from(metrics.recoveries > 0);
            }
        }
    }
    tally
}

/// Print the tally, and check that the sweep was not vacuous: nearly
/// every plan crashed somebody mid-run, and most two-node survivors saw
/// the close and recovered.
fn check(tally: &Tally, schedules: usize) {
    println!(
        "{} schedules, {} landed; duo losses {}: {} closes, {} unheard, {} recoveries",
        tally.schedules,
        tally.landed,
        tally.duo_losses,
        tally.duo_closes,
        tally.duo_unheard,
        tally.duo_recoveries
    );
    assert_eq!(tally.schedules, schedules);
    assert!(
        tally.landed * 10 >= schedules * 9,
        "{} landed",
        tally.landed
    );
    assert!(
        tally.duo_losses * 10 >= schedules,
        "{} duo losses",
        tally.duo_losses
    );
    assert!(
        tally.duo_closes * 2 > tally.duo_losses,
        "{} closes",
        tally.duo_closes
    );
    assert!(
        tally.duo_recoveries * 2 > tally.duo_losses,
        "{} recoveries",
        tally.duo_recoveries
    );
}

#[test]
fn every_seeded_crash_plan_reaches_the_optimum() {
    check(&sweep(240), 240);
}

#[test]
#[ignore = "deep sweep: run in release with --ignored"]
fn every_seeded_crash_plan_reaches_the_optimum_deep() {
    check(&sweep(2400), 2400);
}
