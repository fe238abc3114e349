//! The gossip membership protocol under churn (§5.2) — the extension the
//! paper lists as future work ("we plan to introduce the group membership
//! protocol into our simulations").
//!
//! A synchronous harness drives 24 members: everyone joins through one
//! gossip server, a third of the group crashes, and the views converge to
//! suspect and then forget exactly the crashed members.
//!
//! Run: `cargo run --release --example membership_churn`

use ftbb::des::SimTime;
use ftbb::gossip::{Membership, MembershipConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let cfg = MembershipConfig {
        gossip_interval: SimTime::from_millis(500),
        t_fail: SimTime::from_secs(4),
        t_cleanup: SimTime::from_secs(12),
        ..Default::default()
    };
    let n = 24;
    let mut members: Vec<Membership> = (0..n)
        .map(|i| Membership::new(i, cfg, SimTime::ZERO, i == 0))
        .collect();
    let mut rng = SmallRng::seed_from_u64(9);

    // Everyone joins through gossip server 0.
    for i in 1..n as usize {
        let join = members[i].join_msg();
        let replies = members[0].on_message(i as u32, &join, SimTime::ZERO);
        for (to, msg) in replies {
            members[to as usize].on_message(0, &msg, SimTime::ZERO);
        }
    }

    let round = |members: &mut Vec<Membership>, rng: &mut SmallRng, now: SimTime, down: &[u32]| {
        let mut outbox = Vec::new();
        for m in members.iter_mut() {
            if down.contains(&m.id()) {
                continue;
            }
            for (to, msg) in m.tick(now, rng) {
                outbox.push((m.id(), to, msg));
            }
        }
        for (from, to, msg) in outbox {
            if !down.contains(&to) {
                members[to as usize].on_message(from, &msg, now);
            }
        }
    };

    // Phase 1: healthy gossip for 5 seconds.
    let mut now = SimTime::ZERO;
    for _ in 0..10 {
        now += SimTime::from_millis(500);
        round(&mut members, &mut rng, now, &[]);
    }
    let full_views = members
        .iter()
        .filter(|m| m.view().known().len() == n as usize)
        .count();
    println!("after 5s of gossip: {full_views}/{n} members see the full group");

    // Phase 2: members 16..24 crash.
    let crashed: Vec<u32> = (16..n).collect();
    println!("\ncrashing members {crashed:?}…");
    // Run past t_fail plus gossip-propagation slack: a member that first
    // heard of a crashed peer late also refreshes its last-heard late.
    while now < SimTime::from_secs(15) {
        now += SimTime::from_millis(500);
        round(&mut members, &mut rng, now, &crashed);
    }
    let suspecting = members[..16]
        .iter()
        .filter(|m| crashed.iter().all(|c| !m.view().alive(now).contains(c)))
        .count();
    println!("after t_fail: {suspecting}/16 survivors suspect every crashed member");

    // Phase 3: keep going past t_cleanup; ghosts must be forgotten.
    while now < SimTime::from_secs(30) {
        now += SimTime::from_millis(500);
        round(&mut members, &mut rng, now, &crashed);
    }
    let forgot = members[..16]
        .iter()
        .filter(|m| crashed.iter().all(|c| !m.view().known().contains(c)))
        .count();
    println!("after t_cleanup: {forgot}/16 survivors forgot every crashed member");
    let avg_alive: f64 = members[..16]
        .iter()
        .map(|m| m.alive_members(now).len() as f64)
        .sum::<f64>()
        / 16.0;
    println!("average alive-view size among survivors: {avg_alive:.1} (expected 16)");

    assert_eq!(suspecting, 16);
    assert_eq!(forgot, 16);
    println!("\nmembership converged through churn ✓");
}
