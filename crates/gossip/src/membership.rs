//! The gossip-style group membership protocol (§5.2), after van Renesse,
//! Minsky & Hayden's failure-detection service (Middleware '98).
//!
//! Each member keeps a heartbeat counter; on every gossip tick it increments
//! its own counter and sends its view digest to a few randomly chosen
//! members. A member whose heartbeat has not advanced within `t_fail` is
//! suspected; after `t_cleanup` it is forgotten. New members join by sending
//! their address to a *gossip server* — an ordinary member, except that at
//! least one server is guaranteed to be up — which then propagates the
//! newcomer epidemically.
//!
//! The state machine is transport-agnostic: `tick`/`on_*` return the
//! messages to send, and the caller (DES simulator or threaded runtime)
//! delivers them.

use crate::view::{MemberId, MembershipView, ViewDigest};
use ftbb_des::SimTime;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};

/// How many members receive each gossip round.
const GOSSIP_FANOUT: usize = 2;

/// Protocol parameters. The defaults follow the paper's "parameters … are
/// chosen to keep communication and the probability of false membership
/// information under some threshold values".
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MembershipConfig {
    /// Interval between gossip ticks.
    pub gossip_interval: SimTime,
    /// Silence threshold for suspecting a member.
    pub t_fail: SimTime,
    /// Silence threshold for forgetting a member.
    pub t_cleanup: SimTime,
    /// Ship per-peer **delta digests** instead of the full heartbeat table
    /// on every gossip tick: entries the peer was already told are
    /// suppressed (first contact and every
    /// [`crate::DELTA_FULL_REFRESH`]-th digest stay full). Receivers need
    /// no delta awareness — a delta is a subset of the full digest and
    /// merges identically.
    pub delta: bool,
    /// Cap on entries per delta digest (0 = uncapped): bounds one gossip
    /// frame's cost regardless of group size. Unshipped news stays
    /// eligible for the next exchange; the sender's own entry always
    /// rides along.
    pub digest_max_entries: usize,
}

impl Default for MembershipConfig {
    fn default() -> Self {
        MembershipConfig {
            gossip_interval: SimTime::from_millis(500),
            t_fail: SimTime::from_secs(5),
            t_cleanup: SimTime::from_secs(20),
            delta: true,
            digest_max_entries: 32,
        }
    }
}

/// A membership message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MembershipMsg {
    /// Periodic heartbeat gossip.
    Gossip(ViewDigest),
    /// A newcomer announcing itself to a gossip server.
    Join {
        /// The joining member.
        member: MemberId,
    },
    /// A gossip server's bootstrap reply: the current view.
    Welcome(ViewDigest),
}

impl MembershipMsg {
    /// Bytes on the wire.
    pub fn wire_size(&self) -> usize {
        match self {
            MembershipMsg::Gossip(d) | MembershipMsg::Welcome(d) => 1 + d.wire_size(),
            MembershipMsg::Join { .. } => 1 + 4,
        }
    }
}

/// One member's protocol instance.
#[derive(Debug, Clone)]
pub struct Membership {
    me: MemberId,
    heartbeat: u64,
    view: MembershipView,
    cfg: MembershipConfig,
    /// True for gossip servers (§5.2): they answer Join with Welcome.
    is_server: bool,
}

impl Membership {
    /// Create a member. Gossip servers answer `Join` messages.
    pub fn new(me: MemberId, cfg: MembershipConfig, now: SimTime, is_server: bool) -> Self {
        let mut view = MembershipView::new(cfg.t_fail, cfg.t_cleanup);
        view.observe(me, 0, now);
        Membership {
            me,
            heartbeat: 0,
            view,
            cfg,
            is_server,
        }
    }

    /// This member's id.
    pub fn id(&self) -> MemberId {
        self.me
    }

    /// The underlying view.
    pub fn view(&self) -> &MembershipView {
        &self.view
    }

    /// Whether this member acts as a gossip server.
    pub fn is_server(&self) -> bool {
        self.is_server
    }

    /// The join message a newcomer sends to its known gossip servers.
    pub fn join_msg(&self) -> MembershipMsg {
        MembershipMsg::Join { member: self.me }
    }

    /// Seed the view with an externally-known member set (heartbeat 0,
    /// observed at `now`). Two deployments use this: statically-wired
    /// nodes running membership (the wiring is their bootstrap), and a
    /// process restored from a checkpoint rejoining with its last-known
    /// world. Members already known keep their (higher) heartbeats.
    pub fn observe_members(&mut self, members: &[MemberId], now: SimTime) {
        for &m in members {
            if m != self.me {
                self.view.observe(m, 0, now);
            }
        }
    }

    /// Gossip tick: bump own heartbeat, sweep expired entries, and pick
    /// `GOSSIP_FANOUT` (two) random alive members to gossip to. Returns
    /// the `(target, msg)` pairs for the caller to transmit and the
    /// members the sweep forgot.
    pub fn tick(
        &mut self,
        now: SimTime,
        rng: &mut SmallRng,
    ) -> (Vec<(MemberId, MembershipMsg)>, Vec<MemberId>) {
        self.heartbeat += 1;
        self.view.observe(self.me, self.heartbeat, now);
        let forgotten = self.view.sweep(now);
        let mut targets: Vec<MemberId> = self
            .view
            .alive(now)
            .into_iter()
            .filter(|&m| m != self.me)
            .collect();
        targets.shuffle(rng);
        targets.truncate(GOSSIP_FANOUT);
        if !self.cfg.delta {
            let digest = self.view.digest();
            let gossip = targets
                .into_iter()
                .map(|t| (t, MembershipMsg::Gossip(digest.clone())))
                .collect();
            return (gossip, forgotten);
        }
        let gossip = targets
            .into_iter()
            .map(|t| {
                let mut digest = self.view.digest_delta(t, self.cfg.digest_max_entries);
                // Our own heartbeat is the one fact only we originate: it
                // must ride every frame even when the cap's rotation would
                // have skipped it.
                if !digest.entries.iter().any(|&(m, _)| m == self.me) {
                    digest.entries.push((self.me, self.heartbeat));
                }
                (t, MembershipMsg::Gossip(digest))
            })
            .collect();
        (gossip, forgotten)
    }

    /// Handle an incoming membership message. Returns replies to transmit.
    pub fn on_message(
        &mut self,
        from: MemberId,
        msg: &MembershipMsg,
        now: SimTime,
    ) -> Vec<(MemberId, MembershipMsg)> {
        match msg {
            MembershipMsg::Gossip(digest) | MembershipMsg::Welcome(digest) => {
                self.view.merge_digest(digest, now);
                Vec::new()
            }
            MembershipMsg::Join { member } => {
                // Treat the join as a liveness observation, then welcome the
                // newcomer with our view (bootstrap) if we are a server.
                self.view.observe(*member, 0, now);
                let _ = from;
                if self.is_server {
                    vec![(*member, MembershipMsg::Welcome(self.view.digest()))]
                } else {
                    Vec::new()
                }
            }
        }
    }

    /// Members currently believed alive (including self).
    pub fn alive_members(&self, now: SimTime) -> Vec<MemberId> {
        let mut alive = self.view.alive(now);
        if !alive.contains(&self.me) {
            alive.push(self.me);
            alive.sort_unstable();
        }
        alive
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Synchronous test harness: a set of members, instant delivery.
    struct Net {
        members: Vec<Membership>,
        rng: SmallRng,
    }

    impl Net {
        fn new(n: usize, servers: usize, cfg: MembershipConfig) -> Self {
            let members = (0..n)
                .map(|i| Membership::new(i as MemberId, cfg, SimTime::ZERO, i < servers))
                .collect();
            Net {
                members,
                rng: SmallRng::seed_from_u64(42),
            }
        }

        /// One synchronous gossip round at time `now`; `down` members do not
        /// tick (crashed) but are still message sinks (dropped). Returns
        /// the `(member, forgotten)` pairs the round's sweeps reported.
        fn round(&mut self, now: SimTime, down: &[MemberId]) -> Vec<(MemberId, MemberId)> {
            let mut outbox = Vec::new();
            let mut forgotten = Vec::new();
            for m in &mut self.members {
                if down.contains(&m.id()) {
                    continue;
                }
                let (gossip, swept) = m.tick(now, &mut self.rng);
                for (to, msg) in gossip {
                    outbox.push((m.id(), to, msg));
                }
                forgotten.extend(swept.into_iter().map(|f| (m.id(), f)));
            }
            let mut replies = Vec::new();
            for (from, to, msg) in outbox {
                if down.contains(&to) {
                    continue;
                }
                let more = self.members[to as usize].on_message(from, &msg, now);
                for (rt, rm) in more {
                    replies.push((to, rt, rm));
                }
            }
            for (from, to, msg) in replies {
                if !down.contains(&to) {
                    self.members[to as usize].on_message(from, &msg, now);
                }
            }
            forgotten
        }
    }

    fn cfg() -> MembershipConfig {
        MembershipConfig {
            gossip_interval: SimTime::from_millis(500),
            t_fail: SimTime::from_secs(4),
            t_cleanup: SimTime::from_secs(12),
            delta: true,
            digest_max_entries: 0,
        }
    }

    /// Legacy full-digest gossip (every frame carries the whole table).
    fn full_cfg() -> MembershipConfig {
        MembershipConfig {
            delta: false,
            ..cfg()
        }
    }

    #[test]
    fn views_converge_to_full_group() {
        let mut net = Net::new(16, 1, cfg());
        // Everyone joins via server 0.
        for i in 1..16 {
            let join = net.members[i].join_msg();
            let replies = net.members[0].on_message(i as MemberId, &join, SimTime::ZERO);
            for (to, msg) in replies {
                net.members[to as usize].on_message(0, &msg, SimTime::ZERO);
            }
        }
        for r in 0..20 {
            net.round(SimTime::from_millis(500 * (r + 1)), &[]);
        }
        let now = SimTime::from_secs(10);
        for m in &net.members {
            assert_eq!(
                m.view().known().len(),
                16,
                "member {} sees {} members",
                m.id(),
                m.view().known().len()
            );
            assert_eq!(m.alive_members(now).len(), 16);
        }
    }

    #[test]
    fn full_digests_still_converge() {
        let mut net = Net::new(16, 1, full_cfg());
        for i in 1..16 {
            let join = net.members[i].join_msg();
            let replies = net.members[0].on_message(i as MemberId, &join, SimTime::ZERO);
            for (to, msg) in replies {
                net.members[to as usize].on_message(0, &msg, SimTime::ZERO);
            }
        }
        for r in 0..20 {
            net.round(SimTime::from_millis(500 * (r + 1)), &[]);
        }
        for m in &net.members {
            assert_eq!(m.view().known().len(), 16, "member {}", m.id());
        }
    }

    #[test]
    fn capped_deltas_converge_and_suspect() {
        // Hard cap of 8 entries per gossip frame, 24 members: the rotation
        // cursor plus periodic full refreshes must still spread the whole
        // roster, and a crash must still be suspected everywhere. The cap
        // thins per-round coverage to ~fanout·(cap+1)/n of the table, so
        // `t_fail` is widened to 6 s (12 rounds) to keep the false-
        // suspicion probability negligible — the trade-off the `scale`
        // row of `ftbb-paper` quantifies.
        let mut net = Net::new(
            24,
            1,
            MembershipConfig {
                digest_max_entries: 8,
                t_fail: SimTime::from_secs(6),
                t_cleanup: SimTime::from_secs(18),
                ..cfg()
            },
        );
        for i in 1..24 {
            let join = net.members[i].join_msg();
            let replies = net.members[0].on_message(i as MemberId, &join, SimTime::ZERO);
            for (to, msg) in replies {
                net.members[to as usize].on_message(0, &msg, SimTime::ZERO);
            }
        }
        let mut now = SimTime::ZERO;
        for _ in 0..40 {
            now += SimTime::from_millis(500);
            net.round(now, &[]);
        }
        for m in &net.members {
            assert_eq!(m.view().known().len(), 24, "member {}", m.id());
            assert_eq!(m.view().suspected(now).len(), 0, "member {}", m.id());
        }
        // Member 7 crashes; t_fail = 6 s of silence suspects it everywhere.
        // The window leaves slack beyond t_fail: 7's final heartbeat keeps
        // propagating (and refreshing last-heard) for a few capped rounds
        // after the crash before every view goes silent about it.
        let crash_at = now;
        while now < crash_at + SimTime::from_secs(13) {
            net.round(now, &[7]);
            now += SimTime::from_millis(500);
        }
        for m in &net.members {
            if m.id() == 7 {
                continue;
            }
            assert!(
                !m.view().alive(now).contains(&7),
                "member {} still thinks 7 is alive",
                m.id()
            );
        }
    }

    #[test]
    fn delta_frames_shrink_after_convergence() {
        // Once views agree, a delta frame carries only fresh heartbeats —
        // never the dead weight of the full table. With fanout 2 and 32
        // members, the news a peer has not been told stays far below the
        // table size only when suppression actually works; the full-digest
        // baseline ships 32 entries every frame.
        let n = 32;
        let mut net = Net::new(n, 1, cfg());
        for i in 1..n {
            let join = net.members[i].join_msg();
            let replies = net.members[0].on_message(i as MemberId, &join, SimTime::ZERO);
            for (to, msg) in replies {
                net.members[to as usize].on_message(0, &msg, SimTime::ZERO);
            }
        }
        let mut now = SimTime::ZERO;
        for _ in 0..30 {
            now += SimTime::from_millis(500);
            net.round(now, &[]);
        }
        // Steady state: measure one round of outbound digests by hand.
        let mut sizes = Vec::new();
        for m in &mut net.members {
            for (_, msg) in m.tick(now + SimTime::from_millis(500), &mut net.rng).0 {
                if let MembershipMsg::Gossip(d) = msg {
                    sizes.push(d.entries.len());
                }
            }
        }
        let max = sizes.iter().copied().max().unwrap();
        assert!(
            max <= n,
            "a delta is never larger than the table ({max} > {n})"
        );
        assert!(
            sizes.iter().any(|&s| s < n),
            "suppression never shrank a single frame: {sizes:?}"
        );
    }

    #[test]
    fn crashed_member_is_suspected_then_forgotten() {
        let mut net = Net::new(8, 1, cfg());
        // Bootstrap by direct join + rounds.
        for i in 1..8 {
            let join = net.members[i].join_msg();
            let replies = net.members[0].on_message(i as MemberId, &join, SimTime::ZERO);
            for (to, msg) in replies {
                net.members[to as usize].on_message(0, &msg, SimTime::ZERO);
            }
        }
        for r in 0..10 {
            net.round(SimTime::from_millis(500 * (r + 1)), &[]);
        }
        // Member 5 crashes at t=5s; keep gossiping until t=12s.
        let mut now = SimTime::from_secs(5);
        while now < SimTime::from_secs(12) {
            net.round(now, &[5]);
            now += SimTime::from_millis(500);
        }
        // t_fail = 4s: by t=12s member 5 is suspected everywhere.
        for m in &net.members {
            if m.id() == 5 {
                continue;
            }
            assert!(
                !m.view().alive(now).contains(&5),
                "member {} still thinks 5 is alive",
                m.id()
            );
        }
        // Keep going past t_cleanup (12s after last heartbeat ~5s → t=17s+).
        let mut forgotten = Vec::new();
        while now < SimTime::from_secs(20) {
            forgotten.extend(net.round(now, &[5]));
            now += SimTime::from_millis(500);
        }
        for m in &net.members {
            if m.id() == 5 {
                continue;
            }
            assert!(
                !m.view().known().contains(&5),
                "member {} did not forget 5",
                m.id()
            );
            // Its tick reported the sweep exactly once.
            let reports = forgotten.iter().filter(|&&(by, _)| by == m.id()).count();
            assert_eq!(reports, 1, "member {}: {forgotten:?}", m.id());
        }
        assert!(forgotten.iter().all(|&(_, f)| f == 5), "{forgotten:?}");
    }

    #[test]
    fn live_members_not_suspected_under_gossip() {
        let mut net = Net::new(12, 1, cfg());
        for i in 1..12 {
            let join = net.members[i].join_msg();
            let replies = net.members[0].on_message(i as MemberId, &join, SimTime::ZERO);
            for (to, msg) in replies {
                net.members[to as usize].on_message(0, &msg, SimTime::ZERO);
            }
        }
        let mut now = SimTime::ZERO;
        for _ in 0..60 {
            now += SimTime::from_millis(500);
            net.round(now, &[]);
        }
        // No false suspicions with reliable delivery and regular ticks.
        for m in &net.members {
            assert_eq!(m.view().suspected(now).len(), 0, "member {}", m.id());
        }
    }

    #[test]
    fn observe_members_seeds_without_lowering_heartbeats() {
        let mut m = Membership::new(3, cfg(), SimTime::ZERO, false);
        m.on_message(
            7,
            &MembershipMsg::Gossip(ViewDigest {
                entries: vec![(7, 9)],
            }),
            SimTime::ZERO,
        );
        m.observe_members(&[3, 5, 7], SimTime::from_millis(10));
        // Self is never observed as a peer twice; 5 is new at heartbeat 0;
        // 7 keeps its higher heartbeat.
        assert_eq!(m.view().known(), vec![3, 5, 7]);
        assert_eq!(m.view().record(5).unwrap().heartbeat, 0);
        assert_eq!(m.view().record(7).unwrap().heartbeat, 9);
    }

    #[test]
    fn non_server_ignores_join() {
        let mut m = Membership::new(3, cfg(), SimTime::ZERO, false);
        let replies = m.on_message(9, &MembershipMsg::Join { member: 9 }, SimTime::ZERO);
        assert!(replies.is_empty());
        // But it still learned about the newcomer.
        assert!(m.view().known().contains(&9));
    }

    #[test]
    fn wire_sizes() {
        let m = Membership::new(0, cfg(), SimTime::ZERO, true);
        assert_eq!(m.join_msg().wire_size(), 5);
        let digest = m.view().digest();
        assert_eq!(
            MembershipMsg::Gossip(digest.clone()).wire_size(),
            1 + digest.wire_size()
        );
    }
}
