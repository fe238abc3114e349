//! The protocol process: the paper's §5 algorithm as a pure state machine.
//!
//! One [`BnbProcess`] per participating machine. It owns a local pool of
//! subproblems, a contracted table of known completions, a contracted set
//! of fresh local completions, and the best-known solution. Events arrive
//! from the harness; actions go back to it. The process never touches clocks,
//! networks, or the expander directly, so the identical code runs under
//! every harness: `ftbb-sim`'s discrete-event actor, and `ftbb-runtime`'s
//! pump on virtual clocks in-process or in `ftbb-wire`'s TCP daemons.
//!
//! [`Protocol::step`] is the paper's §5 written as a transition table: one
//! arm per event and guard, grouped by section, each calling one effect
//! method. The effects follow here in the table's order; the helpers they
//! share come after them.

use crate::config::{ProtocolConfig, GRANT_KEEP_MIN, LB_ATTEMPTS};
use crate::events::{Action, MembershipEvent, PEvent, PTimer, Protocol};
use crate::message::{GrantItem, Incumbent, Msg};
use crate::metrics::ProcMetrics;
use crate::telemetry::TimeCategory;
use crate::work::{Expansion, WorkUnit};
use ftbb_bnb::{Pool, PoolEntry, SelectRule};
use ftbb_des::SimTime;
use ftbb_gossip::{Membership, MembershipConfig, MembershipMsg};
use ftbb_tree::{pick_recovery, Code, CodeSet, MergeOutcome};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::borrow::Cow;

/// Cap on the buffered (undrained) membership transitions: harnesses that
/// never call [`BnbProcess::take_membership_events`] (the DES simulator)
/// must not accumulate unbounded state over long runs.
const MEMBERSHIP_EVENT_CAP: usize = 1024;

/// Per-node protocol RNG seed derived from a cluster-wide base seed.
/// Every harness (the simulator, the in-process cluster, `ftbb-wire`
/// daemons) uses this same mixing, or "identical state machine" stops
/// being true.
pub fn node_seed(base: u64, id: u32) -> u64 {
    base.wrapping_mul(0x9e37_79b9).wrapping_add(id as u64)
}

/// Root-holder election: the lowest member id starts with the root
/// subproblem. `members` must be sorted (as [`BnbProcess`] expects).
pub fn holds_root(id: u32, members: &[u32]) -> bool {
    members.first() == Some(&id)
}

/// One participant in the distributed B&B computation.
pub struct BnbProcess {
    me: u32,
    static_members: Vec<u32>,
    cfg: ProtocolConfig,
    pool: Pool<Code>,
    current: Option<Code>,
    work_seq: u64,
    table: CodeSet,
    /// This process's own completions since its last report, contracted
    /// as they arrive: a flush ships its minimal codes. Always empty in a
    /// process nobody can receive reports from.
    fresh: CodeSet,
    /// Raw completions inserted into `fresh` since the last report — the
    /// paper's `c` counts these, not the contracted codes.
    fresh_count: usize,
    /// When the last work report left (`None` before the first).
    last_report: Option<SimTime>,
    incumbent: Incumbent,
    lb_seq: u32,
    /// The pending work request: its target, its sequence number and
    /// when it left (for [`ProcMetrics::grant_wait_s`]).
    lb_awaiting: Option<(u32, u32, SimTime)>,
    lb_failures: u32,
    /// How many of this round's `lb_failures` were timeouts: a round
    /// whose every request timed out is silent (see [`Self::no_grant`]).
    lb_silent: u32,
    /// Consecutive fully-failed LB rounds since the last successful work.
    lb_cycles: u32,
    recovery_seq: u32,
    /// Is this process re-solving the complement? Set when a recovery
    /// starts, cleared by outside news (a merge that inserts a code, a
    /// non-empty grant). While set, running out of work begins the next
    /// complement code at once instead of seeking work.
    recovering: bool,
    /// Last local time at which this process saw evidence the computation
    /// is progressing (new completions merged, work granted, local work).
    /// Its own completions count too, so the quiet check gates only the
    /// first recovery of an outage; later ones chain via `recovering`.
    last_news: SimTime,
    /// Exponentially weighted mean of observed per-node expansion costs
    /// (seconds; one sample per unit, its mean), driving the adaptive
    /// report interval.
    ewma_cost: f64,
    terminated: bool,
    root_bound: f64,
    metrics: ProcMetrics,
    rng: SmallRng,
    membership: Option<Membership>,
    gossip_servers: Vec<u32>,
    /// Members currently believed suspected (as of the last membership
    /// tick), for transition detection — a member entering this set is
    /// one suspicion event, however long it stays silent afterwards.
    suspected_seen: Vec<u32>,
    /// Suspicion/cleanup transitions awaiting a harness drain.
    membership_events: Vec<MembershipEvent>,
    /// Peers whose connection the transport saw close
    /// ([`PEvent::PeerClosed`]) and that have sent nothing since. Nothing
    /// is addressed to them; a frame from one reopens it. Transient: a
    /// checkpoint does not carry it.
    closed: Vec<u32>,
    /// The incumbent value last broadcast as an explicit
    /// [`Msg::BoundAnnounce`] (bit-compared; `INFINITY` = never).
    last_announced: Incumbent,
    /// Is a [`PTimer::BoundFlush`] currently armed? Improvements inside
    /// the window coalesce instead of re-arming.
    bound_flush_armed: bool,
    /// Reusable buffer for entries lazily pruned at pop (always drained
    /// back to empty before it is returned here).
    pruned_scratch: Vec<PoolEntry<Code>>,
    /// Reusable unit for [`PEvent::WorkDone`]'s one expansion.
    one_node: WorkUnit,
}

impl BnbProcess {
    /// Create a process with a *static* member list (the paper's simulation
    /// setup). `seed_root` gives this process the root problem; exactly one
    /// process per computation should have it.
    pub fn new(
        me: u32,
        members: Vec<u32>,
        cfg: ProtocolConfig,
        root_bound: f64,
        seed_root: bool,
        rng_seed: u64,
    ) -> Self {
        // Depth-first (§2) keeps local pools shallow and donates large
        // subtrees.
        let mut p = BnbProcess {
            me,
            static_members: members.into_iter().filter(|&m| m != me).collect(),
            cfg,
            pool: Pool::new(SelectRule::DepthFirst),
            current: None,
            work_seq: 0,
            table: CodeSet::new(),
            fresh: CodeSet::new(),
            fresh_count: 0,
            last_report: None,
            incumbent: f64::INFINITY,
            lb_seq: 0,
            lb_awaiting: None,
            lb_failures: 0,
            lb_silent: 0,
            lb_cycles: 0,
            recovery_seq: 0,
            recovering: false,
            last_news: SimTime::ZERO,
            ewma_cost: 0.0,
            terminated: false,
            root_bound,
            metrics: ProcMetrics::default(),
            rng: SmallRng::seed_from_u64(rng_seed),
            membership: None,
            gossip_servers: Vec::new(),
            suspected_seen: Vec::new(),
            membership_events: Vec::new(),
            closed: Vec::new(),
            last_announced: f64::INFINITY,
            bound_flush_armed: false,
            pruned_scratch: Vec::new(),
            one_node: WorkUnit::default(),
        };
        if seed_root {
            p.push_pool(Code::root(), root_bound);
        }
        p
    }

    /// Create a process that uses the gossip membership protocol (§5.2).
    /// It knows only the gossip servers initially and joins through them;
    /// its member list is the membership view's alive set.
    ///
    /// `cfg.membership` must be `Some`.
    #[allow(clippy::too_many_arguments)]
    pub fn with_membership(
        me: u32,
        gossip_servers: Vec<u32>,
        is_server: bool,
        cfg: ProtocolConfig,
        root_bound: f64,
        seed_root: bool,
        rng_seed: u64,
        now: SimTime,
    ) -> Self {
        let mcfg = cfg
            .membership
            .expect("with_membership requires cfg.membership");
        let mut p = Self::new(me, Vec::new(), cfg, root_bound, seed_root, rng_seed);
        p.membership = Some(Membership::new(me, mcfg, now, is_server));
        p.gossip_servers = gossip_servers.into_iter().filter(|&s| s != me).collect();
        p
    }

    /// This process's id.
    pub fn id(&self) -> u32 {
        self.me
    }

    /// The membership protocol instance, when this process runs one
    /// (`None` under a static member list).
    pub fn membership(&self) -> Option<&Membership> {
        self.membership.as_ref()
    }

    /// Seed the membership view with an externally-known member set (e.g.
    /// launcher-wired peers): they become load-balancing targets
    /// immediately instead of only after the first gossip exchange, and
    /// their heartbeats must then advance or they get suspected like
    /// anyone else. No-op without membership.
    pub fn seed_membership_view(&mut self, members: &[u32], now: SimTime) {
        if let Some(mem) = &mut self.membership {
            mem.observe_members(members, now);
        }
    }

    /// Drain the buffered suspicion/cleanup transitions (in observation
    /// order). Harnesses surface these as engine events; the counters in
    /// [`ProcMetrics`] record them either way.
    pub fn take_membership_events(&mut self) -> Vec<MembershipEvent> {
        std::mem::take(&mut self.membership_events)
    }

    fn push_membership_event(&mut self, event: MembershipEvent) {
        if self.membership_events.len() < MEMBERSHIP_EVENT_CAP {
            self.membership_events.push(event);
        } else {
            // A harness that never drains the buffer loses transitions;
            // count the loss instead of hiding it.
            self.metrics.membership_events_dropped += 1;
        }
    }

    /// Has this process detected termination?
    pub fn is_terminated(&self) -> bool {
        self.terminated
    }

    /// Best-known solution value (`INFINITY` if none).
    pub fn incumbent(&self) -> Incumbent {
        self.incumbent
    }

    /// Protocol counters.
    pub fn metrics(&self) -> &ProcMetrics {
        &self.metrics
    }

    /// The tunables this process runs with.
    pub fn config(&self) -> &ProtocolConfig {
        &self.cfg
    }

    /// The completion table.
    pub fn table(&self) -> &CodeSet {
        &self.table
    }

    /// Active local pool size.
    pub fn pool_len(&self) -> usize {
        self.pool.len()
    }

    /// The membership view's alive members, or the static list, less
    /// the closed peers.
    fn members(&self, now: SimTime) -> Cow<'_, [u32]> {
        match &self.membership {
            Some(m) => m
                .alive_members(now)
                .into_iter()
                .filter(|&x| x != self.me && self.is_open(x))
                .collect(),
            None if self.closed.is_empty() => Cow::Borrowed(&self.static_members),
            None => self
                .static_members
                .iter()
                .copied()
                .filter(|&x| self.is_open(x))
                .collect(),
        }
    }

    /// Is `peer`'s connection open, as far as the transport has told?
    fn is_open(&self, peer: u32) -> bool {
        !self.closed.contains(&peer)
    }

    /// Has every peer left closed its connection? Then nobody can answer
    /// a work request or still hold the missing work, and the patience
    /// that guards recovery against redundant work protects nothing. An
    /// empty view with no closed peer (a joiner before its welcome) is not
    /// deserted.
    fn deserted(&self, now: SimTime) -> bool {
        !self.closed.is_empty() && self.members(now).is_empty()
    }

    /// One of [`Self::members`], drawn uniformly; `None` if there are none.
    fn random_member(&mut self, now: SimTime) -> Option<u32> {
        if self.membership.is_none() && self.closed.is_empty() {
            // The same draw from the list, without copying it.
            return self.static_members.choose(&mut self.rng).copied();
        }
        let members = self.members(now).into_owned();
        members.choose(&mut self.rng).copied()
    }

    /// [`Protocol::step`] into a fresh action buffer. Every harness steps
    /// into a buffer it keeps; this allocating form stays for the unit
    /// tests and `benchmark/`'s in-process probe.
    pub fn handle(&mut self, event: PEvent, now: SimTime) -> Vec<Action> {
        let mut out = Vec::new();
        self.step(event, now, &mut out);
        out
    }

    // ------------------------------------------------------------------
    // The effects of the transition table (`Protocol::step`), in its order
    // ------------------------------------------------------------------

    /// §5: activation. Arms the periodic timers, joins through the gossip
    /// servers (§5.2), and starts on whatever the pool holds.
    fn start(&mut self, now: SimTime, out: &mut Vec<Action>) {
        // The news clock starts at activation: a process that has heard
        // nothing yet is newly started, not evidence of a quiet system.
        self.last_news = now;
        out.push(Action::timer(
            self.cfg.report_interval_s,
            PTimer::ReportFlush,
        ));
        out.push(Action::timer(
            self.cfg.table_gossip_interval_s,
            PTimer::TableGossip,
        ));
        if let Some(m) = &self.membership {
            // Join through the gossip servers, then start ticking.
            let join = m.join_msg();
            for &s in &self.gossip_servers {
                out.push(Action::send(s, Msg::Membership(join.clone())));
            }
            self.arm_membership_tick(out);
        }
        self.start_next(now, out);
    }

    /// §5.3.1: the work in flight finished as one expansion: the unit of
    /// that one node, as the process's incumbent judges its children.
    fn expanded(&mut self, expansion: Expansion, now: SimTime, out: &mut Vec<Action>) {
        let code = self.current.take().expect("step guards on work in flight");
        let mut unit = std::mem::take(&mut self.one_node);
        unit.set_one_node(code, expansion, self.incumbent);
        self.absorb(&mut unit, now, out);
        self.one_node = unit;
    }

    /// §5.3.1: the work unit in flight finished. Its solution is applied;
    /// its finished subtrees complete into the table (and the fresh set,
    /// counting every raw completion toward `c`); its open frontier goes
    /// back to the pool in the order the unit would have popped it.
    fn absorb(&mut self, unit: &mut WorkUnit, now: SimTime, out: &mut Vec<Action>) {
        self.current = None;
        self.metrics.expanded += unit.expanded;
        self.metrics.fathomed += unit.fathomed;
        self.metrics.eliminated_at_insert += unit.eliminated;
        self.metrics.pruned_at_pop += unit.pruned;
        self.last_news = now;
        // Per node, not per unit: the adaptive interval targets `c` nodes.
        let node_cost = unit.cost / unit.expanded as f64;
        self.ewma_cost = if self.ewma_cost == 0.0 {
            node_cost
        } else {
            0.9 * self.ewma_cost + 0.1 * node_cost
        };
        if let Some(v) = unit.solution {
            self.update_incumbent(v, out);
        }
        // Every done code stands for at least one raw completion; the
        // unit's others ride on the first code the table takes in.
        let mut extra = unit.completions() - unit.done.len() as u64;
        for code in unit.done.drain(..) {
            if self.complete(code, 1 + extra, now, out) {
                extra = 0;
            }
        }
        for (code, bound) in unit.frontier.drain(..) {
            self.push_pool(code, bound);
        }
        self.start_next(now, out);
    }

    /// §5: a member asks for work; donate part of the pool or deny.
    fn share_work(&mut self, from: u32, out: &mut Vec<Action>) {
        let spare = self.pool.len().saturating_sub(GRANT_KEEP_MIN);
        let k = spare.min(self.cfg.grant_max).min(self.pool.len() / 2 + 1);
        let mut items = Vec::new();
        if spare > 0 && k > 0 {
            for entry in self.pool.split_off(k) {
                // Do not donate subproblems the table already covers.
                if !self.table.contains(&entry.node) {
                    items.push(GrantItem {
                        code: entry.node,
                        bound: entry.bound,
                    });
                }
            }
        }
        let incumbent = self.lb_piggyback();
        let msg = if items.is_empty() {
            self.metrics.denies_sent += 1;
            Msg::WorkDeny { incumbent }
        } else {
            self.metrics.grants_sent += 1;
            self.metrics.items_granted += items.len() as u64;
            Msg::WorkGrant { items, incumbent }
        };
        out.push(Action::send(from, msg));
    }

    /// §5: donated work arrived. Codes the table already covers are
    /// skipped; a non-empty grant is news and ends a recovery chain.
    fn granted(&mut self, from: u32, items: Vec<GrantItem>, now: SimTime, out: &mut Vec<Action>) {
        if let Some((_, _, sent)) = self.lb_awaiting.filter(|_| self.asked(from)) {
            self.lb_awaiting = None;
            self.metrics.grants_received += 1;
            self.metrics.grant_wait_s += now.saturating_sub(sent).as_secs_f64();
        }
        self.lb_failures = 0;
        self.lb_silent = 0;
        if !items.is_empty() {
            self.last_news = now;
            self.recovering = false;
        }
        for item in items {
            if self.table.contains(&item.code) {
                self.metrics.skipped_covered += 1;
                continue;
            }
            self.push_pool(item.code, item.bound);
        }
        if self.current.is_none() {
            self.start_next(now, out);
        }
    }

    /// §5: the awaited work request failed (denied or timed out). An idle
    /// process asks someone else, or arms the recovery fuse after
    /// [`LB_ATTEMPTS`] failures. A silent round — every request timed out,
    /// none denied — stands for all `lb_rounds_before_recovery` rounds: a
    /// peer that neither grants nor denies is evidence enough, so its fuse
    /// goes straight to the quiet gate. A deserted process arms no fuse:
    /// [`Self::seek_work`] recovers at once.
    fn no_grant(&mut self, now: SimTime, out: &mut Vec<Action>) {
        self.lb_awaiting = None;
        if !self.is_idle() {
            return;
        }
        self.lb_failures += 1;
        if self.lb_failures >= LB_ATTEMPTS && !self.deserted(now) {
            if self.lb_silent >= LB_ATTEMPTS {
                self.metrics.silent_rounds += 1;
                self.lb_cycles = self.cfg.lb_rounds_before_recovery.saturating_sub(1);
            }
            self.lb_failures = 0;
            self.lb_silent = 0;
            self.arm_recovery(out);
        } else {
            self.seek_work(now, out);
        }
    }

    /// §5.3.2: a work report or table gossip. Merge its codes with
    /// contraction; new codes are news; work the table now covers is
    /// interrupted as redundant.
    fn merge_report(&mut self, codes: &[Code], now: SimTime, out: &mut Vec<Action>) {
        self.metrics.reports_received += 1;
        let merge = self.table.merge(codes.iter());
        self.count_merge(merge);
        if merge.inserted > 0 {
            self.last_news = now;
            self.recovering = false;
        }
        // Interrupt redundant work: "the lag in updating information can
        // lead to faulty presumptions on failure … fixed easily by
        // interrupting the redundant work when information is updated."
        if let Some(cur) = &self.current {
            if self.table.contains(cur) {
                self.metrics.redundant_interrupts += 1;
                self.current = None;
                self.work_seq += 1; // invalidates the in-flight WorkDone
                self.start_next(now, out);
            }
        }
        self.check_termination(out);
    }

    /// §5.2: a membership message; its replies go straight back out.
    fn on_membership(&mut self, from: u32, m: &MembershipMsg, now: SimTime, out: &mut Vec<Action>) {
        let mem = self.membership.as_mut().expect("step guards on membership");
        for (to, reply) in mem.on_message(from, m, now) {
            if !self.closed.contains(&to) {
                out.push(Action::send(to, Msg::Membership(reply)));
            }
        }
    }

    /// §5.3.2: the periodic report flush, re-armed at the (adaptive)
    /// report interval.
    fn report_timer(&mut self, now: SimTime, out: &mut Vec<Action>) {
        self.flush_reports(now, out);
        out.push(Action::timer(self.report_interval(), PTimer::ReportFlush));
    }

    /// §5.3.2: the periodic table gossip, re-armed.
    fn table_gossip_timer(&mut self, now: SimTime, out: &mut Vec<Action>) {
        self.gossip_table(now, out);
        out.push(Action::timer(
            self.cfg.table_gossip_interval_s,
            PTimer::TableGossip,
        ));
    }

    /// §5: the awaited work request went unanswered. Only an idle
    /// process's timeout counts toward a silent round: one that lands
    /// after work arrived fails no round at all.
    fn timed_out(&mut self, now: SimTime, out: &mut Vec<Action>) {
        self.metrics.lb_timeouts += 1;
        if self.is_idle() {
            self.lb_silent += 1;
        }
        self.no_grant(now, out);
    }

    /// §5.3.2: the recovery fuse burned down on an idle process. It
    /// spreads its table — what drives end-game convergence and prompt
    /// termination detection (§5.4, §6.3.1) — then either recovers or
    /// runs another full load-balancing round first.
    fn recovery_fuse(&mut self, now: SimTime, out: &mut Vec<Action>) {
        self.gossip_table(now, out);
        self.lb_cycles += 1;
        if self.lb_cycles >= self.cfg.lb_rounds_before_recovery {
            self.lb_cycles = 0;
            self.do_recovery(now, out);
        } else {
            // Another full LB round before suspecting lost work.
            self.seek_work(now, out);
        }
    }

    /// §5.2: the membership gossip tick, re-armed. The tick is the one
    /// place the view's time-driven judgements are (re)evaluated, so
    /// suspicion (silence past `t_fail`) and cleanup (swept past
    /// `t_cleanup`) are observed — and counted — here.
    fn membership_tick(&mut self, now: SimTime, out: &mut Vec<Action>) {
        let mem = self.membership.as_mut().expect("step guards on membership");
        let (gossip, forgotten) = mem.tick(now, &mut self.rng);
        for (to, msg) in gossip {
            if !self.closed.contains(&to) {
                out.push(Action::send(to, Msg::Membership(msg)));
            }
        }
        let suspected_now = mem.view().suspected(now);
        let newly_suspected: Vec<u32> = suspected_now
            .iter()
            .copied()
            .filter(|m| !self.suspected_seen.contains(m))
            .collect();
        self.suspected_seen = suspected_now;
        for m in newly_suspected {
            self.metrics.peers_suspected += 1;
            self.push_membership_event(MembershipEvent::Suspected(m));
        }
        for m in forgotten {
            self.metrics.peers_forgotten += 1;
            self.push_membership_event(MembershipEvent::Forgotten(m));
        }
        self.arm_membership_tick(out);
    }

    /// §5.1: the bound flush window closed; broadcast the incumbent once,
    /// unless it was already announced.
    fn bound_flush(&mut self, now: SimTime, out: &mut Vec<Action>) {
        self.bound_flush_armed = false;
        if self.incumbent.to_bits() == self.last_announced.to_bits() {
            // Termination already shipped the value to everyone.
            return;
        }
        self.last_announced = self.incumbent;
        self.metrics.bound_broadcasts += 1;
        let incumbent = self.incumbent;
        for &to in self.members(now).iter() {
            out.push(Action::send(to, Msg::BoundAnnounce { incumbent }));
        }
    }

    /// The transport saw `peer`'s connection close: leave it out of every
    /// target and recipient list. A request pending on it can never be
    /// answered, so it fails at once, as a silent one. An idle process
    /// that waits on its fuse and now has nobody left to ask stops
    /// waiting: [`Self::seek_work`] recovers at once.
    fn peer_closed(&mut self, peer: u32, now: SimTime, out: &mut Vec<Action>) {
        self.closed.push(peer);
        self.metrics.peers_closed += 1;
        if self.asked(peer) {
            if self.is_idle() {
                self.lb_silent += 1;
            }
            self.no_grant(now, out);
        } else if self.lb_awaiting.is_none() && self.is_idle() && self.deserted(now) {
            self.recovery_seq += 1; // the armed fuse is moot
            self.seek_work(now, out);
        }
    }

    /// A frame from a closed peer: its connection is back.
    fn reopen(&mut self, peer: u32) {
        if let Some(i) = self.closed.iter().position(|&c| c == peer) {
            self.closed.swap_remove(i);
        }
    }

    // ------------------------------------------------------------------
    // Load balancing (§5: on-demand dynamic work sharing)
    // ------------------------------------------------------------------

    /// Is `from` the member the pending work request went to?
    fn asked(&self, from: u32) -> bool {
        self.lb_awaiting
            .is_some_and(|(target, _, _)| target == from)
    }

    /// Is request `seq` the pending one?
    fn pending(&self, seq: u32) -> bool {
        self.lb_awaiting
            .is_some_and(|(_, pending, _)| pending == seq)
    }

    /// An idle process asks a random member for work. With nobody to ask
    /// it arms the recovery fuse, unless it is deserted (see
    /// [`Self::deserted`]): then it re-solves the complement at once, with
    /// no fuse and no quiet gate.
    fn seek_work(&mut self, now: SimTime, out: &mut Vec<Action>) {
        if self.lb_awaiting.is_some() {
            return;
        }
        // Starving: push out whatever we know. "Since the work load is
        // lower, and therefore processes are idle longer periods of time,
        // they suspect termination and send more work reports" (§6.3.1).
        self.flush_reports(now, out);
        match self.random_member(now) {
            Some(target) => {
                self.lb_seq += 1;
                self.lb_awaiting = Some((target, self.lb_seq, now));
                self.metrics.work_requests_sent += 1;
                let incumbent = self.lb_piggyback();
                out.push(Action::send(target, Msg::WorkRequest { incumbent }));
                out.push(Action::timer(
                    self.cfg.lb_timeout_s,
                    PTimer::LbTimeout(self.lb_seq),
                ));
            }
            None if !self.closed.is_empty() => {
                // Deserted (see `deserted`): re-solve the lost work now.
                self.lb_failures = 0;
                self.lb_silent = 0;
                self.solve_complement(out);
            }
            None => {
                // Nobody to ask (single process or empty view): go straight
                // to the recovery fuse.
                self.arm_recovery(out);
            }
        }
    }

    fn arm_recovery(&mut self, out: &mut Vec<Action>) {
        self.recovery_seq += 1;
        let fuse = PTimer::RecoveryFuse(self.recovery_seq);
        out.push(Action::timer(self.cfg.recovery_delay_s, fuse));
    }

    // ------------------------------------------------------------------
    // Failure recovery (§5.3.2)
    // ------------------------------------------------------------------

    fn do_recovery(&mut self, now: SimTime, out: &mut Vec<Action>) {
        // Only recover once the system has gone quiet: if news is still
        // flowing, someone is working and starvation is load imbalance.
        let quiet = SimTime::from_secs_f64(self.cfg.recovery_quiet_s);
        if now.saturating_sub(self.last_news) < quiet {
            self.arm_recovery(out);
            return;
        }
        self.solve_complement(out);
    }

    /// Begin a missing subproblem from the table's complement and keep
    /// recovering: until a peer brings news, running out of work starts the
    /// next one at once (see [`Self::start_next`]).
    fn solve_complement(&mut self, out: &mut Vec<Action>) {
        match pick_recovery(&self.table, &mut self.rng) {
            Some(code) => {
                self.recovering = true;
                self.metrics.recoveries += 1;
                self.begin_work(code, out);
            }
            None => {
                // Complement empty ⇒ root done ⇒ we should already have
                // terminated; make sure.
                self.check_termination(out);
            }
        }
    }

    // ------------------------------------------------------------------
    // Work loop
    // ------------------------------------------------------------------

    fn is_idle(&self) -> bool {
        self.current.is_none() && self.pool.is_empty()
    }

    fn push_pool(&mut self, node: Code, bound: f64) {
        let depth = node.depth() as u32;
        self.pool.push(PoolEntry { bound, depth, node });
    }

    fn begin_work(&mut self, code: Code, out: &mut Vec<Action>) {
        debug_assert!(self.current.is_none());
        self.lb_cycles = 0;
        self.work_seq += 1;
        self.current = Some(code.clone());
        let seq = self.work_seq;
        out.push(Action::StartWork { code, seq });
    }

    fn start_next(&mut self, now: SimTime, out: &mut Vec<Action>) {
        if self.terminated || self.current.is_some() {
            return;
        }
        loop {
            // Lazy incumbent pruning inside the pool: non-improving
            // entries come back in `pruned` without being expanded. They
            // still complete into the table — termination detection
            // (contraction to the root, §5.4) needs their subtrees.
            let mut pruned = std::mem::take(&mut self.pruned_scratch);
            debug_assert!(pruned.is_empty());
            let next = self.pool.pop_improving(self.incumbent, &mut pruned);
            for entry in pruned.drain(..) {
                self.metrics.pruned_at_pop += 1;
                self.complete(entry.node, 1, now, out);
            }
            self.pruned_scratch = pruned;
            if self.terminated {
                return;
            }
            let Some(entry) = next else { break };
            if self.table.contains(&entry.node) {
                self.metrics.skipped_covered += 1;
                continue;
            }
            self.begin_work(entry.node, out);
            return;
        }
        if self.recovering {
            // Work is already judged lost: report, then re-solve the next
            // complement code without re-waiting the LB rounds and quiet
            // timer that gated the first recovery.
            self.flush_reports(now, out);
            self.solve_complement(out);
        } else {
            self.seek_work(now, out);
        }
    }

    // ------------------------------------------------------------------
    // Completion tracking, reports, termination (§5.3.2, §5.4)
    // ------------------------------------------------------------------

    /// `code` finished locally, contracting `raw` completions (`c` counts
    /// those, not codes). False when the table already covered it.
    fn complete(&mut self, code: Code, raw: u64, now: SimTime, out: &mut Vec<Action>) -> bool {
        if self.table.contains(&code) {
            return false; // someone else already reported it
        }
        let merge = self.table.insert(&code);
        self.count_merge(merge);
        // A solo node keeps no fresh set: nobody could ever receive it.
        if self.can_report() {
            self.fresh.insert(&code);
            self.fresh_count += raw as usize;
            if self.fresh_count >= self.cfg.report_batch && self.report_gap_passed(now) {
                self.flush_reports(now, out);
            }
        }
        self.check_termination(out);
        true
    }

    fn count_merge(&mut self, merge: MergeOutcome) {
        self.metrics.merge_codes_processed += merge.processed() as u64;
        self.metrics.merge_contractions += merge.contractions as u64;
    }

    /// Does this process have any possible report recipient — static peers
    /// or a membership protocol that may discover some?
    fn can_report(&self) -> bool {
        !self.static_members.is_empty() || self.membership.is_some()
    }

    /// May a `c`-triggered batch flush now? The first batch always may;
    /// later ones wait out the report gap.
    fn report_gap_passed(&self, now: SimTime) -> bool {
        self.last_report.is_none_or(|at| {
            now.saturating_sub(at) >= SimTime::from_secs_f64(self.cfg.report_gap_s())
        })
    }

    fn clear_fresh(&mut self) {
        self.fresh.clear();
        self.fresh_count = 0;
    }

    fn flush_reports(&mut self, now: SimTime, out: &mut Vec<Action>) {
        if self.fresh_count == 0 {
            return;
        }
        let mut members = self.members(now).into_owned();
        members.shuffle(&mut self.rng);
        members.truncate(self.cfg.report_fanout);
        if members.is_empty() {
            // Nobody to tell right now (an empty view, a lone survivor):
            // the codes are already in the table.
            self.clear_fresh();
            return;
        }
        let raw = self.fresh_count;
        let codes = self.fresh.minimal_codes();
        self.clear_fresh();
        self.last_report = Some(now);
        let sent = codes.len();
        self.metrics.report_codes_sent += sent as u64;
        self.metrics.report_codes_saved += (raw - sent.min(raw)) as u64;
        self.metrics.reports_sent += members.len() as u64;
        // The last recipient gets the codes themselves, the others copies.
        let incumbent = self.incumbent;
        let (&last, others) = members.split_last().expect("checked non-empty");
        for &to in others {
            let codes = codes.clone();
            out.push(Action::send(to, Msg::WorkReport { codes, incumbent }));
        }
        out.push(Action::send(last, Msg::WorkReport { codes, incumbent }));
    }

    /// Send the whole contracted table to one random member.
    fn gossip_table(&mut self, now: SimTime, out: &mut Vec<Action>) {
        if let Some(to) = self.random_member(now) {
            self.metrics.table_gossips_sent += 1;
            let (codes, incumbent) = (self.table.minimal_codes(), self.incumbent);
            out.push(Action::send(to, Msg::TableGossip { codes, incumbent }));
        }
    }

    fn check_termination(&mut self, out: &mut Vec<Action>) {
        if self.terminated || !self.table.is_root_done() {
            return;
        }
        self.terminated = true;
        // The final report below carries the literal incumbent to every
        // member, so any pending bound announce is subsumed; record the
        // value as announced so a still-armed flush fires as a no-op.
        self.last_announced = self.incumbent;
        // "Before termination, each member that detected the termination
        // will have to send one more work report, that is, the code of the
        // root problem, to all members from its local membership list."
        let members = match &self.membership {
            Some(m) => m
                .view()
                .known()
                .into_iter()
                .filter(|&x| x != self.me)
                .collect::<Vec<_>>(),
            None => self.static_members.clone(),
        };
        let incumbent = self.incumbent;
        for to in members.into_iter().filter(|&x| self.is_open(x)) {
            let codes = vec![Code::root()];
            out.push(Action::send(to, Msg::WorkReport { codes, incumbent }));
        }
        out.push(Action::Halt);
    }

    /// The effective report-flush interval: fixed, or adapted to observed
    /// node granularity (§7 future work).
    fn report_interval(&self) -> f64 {
        if !self.cfg.adaptive_reports || self.ewma_cost <= 0.0 {
            return self.cfg.report_interval_s;
        }
        let target = self.cfg.report_batch as f64 * self.ewma_cost;
        target.clamp(self.cfg.report_gap_s(), self.cfg.report_interval_s * 8.0)
    }

    // ------------------------------------------------------------------
    // Incumbent dissemination (§5.1)
    // ------------------------------------------------------------------

    fn update_incumbent(&mut self, v: Incumbent, out: &mut Vec<Action>) {
        if v < self.incumbent {
            self.incumbent = v;
            self.metrics.incumbent_updates += 1;
            self.schedule_bound_flush(out);
        }
    }

    /// Arm (or coalesce into) the bound-dissemination flush window: the
    /// improvement is broadcast as one [`Msg::BoundAnnounce`] when the
    /// window closes, however many further improvements land inside it.
    /// A strictly better bound is therefore never delayed past
    /// `bound_flush_s` — the epsilon-exactness contract.
    fn schedule_bound_flush(&mut self, out: &mut Vec<Action>) {
        if self.cfg.bound_flush_s <= 0.0 || self.terminated {
            return;
        }
        if self.bound_flush_armed {
            self.metrics.bound_coalesced += 1;
            return;
        }
        self.bound_flush_armed = true;
        out.push(Action::timer(self.cfg.bound_flush_s, PTimer::BoundFlush));
    }

    /// The incumbent to stamp on load-balancing chatter. While the value
    /// is newer than the last explicit announce it rides literally; once
    /// every member has been told (an announce broadcast it), the
    /// "no solution" sentinel rides instead and the suppression is
    /// counted. Report and table-gossip messages are never suppressed:
    /// the literal incumbent on the table-flow channel is what guarantees
    /// that a member whose table contracts to the root holds the exact
    /// optimum (bit-identical to the sequential solver).
    fn lb_piggyback(&mut self) -> Incumbent {
        if self.cfg.bound_flush_s > 0.0
            && self.incumbent.is_finite()
            && self.incumbent.to_bits() == self.last_announced.to_bits()
        {
            self.metrics.bound_piggybacks_suppressed += 1;
            return f64::INFINITY;
        }
        self.incumbent
    }

    /// Arm the next membership gossip tick (§5.2).
    fn arm_membership_tick(&self, out: &mut Vec<Action>) {
        let mcfg = self.cfg.membership.expect("membership config");
        let delay_s = mcfg.gossip_interval.as_secs_f64();
        out.push(Action::timer(delay_s, PTimer::MembershipTick));
    }

    /// Root bound this process was constructed with.
    pub fn root_bound(&self) -> f64 {
        self.root_bound
    }

    // ------------------------------------------------------------------
    // Checkpoint support (see `crate::checkpoint`)
    // ------------------------------------------------------------------

    /// The static member list (including self's peers only).
    pub(crate) fn static_member_list(&self) -> Vec<u32> {
        self.static_members.clone()
    }

    /// The gossip servers this process joins through (empty when static).
    pub(crate) fn gossip_server_list(&self) -> Vec<u32> {
        self.gossip_servers.clone()
    }

    /// Rebuild the membership protocol from a checkpointed binding: the
    /// restored incarnation rejoins with its last-known world (the
    /// checkpointed view's members, observed fresh at `now`) instead of
    /// as an amnesiac that only knows the servers.
    pub(crate) fn restore_membership(
        &mut self,
        servers: &[u32],
        is_server: bool,
        known: &[u32],
        mcfg: MembershipConfig,
        now: SimTime,
    ) {
        let mut mem = Membership::new(self.me, mcfg, now, is_server);
        mem.observe_members(known, now);
        self.membership = Some(mem);
        self.gossip_servers = servers.iter().copied().filter(|&s| s != self.me).collect();
    }

    /// Snapshot the pool as `(code, bound)` pairs. The in-flight expansion
    /// (whose result would be lost by a restart) is re-queued with an
    /// always-selected bound.
    pub(crate) fn pool_snapshot(&self) -> Vec<(Code, f64)> {
        let pool = self.pool.iter().map(|e| (e.node.clone(), e.bound));
        let current = self.current.iter().map(|c| (c.clone(), f64::NEG_INFINITY));
        pool.chain(current).collect()
    }

    /// Snapshot the fresh (unreported) completions: the minimal codes the
    /// next flush would ship.
    pub(crate) fn fresh_snapshot(&self) -> Vec<Code> {
        self.fresh.minimal_codes()
    }

    /// Overwrite durable state from a checkpoint (used by restore). The
    /// fresh codes count as that many raw completions toward `c`.
    pub(crate) fn restore_state(
        &mut self,
        table: CodeSet,
        pool: &[(Code, f64)],
        fresh: &[Code],
        incumbent: Incumbent,
    ) {
        self.table = table;
        if self.can_report() {
            self.fresh.merge(fresh);
            self.fresh_count = fresh.len();
        }
        self.incumbent = incumbent;
        for (code, bound) in pool {
            self.push_pool(code.clone(), *bound);
        }
        self.terminated = self.table.is_root_done();
    }
}

/// The paper's protocol as a transition table: one arm per event and
/// guard, each tagged with the section it implements and calling one
/// effect method. An event a guard rules out is an arm of its own that
/// does nothing. README.md's "paper → code" table lists the arms.
impl Protocol for BnbProcess {
    type Msg = Msg;
    type Timer = PTimer;

    // One arm per line, so the table reads as one.
    #[rustfmt::skip]
    fn step(&mut self, event: PEvent, now: SimTime, out: &mut Vec<Action>) {
        use crate::events::Event::{PeerClosed, Recv, Start, Timer, UnitDone, WorkDone};
        // §5.4: a process that detected termination has halted.
        if self.terminated {
            return;
        }
        // §5.1: every message but membership traffic carries its sender's
        // incumbent, a rumor applied before the message's own rule. Any
        // frame reopens a closed sender.
        if let Recv { from, msg } = &event {
            if let Some(v) = msg.incumbent() {
                self.update_incumbent(v, out);
            }
            self.reopen(*from);
        }
        match event {
            // §5: activation.
            Start => self.start(now, out),
            // §5.3.1: an expansion or a work unit finished; one interrupted as
            // redundant is stale.
            WorkDone { seq, .. } if seq != self.work_seq || self.current.is_none() => {}
            WorkDone { expansion, .. } => self.expanded(expansion, now, out),
            UnitDone { seq, .. } if seq != self.work_seq || self.current.is_none() => {}
            UnitDone { mut unit, .. } => self.absorb(&mut unit, now, out),
            // §5: on-demand work sharing; a deny or timeout no request awaits is stale.
            Recv { from, msg: Msg::WorkRequest { .. } } => self.share_work(from, out),
            Recv { from, msg: Msg::WorkGrant { items, .. } } => self.granted(from, items, now, out),
            Recv { from, msg: Msg::WorkDeny { .. } } if self.asked(from) => self.no_grant(now, out),
            Recv { msg: Msg::WorkDeny { .. }, .. } => {}
            Timer(PTimer::LbTimeout(seq)) if self.pending(seq) => self.timed_out(now, out),
            Timer(PTimer::LbTimeout(_)) => {}
            // §5.3.2: reports and table gossip, contraction, complement
            // recovery; a superseded fuse, or one on a process that found
            // work meanwhile, is ignored.
            Recv { msg: Msg::WorkReport { codes, .. }, .. } => self.merge_report(&codes, now, out),
            Recv { msg: Msg::TableGossip { codes, .. }, .. } => self.merge_report(&codes, now, out),
            Timer(PTimer::ReportFlush) => self.report_timer(now, out),
            Timer(PTimer::TableGossip) => self.table_gossip_timer(now, out),
            Timer(PTimer::RecoveryFuse(seq)) if seq == self.recovery_seq && self.is_idle() => {
                self.recovery_fuse(now, out)
            }
            Timer(PTimer::RecoveryFuse(_)) => {}
            // §5.2: membership; a process on a static member list ignores
            // its traffic and ticks.
            Recv { msg: Msg::Membership(_), .. } if self.membership.is_none() => {}
            Recv { from, msg: Msg::Membership(m) } => self.on_membership(from, &m, now, out),
            Timer(PTimer::MembershipTick) if self.membership.is_none() => {}
            Timer(PTimer::MembershipTick) => self.membership_tick(now, out),
            // §5.1: incumbent rumors; an announce carries nothing else.
            Recv { msg: Msg::BoundAnnounce { .. }, .. } => {}
            Timer(PTimer::BoundFlush) => self.bound_flush(now, out),
            // Crash evidence from the transport (no paper section: the
            // paper's machines learn of a crash only by silence); a peer
            // already closed, or this process itself, changes nothing.
            PeerClosed(peer) if peer == self.me || !self.is_open(peer) => {}
            PeerClosed(peer) => self.peer_closed(peer, now, out),
        }
    }

    fn category(msg: &Msg) -> TimeCategory {
        match msg {
            Msg::WorkRequest { .. } | Msg::WorkGrant { .. } | Msg::WorkDeny { .. } => {
                TimeCategory::LoadBalance
            }
            Msg::WorkReport { .. } | Msg::TableGossip { .. } => TimeCategory::Contract,
            Msg::Membership(_) => TimeCategory::Membership,
            Msg::BoundAnnounce { .. } => TimeCategory::Communicate,
        }
    }

    fn wire_size(msg: &Msg) -> usize {
        msg.wire_size()
    }

    fn metrics(&self) -> &ProcMetrics {
        &self.metrics
    }

    fn is_terminated(&self) -> bool {
        self.terminated
    }

    fn is_working(&self) -> bool {
        self.current.is_some()
    }

    fn incumbent(&self) -> f64 {
        self.incumbent
    }

    /// Information-content storage snapshot: the table's minimal codes plus
    /// the wire bytes of pool codes and the fresh set's minimal codes. Used
    /// for the paper's Table 1 storage columns, where "redundant" counts
    /// information stored at more than one site.
    fn storage_snapshot(&self) -> Option<(Vec<Code>, usize)> {
        let codes = self.table.minimal_codes();
        let pool = self.pool.iter().map(|e| e.node.wire_size() + 8);
        let fresh = self.fresh.minimal_codes();
        let aux = pool.sum::<usize>() + fresh.iter().map(|c| c.wire_size()).sum::<usize>();
        Some((codes, aux))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::work::ChildPair;

    fn cfg() -> ProtocolConfig {
        ProtocolConfig::default()
    }

    fn t0() -> SimTime {
        SimTime::ZERO
    }

    fn mk_root_holder() -> BnbProcess {
        BnbProcess::new(0, vec![0, 1, 2], cfg(), 0.0, true, 1)
    }

    fn mk_idle(me: u32) -> BnbProcess {
        BnbProcess::new(me, vec![0, 1, 2], cfg(), 0.0, false, me as u64)
    }

    fn leaf_expansion(cost: f64, solution: Option<f64>) -> Expansion {
        Expansion {
            cost,
            bound: 0.0,
            solution,
            children: None,
        }
    }

    fn branch_expansion(var: u16, lb: f64, rb: f64) -> Expansion {
        Expansion {
            cost: 1.0,
            bound: 0.0,
            solution: None,
            children: Some(ChildPair {
                var,
                left_bound: lb,
                right_bound: rb,
            }),
        }
    }

    /// Destination of the WorkRequest in `actions`, if one was sent.
    fn request_target(actions: &[Action]) -> Option<u32> {
        actions.iter().find_map(|a| match a {
            Action::Send {
                to,
                msg: Msg::WorkRequest { .. },
            } => Some(*to),
            _ => None,
        })
    }

    /// Extract the StartWork action, if any.
    fn started(actions: &[Action]) -> Option<(Code, u64)> {
        actions.iter().find_map(|a| match a {
            Action::StartWork { code, seq } => Some((code.clone(), *seq)),
            _ => None,
        })
    }

    fn sends(actions: &[Action]) -> Vec<(&u32, &Msg)> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Send { to, msg } => Some((to, msg)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn root_holder_starts_on_root() {
        let mut p = mk_root_holder();
        let actions = p.handle(PEvent::Start, t0());
        let (code, seq) = started(&actions).expect("must start work");
        assert!(code.is_root());
        assert_eq!(seq, 1);
        // Also armed the periodic timers.
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::SetTimer {
                timer: PTimer::ReportFlush,
                ..
            }
        )));
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::SetTimer {
                timer: PTimer::TableGossip,
                ..
            }
        )));
    }

    #[test]
    fn idle_process_requests_work() {
        let mut p = mk_idle(1);
        let actions = p.handle(PEvent::Start, t0());
        assert!(started(&actions).is_none());
        let reqs = sends(&actions);
        assert_eq!(reqs.len(), 1);
        assert!(matches!(reqs[0].1, Msg::WorkRequest { .. }));
        // A timeout timer guards the request.
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::SetTimer {
                timer: PTimer::LbTimeout(_),
                ..
            }
        )));
    }

    #[test]
    fn branch_pushes_children_and_continues() {
        let mut p = mk_root_holder();
        p.handle(PEvent::Start, t0());
        let actions = p.handle(
            PEvent::WorkDone {
                seq: 1,
                expansion: branch_expansion(1, 0.5, 0.7),
            },
            t0(),
        );
        // Depth-first: the right child (pushed last) is expanded next.
        let (code, _) = started(&actions).expect("continues working");
        assert_eq!(code, Code::root().child(1, true));
        assert_eq!(p.pool_len(), 1);
        assert_eq!(p.metrics().expanded, 1);
    }

    #[test]
    fn leaf_completion_enters_fresh_and_table() {
        let mut p = mk_root_holder();
        p.handle(PEvent::Start, t0());
        p.handle(
            PEvent::WorkDone {
                seq: 1,
                expansion: branch_expansion(1, 0.5, 0.7),
            },
            t0(),
        );
        // Finish the right child as a feasible leaf.
        let actions = p.handle(
            PEvent::WorkDone {
                seq: 2,
                expansion: leaf_expansion(1.0, Some(5.0)),
            },
            t0(),
        );
        assert_eq!(p.incumbent(), 5.0);
        assert!(p.table().contains(&Code::root().child(1, true)));
        // Continues with the left child.
        let (code, _) = started(&actions).unwrap();
        assert_eq!(code, Code::root().child(1, false));
    }

    #[test]
    fn elimination_completes_children_immediately() {
        let mut p = mk_root_holder();
        p.handle(PEvent::Start, t0());
        // Teach it an incumbent of 0.6 via a message.
        p.handle(
            PEvent::Recv {
                from: 1,
                msg: Msg::WorkDeny { incumbent: 0.6 },
            },
            t0(),
        );
        let actions = p.handle(
            PEvent::WorkDone {
                seq: 1,
                expansion: branch_expansion(1, 0.5, 0.7),
            },
            t0(),
        );
        // Right child (bound 0.7 ≥ 0.6) eliminated and thus completed.
        assert!(p.table().contains(&Code::root().child(1, true)));
        assert_eq!(p.metrics().eliminated_at_insert, 1);
        // Left child still expanded.
        let (code, _) = started(&actions).unwrap();
        assert_eq!(code, Code::root().child(1, false));
    }

    #[test]
    fn root_leaf_terminates_immediately() {
        let mut p = mk_root_holder();
        p.handle(PEvent::Start, t0());
        let actions = p.handle(
            PEvent::WorkDone {
                seq: 1,
                expansion: leaf_expansion(1.0, Some(3.0)),
            },
            t0(),
        );
        assert!(p.is_terminated());
        assert_eq!(p.incumbent(), 3.0);
        // Final report: root code to every member, then Halt.
        let final_reports: Vec<_> = sends(&actions)
            .into_iter()
            .filter(
                |(_, m)| matches!(m, Msg::WorkReport { codes, .. } if codes == &vec![Code::root()]),
            )
            .collect();
        assert_eq!(final_reports.len(), 2); // members 1 and 2
        assert!(actions.iter().any(|a| matches!(a, Action::Halt)));
    }

    #[test]
    fn receiving_root_report_terminates() {
        let mut p = mk_idle(1);
        p.handle(PEvent::Start, t0());
        let actions = p.handle(
            PEvent::Recv {
                from: 0,
                msg: Msg::WorkReport {
                    codes: vec![Code::root()],
                    incumbent: 42.0,
                },
            },
            t0(),
        );
        assert!(p.is_terminated());
        assert_eq!(p.incumbent(), 42.0);
        assert!(actions.iter().any(|a| matches!(a, Action::Halt)));
    }

    /// Deny every outstanding work request until the recovery fuse arms.
    /// Returns the number of denials it took.
    fn deny_until_fuse(p: &mut BnbProcess, first_target: u32) -> u32 {
        let mut target = first_target;
        for attempt in 1..=20 {
            let actions = p.handle(
                PEvent::Recv {
                    from: target,
                    msg: Msg::WorkDeny {
                        incumbent: f64::INFINITY,
                    },
                },
                t0(),
            );
            if actions.iter().any(|a| {
                matches!(
                    a,
                    Action::SetTimer {
                        timer: PTimer::RecoveryFuse(_),
                        ..
                    }
                )
            }) {
                return attempt;
            }
            target = request_target(&actions).expect("retry must send a request");
        }
        panic!("recovery fuse never armed");
    }

    #[test]
    fn deny_then_retry_then_recovery_fuse() {
        let mut p = mk_idle(1);
        let actions = p.handle(PEvent::Start, t0());
        let target = request_target(&actions).unwrap();
        let attempts = deny_until_fuse(&mut p, target);
        assert_eq!(attempts, LB_ATTEMPTS);
    }

    /// Recover after a single failed round, with no quiet threshold.
    fn impatient_cfg() -> ProtocolConfig {
        ProtocolConfig {
            lb_rounds_before_recovery: 1,
            recovery_quiet_s: 0.0,
            ..cfg()
        }
    }

    /// An idle, impatient process.
    fn mk_impatient(me: u32) -> BnbProcess {
        BnbProcess::new(me, vec![0, 1, 2], impatient_cfg(), 0.0, false, me as u64)
    }

    #[test]
    fn recovery_fuse_starts_complement_work() {
        let mut p = mk_impatient(1);
        let actions = p.handle(PEvent::Start, t0());
        let target = request_target(&actions).unwrap();
        deny_until_fuse(&mut p, target);
        let actions = p.handle(PEvent::Timer(PTimer::RecoveryFuse(1)), t0());
        // Empty table ⇒ complement = the root itself.
        let (code, _) = started(&actions).expect("recovery starts work");
        assert!(code.is_root());
        assert_eq!(p.metrics().recoveries, 1);
    }

    #[test]
    fn recovery_respects_known_completions() {
        let mut p = mk_impatient(1);
        let actions = p.handle(PEvent::Start, t0());
        let target = request_target(&actions).unwrap();
        // Learn that (x1,0) is complete.
        p.handle(
            PEvent::Recv {
                from: 0,
                msg: Msg::WorkReport {
                    codes: vec![Code::from_decisions(&[(1, false)])],
                    incumbent: f64::INFINITY,
                },
            },
            t0(),
        );
        deny_until_fuse(&mut p, target);
        let actions = p.handle(PEvent::Timer(PTimer::RecoveryFuse(1)), t0());
        let (code, _) = started(&actions).unwrap();
        assert_eq!(code, Code::from_decisions(&[(1, true)]));
    }

    #[test]
    fn redundant_work_interrupted_by_gossip() {
        let mut p = mk_root_holder();
        p.handle(PEvent::Start, t0()); // working on root, seq 1
        let actions = p.handle(
            PEvent::Recv {
                from: 1,
                msg: Msg::TableGossip {
                    codes: vec![Code::root()],
                    incumbent: 9.0,
                },
            },
            t0(),
        );
        // Root covered ⇒ current work interrupted ⇒ termination detected.
        assert_eq!(p.metrics().redundant_interrupts, 1);
        assert!(p.is_terminated());
        assert!(actions.iter().any(|a| matches!(a, Action::Halt)));
        // The stale WorkDone is ignored.
        let after = p.handle(
            PEvent::WorkDone {
                seq: 1,
                expansion: leaf_expansion(1.0, Some(1.0)),
            },
            t0(),
        );
        assert!(after.is_empty());
        assert_eq!(p.metrics().expanded, 0);
    }

    /// `[(1,0) … (k,0)]`: its complement is `chain_code(1..=k)`, k disjoint
    /// subtrees.
    fn all_left(k: u16) -> Code {
        Code::from_decisions(&(1..=k).map(|v| (v, false)).collect::<Vec<_>>())
    }

    fn report_of(codes: Vec<Code>) -> Msg {
        Msg::WorkReport {
            codes,
            incumbent: f64::INFINITY,
        }
    }

    /// Does `actions` arm the load-balancing timeout or the recovery fuse?
    fn arms_patience(actions: &[Action]) -> bool {
        actions.iter().any(|a| {
            matches!(
                a,
                Action::SetTimer {
                    timer: PTimer::RecoveryFuse(_) | PTimer::LbTimeout(_),
                    ..
                }
            )
        })
    }

    /// An impatient process whose table lacks the `k` subtrees
    /// `chain_code(1..=k)`, after its fuse started recovering one of them.
    /// Returns the process and the recovered work (code, seq).
    fn mk_recovering(k: u16) -> (BnbProcess, (Code, u64)) {
        let mut p = mk_impatient(1);
        let actions = p.handle(PEvent::Start, t0());
        let target = request_target(&actions).unwrap();
        let msg = report_of(vec![all_left(k)]);
        p.handle(PEvent::Recv { from: 0, msg }, t0());
        deny_until_fuse(&mut p, target);
        let actions = p.handle(PEvent::Timer(PTimer::RecoveryFuse(1)), t0());
        let work = started(&actions).expect("recovery starts work");
        assert!((1..=k).any(|j| work.0 == chain_code(j)), "{:?}", work.0);
        assert_eq!(p.metrics().recoveries, 1);
        (p, work)
    }

    /// Finish `work` as an infeasible leaf.
    fn finish_leaf(p: &mut BnbProcess, work: &(Code, u64)) -> Vec<Action> {
        let expansion = leaf_expansion(1.0, None);
        p.handle(
            PEvent::WorkDone {
                seq: work.1,
                expansion,
            },
            t0(),
        )
    }

    /// A missing chain code other than `but`.
    fn other_missing(k: u16, but: &Code) -> Code {
        (1..=k).map(chain_code).find(|c| c != but).unwrap()
    }

    #[test]
    fn recovered_subtree_done_starts_the_next_complement_code() {
        let (mut p, work) = mk_recovering(3);
        let actions = finish_leaf(&mut p, &work);
        let (next, _) = started(&actions).expect("the chain starts the next code");
        assert_ne!(next, work.0);
        assert!((1..=3).any(|j| next == chain_code(j)), "{next:?}");
        assert!(request_target(&actions).is_none());
        assert!(!arms_patience(&actions));
        assert_eq!(p.metrics().recoveries, 2);
    }

    #[test]
    fn report_with_a_new_code_ends_the_chain() {
        let (mut p, work) = mk_recovering(3);
        let msg = report_of(vec![other_missing(3, &work.0)]);
        p.handle(PEvent::Recv { from: 2, msg }, t0());
        let actions = finish_leaf(&mut p, &work);
        assert!(started(&actions).is_none());
        assert!(request_target(&actions).is_some());
        assert_eq!(p.metrics().recoveries, 1);
    }

    #[test]
    fn non_empty_grant_ends_the_chain() {
        let (mut p, work) = mk_recovering(3);
        let msg = grant_of([other_missing(3, &work.0)].into_iter());
        p.handle(PEvent::Recv { from: 2, msg }, t0());
        // The granted code runs next, then the process seeks work.
        let actions = finish_leaf(&mut p, &work);
        let granted = started(&actions).expect("the grant is taken up");
        assert!(request_target(&actions).is_none());
        let actions = finish_leaf(&mut p, &granted);
        assert!(started(&actions).is_none());
        assert!(request_target(&actions).is_some());
        assert_eq!(p.metrics().recoveries, 1);
    }

    #[test]
    fn report_of_known_codes_does_not_end_the_chain() {
        let (mut p, work) = mk_recovering(3);
        let msg = report_of(vec![all_left(3)]);
        p.handle(PEvent::Recv { from: 2, msg }, t0());
        let actions = finish_leaf(&mut p, &work);
        assert!(started(&actions).is_some());
        assert!(request_target(&actions).is_none());
        assert_eq!(p.metrics().recoveries, 2);
    }

    #[test]
    fn lone_recoverer_halts_through_the_chain_alone() {
        const K: u16 = 5;
        let mut p = BnbProcess::new(0, vec![0], impatient_cfg(), 0.0, false, 7);
        p.handle(PEvent::Start, t0());
        p.handle(
            PEvent::Recv {
                from: 9,
                msg: report_of(vec![all_left(K)]),
            },
            t0(),
        );
        let mut actions = p.handle(PEvent::Timer(PTimer::RecoveryFuse(1)), t0());
        let mut seen = Vec::new();
        // Only work completions from here on: no timer fires.
        while let Some(work) = started(&actions) {
            seen.push(work.0.clone());
            actions = finish_leaf(&mut p, &work);
            assert!(!actions.iter().any(|a| matches!(a, Action::SetTimer { .. })));
        }
        assert!(actions.iter().any(|a| matches!(a, Action::Halt)));
        assert!(p.is_terminated());
        seen.sort();
        let mut expected: Vec<Code> = (1..=K).map(chain_code).collect();
        expected.sort();
        assert_eq!(seen, expected);
        assert_eq!(p.metrics().recoveries, u64::from(K));
    }

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    /// The load-balancing timeout `actions` arm, if any.
    fn lb_timeout(actions: &[Action]) -> Option<u32> {
        actions.iter().find_map(|a| match a {
            Action::SetTimer {
                timer: PTimer::LbTimeout(seq),
                ..
            } => Some(*seq),
            _ => None,
        })
    }

    /// The recovery fuse `actions` arm, if any.
    fn fuse(actions: &[Action]) -> Option<u32> {
        actions.iter().find_map(|a| match a {
            Action::SetTimer {
                timer: PTimer::RecoveryFuse(seq),
                ..
            } => Some(*seq),
            _ => None,
        })
    }

    /// Fire `n` request timeouts, starting with the request `actions`
    /// sent, each `lb_timeout_s` after the last from `t` on. Returns the
    /// last step's actions and its time.
    fn time_out(
        p: &mut BnbProcess,
        mut actions: Vec<Action>,
        mut t: f64,
        n: u32,
    ) -> (Vec<Action>, f64) {
        for _ in 0..n {
            let seq = lb_timeout(&actions).expect("a request is pending");
            t += p.config().lb_timeout_s;
            actions = p.handle(PEvent::Timer(PTimer::LbTimeout(seq)), secs(t));
        }
        (actions, t)
    }

    /// Deny the request `actions` sent.
    fn deny(p: &mut BnbProcess, actions: &[Action], t: f64) -> Vec<Action> {
        let from = request_target(actions).expect("a request is pending");
        let msg = Msg::WorkDeny {
            incumbent: f64::INFINITY,
        };
        p.handle(PEvent::Recv { from, msg }, secs(t))
    }

    /// Burn the fuse `actions` armed at `t`, `recovery_delay_s` later.
    fn burn(p: &mut BnbProcess, actions: &[Action], t: f64) -> (Vec<Action>, f64) {
        let seq = fuse(actions).expect("the fuse is armed");
        let t = t + p.config().recovery_delay_s;
        let actions = p.handle(PEvent::Timer(PTimer::RecoveryFuse(seq)), secs(t));
        (actions, t)
    }

    #[test]
    fn three_timeouts_arm_one_fuse_then_recover_after_the_quiet_window() {
        let mut p = mk_idle(1);
        let actions = p.handle(PEvent::Start, t0());
        let (actions, t) = time_out(&mut p, actions, 0.0, LB_ATTEMPTS);
        assert_eq!(p.metrics().silent_rounds, 1);
        // Three 0.5 s timeouts and the 1 s fuse clear the 2 s quiet window.
        let (actions, t) = burn(&mut p, &actions, t);
        assert!(t >= p.config().recovery_quiet_s);
        let (code, _) = started(&actions).expect("the one fuse recovers");
        assert!(code.is_root());
        assert_eq!(p.metrics().recoveries, 1);
        assert_eq!(p.metrics().work_requests_sent, u64::from(LB_ATTEMPTS));
    }

    #[test]
    fn one_deny_among_the_three_keeps_the_full_cascade() {
        let mut p = mk_idle(1);
        let mut actions = p.handle(PEvent::Start, t0());
        let rounds = p.config().lb_rounds_before_recovery;
        let mut t = 0.0;
        for round in 1..=rounds {
            (actions, t) = time_out(&mut p, actions, t, LB_ATTEMPTS - 1);
            actions = deny(&mut p, &actions, t);
            (actions, t) = burn(&mut p, &actions, t);
            if round < rounds {
                assert!(started(&actions).is_none(), "round {round}");
                assert!(request_target(&actions).is_some(), "round {round}");
            }
        }
        assert!(started(&actions).is_some());
        assert_eq!(p.metrics().recoveries, 1);
        assert_eq!(p.metrics().silent_rounds, 0);
    }

    #[test]
    fn a_report_mid_round_still_defers_recovery_through_the_quiet_gate() {
        let mut p = mk_idle(1);
        let actions = p.handle(PEvent::Start, t0());
        let (actions, t) = time_out(&mut p, actions, 0.0, 1);
        // A peer's report inserts a code: the computation is alive.
        let msg = report_of(vec![all_left(2)]);
        p.handle(PEvent::Recv { from: 0, msg }, secs(0.6));
        let (actions, t) = time_out(&mut p, actions, t, LB_ATTEMPTS - 1);
        assert_eq!(p.metrics().silent_rounds, 1);
        // 2.5 s in, but 1.9 s after the news: the gate defers.
        let (actions, t) = burn(&mut p, &actions, t);
        assert!(started(&actions).is_none());
        assert_eq!(p.metrics().recoveries, 0);
        // The deferred fuse runs another round; its fuse recovers.
        let (actions, t) = burn(&mut p, &actions, t);
        assert!(request_target(&actions).is_some());
        let (actions, t) = time_out(&mut p, actions, t, LB_ATTEMPTS);
        let (actions, _) = burn(&mut p, &actions, t);
        assert!(started(&actions).is_some());
        assert_eq!(p.metrics().recoveries, 1);
        assert_eq!(p.metrics().silent_rounds, 2);
    }

    #[test]
    fn a_timeout_after_work_arrived_is_not_silent() {
        let mut p = mk_idle(1);
        let actions = p.handle(PEvent::Start, t0());
        let asked = request_target(&actions).unwrap();
        let seq = lb_timeout(&actions).unwrap();
        // A member nobody asked grants work; then the request times out.
        let from = if asked == 0 { 2 } else { 0 };
        let msg = grant_of([chain_code(1)].into_iter());
        let work = started(&p.handle(PEvent::Recv { from, msg }, secs(0.1))).unwrap();
        let actions = p.handle(PEvent::Timer(PTimer::LbTimeout(seq)), secs(0.5));
        assert!(actions.is_empty());
        assert_eq!(p.metrics().lb_timeouts, 1);
        // Two timeouts and a deny after the work: that timeout must not
        // make up the third.
        let expansion = leaf_expansion(1.0, None);
        let done = PEvent::WorkDone {
            seq: work.1,
            expansion,
        };
        let actions = p.handle(done, secs(0.6));
        let (actions, t) = time_out(&mut p, actions, 0.6, LB_ATTEMPTS - 1);
        let actions = deny(&mut p, &actions, t);
        assert_eq!(p.metrics().silent_rounds, 0);
        let (actions, _) = burn(&mut p, &actions, t);
        assert!(started(&actions).is_none());
        assert!(request_target(&actions).is_some());
    }

    #[test]
    fn a_silent_round_recovery_chains_as_before() {
        const K: u16 = 3;
        let mut p = mk_idle(1);
        let actions = p.handle(PEvent::Start, t0());
        let msg = report_of(vec![all_left(K)]);
        p.handle(PEvent::Recv { from: 0, msg }, t0());
        let (actions, t) = time_out(&mut p, actions, 0.0, LB_ATTEMPTS);
        let (mut actions, t) = burn(&mut p, &actions, t);
        // Each finished code starts the next at once, with no patience.
        let mut seen = Vec::new();
        while let Some(work) = started(&actions) {
            seen.push(work.0.clone());
            let expansion = leaf_expansion(1.0, None);
            let done = PEvent::WorkDone {
                seq: work.1,
                expansion,
            };
            actions = p.handle(done, secs(t));
            assert!(!arms_patience(&actions));
        }
        assert!(p.is_terminated());
        seen.sort();
        let mut expected: Vec<Code> = (1..=K).map(chain_code).collect();
        expected.sort();
        assert_eq!(seen, expected);
        assert_eq!(p.metrics().recoveries, u64::from(K));
        assert_eq!(p.metrics().silent_rounds, 1);
    }

    /// The member of `{0, 2}` that is not `asked` (a [`mk_idle`] process
    /// 1's other peer).
    fn other_peer(asked: u32) -> u32 {
        if asked == 0 {
            2
        } else {
            0
        }
    }

    #[test]
    fn a_request_to_a_peer_that_closes_fails_in_the_same_step() {
        let mut p = mk_idle(1);
        let actions = p.handle(PEvent::Start, t0());
        let asked = request_target(&actions).unwrap();
        let actions = p.handle(PEvent::PeerClosed(asked), secs(0.001));
        // The next request goes out at once, to the peer still open.
        assert_eq!(request_target(&actions), Some(other_peer(asked)));
        assert_eq!(p.metrics().lb_timeouts, 0, "no timeout was waited");
        assert_eq!(p.metrics().peers_closed, 1);
        // The abandoned request's timer is stale when it fires.
        let seq = lb_timeout(&actions).unwrap();
        let stale = p.handle(PEvent::Timer(PTimer::LbTimeout(seq - 1)), secs(0.5));
        assert!(stale.is_empty());
        // A second close of the same peer is no news.
        assert!(p.handle(PEvent::PeerClosed(asked), secs(0.6)).is_empty());
        assert_eq!(p.metrics().peers_closed, 1);
    }

    #[test]
    fn an_idle_process_whose_last_peer_closed_recovers_at_once() {
        const K: u16 = 3;
        let mut p = BnbProcess::new(1, vec![0, 1], cfg(), 0.0, false, 1);
        let actions = p.handle(PEvent::Start, t0());
        assert_eq!(request_target(&actions), Some(0));
        let msg = report_of(vec![all_left(K)]);
        p.handle(PEvent::Recv { from: 0, msg }, t0());
        // The default config would wait max(3 · 0.5 + 1, 2) s; the close
        // waives all of it.
        let mut actions = p.handle(PEvent::PeerClosed(0), secs(0.001));
        assert!(fuse(&actions).is_none());
        let mut seen = Vec::new();
        while let Some(work) = started(&actions) {
            assert!((1..=K).any(|j| work.0 == chain_code(j)), "{:?}", work.0);
            seen.push(work.0.clone());
            actions = finish_leaf(&mut p, &work);
            assert!(!arms_patience(&actions));
            assert!(sends(&actions).is_empty(), "nobody is left to tell");
        }
        assert!(p.is_terminated());
        assert_eq!(seen.len(), usize::from(K));
        assert_eq!(p.metrics().recoveries, u64::from(K));
        assert_eq!(p.metrics().silent_rounds, 0);
    }

    #[test]
    fn a_process_on_its_fuse_stops_waiting_when_its_last_peer_closes() {
        let mut p = BnbProcess::new(1, vec![0, 1], cfg(), 0.0, false, 1);
        let actions = p.handle(PEvent::Start, t0());
        let actions = deny(&mut p, &actions, 0.1);
        let actions = deny(&mut p, &actions, 0.2);
        let actions = deny(&mut p, &actions, 0.3);
        let armed = fuse(&actions).expect("three denies arm the fuse");
        let actions = p.handle(PEvent::PeerClosed(0), secs(0.4));
        let (code, _) = started(&actions).expect("recovers at once");
        assert!(code.is_root());
        // The fuse it was waiting on is moot.
        let late = p.handle(PEvent::Timer(PTimer::RecoveryFuse(armed)), secs(1.3));
        assert!(late.is_empty());
        assert_eq!(p.metrics().recoveries, 1);
    }

    #[test]
    fn with_one_of_three_peers_closed_the_full_fuse_path_still_applies() {
        let mut p = BnbProcess::new(1, vec![0, 1, 2, 3], cfg(), 0.0, false, 1);
        let mut actions = p.handle(PEvent::Start, t0());
        let asked = request_target(&actions).unwrap();
        let closed = [0, 2, 3].into_iter().find(|&x| x != asked).unwrap();
        assert!(p.handle(PEvent::PeerClosed(closed), t0()).is_empty());
        let mut t = 0.0;
        for _ in 0..LB_ATTEMPTS {
            assert_ne!(request_target(&actions), Some(closed));
            (actions, t) = time_out(&mut p, actions, t, 1);
        }
        assert_eq!(p.metrics().work_requests_sent, u64::from(LB_ATTEMPTS));
        assert_eq!(p.metrics().silent_rounds, 1);
        assert!(started(&actions).is_none());
        // The fuse, then the quiet gate, as with no peer closed.
        let (actions, t) = burn(&mut p, &actions, t);
        assert!(t >= p.config().recovery_quiet_s);
        assert!(started(&actions).expect("recovers").0.is_root());
    }

    #[test]
    fn a_frame_from_a_closed_peer_makes_it_a_target_and_recipient_again() {
        let mut p = mk_idle(1);
        let actions = p.handle(PEvent::Start, t0());
        let asked = request_target(&actions).unwrap();
        let other = other_peer(asked);
        p.handle(PEvent::PeerClosed(other), t0());
        let msg = Msg::BoundAnnounce {
            incumbent: f64::INFINITY,
        };
        p.handle(PEvent::Recv { from: other, msg }, t0());
        // The pending request's peer closes: the reopened peer is asked.
        let actions = p.handle(PEvent::PeerClosed(asked), t0());
        assert_eq!(request_target(&actions), Some(other));
        assert!(started(&actions).is_none(), "not deserted");
        let msg = grant_of([Code::root()].into_iter());
        let work = started(&p.handle(PEvent::Recv { from: other, msg }, t0())).unwrap();
        let actions = finish_leaf(&mut p, &work);
        assert!(p.is_terminated());
        let to: Vec<u32> = sends(&actions).into_iter().map(|(&to, _)| to).collect();
        assert_eq!(to, vec![other], "the final report skips the closed peer");
        assert_eq!(p.metrics().peers_closed, 2);
    }

    #[test]
    fn no_send_is_ever_addressed_to_a_closed_peer() {
        let mcfg = ftbb_gossip::MembershipConfig {
            gossip_interval: SimTime::from_millis(100),
            ..Default::default()
        };
        let gossip = ProtocolConfig {
            membership: Some(mcfg),
            ..impatient_cfg()
        };
        let static_root = BnbProcess::new(0, vec![0, 1, 2, 3], impatient_cfg(), 0.0, true, 5);
        let mut gossip_root =
            BnbProcess::with_membership(0, vec![1], true, gossip, 0.0, true, 5, SimTime::ZERO);
        gossip_root.seed_membership_view(&[1, 2, 3], SimTime::ZERO);
        for mut p in [static_root, gossip_root] {
            let mut all = p.handle(PEvent::Start, t0());
            for peer in [2, 3] {
                all.extend(p.handle(PEvent::PeerClosed(peer), t0()));
            }
            // Expand a depth-5 tree: every level improves the incumbent;
            // member 1 asks for work and every timer fires between units.
            let timers = [
                PTimer::ReportFlush,
                PTimer::TableGossip,
                PTimer::BoundFlush,
                PTimer::MembershipTick,
            ];
            let mut t = 0.0;
            let mut actions = all.clone();
            while let Some((code, seq)) = started(&actions) {
                t += 0.01;
                let depth = code.depth();
                let expansion = if depth < 5 {
                    branch_expansion(depth as u16 + 1, 0.0, 0.0)
                } else {
                    leaf_expansion(1.0, Some(-(t * 100.0)))
                };
                actions = p.handle(PEvent::WorkDone { seq, expansion }, secs(t));
                let msg = Msg::WorkRequest {
                    incumbent: f64::INFINITY,
                };
                let mut more = p.handle(PEvent::Recv { from: 1, msg }, secs(t));
                for timer in timers {
                    more.extend(p.handle(PEvent::Timer(timer), secs(t)));
                }
                all.extend(actions.iter().cloned());
                all.extend(more);
            }
            // What member 1 was granted is lost with it: the root holder
            // recovers it and halts.
            let mut actions = p.handle(PEvent::PeerClosed(1), secs(t));
            while let Some(work) = started(&actions) {
                all.extend(actions.iter().cloned());
                actions = finish_leaf(&mut p, &work);
            }
            all.extend(actions);
            assert!(p.is_terminated());
            let to: Vec<u32> = sends(&all).into_iter().map(|(&to, _)| to).collect();
            assert!(to.contains(&1), "member 1 heard from the root");
            assert!(!to.iter().any(|&to| to == 2 || to == 3), "{to:?}");
        }
    }

    #[test]
    fn work_grant_fills_pool_and_starts() {
        let mut p = mk_idle(1);
        p.handle(PEvent::Start, t0());
        let items = vec![
            GrantItem {
                code: Code::from_decisions(&[(1, false)]),
                bound: 0.2,
            },
            GrantItem {
                code: Code::from_decisions(&[(1, true)]),
                bound: 0.3,
            },
        ];
        let actions = p.handle(
            PEvent::Recv {
                from: 0,
                msg: Msg::WorkGrant {
                    items,
                    incumbent: f64::INFINITY,
                },
            },
            t0(),
        );
        assert!(started(&actions).is_some());
        assert_eq!(p.pool_len(), 1);
    }

    #[test]
    fn grant_wait_runs_from_request_to_grant() {
        let mut p = mk_idle(1);
        let sent_at = SimTime::from_millis(5);
        let target = request_target(&p.handle(PEvent::Start, sent_at)).expect("asks");
        let other = if target == 0 { 2 } else { 0 };
        let grant = || Msg::WorkGrant {
            items: vec![GrantItem {
                code: Code::from_decisions(&[(1, true)]),
                bound: 0.3,
            }],
            incumbent: f64::INFINITY,
        };
        // A grant from a member nobody asked is not an answer.
        p.handle(
            PEvent::Recv {
                from: other,
                msg: grant(),
            },
            sent_at,
        );
        assert_eq!(p.metrics().grants_received, 0);
        let at = sent_at + SimTime::from_micros(1_250);
        p.handle(
            PEvent::Recv {
                from: target,
                msg: grant(),
            },
            at,
        );
        assert_eq!(p.metrics().grants_received, 1);
        assert!((p.metrics().grant_wait_s - 0.00125).abs() < 1e-12);
    }

    #[test]
    fn donor_splits_pool_on_request() {
        let mut p = mk_root_holder();
        p.handle(PEvent::Start, t0());
        // Grow the pool: root branches, then each child branches.
        p.handle(
            PEvent::WorkDone {
                seq: 1,
                expansion: branch_expansion(1, 0.1, 0.2),
            },
            t0(),
        );
        p.handle(
            PEvent::WorkDone {
                seq: 2,
                expansion: branch_expansion(2, 0.3, 0.4),
            },
            t0(),
        );
        p.handle(
            PEvent::WorkDone {
                seq: 3,
                expansion: branch_expansion(3, 0.5, 0.6),
            },
            t0(),
        );
        let pool_before = p.pool_len();
        assert!(pool_before >= 3);
        let actions = p.handle(
            PEvent::Recv {
                from: 2,
                msg: Msg::WorkRequest {
                    incumbent: f64::INFINITY,
                },
            },
            t0(),
        );
        let grants = sends(&actions);
        assert_eq!(grants.len(), 1);
        match grants[0].1 {
            Msg::WorkGrant { items, .. } => {
                assert!(!items.is_empty());
                assert!(p.pool_len() >= GRANT_KEEP_MIN.min(pool_before));
            }
            other => panic!("expected grant, got {other:?}"),
        }
        assert_eq!(p.metrics().grants_sent, 1);
    }

    #[test]
    fn empty_pool_denies_requests() {
        let mut p = mk_idle(1);
        p.handle(PEvent::Start, t0());
        let actions = p.handle(
            PEvent::Recv {
                from: 2,
                msg: Msg::WorkRequest {
                    incumbent: f64::INFINITY,
                },
            },
            t0(),
        );
        assert!(sends(&actions)
            .iter()
            .any(|(_, m)| matches!(m, Msg::WorkDeny { .. })));
    }

    #[test]
    fn report_batch_flushes_at_c() {
        let mut p = mk_root_holder();
        p.handle(PEvent::Start, t0());
        // Build a long chain: each expansion completes one eliminated child.
        p.handle(
            PEvent::Recv {
                from: 1,
                msg: Msg::WorkDeny { incumbent: 0.55 },
            },
            t0(),
        );
        let mut reports = 0;
        // Left child stays alive (bound 0.1), right child eliminated (0.9).
        for step in 0..(cfg().report_batch + 2) as u64 {
            let actions = p.handle(
                PEvent::WorkDone {
                    seq: step + 1,
                    expansion: branch_expansion(step as u16 + 1, 0.1, 0.9),
                },
                t0(),
            );
            reports += sends(&actions)
                .iter()
                .filter(|(_, m)| matches!(m, Msg::WorkReport { .. }))
                .count();
        }
        assert!(reports > 0, "batch of eliminated codes must flush a report");
        assert!(p.metrics().reports_sent > 0);
    }

    #[test]
    fn flush_timer_sends_pending_codes() {
        let mut p = mk_root_holder();
        p.handle(PEvent::Start, t0());
        p.handle(
            PEvent::WorkDone {
                seq: 1,
                expansion: branch_expansion(1, 0.1, 0.2),
            },
            t0(),
        );
        // Right child leaf-completes: one fresh code pending.
        p.handle(
            PEvent::WorkDone {
                seq: 2,
                expansion: leaf_expansion(1.0, None),
            },
            t0(),
        );
        let actions = p.handle(PEvent::Timer(PTimer::ReportFlush), t0());
        let reports: Vec<_> = sends(&actions)
            .into_iter()
            .filter(|(_, m)| matches!(m, Msg::WorkReport { .. }))
            .collect();
        assert_eq!(reports.len(), cfg().report_fanout.min(2));
        // Timer re-arms.
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::SetTimer {
                timer: PTimer::ReportFlush,
                ..
            }
        )));
    }

    #[test]
    fn table_gossip_timer_ships_table() {
        let mut p = mk_root_holder();
        p.handle(PEvent::Start, t0());
        p.handle(
            PEvent::Recv {
                from: 1,
                msg: Msg::WorkReport {
                    codes: vec![Code::from_decisions(&[(9, true)])],
                    incumbent: f64::INFINITY,
                },
            },
            t0(),
        );
        let actions = p.handle(PEvent::Timer(PTimer::TableGossip), t0());
        let gossips: Vec<_> = sends(&actions)
            .into_iter()
            .filter(|(_, m)| matches!(m, Msg::TableGossip { .. }))
            .collect();
        assert_eq!(gossips.len(), 1);
        match gossips[0].1 {
            Msg::TableGossip { codes, .. } => {
                assert_eq!(codes, &vec![Code::from_decisions(&[(9, true)])])
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn lb_timeout_counts_as_failure() {
        let mut p = mk_idle(1);
        p.handle(PEvent::Start, t0()); // sent request seq 1
        let actions = p.handle(PEvent::Timer(PTimer::LbTimeout(1)), t0());
        assert_eq!(p.metrics().lb_timeouts, 1);
        // It retried (another request) or armed recovery.
        let retried = sends(&actions)
            .iter()
            .any(|(_, m)| matches!(m, Msg::WorkRequest { .. }));
        let fused = actions.iter().any(|a| {
            matches!(
                a,
                Action::SetTimer {
                    timer: PTimer::RecoveryFuse(_),
                    ..
                }
            )
        });
        assert!(retried || fused);
    }

    #[test]
    fn stale_lb_timeout_ignored() {
        let mut p = mk_idle(1);
        p.handle(PEvent::Start, t0()); // request seq 1 outstanding
        let actions = p.handle(PEvent::Timer(PTimer::LbTimeout(99)), t0());
        assert!(actions.is_empty());
        assert_eq!(p.metrics().lb_timeouts, 0);
    }

    #[test]
    fn terminated_process_ignores_everything() {
        let mut p = mk_idle(1);
        p.handle(PEvent::Start, t0());
        p.handle(
            PEvent::Recv {
                from: 0,
                msg: Msg::WorkReport {
                    codes: vec![Code::root()],
                    incumbent: 1.0,
                },
            },
            t0(),
        );
        assert!(p.is_terminated());
        let actions = p.handle(
            PEvent::Recv {
                from: 2,
                msg: Msg::WorkRequest {
                    incumbent: f64::INFINITY,
                },
            },
            t0(),
        );
        assert!(actions.is_empty());
    }

    #[test]
    fn storage_bytes_grows_with_state() {
        let mut p = mk_root_holder();
        // The arena-backed table is compact enough that draining the
        // pool can shrink *total* storage, so track the component that
        // must grow: completed work lands in the table.
        let s0 = p.table.memory_bytes();
        p.handle(PEvent::Start, t0());
        p.handle(
            PEvent::WorkDone {
                seq: 1,
                expansion: branch_expansion(1, 0.1, 0.2),
            },
            t0(),
        );
        p.handle(
            PEvent::WorkDone {
                seq: 2,
                expansion: leaf_expansion(1.0, None),
            },
            t0(),
        );
        assert!(p.table.memory_bytes() > s0);
    }

    #[test]
    fn adaptive_interval_tracks_node_cost() {
        let cfg = ProtocolConfig {
            adaptive_reports: true,
            report_batch: 10,
            report_interval_s: 1.0,
            ..cfg()
        };
        let mut p = BnbProcess::new(0, vec![0, 1], cfg, 0.0, true, 1);
        p.handle(PEvent::Start, t0());
        // Before any expansion: falls back to the configured interval.
        assert_eq!(p.report_interval(), 1.0);
        // Feed a cheap expansion: interval shrinks toward batch x cost,
        // clamped at interval/8.
        p.handle(
            PEvent::WorkDone {
                seq: 1,
                expansion: Expansion {
                    cost: 0.001,
                    bound: 0.0,
                    solution: None,
                    children: Some(ChildPair {
                        var: 1,
                        left_bound: 0.1,
                        right_bound: 0.2,
                    }),
                },
            },
            t0(),
        );
        assert_eq!(p.report_interval(), 1.0 / 8.0);
        // Feed very expensive expansions: interval grows, clamped at 8x.
        for seq in 2..40 {
            p.handle(
                PEvent::WorkDone {
                    seq,
                    expansion: Expansion {
                        cost: 100.0,
                        bound: 0.0,
                        solution: None,
                        children: Some(ChildPair {
                            var: seq as u16 + 1,
                            left_bound: 0.1,
                            right_bound: 0.2,
                        }),
                    },
                },
                t0(),
            );
        }
        assert_eq!(p.report_interval(), 8.0);

        // A unit feeds its mean node cost, not its total: 100 nodes of
        // 50 ms target 10 x 50 ms, where the 5 s total would hit the 8x
        // clamp.
        let mut p = BnbProcess::new(0, vec![0, 1], p.cfg.clone(), 0.0, true, 1);
        let (root, seq) = started(&p.handle(PEvent::Start, t0())).expect("starts");
        let unit = unit_below(&root, 100, 5.0, 60);
        p.handle(PEvent::UnitDone { seq, unit }, t0());
        assert!((p.report_interval() - 0.5).abs() < 1e-12);
    }

    /// A unit below `code` that finished its right child (contracting
    /// `completions` raw completions) and left its left child open.
    fn unit_below(code: &Code, expanded: u64, cost: f64, completions: u64) -> WorkUnit {
        WorkUnit {
            done: vec![code.child(1, true)],
            frontier: vec![(code.child(1, false), 0.1)],
            expanded,
            fathomed: completions,
            cost,
            ..WorkUnit::default()
        }
    }

    #[test]
    fn unit_completions_count_toward_c_one_by_one() {
        // c = 8 raw completions behind one done code: the first batch
        // flushes at once, shipping one code that saved seven.
        let mut p = mk_root_holder();
        let (root, seq) = started(&p.handle(PEvent::Start, t0())).expect("starts");
        let unit = unit_below(&root, 12, 0.012, 8);
        let actions = p.handle(PEvent::UnitDone { seq, unit }, t0());
        assert_eq!(reports(&actions), vec![&vec![root.child(1, true)]; 2]);
        assert_eq!(p.metrics().report_codes_sent, 1);
        assert_eq!(p.metrics().report_codes_saved, 7);
        assert_eq!(p.fresh_count, 0);
        assert_eq!(p.metrics().expanded, 12);
        // The open child is next; seven raw completions stay below c.
        let (left, seq) = started(&actions).expect("continues on the frontier");
        assert_eq!(left, root.child(1, false));
        let actions = p.handle(
            PEvent::UnitDone {
                seq,
                unit: unit_below(&left, 9, 0.009, 7),
            },
            t0(),
        );
        assert!(reports(&actions).is_empty());
        assert_eq!(p.fresh_count, 7);
        assert_eq!(p.metrics().fathomed, 15);
    }

    #[test]
    fn unit_completions_skip_codes_the_table_already_holds() {
        // A peer reported the unit's first done code while it ran: the
        // unit's extra completions ride on the next code the table takes.
        let mut p = mk_root_holder();
        let (root, seq) = started(&p.handle(PEvent::Start, t0())).expect("starts");
        let (covered, left) = (root.child(1, true), root.child(1, false));
        p.handle(
            PEvent::Recv {
                from: 1,
                msg: report_of(vec![covered.clone()]),
            },
            t0(),
        );
        let unit = WorkUnit {
            done: vec![covered, left.child(2, true)],
            frontier: vec![(left.child(2, false), 0.1)],
            expanded: 9,
            fathomed: 7,
            cost: 0.009,
            ..WorkUnit::default()
        };
        let actions = p.handle(PEvent::UnitDone { seq, unit }, t0());
        assert!(reports(&actions).is_empty());
        assert_eq!(p.fresh_count, 6);
        assert!(p.table().contains(&left.child(2, true)));
    }

    #[test]
    fn stale_unit_is_ignored() {
        let mut p = mk_root_holder();
        let (root, seq) = started(&p.handle(PEvent::Start, t0())).expect("starts");
        let unit = unit_below(&root, 3, 0.003, 2);
        let stale = p.handle(
            PEvent::UnitDone {
                seq: seq + 1,
                unit: unit.clone(),
            },
            t0(),
        );
        assert!(stale.is_empty());
        assert_eq!(p.metrics().expanded, 0);
        p.handle(PEvent::UnitDone { seq, unit }, t0());
        assert_eq!(p.metrics().expanded, 3);
        assert!(p.table().contains(&root.child(1, true)));
    }

    #[test]
    fn membership_tick_counts_suspicion_and_cleanup_transitions() {
        use ftbb_gossip::{MembershipMsg, ViewDigest};
        let mcfg = ftbb_gossip::MembershipConfig {
            gossip_interval: SimTime::from_millis(100),
            t_fail: SimTime::from_secs(1),
            t_cleanup: SimTime::from_secs(3),
            ..Default::default()
        };
        let cfg = ProtocolConfig {
            membership: Some(mcfg),
            ..cfg()
        };
        let mut p =
            BnbProcess::with_membership(1, vec![0], false, cfg, 0.0, false, 1, SimTime::ZERO);
        p.seed_membership_view(&[0, 2], SimTime::ZERO);
        p.handle(PEvent::Start, SimTime::ZERO);
        let tick = |p: &mut BnbProcess, ms: u64| {
            p.handle(
                PEvent::Timer(PTimer::MembershipTick),
                SimTime::from_millis(ms),
            );
        };
        let gossip_from_0 = |p: &mut BnbProcess, hb: u64, ms: u64| {
            p.handle(
                PEvent::Recv {
                    from: 0,
                    msg: Msg::Membership(MembershipMsg::Gossip(ViewDigest {
                        entries: vec![(0, hb)],
                    })),
                },
                SimTime::from_millis(ms),
            );
        };

        // Inside t_fail: nobody is suspected.
        tick(&mut p, 500);
        assert_eq!(p.metrics().peers_suspected, 0);
        assert!(p.take_membership_events().is_empty());

        // Peer 0 keeps heartbeating; peer 2 goes silent past t_fail.
        gossip_from_0(&mut p, 5, 900);
        tick(&mut p, 1500);
        assert_eq!(p.metrics().peers_suspected, 1);
        assert_eq!(
            p.take_membership_events(),
            vec![MembershipEvent::Suspected(2)]
        );

        // Still suspected on the next tick: transitions count once.
        gossip_from_0(&mut p, 6, 1900);
        tick(&mut p, 2000);
        assert_eq!(p.metrics().peers_suspected, 1);
        assert!(p.take_membership_events().is_empty());

        // Past t_cleanup, peer 2 is swept (and peer 0, silent since
        // t=1.9s, crosses t_fail — a second genuine suspicion).
        tick(&mut p, 3500);
        assert_eq!(p.metrics().peers_forgotten, 1);
        assert_eq!(p.metrics().peers_suspected, 2);
        let events = p.take_membership_events();
        assert!(
            events.contains(&MembershipEvent::Forgotten(2)),
            "{events:?}"
        );
        assert!(
            events.contains(&MembershipEvent::Suspected(0)),
            "{events:?}"
        );
    }

    #[test]
    fn membership_event_overflow_is_counted_not_silent() {
        let mut p = BnbProcess::new(0, vec![0, 1, 2], cfg(), 0.0, true, 1);
        for i in 0..(MEMBERSHIP_EVENT_CAP as u64 + 100) {
            p.push_membership_event(MembershipEvent::Suspected((i % 2) as u32));
        }
        // The buffer holds exactly the cap; every overflow landed in the
        // counter instead of vanishing.
        assert_eq!(p.metrics().membership_events_dropped, 100);
        assert_eq!(p.take_membership_events().len(), MEMBERSHIP_EVENT_CAP);
        // Draining frees the buffer: the next event is kept again.
        p.push_membership_event(MembershipEvent::Forgotten(1));
        assert_eq!(p.metrics().membership_events_dropped, 100);
        assert_eq!(
            p.take_membership_events(),
            vec![MembershipEvent::Forgotten(1)]
        );
    }

    #[test]
    fn compression_saves_codes_in_reports() {
        let mut p = mk_root_holder();
        p.handle(PEvent::Start, t0());
        // Complete both grandchildren under (x1,0): they contract to the
        // parent before the report goes out.
        p.handle(
            PEvent::WorkDone {
                seq: 1,
                expansion: branch_expansion(1, 0.1, 0.2),
            },
            t0(),
        );
        // Working right child (depth-first): branch it on x2.
        p.handle(
            PEvent::WorkDone {
                seq: 2,
                expansion: branch_expansion(2, 0.1, 0.2),
            },
            t0(),
        );
        // Complete its two children as leaves.
        p.handle(
            PEvent::WorkDone {
                seq: 3,
                expansion: leaf_expansion(1.0, None),
            },
            t0(),
        );
        p.handle(
            PEvent::WorkDone {
                seq: 4,
                expansion: leaf_expansion(1.0, None),
            },
            t0(),
        );
        // Flush: 2 fresh codes compressed to 1 parent code.
        p.handle(PEvent::Timer(PTimer::ReportFlush), t0());
        assert!(p.metrics().report_codes_saved >= 1);
        assert!(p.metrics().compression_ratio() > 0.0);
    }

    #[test]
    fn flush_without_recipients_sends_and_counts_nothing() {
        // A solo root holder: nobody to report to.
        let mut p = BnbProcess::new(0, vec![0], cfg(), 0.0, true, 1);
        p.handle(PEvent::Start, t0());
        p.handle(
            PEvent::Recv {
                from: 1,
                msg: Msg::WorkDeny { incumbent: 0.55 },
            },
            t0(),
        );
        // Each expansion eliminates its right child: one completion each.
        let mut sent = 0;
        for step in 0..cfg().report_batch as u64 {
            let actions = p.handle(
                PEvent::WorkDone {
                    seq: step + 1,
                    expansion: branch_expansion(step as u16 + 1, 0.1, 0.9),
                },
                t0(),
            );
            sent += sends(&actions).len();
        }
        assert!(p.fresh.is_empty(), "the batch was flushed");
        assert_eq!(sent, 0);
        let m = p.metrics();
        assert_eq!(m.reports_sent, 0);
        assert_eq!((m.report_codes_sent, m.report_codes_saved), (0, 0));
    }

    #[test]
    fn recipient_less_process_keeps_no_fresh_set() {
        let mut p = BnbProcess::new(0, vec![0], cfg(), 0.0, true, 1);
        p.handle(PEvent::Start, t0());
        p.handle(
            PEvent::Recv {
                from: 1,
                msg: Msg::WorkDeny { incumbent: 0.55 },
            },
            t0(),
        );
        let mut work = started_after_branch(&mut p);
        for var in 2..2 + 3 * cfg().report_batch as u16 {
            eliminate_right(&mut p, &mut work, var, t0());
            assert!(p.fresh.is_empty());
            assert_eq!(p.fresh_count, 0);
        }
        let actions = p.handle(PEvent::Timer(PTimer::ReportFlush), t0());
        assert!(reports(&actions).is_empty());
    }

    /// The WorkReport payloads in `actions`, one per recipient.
    fn reports(actions: &[Action]) -> Vec<&Vec<Code>> {
        sends(actions)
            .into_iter()
            .filter_map(|(_, m)| match m {
                Msg::WorkReport { codes, .. } => Some(codes),
                _ => None,
            })
            .collect()
    }

    /// The default config's report gap, and half of it.
    fn gap() -> SimTime {
        SimTime::from_secs_f64(cfg().report_gap_s())
    }

    fn half_gap() -> SimTime {
        SimTime::from_secs_f64(cfg().report_gap_s() / 2.0)
    }

    /// Expand the started root as a branch on x1 with both children live;
    /// returns the child taken up next (code, seq).
    fn started_after_branch(p: &mut BnbProcess) -> (Code, u64) {
        let actions = p.handle(
            PEvent::WorkDone {
                seq: 1,
                expansion: branch_expansion(1, 0.1, 0.2),
            },
            t0(),
        );
        started(&actions).expect("a live child is taken up")
    }

    /// Expand `work` as a branch on `var` whose right child the incumbent
    /// (0.55) eliminates — one completion — and move `work` to the left
    /// child. Returns the actions and the completed code.
    fn eliminate_right(
        p: &mut BnbProcess,
        work: &mut (Code, u64),
        var: u16,
        now: SimTime,
    ) -> (Vec<Action>, Code) {
        let done = work.0.child(var, true);
        let actions = p.handle(
            PEvent::WorkDone {
                seq: work.1,
                expansion: branch_expansion(var, 0.1, 0.9),
            },
            now,
        );
        *work = started(&actions).expect("the left child continues");
        (actions, done)
    }

    /// A root holder that flushed its first batch of `c` completions at
    /// `t0` and is working down a chain whose right children it
    /// eliminates. Returns the process, the work in hand and the next var.
    fn mk_reported_chain() -> (BnbProcess, (Code, u64), u16) {
        let mut p = mk_root_holder();
        p.handle(PEvent::Start, t0());
        p.handle(
            PEvent::Recv {
                from: 1,
                msg: Msg::WorkDeny { incumbent: 0.55 },
            },
            t0(),
        );
        let mut work = started_after_branch(&mut p);
        let mut first = 0;
        let mut var = 2;
        for _ in 0..cfg().report_batch {
            first += reports(&eliminate_right(&mut p, &mut work, var, t0()).0).len();
            var += 1;
        }
        assert_eq!(first, cfg().report_fanout, "the first batch is never held");
        (p, work, var)
    }

    #[test]
    fn batch_inside_the_report_gap_is_held_back() {
        let (mut p, mut work, first_var) = mk_reported_chain();
        let c = cfg().report_batch as u16;
        for var in first_var..first_var + 3 * c {
            let (actions, _) = eliminate_right(&mut p, &mut work, var, half_gap());
            assert!(reports(&actions).is_empty(), "var {var}");
        }
        assert_eq!(p.metrics().reports_sent, cfg().report_fanout as u64);
        assert_eq!(p.fresh_count, 3 * c as usize);
    }

    #[test]
    fn first_completion_past_the_gap_flushes_the_contracted_batch() {
        let (mut p, mut work, first_var) = mk_reported_chain();
        let before = (
            p.metrics().report_codes_sent,
            p.metrics().report_codes_saved,
        );
        let mut raw = Vec::new();
        for var in first_var..first_var + cfg().report_batch as u16 + 3 {
            let (actions, done) = eliminate_right(&mut p, &mut work, var, half_gap());
            assert!(reports(&actions).is_empty());
            raw.push(done);
        }
        // The leaf in hand completes just past the gap: with every right
        // child eliminated since the report, it contracts the whole batch.
        raw.push(work.0.clone());
        let actions = p.handle(
            PEvent::WorkDone {
                seq: work.1,
                expansion: leaf_expansion(1.0, None),
            },
            gap(),
        );
        let expected = CodeSet::from(raw.clone()).minimal_codes();
        assert_eq!(expected.len(), 1, "{expected:?}");
        let sent = reports(&actions);
        assert_eq!(sent.len(), cfg().report_fanout);
        for codes in sent {
            assert_eq!(codes, &expected);
        }
        let m = p.metrics();
        assert_eq!(m.report_codes_sent - before.0, 1);
        assert_eq!(m.report_codes_saved - before.1, raw.len() as u64 - 1);
        assert_eq!(p.fresh_count, 0);
        assert!(p.fresh.is_empty());
    }

    #[test]
    fn flush_timer_ignores_the_report_gap() {
        let (mut p, mut work, var) = mk_reported_chain();
        eliminate_right(&mut p, &mut work, var, half_gap());
        let actions = p.handle(PEvent::Timer(PTimer::ReportFlush), half_gap());
        assert_eq!(reports(&actions).len(), cfg().report_fanout);
    }

    /// `[(1,0) … (k−1,0) (k,1)]`: pairwise disjoint, and no two contract.
    fn chain_code(k: u16) -> Code {
        let mut decisions: Vec<(u16, bool)> = (1..k).map(|v| (v, false)).collect();
        decisions.push((k, true));
        Code::from_decisions(&decisions)
    }

    fn grant_of(codes: impl Iterator<Item = Code>) -> Msg {
        Msg::WorkGrant {
            items: codes.map(|code| GrantItem { code, bound: 0.1 }).collect(),
            incumbent: f64::INFINITY,
        }
    }

    /// Finish every expansion `actions` starts as an infeasible leaf until
    /// the process idles; returns every action along the way.
    fn finish_as_leaves(p: &mut BnbProcess, mut actions: Vec<Action>, now: SimTime) -> Vec<Action> {
        let mut all = Vec::new();
        while let Some((_, seq)) = started(&actions) {
            all.append(&mut actions);
            actions = p.handle(
                PEvent::WorkDone {
                    seq,
                    expansion: leaf_expansion(1.0, None),
                },
                now,
            );
        }
        all.append(&mut actions);
        all
    }

    #[test]
    fn deny_driven_seek_work_flushes_inside_the_gap() {
        let c = cfg().report_batch as u16;
        let mut p = mk_idle(1);
        let actions = p.handle(PEvent::Start, t0());
        let first_donor = request_target(&actions).unwrap();
        let grant = grant_of((1..=c).map(chain_code));
        let actions = p.handle(
            PEvent::Recv {
                from: first_donor,
                msg: grant,
            },
            t0(),
        );
        let actions = finish_as_leaves(&mut p, actions, t0());
        assert_eq!(reports(&actions).len(), cfg().report_fanout);
        let asked = request_target(&actions).expect("idle again, it asks for work");
        // Work from the member it did not ask: `c` completions inside the
        // gap are held back, and starving with a request outstanding does
        // not flush either.
        let other = if asked == 0 { 2 } else { 0 };
        let grant = grant_of((c + 1..=2 * c).map(chain_code));
        let actions = p.handle(
            PEvent::Recv {
                from: other,
                msg: grant,
            },
            half_gap(),
        );
        let actions = finish_as_leaves(&mut p, actions, half_gap());
        assert!(reports(&actions).is_empty());
        assert_eq!(p.fresh_count, c as usize);
        // The deny sends it back into `seek_work`, which flushes at once.
        let actions = p.handle(
            PEvent::Recv {
                from: asked,
                msg: Msg::WorkDeny {
                    incumbent: f64::INFINITY,
                },
            },
            half_gap(),
        );
        assert_eq!(reports(&actions).len(), cfg().report_fanout);
        assert!(request_target(&actions).is_some());
    }

    #[test]
    fn completions_a_microsecond_apart_flush_once_per_gap() {
        const N: u64 = 10_000;
        let cfg = ProtocolConfig {
            report_interval_s: 0.008,
            ..cfg()
        };
        let gap_s = cfg.report_gap_s();
        let mut p = BnbProcess::new(1, vec![0, 1, 2], cfg, 0.0, false, 1);
        let actions = p.handle(PEvent::Start, t0());
        let donor = request_target(&actions).unwrap();
        // N + 1 disjoint codes that never contract; the last stays in work,
        // so the process never starves into an ungated flush.
        let codes = (0..=N).map(|i| {
            let mut decisions: Vec<(u16, bool)> =
                (0..14).map(|j| (j + 1, (i >> j) & 1 != 0)).collect();
            decisions.push((15, false));
            Code::from_decisions(&decisions)
        });
        let actions = p.handle(
            PEvent::Recv {
                from: donor,
                msg: grant_of(codes),
            },
            t0(),
        );
        let (_, mut seq) = started(&actions).unwrap();
        let mut flushes = 0;
        for i in 1..=N {
            let actions = p.handle(
                PEvent::WorkDone {
                    seq,
                    expansion: leaf_expansion(1.0, None),
                },
                SimTime::from_micros(i),
            );
            flushes += usize::from(!reports(&actions).is_empty());
            seq = started(&actions).expect("work remains").1;
        }
        let gaps = (N as f64 * 1e-6) / gap_s;
        assert!(flushes <= gaps.ceil() as usize + 1, "{flushes} flushes");
        // A gate, not a blackout: a batch leaves about once per gap.
        assert!(flushes >= gaps as usize - 1, "{flushes} flushes");
    }

    /// Count the BoundFlush `SetTimer` actions in `actions`.
    fn flush_timers(actions: &[Action]) -> usize {
        actions
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    Action::SetTimer {
                        timer: PTimer::BoundFlush,
                        ..
                    }
                )
            })
            .count()
    }

    #[test]
    fn bound_improvement_arms_one_flush_and_coalesces() {
        let mut p = mk_idle(1);
        p.handle(PEvent::Start, t0());
        // First improvement arms exactly one flush window.
        let a1 = p.handle(
            PEvent::Recv {
                from: 0,
                msg: Msg::BoundAnnounce { incumbent: 5.0 },
            },
            t0(),
        );
        assert_eq!(flush_timers(&a1), 1);
        // A second improvement inside the window coalesces: no new timer.
        let a2 = p.handle(
            PEvent::Recv {
                from: 2,
                msg: Msg::BoundAnnounce { incumbent: 4.0 },
            },
            t0(),
        );
        assert_eq!(flush_timers(&a2), 0);
        assert_eq!(p.metrics().bound_coalesced, 1);
        // A non-improvement (stale bound) neither arms nor coalesces.
        p.bound_flush_armed = false;
        let a3 = p.handle(
            PEvent::Recv {
                from: 0,
                msg: Msg::BoundAnnounce { incumbent: 9.0 },
            },
            t0(),
        );
        assert_eq!(flush_timers(&a3), 0);
        assert_eq!(p.metrics().bound_coalesced, 1);
    }

    #[test]
    fn bound_flush_broadcasts_latest_bound_once() {
        let mut p = mk_idle(1);
        p.handle(PEvent::Start, t0());
        p.handle(
            PEvent::Recv {
                from: 0,
                msg: Msg::BoundAnnounce { incumbent: 5.0 },
            },
            t0(),
        );
        p.handle(
            PEvent::Recv {
                from: 2,
                msg: Msg::BoundAnnounce { incumbent: 4.0 },
            },
            t0(),
        );
        // The window closes: one broadcast of the *latest* bound, to
        // every other member.
        let actions = p.handle(PEvent::Timer(PTimer::BoundFlush), t0());
        let mut targets: Vec<u32> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Send {
                    to,
                    msg: Msg::BoundAnnounce { incumbent },
                } => {
                    assert_eq!(incumbent.to_bits(), 4.0f64.to_bits());
                    Some(*to)
                }
                _ => None,
            })
            .collect();
        targets.sort_unstable();
        assert_eq!(targets, vec![0, 2]);
        assert_eq!(p.metrics().bound_broadcasts, 1);
        // A flush with nothing new to say stays silent.
        let again = p.handle(PEvent::Timer(PTimer::BoundFlush), t0());
        assert!(sends(&again).is_empty());
        assert_eq!(p.metrics().bound_broadcasts, 1);
    }

    #[test]
    fn lb_piggyback_suppressed_only_after_announce() {
        let mut p = mk_idle(1);
        p.handle(PEvent::Start, t0());
        p.handle(
            PEvent::Recv {
                from: 0,
                msg: Msg::BoundAnnounce { incumbent: 5.0 },
            },
            t0(),
        );
        // Before the flush fires, LB chatter carries the bound literally
        // (the improvement has not been broadcast yet).
        let deny = p.handle(
            PEvent::Recv {
                from: 2,
                msg: Msg::WorkRequest {
                    incumbent: f64::INFINITY,
                },
            },
            t0(),
        );
        assert!(deny.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: Msg::WorkDeny { incumbent },
                ..
            } if incumbent.to_bits() == 5.0f64.to_bits()
        )));
        assert_eq!(p.metrics().bound_piggybacks_suppressed, 0);
        // After the announce, everyone already knows the bound: the
        // sentinel rides instead and the suppression is counted.
        p.handle(PEvent::Timer(PTimer::BoundFlush), t0());
        let deny = p.handle(
            PEvent::Recv {
                from: 2,
                msg: Msg::WorkRequest {
                    incumbent: f64::INFINITY,
                },
            },
            t0(),
        );
        assert!(deny.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: Msg::WorkDeny { incumbent },
                ..
            } if incumbent.is_infinite()
        )));
        assert_eq!(p.metrics().bound_piggybacks_suppressed, 1);
    }

    #[test]
    fn reports_always_carry_the_literal_incumbent() {
        // The table-flow channel is never suppressed: a root-completing
        // report must hand the receiver the exact bound it terminates
        // with (bit-identical optima regardless of announce delivery).
        let mut p = mk_root_holder();
        p.handle(PEvent::Start, t0());
        p.handle(
            PEvent::Recv {
                from: 1,
                msg: Msg::BoundAnnounce { incumbent: 0.5 },
            },
            t0(),
        );
        p.handle(PEvent::Timer(PTimer::BoundFlush), t0());
        // Root is a leaf: completing it terminates and reports.
        let actions = p.handle(
            PEvent::WorkDone {
                seq: 1,
                expansion: leaf_expansion(1.0, None),
            },
            t0(),
        );
        let reports: Vec<_> = sends(&actions)
            .into_iter()
            .filter_map(|(_, m)| match m {
                Msg::WorkReport { incumbent, .. } => Some(*incumbent),
                _ => None,
            })
            .collect();
        assert!(!reports.is_empty());
        for inc in reports {
            assert_eq!(inc.to_bits(), 0.5f64.to_bits());
        }
    }

    #[test]
    fn zero_flush_window_disables_suppression() {
        let mut c = cfg();
        c.bound_flush_s = 0.0;
        let mut p = BnbProcess::new(1, vec![0, 1, 2], c, 0.0, false, 1);
        p.handle(PEvent::Start, t0());
        let a = p.handle(
            PEvent::Recv {
                from: 0,
                msg: Msg::BoundAnnounce { incumbent: 5.0 },
            },
            t0(),
        );
        assert_eq!(flush_timers(&a), 0);
        // LB chatter always rides the literal bound — the historical
        // eager behavior.
        let deny = p.handle(
            PEvent::Recv {
                from: 2,
                msg: Msg::WorkRequest {
                    incumbent: f64::INFINITY,
                },
            },
            t0(),
        );
        assert!(deny.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: Msg::WorkDeny { incumbent },
                ..
            } if incumbent.to_bits() == 5.0f64.to_bits()
        )));
        assert_eq!(p.metrics().bound_piggybacks_suppressed, 0);
    }
}
