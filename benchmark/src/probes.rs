//! In-process probes: call each layer's public functions on inputs
//! recorded from the workload's own instance, under spans.
//!
//! The cluster's phase clock says how long nodes spent expanding,
//! communicating and contracting; these probes say what one call into
//! each layer under those phases costs *on this workload's data* — the
//! codes this tree produces, the pool size it reaches, the frames its
//! messages encode to — so a later change can be traced from a function to
//! a phase to the end-to-end time.

use crate::instances::reference;
use crate::spans::Recorder;
use ftbb_bnb::{AnyInstance, Pool, PoolEntry, SelectRule};
use ftbb_core::{
    Action, AnyExpander, BnbProcess, Expander, GrantItem, JobId, Msg, PEvent, PTimer,
    ProtocolConfig,
};
use ftbb_des::SimTime;
use ftbb_gossip::{Membership, MembershipConfig, MembershipMsg, ViewDigest};
use ftbb_runtime::{ClusterConfig, Envelope, Transport, WorkerPool};
use ftbb_tree::{Code, CodeSet};
use ftbb_wire::{encode_frame, FrameDecoder, NodeConfig, TcpMesh, WireConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::hint::black_box;
use std::net::TcpListener;
use std::time::{Duration, Instant};

type Values = Vec<(&'static str, f64)>;

/// Codes recorded per probe input: enough for stable per-call times, small
/// enough that every probe finishes in a fraction of a second.
const MAX_RECORDED: usize = 100_000;

/// Cost of reading the clock twice, subtracted from per-call timings of
/// functions that take well under a microsecond.
fn clock_overhead_ns() -> f64 {
    const N: u32 = 20_000;
    let started = Instant::now();
    for _ in 0..N {
        black_box(Instant::now());
    }
    started.elapsed().as_nanos() as f64 / f64::from(N)
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

fn per(total_ns: f64, calls: usize) -> f64 {
    if calls == 0 {
        0.0
    } else {
        total_ns / calls as f64
    }
}

/// The protocol profile `ftbb-noded` runs an `nodes`-member cluster with.
fn protocol(nodes: u32) -> ProtocolConfig {
    let mut p = ClusterConfig::new(nodes).protocol;
    p.bound_flush_s = NodeConfig::default().bound_flush_s;
    p
}

/// What driving one protocol process over the instance recorded.
pub struct Recording {
    /// Expanded codes with their bounds, in expansion order.
    pub expanded: Vec<(Code, f64)>,
    /// Completed subproblems in completion order: expanded leaves, and
    /// children that were never expanded (pruned, or cut by the probe's
    /// own cap) — what a node's table and reports are made of.
    pub completed: Vec<Code>,
    /// The per-event and per-expansion costs.
    pub values: Values,
}

/// Drive a single `BnbProcess` in-process — `handle` → `StartWork` →
/// `AnyExpander::expand` → `WorkDone` — for at most `max_s`, timing the
/// state machine and the expander separately. This splits the cluster's
/// `core.phase.expand_s` into protocol bookkeeping and problem work.
pub fn drive_process(any: &AnyInstance, max_s: f64, spans: &Recorder) -> Recording {
    let _span = spans.span("core.process.drive");
    let overhead = clock_overhead_ns();
    let mut expander = AnyExpander::new(any.clone());
    let mut process = BnbProcess::new(0, vec![0], protocol(1), expander.root_bound(), true, 1);
    let mut now = SimTime::ZERO;
    let mut timers: Vec<(SimTime, PTimer)> = Vec::new();
    let mut queue = std::collections::VecDeque::from([PEvent::Start]);
    let (mut handle_ns, mut events) = (0.0, 0usize);
    let (mut expand_ns, mut expansions) = (0.0, 0usize);
    let mut expanded: Vec<(Code, f64)> = Vec::new();
    let mut children: Vec<Code> = Vec::new();
    let mut leaves: Vec<(usize, Code)> = Vec::new();
    let budget = Duration::from_secs_f64(max_s);
    let started = Instant::now();
    'drive: while !process.is_terminated() {
        let event = match queue.pop_front() {
            Some(e) => e,
            None => {
                // Idle: jump virtual time to the next timer.
                let Some(i) = (0..timers.len()).min_by_key(|&i| timers[i].0) else {
                    break;
                };
                let (at, timer) = timers.swap_remove(i);
                now = now.max(at);
                PEvent::Timer(timer)
            }
        };
        let t = Instant::now();
        let actions = process.handle(event, now);
        handle_ns += ns(t.elapsed()) - overhead;
        events += 1;
        now += SimTime::from_micros(1);
        for action in actions {
            match action {
                Action::StartWork { code, seq } => {
                    let t = Instant::now();
                    let expansion = expander.expand(&code);
                    expand_ns += ns(t.elapsed()) - overhead;
                    expansions += 1;
                    if expanded.len() < MAX_RECORDED {
                        match expansion.children {
                            Some(kids) => {
                                children.push(code.child(kids.var, false));
                                children.push(code.child(kids.var, true));
                            }
                            None => leaves.push((children.len(), code.clone())),
                        }
                        expanded.push((code, expansion.bound));
                    }
                    queue.push_back(PEvent::WorkDone { seq, expansion });
                }
                Action::SetTimer { delay_s, timer } => {
                    timers.push((now + SimTime::from_secs_f64(delay_s), timer));
                }
                Action::Halt => break 'drive,
                Action::Send { .. } => {}
            }
        }
        if events % 1024 == 0 && started.elapsed() >= budget {
            break;
        }
    }
    spans.aggregate(
        "core.process.handle",
        events as u64,
        handle_ns.max(0.0) as u64,
    );
    spans.aggregate(
        "core.work.expand",
        expansions as u64,
        expand_ns.max(0.0) as u64,
    );

    // Completion order: a childless expansion completes on the spot; a
    // child nobody expanded completes when its parent is expanded.
    let was_expanded: HashSet<&Code> = expanded.iter().map(|(c, _)| c).collect();
    let mut completed = Vec::new();
    let mut leaves = leaves.into_iter().peekable();
    for (i, child) in children.iter().enumerate() {
        while let Some((_, leaf)) = leaves.next_if(|(at, _)| *at <= i) {
            completed.push(leaf);
        }
        if !was_expanded.contains(child) {
            completed.push(child.clone());
        }
    }
    completed.extend(leaves.map(|(_, leaf)| leaf));

    Recording {
        expanded,
        completed,
        values: vec![
            (
                "core.process.handle_ns_per_event",
                per(handle_ns, events).max(0.0),
            ),
            ("core.process.events", events as f64),
            ("core.work.expand_ns", per(expand_ns, expansions).max(0.0)),
            ("core.work.expand_calls", expansions as f64),
        ],
    }
}

/// The plain single-threaded baseline: `bnb::solve`, depth-first.
fn engine(any: &AnyInstance, spans: &Recorder) -> (Values, usize) {
    let (solved, total_ns) = spans.timed("bnb.engine.solve", 1, || reference(any, None));
    let expansions = solved.stats.expanded as usize;
    let values = vec![
        ("bnb.engine.solve_s", total_ns as f64 / 1e9),
        ("bnb.engine.expansions", expansions as f64),
        (
            "bnb.engine.ns_per_expansion",
            per(total_ns as f64, expansions),
        ),
    ];
    (values, solved.stats.peak_pool)
}

/// `bnb::Pool` as a process holds it: depth-first, codes as entries, filled
/// to `peak`, the size the workload's sequential solve reached.
fn pool(peak: usize, rec: &Recording, spans: &Recorder) -> Values {
    if rec.expanded.is_empty() {
        return Vec::new();
    }
    let entry = |i: usize| {
        let (code, bound) = &rec.expanded[i % rec.expanded.len()];
        PoolEntry {
            bound: *bound,
            depth: code.depth() as u32,
            node: code.clone(),
        }
    };
    let peak = peak.max(1);
    let mut pool: Pool<Code> = Pool::new(SelectRule::DepthFirst);
    for i in 0..peak {
        pool.push(entry(i));
    }
    const CALLS: usize = 200_000;
    let fresh: Vec<PoolEntry<Code>> = (0..CALLS).map(|i| entry(peak + i)).collect();
    let ((), push_pop) = spans.timed("bnb.pool.push_pop", CALLS as u64, || {
        for e in fresh {
            pool.push(e);
            black_box(pool.pop());
        }
    });
    let grant = protocol(2).grant_max;
    const SPLITS: usize = 2_000;
    let overhead = clock_overhead_ns();
    let mut split_ns = 0.0;
    {
        let _span = spans.batch("bnb.pool.split_off", SPLITS as u64);
        for _ in 0..SPLITS {
            let t = Instant::now();
            let donated = pool.split_off(grant);
            split_ns += ns(t.elapsed()) - overhead;
            for e in donated {
                pool.push(e);
            }
        }
    }
    vec![
        ("bnb.pool.push_pop_ns", per(push_pop as f64, CALLS)),
        ("bnb.pool.split_off_ns", per(split_ns, SPLITS).max(0.0)),
    ]
}

/// `tree::code` and `tree::codeset` on the recorded codes.
fn table(rec: &Recording, spans: &Recorder) -> Values {
    if rec.expanded.is_empty() || rec.completed.is_empty() {
        return Vec::new();
    }
    let codes = &rec.expanded;
    let ((), child_clone) = spans.timed("tree.code.child", codes.len() as u64, || {
        for (code, _) in codes {
            let child = code.child(code.depth() as u16, true);
            black_box(child.clone());
            black_box(child);
        }
    });

    let completed = &rec.completed;
    let mut set = CodeSet::new();
    let ((), insert) = spans.timed("tree.codeset.insert", completed.len() as u64, || {
        for code in completed {
            black_box(set.insert(code));
        }
    });
    // A receiver's view: the same completions arriving as reports.
    let batch = protocol(2).report_batch;
    let mut merged = CodeSet::new();
    let ((), merge) = spans.timed("tree.codeset.merge", completed.len() as u64, || {
        for report in completed.chunks(batch) {
            black_box(merged.merge(report.iter()));
        }
    });

    // Footprint while the table fills, and the half-complete table a
    // recovering node complements.
    let mut filling = CodeSet::new();
    let mut peak_bytes = 0;
    let half = completed.len() / 2;
    let mut half_table = CodeSet::new();
    for (i, code) in completed.iter().enumerate() {
        filling.insert(code);
        if i % 256 == 0 {
            peak_bytes = peak_bytes.max(filling.memory_bytes());
        }
        if i < half {
            half_table.insert(code);
        }
    }
    peak_bytes = peak_bytes.max(filling.memory_bytes());
    // Membership tests against the half-complete table: half the codes
    // are covered, half are not (a complete table answers at its root).
    let ((), contains) = spans.timed("tree.codeset.contains", codes.len() as u64, || {
        for (code, _) in codes {
            black_box(half_table.contains(code));
        }
    });
    const COMPLEMENTS: usize = 20;
    let mut out = Vec::new();
    let mut complement_us = Vec::new();
    for _ in 0..COMPLEMENTS {
        let ((), t) = spans.timed("tree.codeset.complement", 1, || {
            half_table.complement_into(&mut out);
            black_box(out.len());
        });
        complement_us.push(t as f64 / 1e3);
    }
    let stored = half_table.minimal_codes().len();

    vec![
        (
            "tree.code.child_clone_ns",
            per(child_clone as f64, codes.len()),
        ),
        (
            "tree.codeset.insert_ns",
            per(insert as f64, completed.len()),
        ),
        (
            "tree.codeset.contains_ns",
            per(contains as f64, codes.len()),
        ),
        (
            "tree.codeset.merge_ns_per_code",
            per(merge as f64, completed.len()),
        ),
        (
            "tree.codeset.complement_us",
            crate::stats::median(&complement_us).unwrap_or(0.0),
        ),
        ("tree.codeset.contraction_ratio", per(half as f64, stored)),
        ("tree.codeset.peak_bytes", peak_bytes as f64),
    ]
}

/// The workload's message mix: a work report of `report_batch` codes, a
/// grant of `grant_max` items, a request, a deny and a membership digest.
fn message_mix(rec: &Recording) -> Vec<Msg> {
    let protocol = protocol(2);
    let incumbent = rec.expanded.first().map_or(0.0, |(_, b)| *b);
    let codes: Vec<Code> = rec
        .completed
        .iter()
        .rev()
        .take(protocol.report_batch)
        .cloned()
        .collect();
    let items: Vec<GrantItem> = rec
        .expanded
        .iter()
        .rev()
        .take(protocol.grant_max)
        .map(|(code, bound)| GrantItem {
            code: code.clone(),
            bound: *bound,
        })
        .collect();
    let digest = ViewDigest {
        entries: (0..MembershipConfig::default().digest_max_entries as u32)
            .map(|m| (m, 1000 + u64::from(m)))
            .collect(),
    };
    vec![
        Msg::WorkReport { codes, incumbent },
        Msg::WorkGrant { items, incumbent },
        Msg::WorkRequest { incumbent },
        Msg::WorkDeny { incumbent },
        Msg::Membership(MembershipMsg::Gossip(digest)),
    ]
}

/// `wire::codec` over the message mix.
fn codec(rec: &Recording, spans: &Recorder) -> Values {
    let envelopes: Vec<Envelope> = message_mix(rec)
        .into_iter()
        .map(|msg| Envelope {
            job: JobId::DEFAULT,
            from: 0,
            msg,
        })
        .collect();
    const ROUNDS: usize = 20_000;
    let frames = ROUNDS * envelopes.len();
    let mut bytes = 0usize;
    let ((), encode) = spans.timed("wire.codec.encode", frames as u64, || {
        for _ in 0..ROUNDS {
            for env in &envelopes {
                bytes += black_box(encode_frame(env, 0, 0, &[])).encoded_len();
            }
        }
    });
    let encoded: Vec<_> = envelopes
        .iter()
        .map(|env| encode_frame(env, 0, 0, &[]))
        .collect();
    let mut decoder = FrameDecoder::new();
    let mut decoded = 0usize;
    let ((), decode) = spans.timed("wire.codec.decode", frames as u64, || {
        for _ in 0..ROUNDS {
            for frame in &encoded {
                decoder.push(&frame.bytes);
                while let Ok(Some(f)) = decoder.try_next() {
                    black_box(f);
                    decoded += 1;
                }
            }
        }
    });
    vec![
        ("wire.codec.encode_ns_per_frame", per(encode as f64, frames)),
        (
            "wire.codec.decode_ns_per_frame",
            per(decode as f64, decoded),
        ),
        ("wire.codec.bytes_per_frame", per(bytes as f64, frames)),
    ]
}

/// `wire::tcp`: two live meshes over loopback — burst throughput one way,
/// and the round trip of a single small frame.
fn tcp(spans: &Recorder) -> Values {
    let _span = spans.span("wire.tcp.loopback");
    let patience = Duration::from_secs(10);
    let bind = || TcpListener::bind("127.0.0.1:0").and_then(|l| Ok((l.local_addr()?, l)));
    let (Ok((addr_a, listener_a)), Ok((addr_b, listener_b))) = (bind(), bind()) else {
        return Vec::new();
    };
    let cfg = WireConfig::default();
    let Ok((a, inbox_a)) =
        TcpMesh::from_listener_incarnated_with(0, 0, listener_a, &[(1, addr_b)], cfg)
    else {
        return Vec::new();
    };
    let Ok((b, inbox_b)) =
        TcpMesh::from_listener_incarnated_with(1, 0, listener_b, &[(0, addr_a)], cfg)
    else {
        return Vec::new();
    };
    if !(a.ready(patience) && b.ready(patience)) {
        return Vec::new();
    }
    let request = || Msg::WorkRequest { incumbent: -1.5 };

    // Bursts stay far below the peer queue cap, so backpressure never
    // turns a send into a drop.
    const BURST: usize = 1024;
    const BURSTS: usize = 40;
    let ((), burst) = spans.timed("wire.tcp.send", (BURST * BURSTS) as u64, || {
        for _ in 0..BURSTS {
            for _ in 0..BURST {
                a.send(JobId::DEFAULT, 0, 1, request());
            }
            for _ in 0..BURST {
                if inbox_b.recv_timeout(patience).is_err() {
                    return;
                }
            }
        }
    });

    const PINGS: usize = 500;
    let mut rtt_us = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let t = Instant::now();
        a.send(JobId::DEFAULT, 0, 1, request());
        if inbox_b.recv_timeout(patience).is_err() {
            break;
        }
        b.send(JobId::DEFAULT, 1, 0, request());
        if inbox_a.recv_timeout(patience).is_err() {
            break;
        }
        rtt_us.push(ns(t.elapsed()) / 1e3);
    }
    vec![
        (
            "wire.tcp.loopback_frames_per_s",
            (BURST * BURSTS) as f64 / (burst as f64 / 1e9),
        ),
        (
            "wire.tcp.loopback_rtt_us",
            crate::stats::median(&rtt_us).unwrap_or(0.0),
        ),
    ]
}

/// `gossip::membership` at a 100-member view: one `tick` plus one
/// `on_message` carrying a capped digest of fresh heartbeats.
fn membership(spans: &Recorder) -> Values {
    const MEMBERS: u32 = 100;
    let daemon = NodeConfig::default();
    let cfg = MembershipConfig {
        gossip_interval: SimTime::from_secs_f64(daemon.gossip_interval_s),
        // Nobody times out: every tick walks the full alive set.
        t_fail: SimTime::from_secs(1 << 20),
        t_cleanup: SimTime::from_secs(1 << 21),
        ..MembershipConfig::default()
    };
    let mut member = Membership::new(0, cfg, SimTime::ZERO, true);
    member.observe_members(&(1..MEMBERS).collect::<Vec<_>>(), SimTime::ZERO);
    let mut rng = SmallRng::seed_from_u64(7);
    const ROUNDS: u64 = 20_000;
    let ((), total) = spans.timed("gossip.membership.tick", ROUNDS, || {
        for round in 1..=ROUNDS {
            let now = SimTime::from_millis(round);
            black_box(member.tick(now, &mut rng));
            let from = 1 + (round % u64::from(MEMBERS - 1)) as u32;
            let digest = ViewDigest {
                entries: (0..cfg.digest_max_entries as u32)
                    .map(|i| (1 + (from + i) % (MEMBERS - 1), round))
                    .collect(),
            };
            black_box(member.on_message(from, &MembershipMsg::Gossip(digest), now));
        }
    });
    vec![(
        "gossip.membership.tick_us_n100",
        per(total as f64, ROUNDS as usize) / 1e3,
    )]
}

/// `runtime::pool`: what a task costs through a two-worker `WorkerPool`
/// (submit → steal → expand → harvest) beyond expanding it inline. No
/// workload runs `--workers` > 1 on two cores; this is the baseline a
/// later multi-core workload starts from.
fn worker_pool(any: &AnyInstance, rec: &Recording, spans: &Recorder) -> Values {
    let codes: Vec<Code> = rec
        .expanded
        .iter()
        .take(4_096)
        .map(|(c, _)| c.clone())
        .collect();
    if codes.is_empty() {
        return Vec::new();
    }
    let prototype = AnyExpander::new(any.clone());
    let mut inline = prototype.clone();
    let ((), inline_ns) = spans.timed("core.work.expand", codes.len() as u64, || {
        for code in &codes {
            black_box(inline.expand(code));
        }
    });
    let mut pool = WorkerPool::new(2);
    pool.register(1, Box::new(prototype));
    let ((), pooled_ns) = spans.timed("runtime.pool.submit_harvest", codes.len() as u64, || {
        for (seq, code) in codes.iter().enumerate() {
            pool.submit(1, seq as u64, code.clone());
        }
        let mut harvested = 0;
        while harvested < codes.len() {
            if pool.harvest_timeout(Duration::from_secs(10)).is_none() {
                break;
            }
            harvested += 1;
        }
    });
    vec![(
        "runtime.pool.task_overhead_ns",
        per(pooled_ns as f64 - inline_ns as f64, codes.len()),
    )]
}

/// Run every probe on `any`. `budget_s` bounds the one open-ended probe
/// (driving the process); the others are sized by call counts.
pub fn all(any: &AnyInstance, budget_s: f64, spans: &Recorder) -> Values {
    let _span = spans.span("probes");
    let rec = drive_process(any, (budget_s * 0.5).clamp(0.2, 3.0), spans);
    let mut values = rec.values.clone();
    let (engine_values, peak_pool) = engine(any, spans);
    values.extend(engine_values);
    values.extend(pool(peak_pool, &rec, spans));
    values.extend(table(&rec, spans));
    values.extend(codec(&rec, spans));
    values.extend(tcp(spans));
    values.extend(membership(spans));
    values.extend(worker_pool(any, &rec, spans));
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instances::{search, Band, Family, Instance};

    fn small() -> Instance {
        search(
            &Band {
                family: Family::Knapsack { n: 30, range: 120 },
                lo: 2_000,
                hi: 6_000,
            },
            3,
        )
        .unwrap()
    }

    #[test]
    fn driving_a_process_reaches_the_sequential_tree() {
        let instance = small();
        let spans = Recorder::new("t");
        let rec = drive_process(&instance.any, 5.0, &spans);
        let get = |name: &str| rec.values.iter().find(|v| v.0 == name).unwrap().1;
        // One process, depth-first: exactly the sequential expansions.
        assert_eq!(
            get("core.work.expand_calls") as u64,
            instance.stats.expanded
        );
        assert_eq!(rec.expanded.len() as u64, instance.stats.expanded);
        assert!(get("core.process.events") >= get("core.work.expand_calls"));
        // Inserting every completion completes the whole tree.
        let mut set = CodeSet::new();
        for code in &rec.completed {
            set.insert(code);
        }
        assert!(set.is_root_done(), "completions must cover the tree");
        let names: Vec<_> = spans.layer_times().iter().map(|l| l.name).collect();
        assert!(names.contains(&"core.process.handle") && names.contains(&"core.work.expand"));
    }

    #[test]
    fn probes_report_their_declared_metrics() {
        let instance = small();
        let spans = Recorder::new("t");
        let values = all(&instance.any, 0.4, &spans);
        let declared: HashSet<_> = crate::workloads::PER_LAYER.iter().map(|d| d.name).collect();
        for (name, value) in &values {
            assert!(declared.contains(name), "{name} is not declared");
            assert!(value.is_finite(), "{name} = {value}");
        }
        for name in [
            "bnb.engine.ns_per_expansion",
            "bnb.pool.push_pop_ns",
            "tree.codeset.insert_ns",
            "tree.codeset.complement_us",
            "wire.codec.bytes_per_frame",
            "wire.tcp.loopback_rtt_us",
            "gossip.membership.tick_us_n100",
        ] {
            let v = values.iter().find(|v| v.0 == name).map(|v| v.1);
            assert!(v.is_some_and(|v| v > 0.0), "{name} = {v:?}");
        }
    }
}
