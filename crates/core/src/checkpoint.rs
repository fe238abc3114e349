//! Process-state checkpointing — the deployed restart/rejoin substrate.
//!
//! The paper's §1 frames two roads to reliability: general-purpose
//! middleware mechanisms (checkpoint/restart à la Condor) versus
//! problem-specific mechanisms (its contribution). This module provides the
//! former for the same protocol process, deployed: `ftbb-noded
//! --checkpoint-dir` persists snapshots of a process's protocol state
//! (table, pool, incumbent, problem binding) with atomic write-rename, and
//! `--resume` restarts a killed node from its last snapshot. The restarted
//! process re-joins the live cluster under a bumped **incarnation number**
//! (see below) instead of re-joining as an amnesiac — complementary to the
//! paper's mechanism, which guarantees correctness even *without* this. A
//! checkpoint costs storage proportional to live state and recovers only
//! local knowledge; the gossip mechanism recovers *global* knowledge.
//!
//! A checkpoint captures exactly the state needed to resume: the completion
//! table, the local pool, fresh codes, the incumbent, the process's
//! incarnation, and (optionally) the materialized problem binding so a
//! resumed daemon needs no `--problem` flags and no announce frame.
//! Transient state (in-flight expansion, pending load-balancing handshakes,
//! timers) is deliberately *not* captured: on restore, the process simply
//! starts its next work item; anything that was in flight is re-derived or
//! recovered by the normal protocol paths.
//!
//! **Incarnations**: each (re)start of a node is one incarnation. A fresh
//! node is incarnation 0; restoring from a checkpoint yields incarnation
//! `checkpoint.incarnation + 1`. Transports tag frames with incarnations so
//! traffic from (or addressed to) a node's previous life is rejected as
//! stale rather than delivered to the wrong incarnation.

use crate::config::ProtocolConfig;
use crate::job::JobId;
use crate::process::BnbProcess;
use ftbb_bnb::AnyInstance;
use ftbb_des::SimTime;
use ftbb_tree::{Code, CodeSet};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// First four bytes of a checkpoint blob: "FTCP".
const CHECKPOINT_MAGIC: u32 = 0x4654_4350;

/// Version tag of the checkpoint blob format. v2 added the incarnation
/// number and the optional problem binding; v3 added the membership
/// (gossip) binding; v4 added the job id (service mode: one snapshot
/// file per job); v5 made the body the serde encoding of [`Checkpoint`]
/// (v4 packed the protocol state by hand).
pub const CHECKPOINT_VERSION: u16 = 5;

/// The membership half of a checkpoint: how a gossip-managed process was
/// wired into the group when the snapshot was taken. Restoring it lets
/// the next incarnation rejoin with its last-known world — its view's
/// members become immediate gossip/load-balancing targets instead of
/// being relearned one Welcome at a time — while heartbeat monotonicity
/// still protects against the view being stale (members that died while
/// the node was down simply never heartbeat again and get re-suspected).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GossipBinding {
    /// The gossip servers this process joins through.
    pub servers: Vec<u32>,
    /// Whether this process itself answers joins (§5.2 gossip server).
    pub is_server: bool,
    /// Every member the view knew (alive or suspected) at snapshot time.
    pub known: Vec<u32>,
}

/// Where periodic checkpoint snapshots go. The engine (`ftbb-runtime`'s
/// `ServiceEngine`) calls [`CheckpointSink::store`] on a cadence; sinks own
/// durability (e.g. `ftbb-wire`'s atomic write-rename directory sink) and
/// error reporting policy. A store failure never stops the engine — a node
/// that cannot persist keeps computing; it merely loses restartability.
pub trait CheckpointSink: Send {
    /// Persist one snapshot.
    fn store(&mut self, chk: &Checkpoint) -> Result<(), String>;
}

/// A serializable snapshot of a protocol process's durable state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Process id.
    pub me: u32,
    /// Which life of the process this snapshot belongs to (0 = first).
    pub incarnation: u32,
    /// Which job this snapshot belongs to. A service node persists one
    /// checkpoint file *per job*; the legacy single-run path uses
    /// [`JobId::DEFAULT`].
    pub job: JobId,
    /// Static member list (empty when membership-managed).
    pub members: Vec<u32>,
    /// Completion table, as contracted codes.
    pub table: Vec<Code>,
    /// Local pool entries `(code, bound)`.
    pub pool: Vec<(Code, f64)>,
    /// Fresh (unreported) completions, as the contracted codes the next
    /// report would ship.
    pub fresh: Vec<Code>,
    /// Best-known solution.
    pub incumbent: f64,
    /// Root bound (to reseed the pool priority space).
    pub root_bound: f64,
    /// The materialized workload, when the snapshotting deployment binds
    /// one (daemons do; bare `BnbProcess` checkpoints carry `None`). A
    /// bound checkpoint is self-sufficient: restore needs no problem spec
    /// and no announce frame. Shared (`Arc`) because the binding is
    /// immutable for a node's whole life while snapshots are taken on a
    /// cadence — attaching it must never deep-copy the workload.
    pub problem: Option<Arc<AnyInstance>>,
    /// Membership binding, when the process runs the gossip protocol
    /// (`None` under a static member list). See [`GossipBinding`].
    pub gossip: Option<GossipBinding>,
}

impl Checkpoint {
    /// Attach the lifecycle binding: which incarnation this snapshot
    /// belongs to, and the materialized problem it was solving.
    pub fn bind(mut self, incarnation: u32, problem: Option<Arc<AnyInstance>>) -> Checkpoint {
        self.incarnation = incarnation;
        self.problem = problem;
        self
    }

    /// Scope the snapshot to one job of a service pool.
    pub fn with_job(mut self, job: JobId) -> Checkpoint {
        self.job = job;
        self
    }

    /// Encode to a binary blob: magic, [`CHECKPOINT_VERSION`], then the
    /// serde encoding of `self`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        (CHECKPOINT_MAGIC, CHECKPOINT_VERSION).ser(&mut out);
        self.ser(&mut out);
        out
    }

    /// Decode a blob produced by [`Checkpoint::encode`].
    pub fn decode(mut data: &[u8]) -> Result<Self, String> {
        let truncated = |_| "truncated checkpoint".to_string();
        if u32::de(&mut data).map_err(truncated)? != CHECKPOINT_MAGIC {
            return Err("bad checkpoint magic".into());
        }
        let version = u16::de(&mut data).map_err(truncated)?;
        if version != CHECKPOINT_VERSION {
            return Err(format!("unsupported checkpoint version {version}"));
        }
        let chk: Checkpoint = serde::decode(data).map_err(|e| e.to_string())?;
        if let Some(p) = &chk.problem {
            // Serde decodes structure, not invariants; a binding off disk
            // must also be valid before an expander trusts it.
            p.validate()
                .map_err(|e| format!("invalid problem binding: {e}"))?;
        }
        Ok(chk)
    }
}

impl BnbProcess {
    /// Snapshot this process's durable state. The lifecycle binding
    /// (incarnation, problem) is the deployment's to attach — see
    /// [`Checkpoint::bind`]; a bare process snapshot is incarnation 0
    /// with no binding.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            me: self.id(),
            incarnation: 0,
            job: JobId::DEFAULT,
            members: self.static_member_list(),
            table: self.table().minimal_codes(),
            pool: self.pool_snapshot(),
            fresh: self.fresh_snapshot(),
            incumbent: self.incumbent(),
            root_bound: self.root_bound(),
            problem: None,
            gossip: self.membership().map(|m| GossipBinding {
                servers: self.gossip_server_list(),
                is_server: m.is_server(),
                known: m.view().known(),
            }),
        }
    }

    /// Rebuild a process from a checkpoint. The restored process is idle
    /// (no expansion in flight); drive it with [`crate::PEvent::Start`] to
    /// resume — it will pick up its pool, or seek work, or recover, exactly
    /// as the protocol dictates. The caller owns the incarnation bump (the
    /// restored *process* is state; the new *life* is the engine's).
    ///
    /// A checkpoint with a [`GossipBinding`] restores into a
    /// membership-managed process (rejoining with its last-known view):
    /// the membership *knobs* come from `cfg.membership`, like every other
    /// protocol parameter — falling back to
    /// `ftbb_gossip::MembershipConfig::default()` when the caller did not
    /// set them.
    pub fn restore(chk: &Checkpoint, cfg: ProtocolConfig, rng_seed: u64) -> BnbProcess {
        let mut cfg = cfg;
        if chk.gossip.is_some() && cfg.membership.is_none() {
            cfg.membership = Some(ftbb_gossip::MembershipConfig::default());
        }
        let mcfg = cfg.membership;
        let mut p = BnbProcess::new(
            chk.me,
            chk.members.clone(),
            cfg,
            chk.root_bound,
            false,
            rng_seed,
        );
        if let Some(g) = &chk.gossip {
            p.restore_membership(
                &g.servers,
                g.is_server,
                &g.known,
                mcfg.expect("set above"),
                SimTime::ZERO,
            );
        }
        let mut table = CodeSet::new();
        table.merge(chk.table.iter());
        p.restore_state(table, &chk.pool, &chk.fresh, chk.incumbent);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{PEvent, PTimer};
    use crate::work::{ChildPair, Expansion};
    use ftbb_des::SimTime;

    /// A MAX-SAT instance with an empty clause, decoded from the raw
    /// `(num_vars, clauses)` shape: `MaxSatInstance::new` refuses it, the
    /// serde derive does not.
    fn empty_clause_instance() -> ftbb_bnb::MaxSatInstance {
        let mut clauses = ftbb_bnb::MaxSatInstance::generate(4, 8, 1)
            .clauses()
            .to_vec();
        clauses[0].literals.clear();
        serde::decode(&serde::encode(&(4u16, clauses))).expect("raw MAX-SAT shape decodes")
    }

    fn worked_process() -> BnbProcess {
        let mut p = BnbProcess::new(0, vec![0, 1, 2], ProtocolConfig::default(), 0.0, true, 1);
        p.handle(PEvent::Start, SimTime::ZERO);
        // Branch the root and one child; complete one leaf.
        p.handle(
            PEvent::WorkDone {
                seq: 1,
                expansion: Expansion {
                    cost: 1.0,
                    bound: 0.0,
                    solution: None,
                    children: Some(ChildPair {
                        var: 1,
                        left_bound: 0.1,
                        right_bound: 0.2,
                    }),
                },
            },
            SimTime::ZERO,
        );
        p.handle(
            PEvent::WorkDone {
                seq: 2,
                expansion: Expansion {
                    cost: 1.0,
                    bound: 0.2,
                    solution: Some(5.0),
                    children: None,
                },
            },
            SimTime::ZERO,
        );
        p
    }

    #[test]
    fn checkpoint_captures_state() {
        let p = worked_process();
        let chk = p.checkpoint();
        assert_eq!(chk.me, 0);
        assert_eq!(chk.incarnation, 0);
        assert_eq!(chk.incumbent, 5.0);
        assert!(!chk.table.is_empty());
        assert!(chk.problem.is_none());
    }

    #[test]
    fn encode_decode_round_trip() {
        let chk = worked_process().checkpoint();
        assert_eq!(chk.job, JobId::DEFAULT, "bare snapshots are job 0");
        let blob = chk.encode();
        let back = Checkpoint::decode(&blob).unwrap();
        assert_eq!(chk, back);

        // A job-scoped snapshot keeps its scope through persistence.
        let chk = worked_process().checkpoint().with_job(JobId(0xfeed));
        let back = Checkpoint::decode(&chk.encode()).unwrap();
        assert_eq!(back.job, JobId(0xfeed));
        assert_eq!(chk, back);
    }

    #[test]
    fn bound_checkpoint_round_trips_with_problem_and_incarnation() {
        let instance = ftbb_bnb::AnyInstance::from(ftbb_bnb::MaxSatInstance::generate(6, 12, 3));
        let chk = worked_process()
            .checkpoint()
            .bind(3, Some(Arc::new(instance.clone())));
        assert_eq!(chk.incarnation, 3);
        let back = Checkpoint::decode(&chk.encode()).unwrap();
        assert_eq!(back, chk);
        assert_eq!(back.problem.as_deref(), Some(&instance));
    }

    #[test]
    fn gossip_checkpoint_round_trips_and_restores_the_view() {
        let mcfg = ftbb_gossip::MembershipConfig {
            gossip_interval: SimTime::from_millis(100),
            t_fail: SimTime::from_secs(2),
            t_cleanup: SimTime::from_secs(8),
            ..Default::default()
        };
        let cfg = ProtocolConfig {
            membership: Some(mcfg),
            ..Default::default()
        };
        let mut p = BnbProcess::with_membership(
            2,
            vec![0, 5],
            true,
            cfg.clone(),
            0.0,
            false,
            1,
            SimTime::ZERO,
        );
        p.seed_membership_view(&[0, 1, 3], SimTime::ZERO);

        let chk = p.checkpoint();
        let g = chk
            .gossip
            .as_ref()
            .expect("membership process binds gossip");
        assert_eq!(g.servers, vec![0, 5]);
        assert!(g.is_server);
        assert_eq!(g.known, vec![0, 1, 2, 3]);
        let back = Checkpoint::decode(&chk.encode()).unwrap();
        assert_eq!(back, chk);

        // The restored incarnation rejoins with its last-known world.
        let restored = BnbProcess::restore(&chk, cfg, 9);
        let mem = restored.membership().expect("membership restored");
        assert!(mem.is_server());
        assert_eq!(mem.view().known(), vec![0, 1, 2, 3]);

        // Without explicit knobs the default membership config applies —
        // a gossip checkpoint never silently restores into static mode.
        let plain = BnbProcess::restore(&chk, ProtocolConfig::default(), 9);
        assert!(plain.membership().is_some());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Checkpoint::decode(&[]).is_err());
        assert!(Checkpoint::decode(&[1, 2, 3, 4, 5, 6, 7, 8]).is_err());
        let mut blob = worked_process().checkpoint().encode();
        blob.truncate(blob.len() / 2);
        assert!(Checkpoint::decode(&blob).is_err());
        // Trailing junk is rejected, not ignored.
        let mut blob = worked_process().checkpoint().encode();
        blob.push(0xA5);
        assert!(Checkpoint::decode(&blob).is_err());
    }

    #[test]
    fn decode_rejects_wrong_version_and_invalid_binding() {
        let mut blob = worked_process().checkpoint().encode();
        // The version follows the magic. A v4 blob (hand-packed state) is
        // refused by number, never misread as the v5 layout.
        blob[4..6].copy_from_slice(&(CHECKPOINT_VERSION - 1).to_le_bytes());
        let err = Checkpoint::decode(&blob).unwrap_err();
        assert!(err.contains("unsupported checkpoint version 4"), "{err}");

        // A structurally decodable but invalid problem binding is refused.
        let m = empty_clause_instance();
        let chk = worked_process()
            .checkpoint()
            .bind(1, Some(Arc::new(ftbb_bnb::AnyInstance::MaxSat(m))));
        let err = Checkpoint::decode(&chk.encode()).unwrap_err();
        assert!(err.contains("invalid problem binding"), "{err}");
    }

    #[test]
    fn restored_process_resumes() {
        let p = worked_process();
        let chk = p.checkpoint();
        let mut restored = BnbProcess::restore(&chk, ProtocolConfig::default(), 9);
        assert_eq!(restored.incumbent(), 5.0);
        assert_eq!(restored.table().minimal_codes(), chk.table);
        assert_eq!(restored.pool_len(), chk.pool.len());
        // Starting the restored process begins work from its pool.
        let actions = restored.handle(PEvent::Start, SimTime::ZERO);
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, crate::Action::StartWork { .. })),
            "restored process with pool must resume working"
        );
    }

    #[test]
    fn restore_of_terminated_process_stays_terminated() {
        // Checkpoint taken after termination: the table holds the root
        // code, and the restored process must not restart the search.
        let mut p = BnbProcess::new(0, vec![0, 1], ProtocolConfig::default(), 0.0, true, 1);
        p.handle(PEvent::Start, SimTime::ZERO);
        p.handle(
            PEvent::WorkDone {
                seq: 1,
                expansion: Expansion {
                    cost: 1.0,
                    bound: 0.0,
                    solution: Some(2.0),
                    children: None,
                },
            },
            SimTime::ZERO,
        );
        assert!(p.is_terminated());
        let chk = p.checkpoint();
        let restored = BnbProcess::restore(&chk, ProtocolConfig::default(), 4);
        assert!(restored.is_terminated());
        assert_eq!(restored.incumbent(), 2.0);
    }

    #[test]
    fn restored_empty_process_seeks_work() {
        // Checkpoint of a process with an empty pool: on restore it asks
        // peers for work (or recovers), rather than sitting idle.
        let mut p = BnbProcess::new(1, vec![0, 1, 2], ProtocolConfig::default(), 0.0, false, 2);
        p.handle(PEvent::Start, SimTime::ZERO);
        let chk = p.checkpoint();
        let mut restored = BnbProcess::restore(&chk, ProtocolConfig::default(), 3);
        let actions = restored.handle(PEvent::Start, SimTime::ZERO);
        let seeks = actions.iter().any(|a| {
            matches!(
                a,
                crate::Action::Send {
                    msg: crate::Msg::WorkRequest { .. },
                    ..
                }
            ) || matches!(
                a,
                crate::Action::SetTimer {
                    timer: PTimer::RecoveryFuse(_),
                    ..
                }
            )
        });
        assert!(seeks, "restored idle process must seek work");
    }
}
