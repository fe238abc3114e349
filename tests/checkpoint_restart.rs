//! Checkpoint/restart (the §1 "general-purpose" fault-tolerance road),
//! layered on the same protocol process: a process can be snapshotted
//! mid-computation, serialized, killed, restored elsewhere, and finish with
//! the correct optimum.

use ftbb::bnb::BasicTreeProblem;
use ftbb::core::{
    Action, BnbProcess, Checkpoint, Expander, PEvent, ProblemExpander, ProtocolConfig,
};
use ftbb::des::SimTime;
use ftbb::tree::{random_basic_tree, BasicTree, TreeConfig};

/// Replays `tree`, as the simulator does.
fn replay(tree: &BasicTree) -> ProblemExpander<BasicTreeProblem> {
    ProblemExpander::new(BasicTreeProblem::new(tree.clone()))
}

/// Drive a solo process until termination or until `stop_after` expansions,
/// returning the number of expansions performed.
fn drive(
    p: &mut BnbProcess,
    expander: &mut ProblemExpander<BasicTreeProblem>,
    stop_after: Option<u64>,
) -> u64 {
    let mut expansions = 0u64;
    let mut pending: Vec<Action> = p.handle(PEvent::Start, SimTime::ZERO);
    while !p.is_terminated() {
        let mut progressed = false;
        let batch = std::mem::take(&mut pending);
        for action in batch {
            if let Action::StartWork { code, seq } = action {
                let expansion = expander.expand(&code);
                expansions += 1;
                progressed = true;
                pending.extend(p.handle(PEvent::WorkDone { seq, expansion }, SimTime::ZERO));
                if let Some(limit) = stop_after {
                    if expansions >= limit {
                        return expansions;
                    }
                }
            }
            // Sends go nowhere (solo process); timers are irrelevant here
            // because a root-holding solo process never starves.
        }
        if !progressed {
            break;
        }
    }
    expansions
}

#[test]
fn checkpoint_mid_run_restore_and_finish() {
    let tree = random_basic_tree(&TreeConfig {
        target_nodes: 501,
        mean_cost: 0.001,
        seed: 4242,
        ..Default::default()
    });
    let optimum = tree.optimal();

    // Phase 1: work for 100 expansions, then checkpoint and "crash".
    let mut p = BnbProcess::new(0, vec![0], ProtocolConfig::default(), 0.0, true, 1);
    let mut expander = replay(&tree);
    let done_before = drive(&mut p, &mut expander, Some(100));
    assert_eq!(done_before, 100);
    assert!(!p.is_terminated());
    let blob = p.checkpoint().encode();
    drop(p); // the process is gone; only the blob survives

    // Phase 2: restore on a "new machine" and finish.
    let chk = Checkpoint::decode(&blob).expect("valid checkpoint");
    let mut restored = BnbProcess::restore(&chk, ProtocolConfig::default(), 2);
    let mut expander2 = replay(&tree);
    let done_after = drive(&mut restored, &mut expander2, None);

    assert!(restored.is_terminated(), "restored process must finish");
    assert_eq!(
        Some(restored.incumbent()),
        optimum,
        "restored process must find the optimum"
    );
    // The checkpoint preserved progress: the total work is bounded by the
    // tree size plus the one in-flight node that gets redone.
    assert!(done_after as usize <= tree.len());
    assert!(
        (done_before + done_after) as usize <= tree.len() + 1,
        "restart must not redo completed work"
    );
}

#[test]
fn checkpoint_size_tracks_contraction() {
    // A checkpoint late in the run is SMALLER than one mid-run: the table
    // contracts as subtrees complete (the paper's storage argument).
    let tree = random_basic_tree(&TreeConfig {
        target_nodes: 1001,
        mean_cost: 0.001,
        seed: 777,
        ..Default::default()
    });

    let mut sizes = Vec::new();
    for stop in [50u64, 250, 450] {
        let mut p = BnbProcess::new(0, vec![0], ProtocolConfig::default(), 0.0, true, 1);
        let mut expander = replay(&tree);
        drive(&mut p, &mut expander, Some(stop));
        sizes.push(p.checkpoint().encode().len());
    }
    // Sizes grow while the frontier widens…
    assert!(sizes[0] < sizes[2] * 10, "sanity");
    // …and a finished process's checkpoint is tiny (root code only).
    let mut p = BnbProcess::new(0, vec![0], ProtocolConfig::default(), 0.0, true, 1);
    let mut expander = replay(&tree);
    drive(&mut p, &mut expander, None);
    assert!(p.is_terminated());
    let final_size = p.checkpoint().encode().len();
    assert!(
        final_size < *sizes.iter().max().unwrap(),
        "a terminated table (root code) must be smaller than a mid-run one"
    );
}

#[test]
fn restored_process_interoperates_with_peers() {
    // A restored process re-enters a 3-member group and the whole system
    // still reaches the sequential optimum. (The simulator cannot restore
    // mid-run, so this test drives core processes directly through a tiny
    // synchronous router.)
    let tree = random_basic_tree(&TreeConfig {
        target_nodes: 201,
        mean_cost: 0.001,
        seed: 31,
        ..Default::default()
    });
    let optimum = tree.optimal();

    // Solo run to produce a half-done checkpoint.
    let mut solo = BnbProcess::new(0, vec![0, 1], ProtocolConfig::default(), 0.0, true, 1);
    let mut expander = replay(&tree);
    drive(&mut solo, &mut expander, Some(40));
    let chk = solo.checkpoint();
    drop(solo);

    // Restore as member 0 of a pair; member 1 starts fresh.
    let mut procs = [
        BnbProcess::restore(&chk, ProtocolConfig::default(), 5),
        BnbProcess::new(1, vec![0, 1], ProtocolConfig::default(), 0.0, false, 6),
    ];
    let mut expanders = [replay(&tree), replay(&tree)];

    // Synchronous rounds: deliver all actions instantly, expand inline.
    let mut inboxes: Vec<Vec<(u32, ftbb::core::Msg)>> = vec![Vec::new(), Vec::new()];
    let mut queues: Vec<Vec<Action>> = procs
        .iter_mut()
        .map(|p| p.handle(PEvent::Start, SimTime::ZERO))
        .collect();
    for _round in 0..10_000 {
        let mut any = false;
        for i in 0..procs.len() {
            let batch = std::mem::take(&mut queues[i]);
            for action in batch {
                match action {
                    Action::StartWork { code, seq } => {
                        any = true;
                        let expansion = expanders[i].expand(&code);
                        queues[i].extend(
                            procs[i].handle(PEvent::WorkDone { seq, expansion }, SimTime::ZERO),
                        );
                    }
                    Action::Send { to, msg } => {
                        any = true;
                        inboxes[to as usize].push((i as u32, msg));
                    }
                    _ => {}
                }
            }
            let mail = std::mem::take(&mut inboxes[i]);
            for (from, msg) in mail {
                any = true;
                queues[i].extend(procs[i].handle(PEvent::Recv { from, msg }, SimTime::ZERO));
            }
        }
        if procs.iter().all(|p| p.is_terminated()) || !any {
            break;
        }
    }
    assert!(
        procs[0].is_terminated(),
        "restored member must reach termination"
    );
    assert_eq!(Some(procs[0].incumbent()), optimum);
}
