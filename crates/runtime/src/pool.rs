//! The expansion worker pool: subproblem work off the pump thread.
//!
//! The event pump ([`crate::ServiceEngine`]) is single-threaded by
//! design — the protocol state machine, the timer wheels, and the inbox
//! all live on one thread, which is what makes the runtime's behaviour
//! reproducible against the simulator. But the work a `StartWork` asks
//! for — one expansion, or a depth-first work unit below the code — is
//! pure computation on a self-contained code: it touches no protocol
//! state, so it is the one piece of the loop that can leave the thread
//! without changing any observable ordering the protocol cares about.
//!
//! [`WorkerPool`] runs that work on a fixed set of worker threads that
//! share one task receiver behind a mutex: an idle worker waits for the
//! lock or blocks in `recv` holding it, whichever worker is free takes
//! the next task, and it lets go of the lock before running it. The pump
//! submits tasks without blocking — a unit ([`WorkerPool::submit_unit`])
//! with its incumbent and wall-clock budget, or a single expansion
//! ([`WorkerPool::submit`]) — and harvests `(job, seq, work)` results
//! without blocking; the protocol's own `work_seq` guard discards results
//! that raced a redundant-work interrupt, exactly as it does for inline
//! work. Each job's [`AnyExpander`] is registered once as a prototype;
//! workers lazily clone a private copy per job, so work never contends on
//! shared problem state. A finished job is unregistered, and the workers
//! drop their copies of it, so a long-lived pool holds only live jobs.
//!
//! With one job there is at most one task in flight (the protocol allows
//! a process only one outstanding `StartWork`), so a pool earns its
//! threads when a service node multiplexes several jobs — each job's
//! unit runs in parallel with the others' and with the pump's protocol
//! work. The solved optimum is identical either way; only wall time
//! moves.

use crate::clock::Clock;
use ftbb_core::{AnyExpander, Expander, Expansion, PEvent, WorkUnit};
use ftbb_tree::Code;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What the pool's threads share about its jobs.
#[derive(Default)]
struct Registry {
    /// Each job's expander prototype, by job id. Boxed only because
    /// [`WorkerPool::register`] takes a box, as callers outside the
    /// workspace pass one.
    prototypes: Mutex<HashMap<u64, Box<AnyExpander>>>,
    /// How many jobs have been unregistered. A worker that sees it move
    /// drops its copies of the jobs no longer registered.
    unregistered: AtomicU64,
}

/// The registry's map, whether or not a thread panicked while holding
/// its lock: the map changes only by single `or_insert` and `remove`
/// calls, so a panic cannot leave it half-written, and one panicking
/// worker must not take every other worker and the pump down with it.
fn prototypes(registry: &Registry) -> MutexGuard<'_, HashMap<u64, Box<AnyExpander>>> {
    registry
        .prototypes
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// One work request.
struct Task {
    job: u64,
    seq: u64,
    code: Code,
    /// A unit's starting incumbent and wall-clock budget; `None` asks for
    /// one expansion.
    unit: Option<(f64, Duration)>,
}

/// The result of one task.
#[derive(Debug, Clone, PartialEq)]
pub enum Work {
    /// A single expansion ([`WorkerPool::submit`]).
    Expansion(Expansion),
    /// A work unit ([`WorkerPool::submit_unit`]).
    Unit(WorkUnit),
}

impl Work {
    /// The protocol event that delivers this result for work `seq`.
    pub fn event(self, seq: u64) -> PEvent {
        match self {
            Work::Expansion(expansion) => PEvent::WorkDone { seq, expansion },
            Work::Unit(unit) => PEvent::UnitDone { seq, unit },
        }
    }
}

/// One completed task.
struct TaskDone {
    job: u64,
    seq: u64,
    work: Work,
}

/// A fixed-size pool of expansion worker threads.
///
/// Submission and harvesting are both non-blocking and meant to be
/// driven from one owner thread (the pump); `in_flight` is the owner's
/// own submitted-minus-harvested count. Dropping the pool disconnects
/// the task channel and joins the workers, which first finish the tasks
/// still queued (never more than the node has live jobs); those results
/// are dropped with the pool.
pub struct WorkerPool {
    /// `Some` until drop: dropping the only sender is the workers'
    /// shutdown signal.
    tasks: Option<Sender<Task>>,
    results: Receiver<TaskDone>,
    registry: Arc<Registry>,
    handles: Vec<JoinHandle<()>>,
    in_flight: usize,
}

impl WorkerPool {
    /// Spawn a pool of `workers` threads (at least 1).
    pub fn new(workers: usize) -> WorkerPool {
        assert!(workers >= 1, "a worker pool needs at least one worker");
        let registry: Arc<Registry> = Arc::default();
        let (task_tx, task_rx) = channel::<Task>();
        let task_rx = Arc::new(Mutex::new(task_rx));
        let (done_tx, done_rx) = channel::<TaskDone>();
        let handles = (0..workers)
            .map(|_| {
                let tasks = Arc::clone(&task_rx);
                let registry = Arc::clone(&registry);
                let done_tx = done_tx.clone();
                std::thread::spawn(move || worker_loop(&tasks, &registry, &done_tx))
            })
            .collect();

        WorkerPool {
            tasks: Some(task_tx),
            results: done_rx,
            registry,
            handles,
            in_flight: 0,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Register a job's expander prototype. Idempotent — re-registering
    /// an already-known job keeps the original prototype. Must happen
    /// before the job's first [`WorkerPool::submit`].
    pub fn register(&self, job: u64, prototype: Box<AnyExpander>) {
        prototypes(&self.registry).entry(job).or_insert(prototype);
    }

    /// Forget a finished job: its prototype is dropped now, and each
    /// worker's copy when that worker takes its next task. Call it once
    /// none of the job's tasks is queued or running; a job id is
    /// registered once.
    pub fn unregister(&self, job: u64) {
        prototypes(&self.registry).remove(&job);
        self.registry.unregistered.fetch_add(1, Ordering::Release);
    }

    /// Queue one expansion. Non-blocking; the result comes back through
    /// [`WorkerPool::try_harvest`] as [`Work::Expansion`].
    pub fn submit(&mut self, job: u64, seq: u64, code: Code) {
        self.send(Task {
            job,
            seq,
            code,
            unit: None,
        });
    }

    /// Queue one work unit below `code`, starting from `incumbent` and
    /// stopped once `budget` of wall time has passed since a worker took
    /// it (the clock is read every 64 expansions). Non-blocking; the
    /// result comes back as [`Work::Unit`].
    pub fn submit_unit(
        &mut self,
        job: u64,
        seq: u64,
        code: Code,
        incumbent: f64,
        budget: Duration,
    ) {
        let unit = Some((incumbent, budget));
        self.send(Task {
            job,
            seq,
            code,
            unit,
        });
    }

    fn send(&mut self, task: Task) {
        self.in_flight += 1;
        self.tasks
            .as_ref()
            .expect("task sender live until drop")
            .send(task)
            .unwrap_or_else(|_| panic!("every pool worker has exited (a worker panicked)"));
    }

    /// Take one completed task, if any is ready. Non-blocking.
    pub fn try_harvest(&mut self) -> Option<(u64, u64, Work)> {
        let done = self.results.try_recv().ok()?;
        self.in_flight -= 1;
        Some((done.job, done.seq, done.work))
    }

    /// Take one completed task, waiting up to `timeout` for one.
    pub fn harvest_timeout(&mut self, timeout: Duration) -> Option<(u64, u64, Work)> {
        match self.results.recv_timeout(timeout) {
            Ok(done) => {
                self.in_flight -= 1;
                Some((done.job, done.seq, done.work))
            }
            Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => None,
        }
    }

    /// Tasks submitted but not yet harvested.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        drop(self.tasks.take());
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One worker thread: block for the next task until the pool drops its
/// sender. Expanders are cached per job (cloned from the registry
/// prototype on first use), so the registry lock is off the per-task
/// path; it is taken again only after an unregistration, to drop the
/// copies of the jobs gone from the registry.
fn worker_loop(tasks: &Mutex<Receiver<Task>>, registry: &Registry, done_tx: &Sender<TaskDone>) {
    let mut cache: HashMap<u64, AnyExpander> = HashMap::new();
    let mut unregistered = 0;
    loop {
        // A statement of its own, so the guard drops before the task
        // runs: in a `while let` scrutinee it would live through the
        // body and the workers would run one at a time.
        let Ok(task) = tasks.lock().unwrap_or_else(PoisonError::into_inner).recv() else {
            return;
        };
        let now_unregistered = registry.unregistered.load(Ordering::Acquire);
        if now_unregistered != unregistered {
            unregistered = now_unregistered;
            let live = prototypes(registry);
            cache.retain(|job, _| live.contains_key(job));
        }
        let expander = match cache.entry(task.job) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let prototype = prototypes(registry)
                    .get(&task.job)
                    .map(|p| AnyExpander::clone(p))
                    .unwrap_or_else(|| {
                        panic!("job {} was never registered with the pool", task.job)
                    });
                e.insert(prototype)
            }
        };
        let work = match task.unit {
            Some((incumbent, budget)) => Work::Unit(
                Clock::Wall(Instant::now()).explore(expander, &task.code, incumbent, budget),
            ),
            None => Work::Expansion(expander.expand(&task.code)),
        };
        if done_tx
            .send(TaskDone {
                job: task.job,
                seq: task.seq,
                work,
            })
            .is_err()
        {
            return; // pool dropped mid-flight
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::DEADLINE_POLL;
    use ftbb_bnb::{AnyInstance, BasicTreeProblem, Correlation, KnapsackInstance};
    use ftbb_tree::basic_tree::fig1_example;
    use ftbb_tree::BasicTree;

    /// Replays `tree` with every node cost scaled by `granularity`.
    fn replay(mut tree: BasicTree, granularity: f64) -> AnyExpander {
        tree.scale_costs(granularity);
        AnyExpander::new(AnyInstance::from(tree))
    }

    /// Every code of the Figure-1 example tree, root first.
    fn all_codes() -> Vec<Code> {
        let tree = fig1_example();
        (0..tree.len() as u32).map(|id| tree.code_of(id)).collect()
    }

    #[test]
    fn pool_results_match_inline_expansion() {
        let mut inline = replay(fig1_example(), 1.0);
        let mut pool = WorkerPool::new(4);
        pool.register(7, Box::new(replay(fig1_example(), 1.0)));

        let codes = all_codes();
        for (seq, code) in codes.iter().enumerate() {
            pool.submit(7, seq as u64, code.clone());
        }
        let mut got: HashMap<u64, Work> = HashMap::new();
        while got.len() < codes.len() {
            let (job, seq, work) = pool
                .harvest_timeout(Duration::from_secs(5))
                .expect("pool produces every result");
            assert_eq!(job, 7);
            assert!(got.insert(seq, work).is_none(), "duplicate result");
        }
        assert_eq!(pool.in_flight(), 0);
        for (seq, code) in codes.iter().enumerate() {
            let want = Work::Expansion(Expander::expand(&mut inline, code));
            assert_eq!(got[&(seq as u64)], want, "code {code}");
        }
    }

    #[test]
    fn jobs_expand_against_their_own_registration() {
        let mut pool = WorkerPool::new(2);
        pool.register(1, Box::new(replay(fig1_example(), 1.0)));
        pool.register(2, Box::new(replay(fig1_example(), 10.0)));
        pool.submit(1, 0, Code::root());
        pool.submit(2, 0, Code::root());
        let mut costs: HashMap<u64, f64> = HashMap::new();
        for _ in 0..2 {
            let (job, _, work) = pool
                .harvest_timeout(Duration::from_secs(5))
                .expect("both jobs report");
            let Work::Expansion(expansion) = work else {
                panic!("submit asks for one expansion")
            };
            costs.insert(job, expansion.cost);
        }
        assert_eq!(costs[&2], costs[&1] * 10.0);
    }

    /// A random basic tree with its depth-first engine solve.
    fn dfs_tree(seed: u64) -> (ftbb_tree::BasicTree, ftbb_bnb::SolveResult) {
        let tree = ftbb_tree::random_basic_tree(&ftbb_tree::TreeConfig {
            target_nodes: 3001,
            seed,
            ..Default::default()
        });
        let solved = ftbb_bnb::solve(
            &BasicTreeProblem::new(tree.clone()),
            &ftbb_bnb::SolveConfig::default(),
        );
        (tree, solved)
    }

    #[test]
    fn an_unbounded_unit_on_a_worker_is_the_engine_solve() {
        let (tree, solved) = dfs_tree(3);
        let mut inline = replay(tree.clone(), 1.0);
        let want = Expander::explore(&mut inline, &Code::root(), f64::INFINITY, &mut |_, _| true);
        assert_eq!(want.done, vec![Code::root()]);
        assert!(want.frontier.is_empty());
        assert_eq!(want.expanded, solved.stats.expanded);
        assert_eq!(want.solution, solved.best);
        assert_eq!(want.cost, solved.stats.total_cost);

        let mut pool = WorkerPool::new(2);
        pool.register(1, Box::new(replay(tree, 1.0)));
        let hour = Duration::from_secs(3600);
        pool.submit_unit(1, 9, Code::root(), f64::INFINITY, hour);
        let (job, seq, work) = pool.harvest_timeout(Duration::from_secs(5)).expect("done");
        assert_eq!((job, seq), (1, 9));
        assert_eq!(work, Work::Unit(want));
    }

    #[test]
    fn a_zero_budget_unit_on_a_worker_stops_at_the_first_clock_read() {
        let (tree, _) = dfs_tree(8);
        let mut inline = replay(tree.clone(), 1.0);
        let mut first_read = |n: u64, _| !n.is_multiple_of(DEADLINE_POLL);
        let root = Expander::explore(&mut inline, &Code::root(), f64::INFINITY, &mut first_read);
        assert_eq!(root.expanded, DEADLINE_POLL, "the tree outlasts one poll");

        let mut pool = WorkerPool::new(2);
        pool.register(1, Box::new(replay(tree, 1.0)));
        let frontier = root.frontier.iter().map(|(code, _)| code.clone());
        for (seq, code) in std::iter::once(Code::root()).chain(frontier).enumerate() {
            pool.submit_unit(1, seq as u64, code.clone(), f64::INFINITY, Duration::ZERO);
            let (_, got, work) = pool.harvest_timeout(Duration::from_secs(5)).expect("done");
            assert_eq!(got, seq as u64);
            let want = Expander::explore(&mut inline, &code, f64::INFINITY, &mut first_read);
            assert_eq!(work, Work::Unit(want), "code {code}");
        }
    }

    #[test]
    fn a_busy_worker_does_not_hold_back_the_next_task() {
        // Far more search than the unit's budget, in debug or release.
        let hard = KnapsackInstance::generate(60, 120, Correlation::Strong, 0.5, 423);
        let mut pool = WorkerPool::new(2);
        pool.register(1, Box::new(AnyExpander::new(hard.into())));
        pool.register(2, Box::new(replay(fig1_example(), 1.0)));
        let budget = Duration::from_millis(300);
        pool.submit_unit(1, 0, Code::root(), f64::INFINITY, budget);
        pool.submit(2, 0, Code::root());

        let (job, _, _) = pool.harvest_timeout(Duration::from_secs(5)).expect("done");
        assert_eq!(job, 2, "the expansion waited for the busy worker");
        let (job, _, work) = pool.harvest_timeout(Duration::from_secs(5)).expect("done");
        assert_eq!(job, 1);
        let Work::Unit(unit) = work else {
            panic!("submit_unit asks for a unit")
        };
        assert!(!unit.frontier.is_empty(), "the unit ran out of budget");
    }

    #[test]
    fn dropping_a_busy_pool_joins_cleanly() {
        let mut pool = WorkerPool::new(3);
        pool.register(1, Box::new(replay(fig1_example(), 1.0)));
        for seq in 0..64 {
            pool.submit(1, seq, Code::root());
        }
        drop(pool); // must not hang or panic, harvested or not
    }

    #[test]
    fn every_task_is_harvested_exactly_once_at_every_pool_width() {
        const JOBS: u64 = 3;
        let codes = all_codes();
        for workers in [1, 2, 4] {
            let mut pool = WorkerPool::new(workers);
            assert_eq!(pool.workers(), workers);
            // Job j replays the tree at granularity j + 1, so a result
            // expanded against another job's registration is caught.
            let granularity = |job: u64| (job + 1) as f64;
            for job in 0..JOBS {
                let expander = replay(fig1_example(), granularity(job));
                pool.register(job, Box::new(expander));
            }
            for (seq, code) in codes.iter().enumerate() {
                for job in 0..JOBS {
                    pool.submit(job, seq as u64, code.clone());
                }
            }
            let total = JOBS as usize * codes.len();
            assert_eq!(pool.in_flight(), total);

            let mut got: HashMap<(u64, u64), Work> = HashMap::new();
            while got.len() < total {
                let (job, seq, work) = pool
                    .harvest_timeout(Duration::from_secs(5))
                    .expect("pool produces every result");
                assert!(
                    got.insert((job, seq), work).is_none(),
                    "({job}, {seq}) harvested twice with {workers} worker(s)"
                );
            }
            assert_eq!(pool.in_flight(), 0);
            assert!(
                pool.try_harvest().is_none(),
                "a result beyond the submitted"
            );
            for job in 0..JOBS {
                let mut inline = replay(fig1_example(), granularity(job));
                for (seq, code) in codes.iter().enumerate() {
                    let want = Work::Expansion(Expander::expand(&mut inline, code));
                    assert_eq!(got[&(job, seq as u64)], want, "job {job} code {code}");
                }
            }
        }
    }

    #[test]
    fn an_unregistered_job_leaves_the_registry_and_the_workers() {
        // One worker, so the task after the unregistration is the one
        // worker's next task.
        let tree = Arc::new(dfs_tree(3).0);
        let mut pool = WorkerPool::new(1);
        let prototype = AnyExpander::new(BasicTreeProblem::new(Arc::clone(&tree)).into());
        pool.register(1, Box::new(prototype));
        pool.register(2, Box::new(replay(fig1_example(), 1.0)));
        pool.submit(1, 0, Code::root());
        pool.harvest_timeout(Duration::from_secs(5)).expect("done");
        // The test's handle, the prototype and the worker's copy.
        assert_eq!(Arc::strong_count(&tree), 3);

        pool.unregister(1);
        assert_eq!(Arc::strong_count(&tree), 2, "the prototype is gone");
        pool.submit(2, 0, Code::root());
        let (job, _, _) = pool.harvest_timeout(Duration::from_secs(5)).expect("done");
        assert_eq!(job, 2, "the other job still expands");
        assert_eq!(Arc::strong_count(&tree), 1, "the worker's copy is gone");
    }

    #[test]
    fn dropping_a_pool_with_queued_tasks_joins_every_worker() {
        const WORKERS: usize = 3;
        const TASKS: u64 = 10;
        // One recorded tree shared by the registry's prototype and every
        // worker's clone of it.
        let tree = Arc::new(dfs_tree(3).0);
        let mut pool = WorkerPool::new(WORKERS);
        let prototype = AnyExpander::new(BasicTreeProblem::new(Arc::clone(&tree)).into());
        pool.register(1, Box::new(prototype));
        // Each task solves the whole tree, so tasks are normally still
        // queued behind the busy workers when the pool drops; the check
        // below holds either way.
        let hour = Duration::from_secs(3600);
        for seq in 0..TASKS {
            pool.submit_unit(1, seq, Code::root(), f64::INFINITY, hour);
        }
        drop(pool);

        // `drop` returned, so every worker thread was joined: each let go
        // of its expander clone, and the registry of the prototype.
        assert_eq!(Arc::strong_count(&tree), 1);
    }
}
