//! A fixed-size pool of expansion worker threads.
//!
//! No node runs it: the pump ([`crate::ServiceEngine`]) expands every
//! work unit inline, on its own thread, because a pool measured slower
//! on the one workload where it could help (`service_mix`, two workers:
//! 235.1 against 270.7 solves/s, slower in 10 of 10 pairs). The paper
//! gets its parallelism from more processes, not from threads inside
//! one. The type is kept only for the benchmark's
//! `runtime.pool.task_overhead_ns` probe, which times a task through it
//! against the same expansion inline; it goes when that probe goes.
//!
//! [`WorkerPool`] runs single expansions on a fixed set of worker threads
//! that share one task receiver behind a mutex: an idle worker waits for
//! the lock or blocks in `recv` holding it, whichever worker is free takes
//! the next task, and it lets go of the lock before running it. Each
//! job's [`AnyExpander`] is registered once as a prototype; workers
//! lazily clone a private copy per job, so work never contends on shared
//! problem state.

use ftbb_core::{AnyExpander, Expander, Expansion};
use ftbb_tree::Code;
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Each job's expander prototype, by job id, shared by the pool's
/// threads. Boxed only because [`WorkerPool::register`] takes a box, as
/// callers outside the workspace pass one.
type Registry = Mutex<HashMap<u64, Box<AnyExpander>>>;

/// The registry's map, whether or not a thread panicked while holding
/// its lock: the map changes only by single `or_insert` calls, so a panic
/// cannot leave it half-written, and one panicking worker must not take
/// every other worker and the owner down with it.
fn prototypes(registry: &Registry) -> MutexGuard<'_, HashMap<u64, Box<AnyExpander>>> {
    registry.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One expansion request, and its result.
type Task = (u64, u64, Code);
type TaskDone = (u64, u64, Expansion);

/// A fixed-size pool of expansion worker threads.
///
/// Submission is non-blocking and meant to be driven from one owner
/// thread. Dropping the pool disconnects the task channel and joins the
/// workers, which first finish the tasks still queued; those results are
/// dropped with the pool.
pub struct WorkerPool {
    /// `Some` until drop: dropping the only sender is the workers'
    /// shutdown signal.
    tasks: Option<Sender<Task>>,
    results: Receiver<TaskDone>,
    registry: Arc<Registry>,
    handles: Vec<JoinHandle<()>>,
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
        }
    }

    /// Register a job's expander prototype. Idempotent — re-registering
    /// an already-known job keeps the original prototype. Must happen
    /// before the job's first [`WorkerPool::submit`].
    pub fn register(&self, job: u64, prototype: Box<AnyExpander>) {
        prototypes(&self.registry).entry(job).or_insert(prototype);
    }

    /// Queue one expansion of `code` for `job`, tagged `seq`.
    /// Non-blocking; the result comes back through
    /// [`WorkerPool::harvest_timeout`].
    pub fn submit(&mut self, job: u64, seq: u64, code: Code) {
        self.tasks
            .as_ref()
            .expect("task sender live until drop")
            .send((job, seq, code))
            .unwrap_or_else(|_| panic!("every pool worker has exited (a worker panicked)"));
    }

    /// Take one completed expansion as `(job, seq, expansion)`, waiting
    /// up to `timeout` for one.
    pub fn harvest_timeout(&mut self, timeout: Duration) -> Option<(u64, u64, Expansion)> {
        self.results.recv_timeout(timeout).ok()
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
/// path.
fn worker_loop(tasks: &Mutex<Receiver<Task>>, registry: &Registry, done_tx: &Sender<TaskDone>) {
    let mut cache: HashMap<u64, AnyExpander> = HashMap::new();
    loop {
        // A statement of its own, so the guard drops before the task
        // runs: in a `while let` scrutinee it would live through the
        // body and the workers would run one at a time.
        let Ok((job, seq, code)) = tasks.lock().unwrap_or_else(PoisonError::into_inner).recv()
        else {
            return;
        };
        let expander = cache.entry(job).or_insert_with(|| {
            prototypes(registry)
                .get(&job)
                .map(|p| AnyExpander::clone(p))
                .unwrap_or_else(|| panic!("job {job} was never registered with the pool"))
        });
        if done_tx.send((job, seq, expander.expand(&code))).is_err() {
            return; // pool dropped mid-flight
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbb_bnb::{AnyInstance, BasicTreeProblem};
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
        let mut got: HashMap<u64, Expansion> = HashMap::new();
        while got.len() < codes.len() {
            let (job, seq, expansion) = pool
                .harvest_timeout(Duration::from_secs(5))
                .expect("pool produces every result");
            assert_eq!(job, 7);
            assert!(got.insert(seq, expansion).is_none(), "duplicate result");
        }
        for (seq, code) in codes.iter().enumerate() {
            let want = Expander::expand(&mut inline, code);
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
            let (job, _, expansion) = pool
                .harvest_timeout(Duration::from_secs(5))
                .expect("both jobs report");
            costs.insert(job, expansion.cost);
        }
        assert_eq!(costs[&2], costs[&1] * 10.0);
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

            let mut got: HashMap<(u64, u64), Expansion> = HashMap::new();
            while got.len() < total {
                let (job, seq, expansion) = pool
                    .harvest_timeout(Duration::from_secs(5))
                    .expect("pool produces every result");
                assert!(
                    got.insert((job, seq), expansion).is_none(),
                    "({job}, {seq}) harvested twice with {workers} worker(s)"
                );
            }
            assert!(
                pool.harvest_timeout(Duration::from_millis(20)).is_none(),
                "a result beyond the submitted"
            );
            for job in 0..JOBS {
                let mut inline = replay(fig1_example(), granularity(job));
                for (seq, code) in codes.iter().enumerate() {
                    let want = Expander::expand(&mut inline, code);
                    assert_eq!(got[&(job, seq as u64)], want, "job {job} code {code}");
                }
            }
        }
    }

    #[test]
    fn dropping_a_pool_with_queued_tasks_joins_every_worker() {
        const WORKERS: usize = 3;
        const TASKS: u64 = 64;
        // One recorded tree shared by the registry's prototype and every
        // worker's clone of it.
        let tree = Arc::new(ftbb_tree::random_basic_tree(&ftbb_tree::TreeConfig {
            target_nodes: 3001,
            seed: 3,
            ..Default::default()
        }));
        let mut pool = WorkerPool::new(WORKERS);
        let prototype = AnyExpander::new(BasicTreeProblem::new(Arc::clone(&tree)).into());
        pool.register(1, Box::new(prototype));
        // Tasks may still be queued behind the workers when the pool
        // drops; the check below holds either way.
        for seq in 0..TASKS {
            pool.submit(1, seq, Code::root());
        }
        drop(pool);

        // `drop` returned, so every worker thread was joined: each let go
        // of its expander clone, and the registry of the prototype.
        assert_eq!(Arc::strong_count(&tree), 1);
    }
}
