//! The expansion worker pool: subproblem expansion off the pump thread.
//!
//! The event pump ([`crate::ServiceEngine`]) is single-threaded by
//! design — the protocol state machine, the timer wheels, and the inbox
//! all live on one thread, which is what makes the runtime's behaviour
//! reproducible against the simulator. But subproblem expansion (bound +
//! decompose) is pure computation on a self-contained code: it touches
//! no protocol state, so it is the one piece of the loop that can leave
//! the thread without changing any observable ordering the protocol
//! cares about.
//!
//! [`WorkerPool`] runs expansions on a fixed set of worker threads fed
//! through one shared MPMC channel: an idle worker is blocked in
//! `recv`, whichever worker is free takes the next task. The pump
//! submits `(job, seq, code)` tasks without blocking and harvests
//! `(job, seq, expansion)` results without blocking; the protocol's own
//! `work_seq` guard discards results that raced a redundant-work
//! interrupt, exactly as it does for inline expansion. Each job's
//! expander is registered once as an erased prototype
//! ([`PoolExpander`]); workers lazily clone a private copy per job, so
//! expansion never contends on shared problem state.
//!
//! With one job there is at most one expansion in flight (the protocol
//! allows a process only one outstanding `StartWork`), so a pool earns
//! its threads when a service node multiplexes several jobs — each
//! job's expansion runs in parallel with the others' and with the
//! pump's protocol work. The solved optimum is identical either way;
//! only wall time moves.

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use ftbb_core::{Expander, Expansion};
use ftbb_tree::Code;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Object-safe view of an [`Expander`] the pool can ship across
/// threads. Blanket-implemented for every cloneable sendable expander,
/// so any expander the single-threaded path accepts works on the pool
/// unchanged.
pub trait PoolExpander: Send {
    /// Expand one subproblem (see [`Expander::expand`]).
    fn expand(&mut self, code: &Code) -> Expansion;

    /// A private copy for one worker thread.
    fn clone_box(&self) -> Box<dyn PoolExpander>;
}

impl<E: Expander + Clone + Send + 'static> PoolExpander for E {
    fn expand(&mut self, code: &Code) -> Expansion {
        Expander::expand(self, code)
    }

    fn clone_box(&self) -> Box<dyn PoolExpander> {
        Box::new(self.clone())
    }
}

/// One expansion request.
struct Task {
    job: u64,
    seq: u64,
    code: Code,
}

/// One completed expansion.
struct TaskDone {
    job: u64,
    seq: u64,
    expansion: Expansion,
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
    registry: Arc<Mutex<HashMap<u64, Box<dyn PoolExpander>>>>,
    handles: Vec<JoinHandle<()>>,
    in_flight: usize,
}

impl WorkerPool {
    /// Spawn a pool of `workers` threads (at least 1).
    pub fn new(workers: usize) -> WorkerPool {
        assert!(workers >= 1, "a worker pool needs at least one worker");
        let registry: Arc<Mutex<HashMap<u64, Box<dyn PoolExpander>>>> =
            Arc::new(Mutex::new(HashMap::new()));
        let (task_tx, task_rx) = unbounded::<Task>();
        let (done_tx, done_rx) = unbounded::<TaskDone>();
        let handles = (0..workers)
            .map(|_| {
                let tasks = task_rx.clone();
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
    pub fn register(&self, job: u64, prototype: Box<dyn PoolExpander>) {
        self.registry
            .lock()
            .expect("pool registry poisoned")
            .entry(job)
            .or_insert(prototype);
    }

    /// Queue one expansion. Non-blocking; the result comes back through
    /// [`WorkerPool::try_harvest`].
    pub fn submit(&mut self, job: u64, seq: u64, code: Code) {
        self.in_flight += 1;
        self.tasks
            .as_ref()
            .expect("task sender live until drop")
            .send(Task { job, seq, code })
            .unwrap_or_else(|_| panic!("every pool worker has exited (a worker panicked)"));
    }

    /// Take one completed expansion, if any is ready. Non-blocking.
    pub fn try_harvest(&mut self) -> Option<(u64, u64, Expansion)> {
        let done = self.results.try_recv().ok()?;
        self.in_flight -= 1;
        Some((done.job, done.seq, done.expansion))
    }

    /// Take one completed expansion, waiting up to `timeout` for one.
    pub fn harvest_timeout(&mut self, timeout: Duration) -> Option<(u64, u64, Expansion)> {
        match self.results.recv_timeout(timeout) {
            Ok(done) => {
                self.in_flight -= 1;
                Some((done.job, done.seq, done.expansion))
            }
            Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => None,
        }
    }

    /// Expansions submitted but not yet harvested.
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
/// path.
fn worker_loop(
    tasks: &Receiver<Task>,
    registry: &Mutex<HashMap<u64, Box<dyn PoolExpander>>>,
    done_tx: &Sender<TaskDone>,
) {
    let mut cache: HashMap<u64, Box<dyn PoolExpander>> = HashMap::new();
    while let Ok(task) = tasks.recv() {
        let expander = match cache.entry(task.job) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let prototype = registry
                    .lock()
                    .expect("pool registry poisoned")
                    .get(&task.job)
                    .map(|p| p.clone_box())
                    .unwrap_or_else(|| {
                        panic!("job {} was never registered with the pool", task.job)
                    });
                e.insert(prototype)
            }
        };
        let expansion = expander.expand(&task.code);
        if done_tx
            .send(TaskDone {
                job: task.job,
                seq: task.seq,
                expansion,
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
    use ftbb_core::TreeExpander;
    use ftbb_tree::basic_tree::fig1_example;

    /// Every code of the Figure-1 example tree, root first.
    fn all_codes() -> Vec<Code> {
        let tree = fig1_example();
        (0..tree.len() as u32).map(|id| tree.code_of(id)).collect()
    }

    #[test]
    fn pool_results_match_inline_expansion() {
        let mut inline = TreeExpander::new(fig1_example());
        let mut pool = WorkerPool::new(4);
        pool.register(7, Box::new(TreeExpander::new(fig1_example())));

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
        assert_eq!(pool.in_flight(), 0);
        for (seq, code) in codes.iter().enumerate() {
            let want = Expander::expand(&mut inline, code);
            assert_eq!(got[&(seq as u64)], want, "code {code}");
        }
    }

    #[test]
    fn jobs_expand_against_their_own_registration() {
        let mut pool = WorkerPool::new(2);
        pool.register(1, Box::new(TreeExpander::new(fig1_example())));
        pool.register(
            2,
            Box::new(TreeExpander::with_granularity(fig1_example(), 10.0)),
        );
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
        pool.register(1, Box::new(TreeExpander::new(fig1_example())));
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
                let expander = TreeExpander::with_granularity(fig1_example(), granularity(job));
                pool.register(job, Box::new(expander));
            }
            for (seq, code) in codes.iter().enumerate() {
                for job in 0..JOBS {
                    pool.submit(job, seq as u64, code.clone());
                }
            }
            let total = JOBS as usize * codes.len();
            assert_eq!(pool.in_flight(), total);

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
            assert_eq!(pool.in_flight(), 0);
            assert!(
                pool.try_harvest().is_none(),
                "a result beyond the submitted"
            );
            for job in 0..JOBS {
                let mut inline = TreeExpander::with_granularity(fig1_example(), granularity(job));
                for (seq, code) in codes.iter().enumerate() {
                    let want = Expander::expand(&mut inline, code);
                    assert_eq!(got[&(job, seq as u64)], want, "job {job} code {code}");
                }
            }
        }
    }

    /// An expander that reports each expansion it starts, then waits at
    /// a gate the test holds; the gate's refcount is the number of
    /// clones workers still own.
    #[derive(Clone)]
    struct Gated {
        inner: TreeExpander,
        started: Sender<()>,
        gate: Arc<Mutex<()>>,
    }

    impl Expander for Gated {
        fn expand(&mut self, code: &Code) -> Expansion {
            self.started.send(()).expect("the test outlives the pool");
            drop(self.gate.lock().expect("gate poisoned"));
            Expander::expand(&mut self.inner, code)
        }

        fn root_bound(&self) -> f64 {
            Expander::root_bound(&self.inner)
        }
    }

    #[test]
    fn dropping_a_pool_with_queued_tasks_joins_every_worker() {
        const WORKERS: usize = 3;
        const TASKS: usize = 10;
        let (started_tx, started) = unbounded();
        let gate = Arc::new(Mutex::new(()));
        let mut pool = WorkerPool::new(WORKERS);
        pool.register(
            1,
            Box::new(Gated {
                inner: TreeExpander::new(fig1_example()),
                started: started_tx,
                gate: Arc::clone(&gate),
            }),
        );

        let held = gate.lock().unwrap();
        for seq in 0..TASKS {
            pool.submit(1, seq as u64, Code::root());
        }
        // Every worker is inside an expansion, stopped at the gate: the
        // other TASKS - WORKERS tasks are queued behind them.
        for _ in 0..WORKERS {
            started
                .recv_timeout(Duration::from_secs(5))
                .expect("each worker takes a task");
        }
        assert!(
            started.try_recv().is_err(),
            "a fourth task with three workers"
        );
        drop(held);
        drop(pool);

        // `drop` returned, so every worker thread was joined: each let go
        // of its expander clone (and the registry of the prototype), and
        // none exited before the queue was empty.
        assert_eq!(Arc::strong_count(&gate), 1);
        assert_eq!(started.try_iter().count(), TASKS - WORKERS);
    }
}
