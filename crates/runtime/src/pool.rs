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
//! through a work-stealing deque structure (a shared
//! [`Injector`] plus per-worker local queues
//! with [`Stealer`]s between them). The pump
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
use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use ftbb_core::{Expander, Expansion};
use ftbb_tree::Code;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
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

/// How long an idle worker parks between looks at the queues.
const WORKER_PARK: Duration = Duration::from_micros(200);

/// A fixed-size pool of expansion worker threads.
///
/// Submission and harvesting are both non-blocking and meant to be
/// driven from one owner thread (the pump); `in_flight` is the owner's
/// own submitted-minus-harvested count. Dropping the pool shuts the
/// workers down and joins them; tasks still queued at shutdown are
/// discarded.
pub struct WorkerPool {
    injector: Arc<Injector<Task>>,
    results: Receiver<TaskDone>,
    registry: Arc<Mutex<HashMap<u64, Box<dyn PoolExpander>>>>,
    shutdown: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
    in_flight: usize,
}

impl WorkerPool {
    /// Spawn a pool of `workers` threads (at least 1).
    pub fn new(workers: usize) -> WorkerPool {
        assert!(workers >= 1, "a worker pool needs at least one worker");
        let injector = Arc::new(Injector::new());
        let registry: Arc<Mutex<HashMap<u64, Box<dyn PoolExpander>>>> =
            Arc::new(Mutex::new(HashMap::new()));
        let shutdown = Arc::new(AtomicBool::new(false));
        let (done_tx, done_rx) = unbounded::<TaskDone>();

        let locals: Vec<Worker<Task>> = (0..workers).map(|_| Worker::new_fifo()).collect();
        let stealers: Vec<Stealer<Task>> = locals.iter().map(|w| w.stealer()).collect();
        let handles = locals
            .into_iter()
            .enumerate()
            .map(|(i, local)| {
                let injector = Arc::clone(&injector);
                let registry = Arc::clone(&registry);
                let shutdown = Arc::clone(&shutdown);
                let done_tx: Sender<TaskDone> = done_tx.clone();
                // Every worker steals from every *other* worker.
                let siblings: Vec<Stealer<Task>> = stealers
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, s)| s.clone())
                    .collect();
                std::thread::spawn(move || {
                    worker_loop(&local, &injector, &siblings, &registry, &shutdown, &done_tx);
                })
            })
            .collect();

        WorkerPool {
            injector,
            results: done_rx,
            registry,
            shutdown,
            handles,
            workers,
            in_flight: 0,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
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
        self.injector.push(Task { job, seq, code });
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
        self.shutdown.store(true, Ordering::Release);
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One worker thread: pop local work, refill from the injector, steal
/// from siblings, park briefly when everything is dry. Expanders are
/// cached per job (cloned from the registry prototype on first use), so
/// the registry lock is off the per-task path.
fn worker_loop(
    local: &Worker<Task>,
    injector: &Injector<Task>,
    siblings: &[Stealer<Task>],
    registry: &Mutex<HashMap<u64, Box<dyn PoolExpander>>>,
    shutdown: &AtomicBool,
    done_tx: &Sender<TaskDone>,
) {
    let mut cache: HashMap<u64, Box<dyn PoolExpander>> = HashMap::new();
    loop {
        match find_task(local, injector, siblings) {
            Some(task) => {
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
            None => {
                if shutdown.load(Ordering::Acquire) {
                    return;
                }
                std::thread::sleep(WORKER_PARK);
            }
        }
    }
}

/// The standard work-stealing search order: local queue first, then a
/// batch from the shared injector, then a steal from a sibling. `Retry`
/// from a contended queue means "look again", not "give up".
fn find_task(
    local: &Worker<Task>,
    injector: &Injector<Task>,
    siblings: &[Stealer<Task>],
) -> Option<Task> {
    loop {
        if let Some(task) = local.pop() {
            return Some(task);
        }
        let mut contended = false;
        match injector.steal_batch_and_pop(local) {
            Steal::Success(task) => return Some(task),
            Steal::Retry => contended = true,
            Steal::Empty => {}
        }
        for stealer in siblings {
            match stealer.steal() {
                Steal::Success(task) => return Some(task),
                Steal::Retry => contended = true,
                Steal::Empty => {}
            }
        }
        if !contended {
            return None;
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
}
