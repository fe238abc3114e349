//! Minimal, API-compatible stand-in for `crossbeam`'s MPMC channels and
//! work-stealing deques.
//!
//! The workspace builds offline, so the channel subset the runtime uses —
//! `unbounded`, `bounded`, cloneable `Sender`/`Receiver`, `try_send`,
//! `try_recv`, `recv`, `recv_timeout`, blocking `iter` — is implemented here
//! over a mutex-protected deque and a condvar. Disconnection semantics match
//! crossbeam: a channel is disconnected when all peers on the other side have
//! dropped. Bounded channels report [`channel::TrySendError::Full`] from
//! `try_send` when at capacity, which is what `ftbb-core`'s telemetry sink
//! relies on to shed load instead of blocking the event pump.
//!
//! The [`deque`] module mirrors `crossbeam-deque`'s `Worker`/`Stealer`/
//! `Injector` triple for the expansion worker pool: each worker owns a local
//! queue, siblings steal from the opposite end, and the pump feeds new codes
//! through the shared injector. Lock contention surfaces as
//! [`deque::Steal::Retry`], exactly as crossbeam's lock-free races do, so
//! pool code written against this shim ports to the real crate unchanged.

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct Chan<T> {
        queue: Mutex<VecDeque<T>>,
        ready: Condvar,
        /// Signalled on every pop so blocked bounded-channel senders can
        /// retry; unused by unbounded channels.
        space: Condvar,
        senders: AtomicUsize,
        receivers: AtomicUsize,
        /// `None` for unbounded channels; `Some(cap)` bounds the queue and
        /// makes `try_send` report `Full` at capacity.
        cap: Option<usize>,
    }

    fn new_chan<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            space: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
            cap,
        });
        (
            Sender {
                chan: Arc::clone(&chan),
            },
            Receiver { chan },
        )
    }

    /// The sending half; cloneable.
    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
    }

    /// The receiving half; cloneable.
    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    /// Error from [`Sender::try_send`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The channel is at capacity (bounded channels only).
        Full(T),
        /// All receivers have dropped.
        Disconnected(T),
    }

    /// Error from [`Sender::send`].
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error from [`Receiver::try_recv`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        /// No message waiting.
        Empty,
        /// All senders have dropped and the queue is drained.
        Disconnected,
    }

    /// Error from [`Receiver::recv`].
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Error from [`Receiver::recv_timeout`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// Nothing arrived in time.
        Timeout,
        /// All senders have dropped and the queue is drained.
        Disconnected,
    }

    /// Create an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        new_chan(None)
    }

    /// Create a bounded MPMC channel holding at most `cap` messages;
    /// `try_send` reports [`TrySendError::Full`] once the queue is at
    /// capacity. A `cap` of zero is rounded up to one (this shim has no
    /// rendezvous mode).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        new_chan(Some(cap.max(1)))
    }

    impl<T> Sender<T> {
        /// Enqueue without blocking. `Full` when a bounded channel is at
        /// capacity; `Disconnected` when every receiver is gone.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            if self.chan.receivers.load(Ordering::Acquire) == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            let mut q = self.chan.queue.lock().unwrap();
            if let Some(cap) = self.chan.cap {
                if q.len() >= cap {
                    return Err(TrySendError::Full(value));
                }
            }
            q.push_back(value);
            drop(q);
            self.chan.ready.notify_one();
            Ok(())
        }

        /// Enqueue, blocking while a bounded channel is at capacity; `Err`
        /// when every receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            if self.chan.receivers.load(Ordering::Acquire) == 0 {
                return Err(SendError(value));
            }
            let mut q = self.chan.queue.lock().unwrap();
            if let Some(cap) = self.chan.cap {
                while q.len() >= cap {
                    if self.chan.receivers.load(Ordering::Acquire) == 0 {
                        return Err(SendError(value));
                    }
                    q = self.chan.space.wait(q).unwrap();
                }
            }
            q.push_back(value);
            drop(q);
            self.chan.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.chan.senders.fetch_add(1, Ordering::AcqRel);
            Sender {
                chan: Arc::clone(&self.chan),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.chan.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last sender: wake blocked receivers so they observe
                // disconnection.
                let _guard = self.chan.queue.lock().unwrap();
                self.chan.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Dequeue without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut q = self.chan.queue.lock().unwrap();
            match q.pop_front() {
                Some(v) => {
                    if self.chan.cap.is_some() {
                        self.chan.space.notify_one();
                    }
                    Ok(v)
                }
                None if self.chan.senders.load(Ordering::Acquire) == 0 => {
                    Err(TryRecvError::Disconnected)
                }
                None => Err(TryRecvError::Empty),
            }
        }

        /// Iterate over the messages available right now, without
        /// blocking: ends at the first `try_recv` miss (empty *or*
        /// disconnected).
        pub fn try_iter(&self) -> impl Iterator<Item = T> + '_ {
            std::iter::from_fn(move || self.try_recv().ok())
        }

        /// Block until a message arrives or every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut q = self.chan.queue.lock().unwrap();
            loop {
                if let Some(v) = q.pop_front() {
                    if self.chan.cap.is_some() {
                        self.chan.space.notify_one();
                    }
                    return Ok(v);
                }
                if self.chan.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvError);
                }
                q = self.chan.ready.wait(q).unwrap();
            }
        }

        /// Block up to `timeout` for a message.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut q = self.chan.queue.lock().unwrap();
            loop {
                if let Some(v) = q.pop_front() {
                    if self.chan.cap.is_some() {
                        self.chan.space.notify_one();
                    }
                    return Ok(v);
                }
                if self.chan.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, res) = self.chan.ready.wait_timeout(q, deadline - now).unwrap();
                q = guard;
                if res.timed_out() && q.is_empty() {
                    if self.chan.senders.load(Ordering::Acquire) == 0 {
                        return Err(RecvTimeoutError::Disconnected);
                    }
                    return Err(RecvTimeoutError::Timeout);
                }
            }
        }

        /// Messages queued right now.
        pub fn len(&self) -> usize {
            self.chan.queue.lock().unwrap().len()
        }

        /// True when nothing is queued right now.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// A blocking iterator over received messages; ends when every
        /// sender has dropped and the queue is drained.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { receiver: self }
        }
    }

    /// Blocking iterator returned by [`Receiver::iter`].
    pub struct Iter<'a, T> {
        receiver: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.receiver.recv().ok()
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.chan.receivers.fetch_add(1, Ordering::AcqRel);
            Receiver {
                chan: Arc::clone(&self.chan),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            if self.chan.receivers.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last receiver: wake senders blocked on a full bounded
                // channel so they observe disconnection.
                let _guard = self.chan.queue.lock().unwrap();
                self.chan.space.notify_all();
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::time::Duration;

        #[test]
        fn fifo_order() {
            let (tx, rx) = unbounded();
            for i in 0..10 {
                tx.try_send(i).unwrap();
            }
            for i in 0..10 {
                assert_eq!(rx.try_recv(), Ok(i));
            }
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn disconnect_on_receiver_drop() {
            let (tx, rx) = unbounded();
            drop(rx);
            assert!(matches!(tx.try_send(1), Err(TrySendError::Disconnected(1))));
        }

        #[test]
        fn disconnect_on_sender_drop() {
            let (tx, rx) = unbounded::<u32>();
            tx.try_send(9).unwrap();
            drop(tx);
            assert_eq!(rx.recv(), Ok(9));
            assert_eq!(rx.recv(), Err(RecvError));
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(1)),
                Err(RecvTimeoutError::Disconnected)
            );
        }

        #[test]
        fn iter_drains_then_ends() {
            let (tx, rx) = unbounded();
            for i in 0..3 {
                tx.try_send(i).unwrap();
            }
            drop(tx);
            assert_eq!(rx.iter().collect::<Vec<_>>(), vec![0, 1, 2]);
        }

        #[test]
        fn timeout_elapses() {
            let (_tx, rx) = unbounded::<u32>();
            let start = std::time::Instant::now();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Timeout)
            );
            assert!(start.elapsed() >= Duration::from_millis(9));
        }

        #[test]
        fn bounded_try_send_reports_full() {
            let (tx, rx) = bounded(2);
            tx.try_send(1).unwrap();
            tx.try_send(2).unwrap();
            assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));
            assert_eq!(rx.try_recv(), Ok(1));
            // Popping frees a slot.
            tx.try_send(3).unwrap();
            assert_eq!(rx.try_recv(), Ok(2));
            assert_eq!(rx.try_recv(), Ok(3));
        }

        #[test]
        fn bounded_send_blocks_until_space() {
            let (tx, rx) = bounded(1);
            tx.try_send(0u32).unwrap();
            let h = std::thread::spawn(move || tx.send(1).is_ok());
            std::thread::sleep(Duration::from_millis(10));
            assert_eq!(rx.recv(), Ok(0));
            assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(1));
            assert!(h.join().unwrap());
        }

        #[test]
        fn bounded_send_errors_when_receiver_drops() {
            let (tx, rx) = bounded(1);
            tx.try_send(0u32).unwrap();
            let h = std::thread::spawn(move || tx.send(1));
            std::thread::sleep(Duration::from_millis(10));
            drop(rx);
            assert_eq!(h.join().unwrap(), Err(SendError(1)));
        }

        #[test]
        fn cross_thread_delivery() {
            let (tx, rx) = unbounded();
            let h = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                tx.send(42u32).unwrap();
            });
            assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(42));
            h.join().unwrap();
        }
    }
}

pub mod deque {
    //! Work-stealing deques in the shape of `crossbeam-deque`.
    //!
    //! A [`Worker`] owns a local queue it alone pushes to and pops from; its
    //! [`Stealer`] handles let other threads take work from the opposite end.
    //! An [`Injector`] is the shared FIFO through which new tasks enter the
    //! pool. Backing storage is a mutex-protected `VecDeque`; where the real
    //! crate's lock-free CAS loops lose a race and report `Steal::Retry`,
    //! this shim reports [`Steal::Retry`] on `try_lock` contention — callers
    //! must treat `Retry` as "look again", never as "empty".

    use std::collections::VecDeque;
    use std::sync::{Arc, Mutex};

    /// Outcome of a steal attempt, matching `crossbeam_deque::Steal`.
    #[derive(Debug, PartialEq, Eq)]
    pub enum Steal<T> {
        /// The queue was observed empty.
        Empty,
        /// A task was taken.
        Success(T),
        /// The attempt lost a race (here: lock contention); retry.
        Retry,
    }

    impl<T> Steal<T> {
        /// True when the queue was observed empty.
        pub fn is_empty(&self) -> bool {
            matches!(self, Steal::Empty)
        }

        /// True when a task was taken.
        pub fn is_success(&self) -> bool {
            matches!(self, Steal::Success(_))
        }

        /// True when the attempt should be repeated.
        pub fn is_retry(&self) -> bool {
            matches!(self, Steal::Retry)
        }

        /// The stolen task, if any.
        pub fn success(self) -> Option<T> {
            match self {
                Steal::Success(v) => Some(v),
                _ => None,
            }
        }
    }

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    enum Flavor {
        Fifo,
        Lifo,
    }

    /// The owner's handle on a local work queue. Not `Sync`: only the owning
    /// thread pushes and pops; everyone else goes through a [`Stealer`].
    pub struct Worker<T> {
        queue: Arc<Mutex<VecDeque<T>>>,
        flavor: Flavor,
        /// !Send + !Sync marker-free shims stay Send for pool setup; the
        /// owner discipline is by convention, as in real crossbeam it is by
        /// type. (Worker is Send there too; only Sync is denied.)
        _not_sync: std::marker::PhantomData<std::cell::Cell<()>>,
    }

    /// A handle for taking work from another thread's [`Worker`]; cloneable.
    pub struct Stealer<T> {
        queue: Arc<Mutex<VecDeque<T>>>,
    }

    impl<T> Worker<T> {
        /// A FIFO worker: `pop` takes the oldest local task.
        pub fn new_fifo() -> Worker<T> {
            Worker {
                queue: Arc::new(Mutex::new(VecDeque::new())),
                flavor: Flavor::Fifo,
                _not_sync: std::marker::PhantomData,
            }
        }

        /// A LIFO worker: `pop` takes the most recently pushed task
        /// (depth-first locality, the usual choice for tree expansion).
        pub fn new_lifo() -> Worker<T> {
            Worker {
                queue: Arc::new(Mutex::new(VecDeque::new())),
                flavor: Flavor::Lifo,
                _not_sync: std::marker::PhantomData,
            }
        }

        /// A stealer handle on this worker's queue.
        pub fn stealer(&self) -> Stealer<T> {
            Stealer {
                queue: Arc::clone(&self.queue),
            }
        }

        /// Push a task onto the local queue.
        pub fn push(&self, task: T) {
            self.queue.lock().unwrap().push_back(task);
        }

        /// Pop from the local queue (front for FIFO, back for LIFO).
        pub fn pop(&self) -> Option<T> {
            let mut q = self.queue.lock().unwrap();
            match self.flavor {
                Flavor::Fifo => q.pop_front(),
                Flavor::Lifo => q.pop_back(),
            }
        }

        /// True when the local queue holds nothing right now.
        pub fn is_empty(&self) -> bool {
            self.queue.lock().unwrap().is_empty()
        }

        /// Number of tasks in the local queue right now.
        pub fn len(&self) -> usize {
            self.queue.lock().unwrap().len()
        }
    }

    impl<T> Stealer<T> {
        /// Steal one task from the front of the victim's queue. `Retry`
        /// means the lock was contended — look again, the queue may hold
        /// work.
        pub fn steal(&self) -> Steal<T> {
            match self.queue.try_lock() {
                Ok(mut q) => match q.pop_front() {
                    Some(v) => Steal::Success(v),
                    None => Steal::Empty,
                },
                Err(std::sync::TryLockError::WouldBlock) => Steal::Retry,
                Err(std::sync::TryLockError::Poisoned(e)) => {
                    panic!("stealer found poisoned queue: {e}")
                }
            }
        }

        /// True when the victim's queue is observed empty (best effort:
        /// contention reads as non-empty so callers keep polling).
        pub fn is_empty(&self) -> bool {
            match self.queue.try_lock() {
                Ok(q) => q.is_empty(),
                Err(_) => false,
            }
        }
    }

    impl<T> Clone for Stealer<T> {
        fn clone(&self) -> Self {
            Stealer {
                queue: Arc::clone(&self.queue),
            }
        }
    }

    /// The shared entry queue for a pool: any thread pushes, any worker
    /// steals. FIFO, so injected tasks run roughly in submission order.
    pub struct Injector<T> {
        queue: Mutex<VecDeque<T>>,
    }

    impl<T> Default for Injector<T> {
        fn default() -> Self {
            Injector::new()
        }
    }

    impl<T> Injector<T> {
        /// An empty injector.
        pub fn new() -> Injector<T> {
            Injector {
                queue: Mutex::new(VecDeque::new()),
            }
        }

        /// Enqueue a task.
        pub fn push(&self, task: T) {
            self.queue.lock().unwrap().push_back(task);
        }

        /// Steal one task. `Retry` on lock contention.
        pub fn steal(&self) -> Steal<T> {
            match self.queue.try_lock() {
                Ok(mut q) => match q.pop_front() {
                    Some(v) => Steal::Success(v),
                    None => Steal::Empty,
                },
                Err(std::sync::TryLockError::WouldBlock) => Steal::Retry,
                Err(std::sync::TryLockError::Poisoned(e)) => {
                    panic!("injector queue poisoned: {e}")
                }
            }
        }

        /// Move up to half the injector's backlog into `dest`'s local queue
        /// and pop one task for immediate use — crossbeam's amortized entry
        /// path for busy pools.
        pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Steal<T> {
            let mut q = match self.queue.try_lock() {
                Ok(q) => q,
                Err(std::sync::TryLockError::WouldBlock) => return Steal::Retry,
                Err(std::sync::TryLockError::Poisoned(e)) => {
                    panic!("injector queue poisoned: {e}")
                }
            };
            let first = match q.pop_front() {
                Some(v) => v,
                None => return Steal::Empty,
            };
            let extra = q.len().div_ceil(2);
            let mut moved = q.drain(..extra).collect::<Vec<_>>();
            drop(q);
            for task in moved.drain(..) {
                dest.push(task);
            }
            Steal::Success(first)
        }

        /// True when the injector holds nothing right now (best effort
        /// under contention, as for [`Stealer::is_empty`]).
        pub fn is_empty(&self) -> bool {
            match self.queue.try_lock() {
                Ok(q) => q.is_empty(),
                Err(_) => false,
            }
        }

        /// Number of queued tasks right now.
        pub fn len(&self) -> usize {
            self.queue.lock().unwrap().len()
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn lifo_pops_newest_fifo_pops_oldest() {
            let lifo = Worker::new_lifo();
            lifo.push(1);
            lifo.push(2);
            assert_eq!(lifo.pop(), Some(2));
            assert_eq!(lifo.pop(), Some(1));
            assert_eq!(lifo.pop(), None);

            let fifo = Worker::new_fifo();
            fifo.push(1);
            fifo.push(2);
            assert_eq!(fifo.pop(), Some(1));
            assert_eq!(fifo.pop(), Some(2));
        }

        #[test]
        fn stealer_takes_from_the_front() {
            let w = Worker::new_lifo();
            let s = w.stealer();
            w.push(1);
            w.push(2);
            w.push(3);
            // Owner pops newest, stealer takes oldest: opposite ends.
            assert_eq!(s.steal(), Steal::Success(1));
            assert_eq!(w.pop(), Some(3));
            assert_eq!(s.steal(), Steal::Success(2));
            assert_eq!(s.steal(), Steal::Empty);
        }

        #[test]
        fn injector_is_fifo_and_batch_pop_preserves_tasks() {
            let inj = Injector::new();
            for i in 0..10 {
                inj.push(i);
            }
            let w = Worker::new_fifo();
            let first = inj.steal_batch_and_pop(&w);
            assert_eq!(first, Steal::Success(0));
            // Everything still exists exactly once across the two queues.
            let mut seen = vec![0];
            while let Some(v) = w.pop() {
                seen.push(v);
            }
            while let Steal::Success(v) = inj.steal() {
                seen.push(v);
            }
            seen.sort_unstable();
            assert_eq!(seen, (0..10).collect::<Vec<_>>());
        }

        #[test]
        fn concurrent_steals_lose_nothing() {
            use std::sync::atomic::{AtomicU64, Ordering};
            use std::sync::Arc;

            const N: u64 = 10_000;
            let inj = Arc::new(Injector::new());
            let sum = Arc::new(AtomicU64::new(0));
            let count = Arc::new(AtomicU64::new(0));

            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let inj = Arc::clone(&inj);
                    let sum = Arc::clone(&sum);
                    let count = Arc::clone(&count);
                    std::thread::spawn(move || {
                        let local = Worker::new_lifo();
                        loop {
                            let task = local.pop().or_else(|| loop {
                                match inj.steal_batch_and_pop(&local) {
                                    Steal::Success(v) => break Some(v),
                                    Steal::Empty => break None,
                                    Steal::Retry => std::hint::spin_loop(),
                                }
                            });
                            match task {
                                Some(v) => {
                                    sum.fetch_add(v, Ordering::Relaxed);
                                    count.fetch_add(1, Ordering::Relaxed);
                                }
                                None if count.load(Ordering::Relaxed) == N => break,
                                // Producer may still be pushing; idle-spin.
                                None => std::thread::yield_now(),
                            }
                        }
                    })
                })
                .collect();

            for v in 1..=N {
                inj.push(v);
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(count.load(Ordering::Relaxed), N);
            assert_eq!(sum.load(Ordering::Relaxed), N * (N + 1) / 2);
        }
    }
}
