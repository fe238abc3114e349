//! Minimal, API-compatible stand-in for `crossbeam`'s MPMC channels.
//!
//! The workspace builds offline, so the channel subset the runtime uses —
//! `unbounded`, `bounded`, cloneable `Sender`/`Receiver`, `try_send`,
//! `try_recv`, `recv`, `recv_timeout`, blocking `iter` — is implemented here
//! over a mutex-protected deque and a condvar. Disconnection semantics match
//! crossbeam: a channel is disconnected when all peers on the other side have
//! dropped. Bounded channels report [`channel::TrySendError::Full`] from
//! `try_send` when at capacity, which is what `ftbb-core`'s telemetry sink
//! relies on to shed load instead of blocking the event pump.

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
