//! The trace writer: [`Telemetry`] stamps [`TraceEvent`]s and hands them
//! to a dedicated writer thread.
//!
//! Events flow through a **bounded** channel to the writer: `emit` never
//! blocks the event pump; overflow is counted in
//! [`Telemetry::events_dropped`], not silently lost and not waited out.
//!
//! Timestamps are `epoch_unix_us + monotonic elapsed`: monotonic within a
//! node (never goes backwards under clock steps) yet anchored to the Unix
//! epoch, so traces from different OS processes on one machine merge into
//! a single ordered cluster timeline.

use crossbeam::channel::{bounded, Sender};
use ftbb_core::TraceEvent;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Default bound on the in-flight event queue between `emit` and the
/// writer thread. Beyond this, events are dropped (and counted).
pub const DEFAULT_TRACE_CAP: usize = 4096;

struct TelemetryInner {
    node: u32,
    incarnation: u32,
    epoch_instant: Instant,
    epoch_unix_us: u64,
    /// `Some` until [`TelemetryInner::drop`]; dropping the sender is what
    /// lets the writer thread drain and exit.
    tx: Option<Sender<TraceEvent>>,
    writer: Option<JoinHandle<()>>,
    dropped: AtomicU64,
}

impl Drop for TelemetryInner {
    fn drop(&mut self) {
        // Make any shed load visible in the trace itself before closing.
        let dropped = self.dropped.load(Ordering::Relaxed);
        if dropped > 0 {
            if let Some(tx) = &self.tx {
                let _ = tx.try_send(TraceEvent {
                    t_us: self.epoch_unix_us + self.epoch_instant.elapsed().as_micros() as u64,
                    node: self.node,
                    incarnation: self.incarnation,
                    job: 0,
                    kind: "trace_overflow".to_string(),
                    fields: vec![("dropped".to_string(), dropped.to_string())],
                });
            }
        }
        // Disconnect, then wait for the writer to drain and flush — the
        // trace file is complete when the last handle is gone.
        drop(self.tx.take());
        if let Some(handle) = self.writer.take() {
            let _ = handle.join();
        }
    }
}

/// A cheap-to-clone handle for emitting [`TraceEvent`]s.
///
/// The default ([`Telemetry::disabled`]) is a no-op whose `emit` returns
/// immediately. An enabled handle stamps events with the node identity
/// and a monotonic Unix-anchored timestamp and hands them to a writer
/// thread over a bounded channel; when the channel is full the event is
/// dropped and counted ([`Telemetry::events_dropped`]) — telemetry never
/// blocks the engine. Dropping the last clone disconnects the channel and
/// joins the writer, so the sink is fully flushed on shutdown.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<TelemetryInner>>,
    /// Job stamp applied to every event emitted through this handle
    /// (0 = pool-level). See [`Telemetry::for_job`].
    job: u64,
}

impl Telemetry {
    /// The no-op handle: `emit` does nothing.
    pub fn disabled() -> Telemetry {
        Telemetry {
            inner: None,
            job: 0,
        }
    }

    /// A clone of this handle whose events carry the given job dimension:
    /// same sink, same writer thread, same drop counter — only the
    /// [`TraceEvent::job`] stamp differs. Service engines hold one
    /// job-stamped clone per admitted job.
    pub fn for_job(&self, job: u64) -> Telemetry {
        Telemetry {
            inner: self.inner.clone(),
            job,
        }
    }

    /// The job stamp this handle applies (0 = pool-level).
    pub fn job(&self) -> u64 {
        self.job
    }

    /// An enabled handle writing JSONL to `out` with the default queue
    /// bound ([`DEFAULT_TRACE_CAP`]).
    pub fn to_writer(node: u32, incarnation: u32, out: Box<dyn Write + Send>) -> Telemetry {
        Telemetry::with_capacity(node, incarnation, out, DEFAULT_TRACE_CAP)
    }

    /// An enabled handle with an explicit queue bound (`cap` events in
    /// flight between `emit` and the writer thread).
    pub fn with_capacity(
        node: u32,
        incarnation: u32,
        mut out: Box<dyn Write + Send>,
        cap: usize,
    ) -> Telemetry {
        let (tx, rx) = bounded::<TraceEvent>(cap);
        let writer = std::thread::Builder::new()
            .name("ftbb-trace".to_string())
            .spawn(move || {
                // Batch opportunistically: write everything queued, then
                // flush once, then block for more.
                while let Ok(ev) = rx.recv() {
                    let _ = writeln!(out, "{}", ev.to_jsonl());
                    while let Ok(ev) = rx.try_recv() {
                        let _ = writeln!(out, "{}", ev.to_jsonl());
                    }
                    let _ = out.flush();
                }
                let _ = out.flush();
            })
            .expect("spawn trace writer thread");
        let epoch_unix_us = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        Telemetry {
            inner: Some(Arc::new(TelemetryInner {
                node,
                incarnation,
                epoch_instant: Instant::now(),
                epoch_unix_us,
                tx: Some(tx),
                writer: Some(writer),
                dropped: AtomicU64::new(0),
            })),
            job: 0,
        }
    }

    /// Is this handle actually recording?
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Current trace timestamp: microseconds since the Unix epoch,
    /// advanced monotonically. Returns 0 when disabled.
    pub fn now_us(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.epoch_unix_us + inner.epoch_instant.elapsed().as_micros() as u64,
            None => 0,
        }
    }

    /// Emit one event. Non-blocking: if the writer queue is full the
    /// event is counted in [`Telemetry::events_dropped`] and discarded.
    /// A field named like one of the event's own keys (`t_us`, `node`,
    /// `inc`, `job`, `kind`) is left off — written, it would be a second
    /// JSON key of that name and [`TraceEvent::parse_jsonl`] would read
    /// the wrong one; the event itself still goes out.
    pub fn emit(&self, kind: &str, fields: &[(&str, String)]) {
        let Some(inner) = &self.inner else { return };
        let ev = TraceEvent {
            t_us: inner.epoch_unix_us + inner.epoch_instant.elapsed().as_micros() as u64,
            node: inner.node,
            incarnation: inner.incarnation,
            job: self.job,
            kind: kind.to_string(),
            fields: fields
                .iter()
                .filter(|(k, _)| !TraceEvent::RESERVED_KEYS.contains(k))
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        };
        let tx = inner.tx.as_ref().expect("telemetry sender live until drop");
        if tx.try_send(ev).is_err() {
            inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Events shed because the writer queue was full.
    pub fn events_dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|i| i.dropped.load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// A `Write` sink the test can inspect after the writer thread exits.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A `Write` sink that blocks while the test holds its gate.
    #[derive(Clone)]
    struct GatedBuf {
        gate: Arc<Mutex<()>>,
    }

    impl Write for GatedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let _held = self.gate.lock().unwrap();
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn telemetry_writes_parseable_ordered_lines() {
        let buf = SharedBuf::default();
        let t = Telemetry::to_writer(4, 1, Box::new(buf.clone()));
        t.emit("node_start", &[("pool", "3".to_string())]);
        t.emit("suspect", &[("peer", "2".to_string())]);
        t.emit("halt", &[]);
        assert_eq!(t.events_dropped(), 0);
        drop(t); // joins the writer; the buffer is complete after this
        let bytes = buf.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let events: Vec<TraceEvent> = text
            .lines()
            .map(|l| TraceEvent::parse_jsonl(l).expect("parseable line"))
            .collect();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, "node_start");
        assert_eq!(events[0].field("pool"), Some("3"));
        assert_eq!(events[1].kind, "suspect");
        assert_eq!(events[2].kind, "halt");
        assert!(events.windows(2).all(|w| w[0].t_us <= w[1].t_us));
        assert!(events.iter().all(|e| e.node == 4 && e.incarnation == 1));
    }

    #[test]
    fn emit_drops_fields_named_like_the_events_own_keys() {
        let buf = SharedBuf::default();
        let t = Telemetry::to_writer(4, 1, Box::new(buf.clone())).for_job(7);
        let before = t.now_us();
        let mut fields: Vec<(&str, String)> = TraceEvent::RESERVED_KEYS
            .iter()
            .map(|&k| (k, "99".to_string()))
            .collect();
        fields.push(("peer", "2".to_string()));
        t.emit("probe", &fields);
        let after = t.now_us();
        drop(t);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let ev = TraceEvent::parse_jsonl(text.trim_end()).expect("one parseable line");
        assert!((before..=after).contains(&ev.t_us), "{text}");
        assert_eq!((ev.node, ev.incarnation, ev.job), (4, 1, 7));
        assert_eq!(ev.kind, "probe");
        assert_eq!(ev.fields, vec![("peer".to_string(), "2".to_string())]);
    }

    #[test]
    fn full_queue_drops_and_counts_instead_of_blocking() {
        let gate = Arc::new(Mutex::new(()));
        let sink = GatedBuf {
            gate: Arc::clone(&gate),
        };
        let held = gate.lock().unwrap();
        let t = Telemetry::with_capacity(0, 0, Box::new(sink), 1);
        let start = Instant::now();
        for _ in 0..64 {
            t.emit("tick", &[]);
        }
        // All 64 emits returned immediately even though the writer is
        // stuck: at most a couple were accepted (one in the writer's
        // hands, one queued); the rest were shed and counted.
        assert!(start.elapsed().as_millis() < 1_000);
        assert!(t.events_dropped() >= 60, "dropped {}", t.events_dropped());
        drop(held);
        drop(t);
    }

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.emit("anything", &[("k", "v".to_string())]);
        assert_eq!(t.events_dropped(), 0);
        assert_eq!(t.now_us(), 0);
    }

    #[test]
    fn job_stamped_handles_share_the_sink() {
        let buf = SharedBuf::default();
        let t = Telemetry::to_writer(2, 0, Box::new(buf.clone()));
        let a = t.for_job(7);
        let b = t.for_job(9);
        assert_eq!(t.job(), 0);
        assert_eq!(a.job(), 7);
        t.emit("pool_tick", &[]);
        a.emit("job_admitted", &[]);
        b.emit("job_admitted", &[]);
        drop((a, b));
        drop(t);
        let bytes = buf.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let events: Vec<TraceEvent> = text
            .lines()
            .map(|l| TraceEvent::parse_jsonl(l).expect("parseable line"))
            .collect();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].job, 0);
        assert_eq!(events[1].job, 7);
        assert_eq!(events[2].job, 9);
        assert!(events.iter().all(|e| e.node == 2));
    }
}
