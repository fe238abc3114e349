//! Structured tracing and Figure-3 time accounting.
//!
//! The paper's central evidence (Figure 3, §6) is a per-process breakdown
//! of where wall time goes: branch-and-bound work vs. communication vs.
//! contraction vs. load balancing vs. idle. This module supplies the two
//! pieces every harness needs to reproduce that stack for a *live* run:
//!
//! * [`TraceEvent`] / [`Telemetry`] — span-like structured events (node
//!   id, incarnation, monotonic timestamp, kind, key=value fields),
//!   serialized as one JSON object per line (JSONL). Events flow through
//!   a **bounded** channel to a dedicated writer thread: `emit` never
//!   blocks the event pump; overflow is counted in
//!   [`Telemetry::events_dropped`], not silently lost and not waited out.
//! * [`TimeCategory`] / [`PhaseTimes`] — the Figure-3 time categories and
//!   a plain accumulator for them. The node engine charges every slice of
//!   wall time between two loop marks to exactly one category, so the
//!   per-category sums reconcile with elapsed wall time.
//!
//! Timestamps are `epoch_unix_us + monotonic elapsed`: monotonic within a
//! node (never goes backwards under clock steps) yet anchored to the Unix
//! epoch, so traces from different OS processes on one machine merge into
//! a single ordered cluster timeline.
//!
//! Everything here is hand-rolled — the JSONL encoder *and* the parser —
//! because the workspace builds offline and the launcher must read these
//! lines back without a JSON dependency.

use crossbeam::channel::{bounded, Sender};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Default bound on the in-flight event queue between `emit` and the
/// writer thread. Beyond this, events are dropped (and counted).
pub const DEFAULT_TRACE_CAP: usize = 4096;

/// The Figure-3 wall-time categories (paper §6). Every instant of an
/// engine's life is attributed to exactly one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimeCategory {
    /// Branch-and-bound work: expanding subproblems ("BB" in Figure 3).
    Expand,
    /// Sending/receiving protocol messages: work reports, table gossips,
    /// and their handling ("communication").
    Communicate,
    /// Contraction and recovery: merging completion tables, complement
    /// recovery ("contraction").
    Contract,
    /// The load-balancing protocol: requests, grants, denials, timeouts.
    LoadBalance,
    /// Membership upkeep: heartbeat gossip, suspicion sweeps.
    Membership,
    /// Waiting with nothing to do.
    Idle,
    /// Persisting checkpoints (not in the paper's figure; our engine adds
    /// restorability and must show its cost).
    Checkpoint,
}

impl TimeCategory {
    /// All categories, in Figure-3 stacking order.
    pub const ALL: [TimeCategory; 7] = [
        TimeCategory::Expand,
        TimeCategory::Communicate,
        TimeCategory::Contract,
        TimeCategory::LoadBalance,
        TimeCategory::Membership,
        TimeCategory::Idle,
        TimeCategory::Checkpoint,
    ];

    /// Stable snake_case name, used as the metrics-line key prefix.
    pub fn name(self) -> &'static str {
        match self {
            TimeCategory::Expand => "expand",
            TimeCategory::Communicate => "communicate",
            TimeCategory::Contract => "contract",
            TimeCategory::LoadBalance => "load_balance",
            TimeCategory::Membership => "membership",
            TimeCategory::Idle => "idle",
            TimeCategory::Checkpoint => "checkpoint",
        }
    }
}

/// Accumulated wall time per [`TimeCategory`], in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimes {
    /// Seconds spent expanding subproblems.
    pub expand_s: f64,
    /// Seconds spent communicating.
    pub communicate_s: f64,
    /// Seconds spent contracting/recovering.
    pub contract_s: f64,
    /// Seconds spent load balancing.
    pub load_balance_s: f64,
    /// Seconds spent on membership upkeep.
    pub membership_s: f64,
    /// Seconds spent idle.
    pub idle_s: f64,
    /// Seconds spent writing checkpoints.
    pub checkpoint_s: f64,
}

impl PhaseTimes {
    /// Charge `secs` of wall time to `cat`.
    pub fn add(&mut self, cat: TimeCategory, secs: f64) {
        *self.slot(cat) += secs;
    }

    /// Seconds accumulated under `cat`.
    pub fn get(&self, cat: TimeCategory) -> f64 {
        match cat {
            TimeCategory::Expand => self.expand_s,
            TimeCategory::Communicate => self.communicate_s,
            TimeCategory::Contract => self.contract_s,
            TimeCategory::LoadBalance => self.load_balance_s,
            TimeCategory::Membership => self.membership_s,
            TimeCategory::Idle => self.idle_s,
            TimeCategory::Checkpoint => self.checkpoint_s,
        }
    }

    /// Sum over all categories. For a live engine this reconciles with
    /// elapsed wall time (that is the acceptance check on `FTBB-METRICS`
    /// lines).
    pub fn total(&self) -> f64 {
        TimeCategory::ALL.iter().map(|&c| self.get(c)).sum()
    }

    /// Element-wise sum, for cluster-level aggregation.
    pub fn absorb(&mut self, other: &PhaseTimes) {
        for cat in TimeCategory::ALL {
            self.add(cat, other.get(cat));
        }
    }

    fn slot(&mut self, cat: TimeCategory) -> &mut f64 {
        match cat {
            TimeCategory::Expand => &mut self.expand_s,
            TimeCategory::Communicate => &mut self.communicate_s,
            TimeCategory::Contract => &mut self.contract_s,
            TimeCategory::LoadBalance => &mut self.load_balance_s,
            TimeCategory::Membership => &mut self.membership_s,
            TimeCategory::Idle => &mut self.idle_s,
            TimeCategory::Checkpoint => &mut self.checkpoint_s,
        }
    }
}

/// The keys of an event's own header on its JSON line.
const RESERVED_KEYS: [&str; 5] = ["t_us", "node", "inc", "job", "kind"];

/// One structured trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Microseconds since the Unix epoch; monotonic within one node
    /// (epoch captured once, then advanced by a monotonic clock).
    pub t_us: u64,
    /// Emitting node id.
    pub node: u32,
    /// Emitting node's incarnation.
    pub incarnation: u32,
    /// Job the event is scoped to; `0` for pool-level (or legacy
    /// single-run) events. Service-mode engines stamp per-job events via
    /// [`Telemetry::for_job`].
    pub job: u64,
    /// Event kind (`"suspect"`, `"checkpoint"`, `"node_start"`, ...).
    pub kind: String,
    /// Free-form key=value payload, in emission order.
    pub fields: Vec<(String, String)>,
}

impl TraceEvent {
    /// Look up a payload field by key.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Render as one JSON object on one line:
    /// `{"t_us":17,"node":0,"inc":1,"kind":"suspect","peer":"2"}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(64);
        out.push_str("{\"t_us\":");
        out.push_str(&self.t_us.to_string());
        out.push_str(",\"node\":");
        out.push_str(&self.node.to_string());
        out.push_str(",\"inc\":");
        out.push_str(&self.incarnation.to_string());
        if self.job != 0 {
            // Pool-level events omit the job key: single-run traces stay
            // byte-identical to the pre-service format.
            out.push_str(",\"job\":");
            out.push_str(&self.job.to_string());
        }
        out.push_str(",\"kind\":\"");
        json_escape(&self.kind, &mut out);
        out.push('"');
        for (k, v) in &self.fields {
            out.push_str(",\"");
            json_escape(k, &mut out);
            out.push_str("\":\"");
            json_escape(v, &mut out);
            out.push('"');
        }
        out.push('}');
        out
    }

    /// Parse one JSONL line back into an event. Returns `None` (never
    /// panics) on anything that is not a flat JSON object of scalars with
    /// the four required keys (`t_us`, `node`, `inc`, `kind`). Unknown
    /// keys land in [`TraceEvent::fields`]; bare numbers keep their
    /// literal text.
    pub fn parse_jsonl(line: &str) -> Option<TraceEvent> {
        let pairs = parse_flat_object(line.trim())?;
        let mut t_us = None;
        let mut node = None;
        let mut inc = None;
        let mut job = 0u64;
        let mut kind = None;
        let mut fields = Vec::new();
        for (k, v) in pairs {
            match k.as_str() {
                "t_us" => t_us = Some(v.parse::<u64>().ok()?),
                "node" => node = Some(v.parse::<u32>().ok()?),
                "inc" => inc = Some(v.parse::<u32>().ok()?),
                "job" => job = v.parse::<u64>().ok()?,
                "kind" => kind = Some(v),
                _ => fields.push((k, v)),
            }
        }
        Some(TraceEvent {
            t_us: t_us?,
            node: node?,
            incarnation: inc?,
            job,
            kind: kind?,
            fields,
        })
    }
}

fn json_escape(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Parse a flat JSON object (`{"k":"v","n":7,...}`) whose values are
/// strings or bare numbers. Numbers are returned as their literal text.
fn parse_flat_object(s: &str) -> Option<Vec<(String, String)>> {
    let chars: Vec<char> = s.chars().collect();
    let mut p = Cursor {
        chars: &chars,
        i: 0,
    };
    p.skip_ws();
    p.eat('{')?;
    let mut pairs = Vec::new();
    p.skip_ws();
    if p.peek() == Some('}') {
        p.eat('}')?;
    } else {
        loop {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.eat(':')?;
            p.skip_ws();
            let value = match p.peek() {
                Some('"') => p.string()?,
                _ => p.number_text()?,
            };
            pairs.push((key, value));
            p.skip_ws();
            match p.next() {
                Some(',') => continue,
                Some('}') => break,
                _ => return None,
            }
        }
    }
    p.skip_ws();
    if p.i == chars.len() {
        Some(pairs)
    } else {
        None
    }
}

struct Cursor<'a> {
    chars: &'a [char],
    i: usize,
}

impl Cursor<'_> {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.i).copied()
    }

    fn next(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.i += 1;
        Some(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\r' | '\n')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, want: char) -> Option<()> {
        if self.peek() == Some(want) {
            self.i += 1;
            Some(())
        } else {
            None
        }
    }

    /// A JSON string, leading quote expected at the cursor.
    fn string(&mut self) -> Option<String> {
        self.eat('"')?;
        let mut out = String::new();
        loop {
            match self.next()? {
                '"' => return Some(out),
                '\\' => match self.next()? {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    '/' => out.push('/'),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'b' => out.push('\u{8}'),
                    'f' => out.push('\u{c}'),
                    'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            code = code * 16 + self.next()?.to_digit(16)?;
                        }
                        out.push(char::from_u32(code)?);
                    }
                    _ => return None,
                },
                c if (c as u32) < 0x20 => return None,
                c => out.push(c),
            }
        }
    }

    /// A bare JSON number, returned as its literal text.
    fn number_text(&mut self) -> Option<String> {
        let start = self.i;
        while matches!(self.peek(), Some('0'..='9' | '-' | '+' | '.' | 'e' | 'E')) {
            self.i += 1;
        }
        if self.i == start {
            None
        } else {
            Some(self.chars[start..self.i].iter().collect())
        }
    }
}

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
                .filter(|(k, _)| !RESERVED_KEYS.contains(k))
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
    fn jsonl_round_trip() {
        let ev = TraceEvent {
            t_us: 1_755_000_000_123_456,
            node: 3,
            incarnation: 2,
            job: 0,
            kind: "suspect".to_string(),
            fields: vec![
                ("peer".to_string(), "7".to_string()),
                ("why".to_string(), "heartbeat \"late\"\n\ttab\\".to_string()),
            ],
        };
        let line = ev.to_jsonl();
        assert!(!line.contains("\"job\""), "job 0 stays off the line");
        assert_eq!(TraceEvent::parse_jsonl(&line), Some(ev));

        // A job-scoped event carries its dimension through the round trip.
        let ev = TraceEvent {
            t_us: 17,
            node: 1,
            incarnation: 0,
            job: 42,
            kind: "job_done".to_string(),
            fields: vec![],
        };
        let line = ev.to_jsonl();
        assert!(line.contains("\"job\":42"), "{line}");
        assert_eq!(TraceEvent::parse_jsonl(&line), Some(ev));
    }

    #[test]
    fn jsonl_round_trip_control_chars() {
        let ev = TraceEvent {
            t_us: 1,
            node: 0,
            incarnation: 0,
            job: 0,
            kind: "k\u{1}\u{1f}".to_string(),
            fields: vec![("α".to_string(), "β\u{8}\u{c}".to_string())],
        };
        let line = ev.to_jsonl();
        assert_eq!(TraceEvent::parse_jsonl(&line), Some(ev));
    }

    #[test]
    fn parse_rejects_garbage_without_panicking() {
        for bad in [
            "",
            "{",
            "}",
            "{}",
            "not json",
            r#"{"t_us":1,"node":0,"inc":0}"#,              // no kind
            r#"{"t_us":"x","node":0,"inc":0,"kind":"k"}"#, // bad number
            r#"{"t_us":1,"node":0,"inc":0,"kind":"k"} trailing"#, // trailing
            r#"{"t_us":1,"node":0,"inc":0,"kind":"k""#,    // truncated
            r#"{"t_us":1,"node":0,"inc":0,"kind":"\q"}"#,  // bad escape
            r#"{"t_us":-1,"node":0,"inc":0,"kind":"k"}"#,  // negative
        ] {
            assert_eq!(TraceEvent::parse_jsonl(bad), None, "input: {bad:?}");
        }
        // Every prefix of a valid line parses to None or a valid event —
        // never panics.
        let good = TraceEvent {
            t_us: 9,
            node: 1,
            incarnation: 0,
            job: 0,
            kind: "x".to_string(),
            fields: vec![("a".to_string(), "b".to_string())],
        }
        .to_jsonl();
        for cut in 0..good.len() {
            if good.is_char_boundary(cut) {
                let _ = TraceEvent::parse_jsonl(&good[..cut]);
            }
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
        let mut fields: Vec<(&str, String)> = RESERVED_KEYS
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

    #[test]
    fn phase_times_accumulate_and_total() {
        let mut p = PhaseTimes::default();
        p.add(TimeCategory::Expand, 1.5);
        p.add(TimeCategory::Idle, 0.25);
        p.add(TimeCategory::Expand, 0.5);
        assert_eq!(p.get(TimeCategory::Expand), 2.0);
        assert_eq!(p.get(TimeCategory::Idle), 0.25);
        assert_eq!(p.get(TimeCategory::Checkpoint), 0.0);
        assert!((p.total() - 2.25).abs() < 1e-12);

        let mut q = PhaseTimes::default();
        q.add(TimeCategory::Checkpoint, 1.0);
        q.absorb(&p);
        assert!((q.total() - 3.25).abs() < 1e-12);
        assert_eq!(q.get(TimeCategory::Expand), 2.0);

        // Names are unique and stable (they key the metrics line).
        let names: std::collections::HashSet<_> =
            TimeCategory::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), TimeCategory::ALL.len());
    }
}
