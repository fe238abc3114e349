//! Trace records and Figure-3 time accounting: the data every harness
//! shares.
//!
//! The paper's central evidence (Figure 3, §6) is a per-process breakdown
//! of where wall time goes: branch-and-bound work vs. communication vs.
//! contraction vs. load balancing vs. idle. This module supplies the data
//! types every harness needs to reproduce that stack for a *live* run:
//!
//! * [`TraceEvent`] — one span-like structured record (node id,
//!   incarnation, timestamp, kind, key=value fields), serialized as one
//!   JSON object per line (JSONL). The runtime's trace writer stamps and
//!   ships them; the launcher reads them back.
//! * [`TimeCategory`] / [`PhaseTimes`] — the Figure-3 time categories and
//!   a plain accumulator for them. The node engine charges every slice of
//!   wall time between two loop marks to exactly one category, so the
//!   per-category sums reconcile with elapsed wall time. A protocol names
//!   each message's category ([`crate::Protocol::category`]).
//!
//! Everything here is hand-rolled — the JSONL encoder *and* the parser —
//! because the workspace builds offline and the launcher must read these
//! lines back without a JSON dependency.

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
    /// single-run) events. Service-mode engines stamp per-job events
    /// through a job-scoped trace handle.
    pub job: u64,
    /// Event kind (`"suspect"`, `"checkpoint"`, `"node_start"`, ...).
    pub kind: String,
    /// Free-form key=value payload, in emission order.
    pub fields: Vec<(String, String)>,
}

impl TraceEvent {
    /// The keys of an event's own header on its JSON line: a payload
    /// field must not reuse one.
    pub const RESERVED_KEYS: [&'static str; 5] = ["t_us", "node", "inc", "job", "kind"];

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
#[cfg(test)]
mod tests {
    use super::*;

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
