//! Spans around the benchmark's calls into each layer.
//!
//! A span is `(id, parent, run, name, start, end)`: recorded in memory
//! while the traced run executes, written out as JSON lines when it ends.
//! The parent is whichever span was open on this recorder when the new one
//! started, so a layer's *self* time is its span's duration minus the part
//! its children cover. Spans are recorded from the benchmark's own files,
//! at the layer's public function; spans inside the program are a later
//! change (choosing-metrics §4).
//!
//! A probe that calls a sub-microsecond function a million times wraps the
//! *batch* in one span and carries the call count in `calls`: a span per
//! call would measure the recorder.

use crate::json::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Position in the recorder (also the id children refer to).
    pub id: usize,
    /// The span open when this one started.
    pub parent: Option<usize>,
    /// Layer-qualified function name, e.g. `tree.codeset.insert`.
    pub name: &'static str,
    /// Nanoseconds from the recorder's creation to the span's start.
    pub start_ns: u64,
    /// Nanoseconds from the recorder's creation to the span's end.
    pub end_ns: u64,
    /// Calls into the named function this span covers.
    pub calls: u64,
}

/// Per-name totals derived from the span tree.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTime {
    /// The span name.
    pub name: &'static str,
    /// Number of spans with this name.
    pub spans: u64,
    /// Calls those spans cover.
    pub calls: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed duration not covered by child spans, nanoseconds.
    pub self_ns: u64,
}

struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Records the spans of one traced run. Single-threaded by design: the
/// traced run calls each layer from the benchmark's main thread.
pub struct Recorder {
    run: String,
    epoch: Instant,
    state: RefCell<State>,
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    recorder: &'a Recorder,
    id: usize,
}

impl Guard<'_> {
    /// Set how many calls the span covers, for a batch whose size is only
    /// known once it has run.
    pub fn set_calls(&self, calls: u64) {
        self.recorder.state.borrow_mut().spans[self.id].calls = calls;
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end = self.recorder.now_ns();
        let mut st = self.recorder.state.borrow_mut();
        st.spans[self.id].end_ns = end;
        // Guards drop in reverse creation order; anything still above this
        // span on the stack was leaked by a panic unwinding through it.
        while let Some(top) = st.open.pop() {
            if top == self.id {
                break;
            }
        }
    }
}

impl Recorder {
    /// A recorder whose spans all carry run id `run`.
    pub fn new(run: impl Into<String>) -> Recorder {
        Recorder {
            run: run.into(),
            epoch: Instant::now(),
            state: RefCell::new(State {
                spans: Vec::new(),
                open: Vec::new(),
            }),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span covering one call.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        self.batch(name, 1)
    }

    /// Open a span covering `calls` calls into `name`.
    pub fn batch(&self, name: &'static str, calls: u64) -> Guard<'_> {
        let start = self.now_ns();
        let mut st = self.state.borrow_mut();
        let id = st.spans.len();
        let parent = st.open.last().copied();
        st.spans.push(Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: start,
            calls,
        });
        st.open.push(id);
        Guard { recorder: self, id }
    }

    /// Run `f` inside a span covering `calls` calls; returns its result and
    /// the span's duration in nanoseconds.
    pub fn timed<T>(&self, name: &'static str, calls: u64, f: impl FnOnce() -> T) -> (T, u64) {
        let guard = self.batch(name, calls);
        let id = guard.id;
        let out = f();
        drop(guard);
        let st = self.state.borrow();
        (out, st.spans[id].end_ns - st.spans[id].start_ns)
    }

    /// Record the summed time of `calls` calls that were interleaved with
    /// other work (timed one by one, too many for a span each) as one
    /// child of the currently open span, starting where that span starts.
    pub fn aggregate(&self, name: &'static str, calls: u64, total_ns: u64) {
        let mut st = self.state.borrow_mut();
        let id = st.spans.len();
        let parent = st.open.last().copied();
        let start_ns = parent.map_or(0, |p| st.spans[p].start_ns);
        st.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns + total_ns,
            calls,
        });
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.state.borrow().spans.clone()
    }

    /// Totals per span name, sorted by name.
    pub fn layer_times(&self) -> Vec<LayerTime> {
        let spans = self.spans();
        let mut child_ns = vec![0u64; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for s in &spans {
            let total = s.end_ns - s.start_ns;
            let e = by_name.entry(s.name).or_insert(LayerTime {
                name: s.name,
                spans: 0,
                calls: 0,
                total_ns: 0,
                self_ns: 0,
            });
            e.spans += 1;
            e.calls += s.calls;
            e.total_ns += total;
            e.self_ns += total.saturating_sub(child_ns[s.id]);
        }
        by_name.into_values().collect()
    }

    /// The spans as JSON lines (one object per span).
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            let line = Json::obj([
                ("run", Json::str(self.run.clone())),
                ("id", Json::Num(s.id as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("calls", Json::Num(s.calls as f64)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }

    /// The per-layer table: total and self time per span name.
    pub fn table(&self) -> String {
        let mut out = format!(
            "spans of run {} (self = span minus its children)\n  {:<34} {:>6} {:>10} {:>12} {:>12}\n",
            self.run, "name", "spans", "calls", "total_ms", "self_ms"
        );
        for l in self.layer_times() {
            out.push_str(&format!(
                "  {:<34} {:>6} {:>10} {:>12.3} {:>12.3}\n",
                l.name,
                l.spans,
                l.calls,
                l.total_ns as f64 / 1e6,
                l.self_ns as f64 / 1e6
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_sets_parents_and_self_time() {
        let r = Recorder::new("t");
        {
            let _outer = r.span("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = r.batch("inner", 5);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            let ((), ns) = r.timed("inner", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
            assert!(ns >= 1_000_000);
        }
        let sibling = r.span("sibling");
        sibling.set_calls(9);
        r.aggregate("summed", 1000, 5_000);
        let spans = r.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!((spans[3].calls, spans[4].parent), (9, Some(3)));
        assert_eq!(spans[4].end_ns - spans[4].start_ns, 5_000);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None, "outer was closed before sibling");
        assert!(spans[0].end_ns >= spans[2].end_ns);

        let layers = r.layer_times();
        let outer = layers.iter().find(|l| l.name == "outer").unwrap();
        let inner = layers.iter().find(|l| l.name == "inner").unwrap();
        assert_eq!((inner.spans, inner.calls), (2, 6));
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(outer.self_ns >= 2_000_000);
    }

    #[test]
    fn jsonl_has_one_parseable_object_per_span() {
        let r = Recorder::new("duo_knap#1");
        {
            let _a = r.span("wire.launcher.launch");
            let _b = r.span("bnb.engine.solve");
        }
        let text = r.jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let second = Json::parse(lines[1]).unwrap();
        assert_eq!(second.get("run").unwrap().as_str(), Some("duo_knap#1"));
        assert_eq!(second.get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(
            second.get("name").unwrap().as_str(),
            Some("bnb.engine.solve")
        );
        assert_eq!(
            Json::parse(lines[0]).unwrap().get("parent"),
            Some(&Json::Null)
        );
        assert!(r.table().contains("wire.launcher.launch"));
    }
}
