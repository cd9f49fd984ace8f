//! Spans of the traced pass.
//!
//! The benchmark records a span around each call into a layer — name,
//! start, end, the span that caused it, the work it did — keeps them in
//! memory, and writes them to `out/trace-<workload>.json` when the run
//! ends. A layer's **self time** is its span's duration minus the part
//! its child spans cover; the self times of a tree add up to its root.

use crate::alloc::AllocCounts;
use serde_json::Value;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the log was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index in the log.
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// Layer and call, e.g. `netsim.run`.
    pub name: &'static str,
    /// Start.
    pub start_ns: u64,
    /// End (equal to `start_ns` while open).
    pub end_ns: u64,
    /// Work items the call handled (events, rows, records, …).
    pub count: u64,
    /// Bytes the call moved, where that is meaningful.
    pub bytes: u64,
    /// Allocation requests made while the span was open, process-wide.
    pub alloc_calls: u64,
    /// Bytes those requests asked for.
    pub alloc_bytes: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Totals over every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with that name.
    pub spans: u64,
    /// Sum of their durations (ms).
    pub total_ms: f64,
    /// Sum of their self times (ms).
    pub self_ms: f64,
    /// Sum of their work counts.
    pub count: u64,
    /// Sum of their byte counts.
    pub bytes: u64,
}

/// An in-memory span log with a stack of open spans.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, AllocCounts)>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Nanoseconds on this log's clock for an instant taken elsewhere
    /// (a client thread's request start).
    #[must_use]
    pub fn ns_of(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().map(|(p, _)| *p),
            name,
            start_ns: now,
            end_ns: now,
            count: 0,
            bytes: 0,
            alloc_calls: 0,
            alloc_bytes: 0,
        });
        self.open.push((id, AllocCounts::now()));
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize, count: u64, bytes: u64) {
        let (top, at_open) = self.open.pop().expect("close without an open span");
        assert_eq!(top, id, "spans close innermost first");
        let alloc = AllocCounts::now().since(at_open);
        let now = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = now;
        s.count = count;
        s.bytes = bytes;
        s.alloc_calls = alloc.calls;
        s.alloc_bytes = alloc.bytes;
    }

    /// Records a finished span with explicit times under the innermost
    /// open one (or under `parent`): for intervals measured elsewhere,
    /// such as a client thread's round trip or a stage duration a reply
    /// reports.
    pub fn record(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        count: u64,
        bytes: u64,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: parent.or(self.open.last().map(|(p, _)| *p)),
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            count,
            bytes,
            alloc_calls: 0,
            alloc_bytes: 0,
        });
        id
    }

    /// Runs `work` inside a span; `work` returns its output plus the
    /// span's work and byte counts.
    pub fn within<T>(&mut self, name: &'static str, work: impl FnOnce() -> (T, u64, u64)) -> T {
        let id = self.open(name);
        let (out, count, bytes) = work();
        self.close(id, count, bytes);
        out
    }

    /// All spans, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span (ns), indexed by span id.
    #[must_use]
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Totals over the spans named `name` that lie under `root`
    /// (`None`: anywhere).
    #[must_use]
    pub fn totals(&self, name: &str, root: Option<usize>) -> NameTotals {
        let own = self.self_ns();
        let mut t = NameTotals::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            if root.is_some_and(|r| !self.is_under(s.id, r)) {
                continue;
            }
            t.spans += 1;
            t.total_ms += s.dur_ns() as f64 / 1e6;
            t.self_ms += own[s.id] as f64 / 1e6;
            t.count += s.count;
            t.bytes += s.bytes;
        }
        t
    }

    /// Totals for every span name, in order of first appearance: the
    /// stage table a traced run prints.
    #[must_use]
    pub fn stage_table(&self) -> Vec<(&'static str, NameTotals)> {
        let mut names: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        names
            .into_iter()
            .map(|n| (n, self.totals(n, None)))
            .collect()
    }

    /// Durations (ms) of the spans named `name` that lie under `root`
    /// (`None`: anywhere).
    #[must_use]
    pub fn durations_ms(&self, name: &str, root: Option<usize>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && root.is_none_or(|r| self.is_under(s.id, r)))
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    fn is_under(&self, mut id: usize, root: usize) -> bool {
        loop {
            if id == root {
                return true;
            }
            match self.spans[id].parent {
                Some(p) => id = p,
                None => return false,
            }
        }
    }

    /// The log as the JSON written to `trace-<workload>.json`.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let own = self.self_ns();
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    Value::Map(vec![
                        ("id".into(), Value::U64(s.id as u64)),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                        ),
                        ("name".into(), Value::Str(s.name.to_owned())),
                        ("start_ns".into(), Value::U64(s.start_ns)),
                        ("end_ns".into(), Value::U64(s.end_ns)),
                        ("self_ns".into(), Value::U64(own[s.id])),
                        ("count".into(), Value::U64(s.count)),
                        ("bytes".into(), Value::U64(s.bytes)),
                        ("alloc_calls".into(), Value::U64(s.alloc_calls)),
                        ("alloc_bytes".into(), Value::U64(s.alloc_bytes)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// root [0, 100] ── a [10, 40] ── a1 [15, 25]
    ///               └─ b [50, 90]
    fn tree() -> SpanLog {
        let mut log = SpanLog::new();
        let root = log.record(None, "root", 0, 100, 1, 0);
        let a = log.record(Some(root), "stage", 10, 40, 3, 30);
        log.record(Some(a), "leaf", 15, 25, 1, 0);
        log.record(Some(root), "stage", 50, 90, 4, 40);
        log
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let log = tree();
        assert_eq!(log.self_ns(), vec![30, 20, 10, 40]);
        // The self times of a tree add up to its root.
        assert_eq!(log.self_ns().iter().sum::<u64>(), 100);
    }

    #[test]
    fn totals_group_by_name_under_a_root() {
        let log = tree();
        let t = log.totals("stage", None);
        assert_eq!(t.spans, 2);
        assert_eq!(t.count, 7);
        assert_eq!(t.bytes, 70);
        assert!((t.total_ms - 70e-6).abs() < 1e-12);
        assert!((t.self_ms - 60e-6).abs() < 1e-12);
        assert_eq!(log.totals("leaf", Some(1)).spans, 1);
        assert_eq!(log.totals("leaf", Some(3)).spans, 0);
        assert_eq!(log.durations_ms("stage", None).len(), 2);
        assert_eq!(log.durations_ms("leaf", Some(3)).len(), 0);
    }

    #[test]
    fn open_and_close_nest_and_serialize() {
        let mut log = SpanLog::new();
        let outer = log.open("outer");
        let got = log.within("inner", || (7u32, 5, 9));
        log.close(outer, 1, 0);
        assert_eq!(got, 7);
        assert_eq!(log.spans()[1].parent, Some(outer));
        assert_eq!(log.spans()[1].count, 5);
        assert!(log.spans()[0].end_ns >= log.spans()[1].end_ns);
        let json = serde_json::to_string(&log.to_json()).unwrap();
        assert!(json.contains("\"name\":\"inner\""));
        assert!(json.contains("\"parent\":0"));
    }
}
