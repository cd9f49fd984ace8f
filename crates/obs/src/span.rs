//! Request-scoped spans and the per-request plan trace.
//!
//! A **span** is a named, strictly nested interval recorded into the
//! bounded [`Tracer`]: `SpanOpen`/`SpanClose` event pairs stamped with a
//! **virtual clock** (a request sequence number in the query service,
//! simulated milliseconds elsewhere — never the wall clock, per the
//! crate-level determinism contract). Measured wall-clock durations ride on
//! the close event as *payload*, because there the elapsed time is the
//! quantity under study.
//!
//! A [`PlanTrace`] is the flattened summary of one request's spans — where
//! the time went (admission gate, snapshot pin, scan) and what the scan
//! did (segment fates, decoded bytes). It travels on every serve reply and
//! is pooled into the mergeable [`Registry`] via [`PlanMeters`].

use crate::registry::{CounterId, HistogramId, Registry};
use crate::trace::{TraceKind, Tracer};
use crate::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Handle to an open span, returned by [`SpanStack::open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u64);

impl SpanId {
    /// The raw span id (unique within the owning stack).
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Strictly nested (LIFO) span bookkeeping over a [`Tracer`].
///
/// `open` records a [`TraceKind::SpanOpen`] and pushes the span; `close`
/// pops it and records the matching [`TraceKind::SpanClose`]. Closing any
/// span other than the innermost open one is a programming error and
/// panics — nesting violations must not be silently reordered, or the
/// trace would lie about where time went.
#[derive(Debug, Default)]
pub struct SpanStack {
    next_id: u64,
    open: Vec<(u64, &'static str)>,
}

impl SpanStack {
    /// Empty stack; span ids start at 1.
    #[must_use]
    pub fn new() -> Self {
        SpanStack::default()
    }

    /// Number of currently open spans.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Opens a span named `name`, recording into `tracer` at virtual time
    /// `now` (owner `router` follows the tracer's usual owner field).
    pub fn open(
        &mut self,
        tracer: &mut Tracer,
        now: SimTime,
        router: u32,
        name: &'static str,
    ) -> SpanId {
        self.next_id += 1;
        let id = self.next_id;
        self.open.push((id, name));
        tracer.record(now, router, TraceKind::SpanOpen { span: id, name });
        SpanId(id)
    }

    /// Closes the innermost open span, which must be `id`; `elapsed_us` is
    /// the measured duration payload.
    ///
    /// # Panics
    /// Panics if `id` is not the innermost open span (nesting violation).
    pub fn close(
        &mut self,
        tracer: &mut Tracer,
        now: SimTime,
        router: u32,
        id: SpanId,
        elapsed_us: u64,
    ) {
        let top = self.open.pop();
        match top {
            Some((open_id, name)) if open_id == id.0 => {
                tracer.record(
                    now,
                    router,
                    TraceKind::SpanClose {
                        span: id.0,
                        name,
                        elapsed_us,
                    },
                );
            }
            Some((open_id, name)) => {
                panic!("span nesting violation: close({}) while innermost open span is {open_id} ({name})", id.0)
            }
            None => panic!("span nesting violation: close({}) with no open span", id.0),
        }
    }
}

/// Flattened per-request plan trace: where one query's time went and what
/// its scan did. Rides on every serve reply (`Reply.plan`); cached replies
/// carry the plan of the scan that populated the cache entry, with
/// `cache_hit` flipped on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanTrace {
    /// Wall microseconds spent queued at the admission gate.
    #[serde(default)]
    pub admission_wait_us: u64,
    /// Wall microseconds spent pinning the snapshot.
    #[serde(default)]
    pub pin_us: u64,
    /// Manifest generation the query ran against.
    #[serde(default)]
    pub generation: u64,
    /// Whether the result came from the generation-keyed result cache.
    #[serde(default)]
    pub cache_hit: bool,
    /// Wall microseconds executing the query (cache lookup + scan).
    #[serde(default)]
    pub exec_us: u64,
    /// Wall microseconds for the whole request (admission through reply).
    #[serde(default)]
    pub total_us: u64,
    /// Segments eliminated by zone maps / blooms without being read.
    #[serde(default)]
    pub segments_pruned: u64,
    /// Segments answered from zone-map metadata alone.
    #[serde(default)]
    pub segments_zone_answered: u64,
    /// Segments fully decoded and scanned.
    #[serde(default)]
    pub segments_scanned: u64,
    /// Wall microseconds inside the segment scan loop.
    #[serde(default)]
    pub scan_us: u64,
    /// Bytes decoded from scanned segments.
    #[serde(default)]
    pub decode_bytes: u64,
    /// Rows materialised by the scan.
    #[serde(default)]
    pub rows_scanned: u64,
    /// Zone-map pages the scan considered (0 on pre-page traces).
    #[serde(default)]
    pub pages_total: u64,
    /// Pages eliminated by page-level zone maps / blooms.
    #[serde(default)]
    pub pages_pruned: u64,
    /// Pages fully decoded and scanned.
    #[serde(default)]
    pub pages_scanned: u64,
    /// Scanned segments that were resident in the store's segment cache.
    #[serde(default)]
    pub segments_cached: u64,
    /// Bytes the scan pulled through the filesystem (0 when every
    /// scanned segment was resident; `decode_bytes` counts them all).
    #[serde(default)]
    pub bytes_read: u64,
}

impl fmt::Display for PlanTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "total={}us admit={}us pin={}us exec={}us scan={}us gen={} cache={} segs p/z/s={}/{}/{} bytes={} read={} resident={} rows={}",
            self.total_us,
            self.admission_wait_us,
            self.pin_us,
            self.exec_us,
            self.scan_us,
            self.generation,
            if self.cache_hit { "hit" } else { "miss" },
            self.segments_pruned,
            self.segments_zone_answered,
            self.segments_scanned,
            self.decode_bytes,
            self.bytes_read,
            self.segments_cached,
            self.rows_scanned,
        )?;
        if self.pages_total > 0 {
            write!(
                f,
                " pages p/s={}/{} of {}",
                self.pages_pruned, self.pages_scanned, self.pages_total
            )?;
        }
        Ok(())
    }
}

/// Pre-registered registry ids for aggregating [`PlanTrace`]s.
///
/// One `observe` per request keeps the hot path at a handful of array
/// writes; the underlying [`Registry`] merges across workers by name.
#[derive(Debug, Clone, Copy)]
pub struct PlanMeters {
    admission_wait_us: HistogramId,
    pin_us: HistogramId,
    exec_us: HistogramId,
    scan_us: HistogramId,
    total_us: HistogramId,
    cache_hits: CounterId,
    cache_misses: CounterId,
    decode_bytes: CounterId,
    bytes_read: CounterId,
    segments_cached: CounterId,
    segments_pruned: CounterId,
    segments_zone_answered: CounterId,
    segments_scanned: CounterId,
    rows_scanned: CounterId,
}

impl PlanMeters {
    /// Registers the plan metrics under `prefix` (e.g. `"serve.plan"`).
    pub fn register(reg: &mut Registry, prefix: &str) -> Self {
        PlanMeters {
            admission_wait_us: reg.histogram(&format!("{prefix}.admission_wait_us")),
            pin_us: reg.histogram(&format!("{prefix}.pin_us")),
            exec_us: reg.histogram(&format!("{prefix}.exec_us")),
            scan_us: reg.histogram(&format!("{prefix}.scan_us")),
            total_us: reg.histogram(&format!("{prefix}.total_us")),
            cache_hits: reg.counter(&format!("{prefix}.cache_hits")),
            cache_misses: reg.counter(&format!("{prefix}.cache_misses")),
            decode_bytes: reg.counter(&format!("{prefix}.decode_bytes")),
            bytes_read: reg.counter(&format!("{prefix}.bytes_read")),
            segments_cached: reg.counter(&format!("{prefix}.segments_cached")),
            segments_pruned: reg.counter(&format!("{prefix}.segments_pruned")),
            segments_zone_answered: reg.counter(&format!("{prefix}.segments_zone_answered")),
            segments_scanned: reg.counter(&format!("{prefix}.segments_scanned")),
            rows_scanned: reg.counter(&format!("{prefix}.rows_scanned")),
        }
    }

    /// Pools one request's plan trace into `reg`.
    pub fn observe(&self, reg: &mut Registry, plan: &PlanTrace) {
        reg.observe(self.admission_wait_us, plan.admission_wait_us);
        reg.observe(self.pin_us, plan.pin_us);
        reg.observe(self.exec_us, plan.exec_us);
        reg.observe(self.total_us, plan.total_us);
        if plan.cache_hit {
            reg.inc(self.cache_hits);
        } else {
            reg.inc(self.cache_misses);
            // Scan-side facts only exist on the miss path; a hit replays
            // the populating scan's numbers and must not double-count.
            reg.observe(self.scan_us, plan.scan_us);
            reg.add(self.decode_bytes, plan.decode_bytes);
            reg.add(self.bytes_read, plan.bytes_read);
            reg.add(self.segments_cached, plan.segments_cached);
            reg.add(self.segments_pruned, plan.segments_pruned);
            reg.add(self.segments_zone_answered, plan.segments_zone_answered);
            reg.add(self.segments_scanned, plan.segments_scanned);
            reg.add(self.rows_scanned, plan.rows_scanned);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_in_lifo_order() {
        let mut tracer = Tracer::new(16);
        let mut spans = SpanStack::new();
        // Virtual clock: a request sequence number, deliberately constant
        // across the inner spans to prove ordering comes from the stack,
        // not the clock.
        let root = spans.open(&mut tracer, 7, 0, "request");
        let admit = spans.open(&mut tracer, 7, 0, "admit");
        assert_eq!(spans.depth(), 2);
        spans.close(&mut tracer, 7, 0, admit, 120);
        let scan = spans.open(&mut tracer, 7, 0, "scan");
        spans.close(&mut tracer, 7, 0, scan, 450);
        spans.close(&mut tracer, 7, 0, root, 900);
        assert_eq!(spans.depth(), 0);

        let kinds: Vec<String> = tracer
            .events()
            .map(|e| {
                assert_eq!(e.time, 7, "virtual clock only, never wall clock");
                match &e.kind {
                    TraceKind::SpanOpen { span, name } => format!("open:{name}:{span}"),
                    TraceKind::SpanClose {
                        span,
                        name,
                        elapsed_us,
                    } => format!("close:{name}:{span}:{elapsed_us}"),
                    other => panic!("unexpected event {other:?}"),
                }
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                "open:request:1",
                "open:admit:2",
                "close:admit:2:120",
                "open:scan:3",
                "close:scan:3:450",
                "close:request:1:900",
            ]
        );
    }

    #[test]
    #[should_panic(expected = "span nesting violation")]
    fn out_of_order_close_panics() {
        let mut tracer = Tracer::new(16);
        let mut spans = SpanStack::new();
        let outer = spans.open(&mut tracer, 1, 0, "outer");
        let _inner = spans.open(&mut tracer, 1, 0, "inner");
        spans.close(&mut tracer, 1, 0, outer, 10);
    }

    #[test]
    fn plan_trace_roundtrips_and_renders() {
        let plan = PlanTrace {
            admission_wait_us: 10,
            pin_us: 3,
            generation: 4,
            cache_hit: false,
            exec_us: 200,
            total_us: 215,
            segments_pruned: 5,
            segments_zone_answered: 2,
            segments_scanned: 1,
            scan_us: 180,
            decode_bytes: 4096,
            rows_scanned: 37,
            pages_total: 12,
            pages_pruned: 9,
            pages_scanned: 3,
            segments_cached: 1,
            bytes_read: 0,
        };
        let json = serde_json::to_string(&plan).unwrap();
        let back: PlanTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
        let empty: PlanTrace = serde_json::from_str("{}").unwrap();
        assert_eq!(empty, PlanTrace::default());
        let s = plan.to_string();
        assert!(s.contains("cache=miss"), "{s}");
        assert!(s.contains("p/z/s=5/2/1"), "{s}");
        assert!(s.contains("bytes=4096 read=0 resident=1"), "{s}");
        assert!(s.contains("pages p/s=9/3 of 12"), "{s}");
        // Pre-page traces (all page fields zero) render the old line.
        assert!(
            !PlanTrace::default().to_string().contains("pages"),
            "compat"
        );
    }

    #[test]
    fn plan_meters_pool_without_double_counting_hits() {
        let mut reg = Registry::new();
        let meters = PlanMeters::register(&mut reg, "serve.plan");
        let mut plan = PlanTrace {
            total_us: 100,
            exec_us: 80,
            scan_us: 60,
            decode_bytes: 1000,
            segments_scanned: 2,
            rows_scanned: 10,
            ..PlanTrace::default()
        };
        meters.observe(&mut reg, &plan);
        plan.cache_hit = true;
        meters.observe(&mut reg, &plan);
        assert_eq!(reg.counter_value("serve.plan.cache_hits"), Some(1));
        assert_eq!(reg.counter_value("serve.plan.cache_misses"), Some(1));
        assert_eq!(
            reg.counter_value("serve.plan.decode_bytes"),
            Some(1000),
            "hit must not re-add the populating scan's bytes"
        );
        assert_eq!(
            reg.histogram_ref("serve.plan.total_us").unwrap().count(),
            2,
            "latency observed on both hit and miss"
        );
        assert_eq!(reg.histogram_ref("serve.plan.scan_us").unwrap().count(), 1);
    }
}
