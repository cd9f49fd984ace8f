//! The transport-independent service core: admission control, snapshot
//! pinning, cached execution, and metrics.
//!
//! [`ServeCore::handle`] is the whole request pipeline; the TCP server
//! and the in-process client are both thin shells around it:
//!
//! ```text
//! read:  parse → admit (or Busy at the deadline) → pin snapshot → cache get → scan → cache put
//! write: parse → store write lock → commit
//! ```
//!
//! Each resource has one queue. Reads wait for an execution slot at the
//! admission gate, and a read still waiting after one second is answered
//! [`Response::Busy`]:
//! that is the service's only refusal. Appends and compactions skip the
//! gate and wait only on the [`LiveStore`] write lock, which already
//! orders them.
//!
//! Every stage is metered through an [`iri_obs::Registry`]: request and
//! busy counters, cache hit/miss counters, gate-wait and pin/exec
//! latency histograms, plus the pooled per-request [`PlanTrace`]
//! aggregates. Each request past the service verbs additionally opens
//! strictly nested spans (`request` → `admit` → `pin`/`scan`) in a bounded
//! [`Tracer`] stamped with the request sequence number (the service's
//! virtual clock — never the wall clock), and its flattened
//! [`PlanTrace`] rides back on the reply and feeds a top-K slow-query
//! log. The `metrics` and `health` verbs expose all of it over the
//! wire. Queries run against a [`Snapshot`] pinned at the current
//! generation, so they are never blocked by — and never block —
//! concurrent appends, compactions, or re-ingests on the same
//! [`LiveStore`].

use crate::cache::ResultCache;
use crate::proto::{
    Command, Filter, HealthBody, InfoBody, MetricsBody, Reply, Request, Response, SlowQuery,
    StatsBody, TopRow, CODE_JSON, CODE_USAGE,
};
use iri_core::classifier::Classifier;
use iri_core::taxonomy::UpdateClass;
use iri_obs::{
    Cause, CounterId, HistogramId, PlanMeters, PlanTrace, Registry, SpanId, SpanStack, Tracer,
};
use iri_store::{LiveStore, Snapshot, StoreError, StoredEvent};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Service tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Reads allowed to execute concurrently.
    pub max_inflight: usize,
    /// Result-cache capacity in responses (0 disables caching).
    pub cache_entries: usize,
    /// Span/trace ring-buffer capacity in events (0 disables tracing).
    pub trace_capacity: usize,
    /// Slow-query log size: the K worst requests by total latency
    /// retained for the `metrics` verb (0 disables the log).
    pub slow_log_entries: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            max_inflight: 64,
            cache_entries: 256,
            trace_capacity: 4096,
            slow_log_entries: 16,
        }
    }
}

/// Longest a read may wait for an execution slot before it is answered
/// [`Response::Busy`].
const READ_QUEUE_DEADLINE: Duration = Duration::from_millis(1_000);

/// Series replies larger than this many bins are refused as usage
/// errors before anything is allocated for them: 512 KiB of counters per
/// reply, and at most `cache_entries` times that held by the result cache.
const MAX_SERIES_BINS: u64 = 1 << 16;

#[derive(Debug, Default)]
struct GateState {
    active: usize,
    queued: usize,
}

/// Counting semaphore for reads: up to `max_inflight` permits
/// outstanding; later callers wait on a condvar until a permit frees or
/// their deadline passes.
#[derive(Debug)]
struct AdmissionGate {
    state: Mutex<GateState>,
    freed: Condvar,
    max_inflight: usize,
}

/// A read whose deadline passed before a slot freed.
#[derive(Debug)]
struct Refusal {
    /// Reads executing at refusal time.
    active: u64,
    /// Reads still queued at refusal time.
    queued: u64,
    /// How long the read waited.
    waited: Duration,
}

/// RAII execution slot; dropping it wakes one queued waiter.
#[derive(Debug)]
struct Permit<'a> {
    gate: &'a AdmissionGate,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        if let Ok(mut s) = self.gate.state.lock() {
            s.active -= 1;
        }
        self.gate.freed.notify_one();
    }
}

impl AdmissionGate {
    fn new(max_inflight: usize) -> Self {
        AdmissionGate {
            state: Mutex::new(GateState::default()),
            freed: Condvar::new(),
            max_inflight,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, GateState> {
        self.state
            .lock()
            .unwrap_or_else(|_| panic!("admission gate lock poisoned"))
    }

    /// Takes an execution slot, waiting at most `max_wait` for one. On
    /// success the [`Duration`] is how long the caller waited.
    fn admit(&self, max_wait: Duration) -> Result<(Permit<'_>, Duration), Refusal> {
        let started = Instant::now();
        let mut s = self.lock();
        if s.active >= self.max_inflight {
            s.queued += 1;
            while s.active >= self.max_inflight {
                let elapsed = started.elapsed();
                if elapsed >= max_wait {
                    s.queued -= 1;
                    let refusal = Refusal {
                        active: s.active as u64,
                        queued: s.queued as u64,
                        waited: elapsed,
                    };
                    drop(s);
                    // Pass along any wakeup this waiter may have
                    // absorbed, or a sibling could stall.
                    self.freed.notify_one();
                    return Err(refusal);
                }
                s = self
                    .freed
                    .wait_timeout(s, max_wait - elapsed)
                    .unwrap_or_else(|_| panic!("admission gate lock poisoned"))
                    .0;
            }
            s.queued -= 1;
        }
        s.active += 1;
        Ok((Permit { gate: self }, started.elapsed()))
    }

    /// Current `(active, queued)` occupancy.
    fn occupancy(&self) -> (u64, u64) {
        let s = self.lock();
        (s.active as u64, s.queued as u64)
    }
}

#[derive(Debug, Clone, Copy)]
struct Meters {
    requests: CounterId,
    busy: CounterId,
    parse_errors: CounterId,
    errors: CounterId,
    accepts: CounterId,
    appends: CounterId,
    append_events: CounterId,
    compactions: CounterId,
    parse_us: HistogramId,
    pin_us: HistogramId,
    exec_us: HistogramId,
    gate_wait_us: HistogramId,
    gate_wait_total_us: CounterId,
}

/// The service: one [`LiveStore`], one stateful classifier for
/// server-side appends, one result cache, one admission gate for reads,
/// one bounded span tracer, one slow-query log.
pub struct ServeCore {
    live: LiveStore,
    classifier: Mutex<Classifier>,
    cache: ResultCache,
    gate: AdmissionGate,
    registry: Mutex<Registry>,
    meters: Meters,
    plan_meters: PlanMeters,
    tracer: Mutex<Tracer>,
    slow_log: Mutex<Vec<SlowQuery>>,
    seq: AtomicU64,
    opts: ServeOptions,
    draining: AtomicBool,
}

impl std::fmt::Debug for ServeCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeCore")
            .field("live", &self.live)
            .field("draining", &self.draining)
            .finish_non_exhaustive()
    }
}

impl ServeCore {
    /// Wraps an open [`LiveStore`] for serving.
    #[must_use]
    pub fn new(live: LiveStore, opts: &ServeOptions) -> Self {
        let mut registry = Registry::new();
        let meters = Meters {
            requests: registry.counter("serve.requests"),
            busy: registry.counter("serve.busy"),
            parse_errors: registry.counter("serve.parse_errors"),
            errors: registry.counter("serve.errors"),
            accepts: registry.counter("serve.accepts"),
            appends: registry.counter("serve.appends"),
            append_events: registry.counter("serve.append_events"),
            compactions: registry.counter("serve.compactions"),
            parse_us: registry.histogram("serve.parse_us"),
            pin_us: registry.histogram("serve.pin_us"),
            exec_us: registry.histogram("serve.exec_us"),
            gate_wait_us: registry.histogram("serve.gate_wait_us"),
            gate_wait_total_us: registry.counter("serve.gate_wait_total_us"),
        };
        let plan_meters = PlanMeters::register(&mut registry, "serve.plan");
        ServeCore {
            live,
            classifier: Mutex::new(Classifier::new()),
            cache: ResultCache::new(opts.cache_entries),
            gate: AdmissionGate::new(opts.max_inflight),
            registry: Mutex::new(registry),
            meters,
            plan_meters,
            tracer: Mutex::new(if opts.trace_capacity == 0 {
                Tracer::disabled()
            } else {
                Tracer::new(opts.trace_capacity)
            }),
            slow_log: Mutex::new(Vec::new()),
            seq: AtomicU64::new(0),
            opts: *opts,
            draining: AtomicBool::new(false),
        }
    }

    /// The underlying live store (benchmarks mutate through it
    /// directly; tests read its pin accounting).
    #[must_use]
    pub fn live(&self) -> &LiveStore {
        &self.live
    }

    /// Whether graceful drain has begun.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Begins graceful drain: in-flight requests finish, every later
    /// command except `Ping` is answered [`Response::ShuttingDown`].
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    fn lock<'a, T>(m: &'a Mutex<T>, what: &str) -> std::sync::MutexGuard<'a, T> {
        m.lock().unwrap_or_else(|_| panic!("{what} lock poisoned"))
    }

    fn count(&self, id: CounterId) {
        Self::lock(&self.registry, "registry").inc(id);
    }

    fn observe_us(&self, id: HistogramId, us: u64) {
        Self::lock(&self.registry, "registry").observe(id, us);
    }

    fn span_open(&self, spans: &mut SpanStack, seq: u64, name: &'static str) -> SpanId {
        let mut tracer = Self::lock(&self.tracer, "tracer");
        spans.open(&mut tracer, seq, 0, name)
    }

    fn span_close(&self, spans: &mut SpanStack, seq: u64, id: SpanId, elapsed_us: u64) {
        let mut tracer = Self::lock(&self.tracer, "tracer");
        spans.close(&mut tracer, seq, 0, id, elapsed_us);
    }

    /// Counts one accepted transport connection (called by servers).
    pub fn note_accept(&self) {
        self.count(self.meters.accepts);
    }

    /// A snapshot of the service metrics registry.
    #[must_use]
    pub fn metrics(&self) -> iri_obs::RegistrySnapshot {
        Self::lock(&self.registry, "registry").snapshot()
    }

    /// Handles one raw request line and renders one reply line (no
    /// trailing newline). Malformed JSON maps to an `Error` with code
    /// [`CODE_JSON`] and id 0. The parse time of every line, good or
    /// bad, goes to `serve.parse_us`: it precedes the request span.
    pub fn handle_line(&self, line: &str) -> String {
        let parse = Instant::now();
        let parsed = serde_json::from_str::<Request>(line);
        self.observe_us(self.meters.parse_us, dur_us(parse.elapsed()));
        let reply = match parsed {
            Ok(req) => self.handle(req),
            Err(e) => {
                self.count(self.meters.parse_errors);
                Reply {
                    id: 0,
                    resp: Response::Error {
                        code: CODE_JSON,
                        message: format!("bad request line: {e}"),
                    },
                    plan: None,
                }
            }
        };
        serde_json::to_string(&reply)
            .unwrap_or_else(|e| format!("{{\"id\":0,\"resp\":{{\"Error\":{{\"code\":6,\"message\":\"render failed: {e}\"}}}}}}"))
    }

    /// Handles one parsed request.
    pub fn handle(&self, req: Request) -> Reply {
        let (resp, plan) = self.dispatch(req.cmd);
        Reply {
            id: req.id,
            resp,
            plan,
        }
    }

    fn dispatch(&self, cmd: Command) -> (Response, Option<PlanTrace>) {
        self.count(self.meters.requests);
        // Health stays answerable during drain — a drain is exactly when
        // an operator is watching it.
        if self.is_draining() && !matches!(cmd, Command::Ping | Command::Health) {
            return (Response::ShuttingDown, None);
        }
        match cmd {
            Command::Ping => (Response::Pong, None),
            Command::Shutdown => {
                self.begin_drain();
                (Response::ShuttingDown, None)
            }
            Command::Stats => (
                Response::Stats {
                    stats: self.stats(),
                },
                None,
            ),
            Command::Metrics => (
                Response::Metrics {
                    metrics: self.metrics_body(),
                },
                None,
            ),
            Command::Health => (
                Response::Health {
                    health: self.health_body(),
                },
                None,
            ),
            cmd => self.traced(cmd),
        }
    }

    /// The traced pipeline: one request span; for reads, a bounded wait
    /// at the admission gate; then execution with a threaded
    /// [`PlanTrace`]. Appends and compactions skip the gate — the store's
    /// write lock is their queue. The trace rides back on the reply
    /// (`Busy` included — its plan attributes the wait) and is pooled
    /// into the registry and the slow-query log for executed requests.
    fn traced(&self, cmd: Command) -> (Response, Option<PlanTrace>) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let started = Instant::now();
        let mut plan = PlanTrace::default();
        let mut spans = SpanStack::new();
        let req_span = self.span_open(&mut spans, seq, "request");
        let permit = match cmd {
            Command::Append { .. } | Command::Compact { .. } => None,
            _ => match self.admit(&mut plan, &mut spans, seq) {
                Ok(permit) => Some(permit),
                Err(refusal) => {
                    plan.total_us = dur_us(started.elapsed());
                    self.span_close(&mut spans, seq, req_span, plan.total_us);
                    let busy = Response::Busy {
                        active: refusal.active,
                        queued: refusal.queued,
                    };
                    return (busy, Some(plan));
                }
            },
        };
        let cmd_desc = cmd_label(&cmd);
        let resp = self.execute(cmd, &mut plan, &mut spans, seq);
        drop(permit);
        if matches!(resp, Response::Error { .. }) {
            self.count(self.meters.errors);
        }
        plan.total_us = dur_us(started.elapsed());
        self.span_close(&mut spans, seq, req_span, plan.total_us);
        {
            let mut reg = Self::lock(&self.registry, "registry");
            self.plan_meters.observe(&mut reg, &plan);
        }
        self.note_slow(cmd_desc, seq, &plan);
        (resp, Some(plan))
    }

    /// Waits at the gate for a read slot, attributing the wait to the
    /// plan, the `admit` span and the gate meters, and counting a read
    /// still waiting at the deadline as busy.
    fn admit(
        &self,
        plan: &mut PlanTrace,
        spans: &mut SpanStack,
        seq: u64,
    ) -> Result<Permit<'_>, Refusal> {
        let admit_span = self.span_open(spans, seq, "admit");
        let admitted = self.gate.admit(READ_QUEUE_DEADLINE);
        let waited = match &admitted {
            Ok((_, waited)) => *waited,
            Err(refusal) => refusal.waited,
        };
        plan.admission_wait_us = dur_us(waited);
        self.span_close(spans, seq, admit_span, plan.admission_wait_us);
        let mut reg = Self::lock(&self.registry, "registry");
        reg.observe(self.meters.gate_wait_us, plan.admission_wait_us);
        reg.add(self.meters.gate_wait_total_us, plan.admission_wait_us);
        if admitted.is_err() {
            reg.inc(self.meters.busy);
        }
        admitted.map(|(permit, _)| permit)
    }

    fn note_slow(&self, cmd: String, seq: u64, plan: &PlanTrace) {
        let keep = self.opts.slow_log_entries;
        if keep == 0 {
            return;
        }
        let mut log = Self::lock(&self.slow_log, "slow-query log");
        if log.len() >= keep
            && log
                .last()
                .is_some_and(|worst| plan.total_us <= worst.total_us)
        {
            return;
        }
        log.push(SlowQuery {
            cmd,
            seq,
            total_us: plan.total_us,
            plan: *plan,
        });
        log.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.seq.cmp(&b.seq)));
        log.truncate(keep);
    }

    fn metrics_body(&self) -> MetricsBody {
        let registry = self.metrics();
        let slow_queries = Self::lock(&self.slow_log, "slow-query log").clone();
        let tracer = Self::lock(&self.tracer, "tracer");
        MetricsBody {
            registry,
            slow_queries,
            trace_len: tracer.len() as u64,
            trace_dropped: tracer.dropped(),
            trace_capacity: tracer.capacity() as u64,
            segment_cache: self.live.cache_stats(),
        }
    }

    fn health_body(&self) -> HealthBody {
        let live = self.live.stats();
        let cache = self.cache.stats();
        let (inflight, queued) = self.gate.occupancy();
        let draining = self.is_draining();
        let saturated = queued > 0 && inflight >= self.opts.max_inflight as u64;
        let status = if draining {
            "draining"
        } else if saturated {
            "saturated"
        } else {
            "ok"
        };
        HealthBody {
            status: status.to_owned(),
            generation: live.generation,
            active_pins: live.active_pins,
            min_pinned: live.min_pinned,
            inflight,
            queued,
            max_inflight: self.opts.max_inflight as u64,
            draining,
            retired_dirs: live.retired_dirs,
            cache_entries: cache.entries,
            segment_cache: self.live.cache_stats(),
            tail_segments: live.tail_segments,
            tail_rows: live.tail_rows,
        }
    }

    fn execute(
        &self,
        cmd: Command,
        plan: &mut PlanTrace,
        spans: &mut SpanStack,
        seq: u64,
    ) -> Response {
        match cmd {
            Command::Info => self.info(plan, spans, seq),
            Command::Append { events } => self.append(&events),
            Command::Compact { target_rows } => self.compact(target_rows),
            cmd => self.query(cmd, plan, spans, seq),
        }
    }

    fn counter_value(&self, name: &str) -> u64 {
        Self::lock(&self.registry, "registry")
            .counter_value(name)
            .unwrap_or(0)
    }

    fn stats(&self) -> StatsBody {
        let live = self.live.stats();
        let cache = self.cache.stats();
        let (inflight, queued) = self.gate.occupancy();
        StatsBody {
            generation: live.generation,
            active_pins: live.active_pins,
            min_pinned: live.min_pinned,
            total_pins: live.total_pins,
            appends: live.appends,
            appended_events: live.appended_events,
            compactions: live.compactions,
            retired_dirs: live.retired_dirs,
            gc_removed_dirs: live.gc_removed_dirs,
            cache_entries: cache.entries,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            requests: self.counter_value("serve.requests"),
            busy_rejections: self.counter_value("serve.busy"),
            inflight,
            queued,
            gate_wait_total_us: self.counter_value("serve.gate_wait_total_us"),
            segment_cache: self.live.cache_stats(),
            tail_segments: live.tail_segments,
            tail_rows: live.tail_rows,
        }
    }

    fn info(&self, plan: &mut PlanTrace, spans: &mut SpanStack, seq: u64) -> Response {
        let pin_span = self.span_open(spans, seq, "pin");
        let pin = Instant::now();
        let snap = self.live.snapshot();
        plan.pin_us = dur_us(pin.elapsed());
        self.span_close(spans, seq, pin_span, plan.pin_us);
        self.observe_us(self.meters.pin_us, plan.pin_us);
        plan.generation = snap.generation();
        let m = snap.manifest();
        Response::Info {
            info: InfoBody {
                generation: m.generation,
                total_events: m.total_events,
                segments: m.segments.len() as u64,
                segment_rows: m.segment_rows,
                min_time_ms: m.min_time_ms,
                max_time_ms: m.max_time_ms,
                records_read: m.records_read,
                bytes: m.segments.iter().map(|s| s.bytes).sum(),
            },
        }
    }

    fn append(&self, events: &[crate::proto::WireEvent]) -> Response {
        let mut rows: Vec<StoredEvent> = Vec::with_capacity(events.len());
        {
            let mut classifier = Self::lock(&self.classifier, "classifier");
            for ev in events {
                let update = match ev.to_update() {
                    Ok(u) => u,
                    Err(message) => {
                        return Response::Error {
                            code: CODE_USAGE,
                            message,
                        }
                    }
                };
                let classified = classifier.classify(&update);
                rows.push(StoredEvent::from_classified(&classified, Cause::Unknown));
            }
        }
        match self.live.append_events(&rows) {
            Ok(generation) => {
                self.count(self.meters.appends);
                Self::lock(&self.registry, "registry")
                    .add(self.meters.append_events, rows.len() as u64);
                Response::Appended {
                    generation,
                    events: rows.len() as u64,
                }
            }
            Err(e) => store_error(&e),
        }
    }

    fn compact(&self, target_rows: Option<u32>) -> Response {
        let rows = target_rows.unwrap_or_else(|| self.live.manifest().segment_rows);
        match self.live.compact(rows) {
            Ok(report) => {
                self.count(self.meters.compactions);
                Response::Compacted {
                    generation: self.live.generation(),
                    shards_rewritten: report.shards_rewritten as u64,
                    segments_before: report.segments_before as u64,
                    segments_after: report.segments_after as u64,
                }
            }
            Err(e) => store_error(&e),
        }
    }

    fn query(
        &self,
        cmd: Command,
        plan: &mut PlanTrace,
        spans: &mut SpanStack,
        seq: u64,
    ) -> Response {
        let normalized = match serde_json::to_string(&cmd) {
            Ok(s) => s,
            Err(e) => {
                return Response::Error {
                    code: CODE_JSON,
                    message: format!("command not normalizable: {e}"),
                }
            }
        };
        let pin_span = self.span_open(spans, seq, "pin");
        let pin = Instant::now();
        let mut snap = self.live.snapshot();
        plan.pin_us = dur_us(pin.elapsed());
        self.span_close(spans, seq, pin_span, plan.pin_us);
        self.observe_us(self.meters.pin_us, plan.pin_us);
        let generation = snap.generation();
        plan.generation = generation;
        if cmd.cacheable() {
            let lookup = Instant::now();
            if let Some(mut resp) = self.cache.get(generation, &normalized) {
                resp.set_cached(true);
                // A hit replays the populating scan's work accounting;
                // the plan says so via cache_hit, and PlanMeters will
                // not double-count the scan-side facts. exec_us is the
                // cache lookup itself — the hit's whole execution.
                plan.cache_hit = true;
                plan.exec_us = dur_us(lookup.elapsed());
                copy_scan_stats(&resp, plan);
                return resp;
            }
        }
        let scan_span = self.span_open(spans, seq, "scan");
        let exec = Instant::now();
        let resp = run_query(&mut snap, generation, cmd);
        plan.exec_us = dur_us(exec.elapsed());
        self.span_close(spans, seq, scan_span, plan.exec_us);
        self.observe_us(self.meters.exec_us, plan.exec_us);
        copy_scan_stats(&resp, plan);
        if !matches!(resp, Response::Error { .. }) {
            self.cache.insert(generation, &normalized, resp.clone());
        }
        resp
    }
}

fn dur_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Compact command description for the slow-query log: normalized JSON
/// for everything except appends, whose event payload would bloat it.
fn cmd_label(cmd: &Command) -> String {
    match cmd {
        Command::Append { events } => format!("append[{} events]", events.len()),
        other => serde_json::to_string(other).unwrap_or_else(|_| "?".to_owned()),
    }
}

/// Lifts a query response's scan accounting into the plan trace.
fn copy_scan_stats(resp: &Response, plan: &mut PlanTrace) {
    let stats = match resp {
        Response::Counts { stats, .. }
        | Response::Top { stats, .. }
        | Response::Bytes { stats, .. }
        | Response::Series { stats, .. } => stats,
        _ => return,
    };
    plan.segments_pruned = stats.segments_pruned;
    plan.segments_zone_answered = stats.segments_zone_answered;
    plan.segments_scanned = stats.segments_scanned;
    plan.scan_us = stats.scan_us;
    plan.decode_bytes = stats.bytes_scanned;
    plan.rows_scanned = stats.rows_scanned;
    plan.pages_total = stats.pages_total;
    plan.pages_pruned = stats.pages_pruned + stats.pages_zone_answered;
    plan.pages_scanned = stats.pages_scanned;
    plan.segments_cached = stats.segments_cached;
    plan.bytes_read = stats.bytes_read;
}

fn store_error(e: &StoreError) -> Response {
    Response::Error {
        code: e.exit_code(),
        message: e.to_string(),
    }
}

fn usage_error(message: String) -> Response {
    Response::Error {
        code: CODE_USAGE,
        message,
    }
}

/// Executes one cacheable query against a pinned snapshot.
fn run_query(snap: &mut Snapshot, generation: u64, cmd: Command) -> Response {
    let filter = match &cmd {
        Command::CountByClass { filter }
        | Command::CountByCause { filter }
        | Command::TopPeers { filter, .. }
        | Command::TopPrefixes { filter, .. }
        | Command::Bytes { filter }
        | Command::Series { filter, .. } => filter.clone(),
        _ => Filter::default(),
    };
    let q = match filter.to_query() {
        Ok(q) => q,
        Err(message) => return usage_error(message),
    };
    match cmd {
        Command::CountByClass { .. } => match snap.count_by_class(&q) {
            // `ALL` is reporting order, not index order — the reply's
            // counts must follow its labels, so reorder here.
            Ok((counts, stats)) => Response::Counts {
                generation,
                cached: false,
                labels: UpdateClass::ALL
                    .iter()
                    .map(|c| c.label().to_owned())
                    .collect(),
                counts: UpdateClass::ALL.iter().map(|c| counts[c.index()]).collect(),
                stats,
            },
            Err(e) => store_error(&e),
        },
        Command::CountByCause { .. } => match snap.count_by_cause(&q) {
            Ok((counts, stats)) => Response::Counts {
                generation,
                cached: false,
                labels: Cause::ALL.iter().map(|c| c.label().to_owned()).collect(),
                counts: Cause::ALL.iter().map(|c| counts[c.index()]).collect(),
                stats,
            },
            Err(e) => store_error(&e),
        },
        Command::TopPeers { limit, .. } => match snap.count_by_peer(&q) {
            Ok((rows, stats)) => Response::Top {
                generation,
                cached: false,
                rows: rows
                    .into_iter()
                    .take(usize::try_from(limit).unwrap_or(usize::MAX))
                    .map(|(asn, count)| TopRow {
                        key: asn.to_string(),
                        count,
                    })
                    .collect(),
                stats,
            },
            Err(e) => store_error(&e),
        },
        Command::TopPrefixes { limit, .. } => match snap.count_by_prefix(&q) {
            Ok((rows, stats)) => Response::Top {
                generation,
                cached: false,
                rows: rows
                    .into_iter()
                    .take(usize::try_from(limit).unwrap_or(usize::MAX))
                    .map(|(prefix, count)| TopRow {
                        key: prefix.to_string(),
                        count,
                    })
                    .collect(),
                stats,
            },
            Err(e) => store_error(&e),
        },
        Command::Bytes { .. } => match snap.sum_bytes(&q) {
            Ok((total, stats)) => Response::Bytes {
                generation,
                cached: false,
                total,
                stats,
            },
            Err(e) => store_error(&e),
        },
        Command::Series { bin_ms, .. } => {
            let (_, bins) = snap.manifest().series_bins(&q, bin_ms);
            if bins > MAX_SERIES_BINS {
                return usage_error(format!(
                    "series of {bins} bins exceeds the {MAX_SERIES_BINS}-bin limit; \
                     widen bin_ms or narrow the time range"
                ));
            }
            match snap.time_series(&q, bin_ms) {
                Ok((bins, stats)) => Response::Series {
                    generation,
                    cached: false,
                    bin_ms,
                    bins,
                    stats,
                },
                Err(e) => store_error(&e),
            }
        }
        _ => usage_error("not a query command".to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn gate_queues_past_inflight_until_a_slot_frees() {
        let gate = Arc::new(AdmissionGate::new(1));
        let (p1, _) = gate.admit(Duration::ZERO).expect("first slot");
        assert_eq!(gate.occupancy(), (1, 0));
        let g2 = Arc::clone(&gate);
        let waiter = thread::spawn(move || {
            let (permit, waited) = g2.admit(Duration::from_secs(60)).expect("queued slot");
            drop(permit);
            waited
        });
        while gate.occupancy().1 == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        thread::sleep(Duration::from_millis(5));
        drop(p1);
        let waited = waiter.join().expect("waiter exits");
        assert!(
            waited >= Duration::from_millis(5),
            "success reports queue time: {waited:?}"
        );
        assert_eq!(gate.occupancy(), (0, 0), "permits release on drop");
    }

    #[test]
    fn a_waiter_leaves_the_queue_at_its_deadline() {
        let gate = AdmissionGate::new(1);
        let _held = gate.admit(Duration::ZERO).expect("first slot");
        let refusal = gate
            .admit(Duration::from_millis(5))
            .expect_err("slot never frees");
        assert!(
            refusal.waited >= Duration::from_millis(5),
            "the refusal reports the time waited: {refusal:?}"
        );
        assert_eq!((refusal.active, refusal.queued), (1, 0));
        assert_eq!(gate.occupancy(), (1, 0));
    }
}
