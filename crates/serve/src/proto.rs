//! Wire protocol: line-delimited JSON requests and replies.
//!
//! One request per line, one reply per line, correlated by `id`. The
//! command vocabulary is exactly the `iriq` query surface plus the two
//! mutations a live store accepts (`append`, `compact`) and the service
//! verbs (`ping`, `info`, `stats`, `shutdown`).
//!
//! Every query reply names the **generation** it was answered at — the
//! manifest-journal commit point the snapshot pinned — and whether it
//! was served from the result cache. Two replies for the same command
//! at the same generation carry identical *results* by construction;
//! clients can (and the bench harness does) use that as an end-to-end
//! isolation check. Work accounting (`ScanStats::scan_us`, the
//! [`Reply::plan`] trace) measures the answering execution and is the
//! one part of a reply that may differ between runs.
//!
//! Errors carry the store exit-code taxonomy so remote failures map to
//! the same process exit codes local ones do: 2 usage, 3 I/O, 4
//! corrupt, 5 quarantined/strict, 6 JSON, 7 ingest.

use iri_bgp::attrs::{Origin, PathAttributes};
use iri_bgp::path::AsPath;
use iri_bgp::types::Asn;
use iri_core::input::{PeerKey, UpdateEvent};
use iri_obs::registry::RegistrySnapshot;
use iri_obs::PlanTrace;
use iri_store::{Query, ScanStats, SegmentCacheStats};
use serde::{Deserialize, Serialize};

/// Exit code a malformed command or filter maps to (usage).
pub const CODE_USAGE: i32 = 2;
/// Exit code a malformed request line maps to (JSON).
pub const CODE_JSON: i32 = 6;

/// One request line: a client-chosen correlation id plus the command.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Echoed verbatim in the matching [`Reply`].
    pub id: u64,
    /// What to do.
    pub cmd: Command,
}

/// One reply line, correlated to its [`Request`] by `id`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Reply {
    /// The request's id (0 when the request line could not be parsed).
    pub id: u64,
    /// The outcome.
    pub resp: Response,
    /// Per-request plan trace for reads and mutations: where the
    /// latency went (gate wait, pin, scan), which snapshot generation
    /// answered, and how much segment work the scan did. `None` for
    /// service verbs and unparseable lines.
    #[serde(default)]
    pub plan: Option<PlanTrace>,
}

/// Row-level filter, mirroring the `iriq` flag grammar. All fields are
/// optional and conjunctive; class and cause are matched by label,
/// case-insensitively, so the wire format stays stable across enum
/// reorderings.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Filter {
    /// Inclusive lower time bound (ms).
    #[serde(default)]
    pub from_ms: Option<u64>,
    /// Exclusive upper time bound (ms).
    #[serde(default)]
    pub to_ms: Option<u64>,
    /// Keep only rows from this peer AS.
    #[serde(default)]
    pub peer_asn: Option<u32>,
    /// Keep only rows for this exact prefix (`a.b.c.d/len`).
    #[serde(default)]
    pub prefix: Option<String>,
    /// Keep only rows of this taxonomy class (by label).
    #[serde(default)]
    pub class: Option<String>,
    /// Keep only rows with this causal provenance (by label).
    #[serde(default)]
    pub cause: Option<String>,
}

impl Filter {
    /// Lowers the wire filter to a typed store [`Query`] via the store's
    /// own builder, so the wire grammar and the CLI grammar can never
    /// drift apart.
    pub fn to_query(&self) -> Result<Query, String> {
        let mut q = Query::default();
        if let Some(f) = self.from_ms {
            q.from_ms = f;
        }
        if let Some(t) = self.to_ms {
            q.to_ms = t;
        }
        if let Some(asn) = self.peer_asn {
            q = q.peer(Asn(asn));
        }
        if let Some(p) = &self.prefix {
            q = q.prefix_str(p)?;
        }
        if let Some(c) = &self.class {
            q = q.class_labelled(c)?;
        }
        if let Some(c) = &self.cause {
            q = q.cause_labelled(c)?;
        }
        Ok(q)
    }

    /// Lifts a typed store [`Query`] to the wire filter (the `iriq
    /// --connect` path: flags are parsed locally, shipped as labels).
    #[must_use]
    pub fn from_query(q: &Query) -> Self {
        Filter {
            from_ms: (q.from_ms > 0).then_some(q.from_ms),
            to_ms: (q.to_ms != u64::MAX).then_some(q.to_ms),
            peer_asn: q.peer_asn.map(|a| a.0),
            prefix: q.prefix.map(|p| p.to_string()),
            class: q.class.map(|c| c.label().to_owned()),
            cause: q.cause.map(|c| c.label().to_owned()),
        }
    }
}

/// One raw (unclassified) update on the wire. The server classifies it
/// with its own stateful per-(peer, prefix) classifier, so clients send
/// what a probe would observe, not taxonomy labels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireEvent {
    /// Milliseconds since the measurement epoch.
    pub time_ms: u64,
    /// The sending peer's AS number.
    pub peer_asn: u32,
    /// The sending peer's exchange-LAN address.
    pub peer_addr: String,
    /// The affected prefix (`a.b.c.d/len`).
    pub prefix: String,
    /// `true` for an announcement, `false` for a withdrawal.
    pub announce: bool,
    /// AS path of an announcement (ignored for withdrawals).
    #[serde(default)]
    pub as_path: Vec<u32>,
    /// Next hop of an announcement; defaults to the peer address.
    #[serde(default)]
    pub next_hop: Option<String>,
}

impl WireEvent {
    /// Announcement constructor.
    #[must_use]
    pub fn announce(time_ms: u64, peer_asn: u32, peer_addr: &str, prefix: &str) -> Self {
        WireEvent {
            time_ms,
            peer_asn,
            peer_addr: peer_addr.to_owned(),
            prefix: prefix.to_owned(),
            announce: true,
            as_path: vec![peer_asn],
            next_hop: None,
        }
    }

    /// Withdrawal constructor.
    #[must_use]
    pub fn withdraw(time_ms: u64, peer_asn: u32, peer_addr: &str, prefix: &str) -> Self {
        WireEvent {
            time_ms,
            peer_asn,
            peer_addr: peer_addr.to_owned(),
            prefix: prefix.to_owned(),
            announce: false,
            as_path: Vec::new(),
            next_hop: None,
        }
    }

    /// Replaces the AS path (builder style).
    #[must_use]
    pub fn with_path(mut self, path: &[u32]) -> Self {
        self.as_path = path.to_vec();
        self
    }

    /// Lowers the wire event to the classifier's input type.
    pub fn to_update(&self) -> Result<UpdateEvent, String> {
        // Segments delta-code event times as i64.
        if i64::try_from(self.time_ms).is_err() {
            return Err(format!(
                "time_ms wants at most {}, got {}",
                i64::MAX,
                self.time_ms
            ));
        }
        let addr = self
            .peer_addr
            .parse()
            .map_err(|_| format!("peer_addr wants a.b.c.d, got {:?}", self.peer_addr))?;
        let peer = PeerKey {
            asn: Asn(self.peer_asn),
            addr,
        };
        let prefix = self
            .prefix
            .parse()
            .map_err(|_| format!("prefix wants a.b.c.d/len, got {:?}", self.prefix))?;
        if !self.announce {
            return Ok(UpdateEvent::withdraw(self.time_ms, peer, prefix));
        }
        let next_hop = match &self.next_hop {
            Some(h) => h
                .parse()
                .map_err(|_| format!("next_hop wants a.b.c.d, got {h:?}"))?,
            None => addr,
        };
        let attrs = PathAttributes::new(
            Origin::Igp,
            AsPath::from_sequence(self.as_path.iter().map(|&n| Asn(n))),
            next_hop,
        );
        Ok(UpdateEvent::announce(self.time_ms, peer, prefix, attrs))
    }
}

/// The command vocabulary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Command {
    /// Liveness probe; answered even while draining.
    Ping,
    /// Manifest-level store summary at the current generation.
    Info,
    /// Pin, cache, admission, and mutation statistics.
    Stats,
    /// Metrics-registry snapshot, slow-query log, and tracer
    /// accounting; answered outside the admission gate.
    Metrics,
    /// Liveness/saturation/drain summary; answered outside the
    /// admission gate, even while draining.
    Health,
    /// Matching rows per taxonomy class.
    CountByClass {
        /// Row filter.
        filter: Filter,
    },
    /// Matching rows per causal provenance.
    CountByCause {
        /// Row filter.
        filter: Filter,
    },
    /// Peers by descending matching-row count.
    TopPeers {
        /// Row filter.
        filter: Filter,
        /// Rows to return.
        limit: u64,
    },
    /// Prefixes by descending matching-row count.
    TopPrefixes {
        /// Row filter.
        filter: Filter,
        /// Rows to return.
        limit: u64,
    },
    /// Total NLRI wire bytes matching.
    Bytes {
        /// Row filter.
        filter: Filter,
    },
    /// Matching rows bucketed into fixed-width time bins. A series of
    /// more than 2^16 bins over the pinned snapshot's time span is
    /// refused with a usage error.
    Series {
        /// Row filter.
        filter: Filter,
        /// Bin width (ms).
        bin_ms: u64,
    },
    /// Classify raw updates server-side and append them as one commit.
    Append {
        /// The raw updates, in arrival order.
        events: Vec<WireEvent>,
    },
    /// Rewrite ragged shard chains into canonical segments.
    Compact {
        /// Segment roll size; defaults to the store's configured size.
        target_rows: Option<u32>,
    },
    /// Begin graceful drain: in-flight requests finish, new ones are
    /// refused with [`Response::ShuttingDown`].
    Shutdown,
}

impl Command {
    /// Whether the command is a pure read that may be answered from the
    /// `(generation, command)` result cache.
    #[must_use]
    pub fn cacheable(&self) -> bool {
        matches!(
            self,
            Command::CountByClass { .. }
                | Command::CountByCause { .. }
                | Command::TopPeers { .. }
                | Command::TopPrefixes { .. }
                | Command::Bytes { .. }
                | Command::Series { .. }
        )
    }
}

/// One labelled count row (peers, prefixes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopRow {
    /// Display key (AS number or prefix).
    pub key: String,
    /// Matching rows.
    pub count: u64,
}

/// Manifest-level store summary.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InfoBody {
    /// Committed generation the summary describes.
    pub generation: u64,
    /// Total stored events.
    pub total_events: u64,
    /// Segment files.
    pub segments: u64,
    /// Rows per full segment.
    pub segment_rows: u32,
    /// Earliest stored event time (ms).
    pub min_time_ms: u64,
    /// Latest stored event time (ms).
    pub max_time_ms: u64,
    /// MRT records the archive was built from.
    pub records_read: u64,
    /// Segment bytes on disk.
    pub bytes: u64,
}

/// Pin, cache, admission, and mutation statistics (`iriq --connect
/// --stats` renders these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StatsBody {
    /// Current committed generation.
    pub generation: u64,
    /// Snapshots currently holding a pin.
    pub active_pins: u64,
    /// Oldest pinned generation, if any snapshot is live.
    pub min_pinned: Option<u64>,
    /// Pins ever taken.
    pub total_pins: u64,
    /// Append commits since open.
    pub appends: u64,
    /// Events appended since open.
    pub appended_events: u64,
    /// Compactions since open.
    pub compactions: u64,
    /// Retired generation directories awaiting reclamation.
    pub retired_dirs: u64,
    /// Retired generation directories reclaimed since open.
    pub gc_removed_dirs: u64,
    /// Live result-cache entries.
    pub cache_entries: u64,
    /// Queries answered from the cache.
    pub cache_hits: u64,
    /// Queries that had to scan.
    pub cache_misses: u64,
    /// Requests handled (all commands).
    pub requests: u64,
    /// Reads answered [`Response::Busy`]: still waiting for a slot at
    /// their deadline.
    pub busy_rejections: u64,
    /// Reads executing right now.
    pub inflight: u64,
    /// Reads waiting for an execution slot.
    pub queued: u64,
    /// Cumulative microseconds all reads, answered or shed, spent
    /// waiting at the admission gate.
    #[serde(default)]
    pub gate_wait_total_us: u64,
    /// The live store's segment cache: entries, resident bytes, hits,
    /// misses, evictions, invalidations (zeros from older servers).
    #[serde(default)]
    pub segment_cache: SegmentCacheStats,
    /// Tail segments awaiting compaction (0 from older servers).
    #[serde(default)]
    pub tail_segments: u64,
    /// Rows in those tails: the compaction lag.
    #[serde(default)]
    pub tail_rows: u64,
}

/// One entry in the slow-query log: the worst requests the service has
/// answered, by total latency, each with its full plan trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlowQuery {
    /// Compact description of the command (normalized JSON for reads,
    /// a summary for mutations).
    pub cmd: String,
    /// Request sequence number (the service's virtual clock).
    pub seq: u64,
    /// End-to-end latency inside the service (µs).
    pub total_us: u64,
    /// Where the time went.
    pub plan: PlanTrace,
}

/// Metrics surface: the mergeable registry, the slow-query log, and
/// bounded-tracer accounting (`tracescope --connect` renders these).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsBody {
    /// Counters, gauges, and latency histograms, aggregated across all
    /// worker threads since the service opened.
    pub registry: RegistrySnapshot,
    /// Worst requests by total latency, descending.
    pub slow_queries: Vec<SlowQuery>,
    /// Span/trace events currently buffered.
    pub trace_len: u64,
    /// Trace events evicted from the bounded ring since open.
    pub trace_dropped: u64,
    /// Ring capacity.
    pub trace_capacity: u64,
    /// The live store's segment cache (zeros from older servers).
    #[serde(default)]
    pub segment_cache: SegmentCacheStats,
}

/// Health surface: is the service accepting work, and how close to its
/// limits is it. Answered even while draining.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthBody {
    /// `"ok"`, `"draining"`, or `"saturated"` (reads are queued at a
    /// full gate).
    pub status: String,
    /// Current committed generation.
    pub generation: u64,
    /// Snapshots currently holding a pin.
    pub active_pins: u64,
    /// Oldest pinned generation, if any snapshot is live.
    pub min_pinned: Option<u64>,
    /// Reads executing right now.
    pub inflight: u64,
    /// Reads waiting for an execution slot.
    pub queued: u64,
    /// Read execution-slot limit.
    pub max_inflight: u64,
    /// Whether a drain has begun.
    pub draining: bool,
    /// Retired generation directories awaiting reclamation.
    pub retired_dirs: u64,
    /// Live result-cache entries.
    pub cache_entries: u64,
    /// The live store's segment cache (zeros from older servers).
    #[serde(default)]
    pub segment_cache: SegmentCacheStats,
    /// Tail segments awaiting compaction (0 from older servers).
    #[serde(default)]
    pub tail_segments: u64,
    /// Rows in those tails: the compaction lag.
    #[serde(default)]
    pub tail_rows: u64,
}

/// The outcome of one command.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// [`Command::Ping`] succeeded.
    Pong,
    /// [`Command::Info`] result.
    Info {
        /// The summary.
        info: InfoBody,
    },
    /// [`Command::Stats`] result.
    Stats {
        /// The statistics.
        stats: StatsBody,
    },
    /// [`Command::Metrics`] result.
    Metrics {
        /// The metrics surface.
        metrics: MetricsBody,
    },
    /// [`Command::Health`] result.
    Health {
        /// The health surface.
        health: HealthBody,
    },
    /// [`Command::CountByClass`] / [`Command::CountByCause`] result.
    Counts {
        /// Generation the pinned snapshot served.
        generation: u64,
        /// Whether the result cache answered.
        cached: bool,
        /// Class or cause labels, parallel to `counts`.
        labels: Vec<String>,
        /// Matching rows per label.
        counts: Vec<u64>,
        /// Scan work accounting.
        stats: ScanStats,
    },
    /// [`Command::TopPeers`] / [`Command::TopPrefixes`] result.
    Top {
        /// Generation the pinned snapshot served.
        generation: u64,
        /// Whether the result cache answered.
        cached: bool,
        /// Rows, descending by count.
        rows: Vec<TopRow>,
        /// Scan work accounting.
        stats: ScanStats,
    },
    /// [`Command::Bytes`] result.
    Bytes {
        /// Generation the pinned snapshot served.
        generation: u64,
        /// Whether the result cache answered.
        cached: bool,
        /// Total NLRI wire bytes matching.
        total: u64,
        /// Scan work accounting.
        stats: ScanStats,
    },
    /// [`Command::Series`] result.
    Series {
        /// Generation the pinned snapshot served.
        generation: u64,
        /// Whether the result cache answered.
        cached: bool,
        /// Bin width (ms).
        bin_ms: u64,
        /// Matching rows per bin.
        bins: Vec<u64>,
        /// Scan work accounting.
        stats: ScanStats,
    },
    /// [`Command::Append`] committed.
    Appended {
        /// The new generation.
        generation: u64,
        /// Events appended.
        events: u64,
    },
    /// [`Command::Compact`] committed.
    Compacted {
        /// The new generation.
        generation: u64,
        /// Shards whose chains were rewritten.
        shards_rewritten: u64,
        /// Segment files before.
        segments_before: u64,
        /// Segment files after.
        segments_after: u64,
    },
    /// A read waited its deadline for an execution slot and was shed.
    Busy {
        /// Reads executing.
        active: u64,
        /// Reads still queued.
        queued: u64,
    },
    /// The service is draining; no new work is accepted.
    ShuttingDown,
    /// The command failed.
    Error {
        /// Store exit-code taxonomy (2 usage, 3 I/O, 4 corrupt, 5
        /// quarantined/strict, 6 JSON, 7 ingest).
        code: i32,
        /// Human-readable cause.
        message: String,
    },
}

impl Response {
    /// Marks a cache-served copy as such.
    pub(crate) fn set_cached(&mut self, hit: bool) {
        match self {
            Response::Counts { cached, .. }
            | Response::Top { cached, .. }
            | Response::Bytes { cached, .. }
            | Response::Series { cached, .. } => *cached = hit,
            _ => {}
        }
    }

    /// The exit code a CLI should use for this response: 0 for any
    /// success, the carried code for errors, [`CODE_USAGE`] for
    /// busy/shutdown refusals.
    #[must_use]
    pub fn exit_code(&self) -> i32 {
        match self {
            Response::Error { code, .. } => *code,
            Response::Busy { .. } | Response::ShuttingDown => CODE_USAGE,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_through_json() {
        let req = Request {
            id: 7,
            cmd: Command::TopPeers {
                filter: Filter {
                    from_ms: Some(10),
                    class: Some("AADup".into()),
                    ..Filter::default()
                },
                limit: 5,
            },
        };
        let line = serde_json::to_string(&req).unwrap();
        let back: Request = serde_json::from_str(&line).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn reply_round_trips_through_json() {
        let reply = Reply {
            id: 9,
            resp: Response::Counts {
                generation: 3,
                cached: true,
                labels: vec!["WWDup".into()],
                counts: vec![12],
                stats: ScanStats::default(),
            },
            plan: Some(PlanTrace {
                admission_wait_us: 3,
                generation: 3,
                cache_hit: true,
                total_us: 41,
                ..PlanTrace::default()
            }),
        };
        let line = serde_json::to_string(&reply).unwrap();
        let back: Reply = serde_json::from_str(&line).unwrap();
        assert_eq!(back, reply);
    }

    #[test]
    fn reply_without_plan_still_parses() {
        let back: Reply = serde_json::from_str(r#"{"id":4,"resp":"Pong"}"#).unwrap();
        assert_eq!(back.id, 4);
        assert_eq!(back.resp, Response::Pong);
        assert_eq!(back.plan, None);
    }

    #[test]
    fn metrics_and_health_round_trip_through_json() {
        let reply = Reply {
            id: 11,
            resp: Response::Metrics {
                metrics: MetricsBody {
                    registry: RegistrySnapshot::default(),
                    slow_queries: vec![SlowQuery {
                        cmd: "{\"Info\":null}".into(),
                        seq: 9,
                        total_us: 1234,
                        plan: PlanTrace::default(),
                    }],
                    trace_len: 6,
                    trace_dropped: 0,
                    trace_capacity: 4096,
                    segment_cache: SegmentCacheStats {
                        entries: 3,
                        resident_bytes: 4096,
                        hits: 9,
                        misses: 3,
                        evictions: 1,
                        invalidations: 2,
                    },
                },
            },
            plan: None,
        };
        let line = serde_json::to_string(&reply).unwrap();
        let back: Reply = serde_json::from_str(&line).unwrap();
        assert_eq!(back, reply);

        let health = Reply {
            id: 12,
            resp: Response::Health {
                health: HealthBody {
                    status: "ok".into(),
                    generation: 2,
                    active_pins: 1,
                    min_pinned: Some(2),
                    inflight: 3,
                    queued: 0,
                    max_inflight: 64,
                    draining: false,
                    retired_dirs: 0,
                    cache_entries: 5,
                    segment_cache: SegmentCacheStats::default(),
                    tail_segments: 2,
                    tail_rows: 512,
                },
            },
            plan: None,
        };
        let line = serde_json::to_string(&health).unwrap();
        let back: Reply = serde_json::from_str(&line).unwrap();
        assert_eq!(back, health);
    }

    #[test]
    fn stats_body_gate_fields_default_for_old_peers() {
        let body: StatsBody = serde_json::from_str(
            r#"{"generation":1,"active_pins":0,"min_pinned":null,"total_pins":0,
                "appends":0,"appended_events":0,"compactions":0,"retired_dirs":0,
                "gc_removed_dirs":0,"cache_entries":0,"cache_hits":0,"cache_misses":0,
                "requests":7,"busy_rejections":0,"inflight":0,"queued":0}"#,
        )
        .unwrap();
        assert_eq!(body.requests, 7);
        assert_eq!(body.gate_wait_total_us, 0);
        assert_eq!((body.tail_segments, body.tail_rows), (0, 0));
    }

    #[test]
    fn filter_round_trips_and_rejects_bad_labels() {
        let q = Filter {
            from_ms: Some(5),
            to_ms: Some(50),
            peer_asn: Some(701),
            prefix: Some("10.0.0.0/8".into()),
            class: Some("wwdup".into()),
            cause: None,
        }
        .to_query()
        .unwrap();
        assert_eq!(q.from_ms, 5);
        assert_eq!(q.peer_asn, Some(Asn(701)));
        assert_eq!(Filter::from_query(&q).to_query().unwrap(), q);
        assert!(Filter {
            class: Some("nope".into()),
            ..Filter::default()
        }
        .to_query()
        .is_err());
        assert!(Filter {
            prefix: Some("bad".into()),
            ..Filter::default()
        }
        .to_query()
        .is_err());
    }

    #[test]
    fn wire_event_lowers_to_classifier_input() {
        let a = WireEvent::announce(10, 701, "192.41.177.1", "10.0.0.0/8")
            .with_path(&[701, 3561])
            .to_update()
            .unwrap();
        assert!(a.is_announce());
        assert_eq!(a.peer.asn, Asn(701));
        let w = WireEvent::withdraw(20, 701, "192.41.177.1", "10.0.0.0/8")
            .to_update()
            .unwrap();
        assert!(!w.is_announce());
        assert!(WireEvent::announce(0, 1, "nope", "10.0.0.0/8")
            .to_update()
            .is_err());
        // A time the segment codec cannot delta-code is refused here,
        // not committed as a tail no scan can read back.
        assert!(
            WireEvent::announce(u64::MAX, 1, "192.41.177.1", "10.0.0.0/8")
                .to_update()
                .is_err()
        );
    }
}
