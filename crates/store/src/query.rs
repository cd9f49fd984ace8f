//! Query engine: manifest, zone-map pruning, scans, and aggregations.
//!
//! Every query walks the manifest in (shard, seq) order — the 32 shard
//! chains, then the tails (shard [`crate::TAIL_SHARD`]) in commit order —
//! and decides, per segment, one of three fates:
//!
//! 1. **pruned** — the zone maps prove no row can match; the file is
//!    never opened;
//! 2. **zone-answered** — for grouped counts with no row-level
//!    predicates, a segment fully inside the time window is answered
//!    from its footer counts alone;
//! 3. **scanned** — the file is decoded and rows are filtered
//!    column-wise.
//!
//! [`ScanStats`] reports the split, and [`ScanStats::prune_ratio`] is the
//! number the `bench_store` harness tracks: the fraction of the archive a
//! time-windowed query never had to read.

use crate::cache::{SegmentCache, SegmentCacheStats};
use crate::durable::{self, Recovery};
use crate::plan::{PhysicalPlan, PlanKind, PruneReason, SegmentFate, SegmentStep};
use crate::segment::{
    bloom_contains, peer_bloom_hash, prefix_bloom_hash, ColumnSet, PageBuf, PageMeta, SegmentData,
    SegmentFile, BLOOM_WORDS,
};
use crate::{StoreError, StoredEvent, LOGICAL_SHARDS, TAIL_SHARD};
use iri_bgp::types::{Asn, Prefix};
use iri_core::fxhash::FxHashMap;
use iri_core::taxonomy::UpdateClass;
use iri_faults::{real_fs, SharedFs};
use iri_obs::cause::Cause;
use iri_obs::registry::{CounterId, HistogramId, Registry};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Manifest version this crate writes.
pub const MANIFEST_VERSION: u32 = 1;

/// One segment's manifest entry: location plus the zone maps replicated
/// from the segment footer so pruning needs no file I/O. The whole entry
/// — not the file name, which compaction reuses — is the segment's
/// identity: it keys the segment cache, and a loaded file is held
/// against every field of it.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SegmentMeta {
    /// File name relative to the store directory.
    pub file: String,
    /// Logical shard.
    pub shard: u32,
    /// Position in the shard's segment chain.
    pub seq: u32,
    /// Row count.
    pub rows: u64,
    /// Encoded file size in bytes.
    pub bytes: u64,
    /// Smallest event time in the segment (ms).
    pub min_time_ms: u64,
    /// Largest event time in the segment (ms).
    pub max_time_ms: u64,
    /// Rows per taxonomy class, indexed by [`UpdateClass::index`].
    pub class_counts: [u64; UpdateClass::COUNT],
    /// Rows per cause, indexed by [`Cause::index`].
    pub cause_counts: [u64; Cause::COUNT],
    /// Rows with the policy-change flag set.
    pub policy_changes: u64,
    /// 256-bit membership bitmap over peer AS numbers.
    pub peer_bloom: [u64; BLOOM_WORDS],
    /// 256-bit membership bitmap over prefixes.
    pub prefix_bloom: [u64; BLOOM_WORDS],
    /// Zone-map pages in the segment's directory.
    #[serde(default)]
    pub pages: u64,
    /// Sum of the size column over the segment: what lets zone maps
    /// alone answer [`Store::sum_bytes`].
    #[serde(default)]
    pub size_sum: u64,
}

/// The store's root metadata, `MANIFEST.json`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Manifest {
    /// Manifest format version.
    pub version: u32,
    /// Commit generation: bumped by every commit that changes a file.
    /// Recovery serves the highest generation it can prove durable.
    /// Absent in pre-journal stores, which read as generation 0.
    #[serde(default)]
    pub generation: u64,
    /// Logical shard count the store was written with.
    pub logical_shards: u32,
    /// Segment roll size the store was written with.
    pub segment_rows: u32,
    /// MRT records read by the ingest that produced the store (0 if the
    /// store was written from an in-memory event stream).
    pub records_read: u64,
    /// Total rows across all segments.
    pub total_events: u64,
    /// Smallest event time in the store (ms; 0 if empty).
    pub min_time_ms: u64,
    /// Largest event time in the store (ms; 0 if empty).
    pub max_time_ms: u64,
    /// Every segment, sorted by (shard, seq).
    pub segments: Vec<SegmentMeta>,
}

impl Manifest {
    /// The tail segments, in commit order: what live appends added since
    /// the last compaction (see [`crate::TAIL_SHARD`]).
    pub fn tails(&self) -> impl Iterator<Item = &SegmentMeta> {
        self.segments.iter().filter(|m| m.shard == TAIL_SHARD)
    }

    /// Where a [`Store::time_series`] over this manifest starts and how
    /// many bins it allocates: `(start_ms, bins)`. The series starts at
    /// the query's lower bound (or the first event when unbounded) and
    /// ends at its upper bound or just past the last event, whichever
    /// is earlier; a `bin_ms` of 0 counts as 1.
    #[must_use]
    pub fn series_bins(&self, query: &Query, bin_ms: u64) -> (u64, u64) {
        let start = if query.from_ms > 0 {
            query.from_ms
        } else {
            self.min_time_ms
        };
        let end = query
            .to_ms
            .min(self.max_time_ms.saturating_add(1))
            .max(start);
        (start, (end - start).div_ceil(bin_ms.max(1)))
    }
}

/// Parses and validates manifest bytes. Errors carry no path; callers
/// attach one with [`StoreError::with_path`].
pub fn parse_manifest(bytes: &[u8]) -> Result<Manifest, StoreError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|_| StoreError::corrupt(PathBuf::new(), "manifest is not valid UTF-8"))?;
    let manifest: Manifest =
        serde_json::from_str(text).map_err(|e| StoreError::Json(e.to_string()))?;
    if manifest.version != MANIFEST_VERSION {
        return Err(StoreError::corrupt(
            PathBuf::new(),
            format!("unsupported manifest version {}", manifest.version),
        ));
    }
    if manifest.logical_shards != LOGICAL_SHARDS as u32 {
        return Err(StoreError::corrupt(
            PathBuf::new(),
            format!(
                "manifest written with {} logical shards, this build uses {}",
                manifest.logical_shards, LOGICAL_SHARDS
            ),
        ));
    }
    Ok(manifest)
}

/// Sorts segment entries canonically and derives store-level totals:
/// the one way a [`Manifest`] is constructed, so equal segment sets
/// always serialize to identical bytes. Pure — writes nothing.
#[must_use]
pub fn build_manifest(
    mut segments: Vec<SegmentMeta>,
    segment_rows: u32,
    records_read: u64,
    generation: u64,
) -> Manifest {
    segments.sort_by_key(|m| (m.shard, m.seq));
    let total_events: u64 = segments.iter().map(|m| m.rows).sum();
    let min_time_ms = segments
        .iter()
        .filter(|m| m.rows > 0)
        .map(|m| m.min_time_ms)
        .min()
        .unwrap_or(0);
    let max_time_ms = segments.iter().map(|m| m.max_time_ms).max().unwrap_or(0);
    Manifest {
        version: MANIFEST_VERSION,
        generation,
        logical_shards: LOGICAL_SHARDS as u32,
        segment_rows,
        records_read,
        total_events,
        min_time_ms,
        max_time_ms,
        segments,
    }
}

/// A conjunctive filter over the stored columns. The default matches
/// everything; builder methods narrow it. Time ranges are half-open
/// `[from_ms, to_ms)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(default)]
pub struct Query {
    /// Inclusive lower time bound (ms).
    pub from_ms: u64,
    /// Exclusive upper time bound (ms).
    pub to_ms: u64,
    /// Keep only rows from this peer AS.
    pub peer_asn: Option<Asn>,
    /// Keep only rows for this exact prefix.
    pub prefix: Option<Prefix>,
    /// Keep only rows of this taxonomy class.
    pub class: Option<UpdateClass>,
    /// Keep only rows with this causal provenance.
    pub cause: Option<Cause>,
}

impl Default for Query {
    fn default() -> Self {
        Query {
            from_ms: 0,
            to_ms: u64::MAX,
            peer_asn: None,
            prefix: None,
            class: None,
            cause: None,
        }
    }
}

impl Query {
    /// Restricts to `[from_ms, to_ms)`.
    #[must_use]
    pub fn time_range_ms(mut self, from_ms: u64, to_ms: u64) -> Self {
        self.from_ms = from_ms;
        self.to_ms = to_ms;
        self
    }

    /// Restricts to one simulated day: `[day·DAY_MS, (day+1)·DAY_MS)`.
    #[must_use]
    pub fn day_window(self, day: u64) -> Self {
        self.time_range_ms(day * crate::DAY_MS, (day + 1) * crate::DAY_MS)
    }

    /// Restricts to one peer AS.
    #[must_use]
    pub fn peer(mut self, asn: Asn) -> Self {
        self.peer_asn = Some(asn);
        self
    }

    /// Restricts to one prefix (exact match, not containment).
    #[must_use]
    pub fn prefix(mut self, prefix: Prefix) -> Self {
        self.prefix = Some(prefix);
        self
    }

    /// Restricts to one taxonomy class.
    #[must_use]
    pub fn class(mut self, class: UpdateClass) -> Self {
        self.class = Some(class);
        self
    }

    /// Restricts to one cause.
    #[must_use]
    pub fn cause(mut self, cause: Cause) -> Self {
        self.cause = Some(cause);
        self
    }

    /// Restricts to the taxonomy class with this label
    /// (case-insensitive); the error lists the valid labels.
    pub fn class_labelled(self, label: &str) -> Result<Self, String> {
        Ok(self.class(parse_class_label(label)?))
    }

    /// Restricts to the cause with this label (case-insensitive); the
    /// error lists the valid labels.
    pub fn cause_labelled(self, label: &str) -> Result<Self, String> {
        Ok(self.cause(parse_cause_label(label)?))
    }

    /// Restricts to one peer AS parsed from `"AS701"` or `"701"`.
    pub fn peer_str(self, s: &str) -> Result<Self, String> {
        let n = s
            .trim_start_matches("AS")
            .parse()
            .map_err(|_| format!("peer wants an AS number, got {s:?}"))?;
        Ok(self.peer(Asn(n)))
    }

    /// Restricts to one prefix parsed from `"a.b.c.d/len"`.
    pub fn prefix_str(self, s: &str) -> Result<Self, String> {
        let p = s
            .parse()
            .map_err(|_| format!("prefix wants a.b.c.d/len, got {s:?}"))?;
        Ok(self.prefix(p))
    }

    /// Whether the query has row-level predicates beyond the time range.
    #[must_use]
    pub(crate) fn has_row_predicates(&self) -> bool {
        self.peer_asn.is_some()
            || self.prefix.is_some()
            || self.class.is_some()
            || self.cause.is_some()
    }

    /// Why the zone maps prove no row of `seg` can match, if they do.
    pub(crate) fn prune_reason(&self, seg: &SegmentMeta) -> Option<PruneReason> {
        if seg.rows == 0 {
            return Some(PruneReason::Empty);
        }
        if seg.max_time_ms < self.from_ms || seg.min_time_ms >= self.to_ms {
            return Some(PruneReason::TimeDisjoint);
        }
        if let Some(c) = self.class {
            if seg.class_counts[c.index()] == 0 {
                return Some(PruneReason::ClassAbsent);
            }
        }
        if let Some(c) = self.cause {
            if seg.cause_counts[c.index()] == 0 {
                return Some(PruneReason::CauseAbsent);
            }
        }
        if let Some(asn) = self.peer_asn {
            if !bloom_contains(&seg.peer_bloom, peer_bloom_hash(asn)) {
                return Some(PruneReason::PeerBloomMiss);
            }
        }
        if let Some(p) = self.prefix {
            if !bloom_contains(&seg.prefix_bloom, prefix_bloom_hash(p)) {
                return Some(PruneReason::PrefixBloomMiss);
            }
        }
        None
    }

    /// Whether the zone maps prove no row of `seg` can match.
    #[cfg(test)]
    fn prunes(&self, seg: &SegmentMeta) -> bool {
        self.prune_reason(seg).is_some()
    }

    /// Whether the page zone maps prove no row of `page` can match.
    fn prunes_page(&self, page: &PageMeta) -> bool {
        if page.max_time < self.from_ms || page.min_time >= self.to_ms {
            return true;
        }
        if let Some(c) = self.class {
            if page.class_counts[c.index()] == 0 {
                return true;
            }
        }
        if let Some(c) = self.cause {
            if page.cause_counts[c.index()] == 0 {
                return true;
            }
        }
        if let Some(asn) = self.peer_asn {
            if !bloom_contains(&page.peer_bloom, peer_bloom_hash(asn)) {
                return true;
            }
        }
        if let Some(p) = self.prefix {
            if !bloom_contains(&page.prefix_bloom, prefix_bloom_hash(p)) {
                return true;
            }
        }
        false
    }

    /// Whether `seg` lies entirely inside the time window.
    pub(crate) fn covers_time(&self, seg: &SegmentMeta) -> bool {
        self.from_ms <= seg.min_time_ms && seg.max_time_ms < self.to_ms
    }

    /// Whether `page` lies entirely inside the time window.
    fn covers_page_time(&self, page: &PageMeta) -> bool {
        self.from_ms <= page.min_time && page.max_time < self.to_ms
    }
}

/// Parses a taxonomy class by its label, case-insensitively. The one
/// label grammar every consumer (CLI flags, wire filters) shares.
pub fn parse_class_label(name: &str) -> Result<UpdateClass, String> {
    UpdateClass::ALL
        .into_iter()
        .find(|c| c.label().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            let all: Vec<&str> = UpdateClass::ALL.iter().map(|c| c.label()).collect();
            format!("unknown class {name:?}; one of: {}", all.join(", "))
        })
}

/// Parses a cause by its label, case-insensitively.
pub fn parse_cause_label(name: &str) -> Result<Cause, String> {
    Cause::ALL
        .into_iter()
        .find(|c| c.label().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            let all: Vec<&str> = Cause::ALL.iter().map(|c| c.label()).collect();
            format!("unknown cause {name:?}; one of: {}", all.join(", "))
        })
}

/// Work accounting for one query: how much of the archive the zone maps
/// saved it from reading.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScanStats {
    /// Segments in the manifest.
    pub segments_total: u64,
    /// Segments eliminated by zone maps without file I/O.
    pub segments_pruned: u64,
    /// Segments answered from footer counts alone (grouped counts only).
    pub segments_zone_answered: u64,
    /// Segments decoded and row-filtered.
    pub segments_scanned: u64,
    /// Segments quarantined: moved aside at open plus any that failed
    /// decode during this query (skipped, non-strict mode only).
    pub segments_quarantined: u64,
    /// Total encoded bytes in the manifest.
    pub bytes_total: u64,
    /// Encoded bytes of the segments scanned (see `bytes_read` for what
    /// this query actually pulled through the filesystem).
    pub bytes_scanned: u64,
    /// Rows decoded and tested.
    pub rows_scanned: u64,
    /// Rows that matched the query.
    pub rows_matched: u64,
    /// Wall microseconds inside the scan loop (prune + zone + decode +
    /// filter). The one wall-clock field: it is the measured quantity, so
    /// two otherwise-identical replies may differ here. Absent in replies
    /// from older servers (reads as 0).
    #[serde(default)]
    pub scan_us: u64,
    /// Zone-map pages across every segment touched by the query.
    #[serde(default)]
    pub pages_total: u64,
    /// Pages eliminated by page zone maps without decoding.
    #[serde(default)]
    pub pages_pruned: u64,
    /// Pages answered from page zone maps alone (counts/sums).
    #[serde(default)]
    pub pages_zone_answered: u64,
    /// Pages actually decoded and row-filtered.
    #[serde(default)]
    pub pages_scanned: u64,
    /// Scanned segments served from the segment cache: already read,
    /// checksummed and parsed by an earlier query.
    #[serde(default)]
    pub segments_cached: u64,
    /// Bytes that came through the filesystem for this query — 0 when
    /// every scanned segment was resident. (`bytes_scanned` counts the
    /// encoded size of every scanned segment, resident or not.)
    #[serde(default)]
    pub bytes_read: u64,
}

impl ScanStats {
    /// Fraction of the archive's pages the query never decoded (pruned
    /// or answered from zone maps), in `[0, 1]`.
    #[must_use]
    pub fn prune_ratio(&self) -> f64 {
        if self.pages_total == 0 {
            return 0.0;
        }
        (self.pages_pruned + self.pages_zone_answered) as f64 / self.pages_total as f64
    }

    /// Folds one segment's scan delta into the query totals. The
    /// `*_total` and quarantine fields are owned by the executor, not
    /// the per-segment scan, and are left alone.
    fn absorb(&mut self, delta: &ScanStats) {
        self.segments_scanned += delta.segments_scanned;
        self.bytes_scanned += delta.bytes_scanned;
        self.rows_scanned += delta.rows_scanned;
        self.rows_matched += delta.rows_matched;
        self.pages_pruned += delta.pages_pruned;
        self.pages_zone_answered += delta.pages_zone_answered;
        self.pages_scanned += delta.pages_scanned;
        self.segments_cached += delta.segments_cached;
        self.bytes_read += delta.bytes_read;
    }
}

/// Whether a segment-load failure is survivable by skipping the
/// segment (vs. an environmental error worth surfacing even tolerant).
fn quarantineable(e: &StoreError) -> bool {
    match e {
        StoreError::Corrupt { .. } => true,
        StoreError::Io { source, .. } => source.kind() == io::ErrorKind::NotFound,
        _ => false,
    }
}

/// Rows a query answered from zone maps alone — segment footers and
/// page directories — without decoding. The aggregation entry points
/// fold these into their scanned tallies.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct ZoneCounts {
    /// Matching rows covered by zone answers.
    pub rows: u64,
    /// Per-class rows, indexed by [`UpdateClass::index`].
    pub class_counts: [u64; UpdateClass::COUNT],
    /// Per-cause rows, indexed by [`Cause::index`].
    pub cause_counts: [u64; Cause::COUNT],
    /// Size-column sum.
    pub size_sum: u64,
}

impl ZoneCounts {
    fn add_segment(&mut self, meta: &SegmentMeta) {
        self.rows += meta.rows;
        for (acc, n) in self.class_counts.iter_mut().zip(meta.class_counts) {
            *acc += n;
        }
        for (acc, n) in self.cause_counts.iter_mut().zip(meta.cause_counts) {
            *acc += n;
        }
        self.size_sum += meta.size_sum;
    }

    fn add_page(&mut self, page: &PageMeta) {
        self.rows += u64::from(page.rows);
        for (acc, n) in self.class_counts.iter_mut().zip(page.class_counts) {
            *acc += n;
        }
        for (acc, n) in self.cause_counts.iter_mut().zip(page.cause_counts) {
            *acc += n;
        }
        self.size_sum += page.size_sum;
    }

    fn merge(&mut self, other: &ZoneCounts) {
        self.rows += other.rows;
        for (acc, n) in self.class_counts.iter_mut().zip(other.class_counts) {
            *acc += n;
        }
        for (acc, n) in self.cause_counts.iter_mut().zip(other.cause_counts) {
            *acc += n;
        }
        self.size_sum += other.size_sum;
    }
}

/// Whether zone maps fully inside the time window may answer for their
/// rows without decoding, given whether the plan's kind lets them.
fn zone_answerable(query: &Query, zones: bool, covers_time: bool) -> bool {
    zones && covers_time && !query.has_row_predicates()
}

// ---------------------------------------------------------------------
// Segment loading and scanning: free functions over a `Source` rather
// than `Store` methods so the parallel executor can run them from
// worker threads without borrowing the whole store handle.
// ---------------------------------------------------------------------

/// Where a scan step finds its segments: the directory, the filesystem,
/// the pin (if any) and the handle's segment cache.
#[derive(Clone, Copy)]
struct Source<'a> {
    fs: &'a SharedFs,
    dir: &'a Path,
    /// `Some(g)` on pinned snapshots: a segment that no longer matches
    /// its manifest entry at the main path (its name was reused by a
    /// newer commit) is looked up under `retired/`.
    snapshot_gen: Option<u64>,
    cache: &'a SegmentCache,
}

impl Source<'_> {
    /// Reads one candidate file for `meta`, counting its bytes into
    /// `read`: checksum, lazy parse (page directory, no row decode) and
    /// the cross-check against the manifest entry.
    fn read(
        &self,
        path: &Path,
        meta: &SegmentMeta,
        read: &mut u64,
    ) -> Result<SegmentFile, StoreError> {
        let bytes = self.fs.read(path).map_err(|e| StoreError::io(path, e))?;
        *read += bytes.len() as u64;
        let seg = SegmentFile::parse(bytes).map_err(|e| e.with_path(path))?;
        seg.check_meta(meta).map_err(|e| e.with_path(path))?;
        Ok(seg)
    }

    /// Loads a segment from the filesystem, past the cache: the main
    /// path first, then — on a pinned snapshot — the retired tree.
    fn load_uncached(&self, meta: &SegmentMeta, read: &mut u64) -> Result<SegmentFile, StoreError> {
        self.read(&self.dir.join(&meta.file), meta, read)
            .or_else(|e| match self.snapshot_gen {
                Some(g) => self.load_retired(meta, g, read)?.ok_or(e),
                None => Err(e),
            })
    }

    /// Lookup-or-load: the resident segment for exactly this manifest
    /// entry, or a validated load that becomes resident. Failed loads
    /// are never cached, so the next query retries them.
    fn load(
        &self,
        meta: &SegmentMeta,
        stats: &mut ScanStats,
    ) -> Result<Arc<SegmentFile>, StoreError> {
        if let Some(seg) = self.cache.get(meta) {
            stats.segments_cached += 1;
            return Ok(seg);
        }
        let seg = Arc::new(self.load_uncached(meta, &mut stats.bytes_read)?);
        self.cache.insert(meta, &seg);
        Ok(seg)
    }

    /// Looks for the pinned version of a replaced segment under
    /// `retired/gNNNNNNNNNN/`. The version a reader pinned at generation
    /// `g` needs is the one moved aside by the *earliest* commit after
    /// `g` that touched the file, so candidate directories are walked in
    /// ascending generation order. Every candidate is validated against
    /// the pinned manifest entry before being served. A directory is
    /// passed over only for not holding this version (no such file, or
    /// one that fails validation); a copy that cannot be read is an
    /// error, or the caller would take the segment for gone and the
    /// tolerant executor would answer without its rows.
    fn load_retired(
        &self,
        meta: &SegmentMeta,
        pinned: u64,
        read: &mut u64,
    ) -> Result<Option<SegmentFile>, StoreError> {
        for (g, gen_dir) in durable::retired_generations(&**self.fs, self.dir) {
            if g <= pinned {
                continue;
            }
            match self.read(&gen_dir.join(&meta.file), meta, read) {
                Ok(seg) => return Ok(Some(seg)),
                Err(e) if quarantineable(&e) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }
}

/// Per-segment scan outcome: the stats delta plus any zone-answered
/// tallies, merged into the query totals by the executor.
#[derive(Debug, Default)]
struct ScanDelta {
    stats: ScanStats,
    zone: ZoneCounts,
}

/// What a scan does with the rows that survive: the all-columns row
/// visitor of [`Store::execute`]/[`Store::scan`], or an aggregate
/// [`Part`] folding straight over the decoded columns.
trait Sink {
    /// Takes one materialised row — all the forced-full-scan path and
    /// the row visitor ever see.
    fn row(&mut self, ev: &StoredEvent);

    /// Takes the rows `buf.sel` selects of a decoded page of `seg`.
    fn fold(&mut self, seg: &SegmentFile, buf: &PageBuf) {
        for &j in &buf.sel {
            self.row(&seg.event(buf, j as usize));
        }
    }

    /// The columns [`Sink::fold`] reads, given the plan's answer shape.
    fn columns(&self, kind: PlanKind) -> ColumnSet {
        kind.fold_columns()
    }

    /// An empty partial of this sink's shape for one parallel scan step.
    fn part(&self) -> Part;

    /// Folds a finished step's partial in; the executor calls this in
    /// plan order.
    fn merge(&mut self, part: Part);
}

/// The row visitor as a [`Sink`]: every column, one event at a time.
struct Visit<'a>(&'a mut dyn FnMut(&StoredEvent));

impl Sink for Visit<'_> {
    fn row(&mut self, ev: &StoredEvent) {
        (self.0)(ev);
    }

    fn columns(&self, _kind: PlanKind) -> ColumnSet {
        ColumnSet::ALL
    }

    fn part(&self) -> Part {
        Part::Rows(Vec::new())
    }

    fn merge(&mut self, part: Part) {
        let Part::Rows(rows) = part else {
            unreachable!("{part:?} is no partial of a row visitor")
        };
        rows.iter().for_each(|ev| (self.0)(ev));
    }
}

/// An aggregate in progress, over a whole query or one parallel step.
#[derive(Debug)]
enum Part {
    /// A parallel step's buffered rows on their way to a [`Visit`].
    Rows(Vec<StoredEvent>),
    /// Rows per packed `(cause<<3)|class` byte: both grouped counts.
    Cc(Box<[u64; 128]>),
    /// Rows per peer AS.
    Peers(FxHashMap<Asn, u64>),
    /// Rows per prefix.
    Prefixes(FxHashMap<Prefix, u64>),
    /// NLRI wire bytes.
    Bytes(u64),
    /// Rows per `bin_ms` bin from `start`; rows outside `bins` drop.
    Series {
        start: u64,
        bin_ms: u64,
        bins: Vec<u64>,
    },
    /// A parallel step's matching times on their way to a `Series`
    /// (a dense partial per step would cost a full series each).
    Times(Vec<u64>),
}

impl Part {
    fn cc() -> Part {
        Part::Cc(Box::new([0; 128]))
    }

    fn time(&mut self, t: u64) {
        match self {
            Part::Series {
                start,
                bin_ms,
                bins,
            } => {
                let slot = t
                    .checked_sub(*start)
                    .and_then(|d| bins.get_mut(usize::try_from(d / *bin_ms).ok()?));
                if let Some(slot) = slot {
                    *slot += 1;
                }
            }
            Part::Times(times) => times.push(t),
            _ => {}
        }
    }
}

impl Sink for Part {
    fn row(&mut self, ev: &StoredEvent) {
        match self {
            Part::Rows(rows) => rows.push(*ev),
            Part::Cc(hist) => hist[(ev.cause.index() << 3) | ev.class.index()] += 1,
            Part::Peers(counts) => *counts.entry(ev.peer.asn).or_insert(0) += 1,
            Part::Prefixes(counts) => *counts.entry(ev.prefix).or_insert(0) += 1,
            Part::Bytes(total) => *total += u64::from(ev.size),
            Part::Series { .. } | Part::Times(_) => self.time(ev.time_ms),
        }
    }

    fn fold(&mut self, seg: &SegmentFile, buf: &PageBuf) {
        let sel = buf.sel.iter().map(|&j| j as usize);
        match self {
            Part::Rows(rows) => rows.extend(sel.map(|j| seg.event(buf, j))),
            Part::Cc(hist) => sel.for_each(|j| hist[usize::from(buf.cc[j])] += 1),
            Part::Peers(counts) => {
                sel.for_each(|j| *counts.entry(seg.peer(buf.peer_ids[j]).asn).or_insert(0) += 1);
            }
            Part::Prefixes(counts) => {
                sel.for_each(|j| *counts.entry(seg.prefix(buf.prefix_ids[j])).or_insert(0) += 1);
            }
            Part::Bytes(total) => *total += sel.map(|j| u64::from(buf.sizes[j])).sum::<u64>(),
            Part::Series { .. } | Part::Times(_) => sel.for_each(|j| self.time(buf.times[j])),
        }
    }

    fn part(&self) -> Part {
        match self {
            Part::Rows(_) => Part::Rows(Vec::new()),
            Part::Cc(_) => Part::cc(),
            Part::Peers(_) => Part::Peers(FxHashMap::default()),
            Part::Prefixes(_) => Part::Prefixes(FxHashMap::default()),
            Part::Bytes(_) => Part::Bytes(0),
            Part::Series { .. } | Part::Times(_) => Part::Times(Vec::new()),
        }
    }

    fn merge(&mut self, part: Part) {
        match (self, part) {
            (Part::Cc(all), Part::Cc(hist)) => {
                all.iter_mut().zip(hist.iter()).for_each(|(a, n)| *a += n);
            }
            (Part::Peers(all), Part::Peers(counts)) => {
                counts
                    .into_iter()
                    .for_each(|(k, n)| *all.entry(k).or_insert(0) += n);
            }
            (Part::Prefixes(all), Part::Prefixes(counts)) => {
                counts
                    .into_iter()
                    .for_each(|(k, n)| *all.entry(k).or_insert(0) += n);
            }
            (Part::Bytes(all), Part::Bytes(total)) => *all += total,
            (all, Part::Times(times)) => times.into_iter().for_each(|t| all.time(t)),
            (all, part) => unreachable!("{part:?} is no partial of {all:?}"),
        }
    }
}

/// Dictionary-code predicates compiled once per segment: row tests
/// compare packed bytes/ids and never materialize non-matching rows.
struct CodePredicates {
    /// The queried peer AS (several dictionary ids can share an AS
    /// across peer addresses, so ids are tested through the dictionary).
    peer_asn: Option<Asn>,
    /// Prefix dictionary id of the queried prefix.
    prefix_id: Option<u32>,
    /// Packed class/cause byte test: `(cc & mask) == want`.
    cc_mask: u8,
    cc_want: u8,
}

impl CodePredicates {
    /// `None` when a dictionary predicate has no id in this segment —
    /// the segment can't match at all (bloom false positive).
    fn compile(query: &Query, seg: &SegmentFile) -> Option<CodePredicates> {
        if let Some(asn) = query.peer_asn {
            if !(0..seg.peer_count()).any(|id| seg.peer(id).asn == asn) {
                return None;
            }
        }
        let prefix_id = match query.prefix {
            Some(p) => Some((0..seg.prefix_count()).find(|&id| seg.prefix(id) == p)?),
            None => None,
        };
        let (cc_mask, cc_want) = match (query.class, query.cause) {
            (None, None) => (0, 0),
            (Some(cl), None) => (0x07, cl.index() as u8),
            (None, Some(ca)) => (0x78, (ca.index() as u8) << 3),
            (Some(cl), Some(ca)) => (0x7f, ((ca.index() as u8) << 3) | cl.index() as u8),
        };
        Some(CodePredicates {
            peer_asn: query.peer_asn,
            prefix_id,
            cc_mask,
            cc_want,
        })
    }

    /// Decodes `page` into `buf` one predicate at a time, cheapest
    /// first, narrowing `buf.sel` as it goes: the packed class/cause
    /// byte before any varint, the time column only when the page
    /// straddles the window, then the dictionary codes. A page whose
    /// selection empties decodes nothing further; survivors get the
    /// `fold` columns the sink reads.
    fn select(
        &self,
        seg: &SegmentFile,
        page: &PageMeta,
        query: &Query,
        fold: ColumnSet,
        buf: &mut PageBuf,
    ) -> Result<(), StoreError> {
        if self.cc_mask == 0 {
            seg.decode_page(page, ColumnSet::NONE, buf)?;
        } else {
            seg.decode_page(page, ColumnSet::CC, buf)?;
            buf.sel
                .retain(|&j| buf.cc[j as usize] & self.cc_mask == self.cc_want);
        }
        if !buf.sel.is_empty() && !query.covers_page_time(page) {
            seg.decode_columns(page, ColumnSet::TIME, buf)?;
            buf.sel
                .retain(|&j| (query.from_ms..query.to_ms).contains(&buf.times[j as usize]));
        }
        if let (false, Some(asn)) = (buf.sel.is_empty(), self.peer_asn) {
            seg.decode_columns(page, ColumnSet::PEER, buf)?;
            buf.sel
                .retain(|&j| seg.peer(buf.peer_ids[j as usize]).asn == asn);
        }
        if let (false, Some(id)) = (buf.sel.is_empty(), self.prefix_id) {
            seg.decode_columns(page, ColumnSet::PREFIX, buf)?;
            buf.sel.retain(|&j| buf.prefix_ids[j as usize] == id);
        }
        if !buf.sel.is_empty() {
            seg.decode_columns(page, fold, buf)?;
        }
        Ok(())
    }
}

/// Scans one segment page-wise with code pushdown: pages are pruned or
/// zone-answered from the directory, survivors are decoded column by
/// column into `buf` and row-filtered on packed codes, and only the
/// selected rows reach the sink — in row order.
///
/// One sharp edge: folding is incremental, so a decode failure on a
/// later page (impossible short of a checksum collision, since the
/// whole image was checksummed at load) aborts a segment that already
/// folded rows; the tolerant executor then skips the remainder.
fn scan_segment(
    src: Source<'_>,
    meta: &SegmentMeta,
    query: &Query,
    zones: bool,
    fold: ColumnSet,
    buf: &mut PageBuf,
    sink: &mut dyn Sink,
) -> Result<ScanDelta, StoreError> {
    let mut d = ScanDelta::default();
    let seg = src.load(meta, &mut d.stats)?;
    d.stats.segments_scanned = 1;
    d.stats.bytes_scanned = meta.bytes;
    let n_pages = seg.pages().len() as u64;

    let Some(preds) = CodePredicates::compile(query, &seg) else {
        // A dictionary predicate has no code in this segment: nothing
        // can match and no page needs decoding.
        d.stats.pages_pruned = n_pages;
        return Ok(d);
    };

    for page in seg.pages() {
        if query.prunes_page(page) {
            d.stats.pages_pruned += 1;
            continue;
        }
        if zone_answerable(query, zones, query.covers_page_time(page)) {
            d.stats.pages_zone_answered += 1;
            d.stats.rows_matched += u64::from(page.rows);
            d.zone.add_page(page);
            continue;
        }
        preds
            .select(&seg, page, query, fold, buf)
            .map_err(|e| e.with_path(&src.dir.join(&meta.file)))?;
        d.stats.pages_scanned += 1;
        d.stats.rows_scanned += u64::from(page.rows);
        d.stats.rows_matched += buf.sel.len() as u64;
        if !buf.sel.is_empty() {
            sink.fold(&seg, buf);
        }
    }
    Ok(d)
}

/// The forced-full-scan path: every query reads the file through
/// `StoreFs` (never the segment cache), decodes the whole segment
/// eagerly and filters on materialized fields, bypassing pages, code
/// pushdown and column folds. The differential-testing baseline paged
/// scans must match byte-for-byte.
fn scan_segment_eager(
    src: Source<'_>,
    meta: &SegmentMeta,
    query: &Query,
    sink: &mut dyn Sink,
) -> Result<ScanDelta, StoreError> {
    let mut d = ScanDelta::default();
    let file = src.load_uncached(meta, &mut d.stats.bytes_read)?;
    let seg =
        SegmentData::decode(file.image()).map_err(|e| e.with_path(&src.dir.join(&meta.file)))?;
    d.stats.segments_scanned = 1;
    d.stats.bytes_scanned = meta.bytes;
    d.stats.rows_scanned = seg.len() as u64;

    let peer_ids = match query.peer_asn {
        Some(asn) => {
            let ids: Vec<u32> = seg
                .peer_dict
                .iter()
                .enumerate()
                .filter(|(_, p)| p.asn == asn)
                .map(|(i, _)| i as u32)
                .collect();
            if ids.is_empty() {
                return Ok(d);
            }
            Some(ids)
        }
        None => None,
    };
    let prefix_id = match query.prefix {
        Some(p) => match seg.prefix_dict.iter().position(|&d| d == p) {
            Some(i) => Some(i as u32),
            None => return Ok(d),
        },
        None => None,
    };

    for i in 0..seg.len() {
        let t = seg.times[i];
        if t < query.from_ms || t >= query.to_ms {
            continue;
        }
        if let Some(ids) = &peer_ids {
            if !ids.contains(&seg.peer_ids[i]) {
                continue;
            }
        }
        if let Some(id) = prefix_id {
            if seg.prefix_ids[i] != id {
                continue;
            }
        }
        if let Some(c) = query.class {
            if seg.classes[i] != c {
                continue;
            }
        }
        if let Some(c) = query.cause {
            if seg.causes[i] != c {
                continue;
            }
        }
        d.stats.rows_matched += 1;
        sink.row(&seg.event(i));
    }
    Ok(d)
}

/// One plan execution's fixed context, shared by the serial loop and
/// the parallel workers.
#[derive(Clone, Copy)]
struct Run<'a> {
    src: Source<'a>,
    query: &'a Query,
    zones: bool,
    /// The columns the sink folds over.
    fold: ColumnSet,
    full_scan: bool,
    strict: bool,
}

impl Run<'_> {
    fn scan(
        &self,
        meta: &SegmentMeta,
        buf: &mut PageBuf,
        sink: &mut dyn Sink,
    ) -> Result<ScanDelta, StoreError> {
        if self.full_scan {
            scan_segment_eager(self.src, meta, self.query, sink)
        } else {
            scan_segment(self.src, meta, self.query, self.zones, self.fold, buf, sink)
        }
    }

    /// Folds one scan step's outcome into the query totals. A segment
    /// that validated at open can still fail here — damaged after open,
    /// or a fault-injected read. Degrade gracefully unless strict: skip
    /// it, report it, and let the next open() move it to quarantine/.
    fn settle<T>(
        &self,
        scanned: Result<(ScanDelta, T), StoreError>,
        stats: &mut ScanStats,
        zone: &mut ZoneCounts,
    ) -> Result<Option<T>, StoreError> {
        match scanned {
            Ok((delta, rest)) => {
                stats.absorb(&delta.stats);
                zone.merge(&delta.zone);
                Ok(Some(rest))
            }
            Err(e) if !self.strict && quarantineable(&e) => {
                stats.segments_quarantined += 1;
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Runs one step on the caller's thread, folding rows directly.
    fn step_serial(
        &self,
        step: &SegmentStep,
        meta: &SegmentMeta,
        buf: &mut PageBuf,
        stats: &mut ScanStats,
        zone: &mut ZoneCounts,
        sink: &mut dyn Sink,
    ) -> Result<(), StoreError> {
        stats.segments_total += 1;
        stats.bytes_total += meta.bytes;
        stats.pages_total += meta.pages;
        match step.fate {
            SegmentFate::Pruned(_) => {
                stats.segments_pruned += 1;
                stats.pages_pruned += meta.pages;
            }
            SegmentFate::ZoneAnswered => {
                stats.segments_zone_answered += 1;
                stats.pages_zone_answered += meta.pages;
                stats.rows_matched += meta.rows;
                zone.add_segment(meta);
            }
            SegmentFate::Scan => {
                let scanned = self.scan(meta, buf, sink).map(|delta| (delta, ()));
                self.settle(scanned, stats, zone)?;
            }
        }
        Ok(())
    }

    /// The parallel path: pruned and zone-answered steps are settled
    /// inline (no I/O), scan steps fan out through the pipeline's
    /// `par_map` in bounded waves, each into its own [`Part`], and each
    /// wave's parts are merged in step order — so a row visitor sees
    /// exactly the serial order and results stay byte-identical at any
    /// job count. Only scan steps fold rows, and steps enter waves in
    /// plan order, so merging completed waves in order preserves the
    /// global (shard, seq, row) contract.
    fn parallel<'s>(
        &self,
        steps: impl Iterator<Item = (&'s SegmentStep, &'s SegmentMeta)>,
        jobs: usize,
        stats: &mut ScanStats,
        zone: &mut ZoneCounts,
        sink: &mut dyn Sink,
    ) -> Result<(), StoreError> {
        let wave = jobs.saturating_mul(3).max(1);
        let mut pending: Vec<(&SegmentMeta, Part)> = Vec::new();
        let mut buf = PageBuf::new();
        for (step, meta) in steps {
            if step.fate == SegmentFate::Scan {
                // Totals are accounted at queue time; the scan's own
                // delta merges back when its wave is flushed.
                stats.segments_total += 1;
                stats.bytes_total += meta.bytes;
                stats.pages_total += meta.pages;
                pending.push((meta, sink.part()));
                if pending.len() == wave {
                    self.wave(&mut pending, jobs, stats, zone, sink)?;
                }
                continue;
            }
            self.step_serial(step, meta, &mut buf, stats, zone, sink)?;
        }
        self.wave(&mut pending, jobs, stats, zone, sink)
    }

    /// Scans a wave of segments concurrently and merges their outcomes
    /// in step order (`par_map` returns results in input order).
    fn wave(
        &self,
        pending: &mut Vec<(&SegmentMeta, Part)>,
        jobs: usize,
        stats: &mut ScanStats,
        zone: &mut ZoneCounts,
        sink: &mut dyn Sink,
    ) -> Result<(), StoreError> {
        if pending.is_empty() {
            return Ok(());
        }
        let work = std::mem::take(pending);
        let (results, _metrics) = iri_pipeline::par_map(work, jobs, |(meta, mut part)| {
            self.scan(meta, &mut PageBuf::new(), &mut part)
                .map(|delta| (delta, part))
        })
        .map_err(|e| StoreError::corrupt(self.src.dir, format!("parallel scan failed: {e}")))?;
        for scanned in results {
            if let Some(part) = self.settle(scanned, stats, zone)? {
                sink.merge(part);
            }
        }
        Ok(())
    }
}

struct StoreMetrics {
    queries: CounterId,
    segments_pruned: CounterId,
    segments_zone_answered: CounterId,
    segments_scanned: CounterId,
    segments_quarantined: CounterId,
    rows_scanned: CounterId,
    bytes_scanned: CounterId,
    scan_us: HistogramId,
}

impl StoreMetrics {
    fn register(registry: &mut Registry) -> Self {
        StoreMetrics {
            queries: registry.counter("store.query.count"),
            segments_pruned: registry.counter("store.query.segments_pruned"),
            segments_zone_answered: registry.counter("store.query.segments_zone_answered"),
            segments_scanned: registry.counter("store.query.segments_scanned"),
            segments_quarantined: registry.counter("store.query.segments_quarantined"),
            rows_scanned: registry.counter("store.query.rows_scanned"),
            bytes_scanned: registry.counter("store.query.bytes_scanned"),
            scan_us: registry.histogram("store.query.scan_us"),
        }
    }
}

/// How to open a [`Store`]: strictness, parallelism, and the I/O layer.
#[derive(Debug, Clone)]
pub struct OpenOptions {
    /// Fail fast instead of quarantining: any condition recovery would
    /// repair (unretired journal, corrupt or orphaned file) is an error.
    pub strict: bool,
    /// Worker threads for scan steps: 1 (the default) scans serially,
    /// 0 resolves to the machine's available parallelism. Results are
    /// byte-identical at any setting; only wall clock changes.
    pub jobs: usize,
    /// The filesystem the store reads through — swap in
    /// [`iri_faults::FaultyFs`] to inject failures.
    pub fs: SharedFs,
}

impl Default for OpenOptions {
    fn default() -> Self {
        OpenOptions {
            strict: false,
            jobs: 1,
            fs: real_fs(),
        }
    }
}

impl OpenOptions {
    /// Default options: tolerant recovery over the real filesystem.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets strict (fail-fast) mode.
    #[must_use]
    pub fn strict(mut self, strict: bool) -> Self {
        self.strict = strict;
        self
    }

    /// Sets scan worker threads (0 = auto).
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Substitutes the filesystem implementation.
    #[must_use]
    pub fn fs(mut self, fs: SharedFs) -> Self {
        self.fs = fs;
        self
    }
}

/// An open store: the recovered manifest plus the query entry points.
///
/// Queries take `&mut self` only to feed the [`Registry`] telemetry; the
/// on-disk store is immutable while open.
pub struct Store {
    dir: PathBuf,
    fs: SharedFs,
    strict: bool,
    manifest: Manifest,
    recovery: Recovery,
    registry: Registry,
    metrics: StoreMetrics,
    /// `Some(g)` on pinned-snapshot handles: segments that no longer
    /// match this manifest (replaced by a newer commit) are looked up in
    /// `retired/` instead of failing the query.
    snapshot_gen: Option<u64>,
    /// Worker threads compiled into plans (resolved; ≥ 1).
    scan_jobs: usize,
    /// Compile every plan with all segments force-fated `Scan` and run
    /// them through the eager decoder — the differential-test baseline.
    full_scan: bool,
    /// Validated, parsed segments kept resident across queries: this
    /// handle's own, or the [`crate::LiveStore`]'s on a pinned snapshot.
    cache: Arc<SegmentCache>,
}

impl Store {
    /// Opens a store directory, running crash recovery if needed:
    /// journal replay, per-segment checksum validation, and quarantine
    /// of anything unservable.
    pub fn open(dir: &Path) -> Result<Self, StoreError> {
        Self::open_with(dir, &OpenOptions::default())
    }

    /// [`Store::open`] in strict mode: any recovery condition is an
    /// error instead of a repair.
    pub fn open_strict(dir: &Path) -> Result<Self, StoreError> {
        Self::open_with(dir, &OpenOptions::new().strict(true))
    }

    /// Opens with explicit [`OpenOptions`].
    pub fn open_with(dir: &Path, opts: &OpenOptions) -> Result<Self, StoreError> {
        Self::open_with_cache(dir, opts, SegmentCache::new())
    }

    /// [`Store::open_with`] over a given segment cache — how the budget
    /// tests open a store larger than a small cap.
    pub(crate) fn open_with_cache(
        dir: &Path,
        opts: &OpenOptions,
        cache: Arc<SegmentCache>,
    ) -> Result<Self, StoreError> {
        let fs = opts.fs.clone();
        let (manifest, recovery) = durable::recover(&*fs, dir, opts.strict)?;
        let mut registry = Registry::new();
        let metrics = StoreMetrics::register(&mut registry);
        let recovered = registry.counter("store.recovery.quarantined");
        registry.add(recovered, recovery.quarantined.len() as u64);
        Ok(Store {
            dir: dir.to_path_buf(),
            fs,
            strict: opts.strict,
            manifest,
            recovery,
            registry,
            metrics,
            snapshot_gen: None,
            scan_jobs: iri_pipeline::resolve_jobs(opts.jobs),
            full_scan: false,
            cache,
        })
    }

    /// A query handle over a known manifest, with **no** recovery pass
    /// or I/O at construction. Used by [`crate::LiveStore`] to serve a
    /// pinned generation while newer commits land in the directory:
    /// segments the snapshot references that a later commit replaced are
    /// transparently read from `retired/`. `cache` is the live store's,
    /// shared by all its snapshots.
    #[must_use]
    pub(crate) fn pinned_snapshot(
        dir: &Path,
        fs: SharedFs,
        manifest: Manifest,
        cache: Arc<SegmentCache>,
    ) -> Self {
        let mut registry = Registry::new();
        let metrics = StoreMetrics::register(&mut registry);
        let snapshot_gen = Some(manifest.generation);
        Store {
            dir: dir.to_path_buf(),
            fs,
            strict: false,
            manifest,
            recovery: Recovery::default(),
            registry,
            metrics,
            snapshot_gen,
            scan_jobs: 1,
            full_scan: false,
            cache,
        }
    }

    /// The manifest recovery settled on at open.
    #[must_use]
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The commit generation this handle serves, bumped by every commit
    /// that changes a file. The serving layer's snapshot-isolation and
    /// cache keys hang off this number.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.manifest.generation
    }

    /// What recovery did while opening this store.
    #[must_use]
    pub fn recovery(&self) -> &Recovery {
        &self.recovery
    }

    /// Whether the store was opened in strict (fail-fast) mode.
    #[must_use]
    pub fn strict(&self) -> bool {
        self.strict
    }

    /// Query telemetry accumulated on this handle.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Accounting of the segment cache this handle reads through (on a
    /// pinned snapshot, the live store's shared one).
    #[must_use]
    pub fn cache_stats(&self) -> SegmentCacheStats {
        self.cache.stats()
    }

    /// Sets the worker threads compiled into subsequent plans
    /// (0 = auto-detect). Results are identical at any setting.
    pub fn set_scan_jobs(&mut self, jobs: usize) {
        self.scan_jobs = iri_pipeline::resolve_jobs(jobs);
    }

    /// Forces subsequent plans to fate every segment `Scan` and decode
    /// it eagerly from the filesystem, bypassing the segment cache, page
    /// pruning and code pushdown — the reference path differential tests
    /// and the bench harness compare the optimized executor against.
    pub fn set_full_scan(&mut self, full_scan: bool) {
        self.full_scan = full_scan;
    }

    /// Compiles a logical query into this store's [`PhysicalPlan`]:
    /// pure manifest work, no file I/O. Run it with [`Store::execute`]
    /// (or the aggregation entry points, which compile internally).
    #[must_use]
    pub fn plan(&self, query: &Query, kind: PlanKind) -> PhysicalPlan {
        let zones = kind.zone_answered();
        let steps = self
            .manifest
            .segments
            .iter()
            .map(|meta| {
                let fate = if self.full_scan {
                    SegmentFate::Scan
                } else if let Some(reason) = query.prune_reason(meta) {
                    SegmentFate::Pruned(reason)
                } else if zone_answerable(query, zones, query.covers_time(meta)) {
                    SegmentFate::ZoneAnswered
                } else {
                    SegmentFate::Scan
                };
                SegmentStep {
                    file: meta.file.clone(),
                    shard: meta.shard,
                    seq: meta.seq,
                    rows: meta.rows,
                    bytes: meta.bytes,
                    pages: meta.pages,
                    fate,
                }
            })
            .collect();
        PhysicalPlan {
            query: query.clone(),
            kind,
            jobs: self.scan_jobs,
            full_scan: self.full_scan,
            steps,
        }
    }

    /// Runs a compiled plan, streaming every matching row to `visit` in
    /// (shard, seq, row) order regardless of `jobs`. For aggregation
    /// kinds prefer the dedicated entry points, which fold over only
    /// the columns they read and also fold in zone-answered rows;
    /// `execute` materialises every column of every matching row.
    pub fn execute<F>(&mut self, plan: &PhysicalPlan, mut visit: F) -> Result<ScanStats, StoreError>
    where
        F: FnMut(&StoredEvent),
    {
        self.run_plan(plan, &mut Visit(&mut visit))
            .map(|(stats, _)| stats)
    }

    /// The executor: walks the plan's steps, scanning serially or in
    /// deterministic-merge parallel waves, and returns the stats plus
    /// whatever the zone maps answered without decoding.
    fn run_plan(
        &mut self,
        plan: &PhysicalPlan,
        sink: &mut dyn Sink,
    ) -> Result<(ScanStats, ZoneCounts), StoreError> {
        let started = Instant::now();
        let mut stats = ScanStats {
            segments_quarantined: self.recovery.quarantined.len() as u64,
            ..ScanStats::default()
        };
        let mut zone = ZoneCounts::default();
        if plan.steps.len() != self.manifest.segments.len()
            || plan
                .steps
                .iter()
                .zip(&self.manifest.segments)
                .any(|(s, m)| s.file != m.file)
        {
            return Err(StoreError::corrupt(
                &self.dir,
                "plan does not match this store's manifest",
            ));
        }
        let zones = !plan.full_scan && plan.kind.zone_answered();
        let run = Run {
            src: Source {
                fs: &self.fs,
                dir: &self.dir,
                snapshot_gen: self.snapshot_gen,
                cache: &self.cache,
            },
            query: &plan.query,
            zones,
            fold: sink.columns(plan.kind),
            full_scan: self.full_scan,
            strict: self.strict,
        };
        let steps = plan.steps.iter().zip(&self.manifest.segments);
        let result = if plan.jobs > 1 && plan.segments_scanned() > 1 {
            run.parallel(steps, plan.jobs, &mut stats, &mut zone, sink)
        } else {
            let mut buf = PageBuf::new();
            steps.into_iter().try_for_each(|(step, meta)| {
                run.step_serial(step, meta, &mut buf, &mut stats, &mut zone, sink)
            })
        };
        self.finish_stats(&mut stats, started);
        result.map(|()| (stats, zone))
    }

    fn finish_stats(&mut self, stats: &mut ScanStats, started: Instant) {
        stats.scan_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.registry.inc(self.metrics.queries);
        self.registry
            .add(self.metrics.segments_pruned, stats.segments_pruned);
        self.registry.add(
            self.metrics.segments_zone_answered,
            stats.segments_zone_answered,
        );
        self.registry
            .add(self.metrics.segments_scanned, stats.segments_scanned);
        // Counter tracks query-time discoveries only; the open-time
        // baseline is stamped into every ScanStats but counted once at
        // open under store.recovery.quarantined.
        let baseline = self.recovery.quarantined.len() as u64;
        self.registry.add(
            self.metrics.segments_quarantined,
            stats.segments_quarantined.saturating_sub(baseline),
        );
        self.registry
            .add(self.metrics.rows_scanned, stats.rows_scanned);
        self.registry
            .add(self.metrics.bytes_scanned, stats.bytes_scanned);
        self.registry.observe(self.metrics.scan_us, stats.scan_us);
    }

    /// Streams every matching row, in (shard, seq, row) order: each
    /// logical shard's chain, shard by shard, then the tails in commit
    /// order. A shard's stream is therefore contiguous only in a
    /// compacted store; what holds always is the order per (peer, prefix)
    /// pair — its chain rows, then its tail rows, each in arrival order —
    /// which is all the classifier-derived statistics depend on. `visit`
    /// runs once per matching row.
    pub fn scan<F>(&mut self, query: &Query, visit: F) -> Result<ScanStats, StoreError>
    where
        F: FnMut(&StoredEvent),
    {
        let plan = self.plan(query, PlanKind::Stream);
        self.execute(&plan, visit)
    }

    /// [`Store::scan`] over the whole store: replays every stored event
    /// in scan order, the order store-backed report reconstruction uses.
    pub fn replay<F>(&mut self, visit: F) -> Result<ScanStats, StoreError>
    where
        F: FnMut(&StoredEvent),
    {
        self.scan(&Query::default(), visit)
    }

    /// Compiles and runs one aggregate, returning what it folded.
    fn aggregate(
        &mut self,
        query: &Query,
        kind: PlanKind,
        mut part: Part,
    ) -> Result<(Part, ScanStats, ZoneCounts), StoreError> {
        let plan = self.plan(query, kind);
        let (stats, zone) = self.run_plan(&plan, &mut part)?;
        Ok((part, stats, zone))
    }

    /// Matching rows per taxonomy class, indexed by
    /// [`UpdateClass::index`]. Segments and pages fully inside the time
    /// window are answered from zone counts without being decoded when
    /// the query has no row-level predicates; the rest fold over the
    /// packed class/cause byte alone.
    pub fn count_by_class(
        &mut self,
        query: &Query,
    ) -> Result<([u64; UpdateClass::COUNT], ScanStats), StoreError> {
        let (part, stats, zone) = self.aggregate(query, PlanKind::CountByClass, Part::cc())?;
        let Part::Cc(hist) = part else {
            unreachable!("aggregate returns the part it was given")
        };
        let mut counts = zone.class_counts;
        for (cc, n) in hist.iter().enumerate() {
            // Only validated bytes are ever counted, so the class bits
            // of every non-zero slot are in range.
            if let Some(slot) = counts.get_mut(cc & 0x07) {
                *slot += n;
            }
        }
        Ok((counts, stats))
    }

    /// Matching rows per cause, indexed by [`Cause::index`].
    pub fn count_by_cause(
        &mut self,
        query: &Query,
    ) -> Result<([u64; Cause::COUNT], ScanStats), StoreError> {
        let (part, stats, zone) = self.aggregate(query, PlanKind::CountByCause, Part::cc())?;
        let Part::Cc(hist) = part else {
            unreachable!("aggregate returns the part it was given")
        };
        let mut counts = zone.cause_counts;
        for (cc, n) in hist.iter().enumerate() {
            if let Some(slot) = counts.get_mut(cc >> 3) {
                *slot += n;
            }
        }
        Ok((counts, stats))
    }

    /// Matching rows per peer AS, sorted by descending count then AS —
    /// the Figure 4 "instability by peer" shape.
    pub fn count_by_peer(
        &mut self,
        query: &Query,
    ) -> Result<(Vec<(Asn, u64)>, ScanStats), StoreError> {
        let empty = Part::Peers(FxHashMap::default());
        let (part, stats, _) = self.aggregate(query, PlanKind::CountByPeer, empty)?;
        let Part::Peers(counts) = part else {
            unreachable!("aggregate returns the part it was given")
        };
        let mut rows: Vec<(Asn, u64)> = counts.into_iter().collect();
        rows.sort_by_key(|&(asn, n)| (std::cmp::Reverse(n), asn));
        Ok((rows, stats))
    }

    /// Matching rows per prefix, sorted by descending count then prefix —
    /// the Figure 5 "instability by prefix" shape.
    pub fn count_by_prefix(
        &mut self,
        query: &Query,
    ) -> Result<(Vec<(Prefix, u64)>, ScanStats), StoreError> {
        let empty = Part::Prefixes(FxHashMap::default());
        let (part, stats, _) = self.aggregate(query, PlanKind::CountByPrefix, empty)?;
        let Part::Prefixes(counts) = part else {
            unreachable!("aggregate returns the part it was given")
        };
        let mut rows: Vec<(Prefix, u64)> = counts.into_iter().collect();
        rows.sort_by_key(|&(p, n)| (std::cmp::Reverse(n), p));
        Ok((rows, stats))
    }

    /// Total NLRI wire bytes matching the query — the §3 bandwidth view.
    /// Segments and pages that record a size-column sum and lie fully
    /// inside the window are answered from zone maps alone.
    pub fn sum_bytes(&mut self, query: &Query) -> Result<(u64, ScanStats), StoreError> {
        let (part, stats, zone) = self.aggregate(query, PlanKind::SumBytes, Part::Bytes(0))?;
        let Part::Bytes(total) = part else {
            unreachable!("aggregate returns the part it was given")
        };
        Ok((total + zone.size_sum, stats))
    }

    /// Matching rows bucketed into fixed `bin_ms` bins starting at the
    /// query's lower bound (or the store's first event when unbounded).
    /// The vector is sized to cover the effective time span and feeds
    /// `iri_core::timeseries` (FFT / autocorrelation, §5.2).
    pub fn time_series(
        &mut self,
        query: &Query,
        bin_ms: u64,
    ) -> Result<(Vec<u64>, ScanStats), StoreError> {
        let bin_ms = bin_ms.max(1);
        let (start, bins) = self.manifest.series_bins(query, bin_ms);
        let empty = Part::Series {
            start,
            bin_ms,
            bins: vec![0u64; usize::try_from(bins).unwrap_or(0)],
        };
        let (part, stats, _) = self.aggregate(query, PlanKind::TimeSeries { bin_ms }, empty)?;
        let Part::Series { bins, .. } = part else {
            unreachable!("aggregate returns the part it was given")
        };
        Ok((bins, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_round_trips_through_json() {
        let meta = SegmentMeta {
            file: "s00-000000.seg".into(),
            shard: 0,
            seq: 0,
            rows: 10,
            bytes: 321,
            min_time_ms: 5,
            max_time_ms: 99,
            class_counts: [1, 2, 3, 4, 0, 0, 0],
            cause_counts: [10, 0, 0, 0, 0, 0, 0, 0, 0],
            policy_changes: 2,
            peer_bloom: [1, 0, 0, 2],
            prefix_bloom: [0, 4, 0, 8],
            pages: 1,
            size_sum: 4_321,
        };
        let manifest = Manifest {
            version: MANIFEST_VERSION,
            generation: 3,
            logical_shards: LOGICAL_SHARDS as u32,
            segment_rows: 4096,
            records_read: 7,
            total_events: 10,
            min_time_ms: 5,
            max_time_ms: 99,
            segments: vec![meta],
        };
        let text = serde_json::to_string_pretty(&manifest).unwrap();
        let back: Manifest = serde_json::from_str(&text).unwrap();
        assert_eq!(back, manifest);
    }

    #[test]
    fn query_builder_narrows_and_prunes_on_zones() {
        let seg = SegmentMeta {
            file: "s01-000000.seg".into(),
            shard: 1,
            seq: 0,
            rows: 100,
            bytes: 1000,
            min_time_ms: 1_000,
            max_time_ms: 2_000,
            class_counts: [0, 0, 0, 0, 50, 50, 0],
            cause_counts: [100, 0, 0, 0, 0, 0, 0, 0, 0],
            policy_changes: 0,
            peer_bloom: [u64::MAX; 4],
            prefix_bloom: [u64::MAX; 4],
            pages: 0,
            size_sum: 0,
        };
        // Time window disjoint → pruned.
        assert!(Query::default().time_range_ms(0, 1_000).prunes(&seg));
        assert!(Query::default().time_range_ms(2_001, 9_000).prunes(&seg));
        // Overlapping window → kept.
        assert!(!Query::default().time_range_ms(1_500, 1_600).prunes(&seg));
        // Class with zero zone count → pruned; present class → kept.
        assert!(Query::default().class(UpdateClass::WaDiff).prunes(&seg));
        assert!(!Query::default().class(UpdateClass::WwDup).prunes(&seg));
        // Cause with zero zone count → pruned.
        assert!(Query::default().cause(Cause::CsuDrift).prunes(&seg));
        // Saturated blooms never prune.
        assert!(!Query::default().peer(Asn(64_000)).prunes(&seg));
        // Full coverage check.
        assert!(Query::default().covers_time(&seg));
        assert!(!Query::default()
            .time_range_ms(1_001, u64::MAX)
            .covers_time(&seg));
    }

    /// A pinned reader whose segment was displaced must not take a
    /// retired copy it cannot *read* for one that is *gone*: the
    /// tolerant executor skips segments that are gone, and would answer
    /// short. Whatever single read of a pinned scan fails, the scan
    /// answers in full or surfaces that failure.
    #[test]
    fn a_pinned_scan_hit_by_a_read_error_answers_in_full_or_fails() {
        use crate::live::{LiveOptions, LiveStore};
        use iri_core::input::PeerKey;
        use iri_faults::{FaultPlan, FaultyFs};

        let dir = std::env::temp_dir().join(format!(
            "iri-query-test-{}-pinned-read-error",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let batch = |round: u32| -> Vec<StoredEvent> {
            let row = |i: u32| StoredEvent {
                time_ms: u64::from(round * 1_000 + i),
                peer: PeerKey {
                    asn: Asn(701 + i % 5),
                    addr: std::net::Ipv4Addr::new(192, 41, 177, 1),
                },
                prefix: Prefix::from_raw(0xc100_0000 + (((round * 7 + i) % 97) << 8), 24),
                class: UpdateClass::ALL[i as usize % UpdateClass::COUNT],
                cause: Cause::Unknown,
                policy_change: false,
                size: 4,
            };
            (0..60).map(row).collect()
        };
        let opts = LiveOptions {
            create_segment_rows: Some(8),
            ..LiveOptions::default()
        };
        let live = LiveStore::open_with(&dir, &opts).unwrap();
        live.append_events(&batch(0)).unwrap();
        live.compact(8).unwrap();
        live.append_events(&batch(1)).unwrap();
        // The pin holds chains and a tail; the compaction after it
        // displaces the tail and every chain end that receives rows.
        let pin = live.snapshot();
        live.append_events(&batch(2)).unwrap();
        live.compact(8).unwrap();

        let scan = |fs: SharedFs, strict: bool| {
            let manifest = pin.manifest().clone();
            let mut store = Store::pinned_snapshot(&dir, fs, manifest, SegmentCache::new());
            store.strict = strict;
            let mut rows = 0u64;
            let stats = store.scan(&Query::default(), |_| rows += 1)?;
            Ok::<_, StoreError>((rows, stats.segments_quarantined))
        };
        let counting = Arc::new(FaultyFs::counting());
        assert_eq!(scan(counting.clone(), true).unwrap(), (120, 0));
        let ops = counting.ops();
        let segments = pin.manifest().segments.len() as u64;
        assert!(ops > segments, "no load went to the retired tree");
        for op in 0..ops {
            for strict in [false, true] {
                let plan = FaultPlan::new().transient_error_at(op);
                match scan(Arc::new(FaultyFs::new(plan)), strict) {
                    Ok(answer) => assert_eq!(answer, (120, 0), "op {op}, strict {strict}"),
                    Err(StoreError::Io { source, .. }) => {
                        assert_eq!(source.kind(), io::ErrorKind::TimedOut, "op {op}");
                    }
                    Err(e) => panic!("op {op}, strict {strict}: {e}"),
                }
            }
        }
        drop(pin);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prune_ratio_counts_zone_answers() {
        let stats = ScanStats {
            pages_total: 10,
            pages_pruned: 6,
            pages_zone_answered: 2,
            pages_scanned: 2,
            ..ScanStats::default()
        };
        assert!((stats.prune_ratio() - 0.8).abs() < 1e-12);
        assert_eq!(ScanStats::default().prune_ratio(), 0.0);
    }
}
