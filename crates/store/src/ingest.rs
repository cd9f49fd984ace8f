//! Ingest: routing classified events into per-shard segment writers, and
//! compaction.
//!
//! Two paths produce identical stores:
//!
//! - [`ingest_mrt`] runs the sharded streaming pipeline with a store
//!   sink in every worker. The shard function routes each event
//!   to worker `logical_shard % jobs`, so every logical shard's stream —
//!   and therefore every segment file — is identical at any `--jobs`.
//! - [`StoreWriter`] is the single-threaded writer behind the sink, also
//!   used directly when events already carry causal provenance (simulator
//!   traces, figure caches).
//!
//! Both paths are one transaction of the crash-safe protocol in
//! [`crate::durable`]: the entry point begins it, every segment is
//! written through it, and the manifest is sealed by it. Transient I/O
//! errors on the segment-write path are retried with bounded backoff
//! ([`RetryPolicy`]); the retry count surfaces in
//! [`IngestOutcome::retries`] and the `store.ingest.retries` counter.
//!
//! A third writer, [`crate::LiveStore::append_events`], does not route at
//! all: it commits each batch as one tail segment, rows in arrival order.
//! [`compact`] folds those tails into the shard chains and rewrites chains
//! with ragged row counts, restoring the canonical form: every segment
//! full at `target_rows` except the shard's last, and no tails. A shard's
//! row stream is its chain's rows, then its rows of each tail in commit
//! order; because segment encoding is a pure function of that stream,
//! compaction output depends only on the logical store content.

use crate::durable::Txn;
use crate::query::{parse_manifest, Manifest, SegmentMeta};
use crate::segment::{segment_file_name, SegmentBuilder, SegmentData, DEFAULT_PAGE_ROWS};
use crate::{
    logical_shard, shard_of_event, StoreError, StoredEvent, DEFAULT_SEGMENT_ROWS, LOGICAL_SHARDS,
    MANIFEST_FILE, TAIL_SHARD,
};
use iri_core::classifier::ClassifiedEvent;
use iri_core::input::UpdateEvent;
use iri_faults::{real_fs, RetryPolicy, SharedFs};
use iri_mrt::MrtReader;
use iri_obs::cause::Cause;
use iri_pipeline::{analyze_mrt_with_sink, AnalysisResult, ClassifiedSink, PipelineConfig};
use std::path::Path;
use std::sync::Arc;

/// Ingest tuning: pipeline worker settings, the segment roll size, and
/// the I/O layer.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Worker pool configuration for the streaming pipeline.
    pub pipeline: PipelineConfig,
    /// Rows per segment before the writer rolls to a new file. Part of
    /// the store's identity: two stores are byte-comparable only if they
    /// were written (or compacted) with the same value.
    pub segment_rows: u32,
    /// Rows per zone-map page inside each segment. Like `segment_rows`,
    /// part of the store's identity (rounded up to a multiple of 8 by
    /// the segment builder).
    pub page_rows: u32,
    /// Filesystem the writers go through — swap in
    /// [`iri_faults::FaultyFs`] to inject failures.
    pub fs: SharedFs,
    /// Retry budget for transient I/O errors on the segment-write path.
    pub retry: RetryPolicy,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            pipeline: PipelineConfig::default(),
            segment_rows: DEFAULT_SEGMENT_ROWS,
            page_rows: DEFAULT_PAGE_ROWS,
            fs: real_fs(),
            retry: RetryPolicy::default(),
        }
    }
}

impl IngestConfig {
    /// Sets the worker count (0 = one per CPU).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.pipeline.jobs = jobs;
        self
    }

    /// Sets the segment roll size.
    #[must_use]
    pub fn with_segment_rows(mut self, rows: u32) -> Self {
        self.segment_rows = rows.max(1);
        self
    }

    /// Sets the zone-map page size.
    #[must_use]
    pub fn with_page_rows(mut self, rows: u32) -> Self {
        self.page_rows = rows.max(1);
        self
    }

    /// Substitutes the filesystem implementation.
    #[must_use]
    pub fn with_fs(mut self, fs: SharedFs) -> Self {
        self.fs = fs;
        self
    }

    /// Sets the transient-error retry policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

/// Deterministic per-shard segment writer.
///
/// Events are routed by [`logical_shard`]; each shard accumulates rows in
/// a [`SegmentBuilder`] and rolls to a numbered file every `segment_rows`
/// rows. One writer may own any subset of the shards — ingest workers each
/// own the shards congruent to their worker index — since shards never
/// share files or sequence counters.
///
/// Every file goes through the store transaction the writer belongs to:
/// written to `<name>.tmp`, renamed over the final name, fsynced before
/// the commit point.
#[derive(Debug)]
pub struct StoreWriter {
    txn: Arc<Txn>,
    segment_rows: u32,
    page_rows: u32,
    builders: Vec<Option<SegmentBuilder>>,
    seqs: Vec<u32>,
    metas: Vec<SegmentMeta>,
}

impl StoreWriter {
    /// Begins a commit that replaces whatever store `dir` holds (created
    /// if absent) and returns a writer over all shards. For
    /// single-threaded ingest of pre-classified streams; pair with
    /// [`StoreWriter::commit`].
    ///
    /// The previous store stays recoverable until the commit seals: its
    /// segments are moved aside, not deleted, and its manifest is not
    /// touched before the new one is published.
    pub fn create(dir: &Path, segment_rows: u32) -> Result<Self, StoreError> {
        Self::create_with(dir, segment_rows, real_fs(), RetryPolicy::default())
    }

    /// [`StoreWriter::create`] with an explicit filesystem and retry
    /// policy.
    pub fn create_with(
        dir: &Path,
        segment_rows: u32,
        fs: SharedFs,
        retry: RetryPolicy,
    ) -> Result<Self, StoreError> {
        let txn = Txn::replacing(fs, dir, retry, segment_rows, false)?;
        Ok(Self::extending(Arc::new(txn), segment_rows, Vec::new()))
    }

    /// A writer inside `txn` whose commit keeps `existing` and continues
    /// each shard's segment chain after it — compaction, and (with
    /// nothing existing) every writer of a fresh store.
    pub(crate) fn extending(txn: Arc<Txn>, segment_rows: u32, existing: Vec<SegmentMeta>) -> Self {
        let mut seqs = vec![0u32; LOGICAL_SHARDS];
        for meta in &existing {
            let shard = meta.shard as usize;
            seqs[shard] = seqs[shard].max(meta.seq + 1);
        }
        StoreWriter {
            txn,
            segment_rows: segment_rows.max(1),
            page_rows: DEFAULT_PAGE_ROWS,
            builders: (0..LOGICAL_SHARDS).map(|_| None).collect(),
            seqs,
            metas: existing,
        }
    }

    /// Sets the zone-map page size for segments this writer encodes.
    #[must_use]
    pub fn with_page_rows(mut self, rows: u32) -> Self {
        self.page_rows = rows.max(1);
        self
    }

    /// Appends one event, rolling its shard's segment if full.
    pub fn push(&mut self, ev: &StoredEvent) -> Result<(), StoreError> {
        let shard = logical_shard(ev.peer.asn, ev.prefix);
        let page_rows = self.page_rows;
        let builder = self.builders[shard]
            .get_or_insert_with(|| SegmentBuilder::new(shard as u16).with_page_rows(page_rows));
        builder.push(ev);
        if builder.rows() >= self.segment_rows {
            self.flush_shard(shard)?;
        }
        Ok(())
    }

    /// Fsyncs every segment written so far and not yet synced. The
    /// commit does this itself; calling it earlier only moves the cost.
    pub fn sync_pending(&mut self) -> Result<(), StoreError> {
        self.txn.sync()
    }

    fn flush_shard(&mut self, shard: usize) -> Result<(), StoreError> {
        let Some(builder) = self.builders[shard].take() else {
            return Ok(());
        };
        if builder.is_empty() {
            return Ok(());
        }
        let seq = self.seqs[shard];
        let file = segment_file_name(shard, seq);
        let (bytes, meta) = builder.encode(file.clone(), seq);
        self.txn.write_segment(&file, &bytes)?;
        self.metas.push(meta);
        self.seqs[shard] = seq + 1;
        Ok(())
    }

    /// Flushes every shard's partial segment to disk.
    pub fn flush_all(&mut self) -> Result<(), StoreError> {
        for shard in 0..LOGICAL_SHARDS {
            self.flush_shard(shard)?;
        }
        Ok(())
    }

    /// Flushes everything and runs the rest of the commit protocol:
    /// journal seal, manifest publish, journal retire. `records_read` is
    /// carried into the manifest for provenance (0 if unknown).
    pub fn commit(mut self, records_read: u64) -> Result<Manifest, StoreError> {
        self.flush_all()?;
        self.txn.seal(self.metas, self.segment_rows, records_read)
    }
}

/// Per-worker pipeline sink that persists every classified event. MRT
/// ingest has no simulator provenance, so rows carry [`Cause::Unknown`].
#[derive(Debug)]
struct StoreSink {
    writer: StoreWriter,
    error: Option<StoreError>,
}

impl ClassifiedSink for StoreSink {
    fn record(&mut self, _event: &UpdateEvent, classified: &ClassifiedEvent) {
        if self.error.is_some() {
            return;
        }
        let row = StoredEvent::from_classified(classified, Cause::Unknown);
        if let Err(e) = self.writer.push(&row) {
            self.error = Some(e);
        }
    }

    fn finish(&mut self) {
        if self.error.is_some() {
            return;
        }
        // Run the fsync pass here, on the worker thread, so the passes
        // overlap across workers: one pass after the join serialized
        // every fsync on the main thread and made ingest slower at
        // jobs > 1 than fsyncing inline had been.
        if let Err(e) = self
            .writer
            .flush_all()
            .and_then(|()| self.writer.sync_pending())
        {
            self.error = Some(e);
        }
    }
}

/// What [`ingest_mrt`] hands back: the manifest just written plus the
/// full streaming-analysis result computed in the same pass.
pub struct IngestOutcome {
    /// Manifest of the store just written.
    pub manifest: Manifest,
    /// The streaming analysis computed alongside ingest — one pass over
    /// the log yields both the archive and the report.
    pub analysis: AnalysisResult,
    /// MRT records read from the input.
    pub records_read: u64,
    /// Transient I/O errors absorbed by retry across all workers (also
    /// in the `store.ingest.retries` counter of `analysis.registry`).
    pub retries: u64,
}

/// Ingests an MRT update log into a store directory using the sharded
/// parallel pipeline, returning the manifest and the streaming analysis.
///
/// Events are routed to workers by `logical_shard % jobs`, so the segment
/// files are byte-identical at any worker count. The whole ingest is one
/// commit of the crash-safe protocol: a crash at any point leaves a
/// directory `Store::open` recovers to either the committed store or the
/// store the directory held before — never a torn mix.
pub fn ingest_mrt<R: std::io::Read>(
    dir: &Path,
    reader: &mut MrtReader<R>,
    base_time: u32,
    cfg: &IngestConfig,
) -> Result<IngestOutcome, StoreError> {
    ingest_mrt_in(dir, reader, base_time, cfg, false)
}

/// [`ingest_mrt`], keeping the retired tree for the caller's pinned
/// snapshots when `keep_retired` is set.
pub(crate) fn ingest_mrt_in<R: std::io::Read>(
    dir: &Path,
    reader: &mut MrtReader<R>,
    base_time: u32,
    cfg: &IngestConfig,
    keep_retired: bool,
) -> Result<IngestOutcome, StoreError> {
    let segment_rows = cfg.segment_rows.max(1);
    let txn = Arc::new(Txn::replacing(
        cfg.fs.clone(),
        dir,
        cfg.retry,
        segment_rows,
        keep_retired,
    )?);

    let (mut analysis, sinks, records_read) = analyze_mrt_with_sink(
        reader,
        base_time,
        &cfg.pipeline,
        |event, jobs| shard_of_event(event) % jobs,
        |_worker, _jobs| StoreSink {
            writer: StoreWriter::extending(txn.clone(), segment_rows, Vec::new())
                .with_page_rows(cfg.page_rows),
            error: None,
        },
    )
    .map_err(|e| StoreError::Ingest(e.to_string()))?;

    let mut metas = Vec::new();
    for sink in sinks {
        if let Some(e) = sink.error {
            return Err(e);
        }
        metas.extend(sink.writer.metas);
    }
    let manifest = txn.seal(metas, segment_rows, records_read)?;
    let retries = txn.retries();
    let retries_id = analysis.registry.counter("store.ingest.retries");
    analysis.registry.add(retries_id, retries);
    Ok(IngestOutcome {
        manifest,
        analysis,
        records_read,
        retries,
    })
}

/// What [`compact`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactReport {
    /// Shards whose segment chains were rewritten.
    pub shards_rewritten: usize,
    /// Segment files before compaction.
    pub segments_before: usize,
    /// Segment files after compaction.
    pub segments_after: usize,
}

/// Restores canonical form: folds every tail segment into the shard
/// chains and re-cuts every chain that is not all segments holding
/// exactly `target_rows` rows except the shard's last. Full canonical
/// segments at the front of a chain are kept as they are — neither read
/// nor renamed — so the work follows the rows appended since the last
/// compaction plus at most one partial segment per shard, not the store.
///
/// Deterministic: the output bytes are a pure function of the store's
/// logical content and `target_rows`. Compacting two stores that hold the
/// same events (e.g. written with different original segment sizes, or
/// appended in different batches) yields byte-identical segment files;
/// compacting a store that is already canonical at `target_rows` touches
/// nothing, not even the generation.
///
/// One commit of the crash-safe protocol like any other: replaced
/// segments are moved aside until the new manifest is sealed, so a crash
/// anywhere recovers the store as it was before or as it is after.
pub fn compact(dir: &Path, target_rows: u32) -> Result<CompactReport, StoreError> {
    compact_in(dir, target_rows, real_fs(), RetryPolicy::default())
}

/// [`compact`] through an explicit filesystem and retry policy: the
/// crash matrix's way in.
#[doc(hidden)]
pub fn compact_in(
    dir: &Path,
    target_rows: u32,
    fs: SharedFs,
    retry: RetryPolicy,
) -> Result<CompactReport, StoreError> {
    let path = dir.join(MANIFEST_FILE);
    let bytes = fs.read(&path).map_err(|e| StoreError::io(&path, e))?;
    let manifest = parse_manifest(&bytes).map_err(|e| e.with_path(&path))?;
    compact_manifest(&fs, dir, retry, &manifest, target_rows, false).map(|(report, _)| report)
}

/// Whether `meta` has the page layout a rewrite would give it: canonical
/// form pins that too, since rewriting re-encodes with
/// [`DEFAULT_PAGE_ROWS`].
fn canonically_paged(meta: &SegmentMeta) -> bool {
    meta.pages == meta.rows.div_ceil(u64::from(DEFAULT_PAGE_ROWS))
}

/// How many segments at the front of a shard's chain compaction at
/// `target_rows` never has to touch again: in position, full, and paged
/// as a rewrite would page them.
fn full_prefix(chain: &[&SegmentMeta], target_rows: u32) -> usize {
    chain
        .iter()
        .enumerate()
        .take_while(|(i, m)| {
            m.seq == *i as u32 && m.rows == u64::from(target_rows) && canonically_paged(m)
        })
        .count()
}

/// Whether what follows a chain's `full` leading segments is what
/// compaction at `target_rows` would write there: nothing, or the one
/// partial segment that ends the chain.
fn is_canonical_end(rest: &[&SegmentMeta], full: usize, target_rows: u32) -> bool {
    match rest {
        [] => true,
        [last] => {
            last.seq == full as u32 && last.rows < u64::from(target_rows) && canonically_paged(last)
        }
        _ => false,
    }
}

/// Appends the rows of the segment `meta` names to `rows`, in row order.
fn read_rows(
    fs: &SharedFs,
    dir: &Path,
    meta: &SegmentMeta,
    rows: &mut Vec<StoredEvent>,
) -> Result<(), StoreError> {
    let path = dir.join(&meta.file);
    let bytes = fs.read(&path).map_err(|e| StoreError::io(&path, e))?;
    let seg = SegmentData::decode(&bytes).map_err(|e| e.with_path(&path))?;
    rows.extend((0..seg.len()).map(|i| seg.event(i)));
    Ok(())
}

/// [`compact`] of the store `manifest` describes, through `fs`. Returns
/// the manifest it committed, or `None` when the store was already
/// canonical at `target_rows` and nothing was begun.
pub(crate) fn compact_manifest(
    fs: &SharedFs,
    dir: &Path,
    retry: RetryPolicy,
    manifest: &Manifest,
    target_rows: u32,
    keep_retired: bool,
) -> Result<(CompactReport, Option<Manifest>), StoreError> {
    let target_rows = target_rows.max(1);
    let mut chains: Vec<Vec<&SegmentMeta>> = (0..LOGICAL_SHARDS).map(|_| Vec::new()).collect();
    // In commit order: the manifest is sorted by (shard, seq).
    let mut tails: Vec<&SegmentMeta> = Vec::new();
    for meta in &manifest.segments {
        match chains.get_mut(meta.shard as usize) {
            Some(chain) => chain.push(meta),
            None if meta.shard == TAIL_SHARD => tails.push(meta),
            None => {
                return Err(StoreError::corrupt(
                    dir.join(MANIFEST_FILE),
                    format!("manifest segment shard {} out of range", meta.shard),
                ));
            }
        }
    }

    // Every tail is read once, before anything in the directory changes.
    let mut tail_rows: Vec<StoredEvent> = Vec::new();
    for meta in &tails {
        read_rows(fs, dir, meta, &mut tail_rows)?;
    }
    let mut receives = [false; LOGICAL_SHARDS];
    for row in &tail_rows {
        receives[logical_shard(row.peer.asn, row.prefix)] = true;
    }

    // A chain is re-cut from its first segment that is not full, and only
    // if it receives rows or does not end the way canonical form ends.
    let mut kept: Vec<SegmentMeta> = Vec::new();
    let mut recut: Vec<&[&SegmentMeta]> = Vec::new();
    for (chain, receives) in chains.iter().zip(receives) {
        let full = full_prefix(chain, target_rows);
        let (settled, rest) = chain.split_at(full);
        let keep = if receives || !is_canonical_end(rest, full, target_rows) {
            recut.push(rest);
            settled
        } else {
            chain.as_slice()
        };
        kept.extend(keep.iter().map(|m| (*m).clone()));
    }
    let mut report = CompactReport {
        shards_rewritten: recut.len(),
        segments_before: manifest.segments.len(),
        segments_after: manifest.segments.len(),
    };
    // The roll size is part of the manifest: a store canonical at another
    // size still commits, so equal content ends in equal manifests.
    if recut.is_empty() && tails.is_empty() && manifest.segment_rows == target_rows {
        return Ok((report, None));
    }

    let txn = Txn::begin(
        fs.clone(),
        dir,
        retry,
        manifest.generation + 1,
        target_rows,
        keep_retired,
    )?;
    let mut writer = StoreWriter::extending(Arc::new(txn), target_rows, kept);
    for rest in recut {
        // Decode the end of the chain in segment order, move it aside,
        // then let the writer continue the chain with those rows under
        // the names the end just gave up.
        let mut rows: Vec<StoredEvent> = Vec::new();
        for meta in rest {
            read_rows(fs, dir, meta, &mut rows)?;
        }
        for meta in rest {
            writer.txn.displace(&meta.file)?;
        }
        rows.iter().try_for_each(|row| writer.push(row))?;
    }
    // Chain rows first, then the tails' in commit order: each shard's
    // builder sees exactly the stream a single bulk writer would have.
    tail_rows.iter().try_for_each(|row| writer.push(row))?;
    for meta in &tails {
        writer.txn.displace(&meta.file)?;
    }
    let committed = writer.commit(manifest.records_read)?;
    report.segments_after = committed.segments.len();
    Ok((report, Some(committed)))
}
