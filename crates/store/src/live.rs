//! Live store: serialized mutation with snapshot-isolated readers.
//!
//! [`LiveStore`] is the serving layer's view of a store directory. Any
//! number of threads may take [`LiveStore::snapshot`] handles while
//! appends, re-ingests, and compactions run underneath; every snapshot
//! serves exactly the store content of the manifest generation it
//! pinned, forever, regardless of what later commits do to the
//! directory.
//!
//! ## The pin/retire protocol
//!
//! The commit point of the PR-4 durability protocol — the journal
//! `commit` record carrying the full manifest — already gives every
//! store state a name: its **generation**. Snapshot isolation builds on
//! that in three steps:
//!
//! 1. **Pin.** A snapshot clones the current in-memory manifest and
//!    refcounts its generation in a pin table. No I/O, no locks held
//!    after construction.
//! 2. **Retire.** A mutating commit of generation `g` that would
//!    overwrite or delete a segment file (compaction reuses canonical
//!    names; re-ingest clears the directory) instead *renames* it to
//!    `retired/g<g>/<file>` — atomic, so a concurrent reader sees
//!    either the old bytes at the main path or finds them in `retired/`.
//!    Appends need no retirement: each only adds one tail segment at a
//!    fresh sequence number of the tail chain.
//! 3. **Reclaim.** `retired/g<g>/` is needed only by pins *older* than
//!    `g`. Garbage collection deletes every retired directory at or
//!    below the oldest pinned generation (all of them when nothing is
//!    pinned), and the whole tree at open — pins do not survive a
//!    process.
//!
//! A pinned reader validates every segment against its pinned manifest
//! entry (byte length and row count; encoding is deterministic, so those
//! identify the version) and falls back to the retired tree on mismatch,
//! walking candidate generations in ascending order: the version pinned
//! at `g` is the one moved aside by the earliest commit after `g` that
//! touched the file.

use crate::cache::{SegmentCache, SegmentCacheStats};
use crate::durable::{retired_dir_for, retired_generations, Txn};
use crate::ingest::{self, CompactReport, IngestConfig, IngestOutcome, StoreWriter};
use crate::query::{Manifest, OpenOptions, SegmentMeta, Store};
use crate::segment::{segment_file_name, SegmentBuilder};
use crate::{StoreError, StoredEvent, RETIRED_DIR, TAIL_SHARD};
use iri_faults::{real_fs, RetryPolicy, SharedFs};
use iri_mrt::MrtReader;
use serde::Serialize;
use std::collections::{BTreeMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// How to open a [`LiveStore`].
#[derive(Debug, Clone)]
pub struct LiveOptions {
    /// The filesystem every commit and scan goes through.
    pub fs: SharedFs,
    /// Retry budget for transient I/O errors on write paths.
    pub retry: RetryPolicy,
    /// When the directory holds no store, create an empty one with this
    /// segment roll size instead of failing.
    pub create_segment_rows: Option<u32>,
    /// Worker count for [`LiveStore::ingest_mrt`] (0 = one per CPU).
    pub jobs: usize,
}

impl Default for LiveOptions {
    fn default() -> Self {
        LiveOptions {
            fs: real_fs(),
            retry: RetryPolicy::default(),
            create_segment_rows: None,
            jobs: 0,
        }
    }
}

/// Pin refcounts by generation plus lifetime accounting.
#[derive(Debug, Default)]
struct PinTable {
    counts: BTreeMap<u64, u64>,
    total: u64,
}

/// Holds one generation pinned until dropped. Every [`Snapshot`] owns
/// one; garbage collection never deletes retired state a live guard
/// still protects.
#[derive(Debug)]
pub struct PinGuard {
    table: Arc<Mutex<PinTable>>,
    generation: u64,
}

impl PinGuard {
    /// The pinned generation.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

impl Drop for PinGuard {
    fn drop(&mut self) {
        if let Ok(mut table) = self.table.lock() {
            if let Some(n) = table.counts.get_mut(&self.generation) {
                *n -= 1;
                if *n == 0 {
                    table.counts.remove(&self.generation);
                }
            }
        }
    }
}

/// A read-only view of the store as of one pinned generation.
///
/// Dereferences to [`Store`], so the whole query surface is available.
/// The underlying files are protected from reclamation for as long as
/// the snapshot lives; drop it promptly.
pub struct Snapshot {
    generation: u64,
    store: Store,
    _pin: PinGuard,
}

impl Snapshot {
    /// The generation this snapshot serves.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

impl std::ops::Deref for Snapshot {
    type Target = Store;

    fn deref(&self) -> &Store {
        &self.store
    }
}

impl std::ops::DerefMut for Snapshot {
    fn deref_mut(&mut self) -> &mut Store {
        &mut self.store
    }
}

/// Mutation and pin accounting for one [`LiveStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct LiveStats {
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
    /// Full re-ingests since open.
    pub ingests: u64,
    /// Retired generation directories currently awaiting reclamation.
    pub retired_dirs: u64,
    /// Retired generation directories reclaimed since open.
    pub gc_removed_dirs: u64,
    /// Tail segments awaiting compaction: appends since the last one.
    pub tail_segments: u64,
    /// Rows in those tails — how far the chains lag the store.
    pub tail_rows: u64,
}

#[derive(Debug, Default)]
struct LiveCounters {
    appends: u64,
    appended_events: u64,
    compactions: u64,
    ingests: u64,
    gc_removed_dirs: u64,
}

/// A store directory open for concurrent serving: mutators are
/// serialized by a write lock, readers pin generations and are never
/// blocked by (or block) mutation.
#[derive(Debug)]
pub struct LiveStore {
    dir: PathBuf,
    fs: SharedFs,
    retry: RetryPolicy,
    jobs: usize,
    manifest: Mutex<Manifest>,
    pins: Arc<Mutex<PinTable>>,
    write_lock: Mutex<()>,
    counters: Mutex<LiveCounters>,
    /// Shared into every snapshot, so a segment one reader loaded is
    /// resident for the next; pruned by the commits that retire files.
    cache: Arc<SegmentCache>,
}

fn lock<'a, T>(m: &'a Mutex<T>, what: &str) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|_| panic!("{what} lock poisoned"))
}

impl LiveStore {
    /// Opens a store directory for live serving with default options,
    /// running normal crash recovery first.
    pub fn open(dir: &Path) -> Result<Self, StoreError> {
        Self::open_with(dir, &LiveOptions::default())
    }

    /// [`LiveStore::open`] with explicit options.
    pub fn open_with(dir: &Path, opts: &LiveOptions) -> Result<Self, StoreError> {
        let open = OpenOptions::new().fs(opts.fs.clone());
        let manifest = match Store::open_with(dir, &open) {
            Ok(store) => store.manifest().clone(),
            Err(StoreError::Io { ref source, .. })
                if source.kind() == io::ErrorKind::NotFound
                    && opts.create_segment_rows.is_some() =>
            {
                let rows = opts.create_segment_rows.unwrap_or_default().max(1);
                let writer = StoreWriter::create_with(dir, rows, opts.fs.clone(), opts.retry)?;
                writer.commit(0)?
            }
            Err(e) => return Err(e),
        };
        // Pins do not survive a process: whatever the retired tree still
        // holds belongs to snapshots that no longer exist.
        opts.fs
            .remove_dir(&dir.join(RETIRED_DIR))
            .map_err(|e| StoreError::io(dir.join(RETIRED_DIR), e))?;
        Ok(LiveStore {
            dir: dir.to_path_buf(),
            fs: opts.fs.clone(),
            retry: opts.retry,
            jobs: opts.jobs,
            manifest: Mutex::new(manifest),
            pins: Arc::new(Mutex::new(PinTable::default())),
            write_lock: Mutex::new(()),
            counters: Mutex::new(LiveCounters::default()),
            cache: SegmentCache::new(),
        })
    }

    /// The store directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The current committed generation.
    #[must_use]
    pub fn generation(&self) -> u64 {
        lock(&self.manifest, "manifest").generation
    }

    /// A clone of the current committed manifest.
    #[must_use]
    pub fn manifest(&self) -> Manifest {
        lock(&self.manifest, "manifest").clone()
    }

    /// Pins the current generation and returns a read handle over it.
    /// Cheap: clones the in-memory manifest, does no I/O.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let manifest = lock(&self.manifest, "manifest");
        let generation = manifest.generation;
        let pin = {
            let mut table = lock(&self.pins, "pin table");
            *table.counts.entry(generation).or_insert(0) += 1;
            table.total += 1;
            PinGuard {
                table: Arc::clone(&self.pins),
                generation,
            }
        };
        let store = Store::pinned_snapshot(
            &self.dir,
            self.fs.clone(),
            manifest.clone(),
            Arc::clone(&self.cache),
        );
        drop(manifest);
        Snapshot {
            generation,
            store,
            _pin: pin,
        }
    }

    /// Appends pre-classified rows as a new commit of one file: a tail
    /// segment holding the batch in arrival order, at a fresh sequence
    /// number (existing segments are untouched, so no retirement is
    /// needed). Returns the new generation. The cost of a commit does not
    /// depend on how many rows the batch holds or how many shards they
    /// touch — an empty batch commits an empty tail like any other;
    /// [`LiveStore::compact`] folds the tails into the shard chains.
    pub fn append_events(&self, rows: &[StoredEvent]) -> Result<u64, StoreError> {
        // Encoded before the lock is taken: the image holds neither its
        // file name nor its sequence number, so only the publish below
        // is serialized with other writers.
        let mut tail = SegmentBuilder::new(TAIL_SHARD as u16);
        rows.iter().for_each(|row| tail.push(row));
        let (bytes, mut meta) = tail.encode(String::new(), 0);

        let _w = lock(&self.write_lock, "write");
        let old = self.manifest();
        let generation = old.generation + 1;
        meta.seq = old.tails().map(|m| m.seq + 1).max().unwrap_or(0);
        meta.file = segment_file_name(TAIL_SHARD as usize, meta.seq);
        let txn = Txn::begin(
            self.fs.clone(),
            &self.dir,
            self.retry,
            generation,
            old.segment_rows,
            true,
        )?;
        txn.write_segment(&meta.file, &bytes)?;
        let mut segments = old.segments;
        segments.push(meta);
        *lock(&self.manifest, "manifest") =
            txn.seal(segments, old.segment_rows, old.records_read)?;
        {
            let mut c = lock(&self.counters, "counters");
            c.appends += 1;
            c.appended_events += rows.len() as u64;
        }
        self.gc();
        Ok(generation)
    }

    /// Folds the tails into the shard chains and rewrites ragged chains
    /// into canonical form as a new generation, retiring replaced files
    /// for pinned readers. A store already canonical at `target_rows` is
    /// left as it is, generation included.
    pub fn compact(&self, target_rows: u32) -> Result<CompactReport, StoreError> {
        let _w = lock(&self.write_lock, "write");
        let (report, committed) = ingest::compact_manifest(
            &self.fs,
            &self.dir,
            self.retry,
            &self.manifest(),
            target_rows,
            true,
        )?;
        if let Some(manifest) = committed {
            self.publish_retiring(manifest);
        }
        lock(&self.counters, "counters").compactions += 1;
        self.gc();
        Ok(report)
    }

    /// Replaces the whole store with a fresh ingest of an MRT log (the
    /// sharded parallel pipeline), retiring every previous segment for
    /// pinned readers.
    pub fn ingest_mrt<R: std::io::Read>(
        &self,
        reader: &mut MrtReader<R>,
        base_time: u32,
        segment_rows: u32,
    ) -> Result<IngestOutcome, StoreError> {
        let _w = lock(&self.write_lock, "write");
        let cfg = IngestConfig::default()
            .with_jobs(self.jobs)
            .with_segment_rows(segment_rows)
            .with_fs(self.fs.clone())
            .with_retry(self.retry);
        let outcome = ingest::ingest_mrt_in(&self.dir, reader, base_time, &cfg, true)?;
        self.publish_retiring(outcome.manifest.clone());
        lock(&self.counters, "counters").ingests += 1;
        self.gc();
        Ok(outcome)
    }

    /// Publishes the manifest of a commit that replaced segment files
    /// and drops the cache entries of the ones it retired — everything
    /// the previous manifest named that the new one does not. A reader
    /// still pinned on an older generation reloads what it needs from
    /// the retired tree, under the old entry's own key.
    fn publish_retiring(&self, manifest: Manifest) {
        let mut current = lock(&self.manifest, "manifest");
        {
            let kept: HashSet<&SegmentMeta> = manifest.segments.iter().collect();
            self.cache
                .invalidate(current.segments.iter().filter(|m| !kept.contains(m)));
        }
        *current = manifest;
    }

    /// Accounting of the segment cache every snapshot reads through.
    #[must_use]
    pub fn cache_stats(&self) -> SegmentCacheStats {
        self.cache.stats()
    }

    /// Reclaims retired generation directories no live pin can still
    /// need: every `retired/g<g>/` with `g` at or below the oldest
    /// pinned generation (all of them when nothing is pinned). Runs
    /// after every mutation; callable any time. Returns directories
    /// removed.
    pub fn gc(&self) -> u64 {
        let floor = lock(&self.pins, "pin table").counts.keys().next().copied();
        let mut removed = 0u64;
        for (g, gen_dir) in retired_generations(&*self.fs, &self.dir) {
            // retired/g<g> holds files replaced *by* commit g — only
            // pins strictly older than g still read them.
            if floor.is_none_or(|p| p >= g) && self.fs.remove_dir(&gen_dir).is_ok() {
                removed += 1;
            }
        }
        lock(&self.counters, "counters").gc_removed_dirs += removed;
        removed
    }

    /// Current pin, mutation, and reclamation accounting.
    #[must_use]
    pub fn stats(&self) -> LiveStats {
        let (active, min_pinned, total) = {
            let table = lock(&self.pins, "pin table");
            (
                table.counts.values().sum::<u64>(),
                table.counts.keys().next().copied(),
                table.total,
            )
        };
        let retired_dirs = retired_generations(&*self.fs, &self.dir).len() as u64;
        let (generation, tail_segments, tail_rows) = {
            let manifest = lock(&self.manifest, "manifest");
            let rows = manifest.tails().map(|m| m.rows).sum();
            (manifest.generation, manifest.tails().count() as u64, rows)
        };
        let c = lock(&self.counters, "counters");
        LiveStats {
            generation,
            active_pins: active,
            min_pinned,
            total_pins: total,
            appends: c.appends,
            appended_events: c.appended_events,
            compactions: c.compactions,
            ingests: c.ingests,
            retired_dirs,
            gc_removed_dirs: c.gc_removed_dirs,
            tail_segments,
            tail_rows,
        }
    }

    /// The retired directory a commit of generation `g` would use —
    /// exposed for tests asserting on the retire/reclaim lifecycle.
    #[must_use]
    pub fn retired_dir(&self, generation: u64) -> PathBuf {
        retired_dir_for(&self.dir, generation)
    }
}
