//! The segment cache: each immutable segment is read, checksummed,
//! cross-checked against its manifest entry and parsed once, then shared
//! as an `Arc<SegmentFile>` by every query that scans it.
//!
//! **Identity is the whole [`SegmentMeta`]** — file name, size, row and
//! page counts, time range, class/cause counts, blooms. Compaction and
//! re-ingest reuse canonical file names, so the name alone says nothing;
//! a pinned snapshot and a newer one that disagree about `s03-000000.seg`
//! hold different keys and never see each other's bytes.
//!
//! **Ownership.** A handle from [`crate::Store::open`] owns a private
//! cache. A [`crate::LiveStore`] owns one and shares it into every
//! [`crate::Snapshot`], so serve reads and watcher polls hit what earlier
//! snapshots loaded; `compact` and `ingest_mrt` drop the entries of the
//! files they retire.
//!
//! **Verification contract.** Every load from disk is checksummed and
//! held against the manifest entry ([`SegmentFile::check_meta`]) before
//! it is inserted; failed loads are never cached. A resident segment is
//! not re-hashed per query: damage to a file after it was loaded is found
//! at the next load or by recovery at the next open — the contract of the
//! OS page cache.
//!
//! The byte budget is one constant, [`SEGMENT_CACHE_BYTES`]: no caller in
//! the tree needs a second value, and a knob nobody turns is a
//! configuration nobody tests.

use crate::query::SegmentMeta;
use crate::segment::SegmentFile;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

/// Resident-byte budget of one segment cache: room for a few dozen
/// full-size segments (≈ 0.6 MB each at the default roll size), small
/// beside the row buffers of anything that ingests.
pub const SEGMENT_CACHE_BYTES: usize = 32 << 20;

/// Segment-cache accounting, as `iriq --stats` and the serve
/// `metrics`/`health` verbs report it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentCacheStats {
    /// Segments resident now.
    pub entries: u64,
    /// Bytes those segments keep resident (image + page directory).
    pub resident_bytes: u64,
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that went to the filesystem.
    pub misses: u64,
    /// Entries dropped to stay inside the byte budget.
    pub evictions: u64,
    /// Entries dropped because a commit retired their file.
    pub invalidations: u64,
}

#[derive(Debug)]
struct Entry {
    seg: Arc<SegmentFile>,
    /// Key into `Inner::lru`: the tick of the last lookup.
    used: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<Arc<SegmentMeta>, Entry>,
    /// Last-use tick → key, oldest first.
    lru: BTreeMap<u64, Arc<SegmentMeta>>,
    tick: u64,
    stats: SegmentCacheStats,
}

impl Inner {
    fn remove(&mut self, meta: &SegmentMeta) -> bool {
        let Some(entry) = self.map.remove(meta) else {
            return false;
        };
        self.lru.remove(&entry.used);
        self.stats.entries -= 1;
        self.stats.resident_bytes -= entry.seg.resident_bytes() as u64;
        true
    }
}

/// A byte-bounded, least-recently-used map from [`SegmentMeta`] to its
/// validated, parsed segment. Thread-safe; loads happen outside the
/// lock, so two threads missing on one segment may both read it and the
/// second insert is dropped.
#[derive(Debug)]
pub(crate) struct SegmentCache {
    inner: Mutex<Inner>,
    budget: usize,
}

impl SegmentCache {
    /// An empty cache with the standard budget.
    pub(crate) fn new() -> Arc<Self> {
        Self::with_budget(SEGMENT_CACHE_BYTES)
    }

    /// An empty cache holding at most `budget` resident bytes.
    pub(crate) fn with_budget(budget: usize) -> Arc<Self> {
        Arc::new(SegmentCache {
            inner: Mutex::new(Inner::default()),
            budget,
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(|_| panic!("segment cache lock poisoned"))
    }

    /// The resident segment for exactly this manifest entry, if any.
    pub(crate) fn get(&self, meta: &SegmentMeta) -> Option<Arc<SegmentFile>> {
        let mut guard = self.lock();
        let inner = &mut *guard;
        inner.tick += 1;
        let Some(entry) = inner.map.get_mut(meta) else {
            inner.stats.misses += 1;
            return None;
        };
        let key = inner.lru.remove(&entry.used).expect("entry is indexed");
        entry.used = inner.tick;
        inner.lru.insert(inner.tick, key);
        inner.stats.hits += 1;
        Some(Arc::clone(&entry.seg))
    }

    /// Makes a freshly validated segment resident, evicting the least
    /// recently used entries to stay inside the budget. A segment larger
    /// than the whole budget is not kept.
    pub(crate) fn insert(&self, meta: &SegmentMeta, seg: &Arc<SegmentFile>) {
        let cost = seg.resident_bytes();
        if cost > self.budget {
            return;
        }
        let mut guard = self.lock();
        let inner = &mut *guard;
        if inner.map.contains_key(meta) {
            return;
        }
        while inner.stats.resident_bytes as usize + cost > self.budget {
            let Some(oldest) = inner.lru.values().next().cloned() else {
                break;
            };
            inner.remove(&oldest);
            inner.stats.evictions += 1;
        }
        inner.tick += 1;
        let key = Arc::new(meta.clone());
        inner.lru.insert(inner.tick, Arc::clone(&key));
        inner.map.insert(
            key,
            Entry {
                seg: Arc::clone(seg),
                used: inner.tick,
            },
        );
        inner.stats.entries += 1;
        inner.stats.resident_bytes += cost as u64;
    }

    /// Drops the entries of segments a commit retired.
    pub(crate) fn invalidate<'a>(&self, retired: impl Iterator<Item = &'a SegmentMeta>) {
        let mut inner = self.lock();
        for meta in retired {
            if inner.remove(meta) {
                inner.stats.invalidations += 1;
            }
        }
    }

    /// Current accounting.
    pub(crate) fn stats(&self) -> SegmentCacheStats {
        self.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OpenOptions, Query, Store, StoreWriter, StoredEvent};
    use iri_bgp::types::{Asn, Prefix};
    use iri_core::input::PeerKey;
    use iri_core::taxonomy::UpdateClass;
    use iri_obs::cause::Cause;
    use std::net::Ipv4Addr;

    fn rows(n: u64) -> Vec<StoredEvent> {
        (0..n)
            .map(|i| {
                let prefix = Prefix::from_raw(0xc000_0000 + ((i as u32 % 97) << 8), 24);
                StoredEvent {
                    time_ms: i * 50,
                    peer: PeerKey {
                        asn: Asn(701 + (i % 5) as u32),
                        addr: Ipv4Addr::new(192, 41, 177, 1 + (i % 5) as u8),
                    },
                    prefix,
                    class: UpdateClass::ALL[(i % 7) as usize],
                    cause: Cause::ALL[(i % 3) as usize],
                    policy_change: i % 11 == 0,
                    size: crate::nlri_wire_bytes(prefix),
                }
            })
            .collect()
    }

    /// Every row-level answer the budget test compares.
    fn answers(store: &mut Store, q: &Query) -> impl PartialEq + std::fmt::Debug {
        let mut streamed = Vec::new();
        store.scan(q, |ev| streamed.push(*ev)).unwrap();
        (
            streamed,
            store.count_by_peer(q).unwrap().0,
            store.count_by_prefix(q).unwrap().0,
            store.sum_bytes(q).unwrap().0,
            store.time_series(q, 10_000).unwrap().0,
        )
    }

    /// A store several times larger than the cap: the cache never holds
    /// more than the cap, keeps evicting, and answers stay those of the
    /// uncached full scan at every job count.
    #[test]
    fn a_small_budget_is_never_exceeded_and_answers_do_not_change() {
        let dir = std::env::temp_dir().join(format!("iri-cache-budget-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut writer = StoreWriter::create(&dir, 128).unwrap();
        rows(6_000).iter().for_each(|r| writer.push(r).unwrap());
        let manifest = writer.commit(0).unwrap();
        let store_bytes: u64 = manifest.segments.iter().map(|m| m.bytes).sum();
        let cap = store_bytes as usize / 4;

        let mut baseline = Store::open(&dir).unwrap();
        baseline.set_full_scan(true);
        let queries = [
            Query::default().class(UpdateClass::ALL[2]),
            Query::default().time_range_ms(40_000, 190_000),
            Query::default().peer(Asn(703)).cause(Cause::ALL[1]),
        ];
        for jobs in [1, 2, 4] {
            let cache = SegmentCache::with_budget(cap);
            let opts = OpenOptions::new().jobs(jobs);
            let mut store = Store::open_with_cache(&dir, &opts, Arc::clone(&cache)).unwrap();
            for round in 0..2 {
                for q in &queries {
                    assert_eq!(
                        answers(&mut store, q),
                        answers(&mut baseline, q),
                        "jobs {jobs}, round {round}, {q:?}"
                    );
                    let stats = cache.stats();
                    assert!(stats.resident_bytes as usize <= cap, "{stats:?} over {cap}");
                }
            }
            let stats = cache.stats();
            assert!(stats.evictions > 0 && stats.entries > 0, "{stats:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lookups_refresh_recency_and_invalidation_is_counted_apart() {
        let build = |seq: u32| {
            let mut b = crate::SegmentBuilder::new(0);
            rows(40).iter().for_each(|r| b.push(r));
            let (bytes, meta) = b.encode(crate::segment::segment_file_name(0, seq), seq);
            (meta, Arc::new(SegmentFile::parse(bytes).unwrap()))
        };
        let (segs, cost) = (
            (0..3).map(build).collect::<Vec<_>>(),
            build(0).1.resident_bytes(),
        );
        let cache = SegmentCache::with_budget(2 * cost);
        cache.insert(&segs[0].0, &segs[0].1);
        cache.insert(&segs[1].0, &segs[1].1);
        assert!(cache.get(&segs[0].0).is_some(), "touch 0 so 1 is oldest");
        cache.insert(&segs[2].0, &segs[2].1);
        assert!(
            cache.get(&segs[1].0).is_none(),
            "least recently used evicted"
        );
        assert!(cache.get(&segs[0].0).is_some() && cache.get(&segs[2].0).is_some());

        // Same file name, different content: a different identity.
        let mut renamed = segs[1].0.clone();
        renamed.file = segs[0].0.file.clone();
        assert!(cache.get(&renamed).is_none());

        cache.invalidate([&segs[0].0, &segs[1].0].into_iter());
        let stats = cache.stats();
        assert_eq!(
            (stats.entries, stats.evictions, stats.invalidations),
            (1, 1, 1)
        );
        assert_eq!(stats.resident_bytes as usize, cost);
        // A segment larger than the whole budget is served but not kept.
        let tiny = SegmentCache::with_budget(cost - 1);
        tiny.insert(&segs[0].0, &segs[0].1);
        assert_eq!(tiny.stats().entries, 0);
    }
}
