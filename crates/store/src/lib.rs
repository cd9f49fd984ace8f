//! # iri-store — embedded columnar segment store for classified update streams
//!
//! The paper's measurement apparatus was a database: *"The probe machines
//! forward routing updates to a central database … where they are logged"*
//! (§3). Nine months of Mae-East instrumentation produced tens of millions
//! of updates, and every figure in the paper is a different slice of that
//! one archive — counts by class per day (Fig 2), per peer (Fig 4), per
//! prefix (Fig 5), time-of-day bins (Fig 8), fine-grained time series fed
//! to FFT/autocorrelation (§5.2). Re-parsing the raw logs for every slice
//! is what this crate removes: classify once, store the classified stream
//! in a compressed columnar form, then answer every slice with a pruned
//! scan.
//!
//! ## Layout
//!
//! A store is a directory of immutable **segment files** plus a
//! `MANIFEST.json`. Events are routed to one of [`LOGICAL_SHARDS`] logical
//! shards by a hash of their (peer AS, prefix) pair — the same pair
//! locality the streaming pipeline uses — and each shard's event stream is
//! cut into segments of a fixed row count: 32 canonical chains. Inside a
//! segment every field is a separate column: delta-compressed timestamps,
//! dictionary-encoded peers and prefixes, one byte per row for the packed
//! (class, cause) pair, a bit-packed policy-change flag, and varint NLRI
//! sizes. Each segment footer carries **zone maps** (min/max time,
//! per-class and per-cause counts, peer/prefix membership bitmaps) that
//! the manifest replicates so queries prune segments without touching the
//! files.
//!
//! Beside the chains a live store holds zero or more **tail segments**,
//! one per [`LiveStore::append_events`] since the last compaction: the
//! appended batch in arrival order, every shard mixed, in the same file
//! format under the pseudo-shard [`TAIL_SHARD`]. Compaction folds the
//! tails into the chains.
//!
//! Because the shard count and segment row count are fixed, the encoded
//! bytes of a compacted store depend only on the logical event stream —
//! not on `--jobs`, not on the machine, not on how appends were batched.
//! Ingesting the same log twice produces byte-identical segments; so does
//! [`compact`]ing two stores that started from different segment sizes.
//! See `DESIGN.md` for the format contract.
//!
//! ```no_run
//! use iri_store::{Query, Store};
//!
//! let mut store = Store::open(std::path::Path::new("trace.store")).unwrap();
//! let q = Query::default().time_range_ms(0, 86_400_000);
//! let (counts, stats) = store.count_by_class(&q).unwrap();
//! println!("WWDup day 0: {} (pruned {:.0}% of segments)",
//!     counts[iri_core::taxonomy::UpdateClass::WwDup.index()],
//!     stats.prune_ratio() * 100.0);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod durable;
pub mod frame;
pub mod ingest;
pub mod live;
pub mod plan;
pub mod query;
pub mod segment;
pub mod watch;

use iri_bgp::types::{Asn, Prefix};
use iri_core::classifier::ClassifiedEvent;
use iri_core::input::{PeerKey, UpdateEvent};
use iri_core::taxonomy::UpdateClass;
use iri_obs::cause::Cause;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

pub use cache::SegmentCacheStats;
pub use durable::{CommitStep, QuarantinedFile, Recovery, JOURNAL_FILE, QUARANTINE_DIR};
pub use ingest::{
    compact, compact_in, ingest_mrt, CompactReport, IngestConfig, IngestOutcome, StoreWriter,
};
pub use live::{LiveOptions, LiveStats, LiveStore, PinGuard, Snapshot};
pub use plan::{PhysicalPlan, PlanKind, PruneReason, SegmentFate, SegmentStep};
pub use query::{
    build_manifest, parse_cause_label, parse_class_label, Manifest, OpenOptions, Query, ScanStats,
    SegmentMeta, Store,
};
pub use segment::{
    ColumnSet, PageBuf, PageMeta, SegmentBuilder, SegmentData, SegmentFile, DEFAULT_PAGE_ROWS,
};
pub use watch::{WatchConfig, WatchReport, WatchState, Watcher};

/// Number of logical shards an event stream is split into. Part of the
/// on-disk format: changing it changes every segment boundary and file
/// name, so it is fixed independently of the worker count — ingest at any
/// `--jobs` produces the same files.
pub const LOGICAL_SHARDS: usize = 32;

/// The pseudo-shard of a tail segment: one past the last logical shard,
/// so tails sort after every canonical chain in the manifest, in commit
/// order, and are named `s32-NNNNNN.seg` like any other segment.
pub const TAIL_SHARD: u32 = LOGICAL_SHARDS as u32;

/// Default rows per segment before the writer rolls to a new file.
pub const DEFAULT_SEGMENT_ROWS: u32 = 65_536;

/// Manifest file name inside a store directory.
pub const MANIFEST_FILE: &str = "MANIFEST.json";

/// Milliseconds per simulated archive day — the unit behind
/// [`Query::day_window`] and every CLI `--day` flag.
pub const DAY_MS: u64 = 86_400_000;

/// Subdirectory where a commit parks the segment files it replaces:
/// `retired/g<generation>/<file>`, where the generation names the commit.
/// Pinned reader snapshots read from it, and recovery restores from it
/// when the commit never sealed. [`LiveStore`] deletes a generation's
/// directory once no snapshot older than it remains pinned and sweeps the
/// whole tree at open; an offline commit drops its own as it seals.
pub const RETIRED_DIR: &str = "retired";

/// Anything that can go wrong opening, writing, or querying a store.
///
/// Non-exhaustive: recovery work keeps growing the failure taxonomy, so
/// downstream matches must carry a wildcard arm. Every variant that
/// concerns one file names it, so "corrupt store" is always "corrupt
/// *which file*".
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// Underlying filesystem error at a known path.
    Io {
        /// The file or directory the operation touched.
        path: PathBuf,
        /// The failing I/O error.
        source: io::Error,
    },
    /// A segment or manifest failed structural validation (checksum,
    /// magic, version, or metadata cross-check).
    Corrupt {
        /// The offending file (empty while decoding an in-memory image).
        path: PathBuf,
        /// What failed.
        what: String,
    },
    /// A strict-mode operation refused to proceed because the store
    /// needs crash recovery or has quarantined files.
    Quarantined {
        /// The file that triggered the refusal.
        path: PathBuf,
        /// Why it was (or would be) quarantined.
        what: String,
    },
    /// The manifest or journal failed to serialize or parse.
    Json(String),
    /// The streaming-analysis pipeline died during ingest.
    Ingest(String),
}

impl StoreError {
    /// An [`StoreError::Io`] at `path`.
    #[must_use]
    pub fn io(path: impl Into<PathBuf>, source: io::Error) -> Self {
        StoreError::Io {
            path: path.into(),
            source,
        }
    }

    /// A [`StoreError::Corrupt`] at `path`.
    #[must_use]
    pub fn corrupt(path: impl Into<PathBuf>, what: impl Into<String>) -> Self {
        StoreError::Corrupt {
            path: path.into(),
            what: what.into(),
        }
    }

    /// A [`StoreError::Quarantined`] at `path`.
    #[must_use]
    pub fn quarantined(path: impl Into<PathBuf>, what: impl Into<String>) -> Self {
        StoreError::Quarantined {
            path: path.into(),
            what: what.into(),
        }
    }

    /// Fills in the path on variants that were built without one (e.g.
    /// segment decoding, which sees bytes, not files).
    #[must_use]
    pub fn with_path(mut self, path: &Path) -> Self {
        match &mut self {
            StoreError::Io { path: p, .. }
            | StoreError::Corrupt { path: p, .. }
            | StoreError::Quarantined { path: p, .. }
                if p.as_os_str().is_empty() =>
            {
                *p = path.to_path_buf();
            }
            _ => {}
        }
        self
    }

    /// Distinct process exit code per failure class, shared by every
    /// CLI so scripts can branch on what went wrong: I/O 3, corruption
    /// 4, quarantine/strict refusal 5, manifest JSON 6, ingest 7.
    #[must_use]
    pub fn exit_code(&self) -> i32 {
        match self {
            StoreError::Io { .. } => 3,
            StoreError::Corrupt { .. } => 4,
            StoreError::Quarantined { .. } => 5,
            StoreError::Json(_) => 6,
            StoreError::Ingest(_) => 7,
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "store I/O error at {}: {source}", path.display())
            }
            StoreError::Corrupt { path, what } if path.as_os_str().is_empty() => {
                write!(f, "corrupt store: {what}")
            }
            StoreError::Corrupt { path, what } => {
                write!(f, "corrupt store file {}: {what}", path.display())
            }
            StoreError::Quarantined { path, what } => {
                write!(f, "store needs recovery ({}): {what}", path.display())
            }
            StoreError::Json(what) => write!(f, "manifest JSON error: {what}"),
            StoreError::Ingest(what) => write!(f, "store ingest failed: {what}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// SplitMix64 finalizer — the store's only hash function, used for shard
/// routing and the zone-map membership bitmaps. Fixed forever: it is part
/// of the on-disk format.
#[must_use]
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The logical shard an event belongs to, as a function of its
/// (peer AS, prefix) pair only. All events of one pair land in one shard,
/// preserving the per-pair ordering the classifier and the episode /
/// inter-arrival statistics depend on.
#[must_use]
pub fn logical_shard(asn: Asn, prefix: Prefix) -> usize {
    let packed =
        (u64::from(asn.0) << 38) ^ (u64::from(prefix.bits()) << 6) ^ u64::from(prefix.len());
    (splitmix64(packed) % LOGICAL_SHARDS as u64) as usize
}

/// [`logical_shard`] keyed off a raw pipeline event.
#[must_use]
pub fn shard_of_event(event: &UpdateEvent) -> usize {
    logical_shard(event.peer.asn, event.prefix)
}

/// Wire size of one NLRI entry as RFC 4271 encodes it: a length octet plus
/// `ceil(len / 8)` address octets. This is the "size" column — the paper's
/// bandwidth estimates (§3: "updates … at times exceeding 30 MB per hour")
/// are byte counts, not update counts.
#[must_use]
pub fn nlri_wire_bytes(prefix: Prefix) -> u32 {
    1 + u32::from(prefix.len()).div_ceil(8)
}

/// One classified update event as the store persists it: the classifier
/// output plus the causal provenance tag and the on-wire NLRI size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredEvent {
    /// Event time in ms since the trace epoch.
    pub time_ms: u64,
    /// Sending peer.
    pub peer: PeerKey,
    /// Affected prefix.
    pub prefix: Prefix,
    /// Taxonomy class (§4).
    pub class: UpdateClass,
    /// Causal provenance, [`Cause::Unknown`] for plain MRT ingest.
    pub cause: Cause,
    /// AADup with non-forwarding attribute change (policy fluctuation).
    pub policy_change: bool,
    /// NLRI wire bytes for this event.
    pub size: u32,
}

impl StoredEvent {
    /// Builds a row from classifier output, deriving the size column.
    #[must_use]
    pub fn from_classified(c: &ClassifiedEvent, cause: Cause) -> Self {
        StoredEvent {
            time_ms: c.time_ms,
            peer: c.peer,
            prefix: c.prefix,
            class: c.class,
            cause,
            policy_change: c.policy_change,
            size: nlri_wire_bytes(c.prefix),
        }
    }

    /// Projects the row back to the classifier-output view the streaming
    /// statistics sinks consume, for store-backed report reconstruction.
    #[must_use]
    pub fn to_classified(&self) -> ClassifiedEvent {
        ClassifiedEvent {
            time_ms: self.time_ms,
            peer: self.peer,
            prefix: self.prefix,
            class: self.class,
            policy_change: self.policy_change,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    #[test]
    fn logical_shard_is_pair_local_and_in_range() {
        let p1 = Prefix::from_raw(0xc0a8_0000, 16);
        let p2 = Prefix::from_raw(0x0a00_0000, 8);
        for asn in [1u32, 701, 65_000] {
            let s = logical_shard(Asn(asn), p1);
            assert!(s < LOGICAL_SHARDS);
            // Same pair, same shard — independent of anything else.
            assert_eq!(s, logical_shard(Asn(asn), p1));
            // Routing keys off the pair, so the event view must agree.
            let ev = UpdateEvent::withdraw(
                5,
                PeerKey {
                    asn: Asn(asn),
                    addr: Ipv4Addr::new(10, 0, 0, 1),
                },
                p2,
            );
            assert_eq!(shard_of_event(&ev), logical_shard(Asn(asn), p2));
        }
    }

    #[test]
    fn nlri_sizes_match_rfc4271_encoding() {
        assert_eq!(nlri_wire_bytes(Prefix::from_raw(0, 0)), 1);
        assert_eq!(nlri_wire_bytes(Prefix::from_raw(0x0a00_0000, 8)), 2);
        assert_eq!(nlri_wire_bytes(Prefix::from_raw(0xc0a8_0000, 17)), 4);
        assert_eq!(nlri_wire_bytes(Prefix::from_raw(0xc0a8_0100, 24)), 4);
        assert_eq!(nlri_wire_bytes(Prefix::from_raw(1, 32)), 5);
    }
}
