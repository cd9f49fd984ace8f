//! Differential tests for the query executor: the paged zone-map +
//! dictionary-code-pushdown path — on a handle whose segment cache is
//! warm and on a fresh one — must return byte-identical results to a
//! forced full scan (which never touches the cache) across random event
//! sets, filters, windows, page sizes, and job counts; every
//! column-projected aggregate must equal the same aggregate taken over
//! the all-columns row visitor. Plus the segment reader's own
//! properties: no panic on any bytes, dictionaries read in place
//! round-trip.

use iri_bgp::types::{Asn, Prefix};
use iri_core::input::PeerKey;
use iri_core::taxonomy::UpdateClass;
use iri_obs::cause::Cause;
use iri_store::{
    segment::segment_file_name, ColumnSet, PageBuf, PlanKind, Query, SegmentBuilder, SegmentData,
    SegmentFile, Store, StoreWriter, StoredEvent,
};
use proptest::prelude::*;
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

fn temp_store_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "iri-store-diff-{}-{}-{tag}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const PEERS: usize = 4;
const PREFIXES: usize = 6;

fn peer(i: usize) -> PeerKey {
    PeerKey {
        asn: Asn(701 + i as u32),
        addr: Ipv4Addr::new(192, 41, 177, 1 + i as u8),
    }
}

fn prefix(i: usize) -> Prefix {
    Prefix::from_raw(0xc000_0000 + ((i as u32) << 8), 24)
}

#[derive(Debug, Clone)]
struct RawEvent {
    time_ms: u64,
    peer: usize,
    prefix: usize,
    class: usize,
    cause: usize,
    policy: bool,
    size: u32,
}

impl RawEvent {
    fn stored(&self) -> StoredEvent {
        StoredEvent {
            time_ms: self.time_ms,
            peer: peer(self.peer),
            prefix: prefix(self.prefix),
            class: UpdateClass::ALL[self.class % UpdateClass::COUNT],
            cause: Cause::ALL[self.cause % Cause::COUNT],
            policy_change: self.policy,
            size: self.size,
        }
    }
}

fn raw_event() -> impl Strategy<Value = RawEvent> {
    (
        0u64..40_000,
        0..PEERS,
        0..PREFIXES,
        0..UpdateClass::COUNT,
        0..Cause::COUNT,
        any::<bool>(),
        0u32..3_000,
    )
        .prop_map(
            |(time_ms, peer, prefix, class, cause, policy, size)| RawEvent {
                time_ms,
                peer,
                prefix,
                class,
                cause,
                policy,
                size,
            },
        )
}

#[derive(Debug, Clone)]
struct RawQuery {
    from_ms: u64,
    span_ms: u64,
    // One past the pool sizes = a value absent from every segment, so
    // bloom misses and dictionary-miss early-outs get exercised too.
    peer: Option<usize>,
    prefix: Option<usize>,
    class: Option<usize>,
    cause: Option<usize>,
    unbounded: bool,
}

impl RawQuery {
    fn query(&self) -> Query {
        let mut q = Query::default();
        if !self.unbounded {
            q = q.time_range_ms(self.from_ms, self.from_ms + self.span_ms);
        }
        if let Some(i) = self.peer {
            q = q.peer(Asn(701 + i as u32));
        }
        if let Some(i) = self.prefix {
            q = q.prefix(prefix(i));
        }
        if let Some(i) = self.class {
            q = q.class(UpdateClass::ALL[i % UpdateClass::COUNT]);
        }
        if let Some(i) = self.cause {
            q = q.cause(Cause::ALL[i % Cause::COUNT]);
        }
        q
    }
}

fn raw_query() -> impl Strategy<Value = RawQuery> {
    (
        0u64..40_000,
        1u64..20_000,
        proptest::option::of(0..=PEERS),
        proptest::option::of(0..=PREFIXES),
        proptest::option::of(0..UpdateClass::COUNT),
        proptest::option::of(0..Cause::COUNT),
        (0u8..10).prop_map(|v| v < 2),
    )
        .prop_map(
            |(from_ms, span_ms, peer, prefix, class, cause, unbounded)| RawQuery {
                from_ms,
                span_ms,
                peer,
                prefix,
                class,
                cause,
                unbounded,
            },
        )
}

/// Writes the events into a fresh store through the normal writer.
fn build_store(dir: &Path, events: &[RawEvent], segment_rows: u32, page_rows: u32) {
    let mut w = StoreWriter::create(dir, segment_rows)
        .unwrap()
        .with_page_rows(page_rows);
    for e in events {
        w.push(&e.stored()).unwrap();
    }
    w.commit(events.len() as u64).unwrap();
}

/// Every observable answer of one query against one store handle.
#[derive(Debug, PartialEq)]
struct Answers {
    rows: Vec<StoredEvent>,
    by_class: [u64; UpdateClass::COUNT],
    by_cause: [u64; Cause::COUNT],
    by_peer: Vec<(Asn, u64)>,
    by_prefix: Vec<(Prefix, u64)>,
    sum: u64,
    series: Vec<u64>,
}

const BIN_MS: u64 = 1_000;

fn answers(store: &mut Store, q: &Query) -> Answers {
    let mut rows = Vec::new();
    store.scan(q, |ev| rows.push(*ev)).unwrap();
    Answers {
        rows,
        by_class: store.count_by_class(q).unwrap().0,
        by_cause: store.count_by_cause(q).unwrap().0,
        by_peer: store.count_by_peer(q).unwrap().0,
        by_prefix: store.count_by_prefix(q).unwrap().0,
        sum: store.sum_bytes(q).unwrap().0,
        series: store.time_series(q, BIN_MS).unwrap().0,
    }
}

/// Descending count, then key: the order the grouped counts come in.
fn ranked<K: Ord + Copy>(keys: impl Iterator<Item = K>) -> Vec<(K, u64)> {
    let mut counts = std::collections::BTreeMap::new();
    keys.for_each(|k| *counts.entry(k).or_insert(0u64) += 1);
    let mut ranked: Vec<(K, u64)> = counts.into_iter().collect();
    ranked.sort_by_key(|&(k, n)| (std::cmp::Reverse(n), k));
    ranked
}

/// Every aggregate recomputed from the rows the all-columns visitor
/// streamed: what each column-projected fold must equal.
fn from_visitor(rows: &[StoredEvent], series_len: usize, series_start: u64) -> Answers {
    let mut by_class = [0u64; UpdateClass::COUNT];
    let mut by_cause = [0u64; Cause::COUNT];
    let mut series = vec![0u64; series_len];
    for r in rows {
        by_class[r.class.index()] += 1;
        by_cause[r.cause.index()] += 1;
        if let Some(slot) = series.get_mut(((r.time_ms - series_start) / BIN_MS) as usize) {
            *slot += 1;
        }
    }
    Answers {
        rows: rows.to_vec(),
        by_class,
        by_cause,
        by_peer: ranked(rows.iter().map(|r| r.peer.asn)),
        by_prefix: ranked(rows.iter().map(|r| r.prefix)),
        sum: rows.iter().map(|r| u64::from(r.size)).sum(),
        series,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn paged_pushdown_matches_forced_full_scan(
        events in proptest::collection::vec(raw_event(), 0..400),
        queries in proptest::collection::vec(raw_query(), 1..6),
        segment_rows in 16u32..200,
        page_rows in 1u32..96,
        jobs in 2usize..5,
    ) {
        let dir = temp_store_dir("v2");
        build_store(&dir, &events, segment_rows, page_rows);

        // `optimized` and `parallel` live across every query, so from
        // the second query on their segment caches are warm.
        let mut optimized = Store::open(&dir).unwrap();
        let mut baseline = Store::open(&dir).unwrap();
        baseline.set_full_scan(true);
        let mut parallel = Store::open(&dir).unwrap();
        parallel.set_scan_jobs(jobs);
        let first_time = events.iter().map(|e| e.time_ms).min().unwrap_or(0);

        for rq in &queries {
            let q = rq.query();
            let fast = answers(&mut optimized, &q);
            let slow = answers(&mut baseline, &q);
            let par = answers(&mut parallel, &q);
            let cold = answers(&mut Store::open(&dir).unwrap(), &q);
            prop_assert_eq!(&fast, &slow, "optimized vs full scan, query {:?}", q);
            prop_assert_eq!(&fast, &par, "serial vs {} jobs, query {:?}", jobs, q);
            prop_assert_eq!(&fast, &cold, "warm vs fresh handle, query {:?}", q);

            // Projection: each fold over its own columns equals the
            // same fold over the rows the all-columns visitor saw.
            let series_start = if q.from_ms > 0 { q.from_ms } else { first_time };
            let via_rows = from_visitor(&fast.rows, fast.series.len(), series_start);
            prop_assert_eq!(&fast, &via_rows, "column folds vs visitor, query {:?}", q);

            // A repeat on the warm handle reads nothing and answers the same.
            let again = optimized.count_by_peer(&q).unwrap();
            prop_assert_eq!(&again.0, &fast.by_peer);
            prop_assert_eq!(again.1.bytes_read, 0, "warm repeat read the disk, query {:?}", q);
            prop_assert_eq!(again.1.segments_cached, again.1.segments_scanned);
            let uncached = baseline.count_by_peer(&q).unwrap().1;
            prop_assert_eq!(uncached.segments_cached, 0, "the full scan must bypass the cache");
            prop_assert_eq!(uncached.bytes_read, uncached.bytes_scanned);

            // The executor's accounting must cover every page exactly once.
            let plan = optimized.plan(&q, PlanKind::Stream);
            let stats = optimized.execute(&plan, |_| {}).unwrap();
            prop_assert_eq!(
                stats.pages_total,
                stats.pages_pruned + stats.pages_zone_answered + stats.pages_scanned,
                "page accounting, query {:?}",
                q
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The lazy reader reads its dictionaries in place from the image:
    /// entry by entry they are the first-seen order of the input, the
    /// ones the eager decoder materialises, and the ones rows resolve to.
    #[test]
    fn in_place_dictionaries_round_trip(
        events in proptest::collection::vec(raw_event(), 1..300),
        page_rows in 1u32..96,
    ) {
        let rows: Vec<StoredEvent> = events.iter().map(RawEvent::stored).collect();
        let mut b = SegmentBuilder::new(5).with_page_rows(page_rows);
        rows.iter().for_each(|r| b.push(r));
        let (bytes, meta) = b.encode(segment_file_name(5, 0), 0);
        let eager = SegmentData::decode(&bytes).unwrap();
        let file = SegmentFile::parse(bytes).unwrap();
        file.check_meta(&meta).unwrap();

        let mut first_peers = Vec::new();
        let mut first_prefixes = Vec::new();
        for r in &rows {
            if !first_peers.contains(&r.peer) {
                first_peers.push(r.peer);
            }
            if !first_prefixes.contains(&r.prefix) {
                first_prefixes.push(r.prefix);
            }
        }
        let peers: Vec<_> = (0..file.peer_count()).map(|id| file.peer(id)).collect();
        let prefixes: Vec<_> = (0..file.prefix_count()).map(|id| file.prefix(id)).collect();
        prop_assert_eq!(&peers, &first_peers);
        prop_assert_eq!(&peers, &eager.peer_dict);
        prop_assert_eq!(&prefixes, &first_prefixes);
        prop_assert_eq!(&prefixes, &eager.prefix_dict);

        let mut buf = PageBuf::new();
        let mut back = Vec::new();
        for page in file.pages() {
            file.decode_page(page, ColumnSet::ALL, &mut buf).unwrap();
            back.extend((0..buf.len()).map(|j| file.event(&buf, j)));
        }
        prop_assert_eq!(back, rows);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `SegmentFile::parse`, `check_meta` and every page decode return
    /// errors, never panic, on arbitrary bytes — including damaged
    /// images whose checksum is valid, so the damage reaches the
    /// dictionary, column-table, page-directory and column validation
    /// behind it.
    #[test]
    fn segment_reader_never_panics_on_arbitrary_bytes(
        noise in proptest::collection::vec(any::<u8>(), 0..600),
        events in proptest::collection::vec(raw_event(), 1..120),
        flips in proptest::collection::vec((any::<usize>(), 1u8..=255), 1..4),
        damage in 0u8..4,
    ) {
        let _ = SegmentFile::parse(noise.clone());

        let mut b = SegmentBuilder::new(1).with_page_rows(16);
        events.iter().for_each(|e| b.push(&e.stored()));
        let (bytes, meta) = b.encode(segment_file_name(1, 0), 0);
        let mut body = bytes[..bytes.len() - 8].to_vec();
        match damage {
            // A few flipped bytes anywhere: mostly column data.
            0 | 1 => {
                for (at, mask) in flips {
                    let at = at % body.len();
                    body[at] ^= mask;
                }
            }
            // A lost tail.
            2 => body.truncate(flips[0].0 % (body.len() + 1)),
            // Noise over the header, dictionaries and column table.
            _ => body.iter_mut().zip(&noise).for_each(|(slot, byte)| *slot ^= byte),
        }
        let mut h = iri_core::fxhash::FxHasher::default();
        std::hash::Hasher::write(&mut h, &body);
        body.extend_from_slice(&std::hash::Hasher::finish(&h).to_le_bytes());

        if let Ok(file) = SegmentFile::parse(body) {
            let _ = file.check_meta(&meta);
            for id in 0..file.peer_count() {
                let _ = file.peer(id);
            }
            for id in 0..file.prefix_count() {
                let _ = file.prefix(id);
            }
            let mut buf = PageBuf::new();
            for page in file.pages() {
                if file.decode_page(page, ColumnSet::ALL, &mut buf).is_ok() {
                    for j in 0..buf.len() {
                        let _ = file.event(&buf, j);
                    }
                }
            }
        }
    }
}
