//! Live-store tests: snapshot isolation across appends, compaction, and
//! re-ingest; the pin/retire/reclaim lifecycle; and a thread-stress run
//! proving pinned readers never observe retired or torn state.

use iri_bgp::attrs::{Origin, PathAttributes};
use iri_bgp::message::{Message, Update};
use iri_bgp::path::AsPath;
use iri_bgp::types::{Asn, Prefix};
use iri_core::input::PeerKey;
use iri_core::taxonomy::UpdateClass;
use iri_faults::FaultyFs;
use iri_mrt::{Bgp4mpMessage, MrtReader, MrtRecord, MrtWriter};
use iri_obs::cause::Cause;
use iri_store::{
    logical_shard, nlri_wire_bytes, LiveOptions, LiveStore, Query, Store, StoredEvent,
    LOGICAL_SHARDS,
};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

const BASE_TIME: u32 = 833_000_000;

/// expected[generation] = (class counts, total wire bytes) at that
/// generation.
type Oracle = HashMap<u64, ([u64; UpdateClass::COUNT], u64)>;

fn temp_store_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "iri-live-test-{}-{}-{tag}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open_live(dir: &Path, segment_rows: u32) -> LiveStore {
    let opts = LiveOptions {
        create_segment_rows: Some(segment_rows),
        ..LiveOptions::default()
    };
    LiveStore::open_with(dir, &opts).expect("open live store")
}

/// A deterministic batch of classified rows: `n` rows spread over many
/// (peer, prefix) pairs so every logical shard sees traffic.
fn batch(round: u64, n: u64) -> Vec<StoredEvent> {
    let classes = UpdateClass::ALL;
    (0..n)
        .map(|i| {
            let k = round * 10_000 + i;
            let prefix = Prefix::from_raw(0xc100_0000 + ((k as u32 % 512) << 8), 24);
            StoredEvent {
                time_ms: (u64::from(BASE_TIME) + round * 60 + i) * 1000,
                peer: PeerKey {
                    asn: Asn(701 + (k % 7) as u32),
                    addr: Ipv4Addr::new(192, 41, 177, (1 + k % 9) as u8),
                },
                prefix,
                class: classes[(k % classes.len() as u64) as usize],
                cause: Cause::Unknown,
                policy_change: k.is_multiple_of(13),
                size: nlri_wire_bytes(prefix),
            }
        })
        .collect()
}

fn class_counts(rows: &[StoredEvent]) -> [u64; UpdateClass::COUNT] {
    let mut counts = [0u64; UpdateClass::COUNT];
    for r in rows {
        counts[r.class.index()] += 1;
    }
    counts
}

fn synthetic_log(records: usize, seed: u64) -> Vec<u8> {
    let mut state = seed;
    let mut rng = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    let peers: Vec<(Asn, Ipv4Addr)> = (0..6)
        .map(|i| (Asn(701 + i), Ipv4Addr::new(192, 41, 177, 1 + i as u8)))
        .collect();
    let mut buf = Vec::new();
    let mut w = MrtWriter::new(&mut buf);
    for i in 0..records {
        let r = rng();
        let (peer_asn, peer_ip) = peers[(r % peers.len() as u64) as usize];
        let prefix = Prefix::from_raw(0xc000_0000 + (((r as u32 >> 3) % 200) << 8), 24);
        let timestamp = BASE_TIME + (i / 10) as u32;
        let update = if r % 5 == 0 {
            Update {
                withdrawn: vec![prefix],
                attrs: None,
                nlri: vec![],
            }
        } else {
            Update {
                withdrawn: vec![],
                attrs: Some(PathAttributes::new(
                    Origin::Igp,
                    AsPath::from_sequence([peer_asn, Asn(7000 + (r % 3) as u32)]),
                    peer_ip,
                )),
                nlri: vec![prefix],
            }
        };
        w.write(&MrtRecord::Bgp4mpMessage(Bgp4mpMessage {
            timestamp,
            peer_asn,
            local_asn: Asn(237),
            peer_ip,
            local_ip: Ipv4Addr::new(192, 41, 177, 249),
            message: Message::Update(update),
        }))
        .unwrap();
    }
    buf
}

fn scan_all(store: &mut Store) -> Vec<StoredEvent> {
    let mut rows = Vec::new();
    store
        .scan(&Query::default(), |ev| rows.push(*ev))
        .expect("scan");
    rows
}

/// Scan output grouped by logical shard, order kept: the per-shard row
/// streams, which are what compaction preserves (tails scan after the
/// chains until it folds them in).
fn shard_streams(rows: &[StoredEvent]) -> Vec<Vec<StoredEvent>> {
    let mut streams = vec![Vec::new(); LOGICAL_SHARDS];
    for r in rows {
        streams[logical_shard(r.peer.asn, r.prefix)].push(*r);
    }
    streams
}

#[test]
fn append_advances_generation_and_serves_new_rows() {
    let dir = temp_store_dir("append");
    let live = open_live(&dir, 64);
    assert_eq!(live.generation(), 1);

    let b1 = batch(1, 300);
    let g = live.append_events(&b1).unwrap();
    assert_eq!(g, 2);
    let mut snap = live.snapshot();
    assert_eq!(snap.generation(), 2);
    let (counts, _) = snap.count_by_class(&Query::default()).unwrap();
    assert_eq!(counts, class_counts(&b1));

    let b2 = batch(2, 200);
    assert_eq!(live.append_events(&b2).unwrap(), 3);
    let mut snap2 = live.snapshot();
    let (counts2, _) = snap2.count_by_class(&Query::default()).unwrap();
    let mut all = b1.clone();
    all.extend_from_slice(&b2);
    assert_eq!(counts2, class_counts(&all));

    // A plain offline open sees the same committed state.
    drop((snap, snap2));
    let mut offline = Store::open(&dir).unwrap();
    assert_eq!(offline.generation(), 3);
    assert_eq!(
        offline.count_by_class(&Query::default()).unwrap().0,
        class_counts(&all)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn pinned_reader_survives_compaction_and_gc_reclaims() {
    let dir = temp_store_dir("pin-compact");
    let live = open_live(&dir, 32);
    for round in 1..=4 {
        live.append_events(&batch(round, 150)).unwrap();
    }
    let pinned_gen = live.generation();
    let mut snap = live.snapshot();
    let before = scan_all(&mut snap);
    assert!(!before.is_empty());

    // Compaction reuses canonical file names, so without retirement the
    // pinned manifest would read torn bytes.
    let report = live.compact(32).unwrap();
    assert!(report.shards_rewritten > 0);
    assert_eq!(live.generation(), pinned_gen + 1);
    assert!(
        live.retired_dir(pinned_gen + 1).is_dir(),
        "compaction must retire replaced segments while a pin is live"
    );

    // The pinned snapshot still serves its generation, row for row, in
    // the same shard-stream order — byte-identical logical content.
    let after = scan_all(&mut snap);
    assert_eq!(before, after);
    assert_eq!(snap.generation(), pinned_gen);

    // A fresh snapshot of the compacted generation sees the same rows:
    // compaction preserves each shard's row stream.
    let mut fresh = live.snapshot();
    assert_eq!(shard_streams(&scan_all(&mut fresh)), shard_streams(&before));
    drop(fresh);

    // While the old pin lives, GC must not reclaim; afterwards it must.
    assert_eq!(live.gc(), 0);
    assert!(live.stats().retired_dirs >= 1);
    drop(snap);
    assert!(live.gc() >= 1);
    let stats = live.stats();
    assert_eq!(stats.retired_dirs, 0);
    assert_eq!(stats.active_pins, 0);
    assert!(stats.total_pins >= 2);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn pinned_reader_survives_full_reingest() {
    let dir = temp_store_dir("pin-reingest");
    let live = open_live(&dir, 64);
    let log_a = synthetic_log(400, 0x5eed_0001);
    live.ingest_mrt(&mut MrtReader::new(log_a.as_slice()), BASE_TIME, 64)
        .unwrap();
    let mut snap = live.snapshot();
    let before = scan_all(&mut snap);

    // Replace the whole store under the pin with different content.
    let log_b = synthetic_log(700, 0x5eed_0002);
    live.ingest_mrt(&mut MrtReader::new(log_b.as_slice()), BASE_TIME, 64)
        .unwrap();
    let mut fresh = live.snapshot();
    let new_rows = scan_all(&mut fresh);
    assert_ne!(before.len(), new_rows.len());

    // The pin still serves the pre-replacement store exactly.
    assert_eq!(scan_all(&mut snap), before);
    drop((snap, fresh));
    live.gc();
    assert_eq!(live.stats().retired_dirs, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn open_sweeps_stale_retired_tree() {
    let dir = temp_store_dir("sweep");
    {
        let live = open_live(&dir, 32);
        // Two appends leave ragged chains, so compaction must rewrite.
        live.append_events(&batch(1, 100)).unwrap();
        live.append_events(&batch(2, 100)).unwrap();
        let _pin = live.snapshot();
        live.compact(32).unwrap();
        // Dropped mid-"process": the pin dies with the LiveStore, but
        // the retired tree stays on disk.
    }
    let retired_root = dir.join(iri_store::RETIRED_DIR);
    assert!(retired_root.is_dir());
    let live = open_live(&dir, 32);
    assert!(
        !retired_root.exists(),
        "open must sweep retired state no live pin can reference"
    );
    assert_eq!(live.stats().retired_dirs, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// What a plain pass over `rows` answers for the row-filtered queries
/// the cache test asks: rows per peer AS among one class, and that
/// class's wire bytes. (Unfiltered counts would be zone-answered and
/// never load a segment.)
fn plain_pass(rows: &[StoredEvent], class: UpdateClass) -> (Vec<(Asn, u64)>, u64) {
    let mut by_peer: HashMap<Asn, u64> = HashMap::new();
    let mut bytes = 0u64;
    for r in rows.iter().filter(|r| r.class == class) {
        *by_peer.entry(r.peer.asn).or_insert(0) += 1;
        bytes += u64::from(r.size);
    }
    let mut by_peer: Vec<(Asn, u64)> = by_peer.into_iter().collect();
    by_peer.sort_by_key(|&(asn, n)| (std::cmp::Reverse(n), asn));
    (by_peer, bytes)
}

/// Compaction rewrites canonical file names under a pinned reader. With
/// the shared segment cache warm on both sides, the old pin and a new
/// snapshot — asked alternately — must each keep answering for their own
/// generation: a cache keyed by file name would hand one the other's
/// segment. The compaction drops the entries of the files it retired, so
/// the old pin's next query goes back to disk and finds them under
/// `retired/`.
#[test]
fn cache_keeps_pinned_and_new_generations_apart_across_name_reuse() {
    let dir = temp_store_dir("cache-name-reuse");
    let live = open_live(&dir, 32);
    let mut old_rows = batch(1, 150);
    old_rows.extend(batch(2, 150));
    live.append_events(&old_rows[..150]).unwrap();
    live.append_events(&old_rows[150..]).unwrap();
    // Canonical names are the ones compaction reuses, so the pin must
    // hold some: fold the tails into the chains before taking it.
    live.compact(32).unwrap();

    let class = UpdateClass::ALL[1];
    let q = Query::default().class(class);
    let ask = |store: &mut Store| {
        let (by_peer, peer_stats) = store.count_by_peer(&q).unwrap();
        let (bytes, _) = store.sum_bytes(&q).unwrap();
        ((by_peer, bytes), peer_stats)
    };

    // Pin, and warm the cache with the pinned generation's segments.
    let mut old = live.snapshot();
    let (answer, cold) = ask(&mut old);
    assert_eq!(answer, plain_pass(&old_rows, class));
    assert!(cold.bytes_read > 0 && cold.segments_cached == 0);
    let (_, warm) = ask(&mut old);
    assert_eq!(
        (warm.bytes_read, warm.segments_cached),
        (0, warm.segments_scanned)
    );

    // Append, then compact: every chain that received rows is re-cut
    // from its partial last segment, so those pinned file names now hold
    // other bytes.
    let mut new_rows = old_rows.clone();
    new_rows.extend(batch(3, 150));
    live.append_events(&new_rows[300..]).unwrap();
    let report = live.compact(32).unwrap();
    assert!(report.shards_rewritten > 0);
    let reused = live
        .manifest()
        .segments
        .iter()
        .filter(|m| {
            old.manifest()
                .segments
                .iter()
                .any(|o| o.file == m.file && o != *m)
        })
        .count();
    assert!(reused > 0, "compaction must have reused pinned file names");
    let after_compact = live.cache_stats();
    assert!(after_compact.invalidations > 0, "{after_compact:?}");

    // The old pin lost its entries with the files' retirement: its next
    // query reloads them from the retired tree, the one after is warm.
    let mut new = live.snapshot();
    let (answer, reloaded) = ask(&mut old);
    assert_eq!(answer, plain_pass(&old_rows, class));
    assert!(reloaded.bytes_read > 0, "{reloaded:?}");
    assert_eq!(reloaded.segments_quarantined, 0);
    for round in 0..3 {
        let (answer, stats) = ask(&mut new);
        assert_eq!(answer, plain_pass(&new_rows, class), "new, round {round}");
        assert_eq!(stats.segments_quarantined, 0);
        let (answer, stats) = ask(&mut old);
        assert_eq!(answer, plain_pass(&old_rows, class), "old, round {round}");
        assert_eq!((stats.bytes_read, stats.segments_quarantined), (0, 0));
    }
    assert!(live.cache_stats().hits > after_compact.hits);

    drop((old, new));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The cost of an append is a constant of the commit protocol, not a
/// function of the batch: one row or ten thousand, the same counted
/// operations and one new segment file.
#[test]
fn an_append_costs_the_same_operations_and_one_file_at_any_size() {
    let seg_files = |dir: &Path| {
        let paths = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path());
        paths
            .filter(|p| p.extension().is_some_and(|x| x == "seg"))
            .count()
    };
    let dir = temp_store_dir("append-ops");
    let counting = Arc::new(FaultyFs::counting());
    let opts = LiveOptions {
        fs: counting.clone(),
        create_segment_rows: Some(64),
        ..LiveOptions::default()
    };
    let live = LiveStore::open_with(&dir, &opts).unwrap();
    let mut costs = Vec::new();
    for n in [1, 10_000] {
        let (ops, files) = (counting.ops(), seg_files(&dir));
        live.append_events(&batch(n, n)).unwrap();
        costs.push(counting.ops() - ops);
        assert_eq!(seg_files(&dir), files + 1, "{n} rows");
    }
    assert_eq!(costs, [15, 15]);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Thread-stress proof of snapshot isolation: one writer appends known
/// batches and compacts between them while reader threads hammer
/// snapshots. Every response is checked against an oracle computed
/// purely in memory for the generation the reader pinned — any torn
/// read, any scan of a retired-and-reclaimed file, any cross-generation
/// mix would produce counts no oracle entry matches.
#[test]
fn concurrent_readers_vs_mutators_match_quiesced_oracle() {
    const ROUNDS: u64 = 12;
    const READERS: usize = 4;

    let dir = temp_store_dir("stress");
    let live = Arc::new(open_live(&dir, 48));

    // expected[generation] = (class counts, total wire bytes) of the
    // store content at that generation. Recorded *before* each commit so
    // a reader can never observe a generation the oracle lacks.
    let expected: Arc<Mutex<Oracle>> = Arc::new(Mutex::new(HashMap::new()));
    let mut all_rows: Vec<StoredEvent> = Vec::new();
    expected
        .lock()
        .unwrap()
        .insert(1, (class_counts(&all_rows), 0));

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let live = Arc::clone(&live);
            let expected = Arc::clone(&expected);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut checked = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let mut snap = live.snapshot();
                    let generation = snap.generation();
                    let (counts, _) = snap.count_by_class(&Query::default()).unwrap();
                    let (bytes, _) = snap.sum_bytes(&Query::default()).unwrap();
                    let want = expected.lock().unwrap()[&generation];
                    assert_eq!(
                        (counts, bytes),
                        want,
                        "generation {generation} served content not matching its quiesced oracle"
                    );
                    checked += 1;
                }
                checked
            })
        })
        .collect();

    for round in 1..=ROUNDS {
        let rows = batch(round, 120);
        all_rows.extend_from_slice(&rows);
        let counts = class_counts(&all_rows);
        let bytes: u64 = all_rows.iter().map(|r| u64::from(r.size)).sum();
        let next = live.generation() + 1;
        expected.lock().unwrap().insert(next, (counts, bytes));
        assert_eq!(live.append_events(&rows).unwrap(), next);
        if round % 3 == 0 {
            // Compaction changes bytes on disk but not logical content.
            let next = live.generation() + 1;
            expected.lock().unwrap().insert(next, (counts, bytes));
            live.compact(48).unwrap();
        }
    }
    stop.store(true, Ordering::Relaxed);
    let mut total_checked = 0;
    for r in readers {
        total_checked += r.join().expect("reader thread");
    }
    assert!(total_checked > 0, "readers must have exercised snapshots");

    // Quiesced ground truth: a cold offline open agrees with the oracle
    // for the final generation.
    let final_gen = live.generation();
    drop(live);
    let mut cold = Store::open(&dir).unwrap();
    assert_eq!(cold.generation(), final_gen);
    let (counts, _) = cold.count_by_class(&Query::default()).unwrap();
    let (bytes, _) = cold.sum_bytes(&Query::default()).unwrap();
    assert_eq!((counts, bytes), expected.lock().unwrap()[&final_gen]);
    std::fs::remove_dir_all(&dir).unwrap();
}
