//! The fold is canonical, whatever the batching: rows appended to a
//! live store as tails — in any split, with compactions anywhere in
//! between — end, after a final compaction, as the very bytes one bulk
//! writer makes of the same rows; until then a snapshot reads every
//! logical shard's row stream, and answers every aggregate, as the bulk
//! store would; and a compaction pays for the tails and one chain end
//! per shard, never for the full segments already in the chains.

use iri_bgp::types::{Asn, Prefix};
use iri_core::input::PeerKey;
use iri_core::taxonomy::UpdateClass;
use iri_faults::FaultyFs;
use iri_obs::cause::Cause;
use iri_store::{
    logical_shard, nlri_wire_bytes, LiveOptions, LiveStore, Manifest, Query, Store, StoreWriter,
    StoredEvent, LOGICAL_SHARDS, MANIFEST_FILE, TAIL_SHARD,
};
use proptest::prelude::*;
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn temp_store_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "iri-tail-fold-{}-{}-{tag}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// 8 peers × 128 prefixes: 1 024 pairs, some 32 to a logical shard.
fn row() -> impl Strategy<Value = StoredEvent> {
    (
        0u64..7_200_000,
        0u32..8,
        0u32..128,
        0..UpdateClass::COUNT,
        0..Cause::COUNT,
        any::<bool>(),
    )
        .prop_map(|(time_ms, peer, prefix, class, cause, policy_change)| {
            let prefix = Prefix::from_raw(0xc100_0000 + (prefix << 8), 24);
            StoredEvent {
                time_ms,
                peer: PeerKey {
                    asn: Asn(701 + peer),
                    addr: Ipv4Addr::new(192, 41, 177, 1 + peer as u8),
                },
                prefix,
                class: UpdateClass::ALL[class],
                cause: Cause::ALL[cause],
                policy_change,
                size: nlri_wire_bytes(prefix),
            }
        })
}

/// What one bulk writer makes of `rows`.
fn bulk_store(tag: &str, rows: &[StoredEvent], segment_rows: u32) -> PathBuf {
    let dir = temp_store_dir(tag);
    let mut writer = StoreWriter::create(&dir, segment_rows).unwrap();
    rows.iter().try_for_each(|r| writer.push(r)).unwrap();
    writer.commit(0).unwrap();
    dir
}

/// Everything a reader can ask of a store, scan order reduced to what
/// the contract promises: each logical shard's row stream.
#[derive(Debug, PartialEq)]
struct Answers {
    shard_streams: Vec<Vec<StoredEvent>>,
    by_class: Vec<[u64; UpdateClass::COUNT]>,
    by_peer: Vec<Vec<(Asn, u64)>>,
    bytes: Vec<u64>,
    series: Vec<Vec<u64>>,
}

fn answers(store: &mut Store) -> Answers {
    let mut shard_streams = vec![Vec::new(); LOGICAL_SHARDS];
    store
        .scan(&Query::default(), |ev| {
            shard_streams[logical_shard(ev.peer.asn, ev.prefix)].push(*ev);
        })
        .unwrap();
    // Whole-store aggregates are answered from zone maps; the windowed,
    // class-filtered ones have to decode rows.
    let queries = [
        Query::default(),
        Query::default()
            .time_range_ms(1_000_000, 5_000_000)
            .class(UpdateClass::ALL[2]),
    ];
    let each = queries.iter();
    Answers {
        shard_streams,
        by_class: each
            .clone()
            .map(|q| store.count_by_class(q).unwrap().0)
            .collect(),
        by_peer: each
            .clone()
            .map(|q| store.count_by_peer(q).unwrap().0)
            .collect(),
        bytes: each
            .clone()
            .map(|q| store.sum_bytes(q).unwrap().0)
            .collect(),
        series: each
            .map(|q| store.time_series(q, 600_000).unwrap().0)
            .collect(),
    }
}

/// The files in a store's root except the manifest, by name.
fn root_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.is_file() && !p.ends_with(MANIFEST_FILE))
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&p).unwrap())
        })
        .collect();
    files.sort();
    files
}

fn manifest_on_disk(dir: &Path) -> Manifest {
    iri_store::query::parse_manifest(&std::fs::read(dir.join(MANIFEST_FILE)).unwrap()).unwrap()
}

/// Compacts, and holds the operations it counted against what the
/// manifests say it had to do.
fn compact_paying_only_for_chain_ends(live: &LiveStore, counting: &FaultyFs, segment_rows: u32) {
    let before = live.manifest();
    let ops = counting.ops();
    live.compact(segment_rows).unwrap();
    let ops = counting.ops() - ops;
    let after = live.manifest();
    assert!(after.segments.iter().all(|m| m.shard < TAIL_SHARD));

    let tails = before.tails().count() as u64;
    let missing = |from: &Manifest, of: &Manifest| {
        let gone = of.segments.iter().filter(|m| !from.segments.contains(m));
        gone.count() as u64
    };
    let (replaced, written) = (missing(&after, &before), missing(&before, &after));
    if (tails, replaced, written) == (0, 0, 0) {
        assert_eq!(ops, 0, "a canonical store is left alone");
        return;
    }
    // Begin, seal, publish and retire are twelve operations; a replaced
    // file is read once and renamed once; a new one is written, renamed
    // and fsynced. Nothing is left over for the segments that stay.
    assert_eq!(ops, 12 + 2 * replaced + 3 * written);
    assert!(
        replaced <= tails + LOGICAL_SHARDS as u64,
        "{replaced} files read for {tails} tails"
    );
    let full = before
        .segments
        .iter()
        .filter(|m| m.shard < TAIL_SHARD && m.rows == u64::from(segment_rows));
    for kept in full {
        assert!(after.segments.contains(kept), "{} was rewritten", kept.file);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn tails_fold_to_the_bulk_writers_bytes_at_any_batching(
        rows in prop::collection::vec(row(), 3_000..3_400),
        wide in any::<bool>(),
        cuts in prop::collection::vec(0usize..3_000, 0..=8),
        lone in 0usize..2_999,
        compact_after in any::<u16>(),
    ) {
        let segment_rows = if wide { 64 } else { 16 };
        // Between four and twelve batches: the random cuts, a batch of
        // the one row at `lone`, and an empty batch right after it.
        let mut bounds = [vec![0, lone, lone + 1, lone + 1, rows.len()], cuts].concat();
        bounds.sort_unstable();

        let dir = temp_store_dir("live");
        let counting = Arc::new(FaultyFs::counting());
        let opts = LiveOptions {
            fs: counting.clone(),
            create_segment_rows: Some(segment_rows),
            ..LiveOptions::default()
        };
        let live = LiveStore::open_with(&dir, &opts).unwrap();
        for (i, batch) in bounds.windows(2).enumerate() {
            live.append_events(&rows[batch[0]..batch[1]]).unwrap();
            if compact_after & (1 << i) == 0 {
                continue;
            }
            let reference = bulk_store("so-far", &rows[..batch[1]], segment_rows);
            prop_assert_eq!(
                answers(&mut live.snapshot()),
                answers(&mut Store::open(&reference).unwrap())
            );
            std::fs::remove_dir_all(&reference).unwrap();
            compact_paying_only_for_chain_ends(&live, &counting, segment_rows);
        }
        compact_paying_only_for_chain_ends(&live, &counting, segment_rows);

        let reference = bulk_store("whole", &rows, segment_rows);
        prop_assert_eq!(
            answers(&mut live.snapshot()),
            answers(&mut Store::open(&reference).unwrap())
        );
        prop_assert_eq!(root_files(&dir), root_files(&reference));
        let mut manifest = manifest_on_disk(&dir);
        manifest.generation = manifest_on_disk(&reference).generation;
        prop_assert_eq!(manifest, manifest_on_disk(&reference));
        std::fs::remove_dir_all(&reference).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
