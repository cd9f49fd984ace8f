//! The live write path as tier-1 sees it: every `append_events` commits
//! one tail segment file whatever it holds, and compaction folds the
//! tails into exactly the store a bulk writer makes of the same rows.
//! (`crates/store/tests/tail_fold.rs` is the property over random rows
//! and batchings; this is one fixed case of it.)

use iri_bgp::types::{Asn, Prefix};
use iri_core::input::PeerKey;
use iri_core::taxonomy::UpdateClass;
use iri_store::{nlri_wire_bytes, LiveOptions, LiveStore, StoreWriter, StoredEvent, MANIFEST_FILE};
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};

const SEGMENT_ROWS: u32 = 16;

fn temp_store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iri-live-tail-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// 900 rows over 5 peers × 64 prefixes: every logical shard gets some,
/// most get more than one segment's worth.
fn rows() -> Vec<StoredEvent> {
    (0..900u32)
        .map(|i| {
            let prefix = Prefix::from_raw(0xc100_0000 + ((i * 7 % 64) << 8), 24);
            StoredEvent {
                time_ms: u64::from(i) * 250,
                peer: PeerKey {
                    asn: Asn(701 + i % 5),
                    addr: Ipv4Addr::new(192, 41, 177, 1 + (i % 5) as u8),
                },
                prefix,
                class: UpdateClass::ALL[i as usize % UpdateClass::COUNT],
                cause: Default::default(),
                policy_change: i % 11 == 0,
                size: nlri_wire_bytes(prefix),
            }
        })
        .collect()
}

/// Every file in a store's root, by name, the manifest's generation
/// line aside: how many commits made a store is not part of what it is.
fn root_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.is_file())
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            let mut bytes = std::fs::read(&p).unwrap();
            if name == MANIFEST_FILE {
                let text = String::from_utf8(bytes).unwrap();
                let kept = text.lines().filter(|l| !l.contains("\"generation\""));
                bytes = kept.collect::<Vec<_>>().join("\n").into_bytes();
            }
            (name, bytes)
        })
        .collect();
    files.sort();
    files
}

fn seg_files(dir: &Path) -> usize {
    let names = root_files(dir).into_iter().map(|(name, _)| name);
    names.filter(|name| name.ends_with(".seg")).count()
}

#[test]
fn each_append_adds_one_file_and_compaction_folds_them_to_the_bulk_store() {
    let rows = rows();
    let dir = temp_store_dir("live");
    let opts = LiveOptions {
        create_segment_rows: Some(SEGMENT_ROWS),
        ..LiveOptions::default()
    };
    let live = LiveStore::open_with(&dir, &opts).unwrap();
    // Uneven batches, one of a single row, with a compaction in the
    // middle so the second fold continues chains the first one cut.
    for (i, bounds) in [0, 400, 401, 650, 900].windows(2).enumerate() {
        let files = seg_files(&dir);
        live.append_events(&rows[bounds[0]..bounds[1]]).unwrap();
        assert_eq!(seg_files(&dir), files + 1, "append {i}");
        if i == 1 {
            live.compact(SEGMENT_ROWS).unwrap();
        }
    }
    live.compact(SEGMENT_ROWS).unwrap();
    assert_eq!(live.manifest().total_events, 900);

    let reference = temp_store_dir("bulk");
    let mut writer = StoreWriter::create(&reference, SEGMENT_ROWS).unwrap();
    rows.iter().try_for_each(|r| writer.push(r)).unwrap();
    writer.commit(0).unwrap();

    let (live_files, bulk_files) = (root_files(&dir), root_files(&reference));
    assert!(bulk_files.len() > 32 + 1, "chains of several segments");
    assert_eq!(live_files, bulk_files);
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&reference).unwrap();
}
