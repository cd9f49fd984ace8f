//! The two append-only logs — the boundary chain's `CHAIN.log` and the
//! store's `MANIFEST.journal` — share one record-log codec and one
//! torn-tail rule (`iri_store::frame`). Tier-1 holds the chain to that
//! rule at every byte of its last two frames, and holds both logs to
//! refusing the formats older builds wrote without touching them.
//! (`crates/store/tests/frame_props.rs` is the codec's property suite.)

use iri_bgp::types::{Asn, Prefix};
use iri_chain::{
    encode_event, entry_hash, ChainError, ChainTape, EntryKind, Genesis, Mark, CHAIN_FILE,
};
use iri_core::input::PeerKey;
use iri_core::taxonomy::UpdateClass;
use iri_store::{
    nlri_wire_bytes, LiveOptions, LiveStore, Store, StoreError, StoredEvent, JOURNAL_FILE,
    MANIFEST_FILE,
};
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iri-record-log-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn genesis() -> Genesis {
    Genesis {
        fingerprint: 0x5eed_f00d,
        seed: 7,
        days: 1,
        hours: 1,
        batch_events: 4,
        segment_rows: 64,
        name: "record log".to_owned(),
        start_day: 0,
    }
}

fn event(i: u32) -> StoredEvent {
    let prefix = Prefix::from_raw(0xc100_0000 + (i << 8), 24);
    StoredEvent {
        time_ms: u64::from(i) * 1_000,
        peer: PeerKey {
            asn: Asn(701 + i % 3),
            addr: Ipv4Addr::new(192, 41, 177, 1 + (i % 3) as u8),
        },
        prefix,
        class: UpdateClass::ALL[i as usize % UpdateClass::COUNT],
        cause: Default::default(),
        policy_change: false,
        size: nlri_wire_bytes(prefix),
    }
}

/// What a load of the chain cut after one whole entry must report.
#[derive(Debug, Clone, Copy)]
struct Boundary {
    /// File length once the entry is flushed.
    end: u64,
    /// Entries and events up to and including it.
    entries: u64,
    events: u64,
    /// The head hash with it as the last entry.
    head: u64,
}

/// Records one fixed chain into `dir`, flushing after every entry so
/// each one ends a frame, and returns the boundary after every entry.
fn record(dir: &Path) -> Vec<Boundary> {
    // The store's default filesystem is the real one.
    let fs = LiveOptions::default().fs;
    let mut tape = ChainTape::create(fs, dir, &genesis()).expect("create chain");
    let path = dir.join(CHAIN_FILE);
    let mut events = 0;
    let mut bounds = Vec::new();
    let mark = |tape: &ChainTape, events: u64| Boundary {
        end: std::fs::metadata(&path).expect("chain file").len(),
        entries: tape.len() as u64,
        events,
        head: tape.head_hash(),
    };
    bounds.push(mark(&tape, 0));
    let day = Mark::DayStart {
        run_day: 0,
        sim_day: 0,
    };
    tape.cross(day.kind(), day.encode()).expect("day");
    tape.flush().expect("flush");
    bounds.push(mark(&tape, 0));
    for i in 0..6 {
        tape.cross(EntryKind::Event, encode_event(&event(i)))
            .expect("event");
        tape.flush().expect("flush");
        events += 1;
        bounds.push(mark(&tape, events));
    }
    let ckpt = Mark::Checkpoint {
        run_day: 0,
        events,
        census_prefixes: 6,
        spills: 0,
        restores: 0,
        spill_bytes_written: 0,
        spill_bytes_read: 0,
    };
    tape.cross(ckpt.kind(), ckpt.encode()).expect("ckpt");
    tape.flush().expect("flush");
    bounds.push(mark(&tape, events));
    bounds
}

#[test]
fn a_chain_cut_anywhere_in_its_last_two_frames_loads_its_whole_prefix() {
    let dir = temp_dir("cut");
    let bounds = record(&dir);
    let full = std::fs::read(dir.join(CHAIN_FILE)).expect("chain");
    assert_eq!(full.len() as u64, bounds.last().unwrap().end);
    let from = bounds[bounds.len() - 3].end as usize;
    let cut_dir = temp_dir("cut-copy");
    std::fs::create_dir_all(&cut_dir).unwrap();
    for cut in from..=full.len() {
        std::fs::write(cut_dir.join(CHAIN_FILE), &full[..cut]).unwrap();
        let want = *bounds.iter().rev().find(|b| b.end <= cut as u64).unwrap();
        let tape = ChainTape::load(LiveOptions::default().fs, &cut_dir)
            .unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
        let got = tape.summary();
        assert_eq!(got.entries, want.entries, "cut at {cut}");
        assert_eq!(got.events, want.events, "cut at {cut}");
        assert_eq!(got.head, want.head, "cut at {cut}");
        assert_eq!(got.truncated, cut as u64 - want.end, "cut at {cut}");
        // The repair leaves exactly the valid prefix behind.
        let repaired = std::fs::read(cut_dir.join(CHAIN_FILE)).unwrap();
        assert_eq!(repaired, &full[..want.end as usize], "cut at {cut}");
    }
    for d in [dir, cut_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// A chain as builds before the frame codec wrote it: one
/// `<seq> <kind> <prev:016x> <hash:016x> <payload>` line per entry.
fn text_line_chain() -> String {
    let entries = [
        (EntryKind::Genesis, genesis().encode()),
        (EntryKind::Event, encode_event(&event(0))),
    ];
    let mut text = String::new();
    let mut prev = 0;
    for (seq, (kind, payload)) in entries.iter().enumerate() {
        let hash = entry_hash(seq as u64, *kind, payload, prev);
        text.push_str(&format!("{seq} {kind} {prev:016x} {hash:016x} {payload}\n"));
        prev = hash;
    }
    text
}

#[test]
fn a_text_line_chain_is_refused_and_left_untouched() {
    let dir = temp_dir("old-chain");
    std::fs::create_dir_all(&dir).unwrap();
    let old = text_line_chain();
    std::fs::write(dir.join(CHAIN_FILE), &old).unwrap();
    match ChainTape::load(LiveOptions::default().fs, &dir) {
        Err(ChainError::Corrupt { seq: 0, reason }) => {
            assert!(reason.contains("text-line chain"), "{reason}");
        }
        other => panic!("expected a corrupt chain, got {other:?}"),
    }
    assert_eq!(std::fs::read(dir.join(CHAIN_FILE)).unwrap(), old.as_bytes());
    let names: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert_eq!(names.len(), 1, "nothing but the chain: {names:?}");
    let _ = std::fs::remove_dir_all(dir);
}

/// Every file under `dir`, by relative path.
fn tree(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for e in std::fs::read_dir(&d).unwrap() {
            let p = e.unwrap().path();
            if p.is_dir() {
                stack.push(p);
            } else {
                let bytes = std::fs::read(&p).unwrap();
                out.push((p.strip_prefix(dir).unwrap().to_path_buf(), bytes));
            }
        }
    }
    out.sort();
    out
}

#[test]
fn a_json_lines_journal_is_refused_and_left_untouched() {
    let dir = temp_dir("old-journal");
    let opts = LiveOptions {
        create_segment_rows: Some(64),
        ..LiveOptions::default()
    };
    let store = LiveStore::open_with(&dir, &opts).expect("create store");
    store
        .append_events(&(0..40).map(event).collect::<Vec<_>>())
        .expect("append");
    drop(store);
    // A commit an older build sealed but never published: its begin
    // and commit records, one JSON object per line.
    let manifest = std::fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
    let manifest: String = manifest.split_whitespace().collect();
    let journal = format!(
        "{{\"version\":1,\"generation\":9,\"state\":\"begin\",\"segment_rows\":64,\"sum\":0,\"manifest\":null}}\n\
         {{\"version\":1,\"generation\":9,\"state\":\"commit\",\"segment_rows\":64,\"sum\":1,\"manifest\":{manifest}}}\n"
    );
    std::fs::write(dir.join(JOURNAL_FILE), journal).unwrap();
    let before = tree(&dir);
    for (mode, opened) in [
        ("tolerant", Store::open(&dir)),
        ("strict", Store::open_strict(&dir)),
    ] {
        match opened {
            Err(StoreError::Corrupt { path, what }) => {
                assert_eq!(path, dir.join(JOURNAL_FILE), "{mode}");
                assert!(what.contains("JSON-lines journal"), "{mode}: {what}");
            }
            Err(other) => panic!("{mode}: expected a corrupt journal, got {other}"),
            Ok(_) => panic!("{mode}: a JSON-lines journal must not open"),
        }
        assert_eq!(tree(&dir), before, "{mode} open touched the directory");
    }
    let _ = std::fs::remove_dir_all(dir);
}
