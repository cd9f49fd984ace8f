//! Fault-injection and crash-recovery tests: the crash matrix (kill
//! ingest at every counted I/O operation and every commit step, then
//! prove `Store::open` recovers), transient-error retry accounting, and
//! property tests over random corruption.
//!
//! The contract under test is all-or-previous atomicity: a store
//! surviving a crash at ANY point of the ingest commit protocol recovers
//! to either the fully committed new store (byte-identical replay to a
//! clean run) or the previous store (the empty store, for a first
//! ingest) — never a torn hybrid, and never a panic.

use iri_faults::{FaultKind, FaultPlan, FaultyFs, RetryPolicy};
use iri_mrt::{Bgp4mpMessage, MrtReader, MrtRecord, MrtWriter};
use iri_store::{ingest_mrt, IngestConfig, OpenOptions, Query, Store, StoreError, StoredEvent};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const BASE_TIME: u32 = 833_000_000;

fn temp_store_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "iri-fault-test-{}-{}-{tag}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Small deterministic MRT log exercising several peers and prefixes.
fn synthetic_log(records: usize) -> Vec<u8> {
    use iri_bgp::attrs::{Origin, PathAttributes};
    use iri_bgp::message::{Message, Update};
    use iri_bgp::path::AsPath;
    use iri_bgp::types::{Asn, Prefix};
    use std::net::Ipv4Addr;

    let mut state = 0xfa17_5eed_u64;
    let mut rng = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    let mut buf = Vec::new();
    let mut w = MrtWriter::new(&mut buf);
    for i in 0..records {
        let r = rng();
        let peer_asn = Asn(701 + (r % 4) as u32);
        let peer_ip = Ipv4Addr::new(192, 41, 177, 1 + (r % 4) as u8);
        let prefix = Prefix::from_raw(0xc600_0000 + (((r as u32 >> 2) % 40) << 8), 24);
        let update = if r % 4 == 0 {
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
                    AsPath::from_sequence([peer_asn, Asn(7000 + (r % 2) as u32)]),
                    peer_ip,
                )),
                nlri: vec![prefix],
            }
        };
        w.write(&MrtRecord::Bgp4mpMessage(Bgp4mpMessage {
            timestamp: BASE_TIME + (i / 8) as u32,
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

/// Single-threaded ingest config over the given fault plan. One worker
/// keeps the counted operation stream deterministic.
fn faulty_config(plan: FaultPlan, segment_rows: u32) -> (IngestConfig, Arc<FaultyFs>) {
    let fs = Arc::new(FaultyFs::new(plan));
    let cfg = IngestConfig::default()
        .with_jobs(1)
        .with_segment_rows(segment_rows)
        .with_fs(fs.clone())
        .with_retry(RetryPolicy::none());
    (cfg, fs)
}

fn ingest_with(dir: &Path, log: &[u8], cfg: &IngestConfig) -> Result<(), StoreError> {
    let mut reader = MrtReader::new(log);
    ingest_mrt(dir, &mut reader, BASE_TIME, cfg).map(|_| ())
}

/// Replays every stored event through a default query, in scan order.
fn replay_events(dir: &Path) -> Vec<StoredEvent> {
    let mut store = Store::open(dir).expect("recovered store must open");
    let mut events = Vec::new();
    store
        .scan(&Query::default(), |ev| events.push(*ev))
        .expect("recovered store must scan");
    events
}

/// Sorted (name, bytes) listing of the store directory, ignoring the
/// quarantine subdirectory.
fn store_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut entries: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let e = e.unwrap();
            if e.path().is_dir() {
                return None;
            }
            Some((
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).unwrap(),
            ))
        })
        .collect();
    entries.sort();
    entries
}

/// Kills ingest at every counted I/O operation, then proves recovery:
/// the reopened store replays either byte-identically to the clean run
/// (crash at/after the commit point) or empty (before it) — and after
/// one recovery the store is clean.
#[test]
fn crash_matrix_kill_at_every_operation() {
    let log = synthetic_log(300);
    let rows = 64;

    // Clean single-threaded reference run, counting operations.
    let clean_dir = temp_store_dir("matrix-clean");
    let (cfg, fs) = faulty_config(FaultPlan::new(), rows);
    ingest_with(&clean_dir, &log, &cfg).expect("clean ingest");
    let total_ops = fs.ops();
    assert!(total_ops > 20, "expected a real operation stream");
    let clean_events = replay_events(&clean_dir);
    let clean_files = store_files(&clean_dir);
    assert!(!clean_events.is_empty());

    let mut committed = 0u64;
    let mut rolled_back = 0u64;
    for kill_op in 0..total_ops {
        let dir = temp_store_dir(&format!("matrix-op{kill_op}"));
        let (cfg, fs) = faulty_config(FaultPlan::new().kill_at_op(kill_op), rows);
        let err = ingest_with(&dir, &log, &cfg).expect_err("killed ingest must error");
        assert!(fs.killed(), "op {kill_op}: kill fault must have fired");
        assert!(
            matches!(err, StoreError::Io { .. } | StoreError::Ingest(_)),
            "op {kill_op}: unexpected error {err}"
        );

        match Store::open(&dir) {
            // Killed before even the journal's begin record landed: the
            // store never came to exist — the "previous" state of a
            // first ingest.
            Err(e) => {
                assert!(
                    matches!(e, StoreError::Io { .. }),
                    "op {kill_op}: pre-begin crash must leave a typed I/O error, got {e}"
                );
                rolled_back += 1;
            }
            Ok(_) => {
                let events = replay_events(&dir);
                if events.is_empty() {
                    rolled_back += 1;
                } else {
                    assert_eq!(
                        events, clean_events,
                        "op {kill_op}: committed recovery must replay byte-identically"
                    );
                    assert_eq!(
                        store_files(&dir),
                        clean_files,
                        "op {kill_op}: recovered store files must match the clean run"
                    );
                    committed += 1;
                }
                // Recovery is idempotent: the second open has nothing to do.
                let store = Store::open(&dir).expect("second open");
                assert!(
                    store.recovery().is_clean(),
                    "op {kill_op}: second open must be clean"
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
    // The matrix must have exercised both sides of the commit point.
    assert!(rolled_back > 0, "no kill rolled back");
    assert!(committed > 0, "no kill landed after the commit point");
    std::fs::remove_dir_all(&clean_dir).unwrap();
}

/// Kills ingest at each named commit step and pins the exact outcome:
/// before `JournalSealed` the recovered store is empty, from
/// `JournalSealed` on it is the committed store.
#[test]
fn crash_matrix_kill_at_every_commit_step() {
    use iri_store::CommitStep;

    let log = synthetic_log(300);
    let rows = 64;
    let clean_dir = temp_store_dir("steps-clean");
    let (cfg, _) = faulty_config(FaultPlan::new(), rows);
    ingest_with(&clean_dir, &log, &cfg).expect("clean ingest");
    let clean_events = replay_events(&clean_dir);
    let clean_files = store_files(&clean_dir);

    for step in CommitStep::ALL {
        let dir = temp_store_dir(&format!("steps-{step}"));
        let (cfg, fs) = faulty_config(FaultPlan::new().kill_at_step(step), rows);
        ingest_with(&dir, &log, &cfg).expect_err("killed ingest must error");
        assert!(fs.killed(), "{step}: kill must have fired");

        let events = replay_events(&dir);
        let expect_committed = step >= CommitStep::JournalSealed;
        if expect_committed {
            assert_eq!(events, clean_events, "{step}: must recover the commit");
            assert_eq!(
                store_files(&dir),
                clean_files,
                "{step}: recovered files must be byte-identical to a clean run"
            );
        } else {
            assert!(
                events.is_empty(),
                "{step}: pre-commit crash must roll back to the empty store"
            );
        }
        // Strict open refuses to touch a store that still needs recovery;
        // after the tolerant open above repaired it, strict succeeds.
        let store = Store::open_strict(&dir).expect("repaired store opens strict");
        assert!(store.recovery().is_clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&clean_dir).unwrap();
}

/// A crash mid-second-ingest must recover the FIRST store, not an empty
/// one: all-or-previous, not all-or-nothing.
#[test]
fn crash_during_reingest_recovers_previous_generation() {
    let first = synthetic_log(200);
    let second = synthetic_log(300);
    let dir = temp_store_dir("reingest-crash");
    let (cfg, _) = faulty_config(FaultPlan::new(), 64);
    ingest_with(&dir, &first, &cfg).expect("first ingest");
    let first_events = replay_events(&dir);
    let first_gen = Store::open(&dir).unwrap().manifest().generation;
    assert!(!first_events.is_empty());

    // Kill the second ingest while its segments are being written: after
    // the journal begin (3 ops) and the prepare_dir removals, before its
    // commit record.
    let (cfg, fs) = faulty_config(FaultPlan::new().kill_at_op(40), 64);
    ingest_with(&dir, &second, &cfg).expect_err("killed reingest");
    assert!(fs.killed());

    let events = replay_events(&dir);
    let store = Store::open(&dir).unwrap();
    // The second ingest journals a new generation, then clears the old
    // segments; its crash rolls forward to that generation's intent —
    // empty — never to a half-written mix of both runs.
    assert!(
        events.is_empty() || events == first_events,
        "recovered store must be one of the two consistent states, got {} events",
        events.len()
    );
    assert!(store.manifest().generation >= first_gen);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Transient injected errors are retried with backoff, the ingest
/// succeeds, and the retries surface in both `IngestOutcome::retries`
/// and the `store.ingest.retries` counter.
#[test]
fn transient_errors_are_retried_and_counted() {
    let log = synthetic_log(200);
    let dir = temp_store_dir("retry");
    // Ops 0–1 read the (absent) manifest and journal for the generation
    // probe; ops 2–4 are the journal begin (write, sync, sync_dir).
    // Segment I/O — the retried region — starts at op 5.
    let plan = FaultPlan::new().transient_error_at(6).transient_error_at(9);
    let fs = Arc::new(FaultyFs::new(plan));
    let mut cfg = IngestConfig::default()
        .with_jobs(1)
        .with_segment_rows(64)
        .with_fs(fs.clone());
    cfg.pipeline.obs = true;
    let mut reader = MrtReader::new(log.as_slice());
    let outcome = ingest_mrt(&dir, &mut reader, BASE_TIME, &cfg).expect("retries must succeed");
    assert_eq!(
        outcome.retries, 2,
        "each injected transient costs one retry"
    );
    assert_eq!(
        outcome
            .analysis
            .registry
            .counter_value("store.ingest.retries"),
        Some(2)
    );
    // The store the retried ingest produced is fully intact.
    let events = replay_events(&dir);
    assert_eq!(events.len() as u64, outcome.manifest.total_events);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// With retries disabled, the same transient error is fatal and maps to
/// an I/O error carrying the failing path.
#[test]
fn transient_errors_without_retry_fail_ingest() {
    let log = synthetic_log(200);
    let dir = temp_store_dir("retry-none");
    let (cfg, _) = faulty_config(FaultPlan::new().transient_error_at(6), 64);
    let err = ingest_with(&dir, &log, &cfg).expect_err("no-retry ingest must fail");
    assert!(
        matches!(err, StoreError::Io { .. } | StoreError::Ingest(_)),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Seeded one-fault plans (the randomized smoke corner of the injector)
/// never panic the stack: ingest either succeeds or errors, and the
/// directory always recovers into an openable store afterwards.
#[test]
fn seeded_fault_plans_never_panic() {
    let log = synthetic_log(150);
    for seed in 0..24u64 {
        let dir = temp_store_dir(&format!("seeded-{seed}"));
        let (cfg, _) = faulty_config(FaultPlan::seeded(seed, 60), 64);
        let _ = ingest_with(&dir, &log, &cfg);
        // Whatever the fault did, recovery must produce a servable store
        // (or a clean error — a silently-corrupted manifest-less dir).
        match Store::open(&dir) {
            Ok(mut store) => {
                store.scan(&Query::default(), |_| {}).expect("scan");
            }
            Err(e) => {
                // Acceptable only as a typed store error, never a panic.
                let _ = e.exit_code();
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A failed segment load is never cached. The first load of one segment
/// is damaged in flight — a flipped byte, or a transient read error —
/// while the file on disk stays intact: the query that hit it degrades
/// exactly as before the cache existed (tolerant mode counts a
/// quarantined segment and answers without it, strict mode errors, an
/// I/O error that is not "missing" surfaces in both), and the next
/// query on the same handle retries the read and answers in full.
#[test]
fn failed_segment_loads_are_retried_not_cached() {
    let dir = temp_store_dir("cache-faults");
    let (cfg, _) = faulty_config(FaultPlan::new(), 64);
    ingest_with(&dir, &synthetic_log(300), &cfg).expect("clean ingest");
    let clean = replay_events(&dir);

    // Opening costs a deterministic number of counted operations; the
    // first scan's first segment read is the one after them.
    let probe = Arc::new(FaultyFs::counting());
    let segments = Store::open_with(&dir, &OpenOptions::new().fs(probe.clone()))
        .unwrap()
        .manifest()
        .segments
        .len() as u64;
    let first_load = probe.ops();
    let open = |kind: FaultKind, strict: bool| {
        let fs = Arc::new(FaultyFs::new(FaultPlan::new().fault_at(first_load, kind)));
        Store::open_with(&dir, &OpenOptions::new().fs(fs).strict(strict)).unwrap()
    };
    let scan = |store: &mut Store| {
        let mut events = Vec::new();
        store
            .scan(&Query::default(), |ev| events.push(*ev))
            .map(|stats| (events, stats))
    };
    let corrupt = FaultKind::BitFlip {
        offset: 40,
        mask: 0x10,
    };
    let transient = FaultKind::Error {
        kind: std::io::ErrorKind::Interrupted,
    };

    // Tolerant, corrupt image: skipped and counted, then retried.
    let mut store = open(corrupt, false);
    let (events, stats) = scan(&mut store).unwrap();
    assert_eq!(stats.segments_quarantined, 1);
    assert!(events.len() < clean.len());
    assert_eq!(
        store.cache_stats().entries,
        segments - 1,
        "no failed load is resident"
    );
    let (events, stats) = scan(&mut store).unwrap();
    assert_eq!(events, clean, "the retry reads the intact file");
    assert_eq!(stats.segments_quarantined, 0);
    assert_eq!(stats.segments_cached, segments - 1);
    assert!(stats.bytes_read > 0);
    assert_eq!(store.cache_stats().entries, segments);

    // Strict, corrupt image: the typed corruption error, then a retry.
    let mut store = open(corrupt, true);
    let err = scan(&mut store).expect_err("strict scan of a corrupt image");
    assert!(
        matches!(&err, StoreError::Corrupt { what, .. } if what.contains("checksum")),
        "{err}"
    );
    assert_eq!(scan(&mut store).unwrap().0, clean);

    // A transient read error is environmental: surfaced even tolerant,
    // gone on the next query.
    for strict in [false, true] {
        let mut store = open(transient, strict);
        let err = scan(&mut store).expect_err("injected read error");
        assert!(matches!(err, StoreError::Io { .. }), "{err}");
        let (events, stats) = scan(&mut store).unwrap();
        assert_eq!(events, clean);
        assert_eq!(stats.segments_quarantined, 0);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Flipping one random byte of one random segment never panics:
    /// the default open quarantines the segment and serves the rest;
    /// the strict open fails with a typed corruption error.
    #[test]
    fn corrupt_byte_quarantines_or_fails_strict(which in 0usize..1000, offset in 0usize..100_000, mask in 1u8..=255) {
        let dir = temp_store_dir("prop-flip");
        let (cfg, _) = faulty_config(FaultPlan::new(), 64);
        ingest_with(&dir, &synthetic_log(150), &cfg).expect("clean ingest");
        let manifest = Store::open(&dir).unwrap().manifest().clone();
        let victim = &manifest.segments[which % manifest.segments.len()];
        let path = dir.join(&victim.file);
        let mut bytes = std::fs::read(&path).unwrap();
        let i = offset % bytes.len();
        bytes[i] ^= mask;
        std::fs::write(&path, &bytes).unwrap();

        // Strict: refuse.
        match Store::open_strict(&dir) {
            Ok(_) => prop_assert!(false, "strict open must reject the corrupt segment"),
            Err(e) => prop_assert!(
                matches!(e, StoreError::Corrupt { .. }),
                "strict open must report corruption, got {e}"
            ),
        }
        // Default: quarantine and continue.
        let mut store = Store::open(&dir).unwrap();
        prop_assert_eq!(store.recovery().quarantined.len(), 1);
        let stats = store.scan(&Query::default(), |_| {}).unwrap();
        prop_assert_eq!(stats.segments_quarantined, 1);
        prop_assert_eq!(
            store.manifest().segments.len(),
            manifest.segments.len() - 1
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Truncating a random suffix off a random segment behaves the same:
    /// quarantine-and-continue by default, typed error in strict mode,
    /// never a panic.
    #[test]
    fn truncated_segment_quarantines_or_fails_strict(which in 0usize..1000, cut in 1usize..4096) {
        let dir = temp_store_dir("prop-trunc");
        let (cfg, _) = faulty_config(FaultPlan::new(), 64);
        ingest_with(&dir, &synthetic_log(150), &cfg).expect("clean ingest");
        let manifest = Store::open(&dir).unwrap().manifest().clone();
        let victim = &manifest.segments[which % manifest.segments.len()];
        let path = dir.join(&victim.file);
        let mut bytes = std::fs::read(&path).unwrap();
        let keep = bytes.len().saturating_sub(cut % bytes.len().max(1)).max(1) - 1;
        bytes.truncate(keep);
        std::fs::write(&path, &bytes).unwrap();

        match Store::open_strict(&dir) {
            Ok(_) => prop_assert!(false, "strict open must reject the truncated segment"),
            Err(e) => prop_assert!(
                matches!(e, StoreError::Corrupt { .. }),
                "strict open must report corruption, got {e}"
            ),
        }
        let mut store = Store::open(&dir).unwrap();
        prop_assert_eq!(store.recovery().quarantined.len(), 1);
        let stats = store.scan(&Query::default(), |_| {}).unwrap();
        prop_assert_eq!(stats.segments_quarantined, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
