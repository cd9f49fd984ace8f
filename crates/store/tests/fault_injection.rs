//! Fault-injection and crash-recovery tests: the crash matrices (kill
//! ingest, then every other kind of commit, at every counted I/O
//! operation and every commit step, and prove `Store::open` recovers),
//! transient-error retry accounting, and property tests over random
//! corruption.
//!
//! The contract under test is all-or-previous atomicity: a store
//! surviving a crash at ANY point of the commit protocol recovers to
//! either the fully committed new store (byte-identical replay to a
//! clean run) or the previous store (the empty store, for a first
//! ingest) — never a torn hybrid, and never a panic.

use iri_faults::{real_fs, FaultKind, FaultPlan, FaultyFs, RetryPolicy, SharedFs};
use iri_mrt::{Bgp4mpMessage, MrtReader, MrtRecord, MrtWriter};
use iri_store::{
    compact, compact_in, ingest_mrt, IngestConfig, LiveOptions, LiveStore, OpenOptions, Query,
    Store, StoreError, StoreWriter, StoredEvent,
};
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

const MATRIX_ROWS: u32 = 16;

fn ingest_over(dir: &Path, fs: SharedFs, records: usize, rows: u32) -> Result<(), StoreError> {
    let cfg = faulty_config(FaultPlan::new(), rows).0.with_fs(fs);
    ingest_with(dir, &synthetic_log(records), &cfg)
}

/// The first `n` rows the classifier makes from the synthetic log.
fn classified_rows(n: usize) -> &'static [StoredEvent] {
    static ROWS: std::sync::OnceLock<Vec<StoredEvent>> = std::sync::OnceLock::new();
    let rows = ROWS.get_or_init(|| {
        let dir = temp_store_dir("rows");
        ingest_over(&dir, real_fs(), 200, MATRIX_ROWS).unwrap();
        let rows = replay_events(&dir);
        std::fs::remove_dir_all(&dir).unwrap();
        rows
    });
    &rows[..n]
}

fn matrix_live(dir: &Path, fs: SharedFs) -> Result<LiveStore, StoreError> {
    let opts = LiveOptions {
        fs,
        retry: RetryPolicy::none(),
        create_segment_rows: Some(MATRIX_ROWS),
        jobs: 1,
    };
    LiveStore::open_with(dir, &opts)
}

/// Two appends: two tails beside the (empty) chains.
fn ragged_store(dir: &Path) {
    let store = matrix_live(dir, real_fs()).unwrap();
    store.append_events(classified_rows(120)).unwrap();
    store.append_events(classified_rows(90)).unwrap();
}

fn matrix_compact(dir: &Path, fs: SharedFs) -> Result<(), StoreError> {
    compact_in(dir, MATRIX_ROWS, fs, RetryPolicy::none()).map(drop)
}

/// One kind of commit: its name, what leaves the previous store in the
/// directory, the commit that gets killed, and how many counted
/// operations a clean pass of it may take — a floor that keeps the
/// matrix from being vacuous, or an exact count where the protocol fixes
/// one.
type CommitKind = (
    &'static str,
    fn(&Path),
    fn(&Path, SharedFs) -> Result<(), StoreError>,
    std::ops::RangeInclusive<u64>,
);

const MANY_OPS: std::ops::RangeInclusive<u64> = 21..=u64::MAX;

/// Every kind of commit there is. The first row is the matrix as it
/// stood when ingest was the only kind.
const COMMIT_KINDS: [CommitKind; 6] = [
    (
        "first ingest",
        |_| {},
        |dir, fs| ingest_over(dir, fs, 300, 64),
        MANY_OPS,
    ),
    (
        "create+commit",
        |_| {},
        |dir, fs| {
            let mut w = StoreWriter::create_with(dir, MATRIX_ROWS, fs, RetryPolicy::none())?;
            classified_rows(150).iter().try_for_each(|r| w.push(r))?;
            w.commit(150).map(drop)
        },
        MANY_OPS,
    ),
    (
        "append",
        ragged_store,
        |dir, fs| {
            matrix_live(dir, fs)?
                .append_events(classified_rows(60))
                .map(drop)
        },
        // Its open reads the manifest, the absent journal and two
        // tails; the append itself is the protocol's fifteen operations
        // whatever the batch: begin 3, the one segment's write, rename
        // and fsync, seal 9.
        19..=19,
    ),
    (
        "re-ingest",
        |dir| ingest_over(dir, real_fs(), 200, MATRIX_ROWS).unwrap(),
        |dir, fs| ingest_over(dir, fs, 300, MATRIX_ROWS),
        MANY_OPS,
    ),
    ("compact ragged", ragged_store, matrix_compact, MANY_OPS),
    (
        "compact canonical",
        |dir| {
            ragged_store(dir);
            compact(dir, MATRIX_ROWS).unwrap();
        },
        matrix_compact,
        MANY_OPS,
    ),
];

/// A scratch directory holding a copy of the store in `template`, or
/// nothing yet if there is none.
fn scratch_copy(tag: &str, template: &Path) -> PathBuf {
    let dir = temp_store_dir(tag);
    if let Ok(entries) = std::fs::read_dir(template) {
        std::fs::create_dir_all(&dir).unwrap();
        for entry in entries.map(Result::unwrap) {
            std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
        }
    }
    dir
}

/// What a directory holds: generation, rows in scan order, and every
/// file in the root.
type StoreState = (u64, Vec<StoredEvent>, Vec<(String, Vec<u8>)>);

/// Opens a directory a killed (or clean) commit left and holds it to
/// the contract: nothing torn or unaccounted for in the root, no retired
/// tree, and nothing left for a second open to repair. Returns the
/// state it recovered to, if any store came to exist.
fn recovered(label: &str, dir: &Path) -> Option<StoreState> {
    let store = match Store::open(dir) {
        Ok(store) => store,
        // Killed before even the journal's begin record landed: the
        // store never came to exist — the "previous" state of a first
        // commit.
        Err(e) => {
            assert!(matches!(e, StoreError::Io { .. }), "{label}: {e}");
            return None;
        }
    };
    let known: Vec<&String> = store.manifest().segments.iter().map(|m| &m.file).collect();
    for entry in std::fs::read_dir(dir).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        assert!(!name.ends_with(".tmp"), "{label}: {name} left in the root");
        assert!(
            !name.ends_with(".seg") || known.contains(&&name),
            "{label}: {name} is in the root but not in the manifest"
        );
        assert_ne!(name, "retired", "{label}: retired tree left behind");
    }
    // Strict open refuses to touch a store that still needs recovery;
    // after the tolerant open above repaired it, strict succeeds, and
    // recovery is idempotent: the second open has nothing to do.
    let again = Store::open_strict(dir).expect("repaired store opens strict");
    assert!(again.recovery().is_clean(), "{label}: second open");
    Some((store.generation(), replay_events(dir), store_files(dir)))
}

/// The clean pass of one kind of commit: the directory holding the
/// previous store, the states before and after the commit, and the
/// counting filesystem that watched it.
fn clean_pass(kind: &CommitKind) -> (PathBuf, Option<StoreState>, StoreState, Arc<FaultyFs>) {
    let (name, before, commit, _) = kind;
    let template = temp_store_dir("matrix-previous");
    before(&template);
    let previous = recovered(name, &template);
    let dir = scratch_copy("matrix-clean", &template);
    let counting = Arc::new(FaultyFs::counting());
    commit(&dir, counting.clone()).expect("clean commit");
    let clean = recovered(name, &dir).expect("a committed store");
    assert!(!clean.1.is_empty());
    // A commit that changes a file makes exactly one generation;
    // compacting a canonical store changes none and makes none.
    let noop = *name == "compact canonical";
    let before_gen = previous.as_ref().map_or(0, |p| p.0);
    assert_eq!(clean.0, before_gen + u64::from(!noop), "{name}");
    assert_eq!(previous.as_ref() == Some(&clean), noop, "{name}");
    std::fs::remove_dir_all(&dir).unwrap();
    (template, previous, clean, counting)
}

/// Runs one kind of commit over a copy of `template` under a plan that
/// must kill it, and holds what the directory recovers to against
/// all-or-previous: the committed store, replaying byte-identically to
/// the clean run with byte-identical files, or the store from before
/// (the empty store, for a first commit). Returns whether it committed.
fn killed_commit_recovers(
    kind: &CommitKind,
    label: &str,
    plan: FaultPlan,
    (template, previous, clean): (&Path, &Option<StoreState>, &StoreState),
) -> bool {
    let dir = scratch_copy("matrix-kill", template);
    let fs = Arc::new(FaultyFs::new(plan));
    let err = (kind.2)(&dir, fs.clone()).expect_err("killed commit must error");
    assert!(fs.killed(), "{label}: kill fault must have fired");
    assert!(
        matches!(err, StoreError::Io { .. } | StoreError::Ingest(_)),
        "{label}: unexpected error {err}"
    );
    let got = recovered(label, &dir);
    std::fs::remove_dir_all(&dir).ok();
    match (got, previous) {
        (Some(got), _) if got == *clean => true,
        (None, None) => false,
        (Some(got), None) => {
            assert!(got.1.is_empty(), "{label}: a torn first commit");
            false
        }
        (got, Some(_)) => {
            assert_eq!(&got, previous, "{label}: neither previous nor committed");
            false
        }
    }
}

/// Kills every kind of commit at every counted I/O operation, then
/// proves recovery: the reopened store replays either byte-identically
/// to the clean run (crash at/after the commit point) or as the store
/// from before (before it) — and after one recovery the store is clean.
#[test]
fn crash_matrix_kill_at_every_operation() {
    for kind in &COMMIT_KINDS {
        let name = kind.0;
        // Clean single-threaded reference run, counting operations.
        let (template, previous, clean, counting) = clean_pass(kind);
        let noop = previous.as_ref() == Some(&clean);
        let total_ops = counting.ops();
        assert!(
            noop || kind.3.contains(&total_ops),
            "{name}: {total_ops} ops"
        );

        let mut committed = 0u64;
        let mut rolled_back = 0u64;
        for kill_op in 0..total_ops {
            let label = format!("{name}, op {kill_op}");
            let plan = FaultPlan::new().kill_at_op(kill_op);
            if killed_commit_recovers(kind, &label, plan, (&template, &previous, &clean)) {
                committed += 1;
            } else {
                rolled_back += 1;
            }
        }
        // The matrix must have exercised both sides of the commit point
        // (a no-op has one side: its two states are the same store).
        assert!(noop || rolled_back > 0, "{name}: no kill rolled back");
        assert!(committed > 0, "{name}: no kill committed");
        std::fs::remove_dir_all(&template).ok();
    }
}

/// Kills every kind of commit at each named commit step and pins the
/// exact outcome: before `JournalSealed` the recovered store is the one
/// from before, from `JournalSealed` on it is the committed store.
#[test]
fn crash_matrix_kill_at_every_commit_step() {
    use iri_store::CommitStep;

    for kind in &COMMIT_KINDS {
        let name = kind.0;
        let (template, previous, clean, counting) = clean_pass(kind);
        let noop = previous.as_ref() == Some(&clean);
        for step in CommitStep::ALL {
            // A commit passes every step exactly once; one that finds
            // nothing to change never begins.
            assert_eq!(counting.step_hits(step), u64::from(!noop), "{name}: {step}");
            if noop {
                continue;
            }
            let label = format!("{name}, {step}");
            let plan = FaultPlan::new().kill_at_step(step);
            let committed =
                killed_commit_recovers(kind, &label, plan, (&template, &previous, &clean));
            assert_eq!(committed, step >= CommitStep::JournalSealed, "{label}");
        }
        std::fs::remove_dir_all(&template).ok();
    }
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
    // the journal begin (3 ops) and the first run's segments moving
    // aside, before its commit record.
    let (cfg, fs) = faulty_config(FaultPlan::new().kill_at_op(40), 64);
    ingest_with(&dir, &second, &cfg).expect_err("killed reingest");
    assert!(fs.killed());

    let events = replay_events(&dir);
    let store = Store::open(&dir).unwrap();
    // The second ingest journals a new generation and moves the first
    // run's segments aside; its crash rolls back to the first manifest,
    // which it never touched, and recovery brings the segments back.
    assert_eq!(
        events, first_events,
        "recovered store must be the first one, row for row"
    );
    assert_eq!(store.manifest().generation, first_gen);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A displaced copy that no longer verifies is evidence: a rollback
/// moves it to `quarantine/` before the dead commit's retired directory
/// is dropped, and the segment it was leaves the manifest.
#[test]
fn rollback_quarantines_a_damaged_retired_copy() {
    let dir = temp_store_dir("retired-damage");
    ingest_over(&dir, real_fs(), 200, 64).unwrap();
    let segments = Store::open(&dir).unwrap().manifest().segments.len();
    let (cfg, _) = faulty_config(FaultPlan::new().kill_at_op(40), 64);
    ingest_with(&dir, &synthetic_log(300), &cfg).expect_err("killed reingest");
    let retired = std::fs::read_dir(dir.join("retired/g0000000002")).unwrap();
    let victim = retired.map(|e| e.unwrap().path()).min().unwrap();
    let mut bytes = std::fs::read(&victim).unwrap();
    bytes[20] ^= 0xff;
    std::fs::write(&victim, bytes).unwrap();

    let store = Store::open(&dir).unwrap();
    let name = victim.file_name().unwrap().to_str().unwrap();
    let from_retired = format!("retired/g0000000002/{name}");
    let quarantined = &store.recovery().quarantined;
    assert!(quarantined.iter().any(|q| q.file == from_retired));
    assert!(dir.join("quarantine").join(name).is_file());
    assert!(!dir.join("retired").exists());
    assert_eq!(store.manifest().segments.len(), segments - 1);
    assert!(Store::open_strict(&dir).unwrap().recovery().is_clean());
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

/// Recovery holds every file against its whole manifest entry, zone maps
/// included — the verifier every later load runs — so a disagreement
/// the size, row and shard checks cannot see is settled at open instead
/// of surfacing in the first query that loads the segment.
#[test]
fn zone_map_disagreement_is_settled_at_open_not_by_a_query() {
    let dir = temp_store_dir("zone-mismatch");
    let (cfg, _) = faulty_config(FaultPlan::new(), 64);
    ingest_with(&dir, &synthetic_log(150), &cfg).expect("clean ingest");
    let mut manifest = Store::open(&dir).unwrap().manifest().clone();
    let segments = manifest.segments.len();
    let victim = manifest.segments[0].file.clone();
    manifest.segments[0].policy_changes += 1;
    std::fs::write(
        dir.join("MANIFEST.json"),
        serde_json::to_string_pretty(&manifest).unwrap(),
    )
    .unwrap();

    let err = Store::open_strict(&dir)
        .map(drop)
        .expect_err("strict open must reject the mismatch");
    assert!(
        matches!(&err, StoreError::Corrupt { what, .. } if what.contains("zone maps")),
        "{err}"
    );
    let mut store = Store::open(&dir).unwrap();
    let quarantined = &store.recovery().quarantined;
    assert_eq!(quarantined.len(), 1);
    assert_eq!(quarantined[0].file, victim);
    assert!(quarantined[0].reason.contains("zone maps"));
    assert_eq!(store.manifest().segments.len(), segments - 1);
    // Nothing is left for a query to trip over.
    let stats = store.scan(&Query::default(), |_| {}).unwrap();
    assert_eq!(stats.segments_scanned as usize, segments - 1);
    assert!(Store::open_strict(&dir).unwrap().recovery().is_clean());
    std::fs::remove_dir_all(&dir).unwrap();
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
