//! End-to-end scenario-runner tests: determinism, spill equivalence, and
//! the fail-fast RSS guard.
//!
//! All runs use a tiny topology and truncated days so the suite stays in
//! tier-1 time, but they exercise the full streaming path: pack → world →
//! faults → monitor drain → classifier → bounded channel → store commits →
//! watcher polls.

use iri_chain::ChainTape;
use iri_scenario::runner::{RunError, RunnerOptions, ScenarioRunner};
use iri_scenario::{ChainMode, FaultKind, FaultSpec, ScenarioPack};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "iri-scenario-test-{}-{}-{tag}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every file under `dir` (recursively), relative path → contents.
fn dir_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(base: &Path, dir: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        for entry in std::fs::read_dir(dir).expect("read_dir") {
            let entry = entry.expect("dir entry");
            let path = entry.path();
            if path.is_dir() {
                walk(base, &path, out);
            } else {
                let rel = path
                    .strip_prefix(base)
                    .expect("under base")
                    .to_string_lossy()
                    .into_owned();
                out.insert(rel, std::fs::read(&path).expect("read file"));
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

fn tiny_pack() -> ScenarioPack {
    let mut pack = ScenarioPack::default_at(0.01);
    pack.meta.seed = 42;
    pack.workload.warmup_minutes = Some(10);
    pack.workload.oscillator_count = Some(2);
    pack.run.chunk_minutes = 15;
    pack.run.batch_events = 64;
    pack.run.segment_rows = 256;
    pack
}

fn run_opts(jobs: usize) -> RunnerOptions {
    RunnerOptions {
        jobs,
        hours: Some(2),
        ..RunnerOptions::default()
    }
}

#[test]
fn streaming_run_commits_events_and_reports() {
    let pack = tiny_pack();
    let dir = temp_dir("smoke");
    let report = ScenarioRunner::new(pack, run_opts(0))
        .run(&dir)
        .expect("run");
    assert!(report.events_written > 0, "no events streamed");
    assert!(report.store_generation > 0, "nothing committed");
    assert!(report.final_census_prefixes > 0, "empty census");
    assert_eq!(report.days, 1);
    assert_eq!(report.hours_per_day, 2);
    // Quiet pack: perfect recall by definition.
    assert_eq!(report.scorecard.recall, 1.0);
    // The store on disk agrees with the report.
    let store = iri_store::LiveStore::open(&dir).expect("reopen");
    assert_eq!(store.manifest().total_events, report.events_written);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn same_pack_and_seed_give_byte_identical_stores_at_any_jobs() {
    let pack = tiny_pack();
    let d1 = temp_dir("det-jobs1");
    let d4 = temp_dir("det-jobs4");
    let r1 = ScenarioRunner::new(pack.clone(), run_opts(1))
        .run(&d1)
        .expect("run jobs=1");
    let r4 = ScenarioRunner::new(pack, run_opts(4))
        .run(&d4)
        .expect("run jobs=4");
    assert_eq!(r1.events_written, r4.events_written);
    assert_eq!(r1.store_generation, r4.store_generation);
    let b1 = dir_bytes(&d1);
    let b4 = dir_bytes(&d4);
    assert_eq!(
        b1.keys().collect::<Vec<_>>(),
        b4.keys().collect::<Vec<_>>(),
        "store file sets differ"
    );
    for (name, bytes) in &b1 {
        assert_eq!(bytes, &b4[name], "store file {name} differs across --jobs");
    }
    let _ = std::fs::remove_dir_all(&d1);
    let _ = std::fs::remove_dir_all(&d4);
}

#[test]
fn rib_spill_does_not_change_the_event_stream() {
    // Smaller still than tiny_pack: with a working set below the router
    // count every event pays a table round-trip, so keep tables short.
    let mut base = tiny_pack();
    base.topology.prefixes = Some(30);
    base.workload.warmup_minutes = Some(5);
    base.workload.oscillator_count = Some(1);
    let mut spilling = base.clone();
    spilling.limits.spill_working_set = 2;

    let opts = RunnerOptions {
        hours: Some(1),
        ..RunnerOptions::default()
    };
    let d_plain = temp_dir("spill-off");
    let d_spill = temp_dir("spill-on");
    let plain = ScenarioRunner::new(base, opts.clone())
        .run(&d_plain)
        .expect("run without spill");
    let spilled = ScenarioRunner::new(spilling, opts)
        .run(&d_spill)
        .expect("run with spill");

    assert!(
        spilled.spill.spills > 0,
        "working set 2 on a multi-router world must spill"
    );
    assert_eq!(
        plain.events_written, spilled.events_written,
        "spill changed the event count"
    );
    let b_plain = dir_bytes(&d_plain);
    let b_spill = dir_bytes(&d_spill);
    for (name, bytes) in &b_plain {
        assert_eq!(
            bytes, &b_spill[name],
            "store file {name} differs under spill"
        );
    }
    let _ = std::fs::remove_dir_all(&d_plain);
    let _ = std::fs::remove_dir_all(&d_spill);
}

#[test]
fn faulted_pack_changes_the_stream_deterministically() {
    let mut pack = tiny_pack();
    pack.faults.push(FaultSpec {
        kind: FaultKind::CommunityChurn,
        day: 0,
        every_day: false,
        start_minute: 30,
        duration_minutes: 20,
        prefixes: 4,
        period_seconds: 30,
        ramp_minutes: 10,
        peak_per_minute: 60.0,
        alpha: 1.3,
        min_gap_minutes: 2.0,
        provider: 0,
    });
    let d1 = temp_dir("fault-a");
    let d2 = temp_dir("fault-b");
    let r1 = ScenarioRunner::new(pack.clone(), run_opts(0))
        .run(&d1)
        .expect("faulted run");
    let r2 = ScenarioRunner::new(pack, run_opts(0))
        .run(&d2)
        .expect("faulted rerun");
    assert_eq!(r1.events_written, r2.events_written);
    let b1 = dir_bytes(&d1);
    let b2 = dir_bytes(&d2);
    for (name, bytes) in &b1 {
        assert_eq!(bytes, &b2[name], "faulted store {name} not reproducible");
    }
    let _ = std::fs::remove_dir_all(&d1);
    let _ = std::fs::remove_dir_all(&d2);
}

#[test]
fn rss_budget_fails_fast() {
    let pack = tiny_pack();
    let dir = temp_dir("rss");
    let opts = RunnerOptions {
        max_rss_mb: 1, // any real process exceeds 1 MiB immediately
        hours: Some(1),
        ..RunnerOptions::default()
    };
    let err = ScenarioRunner::new(pack, opts).run(&dir).unwrap_err();
    match err {
        RunError::RssBudget { rss_mb, budget_mb } => {
            assert_eq!(budget_mb, 1);
            assert!(rss_mb > 1);
        }
        other => panic!("expected RssBudget, got {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_chunk_length_changes_no_store_byte_chain_entry_or_incident() {
    let mut pack = tiny_pack();
    pack.faults.push(FaultSpec {
        kind: FaultKind::CommunityChurn,
        day: 0,
        every_day: false,
        start_minute: 30,
        duration_minutes: 20,
        prefixes: 4,
        period_seconds: 30,
        ramp_minutes: 10,
        peak_per_minute: 60.0,
        alpha: 1.3,
        min_gap_minutes: 2.0,
        provider: 0,
    });
    let run = |chunk_minutes: u32, tag: &str| {
        let mut pack = pack.clone();
        pack.run.chunk_minutes = chunk_minutes;
        let dir = temp_dir(tag);
        let report = ScenarioRunner::new(
            pack,
            RunnerOptions {
                chain: ChainMode::Record,
                ..run_opts(1)
            },
        )
        .run(&dir)
        .expect("recorded run");
        let chain_dir = iri_scenario::chain_dir_for(&dir);
        let tape = ChainTape::load(iri_faults::real_fs(), &chain_dir).expect("load chain");
        // The genesis fingerprints the pack text, chunk length included,
        // so the hash links differ; every crossing after it must not.
        let crossings: Vec<_> = tape.entries()[1..]
            .iter()
            .map(|e| (e.seq, e.kind, e.payload.clone()))
            .collect();
        let bytes = dir_bytes(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&chain_dir);
        (report, crossings, bytes)
    };
    let (r5, c5, b5) = run(5, "chunk-5");
    let (r60, c60, b60) = run(60, "chunk-60");
    assert!(r5.events_written > 0, "the run must commit events");
    assert!(!r5.incidents.is_empty(), "the churn must raise an incident");
    assert_eq!(r5.events_written, r60.events_written);
    assert_eq!(r5.store_generation, r60.store_generation);
    assert_eq!(r5.final_census_prefixes, r60.final_census_prefixes);
    assert_eq!(r5.incidents, r60.incidents, "incident lists differ");
    assert_eq!(r5.chain_events, r60.chain_events);
    assert_eq!(c5.len(), c60.len(), "chain lengths differ");
    for (a, b) in c5.iter().zip(&c60) {
        assert_eq!(a, b, "chain crossing differs");
    }
    assert_eq!(
        b5.keys().collect::<Vec<_>>(),
        b60.keys().collect::<Vec<_>>(),
        "store file sets differ"
    );
    for (name, bytes) in &b5 {
        assert_eq!(
            bytes, &b60[name],
            "store file {name} differs across chunk lengths"
        );
    }
}
