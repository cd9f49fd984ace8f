//! The determinism contract, enforced: record/replay bit-identity, the
//! crash-matrix resume proof, and divergence-as-a-test.
//!
//! The heart of the suite is the crash matrix: a recorded run is killed
//! at sampled operation indices and at every commit-protocol step (first,
//! middle, and last occurrence), then resumed — and the resumed store,
//! chain, and report must be byte-for-byte what the uninterrupted run
//! produced. The injected-nondeterminism tests tamper with the chain and
//! assert the failure names the exact first divergent sequence number.

use iri_chain::{ChainEntry, ChainTape, Genesis, CHAIN_FILE};
use iri_faults::{CommitStep, FaultPlan, FaultyFs, SharedFs};
use iri_scenario::runner::{ChainMode, RunError, RunnerOptions, ScenarioRunner};
use iri_scenario::ScenarioPack;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "iri-chain-resume-{}-{}-{tag}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every store file under `dir`, relative path → contents, excluding
/// crash debris the commit protocol may leave behind (`quarantine/` holds
/// files recovery rejected, `retired/` holds generations a GC had not
/// reclaimed yet) — neither is part of the committed store.
fn store_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(base: &Path, dir: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        for entry in std::fs::read_dir(dir).expect("read_dir") {
            let path = entry.expect("dir entry").path();
            let rel = path
                .strip_prefix(base)
                .expect("under base")
                .to_string_lossy()
                .into_owned();
            if path.is_dir() {
                if rel != "quarantine" && rel != "retired" {
                    walk(base, &path, out);
                }
            } else {
                out.insert(rel, std::fs::read(&path).expect("read file"));
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

fn assert_same_files(what: &str, a: &BTreeMap<String, Vec<u8>>, b: &BTreeMap<String, Vec<u8>>) {
    assert_eq!(
        a.keys().collect::<Vec<_>>(),
        b.keys().collect::<Vec<_>>(),
        "{what}: file sets differ"
    );
    for (name, bytes) in a {
        assert_eq!(bytes, &b[name], "{what}: file {name} differs");
    }
}

/// Two measured days, truncated to one hour each, small enough for the
/// matrix but crossing every boundary kind: day starts, fault digests,
/// many batch commits, a cadence compaction, and two checkpoints.
fn chain_pack() -> ScenarioPack {
    let mut pack = ScenarioPack::default_at(0.01);
    pack.meta.seed = 42;
    pack.workload.warmup_minutes = Some(10);
    pack.workload.oscillator_count = Some(2);
    pack.run.days = 2;
    pack.run.chunk_minutes = 15;
    pack.run.batch_events = 64;
    pack.run.segment_rows = 256;
    pack
}

fn opts(chain: ChainMode, fs: SharedFs) -> RunnerOptions {
    RunnerOptions {
        fs,
        hours: Some(1),
        chain,
        ..RunnerOptions::default()
    }
}

/// The deterministic slice of a report: everything that must be
/// identical across record, resume, and replay of one run. Wall-clock
/// and RSS fields are excluded — they are measurements, not results.
fn det_fields(r: &iri_scenario::RunReport) -> String {
    format!(
        "{} {} {} {} {} {} {} {} {} {} {} {:?}",
        r.pack,
        r.days,
        r.hours_per_day,
        r.events_written,
        r.store_generation,
        serde_json::to_string(&r.incidents).expect("incidents"),
        r.scorecard.true_positives,
        r.scorecard.false_positives,
        r.final_census_prefixes,
        serde_json::to_string(&r.spill).expect("spill"),
        r.chain_entries,
        (r.chain_events, &r.chain_head),
    )
}

#[test]
fn record_matches_chain_off_and_replay_is_bit_identical() {
    let pack = chain_pack();
    // Chain off: the pre-chain store bytes.
    let d_off = temp_dir("off");
    let r_off = ScenarioRunner::new(pack.clone(), opts(ChainMode::Off, iri_faults::real_fs()))
        .run(&d_off)
        .expect("off run");
    // Recorded run.
    let d_rec = temp_dir("rec");
    let rec = ScenarioRunner::new(pack.clone(), opts(ChainMode::Record, iri_faults::real_fs()))
        .run(&d_rec)
        .expect("record run");
    assert_eq!(r_off.events_written, rec.events_written);
    assert!(rec.chain_entries > 0 && rec.chain_events == rec.events_written);
    let head = rec.chain_head.clone().expect("recorded head");
    assert_same_files("record vs off", &store_bytes(&d_off), &store_bytes(&d_rec));

    // Replay the chain into a fresh store: bit-identical store, same
    // report, chain file untouched.
    let chain_dir = iri_scenario::chain_dir_for(&d_rec);
    let chain_before = std::fs::read(chain_dir.join(CHAIN_FILE)).expect("chain file");
    let d_rep = temp_dir("rep");
    let rep = ScenarioRunner::new(
        pack,
        RunnerOptions {
            chain_dir: Some(chain_dir.clone()),
            ..opts(ChainMode::Replay, iri_faults::real_fs())
        },
    )
    .run(&d_rep)
    .expect("replay run");
    assert_eq!(det_fields(&rec), det_fields(&rep));
    assert_eq!(rep.chain_head.as_deref(), Some(head.as_str()));
    assert_same_files(
        "replay vs record",
        &store_bytes(&d_rec),
        &store_bytes(&d_rep),
    );
    assert_eq!(
        chain_before,
        std::fs::read(chain_dir.join(CHAIN_FILE)).expect("chain file"),
        "replay must not extend the recording"
    );
    for d in [d_off, d_rec, d_rep] {
        let _ = std::fs::remove_dir_all(iri_scenario::chain_dir_for(&d));
        let _ = std::fs::remove_dir_all(&d);
    }
}

/// Runs the pack in record mode against `fs` into `store`/`chain`,
/// returning the error (the matrix expects every kill to surface one).
fn killed_record_run(
    pack: &ScenarioPack,
    fs: SharedFs,
    store: &Path,
    chain: &Path,
) -> Result<iri_scenario::RunReport, RunError> {
    ScenarioRunner::new(
        pack.clone(),
        RunnerOptions {
            chain_dir: Some(chain.to_path_buf()),
            ..opts(ChainMode::Record, fs)
        },
    )
    .run(store)
}

fn resume_run(
    pack: &ScenarioPack,
    store: &Path,
    chain: &Path,
) -> Result<iri_scenario::RunReport, RunError> {
    ScenarioRunner::new(
        pack.clone(),
        RunnerOptions {
            chain_dir: Some(chain.to_path_buf()),
            ..opts(ChainMode::Resume, iri_faults::real_fs())
        },
    )
    .run(store)
}

#[test]
fn crash_matrix_resume_reproduces_the_uninterrupted_run() {
    let pack = chain_pack();

    // Reference pass doubles as the op census: count every filesystem
    // operation and every commit-step occurrence a clean recorded run
    // performs, so the matrix can aim kills at all of them.
    let counter = Arc::new(FaultyFs::counting());
    let d_ref = temp_dir("matrix-ref");
    let c_ref = temp_dir("matrix-ref-chain");
    let ref_report =
        killed_record_run(&pack, counter.clone(), &d_ref, &c_ref).expect("reference recorded run");
    let total_ops = counter.ops();
    assert!(
        total_ops > 100,
        "expected a busy op stream, got {total_ops}"
    );
    let ref_store = store_bytes(&d_ref);
    let ref_chain = store_bytes(&c_ref);
    let ref_det = det_fields(&ref_report);

    // Kill points: a spread across the whole counted op stream, plus the
    // first, middle, and last occurrence of every commit-protocol step.
    let mut plans: Vec<(String, FaultPlan)> = Vec::new();
    let samples = 14u64;
    for i in 0..samples {
        let at = (total_ops * i) / samples + i % 3;
        plans.push((format!("op {at}"), FaultPlan::new().kill_at_op(at)));
    }
    for step in CommitStep::ALL {
        let hits = counter.step_hits(step);
        if hits == 0 {
            continue;
        }
        let mut occurrences = vec![0, hits / 2, hits - 1];
        occurrences.dedup();
        for occ in occurrences {
            plans.push((
                format!("step {step} hit {occ}"),
                FaultPlan::new().kill_at_step_hit(step, occ),
            ));
        }
    }

    let mut resumed_after_kill = 0u32;
    for (label, plan) in plans {
        let store = temp_dir("matrix-store");
        let chain = temp_dir("matrix-chain");
        let fs: SharedFs = Arc::new(FaultyFs::new(plan));
        let err = killed_record_run(&pack, fs, &store, &chain)
            .expect_err(&format!("kill at {label} must fail the run"));
        drop(err);
        if !chain.join(CHAIN_FILE).exists() {
            // Killed before the genesis entry was durable: there is
            // nothing to resume — re-record from scratch is the answer,
            // and only the earliest ops can land here.
            let _ = std::fs::remove_dir_all(&store);
            let _ = std::fs::remove_dir_all(&chain);
            continue;
        }
        let report = resume_run(&pack, &store, &chain)
            .unwrap_or_else(|e| panic!("resume after kill at {label} failed: {e}"));
        resumed_after_kill += 1;
        assert_eq!(
            ref_det,
            det_fields(&report),
            "resume after kill at {label}: report diverged"
        );
        assert_same_files(
            &format!("resume after kill at {label}: store"),
            &ref_store,
            &store_bytes(&store),
        );
        assert_same_files(
            &format!("resume after kill at {label}: chain"),
            &ref_chain,
            &store_bytes(&chain),
        );
        let _ = std::fs::remove_dir_all(&store);
        let _ = std::fs::remove_dir_all(&chain);
    }
    assert!(
        resumed_after_kill >= 15,
        "matrix degenerated: only {resumed_after_kill} kill points were resumable"
    );
    let _ = std::fs::remove_dir_all(&d_ref);
    let _ = std::fs::remove_dir_all(&c_ref);
}

/// Stopped and resumed, twice: the matrix pack, and the same world cut
/// into one-row segments. There every segment is full, so every
/// compaction finds the store canonical and leaves the generation
/// alone — a resume plan that read the compaction count out of the
/// generation refused this store past its second cadence boundary.
#[test]
fn stop_hook_then_resume_is_byte_identical() {
    let mut one_row = chain_pack();
    one_row.run.batch_events = 2;
    one_row.run.segment_rows = 1;
    for (tag, pack, stop, resumed_past) in [("stop", chain_pack(), 3, 0), ("rows", one_row, 6, 64)]
    {
        let d_ref = temp_dir(&format!("{tag}-ref"));
        let c_ref = temp_dir(&format!("{tag}-ref-chain"));
        let ref_report =
            killed_record_run(&pack, iri_faults::real_fs(), &d_ref, &c_ref).expect("reference run");

        let store = temp_dir(&format!("{tag}-store"));
        let chain = temp_dir(&format!("{tag}-chain"));
        let err = ScenarioRunner::new(
            pack.clone(),
            RunnerOptions {
                chain_dir: Some(chain.clone()),
                stop_after_chunks: Some(stop),
                ..opts(ChainMode::Record, iri_faults::real_fs())
            },
        )
        .run(&store)
        .expect_err("stop hook must interrupt the run");
        match err {
            RunError::Stopped { chunks } => assert_eq!(chunks, stop),
            other => panic!("expected Stopped, got {other}"),
        }
        let report = resume_run(&pack, &store, &chain).expect("resume after stop");
        assert!(report.resumed_from >= Some(resumed_past), "{tag}");
        assert_eq!(det_fields(&ref_report), det_fields(&report));
        assert_same_files(
            "stop+resume store",
            &store_bytes(&d_ref),
            &store_bytes(&store),
        );
        assert_same_files(
            "stop+resume chain",
            &store_bytes(&c_ref),
            &store_bytes(&chain),
        );
        for d in [d_ref, c_ref, store, chain] {
            let _ = std::fs::remove_dir_all(&d);
        }
    }
}

#[test]
fn rss_fail_fast_leaves_a_resumable_store() {
    let pack = chain_pack();
    let d_ref = temp_dir("rss-ref");
    let c_ref = temp_dir("rss-ref-chain");
    let ref_report =
        killed_record_run(&pack, iri_faults::real_fs(), &d_ref, &c_ref).expect("reference run");

    let store = temp_dir("rss-store");
    let chain = temp_dir("rss-chain");
    let err = ScenarioRunner::new(
        pack.clone(),
        RunnerOptions {
            chain_dir: Some(chain.clone()),
            max_rss_mb: 1, // any real process exceeds 1 MiB immediately
            ..opts(ChainMode::Record, iri_faults::real_fs())
        },
    )
    .run(&store)
    .expect_err("1 MiB budget must fail fast");
    assert!(matches!(err, RunError::RssBudget { .. }), "got {err}");
    // The interrupted store recovered and resumed to the exact reference.
    let report = resume_run(&pack, &store, &chain).expect("resume after RSS fail-fast");
    assert_eq!(det_fields(&ref_report), det_fields(&report));
    assert_same_files(
        "rss+resume store",
        &store_bytes(&d_ref),
        &store_bytes(&store),
    );
    for d in [d_ref, c_ref, store, chain] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

#[test]
fn resuming_a_completed_run_changes_nothing() {
    let pack = chain_pack();
    let store = temp_dir("done-store");
    let chain = temp_dir("done-chain");
    let rec = killed_record_run(&pack, iri_faults::real_fs(), &store, &chain).expect("record run");
    let before_store = store_bytes(&store);
    let before_chain = store_bytes(&chain);
    let again = resume_run(&pack, &store, &chain).expect("resume of a finished run");
    assert_eq!(again.resumed_from, Some(rec.events_written));
    assert_eq!(det_fields(&rec), det_fields(&again));
    assert_same_files(
        "idempotent resume store",
        &before_store,
        &store_bytes(&store),
    );
    assert_same_files(
        "idempotent resume chain",
        &before_chain,
        &store_bytes(&chain),
    );
    for d in [store, chain] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

/// The recorded entries of the chain in `chain_dir`.
fn chain_entries(chain_dir: &Path) -> Vec<ChainEntry> {
    let tape = ChainTape::load(iri_faults::real_fs(), chain_dir).expect("load chain");
    tape.entries().to_vec()
}

/// Replaces the chain in `chain_dir` with a fresh recording of
/// `entries` (genesis first), which the tape re-links as it appends them.
fn rewrite_chain(chain_dir: &Path, entries: &[ChainEntry]) {
    std::fs::remove_file(chain_dir.join(CHAIN_FILE)).expect("remove chain");
    let genesis = Genesis::decode(&entries[0].payload).expect("genesis payload");
    let mut tape =
        ChainTape::create(iri_faults::real_fs(), chain_dir, &genesis).expect("recreate chain");
    for e in &entries[1..] {
        tape.cross(e.kind, e.payload.clone()).expect("append entry");
    }
    tape.flush().expect("flush chain");
}

/// Rewrites the chain with `mutate` applied to the entry at `seq`,
/// re-linking every hash so the file still loads cleanly — the tamper is
/// only visible as a divergence from what the simulation re-produces.
fn tamper_chain(chain_dir: &Path, seq: u64, mutate: impl Fn(&mut String)) {
    let mut entries = chain_entries(chain_dir);
    mutate(&mut entries[seq as usize].payload);
    rewrite_chain(chain_dir, &entries);
}

#[test]
fn injected_nondeterminism_fails_with_the_first_divergent_seq() {
    let pack = chain_pack();
    let store = temp_dir("div-store");
    let chain = temp_dir("div-chain");
    killed_record_run(&pack, iri_faults::real_fs(), &store, &chain).expect("record run");

    // Flip one recorded event's size field: the replayed simulation will
    // produce the true value and must refuse at exactly that entry.
    let victim = chain_entries(&chain)
        .into_iter()
        .filter(|e| e.kind == iri_chain::EntryKind::Event)
        .nth(5)
        .expect("at least six events recorded");
    tamper_chain(&chain, victim.seq, |payload| {
        payload.push('9'); // corrupt the trailing size field
    });

    let d_rep = temp_dir("div-replay");
    let err = ScenarioRunner::new(
        pack,
        RunnerOptions {
            chain_dir: Some(chain.clone()),
            ..opts(ChainMode::Replay, iri_faults::real_fs())
        },
    )
    .run(&d_rep)
    .expect_err("tampered chain must fail the replay");
    match err {
        RunError::Chain(iri_chain::ChainError::Divergence { seq, expected, got }) => {
            assert_eq!(seq, victim.seq, "wrong divergence point");
            assert_ne!(expected, got);
        }
        other => panic!("expected Divergence, got {other}"),
    }
    for d in [store, chain, d_rep] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

#[test]
fn a_truncated_recording_fails_replay_past_its_end() {
    let pack = chain_pack();
    let store = temp_dir("trunc-store");
    let chain = temp_dir("trunc-chain");
    killed_record_run(&pack, iri_faults::real_fs(), &store, &chain).expect("record run");

    // Keep only the first 10 entries (still a valid hash-linked prefix).
    rewrite_chain(&chain, &chain_entries(&chain)[..10]);

    let d_rep = temp_dir("trunc-replay");
    let err = ScenarioRunner::new(
        pack,
        RunnerOptions {
            chain_dir: Some(chain.clone()),
            ..opts(ChainMode::Replay, iri_faults::real_fs())
        },
    )
    .run(&d_rep)
    .expect_err("replay must refuse to run past a sealed recording");
    match err {
        RunError::Chain(iri_chain::ChainError::PastEnd { seq }) => assert_eq!(seq, 10),
        other => panic!("expected PastEnd, got {other}"),
    }
    for d in [store, chain, d_rep] {
        let _ = std::fs::remove_dir_all(&d);
    }
}
