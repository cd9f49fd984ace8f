//! `archive_ingest` — a generated MRT log, held in memory, into a store.
//!
//! `mrt`+`bgp` decode, `core` classify, `pipeline`, `store.segment`
//! encode and `store.durable` commit do the work; `netsim` does none.
//! op = `store::ingest_mrt` (one worker, default batched flush) into a
//! fresh directory; alt = a run of `LiveStore::append_events` batches
//! plus `LiveStore::compact` into a fresh directory — the same segment
//! format through the other writer, so a gain for bulk ingest that costs
//! live appends shows. Work = records (op) and rows (alt) written.

use crate::calib::{Calibrator, Timed};
use crate::gen::{self, Tallies, BASE_UNIX};
use crate::harness::{
    common_layers, counted, end_to_end, median_values, peak_rss_mb, traced_rounds, Counted, Env,
    Samples, Stages,
};
use crate::meter_fs::as_shared;
use crate::paths::dir_bytes;
use crate::report::{Outcome, Values};
use crate::span::SpanLog;
use crate::stats::median;
use iri_bgp::message::Message;
use iri_core::input::{events_from_update, PeerKey, UpdateEvent};
use iri_core::taxonomy::UpdateClass;
use iri_core::Classifier;
use iri_faults::RetryPolicy;
use iri_mrt::{MrtReader, MrtRecord, MrtWriter};
use iri_obs::Cause;
use iri_pipeline::PipelineConfig;
use iri_store::{
    ingest_mrt, logical_shard, IngestConfig, LiveOptions, LiveStore, Query, SegmentBuilder, Store,
    StoreWriter, StoredEvent, DEFAULT_SEGMENT_ROWS, LOGICAL_SHARDS, MANIFEST_FILE,
};
use std::path::PathBuf;
use std::time::Instant;

/// Records in the generated log.
const RECORDS: u64 = 120_000;
/// Rows per live append, and appends per alt run.
const APPEND_ROWS: usize = 4_096;
const APPENDS: u64 = 8;
/// One op run plus one alt run plus their kernels, on the reference box.
const NOMINAL_ROUND_S: f64 = 0.85;
const MIN_ROUNDS: usize = 8;

type ClassCounts = [u64; UpdateClass::COUNT];

fn class_counts(c: &Classifier) -> ClassCounts {
    let mut out = [0; UpdateClass::COUNT];
    for class in UpdateClass::ALL {
        out[class.index()] = c.count(class);
    }
    out
}

/// The generated log and everything the checks compare against.
struct Archive {
    records: Vec<MrtRecord>,
    log: Vec<u8>,
    tallies: Tallies,
    /// The log's events classified by a plain `Classifier` pass.
    rows: Vec<StoredEvent>,
    reference: ClassCounts,
    /// Class counts of the first `appended_rows()` rows.
    appended_reference: ClassCounts,
    runs: u64,
}

impl Archive {
    fn appended_rows(&self) -> usize {
        (APPENDS as usize * APPEND_ROWS).min(self.rows.len())
    }

    /// Generates the log and the reference pass.
    fn build(env: &Env) -> Archive {
        let (records, tallies) = gen::mrt_records(env.seed, env.sized(RECORDS));
        let bytes = encode(&records);

        let mut classifier = Classifier::new();
        let mut rows = Vec::with_capacity(records.len());
        for rec in &records {
            for ev in expand(rec) {
                let c = classifier.classify(&ev);
                rows.push(StoredEvent::from_classified(&c, Cause::Unknown));
            }
        }
        let mut archive = Archive {
            records,
            log: bytes,
            tallies,
            reference: class_counts(&classifier),
            appended_reference: [0; UpdateClass::COUNT],
            rows,
            runs: 0,
        };
        for row in &archive.rows[..archive.appended_rows()] {
            archive.appended_reference[row.class.index()] += 1;
        }
        archive
    }

    fn fresh_dir(&mut self, env: &Env, what: &str) -> PathBuf {
        self.runs += 1;
        env.scratch.path(&format!("{what}-{}", self.runs))
    }

    /// op: the whole log through `ingest_mrt` into a fresh directory.
    fn ingest(&mut self, env: &Env) -> (PathBuf, ClassCounts, u64) {
        let dir = self.fresh_dir(env, "ingest");
        let cfg = IngestConfig::default()
            .with_jobs(1)
            .with_fs(as_shared(&env.fs));
        let mut reader = MrtReader::new(self.log.as_slice());
        let outcome = ingest_mrt(&dir, &mut reader, BASE_UNIX, &cfg).expect("ingest");
        (
            dir,
            class_counts(&outcome.analysis.classifier),
            outcome.manifest.total_events,
        )
    }

    /// alt: `APPENDS` live appends of `APPEND_ROWS` rows, then a compact.
    fn append(&mut self, env: &Env, mut log: Option<&mut SpanLog>) -> (PathBuf, u64, f64) {
        let dir = self.fresh_dir(env, "append");
        let live = LiveStore::open_with(
            &dir,
            &LiveOptions {
                fs: as_shared(&env.fs),
                create_segment_rows: Some(DEFAULT_SEGMENT_ROWS),
                jobs: 1,
                ..LiveOptions::default()
            },
        )
        .expect("fresh live store");
        let mut fs_ms = 0.0;
        for batch in self.rows[..self.appended_rows()].chunks(APPEND_ROWS) {
            let before = env.fs.counts();
            let id = log.as_mut().map(|l| l.open("store.append"));
            live.append_events(batch).expect("append");
            let io = env.fs.counts().since(&before);
            fs_ms += io.total_ms();
            if let (Some(l), Some(id)) = (log.as_mut(), id) {
                l.close(id, batch.len() as u64, io.write_bytes());
            }
        }
        let before = env.fs.counts();
        let id = log.as_mut().map(|l| l.open("store.compact"));
        live.compact(DEFAULT_SEGMENT_ROWS).expect("compact");
        if let (Some(l), Some(id)) = (log.as_mut(), id) {
            l.close(id, 1, env.fs.counts().since(&before).write_bytes());
        }
        (dir, live.manifest().total_events, fs_ms)
    }

    fn verify_ingest(&self, env: &mut Env, counts: &ClassCounts, stored: u64) {
        let announces: u64 = [
            UpdateClass::WaDiff,
            UpdateClass::AaDiff,
            UpdateClass::WaDup,
            UpdateClass::AaDup,
            UpdateClass::NewAnnounce,
        ]
        .iter()
        .map(|c| counts[c.index()])
        .sum();
        let withdraws = counts[UpdateClass::WwDup.index()] + counts[UpdateClass::Withdraw.index()];
        env.checks.check(
            *counts == self.reference
                && stored == self.rows.len() as u64
                && announces == self.tallies.announces
                && withdraws == self.tallies.withdraws,
            || {
                format!(
                    "ingest gave {counts:?} ({stored} stored), a plain classifier pass {:?}, \
                     the generator {:?}",
                    self.reference, self.tallies
                )
            },
        );
    }

    fn verify_append(&self, env: &mut Env, stored: u64) {
        env.checks.check(stored == self.appended_rows() as u64, || {
            format!(
                "live store reports {stored} events after {} were appended",
                self.appended_rows()
            )
        });
    }

    /// Re-reads a finished store from disk and compares its class
    /// totals; done in the counted round, not in every rep.
    fn verify_on_disk(env: &mut Env, dir: &std::path::Path, want: &ClassCounts) {
        let got = Store::open(dir)
            .and_then(|mut s| s.count_by_class(&Query::default()))
            .map(|(c, _)| c);
        env.checks.check(matches!(&got, Ok(c) if c == want), || {
            format!("{} holds {got:?}, wanted {want:?}", dir.display())
        });
    }

    /// `rounds` times: one ingest, then one run of appends, each between
    /// kernel runs. Returns the records and rows written.
    fn rounds(
        &mut self,
        env: &mut Env,
        cal: &mut Calibrator,
        rounds: usize,
        samples: &mut Samples,
    ) -> u64 {
        let mut written = 0;
        for _ in 0..rounds {
            let ((dir, counts, stored, started, ended), t) = cal.timed(|| {
                let started = Instant::now();
                let (dir, counts, stored) = self.ingest(env);
                (dir, counts, stored, started, Instant::now())
            });
            let (from, to) = (env.log.ns_of(started), env.log.ns_of(ended));
            env.log.record(
                None,
                "archive_ingest.op",
                from,
                to,
                self.tallies.records,
                self.log.len() as u64,
            );
            self.verify_ingest(env, &counts, stored);
            let _ = std::fs::remove_dir_all(dir);
            samples.push_op(t, self.tallies.records);

            let ((dir, stored, started, ended), t) = cal.timed(|| {
                let started = Instant::now();
                let (dir, stored, _) = self.append(env, None);
                (dir, stored, started, Instant::now())
            });
            let (from, to) = (env.log.ns_of(started), env.log.ns_of(ended));
            env.log
                .record(None, "archive_ingest.alt", from, to, stored, 0);
            self.verify_append(env, stored);
            let _ = std::fs::remove_dir_all(dir);
            samples.push_alt(t);
            written += self.tallies.records + stored;
        }
        written
    }

    /// Set-up: generate and encode the log, run the reference pass, and
    /// make one warm-up ingest.
    fn setup(env: &mut Env, cal: &mut Calibrator, samples: &mut Samples) -> Archive {
        let ((mut archive, dir, counts, stored), t) = cal.timed(|| {
            let mut archive = Archive::build(env);
            let (dir, counts, stored) = archive.ingest(env);
            (archive, dir, counts, stored)
        });
        archive.verify_ingest(env, &counts, stored);
        let _ = std::fs::remove_dir_all(dir);
        archive.runs = 0;
        samples.push_setup(t);
        archive
    }
}

/// The records as the bytes of an MRT log.
fn encode(records: &[MrtRecord]) -> Vec<u8> {
    let mut writer = MrtWriter::new(Vec::new());
    for rec in records {
        writer.write(rec).expect("encode into memory");
    }
    writer.into_inner()
}

/// The prefix events of one record, timed like the pipeline times them.
fn expand(rec: &MrtRecord) -> Vec<UpdateEvent> {
    let MrtRecord::Bgp4mpMessage(m) = rec else {
        return Vec::new();
    };
    let Message::Update(update) = &m.message else {
        return Vec::new();
    };
    let time_ms = u64::from(m.timestamp.saturating_sub(BASE_UNIX)) * 1000;
    let peer = PeerKey {
        asn: m.peer_asn,
        addr: m.peer_ip,
    };
    events_from_update(time_ms, peer, update)
}

/// The timed pass and the counted round: every end-to-end metric.
pub fn timed(mut env: Env) -> Outcome {
    let mut cal = Calibrator::new();
    let mut samples = Samples::default();
    let mut archive = Archive::setup(&mut env, &mut cal, &mut samples);
    for _ in 1..env.setup_repeats() {
        archive = Archive::setup(&mut env, &mut cal, &mut samples);
    }
    let rounds = env.rounds(NOMINAL_ROUND_S, MIN_ROUNDS);
    let fs_before = env.fs.counts();
    let written = archive.rounds(&mut env, &mut cal, rounds, &mut samples);
    let rss = peak_rss_mb();

    // One more round with the allocator counted, and its two stores
    // re-read from disk.
    let ((op, alt), alloc) = counted(|| (archive.ingest(&env), archive.append(&env, None)));
    let fs = env.fs.counts().since(&fs_before);
    archive.verify_ingest(&mut env, &op.1, op.2);
    archive.verify_append(&mut env, alt.1);
    Archive::verify_on_disk(&mut env, &op.0, &archive.reference);
    Archive::verify_on_disk(&mut env, &alt.0, &archive.appended_reference);
    let counted_work = archive.tallies.records + alt.1;
    let counts = Counted {
        fs_work: written + counted_work,
        fs,
        alloc_work: counted_work,
        alloc,
        disk_bytes: dir_bytes(&op.0) + dir_bytes(&alt.0),
        events_stored: op.2 + alt.1,
    };
    let values = end_to_end(&samples, rss, &counts, &env.checks);
    env.finish(&cal, values)
}

/// What one replay measured, beyond its spans.
struct Replay {
    root: usize,
    manifest_bytes: u64,
    append_fs_ms: f64,
}

/// Replays the ingest stage by stage through public functions: encode,
/// decode, expand, classify (one thread each, for the per-record costs);
/// the analysis pipeline without a sink at one and two workers, and over
/// events already in memory; segment encode alone; the store writer over
/// the already-classified rows; and one alt run with a span per append.
fn replay(env: &mut Env, archive: &mut Archive) -> Replay {
    let records = archive.records.len() as u64;
    let root = env.log.open("archive_ingest.replay");

    let bytes = env.log.within("mrt.encode", || {
        let bytes = encode(&archive.records);
        let n = bytes.len() as u64;
        (bytes, records, n)
    });
    env.checks.check(bytes == archive.log, || {
        "encoding the same records gave different bytes".to_owned()
    });
    drop(bytes);

    let decoded = env.log.within("mrt.decode", || {
        let mut reader = MrtReader::new(archive.log.as_slice());
        let mut out = Vec::with_capacity(archive.records.len());
        while let Ok(Some(rec)) = reader.next_record() {
            out.push(rec);
        }
        (out, records, archive.log.len() as u64)
    });
    env.checks.check(decoded == archive.records, || {
        "the decoded log differs from the generated records".to_owned()
    });

    let events = env.log.within("core.expand", || {
        let evs: Vec<UpdateEvent> = decoded.iter().flat_map(expand).collect();
        (evs, records, 0)
    });
    drop(decoded);
    let classified = env.log.within("core.classify", || {
        let mut classifier = Classifier::new();
        for ev in &events {
            std::hint::black_box(classifier.classify(ev));
        }
        (class_counts(&classifier), events.len() as u64, 0)
    });
    env.checks.check(classified == archive.reference, || {
        "the replayed classifier pass differs from the reference".to_owned()
    });

    for (jobs, name) in [(1, "pipeline.analyze_jobs1"), (2, "pipeline.analyze_jobs2")] {
        let id = env.log.open(name);
        let mut reader = MrtReader::new(archive.log.as_slice());
        // Off the one CPU for this stage alone: it is here to show what
        // a second worker gains, which two threads taking turns cannot.
        let (result, n) = crate::steady::on_all_cpus(|| {
            iri_pipeline::analyze_mrt(&mut reader, BASE_UNIX, &PipelineConfig::with_jobs(jobs))
        })
        .expect("analysis pipeline");
        env.log.close(id, n, 0);
        env.checks.check(
            class_counts(&result.classifier) == archive.reference,
            || format!("the pipeline at {jobs} worker(s) differs from the reference"),
        );
    }

    // The worker side alone: the same analysis over events already in
    // memory, so the reader side has nothing left to do.
    let worker = env.log.within("pipeline.analyze_events", || {
        let result = iri_pipeline::analyze_events(&events, &PipelineConfig::with_jobs(1))
            .expect("analysis pipeline");
        (class_counts(&result.classifier), events.len() as u64, 0)
    });
    env.checks.check(worker == archive.reference, || {
        "the in-memory pipeline differs from the reference".to_owned()
    });
    drop(events);

    env.log.within("store.segment_encode", || {
        let mut builders: Vec<SegmentBuilder> = (0..LOGICAL_SHARDS)
            .map(|s| SegmentBuilder::new(s as u16))
            .collect();
        for row in &archive.rows {
            builders[logical_shard(row.peer.asn, row.prefix)].push(row);
        }
        let mut bytes = 0u64;
        for (shard, b) in builders.into_iter().enumerate() {
            if !b.is_empty() {
                bytes += b.encode(format!("s{shard:02}.seg"), 0).0.len() as u64;
            }
        }
        ((), archive.rows.len() as u64, bytes)
    });

    // The store writer over already-classified rows: what the ingest
    // adds on top of the analysis pipeline.
    let dir = env.scratch.path("ingest-replay");
    let id = env.log.open("store.writer");
    let mut writer = StoreWriter::create_with(
        &dir,
        DEFAULT_SEGMENT_ROWS,
        as_shared(&env.fs),
        RetryPolicy::default(),
    )
    .expect("fresh store");
    for row in &archive.rows {
        writer.push(row).expect("push");
    }
    writer.flush_all().expect("flush segments");
    writer.sync_pending().expect("sync segments");
    let commit = env.log.open("store.commit");
    let manifest = writer.commit(records).expect("commit");
    env.log.close(commit, 1, 0);
    env.log.close(id, archive.rows.len() as u64, 0);
    env.checks
        .check(manifest.total_events == archive.rows.len() as u64, || {
            "the replayed writer committed a different event count".to_owned()
        });
    let manifest_bytes = std::fs::metadata(dir.join(MANIFEST_FILE)).map_or(0, |m| m.len());
    let _ = std::fs::remove_dir_all(&dir);

    let mut log = std::mem::take(&mut env.log);
    let (dir, stored, append_fs_ms) = archive.append(env, Some(&mut log));
    env.log = log;
    archive.verify_append(env, stored);
    let _ = std::fs::remove_dir_all(dir);
    env.log.close(root, records, 0);
    Replay {
        root,
        manifest_bytes,
        append_fs_ms,
    }
}

/// One replay's layer values: its stage times scaled by its bracket's
/// factor, and its ledger against the opaque ingest.
fn layer_values(log: &SpanLog, rep: &Replay, t: Timed, opaque_ms: f64) -> Values {
    let st = Stages {
        log,
        root: rep.root,
        factor: t.factor,
    };
    let mut v = Values::new();
    v.insert("mrt.encode_ns_per_record", st.per_unit("mrt.encode", 1e6));
    v.insert("mrt.decode_ns_per_record", st.per_unit("mrt.decode", 1e6));
    v.insert("core.expand_ns_per_update", st.per_unit("core.expand", 1e6));
    v.insert(
        "core.classify_ns_per_event",
        st.per_unit("core.classify", 1e6),
    );
    v.insert("pipeline.analyze_ms_jobs1", st.ms("pipeline.analyze_jobs1"));
    v.insert("pipeline.analyze_ms_jobs2", st.ms("pipeline.analyze_jobs2"));
    v.insert(
        "pipeline.par_speedup",
        st.ms("pipeline.analyze_jobs1") / st.ms("pipeline.analyze_jobs2").max(1e-9),
    );
    v.insert(
        "store.segment_encode_ns_per_row",
        st.per_unit("store.segment_encode", 1e6),
    );
    v.insert("store.ingest_ms", opaque_ms);
    v.insert("store.commit_ms", st.ms("store.commit"));
    v.insert("store.manifest_bytes", rep.manifest_bytes as f64);
    let appends = st.durations_ms("store.append");
    v.insert("store.append_ms_p50", median(&appends));
    v.insert(
        "store.append_fs_share",
        rep.append_fs_ms * t.factor / appends.iter().sum::<f64>().max(1e-9),
    );
    v.insert("store.compact_ms", st.ms("store.compact"));
    v.insert(
        "store.compact_rewrite_bytes",
        log.totals("store.compact", Some(rep.root)).bytes as f64,
    );
    // The ledger: decode and expand (the pipeline's reader side), the
    // analysis over events already in memory (its worker side), what
    // the segment writer adds, and the commit. The opaque ingest is
    // pinned to one CPU, where the two sides take turns, so the stages
    // add.
    let writer_self = log.totals("store.writer", Some(rep.root)).self_ms * t.factor;
    let ledger_ms = st.ms("mrt.decode")
        + st.ms("core.expand")
        + st.ms("pipeline.analyze_events")
        + writer_self
        + st.ms("store.commit");
    v.insert(
        "bench.trace_coverage",
        if opaque_ms > 0.0 {
            ledger_ms / opaque_ms
        } else {
            0.0
        },
    );
    v
}

/// The traced pass: untraced rounds, traced rounds, and the replays.
pub fn traced(mut env: Env) -> Outcome {
    let mut cal = Calibrator::new();
    let mut untraced = Samples::default();
    let mut archive = Archive::setup(&mut env, &mut cal, &mut untraced);
    let (with_trace, counts, _) = traced_rounds(
        &mut env,
        &mut cal,
        &mut untraced,
        |env, cal, rounds, samples| archive.rounds(env, cal, rounds, samples),
        |written| *written,
    );

    let opaque_ms = median(&with_trace.op_ms);
    let mut replays = Vec::new();
    crate::alloc::set_counting(true);
    for _ in 0..env.replays() {
        let (rep, t) = cal.timed(|| replay(&mut env, &mut archive));
        replays.push(layer_values(&env.log, &rep, t, opaque_ms));
    }
    crate::alloc::set_counting(false);
    let mut v = median_values(&replays);
    common_layers(&mut v, &cal, &untraced, &with_trace, &counts);
    crate::write_trace(super::ARCHIVE_INGEST, &env.log);
    env.finish(&cal, v)
}
