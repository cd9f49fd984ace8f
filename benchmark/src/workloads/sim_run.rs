//! `sim_run` — scenario pack → `ScenarioRunner::run`, recording a chain.
//!
//! The only workload where `netsim` does most of the work, with `core`,
//! `chain`, `store.live` and `watch` riding along; `store.query` and
//! `serve` idle. op = one run of `packs/sim_base.toml`, alt = one run of
//! `packs/sim_faults.toml` (two storms with ground truth), alternating.
//! Work = events a run commits.

use crate::calib::{Calibrator, Timed};
use crate::gen::Rng;
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
use iri_chain::{encode_event, ChainTape, EntryKind, Genesis, Mark};
use iri_core::input::{events_from_update, PeerKey, UpdateEvent};
use iri_core::Classifier;
use iri_netsim::{HOUR, MINUTE};
use iri_obs::Cause;
use iri_scenario::faults::{apply_faults, DayContext};
use iri_scenario::{
    chain_dir_for, ChainMode, RunReport, RunnerOptions, ScenarioPack, ScenarioRunner,
};
use iri_store::{
    LiveOptions, LiveStore, Query, Store, StoredEvent, WatchConfig, Watcher, MANIFEST_FILE,
};
use iri_topology::asgraph::AsGraph;
use iri_topology::scenario::build_day_world;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

const BASE_PACK: &str = include_str!("../../packs/sim_base.toml");
const FAULTS_PACK: &str = include_str!("../../packs/sim_faults.toml");
const BASE_STREAM: u64 = 11;
const FAULTS_STREAM: u64 = 12;

/// One op run plus one alt run plus their kernels, on the reference box.
const NOMINAL_ROUND_S: f64 = 1.2;
const MIN_ROUNDS: usize = 8;
/// Rounds repeated with the allocator counted: each has its own seed,
/// and three of them keep the count's seed-to-seed spread under 2 %.
const COUNTED_ROUNDS: usize = 3;
/// The runner compacts after this many commits (its own cadence).
const COMPACT_EVERY_COMMITS: u64 = 16;

/// Stream label of the pack round `round` runs: every round has its own
/// seed, so one run already covers many topologies and workloads and two
/// runs' medians differ by much less than two single packs would.
fn stream(alt: bool, round: usize) -> u64 {
    (if alt { FAULTS_STREAM } else { BASE_STREAM }) + 100 * round as u64
}

/// Replaces a parsed pack's seed with one derived from the run's seed.
/// The smoke size quarters the primary pack's topology; the secondary
/// keeps its size, which its detector thresholds are tuned to.
fn seed_pack(pack: &mut ScenarioPack, env: &Env, alt: bool, round: usize) {
    pack.meta.seed = Rng::new(env.seed, stream(alt, round)).next() >> 1;
    if env.smoke && !alt {
        pack.topology.scale /= 4.0;
    }
}

/// What every run of one round's pack must reproduce.
#[derive(Debug, Clone, PartialEq)]
struct Reference {
    events: u64,
    chain_head: Option<String>,
}

struct Sim {
    base: ScenarioPack,
    faults: ScenarioPack,
    references: BTreeMap<(bool, usize), Reference>,
    runs: u64,
}

impl Sim {
    fn new() -> Sim {
        Sim {
            base: ScenarioPack::parse_str(BASE_PACK).expect("benchmark pack parses"),
            faults: ScenarioPack::parse_str(FAULTS_PACK).expect("benchmark pack parses"),
            references: BTreeMap::new(),
            runs: 0,
        }
    }

    /// One opaque run of round `round`'s pack into a fresh directory.
    fn run(&mut self, env: &Env, alt: bool, round: usize) -> (RunReport, PathBuf) {
        self.runs += 1;
        let dir = env.scratch.path(&format!("sim-{}", self.runs));
        let mut pack = if alt { &self.faults } else { &self.base }.clone();
        seed_pack(&mut pack, env, alt, round);
        let runner = ScenarioRunner::new(
            pack,
            RunnerOptions {
                fs: as_shared(&env.fs),
                jobs: 1,
                chain: ChainMode::Record,
                ..RunnerOptions::default()
            },
        );
        let report = runner.run(&dir).expect("scenario run");
        (report, dir)
    }

    /// Checks one finished run and removes its directories; returns
    /// (events stored, bytes on disk).
    fn verify(
        &mut self,
        env: &mut Env,
        alt: bool,
        round: usize,
        report: &RunReport,
        dir: &Path,
    ) -> (u64, u64) {
        let this = Reference {
            events: report.events_written,
            chain_head: report.chain_head.clone(),
        };
        // Determinism: a pack that has run before (round 0 in every
        // set-up, the first rounds again in the counted rounds) must
        // reproduce that run. A round's first run has nothing to be
        // compared with and only leaves the reference.
        match self.references.get(&(alt, round)) {
            Some(want) => env.checks.check(this == *want, || {
                format!(
                    "round {round} of {} gave {this:?}, an earlier run {want:?}",
                    report.pack
                )
            }),
            None => {
                self.references.insert((alt, round), this.clone());
            }
        }
        // Every run: the chain as it lies on disk, its hash links walked
        // again from the genesis entry, must end at the head the report
        // names and hold one entry per event the store was given.
        let chain = chain_dir_for(dir);
        let on_disk = ChainTape::load(iri_faults::real_fs(), &chain)
            .map(|tape| tape.summary())
            .map(|c| (c.events, Some(format!("{:016x}", c.head)), c.truncated));
        env.checks.check(
            matches!(&on_disk, Ok((events, head, 0))
                if *events == this.events && *events > 0 && *head == this.chain_head),
            || format!("the chain on disk holds {on_disk:?}, the report says {this:?}"),
        );
        let stored = Store::open(dir)
            .and_then(|mut s| s.count_by_class(&Query::default()))
            .map(|(counts, _)| counts.iter().sum::<u64>());
        env.checks.check(
            matches!(stored, Ok(n) if n == report.events_written),
            || {
                format!(
                    "store holds {stored:?} events, report says {}",
                    report.events_written
                )
            },
        );
        if alt {
            let s = &report.scorecard;
            env.checks.check(
                s.truths == 2 && s.precision == 1.0 && s.recall == 1.0,
                || format!("round {round} alt scorecard {s:?}"),
            );
        }
        let bytes = dir_bytes(dir) + dir_bytes(&chain);
        let _ = std::fs::remove_dir_all(dir);
        let _ = std::fs::remove_dir_all(&chain);
        (report.events_written, bytes)
    }

    /// Rounds `0..rounds`: an op run then an alt run, each between
    /// kernel runs. Returns the events the op and the alt runs stored.
    fn rounds(
        &mut self,
        env: &mut Env,
        cal: &mut Calibrator,
        rounds: usize,
        samples: &mut Samples,
    ) -> u64 {
        let mut stored = 0;
        for round in 0..rounds {
            for alt in [false, true] {
                let ((report, dir, started, ended), t) = cal.timed(|| {
                    let started = Instant::now();
                    let (report, dir) = self.run(env, alt, round);
                    (report, dir, started, Instant::now())
                });
                let name = if alt { "sim_run.alt" } else { "sim_run.op" };
                let (from, to) = (env.log.ns_of(started), env.log.ns_of(ended));
                env.log
                    .record(None, name, from, to, report.events_written, 0);
                let (events, _) = self.verify(env, alt, round, &report, &dir);
                stored += events;
                if alt {
                    samples.push_alt(t);
                } else {
                    samples.push_op(t, events);
                }
            }
        }
        stored
    }

    /// Set-up: parse both packs and make one warm-up run of round 0's
    /// primary pack (page cache, allocator arenas, lazy statics).
    fn setup(env: &mut Env, cal: &mut Calibrator, samples: &mut Samples) -> Sim {
        let ((mut sim, report, dir), t) = cal.timed(|| {
            let mut sim = Sim::new();
            let (report, dir) = sim.run(env, false, 0);
            (sim, report, dir)
        });
        sim.verify(env, false, 0, &report, &dir);
        samples.push_setup(t);
        sim
    }
}

/// The timed pass and the counted round: every end-to-end metric.
pub fn timed(mut env: Env) -> Outcome {
    let mut cal = Calibrator::new();
    let mut samples = Samples::default();
    let mut sim = Sim::setup(&mut env, &mut cal, &mut samples);
    for _ in 1..env.setup_repeats() {
        sim = Sim::setup(&mut env, &mut cal, &mut samples);
    }
    let rounds = env.rounds(NOMINAL_ROUND_S, MIN_ROUNDS);
    let fs_before = env.fs.counts();
    let stored = sim.rounds(&mut env, &mut cal, rounds, &mut samples);
    let rss = peak_rss_mb();

    // The first rounds once more with the allocator counted: the same
    // packs, so their chain heads must come out the same a further time.
    let mut counted_rounds = Vec::new();
    let ((), alloc) = counted(|| {
        for round in 0..COUNTED_ROUNDS.min(rounds) {
            for alt in [false, true] {
                let (report, dir) = sim.run(&env, alt, round);
                counted_rounds.push((alt, round, report, dir));
            }
        }
    });
    let fs = env.fs.counts().since(&fs_before);
    let (mut counted_events, mut disk_bytes) = (0, 0);
    for (alt, round, report, dir) in &counted_rounds {
        let (events, bytes) = sim.verify(&mut env, *alt, *round, report, dir);
        counted_events += events;
        disk_bytes += bytes;
    }
    let counts = Counted {
        fs_work: stored + counted_events,
        fs,
        alloc_work: counted_events,
        alloc,
        disk_bytes,
        events_stored: counted_events,
    };
    let values = end_to_end(&samples, rss, &counts, &env.checks);
    env.finish(&cal, values)
}

/// The pack's detector tuning as the store's watcher takes it.
fn watch_config(pack: &ScenarioPack) -> WatchConfig {
    let w = &pack.watch;
    WatchConfig {
        bin_ms: w.bin_ms,
        change_window: w.change_window,
        change_ratio: w.change_ratio,
        change_z: w.change_z,
        min_rate: w.min_rate,
        period_window: w.period_window,
        period_min_lag: w.period_min_lag,
        period_max_lag: w.period_max_lag,
        period_threshold: w.period_threshold,
        novelty_warmup: w.novelty_warmup,
        novelty_min_count: w.novelty_min_count,
        ..WatchConfig::default()
    }
}

/// What the stage-by-stage replay of one pack run measured.
struct Replay {
    root: usize,
    events: u64,
    chain_bytes: u64,
    class_total: u64,
    append_fs_ms: f64,
    manifest_bytes: u64,
}

/// The runner's commit step: chain flush, store append, and a
/// compaction on the runner's cadence.
struct Committer<'a> {
    env_fs: &'a crate::meter_fs::MeterFs,
    store: &'a LiveStore,
    segment_rows: u32,
    commits: u64,
    append_fs_ms: f64,
}

impl Committer<'_> {
    fn compact(&mut self, log: &mut SpanLog) {
        let before = self.env_fs.counts();
        let id = log.open("store.compact");
        self.store.compact(self.segment_rows).expect("compact");
        log.close(id, 1, self.env_fs.counts().since(&before).write_bytes());
    }

    fn commit(&mut self, log: &mut SpanLog, tape: &mut ChainTape, rows: &[StoredEvent]) {
        let id = log.open("chain.flush");
        tape.flush().expect("chain flush");
        log.close(id, 1, 0);
        let before = self.env_fs.counts();
        let id = log.open("store.append");
        self.store.append_events(rows).expect("append");
        let io = self.env_fs.counts().since(&before);
        log.close(id, rows.len() as u64, io.write_bytes());
        self.append_fs_ms += io.total_ms();
        self.commits += 1;
        if self.commits.is_multiple_of(COMPACT_EVERY_COMMITS) {
            self.compact(log);
        }
    }
}

/// Replays round 0's primary pack through the same public functions the
/// runner calls, one stage at a time on one thread, with a span around
/// each stage.
fn replay(env: &mut Env) -> Replay {
    let fs = as_shared(&env.fs);
    let root = env.log.open("sim_run.replay");

    let id = env.log.open("scenario.pack_parse");
    let mut pack = ScenarioPack::parse_str(BASE_PACK).expect("benchmark pack parses");
    env.log.close(id, 1, BASE_PACK.len() as u64);
    seed_pack(&mut pack, env, false, 0);
    let cfg = pack.scenario_config().expect("benchmark pack configures");
    let log = &mut env.log;

    let id = log.open("topology.graph");
    let graph = AsGraph::generate(&pack.graph_config());
    log.close(id, graph.prefix_count() as u64, 0);

    let dir = env.scratch.path("sim-replay");
    let chain_dir = chain_dir_for(&dir);
    let id = log.open("store.open");
    let store = LiveStore::open_with(
        &dir,
        &LiveOptions {
            fs: fs.clone(),
            create_segment_rows: Some(pack.run.segment_rows),
            jobs: 1,
            ..LiveOptions::default()
        },
    )
    .expect("fresh live store");
    log.close(id, 0, 0);
    let mut watcher = Watcher::new(watch_config(&pack));
    let batch = pack.run.batch_events.max(1);
    let id = log.open("chain.create");
    let mut tape = ChainTape::create(
        fs,
        &chain_dir,
        &Genesis {
            fingerprint: 0,
            seed: pack.meta.seed,
            days: pack.run.days,
            hours: 24,
            batch_events: batch as u64,
            segment_rows: pack.run.segment_rows,
            start_day: pack.run.start_day,
            name: pack.meta.name.clone(),
        },
    )
    .expect("fresh chain");
    log.close(id, 1, 0);

    let warmup_ms = u64::from(cfg.warmup_minutes) * MINUTE;
    let lan_base = u32::from(cfg.exchange.lan_base());
    let mut buf: Vec<StoredEvent> = Vec::with_capacity(batch);
    let mut crossed: Vec<StoredEvent> = Vec::new();
    let mut events = 0u64;
    let mut committer = Committer {
        env_fs: &env.fs,
        store: &store,
        segment_rows: pack.run.segment_rows,
        commits: 0,
        append_fs_ms: 0.0,
    };

    for run_day in 0..pack.run.days {
        let sim_day = pack.run.start_day + run_day;
        let mark = Mark::DayStart { run_day, sim_day };
        tape.cross(mark.kind(), mark.encode()).expect("chain mark");
        let id = log.open("topology.build_world");
        let (mut world, rs, providers) = build_day_world(&cfg, &graph, sim_day);
        let draws = apply_faults(
            &pack,
            &mut world,
            &DayContext {
                graph: &graph,
                providers: &providers,
                lan_base,
                warmup_ms,
                run_day,
            },
        );
        world.start();
        log.close(id, providers.len() as u64, 0);
        let mark = Mark::Faults {
            run_day,
            scheduled: draws.scheduled,
            digest: draws.digest,
        };
        tape.cross(mark.kind(), mark.encode()).expect("chain mark");

        let day_offset = u64::from(run_day) * 24 * HOUR;
        let day_end = warmup_ms + 24 * HOUR;
        let chunk = u64::from(pack.run.chunk_minutes) * MINUTE;
        let mut classifier = Classifier::new();
        let mut t = 0u64;
        while t < day_end {
            t = (t + chunk).min(day_end);
            let before = world.events_processed();
            let id = log.open("netsim.run");
            world.run_until(t);
            log.close(id, world.events_processed() - before, 0);
            let drained = world
                .monitor_mut(rs)
                .map(|m| std::mem::take(&mut m.updates))
                .unwrap_or_default();

            let id = log.open("core.expand");
            let mut expanded: Vec<(UpdateEvent, Cause)> = Vec::new();
            let mut updates = 0u64;
            for logged in &drained {
                let Message::Update(up) = &logged.message else {
                    continue;
                };
                updates += 1;
                let peer = PeerKey {
                    asn: logged.peer_asn,
                    addr: logged.peer_addr,
                };
                for ev in events_from_update(logged.time_ms, peer, up) {
                    expanded.push((ev, logged.cause));
                }
            }
            log.close(id, updates, 0);

            let id = log.open("core.classify");
            let mut rows: Vec<StoredEvent> = Vec::new();
            for (ev, cause) in &expanded {
                let c = classifier.classify(ev);
                if c.time_ms < warmup_ms {
                    continue;
                }
                let mut row = StoredEvent::from_classified(&c, *cause);
                row.time_ms = row.time_ms - warmup_ms + day_offset;
                rows.push(row);
            }
            log.close(id, expanded.len() as u64, 0);

            let id = log.open("chain.cross");
            for row in &rows {
                tape.cross(EntryKind::Event, encode_event(row))
                    .expect("chain cross");
            }
            log.close(id, rows.len() as u64, 0);

            events += rows.len() as u64;
            for row in rows {
                crossed.push(row);
                buf.push(row);
                if buf.len() == batch {
                    committer.commit(log, &mut tape, &buf);
                    buf.clear();
                }
            }

            let id = log.open("watch.poll");
            let polled = watcher.poll(&store).expect("watch poll");
            log.close(id, polled.events_seen, 0);
        }
        let mark = Mark::Checkpoint {
            run_day,
            events,
            census_prefixes: 0,
            spills: 0,
            restores: 0,
            spill_bytes_written: 0,
            spill_bytes_read: 0,
        };
        tape.cross(mark.kind(), mark.encode()).expect("chain mark");
        let id = log.open("chain.flush");
        tape.flush().expect("chain flush");
        log.close(id, 1, 0);
    }
    if !buf.is_empty() {
        committer.commit(log, &mut tape, &buf);
    }
    committer.compact(log);
    let id = log.open("watch.poll");
    let polled = watcher.poll(&store).expect("final poll");
    log.close(id, polled.events_seen, 0);

    // What the replay's single thread leaves out: the runner hands every
    // event to its writer thread through a bounded channel. The same
    // rows through the same kind of channel, to a thread that only
    // counts them.
    let id = log.open("scenario.channel");
    let (tx, rx) = crossbeam::channel::bounded::<StoredEvent>(pack.run.channel_capacity);
    let received = std::thread::scope(|scope| {
        let counter = scope.spawn(move || rx.iter().count());
        for row in &crossed {
            tx.send(*row).expect("the counting thread is alive");
        }
        drop(tx);
        counter.join().expect("the counting thread")
    });
    log.close(id, received as u64, 0);
    log.close(root, events, 0);
    let append_fs_ms = committer.append_fs_ms;

    let class_total = store
        .snapshot()
        .count_by_class(&Query::default())
        .map(|(c, _)| c.iter().sum::<u64>())
        .unwrap_or(0);
    let chain_bytes = dir_bytes(&chain_dir);
    let manifest_bytes = std::fs::metadata(dir.join(MANIFEST_FILE)).map_or(0, |m| m.len());
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&chain_dir);
    Replay {
        root,
        events,
        chain_bytes,
        class_total,
        append_fs_ms,
        manifest_bytes,
    }
}

/// One replay's layer values: its stage times scaled by its bracket's
/// factor, and its ledger against the opaque run.
fn layer_values(log: &SpanLog, rep: &Replay, t: Timed, opaque_ms: f64) -> Values {
    let st = Stages {
        log,
        root: rep.root,
        factor: t.factor,
    };
    let stored = rep.events.max(1) as f64;
    let mut v = Values::new();
    v.insert("scenario.pack_parse_ms", st.ms("scenario.pack_parse"));
    v.insert("topology.graph_ms", st.ms("topology.graph"));
    v.insert("topology.build_world_ms", st.ms("topology.build_world"));
    // The runner's own share: its loop, and handing events to its writer.
    v.insert(
        "scenario.runner_self_ms",
        log.totals("sim_run.replay", Some(rep.root)).self_ms * t.factor + st.ms("scenario.channel"),
    );
    v.insert("netsim.run_ms", st.ms("netsim.run"));
    v.insert("netsim.sim_events", st.count("netsim.run"));
    v.insert(
        "netsim.host_us_per_sim_event",
        st.per_unit("netsim.run", 1e3),
    );
    v.insert(
        "netsim.sim_events_per_stored_event",
        st.count("netsim.run") / stored,
    );
    v.insert("core.expand_ns_per_update", st.per_unit("core.expand", 1e6));
    v.insert(
        "core.classify_ns_per_event",
        st.per_unit("core.classify", 1e6),
    );
    v.insert("chain.cross_ns_per_event", st.per_unit("chain.cross", 1e6));
    v.insert("chain.flush_ms", st.ms("chain.flush"));
    v.insert("chain.bytes_per_event", rep.chain_bytes as f64 / stored);
    let polls = st.durations_ms("watch.poll");
    v.insert("watch.poll_ms_p50", median(&polls));
    v.insert(
        "watch.rows_per_poll",
        st.count("watch.poll") / polls.len().max(1) as f64,
    );
    let appends = st.durations_ms("store.append");
    v.insert("store.append_ms_p50", median(&appends));
    v.insert(
        "store.append_fs_share",
        rep.append_fs_ms * t.factor / appends.iter().sum::<f64>().max(1e-9),
    );
    let compacts = log.totals("store.compact", Some(rep.root));
    let per_compact = compacts.spans.max(1) as f64;
    v.insert("store.compact_ms", st.ms("store.compact") / per_compact);
    v.insert(
        "store.compact_rewrite_bytes",
        compacts.bytes as f64 / per_compact,
    );
    v.insert("store.manifest_bytes", rep.manifest_bytes as f64);
    v.insert("store.open_ms", st.ms("store.open"));
    // The ledger: the stages' self times add up to the replay, and the
    // replay is held against the opaque run of the same pack. (Pinned to
    // one CPU the runner's two threads take turns, as the replay's
    // stages do. The replay waits for every flush in line while the
    // runner's simulator runs on through its writer's, and pays for no
    // hand-offs between threads: over eleven traced runs the ratio lay
    // between 0.81 and 1.21, median 1.01.)
    v.insert(
        "bench.trace_coverage",
        if opaque_ms > 0.0 {
            t.cal_s() * 1e3 / opaque_ms
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
    let mut sim = Sim::setup(&mut env, &mut cal, &mut untraced);
    let (with_trace, counts, _) = traced_rounds(
        &mut env,
        &mut cal,
        &mut untraced,
        |env, cal, rounds, samples| sim.rounds(env, cal, rounds, samples),
        |stored| *stored,
    );

    // The replays redo round 0's op run, so that run is their yardstick:
    // the traced one and one more per further replay, because one alone
    // scatters by a tenth.
    let op_events = sim.references[&(false, 0)].events;
    let mut yardstick = vec![with_trace.op_ms[0]];
    for _ in 1..env.replays() {
        let ((report, dir), t) = cal.timed(|| sim.run(&env, false, 0));
        sim.verify(&mut env, false, 0, &report, &dir);
        yardstick.push(t.cal_s() * 1e3);
    }
    let opaque_ms = median(&yardstick);
    let mut replays = Vec::new();
    crate::alloc::set_counting(true);
    for _ in 0..env.replays() {
        let (rep, t) = cal.timed(|| replay(&mut env));
        env.checks.check(
            rep.events == op_events && rep.class_total == op_events,
            || {
                format!(
                    "replay stored {} events ({} by class), the runner {op_events}",
                    rep.events, rep.class_total
                )
            },
        );
        replays.push(layer_values(&env.log, &rep, t, opaque_ms));
    }
    crate::alloc::set_counting(false);
    let mut v = median_values(&replays);
    common_layers(&mut v, &cal, &untraced, &with_trace, &counts);
    crate::write_trace(super::SIM_RUN, &env.log);
    env.finish(&cal, v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_reference_drives_pass_ratio_below_one() {
        let mut env = Env::new(5, 1.0, true, false).expect("scratch");
        let mut sim = Sim::new();
        for _ in 0..2 {
            let (report, dir) = sim.run(&env, false, 0);
            sim.verify(&mut env, false, 0, &report, &dir);
        }
        // The chain on disk and the store's total both times, and the
        // second run against the first.
        assert_eq!(env.checks.attempted, 5);
        assert_eq!(env.checks.failed, 0, "{:?}", env.checks.first_failure);

        sim.references
            .get_mut(&(false, 0))
            .expect("left by the first run")
            .chain_head = Some("0".repeat(16));
        let (report, dir) = sim.run(&env, false, 0);
        sim.verify(&mut env, false, 0, &report, &dir);
        assert_eq!(env.checks.failed, 1);
        assert!(env.checks.pass_ratio() < 1.0);
    }
}
