//! The streaming scenario runner: pack → world → store → detectors.
//!
//! [`ScenarioRunner`] executes a [`ScenarioPack`] day by day with bounded
//! memory at every stage:
//!
//! - each day runs through the shared day step ([`drive_day`]): the
//!   simulation advances in `chunk_minutes` steps and the monitor log is
//!   drained after each chunk, so no whole-day MRT log ever accumulates;
//! - drained updates are flattened, classified, and pushed one event at a
//!   time through a **bounded** crossbeam channel to a writer thread that
//!   commits fixed-size batches to the [`LiveStore`] — batch boundaries
//!   are counted in events, never in wall time, so the store bytes are
//!   identical at any `--jobs` / machine speed;
//! - with `[limits] spill_working_set > 0`, per-router RIB state beyond
//!   the working set spills through the same `StoreFs` as the store
//!   (see `iri_netsim::spill`), bounding simulator-side memory too;
//! - a [`Watcher`] polls the store between chunks (live detection) and
//!   once after the final commit; its cumulative incident list is
//!   deterministic because detectors consume completed bins in event-time
//!   order regardless of poll timing.
//!
//! Event times are rebased so measured day `d` of the run spans
//! `[d·24 h, (d+1)·24 h)`; warmup traffic warms the per-day classifier
//! but is not stored. The figure harness classifies its days through the
//! same step, so a figure and a pack run of the same day see the same
//! classified stream.
//! The run ends with a [`Scorecard`] matching detected incidents against
//! the pack's `[[ground_truth]]` expectations.
//!
//! ## The boundary chain
//!
//! With [`ChainMode::Record`], every input crossing into the
//! deterministic core — classified events, per-day fault-draw digests,
//! day boundaries, end-of-day checkpoints — is appended to a hash-linked
//! [`ChainTape`] (see `iri-chain`) owned by the **writer thread**, the
//! single point every crossing already serializes through. The tape is
//! flushed (one durable append) before every store commit, so on any
//! crash the chain on disk covers at least every committed event.
//!
//! [`ChainMode::Resume`] restarts a killed run: the store recovers to its
//! last committed generation, the chain's checkpoints say which days are
//! already fully recorded, committed-but-gone events are tail-fed from
//! the chain, and only the unfinished days are re-simulated — verified
//! against the recorded entries as they cross. [`ChainMode::Replay`]
//! re-derives the whole run against a sealed tape: any divergence fails
//! with the first divergent sequence number, and producing fewer or more
//! crossings than the recording is an error in both modes.

use crate::day::drive_day;
use crate::faults::{apply_faults, DayContext};
use crate::pack::{PackError, ScenarioPack, TruthSpec};
use crate::rss::{current_rss_kb, peak_rss_kb};
use iri_chain::{decode_event, encode_event, ChainError, ChainTape, EntryKind, Genesis, Mark};
use iri_core::fxhash::FxHasher;
use iri_faults::SharedFs;
use iri_netsim::{SimTime, SpillConfig, HOUR, MINUTE};
use iri_obs::incident::Incident;
use iri_store::{LiveOptions, LiveStore, StoreError, StoredEvent, WatchConfig, Watcher};
use iri_topology::asgraph::AsGraph;
use iri_topology::scenario::build_day_world;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

/// Writer-side compaction cadence, in committed batches. Keyed to the
/// event sequence (never wall time) so store bytes stay identical at any
/// `--jobs`; between compactions the manifest carries at most this many
/// commits' worth of ragged per-shard segments.
const COMPACT_EVERY_COMMITS: u64 = 16;

/// How the runner uses the boundary chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChainMode {
    /// No chain: the pre-chain behavior, byte-for-byte.
    #[default]
    Off,
    /// Record every boundary crossing into a fresh chain.
    Record,
    /// Restart a killed recorded run from its last durable state.
    Resume,
    /// Re-derive a recorded run against the sealed chain; diverging from
    /// it, or ending early/late, is an error.
    Replay,
}

/// How to execute a pack, beyond what the pack itself says.
#[derive(Clone)]
pub struct RunnerOptions {
    /// Filesystem for the store, the RIB spill directory, and the chain.
    pub fs: SharedFs,
    /// Store worker threads (0 = one per CPU). Never affects store bytes.
    pub jobs: usize,
    /// Overrides the pack's `[limits] max_rss_mb` when non-zero.
    pub max_rss_mb: u64,
    /// Truncates each simulated day to this many hours (CI smoke runs).
    pub hours: Option<u32>,
    /// Print a per-day progress line to stderr.
    pub verbose: bool,
    /// Boundary-chain mode.
    pub chain: ChainMode,
    /// Chain directory; defaults to `<store>-chain` next to the store.
    pub chain_dir: Option<PathBuf>,
    /// Stop with [`RunError::Stopped`] after this many simulated chunks —
    /// a deterministic in-process stand-in for `kill -9` at a chunk
    /// boundary, used by the CI kill-and-resume smoke.
    pub stop_after_chunks: Option<u64>,
}

impl Default for RunnerOptions {
    fn default() -> Self {
        RunnerOptions {
            fs: iri_faults::real_fs(),
            jobs: 0,
            max_rss_mb: 0,
            hours: None,
            verbose: false,
            chain: ChainMode::Off,
            chain_dir: None,
            stop_after_chunks: None,
        }
    }
}

/// The default chain directory for a store: `<store>-chain`, a sibling —
/// the store's recovery scan owns everything inside its own dir.
#[must_use]
pub fn chain_dir_for(store_dir: &Path) -> PathBuf {
    store_dir.with_file_name(format!(
        "{}-chain",
        store_dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "store".to_owned())
    ))
}

/// A runner failure.
#[derive(Debug)]
pub enum RunError {
    /// The store rejected a commit or scan.
    Store(StoreError),
    /// The pack was semantically unusable (bad exchange, …).
    Pack(PackError),
    /// Resident memory crossed the fail-fast budget. The store is left
    /// at its last batch-aligned commit, so a recorded run resumes.
    RssBudget {
        /// Observed resident set (MiB).
        rss_mb: u64,
        /// The configured ceiling (MiB).
        budget_mb: u64,
    },
    /// The writer thread died (its store error is reported separately).
    Channel(String),
    /// The boundary chain failed: corrupt, mismatched, or — the one that
    /// matters — divergent, with the first divergent sequence number.
    Chain(ChainError),
    /// The deliberate `stop_after_chunks` kill hook fired.
    Stopped {
        /// Chunks simulated before stopping.
        chunks: u64,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Store(e) => write!(f, "store error: {e}"),
            RunError::Pack(e) => write!(f, "pack error: {e}"),
            RunError::RssBudget { rss_mb, budget_mb } => write!(
                f,
                "resident memory {rss_mb} MiB exceeded the --max-rss-mb budget of {budget_mb} MiB"
            ),
            RunError::Channel(what) => write!(f, "writer channel failed: {what}"),
            RunError::Chain(e) => write!(f, "chain error: {e}"),
            RunError::Stopped { chunks } => {
                write!(f, "stopped by --kill-after-chunks after {chunks} chunks")
            }
        }
    }
}

impl std::error::Error for RunError {}

impl From<StoreError> for RunError {
    fn from(e: StoreError) -> Self {
        RunError::Store(e)
    }
}

impl From<PackError> for RunError {
    fn from(e: PackError) -> Self {
        RunError::Pack(e)
    }
}

impl From<ChainError> for RunError {
    fn from(e: ChainError) -> Self {
        RunError::Chain(e)
    }
}

/// Detector performance against the pack's ground truth.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scorecard {
    /// Expected incidents in the pack.
    pub truths: usize,
    /// Detected incidents matched to a truth (kind + onset + lag + cause).
    pub true_positives: usize,
    /// Detected incidents matching no truth.
    pub false_positives: usize,
    /// Truths no incident matched.
    pub false_negatives: usize,
    /// `tp / (tp + fp)`; 1.0 when nothing was detected.
    pub precision: f64,
    /// `tp / truths`; 1.0 when the pack expects nothing.
    pub recall: f64,
}

/// RIB-spill activity, summed over the run's days.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SpillSummary {
    /// Router images written out.
    pub spills: u64,
    /// Router images read back.
    pub restores: u64,
    /// Bytes written across all spills.
    pub bytes_written: u64,
    /// Bytes read across all restores.
    pub bytes_read: u64,
}

/// Everything one pack run produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// `pack.meta.name`.
    pub pack: String,
    /// Measured days simulated.
    pub days: u32,
    /// Hours per simulated day (24 unless truncated for a smoke run).
    pub hours_per_day: u32,
    /// Classified events committed to the store.
    pub events_written: u64,
    /// Store generation after the final commit.
    pub store_generation: u64,
    /// All incidents the watcher raised, in bin order.
    pub incidents: Vec<Incident>,
    /// Detector score against the pack's ground truth.
    pub scorecard: Scorecard,
    /// Routing-table census prefixes at the end of the last day.
    pub final_census_prefixes: usize,
    /// Process peak resident set (`VmHWM`), KiB, sampled at run end.
    pub peak_rss_kb: u64,
    /// RIB-spill totals (all zero when spill is disabled).
    pub spill: SpillSummary,
    /// Chain entries recorded or verified (0 with the chain off).
    pub chain_entries: u64,
    /// Event entries among them.
    pub chain_events: u64,
    /// Chain head hash (hex), committing to the whole recorded input
    /// stream. Stamped into `BENCH_*.json` so every published number
    /// names the exact inputs that produced it.
    pub chain_head: Option<String>,
    /// Events already committed when a resume picked the run up.
    pub resumed_from: Option<u64>,
    /// Wall-clock run time, milliseconds.
    pub wall_ms: u64,
    /// Events committed per wall-clock second.
    pub events_per_sec: f64,
}

/// What crosses the driver → writer channel. Every boundary crossing
/// funnels through here, so the writer thread is the single owner of the
/// chain tape and chain order is the channel order — no racing appends.
enum WriterMsg {
    /// A classified event produced by the simulation: chain it (verify
    /// or append), and store it unless it lands below the resume skip
    /// point.
    Event(StoredEvent),
    /// A committed-but-recovered event tail-fed from the chain during
    /// resume: store it, no chain interaction (it is already recorded).
    Raw(StoredEvent),
    /// A non-event crossing: chain only; a checkpoint also flushes.
    Mark(Mark),
}

/// Everything a resume analysis decides before the run starts.
struct ResumePlan {
    /// Events committed in the recovered store.
    committed: u64,
    /// First day that must be re-simulated (`days` = none).
    start_day: u32,
    /// Events recorded through the last completed day's checkpoint.
    base_events: u64,
    /// Committed-but-recovered events to tail-feed: chain events
    /// `[committed..base_events)`.
    tail: Vec<StoredEvent>,
    /// Entry index verification starts at (the re-simulated day's
    /// `DayStart`, or the chain end).
    cursor: usize,
    /// Spill totals through the skipped days.
    base_spill: SpillSummary,
    /// Census at the last skipped day's end.
    base_census: usize,
    /// The recovered store sits on a cadence boundary, so the crash may
    /// have landed between the commit and its compaction: compact once
    /// before appending anything.
    catch_up_compact: bool,
}

impl Default for ResumePlan {
    fn default() -> Self {
        ResumePlan {
            committed: 0,
            start_day: 0,
            base_events: 0,
            tail: Vec::new(),
            cursor: 1,
            base_spill: SpillSummary::default(),
            base_census: 0,
            catch_up_compact: false,
        }
    }
}

/// Derives the resume plan from the recovered store and the loaded
/// chain. See the module docs for the invariants this leans on: the
/// chain on disk always covers every committed event, and commits are
/// exact batches, so the recovered store is batch-aligned unless the
/// recorded run finished.
fn plan_resume(
    tape: &ChainTape,
    days: u32,
    batch: u64,
    committed: u64,
    generation: u64,
) -> Result<ResumePlan, RunError> {
    let mismatch = |what: String| RunError::Chain(ChainError::Mismatch { what });
    // Walk the recorded checkpoints; they must cover days 0..k in order.
    let mut ckpts: Vec<Mark> = Vec::new();
    for e in tape.entries() {
        if e.kind == EntryKind::Checkpoint {
            let m = Mark::decode(e.seq, e.kind, &e.payload)?;
            let Mark::Checkpoint { run_day, .. } = m else {
                unreachable!("decode preserves kind")
            };
            if run_day != ckpts.len() as u32 {
                return Err(mismatch(format!(
                    "checkpoint days out of order: found day {run_day}, expected {}",
                    ckpts.len()
                )));
            }
            ckpts.push(m);
        }
    }
    let start_day = (ckpts.len() as u32).min(days);
    let (base_events, base_spill, base_census) = match start_day.checked_sub(1) {
        None => (0, SpillSummary::default(), 0),
        Some(last) => {
            let Mark::Checkpoint {
                events,
                census_prefixes,
                spills,
                restores,
                spill_bytes_written,
                spill_bytes_read,
                ..
            } = ckpts[last as usize]
            else {
                unreachable!("ckpts holds checkpoints")
            };
            (
                events,
                SpillSummary {
                    spills,
                    restores,
                    bytes_written: spill_bytes_written,
                    bytes_read: spill_bytes_read,
                },
                census_prefixes as usize,
            )
        }
    };
    let chain_events = tape.events_len();
    if committed > chain_events {
        return Err(mismatch(format!(
            "store holds {committed} events but the chain records only {chain_events} — \
             the chain is flushed before every commit, so this chain is not this store's"
        )));
    }
    if !committed.is_multiple_of(batch) && start_day != days {
        return Err(mismatch(format!(
            "store holds a partial final batch ({committed} events, batch {batch}) but the \
             chain says the run is incomplete at day {start_day}"
        )));
    }
    // Tail-feed: events recorded (durable in the chain) beyond what the
    // store recovered, up to the checkpoint boundary the re-simulation
    // restarts from. They come back from the chain, not a re-simulation.
    let mut tail = Vec::new();
    if base_events > committed {
        let mut ordinal = 0u64;
        for e in tape.entries() {
            if e.kind != EntryKind::Event {
                continue;
            }
            if ordinal >= base_events {
                break;
            }
            if ordinal >= committed {
                tail.push(decode_event(e.seq, &e.payload)?);
            }
            ordinal += 1;
        }
    }
    let cursor = if start_day < days {
        tape.day_start_index(start_day).unwrap_or(tape.len())
    } else {
        tape.len()
    };
    // Compacting a canonical store changes nothing, generation included,
    // so the plan need not know whether the compaction at a boundary
    // already ran: on a cadence boundary it compacts before appending
    // anything, and the final compaction always runs. The generation is
    // only held to the range the commit count allows: a fresh store
    // opens at generation 1, every append bumps it, and so does each
    // cadence or final compaction that had something to rewrite.
    let full = committed / batch;
    let appends = full + u64::from(!committed.is_multiple_of(batch));
    let cadence = full / COMPACT_EVERY_COMMITS;
    if !(1 + appends..=2 + appends + cadence).contains(&generation) {
        return Err(mismatch(format!(
            "store generation {generation} inconsistent with {committed} committed events \
             ({appends} appends, at most {} compactions)",
            cadence + 1
        )));
    }
    let catch_up_compact =
        full > 0 && committed.is_multiple_of(batch) && full.is_multiple_of(COMPACT_EVERY_COMMITS);
    Ok(ResumePlan {
        committed,
        start_day,
        base_events,
        tail,
        cursor,
        base_spill,
        base_census,
        catch_up_compact,
    })
}

/// Commits the buffer if it reached one exact batch: chain flush first
/// (the durable chain must always cover every committed event), then the
/// store append, then the cadence compaction.
fn commit_if_full(
    buf: &mut Vec<StoredEvent>,
    batch: usize,
    tape: &mut Option<ChainTape>,
    store: &LiveStore,
    segment_rows: u32,
    written: &mut u64,
    commits: &mut u64,
) -> Result<(), RunError> {
    if buf.len() < batch {
        return Ok(());
    }
    if let Some(t) = tape.as_mut() {
        t.flush()?;
    }
    store.append_events(buf)?;
    *written += buf.len() as u64;
    buf.clear();
    *commits += 1;
    if commits.is_multiple_of(COMPACT_EVERY_COMMITS) {
        store.compact(segment_rows)?;
    }
    Ok(())
}

/// Executes scenario packs; see the [module docs](self).
pub struct ScenarioRunner {
    pack: ScenarioPack,
    opts: RunnerOptions,
}

impl ScenarioRunner {
    /// A runner for `pack` with `opts`.
    #[must_use]
    pub fn new(pack: ScenarioPack, opts: RunnerOptions) -> Self {
        ScenarioRunner { pack, opts }
    }

    /// The effective RSS budget (MiB); 0 = unlimited.
    fn rss_budget_mb(&self) -> u64 {
        if self.opts.max_rss_mb > 0 {
            self.opts.max_rss_mb
        } else {
            self.pack.limits.max_rss_mb
        }
    }

    /// The chain genesis this pack + options pair would record.
    fn genesis(&self, hours: u32) -> Genesis {
        use std::hash::Hasher as _;
        let mut h = FxHasher::default();
        h.write(self.pack.to_toml_string().as_bytes());
        Genesis {
            fingerprint: h.finish(),
            seed: self.pack.meta.seed,
            days: self.pack.run.days,
            hours,
            batch_events: self.pack.run.batch_events.max(1) as u64,
            segment_rows: self.pack.run.segment_rows,
            start_day: self.pack.run.start_day,
            name: self.pack.meta.name.clone(),
        }
    }

    /// Runs the pack, streaming into a [`LiveStore`] at `store_dir`.
    ///
    /// # Errors
    /// On store failures, unusable packs, a blown RSS budget, or — with
    /// the chain on — chain corruption, mismatch, or divergence.
    ///
    /// # Panics
    /// If the writer thread panics (store bugs surface loudly).
    pub fn run(&self, store_dir: &Path) -> Result<RunReport, RunError> {
        let started = std::time::Instant::now();
        let pack = &self.pack;
        let cfg = pack.scenario_config()?;
        let graph = AsGraph::generate(&pack.graph_config());
        let hours = self.opts.hours.unwrap_or(24).clamp(1, 24);
        let batch = pack.run.batch_events.max(1);
        let segment_rows = pack.run.segment_rows;
        let days = pack.run.days;
        let store = LiveStore::open_with(
            store_dir,
            &LiveOptions {
                fs: self.opts.fs.clone(),
                create_segment_rows: Some(segment_rows),
                jobs: self.opts.jobs,
                ..LiveOptions::default()
            },
        )?;
        let mut watcher = Watcher::new(WatchConfig {
            bin_ms: pack.watch.bin_ms,
            change_window: pack.watch.change_window,
            change_ratio: pack.watch.change_ratio,
            change_z: pack.watch.change_z,
            min_rate: pack.watch.min_rate,
            period_window: pack.watch.period_window,
            period_min_lag: pack.watch.period_min_lag,
            period_max_lag: pack.watch.period_max_lag,
            period_threshold: pack.watch.period_threshold,
            novelty_warmup: pack.watch.novelty_warmup,
            novelty_min_count: pack.watch.novelty_min_count,
            ..WatchConfig::default()
        });

        // Chain setup: create, or load + verify against this run.
        let chain_dir = self
            .opts
            .chain_dir
            .clone()
            .unwrap_or_else(|| chain_dir_for(store_dir));
        let genesis = self.genesis(hours);
        let committed0 = store.manifest().total_events;
        let mut plan = ResumePlan::default();
        let tape: Option<ChainTape> = match self.opts.chain {
            ChainMode::Off => None,
            ChainMode::Record => {
                if committed0 != 0 {
                    return Err(RunError::Chain(ChainError::Mismatch {
                        what: format!(
                            "--record needs a fresh store, but {} already holds {committed0} events",
                            store_dir.display()
                        ),
                    }));
                }
                Some(ChainTape::create(
                    self.opts.fs.clone(),
                    &chain_dir,
                    &genesis,
                )?)
            }
            ChainMode::Resume => {
                let mut t = ChainTape::load(self.opts.fs.clone(), &chain_dir)?;
                t.verify_genesis(&genesis)?;
                plan = plan_resume(&t, days, batch as u64, committed0, store.generation())?;
                t.set_cursor(plan.cursor);
                Some(t)
            }
            ChainMode::Replay => {
                if committed0 != 0 {
                    return Err(RunError::Chain(ChainError::Mismatch {
                        what: format!(
                            "--replay needs a fresh store, but {} already holds {committed0} events",
                            store_dir.display()
                        ),
                    }));
                }
                let mut t = ChainTape::load(self.opts.fs.clone(), &chain_dir)?;
                t.verify_genesis(&genesis)?;
                t.seal();
                Some(t)
            }
        };
        let resumed_from = matches!(self.opts.chain, ChainMode::Resume).then_some(plan.committed);
        if self.opts.verbose && plan.start_day > 0 {
            eprintln!(
                "resume: {} events committed, {} days checkpointed, re-simulating day {} on",
                plan.committed, plan.start_day, plan.start_day
            );
        }
        // A crash between a cadence commit and its compaction leaves the
        // compaction undone; compact before any new append so the
        // generation sequence matches an uninterrupted run. If it did
        // run, this one finds the store canonical and changes nothing.
        if plan.catch_up_compact {
            store.compact(segment_rows)?;
        }
        // Re-warm the detectors over the recovered prefix. The watcher
        // consumes completed bins in event-time order, so the cumulative
        // incident list is the same as the uninterrupted run's
        // (poll-cadence invariance).
        if plan.committed > 0 {
            watcher.poll(&store)?;
        }

        // The spill directory sits NEXT TO the store directory: the store's
        // recovery scan owns everything inside its own dir. Spill images
        // are per-day working state, re-derived on resume, so they are
        // excluded from checkpoints and comparisons.
        let spill_dir = store_dir.with_file_name(format!(
            "{}-ribspill",
            store_dir
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| "store".to_owned())
        ));
        let budget_mb = self.rss_budget_mb();
        let warmup_ms = SimTime::from(cfg.warmup_minutes) * MINUTE;
        let lan_base = u32::from(cfg.exchange.lan_base());

        let (tx, rx) = crossbeam::channel::bounded::<WriterMsg>(pack.run.channel_capacity);
        let mut spill_total = plan.base_spill.clone();
        let mut final_census_prefixes = plan.base_census;
        let mut events_sent = plan.base_events;
        // Raised on a driver error so the writer drops its partial batch:
        // the store stays batch-aligned, which is what makes the
        // interrupted run resumable.
        let abort = AtomicBool::new(false);
        let skip_events = plan.committed.max(plan.base_events);
        let start_written = plan.committed;
        let start_commits = plan.committed / batch as u64;
        let base_events = plan.base_events;
        let start_day = plan.start_day;
        let tail = std::mem::take(&mut plan.tail);

        let watcher_ref = &mut watcher;
        let spill_ref = &mut spill_total;
        let census_ref = &mut final_census_prefixes;
        let events_sent_ref = &mut events_sent;
        let abort_ref = &abort;

        let sim_result: Result<(u64, Option<ChainTape>), RunError> =
            crossbeam::thread::scope(|scope| {
                let store_ref = &store;
                let writer = scope.spawn(move |_| -> Result<(u64, Option<ChainTape>), RunError> {
                    // Exact-count batching: commit generations (and
                    // therefore segment boundaries) depend only on the
                    // event sequence; the cadence compaction keeps the
                    // manifest bounded by the canonical segment count.
                    // This thread also owns the chain tape — crossings
                    // are chained in channel order, and the tape is
                    // flushed before every commit.
                    let mut tape = tape;
                    let mut buf: Vec<StoredEvent> = Vec::with_capacity(batch);
                    let mut written = start_written;
                    let mut commits = start_commits;
                    let mut next_event = base_events;
                    for msg in rx.iter() {
                        match msg {
                            WriterMsg::Event(ev) => {
                                if let Some(t) = tape.as_mut() {
                                    t.cross(EntryKind::Event, encode_event(&ev))?;
                                }
                                if next_event >= skip_events {
                                    buf.push(ev);
                                    commit_if_full(
                                        &mut buf,
                                        batch,
                                        &mut tape,
                                        store_ref,
                                        segment_rows,
                                        &mut written,
                                        &mut commits,
                                    )?;
                                }
                                next_event += 1;
                            }
                            WriterMsg::Raw(ev) => {
                                buf.push(ev);
                                commit_if_full(
                                    &mut buf,
                                    batch,
                                    &mut tape,
                                    store_ref,
                                    segment_rows,
                                    &mut written,
                                    &mut commits,
                                )?;
                            }
                            WriterMsg::Mark(m) => {
                                if let Some(t) = tape.as_mut() {
                                    t.cross(m.kind(), m.encode())?;
                                    if matches!(m, Mark::Checkpoint { .. }) {
                                        t.flush()?;
                                    }
                                }
                            }
                        }
                    }
                    if !buf.is_empty() && !abort_ref.load(Ordering::Relaxed) {
                        if let Some(t) = tape.as_mut() {
                            t.flush()?;
                        }
                        store_ref.append_events(&buf)?;
                        written += buf.len() as u64;
                    }
                    // Flush recorded-but-unflushed marks even on abort:
                    // more durable chain never hurts a resume.
                    if let Some(t) = tape.as_mut() {
                        t.flush()?;
                    }
                    Ok((written, tape))
                });

                let drive = || -> Result<(), RunError> {
                    let hang_up = |_| RunError::Channel("writer hung up".to_owned());
                    // Tail-feed first: events the chain recorded beyond
                    // what the store recovered, up to the checkpoint
                    // boundary the re-simulation restarts from.
                    for ev in tail {
                        tx.send(WriterMsg::Raw(ev)).map_err(hang_up)?;
                    }
                    let mut chunks_done = 0u64;
                    // drive_day's monitor-log scratch, kept across days.
                    let mut drained = Vec::new();
                    for run_day in start_day..days {
                        let sim_day = pack.run.start_day + run_day;
                        tx.send(WriterMsg::Mark(Mark::DayStart { run_day, sim_day }))
                            .map_err(hang_up)?;
                        let (mut world, rs, providers) = build_day_world(&cfg, &graph, sim_day);
                        let draws = apply_faults(
                            pack,
                            &mut world,
                            &DayContext {
                                graph: &graph,
                                providers: &providers,
                                lan_base,
                                warmup_ms,
                                run_day,
                            },
                        );
                        tx.send(WriterMsg::Mark(Mark::Faults {
                            run_day,
                            scheduled: draws.scheduled,
                            digest: draws.digest,
                        }))
                        .map_err(hang_up)?;
                        if pack.limits.spill_working_set > 0 {
                            world.enable_rib_spill(SpillConfig {
                                fs: self.opts.fs.clone(),
                                dir: spill_dir.clone(),
                                working_set: pack.limits.spill_working_set,
                            });
                        }
                        // Day `d` of the run lands at [d·24 h, d·24 h + hours).
                        let day_offset = u64::from(run_day) * 24 * HOUR;
                        // Spill totals as of the day's last step, before
                        // the census restores the route server.
                        let mut day_spill = None;
                        let census = drive_day(
                            &mut world,
                            rs,
                            warmup_ms..warmup_ms + u64::from(hours) * HOUR,
                            u64::from(pack.run.chunk_minutes) * MINUTE,
                            &mut drained,
                            |c, cause| {
                                let mut row = StoredEvent::from_classified(&c, cause);
                                row.time_ms += day_offset;
                                tx.send(WriterMsg::Event(row)).map_err(hang_up)?;
                                *events_sent_ref += 1;
                                Ok(())
                            },
                            |world| {
                                day_spill = world.spill_stats().cloned();
                                watcher_ref.poll(store_ref)?;
                                if budget_mb > 0 {
                                    let rss_mb = current_rss_kb().unwrap_or(0) / 1024;
                                    if rss_mb > budget_mb {
                                        return Err(RunError::RssBudget { rss_mb, budget_mb });
                                    }
                                }
                                chunks_done += 1;
                                if self.opts.stop_after_chunks == Some(chunks_done) {
                                    return Err(RunError::Stopped {
                                        chunks: chunks_done,
                                    });
                                }
                                Ok(())
                            },
                        )?;
                        if let Some(stats) = day_spill {
                            spill_ref.spills += stats.spills;
                            spill_ref.restores += stats.restores;
                            spill_ref.bytes_written += stats.bytes_written;
                            spill_ref.bytes_read += stats.bytes_read;
                        }
                        *census_ref = census.prefixes;
                        tx.send(WriterMsg::Mark(Mark::Checkpoint {
                            run_day,
                            events: *events_sent_ref,
                            census_prefixes: census.prefixes as u64,
                            spills: spill_ref.spills,
                            restores: spill_ref.restores,
                            spill_bytes_written: spill_ref.bytes_written,
                            spill_bytes_read: spill_ref.bytes_read,
                        }))
                        .map_err(hang_up)?;
                        if self.opts.verbose {
                            eprintln!(
                                "day {run_day}: sim day {sim_day}, census {} prefixes, rss {} MiB",
                                census.prefixes,
                                current_rss_kb().unwrap_or(0) / 1024
                            );
                        }
                    }
                    Ok(())
                };
                let drive_result = drive();
                if drive_result.is_err() {
                    abort_ref.store(true, Ordering::Relaxed);
                }
                drop(tx);
                let writer_result = writer.join().expect("writer thread panicked");
                match (drive_result, writer_result) {
                    (Ok(()), w) => w,
                    // The writer died first; its error (a chain
                    // divergence, a store fault) is the cause — the
                    // driver's hang-up is the symptom.
                    (Err(RunError::Channel(_)), Err(w)) => Err(w),
                    (Err(d), _) => Err(d),
                }
            })
            .expect("crossbeam scope");
        let (events_written, tape) = sim_result?;

        // Canonicalize the tail left since the last cadence compaction and
        // reclaim retired generations — no reader is pinned here, so the
        // final store layout is a pure function of the event sequence.
        // Right after a cadence compaction, or resuming a run that
        // already finished, it finds the store canonical and changes
        // nothing, generation included.
        store.compact(segment_rows)?;

        // Final poll after the last commit; the watcher only ever consumes
        // completed bins in order, so the cumulative incident list does not
        // depend on how polls interleaved with commits.
        watcher.poll(&store)?;

        // A verified run must consume the whole recording: ending with
        // entries left over means the recorded run saw more inputs.
        if matches!(self.opts.chain, ChainMode::Resume | ChainMode::Replay) {
            if let Some(t) = tape.as_ref() {
                t.expect_consumed()?;
            }
        }

        let incidents = watcher.incidents().to_vec();
        let scorecard = score(&pack.ground_truth, &incidents);
        let wall_ms = started.elapsed().as_millis() as u64;
        let (chain_entries, chain_events, chain_head) = tape
            .as_ref()
            .map(|t| {
                (
                    t.len() as u64,
                    t.events_len(),
                    Some(format!("{:016x}", t.head_hash())),
                )
            })
            .unwrap_or((0, 0, None));
        Ok(RunReport {
            pack: pack.meta.name.clone(),
            days,
            hours_per_day: hours,
            events_written,
            store_generation: store.generation(),
            incidents,
            scorecard,
            final_census_prefixes,
            peak_rss_kb: peak_rss_kb().unwrap_or(0),
            spill: spill_total,
            chain_entries,
            chain_events,
            chain_head,
            resumed_from,
            wall_ms,
            events_per_sec: events_written as f64 / (wall_ms.max(1) as f64 / 1000.0),
        })
    }
}

/// Greedy one-to-one matching of incidents to ground truths: a truth
/// accepts the earliest unmatched incident of the same kind whose onset
/// lands within tolerance, whose detection lag is within bound, and whose
/// cause matches (when the truth pins one).
fn score(truths: &[TruthSpec], incidents: &[Incident]) -> Scorecard {
    let mut matched = vec![false; incidents.len()];
    let mut tp = 0usize;
    for t in truths {
        let onset = u64::from(t.day) * 24 * HOUR + u64::from(t.onset_minute) * MINUTE;
        let tol = u64::from(t.onset_tol_minutes) * MINUTE;
        let max_lag = u64::from(t.max_lag_minutes) * MINUTE;
        let hit = incidents.iter().enumerate().find(|(i, inc)| {
            !matched[*i]
                && inc.kind == t.kind
                && inc.onset_ms.abs_diff(onset) <= tol
                && inc.detected_ms.saturating_sub(onset) <= max_lag
                && (t.cause.is_empty() || inc.cause == t.cause)
        });
        if let Some((i, _)) = hit {
            matched[i] = true;
            tp += 1;
        }
    }
    let fp = matched.iter().filter(|m| !**m).count();
    Scorecard {
        truths: truths.len(),
        true_positives: tp,
        false_positives: fp,
        false_negatives: truths.len() - tp,
        precision: if incidents.is_empty() {
            1.0
        } else {
            tp as f64 / (tp + fp) as f64
        },
        // Recall is about the truths; a quiet pack misses nothing.
        recall: if truths.is_empty() {
            1.0
        } else {
            tp as f64 / truths.len() as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iri_obs::incident::IncidentKind;

    fn truth(kind: IncidentKind, day: u32, onset_minute: u32) -> TruthSpec {
        TruthSpec {
            kind,
            day,
            onset_minute,
            onset_tol_minutes: 10,
            max_lag_minutes: 30,
            cause: String::new(),
        }
    }

    fn incident(kind: IncidentKind, onset_ms: u64, detected_ms: u64) -> Incident {
        Incident {
            kind,
            onset_ms,
            detected_ms,
            cause: String::new(),
            score: 5.0,
            detail: String::new(),
        }
    }

    #[test]
    fn score_matches_within_tolerance() {
        let truths = vec![truth(IncidentKind::InstabilityOnset, 0, 600)];
        let incidents = vec![incident(
            IncidentKind::InstabilityOnset,
            605 * MINUTE,
            620 * MINUTE,
        )];
        let s = score(&truths, &incidents);
        assert_eq!(s.true_positives, 1);
        assert_eq!(s.false_positives, 0);
        assert_eq!(s.precision, 1.0);
        assert_eq!(s.recall, 1.0);
    }

    #[test]
    fn score_rejects_wrong_kind_late_lag_and_far_onset() {
        let truths = vec![truth(IncidentKind::InstabilityOnset, 0, 600)];
        // Wrong kind.
        let s = score(
            &truths,
            &[incident(
                IncidentKind::NoveltyAlarm,
                600 * MINUTE,
                601 * MINUTE,
            )],
        );
        assert_eq!(s.true_positives, 0);
        assert_eq!(s.false_positives, 1);
        // Onset too far.
        let s = score(
            &truths,
            &[incident(
                IncidentKind::InstabilityOnset,
                700 * MINUTE,
                701 * MINUTE,
            )],
        );
        assert_eq!(s.true_positives, 0);
        // Lag too long.
        let s = score(
            &truths,
            &[incident(
                IncidentKind::InstabilityOnset,
                600 * MINUTE,
                700 * MINUTE,
            )],
        );
        assert_eq!(s.true_positives, 0);
        assert_eq!(s.recall, 0.0);
    }

    #[test]
    fn score_is_perfect_when_quiet() {
        let s = score(&[], &[]);
        assert_eq!(s.precision, 1.0);
        assert_eq!(s.recall, 1.0);
        // Spurious incident on a quiet pack costs precision, not recall.
        let s = score(
            &[],
            &[incident(IncidentKind::NoveltyAlarm, MINUTE, 2 * MINUTE)],
        );
        assert_eq!(s.precision, 0.0);
        assert_eq!(s.recall, 1.0);
    }

    #[test]
    fn cause_pinning_is_enforced() {
        let mut t = truth(IncidentKind::InstabilityOnset, 0, 100);
        t.cause = "LinkFlap".to_owned();
        let mut inc = incident(IncidentKind::InstabilityOnset, 100 * MINUTE, 110 * MINUTE);
        inc.cause = "CsuDrift".to_owned();
        let s = score(&[t.clone()], &[inc.clone()]);
        assert_eq!(s.true_positives, 0);
        inc.cause = "LinkFlap".to_owned();
        let s = score(&[t], &[inc]);
        assert_eq!(s.true_positives, 1);
    }
}
