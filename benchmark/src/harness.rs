//! What the four workloads share: the run's environment, output checks,
//! the round loops of the timed pass, and the arithmetic that turns
//! samples into the ten end-to-end metrics.

use crate::alloc::{set_counting, AllocCounts};
use crate::calib::{Calibrator, Timed};
use crate::meter_fs::{FsCounts, FsOp, MeterFs};
use crate::paths::Scratch;
use crate::report::{Outcome, Values};
use crate::span::SpanLog;
use crate::stats::median;
use std::sync::Arc;
use std::time::Instant;

/// Set-up is repeated this many times in a timed run and `setup_s` is
/// the median, so one slow set-up does not decide the number.
const SETUP_REPEATS: usize = 5;

/// Rounds the traced pass runs untraced and then traced: enough for a
/// median, the pass being fixed-size.
const TRACED_ROUNDS: usize = 4;

/// Stage-by-stage replays in a traced pass; each layer value is the
/// median over them.
const REPLAYS: usize = 5;

/// One run's arguments and shared instruments. The calibrator is not in
/// here: a timed closure borrows the environment while the calibrator
/// runs it.
pub struct Env {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Requested measuring time on the reference box.
    pub seconds: f64,
    /// A tenth of the size, for the smoke check.
    pub smoke: bool,
    /// Scratch directory of this process.
    pub scratch: Scratch,
    /// The filesystem handed to the program.
    pub fs: Arc<MeterFs>,
    /// Span log of the traced pass.
    pub log: SpanLog,
    /// Output checks so far.
    pub checks: Checks,
    started: Instant,
}

impl Env {
    /// A fresh environment; a traced pass's filesystem forwards flushes
    /// to the device.
    ///
    /// # Errors
    /// When the scratch directory cannot be created.
    pub fn new(seed: u64, seconds: f64, smoke: bool, trace: bool) -> std::io::Result<Env> {
        Ok(Env {
            seed,
            seconds,
            smoke,
            scratch: Scratch::create()?,
            fs: MeterFs::shared(trace),
            log: SpanLog::new(),
            checks: Checks::default(),
            started: Instant::now(),
        })
    }

    /// Rounds (reps of each operation, or slices) a pass measures: as
    /// many as fit `--seconds` at the workload's nominal round time on
    /// the reference box, and at least `min`. A fixed count, not a
    /// deadline: two runs with the same arguments do identical work, so
    /// counts repeat exactly and a stateful store grows the same way.
    #[must_use]
    pub fn rounds(&self, nominal_round_s: f64, min: usize) -> usize {
        let min = if self.smoke { 2 } else { min };
        ((self.seconds / nominal_round_s).round() as usize).max(min)
    }

    /// Set-ups a timed pass makes; `setup_s` is their median.
    #[must_use]
    pub fn setup_repeats(&self) -> usize {
        if self.smoke {
            1
        } else {
            SETUP_REPEATS
        }
    }

    /// Rounds the traced pass runs untraced, and then again traced.
    #[must_use]
    pub fn traced_rounds(&self) -> usize {
        if self.smoke {
            2
        } else {
            TRACED_ROUNDS
        }
    }

    /// Stage-by-stage replays of the traced pass.
    #[must_use]
    pub fn replays(&self) -> usize {
        if self.smoke {
            1
        } else {
            REPLAYS
        }
    }

    /// `full`, or about a tenth of it in smoke mode.
    #[must_use]
    pub fn sized(&self, full: u64) -> u64 {
        if self.smoke {
            (full / 10).max(1)
        } else {
            full
        }
    }

    /// Closes the pass: the outcome with its wall time and the box's
    /// steadiness while it ran.
    #[must_use]
    pub fn finish(self, cal: &Calibrator, values: Values) -> Outcome {
        Outcome {
            attempted: self.checks.attempted,
            failed: self.checks.failed,
            first_failure: self.checks.first_failure,
            values,
            wall_s: self.started.elapsed().as_secs_f64(),
            ref_spread: cal.ref_spread(),
            stages: self.log.stage_table(),
        }
    }
}

/// Output checks: every operation whose result is compared against a
/// reference counts as attempted; a mismatch, an error or a refusal
/// counts as failed.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that did not match.
    pub failed: u64,
    /// Description of the first failure.
    pub first_failure: Option<String>,
}

impl Checks {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failure.is_none() {
                self.first_failure = Some(what());
            }
        }
    }

    /// Folds in checks tallied elsewhere (a client thread).
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }

    /// Matched ÷ attempted; 1.0 before anything was attempted.
    #[must_use]
    pub fn pass_ratio(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

/// Samples of a timed pass, one entry per rep or per slice.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    /// Calibrated set-up seconds, one per set-up repeat.
    pub setup_s: Vec<f64>,
    /// Raw set-up seconds.
    pub setup_raw_s: Vec<f64>,
    /// Calibrated primary-operation milliseconds.
    pub op_ms: Vec<f64>,
    /// Calibrated secondary-operation milliseconds.
    pub alt_ms: Vec<f64>,
    /// Work units per calibrated second.
    pub rate: Vec<f64>,
    /// Raw primary-operation milliseconds.
    pub raw_op_ms: Vec<f64>,
    /// Work units per raw second.
    pub raw_rate: Vec<f64>,
}

impl Samples {
    /// Adds one set-up repeat.
    pub fn push_setup(&mut self, t: Timed) {
        self.setup_s.push(t.cal_s());
        self.setup_raw_s.push(t.raw_s);
    }

    /// Adds one rep of the primary operation that did `work` units.
    pub fn push_op(&mut self, t: Timed, work: u64) {
        self.op_ms.push(t.cal_s() * 1e3);
        self.raw_op_ms.push(t.raw_s * 1e3);
        self.rate.push(work as f64 / t.cal_s());
        self.raw_rate.push(work as f64 / t.raw_s);
    }

    /// Adds one rep of the secondary operation.
    pub fn push_alt(&mut self, t: Timed) {
        self.alt_ms.push(t.cal_s() * 1e3);
    }

    /// Adds one slice: its bracket, the work it did, and the raw
    /// latencies (seconds) of the two operations inside it. Latencies
    /// inside a slice take the slice's factor.
    pub fn push_slice(&mut self, t: Timed, work: u64, op_lat_s: &[f64], alt_lat_s: &[f64]) {
        let p50_ms = |lat: &[f64]| median(lat) * 1e3;
        self.op_ms.push(p50_ms(op_lat_s) * t.factor);
        self.raw_op_ms.push(p50_ms(op_lat_s));
        self.alt_ms.push(p50_ms(alt_lat_s) * t.factor);
        self.rate.push(work as f64 / t.cal_s());
        self.raw_rate.push(work as f64 / t.raw_s);
    }
}

/// Counts of a pass: speed-independent by construction. `StoreFs`
/// traffic is counted all the time (a few relaxed adds on calls that
/// take microseconds), so it covers every measured round; heap requests
/// are counted only while the gate is open, in the counted rounds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counted {
    /// Work units behind `fs`.
    pub fs_work: u64,
    /// `StoreFs` traffic of the measured and the counted rounds.
    pub fs: FsCounts,
    /// Work units behind `alloc`.
    pub alloc_work: u64,
    /// Heap requests of the counted rounds.
    pub alloc: AllocCounts,
    /// Bytes on disk after the last round's final compact.
    pub disk_bytes: u64,
    /// Events those bytes hold.
    pub events_stored: u64,
}

/// Runs `rounds` with the allocator gate open and returns what they
/// requested from the heap. The gate is closed again before returning.
pub fn counted<T>(rounds: impl FnOnce() -> T) -> (T, AllocCounts) {
    set_counting(true);
    let before = AllocCounts::now();
    let out = rounds();
    let alloc = AllocCounts::now().since(before);
    set_counting(false);
    (out, alloc)
}

/// The opaque rounds of a traced pass: `run` once plainly (into
/// `untraced`, after the set-up already there), then once more with
/// `MeterFs` clocking every call and the allocator counted. Returns the
/// second run's samples, its counts, and what it returned; `work` reads
/// the work units out of that.
pub fn traced_rounds<T>(
    env: &mut Env,
    cal: &mut Calibrator,
    untraced: &mut Samples,
    mut run: impl FnMut(&mut Env, &mut Calibrator, usize, &mut Samples) -> T,
    work: impl Fn(&T) -> u64,
) -> (Samples, Counted, T) {
    let rounds = env.traced_rounds();
    run(env, cal, rounds, untraced);
    env.fs.set_timing(true);
    let fs_before = env.fs.counts();
    let mut with_trace = Samples::default();
    let (out, alloc) = counted(|| run(env, cal, rounds, &mut with_trace));
    let units = work(&out);
    let counts = Counted {
        fs_work: units,
        fs: env.fs.counts().since(&fs_before),
        alloc_work: units,
        alloc,
        ..Counted::default()
    };
    (with_trace, counts, out)
}

/// A span log's stage times as layer values take them: under one root,
/// scaled by the factor of the interval that bracketed it.
pub struct Stages<'a> {
    /// The log.
    pub log: &'a SpanLog,
    /// The replay's root span.
    pub root: usize,
    /// Calibration factor of the replay's bracket.
    pub factor: f64,
}

impl Stages<'_> {
    /// Calibrated milliseconds spent in spans of this name.
    #[must_use]
    pub fn ms(&self, name: &str) -> f64 {
        self.log.totals(name, Some(self.root)).total_ms * self.factor
    }

    /// Work units those spans handled.
    #[must_use]
    pub fn count(&self, name: &str) -> f64 {
        self.log.totals(name, Some(self.root)).count as f64
    }

    /// Calibrated time per work unit, in units of 1/`per_ms` ms (1e6:
    /// nanoseconds, 1e3: microseconds); 0 for a stage that did no work.
    #[must_use]
    pub fn per_unit(&self, name: &str, per_ms: f64) -> f64 {
        let n = self.count(name);
        if n > 0.0 {
            self.ms(name) * per_ms / n
        } else {
            0.0
        }
    }

    /// Calibrated durations of the spans of this name, ms.
    #[must_use]
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.log
            .durations_ms(name, Some(self.root))
            .into_iter()
            .map(|ms| ms * self.factor)
            .collect()
    }
}

/// Peak resident set of this process so far, MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    iri_scenario::rss::peak_rss_kb().unwrap_or(0) as f64 / 1024.0
}

/// The ten end-to-end metrics from a timed pass and its counted round.
#[must_use]
pub fn end_to_end(
    samples: &Samples,
    peak_rss_mb: f64,
    counted: &Counted,
    checks: &Checks,
) -> Values {
    let fs_work = counted.fs_work.max(1) as f64;
    let mut v = Values::new();
    v.insert("setup_s", median(&samples.setup_s));
    v.insert("work_per_s", median(&samples.rate));
    v.insert("op_p50_ms", median(&samples.op_ms));
    v.insert("alt_p50_ms", median(&samples.alt_ms));
    v.insert("peak_rss_mb", peak_rss_mb);
    v.insert(
        "disk_bytes_per_event",
        counted.disk_bytes as f64 / counted.events_stored.max(1) as f64,
    );
    v.insert(
        "fs_bytes_per_work",
        counted.fs.total_bytes() as f64 / fs_work,
    );
    v.insert(
        "alloc_bytes_per_work",
        counted.alloc.bytes as f64 / counted.alloc_work.max(1) as f64,
    );
    v.insert("pass_ratio", checks.pass_ratio());
    v.insert(
        "fs_ops_per_kwork",
        counted.fs.total_calls() as f64 * 1e3 / fs_work,
    );
    v
}

/// The per-name median over several replays' layer values.
#[must_use]
pub fn median_values(all: &[Values]) -> Values {
    let mut out = Values::new();
    for name in all.iter().flat_map(|v| v.keys()) {
        let samples: Vec<f64> = all.iter().filter_map(|v| v.get(name).copied()).collect();
        out.insert(name, median(&samples));
    }
    out
}

/// The `fs.*`, `alloc.*` and `bench.*` layer values every traced pass
/// reports: the traced rounds' counts, how loaded the box was, and how
/// the traced rounds compare with the untraced ones of the same run.
pub fn common_layers(
    v: &mut Values,
    cal: &Calibrator,
    untraced: &Samples,
    traced: &Samples,
    counted: &Counted,
) {
    let work = counted.alloc_work.max(1) as f64;
    v.insert("fs.read_calls", counted.fs.calls(FsOp::Read) as f64);
    v.insert("fs.read_bytes", counted.fs.read_bytes() as f64);
    v.insert(
        "fs.write_calls",
        (counted.fs.calls(FsOp::Write) + counted.fs.calls(FsOp::Append)) as f64,
    );
    v.insert("fs.write_bytes", counted.fs.write_bytes() as f64);
    v.insert(
        "fs.sync_calls",
        (counted.fs.calls(FsOp::Sync) + counted.fs.calls(FsOp::SyncDir)) as f64,
    );
    v.insert(
        "fs.sync_ms",
        counted.fs.ms(FsOp::Sync) + counted.fs.ms(FsOp::SyncDir),
    );
    v.insert("fs.rename_calls", counted.fs.calls(FsOp::Rename) as f64);
    v.insert("alloc.calls_per_work", counted.alloc.calls as f64 / work);
    v.insert("alloc.bytes_per_work", counted.alloc.bytes as f64 / work);
    v.insert("bench.ref_ms_p50", cal.ref_ms_p50());
    v.insert("bench.ref_spread", cal.ref_spread());
    v.insert("bench.raw_work_per_s", median(&untraced.raw_rate));
    v.insert("bench.raw_op_p50_ms", median(&untraced.raw_op_ms));
    v.insert("bench.setup_raw_s", median(&untraced.setup_raw_s));
    let plain = median(&untraced.rate);
    let with_trace = median(&traced.rate);
    v.insert(
        "bench.trace_overhead_ratio",
        if with_trace > 0.0 {
            plain / with_trace
        } else {
            0.0
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::factor;

    // That a wrong reference answer reaches these counters is tested
    // where the answers are compared: `query_mix` and `sim_run`.
    #[test]
    fn checks_count_failures_and_keep_the_first() {
        let mut checks = Checks::default();
        assert_eq!(checks.pass_ratio(), 1.0);
        checks.check(true, || unreachable!());
        checks.check(false, || "second".to_owned());
        let mut elsewhere = Checks::default();
        elsewhere.check(false, || "third".to_owned());
        checks.absorb(elsewhere);
        assert_eq!((checks.attempted, checks.failed), (3, 2));
        assert!((checks.pass_ratio() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(checks.first_failure.as_deref(), Some("second"));
    }

    #[test]
    fn slices_scale_their_latencies_by_the_slice_factor() {
        let mut s = Samples::default();
        let t = Timed {
            raw_s: 2.0,
            factor: factor(125.0, 125.0),
        };
        s.push_slice(t, 100, &[0.010, 0.020, 0.030], &[0.5]);
        assert!((s.op_ms[0] - 16.0).abs() < 1e-9);
        assert!((s.raw_op_ms[0] - 20.0).abs() < 1e-9);
        assert!((s.alt_ms[0] - 400.0).abs() < 1e-9);
        assert!((s.rate[0] - 62.5).abs() < 1e-9);
        assert!((s.raw_rate[0] - 50.0).abs() < 1e-9);
    }
}
