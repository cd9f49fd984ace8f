//! `query_mix` — windowed and full-range queries over one fixed store.
//!
//! Read-only: `store.plan`, `store.query` and `store.segment` decode do
//! everything. A slice is a fixed list of one-hour windowed queries
//! (op) interleaved with full-range aggregates filtered by class, so
//! zone maps cannot answer them (alt). op is where page-granular I/O
//! must show (`op_p50_ms`, `fs_bytes_per_work`); alt is where batch
//! decode kernels must show while op barely moves. Work = queries.

use crate::calib::Calibrator;
use crate::gen::{self, Rng, DAY_MS, HOUR_MS};
use crate::harness::{
    common_layers, counted, end_to_end, peak_rss_mb, traced_rounds, Counted, Env, Samples,
};
use crate::meter_fs::as_shared;
use crate::paths::dir_bytes;
use crate::report::{Outcome, Values};
use crate::stats::median;
use iri_bgp::types::Asn;
use iri_core::taxonomy::UpdateClass;
use iri_store::{OpenOptions, PlanKind, Query, ScanStats, Store, StoredEvent};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Events in the fixture store, spread evenly over one day.
const EVENTS: u64 = 600_000;
const BIN_MS: u64 = 60_000;
/// Queries per slice.
const WINDOWED: usize = 40;
const FULL_RANGE: usize = 4;
/// One slice plus its kernel, on the reference box.
const NOMINAL_ROUND_S: f64 = 0.45;
const MIN_ROUNDS: usize = 10;

/// The four aggregate shapes the figures are cut with.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    ByClass,
    ByPeer,
    Bytes,
    Series,
}

impl Shape {
    const ALL: [Shape; 4] = [Shape::ByClass, Shape::ByPeer, Shape::Bytes, Shape::Series];

    fn plan_kind(self) -> PlanKind {
        match self {
            Shape::ByClass => PlanKind::CountByClass,
            Shape::ByPeer => PlanKind::CountByPeer,
            Shape::Bytes => PlanKind::SumBytes,
            Shape::Series => PlanKind::TimeSeries { bin_ms: BIN_MS },
        }
    }
}

/// One query's answer, as the store returns it or as the oracle
/// computes it from the generated rows.
#[derive(Debug, Clone, PartialEq)]
enum Answer {
    Classes([u64; UpdateClass::COUNT]),
    Peers(Vec<(Asn, u64)>),
    Bytes(u64),
    Series(Vec<u64>),
}

struct Case {
    query: Query,
    shape: Shape,
    windowed: bool,
    want: Answer,
    matched: u64,
}

/// The reference answer and the number of rows behind it.
fn oracle(rows: &[StoredEvent], q: &Query, shape: Shape) -> (Answer, u64) {
    let matching = gen::matching(rows, q);
    let matched = matching.clone().count() as u64;
    let answer = match shape {
        Shape::ByClass => {
            let mut c = [0u64; UpdateClass::COUNT];
            matching.for_each(|r| c[r.class.index()] += 1);
            Answer::Classes(c)
        }
        Shape::ByPeer => {
            let mut m: BTreeMap<Asn, u64> = BTreeMap::new();
            matching.for_each(|r| *m.entry(r.peer.asn).or_insert(0) += 1);
            let mut v: Vec<(Asn, u64)> = m.into_iter().collect();
            v.sort_by_key(|&(asn, n)| (std::cmp::Reverse(n), asn));
            Answer::Peers(v)
        }
        Shape::Bytes => Answer::Bytes(matching.map(|r| u64::from(r.size)).sum()),
        Shape::Series => {
            let (first, last) = (rows[0].time_ms, rows[rows.len() - 1].time_ms);
            let start = if q.from_ms > 0 { q.from_ms } else { first };
            let end = q.to_ms.min(last + 1).max(start);
            let mut bins = vec![0u64; (end - start).div_ceil(BIN_MS) as usize];
            for r in matching {
                if let Some(slot) = bins.get_mut(((r.time_ms - start) / BIN_MS) as usize) {
                    *slot += 1;
                }
            }
            Answer::Series(bins)
        }
    };
    (answer, matched)
}

fn ask(store: &mut Store, q: &Query, shape: Shape) -> Result<(Answer, ScanStats), String> {
    let e = |e: iri_store::StoreError| e.to_string();
    Ok(match shape {
        Shape::ByClass => {
            let (c, s) = store.count_by_class(q).map_err(e)?;
            (Answer::Classes(c), s)
        }
        Shape::ByPeer => {
            let (v, s) = store.count_by_peer(q).map_err(e)?;
            (Answer::Peers(v), s)
        }
        Shape::Bytes => {
            let (b, s) = store.sum_bytes(q).map_err(e)?;
            (Answer::Bytes(b), s)
        }
        Shape::Series => {
            let (v, s) = store.time_series(q, BIN_MS).map_err(e)?;
            (Answer::Series(v), s)
        }
    })
}

/// The fixture: the store on disk, open, and the slice's query list
/// with reference answers.
struct Fixture {
    dir: PathBuf,
    store: Store,
    cases: Vec<Case>,
    events: u64,
}

impl Fixture {
    /// Builds the store from generated rows, opens it, computes the
    /// reference answers, and runs one warm-up slice.
    fn build(env: &mut Env, name: &str) -> Fixture {
        let n = env.sized(EVENTS);
        let dir = env.scratch.path(name);
        let rows = gen::day_store(env.seed, 3, n, &dir, as_shared(&env.fs));
        let mut store = Store::open_with(&dir, &OpenOptions::new().fs(as_shared(&env.fs)).jobs(1))
            .expect("open the fixture");
        store.set_scan_jobs(1);

        // The slice: WINDOWED one-hour windows cycling the four shapes,
        // every fourth with a peer filter, and after every tenth window
        // one full-range aggregate filtered by class.
        let mut rng = Rng::new(env.seed, 4);
        let classes = [
            UpdateClass::AaDup,
            UpdateClass::WwDup,
            UpdateClass::AaDiff,
            UpdateClass::Withdraw,
        ];
        let mut cases = Vec::with_capacity(WINDOWED + FULL_RANGE);
        let every = WINDOWED / FULL_RANGE;
        for i in 0..WINDOWED {
            let from = HOUR_MS + rng.below(DAY_MS - HOUR_MS);
            let mut query = Query::default().time_range_ms(from, from + HOUR_MS);
            if i % 4 == 3 {
                query = query.peer(gen::peer(rng.below(gen::PEERS)).asn);
            }
            // Shifted by one each cycle, so the peer filter meets every shape.
            let shape = Shape::ALL[(i + i / 4) % 4];
            let (want, matched) = oracle(&rows, &query, shape);
            cases.push(Case {
                query,
                shape,
                windowed: true,
                want,
                matched,
            });
            if (i + 1) % every == 0 {
                let k = i / every;
                let query = Query::default().class(classes[k % classes.len()]);
                let shape = Shape::ALL[k % 4];
                let (want, matched) = oracle(&rows, &query, shape);
                cases.push(Case {
                    query,
                    shape,
                    windowed: false,
                    want,
                    matched,
                });
            }
        }
        let mut fixture = Fixture {
            dir,
            store,
            cases,
            events: n,
        };
        fixture.slice(env);
        fixture
    }

    /// One slice: every query once, each timed and checked. Returns the
    /// raw latencies (seconds) of the windowed and the full-range ones.
    fn slice(&mut self, env: &mut Env) -> (Vec<f64>, Vec<f64>) {
        let (mut op, mut alt) = (Vec::new(), Vec::new());
        for case in &self.cases {
            let started = Instant::now();
            let got = ask(&mut self.store, &case.query, case.shape);
            let took = started.elapsed().as_secs_f64();
            if case.windowed { &mut op } else { &mut alt }.push(took);
            env.checks
                .check(matches!(&got, Ok((a, _)) if *a == case.want), || {
                    format!("{:?} over {:?} answered wrongly", case.shape, case.query)
                });
        }
        (op, alt)
    }

    /// `rounds` slices, each between kernel runs; returns the queries
    /// answered.
    fn rounds(
        &mut self,
        env: &mut Env,
        cal: &mut Calibrator,
        rounds: usize,
        samples: &mut Samples,
    ) -> u64 {
        for _ in 0..rounds {
            let ((op, alt), t) = cal.timed(|| self.slice(env));
            samples.push_slice(t, (op.len() + alt.len()) as u64, &op, &alt);
        }
        (rounds * self.cases.len()) as u64
    }

    fn setup(env: &mut Env, cal: &mut Calibrator, samples: &mut Samples, name: &str) -> Fixture {
        let (fixture, t) = cal.timed(|| Fixture::build(env, name));
        samples.push_setup(t);
        fixture
    }
}

/// The timed pass and the counted round: every end-to-end metric.
pub fn timed(mut env: Env) -> Outcome {
    let mut cal = Calibrator::new();
    let mut samples = Samples::default();
    let mut fixture = Fixture::setup(&mut env, &mut cal, &mut samples, "store-0");
    for i in 1..env.setup_repeats() {
        let _ = std::fs::remove_dir_all(&fixture.dir);
        fixture = Fixture::setup(&mut env, &mut cal, &mut samples, &format!("store-{i}"));
    }
    let rounds = env.rounds(NOMINAL_ROUND_S, MIN_ROUNDS);
    let fs_before = env.fs.counts();
    let answered = fixture.rounds(&mut env, &mut cal, rounds, &mut samples);
    let rss = peak_rss_mb();

    let ((op, alt), alloc) = counted(|| fixture.slice(&mut env));
    let counted_work = (op.len() + alt.len()) as u64;
    let counts = Counted {
        fs_work: answered + counted_work,
        fs: env.fs.counts().since(&fs_before),
        alloc_work: counted_work,
        alloc,
        disk_bytes: dir_bytes(&fixture.dir),
        events_stored: fixture.events,
    };
    let values = end_to_end(&samples, rss, &counts, &env.checks);
    env.finish(&cal, values)
}

/// What the traced slices add up, per kind of query.
#[derive(Default)]
struct Ledger {
    plan_us: Vec<f64>,
    exec_windowed_ms: Vec<f64>,
    exec_full_ms: Vec<f64>,
    windowed_read_bytes: u64,
    windowed: u64,
    pages_scanned: u64,
    pages_total: u64,
    pages_skipped: u64,
    full_rows: u64,
    full_bytes: u64,
    full_s: f64,
}

/// One traced slice: each query as `Store::plan` then `Store::execute`
/// with a span around each, the filesystem reads it caused, and the
/// scan accounting it returned. `execute` streams materialised rows
/// only, so the check here is the matched-row count, which also covers
/// rows answered from zone maps; full answers are checked by the
/// opaque slices.
fn traced_slice(env: &mut Env, fixture: &mut Fixture, ledger: &mut Ledger) {
    let root = env.log.open("query_mix.slice");
    for case in &fixture.cases {
        let q = env.log.open(if case.windowed {
            "query.windowed"
        } else {
            "query.full_range"
        });
        let id = env.log.open("store.plan");
        let started = Instant::now();
        let plan = fixture.store.plan(&case.query, case.shape.plan_kind());
        ledger.plan_us.push(started.elapsed().as_secs_f64() * 1e6);
        env.log.close(id, plan.steps.len() as u64, 0);

        let before = env.fs.counts();
        let id = env.log.open("store.exec");
        let started = Instant::now();
        let mut streamed = 0u64;
        let stats = fixture.store.execute(&plan, |_| streamed += 1);
        let took = started.elapsed().as_secs_f64();
        let read = env.fs.counts().since(&before).read_bytes();
        env.log.close(id, streamed, read);
        env.log.close(q, 1, read);
        let stats = match stats {
            Ok(s) => s,
            Err(e) => {
                env.checks.check(false, || format!("execute failed: {e}"));
                continue;
            }
        };
        env.checks.check(stats.rows_matched == case.matched, || {
            format!(
                "{:?} over {:?} matched {} rows, the oracle {}",
                case.shape, case.query, stats.rows_matched, case.matched
            )
        });
        if case.windowed {
            ledger.exec_windowed_ms.push(took * 1e3);
            ledger.windowed_read_bytes += read;
            ledger.windowed += 1;
            ledger.pages_scanned += stats.pages_scanned;
            ledger.pages_total += stats.pages_total;
            ledger.pages_skipped += stats.pages_pruned + stats.pages_zone_answered;
        } else {
            ledger.exec_full_ms.push(took * 1e3);
            ledger.full_rows += stats.rows_scanned;
            ledger.full_bytes += stats.bytes_scanned;
            ledger.full_s += took;
        }
    }
    env.log.close(root, fixture.cases.len() as u64, 0);
}

/// The traced pass: untraced slices, traced opaque slices, and the
/// plan/execute replay of the same query list.
pub fn traced(mut env: Env) -> Outcome {
    let mut cal = Calibrator::new();
    let mut untraced = Samples::default();

    let mut fixture = Fixture::setup(&mut env, &mut cal, &mut untraced, "store-0");
    let (with_trace, counts, _) = traced_rounds(
        &mut env,
        &mut cal,
        &mut untraced,
        |env, cal, rounds, samples| fixture.rounds(env, cal, rounds, samples),
        |answered| *answered,
    );
    let per_slice = fixture.cases.len() as u64;

    crate::alloc::set_counting(true);
    // `Store::open` alone: recovery, manifest, per-segment validation.
    let (opened, t_open) = cal.timed(|| {
        let id = env.log.open("store.open");
        let store = Store::open_with(
            &fixture.dir,
            &OpenOptions::new().fs(as_shared(&env.fs)).jobs(1),
        );
        env.log.close(id, 1, 0);
        store.is_ok()
    });
    env.checks
        .check(opened, || "the fixture does not reopen".to_owned());
    let mut ledger = Ledger::default();
    let mut factors = Vec::new();
    let mut coverage = Vec::new();
    let opaque_slice_s = per_slice as f64 / median(&with_trace.rate).max(1e-9);
    for _ in 0..env.traced_rounds() {
        let ((), t) = cal.timed(|| traced_slice(&mut env, &mut fixture, &mut ledger));
        factors.push(t.factor);
        // The replayed slice against the opaque ones: the same queries
        // with the aggregation visitor left out.
        coverage.push(t.cal_s() / opaque_slice_s);
    }
    crate::alloc::set_counting(false);
    let factor = median(&factors);

    let manifest = fixture.store.manifest();
    let store_bytes: u64 = manifest.segments.iter().map(|s| s.bytes).sum();
    let store_pages: u64 = manifest.segments.iter().map(|s| s.pages).sum();
    let page_bytes = store_bytes as f64 / store_pages.max(1) as f64;
    let mut v = Values::new();
    v.insert("store.open_ms", t_open.cal_s() * 1e3);
    v.insert("store.plan_us_p50", median(&ledger.plan_us) * factor);
    v.insert(
        "store.exec_windowed_ms_p50",
        median(&ledger.exec_windowed_ms) * factor,
    );
    let windowed = ledger.windowed.max(1) as f64;
    v.insert(
        "store.read_bytes_per_windowed_query",
        ledger.windowed_read_bytes as f64 / windowed,
    );
    // Bytes read against the bytes of the pages the plan selected, at
    // the store's mean page size (pages are not sized individually in
    // what a query reports).
    v.insert(
        "store.read_bytes_ratio",
        ledger.windowed_read_bytes as f64 / (ledger.pages_scanned as f64 * page_bytes).max(1.0),
    );
    v.insert(
        "store.pages_scanned_per_query",
        ledger.pages_scanned as f64 / windowed,
    );
    v.insert(
        "store.prune_ratio",
        ledger.pages_skipped as f64 / ledger.pages_total.max(1) as f64,
    );
    v.insert(
        "store.exec_full_ms_p50",
        median(&ledger.exec_full_ms) * factor,
    );
    v.insert(
        "store.full_rows_per_s",
        ledger.full_rows as f64 / (ledger.full_s * factor).max(1e-9),
    );
    v.insert(
        "store.decode_bytes_per_row",
        ledger.full_bytes as f64 / ledger.full_rows.max(1) as f64,
    );
    v.insert(
        "store.manifest_bytes",
        std::fs::metadata(fixture.dir.join(iri_store::MANIFEST_FILE)).map_or(0, |m| m.len()) as f64,
    );
    v.insert("bench.trace_coverage", median(&coverage));
    common_layers(&mut v, &cal, &untraced, &with_trace, &counts);
    crate::write_trace(super::QUERY_MIX, &env.log);
    env.finish(&cal, v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_reference_answer_drives_pass_ratio_below_one() {
        let mut env = Env::new(3, 1.0, true, false).expect("scratch");
        let mut fixture = Fixture::build(&mut env, "store-test");
        assert!(env.checks.attempted > 0);
        assert_eq!(
            env.checks.pass_ratio(),
            1.0,
            "{:?}",
            env.checks.first_failure
        );

        fixture.cases[0].want = Answer::Bytes(u64::MAX);
        fixture.slice(&mut env);
        assert_eq!(env.checks.failed, 1);
        assert!(env.checks.pass_ratio() < 1.0);
        assert!(env.checks.first_failure.is_some());
    }
}
