//! `iri-benchmark`: four workloads, ten end-to-end metrics each, and a
//! per-layer ledger — timed against a reference kernel so the numbers
//! repeat on a box whose speed drifts. See `benchmark/README.md`.

mod alloc;
mod calib;
mod driver;
mod gen;
mod harness;
mod meter_fs;
mod paths;
mod report;
mod span;
mod stats;
mod steady;
mod workloads;

use harness::Env;
use report::{rows, Outcome, SETTLED_REF_SPREAD};
use serde_json::Value;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Version of the lines this program prints.
pub const SCHEMA: u64 = 1;
/// Measuring time when `--seconds` is not given; `BENCHMARK.json`'s
/// `run_seconds`.
pub const DEFAULT_SECONDS: f64 = 20.0;

/// Writes a traced pass's spans to `out/trace-<workload>.json`.
pub fn write_trace(workload: &str, log: &span::SpanLog) {
    let dir = paths::out_dir();
    let path = dir.join(format!("trace-{workload}.json"));
    let text = report::render(&log.to_json());
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("iri-benchmark: cannot write {}: {e}", path.display());
    }
}

/// Seconds a smoke pass asks for: with the smoke sizes, all four
/// workloads, timed and traced, finish in about half a minute.
const SMOKE_SECONDS: f64 = 1.0;

/// The command line.
#[derive(Debug)]
pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    stability: bool,
    runs: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: iri-benchmark [--seed N] [--seconds S] [--smoke]\n\
         \x20      iri-benchmark --workload <{}> [--trace 0|1] [--seed N] [--seconds S] [--smoke]\n\
         \x20      iri-benchmark --stability [--runs N] [--seed N] [--seconds S]",
        workloads::NAMES.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        stability: false,
        runs: 5,
    };
    let mut seconds_given = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = Some(value()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                args.seconds = value().parse().unwrap_or_else(|_| usage());
                seconds_given = true;
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--smoke" => args.smoke = true,
            "--stability" => args.stability = true,
            "--runs" => args.runs = value().parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    if let Some(name) = &args.workload {
        if !workloads::NAMES.contains(&name.as_str()) {
            usage();
        }
    }
    if args.smoke && !seconds_given {
        args.seconds = SMOKE_SECONDS;
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) || args.runs == 0 {
        usage();
    }
    args
}

/// CPUs this process may run on, as the OS reports them now.
pub fn nproc() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// The envelope of one pass: who ran what, where, and how steady the
/// box was meanwhile.
fn envelope(
    args: &Args,
    workload: &str,
    outcome: &Outcome,
    cpus: u64,
    pinned: Option<usize>,
    one_arena: bool,
) -> Value {
    Value::Map(vec![
        ("schema".into(), Value::U64(SCHEMA)),
        ("revision".into(), Value::Str(paths::git_revision())),
        ("workload".into(), Value::Str(workload.to_owned())),
        ("seed".into(), Value::U64(args.seed)),
        ("seconds".into(), Value::F64(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        ("smoke".into(), Value::Bool(args.smoke)),
        ("nproc".into(), Value::U64(cpus)),
        (
            "pinned_cpu".into(),
            pinned.map_or(Value::Null, |c| Value::U64(c as u64)),
        ),
        ("single_arena".into(), Value::Bool(one_arena)),
        (
            "scratch_fs".into(),
            Value::Str(paths::fs_kind(&paths::bench_dir())),
        ),
        ("wall_s".into(), Value::F64(outcome.wall_s)),
        ("ref_spread".into(), Value::F64(outcome.ref_spread)),
        (
            "settled".into(),
            Value::Bool(outcome.ref_spread <= SETTLED_REF_SPREAD),
        ),
    ])
}

/// One pass of one workload in this process: envelope, one row per
/// declared metric, and the result line last.
fn single(args: &Args, workload: &str) -> i32 {
    // Before anything starts a thread: threads inherit the mask. The
    // CPU count is taken first, because pinning narrows what the OS
    // reports.
    let cpus = nproc();
    let cpu = steady::pin_to_one_cpu();
    let one_arena = steady::single_arena();
    let env = match Env::new(args.seed, args.seconds, args.smoke, args.trace) {
        Ok(env) => env,
        Err(e) => {
            eprintln!("iri-benchmark: cannot create scratch: {e}");
            return 1;
        }
    };
    let outcome = workloads::run(workload, args.trace, env);
    println!(
        "envelope {}",
        report::render(&envelope(args, workload, &outcome, cpus, cpu, one_arena))
    );
    for (name, value, unit) in rows(&outcome.values, args.trace) {
        println!("metric {workload} {name} {value} {unit}");
    }
    if args.trace {
        // One run, one table: raw time, work and bytes per stage.
        for (name, t) in &outcome.stages {
            println!(
                "stage {workload} {name} spans {} total_ms {:.3} self_ms {:.3} count {} bytes {}",
                t.spans, t.total_ms, t.self_ms, t.count, t.bytes
            );
        }
    }
    if let Some(what) = &outcome.first_failure {
        eprintln!(
            "iri-benchmark: {workload}: {} of {} checks failed, first: {what}",
            outcome.failed, outcome.attempted
        );
    }
    println!("{}", report::result_line(&outcome, args.trace));
    0
}

fn main() {
    let args = parse_args();
    let code = match &args.workload {
        Some(workload) => single(&args, workload),
        None if args.stability => driver::stability(&args, args.runs),
        None => driver::full(&args),
    };
    std::process::exit(code);
}
