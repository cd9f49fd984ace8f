//! Modes that run several passes: the full run (every workload, timed
//! then traced, each pass in a fresh child process so `VmHWM` and the
//! allocator start clean) and the stability report.

use crate::report::{render, END_TO_END};
use crate::stats::median;
use crate::workloads::NAMES;
use crate::{paths, Args, SCHEMA};
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// What one child pass printed.
pub struct Pass {
    /// The child's `envelope` line.
    pub envelope: Value,
    /// Its `metric` and `stage` lines, verbatim.
    pub lines: Vec<String>,
    /// `metrics` of its result line: name → value.
    pub values: BTreeMap<String, f64>,
    /// `correct` of its result line.
    pub correct: bool,
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(f) => Some(*f),
        _ => None,
    }
}

/// Runs one pass of one workload in a child process and parses what it
/// printed. The child inherits stderr, so its complaints reach the
/// operator as they happen.
pub fn child(args: &Args, workload: &str, seed: u64, trace: bool) -> Result<Pass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child: no process outlives this call.
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload} exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut envelope = None;
    let mut lines = Vec::new();
    let mut last = "";
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("envelope ") {
            envelope = serde_json::value_from_str(rest).ok();
        } else if line.starts_with("metric ") || line.starts_with("stage ") {
            lines.push(line.to_owned());
        }
        last = line;
    }
    let result = serde_json::value_from_str(last)
        .map_err(|e| format!("{workload} printed no result line: {e}"))?;
    let values = result
        .get("metrics")
        .and_then(Value::as_map)
        .ok_or_else(|| format!("{workload}: result line has no metrics"))?
        .iter()
        .filter_map(|(k, m)| Some((k.clone(), number(m.get("value")?)?)))
        .collect();
    Ok(Pass {
        envelope: envelope.ok_or_else(|| format!("{workload} printed no envelope"))?,
        lines,
        values,
        correct: result.get("correct") == Some(&Value::Bool(true)),
    })
}

/// Every workload, timed then traced, and one envelope for the lot.
/// Returns the process exit code: 0 when every pass ran and was correct.
pub fn full(args: &Args) -> i32 {
    let mut per_workload = Vec::new();
    let mut ok = true;
    for workload in NAMES {
        let mut entry = vec![];
        for trace in [false, true] {
            match child(args, workload, args.seed, trace) {
                Ok(pass) => {
                    for line in &pass.lines {
                        println!("{line}");
                    }
                    ok &= pass.correct;
                    let key = if trace { "traced" } else { "timed" };
                    let field =
                        |name: &str| pass.envelope.get(name).cloned().unwrap_or(Value::Null);
                    entry.push((format!("{key}_wall_s"), field("wall_s")));
                    entry.push((format!("{key}_ref_spread"), field("ref_spread")));
                    entry.push((format!("{key}_settled"), field("settled")));
                    entry.push((format!("{key}_correct"), Value::Bool(pass.correct)));
                }
                Err(e) => {
                    eprintln!("iri-benchmark: {e}");
                    ok = false;
                }
            }
        }
        per_workload.push((workload.to_owned(), Value::Map(entry)));
    }
    let envelope = Value::Map(vec![
        ("schema".into(), Value::U64(SCHEMA)),
        ("revision".into(), Value::Str(paths::git_revision())),
        ("seed".into(), Value::U64(args.seed)),
        ("seconds".into(), Value::F64(args.seconds)),
        ("smoke".into(), Value::Bool(args.smoke)),
        ("nproc".into(), Value::U64(crate::nproc())),
        (
            "scratch_fs".into(),
            Value::Str(paths::fs_kind(&paths::bench_dir())),
        ),
        ("workloads".into(), Value::Map(per_workload)),
    ]);
    println!("envelope {}", render(&envelope));
    i32::from(!ok)
}

/// The regression bound `BENCHMARK.json` fixes for each end-to-end
/// metric.
fn bounds() -> BTreeMap<String, f64> {
    let path = paths::bench_dir().join("../BENCHMARK.json");
    let doc = std::fs::read_to_string(&path)
        .ok()
        .and_then(|t| serde_json::value_from_str(&t).ok());
    doc.as_ref()
        .and_then(|d| d.get("end_to_end"))
        .and_then(Value::as_array)
        .map(|metrics| {
            metrics
                .iter()
                .filter_map(|m| {
                    Some((
                        m.get("name")?.as_str()?.to_owned(),
                        number(m.get("bound")?)?,
                    ))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// One run's end-to-end values: (workload, metric) → value.
type RunValues = BTreeMap<(String, String), f64>;

/// Timed passes of all four workloads on one seed, plus the worst kernel
/// spread seen.
fn timed_run(args: &Args, seed: u64) -> Result<(RunValues, f64), String> {
    let mut values = BTreeMap::new();
    let mut spread: f64 = 1.0;
    for workload in NAMES {
        let pass = child(args, workload, seed, false)?;
        if !pass.correct {
            return Err(format!(
                "{workload} on seed {seed} failed its output checks"
            ));
        }
        spread = spread.max(
            pass.envelope
                .get("ref_spread")
                .and_then(number)
                .unwrap_or(1.0),
        );
        for (name, v) in pass.values {
            values.insert((workload.to_owned(), name), v);
        }
    }
    Ok((values, spread))
}

/// The stability report, as Markdown on stdout: two interleaved sets of
/// `runs` full timed runs on one seed with their medians side by side,
/// then one run on the next seed to show the output checks hold there.
/// Returns the process exit code: 0 when every pair of medians agrees
/// within its bound and every run was correct.
pub fn stability(args: &Args, runs: usize) -> i32 {
    let bounds = bounds();
    let mut sets: [Vec<RunValues>; 2] = [Vec::new(), Vec::new()];
    let mut spreads = Vec::new();
    for _ in 0..runs {
        for set in &mut sets {
            eprintln!(
                "iri-benchmark: stability run {} of {}",
                spreads.len() + 1,
                2 * runs
            );
            match timed_run(args, args.seed) {
                Ok((values, spread)) => {
                    set.push(values);
                    spreads.push(spread);
                }
                Err(e) => {
                    eprintln!("iri-benchmark: {e}");
                    return 1;
                }
            }
        }
    }
    let second_seed = args.seed + 1;
    eprintln!("iri-benchmark: one run on seed {second_seed}");
    let second = match timed_run(args, second_seed) {
        Ok((values, spread)) => {
            spreads.push(spread);
            values
        }
        Err(e) => {
            eprintln!("iri-benchmark: {e}");
            return 1;
        }
    };

    println!("# Stability of `iri-benchmark`\n");
    println!(
        "Revision `{}`, `nproc` {}, scratch on {} (timed passes count flushes without \
         forwarding them), `--seconds {}`. `bench.ref_spread` (slowest ÷ fastest \
         reference-kernel run inside one pass) ranged {:.2}–{:.2} over the {} passes below, \
         median {:.2}.\n",
        paths::git_revision(),
        crate::nproc(),
        paths::fs_kind(&paths::bench_dir()),
        args.seconds,
        spreads.iter().copied().fold(f64::INFINITY, f64::min),
        spreads.iter().copied().fold(0.0, f64::max),
        NAMES.len() * spreads.len(),
        median(&spreads),
    );
    println!(
        "## Two sets of {runs} runs on seed {}, interleaved run by run\n",
        args.seed
    );
    println!("| workload | metric | median A | median B | B vs A | bound | |");
    println!("|---|---|---:|---:|---:|---:|---|");
    let mut ok = true;
    for workload in NAMES {
        for (metric, _) in END_TO_END {
            let key = (workload.to_owned(), metric.to_owned());
            let col = |set: &Vec<RunValues>| -> Vec<f64> {
                set.iter().filter_map(|r| r.get(&key).copied()).collect()
            };
            let (a, b) = (median(&col(&sets[0])), median(&col(&sets[1])));
            let diff = if a == 0.0 { 0.0 } else { (b - a) / a };
            let bound = bounds.get(metric).copied().unwrap_or(0.0);
            let within = diff.abs() <= bound;
            ok &= within;
            println!(
                "| {workload} | {metric} | {a:.6} | {b:.6} | {:+.2} % | {:.1} % | {} |",
                diff * 100.0,
                bound * 100.0,
                if within { "ok" } else { "**outside**" }
            );
        }
    }
    println!(
        "\n`disk_bytes_per_event` over all {} runs of the seed:\n",
        2 * runs
    );
    for workload in NAMES {
        let key = (workload.to_owned(), "disk_bytes_per_event".to_owned());
        let mut seen: Vec<f64> = sets
            .iter()
            .flatten()
            .filter_map(|r| r.get(&key).copied())
            .collect();
        seen.sort_by(f64::total_cmp);
        seen.dedup();
        println!(
            "- {workload}: {}",
            if seen.len() == 1 {
                format!("identical to the last digit ({})", seen[0])
            } else {
                format!(
                    "{} distinct values, {} to {}",
                    seen.len(),
                    seen[0],
                    seen[seen.len() - 1]
                )
            }
        );
    }
    // `timed_run` has already refused a run whose output checks failed.
    println!("\n## One run on seed {second_seed}\n");
    println!("| workload | pass_ratio | work_per_s | op_p50_ms | alt_p50_ms |");
    println!("|---|---:|---:|---:|---:|");
    for workload in NAMES {
        let get = |metric: &str| {
            second
                .get(&(workload.to_owned(), metric.to_owned()))
                .copied()
                .unwrap_or(0.0)
        };
        println!(
            "| {workload} | {} | {:.6} | {:.6} | {:.6} |",
            get("pass_ratio"),
            get("work_per_s"),
            get("op_p50_ms"),
            get("alt_p50_ms")
        );
    }
    i32::from(!ok)
}
