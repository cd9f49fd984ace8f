//! `mrtstat` — a bgpdump-style analyzer for MRT BGP logs.
//!
//! Reads an MRT file (BGP4MP MESSAGE records, as written by the simulator's
//! monitors or any other MRT producer this library's writer understands),
//! classifies every prefix event with the paper's taxonomy, and prints the
//! §4/§5 statistics: class breakdown, per-peer totals, instability
//! incidents, inter-arrival modes, and episode persistence.
//!
//! ```sh
//! mrtstat <file.mrt> [--base-time <unix-secs>] [--jobs N] [--metrics-json <out.json>]
//! mrtstat <file.mrt> --store <dir>   # analyze AND archive into a segment store
//! mrtstat --store <dir> [filters]    # re-derive the report from an archive
//! mrtstat --demo [--jobs N]          # generate a demo log in-memory and analyze it
//! ```
//!
//! All three paths run through [`iri_bench::engine::analyze`]: without
//! `--jobs` the single-threaded classifier, with `--jobs N` the sharded
//! streaming pipeline (N workers; `--jobs 0` picks one per CPU), and
//! `--store` alone a replay of the archive — each renders the identical
//! report for the same logical stream. Store replay accepts
//! the shared filter grammar (`--class`, `--peer`, `--day`, `--strict`,
//! `--stats`, …) so a report can be cut to a slice of the archive.
//!
//! `--metrics-json` writes the run's telemetry (and, in pipeline mode,
//! the fine-grained registry snapshot with per-batch latency histograms)
//! as JSON for automation.
//!
//! Exit codes: 0 ok, 2 usage, 3 I/O, 4 corrupt store, 5
//! quarantined/strict, 6 JSON, 7 pipeline/ingest.

use iri_bench::cli::{self, QueryFilter};
use iri_bench::engine::{analyze, EngineInput, EngineOutput};
use iri_bench::{arg_str, arg_u64, logged_to_events, report_from_analysis, UpdateReport};
use iri_core::input::UpdateEvent;
use iri_mrt::MrtReader;
use iri_obs::RegistrySnapshot;
use iri_pipeline::{AnalysisResult, PipelineConfig, PipelineMetrics};
use iri_store::IngestConfig;
use serde::Serialize;
use std::fs::File;
use std::io::BufReader;
use std::path::Path;

/// The `--metrics-json` payload.
#[derive(Serialize)]
struct MetricsDump {
    pipeline: Option<PipelineMetrics>,
    registry: Option<RegistrySnapshot>,
}

/// Pipeline telemetry captured alongside the report.
#[derive(Default)]
struct Telemetry {
    metrics: Option<PipelineMetrics>,
    registry: Option<RegistrySnapshot>,
}

impl Telemetry {
    /// Prints the stage telemetry and keeps it for `--metrics-json`.
    fn capture(&mut self, result: &AnalysisResult) {
        print!("\n{}", result.metrics.render());
        self.metrics = Some(result.metrics.clone());
        self.registry = result
            .registry
            .is_enabled()
            .then(|| result.registry.snapshot());
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: mrtstat <file.mrt> [--base-time <unix-secs>] [--jobs N] \
         [--metrics-json <out.json>] [--store <dir>] \
         | mrtstat --store <dir> [filters] | mrtstat --demo\n\
         filters: [--from-ms A] [--to-ms B] [--day D] [--peer ASN] [--prefix P] \
         [--class NAME] [--cause NAME] [--strict] [--stats]"
    );
    std::process::exit(cli::EXIT_USAGE);
}

/// Runs the analysis the flags ask for, with uniform error reporting
/// and exit codes.
fn run_engine(jobs: Option<usize>, obs: bool, input: EngineInput<'_>) -> EngineOutput {
    analyze(input, jobs, obs).unwrap_or_else(|e| {
        eprintln!("mrtstat: {e}");
        std::process::exit(e.exit_code());
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let jobs = args
        .iter()
        .position(|a| a == "--jobs")
        .map(|_| arg_u64(&args, "--jobs", 0) as usize);
    let demo = args.iter().any(|a| a == "--demo");
    let metrics_json = arg_str(&args, "--metrics-json");
    let store_dir = arg_str(&args, "--store");
    // The JSON dump wants the fine-grained registry, so requesting it
    // turns on pipeline observability.
    let obs = metrics_json.is_some();
    let path = args.get(1).filter(|p| !p.starts_with("--")).cloned();

    let mut telemetry = Telemetry::default();
    let report: UpdateReport = if demo {
        let events = demo_events();
        let out = run_engine(jobs, obs, EngineInput::Events(&events));
        if let Some(result) = &out.analysis {
            telemetry.capture(result);
        }
        out.report
    } else if path.is_none() && store_dir.is_some() {
        report_from_archive(&args, store_dir.as_deref().unwrap())
    } else {
        let Some(path) = path else { usage() };
        let base = arg_u64(&args, "--base-time", 0) as u32;
        if let Some(dir) = &store_dir {
            // One pass over the log: classify, report, AND archive.
            // Ingest is inherently pipeline-shaped, so this path does not
            // go through `analyze`.
            let mut cfg = PipelineConfig::with_jobs(jobs.unwrap_or(0));
            cfg.obs = obs;
            let ing = IngestConfig {
                pipeline: cfg,
                ..IngestConfig::default()
            };
            // MrtReader issues many small reads per record; unbuffered
            // File I/O costs a syscall per read, so wrap in BufReader.
            let file = File::open(&path).unwrap_or_else(|e| {
                eprintln!("mrtstat: cannot open {path}: {e}");
                std::process::exit(3);
            });
            let mut reader = MrtReader::new(BufReader::new(file));
            let outcome = iri_store::ingest_mrt(Path::new(dir), &mut reader, base, &ing)
                .unwrap_or_else(|e| cli::exit_store_error("mrtstat", &e));
            println!(
                "{path}: {} MRT records archived to {dir} ({} segments, {} events, generation {})",
                outcome.records_read,
                outcome.manifest.segments.len(),
                outcome.manifest.total_events,
                outcome.manifest.generation
            );
            if outcome.retries > 0 {
                println!("ingest retried {} transient I/O error(s)", outcome.retries);
            }
            telemetry.capture(&outcome.analysis);
            report_from_analysis(&outcome.analysis)
        } else {
            let out = run_engine(
                jobs,
                obs,
                EngineInput::MrtFile {
                    path: Path::new(&path),
                    base_time: base,
                },
            );
            if let Some(records) = out.records_read {
                println!("{path}: {records} MRT records");
            }
            if let Some(result) = &out.analysis {
                telemetry.capture(result);
            }
            out.report
        }
    };

    if let Some(path) = metrics_json {
        let dump = MetricsDump {
            pipeline: telemetry.metrics.clone(),
            registry: telemetry.registry.clone(),
        };
        let json = serde_json::to_string_pretty(&dump).expect("serialise metrics");
        std::fs::write(&path, json).unwrap_or_else(|e| {
            eprintln!("mrtstat: cannot write {path}: {e}");
            std::process::exit(3);
        });
        println!("metrics written to {path}");
    }
    if report.totals.total == 0 {
        println!("no prefix events found.");
        return;
    }
    print!("{}", report.render());
}

/// Rebuilds the report from an existing archive by replaying it,
/// honouring the shared filter grammar — no MRT input needed.
fn report_from_archive(args: &[String], dir: &str) -> UpdateReport {
    let filter = QueryFilter::from_args(args).unwrap_or_else(|msg| {
        eprintln!("mrtstat: {msg}");
        usage()
    });
    let out = run_engine(
        None,
        false,
        EngineInput::Store {
            dir: Path::new(dir),
            filter: &filter,
        },
    );
    if let Some(stats) = &out.scan_stats {
        println!(
            "{dir}: replayed {} rows from {} segments ({} KiB)",
            stats.rows_matched,
            stats.segments_scanned,
            stats.bytes_scanned / 1024
        );
        if filter.wants_stats() {
            println!("{}", cli::render_scan_stats(stats));
        }
    }
    out.report
}

/// Generates an in-memory demo: one simulated exchange hour.
fn demo_events() -> Vec<UpdateEvent> {
    use iri_netsim::{build_exchange, provider_mix, CsuFault, ExchangePoint, World, HOUR, MINUTE};
    println!("(demo mode: simulating one hour at a scaled Mae-East)");
    let mut world = World::new(0xdead_beef);
    let cfgs = provider_mix(ExchangePoint::MaeEast, 0.08, 0.6, 7000);
    let ex = build_exchange(&mut world, ExchangePoint::MaeEast, cfgs);
    for (i, &p) in ex.providers.iter().enumerate() {
        let pfx = iri_bgp::types::Prefix::from_raw(0x0a00_0000 | ((i as u32) << 16), 16);
        world.schedule_originate(1000, p, pfx);
        world.schedule_flap(5 * MINUTE, p, pfx, 45 * MINUTE / 60);
    }
    world.add_access_link(
        ex.providers[0],
        vec!["192.42.113.0/24".parse().unwrap()],
        Some(CsuFault::beat_30s(2 * MINUTE)),
    );
    world.start();
    world.run_until(HOUR);
    let monitor = world.take_monitor(ex.route_server).unwrap();
    logged_to_events(&monitor.updates)
}
