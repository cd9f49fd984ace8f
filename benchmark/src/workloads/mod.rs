//! The four workloads. Each has a timed pass (every end-to-end metric)
//! and a traced pass (every per-layer metric).

use crate::harness::Env;
use crate::report::Outcome;

pub mod archive_ingest;
pub mod query_mix;
pub mod serve_mixed;
pub mod sim_run;

/// `sim_run`: scenario pack → simulator → chain → live store → watcher.
pub const SIM_RUN: &str = "sim_run";
/// `archive_ingest`: MRT log → pipeline → segment store, and live appends.
pub const ARCHIVE_INGEST: &str = "archive_ingest";
/// `query_mix`: windowed and full-range queries over a fixed store.
pub const QUERY_MIX: &str = "query_mix";
/// `serve_mixed`: TCP reads beside appends on one live store.
pub const SERVE_MIXED: &str = "serve_mixed";

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [SIM_RUN, ARCHIVE_INGEST, QUERY_MIX, SERVE_MIXED];

/// Runs one pass of one workload.
///
/// # Panics
/// On a name outside [`NAMES`]; the command line is checked against it.
#[must_use]
pub fn run(name: &str, trace: bool, env: Env) -> Outcome {
    match (name, trace) {
        (SIM_RUN, false) => sim_run::timed(env),
        (SIM_RUN, true) => sim_run::traced(env),
        (ARCHIVE_INGEST, false) => archive_ingest::timed(env),
        (ARCHIVE_INGEST, true) => archive_ingest::traced(env),
        (QUERY_MIX, false) => query_mix::timed(env),
        (QUERY_MIX, true) => query_mix::traced(env),
        (SERVE_MIXED, false) => serve_mixed::timed(env),
        (SERVE_MIXED, true) => serve_mixed::traced(env),
        _ => panic!("unknown workload {name}"),
    }
}
