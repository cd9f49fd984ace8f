//! One entry point for the §4/§5 [`UpdateReport`].
//!
//! [`analyze`] produces the report from whichever source the input
//! names — in-memory events, an MRT log, or a segment-store archive —
//! and renders the same report for the same logical event stream
//! whichever way it got there (the equivalence tests hold the paths
//! byte-identical), so a binary can add `--jobs` or `--store` without
//! changing what it prints.
//!
//! ```no_run
//! use iri_bench::engine::{analyze, EngineInput};
//!
//! let input = EngineInput::MrtFile { path: "trace.mrt".as_ref(), base_time: 0 };
//! let out = analyze(input, Some(4), false).unwrap();
//! print!("{}", out.report.render());
//! ```

use crate::cli::QueryFilter;
use crate::report::{
    report_from_analysis, report_from_events, report_from_store_query, UpdateReport,
};
use iri_core::input::{events_from_mrt, UpdateEvent};
use iri_mrt::{MrtReader, MrtRecord};
use iri_pipeline::{AnalysisResult, PipelineConfig, PipelineError};
use iri_store::{ScanStats, StoreError};
use std::fmt;
use std::fs::File;
use std::io::{self, BufReader};
use std::path::{Path, PathBuf};

/// What [`analyze`] runs on.
pub enum EngineInput<'a> {
    /// In-memory prefix events (simulator output, demo streams).
    Events(&'a [UpdateEvent]),
    /// An MRT update log on disk. `base_time` 0 means "use the first
    /// record's timestamp".
    MrtFile {
        /// The log file.
        path: &'a Path,
        /// Unix seconds the event clock starts at.
        base_time: u32,
    },
    /// A segment-store archive, narrowed and opened per the filter
    /// (including its `--strict` flag).
    Store {
        /// The store directory.
        dir: &'a Path,
        /// Row filter + open options.
        filter: &'a QueryFilter,
    },
}

/// What [`analyze`] hands back: the report, plus whatever provenance
/// the input kind affords.
pub struct EngineOutput {
    /// The common §4/§5 report.
    pub report: UpdateReport,
    /// MRT records read (MRT inputs only).
    pub records_read: Option<u64>,
    /// Full pipeline result with telemetry (pipeline runs only).
    pub analysis: Option<AnalysisResult>,
    /// Store scan accounting (store replay only).
    pub scan_stats: Option<ScanStats>,
}

impl EngineOutput {
    fn bare(report: UpdateReport) -> Self {
        EngineOutput {
            report,
            records_read: None,
            analysis: None,
            scan_stats: None,
        }
    }
}

/// Why [`analyze`] failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum EngineError {
    /// Could not read the input.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The failing error.
        source: io::Error,
    },
    /// The streaming pipeline died.
    Pipeline(PipelineError),
    /// The store could not be opened or scanned.
    Store(StoreError),
}

impl EngineError {
    /// Process exit code for this failure, aligned with
    /// [`StoreError::exit_code`] so every binary maps failures the same
    /// way.
    #[must_use]
    pub fn exit_code(&self) -> i32 {
        match self {
            EngineError::Io { .. } => 3,
            EngineError::Store(e) => e.exit_code(),
            EngineError::Pipeline(_) => 7,
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Io { path, source } => {
                write!(f, "cannot read {}: {source}", path.display())
            }
            EngineError::Pipeline(e) => write!(f, "{e}"),
            EngineError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<PipelineError> for EngineError {
    fn from(e: PipelineError) -> Self {
        EngineError::Pipeline(e)
    }
}

impl From<StoreError> for EngineError {
    fn from(e: StoreError) -> Self {
        EngineError::Store(e)
    }
}

fn open_mrt(path: &Path) -> Result<MrtReader<BufReader<File>>, EngineError> {
    let file = File::open(path).map_err(|e| EngineError::Io {
        path: path.to_path_buf(),
        source: e,
    })?;
    Ok(MrtReader::new(BufReader::new(file)))
}

/// Reads MRT records until EOF or the first malformed record (matching
/// the historical tolerant CLI behaviour), resolving base time 0 to the
/// first record's timestamp.
fn read_mrt_file(path: &Path, base_time: u32) -> Result<(Vec<MrtRecord>, u32), EngineError> {
    let mut reader = open_mrt(path)?;
    let mut records = Vec::new();
    loop {
        match reader.next_record() {
            Ok(Some(r)) => records.push(r),
            Ok(None) => break,
            Err(e) => {
                eprintln!("warning: stopping at malformed MRT record: {e}");
                break;
            }
        }
    }
    let base = if base_time == 0 {
        records.first().map_or(0, MrtRecord::timestamp)
    } else {
        base_time
    };
    Ok((records, base))
}

/// Produces the report for `input`. A store is replayed, honouring the
/// filter's row predicates and strict flag; events and MRT logs go
/// through the sharded streaming pipeline when `jobs` is given (0 = one
/// worker per CPU; `obs` switches its fine-grained registry on) and
/// otherwise through the single-threaded classifier in stream order —
/// the reference the pipeline is held against.
pub fn analyze(
    input: EngineInput<'_>,
    jobs: Option<usize>,
    obs: bool,
) -> Result<EngineOutput, EngineError> {
    let pipeline = jobs.map(|jobs| {
        let mut cfg = PipelineConfig::with_jobs(jobs);
        cfg.obs = obs;
        cfg
    });
    match (input, pipeline) {
        (EngineInput::Store { dir, filter }, _) => {
            let mut store = filter.open(dir)?;
            let (report, stats) = report_from_store_query(&mut store, filter.query())?;
            let mut out = EngineOutput::bare(report);
            out.scan_stats = Some(stats);
            Ok(out)
        }
        (EngineInput::Events(events), None) => Ok(EngineOutput::bare(report_from_events(events))),
        (EngineInput::MrtFile { path, base_time }, None) => {
            let (records, base) = read_mrt_file(path, base_time)?;
            let events = events_from_mrt(&records, base);
            let mut out = EngineOutput::bare(report_from_events(&events));
            out.records_read = Some(records.len() as u64);
            Ok(out)
        }
        (EngineInput::Events(events), Some(cfg)) => {
            let result = iri_pipeline::analyze_events(events, &cfg)?;
            let mut out = EngineOutput::bare(report_from_analysis(&result));
            out.analysis = Some(result);
            Ok(out)
        }
        (EngineInput::MrtFile { path, base_time }, Some(cfg)) => {
            let (result, records) =
                iri_pipeline::analyze_mrt(&mut open_mrt(path)?, base_time, &cfg)?;
            let mut out = EngineOutput::bare(report_from_analysis(&result));
            out.records_read = Some(records);
            out.analysis = Some(result);
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_and_pipeline_agree_on_events() {
        let mut log = Vec::new();
        let mut w = iri_mrt::MrtWriter::new(&mut log);
        let cfg = crate::GenLogConfig {
            records: 3_000,
            peers: 4,
            prefixes: 200,
            ..crate::GenLogConfig::default()
        };
        crate::write_synthetic_log(&mut w, &cfg).unwrap();
        let mut reader = MrtReader::new(log.as_slice());
        let records: Vec<MrtRecord> = reader.iter().collect::<Result<_, _>>().unwrap();
        let events = events_from_mrt(&records, crate::genlog::BASE_TIME);
        let render = |jobs| {
            let out = analyze(EngineInput::Events(&events), jobs, false).unwrap();
            out.report.render()
        };
        assert_eq!(render(None), render(Some(3)));
    }
}
