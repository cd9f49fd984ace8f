//! Shared figure-binary harness: argument parsing, the banner, the scaled
//! topology, and the parallel day map — the boilerplate every
//! `fig*`/`table1` binary used to repeat, factored into one place.
//!
//! Each day is simulated and classified through the scenario runner's
//! day step (see [`crate::summary::classified_day`]); days are dealt to
//! workers by `iri-pipeline`'s ordered parallel map.

use crate::summary::{summarize_day, DaySummary, ExperimentConfig};
use crate::{arg_f64, banner};
use iri_topology::asgraph::AsGraph;
use iri_topology::scenario::ScenarioConfig;

/// Everything a figure binary starts from.
pub struct Experiment {
    /// Raw command-line arguments (for figure-specific flags).
    pub args: Vec<String>,
    /// Scale factor relative to the 1996 Internet.
    pub scale: f64,
    /// Experiment configuration at that scale.
    pub cfg: ExperimentConfig,
    /// The generated provider/customer topology.
    pub graph: AsGraph,
}

/// The lightweight half of [`experiment`] for binaries that build their
/// own world (e.g. `fig1`): parses the arguments and prints the banner.
#[must_use]
pub fn experiment_args(title: &str, paper: &str) -> Vec<String> {
    let args: Vec<String> = std::env::args().collect();
    banner(title, paper);
    args
}

/// Standard figure-binary preamble: banner, `--scale` (defaulting to
/// `default_scale`), and the scaled topology.
#[must_use]
pub fn experiment(title: &str, paper: &str, default_scale: f64) -> Experiment {
    let args = experiment_args(title, paper);
    let scale = arg_f64(&args, "--scale", default_scale);
    let (cfg, graph) = ExperimentConfig::at_scale(scale);
    Experiment {
        args,
        scale,
        cfg,
        graph,
    }
}

impl Experiment {
    /// Runs `days` with the experiment's own scenario and topology.
    #[must_use]
    pub fn run_days(&self, days: impl Iterator<Item = u32>) -> Vec<DaySummary> {
        self.run_days_in(&self.cfg.scenario, &self.graph, days)
    }

    /// [`Experiment::run_days`] with a custom scenario/topology (for
    /// binaries like `table1` that inject incident providers). Days run
    /// on `cfg.threads` workers and come back in the order of `days`.
    #[must_use]
    pub fn run_days_in(
        &self,
        scenario: &ScenarioConfig,
        graph: &AsGraph,
        days: impl Iterator<Item = u32>,
    ) -> Vec<DaySummary> {
        iri_pipeline::par_map(days.collect(), self.cfg.threads, |day| {
            summarize_day(scenario, graph, day)
        })
        .expect("simulation worker panicked")
        .0
    }

    /// One day through the same path as [`Experiment::run_days_in`].
    #[must_use]
    pub fn summarize_day_in(
        &self,
        scenario: &ScenarioConfig,
        graph: &AsGraph,
        day: u32,
    ) -> DaySummary {
        self.run_days_in(scenario, graph, std::iter::once(day))
            .pop()
            .expect("one day in, one summary out")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_days_parallel_matches_serial() {
        let (mut cfg, graph) = ExperimentConfig::at_scale(0.01);
        cfg.scenario.warmup_minutes = 10;
        cfg.threads = 3;
        let ex = Experiment {
            args: Vec::new(),
            scale: 0.01,
            cfg,
            graph,
        };
        let par = ex.run_days(0..4u32);
        assert_eq!(par.len(), 4);
        for (i, s) in par.iter().enumerate() {
            assert_eq!(s.day, i as u32);
            let serial = summarize_day(&ex.cfg.scenario, &ex.graph, i as u32);
            assert_eq!(
                s.total_events, serial.total_events,
                "day {i} must be deterministic"
            );
        }
    }
}
