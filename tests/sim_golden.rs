//! Golden simulator output: two scenario packs, six simulated hours of one
//! day each, recorded through the boundary chain. The event count and the
//! chain head commit to every event the simulator produced, every random
//! draw behind it and every byte handed to the store, so any change to
//! what is simulated moves one of them.
//!
//! The constants were recorded on the tree before the simulator's event
//! loop was reworked to reuse its buffers; a change that only removes
//! allocations must leave them untouched. Sabotage that trips it: in
//! `iri_netsim::router::Router::flush_peer`, drain the pending window in
//! reverse prefix order.

use iri_scenario::{ChainMode, RunnerOptions, ScenarioPack, ScenarioRunner};
use std::path::PathBuf;

fn run(tag: &str, src: &str) -> (u64, String) {
    let mut pack = ScenarioPack::parse_str(src).expect("pack parses");
    pack.run.days = 1;
    let dir: PathBuf =
        std::env::temp_dir().join(format!("iri-sim-golden-{}-{tag}", std::process::id()));
    let chain_dir = iri_scenario::chain_dir_for(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&chain_dir);
    let runner = ScenarioRunner::new(
        pack,
        RunnerOptions {
            jobs: 1,
            hours: Some(6),
            chain: ChainMode::Record,
            ..RunnerOptions::default()
        },
    );
    let report = runner.run(&dir).expect("scenario run");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&chain_dir);
    (
        report.events_written,
        report.chain_head.expect("recording run has a head"),
    )
}

#[test]
fn paper_1996_six_hours_is_unchanged() {
    let got = run("paper", include_str!("../packs/paper_1996.toml"));
    assert_eq!(got, (2654, "87b51e36f528322d".to_owned()));
}

#[test]
fn community_churn_six_hours_is_unchanged() {
    let got = run("churn", include_str!("../packs/community_churn.toml"));
    assert_eq!(got, (1744, "82ed879c63f04db1".to_owned()));
}
