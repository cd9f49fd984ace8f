//! The shared day step (`drive_day`): what one simulated day yields at
//! the route server, and that the chunk length it is driven at changes
//! nothing.

use iri_core::classifier::ClassifiedEvent;
use iri_netsim::{Cause, HOUR, MINUTE};
use iri_rib::stats::TableCensus;
use iri_scenario::drive_day;
use iri_topology::asgraph::{AsGraph, GraphConfig};
use iri_topology::scenario::{build_day_world, ScenarioConfig};
use std::convert::Infallible;

fn tiny_graph() -> AsGraph {
    AsGraph::generate(&GraphConfig::default_scaled(0.01))
}

fn tiny_cfg(graph: &AsGraph) -> ScenarioConfig {
    let mut c = ScenarioConfig::default_for(graph.prefix_count());
    c.warmup_minutes = 10;
    c.oscillator_count = 2;
    c
}

/// One day through the day step at `chunk_minutes`: every measured event
/// with its cause, the number of steps taken, and the end-of-day census.
fn day_at(
    cfg: &ScenarioConfig,
    graph: &AsGraph,
    day: u32,
    chunk_minutes: u64,
) -> (Vec<(ClassifiedEvent, Cause)>, u64, TableCensus) {
    let (mut world, rs, _providers) = build_day_world(cfg, graph, day);
    let warmup_ms = u64::from(cfg.warmup_minutes) * MINUTE;
    let mut events = Vec::new();
    let mut chunks = 0;
    let Ok(census) = drive_day(
        &mut world,
        rs,
        warmup_ms..warmup_ms + 24 * HOUR,
        chunk_minutes * MINUTE,
        &mut Vec::new(),
        |c, cause| {
            events.push((c, cause));
            Ok::<(), Infallible>(())
        },
        |_| {
            chunks += 1;
            Ok(())
        },
    );
    (events, chunks, census)
}

fn measured(cfg: &ScenarioConfig, graph: &AsGraph, day: u32) -> usize {
    day_at(cfg, graph, day, 10).0.len()
}

#[test]
fn the_chunk_length_changes_nothing() {
    let graph = AsGraph::generate(&GraphConfig::default_scaled(0.02));
    let cfg = tiny_cfg(&graph);
    // Day 58 is an upgrade-incident day: session resets and state dumps
    // land inside and across chunk boundaries.
    for day in [17, 58] {
        let (reference, steps, census) = day_at(&cfg, &graph, day, 1);
        assert_eq!(steps, 24 * 60 + 10, "one step per simulated minute");
        assert!(!reference.is_empty(), "day {day} must show updates");
        assert!(
            reference.iter().any(|(_, cause)| *cause != Cause::Unknown),
            "causes must reach the sink"
        );
        for chunk_minutes in [10, 60, 1440] {
            let (events, _, other) = day_at(&cfg, &graph, day, chunk_minutes);
            assert_eq!(
                events.len(),
                reference.len(),
                "day {day}, {chunk_minutes}-min chunks: event count"
            );
            for (i, (a, b)) in reference.iter().zip(&events).enumerate() {
                assert_eq!(a, b, "day {day}, {chunk_minutes}-min chunks: event {i}");
            }
            assert_eq!(
                other, census,
                "day {day}, {chunk_minutes}-min chunks: census"
            );
        }
    }
}

#[test]
fn a_day_produces_updates_and_a_census() {
    let graph = tiny_graph();
    let cfg = tiny_cfg(&graph);
    let (events, _, census) = day_at(&cfg, &graph, 1, 10);
    assert!(!events.is_empty(), "day must show updates");
    // A handful of prefixes may end the day mid-flap (withdrawn with
    // the re-announcement scheduled past midnight).
    assert!(census.prefixes <= graph.prefix_count());
    assert!(
        census.prefixes as f64 >= graph.prefix_count() as f64 * 0.95,
        "census {} of {}",
        census.prefixes,
        graph.prefix_count()
    );
    // Warmup events are excluded and timestamps re-based.
    for (c, _) in &events {
        assert!(c.time_ms <= 24 * HOUR);
    }
}

#[test]
fn a_day_is_deterministic() {
    let graph = tiny_graph();
    let cfg = tiny_cfg(&graph);
    let (a, _, ca) = day_at(&cfg, &graph, 2, 10);
    let (b, _, cb) = day_at(&cfg, &graph, 2, 10);
    assert_eq!(a, b);
    assert_eq!(ca, cb);
}

#[test]
fn weekend_day_is_lighter_than_weekday() {
    let graph = tiny_graph();
    let mut cfg = tiny_cfg(&graph);
    cfg.oscillator_count = 0; // compare exogenous workload only
    let wed = measured(&cfg, &graph, 2); // day 2 is a Wednesday
    let sun = measured(&cfg, &graph, 6); // day 6 is a Sunday
    assert!(
        (sun as f64) < (wed as f64) * 0.9,
        "weekend {sun} must be lighter than weekday {wed}"
    );
}

#[test]
fn multihomed_census_grows_with_day() {
    let graph = AsGraph::generate(&GraphConfig::default_scaled(0.02));
    let mut cfg = tiny_cfg(&graph);
    cfg.base_events_per_slot = 0.5;
    cfg.oscillator_count = 0;
    let early = day_at(&cfg, &graph, 0, 10).2;
    let late = day_at(&cfg, &graph, 200, 10).2;
    assert!(
        late.multihomed > early.multihomed,
        "{} vs {}",
        late.multihomed,
        early.multihomed
    );
}
