//! The day step: one built day world, simulated chunk by chunk and
//! classified in arrival order at the route server.
//!
//! Every measured day goes through [`drive_day`]: the streaming
//! [`ScenarioRunner`](crate::ScenarioRunner) hands its events to the
//! store writer, and the figure harness collects them for the per-day
//! statistics. The classifier is warmed on the warmup traffic, as the
//! 1996 collection observed continuously: a withdrawal at 00:01 for a
//! route announced during the warmup is a Withdraw, not a WWDup. Only
//! events at or after `warmup_ms` reach the sink.
//!
//! The chunk length bounds how much raw monitor log is held at once and
//! how often the caller gets control back; it never changes what is
//! simulated or how it is classified, because `run_until(t)` processes
//! exactly the events due by `t` whatever the steps that led there.

use iri_core::classifier::ClassifiedEvent;
use iri_core::input::{events_from_update, PeerKey};
use iri_core::Classifier;
use iri_netsim::router::RouterId;
use iri_netsim::{Cause, LoggedUpdate, SimTime, World};
use iri_rib::stats::TableCensus;
use std::ops::Range;

/// Starts `world` and runs it to `measured.end` in steps of `chunk_ms`;
/// `measured.start` is where the warmup ends and the measured day
/// begins.
///
/// After each step the route server `rs`'s monitor log is swapped into
/// `drained` and every prefix event of every UPDATE in it is classified.
/// Each event at or after `measured.start` goes to `sink` with its time
/// rebased to the measured day and the cause of the UPDATE that carried
/// it. `after_chunk` runs once per step, after the sink has seen the
/// step's events. Returns the route server's table census at
/// `measured.end`.
///
/// `drained` is scratch that keeps its capacity: the swap hands it back
/// and forth with the monitor, so neither regrows from zero every step.
/// A multi-day run should pass the same buffer for every day; a fresh
/// one per day raised the runner's 7-day peak RSS by about 0.5 MiB.
///
/// # Errors
/// The first error `sink` or `after_chunk` returns, which ends the day.
pub fn drive_day<E>(
    world: &mut World,
    rs: RouterId,
    measured: Range<SimTime>,
    chunk_ms: SimTime,
    drained: &mut Vec<LoggedUpdate>,
    mut sink: impl FnMut(ClassifiedEvent, Cause) -> Result<(), E>,
    mut after_chunk: impl FnMut(&World) -> Result<(), E>,
) -> Result<TableCensus, E> {
    let Range {
        start: warmup_ms,
        end: day_end,
    } = measured;
    world.start();
    let mut classifier = Classifier::new();
    let mut t = 0;
    while t < day_end {
        t = (t + chunk_ms.max(1)).min(day_end);
        world.run_until(t);
        drained.clear();
        if let Some(m) = world.monitor_mut(rs) {
            std::mem::swap(&mut m.updates, drained);
        }
        for logged in drained.iter() {
            let iri_bgp::message::Message::Update(up) = &logged.message else {
                continue;
            };
            let peer = PeerKey {
                asn: logged.peer_asn,
                addr: logged.peer_addr,
            };
            for ev in events_from_update(logged.time_ms, peer, up) {
                let mut c = classifier.classify(&ev);
                if c.time_ms < warmup_ms {
                    continue;
                }
                c.time_ms -= warmup_ms;
                sink(c, logged.cause)?;
            }
        }
        after_chunk(world)?;
    }
    world.ensure_resident(rs);
    Ok(iri_rib::stats::census(world.router(rs).loc_rib()))
}
