//! # iri-bench — experiment harness
//!
//! Regenerates every table and figure of *Internet Routing Instability*.
//! One binary per artefact (`table1`, `fig1` … `fig10`, `headline`,
//! `ablations`), all built on the shared pipeline here:
//!
//! ```text
//! iri-topology day world → iri-scenario day step (10-min chunks:
//!        monitor drain → iri-core events → warmed classifier)
//!        → per-day summary
//! ```
//!
//! Every measured day is simulated and classified through
//! `iri_scenario::drive_day`, the chunked day step `run_scenario --pack`
//! runs too. Multi-day experiments ([`Experiment::run_days`]) deal days
//! to workers through `iri-pipeline`'s ordered parallel map; each
//! simulated day is independent (its own seeded world), so results are
//! deterministic regardless of scheduling.

pub mod cli;
pub mod engine;
pub mod experiment;
pub mod genlog;
pub mod obs_scenario;
pub mod report;
pub mod summary;

pub use cli::{
    arg_f64, arg_flag, arg_str, arg_u64, banner, exit_store_error, print_scan_stats, QueryFilter,
    EXIT_USAGE,
};
pub use experiment::{experiment, experiment_args, Experiment};
pub use genlog::{write_synthetic_log, GenLogConfig};
pub use obs_scenario::{run_pathology, CauseBreakdown, ObsScenario};
pub use report::{
    report_from_analysis, report_from_events, report_from_store, report_from_store_query,
    UpdateReport,
};
pub use summary::{summarize_day, DaySummary, ExperimentConfig};

use iri_core::input::{PeerKey, UpdateEvent};
use iri_netsim::monitor::LoggedUpdate;
use iri_obs::Cause;

/// Converts monitor log entries into the analysis crate's prefix events.
#[must_use]
pub fn logged_to_events(log: &[LoggedUpdate]) -> Vec<UpdateEvent> {
    logged_to_events_with_causes(log).0
}

/// Like [`logged_to_events`], but also returns each event's causal
/// provenance tag, aligned index-for-index with the event vector (every
/// prefix event inside one wire UPDATE inherits that UPDATE's cause).
#[must_use]
pub fn logged_to_events_with_causes(log: &[LoggedUpdate]) -> (Vec<UpdateEvent>, Vec<Cause>) {
    let mut out = Vec::with_capacity(log.len());
    let mut causes = Vec::with_capacity(log.len());
    for entry in log {
        if let iri_bgp::message::Message::Update(u) = &entry.message {
            let peer = PeerKey {
                asn: entry.peer_asn,
                addr: entry.peer_addr,
            };
            out.extend(iri_core::input::events_from_update(entry.time_ms, peer, u));
            causes.resize(out.len(), entry.cause);
        }
    }
    (out, causes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logged_to_events_skips_keepalives() {
        use iri_bgp::message::{Message, Update};
        use iri_bgp::types::Asn;
        use std::net::Ipv4Addr;
        let log = vec![
            LoggedUpdate {
                time_ms: 5,
                peer_asn: Asn(701),
                peer_addr: Ipv4Addr::new(1, 1, 1, 1),
                message: Message::Keepalive,
                cause: Cause::Unknown,
            },
            LoggedUpdate {
                time_ms: 6,
                peer_asn: Asn(701),
                peer_addr: Ipv4Addr::new(1, 1, 1, 1),
                message: Message::Update(Update::withdraw(["10.0.0.0/8".parse().unwrap()])),
                cause: Cause::LinkFlap,
            },
        ];
        let (events, causes) = logged_to_events_with_causes(&log);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].time_ms, 6);
        assert_eq!(causes, vec![Cause::LinkFlap]);
    }
}
