//! Scenario driver: one simulated calendar day at one exchange point.
//!
//! This is the bridge between the workload model and the packet-level
//! simulator. For a given [`crate::asgraph::AsGraph`] and day index it
//! builds an `iri-netsim` world (route server + provider border routers,
//! customer prefixes originated with customer-AS paths) and injects the
//! day's exogenous events drawn from the [`crate::events::UsageModel`].
//! Running and classifying the built world is `iri_scenario::drive_day`.
//!
//! Event taxonomy injected (mapping to the paper's update classes as seen
//! at the monitored route server):
//!
//! | injected event | primary visible class |
//! |---|---|
//! | withdraw + re-announce (link flap)      | WADup (+ WWDup echoes from stateless peers) |
//! | withdraw + backup path + revert         | WADiff, AADiff |
//! | path switch (backup → direct)           | AADiff |
//! | MED oscillation burst at 30 s (IGP/BGP) | AADup (policy fluctuation) |
//! | day-long CSU oscillators                | periodic WADup/AADup + WWDup echoes |
//! | maintenance batch (10:00 weekdays)      | WADup bursts |
//! | upgrade-incident session flaps          | mass withdrawals + state dumps |
//!
//! Each day runs `warmup_minutes` of settling time before the measured
//! 24 hours; analysis keeps only the events after it.

use crate::asgraph::AsGraph;
use crate::events::{Calendar, UsageModel};
use iri_bgp::attrs::{Origin, PathAttributes};
use iri_bgp::path::AsPath;
use iri_bgp::types::Asn;
use iri_netsim::engine::{MINUTE, SECOND};
use iri_netsim::router::RouterId;
use iri_netsim::world::World;
use iri_netsim::{build_exchange, CsuFault, ExchangePoint, RouterConfig, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Scenario parameters.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Master seed (combined with the day index per run).
    pub seed: u64,
    /// Which exchange the monitor sits at.
    pub exchange: ExchangePoint,
    /// Calendar/usage model.
    pub usage: UsageModel,
    /// Mean injected instability events per 10-minute slot at intensity 1.
    pub base_events_per_slot: f64,
    /// Fraction of events that are MED-oscillation (policy) bursts.
    pub policy_burst_fraction: f64,
    /// Fraction of events that are withdraw→backup→revert sequences.
    pub path_switch_fraction: f64,
    /// Fraction of events that are IGP-driven path oscillations: the
    /// §4.2 IGP/BGP conjecture surfacing as AADiff bursts at 30-second
    /// spacing through well-behaved borders.
    pub igp_oscillation_fraction: f64,
    /// Short-window CSU oscillators per reference day (10–45 min active
    /// windows) — the bulk of the duplicate volume, kept under ~50 events
    /// per Prefix+AS pair per day as in Figure 7.
    pub oscillator_count: usize,
    /// Long-window oscillators (3–8 h) — the Figure 7 heavy tail (the
    /// paper's August 11 pairs with 630–650 announcements).
    pub long_oscillator_count: usize,
    /// Settling time before the measured day.
    pub warmup_minutes: u32,
    /// Enable inbound route-flap damping on all providers.
    pub damping: bool,
    /// Optional pathological incident (the Table 1 "ISP-I" shape): this
    /// many window-crossing oscillators concentrated behind one provider,
    /// blasting withdrawals all day through its stateless implementation.
    pub incident: Option<IncidentSpec>,
}

/// A concentrated pathological routing incident.
#[derive(Debug, Clone, Copy)]
pub struct IncidentSpec {
    /// Index of the afflicted provider (must run the pathological profile
    /// for the full effect).
    pub provider: usize,
    /// Number of customer prefixes oscillating behind it.
    pub prefixes: usize,
}

impl ScenarioConfig {
    /// Defaults scaled to a graph of `prefix_count` prefixes.
    #[must_use]
    pub fn default_for(prefix_count: usize) -> Self {
        ScenarioConfig {
            seed: 0x6d61_655f,
            exchange: ExchangePoint::MaeEast,
            usage: UsageModel::default(),
            base_events_per_slot: (prefix_count as f64 * 0.006).max(2.0),
            policy_burst_fraction: 0.15,
            path_switch_fraction: 0.2,
            igp_oscillation_fraction: 0.15,
            oscillator_count: (prefix_count / 6).max(4),
            long_oscillator_count: (prefix_count / 150).max(1),
            warmup_minutes: 30,
            damping: false,
            incident: None,
        }
    }
}

/// Samples a Poisson variate (Knuth for small λ, normal approximation for
/// large λ) — used for per-slot event counts.
pub fn poisson(rng: &mut StdRng, lambda: f64) -> u32 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        let l = (-lambda).exp();
        let mut k = 0u32;
        let mut p = 1.0;
        loop {
            p *= rng.random_range(0.0..1.0f64);
            if p <= l {
                return k;
            }
            k += 1;
            if k > 10_000 {
                return k; // numerically impossible guard
            }
        }
    } else {
        // Normal approximation with continuity.
        let u1: f64 = rng.random_range(f64::EPSILON..1.0);
        let u2: f64 = rng.random_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (lambda + lambda.sqrt() * z).round().max(0.0) as u32
    }
}

/// Customer-AS origination attributes (the provider prepends itself on
/// export, so the monitor sees `[provider, customer]`).
fn customer_attrs(customer: Asn, provider_addr: std::net::Ipv4Addr) -> PathAttributes {
    PathAttributes::new(
        Origin::Igp,
        AsPath::from_sequence([customer]),
        provider_addr,
    )
}

/// Builds the world for `day`, wiring the exchange, originating the day's
/// customer prefixes, and injecting the day's events. Returns (world,
/// route-server id, provider ids).
pub fn build_day_world(
    cfg: &ScenarioConfig,
    graph: &AsGraph,
    day: u32,
) -> (World, RouterId, Vec<RouterId>) {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ (u64::from(day) << 32) ^ 0x9e37_79b9);
    let mut world = World::new(cfg.seed.wrapping_add(u64::from(day)));
    let base = u32::from(cfg.exchange.lan_base());

    // Providers from the graph.
    let provider_cfgs: Vec<RouterConfig> = graph
        .providers
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let addr = std::net::Ipv4Addr::from(base + 1 + i as u32);
            let mut rc = if p.pathological {
                RouterConfig::pathological(&p.name, p.asn, addr)
            } else {
                RouterConfig::well_behaved(&p.name, p.asn, addr)
            };
            if cfg.damping {
                rc.damping = Some(iri_rib::damping::DampingConfig::default());
            }
            if cfg.incident.is_some_and(|inc| inc.provider == i) {
                // The afflicted box also runs the withdrawal-storm bug:
                // every ~8 minutes it re-blasts withdrawals for everything
                // it believes unreachable.
                rc.withdrawal_storm = Some(16);
            }
            rc
        })
        .collect();
    let ex = build_exchange(&mut world, cfg.exchange, provider_cfgs);
    let warmup = SimTime::from(cfg.warmup_minutes) * MINUTE;

    // Customer prefix originations, spread over the first third of warmup.
    for c in &graph.customers {
        for (pi, &prov_idx) in c.providers_on_day(day).iter().enumerate() {
            let router = ex.providers[prov_idx];
            let addr = graph.providers[prov_idx].asn;
            let _ = addr;
            let provider_addr = std::net::Ipv4Addr::from(base + 1 + prov_idx as u32);
            let mut attrs = customer_attrs(c.asn, provider_addr);
            // Secondary paths carry a slightly longer path (the customer
            // prepends toward its backup) so the decision process prefers
            // the primary deterministically.
            if pi == 1 {
                attrs.as_path.prepend(c.asn);
            }
            for &prefix in &c.prefixes {
                let at = rng.random_range(0..warmup / 3);
                world.schedule_originate_with(at, router, prefix, attrs.clone());
            }
        }
    }

    // CSU oscillators on sampled customer tails, weighted toward
    // pathological providers (the paper's observed vendor correlation).
    // Each oscillator is active for a window of a few hours whose start is
    // drawn from the usage curve: congestion-triggered circuit trouble
    // follows traffic, which is how aggregate instability inherits the
    // diurnal and weekly cycles of Figures 3–5.
    let max_intensity = (0..1440)
        .step_by(10)
        .map(|m| cfg.usage.intensity(day, m))
        .fold(0.0f64, f64::max)
        .max(1e-9);
    // Oscillator population follows the day's overall usage level (weekend
    // dip, linear growth, incident boost), which is how the duplicate
    // volume inherits the calendar.
    let mean_intensity = (0..1440)
        .step_by(10)
        .map(|m| cfg.usage.intensity(day, m))
        .sum::<f64>()
        / 144.0;
    let day_factor = (mean_intensity / 0.65).clamp(0.2, 8.0);
    let short_target = ((cfg.oscillator_count as f64) * day_factor).round() as usize;
    let long_target = ((cfg.long_oscillator_count as f64) * day_factor).ceil() as usize;
    let mut placed = 0usize;
    let mut guard = 0usize;
    while placed < short_target + long_target && guard < (short_target + long_target) * 200 {
        guard += 1;
        let long_window = placed >= short_target;
        let prov = rng.random_range(0..graph.providers.len());
        if !graph.providers[prov].pathological && rng.random_bool(0.7) {
            continue; // bias oscillators toward the pathological vendor
        }
        let candidates: Vec<&crate::asgraph::CustomerSpec> = graph
            .customers
            .iter()
            .filter(|c| c.primary == prov)
            .collect();
        if candidates.is_empty() {
            continue;
        }
        let c = candidates[rng.random_range(0..candidates.len())];
        // Usage-weighted start minute (rejection sampling).
        let start_minute = loop {
            let m = rng.random_range(0..1440u32);
            if rng.random_bool((cfg.usage.intensity(day, m) / max_intensity).clamp(0.0, 1.0)) {
                break m;
            }
        };
        let duration_min = if long_window {
            rng.random_range(180..480u64)
        } else {
            rng.random_range(8..25u64)
        };
        let start_ms = warmup + SimTime::from(start_minute) * MINUTE;
        let stop_ms = start_ms + duration_min * MINUTE;
        let prefix = c.prefixes[rng.random_range(0..c.prefixes.len())];
        // Two oscillator shapes, matching the two pathological signatures:
        // a sub-window carrier blip (squashed by the 30 s timer into pure
        // duplicate announcements → AADup) and a window-crossing outage
        // (explicit W one window, A the next → WADup, with blind-withdrawal
        // WWDup echoes from every stateless peer).
        let beat = if rng.random_bool(0.55) {
            if rng.random_bool(0.7) {
                CsuFault::beat_30s(start_ms + rng.random_range(0..30_000))
            } else {
                CsuFault::beat_60s(start_ms + rng.random_range(0..60_000))
            }
        } else {
            // 25 s up / 35 s down: a 60 s beat whose W and A land in
            // different timer windows.
            CsuFault {
                up_ms: 25_000,
                down_ms: 35_000,
                phase_ms: start_ms + rng.random_range(0..60_000),
            }
        };
        let link = world.add_access_link(ex.providers[prov], vec![prefix], Some(beat));
        world.schedule_csu_stop(stop_ms, link);
        placed += 1;
    }

    // Concentrated incident: a misbehaving provider's customer tails all
    // oscillate with window-crossing outages — its stateless border router
    // converts them into an all-day withdrawal storm (Table 1's ISP-I).
    if let Some(inc) = cfg.incident {
        let prov = inc.provider.min(graph.providers.len() - 1);
        let mut placed = 0usize;
        'outer: for c in graph.customers.iter().filter(|c| c.primary == prov) {
            for &prefix in &c.prefixes {
                if placed >= inc.prefixes {
                    break 'outer;
                }
                let beat = CsuFault {
                    up_ms: 25_000,
                    down_ms: 35_000,
                    phase_ms: warmup + rng.random_range(0..60_000),
                };
                world.add_access_link(ex.providers[prov], vec![prefix], Some(beat));
                placed += 1;
            }
        }
    }

    // Per-slot instability events over the measured day. Event targets are
    // drawn provider-first (weighted only by the size-independent
    // instability factor), then customer-within-provider: "instability is
    // well-distributed over … origin autonomous system space" — explicitly
    // NOT proportional to routing-table share (Figure 6).
    let by_provider: Vec<Vec<usize>> = {
        let mut v = vec![Vec::new(); graph.providers.len()];
        for (ci, c) in graph.customers.iter().enumerate() {
            v[c.primary].push(ci);
        }
        v
    };
    for slot in 0..144u32 {
        let minute = slot * 10;
        let lambda = cfg.base_events_per_slot * cfg.usage.intensity(day, minute);
        let n = poisson(&mut rng, lambda);
        for _ in 0..n {
            let at = warmup + SimTime::from(minute) * MINUTE + rng.random_range(0..10 * MINUTE);
            inject_event(
                cfg,
                graph,
                &by_provider,
                &ex.providers,
                &mut world,
                &mut rng,
                base,
                at,
            );
        }
    }

    // Weekday 10:00 maintenance batch: one provider bounces a slice of its
    // customers.
    if !Calendar::weekday(day).is_weekend() {
        let prov_idx = rng.random_range(0..graph.providers.len());
        let at0 = warmup + 600 * MINUTE + rng.random_range(0..5 * MINUTE);
        let provider_addr = std::net::Ipv4Addr::from(base + 1 + prov_idx as u32);
        let mut batched = 0;
        for c in graph.customers.iter().filter(|c| c.primary == prov_idx) {
            if batched >= 12 {
                break;
            }
            for &prefix in &c.prefixes {
                let at = at0 + rng.random_range(0..3 * MINUTE);
                world.schedule_withdraw(at, ex.providers[prov_idx], prefix);
                let attrs = customer_attrs(c.asn, provider_addr);
                world.schedule_originate_with(
                    at + rng.random_range(30..120) * SECOND,
                    ex.providers[prov_idx],
                    prefix,
                    attrs,
                );
                batched += 1;
            }
        }
    }

    // Upgrade-incident days: the largest provider's exchange link flaps all
    // day (mass session resets and state dumps), and the upgrade work
    // itself bounces its customers' circuits repeatedly — the real
    // topological turmoil behind the paper's bold May/June stripes.
    if Calendar::is_upgrade_incident(day) {
        let link = world
            .router(ex.providers[0])
            .peer_link(ex.route_server)
            .expect("provider 0 peers with RS");
        for k in 0..10u64 {
            let at = warmup + k * 140 * MINUTE + rng.random_range(0..20 * MINUTE);
            world.schedule_link_flap(at, link, 2 * MINUTE);
        }
        let provider_addr = std::net::Ipv4Addr::from(base + 1);
        for c in graph.customers.iter().filter(|c| c.primary == 0) {
            for &prefix in &c.prefixes {
                for _ in 0..3 {
                    let at = warmup + rng.random_range(0..24 * 60) as SimTime * MINUTE;
                    world.schedule_withdraw(at, ex.providers[0], prefix);
                    world.schedule_originate_with(
                        at + rng.random_range(45..240) * SECOND,
                        ex.providers[0],
                        prefix,
                        customer_attrs(c.asn, provider_addr),
                    );
                }
            }
        }
    }

    // Saturday spike: a concentrated burst in the early afternoon.
    if UsageModel::saturday_spike(day) {
        let prov_idx = rng.random_range(0..graph.providers.len());
        let provider_addr = std::net::Ipv4Addr::from(base + 1 + prov_idx as u32);
        let at0 = warmup + 780 * MINUTE;
        for c in graph
            .customers
            .iter()
            .filter(|c| c.primary == prov_idx)
            .take(20)
        {
            for &prefix in &c.prefixes {
                for burst in 0..4u64 {
                    let at = at0 + burst * 5 * MINUTE + rng.random_range(0..MINUTE);
                    world.schedule_withdraw(at, ex.providers[prov_idx], prefix);
                    world.schedule_originate_with(
                        at + 45 * SECOND,
                        ex.providers[prov_idx],
                        prefix,
                        customer_attrs(c.asn, provider_addr),
                    );
                }
            }
        }
    }

    (world, ex.route_server, ex.providers)
}

/// Injects one sampled instability event.
#[allow(clippy::too_many_arguments)]
fn inject_event(
    cfg: &ScenarioConfig,
    graph: &AsGraph,
    by_provider: &[Vec<usize>],
    providers: &[RouterId],
    world: &mut World,
    rng: &mut StdRng,
    base: u32,
    at: SimTime,
) {
    let roll: f64 = rng.random_range(0.0..1.0);
    let want_stateful_origin =
        roll < cfg.policy_burst_fraction + cfg.path_switch_fraction + cfg.igp_oscillation_fraction;
    // Provider first, uniformly weighted by the size-independent
    // instability factor; then a customer of that provider by flakiness.
    // Policy-burst (AADup) and path-switch (AADiff) events are steered
    // toward stateful providers: the stateless implementation converts
    // implicit changes into explicit withdraw+announce pairs, obscuring
    // them into WADup/WADiff — only well-behaved vendors let them through.
    let c = loop {
        let prov = rng.random_range(0..graph.providers.len());
        if by_provider[prov].is_empty() {
            continue;
        }
        if want_stateful_origin && graph.providers[prov].pathological && rng.random_bool(0.8) {
            continue;
        }
        let accept = (graph.providers[prov].instability_factor / 4.0).clamp(0.05, 1.0);
        if !rng.random_bool(accept) {
            continue;
        }
        let c = &graph.customers[by_provider[prov][rng.random_range(0..by_provider[prov].len())]];
        let accept = (c.flakiness / std::f64::consts::E).clamp(0.05, 1.0);
        if rng.random_bool(accept) {
            break c;
        }
    };
    let prefix = c.prefixes[rng.random_range(0..c.prefixes.len())];
    let prov_idx = c.primary;
    let router = providers[prov_idx];
    let provider_addr = std::net::Ipv4Addr::from(base + 1 + prov_idx as u32);
    let direct = customer_attrs(c.asn, provider_addr);
    let mut backup = direct.clone();
    backup.as_path = AsPath::from_sequence([Asn(9000 + prov_idx as u32), c.asn]);

    if roll < cfg.policy_burst_fraction {
        // MED-oscillation burst at 30 s spacing: the IGP/BGP interaction
        // conjecture. Same forwarding tuple, alternating MED → AADup.
        let k: u64 = rng.random_range(3..9);
        for i in 0..k {
            let mut attrs = direct.clone();
            attrs.med = Some(if i % 2 == 0 { 10 } else { 20 });
            world.schedule_originate_with(at + i * 30 * SECOND, router, prefix, attrs);
        }
        // Settle back to the canonical announcement.
        world.schedule_originate_with(at + k * 30 * SECOND, router, prefix, direct);
    } else if roll < cfg.policy_burst_fraction + cfg.igp_oscillation_fraction {
        // IGP-driven path oscillation (the §4.2 conjecture): the border's
        // IGP alternates between two internal paths on its 30-second
        // timers, so BGP sees alternating backup/direct announcements at
        // 30-second spacing — AADiff with the grid signature, through
        // well-behaved borders.
        let k: u64 = rng.random_range(4..12);
        for i in 0..k {
            let attrs = if i % 2 == 0 {
                backup.clone()
            } else {
                direct.clone()
            };
            world.schedule_originate_with(at + i * 30 * SECOND, router, prefix, attrs);
        }
        world.schedule_originate_with(at + k * 30 * SECOND, router, prefix, direct);
    } else if roll
        < cfg.policy_burst_fraction + cfg.igp_oscillation_fraction + cfg.path_switch_fraction
    {
        // Failover is IGP-paced: the backup path appears on the next
        // 30-second interior advertisement after the failure.
        let d1 = rng.random_range(1..4u64) * 30 * SECOND + rng.random_range(0..2 * SECOND);
        let d2 = rng.random_range(60..600) * SECOND;
        if rng.random_bool(0.6) {
            // Pure path switch (internal reroute): backup then revert —
            // two implicit replacements → AADiff, AADiff.
            world.schedule_originate_with(at, router, prefix, backup);
            world.schedule_originate_with(at + d2, router, prefix, direct);
        } else {
            // Withdraw → backup path → revert: WADiff then AADiff.
            world.schedule_withdraw(at, router, prefix);
            world.schedule_originate_with(at + d1, router, prefix, backup);
            world.schedule_originate_with(at + d1 + d2, router, prefix, direct);
        }
    } else {
        // Plain flap: withdraw then identical re-announcement → WADup.
        let down = rng.random_range(10..240) * SECOND;
        world.schedule_withdraw(at, router, prefix);
        world.schedule_originate_with(at + down, router, prefix, direct);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_mean_is_close() {
        let mut rng = StdRng::seed_from_u64(5);
        for lambda in [0.5, 3.0, 12.0, 80.0] {
            let n = 3000;
            let total: u64 = (0..n).map(|_| u64::from(poisson(&mut rng, lambda))).sum();
            let mean = total as f64 / n as f64;
            assert!(
                (mean - lambda).abs() < lambda.max(1.0) * 0.15,
                "λ={lambda} mean={mean}"
            );
        }
        assert_eq!(poisson(&mut rng, 0.0), 0);
        assert_eq!(poisson(&mut rng, -3.0), 0);
    }
}
