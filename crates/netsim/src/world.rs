//! The world: routers, links, monitors and the event loop that binds them.
//!
//! A [`World`] is a deterministic function of (construction calls, seed):
//! the same scenario replayed with the same seed produces the identical
//! event sequence, message for message — a property the reproducibility
//! integration tests assert.
//!
//! # Observability
//!
//! The world owns the run's [`Tracer`] and [`Registry`] (both disabled
//! until [`World::enable_obs`] is called, costing a single branch per
//! would-be event). Every trace event is stamped with [`SimTime`] — never
//! wall clock — so traces from the same seed are byte-identical across
//! runs and machines. Causal provenance flows the other way: scenario
//! drivers stamp a [`Cause`] on each injected event, routers thread it
//! through their pending-change windows, and the [`Monitor`] logs it next
//! to every captured UPDATE.

use crate::engine::{EventQueue, SimTime};
use crate::link::{CsuFault, Link, LinkId};
use crate::monitor::Monitor;
use crate::router::{Effect, Router, RouterConfig, RouterId, TimerKind};
use crate::spill::{SpillConfig, SpillState, SpillStats};
use iri_bgp::message::Message;
use iri_bgp::types::Prefix;
use iri_mrt::PeerState;
use iri_obs::{Cause, CounterId, GaugeId, HistogramId, Registry, TraceKind, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// Events the world processes.
#[derive(Debug)]
enum Ev {
    /// Message arrival at `to`.
    Deliver {
        link: LinkId,
        epoch: u64,
        from: RouterId,
        to: RouterId,
        msg: Message,
        cause: Cause,
    },
    /// Session timer expiry.
    Timer {
        router: RouterId,
        peer: RouterId,
        kind: TimerKind,
        generation: u64,
    },
    /// Transport (TCP) established toward `peer`.
    TransportUp {
        router: RouterId,
        peer: RouterId,
        link: LinkId,
        epoch: u64,
    },
    /// Transport lost toward `peer`. `cause` names the root mechanism that
    /// killed the connection (link flap, CSU oscillation, peer crash…).
    TransportDown {
        router: RouterId,
        peer: RouterId,
        cause: Cause,
    },
    /// Carrier loss (injected outage; pairs with a scheduled LinkUp).
    LinkDown(LinkId),
    /// Carrier restored.
    LinkUp(LinkId),
    /// CSU-driven carrier loss (self-rescheduling while the fault is
    /// attached).
    CsuDown(LinkId),
    /// Detach a link's CSU fault (the circuit got fixed).
    CsuStop(LinkId),
    /// Reboot complete.
    RouterRecover(RouterId),
    /// Operator-injected crash (fault injection).
    CrashNow(RouterId),
    /// Locally originate a prefix.
    Originate {
        router: RouterId,
        prefix: Prefix,
        cause: Cause,
    },
    /// Locally originate a prefix with explicit attributes (customer-AS
    /// origination through a provider border router).
    OriginateWith {
        router: RouterId,
        prefix: Prefix,
        attrs: Box<iri_bgp::attrs::PathAttributes>,
        cause: Cause,
    },
    /// Withdraw a locally originated prefix.
    WithdrawOrigin {
        router: RouterId,
        prefix: Prefix,
        cause: Cause,
    },
}

/// Aggregate world statistics.
#[derive(Debug, Default, Clone)]
pub struct WorldStats {
    /// Messages delivered to routers.
    pub delivered: u64,
    /// Messages dropped because their link (or its TCP epoch) died in
    /// flight.
    pub dropped_in_flight: u64,
    /// Messages dropped at send time because the link was down.
    pub dropped_at_send: u64,
}

/// Pre-registered metric ids — resolved once at construction so the hot
/// path never does a name lookup.
struct ObsIds {
    delivered: CounterId,
    dropped_in_flight: CounterId,
    dropped_at_send: CounterId,
    timer_fires: CounterId,
    link_transitions: CounterId,
    crashes: CounterId,
    tx_delay_ms: HistogramId,
    queue_high_water: GaugeId,
}

impl ObsIds {
    fn register(registry: &mut Registry) -> Self {
        ObsIds {
            delivered: registry.counter("world.delivered"),
            dropped_in_flight: registry.counter("world.dropped_in_flight"),
            dropped_at_send: registry.counter("world.dropped_at_send"),
            timer_fires: registry.counter("world.timer_fires"),
            link_transitions: registry.counter("world.link_transitions"),
            crashes: registry.counter("world.crashes"),
            tx_delay_ms: registry.histogram("world.tx_delay_ms"),
            queue_high_water: registry.gauge("world.queue_high_water"),
        }
    }
}

/// The simulation world.
///
/// ```
/// use iri_netsim::{RouterConfig, World, MINUTE, SECOND};
/// use iri_bgp::types::{Asn, Prefix};
/// use std::net::Ipv4Addr;
///
/// let mut world = World::new(7);
/// let a = world.add_router(RouterConfig::well_behaved("A", Asn(1), Ipv4Addr::new(10, 0, 0, 1)));
/// let b = world.add_router(RouterConfig::well_behaved("B", Asn(2), Ipv4Addr::new(10, 0, 0, 2)));
/// world.connect(a, b, 5);
/// let prefix: Prefix = "192.0.2.0/24".parse().unwrap();
/// world.schedule_originate(10 * SECOND, a, prefix);
/// world.start();
/// world.run_until(2 * MINUTE);
/// assert!(world.router(b).loc_rib().best(prefix).is_some());
/// ```
pub struct World {
    queue: EventQueue<Ev>,
    routers: Vec<Router>,
    links: Vec<Link>,
    /// Access (customer tail-circuit) links: when they flap, the attached
    /// router's originated prefixes flap with them.
    access: HashMap<LinkId, (RouterId, Vec<Prefix>)>,
    monitors: HashMap<u32, Monitor>,
    rng: StdRng,
    tracer: Tracer,
    registry: Registry,
    obs: ObsIds,
    /// RIB residency control; `None` = everything stays in memory.
    spill: Option<Box<SpillState>>,
    /// The one effect buffer: every router entry point appends to it and
    /// [`World::apply_effects`] drains it, so it keeps its capacity for the
    /// whole run.
    effects: Vec<Effect>,
    /// Aggregate statistics.
    pub stats: WorldStats,
}

impl World {
    /// New empty world with a seed governing all randomness. Observability
    /// starts disabled; see [`World::enable_obs`].
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut registry = Registry::disabled();
        let obs = ObsIds::register(&mut registry);
        World {
            queue: EventQueue::new(),
            routers: Vec::new(),
            links: Vec::new(),
            access: HashMap::new(),
            monitors: HashMap::new(),
            rng: StdRng::seed_from_u64(seed),
            tracer: Tracer::disabled(),
            registry,
            obs,
            spill: None,
            effects: Vec::new(),
            stats: WorldStats::default(),
        }
    }

    /// Turns on the metrics registry and installs a tracing ring buffer of
    /// `trace_capacity` events. Call before [`World::start`]; tracing mid-run
    /// works but misses earlier events.
    pub fn enable_obs(&mut self, trace_capacity: usize) {
        self.registry.set_enabled(true);
        self.tracer = Tracer::new(trace_capacity);
    }

    /// Read access to the trace ring buffer.
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Read access to the metrics registry.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Mutable registry access (for scenario drivers that fold in their own
    /// metrics, e.g. [`Router::export_damping`]).
    pub fn registry_mut(&mut self) -> &mut Registry {
        &mut self.registry
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Events processed so far.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.queue.processed()
    }

    /// Adds a router.
    pub fn add_router(&mut self, cfg: RouterConfig) -> RouterId {
        let id = RouterId(self.routers.len() as u32);
        self.routers.push(Router::new(id, cfg));
        id
    }

    /// Immutable router access.
    #[must_use]
    pub fn router(&self, id: RouterId) -> &Router {
        &self.routers[id.0 as usize]
    }

    /// Mutable router access (configuration-time only).
    pub fn router_mut(&mut self, id: RouterId) -> &mut Router {
        &mut self.routers[id.0 as usize]
    }

    /// All routers.
    #[must_use]
    pub fn routers(&self) -> &[Router] {
        &self.routers
    }

    /// Immutable link access.
    #[must_use]
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    /// Connects two routers with a bidirectional peering session.
    pub fn connect(&mut self, a: RouterId, b: RouterId, latency_ms: SimTime) -> LinkId {
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link::new(id, a.0, b.0, latency_ms));
        let (a_asn, a_addr, a_is_rs) = {
            let r = self.router(a);
            (
                r.cfg.asn,
                r.cfg.addr,
                r.cfg.role == crate::router::Role::RouteServer,
            )
        };
        let (b_asn, b_addr, b_is_rs) = {
            let r = self.router(b);
            (
                r.cfg.asn,
                r.cfg.addr,
                r.cfg.role == crate::router::Role::RouteServer,
            )
        };
        self.routers[a.0 as usize].add_peer(b, id, b_asn, b_addr, b_is_rs);
        self.routers[b.0 as usize].add_peer(a, id, a_asn, a_addr, a_is_rs);
        id
    }

    /// Creates a customer access link hanging off `router`: when the link
    /// flaps, `prefixes` are withdrawn/re-originated by the router. Used to
    /// model CSU-afflicted leased lines to customers.
    pub fn add_access_link(
        &mut self,
        router: RouterId,
        prefixes: Vec<Prefix>,
        csu: Option<CsuFault>,
    ) -> LinkId {
        let id = LinkId(self.links.len() as u32);
        let mut link = Link::new(id, router.0, router.0, 0);
        if let Some(f) = csu {
            link = link.with_csu(f);
        }
        self.links.push(link);
        self.access.insert(id, (router, prefixes));
        id
    }

    /// Attaches a monitor tap to a router (typically a route server).
    pub fn attach_monitor(&mut self, router: RouterId) {
        self.monitors.insert(router.0, Monitor::new(router));
    }

    /// Read access to a monitor.
    #[must_use]
    pub fn monitor(&self, router: RouterId) -> Option<&Monitor> {
        self.monitors.get(&router.0)
    }

    /// Mutable access to a monitor (e.g. to set
    /// [`Monitor::log_all_messages`]).
    pub fn monitor_mut(&mut self, router: RouterId) -> Option<&mut Monitor> {
        self.monitors.get_mut(&router.0)
    }

    /// Takes a monitor out of the world (for analysis after a run).
    pub fn take_monitor(&mut self, router: RouterId) -> Option<Monitor> {
        self.monitors.remove(&router.0)
    }

    /// Number of events currently scheduled (diagnostics: lets callers
    /// verify injection volume without running the world).
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Dumps `router`'s current Loc-RIB as MRT TABLE_DUMP records — the
    /// "routing table snapshots" the paper cross-checked its update logs
    /// against. `base_unix_time` anchors simulated time 0.
    #[must_use]
    pub fn table_dump(&self, router: RouterId, base_unix_time: u32) -> Vec<iri_mrt::MrtRecord> {
        let r = self.router(router);
        let timestamp = base_unix_time + (self.now() / 1000) as u32;
        r.loc_rib()
            .iter_best()
            .enumerate()
            .map(|(seq, (prefix, best))| {
                iri_mrt::MrtRecord::TableDump(iri_mrt::TableDumpEntry {
                    timestamp,
                    view: 0,
                    sequence: seq as u16,
                    prefix,
                    originated: timestamp,
                    peer_ip: best.peer_addr,
                    peer_asn: best.peer_asn,
                    attrs: best.attrs.clone(),
                })
            })
            .collect()
    }

    /// Starts every session and arms CSU schedules. Call once after wiring.
    pub fn start(&mut self) {
        // CSU faults schedule their first carrier loss.
        for link in &self.links {
            if let Some(csu) = link.csu {
                let at = csu.next_down(0);
                self.queue.schedule_at(at, Ev::CsuDown(link.id));
            }
        }
        // Access-link prefixes are originated at t=0.
        let access: Vec<(RouterId, Vec<Prefix>)> = self.access.values().cloned().collect();
        for (router, prefixes) in access {
            for prefix in prefixes {
                self.queue.schedule_at(
                    0,
                    Ev::Originate {
                        router,
                        prefix,
                        cause: Cause::Origination,
                    },
                );
            }
        }
        for i in 0..self.routers.len() {
            self.routers[i].start_sessions(self.queue.now(), &mut self.rng, &mut self.effects);
            self.apply_effects(RouterId(i as u32));
        }
    }

    // ------------------------------------------------------------------
    // External scheduling API (scenario drivers)
    // ------------------------------------------------------------------

    /// Schedules a local origination at `at`.
    pub fn schedule_originate(&mut self, at: SimTime, router: RouterId, prefix: Prefix) {
        self.queue.schedule_at(
            at,
            Ev::Originate {
                router,
                prefix,
                cause: Cause::Origination,
            },
        );
    }

    /// Schedules a local origination with explicit attributes (e.g. a
    /// customer AS path or a changed MED for policy-fluctuation
    /// experiments).
    pub fn schedule_originate_with(
        &mut self,
        at: SimTime,
        router: RouterId,
        prefix: Prefix,
        attrs: iri_bgp::attrs::PathAttributes,
    ) {
        self.queue.schedule_at(
            at,
            Ev::OriginateWith {
                router,
                prefix,
                attrs: Box::new(attrs),
                cause: Cause::Origination,
            },
        );
    }

    /// Schedules a local withdrawal at `at`.
    pub fn schedule_withdraw(&mut self, at: SimTime, router: RouterId, prefix: Prefix) {
        self.queue.schedule_at(
            at,
            Ev::WithdrawOrigin {
                router,
                prefix,
                cause: Cause::Withdrawal,
            },
        );
    }

    /// Schedules a route flap: withdrawal at `at`, re-announcement after
    /// `down_for` — the WADup generator.
    pub fn schedule_flap(
        &mut self,
        at: SimTime,
        router: RouterId,
        prefix: Prefix,
        down_for: SimTime,
    ) {
        self.schedule_withdraw(at, router, prefix);
        self.schedule_originate(at + down_for, router, prefix);
    }

    /// Schedules a link outage window.
    pub fn schedule_link_flap(&mut self, at: SimTime, link: LinkId, down_for: SimTime) {
        self.queue.schedule_at(at, Ev::LinkDown(link));
        self.queue.schedule_at(at + down_for, Ev::LinkUp(link));
    }

    /// Schedules the repair of a CSU-afflicted circuit: the fault detaches
    /// and the link stays up from then on.
    pub fn schedule_csu_stop(&mut self, at: SimTime, link: LinkId) {
        self.queue.schedule_at(at, Ev::CsuStop(link));
    }

    /// Schedules a router crash (operator-injected fault).
    pub fn schedule_crash(&mut self, at: SimTime, router: RouterId) {
        self.queue.schedule_at(at, Ev::CrashNow(router));
    }

    // ------------------------------------------------------------------
    // Run loop
    // ------------------------------------------------------------------

    /// Runs until simulated time `t` (inclusive of events at `t`).
    pub fn run_until(&mut self, t: SimTime) {
        while let Some((now, ev)) = self.queue.pop_until(t) {
            if self.spill.is_some() {
                let touched = Self::routers_touched(&ev, &self.links);
                let mut keep = [RouterId(0); 2];
                let mut kept = 0;
                for r in touched.iter().flatten() {
                    self.make_resident(*r);
                    keep[kept] = *r;
                    kept += 1;
                }
                self.enforce_working_set(&keep[..kept]);
            }
            self.dispatch(now, ev);
        }
        self.queue.advance_clock(t);
        let high_water = self.queue.high_water() as i64;
        self.registry.raise(self.obs.queue_high_water, high_water);
    }

    // ------------------------------------------------------------------
    // RIB residency (spill/restore)
    // ------------------------------------------------------------------

    /// Enables bounded-memory RIB residency: beyond `cfg.working_set`
    /// routers (plus every monitored router, which is pinned), the
    /// least-recently-touched router's bulk tables spill to
    /// `cfg.dir` through `cfg.fs` and restore on the next event that
    /// touches them. Call after wiring and [`World::attach_monitor`],
    /// before running. Restores are exact, so the event sequence is
    /// unchanged by spilling.
    pub fn enable_rib_spill(&mut self, cfg: SpillConfig) {
        let pinned: Vec<u32> = self.monitors.keys().copied().collect();
        self.spill = Some(Box::new(SpillState::new(cfg, pinned)));
    }

    /// Spill-activity counters, when residency control is enabled.
    #[must_use]
    pub fn spill_stats(&self) -> Option<&SpillStats> {
        self.spill.as_deref().map(|s| &s.stats)
    }

    /// Restores `router`'s tables if spilled (for out-of-band readers:
    /// censuses, table dumps). Counts as a touch.
    pub fn ensure_resident(&mut self, router: RouterId) {
        self.make_resident(router);
        self.enforce_working_set(&[router]);
    }

    /// Which routers an event mutates — the set that must be resident
    /// before dispatch. Link-scoped events resolve to both endpoints
    /// (identical for access links).
    fn routers_touched(ev: &Ev, links: &[Link]) -> [Option<RouterId>; 2] {
        match ev {
            Ev::Deliver { to, .. } => [Some(*to), None],
            Ev::Timer { router, .. }
            | Ev::TransportUp { router, .. }
            | Ev::TransportDown { router, .. }
            | Ev::Originate { router, .. }
            | Ev::OriginateWith { router, .. }
            | Ev::WithdrawOrigin { router, .. } => [Some(*router), None],
            Ev::RouterRecover(r) | Ev::CrashNow(r) => [Some(*r), None],
            Ev::LinkDown(l) | Ev::LinkUp(l) | Ev::CsuDown(l) | Ev::CsuStop(l) => {
                let link = &links[l.0 as usize];
                let a = RouterId(link.a);
                let b = RouterId(link.b);
                [Some(a), if a == b { None } else { Some(b) }]
            }
        }
    }

    fn make_resident(&mut self, router: RouterId) {
        if let Some(spill) = self.spill.as_mut() {
            if spill.is_spilled(router) {
                if let Some(image) = spill.restore(router) {
                    self.routers[router.0 as usize].import_rib_image(image);
                }
            }
            spill.touch(router);
        }
    }

    fn enforce_working_set(&mut self, keep: &[RouterId]) {
        while let Some(victim) = self.spill.as_ref().and_then(|s| s.pick_victim(keep)) {
            let image = self.routers[victim.0 as usize].export_rib_image();
            self.spill
                .as_mut()
                .expect("spill enabled")
                .spill(victim, &image);
        }
    }

    /// Runs until the queue drains (careful: periodic timers keep worlds
    /// alive forever; prefer [`World::run_until`]).
    pub fn run_to_quiescence(&mut self, hard_limit: SimTime) {
        self.run_until(hard_limit);
    }

    /// Stamps a trace event with sim time and the router's AS number.
    fn trace(&mut self, now: SimTime, router: RouterId, kind: TraceKind) {
        if self.tracer.is_enabled() {
            let asn = self.routers[router.0 as usize].cfg.asn.0;
            self.tracer.record(now, asn, kind);
        }
    }

    fn dispatch(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::CrashNow(router) => {
                if !self.routers[router.0 as usize].is_crashed() {
                    // Operator-injected fault: the cause is the reset
                    // itself, not load.
                    self.routers[router.0 as usize].crash(now, Cause::FsmReset, &mut self.effects);
                    self.apply_effects(router);
                }
            }
            Ev::Deliver {
                link,
                epoch,
                from,
                to,
                msg,
                cause,
            } => {
                let l = &self.links[link.0 as usize];
                if !l.up || l.epoch != epoch {
                    self.stats.dropped_in_flight += 1;
                    self.registry.inc(self.obs.dropped_in_flight);
                    return;
                }
                if self.routers[to.0 as usize].is_crashed() {
                    self.stats.dropped_in_flight += 1;
                    self.registry.inc(self.obs.dropped_in_flight);
                    return;
                }
                self.stats.delivered += 1;
                self.registry.inc(self.obs.delivered);
                if let Some(mon) = self.monitors.get_mut(&to.0) {
                    let peer = &self.routers[from.0 as usize];
                    mon.record(now, peer.cfg.asn, peer.cfg.addr, &msg, cause);
                }
                let before = self.session_fsm_state(to, from);
                self.routers[to.0 as usize].handle_message(
                    from,
                    msg,
                    cause,
                    now,
                    &mut self.rng,
                    &mut self.effects,
                );
                self.record_transition(now, to, from, before);
                self.apply_effects(to);
            }
            Ev::Timer {
                router,
                peer,
                kind,
                generation,
            } => {
                if self.tracer.is_enabled() {
                    let peer_asn = self.routers[peer.0 as usize].cfg.asn.0;
                    self.trace(
                        now,
                        router,
                        TraceKind::TimerFired {
                            peer: peer_asn,
                            timer: kind.name(),
                        },
                    );
                }
                self.registry.inc(self.obs.timer_fires);
                let before = self.session_fsm_state(router, peer);
                self.routers[router.0 as usize].handle_timer(
                    peer,
                    kind,
                    generation,
                    now,
                    &mut self.rng,
                    &mut self.effects,
                );
                self.record_transition(now, router, peer, before);
                self.apply_effects(router);
            }
            Ev::TransportUp {
                router,
                peer,
                link,
                epoch,
            } => {
                let l = &self.links[link.0 as usize];
                if !l.up || l.epoch != epoch || self.routers[router.0 as usize].is_crashed() {
                    return;
                }
                let before = self.session_fsm_state(router, peer);
                self.routers[router.0 as usize].handle_transport(
                    peer,
                    true,
                    Cause::Unknown,
                    now,
                    &mut self.rng,
                    &mut self.effects,
                );
                self.record_transition(now, router, peer, before);
                self.apply_effects(router);
            }
            Ev::TransportDown {
                router,
                peer,
                cause,
            } => {
                if self.routers[router.0 as usize].is_crashed() {
                    return;
                }
                let before = self.session_fsm_state(router, peer);
                self.routers[router.0 as usize].handle_transport(
                    peer,
                    false,
                    cause,
                    now,
                    &mut self.rng,
                    &mut self.effects,
                );
                self.record_transition(now, router, peer, before);
                self.apply_effects(router);
            }
            Ev::LinkDown(link) => {
                self.carrier_loss(now, link);
            }
            Ev::CsuDown(link) => {
                // Ignore if the fault was repaired while this was queued.
                let Some(csu) = self.links[link.0 as usize].csu else {
                    return;
                };
                self.carrier_loss(now, link);
                self.queue.schedule_at(now + csu.down_ms, Ev::LinkUp(link));
            }
            Ev::CsuStop(link) => {
                self.links[link.0 as usize].csu = None;
                if !self.links[link.0 as usize].up {
                    self.queue.schedule_at(now, Ev::LinkUp(link));
                }
            }
            Ev::LinkUp(link) => {
                self.links[link.0 as usize].bring_up();
                self.registry.inc(self.obs.link_transitions);
                let csu = self.links[link.0 as usize].csu.is_some();
                if self.tracer.is_enabled() {
                    let owner = RouterId(self.links[link.0 as usize].a);
                    self.trace(
                        now,
                        owner,
                        TraceKind::LinkUp {
                            link: link.0 as usize,
                            csu,
                        },
                    );
                }
                if let Some((router, prefixes)) = self.access.get(&link).cloned() {
                    // Re-origination caused by the tail circuit coming
                    // back: attribute it to the mechanism that flapped it.
                    let cause = if csu {
                        Cause::CsuDrift
                    } else {
                        Cause::LinkFlap
                    };
                    for prefix in prefixes {
                        self.queue.schedule_at(
                            now,
                            Ev::Originate {
                                router,
                                prefix,
                                cause,
                            },
                        );
                    }
                }
                // CSU oscillation: schedule the next carrier loss.
                if let Some(csu) = self.links[link.0 as usize].csu {
                    let at = csu.next_down(now + 1);
                    self.queue.schedule_at(at, Ev::CsuDown(link));
                }
            }
            Ev::RouterRecover(router) => {
                if self.routers[router.0 as usize].is_crashed() {
                    self.routers[router.0 as usize].recover(now, &mut self.rng, &mut self.effects);
                    self.trace(now, router, TraceKind::RouterRecovered);
                    self.apply_effects(router);
                }
            }
            Ev::Originate {
                router,
                prefix,
                cause,
            } => {
                self.routers[router.0 as usize].originate(
                    prefix,
                    cause,
                    now,
                    &mut self.rng,
                    &mut self.effects,
                );
                self.apply_effects(router);
            }
            Ev::OriginateWith {
                router,
                prefix,
                attrs,
                cause,
            } => {
                self.routers[router.0 as usize].originate_with(
                    prefix,
                    *attrs,
                    cause,
                    now,
                    &mut self.rng,
                    &mut self.effects,
                );
                self.apply_effects(router);
            }
            Ev::WithdrawOrigin {
                router,
                prefix,
                cause,
            } => {
                self.routers[router.0 as usize].withdraw_origin(
                    prefix,
                    cause,
                    now,
                    &mut self.rng,
                    &mut self.effects,
                );
                self.apply_effects(router);
            }
        }
    }

    /// Shared carrier-loss handling for injected and CSU outages.
    fn carrier_loss(&mut self, now: SimTime, link: LinkId) {
        self.links[link.0 as usize].take_down();
        self.registry.inc(self.obs.link_transitions);
        let csu = self.links[link.0 as usize].csu.is_some();
        let cause = if csu {
            Cause::CsuDrift
        } else {
            Cause::LinkFlap
        };
        if self.tracer.is_enabled() {
            let owner = RouterId(self.links[link.0 as usize].a);
            self.trace(
                now,
                owner,
                TraceKind::LinkDown {
                    link: link.0 as usize,
                    csu,
                },
            );
        }
        if let Some((router, prefixes)) = self.access.get(&link).cloned() {
            // Customer tail circuit lost: withdraw its prefixes.
            for prefix in prefixes {
                self.routers[router.0 as usize].withdraw_origin(
                    prefix,
                    cause,
                    now,
                    &mut self.rng,
                    &mut self.effects,
                );
                self.apply_effects(router);
            }
        } else {
            // Peering link: both ends lose transport promptly.
            let (a, b) = {
                let l = &self.links[link.0 as usize];
                (RouterId(l.a), RouterId(l.b))
            };
            self.queue.schedule_at(
                now,
                Ev::TransportDown {
                    router: a,
                    peer: b,
                    cause,
                },
            );
            self.queue.schedule_at(
                now,
                Ev::TransportDown {
                    router: b,
                    peer: a,
                    cause,
                },
            );
        }
    }

    fn session_fsm_state(
        &self,
        router: RouterId,
        peer: RouterId,
    ) -> Option<iri_session::fsm::State> {
        if self.monitors.contains_key(&router.0) || self.tracer.is_enabled() {
            self.routers[router.0 as usize].session_state(peer)
        } else {
            None
        }
    }

    fn record_transition(
        &mut self,
        now: SimTime,
        router: RouterId,
        peer: RouterId,
        before: Option<iri_session::fsm::State>,
    ) {
        let Some(before) = before else { return };
        let Some(after) = self.routers[router.0 as usize].session_state(peer) else {
            return;
        };
        if before != after {
            let (peer_asn, peer_addr) = {
                let p = &self.routers[peer.0 as usize];
                (p.cfg.asn, p.cfg.addr)
            };
            self.trace(
                now,
                router,
                TraceKind::Fsm {
                    peer: peer_asn.0,
                    from: before.name(),
                    to: after.name(),
                },
            );
            if let Some(mon) = self.monitors.get_mut(&router.0) {
                mon.record_state_change(
                    now,
                    peer_asn,
                    peer_addr,
                    fsm_to_mrt(before),
                    fsm_to_mrt(after),
                );
            }
        }
    }

    /// Realises the effects `router` appended to the world's buffer,
    /// leaving the buffer empty (and its capacity in place).
    fn apply_effects(&mut self, router: RouterId) {
        let mut effects = std::mem::take(&mut self.effects);
        for fx in effects.drain(..) {
            match fx {
                Effect::Send {
                    peer,
                    msg,
                    ready_at,
                    cause,
                } => {
                    let Some(link_id) = self.routers[router.0 as usize].peer_link(peer) else {
                        continue;
                    };
                    let l = &self.links[link_id.0 as usize];
                    if !l.up {
                        self.stats.dropped_at_send += 1;
                        self.registry.inc(self.obs.dropped_at_send);
                        continue;
                    }
                    let now = self.queue.now();
                    self.registry
                        .observe(self.obs.tx_delay_ms, ready_at.saturating_sub(now));
                    let at = ready_at.max(now) + l.latency_ms;
                    self.queue.schedule_at(
                        at,
                        Ev::Deliver {
                            link: link_id,
                            epoch: l.epoch,
                            from: router,
                            to: peer,
                            msg,
                            cause,
                        },
                    );
                }
                Effect::ArmTimer {
                    peer,
                    kind,
                    at,
                    generation,
                } => {
                    self.queue.schedule_at(
                        at,
                        Ev::Timer {
                            router,
                            peer,
                            kind,
                            generation,
                        },
                    );
                }
                Effect::OpenConnection { peer } => {
                    let Some(link_id) = self.routers[router.0 as usize].peer_link(peer) else {
                        continue;
                    };
                    let l = &self.links[link_id.0 as usize];
                    let rtt = 2 * l.latency_ms;
                    if l.up && !self.routers[peer.0 as usize].is_crashed() {
                        let epoch = l.epoch;
                        self.queue.schedule_at(
                            self.queue.now() + rtt,
                            Ev::TransportUp {
                                router,
                                peer,
                                link: link_id,
                                epoch,
                            },
                        );
                        self.queue.schedule_at(
                            self.queue.now() + rtt,
                            Ev::TransportUp {
                                router: peer,
                                peer: router,
                                link: link_id,
                                epoch,
                            },
                        );
                    } else {
                        // Connect failure detected after the handshake
                        // timeout.
                        self.queue.schedule_at(
                            self.queue.now() + rtt.max(1),
                            Ev::TransportDown {
                                router,
                                peer,
                                cause: Cause::FsmReset,
                            },
                        );
                    }
                }
                Effect::Crashed { until, cause } => {
                    self.registry.inc(self.obs.crashes);
                    self.queue.schedule_at(until, Ev::RouterRecover(router));
                    // Peers see the TCP connections die after one link
                    // latency, and their withdrawal waves inherit the
                    // crash's root cause.
                    let peer_ids: Vec<RouterId> =
                        self.routers[router.0 as usize].peer_ids().collect();
                    for peer in peer_ids {
                        if let Some(link_id) = self.routers[router.0 as usize].peer_link(peer) {
                            let latency = self.links[link_id.0 as usize].latency_ms;
                            self.queue.schedule_at(
                                self.queue.now() + latency,
                                Ev::TransportDown {
                                    router: peer,
                                    peer: router,
                                    cause,
                                },
                            );
                        }
                    }
                }
                Effect::Trace(kind) => {
                    let now = self.queue.now();
                    self.trace(now, router, kind);
                }
            }
        }
        self.effects = effects;
    }
}

/// Maps FSM states to MRT state codes.
fn fsm_to_mrt(s: iri_session::fsm::State) -> PeerState {
    use iri_session::fsm::State::*;
    match s {
        Idle => PeerState::Idle,
        Connect => PeerState::Connect,
        Active => PeerState::Active,
        OpenSent => PeerState::OpenSent,
        OpenConfirm => PeerState::OpenConfirm,
        Established => PeerState::Established,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{MINUTE, SECOND};
    use iri_bgp::types::Asn;
    use std::net::Ipv4Addr;

    fn two_router_world() -> (World, RouterId, RouterId) {
        let mut w = World::new(1);
        let a = w.add_router(RouterConfig::well_behaved(
            "A",
            Asn(701),
            Ipv4Addr::new(192, 41, 177, 1),
        ));
        let b = w.add_router(RouterConfig::well_behaved(
            "B",
            Asn(1239),
            Ipv4Addr::new(192, 41, 177, 2),
        ));
        w.connect(a, b, 5);
        (w, a, b)
    }

    #[test]
    fn sessions_establish() {
        let (mut w, a, b) = two_router_world();
        w.start();
        w.run_until(10 * SECOND);
        assert!(w.router(a).session_established(b));
        assert!(w.router(b).session_established(a));
    }

    #[test]
    fn originated_route_propagates() {
        let (mut w, a, b) = two_router_world();
        w.start();
        w.run_until(5 * SECOND);
        let pfx: Prefix = "10.0.0.0/8".parse().unwrap();
        w.schedule_originate(6 * SECOND, a, pfx);
        w.run_until(2 * MINUTE);
        let best = w.router(b).loc_rib().best(pfx).expect("B must learn 10/8");
        assert_eq!(best.attrs.as_path.to_string(), "701");
        assert_eq!(best.attrs.next_hop, Ipv4Addr::new(192, 41, 177, 1));
    }

    #[test]
    fn withdrawal_propagates() {
        let (mut w, a, b) = two_router_world();
        w.start();
        let pfx: Prefix = "10.0.0.0/8".parse().unwrap();
        w.schedule_originate(6 * SECOND, a, pfx);
        w.schedule_withdraw(3 * MINUTE, a, pfx);
        w.run_until(6 * MINUTE);
        assert!(w.router(b).loc_rib().best(pfx).is_none());
    }

    #[test]
    fn monitor_sees_updates() {
        let (mut w, a, b) = two_router_world();
        w.attach_monitor(b);
        w.start();
        let pfx: Prefix = "10.0.0.0/8".parse().unwrap();
        w.schedule_originate(6 * SECOND, a, pfx);
        w.run_until(2 * MINUTE);
        let mon = w.monitor(b).unwrap();
        assert!(mon.prefix_event_count() >= 1);
        assert!(mon
            .state_changes
            .iter()
            .any(|s| s.new_state == PeerState::Established));
    }

    #[test]
    fn monitored_updates_carry_known_causes() {
        let (mut w, a, b) = two_router_world();
        w.attach_monitor(b);
        w.start();
        let pfx: Prefix = "10.0.0.0/8".parse().unwrap();
        w.schedule_originate(6 * SECOND, a, pfx);
        w.schedule_withdraw(3 * MINUTE, a, pfx);
        w.run_until(6 * MINUTE);
        let mon = w.monitor(b).unwrap();
        assert!(mon.prefix_event_count() >= 2);
        for u in &mon.updates {
            assert!(
                u.cause.is_known(),
                "UPDATE at t={} carries default cause",
                u.time_ms
            );
        }
        assert!(mon.updates.iter().any(|u| u.cause == Cause::Origination));
        assert!(mon.updates.iter().any(|u| u.cause == Cause::Withdrawal));
    }

    #[test]
    fn obs_disabled_collects_nothing() {
        let (mut w, a, _b) = two_router_world();
        w.start();
        w.schedule_originate(6 * SECOND, a, "10.0.0.0/8".parse().unwrap());
        w.run_until(2 * MINUTE);
        assert!(w.tracer().is_empty());
        assert_eq!(w.registry().counter_value("world.delivered"), Some(0));
        assert!(w.stats.delivered > 0, "stats still work without obs");
    }

    #[test]
    fn obs_enabled_traces_fsm_and_timers() {
        let (mut w, a, b) = two_router_world();
        w.enable_obs(4096);
        w.start();
        w.schedule_originate(6 * SECOND, a, "10.0.0.0/8".parse().unwrap());
        w.run_until(2 * MINUTE);
        assert!(w.registry().counter_value("world.delivered").unwrap() > 0);
        assert!(w.registry().counter_value("world.timer_fires").unwrap() > 0);
        let events: Vec<_> = w.tracer().events().collect();
        assert!(events.iter().any(|e| matches!(
            e.kind,
            TraceKind::Fsm {
                to: "Established",
                ..
            }
        )));
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, TraceKind::TimerFired { .. })));
        // Determinism contract: every event timestamp is sim time within
        // the run window.
        assert!(events.iter().all(|e| e.time <= 2 * MINUTE));
        let _ = b;
    }

    #[test]
    fn link_flap_traced_and_attributed() {
        let (mut w, a, b) = two_router_world();
        w.enable_obs(4096);
        w.attach_monitor(b);
        w.start();
        let pfx: Prefix = "10.0.0.0/8".parse().unwrap();
        w.schedule_originate(6 * SECOND, a, pfx);
        w.run_until(30 * SECOND);
        let link = w.router(a).peer_link(b).unwrap();
        w.schedule_link_flap(MINUTE, link, 2 * SECOND);
        w.run_until(10 * MINUTE);
        let events: Vec<_> = w.tracer().events().collect();
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, TraceKind::LinkDown { csu: false, .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, TraceKind::LinkUp { csu: false, .. })));
        assert!(
            w.registry()
                .counter_value("world.link_transitions")
                .unwrap()
                >= 2
        );
        // After the session re-establishes, B relearns the prefix via the
        // initial table dump.
        let mon = w.monitor(b).unwrap();
        assert!(mon.updates.iter().any(|u| u.cause == Cause::InitialDump));
    }

    #[test]
    fn link_flap_drops_and_reestablishes_session() {
        let (mut w, a, b) = two_router_world();
        w.start();
        w.run_until(10 * SECOND);
        assert!(w.router(a).session_established(b));
        let link = w.router(a).peer_link(b).unwrap();
        w.schedule_link_flap(11 * SECOND, link, 2 * SECOND);
        w.run_until(12 * SECOND);
        assert!(!w.router(a).session_established(b));
        // Connect-retry (120 s) brings it back.
        w.run_until(5 * MINUTE);
        assert!(w.router(a).session_established(b));
        assert!(w.router(a).counters.session_flaps >= 1);
    }

    #[test]
    fn determinism_same_seed_same_history() {
        let run = |seed: u64| {
            let mut w = World::new(seed);
            let a = w.add_router(RouterConfig::well_behaved(
                "A",
                Asn(701),
                Ipv4Addr::new(192, 41, 177, 1),
            ));
            let b = w.add_router(RouterConfig::pathological(
                "B",
                Asn(690),
                Ipv4Addr::new(192, 41, 177, 2),
            ));
            w.attach_monitor(a);
            w.connect(a, b, 5);
            w.start();
            for i in 0..20 {
                w.schedule_flap(
                    10 * SECOND + i * 7 * SECOND,
                    b,
                    "192.42.113.0/24".parse().unwrap(),
                    3 * SECOND,
                );
            }
            w.run_until(10 * MINUTE);
            let mon = w.take_monitor(a).unwrap();
            (
                w.events_processed(),
                mon.updates.len(),
                mon.prefix_event_count(),
            )
        };
        assert_eq!(run(42), run(42));
        // Different seed may differ (jitter), but must still complete.
        let _ = run(43);
    }

    #[test]
    fn tracing_does_not_change_the_event_history() {
        // Determinism contract: observability is read-only. The same seed
        // with and without tracing produces the identical message history.
        let run = |obs: bool| {
            let mut w = World::new(42);
            let a = w.add_router(RouterConfig::well_behaved(
                "A",
                Asn(701),
                Ipv4Addr::new(192, 41, 177, 1),
            ));
            let b = w.add_router(RouterConfig::pathological(
                "B",
                Asn(690),
                Ipv4Addr::new(192, 41, 177, 2),
            ));
            if obs {
                w.enable_obs(65536);
            }
            w.attach_monitor(a);
            w.connect(a, b, 5);
            w.start();
            for i in 0..20 {
                w.schedule_flap(
                    10 * SECOND + i * 7 * SECOND,
                    b,
                    "192.42.113.0/24".parse().unwrap(),
                    3 * SECOND,
                );
            }
            w.run_until(10 * MINUTE);
            let mon = w.take_monitor(a).unwrap();
            (
                w.events_processed(),
                mon.updates.len(),
                mon.prefix_event_count(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn access_link_csu_oscillation_hidden_by_stateful_mrai() {
        // A *stateful* router with a 30 s MRAI absorbs sub-window CSU flaps:
        // the W→A squash is identical to the advertised state, so nothing is
        // sent — the paper's "artificial route dampening mechanism".
        let (mut w, a, b) = two_router_world();
        w.attach_monitor(b);
        let pfx: Prefix = "192.42.113.0/24".parse().unwrap();
        w.add_access_link(a, vec![pfx], Some(CsuFault::beat_30s(40 * SECOND)));
        w.start();
        w.run_until(10 * MINUTE);
        let mon = w.monitor(b).unwrap();
        let events = mon.prefix_event_count();
        assert!(
            events <= 3,
            "stateful+MRAI must hide CSU flaps, got {events}"
        );
    }

    #[test]
    fn access_link_csu_oscillation_leaks_through_stateless() {
        // The same CSU fault behind a *stateless* router leaks a W+A pair
        // every timer window — the periodic WADup/AADup engine of §4.2.
        let mut w = World::new(11);
        let a = w.add_router(RouterConfig::pathological(
            "A",
            Asn(690),
            Ipv4Addr::new(192, 41, 177, 1),
        ));
        let b = w.add_router(RouterConfig::well_behaved(
            "B",
            Asn(1239),
            Ipv4Addr::new(192, 41, 177, 2),
        ));
        w.connect(a, b, 5);
        w.attach_monitor(b);
        let pfx: Prefix = "192.42.113.0/24".parse().unwrap();
        w.add_access_link(a, vec![pfx], Some(CsuFault::beat_30s(40 * SECOND)));
        w.start();
        w.run_until(10 * MINUTE);
        let mon = w.monitor(b).unwrap();
        let events = mon.prefix_event_count();
        assert!(
            events >= 10,
            "stateless must leak periodic flaps, got {events}"
        );
    }

    #[test]
    fn csu_flap_updates_attributed_to_csu_drift() {
        let mut w = World::new(11);
        let a = w.add_router(RouterConfig::pathological(
            "A",
            Asn(690),
            Ipv4Addr::new(192, 41, 177, 1),
        ));
        let b = w.add_router(RouterConfig::well_behaved(
            "B",
            Asn(1239),
            Ipv4Addr::new(192, 41, 177, 2),
        ));
        w.connect(a, b, 5);
        w.attach_monitor(b);
        w.enable_obs(65536);
        let pfx: Prefix = "192.42.113.0/24".parse().unwrap();
        w.add_access_link(a, vec![pfx], Some(CsuFault::beat_30s(40 * SECOND)));
        w.start();
        w.run_until(10 * MINUTE);
        let mon = w.monitor(b).unwrap();
        let csu_updates = mon
            .updates
            .iter()
            .filter(|u| u.cause == Cause::CsuDrift)
            .count();
        assert!(
            csu_updates >= 5,
            "CSU-driven churn must be attributed, got {csu_updates}"
        );
        assert!(w
            .tracer()
            .events()
            .any(|e| matches!(e.kind, TraceKind::LinkDown { csu: true, .. })));
    }

    #[test]
    fn csu_stop_repairs_the_circuit() {
        let mut w = World::new(21);
        let a = w.add_router(RouterConfig::pathological(
            "A",
            Asn(690),
            Ipv4Addr::new(192, 41, 177, 1),
        ));
        let b = w.add_router(RouterConfig::well_behaved(
            "B",
            Asn(1239),
            Ipv4Addr::new(192, 41, 177, 2),
        ));
        w.connect(a, b, 5);
        w.attach_monitor(b);
        let pfx: Prefix = "192.42.113.0/24".parse().unwrap();
        let link = w.add_access_link(a, vec![pfx], Some(CsuFault::beat_30s(MINUTE)));
        // The circuit is repaired after 6 minutes.
        w.schedule_csu_stop(6 * MINUTE, link);
        w.start();
        w.run_until(30 * MINUTE);
        // After the repair the prefix is stably reachable…
        assert!(w.router(b).loc_rib().best(pfx).is_some());
        // …and the post-repair log is quiet: no update in the last 20 min.
        let last_update = w
            .monitor(b)
            .unwrap()
            .updates
            .iter()
            .map(|u| u.time_ms)
            .max()
            .unwrap_or(0);
        assert!(
            last_update < 10 * MINUTE,
            "no churn after the repair (last update at {last_update} ms)"
        );
    }

    #[test]
    fn three_routers_converge_on_shortest_path() {
        let mut w = World::new(7);
        let a = w.add_router(RouterConfig::well_behaved(
            "A",
            Asn(1),
            Ipv4Addr::new(10, 0, 0, 1),
        ));
        let b = w.add_router(RouterConfig::well_behaved(
            "B",
            Asn(2),
            Ipv4Addr::new(10, 0, 0, 2),
        ));
        let c = w.add_router(RouterConfig::well_behaved(
            "C",
            Asn(3),
            Ipv4Addr::new(10, 0, 0, 3),
        ));
        w.connect(a, b, 5);
        w.connect(b, c, 5);
        w.connect(a, c, 5);
        w.start();
        let pfx: Prefix = "10.7.0.0/16".parse().unwrap();
        w.schedule_originate(10 * SECOND, c, pfx);
        w.run_until(5 * MINUTE);
        // A must reach the prefix directly via C (path "3"), not via B.
        let best = w.router(a).loc_rib().best(pfx).expect("A learns route");
        assert_eq!(best.attrs.as_path.to_string(), "3");
        // B likewise.
        let best_b = w.router(b).loc_rib().best(pfx).unwrap();
        assert_eq!(best_b.attrs.as_path.to_string(), "3");
        // Failover: C-A link dies; A reroutes via B.
        let link_ac = w.router(a).peer_link(c).unwrap();
        w.schedule_link_flap(6 * MINUTE, link_ac, 30 * MINUTE);
        w.run_until(10 * MINUTE);
        let best = w.router(a).loc_rib().best(pfx).expect("A reroutes via B");
        assert_eq!(best.attrs.as_path.to_string(), "2 3");
    }
}
