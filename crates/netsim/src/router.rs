//! The border-router model: BGP processing plus the resource behaviours the
//! paper identifies as instability mechanisms.
//!
//! Each router combines:
//!
//! - the session FSMs and timers of `iri-session`;
//! - the RIBs, decision process and policy of `iri-rib`, with a per-peer
//!   Adj-RIB-Out that is either **stateful** or the pathological
//!   **stateless** implementation of §4.2;
//! - an update-packing (MRAI-style) timer per peer, jittered or the
//!   pathological **unjittered 30 s** variant;
//! - a CPU model ("many of the commonly deployed Internet routers are based
//!   on a relatively light Motorola 68000 series processor"): update
//!   processing consumes microseconds of a single busy-line, delaying
//!   outbound messages — including KEEPALIVEs unless the router has the
//!   newer "BGP traffic is given a higher priority" fix — so that heavy
//!   update load starves keepalives and triggers hold-timer expiry at
//!   peers;
//! - a crash model ("sufficiently high rates of pathological updates
//!   (300 updates per second) are enough to crash a widely deployed,
//!   high-end model of Internet router");
//! - a route-cache forwarding architecture counter (cache churn per
//!   forwarding change, the packet-loss mechanism of §3);
//! - optional inbound route-flap damping.
//!
//! The router is a pure state machine: every entry point takes `now` and
//! the seeded RNG and appends [`Effect`]s for the world to realise to a
//! buffer the world owns and drains, keeping the whole simulation
//! deterministic. The event path reuses its buffers: the world owns the
//! effect buffer, the router owns its FSM-action, validation and flush
//! scratch, pending windows keep their capacity, and attributes are cloned
//! where a table keeps the copy.

use crate::engine::SimTime;
use crate::link::LinkId;
use iri_bgp::attrs::PathAttributes;
use iri_bgp::codec::{fits_one_message, split_update};
use iri_bgp::message::{Message, Update};
use iri_bgp::path::AsPath;
use iri_bgp::types::{Asn, Prefix};
use iri_bgp::validate::{validate_update, PeerContext, ValidationError};
use iri_obs::{Cause, TraceKind};
use iri_rib::adj_in::AdjRibIn;
use iri_rib::adj_out::{AdjRibOut, ExportDelta, ExportEvent, StatefulAdjOut, StatelessAdjOut};
use iri_rib::damping::{DampingVerdict, FlapKind, RouteDamper};
use iri_rib::decision::RouteCandidate;
use iri_rib::loc_rib::{BestChange, LocRib};
use iri_rib::policy::Policy;
use iri_session::fsm::{Action, Event as FsmEvent, SessionConfig, SessionFsm};
use iri_session::timers::{MraiTimer, TimerProfile};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::Ipv4Addr;

/// Index of a router in the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RouterId(pub u32);

/// What kind of BGP speaker this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Role {
    /// A service-provider border router: prepends its AS and rewrites the
    /// next hop on export.
    Border,
    /// A Routing Arbiter route server: transparent — re-advertises client
    /// routes without inserting itself into the AS path or next hop,
    /// reducing the exchange's session mesh from O(N²) to O(N).
    RouteServer,
}

/// Which Adj-RIB-Out implementation the router runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdjOutMode {
    /// Remembers wire state; suppresses redundant updates.
    Stateful,
    /// The §4.2 pathological implementation.
    Stateless,
}

/// CPU cost model.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CpuModel {
    /// Microseconds of CPU per prefix event processed (in or out).
    pub update_cost_us: u64,
    /// Whether KEEPALIVE transmission bypasses the busy CPU (the modern
    /// vendor fix: "BGP traffic is given a higher priority and Keep-Alive
    /// messages persist even under heavy instability").
    pub keepalive_priority: bool,
}

impl Default for CpuModel {
    fn default() -> Self {
        // ~200 µs per prefix event ≈ 5 000 events/s of headroom — a light
        // mid-90s CPU.
        CpuModel {
            update_cost_us: 200,
            keepalive_priority: false,
        }
    }
}

/// Crash-under-load model.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CrashModel {
    /// Sustained inbound prefix events per second that crash the router.
    pub updates_per_sec_threshold: u32,
    /// Sliding window over which the rate is measured.
    pub window_ms: SimTime,
    /// Reboot time after a crash.
    pub reboot_ms: SimTime,
}

impl Default for CrashModel {
    fn default() -> Self {
        CrashModel {
            updates_per_sec_threshold: 300,
            window_ms: 5_000,
            reboot_ms: 120_000,
        }
    }
}

/// Static router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Display name for reports ("Provider A", "RS-MaeEast"…).
    pub name: String,
    /// The router's AS.
    pub asn: Asn,
    /// Interface address at the exchange (also the router ID).
    pub addr: Ipv4Addr,
    /// Border router or route server.
    pub role: Role,
    /// Adj-RIB-Out implementation.
    pub adj_out: AdjOutMode,
    /// Update-packing timer behaviour.
    pub timer_profile: TimerProfile,
    /// CPU model.
    pub cpu: CpuModel,
    /// Optional crash model.
    pub crash: Option<CrashModel>,
    /// Optional inbound flap damping applied per peer.
    pub damping: Option<iri_rib::damping::DampingConfig>,
    /// Proposed hold time (seconds).
    pub hold_time_secs: u16,
    /// The "misconfigured router / faulty new hardware-software" incident
    /// mode behind Table 1's ISP-I: every `n` timer windows the router
    /// re-transmits withdrawals for every prefix it currently believes
    /// withdrawn, without any state telling it the peer already heard them.
    pub withdrawal_storm: Option<u32>,
}

impl RouterConfig {
    /// A conventional well-behaved border router.
    #[must_use]
    pub fn well_behaved(name: &str, asn: Asn, addr: Ipv4Addr) -> Self {
        RouterConfig {
            name: name.to_owned(),
            asn,
            addr,
            role: Role::Border,
            adj_out: AdjOutMode::Stateful,
            timer_profile: TimerProfile::jittered_30s(),
            cpu: CpuModel::default(),
            crash: Some(CrashModel::default()),
            damping: None,
            hold_time_secs: 180,
            withdrawal_storm: None,
        }
    }

    /// The pathological vendor profile of §4.2: stateless Adj-RIB-Out plus
    /// the unjittered 30-second interval timer.
    #[must_use]
    pub fn pathological(name: &str, asn: Asn, addr: Ipv4Addr) -> Self {
        RouterConfig {
            adj_out: AdjOutMode::Stateless,
            timer_profile: TimerProfile::pathological_30s(),
            ..RouterConfig::well_behaved(name, asn, addr)
        }
    }

    /// A Routing Arbiter route server (transparent, stateful, no crash —
    /// "Unix-based systems").
    #[must_use]
    pub fn route_server(name: &str, asn: Asn, addr: Ipv4Addr) -> Self {
        RouterConfig {
            role: Role::RouteServer,
            adj_out: AdjOutMode::Stateful,
            timer_profile: TimerProfile::Immediate,
            crash: None,
            cpu: CpuModel {
                update_cost_us: 50,
                keepalive_priority: true,
            },
            ..RouterConfig::well_behaved(name, asn, addr)
        }
    }
}

/// Session timers a router arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerKind {
    /// Peer-liveness hold timer.
    Hold,
    /// Our keepalive transmission timer.
    Keepalive,
    /// Connection retry.
    ConnectRetry,
    /// Update-packing (MRAI) flush.
    Mrai,
}

impl TimerKind {
    fn index(self) -> usize {
        match self {
            TimerKind::Hold => 0,
            TimerKind::Keepalive => 1,
            TimerKind::ConnectRetry => 2,
            TimerKind::Mrai => 3,
        }
    }

    /// Timer name for trace events.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TimerKind::Hold => "hold",
            TimerKind::Keepalive => "keepalive",
            TimerKind::ConnectRetry => "connect_retry",
            TimerKind::Mrai => "mrai",
        }
    }
}

/// Instructions returned to the world.
#[derive(Debug)]
pub enum Effect {
    /// Transmit `msg` to `peer`; the message leaves the router at
    /// `ready_at` (CPU-delayed).
    Send {
        /// Destination peer.
        peer: RouterId,
        /// Message to send.
        msg: Message,
        /// Earliest transmission time.
        ready_at: SimTime,
        /// Root-cause provenance of the message (meaningful for UPDATEs;
        /// control messages carry [`Cause::Unknown`]).
        cause: Cause,
    },
    /// Schedule a timer event.
    ArmTimer {
        /// Session peer.
        peer: RouterId,
        /// Which timer.
        kind: TimerKind,
        /// Absolute expiry.
        at: SimTime,
        /// Generation for staleness detection.
        generation: u64,
    },
    /// Initiate transport to `peer`.
    OpenConnection {
        /// Session peer.
        peer: RouterId,
    },
    /// The router crashed; it is dead until `until` and all its transports
    /// are gone.
    Crashed {
        /// Reboot completion time.
        until: SimTime,
        /// Why it crashed (propagated to peers' withdrawal waves).
        cause: Cause,
    },
    /// A router-internal observability event for the world's tracer to
    /// stamp with time and router identity.
    Trace(TraceKind),
}

/// Net pending action for one prefix within the current timer window.
#[derive(Debug, Clone)]
/// `window_start` is the post-policy advertisement as it stood when the
/// current timer window opened (`None` = the window opened with the route
/// not advertised / unknown). At flush time a stateless export compares the
/// net result against this: oscillations that return to the start state
/// squash into the paper's pure duplicate announcement (AADup), while
/// persisted path changes blast the explicit implicit-withdrawal plus the
/// new route.
enum PendingExport {
    Announce {
        attrs: PathAttributes,
        window_start: Option<PathAttributes>,
        cause: Cause,
    },
    Withdraw {
        window_start: Option<PathAttributes>,
        cause: Cause,
    },
}

impl PendingExport {
    fn cause(&self) -> Cause {
        match self {
            PendingExport::Announce { cause, .. } | PendingExport::Withdraw { cause, .. } => *cause,
        }
    }

    /// Folds a later change of the same window into this entry. The window
    /// keeps the start state — and the root cause — of its *first* queued
    /// change; later intra-window changes only move the net result.
    fn absorb(&mut self, later: PendingExport) {
        let (window_start, first_cause) = match self {
            PendingExport::Announce {
                window_start,
                cause,
                ..
            }
            | PendingExport::Withdraw {
                window_start,
                cause,
            } => (window_start.take(), *cause),
        };
        let cause = if first_cause.is_known() {
            first_cause
        } else {
            later.cause()
        };
        *self = match later {
            PendingExport::Announce { attrs, .. } => PendingExport::Announce {
                attrs,
                window_start,
                cause,
            },
            PendingExport::Withdraw { .. } => PendingExport::Withdraw {
                window_start,
                cause,
            },
        };
    }
}

/// One peer's pending flush window: the net action per prefix, sorted by
/// prefix. Lookups are binary searches, a flush drains it in prefix order,
/// and it keeps its capacity across flushes, so a busy peer's window stops
/// allocating once it has grown to its working size.
#[derive(Default)]
struct PendingWindow {
    entries: Vec<(Prefix, PendingExport)>,
}

impl PendingWindow {
    fn search(&self, prefix: Prefix) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&prefix, |(p, _)| *p)
    }

    fn contains(&self, prefix: Prefix) -> bool {
        self.search(prefix).is_ok()
    }

    /// Queues `action`, folding it into the prefix's entry if the window
    /// already has one.
    fn queue(&mut self, prefix: Prefix, action: PendingExport) {
        match self.search(prefix) {
            Ok(i) => self.entries[i].1.absorb(action),
            Err(i) => self.entries.insert(i, (prefix, action)),
        }
    }

    /// Queues `action` only if the window has nothing for the prefix yet.
    fn queue_if_absent(&mut self, prefix: Prefix, action: PendingExport) {
        if let Err(i) = self.search(prefix) {
            self.entries.insert(i, (prefix, action));
        }
    }

    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn clear(&mut self) {
        self.entries.clear();
    }
}

/// Observable per-router counters.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RouterCounters {
    /// UPDATE messages received.
    pub updates_rx: u64,
    /// Prefix events (announce+withdraw) received.
    pub prefix_events_rx: u64,
    /// UPDATE messages sent.
    pub updates_tx: u64,
    /// Prefix announcements sent.
    pub announce_tx: u64,
    /// Prefix withdrawals sent.
    pub withdraw_tx: u64,
    /// KEEPALIVEs sent.
    pub keepalives_tx: u64,
    /// Withdrawals received for prefixes the peer never announced.
    pub spurious_withdrawals_rx: u64,
    /// Byte-identical duplicate announcements received.
    pub duplicate_announcements_rx: u64,
    /// Announcements dropped by the AS-loop / first-AS check.
    pub validation_drops: u64,
    /// Prefix events suppressed by inbound damping.
    pub damped: u64,
    /// Session flaps (Established → down).
    pub session_flaps: u64,
    /// Forwarding-cache invalidations (route-cache architecture churn).
    pub cache_invalidations: u64,
    /// Times the router crashed under load.
    pub crashes: u64,
}

struct Peer {
    link: LinkId,
    /// Prefixes last flushed as withdrawn (only maintained when the
    /// withdrawal-storm misconfiguration is active).
    storm_set: std::collections::BTreeSet<Prefix>,
    /// Flush windows completed (storm cadence).
    flush_count: u64,
    /// Whether the first-AS check applies on this session (disabled toward
    /// transparent route servers, matching real "no enforce-first-as"
    /// client configuration).
    enforce_first_as: bool,
    asn: Asn,
    addr: Ipv4Addr,
    fsm: SessionFsm,
    adj_in: AdjRibIn,
    adj_out: Box<dyn AdjRibOut + Send>,
    mrai: MraiTimer,
    pending: PendingWindow,
    import_policy: Policy,
    export_policy: Policy,
    timer_gen: [u64; 4],
    damper: Option<RouteDamper>,
}

/// Address used as the Loc-RIB "peer" for locally originated routes.
fn local_peer_addr() -> Ipv4Addr {
    Ipv4Addr::UNSPECIFIED
}

/// The most common per-prefix cause across an UPDATE's prefixes (ties break
/// toward the lower [`Cause::index`], deterministically). `causes` is
/// sorted by prefix; prefixes with no recorded provenance count toward
/// `fallback`.
fn dominant_cause(part: &Update, causes: &[(Prefix, Cause)], fallback: Cause) -> Cause {
    let mut counts = [0usize; Cause::COUNT];
    for pfx in part.withdrawn.iter().chain(part.nlri.iter()) {
        let c = causes
            .binary_search_by_key(pfx, |(p, _)| *p)
            .map_or(fallback, |i| causes[i].1);
        counts[c.index()] += 1;
    }
    let mut best = fallback;
    let mut best_count = 0usize;
    for cause in Cause::ALL {
        let n = counts[cause.index()];
        if n > best_count {
            best = cause;
            best_count = n;
        }
    }
    best
}

/// The router.
pub struct Router {
    /// World index.
    pub id: RouterId,
    /// Static configuration.
    pub cfg: RouterConfig,
    peers: BTreeMap<RouterId, Peer>,
    /// The keys of `peers` in ascending order, kept by [`Router::add_peer`]
    /// so that walking every peer collects nothing.
    peer_order: Vec<RouterId>,
    addr_to_peer: HashMap<Ipv4Addr, RouterId>,
    loc_rib: LocRib,
    originated: BTreeMap<Prefix, PathAttributes>,
    /// Last origination attributes per prefix, remembered across
    /// withdrawals so a re-origination (e.g. a customer tail circuit
    /// coming back) announces the same route rather than a default one.
    remembered_attrs: BTreeMap<Prefix, PathAttributes>,
    /// Busy-line in **microseconds** (sub-millisecond costs accumulate).
    busy_until_us: u64,
    crashed: bool,
    /// (time, weight) of recent inbound prefix events for the crash window.
    recent_load: VecDeque<(SimTime, u32)>,
    recent_load_sum: u64,
    /// Scratch for one FSM call's actions, drained as they are applied.
    fsm_actions: Vec<Action>,
    /// Scratch for one UPDATE's validation errors.
    violations: Vec<ValidationError>,
    /// Scratch for one flush: the drained window's `(prefix, cause)` pairs
    /// in prefix order, and the Adj-RIB-Out's combined delta.
    flush_causes: Vec<(Prefix, Cause)>,
    flush_delta: ExportDelta,
    /// Observable counters.
    pub counters: RouterCounters,
}

impl Router {
    /// New router with no peers.
    #[must_use]
    pub fn new(id: RouterId, cfg: RouterConfig) -> Self {
        Router {
            id,
            cfg,
            peers: BTreeMap::new(),
            peer_order: Vec::new(),
            addr_to_peer: HashMap::new(),
            loc_rib: LocRib::new(),
            originated: BTreeMap::new(),
            remembered_attrs: BTreeMap::new(),
            busy_until_us: 0,
            crashed: false,
            recent_load: VecDeque::new(),
            recent_load_sum: 0,
            fsm_actions: Vec::new(),
            violations: Vec::new(),
            flush_causes: Vec::new(),
            flush_delta: ExportDelta::default(),
            counters: RouterCounters::default(),
        }
    }

    /// Whether the router is currently crashed.
    #[must_use]
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Read access to the Loc-RIB (for table censuses and assertions).
    #[must_use]
    pub fn loc_rib(&self) -> &LocRib {
        &self.loc_rib
    }

    /// The session FSM state toward `peer`, if configured.
    #[must_use]
    pub fn session_state(&self, peer: RouterId) -> Option<iri_session::fsm::State> {
        self.peers.get(&peer).map(|p| p.fsm.state())
    }

    /// Whether the session toward `peer` is Established.
    #[must_use]
    pub fn session_established(&self, peer: RouterId) -> bool {
        self.peers
            .get(&peer)
            .is_some_and(|p| p.fsm.is_established())
    }

    /// Peers configured on this router.
    pub fn peer_ids(&self) -> impl Iterator<Item = RouterId> + '_ {
        self.peers.keys().copied()
    }

    /// Registers a peering session (called by the world when wiring links).
    /// `peer_is_route_server` disables the first-AS check: route servers are
    /// transparent and relay paths that do not start with their own AS.
    pub fn add_peer(
        &mut self,
        peer_id: RouterId,
        link: LinkId,
        peer_asn: Asn,
        peer_addr: Ipv4Addr,
        peer_is_route_server: bool,
    ) {
        let session = SessionConfig {
            local_asn: self.cfg.asn,
            local_router_id: self.cfg.addr,
            remote_asn: peer_asn,
            hold_time_secs: self.cfg.hold_time_secs,
            connect_retry: 120_000,
        };
        let adj_out: Box<dyn AdjRibOut + Send> = match self.cfg.adj_out {
            AdjOutMode::Stateful => Box::new(StatefulAdjOut::new()),
            AdjOutMode::Stateless => Box::new(StatelessAdjOut::new()),
        };
        let damper = self.cfg.damping.clone().map(RouteDamper::new);
        self.addr_to_peer.insert(peer_addr, peer_id);
        if let Err(i) = self.peer_order.binary_search(&peer_id) {
            self.peer_order.insert(i, peer_id);
        }
        self.peers.insert(
            peer_id,
            Peer {
                link,
                storm_set: std::collections::BTreeSet::new(),
                flush_count: 0,
                enforce_first_as: !peer_is_route_server,
                asn: peer_asn,
                addr: peer_addr,
                fsm: SessionFsm::new(session),
                adj_in: AdjRibIn::new(peer_asn, peer_addr, peer_addr),
                adj_out,
                // The free-running grid phase is per-box (one interval
                // timer per router), derived deterministically from its
                // address.
                mrai: MraiTimer::with_phase(
                    self.cfg.timer_profile,
                    u64::from(u32::from(self.cfg.addr)).wrapping_mul(7919),
                ),
                pending: PendingWindow::default(),
                import_policy: Policy::accept_all(),
                export_policy: Policy::accept_all(),
                timer_gen: [0; 4],
                damper,
            },
        );
    }

    /// Overrides policies toward `peer`.
    pub fn set_policies(&mut self, peer: RouterId, import: Policy, export: Policy) {
        if let Some(p) = self.peers.get_mut(&peer) {
            p.import_policy = import;
            p.export_policy = export;
        }
    }

    /// The link carrying the session to `peer`.
    #[must_use]
    pub fn peer_link(&self, peer: RouterId) -> Option<LinkId> {
        self.peers.get(&peer).map(|p| p.link)
    }

    /// Exports the per-peer damping state into `registry`, scoped as
    /// `damping.as<local>.peer_as<remote>`. A no-op for peers without a
    /// configured damper.
    pub fn export_damping(&self, registry: &mut iri_obs::Registry, now: SimTime) {
        for p in self.peers.values() {
            if let Some(d) = &p.damper {
                let scope = format!("damping.as{}.peer_as{}", self.cfg.asn.0, p.asn.0);
                d.export_metrics(registry, &scope, now);
            }
        }
    }

    // ------------------------------------------------------------------
    // CPU model
    // ------------------------------------------------------------------

    fn consume_cpu(&mut self, now: SimTime, cost_us: u64) -> SimTime {
        let now_us = now * 1000;
        self.busy_until_us = self.busy_until_us.max(now_us) + cost_us;
        self.busy_until_us.div_ceil(1000)
    }

    fn note_load(&mut self, now: SimTime, events: u32) -> bool {
        let Some(crash) = self.cfg.crash else {
            return false;
        };
        self.recent_load.push_back((now, events));
        self.recent_load_sum += u64::from(events);
        while let Some(&(t, w)) = self.recent_load.front() {
            if t + crash.window_ms < now {
                self.recent_load.pop_front();
                self.recent_load_sum -= u64::from(w);
            } else {
                break;
            }
        }
        let threshold = u64::from(crash.updates_per_sec_threshold) * crash.window_ms / 1000;
        self.recent_load_sum > threshold.max(1)
    }

    // ------------------------------------------------------------------
    // Entry points
    // ------------------------------------------------------------------

    /// Starts (or restarts) all peering sessions.
    pub fn start_sessions(&mut self, now: SimTime, rng: &mut StdRng, effects: &mut Vec<Effect>) {
        for i in 0..self.peer_order.len() {
            let pid = self.peer_order[i];
            self.drive_fsm(pid, FsmEvent::Start, Cause::FsmReset, now, rng, effects);
        }
    }

    /// Transport toward `peer` came up or went down. `cause` names the
    /// mechanism behind a loss (link flap, CSU drift, a crashed peer…) and
    /// is propagated onto the resulting withdrawal wave.
    pub fn handle_transport(
        &mut self,
        peer: RouterId,
        up: bool,
        cause: Cause,
        now: SimTime,
        rng: &mut StdRng,
        effects: &mut Vec<Effect>,
    ) {
        if self.crashed || !self.peers.contains_key(&peer) {
            return;
        }
        let ev = if up {
            FsmEvent::TcpEstablished
        } else {
            FsmEvent::TcpClosed
        };
        let down_cause = if cause.is_known() {
            cause
        } else {
            Cause::FsmReset
        };
        self.drive_fsm(peer, ev, down_cause, now, rng, effects);
    }

    /// A timer fired.
    pub fn handle_timer(
        &mut self,
        peer: RouterId,
        kind: TimerKind,
        generation: u64,
        now: SimTime,
        rng: &mut StdRng,
        effects: &mut Vec<Effect>,
    ) {
        if self.crashed {
            return;
        }
        let Some(p) = self.peers.get_mut(&peer) else {
            return;
        };
        if p.timer_gen[kind.index()] != generation {
            return; // stale timer
        }
        let ev = match kind {
            TimerKind::Mrai => {
                if p.mrai.fire(now) {
                    self.flush_peer(peer, now, rng, effects);
                }
                return;
            }
            TimerKind::Hold => FsmEvent::HoldTimerExpired,
            TimerKind::Keepalive => FsmEvent::KeepaliveTimerFired,
            TimerKind::ConnectRetry => FsmEvent::ConnectRetryExpired,
        };
        self.drive_fsm(peer, ev, Cause::FsmReset, now, rng, effects);
    }

    /// A BGP message arrived from `peer`, carrying the provenance `cause`
    /// the sender stamped on it — relays preserve the root mechanism.
    pub fn handle_message(
        &mut self,
        peer: RouterId,
        msg: Message,
        cause: Cause,
        now: SimTime,
        rng: &mut StdRng,
        effects: &mut Vec<Effect>,
    ) {
        if self.crashed || !self.peers.contains_key(&peer) {
            return;
        }

        // Content processing for UPDATEs happens outside the FSM, but only
        // in Established.
        let established = self.peers[&peer].fsm.is_established();
        if let Message::Update(update) = &msg {
            self.counters.updates_rx += 1;
            let events = update.prefix_event_count() as u32;
            self.counters.prefix_events_rx += u64::from(events);
            let _ready =
                self.consume_cpu(now, u64::from(events).max(1) * self.cfg.cpu.update_cost_us);
            if self.note_load(now, events.max(1)) {
                self.crash(now, Cause::CpuOverload, effects);
                return;
            }
            if established {
                self.process_update(peer, update, cause, now, rng, effects);
            }
        }

        self.drive_fsm(
            peer,
            FsmEvent::MessageReceived(msg),
            Cause::FsmReset,
            now,
            rng,
            effects,
        );
    }

    /// Crashes the router immediately; `cause` is propagated to the peers'
    /// withdrawal waves.
    pub fn crash(&mut self, now: SimTime, cause: Cause, effects: &mut Vec<Effect>) {
        let reboot = self.cfg.crash.map_or(120_000, |c| c.reboot_ms);
        self.crashed = true;
        self.counters.crashes += 1;
        let load_per_sec = self
            .cfg
            .crash
            .map_or(0, |c| self.recent_load_sum * 1000 / c.window_ms.max(1));
        self.recent_load.clear();
        self.recent_load_sum = 0;
        // Everything volatile is lost.
        self.loc_rib = LocRib::new();
        for peer in self.peers.values_mut() {
            let cfg = SessionConfig {
                local_asn: self.cfg.asn,
                local_router_id: self.cfg.addr,
                remote_asn: peer.asn,
                hold_time_secs: self.cfg.hold_time_secs,
                connect_retry: 120_000,
            };
            if peer.fsm.is_established() {
                self.counters.session_flaps += 1;
            }
            peer.fsm = SessionFsm::new(cfg);
            peer.adj_in.clear_session();
            peer.adj_out.reset();
            peer.pending.clear();
            peer.mrai.cancel();
            peer.timer_gen = peer.timer_gen.map(|g| g + 1); // invalidate all timers
        }
        if cause == Cause::CpuOverload {
            effects.push(Effect::Trace(TraceKind::CpuOverload { load: load_per_sec }));
        }
        effects.push(Effect::Crashed {
            until: now + reboot,
            cause,
        });
    }

    /// Reboot finished: re-originate local routes and restart sessions.
    pub fn recover(&mut self, now: SimTime, rng: &mut StdRng, effects: &mut Vec<Effect>) {
        self.crashed = false;
        self.busy_until_us = now * 1000;
        let originated: Vec<(Prefix, PathAttributes)> = self
            .originated
            .iter()
            .map(|(p, a)| (*p, a.clone()))
            .collect();
        for (prefix, attrs) in originated {
            self.install_local(prefix, attrs);
        }
        self.start_sessions(now, rng, effects);
    }

    // ------------------------------------------------------------------
    // Origination
    // ------------------------------------------------------------------

    fn local_candidate(&self, attrs: PathAttributes) -> RouteCandidate {
        RouteCandidate {
            attrs,
            peer_asn: self.cfg.asn,
            peer_router_id: local_peer_addr(),
            peer_addr: local_peer_addr(),
        }
    }

    fn install_local(&mut self, prefix: Prefix, attrs: PathAttributes) -> BestChange {
        let mut local = attrs;
        // Locally originated routes win the decision process.
        local.local_pref = Some(1000);
        let cand = self.local_candidate(local);
        self.loc_rib.upsert(prefix, local_peer_addr(), cand)
    }

    /// Originates `prefix` locally (a customer network behind this AS) and
    /// propagates to peers. `cause` names what drove the origination (a
    /// scheduled event, a CSU-flapped access circuit coming back…).
    pub fn originate(
        &mut self,
        prefix: Prefix,
        cause: Cause,
        now: SimTime,
        rng: &mut StdRng,
        effects: &mut Vec<Effect>,
    ) {
        if self.crashed {
            return;
        }
        let attrs = match self.remembered_attrs.get(&prefix) {
            Some(attrs) => attrs.clone(),
            None => {
                let attrs = PathAttributes::new(
                    iri_bgp::attrs::Origin::Igp,
                    AsPath::empty(),
                    self.cfg.addr,
                );
                self.remembered_attrs.insert(prefix, attrs.clone());
                attrs
            }
        };
        self.originated.insert(prefix, attrs.clone());
        let change = self.install_local(prefix, attrs);
        self.propagate_change(prefix, &change, cause, now, rng, effects);
    }

    /// Originates `prefix` with explicit extra attributes (for policy-
    /// fluctuation experiments: changing MED/communities at the source).
    pub fn originate_with(
        &mut self,
        prefix: Prefix,
        attrs: PathAttributes,
        cause: Cause,
        now: SimTime,
        rng: &mut StdRng,
        effects: &mut Vec<Effect>,
    ) {
        if self.crashed {
            return;
        }
        self.originated.insert(prefix, attrs.clone());
        self.remembered_attrs.insert(prefix, attrs.clone());
        let change = self.install_local(prefix, attrs);
        self.propagate_change(prefix, &change, cause, now, rng, effects);
    }

    /// Withdraws a locally originated prefix.
    pub fn withdraw_origin(
        &mut self,
        prefix: Prefix,
        cause: Cause,
        now: SimTime,
        rng: &mut StdRng,
        effects: &mut Vec<Effect>,
    ) {
        if self.crashed {
            return;
        }
        self.originated.remove(&prefix);
        let change = self.loc_rib.withdraw(prefix, local_peer_addr());
        self.propagate_change(prefix, &change, cause, now, rng, effects);
    }

    // ------------------------------------------------------------------
    // Update processing pipeline
    // ------------------------------------------------------------------

    fn process_update(
        &mut self,
        from: RouterId,
        update: &Update,
        cause: Cause,
        now: SimTime,
        rng: &mut StdRng,
        effects: &mut Vec<Effect>,
    ) {
        // 1. Protocol validation (loop check, first-AS). The UPDATE is
        // borrowed; only the rare rewrites below copy it.
        let peer_asn = self.peers[&from].asn;
        let ctx = PeerContext {
            local_asn: self.cfg.asn,
            remote_asn: peer_asn,
            ebgp: true,
        };
        validate_update(&ctx, update, &mut self.violations);
        let enforce_first_as = self.peers[&from].enforce_first_as;
        let drop_announcements = self.violations.drain(..).any(|v| match v {
            ValidationError::AsPathLoop(_) | ValidationError::BadNextHop(_) => true,
            ValidationError::FirstAsMismatch { .. } => enforce_first_as,
            _ => false,
        });
        let mut update = Cow::Borrowed(update);
        if drop_announcements {
            self.counters.validation_drops += update.nlri.len() as u64;
            update = Cow::Owned(Update::withdraw(update.withdrawn.iter().copied()));
        }

        // 2. Inbound damping.
        if self.peers[&from].damper.is_some() {
            let mut keep_nlri = Vec::new();
            let mut keep_wd = Vec::new();
            {
                let p = self.peers.get_mut(&from).expect("checked");
                let damper = p.damper.as_mut().expect("checked");
                for &pfx in &update.withdrawn {
                    match damper.record_flap(pfx, FlapKind::Withdrawal, now) {
                        DampingVerdict::Pass => keep_wd.push(pfx),
                        DampingVerdict::Suppressed { reuse_at } => {
                            effects.push(Effect::Trace(TraceKind::DampingSuppressed {
                                prefix: pfx.to_string(),
                                reuse_at,
                            }));
                        }
                    }
                }
                for &pfx in &update.nlri {
                    match damper.record_flap(pfx, FlapKind::Announcement, now) {
                        DampingVerdict::Pass => keep_nlri.push(pfx),
                        DampingVerdict::Suppressed { reuse_at } => {
                            effects.push(Effect::Trace(TraceKind::DampingSuppressed {
                                prefix: pfx.to_string(),
                                reuse_at,
                            }));
                        }
                    }
                }
            }
            let dropped =
                (update.withdrawn.len() - keep_wd.len()) + (update.nlri.len() - keep_nlri.len());
            self.counters.damped += dropped as u64;
            let attrs = if keep_nlri.is_empty() {
                None
            } else {
                update.attrs.clone()
            };
            update = Cow::Owned(Update {
                withdrawn: keep_wd,
                attrs,
                nlri: keep_nlri,
            });
        }

        // 3. Adj-RIB-In.
        let peer_addr = self.peers[&from].addr;
        let delta = {
            let p = self.peers.get_mut(&from).expect("checked");
            p.adj_in.apply(&update)
        };
        self.counters.spurious_withdrawals_rx += delta.spurious_withdrawals as u64;
        self.counters.duplicate_announcements_rx += delta.duplicate_announcements as u64;

        // 4. Loc-RIB + propagation.
        for prefix in delta.withdrawn {
            let change = self.loc_rib.withdraw(prefix, peer_addr);
            self.propagate_change(prefix, &change, cause, now, rng, effects);
        }
        for prefix in delta.changed {
            // Import policy (may rewrite attributes or filter); its output
            // is the copy the Loc-RIB keeps.
            let imported = {
                let p = &self.peers[&from];
                let cand = p.adj_in.get(prefix).expect("just changed");
                p.import_policy
                    .apply(prefix, &cand.attrs, self.cfg.asn)
                    .map(|attrs| RouteCandidate {
                        attrs,
                        peer_asn: cand.peer_asn,
                        peer_router_id: cand.peer_router_id,
                        peer_addr: cand.peer_addr,
                    })
            };
            let change = match imported {
                Some(cand) => self.loc_rib.upsert(prefix, peer_addr, cand),
                None => self.loc_rib.withdraw(prefix, peer_addr),
            };
            self.propagate_change(prefix, &change, cause, now, rng, effects);
        }
    }

    /// Queues exports for a Loc-RIB best change and accounts forwarding-
    /// cache churn. `change` carries both the new best (what the Loc-RIB
    /// now holds for `prefix`) and the old one, so nothing is copied here.
    fn propagate_change(
        &mut self,
        prefix: Prefix,
        change: &BestChange,
        cause: Cause,
        now: SimTime,
        rng: &mut StdRng,
        effects: &mut Vec<Effect>,
    ) {
        // Where the best route now points, and the pre-change best for
        // window-start tracking.
        let (best, old_best) = match change {
            BestChange::Unchanged => return,
            BestChange::NewBest(new) => (Some(new), None),
            BestChange::Replaced { old, new } => (Some(&**new), Some(&**old)),
            BestChange::Unreachable(old) => (None, Some(old)),
        };
        // Route-cache architecture: every forwarding change invalidates the
        // interface-card cache entry (§3).
        self.counters.cache_invalidations += 1;

        // The peer the *current best* was learned from must not have the
        // route echoed back.
        let best_from = best.and_then(|b| self.addr_to_peer.get(&b.peer_addr).copied());
        // A window's start state only decides whether a stateless export
        // sends an explicit withdrawal ahead of its announcement; a
        // stateful Adj-RIB-Out never reads it, so it is not computed.
        let track_window_start = self.cfg.adj_out == AdjOutMode::Stateless;

        for i in 0..self.peer_order.len() {
            let pid = self.peer_order[i];
            let p = &self.peers[&pid];
            if !p.fsm.is_established() {
                continue;
            }
            // Split horizon: never advertise a route back to the peer the
            // current best was learned from. Withdrawals (no best) go to
            // everyone; stateful peers suppress the never-announced ones.
            if best.is_some() && best_from == Some(pid) {
                continue;
            }
            // What this peer was (nominally) being advertised before this
            // change — seeds the window-start when the window opens here.
            // An open window keeps its own start, so none is computed.
            let start_hint = if track_window_start && !p.pending.contains(prefix) {
                old_best.and_then(|old| self.export_attrs(pid, prefix, &old.attrs))
            } else {
                None
            };
            let exported = best.and_then(|b| self.export_attrs(pid, prefix, &b.attrs));
            let pending = match exported {
                Some(attrs) => PendingExport::Announce {
                    attrs,
                    window_start: start_hint,
                    cause,
                },
                None => PendingExport::Withdraw {
                    window_start: start_hint,
                    cause,
                },
            };
            self.queue_pending(pid, prefix, pending, now, rng, effects);
        }
    }

    /// Computes post-policy attributes toward `peer` (prepend + next-hop
    /// rewrite for border routers; transparent for route servers). The
    /// policy's output is the one copy made; the prepend edits it in place.
    fn export_attrs(
        &self,
        peer: RouterId,
        prefix: Prefix,
        attrs: &PathAttributes,
    ) -> Option<PathAttributes> {
        let p = &self.peers[&peer];
        let mut out = p.export_policy.apply(prefix, attrs, self.cfg.asn)?;
        match self.cfg.role {
            Role::Border => {
                out.as_path.prepend(self.cfg.asn);
                out.next_hop = self.cfg.addr;
                out.local_pref = None; // LOCAL_PREF is not carried over EBGP
            }
            Role::RouteServer => {
                // Transparent: path and next hop pass through unchanged.
                out.local_pref = None;
            }
        }
        Some(out)
    }

    fn queue_pending(
        &mut self,
        peer: RouterId,
        prefix: Prefix,
        action: PendingExport,
        now: SimTime,
        rng: &mut StdRng,
        effects: &mut Vec<Effect>,
    ) {
        let p = self.peers.get_mut(&peer).expect("exists");
        p.pending.queue(prefix, action);
        if p.mrai.is_immediate() {
            self.flush_peer(peer, now, rng, effects);
        } else {
            let was_armed = p.mrai.deadline().is_some();
            let at = p.mrai.arm(now, rng);
            if !was_armed {
                p.timer_gen[TimerKind::Mrai.index()] += 1;
                effects.push(Effect::ArmTimer {
                    peer,
                    kind: TimerKind::Mrai,
                    at,
                    generation: p.timer_gen[TimerKind::Mrai.index()],
                });
            }
        }
    }

    /// Flushes the pending window toward `peer` through its Adj-RIB-Out and
    /// emits the wire messages.
    fn flush_peer(
        &mut self,
        peer: RouterId,
        now: SimTime,
        rng: &mut StdRng,
        effects: &mut Vec<Effect>,
    ) {
        let storm = self.cfg.withdrawal_storm;
        let p = self.peers.get_mut(&peer).expect("exists");
        if !p.fsm.is_established() {
            p.pending.clear();
            return;
        }
        p.flush_count += 1;
        // The storm bug: periodically re-queue a blind withdrawal for
        // everything this box thinks is withdrawn. Nothing changed in the
        // RIB — these exist solely because the timer fired.
        if let Some(n) = storm {
            if p.flush_count.is_multiple_of(u64::from(n.max(1))) {
                for &prefix in &p.storm_set {
                    p.pending.queue_if_absent(
                        prefix,
                        PendingExport::Withdraw {
                            window_start: None,
                            cause: Cause::TimerInterval,
                        },
                    );
                }
            }
        }
        if p.pending.is_empty() {
            // Keep the storm heartbeat alive even through idle windows.
            if storm.is_some() && !p.storm_set.is_empty() {
                self.rearm_mrai(peer, now, rng, effects);
            }
            return;
        }
        let mut causes = std::mem::take(&mut self.flush_causes);
        let mut total = std::mem::take(&mut self.flush_delta);
        {
            let p = self.peers.get_mut(&peer).expect("exists");
            for (prefix, action) in p.pending.entries.drain(..) {
                causes.push((prefix, action.cause()));
                let event = match action {
                    PendingExport::Announce {
                        attrs,
                        window_start,
                        ..
                    } => {
                        // A window whose net effect returned to (or stayed
                        // at) its start state is the §4.2 duplicate-
                        // announcement squash; a persisted change is an
                        // implicit withdrawal the stateless implementation
                        // propagates explicitly.
                        let replaced = window_start.as_ref().is_some_and(|start| *start != attrs);
                        ExportEvent::Reachable { attrs, replaced }
                    }
                    PendingExport::Withdraw { .. } => ExportEvent::Unreachable,
                };
                if storm.is_some() {
                    match &event {
                        ExportEvent::Unreachable => {
                            p.storm_set.insert(prefix);
                        }
                        ExportEvent::Reachable { .. } => {
                            p.storm_set.remove(&prefix);
                        }
                    }
                }
                p.adj_out.on_export(prefix, &event, &mut total);
            }
        }
        self.send_delta(peer, &mut total, now, &causes, Cause::Unknown, effects);
        causes.clear();
        self.flush_causes = causes;
        self.flush_delta = total;
        if storm.is_some() && !self.peers[&peer].storm_set.is_empty() {
            self.rearm_mrai(peer, now, rng, effects);
        }
    }

    /// Arms the MRAI timer for the next window (storm heartbeat).
    fn rearm_mrai(
        &mut self,
        peer: RouterId,
        now: SimTime,
        rng: &mut StdRng,
        effects: &mut Vec<Effect>,
    ) {
        let p = self.peers.get_mut(&peer).expect("exists");
        if p.mrai.deadline().is_none() && !p.mrai.is_immediate() {
            let at = p.mrai.arm(now + 1, rng);
            p.timer_gen[TimerKind::Mrai.index()] += 1;
            effects.push(Effect::ArmTimer {
                peer,
                kind: TimerKind::Mrai,
                at,
                generation: p.timer_gen[TimerKind::Mrai.index()],
            });
        }
    }

    /// Packages an [`ExportDelta`] into UPDATE messages and emits them,
    /// leaving `delta` empty. Each wire UPDATE is stamped with the dominant
    /// per-prefix cause from `causes` (sorted by prefix; `fallback` covers
    /// prefixes with no recorded provenance, e.g. the initial table dump).
    fn send_delta(
        &mut self,
        peer: RouterId,
        delta: &mut ExportDelta,
        now: SimTime,
        causes: &[(Prefix, Cause)],
        fallback: Cause,
        effects: &mut Vec<Effect>,
    ) {
        if delta.is_empty() {
            return;
        }
        // Group announcements by identical attributes (one UPDATE each).
        let mut groups: Vec<(PathAttributes, Vec<Prefix>)> = Vec::new();
        for (prefix, attrs) in delta.announce.drain(..) {
            match groups.iter_mut().find(|(a, _)| *a == attrs) {
                Some((_, v)) => v.push(prefix),
                None => groups.push((attrs, vec![prefix])),
            }
        }
        if !delta.withdraw.is_empty() {
            let withdraw = Update::withdraw(std::mem::take(&mut delta.withdraw));
            self.send_update(peer, withdraw, now, causes, fallback, effects);
        }
        for (attrs, prefixes) in groups {
            self.send_update(
                peer,
                Update::announce(attrs, prefixes),
                now,
                causes,
                fallback,
                effects,
            );
        }
    }

    /// Emits `update`, split into wire-legal parts only when it does not
    /// fit one message.
    fn send_update(
        &mut self,
        peer: RouterId,
        update: Update,
        now: SimTime,
        causes: &[(Prefix, Cause)],
        fallback: Cause,
        effects: &mut Vec<Effect>,
    ) {
        if fits_one_message(&update) {
            self.emit_update(peer, update, now, causes, fallback, effects);
        } else {
            for part in split_update(&update) {
                self.emit_update(peer, part, now, causes, fallback, effects);
            }
        }
    }

    fn emit_update(
        &mut self,
        peer: RouterId,
        part: Update,
        now: SimTime,
        causes: &[(Prefix, Cause)],
        fallback: Cause,
        effects: &mut Vec<Effect>,
    ) {
        if part.is_empty() {
            return;
        }
        let events = part.prefix_event_count() as u64;
        self.counters.updates_tx += 1;
        self.counters.announce_tx += part.nlri.len() as u64;
        self.counters.withdraw_tx += part.withdrawn.len() as u64;
        let cause = dominant_cause(&part, causes, fallback);
        let ready_at = self.consume_cpu(now, events.max(1) * self.cfg.cpu.update_cost_us);
        effects.push(Effect::Send {
            peer,
            msg: Message::Update(part),
            ready_at,
            cause,
        });
    }

    // ------------------------------------------------------------------
    // FSM action plumbing
    // ------------------------------------------------------------------

    /// Feeds `event` to the session FSM toward `peer` and applies the
    /// actions it produces, through the router's own action buffer.
    /// `down_cause` is stamped on the withdrawal wave if an action takes the
    /// session down.
    fn drive_fsm(
        &mut self,
        peer: RouterId,
        event: FsmEvent,
        down_cause: Cause,
        now: SimTime,
        rng: &mut StdRng,
        effects: &mut Vec<Effect>,
    ) {
        let mut actions = std::mem::take(&mut self.fsm_actions);
        self.peers
            .get_mut(&peer)
            .expect("configured peer")
            .fsm
            .handle(event, &mut actions);
        for action in actions.drain(..) {
            match action {
                Action::OpenConnection => effects.push(Effect::OpenConnection { peer }),
                Action::CloseConnection => {
                    // Transport teardown is implicit in this model; the far
                    // end notices via its own FSM events.
                }
                Action::Send(msg) => {
                    let ready_at = match &msg {
                        Message::Keepalive if self.cfg.cpu.keepalive_priority => now,
                        Message::Keepalive => {
                            self.counters.keepalives_tx += 1;
                            self.consume_cpu(now, 10)
                        }
                        _ => self.consume_cpu(now, 50),
                    };
                    if matches!(msg, Message::Keepalive) && self.cfg.cpu.keepalive_priority {
                        self.counters.keepalives_tx += 1;
                    }
                    effects.push(Effect::Send {
                        peer,
                        msg,
                        ready_at,
                        cause: Cause::Unknown,
                    });
                }
                Action::ArmHoldTimer(d) => {
                    self.arm_timer(peer, TimerKind::Hold, now + d, effects);
                }
                Action::ArmKeepaliveTimer(d) => {
                    self.arm_timer(peer, TimerKind::Keepalive, now + d, effects);
                }
                Action::ArmConnectRetry(d) => {
                    self.arm_timer(peer, TimerKind::ConnectRetry, now + d, effects);
                }
                Action::SessionUp => {
                    self.on_session_up(peer, now, effects);
                }
                Action::SessionDown(_) => {
                    self.on_session_down(peer, down_cause, now, rng, effects);
                }
            }
        }
        self.fsm_actions = actions;
    }

    fn arm_timer(
        &mut self,
        peer: RouterId,
        kind: TimerKind,
        at: SimTime,
        effects: &mut Vec<Effect>,
    ) {
        let p = self.peers.get_mut(&peer).expect("exists");
        p.timer_gen[kind.index()] += 1;
        effects.push(Effect::ArmTimer {
            peer,
            kind,
            at,
            generation: p.timer_gen[kind.index()],
        });
    }

    /// Session established: transmit the full table ("large state dump").
    fn on_session_up(&mut self, peer: RouterId, now: SimTime, effects: &mut Vec<Effect>) {
        let peer_addr = self.peers[&peer].addr;
        let exported: Vec<(Prefix, PathAttributes)> = self
            .loc_rib
            .iter_best()
            .filter(|(_, best)| best.peer_addr != peer_addr)
            .filter_map(|(prefix, best)| {
                self.export_attrs(peer, prefix, &best.attrs)
                    .map(|a| (prefix, a))
            })
            .collect();
        let mut delta = {
            let p = self.peers.get_mut(&peer).expect("exists");
            p.adj_out.initial_dump(&exported)
        };
        self.send_delta(peer, &mut delta, now, &[], Cause::InitialDump, effects);
    }

    /// Session lost: all the peer's routes are withdrawn and the change
    /// propagates — the storm amplification step. `cause` names what killed
    /// the session.
    fn on_session_down(
        &mut self,
        peer: RouterId,
        cause: Cause,
        now: SimTime,
        rng: &mut StdRng,
        effects: &mut Vec<Effect>,
    ) {
        self.counters.session_flaps += 1;
        let peer_addr = {
            let p = self.peers.get_mut(&peer).expect("exists");
            p.adj_in.clear_session();
            p.adj_out.reset();
            p.pending.clear();
            p.mrai.cancel();
            // Invalidate hold/keepalive/MRAI timers; connect-retry stays.
            for kind in [TimerKind::Hold, TimerKind::Keepalive, TimerKind::Mrai] {
                p.timer_gen[kind.index()] += 1;
            }
            p.addr
        };
        let changes = self.loc_rib.drop_peer(peer_addr);
        for (prefix, change) in changes {
            self.propagate_change(prefix, &change, cause, now, rng, effects);
        }
    }
}

/// The spillable bulk of one router: every O(table-size) structure, as
/// flat rows. Transient state — session FSMs, timers, pending flush
/// windows, dampers, counters — stays resident (it is O(peers), not
/// O(prefixes)), so a spilled router keeps its protocol position and
/// only its tables round-trip through the [`crate::spill`] store.
#[derive(Serialize, Deserialize)]
pub struct RibImage {
    /// Loc-RIB candidates as `(prefix, contributing peer, candidate)`;
    /// best selections are recomputed deterministically on import.
    pub loc_rib: Vec<(Prefix, Ipv4Addr, RouteCandidate)>,
    /// Locally originated prefixes with their attributes.
    pub originated: Vec<(Prefix, PathAttributes)>,
    /// Remembered re-origination attributes.
    pub remembered: Vec<(Prefix, PathAttributes)>,
    /// Per-peer table images, keyed by peer router id.
    pub peers: Vec<PeerImage>,
}

/// One peering session's spillable tables.
#[derive(Serialize, Deserialize)]
pub struct PeerImage {
    /// The peer's router id.
    pub peer: RouterId,
    /// Adj-RIB-In rows.
    pub adj_in: Vec<(Prefix, RouteCandidate)>,
    /// Adj-RIB-Out wire state (empty for stateless implementations).
    pub adj_out: Vec<(Prefix, PathAttributes)>,
}

impl RibImage {
    /// Total rows across all tables (sizing diagnostics).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.loc_rib.len()
            + self.originated.len()
            + self.remembered.len()
            + self
                .peers
                .iter()
                .map(|p| p.adj_in.len() + p.adj_out.len())
                .sum::<usize>()
    }
}

impl Router {
    /// Extracts the router's bulk RIB state, leaving the tables empty
    /// (the spill step). The router must not process events until
    /// [`Router::import_rib_image`] restores it.
    pub fn export_rib_image(&mut self) -> RibImage {
        let loc_rib = self.loc_rib.export_candidates();
        self.loc_rib = LocRib::new();
        let originated: Vec<(Prefix, PathAttributes)> =
            std::mem::take(&mut self.originated).into_iter().collect();
        let remembered: Vec<(Prefix, PathAttributes)> = std::mem::take(&mut self.remembered_attrs)
            .into_iter()
            .collect();
        let peers = self
            .peers
            .iter_mut()
            .map(|(&peer, p)| {
                let adj_in = p.adj_in.export_routes();
                p.adj_in.import_routes(Vec::new());
                let adj_out = p.adj_out.export_advertised();
                p.adj_out.import_advertised(Vec::new());
                PeerImage {
                    peer,
                    adj_in,
                    adj_out,
                }
            })
            .collect();
        RibImage {
            loc_rib,
            originated,
            remembered,
            peers,
        }
    }

    /// Restores bulk RIB state extracted by [`Router::export_rib_image`].
    /// The Loc-RIB decision process is deterministic, so best routes (and
    /// the reachable count) reconstruct exactly.
    pub fn import_rib_image(&mut self, image: RibImage) {
        self.loc_rib = LocRib::new();
        self.loc_rib.import_candidates(image.loc_rib);
        self.originated = image.originated.into_iter().collect();
        self.remembered_attrs = image.remembered.into_iter().collect();
        for pi in image.peers {
            if let Some(p) = self.peers.get_mut(&pi.peer) {
                p.adj_in.import_routes(pi.adj_in);
                p.adj_out.import_advertised(pi.adj_out);
            }
        }
    }

    /// Rows currently held across this router's bulk tables (what a spill
    /// would write).
    #[must_use]
    pub fn rib_rows(&self) -> usize {
        self.loc_rib.reachable_count()
            + self.originated.len()
            + self.remembered_attrs.len()
            + self
                .peers
                .values()
                .map(|p| p.adj_in.len() + p.adj_out.advertised_count())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn router(asn: u32) -> Router {
        Router::new(
            RouterId(asn),
            RouterConfig::well_behaved(
                &format!("AS{asn}"),
                Asn(asn),
                Ipv4Addr::new(192, 41, 177, asn as u8),
            ),
        )
    }

    #[test]
    fn add_peer_and_start_emits_open_connection() {
        let mut r = router(1);
        r.add_peer(
            RouterId(2),
            LinkId(0),
            Asn(2),
            Ipv4Addr::new(192, 41, 177, 2),
            false,
        );
        let mut fx = Vec::new();
        r.start_sessions(0, &mut rng(), &mut fx);
        assert!(fx
            .iter()
            .any(|f| matches!(f, Effect::OpenConnection { peer } if *peer == RouterId(2))));
        assert_eq!(
            r.session_state(RouterId(2)),
            Some(iri_session::fsm::State::Connect)
        );
    }

    #[test]
    fn originate_before_session_is_silent() {
        let mut r = router(1);
        r.add_peer(
            RouterId(2),
            LinkId(0),
            Asn(2),
            Ipv4Addr::new(192, 41, 177, 2),
            false,
        );
        let mut fx = Vec::new();
        r.originate(
            "10.0.0.0/8".parse().unwrap(),
            Cause::Origination,
            0,
            &mut rng(),
            &mut fx,
        );
        // No established session: nothing to send, but Loc-RIB has it.
        assert!(fx.iter().all(|f| !matches!(f, Effect::Send { .. })));
        assert_eq!(r.loc_rib().reachable_count(), 1);
    }

    #[test]
    fn cpu_accumulates_microseconds() {
        let mut r = router(1);
        // 200 µs × 4 = 800 µs → still within ms 1.
        let t1 = r.consume_cpu(0, 800);
        assert_eq!(t1, 1);
        let t2 = r.consume_cpu(0, 800);
        assert_eq!(t2, 2, "costs must accumulate, not reset per call");
    }

    #[test]
    fn crash_model_triggers_and_recovers() {
        let mut r = router(1);
        r.cfg.crash = Some(CrashModel {
            updates_per_sec_threshold: 100,
            window_ms: 1000,
            reboot_ms: 5000,
        });
        r.add_peer(
            RouterId(2),
            LinkId(0),
            Asn(2),
            Ipv4Addr::new(192, 41, 177, 2),
            false,
        );
        // Feed far more than 100 events in the window.
        let mut crashed_at = None;
        for i in 0..50 {
            let update = Update::withdraw(
                (0..10u32).map(|k| Prefix::from_raw(0x0a00_0000 | ((i * 10 + k) << 8), 24)),
            );
            let mut fx = Vec::new();
            r.handle_message(
                RouterId(2),
                Message::Update(update),
                Cause::Withdrawal,
                i as SimTime,
                &mut rng(),
                &mut fx,
            );
            if fx.iter().any(|f| matches!(f, Effect::Crashed { .. })) {
                crashed_at = Some(i);
                break;
            }
        }
        assert!(crashed_at.is_some(), "router must crash under 500 events/s");
        assert!(r.is_crashed());
        assert_eq!(r.counters.crashes, 1);
        // Messages while crashed are ignored.
        let mut fx = Vec::new();
        r.handle_message(
            RouterId(2),
            Message::Keepalive,
            Cause::Unknown,
            100,
            &mut rng(),
            &mut fx,
        );
        assert!(fx.is_empty());
        // Recovery restarts sessions.
        r.recover(6000, &mut rng(), &mut fx);
        assert!(!r.is_crashed());
        assert!(fx
            .iter()
            .any(|f| matches!(f, Effect::OpenConnection { .. })));
    }

    #[test]
    fn counters_track_rx() {
        let mut r = router(1);
        r.add_peer(
            RouterId(2),
            LinkId(0),
            Asn(2),
            Ipv4Addr::new(192, 41, 177, 2),
            false,
        );
        let update = Update::withdraw(["10.0.0.0/8".parse().unwrap()]);
        r.handle_message(
            RouterId(2),
            Message::Update(update),
            Cause::Withdrawal,
            0,
            &mut rng(),
            &mut Vec::new(),
        );
        assert_eq!(r.counters.updates_rx, 1);
        assert_eq!(r.counters.prefix_events_rx, 1);
    }

    #[test]
    fn dominant_cause_picks_majority_with_stable_ties() {
        let p1: Prefix = "10.0.0.0/8".parse().unwrap();
        let p2: Prefix = "10.1.0.0/16".parse().unwrap();
        let p3: Prefix = "10.2.0.0/16".parse().unwrap();
        let causes = [
            (p1, Cause::TimerInterval),
            (p2, Cause::TimerInterval),
            (p3, Cause::CsuDrift),
        ];
        let part = Update::withdraw([p1, p2, p3]);
        assert_eq!(
            dominant_cause(&part, &causes, Cause::Unknown),
            Cause::TimerInterval
        );
        // Tie: LinkFlap (index 3) beats TimerInterval (index 7).
        let causes = [
            (p1, Cause::TimerInterval),
            (p2, Cause::LinkFlap),
            (p3, Cause::LinkFlap),
        ];
        let two = Update::withdraw([p1, p2]);
        assert_eq!(
            dominant_cause(&two, &causes, Cause::Unknown),
            Cause::LinkFlap
        );
        // Unmapped prefixes take the fallback.
        let unmapped = Update::withdraw(["172.16.0.0/12".parse().unwrap()]);
        assert_eq!(
            dominant_cause(&unmapped, &causes, Cause::InitialDump),
            Cause::InitialDump
        );
    }

    /// What a pending entry says, for comparing windows.
    type Net = (
        Prefix,
        Option<PathAttributes>,
        Option<PathAttributes>,
        Cause,
    );

    fn net(prefix: Prefix, action: &PendingExport) -> Net {
        match action {
            PendingExport::Announce {
                attrs,
                window_start,
                cause,
            } => (prefix, Some(attrs.clone()), window_start.clone(), *cause),
            PendingExport::Withdraw {
                window_start,
                cause,
            } => (prefix, None, window_start.clone(), *cause),
        }
    }

    /// The window as it was before it became a sorted `Vec`: a `BTreeMap`
    /// whose merge removes the entry, clones its start, and re-inserts.
    fn model_queue(
        model: &mut BTreeMap<Prefix, PendingExport>,
        prefix: Prefix,
        action: PendingExport,
    ) {
        let entry = match model.remove(&prefix) {
            Some(existing) => {
                let window_start = match &existing {
                    PendingExport::Announce { window_start, .. }
                    | PendingExport::Withdraw { window_start, .. } => window_start.clone(),
                };
                let cause = if existing.cause().is_known() {
                    existing.cause()
                } else {
                    action.cause()
                };
                match action {
                    PendingExport::Announce { attrs, .. } => PendingExport::Announce {
                        attrs,
                        window_start,
                        cause,
                    },
                    PendingExport::Withdraw { .. } => PendingExport::Withdraw {
                        window_start,
                        cause,
                    },
                }
            }
            None => action,
        };
        model.insert(prefix, entry);
    }

    #[test]
    fn pending_window_squashes_and_drains_in_btreemap_order() {
        use rand::Rng;
        let mut draw = StdRng::seed_from_u64(7);
        let attrs = |n: u32| {
            PathAttributes::new(
                iri_bgp::attrs::Origin::Igp,
                AsPath::from_sequence((0..=n % 3).map(|h| Asn(64_512 + h))),
                Ipv4Addr::new(10, 0, 0, 1),
            )
        };
        let causes = [Cause::Unknown, Cause::LinkFlap, Cause::CsuDrift];
        let mut window = PendingWindow::default();
        for round in 0..200 {
            let mut model = BTreeMap::new();
            let ops = draw.random_range(0..40);
            for _ in 0..ops {
                // A small universe of prefixes, so most windows squash.
                let prefix =
                    Prefix::from_raw(0x0a00_0000 | (draw.random_range(0..12u32) << 12), 20);
                let start = match draw.random_range(0..3u32) {
                    0 => None,
                    n => Some(attrs(n)),
                };
                let cause = causes[draw.random_range(0..3usize)];
                let action = if draw.random_bool(0.6) {
                    PendingExport::Announce {
                        attrs: attrs(draw.random_range(0..4)),
                        window_start: start,
                        cause,
                    }
                } else {
                    PendingExport::Withdraw {
                        window_start: start,
                        cause,
                    }
                };
                if draw.random_bool(0.1) {
                    // The storm's blind re-queue leaves an open entry alone.
                    model.entry(prefix).or_insert_with(|| action.clone());
                    window.queue_if_absent(prefix, action);
                } else {
                    model_queue(&mut model, prefix, action.clone());
                    window.queue(prefix, action);
                }
            }
            let want: Vec<Net> = model.iter().map(|(p, a)| net(*p, a)).collect();
            let got: Vec<Net> = window.entries.drain(..).map(|(p, a)| net(p, &a)).collect();
            assert_eq!(got, want, "round {round}");
            assert!(window.is_empty());
        }
    }

    #[test]
    fn stateless_config_builds_stateless_adj_out() {
        let cfg = RouterConfig::pathological("P", Asn(9), Ipv4Addr::new(1, 1, 1, 9));
        assert_eq!(cfg.adj_out, AdjOutMode::Stateless);
        assert_eq!(cfg.timer_profile, TimerProfile::pathological_30s());
    }

    #[test]
    fn route_server_config_is_transparent_profile() {
        let cfg = RouterConfig::route_server("RS", Asn(237), Ipv4Addr::new(1, 1, 1, 1));
        assert_eq!(cfg.role, Role::RouteServer);
        assert!(cfg.crash.is_none());
        assert!(cfg.cpu.keepalive_priority);
    }
}
