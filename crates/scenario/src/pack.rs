//! Scenario packs: versioned, data-driven workload descriptions.
//!
//! A pack is one TOML (or JSON) file describing everything a run needs —
//! topology generator parameters, workload event mix, fault/pathology
//! schedules with deterministic seeded draws, monitor placement, duration,
//! detector tuning, memory limits, and the **expected-incident ground
//! truth** the run is scored against. Workloads become data, not code:
//! `run_scenario --pack packs/worm_outbreak.toml`.
//!
//! Parsing is **strict**: any key the schema does not know is an error
//! naming the field and its section, so a typo (`prefices = 40`) fails
//! loudly instead of silently running the default. `format_version` gates
//! future schema evolution.
//!
//! This module is also the single source of truth for scenario
//! construction defaults: `run_scenario`, `mrtgen --pack`, and the
//! fig/table experiment harness all derive their [`GraphConfig`] /
//! [`ScenarioConfig`] (or synthetic-log config) through it.

use crate::toml;
use iri_netsim::ExchangePoint;
use iri_obs::incident::IncidentKind;
use iri_topology::asgraph::GraphConfig;
use iri_topology::scenario::{IncidentSpec, ScenarioConfig};
use serde::Value;
use std::fmt;
use std::path::Path;

/// The one schema version this build reads and writes.
pub const FORMAT_VERSION: u64 = 1;

/// Master seed a pack gets when `[pack] seed` is omitted ("mae_" in
/// ASCII). Also the anchor of the graph-seed derivation: at this seed
/// the derived graph equals the legacy scaled default.
pub const DEFAULT_PACK_SEED: u64 = 0x6d61_655f;

/// `[run] chunk_minutes` when a pack omits it; the figure harness steps
/// its days at this length too.
pub const DEFAULT_CHUNK_MINUTES: u32 = 10;

/// A pack-file problem: syntax, schema, or semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackError {
    /// Human-readable description (includes section/field context).
    pub message: String,
}

impl PackError {
    fn new(message: impl Into<String>) -> Self {
        PackError {
            message: message.into(),
        }
    }
}

impl fmt::Display for PackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for PackError {}

// ---------------------------------------------------------------------
// Strict section reader
// ---------------------------------------------------------------------

/// Walks one `Value::Map`, tracking which keys were consumed so the
/// leftovers can be rejected **by name** — the derive machinery silently
/// ignores unknown fields, which is exactly wrong for config files.
struct Section<'a> {
    ctx: String,
    entries: &'a [(String, Value)],
    used: Vec<bool>,
}

impl<'a> Section<'a> {
    fn new(ctx: &str, v: &'a Value) -> Result<Self, PackError> {
        let entries = v
            .as_map()
            .ok_or_else(|| PackError::new(format!("{ctx}: expected a table")))?;
        Ok(Section {
            ctx: ctx.to_owned(),
            entries,
            used: vec![false; entries.len()],
        })
    }

    fn take(&mut self, key: &str) -> Option<&'a Value> {
        for (i, (k, v)) in self.entries.iter().enumerate() {
            if k == key {
                self.used[i] = true;
                return Some(v);
            }
        }
        None
    }

    fn u64(&mut self, key: &str, default: u64) -> Result<u64, PackError> {
        match self.take(key) {
            None => Ok(default),
            Some(v) => as_u64(v).ok_or_else(|| self.type_err(key, "an unsigned integer", v)),
        }
    }

    fn u32(&mut self, key: &str, default: u32) -> Result<u32, PackError> {
        let v = self.u64(key, u64::from(default))?;
        u32::try_from(v)
            .map_err(|_| PackError::new(format!("{}: `{key}` = {v} exceeds u32", self.ctx)))
    }

    fn usize(&mut self, key: &str, default: usize) -> Result<usize, PackError> {
        Ok(self.u64(key, default as u64)? as usize)
    }

    fn f64(&mut self, key: &str, default: f64) -> Result<f64, PackError> {
        match self.take(key) {
            None => Ok(default),
            Some(v) => as_f64(v).ok_or_else(|| self.type_err(key, "a number", v)),
        }
    }

    fn bool(&mut self, key: &str, default: bool) -> Result<bool, PackError> {
        match self.take(key) {
            None => Ok(default),
            Some(Value::Bool(b)) => Ok(*b),
            Some(v) => Err(self.type_err(key, "a boolean", v)),
        }
    }

    fn string(&mut self, key: &str, default: &str) -> Result<String, PackError> {
        match self.take(key) {
            None => Ok(default.to_owned()),
            Some(Value::Str(s)) => Ok(s.clone()),
            Some(v) => Err(self.type_err(key, "a string", v)),
        }
    }

    fn type_err(&self, key: &str, what: &str, _v: &Value) -> PackError {
        PackError::new(format!("{}: `{key}` must be {what}", self.ctx))
    }

    /// Errors on the first key no `take` consumed, naming it.
    fn finish(self) -> Result<(), PackError> {
        for (i, (k, _)) in self.entries.iter().enumerate() {
            if !self.used[i] {
                return Err(PackError::new(format!(
                    "unknown field `{k}` in {}",
                    self.ctx
                )));
            }
        }
        Ok(())
    }
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::U64(u) => Some(*u),
        _ => None,
    }
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::U64(u) => Some(*u as f64),
        Value::I64(i) => Some(*i as f64),
        Value::F64(f) => Some(*f),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Schema
// ---------------------------------------------------------------------

/// Identity block (`[pack]`).
#[derive(Debug, Clone, PartialEq)]
pub struct PackMeta {
    /// Short machine-friendly name.
    pub name: String,
    /// One-line human description.
    pub description: String,
    /// Master seed: every random draw in the run derives from it.
    pub seed: u64,
}

/// Topology generator parameters (`[topology]`): a scale factor plus
/// per-field overrides of [`GraphConfig::default_scaled`].
#[derive(Debug, Clone, PartialEq)]
pub struct TopologySpec {
    /// Scale relative to the 1996 internet (1.0 = 42 000 prefixes).
    pub scale: f64,
    /// Explicit provider count (overrides the scaled default).
    pub providers: Option<usize>,
    /// Explicit prefix count (overrides the scaled default).
    pub prefixes: Option<usize>,
    /// Fraction of providers running the pathological router profile.
    pub pathological_fraction: Option<f64>,
    /// Fraction of prefixes multihomed by end of run.
    pub multihomed_fraction: Option<f64>,
    /// Fraction of swamp (unaggregatable) prefixes.
    pub swamp_fraction: Option<f64>,
    /// Zipf skew of provider table shares.
    pub zipf_skew: Option<f64>,
}

impl TopologySpec {
    /// The effective graph config: scaled defaults, then overrides, with
    /// the graph seed derived from the pack seed. The derivation is
    /// anchored so that [`DEFAULT_PACK_SEED`] keeps the legacy
    /// [`GraphConfig::default_scaled`] seed — the default pack reproduces
    /// the pre-pack experiments bit-for-bit — while any other pack seed
    /// yields its own graph.
    #[must_use]
    pub fn graph_config(&self, pack_seed: u64) -> GraphConfig {
        let mut g = GraphConfig::default_scaled(self.scale);
        g.seed ^= pack_seed ^ DEFAULT_PACK_SEED;
        if let Some(v) = self.providers {
            g.providers = v;
        }
        if let Some(v) = self.prefixes {
            g.prefixes = v;
        }
        if let Some(v) = self.pathological_fraction {
            g.pathological_fraction = v;
        }
        if let Some(v) = self.multihomed_fraction {
            g.multihomed_fraction = v;
        }
        if let Some(v) = self.swamp_fraction {
            g.swamp_fraction = v;
        }
        if let Some(v) = self.zipf_skew {
            g.zipf_skew = v;
        }
        g
    }
}

/// Workload event-mix overrides (`[workload]`) on top of
/// [`ScenarioConfig::default_for`].
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Exchange the monitor sits at (by name: "MaeEast", "Sprint", …).
    pub exchange: String,
    /// Mean injected events per 10-minute slot at intensity 1.
    pub base_events_per_slot: Option<f64>,
    /// Fraction of MED-oscillation (policy) bursts.
    pub policy_burst_fraction: Option<f64>,
    /// Fraction of withdraw→backup→revert sequences.
    pub path_switch_fraction: Option<f64>,
    /// Fraction of IGP-driven path oscillations.
    pub igp_oscillation_fraction: Option<f64>,
    /// Short-window CSU oscillators per reference day.
    pub oscillator_count: Option<usize>,
    /// Long-window (3–8 h) oscillators per reference day.
    pub long_oscillator_count: Option<usize>,
    /// Settling time before each measured day.
    pub warmup_minutes: Option<u32>,
    /// Inbound route-flap damping on all providers.
    pub damping: Option<bool>,
}

fn exchange_by_name(name: &str) -> Result<ExchangePoint, PackError> {
    ExchangePoint::ALL
        .into_iter()
        .find(|e| {
            e.name().eq_ignore_ascii_case(name) || format!("{e:?}").eq_ignore_ascii_case(name)
        })
        .ok_or_else(|| {
            PackError::new(format!(
                "[workload]: unknown exchange `{name}` (expected one of {:?})",
                ExchangePoint::ALL.map(|e| format!("{e:?}"))
            ))
        })
}

impl WorkloadSpec {
    /// The effective scenario config for a graph of `prefix_count`
    /// prefixes, seeded from the pack seed.
    ///
    /// # Errors
    /// When the exchange name is unknown.
    pub fn scenario_config(
        &self,
        prefix_count: usize,
        pack_seed: u64,
        incident: Option<IncidentSpec>,
    ) -> Result<ScenarioConfig, PackError> {
        let mut c = ScenarioConfig::default_for(prefix_count);
        c.seed = pack_seed;
        c.exchange = exchange_by_name(&self.exchange)?;
        if let Some(v) = self.base_events_per_slot {
            c.base_events_per_slot = v;
        }
        if let Some(v) = self.policy_burst_fraction {
            c.policy_burst_fraction = v;
        }
        if let Some(v) = self.path_switch_fraction {
            c.path_switch_fraction = v;
        }
        if let Some(v) = self.igp_oscillation_fraction {
            c.igp_oscillation_fraction = v;
        }
        if let Some(v) = self.oscillator_count {
            c.oscillator_count = v;
        }
        if let Some(v) = self.long_oscillator_count {
            c.long_oscillator_count = v;
        }
        if let Some(v) = self.warmup_minutes {
            c.warmup_minutes = v;
        }
        if let Some(v) = self.damping {
            c.damping = v;
        }
        c.incident = incident;
        Ok(c)
    }
}

/// Run shape (`[run]`): duration, streaming chunk/batch sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// First simulated day (0 = Monday 1996-04-01).
    pub start_day: u32,
    /// Consecutive days to run.
    pub days: u32,
    /// Simulated minutes advanced per streaming chunk (monitor drained
    /// and detectors polled between chunks).
    pub chunk_minutes: u32,
    /// Bounded-channel capacity, in events, between the simulation and
    /// the store writer.
    pub channel_capacity: usize,
    /// Events per store append commit (deterministic batch boundary).
    pub batch_events: usize,
    /// Segment roll size for the output store.
    pub segment_rows: u32,
}

/// Resource limits (`[limits]`); zero means "no limit / disabled".
#[derive(Debug, Clone, PartialEq)]
pub struct LimitsSpec {
    /// Fail fast when resident memory exceeds this (MiB); 0 = unlimited.
    pub max_rss_mb: u64,
    /// Routers whose RIBs stay resident; beyond that, least-recently
    /// touched routers spill through `StoreFs`. 0 = spill disabled.
    pub spill_working_set: usize,
}

/// Incident-detector tuning (`[watch]`), mirroring
/// `iri_store::WatchConfig` with pack-friendly defaults (1-minute bins:
/// scenario workloads are sparser than the bench_watch microbenches).
#[derive(Debug, Clone, PartialEq)]
pub struct WatchSpec {
    /// Event-time bin width (ms).
    pub bin_ms: u64,
    /// Change-point trailing baseline window (bins).
    pub change_window: usize,
    /// Change-point rate-ratio threshold.
    pub change_ratio: f64,
    /// Change-point z-score threshold.
    pub change_z: f64,
    /// Baseline floor (events/bin) below which change-points never fire.
    pub min_rate: f64,
    /// Periodicity ACF window (bins).
    pub period_window: usize,
    /// Smallest candidate period (bins).
    pub period_min_lag: usize,
    /// Largest candidate period (bins).
    pub period_max_lag: usize,
    /// ACF peak required for a periodic-signal incident.
    pub period_threshold: f64,
    /// Bins observed before the novelty detector may alarm.
    pub novelty_warmup: usize,
    /// Single-bin burst required for a novelty alarm.
    pub novelty_min_count: u64,
}

impl Default for WatchSpec {
    fn default() -> Self {
        WatchSpec {
            bin_ms: 60_000,
            change_window: 30,
            change_ratio: 3.0,
            change_z: 4.0,
            min_rate: 1.0,
            period_window: 120,
            period_min_lag: 5,
            period_max_lag: 60,
            period_threshold: 0.8,
            novelty_warmup: 10,
            novelty_min_count: 50,
        }
    }
}

/// What kind of scheduled pathology a `[[faults]]` entry injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// BGP-community churn storm (Krenc et al.): the origin flips a
    /// community value on a block of prefixes every `period_seconds`,
    /// producing an AADup/policy-fluctuation storm.
    CommunityChurn,
    /// Worm-outbreak update flood (Marais & Marwala): prefix flaps whose
    /// rate doubles every `ramp_minutes` until `peak_per_minute`, then
    /// stops at the end of the window.
    WormOutbreak,
    /// Long-memory link failures (Kitsak et al.): access-link outages
    /// with Pareto(`alpha`) inter-arrival times over the whole day.
    LinkFailures,
    /// The Table 1 "ISP-I" concentrated incident: a misconfigured
    /// provider re-blasts withdrawals all day (maps onto
    /// [`IncidentSpec`]).
    WithdrawalStorm,
}

impl FaultKind {
    fn parse(s: &str) -> Result<Self, PackError> {
        match s {
            "community_churn" => Ok(FaultKind::CommunityChurn),
            "worm_outbreak" => Ok(FaultKind::WormOutbreak),
            "link_failures" => Ok(FaultKind::LinkFailures),
            "withdrawal_storm" => Ok(FaultKind::WithdrawalStorm),
            other => Err(PackError::new(format!(
                "[[faults]]: unknown kind `{other}` (expected community_churn, \
                 worm_outbreak, link_failures, or withdrawal_storm)"
            ))),
        }
    }

    fn label(self) -> &'static str {
        match self {
            FaultKind::CommunityChurn => "community_churn",
            FaultKind::WormOutbreak => "worm_outbreak",
            FaultKind::LinkFailures => "link_failures",
            FaultKind::WithdrawalStorm => "withdrawal_storm",
        }
    }
}

/// One `[[faults]]` schedule entry. Fields irrelevant to a kind keep
/// their defaults and are ignored by the injector.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// The pathology family.
    pub kind: FaultKind,
    /// Day offset within the run the fault applies to (0 = first day).
    pub day: u32,
    /// Whether the fault repeats on every day of the run.
    pub every_day: bool,
    /// Start minute within the measured day.
    pub start_minute: u32,
    /// Active window length.
    pub duration_minutes: u32,
    /// Customer prefixes involved.
    pub prefixes: usize,
    /// Churn: seconds between community flips.
    pub period_seconds: u64,
    /// Worm: minutes per rate doubling.
    pub ramp_minutes: u32,
    /// Worm: peak flap rate (events/minute across the block).
    pub peak_per_minute: f64,
    /// Link failures: Pareto shape (1 < α ≤ 2 gives long memory).
    pub alpha: f64,
    /// Link failures: minimum (scale) inter-arrival, minutes.
    pub min_gap_minutes: f64,
    /// Withdrawal storm: afflicted provider index.
    pub provider: usize,
}

/// One `[[ground_truth]]` expected incident, in pack-relative time.
#[derive(Debug, Clone, PartialEq)]
pub struct TruthSpec {
    /// Expected incident kind.
    pub kind: IncidentKind,
    /// Day offset within the run.
    pub day: u32,
    /// True onset minute within that measured day.
    pub onset_minute: u32,
    /// Accepted |reported − true| onset error, minutes.
    pub onset_tol_minutes: u32,
    /// Accepted detection lag past the true onset, minutes.
    pub max_lag_minutes: u32,
    /// Expected cause attribution (empty = don't check).
    pub cause: String,
}

fn incident_kind_parse(s: &str) -> Result<IncidentKind, PackError> {
    match s {
        "instability_onset" => Ok(IncidentKind::InstabilityOnset),
        "periodic_signal" => Ok(IncidentKind::PeriodicSignal),
        "novelty_alarm" => Ok(IncidentKind::NoveltyAlarm),
        other => Err(PackError::new(format!(
            "[[ground_truth]]: unknown kind `{other}` (expected instability_onset, \
             periodic_signal, or novelty_alarm)"
        ))),
    }
}

/// Synthetic-MRT parameters (`[synthetic]`) for `mrtgen --pack`: packs
/// describe log-generator workloads through the same loader.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticSpec {
    /// MRT records to write.
    pub records: u64,
    /// Distinct peers.
    pub peers: u32,
    /// Distinct prefixes.
    pub prefixes: u32,
}

/// A fully parsed scenario pack.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioPack {
    /// Identity and master seed.
    pub meta: PackMeta,
    /// Topology generator parameters.
    pub topology: TopologySpec,
    /// Workload event mix.
    pub workload: WorkloadSpec,
    /// Duration and streaming shape.
    pub run: RunSpec,
    /// Memory limits and spill working set.
    pub limits: LimitsSpec,
    /// Incident-detector tuning.
    pub watch: WatchSpec,
    /// Scheduled pathologies.
    pub faults: Vec<FaultSpec>,
    /// Expected incidents.
    pub ground_truth: Vec<TruthSpec>,
    /// Optional synthetic-MRT workload (for `mrtgen --pack`).
    pub synthetic: Option<SyntheticSpec>,
}

impl ScenarioPack {
    /// The baseline pack at `scale`: 1996 workload defaults, one day, no
    /// faults — the single source of truth the figure harness starts
    /// from.
    #[must_use]
    pub fn default_at(scale: f64) -> Self {
        ScenarioPack {
            meta: PackMeta {
                name: "default".to_owned(),
                description: "baseline 1996-shaped workload".to_owned(),
                seed: DEFAULT_PACK_SEED,
            },
            topology: TopologySpec {
                scale,
                providers: None,
                prefixes: None,
                pathological_fraction: None,
                multihomed_fraction: None,
                swamp_fraction: None,
                zipf_skew: None,
            },
            workload: WorkloadSpec {
                exchange: "MaeEast".to_owned(),
                base_events_per_slot: None,
                policy_burst_fraction: None,
                path_switch_fraction: None,
                igp_oscillation_fraction: None,
                oscillator_count: None,
                long_oscillator_count: None,
                warmup_minutes: None,
                damping: None,
            },
            run: RunSpec {
                start_day: 45,
                days: 1,
                chunk_minutes: DEFAULT_CHUNK_MINUTES,
                channel_capacity: 8_192,
                batch_events: 4_096,
                segment_rows: 65_536,
            },
            limits: LimitsSpec {
                max_rss_mb: 0,
                spill_working_set: 0,
            },
            watch: WatchSpec::default(),
            faults: Vec::new(),
            ground_truth: Vec::new(),
            synthetic: None,
        }
    }

    /// The effective graph config.
    #[must_use]
    pub fn graph_config(&self) -> GraphConfig {
        self.topology.graph_config(self.meta.seed)
    }

    /// The effective scenario config (withdrawal-storm faults become the
    /// embedded [`IncidentSpec`]).
    ///
    /// # Errors
    /// When the exchange name is unknown.
    pub fn scenario_config(&self) -> Result<ScenarioConfig, PackError> {
        let incident = self
            .faults
            .iter()
            .find(|f| f.kind == FaultKind::WithdrawalStorm)
            .map(|f| IncidentSpec {
                provider: f.provider,
                prefixes: f.prefixes,
            });
        let graph = self.graph_config();
        self.workload
            .scenario_config(graph.prefixes, self.meta.seed, incident)
    }

    // -----------------------------------------------------------------
    // Strict parse
    // -----------------------------------------------------------------

    /// Parses a pack from its value tree, rejecting unknown fields.
    ///
    /// # Errors
    /// On schema violations, naming the offending field and section.
    pub fn from_value(v: &Value) -> Result<Self, PackError> {
        let mut root = Section::new("the pack root", v)?;
        let version = root.u64("format_version", 0)?;
        if version != FORMAT_VERSION {
            return Err(PackError::new(format!(
                "unsupported format_version {version} (this build reads {FORMAT_VERSION}); \
                 add `format_version = {FORMAT_VERSION}` at the top of the pack"
            )));
        }

        let meta = {
            let mv = root
                .take("pack")
                .ok_or_else(|| PackError::new("missing [pack] section"))?;
            let mut s = Section::new("[pack]", mv)?;
            let meta = PackMeta {
                name: s.string("name", "unnamed")?,
                description: s.string("description", "")?,
                seed: s.u64("seed", DEFAULT_PACK_SEED)?,
            };
            s.finish()?;
            meta
        };

        let topology = match root.take("topology") {
            None => ScenarioPack::default_at(0.05).topology,
            Some(tv) => {
                let mut s = Section::new("[topology]", tv)?;
                let t = TopologySpec {
                    scale: s.f64("scale", 0.05)?,
                    providers: s.take("providers").and_then(as_u64).map(|v| v as usize),
                    prefixes: s.take("prefixes").and_then(as_u64).map(|v| v as usize),
                    pathological_fraction: s.take("pathological_fraction").and_then(as_f64),
                    multihomed_fraction: s.take("multihomed_fraction").and_then(as_f64),
                    swamp_fraction: s.take("swamp_fraction").and_then(as_f64),
                    zipf_skew: s.take("zipf_skew").and_then(as_f64),
                };
                s.finish()?;
                t
            }
        };

        let workload = match root.take("workload") {
            None => ScenarioPack::default_at(0.05).workload,
            Some(wv) => {
                let mut s = Section::new("[workload]", wv)?;
                let w = WorkloadSpec {
                    exchange: s.string("exchange", "MaeEast")?,
                    base_events_per_slot: s.take("base_events_per_slot").and_then(as_f64),
                    policy_burst_fraction: s.take("policy_burst_fraction").and_then(as_f64),
                    path_switch_fraction: s.take("path_switch_fraction").and_then(as_f64),
                    igp_oscillation_fraction: s.take("igp_oscillation_fraction").and_then(as_f64),
                    oscillator_count: s
                        .take("oscillator_count")
                        .and_then(as_u64)
                        .map(|v| v as usize),
                    long_oscillator_count: s
                        .take("long_oscillator_count")
                        .and_then(as_u64)
                        .map(|v| v as usize),
                    warmup_minutes: s.take("warmup_minutes").and_then(as_u64).map(|v| v as u32),
                    damping: s.take("damping").and_then(|v| match v {
                        Value::Bool(b) => Some(*b),
                        _ => None,
                    }),
                };
                // Validate eagerly so a bad exchange name fails at load.
                exchange_by_name(&w.exchange)?;
                s.finish()?;
                w
            }
        };

        let run = {
            let defaults = ScenarioPack::default_at(0.05).run;
            match root.take("run") {
                None => defaults,
                Some(rv) => {
                    let mut s = Section::new("[run]", rv)?;
                    let r = RunSpec {
                        start_day: s.u32("start_day", defaults.start_day)?,
                        days: s.u32("days", defaults.days)?.max(1),
                        chunk_minutes: s.u32("chunk_minutes", defaults.chunk_minutes)?.max(1),
                        channel_capacity: s
                            .usize("channel_capacity", defaults.channel_capacity)?
                            .max(1),
                        batch_events: s.usize("batch_events", defaults.batch_events)?.max(1),
                        segment_rows: s.u32("segment_rows", defaults.segment_rows)?.max(1),
                    };
                    s.finish()?;
                    r
                }
            }
        };

        let limits = match root.take("limits") {
            None => LimitsSpec {
                max_rss_mb: 0,
                spill_working_set: 0,
            },
            Some(lv) => {
                let mut s = Section::new("[limits]", lv)?;
                let l = LimitsSpec {
                    max_rss_mb: s.u64("max_rss_mb", 0)?,
                    spill_working_set: s.usize("spill_working_set", 0)?,
                };
                s.finish()?;
                l
            }
        };

        let watch = match root.take("watch") {
            None => WatchSpec::default(),
            Some(wv) => {
                let d = WatchSpec::default();
                let mut s = Section::new("[watch]", wv)?;
                let w = WatchSpec {
                    bin_ms: s.u64("bin_ms", d.bin_ms)?.max(1),
                    change_window: s.usize("change_window", d.change_window)?,
                    change_ratio: s.f64("change_ratio", d.change_ratio)?,
                    change_z: s.f64("change_z", d.change_z)?,
                    min_rate: s.f64("min_rate", d.min_rate)?,
                    period_window: s.usize("period_window", d.period_window)?,
                    period_min_lag: s.usize("period_min_lag", d.period_min_lag)?,
                    period_max_lag: s.usize("period_max_lag", d.period_max_lag)?,
                    period_threshold: s.f64("period_threshold", d.period_threshold)?,
                    novelty_warmup: s.usize("novelty_warmup", d.novelty_warmup)?,
                    novelty_min_count: s.u64("novelty_min_count", d.novelty_min_count)?,
                };
                s.finish()?;
                w
            }
        };

        let faults = match root.take("faults") {
            None => Vec::new(),
            Some(Value::Array(items)) => {
                let mut out = Vec::with_capacity(items.len());
                for (i, item) in items.iter().enumerate() {
                    let ctx = format!("[[faults]] entry {}", i + 1);
                    let mut s = Section::new(&ctx, item)?;
                    let kind_name = s.string("kind", "")?;
                    let kind = FaultKind::parse(&kind_name)?;
                    let f = FaultSpec {
                        kind,
                        day: s.u32("day", 0)?,
                        every_day: s.bool("every_day", false)?,
                        start_minute: s.u32("start_minute", 0)?,
                        duration_minutes: s.u32("duration_minutes", 60)?,
                        prefixes: s.usize("prefixes", 20)?,
                        period_seconds: s.u64("period_seconds", 30)?.max(1),
                        ramp_minutes: s.u32("ramp_minutes", 10)?.max(1),
                        peak_per_minute: s.f64("peak_per_minute", 60.0)?,
                        alpha: s.f64("alpha", 1.3)?,
                        min_gap_minutes: s.f64("min_gap_minutes", 2.0)?,
                        provider: s.usize("provider", 0)?,
                    };
                    s.finish()?;
                    out.push(f);
                }
                out
            }
            Some(_) => {
                return Err(PackError::new(
                    "`faults` must be an array of tables ([[faults]])",
                ))
            }
        };

        let ground_truth = match root.take("ground_truth") {
            None => Vec::new(),
            Some(Value::Array(items)) => {
                let mut out = Vec::with_capacity(items.len());
                for (i, item) in items.iter().enumerate() {
                    let ctx = format!("[[ground_truth]] entry {}", i + 1);
                    let mut s = Section::new(&ctx, item)?;
                    let kind = incident_kind_parse(&s.string("kind", "")?)?;
                    let t = TruthSpec {
                        kind,
                        day: s.u32("day", 0)?,
                        onset_minute: s.u32("onset_minute", 0)?,
                        onset_tol_minutes: s.u32("onset_tol_minutes", 10)?,
                        max_lag_minutes: s.u32("max_lag_minutes", 30)?,
                        cause: s.string("cause", "")?,
                    };
                    s.finish()?;
                    out.push(t);
                }
                out
            }
            Some(_) => {
                return Err(PackError::new(
                    "`ground_truth` must be an array of tables ([[ground_truth]])",
                ))
            }
        };

        let synthetic = match root.take("synthetic") {
            None => None,
            Some(sv) => {
                let mut s = Section::new("[synthetic]", sv)?;
                let spec = SyntheticSpec {
                    records: s.u64("records", 1_000_000)?,
                    peers: s.u32("peers", 16)?,
                    prefixes: s.u32("prefixes", 20_000)?,
                };
                s.finish()?;
                Some(spec)
            }
        };

        root.finish()?;
        let pack = ScenarioPack {
            meta,
            topology,
            workload,
            run,
            limits,
            watch,
            faults,
            ground_truth,
            synthetic,
        };
        pack.validate()?;
        Ok(pack)
    }

    /// Semantic checks beyond field shapes.
    fn validate(&self) -> Result<(), PackError> {
        for t in &self.ground_truth {
            if t.day >= self.run.days {
                return Err(PackError::new(format!(
                    "[[ground_truth]]: day {} is outside the run (days = {})",
                    t.day, self.run.days
                )));
            }
        }
        for f in &self.faults {
            if !f.every_day && f.day >= self.run.days {
                return Err(PackError::new(format!(
                    "[[faults]] {}: day {} is outside the run (days = {})",
                    f.kind.label(),
                    f.day,
                    self.run.days
                )));
            }
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // Serialize (for round-trips and the chain genesis fingerprint)
    // -----------------------------------------------------------------

    /// The pack as a value tree (the inverse of [`ScenarioPack::from_value`]).
    #[must_use]
    pub fn to_value(&self) -> Value {
        let mut root = vec![("format_version".to_owned(), Value::U64(FORMAT_VERSION))];
        root.push((
            "pack".to_owned(),
            Value::Map(vec![
                ("name".to_owned(), Value::Str(self.meta.name.clone())),
                (
                    "description".to_owned(),
                    Value::Str(self.meta.description.clone()),
                ),
                ("seed".to_owned(), Value::U64(self.meta.seed)),
            ]),
        ));
        let mut topo = vec![("scale".to_owned(), Value::F64(self.topology.scale))];
        if let Some(v) = self.topology.providers {
            topo.push(("providers".to_owned(), Value::U64(v as u64)));
        }
        if let Some(v) = self.topology.prefixes {
            topo.push(("prefixes".to_owned(), Value::U64(v as u64)));
        }
        if let Some(v) = self.topology.pathological_fraction {
            topo.push(("pathological_fraction".to_owned(), Value::F64(v)));
        }
        if let Some(v) = self.topology.multihomed_fraction {
            topo.push(("multihomed_fraction".to_owned(), Value::F64(v)));
        }
        if let Some(v) = self.topology.swamp_fraction {
            topo.push(("swamp_fraction".to_owned(), Value::F64(v)));
        }
        if let Some(v) = self.topology.zipf_skew {
            topo.push(("zipf_skew".to_owned(), Value::F64(v)));
        }
        root.push(("topology".to_owned(), Value::Map(topo)));

        let mut wl = vec![(
            "exchange".to_owned(),
            Value::Str(self.workload.exchange.clone()),
        )];
        if let Some(v) = self.workload.base_events_per_slot {
            wl.push(("base_events_per_slot".to_owned(), Value::F64(v)));
        }
        if let Some(v) = self.workload.policy_burst_fraction {
            wl.push(("policy_burst_fraction".to_owned(), Value::F64(v)));
        }
        if let Some(v) = self.workload.path_switch_fraction {
            wl.push(("path_switch_fraction".to_owned(), Value::F64(v)));
        }
        if let Some(v) = self.workload.igp_oscillation_fraction {
            wl.push(("igp_oscillation_fraction".to_owned(), Value::F64(v)));
        }
        if let Some(v) = self.workload.oscillator_count {
            wl.push(("oscillator_count".to_owned(), Value::U64(v as u64)));
        }
        if let Some(v) = self.workload.long_oscillator_count {
            wl.push(("long_oscillator_count".to_owned(), Value::U64(v as u64)));
        }
        if let Some(v) = self.workload.warmup_minutes {
            wl.push(("warmup_minutes".to_owned(), Value::U64(u64::from(v))));
        }
        if let Some(v) = self.workload.damping {
            wl.push(("damping".to_owned(), Value::Bool(v)));
        }
        root.push(("workload".to_owned(), Value::Map(wl)));

        root.push((
            "run".to_owned(),
            Value::Map(vec![
                (
                    "start_day".to_owned(),
                    Value::U64(u64::from(self.run.start_day)),
                ),
                ("days".to_owned(), Value::U64(u64::from(self.run.days))),
                (
                    "chunk_minutes".to_owned(),
                    Value::U64(u64::from(self.run.chunk_minutes)),
                ),
                (
                    "channel_capacity".to_owned(),
                    Value::U64(self.run.channel_capacity as u64),
                ),
                (
                    "batch_events".to_owned(),
                    Value::U64(self.run.batch_events as u64),
                ),
                (
                    "segment_rows".to_owned(),
                    Value::U64(u64::from(self.run.segment_rows)),
                ),
            ]),
        ));
        root.push((
            "limits".to_owned(),
            Value::Map(vec![
                ("max_rss_mb".to_owned(), Value::U64(self.limits.max_rss_mb)),
                (
                    "spill_working_set".to_owned(),
                    Value::U64(self.limits.spill_working_set as u64),
                ),
            ]),
        ));
        root.push((
            "watch".to_owned(),
            Value::Map(vec![
                ("bin_ms".to_owned(), Value::U64(self.watch.bin_ms)),
                (
                    "change_window".to_owned(),
                    Value::U64(self.watch.change_window as u64),
                ),
                (
                    "change_ratio".to_owned(),
                    Value::F64(self.watch.change_ratio),
                ),
                ("change_z".to_owned(), Value::F64(self.watch.change_z)),
                ("min_rate".to_owned(), Value::F64(self.watch.min_rate)),
                (
                    "period_window".to_owned(),
                    Value::U64(self.watch.period_window as u64),
                ),
                (
                    "period_min_lag".to_owned(),
                    Value::U64(self.watch.period_min_lag as u64),
                ),
                (
                    "period_max_lag".to_owned(),
                    Value::U64(self.watch.period_max_lag as u64),
                ),
                (
                    "period_threshold".to_owned(),
                    Value::F64(self.watch.period_threshold),
                ),
                (
                    "novelty_warmup".to_owned(),
                    Value::U64(self.watch.novelty_warmup as u64),
                ),
                (
                    "novelty_min_count".to_owned(),
                    Value::U64(self.watch.novelty_min_count),
                ),
            ]),
        ));
        if !self.faults.is_empty() {
            root.push((
                "faults".to_owned(),
                Value::Array(
                    self.faults
                        .iter()
                        .map(|f| {
                            Value::Map(vec![
                                ("kind".to_owned(), Value::Str(f.kind.label().to_owned())),
                                ("day".to_owned(), Value::U64(u64::from(f.day))),
                                ("every_day".to_owned(), Value::Bool(f.every_day)),
                                (
                                    "start_minute".to_owned(),
                                    Value::U64(u64::from(f.start_minute)),
                                ),
                                (
                                    "duration_minutes".to_owned(),
                                    Value::U64(u64::from(f.duration_minutes)),
                                ),
                                ("prefixes".to_owned(), Value::U64(f.prefixes as u64)),
                                ("period_seconds".to_owned(), Value::U64(f.period_seconds)),
                                (
                                    "ramp_minutes".to_owned(),
                                    Value::U64(u64::from(f.ramp_minutes)),
                                ),
                                ("peak_per_minute".to_owned(), Value::F64(f.peak_per_minute)),
                                ("alpha".to_owned(), Value::F64(f.alpha)),
                                ("min_gap_minutes".to_owned(), Value::F64(f.min_gap_minutes)),
                                ("provider".to_owned(), Value::U64(f.provider as u64)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        if !self.ground_truth.is_empty() {
            root.push((
                "ground_truth".to_owned(),
                Value::Array(
                    self.ground_truth
                        .iter()
                        .map(|t| {
                            Value::Map(vec![
                                ("kind".to_owned(), Value::Str(t.kind.label().to_owned())),
                                ("day".to_owned(), Value::U64(u64::from(t.day))),
                                (
                                    "onset_minute".to_owned(),
                                    Value::U64(u64::from(t.onset_minute)),
                                ),
                                (
                                    "onset_tol_minutes".to_owned(),
                                    Value::U64(u64::from(t.onset_tol_minutes)),
                                ),
                                (
                                    "max_lag_minutes".to_owned(),
                                    Value::U64(u64::from(t.max_lag_minutes)),
                                ),
                                ("cause".to_owned(), Value::Str(t.cause.clone())),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        if let Some(s) = &self.synthetic {
            root.push((
                "synthetic".to_owned(),
                Value::Map(vec![
                    ("records".to_owned(), Value::U64(s.records)),
                    ("peers".to_owned(), Value::U64(u64::from(s.peers))),
                    ("prefixes".to_owned(), Value::U64(u64::from(s.prefixes))),
                ]),
            ));
        }
        Value::Map(root)
    }

    /// Renders the pack as TOML (the native on-disk syntax).
    #[must_use]
    pub fn to_toml_string(&self) -> String {
        emit_toml(&self.to_value())
    }

    /// Parses a pack from TOML or JSON source (JSON when the first
    /// non-space byte is `{`).
    ///
    /// # Errors
    /// On syntax or schema errors.
    pub fn parse_str(src: &str) -> Result<Self, PackError> {
        let value = if src.trim_start().starts_with('{') {
            serde_json::from_str::<Value>(src)
                .map_err(|e| PackError::new(format!("JSON parse error: {e}")))?
        } else {
            toml::parse(src).map_err(|e| PackError::new(e.to_string()))?
        };
        ScenarioPack::from_value(&value)
    }

    /// Loads a pack file (TOML or JSON, by content).
    ///
    /// # Errors
    /// On I/O, syntax, or schema errors, with the path in the message.
    pub fn load(path: &Path) -> Result<Self, PackError> {
        let src = std::fs::read_to_string(path)
            .map_err(|e| PackError::new(format!("{}: {e}", path.display())))?;
        ScenarioPack::parse_str(&src)
            .map_err(|e| PackError::new(format!("{}: {e}", path.display())))
    }
}

/// Renders a pack-shaped value tree as TOML. Handles exactly the shapes
/// [`ScenarioPack::to_value`] emits: root scalars, one level of tables,
/// and arrays of flat tables.
fn emit_toml(root: &Value) -> String {
    fn scalar(v: &Value) -> String {
        match v {
            Value::Null => "\"\"".to_owned(),
            Value::Bool(b) => b.to_string(),
            Value::U64(u) => u.to_string(),
            Value::I64(i) => i.to_string(),
            Value::F64(f) => {
                if f.fract() == 0.0 && f.abs() < 1e15 {
                    format!("{f:.1}")
                } else {
                    format!("{f}")
                }
            }
            Value::Str(s) => format!(
                "\"{}\"",
                s.replace('\\', "\\\\")
                    .replace('"', "\\\"")
                    .replace('\n', "\\n")
            ),
            Value::Array(items) => {
                let inner: Vec<String> = items.iter().map(scalar).collect();
                format!("[{}]", inner.join(", "))
            }
            Value::Map(_) => unreachable!("nested inline tables are not emitted"),
        }
    }
    let mut out = String::new();
    let Value::Map(entries) = root else {
        return out;
    };
    for (k, v) in entries {
        match v {
            Value::Map(fields) => {
                out.push_str(&format!("\n[{k}]\n"));
                for (fk, fv) in fields {
                    out.push_str(&format!("{fk} = {}\n", scalar(fv)));
                }
            }
            Value::Array(items) if items.iter().all(|i| matches!(i, Value::Map(_))) => {
                for item in items {
                    out.push_str(&format!("\n[[{k}]]\n"));
                    if let Value::Map(fields) = item {
                        for (fk, fv) in fields {
                            out.push_str(&format!("{fk} = {}\n", scalar(fv)));
                        }
                    }
                }
            }
            other => out.push_str(&format!("{k} = {}\n", scalar(other))),
        }
    }
    out
}

/// The figure harness's experiment: the topology and workload configs of
/// [`ScenarioPack::default_at`].
pub struct Experiment {
    /// Topology generator parameters.
    pub graph: GraphConfig,
    /// Workload configuration.
    pub scenario: ScenarioConfig,
}

impl Experiment {
    /// The default experiment at `scale`, derived from
    /// [`ScenarioPack::default_at`] — one source of truth.
    #[must_use]
    pub fn default_at(scale: f64) -> Self {
        let pack = ScenarioPack::default_at(scale);
        let graph = pack.graph_config();
        let scenario = pack
            .scenario_config()
            .expect("default pack has a valid exchange");
        Experiment { graph, scenario }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_pack_round_trips_through_toml() {
        let mut pack = ScenarioPack::default_at(0.02);
        pack.faults.push(FaultSpec {
            kind: FaultKind::CommunityChurn,
            day: 0,
            every_day: false,
            start_minute: 600,
            duration_minutes: 45,
            prefixes: 12,
            period_seconds: 30,
            ramp_minutes: 10,
            peak_per_minute: 60.0,
            alpha: 1.3,
            min_gap_minutes: 2.0,
            provider: 0,
        });
        pack.ground_truth.push(TruthSpec {
            kind: IncidentKind::InstabilityOnset,
            day: 0,
            onset_minute: 600,
            onset_tol_minutes: 10,
            max_lag_minutes: 30,
            cause: String::new(),
        });
        let toml_src = pack.to_toml_string();
        let reparsed = ScenarioPack::parse_str(&toml_src).expect("round-trip parse");
        assert_eq!(pack, reparsed);
        // And once more through JSON.
        let json = serde_json::to_string_pretty(&pack.to_value()).expect("json");
        let rejson = ScenarioPack::parse_str(&json).expect("json parse");
        assert_eq!(pack, rejson);
    }

    #[test]
    fn unknown_field_is_rejected_by_name() {
        let src = "format_version = 1\n[pack]\nname = \"x\"\n[workload]\nprefices = 40\n";
        let e = ScenarioPack::parse_str(src).unwrap_err();
        assert!(
            e.to_string()
                .contains("unknown field `prefices` in [workload]"),
            "{e}"
        );
        let src = "format_version = 1\n[pack]\nname = \"x\"\nbogus_top = 3\n";
        let e = ScenarioPack::parse_str(src).unwrap_err();
        assert!(e.to_string().contains("`bogus_top`"), "{e}");
    }

    #[test]
    fn format_version_is_required_and_checked() {
        let e = ScenarioPack::parse_str("[pack]\nname = \"x\"\n").unwrap_err();
        assert!(e.to_string().contains("format_version"), "{e}");
        let e = ScenarioPack::parse_str("format_version = 9\n[pack]\nname = \"x\"\n").unwrap_err();
        assert!(
            e.to_string().contains("unsupported format_version 9"),
            "{e}"
        );
    }

    #[test]
    fn bad_enum_values_name_the_choices() {
        let src = "format_version = 1\n[pack]\nname = \"x\"\n[workload]\nexchange = \"Mars\"\n";
        let e = ScenarioPack::parse_str(src).unwrap_err();
        assert!(e.to_string().contains("unknown exchange `Mars`"), "{e}");
        let src = "format_version = 1\n[pack]\nname = \"x\"\n[[faults]]\nkind = \"gamma_rays\"\n";
        let e = ScenarioPack::parse_str(src).unwrap_err();
        assert!(e.to_string().contains("unknown kind `gamma_rays`"), "{e}");
    }

    #[test]
    fn ground_truth_outside_run_is_rejected() {
        let src = "format_version = 1\n[pack]\nname = \"x\"\n[run]\ndays = 1\n\
                   [[ground_truth]]\nkind = \"novelty_alarm\"\nday = 3\n";
        let e = ScenarioPack::parse_str(src).unwrap_err();
        assert!(e.to_string().contains("outside the run"), "{e}");
    }

    #[test]
    fn configs_derive_from_pack_seed_and_overrides() {
        let src = "format_version = 1\n[pack]\nname = \"x\"\nseed = 7\n\
                   [topology]\nscale = 0.01\nproviders = 5\n\
                   [workload]\nexchange = \"Sprint\"\nwarmup_minutes = 12\n";
        let pack = ScenarioPack::parse_str(src).expect("parse");
        let g = pack.graph_config();
        assert_eq!(g.providers, 5);
        assert_eq!(g.seed, 0x1996_0401 ^ 7 ^ DEFAULT_PACK_SEED);
        let sc = pack.scenario_config().expect("scenario");
        assert_eq!(sc.seed, 7);
        assert_eq!(sc.warmup_minutes, 12);
        assert_eq!(sc.exchange, ExchangePoint::Sprint);
    }

    #[test]
    fn experiment_defaults_match_legacy_shape() {
        let e = Experiment::default_at(0.05);
        let scaled = GraphConfig::default_scaled(0.05);
        assert_eq!(e.graph.providers, scaled.providers);
        assert_eq!(e.graph.prefixes, scaled.prefixes);
        // Scenario defaults derive from the prefix count and keep the
        // legacy seed via the default pack seed.
        let legacy = ScenarioConfig::default_for(e.graph.prefixes);
        assert_eq!(e.scenario.oscillator_count, legacy.oscillator_count);
        assert_eq!(e.scenario.seed, legacy.seed);
        // The anchored derivation: the default pack seed reproduces the
        // legacy graph seed exactly, so pre-pack experiments are
        // bit-for-bit reproducible through the pack loader.
        assert_eq!(e.graph.seed, scaled.seed);
    }
}
