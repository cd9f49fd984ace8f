//! Watch mode: tail a live store and raise typed incidents online.
//!
//! The paper's analysis is retrospective — months of archive, then batch
//! spectra. `Watcher` is the streaming counterpart: it tails a
//! [`LiveStore`] on the **event-time axis**, folds each completed time
//! bin into the incremental detectors from `iri_obs::incident`, and
//! raises typed incidents ([`IncidentKind::InstabilityOnset`],
//! [`IncidentKind::PeriodicSignal`], [`IncidentKind::NoveltyAlarm`]) with
//! [`Cause`] attribution from the stored provenance column.
//!
//! ## Determinism
//!
//! The watcher advances a **watermark**: only bins whose end lies at or
//! before the store's maximum event time are considered complete and fed
//! to the detectors, each exactly once. Provided events are appended in
//! non-decreasing time order (true of the simulator and of MRT ingest),
//! the sequence of (bin, counts) pairs — and therefore the incident
//! stream — depends only on the stored data, not on how often or when
//! `poll` is called. Incidents are stamped with event-time milliseconds,
//! never the wall clock.

use crate::durable::write_atomic;
use crate::live::LiveStore;
use crate::query::{Query, Store};
use crate::StoreError;
use iri_core::taxonomy::UpdateClass;
use iri_faults::{RetryPolicy, StoreFs};
use iri_obs::cause::Cause;
use iri_obs::incident::{
    ChangePointConfig, ChangePointDetector, Incident, IncidentKind, NoveltyConfig, NoveltyDetector,
    PeriodicityConfig, PeriodicityDetector,
};
use iri_obs::registry::{CounterId, Registry};
use iri_obs::trace::{TraceKind, Tracer};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;

/// Tuning for a [`Watcher`]: one shared bin width plus the per-detector
/// thresholds (see `iri_obs::incident` for their semantics).
#[derive(Debug, Clone, Copy)]
pub struct WatchConfig {
    /// Event-time width of one bin (ms).
    pub bin_ms: u64,
    /// Change-point trailing baseline window (bins).
    pub change_window: usize,
    /// Change-point rate ratio threshold.
    pub change_ratio: f64,
    /// Change-point z-score threshold.
    pub change_z: f64,
    /// Baseline floor below which change-points never fire (events/bin).
    pub min_rate: f64,
    /// Periodicity ACF window (bins).
    pub period_window: usize,
    /// Smallest candidate period (bins).
    pub period_min_lag: usize,
    /// Largest candidate period (bins).
    pub period_max_lag: usize,
    /// ACF peak required for a periodic-signal incident.
    pub period_threshold: f64,
    /// Bins the novelty detector observes before alarming.
    pub novelty_warmup: usize,
    /// Single-bin burst required for a novelty alarm.
    pub novelty_min_count: u64,
    /// Retained trace events (ring buffer capacity).
    pub trace_capacity: usize,
}

impl Default for WatchConfig {
    fn default() -> Self {
        WatchConfig {
            bin_ms: 1_000,
            change_window: 30,
            change_ratio: 3.0,
            change_z: 4.0,
            min_rate: 1.0,
            period_window: 120,
            period_min_lag: 5,
            period_max_lag: 60,
            period_threshold: 0.5,
            novelty_warmup: 10,
            novelty_min_count: 10,
            trace_capacity: 1_024,
        }
    }
}

/// Version of the [`WatchState`] file format this crate writes.
pub const WATCH_STATE_VERSION: u32 = 1;

/// The durable fraction of a [`Watcher`]: what a restarted watch
/// process needs so it never re-feeds — and therefore never re-raises
/// incidents for — bins a previous process already handled.
///
/// Only the watermark is persisted. Detector baselines are rebuilt from
/// the bins that arrive after it, which trades a short re-warmup for a
/// state file that cannot go stale or disagree with the store.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WatchState {
    /// Format version ([`WATCH_STATE_VERSION`]).
    pub version: u32,
    /// Exclusive upper bound of event time already fed, bin-aligned.
    pub watermark_ms: Option<u64>,
    /// Incidents raised before the save — carried for operator display,
    /// not consulted by the watcher.
    pub incidents_raised: u64,
}

impl WatchState {
    /// Atomically writes the state as JSON: temp file, fsync, rename.
    pub fn save(&self, fs: &dyn StoreFs, path: &Path) -> Result<(), StoreError> {
        let text =
            serde_json::to_string_pretty(self).map_err(|e| StoreError::Json(e.to_string()))?;
        write_atomic(fs, &RetryPolicy::none(), path, text.as_bytes(), true).map(drop)
    }

    /// Reads a saved state; `Ok(None)` when the file does not exist yet
    /// (a first run). A present-but-unreadable file is an error — silent
    /// fallback to "no state" would re-raise every historical incident.
    pub fn load(fs: &dyn StoreFs, path: &Path) -> Result<Option<WatchState>, StoreError> {
        if !fs.exists(path) {
            return Ok(None);
        }
        let bytes = fs.read(path).map_err(|e| StoreError::io(path, e))?;
        let text = std::str::from_utf8(&bytes)
            .map_err(|e| StoreError::Json(format!("{e} in watch state")))?;
        let state: WatchState =
            serde_json::from_str(text).map_err(|e| StoreError::Json(e.to_string()))?;
        if state.version != WATCH_STATE_VERSION {
            return Err(StoreError::Json(format!(
                "watch state version {} unsupported (this build writes {WATCH_STATE_VERSION})",
                state.version
            )));
        }
        Ok(Some(state))
    }
}

/// Outcome of one [`Watcher::poll`].
#[derive(Debug, Clone, Default)]
pub struct WatchReport {
    /// Generation of the snapshot the poll read.
    pub generation: u64,
    /// Completed bins fed to the detectors by this poll.
    pub bins_processed: u64,
    /// Events in those bins.
    pub events_seen: u64,
    /// Incidents raised by this poll, in bin order.
    pub incidents: Vec<Incident>,
}

struct WatchMeters {
    polls: CounterId,
    bins: CounterId,
    events: CounterId,
    onsets: CounterId,
    periodics: CounterId,
    novelties: CounterId,
}

/// Incremental watcher over a live (or static) store. See the
/// [module docs](self) for the determinism contract.
pub struct Watcher {
    cfg: WatchConfig,
    /// Exclusive upper bound of event time already fed (bin-aligned);
    /// `None` until the first non-empty poll anchors the bin grid.
    watermark_ms: Option<u64>,
    change: ChangePointDetector,
    period: PeriodicityDetector,
    novelty: NoveltyDetector,
    incidents: Vec<Incident>,
    tracer: Tracer,
    registry: Registry,
    meters: WatchMeters,
}

impl Watcher {
    /// New watcher with `cfg`; nothing is read until the first poll.
    #[must_use]
    pub fn new(cfg: WatchConfig) -> Self {
        let bin_ms = cfg.bin_ms.max(1);
        let change = ChangePointDetector::new(ChangePointConfig {
            bin_ms,
            window: cfg.change_window,
            ratio: cfg.change_ratio,
            z: cfg.change_z,
            min_rate: cfg.min_rate,
        });
        let period = PeriodicityDetector::new(PeriodicityConfig {
            bin_ms,
            window: cfg.period_window,
            min_lag: cfg.period_min_lag,
            max_lag: cfg.period_max_lag,
            threshold: cfg.period_threshold,
        });
        let novelty = NoveltyDetector::new(NoveltyConfig {
            bin_ms,
            warmup_bins: cfg.novelty_warmup,
            min_count: cfg.novelty_min_count,
            ..NoveltyConfig::default()
        });
        let mut registry = Registry::new();
        let meters = WatchMeters {
            polls: registry.counter("watch.polls"),
            bins: registry.counter("watch.bins"),
            events: registry.counter("watch.events"),
            onsets: registry.counter("watch.incidents.instability_onset"),
            periodics: registry.counter("watch.incidents.periodic_signal"),
            novelties: registry.counter("watch.incidents.novelty_alarm"),
        };
        Watcher {
            cfg: WatchConfig { bin_ms, ..cfg },
            watermark_ms: None,
            change,
            period,
            novelty,
            incidents: Vec::new(),
            tracer: Tracer::new(cfg.trace_capacity),
            registry,
            meters,
        }
    }

    /// Resumes a previous process's watch: like [`Watcher::new`], but
    /// the watermark starts where the saved state left off, so bins
    /// already handled (and incidents already raised) never repeat.
    /// Detectors re-warm from the resumed watermark onward.
    #[must_use]
    pub fn with_state(cfg: WatchConfig, state: &WatchState) -> Self {
        let mut w = Watcher::new(cfg);
        w.watermark_ms = state.watermark_ms;
        w
    }

    /// The durable fraction of this watcher, for [`WatchState::save`].
    #[must_use]
    pub fn state(&self) -> WatchState {
        WatchState {
            version: WATCH_STATE_VERSION,
            watermark_ms: self.watermark_ms,
            incidents_raised: self.incidents.len() as u64,
        }
    }

    /// Event time (ms) below which everything has been fed, if anchored.
    #[must_use]
    pub fn watermark_ms(&self) -> Option<u64> {
        self.watermark_ms
    }

    /// Every incident raised so far, in bin order.
    #[must_use]
    pub fn incidents(&self) -> &[Incident] {
        &self.incidents
    }

    /// The watcher's trace ring buffer (incident events, event-time
    /// stamped).
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The watcher's metrics (polls, bins, events, incidents by kind).
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Pins a snapshot of `live` and feeds every newly completed bin.
    pub fn poll(&mut self, live: &LiveStore) -> Result<WatchReport, StoreError> {
        let mut snap = live.snapshot();
        self.poll_store(&mut snap)
    }

    /// [`Watcher::poll`] against an already-open store handle (a pinned
    /// snapshot, or a static read-only store).
    pub fn poll_store(&mut self, store: &mut Store) -> Result<WatchReport, StoreError> {
        self.registry.inc(self.meters.polls);
        let bin_ms = self.cfg.bin_ms;
        let manifest = store.manifest();
        let mut report = WatchReport {
            generation: manifest.generation,
            ..WatchReport::default()
        };
        if manifest.total_events == 0 {
            return Ok(report);
        }
        let from = match self.watermark_ms {
            Some(w) => w,
            None => (manifest.min_time_ms / bin_ms) * bin_ms,
        };
        // A bin is complete once the stream has moved past its end; the
        // bin containing max_time_ms is withheld until later data closes
        // it (the final poll of a bench run closes it explicitly by
        // appending a sentinel-free tail — see bench_watch).
        let complete_end = (manifest.max_time_ms / bin_ms) * bin_ms;
        if complete_end <= from {
            return Ok(report);
        }
        let bins = ((complete_end - from) / bin_ms) as usize;
        let mut totals = vec![0u64; bins];
        let mut class_counts: Vec<BTreeMap<u32, u64>> = vec![BTreeMap::new(); bins];
        let mut cause_counts = vec![[0u64; Cause::COUNT]; bins];
        let query = Query::default().time_range_ms(from, complete_end);
        store.scan(&query, |ev| {
            let idx = ((ev.time_ms - from) / bin_ms) as usize;
            if let Some(t) = totals.get_mut(idx) {
                *t += 1;
                *class_counts[idx]
                    .entry(ev.class.index() as u32)
                    .or_insert(0) += 1;
                cause_counts[idx][ev.cause.index()] += 1;
            }
        })?;
        for bin in 0..bins {
            let bin_start = from + bin as u64 * bin_ms;
            report.events_seen += totals[bin];
            let mut fired: Vec<Incident> = Vec::new();
            if let Some(i) = self.change.push(bin_start, totals[bin] as f64) {
                fired.push(i);
            }
            if let Some(i) = self.period.push(bin_start, totals[bin] as f64) {
                fired.push(i);
            }
            fired.extend(self.novelty.push_bin(bin_start, &class_counts[bin]));
            for mut incident in fired {
                incident.cause = dominant_cause(&cause_counts[bin]).to_owned();
                if incident.kind == IncidentKind::NoveltyAlarm {
                    if let Some(class) = novel_class_label(&incident.detail) {
                        incident.detail = format!("{} ({class})", incident.detail);
                    }
                }
                self.note_incident(&incident);
                report.incidents.push(incident.clone());
                self.incidents.push(incident);
            }
        }
        report.bins_processed = bins as u64;
        self.registry.add(self.meters.bins, bins as u64);
        self.registry.add(self.meters.events, report.events_seen);
        self.watermark_ms = Some(complete_end);
        Ok(report)
    }

    fn note_incident(&mut self, incident: &Incident) {
        let meter = match incident.kind {
            IncidentKind::InstabilityOnset => self.meters.onsets,
            IncidentKind::PeriodicSignal => self.meters.periodics,
            IncidentKind::NoveltyAlarm => self.meters.novelties,
        };
        self.registry.inc(meter);
        self.tracer.record(
            incident.detected_ms,
            0,
            TraceKind::IncidentRaised {
                kind: incident.kind.label(),
                onset_ms: incident.onset_ms,
            },
        );
    }
}

/// Dominant known cause in a bin's cause histogram; "unknown" when the
/// bin carries no provenance.
fn dominant_cause(counts: &[u64; Cause::COUNT]) -> &'static str {
    let mut best: Option<(u64, Cause)> = None;
    for cause in Cause::ALL {
        if cause == Cause::Unknown {
            continue;
        }
        let n = counts[cause.index()];
        if n > 0 && best.is_none_or(|(b, _)| n > b) {
            best = Some((n, cause));
        }
    }
    match best {
        Some((_, cause)) => cause.label(),
        None => "unknown",
    }
}

/// Maps the novelty detector's numeric key (an [`UpdateClass`] index)
/// back to its taxonomy label for the incident detail.
fn novel_class_label(detail: &str) -> Option<&'static str> {
    let key: usize = detail
        .strip_prefix("novel key ")?
        .split(':')
        .next()?
        .parse()
        .ok()?;
    UpdateClass::from_index(key).map(|c| c.label())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StoreWriter, StoredEvent};
    use iri_bgp::types::{Asn, Prefix};
    use iri_core::input::PeerKey;
    use std::net::Ipv4Addr;
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_store_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "iri-watch-test-{}-{}-{tag}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn event(time_ms: u64, class: UpdateClass, cause: Cause) -> StoredEvent {
        StoredEvent {
            time_ms,
            peer: PeerKey {
                asn: Asn(701),
                addr: Ipv4Addr::new(192, 41, 177, 1),
            },
            prefix: Prefix::from_raw(0x0a00_0000, 8),
            class,
            cause,
            policy_change: false,
            size: 2,
        }
    }

    fn seed_store(dir: &Path, rows: &[StoredEvent]) {
        let mut writer = StoreWriter::create(dir, 4_096).unwrap();
        for row in rows {
            writer.push(row).unwrap();
        }
        writer.commit(0).unwrap();
    }

    /// Step scenario: 10 quiet events/s, then 80/s tagged CsuDrift from
    /// t=60s.
    fn step_rows() -> Vec<StoredEvent> {
        let mut rows = Vec::new();
        for sec in 0..120u64 {
            let (rate, cause) = if sec >= 60 {
                (80, Cause::CsuDrift)
            } else {
                (10, Cause::Unknown)
            };
            for k in 0..rate {
                rows.push(event(
                    sec * 1_000 + (k * 1_000 / rate),
                    UpdateClass::WwDup,
                    cause,
                ));
            }
        }
        rows.push(event(120_000, UpdateClass::WwDup, Cause::Unknown));
        rows
    }

    #[test]
    fn watcher_detects_step_with_cause() {
        let dir = temp_store_dir("step");
        seed_store(&dir, &step_rows());
        let live = LiveStore::open(&dir).unwrap();
        let mut watcher = Watcher::new(WatchConfig {
            change_window: 20,
            ..WatchConfig::default()
        });
        let report = watcher.poll(&live).unwrap();
        assert_eq!(report.bins_processed, 120);
        let onsets: Vec<&Incident> = watcher
            .incidents()
            .iter()
            .filter(|i| i.kind == IncidentKind::InstabilityOnset)
            .collect();
        assert_eq!(onsets.len(), 1, "{:?}", watcher.incidents());
        assert_eq!(onsets[0].onset_ms, 60_000);
        assert_eq!(onsets[0].cause, Cause::CsuDrift.label());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn watcher_is_poll_cadence_invariant() {
        let rows = step_rows();
        let dir_a = temp_store_dir("cadence-a");
        seed_store(&dir_a, &rows);
        let live_a = LiveStore::open(&dir_a).unwrap();
        let mut one_shot = Watcher::new(WatchConfig::default());
        one_shot.poll(&live_a).unwrap();

        // Same content arriving in four commits, polled between each.
        let dir_b = temp_store_dir("cadence-b");
        seed_store(&dir_b, &rows[..1]);
        let live_b = LiveStore::open(&dir_b).unwrap();
        let mut incremental = Watcher::new(WatchConfig::default());
        incremental.poll(&live_b).unwrap();
        for chunk in rows[1..].chunks(rows.len() / 4 + 1) {
            live_b.append_events(chunk).unwrap();
            incremental.poll(&live_b).unwrap();
        }
        assert_eq!(
            one_shot.incidents(),
            incremental.incidents(),
            "incident stream must not depend on poll cadence"
        );
        assert_eq!(one_shot.watermark_ms(), incremental.watermark_ms());
        drop(live_a);
        drop(live_b);
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn a_restarted_watcher_resumes_without_re_raising_incidents() {
        let rows = step_rows();
        let dir = temp_store_dir("restart");
        seed_store(&dir, &rows);
        let live = LiveStore::open(&dir).unwrap();
        let fs = iri_faults::real_fs();
        let state_path = dir.join("WATCH_STATE.json");

        // First process: watch, raise the onset, persist, "crash".
        let mut first = Watcher::new(WatchConfig::default());
        first.poll(&live).unwrap();
        assert_eq!(first.incidents().len(), 1, "{:?}", first.incidents());
        first.state().save(&*fs, &state_path).unwrap();
        let saved = first.state();
        drop(first);

        // Second process: resume from disk over the same store.
        let loaded = WatchState::load(&*fs, &state_path).unwrap().unwrap();
        assert_eq!(loaded, saved);
        let mut second = Watcher::with_state(WatchConfig::default(), &loaded);
        let report = second.poll(&live).unwrap();
        assert_eq!(report.bins_processed, 0, "already-fed bins must not repeat");
        assert!(
            second.incidents().is_empty(),
            "resume re-raised {:?}",
            second.incidents()
        );

        // New data past the watermark still flows in.
        let mut tail = Vec::new();
        for sec in 121..150u64 {
            for k in 0..10u64 {
                tail.push(event(
                    sec * 1_000 + k * 100,
                    UpdateClass::WwDup,
                    Cause::Unknown,
                ));
            }
        }
        tail.push(event(150_000, UpdateClass::WwDup, Cause::Unknown));
        live.append_events(&tail).unwrap();
        let report = second.poll(&live).unwrap();
        assert!(
            report.bins_processed > 0,
            "new bins must be fed after resume"
        );

        // A missing state file is a fresh start, not an error.
        assert_eq!(
            WatchState::load(&*fs, &dir.join("NO_SUCH_STATE.json")).unwrap(),
            None
        );
        drop(live);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn watcher_raises_novelty_for_new_class() {
        let mut rows = Vec::new();
        for sec in 0..40u64 {
            for k in 0..20u64 {
                rows.push(event(
                    sec * 1_000 + k * 50,
                    UpdateClass::WwDup,
                    Cause::Unknown,
                ));
            }
        }
        // A burst of a class never seen before, tagged with a cause.
        for k in 0..30u64 {
            rows.push(event(
                40_000 + k * 30,
                UpdateClass::AaDup,
                Cause::TimerInterval,
            ));
        }
        rows.push(event(41_500, UpdateClass::WwDup, Cause::Unknown));
        let dir = temp_store_dir("novelty");
        seed_store(&dir, &rows);
        let live = LiveStore::open(&dir).unwrap();
        let mut watcher = Watcher::new(WatchConfig::default());
        watcher.poll(&live).unwrap();
        let alarms: Vec<&Incident> = watcher
            .incidents()
            .iter()
            .filter(|i| i.kind == IncidentKind::NoveltyAlarm)
            .collect();
        assert_eq!(alarms.len(), 1, "{:?}", watcher.incidents());
        assert_eq!(alarms[0].onset_ms, 40_000);
        assert!(
            alarms[0].detail.contains(UpdateClass::AaDup.label()),
            "{}",
            alarms[0].detail
        );
        assert_eq!(alarms[0].cause, Cause::TimerInterval.label());
        // Incident trace events are stamped with event time.
        let trace_times: Vec<u64> = watcher.tracer().events().map(|e| e.time).collect();
        assert_eq!(trace_times, vec![41_000]);
        assert_eq!(
            watcher
                .registry()
                .counter_value("watch.incidents.novelty_alarm"),
            Some(1)
        );
        drop(live);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
