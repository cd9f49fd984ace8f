//! Seeded input generators. The measured program sees only what these
//! produce; the same seed gives the same inputs.
//!
//! The seed decides *which* peers, prefixes and instants appear; the mix
//! — share of withdrawals, of repeated announcements, of flapping pairs —
//! is fixed, so two seeds give workloads of the same shape and size.

use iri_bgp::attrs::{Origin, PathAttributes};
use iri_bgp::message::{Message, Update};
use iri_bgp::path::AsPath;
use iri_bgp::types::{Asn, Prefix};
use iri_core::input::{PeerKey, UpdateEvent};
use iri_core::Classifier;
use iri_faults::{RetryPolicy, SharedFs};
use iri_mrt::{Bgp4mpMessage, MrtRecord};
use iri_obs::Cause;
use iri_store::{Query, StoreWriter, StoredEvent, DEFAULT_SEGMENT_ROWS};
use std::net::Ipv4Addr;
use std::path::Path;

/// SplitMix64: small, seedable, and owned by the benchmark.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream label, so each input of a
    /// workload draws from its own sequence.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next();
        r
    }

    /// Next 64 bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// True with probability `percent` / 100.
    pub fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// Peers at the synthetic exchange.
pub const PEERS: u64 = 16;
/// Distinct prefixes the generators draw from.
pub const PREFIXES: u64 = 20_000;
/// Unix time of the first record: mid-1996, like the study.
pub const BASE_UNIX: u32 = 833_000_000;

/// Peer `i` of the synthetic exchange.
#[must_use]
pub fn peer(i: u64) -> PeerKey {
    PeerKey {
        asn: Asn(7000 + i as u32),
        addr: Ipv4Addr::new(192, 41, 177, (i % 250) as u8 + 1),
    }
}

/// Prefix `i` of the pool: a /24 under 10/8.
#[must_use]
pub fn prefix(i: u64) -> Prefix {
    Prefix::from_raw(0x0a00_0000 | ((i as u32) << 8), 24)
}

fn attrs(peer_idx: u64, variant: u64) -> PathAttributes {
    PathAttributes::new(
        Origin::Igp,
        AsPath::from_sequence([Asn(7000 + peer_idx as u32), Asn(65_000 + variant as u32)]),
        Ipv4Addr::new(10, 0, 0, variant as u8 + 1),
    )
}

/// What the MRT generator emitted, by its own count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tallies {
    /// Records.
    pub records: u64,
    /// Announced prefixes.
    pub announces: u64,
    /// Withdrawn prefixes.
    pub withdraws: u64,
}

/// One choice of (peer, prefix, action) with the fixed mix: 40 %
/// withdrawals, the rest announcements alternating between two routes;
/// a fifth of all picks revisit one of 64 hot prefixes (the flappers).
fn pick(rng: &mut Rng) -> (u64, u64, Option<u64>) {
    let peer_idx = rng.below(PEERS);
    let prefix_idx = if rng.chance(20) {
        rng.below(64)
    } else {
        rng.below(PREFIXES)
    };
    let action = if rng.chance(40) {
        None
    } else {
        Some(rng.below(2))
    };
    (peer_idx, prefix_idx, action)
}

/// A BGP4MP update log of `records` records, one prefix per update,
/// second-resolution timestamps advancing about every eighth record.
#[must_use]
pub fn mrt_records(seed: u64, records: u64) -> (Vec<MrtRecord>, Tallies) {
    let mut rng = Rng::new(seed, 1);
    let mut time = BASE_UNIX;
    let mut tallies = Tallies::default();
    let mut out = Vec::with_capacity(records as usize);
    for _ in 0..records {
        if rng.below(8) == 0 {
            time += 1;
        }
        let (peer_idx, prefix_idx, action) = pick(&mut rng);
        let p = prefix(prefix_idx);
        let message = match action {
            None => {
                tallies.withdraws += 1;
                Message::Update(Update::withdraw([p]))
            }
            Some(variant) => {
                tallies.announces += 1;
                Message::Update(Update::announce(attrs(peer_idx, variant), [p]))
            }
        };
        let pk = peer(peer_idx);
        out.push(MrtRecord::Bgp4mpMessage(Bgp4mpMessage {
            timestamp: time,
            peer_asn: pk.asn,
            local_asn: Asn(237),
            peer_ip: pk.addr,
            local_ip: Ipv4Addr::new(192, 41, 177, 250),
            message,
        }));
        tallies.records += 1;
    }
    (out, tallies)
}

/// The causes the row generator cycles through: plain MRT ingest has no
/// provenance, simulator traces do, and the store keeps both.
const CAUSES: [Cause; 4] = [
    Cause::Unknown,
    Cause::Origination,
    Cause::LinkFlap,
    Cause::TimerInterval,
];

/// `n` prefix events in time order over `[start_ms, start_ms + span_ms)`,
/// with the same mix as [`mrt_records`].
#[must_use]
pub fn update_events(
    seed: u64,
    stream: u64,
    n: u64,
    start_ms: u64,
    span_ms: u64,
) -> Vec<UpdateEvent> {
    let mut rng = Rng::new(seed, stream);
    (0..n)
        .map(|i| {
            // Evenly paced with jitter inside each step, so time order
            // holds and every hour holds about the same number of rows.
            let step = span_ms as f64 / n as f64;
            let t = start_ms + (i as f64 * step) as u64 + rng.below(step.max(1.0) as u64);
            let (peer_idx, prefix_idx, action) = pick(&mut rng);
            match action {
                None => UpdateEvent::withdraw(t, peer(peer_idx), prefix(prefix_idx)),
                Some(v) => {
                    UpdateEvent::announce(t, peer(peer_idx), prefix(prefix_idx), attrs(peer_idx, v))
                }
            }
        })
        .collect()
}

/// Classifies `events` in order into the rows the store persists, with
/// a seeded cause per row.
#[must_use]
pub fn classify_rows(seed: u64, events: &[UpdateEvent]) -> Vec<StoredEvent> {
    let mut rng = Rng::new(seed, 2);
    let mut classifier = Classifier::new();
    events
        .iter()
        .map(|ev| {
            let c = classifier.classify(ev);
            StoredEvent::from_classified(&c, CAUSES[rng.below(CAUSES.len() as u64) as usize])
        })
        .collect()
}

/// One hour and one day of event time, ms.
pub const HOUR_MS: u64 = 3_600_000;
/// The span the fixture stores cover.
pub const DAY_MS: u64 = 24 * HOUR_MS;

/// The fixture store of `query_mix` and `serve_mixed`: `n` classified
/// rows evenly paced over one day starting at hour 1, written to `dir`
/// through `fs` in one commit. Returns the rows, in time order — what
/// the reference answers are computed from.
#[must_use]
pub fn day_store(seed: u64, stream: u64, n: u64, dir: &Path, fs: SharedFs) -> Vec<StoredEvent> {
    let rows = classify_rows(seed, &update_events(seed, stream, n, HOUR_MS, DAY_MS));
    let mut writer =
        StoreWriter::create_with(dir, DEFAULT_SEGMENT_ROWS, fs, RetryPolicy::default())
            .expect("fresh store");
    for row in &rows {
        writer.push(row).expect("push");
    }
    writer.commit(n).expect("commit");
    rows
}

/// The rows a query matches, by a plain pass over rows in time order:
/// the reference every stored or served answer is held against. It
/// shares no code with the store's planner or decoder.
pub fn matching<'a>(
    rows: &'a [StoredEvent],
    q: &'a Query,
) -> impl Iterator<Item = &'a StoredEvent> + Clone {
    let lo = rows.partition_point(|r| r.time_ms < q.from_ms);
    let hi = rows.partition_point(|r| r.time_ms < q.to_ms);
    rows[lo..hi].iter().filter(move |r| {
        q.peer_asn.is_none_or(|a| r.peer.asn == a)
            && q.prefix.is_none_or(|p| r.prefix == p)
            && q.class.is_none_or(|c| r.class == c)
            && q.cause.is_none_or(|c| r.cause == c)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let (a, ta) = mrt_records(7, 500);
        let (b, tb) = mrt_records(7, 500);
        let (c, _) = mrt_records(8, 500);
        assert_eq!(a, b);
        assert_eq!(ta, tb);
        assert_ne!(a, c);
        assert_eq!(ta.records, 500);
        assert_eq!(ta.announces + ta.withdraws, 500);
    }

    #[test]
    fn rows_are_in_time_order_inside_the_span() {
        let evs = update_events(3, 5, 2_000, 1_000, 3_600_000);
        assert!(evs.windows(2).all(|w| w[0].time_ms <= w[1].time_ms));
        assert!(evs.iter().all(|e| (1_000..3_601_000).contains(&e.time_ms)));
        let rows = classify_rows(3, &evs);
        assert_eq!(rows.len(), evs.len());
        assert_eq!(rows, classify_rows(3, &evs));
    }
}
