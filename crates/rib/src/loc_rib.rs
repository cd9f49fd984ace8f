//! Loc-RIB: the router's own view of best routes, produced by running the
//! decision process over all peers' candidates.
//!
//! The Loc-RIB is where forwarding instability becomes visible: each best-
//! route change here churns the forwarding cache of the route-caching
//! architecture (§3 of the paper) and is propagated to peers via
//! Adj-RIB-Out.

use crate::decision::{compare_routes, RouteCandidate};
use crate::trie::PrefixTrie;
use iri_bgp::types::Prefix;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Identifies a peer within a Loc-RIB by session address (unique per
/// router).
pub type PeerId = Ipv4Addr;

/// Per-prefix candidate set plus the current best selection, held as the
/// key of the winning candidate so the table keeps one copy of each route.
struct Entry {
    candidates: BTreeMap<PeerId, RouteCandidate>,
    best: Option<PeerId>,
}

impl Entry {
    fn best(&self) -> Option<&RouteCandidate> {
        self.best.map(|peer| &self.candidates[&peer])
    }

    /// The decision process: the key of the most preferred candidate
    /// ([`crate::decision::best_route`]'s choice, first wins on a tie).
    fn select(&self) -> Option<PeerId> {
        self.candidates
            .iter()
            .min_by(|(_, a), (_, b)| compare_routes(a, b))
            .map(|(peer, _)| *peer)
    }
}

/// How a prefix's best route changed after an event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BestChange {
    /// The prefix became reachable (no previous best).
    NewBest(RouteCandidate),
    /// The best route was replaced by a different one.
    Replaced {
        /// The previous best.
        old: Box<RouteCandidate>,
        /// The new best.
        new: Box<RouteCandidate>,
    },
    /// The prefix became unreachable.
    Unreachable(RouteCandidate),
    /// Candidates changed but the best selection is identical.
    Unchanged,
}

impl BestChange {
    /// Whether forwarding actually changed.
    #[must_use]
    pub fn is_forwarding_change(&self) -> bool {
        !matches!(self, BestChange::Unchanged)
    }
}

/// The local routing table.
#[derive(Default)]
pub struct LocRib {
    entries: PrefixTrie<Entry>,
    /// Count of prefixes with a current best route.
    reachable: usize,
}

impl LocRib {
    /// An empty Loc-RIB.
    #[must_use]
    pub fn new() -> Self {
        LocRib {
            entries: PrefixTrie::new(),
            reachable: 0,
        }
    }

    /// Number of reachable prefixes (with a best route).
    #[must_use]
    pub fn reachable_count(&self) -> usize {
        self.reachable
    }

    /// The current best route for `prefix`.
    #[must_use]
    pub fn best(&self, prefix: Prefix) -> Option<&RouteCandidate> {
        self.entries.get(prefix).and_then(Entry::best)
    }

    /// Number of distinct candidate paths stored for `prefix` — the
    /// multihoming degree the paper tracks in Figure 10.
    #[must_use]
    pub fn path_count(&self, prefix: Prefix) -> usize {
        self.entries.get(prefix).map_or(0, |e| e.candidates.len())
    }

    /// Iterates `(prefix, best)` for all reachable prefixes.
    pub fn iter_best(&self) -> impl Iterator<Item = (Prefix, &RouteCandidate)> {
        self.entries
            .iter()
            .filter_map(|(p, e)| e.best().map(|b| (p, b)))
    }

    /// Iterates `(prefix, number-of-paths)` over all prefixes with ≥1
    /// candidate.
    pub fn iter_path_counts(&self) -> impl Iterator<Item = (Prefix, usize)> + '_ {
        self.entries
            .iter()
            .filter(|(_, e)| !e.candidates.is_empty())
            .map(|(p, e)| (p, e.candidates.len()))
    }

    /// Longest-prefix match against current best routes — the forwarding
    /// lookup.
    #[must_use]
    pub fn lookup(&self, dest: Prefix) -> Option<(Prefix, &RouteCandidate)> {
        // Walk specific-to-broad: longest_match on the trie finds the most
        // specific entry, but that entry may currently have no best route;
        // fall back by popping one bit at a time.
        let mut probe = dest;
        loop {
            if let Some((p, e)) = self.entries.longest_match(probe) {
                if let Some(b) = e.best() {
                    return Some((p, b));
                }
                // Entry exists but unreachable: retry one level up.
                match p.parent() {
                    Some(parent) => probe = parent,
                    None => return None,
                }
            } else {
                return None;
            }
        }
    }

    /// Re-runs the decision process for `prefix` after `peer`'s candidate
    /// changed; `displaced` is the candidate the change replaced or
    /// removed. An unchanged selection copies nothing. A changed one clones
    /// the new best once, into the change, and moves the old best into it
    /// when it was the displaced candidate.
    fn recompute(
        &mut self,
        prefix: Prefix,
        peer: PeerId,
        displaced: Option<RouteCandidate>,
    ) -> BestChange {
        let entry = self
            .entries
            .get_mut(prefix)
            .expect("recompute on existing entry");
        let old_key = entry.best;
        let new_key = entry.select();
        entry.best = new_key;
        // The old best is `displaced` if it was `peer`'s, and otherwise
        // still in the table, untouched.
        let old_was_displaced = old_key == Some(peer);
        let unchanged = {
            let old = match old_key {
                Some(_) if old_was_displaced => displaced.as_ref(),
                Some(key) => Some(&entry.candidates[&key]),
                None => None,
            };
            old == entry.best()
        };
        if unchanged {
            if entry.candidates.is_empty() {
                self.entries.remove(prefix);
            }
            return BestChange::Unchanged;
        }
        let new = entry.best().cloned();
        let old = match old_key {
            Some(_) if old_was_displaced => displaced,
            Some(key) => Some(entry.candidates[&key].clone()),
            None => None,
        };
        let change = match (old, new) {
            (None, Some(n)) => {
                self.reachable += 1;
                BestChange::NewBest(n)
            }
            (Some(o), None) => {
                self.reachable -= 1;
                BestChange::Unreachable(o)
            }
            (Some(o), Some(n)) => BestChange::Replaced {
                old: Box::new(o),
                new: Box::new(n),
            },
            (None, None) => unreachable!("equal selections returned above"),
        };
        if entry.candidates.is_empty() {
            self.entries.remove(prefix);
        }
        change
    }

    /// Installs or replaces `peer`'s candidate for `prefix` and re-runs the
    /// decision process.
    pub fn upsert(&mut self, prefix: Prefix, peer: PeerId, cand: RouteCandidate) -> BestChange {
        let entry = self.entries.get_or_insert_with(prefix, || Entry {
            candidates: BTreeMap::new(),
            best: None,
        });
        let displaced = entry.candidates.insert(peer, cand);
        self.recompute(prefix, peer, displaced)
    }

    /// Removes `peer`'s candidate for `prefix` (withdrawal) and re-runs the
    /// decision process.
    pub fn withdraw(&mut self, prefix: Prefix, peer: PeerId) -> BestChange {
        match self.entries.get_mut(prefix) {
            Some(entry) => match entry.candidates.remove(&peer) {
                Some(removed) => self.recompute(prefix, peer, Some(removed)),
                None => BestChange::Unchanged,
            },
            None => BestChange::Unchanged,
        }
    }

    /// Exports every candidate as flat `(prefix, peer, candidate)` rows —
    /// the spillable image of the table. Best selections are *not*
    /// exported: [`LocRib::import_candidates`] reruns the deterministic
    /// decision process, so they reconstruct bit-for-bit.
    #[must_use]
    pub fn export_candidates(&self) -> Vec<(Prefix, PeerId, RouteCandidate)> {
        self.entries
            .iter()
            .flat_map(|(p, e)| {
                e.candidates
                    .iter()
                    .map(move |(peer, cand)| (p, *peer, cand.clone()))
            })
            .collect()
    }

    /// Rebuilds the table from exported rows (the inverse of
    /// [`LocRib::export_candidates`]). The table must be empty.
    pub fn import_candidates(&mut self, rows: Vec<(Prefix, PeerId, RouteCandidate)>) {
        debug_assert_eq!(self.reachable, 0, "import into a non-empty Loc-RIB");
        for (prefix, peer, cand) in rows {
            self.upsert(prefix, peer, cand);
        }
    }

    /// Removes every candidate learned from `peer` (session loss), returning
    /// each affected prefix with its best-route change.
    pub fn drop_peer(&mut self, peer: PeerId) -> Vec<(Prefix, BestChange)> {
        let affected: Vec<Prefix> = self
            .entries
            .iter()
            .filter(|(_, e)| e.candidates.contains_key(&peer))
            .map(|(p, _)| p)
            .collect();
        affected
            .into_iter()
            .map(|p| (p, self.withdraw(p, peer)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iri_bgp::attrs::{Origin, PathAttributes};
    use iri_bgp::path::AsPath;
    use iri_bgp::types::Asn;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn cand(path: &[u32], rid: u8) -> RouteCandidate {
        RouteCandidate {
            attrs: PathAttributes::new(
                Origin::Igp,
                AsPath::from_sequence(path.iter().map(|&a| Asn(a))),
                Ipv4Addr::new(10, 0, 0, rid),
            ),
            peer_asn: Asn(path[0]),
            peer_router_id: Ipv4Addr::new(rid, rid, rid, rid),
            peer_addr: Ipv4Addr::new(rid, rid, rid, rid),
        }
    }

    fn peer(rid: u8) -> PeerId {
        Ipv4Addr::new(rid, rid, rid, rid)
    }

    #[test]
    fn first_announcement_is_new_best() {
        let mut rib = LocRib::new();
        let c = cand(&[701], 1);
        match rib.upsert(p("10.0.0.0/8"), peer(1), c.clone()) {
            BestChange::NewBest(b) => assert_eq!(b, c),
            other => panic!("{other:?}"),
        }
        assert_eq!(rib.reachable_count(), 1);
    }

    #[test]
    fn better_route_replaces() {
        let mut rib = LocRib::new();
        rib.upsert(p("10.0.0.0/8"), peer(2), cand(&[1239, 701], 2));
        let c = cand(&[701], 1);
        match rib.upsert(p("10.0.0.0/8"), peer(1), c.clone()) {
            BestChange::Replaced { new, .. } => assert_eq!(*new, c),
            other => panic!("{other:?}"),
        }
        assert_eq!(rib.path_count(p("10.0.0.0/8")), 2);
        assert_eq!(rib.reachable_count(), 1);
    }

    #[test]
    fn worse_route_is_unchanged() {
        let mut rib = LocRib::new();
        rib.upsert(p("10.0.0.0/8"), peer(1), cand(&[701], 1));
        let change = rib.upsert(p("10.0.0.0/8"), peer(2), cand(&[1239, 3, 701], 2));
        assert_eq!(change, BestChange::Unchanged);
        assert!(!change.is_forwarding_change());
    }

    #[test]
    fn withdrawal_falls_back_to_alternative() {
        let mut rib = LocRib::new();
        rib.upsert(p("10.0.0.0/8"), peer(1), cand(&[701], 1));
        rib.upsert(p("10.0.0.0/8"), peer(2), cand(&[1239, 701], 2));
        match rib.withdraw(p("10.0.0.0/8"), peer(1)) {
            BestChange::Replaced { new, .. } => {
                assert_eq!(new.peer_router_id, Ipv4Addr::new(2, 2, 2, 2));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(rib.reachable_count(), 1);
    }

    #[test]
    fn last_withdrawal_makes_unreachable() {
        let mut rib = LocRib::new();
        rib.upsert(p("10.0.0.0/8"), peer(1), cand(&[701], 1));
        match rib.withdraw(p("10.0.0.0/8"), peer(1)) {
            BestChange::Unreachable(_) => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(rib.reachable_count(), 0);
        assert!(rib.best(p("10.0.0.0/8")).is_none());
    }

    #[test]
    fn withdraw_unknown_is_unchanged() {
        let mut rib = LocRib::new();
        assert_eq!(
            rib.withdraw(p("10.0.0.0/8"), peer(1)),
            BestChange::Unchanged
        );
        rib.upsert(p("10.0.0.0/8"), peer(1), cand(&[701], 1));
        assert_eq!(
            rib.withdraw(p("10.0.0.0/8"), peer(9)),
            BestChange::Unchanged
        );
    }

    #[test]
    fn duplicate_upsert_is_unchanged() {
        let mut rib = LocRib::new();
        rib.upsert(p("10.0.0.0/8"), peer(1), cand(&[701], 1));
        assert_eq!(
            rib.upsert(p("10.0.0.0/8"), peer(1), cand(&[701], 1)),
            BestChange::Unchanged
        );
    }

    #[test]
    fn drop_peer_withdraws_everything_learned() {
        let mut rib = LocRib::new();
        rib.upsert(p("10.0.0.0/8"), peer(1), cand(&[701], 1));
        rib.upsert(p("11.0.0.0/8"), peer(1), cand(&[701], 1));
        rib.upsert(p("10.0.0.0/8"), peer(2), cand(&[1239, 701], 2));
        let changes = rib.drop_peer(peer(1));
        assert_eq!(changes.len(), 2);
        assert_eq!(rib.reachable_count(), 1); // 10/8 survives via peer 2
        assert!(rib.best(p("11.0.0.0/8")).is_none());
    }

    #[test]
    fn lookup_longest_match_with_fallback() {
        let mut rib = LocRib::new();
        rib.upsert(p("10.0.0.0/8"), peer(1), cand(&[701], 1));
        rib.upsert(p("10.1.0.0/16"), peer(2), cand(&[1239], 2));
        let (got, _) = rib.lookup(p("10.1.2.3/32")).unwrap();
        assert_eq!(got, p("10.1.0.0/16"));
        // Withdraw the /16; lookup falls back to /8.
        rib.withdraw(p("10.1.0.0/16"), peer(2));
        let (got, _) = rib.lookup(p("10.1.2.3/32")).unwrap();
        assert_eq!(got, p("10.0.0.0/8"));
        assert!(rib.lookup(p("11.0.0.0/32")).is_none());
    }

    #[test]
    fn path_counts_track_multihoming() {
        let mut rib = LocRib::new();
        rib.upsert(p("10.0.0.0/8"), peer(1), cand(&[701], 1));
        rib.upsert(p("10.0.0.0/8"), peer(2), cand(&[1239, 701], 2));
        rib.upsert(p("11.0.0.0/8"), peer(1), cand(&[701], 1));
        let multi: Vec<_> = rib
            .iter_path_counts()
            .filter(|&(_, n)| n > 1)
            .map(|(p, _)| p)
            .collect();
        assert_eq!(multi, vec![p("10.0.0.0/8")]);
    }
}
