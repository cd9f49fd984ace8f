//! Adj-RIB-In: per-peer store of routes as received, pre-decision.
//!
//! One instance exists per peering session. Applying an UPDATE produces the
//! set of prefixes whose candidate route changed, which feeds the decision
//! process in [`crate::loc_rib`].

use crate::decision::RouteCandidate;
use crate::trie::PrefixTrie;
use iri_bgp::message::Update;
use iri_bgp::types::{Asn, Prefix};
use std::net::Ipv4Addr;

/// Routes received from a single peer.
pub struct AdjRibIn {
    /// The peer's AS (copied into candidates).
    peer_asn: Asn,
    /// The peer's router ID.
    peer_router_id: Ipv4Addr,
    /// The peer's session address.
    peer_addr: Ipv4Addr,
    routes: PrefixTrie<RouteCandidate>,
}

/// Effect of applying one UPDATE to an Adj-RIB-In.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct InDelta {
    /// Prefixes whose stored candidate changed or appeared.
    pub changed: Vec<Prefix>,
    /// Prefixes removed by explicit withdrawal.
    pub withdrawn: Vec<Prefix>,
    /// Withdrawals for prefixes this peer never announced — the raw signal
    /// behind the paper's WWDup pathology, counted here so router models can
    /// report it.
    pub spurious_withdrawals: usize,
    /// Announcements identical to what was already stored (AADup signal at
    /// the single-session level).
    pub duplicate_announcements: usize,
}

impl AdjRibIn {
    /// Creates an empty Adj-RIB-In for a peer.
    #[must_use]
    pub fn new(peer_asn: Asn, peer_router_id: Ipv4Addr, peer_addr: Ipv4Addr) -> Self {
        AdjRibIn {
            peer_asn,
            peer_router_id,
            peer_addr,
            routes: PrefixTrie::new(),
        }
    }

    /// The peer's AS.
    #[must_use]
    pub fn peer_asn(&self) -> Asn {
        self.peer_asn
    }

    /// Number of routes currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Whether the RIB holds no routes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Current candidate for `prefix`, if any.
    #[must_use]
    pub fn get(&self, prefix: Prefix) -> Option<&RouteCandidate> {
        self.routes.get(prefix)
    }

    /// Iterates all held routes.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &RouteCandidate)> {
        self.routes.iter()
    }

    /// Applies an UPDATE, returning what changed.
    pub fn apply(&mut self, update: &Update) -> InDelta {
        let mut delta = InDelta::default();
        for &prefix in &update.withdrawn {
            if self.routes.remove(prefix).is_some() {
                delta.withdrawn.push(prefix);
            } else {
                delta.spurious_withdrawals += 1;
            }
        }
        if let Some(attrs) = &update.attrs {
            for &prefix in &update.nlri {
                // Compared in place: only a stored candidate copies the
                // attributes.
                let duplicate = self.routes.get(prefix).is_some_and(|existing| {
                    existing.attrs == *attrs
                        && existing.peer_asn == self.peer_asn
                        && existing.peer_router_id == self.peer_router_id
                        && existing.peer_addr == self.peer_addr
                });
                if duplicate {
                    // A byte-identical candidate changes nothing downstream;
                    // stateful routers suppress it.
                    delta.duplicate_announcements += 1;
                } else {
                    let cand = RouteCandidate {
                        attrs: attrs.clone(),
                        peer_asn: self.peer_asn,
                        peer_router_id: self.peer_router_id,
                        peer_addr: self.peer_addr,
                    };
                    self.routes.insert(prefix, cand);
                    delta.changed.push(prefix);
                }
            }
        }
        delta
    }

    /// Exports all held routes as owned rows — the spillable image.
    #[must_use]
    pub fn export_routes(&self) -> Vec<(Prefix, RouteCandidate)> {
        self.routes.iter().map(|(p, c)| (p, c.clone())).collect()
    }

    /// Rebuilds the table from exported rows (inverse of
    /// [`AdjRibIn::export_routes`]); peer identity is unchanged.
    pub fn import_routes(&mut self, rows: Vec<(Prefix, RouteCandidate)>) {
        self.routes.clear();
        for (prefix, cand) in rows {
            self.routes.insert(prefix, cand);
        }
    }

    /// Drops every route, as happens when the peering session falls —
    /// "once a BGP connection is severed, all of the peer's routes are
    /// withdrawn". Returns the withdrawn prefixes.
    pub fn clear_session(&mut self) -> Vec<Prefix> {
        let prefixes: Vec<Prefix> = self.routes.iter().map(|(p, _)| p).collect();
        self.routes.clear();
        prefixes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iri_bgp::attrs::Origin;
    use iri_bgp::message::UpdateBuilder;
    use iri_bgp::path::AsPath;

    fn rib() -> AdjRibIn {
        AdjRibIn::new(
            Asn(701),
            Ipv4Addr::new(137, 39, 1, 1),
            Ipv4Addr::new(192, 41, 177, 1),
        )
    }

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn announce(prefix: &str, path: &[u32]) -> Update {
        UpdateBuilder::new()
            .announce(p(prefix))
            .next_hop(Ipv4Addr::new(192, 41, 177, 1))
            .as_path(AsPath::from_sequence(path.iter().map(|&a| Asn(a))))
            .origin(Origin::Igp)
            .build()
            .unwrap()
    }

    #[test]
    fn announce_then_withdraw() {
        let mut r = rib();
        let d1 = r.apply(&announce("10.0.0.0/8", &[701]));
        assert_eq!(d1.changed, vec![p("10.0.0.0/8")]);
        assert_eq!(r.len(), 1);
        let d2 = r.apply(&Update::withdraw([p("10.0.0.0/8")]));
        assert_eq!(d2.withdrawn, vec![p("10.0.0.0/8")]);
        assert!(r.is_empty());
    }

    #[test]
    fn spurious_withdrawal_counted() {
        let mut r = rib();
        let d = r.apply(&Update::withdraw([p("192.42.113.0/24")]));
        assert_eq!(d.spurious_withdrawals, 1);
        assert!(d.withdrawn.is_empty());
    }

    #[test]
    fn duplicate_announcement_detected() {
        let mut r = rib();
        r.apply(&announce("10.0.0.0/8", &[701]));
        let d = r.apply(&announce("10.0.0.0/8", &[701]));
        assert_eq!(d.duplicate_announcements, 1);
        assert!(d.changed.is_empty());
    }

    #[test]
    fn implicit_replacement_is_change() {
        let mut r = rib();
        r.apply(&announce("10.0.0.0/8", &[701]));
        let d = r.apply(&announce("10.0.0.0/8", &[701, 1239]));
        assert_eq!(d.changed, vec![p("10.0.0.0/8")]);
        assert_eq!(
            r.get(p("10.0.0.0/8")).unwrap().attrs.as_path,
            AsPath::from_sequence([Asn(701), Asn(1239)])
        );
    }

    #[test]
    fn policy_only_change_is_still_change() {
        let mut r = rib();
        r.apply(&announce("10.0.0.0/8", &[701]));
        let mut u = announce("10.0.0.0/8", &[701]);
        u.attrs.as_mut().unwrap().med = Some(50);
        let d = r.apply(&u);
        assert_eq!(d.changed, vec![p("10.0.0.0/8")]);
    }

    #[test]
    fn session_clear_returns_all() {
        let mut r = rib();
        r.apply(&announce("10.0.0.0/8", &[701]));
        r.apply(&announce("11.0.0.0/8", &[701]));
        let dropped = r.clear_session();
        assert_eq!(dropped.len(), 2);
        assert!(r.is_empty());
    }

    #[test]
    fn candidate_carries_peer_identity() {
        let mut r = rib();
        r.apply(&announce("10.0.0.0/8", &[701]));
        let c = r.get(p("10.0.0.0/8")).unwrap();
        assert_eq!(c.peer_asn, Asn(701));
        assert_eq!(c.peer_router_id, Ipv4Addr::new(137, 39, 1, 1));
    }

    #[test]
    fn mixed_update_processes_withdrawals_and_nlri() {
        let mut r = rib();
        r.apply(&announce("10.0.0.0/8", &[701]));
        let mixed = UpdateBuilder::new()
            .withdraw(p("10.0.0.0/8"))
            .announce(p("11.0.0.0/8"))
            .next_hop(Ipv4Addr::new(192, 41, 177, 1))
            .as_path(AsPath::from_sequence([Asn(701)]))
            .build()
            .unwrap();
        let d = r.apply(&mixed);
        assert_eq!(d.withdrawn, vec![p("10.0.0.0/8")]);
        assert_eq!(d.changed, vec![p("11.0.0.0/8")]);
        assert_eq!(r.len(), 1);
    }
}
