//! Differential test of the Loc-RIB's decision bookkeeping: random upsert,
//! withdraw and drop-peer sequences must give the same [`BestChange`]
//! sequence, the same best routes and the same reachable count from
//! [`LocRib`] as from a reference that keeps a full copy of every best and
//! clones everything it compares — the straightforward implementation the
//! table's copy-free one must stay equal to.

use iri_bgp::attrs::{Origin, PathAttributes};
use iri_bgp::path::AsPath;
use iri_bgp::types::{Asn, Prefix};
use iri_rib::decision::{best_route, RouteCandidate};
use iri_rib::loc_rib::{BestChange, LocRib, PeerId};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// The reference: per prefix, every candidate plus a copy of the best.
#[derive(Default)]
struct Reference {
    entries: BTreeMap<Prefix, (BTreeMap<PeerId, RouteCandidate>, Option<RouteCandidate>)>,
    reachable: usize,
}

impl Reference {
    fn recompute(&mut self, prefix: Prefix) -> BestChange {
        let (candidates, best) = self.entries.get_mut(&prefix).expect("entry");
        let new_best = best_route(candidates.values()).cloned();
        let old_best = best.clone();
        let change = match (&old_best, &new_best) {
            (None, None) => BestChange::Unchanged,
            (None, Some(n)) => BestChange::NewBest(n.clone()),
            (Some(o), None) => BestChange::Unreachable(o.clone()),
            (Some(o), Some(n)) if o == n => BestChange::Unchanged,
            (Some(o), Some(n)) => BestChange::Replaced {
                old: Box::new(o.clone()),
                new: Box::new(n.clone()),
            },
        };
        match (&old_best, &new_best) {
            (None, Some(_)) => self.reachable += 1,
            (Some(_), None) => self.reachable -= 1,
            _ => {}
        }
        *best = new_best;
        if candidates.is_empty() && best.is_none() {
            self.entries.remove(&prefix);
        }
        change
    }

    fn upsert(&mut self, prefix: Prefix, peer: PeerId, cand: RouteCandidate) -> BestChange {
        self.entries.entry(prefix).or_default().0.insert(peer, cand);
        self.recompute(prefix)
    }

    fn withdraw(&mut self, prefix: Prefix, peer: PeerId) -> BestChange {
        let removed = self
            .entries
            .get_mut(&prefix)
            .and_then(|(candidates, _)| candidates.remove(&peer));
        match removed {
            Some(_) => self.recompute(prefix),
            None => BestChange::Unchanged,
        }
    }

    fn drop_peer(&mut self, peer: PeerId) -> Vec<(Prefix, BestChange)> {
        let affected: Vec<Prefix> = self
            .entries
            .iter()
            .filter(|(_, (candidates, _))| candidates.contains_key(&peer))
            .map(|(p, _)| *p)
            .collect();
        affected
            .into_iter()
            .map(|p| (p, self.withdraw(p, peer)))
            .collect()
    }

    fn best(&self, prefix: Prefix) -> Option<&RouteCandidate> {
        self.entries
            .get(&prefix)
            .and_then(|(_, best)| best.as_ref())
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// (prefix, peer, path variant, MED, advertised peer address)
    Upsert(u8, u8, u8, Option<u32>, u8),
    Withdraw(u8, u8),
    DropPeer(u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Upserts are half of all operations, so tables fill up.
    let upsert = || {
        (
            0u8..4,
            0u8..4,
            0u8..4,
            proptest::option::of(0u32..3),
            0u8..4,
        )
            .prop_map(|(p, peer, path, med, addr)| Op::Upsert(p, peer, path, med, addr))
    };
    prop_oneof![
        upsert(),
        upsert(),
        (0u8..4, 0u8..4).prop_map(|(p, peer)| Op::Withdraw(p, peer)),
        (0u8..4).prop_map(Op::DropPeer),
    ]
}

fn prefix(i: u8) -> Prefix {
    Prefix::from_raw(0x0a00_0000 | (u32::from(i) << 16), 16)
}

fn peer(i: u8) -> PeerId {
    Ipv4Addr::new(10, 9, 9, i)
}

/// A candidate whose advertised address need not match the key it is
/// stored under, so equal routes under different keys occur.
fn candidate(path: u8, med: Option<u32>, addr: u8) -> RouteCandidate {
    let hops: Vec<Asn> = (0..=u32::from(path % 3)).map(|h| Asn(100 + h)).collect();
    let mut attrs = PathAttributes::new(Origin::Igp, AsPath::from_sequence(hops), peer(addr));
    attrs.med = med;
    RouteCandidate {
        attrs,
        peer_asn: Asn(100),
        peer_router_id: peer(addr),
        peer_addr: peer(addr),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn loc_rib_changes_equal_the_clone_everything_reference(
        ops in prop::collection::vec(arb_op(), 0..120)
    ) {
        let mut rib = LocRib::new();
        let mut reference = Reference::default();
        for op in ops {
            match op {
                Op::Upsert(p, k, path, med, addr) => {
                    let cand = candidate(path, med, addr);
                    let got = rib.upsert(prefix(p), peer(k), cand.clone());
                    let want = reference.upsert(prefix(p), peer(k), cand);
                    prop_assert_eq!(got, want);
                }
                Op::Withdraw(p, k) => {
                    let got = rib.withdraw(prefix(p), peer(k));
                    let want = reference.withdraw(prefix(p), peer(k));
                    prop_assert_eq!(got, want);
                }
                Op::DropPeer(k) => {
                    let got = rib.drop_peer(peer(k));
                    let want = reference.drop_peer(peer(k));
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(rib.reachable_count(), reference.reachable);
            for i in 0..4 {
                prop_assert_eq!(rib.best(prefix(i)), reference.best(prefix(i)));
                let paths = reference.entries.get(&prefix(i)).map_or(0, |(c, _)| c.len());
                prop_assert_eq!(rib.path_count(prefix(i)), paths);
            }
        }
    }
}
