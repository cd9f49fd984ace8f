//! Adj-RIB-Out: what a router advertises to one peer — in two flavours, the
//! heart of the paper's §4.2 pathology analysis.
//!
//! - [`StatefulAdjOut`] remembers what was **put on the wire** to the peer
//!   and emits an update only when the advertisement actually changes.
//!   "Several products from other router vendors do maintain knowledge of
//!   the information transmitted to BGP peers and will only transmit updates
//!   when topology changes affect a route between the local and peer
//!   routers."
//!
//! - [`StatelessAdjOut`] is the time–space trade-off implementation: it
//!   keeps **no** per-peer state, re-announcing every flush and transmitting
//!   withdrawals "to all BGP peers regardless of whether they had previously
//!   sent the peer an announcement for the route", for every explicitly
//!   *and implicitly* withdrawn prefix. This is the identified origin of the
//!   WWDup floods (ISP-I's 2.4 million withdrawals for 14,112 prefixes in
//!   Table 1) and is, as the paper notes, *compliant* with the BGP standard.
//!
//! The processor is invoked at **flush time** (when the update-packing/MRAI
//! timer fires), after per-prefix squashing of intra-window changes. This
//! placement matters: a route that went A1→A2→A1 inside one timer window
//! squashes to a net re-announcement of A1, which the stateful
//! implementation suppresses against its wire state and the stateless one
//! transmits — producing exactly the AADup (and, for W→A→W, the WWDup)
//! pathology the paper attributes to the timer/statelessness interaction.
//!
//! Both flavours implement [`AdjRibOut`], so the simulator's router model
//! can A/B them (the `ablation_stateless` bench).

use crate::trie::PrefixTrie;
use iri_bgp::attrs::PathAttributes;
use iri_bgp::types::Prefix;

/// The net, squashed effect of one timer window on one prefix, as handed to
/// the export processor at flush time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExportEvent {
    /// The prefix ends the window reachable with these post-policy
    /// attributes. `replaced` records whether the window contained an
    /// implicit or explicit withdrawal of a previous route (the A→A′ or
    /// W→A shapes), which a stateless implementation propagates as an
    /// explicit withdrawal.
    Reachable {
        /// Post-policy attributes to advertise.
        attrs: PathAttributes,
        /// Whether an (implicit) withdrawal occurred within the window.
        replaced: bool,
    },
    /// The prefix ends the window unreachable (or newly policy-filtered for
    /// this peer).
    Unreachable,
}

/// What a router should transmit to a peer after a flush event.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExportDelta {
    /// Prefix announcements to send (prefix + post-policy attributes).
    pub announce: Vec<(Prefix, PathAttributes)>,
    /// Prefix withdrawals to send.
    pub withdraw: Vec<Prefix>,
}

impl ExportDelta {
    /// Whether nothing needs to be sent.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.announce.is_empty() && self.withdraw.is_empty()
    }

    /// Total prefix events carried.
    #[must_use]
    pub fn len(&self) -> usize {
        self.announce.len() + self.withdraw.len()
    }
}

/// Per-peer export behaviour.
pub trait AdjRibOut {
    /// Processes the net effect of one flush window for `prefix`,
    /// appending what to put on the wire to `out` (one delta collects a
    /// whole flush).
    fn on_export(&mut self, prefix: Prefix, event: &ExportEvent, out: &mut ExportDelta);

    /// Full-table dump at session establishment ("generating large state
    /// dump transmissions"). `routes` is the post-policy view of the
    /// Loc-RIB.
    fn initial_dump(&mut self, routes: &[(Prefix, PathAttributes)]) -> ExportDelta;

    /// Forget all wire state (session dropped).
    fn reset(&mut self);

    /// Number of prefixes this peer is currently known to hold
    /// (0 for the stateless implementation, by construction).
    fn advertised_count(&self) -> usize;

    /// Human-readable implementation name for reports.
    fn name(&self) -> &'static str;

    /// Exports the wire state as owned rows, for spill-to-disk. The
    /// stateless implementation has no per-prefix state and returns the
    /// default empty vec.
    fn export_advertised(&self) -> Vec<(Prefix, PathAttributes)> {
        Vec::new()
    }

    /// Restores wire state exported by
    /// [`AdjRibOut::export_advertised`]. A no-op for stateless
    /// implementations.
    fn import_advertised(&mut self, _rows: Vec<(Prefix, PathAttributes)>) {}
}

/// The well-behaved implementation: remembers the last advertisement put on
/// the wire per prefix and suppresses no-ops.
#[derive(Default)]
pub struct StatefulAdjOut {
    advertised: PrefixTrie<PathAttributes>,
}

impl StatefulAdjOut {
    /// New empty state.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl AdjRibOut for StatefulAdjOut {
    fn on_export(&mut self, prefix: Prefix, event: &ExportEvent, out: &mut ExportDelta) {
        match event {
            ExportEvent::Reachable { attrs, .. } => {
                if self.advertised.get(prefix) != Some(attrs) {
                    self.advertised.insert(prefix, attrs.clone());
                    out.announce.push((prefix, attrs.clone()));
                }
            }
            ExportEvent::Unreachable => {
                // Withdraw only if the peer was actually told about the
                // route.
                if self.advertised.remove(prefix).is_some() {
                    out.withdraw.push(prefix);
                }
            }
        }
    }

    fn initial_dump(&mut self, routes: &[(Prefix, PathAttributes)]) -> ExportDelta {
        let mut delta = ExportDelta::default();
        for (prefix, attrs) in routes {
            self.advertised.insert(*prefix, attrs.clone());
            delta.announce.push((*prefix, attrs.clone()));
        }
        delta
    }

    fn reset(&mut self) {
        self.advertised.clear();
    }

    fn advertised_count(&self) -> usize {
        self.advertised.len()
    }

    fn name(&self) -> &'static str {
        "stateful"
    }

    fn export_advertised(&self) -> Vec<(Prefix, PathAttributes)> {
        self.advertised
            .iter()
            .map(|(p, a)| (p, a.clone()))
            .collect()
    }

    fn import_advertised(&mut self, rows: Vec<(Prefix, PathAttributes)>) {
        self.advertised.clear();
        for (prefix, attrs) in rows {
            self.advertised.insert(prefix, attrs);
        }
    }
}

/// The pathological stateless implementation of §4.2.
///
/// No memory of what the peer was told. Every flush transmits the net
/// result verbatim: re-announcements go out even when identical to what the
/// peer already holds (AADup at the receiver), withdrawals go out even to
/// peers that never heard an announcement (WWDup at the receiver), and a
/// replacement within the window emits an explicit withdrawal *plus* the
/// announcement.
#[derive(Default)]
pub struct StatelessAdjOut {
    /// Counts messages for diagnostics only — deliberately no per-prefix
    /// state.
    withdrawals_sent: u64,
}

impl StatelessAdjOut {
    /// New instance.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Total withdrawals blasted so far.
    #[must_use]
    pub fn withdrawals_sent(&self) -> u64 {
        self.withdrawals_sent
    }
}

impl AdjRibOut for StatelessAdjOut {
    fn on_export(&mut self, prefix: Prefix, event: &ExportEvent, out: &mut ExportDelta) {
        match event {
            ExportEvent::Reachable { attrs, replaced } => {
                if *replaced {
                    // Implicit withdrawal propagated explicitly — blind.
                    self.withdrawals_sent += 1;
                    out.withdraw.push(prefix);
                }
                out.announce.push((prefix, attrs.clone()));
            }
            ExportEvent::Unreachable => {
                // Withdraw regardless of whether this peer ever heard an
                // announcement — the WWDup engine.
                self.withdrawals_sent += 1;
                out.withdraw.push(prefix);
            }
        }
    }

    fn initial_dump(&mut self, routes: &[(Prefix, PathAttributes)]) -> ExportDelta {
        ExportDelta {
            announce: routes.to_vec(),
            withdraw: Vec::new(),
        }
    }

    fn reset(&mut self) {}

    fn advertised_count(&self) -> usize {
        0
    }

    fn name(&self) -> &'static str {
        "stateless"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iri_bgp::attrs::Origin;
    use iri_bgp::path::AsPath;
    use iri_bgp::types::Asn;
    use std::net::Ipv4Addr;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn attrs(path: &[u32]) -> PathAttributes {
        PathAttributes::new(
            Origin::Igp,
            AsPath::from_sequence(path.iter().map(|&a| Asn(a))),
            Ipv4Addr::new(10, 0, 0, 1),
        )
    }

    /// Runs one export into a fresh delta.
    fn export(adj_out: &mut dyn AdjRibOut, prefix: Prefix, event: &ExportEvent) -> ExportDelta {
        let mut delta = ExportDelta::default();
        adj_out.on_export(prefix, event, &mut delta);
        delta
    }

    fn reachable(path: &[u32], replaced: bool) -> ExportEvent {
        ExportEvent::Reachable {
            attrs: attrs(path),
            replaced,
        }
    }

    #[test]
    fn stateful_announces_once() {
        let mut out = StatefulAdjOut::new();
        let d1 = export(&mut out, p("10.0.0.0/8"), &reachable(&[701], false));
        assert_eq!(d1.announce.len(), 1);
        assert_eq!(d1.len(), 1);
        // Identical net result next window (the A1→A2→A1 squash): suppressed.
        let d2 = export(&mut out, p("10.0.0.0/8"), &reachable(&[701], true));
        assert!(d2.is_empty());
        assert_eq!(out.advertised_count(), 1);
    }

    #[test]
    fn stateful_withdraws_only_if_advertised() {
        let mut out = StatefulAdjOut::new();
        // Never announced → no withdrawal on unreachable.
        let d = export(&mut out, p("10.0.0.0/8"), &ExportEvent::Unreachable);
        assert!(d.is_empty());
        // Announce then unreachable → exactly one withdrawal.
        export(&mut out, p("10.0.0.0/8"), &reachable(&[701], false));
        let d = export(&mut out, p("10.0.0.0/8"), &ExportEvent::Unreachable);
        assert_eq!(d.withdraw, vec![p("10.0.0.0/8")]);
        assert_eq!(out.advertised_count(), 0);
        // Second unreachable in a row: nothing (no WWDup from stateful).
        let d = export(&mut out, p("10.0.0.0/8"), &ExportEvent::Unreachable);
        assert!(d.is_empty());
    }

    #[test]
    fn stateful_replacement_announces_new_attrs_without_withdraw() {
        let mut out = StatefulAdjOut::new();
        export(&mut out, p("10.0.0.0/8"), &reachable(&[701], false));
        let d = export(&mut out, p("10.0.0.0/8"), &reachable(&[1239], true));
        assert_eq!(d.announce.len(), 1);
        assert!(d.withdraw.is_empty(), "stateful uses implicit withdrawal");
    }

    #[test]
    fn stateful_reset_forgets_wire_state() {
        let mut out = StatefulAdjOut::new();
        export(&mut out, p("10.0.0.0/8"), &reachable(&[701], false));
        out.reset();
        assert_eq!(out.advertised_count(), 0);
        // After reset the same route is announced again (fresh session).
        let d = export(&mut out, p("10.0.0.0/8"), &reachable(&[701], false));
        assert_eq!(d.announce.len(), 1);
    }

    #[test]
    fn stateless_withdraws_blindly() {
        let mut out = StatelessAdjOut::new();
        let d = export(&mut out, p("10.0.0.0/8"), &ExportEvent::Unreachable);
        assert_eq!(d.withdraw, vec![p("10.0.0.0/8")]);
        assert_eq!(out.withdrawals_sent(), 1);
    }

    #[test]
    fn stateless_replacement_sends_withdraw_plus_announce() {
        let mut out = StatelessAdjOut::new();
        let d = export(&mut out, p("10.0.0.0/8"), &reachable(&[1239], true));
        assert_eq!(d.withdraw, vec![p("10.0.0.0/8")]);
        assert_eq!(d.announce.len(), 1);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn stateless_reannounces_identical_route() {
        // The AADup engine: the A1→A2→A1 squash transmits A1 although the
        // peer already holds it.
        let mut out = StatelessAdjOut::new();
        let d1 = export(&mut out, p("10.0.0.0/8"), &reachable(&[701], false));
        assert_eq!(d1.announce.len(), 1);
        let d2 = export(&mut out, p("10.0.0.0/8"), &reachable(&[701], true));
        assert_eq!(d2.announce.len(), 1, "duplicate announcement transmitted");
    }

    #[test]
    fn stateless_repeats_identical_unreachable() {
        let mut out = StatelessAdjOut::new();
        for _ in 0..6 {
            let d = export(&mut out, p("192.42.113.0/24"), &ExportEvent::Unreachable);
            assert_eq!(d.withdraw.len(), 1);
        }
        // Six withdrawals for a prefix the peer never saw announced —
        // exactly the ISP-Y trace of May 25 1996.
        assert_eq!(out.withdrawals_sent(), 6);
    }

    #[test]
    fn initial_dump_both_flavours() {
        let routes = vec![
            (p("10.0.0.0/8"), attrs(&[701])),
            (p("11.0.0.0/8"), attrs(&[1239])),
        ];
        let mut sf = StatefulAdjOut::new();
        let d = sf.initial_dump(&routes);
        assert_eq!(d.announce.len(), 2);
        assert_eq!(sf.advertised_count(), 2);

        let mut sl = StatelessAdjOut::new();
        let d = sl.initial_dump(&routes);
        assert_eq!(d.announce.len(), 2);
        assert_eq!(sl.advertised_count(), 0);
    }

    #[test]
    fn names() {
        assert_eq!(StatefulAdjOut::new().name(), "stateful");
        assert_eq!(StatelessAdjOut::new().name(), "stateless");
    }
}
