//! Routing policy: the filters and attribute rewrites a border router
//! applies on import and export.
//!
//! "A routing policy may specify the filtering of specific routes, or the
//! modification of path attributes sent to neighbor routers." Policies are
//! ordered rule lists (route-map style): the first matching rule decides.
//! Also included is the "draconian" mitigation the paper mentions — ISPs
//! "filtering all route announcements longer than a given prefix length"
//! ([`Policy::max_prefix_len`]).

use iri_bgp::attrs::PathAttributes;
use iri_bgp::types::{Asn, Prefix};
use serde::{Deserialize, Serialize};

/// Matching condition for one rule. All present conditions must hold.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RouteMatcher {
    /// Prefix must be covered by one of these (empty = any prefix).
    pub prefix_in: Vec<Prefix>,
    /// Prefix must equal one of these exactly (empty = no constraint).
    pub prefix_exact: Vec<Prefix>,
    /// Prefix length must be at most this (route-length filtering).
    pub max_len: Option<u8>,
    /// AS path must contain this AS.
    pub path_contains: Option<Asn>,
    /// Route's origin AS must be this.
    pub origin_as: Option<Asn>,
    /// Attributes must carry this community.
    pub has_community: Option<u32>,
}

impl RouteMatcher {
    /// Matches everything.
    #[must_use]
    pub fn any() -> Self {
        RouteMatcher::default()
    }

    /// Whether `(prefix, attrs)` satisfies all conditions.
    #[must_use]
    pub fn matches(&self, prefix: Prefix, attrs: &PathAttributes) -> bool {
        if !self.prefix_in.is_empty() && !self.prefix_in.iter().any(|c| c.contains(prefix)) {
            return false;
        }
        if !self.prefix_exact.is_empty() && !self.prefix_exact.contains(&prefix) {
            return false;
        }
        if let Some(max) = self.max_len {
            if prefix.len() > max {
                return false;
            }
        }
        if let Some(asn) = self.path_contains {
            if !attrs.as_path.contains(asn) {
                return false;
            }
        }
        if let Some(asn) = self.origin_as {
            if attrs.as_path.origin_as() != Some(asn) {
                return false;
            }
        }
        if let Some(c) = self.has_community {
            if !attrs.communities.contains(&c) {
                return false;
            }
        }
        true
    }
}

/// What to do with a matched route.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum PolicyAction {
    /// Accept unchanged.
    Accept,
    /// Drop the route.
    Reject,
    /// Accept with attribute modifications.
    Modify {
        /// Set LOCAL_PREF.
        set_local_pref: Option<u32>,
        /// Set MED.
        set_med: Option<u32>,
        /// Add a community.
        add_community: Option<u32>,
        /// Prepend own AS this many extra times (path poisoning / traffic
        /// engineering — a policy fluctuation generator in experiments).
        prepend: u8,
    },
}

/// One ordered rule.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PolicyRule {
    /// Condition.
    pub matcher: RouteMatcher,
    /// Action on match.
    pub action: PolicyAction,
}

/// An ordered rule list with a default action.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Policy {
    /// Rules evaluated in order; first match wins.
    pub rules: Vec<PolicyRule>,
    /// Whether unmatched routes are accepted.
    pub default_accept: bool,
}

impl Default for Policy {
    fn default() -> Self {
        Policy::accept_all()
    }
}

impl Policy {
    /// Accepts everything unchanged.
    #[must_use]
    pub fn accept_all() -> Self {
        Policy {
            rules: Vec::new(),
            default_accept: true,
        }
    }

    /// Rejects everything (e.g. a customer-only export to a peer).
    #[must_use]
    pub fn reject_all() -> Self {
        Policy {
            rules: Vec::new(),
            default_accept: false,
        }
    }

    /// The "draconian" length filter: rejects announcements more specific
    /// than `/max_len`, accepts the rest.
    #[must_use]
    pub fn max_prefix_len(max_len: u8, asn: Asn) -> Self {
        // The matcher keys on length only; `asn` documents whose policy this
        // is for debugging (carried in a community tag).
        Policy {
            rules: vec![
                PolicyRule {
                    matcher: RouteMatcher {
                        max_len: Some(max_len),
                        ..RouteMatcher::any()
                    },
                    action: PolicyAction::Modify {
                        set_local_pref: None,
                        set_med: None,
                        add_community: Some(asn.0 << 16),
                        prepend: 0,
                    },
                },
                PolicyRule {
                    matcher: RouteMatcher::any(),
                    action: PolicyAction::Reject,
                },
            ],
            default_accept: false,
        }
    }

    /// Applies the policy. Returns the (possibly rewritten) attributes, or
    /// `None` if the route is filtered. `local_asn` is used for prepending.
    #[must_use]
    pub fn apply(
        &self,
        prefix: Prefix,
        attrs: &PathAttributes,
        local_asn: Asn,
    ) -> Option<PathAttributes> {
        for rule in &self.rules {
            if rule.matcher.matches(prefix, attrs) {
                return match &rule.action {
                    PolicyAction::Accept => Some(attrs.clone()),
                    PolicyAction::Reject => None,
                    PolicyAction::Modify {
                        set_local_pref,
                        set_med,
                        add_community,
                        prepend,
                    } => {
                        let mut out = attrs.clone();
                        if let Some(lp) = set_local_pref {
                            out.local_pref = Some(*lp);
                        }
                        if let Some(med) = set_med {
                            out.med = Some(*med);
                        }
                        if let Some(c) = add_community {
                            if !out.communities.contains(c) {
                                out.communities.push(*c);
                            }
                        }
                        for _ in 0..*prepend {
                            out.as_path.prepend(local_asn);
                        }
                        Some(out)
                    }
                };
            }
        }
        if self.default_accept {
            Some(attrs.clone())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iri_bgp::attrs::Origin;
    use iri_bgp::path::AsPath;
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

    #[test]
    fn accept_all_and_reject_all() {
        let a = attrs(&[701]);
        assert!(Policy::accept_all()
            .apply(p("10.0.0.0/8"), &a, Asn(1))
            .is_some());
        assert!(Policy::reject_all()
            .apply(p("10.0.0.0/8"), &a, Asn(1))
            .is_none());
    }

    #[test]
    fn first_match_wins() {
        let policy = Policy {
            rules: vec![
                PolicyRule {
                    matcher: RouteMatcher {
                        prefix_in: vec![p("10.0.0.0/8")],
                        ..RouteMatcher::any()
                    },
                    action: PolicyAction::Reject,
                },
                PolicyRule {
                    matcher: RouteMatcher::any(),
                    action: PolicyAction::Accept,
                },
            ],
            default_accept: false,
        };
        assert!(policy
            .apply(p("10.1.0.0/16"), &attrs(&[701]), Asn(1))
            .is_none());
        assert!(policy
            .apply(p("11.0.0.0/8"), &attrs(&[701]), Asn(1))
            .is_some());
    }

    #[test]
    fn max_prefix_len_filter() {
        let policy = Policy::max_prefix_len(24, Asn(690));
        assert!(policy
            .apply(p("10.0.0.0/24"), &attrs(&[701]), Asn(690))
            .is_some());
        assert!(policy
            .apply(p("10.0.0.0/25"), &attrs(&[701]), Asn(690))
            .is_none());
        assert!(policy
            .apply(p("10.0.0.0/8"), &attrs(&[701]), Asn(690))
            .is_some());
    }

    #[test]
    fn matcher_path_and_origin_as() {
        let m = RouteMatcher {
            path_contains: Some(Asn(701)),
            origin_as: Some(Asn(1239)),
            ..RouteMatcher::any()
        };
        assert!(m.matches(p("10.0.0.0/8"), &attrs(&[3561, 701, 1239])));
        assert!(!m.matches(p("10.0.0.0/8"), &attrs(&[3561, 1239])));
        assert!(!m.matches(p("10.0.0.0/8"), &attrs(&[701, 42])));
    }

    #[test]
    fn matcher_exact_prefix_and_community() {
        let m = RouteMatcher {
            prefix_exact: vec![p("192.42.113.0/24")],
            has_community: Some(7),
            ..RouteMatcher::any()
        };
        let mut a = attrs(&[701]);
        assert!(!m.matches(p("192.42.113.0/24"), &a));
        a.communities.push(7);
        assert!(m.matches(p("192.42.113.0/24"), &a));
        assert!(!m.matches(p("192.42.112.0/24"), &a));
    }

    #[test]
    fn modify_rewrites_attributes() {
        let policy = Policy {
            rules: vec![PolicyRule {
                matcher: RouteMatcher::any(),
                action: PolicyAction::Modify {
                    set_local_pref: Some(200),
                    set_med: Some(5),
                    add_community: Some(0xdead),
                    prepend: 2,
                },
            }],
            default_accept: false,
        };
        let out = policy
            .apply(p("10.0.0.0/8"), &attrs(&[701]), Asn(690))
            .unwrap();
        assert_eq!(out.local_pref, Some(200));
        assert_eq!(out.med, Some(5));
        assert!(out.communities.contains(&0xdead));
        assert_eq!(out.as_path.to_string(), "690 690 701");
        // Modification is a *policy fluctuation* signature: forwarding tuple
        // changed here because of the prepend, but a community-only change
        // keeps it.
        let policy2 = Policy {
            rules: vec![PolicyRule {
                matcher: RouteMatcher::any(),
                action: PolicyAction::Modify {
                    set_local_pref: None,
                    set_med: None,
                    add_community: Some(1),
                    prepend: 0,
                },
            }],
            default_accept: false,
        };
        let out2 = policy2
            .apply(p("10.0.0.0/8"), &attrs(&[701]), Asn(690))
            .unwrap();
        assert!(out2.same_forwarding(&attrs(&[701])));
    }

    #[test]
    fn modify_does_not_duplicate_community() {
        let policy = Policy {
            rules: vec![PolicyRule {
                matcher: RouteMatcher::any(),
                action: PolicyAction::Modify {
                    set_local_pref: None,
                    set_med: None,
                    add_community: Some(9),
                    prepend: 0,
                },
            }],
            default_accept: false,
        };
        let mut a = attrs(&[701]);
        a.communities.push(9);
        let out = policy.apply(p("10.0.0.0/8"), &a, Asn(690)).unwrap();
        assert_eq!(out.communities, vec![9]);
    }
}
