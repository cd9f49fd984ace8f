//! The `AS_PATH` attribute: ordered record of the autonomous systems a route
//! announcement has traversed.
//!
//! The paper leans on two properties of the AS path:
//!
//! 1. It is one third of the **(Prefix, NextHop, ASPATH)** tuple whose change
//!    (or non-change) defines the update taxonomy.
//! 2. Loop suppression — "upon receipt of an update every BGP router performs
//!    loop verification by testing if its own autonomous system number
//!    already exists in the ASPATH" — which we implement in
//!    [`AsPath::contains`] and which `iri-netsim` routers apply verbatim.

use crate::types::Asn;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One segment of an AS path (RFC 4271 §4.3).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PathSegment {
    /// An ordered sequence of ASes the update traversed.
    Sequence(Vec<Asn>),
    /// An unordered set, produced by route aggregation.
    Set(Vec<Asn>),
}

impl PathSegment {
    /// Wire type code for the segment.
    #[must_use]
    pub fn type_code(&self) -> u8 {
        match self {
            PathSegment::Set(_) => 1,
            PathSegment::Sequence(_) => 2,
        }
    }

    /// The ASes in the segment, in stored order.
    #[must_use]
    pub fn asns(&self) -> &[Asn] {
        match self {
            PathSegment::Sequence(v) | PathSegment::Set(v) => v,
        }
    }

    /// Path-length contribution for the BGP decision process: a SEQUENCE
    /// counts each AS, a SET counts as one hop regardless of size (RFC 4271
    /// §9.1.2.2).
    #[must_use]
    pub fn decision_len(&self) -> usize {
        match self {
            PathSegment::Sequence(v) => v.len(),
            PathSegment::Set(v) => usize::from(!v.is_empty()),
        }
    }
}

/// A complete `AS_PATH`: a list of segments.
///
/// The common case in the measured data is a single `Sequence`; sets appear
/// only on aggregated routes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct AsPath {
    segments: Vec<PathSegment>,
}

impl AsPath {
    /// An empty path, as originated inside the local AS before export.
    #[must_use]
    pub fn empty() -> Self {
        AsPath::default()
    }

    /// A path consisting of a single ordered sequence.
    pub fn from_sequence<I: IntoIterator<Item = Asn>>(asns: I) -> Self {
        let v: Vec<Asn> = asns.into_iter().collect();
        if v.is_empty() {
            AsPath::default()
        } else {
            AsPath {
                segments: vec![PathSegment::Sequence(v)],
            }
        }
    }

    /// Builds a path from raw segments, dropping empty ones.
    pub fn from_segments<I: IntoIterator<Item = PathSegment>>(segments: I) -> Self {
        AsPath {
            segments: segments
                .into_iter()
                .filter(|s| !s.asns().is_empty())
                .collect(),
        }
    }

    /// The underlying segments.
    #[must_use]
    pub fn segments(&self) -> &[PathSegment] {
        &self.segments
    }

    /// True for the empty (locally originated, pre-export) path.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Loop check: does `asn` appear anywhere in the path?
    #[must_use]
    pub fn contains(&self, asn: Asn) -> bool {
        self.segments.iter().any(|s| s.asns().contains(&asn))
    }

    /// Path length as used by the decision process.
    #[must_use]
    pub fn decision_len(&self) -> usize {
        self.segments.iter().map(PathSegment::decision_len).sum()
    }

    /// Total number of ASNs stored (wire size driver).
    #[must_use]
    pub fn asn_count(&self) -> usize {
        self.segments.iter().map(|s| s.asns().len()).sum()
    }

    /// The leftmost AS — the neighbor that sent us the route — or `None` for
    /// an empty path.
    #[must_use]
    pub fn first(&self) -> Option<Asn> {
        self.segments
            .first()
            .and_then(|s| s.asns().first().copied())
    }

    /// The rightmost AS of the final sequence — the route's **origin AS**.
    ///
    /// The paper aggregates instability per origin AS (Figure 6); an
    /// aggregated route ending in an AS_SET has no single origin and yields
    /// `None`.
    #[must_use]
    pub fn origin_as(&self) -> Option<Asn> {
        match self.segments.last()? {
            PathSegment::Sequence(v) => v.last().copied(),
            PathSegment::Set(_) => None,
        }
    }

    /// Prepends `asn` in place, as done by each border router on export
    /// ("each router along a path adds its autonomous system number to a
    /// list in the BGP message"). Exporters call it on the copy they are
    /// about to send, so the path is never copied twice.
    pub fn prepend(&mut self, asn: Asn) {
        match self.segments.first_mut() {
            Some(PathSegment::Sequence(v)) => v.insert(0, asn),
            _ => self.segments.insert(0, PathSegment::Sequence(vec![asn])),
        }
    }

    /// All ASNs in order of appearance (sets flattened in stored order).
    pub fn iter(&self) -> impl Iterator<Item = Asn> + '_ {
        self.segments.iter().flat_map(|s| s.asns().iter().copied())
    }

    /// Merges paths for aggregation (RFC 4271 §9.2.2.2, simplified): the
    /// longest common leading sequence is kept, all remaining ASes are
    /// folded into a trailing AS_SET.
    #[must_use]
    pub fn aggregate_with(&self, other: &AsPath) -> AsPath {
        let a: Vec<Asn> = self.iter().collect();
        let b: Vec<Asn> = other.iter().collect();
        let common: Vec<Asn> = a
            .iter()
            .zip(b.iter())
            .take_while(|(x, y)| x == y)
            .map(|(x, _)| *x)
            .collect();
        let mut rest: Vec<Asn> = a
            .into_iter()
            .skip(common.len())
            .chain(b.into_iter().skip(common.len()))
            .collect();
        rest.sort_unstable();
        rest.dedup();
        let mut segments = Vec::new();
        if !common.is_empty() {
            segments.push(PathSegment::Sequence(common));
        }
        if !rest.is_empty() {
            segments.push(PathSegment::Set(rest));
        }
        AsPath { segments }
    }
}

impl fmt::Display for AsPath {
    /// Renders like classic `show ip bgp`: `701 3561 {1239,1800}`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for seg in &self.segments {
            if !first {
                write!(f, " ")?;
            }
            first = false;
            match seg {
                PathSegment::Sequence(v) => {
                    let mut inner = true;
                    for a in v {
                        if !std::mem::take(&mut inner) {
                            write!(f, " ")?;
                        }
                        write!(f, "{}", a.0)?;
                    }
                }
                PathSegment::Set(v) => {
                    write!(f, "{{")?;
                    let mut inner = true;
                    for a in v {
                        if !std::mem::take(&mut inner) {
                            write!(f, ",")?;
                        }
                        write!(f, "{}", a.0)?;
                    }
                    write!(f, "}}")?;
                }
            }
        }
        Ok(())
    }
}

impl FromIterator<Asn> for AsPath {
    fn from_iter<T: IntoIterator<Item = Asn>>(iter: T) -> Self {
        AsPath::from_sequence(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(asns: &[u32]) -> AsPath {
        AsPath::from_sequence(asns.iter().map(|&a| Asn(a)))
    }

    #[test]
    fn empty_path() {
        let p = AsPath::empty();
        assert!(p.is_empty());
        assert_eq!(p.decision_len(), 0);
        assert_eq!(p.first(), None);
        assert_eq!(p.origin_as(), None);
        assert_eq!(p.to_string(), "");
    }

    #[test]
    fn sequence_basics() {
        let p = seq(&[701, 3561, 1239]);
        assert_eq!(p.decision_len(), 3);
        assert_eq!(p.first(), Some(Asn(701)));
        assert_eq!(p.origin_as(), Some(Asn(1239)));
        assert!(p.contains(Asn(3561)));
        assert!(!p.contains(Asn(9999)));
        assert_eq!(p.to_string(), "701 3561 1239");
    }

    #[test]
    fn prepend_grows_leading_sequence() {
        let mut p = seq(&[3561]);
        p.prepend(Asn(701));
        assert_eq!(p.to_string(), "701 3561");
        assert_eq!(p.segments().len(), 1);
        // Prepending onto a path that starts with a set creates a new segment.
        let mut q = AsPath::from_segments([PathSegment::Set(vec![Asn(1), Asn(2)])]);
        q.prepend(Asn(701));
        assert_eq!(q.segments().len(), 2);
        assert_eq!(q.first(), Some(Asn(701)));
    }

    #[test]
    fn set_counts_one_hop() {
        let p = AsPath::from_segments([
            PathSegment::Sequence(vec![Asn(701)]),
            PathSegment::Set(vec![Asn(1), Asn(2), Asn(3)]),
        ]);
        assert_eq!(p.decision_len(), 2);
        assert_eq!(p.asn_count(), 4);
        assert_eq!(p.origin_as(), None);
        assert_eq!(p.to_string(), "701 {1,2,3}");
    }

    #[test]
    fn from_segments_drops_empty() {
        let p = AsPath::from_segments([PathSegment::Sequence(vec![]), PathSegment::Set(vec![])]);
        assert!(p.is_empty());
    }

    #[test]
    fn aggregation_common_head_plus_set() {
        let a = seq(&[701, 1239, 42]);
        let b = seq(&[701, 1800, 43]);
        let agg = a.aggregate_with(&b);
        assert_eq!(agg.to_string(), "701 {42,43,1239,1800}");
        assert_eq!(agg.decision_len(), 2);
    }

    #[test]
    fn aggregation_identical_paths_is_identity() {
        let a = seq(&[701, 1239]);
        assert_eq!(a.aggregate_with(&a), a);
    }

    #[test]
    fn aggregation_disjoint_paths_is_pure_set() {
        let a = seq(&[1, 2]);
        let b = seq(&[3]);
        let agg = a.aggregate_with(&b);
        assert_eq!(agg.segments().len(), 1);
        assert!(matches!(agg.segments()[0], PathSegment::Set(_)));
    }

    #[test]
    fn loop_detection_in_sets() {
        let p = AsPath::from_segments([PathSegment::Set(vec![Asn(7), Asn(8)])]);
        assert!(p.contains(Asn(7)));
    }
}
