//! Logical query → physical plan compilation.
//!
//! A [`crate::Query`] is *what* to match; a [`PhysicalPlan`] is *how this
//! store will answer it*: one [`SegmentStep`] per manifest segment, each
//! carrying the fate the zone maps decided at compile time —
//!
//! 1. **pruned** — the segment zone maps prove no row can match
//!    ([`PruneReason`] says which map); the file is never opened;
//! 2. **zone-answered** — for grouped counts and sums with no row-level
//!    predicates, a segment fully inside the time window is answered
//!    from manifest counts alone;
//! 3. **scan** — the file is opened, its page directory prunes or
//!    zone-answers *pages* the same way, and surviving pages are decoded
//!    and filtered on packed dictionary codes.
//!
//! Compilation is a pure function of the query, the [`PlanKind`], and
//! the manifest — no file I/O. [`Store::plan`] compiles,
//! [`Store::execute`] (and the aggregation methods) run the steps;
//! `iriq --explain` and the serve layer's plan traces print
//! [`PhysicalPlan::explain`].
//!
//! Page fates are decided at execute time (the directory lives in the
//! segment file), so the plan records them as part of the scan step's
//! execution, not as separate steps.
//!
//! [`Store::plan`]: crate::Store::plan
//! [`Store::execute`]: crate::Store::execute

use crate::query::Query;
use crate::segment::ColumnSet;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// What shape of answer a query is compiled for. Grouped counts and
/// sums can be answered from zone maps alone; streaming shapes always
/// materialise rows (but still prune segments and pages).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlanKind {
    /// Stream every matching row to a visitor.
    Stream,
    /// Count matching rows per taxonomy class.
    CountByClass,
    /// Count matching rows per cause.
    CountByCause,
    /// Count matching rows per peer AS.
    CountByPeer,
    /// Count matching rows per prefix.
    CountByPrefix,
    /// Sum NLRI wire bytes over matching rows.
    SumBytes,
    /// Bucket matching rows into fixed time bins.
    TimeSeries {
        /// Bin width in ms.
        bin_ms: u64,
    },
}

impl PlanKind {
    /// Short label for explain output.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            PlanKind::Stream => "stream",
            PlanKind::CountByClass => "count-by-class",
            PlanKind::CountByCause => "count-by-cause",
            PlanKind::CountByPeer => "count-by-peer",
            PlanKind::CountByPrefix => "count-by-prefix",
            PlanKind::SumBytes => "sum-bytes",
            PlanKind::TimeSeries { .. } => "time-series",
        }
    }

    /// The columns folding this answer shape reads off a surviving row.
    /// [`PlanKind::Stream`] materialises whole events, and so does any
    /// plan run through [`crate::Store::execute`]'s row visitor.
    #[must_use]
    pub fn fold_columns(&self) -> ColumnSet {
        match self {
            PlanKind::Stream => ColumnSet::ALL,
            PlanKind::CountByClass | PlanKind::CountByCause => ColumnSet::CC,
            PlanKind::CountByPeer => ColumnSet::PEER,
            PlanKind::CountByPrefix => ColumnSet::PREFIX,
            PlanKind::SumBytes => ColumnSet::SIZE,
            PlanKind::TimeSeries { .. } => ColumnSet::TIME,
        }
    }

    /// Every column a scan of this shape under `query` may decode: the
    /// fold columns plus one per predicate. The time column is listed
    /// whenever the window is bounded, though a page lying fully inside
    /// the window skips it unless the fold bins by time.
    #[must_use]
    pub fn columns(&self, query: &Query) -> ColumnSet {
        let mut cols = self.fold_columns();
        if query.from_ms > 0 || query.to_ms < u64::MAX {
            cols = cols.with(ColumnSet::TIME);
        }
        if query.peer_asn.is_some() {
            cols = cols.with(ColumnSet::PEER);
        }
        if query.prefix.is_some() {
            cols = cols.with(ColumnSet::PREFIX);
        }
        if query.class.is_some() || query.cause.is_some() {
            cols = cols.with(ColumnSet::CC);
        }
        cols
    }

    /// Whether zone maps alone — class/cause count vectors, the
    /// size-column sum — can answer for the rows they cover. The other
    /// kinds need rows materialised (still pruned, never zone-answered).
    pub(crate) fn zone_answered(&self) -> bool {
        matches!(
            self,
            PlanKind::CountByClass | PlanKind::CountByCause | PlanKind::SumBytes
        )
    }
}

/// Which zone map proved a segment (or page) cannot match.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PruneReason {
    /// The segment holds no rows.
    Empty,
    /// Min/max time is disjoint from the query window.
    TimeDisjoint,
    /// The class count for the queried class is zero.
    ClassAbsent,
    /// The cause count for the queried cause is zero.
    CauseAbsent,
    /// The peer membership bitmap misses the queried AS.
    PeerBloomMiss,
    /// The prefix membership bitmap misses the queried prefix.
    PrefixBloomMiss,
}

impl PruneReason {
    /// Short label for explain output.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            PruneReason::Empty => "empty",
            PruneReason::TimeDisjoint => "time-disjoint",
            PruneReason::ClassAbsent => "class-absent",
            PruneReason::CauseAbsent => "cause-absent",
            PruneReason::PeerBloomMiss => "peer-bloom-miss",
            PruneReason::PrefixBloomMiss => "prefix-bloom-miss",
        }
    }
}

/// A segment's compile-time fate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SegmentFate {
    /// Zone maps prove no row matches; the file is never opened.
    Pruned(PruneReason),
    /// Answered from manifest zone counts alone.
    ZoneAnswered,
    /// Opened: pages pruned/zone-answered/decoded individually.
    Scan,
}

/// One per-segment step of a physical plan.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentStep {
    /// Segment file name relative to the store directory.
    pub file: String,
    /// Logical shard.
    pub shard: u32,
    /// Position in the shard's segment chain.
    pub seq: u32,
    /// Row count.
    pub rows: u64,
    /// Encoded file size in bytes.
    pub bytes: u64,
    /// Zone-map pages in the segment.
    pub pages: u64,
    /// The compile-time fate.
    pub fate: SegmentFate,
}

/// A compiled query: the ordered per-segment steps the executor runs.
/// Valid only against the (immutable) store handle that compiled it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhysicalPlan {
    /// The logical query this plan answers.
    pub query: Query,
    /// The answer shape the plan was compiled for.
    pub kind: PlanKind,
    /// Worker threads the executor will use for scan steps (1 = serial).
    pub jobs: usize,
    /// Differential-testing mode: every segment is force-fated
    /// [`SegmentFate::Scan`] and decoded eagerly, bypassing pages and
    /// code pushdown.
    pub full_scan: bool,
    /// One step per manifest segment, in (shard, seq) order.
    pub steps: Vec<SegmentStep>,
}

impl PhysicalPlan {
    /// Steps fated [`SegmentFate::Pruned`].
    #[must_use]
    pub fn segments_pruned(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s.fate, SegmentFate::Pruned(_)))
            .count()
    }

    /// Steps fated [`SegmentFate::ZoneAnswered`].
    #[must_use]
    pub fn segments_zone_answered(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| s.fate == SegmentFate::ZoneAnswered)
            .count()
    }

    /// Steps fated [`SegmentFate::Scan`].
    #[must_use]
    pub fn segments_scanned(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| s.fate == SegmentFate::Scan)
            .count()
    }

    /// Human-readable plan listing: the query, the compiled shape, and
    /// every segment's fate — what `iriq --explain` prints.
    #[must_use]
    pub fn explain(&self) -> String {
        let q = &self.query;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "plan: {} over [{}, {}) jobs={}{}",
            self.kind.label(),
            q.from_ms,
            if q.to_ms == u64::MAX {
                "∞".to_owned()
            } else {
                q.to_ms.to_string()
            },
            self.jobs,
            if self.full_scan {
                " (forced full scan)"
            } else {
                ""
            },
        );
        let mut preds: Vec<String> = Vec::new();
        if let Some(asn) = q.peer_asn {
            preds.push(format!("peer=AS{}", asn.0));
        }
        if let Some(p) = q.prefix {
            preds.push(format!("prefix={p}"));
        }
        if let Some(c) = q.class {
            preds.push(format!("class={}", c.label()));
        }
        if let Some(c) = q.cause {
            preds.push(format!("cause={}", c.label()));
        }
        let _ = writeln!(
            out,
            "predicates: {}",
            if preds.is_empty() {
                "(none)".to_owned()
            } else {
                preds.join(" ")
            }
        );
        let _ = writeln!(out, "columns: {}", self.kind.columns(q));
        let _ = writeln!(
            out,
            "segments: {} total — {} pruned, {} zone-answered, {} scanned",
            self.steps.len(),
            self.segments_pruned(),
            self.segments_zone_answered(),
            self.segments_scanned(),
        );
        for s in &self.steps {
            let fate = match s.fate {
                SegmentFate::Pruned(r) => format!("pruned ({})", r.label()),
                SegmentFate::ZoneAnswered => "zone-answered".to_owned(),
                SegmentFate::Scan => format!("scan ({} pages)", s.pages),
            };
            let chain = if s.shard == crate::TAIL_SHARD {
                "tail".to_owned()
            } else {
                format!("shard {:02}", s.shard)
            };
            let _ = writeln!(
                out,
                "  {} {chain:<8} seq {:06} rows {:>7} {}",
                s.file, s.seq, s.rows, fate
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_fate_counts_and_explain_agree() {
        let steps = vec![
            SegmentStep {
                file: "s00-000000.seg".into(),
                shard: 0,
                seq: 0,
                rows: 10,
                bytes: 100,
                pages: 1,
                fate: SegmentFate::Pruned(PruneReason::TimeDisjoint),
            },
            SegmentStep {
                file: "s01-000000.seg".into(),
                shard: 1,
                seq: 0,
                rows: 10,
                bytes: 100,
                pages: 1,
                fate: SegmentFate::ZoneAnswered,
            },
            SegmentStep {
                file: "s02-000000.seg".into(),
                shard: 2,
                seq: 0,
                rows: 10,
                bytes: 100,
                pages: 1,
                fate: SegmentFate::Scan,
            },
            SegmentStep {
                file: "s32-000000.seg".into(),
                shard: crate::TAIL_SHARD,
                seq: 0,
                rows: 10,
                bytes: 100,
                pages: 1,
                fate: SegmentFate::Scan,
            },
        ];
        let plan = PhysicalPlan {
            query: Query::default().time_range_ms(5, 50),
            kind: PlanKind::CountByClass,
            jobs: 1,
            full_scan: false,
            steps,
        };
        assert_eq!(plan.segments_pruned(), 1);
        assert_eq!(plan.segments_zone_answered(), 1);
        assert_eq!(plan.segments_scanned(), 2);
        let text = plan.explain();
        assert!(text.contains("count-by-class"), "{text}");
        assert!(
            text.contains("1 pruned, 1 zone-answered, 2 scanned"),
            "{text}"
        );
        assert!(text.contains("s02-000000.seg shard 02 seq"), "{text}");
        assert!(text.contains("s32-000000.seg tail     seq"), "{text}");
        assert!(text.contains("time-disjoint"), "{text}");
        assert!(text.contains("columns: time class/cause\n"), "{text}");
    }

    #[test]
    fn columns_follow_the_answer_shape_and_the_predicates() {
        let open = Query::default();
        assert_eq!(PlanKind::Stream.columns(&open), ColumnSet::ALL);
        assert_eq!(PlanKind::CountByCause.columns(&open), ColumnSet::CC);
        assert_eq!(PlanKind::SumBytes.columns(&open), ColumnSet::SIZE);
        let narrowed = open
            .clone()
            .time_range_ms(5, 50)
            .peer(iri_bgp::types::Asn(701));
        assert_eq!(
            PlanKind::CountByPrefix.columns(&narrowed),
            ColumnSet::PREFIX
                .with(ColumnSet::TIME)
                .with(ColumnSet::PEER)
        );
        assert_eq!(
            PlanKind::TimeSeries { bin_ms: 1 }.columns(&open.class_labelled("WWDup").unwrap()),
            ColumnSet::TIME.with(ColumnSet::CC)
        );
    }

    #[test]
    fn plan_round_trips_through_json() {
        let plan = PhysicalPlan {
            query: Query::default(),
            kind: PlanKind::TimeSeries { bin_ms: 1_000 },
            jobs: 4,
            full_scan: false,
            steps: Vec::new(),
        };
        let text = serde_json::to_string(&plan).unwrap();
        let back: PhysicalPlan = serde_json::from_str(&text).unwrap();
        assert_eq!(back, plan);
    }
}
