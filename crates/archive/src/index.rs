//! Secondary indexes over one archived operation tree, plus the query
//! planner that routes a parsed [`Query`] to the cheapest access path.
//!
//! Granula archives are interrogated repeatedly (paper §3.3: analysts
//! "query the contents systematically"), so every `KindPattern` query
//! answered by a full linear scan is wasted work after the first one. A
//! [`TreeIndex`] is built once per archive — when the
//! [`crate::shard::ShardedEngine`] takes in or admits a job — and holds
//! three access paths:
//!
//! * **mission-kind index** — mission kind → operation ids;
//! * **actor-kind index** — actor kind → operation ids;
//! * **interval index** — all timestamped operations sorted by start
//!   time, for `[start..end]` window queries.
//!
//! All candidate lists store ids in ascending order, so an index-driven
//! evaluation ([`TreeIndex::evaluate`], the one place a plan is turned
//! into results) emits exactly the ids, in exactly the order, of the
//! linear scans in [`crate::query`] — the differential test suite pins
//! this.

use std::collections::HashMap;
use std::fmt;

use granula_model::{OpId, OperationTree};

use crate::query::{Query, QueryMode, Segment, TimeWindow};

/// Trees at or below this operation count always plan to the linear
/// scan: on tiny archives, choosing a plan and materializing a candidate
/// list costs more than walking the whole tree (measured in
/// `BENCH_archive.json`, `tiny` group — the PR-5 small-query regression).
pub const SCAN_THRESHOLD: usize = 128;

/// An index path must shrink the work by at least this factor to beat
/// the scan: each candidate pays an ancestor-chain walk, so a candidate
/// list covering most of the tree is slower than visiting every
/// operation once.
pub const SCAN_FALLBACK_FACTOR: usize = 2;

/// Secondary indexes for one operation tree.
#[derive(Debug, Clone, Default)]
pub struct TreeIndex {
    /// Mission kind → operation ids, ascending.
    by_mission_kind: HashMap<String, Vec<OpId>>,
    /// Actor kind → operation ids, ascending.
    by_actor_kind: HashMap<String, Vec<OpId>>,
    /// `(start_us, id)` of every operation with a start time, sorted.
    by_start: Vec<(u64, OpId)>,
    /// Number of operations in the indexed tree.
    ops: usize,
}

impl TreeIndex {
    /// Builds all indexes in one pass over the tree.
    pub fn build(tree: &OperationTree) -> Self {
        let _span = granula_trace::span!("archiving", "index.build");
        let mut idx = TreeIndex {
            ops: tree.len(),
            ..TreeIndex::default()
        };
        for op in tree.iter() {
            idx.by_mission_kind
                .entry(op.mission.kind.clone())
                .or_default()
                .push(op.id);
            idx.by_actor_kind
                .entry(op.actor.kind.clone())
                .or_default()
                .push(op.id);
            if let Some(s) = op.start_us() {
                idx.by_start.push((s, op.id));
            }
        }
        // `tree.iter()` is ascending-id, so the kind lists are already
        // sorted; the interval index orders by start time.
        idx.by_start.sort_unstable();
        idx
    }

    /// Candidate ids for a mission kind (ascending), if indexed.
    pub fn mission_kind(&self, kind: &str) -> Option<&[OpId]> {
        self.by_mission_kind.get(kind).map(Vec::as_slice)
    }

    /// Candidate ids for an actor kind (ascending), if indexed.
    pub fn actor_kind(&self, kind: &str) -> Option<&[OpId]> {
        self.by_actor_kind.get(kind).map(Vec::as_slice)
    }

    /// Ids of operations whose start time falls in `window`, ascending by
    /// id.
    pub fn started_in(&self, window: TimeWindow) -> Vec<OpId> {
        let lo = window.start_us.unwrap_or(0);
        let from = self.by_start.partition_point(|&(s, _)| s < lo);
        let to = match window.end_us {
            Some(hi) => self.by_start.partition_point(|&(s, _)| s < hi),
            None => self.by_start.len(),
        };
        // A reversed window (`hi <= lo`) selects nothing, like the oracle.
        let mut ids: Vec<OpId> = self.by_start[from..to.max(from)]
            .iter()
            .map(|&(_, id)| id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// How many operations a window selects (without materializing them).
    fn window_cardinality(&self, window: TimeWindow) -> usize {
        let lo = window.start_us.unwrap_or(0);
        let from = self.by_start.partition_point(|&(s, _)| s < lo);
        let to = match window.end_us {
            Some(hi) => self.by_start.partition_point(|&(s, _)| s < hi),
            None => self.by_start.len(),
        };
        to.saturating_sub(from)
    }

    /// Number of operations in the indexed tree.
    pub fn num_ops(&self) -> usize {
        self.ops
    }

    /// Number of distinct mission kinds.
    pub fn num_mission_kinds(&self) -> usize {
        self.by_mission_kind.len()
    }

    /// Number of distinct actor kinds.
    pub fn num_actor_kinds(&self) -> usize {
        self.by_actor_kind.len()
    }

    /// Number of timestamped operations in the interval index.
    pub fn num_timestamped(&self) -> usize {
        self.by_start.len()
    }

    /// Picks the cheapest access path for a query. The deciding segment is
    /// the *last* one (both `select` and `find_all` constrain ancestors
    /// from the last segment upward), so its patterns select the candidate
    /// list; the smallest available list wins.
    pub fn plan(&self, query: &Query) -> QueryPlan {
        let last: &Segment = query.segments.last().expect("parsed query has segments");
        let mut best = QueryPlan::FullScan { ops: self.ops };
        let mut best_card = self.ops;
        if let Some(kind) = last.mission.kind.as_deref() {
            let card = self.mission_kind(kind).map_or(0, <[OpId]>::len);
            if card <= best_card {
                best = QueryPlan::MissionKindIndex {
                    kind: kind.to_string(),
                    candidates: card,
                };
                best_card = card;
            }
        }
        if let Some(kind) = last.actor.kind.as_deref() {
            let card = self.actor_kind(kind).map_or(0, <[OpId]>::len);
            if card < best_card {
                best = QueryPlan::ActorKindIndex {
                    kind: kind.to_string(),
                    candidates: card,
                };
                best_card = card;
            }
        }
        if let Some(window) = query.window {
            let card = self.window_cardinality(window);
            if card < best_card {
                best = QueryPlan::IntervalIndex {
                    window,
                    candidates: card,
                };
            }
        }
        best
    }

    /// Cost-aware planning: [`plan`](Self::plan) plus the scan-fallback
    /// rules that fix the tiny-query regression measured in PR 5.
    ///
    /// * Trees of at most [`SCAN_THRESHOLD`] operations plan to the
    ///   scan — the fixed planning/materialization overhead dominates.
    /// * [`QueryMode::Select`] queries without a time window plan to the
    ///   scan: an anchored path walk only descends children matching the
    ///   leading segments, which is never more work than filtering a
    ///   kind candidate list through per-candidate ancestor walks.
    /// * A candidate list must be at least [`SCAN_FALLBACK_FACTOR`]×
    ///   smaller than the tree, otherwise the scan wins.
    ///
    /// Results are identical either way — only the access path changes.
    pub fn plan_for(&self, query: &Query, mode: QueryMode) -> QueryPlan {
        let scan = QueryPlan::FullScan { ops: self.ops };
        if self.ops <= SCAN_THRESHOLD {
            return scan;
        }
        if mode == QueryMode::Select && query.window.is_none() {
            return scan;
        }
        let plan = self.plan(query);
        if !matches!(plan, QueryPlan::FullScan { .. })
            && plan.cardinality().saturating_mul(SCAN_FALLBACK_FACTOR) >= self.ops
        {
            return scan;
        }
        plan
    }

    /// Materializes the candidate list of a plan, ascending by id.
    pub fn candidates(&self, plan: &QueryPlan) -> Option<Vec<OpId>> {
        match plan {
            QueryPlan::MissionKindIndex { kind, .. } => {
                Some(self.mission_kind(kind).unwrap_or(&[]).to_vec())
            }
            QueryPlan::ActorKindIndex { kind, .. } => {
                Some(self.actor_kind(kind).unwrap_or(&[]).to_vec())
            }
            QueryPlan::IntervalIndex { window, .. } => Some(self.started_in(*window)),
            QueryPlan::FullScan { .. } => None,
        }
    }

    /// Evaluates `query` over `tree`, the tree this index was built from:
    /// plans with [`plan_for`](Self::plan_for), then walks the plan's
    /// candidate list or falls back to [`Query::scan`]. The result is
    /// identical to the scan either way.
    pub fn evaluate(&self, tree: &OperationTree, query: &Query, mode: QueryMode) -> Vec<OpId> {
        match self.candidates(&self.plan_for(query, mode)) {
            Some(candidates) => evaluate_candidates(tree, query, mode, &candidates),
            None => query.scan(tree, mode),
        }
    }
}

/// Evaluates a query over an index-provided candidate list (ascending
/// ids). Each candidate is checked against the last segment and window,
/// then its ancestor chain against the leading segments — exactly the
/// semantics of the linear scans, restricted to the candidates.
fn evaluate_candidates(
    tree: &OperationTree,
    query: &Query,
    mode: QueryMode,
    candidates: &[OpId],
) -> Vec<OpId> {
    let _span = granula_trace::span!("archiving", "engine.indexed_eval");
    let last = query.segments.last().expect("parsed query has segments");
    let leading = &query.segments[..query.segments.len() - 1];
    let mut out = Vec::new();
    'op: for &id in candidates {
        let op = tree.op(id);
        if !last.matches(op) || !query.window_accepts(op) {
            continue;
        }
        let mut cur = op.parent;
        for seg in leading.iter().rev() {
            match cur {
                Some(pid) if seg.matches(tree.op(pid)) => cur = tree.op(pid).parent,
                _ => continue 'op,
            }
        }
        // `find_all` accepts any anchor; `select` additionally requires
        // the chain to consume the whole path ending at the root — i.e.
        // the op sits at depth `segments.len() - 1` on a fully-matching
        // root path.
        if mode == QueryMode::Select && cur.is_some() {
            continue;
        }
        out.push(id);
    }
    out
}

/// The access path chosen for one query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryPlan {
    /// Walk the mission-kind candidate list.
    MissionKindIndex {
        /// The indexed mission kind.
        kind: String,
        /// Candidate-list length.
        candidates: usize,
    },
    /// Walk the actor-kind candidate list.
    ActorKindIndex {
        /// The indexed actor kind.
        kind: String,
        /// Candidate-list length.
        candidates: usize,
    },
    /// Binary-search the interval index.
    IntervalIndex {
        /// The window driving the range scan.
        window: TimeWindow,
        /// Candidate count inside the window.
        candidates: usize,
    },
    /// No index applies; fall back to the linear scan.
    FullScan {
        /// Operations the scan will visit.
        ops: usize,
    },
}

impl QueryPlan {
    /// How many operations the plan will examine.
    pub fn cardinality(&self) -> usize {
        match self {
            QueryPlan::MissionKindIndex { candidates, .. }
            | QueryPlan::ActorKindIndex { candidates, .. }
            | QueryPlan::IntervalIndex { candidates, .. } => *candidates,
            QueryPlan::FullScan { ops } => *ops,
        }
    }
}

impl fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryPlan::MissionKindIndex { kind, candidates } => {
                write!(f, "mission-kind index `{kind}` ({candidates} candidates)")
            }
            QueryPlan::ActorKindIndex { kind, candidates } => {
                write!(f, "actor-kind index `{kind}` ({candidates} candidates)")
            }
            QueryPlan::IntervalIndex { candidates, .. } => {
                write!(f, "interval index ({candidates} candidates)")
            }
            QueryPlan::FullScan { ops } => write!(f, "full scan ({ops} operations)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use granula_model::{names, Actor, Info, InfoValue, Mission};

    fn tree() -> OperationTree {
        let mut t = OperationTree::new();
        let job = t
            .add_root(Actor::new("Job", "0"), Mission::new("GiraphJob", "0"))
            .unwrap();
        for s in 0..3 {
            let ss = t
                .add_child(
                    job,
                    Actor::new("Job", "0"),
                    Mission::new("Superstep", s.to_string()),
                )
                .unwrap();
            t.set_info(
                ss,
                Info::raw(names::START_TIME, InfoValue::Int(1_000 * s as i64)),
            )
            .unwrap();
            for w in 0..2 {
                t.add_child(
                    ss,
                    Actor::new("Worker", w.to_string()),
                    Mission::new("Compute", "0"),
                )
                .unwrap();
            }
        }
        t
    }

    #[test]
    fn kind_lists_are_ascending_and_complete() {
        let t = tree();
        let idx = TreeIndex::build(&t);
        let computes = idx.mission_kind("Compute").unwrap();
        assert_eq!(computes.len(), 6);
        assert!(computes.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(idx.actor_kind("Worker").unwrap().len(), 6);
        assert_eq!(idx.mission_kind("Nope"), None);
        assert_eq!(idx.num_ops(), t.len());
        assert_eq!(idx.num_timestamped(), 3);
    }

    #[test]
    fn interval_index_respects_half_open_bounds() {
        let idx = TreeIndex::build(&tree());
        let w = |a: Option<u64>, b: Option<u64>| TimeWindow {
            start_us: a,
            end_us: b,
        };
        assert_eq!(idx.started_in(w(None, None)).len(), 3);
        assert_eq!(idx.started_in(w(Some(0), Some(1_000))).len(), 1);
        assert_eq!(idx.started_in(w(Some(1_000), None)).len(), 2);
        assert_eq!(idx.started_in(w(Some(2_001), None)).len(), 0);
        assert_eq!(idx.window_cardinality(w(Some(0), Some(2_001))), 3);
    }

    #[test]
    fn reversed_window_selects_nothing() {
        let idx = TreeIndex::build(&tree());
        // `[hi..lo]` with hi > lo: the scan oracle matches nothing, so the
        // index must agree instead of underflowing `to - from`.
        let w = TimeWindow {
            start_us: Some(2_000),
            end_us: Some(500),
        };
        assert_eq!(idx.started_in(w).len(), 0);
        assert_eq!(idx.window_cardinality(w), 0);
    }

    #[test]
    fn planner_picks_smallest_candidate_list() {
        let idx = TreeIndex::build(&tree());

        // Mission kind beats full scan.
        let q = Query::parse("Superstep").unwrap();
        assert_eq!(
            idx.plan(&q),
            QueryPlan::MissionKindIndex {
                kind: "Superstep".into(),
                candidates: 3
            }
        );

        // A narrow window beats a wide kind list.
        let q = Query::parse("Superstep[0..500]").unwrap();
        assert!(matches!(
            idx.plan(&q),
            QueryPlan::IntervalIndex { candidates: 1, .. }
        ));

        // Wildcard mission falls back to the actor index.
        let q = Query::parse("*@Job").unwrap();
        assert!(matches!(
            idx.plan(&q),
            QueryPlan::ActorKindIndex { candidates: 4, .. }
        ));

        // Nothing indexable: full scan.
        let q = Query::parse("*-1").unwrap();
        assert_eq!(idx.plan(&q), QueryPlan::FullScan { ops: 10 });

        // Unknown kind plans to an empty candidate list, not a scan.
        let q = Query::parse("Nope").unwrap();
        assert_eq!(idx.plan(&q).cardinality(), 0);
    }

    #[test]
    fn cost_threshold_plans_tiny_trees_to_scan() {
        let idx = TreeIndex::build(&tree()); // 10 ops, under SCAN_THRESHOLD
        for (text, mode) in [
            ("Superstep", QueryMode::FindAll),
            ("Superstep[0..500]", QueryMode::FindAll),
            ("GiraphJob/Superstep", QueryMode::Select),
        ] {
            let q = Query::parse(text).unwrap();
            assert_eq!(
                idx.plan_for(&q, mode),
                QueryPlan::FullScan { ops: 10 },
                "tiny tree, query `{text}`"
            );
        }
        // The raw planner stays cost-blind; the threshold lives in plan_for.
        assert!(matches!(
            idx.plan(&Query::parse("Superstep").unwrap()),
            QueryPlan::MissionKindIndex { .. }
        ));
    }

    #[test]
    fn cost_aware_planner_keeps_only_selective_paths_on_large_trees() {
        // 1 root + 200 supersteps + 400 computes = 601 ops.
        let mut t = OperationTree::new();
        let job = t
            .add_root(Actor::new("Job", "0"), Mission::new("GiraphJob", "0"))
            .unwrap();
        for s in 0..200 {
            let ss = t
                .add_child(
                    job,
                    Actor::new("Job", "0"),
                    Mission::new("Superstep", s.to_string()),
                )
                .unwrap();
            t.set_info(
                ss,
                Info::raw(names::START_TIME, InfoValue::Int(100 * s as i64)),
            )
            .unwrap();
            for w in 0..2 {
                t.add_child(
                    ss,
                    Actor::new("Worker", w.to_string()),
                    Mission::new("Compute", "0"),
                )
                .unwrap();
            }
        }
        let idx = TreeIndex::build(&t);

        // Selective kind list: indexed.
        let q = Query::parse("Superstep").unwrap();
        assert!(matches!(
            idx.plan_for(&q, QueryMode::FindAll),
            QueryPlan::MissionKindIndex {
                candidates: 200,
                ..
            }
        ));

        // Unselective kind list (400 of 601 ops): the scan wins.
        let q = Query::parse("Compute").unwrap();
        assert_eq!(
            idx.plan_for(&q, QueryMode::FindAll),
            QueryPlan::FullScan { ops: 601 }
        );

        // Anchored select without a window: the path walk wins.
        let q = Query::parse("GiraphJob/Superstep").unwrap();
        assert_eq!(
            idx.plan_for(&q, QueryMode::Select),
            QueryPlan::FullScan { ops: 601 }
        );

        // A narrow window stays indexed even for selects.
        let q = Query::parse("GiraphJob/Superstep[0..500]").unwrap();
        assert!(matches!(
            idx.plan_for(&q, QueryMode::Select),
            QueryPlan::IntervalIndex { candidates: 5, .. }
        ));
    }

    #[test]
    fn candidates_match_plan() {
        let idx = TreeIndex::build(&tree());
        let q = Query::parse("Compute@Worker").unwrap();
        let plan = idx.plan(&q);
        let c = idx.candidates(&plan).unwrap();
        assert_eq!(c.len(), plan.cardinality());
        let scan_plan = QueryPlan::FullScan { ops: 10 };
        assert!(idx.candidates(&scan_plan).is_none());
    }
}
