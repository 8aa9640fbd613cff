//! Activity DAGs: the unit of work the simulator executes.
//!
//! An activity is a single-resource demand (an amount of compute work,
//! bytes of disk or network traffic, or a fixed latency) bound to nodes and
//! ordered by dependencies. Platforms *tag* activities with the operation
//! they belong to; after simulation, an operation's start/end is the
//! min/max over its tagged activities.
//!
//! Storage is a struct-of-arrays arena: kinds, tags and dependency lists
//! live in flat vectors indexed by [`ActivityId`] — no per-activity heap
//! node, no owned `String` per tag. Tags are interned ([`Symbol`]), so
//! building a million-activity graph allocates a handful of vectors, and
//! copying or truncating one is a `memcpy` of plain-old-data rows plus one
//! shared dependency buffer. Dependencies are stored CSR-style: a global
//! id buffer plus per-activity offsets, which the engines walk as
//! contiguous slices. [`ActivityRef`] is the per-activity view handed out
//! by [`ActivityGraph::get`] / [`ActivityGraph::iter`].

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use crate::intern::Symbol;
use crate::topology::NodeId;

/// Index of an activity within an [`ActivityGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ActivityId(pub u32);

/// What an activity consumes. Plain old data (`Copy`): node ids and scalar
/// amounts only, so arena rows move without allocation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ActivityKind {
    /// CPU work on one node. `work_core_us` core-microseconds are processed
    /// at a rate of up to `parallelism` cores (further limited by fair
    /// sharing of the node's cores).
    Compute {
        /// Node executing the work.
        node: NodeId,
        /// Total work, core-microseconds.
        work_core_us: f64,
        /// Maximum cores the activity can use at once.
        parallelism: u32,
    },
    /// Read from the node's local disk.
    DiskRead {
        /// Node whose disk is read.
        node: NodeId,
        /// Bytes read.
        bytes: f64,
    },
    /// Write to the node's local disk.
    DiskWrite {
        /// Node whose disk is written.
        node: NodeId,
        /// Bytes written.
        bytes: f64,
    },
    /// Network transfer between two nodes (consumes `src` NIC-out and `dst`
    /// NIC-in). Same-node transfers complete at memory speed and are modeled
    /// as free.
    Transfer {
        /// Sending node.
        src: NodeId,
        /// Receiving node.
        dst: NodeId,
        /// Bytes moved.
        bytes: f64,
    },
    /// Read from the shared filesystem server (consumes the server's
    /// aggregate bandwidth and the reader's NIC-in).
    SharedRead {
        /// Node performing the read.
        node: NodeId,
        /// Bytes read.
        bytes: f64,
    },
    /// A fixed latency (resource-manager round-trips, process launches…).
    Delay {
        /// Duration, microseconds.
        duration_us: f64,
    },
    /// Zero-duration synchronization point (barrier / join marker).
    Barrier,
}

impl ActivityKind {
    /// Total amount to process, in the kind's own unit.
    pub fn amount(&self) -> f64 {
        match self {
            ActivityKind::Compute { work_core_us, .. } => *work_core_us,
            ActivityKind::DiskRead { bytes, .. }
            | ActivityKind::DiskWrite { bytes, .. }
            | ActivityKind::SharedRead { bytes, .. } => *bytes,
            ActivityKind::Transfer { src, dst, bytes } => {
                if src == dst {
                    0.0
                } else {
                    *bytes
                }
            }
            ActivityKind::Delay { duration_us } => *duration_us,
            ActivityKind::Barrier => 0.0,
        }
    }
}

/// Borrowed view of one arena row: id, kind, dependency slice and tag.
#[derive(Debug, Clone, Copy)]
pub struct ActivityRef<'g> {
    /// Identity within the graph.
    pub id: ActivityId,
    /// Resource demand.
    pub kind: &'g ActivityKind,
    /// Activities that must complete before this one starts.
    pub deps: &'g [ActivityId],
    tag: Symbol,
}

impl ActivityRef<'_> {
    /// The tag text linking the activity to a platform operation, e.g.
    /// `"LoadGraph/LocalLoad@Worker-3"`.
    pub fn tag(&self) -> &'static str {
        self.tag.as_str()
    }

    /// The interned tag handle (integer compare, no resolution).
    pub fn tag_symbol(&self) -> Symbol {
        self.tag
    }
}

/// Lazily-built index of activity ids sorted by `(tag, id)`, backing
/// [`ActivityGraph::tagged`]. Cleared on every mutation. A pure function of
/// the activities, so it is ignored by comparison and serialization.
#[derive(Debug, Clone, Default)]
struct TagIndex(OnceLock<Vec<u32>>);

impl PartialEq for TagIndex {
    fn eq(&self, _other: &Self) -> bool {
        // Derived caches never distinguish graphs.
        true
    }
}

/// A DAG of activities in struct-of-arrays arena storage.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ActivityGraph {
    kinds: Vec<ActivityKind>,
    tags: Vec<Symbol>,
    /// CSR dependency layout: activity `i`'s deps are
    /// `dep_buf[dep_off[i]..dep_off[i + 1]]`.
    dep_off: Vec<u32>,
    dep_buf: Vec<ActivityId>,
    tag_index: TagIndex,
}

impl ActivityGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph with capacity for `acts` activities and
    /// `deps` dependency edges, so large builds never re-allocate.
    pub fn with_capacity(acts: usize, deps: usize) -> Self {
        let mut g = ActivityGraph {
            kinds: Vec::with_capacity(acts),
            tags: Vec::with_capacity(acts),
            dep_off: Vec::with_capacity(acts + 1),
            dep_buf: Vec::with_capacity(deps),
            tag_index: TagIndex::default(),
        };
        g.dep_off.push(0);
        g
    }

    /// Adds an activity with dependencies; returns its id. The tag is
    /// interned — pass `&str`, `String`, or a pre-interned [`Symbol`].
    ///
    /// # Panics
    /// Panics if a dependency id is not already in the graph (dependencies
    /// must be added first, which also guarantees acyclicity).
    pub fn add(
        &mut self,
        kind: ActivityKind,
        deps: &[ActivityId],
        tag: impl Into<Symbol>,
    ) -> ActivityId {
        let id = ActivityId(self.kinds.len() as u32);
        for d in deps {
            assert!(
                (d.0 as usize) < self.kinds.len(),
                "dependency {d:?} added after dependent activity"
            );
        }
        self.tag_index.0.take();
        if self.dep_off.is_empty() {
            self.dep_off.push(0);
        }
        self.kinds.push(kind);
        self.tags.push(tag.into());
        self.dep_buf.extend_from_slice(deps);
        self.dep_off.push(self.dep_buf.len() as u32);
        id
    }

    /// Adds a barrier joining `deps`; returns its id. Useful as a compact
    /// fan-in point for superstep synchronization.
    pub fn barrier(&mut self, deps: &[ActivityId], tag: impl Into<Symbol>) -> ActivityId {
        self.add(ActivityKind::Barrier, deps, tag)
    }

    /// Number of activities.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// True when the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Total dependency-edge count.
    pub fn dep_count(&self) -> usize {
        self.dep_buf.len()
    }

    /// Borrows an activity as a view over its arena row.
    pub fn get(&self, id: ActivityId) -> ActivityRef<'_> {
        let i = id.0 as usize;
        ActivityRef {
            id,
            kind: &self.kinds[i],
            deps: self.deps_of(id),
            tag: self.tags[i],
        }
    }

    /// The kind of one activity (flat-array access for the engines).
    pub fn kind_of(&self, id: ActivityId) -> &ActivityKind {
        &self.kinds[id.0 as usize]
    }

    /// The dependency slice of one activity.
    pub fn deps_of(&self, id: ActivityId) -> &[ActivityId] {
        let i = id.0 as usize;
        &self.dep_buf[self.dep_off[i] as usize..self.dep_off[i + 1] as usize]
    }

    /// Iterates over all activities in id order.
    pub fn iter(&self) -> impl Iterator<Item = ActivityRef<'_>> {
        (0..self.kinds.len() as u32).map(move |i| self.get(ActivityId(i)))
    }

    fn tag_str(&self, i: u32) -> &'static str {
        self.tags[i as usize].as_str()
    }

    /// All activities whose tag starts with `prefix`, in `(tag, id)` order.
    ///
    /// Prefix matches form a contiguous run of the tag-sorted index, so a
    /// lookup is two binary searches plus the matches themselves — no scan
    /// over the whole graph. The index builds lazily on first use and is
    /// invalidated by [`ActivityGraph::add`].
    pub fn tagged<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = ActivityRef<'a>> {
        let order = self.tag_index.0.get_or_init(|| {
            let mut order: Vec<u32> = (0..self.kinds.len() as u32).collect();
            order.sort_unstable_by(|&a, &b| self.tag_str(a).cmp(self.tag_str(b)).then(a.cmp(&b)));
            order
        });
        let start = order.partition_point(|&i| self.tag_str(i) < prefix);
        let end = start + order[start..].partition_point(|&i| self.tag_str(i).starts_with(prefix));
        order[start..end]
            .iter()
            .map(move |&i| self.get(ActivityId(i)))
    }
}

/// Portable serde mirror: tags as text, deps as explicit lists, so the wire
/// form is identical in meaning to the pre-arena representation.
#[derive(Serialize, Deserialize)]
struct ActivityRow {
    id: ActivityId,
    kind: ActivityKind,
    deps: Vec<ActivityId>,
    tag: String,
}

#[derive(Serialize, Deserialize)]
struct GraphMirror {
    acts: Vec<ActivityRow>,
}

impl Serialize for ActivityGraph {
    fn to_value(&self) -> serde::Value {
        let acts = self
            .iter()
            .map(|a| ActivityRow {
                id: a.id,
                kind: *a.kind,
                deps: a.deps.to_vec(),
                tag: a.tag().to_owned(),
            })
            .collect();
        GraphMirror { acts }.to_value()
    }
}

impl Deserialize for ActivityGraph {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let mirror = GraphMirror::from_value(v)?;
        let mut g = ActivityGraph::with_capacity(mirror.acts.len(), 0);
        for row in mirror.acts {
            g.add(row.kind, &row.deps, row.tag.as_str());
        }
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assigns_sequential_ids() {
        let mut g = ActivityGraph::new();
        let a = g.add(ActivityKind::Delay { duration_us: 1.0 }, &[], "a");
        let b = g.add(ActivityKind::Delay { duration_us: 1.0 }, &[a], "b");
        assert_eq!(a, ActivityId(0));
        assert_eq!(b, ActivityId(1));
        assert_eq!(g.get(b).deps, &[a]);
    }

    #[test]
    #[should_panic(expected = "dependency")]
    fn forward_dependency_panics() {
        let mut g = ActivityGraph::new();
        g.add(ActivityKind::Barrier, &[ActivityId(5)], "bad");
    }

    #[test]
    fn same_node_transfer_is_free() {
        let k = ActivityKind::Transfer {
            src: NodeId(1),
            dst: NodeId(1),
            bytes: 1e9,
        };
        assert_eq!(k.amount(), 0.0);
    }

    #[test]
    fn tagged_prefix_lookup() {
        let mut g = ActivityGraph::new();
        g.add(ActivityKind::Barrier, &[], "LoadGraph/a");
        g.add(ActivityKind::Barrier, &[], "LoadGraph/b");
        g.add(ActivityKind::Barrier, &[], "Process/x");
        assert_eq!(g.tagged("LoadGraph").count(), 2);
    }

    #[test]
    fn tagged_index_respects_prefix_boundaries() {
        // "ab" must match "ab" and "abz" but not "aa" or "ac", even though
        // all four are adjacent in sorted tag order.
        let mut g = ActivityGraph::new();
        for tag in ["ac", "ab", "aa", "abz", "ab"] {
            g.add(ActivityKind::Barrier, &[], tag);
        }
        let tags: Vec<&str> = g.tagged("ab").map(|a| a.tag()).collect();
        assert_eq!(tags, ["ab", "ab", "abz"]);
        assert_eq!(g.tagged("").count(), 5);
        assert_eq!(g.tagged("b").count(), 0);
    }

    #[test]
    fn tagged_index_invalidated_by_add() {
        let mut g = ActivityGraph::new();
        g.add(ActivityKind::Barrier, &[], "x/1");
        assert_eq!(g.tagged("x").count(), 1); // builds the index
        g.add(ActivityKind::Barrier, &[], "x/2");
        assert_eq!(g.tagged("x").count(), 2); // rebuilt after mutation
    }

    #[test]
    fn tagged_ties_iterate_in_id_order() {
        let mut g = ActivityGraph::new();
        let a = g.add(ActivityKind::Barrier, &[], "same");
        let b = g.add(ActivityKind::Barrier, &[], "same");
        let ids: Vec<ActivityId> = g.tagged("same").map(|x| x.id).collect();
        assert_eq!(ids, [a, b]);
    }

    #[test]
    fn symbol_tags_are_shared_not_cloned() {
        let mut g = ActivityGraph::new();
        let s = Symbol::intern("shared/tag");
        let a = g.add(ActivityKind::Barrier, &[], s);
        let b = g.add(ActivityKind::Barrier, &[], s);
        assert_eq!(g.get(a).tag_symbol(), g.get(b).tag_symbol());
        assert_eq!(g.get(a).tag(), "shared/tag");
    }

    #[test]
    fn serde_round_trip_preserves_graph() {
        let mut g = ActivityGraph::new();
        let a = g.add(
            ActivityKind::Compute {
                node: NodeId(1),
                work_core_us: 5.0,
                parallelism: 2,
            },
            &[],
            "c/0",
        );
        g.add(ActivityKind::Delay { duration_us: 3.0 }, &[a], "d/1");
        let json = serde_json::to_string(&g).unwrap();
        let back: ActivityGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(back, g);
        assert_eq!(back.get(ActivityId(1)).tag(), "d/1");
        assert_eq!(back.deps_of(ActivityId(1)), &[a]);
    }
}
