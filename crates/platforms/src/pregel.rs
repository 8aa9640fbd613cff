//! A Pregel/BSP engine executed at worker (partition) granularity.
//!
//! "Think like a vertex": per superstep, every active vertex consumes the
//! messages sent to it in the previous superstep, updates its value, and
//! sends new messages; a global barrier separates supersteps. The engine
//! additionally records, per superstep and per worker, the counters the
//! Giraph cost model needs: active vertices, edges scanned, and the
//! worker-to-worker message matrix.
//!
//! State is dense: one value, one inbox and one activity flag per vertex.
//! A message is folded into its receiver's inbox on delivery (Pregel's
//! combiner), so a superstep's traffic is never materialised, and the one
//! engine runs every graph size up to the full-scale dg1000 graph.

use gpsim_graph::{EdgeCutPartition, Graph, VertexId};

use crate::common::{Algorithm, AlgorithmOutput};

/// Per-superstep context handed to vertex programs.
pub struct Context<M> {
    superstep: u32,
    prev_aggregate: f64,
    outbox: Vec<(VertexId, M)>,
    remain_active: bool,
}

impl<M> Context<M> {
    /// Current superstep number (0-based).
    pub fn superstep(&self) -> u32 {
        self.superstep
    }

    /// Value of the global aggregate computed at the end of the previous
    /// superstep (0.0 in superstep 0).
    pub fn prev_aggregate(&self) -> f64 {
        self.prev_aggregate
    }

    /// Sends a message, delivered at the next superstep.
    pub fn send(&mut self, to: VertexId, msg: M) {
        self.outbox.push((to, msg));
    }

    /// Keeps this vertex active next superstep even without incoming
    /// messages (vertices halt by default, Pregel-style).
    pub fn remain_active(&mut self) {
        self.remain_active = true;
    }
}

/// A Pregel vertex program.
///
/// A vertex does not see its messages as a list: the engine folds each
/// message into the receiver's [`VertexProgram::Inbox`] on delivery,
/// starting from [`VertexProgram::EMPTY_INBOX`] and in sender order (the
/// order of the vertices, then of each vertex's sends). A vertex that
/// received messages always computes; counters count every message sent,
/// however the inbox folds them.
pub trait VertexProgram {
    /// Per-vertex state.
    type Value;
    /// Message type.
    type Message;
    /// The fold of one superstep's messages to one vertex.
    type Inbox: Clone;
    /// The inbox of a vertex that received no message.
    const EMPTY_INBOX: Self::Inbox;

    /// Initial value of a vertex.
    fn initial_value(&self, v: VertexId, g: &Graph) -> Self::Value;

    /// Whether the vertex is active in superstep 0.
    fn initially_active(&self, v: VertexId) -> bool;

    /// Folds one delivered message into an inbox.
    fn combine(&self, inbox: &mut Self::Inbox, msg: Self::Message);

    /// One superstep of one vertex, given the fold of its messages.
    fn compute(
        &self,
        ctx: &mut Context<Self::Message>,
        v: VertexId,
        value: &mut Self::Value,
        inbox: Self::Inbox,
        g: &Graph,
    );

    /// Contribution of a vertex to the global aggregate (summed over all
    /// vertices after every superstep; visible next superstep).
    fn aggregate(&self, _v: VertexId, _value: &Self::Value, _g: &Graph) -> f64 {
        0.0
    }
}

/// Counters of one worker within one superstep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerSuperstep {
    /// Vertices that executed `compute`.
    pub active_vertices: u64,
    /// Sum of out-degrees of computed vertices.
    pub edges_scanned: u64,
    /// Messages emitted by this worker.
    pub messages_sent: u64,
    /// Messages delivered to this worker (next superstep's inbox).
    pub messages_received: u64,
}

/// Counters of one superstep across all workers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuperstepStats {
    /// Superstep number.
    pub superstep: u32,
    /// Per-worker counters, indexed by worker id.
    pub per_worker: Vec<WorkerSuperstep>,
    /// `remote_messages[from][to]`: messages crossing worker boundaries
    /// (diagonal = worker-local messages, which never touch the network).
    pub remote_messages: Vec<Vec<u64>>,
}

impl SuperstepStats {
    /// Total active vertices across workers.
    pub fn total_active(&self) -> u64 {
        self.per_worker.iter().map(|w| w.active_vertices).sum()
    }

    /// Total messages sent across workers.
    pub fn total_messages(&self) -> u64 {
        self.per_worker.iter().map(|w| w.messages_sent).sum()
    }
}

/// The result of a Pregel execution.
#[derive(Debug, Clone)]
pub struct PregelOutcome<V> {
    /// Final vertex values.
    pub values: Vec<V>,
    /// Per-superstep counters (length = executed supersteps).
    pub supersteps: Vec<SuperstepStats>,
}

/// Executes a vertex program to convergence (or `max_supersteps`).
pub fn run<P: VertexProgram>(
    g: &Graph,
    partition: &EdgeCutPartition,
    program: &P,
    max_supersteps: u32,
) -> PregelOutcome<P::Value> {
    let n = g.num_vertices() as usize;
    let k = partition.k as usize;
    let mut values: Vec<P::Value> = (0..n as u32).map(|v| program.initial_value(v, g)).collect();
    // Double-buffered: this superstep reads `active`/`inbox` (resetting
    // each entry it consumes) while deliveries fill the `next_` pair.
    let mut active: Vec<bool> = (0..n as u32).map(|v| program.initially_active(v)).collect();
    let mut next_active = vec![false; n];
    let mut inbox = vec![P::EMPTY_INBOX; n];
    let mut next_inbox = vec![P::EMPTY_INBOX; n];
    let mut ctx = Context {
        superstep: 0,
        prev_aggregate: 0.0,
        outbox: Vec::new(),
        remain_active: false,
    };
    let mut supersteps = Vec::new();

    while ctx.superstep < max_supersteps && active.contains(&true) {
        let mut per_worker = vec![WorkerSuperstep::default(); k];
        let mut remote = vec![vec![0u64; k]; k];
        let mut aggregate = 0.0f64;

        for v in 0..n as u32 {
            let i = v as usize;
            if std::mem::take(&mut active[i]) {
                let w = partition.owner_of(v) as usize;
                per_worker[w].active_vertices += 1;
                per_worker[w].edges_scanned += g.out_degree(v) as u64;

                ctx.remain_active = false;
                let msgs = std::mem::replace(&mut inbox[i], P::EMPTY_INBOX);
                program.compute(&mut ctx, v, &mut values[i], msgs, g);

                per_worker[w].messages_sent += ctx.outbox.len() as u64;
                let row = &mut remote[w];
                for (to, msg) in ctx.outbox.drain(..) {
                    let wt = partition.owner_of(to) as usize;
                    row[wt] += 1;
                    per_worker[wt].messages_received += 1;
                    program.combine(&mut next_inbox[to as usize], msg);
                    next_active[to as usize] = true;
                }
                if ctx.remain_active {
                    next_active[i] = true;
                }
            }
            aggregate += program.aggregate(v, &values[i], g);
        }

        std::mem::swap(&mut inbox, &mut next_inbox);
        std::mem::swap(&mut active, &mut next_active);
        supersteps.push(SuperstepStats {
            superstep: ctx.superstep,
            per_worker,
            remote_messages: remote,
        });
        ctx.superstep += 1;
        ctx.prev_aggregate = aggregate;
    }

    PregelOutcome { values, supersteps }
}

// ---------------------------------------------------------------------------
// Vertex programs for the Graphalytics algorithms.
// ---------------------------------------------------------------------------

/// Breadth-first search: level propagation along out-edges. The inbox is
/// the smallest level received.
pub struct BfsProgram {
    /// Source vertex.
    pub source: VertexId,
}

impl VertexProgram for BfsProgram {
    type Value = u32;
    type Message = u32;
    type Inbox = u32;
    const EMPTY_INBOX: u32 = u32::MAX;

    fn initial_value(&self, v: VertexId, _g: &Graph) -> u32 {
        if v == self.source {
            0
        } else {
            u32::MAX
        }
    }

    fn initially_active(&self, v: VertexId) -> bool {
        v == self.source
    }

    fn combine(&self, inbox: &mut u32, msg: u32) {
        *inbox = (*inbox).min(msg);
    }

    fn compute(&self, ctx: &mut Context<u32>, v: VertexId, value: &mut u32, best: u32, g: &Graph) {
        let improved = if ctx.superstep() == 0 {
            v == self.source
        } else if best < *value {
            *value = best;
            true
        } else {
            false
        };
        if improved {
            let next = *value + 1;
            for &t in g.neighbors(v) {
                ctx.send(t, next);
            }
        }
    }
}

/// PageRank with dangling-mass redistribution via the global aggregate.
/// The inbox is the sum of the received shares, added in sender order.
pub struct PageRankProgram {
    /// Number of rank updates.
    pub iterations: u32,
    /// Damping factor (0.85 in Graphalytics).
    pub damping: f64,
}

impl VertexProgram for PageRankProgram {
    type Value = f64;
    type Message = f64;
    type Inbox = f64;
    const EMPTY_INBOX: f64 = 0.0;

    fn initial_value(&self, _v: VertexId, g: &Graph) -> f64 {
        1.0 / g.num_vertices() as f64
    }

    fn initially_active(&self, _v: VertexId) -> bool {
        true
    }

    fn combine(&self, inbox: &mut f64, msg: f64) {
        *inbox += msg;
    }

    fn compute(&self, ctx: &mut Context<f64>, v: VertexId, value: &mut f64, sum: f64, g: &Graph) {
        let n = g.num_vertices() as f64;
        let s = ctx.superstep();
        if s > 0 {
            *value = (1.0 - self.damping) / n
                + self.damping * ctx.prev_aggregate() / n
                + self.damping * sum;
        }
        if s < self.iterations {
            let deg = g.out_degree(v);
            if deg > 0 {
                let share = *value / deg as f64;
                for &t in g.neighbors(v) {
                    ctx.send(t, share);
                }
            }
            ctx.remain_active();
        }
    }

    fn aggregate(&self, v: VertexId, value: &f64, g: &Graph) -> f64 {
        // Dangling mass: rank held by vertices without out-edges.
        if g.out_degree(v) == 0 {
            *value
        } else {
            0.0
        }
    }
}

/// Weakly-connected components by min-label propagation (undirected view).
/// The inbox is the smallest label received.
pub struct WccProgram;

impl VertexProgram for WccProgram {
    type Value = u32;
    type Message = u32;
    type Inbox = u32;
    const EMPTY_INBOX: u32 = u32::MAX;

    fn initial_value(&self, v: VertexId, _g: &Graph) -> u32 {
        v
    }

    fn initially_active(&self, _v: VertexId) -> bool {
        true
    }

    fn combine(&self, inbox: &mut u32, msg: u32) {
        *inbox = (*inbox).min(msg);
    }

    fn compute(&self, ctx: &mut Context<u32>, v: VertexId, value: &mut u32, best: u32, g: &Graph) {
        let improved = if ctx.superstep() == 0 {
            true
        } else if best < *value {
            *value = best;
            true
        } else {
            false
        };
        if improved {
            for &t in g.neighbors(v).iter().chain(g.in_neighbors(v)) {
                ctx.send(t, *value);
            }
        }
    }
}

/// Single-source shortest paths (Bellman-Ford-style relaxation). The inbox
/// is the shortest distance received.
pub struct SsspProgram {
    /// Source vertex.
    pub source: VertexId,
}

impl VertexProgram for SsspProgram {
    type Value = f64;
    type Message = f64;
    type Inbox = f64;
    const EMPTY_INBOX: f64 = f64::INFINITY;

    fn initial_value(&self, v: VertexId, _g: &Graph) -> f64 {
        if v == self.source {
            0.0
        } else {
            f64::INFINITY
        }
    }

    fn initially_active(&self, v: VertexId) -> bool {
        v == self.source
    }

    fn combine(&self, inbox: &mut f64, msg: f64) {
        *inbox = inbox.min(msg);
    }

    fn compute(&self, ctx: &mut Context<f64>, v: VertexId, value: &mut f64, best: f64, g: &Graph) {
        let improved = if ctx.superstep() == 0 {
            v == self.source
        } else if best < *value {
            *value = best;
            true
        } else {
            false
        };
        if improved {
            let neighbors = g.neighbors(v);
            for (i, &t) in neighbors.iter().enumerate() {
                let w = g.edge_weights(v).map_or(1.0, |ws| ws[i] as f64);
                ctx.send(t, *value + w);
            }
        }
    }
}

/// Community detection by synchronous label propagation. The inbox is the
/// list of received labels.
pub struct CdlpProgram {
    /// Number of label updates.
    pub iterations: u32,
}

impl VertexProgram for CdlpProgram {
    type Value = u32;
    type Message = u32;
    type Inbox = Vec<u32>;
    const EMPTY_INBOX: Vec<u32> = Vec::new();

    fn initial_value(&self, v: VertexId, _g: &Graph) -> u32 {
        v
    }

    fn initially_active(&self, _v: VertexId) -> bool {
        true
    }

    fn combine(&self, labels: &mut Vec<u32>, msg: u32) {
        labels.push(msg);
    }

    fn compute(
        &self,
        ctx: &mut Context<u32>,
        v: VertexId,
        value: &mut u32,
        mut labels: Vec<u32>,
        g: &Graph,
    ) {
        let s = ctx.superstep();
        if s > 0 && !labels.is_empty() {
            // Most frequent label, ties towards the smallest.
            labels.sort_unstable();
            let (mut best, mut best_count) = (labels[0], 0u32);
            let mut i = 0;
            while i < labels.len() {
                let mut j = i;
                while j < labels.len() && labels[j] == labels[i] {
                    j += 1;
                }
                let count = (j - i) as u32;
                if count > best_count {
                    best = labels[i];
                    best_count = count;
                }
                i = j;
            }
            *value = best;
        }
        if s < self.iterations {
            // Send the label along out-edges and in-edges: the receiver sees
            // the same multiset of neighbour labels as the reference CDLP.
            for &t in g.neighbors(v).iter().chain(g.in_neighbors(v)) {
                ctx.send(t, *value);
            }
            ctx.remain_active();
        }
    }
}

/// Executes `algorithm` as a vertex program over `part`: the shared
/// program step of the Pregel-based drivers (Giraph, GraphX).
pub(crate) fn run_program(
    g: &Graph,
    part: &EdgeCutPartition,
    algorithm: Algorithm,
    max_supersteps: u32,
) -> (AlgorithmOutput, Vec<SuperstepStats>) {
    match algorithm {
        Algorithm::Bfs { source } => {
            let out = run(g, part, &BfsProgram { source }, max_supersteps);
            (AlgorithmOutput::Levels(out.values), out.supersteps)
        }
        Algorithm::PageRank { iterations } => {
            let program = PageRankProgram {
                iterations,
                damping: 0.85,
            };
            let out = run(g, part, &program, max_supersteps);
            (AlgorithmOutput::Ranks(out.values), out.supersteps)
        }
        Algorithm::Wcc => {
            let out = run(g, part, &WccProgram, max_supersteps);
            (AlgorithmOutput::Labels(out.values), out.supersteps)
        }
        Algorithm::Sssp { source } => {
            let out = run(g, part, &SsspProgram { source }, max_supersteps);
            (AlgorithmOutput::Distances(out.values), out.supersteps)
        }
        Algorithm::Cdlp { iterations } => {
            let out = run(g, part, &CdlpProgram { iterations }, max_supersteps);
            (AlgorithmOutput::Labels(out.values), out.supersteps)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpsim_graph::gen::{datagen_like, with_uniform_weights, GenConfig};
    use gpsim_graph::{algos, EdgeCutPartition};

    fn graph() -> Graph {
        datagen_like(&GenConfig::datagen(2_000, 99))
    }

    fn partition(g: &Graph) -> EdgeCutPartition {
        EdgeCutPartition::hash(g.num_vertices(), 8)
    }

    #[test]
    fn bfs_matches_reference() {
        let g = graph();
        let p = partition(&g);
        let out = run(&g, &p, &BfsProgram { source: 1 }, 1_000);
        assert_eq!(out.values, algos::bfs(&g, 1));
    }

    #[test]
    fn bfs_respects_superstep_cap() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let p = EdgeCutPartition::hash(5, 2);
        let out = run(&g, &p, &BfsProgram { source: 0 }, 2);
        assert_eq!(out.supersteps.len(), 2);
        assert_eq!(out.values, vec![0, 1, u32::MAX, u32::MAX, u32::MAX]);
    }

    #[test]
    fn bfs_superstep_count_is_depth_plus_one() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let p = EdgeCutPartition::hash(4, 2);
        let out = run(&g, &p, &BfsProgram { source: 0 }, 100);
        // Supersteps 0..=3 propagate the frontier one hop each; vertex 3 has
        // no out-edges, so nothing runs afterwards -> 4 executed supersteps.
        assert_eq!(out.supersteps.len(), 4);
        assert_eq!(out.values, vec![0, 1, 2, 3]);
    }

    #[test]
    fn pagerank_matches_reference() {
        let g = graph();
        let p = partition(&g);
        let out = run(
            &g,
            &p,
            &PageRankProgram {
                iterations: 10,
                damping: 0.85,
            },
            100,
        );
        let reference = algos::pagerank(&g, 10, 0.85);
        for (a, b) in out.values.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn wcc_matches_reference() {
        let g = graph();
        let p = partition(&g);
        let out = run(&g, &p, &WccProgram, 1_000);
        assert_eq!(out.values, algos::wcc(&g));
    }

    #[test]
    fn sssp_matches_reference() {
        let g = with_uniform_weights(&graph(), 4.0, 5);
        let p = partition(&g);
        let out = run(&g, &p, &SsspProgram { source: 1 }, 10_000);
        let reference = algos::sssp(&g, 1);
        for (a, b) in out.values.iter().zip(&reference) {
            if b.is_infinite() {
                assert!(a.is_infinite());
            } else {
                assert!((a - b).abs() < 1e-9, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn cdlp_matches_reference() {
        let g = graph();
        let p = partition(&g);
        let out = run(&g, &p, &CdlpProgram { iterations: 5 }, 100);
        assert_eq!(out.values, algos::cdlp(&g, 5));
    }

    #[test]
    fn superstep_counters_are_consistent() {
        let g = graph();
        let p = partition(&g);
        let out = run(&g, &p, &BfsProgram { source: 1 }, 1_000);
        for ss in &out.supersteps {
            let sent: u64 = ss.per_worker.iter().map(|w| w.messages_sent).sum();
            let received: u64 = ss.per_worker.iter().map(|w| w.messages_received).sum();
            let matrix: u64 = ss.remote_messages.iter().flatten().sum();
            assert_eq!(sent, received);
            assert_eq!(sent, matrix);
        }
        // BFS on a connected-ish social graph: middle supersteps carry the
        // bulk of the frontier.
        let actives: Vec<u64> = out.supersteps.iter().map(|s| s.total_active()).collect();
        let peak = actives.iter().copied().max().unwrap();
        assert!(peak > actives[0], "frontier should grow: {actives:?}");
    }

    #[test]
    fn max_supersteps_caps_execution() {
        let g = graph();
        let p = partition(&g);
        let out = run(
            &g,
            &p,
            &PageRankProgram {
                iterations: 50,
                damping: 0.85,
            },
            3,
        );
        assert_eq!(out.supersteps.len(), 3);
    }

    #[test]
    fn workers_see_disjoint_active_vertices() {
        let g = graph();
        let p = partition(&g);
        let out = run(&g, &p, &WccProgram, 1_000);
        // Superstep 0: every vertex computes exactly once across workers.
        assert_eq!(out.supersteps[0].total_active(), g.num_vertices() as u64);
    }
}
