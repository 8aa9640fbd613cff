//! A Pregel/BSP engine executed at worker (partition) granularity.
//!
//! "Think like a vertex": per superstep, every active vertex consumes the
//! messages sent to it in the previous superstep, updates its value, and
//! sends new messages; a global barrier separates supersteps. The engine
//! additionally records, per superstep and per worker, the counters the
//! Giraph cost model needs: active vertices, edges scanned, and the
//! worker-to-worker message matrix.

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
pub trait VertexProgram {
    /// Per-vertex state.
    type Value: Clone + PartialEq;
    /// Message type.
    type Message: Clone;

    /// Initial value of a vertex.
    fn initial_value(&self, v: VertexId, g: &Graph) -> Self::Value;

    /// Whether the vertex is active in superstep 0.
    fn initially_active(&self, v: VertexId) -> bool;

    /// One superstep of one vertex.
    fn compute(
        &self,
        ctx: &mut Context<Self::Message>,
        v: VertexId,
        value: &mut Self::Value,
        messages: &[Self::Message],
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
    let mut active: Vec<bool> = (0..n as u32).map(|v| program.initially_active(v)).collect();
    let mut inbox: Vec<Vec<P::Message>> = vec![Vec::new(); n];
    let mut next_inbox: Vec<Vec<P::Message>> = vec![Vec::new(); n];
    let mut supersteps = Vec::new();
    let mut prev_aggregate = 0.0f64;

    for superstep in 0..max_supersteps {
        let any = active.iter().any(|&a| a) || inbox.iter().any(|i| !i.is_empty());
        if !any {
            break;
        }
        let mut per_worker = vec![WorkerSuperstep::default(); k];
        let mut remote = vec![vec![0u64; k]; k];
        let mut next_active = vec![false; n];
        let mut aggregate = 0.0f64;

        for v in 0..n as u32 {
            let has_msgs = !inbox[v as usize].is_empty();
            if !active[v as usize] && !has_msgs {
                aggregate += program.aggregate(v, &values[v as usize], g);
                continue;
            }
            let w = partition.owner_of(v) as usize;
            per_worker[w].active_vertices += 1;
            per_worker[w].edges_scanned += g.out_degree(v) as u64;

            let mut ctx = Context {
                superstep,
                prev_aggregate,
                outbox: Vec::new(),
                remain_active: false,
            };
            let msgs = std::mem::take(&mut inbox[v as usize]);
            program.compute(&mut ctx, v, &mut values[v as usize], &msgs, g);
            aggregate += program.aggregate(v, &values[v as usize], g);

            per_worker[w].messages_sent += ctx.outbox.len() as u64;
            for (to, msg) in ctx.outbox {
                let wt = partition.owner_of(to) as usize;
                remote[w][wt] += 1;
                per_worker[wt].messages_received += 1;
                next_inbox[to as usize].push(msg);
                next_active[to as usize] = true;
            }
            if ctx.remain_active {
                next_active[v as usize] = true;
            }
        }

        std::mem::swap(&mut inbox, &mut next_inbox);
        active = next_active;
        prev_aggregate = aggregate;
        supersteps.push(SuperstepStats {
            superstep,
            per_worker,
            remote_messages: remote,
        });
    }

    PregelOutcome { values, supersteps }
}

/// Vertex count at which [`run_bfs`] switches from the generic engine to
/// the flat frontier engine. The generic engine keeps a `Vec` inbox per
/// vertex — two pointer-width triples each — which at dg1000 scale
/// (103 M vertices) is ~5 GB of mostly-empty vectors plus an allocation
/// per delivered message; the flat engine carries the same information in
/// three dense arrays.
pub const FLAT_BFS_THRESHOLD: u32 = 2_000_000;

/// BFS through the engine best suited to the graph's size: the generic
/// vertex-program engine below [`FLAT_BFS_THRESHOLD`] vertices, the flat
/// frontier engine at or above it. Both produce identical values and
/// identical per-superstep counters (see `flat_bfs_matches_generic_engine`).
pub fn run_bfs(
    g: &Graph,
    partition: &EdgeCutPartition,
    source: VertexId,
    max_supersteps: u32,
) -> PregelOutcome<u32> {
    if g.num_vertices() >= FLAT_BFS_THRESHOLD {
        run_bfs_flat(g, partition, source, max_supersteps)
    } else {
        run(g, partition, &BfsProgram { source }, max_supersteps)
    }
}

/// Level-synchronous BFS over dense arrays, replicating the generic
/// engine's observable behavior exactly:
///
/// - the computed set of superstep `s > 0` is the set of message receivers
///   of superstep `s - 1` (improved or not — a visited vertex that is
///   messaged again still executes, scans its edges, and sends nothing);
/// - all messages of superstep `s` carry level `s`, so a receiver improves
///   iff it is unvisited;
/// - counters (active vertices, edges scanned, messages sent/received, the
///   worker-to-worker matrix) count per message, not per unique receiver.
pub fn run_bfs_flat(
    g: &Graph,
    partition: &EdgeCutPartition,
    source: VertexId,
    max_supersteps: u32,
) -> PregelOutcome<u32> {
    let n = g.num_vertices() as usize;
    let k = partition.k as usize;
    let mut values = vec![u32::MAX; n];
    values[source as usize] = 0;
    let mut computed: Vec<VertexId> = vec![source];
    // Membership stamp for the next frontier: `queued[v] == s + 1` means v
    // is already in superstep s's receiver set.
    let mut queued = vec![0u32; n];
    let mut supersteps = Vec::new();

    for superstep in 0..max_supersteps {
        if computed.is_empty() {
            break;
        }
        let mut per_worker = vec![WorkerSuperstep::default(); k];
        let mut remote = vec![vec![0u64; k]; k];
        let mut next: Vec<VertexId> = Vec::new();
        for &v in &computed {
            let w = partition.owner_of(v) as usize;
            let deg = g.out_degree(v) as u64;
            per_worker[w].active_vertices += 1;
            per_worker[w].edges_scanned += deg;
            let improved = if superstep == 0 {
                v == source
            } else if superstep < values[v as usize] {
                values[v as usize] = superstep;
                true
            } else {
                false
            };
            if improved {
                per_worker[w].messages_sent += deg;
                let row = &mut remote[w];
                for &t in g.neighbors(v) {
                    row[partition.owner_of(t) as usize] += 1;
                    if queued[t as usize] != superstep + 1 {
                        queued[t as usize] = superstep + 1;
                        next.push(t);
                    }
                }
            }
        }
        for row in &remote {
            for (wt, &count) in row.iter().enumerate() {
                per_worker[wt].messages_received += count;
            }
        }
        supersteps.push(SuperstepStats {
            superstep,
            per_worker,
            remote_messages: remote,
        });
        computed = next;
    }
    PregelOutcome { values, supersteps }
}

// ---------------------------------------------------------------------------
// Vertex programs for the Graphalytics algorithms.
// ---------------------------------------------------------------------------

/// Breadth-first search: level propagation along out-edges.
pub struct BfsProgram {
    /// Source vertex.
    pub source: VertexId,
}

impl VertexProgram for BfsProgram {
    type Value = u32;
    type Message = u32;

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

    fn compute(
        &self,
        ctx: &mut Context<u32>,
        v: VertexId,
        value: &mut u32,
        messages: &[u32],
        g: &Graph,
    ) {
        let improved = if ctx.superstep() == 0 {
            v == self.source
        } else {
            match messages.iter().min() {
                Some(&best) if best < *value => {
                    *value = best;
                    true
                }
                _ => false,
            }
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
pub struct PageRankProgram {
    /// Number of rank updates.
    pub iterations: u32,
    /// Damping factor (0.85 in Graphalytics).
    pub damping: f64,
}

impl VertexProgram for PageRankProgram {
    type Value = f64;
    type Message = f64;

    fn initial_value(&self, _v: VertexId, g: &Graph) -> f64 {
        1.0 / g.num_vertices() as f64
    }

    fn initially_active(&self, _v: VertexId) -> bool {
        true
    }

    fn compute(
        &self,
        ctx: &mut Context<f64>,
        v: VertexId,
        value: &mut f64,
        messages: &[f64],
        g: &Graph,
    ) {
        let n = g.num_vertices() as f64;
        let s = ctx.superstep();
        if s > 0 {
            let sum: f64 = messages.iter().sum();
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
pub struct WccProgram;

impl VertexProgram for WccProgram {
    type Value = u32;
    type Message = u32;

    fn initial_value(&self, v: VertexId, _g: &Graph) -> u32 {
        v
    }

    fn initially_active(&self, _v: VertexId) -> bool {
        true
    }

    fn compute(
        &self,
        ctx: &mut Context<u32>,
        v: VertexId,
        value: &mut u32,
        messages: &[u32],
        g: &Graph,
    ) {
        let improved = if ctx.superstep() == 0 {
            true
        } else {
            match messages.iter().min() {
                Some(&best) if best < *value => {
                    *value = best;
                    true
                }
                _ => false,
            }
        };
        if improved {
            for &t in g.neighbors(v).iter().chain(g.in_neighbors(v)) {
                ctx.send(t, *value);
            }
        }
    }
}

/// Single-source shortest paths (Bellman-Ford-style relaxation).
pub struct SsspProgram {
    /// Source vertex.
    pub source: VertexId,
}

impl VertexProgram for SsspProgram {
    type Value = f64;
    type Message = f64;

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

    fn compute(
        &self,
        ctx: &mut Context<f64>,
        v: VertexId,
        value: &mut f64,
        messages: &[f64],
        g: &Graph,
    ) {
        let improved = if ctx.superstep() == 0 {
            v == self.source
        } else {
            match messages.iter().copied().fold(f64::INFINITY, f64::min) {
                best if best < *value => {
                    *value = best;
                    true
                }
                _ => false,
            }
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

/// Community detection by synchronous label propagation.
pub struct CdlpProgram {
    /// Number of label updates.
    pub iterations: u32,
}

impl VertexProgram for CdlpProgram {
    type Value = u32;
    type Message = u32;

    fn initial_value(&self, v: VertexId, _g: &Graph) -> u32 {
        v
    }

    fn initially_active(&self, _v: VertexId) -> bool {
        true
    }

    fn compute(
        &self,
        ctx: &mut Context<u32>,
        v: VertexId,
        value: &mut u32,
        messages: &[u32],
        g: &Graph,
    ) {
        let s = ctx.superstep();
        if s > 0 && !messages.is_empty() {
            // Most frequent label, ties towards the smallest.
            let mut sorted = messages.to_vec();
            sorted.sort_unstable();
            let (mut best, mut best_count) = (sorted[0], 0u32);
            let mut i = 0;
            while i < sorted.len() {
                let mut j = i;
                while j < sorted.len() && sorted[j] == sorted[i] {
                    j += 1;
                }
                let count = (j - i) as u32;
                if count > best_count {
                    best = sorted[i];
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
/// program step of the Pregel-based drivers (Giraph, GraphX). BFS is
/// size-dispatched: full-scale graphs take the flat frontier engine, which
/// produces bit-identical counters.
pub(crate) fn run_program(
    g: &Graph,
    part: &EdgeCutPartition,
    algorithm: Algorithm,
    max_supersteps: u32,
) -> (AlgorithmOutput, Vec<SuperstepStats>) {
    match algorithm {
        Algorithm::Bfs { source } => {
            let out = run_bfs(g, part, source, max_supersteps);
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
    fn flat_bfs_matches_generic_engine() {
        // Values AND every per-superstep counter must be identical: the
        // Giraph DAG is built from these counters, so any divergence would
        // change full-scale makespans.
        for (vertices, seed, source) in [(2_000, 99, 1u32), (5_000, 7, 42), (300, 3, 0)] {
            let g = datagen_like(&GenConfig::datagen(vertices, seed));
            let p = EdgeCutPartition::hash(g.num_vertices(), 8);
            let generic = run(&g, &p, &BfsProgram { source }, 1_000);
            let flat = run_bfs_flat(&g, &p, source, 1_000);
            assert_eq!(flat.values, generic.values, "seed {seed}");
            assert_eq!(flat.supersteps, generic.supersteps, "seed {seed}");
        }
    }

    #[test]
    fn flat_bfs_handles_self_loops_and_duplicate_edges() {
        let g = Graph::from_edges(4, &[(0, 0), (0, 1), (0, 1), (1, 2), (2, 0), (3, 3)]);
        let p = EdgeCutPartition::hash(4, 2);
        let generic = run(&g, &p, &BfsProgram { source: 0 }, 100);
        let flat = run_bfs_flat(&g, &p, 0, 100);
        assert_eq!(flat.values, generic.values);
        assert_eq!(flat.supersteps, generic.supersteps);
    }

    #[test]
    fn run_bfs_dispatches_below_threshold() {
        let g = graph();
        let p = partition(&g);
        let via_dispatch = run_bfs(&g, &p, 1, 1_000);
        let generic = run(&g, &p, &BfsProgram { source: 1 }, 1_000);
        assert_eq!(via_dispatch.values, generic.values);
        assert_eq!(via_dispatch.supersteps, generic.supersteps);
    }

    #[test]
    fn flat_bfs_respects_superstep_cap() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let p = EdgeCutPartition::hash(5, 2);
        let out = run_bfs_flat(&g, &p, 0, 2);
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
