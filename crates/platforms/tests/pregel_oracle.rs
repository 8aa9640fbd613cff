//! The Pregel engine against the engine it replaced, kept here as the
//! test-only oracle (the way `gpsim-cluster`'s `fill_kernel.rs` keeps the
//! naive rate sweep).
//!
//! [`oracle`] is the former `pregel::run` verbatim: a `Vec` inbox per
//! vertex, a fresh outbox per compute call, and its five Graphalytics
//! programs. The current engine folds messages into one combined inbox
//! value at delivery, so the property below checks, for all five
//! algorithms on random graphs, that it produces the same values (f64s by
//! bit pattern) and the same `Vec<SuperstepStats>`: the Giraph and GraphX
//! DAGs are built from those counters, so any divergence would move a
//! makespan. `PROPTEST_CASES` scales the property.
//!
//! The pins hash values and counters of the five algorithms on the
//! 20k-vertex dg1000 down-sample. They were computed with the former
//! engine; to regenerate after a change that is *meant* to move them, run
//!
//! ```text
//! cargo test --release -p gpsim-platforms --test pregel_oracle -- --nocapture
//! ```
//!
//! and copy the `got` digests from the failure message.

use proptest::prelude::*;

use gpsim_graph::gen::{datagen_like, with_uniform_weights, GenConfig};
use gpsim_graph::{EdgeCutPartition, Graph, VertexId};
use gpsim_platforms::pregel::{self, PregelOutcome, SuperstepStats};

/// The former `pregel::run`, its trait and its programs, unchanged.
mod oracle {
    use gpsim_graph::{EdgeCutPartition, Graph, VertexId};
    use gpsim_platforms::pregel::{PregelOutcome, SuperstepStats, WorkerSuperstep};

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

    /// Executes a vertex program to convergence (or `max_supersteps`).
    pub fn run<P: VertexProgram>(
        g: &Graph,
        partition: &EdgeCutPartition,
        program: &P,
        max_supersteps: u32,
    ) -> PregelOutcome<P::Value> {
        let n = g.num_vertices() as usize;
        let k = partition.k as usize;
        let mut values: Vec<P::Value> =
            (0..n as u32).map(|v| program.initial_value(v, g)).collect();
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
}

/// Source, iteration count and superstep cap shared by the five runs.
#[derive(Debug, Clone, Copy)]
struct Params {
    source: VertexId,
    iterations: u32,
    max_supersteps: u32,
}

/// Values as comparable words (f64s by bit pattern) plus the counters.
type Run = (Vec<u64>, Vec<SuperstepStats>);

fn words<V: Copy>(out: PregelOutcome<V>, word: impl Fn(V) -> u64) -> Run {
    (out.values.into_iter().map(word).collect(), out.supersteps)
}

/// BFS, PageRank, WCC, SSSP and CDLP through `$engine::run` and the
/// module's programs.
macro_rules! five_runs {
    ($engine:ident, $g:expr, $p:expr, $a:expr) => {{
        let (g, p, a): (&Graph, &EdgeCutPartition, Params) = ($g, $p, $a);
        let (source, iterations, cap) = (a.source, a.iterations, a.max_supersteps);
        let pagerank = $engine::PageRankProgram {
            iterations,
            damping: 0.85,
        };
        let bfs = $engine::run(g, p, &$engine::BfsProgram { source }, cap);
        let pagerank = $engine::run(g, p, &pagerank, cap);
        let wcc = $engine::run(g, p, &$engine::WccProgram, cap);
        let sssp = $engine::run(g, p, &$engine::SsspProgram { source }, cap);
        let cdlp = $engine::run(g, p, &$engine::CdlpProgram { iterations }, cap);
        [
            ("bfs", words(bfs, u64::from)),
            ("pagerank", words(pagerank, f64::to_bits)),
            ("wcc", words(wcc, u64::from)),
            ("sssp", words(sssp, f64::to_bits)),
            ("cdlp", words(cdlp, u64::from)),
        ]
    }};
}

fn engine(g: &Graph, p: &EdgeCutPartition, a: Params) -> [(&'static str, Run); 5] {
    five_runs!(pregel, g, p, a)
}

fn reference(g: &Graph, p: &EdgeCutPartition, a: Params) -> [(&'static str, Run); 5] {
    five_runs!(oracle, g, p, a)
}

/// Graphs with self-loops, duplicate edges and isolated vertices (up to 40
/// vertices), half of them weighted. One in four has at most two edges,
/// so edgeless graphs, where PageRank and CDLP stay active without
/// sending, come up too.
fn arb_graph() -> impl Strategy<Value = Graph> {
    let edge = (0u32..40, 0u32..40, 0u32..8);
    let edges = prop_oneof![
        1 => prop::collection::vec(edge.clone(), 0..3),
        3 => prop::collection::vec(edge, 0..160),
    ];
    (1u32..40, edges, any::<bool>()).prop_map(|(n, edges, weighted)| {
        let (edges, weights): (Vec<(u32, u32)>, Vec<f32>) = edges
            .into_iter()
            .map(|(a, b, w)| ((a % n, b % n), 0.5 * w as f32 + 0.25))
            .unzip();
        Graph::from_edges_weighted(n, &edges, weighted.then_some(&weights[..]))
    })
}

proptest! {
    /// Values and every per-superstep counter equal the oracle's, for all
    /// five algorithms, with and without a superstep cap.
    #[test]
    fn engine_matches_oracle(
        g in arb_graph(),
        src_pick in any::<u32>(),
        iterations in 0u32..8,
        cap in prop_oneof![1u32..6, Just(10_000u32)],
        k in 1u16..16,
    ) {
        let p = EdgeCutPartition::hash(g.num_vertices(), k);
        let a = Params {
            source: src_pick % g.num_vertices(),
            iterations,
            max_supersteps: cap,
        };
        for ((name, got), (_, want)) in engine(&g, &p, a).into_iter().zip(reference(&g, &p, a)) {
            prop_assert_eq!(&got.0, &want.0, "{} values", name);
            prop_assert_eq!(&got.1, &want.1, "{} supersteps", name);
        }
    }
}

/// FNV-1a-64 over the debug rendering of a run.
fn digest(run: &Run) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{run:?}").bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The dg1000 BFS job's graph at 20k vertices
/// (`granula::calibration::dg_graph_small(20_000, DG_SEED)`) with uniform
/// weights for SSSP, hash-partitioned over 8 workers like the job.
fn dg_small() -> (Graph, EdgeCutPartition) {
    let g = datagen_like(&GenConfig {
        vertices: 20_000,
        edges: 180_000,
        alpha: 2.2,
        seed: 1_000,
    });
    let p = EdgeCutPartition::hash(g.num_vertices(), 8);
    (with_uniform_weights(&g, 4.0, 5), p)
}

#[test]
fn dg_small_digests_are_pinned() {
    const PINNED: [(&str, u64); 5] = [
        ("bfs", 0xcea0_8bcf_45df_451f),
        ("pagerank", 0x3cc2_23a9_2909_a1ed),
        ("wcc", 0xe31a_2690_9ddb_66cf),
        ("sssp", 0x66e4_8722_f314_f7b5),
        ("cdlp", 0x32de_724c_2022_a13a),
    ];
    let (g, p) = dg_small();
    let a = Params {
        source: 1,
        iterations: 10,
        max_supersteps: 10_000,
    };
    let hex = |ds: &[(&str, u64)]| {
        let ds: Vec<String> = ds
            .iter()
            .map(|(n, d)| format!("(\"{n}\", {d:#018x})"))
            .collect();
        ds.join(", ")
    };
    for (engine_name, runs) in [
        ("engine", engine(&g, &p, a)),
        ("oracle", reference(&g, &p, a)),
    ] {
        let got: Vec<(&str, u64)> = runs
            .iter()
            .map(|(name, run)| (*name, digest(run)))
            .collect();
        assert_eq!(
            got,
            PINNED,
            "{engine_name}: digests moved\n  got    [{}]\n  pinned [{}]",
            hex(&got),
            hex(&PINNED)
        );
    }
}
