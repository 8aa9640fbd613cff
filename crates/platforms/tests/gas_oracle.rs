//! The GAS engine and the greedy vertex-cut against the code they
//! replaced, kept here as the test-only oracle (the way
//! `pregel_oracle.rs` keeps the former Pregel engine).
//!
//! [`oracle`] holds the former `VertexCutPartition::greedy` verbatim (a
//! sorted `Vec<u16>` of replicas per vertex, grown by insertion) and the
//! former `gas::run` with its `owner_counts` (a `BTreeMap` of machine edge
//! counts per vertex and direction, and a fresh clone of the values every
//! iteration), plus `run_pagerank_gas`, whose program calls `run`. The
//! current partition keeps a machine bitset per vertex and a flat replica
//! CSR, and the current engine a flat per-replica count table, so the
//! property below checks on random graphs that:
//!
//! - the partition places every edge on the same machine and gives every
//!   vertex the same replicas, master and replication factor;
//! - the four GAS programs, each in both iteration modes, and
//!   `run_pagerank_gas` produce the same values (f64s by bit pattern) and
//!   the same `Vec<IterationStats>`. The PowerGraph DAG is built from
//!   those counters, so any divergence would move a makespan.
//!
//! `PROPTEST_CASES` scales the property.
//!
//! The pins hash the partition and the five algorithms' values and
//! counters on the 20k-vertex dg1000 down-sample at 8 and 32 machines.
//! They were computed with the former code; to regenerate after a change
//! that is *meant* to move them, run
//!
//! ```text
//! cargo test --release -p gpsim-platforms --test gas_oracle -- --nocapture
//! ```
//!
//! and copy the `got` digests from the failure message.

use proptest::prelude::*;

use gpsim_graph::gen::{datagen_like, with_uniform_weights, GenConfig};
use gpsim_graph::{Graph, VertexCutPartition, VertexId};
use gpsim_platforms::gas::{self, GasOutcome, IterationMode, IterationStats};

/// The former greedy vertex-cut, `gas::run` and `run_pagerank_gas`,
/// unchanged.
mod oracle {
    use std::collections::BTreeMap;

    use gpsim_graph::{Graph, VertexId};
    use gpsim_platforms::gas::{
        EdgeDir, GasOutcome, GasProgram, IterationMode, IterationStats, MachineIteration,
    };

    /// Greedy vertex-cut partitioning of edges over `k` machines
    /// (the PowerGraph heuristic).
    #[derive(Debug, Clone, PartialEq)]
    pub struct VertexCutPartition {
        /// Machine of each edge, in [`Graph::edges`] order.
        pub edge_owner: Vec<u16>,
        /// For each vertex, the sorted machines holding at least one of its
        /// edges (its replicas).
        pub replicas: Vec<Vec<u16>>,
        /// Number of machines.
        pub k: u16,
    }

    impl VertexCutPartition {
        /// Greedy placement: for each edge pick, in order of preference, (1) a
        /// machine both endpoints already live on, (2) the least-loaded machine
        /// one endpoint lives on, (3) the least-loaded machine overall.
        pub fn greedy(g: &Graph, k: u16) -> VertexCutPartition {
            assert!(k > 0, "need at least one machine");
            let n = g.num_vertices() as usize;
            let mut replicas: Vec<Vec<u16>> = vec![Vec::new(); n];
            let mut load = vec![0u64; k as usize];
            let mut edge_owner = Vec::with_capacity(g.num_edges() as usize);

            for (s, t) in g.edges() {
                let rs = &replicas[s as usize];
                let rt = &replicas[t as usize];
                let choice = common_least_loaded(rs, rt, &load)
                    .or_else(|| least_loaded_of(rs.iter().chain(rt.iter()), &load))
                    .unwrap_or_else(|| least_loaded(&load));
                edge_owner.push(choice);
                load[choice as usize] += 1;
                insert_sorted(&mut replicas[s as usize], choice);
                insert_sorted(&mut replicas[t as usize], choice);
            }
            VertexCutPartition {
                edge_owner,
                replicas,
                k,
            }
        }

        /// The master machine of a vertex: its first replica (or a hash when the
        /// vertex has no edges).
        pub fn master_of(&self, v: VertexId) -> u16 {
            self.replicas[v as usize]
                .first()
                .copied()
                .unwrap_or((mix(v) % self.k as u32) as u16)
        }

        /// Mean number of replicas per vertex (vertices with edges only) — the
        /// replication factor PowerGraph's paper optimizes.
        pub fn replication_factor(&self) -> f64 {
            let (sum, cnt) = self
                .replicas
                .iter()
                .filter(|r| !r.is_empty())
                .fold((0usize, 0usize), |(s, c), r| (s + r.len(), c + 1));
            if cnt == 0 {
                0.0
            } else {
                sum as f64 / cnt as f64
            }
        }

        /// Edges per machine.
        pub fn sizes(&self) -> Vec<u64> {
            let mut sizes = vec![0u64; self.k as usize];
            for &o in &self.edge_owner {
                sizes[o as usize] += 1;
            }
            sizes
        }
    }

    fn mix(v: u32) -> u32 {
        // Finalizer of MurmurHash3 (32-bit): cheap, well-distributed.
        let mut h = v;
        h ^= h >> 16;
        h = h.wrapping_mul(0x85eb_ca6b);
        h ^= h >> 13;
        h = h.wrapping_mul(0xc2b2_ae35);
        h ^= h >> 16;
        h
    }

    fn insert_sorted(v: &mut Vec<u16>, x: u16) {
        if let Err(pos) = v.binary_search(&x) {
            v.insert(pos, x);
        }
    }

    fn common_least_loaded(a: &[u16], b: &[u16], load: &[u64]) -> Option<u16> {
        let mut best: Option<u16> = None;
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Equal => {
                    let m = a[i];
                    if best.is_none_or(|cur| load[m as usize] < load[cur as usize]) {
                        best = Some(m);
                    }
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
            }
        }
        best
    }

    fn least_loaded_of<'a>(machines: impl Iterator<Item = &'a u16>, load: &[u64]) -> Option<u16> {
        machines.copied().min_by_key(|&m| load[m as usize])
    }

    fn least_loaded(load: &[u64]) -> u16 {
        load.iter()
            .enumerate()
            .min_by_key(|&(_, &l)| l)
            .map(|(i, _)| i as u16)
            .expect("k > 0")
    }

    /// Per-vertex `(machine, edge_count)` lists for a direction.
    fn owner_counts(g: &Graph, part: &VertexCutPartition, dir: EdgeDir) -> Vec<Vec<(u16, u32)>> {
        let n = g.num_vertices() as usize;
        let mut maps: Vec<BTreeMap<u16, u32>> = vec![BTreeMap::new(); n];
        for (e, (u, v)) in g.edges().enumerate() {
            let owner = part.edge_owner[e];
            match dir {
                EdgeDir::In => *maps[v as usize].entry(owner).or_insert(0) += 1,
                EdgeDir::Out => *maps[u as usize].entry(owner).or_insert(0) += 1,
                EdgeDir::Both => {
                    *maps[v as usize].entry(owner).or_insert(0) += 1;
                    *maps[u as usize].entry(owner).or_insert(0) += 1;
                }
            }
        }
        maps.into_iter().map(|m| m.into_iter().collect()).collect()
    }

    /// Executes a GAS program.
    pub fn run<P: GasProgram>(
        g: &Graph,
        part: &VertexCutPartition,
        program: &mut P,
        mode: IterationMode,
    ) -> GasOutcome<P::Value> {
        let n = g.num_vertices() as usize;
        let k = part.k as usize;
        let mut values: Vec<P::Value> =
            (0..n as u32).map(|v| program.initial_value(v, g)).collect();
        let gather_counts = owner_counts(g, part, program.gather_dir());
        let scatter_counts = owner_counts(g, part, program.scatter_dir());

        let (max_iters, fixed) = match mode {
            IterationMode::Fixed(i) => (i, true),
            IterationMode::Converge { max } => (max, false),
        };
        let mut active: Vec<bool> = if fixed {
            vec![true; n]
        } else {
            (0..n as u32).map(|v| program.initially_active(v)).collect()
        };

        let mut stats = Vec::new();
        for iteration in 0..max_iters {
            if !fixed && !active.iter().any(|&a| a) {
                break;
            }
            program.pre_iteration(iteration, &values, g);
            let mut per_machine = vec![MachineIteration::default(); k];
            let mut sync_matrix = vec![vec![0u64; k]; k];
            let mut next_values = values.clone();
            let mut next_active = vec![false; n];
            let mut active_vertices = 0u64;

            for v in 0..n as u32 {
                if !active[v as usize] {
                    continue;
                }
                active_vertices += 1;
                let vi = v as usize;
                let master = part.master_of(v) as usize;

                // Gather: fold over the gather-direction edges, reading the
                // snapshot `values`.
                let mut acc: Option<P::Accum> = None;
                let dir = program.gather_dir();
                if matches!(dir, EdgeDir::In | EdgeDir::Both) {
                    let ins = g.in_neighbors(v);
                    for (i, &u) in ins.iter().enumerate() {
                        let w = g.in_edge_weights(v).map_or(1.0, |ws| ws[i]);
                        if let Some(c) = program.gather(v, u, &values[u as usize], w) {
                            acc = Some(match acc {
                                None => c,
                                Some(prev) => program.merge(prev, c),
                            });
                        }
                    }
                }
                if matches!(dir, EdgeDir::Out | EdgeDir::Both) {
                    let outs = g.neighbors(v);
                    for (i, &u) in outs.iter().enumerate() {
                        let w = g.edge_weights(v).map_or(1.0, |ws| ws[i]);
                        if let Some(c) = program.gather(v, u, &values[u as usize], w) {
                            acc = Some(match acc {
                                None => c,
                                Some(prev) => program.merge(prev, c),
                            });
                        }
                    }
                }

                // Account gather work on the machines owning the edges, and the
                // partial-sync traffic mirror -> master.
                for &(m, cnt) in &gather_counts[vi] {
                    per_machine[m as usize].gather_edges += cnt as u64;
                    if m as usize != master {
                        per_machine[m as usize].sync_sent += 1;
                        per_machine[master].sync_received += 1;
                        sync_matrix[m as usize][master] += 1;
                    }
                }

                // Apply at the master.
                per_machine[master].apply_vertices += 1;
                let changed = program.apply(v, &mut next_values[vi], acc, iteration);

                // Value sync master -> mirrors (every replica gets the new value).
                for &m in &part.replicas[vi] {
                    if m as usize != master {
                        per_machine[master].sync_sent += 1;
                        per_machine[m as usize].sync_received += 1;
                        sync_matrix[master][m as usize] += 1;
                    }
                }

                // Scatter: activate neighbours when the value changed.
                if changed || fixed {
                    for &(m, cnt) in &scatter_counts[vi] {
                        per_machine[m as usize].scatter_edges += cnt as u64;
                    }
                }
                if changed && !fixed {
                    let dir = program.scatter_dir();
                    if matches!(dir, EdgeDir::Out | EdgeDir::Both) {
                        for &t in g.neighbors(v) {
                            next_active[t as usize] = true;
                        }
                    }
                    if matches!(dir, EdgeDir::In | EdgeDir::Both) {
                        for &t in g.in_neighbors(v) {
                            next_active[t as usize] = true;
                        }
                    }
                }
            }

            values = next_values;
            if !fixed {
                active = next_active;
            }
            stats.push(IterationStats {
                iteration,
                per_machine,
                sync_matrix,
                active_vertices,
            });
        }

        GasOutcome {
            values,
            iterations: stats,
        }
    }

    /// PageRank as fixed-iteration GAS with dangling redistribution. The gather
    /// needs each in-neighbour's out-degree, which the program reads from a
    /// borrowed graph, so the implementation lives in a local type.
    pub fn run_pagerank_gas(
        g: &Graph,
        part: &VertexCutPartition,
        iterations: u32,
        damping: f64,
    ) -> GasOutcome<f64> {
        struct Inner<'a> {
            g: &'a Graph,
            damping: f64,
            dangling: f64,
        }
        impl GasProgram for Inner<'_> {
            type Value = f64;
            type Accum = f64;
            fn initial_value(&self, _v: VertexId, g: &Graph) -> f64 {
                1.0 / g.num_vertices() as f64
            }
            fn initially_active(&self, _v: VertexId) -> bool {
                true
            }
            fn gather_dir(&self) -> EdgeDir {
                EdgeDir::In
            }
            fn scatter_dir(&self) -> EdgeDir {
                EdgeDir::Out
            }
            fn gather(&self, _v: VertexId, other: VertexId, val: &f64, _w: f32) -> Option<f64> {
                let deg = self.g.out_degree(other);
                (deg > 0).then(|| val / deg as f64)
            }
            fn merge(&self, a: f64, b: f64) -> f64 {
                a + b
            }
            fn apply(&self, _v: VertexId, value: &mut f64, acc: Option<f64>, _i: u32) -> bool {
                let n = self.g.num_vertices() as f64;
                *value = (1.0 - self.damping) / n
                    + self.damping * self.dangling / n
                    + self.damping * acc.unwrap_or(0.0);
                true
            }
            fn pre_iteration(&mut self, _i: u32, values: &[f64], g: &Graph) {
                self.dangling = (0..g.num_vertices())
                    .filter(|&v| g.out_degree(v) == 0)
                    .map(|v| values[v as usize])
                    .sum();
            }
        }
        let mut p = Inner {
            g,
            damping,
            dangling: 0.0,
        };
        run(g, part, &mut p, IterationMode::Fixed(iterations))
    }
}

/// Source, fixed-mode iteration count and converge-mode cap shared by the
/// runs.
#[derive(Debug, Clone, Copy)]
struct Params {
    source: VertexId,
    iterations: u32,
    max_iterations: u32,
}

/// Values as comparable words (f64s by bit pattern) plus the counters.
type Run = (Vec<u64>, Vec<IterationStats>);

fn words<V: Copy>(out: GasOutcome<V>, word: impl Fn(V) -> u64) -> Run {
    (out.values.into_iter().map(word).collect(), out.iterations)
}

/// The partition as comparable data: edge owners, then per vertex its
/// replicas and master, then the replication factor's bits and the sizes.
type Layout = (Vec<u16>, Vec<(Vec<u16>, u16)>, u64, Vec<u64>);

/// BFS, WCC, SSSP and CDLP through `$engine::run` in both iteration
/// modes, plus `$engine::run_pagerank_gas`. `$replicas` lists a vertex's
/// replicas.
macro_rules! runs {
    ($engine:ident, $g:expr, $p:expr, $a:expr, $replicas:expr) => {{
        let (g, p, a) = ($g, $p, $a);
        let layout: Layout = (
            p.edge_owner.clone(),
            (0..g.num_vertices())
                .map(|v| ($replicas(p, v), p.master_of(v)))
                .collect(),
            p.replication_factor().to_bits(),
            p.sizes(),
        );
        let source = a.source;
        let modes = [
            (
                "converge",
                IterationMode::Converge {
                    max: a.max_iterations,
                },
            ),
            ("fixed", IterationMode::Fixed(a.iterations)),
        ];
        let mut runs: Vec<(String, Run)> = Vec::new();
        for (mode_name, mode) in modes {
            let name = |alg: &str| format!("{alg}/{mode_name}");
            let bfs = $engine::run(g, p, &mut gas::BfsGas { source }, mode);
            runs.push((name("bfs"), words(bfs, u64::from)));
            let wcc = $engine::run(g, p, &mut gas::WccGas, mode);
            runs.push((name("wcc"), words(wcc, u64::from)));
            let sssp = $engine::run(g, p, &mut gas::SsspGas { source }, mode);
            runs.push((name("sssp"), words(sssp, f64::to_bits)));
            let cdlp = $engine::run(g, p, &mut gas::CdlpGas, mode);
            runs.push((name("cdlp"), words(cdlp, u64::from)));
        }
        let pagerank = $engine::run_pagerank_gas(g, p, a.iterations, 0.85);
        runs.push(("pagerank".to_string(), words(pagerank, f64::to_bits)));
        (layout, runs)
    }};
}

fn engine(g: &Graph, k: u16, a: Params) -> (Layout, Vec<(String, Run)>) {
    let p = &VertexCutPartition::greedy(g, k);
    runs!(gas, g, p, a, |p: &VertexCutPartition, v| p
        .replicas(v)
        .to_vec())
}

fn reference(g: &Graph, k: u16, a: Params) -> (Layout, Vec<(String, Run)>) {
    let p = &oracle::VertexCutPartition::greedy(g, k);
    runs!(oracle, g, p, a, |p: &oracle::VertexCutPartition, v| p
        .replicas[v as usize]
        .clone())
}

/// Graphs with self-loops, duplicate edges and isolated vertices, half of
/// them weighted. One in six has at most two edges, so edgeless graphs
/// come up; two in six are dense (up to 40 vertices, 160 edges); one in
/// six is sparse and wide (up to 400 vertices). Two in six are spread over
/// many machines: vertex `i < h` has one edge, to `h + i`, so the first
/// `h` edges (65 to 199) each open the least-loaded machine, and every
/// other edge joins two of the targets, so that placements meet on shared
/// machines above 63, in the second word of a vertex's bitset.
fn arb_graph() -> impl Strategy<Value = Graph> {
    let edge = (0u32..400, 0u32..400, 0u32..8);
    let graph = |n: std::ops::Range<u32>, edges: std::ops::Range<usize>| {
        (n, prop::collection::vec(edge.clone(), edges))
    };
    let spread = graph(65..200, 0..600).prop_map(|(h, extra)| {
        let matching = (0..h).map(|i| (i, h + i, 0));
        let extra = extra.into_iter().map(|(a, b, w)| (h + a % h, h + b % h, w));
        (2 * h, matching.chain(extra).collect::<Vec<_>>())
    });
    let shape = prop_oneof![
        1 => graph(1..40, 0..3),
        2 => graph(1..40, 0..160),
        1 => graph(100..400, 0..400),
        2 => spread,
    ];
    (shape, any::<bool>()).prop_map(|((n, edges), weighted)| {
        let (edges, weights): (Vec<(u32, u32)>, Vec<f32>) = edges
            .into_iter()
            .map(|(a, b, w)| ((a % n, b % n), 0.5 * w as f32 + 0.25))
            .unzip();
        Graph::from_edges_weighted(n, &edges, weighted.then_some(&weights[..]))
    })
}

proptest! {
    /// The partition and, for every program and iteration mode, the values
    /// and every per-iteration counter equal the oracle's. A cap of 400
    /// outlasts every BFS, WCC and SSSP on fewer than 400 vertices; CDLP in
    /// converge mode can oscillate and stops at it.
    #[test]
    fn engine_matches_oracle(
        g in arb_graph(),
        src_pick in any::<u32>(),
        iterations in 0u32..8,
        cap in prop_oneof![1u32..6, Just(400u32)],
        k in prop_oneof![2 => 1u16..=63, 1 => 64u16..=70],
    ) {
        let a = Params {
            source: src_pick % g.num_vertices(),
            iterations,
            max_iterations: cap,
        };
        let (got_layout, got) = engine(&g, k, a);
        let (want_layout, want) = reference(&g, k, a);
        prop_assert_eq!(got_layout, want_layout, "partition");
        for ((name, got), (_, want)) in got.into_iter().zip(want) {
            prop_assert_eq!(&got.0, &want.0, "{} values", name);
            prop_assert_eq!(&got.1, &want.1, "{} iterations", name);
        }
    }
}

/// FNV-1a-64 over the debug rendering of a value.
fn digest(x: &impl std::fmt::Debug) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{x:?}").bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The dg1000 BFS job's graph at 20k vertices
/// (`granula::calibration::dg_graph_small(20_000, DG_SEED)`) with uniform
/// weights for SSSP.
fn dg_small() -> Graph {
    let g = datagen_like(&GenConfig {
        vertices: 20_000,
        edges: 180_000,
        alpha: 2.2,
        seed: 1_000,
    });
    with_uniform_weights(&g, 4.0, 5)
}

/// Digests of the partition and of each run, in [`runs!`] order.
fn digests(layout: &Layout, runs: &[(String, Run)]) -> Vec<(String, u64)> {
    let mut out = vec![("partition".to_string(), digest(layout))];
    out.extend(runs.iter().map(|(name, run)| (name.clone(), digest(run))));
    out
}

#[test]
fn dg_small_digests_are_pinned() {
    const PINNED: [(u16, [(&str, u64); 10]); 2] = [
        (
            8,
            [
                ("partition", 0xe26e_b7eb_4188_8c83),
                ("bfs/converge", 0x6e8e_0c06_790d_d990),
                ("wcc/converge", 0xec94_1bff_d5df_1e44),
                ("sssp/converge", 0x764f_4f09_376e_c9de),
                ("cdlp/converge", 0x5765_b909_92b9_c324),
                ("bfs/fixed", 0x8626_8bc9_8058_3d36),
                ("wcc/fixed", 0x250b_a578_c686_b6f4),
                ("sssp/fixed", 0x33b6_4d14_d629_81d7),
                ("cdlp/fixed", 0xd3a8_fd94_5c1d_0aac),
                ("pagerank", 0x0f16_0863_43a5_bf29),
            ],
        ),
        (
            32,
            [
                ("partition", 0x0a84_905b_fb70_2377),
                ("bfs/converge", 0xfa07_9f0a_c536_efcc),
                ("wcc/converge", 0x7e5b_11d0_fd81_3b0a),
                ("sssp/converge", 0xd77d_29c7_1a4d_dc74),
                ("cdlp/converge", 0xcefb_e444_be22_f1ca),
                ("bfs/fixed", 0x8fbb_6376_5a0a_a2ee),
                ("wcc/fixed", 0x1025_8468_3892_2cc0),
                ("sssp/fixed", 0xb39d_58fd_1bfb_aad7),
                ("cdlp/fixed", 0x4643_ef53_6246_ee58),
                ("pagerank", 0xa239_d4c3_3d42_0321),
            ],
        ),
    ];
    let g = dg_small();
    let a = Params {
        source: 1,
        iterations: 10,
        max_iterations: 10_000,
    };
    let hex = |ds: &[(String, u64)]| {
        let ds: Vec<String> = ds
            .iter()
            .map(|(n, d)| format!("(\"{n}\", {d:#018x})"))
            .collect();
        ds.join(", ")
    };
    for (k, pinned) in PINNED {
        let pinned: Vec<(String, u64)> = pinned.iter().map(|&(n, d)| (n.to_string(), d)).collect();
        let (layout, runs) = engine(&g, k, a);
        let (want_layout, want_runs) = reference(&g, k, a);
        for (engine_name, got) in [
            ("engine", digests(&layout, &runs)),
            ("oracle", digests(&want_layout, &want_runs)),
        ] {
            assert_eq!(
                got,
                pinned,
                "{engine_name}, k = {k}: digests moved\n  got    [{}]\n  pinned [{}]",
                hex(&got),
                hex(&pinned)
            );
        }
    }
}
