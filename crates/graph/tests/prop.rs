//! Property-based tests of the graph substrate: CSR consistency, algorithm
//! invariants, partitioning guarantees, and the Datagen sampler against
//! rand's `WeightedIndex`, its oracle.

use proptest::prelude::*;
use rand::distributions::{Distribution, WeightedIndex};
use rand::rngs::StdRng;
use rand::SeedableRng;

use gpsim_graph::gen::{
    datagen_like, datagen_like_full, popularity_weights, uniform, with_uniform_weights, GenConfig,
    WeightedSampler,
};
use gpsim_graph::{algos, EdgeCutPartition, Graph, VertexCutPartition};

fn arb_edges() -> impl Strategy<Value = (u32, Vec<(u32, u32)>)> {
    edges_up_to(80, 300)
}

/// Graphs of 2 to `max_n - 1` vertices and fewer than `max_m` edges.
fn edges_up_to(max_n: u32, max_m: usize) -> impl Strategy<Value = (u32, Vec<(u32, u32)>)> {
    (2..max_n).prop_flat_map(move |n| (Just(n), prop::collection::vec((0..n, 0..n), 0..max_m)))
}

/// Weight tables of 1–5 000 entries: about one weight in eight is zero and
/// the rest spread over 14 orders of magnitude; one-entry tables; and
/// tables of subnormal weights, whose total is a few ulps, so that draws
/// land exactly on running sums and on the total (`WeightedIndex`'s tie
/// and clamp paths). Every table has a positive weight.
fn arb_weights() -> impl Strategy<Value = Vec<f64>> {
    let spread = |len: std::ops::RangeInclusive<usize>| {
        prop::collection::vec((0u32..8, -7.0f64..7.0), len).prop_map(|ws| {
            ws.into_iter()
                .map(|(k, e)| if k == 0 { 0.0 } else { 10f64.powf(e) })
                .collect::<Vec<f64>>()
        })
    };
    prop_oneof![
        3 => spread(1..=5_000),
        3 => spread(1..=40),
        1 => (1e-3f64..1e3).prop_map(|w| vec![w]),
        2 => prop::collection::vec(0u64..4, 1..=8)
            .prop_map(|bits| bits.into_iter().map(f64::from_bits).collect::<Vec<f64>>()),
    ]
    .prop_map(|mut ws| {
        if ws.iter().all(|&w| w == 0.0) {
            let last = ws.len() - 1;
            ws[last] = f64::from_bits(1);
        }
        ws
    })
}

/// Draws `draws` indices from a `WeightedSampler` and from `WeightedIndex`
/// over the same weights, each from its own copy of one seeded RNG, and
/// returns the first draw where they disagree (draw, expected, got).
fn first_disagreement(weights: &[f64], seed: u64, draws: usize) -> Option<(usize, usize, usize)> {
    let oracle = WeightedIndex::new(weights).expect("valid weights");
    let sampler = WeightedSampler::new(weights);
    let mut a = StdRng::seed_from_u64(seed);
    let mut b = a.clone();
    (0..draws).find_map(|i| {
        let (want, got) = (oracle.sample(&mut a), sampler.sample(&mut b));
        (want != got).then_some((i, want, got))
    })
}

proptest! {
    /// The guide-table sampler returns `WeightedIndex`'s index draw for
    /// draw.
    #[test]
    fn sampler_matches_weighted_index(weights in arb_weights(), seed in any::<u64>()) {
        prop_assert_eq!(first_disagreement(&weights, seed, 4_000), None);
    }

    /// The full-scale builder yields `datagen_like`'s out-CSR.
    #[test]
    fn datagen_full_is_the_in_memory_out_csr(n in 1u32..3_000, seed in any::<u64>()) {
        let cfg = GenConfig::datagen(n, seed);
        let full = datagen_like_full(&cfg);
        let memory = datagen_like(&cfg);
        prop_assert_eq!(full.num_vertices(), n);
        prop_assert_eq!(full.num_edges(), memory.num_edges());
        for v in 0..n {
            prop_assert_eq!(full.neighbors(v), memory.neighbors(v));
        }
    }

    /// CSR construction preserves every edge in both directions.
    #[test]
    fn csr_round_trips_edges((n, edges) in arb_edges()) {
        let g = Graph::from_edges(n, &edges);
        prop_assert_eq!(g.num_edges(), edges.len() as u64);
        // Forward adjacency matches the multiset of edges.
        let mut fwd: Vec<(u32, u32)> = g.edges().collect();
        let mut expect = edges.clone();
        fwd.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(fwd, expect);
        // Degrees are consistent between directions.
        let out_sum: u64 = (0..n).map(|v| g.out_degree(v) as u64).sum();
        let in_sum: u64 = (0..n).map(|v| g.in_degree(v) as u64).sum();
        prop_assert_eq!(out_sum, g.num_edges());
        prop_assert_eq!(in_sum, g.num_edges());
        // Every in-edge mirrors an out-edge.
        for v in 0..n {
            for &u in g.in_neighbors(v) {
                prop_assert!(g.neighbors(u).contains(&v));
            }
        }
    }

    /// BFS levels satisfy the edge relaxation property and source is 0.
    #[test]
    fn bfs_levels_are_tight((n, edges) in arb_edges(), src_pick in any::<u32>()) {
        let g = Graph::from_edges(n, &edges);
        let src = src_pick % n;
        let level = algos::bfs(&g, src);
        prop_assert_eq!(level[src as usize], 0);
        for (u, v) in g.edges() {
            if level[u as usize] != u32::MAX {
                prop_assert!(level[v as usize] <= level[u as usize] + 1);
            }
        }
        // Every reached vertex (except src) has a predecessor one level up.
        for v in 0..n {
            let l = level[v as usize];
            if l != u32::MAX && v != src {
                prop_assert!(
                    g.in_neighbors(v).iter().any(|&u| level[u as usize] == l - 1),
                    "no tight predecessor for {v}"
                );
            }
        }
    }

    /// WCC labels are constant within edges and equal the component minimum.
    #[test]
    fn wcc_labels_consistent((n, edges) in arb_edges()) {
        let g = Graph::from_edges(n, &edges);
        let label = algos::wcc(&g);
        for (u, v) in g.edges() {
            prop_assert_eq!(label[u as usize], label[v as usize]);
        }
        for v in 0..n {
            prop_assert!(label[v as usize] <= v, "label must be component minimum");
        }
    }

    /// PageRank is a probability distribution for any graph.
    #[test]
    fn pagerank_is_a_distribution((n, edges) in arb_edges(), iters in 1u32..20) {
        let g = Graph::from_edges(n, &edges);
        let pr = algos::pagerank(&g, iters, 0.85);
        let sum: f64 = pr.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
        prop_assert!(pr.iter().all(|&x| x >= 0.0));
    }

    /// SSSP distances satisfy the triangle inequality over edges.
    #[test]
    fn sssp_relaxed((n, edges) in arb_edges(), src_pick in any::<u32>(), seed in any::<u64>()) {
        let g0 = Graph::from_edges(n, &edges);
        let g = with_uniform_weights(&g0, 5.0, seed);
        let src = src_pick % n;
        let dist = algos::sssp(&g, src);
        prop_assert_eq!(dist[src as usize], 0.0);
        for v in 0..n {
            let ws = g.edge_weights(v).expect("weighted");
            for (i, &t) in g.neighbors(v).iter().enumerate() {
                if dist[v as usize].is_finite() {
                    prop_assert!(
                        dist[t as usize] <= dist[v as usize] + ws[i] as f64 + 1e-9,
                        "edge ({v},{t}) not relaxed"
                    );
                }
            }
        }
    }

    /// LCC is always within [0, 1].
    #[test]
    fn lcc_in_unit_interval((n, edges) in arb_edges()) {
        let g = Graph::from_edges(n, &edges);
        for c in algos::lcc(&g) {
            prop_assert!((0.0..=1.0).contains(&c));
        }
    }

    /// Hash edge-cut: every vertex gets an owner below k; partition sizes
    /// sum to n.
    #[test]
    fn edge_cut_total(n in 1u32..5_000, k in 1u16..32) {
        let p = EdgeCutPartition::hash(n, k);
        prop_assert!(p.owner.iter().all(|&o| o < k));
        prop_assert_eq!(p.sizes().iter().sum::<u64>(), n as u64);
    }

    /// Greedy vertex-cut: every edge owned; every vertex's replicas are
    /// exactly the sorted machines of its edges, and its master is the
    /// first of them (the edge-cut hash for an isolated vertex); replication
    /// factor in [1, k]. `k` spans bitsets of one, two and three words, and
    /// graphs of up to 400 vertices open enough fresh machines to use them.
    #[test]
    fn vertex_cut_invariants((n, edges) in edges_up_to(400, 600), k in 1u16..=130) {
        let g = Graph::from_edges(n, &edges);
        let p = VertexCutPartition::greedy(&g, k);
        prop_assert_eq!(p.edge_owner.len() as u64, g.num_edges());
        let mut owners: Vec<Vec<u16>> = vec![Vec::new(); n as usize];
        for (e, (u, v)) in g.edges().enumerate() {
            let m = p.edge_owner[e];
            prop_assert!(m < k);
            owners[u as usize].push(m);
            owners[v as usize].push(m);
        }
        let hash = EdgeCutPartition::hash(n, k);
        for (v, mut want) in (0..n).zip(owners) {
            want.sort_unstable();
            want.dedup();
            prop_assert_eq!(p.replicas(v), &want[..], "replicas of {}", v);
            let master = want.first().copied().unwrap_or(hash.owner_of(v));
            prop_assert_eq!(p.master_of(v), master, "master of {}", v);
        }
        if g.num_edges() > 0 {
            prop_assert!(p.replication_factor() >= 1.0);
            prop_assert!(p.replication_factor() <= k as f64);
        }
    }
}

/// A million draws on the fig5 popularity table (100 k vertices, seed
/// 1000), the table behind every golden.
#[test]
fn sampler_matches_weighted_index_on_the_fig5_table() {
    let (weights, _) = popularity_weights(&GenConfig {
        vertices: 100_000,
        edges: 900_000,
        alpha: 2.2,
        seed: 1_000,
    });
    assert_eq!(first_disagreement(&weights, 1_000, 1_000_000), None);
}

/// Draws that equal a running sum: on a one-ulp total every draw is 0 or
/// the total, so `WeightedIndex` resolves them by its binary search and
/// its clamp to the last index.
#[test]
fn sampler_matches_weighted_index_on_exact_hits() {
    let ulp = f64::from_bits(1);
    for weights in [
        vec![ulp],
        vec![0.0, 0.0, ulp],
        vec![ulp, 0.0, 0.0],
        vec![0.0, ulp, 0.0, ulp],
    ] {
        for seed in 0..8 {
            assert_eq!(
                first_disagreement(&weights, seed, 1_000),
                None,
                "{weights:?}"
            );
        }
    }
}

/// The full-scale builder on the sizes the benchmarks and tests run.
#[test]
fn datagen_full_is_the_in_memory_out_csr_at_experiment_sizes() {
    for (n, seed) in [(20_000, 1_000), (100_000, 1_000), (50_000, 4_242)] {
        let cfg = GenConfig {
            vertices: n,
            edges: n as u64 * 9,
            alpha: 2.2,
            seed,
        };
        let (full, memory) = (datagen_like_full(&cfg), datagen_like(&cfg));
        assert_eq!(full.num_edges(), memory.num_edges());
        assert!(
            (0..n).all(|v| full.neighbors(v) == memory.neighbors(v)),
            "n={n} seed={seed}"
        );
    }
}

/// Generator sanity at a fixed size: datagen is more skewed than uniform.
#[test]
fn datagen_skew_exceeds_uniform() {
    let d = datagen_like(&GenConfig::datagen(5_000, 3));
    let u = uniform(5_000, 45_000, 3);
    let ds = gpsim_graph::DegreeStats::in_degrees(&d);
    let us = gpsim_graph::DegreeStats::in_degrees(&u);
    assert!(
        ds.gini > us.gini + 0.2,
        "datagen {} vs uniform {}",
        ds.gini,
        us.gini
    );
}
