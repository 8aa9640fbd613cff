//! Pins the simulator's schedule and usage trace bit for bit on platform
//! DAGs:
//!
//! - GRAPE (hash edge-cut) PageRank-10 on the 20k-vertex matrix graph over
//!   32 nodes, the widest point of the choke matrix (10 425 activities);
//! - fig5's Giraph BFS on dg1000 over 8 nodes (1 157 activities);
//! - every job of perfbench's matrix32 workload: the five choke-matrix
//!   rows (Giraph, PowerGraph, GRAPE hash and block edge-cut, GraphX) ×
//!   {BFS, PageRank-10} on the 20k-vertex matrix graph over 32 nodes.
//!
//! The schedule digest hashes every activity's `start_us` and `end_us` bits
//! in id order; the usage digest hashes every bucket of every
//! `(channel, node)` series of the [`UsageTrace`]. Any change to the rate
//! solver or the event loop that moves a single low bit of a single
//! activity, or of a single usage bucket, fails here, even when every
//! rounded makespan and golden render stays the same.
//!
//! To regenerate after a change that is *meant* to move the schedule,
//! run
//!
//! ```text
//! cargo test --release --test sim_digest -- --nocapture
//! ```
//!
//! and copy the `got` digest from the failure message into the pinned
//! constant.

use gpsim_cluster::trace::Channel;
use gpsim_cluster::{ActivityGraph, ClusterSpec, NodeId, SimResult, Simulation, UsageTrace};
use gpsim_platforms::{Algorithm, Engine, GrapePartitioner, GrapePlatform};
use granula::calibration;
use granula::experiment::Platform;

/// Digest of the GRAPE schedule, computed before the shared water-filling
/// rate kernel replaced the two progressive-filling loops.
const PINNED_DIGEST: u64 = 0xc890_1c13_055d_f1e4;

/// Digest of the fig5 Giraph schedule on the incremental engine.
const PINNED_FIG5_GIRAPH_DIGEST: u64 = 0x0001_d035_8503_61ab;

/// Usage-trace digests of the same two runs, pinned on the engine that
/// re-filled every refill wave from scratch.
const PINNED_USAGE_DIGEST: u64 = 0xe369_7d87_b0bc_d97a;
const PINNED_FIG5_GIRAPH_USAGE_DIGEST: u64 = 0xb0d8_1221_409e_4f8e;

/// FNV-1a-64 step over the little-endian bytes of one word.
fn fnv(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// FNV-1a over the little-endian bytes of every activity's start and end.
fn schedule_digest(res: &SimResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in &res.results {
        fnv(&mut h, r.start_us.to_bits());
        fnv(&mut h, r.end_us.to_bits());
    }
    h
}

/// FNV-1a over every usage series, channel-major then node, each
/// prefixed by its length: every bucket's bits in time order.
fn usage_digest(trace: &UsageTrace) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for ch in [Channel::Cpu, Channel::Disk, Channel::NetIn, Channel::NetOut] {
        for node in 0..trace.node_names().len() {
            let series = trace.series(ch, NodeId(node as u16));
            fnv(&mut h, series.len() as u64);
            for (t, v) in series {
                fnv(&mut h, t);
                fnv(&mut h, v.to_bits());
            }
        }
    }
    h
}

/// Simulates `dag` and checks both digests against the pinned pair.
fn assert_pinned(name: &str, cluster: ClusterSpec, dag: &ActivityGraph, pinned: (u64, u64)) {
    let res = Simulation::new(cluster).run(dag).unwrap();
    let got = (schedule_digest(&res), usage_digest(&res.trace));
    assert_eq!(
        got,
        pinned,
        "{name} ({} activities): (schedule, usage) digests moved: got ({:#018x}, {:#018x}), \
         pinned ({:#018x}, {:#018x})",
        dag.len(),
        got.0,
        got.1,
        pinned.0,
        pinned.1
    );
}

#[test]
fn grape_pagerank_at_32_nodes_schedules_bit_identically() {
    let (graph, scale) = calibration::dg_graph_small(20_000, calibration::DG_SEED);
    let mut cfg = Platform::Grape.dg1000_job();
    cfg.algorithm = Algorithm::PageRank { iterations: 10 };
    cfg.nodes = 32;
    cfg.scale_factor = scale;
    let cluster = ClusterSpec::das5(cfg.nodes);
    let grape = grape(GrapePartitioner::Hash).healthy_dag(&graph, &cfg, &cluster);

    let graph = calibration::dg_graph();
    let cfg = Platform::Giraph.dg1000_job();
    let fig5_cluster = ClusterSpec::das5(cfg.nodes);
    let giraph = Platform::Giraph
        .engine()
        .healthy_dag(&graph, &cfg, &fig5_cluster);

    assert_pinned(
        "grape pagerank 32 nodes",
        cluster,
        &grape,
        (PINNED_DIGEST, PINNED_USAGE_DIGEST),
    );
    assert_pinned(
        "fig5 giraph bfs",
        fig5_cluster,
        &giraph,
        (PINNED_FIG5_GIRAPH_DIGEST, PINNED_FIG5_GIRAPH_USAGE_DIGEST),
    );
}

/// (schedule, usage) digests of the matrix32 jobs, BFS from vertex 1
/// then PageRank-10 per row, pinned on the engine that re-filled every
/// refill wave from scratch.
const PINNED_MATRIX32_GIRAPH: [(u64, u64); 2] = [
    (0xf11b_3aa2_84d9_6d2a, 0x272c_2d33_b5f7_b36c),
    (0x9797_e83b_a6c2_1c6f, 0x89ab_b5eb_8c52_6e18),
];
const PINNED_MATRIX32_POWERGRAPH: [(u64, u64); 2] = [
    (0xf34f_3cfb_c7f6_d97e, 0x0ded_7c4e_0b79_52ea),
    (0x6b50_e524_0c7c_84aa, 0xb838_11e6_94ce_60d4),
];
const PINNED_MATRIX32_GRAPE_HASH: [(u64, u64); 2] = [
    (0x0f4e_d74d_c30e_fe85, 0x44b2_4336_678e_f524),
    (0xc890_1c13_055d_f1e4, 0xe369_7d87_b0bc_d97a),
];
const PINNED_MATRIX32_GRAPE_BLOCK: [(u64, u64); 2] = [
    (0x2be0_f02e_d163_53e8, 0x1332_3711_9a9e_894e),
    (0xc6b4_aa01_c3ce_5f5e, 0x83f7_dc07_beba_681b),
];
const PINNED_MATRIX32_GRAPHX: [(u64, u64); 2] = [
    (0xb816_3d73_b382_0e5c, 0xdc38_3386_a071_9ee0),
    (0xbb33_ae4f_b99d_335b, 0xdec9_d397_81f1_38ce),
];

/// The GRAPE engine under `partitioner`.
fn grape(partitioner: GrapePartitioner) -> Engine {
    Engine::Grape(GrapePlatform {
        partitioner,
        ..GrapePlatform::default()
    })
}

/// Runs one matrix32 row, BFS then PageRank-10, configured as
/// perfbench's `matrix32_jobs` configures it, and checks its digests.
fn matrix32_row(engine: &Engine, label: &str, pinned: [(u64, u64); 2]) {
    let platform = Platform::of(engine);
    let (graph, scale) = calibration::dg_graph_small(20_000, calibration::DG_SEED);
    let algorithms = [
        Algorithm::Bfs { source: 1 },
        Algorithm::PageRank { iterations: 10 },
    ];
    for (algorithm, pinned) in algorithms.into_iter().zip(pinned) {
        let mut cfg = platform.dg1000_job();
        cfg.algorithm = algorithm;
        cfg.nodes = 32;
        cfg.scale_factor = scale;
        cfg.job_id = format!(
            "matrix32-{}-{label}-{}",
            platform.name().to_lowercase(),
            algorithm.name().to_lowercase()
        );
        let cluster = ClusterSpec::das5(cfg.nodes);
        let dag = engine.healthy_dag(&graph, &cfg, &cluster);
        assert_pinned(&cfg.job_id, cluster, &dag, pinned);
    }
}

#[test]
fn matrix32_giraph_schedules_bit_identically() {
    let engine = Platform::Giraph.engine();
    matrix32_row(&engine, "hash-ec", PINNED_MATRIX32_GIRAPH);
}

#[test]
fn matrix32_powergraph_schedules_bit_identically() {
    let engine = Platform::PowerGraph.engine();
    matrix32_row(&engine, "greedy-vc", PINNED_MATRIX32_POWERGRAPH);
}

#[test]
fn matrix32_grape_schedules_bit_identically() {
    for (partitioner, pinned) in [
        (GrapePartitioner::Hash, PINNED_MATRIX32_GRAPE_HASH),
        (GrapePartitioner::Block, PINNED_MATRIX32_GRAPE_BLOCK),
    ] {
        matrix32_row(&grape(partitioner), partitioner.name(), pinned);
    }
}

#[test]
fn matrix32_graphx_schedules_bit_identically() {
    let engine = Platform::GraphX.engine();
    matrix32_row(&engine, "hash-ec", PINNED_MATRIX32_GRAPHX);
}
