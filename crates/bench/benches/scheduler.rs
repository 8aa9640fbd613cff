//! Scheduler microbenchmarks: the incremental engine as it runs
//! (`incremental`, `Simulation::run`, which resumes refills from the last
//! fill's trail) against the same engine filling every refill wave from
//! scratch (`scratch`, `RefillMode::Scratch`), which also scans every
//! closure in full. The gap between the two arms prices resumed refills
//! and the closure scan's early stop.
//!
//! - `wide_contention`: hundreds of readers on one saturated disk next to
//!   hundreds of unrelated computes. Every reader completion dirties only
//!   the disk's component.
//! - `barrier_chain`: long chains of supersteps joined by barriers — the
//!   BSP shape. Events are dense but components are small.
//! - `mixed`: per-node read → compute → shuffle rounds at 8 and 32 nodes,
//!   the simulator's steady-state diet.
//! - `matrix32`: the ten platform DAGs of perfbench's matrix32 workload
//!   (five choke-matrix rows × {BFS, PageRank-10} on the 20k-vertex matrix
//!   graph over 32 nodes), all ten per iteration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpsim_cluster::{
    ActivityGraph, ActivityKind, ClusterSpec, FaultPlan, NodeId, RefillMode, Simulation,
};
use gpsim_platforms::{Algorithm, Engine, GrapePartitioner, GrapePlatform};
use granula::calibration;
use granula::experiment::Platform;

/// 32 nodes; node 0 serves `readers` disk reads with well-separated sizes
/// while every other node runs 32 long computes.
fn wide_contention_graph(readers: usize) -> (ClusterSpec, ActivityGraph) {
    let cluster = ClusterSpec::das5(32);
    let mut g = ActivityGraph::new();
    for i in 0..readers {
        g.add(
            ActivityKind::DiskRead {
                node: NodeId(0),
                bytes: 1e6 * (1.0 + 0.37 * i as f64),
            },
            &[],
            format!("read/{i}"),
        );
    }
    for node in 1..32u16 {
        for k in 0..32 {
            g.add(
                ActivityKind::Compute {
                    node: NodeId(node),
                    work_core_us: 2e9 + 1e6 * k as f64,
                    parallelism: 1,
                },
                &[],
                format!("work/{node}/{k}"),
            );
        }
    }
    (cluster, g)
}

/// `rounds` supersteps of `width` computes on 8 nodes, each round joined
/// by a barrier before the next starts.
fn barrier_chain_graph(rounds: usize, width: usize) -> (ClusterSpec, ActivityGraph) {
    let cluster = ClusterSpec::das5(8);
    let mut g = ActivityGraph::new();
    let mut gate = None;
    for round in 0..rounds {
        let deps: Vec<_> = gate.into_iter().collect();
        let steps: Vec<_> = (0..width)
            .map(|w| {
                g.add(
                    ActivityKind::Compute {
                        node: NodeId((w % 8) as u16),
                        work_core_us: 1e5 * (1.0 + 0.1 * w as f64),
                        parallelism: 4,
                    },
                    &deps,
                    format!("step/{round}/{w}"),
                )
            })
            .collect();
        gate = Some(g.barrier(&steps, format!("sync/{round}")));
    }
    (cluster, g)
}

/// Per-node read → compute → shuffle-to-next-node rounds: CPU, disk, and
/// NIC all active at once.
fn mixed_graph(nodes: u16, rounds: usize) -> (ClusterSpec, ActivityGraph) {
    let cluster = ClusterSpec::das5(nodes);
    let mut g = ActivityGraph::new();
    let mut gate = None;
    for round in 0..rounds {
        let deps: Vec<_> = gate.into_iter().collect();
        let mut joins = Vec::new();
        for node in 0..nodes {
            let read = g.add(
                ActivityKind::DiskRead {
                    node: NodeId(node),
                    bytes: 4e6 * (1.0 + 0.05 * node as f64),
                },
                &deps,
                format!("read/{round}/{node}"),
            );
            let work = g.add(
                ActivityKind::Compute {
                    node: NodeId(node),
                    work_core_us: 8e5,
                    parallelism: 8,
                },
                &[read],
                format!("work/{round}/{node}"),
            );
            let ship = g.add(
                ActivityKind::Transfer {
                    src: NodeId(node),
                    dst: NodeId((node + 1) % nodes),
                    bytes: 2e6,
                },
                &[work],
                format!("ship/{round}/{node}"),
            );
            joins.push(ship);
        }
        gate = Some(g.barrier(&joins, format!("sync/{round}")));
    }
    (cluster, g)
}

fn bench_engines(
    c: &mut Criterion,
    group: &str,
    param: impl std::fmt::Display,
    cluster: &ClusterSpec,
    graph: &ActivityGraph,
) {
    let sim = Simulation::new(cluster.clone());
    let mut g = c.benchmark_group(group);
    g.sample_size(10);
    g.bench_with_input(
        BenchmarkId::new("incremental", &param),
        graph,
        |b, graph| b.iter(|| sim.run(graph).unwrap()),
    );
    g.bench_with_input(BenchmarkId::new("scratch", &param), graph, |b, graph| {
        b.iter(|| {
            sim.run_refills(graph, &FaultPlan::default(), RefillMode::Scratch)
                .unwrap()
        })
    });
    g.finish();
}

fn wide_contention(c: &mut Criterion) {
    for readers in [64usize, 256] {
        let (cluster, graph) = wide_contention_graph(readers);
        bench_engines(c, "wide_contention", readers, &cluster, &graph);
    }
}

fn barrier_chain(c: &mut Criterion) {
    let (cluster, graph) = barrier_chain_graph(200, 16);
    bench_engines(c, "barrier_chain", "200x16", &cluster, &graph);
}

fn mixed(c: &mut Criterion) {
    for nodes in [8u16, 32] {
        let (cluster, graph) = mixed_graph(nodes, 40);
        bench_engines(c, "mixed", format!("{nodes}nodes"), &cluster, &graph);
    }
}

/// The matrix32 DAGs at the default seed, configured as perfbench's
/// `matrix32_jobs` configures them.
fn matrix32_dags(cluster: &ClusterSpec) -> Vec<ActivityGraph> {
    let (graph, scale) = calibration::dg_graph_small(20_000, calibration::DG_SEED);
    let grape = |partitioner| {
        Engine::Grape(GrapePlatform {
            partitioner,
            ..GrapePlatform::default()
        })
    };
    let rows = [
        Platform::Giraph.engine(),
        Platform::PowerGraph.engine(),
        grape(GrapePartitioner::Hash),
        grape(GrapePartitioner::Block),
        Platform::GraphX.engine(),
    ];
    let mut dags = Vec::new();
    for engine in rows {
        for algorithm in [
            Algorithm::Bfs { source: 1 },
            Algorithm::PageRank { iterations: 10 },
        ] {
            let mut cfg = Platform::of(&engine).dg1000_job();
            (cfg.algorithm, cfg.nodes, cfg.scale_factor) = (algorithm, 32, scale);
            dags.push(engine.healthy_dag(&graph, &cfg, cluster));
        }
    }
    dags
}

fn matrix32(c: &mut Criterion) {
    let cluster = ClusterSpec::das5(32);
    let dags = matrix32_dags(&cluster);
    let sim = Simulation::new(cluster);
    let mut g = c.benchmark_group("matrix32");
    g.sample_size(10);
    for (arm, mode) in [
        ("incremental", RefillMode::Resume),
        ("scratch", RefillMode::Scratch),
    ] {
        g.bench_with_input(BenchmarkId::new(arm, "10dags"), &dags, |b, dags| {
            b.iter(|| {
                for dag in dags {
                    sim.run_refills(dag, &FaultPlan::default(), mode).unwrap();
                }
            })
        });
    }
    g.finish();
}

criterion_group!(benches, wide_contention, barrier_chain, mixed, matrix32);
criterion_main!(benches);
