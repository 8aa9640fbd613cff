//! Overhead of the self-observability layer (`granula-trace`).
//!
//! The tentpole claim: with tracing **compiled in but disabled** the
//! instrumented pipeline runs within 2% of its throughput — the `span!`
//! macro costs one relaxed atomic load per site and the engine's hot-loop
//! counters stay in registers until the final (skipped) flush. The
//! `enabled` group quantifies the price actually paid when a trace is
//! being collected.

use criterion::{criterion_group, criterion_main, Criterion};
use gpsim_cluster::{ActivityGraph, ActivityKind, ClusterSpec, FaultPlan, NodeId, Simulation};
use gpsim_graph::gen::{datagen_like, GenConfig};
use gpsim_platforms::{Algorithm, CostModel, Engine, GiraphPlatform, JobConfig};

/// The BSP-shaped scheduler workload: dense events, heavy span traffic in
/// the platform builders when enabled.
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

fn engine_disabled_overhead(c: &mut Criterion) {
    granula_trace::disable();
    granula_trace::reset();
    let (cluster, graph) = barrier_chain_graph(200, 16);
    let sim = Simulation::new(cluster);
    let mut g = c.benchmark_group("trace_overhead/engine");
    g.sample_size(10);
    g.bench_function("disabled", |b| b.iter(|| sim.run(&graph).unwrap()));
    g.bench_function("enabled", |b| {
        granula_trace::enable();
        b.iter(|| sim.run(&graph).unwrap());
        granula_trace::disable();
        granula_trace::reset();
    });
    g.finish();
}

fn platform_disabled_overhead(c: &mut Criterion) {
    granula_trace::disable();
    granula_trace::reset();
    let graph = datagen_like(&GenConfig::datagen(5_000, 42));
    let cfg = JobConfig::new(
        "bench-trace",
        "dg",
        Algorithm::Bfs { source: 1 },
        8,
        CostModel::giraph_like(),
    );
    let mut g = c.benchmark_group("trace_overhead/platform");
    g.sample_size(10);
    g.bench_function("disabled", |b| {
        b.iter(|| {
            Engine::Giraph(GiraphPlatform::default())
                .run(
                    &graph,
                    &cfg,
                    &ClusterSpec::das5(cfg.nodes),
                    &FaultPlan::new(),
                )
                .unwrap()
        })
    });
    g.bench_function("enabled", |b| {
        granula_trace::enable();
        b.iter(|| {
            Engine::Giraph(GiraphPlatform::default())
                .run(
                    &graph,
                    &cfg,
                    &ClusterSpec::das5(cfg.nodes),
                    &FaultPlan::new(),
                )
                .unwrap()
        });
        granula_trace::disable();
        granula_trace::reset();
    });
    g.finish();
}

criterion_group!(
    benches,
    engine_disabled_overhead,
    platform_disabled_overhead
);
criterion_main!(benches);
