//! Criterion benches of the graph substrate and the platform engines:
//! generation, partitioning, and distributed-algorithm emulation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use gpsim_graph::gen::{datagen_like, GenConfig};
use gpsim_graph::{algos, EdgeCutPartition, VertexCutPartition};
use gpsim_platforms::gas::{self, BfsGas, IterationMode};
use gpsim_platforms::pregel::{self, BfsProgram, PageRankProgram};

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("datagen_like");
    group.sample_size(10);
    for &n in &[10_000u32, 50_000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| black_box(datagen_like(&GenConfig::datagen(n, 7)).num_edges()))
        });
    }
    group.finish();
}

fn bench_partitioning(c: &mut Criterion) {
    let g = datagen_like(&GenConfig::datagen(50_000, 7));
    c.bench_function("edge_cut_hash_450k_edges", |b| {
        b.iter(|| black_box(EdgeCutPartition::hash(g.num_vertices(), 8).cut_edges(&g)))
    });
    let mut group = c.benchmark_group("vertex_cut_greedy");
    group.sample_size(10);
    group.bench_function("450k_edges", |b| {
        b.iter(|| black_box(VertexCutPartition::greedy(&g, 8).replication_factor()))
    });
    let fig5 = datagen_like(&GenConfig::datagen(100_000, 1_000));
    group.bench_function("900k_edges", |b| {
        b.iter(|| black_box(VertexCutPartition::greedy(&fig5, 8).replication_factor()))
    });
    group.finish();
}

fn bench_reference_algos(c: &mut Criterion) {
    let g = datagen_like(&GenConfig::datagen(50_000, 7));
    c.bench_function("reference_bfs_450k", |b| {
        b.iter(|| black_box(algos::bfs(&g, 1)[100]))
    });
    c.bench_function("reference_pagerank10_450k", |b| {
        b.iter(|| black_box(algos::pagerank(&g, 10, 0.85)[100]))
    });
    c.bench_function("reference_wcc_450k", |b| {
        b.iter(|| black_box(algos::wcc(&g)[100]))
    });
}

fn bench_pregel_engine(c: &mut Criterion) {
    let g = datagen_like(&GenConfig::datagen(50_000, 7));
    let part = EdgeCutPartition::hash(g.num_vertices(), 8);
    let mut group = c.benchmark_group("pregel_engine");
    group.sample_size(10);
    group.bench_function("bfs_450k", |b| {
        b.iter(|| {
            let out = pregel::run(&g, &part, &BfsProgram { source: 1 }, 10_000);
            black_box(out.supersteps.len())
        })
    });
    group.bench_function("pagerank10_450k", |b| {
        b.iter(|| {
            let out = pregel::run(
                &g,
                &part,
                &PageRankProgram {
                    iterations: 10,
                    damping: 0.85,
                },
                10_000,
            );
            black_box(out.values[100])
        })
    });
    group.finish();
}

/// PowerGraph's BFS on the fig5 graph (dg1000 down-sampled to 100k
/// vertices, 900k edges) over 8 machines.
fn bench_gas_engine(c: &mut Criterion) {
    let g = datagen_like(&GenConfig::datagen(100_000, 1_000));
    let part = VertexCutPartition::greedy(&g, 8);
    let mut group = c.benchmark_group("gas_bfs");
    group.sample_size(10);
    group.bench_function("900k_edges", |b| {
        b.iter(|| {
            let mode = IterationMode::Converge { max: 10_000 };
            let out = gas::run(&g, &part, &mut BfsGas { source: 1 }, mode);
            black_box(out.iterations.len())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_generation,
    bench_partitioning,
    bench_gas_engine,
    bench_reference_algos,
    bench_pregel_engine
);
criterion_main!(benches);
