//! The scale sweep behind the full-scale dg1000 claim: the incremental
//! engine ([`Simulation::run`]) on island-structured DAGs from 1 k to 5 M
//! activities over a 256-node cluster.
//!
//! Islands mirror what platform drivers emit: bursts of concurrent
//! same-node work (loaders, compute threads, spills) joined by barriers.
//! The engine re-rates only the island whose event fired, so its cost per
//! event stays flat as `islands × width` grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use gpsim_cluster::{ActivityGraph, ActivityKind, ClusterSpec, NodeId, Simulation};

/// One island per node: `waves` generations of `width` concurrent
/// activities (a disk read every 8th, computes otherwise) joined by a
/// barrier, no cross-island edges. Work amounts vary per island *and*
/// per wave (straggler-style heterogeneity), so completions land at
/// distinct instants instead of degenerating into lock-step batches.
/// Static tags keep the interner table at three entries regardless of
/// DAG size.
fn island_dag(islands: u16, waves: u32, width: u32) -> ActivityGraph {
    let total = (islands as usize) * (waves as usize) * (width as usize + 1);
    let mut g = ActivityGraph::with_capacity(total, 2 * total);
    for n in 0..islands {
        let node = NodeId(n);
        let mut barrier = None;
        for w in 0..waves {
            let deps: Vec<_> = barrier.into_iter().collect();
            let mut wave = Vec::with_capacity(width as usize);
            for i in 0..width {
                let jitter = (n as u32 * 131 + w * 31 + i * 7) % 401;
                let kind = if i % 8 == 7 {
                    ActivityKind::DiskRead {
                        node,
                        bytes: 3.0e5 + jitter as f64 * 500.0,
                    }
                } else {
                    ActivityKind::Compute {
                        node,
                        work_core_us: 700.0 + jitter as f64,
                        parallelism: 1 + (i % 4),
                    }
                };
                let tag = if i % 8 == 7 {
                    "island/disk"
                } else {
                    "island/compute"
                };
                wave.push(g.add(kind, &deps, tag));
            }
            barrier = Some(g.barrier(&wave, "island/join"));
        }
    }
    g
}

/// Sweep points: (islands, waves, width, label). Activity totals run from
/// ~1 k to ~5 M — the order of magnitude a per-vertex-granularity full-scale
/// model needs. 128 islands × width 8 ≈ one thousand concurrently
/// running activities for every large point.
const SWEEP: [(u16, u32, u32, &str); 5] = [
    (16, 8, 8, "1k"),
    (128, 16, 8, "16k"),
    (128, 128, 8, "131k"),
    (128, 1024, 8, "1M"),
    (128, 5120, 8, "5M"),
];

fn bench_scale(c: &mut Criterion) {
    let cluster = ClusterSpec::das5(256);
    let mut group = c.benchmark_group("simulator_scale");
    for &(islands, waves, width, label) in &SWEEP {
        let dag = island_dag(islands, waves, width);
        // Large DAGs: fewer samples, each iteration is itself long.
        group.sample_size(if dag.len() >= 2_000_000 {
            2
        } else if dag.len() >= 500_000 {
            3
        } else {
            10
        });
        group.bench_with_input(BenchmarkId::new("auto", label), &dag, |b, dag| {
            let sim = Simulation::new(cluster.clone());
            b.iter(|| black_box(sim.run(black_box(dag)).unwrap().makespan_us))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scale);
criterion_main!(benches);
