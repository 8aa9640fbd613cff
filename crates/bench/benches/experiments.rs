//! Criterion benches of the end-to-end experiment pipeline: platform
//! emulation + DAG simulation + Granula evaluation, per platform.
//!
//! These measure the *reproduction harness* itself — how expensive it is to
//! regenerate a paper figure — not the simulated platforms' virtual time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use gpsim_cluster::{ClusterSpec, FaultPlan};
use gpsim_platforms::{Engine, GiraphPlatform};
use granula::calibration;
use granula::experiment::{run_experiment, Platform};
use granula::models::giraph_model;
use granula::process::EvaluationProcess;
use granula_archive::JobMeta;

fn bench_full_experiment(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_experiment_4k_vertices");
    group.sample_size(10);
    let (graph, scale) = calibration::dg_graph_small(4_000, calibration::DG_SEED);
    for platform in [Platform::Giraph, Platform::PowerGraph, Platform::GraphMat] {
        let mut cfg = platform.dg1000_job();
        cfg.scale_factor = scale;
        group.bench_with_input(
            BenchmarkId::from_parameter(platform.name()),
            &cfg,
            |b, cfg| {
                b.iter(|| {
                    let r =
                        run_experiment(platform, black_box(&graph), cfg).expect("simulation runs");
                    black_box(r.breakdown.total_us)
                })
            },
        );
    }
    group.finish();
}

fn bench_evaluation_only(c: &mut Criterion) {
    // Isolate P3 (archiving): the platform run is produced once, evaluation
    // repeats.
    let (graph, scale) = calibration::dg_graph_small(4_000, calibration::DG_SEED);
    let mut cfg = calibration::giraph_dg1000_job();
    cfg.scale_factor = scale;
    let run = Engine::Giraph(GiraphPlatform::default())
        .run(
            &graph,
            &cfg,
            &ClusterSpec::das5(cfg.nodes),
            &FaultPlan::new(),
        )
        .expect("simulation runs");
    let meta = JobMeta {
        job_id: "bench".into(),
        platform: "Giraph".into(),
        algorithm: "BFS".into(),
        dataset: "dg1000".into(),
        nodes: 8,
        model: String::new(),
    };
    c.bench_function("evaluation_pipeline_only", |b| {
        let process = EvaluationProcess::new(giraph_model());
        b.iter(|| {
            let report = process.evaluate(black_box(&run), meta.clone());
            black_box(report.archive.num_operations())
        })
    });
}

criterion_group!(benches, bench_full_experiment, bench_evaluation_only);
criterion_main!(benches);
