//! The pipeline workloads, `fig5` and `matrix32`: platform jobs through
//! run → evaluate → save, with every output checked.
//!
//! Each job calls the same public functions `run_experiment_on` calls,
//! in the same order — the model build, `<Platform>::run_on`,
//! `EvaluationProcess::evaluate`, `DomainBreakdown::from_archive` — and
//! then archives the result the way the figure binaries do
//! (`ArchiveStore::save`), reads it back (`ArchiveStore::load`) and
//! renders its breakdown (`BreakdownChart::render_svg`). Timing each call
//! from outside gives the coarse layers; the traced pass adds the spans
//! inside them.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use gpsim_cluster::ClusterSpec;
use gpsim_graph::Graph;
use gpsim_platforms::common::reference_output;
use gpsim_platforms::{
    Algorithm, AlgorithmOutput, GiraphPlatform, GrapePartitioner, GrapePlatform, GraphXPlatform,
    JobConfig, PlatformRun, PowerGraphPlatform,
};
use granula::calibration;
use granula::experiment::Platform;
use granula::metrics::DomainBreakdown;
use granula::process::EvaluationProcess;
use granula_archive::{ArchiveStore, JobMeta};
use granula_trace::{MetricValue, SpanRecord};
use granula_viz::{BreakdownChart, BreakdownRow};

use crate::layers::{JobTrace, LayerSums};
use crate::spec::Report;

/// Simulated fig5 makespans with the default seed, in seconds to one
/// decimal: Giraph and PowerGraph BFS on dg1000 over 8 nodes.
pub const FIG5_GOLDEN_S: [(&str, &str); 2] = [
    ("giraph-bfs-dg1000", "81.9"),
    ("powergraph-bfs-dg1000", "398.7"),
];

/// Vertices of the matrix graph, as `choke_matrix` and
/// `ablation_scalability` use it.
pub const MATRIX_VERTICES: u32 = 20_000;

/// Cluster width of the matrix workload: the widest point of
/// `ablation_scalability`.
pub const MATRIX_NODES: u16 = 32;

/// One job of a pipeline workload.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The platform that runs it.
    pub platform: Platform,
    /// GRAPE's partitioner (ignored by the other platforms).
    pub grape: GrapePartitioner,
    /// The job configuration.
    pub cfg: JobConfig,
}

/// The fig5 jobs: Giraph and PowerGraph BFS on dg1000, 8 nodes.
pub fn fig5_jobs() -> Vec<JobSpec> {
    [Platform::Giraph, Platform::PowerGraph]
        .into_iter()
        .map(|platform| JobSpec {
            platform,
            grape: GrapePartitioner::Hash,
            cfg: platform.dg1000_job(),
        })
        .collect()
}

/// The choke-matrix rows × {BFS, PageRank-10} at 32 nodes; [`prepare`]
/// sets their scale factor.
pub fn matrix32_jobs() -> Vec<JobSpec> {
    let rows = [
        (Platform::Giraph, GrapePartitioner::Hash, "hash-ec"),
        (Platform::PowerGraph, GrapePartitioner::Hash, "greedy-vc"),
        (Platform::Grape, GrapePartitioner::Hash, "hash-ec"),
        (Platform::Grape, GrapePartitioner::Block, "block-ec"),
        (Platform::GraphX, GrapePartitioner::Hash, "hash-ec"),
    ];
    let algorithms = [
        Algorithm::Bfs { source: 1 },
        Algorithm::PageRank { iterations: 10 },
    ];
    let mut jobs = Vec::new();
    for (platform, grape, label) in rows {
        for algorithm in algorithms {
            let mut cfg = platform.dg1000_job();
            cfg.algorithm = algorithm;
            cfg.nodes = MATRIX_NODES;
            cfg.job_id = format!(
                "matrix32-{}-{label}-{}",
                platform.name().to_lowercase(),
                algorithm.name().to_lowercase()
            );
            jobs.push(JobSpec {
                platform,
                grape,
                cfg,
            });
        }
    }
    jobs
}

/// Vertices of a workload's graph.
pub fn graph_vertices(workload: &str) -> u32 {
    if workload == "matrix32" {
        MATRIX_VERTICES
    } else {
        calibration::DG_VERTICES
    }
}

/// Everything a pass needs before its first job.
pub struct Prepared {
    /// The input graph.
    pub graph: Graph,
    /// One evaluation process (model) per job.
    pub processes: Vec<EvaluationProcess>,
}

/// Generates the graph the way the figure binaries do
/// (`calibration::dg_graph_small`), gives every job the scale factor that
/// comes with it, and builds the models, timing both from outside.
/// Returns the prepared state, the seconds spent generating the graph,
/// and the total set-up seconds.
pub fn prepare(jobs: &mut [JobSpec], vertices: u32, seed: u64) -> (Prepared, f64, f64) {
    let start = Instant::now();
    let (graph, scale) = {
        let _span = granula_trace::span!("perfbench", "graph.gen seed={seed}");
        calibration::dg_graph_small(vertices, seed)
    };
    let gen_s = start.elapsed().as_secs_f64();
    for job in jobs.iter_mut() {
        job.cfg.scale_factor = scale;
    }
    let processes = {
        let _span = granula_trace::span!("perfbench", "model.build");
        jobs.iter()
            .map(|job| EvaluationProcess::new(job.platform.model()))
            .collect()
    };
    let setup_s = start.elapsed().as_secs_f64();
    (Prepared { graph, processes }, gen_s, setup_s)
}

/// Reference outputs for every job, computed once per algorithm.
pub fn references(jobs: &[JobSpec], graph: &Graph) -> Vec<AlgorithmOutput> {
    let mut cache: Vec<(Algorithm, AlgorithmOutput)> = Vec::new();
    jobs.iter()
        .map(|job| {
            if let Some((_, out)) = cache.iter().find(|(a, _)| *a == job.cfg.algorithm) {
                return out.clone();
            }
            let out = reference_output(graph, job.cfg.algorithm);
            cache.push((job.cfg.algorithm, out.clone()));
            out
        })
        .collect()
}

/// What one job produced, for the metrics and the cross-pass checks.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Job id.
    pub job_id: String,
    /// Wall seconds for the whole job, checks included.
    pub wall_s: f64,
    /// Simulated makespan, microseconds (0 when the run failed).
    pub makespan_us: u64,
    /// Outside-timed layers and span-derived layers, seconds; counts.
    pub layers: LayerSums,
    /// Spans recorded while the job ran (traced passes only).
    pub spans: Vec<SpanRecord>,
    /// Path of the saved single-job store.
    pub store: PathBuf,
}

fn counter(metrics: &BTreeMap<String, MetricValue>, name: &str) -> u64 {
    match metrics.get(name) {
        Some(MetricValue::Counter(n)) => *n,
        _ => 0,
    }
}

fn run_platform(
    job: &JobSpec,
    graph: &Graph,
    cluster: &ClusterSpec,
) -> Result<PlatformRun, String> {
    let cfg = &job.cfg;
    let run = match job.platform {
        Platform::Giraph => GiraphPlatform::default().run_on(graph, cfg, cluster),
        Platform::PowerGraph => PowerGraphPlatform::default().run_on(graph, cfg, cluster),
        Platform::Grape => GrapePlatform {
            partitioner: job.grape,
            ..GrapePlatform::default()
        }
        .run_on(graph, cfg, cluster),
        Platform::GraphX => GraphXPlatform::default().run_on(graph, cfg, cluster),
        Platform::GraphMat => {
            return Err("GraphMat is not part of a benchmark workload".into());
        }
    };
    run.map_err(|e| format!("{}: simulation failed: {e:?}", cfg.job_id))
}

/// Runs one job through run → evaluate → save → load → render and checks
/// its outputs. Check failures go to `report` (one failed operation per
/// job, however many checks it failed).
pub fn run_job(
    job: &JobSpec,
    graph: &Graph,
    process: &EvaluationProcess,
    reference: &AlgorithmOutput,
    out_dir: &Path,
    report: &mut Report,
) -> JobOutcome {
    let cfg = &job.cfg;
    let job_id = cfg.job_id.clone();
    let traced = granula_trace::enabled();
    let counters_before = traced.then(granula_trace::metrics);
    let mut layers = LayerSums {
        jobs: 1,
        ..LayerSums::default()
    };
    let mut problems: Vec<String> = Vec::new();
    let store_path = out_dir.join(format!("{job_id}.gar"));
    let start = Instant::now();
    let mut makespan_us = 0;

    let cluster = ClusterSpec::das5(cfg.nodes);
    let t = Instant::now();
    let run = {
        let _span = granula_trace::span!("perfbench", "platforms.run_on {job_id}");
        run_platform(job, graph, &cluster)
    };
    layers.add("platforms.run_s", t.elapsed().as_secs_f64());

    match run {
        Err(e) => problems.push(e),
        Ok(run) => {
            makespan_us = run.makespan_us;
            layers.add("platforms.events", run.events.len() as f64);
            let t = Instant::now();
            let (evaluation, breakdown) = {
                let _span = granula_trace::span!("perfbench", "core.evaluate {job_id}");
                let meta = JobMeta {
                    job_id: job_id.clone(),
                    platform: job.platform.name().into(),
                    algorithm: cfg.algorithm.name().into(),
                    dataset: cfg.dataset.clone(),
                    nodes: cfg.nodes as u32,
                    model: String::new(),
                };
                let evaluation = process.evaluate(&run, meta);
                let breakdown = DomainBreakdown::from_archive(&evaluation.archive);
                (evaluation, breakdown)
            };
            layers.add("core.evaluate_s", t.elapsed().as_secs_f64());
            let archive = &evaluation.archive;
            layers.add("archive.ops_per_job", archive.num_operations() as f64);

            if !run.output.matches(reference) {
                problems.push(format!("{job_id}: output differs from the reference"));
            }
            if !evaluation.assembly_warnings.is_empty() {
                problems.push(format!(
                    "{job_id}: {} assembly warnings",
                    evaluation.assembly_warnings.len()
                ));
            }
            if !evaluation.validation.is_clean() {
                problems.push(format!("{job_id}: evaluation reports validation issues"));
            }

            let t = Instant::now();
            let saved = {
                let _span = granula_trace::span!("perfbench", "archive.save {job_id}");
                let mut store = ArchiveStore::new();
                store.upsert(archive.clone());
                store.save(&store_path)
            };
            layers.add("archive.save_s", t.elapsed().as_secs_f64());
            let bytes = std::fs::metadata(&store_path).map_or(0, |m| m.len());
            layers.add(
                "archive.bytes_per_op",
                bytes as f64 / archive.num_operations().max(1) as f64,
            );

            let t = Instant::now();
            let loaded = {
                let _span = granula_trace::span!("perfbench", "archive.load {job_id}");
                saved.and_then(|()| ArchiveStore::load(&store_path))
            };
            layers.add("archive.load_s", t.elapsed().as_secs_f64());
            match loaded {
                Err(e) => problems.push(format!("{job_id}: archive round trip failed: {e}")),
                Ok(store) => match store.get(&job_id) {
                    Some(back) if back == archive => {
                        let validation =
                            granula_model::validate::validate(&process.model, &back.tree);
                        if !validation.is_clean() {
                            problems.push(format!("{job_id}: loaded archive fails validation"));
                        }
                    }
                    _ => problems.push(format!("{job_id}: loaded archive differs from saved")),
                },
            }

            let t = Instant::now();
            match breakdown {
                None => problems.push(format!("{job_id}: archive has no runtime")),
                Some(b) => {
                    let _span = granula_trace::span!("perfbench", "viz.render {job_id}");
                    let mut row = BreakdownRow::new(job.platform.name(), b.total_us);
                    for kind in [
                        "Startup",
                        "LoadGraph",
                        "ProcessGraph",
                        "OffloadGraph",
                        "Cleanup",
                    ] {
                        let d = archive.total_duration_of_us(kind);
                        if d > 0 {
                            row = row.with_segment(kind, d);
                        }
                    }
                    let mut chart = BreakdownChart::new();
                    chart.add_row(row);
                    let svg = chart.render_svg();
                    if !svg.contains("<svg") {
                        problems.push(format!("{job_id}: breakdown chart did not render"));
                    }
                }
            }
            layers.add("viz.render_s", t.elapsed().as_secs_f64());
        }
    }

    let wall_s = start.elapsed().as_secs_f64();
    let mut spans = Vec::new();
    if let Some(before) = counters_before {
        spans = granula_trace::take_spans();
        layers.add_spans(&spans);
        let after = granula_trace::metrics();
        let delta = |name: &str| counter(&after, name).saturating_sub(counter(&before, name));
        let events = delta("engine.events_processed");
        layers.add("cluster.events_processed", events as f64);
        layers.add("cluster.heap_pops", delta("engine.heap_pops") as f64);
        layers.add(
            "cluster.heap_stale_pops",
            delta("engine.heap_stale_pops") as f64,
        );
        layers.add(
            "cluster.partitioned_jobs",
            if events > 0 { 1.0 } else { 0.0 },
        );
    }
    if !problems.is_empty() {
        report.failed += 1;
        for p in problems {
            report.fail(p, false);
        }
    }
    report.attempted += 1;
    JobOutcome {
        job_id,
        wall_s,
        makespan_us,
        layers,
        spans,
        store: store_path,
    }
}

/// Checks the fig5 makespans against the goldens (default seed only).
pub fn check_fig5_golden(outcomes: &[JobOutcome], report: &mut Report) {
    for (job_id, want) in FIG5_GOLDEN_S {
        match outcomes.iter().find(|o| o.job_id == job_id) {
            Some(o) => {
                let got = format!("{:.1}", o.makespan_us as f64 / 1e6);
                if got != want {
                    report.fail(
                        format!("{job_id}: makespan {got} s, golden {want} s"),
                        false,
                    );
                }
            }
            None => report.fail(format!("{job_id}: no outcome to check"), false),
        }
    }
}

/// Records every pass's makespans and checks that each job's makespan
/// is bit-identical across passes (traced and untraced alike).
#[derive(Debug, Default)]
pub struct MakespanCheck {
    first: BTreeMap<String, u64>,
}

impl MakespanCheck {
    /// Compares `outcome` with the first makespan seen for its job.
    pub fn observe(&mut self, outcome: &JobOutcome, report: &mut Report) {
        let first = *self
            .first
            .entry(outcome.job_id.clone())
            .or_insert(outcome.makespan_us);
        if first != outcome.makespan_us {
            report.fail(
                format!(
                    "{}: makespan {} µs differs from the first pass's {first} µs",
                    outcome.job_id, outcome.makespan_us
                ),
                false,
            );
        }
    }
}

/// Wraps a set of traced job outcomes as self-trace entries.
pub fn job_traces(outcomes: &[JobOutcome]) -> Vec<JobTrace> {
    outcomes
        .iter()
        .map(|o| JobTrace {
            job: o.job_id.clone(),
            spans: o.spans.clone(),
        })
        .collect()
}
