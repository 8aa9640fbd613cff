//! Experiment drivers: run a platform job through the full Granula pipeline.
//!
//! These are the entry points the figure-regeneration binaries and examples
//! use: pick an engine (a platform and its knobs), a graph, a job config, a
//! cluster and a fault plan; get back the archive, the environment log, the
//! domain breakdown, and all feedback.

use gpsim_cluster::{ClusterSpec, FaultPlan, SimError};
use gpsim_graph::Graph;
use gpsim_platforms::{
    Engine, GiraphPlatform, GrapePlatform, GraphMatPlatform, GraphXPlatform, JobConfig,
    PlatformRun, PowerGraphPlatform,
};
use granula_archive::JobMeta;

use crate::calibration;
use crate::metrics::DomainBreakdown;
use crate::models;
use crate::process::{EvaluationProcess, EvaluationReport};

/// The platforms under study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Platform {
    /// The Giraph-like Pregel platform.
    Giraph,
    /// The PowerGraph-like GAS platform.
    PowerGraph,
    /// The GraphMat-like SpMV platform (Table 1 extension).
    GraphMat,
    /// The GRAPE-like subgraph-centric platform (choke-point matrix
    /// extension).
    Grape,
    /// The GraphX/Spark-like dataflow platform (choke-point matrix
    /// extension).
    GraphX,
}

impl Platform {
    /// The platform `engine` runs.
    pub fn of(engine: &Engine) -> Platform {
        match engine {
            Engine::Giraph(_) => Platform::Giraph,
            Engine::PowerGraph(_) => Platform::PowerGraph,
            Engine::GraphMat(_) => Platform::GraphMat,
            Engine::Grape(_) => Platform::Grape,
            Engine::GraphX(_) => Platform::GraphX,
        }
    }

    /// The platform's engine with default knobs.
    pub fn engine(self) -> Engine {
        match self {
            Platform::Giraph => Engine::Giraph(GiraphPlatform::default()),
            Platform::PowerGraph => Engine::PowerGraph(PowerGraphPlatform::default()),
            Platform::GraphMat => Engine::GraphMat(GraphMatPlatform::default()),
            Platform::Grape => Engine::Grape(GrapePlatform::default()),
            Platform::GraphX => Engine::GraphX(GraphXPlatform::default()),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Platform::Giraph => "Giraph",
            Platform::PowerGraph => "PowerGraph",
            Platform::GraphMat => "GraphMat",
            Platform::Grape => "Grape",
            Platform::GraphX => "GraphX",
        }
    }

    /// The platform's full performance model.
    pub fn model(self) -> granula_model::PerformanceModel {
        match self {
            Platform::Giraph => models::giraph_model(),
            Platform::PowerGraph => models::powergraph_model(),
            Platform::GraphMat => models::graphmat_model(),
            Platform::Grape => models::grape_model(),
            Platform::GraphX => models::graphx_model(),
        }
    }

    /// The platform's calibrated BFS-on-dg1000 job configuration.
    pub fn dg1000_job(self) -> JobConfig {
        match self {
            Platform::Giraph => calibration::giraph_dg1000_job(),
            Platform::PowerGraph => calibration::powergraph_dg1000_job(),
            Platform::GraphMat => calibration::graphmat_dg1000_job(),
            Platform::Grape => calibration::grape_dg1000_job(),
            Platform::GraphX => calibration::graphx_dg1000_job(),
        }
    }

    /// The platform's model extended with checkpoint/recovery operation
    /// types — required when evaluating a run under fault injection, or the
    /// model-driven event filter drops the recovery events. GraphMat models
    /// no recovery, so its fault model is its plain model (and a fault plan
    /// on GraphMat is an error, [`SimError::FaultsNotModeled`]).
    pub fn fault_model(self) -> granula_model::PerformanceModel {
        match self {
            Platform::Giraph => models::giraph_fault_model(),
            Platform::PowerGraph => models::powergraph_fault_model(),
            Platform::GraphMat => models::graphmat_model(),
            Platform::Grape => models::grape_fault_model(),
            Platform::GraphX => models::graphx_fault_model(),
        }
    }
}

/// Everything one experiment produces.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// The Granula evaluation output (archive + feedback).
    pub report: EvaluationReport,
    /// The raw platform run (events, samples, algorithm output).
    pub run: PlatformRun,
    /// Domain-level breakdown (Figure 5 row).
    pub breakdown: DomainBreakdown,
}

/// Runs one job on `platform` with default knobs and no faults, on the
/// default DAS5-like cluster, and evaluates it with the platform's full
/// model: [`run_experiment_on`] in its most common form.
pub fn run_experiment(
    platform: Platform,
    graph: &Graph,
    cfg: &JobConfig,
) -> Result<ExperimentResult, SimError> {
    let cluster = ClusterSpec::das5(cfg.nodes);
    run_experiment_on(&platform.engine(), graph, cfg, &cluster, &FaultPlan::new())
}

/// Runs one job on `engine` over `cluster` (possibly heterogeneous, e.g.
/// with a straggler node) under `plan` (possibly empty), and evaluates it.
///
/// The run is evaluated against [`Platform::fault_model`] when the plan
/// crashes a node or the engine is Giraph with checkpointing on, so the
/// recovery and checkpoint operations survive the model-driven event
/// filter; otherwise against [`Platform::model`].
///
/// # Errors
/// The errors of [`Engine::run`]: the simulator's, and
/// [`SimError::FaultsNotModeled`] for GraphMat under a non-empty plan.
pub fn run_experiment_on(
    engine: &Engine,
    graph: &Graph,
    cfg: &JobConfig,
    cluster: &ClusterSpec,
    plan: &FaultPlan,
) -> Result<ExperimentResult, SimError> {
    let platform = Platform::of(engine);
    let process = {
        let _span = granula_trace::span!("modeling", "build_model {}", platform.name());
        let checkpointing = matches!(engine, Engine::Giraph(p) if p.checkpoint_interval.is_some());
        let model = if !plan.crashes.is_empty() || checkpointing {
            platform.fault_model()
        } else {
            platform.model()
        };
        EvaluationProcess::new(model)
    };
    let run = {
        let _span = granula_trace::span!(
            "monitoring",
            "platform_run {} ({})",
            cfg.job_id,
            platform.name()
        );
        engine.run(graph, cfg, cluster, plan)?
    };
    let meta = JobMeta {
        job_id: cfg.job_id.clone(),
        platform: platform.name().into(),
        algorithm: cfg.algorithm.name().into(),
        dataset: cfg.dataset.clone(),
        nodes: cfg.nodes as u32,
        model: String::new(),
    };
    let report = process.evaluate(&run, meta);
    let breakdown = DomainBreakdown::from_archive(&report.archive)
        .expect("archive of a simulated run always has a runtime");
    Ok(ExperimentResult {
        report,
        run,
        breakdown,
    })
}

/// Default worker count for [`par_map`]: the machine's available
/// parallelism, or 1 when it cannot be determined.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Deterministic parallel map: applies `f` to every item on up to
/// `threads` scoped worker threads and returns the results **in input
/// order**.
///
/// Work is claimed through an atomic cursor, so the assignment of items to
/// threads varies between runs — but each result depends only on its item,
/// and results are placed by index, so the output is bit-identical to the
/// sequential `items.iter().map(f)` regardless of thread count. Built on
/// [`std::thread::scope`]; no external dependencies.
///
/// # Panics
/// Propagates a panic from `f` after all workers have stopped.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        return items.iter().map(f).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let chunks: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        local.push((i, f(item)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("experiment worker panicked"))
            .collect()
    });
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (i, r) in chunks.into_iter().flatten() {
        out[i] = Some(r);
    }
    out.into_iter()
        .map(|r| r.expect("every index claimed exactly once"))
        .collect()
}

/// Runs a batch of `(platform, config)` experiments on `graph` in
/// parallel ([`par_map`] over [`default_threads`]), preserving input
/// order. Each experiment is independent and internally deterministic, so
/// the batch output matches a sequential run bit-for-bit.
pub fn run_experiments(
    jobs: &[(Platform, JobConfig)],
    graph: &Graph,
) -> Vec<Result<ExperimentResult, SimError>> {
    par_map(jobs, default_threads(), |(platform, cfg)| {
        run_experiment(*platform, graph, cfg)
    })
}

/// The paper's dg1000 experiment on the full down-sampled graph
/// (100 k vertices): the configuration behind Figures 5–8. Takes a few
/// seconds of real time per platform.
pub fn dg1000(platform: Platform) -> ExperimentResult {
    let graph = calibration::dg_graph();
    let cfg = platform.dg1000_job();
    run_experiment(platform, &graph, &cfg).expect("dg1000 simulation is well-formed")
}

/// The paper's Giraph dg1000 experiment at **full scale** (at
/// [`calibration::DG_FULL_VERTICES`]) or at a smaller vertex count: the
/// algorithm executes on the real dataset volume (103 M vertices, 927 M
/// edges at full size) with `scale_factor = 1.0` and no demand scaling.
/// Smaller counts keep the Datagen 9:1 edge ratio and adjust the scale
/// factor so the job still emulates the 1.03e9-element dataset.
///
/// The graph is [`calibration::dg_graph_small`]'s graph for the same
/// vertex count, built out-CSR only ([`gpsim_graph::gen::datagen_like_full`])
/// so no edge list or reverse CSR is held, and BFS runs through the dense
/// Pregel engine. The dominant costs are the two generator passes and one
/// O(n + m) traversal plus an O(n) scan per superstep; at full size expect
/// minutes of wall-clock and a ~6 GB high-water mark.
///
/// Only Giraph is supported: PowerGraph's vertex-cut partitioner and the
/// GAS gather phase need the reverse CSR, which the out-only graph
/// deliberately does not carry.
pub fn dg1000_full_sized(vertices: u32) -> ExperimentResult {
    let _span = granula_trace::span!("experiment", "dg1000_full giraph");
    let graph = {
        let _span = granula_trace::span!("experiment", "dg1000_full.generate");
        gpsim_graph::gen::datagen_like_full(&gpsim_graph::gen::GenConfig {
            vertices,
            edges: vertices as u64 * 9,
            alpha: 2.2,
            seed: calibration::DG_SEED,
        })
    };
    let mut cfg = calibration::giraph_dg1000_job();
    cfg.job_id = "giraph-bfs-dg1000-full".into();
    cfg.scale_factor = 1.03e9 / (vertices as f64 * 10.0);
    run_experiment(Platform::Giraph, &graph, &cfg).expect("dg1000 simulation is well-formed")
}

/// A fast variant of [`dg1000`] on a smaller logical graph with the scale
/// factor adjusted to keep emulating the full dataset. Used by tests.
pub fn dg1000_quick(platform: Platform, vertices: u32) -> ExperimentResult {
    let (graph, scale) = calibration::dg_graph_small(vertices, calibration::DG_SEED);
    let mut cfg = platform.dg1000_job();
    cfg.scale_factor = scale;
    run_experiment(platform, &graph, &cfg).expect("dg1000 simulation is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::PAPER;
    use crate::metrics::Phase;

    #[test]
    fn quick_giraph_experiment_has_paper_shape() {
        let r = dg1000_quick(Platform::Giraph, 8_000);
        let b = &r.breakdown;
        // Shape targets (§4.2): every phase substantial; I/O largest.
        let setup = b.fraction(Phase::Setup);
        let io = b.fraction(Phase::InputOutput);
        let proc_ = b.fraction(Phase::Processing);
        assert!(setup > 0.10 && setup < 0.55, "setup {setup}");
        assert!(io > 0.25 && io < 0.60, "io {io}");
        assert!(proc_ > 0.08 && proc_ < 0.50, "proc {proc_}");
        assert!(io > proc_, "I/O should exceed processing: {io} vs {proc_}");
        // Total within 2x of the paper's 81.59 s.
        assert!(
            b.total_s() > PAPER.giraph_total_s / 2.0 && b.total_s() < PAPER.giraph_total_s * 2.0,
            "total {}",
            b.total_s()
        );
    }

    #[test]
    fn quick_powergraph_experiment_is_io_dominated() {
        let r = dg1000_quick(Platform::PowerGraph, 8_000);
        let b = &r.breakdown;
        let io = b.fraction(Phase::InputOutput);
        let proc_ = b.fraction(Phase::Processing);
        assert!(io > 0.85, "io {io}");
        assert!(proc_ < 0.10, "proc {proc_}");
        assert!(
            b.total_s() > PAPER.powergraph_total_s / 2.0
                && b.total_s() < PAPER.powergraph_total_s * 2.0,
            "total {}",
            b.total_s()
        );
    }

    #[test]
    fn powergraph_is_much_slower_than_giraph_end_to_end() {
        // The paper's headline comparison: PowerGraph processes faster but
        // its sequential loader makes the end-to-end job ~5x slower.
        let g = dg1000_quick(Platform::Giraph, 5_000);
        let p = dg1000_quick(Platform::PowerGraph, 5_000);
        assert!(
            p.breakdown.total_us > 3 * g.breakdown.total_us,
            "PowerGraph {}s vs Giraph {}s",
            p.breakdown.total_s(),
            g.breakdown.total_s()
        );
        assert!(
            p.breakdown.processing_us < g.breakdown.processing_us,
            "PowerGraph processing should be faster"
        );
    }

    #[test]
    fn fault_experiment_surfaces_recovery_overhead() {
        use crate::analysis::{find_choke_points, ChokePointConfig, ChokePointKind};
        use gpsim_cluster::NodeId;

        let (graph, scale) = crate::calibration::dg_graph_small(4_000, crate::calibration::DG_SEED);
        for platform in [
            Platform::Giraph,
            Platform::PowerGraph,
            Platform::Grape,
            Platform::GraphX,
        ] {
            let mut cfg = match platform {
                Platform::Giraph => crate::calibration::giraph_dg1000_job(),
                Platform::Grape => crate::calibration::grape_dg1000_job(),
                Platform::GraphX => crate::calibration::graphx_dg1000_job(),
                _ => crate::calibration::powergraph_dg1000_job(),
            };
            cfg.scale_factor = scale;
            let healthy = run_experiment(platform, &graph, &cfg).unwrap();
            let plan = FaultPlan::new().crash(NodeId(2), healthy.run.makespan_us as f64 * 0.4);
            let engine = match platform.engine() {
                Engine::Giraph(p) => Engine::Giraph(GiraphPlatform {
                    checkpoint_interval: Some(2),
                    ..p
                }),
                engine => engine,
            };
            let cluster = ClusterSpec::das5(cfg.nodes);
            let faulty = run_experiment_on(&engine, &graph, &cfg, &cluster, &plan).unwrap();
            assert!(
                faulty.run.makespan_us > healthy.run.makespan_us,
                "{}: recovery must cost time",
                platform.name()
            );
            assert!(
                faulty.report.assembly_warnings.is_empty(),
                "{}: {:?}",
                platform.name(),
                &faulty.report.assembly_warnings[..3.min(faulty.report.assembly_warnings.len())]
            );
            let cps = find_choke_points(&faulty.report.archive, &ChokePointConfig::default());
            let rec = cps
                .iter()
                .find_map(|c| match &c.kind {
                    ChokePointKind::RecoveryOverhead { worker, wasted_us } => {
                        Some((worker.clone(), *wasted_us))
                    }
                    _ => None,
                })
                .unwrap_or_else(|| panic!("{}: no RecoveryOverhead in {cps:?}", platform.name()));
            assert_eq!(rec.0, "node302", "{}", platform.name());
            assert!(rec.1 > 0, "{}", platform.name());
        }
    }

    #[test]
    fn empty_fault_plan_matches_plain_experiment() {
        let (graph, scale) = crate::calibration::dg_graph_small(3_000, crate::calibration::DG_SEED);
        let mut cfg = crate::calibration::giraph_dg1000_job();
        cfg.scale_factor = scale;
        let plain = run_experiment(Platform::Giraph, &graph, &cfg).unwrap();
        let engine = Platform::Giraph.engine();
        let cluster = ClusterSpec::das5(cfg.nodes);
        let faulted =
            run_experiment_on(&engine, &graph, &cfg, &cluster, &FaultPlan::new()).unwrap();
        assert_eq!(plain.run.makespan_us, faulted.run.makespan_us);
        assert_eq!(plain.run.events, faulted.run.events);
        assert_eq!(plain.breakdown, faulted.breakdown);
    }

    #[test]
    fn graphmat_fault_plans_are_an_error() {
        use gpsim_cluster::{DegradedChannel, NodeId};

        let (graph, scale) = crate::calibration::dg_graph_small(2_000, crate::calibration::DG_SEED);
        let mut cfg = Platform::GraphMat.dg1000_job();
        cfg.scale_factor = scale;
        let cluster = ClusterSpec::das5(cfg.nodes);
        let crash = FaultPlan::new().crash(NodeId(2), 1e6);
        let slowdown = FaultPlan::new().slow(NodeId(2), DegradedChannel::Nic, 0.0, 1e6, 0.5);
        for plan in [crash, slowdown] {
            let engine = Platform::GraphMat.engine();
            let err = run_experiment_on(&engine, &graph, &cfg, &cluster, &plan).unwrap_err();
            assert_eq!(
                err,
                SimError::FaultsNotModeled {
                    platform: "GraphMat"
                }
            );
        }
    }

    #[test]
    fn par_map_preserves_order_and_determinism() {
        let items: Vec<u64> = (0..37).collect();
        let f = |x: &u64| x * x + 1;
        let seq: Vec<u64> = items.iter().map(f).collect();
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(par_map(&items, threads, f), seq, "threads={threads}");
        }
        assert!(par_map(&[] as &[u64], 4, f).is_empty());
    }

    #[test]
    fn parallel_experiments_match_sequential_bitwise() {
        let graph = crate::calibration::dg_graph_small(3_000, crate::calibration::DG_SEED).0;
        let jobs: Vec<(Platform, gpsim_platforms::JobConfig)> = [
            Platform::Giraph,
            Platform::PowerGraph,
            Platform::GraphMat,
            Platform::Grape,
            Platform::GraphX,
        ]
        .into_iter()
        .map(|p| {
            let mut cfg = p.dg1000_job();
            cfg.scale_factor =
                crate::calibration::dg_graph_small(3_000, crate::calibration::DG_SEED).1;
            (p, cfg)
        })
        .collect();
        let parallel = run_experiments(&jobs, &graph);
        let sequential: Vec<_> = jobs
            .iter()
            .map(|(p, cfg)| run_experiment(*p, &graph, cfg))
            .collect();
        for (p, s) in parallel.iter().zip(&sequential) {
            let (p, s) = (p.as_ref().unwrap(), s.as_ref().unwrap());
            assert_eq!(p.breakdown.total_us, s.breakdown.total_us);
            assert_eq!(p.run.makespan_us, s.run.makespan_us);
            assert_eq!(p.run.events.len(), s.run.events.len());
        }
    }

    #[test]
    fn experiments_validate_cleanly() {
        for platform in [
            Platform::Giraph,
            Platform::PowerGraph,
            Platform::GraphMat,
            Platform::Grape,
            Platform::GraphX,
        ] {
            let r = dg1000_quick(platform, 4_000);
            assert!(
                r.report.validation.is_clean(),
                "{}: {:?}",
                platform.name(),
                &r.report.validation.issues[..3.min(r.report.validation.issues.len())]
            );
            assert!(r.report.assembly_warnings.is_empty());
        }
    }
}
