//! The end-to-end evaluation process (paper §3.3, Figure 2).
//!
//! Four consecutive sub-processes: **P1 Modeling** (the analyst supplies a
//! [`PerformanceModel`]), **P2 Monitoring** (a platform run produces logs
//! and environment samples), **P3 Archiving** (events are filtered against
//! the model, assembled into an operation tree, metrics derived by rule,
//! resource usage mapped onto operations, everything stored in a
//! standardized archive), **P4 Visualization** (handled by `granula-viz`
//! over the archive). The `feedback` edge of Figure 2 is the
//! [`EvaluationReport`]: validation issues and assembly warnings tell the
//! analyst what to refine next iteration.

use gpsim_platforms::PlatformRun;
use granula_archive::{JobArchive, JobMeta};
use granula_model::{rules::derive_all_durations, PerformanceModel, RuleEngine, ValidationReport};
use granula_monitor::{
    Assembler, AssemblyWarning, EnvLog, EventFilter, ResourceKind, SkewCorrector,
};

/// The archive plus everything the analyst should feed back into modeling.
#[derive(Debug, Clone)]
pub struct EvaluationReport {
    /// The performance archive of the job (P3 output).
    pub archive: JobArchive,
    /// The environment log collected alongside.
    pub env: EnvLog,
    /// Model-conformance findings.
    pub validation: ValidationReport,
    /// Log-assembly repairs and gaps.
    pub assembly_warnings: Vec<AssemblyWarning>,
    /// Events retained by the model filter / events observed in total.
    pub events_kept: usize,
    /// Total events produced by monitoring before filtering.
    pub events_total: usize,
    /// Number of infos derived by the rule engine.
    pub infos_derived: usize,
}

impl EvaluationReport {
    /// Monitoring-data reduction achieved by the model filter — the
    /// coarse/fine cost lever of requirement R3.
    pub fn filter_ratio(&self) -> f64 {
        if self.events_total == 0 {
            return 1.0;
        }
        self.events_kept as f64 / self.events_total as f64
    }
}

/// One configured evaluation pipeline: a model plus assembly options.
#[derive(Debug, Clone)]
pub struct EvaluationProcess {
    /// The analyst's performance model (P1).
    pub model: PerformanceModel,
    /// Optional clock-skew correction applied before assembly.
    pub skew: SkewCorrector,
    /// Retain raw log lines in the archive (bigger but self-describing).
    pub keep_source_records: bool,
}

impl EvaluationProcess {
    /// Creates a process around a model.
    pub fn new(model: PerformanceModel) -> Self {
        EvaluationProcess {
            model,
            skew: SkewCorrector::new(),
            keep_source_records: false,
        }
    }

    /// Enables raw source-record retention.
    pub fn with_source_records(mut self) -> Self {
        self.keep_source_records = true;
        self
    }

    /// Runs P3 (archiving) over the output of a platform run (P2) and
    /// returns the archive plus the feedback for the next iteration.
    pub fn evaluate(&self, run: &PlatformRun, meta: JobMeta) -> EvaluationReport {
        let _span =
            granula_trace::span!("archiving", "evaluate {} ({})", meta.job_id, meta.platform);
        // Clock correction, then model-driven filtering.
        let mut events = run.events.clone();
        self.skew.correct_all(&mut events);
        let events_total = events.len();
        let filter = EventFilter::from_model(&self.model);
        let events = {
            let _span = granula_trace::span!("archiving", "filter_events {}", meta.job_id);
            filter.apply(events)
        };
        let events_kept = events.len();
        granula_trace::counter_add("archive.events_total", events_total as u64);
        granula_trace::counter_add("archive.events_kept", events_kept as u64);

        // Assembly into one operation tree.
        let assembler = if self.keep_source_records {
            Assembler::new().with_source_records()
        } else {
            Assembler::new()
        };
        let outcome = assembler.assemble(events);
        let mut tree = outcome.tree;

        // Derive metrics: durations everywhere, then the model's rules.
        let infos_derived = {
            let _span = granula_trace::span!("archiving", "derive_metrics {}", meta.job_id);
            let mut n = derive_all_durations(&mut tree);
            n += RuleEngine::apply(&self.model, &mut tree);
            n
        };

        // Map environment data onto operations.
        let mut env = EnvLog::new();
        env.extend(run.env_samples.iter().cloned());
        {
            let _span = granula_trace::span!("archiving", "map_environment {}", meta.job_id);
            env.map_to_operations(&mut tree, ResourceKind::Cpu);
        }

        // Validate against the model: the feedback edge.
        let validation = {
            let _span = granula_trace::span!("archiving", "validate {}", meta.job_id);
            granula_model::validate::validate(&self.model, &tree)
        };

        let meta = JobMeta {
            model: self.model.name.clone(),
            ..meta
        };
        EvaluationReport {
            archive: JobArchive::new(meta, tree),
            env,
            validation,
            assembly_warnings: outcome.warnings,
            events_kept,
            events_total,
            infos_derived,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{giraph_model, powergraph_model};
    use gpsim_cluster::{ClusterSpec, FaultPlan};
    use gpsim_graph::gen::{datagen_like, GenConfig};
    use gpsim_platforms::{
        Algorithm, CostModel, Engine, GiraphPlatform, JobConfig, PowerGraphPlatform,
    };
    use granula_model::AbstractionLevel;

    fn giraph_run() -> PlatformRun {
        giraph_run_scaled(1.0)
    }

    fn giraph_run_scaled(scale: f64) -> PlatformRun {
        let g = datagen_like(&GenConfig::datagen(2_000, 5));
        let cfg = JobConfig::new(
            "g0",
            "dgt",
            Algorithm::Bfs { source: 1 },
            8,
            CostModel::giraph_like(),
        )
        .with_scale(scale);
        Engine::Giraph(GiraphPlatform::default())
            .run(&g, &cfg, &ClusterSpec::das5(cfg.nodes), &FaultPlan::new())
            .unwrap()
    }

    fn meta() -> JobMeta {
        JobMeta {
            job_id: "g0".into(),
            platform: "Giraph".into(),
            algorithm: "BFS".into(),
            dataset: "dgt".into(),
            nodes: 8,
            model: String::new(),
        }
    }

    #[test]
    fn full_pipeline_produces_clean_archive() {
        let report = EvaluationProcess::new(giraph_model()).evaluate(&giraph_run(), meta());
        assert!(
            report.assembly_warnings.is_empty(),
            "{:?}",
            report.assembly_warnings
        );
        assert_eq!(report.validation.coverage(), 1.0);
        // Mandatory timestamps all present; no unmodeled operations.
        assert!(
            report.validation.is_clean(),
            "{:?}",
            &report.validation.issues[..5.min(report.validation.issues.len())]
        );
        assert!(report.archive.total_runtime_us().unwrap() > 0);
        assert!(report.infos_derived > 0);
        assert_eq!(report.archive.meta.model, "giraph-v4");
    }

    #[test]
    fn rules_derive_domain_durations_on_root() {
        let report = EvaluationProcess::new(giraph_model()).evaluate(&giraph_run(), meta());
        let job = report.archive.job().unwrap();
        for name in [
            "StartupDuration",
            "LoadDuration",
            "ProcessDuration",
            "CleanupDuration",
        ] {
            assert!(job.info_f64(name).is_some(), "missing {name}");
        }
        // Fractions derived on the phases.
        let tree = &report.archive.tree;
        let root = tree.root().unwrap();
        let load = tree.child_by_mission(root, "LoadGraph").unwrap();
        let f = tree.op(load).info_f64("RuntimeFraction").unwrap();
        assert!(f > 0.0 && f < 1.0, "{f}");
    }

    #[test]
    fn cpu_usage_mapped_onto_operations() {
        // Scale up so every phase spans multiple one-second env samples.
        let report =
            EvaluationProcess::new(giraph_model()).evaluate(&giraph_run_scaled(2_000.0), meta());
        let tree = &report.archive.tree;
        let root = tree.root().unwrap();
        let load = tree.child_by_mission(root, "LoadGraph").unwrap();
        assert!(tree.op(load).info_f64("CpuMean").is_some());
    }

    #[test]
    fn coarse_model_keeps_fewer_events() {
        let run = giraph_run();
        let fine = EvaluationProcess::new(giraph_model()).evaluate(&run, meta());
        let coarse_model = giraph_model().truncated(AbstractionLevel::Domain);
        let coarse = EvaluationProcess::new(coarse_model).evaluate(&run, meta());
        assert!(coarse.events_kept < fine.events_kept);
        assert!(coarse.filter_ratio() < fine.filter_ratio());
        // The coarse archive still has the full domain breakdown.
        let tree = &coarse.archive.tree;
        let root = tree.root().unwrap();
        assert_eq!(tree.op(root).children.len(), 5);
    }

    #[test]
    fn powergraph_pipeline_is_also_clean() {
        let g = datagen_like(&GenConfig::datagen(2_000, 5));
        let cfg = JobConfig::new(
            "p0",
            "dgt",
            Algorithm::Bfs { source: 1 },
            8,
            CostModel::powergraph_like(),
        );
        let run = Engine::PowerGraph(PowerGraphPlatform::default())
            .run(&g, &cfg, &ClusterSpec::das5(cfg.nodes), &FaultPlan::new())
            .unwrap();
        let report = EvaluationProcess::new(powergraph_model()).evaluate(
            &run,
            JobMeta {
                platform: "PowerGraph".into(),
                ..meta()
            },
        );
        assert!(
            report.validation.is_clean(),
            "{:?}",
            &report.validation.issues[..5.min(report.validation.issues.len())]
        );
    }

    #[test]
    fn unmodeled_platform_yields_validation_feedback() {
        // Evaluating a PowerGraph run with the Giraph model: everything is
        // unmodeled -> the feedback loop tells the analyst to model it.
        let g = datagen_like(&GenConfig::datagen(1_000, 5));
        let cfg = JobConfig::new(
            "p0",
            "dgt",
            Algorithm::Bfs { source: 1 },
            4,
            CostModel::powergraph_like(),
        );
        let run = Engine::PowerGraph(PowerGraphPlatform::default())
            .run(&g, &cfg, &ClusterSpec::das5(cfg.nodes), &FaultPlan::new())
            .unwrap();
        let report = EvaluationProcess::new(giraph_model()).evaluate(&run, meta());
        // Domain kinds overlap (Startup etc.), but the PowerGraph root and
        // machine-level ops do not: coverage must be imperfect and the
        // unobserved Giraph types reported.
        assert!(report.validation.coverage() < 1.0);
        assert!(!report.validation.is_clean());
    }
}
