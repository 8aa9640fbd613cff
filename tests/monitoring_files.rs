//! File-based monitoring integration: platform logs written to disk in the
//! per-process layout a real scraper sees, collected back, and fed through
//! the pipeline — must reproduce the in-memory archive exactly.

use std::fs;

use gpsim_cluster::{ClusterSpec, FaultPlan};
use gpsim_graph::gen::{datagen_like, GenConfig};
use gpsim_platforms::{Algorithm, CostModel, Engine, GiraphPlatform, JobConfig, PlatformRun};
use granula::models::giraph_model;
use granula::process::EvaluationProcess;
use granula_archive::JobMeta;
use granula_monitor::{collect_dir, write_env_logs, write_logs};

fn platform_run() -> PlatformRun {
    let g = datagen_like(&GenConfig::datagen(1_200, 21));
    let cfg = JobConfig::new(
        "files",
        "dgt",
        Algorithm::Bfs { source: 1 },
        4,
        CostModel::giraph_like(),
    );
    Engine::Giraph(GiraphPlatform::default())
        .run(&g, &cfg, &ClusterSpec::das5(cfg.nodes), &FaultPlan::new())
        .expect("simulation runs")
}

fn meta() -> JobMeta {
    JobMeta {
        job_id: "files".into(),
        platform: "Giraph".into(),
        algorithm: "BFS".into(),
        dataset: "dgt".into(),
        nodes: 4,
        model: String::new(),
    }
}

#[test]
fn disk_roundtrip_reproduces_the_archive() {
    let run = platform_run();
    let dir = std::env::temp_dir().join(format!("granula-files-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);

    // "Deploy": the platform's processes write their logs; the environment
    // monitor writes per-node sample files.
    let log_files = write_logs(&run.events, &dir).expect("logs written");
    let env_files = write_env_logs(&run.env_samples, &dir).expect("env written");
    assert!(log_files >= 4, "one file per process at least");
    assert_eq!(env_files, 4, "one env file per node");

    // "Scrape": collect the directory.
    let (events, samples, stats) = collect_dir(&dir).expect("collect");
    assert_eq!(stats.events, run.events.len());
    assert_eq!(stats.samples, run.env_samples.len());

    // Evaluate both paths and compare archives.
    let from_disk = PlatformRun {
        events,
        env_samples: samples,
        ..run.clone()
    };
    let process = EvaluationProcess::new(giraph_model());
    let a = process.evaluate(&run, meta());
    let b = process.evaluate(&from_disk, meta());
    assert_eq!(a.archive, b.archive, "disk roundtrip must be lossless");
    assert!(b.validation.is_clean());

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncated_log_file_degrades_gracefully() {
    let run = platform_run();
    let dir = std::env::temp_dir().join(format!("granula-files-trunc-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    write_logs(&run.events, &dir).expect("logs written");

    // A node died: truncate one worker's log to half its lines.
    let victim = fs::read_dir(&dir)
        .expect("dir listing")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().contains("worker-2"))
        })
        .expect("worker-2 log exists");
    let content = fs::read_to_string(&victim).expect("readable");
    let lines: Vec<&str> = content.lines().collect();
    fs::write(&victim, lines[..lines.len() / 2].join("\n")).expect("truncate");

    let (events, _, _) = collect_dir(&dir).expect("collect");
    assert!(events.len() < run.events.len());
    let report = EvaluationProcess::new(giraph_model()).evaluate(
        &PlatformRun {
            events,
            ..run.clone()
        },
        meta(),
    );
    // The pipeline survives; the damage shows up as warnings/unclosed ops,
    // which is exactly what failure diagnosis consumes.
    let diagnosis = granula::diagnose(&report.archive, &report.assembly_warnings);
    assert!(!diagnosis.is_healthy());

    let _ = fs::remove_dir_all(&dir);
}
