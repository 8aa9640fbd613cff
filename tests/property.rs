//! Pipeline-level property tests: the Granula evaluation process must be
//! total (never panic) and degrade gracefully under monitoring loss —
//! the reality of scraping logs from distributed platforms.

use proptest::prelude::*;

use gpsim_cluster::{ClusterSpec, FaultPlan};
use gpsim_graph::gen::{datagen_like, GenConfig};
use gpsim_platforms::{Algorithm, CostModel, Engine, GiraphPlatform, JobConfig, PlatformRun};
use granula::models::giraph_model;
use granula::process::EvaluationProcess;
use granula_archive::JobMeta;

fn platform_run() -> PlatformRun {
    let g = datagen_like(&GenConfig::datagen(800, 17));
    let cfg = JobConfig::new(
        "prop",
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
        job_id: "prop".into(),
        platform: "Giraph".into(),
        algorithm: "BFS".into(),
        dataset: "dgt".into(),
        nodes: 4,
        model: String::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Dropping an arbitrary subset of monitored events never panics the
    /// pipeline; the archive shrinks, and validation reports the damage
    /// instead of failing.
    #[test]
    fn evaluation_total_under_event_loss(keep_seed in any::<u64>(), drop_pct in 0u32..100) {
        let run = platform_run();
        let mut state = keep_seed | 1;
        let mut lossy = run.clone();
        lossy.events.retain(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % 100 >= drop_pct as u64
        });
        let process = EvaluationProcess::new(giraph_model());
        let report = process.evaluate(&lossy, meta());
        prop_assert!(report.archive.num_operations() <= run.events.len());
        // Validation coverage is a valid fraction.
        let c = report.validation.coverage();
        prop_assert!((0.0..=1.0).contains(&c));
        // Domain breakdown still computes when the root survived.
        if report.archive.job().is_some() {
            let _ = granula::metrics::DomainBreakdown::from_archive(&report.archive);
        }
    }

    /// Corrupting timestamps (clock skew per node) still assembles, and
    /// after anchor-based correction the archive matches the unskewed one.
    #[test]
    fn skew_correction_restores_archive(offsets in prop::collection::vec(0i64..400_000, 4)) {
        let run = platform_run();
        let mut skewed = run.clone();
        let node_of = |i: usize| format!("node{:03}", 300 + i);
        for e in &mut skewed.events {
            for (i, off) in offsets.iter().enumerate() {
                if e.node == node_of(i) {
                    e.time_us = e.time_us.saturating_add(*off as u64);
                }
            }
        }
        // The analyst knows the offsets (e.g. from barrier anchors).
        let mut process = EvaluationProcess::new(giraph_model());
        for (i, off) in offsets.iter().enumerate() {
            process.skew.set_offset(node_of(i), -off);
        }
        let corrected = process.evaluate(&skewed, meta());
        let reference = EvaluationProcess::new(giraph_model()).evaluate(&run, meta());
        prop_assert_eq!(
            corrected.archive.num_operations(),
            reference.archive.num_operations()
        );
        prop_assert_eq!(
            corrected.archive.total_runtime_us(),
            reference.archive.total_runtime_us()
        );
    }

    /// The model filter is monotone: a deeper model never keeps fewer
    /// events than a shallower one.
    #[test]
    fn filter_monotone_in_depth(depth_a in 1u8..=4, depth_b in 1u8..=4) {
        let (lo, hi) = (depth_a.min(depth_b), depth_a.max(depth_b));
        let run = platform_run();
        let full = giraph_model();
        let shallow = EvaluationProcess::new(
            full.truncated(granula_model::AbstractionLevel::from_depth(lo)),
        )
        .evaluate(&run, meta());
        let deep = EvaluationProcess::new(
            full.truncated(granula_model::AbstractionLevel::from_depth(hi)),
        )
        .evaluate(&run, meta());
        prop_assert!(shallow.events_kept <= deep.events_kept);
        prop_assert!(shallow.archive.num_operations() <= deep.archive.num_operations());
    }
}
