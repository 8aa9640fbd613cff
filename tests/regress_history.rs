//! Regression-service integration tests over the committed fixture
//! history (`tests/fixtures/history/`): six synthetic fig5 runs
//! (Giraph + PowerGraph, BFS on dg1000) whose timings carry sub-band
//! jitter around the deterministic simulation.
//!
//! Regenerate the fixtures after an intentional performance change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test regress_history
//! ```

use std::path::{Path, PathBuf};

use granula::experiment::{default_threads, dg1000, dg1000_quick, par_map, Platform};
use granula_archive::{ArchiveStore, RunMeta};
use granula_regress::{analyze, scale_timings, scaled_store, History, Status, Tolerance, MAKESPAN};

/// Sub-band (≤0.25%) jitter factors for the six fixture runs: large
/// enough to give the t-tests real variance, far inside the ±2%
/// tolerance band so the history itself can never flag.
const JITTER: [f64; 6] = [0.9985, 1.0022, 0.9993, 1.0011, 1.0004, 0.9978];

/// Epoch base + 1 h spacing for the fixture run headers.
const T0: u64 = 1_700_000_000_000_000;
const HOUR_US: u64 = 3_600_000_000;

fn history_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/history")
}

/// The fig5 experiment both fixture and "current" stores are built from.
fn fig5_store() -> ArchiveStore {
    let platforms = [Platform::Giraph, Platform::PowerGraph];
    let results = par_map(&platforms, default_threads(), |p| dg1000(*p));
    let mut store = ArchiveStore::new();
    for result in results {
        store
            .add(result.report.archive)
            .expect("fig5 job ids are unique");
    }
    store
}

fn regenerate_fixtures(base: &ArchiveStore) {
    std::fs::create_dir_all(history_dir()).expect("create fixture dir");
    for (i, factor) in JITTER.iter().enumerate() {
        let run = RunMeta::new(
            format!("r{}", i + 1),
            T0 + i as u64 * HOUR_US,
            "fixture: fig5 dg1000 synthetic history",
        );
        let store = scaled_store(base, *factor).with_run(run);
        let path = history_dir().join(format!("r{}.gar", i + 1));
        store.save(&path).expect("write fixture store");
        println!("regenerated {}", path.display());
    }
}

#[test]
fn fresh_fig5_run_is_ok_and_injected_slowdown_is_regressed() {
    let base = fig5_store();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        regenerate_fixtures(&base);
    }

    // An unchanged run against the committed history: inside the band.
    let mut history = History::load_dir(history_dir()).expect("fixture history exists");
    assert_eq!(history.len(), JITTER.len(), "committed fixture count");
    history.push_latest(base.clone(), "current.gar");
    let (report, _) = analyze(&history, &Tolerance::default());
    assert_eq!(
        report.verdict,
        Status::Ok,
        "unchanged fig5 run must pass: {report:?}"
    );
    assert_eq!(report.runs.len(), JITTER.len() + 1);
    assert_eq!(report.runs.last().unwrap().run_id, "current");
    assert!(
        report.metrics.len() >= 4,
        "makespan + phases for two platforms, got {}",
        report.metrics.len()
    );
    for m in &report.metrics {
        assert_eq!(m.status, Status::Ok, "{} {}: {m:?}", m.job_id, m.metric);
        assert!(
            m.effect.abs() < 0.02,
            "{} {}: effect {}",
            m.job_id,
            m.metric,
            m.effect
        );
    }

    // The same run slowed by 5%: every makespan regresses, and the first
    // offending run is the run under test.
    let mut history = History::load_dir(history_dir()).expect("fixture history exists");
    history.push_latest(scaled_store(&base, 1.05), "slow.gar");
    let (report, _) = analyze(&history, &Tolerance::default());
    assert_eq!(report.verdict, Status::Regressed);
    let makespans: Vec<_> = report
        .metrics
        .iter()
        .filter(|m| m.metric == MAKESPAN)
        .collect();
    assert_eq!(makespans.len(), 2, "one makespan per platform");
    for m in makespans {
        assert_eq!(m.status, Status::Regressed, "{}: {m:?}", m.job_id);
        assert_eq!(
            m.first_offending_run.as_deref(),
            Some("current"),
            "{}: the slowdown starts at the run under test",
            m.job_id
        );
        assert!(
            (m.effect - 0.05).abs() < 0.01,
            "{}: effect {}",
            m.job_id,
            m.effect
        );
        assert!(m.p_value < 1e-3, "{}: p {}", m.job_id, m.p_value);
    }
}

#[test]
fn fixture_headers_order_the_series() {
    let history = History::load_dir(history_dir()).expect("fixture history exists");
    let ids: Vec<_> = history
        .runs()
        .iter()
        .map(|r| r.meta.run_id.clone())
        .collect();
    assert_eq!(ids, ["r1", "r2", "r3", "r4", "r5", "r6"]);
    for (i, run) in history.runs().iter().enumerate() {
        assert_eq!(run.meta.timestamp_us, T0 + i as u64 * HOUR_US);
        assert!(!run.meta.label.is_empty(), "fixtures carry a label");
    }
}

/// A shift that happened *inside* the history (not at the run under
/// test) is attributed to its onset run.
#[test]
fn mid_history_shift_names_the_onset_run() {
    let result = dg1000_quick(Platform::Giraph, 8_000);
    let mut base = ArchiveStore::new();
    base.add(result.report.archive).unwrap();

    let mut history = History::new();
    for i in 0..10 {
        let factor = JITTER[i % JITTER.len()] * if i >= 5 { 1.06 } else { 1.0 };
        let run = RunMeta::new(format!("r{i}"), T0 + i as u64 * HOUR_US, "");
        history.push_store(
            scaled_store(&base, factor).with_run(run),
            format!("r{i}.gar"),
        );
    }
    let (report, _) = analyze(&history, &Tolerance::default());
    assert_eq!(report.verdict, Status::Regressed);
    let makespan = report
        .metrics
        .iter()
        .find(|m| m.metric == MAKESPAN)
        .expect("quick run has a makespan");
    assert_eq!(makespan.status, Status::Regressed);
    assert_eq!(
        makespan.first_offending_run.as_deref(),
        Some("r5"),
        "onset run, not the detection split: {makespan:?}"
    );
    assert_eq!(makespan.n_baseline, 5);
}

/// Satellite: upserting an archive into a live history invalidates the
/// engine's cached query results, so re-extracted series see the new
/// timings instead of stale memos.
#[test]
fn upsert_mid_ingest_invalidates_cached_series() {
    let result = dg1000_quick(Platform::Giraph, 8_000);
    let job_id = result.report.archive.meta.job_id.clone();
    let mut base = ArchiveStore::new();
    base.add(result.report.archive).unwrap();

    let mut history = History::new();
    for (i, factor) in JITTER.iter().take(4).enumerate() {
        let run = RunMeta::new(format!("r{i}"), T0 + i as u64 * HOUR_US, "");
        history.push_store(
            scaled_store(&base, *factor).with_run(run),
            format!("r{i}.gar"),
        );
    }
    let first = history.series();

    // Replace the newest run's archive with a 10%-slower tree, through
    // the engine so its result cache is invalidated.
    let last = history.len() - 1;
    let engine = &history.runs()[last].engine;
    let mut slowed = engine.job(&job_id).unwrap().unwrap().archive().clone();
    scale_timings(&mut slowed.tree, 1.10);
    let swaps = engine.snapshot().swaps;
    engine.upsert(slowed);
    assert!(
        engine.snapshot().swaps > swaps,
        "the upsert published a new generation, so cached phase queries go stale"
    );

    let second = history.series();
    assert_eq!(first.len(), second.len());
    for (a, b) in first.iter().zip(&second) {
        assert_eq!((&a.job_id, &a.metric), (&b.job_id, &b.metric));
        assert_eq!(
            a.values[..last],
            b.values[..last],
            "{}: history untouched",
            a.metric
        );
        let ratio = b.values[last] / a.values[last];
        assert!(
            (ratio - 1.10).abs() < 0.01,
            "{}: upserted timings must be served fresh (ratio {ratio})",
            a.metric
        );
    }
}
