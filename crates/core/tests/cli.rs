//! Integration tests of the `granula-cli` binary: the full analyst
//! round-trip through files — run → archive JSON → inspect / query /
//! breakdown / chokepoints / regression / diff.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_granula-cli"))
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("granula-cli-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("tempdir");
    dir
}

fn run_job(dir: &Path, name: &str, extra: &[&str]) -> PathBuf {
    let out = dir.join(format!("{name}.json"));
    let mut args = vec![
        "run",
        "--platform",
        "giraph",
        "--vertices",
        "2500",
        "--out",
        out.to_str().expect("utf8 path"),
    ];
    args.extend_from_slice(extra);
    let status = cli().args(&args).output().expect("spawn");
    assert!(
        status.status.success(),
        "run failed: {}",
        String::from_utf8_lossy(&status.stderr)
    );
    out
}

#[test]
fn run_inspect_query_breakdown_roundtrip() {
    let dir = workdir("roundtrip");
    let archive = run_job(&dir, "a", &[]);

    let inspect = cli()
        .args(["inspect", archive.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(inspect.status.success());
    let text = String::from_utf8_lossy(&inspect.stdout);
    assert!(text.contains("BFS on Giraph"));
    assert!(text.contains("GiraphJob"));

    let query = cli()
        .args([
            "query",
            archive.to_str().unwrap(),
            "GiraphJob/ProcessGraph/Superstep",
        ])
        .output()
        .unwrap();
    assert!(query.status.success());
    assert!(String::from_utf8_lossy(&query.stdout).contains("operations match"));

    let breakdown = cli()
        .args(["breakdown", archive.to_str().unwrap()])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&breakdown.stdout);
    assert!(text.contains("Setup") && text.contains("Input/output"));

    let choke = cli()
        .args(["chokepoints", archive.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(choke.status.success());

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn regression_passes_identical_and_fails_slower() {
    let dir = workdir("regression");
    let baseline = run_job(&dir, "base", &[]);
    let same = run_job(&dir, "same", &[]);

    let pass = cli()
        .args([
            "regression",
            baseline.to_str().unwrap(),
            same.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        pass.status.success(),
        "{}",
        String::from_utf8_lossy(&pass.stdout)
    );

    // A 4-node run of the same workload is slower end-to-end (less
    // parallelism) but shares the (platform, algorithm, dataset) key.
    let slower = run_job(&dir, "slower", &["--nodes", "4"]);
    let fail = cli()
        .args([
            "regression",
            baseline.to_str().unwrap(),
            slower.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        !fail.status.success(),
        "slower candidate must fail the gate"
    );
    assert!(String::from_utf8_lossy(&fail.stdout).contains("FAIL"));

    // The diff names where the time went.
    let diff = cli()
        .args(["diff", baseline.to_str().unwrap(), slower.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(diff.status.success());
    assert!(String::from_utf8_lossy(&diff.stdout).contains("LoadGraph"));

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn html_report_written() {
    let dir = workdir("report");
    let report = dir.join("r.html");
    run_job(&dir, "a", &["--report", report.to_str().unwrap()]);
    let html = fs::read_to_string(&report).expect("report written");
    assert!(html.contains("<svg"));
    assert!(html.contains("Granula performance report"));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn breakdown_rejects_deeply_nested_json() {
    // Unbounded recursion in the JSON parser used to overflow the stack
    // and abort the process on these files.
    let dir = workdir("deep-json");
    for (name, text) in [
        ("arrays", "[".repeat(200_000)),
        ("objects", "{\"a\":".repeat(200_000)),
    ] {
        let path = dir.join(format!("{name}.json"));
        fs::write(&path, text).expect("write deep json");
        let out = cli()
            .args(["breakdown", path.to_str().unwrap()])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(stderr.contains("recursion limit"), "{name}: {stderr}");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn unknown_subcommand_errors() {
    let out = cli().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));
}

#[test]
fn model_subcommand_exports_shareable_json() {
    let dir = workdir("model");
    let out = dir.join("giraph.json");
    let status = cli()
        .args(["model", "giraph", "--out", out.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(status.status.success());
    let json = fs::read_to_string(&out).unwrap();
    let model = granula_model::model_from_json(&json).expect("model parses");
    assert_eq!(model.name, "giraph-v4");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn suite_writes_every_archive() {
    let dir = workdir("suite");
    let out = cli()
        .args([
            "suite",
            "--out-dir",
            dir.to_str().unwrap(),
            "--vertices",
            "1500",
            "--nodes",
            "4",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let archives = fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
        .count();
    assert_eq!(archives, 15, "3 platforms x 5 algorithms");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn archive_save_query_stat_roundtrip() {
    let dir = workdir("archive");
    let a = run_job(&dir, "a", &[]);
    let store = dir.join("store.gar");

    // Pack the JSON envelope into a binary store.
    let save = cli()
        .args([
            "archive",
            "save",
            store.to_str().unwrap(),
            a.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        save.status.success(),
        "{}",
        String::from_utf8_lossy(&save.stderr)
    );
    assert!(String::from_utf8_lossy(&save.stdout).contains("1 jobs ->"));
    assert!(store.exists());

    // Query it back through the indexed engine; hits list mission paths.
    // An anchored select without a window is cost-planned to the scan
    // (the anchored walk already prunes; see TreeIndex::plan_for).
    let query = cli()
        .args([
            "archive",
            "query",
            store.to_str().unwrap(),
            "*",
            "GiraphJob/ProcessGraph/Superstep",
            "--explain",
        ])
        .output()
        .unwrap();
    assert!(
        query.status.success(),
        "{}",
        String::from_utf8_lossy(&query.stderr)
    );
    let text = String::from_utf8_lossy(&query.stdout);
    assert!(text.contains("plan = full scan"), "{text}");
    assert!(text.contains("operations match"));
    assert!(text.contains("GiraphJob-0/ProcessGraph-0/Superstep-0"));

    // A selective find-all genuinely engages the mission-kind index.
    let find_all = cli()
        .args([
            "archive",
            "query",
            store.to_str().unwrap(),
            "*",
            "ProcessGraph/Superstep",
            "--find-all",
            "--explain",
        ])
        .output()
        .unwrap();
    assert!(find_all.status.success());
    let text = String::from_utf8_lossy(&find_all.stdout);
    assert!(
        text.contains("plan = mission-kind index `Superstep`"),
        "{text}"
    );
    assert!(text.contains("GiraphJob-0/ProcessGraph-0/Superstep-0"));
    // The hits' ids follow the count line, rendered as the daemon's `Q`
    // answer renders them; the run is deterministic, so they are pinned.
    assert!(
        text.contains(
            "cli-giraph-bfs: 8 operations match `ProcessGraph/Superstep`\n\
             ids: 30,65,104,146,188,230,272,312\n"
        ),
        "{text}"
    );

    // A window query routes through the interval index and still matches.
    let windowed = cli()
        .args([
            "archive",
            "query",
            store.to_str().unwrap(),
            "*",
            "*[0..1000000000]",
            "--find-all",
        ])
        .output()
        .unwrap();
    assert!(windowed.status.success());
    assert!(String::from_utf8_lossy(&windowed.stdout).contains("operations match"));

    // Stat reports the index shapes.
    let stat = cli()
        .args(["archive", "stat", store.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(stat.status.success());
    let text = String::from_utf8_lossy(&stat.stdout);
    assert!(text.contains("1 jobs (format v3)"), "{text}");
    assert!(text.contains("mission kinds"));

    // Unknown job ids and truncated stores fail loudly.
    let miss = cli()
        .args([
            "archive",
            "query",
            store.to_str().unwrap(),
            "nope",
            "GiraphJob",
        ])
        .output()
        .unwrap();
    assert!(!miss.status.success());
    assert!(String::from_utf8_lossy(&miss.stderr).contains("no job matches"));

    let truncated = dir.join("truncated.gar");
    let bytes = fs::read(&store).unwrap();
    fs::write(&truncated, &bytes[..bytes.len() / 2]).unwrap();
    let bad = cli()
        .args(["archive", "stat", truncated.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!bad.status.success());

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn flags_before_positionals_parse_correctly() {
    let dir = workdir("flag-order");
    let baseline = run_job(&dir, "base", &[]);
    let same = run_job(&dir, "same", &[]);
    // The flag and its value precede the positionals.
    let out = cli()
        .args([
            "regression",
            "--tolerance",
            "0.2",
            baseline.to_str().unwrap(),
            same.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("PASS"));
    let _ = fs::remove_dir_all(&dir);
}
