//! `granula-cli` — drive the Granula pipeline from the command line.
//!
//! ```text
//! granula-cli run       --platform giraph --algorithm bfs --out a.json [--report r.html]
//! granula-cli inspect   a.json [--depth 3]
//! granula-cli query     a.json "GiraphJob/ProcessGraph/Superstep" [--info Duration]
//! granula-cli breakdown a.json
//! granula-cli chokepoints a.json
//! granula-cli diagnose  a.json
//! granula-cli regression baseline.json candidate.json [--tolerance 0.10]
//! ```
//!
//! Archives are the standardized JSON envelopes of `granula-archive`; every
//! subcommand other than `run` operates on shared archives, which is the
//! collaboration workflow the paper's requirement R2 calls for.

use std::fs;
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;

use gpsim_graph::gen::{datagen_like, GenConfig};
use gpsim_platforms::{Algorithm, JobConfig};
use granula::analysis::{diagnose, find_choke_points, ChokePointConfig, ChokePointKind};
use granula::experiment::{run_experiment, Platform};
use granula::metrics::{DomainBreakdown, Phase};
use granula::regression::RegressionSuite;
use granula_archive::{
    from_json, to_json_pretty, ArchiveStore, JobArchive, Query, QueryEngine, QueryMode,
    ServeOptions, Server, ShardedEngine,
};
use granula_regress::{analyze, render_text, History, Status, Tolerance};
use granula_viz::tree::{render_operation_tree, render_ops};
use granula_viz::trend::{render_trend_svg, TrendChart};

/// A CLI failure with a process exit code. Most errors are operational
/// (code 1); integrity verdicts from `archive fsck` use dedicated codes
/// so CI and operators can gate on *what* failed:
/// 2 = damaged but partially recoverable, 3 = total loss.
struct CliError {
    code: u8,
    message: String,
}

impl CliError {
    fn with_code(code: u8, message: impl Into<String>) -> Self {
        CliError {
            code,
            message: message.into(),
        }
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError { code: 1, message }
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        CliError {
            code: 1,
            message: message.to_string(),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result: Result<(), CliError> = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]).map_err(CliError::from),
        Some("inspect") => cmd_inspect(&args[1..]).map_err(CliError::from),
        Some("query") => cmd_query(&args[1..]).map_err(CliError::from),
        Some("breakdown") => cmd_breakdown(&args[1..]).map_err(CliError::from),
        Some("chokepoints") => cmd_chokepoints(&args[1..]).map_err(CliError::from),
        Some("diagnose") => cmd_diagnose(&args[1..]).map_err(CliError::from),
        Some("regression") => cmd_regression(&args[1..]).map_err(CliError::from),
        Some("diff") => cmd_diff(&args[1..]).map_err(CliError::from),
        Some("model") => cmd_model(&args[1..]).map_err(CliError::from),
        Some("suite") => cmd_suite(&args[1..]).map_err(CliError::from),
        Some("trace") => cmd_trace(&args[1..]).map_err(CliError::from),
        Some("archive") => cmd_archive(&args[1..]),
        Some("regress") => cmd_regress(&args[1..]).map_err(CliError::from),
        Some("serve") => cmd_serve(&args[1..]).map_err(CliError::from),
        Some("help") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(CliError::from(format!(
            "unknown subcommand `{other}` (try `help`)"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError { code, message }) => {
            eprintln!("error: {message}");
            ExitCode::from(code.max(1))
        }
    }
}

fn print_usage() {
    println!(
        "granula-cli — fine-grained performance analysis of graph-processing platforms\n\n\
         subcommands:\n\
         \x20 run        --platform <giraph|powergraph|graphmat|grape|graphx> [--algorithm <bfs|pagerank|wcc|cdlp|sssp>]\n\
         \x20            [--vertices N] [--nodes K] [--seed S] --out <archive.json> [--report <report.html>]\n\
         \x20 inspect    <archive.json> [--depth N]\n\
         \x20 query      <archive.json> <path-query> [--info <name>]\n\
         \x20 breakdown  <archive.json>\n\
         \x20 chokepoints <archive.json>\n\
         \x20 diagnose   <archive.json>\n\
         \x20 regression <baseline.json> <candidate.json> [--tolerance 0.10]\n\
         \x20 diff       <baseline.json> <candidate.json> [--min-delta-ms 50] [--limit 20]\n\
         \x20 model      <giraph|powergraph|graphmat|grape|graphx> [--out model.json]\n\
         \x20 suite      --out-dir <dir> [--vertices N] [--nodes K]\n\
         \x20 trace      <quickstart|fig5> [--out trace.json] [--metrics metrics.txt]\n\
         \x20 archive    save  <store.gar> <archive.json> [more.json ...]\n\
         \x20 archive    query <store.gar> <job-id|*> <path-query> [--find-all] [--explain]\n\
         \x20 archive    stat  <store.gar>\n\
         \x20 archive    fsck  <store.gar> [--repair] [--out <repaired.gar>]\n\
         \x20 archive    fuzz  <store.gar> [--mutations 1000] [--seed 42]\n\
         \x20 regress    <history-dir> [--current <store.gar>] [--out regress.json] [--svg trend.svg]\n\
         \x20            [--tolerance 0.02] [--alpha 1e-3] [--window 4] [--label <text>]\n\
         \x20 serve      <fleet.gar> [more.gar ...] [--addr 127.0.0.1:7071] [--shards 8]\n\
         \x20            [--resident 64] [--cache 256]\n\n\
         exit codes: 0 ok | 1 error | 2 fsck: archive damaged | 3 fsck: total loss"
    );
}

/// Pulls `--flag value` out of an argument list.
fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// The `index`-th positional argument: flags and the values that follow
/// them are skipped, so `regression --tolerance 0.2 a.json b.json` yields
/// `a.json` at index 0.
fn positional(args: &[String], index: usize) -> Option<&String> {
    let mut seen = 0;
    let mut i = 0;
    while i < args.len() {
        if args[i].starts_with("--") {
            i += 2; // skip the flag and its value
            continue;
        }
        if seen == index {
            return Some(&args[i]);
        }
        seen += 1;
        i += 1;
    }
    None
}

fn load_archive(path: &str) -> Result<JobArchive, String> {
    let json = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    from_json(&json).map_err(|e| format!("parsing {path}: {e}"))
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let platform = match flag(args, "--platform").as_deref() {
        Some("giraph") => Platform::Giraph,
        Some("powergraph") => Platform::PowerGraph,
        Some("graphmat") => Platform::GraphMat,
        Some("grape") => Platform::Grape,
        Some("graphx") => Platform::GraphX,
        Some(other) => return Err(format!("unknown platform `{other}`")),
        None => return Err("--platform is required".into()),
    };
    let vertices: u32 = flag(args, "--vertices")
        .map(|v| v.parse().map_err(|e| format!("--vertices: {e}")))
        .transpose()?
        .unwrap_or(20_000);
    let nodes: u16 = flag(args, "--nodes")
        .map(|v| v.parse().map_err(|e| format!("--nodes: {e}")))
        .transpose()?
        .unwrap_or(8);
    let seed: u64 = flag(args, "--seed")
        .map(|v| v.parse().map_err(|e| format!("--seed: {e}")))
        .transpose()?
        .unwrap_or(42);
    let algorithm = match flag(args, "--algorithm").as_deref() {
        None | Some("bfs") => Algorithm::Bfs { source: 1 },
        Some("pagerank") => Algorithm::PageRank { iterations: 10 },
        Some("wcc") => Algorithm::Wcc,
        Some("cdlp") => Algorithm::Cdlp { iterations: 5 },
        Some("sssp") => Algorithm::Sssp { source: 1 },
        Some(other) => return Err(format!("unknown algorithm `{other}`")),
    };
    let out = flag(args, "--out").ok_or("--out is required")?;

    println!(
        "running {} {} on {} nodes ({} vertices, seed {seed}) ...",
        platform.name(),
        algorithm.name(),
        nodes,
        vertices
    );
    let graph = if matches!(algorithm, Algorithm::Sssp { .. }) {
        gpsim_graph::gen::with_uniform_weights(
            &datagen_like(&GenConfig::datagen(vertices, seed)),
            4.0,
            seed,
        )
    } else {
        datagen_like(&GenConfig::datagen(vertices, seed))
    };
    let costs = match platform {
        Platform::Giraph => granula::calibration::giraph_costs(),
        Platform::PowerGraph => granula::calibration::powergraph_costs(),
        Platform::GraphMat => granula::calibration::graphmat_costs(),
        Platform::Grape => granula::calibration::grape_costs(),
        Platform::GraphX => granula::calibration::graphx_costs(),
    };
    let cfg = JobConfig::new(
        format!(
            "cli-{}-{}",
            platform.name().to_lowercase(),
            algorithm.name().to_lowercase()
        ),
        format!("datagen-{vertices}"),
        algorithm,
        nodes,
        costs,
    )
    .with_scale(1.03e9 / (vertices as f64 * 10.0));

    let result = run_experiment(platform, &graph, &cfg).map_err(|e| e.to_string())?;
    let json = to_json_pretty(&result.report.archive).map_err(|e| e.to_string())?;
    fs::write(&out, &json).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "archived {} operations / {} infos to {out} ({} bytes); validation {}",
        result.report.archive.num_operations(),
        result.report.archive.num_infos(),
        json.len(),
        if result.report.validation.is_clean() {
            "clean"
        } else {
            "has issues"
        }
    );

    if let Some(report_path) = flag(args, "--report") {
        let html = granula_viz::report::html_report(&result.report.archive, &result.report.env);
        fs::write(&report_path, html).map_err(|e| format!("writing {report_path}: {e}"))?;
        println!("HTML report written to {report_path}");
    }
    Ok(())
}

fn cmd_inspect(args: &[String]) -> Result<(), String> {
    let path = positional(args, 0).ok_or("usage: inspect <archive.json> [--depth N]")?;
    let depth: usize = flag(args, "--depth")
        .map(|v| v.parse().map_err(|e| format!("--depth: {e}")))
        .transpose()?
        .unwrap_or(2);
    let archive = load_archive(path)?;
    let meta = &archive.meta;
    println!(
        "{}: {} on {} ({} nodes), model `{}`",
        meta.job_id, meta.algorithm, meta.platform, meta.nodes, meta.model
    );
    println!(
        "{} operations, {} infos, total runtime {:.2}s\n",
        archive.num_operations(),
        archive.num_infos(),
        archive.total_runtime_us().unwrap_or(0) as f64 / 1e6
    );
    print!("{}", render_operation_tree(&archive.tree, depth));
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let path = positional(args, 0).ok_or("usage: query <archive.json> <query>")?;
    let text = positional(args, 1).ok_or("usage: query <archive.json> <query>")?;
    let archive = load_archive(path)?;
    let query = Query::parse(text).map_err(|e| e.to_string())?;
    let mut hits = query.select(&archive.tree);
    if hits.is_empty() {
        hits = query.find_all(&archive.tree);
        if !hits.is_empty() {
            println!("(no absolute-path match; showing find-all results)");
        }
    }
    let info = flag(args, "--info");
    println!("{} operations match `{query}`:", hits.len());
    for id in hits {
        let op = archive.tree.op(id);
        match &info {
            Some(name) => println!(
                "  {:<40} {name}={:?}",
                op.label(),
                op.info_value(name)
                    .cloned()
                    .unwrap_or(granula_model::InfoValue::Text("-".into()))
            ),
            None => println!(
                "  {:<40} duration {:.3}s, {} infos",
                op.label(),
                op.duration_us().unwrap_or(0) as f64 / 1e6,
                op.infos.len()
            ),
        }
    }
    Ok(())
}

fn cmd_breakdown(args: &[String]) -> Result<(), String> {
    let path = positional(args, 0).ok_or("usage: breakdown <archive.json>")?;
    let archive = load_archive(path)?;
    let b = DomainBreakdown::from_archive(&archive).ok_or("archive has no runtime")?;
    println!("total runtime: {:.2}s", b.total_s());
    for phase in [Phase::Setup, Phase::InputOutput, Phase::Processing] {
        println!(
            "  {:<14} {:>9.2}s  ({:>5.1}%)",
            phase.label(),
            b.phase_us(phase) as f64 / 1e6,
            100.0 * b.fraction(phase)
        );
    }
    Ok(())
}

fn cmd_chokepoints(args: &[String]) -> Result<(), String> {
    let path = positional(args, 0).ok_or("usage: chokepoints <archive.json>")?;
    let archive = load_archive(path)?;
    let findings = find_choke_points(&archive, &ChokePointConfig::default());
    if findings.is_empty() {
        println!("no choke points above thresholds");
        return Ok(());
    }
    for c in findings.iter().take(10) {
        let kind = match &c.kind {
            ChokePointKind::DominantFraction { fraction } => {
                format!("dominates parent ({:.0}%)", fraction * 100.0)
            }
            ChokePointKind::LatencyBound { cpu_mean } => {
                format!("latency-bound ({cpu_mean:.2} busy cores)")
            }
            ChokePointKind::Imbalance {
                max_over_mean,
                actors,
            } => {
                format!("imbalance across {actors} actors (max/mean {max_over_mean:.2})")
            }
            ChokePointKind::RecoveryOverhead { worker, wasted_us } => {
                format!(
                    "recovery after losing {worker} ({:.1} s wasted)",
                    *wasted_us as f64 / 1e6
                )
            }
        };
        println!(
            "severity {:>5.1}%  {:<46} {}",
            c.severity * 100.0,
            c.label,
            kind
        );
    }
    Ok(())
}

fn cmd_diagnose(args: &[String]) -> Result<(), String> {
    let path = positional(args, 0).ok_or("usage: diagnose <archive.json>")?;
    let archive = load_archive(path)?;
    // Offline archives carry no assembly warnings; diagnose from structure.
    let report = diagnose(&archive, &[]);
    println!("healthy: {}", report.is_healthy());
    println!("job completed: {}", report.job_completed);
    if !report.unclosed.is_empty() {
        println!("unclosed operations:");
        for label in &report.unclosed {
            println!("  {label}");
        }
    }
    if let Some(node) = report.suspected_node {
        println!("suspected node: {node}");
    }
    Ok(())
}

fn cmd_suite(args: &[String]) -> Result<(), String> {
    let out_dir = flag(args, "--out-dir").ok_or("--out-dir is required")?;
    let mut suite = granula::BenchmarkSuite::default();
    if let Some(v) = flag(args, "--vertices") {
        suite.vertices = v.parse().map_err(|e| format!("--vertices: {e}"))?;
    }
    if let Some(n) = flag(args, "--nodes") {
        suite.nodes = n.parse().map_err(|e| format!("--nodes: {e}"))?;
    }
    println!(
        "running {} jobs ({} platforms x {} algorithms) ...",
        suite.platforms.len() * suite.algorithms.len(),
        suite.platforms.len(),
        suite.algorithms.len()
    );
    let report = suite.run();
    print!("{}", report.render_text());
    fs::create_dir_all(&out_dir).map_err(|e| format!("creating {out_dir}: {e}"))?;
    let mut written = 0;
    for archive in report.store.iter() {
        let path = format!("{out_dir}/{}.json", archive.meta.job_id);
        let json = to_json_pretty(archive).map_err(|e| e.to_string())?;
        fs::write(&path, json).map_err(|e| format!("writing {path}: {e}"))?;
        written += 1;
    }
    println!("{written} archives written to {out_dir}/ (inspect/query/diff them)");
    if report.rows.iter().any(|r| !r.validated) {
        return Err("some outputs failed validation".into());
    }
    Ok(())
}

fn cmd_model(args: &[String]) -> Result<(), String> {
    let model = match positional(args, 0).map(String::as_str) {
        Some("giraph") => granula::models::giraph_model(),
        Some("powergraph") => granula::models::powergraph_model(),
        Some("graphmat") => granula::models::graphmat_model(),
        Some("grape") => granula::models::grape_model(),
        Some("graphx") => granula::models::graphx_model(),
        Some(other) => return Err(format!("unknown model `{other}`")),
        None => {
            return Err(
                "usage: model <giraph|powergraph|graphmat|grape|graphx> [--out file]".into(),
            )
        }
    };
    print!("{}", granula_viz::tree::render_model(&model));
    if let Some(out) = flag(args, "--out") {
        let json = granula_model::model_to_json(&model).map_err(|e| e.to_string())?;
        fs::write(&out, json).map_err(|e| format!("writing {out}: {e}"))?;
        println!("model written to {out} (shareable JSON)");
    }
    Ok(())
}

fn cmd_diff(args: &[String]) -> Result<(), String> {
    let baseline = positional(args, 0).ok_or("usage: diff <baseline> <candidate>")?;
    let candidate = positional(args, 1).ok_or("usage: diff <baseline> <candidate>")?;
    let min_delta_ms: u64 = flag(args, "--min-delta-ms")
        .map(|v| v.parse().map_err(|e| format!("--min-delta-ms: {e}")))
        .transpose()?
        .unwrap_or(50);
    let limit: usize = flag(args, "--limit")
        .map(|v| v.parse().map_err(|e| format!("--limit: {e}")))
        .transpose()?
        .unwrap_or(20);
    let rows = granula_viz::diff_archives(
        &load_archive(baseline)?,
        &load_archive(candidate)?,
        min_delta_ms * 1_000,
    );
    print!("{}", granula_viz::render_diff(&rows, limit));
    Ok(())
}

/// `trace <experiment>` — run an experiment with the self-observability
/// layer enabled and export a Chrome trace-event JSON (load it in
/// `chrome://tracing` or Perfetto) plus a metrics snapshot.
fn cmd_trace(args: &[String]) -> Result<(), String> {
    let experiment = positional(args, 0)
        .map(String::as_str)
        .unwrap_or("quickstart");
    let out = flag(args, "--out").unwrap_or_else(|| "trace.json".into());

    granula_trace::reset();
    granula_trace::enable();
    let results = match experiment {
        "quickstart" => vec![granula::experiment::dg1000_quick(Platform::Giraph, 5_000)],
        "fig5" => {
            let platforms = [Platform::Giraph, Platform::PowerGraph];
            granula::experiment::par_map(&platforms, granula::experiment::default_threads(), |p| {
                granula::experiment::dg1000(*p)
            })
        }
        other => {
            granula_trace::disable();
            return Err(format!(
                "unknown experiment `{other}` (try quickstart or fig5)"
            ));
        }
    };
    // Drive the visualization stage (and the archive query path) so the
    // trace covers all four Granula sub-processes, not just P1-P3.
    let query = Query::parse("*/ProcessGraph").map_err(|e| e.to_string())?;
    for result in &results {
        let archive = &result.report.archive;
        let _ = query.find_all(&archive.tree);
        let _ = granula_viz::report::html_report(archive, &result.report.env);
    }
    granula_trace::disable();

    let spans = granula_trace::take_spans();
    let json = granula_trace::chrome_trace_json(&spans);
    fs::write(&out, &json).map_err(|e| format!("writing {out}: {e}"))?;

    let mut stages: std::collections::BTreeMap<&str, usize> = Default::default();
    for s in &spans {
        *stages.entry(s.stage).or_default() += 1;
    }
    println!(
        "traced `{experiment}`: {} spans over {} stages -> {out} ({} bytes)",
        spans.len(),
        stages.len(),
        json.len()
    );
    for (stage, n) in &stages {
        println!("  {stage:<14} {n} spans");
    }
    let metrics = granula_trace::metrics_snapshot();
    match flag(args, "--metrics") {
        Some(path) => {
            fs::write(&path, &metrics).map_err(|e| format!("writing {path}: {e}"))?;
            println!("metrics snapshot -> {path}");
        }
        None => print!("{metrics}"),
    }
    Ok(())
}

/// `archive <save|query|stat>` — build, interrogate, and summarize
/// persistent binary archive stores (`.gar`). `save` packs shared JSON
/// envelopes into one indexed store; `query` serves path queries through
/// the indexed [`QueryEngine`]; `stat` reports per-job index shapes.
fn cmd_archive(args: &[String]) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("save") => cmd_archive_save(&args[1..]).map_err(CliError::from),
        Some("query") => cmd_archive_query(&args[1..]).map_err(CliError::from),
        Some("stat") => cmd_archive_stat(&args[1..]).map_err(CliError::from),
        Some("fsck") => cmd_archive_fsck(&args[1..]),
        Some("fuzz") => cmd_archive_fuzz(&args[1..]).map_err(CliError::from),
        Some(other) => Err(CliError::from(format!(
            "unknown archive action `{other}` (try `help`)"
        ))),
        None => Err(CliError::from(
            "usage: archive <save|query|stat|fsck|fuzz> ...",
        )),
    }
}

fn cmd_archive_save(args: &[String]) -> Result<(), String> {
    let out = positional(args, 0).ok_or("usage: archive save <store.gar> <archive.json> ...")?;
    let mut store = ArchiveStore::new();
    let mut i = 1;
    while let Some(path) = positional(args, i) {
        let archive = load_archive(path)?;
        let job_id = archive.meta.job_id.clone();
        store
            .add(archive)
            .map_err(|e| format!("adding {path}: {e}"))?;
        println!("packed {path} (job `{job_id}`)");
        i += 1;
    }
    if store.is_empty() {
        return Err("usage: archive save <store.gar> <archive.json> ...".into());
    }
    store.save(out).map_err(|e| format!("writing {out}: {e}"))?;
    let bytes = fs::metadata(out).map(|m| m.len()).unwrap_or(0);
    println!("{} jobs -> {out} ({bytes} bytes)", store.len());
    Ok(())
}

fn cmd_archive_query(args: &[String]) -> Result<(), String> {
    const USAGE: &str =
        "usage: archive query <store.gar> <job-id|*> <query> [--find-all] [--explain]";
    let store_path = positional(args, 0).ok_or(USAGE)?;
    let job_pat = positional(args, 1).ok_or(USAGE)?;
    let text = positional(args, 2).ok_or(USAGE)?;
    let query = Query::parse(text).map_err(|e| e.to_string())?;
    let mode = if args.iter().any(|a| a == "--find-all") {
        QueryMode::FindAll
    } else {
        QueryMode::Select
    };
    let mut engine =
        QueryEngine::load(store_path).map_err(|e| format!("loading {store_path}: {e}"))?;
    let jobs: Vec<String> = engine
        .store()
        .iter()
        .map(|a| a.meta.job_id.clone())
        .filter(|id| job_pat == "*" || id == job_pat)
        .collect();
    if jobs.is_empty() {
        return Err(format!("no job matches `{job_pat}` in {store_path}"));
    }
    for job_id in jobs {
        if args.iter().any(|a| a == "--explain") {
            if let Some(plan) = engine.explain(&job_id, &query, mode) {
                println!("# {job_id}: plan = {plan}");
            }
        }
        let hits = engine
            .query(&job_id, &query, mode)
            .ok_or_else(|| format!("job `{job_id}` vanished from the store"))?;
        println!("{job_id}: {} operations match `{query}`", hits.len());
        let tree = &engine.store().get(&job_id).expect("job listed above").tree;
        print!("{}", render_ops(tree, &hits));
    }
    Ok(())
}

fn cmd_archive_stat(args: &[String]) -> Result<(), String> {
    let store_path = positional(args, 0).ok_or("usage: archive stat <store.gar>")?;
    let engine = QueryEngine::load(store_path).map_err(|e| format!("loading {store_path}: {e}"))?;
    println!(
        "{store_path}: {} jobs (format v{})",
        engine.store().len(),
        granula_archive::BIN_FORMAT_VERSION
    );
    for archive in engine.store().iter() {
        let meta = &archive.meta;
        let idx = engine.index(&meta.job_id).expect("every job is indexed");
        println!(
            "  {:<28} {} on {} | {} ops, {} infos | index: {} mission kinds, {} actor kinds, {} timestamped",
            meta.job_id,
            meta.algorithm,
            meta.platform,
            archive.num_operations(),
            archive.num_infos(),
            idx.num_mission_kinds(),
            idx.num_actor_kinds(),
            idx.num_timestamped()
        );
    }
    Ok(())
}

/// `archive fsck <store.gar>`: verifies every checksum of a `.gar` file
/// and reports, frame by frame, what a corrupted file still holds. The
/// last line of output is a machine-parseable summary
/// (`fsck: status=... key=value ...`), and the exit code is the verdict
/// CI and operators gate on: 0 clean, 2 damaged-but-recoverable, 3
/// total loss, 1 operational error (unreadable file, bad flags).
/// `--repair` writes the salvaged store (atomically, durably) and exits
/// zero as long as anything was recovered.
fn cmd_archive_fsck(args: &[String]) -> Result<(), CliError> {
    const USAGE: &str = "usage: archive fsck <store.gar> [--repair] [--out <repaired.gar>]";
    let store_path = positional(args, 0).ok_or(USAGE)?;
    let report = ArchiveStore::salvage(store_path).map_err(|e| format!("{store_path}: {e}"))?;
    print!("{store_path}: {}", report.render_text());
    let status = if report.clean {
        "clean"
    } else if report.is_total_loss() {
        "lost"
    } else {
        "corrupt"
    };
    println!(
        "fsck: status={status} file={store_path} recovered={} lost={} expected={} trailer={} run={}",
        report.recovered.len(),
        report.lost.len(),
        report
            .expected_jobs
            .map(|n| n.to_string())
            .unwrap_or_else(|| "?".to_string()),
        if report.trailer_intact { "intact" } else { "damaged" },
        if report.run_recovered { "yes" } else { "no" },
    );
    if report.clean {
        return Ok(());
    }
    if report.is_total_loss() {
        return Err(CliError::with_code(
            3,
            format!("{store_path}: total loss, nothing recoverable"),
        ));
    }
    if !args.iter().any(|a| a == "--repair") {
        return Err(CliError::with_code(
            2,
            format!(
                "{store_path} is corrupt ({} of {} job(s) recoverable; re-run with --repair to keep them)",
                report.recovered.len(),
                report
                    .expected_jobs
                    .map(|n| n.to_string())
                    .unwrap_or_else(|| "?".to_string()),
            ),
        ));
    }
    let out = flag(args, "--out").unwrap_or_else(|| store_path.clone());
    report
        .store
        .save(&out)
        .map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "repaired -> {out}: kept {} job(s), dropped {}",
        report.recovered.len(),
        report.lost.len()
    );
    Ok(())
}

/// `archive fuzz <store.gar>`: the bounded-time corruption smoke. Loads
/// the store's bytes, applies N seeded mutations (truncations, bit
/// flips, torn tails), and feeds each corrupted copy to the strict
/// loader and the salvage path. Any panic aborts the process — the
/// absence of one over the run is the proof CI wants. Exits nonzero only
/// if a salvage "recovers" a job the pristine store never held.
fn cmd_archive_fuzz(args: &[String]) -> Result<(), String> {
    const USAGE: &str = "usage: archive fuzz <store.gar> [--mutations 1000] [--seed 42]";
    let store_path = positional(args, 0).ok_or(USAGE)?;
    let mutations: u64 = flag(args, "--mutations")
        .map(|v| v.parse().map_err(|e| format!("--mutations: {e}")))
        .transpose()?
        .unwrap_or(1000);
    let seed: u64 = flag(args, "--seed")
        .map(|v| v.parse().map_err(|e| format!("--seed: {e}")))
        .transpose()?
        .unwrap_or(42);
    let base = fs::read(store_path).map_err(|e| format!("reading {store_path}: {e}"))?;
    let pristine =
        granula_archive::store_from_bytes(&base).map_err(|e| format!("{store_path}: {e}"))?;
    let known: Vec<String> = pristine.iter().map(|a| a.meta.job_id.clone()).collect();
    let mut mutator = granula_archive::Mutator::new(seed);
    let (mut loaded, mut salvaged_some, mut rejected) = (0u64, 0u64, 0u64);
    for _ in 0..mutations {
        let (bytes, mutation) = mutator.mutate(&base);
        match granula_archive::store_from_bytes(&bytes) {
            Ok(_) => loaded += 1,
            Err(_) => {
                let r = granula_archive::salvage_from_bytes(&bytes);
                for id in &r.recovered {
                    if !known.contains(id) {
                        return Err(format!(
                            "mutation {mutation} fabricated job `{id}` out of corruption"
                        ));
                    }
                }
                if r.recovered.is_empty() && !r.run_recovered {
                    rejected += 1;
                } else {
                    salvaged_some += 1;
                }
            }
        }
    }
    println!(
        "fuzz {store_path}: {mutations} mutations (seed {seed}) | \
         {loaded} loaded clean, {salvaged_some} partially salvaged, {rejected} rejected | 0 panics"
    );
    Ok(())
}

/// `regress <history-dir>`: the continuous performance-regression
/// service. Ingests every `.gar` store in the directory as a time
/// series (ordered by run header), optionally appends the run under
/// test, and verdicts each per-job metric through the statistical
/// detector of `granula-regress`. Exits nonzero on a `regressed`
/// verdict so CI can gate on it.
fn cmd_regress(args: &[String]) -> Result<(), String> {
    const USAGE: &str = "usage: regress <history-dir> [--current <store.gar>] [--out regress.json] \
                         [--svg trend.svg] [--tolerance 0.02] [--alpha 1e-3] [--window 4] [--label <text>] \
                         [--scale-current <factor>]";
    let dir = positional(args, 0).ok_or(USAGE)?;
    let mut tol = Tolerance::default();
    if let Some(v) = flag(args, "--tolerance") {
        tol.rel = v.parse().map_err(|e| format!("--tolerance: {e}"))?;
    }
    if let Some(v) = flag(args, "--alpha") {
        tol.alpha = v.parse().map_err(|e| format!("--alpha: {e}"))?;
    }
    if let Some(v) = flag(args, "--window") {
        tol.window = v.parse().map_err(|e| format!("--window: {e}"))?;
    }
    let mut history = History::load_dir(dir).map_err(|e| format!("loading {dir}: {e}"))?;
    if let Some(current) = flag(args, "--current") {
        let mut store =
            ArchiveStore::load(&current).map_err(|e| format!("loading {current}: {e}"))?;
        // Deterministic slowdown injection, for smoke-testing the gate
        // itself (CI runs the fresh store twice: unscaled expecting `ok`,
        // scaled past the band expecting a nonzero exit).
        if let Some(factor) = flag(args, "--scale-current") {
            let factor: f64 = factor
                .parse()
                .map_err(|e| format!("--scale-current: {e}"))?;
            store = granula_regress::scaled_store(&store, factor);
        }
        if let Some(label) = flag(args, "--label") {
            let mut run = store.run().clone();
            run.label = label;
            store.set_run(run);
        }
        let source = std::path::Path::new(&current)
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| current.clone());
        history.push_latest(store, source);
    }
    if history.is_empty() {
        return Err(format!("no .gar stores found under {dir}"));
    }
    let (report, analyzed) = analyze(&mut history, &tol);
    print!("{}", render_text(&report));
    let out = flag(args, "--out").unwrap_or_else(|| "regress.json".to_string());
    let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    fs::write(&out, json).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {out}");
    if let Some(svg_path) = flag(args, "--svg") {
        let charts: Vec<TrendChart> = analyzed
            .iter()
            .map(|a| {
                let mut chart =
                    TrendChart::new(format!("{} {}", a.series.job_id, a.series.metric), "us");
                for (i, value) in a.series.values.iter().enumerate() {
                    chart.push(report.runs[a.series.run_indexes[i]].run_id.clone(), *value);
                }
                let m = a.detection.baseline_mean;
                chart.band = Some((m * (1.0 - tol.rel), m * (1.0 + tol.rel)));
                chart.flagged = a.detection.first_offending;
                chart
            })
            .collect();
        fs::write(&svg_path, render_trend_svg(&charts))
            .map_err(|e| format!("writing {svg_path}: {e}"))?;
        println!("wrote {svg_path}");
    }
    if report.verdict == Status::Regressed {
        return Err("performance regression detected (see report above)".to_string());
    }
    Ok(())
}

/// `serve <fleet.gar ...>`: the long-lived archive daemon. Opens every
/// fleet file zero-copy (mmap + trailer extents; jobs decode on first
/// query), shards jobs by id, and serves the line protocol of
/// `granula_archive::serve` until a loopback client sends `SHUTDOWN`.
/// The first stdout line (`serving N jobs ... on ADDR`) is flushed before
/// the accept loop starts, so wrappers can scrape the bound address when
/// `--addr` ends in `:0`.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    const USAGE: &str = "usage: serve <fleet.gar> [more.gar ...] [--addr host:port] \
                         [--shards N] [--resident N] [--cache N]";
    let mut options = ServeOptions::default();
    if let Some(v) = flag(args, "--shards") {
        options.shards = v.parse().map_err(|e| format!("--shards: {e}"))?;
    }
    if let Some(v) = flag(args, "--resident") {
        options.resident_capacity = v.parse().map_err(|e| format!("--resident: {e}"))?;
    }
    if let Some(v) = flag(args, "--cache") {
        options.result_capacity = v.parse().map_err(|e| format!("--cache: {e}"))?;
    }
    let addr = flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:7071".to_string());
    let mut paths = Vec::new();
    let mut i = 0;
    while let Some(path) = positional(args, i) {
        paths.push(path.clone());
        i += 1;
    }
    if paths.is_empty() {
        return Err(USAGE.into());
    }
    let engine = Arc::new(
        ShardedEngine::open_fleet(&paths, options).map_err(|e| format!("opening fleet: {e}"))?,
    );
    let server =
        Server::bind(Arc::clone(&engine), &addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let bound = server.local_addr().map_err(|e| e.to_string())?;
    println!(
        "serving {} jobs from {} file(s) over {} shards on {bound}",
        engine.len(),
        paths.len(),
        options.shards.max(1)
    );
    // Flush before blocking in accept: under a pipe stdout is
    // block-buffered, and wrappers scrape this line for the bound port.
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    server.run().map_err(|e| format!("serve loop: {e}"))?;
    println!("shutdown requested; daemon exiting");
    Ok(())
}

fn cmd_regression(args: &[String]) -> Result<(), String> {
    let baseline = positional(args, 0).ok_or("usage: regression <baseline> <candidate>")?;
    let candidate = positional(args, 1).ok_or("usage: regression <baseline> <candidate>")?;
    let tolerance: f64 = flag(args, "--tolerance")
        .map(|v| v.parse().map_err(|e| format!("--tolerance: {e}")))
        .transpose()?
        .unwrap_or(0.10);
    let mut suite = RegressionSuite::new(tolerance);
    suite.add_baseline(load_archive(baseline)?);
    let cand = load_archive(candidate)?;
    let report = suite
        .check(&cand)
        .ok_or("baseline and candidate do not share (platform, algorithm, dataset)")?;
    if report.passed() {
        println!("PASS: no phase regressed beyond {:.0}%", tolerance * 100.0);
    } else {
        println!("FAIL:");
        for r in &report.regressions {
            println!(
                "  {:<14} {:>9.2}s -> {:>9.2}s  ({:+.1}%)",
                r.subject,
                r.baseline_us as f64 / 1e6,
                r.candidate_us as f64 / 1e6,
                100.0 * r.change
            );
        }
    }
    for r in &report.improvements {
        println!(
            "  improved: {:<14} {:>9.2}s -> {:>9.2}s  ({:+.1}%)",
            r.subject,
            r.baseline_us as f64 / 1e6,
            r.candidate_us as f64 / 1e6,
            100.0 * r.change
        );
    }
    if report.passed() {
        Ok(())
    } else {
        Err("performance regression detected".into())
    }
}
