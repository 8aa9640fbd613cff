//! The cross-platform choke-point matrix: all four engine paradigms ×
//! {BFS, PageRank} × partitioner, through the identical Granula pipeline.
//!
//! The paper decomposes two platforms; "Experimental Analysis of
//! Distributed Graph Systems" shows the interesting choke points only
//! appear *across* paradigms. This driver runs the vertex-centric
//! (Giraph), GAS (PowerGraph), subgraph-centric (GRAPE, under both its
//! hash and block edge-cut partitioners) and dataflow (GraphX) engines on
//! the same dg1000-scaled workload, reads each archive's dominant domain
//! phase, and renders the matrix as text + SVG.
//!
//! ```text
//! choke_matrix [--vertices N] [--archive-dir DIR] [--json-out FILE]
//!              [--update-fixtures] [--trace-out trace.json]
//! ```
//!
//! * `--vertices N` — logical graph size (default 20 000; volumes are
//!   scaled to dg1000 regardless, so smaller N is a faster smoke run).
//! * `--archive-dir DIR` — write one `.gar` store per engine row, each
//!   holding that row's archived runs (`granula-cli archive fsck`-able).
//! * `--json-out FILE` — machine-readable cells (`BENCH_matrix.json`).
//! * `--update-fixtures` — regenerate `tests/fixtures/history/grape/`,
//!   the six-run history `granula-cli regress` gates the GRAPE headline
//!   against in CI.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use gpsim_cluster::{ClusterSpec, FaultPlan};
use gpsim_platforms::common::reference_output;
use gpsim_platforms::{Algorithm, Engine, GrapePartitioner, GrapePlatform};
use granula::calibration;
use granula::experiment::{run_experiment_on, Platform};
use granula_archive::{ArchiveStore, JobArchive, RunMeta};
use granula_bench::{header, save_figure};
use granula_regress::scaled_store;
use granula_viz::{MatrixCell, MatrixChart};

const DOMAIN_KINDS: [&str; 5] = [
    "Startup",
    "LoadGraph",
    "ProcessGraph",
    "OffloadGraph",
    "Cleanup",
];

/// Jitter factors for the fixture history, mirroring
/// `tests/regress_history.rs`: real variance for the t-tests, far inside
/// the ±2 % tolerance band.
const JITTER: [f64; 6] = [0.9985, 1.0022, 0.9993, 1.0011, 1.0004, 0.9978];
const T0: u64 = 1_700_000_000_000_000;
const HOUR_US: u64 = 3_600_000_000;

/// One engine row of the matrix.
struct EngineRow {
    engine: Engine,
    /// Label of the engine's partitioner.
    partitioner: &'static str,
}

impl EngineRow {
    /// A row running `platform` with default knobs.
    fn default_knobs(platform: Platform, partitioner: &'static str) -> Self {
        EngineRow {
            engine: platform.engine(),
            partitioner,
        }
    }

    /// A GRAPE row under `partitioner`.
    fn grape(partitioner: GrapePartitioner) -> Self {
        EngineRow {
            engine: Engine::Grape(GrapePlatform {
                partitioner,
                ..GrapePlatform::default()
            }),
            partitioner: partitioner.name(),
        }
    }

    fn platform(&self) -> Platform {
        Platform::of(&self.engine)
    }

    fn label(&self) -> String {
        format!("{}/{}", self.platform().name(), self.partitioner)
    }
}

/// One evaluated cell, with everything the JSON report needs.
struct CellResult {
    archive: JobArchive,
    cell: MatrixCell,
    iterations: u32,
    validated: bool,
}

fn opt(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn grape_fixtures_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/bench; fixtures live at the repo root.
    // The subdirectory keeps this history invisible to the fig5 regress
    // gate (`History::load_dir` is not recursive).
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/history/grape")
}

/// Runs one (engine row, algorithm) job through the full pipeline.
fn run_cell(row: &EngineRow, algorithm: Algorithm, graph: &gpsim_graph::Graph) -> CellResult {
    let scale = 1.03e9 / (graph.num_vertices() as f64 * 10.0);
    let platform = row.platform();
    let mut cfg = platform.dg1000_job();
    cfg.algorithm = algorithm;
    cfg.scale_factor = scale;
    cfg.job_id = format!(
        "matrix-{}-{}-{}",
        platform.name().to_lowercase(),
        row.partitioner,
        algorithm.name().to_lowercase()
    );
    let cluster = ClusterSpec::das5(cfg.nodes);
    let r = run_experiment_on(&row.engine, graph, &cfg, &cluster, &FaultPlan::new())
        .expect("matrix simulations are well-formed");
    let warnings = &r.report.assembly_warnings;
    assert!(
        warnings.is_empty(),
        "{}: {:?}",
        cfg.job_id,
        &warnings[..3.min(warnings.len())]
    );
    let archive = r.report.archive;
    let validated = r.run.output.matches(&reference_output(graph, algorithm));
    let total_us = archive.total_runtime_us().unwrap_or(r.run.makespan_us);
    let (bottleneck, dominant_us) = DOMAIN_KINDS
        .iter()
        .map(|k| (*k, archive.total_duration_of_us(k)))
        .max_by_key(|(_, us)| *us)
        .expect("five domain kinds");
    CellResult {
        cell: MatrixCell {
            total_us,
            bottleneck: bottleneck.into(),
            bottleneck_frac: dominant_us as f64 / total_us.max(1) as f64,
        },
        archive,
        iterations: r.run.iterations,
        validated,
    }
}

fn update_grape_fixtures(headline: &JobArchive) {
    let dir = grape_fixtures_dir();
    std::fs::create_dir_all(&dir).expect("create fixture dir");
    let mut base = ArchiveStore::new();
    base.upsert(headline.clone());
    for (i, factor) in JITTER.iter().enumerate() {
        let run = RunMeta::new(
            format!("r{}", i + 1),
            T0 + i as u64 * HOUR_US,
            "fixture: grape matrix headline synthetic history",
        );
        let store = scaled_store(&base, *factor).with_run(run);
        let path = dir.join(format!("r{}.gar", i + 1));
        store.save(&path).expect("write fixture store");
        println!("  [fixture: {}]", path.display());
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let trace = granula_bench::trace_out_flag();
    let vertices: u32 = opt(&args, "--vertices")
        .map(|v| v.parse().expect("--vertices"))
        .unwrap_or(20_000);

    header(&format!(
        "Choke-point matrix — 4 paradigms x {{BFS, PageRank}} x partitioner \
         (dg1000-scaled, 8 nodes, {vertices} vertices)"
    ));
    let (graph, _) = calibration::dg_graph_small(vertices, calibration::DG_SEED);

    let rows = [
        EngineRow::default_knobs(Platform::Giraph, "hash-ec"),
        EngineRow::default_knobs(Platform::PowerGraph, "greedy-vc"),
        EngineRow::grape(GrapePartitioner::Hash),
        EngineRow::grape(GrapePartitioner::Block),
        EngineRow::default_knobs(Platform::GraphX, "hash-ec"),
    ];
    let algorithms = [
        Algorithm::Bfs { source: 1 },
        Algorithm::PageRank { iterations: 10 },
    ];

    let mut chart = MatrixChart::new(
        rows.iter().map(|r| r.label()).collect::<Vec<_>>(),
        algorithms
            .iter()
            .map(|a| a.name().to_string())
            .collect::<Vec<_>>(),
    );
    let mut results: Vec<(usize, usize, CellResult)> = Vec::new();
    for (r, row) in rows.iter().enumerate() {
        for (c, &algorithm) in algorithms.iter().enumerate() {
            let cell = run_cell(row, algorithm, &graph);
            assert!(
                cell.validated,
                "{} {} output does not match the reference",
                row.label(),
                algorithm.name()
            );
            chart.set(r, c, cell.cell.clone());
            results.push((r, c, cell));
        }
    }

    print!("\n{}", chart.render_text());
    save_figure("choke_matrix.svg", &chart.render_svg());

    println!(
        "\nInterpretation: the same workload chokes differently per paradigm —\n\
         Giraph on its loader+deployment, PowerGraph on its sequential loader,\n\
         GRAPE on per-fragment sequential processing (the partitioner shifts\n\
         the balance), GraphX on shuffle-heavy processing."
    );

    // --json-out: machine-readable cells (BENCH_matrix.json schema).
    if let Some(path) = opt(&args, "--json-out") {
        let mut cells = String::new();
        for (i, (r, c, cell)) in results.iter().enumerate() {
            let sep = if i + 1 == results.len() { "" } else { "," };
            let _ = write!(
                cells,
                "\n    {{\"platform\": \"{}\", \"partitioner\": \"{}\", \"algorithm\": \"{}\", \
                 \"total_us\": {}, \"bottleneck\": \"{}\", \"bottleneck_frac\": {:.4}, \
                 \"iterations\": {}, \"validated\": {}}}{sep}",
                json_escape(rows[*r].platform().name()),
                json_escape(rows[*r].partitioner),
                json_escape(&chart_col(&algorithms, *c)),
                cell.cell.total_us,
                json_escape(&cell.cell.bottleneck),
                cell.cell.bottleneck_frac,
                cell.iterations,
                cell.validated,
            );
        }
        let json = format!(
            "{{\n  \"schema\": 1,\n  \"description\": \"Cross-platform choke-point matrix: \
             engine x algorithm x partitioner on the dg1000-scaled workload; every cell names \
             the dominant domain phase read back from the Granula archive.\",\n  \
             \"vertices\": {vertices},\n  \"nodes\": 8,\n  \"cells\": [{cells}\n  ]\n}}\n"
        );
        std::fs::write(&path, json).expect("write json report");
        println!("  [json: {path}]");
    }

    // --archive-dir: one fsck-able .gar store per engine row.
    if let Some(dir) = opt(&args, "--archive-dir") {
        std::fs::create_dir_all(&dir).expect("create archive dir");
        for (r, row) in rows.iter().enumerate() {
            let mut store = ArchiveStore::new();
            for (cr, _, cell) in results.iter() {
                if cr == &r {
                    store.upsert(cell.archive.clone());
                }
            }
            store = store.with_run(granula_bench::run_meta_from_env());
            let path = Path::new(&dir).join(format!(
                "matrix_{}_{}.gar",
                row.platform().name().to_lowercase(),
                row.partitioner
            ));
            store.save(&path).expect("write archive store");
            println!(
                "  [archive store: {} jobs -> {}]",
                store.len(),
                path.display()
            );
        }
    }

    // --update-fixtures: the GRAPE/hash-ec BFS cell is the headline run
    // the committed regress history tracks.
    if args.iter().any(|a| a == "--update-fixtures") {
        let headline = results
            .iter()
            .find(|(r, c, _)| *r == 2 && *c == 0)
            .expect("grape hash-ec BFS cell");
        update_grape_fixtures(&headline.2.archive);
    }

    granula_bench::write_trace(&trace);
}

fn chart_col(algorithms: &[Algorithm], c: usize) -> String {
    algorithms[c].name().to_string()
}
