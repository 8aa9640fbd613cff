//! The dg1000 headline experiment at **full scale**: Giraph BFS on the
//! real dataset volume — 103 M vertices + 927 M edges = 1.03e9 elements —
//! with `scale_factor = 1.0`. No down-sampling, no demand scaling: the
//! graph is `datagen_like`'s graph, built out-CSR only from two replays
//! of its edge stream, and the Pregel engine every pipeline uses
//! traverses it, so this binary demonstrates that the simulation core
//! carries the paper's experiment at the paper's scale.
//!
//! ```text
//! fullscale [--check] [--vertices N] [--archive-out store.gar]
//!           [--trace-out trace.json] [--update-fixtures]
//! ```
//!
//! * `--check` — exit non-zero unless the measured makespan lands within
//!   ±5 % of the paper's 81.59 s Giraph total (the CI acceptance band).
//! * `--vertices N` — smoke variant: the same generator and Pregel BFS
//!   on a smaller graph (the in-memory experiment graph of that size),
//!   scale factor re-adjusted to keep emulating dg1000.
//! * `--update-fixtures` — regenerate `tests/fixtures/history-full/`, the
//!   six-run synthetic history `granula-cli regress` checks full-scale
//!   archives against.

use std::path::{Path, PathBuf};
use std::time::Instant;

use granula::calibration::{DG_FULL_EDGES, DG_FULL_VERTICES, PAPER};
use granula::experiment::{dg1000_full_sized, ExperimentResult};
use granula::metrics::Phase;
use granula_archive::{ArchiveStore, RunMeta};
use granula_bench::{compare, header};
use granula_regress::scaled_store;

/// CI acceptance band around the paper's Figure 5 total.
const ANCHOR_BAND: f64 = 0.05;

/// Sub-band jitter factors for the fixture history, mirroring
/// `tests/regress_history.rs`: real variance for the t-tests, far inside
/// the ±2 % tolerance band.
const JITTER: [f64; 6] = [0.9985, 1.0022, 0.9993, 1.0011, 1.0004, 0.9978];
const T0: u64 = 1_700_000_000_000_000;
const HOUR_US: u64 = 3_600_000_000;

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn opt(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn fixtures_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/bench; fixtures live at the repo root.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/history-full")
}

fn update_fixtures(result: &ExperimentResult) {
    let dir = fixtures_dir();
    std::fs::create_dir_all(&dir).expect("create fixture dir");
    let mut base = ArchiveStore::new();
    base.upsert(result.report.archive.clone());
    for (i, factor) in JITTER.iter().enumerate() {
        let run = RunMeta::new(
            format!("r{}", i + 1),
            T0 + i as u64 * HOUR_US,
            "fixture: full-scale dg1000 synthetic history",
        );
        let store = scaled_store(&base, *factor).with_run(run);
        let path = dir.join(format!("r{}.gar", i + 1));
        store.save(&path).expect("write fixture store");
        println!("  [fixture: {}]", path.display());
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let trace = granula_bench::trace_out_flag();
    let archive_out = granula_bench::archive_out_flag();
    let check = flag(&args, "--check");
    let vertices: u32 = opt(&args, "--vertices")
        .map(|v| v.parse().expect("--vertices takes an integer"))
        .unwrap_or(DG_FULL_VERTICES);
    let full = vertices == DG_FULL_VERTICES;

    header("Full-scale dg1000 — Giraph BFS at scale_factor = 1.0 (8 nodes)");
    println!(
        "graph: {} vertices + {} edges ({})",
        vertices,
        vertices as u64 * 9,
        if full {
            format!(
                "the paper's dg1000 volume: {} elements",
                DG_FULL_VERTICES as u64 + DG_FULL_EDGES
            )
        } else {
            "smoke variant, demand rescaled to dg1000".into()
        }
    );

    let wall = Instant::now();
    let result = dg1000_full_sized(vertices);
    let wall = wall.elapsed();

    let b = &result.breakdown;
    println!(
        "\nwall-clock {:.1} s, simulated makespan {:.2} s over {} supersteps\n",
        wall.as_secs_f64(),
        b.total_s(),
        result.run.iterations
    );
    compare("total runtime", PAPER.giraph_total_s, b.total_s(), "s");
    compare(
        "setup fraction",
        100.0 * PAPER.giraph_fractions[0],
        100.0 * b.fraction(Phase::Setup),
        "%",
    );
    compare(
        "input/output fraction",
        100.0 * PAPER.giraph_fractions[1],
        100.0 * b.fraction(Phase::InputOutput),
        "%",
    );
    compare(
        "processing fraction",
        100.0 * PAPER.giraph_fractions[2],
        100.0 * b.fraction(Phase::Processing),
        "%",
    );
    println!();

    if flag(&args, "--update-fixtures") {
        update_fixtures(&result);
    }
    granula_bench::write_archive_store(&archive_out, [&result.report.archive]);
    granula_bench::write_trace(&trace);

    if check {
        let err = b.total_s() / PAPER.giraph_total_s - 1.0;
        if err.abs() < ANCHOR_BAND {
            println!(
                "CHECK OK: within ±{:.0}% of the {:.2} s anchor ({:+.2}%)",
                100.0 * ANCHOR_BAND,
                PAPER.giraph_total_s,
                100.0 * err
            );
        } else {
            eprintln!(
                "CHECK FAILED: {:.2} s is {:+.2}% off the {:.2} s anchor (band ±{:.0}%)",
                b.total_s(),
                100.0 * err,
                PAPER.giraph_total_s,
                100.0 * ANCHOR_BAND
            );
            std::process::exit(1);
        }
    }
}
