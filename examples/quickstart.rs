//! Quickstart: the whole Granula pipeline in one page.
//!
//! Generate a Datagen-like graph, run BFS on the simulated Giraph platform,
//! evaluate the run with the 4-level Giraph performance model, and inspect
//! the archive: domain breakdown, path queries, JSON export.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use gpsim_cluster::{ClusterSpec, FaultPlan};
use gpsim_graph::gen::{datagen_like, GenConfig};
use gpsim_platforms::{Algorithm, Engine, GiraphPlatform, JobConfig};
use granula::metrics::{DomainBreakdown, Phase};
use granula::models::giraph_model;
use granula::process::EvaluationProcess;
use granula_archive::{to_json_pretty, JobMeta, Query};
use granula_viz::tree::render_operation_tree;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A workload: BFS over a 20k-vertex power-law graph on 8 nodes,
    //    volumes scaled up to emulate the paper's billion-scale dg1000.
    let graph = datagen_like(&GenConfig::datagen(20_000, 42));
    let cfg = JobConfig::new(
        "quickstart-bfs",
        "dg1000",
        Algorithm::Bfs { source: 1 },
        8,
        granula::calibration::giraph_costs(),
    )
    .with_scale(1.03e9 / 200_000.0);

    // 2. Monitoring (P2): run the instrumented platform.
    let run = Engine::Giraph(GiraphPlatform::default()).run(
        &graph,
        &cfg,
        &ClusterSpec::das5(cfg.nodes),
        &FaultPlan::new(),
    )?;
    println!(
        "platform run: {} log events, {} env samples, {} supersteps, output verified: {}",
        run.events.len(),
        run.env_samples.len(),
        run.iterations,
        run.output
            .matches(&gpsim_platforms::common::reference_output(
                &graph,
                cfg.algorithm
            )),
    );

    // 3. Modeling (P1) + Archiving (P3): evaluate under the Giraph model.
    let process = EvaluationProcess::new(giraph_model());
    let report = process.evaluate(
        &run,
        JobMeta {
            job_id: cfg.job_id.clone(),
            platform: "Giraph".into(),
            algorithm: "BFS".into(),
            dataset: cfg.dataset.clone(),
            nodes: 8,
            model: String::new(),
        },
    );
    println!(
        "archive: {} operations, {} infos, model coverage {:.0}%, {} validation issues",
        report.archive.num_operations(),
        report.archive.num_infos(),
        100.0 * report.validation.coverage(),
        report.validation.issues.len()
    );

    // 4. Analysis: domain metrics (Ts / Td / Tp) and path queries.
    let b = DomainBreakdown::from_archive(&report.archive).expect("runtime present");
    println!(
        "\ndomain breakdown: total {:.2}s | setup {:.1}% | io {:.1}% | processing {:.1}%",
        b.total_s(),
        100.0 * b.fraction(Phase::Setup),
        100.0 * b.fraction(Phase::InputOutput),
        100.0 * b.fraction(Phase::Processing)
    );

    let q = Query::parse("GiraphJob/ProcessGraph/Superstep").expect("valid query");
    let supersteps = q.select(&report.archive.tree);
    println!("query `{q}` -> {} supersteps", supersteps.len());
    let longest = supersteps
        .iter()
        .filter_map(|&id| report.archive.tree.op(id).duration_us().map(|d| (id, d)))
        .max_by_key(|&(_, d)| d);
    if let Some((id, d)) = longest {
        println!(
            "longest superstep: {} at {:.2}s",
            report.archive.tree.op(id).label(),
            d as f64 / 1e6
        );
    }

    // 5. Visualization (P4): the operation hierarchy, pruned to 2 levels.
    println!("\n{}", render_operation_tree(&report.archive.tree, 2));

    // 6. Sharing (R2): the standardized JSON envelope.
    let json = to_json_pretty(&report.archive).expect("serializable archive");
    println!(
        "archive JSON: {} bytes (share or diff this artifact)",
        json.len()
    );
    Ok(())
}
