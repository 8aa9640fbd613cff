//! Ablation: the coarse/fine granularity trade-off (paper Issues 3–4,
//! requirement R3).
//!
//! The same monitored Giraph run is archived under the Giraph model
//! truncated at each abstraction level. Deeper models retain more events,
//! archive more operations and infos, and cost more evaluation time — the
//! quantified version of "the analyst controls the trade-off between the
//! fast, coarse-grained analysis and the costly, fine-grained analysis".
//!
//! Evaluation wall-clock time goes to stderr, one line per level, so stdout
//! is the same bytes on every run.

use std::time::Instant;

use granula::experiment::{dg1000_quick, Platform};
use granula::models::giraph_model;
use granula::process::EvaluationProcess;
use granula_archive::JobMeta;
use granula_bench::header;
use granula_model::AbstractionLevel;

fn main() {
    header("Ablation — model granularity vs evaluation cost (Giraph, BFS)");
    let result = dg1000_quick(Platform::Giraph, 20_000);
    let meta = JobMeta {
        job_id: "granularity".into(),
        platform: "Giraph".into(),
        algorithm: "BFS".into(),
        dataset: "dg1000".into(),
        nodes: 8,
        model: String::new(),
    };

    println!(
        "  {:<8} {:>8} {:>12} {:>10} {:>10} {:>12}",
        "level", "types", "events kept", "ops", "infos", "derived"
    );
    let full = giraph_model();
    for depth in 1..=full.max_depth() {
        let model = full.truncated(AbstractionLevel::from_depth(depth));
        let process = EvaluationProcess::new(model.clone());
        let t0 = Instant::now();
        let report = process.evaluate(&result.run, meta.clone());
        let dt = t0.elapsed();
        println!(
            "  {:<8} {:>8} {:>12} {:>10} {:>10} {:>12}",
            depth,
            model.types.len(),
            format!("{}/{}", report.events_kept, report.events_total),
            report.archive.num_operations(),
            report.archive.num_infos(),
            report.infos_derived,
        );
        eprintln!("  level {depth} eval time {:.1}ms", dt.as_secs_f64() * 1e3);
    }
    println!(
        "\nInterpretation: each level multiplies archived detail; analysts pay\n\
         for depth only where the previous iteration's feedback demands it."
    );
}
