//! The full-scale path runs on the same graph instance as everything
//! else. `fullscale` builds `datagen_like`'s graph out-CSR only
//! (`datagen_like_full`), so its Giraph BFS must archive exactly like the
//! same job — same job id, same scale factor — on the in-memory
//! experiment graph of the same size. Giraph BFS reads only out-edges, so
//! the missing reverse CSR changes nothing either.

use granula::calibration::{self, DG_SEED};
use granula::experiment::{dg1000_full_sized, run_experiment, ExperimentResult, Platform};
use granula_archive::{store_to_bytes, ArchiveStore, RunMeta};

const VERTICES: u32 = 20_000;

fn store_bytes(result: &ExperimentResult) -> Vec<u8> {
    let mut store = ArchiveStore::new();
    store.upsert(result.report.archive.clone());
    store_to_bytes(&store.with_run(RunMeta::new("layout", 0, "layout equivalence")))
}

#[test]
fn full_scale_archive_equals_the_in_memory_run() {
    let full = dg1000_full_sized(VERTICES);

    let (graph, scale) = calibration::dg_graph_small(VERTICES, DG_SEED);
    let mut cfg = Platform::Giraph.dg1000_job();
    cfg.job_id = "giraph-bfs-dg1000-full".into();
    cfg.scale_factor = scale;
    let memory = run_experiment(Platform::Giraph, &graph, &cfg).expect("simulation is well-formed");

    assert_eq!(full.report.archive.meta.job_id, cfg.job_id);
    assert_eq!(full.run.iterations, memory.run.iterations);
    assert_eq!(full.breakdown.total_us, memory.breakdown.total_us);
    assert_eq!(full.report.archive, memory.report.archive);
    assert_eq!(store_bytes(&full), store_bytes(&memory));
}
