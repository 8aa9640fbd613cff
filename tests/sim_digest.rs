//! Pins the simulator's schedule bit for bit on two platform DAGs:
//!
//! - GRAPE (hash edge-cut) PageRank-10 on the 20k-vertex matrix graph over
//!   32 nodes, the widest point of the choke matrix (10 425 activities);
//! - fig5's Giraph BFS on dg1000 over 8 nodes (1 157 activities).
//!
//! The digest hashes every activity's `start_us` and `end_us` bits in id
//! order, so any change to the rate solver or the event loop that moves a
//! single low bit of a single activity fails here, even when every rounded
//! makespan and golden render stays the same.
//!
//! To regenerate after a change that is *meant* to move the schedule,
//! run
//!
//! ```text
//! cargo test --release --test sim_digest -- --nocapture
//! ```
//!
//! and copy the `got` digest from the failure message into the pinned
//! constant.

use gpsim_cluster::{ClusterSpec, SimResult, Simulation};
use gpsim_platforms::{Algorithm, GiraphPlatform, GrapePartitioner, GrapePlatform};
use granula::calibration;
use granula::experiment::Platform;

/// Digest of the GRAPE schedule, computed before the shared water-filling
/// rate kernel replaced the two progressive-filling loops.
const PINNED_DIGEST: u64 = 0xc890_1c13_055d_f1e4;

/// Digest of the fig5 Giraph schedule on the incremental engine.
const PINNED_FIG5_GIRAPH_DIGEST: u64 = 0x0001_d035_8503_61ab;

/// FNV-1a over the little-endian bytes of every activity's start and end.
fn schedule_digest(res: &SimResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in &res.results {
        for word in [r.start_us.to_bits(), r.end_us.to_bits()] {
            for b in word.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

#[test]
fn grape_pagerank_at_32_nodes_schedules_bit_identically() {
    let (graph, scale) = calibration::dg_graph_small(20_000, calibration::DG_SEED);
    let mut cfg = Platform::Grape.dg1000_job();
    cfg.algorithm = Algorithm::PageRank { iterations: 10 };
    cfg.nodes = 32;
    cfg.scale_factor = scale;
    let cluster = ClusterSpec::das5(cfg.nodes);
    let grape = GrapePlatform {
        partitioner: GrapePartitioner::Hash,
        ..GrapePlatform::default()
    }
    .healthy_dag(&graph, &cfg, &cluster);

    let graph = calibration::dg_graph();
    let cfg = Platform::Giraph.dg1000_job();
    let fig5_cluster = ClusterSpec::das5(cfg.nodes);
    let giraph = GiraphPlatform::default().healthy_dag(&graph, &cfg, &fig5_cluster);

    for (name, cluster, dag, pinned) in [
        ("grape pagerank 32 nodes", cluster, grape, PINNED_DIGEST),
        (
            "fig5 giraph bfs",
            fig5_cluster,
            giraph,
            PINNED_FIG5_GIRAPH_DIGEST,
        ),
    ] {
        let res = Simulation::new(cluster).run(&dag).unwrap();
        let got = schedule_digest(&res);
        assert_eq!(
            got,
            pinned,
            "{name} ({} activities): schedule digest moved: got {got:#018x}, pinned {pinned:#018x}",
            dag.len()
        );
    }
}
