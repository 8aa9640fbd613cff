//! Calibration: the dg1000 / DAS5 experiment configuration.
//!
//! The paper's experiments run BFS on `dg1000` — an LDBC Datagen graph with
//! 1.03 billion vertices-plus-edges — on 8 DAS5 nodes. The reproduction
//! executes the algorithms on a down-sampled Datagen-like graph
//! (100 k vertices, 900 k edges, the same 9:1 edge:vertex ratio) and scales
//! all data volumes and compute work by [`DG1000_SCALE`] so the simulated
//! platforms handle the full dataset's demand.
//!
//! Cost-model constants below are calibrated **once, jointly** so the
//! dg1000/8-node configuration lands near the paper's Figure 5 totals; every
//! other experiment (other algorithms, node counts, ablations) reuses them
//! unchanged.

use gpsim_graph::gen::GenConfig;
use gpsim_graph::Graph;
use gpsim_platforms::{Algorithm, CostModel, JobConfig};

/// Vertices of the down-sampled experiment graph.
pub const DG_VERTICES: u32 = 100_000;

/// Edges of the down-sampled experiment graph.
pub const DG_EDGES: u64 = 900_000;

/// Volume multiplier from the down-sampled graph to dg1000
/// (1.03e9 vertices+edges over 1.0e6).
pub const DG1000_SCALE: f64 = 1_030.0;

/// Seed of the experiment graph (fixed for reproducibility).
pub const DG_SEED: u64 = 1_000;

/// Vertices of the **full-scale** dg1000 graph: the real dataset volume,
/// no down-sampling (103 M vertices + 927 M edges = 1.03e9 elements, the
/// size the paper quotes). Runs at `scale_factor = 1.0`.
pub const DG_FULL_VERTICES: u32 = 103_000_000;

/// Edges of the full-scale dg1000 graph (the Datagen 9:1 edge ratio).
pub const DG_FULL_EDGES: u64 = 927_000_000;

/// Shape targets extracted from the paper's evaluation (§4, Figures 5–8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperTargets {
    /// Giraph total runtime, seconds (Figure 5 axis).
    pub giraph_total_s: f64,
    /// Giraph setup / io / processing fractions (§4.2).
    pub giraph_fractions: [f64; 3],
    /// PowerGraph total runtime, seconds (Figure 5 axis).
    pub powergraph_total_s: f64,
    /// PowerGraph I/O fraction (§4.2: 94.8 %).
    pub powergraph_io_fraction: f64,
    /// PowerGraph processing fraction upper bound (§4.2: under 3.1 %).
    pub powergraph_processing_max: f64,
    /// Giraph cluster CPU peak, CPU-time/second (Figure 6 axis top).
    pub giraph_cpu_peak: f64,
    /// PowerGraph cluster CPU peak (Figure 7 axis top).
    pub powergraph_cpu_peak: f64,
}

/// The paper's numbers.
pub const PAPER: PaperTargets = PaperTargets {
    giraph_total_s: 81.59,
    giraph_fractions: [0.309, 0.433, 0.258],
    powergraph_total_s: 400.38,
    powergraph_io_fraction: 0.948,
    powergraph_processing_max: 0.031,
    giraph_cpu_peak: 190.30,
    powergraph_cpu_peak: 46.93,
};

/// Generates the experiment graph (deterministic).
pub fn dg_graph() -> Graph {
    gpsim_graph::gen::datagen_like(&GenConfig {
        vertices: DG_VERTICES,
        edges: DG_EDGES,
        alpha: 2.2,
        seed: DG_SEED,
    })
}

/// A smaller variant of the experiment graph for fast tests; volumes are
/// still scaled to dg1000 via an adjusted scale factor, preserving the
/// Figure 5 shape at far lower logical cost.
pub fn dg_graph_small(vertices: u32, seed: u64) -> (Graph, f64) {
    let g = gpsim_graph::gen::datagen_like(&GenConfig {
        vertices,
        edges: vertices as u64 * 9,
        alpha: 2.2,
        seed,
    });
    let scale = 1.03e9 / (vertices as f64 * 10.0);
    (g, scale)
}

/// The calibrated Giraph cost model for the DAS5 simulation.
pub fn giraph_costs() -> CostModel {
    CostModel {
        parse_cpu_us_per_byte: 0.27,
        build_cpu_us_per_edge: 0.90,
        compute_us_per_edge: 0.90,
        compute_us_per_vertex: 0.75,
        bytes_per_message: 16.0,
        bytes_per_vertex_out: 16.0,
        bytes_per_edge_in: 20.0,
        bytes_per_edge_mem: 110.0,
        barrier_us: 180_000.0,
        worker_threads: 24,
        serialize_us_per_message: 0.45,
    }
}

/// The calibrated PowerGraph cost model for the DAS5 simulation.
pub fn powergraph_costs() -> CostModel {
    CostModel {
        parse_cpu_us_per_byte: 0.0372,
        build_cpu_us_per_edge: 0.18,
        compute_us_per_edge: 0.05,
        compute_us_per_vertex: 0.06,
        bytes_per_message: 12.0,
        bytes_per_vertex_out: 12.0,
        bytes_per_edge_in: 20.0,
        bytes_per_edge_mem: 40.0,
        barrier_us: 25_000.0,
        worker_threads: 6,
        serialize_us_per_message: 0.03,
    }
}

/// A calibrated GraphMat cost model (Table 1 extension; the paper does not
/// evaluate GraphMat, so these constants only claim plausibility: C++ SIMD
/// compute, cheap parsing, an expensive one-off format conversion).
pub fn graphmat_costs() -> CostModel {
    CostModel {
        parse_cpu_us_per_byte: 0.012,
        build_cpu_us_per_edge: 0.0, // conversion is costed by the platform knob
        compute_us_per_edge: 0.02,
        compute_us_per_vertex: 0.03,
        bytes_per_message: 8.0,
        bytes_per_vertex_out: 12.0,
        bytes_per_edge_in: 20.0,
        bytes_per_edge_mem: 24.0,
        barrier_us: 20_000.0,
        worker_threads: 24,
        serialize_us_per_message: 0.015,
    }
}

/// A calibrated GRAPE cost model (the paper does not evaluate GRAPE; the
/// constants claim plausibility: native C++ compute, but each fragment runs
/// its sequential algorithm on a single core, and boundary sync is cheap
/// compared to Giraph's ZooKeeper barrier).
pub fn grape_costs() -> CostModel {
    CostModel {
        parse_cpu_us_per_byte: 0.040,
        build_cpu_us_per_edge: 0.25,
        compute_us_per_edge: 0.018,
        compute_us_per_vertex: 0.025,
        bytes_per_message: 12.0,
        bytes_per_vertex_out: 12.0,
        bytes_per_edge_in: 20.0,
        bytes_per_edge_mem: 48.0,
        barrier_us: 30_000.0,
        worker_threads: 24,
        serialize_us_per_message: 0.04,
    }
}

/// A calibrated GraphX cost model (plausibility, not a paper target: JVM
/// compute with RDD overhead, expensive shuffle serialization, and
/// memory-hungry cached partitions).
pub fn graphx_costs() -> CostModel {
    CostModel {
        parse_cpu_us_per_byte: 0.30,
        build_cpu_us_per_edge: 1.10,
        compute_us_per_edge: 0.70,
        compute_us_per_vertex: 0.80,
        bytes_per_message: 24.0,
        bytes_per_vertex_out: 16.0,
        bytes_per_edge_in: 20.0,
        bytes_per_edge_mem: 160.0,
        barrier_us: 60_000.0,
        worker_threads: 24,
        serialize_us_per_message: 0.60,
    }
}

/// The GRAPE BFS-on-dg1000 job (choke-point matrix extension).
pub fn grape_dg1000_job() -> JobConfig {
    JobConfig::new(
        "grape-bfs-dg1000",
        "dg1000",
        Algorithm::Bfs { source: 1 },
        8,
        grape_costs(),
    )
    .with_scale(DG1000_SCALE)
}

/// The GraphX BFS-on-dg1000 job (choke-point matrix extension).
pub fn graphx_dg1000_job() -> JobConfig {
    JobConfig::new(
        "graphx-bfs-dg1000",
        "dg1000",
        Algorithm::Bfs { source: 1 },
        8,
        graphx_costs(),
    )
    .with_scale(DG1000_SCALE)
}

/// The GraphMat BFS-on-dg1000 job (extension experiment).
pub fn graphmat_dg1000_job() -> JobConfig {
    JobConfig::new(
        "graphmat-bfs-dg1000",
        "dg1000",
        Algorithm::Bfs { source: 1 },
        8,
        graphmat_costs(),
    )
    .with_scale(DG1000_SCALE)
}

/// The Giraph BFS-on-dg1000 job of the paper's experiments.
pub fn giraph_dg1000_job() -> JobConfig {
    JobConfig::new(
        "giraph-bfs-dg1000",
        "dg1000",
        Algorithm::Bfs { source: 1 },
        8,
        giraph_costs(),
    )
    .with_scale(DG1000_SCALE)
}

/// The PowerGraph BFS-on-dg1000 job of the paper's experiments.
pub fn powergraph_dg1000_job() -> JobConfig {
    JobConfig::new(
        "powergraph-bfs-dg1000",
        "dg1000",
        Algorithm::Bfs { source: 1 },
        8,
        powergraph_costs(),
    )
    .with_scale(DG1000_SCALE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_graph_matches_dg1000_ratio() {
        let (g, scale) = dg_graph_small(5_000, 3);
        assert_eq!(g.num_edges(), 45_000);
        // vertices*10 logical units * scale = 1.03e9 emulated units.
        assert!((5_000.0 * 10.0 * scale - 1.03e9).abs() < 1.0);
    }

    #[test]
    fn scale_constant_covers_dg1000() {
        assert!(((DG_VERTICES as f64 + DG_EDGES as f64) * DG1000_SCALE - 1.03e9).abs() < 1e3);
    }

    #[test]
    fn jobs_reference_the_same_dataset() {
        let g = giraph_dg1000_job();
        let p = powergraph_dg1000_job();
        assert_eq!(g.dataset, "dg1000");
        assert_eq!(p.dataset, "dg1000");
        assert_eq!(g.nodes, 8);
        assert_eq!(p.nodes, 8);
        assert_eq!(g.scale_factor, DG1000_SCALE);
    }
}
