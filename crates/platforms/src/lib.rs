//! # gpsim-platforms
//!
//! Simulated large-scale graph-processing platforms: the systems under test.
//!
//! The paper's two platforms, plus three more paradigms grown on top:
//!
//! * [`giraph`] — a Giraph-like platform: Pregel/BSP programming model,
//!   vertex hash-partitioning (edge-cut), YARN-like provisioning, HDFS-like
//!   parallel loading, ZooKeeper-like superstep barriers;
//! * [`powergraph`] — a PowerGraph-like platform: GAS programming model,
//!   greedy vertex-cut partitioning, MPI-like launching and — faithfully to
//!   the paper's headline finding — a *sequential, single-node* graph loader
//!   reading from a shared filesystem;
//! * [`graphmat`] — a GraphMat-like platform: vertex programs mapped onto
//!   semiring sparse matrix-vector products over 1D block rows;
//! * [`grape`] — a GRAPE-like subgraph-centric platform: edge-cut
//!   fragments (hash or contiguous block), a sequential algorithm per
//!   fragment (PEval + incremental IncEval rounds), coordinator-mediated
//!   boundary synchronization, and fragment-local crash recovery;
//! * [`graphx`] — a GraphX/Spark-like dataflow platform: driver/executor
//!   architecture, RDD-style load-then-partitionBy shuffle,
//!   schedule→map→shuffle→reduce stage pairs per iteration, and
//!   lineage-recomputation fault recovery (no checkpoints).
//!
//! Every platform **really executes** the algorithms: the [`pregel`],
//! [`gas`] and [`spmv`] engines run vertex programs on the in-memory graph
//! at partition granularity, producing (a) the algorithm output, validated
//! against `gpsim_graph::algos`, and (b) per-superstep/per-machine counters
//! (active vertices, edges scanned, messages exchanged) that parameterize
//! the platform cost models. The drivers compile those counters into an
//! activity DAG for `gpsim_cluster`, simulate it, and emit Granula
//! instrumentation logs plus environment samples — the exact inputs the
//! Granula pipeline consumes. What the drivers share (the DAG and spec
//! builder, simulate-and-emit, and the crash-recovery sequence of the
//! step-structured platforms) lives once, in the private `job` module.
//! The differential suites (`tests/prop.rs`,
//! `tests/engines.rs`) hold the engines to one semantics and one
//! instrumentation contract.
//!
//! Every job runs through one value, [`Engine`]: a platform's knob struct
//! wrapped in its variant. [`Engine::run`] runs a job on a cluster under a
//! fault plan, and [`Engine::healthy_dag`] returns the DAG a healthy run
//! simulates. The knob structs carry no run methods of their own, except
//! a `run_on` forwarder on four of them that perfbench calls.

pub mod common;
mod engine;
pub mod gas;
pub mod giraph;
pub mod grape;
pub mod graphmat;
pub mod graphx;
mod job;
pub mod ops;
pub mod powergraph;
pub mod pregel;
pub mod spmv;

pub use common::{Algorithm, AlgorithmOutput, CostModel, JobConfig, PlatformRun};
pub use engine::Engine;
pub use giraph::GiraphPlatform;
pub use grape::{GrapePartitioner, GrapePlatform};
pub use graphmat::GraphMatPlatform;
pub use graphx::GraphXPlatform;
pub use powergraph::PowerGraphPlatform;
