//! The GraphMat-like platform driver.
//!
//! SpMV on Intel-MPI-like provisioning with shared-filesystem storage
//! (Table 1 row 3). Structure distilled from GraphMat's published design:
//! every machine loads its block of the edge list *in parallel* (contending
//! on the shared server), then pays the famously expensive conversion into
//! the internal SpMV matrix format; iterations are generalized
//! matrix-vector products with an all-to-all message exchange and an
//! MPI-allreduce barrier.

use gpsim_cluster::{ActivityId, ActivityKind, ClusterSpec, NodeId, SimResult};
use gpsim_graph::{BlockPartition, Graph};
use granula_model::{Actor, InfoValue, Mission};

use crate::common::{Algorithm, AlgorithmOutput, JobConfig, MemoryPhase};
use crate::gas::IterationMode;
use crate::job::{load_window_phases, JobBuilder, Shards};
use crate::ops::OpSpec;
use crate::spmv::{self, SpmvIteration};

/// GraphMat-like platform configuration.
///
/// GraphMat's fault behavior is not modeled: under a non-empty fault plan
/// [`Engine::run`](crate::Engine::run) returns
/// [`SimError::FaultsNotModeled`](gpsim_cluster::SimError::FaultsNotModeled).
#[derive(Debug, Clone)]
pub struct GraphMatPlatform {
    /// `mpiexec` + daemon startup latency, µs.
    pub mpiexec_us: f64,
    /// Per-rank handshake latency, µs.
    pub per_rank_us: f64,
    /// MPI finalize latency, µs.
    pub finalize_us: f64,
    /// CPU work per edge for the format conversion, core-µs (GraphMat's
    /// conversion step is a large constant factor over reading).
    pub convert_us_per_edge: f64,
    /// Iteration cap for convergent algorithms.
    pub max_iterations: u32,
}

impl Default for GraphMatPlatform {
    fn default() -> Self {
        GraphMatPlatform {
            mpiexec_us: 2.0e6,
            per_rank_us: 0.15e6,
            finalize_us: 1.0e6,
            convert_us_per_edge: 0.9,
            max_iterations: 10_000,
        }
    }
}

fn run_program(
    g: &Graph,
    part: &BlockPartition,
    algorithm: Algorithm,
    max_iterations: u32,
) -> (AlgorithmOutput, Vec<SpmvIteration>) {
    match algorithm {
        Algorithm::Bfs { source } => {
            let out = spmv::run(
                g,
                part,
                &mut spmv::BfsSpmv { source },
                IterationMode::Converge {
                    max: max_iterations,
                },
            );
            (AlgorithmOutput::Levels(out.values), out.iterations)
        }
        Algorithm::PageRank { iterations } => {
            let mut prog = spmv::PageRankSpmv::new(g, 0.85);
            let out = spmv::run(g, part, &mut prog, IterationMode::Fixed(iterations));
            (AlgorithmOutput::Ranks(out.values), out.iterations)
        }
        Algorithm::Wcc => {
            let out = spmv::run(
                g,
                part,
                &mut spmv::WccSpmv,
                IterationMode::Converge {
                    max: max_iterations,
                },
            );
            (AlgorithmOutput::Labels(out.values), out.iterations)
        }
        Algorithm::Sssp { source } => {
            let out = spmv::run(
                g,
                part,
                &mut spmv::SsspSpmv { source },
                IterationMode::Converge {
                    max: max_iterations,
                },
            );
            (AlgorithmOutput::Distances(out.values), out.iterations)
        }
        Algorithm::Cdlp { iterations } => {
            let out = spmv::run(
                g,
                part,
                &mut spmv::CdlpSpmv,
                IterationMode::Fixed(iterations),
            );
            (AlgorithmOutput::Labels(out.values), out.iterations)
        }
    }
}

impl GraphMatPlatform {
    /// Runs the SpMV program over the block rows and lays out the whole
    /// job. GraphMat models no fault recovery, so this is the job
    /// [`Engine::run`](crate::Engine::run) simulates.
    pub(crate) fn build<'a>(
        &self,
        g: &Graph,
        cfg: &'a JobConfig,
        cluster: &'a ClusterSpec,
    ) -> (AlgorithmOutput, Layout, JobBuilder<'a>) {
        let k = cfg.nodes;
        let costs = &cfg.costs;
        let scale = cfg.scale_factor;
        let part = BlockPartition::by_edges(g, k);
        let (output, iterations) = run_program(g, &part, cfg.algorithm, self.max_iterations);
        let shards = Shards::new(g, cfg, |v| part.owner_of(v));

        let ranks = InfoValue::Int(k as i64);
        let mut b = JobBuilder::new(
            cfg,
            cluster,
            "GraphMatJob",
            "mpiexec",
            "GraphMat",
            vec![("Ranks", ranks)],
        );
        let head = b.head.clone();

        // -------------------------------------------------- Startup (L1)
        b.domain_op("Startup", "job/startup/", "mpiexec");
        let mpiexec = b.dag.add(
            ActivityKind::Delay {
                duration_us: self.mpiexec_us,
            },
            &[],
            "job/startup/mpi/daemon",
        );
        let mut ranks: Vec<ActivityId> = Vec::with_capacity(k as usize);
        for m in 0..k {
            ranks.push(b.dag.add(
                ActivityKind::Delay {
                    duration_us: self.per_rank_us,
                },
                &[mpiexec],
                format!("job/startup/mpi/rank-{m}"),
            ));
        }
        b.specs.push(OpSpec::new(
            Actor::new("Master", "0"),
            Mission::new("MpiSetup", "0"),
            Some(b.domain("Startup")),
            "job/startup/mpi/",
            &head,
            "mpiexec",
        ));
        let started = b.dag.barrier(&ranks, "job/startup/ready");

        // ------------------------------------------------ LoadGraph (L1)
        b.domain_op("LoadGraph", "job/load/", "rank-0");
        let mut converted: Vec<ActivityId> = Vec::with_capacity(k as usize);
        for m in 0..k {
            let bytes = shards.input_bytes[m as usize];
            let tagp = format!("job/load/m{m}/");
            b.specs.push(
                OpSpec::new(
                    Actor::new("Machine", m.to_string()),
                    Mission::new("LocalLoad", "0"),
                    Some(b.domain("LoadGraph")),
                    tagp.clone(),
                    b.node(m),
                    format!("rank-{m}"),
                )
                .with_info("InputBytes", InfoValue::Int(bytes.round() as i64)),
            );
            // Parallel read from the shared server, pipelined with parsing.
            let read = b.dag.add(
                ActivityKind::SharedRead {
                    node: NodeId(m),
                    bytes,
                },
                &[started],
                format!("{tagp}read"),
            );
            b.specs.push(OpSpec::new(
                Actor::new("Machine", m.to_string()),
                Mission::new("ReadInput", "0"),
                Some((
                    Actor::new("Machine", m.to_string()),
                    Mission::new("LocalLoad", "0"),
                )),
                format!("{tagp}read"),
                b.node(m),
                format!("rank-{m}"),
            ));
            let parse = b.dag.add(
                ActivityKind::Compute {
                    node: NodeId(m),
                    work_core_us: bytes * costs.parse_cpu_us_per_byte,
                    parallelism: costs.worker_threads,
                },
                &[read],
                format!("{tagp}parse"),
            );
            // The expensive conversion to the internal SpMV format.
            let convert = b.dag.add(
                ActivityKind::Compute {
                    node: NodeId(m),
                    work_core_us: shards.edges[m as usize] as f64
                        * scale
                        * self.convert_us_per_edge,
                    parallelism: costs.worker_threads,
                },
                &[parse],
                format!("{tagp}convert"),
            );
            b.specs.push(OpSpec::new(
                Actor::new("Machine", m.to_string()),
                Mission::new("ConvertFormat", "0"),
                Some((
                    Actor::new("Machine", m.to_string()),
                    Mission::new("LocalLoad", "0"),
                )),
                format!("{tagp}convert"),
                b.node(m),
                format!("rank-{m}"),
            ));
            converted.push(convert);
        }
        let all_loaded = b.dag.barrier(&converted, "job/load/done");

        // ---------------------------------------------- ProcessGraph (L1)
        b.domain_op("ProcessGraph", "job/proc/", "rank-0");
        let mut prev_barrier = all_loaded;
        for it in &iterations {
            let t = it.iteration;
            let it_tag = format!("job/proc/it{t}/");
            b.specs.push(
                OpSpec::new(
                    b.job_actor.clone(),
                    Mission::new("Iteration", t.to_string()),
                    Some(b.domain("ProcessGraph")),
                    it_tag.clone(),
                    &head,
                    "rank-0",
                )
                .with_info(
                    "ActiveVertices",
                    InfoValue::Int((it.active_vertices as f64 * scale).round() as i64),
                ),
            );
            let iter_parent = (
                b.job_actor.clone(),
                Mission::new("Iteration", t.to_string()),
            );

            // Multiply (SpMV) phase per machine.
            let mut multiplies: Vec<ActivityId> = Vec::with_capacity(k as usize);
            for m in 0..k {
                let stats = &it.per_machine[m as usize];
                let work = (stats.edges_processed as f64 * costs.compute_us_per_edge
                    + stats.messages_sent as f64 * costs.serialize_us_per_message)
                    * scale;
                let mul = b.dag.add(
                    ActivityKind::Compute {
                        node: NodeId(m),
                        work_core_us: work.max(300.0),
                        parallelism: costs.worker_threads,
                    },
                    &[prev_barrier],
                    format!("{it_tag}m{m}/multiply"),
                );
                b.specs.push(
                    OpSpec::new(
                        Actor::new("Machine", m.to_string()),
                        Mission::new("Multiply", t.to_string()),
                        Some(iter_parent.clone()),
                        format!("{it_tag}m{m}/multiply"),
                        b.node(m),
                        format!("rank-{m}"),
                    )
                    .with_info(
                        "EdgesProcessed",
                        InfoValue::Int((stats.edges_processed as f64 * scale).round() as i64),
                    ),
                );
                multiplies.push(mul);
            }

            // All-to-all exchange of cross-block messages.
            let mut transfers: Vec<ActivityId> = Vec::new();
            #[allow(clippy::needless_range_loop)] // machine ids index the matrix
            for a in 0..k as usize {
                for (dst, &count) in it.exchange[a].iter().enumerate() {
                    if a == dst || count == 0 {
                        continue;
                    }
                    transfers.push(b.dag.add(
                        ActivityKind::Transfer {
                            src: NodeId(a as u16),
                            dst: NodeId(dst as u16),
                            bytes: count as f64 * costs.bytes_per_message * scale,
                        },
                        &[multiplies[a]],
                        format!("{it_tag}ex/a{a}b{dst}"),
                    ));
                }
            }
            let exchange_done = if transfers.is_empty() {
                b.dag.barrier(&multiplies, format!("{it_tag}ex/none"))
            } else {
                let mut deps = transfers.clone();
                deps.extend_from_slice(&multiplies);
                b.dag.barrier(&deps, format!("{it_tag}ex/join"))
            };
            if !transfers.is_empty() {
                b.specs.push(OpSpec::new(
                    Actor::new("Master", "0"),
                    Mission::new("Exchange", t.to_string()),
                    Some(iter_parent.clone()),
                    format!("{it_tag}ex/"),
                    &head,
                    "rank-0",
                ));
            }

            // Apply phase per machine, then the allreduce barrier.
            let mut applies: Vec<ActivityId> = Vec::with_capacity(k as usize);
            for m in 0..k {
                let stats = &it.per_machine[m as usize];
                let apply = b.dag.add(
                    ActivityKind::Compute {
                        node: NodeId(m),
                        work_core_us: (stats.applies as f64 * costs.compute_us_per_vertex * scale)
                            .max(200.0),
                        parallelism: costs.worker_threads,
                    },
                    &[exchange_done],
                    format!("{it_tag}m{m}/apply"),
                );
                b.specs.push(OpSpec::new(
                    Actor::new("Machine", m.to_string()),
                    Mission::new("Apply", t.to_string()),
                    Some(iter_parent.clone()),
                    format!("{it_tag}m{m}/apply"),
                    b.node(m),
                    format!("rank-{m}"),
                ));
                applies.push(apply);
            }
            let join = b.dag.barrier(&applies, format!("{it_tag}barrier/join"));
            prev_barrier = b.dag.add(
                ActivityKind::Delay {
                    duration_us: costs.barrier_us,
                },
                &[join],
                format!("{it_tag}barrier/allreduce"),
            );
        }

        // --------------------------------------------- OffloadGraph (L1)
        b.domain_op("OffloadGraph", "job/offload/", "rank-0");
        let mut offloads: Vec<ActivityId> = Vec::with_capacity(k as usize);
        for m in 0..k {
            let bytes = shards.verts[m as usize] as f64 * costs.bytes_per_vertex_out * scale;
            let write = b.dag.add(
                ActivityKind::SharedRead {
                    node: NodeId(m),
                    bytes,
                },
                &[prev_barrier],
                format!("job/offload/m{m}/write"),
            );
            b.specs.push(
                OpSpec::new(
                    Actor::new("Machine", m.to_string()),
                    Mission::new("LocalOffload", "0"),
                    Some(b.domain("OffloadGraph")),
                    format!("job/offload/m{m}/"),
                    b.node(m),
                    format!("rank-{m}"),
                )
                .with_info("OutputBytes", InfoValue::Int(bytes.round() as i64)),
            );
            offloads.push(write);
        }
        let all_offloaded = b.dag.barrier(&offloads, "job/offload/done");

        // -------------------------------------------------- Cleanup (L1)
        b.domain_op("Cleanup", "job/cleanup/", "mpiexec");
        b.dag.add(
            ActivityKind::Delay {
                duration_us: self.finalize_us,
            },
            &[all_offloaded],
            "job/cleanup/finalize",
        );
        b.specs.push(OpSpec::new(
            Actor::new("Master", "0"),
            Mission::new("MpiFinalize", "0"),
            Some(b.domain("Cleanup")),
            "job/cleanup/finalize",
            &head,
            "mpiexec",
        ));
        (output, Layout { iterations, shards }, b)
    }
}

/// A GraphMat job's per-iteration counters and per-machine sizes.
pub(crate) struct Layout {
    pub(crate) iterations: Vec<SpmvIteration>,
    shards: Shards,
}

impl Layout {
    /// Memory view: each machine's edges are resident from its load until
    /// cleanup.
    pub(crate) fn memory(&self, b: &JobBuilder, sim: &SimResult) -> Vec<MemoryPhase> {
        load_window_phases(b, sim, "m", &self.shards.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{reference_output, CostModel};
    use crate::{Engine, PlatformRun};
    use gpsim_cluster::{DegradedChannel, FaultPlan, SimError};
    use gpsim_graph::gen::{datagen_like, GenConfig};
    use granula_monitor::Assembler;

    fn job(algorithm: Algorithm) -> (Graph, JobConfig) {
        let g = datagen_like(&GenConfig::datagen(2_000, 11));
        let mut costs = CostModel::powergraph_like();
        costs.worker_threads = 16;
        let cfg = JobConfig::new("test-job", "dg-test", algorithm, 8, costs);
        (g, cfg)
    }

    /// Runs `p`'s job on a DAS5-like cluster of `cfg.nodes` nodes.
    fn run(p: &GraphMatPlatform, g: &Graph, cfg: &JobConfig, plan: &FaultPlan) -> PlatformRun {
        Engine::GraphMat(p.clone())
            .run(g, cfg, &ClusterSpec::das5(cfg.nodes), plan)
            .unwrap()
    }

    #[test]
    fn all_algorithms_validate() {
        for algorithm in [
            Algorithm::Bfs { source: 3 },
            Algorithm::PageRank { iterations: 4 },
            Algorithm::Wcc,
            Algorithm::Cdlp { iterations: 3 },
        ] {
            let (g, cfg) = job(algorithm);
            let run = run(&GraphMatPlatform::default(), &g, &cfg, &FaultPlan::new());
            assert!(
                run.output.matches(&reference_output(&g, algorithm)),
                "{algorithm:?}"
            );
        }
    }

    #[test]
    fn events_assemble_into_a_clean_tree() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let run = run(&GraphMatPlatform::default(), &g, &cfg, &FaultPlan::new());
        let outcome = Assembler::new().assemble(run.events);
        assert!(
            outcome.warnings.is_empty(),
            "{:?}",
            &outcome.warnings[..3.min(outcome.warnings.len())]
        );
        let tree = outcome.tree;
        let root = tree.root().unwrap();
        assert_eq!(tree.op(root).mission.kind, "GraphMatJob");
        for m in [
            "Startup",
            "LoadGraph",
            "ProcessGraph",
            "OffloadGraph",
            "Cleanup",
        ] {
            assert!(tree.child_by_mission(root, m).is_some(), "missing {m}");
        }
        // Conversion ops present under LocalLoad.
        assert_eq!(tree.by_mission_kind("ConvertFormat").count(), 8);
    }

    #[test]
    fn load_is_parallel_across_machines() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let cfg = cfg.with_scale(1_000.0);
        let run = run(&GraphMatPlatform::default(), &g, &cfg, &FaultPlan::new());
        let tree = Assembler::new().assemble(run.events).tree;
        // All 8 LocalLoads overlap in time (parallel, unlike PowerGraph).
        let loads: Vec<(u64, u64)> = tree
            .by_mission_kind("LocalLoad")
            .map(|o| (o.start_us().unwrap(), o.end_us().unwrap()))
            .collect();
        assert_eq!(loads.len(), 8);
        let max_start = loads.iter().map(|&(s, _)| s).max().unwrap();
        let min_end = loads.iter().map(|&(_, e)| e).min().unwrap();
        assert!(max_start < min_end, "loads should overlap: {loads:?}");
    }

    #[test]
    fn fault_plans_are_an_error() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let engine = Engine::GraphMat(GraphMatPlatform::default());
        let cluster = ClusterSpec::das5(cfg.nodes);
        let crash = FaultPlan::new().crash(NodeId(2), 1e6);
        let slowdown = FaultPlan::new().slow(NodeId(2), DegradedChannel::Cpu, 0.0, 1e6, 0.5);
        for plan in [crash, slowdown] {
            assert_eq!(
                engine.run(&g, &cfg, &cluster, &plan).unwrap_err(),
                SimError::FaultsNotModeled {
                    platform: "GraphMat"
                }
            );
        }
    }
}
