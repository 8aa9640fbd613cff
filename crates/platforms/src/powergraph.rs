//! The PowerGraph-like platform driver.
//!
//! GAS on MPI-like provisioning with shared-filesystem storage, modeled
//! after PowerGraph 2.2 as characterized in Table 1. The structural
//! fidelity the paper's analysis depends on is the **loader**: one machine
//! reads and parses the entire input sequentially from the shared
//! filesystem while every other machine idles; only at the end of loading
//! do the others receive their edge partitions and participate in building
//! the in-memory graph (paper §4.3, Figure 7).

use gpsim_cluster::{
    ActivityGraph, ActivityId, ActivityKind, ClusterSpec, FaultPlan, NodeId, SimError, SimResult,
    Simulation,
};
use gpsim_graph::{Graph, VertexCutPartition};
use granula_model::{Actor, InfoValue, Mission};

use crate::common::{Algorithm, AlgorithmOutput, JobConfig, MemoryPhase, PlatformRun};
use crate::engine::Engine;
use crate::gas::{self, IterationMode, IterationStats};
use crate::job::{self, JobBuilder, Recovery};
use crate::ops::OpSpec;

/// Pipeline stages of the sequential loader (read chunk ↔ parse chunk).
const LOAD_CHUNKS: u32 = 16;

/// PowerGraph-like platform configuration.
///
/// Under a fault plan ([`Engine::run`]): PowerGraph has no checkpointing.
/// MPI is fail-stop, so a node crash aborts the whole job once the runtime
/// notices the dead rank, and the job is resubmitted from scratch. The
/// aborted attempt keeps its original operation tags (truncated at the
/// abort), the restart runs under `job/r1/` with `:r1`-suffixed mission
/// ids, and the abort + respawn window is emitted as a `Recover` operation
/// (with `DetectFailure` and `Respawn` children) carrying the lost node and
/// the wasted first-attempt time.
///
/// Only the earliest crash in the plan is modeled (one restart); later
/// crashes are dropped from the executed plan.
#[derive(Debug, Clone)]
pub struct PowerGraphPlatform {
    /// `mpirun` + daemon startup latency, µs.
    pub mpirun_us: f64,
    /// Per-rank handshake latency, µs.
    pub per_rank_us: f64,
    /// MPI finalize latency, µs.
    pub finalize_us: f64,
    /// Parallelism of the sequential loader (PowerGraph's text parser is
    /// effectively single-threaded; 1-2 threads).
    pub loader_threads: u32,
    /// Iteration cap for convergent algorithms.
    pub max_iterations: u32,
    /// Time for the MPI runtime to notice a dead rank and abort the job
    /// (fail-stop), µs.
    pub failure_detect_us: f64,
}

impl Default for PowerGraphPlatform {
    fn default() -> Self {
        PowerGraphPlatform {
            mpirun_us: 4.0e6,
            per_rank_us: 0.2e6,
            finalize_us: 3.0e6,
            loader_threads: 2,
            max_iterations: 10_000,
            failure_detect_us: 2.0e6,
        }
    }
}

fn run_program(
    g: &Graph,
    part: &VertexCutPartition,
    algorithm: Algorithm,
    max_iterations: u32,
) -> (AlgorithmOutput, Vec<IterationStats>) {
    match algorithm {
        Algorithm::Bfs { source } => {
            let out = gas::run(
                g,
                part,
                &mut gas::BfsGas { source },
                IterationMode::Converge {
                    max: max_iterations,
                },
            );
            (AlgorithmOutput::Levels(out.values), out.iterations)
        }
        Algorithm::PageRank { iterations } => {
            let out = gas::run_pagerank_gas(g, part, iterations, 0.85);
            (AlgorithmOutput::Ranks(out.values), out.iterations)
        }
        Algorithm::Wcc => {
            let out = gas::run(
                g,
                part,
                &mut gas::WccGas,
                IterationMode::Converge {
                    max: max_iterations,
                },
            );
            (AlgorithmOutput::Labels(out.values), out.iterations)
        }
        Algorithm::Sssp { source } => {
            let out = gas::run(
                g,
                part,
                &mut gas::SsspGas { source },
                IterationMode::Converge {
                    max: max_iterations,
                },
            );
            (AlgorithmOutput::Distances(out.values), out.iterations)
        }
        Algorithm::Cdlp { iterations } => {
            let out = gas::run(g, part, &mut gas::CdlpGas, IterationMode::Fixed(iterations));
            (AlgorithmOutput::Labels(out.values), out.iterations)
        }
    }
}

impl PowerGraphPlatform {
    /// Runs a job on an explicit cluster with no faults: [`Engine::run`]
    /// with an empty plan. Kept because perfbench's pipeline calls it.
    pub fn run_on(
        &self,
        g: &Graph,
        cfg: &JobConfig,
        cluster: &ClusterSpec,
    ) -> Result<PlatformRun, SimError> {
        Engine::PowerGraph(self.clone()).run(g, cfg, cluster, &FaultPlan::default())
    }

    /// Partitions, runs the GAS program and lays out the first attempt.
    pub(crate) fn first_attempt<'a>(
        &'a self,
        g: &Graph,
        cfg: &'a JobConfig,
        cluster: &'a ClusterSpec,
    ) -> (AlgorithmOutput, Layout<'a>, JobBuilder<'a>) {
        let k = cfg.nodes;

        let part = {
            let _span = granula_trace::span!("platform", "powergraph.partition {}", cfg.job_id);
            VertexCutPartition::greedy(g, k)
        };
        let (output, iterations) = {
            let _span = granula_trace::span!("platform", "powergraph.gas_program {}", cfg.job_id);
            run_program(g, &part, cfg.algorithm, self.max_iterations)
        };

        // Per-machine sizes.
        let mut masters = vec![0u64; k as usize];
        for v in 0..g.num_vertices() {
            masters[part.master_of(v) as usize] += 1;
        }
        let layout = Layout {
            p: self,
            iterations,
            edge_sizes: part.sizes(),
            masters,
            total_bytes: (g.num_vertices() as f64 * 10.0
                + g.num_edges() as f64 * cfg.costs.bytes_per_edge_in)
                * cfg.scale_factor,
        };
        let infos = vec![
            ("Machines", InfoValue::Int(k as i64)),
            (
                "ReplicationFactor",
                InfoValue::Float(part.replication_factor()),
            ),
        ];
        let mut b = JobBuilder::new(cfg, cluster, "PowerGraphJob", "mpirun", "PowerGraph", infos);
        layout.job(&mut b, "job/", "", &[]);
        (output, layout, b)
    }
}

/// A PowerGraph job's layout inputs; the fail-stop path lays out two
/// attempts into the same graph.
pub(crate) struct Layout<'a> {
    p: &'a PowerGraphPlatform,
    pub(crate) iterations: Vec<IterationStats>,
    edge_sizes: Vec<u64>,
    masters: Vec<u64>,
    total_bytes: f64,
}

impl Layout<'_> {
    /// PowerGraph's fail-stop restart: turns the first attempt in `b` into
    /// the aborted attempt plus the resubmitted job when `plan` holds a
    /// crash, and returns the plan the simulator then executes. `None`
    /// when the plan has no crash and `b` runs as laid out.
    pub(crate) fn restart(
        &self,
        b: &mut JobBuilder,
        plan: &FaultPlan,
    ) -> Result<Option<FaultPlan>, SimError> {
        let Some(crash) = job::earliest_crash(plan) else {
            return Ok(None);
        };

        // Fail-stop: simulate the first attempt under slowdowns only to
        // learn which activities had started when the job aborted.
        let _span = granula_trace::span!("platform", "powergraph.recovery.build {}", b.cfg.job_id);
        let probe_sim = Simulation::new(b.cluster.clone())
            .run_with_faults(&b.dag, &job::slowdowns_only(plan))?;
        let t_eff = crash
            .at_us
            .clamp(1.0, (probe_sim.makespan_us - 1.0).max(1.0));

        // Truncate the first attempt to the activities that had started
        // before the abort. The kept set is dependency-closed (an activity
        // starts only after its dependencies ended), so ids remap cleanly.
        // Specs keep their tags: operations that never started have no span
        // and are skipped at emission.
        let mut kept = ActivityGraph::new();
        let mut map: Vec<Option<ActivityId>> = Vec::with_capacity(b.dag.len());
        for a in b.dag.iter() {
            if probe_sim.results[a.id.0 as usize].start_us >= t_eff {
                map.push(None);
                continue;
            }
            let deps: Vec<ActivityId> = a.deps.iter().filter_map(|d| map[d.0 as usize]).collect();
            map.push(Some(kept.add(*a.kind, &deps, a.tag_symbol())));
        }
        b.dag = kept;

        // Abort + resubmit: detection of the dead rank, then a full MPI
        // respawn, then the whole job again under `job/r1/`. The whole
        // first attempt is wasted.
        let rec = Recovery::new(("Master", "mpirun"), crash.node);
        let job_key = b.job_key.clone();
        let detect_us = self.p.failure_detect_us;
        let detect = rec.head(b, job_key, "job/fail/", t_eff, t_eff, detect_us);
        let respawned = self.mpi_setup(b, "job/fail/respawn/", &[detect]);
        b.specs.push(rec.op(b, "Respawn", "0", "job/fail/respawn/"));
        self.job(b, "job/r1/", ":r1", &[respawned]);

        // Every rank dies with the job at the abort instant and is back for
        // the restart; the lost node itself is replaced within the same
        // window.
        let ranks = (0..b.cfg.nodes).map(NodeId);
        Ok(Some(job::executed_plan(plan, ranks, t_eff, detect_us)))
    }

    /// `mpirun` daemon startup plus one handshake per rank under
    /// `{tag}mpi/`; returns the barrier `{tag}ready`.
    fn mpi_setup(&self, b: &mut JobBuilder, tag: &str, deps: &[ActivityId]) -> ActivityId {
        let mpirun = b.dag.add(
            ActivityKind::Delay {
                duration_us: self.p.mpirun_us,
            },
            deps,
            format!("{tag}mpi/daemon"),
        );
        let ranks: Vec<ActivityId> = (0..b.cfg.nodes)
            .map(|m| {
                b.dag.add(
                    ActivityKind::Delay {
                        duration_us: self.p.per_rank_us,
                    },
                    &[mpirun],
                    format!("{tag}mpi/rank-{m}"),
                )
            })
            .collect();
        b.dag.barrier(&ranks, format!("{tag}ready"))
    }

    /// One full job attempt. `prefix` replaces the leading `job/` of every
    /// activity tag (`job/r1/` for the restart); `suffix` is appended to
    /// every mission id so the restarted operations stay distinct in the
    /// archive; `deps` gates the attempt's first activity.
    fn job(&self, b: &mut JobBuilder, prefix: &str, suffix: &str, deps: &[ActivityId]) {
        let k = b.cfg.nodes;
        let costs = &b.cfg.costs;
        let scale = b.cfg.scale_factor;
        let head = b.head.clone();
        let job_key = b.job_key.clone();
        let job_actor = b.job_actor.clone();
        let domain = |mission: &str| {
            (
                job_actor.clone(),
                Mission::new(mission, format!("0{suffix}")),
            )
        };

        // -------------------------------------------------- Startup (L1)
        b.specs.push(OpSpec::new(
            job_actor.clone(),
            Mission::new("Startup", format!("0{suffix}")),
            Some(job_key.clone()),
            format!("{prefix}startup/"),
            &head,
            "mpirun",
        ));
        let started = self.mpi_setup(b, &format!("{prefix}startup/"), deps);
        b.specs.push(OpSpec::new(
            Actor::new("Master", "0"),
            Mission::new("MpiSetup", format!("0{suffix}")),
            Some(domain("Startup")),
            format!("{prefix}startup/mpi/"),
            &head,
            "mpirun",
        ));

        // ------------------------------------------------ LoadGraph (L1)
        b.specs.push(OpSpec::new(
            job_actor.clone(),
            Mission::new("LoadGraph", format!("0{suffix}")),
            Some(job_key.clone()),
            format!("{prefix}load/"),
            &head,
            "machine-0",
        ));
        // Sequential read + parse pipeline, all on machine 0.
        b.specs.push(
            OpSpec::new(
                Actor::new("Machine", "0"),
                Mission::new("SequentialLoad", format!("0{suffix}")),
                Some(domain("LoadGraph")),
                format!("{prefix}load/seq/"),
                &head,
                "machine-0",
            )
            .with_info(
                "InputBytes",
                InfoValue::Int(self.total_bytes.round() as i64),
            ),
        );
        let chunk = self.total_bytes / LOAD_CHUNKS as f64;
        let mut prev_read = started;
        let mut prev_parse: Option<ActivityId> = None;
        for c in 0..LOAD_CHUNKS {
            let read = b.dag.add(
                ActivityKind::SharedRead {
                    node: NodeId(0),
                    bytes: chunk,
                },
                &[prev_read],
                format!("{prefix}load/seq/read/c{c}"),
            );
            // The parser is sequential: chunk c+1 is parsed only after chunk
            // c — reads are pipelined ahead, parsing is the bottleneck.
            let deps: Vec<ActivityId> = match prev_parse {
                Some(p) => vec![read, p],
                None => vec![read],
            };
            let parse = b.dag.add(
                ActivityKind::Compute {
                    node: NodeId(0),
                    work_core_us: chunk * costs.parse_cpu_us_per_byte,
                    parallelism: self.p.loader_threads,
                },
                &deps,
                format!("{prefix}load/seq/parse/c{c}"),
            );
            prev_read = read;
            prev_parse = Some(parse);
        }
        let parsed = b.dag.barrier(
            &[prev_parse.expect("LOAD_CHUNKS > 0")],
            format!("{prefix}load/seq/done"),
        );

        // Distribute edge partitions to the other machines.
        b.specs.push(OpSpec::new(
            Actor::new("Machine", "0"),
            Mission::new("DistributeEdges", format!("0{suffix}")),
            Some(domain("LoadGraph")),
            format!("{prefix}load/dist/"),
            &head,
            "machine-0",
        ));
        let mut finalize_deps: Vec<(u16, ActivityId)> = vec![(0, parsed)];
        for m in 1..k {
            let bytes = self.edge_sizes[m as usize] as f64 * costs.bytes_per_edge_in * scale;
            let xfer = b.dag.add(
                ActivityKind::Transfer {
                    src: NodeId(0),
                    dst: NodeId(m),
                    bytes,
                },
                &[parsed],
                format!("{prefix}load/dist/m{m}"),
            );
            finalize_deps.push((m, xfer));
        }

        // All machines build their local graph structures.
        let mut built: Vec<ActivityId> = Vec::with_capacity(k as usize);
        for (m, dep) in finalize_deps {
            let build = b.dag.add(
                ActivityKind::Compute {
                    node: NodeId(m),
                    work_core_us: self.edge_sizes[m as usize] as f64
                        * scale
                        * costs.build_cpu_us_per_edge,
                    parallelism: costs.worker_threads,
                },
                &[dep],
                format!("{prefix}load/fin/m{m}/build"),
            );
            b.specs.push(
                OpSpec::new(
                    Actor::new("Machine", m.to_string()),
                    Mission::new("FinalizeGraph", format!("0{suffix}")),
                    Some(domain("LoadGraph")),
                    format!("{prefix}load/fin/m{m}/"),
                    b.node(m),
                    format!("machine-{m}"),
                )
                .with_info(
                    "LocalEdges",
                    InfoValue::Int((self.edge_sizes[m as usize] as f64 * scale).round() as i64),
                ),
            );
            built.push(build);
        }
        let all_loaded = b.dag.barrier(&built, format!("{prefix}load/all-loaded"));

        // ---------------------------------------------- ProcessGraph (L1)
        b.specs.push(OpSpec::new(
            job_actor.clone(),
            Mission::new("ProcessGraph", format!("0{suffix}")),
            Some(job_key.clone()),
            format!("{prefix}proc/"),
            &head,
            "machine-0",
        ));
        let mut prev_barrier = all_loaded;
        for it in &self.iterations {
            let t = it.iteration;
            let it_tag = format!("{prefix}proc/it{t}/");
            b.specs.push(
                OpSpec::new(
                    job_actor.clone(),
                    Mission::new("Iteration", format!("{t}{suffix}")),
                    Some(domain("ProcessGraph")),
                    it_tag.clone(),
                    &head,
                    "machine-0",
                )
                .with_info(
                    "ActiveVertices",
                    InfoValue::Int((it.active_vertices as f64 * scale).round() as i64),
                ),
            );
            let iter_parent = (
                job_actor.clone(),
                Mission::new("Iteration", format!("{t}{suffix}")),
            );

            let _it_span = granula_trace::span!("platform", "powergraph.iteration.build {it_tag}");

            // Gather minor-step on every machine.
            let gather_span = granula_trace::span!("platform", "powergraph.gather.build {it_tag}");
            let mut gathers: Vec<ActivityId> = Vec::with_capacity(k as usize);
            for m in 0..k {
                let stats = &it.per_machine[m as usize];
                let work = (stats.gather_edges as f64 * costs.compute_us_per_edge) * scale;
                let gather = b.dag.add(
                    ActivityKind::Compute {
                        node: NodeId(m),
                        work_core_us: work.max(500.0),
                        parallelism: costs.worker_threads,
                    },
                    &[prev_barrier],
                    format!("{it_tag}m{m}/gather"),
                );
                b.specs.push(
                    OpSpec::new(
                        Actor::new("Machine", m.to_string()),
                        Mission::new("Gather", format!("{t}{suffix}")),
                        Some(iter_parent.clone()),
                        format!("{it_tag}m{m}/gather"),
                        b.node(m),
                        format!("machine-{m}"),
                    )
                    .with_info(
                        "GatherEdges",
                        InfoValue::Int((stats.gather_edges as f64 * scale).round() as i64),
                    ),
                );
                gathers.push(gather);
            }

            drop(gather_span);

            // Exchange: replica syncs between machines.
            let exchange_span =
                granula_trace::span!("platform", "powergraph.exchange.build {it_tag}");
            let mut exchanges: Vec<ActivityId> = Vec::new();
            let mut sync_total = 0u64;
            #[allow(clippy::needless_range_loop)] // machine ids index the matrix
            for a in 0..k as usize {
                for dst in 0..k as usize {
                    let count = it.sync_matrix[a][dst];
                    if count == 0 {
                        continue;
                    }
                    sync_total += count;
                    exchanges.push(b.dag.add(
                        ActivityKind::Transfer {
                            src: NodeId(a as u16),
                            dst: NodeId(dst as u16),
                            bytes: count as f64 * costs.bytes_per_message * scale,
                        },
                        &[gathers[a]],
                        format!("{it_tag}ex/a{a}b{dst}"),
                    ));
                }
            }
            let exchange_done = if exchanges.is_empty() {
                b.dag.barrier(&gathers, format!("{it_tag}ex/none"))
            } else {
                let mut deps = exchanges.clone();
                deps.extend_from_slice(&gathers);
                b.dag.barrier(&deps, format!("{it_tag}ex/join"))
            };
            if !exchanges.is_empty() {
                b.specs.push(
                    OpSpec::new(
                        Actor::new("Master", "0"),
                        Mission::new("Exchange", format!("{t}{suffix}")),
                        Some(iter_parent.clone()),
                        format!("{it_tag}ex/"),
                        &head,
                        "machine-0",
                    )
                    .with_info(
                        "SyncMessages",
                        InfoValue::Int((sync_total as f64 * scale).round() as i64),
                    ),
                );
            }

            drop(exchange_span);

            // Apply + scatter per machine.
            let apply_span =
                granula_trace::span!("platform", "powergraph.apply_scatter.build {it_tag}");
            let mut scatters: Vec<ActivityId> = Vec::with_capacity(k as usize);
            for m in 0..k {
                let stats = &it.per_machine[m as usize];
                let apply = b.dag.add(
                    ActivityKind::Compute {
                        node: NodeId(m),
                        work_core_us: (stats.apply_vertices as f64
                            * costs.compute_us_per_vertex
                            * scale)
                            .max(200.0),
                        parallelism: costs.worker_threads,
                    },
                    &[exchange_done],
                    format!("{it_tag}m{m}/apply"),
                );
                b.specs.push(OpSpec::new(
                    Actor::new("Machine", m.to_string()),
                    Mission::new("Apply", format!("{t}{suffix}")),
                    Some(iter_parent.clone()),
                    format!("{it_tag}m{m}/apply"),
                    b.node(m),
                    format!("machine-{m}"),
                ));
                let scatter = b.dag.add(
                    ActivityKind::Compute {
                        node: NodeId(m),
                        work_core_us: (stats.scatter_edges as f64
                            * costs.compute_us_per_edge
                            * 0.5
                            * scale)
                            .max(200.0),
                        parallelism: costs.worker_threads,
                    },
                    &[apply],
                    format!("{it_tag}m{m}/scatter"),
                );
                b.specs.push(OpSpec::new(
                    Actor::new("Machine", m.to_string()),
                    Mission::new("Scatter", format!("{t}{suffix}")),
                    Some(iter_parent.clone()),
                    format!("{it_tag}m{m}/scatter"),
                    b.node(m),
                    format!("machine-{m}"),
                ));
                scatters.push(scatter);
            }
            drop(apply_span);
            let join = b.dag.barrier(&scatters, format!("{it_tag}barrier/join"));
            prev_barrier = b.dag.add(
                ActivityKind::Delay {
                    duration_us: costs.barrier_us,
                },
                &[join],
                format!("{it_tag}barrier/sync"),
            );
        }

        // --------------------------------------------- OffloadGraph (L1)
        b.specs.push(OpSpec::new(
            job_actor.clone(),
            Mission::new("OffloadGraph", format!("0{suffix}")),
            Some(job_key.clone()),
            format!("{prefix}offload/"),
            &head,
            "machine-0",
        ));
        let mut offloads: Vec<ActivityId> = Vec::with_capacity(k as usize);
        for m in 0..k {
            let bytes = self.masters[m as usize] as f64 * costs.bytes_per_vertex_out * scale;
            let write = b.dag.add(
                ActivityKind::SharedRead {
                    node: NodeId(m),
                    bytes,
                },
                &[prev_barrier],
                format!("{prefix}offload/m{m}/write"),
            );
            b.specs.push(
                OpSpec::new(
                    Actor::new("Machine", m.to_string()),
                    Mission::new("LocalOffload", format!("0{suffix}")),
                    Some(domain("OffloadGraph")),
                    format!("{prefix}offload/m{m}/"),
                    b.node(m),
                    format!("machine-{m}"),
                )
                .with_info("OutputBytes", InfoValue::Int(bytes.round() as i64)),
            );
            offloads.push(write);
        }
        let all_offloaded = b.dag.barrier(&offloads, format!("{prefix}offload/done"));

        // -------------------------------------------------- Cleanup (L1)
        b.specs.push(OpSpec::new(
            job_actor.clone(),
            Mission::new("Cleanup", format!("0{suffix}")),
            Some(job_key.clone()),
            format!("{prefix}cleanup/"),
            &head,
            "mpirun",
        ));
        b.dag.add(
            ActivityKind::Delay {
                duration_us: self.p.finalize_us,
            },
            &[all_offloaded],
            format!("{prefix}cleanup/finalize"),
        );
        b.specs.push(OpSpec::new(
            Actor::new("Master", "0"),
            Mission::new("MpiFinalize", format!("0{suffix}")),
            Some(domain("Cleanup")),
            format!("{prefix}cleanup/finalize"),
            &head,
            "mpirun",
        ));
    }

    /// Memory view. Machine 0 temporarily holds the *entire* parsed edge
    /// list as a staging buffer during the sequential load, released once
    /// partitions have been distributed — the memory-pressure signature
    /// of the single-loader design. Partitions then stay resident until
    /// MPI finalize. A restarted attempt repeats the pattern under its
    /// own tag prefix.
    pub(crate) fn memory(&self, b: &JobBuilder, sim: &SimResult) -> Vec<MemoryPhase> {
        let costs = &b.cfg.costs;
        let scale = b.cfg.scale_factor;
        let mut phases = Vec::with_capacity(2 * (b.cfg.nodes as usize + 1));
        for prefix in ["job/", "job/r1/"] {
            if prefix == "job/r1/" && sim.span_of_tag(&b.dag, prefix).is_none() {
                continue;
            }
            let release = sim
                .span_of_tag(&b.dag, &format!("{prefix}cleanup/"))
                .map(|(s, _)| s.round() as u64)
                .unwrap_or(sim.makespan_us.round() as u64);
            if let (Some((ss, se)), Some((_, de))) = (
                sim.span_of_tag(&b.dag, &format!("{prefix}load/seq/")),
                sim.span_of_tag(&b.dag, &format!("{prefix}load/dist/"))
                    .or(sim.span_of_tag(&b.dag, &format!("{prefix}load/seq/"))),
            ) {
                phases.push(MemoryPhase {
                    node: b.head.clone(),
                    ramp_start_us: ss.round() as u64,
                    ramp_end_us: se.round() as u64,
                    hold_until_us: de.round() as u64,
                    bytes: self.total_bytes,
                });
            }
            for m in 0..b.cfg.nodes {
                if let Some((fs, fe)) = sim.span_of_tag(&b.dag, &format!("{prefix}load/fin/m{m}/"))
                {
                    phases.push(MemoryPhase {
                        node: b.node(m),
                        ramp_start_us: fs.round() as u64,
                        ramp_end_us: fe.round() as u64,
                        hold_until_us: release,
                        bytes: self.edge_sizes[m as usize] as f64
                            * scale
                            * costs.bytes_per_edge_mem,
                    });
                }
            }
        }
        phases
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{reference_output, CostModel};
    use gpsim_graph::gen::{datagen_like, GenConfig};
    use granula_monitor::{Assembler, ResourceKind};

    fn job(algorithm: Algorithm) -> (Graph, JobConfig) {
        let g = datagen_like(&GenConfig::datagen(2_000, 11));
        let cfg = JobConfig::new(
            "test-job",
            "dg-test",
            algorithm,
            8,
            CostModel::powergraph_like(),
        );
        (g, cfg)
    }

    /// Runs `p`'s job on a DAS5-like cluster of `cfg.nodes` nodes.
    fn run(p: &PowerGraphPlatform, g: &Graph, cfg: &JobConfig, plan: &FaultPlan) -> PlatformRun {
        Engine::PowerGraph(p.clone())
            .run(g, cfg, &ClusterSpec::das5(cfg.nodes), plan)
            .unwrap()
    }

    #[test]
    fn bfs_run_produces_correct_output() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let run = run(&PowerGraphPlatform::default(), &g, &cfg, &FaultPlan::new());
        assert!(run.output.matches(&reference_output(&g, cfg.algorithm)));
        assert!(run.makespan_us > 0);
    }

    #[test]
    fn events_assemble_into_a_clean_tree() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let run = run(&PowerGraphPlatform::default(), &g, &cfg, &FaultPlan::new());
        let outcome = Assembler::new().assemble(run.events);
        assert!(
            outcome.warnings.is_empty(),
            "{:?}",
            &outcome.warnings[..5.min(outcome.warnings.len())]
        );
        let tree = outcome.tree;
        let root = tree.root().unwrap();
        assert_eq!(tree.op(root).mission.kind, "PowerGraphJob");
        for m in [
            "Startup",
            "LoadGraph",
            "ProcessGraph",
            "OffloadGraph",
            "Cleanup",
        ] {
            assert!(tree.child_by_mission(root, m).is_some(), "missing {m}");
        }
    }

    #[test]
    fn loading_is_sequential_on_one_machine() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let cfg = cfg.with_scale(1_000.0);
        let run = run(&PowerGraphPlatform::default(), &g, &cfg, &FaultPlan::new());
        let tree = Assembler::new().assemble(run.events.clone()).tree;
        let root = tree.root().unwrap();
        let load = tree.child_by_mission(root, "LoadGraph").unwrap();
        let (ls, le) = (
            tree.op(load).start_us().unwrap(),
            tree.op(load).end_us().unwrap(),
        );
        // During the first 60% of LoadGraph, only machine 0 consumes CPU.
        let cutoff = ls + (le - ls) * 6 / 10;
        let mut busy_others = 0.0f64;
        let mut busy_head = 0.0f64;
        for s in &run.env_samples {
            if s.kind == ResourceKind::Cpu && s.time_us >= ls && s.time_us < cutoff {
                if s.node == "node300" {
                    busy_head += s.value;
                } else {
                    busy_others += s.value;
                }
            }
        }
        assert!(busy_head > 0.0, "head node should be busy parsing");
        assert!(
            busy_others < 0.05 * busy_head,
            "other machines should idle during sequential load: head={busy_head} others={busy_others}"
        );
    }

    #[test]
    fn io_dominates_at_dg1000_scale() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        // Emulate a dg1000-sized input from the small logical graph.
        let cfg = cfg.with_scale(25_000.0);
        let run = run(&PowerGraphPlatform::default(), &g, &cfg, &FaultPlan::new());
        let tree = Assembler::new().assemble(run.events).tree;
        let root = tree.root().unwrap();
        let total = tree.op(root).duration_us().unwrap() as f64;
        let load = tree.child_by_mission(root, "LoadGraph").unwrap();
        let load_frac = tree.op(load).duration_us().unwrap() as f64 / total;
        assert!(load_frac > 0.7, "LoadGraph should dominate: {load_frac}");
        let proc_ = tree.child_by_mission(root, "ProcessGraph").unwrap();
        let proc_frac = tree.op(proc_).duration_us().unwrap() as f64 / total;
        assert!(proc_frac < 0.2, "processing should be small: {proc_frac}");
    }

    #[test]
    fn all_algorithms_validate() {
        for algorithm in [
            Algorithm::PageRank { iterations: 4 },
            Algorithm::Wcc,
            Algorithm::Cdlp { iterations: 3 },
        ] {
            let (g, cfg) = job(algorithm);
            let run = run(&PowerGraphPlatform::default(), &g, &cfg, &FaultPlan::new());
            assert!(
                run.output.matches(&reference_output(&g, algorithm)),
                "{algorithm:?}"
            );
        }
    }

    #[test]
    fn empty_fault_plan_is_identical_to_plain_run() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let p = PowerGraphPlatform::default();
        let plain = p.run_on(&g, &cfg, &ClusterSpec::das5(cfg.nodes)).unwrap();
        let faulted = run(&p, &g, &cfg, &FaultPlan::new());
        assert_eq!(plain.makespan_us, faulted.makespan_us);
        assert_eq!(plain.events, faulted.events);
    }

    #[test]
    fn crash_triggers_full_restart() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let p = PowerGraphPlatform::default();
        let healthy = run(&p, &g, &cfg, &FaultPlan::new());
        let plan = FaultPlan::new().crash(NodeId(2), healthy.makespan_us as f64 * 0.5);
        let faulty = run(&p, &g, &cfg, &plan);
        assert!(
            faulty.makespan_us > healthy.makespan_us,
            "fail-stop restart must cost time: {} vs {}",
            faulty.makespan_us,
            healthy.makespan_us
        );
        let outcome = Assembler::new().assemble(faulty.events);
        assert!(
            outcome.warnings.is_empty(),
            "{:?}",
            &outcome.warnings[..5.min(outcome.warnings.len())]
        );
        let tree = outcome.tree;
        let root = tree.root().unwrap();
        let recover = tree
            .child_by_mission(root, "Recover")
            .expect("Recover operation");
        for m in ["DetectFailure", "Respawn"] {
            assert!(tree.child_by_mission(recover, m).is_some(), "missing {m}");
        }
        let rec_op = tree.op(recover);
        assert!(rec_op
            .infos
            .iter()
            .any(|i| i.name == "FailedNode" && i.value == InfoValue::Text("node302".into())));
        assert!(rec_op
            .infos
            .iter()
            .any(|i| i.name == "WastedUs" && i.value.as_i64().is_some_and(|v| v > 0)));
        // The restarted attempt runs as distinct `:r1` operations.
        let restarted = tree
            .children(root)
            .filter(|o| o.mission.id.ends_with(":r1"))
            .map(|o| o.mission.kind.clone())
            .collect::<Vec<_>>();
        for m in [
            "Startup",
            "LoadGraph",
            "ProcessGraph",
            "OffloadGraph",
            "Cleanup",
        ] {
            assert!(
                restarted.iter().any(|k| k == m),
                "missing restarted {m}: {restarted:?}"
            );
        }
        // The restart finishes the job: its cleanup ends at the makespan.
        let cleanup2 = tree
            .children(root)
            .find(|o| o.mission.kind == "Cleanup" && o.mission.id.ends_with(":r1"))
            .unwrap();
        assert!(cleanup2.end_us().unwrap() > healthy.makespan_us);
    }

    #[test]
    fn crash_during_load_wastes_only_partial_load() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let p = PowerGraphPlatform::default();
        let healthy = run(&p, &g, &cfg, &FaultPlan::new());
        // Crash early, while machine 0 is still parsing.
        let plan = FaultPlan::new().crash(NodeId(0), healthy.makespan_us as f64 * 0.1);
        let faulty = run(&p, &g, &cfg, &plan);
        let tree = Assembler::new().assemble(faulty.events).tree;
        let root = tree.root().unwrap();
        // The doomed attempt never reached processing.
        assert!(tree
            .children(root)
            .filter(|o| o.mission.kind == "ProcessGraph")
            .all(|o| o.mission.id.ends_with(":r1")));
        let recover = tree.child_by_mission(root, "Recover").unwrap();
        let wasted = tree
            .op(recover)
            .infos
            .iter()
            .find(|i| i.name == "WastedUs")
            .and_then(|i| i.value.as_i64())
            .unwrap();
        assert!(
            (wasted as u64) < healthy.makespan_us / 4,
            "early crash should waste little: {wasted}"
        );
    }
}
