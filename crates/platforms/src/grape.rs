//! The GRAPE-like platform driver.
//!
//! Subgraph-centric processing in the style of GRAPE / GraphScope's
//! analytical engine: the graph is edge-cut into `k` fragments, each worker
//! runs the *sequential* algorithm on its whole fragment (PEval), and rounds
//! only exchange updates for boundary vertices; subsequent rounds evaluate
//! incrementally (IncEval), touching just the vertices reached by incoming
//! boundary updates. Compared with vertex-centric BSP this trades
//! many-superstep barrier traffic for fewer, coarser sync rounds. The
//! driver:
//!
//! 1. assigns vertices to fragments (hash or contiguous-block edge-cut —
//!    the partitioner is a first-class experiment axis);
//! 2. executes the algorithm with the fragment-local work-list engine in
//!    this module, collecting per-round, per-fragment counters and the
//!    boundary-update matrix;
//! 3. compiles the job into an activity DAG — coordinator + worker
//!    deployment, parallel fragment loads from shared storage, per-round
//!    sequential fragment kernels plus boundary-sync transfers, offload,
//!    and finalization;
//! 4. simulates the DAG and emits Granula instrumentation events plus
//!    environment samples.
//!
//! Fault recovery is *fragment-local replay*: the coordinator detects the
//! lost worker, the replacement re-reads only its own fragment from shared
//! storage, and replays its local evaluations using the boundary updates
//! its peers logged — no global checkpoint (Giraph) and no full restart
//! (PowerGraph).

use std::collections::VecDeque;

use gpsim_cluster::{
    ActivityGraph, ActivityId, ActivityKind, ClusterSpec, FaultPlan, NodeCrash, NodeId, SimError,
    Simulation,
};
use gpsim_graph::{BlockPartition, EdgeCutPartition, Graph, VertexId};
use granula_model::{Actor, InfoValue, Mission};

use crate::common::{
    memory_samples, reference_output, trace_to_samples, Algorithm, AlgorithmOutput, JobConfig,
    MemoryPhase, PlatformRun,
};
use crate::ops::{emit_events, OpSpec};

/// How vertices are assigned to edge-cut fragments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrapePartitioner {
    /// Murmur-mixed hash of the vertex id: balanced but locality-free, so
    /// almost every round crosses fragment boundaries.
    Hash,
    /// Contiguous vertex ranges balanced by out-edges: high locality on
    /// generator-ordered ids, so local fixpoints absorb most propagation.
    Block,
}

impl GrapePartitioner {
    /// Canonical short name, e.g. `"hash-ec"`.
    pub fn name(&self) -> &'static str {
        match self {
            GrapePartitioner::Hash => "hash-ec",
            GrapePartitioner::Block => "block-ec",
        }
    }

    /// Owner fragment of every vertex.
    pub fn owners(&self, g: &Graph, k: u16) -> Vec<u16> {
        match self {
            GrapePartitioner::Hash => EdgeCutPartition::hash(g.num_vertices(), k).owner,
            GrapePartitioner::Block => {
                let p = BlockPartition::by_edges(g, k);
                (0..g.num_vertices()).map(|v| p.owner_of(v)).collect()
            }
        }
    }
}

/// GRAPE-like platform: configuration knobs beyond the job's cost model.
#[derive(Debug, Clone)]
pub struct GrapePlatform {
    /// Coordinator + metadata-service startup latency, µs.
    pub deploy_us: f64,
    /// Per-worker process spawn latency, µs.
    pub worker_launch_us: f64,
    /// Engine finalization latency, µs.
    pub finalize_us: f64,
    /// Vertex-to-fragment assignment strategy.
    pub partitioner: GrapePartitioner,
    /// Round cap for convergent algorithms.
    pub max_rounds: u32,
    /// Time for the coordinator to notice a lost worker (missed liveness
    /// probes), µs.
    pub failure_detect_us: f64,
}

impl Default for GrapePlatform {
    fn default() -> Self {
        GrapePlatform {
            deploy_us: 1.5e6,
            worker_launch_us: 0.4e6,
            finalize_us: 0.8e6,
            partitioner: GrapePartitioner::Hash,
            max_rounds: 10_000,
            failure_detect_us: 1.5e6,
        }
    }
}

/// Per-fragment counters for one PEval/IncEval round.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FragmentRound {
    /// Work-list pops: vertices the sequential kernel evaluated.
    pub active_vertices: u64,
    /// Edges scanned while evaluating them.
    pub edges_scanned: u64,
}

/// One boundary-synchronized round of the subgraph-centric engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundStats {
    /// Round number (0 = PEval, >0 = IncEval).
    pub round: u32,
    /// Counters per fragment.
    pub per_fragment: Vec<FragmentRound>,
    /// Aggregated boundary updates fragment `a` sent to fragment `b`.
    pub boundary: Vec<Vec<u64>>,
}

impl RoundStats {
    /// Total vertices evaluated across fragments.
    pub fn total_active(&self) -> u64 {
        self.per_fragment.iter().map(|f| f.active_vertices).sum()
    }

    /// Total boundary updates exchanged at the end of the round.
    pub fn total_boundary(&self) -> u64 {
        self.boundary.iter().flatten().sum()
    }
}

/// Fragment-local work-list evaluation with boundary-synchronized rounds:
/// round 0 floods from the seeds inside each fragment to a local fixpoint
/// (PEval); each later round applies the boundary updates received and
/// floods again from just those vertices (IncEval). Monotone `better`
/// guarantees convergence to the global fixpoint.
#[allow(clippy::too_many_arguments)]
fn flood<T, C, B>(
    g: &Graph,
    owner: &[u16],
    k: u16,
    mut values: Vec<T>,
    seeds: Vec<VertexId>,
    undirected: bool,
    max_rounds: u32,
    candidate: C,
    better: B,
) -> (Vec<T>, Vec<RoundStats>)
where
    T: Copy,
    C: Fn(VertexId, usize, T) -> T,
    B: Fn(T, T) -> bool,
{
    let kk = k as usize;
    let mut frontier: Vec<Vec<VertexId>> = vec![Vec::new(); kk];
    for v in seeds {
        frontier[owner[v as usize] as usize].push(v);
    }
    // Best unapplied cross-fragment candidate per vertex.
    let mut pending: Vec<Option<T>> = vec![None; g.num_vertices() as usize];
    let mut rounds: Vec<RoundStats> = Vec::new();
    let mut round = 0u32;
    while round < max_rounds && frontier.iter().any(|f| !f.is_empty()) {
        let mut per_fragment = vec![FragmentRound::default(); kk];
        let mut boundary = vec![vec![0u64; kk]; kk];
        let mut touched: Vec<VertexId> = Vec::new();
        for (f, seeds_f) in frontier.iter_mut().enumerate() {
            let frag = &mut per_fragment[f];
            let mut work: VecDeque<VertexId> = seeds_f.drain(..).collect();
            while let Some(v) = work.pop_front() {
                frag.active_vertices += 1;
                let val = values[v as usize];
                let nbrs = g.neighbors(v);
                frag.edges_scanned += nbrs.len() as u64;
                for (i, &t) in nbrs.iter().enumerate() {
                    let cand = candidate(v, i, val);
                    let to = owner[t as usize] as usize;
                    if to == f {
                        if better(cand, values[t as usize]) {
                            values[t as usize] = cand;
                            work.push_back(t);
                        }
                    } else if better(cand, pending[t as usize].unwrap_or(values[t as usize])) {
                        if pending[t as usize].is_none() {
                            touched.push(t);
                        }
                        pending[t as usize] = Some(cand);
                        boundary[f][to] += 1;
                    }
                }
                if undirected {
                    let inn = g.in_neighbors(v);
                    frag.edges_scanned += inn.len() as u64;
                    for &t in inn {
                        let cand = candidate(v, usize::MAX, val);
                        let to = owner[t as usize] as usize;
                        if to == f {
                            if better(cand, values[t as usize]) {
                                values[t as usize] = cand;
                                work.push_back(t);
                            }
                        } else if better(cand, pending[t as usize].unwrap_or(values[t as usize])) {
                            if pending[t as usize].is_none() {
                                touched.push(t);
                            }
                            pending[t as usize] = Some(cand);
                            boundary[f][to] += 1;
                        }
                    }
                }
            }
        }
        // Boundary sync: apply the aggregated updates; improved vertices
        // seed the next round in their owner fragment.
        for &t in &touched {
            if let Some(cand) = pending[t as usize].take() {
                if better(cand, values[t as usize]) {
                    values[t as usize] = cand;
                    frontier[owner[t as usize] as usize].push(t);
                }
            }
        }
        rounds.push(RoundStats {
            round,
            per_fragment,
            boundary,
        });
        round += 1;
    }
    (values, rounds)
}

/// Round schedule for fixed-iteration synchronous algorithms (PageRank,
/// CDLP): every round is a full sweep of each fragment, and the boundary
/// traffic is the (structural) cut-edge matrix.
fn fixed_rounds(
    g: &Graph,
    owner: &[u16],
    k: u16,
    iterations: u32,
    undirected: bool,
) -> Vec<RoundStats> {
    let kk = k as usize;
    let mut verts = vec![0u64; kk];
    let mut edges = vec![0u64; kk];
    let mut cut = vec![vec![0u64; kk]; kk];
    for v in 0..g.num_vertices() {
        let f = owner[v as usize] as usize;
        verts[f] += 1;
        edges[f] += g.out_degree(v) as u64;
        for &t in g.neighbors(v) {
            let to = owner[t as usize] as usize;
            if to != f {
                cut[f][to] += 1;
            }
        }
        if undirected {
            edges[f] += g.in_degree(v) as u64;
            for &t in g.in_neighbors(v) {
                let to = owner[t as usize] as usize;
                if to != f {
                    cut[f][to] += 1;
                }
            }
        }
    }
    (0..iterations)
        .map(|r| RoundStats {
            round: r,
            per_fragment: (0..kk)
                .map(|f| FragmentRound {
                    active_vertices: verts[f],
                    edges_scanned: edges[f],
                })
                .collect(),
            boundary: cut.clone(),
        })
        .collect()
}

fn run_program(
    g: &Graph,
    owner: &[u16],
    k: u16,
    algorithm: Algorithm,
    max_rounds: u32,
) -> (AlgorithmOutput, Vec<RoundStats>) {
    let n = g.num_vertices() as usize;
    match algorithm {
        Algorithm::Bfs { source } => {
            let mut values = vec![u32::MAX; n];
            values[source as usize] = 0;
            let (values, rounds) = flood(
                g,
                owner,
                k,
                values,
                vec![source],
                false,
                max_rounds,
                |_, _, d| d + 1,
                |cand, cur| cand < cur,
            );
            (AlgorithmOutput::Levels(values), rounds)
        }
        Algorithm::Sssp { source } => {
            let mut values = vec![f64::INFINITY; n];
            values[source as usize] = 0.0;
            let (values, rounds) = flood(
                g,
                owner,
                k,
                values,
                vec![source],
                false,
                max_rounds,
                |v, i, d| d + g.edge_weights(v).map_or(1.0, |ws| ws[i] as f64),
                |cand, cur| cand < cur,
            );
            (AlgorithmOutput::Distances(values), rounds)
        }
        Algorithm::Wcc => {
            let values: Vec<u32> = (0..n as u32).collect();
            let (values, rounds) = flood(
                g,
                owner,
                k,
                values,
                (0..n as u32).collect(),
                true,
                max_rounds,
                |_, _, l| l,
                |cand, cur| cand < cur,
            );
            (AlgorithmOutput::Labels(values), rounds)
        }
        Algorithm::PageRank { iterations } => (
            reference_output(g, algorithm),
            fixed_rounds(g, owner, k, iterations, false),
        ),
        Algorithm::Cdlp { iterations } => (
            reference_output(g, algorithm),
            fixed_rounds(g, owner, k, iterations, true),
        ),
    }
}

impl GrapePlatform {
    /// Runs a job on a DAS5-like cluster with `cfg.nodes` nodes.
    pub fn run(&self, g: &Graph, cfg: &JobConfig) -> Result<PlatformRun, SimError> {
        self.run_on(g, cfg, &ClusterSpec::das5(cfg.nodes))
    }

    /// Runs a job on a DAS5-like cluster under an injected fault plan.
    pub fn run_with_faults(
        &self,
        g: &Graph,
        cfg: &JobConfig,
        plan: &FaultPlan,
    ) -> Result<PlatformRun, SimError> {
        self.run_on_with_faults(g, cfg, &ClusterSpec::das5(cfg.nodes), plan)
    }

    /// Runs a job on an explicit cluster (must have at least `cfg.nodes`
    /// nodes).
    pub fn run_on(
        &self,
        g: &Graph,
        cfg: &JobConfig,
        cluster: &ClusterSpec,
    ) -> Result<PlatformRun, SimError> {
        self.run_on_with_faults(g, cfg, cluster, &FaultPlan::default())
    }

    /// Runs a job on an explicit cluster under an injected fault plan.
    ///
    /// Slowdown windows pass straight through to the simulator. A node
    /// crash triggers GRAPE's fragment-local recovery: the coordinator
    /// detects the lost worker, a replacement re-reads *only the lost
    /// fragment* from shared storage, replays that fragment's evaluations
    /// for the committed rounds using the boundary updates its peers
    /// logged, and the interrupted round re-runs in full. The recovery is
    /// emitted as first-class Granula operations (`FailedRound`, `Recover`
    /// with `DetectFailure` / `ReloadFragment` / `Replay` children) so the
    /// archive can decompose the slowdown.
    ///
    /// Only the earliest crash in the plan is modeled; later crashes are
    /// dropped from the executed plan (single-failure model, as for the
    /// other platforms).
    pub fn run_on_with_faults(
        &self,
        g: &Graph,
        cfg: &JobConfig,
        cluster: &ClusterSpec,
        plan: &FaultPlan,
    ) -> Result<PlatformRun, SimError> {
        let costs = &cfg.costs;
        let scale = cfg.scale_factor;
        let Fragments {
            output,
            rounds,
            verts,
            edges,
            input_bytes,
        } = self.fragments(g, cfg, cluster);

        let crash = plan
            .crashes
            .iter()
            .min_by(|a, b| a.at_us.total_cmp(&b.at_us))
            .cloned()
            .filter(|_| !rounds.is_empty());

        let Some(crash) = crash else {
            // Healthy (possibly degraded) layout: no recovery structure.
            let mut b = Build::new(self, cfg, cluster, &rounds, &verts, &edges, &input_bytes);
            {
                let _span = granula_trace::span!("platform", "grape.build_dag {}", cfg.job_id);
                b.healthy();
            }
            return b.finish(plan, output);
        };

        // Phase 1: probe run — the same job under the plan's slowdowns only
        // — locates the crash inside the round schedule.
        let probe_span = granula_trace::span!("platform", "grape.probe {}", cfg.job_id);
        let slow_plan = FaultPlan {
            crashes: Vec::new(),
            slowdowns: plan.slowdowns.clone(),
        };
        let mut probe = Build::new(self, cfg, cluster, &rounds, &verts, &edges, &input_bytes);
        probe.healthy();
        let probe_sim = Simulation::new(cluster.clone()).run_with_faults(&probe.dag, &slow_plan)?;

        let (proc_start, proc_end) = probe_sim
            .span_of_tag(&probe.dag, "job/proc/")
            .expect("jobs run at least one round");
        let t_clamped = crash.at_us.clamp(proc_start + 1.0, proc_end - 1.0);
        let mut r_idx = rounds.len() - 1;
        for (ri, rs) in rounds.iter().enumerate() {
            let (_, end) = probe_sim
                .span_of_tag(&probe.dag, &format!("job/proc/r{}/", rs.round))
                .expect("round was simulated");
            if t_clamped < end {
                r_idx = ri;
                break;
            }
        }
        let r_star = rounds[r_idx].round;
        let (r_start, r_end) = probe_sim
            .span_of_tag(&probe.dag, &format!("job/proc/r{r_star}/"))
            .expect("round was simulated");
        let t_eff = t_clamped.clamp(r_start + 1.0, (r_end - 1.0).max(r_start + 1.0));
        // Only the interrupted round's partial work is wasted: committed
        // rounds survive on the healthy fragments and the lost one is
        // reconstructed by fragment-local replay, not re-executed globally.
        let wasted_us = t_eff - r_start;
        drop(probe_span);

        // Phase 2: the recovery layout. Prefix (startup, load, rounds
        // before r*) is identical to the probe; the interrupted round
        // becomes a doomed attempt killed by the injected crash; detection,
        // fragment reload and fragment-local replay follow under
        // `job/proc/recovery/`.
        let mut b = Build::new(self, cfg, cluster, &rounds, &verts, &edges, &input_bytes);
        let recovery_span = granula_trace::span!("platform", "grape.recovery.build {}", cfg.job_id);
        let started = b.startup();
        let mut prev = b.load(started);
        b.process_graph();
        for ri in 0..r_idx {
            prev = b.round(ri, prev, "job/proc/", true);
        }
        b.doomed_attempt(r_idx, prev);

        let coord = b.coord_node.clone();
        let lost = crash.node;
        let recover_actor = Actor::new("Coordinator", "0");
        let recover_key = (recover_actor.clone(), Mission::new("Recover", "0"));
        let proc_domain = b.domain("ProcessGraph");
        b.specs.push(
            OpSpec::new(
                recover_actor.clone(),
                Mission::new("Recover", "0"),
                Some(proc_domain),
                "job/proc/recovery/",
                &coord,
                "coordinator",
            )
            .with_info(
                "FailedNode",
                InfoValue::Text(cluster.node(lost).name.clone()),
            )
            .with_info("WastedUs", InfoValue::Int(wasted_us.round() as i64)),
        );
        // The crash anchor pins failure detection to the injected instant.
        let anchor = b.dag.add(
            ActivityKind::Delay { duration_us: t_eff },
            &[],
            "job/meta/t-crash",
        );
        let detect = b.dag.add(
            ActivityKind::Delay {
                duration_us: self.failure_detect_us,
            },
            &[anchor],
            "job/proc/recovery/detect",
        );
        b.specs.push(OpSpec::new(
            recover_actor.clone(),
            Mission::new("DetectFailure", "0"),
            Some(recover_key.clone()),
            "job/proc/recovery/detect",
            &coord,
            "coordinator",
        ));
        // The replacement worker re-reads only the lost fragment and
        // rebuilds its local index.
        let lw = lost.0 as usize;
        let reread = b.dag.add(
            ActivityKind::SharedRead {
                node: lost,
                bytes: input_bytes[lw],
            },
            &[detect],
            "job/proc/recovery/reload/read",
        );
        let rebuilt = b.dag.add(
            ActivityKind::Compute {
                node: lost,
                work_core_us: edges[lw] as f64 * scale * costs.build_cpu_us_per_edge,
                parallelism: costs.worker_threads,
            },
            &[reread],
            "job/proc/recovery/reload/build",
        );
        b.specs.push(
            OpSpec::new(
                recover_actor.clone(),
                Mission::new("ReloadFragment", "0"),
                Some(recover_key.clone()),
                "job/proc/recovery/reload/",
                &coord,
                "coordinator",
            )
            .with_info("InputBytes", InfoValue::Int(input_bytes[lw].round() as i64)),
        );
        // Fragment-local replay of the committed rounds: the lost fragment
        // re-evaluates its own kernel, fed by the boundary updates its
        // peers logged (resent, never recomputed).
        let mut prev_r = rebuilt;
        for (ri, rs) in rounds.iter().enumerate().take(r_idx) {
            let r = rs.round;
            let rtag = format!("job/proc/recovery/replay/r{r}/");
            let mut deps = vec![prev_r];
            if ri > 0 {
                for (a, row) in rounds[ri - 1].boundary.iter().enumerate() {
                    if a == lw || row[lw] == 0 {
                        continue;
                    }
                    deps.push(b.dag.add(
                        ActivityKind::Transfer {
                            src: NodeId(a as u16),
                            dst: lost,
                            bytes: row[lw] as f64 * costs.bytes_per_message * scale,
                        },
                        &[prev_r],
                        format!("{rtag}in/a{a}"),
                    ));
                }
            }
            let frag = &rs.per_fragment[lw];
            let work = (frag.edges_scanned as f64 * costs.compute_us_per_edge
                + frag.active_vertices as f64 * costs.compute_us_per_vertex)
                * scale;
            prev_r = b.dag.add(
                ActivityKind::Compute {
                    node: lost,
                    work_core_us: work.max(400.0),
                    parallelism: 1,
                },
                &deps,
                format!("{rtag}eval"),
            );
            b.specs.push(OpSpec::new(
                recover_actor.clone(),
                Mission::new("Replay", r.to_string()),
                Some(recover_key.clone()),
                rtag,
                &coord,
                "coordinator",
            ));
        }
        // The interrupted round never committed its sync: it re-runs in
        // full, covered by the final Replay op.
        prev = b.round(r_idx, prev_r, "job/proc/recovery/replay/", false);
        b.specs.push(OpSpec::new(
            recover_actor.clone(),
            Mission::new("Replay", r_star.to_string()),
            Some(recover_key.clone()),
            format!("job/proc/recovery/replay/r{r_star}/"),
            &coord,
            "coordinator",
        ));
        for ri in r_idx + 1..rounds.len() {
            prev = b.round(ri, prev, "job/proc/", true);
        }
        let offloaded = b.offload(prev);
        b.cleanup(offloaded);
        drop(recovery_span);

        let restart_after = crash.restart_after_us.unwrap_or(self.failure_detect_us);
        let exec_plan = FaultPlan {
            crashes: vec![NodeCrash {
                node: crash.node,
                at_us: t_eff,
                restart_after_us: Some(restart_after),
            }],
            slowdowns: plan.slowdowns.clone(),
        };
        b.finish(&exec_plan, output)
    }

    /// The activity DAG a healthy run hands to the simulator: the layout
    /// of [`GrapePlatform::run_on`] without the simulation.
    pub fn healthy_dag(&self, g: &Graph, cfg: &JobConfig, cluster: &ClusterSpec) -> ActivityGraph {
        let f = self.fragments(g, cfg, cluster);
        let mut b = Build::new(
            self,
            cfg,
            cluster,
            &f.rounds,
            &f.verts,
            &f.edges,
            &f.input_bytes,
        );
        b.healthy();
        b.dag
    }

    /// Runs the algorithm over the fragments and sizes each fragment.
    fn fragments(&self, g: &Graph, cfg: &JobConfig, cluster: &ClusterSpec) -> Fragments {
        assert!(
            cluster.len() >= cfg.nodes as usize && cfg.nodes > 0,
            "cluster too small for {} workers",
            cfg.nodes
        );
        let k = cfg.nodes;
        let owner = self.partitioner.owners(g, k);
        let (output, rounds) = {
            let _span = granula_trace::span!("platform", "grape.eval {}", cfg.job_id);
            run_program(g, &owner, k, cfg.algorithm, self.max_rounds)
        };

        // Per-fragment data sizes (logical counts; scaled at use sites).
        let mut verts = vec![0u64; k as usize];
        let mut edges = vec![0u64; k as usize];
        for v in 0..g.num_vertices() {
            let w = owner[v as usize] as usize;
            verts[w] += 1;
            edges[w] += g.out_degree(v) as u64;
        }
        let input_bytes: Vec<f64> = (0..k as usize)
            .map(|w| {
                (verts[w] as f64 * 10.0 + edges[w] as f64 * cfg.costs.bytes_per_edge_in)
                    * cfg.scale_factor
            })
            .collect();
        Fragments {
            output,
            rounds,
            verts,
            edges,
            input_bytes,
        }
    }
}

/// The algorithm's output and per-round counters plus per-fragment
/// vertex, edge and input-byte counts.
struct Fragments {
    output: AlgorithmOutput,
    rounds: Vec<RoundStats>,
    verts: Vec<u64>,
    edges: Vec<u64>,
    input_bytes: Vec<f64>,
}

/// Incremental DAG + spec builder shared by the healthy and the
/// fault-recovery job layouts.
struct Build<'a> {
    p: &'a GrapePlatform,
    cfg: &'a JobConfig,
    cluster: &'a ClusterSpec,
    rounds: &'a [RoundStats],
    verts: &'a [u64],
    edges: &'a [u64],
    input_bytes: &'a [f64],
    dag: ActivityGraph,
    specs: Vec<OpSpec>,
    job_actor: Actor,
    job_key: (Actor, Mission),
    coord_node: String,
}

impl<'a> Build<'a> {
    fn new(
        p: &'a GrapePlatform,
        cfg: &'a JobConfig,
        cluster: &'a ClusterSpec,
        rounds: &'a [RoundStats],
        verts: &'a [u64],
        edges: &'a [u64],
        input_bytes: &'a [f64],
    ) -> Self {
        let job_actor = Actor::new("Job", "0");
        let job_mission = Mission::new("GrapeJob", "0");
        let job_key = (job_actor.clone(), job_mission.clone());
        let coord_node = cluster.node(NodeId(0)).name.clone();
        let specs: Vec<OpSpec> = vec![OpSpec::new(
            job_actor.clone(),
            job_mission,
            None,
            "job/",
            &coord_node,
            "coordinator",
        )
        .with_info("Platform", InfoValue::Text("Grape".into()))
        .with_info("Algorithm", InfoValue::Text(cfg.algorithm.name().into()))
        .with_info("Dataset", InfoValue::Text(cfg.dataset.clone()))
        .with_info("Workers", InfoValue::Int(cfg.nodes as i64))
        .with_info("Partitioner", InfoValue::Text(p.partitioner.name().into()))];
        Build {
            p,
            cfg,
            cluster,
            rounds,
            verts,
            edges,
            input_bytes,
            dag: ActivityGraph::new(),
            specs,
            job_actor,
            job_key,
            coord_node,
        }
    }

    fn worker_node(&self, w: u16) -> String {
        self.cluster.node(NodeId(w)).name.clone()
    }

    fn domain(&self, mission: &str) -> (Actor, Mission) {
        (self.job_actor.clone(), Mission::new(mission, "0"))
    }

    /// Lays out the healthy job: startup, load, every round, offload and
    /// cleanup.
    fn healthy(&mut self) {
        let started = self.startup();
        let mut prev = self.load(started);
        self.process_graph();
        for ri in 0..self.rounds.len() {
            prev = self.round(ri, prev, "job/proc/", true);
        }
        let offloaded = self.offload(prev);
        self.cleanup(offloaded);
    }

    // -------------------------------------------------- Startup (L1)
    fn startup(&mut self) -> ActivityId {
        let k = self.cfg.nodes;
        self.specs.push(OpSpec::new(
            self.job_actor.clone(),
            Mission::new("Startup", "0"),
            Some(self.job_key.clone()),
            "job/startup/",
            &self.coord_node,
            "coordinator",
        ));
        let deploy = self.dag.add(
            ActivityKind::Delay {
                duration_us: self.p.deploy_us,
            },
            &[],
            "job/startup/coordinator",
        );
        self.specs.push(OpSpec::new(
            Actor::new("Coordinator", "0"),
            Mission::new("DeployCoordinator", "0"),
            Some(self.domain("Startup")),
            "job/startup/coordinator",
            &self.coord_node,
            "coordinator",
        ));
        self.specs.push(OpSpec::new(
            Actor::new("Coordinator", "0"),
            Mission::new("DeployWorkers", "0"),
            Some(self.domain("Startup")),
            "job/startup/deploy/",
            &self.coord_node,
            "coordinator",
        ));
        let mut ready: Vec<ActivityId> = Vec::with_capacity(k as usize);
        for w in 0..k {
            let launch = self.dag.add(
                ActivityKind::Delay {
                    duration_us: self.p.worker_launch_us * (1.0 + 0.05 * w as f64),
                },
                &[deploy],
                format!("job/startup/deploy/w{w}"),
            );
            self.specs.push(OpSpec::new(
                Actor::new("Worker", w.to_string()),
                Mission::new("LocalStartup", "0"),
                Some((
                    Actor::new("Coordinator", "0"),
                    Mission::new("DeployWorkers", "0"),
                )),
                format!("job/startup/deploy/w{w}"),
                self.worker_node(w),
                format!("worker-{w}"),
            ));
            ready.push(launch);
        }
        self.dag.barrier(&ready, "job/startup/all-ready")
    }

    // ------------------------------------------------ LoadGraph (L1)
    fn load(&mut self, started: ActivityId) -> ActivityId {
        let k = self.cfg.nodes;
        let costs = &self.cfg.costs;
        let scale = self.cfg.scale_factor;
        self.specs.push(OpSpec::new(
            self.job_actor.clone(),
            Mission::new("LoadGraph", "0"),
            Some(self.job_key.clone()),
            "job/load/",
            &self.coord_node,
            "coordinator",
        ));
        let mut loaded: Vec<ActivityId> = Vec::with_capacity(k as usize);
        for w in 0..k {
            let node = NodeId(w);
            let tagp = format!("job/load/w{w}/");
            self.specs.push(
                OpSpec::new(
                    Actor::new("Worker", w.to_string()),
                    Mission::new("LocalLoad", "0"),
                    Some(self.domain("LoadGraph")),
                    tagp.clone(),
                    self.worker_node(w),
                    format!("worker-{w}"),
                )
                .with_info(
                    "InputBytes",
                    InfoValue::Int(self.input_bytes[w as usize].round() as i64),
                ),
            );
            // Parallel read of this worker's fragment from shared storage.
            let read = self.dag.add(
                ActivityKind::SharedRead {
                    node,
                    bytes: self.input_bytes[w as usize],
                },
                &[started],
                format!("{tagp}read"),
            );
            self.specs.push(OpSpec::new(
                Actor::new("Worker", w.to_string()),
                Mission::new("ReadFragment", "0"),
                Some((
                    Actor::new("Worker", w.to_string()),
                    Mission::new("LocalLoad", "0"),
                )),
                format!("{tagp}read"),
                self.worker_node(w),
                format!("worker-{w}"),
            ));
            let parse = self.dag.add(
                ActivityKind::Compute {
                    node,
                    work_core_us: self.input_bytes[w as usize] * costs.parse_cpu_us_per_byte,
                    parallelism: costs.worker_threads,
                },
                &[read],
                format!("{tagp}parse"),
            );
            let build = self.dag.add(
                ActivityKind::Compute {
                    node,
                    work_core_us: self.edges[w as usize] as f64
                        * scale
                        * costs.build_cpu_us_per_edge,
                    parallelism: costs.worker_threads,
                },
                &[parse],
                format!("{tagp}build"),
            );
            self.specs.push(OpSpec::new(
                Actor::new("Worker", w.to_string()),
                Mission::new("BuildIndex", "0"),
                Some((
                    Actor::new("Worker", w.to_string()),
                    Mission::new("LocalLoad", "0"),
                )),
                format!("{tagp}build"),
                self.worker_node(w),
                format!("worker-{w}"),
            ));
            loaded.push(build);
        }
        self.dag.barrier(&loaded, "job/load/all-loaded")
    }

    // ---------------------------------------------- ProcessGraph (L1)
    fn process_graph(&mut self) {
        self.specs.push(OpSpec::new(
            self.job_actor.clone(),
            Mission::new("ProcessGraph", "0"),
            Some(self.job_key.clone()),
            "job/proc/",
            &self.coord_node,
            "coordinator",
        ));
    }

    /// One boundary-synchronized round: per-fragment *sequential* kernel
    /// (parallelism 1 — the defining GRAPE trait), boundary-update
    /// transfers, and the coordinator's sync barrier. `prefix` places the
    /// activities; `with_specs` controls whether the round emits its own
    /// Granula operations (replays are covered by a single `Replay` op
    /// pushed by the caller).
    fn round(
        &mut self,
        ri: usize,
        prev_barrier: ActivityId,
        prefix: &str,
        with_specs: bool,
    ) -> ActivityId {
        let k = self.cfg.nodes;
        let costs = &self.cfg.costs;
        let scale = self.cfg.scale_factor;
        let rs = &self.rounds[ri];
        let r = rs.round;
        let r_tag = format!("{prefix}r{r}/");
        let eval_kind = if r == 0 { "PEval" } else { "IncEval" };
        if with_specs {
            self.specs.push(
                OpSpec::new(
                    self.job_actor.clone(),
                    Mission::new("Round", r.to_string()),
                    Some(self.domain("ProcessGraph")),
                    r_tag.clone(),
                    &self.coord_node,
                    "coordinator",
                )
                .with_info(
                    "ActiveVertices",
                    InfoValue::Int((rs.total_active() as f64 * scale).round() as i64),
                )
                .with_info(
                    "BoundaryMessages",
                    InfoValue::Int((rs.total_boundary() as f64 * scale).round() as i64),
                ),
            );
        }
        let mut evals: Vec<ActivityId> = Vec::with_capacity(k as usize);
        for w in 0..k {
            let frag = &rs.per_fragment[w as usize];
            let work = (frag.edges_scanned as f64 * costs.compute_us_per_edge
                + frag.active_vertices as f64 * costs.compute_us_per_vertex)
                * scale;
            let eval = self.dag.add(
                ActivityKind::Compute {
                    node: NodeId(w),
                    // Idle fragments still tick over the round machinery.
                    work_core_us: work.max(400.0),
                    parallelism: 1,
                },
                &[prev_barrier],
                format!("{r_tag}f{w}/eval"),
            );
            if with_specs {
                self.specs.push(
                    OpSpec::new(
                        Actor::new("Worker", w.to_string()),
                        Mission::new(eval_kind, r.to_string()),
                        Some((self.job_actor.clone(), Mission::new("Round", r.to_string()))),
                        format!("{r_tag}f{w}/"),
                        self.worker_node(w),
                        format!("worker-{w}"),
                    )
                    .with_info(
                        "EdgesScanned",
                        InfoValue::Int((frag.edges_scanned as f64 * scale).round() as i64),
                    )
                    .with_info(
                        "ActiveVertices",
                        InfoValue::Int((frag.active_vertices as f64 * scale).round() as i64),
                    ),
                );
            }
            evals.push(eval);
        }
        // Boundary-update exchange, then the coordinator's sync.
        let mut deps: Vec<ActivityId> = evals.clone();
        for (a, row) in rs.boundary.iter().enumerate() {
            for (bdst, &count) in row.iter().enumerate() {
                if a == bdst || count == 0 {
                    continue;
                }
                deps.push(self.dag.add(
                    ActivityKind::Transfer {
                        src: NodeId(a as u16),
                        dst: NodeId(bdst as u16),
                        bytes: count as f64 * costs.bytes_per_message * scale,
                    },
                    &[evals[a]],
                    format!("{r_tag}sync/a{a}b{bdst}"),
                ));
            }
        }
        let join = self.dag.barrier(&deps, format!("{r_tag}sync/join"));
        let sync = self.dag.add(
            ActivityKind::Delay {
                duration_us: costs.barrier_us,
            },
            &[join],
            format!("{r_tag}sync/coord"),
        );
        if with_specs {
            self.specs.push(OpSpec::new(
                Actor::new("Coordinator", "0"),
                Mission::new("BoundarySync", r.to_string()),
                Some((self.job_actor.clone(), Mission::new("Round", r.to_string()))),
                format!("{r_tag}sync/"),
                &self.coord_node,
                "coordinator",
            ));
        }
        sync
    }

    /// The attempt at round `ri` that the crash interrupts: per-fragment
    /// kernels, no sync — the failure means the round never commits, and
    /// recovery (not this attempt) gates further work.
    fn doomed_attempt(&mut self, ri: usize, prev_barrier: ActivityId) {
        let k = self.cfg.nodes;
        let costs = &self.cfg.costs;
        let scale = self.cfg.scale_factor;
        let rs = &self.rounds[ri];
        let r = rs.round;
        let tag = format!("job/proc/r{r}/");
        self.specs.push(OpSpec::new(
            Actor::new("Coordinator", "0"),
            Mission::new("FailedRound", r.to_string()),
            Some(self.domain("ProcessGraph")),
            tag.clone(),
            &self.coord_node,
            "coordinator",
        ));
        for w in 0..k {
            let frag = &rs.per_fragment[w as usize];
            let work = (frag.edges_scanned as f64 * costs.compute_us_per_edge
                + frag.active_vertices as f64 * costs.compute_us_per_vertex)
                * scale;
            self.dag.add(
                ActivityKind::Compute {
                    node: NodeId(w),
                    work_core_us: work.max(400.0),
                    parallelism: 1,
                },
                &[prev_barrier],
                format!("{tag}try/f{w}/eval"),
            );
        }
    }

    // --------------------------------------------- OffloadGraph (L1)
    fn offload(&mut self, prev_barrier: ActivityId) -> ActivityId {
        let k = self.cfg.nodes;
        let costs = &self.cfg.costs;
        let scale = self.cfg.scale_factor;
        self.specs.push(OpSpec::new(
            self.job_actor.clone(),
            Mission::new("OffloadGraph", "0"),
            Some(self.job_key.clone()),
            "job/offload/",
            &self.coord_node,
            "coordinator",
        ));
        let mut offloads: Vec<ActivityId> = Vec::with_capacity(k as usize);
        for w in 0..k {
            let bytes = self.verts[w as usize] as f64 * costs.bytes_per_vertex_out * scale;
            let write = self.dag.add(
                ActivityKind::SharedRead {
                    node: NodeId(w),
                    bytes,
                },
                &[prev_barrier],
                format!("job/offload/w{w}/write"),
            );
            self.specs.push(
                OpSpec::new(
                    Actor::new("Worker", w.to_string()),
                    Mission::new("LocalOffload", "0"),
                    Some(self.domain("OffloadGraph")),
                    format!("job/offload/w{w}/"),
                    self.worker_node(w),
                    format!("worker-{w}"),
                )
                .with_info("OutputBytes", InfoValue::Int(bytes.round() as i64)),
            );
            offloads.push(write);
        }
        self.dag.barrier(&offloads, "job/offload/all-done")
    }

    // -------------------------------------------------- Cleanup (L1)
    fn cleanup(&mut self, all_offloaded: ActivityId) {
        self.specs.push(OpSpec::new(
            self.job_actor.clone(),
            Mission::new("Cleanup", "0"),
            Some(self.job_key.clone()),
            "job/cleanup/",
            &self.coord_node,
            "coordinator",
        ));
        self.dag.add(
            ActivityKind::Delay {
                duration_us: self.p.finalize_us,
            },
            &[all_offloaded],
            "job/cleanup/finalize",
        );
        self.specs.push(OpSpec::new(
            Actor::new("Coordinator", "0"),
            Mission::new("Terminate", "0"),
            Some(self.domain("Cleanup")),
            "job/cleanup/finalize",
            &self.coord_node,
            "coordinator",
        ));
    }

    // ------------------------------------------------------- Simulate
    fn finish(self, plan: &FaultPlan, output: AlgorithmOutput) -> Result<PlatformRun, SimError> {
        let k = self.cfg.nodes;
        let costs = &self.cfg.costs;
        let scale = self.cfg.scale_factor;
        let sim = {
            let _span = granula_trace::span!("platform", "grape.simulate {}", self.cfg.job_id);
            Simulation::new(self.cluster.clone()).run_with_faults(&self.dag, plan)?
        };
        let events = emit_events(&self.specs, &self.dag, &sim);
        let mut env_samples = trace_to_samples(&sim.trace);
        // Memory view: each fragment becomes resident over its load
        // interval and is released when the engine finalizes.
        let release = sim
            .span_of_tag(&self.dag, "job/cleanup/")
            .map(|(s, _)| s.round() as u64)
            .unwrap_or(sim.makespan_us.round() as u64);
        let mut phases = Vec::with_capacity(k as usize);
        for w in 0..k {
            if let Some((ls, le)) = sim.span_of_tag(&self.dag, &format!("job/load/w{w}/")) {
                phases.push(MemoryPhase {
                    node: self.worker_node(w),
                    ramp_start_us: ls.round() as u64,
                    ramp_end_us: le.round() as u64,
                    hold_until_us: release,
                    bytes: self.edges[w as usize] as f64 * scale * costs.bytes_per_edge_mem,
                });
            }
        }
        env_samples.extend(memory_samples(&phases, sim.makespan_us.round() as u64));
        Ok(PlatformRun {
            events,
            env_samples,
            output,
            makespan_us: sim.makespan_us.round() as u64,
            iterations: self.rounds.len() as u32,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::CostModel;
    use gpsim_graph::gen::{datagen_like, GenConfig};
    use granula_monitor::Assembler;

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

    #[test]
    fn all_algorithms_validate() {
        for algorithm in [
            Algorithm::Bfs { source: 3 },
            Algorithm::PageRank { iterations: 4 },
            Algorithm::Wcc,
            Algorithm::Sssp { source: 3 },
            Algorithm::Cdlp { iterations: 3 },
        ] {
            for partitioner in [GrapePartitioner::Hash, GrapePartitioner::Block] {
                let (g, cfg) = job(algorithm);
                let p = GrapePlatform {
                    partitioner,
                    ..GrapePlatform::default()
                };
                let run = p.run(&g, &cfg).unwrap();
                assert!(
                    run.output.matches(&reference_output(&g, algorithm)),
                    "{algorithm:?} under {partitioner:?}"
                );
            }
        }
    }

    #[test]
    fn subgraph_rounds_beat_vertex_centric_supersteps() {
        // The subgraph-centric pitch: fragment-local fixpoints absorb
        // propagation, so BFS needs fewer sync rounds than BSP supersteps
        // (which need one per level).
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let grape = GrapePlatform {
            partitioner: GrapePartitioner::Block,
            ..GrapePlatform::default()
        }
        .run(&g, &cfg)
        .unwrap();
        let giraph = crate::giraph::GiraphPlatform::default()
            .run(&g, &cfg)
            .unwrap();
        assert!(
            grape.iterations < giraph.iterations,
            "block-partitioned GRAPE rounds ({}) should undercut BSP supersteps ({})",
            grape.iterations,
            giraph.iterations
        );
    }

    #[test]
    fn events_assemble_into_a_clean_tree() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let run = GrapePlatform::default().run(&g, &cfg).unwrap();
        let outcome = Assembler::new().assemble(run.events);
        assert!(
            outcome.warnings.is_empty(),
            "{:?}",
            &outcome.warnings[..5.min(outcome.warnings.len())]
        );
        let tree = outcome.tree;
        let root = tree.root().unwrap();
        assert_eq!(tree.op(root).mission.kind, "GrapeJob");
        for m in [
            "Startup",
            "LoadGraph",
            "ProcessGraph",
            "OffloadGraph",
            "Cleanup",
        ] {
            assert!(tree.child_by_mission(root, m).is_some(), "missing {m}");
        }
        let proc_ = tree.child_by_mission(root, "ProcessGraph").unwrap();
        let n_rounds = tree
            .children(proc_)
            .filter(|o| o.mission.kind == "Round")
            .count();
        assert_eq!(n_rounds as u32, run.iterations);
        // Round 0 is PEval; later rounds are IncEval.
        assert_eq!(tree.by_mission_kind("PEval").count(), 8);
        assert!(tree.by_mission_kind("IncEval").count() >= 8);
    }

    #[test]
    fn empty_fault_plan_is_identical_to_plain_run() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let p = GrapePlatform::default();
        let plain = p.run(&g, &cfg).unwrap();
        let faultless = p.run_with_faults(&g, &cfg, &FaultPlan::new()).unwrap();
        assert_eq!(plain.makespan_us, faultless.makespan_us);
        assert_eq!(plain.events, faultless.events);
    }

    #[test]
    fn crash_recovery_reloads_and_replays_only_the_lost_fragment() {
        let (g, cfg) = job(Algorithm::PageRank { iterations: 6 });
        let p = GrapePlatform::default();
        let healthy = p.run(&g, &cfg).unwrap();
        let plan = FaultPlan::new().crash(NodeId(2), healthy.makespan_us as f64 * 0.6);
        let faulty = p.run_with_faults(&g, &cfg, &plan).unwrap();
        assert!(
            faulty.makespan_us > healthy.makespan_us,
            "recovery must cost time: {} vs {}",
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
        let proc_ = tree.child_by_mission(root, "ProcessGraph").unwrap();
        assert!(tree
            .children(proc_)
            .any(|o| o.mission.kind == "FailedRound"));
        let recover = tree
            .child_by_mission(proc_, "Recover")
            .expect("Recover operation");
        for m in ["DetectFailure", "ReloadFragment"] {
            assert!(tree.child_by_mission(recover, m).is_some(), "missing {m}");
        }
        let n_replay = tree
            .children(recover)
            .filter(|o| o.mission.kind == "Replay")
            .count();
        assert!(n_replay >= 1, "lost rounds must be replayed");
        let rec_op = tree.op(recover);
        assert!(rec_op
            .infos
            .iter()
            .any(|i| i.name == "FailedNode" && i.value == InfoValue::Text("node302".into())));
        // No round is lost or duplicated: the interrupted round moves from
        // the committed sequence into the replay set.
        let committed = tree
            .children(proc_)
            .filter(|o| o.mission.kind == "Round")
            .count();
        let failed = tree
            .children(proc_)
            .filter(|o| o.mission.kind == "FailedRound")
            .count();
        assert_eq!(failed, 1);
        assert_eq!(committed + 1, healthy.iterations as usize);
    }

    #[test]
    fn scale_factor_stretches_runtime() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let small = GrapePlatform::default().run(&g, &cfg).unwrap();
        let big = GrapePlatform::default()
            .run(&g, &cfg.clone().with_scale(50.0))
            .unwrap();
        assert!(big.makespan_us > small.makespan_us);
    }
}
