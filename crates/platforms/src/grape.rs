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

use gpsim_cluster::{ActivityId, ActivityKind, ClusterSpec, FaultPlan, NodeId, SimError};
use gpsim_graph::{BlockPartition, EdgeCutPartition, Graph, VertexId};
use granula_model::{Actor, InfoValue, Mission};

use crate::common::{reference_output, Algorithm, AlgorithmOutput, JobConfig, PlatformRun};
use crate::engine::Engine;
use crate::job::{JobBuilder, Recovery, Shards, StepLayout};
use crate::ops::OpSpec;

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
///
/// Under a fault plan ([`Engine::run`]), slowdown windows pass straight
/// through to the simulator. A node crash triggers GRAPE's fragment-local
/// recovery: the coordinator detects the lost worker, a replacement
/// re-reads *only the lost fragment* from shared storage, replays that
/// fragment's evaluations for the committed rounds using the boundary
/// updates its peers logged, and the interrupted round re-runs in full.
/// The recovery is emitted as first-class Granula operations
/// (`FailedRound`, `Recover` with `DetectFailure` / `ReloadFragment` /
/// `Replay` children) so the archive can decompose the slowdown.
///
/// Only the earliest crash in the plan is modeled; later crashes are
/// dropped from the executed plan (single-failure model, as for the other
/// platforms).
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
    /// Runs a job on an explicit cluster with no faults: [`Engine::run`]
    /// with an empty plan. Kept because perfbench's pipeline calls it.
    pub fn run_on(
        &self,
        g: &Graph,
        cfg: &JobConfig,
        cluster: &ClusterSpec,
    ) -> Result<PlatformRun, SimError> {
        Engine::Grape(self.clone()).run(g, cfg, cluster, &FaultPlan::default())
    }

    /// Runs the algorithm over the fragments and sizes each fragment.
    pub(crate) fn layout(&self, g: &Graph, cfg: &JobConfig) -> (AlgorithmOutput, Layout<'_>) {
        let owner = self.partitioner.owners(g, cfg.nodes);
        let (output, rounds) = {
            let _span = granula_trace::span!("platform", "grape.eval {}", cfg.job_id);
            run_program(g, &owner, cfg.nodes, cfg.algorithm, self.max_rounds)
        };
        let shards = Shards::new(g, cfg, |v| owner[v as usize]);
        let layout = Layout {
            p: self,
            rounds,
            shards,
        };
        (output, layout)
    }
}

/// A GRAPE job's layout inputs: the per-round counters and the
/// per-fragment sizes.
pub(crate) struct Layout<'a> {
    p: &'a GrapePlatform,
    rounds: Vec<RoundStats>,
    shards: Shards,
}

/// Actor kind and process name of a worker's operations.
const WORKER: (&str, &str) = ("Worker", "worker");

/// Actor kind and process name of the coordinator's operations on the head node.
const COORDINATOR: (&str, &str) = ("Coordinator", "coordinator");

/// Sequential kernel work of one fragment in one round; idle fragments
/// still tick over the round machinery.
fn eval_work(cfg: &JobConfig, frag: &FragmentRound) -> f64 {
    let costs = &cfg.costs;
    let work = (frag.edges_scanned as f64 * costs.compute_us_per_edge
        + frag.active_vertices as f64 * costs.compute_us_per_vertex)
        * cfg.scale_factor;
    work.max(400.0)
}

impl StepLayout for Layout<'_> {
    const NAME: &'static str = "grape";
    const UNIT: &'static str = "r";
    const RECOVERER: (&'static str, &'static str) = COORDINATOR;

    fn builder<'b>(&self, cfg: &'b JobConfig, cluster: &'b ClusterSpec) -> JobBuilder<'b> {
        let infos = vec![
            ("Workers", InfoValue::Int(cfg.nodes as i64)),
            (
                "Partitioner",
                InfoValue::Text(self.p.partitioner.name().into()),
            ),
        ];
        JobBuilder::new(cfg, cluster, "GrapeJob", "coordinator", "Grape", infos)
    }

    fn shards(&self) -> &Shards {
        &self.shards
    }

    fn units(&self) -> usize {
        self.rounds.len()
    }

    fn unit_id(&self, i: usize) -> u32 {
        self.rounds[i].round
    }

    fn failure_detect_us(&self) -> f64 {
        self.p.failure_detect_us
    }

    fn prologue(&self, b: &mut JobBuilder) -> ActivityId {
        let started = self.startup(b);
        let loaded = self.load(b, started);
        b.domain_op("ProcessGraph", "job/proc/", "coordinator");
        loaded
    }

    /// One boundary-synchronized round: per-fragment *sequential* kernel
    /// (parallelism 1 — the defining GRAPE trait), boundary-update
    /// transfers, and the coordinator's sync barrier.
    fn step(
        &self,
        b: &mut JobBuilder,
        ri: usize,
        prev_barrier: ActivityId,
        prefix: &str,
        committed: bool,
    ) -> ActivityId {
        let costs = &b.cfg.costs;
        let scale = b.cfg.scale_factor;
        let rs = &self.rounds[ri];
        let r = rs.round;
        let r_tag = format!("{prefix}r{r}/");
        let eval_kind = if r == 0 { "PEval" } else { "IncEval" };
        let round_key = (b.job_actor.clone(), Mission::new("Round", r.to_string()));
        if committed {
            b.specs.push(
                OpSpec::new(
                    b.job_actor.clone(),
                    round_key.1.clone(),
                    Some(b.domain("ProcessGraph")),
                    r_tag.clone(),
                    &b.head,
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
        let mut evals: Vec<ActivityId> = Vec::with_capacity(b.cfg.nodes as usize);
        for w in 0..b.cfg.nodes {
            let frag = &rs.per_fragment[w as usize];
            let eval = b.dag.add(
                ActivityKind::Compute {
                    node: NodeId(w),
                    work_core_us: eval_work(b.cfg, frag),
                    parallelism: 1,
                },
                &[prev_barrier],
                format!("{r_tag}f{w}/eval"),
            );
            if committed {
                b.specs.push(
                    b.worker_op(
                        WORKER,
                        w,
                        Mission::new(eval_kind, r.to_string()),
                        round_key.clone(),
                        format!("{r_tag}f{w}/"),
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
                deps.push(b.dag.add(
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
        let join = b.dag.barrier(&deps, format!("{r_tag}sync/join"));
        let sync = b.dag.add(
            ActivityKind::Delay {
                duration_us: costs.barrier_us,
            },
            &[join],
            format!("{r_tag}sync/coord"),
        );
        if committed {
            b.specs.push(b.head_op(
                COORDINATOR,
                Mission::new("BoundarySync", r.to_string()),
                round_key,
                format!("{r_tag}sync/"),
            ));
        }
        sync
    }

    /// The attempt at round `ri` that the crash interrupts: per-fragment
    /// kernels, no sync.
    fn doomed(&self, b: &mut JobBuilder, ri: usize, prev_barrier: ActivityId) {
        let rs = &self.rounds[ri];
        let tag = format!("job/proc/r{}/", rs.round);
        b.specs.push(b.head_op(
            COORDINATOR,
            Mission::new("FailedRound", rs.round.to_string()),
            b.domain("ProcessGraph"),
            tag.clone(),
        ));
        for w in 0..b.cfg.nodes {
            b.dag.add(
                ActivityKind::Compute {
                    node: NodeId(w),
                    work_core_us: eval_work(b.cfg, &rs.per_fragment[w as usize]),
                    parallelism: 1,
                },
                &[prev_barrier],
                format!("{tag}try/f{w}/eval"),
            );
        }
    }

    /// The replacement worker re-reads only the lost fragment, replays its
    /// evaluations of the committed rounds fed by the boundary updates its
    /// peers logged (resent, never recomputed), and the interrupted round
    /// re-runs in full. Committed rounds survive on the healthy fragments,
    /// so only the interrupted round's partial work is wasted.
    fn recover(
        &self,
        b: &mut JobBuilder,
        rec: &Recovery,
        failed: usize,
        detect: ActivityId,
    ) -> ActivityId {
        let costs = &b.cfg.costs;
        let scale = b.cfg.scale_factor;
        let lost = rec.lost;
        let lw = lost.0 as usize;
        let input_bytes = self.shards.input_bytes[lw];
        let reread = b.dag.add(
            ActivityKind::SharedRead {
                node: lost,
                bytes: input_bytes,
            },
            &[detect],
            "job/proc/recovery/reload/read",
        );
        let rebuilt = b.dag.add(
            ActivityKind::Compute {
                node: lost,
                work_core_us: self.shards.edges[lw] as f64 * scale * costs.build_cpu_us_per_edge,
                parallelism: costs.worker_threads,
            },
            &[reread],
            "job/proc/recovery/reload/build",
        );
        b.specs.push(
            rec.op(b, "ReloadFragment", "0", "job/proc/recovery/reload/")
                .with_info("InputBytes", InfoValue::Int(input_bytes.round() as i64)),
        );
        let mut prev = rebuilt;
        for (ri, rs) in self.rounds.iter().enumerate().take(failed) {
            let rtag = format!("job/proc/recovery/replay/r{}/", rs.round);
            let mut deps = vec![prev];
            if ri > 0 {
                for (a, row) in self.rounds[ri - 1].boundary.iter().enumerate() {
                    if a == lw || row[lw] == 0 {
                        continue;
                    }
                    deps.push(b.dag.add(
                        ActivityKind::Transfer {
                            src: NodeId(a as u16),
                            dst: lost,
                            bytes: row[lw] as f64 * costs.bytes_per_message * scale,
                        },
                        &[prev],
                        format!("{rtag}in/a{a}"),
                    ));
                }
            }
            prev = b.dag.add(
                ActivityKind::Compute {
                    node: lost,
                    work_core_us: eval_work(b.cfg, &rs.per_fragment[lw]),
                    parallelism: 1,
                },
                &deps,
                format!("{rtag}eval"),
            );
            b.specs
                .push(rec.op(b, "Replay", rs.round.to_string(), rtag));
        }
        // The interrupted round never committed its sync: it re-runs in
        // full, covered by the final Replay op.
        let r = self.rounds[failed].round;
        let prev = self.step(b, failed, prev, "job/proc/recovery/replay/", false);
        b.specs.push(rec.op(
            b,
            "Replay",
            r.to_string(),
            format!("job/proc/recovery/replay/r{r}/"),
        ));
        prev
    }

    fn epilogue(&self, b: &mut JobBuilder, prev: ActivityId) {
        let offloaded = self.offload(b, prev);
        b.domain_op("Cleanup", "job/cleanup/", "coordinator");
        b.dag.add(
            ActivityKind::Delay {
                duration_us: self.p.finalize_us,
            },
            &[offloaded],
            "job/cleanup/finalize",
        );
        b.specs.push(b.head_op(
            COORDINATOR,
            Mission::new("Terminate", "0"),
            b.domain("Cleanup"),
            "job/cleanup/finalize",
        ));
    }
}

impl Layout<'_> {
    // -------------------------------------------------- Startup (L1)
    fn startup(&self, b: &mut JobBuilder) -> ActivityId {
        b.domain_op("Startup", "job/startup/", "coordinator");
        let deploy = b.dag.add(
            ActivityKind::Delay {
                duration_us: self.p.deploy_us,
            },
            &[],
            "job/startup/coordinator",
        );
        for (mission, tag) in [
            ("DeployCoordinator", "job/startup/coordinator"),
            ("DeployWorkers", "job/startup/deploy/"),
        ] {
            b.specs.push(b.head_op(
                COORDINATOR,
                Mission::new(mission, "0"),
                b.domain("Startup"),
                tag,
            ));
        }
        let deploy_key = (
            Actor::new("Coordinator", "0"),
            Mission::new("DeployWorkers", "0"),
        );
        let mut ready: Vec<ActivityId> = Vec::with_capacity(b.cfg.nodes as usize);
        for w in 0..b.cfg.nodes {
            let tag = format!("job/startup/deploy/w{w}");
            let launch = b.dag.add(
                ActivityKind::Delay {
                    duration_us: self.p.worker_launch_us * (1.0 + 0.05 * w as f64),
                },
                &[deploy],
                tag.clone(),
            );
            b.specs.push(b.worker_op(
                WORKER,
                w,
                Mission::new("LocalStartup", "0"),
                deploy_key.clone(),
                tag,
            ));
            ready.push(launch);
        }
        b.dag.barrier(&ready, "job/startup/all-ready")
    }

    // ------------------------------------------------ LoadGraph (L1)
    fn load(&self, b: &mut JobBuilder, started: ActivityId) -> ActivityId {
        let costs = &b.cfg.costs;
        b.domain_op("LoadGraph", "job/load/", "coordinator");
        let mut loaded: Vec<ActivityId> = Vec::with_capacity(b.cfg.nodes as usize);
        for w in 0..b.cfg.nodes {
            let node = NodeId(w);
            let tagp = format!("job/load/w{w}/");
            let input_bytes = self.shards.input_bytes[w as usize];
            let local_load = (
                Actor::new("Worker", w.to_string()),
                Mission::new("LocalLoad", "0"),
            );
            b.specs.push(
                b.worker_op(
                    WORKER,
                    w,
                    local_load.1.clone(),
                    b.domain("LoadGraph"),
                    tagp.clone(),
                )
                .with_info("InputBytes", InfoValue::Int(input_bytes.round() as i64)),
            );
            // Parallel read of this worker's fragment from shared storage.
            let read = b.dag.add(
                ActivityKind::SharedRead {
                    node,
                    bytes: input_bytes,
                },
                &[started],
                format!("{tagp}read"),
            );
            b.specs.push(b.worker_op(
                WORKER,
                w,
                Mission::new("ReadFragment", "0"),
                local_load.clone(),
                format!("{tagp}read"),
            ));
            let parse = b.dag.add(
                ActivityKind::Compute {
                    node,
                    work_core_us: input_bytes * costs.parse_cpu_us_per_byte,
                    parallelism: costs.worker_threads,
                },
                &[read],
                format!("{tagp}parse"),
            );
            let build = b.dag.add(
                ActivityKind::Compute {
                    node,
                    work_core_us: self.shards.edges[w as usize] as f64
                        * b.cfg.scale_factor
                        * costs.build_cpu_us_per_edge,
                    parallelism: costs.worker_threads,
                },
                &[parse],
                format!("{tagp}build"),
            );
            b.specs.push(b.worker_op(
                WORKER,
                w,
                Mission::new("BuildIndex", "0"),
                local_load,
                format!("{tagp}build"),
            ));
            loaded.push(build);
        }
        b.dag.barrier(&loaded, "job/load/all-loaded")
    }

    // --------------------------------------------- OffloadGraph (L1)
    fn offload(&self, b: &mut JobBuilder, prev_barrier: ActivityId) -> ActivityId {
        let costs = &b.cfg.costs;
        b.domain_op("OffloadGraph", "job/offload/", "coordinator");
        let mut offloads: Vec<ActivityId> = Vec::with_capacity(b.cfg.nodes as usize);
        for w in 0..b.cfg.nodes {
            let bytes = self.shards.verts[w as usize] as f64
                * costs.bytes_per_vertex_out
                * b.cfg.scale_factor;
            let write = b.dag.add(
                ActivityKind::SharedRead {
                    node: NodeId(w),
                    bytes,
                },
                &[prev_barrier],
                format!("job/offload/w{w}/write"),
            );
            b.specs.push(
                b.worker_op(
                    WORKER,
                    w,
                    Mission::new("LocalOffload", "0"),
                    b.domain("OffloadGraph"),
                    format!("job/offload/w{w}/"),
                )
                .with_info("OutputBytes", InfoValue::Int(bytes.round() as i64)),
            );
            offloads.push(write);
        }
        b.dag.barrier(&offloads, "job/offload/all-done")
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

    /// Runs `p`'s job on a DAS5-like cluster of `cfg.nodes` nodes.
    fn run(p: &GrapePlatform, g: &Graph, cfg: &JobConfig, plan: &FaultPlan) -> PlatformRun {
        Engine::Grape(p.clone())
            .run(g, cfg, &ClusterSpec::das5(cfg.nodes), plan)
            .unwrap()
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
                let run = run(&p, &g, &cfg, &FaultPlan::new());
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
        let block = GrapePlatform {
            partitioner: GrapePartitioner::Block,
            ..GrapePlatform::default()
        };
        let grape = run(&block, &g, &cfg, &FaultPlan::new());
        let giraph = Engine::Giraph(crate::giraph::GiraphPlatform::default())
            .run(&g, &cfg, &ClusterSpec::das5(cfg.nodes), &FaultPlan::new())
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
        let run = run(&GrapePlatform::default(), &g, &cfg, &FaultPlan::new());
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
        let plain = p.run_on(&g, &cfg, &ClusterSpec::das5(cfg.nodes)).unwrap();
        let faultless = run(&p, &g, &cfg, &FaultPlan::new());
        assert_eq!(plain.makespan_us, faultless.makespan_us);
        assert_eq!(plain.events, faultless.events);
    }

    #[test]
    fn crash_recovery_reloads_and_replays_only_the_lost_fragment() {
        let (g, cfg) = job(Algorithm::PageRank { iterations: 6 });
        let p = GrapePlatform::default();
        let healthy = run(&p, &g, &cfg, &FaultPlan::new());
        let plan = FaultPlan::new().crash(NodeId(2), healthy.makespan_us as f64 * 0.6);
        let faulty = run(&p, &g, &cfg, &plan);
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
        let small = run(&GrapePlatform::default(), &g, &cfg, &FaultPlan::new());
        let big = run(
            &GrapePlatform::default(),
            &g,
            &cfg.clone().with_scale(50.0),
            &FaultPlan::new(),
        );
        assert!(big.makespan_us > small.makespan_us);
    }
}
