//! The shared skeleton of the platform drivers.
//!
//! Every driver compiles its job into an activity DAG plus the
//! [`OpSpec`]s of its Granula operations, simulates the DAG and emits the
//! logs. What does not depend on the platform lives here:
//!
//! * [`JobBuilder`] holds the DAG, the specs and the job's root operation;
//! * [`finish`] simulates, emits the events and samples the environment;
//! * [`Shards`] sizes each worker's vertices, edges and input bytes;
//! * the crash skeleton — [`earliest_crash`], [`slowdowns_only`],
//!   [`Recovery::head`] and [`executed_plan`] — which PowerGraph's
//!   fail-stop restart uses directly;
//! * [`StepLayout`] and [`run_steps`]: the step-structured drivers
//!   (Giraph, GRAPE, GraphX) implement only their layout and their
//!   recovery tail, and one generic driver runs either the healthy job or
//!   the crash-recovery sequence (probe → locate → doomed attempt →
//!   `Recover` → tail → remaining units).
//!
//! Recovery is single-failure everywhere: only the earliest crash of a
//! plan is modeled, and later crashes are dropped from the executed plan.

use std::ops::Range;

use gpsim_cluster::{
    ActivityGraph, ActivityId, ActivityKind, ClusterSpec, FaultPlan, NodeCrash, NodeId, SimError,
    SimResult, Simulation,
};
use gpsim_graph::{Graph, VertexId};
use granula_model::{Actor, InfoValue, Mission};

use crate::common::{
    memory_samples, trace_to_samples, AlgorithmOutput, JobConfig, MemoryPhase, PlatformRun,
};
use crate::ops::{emit_events, OpSpec};

/// Panics unless `cluster` has a node for each of the job's workers.
pub(crate) fn assert_fits(cfg: &JobConfig, cluster: &ClusterSpec) {
    assert!(
        cluster.len() >= cfg.nodes as usize && cfg.nodes > 0,
        "cluster too small for {} workers",
        cfg.nodes
    );
}

/// Incremental DAG + spec builder of one job.
pub(crate) struct JobBuilder<'a> {
    pub cfg: &'a JobConfig,
    pub cluster: &'a ClusterSpec,
    pub dag: ActivityGraph,
    pub specs: Vec<OpSpec>,
    pub job_actor: Actor,
    pub job_key: (Actor, Mission),
    /// Name of node 0, which hosts the master, coordinator or driver.
    pub head: String,
}

impl<'a> JobBuilder<'a> {
    /// Starts a job whose root operation `job_kind` is logged by `process`
    /// on the head node with the `Platform`, `Algorithm` and `Dataset`
    /// infos followed by `infos`.
    pub fn new(
        cfg: &'a JobConfig,
        cluster: &'a ClusterSpec,
        job_kind: &str,
        process: &str,
        platform: &str,
        infos: Vec<(&str, InfoValue)>,
    ) -> Self {
        let job_actor = Actor::new("Job", "0");
        let job_key = (job_actor.clone(), Mission::new(job_kind, "0"));
        let head = cluster.node(NodeId(0)).name.clone();
        let root = OpSpec::new(
            job_actor.clone(),
            job_key.1.clone(),
            None,
            "job/",
            &head,
            process,
        )
        .with_info("Platform", InfoValue::Text(platform.into()))
        .with_info("Algorithm", InfoValue::Text(cfg.algorithm.name().into()))
        .with_info("Dataset", InfoValue::Text(cfg.dataset.clone()));
        let root = infos
            .into_iter()
            .fold(root, |spec, (name, value)| spec.with_info(name, value));
        JobBuilder {
            cfg,
            cluster,
            dag: ActivityGraph::new(),
            specs: vec![root],
            job_actor,
            job_key,
            head,
        }
    }

    /// Name of node `w`.
    pub fn node(&self, w: u16) -> String {
        self.cluster.node(NodeId(w)).name.clone()
    }

    /// Identity of the job's level-1 operation `mission`.
    pub fn domain(&self, mission: &str) -> (Actor, Mission) {
        (self.job_actor.clone(), Mission::new(mission, "0"))
    }

    /// Operation `mission` of worker `w`: actor `(kind, w)`, logged by the
    /// process `{process}-{w}` on node `w`.
    pub fn worker_op(
        &self,
        (kind, process): (&str, &str),
        w: u16,
        mission: Mission,
        parent: (Actor, Mission),
        tag: impl Into<String>,
    ) -> OpSpec {
        OpSpec::new(
            Actor::new(kind, w.to_string()),
            mission,
            Some(parent),
            tag,
            self.node(w),
            format!("{process}-{w}"),
        )
    }

    /// Operation `mission` of the head node's actor `(kind, 0)`, logged
    /// by `process`.
    pub fn head_op(
        &self,
        (kind, process): (&str, &str),
        mission: Mission,
        parent: (Actor, Mission),
        tag: impl Into<String>,
    ) -> OpSpec {
        OpSpec::new(
            Actor::new(kind, "0"),
            mission,
            Some(parent),
            tag,
            &self.head,
            process,
        )
    }

    /// Declares the job's level-1 operation `mission` over `tag`, logged
    /// by `process` on the head node.
    pub fn domain_op(&mut self, mission: &str, tag: &str, process: &str) {
        self.specs.push(OpSpec::new(
            self.job_actor.clone(),
            Mission::new(mission, "0"),
            Some(self.job_key.clone()),
            tag,
            &self.head,
            process,
        ));
    }
}

/// Per-worker data sizes: logical vertex and out-edge counts (scaled at
/// use sites) and the scaled input bytes of each worker's split.
pub(crate) struct Shards {
    pub verts: Vec<u64>,
    pub edges: Vec<u64>,
    pub input_bytes: Vec<f64>,
}

impl Shards {
    /// Sizes the `cfg.nodes` shards of `g` under the vertex assignment
    /// `owner`.
    pub fn new(g: &Graph, cfg: &JobConfig, owner: impl Fn(VertexId) -> u16) -> Self {
        let mut verts = vec![0u64; cfg.nodes as usize];
        let mut edges = vec![0u64; cfg.nodes as usize];
        for v in 0..g.num_vertices() {
            let w = owner(v) as usize;
            verts[w] += 1;
            edges[w] += g.out_degree(v) as u64;
        }
        let input_bytes = verts
            .iter()
            .zip(&edges)
            .map(|(&v, &e)| {
                (v as f64 * 10.0 + e as f64 * cfg.costs.bytes_per_edge_in) * cfg.scale_factor
            })
            .collect();
        Shards {
            verts,
            edges,
            input_bytes,
        }
    }
}

/// Simulates the built job under `plan` and packages the run: the Granula
/// events of every spec, the simulator's CPU/disk/network samples and the
/// memory samples of the phases `memory` reads off the simulated spans.
/// `name` prefixes the `simulate` and `emit_events` trace spans.
pub(crate) fn finish(
    b: JobBuilder,
    name: &str,
    plan: &FaultPlan,
    output: AlgorithmOutput,
    iterations: usize,
    memory: impl FnOnce(&JobBuilder, &SimResult) -> Vec<MemoryPhase>,
) -> Result<PlatformRun, SimError> {
    let job_id = &b.cfg.job_id;
    let sim = {
        let _span = granula_trace::span!("platform", "{name}.simulate {job_id}");
        Simulation::new(b.cluster.clone()).run_with_faults(&b.dag, plan)?
    };
    let events = {
        let _span = granula_trace::span!("platform", "{name}.emit_events {job_id}");
        emit_events(&b.specs, &b.dag, &sim)
    };
    let makespan_us = sim.makespan_us.round() as u64;
    let mut env_samples = trace_to_samples(&sim.trace);
    env_samples.extend(memory_samples(&memory(&b, &sim), makespan_us));
    Ok(PlatformRun {
        events,
        env_samples,
        output,
        makespan_us,
        iterations: iterations as u32,
    })
}

/// Memory view of a job whose workers each load one partition: worker
/// `w`'s `edges[w]` become resident over its `job/load/{unit}{w}/` window
/// and are released when cleanup starts (or at the makespan).
pub(crate) fn load_window_phases(
    b: &JobBuilder,
    sim: &SimResult,
    unit: &str,
    edges: &[u64],
) -> Vec<MemoryPhase> {
    let release = sim
        .span_of_tag(&b.dag, "job/cleanup/")
        .map(|(s, _)| s.round() as u64)
        .unwrap_or(sim.makespan_us.round() as u64);
    (0..b.cfg.nodes)
        .filter_map(|w| {
            let (ls, le) = sim.span_of_tag(&b.dag, &format!("job/load/{unit}{w}/"))?;
            Some(MemoryPhase {
                node: b.node(w),
                ramp_start_us: ls.round() as u64,
                ramp_end_us: le.round() as u64,
                hold_until_us: release,
                bytes: edges[w as usize] as f64
                    * b.cfg.scale_factor
                    * b.cfg.costs.bytes_per_edge_mem,
            })
        })
        .collect()
}

// ------------------------------------------------------ crash skeleton

/// The crash that drives recovery: the earliest one in the plan.
pub(crate) fn earliest_crash(plan: &FaultPlan) -> Option<NodeCrash> {
    plan.crashes
        .iter()
        .min_by(|a, b| a.at_us.total_cmp(&b.at_us))
        .cloned()
}

/// The plan's slowdown windows without its crashes: the probe run that
/// locates the crash inside the healthy schedule.
pub(crate) fn slowdowns_only(plan: &FaultPlan) -> FaultPlan {
    FaultPlan {
        crashes: Vec::new(),
        slowdowns: plan.slowdowns.clone(),
    }
}

/// The plan the recovery layout executes: `nodes` die at `at_us` and are
/// back `restart_after_us` later; the slowdowns pass through.
pub(crate) fn executed_plan(
    plan: &FaultPlan,
    nodes: impl IntoIterator<Item = NodeId>,
    at_us: f64,
    restart_after_us: f64,
) -> FaultPlan {
    FaultPlan {
        crashes: nodes
            .into_iter()
            .map(|node| NodeCrash {
                node,
                at_us,
                restart_after_us: Some(restart_after_us),
            })
            .collect(),
        ..slowdowns_only(plan)
    }
}

/// The `Recover` operation of a crash-recovering run; the recovery tail
/// hangs its own operations below it with [`Recovery::op`].
pub(crate) struct Recovery {
    /// The crashed node.
    pub lost: NodeId,
    owner: (&'static str, &'static str),
    key: (Actor, Mission),
}

impl Recovery {
    /// A recovery owned by the head node's `owner` actor (see
    /// [`JobBuilder::head_op`]).
    pub fn new(owner: (&'static str, &'static str), lost: NodeId) -> Self {
        Recovery {
            lost,
            owner,
            key: (Actor::new(owner.0, "0"), Mission::new("Recover", "0")),
        }
    }

    /// A child operation of `Recover` covering `tag`.
    pub fn op(
        &self,
        b: &JobBuilder,
        mission: &str,
        id: impl Into<String>,
        tag: impl Into<String>,
    ) -> OpSpec {
        b.head_op(self.owner, Mission::new(mission, id), self.key.clone(), tag)
    }

    /// Declares `Recover` over `root` as a child of `parent`, recording
    /// the lost node and the wasted time; adds the `job/meta/t-crash`
    /// anchor that pins failure detection to the crash instant and the
    /// `DetectFailure` step. Returns the detection activity the recovery
    /// tail starts from.
    pub fn head(
        &self,
        b: &mut JobBuilder,
        parent: (Actor, Mission),
        root: &str,
        t_crash_us: f64,
        wasted_us: f64,
        detect_us: f64,
    ) -> ActivityId {
        b.specs.push(
            b.head_op(self.owner, self.key.1.clone(), parent, root)
                .with_info("FailedNode", InfoValue::Text(b.node(self.lost.0)))
                .with_info("WastedUs", InfoValue::Int(wasted_us.round() as i64)),
        );
        let anchor = b.dag.add(
            ActivityKind::Delay {
                duration_us: t_crash_us,
            },
            &[],
            "job/meta/t-crash",
        );
        let detect = b.dag.add(
            ActivityKind::Delay {
                duration_us: detect_us,
            },
            &[anchor],
            format!("{root}detect"),
        );
        b.specs
            .push(self.op(b, "DetectFailure", "0", format!("{root}detect")));
        detect
    }
}

// ------------------------------------------------- step-structured jobs

/// The layout of a job that processes the graph as a sequence of
/// barrier-separated units (Giraph supersteps, GRAPE rounds, GraphX stage
/// pairs) and recovers from a crash by re-executing units.
///
/// Unit `i`'s first attempt lives under `job/proc/{UNIT}{id}/`, where `id`
/// is [`StepLayout::unit_id`]; the recovery under `job/proc/recovery/`.
pub(crate) trait StepLayout {
    /// Driver name prefixing the trace spans, e.g. `"giraph"`.
    const NAME: &'static str;
    /// Tag stem of one unit, e.g. `"ss"`.
    const UNIT: &'static str;
    /// The head node's actor kind and process name, which own the
    /// `Recover` operation.
    const RECOVERER: (&'static str, &'static str);

    /// A builder holding the job's root operation.
    fn builder<'b>(&self, cfg: &'b JobConfig, cluster: &'b ClusterSpec) -> JobBuilder<'b>;
    /// Per-worker sizes.
    fn shards(&self) -> &Shards;
    /// Number of units the job executes.
    fn units(&self) -> usize;
    /// Superstep / round / iteration number of unit `i`.
    fn unit_id(&self, i: usize) -> u32;
    /// Time for the platform to notice a lost worker, µs.
    fn failure_detect_us(&self) -> f64;

    /// Startup, load and the `ProcessGraph` operation; returns the
    /// barrier the first unit waits on.
    fn prologue(&self, b: &mut JobBuilder) -> ActivityId;
    /// Unit `i` after `prev`, with its activities under `{prefix}`. A
    /// `committed` unit declares its own operations; a re-executed one is
    /// covered by the recovery tail's operation.
    fn step(
        &self,
        b: &mut JobBuilder,
        i: usize,
        prev: ActivityId,
        prefix: &str,
        committed: bool,
    ) -> ActivityId;
    /// Work between unit `i` and the next one (Giraph's checkpoint).
    fn after_step(&self, _b: &mut JobBuilder, _i: usize, prev: ActivityId) -> ActivityId {
        prev
    }
    /// The attempt at unit `i` that the crash interrupts: it never
    /// commits, so nothing depends on it.
    fn doomed(&self, b: &mut JobBuilder, i: usize, prev: ActivityId);
    /// The first unit whose work the crash at unit `failed` wastes: the
    /// one after the last checkpoint for Giraph, `failed` itself for
    /// engines that keep committed units.
    fn replay_from(&self, failed: usize) -> usize {
        failed
    }
    /// The platform's recovery policy: everything between failure
    /// detection and the re-executed unit `failed`, whose completion it
    /// returns.
    fn recover(
        &self,
        b: &mut JobBuilder,
        rec: &Recovery,
        failed: usize,
        detect: ActivityId,
    ) -> ActivityId;
    /// Offload and cleanup after the last unit.
    fn epilogue(&self, b: &mut JobBuilder, prev: ActivityId);

    /// Committed first attempts of the units in `range`.
    fn steps(&self, b: &mut JobBuilder, range: Range<usize>, mut prev: ActivityId) -> ActivityId {
        for i in range {
            prev = self.step(b, i, prev, "job/proc/", true);
            prev = self.after_step(b, i, prev);
        }
        prev
    }

    /// The healthy job.
    fn healthy(&self, b: &mut JobBuilder) {
        let prev = self.prologue(b);
        let prev = self.steps(b, 0..self.units(), prev);
        self.epilogue(b, prev);
    }
}

/// The activity DAG a healthy run of `layout` hands to the simulator.
pub(crate) fn healthy_dag<L: StepLayout>(
    layout: &L,
    cfg: &JobConfig,
    cluster: &ClusterSpec,
) -> ActivityGraph {
    let mut b = layout.builder(cfg, cluster);
    layout.healthy(&mut b);
    b.dag
}

/// Runs a step-structured job under `plan`.
///
/// Slowdown windows pass straight through to the simulator. A crash is
/// handled in two phases. A probe — the healthy layout under the plan's
/// slowdowns only — locates the crash: the instant is clamped into the
/// processing phase and then into the first unit that had not ended by
/// then. The recovery layout then runs the committed units before it, the
/// doomed attempt, the `Recover` head and the platform's recovery tail,
/// and the remaining units.
pub(crate) fn run_steps<L: StepLayout>(
    (output, layout): (AlgorithmOutput, L),
    cfg: &JobConfig,
    cluster: &ClusterSpec,
    plan: &FaultPlan,
) -> Result<PlatformRun, SimError> {
    let (name, job_id, n) = (L::NAME, &cfg.job_id, layout.units());
    let memory =
        |b: &JobBuilder, sim: &SimResult| load_window_phases(b, sim, "w", &layout.shards().edges);
    let Some(crash) = earliest_crash(plan).filter(|_| n > 0) else {
        let mut b = layout.builder(cfg, cluster);
        {
            let _span = granula_trace::span!("platform", "{name}.build_dag {job_id}");
            layout.healthy(&mut b);
        }
        return finish(b, name, plan, output, n, memory);
    };

    let probe_span = granula_trace::span!("platform", "{name}.probe {job_id}");
    let mut probe = layout.builder(cfg, cluster);
    layout.healthy(&mut probe);
    let probe_sim =
        Simulation::new(cluster.clone()).run_with_faults(&probe.dag, &slowdowns_only(plan))?;
    let span_of = |tag: &str| {
        probe_sim
            .span_of_tag(&probe.dag, tag)
            .expect("the probe simulated every unit")
    };
    let unit_span = |i: usize| span_of(&format!("job/proc/{}{}/", L::UNIT, layout.unit_id(i)));
    let (proc_start, proc_end) = span_of("job/proc/");
    let t_clamped = crash.at_us.clamp(proc_start + 1.0, proc_end - 1.0);
    let failed = (0..n)
        .find(|&i| t_clamped < unit_span(i).1)
        .unwrap_or(n - 1);
    let (start, end) = unit_span(failed);
    let t_eff = t_clamped.clamp(start + 1.0, (end - 1.0).max(start + 1.0));
    let wasted_us = t_eff - unit_span(layout.replay_from(failed)).0;
    drop(probe_span);

    let recovery_span = granula_trace::span!("platform", "{name}.recovery.build {job_id}");
    let mut b = layout.builder(cfg, cluster);
    let prev = layout.prologue(&mut b);
    let prev = layout.steps(&mut b, 0..failed, prev);
    layout.doomed(&mut b, failed, prev);
    let rec = Recovery::new(L::RECOVERER, crash.node);
    let parent = b.domain("ProcessGraph");
    let detect_us = layout.failure_detect_us();
    let detect = rec.head(
        &mut b,
        parent,
        "job/proc/recovery/",
        t_eff,
        wasted_us,
        detect_us,
    );
    let prev = layout.recover(&mut b, &rec, failed, detect);
    let prev = layout.after_step(&mut b, failed, prev);
    let prev = layout.steps(&mut b, failed + 1..n, prev);
    layout.epilogue(&mut b, prev);
    drop(recovery_span);

    let restart_after = crash.restart_after_us.unwrap_or(detect_us);
    let exec_plan = executed_plan(plan, [crash.node], t_eff, restart_after);
    finish(b, name, &exec_plan, output, n, memory)
}
