//! The Giraph-like platform driver.
//!
//! Pregel/BSP on YARN-like provisioning with HDFS-like storage, modeled
//! after Apache Giraph 1.2 as characterized in Table 1 and Figure 4 of the
//! paper. The driver:
//!
//! 1. hash-partitions the vertices over the workers (edge-cut);
//! 2. executes the vertex program with the [`crate::pregel`] engine,
//!    collecting per-superstep, per-worker counters;
//! 3. compiles the job into an activity DAG — YARN container negotiation
//!    and JVM launches, pipelined HDFS read + parse + in-memory build per
//!    worker, per-superstep PreStep/Compute/Message/PostStep with a
//!    ZooKeeper-like global barrier, HDFS offload with replication, and the
//!    multi-stage cleanup of Figure 4;
//! 4. simulates the DAG and emits Granula instrumentation events plus
//!    environment samples.

use gpsim_cluster::{
    ActivityGraph, ActivityId, ActivityKind, ClusterSpec, FaultPlan, FileSystem, NodeCrash, NodeId,
    SimError, Simulation, YarnProvisioner,
};
use gpsim_graph::{EdgeCutPartition, Graph};
use granula_model::{Actor, InfoValue, Mission};

use crate::common::{
    memory_samples, trace_to_samples, Algorithm, AlgorithmOutput, JobConfig, MemoryPhase,
    PlatformRun,
};
use crate::ops::{emit_events, OpSpec};
use crate::pregel::{self, SuperstepStats};

/// Number of read→parse pipeline stages per worker during LoadGraph.
const LOAD_CHUNKS: u32 = 8;

/// Giraph-like platform: configuration knobs beyond the job's cost model.
#[derive(Debug, Clone)]
pub struct GiraphPlatform {
    /// Client ↔ ResourceManager negotiation latency, µs.
    pub negotiation_us: f64,
    /// Per-container allocation latency, µs.
    pub container_alloc_us: f64,
    /// JVM startup per worker, µs.
    pub jvm_startup_us: f64,
    /// ZooKeeper registration per worker, µs.
    pub zk_register_us: f64,
    /// Cleanup stage latencies (AbortWorkers, ClientCleanup, ServerCleanup,
    /// ZkCleanup), µs.
    pub cleanup_us: [f64; 4],
    /// HDFS-like storage.
    pub fs: FileSystem,
    /// Superstep cap for convergent algorithms.
    pub max_supersteps: u32,
    /// Checkpoint every K supersteps (`None` disables checkpointing, the
    /// Giraph default). Required for worker-loss recovery: without a
    /// checkpoint the job reloads the input and replays from superstep 0.
    pub checkpoint_interval: Option<u32>,
    /// Time for the master to notice a lost worker (missed ZooKeeper
    /// heartbeats), µs.
    pub failure_detect_us: f64,
}

impl Default for GiraphPlatform {
    fn default() -> Self {
        GiraphPlatform {
            negotiation_us: 2.5e6,
            container_alloc_us: 1.0e6,
            jvm_startup_us: 4.5e6,
            zk_register_us: 1.2e6,
            cleanup_us: [2.0e6, 4.0e6, 5.0e6, 3.0e6],
            fs: FileSystem::hdfs(),
            max_supersteps: 10_000,
            checkpoint_interval: None,
            failure_detect_us: 2.0e6,
        }
    }
}

fn run_program(
    g: &Graph,
    part: &EdgeCutPartition,
    algorithm: Algorithm,
    max_supersteps: u32,
) -> (AlgorithmOutput, Vec<SuperstepStats>) {
    match algorithm {
        Algorithm::Bfs { source } => {
            // Size-dispatched: full-scale graphs take the flat frontier
            // engine, which produces bit-identical counters.
            let out = pregel::run_bfs(g, part, source, max_supersteps);
            (AlgorithmOutput::Levels(out.values), out.supersteps)
        }
        Algorithm::PageRank { iterations } => {
            let out = pregel::run(
                g,
                part,
                &pregel::PageRankProgram {
                    iterations,
                    damping: 0.85,
                },
                max_supersteps,
            );
            (AlgorithmOutput::Ranks(out.values), out.supersteps)
        }
        Algorithm::Wcc => {
            let out = pregel::run(g, part, &pregel::WccProgram, max_supersteps);
            (AlgorithmOutput::Labels(out.values), out.supersteps)
        }
        Algorithm::Sssp { source } => {
            let out = pregel::run(g, part, &pregel::SsspProgram { source }, max_supersteps);
            (AlgorithmOutput::Distances(out.values), out.supersteps)
        }
        Algorithm::Cdlp { iterations } => {
            let out = pregel::run(g, part, &pregel::CdlpProgram { iterations }, max_supersteps);
            (AlgorithmOutput::Labels(out.values), out.supersteps)
        }
    }
}

impl GiraphPlatform {
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
    /// crash triggers the Giraph recovery protocol: the master detects the
    /// lost worker through missed ZooKeeper heartbeats, re-provisions a
    /// YARN container, every worker rolls back to the latest checkpoint
    /// (or the original input when [`GiraphPlatform::checkpoint_interval`]
    /// is `None`), and the lost supersteps are replayed. The recovery is
    /// emitted as first-class Granula operations (`Checkpoint`,
    /// `FailedSuperstep`, `Recover` with `DetectFailure` / `Provision` /
    /// `LoadCheckpoint` / `Replay` children) so the archive can decompose
    /// the slowdown.
    ///
    /// Only the earliest crash in the plan is modeled; Giraph's
    /// single-failure recovery does not compose with further crashes, so
    /// later ones are dropped from the executed plan.
    pub fn run_on_with_faults(
        &self,
        g: &Graph,
        cfg: &JobConfig,
        cluster: &ClusterSpec,
        plan: &FaultPlan,
    ) -> Result<PlatformRun, SimError> {
        let k = cfg.nodes;
        let costs = &cfg.costs;
        let scale = cfg.scale_factor;
        let Workers {
            output,
            supersteps,
            verts,
            edges,
            input_bytes,
        } = self.workers(g, cfg, cluster);

        // The earliest crash drives recovery; later crashes are dropped
        // (single-failure model, see the doc comment).
        let crash = plan
            .crashes
            .iter()
            .min_by(|a, b| a.at_us.total_cmp(&b.at_us))
            .cloned()
            .filter(|_| !supersteps.is_empty());

        let Some(crash) = crash else {
            // Healthy (possibly degraded) layout: no recovery structure.
            let mut b = Build::new(
                self,
                cfg,
                cluster,
                &supersteps,
                &verts,
                &edges,
                &input_bytes,
            );
            {
                let _span = granula_trace::span!("platform", "giraph.build_dag {}", cfg.job_id);
                b.healthy();
            }
            return b.finish(plan, output);
        };

        // Phase 1: probe run — the same checkpointed job under the plan's
        // slowdowns only — locates the crash inside the superstep schedule.
        let probe_span = granula_trace::span!("platform", "giraph.probe {}", cfg.job_id);
        let slow_plan = FaultPlan {
            crashes: Vec::new(),
            slowdowns: plan.slowdowns.clone(),
        };
        let mut probe = Build::new(
            self,
            cfg,
            cluster,
            &supersteps,
            &verts,
            &edges,
            &input_bytes,
        );
        probe.healthy();
        let probe_sim = Simulation::new(cluster.clone()).run_with_faults(&probe.dag, &slow_plan)?;

        // Clamp the crash instant into the processing phase and find the
        // superstep it interrupts.
        let (proc_start, proc_end) = probe_sim
            .span_of_tag(&probe.dag, "job/proc/")
            .expect("jobs run at least one superstep");
        let t_clamped = crash.at_us.clamp(proc_start + 1.0, proc_end - 1.0);
        let mut s_idx = supersteps.len() - 1;
        for (si, ss) in supersteps.iter().enumerate() {
            let (_, end) = probe_sim
                .span_of_tag(&probe.dag, &format!("job/proc/ss{}/", ss.superstep))
                .expect("superstep was simulated");
            if t_clamped < end {
                s_idx = si;
                break;
            }
        }
        let s_star = supersteps[s_idx].superstep;
        let (ss_start, ss_end) = probe_sim
            .span_of_tag(&probe.dag, &format!("job/proc/ss{s_star}/"))
            .expect("superstep was simulated");
        let t_eff = t_clamped.clamp(ss_start + 1.0, (ss_end - 1.0).max(ss_start + 1.0));

        // Latest checkpoint before the failed superstep; replay restarts
        // after it, or from superstep 0 off the original input when the job
        // never checkpointed.
        let ckpt_idx: Option<usize> =
            self.checkpoint_interval
                .filter(|&kk| kk > 0)
                .and_then(|kk| {
                    (0..s_idx)
                        .rev()
                        .find(|&si| (supersteps[si].superstep + 1) % kk == 0)
                });
        let replay_from = ckpt_idx.map_or(0, |ci| ci + 1);
        let wasted_since = if replay_from == 0 {
            proc_start
        } else {
            probe_sim
                .span_of_tag(
                    &probe.dag,
                    &format!("job/proc/ss{}/", supersteps[replay_from].superstep),
                )
                .expect("superstep was simulated")
                .0
        };
        let wasted_us = t_eff - wasted_since;
        drop(probe_span);

        // Phase 2: the recovery layout. Prefix (startup, load, supersteps
        // before s*, their checkpoints) is identical to the probe; the
        // failed superstep becomes a doomed attempt killed by the injected
        // crash; detection, container re-provisioning, checkpoint reload
        // and superstep replay follow under `job/proc/recovery/`.
        let mut b = Build::new(
            self,
            cfg,
            cluster,
            &supersteps,
            &verts,
            &edges,
            &input_bytes,
        );
        let recovery_span =
            granula_trace::span!("platform", "giraph.recovery.build {}", cfg.job_id);
        let started = b.startup();
        let loaded = b.load(started);
        b.process_graph();
        let mut prev = loaded;
        for si in 0..s_idx {
            prev = b.superstep(si, prev, "job/proc/", true);
            prev = b.maybe_checkpoint(si, prev);
        }
        b.doomed_attempt(s_idx, prev);

        let master = b.master_node.clone();
        let recover_actor = Actor::new("Master", "0");
        let recover_key = (recover_actor.clone(), Mission::new("Recover", "0"));
        let proc_domain = b.domain("ProcessGraph");
        b.specs.push(
            OpSpec::new(
                recover_actor.clone(),
                Mission::new("Recover", "0"),
                Some(proc_domain),
                "job/proc/recovery/",
                &master,
                "master",
            )
            .with_info(
                "FailedNode",
                InfoValue::Text(cluster.node(crash.node).name.clone()),
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
            &master,
            "master",
        ));
        let provisioner = YarnProvisioner {
            negotiation_us: self.negotiation_us,
            container_alloc_us: self.container_alloc_us,
            jvm_startup_us: self.jvm_startup_us,
            zk_sync_us: self.zk_register_us,
            ..YarnProvisioner::default()
        };
        let provisioned =
            provisioner.reprovision(&mut b.dag, 1, &[detect], "job/proc/recovery/provision");
        b.specs.push(OpSpec::new(
            recover_actor.clone(),
            Mission::new("Provision", "0"),
            Some(recover_key.clone()),
            "job/proc/recovery/provision/",
            &master,
            "master",
        ));
        // All workers roll back: reload the checkpointed vertex state (or
        // re-read the input when no checkpoint exists).
        let mut reloads: Vec<ActivityId> = Vec::with_capacity(k as usize);
        for w in 0..k {
            let bytes = if ckpt_idx.is_some() {
                verts[w as usize] as f64 * costs.bytes_per_vertex_out * scale
            } else {
                input_bytes[w as usize]
            };
            reloads.push(self.fs.read(
                cluster,
                &mut b.dag,
                NodeId(w),
                bytes,
                &[provisioned],
                &format!("job/proc/recovery/reload/w{w}/"),
            ));
        }
        let reloaded = b.dag.barrier(&reloads, "job/proc/recovery/reload/done");
        b.specs.push(OpSpec::new(
            recover_actor.clone(),
            Mission::new("LoadCheckpoint", "0"),
            Some(recover_key.clone()),
            "job/proc/recovery/reload/",
            &master,
            "master",
        ));
        let mut prev = reloaded;
        #[allow(clippy::needless_range_loop)]
        for si in replay_from..=s_idx {
            let s = supersteps[si].superstep;
            prev = b.superstep(si, prev, "job/proc/recovery/replay/", false);
            b.specs.push(OpSpec::new(
                recover_actor.clone(),
                Mission::new("Replay", s.to_string()),
                Some(recover_key.clone()),
                format!("job/proc/recovery/replay/ss{s}/"),
                &master,
                "master",
            ));
        }
        // Checkpointing resumes its normal cadence after recovery.
        prev = b.maybe_checkpoint(s_idx, prev);
        for si in s_idx + 1..supersteps.len() {
            prev = b.superstep(si, prev, "job/proc/", true);
            prev = b.maybe_checkpoint(si, prev);
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
    /// of [`GiraphPlatform::run_on`] without the simulation.
    pub fn healthy_dag(&self, g: &Graph, cfg: &JobConfig, cluster: &ClusterSpec) -> ActivityGraph {
        let w = self.workers(g, cfg, cluster);
        let mut b = Build::new(
            self,
            cfg,
            cluster,
            &w.supersteps,
            &w.verts,
            &w.edges,
            &w.input_bytes,
        );
        b.healthy();
        b.dag
    }

    /// Runs the vertex program over the hash partition and sizes each
    /// worker's share.
    fn workers(&self, g: &Graph, cfg: &JobConfig, cluster: &ClusterSpec) -> Workers {
        assert!(
            cluster.len() >= cfg.nodes as usize && cfg.nodes > 0,
            "cluster too small for {} workers",
            cfg.nodes
        );
        let k = cfg.nodes;
        let part = EdgeCutPartition::hash(g.num_vertices(), k);
        let (output, supersteps) = {
            let _span = granula_trace::span!("platform", "giraph.vertex_program {}", cfg.job_id);
            run_program(g, &part, cfg.algorithm, self.max_supersteps)
        };

        // Per-worker data sizes (logical counts; scaled at use sites).
        let mut verts = vec![0u64; k as usize];
        let mut edges = vec![0u64; k as usize];
        for v in 0..g.num_vertices() {
            let w = part.owner_of(v) as usize;
            verts[w] += 1;
            edges[w] += g.out_degree(v) as u64;
        }
        let (costs, scale) = (&cfg.costs, cfg.scale_factor);
        let input_bytes: Vec<f64> = (0..k as usize)
            .map(|w| (verts[w] as f64 * 10.0 + edges[w] as f64 * costs.bytes_per_edge_in) * scale)
            .collect();
        Workers {
            output,
            supersteps,
            verts,
            edges,
            input_bytes,
        }
    }
}

/// The algorithm's output and per-superstep counters plus per-worker
/// vertex, edge and input-byte counts.
struct Workers {
    output: AlgorithmOutput,
    supersteps: Vec<SuperstepStats>,
    verts: Vec<u64>,
    edges: Vec<u64>,
    input_bytes: Vec<f64>,
}

/// Incremental DAG + spec builder shared by the healthy and the
/// fault-recovery job layouts.
struct Build<'a> {
    p: &'a GiraphPlatform,
    cfg: &'a JobConfig,
    cluster: &'a ClusterSpec,
    supersteps: &'a [SuperstepStats],
    verts: &'a [u64],
    edges: &'a [u64],
    input_bytes: &'a [f64],
    dag: ActivityGraph,
    specs: Vec<OpSpec>,
    job_actor: Actor,
    job_key: (Actor, Mission),
    master_node: String,
}

impl<'a> Build<'a> {
    fn new(
        p: &'a GiraphPlatform,
        cfg: &'a JobConfig,
        cluster: &'a ClusterSpec,
        supersteps: &'a [SuperstepStats],
        verts: &'a [u64],
        edges: &'a [u64],
        input_bytes: &'a [f64],
    ) -> Self {
        let job_actor = Actor::new("Job", "0");
        let job_mission = Mission::new("GiraphJob", "0");
        let job_key = (job_actor.clone(), job_mission.clone());
        let master_node = cluster.node(NodeId(0)).name.clone();
        let specs: Vec<OpSpec> = vec![OpSpec::new(
            job_actor.clone(),
            job_mission,
            None,
            "job/",
            &master_node,
            "client",
        )
        .with_info("Platform", InfoValue::Text("Giraph".into()))
        .with_info("Algorithm", InfoValue::Text(cfg.algorithm.name().into()))
        .with_info("Dataset", InfoValue::Text(cfg.dataset.clone()))
        .with_info("Workers", InfoValue::Int(cfg.nodes as i64))];
        Build {
            p,
            cfg,
            cluster,
            supersteps,
            verts,
            edges,
            input_bytes,
            dag: ActivityGraph::new(),
            specs,
            job_actor,
            job_key,
            master_node,
        }
    }

    fn worker_node(&self, w: u16) -> String {
        self.cluster.node(NodeId(w)).name.clone()
    }

    fn domain(&self, mission: &str) -> (Actor, Mission) {
        (self.job_actor.clone(), Mission::new(mission, "0"))
    }

    /// The healthy layout: startup, load, every superstep with its
    /// checkpoint, offload and cleanup.
    fn healthy(&mut self) {
        let started = self.startup();
        let mut prev = self.load(started);
        self.process_graph();
        for si in 0..self.supersteps.len() {
            prev = self.superstep(si, prev, "job/proc/", true);
            prev = self.maybe_checkpoint(si, prev);
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
            &self.master_node,
            "client",
        ));
        let negotiate = self.dag.add(
            ActivityKind::Delay {
                duration_us: self.p.negotiation_us,
            },
            &[],
            "job/startup/jobstartup/negotiate",
        );
        self.specs.push(OpSpec::new(
            Actor::new("Master", "0"),
            Mission::new("JobStartup", "0"),
            Some(self.domain("Startup")),
            "job/startup/jobstartup/",
            &self.master_node,
            "master",
        ));
        self.specs.push(OpSpec::new(
            Actor::new("Master", "0"),
            Mission::new("LaunchWorkers", "0"),
            Some(self.domain("Startup")),
            "job/startup/launch/",
            &self.master_node,
            "master",
        ));
        let mut worker_ready: Vec<ActivityId> = Vec::with_capacity(k as usize);
        for w in 0..k {
            let tagp = format!("job/startup/launch/w{w}/");
            let alloc = self.dag.add(
                ActivityKind::Delay {
                    duration_us: self.p.container_alloc_us * (1.0 + 0.12 * w as f64),
                },
                &[negotiate],
                format!("{tagp}alloc"),
            );
            let jvm = self.dag.add(
                ActivityKind::Delay {
                    duration_us: self.p.jvm_startup_us,
                },
                &[alloc],
                format!("{tagp}jvm"),
            );
            let zk = self.dag.add(
                ActivityKind::Delay {
                    duration_us: self.p.zk_register_us,
                },
                &[jvm],
                format!("{tagp}zk"),
            );
            self.specs.push(OpSpec::new(
                Actor::new("Worker", w.to_string()),
                Mission::new("LocalStartup", "0"),
                Some((
                    Actor::new("Master", "0"),
                    Mission::new("LaunchWorkers", "0"),
                )),
                tagp,
                self.worker_node(w),
                format!("worker-{w}"),
            ));
            worker_ready.push(zk);
        }
        self.dag.barrier(&worker_ready, "job/startup/all-ready")
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
            &self.master_node,
            "client",
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
            self.specs.push(OpSpec::new(
                Actor::new("Worker", w.to_string()),
                Mission::new("LoadHdfsData", "0"),
                Some((
                    Actor::new("Worker", w.to_string()),
                    Mission::new("LocalLoad", "0"),
                )),
                format!("{tagp}hdfs/"),
                self.worker_node(w),
                format!("worker-{w}"),
            ));
            // Pipelined chunks: read c -> parse c; read c+1 after read c.
            let chunk_bytes = self.input_bytes[w as usize] / LOAD_CHUNKS as f64;
            let parse_per_chunk = chunk_bytes * costs.parse_cpu_us_per_byte;
            let mut prev_read = started;
            let mut prev_parse: Option<ActivityId> = None;
            for c in 0..LOAD_CHUNKS {
                let read = self.p.fs.read(
                    self.cluster,
                    &mut self.dag,
                    node,
                    chunk_bytes,
                    &[prev_read],
                    &format!("{tagp}hdfs/c{c}/"),
                );
                // The worker's parser pool handles one chunk at a time at
                // `worker_threads` parallelism; reads are pipelined ahead.
                let deps: Vec<ActivityId> = match prev_parse {
                    Some(p) => vec![read, p],
                    None => vec![read],
                };
                let parse = self.dag.add(
                    ActivityKind::Compute {
                        node,
                        work_core_us: parse_per_chunk,
                        parallelism: costs.worker_threads,
                    },
                    &deps,
                    format!("{tagp}parse/c{c}"),
                );
                prev_read = read;
                prev_parse = Some(parse);
            }
            let parsed = self.dag.barrier(
                &[prev_parse.expect("LOAD_CHUNKS > 0")],
                format!("{tagp}parse/done"),
            );
            let build = self.dag.add(
                ActivityKind::Compute {
                    node,
                    work_core_us: self.edges[w as usize] as f64
                        * scale
                        * costs.build_cpu_us_per_edge,
                    parallelism: costs.worker_threads,
                },
                &[parsed],
                format!("{tagp}build"),
            );
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
            &self.master_node,
            "client",
        ));
    }

    /// One BSP superstep: per-worker PreStep/Compute/Message/PostStep and
    /// the ZooKeeper-coordinated global barrier. `prefix` places the
    /// activities (`job/proc/` for first attempts, `job/proc/recovery/replay/`
    /// for replays); `with_specs` controls whether the superstep emits its
    /// own Granula operations (replays are covered by a single `Replay` op
    /// pushed by the caller).
    fn superstep(
        &mut self,
        si: usize,
        prev_barrier: ActivityId,
        prefix: &str,
        with_specs: bool,
    ) -> ActivityId {
        let k = self.cfg.nodes;
        let costs = &self.cfg.costs;
        let scale = self.cfg.scale_factor;
        let ss = &self.supersteps[si];
        let s = ss.superstep;
        let ss_tag = format!("{prefix}ss{s}/");
        let _span = granula_trace::span!("platform", "giraph.superstep.build {ss_tag}");
        if with_specs {
            self.specs.push(
                OpSpec::new(
                    self.job_actor.clone(),
                    Mission::new("Superstep", s.to_string()),
                    Some(self.domain("ProcessGraph")),
                    ss_tag.clone(),
                    &self.master_node,
                    "master",
                )
                .with_info(
                    "ActiveVertices",
                    InfoValue::Int((ss.total_active() as f64 * scale).round() as i64),
                )
                .with_info(
                    "MessagesSent",
                    InfoValue::Int((ss.total_messages() as f64 * scale).round() as i64),
                ),
            );
        }
        let mut worker_posts: Vec<ActivityId> = Vec::with_capacity(k as usize);
        let mut computes: Vec<ActivityId> = Vec::with_capacity(k as usize);
        for w in 0..k {
            let node = NodeId(w);
            let stats = &ss.per_worker[w as usize];
            let w_tag = format!("{ss_tag}w{w}/");
            let local_parent = (
                Actor::new("Worker", w.to_string()),
                Mission::new("LocalSuperstep", s.to_string()),
            );
            if with_specs {
                self.specs.push(OpSpec::new(
                    Actor::new("Worker", w.to_string()),
                    Mission::new("LocalSuperstep", s.to_string()),
                    Some((
                        self.job_actor.clone(),
                        Mission::new("Superstep", s.to_string()),
                    )),
                    w_tag.clone(),
                    self.worker_node(w),
                    format!("worker-{w}"),
                ));
            }
            let pre = self.dag.add(
                ActivityKind::Delay {
                    duration_us: costs.barrier_us * 0.4,
                },
                &[prev_barrier],
                format!("{w_tag}pre"),
            );
            if with_specs {
                self.specs.push(OpSpec::new(
                    Actor::new("Worker", w.to_string()),
                    Mission::new("PreStep", s.to_string()),
                    Some(local_parent.clone()),
                    format!("{w_tag}pre"),
                    self.worker_node(w),
                    format!("worker-{w}"),
                ));
            }
            let work = (stats.edges_scanned as f64 * costs.compute_us_per_edge
                + stats.active_vertices as f64 * costs.compute_us_per_vertex
                + stats.messages_sent as f64 * costs.serialize_us_per_message)
                * scale;
            let compute = self.dag.add(
                ActivityKind::Compute {
                    node,
                    // Idle workers still tick over the barrier machinery.
                    work_core_us: work.max(1_000.0),
                    parallelism: costs.worker_threads,
                },
                &[pre],
                format!("{w_tag}compute"),
            );
            if with_specs {
                self.specs.push(
                    OpSpec::new(
                        Actor::new("Worker", w.to_string()),
                        Mission::new("Compute", s.to_string()),
                        Some(local_parent),
                        format!("{w_tag}compute"),
                        self.worker_node(w),
                        format!("worker-{w}"),
                    )
                    .with_info(
                        "EdgesScanned",
                        InfoValue::Int((stats.edges_scanned as f64 * scale).round() as i64),
                    )
                    .with_info(
                        "ActiveVertices",
                        InfoValue::Int((stats.active_vertices as f64 * scale).round() as i64),
                    ),
                );
            }
            computes.push(compute);
        }
        for w in 0..k {
            let stats = &ss.per_worker[w as usize];
            let w_tag = format!("{ss_tag}w{w}/");
            let local_parent = (
                Actor::new("Worker", w.to_string()),
                Mission::new("LocalSuperstep", s.to_string()),
            );
            // Message flushing: transfers to workers receiving remote
            // messages from this worker.
            let mut flushes: Vec<ActivityId> = Vec::new();
            let mut remote_msgs = 0u64;
            for dst in 0..k {
                let count = ss.remote_messages[w as usize][dst as usize];
                if dst == w || count == 0 {
                    continue;
                }
                remote_msgs += count;
                flushes.push(self.dag.add(
                    ActivityKind::Transfer {
                        src: NodeId(w),
                        dst: NodeId(dst),
                        bytes: count as f64 * costs.bytes_per_message * scale,
                    },
                    &[computes[w as usize]],
                    format!("{w_tag}msg/to{dst}"),
                ));
            }
            if with_specs && !flushes.is_empty() {
                self.specs.push(
                    OpSpec::new(
                        Actor::new("Worker", w.to_string()),
                        Mission::new("Message", s.to_string()),
                        Some(local_parent.clone()),
                        format!("{w_tag}msg/"),
                        self.worker_node(w),
                        format!("worker-{w}"),
                    )
                    .with_info(
                        "RemoteMessages",
                        InfoValue::Int((remote_msgs as f64 * scale).round() as i64),
                    )
                    .with_info(
                        "MessagesSent",
                        InfoValue::Int((stats.messages_sent as f64 * scale).round() as i64),
                    ),
                );
            }
            let mut post_deps = flushes;
            post_deps.push(computes[w as usize]);
            let post = self.dag.add(
                ActivityKind::Delay {
                    duration_us: costs.barrier_us * 0.6,
                },
                &post_deps,
                format!("{w_tag}post"),
            );
            if with_specs {
                self.specs.push(OpSpec::new(
                    Actor::new("Worker", w.to_string()),
                    Mission::new("PostStep", s.to_string()),
                    Some(local_parent),
                    format!("{w_tag}post"),
                    self.worker_node(w),
                    format!("worker-{w}"),
                ));
            }
            worker_posts.push(post);
        }
        // ZooKeeper-coordinated global barrier.
        let zk_join = self.dag.barrier(&worker_posts, format!("{ss_tag}zk/join"));
        let zk = self.dag.add(
            ActivityKind::Delay {
                duration_us: costs.barrier_us * 0.3,
            },
            &[zk_join],
            format!("{ss_tag}zk/sync"),
        );
        if with_specs {
            self.specs.push(OpSpec::new(
                Actor::new("Master", "0"),
                Mission::new("SyncZookeeper", s.to_string()),
                Some((
                    self.job_actor.clone(),
                    Mission::new("Superstep", s.to_string()),
                )),
                format!("{ss_tag}zk/"),
                &self.master_node,
                "master",
            ));
        }
        zk
    }

    /// Synchronous checkpoint after superstep `s`: every worker writes its
    /// vertex state to the DFS before the next superstep may start.
    fn checkpoint(&mut self, s: u32, prev: ActivityId) -> ActivityId {
        let k = self.cfg.nodes;
        let costs = &self.cfg.costs;
        let scale = self.cfg.scale_factor;
        let tag = format!("job/proc/ckpt{s}/");
        self.specs.push(
            OpSpec::new(
                Actor::new("Master", "0"),
                Mission::new("Checkpoint", s.to_string()),
                Some(self.domain("ProcessGraph")),
                tag.clone(),
                &self.master_node,
                "master",
            )
            .with_info(
                "IntervalSupersteps",
                InfoValue::Int(self.p.checkpoint_interval.unwrap_or(0) as i64),
            ),
        );
        let mut writes: Vec<ActivityId> = Vec::with_capacity(k as usize);
        for w in 0..k {
            let bytes = self.verts[w as usize] as f64 * costs.bytes_per_vertex_out * scale;
            writes.push(self.p.fs.write(
                self.cluster,
                &mut self.dag,
                NodeId(w),
                bytes,
                &[prev],
                &format!("{tag}w{w}/"),
            ));
        }
        self.dag.barrier(&writes, format!("{tag}done"))
    }

    /// Checkpoint after superstep index `si` when the cadence says so
    /// (never after the final superstep — nothing is left to protect).
    fn maybe_checkpoint(&mut self, si: usize, prev: ActivityId) -> ActivityId {
        match self.p.checkpoint_interval {
            Some(kk)
                if kk > 0
                    && (self.supersteps[si].superstep + 1).is_multiple_of(kk)
                    && si + 1 < self.supersteps.len() =>
            {
                let _span = granula_trace::span!(
                    "platform",
                    "giraph.checkpoint.build ss{}",
                    self.supersteps[si].superstep
                );
                self.checkpoint(self.supersteps[si].superstep, prev)
            }
            _ => prev,
        }
    }

    /// The attempt at superstep `si` that the crash interrupts: per-worker
    /// pre-step and compute, no barrier — the failure means the superstep
    /// never commits, and recovery (not this attempt) gates further work.
    fn doomed_attempt(&mut self, si: usize, prev_barrier: ActivityId) {
        let k = self.cfg.nodes;
        let costs = &self.cfg.costs;
        let scale = self.cfg.scale_factor;
        let ss = &self.supersteps[si];
        let s = ss.superstep;
        let tag = format!("job/proc/ss{s}/");
        self.specs.push(OpSpec::new(
            Actor::new("Master", "0"),
            Mission::new("FailedSuperstep", s.to_string()),
            Some(self.domain("ProcessGraph")),
            tag.clone(),
            &self.master_node,
            "master",
        ));
        for w in 0..k {
            let node = NodeId(w);
            let stats = &ss.per_worker[w as usize];
            let pre = self.dag.add(
                ActivityKind::Delay {
                    duration_us: costs.barrier_us * 0.4,
                },
                &[prev_barrier],
                format!("{tag}try/w{w}/pre"),
            );
            let work = (stats.edges_scanned as f64 * costs.compute_us_per_edge
                + stats.active_vertices as f64 * costs.compute_us_per_vertex
                + stats.messages_sent as f64 * costs.serialize_us_per_message)
                * scale;
            self.dag.add(
                ActivityKind::Compute {
                    node,
                    work_core_us: work.max(1_000.0),
                    parallelism: costs.worker_threads,
                },
                &[pre],
                format!("{tag}try/w{w}/compute"),
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
            &self.master_node,
            "client",
        ));
        let mut offloads: Vec<ActivityId> = Vec::with_capacity(k as usize);
        for w in 0..k {
            let tagp = format!("job/offload/w{w}/");
            let bytes = self.verts[w as usize] as f64 * costs.bytes_per_vertex_out * scale;
            let write = self.p.fs.write(
                self.cluster,
                &mut self.dag,
                NodeId(w),
                bytes,
                &[prev_barrier],
                &format!("{tagp}hdfs/"),
            );
            self.specs.push(
                OpSpec::new(
                    Actor::new("Worker", w.to_string()),
                    Mission::new("LocalOffload", "0"),
                    Some(self.domain("OffloadGraph")),
                    tagp.clone(),
                    self.worker_node(w),
                    format!("worker-{w}"),
                )
                .with_info("OutputBytes", InfoValue::Int(bytes.round() as i64)),
            );
            self.specs.push(OpSpec::new(
                Actor::new("Worker", w.to_string()),
                Mission::new("OffloadHdfsData", "0"),
                Some((
                    Actor::new("Worker", w.to_string()),
                    Mission::new("LocalOffload", "0"),
                )),
                format!("{tagp}hdfs/"),
                self.worker_node(w),
                format!("worker-{w}"),
            ));
            offloads.push(write);
        }
        self.dag.barrier(&offloads, "job/offload/all-done")
    }

    // -------------------------------------------------- Cleanup (L1)
    fn cleanup(&mut self, all_offloaded: ActivityId) {
        let k = self.cfg.nodes;
        self.specs.push(OpSpec::new(
            self.job_actor.clone(),
            Mission::new("Cleanup", "0"),
            Some(self.job_key.clone()),
            "job/cleanup/",
            &self.master_node,
            "client",
        ));
        let cleanup_parent = self.domain("Cleanup");
        let mut aborts: Vec<ActivityId> = Vec::with_capacity(k as usize);
        for w in 0..k {
            aborts.push(self.dag.add(
                ActivityKind::Delay {
                    duration_us: self.p.cleanup_us[0],
                },
                &[all_offloaded],
                format!("job/cleanup/abort/w{w}"),
            ));
        }
        let aborted = self.dag.barrier(&aborts, "job/cleanup/abort/join");
        self.specs.push(OpSpec::new(
            Actor::new("Master", "0"),
            Mission::new("AbortWorkers", "0"),
            Some(cleanup_parent.clone()),
            "job/cleanup/abort/",
            &self.master_node,
            "master",
        ));
        let client = self.dag.add(
            ActivityKind::Delay {
                duration_us: self.p.cleanup_us[1],
            },
            &[aborted],
            "job/cleanup/client",
        );
        self.specs.push(OpSpec::new(
            Actor::new("Master", "0"),
            Mission::new("ClientCleanup", "0"),
            Some(cleanup_parent.clone()),
            "job/cleanup/client",
            &self.master_node,
            "master",
        ));
        let server = self.dag.add(
            ActivityKind::Delay {
                duration_us: self.p.cleanup_us[2],
            },
            &[client],
            "job/cleanup/server",
        );
        self.specs.push(OpSpec::new(
            Actor::new("Master", "0"),
            Mission::new("ServerCleanup", "0"),
            Some(cleanup_parent.clone()),
            "job/cleanup/server",
            &self.master_node,
            "master",
        ));
        self.dag.add(
            ActivityKind::Delay {
                duration_us: self.p.cleanup_us[3],
            },
            &[server],
            "job/cleanup/zk",
        );
        self.specs.push(OpSpec::new(
            Actor::new("Master", "0"),
            Mission::new("ZkCleanup", "0"),
            Some(cleanup_parent),
            "job/cleanup/zk",
            &self.master_node,
            "master",
        ));
    }

    // ------------------------------------------------------- Simulate
    fn finish(self, plan: &FaultPlan, output: AlgorithmOutput) -> Result<PlatformRun, SimError> {
        let k = self.cfg.nodes;
        let costs = &self.cfg.costs;
        let scale = self.cfg.scale_factor;
        let sim = {
            let _span = granula_trace::span!("platform", "giraph.simulate {}", self.cfg.job_id);
            Simulation::new(self.cluster.clone()).run_with_faults(&self.dag, plan)?
        };
        let events = {
            let _span = granula_trace::span!("platform", "giraph.emit_events {}", self.cfg.job_id);
            emit_events(&self.specs, &self.dag, &sim)
        };
        let mut env_samples = trace_to_samples(&sim.trace);
        // Memory view: each worker's partition becomes resident over its
        // load interval and is released when its JVM exits at cleanup.
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
            iterations: self.supersteps.len() as u32,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{reference_output, CostModel};
    use gpsim_graph::gen::{datagen_like, GenConfig};
    use granula_monitor::Assembler;

    fn job(algorithm: Algorithm) -> (Graph, JobConfig) {
        let g = datagen_like(&GenConfig::datagen(2_000, 11));
        let cfg = JobConfig::new(
            "test-job",
            "dg-test",
            algorithm,
            8,
            CostModel::giraph_like(),
        );
        (g, cfg)
    }

    #[test]
    fn bfs_run_produces_correct_output() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let run = GiraphPlatform::default().run(&g, &cfg).unwrap();
        assert!(run.output.matches(&reference_output(&g, cfg.algorithm)));
        assert!(run.makespan_us > 0);
        assert!(run.iterations > 2);
    }

    #[test]
    fn events_assemble_into_a_clean_tree() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let run = GiraphPlatform::default().run(&g, &cfg).unwrap();
        let outcome = Assembler::new().assemble(run.events);
        assert!(
            outcome.warnings.is_empty(),
            "{:?}",
            &outcome.warnings[..5.min(outcome.warnings.len())]
        );
        let tree = outcome.tree;
        let root = tree.root().unwrap();
        assert_eq!(tree.op(root).mission.kind, "GiraphJob");
        // Domain level: all five operations of Figure 3.
        for m in [
            "Startup",
            "LoadGraph",
            "ProcessGraph",
            "OffloadGraph",
            "Cleanup",
        ] {
            assert!(tree.child_by_mission(root, m).is_some(), "missing {m}");
        }
        // Supersteps appear under ProcessGraph.
        let proc_ = tree.child_by_mission(root, "ProcessGraph").unwrap();
        let n_ss = tree
            .children(proc_)
            .filter(|o| o.mission.kind == "Superstep")
            .count();
        assert_eq!(n_ss as u32, run.iterations);
    }

    #[test]
    fn domain_phases_are_ordered() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let run = GiraphPlatform::default().run(&g, &cfg).unwrap();
        let tree = Assembler::new().assemble(run.events).tree;
        let root = tree.root().unwrap();
        let phase = |m: &str| {
            let id = tree.child_by_mission(root, m).unwrap();
            (
                tree.op(id).start_us().unwrap(),
                tree.op(id).end_us().unwrap(),
            )
        };
        let startup = phase("Startup");
        let load = phase("LoadGraph");
        let proc_ = phase("ProcessGraph");
        let offload = phase("OffloadGraph");
        let cleanup = phase("Cleanup");
        assert!(startup.1 <= load.0 + 1);
        assert!(load.1 <= proc_.0 + 1);
        assert!(proc_.1 <= offload.0 + 1);
        assert!(offload.1 <= cleanup.0 + 1);
    }

    #[test]
    fn environment_samples_cover_all_nodes() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let run = GiraphPlatform::default().run(&g, &cfg).unwrap();
        let nodes: std::collections::BTreeSet<&str> =
            run.env_samples.iter().map(|s| s.node.as_str()).collect();
        assert_eq!(nodes.len(), 8);
    }

    #[test]
    fn scale_factor_stretches_runtime() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let small = GiraphPlatform::default().run(&g, &cfg).unwrap();
        let big = GiraphPlatform::default()
            .run(&g, &cfg.clone().with_scale(50.0))
            .unwrap();
        assert!(
            big.makespan_us > small.makespan_us,
            "scaled run should be slower: {} vs {}",
            big.makespan_us,
            small.makespan_us
        );
    }

    #[test]
    fn empty_fault_plan_is_identical_to_plain_run() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let p = GiraphPlatform::default();
        let plain = p.run(&g, &cfg).unwrap();
        let faultless = p.run_with_faults(&g, &cfg, &FaultPlan::new()).unwrap();
        assert_eq!(plain.makespan_us, faultless.makespan_us);
        assert_eq!(plain.events, faultless.events);
    }

    #[test]
    fn checkpoints_appear_at_the_configured_cadence() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let p = GiraphPlatform {
            checkpoint_interval: Some(2),
            ..GiraphPlatform::default()
        };
        let run = p.run(&g, &cfg).unwrap();
        let tree = Assembler::new().assemble(run.events).tree;
        let root = tree.root().unwrap();
        let proc_ = tree.child_by_mission(root, "ProcessGraph").unwrap();
        let n_ckpt = tree
            .children(proc_)
            .filter(|o| o.mission.kind == "Checkpoint")
            .count() as u32;
        // One checkpoint after every 2nd superstep, except the last.
        assert_eq!(n_ckpt, (run.iterations - 1) / 2);
    }

    #[test]
    fn crash_recovery_replays_from_checkpoint() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let p = GiraphPlatform {
            checkpoint_interval: Some(2),
            ..GiraphPlatform::default()
        };
        let healthy = p.run(&g, &cfg).unwrap();
        let plan = FaultPlan::new().crash(NodeId(2), healthy.makespan_us as f64 * 0.5);
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
        assert!(tree.children(proc_).any(|o| o.mission.kind == "Checkpoint"));
        assert!(tree
            .children(proc_)
            .any(|o| o.mission.kind == "FailedSuperstep"));
        let recover = tree
            .child_by_mission(proc_, "Recover")
            .expect("Recover operation");
        for m in ["DetectFailure", "Provision", "LoadCheckpoint"] {
            assert!(tree.child_by_mission(recover, m).is_some(), "missing {m}");
        }
        let n_replay = tree
            .children(recover)
            .filter(|o| o.mission.kind == "Replay")
            .count();
        assert!(n_replay >= 1, "lost supersteps must be replayed");
        // The recovery op names the lost worker.
        let rec_op = tree.op(recover);
        assert!(rec_op
            .infos
            .iter()
            .any(|i| i.name == "FailedNode" && i.value == InfoValue::Text("node302".into())));
    }

    #[test]
    fn crash_without_checkpoints_replays_from_superstep_zero() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let p = GiraphPlatform::default(); // checkpointing disabled
        let healthy = p.run(&g, &cfg).unwrap();
        let plan = FaultPlan::new().crash(NodeId(1), healthy.makespan_us as f64 * 0.6);
        let faulty = p.run_with_faults(&g, &cfg, &plan).unwrap();
        let tree = Assembler::new().assemble(faulty.events).tree;
        let root = tree.root().unwrap();
        let proc_ = tree.child_by_mission(root, "ProcessGraph").unwrap();
        let recover = tree.child_by_mission(proc_, "Recover").unwrap();
        let replays: Vec<String> = tree
            .children(recover)
            .filter(|o| o.mission.kind == "Replay")
            .map(|o| o.mission.id.clone())
            .collect();
        assert!(
            replays.contains(&"0".to_string()),
            "without checkpoints replay starts at superstep 0, got {replays:?}"
        );
        assert!(
            tree.children(proc_).all(|o| o.mission.kind != "Checkpoint"),
            "no checkpoints were configured"
        );
    }

    #[test]
    fn pagerank_and_wcc_also_validate() {
        for algorithm in [Algorithm::PageRank { iterations: 5 }, Algorithm::Wcc] {
            let (g, cfg) = job(algorithm);
            let run = GiraphPlatform::default().run(&g, &cfg).unwrap();
            assert!(
                run.output.matches(&reference_output(&g, algorithm)),
                "{algorithm:?}"
            );
        }
    }
}
