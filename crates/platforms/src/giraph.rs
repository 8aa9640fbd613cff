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
//!    environment samples through the shared driver skeleton (`job.rs`).

use gpsim_cluster::{
    ActivityId, ActivityKind, ClusterSpec, FaultPlan, FileSystem, NodeId, SimError, YarnProvisioner,
};
use gpsim_graph::{EdgeCutPartition, Graph};
use granula_model::{Actor, InfoValue, Mission};

use crate::common::{AlgorithmOutput, JobConfig, PlatformRun};
use crate::engine::Engine;
use crate::job::{JobBuilder, Recovery, Shards, StepLayout};
use crate::ops::OpSpec;
use crate::pregel::{self, SuperstepStats};

/// Number of read→parse pipeline stages per worker during LoadGraph.
const LOAD_CHUNKS: u32 = 8;

/// Giraph-like platform: configuration knobs beyond the job's cost model.
///
/// Under a fault plan ([`Engine::run`]), slowdown windows pass straight
/// through to the simulator. A node crash triggers the Giraph recovery
/// protocol: the master detects the lost worker through missed ZooKeeper
/// heartbeats, re-provisions a YARN container, every worker rolls back to
/// the latest checkpoint (or the original input when
/// [`GiraphPlatform::checkpoint_interval`] is `None`), and the lost
/// supersteps are replayed. The recovery is emitted as first-class Granula
/// operations (`Checkpoint`, `FailedSuperstep`, `Recover` with
/// `DetectFailure` / `Provision` / `LoadCheckpoint` / `Replay` children)
/// so the archive can decompose the slowdown.
///
/// Only the earliest crash in the plan is modeled; Giraph's single-failure
/// recovery does not compose with further crashes, so later ones are
/// dropped from the executed plan.
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

impl GiraphPlatform {
    /// Runs a job on an explicit cluster with no faults: [`Engine::run`]
    /// with an empty plan. Kept because perfbench's pipeline calls it.
    pub fn run_on(
        &self,
        g: &Graph,
        cfg: &JobConfig,
        cluster: &ClusterSpec,
    ) -> Result<PlatformRun, SimError> {
        Engine::Giraph(self.clone()).run(g, cfg, cluster, &FaultPlan::default())
    }

    /// Runs the vertex program over the hash partition and sizes each
    /// worker's share.
    pub(crate) fn layout(&self, g: &Graph, cfg: &JobConfig) -> (AlgorithmOutput, Layout<'_>) {
        let part = EdgeCutPartition::hash(g.num_vertices(), cfg.nodes);
        let (output, supersteps) = {
            let _span = granula_trace::span!("platform", "giraph.vertex_program {}", cfg.job_id);
            pregel::run_program(g, &part, cfg.algorithm, self.max_supersteps)
        };
        let shards = Shards::new(g, cfg, |v| part.owner_of(v));
        let layout = Layout {
            p: self,
            supersteps,
            shards,
        };
        (output, layout)
    }
}

/// A Giraph job's layout inputs: the per-superstep counters and the
/// per-worker sizes.
pub(crate) struct Layout<'a> {
    p: &'a GiraphPlatform,
    supersteps: Vec<SuperstepStats>,
    shards: Shards,
}

/// Actor kind and process name of a worker's operations.
const WORKER: (&str, &str) = ("Worker", "worker");

/// Actor kind and process name of the master's operations on the head node.
const MASTER: (&str, &str) = ("Master", "master");

impl StepLayout for Layout<'_> {
    const NAME: &'static str = "giraph";
    const UNIT: &'static str = "ss";
    const RECOVERER: (&'static str, &'static str) = MASTER;

    fn builder<'b>(&self, cfg: &'b JobConfig, cluster: &'b ClusterSpec) -> JobBuilder<'b> {
        let workers = InfoValue::Int(cfg.nodes as i64);
        JobBuilder::new(
            cfg,
            cluster,
            "GiraphJob",
            "client",
            "Giraph",
            vec![("Workers", workers)],
        )
    }

    fn shards(&self) -> &Shards {
        &self.shards
    }

    fn units(&self) -> usize {
        self.supersteps.len()
    }

    fn unit_id(&self, i: usize) -> u32 {
        self.supersteps[i].superstep
    }

    fn failure_detect_us(&self) -> f64 {
        self.p.failure_detect_us
    }

    fn prologue(&self, b: &mut JobBuilder) -> ActivityId {
        let started = self.startup(b);
        let loaded = self.load(b, started);
        b.domain_op("ProcessGraph", "job/proc/", "client");
        loaded
    }

    /// One BSP superstep: per-worker PreStep/Compute/Message/PostStep and
    /// the ZooKeeper-coordinated global barrier. Replays run under
    /// `job/proc/recovery/replay/` and are covered by one `Replay` op.
    fn step(
        &self,
        b: &mut JobBuilder,
        si: usize,
        prev_barrier: ActivityId,
        prefix: &str,
        committed: bool,
    ) -> ActivityId {
        let k = b.cfg.nodes;
        let costs = &b.cfg.costs;
        let scale = b.cfg.scale_factor;
        let ss = &self.supersteps[si];
        let s = ss.superstep;
        let ss_tag = format!("{prefix}ss{s}/");
        let _span = granula_trace::span!("platform", "giraph.superstep.build {ss_tag}");
        let superstep_key = (
            b.job_actor.clone(),
            Mission::new("Superstep", s.to_string()),
        );
        if committed {
            b.specs.push(
                OpSpec::new(
                    b.job_actor.clone(),
                    Mission::new("Superstep", s.to_string()),
                    Some(b.domain("ProcessGraph")),
                    ss_tag.clone(),
                    &b.head,
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
            let stats = &ss.per_worker[w as usize];
            let w_tag = format!("{ss_tag}w{w}/");
            let local_parent = (
                Actor::new("Worker", w.to_string()),
                Mission::new("LocalSuperstep", s.to_string()),
            );
            if committed {
                b.specs.push(b.worker_op(
                    WORKER,
                    w,
                    local_parent.1.clone(),
                    superstep_key.clone(),
                    w_tag.clone(),
                ));
            }
            let pre = b.dag.add(
                ActivityKind::Delay {
                    duration_us: costs.barrier_us * 0.4,
                },
                &[prev_barrier],
                format!("{w_tag}pre"),
            );
            let compute = b.dag.add(
                ActivityKind::Compute {
                    node: NodeId(w),
                    // Idle workers still tick over the barrier machinery.
                    work_core_us: compute_work(b.cfg, stats),
                    parallelism: costs.worker_threads,
                },
                &[pre],
                format!("{w_tag}compute"),
            );
            if committed {
                b.specs.push(b.worker_op(
                    WORKER,
                    w,
                    Mission::new("PreStep", s.to_string()),
                    local_parent.clone(),
                    format!("{w_tag}pre"),
                ));
                b.specs.push(
                    b.worker_op(
                        WORKER,
                        w,
                        Mission::new("Compute", s.to_string()),
                        local_parent,
                        format!("{w_tag}compute"),
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
                flushes.push(b.dag.add(
                    ActivityKind::Transfer {
                        src: NodeId(w),
                        dst: NodeId(dst),
                        bytes: count as f64 * costs.bytes_per_message * scale,
                    },
                    &[computes[w as usize]],
                    format!("{w_tag}msg/to{dst}"),
                ));
            }
            if committed && !flushes.is_empty() {
                b.specs.push(
                    b.worker_op(
                        WORKER,
                        w,
                        Mission::new("Message", s.to_string()),
                        local_parent.clone(),
                        format!("{w_tag}msg/"),
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
            let post = b.dag.add(
                ActivityKind::Delay {
                    duration_us: costs.barrier_us * 0.6,
                },
                &post_deps,
                format!("{w_tag}post"),
            );
            if committed {
                b.specs.push(b.worker_op(
                    WORKER,
                    w,
                    Mission::new("PostStep", s.to_string()),
                    local_parent,
                    format!("{w_tag}post"),
                ));
            }
            worker_posts.push(post);
        }
        // ZooKeeper-coordinated global barrier.
        let zk_join = b.dag.barrier(&worker_posts, format!("{ss_tag}zk/join"));
        let zk = b.dag.add(
            ActivityKind::Delay {
                duration_us: costs.barrier_us * 0.3,
            },
            &[zk_join],
            format!("{ss_tag}zk/sync"),
        );
        if committed {
            b.specs.push(b.head_op(
                MASTER,
                Mission::new("SyncZookeeper", s.to_string()),
                superstep_key,
                format!("{ss_tag}zk/"),
            ));
        }
        zk
    }

    /// Checkpoint after superstep index `si` when the cadence says so
    /// (never after the final superstep — nothing is left to protect).
    fn after_step(&self, b: &mut JobBuilder, si: usize, prev: ActivityId) -> ActivityId {
        match self.p.checkpoint_interval {
            Some(kk)
                if kk > 0
                    && (self.supersteps[si].superstep + 1).is_multiple_of(kk)
                    && si + 1 < self.supersteps.len() =>
            {
                let s = self.supersteps[si].superstep;
                let _span = granula_trace::span!("platform", "giraph.checkpoint.build ss{s}");
                self.checkpoint(b, s, prev)
            }
            _ => prev,
        }
    }

    /// The attempt at superstep `si` that the crash interrupts: per-worker
    /// pre-step and compute, no barrier.
    fn doomed(&self, b: &mut JobBuilder, si: usize, prev_barrier: ActivityId) {
        let costs = &b.cfg.costs;
        let ss = &self.supersteps[si];
        let tag = format!("job/proc/ss{}/", ss.superstep);
        b.specs.push(b.head_op(
            MASTER,
            Mission::new("FailedSuperstep", ss.superstep.to_string()),
            b.domain("ProcessGraph"),
            tag.clone(),
        ));
        for w in 0..b.cfg.nodes {
            let pre = b.dag.add(
                ActivityKind::Delay {
                    duration_us: costs.barrier_us * 0.4,
                },
                &[prev_barrier],
                format!("{tag}try/w{w}/pre"),
            );
            b.dag.add(
                ActivityKind::Compute {
                    node: NodeId(w),
                    work_core_us: compute_work(b.cfg, &ss.per_worker[w as usize]),
                    parallelism: costs.worker_threads,
                },
                &[pre],
                format!("{tag}try/w{w}/compute"),
            );
        }
    }

    /// Replay restarts after the latest checkpoint before the failed
    /// superstep, or from superstep 0 off the original input when the job
    /// never checkpointed.
    fn replay_from(&self, failed: usize) -> usize {
        self.p
            .checkpoint_interval
            .filter(|&kk| kk > 0)
            .and_then(|kk| {
                (0..failed)
                    .rev()
                    .find(|&si| (self.supersteps[si].superstep + 1).is_multiple_of(kk))
            })
            .map_or(0, |ckpt| ckpt + 1)
    }

    /// YARN re-provisions a container, every worker reloads the latest
    /// checkpoint (or re-reads its input), and the supersteps since the
    /// checkpoint are replayed under `job/proc/recovery/replay/`.
    fn recover(
        &self,
        b: &mut JobBuilder,
        rec: &Recovery,
        failed: usize,
        detect: ActivityId,
    ) -> ActivityId {
        let (cfg, cluster) = (b.cfg, b.cluster);
        let replay_from = self.replay_from(failed);
        let provisioner = YarnProvisioner {
            negotiation_us: self.p.negotiation_us,
            container_alloc_us: self.p.container_alloc_us,
            jvm_startup_us: self.p.jvm_startup_us,
            zk_sync_us: self.p.zk_register_us,
            ..YarnProvisioner::default()
        };
        let provisioned =
            provisioner.reprovision(&mut b.dag, 1, &[detect], "job/proc/recovery/provision");
        b.specs
            .push(rec.op(b, "Provision", "0", "job/proc/recovery/provision/"));
        // All workers roll back: reload the checkpointed vertex state (or
        // re-read the input when no checkpoint exists).
        let reloads: Vec<ActivityId> = (0..cfg.nodes)
            .map(|w| {
                let bytes = if replay_from > 0 {
                    self.shards.verts[w as usize] as f64
                        * cfg.costs.bytes_per_vertex_out
                        * cfg.scale_factor
                } else {
                    self.shards.input_bytes[w as usize]
                };
                self.p.fs.read(
                    cluster,
                    &mut b.dag,
                    NodeId(w),
                    bytes,
                    &[provisioned],
                    &format!("job/proc/recovery/reload/w{w}/"),
                )
            })
            .collect();
        let mut prev = b.dag.barrier(&reloads, "job/proc/recovery/reload/done");
        b.specs
            .push(rec.op(b, "LoadCheckpoint", "0", "job/proc/recovery/reload/"));
        for si in replay_from..=failed {
            let s = self.supersteps[si].superstep;
            prev = self.step(b, si, prev, "job/proc/recovery/replay/", false);
            b.specs.push(rec.op(
                b,
                "Replay",
                s.to_string(),
                format!("job/proc/recovery/replay/ss{s}/"),
            ));
        }
        prev
    }

    fn epilogue(&self, b: &mut JobBuilder, prev: ActivityId) {
        let offloaded = self.offload(b, prev);
        self.cleanup(b, offloaded);
    }
}

/// Compute work of one worker in one superstep; idle workers still tick
/// over the barrier machinery.
fn compute_work(cfg: &JobConfig, stats: &pregel::WorkerSuperstep) -> f64 {
    let costs = &cfg.costs;
    let work = (stats.edges_scanned as f64 * costs.compute_us_per_edge
        + stats.active_vertices as f64 * costs.compute_us_per_vertex
        + stats.messages_sent as f64 * costs.serialize_us_per_message)
        * cfg.scale_factor;
    work.max(1_000.0)
}

impl Layout<'_> {
    // -------------------------------------------------- Startup (L1)
    fn startup(&self, b: &mut JobBuilder) -> ActivityId {
        b.domain_op("Startup", "job/startup/", "client");
        let negotiate = b.dag.add(
            ActivityKind::Delay {
                duration_us: self.p.negotiation_us,
            },
            &[],
            "job/startup/jobstartup/negotiate",
        );
        let launch_key = (
            Actor::new("Master", "0"),
            Mission::new("LaunchWorkers", "0"),
        );
        for (mission, tag) in [
            ("JobStartup", "job/startup/jobstartup/"),
            ("LaunchWorkers", "job/startup/launch/"),
        ] {
            b.specs
                .push(b.head_op(MASTER, Mission::new(mission, "0"), b.domain("Startup"), tag));
        }
        let mut worker_ready: Vec<ActivityId> = Vec::with_capacity(b.cfg.nodes as usize);
        for w in 0..b.cfg.nodes {
            let tagp = format!("job/startup/launch/w{w}/");
            let alloc = b.dag.add(
                ActivityKind::Delay {
                    duration_us: self.p.container_alloc_us * (1.0 + 0.12 * w as f64),
                },
                &[negotiate],
                format!("{tagp}alloc"),
            );
            let jvm = b.dag.add(
                ActivityKind::Delay {
                    duration_us: self.p.jvm_startup_us,
                },
                &[alloc],
                format!("{tagp}jvm"),
            );
            let zk = b.dag.add(
                ActivityKind::Delay {
                    duration_us: self.p.zk_register_us,
                },
                &[jvm],
                format!("{tagp}zk"),
            );
            b.specs.push(b.worker_op(
                WORKER,
                w,
                Mission::new("LocalStartup", "0"),
                launch_key.clone(),
                tagp,
            ));
            worker_ready.push(zk);
        }
        b.dag.barrier(&worker_ready, "job/startup/all-ready")
    }

    // ------------------------------------------------ LoadGraph (L1)
    fn load(&self, b: &mut JobBuilder, started: ActivityId) -> ActivityId {
        let (cfg, cluster) = (b.cfg, b.cluster);
        let costs = &cfg.costs;
        b.domain_op("LoadGraph", "job/load/", "client");
        let mut loaded: Vec<ActivityId> = Vec::with_capacity(cfg.nodes as usize);
        for w in 0..cfg.nodes {
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
            b.specs.push(b.worker_op(
                WORKER,
                w,
                Mission::new("LoadHdfsData", "0"),
                local_load,
                format!("{tagp}hdfs/"),
            ));
            // Pipelined chunks: read c -> parse c; read c+1 after read c.
            let chunk_bytes = input_bytes / LOAD_CHUNKS as f64;
            let parse_per_chunk = chunk_bytes * costs.parse_cpu_us_per_byte;
            let mut prev_read = started;
            let mut prev_parse: Option<ActivityId> = None;
            for c in 0..LOAD_CHUNKS {
                let read = self.p.fs.read(
                    cluster,
                    &mut b.dag,
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
                let parse = b.dag.add(
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
            let parsed = b.dag.barrier(
                &[prev_parse.expect("LOAD_CHUNKS > 0")],
                format!("{tagp}parse/done"),
            );
            let build = b.dag.add(
                ActivityKind::Compute {
                    node,
                    work_core_us: self.shards.edges[w as usize] as f64
                        * cfg.scale_factor
                        * costs.build_cpu_us_per_edge,
                    parallelism: costs.worker_threads,
                },
                &[parsed],
                format!("{tagp}build"),
            );
            loaded.push(build);
        }
        b.dag.barrier(&loaded, "job/load/all-loaded")
    }

    /// Synchronous checkpoint after superstep `s`: every worker writes its
    /// vertex state to the DFS before the next superstep may start.
    fn checkpoint(&self, b: &mut JobBuilder, s: u32, prev: ActivityId) -> ActivityId {
        let (cfg, cluster) = (b.cfg, b.cluster);
        let tag = format!("job/proc/ckpt{s}/");
        b.specs.push(
            b.head_op(
                MASTER,
                Mission::new("Checkpoint", s.to_string()),
                b.domain("ProcessGraph"),
                tag.clone(),
            )
            .with_info(
                "IntervalSupersteps",
                InfoValue::Int(self.p.checkpoint_interval.unwrap_or(0) as i64),
            ),
        );
        let writes: Vec<ActivityId> = (0..cfg.nodes)
            .map(|w| {
                let bytes = self.shards.verts[w as usize] as f64
                    * cfg.costs.bytes_per_vertex_out
                    * cfg.scale_factor;
                self.p.fs.write(
                    cluster,
                    &mut b.dag,
                    NodeId(w),
                    bytes,
                    &[prev],
                    &format!("{tag}w{w}/"),
                )
            })
            .collect();
        b.dag.barrier(&writes, format!("{tag}done"))
    }

    // --------------------------------------------- OffloadGraph (L1)
    fn offload(&self, b: &mut JobBuilder, prev_barrier: ActivityId) -> ActivityId {
        let (cfg, cluster) = (b.cfg, b.cluster);
        b.domain_op("OffloadGraph", "job/offload/", "client");
        let mut offloads: Vec<ActivityId> = Vec::with_capacity(cfg.nodes as usize);
        for w in 0..cfg.nodes {
            let tagp = format!("job/offload/w{w}/");
            let bytes = self.shards.verts[w as usize] as f64
                * cfg.costs.bytes_per_vertex_out
                * cfg.scale_factor;
            let write = self.p.fs.write(
                cluster,
                &mut b.dag,
                NodeId(w),
                bytes,
                &[prev_barrier],
                &format!("{tagp}hdfs/"),
            );
            let local_offload = (
                Actor::new("Worker", w.to_string()),
                Mission::new("LocalOffload", "0"),
            );
            b.specs.push(
                b.worker_op(
                    WORKER,
                    w,
                    local_offload.1.clone(),
                    b.domain("OffloadGraph"),
                    tagp.clone(),
                )
                .with_info("OutputBytes", InfoValue::Int(bytes.round() as i64)),
            );
            b.specs.push(b.worker_op(
                WORKER,
                w,
                Mission::new("OffloadHdfsData", "0"),
                local_offload,
                format!("{tagp}hdfs/"),
            ));
            offloads.push(write);
        }
        b.dag.barrier(&offloads, "job/offload/all-done")
    }

    // -------------------------------------------------- Cleanup (L1)
    fn cleanup(&self, b: &mut JobBuilder, all_offloaded: ActivityId) {
        b.domain_op("Cleanup", "job/cleanup/", "client");
        let aborts: Vec<ActivityId> = (0..b.cfg.nodes)
            .map(|w| {
                b.dag.add(
                    ActivityKind::Delay {
                        duration_us: self.p.cleanup_us[0],
                    },
                    &[all_offloaded],
                    format!("job/cleanup/abort/w{w}"),
                )
            })
            .collect();
        // AbortWorkers → ClientCleanup → ServerCleanup → ZkCleanup.
        let mut prev = b.dag.barrier(&aborts, "job/cleanup/abort/join");
        let stages = [
            ("AbortWorkers", "job/cleanup/abort/"),
            ("ClientCleanup", "job/cleanup/client"),
            ("ServerCleanup", "job/cleanup/server"),
            ("ZkCleanup", "job/cleanup/zk"),
        ];
        for (i, (mission, tag)) in stages.into_iter().enumerate() {
            if i > 0 {
                prev = b.dag.add(
                    ActivityKind::Delay {
                        duration_us: self.p.cleanup_us[i],
                    },
                    &[prev],
                    tag,
                );
            }
            b.specs
                .push(b.head_op(MASTER, Mission::new(mission, "0"), b.domain("Cleanup"), tag));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{reference_output, Algorithm, CostModel};
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

    /// Runs `p`'s job on a DAS5-like cluster of `cfg.nodes` nodes.
    fn run(p: &GiraphPlatform, g: &Graph, cfg: &JobConfig, plan: &FaultPlan) -> PlatformRun {
        Engine::Giraph(p.clone())
            .run(g, cfg, &ClusterSpec::das5(cfg.nodes), plan)
            .unwrap()
    }

    #[test]
    fn bfs_run_produces_correct_output() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let run = run(&GiraphPlatform::default(), &g, &cfg, &FaultPlan::new());
        assert!(run.output.matches(&reference_output(&g, cfg.algorithm)));
        assert!(run.makespan_us > 0);
        assert!(run.iterations > 2);
    }

    #[test]
    fn events_assemble_into_a_clean_tree() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let run = run(&GiraphPlatform::default(), &g, &cfg, &FaultPlan::new());
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
        let run = run(&GiraphPlatform::default(), &g, &cfg, &FaultPlan::new());
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
        let run = run(&GiraphPlatform::default(), &g, &cfg, &FaultPlan::new());
        let nodes: std::collections::BTreeSet<&str> =
            run.env_samples.iter().map(|s| s.node.as_str()).collect();
        assert_eq!(nodes.len(), 8);
    }

    #[test]
    fn scale_factor_stretches_runtime() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let small = run(&GiraphPlatform::default(), &g, &cfg, &FaultPlan::new());
        let big = run(
            &GiraphPlatform::default(),
            &g,
            &cfg.clone().with_scale(50.0),
            &FaultPlan::new(),
        );
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
        let plain = p.run_on(&g, &cfg, &ClusterSpec::das5(cfg.nodes)).unwrap();
        let faultless = run(&p, &g, &cfg, &FaultPlan::new());
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
        let run = run(&p, &g, &cfg, &FaultPlan::new());
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
        let healthy = run(&p, &g, &cfg, &FaultPlan::new());
        let plan = FaultPlan::new().crash(NodeId(2), healthy.makespan_us as f64 * 0.5);
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
        let healthy = run(&p, &g, &cfg, &FaultPlan::new());
        let plan = FaultPlan::new().crash(NodeId(1), healthy.makespan_us as f64 * 0.6);
        let faulty = run(&p, &g, &cfg, &plan);
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
            let run = run(&GiraphPlatform::default(), &g, &cfg, &FaultPlan::new());
            assert!(
                run.output.matches(&reference_output(&g, algorithm)),
                "{algorithm:?}"
            );
        }
    }
}
