//! The GraphX-like platform driver.
//!
//! Dataflow graph processing in the style of GraphX on Spark: the graph is
//! a pair of hash-partitioned RDDs, every Pregel iteration lowers to a
//! join/aggregate stage pair with a shuffle between them, and the driver
//! schedules every stage. The driver:
//!
//! 1. hash-partitions the vertices over the executors (edge-cut);
//! 2. executes the vertex program with the [`crate::pregel`] engine — the
//!    GraphX Pregel API is BSP, so the per-superstep counters map directly
//!    onto map/shuffle/reduce stages;
//! 3. compiles the job into an activity DAG — driver + executor launches,
//!    HDFS partition reads followed by a `partitionBy` shuffle, per
//!    iteration a driver scheduling delay, map-side stage, all-to-all
//!    shuffle, and reduce-side stage, then offload and context stop;
//! 4. simulates the DAG and emits Granula instrumentation events plus
//!    environment samples.
//!
//! Fault recovery is *lineage recomputation*: no checkpoints and no global
//! restart — the driver reschedules the lost tasks and recomputes only the
//! doomed lineage cut (the lost partition's chain of stages, re-read from
//! the input split, fed by the shuffle outputs surviving on its peers),
//! then re-runs the interrupted stage pair. This contrasts with Giraph's
//! checkpoint/replay and PowerGraph's fail-stop restart.

use gpsim_cluster::{
    ActivityId, ActivityKind, ClusterSpec, FaultPlan, FileSystem, NodeId, SimError,
};
use gpsim_graph::{EdgeCutPartition, Graph};
use granula_model::{Actor, InfoValue, Mission};

use crate::common::{AlgorithmOutput, JobConfig, PlatformRun};
use crate::engine::Engine;
use crate::job::{JobBuilder, Recovery, Shards, StepLayout};
use crate::ops::OpSpec;
use crate::pregel::{self, SuperstepStats, WorkerSuperstep};

/// GraphX-like platform: configuration knobs beyond the job's cost model.
///
/// Under a fault plan ([`Engine::run`]), slowdown windows pass straight
/// through to the simulator. A node crash triggers Spark's lineage
/// recovery: the driver detects the lost executor, relaunches it and
/// reschedules the lost tasks, and the lost partition's lineage is
/// recomputed — its input split re-read, its stage chain re-executed
/// against the shuffle outputs surviving on the healthy executors — before
/// the interrupted stage pair re-runs. The recovery is emitted as
/// first-class Granula operations (`FailedStage`, `Recover` with
/// `DetectFailure` / `Reschedule` / `Recompute` children) so the archive
/// can decompose the slowdown.
///
/// Only the earliest crash in the plan is modeled; later crashes are
/// dropped from the executed plan (single-failure model, as for the other
/// platforms).
#[derive(Debug, Clone)]
pub struct GraphXPlatform {
    /// Spark context + driver JVM startup latency, µs.
    pub driver_startup_us: f64,
    /// Per-executor container + JVM launch latency, µs.
    pub executor_launch_us: f64,
    /// Driver task-scheduling latency per stage, µs.
    pub task_sched_us: f64,
    /// HDFS-like storage.
    pub fs: FileSystem,
    /// Iteration cap for convergent algorithms.
    pub max_iterations: u32,
    /// Time for the driver to notice a lost executor (missed heartbeats),
    /// µs.
    pub failure_detect_us: f64,
}

impl Default for GraphXPlatform {
    fn default() -> Self {
        GraphXPlatform {
            driver_startup_us: 3.0e6,
            executor_launch_us: 2.5e6,
            task_sched_us: 120_000.0,
            fs: FileSystem::hdfs(),
            max_iterations: 10_000,
            failure_detect_us: 2.0e6,
        }
    }
}

impl GraphXPlatform {
    /// Runs a job on an explicit cluster with no faults: [`Engine::run`]
    /// with an empty plan. Kept because perfbench's pipeline calls it.
    pub fn run_on(
        &self,
        g: &Graph,
        cfg: &JobConfig,
        cluster: &ClusterSpec,
    ) -> Result<PlatformRun, SimError> {
        Engine::GraphX(self.clone()).run(g, cfg, cluster, &FaultPlan::default())
    }

    /// Runs the vertex program over the hash partition and sizes each
    /// executor's share.
    pub(crate) fn layout(&self, g: &Graph, cfg: &JobConfig) -> (AlgorithmOutput, Layout<'_>) {
        let part = EdgeCutPartition::hash(g.num_vertices(), cfg.nodes);
        let (output, iterations) = {
            let _span = granula_trace::span!("platform", "graphx.vertex_program {}", cfg.job_id);
            pregel::run_program(g, &part, cfg.algorithm, self.max_iterations)
        };
        let layout = Layout {
            p: self,
            iterations,
            shards: Shards::new(g, cfg, |v| part.owner_of(v)),
        };
        (output, layout)
    }
}

/// A GraphX job's layout inputs: the per-iteration counters and the
/// per-executor sizes.
pub(crate) struct Layout<'a> {
    p: &'a GraphXPlatform,
    iterations: Vec<SuperstepStats>,
    shards: Shards,
}

/// Actor kind and process name of a executor's operations.
const WORKER: (&str, &str) = ("Executor", "executor");

/// Actor kind and process name of the driver's operations on the head node.
const DRIVER: (&str, &str) = ("Driver", "driver");

/// Map-side work of one executor in one iteration: join vertex
/// attributes onto edges and serialize the emitted messages.
fn map_work(cfg: &JobConfig, stats: &WorkerSuperstep) -> f64 {
    let costs = &cfg.costs;
    let work = (stats.edges_scanned as f64 * costs.compute_us_per_edge
        + stats.messages_sent as f64 * costs.serialize_us_per_message)
        * cfg.scale_factor;
    work.max(500.0)
}

impl StepLayout for Layout<'_> {
    const NAME: &'static str = "graphx";
    const UNIT: &'static str = "it";
    const RECOVERER: (&'static str, &'static str) = DRIVER;

    fn builder<'b>(&self, cfg: &'b JobConfig, cluster: &'b ClusterSpec) -> JobBuilder<'b> {
        let executors = InfoValue::Int(cfg.nodes as i64);
        JobBuilder::new(
            cfg,
            cluster,
            "GraphXJob",
            "driver",
            "GraphX",
            vec![("Executors", executors)],
        )
    }

    fn shards(&self) -> &Shards {
        &self.shards
    }

    fn units(&self) -> usize {
        self.iterations.len()
    }

    fn unit_id(&self, i: usize) -> u32 {
        self.iterations[i].superstep
    }

    fn failure_detect_us(&self) -> f64 {
        self.p.failure_detect_us
    }

    fn prologue(&self, b: &mut JobBuilder) -> ActivityId {
        let started = self.startup(b);
        let loaded = self.load(b, started);
        b.domain_op("ProcessGraph", "job/proc/", "driver");
        loaded
    }

    /// One Pregel iteration lowered to dataflow: driver scheduling, the
    /// map-side stage (join + message generation), the all-to-all shuffle,
    /// and the reduce-side stage (message aggregation + vertex update).
    fn step(
        &self,
        b: &mut JobBuilder,
        ii: usize,
        prev_barrier: ActivityId,
        prefix: &str,
        committed: bool,
    ) -> ActivityId {
        let k = b.cfg.nodes;
        let costs = &b.cfg.costs;
        let scale = b.cfg.scale_factor;
        let it = &self.iterations[ii];
        let t = it.superstep;
        let it_tag = format!("{prefix}it{t}/");
        let iter_parent = (
            b.job_actor.clone(),
            Mission::new("Iteration", t.to_string()),
        );
        if committed {
            b.specs.push(
                OpSpec::new(
                    b.job_actor.clone(),
                    iter_parent.1.clone(),
                    Some(b.domain("ProcessGraph")),
                    it_tag.clone(),
                    &b.head,
                    "driver",
                )
                .with_info(
                    "ActiveVertices",
                    InfoValue::Int((it.total_active() as f64 * scale).round() as i64),
                )
                .with_info(
                    "ShuffleRecords",
                    InfoValue::Int((it.total_messages() as f64 * scale).round() as i64),
                ),
            );
        }
        // The driver plans the stage pair's tasks before executors start.
        let sched = b.dag.add(
            ActivityKind::Delay {
                duration_us: self.p.task_sched_us,
            },
            &[prev_barrier],
            format!("{it_tag}sched"),
        );
        if committed {
            b.specs.push(b.head_op(
                DRIVER,
                Mission::new("ScheduleTasks", t.to_string()),
                iter_parent.clone(),
                format!("{it_tag}sched"),
            ));
        }
        // Map-side stage: join vertex attributes onto edges and emit
        // messages (shuffle write).
        let mut maps: Vec<ActivityId> = Vec::with_capacity(k as usize);
        for w in 0..k {
            let stats = &it.per_worker[w as usize];
            let map = b.dag.add(
                ActivityKind::Compute {
                    node: NodeId(w),
                    work_core_us: map_work(b.cfg, stats),
                    parallelism: costs.worker_threads,
                },
                &[sched],
                format!("{it_tag}w{w}/map"),
            );
            if committed {
                b.specs.push(
                    b.worker_op(
                        WORKER,
                        w,
                        Mission::new("MapStage", t.to_string()),
                        iter_parent.clone(),
                        format!("{it_tag}w{w}/map"),
                    )
                    .with_info(
                        "EdgesScanned",
                        InfoValue::Int((stats.edges_scanned as f64 * scale).round() as i64),
                    ),
                );
            }
            maps.push(map);
        }
        // Shuffle: cross-executor message blocks.
        let mut fetches: Vec<Vec<ActivityId>> = vec![Vec::new(); k as usize];
        let mut any_shuffle = false;
        for (a, row) in it.remote_messages.iter().enumerate() {
            for (bdst, &count) in row.iter().enumerate() {
                if a == bdst || count == 0 {
                    continue;
                }
                any_shuffle = true;
                fetches[bdst].push(b.dag.add(
                    ActivityKind::Transfer {
                        src: NodeId(a as u16),
                        dst: NodeId(bdst as u16),
                        bytes: count as f64 * costs.bytes_per_message * scale,
                    },
                    &[maps[a]],
                    format!("{it_tag}shuffle/a{a}b{bdst}"),
                ));
            }
        }
        if committed && any_shuffle {
            b.specs.push(b.head_op(
                DRIVER,
                Mission::new("Shuffle", t.to_string()),
                iter_parent.clone(),
                format!("{it_tag}shuffle/"),
            ));
        }
        // Reduce-side stage: aggregate fetched messages, update vertices.
        let mut reduces: Vec<ActivityId> = Vec::with_capacity(k as usize);
        for w in 0..k {
            let stats = &it.per_worker[w as usize];
            let work = (stats.active_vertices as f64 * costs.compute_us_per_vertex
                + stats.messages_received as f64 * costs.serialize_us_per_message)
                * scale;
            let mut deps = fetches[w as usize].clone();
            deps.push(maps[w as usize]);
            let reduce = b.dag.add(
                ActivityKind::Compute {
                    node: NodeId(w),
                    work_core_us: work.max(500.0),
                    parallelism: costs.worker_threads,
                },
                &deps,
                format!("{it_tag}w{w}/reduce"),
            );
            if committed {
                b.specs.push(
                    b.worker_op(
                        WORKER,
                        w,
                        Mission::new("ReduceStage", t.to_string()),
                        iter_parent.clone(),
                        format!("{it_tag}w{w}/reduce"),
                    )
                    .with_info(
                        "ActiveVertices",
                        InfoValue::Int((stats.active_vertices as f64 * scale).round() as i64),
                    ),
                );
            }
            reduces.push(reduce);
        }
        b.dag.barrier(&reduces, format!("{it_tag}done"))
    }

    /// The attempt at iteration `ii` that the crash interrupts: scheduling
    /// and map-side tasks, no shuffle commit.
    fn doomed(&self, b: &mut JobBuilder, ii: usize, prev_barrier: ActivityId) {
        let it = &self.iterations[ii];
        let tag = format!("job/proc/it{}/", it.superstep);
        b.specs.push(b.head_op(
            DRIVER,
            Mission::new("FailedStage", it.superstep.to_string()),
            b.domain("ProcessGraph"),
            tag.clone(),
        ));
        let sched = b.dag.add(
            ActivityKind::Delay {
                duration_us: self.p.task_sched_us,
            },
            &[prev_barrier],
            format!("{tag}try/sched"),
        );
        for w in 0..b.cfg.nodes {
            b.dag.add(
                ActivityKind::Compute {
                    node: NodeId(w),
                    work_core_us: map_work(b.cfg, &it.per_worker[w as usize]),
                    parallelism: b.cfg.costs.worker_threads,
                },
                &[sched],
                format!("{tag}try/w{w}/map"),
            );
        }
    }

    /// The driver relaunches the executor and reschedules the lost tasks;
    /// then only the doomed lineage cut is recomputed — the lost
    /// partition's input split re-read (the lineage root) and its stage
    /// chain re-executed, fed by the shuffle outputs surviving on the
    /// healthy executors — and the interrupted stage pair re-runs in full.
    /// The healthy executors keep their cached partitions, so only the
    /// interrupted stage pair's partial work is wasted.
    fn recover(
        &self,
        b: &mut JobBuilder,
        rec: &Recovery,
        failed: usize,
        detect: ActivityId,
    ) -> ActivityId {
        let (cfg, cluster) = (b.cfg, b.cluster);
        let costs = &cfg.costs;
        let scale = cfg.scale_factor;
        let lost = rec.lost;
        let lw = lost.0 as usize;
        let relaunch = b.dag.add(
            ActivityKind::Delay {
                duration_us: self.p.executor_launch_us,
            },
            &[detect],
            "job/proc/recovery/resched/exec",
        );
        let mut prev = b.dag.add(
            ActivityKind::Delay {
                duration_us: self.p.task_sched_us * 2.0,
            },
            &[relaunch],
            "job/proc/recovery/resched/plan",
        );
        b.specs
            .push(rec.op(b, "Reschedule", "0", "job/proc/recovery/resched/"));
        for (ii, it) in self.iterations.iter().enumerate().take(failed) {
            let t = it.superstep;
            let rtag = format!("job/proc/recovery/recompute/it{t}/");
            let mut deps = vec![prev];
            if ii == 0 {
                let input_bytes = self.shards.input_bytes[lw];
                let reread = self.p.fs.read(
                    cluster,
                    &mut b.dag,
                    lost,
                    input_bytes,
                    &[prev],
                    &format!("{rtag}split/"),
                );
                deps.push(b.dag.add(
                    ActivityKind::Compute {
                        node: lost,
                        work_core_us: input_bytes * costs.parse_cpu_us_per_byte
                            + self.shards.edges[lw] as f64 * scale * costs.build_cpu_us_per_edge,
                        parallelism: costs.worker_threads,
                    },
                    &[reread],
                    format!("{rtag}rebuild"),
                ));
            } else {
                for (a, row) in self.iterations[ii - 1].remote_messages.iter().enumerate() {
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
                        format!("{rtag}fetch/a{a}"),
                    ));
                }
            }
            let stats = &it.per_worker[lw];
            let work = (stats.edges_scanned as f64 * costs.compute_us_per_edge
                + stats.active_vertices as f64 * costs.compute_us_per_vertex
                + (stats.messages_sent + stats.messages_received) as f64
                    * costs.serialize_us_per_message)
                * scale;
            prev = b.dag.add(
                ActivityKind::Compute {
                    node: lost,
                    work_core_us: work.max(400.0),
                    parallelism: costs.worker_threads,
                },
                &deps,
                format!("{rtag}tasks"),
            );
            b.specs.push(rec.op(b, "Recompute", t.to_string(), rtag));
        }
        // The interrupted stage pair never committed: it re-runs in full,
        // covered by the final Recompute op.
        let t = self.iterations[failed].superstep;
        let prev = self.step(b, failed, prev, "job/proc/recovery/recompute/", false);
        b.specs.push(rec.op(
            b,
            "Recompute",
            t.to_string(),
            format!("job/proc/recovery/recompute/it{t}/"),
        ));
        prev
    }

    fn epilogue(&self, b: &mut JobBuilder, prev: ActivityId) {
        let offloaded = self.offload(b, prev);
        b.domain_op("Cleanup", "job/cleanup/", "driver");
        b.dag.add(
            ActivityKind::Delay {
                duration_us: self.p.driver_startup_us * 0.4,
            },
            &[offloaded],
            "job/cleanup/stop",
        );
        b.specs.push(b.head_op(
            DRIVER,
            Mission::new("StopContext", "0"),
            b.domain("Cleanup"),
            "job/cleanup/stop",
        ));
    }
}

impl Layout<'_> {
    // -------------------------------------------------- Startup (L1)
    fn startup(&self, b: &mut JobBuilder) -> ActivityId {
        b.domain_op("Startup", "job/startup/", "driver");
        let driver = b.dag.add(
            ActivityKind::Delay {
                duration_us: self.p.driver_startup_us,
            },
            &[],
            "job/startup/driver",
        );
        for (mission, tag) in [
            ("LaunchDriver", "job/startup/driver"),
            ("LaunchExecutors", "job/startup/exec/"),
        ] {
            b.specs
                .push(b.head_op(DRIVER, Mission::new(mission, "0"), b.domain("Startup"), tag));
        }
        let launch_key = (
            Actor::new("Driver", "0"),
            Mission::new("LaunchExecutors", "0"),
        );
        let mut ready: Vec<ActivityId> = Vec::with_capacity(b.cfg.nodes as usize);
        for w in 0..b.cfg.nodes {
            let tag = format!("job/startup/exec/w{w}");
            let launch = b.dag.add(
                ActivityKind::Delay {
                    duration_us: self.p.executor_launch_us * (1.0 + 0.08 * w as f64),
                },
                &[driver],
                tag.clone(),
            );
            b.specs.push(b.worker_op(
                WORKER,
                w,
                Mission::new("LocalStartup", "0"),
                launch_key.clone(),
                tag,
            ));
            ready.push(launch);
        }
        b.dag.barrier(&ready, "job/startup/all-ready")
    }

    // ------------------------------------------------ LoadGraph (L1)
    fn load(&self, b: &mut JobBuilder, started: ActivityId) -> ActivityId {
        let (cfg, cluster) = (b.cfg, b.cluster);
        let k = cfg.nodes;
        let costs = &cfg.costs;
        let input_bytes = &self.shards.input_bytes;
        b.domain_op("LoadGraph", "job/load/", "driver");
        // Each executor reads and parses its input split...
        let mut parsed: Vec<ActivityId> = Vec::with_capacity(k as usize);
        for w in 0..k {
            let node = NodeId(w);
            let tagp = format!("job/load/w{w}/");
            let local_load = (
                Actor::new("Executor", w.to_string()),
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
                .with_info(
                    "InputBytes",
                    InfoValue::Int(input_bytes[w as usize].round() as i64),
                ),
            );
            let read = self.p.fs.read(
                cluster,
                &mut b.dag,
                node,
                input_bytes[w as usize],
                &[started],
                &format!("{tagp}hdfs/"),
            );
            b.specs.push(b.worker_op(
                WORKER,
                w,
                Mission::new("ReadPartition", "0"),
                local_load,
                format!("{tagp}hdfs/"),
            ));
            parsed.push(b.dag.add(
                ActivityKind::Compute {
                    node,
                    work_core_us: input_bytes[w as usize] * costs.parse_cpu_us_per_byte,
                    parallelism: costs.worker_threads,
                },
                &[read],
                format!("{tagp}parse"),
            ));
        }
        // ...then `partitionBy` shuffles the edge RDD into its hash layout:
        // roughly (k-1)/k of every split crosses the network.
        let mut shuffled: Vec<Vec<ActivityId>> = vec![Vec::new(); k as usize];
        for a in 0..k {
            for bdst in 0..k {
                if a == bdst {
                    continue;
                }
                shuffled[bdst as usize].push(b.dag.add(
                    ActivityKind::Transfer {
                        src: NodeId(a),
                        dst: NodeId(bdst),
                        bytes: input_bytes[a as usize] / k as f64,
                    },
                    &[parsed[a as usize]],
                    format!("job/load/shuffle/a{a}b{bdst}"),
                ));
            }
        }
        b.specs.push(b.head_op(
            DRIVER,
            Mission::new("PartitionBy", "0"),
            b.domain("LoadGraph"),
            "job/load/shuffle/",
        ));
        // ...and each executor builds its edge partition.
        let mut built: Vec<ActivityId> = Vec::with_capacity(k as usize);
        for w in 0..k {
            let mut deps = shuffled[w as usize].clone();
            deps.push(parsed[w as usize]);
            let build = b.dag.add(
                ActivityKind::Compute {
                    node: NodeId(w),
                    work_core_us: self.shards.edges[w as usize] as f64
                        * cfg.scale_factor
                        * costs.build_cpu_us_per_edge,
                    parallelism: costs.worker_threads,
                },
                &deps,
                format!("job/load/w{w}/build"),
            );
            b.specs.push(b.worker_op(
                WORKER,
                w,
                Mission::new("BuildPartition", "0"),
                (
                    Actor::new("Executor", w.to_string()),
                    Mission::new("LocalLoad", "0"),
                ),
                format!("job/load/w{w}/build"),
            ));
            built.push(build);
        }
        b.dag.barrier(&built, "job/load/all-loaded")
    }

    // --------------------------------------------- OffloadGraph (L1)
    fn offload(&self, b: &mut JobBuilder, prev_barrier: ActivityId) -> ActivityId {
        let (cfg, cluster) = (b.cfg, b.cluster);
        b.domain_op("OffloadGraph", "job/offload/", "driver");
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
            b.specs.push(
                b.worker_op(
                    WORKER,
                    w,
                    Mission::new("LocalOffload", "0"),
                    b.domain("OffloadGraph"),
                    tagp,
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
    fn run(p: &GraphXPlatform, g: &Graph, cfg: &JobConfig, plan: &FaultPlan) -> PlatformRun {
        Engine::GraphX(p.clone())
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
            let (g, cfg) = job(algorithm);
            let run = run(&GraphXPlatform::default(), &g, &cfg, &FaultPlan::new());
            assert!(
                run.output.matches(&reference_output(&g, algorithm)),
                "{algorithm:?}"
            );
        }
    }

    #[test]
    fn events_assemble_into_a_clean_tree() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let run = run(&GraphXPlatform::default(), &g, &cfg, &FaultPlan::new());
        let outcome = Assembler::new().assemble(run.events);
        assert!(
            outcome.warnings.is_empty(),
            "{:?}",
            &outcome.warnings[..5.min(outcome.warnings.len())]
        );
        let tree = outcome.tree;
        let root = tree.root().unwrap();
        assert_eq!(tree.op(root).mission.kind, "GraphXJob");
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
        let n_it = tree
            .children(proc_)
            .filter(|o| o.mission.kind == "Iteration")
            .count();
        assert_eq!(n_it as u32, run.iterations);
        // Every iteration is a map/reduce stage pair on every executor.
        assert_eq!(
            tree.by_mission_kind("MapStage").count(),
            8 * run.iterations as usize
        );
        assert_eq!(
            tree.by_mission_kind("ReduceStage").count(),
            8 * run.iterations as usize
        );
    }

    #[test]
    fn empty_fault_plan_is_identical_to_plain_run() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let p = GraphXPlatform::default();
        let plain = p.run_on(&g, &cfg, &ClusterSpec::das5(cfg.nodes)).unwrap();
        let faultless = run(&p, &g, &cfg, &FaultPlan::new());
        assert_eq!(plain.makespan_us, faultless.makespan_us);
        assert_eq!(plain.events, faultless.events);
    }

    #[test]
    fn crash_recovery_recomputes_only_the_lost_lineage() {
        let (g, cfg) = job(Algorithm::PageRank { iterations: 6 });
        let p = GraphXPlatform::default();
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
            .any(|o| o.mission.kind == "FailedStage"));
        let recover = tree
            .child_by_mission(proc_, "Recover")
            .expect("Recover operation");
        for m in ["DetectFailure", "Reschedule"] {
            assert!(tree.child_by_mission(recover, m).is_some(), "missing {m}");
        }
        let recomputes = tree
            .children(recover)
            .filter(|o| o.mission.kind == "Recompute")
            .count();
        assert!(recomputes >= 1, "the doomed lineage cut must be recomputed");
        let rec_op = tree.op(recover);
        assert!(rec_op
            .infos
            .iter()
            .any(|i| i.name == "FailedNode" && i.value == InfoValue::Text("node302".into())));
        // No iteration is lost or duplicated: the interrupted one moves
        // from the committed sequence into the recompute set.
        let committed = tree
            .children(proc_)
            .filter(|o| o.mission.kind == "Iteration")
            .count();
        assert_eq!(committed + 1, healthy.iterations as usize);
    }

    #[test]
    fn scale_factor_stretches_runtime() {
        let (g, cfg) = job(Algorithm::Bfs { source: 3 });
        let small = run(&GraphXPlatform::default(), &g, &cfg, &FaultPlan::new());
        let big = run(
            &GraphXPlatform::default(),
            &g,
            &cfg.clone().with_scale(50.0),
            &FaultPlan::new(),
        );
        assert!(big.makespan_us > small.makespan_us);
    }
}
