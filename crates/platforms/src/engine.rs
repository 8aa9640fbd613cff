//! [`Engine`]: a platform and its knobs, the one value every job runs
//! through.

use gpsim_cluster::{ActivityGraph, ClusterSpec, FaultPlan, SimError};
use gpsim_graph::Graph;

use crate::common::{JobConfig, PlatformRun};
use crate::job;
use crate::{GiraphPlatform, GrapePlatform, GraphMatPlatform, GraphXPlatform, PowerGraphPlatform};

/// One platform engine with its knobs. A study over engines and knobs is a
/// list of these values, for example
/// `Engine::Grape(GrapePlatform { partitioner: GrapePartitioner::Block })`
/// or `Engine::Giraph(GiraphPlatform { checkpoint_interval: Some(2) })`.
/// GRAPE's partitioner, Giraph's checkpoint interval and PowerGraph's
/// loader threads are the knobs; every other platform constant (startup
/// and teardown latencies, failure detection, iteration caps) is fixed.
///
/// Each knob struct documents how its engine recovers from a crash.
#[derive(Debug, Clone)]
pub enum Engine {
    /// The Giraph-like Pregel/BSP engine.
    Giraph(GiraphPlatform),
    /// The PowerGraph-like GAS engine.
    PowerGraph(PowerGraphPlatform),
    /// The GraphMat-like SpMV engine; runs only without faults.
    GraphMat(GraphMatPlatform),
    /// The GRAPE-like subgraph-centric engine.
    Grape(GrapePlatform),
    /// The GraphX/Spark-like dataflow engine.
    GraphX(GraphXPlatform),
}

impl Engine {
    /// Runs the job `cfg` on `g` over `cluster` under `plan`: executes the
    /// algorithm, lays out the activity DAG (with the engine's recovery
    /// when the plan crashes a node), simulates it and emits the Granula
    /// events and environment samples.
    ///
    /// Slowdown windows pass straight through to the simulator. Only the
    /// earliest crash of a plan is modeled; later ones are dropped from the
    /// executed plan.
    ///
    /// # Errors
    /// The simulator's errors, and [`SimError::FaultsNotModeled`] for
    /// GraphMat under a non-empty plan.
    ///
    /// # Panics
    /// When `cluster` has fewer than `cfg.nodes` nodes or `cfg.nodes` is 0.
    pub fn run(
        &self,
        g: &Graph,
        cfg: &JobConfig,
        cluster: &ClusterSpec,
        plan: &FaultPlan,
    ) -> Result<PlatformRun, SimError> {
        job::assert_fits(cfg, cluster);
        match self {
            Engine::Giraph(p) => job::run_steps(p.layout(g, cfg), cfg, cluster, plan),
            Engine::Grape(p) => job::run_steps(p.layout(g, cfg), cfg, cluster, plan),
            Engine::GraphX(p) => job::run_steps(p.layout(g, cfg), cfg, cluster, plan),
            Engine::PowerGraph(p) => {
                let (output, layout, mut b) = p.first_attempt(g, cfg, cluster);
                let restarted = layout.restart(&mut b, plan)?;
                let plan = restarted.as_ref().unwrap_or(plan);
                let n = layout.iterations.len();
                job::finish(b, "powergraph", plan, output, n, |b, sim| {
                    layout.memory(b, sim)
                })
            }
            Engine::GraphMat(p) => {
                if !plan.is_empty() {
                    return Err(SimError::FaultsNotModeled {
                        platform: "GraphMat",
                    });
                }
                let (output, layout, b) = p.build(g, cfg, cluster);
                let n = layout.iterations.len();
                job::finish(b, "graphmat", plan, output, n, |b, sim| {
                    layout.memory(b, sim)
                })
            }
        }
    }

    /// The activity DAG a healthy [`Engine::run`] hands to the simulator,
    /// without the simulation.
    ///
    /// # Panics
    /// As [`Engine::run`].
    pub fn healthy_dag(&self, g: &Graph, cfg: &JobConfig, cluster: &ClusterSpec) -> ActivityGraph {
        job::assert_fits(cfg, cluster);
        match self {
            Engine::Giraph(p) => job::healthy_dag(&p.layout(g, cfg).1, cfg, cluster),
            Engine::Grape(p) => job::healthy_dag(&p.layout(g, cfg).1, cfg, cluster),
            Engine::GraphX(p) => job::healthy_dag(&p.layout(g, cfg).1, cfg, cluster),
            Engine::PowerGraph(p) => p.first_attempt(g, cfg, cluster).2.dag,
            Engine::GraphMat(p) => p.build(g, cfg, cluster).2.dag,
        }
    }
}
