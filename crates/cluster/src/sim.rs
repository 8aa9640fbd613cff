//! The simulation engine: executes an activity DAG on a cluster.
//!
//! Event-driven with analytic progression: at every step the engine computes
//! the max-min fair rate of each running activity, advances time to the
//! earliest completion, accumulates resource usage into the [`UsageTrace`],
//! and releases newly-ready activities. Deterministic by construction.
//!
//! [`Simulation::run`] takes the incremental scheduler (`sched.rs`) for
//! every DAG: it re-rates only the activities coupled to an arrival or
//! departure and pops completions from a lazy heap. The dense loop it
//! replaced, which re-rates every running activity at every event, lives on
//! as the oracle in `tests/dense_oracle/`.

use std::fmt;

use crate::activity::{ActivityGraph, ActivityId, ActivityKind};
use crate::fault::{FaultEvent, FaultPlan};
use crate::topology::{ClusterSpec, NodeId};
use crate::trace::UsageTrace;

/// Simulated start/end of one activity, microseconds since job epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActivityResult {
    /// When the activity became runnable and started.
    pub start_us: f64,
    /// When it finished.
    pub end_us: f64,
}

/// Errors the engine can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Some activities could never start (cyclic dependencies cannot occur
    /// with [`ActivityGraph::add`], so this indicates an internal error).
    Deadlock {
        /// Count of activities that never became ready.
        unstarted: usize,
    },
    /// Running activities all have zero rate (a zero-capacity resource).
    Stalled {
        /// Activity that could not progress.
        activity: ActivityId,
    },
    /// An activity references a node outside the cluster.
    UnknownNode {
        /// The offending node id.
        node: NodeId,
    },
    /// An activity became ready on a node that crashed with no restart
    /// scheduled in the [`FaultPlan`] — the work can never run.
    NodeLost {
        /// The dead node.
        node: NodeId,
        /// The activity that needed it.
        activity: ActivityId,
        /// Simulated time of the attempt, microseconds (rounded).
        at_us: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { unstarted } => {
                write!(
                    f,
                    "simulation deadlock: {unstarted} activities never started"
                )
            }
            SimError::Stalled { activity } => {
                write!(f, "activity {activity:?} stalled at rate 0")
            }
            SimError::UnknownNode { node } => write!(f, "unknown node {node:?}"),
            SimError::NodeLost {
                node,
                activity,
                at_us,
            } => {
                write!(
                    f,
                    "activity {activity:?} cannot run: node {node:?} was lost \
                     at t={at_us} µs (simulated) with no restart scheduled"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// The outcome of a simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Per-activity timings, indexed by [`ActivityId`].
    pub results: Vec<ActivityResult>,
    /// End of the last activity, microseconds.
    pub makespan_us: f64,
    /// Per-node, per-second resource usage.
    pub trace: UsageTrace,
    /// Failures observed during the run (crashes, restarts, killed
    /// activities), in simulated-time order. Empty for a healthy run.
    pub faults: Vec<FaultEvent>,
}

impl SimResult {
    /// Timing of one activity.
    pub fn of(&self, id: ActivityId) -> ActivityResult {
        self.results[id.0 as usize]
    }

    /// `(min start, max end)` over all activities whose tag starts with
    /// `prefix` — the interval of a platform operation.
    pub fn span_of_tag(&self, graph: &ActivityGraph, prefix: &str) -> Option<(f64, f64)> {
        let mut span: Option<(f64, f64)> = None;
        for a in graph.tagged(prefix) {
            let r = self.of(a.id);
            span = Some(match span {
                None => (r.start_us, r.end_us),
                Some((lo, hi)) => (lo.min(r.start_us), hi.max(r.end_us)),
            });
        }
        span
    }
}

/// How the incremental engine rates a refill wave: a test hook, as
/// [`Simulation::run`] always resumes.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RefillMode {
    /// Resume from the last fill's trail where the closure allows.
    #[default]
    Resume,
    /// Fill every wave from scratch.
    Scratch,
    /// Resume, and panic unless every wave's rates equal a from-scratch
    /// [`crate::resources::fill_rates`] over its closure, bit for bit.
    Audit,
}

/// The engine. Construct with a cluster, then [`Simulation::run`] graphs.
#[derive(Debug, Clone)]
pub struct Simulation {
    cluster: ClusterSpec,
}

impl Simulation {
    /// Creates an engine over a cluster.
    pub fn new(cluster: ClusterSpec) -> Self {
        Simulation { cluster }
    }

    /// The cluster being simulated.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    fn check_nodes(&self, graph: &ActivityGraph) -> Result<(), SimError> {
        let n = self.cluster.len() as u16;
        let bad = |node: &NodeId| node.0 >= n;
        for a in graph.iter() {
            let offending = match a.kind {
                ActivityKind::Compute { node, .. }
                | ActivityKind::DiskRead { node, .. }
                | ActivityKind::DiskWrite { node, .. }
                | ActivityKind::SharedRead { node, .. } => bad(node).then_some(*node),
                ActivityKind::Transfer { src, dst, .. } => bad(src)
                    .then_some(*src)
                    .or_else(|| bad(dst).then_some(*dst)),
                _ => None,
            };
            if let Some(node) = offending {
                return Err(SimError::UnknownNode { node });
            }
        }
        Ok(())
    }

    fn check_plan(&self, plan: &FaultPlan) -> Result<(), SimError> {
        match plan.max_node() {
            Some(node) if node.0 as usize >= self.cluster.len() => {
                Err(SimError::UnknownNode { node })
            }
            _ => Ok(()),
        }
    }

    /// Executes the DAG; returns per-activity timings and the usage trace.
    ///
    /// Uses the incremental scheduler (`sched.rs`); results are
    /// bit-identical across repeated runs of the same input.
    pub fn run(&self, graph: &ActivityGraph) -> Result<SimResult, SimError> {
        self.run_with_faults(graph, &FaultPlan::default())
    }

    /// Executes the DAG under a [`FaultPlan`]. See [`crate::fault`] for the
    /// fault semantics; an empty plan is bit-identical to
    /// [`Simulation::run`].
    pub fn run_with_faults(
        &self,
        graph: &ActivityGraph,
        plan: &FaultPlan,
    ) -> Result<SimResult, SimError> {
        self.run_refills(graph, plan, RefillMode::Resume)
    }

    /// [`Simulation::run_with_faults`] with the refill mode chosen.
    #[doc(hidden)]
    pub fn run_refills(
        &self,
        graph: &ActivityGraph,
        plan: &FaultPlan,
        mode: RefillMode,
    ) -> Result<SimResult, SimError> {
        self.check_nodes(graph)?;
        self.check_plan(plan)?;
        crate::sched::run_incremental(&self.cluster, graph, plan, mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::NodeSpec;
    use crate::trace::Channel;

    fn cluster(nodes: u16) -> ClusterSpec {
        ClusterSpec::homogeneous(
            nodes,
            NodeSpec {
                name: String::new(),
                cores: 8,
                disk_bps: 100e6, // 100 bytes/µs
                nic_bps: 10e6,   // 10 bytes/µs
                mem_bytes: 1 << 30,
            },
        )
    }

    #[test]
    fn empty_graph_runs_to_zero_makespan() {
        let sim = Simulation::new(cluster(1));
        let res = sim.run(&ActivityGraph::new()).unwrap();
        assert_eq!(res.makespan_us, 0.0);
    }

    #[test]
    fn delay_takes_its_duration() {
        let sim = Simulation::new(cluster(1));
        let mut g = ActivityGraph::new();
        g.add(
            ActivityKind::Delay {
                duration_us: 1234.0,
            },
            &[],
            "d",
        );
        let res = sim.run(&g).unwrap();
        assert!((res.makespan_us - 1234.0).abs() < 1e-6);
    }

    #[test]
    fn compute_duration_is_work_over_cores() {
        let sim = Simulation::new(cluster(1));
        let mut g = ActivityGraph::new();
        // 8e6 core-µs on 8 cores -> 1e6 µs.
        g.add(
            ActivityKind::Compute {
                node: NodeId(0),
                work_core_us: 8e6,
                parallelism: 8,
            },
            &[],
            "c",
        );
        let res = sim.run(&g).unwrap();
        assert!((res.makespan_us - 1e6).abs() < 1.0);
        // Trace shows 8 busy cores for the one-second bucket.
        let s = res.trace.series(Channel::Cpu, NodeId(0));
        assert!((s[0].1 - 8.0).abs() < 1e-3, "{s:?}");
    }

    #[test]
    fn dependency_chains_serialize() {
        let sim = Simulation::new(cluster(1));
        let mut g = ActivityGraph::new();
        let a = g.add(ActivityKind::Delay { duration_us: 100.0 }, &[], "a");
        let b = g.add(ActivityKind::Delay { duration_us: 50.0 }, &[a], "b");
        let res = sim.run(&g).unwrap();
        assert!((res.of(a).end_us - 100.0).abs() < 1e-6);
        assert!((res.of(b).start_us - 100.0).abs() < 1e-6);
        assert!((res.of(b).end_us - 150.0).abs() < 1e-6);
    }

    #[test]
    fn contending_compute_slows_down() {
        let sim = Simulation::new(cluster(1));
        let mut g = ActivityGraph::new();
        // Two 8-way activities on one 8-core node: each effectively gets 4
        // cores -> both take 2e6 µs for 8e6 core-µs.
        for i in 0..2 {
            g.add(
                ActivityKind::Compute {
                    node: NodeId(0),
                    work_core_us: 8e6,
                    parallelism: 8,
                },
                &[],
                format!("c{i}"),
            );
        }
        let res = sim.run(&g).unwrap();
        assert!((res.makespan_us - 2e6).abs() < 10.0, "{}", res.makespan_us);
    }

    #[test]
    fn transfer_throughput_follows_nic() {
        let sim = Simulation::new(cluster(2));
        let mut g = ActivityGraph::new();
        // 10e6 bytes over a 10 bytes/µs NIC -> 1e6 µs.
        g.add(
            ActivityKind::Transfer {
                src: NodeId(0),
                dst: NodeId(1),
                bytes: 10e6,
            },
            &[],
            "t",
        );
        let res = sim.run(&g).unwrap();
        assert!((res.makespan_us - 1e6).abs() < 1.0);
        // Both NIC directions traced.
        assert!((res.trace.series(Channel::NetOut, NodeId(0))[0].1 - 1e7).abs() < 1e3);
        assert!((res.trace.series(Channel::NetIn, NodeId(1))[0].1 - 1e7).abs() < 1e3);
    }

    #[test]
    fn barrier_joins_parallel_branches() {
        let sim = Simulation::new(cluster(2));
        let mut g = ActivityGraph::new();
        let a = g.add(ActivityKind::Delay { duration_us: 100.0 }, &[], "a");
        let b = g.add(ActivityKind::Delay { duration_us: 300.0 }, &[], "b");
        let j = g.barrier(&[a, b], "join");
        let c = g.add(ActivityKind::Delay { duration_us: 10.0 }, &[j], "c");
        let res = sim.run(&g).unwrap();
        assert!((res.of(j).end_us - 300.0).abs() < 1e-6);
        assert!((res.of(c).end_us - 310.0).abs() < 1e-6);
    }

    #[test]
    fn unknown_node_rejected() {
        let sim = Simulation::new(cluster(1));
        let mut g = ActivityGraph::new();
        g.add(
            ActivityKind::DiskRead {
                node: NodeId(7),
                bytes: 1.0,
            },
            &[],
            "x",
        );
        match sim.run(&g) {
            Err(SimError::UnknownNode { node }) => assert_eq!(node, NodeId(7)),
            other => panic!("expected UnknownNode, got {other:?}"),
        }
    }

    #[test]
    fn span_of_tag_covers_group() {
        let sim = Simulation::new(cluster(1));
        let mut g = ActivityGraph::new();
        let a = g.add(ActivityKind::Delay { duration_us: 100.0 }, &[], "load/a");
        g.add(ActivityKind::Delay { duration_us: 250.0 }, &[a], "load/b");
        g.add(ActivityKind::Delay { duration_us: 40.0 }, &[], "other");
        let res = sim.run(&g).unwrap();
        let (s, e) = res.span_of_tag(&g, "load").unwrap();
        assert_eq!(s, 0.0);
        assert!((e - 350.0).abs() < 1e-6);
        assert!(res.span_of_tag(&g, "nope").is_none());
    }

    #[test]
    fn zero_byte_reads_complete_instantly() {
        let sim = Simulation::new(cluster(1));
        let mut g = ActivityGraph::new();
        g.add(
            ActivityKind::DiskRead {
                node: NodeId(0),
                bytes: 0.0,
            },
            &[],
            "z",
        );
        let res = sim.run(&g).unwrap();
        assert_eq!(res.makespan_us, 0.0);
    }

    #[test]
    fn empty_plan_is_bit_identical_to_run() {
        let sim = Simulation::new(cluster(2));
        let mut g = ActivityGraph::new();
        let a = g.add(
            ActivityKind::DiskRead {
                node: NodeId(0),
                bytes: 3e6,
            },
            &[],
            "a",
        );
        g.add(
            ActivityKind::Transfer {
                src: NodeId(0),
                dst: NodeId(1),
                bytes: 2e6,
            },
            &[a],
            "b",
        );
        let healthy = sim.run(&g).unwrap();
        let planned = sim.run_with_faults(&g, &FaultPlan::new()).unwrap();
        assert_eq!(healthy.makespan_us.to_bits(), planned.makespan_us.to_bits());
        for (x, y) in healthy.results.iter().zip(&planned.results) {
            assert_eq!(x.start_us.to_bits(), y.start_us.to_bits());
            assert_eq!(x.end_us.to_bits(), y.end_us.to_bits());
        }
        assert!(planned.faults.is_empty());
    }

    #[test]
    fn plan_referencing_unknown_node_rejected() {
        let sim = Simulation::new(cluster(2));
        let g = ActivityGraph::new();
        let plan = FaultPlan::new().crash(NodeId(9), 1.0);
        match sim.run_with_faults(&g, &plan) {
            Err(SimError::UnknownNode { node }) => assert_eq!(node, NodeId(9)),
            other => panic!("expected UnknownNode, got {other:?}"),
        }
    }

    #[test]
    fn straggler_determines_makespan() {
        // Fair sharing: 3 disk readers on one 100 bytes/µs disk. Two small
        // (1e6 B), one large (98e6 B). Small ones finish, then the large one
        // gets the full bandwidth.
        let sim = Simulation::new(cluster(1));
        let mut g = ActivityGraph::new();
        for (i, b) in [1e6, 1e6, 98e6].into_iter().enumerate() {
            g.add(
                ActivityKind::DiskRead {
                    node: NodeId(0),
                    bytes: b,
                },
                &[],
                format!("r{i}"),
            );
        }
        let res = sim.run(&g).unwrap();
        // Total bytes 100e6 at aggregate 100 B/µs -> exactly 1e6 µs since the
        // disk is never idle.
        assert!((res.makespan_us - 1e6).abs() < 10.0, "{}", res.makespan_us);
    }
}
