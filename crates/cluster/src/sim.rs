//! The simulation engine: executes an activity DAG on a cluster.
//!
//! Event-driven with analytic progression: at every step the engine computes
//! the max-min fair rate of each running activity, advances time to the
//! earliest completion, accumulates resource usage into the [`UsageTrace`],
//! and releases newly-ready activities. Deterministic by construction.
//!
//! [`Simulation::run`] takes the incremental scheduler (`sched.rs`) for
//! every DAG: it re-rates only the activities coupled to an arrival or
//! departure and pops completions from a lazy heap.
//! [`Simulation::run_reference`] takes the dense loop, which re-rates every
//! running activity at every event and rescans them for the earliest
//! completion; it is the oracle the equivalence tests compare against.
//! Both run one water-filling round loop; the oracle calls it through
//! [`crate::resources::fill_rates`].

use std::fmt;

use crate::activity::{ActivityGraph, ActivityId, ActivityKind};
use crate::fault::{FaultClock, FaultEvent, FaultPlan};
use crate::resources::{demand, fill_rates, Demand, FillScratch, ResourceTable};
use crate::sched::{record_node_events, trace_targets, FlushWave};
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

struct Running {
    id: ActivityId,
    remaining: f64,
    demand: Demand,
    rate: f64,
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
    /// Uses the incremental scheduler (`sched.rs`); results agree
    /// with [`Simulation::run_reference`] up to floating-point noise and are
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

    /// Executes the DAG with the naive reference engine: every event
    /// re-runs progressive filling over *all* running activities and
    /// rescans them for the earliest completion.
    ///
    /// O(running) per event where [`Simulation::run`] touches only the
    /// affected activities — kept as the oracle for equivalence tests and as
    /// the baseline for the scheduler benchmarks.
    pub fn run_reference(&self, graph: &ActivityGraph) -> Result<SimResult, SimError> {
        self.run_reference_with_faults(graph, &FaultPlan::default())
    }

    /// Executes the DAG under a [`FaultPlan`] with the reference engine —
    /// the oracle for [`Simulation::run_with_faults`]. Fault semantics are
    /// identical to the incremental engine: same kill instants, same
    /// parking, same capacity windows.
    pub fn run_reference_with_faults(
        &self,
        graph: &ActivityGraph,
        plan: &FaultPlan,
    ) -> Result<SimResult, SimError> {
        self.check_nodes(graph)?;
        self.check_plan(plan)?;
        self.run_dense(graph, plan)
    }

    /// The dense recompute loop behind [`Simulation::run_reference`]:
    /// every event re-runs progressive filling over all running activities.
    fn run_dense(&self, graph: &ActivityGraph, plan: &FaultPlan) -> Result<SimResult, SimError> {
        let n = graph.len();
        let mut table = ResourceTable::new(&self.cluster);
        let base_caps = table.caps.clone();
        let active = !plan.is_empty();
        let mut clock = FaultClock::new(plan, self.cluster.len());
        let mut faults: Vec<FaultEvent> = Vec::new();
        let mut parked: Vec<ActivityId> = Vec::new();
        let mut crashed_buf: Vec<NodeId> = Vec::new();
        let mut restarted_buf: Vec<NodeId> = Vec::new();
        let mut trace = UsageTrace::new(&self.cluster);
        let mut results = vec![
            ActivityResult {
                start_us: f64::NAN,
                end_us: f64::NAN
            };
            n
        ];

        // Dependency bookkeeping.
        let mut indeg = vec![0u32; n];
        let mut dependents: Vec<Vec<ActivityId>> = vec![Vec::new(); n];
        for a in graph.iter() {
            indeg[a.id.0 as usize] = a.deps.len() as u32;
            for d in a.deps {
                dependents[d.0 as usize].push(a.id);
            }
        }

        let mut ready: Vec<ActivityId> = graph
            .iter()
            .filter(|a| a.deps.is_empty())
            .map(|a| a.id)
            .collect();
        let mut running: Vec<Running> = Vec::new();
        let mut demands: Vec<Demand> = Vec::new();
        let mut rates: Vec<f64> = Vec::new();
        let mut fill = FillScratch::default();
        let mut wave = FlushWave::new(self.cluster.len());
        let mut done = 0usize;
        let mut now = 0.0f64;

        // Faults scheduled at t=0 take effect before anything starts, so
        // activities bound to a node that is dead from the outset park
        // instead of starting.
        if active && matches!(clock.next_boundary(), Some(b) if b <= 0.0) {
            let caps_changed = clock.advance(0.0, &mut crashed_buf, &mut restarted_buf);
            record_node_events(&mut faults, &restarted_buf, &crashed_buf, 0.0);
            if caps_changed {
                clock.refresh_caps(&base_caps, &mut table.caps, 0.0);
            }
        }

        while done < n {
            // Start everything ready; zero-amount activities finish at once.
            // Under an active plan, activities bound to a down node park
            // until its restart (or fail the run if it never restarts).
            while let Some(id) = ready.pop() {
                let act = graph.get(id);
                if active {
                    if let Some(node) = clock.blocking_node(act.kind) {
                        if clock.has_pending_restart(node) {
                            parked.push(id);
                            continue;
                        }
                        return Err(SimError::NodeLost {
                            node,
                            activity: id,
                            at_us: now.round() as u64,
                        });
                    }
                }
                let amount = act.kind.amount();
                results[id.0 as usize].start_us = now;
                if amount <= 0.0 {
                    results[id.0 as usize].end_us = now;
                    done += 1;
                    for &dep in &dependents[id.0 as usize] {
                        indeg[dep.0 as usize] -= 1;
                        if indeg[dep.0 as usize] == 0 {
                            ready.push(dep);
                        }
                    }
                } else {
                    running.push(Running {
                        id,
                        remaining: amount,
                        demand: demand(&table, act.kind),
                        rate: 0.0,
                    });
                }
            }
            if done == n {
                break;
            }

            let boundary = if active { clock.next_boundary() } else { None };

            // Assign fair rates (the demand, rate and kernel buffers are
            // reused across steps) and find the earliest completion.
            // `running` may be empty under an active plan — everything
            // parked — in which case the only way forward is the next fault
            // boundary.
            let t1 = if running.is_empty() {
                f64::INFINITY
            } else {
                demands.clear();
                demands.extend(running.iter().map(|r| r.demand));
                fill_rates(&table.caps, &demands, &mut rates, &mut fill);
                for (r, &rate) in running.iter_mut().zip(&rates) {
                    r.rate = rate;
                }
                let mut dt = f64::INFINITY;
                for r in &running {
                    if r.rate > 0.0 {
                        dt = dt.min(r.remaining / r.rate);
                    }
                }
                now + dt
            };

            // A completion at exactly a boundary instant wins (strict `<`),
            // matching the incremental engine.
            let at_boundary = matches!(boundary, Some(b) if b < t1);
            let step_to = if at_boundary { boundary.unwrap() } else { t1 };
            if !step_to.is_finite() {
                return if running.is_empty() {
                    Err(SimError::Deadlock {
                        unstarted: n - done,
                    })
                } else {
                    Err(SimError::Stalled {
                        activity: running[0].id,
                    })
                };
            }
            let dt = step_to - now;

            // Accumulate usage over [now, step_to), batched so each
            // (channel, node) pair gets one UsageTrace::add per step no
            // matter how many activities share it.
            for r in &running {
                let targets = trace_targets(graph.kind_of(r.id));
                for &(ch, node) in &targets.ch[..targets.n as usize] {
                    wave.push(&mut trace, ch, node, now, step_to, r.rate);
                }
            }
            wave.flush_all(&mut trace, step_to);

            now = step_to;
            // Progress and complete.
            let mut i = 0;
            while i < running.len() {
                let r = &mut running[i];
                r.remaining -= r.rate * dt;
                let eps = 1e-6 * graph.get(r.id).kind.amount().max(1.0);
                if r.remaining <= eps {
                    let id = r.id;
                    results[id.0 as usize].end_us = now;
                    done += 1;
                    running.swap_remove(i);
                    for &dep in &dependents[id.0 as usize] {
                        indeg[dep.0 as usize] -= 1;
                        if indeg[dep.0 as usize] == 0 {
                            ready.push(dep);
                        }
                    }
                } else {
                    i += 1;
                }
            }

            if at_boundary {
                crashed_buf.clear();
                restarted_buf.clear();
                let caps_changed = clock.advance(now, &mut crashed_buf, &mut restarted_buf);
                record_node_events(&mut faults, &restarted_buf, &crashed_buf, now);
                if !crashed_buf.is_empty() {
                    // Kill every in-flight activity touching a down node:
                    // forced completion at the crash instant, dependents
                    // released. Killed in ActivityId order for determinism.
                    let mut killed: Vec<(ActivityId, NodeId)> = running
                        .iter()
                        .filter_map(|r| {
                            clock
                                .blocking_node(graph.get(r.id).kind)
                                .map(|node| (r.id, node))
                        })
                        .collect();
                    killed.sort_by_key(|&(id, _)| id.0);
                    for &(id, node) in &killed {
                        results[id.0 as usize].end_us = now;
                        done += 1;
                        faults.push(FaultEvent::ActivityKilled {
                            activity: id,
                            node,
                            at_us: now,
                        });
                        for &dep in &dependents[id.0 as usize] {
                            indeg[dep.0 as usize] -= 1;
                            if indeg[dep.0 as usize] == 0 {
                                ready.push(dep);
                            }
                        }
                    }
                    running.retain(|r| clock.blocking_node(graph.get(r.id).kind).is_none());
                }
                if !crashed_buf.is_empty() || !restarted_buf.is_empty() {
                    // Re-examine parked activities: a restarted node frees
                    // them; a node that lost its last pending restart is
                    // gone for good.
                    let mut kept = 0;
                    for i in 0..parked.len() {
                        let id = parked[i];
                        match clock.blocking_node(graph.get(id).kind) {
                            None => ready.push(id),
                            Some(node) => {
                                if !clock.has_pending_restart(node) {
                                    return Err(SimError::NodeLost {
                                        node,
                                        activity: id,
                                        at_us: now.round() as u64,
                                    });
                                }
                                parked[kept] = id;
                                kept += 1;
                            }
                        }
                    }
                    parked.truncate(kept);
                }
                if caps_changed {
                    clock.refresh_caps(&base_caps, &mut table.caps, now);
                }
            }
        }

        let makespan_us = results.iter().map(|r| r.end_us).fold(0.0, f64::max);
        Ok(SimResult {
            results,
            makespan_us,
            trace,
            faults,
        })
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
    fn reference_engine_agrees_with_incremental() {
        // A mixed DAG exercising contention, fan-in, and chained phases on
        // a 3-node cluster; both engines must tell the same story.
        let sim = Simulation::new(cluster(3));
        let mut g = ActivityGraph::new();
        let mut loads = Vec::new();
        for node in 0..3u16 {
            let r = g.add(
                ActivityKind::DiskRead {
                    node: NodeId(node),
                    bytes: 3e6 + node as f64 * 1e6,
                },
                &[],
                format!("load/{node}"),
            );
            loads.push(r);
        }
        let join = g.barrier(&loads, "join");
        let mut computes = Vec::new();
        for node in 0..3u16 {
            for k in 0..4 {
                computes.push(g.add(
                    ActivityKind::Compute {
                        node: NodeId(node),
                        work_core_us: 1e6 * (1.0 + k as f64),
                        parallelism: 4,
                    },
                    &[join],
                    format!("proc/{node}/{k}"),
                ));
            }
        }
        let sync = g.barrier(&computes, "sync");
        g.add(
            ActivityKind::Transfer {
                src: NodeId(0),
                dst: NodeId(2),
                bytes: 5e6,
            },
            &[sync],
            "ship",
        );
        let a = sim.run(&g).unwrap();
        let b = sim.run_reference(&g).unwrap();
        assert!(
            (a.makespan_us - b.makespan_us).abs() <= 1e-6 * b.makespan_us,
            "{} vs {}",
            a.makespan_us,
            b.makespan_us
        );
        for (x, y) in a.results.iter().zip(&b.results) {
            assert!((x.start_us - y.start_us).abs() <= 1e-6 * y.start_us.max(1.0));
            assert!((x.end_us - y.end_us).abs() <= 1e-6 * y.end_us.max(1.0));
        }
        // Bitwise determinism of the incremental engine.
        let a2 = sim.run(&g).unwrap();
        assert_eq!(a.makespan_us.to_bits(), a2.makespan_us.to_bits());
        for (x, y) in a.results.iter().zip(&a2.results) {
            assert_eq!(x.start_us.to_bits(), y.start_us.to_bits());
            assert_eq!(x.end_us.to_bits(), y.end_us.to_bits());
        }
    }

    #[test]
    fn crash_kills_in_flight_work_in_both_engines() {
        // A 1e6-µs compute on node 1 is killed by a crash at 4e5; its
        // dependent (a delay) is released at the crash instant.
        let mut g = ActivityGraph::new();
        let c = g.add(
            ActivityKind::Compute {
                node: NodeId(1),
                work_core_us: 8e6,
                parallelism: 8,
            },
            &[],
            "c",
        );
        g.add(ActivityKind::Delay { duration_us: 100.0 }, &[c], "after");
        let plan = FaultPlan::new().crash(NodeId(1), 4e5);
        let sim = Simulation::new(cluster(2));
        for res in [
            sim.run_with_faults(&g, &plan).unwrap(),
            sim.run_reference_with_faults(&g, &plan).unwrap(),
        ] {
            assert!((res.of(c).end_us - 4e5).abs() < 1e-6, "{:?}", res.of(c));
            assert!((res.makespan_us - 4e5 - 100.0).abs() < 1e-6);
            assert!(res.faults.iter().any(|f| matches!(
                f,
                FaultEvent::ActivityKilled { activity, node, .. }
                    if *activity == c && *node == NodeId(1)
            )));
        }
    }

    #[test]
    fn ready_work_parks_until_restart() {
        // Node 0 is down over [0, 5e5); a compute ready at t=0 must wait
        // for the replacement and then run at full speed.
        let mut g = ActivityGraph::new();
        let c = g.add(
            ActivityKind::Compute {
                node: NodeId(0),
                work_core_us: 8e5,
                parallelism: 8,
            },
            &[],
            "c",
        );
        let plan = FaultPlan::new().crash_with_restart(NodeId(0), 0.0, 5e5);
        let sim = Simulation::new(cluster(1));
        for res in [
            sim.run_with_faults(&g, &plan).unwrap(),
            sim.run_reference_with_faults(&g, &plan).unwrap(),
        ] {
            assert!((res.of(c).start_us - 5e5).abs() < 1e-6, "{:?}", res.of(c));
            assert!((res.makespan_us - 6e5).abs() < 1.0, "{}", res.makespan_us);
        }
    }

    #[test]
    fn permanent_loss_is_an_error_with_timestamp() {
        let mut g = ActivityGraph::new();
        let gate = g.add(ActivityKind::Delay { duration_us: 300.0 }, &[], "gate");
        g.add(
            ActivityKind::DiskRead {
                node: NodeId(0),
                bytes: 1e6,
            },
            &[gate],
            "read",
        );
        let plan = FaultPlan::new().crash(NodeId(0), 100.0);
        let sim = Simulation::new(cluster(1));
        for res in [
            sim.run_with_faults(&g, &plan),
            sim.run_reference_with_faults(&g, &plan),
        ] {
            match res {
                Err(SimError::NodeLost { node, at_us, .. }) => {
                    assert_eq!(node, NodeId(0));
                    assert_eq!(at_us, 300);
                }
                other => panic!("expected NodeLost, got {other:?}"),
            }
        }
        let msg = SimError::NodeLost {
            node: NodeId(0),
            activity: ActivityId(1),
            at_us: 300,
        }
        .to_string();
        assert!(msg.contains("t=300"), "{msg}");
    }

    #[test]
    fn slowdown_window_stretches_work() {
        // Disk at half speed over the whole read: 1e6 bytes at an effective
        // 50 bytes/µs take 2e4 µs instead of 1e4.
        let mut g = ActivityGraph::new();
        g.add(
            ActivityKind::DiskRead {
                node: NodeId(0),
                bytes: 1e6,
            },
            &[],
            "r",
        );
        let plan = FaultPlan::new().slow(
            NodeId(0),
            crate::fault::DegradedChannel::Disk,
            0.0,
            1e9,
            0.5,
        );
        let sim = Simulation::new(cluster(1));
        for res in [
            sim.run_with_faults(&g, &plan).unwrap(),
            sim.run_reference_with_faults(&g, &plan).unwrap(),
        ] {
            assert!((res.makespan_us - 2e4).abs() < 10.0, "{}", res.makespan_us);
        }
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
