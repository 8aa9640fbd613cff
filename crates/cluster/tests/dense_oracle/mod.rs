//! The dense max-min loop, kept as the test-only oracle for the incremental
//! scheduler behind `Simulation::run` (the way `gpsim-platforms` keeps its
//! former engines in `pregel_oracle.rs` and `gas_oracle.rs`).
//!
//! At every event the loop re-runs progressive filling over *all* running
//! activities ([`fill_rates`] from scratch) and rescans them for the
//! earliest completion: O(running) per event, where the engine touches only
//! the activities coupled to the event. Fault semantics are the engine's:
//! same kill instants, same parking, same capacity windows.
//!
//! The pieces both engines share by definition come from the library
//! through `#[doc(hidden)]` items, so they cannot drift apart: the capacity
//! table and per-activity demands, the fault clock, where usage is charged
//! (`trace_targets`), the order of node events (`record_node_events`) and
//! `UsageTrace::add`.

use gpsim_cluster::fault::FaultClock;
use gpsim_cluster::resources::{demand, fill_rates, Demand, FillScratch, ResourceTable};
use gpsim_cluster::sched::{record_node_events, trace_targets};
use gpsim_cluster::trace::Channel;
use gpsim_cluster::{
    ActivityGraph, ActivityId, ActivityKind, ActivityResult, ClusterSpec, FaultEvent, FaultPlan,
    NodeId, NodeSpec, SimError, SimResult, Simulation, UsageTrace,
};

/// Executes the DAG on `sim`'s cluster with the dense loop: every event
/// re-runs progressive filling over all running activities and rescans
/// them for the earliest completion.
pub fn run_reference(sim: &Simulation, graph: &ActivityGraph) -> Result<SimResult, SimError> {
    run_reference_with_faults(sim, graph, &FaultPlan::default())
}

/// Executes the DAG under a [`FaultPlan`] with the dense loop — the oracle
/// for `Simulation::run_with_faults`.
pub fn run_reference_with_faults(
    sim: &Simulation,
    graph: &ActivityGraph,
    plan: &FaultPlan,
) -> Result<SimResult, SimError> {
    check_nodes(sim.cluster(), graph)?;
    check_plan(sim.cluster(), plan)?;
    run_dense(sim.cluster(), graph, plan)
}

fn check_nodes(cluster: &ClusterSpec, graph: &ActivityGraph) -> Result<(), SimError> {
    let n = cluster.len() as u16;
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

fn check_plan(cluster: &ClusterSpec, plan: &FaultPlan) -> Result<(), SimError> {
    let max_node = plan
        .crashes
        .iter()
        .map(|c| c.node)
        .chain(plan.slowdowns.iter().map(|s| s.node))
        .max();
    match max_node {
        Some(node) if node.0 as usize >= cluster.len() => Err(SimError::UnknownNode { node }),
        _ => Ok(()),
    }
}

struct Running {
    id: ActivityId,
    remaining: f64,
    demand: Demand,
    rate: f64,
}

/// The dense recompute loop: every event re-runs progressive filling over
/// all running activities.
fn run_dense(
    cluster: &ClusterSpec,
    graph: &ActivityGraph,
    plan: &FaultPlan,
) -> Result<SimResult, SimError> {
    let n = graph.len();
    let mut table = ResourceTable::new(cluster);
    let base_caps = table.caps.clone();
    let active = !plan.is_empty();
    let mut clock = FaultClock::new(plan, cluster.len());
    let mut faults: Vec<FaultEvent> = Vec::new();
    let mut parked: Vec<ActivityId> = Vec::new();
    let mut crashed_buf: Vec<NodeId> = Vec::new();
    let mut restarted_buf: Vec<NodeId> = Vec::new();
    let mut trace = UsageTrace::new(cluster);
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
    let mut wave = FlushWave::new(cluster.len());
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

/// Dense per-`(channel, node)` accumulator batching [`UsageTrace`] spans.
///
/// Within one flush wave every pushed span ends at the same boundary, so
/// spans sharing `(channel, node, start)` — the common case when a whole
/// component re-anchors at once — merge into a single `UsageTrace::add`.
struct FlushWave {
    t0: Vec<f64>,
    rate: Vec<f64>,
    on: Vec<bool>,
    touched: Vec<u32>,
    nodes: usize,
}

fn channel_index(ch: Channel) -> usize {
    match ch {
        Channel::Cpu => 0,
        Channel::Disk => 1,
        Channel::NetIn => 2,
        Channel::NetOut => 3,
    }
}

fn channel_of(i: usize) -> Channel {
    match i {
        0 => Channel::Cpu,
        1 => Channel::Disk,
        2 => Channel::NetIn,
        _ => Channel::NetOut,
    }
}

impl FlushWave {
    fn new(nodes: usize) -> Self {
        FlushWave {
            t0: vec![0.0; 4 * nodes],
            rate: vec![0.0; 4 * nodes],
            on: vec![false; 4 * nodes],
            touched: Vec::new(),
            nodes,
        }
    }

    fn slot_index(&self, ch: Channel, node: NodeId) -> usize {
        channel_index(ch) * self.nodes + node.0 as usize
    }

    /// Adds the span `[t0, t1) @ rate`; merges with a pending span of the
    /// same `(channel, node, t0)`, else emits the pending one first.
    fn push(
        &mut self,
        trace: &mut UsageTrace,
        ch: Channel,
        node: NodeId,
        t0: f64,
        t1: f64,
        rate: f64,
    ) {
        let i = self.slot_index(ch, node);
        if self.on[i] {
            if self.t0[i] == t0 {
                self.rate[i] += rate;
                return;
            }
            trace.add(ch, node, self.t0[i], t1, self.rate[i]);
            self.t0[i] = t0;
            self.rate[i] = rate;
        } else {
            self.on[i] = true;
            self.t0[i] = t0;
            self.rate[i] = rate;
            self.touched.push(i as u32);
        }
    }

    /// Emits every pending span, all ending at `t1`.
    fn flush_all(&mut self, trace: &mut UsageTrace, t1: f64) {
        for k in 0..self.touched.len() {
            let i = self.touched[k] as usize;
            if self.on[i] {
                let ch = channel_of(i / self.nodes);
                let node = NodeId((i % self.nodes) as u16);
                trace.add(ch, node, self.t0[i], t1, self.rate[i]);
                self.on[i] = false;
            }
        }
        self.touched.clear();
    }
}

#[test]
fn flush_wave_merges_same_span() {
    let cluster = ClusterSpec::homogeneous(
        2,
        NodeSpec {
            name: String::new(),
            cores: 8,
            disk_bps: 1e8,
            nic_bps: 1e8,
            mem_bytes: 1,
        },
    );
    let mut trace = UsageTrace::new(&cluster);
    let mut wave = FlushWave::new(2);
    // Three readers on node 0's disk over the same span merge into one
    // accumulation; a fourth on node 1 stays separate.
    for _ in 0..3 {
        wave.push(&mut trace, Channel::Disk, NodeId(0), 0.0, 10.0, 5.0);
    }
    wave.push(&mut trace, Channel::Disk, NodeId(1), 0.0, 10.0, 7.0);
    wave.flush_all(&mut trace, 10.0);
    let s0 = trace.series(Channel::Disk, NodeId(0));
    let s1 = trace.series(Channel::Disk, NodeId(1));
    assert!((s0[0].1 - 150.0).abs() < 1e-9, "{s0:?}");
    assert!((s1[0].1 - 70.0).abs() < 1e-9, "{s1:?}");
}

#[test]
fn flush_wave_splits_differing_starts() {
    let cluster = ClusterSpec::homogeneous(
        1,
        NodeSpec {
            name: String::new(),
            cores: 8,
            disk_bps: 1e8,
            nic_bps: 1e8,
            mem_bytes: 1,
        },
    );
    let mut trace = UsageTrace::new(&cluster);
    let mut wave = FlushWave::new(1);
    // Same (channel, node), different anchors: both spans must land.
    wave.push(&mut trace, Channel::Disk, NodeId(0), 0.0, 20.0, 1.0);
    wave.push(&mut trace, Channel::Disk, NodeId(0), 10.0, 20.0, 1.0);
    wave.flush_all(&mut trace, 20.0);
    let s = trace.series(Channel::Disk, NodeId(0));
    // 1.0 over [0,20) plus 1.0 over [10,20) = 30 units in the bucket.
    assert!((s[0].1 - 30.0).abs() < 1e-9, "{s:?}");
}
