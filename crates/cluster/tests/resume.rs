//! The resumed refill against the fill from scratch, bit for bit.
//!
//! The incremental engine resumes water filling from the last fill's trail
//! when a refill wave covers the same resources as the last one. Under
//! `RefillMode::Audit` the engine checks after every wave that each
//! affected slot's rate equals `fill_rates` over the same closure from
//! scratch, bit for bit, and panics otherwise. On top of that, every run
//! here must reproduce the schedule and the usage trace of the same engine
//! filling every wave from scratch (`RefillMode::Scratch`), bit for bit.
//! Random DAGs run on heterogeneous clusters under random fault plans
//! (crashes, restarts, slowdowns); hand-built cases aim at the edges of the
//! resume certificate.

use gpsim_cluster::trace::Channel;
use gpsim_cluster::{
    ActivityGraph, ActivityId, ActivityKind, ClusterSpec, DegradedChannel, FaultPlan, NodeId,
    NodeSpec, RefillMode, SimResult, Simulation,
};
use proptest::prelude::*;
use std::sync::Mutex;

/// Serialises the tests that read the engine's trace counters.
static COUNTERS: Mutex<()> = Mutex::new(());

fn cluster(nodes: &[(u32, f64, f64)], shared_fs_bps: f64) -> ClusterSpec {
    ClusterSpec {
        nodes: nodes
            .iter()
            .enumerate()
            .map(|(i, &(cores, disk_bps, nic_bps))| NodeSpec {
                name: format!("n{i}"),
                cores,
                disk_bps,
                nic_bps,
                mem_bytes: 1 << 30,
            })
            .collect(),
        shared_fs_bps,
    }
}

/// The bits of a run: every start and end, the makespan, every usage
/// bucket of every channel and node, and the fault log.
fn bits(res: &SimResult, nodes: usize) -> Vec<u64> {
    let mut out = vec![res.makespan_us.to_bits()];
    for r in &res.results {
        out.extend([r.start_us.to_bits(), r.end_us.to_bits()]);
    }
    for ch in [Channel::Cpu, Channel::Disk, Channel::NetIn, Channel::NetOut] {
        for node in 0..nodes {
            let series = res.trace.series(ch, NodeId(node as u16));
            out.push(series.len() as u64);
            out.extend(series.iter().map(|&(t, v)| t ^ v.to_bits()));
        }
    }
    out.push(format!("{:?}", res.faults).len() as u64);
    out
}

/// Runs `graph` audited and from scratch; asserts both agree bit for bit
/// (or fail alike) and returns the audited run's resumed refills.
fn check(cluster: &ClusterSpec, graph: &ActivityGraph, plan: &FaultPlan) -> u64 {
    let sim = Simulation::new(cluster.clone());
    let _guard = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    granula_trace::reset();
    granula_trace::enable();
    let audited = sim.run_refills(graph, plan, RefillMode::Audit);
    let resumed = match granula_trace::metrics().get("engine.resumed_refills") {
        Some(granula_trace::MetricValue::Counter(n)) => *n,
        _ => 0,
    };
    granula_trace::disable();
    let scratch = sim.run_refills(graph, plan, RefillMode::Scratch);
    let plain = sim.run_with_faults(graph, plan);
    match (audited, scratch, plain) {
        (Ok(a), Ok(s), Ok(p)) => {
            let n = cluster.len();
            assert_eq!(bits(&a, n), bits(&s, n), "resumed run differs from scratch");
            assert_eq!(bits(&p, n), bits(&s, n), "run differs from scratch");
            assert_eq!(format!("{:?}", a.faults), format!("{:?}", s.faults));
        }
        (Err(a), Err(s), Err(p)) => {
            assert_eq!(a, s);
            assert_eq!(p, s);
        }
        (a, s, p) => panic!("outcomes differ: {a:?} / {s:?} / {p:?}"),
    }
    resumed
}

type RawAct = (u8, u16, u16, f64, u32, Vec<u32>);

fn build_graph(nodes: u16, acts: Vec<RawAct>) -> ActivityGraph {
    let mut graph = ActivityGraph::new();
    for (i, (sel, a, b, amount, par, deps)) in acts.into_iter().enumerate() {
        let deps: Vec<ActivityId> = if i == 0 {
            Vec::new()
        } else {
            deps.into_iter().map(|d| ActivityId(d % i as u32)).collect()
        };
        let (na, nb) = (NodeId(a % nodes), NodeId(b % nodes));
        let kind = match sel {
            0 | 1 => ActivityKind::Compute {
                node: na,
                work_core_us: amount,
                parallelism: par,
            },
            2 => ActivityKind::DiskRead {
                node: na,
                bytes: amount,
            },
            3 | 4 => ActivityKind::Transfer {
                src: na,
                dst: nb,
                bytes: amount,
            },
            5 => ActivityKind::SharedRead {
                node: na,
                bytes: amount,
            },
            _ => ActivityKind::Delay {
                duration_us: amount / 100.0,
            },
        };
        graph.add(kind, &deps, format!("k{sel}/{i}"));
    }
    graph
}

fn arb_case() -> impl Strategy<Value = (ClusterSpec, ActivityGraph, FaultPlan)> {
    let node = (1u32..=8, 1.0e6f64..4.0e8, 1.0e6f64..1.0e8);
    let act = (
        0u8..7,
        any::<u16>(),
        any::<u16>(),
        prop_oneof![1 => Just(0.0f64), 9 => 1.0f64..3.0e6],
        1u32..=8,
        proptest::collection::vec(any::<u32>(), 0..=3),
    );
    let crash = (
        any::<u16>(),
        1.0f64..3.0e6,
        proptest::option::of(1.0e5f64..1.0e6),
    );
    let slow = (
        any::<u16>(),
        0u8..4,
        1.0f64..2.4e6,
        1.0e5f64..1.0e6,
        0.1f64..1.0,
    );
    (
        proptest::collection::vec(node, 1..=4),
        proptest::collection::vec(act, 0..=60),
        proptest::option::of(crash),
        proptest::collection::vec(slow, 0..=2),
    )
        .prop_map(|(nodes, acts, crash, slows)| {
            let c = cluster(&nodes, 5.0e7);
            let n = c.len() as u16;
            let graph = build_graph(n, acts);
            let mut plan = FaultPlan::new();
            if let Some((sel, at, restart)) = crash {
                plan = match restart {
                    Some(r) => plan.crash_with_restart(NodeId(sel % n), at, r),
                    None => plan.crash(NodeId(sel % n), at),
                };
            }
            for (sel, ch, from, len, factor) in slows {
                let channel = match ch {
                    0 => DegradedChannel::Cpu,
                    1 => DegradedChannel::Disk,
                    2 => DegradedChannel::Nic,
                    _ => DegradedChannel::All,
                };
                plan = plan.slow(NodeId(sel % n), channel, from, from + len, factor);
            }
            (c, graph, plan)
        })
}

proptest! {
    /// Every wave's resumed rates equal the fill from scratch, and every
    /// schedule and usage trace equals the engine's from-scratch run.
    #[test]
    fn resumed_refills_match_scratch(case in arb_case()) {
        let (cluster, graph, plan) = case;
        check(&cluster, &graph, &plan);
    }
}

fn compute(node: u16, work: f64, parallelism: u32) -> ActivityKind {
    ActivityKind::Compute {
        node: NodeId(node),
        work_core_us: work,
        parallelism,
    }
}

fn transfer(src: u16, dst: u16, bytes: f64) -> ActivityKind {
    ActivityKind::Transfer {
        src: NodeId(src),
        dst: NodeId(dst),
        bytes,
    }
}

/// `n` transfers fanning into node 0 from the other nodes, sized so they
/// finish one at a time, plus `extra` started after each finish.
fn fan_in(graph: &mut ActivityGraph, nodes: u16, n: usize, extra: impl Fn(usize) -> ActivityKind) {
    for i in 0..n {
        let src = 1 + (i as u16 % (nodes - 1));
        let t = graph.add(transfer(src, 0, 1e5 * (i + 1) as f64), &[], "fan");
        graph.add(extra(i), &[t], "after");
    }
}

#[test]
fn departure_from_the_argmin_resource() {
    // Node 0's NIC-in is the bottleneck of a fan-in; each finishing
    // transfer leaves it, and the others' shares rise.
    let c = cluster(&[(8, 1e8, 1e7); 4], 1e9);
    let mut g = ActivityGraph::new();
    fan_in(&mut g, 4, 9, |i| transfer(1 + (i as u16 % 3), 2, 1e4));
    assert!(check(&c, &g, &FaultPlan::new()) > 0);
}

#[test]
fn arrival_that_becomes_the_new_bottleneck() {
    // A slow NIC joins a fan-in already limited elsewhere: each transfer
    // from node 3 arrives on a resource tighter than the current argmin.
    let c = cluster(
        &[(8, 1e8, 4e7), (8, 1e8, 4e7), (8, 1e8, 4e7), (8, 1e8, 2e6)],
        1e9,
    );
    let mut g = ActivityGraph::new();
    let mut prev = Vec::new();
    for i in 0..6 {
        prev.push(g.add(transfer(1 + (i % 2), 0, 2e5 * (i + 1) as f64), &[], "base"));
    }
    for (i, &p) in prev.iter().enumerate() {
        g.add(transfer(3, 0, 5e4 * (i + 1) as f64), &[p], "slow");
    }
    assert!(check(&c, &g, &FaultPlan::new()) > 0);
}

#[test]
fn eps_saturation_ties() {
    // Eight cores shared by capped computes whose caps sum to the core
    // count, next to a third-capacity split three ways: saturation and
    // caps bind in the same round, with rounding residue at the threshold.
    let c = cluster(&[(8, 1.0 / 3.0 * 1e6, 3e6), (3, 1e6, 3e6)], 1e6);
    let mut g = ActivityGraph::new();
    for i in 0..12 {
        let a = g.add(compute(0, 1e5 * (1 + i % 4) as f64, 2), &[], "tie");
        g.add(
            ActivityKind::DiskRead {
                node: NodeId(0),
                bytes: 1e3 * (i + 1) as f64,
            },
            &[a],
            "d",
        );
        g.add(compute(1, 3e4 * (i + 1) as f64, 1), &[a], "c");
    }
    assert!(check(&c, &g, &FaultPlan::new()) > 0);
}

#[test]
fn capped_computes_sharing_a_core() {
    // Computes with caps 1..4 on a four-core node next to transfers that
    // couple it to other nodes: arrivals and departures of capped users.
    let c = cluster(&[(4, 1e8, 1e7), (4, 1e8, 1e7), (2, 1e8, 1e7)], 1e9);
    let mut g = ActivityGraph::new();
    let mut prev: Option<ActivityId> = None;
    for i in 0..16u32 {
        let deps: Vec<ActivityId> = prev.into_iter().collect();
        let a = g.add(
            compute(0, 2e5 * (1 + i % 5) as f64, 1 + i % 4),
            &deps,
            "cap",
        );
        g.add(transfer(1, 2, 1e5 * (1 + i % 3) as f64), &[], "net");
        g.add(compute(2, 1e5, 1 + i % 2), &[a], "cap2");
        if i % 3 == 0 {
            prev = Some(a);
        }
    }
    assert!(check(&c, &g, &FaultPlan::new()) > 0);
}

#[test]
fn capacity_drop_on_a_resource_in_the_trail() {
    // Slowdowns on the NIC and CPU of nodes inside a running fan-in drop
    // capacities that the trail recorded, then restore them.
    let c = cluster(&[(8, 1e8, 1e7); 4], 1e9);
    let mut g = ActivityGraph::new();
    fan_in(&mut g, 4, 12, |i| transfer(1 + (i as u16 % 3), 2, 3e4));
    let plan = FaultPlan::new()
        .slow(NodeId(0), DegradedChannel::Nic, 2e4, 9e4, 0.3)
        .slow(NodeId(2), DegradedChannel::All, 5e4, 3e5, 0.5);
    assert!(check(&c, &g, &plan) > 0);
}

#[test]
fn component_split_and_merge() {
    // A bridge transfer couples two fan-ins into one component; when it
    // ends the component splits, and a later bridge merges it again.
    let c = cluster(&[(8, 1e8, 1e7); 6], 1e9);
    let mut g = ActivityGraph::new();
    let mut left = Vec::new();
    for i in 0..5 {
        left.push(g.add(transfer(1, 0, 1e5 * (i + 2) as f64), &[], "left"));
        g.add(transfer(4, 3, 1.2e5 * (i + 2) as f64), &[], "right");
    }
    let bridge = g.add(transfer(1, 3, 1.5e5), &[], "bridge");
    g.add(transfer(4, 0, 3e5), &[bridge], "merge");
    g.add(transfer(5, 2, 2e5), &[left[2]], "apart");
    // A crash with restart kills users in both halves mid-run.
    let plan = FaultPlan::new().crash_with_restart(NodeId(5), 4e4, 2e4);
    check(&c, &g, &plan);
    assert!(check(&c, &g, &FaultPlan::new()) > 0);
}
