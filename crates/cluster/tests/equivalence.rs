//! Property tests: the incremental scheduler ([`Simulation::run`]) against
//! the dense reference loop ([`Simulation::run_reference`]), with and
//! without fault plans.
//!
//! Random DAGs over heterogeneous clusters must produce the same
//! per-activity timings, makespan, and usage traces from both engines (up
//! to floating-point noise: the engines accumulate remaining work in
//! different orders), and the incremental engine must be bit-identical
//! across repeated runs of the same input.

use gpsim_cluster::trace::Channel;
use gpsim_cluster::{
    ActivityGraph, ActivityId, ActivityKind, ClusterSpec, DegradedChannel, FaultPlan, NodeId,
    NodeSpec, SimError, Simulation,
};
use proptest::prelude::*;

/// Relative tolerance for cross-engine comparison. The engines compute the
/// same progressive-filling fixpoints but account remaining work in a
/// different order (per-step subtraction vs lazy re-anchoring), so times
/// agree only up to accumulated rounding.
const REL: f64 = 1e-6;

fn close(x: f64, y: f64) -> bool {
    (x - y).abs() <= REL * x.abs().max(y.abs()).max(1.0)
}

/// One randomly-drawn scenario: a heterogeneous cluster plus a DAG.
#[derive(Debug, Clone)]
struct World {
    cluster: ClusterSpec,
    graph: ActivityGraph,
}

type RawAct = (u8, u16, u16, f64, u32, Vec<u32>);

fn build_world(nodes: Vec<(u32, f64, f64)>, acts: Vec<RawAct>) -> World {
    let n = nodes.len() as u16;
    let cluster = ClusterSpec {
        nodes: nodes
            .into_iter()
            .enumerate()
            .map(|(i, (cores, disk_bps, nic_bps))| NodeSpec {
                name: format!("n{i}"),
                cores,
                disk_bps,
                nic_bps,
                mem_bytes: 1 << 30,
            })
            .collect(),
        // Deliberately small so SharedRead activities contend on the server.
        shared_fs_bps: 5.0e7,
    };
    let mut graph = ActivityGraph::new();
    for (i, (sel, a, b, amount, par, deps)) in acts.into_iter().enumerate() {
        let deps: Vec<ActivityId> = if i == 0 {
            Vec::new()
        } else {
            deps.into_iter().map(|d| ActivityId(d % i as u32)).collect()
        };
        let na = NodeId(a % n);
        let nb = NodeId(b % n);
        let kind = match sel {
            0 => ActivityKind::Compute {
                node: na,
                work_core_us: amount,
                parallelism: par,
            },
            1 => ActivityKind::DiskRead {
                node: na,
                bytes: amount,
            },
            2 => ActivityKind::DiskWrite {
                node: na,
                bytes: amount,
            },
            // May draw src == dst: the instant-completion path.
            3 => ActivityKind::Transfer {
                src: na,
                dst: nb,
                bytes: amount,
            },
            4 => ActivityKind::SharedRead {
                node: na,
                bytes: amount,
            },
            5 => ActivityKind::Delay {
                duration_us: amount / 100.0,
            },
            _ => ActivityKind::Barrier,
        };
        graph.add(kind, &deps, format!("k{sel}/{i}"));
    }
    World { cluster, graph }
}

fn arb_world() -> impl Strategy<Value = World> {
    let node = (1u32..=8, 1.0e6f64..4.0e8, 1.0e6f64..1.0e8);
    let act = (
        0u8..7,
        any::<u16>(),
        any::<u16>(),
        prop_oneof![
            1 => Just(0.0f64),
            9 => 1.0f64..3.0e6,
        ],
        1u32..=8,
        proptest::collection::vec(any::<u32>(), 0..=3),
    );
    (
        proptest::collection::vec(node, 1..=4),
        proptest::collection::vec(act, 0..=40),
    )
        .prop_map(|(nodes, acts)| build_world(nodes, acts))
}

/// Raw draw for one fault plan: a crash (node selector, time, optional
/// restart delay) plus up to two slowdown windows.
type RawPlan = (u16, f64, Option<f64>, Vec<(u16, u8, f64, f64, f64)>);

fn arb_raw_plan() -> impl Strategy<Value = RawPlan> {
    (
        any::<u16>(),
        1.0f64..3.0e6,
        proptest::option::of(1.0e5f64..1.0e6),
        proptest::collection::vec(
            (
                any::<u16>(),
                0u8..4,
                1.0f64..2.4e6,
                1.0e5f64..1.0e6,
                0.1f64..1.0,
            ),
            0..=2,
        ),
    )
}

/// Instantiates a raw plan against a concrete cluster size.
fn build_plan(raw: RawPlan, nodes: u16) -> FaultPlan {
    let (crash_sel, at, restart, slows) = raw;
    let mut plan = match restart {
        Some(r) => FaultPlan::new().crash_with_restart(NodeId(crash_sel % nodes), at, r),
        None => FaultPlan::new().crash(NodeId(crash_sel % nodes), at),
    };
    for (sel, ch, from, len, factor) in slows {
        let channel = match ch {
            0 => DegradedChannel::Cpu,
            1 => DegradedChannel::Disk,
            2 => DegradedChannel::Nic,
            _ => DegradedChannel::All,
        };
        plan = plan.slow(NodeId(sel % nodes), channel, from, from + len, factor);
    }
    plan
}

/// Pads the shorter series with zeros; engines may disagree on whether the
/// final event grazes a new bucket.
fn series_close(a: &[(u64, f64)], b: &[(u64, f64)]) -> bool {
    let len = a.len().max(b.len());
    (0..len).all(|i| {
        let x = a.get(i).map_or(0.0, |&(_, v)| v);
        let y = b.get(i).map_or(0.0, |&(_, v)| v);
        close(x, y)
    })
}

proptest! {
    /// The incremental engine reproduces the reference engine's timings,
    /// makespan, and traces on arbitrary DAG × cluster combinations.
    #[test]
    fn incremental_matches_reference(w in arb_world()) {
        let sim = Simulation::new(w.cluster.clone());
        let inc = sim.run(&w.graph);
        let reference = sim.run_reference(&w.graph);
        match (inc, reference) {
            (Ok(inc), Ok(reference)) => {
                prop_assert!(
                    close(inc.makespan_us, reference.makespan_us),
                    "makespan {} vs {}", inc.makespan_us, reference.makespan_us
                );
                for (id, (x, y)) in inc.results.iter().zip(&reference.results).enumerate() {
                    prop_assert!(
                        close(x.start_us, y.start_us),
                        "act {id} start {} vs {}", x.start_us, y.start_us
                    );
                    prop_assert!(
                        close(x.end_us, y.end_us),
                        "act {id} end {} vs {}", x.end_us, y.end_us
                    );
                }
                for ch in [Channel::Cpu, Channel::Disk, Channel::NetIn, Channel::NetOut] {
                    for node in 0..w.cluster.len() as u16 {
                        let a = inc.trace.series(ch, NodeId(node));
                        let b = reference.trace.series(ch, NodeId(node));
                        prop_assert!(
                            series_close(&a, &b),
                            "trace {ch:?} node {node}: {a:?} vs {b:?}"
                        );
                    }
                }
            }
            (inc, reference) => prop_assert!(
                matches!(
                    (&inc, &reference),
                    (Err(SimError::Deadlock { .. }), Err(SimError::Deadlock { .. }))
                        | (Err(SimError::Stalled { .. }), Err(SimError::Stalled { .. }))
                        | (Err(SimError::UnknownNode { .. }), Err(SimError::UnknownNode { .. }))
                ),
                "engines disagree: {inc:?} vs {reference:?}"
            ),
        }
    }

    /// Repeated runs of the incremental engine are bit-identical —
    /// timings, makespan, and every trace bucket.
    #[test]
    fn incremental_is_bitwise_deterministic(w in arb_world()) {
        let sim = Simulation::new(w.cluster.clone());
        let (Ok(a), Ok(b)) = (sim.run(&w.graph), sim.run(&w.graph)) else {
            return Ok(()); // error cases covered by the equivalence property
        };
        prop_assert_eq!(a.makespan_us.to_bits(), b.makespan_us.to_bits());
        for (x, y) in a.results.iter().zip(&b.results) {
            prop_assert_eq!(x.start_us.to_bits(), y.start_us.to_bits());
            prop_assert_eq!(x.end_us.to_bits(), y.end_us.to_bits());
        }
        for ch in [Channel::Cpu, Channel::Disk, Channel::NetIn, Channel::NetOut] {
            for node in 0..w.cluster.len() as u16 {
                let sa = a.trace.series(ch, NodeId(node));
                let sb = b.trace.series(ch, NodeId(node));
                prop_assert_eq!(sa.len(), sb.len());
                for (&(ta, va), &(tb, vb)) in sa.iter().zip(&sb) {
                    prop_assert_eq!(ta, tb);
                    prop_assert_eq!(va.to_bits(), vb.to_bits());
                }
            }
        }
    }

    /// With an active fault plan, the incremental engine still reproduces
    /// the reference engine: same timings, same makespan, same traces, same
    /// error kind when the plan makes the job impossible. Fault-event lists
    /// are *not*
    /// compared — engines may interleave kill bookkeeping differently
    /// around near-coincident completions — but timings must agree.
    #[test]
    fn engines_agree_under_faults(w in arb_world(), raw in arb_raw_plan()) {
        let plan = build_plan(raw, w.cluster.len() as u16);
        let sim = Simulation::new(w.cluster.clone());
        let inc = sim.run_with_faults(&w.graph, &plan);
        let reference = sim.run_reference_with_faults(&w.graph, &plan);
        match (inc, reference) {
            (Ok(inc), Ok(reference)) => {
                prop_assert!(
                    close(inc.makespan_us, reference.makespan_us),
                    "makespan {} vs {}", inc.makespan_us, reference.makespan_us
                );
                for (id, (x, y)) in inc.results.iter().zip(&reference.results).enumerate() {
                    // NaN start/end (never-started work after an engine
                    // error cannot occur on Ok; parked-forever cannot
                    // occur either) — compare everything.
                    prop_assert!(
                        close(x.start_us, y.start_us),
                        "act {id} start {} vs {}", x.start_us, y.start_us
                    );
                    prop_assert!(
                        close(x.end_us, y.end_us),
                        "act {id} end {} vs {}", x.end_us, y.end_us
                    );
                }
                for ch in [Channel::Cpu, Channel::Disk, Channel::NetIn, Channel::NetOut] {
                    for node in 0..w.cluster.len() as u16 {
                        let a = inc.trace.series(ch, NodeId(node));
                        let b = reference.trace.series(ch, NodeId(node));
                        prop_assert!(
                            series_close(&a, &b),
                            "trace {ch:?} node {node}: {a:?} vs {b:?}"
                        );
                    }
                }
            }
            (
                Err(SimError::NodeLost { at_us: a, node: na, .. }),
                Err(SimError::NodeLost { at_us: b, node: nb, .. }),
            ) => {
                // Rounded simulated instants may differ by 1 µs across
                // engines; the lost node must match.
                prop_assert!(a.abs_diff(b) <= 1, "NodeLost at {a} vs {b}");
                prop_assert_eq!(na, nb);
            }
            (inc, reference) => prop_assert!(
                matches!(
                    (&inc, &reference),
                    (Err(SimError::Deadlock { .. }), Err(SimError::Deadlock { .. }))
                        | (Err(SimError::Stalled { .. }), Err(SimError::Stalled { .. }))
                ),
                "engines disagree under faults: {inc:?} vs {reference:?}"
            ),
        }
    }

    /// Fault-injected runs of the incremental engine are bit-identical
    /// across repeats: timings, makespan, and the fault-event list.
    #[test]
    fn fault_injection_is_bitwise_deterministic(w in arb_world(), raw in arb_raw_plan()) {
        let plan = build_plan(raw, w.cluster.len() as u16);
        let sim = Simulation::new(w.cluster.clone());
        let first = sim.run_with_faults(&w.graph, &plan);
        let second = sim.run_with_faults(&w.graph, &plan);
        match (first, second) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.makespan_us.to_bits(), b.makespan_us.to_bits());
                for (x, y) in a.results.iter().zip(&b.results) {
                    prop_assert_eq!(x.start_us.to_bits(), y.start_us.to_bits());
                    prop_assert_eq!(x.end_us.to_bits(), y.end_us.to_bits());
                }
                prop_assert_eq!(&a.faults, &b.faults);
                for ch in [Channel::Cpu, Channel::Disk, Channel::NetIn, Channel::NetOut] {
                    for node in 0..w.cluster.len() as u16 {
                        let sa = a.trace.series(ch, NodeId(node));
                        let sb = b.trace.series(ch, NodeId(node));
                        prop_assert_eq!(sa.len(), sb.len());
                        for (&(ta, va), &(tb, vb)) in sa.iter().zip(&sb) {
                            prop_assert_eq!(ta, tb);
                            prop_assert_eq!(va.to_bits(), vb.to_bits());
                        }
                    }
                }
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "determinism violated: {a:?} vs {b:?}"),
        }
    }

    /// `span_of_tag` through the tag index equals a brute-force scan.
    #[test]
    fn span_of_tag_matches_linear_scan(w in arb_world(), sel in 0u8..7) {
        let sim = Simulation::new(w.cluster.clone());
        let Ok(res) = sim.run(&w.graph) else { return Ok(()) };
        let prefix = format!("k{sel}");
        let indexed = res.span_of_tag(&w.graph, &prefix);
        let mut scanned: Option<(f64, f64)> = None;
        for a in w.graph.iter().filter(|a| a.tag().starts_with(&prefix)) {
            let r = res.of(a.id);
            scanned = Some(match scanned {
                None => (r.start_us, r.end_us),
                Some((lo, hi)) => (lo.min(r.start_us), hi.max(r.end_us)),
            });
        }
        prop_assert_eq!(indexed, scanned);
    }
}

#[test]
fn stall_reported_by_both_engines() {
    // A zero-bandwidth disk can never serve its reader: both engines must
    // report a stall (the incremental engine names the lowest live id).
    let cluster = ClusterSpec {
        nodes: vec![NodeSpec {
            name: "n0".into(),
            cores: 4,
            disk_bps: 0.0,
            nic_bps: 1e8,
            mem_bytes: 1 << 30,
        }],
        shared_fs_bps: 1e9,
    };
    let mut g = ActivityGraph::new();
    let r = g.add(
        ActivityKind::DiskRead {
            node: NodeId(0),
            bytes: 100.0,
        },
        &[],
        "r",
    );
    let sim = Simulation::new(cluster);
    match sim.run(&g) {
        Err(SimError::Stalled { activity }) => assert_eq!(activity, r),
        other => panic!("expected Stalled, got {other:?}"),
    }
    assert!(matches!(
        sim.run_reference(&g),
        Err(SimError::Stalled { .. })
    ));
}

#[test]
fn wide_contention_engines_agree() {
    // The scheduler bench's shape, shrunk: many readers on one saturated
    // disk plus independent computes elsewhere.
    let cluster = ClusterSpec::das5(4);
    let mut g = ActivityGraph::new();
    for i in 0..48 {
        g.add(
            ActivityKind::DiskRead {
                node: NodeId(0),
                bytes: 1e6 * (1.0 + 0.37 * i as f64),
            },
            &[],
            format!("read/{i}"),
        );
    }
    for node in 1..4u16 {
        for k in 0..8 {
            g.add(
                ActivityKind::Compute {
                    node: NodeId(node),
                    work_core_us: 4e6 + 1e5 * k as f64,
                    parallelism: 2,
                },
                &[],
                format!("work/{node}/{k}"),
            );
        }
    }
    let sim = Simulation::new(cluster);
    let a = sim.run(&g).unwrap();
    let b = sim.run_reference(&g).unwrap();
    assert!(
        (a.makespan_us - b.makespan_us).abs() <= REL * b.makespan_us,
        "{} vs {}",
        a.makespan_us,
        b.makespan_us
    );
    for (x, y) in a.results.iter().zip(&b.results) {
        assert!(close(x.end_us, y.end_us), "{} vs {}", x.end_us, y.end_us);
    }
}
