//! Differential engine properties: four platform paradigms, one
//! instrumentation contract.
//!
//! The Giraph-like, PowerGraph-like, GRAPE-like and GraphX-like engines
//! build completely different execution layouts (checkpointed supersteps,
//! gather/apply/scatter, fragment rounds, lineage stages), but every run
//! must produce the same kind of artifact: a structurally valid Granula
//! operation tree. These properties pin that contract down for arbitrary
//! graphs, algorithms, cluster widths and fault schedules:
//!
//! * every emitted op tree is dependency-closed (each `parent=` reference
//!   resolves to an emitted op), single-rooted, and has monotone
//!   timestamps with children nested inside their parents;
//! * an empty `FaultPlan` gives the same run, bit for bit, across
//!   repeated invocations, and that run simulates the DAG
//!   `Engine::healthy_dag` returns;
//! * Giraph, GRAPE and GraphX crash recovery neither loses nor duplicates
//!   a superstep/round/stage: the committed ops plus the failed attempt
//!   cover each unit exactly once, and the replayed/recomputed lineage
//!   covers exactly the units since the last checkpoint (Giraph) or the
//!   whole committed prefix (GRAPE, GraphX) plus the interrupted unit.
//!   PowerGraph's fail-stop restart is held to the op-tree contract.
//!
//! Together with `prop.rs` (which checks the algorithm *values*), this
//! file is the differential layer ISSUE 10 adds over the new engines.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use gpsim_cluster::{ClusterSpec, FaultPlan, Simulation};
use gpsim_graph::Graph;
use gpsim_platforms::{
    Algorithm, CostModel, Engine, GiraphPlatform, GrapePlatform, GraphXPlatform, JobConfig,
    PlatformRun, PowerGraphPlatform,
};
use granula_monitor::{EventPayload, LogEvent};

// ------------------------------------------------------------- strategies

fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        8u32..48,
        prop::collection::vec((0u32..48, 0u32..48), 4..160),
    )
        .prop_map(|(n, edges)| {
            let edges: Vec<(u32, u32)> = edges.into_iter().map(|(a, b)| (a % n, b % n)).collect();
            Graph::from_edges(n, &edges)
        })
}

fn arb_algorithm() -> impl Strategy<Value = Algorithm> {
    prop_oneof![
        any::<u32>().prop_map(|s| Algorithm::Bfs { source: s % 8 }),
        (1u32..4).prop_map(|iterations| Algorithm::PageRank { iterations }),
        Just(Algorithm::Wcc),
    ]
}

/// Giraph's checkpoint cadence: off (the default) or every 1–3 supersteps.
fn arb_checkpoint_interval() -> impl Strategy<Value = Option<u32>> {
    prop_oneof![Just(None), (1u32..4).prop_map(Some)]
}

fn giraph(checkpoint_interval: Option<u32>) -> Engine {
    Engine::Giraph(GiraphPlatform {
        checkpoint_interval,
    })
}

/// The four engines under test, labeled: Giraph with
/// `checkpoint_interval`, then PowerGraph, GRAPE and GraphX.
fn engines(checkpoint_interval: Option<u32>) -> [(&'static str, Engine); 4] {
    [
        ("giraph", giraph(checkpoint_interval)),
        (
            "powergraph",
            Engine::PowerGraph(PowerGraphPlatform::default()),
        ),
        ("grape", Engine::Grape(GrapePlatform::default())),
        ("graphx", Engine::GraphX(GraphXPlatform::default())),
    ]
}

/// Runs `engine`'s job on a DAS5-like cluster of `cfg.nodes` nodes.
fn run(engine: &Engine, g: &Graph, cfg: &JobConfig, plan: &FaultPlan) -> PlatformRun {
    engine
        .run(g, cfg, &ClusterSpec::das5(cfg.nodes), plan)
        .unwrap()
}

/// The superstep Giraph replays from after a crash at `failed`: the one
/// after the last checkpoint before it, or 0 without checkpoints.
fn giraph_replay_from(checkpoint_interval: Option<u32>, failed: u32) -> u32 {
    checkpoint_interval
        .and_then(|k| (0..failed).rev().find(|s| (s + 1).is_multiple_of(k)))
        .map_or(0, |s| s + 1)
}

fn cfg(algorithm: Algorithm, nodes: u16) -> JobConfig {
    JobConfig::new(
        "engines-prop",
        "prop",
        algorithm,
        nodes,
        CostModel::giraph_like(),
    )
}

// ----------------------------------------------------------- tree checks

type OpKey = (String, String, String, String);

fn key(actor: &granula_model::Actor, mission: &granula_model::Mission) -> OpKey {
    (
        actor.kind.clone(),
        actor.id.clone(),
        mission.kind.clone(),
        mission.id.clone(),
    )
}

struct OpSpan {
    start_us: u64,
    end_us: Option<u64>,
    parent: Option<OpKey>,
}

/// Indexes the event stream and enforces the structural contract: every
/// op starts exactly once and ends exactly once after it started, every
/// parent reference resolves to an emitted op whose span contains the
/// child's, info events attach to started ops, and the parent links form
/// a single tree rooted at the job op.
fn check_op_tree(run: &PlatformRun) -> Result<(), TestCaseError> {
    let mut ops: HashMap<OpKey, OpSpan> = HashMap::new();
    for ev in &run.events {
        match &ev.payload {
            EventPayload::OpStart {
                actor,
                mission,
                parent,
            } => {
                let k = key(actor, mission);
                prop_assert!(!ops.contains_key(&k), "duplicate START for {k:?}");
                ops.insert(
                    k,
                    OpSpan {
                        start_us: ev.time_us,
                        end_us: None,
                        parent: parent.as_ref().map(|(a, m)| key(a, m)),
                    },
                );
            }
            EventPayload::OpEnd { actor, mission } => {
                let k = key(actor, mission);
                let op = ops.get_mut(&k);
                prop_assert!(op.is_some(), "END before START for {k:?}");
                let op = op.unwrap();
                prop_assert!(op.end_us.is_none(), "duplicate END for {k:?}");
                prop_assert!(
                    ev.time_us >= op.start_us,
                    "non-monotone span for {k:?}: start {} > end {}",
                    op.start_us,
                    ev.time_us
                );
                op.end_us = Some(ev.time_us);
            }
            EventPayload::OpInfo { actor, mission, .. } => {
                let k = key(actor, mission);
                prop_assert!(ops.contains_key(&k), "INFO for unknown op {k:?}");
            }
        }
    }
    prop_assert!(!ops.is_empty(), "run emitted no operations");

    let mut roots = 0usize;
    for (k, op) in &ops {
        prop_assert!(op.end_us.is_some(), "op never ended: {k:?}");
        match &op.parent {
            None => roots += 1,
            Some(pk) => {
                let parent = ops.get(pk);
                prop_assert!(
                    parent.is_some(),
                    "dangling parent reference {pk:?} from {k:?}"
                );
                let parent = parent.unwrap();
                prop_assert!(
                    parent.start_us <= op.start_us && op.end_us.unwrap() <= parent.end_us.unwrap(),
                    "child {k:?} [{}, {}] escapes parent {pk:?} [{}, {}]",
                    op.start_us,
                    op.end_us.unwrap(),
                    parent.start_us,
                    parent.end_us.unwrap()
                );
            }
        }
    }
    prop_assert_eq!(roots, 1, "op tree must have exactly one root");

    // Every parent chain terminates at the root without cycles.
    for (k, op) in &ops {
        let mut cursor = op.parent.clone();
        let mut hops = 0usize;
        while let Some(pk) = cursor {
            hops += 1;
            prop_assert!(hops <= ops.len(), "parent cycle through {k:?}");
            cursor = ops[&pk].parent.clone();
        }
    }
    Ok(())
}

/// Mission ids of the given kind, in emission order.
fn ids_of_kind(events: &[LogEvent], kind: &str) -> Vec<String> {
    events
        .iter()
        .filter_map(|ev| match &ev.payload {
            EventPayload::OpStart { mission, .. } if mission.kind == kind => {
                Some(mission.id.clone())
            }
            _ => None,
        })
        .collect()
}

fn unique<T: std::hash::Hash + Eq + Clone>(items: &[T]) -> bool {
    items.iter().cloned().collect::<HashSet<_>>().len() == items.len()
}

/// Checks the no-loss / no-duplication ledger for a crash-recovering run:
/// committed `unit_kind` ops plus the single `failed_kind` op must cover
/// every superstep id exactly once, and the `replay_kind` lineage must be
/// exactly the units from `replay_from(failed)` up to and including the
/// interrupted unit.
fn check_recovery_ledger(
    faulted: &PlatformRun,
    healthy_iterations: u32,
    unit_kind: &str,
    failed_kind: &str,
    replay_kind: &str,
    replay_from: impl Fn(u32) -> u32,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        faulted.iterations,
        healthy_iterations,
        "recovery changed the superstep count"
    );
    let committed = ids_of_kind(&faulted.events, unit_kind);
    let failed = ids_of_kind(&faulted.events, failed_kind);
    let replayed = ids_of_kind(&faulted.events, replay_kind);
    prop_assert!(unique(&committed), "duplicated {unit_kind}: {committed:?}");
    prop_assert!(unique(&replayed), "duplicated {replay_kind}: {replayed:?}");
    prop_assert_eq!(failed.len(), 1, "exactly one failed attempt");
    let failed_id: u32 = failed[0].parse().expect("numeric superstep id");

    // Committed units ⊎ the failed attempt = every superstep, exactly once.
    let mut all: Vec<u32> = committed
        .iter()
        .map(|s| s.parse().expect("numeric superstep id"))
        .collect();
    prop_assert!(
        !all.contains(&failed_id),
        "superstep {failed_id} both committed and failed"
    );
    all.push(failed_id);
    all.sort_unstable();
    let expect: Vec<u32> = (0..healthy_iterations).collect();
    prop_assert_eq!(all, expect, "supersteps lost or duplicated");

    // The recovery lineage re-executes the units since its restart point
    // and the interrupted unit — nothing after the crash point.
    let mut replayed_ids: Vec<u32> = replayed
        .iter()
        .map(|s| s.parse().expect("numeric superstep id"))
        .collect();
    replayed_ids.sort_unstable();
    let expect_replay: Vec<u32> = (replay_from(failed_id)..=failed_id).collect();
    prop_assert_eq!(replayed_ids, expect_replay, "recovery lineage mismatch");
    Ok(())
}

// ------------------------------------------------------------ properties

proptest! {
    #![proptest_config(ProptestConfig::with_cases(280))]

    /// All four engines emit structurally valid op trees for arbitrary
    /// inputs, healthy or degraded.
    #[test]
    fn op_trees_are_structurally_valid(
        g in arb_graph(),
        algorithm in arb_algorithm(),
        k in 2u16..6,
        seed in any::<u64>(),
        interval in arb_checkpoint_interval(),
    ) {
        let cfg = cfg(algorithm, k);
        let engines = engines(interval);
        let runs = engines
            .each_ref()
            .map(|(_, engine)| run(engine, &g, &cfg, &FaultPlan::default()));
        for run in &runs {
            check_op_tree(run)?;
        }
        // The same holds under an arbitrary fault schedule.
        let horizon = runs[2].makespan_us.max(1) as f64;
        let plan = FaultPlan::seeded(seed, k, horizon);
        for (_, engine) in &engines {
            check_op_tree(&run(engine, &g, &cfg, &plan))?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(260))]

    /// `Engine::run` with an empty plan is bit-identical across repeated
    /// invocations and fresh engine values, and simulates the DAG
    /// `Engine::healthy_dag` returns.
    #[test]
    fn empty_fault_plan_is_bit_identical(
        g in arb_graph(),
        algorithm in arb_algorithm(),
        k in 2u16..6,
        interval in arb_checkpoint_interval(),
    ) {
        let cfg = cfg(algorithm, k);
        for (label, engine) in engines(interval) {
            let a = run(&engine, &g, &cfg, &FaultPlan::default());
            let b = run(&engine.clone(), &g, &cfg, &FaultPlan::new());
            let c = run(&engine, &g, &cfg, &FaultPlan::default());
            let cluster = ClusterSpec::das5(k);
            let healthy = Simulation::new(cluster.clone())
                .run(&engine.healthy_dag(&g, &cfg, &cluster))
                .unwrap();
            prop_assert_eq!(
                healthy.makespan_us.round() as u64,
                a.makespan_us,
                "{}: healthy_dag diverged from run",
                label
            );
            prop_assert_eq!(&a.events, &b.events, "{}: empty plan diverged", label);
            prop_assert_eq!(&a.events, &c.events, "{}: reinvocation diverged", label);
            prop_assert_eq!(a.makespan_us, b.makespan_us, "{}", label);
            prop_assert_eq!(a.makespan_us, c.makespan_us, "{}", label);
            prop_assert_eq!(&a.env_samples, &b.env_samples, "{}", label);
            prop_assert!(a.output.matches(&b.output), "{}: output diverged", label);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(260))]

    /// GRAPE's fragment-local replay never loses or duplicates a round.
    #[test]
    fn grape_recovery_preserves_every_round(
        g in arb_graph(),
        algorithm in arb_algorithm(),
        k in 2u16..6,
        seed in any::<u64>(),
    ) {
        let cfg = cfg(algorithm, k);
        let p = Engine::Grape(GrapePlatform::default());
        let healthy = run(&p, &g, &cfg, &FaultPlan::default());
        let plan = FaultPlan::seeded(seed, k, healthy.makespan_us.max(1) as f64);
        let faulted = run(&p, &g, &cfg, &plan);
        prop_assert!(faulted.output.matches(&healthy.output), "recovery changed the result");
        check_recovery_ledger(
            &faulted,
            healthy.iterations,
            "Round",
            "FailedRound",
            "Replay",
            |_| 0,
        )?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(260))]

    /// GraphX's lineage recomputation never loses or duplicates a stage
    /// iteration.
    #[test]
    fn graphx_recovery_preserves_every_stage(
        g in arb_graph(),
        algorithm in arb_algorithm(),
        k in 2u16..6,
        seed in any::<u64>(),
    ) {
        let cfg = cfg(algorithm, k);
        let p = Engine::GraphX(GraphXPlatform::default());
        let healthy = run(&p, &g, &cfg, &FaultPlan::default());
        let plan = FaultPlan::seeded(seed, k, healthy.makespan_us.max(1) as f64);
        let faulted = run(&p, &g, &cfg, &plan);
        prop_assert!(faulted.output.matches(&healthy.output), "recovery changed the result");
        check_recovery_ledger(
            &faulted,
            healthy.iterations,
            "Iteration",
            "FailedStage",
            "Recompute",
            |_| 0,
        )?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(260))]

    /// Giraph's checkpoint replay never loses or duplicates a superstep,
    /// and replays exactly the supersteps since the last checkpoint.
    #[test]
    fn giraph_recovery_preserves_every_superstep(
        g in arb_graph(),
        algorithm in arb_algorithm(),
        k in 2u16..6,
        seed in any::<u64>(),
        interval in arb_checkpoint_interval(),
    ) {
        let cfg = cfg(algorithm, k);
        let p = giraph(interval);
        let healthy = run(&p, &g, &cfg, &FaultPlan::default());
        let plan = FaultPlan::seeded(seed, k, healthy.makespan_us.max(1) as f64);
        let faulted = run(&p, &g, &cfg, &plan);
        prop_assert!(faulted.output.matches(&healthy.output), "recovery changed the result");
        check_recovery_ledger(
            &faulted,
            healthy.iterations,
            "Superstep",
            "FailedSuperstep",
            "Replay",
            |failed| giraph_replay_from(interval, failed),
        )?;
    }
}
