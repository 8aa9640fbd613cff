//! Pins every platform driver's fault path bit for bit.
//!
//! Each driver runs the dg1000 BFS job (20k-vertex down-sample, 8 nodes)
//! through `Engine::run` under five plans: healthy, one crash of
//! node 2 at 40 % of the healthy makespan, and three seeded plans (one
//! crash plus two slowdown windows each). The digest hashes the run's
//! events, environment samples, makespan and iteration count, so any
//! change to a job layout, a recovery layout, the crash location or the
//! executed fault plan fails here, even when the rounded makespans and
//! the golden renders stay the same.
//!
//! To regenerate after a change that is *meant* to move a run, execute
//!
//! ```text
//! cargo test --release --test fault_digest -- --nocapture
//! ```
//!
//! and copy the `got` digests from the failure message.

use gpsim_cluster::{ClusterSpec, FaultPlan, NodeId};
use gpsim_platforms::{Engine, GiraphPlatform, PlatformRun};
use granula::calibration;
use granula::experiment::Platform;

/// FNV-1a-64 over the UTF-8 bytes of the run's debug rendering.
fn run_digest(run: &PlatformRun) -> u64 {
    let text = format!(
        "{:?}|{:?}|{}|{}",
        run.events, run.env_samples, run.makespan_us, run.iterations
    );
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digests of `engine`'s healthy, `crash40`, `seed1`, `seed2` and
/// `seed3` runs, plus the `crash40` makespan.
fn digests(engine: &Engine) -> ([u64; 5], u64) {
    let (graph, scale) = calibration::dg_graph_small(20_000, calibration::DG_SEED);
    let mut cfg = Platform::of(engine).dg1000_job();
    cfg.scale_factor = scale;
    let cluster = ClusterSpec::das5(cfg.nodes);
    let run = |plan: &FaultPlan| engine.run(&graph, &cfg, &cluster, plan).unwrap();
    let healthy = run(&FaultPlan::default());
    let horizon = healthy.makespan_us as f64;
    let crash40 = FaultPlan::new().crash(NodeId(2), 0.4 * horizon);
    let crashed = run(&crash40);
    let mut out = [run_digest(&healthy), run_digest(&crashed), 0, 0, 0];
    for (seed, slot) in (1..).zip(&mut out[2..]) {
        let plan = FaultPlan::seeded(seed, cfg.nodes, horizon);
        *slot = run_digest(&run(&plan));
    }
    (out, crashed.makespan_us)
}

/// Checks the digests and the `crash40` makespan, which must match the
/// committed `results/ablation_faults.txt`.
fn assert_digests(name: &str, (got, crash40_us): ([u64; 5], u64), pinned: [u64; 5], makespan: u64) {
    let hex = |ds: [u64; 5]| ds.map(|d| format!("{d:#018x}")).join(", ");
    assert_eq!(
        got,
        pinned,
        "{name}: fault-path digests moved\n  got    [{}]\n  pinned [{}]",
        hex(got),
        hex(pinned)
    );
    assert_eq!(crash40_us, makespan, "{name}: crash40 makespan moved");
}

#[test]
fn giraph_fault_runs_are_bit_identical() {
    assert_digests(
        "giraph",
        digests(&Platform::Giraph.engine()),
        [
            0x0c2a_819a_2e77_8fdf,
            0xa4f1_d8c8_4aad_8a69,
            0xe0f8_f463_5cf8_9bbc,
            0x6ab9_3031_90d7_f56a,
            0xd648_f383_235f_e162,
        ],
        104_394_944,
    );
}

#[test]
fn giraph_checkpointed_fault_runs_are_bit_identical() {
    let engine = Engine::Giraph(GiraphPlatform {
        checkpoint_interval: Some(2),
        ..GiraphPlatform::default()
    });
    assert_digests(
        "giraph checkpoint_interval=2",
        digests(&engine),
        [
            0xe283_218f_ac79_646f,
            0xb724_1edd_583f_dd85,
            0xa39d_ea5a_b806_db49,
            0x2559_3e55_83f1_6083,
            0x8975_be28_7353_e969,
        ],
        112_043_312,
    );
}

#[test]
fn powergraph_fault_runs_are_bit_identical() {
    assert_digests(
        "powergraph",
        digests(&Platform::PowerGraph.engine()),
        [
            0x2549_66b8_e622_0550,
            0xee72_e20e_d7ff_5ae9,
            0xd547_9ce5_8cc1_32d8,
            0x5567_3cbf_3537_253e,
            0x75ad_a0c9_c5a1_1566,
        ],
        564_247_656,
    );
}

#[test]
fn grape_fault_runs_are_bit_identical() {
    assert_digests(
        "grape",
        digests(&Platform::Grape.engine()),
        [
            0x4142_5429_9432_5590,
            0x5fb6_95f4_9788_3ace,
            0x3fac_c0ba_ebd9_a6d8,
            0x989b_415e_2ff0_1b61,
            0x34c2_3fe0_ba6c_1b7b,
        ],
        41_696_580,
    );
}

#[test]
fn graphx_fault_runs_are_bit_identical() {
    assert_digests(
        "graphx",
        digests(&Platform::GraphX.engine()),
        [
            0x8ea5_629f_337e_9157,
            0xdf49_3333_ce66_426b,
            0xf193_ac62_d244_81f9,
            0x5e27_54d5_5a70_bb9c,
            0x48fd_16a0_a93d_e76e,
        ],
        85_680_441,
    );
}

#[test]
fn graphmat_healthy_run_is_bit_identical() {
    let (graph, scale) = calibration::dg_graph_small(20_000, calibration::DG_SEED);
    let mut cfg = Platform::GraphMat.dg1000_job();
    cfg.scale_factor = scale;
    let cluster = ClusterSpec::das5(cfg.nodes);
    let run = Platform::GraphMat
        .engine()
        .run(&graph, &cfg, &cluster, &FaultPlan::default())
        .unwrap();
    assert_eq!(
        run_digest(&run),
        0x93f4_bd63_fada_c179,
        "graphmat: healthy digest moved, got {:#018x}",
        run_digest(&run)
    );
}
