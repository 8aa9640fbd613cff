//! Differential property tests: three execution models, one semantics.
//!
//! The Pregel, GAS and SpMV engines implement the same algorithms over
//! completely different execution structures (message passing over an
//! edge-cut, gather/apply/scatter over a vertex-cut, semiring products over
//! row blocks). For every random graph they must all agree with the
//! sequential references — and with each other, bit for bit where the
//! algorithm is deterministic.

use proptest::prelude::*;

use gpsim_graph::gen::with_uniform_weights;
use gpsim_graph::{algos, BlockPartition, EdgeCutPartition, Graph, VertexCutPartition};
use gpsim_platforms::gas::{self, IterationMode};
use gpsim_platforms::{pregel, spmv};

fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        2u32..60,
        prop::collection::vec((0u32..60, 0u32..60), 1..250),
    )
        .prop_map(|(n, edges)| {
            let edges: Vec<(u32, u32)> = edges.into_iter().map(|(a, b)| (a % n, b % n)).collect();
            Graph::from_edges(n, &edges)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// BFS: all three engines match the reference on arbitrary graphs.
    #[test]
    fn bfs_differential(g in arb_graph(), src_pick in any::<u32>(), k in 1u16..6) {
        let src = src_pick % g.num_vertices();
        let reference = algos::bfs(&g, src);

        let ec = EdgeCutPartition::hash(g.num_vertices(), k);
        let p = pregel::run(&g, &ec, &pregel::BfsProgram { source: src }, 10_000);
        prop_assert_eq!(&p.values, &reference, "pregel");

        let vc = VertexCutPartition::greedy(&g, k);
        let gas_out = gas::run(
            &g,
            &vc,
            &mut gas::BfsGas { source: src },
            IterationMode::Converge { max: 10_000 },
        );
        prop_assert_eq!(&gas_out.values, &reference, "gas");

        let bp = BlockPartition::by_edges(&g, k);
        let s = spmv::run(
            &g,
            &bp,
            &mut spmv::BfsSpmv { source: src },
            IterationMode::Converge { max: 10_000 },
        );
        prop_assert_eq!(&s.values, &reference, "spmv");
    }

    /// WCC: all three engines match the reference.
    #[test]
    fn wcc_differential(g in arb_graph(), k in 1u16..6) {
        let reference = algos::wcc(&g);

        let ec = EdgeCutPartition::hash(g.num_vertices(), k);
        let p = pregel::run(&g, &ec, &pregel::WccProgram, 10_000);
        prop_assert_eq!(&p.values, &reference, "pregel");

        let vc = VertexCutPartition::greedy(&g, k);
        let gas_out =
            gas::run(&g, &vc, &mut gas::WccGas, IterationMode::Converge { max: 10_000 });
        prop_assert_eq!(&gas_out.values, &reference, "gas");

        let bp = BlockPartition::by_edges(&g, k);
        let s = spmv::run(&g, &bp, &mut spmv::WccSpmv, IterationMode::Converge { max: 10_000 });
        prop_assert_eq!(&s.values, &reference, "spmv");
    }

    /// PageRank: bit-identical across the synchronous engines.
    #[test]
    fn pagerank_differential(g in arb_graph(), iters in 1u32..8, k in 1u16..6) {
        let reference = algos::pagerank(&g, iters, 0.85);
        let close = |a: &[f64]| a.iter().zip(&reference).all(|(x, y)| (x - y).abs() < 1e-12);

        let ec = EdgeCutPartition::hash(g.num_vertices(), k);
        let p = pregel::run(
            &g,
            &ec,
            &pregel::PageRankProgram { iterations: iters, damping: 0.85 },
            10_000,
        );
        prop_assert!(close(&p.values), "pregel");

        let vc = VertexCutPartition::greedy(&g, k);
        let gas_out = gas::run_pagerank_gas(&g, &vc, iters, 0.85);
        prop_assert!(close(&gas_out.values), "gas");

        let bp = BlockPartition::by_edges(&g, k);
        let mut prog = spmv::PageRankSpmv::new(&g, 0.85);
        let s = spmv::run(&g, &bp, &mut prog, IterationMode::Fixed(iters));
        prop_assert!(close(&s.values), "spmv");
    }

    /// CDLP: fixed-iteration engines agree exactly.
    #[test]
    fn cdlp_differential(g in arb_graph(), iters in 1u32..5, k in 1u16..6) {
        let reference = algos::cdlp(&g, iters);

        let ec = EdgeCutPartition::hash(g.num_vertices(), k);
        let p = pregel::run(&g, &ec, &pregel::CdlpProgram { iterations: iters }, 10_000);
        prop_assert_eq!(&p.values, &reference, "pregel");

        let vc = VertexCutPartition::greedy(&g, k);
        let gas_out = gas::run(&g, &vc, &mut gas::CdlpGas, IterationMode::Fixed(iters));
        prop_assert_eq!(&gas_out.values, &reference, "gas");

        let bp = BlockPartition::by_edges(&g, k);
        let s = spmv::run(&g, &bp, &mut spmv::CdlpSpmv, IterationMode::Fixed(iters));
        prop_assert_eq!(&s.values, &reference, "spmv");
    }

    /// SSSP: all three engines match the reference on weighted graphs,
    /// unreachable vertices included.
    #[test]
    fn sssp_differential(
        g in arb_graph(),
        src_pick in any::<u32>(),
        seed in any::<u64>(),
        k in 1u16..6,
    ) {
        let g = with_uniform_weights(&g, 4.0, seed);
        let src = src_pick % g.num_vertices();
        let reference = algos::sssp(&g, src);
        let close = |a: &[f64]| {
            a.iter().zip(&reference).all(|(x, y)| {
                if y.is_infinite() { x.is_infinite() } else { (x - y).abs() < 1e-9 }
            })
        };

        let ec = EdgeCutPartition::hash(g.num_vertices(), k);
        let p = pregel::run(&g, &ec, &pregel::SsspProgram { source: src }, 10_000);
        prop_assert!(close(&p.values), "pregel");

        let vc = VertexCutPartition::greedy(&g, k);
        let gas_out = gas::run(
            &g,
            &vc,
            &mut gas::SsspGas { source: src },
            IterationMode::Converge { max: 10_000 },
        );
        prop_assert!(close(&gas_out.values), "gas");

        let bp = BlockPartition::by_edges(&g, k);
        let s = spmv::run(
            &g,
            &bp,
            &mut spmv::SsspSpmv { source: src },
            IterationMode::Converge { max: 10_000 },
        );
        prop_assert!(close(&s.values), "spmv");
    }

    /// Engine counters are internally consistent for arbitrary inputs.
    #[test]
    fn engine_counters_consistent(g in arb_graph(), src_pick in any::<u32>(), k in 1u16..6) {
        let src = src_pick % g.num_vertices();
        let ec = EdgeCutPartition::hash(g.num_vertices(), k);
        let p = pregel::run(&g, &ec, &pregel::BfsProgram { source: src }, 10_000);
        for ss in &p.supersteps {
            let sent: u64 = ss.per_worker.iter().map(|w| w.messages_sent).sum();
            let matrix: u64 = ss.remote_messages.iter().flatten().sum();
            prop_assert_eq!(sent, matrix);
            prop_assert!(ss.total_active() <= g.num_vertices() as u64);
        }

        let bp = BlockPartition::by_edges(&g, k);
        let s = spmv::run(
            &g,
            &bp,
            &mut spmv::BfsSpmv { source: src },
            IterationMode::Converge { max: 10_000 },
        );
        for it in &s.iterations {
            let sent: u64 = it.per_machine.iter().map(|m| m.messages_sent).sum();
            let recv: u64 = it.per_machine.iter().map(|m| m.messages_received).sum();
            prop_assert_eq!(sent, recv);
        }
    }
}
