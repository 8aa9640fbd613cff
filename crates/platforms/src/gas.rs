//! A Gather-Apply-Scatter (GAS) engine over a vertex-cut partitioning —
//! the PowerGraph execution model.
//!
//! Each iteration processes the active vertices in three minor-steps:
//! **gather** (each machine folds the program's gather function over its
//! local share of the vertex's edges), **apply** (the master replica merges
//! the partial accumulators and updates the value), **scatter** (machines
//! holding the vertex's scatter-direction edges may activate neighbours).
//! Values are snapshot-synchronous: gathers read the previous iteration's
//! values, which makes the fixed-iteration algorithms (PageRank, CDLP)
//! bit-identical to the sequential references.
//!
//! Besides the result, the engine records per-iteration, per-machine
//! counters (gather/scatter edges, applies, replica-sync messages) — the
//! inputs of the PowerGraph cost model. Its state is flat: the partition's
//! per-replica in- and out-edge counts, parallel to its replica CSR, two
//! value buffers swapped each iteration, the ascending list of active
//! vertices, and one `k × k` sync array, copied out into the iteration's
//! [`IterationStats`]. Min-combining programs in converge mode also keep
//! two accumulator buffers, for PowerGraph's delta caching (see
//! [`GasProgram::delta_gather`]). The counters still count every gather
//! edge, so the cost model sees the same work either way.

use std::collections::BTreeMap;

use gpsim_graph::{Graph, VertexCutPartition, VertexId};

/// Which edges a phase touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeDir {
    /// In-edges of the vertex.
    In,
    /// Out-edges of the vertex.
    Out,
    /// Both directions.
    Both,
}

impl EdgeDir {
    /// `v`'s far ends and edge weights on each side this direction covers:
    /// in-edges first, then out-edges.
    fn sides(self, g: &Graph, v: VertexId) -> impl Iterator<Item = (&[VertexId], Option<&[f32]>)> {
        let ins = (self != EdgeDir::Out).then(|| (g.in_neighbors(v), g.in_edge_weights(v)));
        let outs = (self != EdgeDir::In).then(|| (g.neighbors(v), g.edge_weights(v)));
        ins.into_iter().chain(outs)
    }

    /// The direction that reaches the vertices whose edges in this
    /// direction end at `v`.
    fn reverse(self) -> EdgeDir {
        match self {
            EdgeDir::In => EdgeDir::Out,
            EdgeDir::Out => EdgeDir::In,
            EdgeDir::Both => EdgeDir::Both,
        }
    }
}

/// How iterations are driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IterationMode {
    /// All vertices active for exactly `n` iterations (PageRank, CDLP).
    Fixed(u32),
    /// Frontier-driven until quiescence, capped at `max` iterations
    /// (BFS, WCC, SSSP). A program whose values can oscillate never
    /// quiesces and runs to the cap, keeping a `k × k` sync matrix for
    /// every iteration: [`CdlpGas`] does on some graphs, which is why
    /// PowerGraph drives CDLP in `Fixed` mode.
    Converge {
        /// Iteration cap.
        max: u32,
    },
}

/// A GAS vertex program.
pub trait GasProgram {
    /// Per-vertex state.
    type Value: Clone + PartialEq;
    /// Gather accumulator.
    type Accum: Clone;

    /// Initial value of a vertex.
    fn initial_value(&self, v: VertexId, g: &Graph) -> Self::Value;

    /// Whether the vertex is in the initial frontier (converge mode only).
    fn initially_active(&self, v: VertexId) -> bool;

    /// Direction gathered over.
    fn gather_dir(&self) -> EdgeDir;

    /// Direction scattered over.
    fn scatter_dir(&self) -> EdgeDir;

    /// Maps one edge to an accumulator contribution. `other` is the
    /// neighbour on the far end; `weight` the edge weight (1.0 when
    /// unweighted).
    fn gather(
        &self,
        v: VertexId,
        other: VertexId,
        other_value: &Self::Value,
        weight: f32,
    ) -> Option<Self::Accum>;

    /// Commutative, associative merge of two accumulators.
    fn merge(&self, a: Self::Accum, b: Self::Accum) -> Self::Accum;

    /// Updates the vertex value from the merged accumulator. Returns `true`
    /// when the value changed (drives scatter activation in converge mode).
    fn apply(
        &self,
        v: VertexId,
        value: &mut Self::Value,
        acc: Option<Self::Accum>,
        iteration: u32,
    ) -> bool;

    /// Hook run before each iteration with a snapshot of all values; used
    /// for global aggregates such as PageRank's dangling mass.
    fn pre_iteration(&mut self, _iteration: u32, _values: &[Self::Value], _g: &Graph) {}

    /// Whether converge mode may cache gathers (PowerGraph's delta
    /// caching). A vertex whose value changed then pushes its contribution
    /// to the vertices that gather from it, into their accumulators for the
    /// next iteration; from iteration 1 on an active vertex applies that
    /// accumulator instead of folding all its gather edges.
    ///
    /// Return `true` only for a min-combining program, where the edges
    /// whose far end did not change cannot alter an apply. That holds when:
    /// - `merge` is the minimum of a total order, and no accumulator
    ///   (`None`) counts as above every accumulator;
    /// - `gather` depends only on the far end's value and the edge;
    /// - `apply` sets the value to the smaller of it and a candidate, which
    ///   is the accumulator or a constant of `v` (a source's distance), and
    ///   reports a change exactly when the value fell;
    /// - `scatter_dir` is the reverse of `gather_dir`, so that it activates
    ///   exactly the vertices that gather from a changed one (`run` checks
    ///   this and otherwise folds);
    /// - a vertex that is not initially active gathers nothing below its
    ///   initial value from the initial values.
    ///
    /// Then the values and activations equal the full fold's: a minimum is
    /// idempotent, and an unchanged neighbour's contribution is no smaller
    /// than the value it last helped set, which has only fallen since.
    /// `Fixed` mode always folds.
    fn delta_gather(&self) -> bool {
        false
    }
}

/// Counters of one machine within one iteration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MachineIteration {
    /// Gather-phase edges processed locally.
    pub gather_edges: u64,
    /// Vertices applied (this machine is their master).
    pub apply_vertices: u64,
    /// Scatter-phase edges processed locally.
    pub scatter_edges: u64,
    /// Replica-sync messages sent (partials to masters + values to mirrors).
    pub sync_sent: u64,
    /// Replica-sync messages received.
    pub sync_received: u64,
}

/// Counters of one iteration across machines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IterationStats {
    /// Iteration number.
    pub iteration: u32,
    /// Per-machine counters.
    pub per_machine: Vec<MachineIteration>,
    /// `sync_matrix[from][to]`: replica-sync messages between machines.
    pub sync_matrix: Vec<Vec<u64>>,
    /// Vertices active this iteration.
    pub active_vertices: u64,
}

/// Result of a GAS execution.
#[derive(Debug, Clone)]
pub struct GasOutcome<V> {
    /// Final vertex values.
    pub values: Vec<V>,
    /// Per-iteration counters.
    pub iterations: Vec<IterationStats>,
}

/// Merges a contribution into an accumulator.
fn fold<P: GasProgram>(program: &P, acc: &mut Option<P::Accum>, c: P::Accum) {
    *acc = Some(match acc.take() {
        None => c,
        Some(prev) => program.merge(prev, c),
    });
}

/// Executes a GAS program.
pub fn run<P: GasProgram>(
    g: &Graph,
    part: &VertexCutPartition,
    program: &mut P,
    mode: IterationMode,
) -> GasOutcome<P::Value> {
    let n = g.num_vertices() as usize;
    let k = part.k as usize;
    let mut values: Vec<P::Value> = (0..n as u32).map(|v| program.initial_value(v, g)).collect();
    // The buffer applies write into; equal to `values` between iterations.
    let mut next_values = values.clone();
    let (gather_dir, scatter_dir) = (program.gather_dir(), program.scatter_dir());
    // Per replica, in the partition's flat replica order, how many of the
    // vertex's `dir` edges its machine holds.
    let (ins, outs) = (part.in_edge_counts(), part.out_edge_counts());
    let edge_count = |dir: EdgeDir, r: usize| match dir {
        EdgeDir::In => ins[r],
        EdgeDir::Out => outs[r],
        EdgeDir::Both => ins[r] + outs[r],
    };

    let (max_iters, fixed) = match mode {
        IterationMode::Fixed(i) => (i, true),
        IterationMode::Converge { max } => (max, false),
    };
    // Delta caching needs the scatter edges to reach exactly the vertices
    // that gather from `v`; one walk over them then activates and pushes.
    let delta = !fixed && program.delta_gather() && scatter_dir == gather_dir.reverse();
    // With delta caching: per vertex, what its changed neighbours pushed in
    // the previous iteration, and what this iteration's changes push. An
    // active vertex takes its slot, and every push target is active next,
    // so both buffers are empty again at each swap.
    let mut pushed: Vec<Option<P::Accum>> = vec![None; if delta { n } else { 0 }];
    let mut next_pushed = pushed.clone();
    // The active vertices, ascending: all of them in `Fixed` mode. In
    // converge mode a scatter sets bit `t` of `queued` to activate `t`,
    // and the next frontier is read off those words in ascending order.
    let mut frontier = Vec::with_capacity(n);
    frontier.extend((0..n as u32).filter(|&v| fixed || program.initially_active(v)));
    let mut queued = vec![0u64; if fixed { 0 } else { n.div_ceil(64) }];
    // `sync[from * k + to]`: this iteration's replica-sync messages.
    let mut sync = vec![0u64; k * k];

    let mut stats = Vec::new();
    for iteration in 0..max_iters {
        if !fixed && frontier.is_empty() {
            break;
        }
        program.pre_iteration(iteration, &values, g);
        let mut per_machine = vec![MachineIteration::default(); k];
        sync.fill(0);

        for &v in &frontier {
            let vi = v as usize;
            let replicas = part.replicas(v);
            let master = part.master_of(v) as usize;

            // Gather: the pushed deltas, or a fold over the gather-direction
            // edges reading the snapshot `values`.
            let mut acc: Option<P::Accum> = None;
            if delta && iteration > 0 {
                acc = pushed[vi].take();
            } else {
                for (others, weights) in gather_dir.sides(g, v) {
                    for (i, &u) in others.iter().enumerate() {
                        let w = weights.map_or(1.0, |ws| ws[i]);
                        if let Some(c) = program.gather(v, u, &values[u as usize], w) {
                            fold(program, &mut acc, c);
                        }
                    }
                }
            }

            // Apply at the master.
            per_machine[master].apply_vertices += 1;
            let changed = program.apply(v, &mut next_values[vi], acc, iteration);

            // Per replica: gather work on the machines owning the edges,
            // the partial sync mirror -> master, the value sync master ->
            // mirror (every replica gets the new value) and, when the value
            // changed, scatter work.
            let first = part.replica_offsets()[vi];
            for (r, &m) in (first..).zip(replicas) {
                let (m, gathered) = (m as usize, edge_count(gather_dir, r));
                per_machine[m].gather_edges += gathered as u64;
                if changed || fixed {
                    per_machine[m].scatter_edges += edge_count(scatter_dir, r) as u64;
                }
                if m != master {
                    sync[m * k + master] += u64::from(gathered > 0);
                    sync[master * k + m] += 1;
                }
            }

            // Scatter: activate neighbours when the value changed, and push
            // the new value's contribution to the vertices gathering it.
            if changed && !fixed {
                let value = &next_values[vi];
                let mut push = |t: VertexId, w: Option<&[f32]>, i: usize| {
                    if let Some(c) = program.gather(t, v, value, w.map_or(1.0, |ws| ws[i])) {
                        fold(program, &mut next_pushed[t as usize], c);
                    }
                };
                for (others, weights) in scatter_dir.sides(g, v) {
                    for (i, &t) in others.iter().enumerate() {
                        queued[t as usize / 64] |= 1 << (t % 64);
                        if delta {
                            push(t, weights, i);
                        }
                    }
                }
            }
        }

        // Publish the applied values; the old buffer differs from them only
        // where this iteration applied.
        std::mem::swap(&mut values, &mut next_values);
        for &v in &frontier {
            next_values[v as usize].clone_from(&values[v as usize]);
        }
        let active_vertices = frontier.len() as u64;
        if !fixed {
            frontier.clear();
            for (i, word) in queued.iter_mut().enumerate() {
                let mut w = std::mem::take(word);
                while w != 0 {
                    frontier.push((i * 64) as VertexId + w.trailing_zeros());
                    w &= w - 1;
                }
            }
            std::mem::swap(&mut pushed, &mut next_pushed);
        }

        let sync_matrix: Vec<Vec<u64>> = sync.chunks_exact(k).map(<[u64]>::to_vec).collect();
        for (m, counters) in per_machine.iter_mut().enumerate() {
            counters.sync_sent = sync_matrix[m].iter().sum();
            counters.sync_received = sync_matrix.iter().map(|row| row[m]).sum();
        }
        stats.push(IterationStats {
            iteration,
            per_machine,
            sync_matrix,
            active_vertices,
        });
    }

    GasOutcome {
        values,
        iterations: stats,
    }
}

// ---------------------------------------------------------------------------
// GAS programs for the Graphalytics algorithms.
// ---------------------------------------------------------------------------

/// BFS as pull-style GAS: gather the minimum `level + 1` over in-edges.
pub struct BfsGas {
    /// Source vertex.
    pub source: VertexId,
}

impl GasProgram for BfsGas {
    type Value = u32;
    type Accum = u32;

    fn initial_value(&self, _v: VertexId, _g: &Graph) -> u32 {
        u32::MAX
    }

    fn initially_active(&self, v: VertexId) -> bool {
        v == self.source
    }

    fn gather_dir(&self) -> EdgeDir {
        EdgeDir::In
    }

    fn scatter_dir(&self) -> EdgeDir {
        EdgeDir::Out
    }

    fn gather(&self, _v: VertexId, _other: VertexId, other_value: &u32, _w: f32) -> Option<u32> {
        (*other_value != u32::MAX).then(|| other_value + 1)
    }

    fn merge(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }

    fn apply(&self, v: VertexId, value: &mut u32, acc: Option<u32>, _iteration: u32) -> bool {
        let mut candidate = acc.unwrap_or(u32::MAX);
        if v == self.source {
            candidate = 0;
        }
        if candidate < *value {
            *value = candidate;
            true
        } else {
            false
        }
    }

    fn delta_gather(&self) -> bool {
        true
    }
}

/// SSSP as pull-style GAS over weighted in-edges.
pub struct SsspGas {
    /// Source vertex.
    pub source: VertexId,
}

impl GasProgram for SsspGas {
    type Value = f64;
    type Accum = f64;

    fn initial_value(&self, _v: VertexId, _g: &Graph) -> f64 {
        f64::INFINITY
    }

    fn initially_active(&self, v: VertexId) -> bool {
        v == self.source
    }

    fn gather_dir(&self) -> EdgeDir {
        EdgeDir::In
    }

    fn scatter_dir(&self) -> EdgeDir {
        EdgeDir::Out
    }

    fn gather(&self, _v: VertexId, _o: VertexId, other_value: &f64, w: f32) -> Option<f64> {
        other_value.is_finite().then(|| other_value + w as f64)
    }

    fn merge(&self, a: f64, b: f64) -> f64 {
        a.min(b)
    }

    fn apply(&self, v: VertexId, value: &mut f64, acc: Option<f64>, _iteration: u32) -> bool {
        let mut candidate = acc.unwrap_or(f64::INFINITY);
        if v == self.source {
            candidate = 0.0;
        }
        if candidate < *value {
            *value = candidate;
            true
        } else {
            false
        }
    }

    fn delta_gather(&self) -> bool {
        true
    }
}

/// WCC: minimum-label propagation over both edge directions.
pub struct WccGas;

impl GasProgram for WccGas {
    type Value = u32;
    type Accum = u32;

    fn initial_value(&self, v: VertexId, _g: &Graph) -> u32 {
        v
    }

    fn initially_active(&self, _v: VertexId) -> bool {
        true
    }

    fn gather_dir(&self) -> EdgeDir {
        EdgeDir::Both
    }

    fn scatter_dir(&self) -> EdgeDir {
        EdgeDir::Both
    }

    fn gather(&self, _v: VertexId, _o: VertexId, other_value: &u32, _w: f32) -> Option<u32> {
        Some(*other_value)
    }

    fn merge(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }

    fn apply(&self, _v: VertexId, value: &mut u32, acc: Option<u32>, _iteration: u32) -> bool {
        match acc {
            Some(best) if best < *value => {
                *value = best;
                true
            }
            _ => false,
        }
    }

    fn delta_gather(&self) -> bool {
        true
    }
}

/// PageRank as fixed-iteration GAS with dangling redistribution. The gather
/// needs each in-neighbour's out-degree, which the program reads from a
/// borrowed graph, so the implementation lives in a local type.
pub fn run_pagerank_gas(
    g: &Graph,
    part: &VertexCutPartition,
    iterations: u32,
    damping: f64,
) -> GasOutcome<f64> {
    struct Inner<'a> {
        g: &'a Graph,
        damping: f64,
        dangling: f64,
    }
    impl GasProgram for Inner<'_> {
        type Value = f64;
        type Accum = f64;
        fn initial_value(&self, _v: VertexId, g: &Graph) -> f64 {
            1.0 / g.num_vertices() as f64
        }
        fn initially_active(&self, _v: VertexId) -> bool {
            true
        }
        fn gather_dir(&self) -> EdgeDir {
            EdgeDir::In
        }
        fn scatter_dir(&self) -> EdgeDir {
            EdgeDir::Out
        }
        fn gather(&self, _v: VertexId, other: VertexId, val: &f64, _w: f32) -> Option<f64> {
            let deg = self.g.out_degree(other);
            (deg > 0).then(|| val / deg as f64)
        }
        fn merge(&self, a: f64, b: f64) -> f64 {
            a + b
        }
        fn apply(&self, _v: VertexId, value: &mut f64, acc: Option<f64>, _i: u32) -> bool {
            let n = self.g.num_vertices() as f64;
            *value = (1.0 - self.damping) / n
                + self.damping * self.dangling / n
                + self.damping * acc.unwrap_or(0.0);
            true
        }
        fn pre_iteration(&mut self, _i: u32, values: &[f64], g: &Graph) {
            self.dangling = (0..g.num_vertices())
                .filter(|&v| g.out_degree(v) == 0)
                .map(|v| values[v as usize])
                .sum();
        }
    }
    let mut p = Inner {
        g,
        damping,
        dangling: 0.0,
    };
    run(g, part, &mut p, IterationMode::Fixed(iterations))
}

/// CDLP as fixed-iteration GAS: gather the label multiset over both
/// directions, apply the most frequent label (ties to the smallest).
///
/// Labels can oscillate (two neighbours swapping labels each iteration),
/// so in [`IterationMode::Converge`] CDLP may never quiesce: it then runs
/// to the cap and keeps a `k × k` sync matrix for every iteration, which
/// at a 10 000 cap and 70 machines is about 390 MB. PowerGraph drives it
/// in `Fixed` mode. It keeps the full fold: a label count is no minimum.
pub struct CdlpGas;

impl GasProgram for CdlpGas {
    type Value = u32;
    type Accum = BTreeMap<u32, u32>;

    fn initial_value(&self, v: VertexId, _g: &Graph) -> u32 {
        v
    }

    fn initially_active(&self, _v: VertexId) -> bool {
        true
    }

    fn gather_dir(&self) -> EdgeDir {
        EdgeDir::Both
    }

    fn scatter_dir(&self) -> EdgeDir {
        EdgeDir::Both
    }

    fn gather(
        &self,
        _v: VertexId,
        _o: VertexId,
        other_value: &u32,
        _w: f32,
    ) -> Option<BTreeMap<u32, u32>> {
        let mut m = BTreeMap::new();
        m.insert(*other_value, 1);
        Some(m)
    }

    fn merge(&self, mut a: BTreeMap<u32, u32>, b: BTreeMap<u32, u32>) -> BTreeMap<u32, u32> {
        for (l, c) in b {
            *a.entry(l).or_insert(0) += c;
        }
        a
    }

    fn apply(
        &self,
        _v: VertexId,
        value: &mut u32,
        acc: Option<BTreeMap<u32, u32>>,
        _iteration: u32,
    ) -> bool {
        let Some(counts) = acc else { return false };
        let mut best = (*value, 0u32);
        for (&l, &c) in &counts {
            if c > best.1 {
                best = (l, c);
            }
        }
        if best.1 == 0 {
            return false;
        }
        let changed = *value != best.0;
        *value = best.0;
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpsim_graph::algos;
    use gpsim_graph::gen::{datagen_like, with_uniform_weights, GenConfig};

    fn graph() -> Graph {
        datagen_like(&GenConfig::datagen(1_500, 77))
    }

    fn part(g: &Graph) -> VertexCutPartition {
        VertexCutPartition::greedy(g, 8)
    }

    #[test]
    fn bfs_matches_reference() {
        let g = graph();
        let p = part(&g);
        let out = run(
            &g,
            &p,
            &mut BfsGas { source: 2 },
            IterationMode::Converge { max: 1_000 },
        );
        assert_eq!(out.values, algos::bfs(&g, 2));
    }

    #[test]
    fn sssp_matches_reference() {
        let g = with_uniform_weights(&graph(), 3.0, 21);
        let p = part(&g);
        let out = run(
            &g,
            &p,
            &mut SsspGas { source: 2 },
            IterationMode::Converge { max: 10_000 },
        );
        let reference = algos::sssp(&g, 2);
        for (a, b) in out.values.iter().zip(&reference) {
            if b.is_infinite() {
                assert!(a.is_infinite());
            } else {
                assert!((a - b).abs() < 1e-9, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn wcc_matches_reference() {
        let g = graph();
        let p = part(&g);
        let out = run(&g, &p, &mut WccGas, IterationMode::Converge { max: 1_000 });
        assert_eq!(out.values, algos::wcc(&g));
    }

    #[test]
    fn pagerank_matches_reference() {
        let g = graph();
        let p = part(&g);
        let out = run_pagerank_gas(&g, &p, 10, 0.85);
        let reference = algos::pagerank(&g, 10, 0.85);
        for (a, b) in out.values.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn cdlp_matches_reference() {
        let g = graph();
        let p = part(&g);
        let out = run(&g, &p, &mut CdlpGas, IterationMode::Fixed(5));
        assert_eq!(out.values, algos::cdlp(&g, 5));
    }

    #[test]
    fn sync_matrix_consistent_with_counters() {
        let g = graph();
        let p = part(&g);
        let out = run(
            &g,
            &p,
            &mut BfsGas { source: 2 },
            IterationMode::Converge { max: 1_000 },
        );
        for it in &out.iterations {
            let sent: u64 = it.per_machine.iter().map(|m| m.sync_sent).sum();
            let recv: u64 = it.per_machine.iter().map(|m| m.sync_received).sum();
            let matrix: u64 = it.sync_matrix.iter().flatten().sum();
            assert_eq!(sent, recv);
            assert_eq!(sent, matrix);
            // Nothing syncs machine -> itself.
            for (i, row) in it.sync_matrix.iter().enumerate() {
                assert_eq!(row[i], 0);
            }
        }
    }

    #[test]
    fn converge_mode_shrinks_to_quiescence() {
        let g = graph();
        let p = part(&g);
        let out = run(&g, &p, &mut WccGas, IterationMode::Converge { max: 1_000 });
        let last = out.iterations.last().unwrap();
        let first = &out.iterations[0];
        assert!(last.active_vertices < first.active_vertices);
        assert!(out.iterations.len() < 1_000);
    }

    #[test]
    fn fixed_mode_keeps_everything_active() {
        let g = graph();
        let p = part(&g);
        let out = run_pagerank_gas(&g, &p, 3, 0.85);
        assert_eq!(out.iterations.len(), 3);
        for it in &out.iterations {
            assert_eq!(it.active_vertices, g.num_vertices() as u64);
        }
    }
}
