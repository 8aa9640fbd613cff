//! Graph partitioning: edge-cut (Pregel family) and vertex-cut (GAS family).
//!
//! Giraph hash-partitions *vertices* across workers; messages along edges
//! whose endpoints live on different workers cross the network (the edge
//! cut). PowerGraph instead assigns *edges* to machines; a vertex is
//! replicated on every machine holding one of its edges and one replica is
//! the master (the vertex cut). The replication factor drives PowerGraph's
//! sync traffic, which is why it wins on power-law graphs.
//!
//! The greedy vertex-cut walks the CSR and keeps every vertex's machines as
//! a bitset row of `W` words, the smallest power of two that holds `k`
//! bits, while it places edges, and files each edge's machine under its
//! target. It ends with a flat replica CSR and, parallel to it, how many of
//! the vertex's in- and out-edges each replica holds. Every choice takes
//! the first least-loaded machine in ascending order, the source's replicas
//! before the target's.

use crate::graph::{Graph, VertexId};

/// Hash-based edge-cut partitioning of vertices over `k` workers.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeCutPartition {
    /// Owner worker of each vertex.
    pub owner: Vec<u16>,
    /// Number of workers.
    pub k: u16,
}

impl EdgeCutPartition {
    /// Giraph-style hash partitioning (`v % k`, after id-mixing so that
    /// consecutively-generated hubs spread out).
    pub fn hash(n: u32, k: u16) -> EdgeCutPartition {
        assert!(k > 0, "need at least one worker");
        let owner = (0..n).map(|v| (mix(v) % k as u32) as u16).collect();
        EdgeCutPartition { owner, k }
    }

    /// Owner of a vertex.
    pub fn owner_of(&self, v: VertexId) -> u16 {
        self.owner[v as usize]
    }

    /// Vertices per worker.
    pub fn sizes(&self) -> Vec<u64> {
        let mut sizes = vec![0u64; self.k as usize];
        for &o in &self.owner {
            sizes[o as usize] += 1;
        }
        sizes
    }

    /// Number of edges whose endpoints live on different workers.
    pub fn cut_edges(&self, g: &Graph) -> u64 {
        g.edges()
            .filter(|&(s, t)| self.owner_of(s) != self.owner_of(t))
            .count() as u64
    }

    /// Load imbalance: `max_partition_vertices / mean`.
    pub fn imbalance(&self) -> f64 {
        let sizes = self.sizes();
        let max = sizes.iter().copied().max().unwrap_or(0) as f64;
        let mean = self.owner.len() as f64 / self.k as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

fn mix(v: u32) -> u32 {
    // Finalizer of MurmurHash3 (32-bit): cheap, well-distributed.
    let mut h = v;
    h ^= h >> 16;
    h = h.wrapping_mul(0x85eb_ca6b);
    h ^= h >> 13;
    h = h.wrapping_mul(0xc2b2_ae35);
    h ^= h >> 16;
    h
}

/// Greedy vertex-cut partitioning of edges over `k` machines
/// (the PowerGraph heuristic).
#[derive(Debug, Clone, PartialEq)]
pub struct VertexCutPartition {
    /// Machine of each edge, in [`Graph::edges`] order.
    edge_owner: Vec<u16>,
    /// Number of machines.
    pub k: u16,
    /// Edges per machine.
    loads: Vec<u64>,
    /// `replicas[replica_offsets[v]..replica_offsets[v + 1]]` are the
    /// replicas of `v`; length `n + 1`.
    replica_offsets: Vec<usize>,
    /// Every vertex's replicas, ascending per vertex.
    replicas: Vec<u16>,
    /// Per replica, the vertex's in-edges its machine holds.
    in_edges: Vec<u32>,
    /// Per replica, the vertex's out-edges its machine holds.
    out_edges: Vec<u32>,
}

impl VertexCutPartition {
    /// Greedy placement: for each edge pick, in order of preference, (1) a
    /// machine both endpoints already live on, (2) the least-loaded machine
    /// one endpoint lives on, (3) the least-loaded machine overall.
    ///
    /// Reads only the out-CSR. Panics when `k` is 0 or the graph has
    /// 2^32 edges or more.
    pub fn greedy(g: &Graph, k: u16) -> VertexCutPartition {
        assert!(k > 0, "need at least one machine");
        // One placement body, instantiated for rows of 1, 2, 4, ..., 1024
        // words: the smallest power of two that holds `k` bits.
        let Placed {
            edge_owner,
            loads,
            bits,
            words,
            filed,
            in_offsets,
        } = match (k as usize).div_ceil(64).next_power_of_two() {
            1 => place::<1>(g, k),
            2 => place::<2>(g, k),
            4 => place::<4>(g, k),
            8 => place::<8>(g, k),
            16 => place::<16>(g, k),
            32 => place::<32>(g, k),
            64 => place::<64>(g, k),
            128 => place::<128>(g, k),
            256 => place::<256>(g, k),
            512 => place::<512>(g, k),
            _ => place::<1024>(g, k),
        };

        // The replica CSR, sized by a first pass over the bitsets.
        let n = g.num_vertices() as usize;
        let mut replica_offsets = Vec::with_capacity(n + 1);
        replica_offsets.push(0);
        let mut total = 0;
        for set in bits.chunks_exact(words) {
            total += set.iter().map(|w| w.count_ones() as usize).sum::<usize>();
            replica_offsets.push(total);
        }
        let mut replicas = Vec::with_capacity(total);
        for set in bits.chunks_exact(words) {
            for (i, &word) in set.iter().enumerate() {
                let mut w = word;
                while w != 0 {
                    replicas.push((i * 64) as u16 + w.trailing_zeros() as u16);
                    w &= w - 1;
                }
            }
        }
        drop(bits);

        // Per replica, the vertex's in-edges its machine holds, from its run
        // of `filed`; the filing is freed before the out-edge counts, from
        // its run of `edge_owner`, are allocated.
        let run = |v: usize| &filed[in_offsets[v] as usize..in_offsets[v + 1] as usize];
        let in_edges = replica_counts(&replica_offsets, &replicas, k, run);
        drop((filed, in_offsets));
        let (owners, mut out_first) = (&edge_owner[..], 0);
        let out_edges = replica_counts(&replica_offsets, &replicas, k, |v| {
            let first = out_first;
            out_first += g.out_degree(v as VertexId) as usize;
            &owners[first..out_first]
        });

        VertexCutPartition {
            edge_owner,
            k,
            loads,
            replica_offsets,
            replicas,
            in_edges,
            out_edges,
        }
    }

    /// Machine of each edge, in [`Graph::edges`] order.
    pub fn edge_owner(&self) -> &[u16] {
        &self.edge_owner
    }

    /// The sorted machines holding at least one of `v`'s edges (its
    /// replicas); empty for an isolated vertex.
    pub fn replicas(&self, v: VertexId) -> &[u16] {
        &self.replicas[self.replica_offsets[v as usize]..self.replica_offsets[v as usize + 1]]
    }

    /// Where each vertex's replicas start in the flat order of all replicas,
    /// vertex by vertex, plus the total at index `n`; per-replica data can
    /// live in flat arrays indexed the same way.
    pub fn replica_offsets(&self) -> &[usize] {
        &self.replica_offsets
    }

    /// Per replica, in the flat replica order, how many of the vertex's
    /// in-edges its machine holds (a self-loop counts on both sides).
    pub fn in_edge_counts(&self) -> &[u32] {
        &self.in_edges
    }

    /// Per replica, in the flat replica order, how many of the vertex's
    /// out-edges its machine holds.
    pub fn out_edge_counts(&self) -> &[u32] {
        &self.out_edges
    }

    /// The master machine of a vertex: its first replica (or a hash when the
    /// vertex has no edges).
    pub fn master_of(&self, v: VertexId) -> u16 {
        self.replicas(v)
            .first()
            .copied()
            .unwrap_or((mix(v) % self.k as u32) as u16)
    }

    /// Mean number of replicas per vertex (vertices with edges only) — the
    /// replication factor PowerGraph's paper optimizes.
    pub fn replication_factor(&self) -> f64 {
        let offsets = self.replica_offsets.windows(2);
        let with_edges = offsets.filter(|w| w[0] < w[1]).count();
        self.replicas.len() as f64 / with_edges.max(1) as f64
    }

    /// Edges per machine.
    pub fn sizes(&self) -> Vec<u64> {
        self.loads.clone()
    }
}

/// Per replica, how many edges of the vertex's run `run(v)` of edge
/// owners its machine holds: each run is tallied by machine, and each
/// replica takes its machine's tally.
fn replica_counts<'a>(
    offsets: &[usize],
    replicas: &[u16],
    k: u16,
    mut run: impl FnMut(usize) -> &'a [u16],
) -> Vec<u32> {
    let mut tally = vec![0u32; k as usize];
    let mut counts = vec![0u32; replicas.len()];
    for (v, span) in offsets.windows(2).enumerate() {
        for &m in run(v) {
            tally[m as usize] += 1;
        }
        let (first, end) = (span[0], span[1]);
        for (count, &m) in counts[first..end].iter_mut().zip(&replicas[first..end]) {
            *count = std::mem::take(&mut tally[m as usize]);
        }
    }
    counts
}

/// What placement hands to the replica CSR and the edge counts.
struct Placed {
    /// Machine of each edge, in [`Graph::edges`] order.
    edge_owner: Vec<u16>,
    /// Edges per machine.
    loads: Vec<u64>,
    /// Every vertex's machines as a bitset of `words` words.
    bits: Vec<u64>,
    words: usize,
    /// Every edge's machine filed under its target: the owners of `t`'s
    /// in-edges are `filed[in_offsets[t]..in_offsets[t + 1]]`.
    filed: Vec<u16>,
    in_offsets: Vec<u32>,
}

/// A placement key is `load << LOAD_SHIFT | target_only << 16 | machine`.
const LOAD_SHIFT: u32 = 17;

/// Places every edge of `g` on one of `k` machines, holding each vertex's
/// machines as a row of `W` bitset words, and files each edge's machine
/// under its target.
///
/// An edge takes the least key `(load, target-only, machine)` over a mask:
/// the machines its endpoints share, else those of either endpoint, else
/// all `k`. The middle bit is set on a machine only the target lives on,
/// so on equal loads the source's machines win, then the lower index. The
/// set-bit loop keeps the least key with a `min`, not a branch, and the
/// source's row stays in a local while its out-edges are placed.
fn place<const W: usize>(g: &Graph, k: u16) -> Placed {
    let n = g.num_vertices() as usize;
    let m = u32::try_from(g.num_edges()).expect("fewer than 2^32 edges") as usize;
    // Where each target's filed owners start, from in-degrees counted over
    // the out-CSR, so that a graph without a reverse CSR files the same.
    let mut cursor = vec![0u32; n + 1];
    for s in 0..n as VertexId {
        for &t in g.neighbors(s) {
            cursor[t as usize + 1] += 1;
        }
    }
    for v in 0..n {
        cursor[v + 1] += cursor[v];
    }
    let mut filed = vec![0u16; m];
    let all: [u64; W] = std::array::from_fn(|i| match (k as usize).saturating_sub(i * 64) {
        0 => 0,
        rest => u64::MAX >> 64usize.saturating_sub(rest),
    });
    // Padded to whole rows, so that a spent mask's index (bit 0 of its
    // word) stays in bounds; its key is never taken.
    let mut keys: Vec<u64> = (0..u64::from(k)).collect();
    keys.resize(W * 64, u64::MAX);
    let mut bits = vec![[0u64; W]; n];
    let mut edge_owner = Vec::with_capacity(m);

    for s in 0..n {
        let mut row = bits[s];
        for &t in g.neighbors(s as VertexId) {
            let t = t as usize;
            // A self-loop's target is the held row.
            let rt = if t == s { &row } else { &bits[t] };
            let shared: [u64; W] = std::array::from_fn(|i| row[i] & rt[i]);
            let either: [u64; W] = std::array::from_fn(|i| row[i] | rt[i]);
            // All ones when a machine is shared, when an endpoint has one.
            let on_shared = 0u64.wrapping_sub(u64::from(shared.iter().any(|&w| w != 0)));
            let on_either = 0u64.wrapping_sub(u64::from(either.iter().any(|&w| w != 0)));
            let mut best = u64::MAX;
            for i in 0..W {
                let mut mask =
                    ((either[i] & on_either) | (all[i] & !on_either)) & (shared[i] | !on_shared);
                let target_only = rt[i] & !row[i];
                // Four set bits a round, taken without a branch (a spent
                // mask offers `u64::MAX`), so that the loop's one branch
                // rarely goes back: most masks hold at most four machines.
                while mask != 0 {
                    for _ in 0..4 {
                        let b = mask.trailing_zeros() & 63;
                        let key = keys[i * 64 + b as usize] | ((target_only >> b) & 1) << 16;
                        best = best.min(if mask != 0 { key } else { u64::MAX });
                        mask &= mask.wrapping_sub(1);
                    }
                }
            }
            let choice = (best & 0xffff) as u16;
            edge_owner.push(choice);
            keys[choice as usize] += 1 << LOAD_SHIFT;
            let (word, bit) = (choice as usize / 64, 1u64 << (choice % 64));
            row[word] |= bit;
            bits[t][word] |= bit;
            let at = &mut cursor[t];
            filed[*at as usize] = choice;
            *at += 1;
        }
        bits[s] = row;
    }

    // Each cursor now holds the next target's start.
    cursor.copy_within(0..n, 1);
    cursor[0] = 0;
    Placed {
        edge_owner,
        loads: keys[..k as usize]
            .iter()
            .map(|&key| key >> LOAD_SHIFT)
            .collect(),
        bits: bits.into_flattened(),
        words: W,
        filed,
        in_offsets: cursor,
    }
}

/// 1D block (row) partitioning over contiguous vertex ranges, balanced by
/// out-edge count — the matrix layout of SpMV platforms such as GraphMat.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockPartition {
    /// `bounds[i]..bounds[i+1]` is machine i's vertex range; length `k + 1`.
    pub bounds: Vec<u32>,
}

impl BlockPartition {
    /// Splits the vertex id space into `k` contiguous blocks with
    /// approximately equal out-edge counts (greedy prefix scan).
    pub fn by_edges(g: &Graph, k: u16) -> BlockPartition {
        assert!(k > 0, "need at least one machine");
        let n = g.num_vertices();
        let target = g.num_edges() as f64 / k as f64;
        let mut bounds = Vec::with_capacity(k as usize + 1);
        bounds.push(0u32);
        let mut acc = 0u64;
        let mut next_cut = target;
        for v in 0..n {
            acc += g.out_degree(v) as u64;
            if acc as f64 >= next_cut && (bounds.len() as u16) < k {
                bounds.push(v + 1);
                next_cut += target;
            }
        }
        // Degenerate graphs may not fill all cuts; pad with n.
        while (bounds.len() as u16) <= k {
            bounds.push(n);
        }
        BlockPartition { bounds }
    }

    /// Number of machines.
    pub fn k(&self) -> u16 {
        (self.bounds.len() - 1) as u16
    }

    /// Owner machine of a vertex (binary search over the bounds).
    pub fn owner_of(&self, v: VertexId) -> u16 {
        (self.bounds.partition_point(|&b| b <= v) - 1) as u16
    }

    /// Vertex range of machine `m`.
    pub fn range(&self, m: u16) -> std::ops::Range<u32> {
        self.bounds[m as usize]..self.bounds[m as usize + 1]
    }

    /// Out-edges per machine.
    pub fn edge_sizes(&self, g: &Graph) -> Vec<u64> {
        (0..self.k())
            .map(|m| self.range(m).map(|v| g.out_degree(v) as u64).sum())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{datagen_like, uniform, GenConfig};

    #[test]
    fn hash_partition_is_balanced() {
        let p = EdgeCutPartition::hash(10_000, 8);
        assert!(p.imbalance() < 1.1, "imbalance={}", p.imbalance());
        assert_eq!(p.sizes().iter().sum::<u64>(), 10_000);
    }

    #[test]
    fn single_worker_has_no_cut() {
        let g = uniform(100, 1_000, 1);
        let p = EdgeCutPartition::hash(100, 1);
        assert_eq!(p.cut_edges(&g), 0);
    }

    #[test]
    fn hash_cut_approaches_random_fraction() {
        let g = uniform(2_000, 20_000, 2);
        let p = EdgeCutPartition::hash(2_000, 4);
        let frac = p.cut_edges(&g) as f64 / g.num_edges() as f64;
        // Random 4-way cut: expect ~3/4 of edges crossing.
        assert!((frac - 0.75).abs() < 0.05, "frac={frac}");
    }

    #[test]
    fn greedy_vertex_cut_beats_trivial_replication_bound() {
        let g = datagen_like(&GenConfig::datagen(3_000, 13));
        let p = VertexCutPartition::greedy(&g, 8);
        let rf = p.replication_factor();
        assert!(rf >= 1.0);
        assert!(rf < 4.0, "replication factor too high: {rf}");
        assert_eq!(p.sizes().iter().sum::<u64>(), g.num_edges());
    }

    #[test]
    fn vertex_cut_load_is_reasonably_balanced() {
        let g = datagen_like(&GenConfig::datagen(3_000, 13));
        let p = VertexCutPartition::greedy(&g, 8);
        let sizes = p.sizes();
        let max = *sizes.iter().max().unwrap() as f64;
        let mean = g.num_edges() as f64 / 8.0;
        assert!(max / mean < 1.5, "edge imbalance {}", max / mean);
    }

    #[test]
    fn replicas_are_sorted_and_deduped() {
        let g = uniform(500, 5_000, 3);
        let p = VertexCutPartition::greedy(&g, 4);
        for v in 0..g.num_vertices() {
            let r = p.replicas(v);
            assert!(r.windows(2).all(|w| w[0] < w[1]), "{r:?}");
        }
    }

    #[test]
    fn master_is_a_replica_when_vertex_has_edges() {
        let g = uniform(500, 5_000, 3);
        let p = VertexCutPartition::greedy(&g, 4);
        for v in 0..g.num_vertices() {
            if !p.replicas(v).is_empty() {
                assert!(p.replicas(v).contains(&p.master_of(v)));
            }
        }
    }

    #[test]
    fn isolated_vertex_still_gets_a_master() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let p = VertexCutPartition::greedy(&g, 2);
        let m = p.master_of(2);
        assert!(m < 2);
    }

    #[test]
    fn block_partition_covers_all_vertices_contiguously() {
        let g = datagen_like(&GenConfig::datagen(3_000, 5));
        let p = BlockPartition::by_edges(&g, 8);
        assert_eq!(p.k(), 8);
        assert_eq!(p.bounds[0], 0);
        assert_eq!(*p.bounds.last().unwrap(), g.num_vertices());
        for v in 0..g.num_vertices() {
            let m = p.owner_of(v);
            assert!(p.range(m).contains(&v));
        }
    }

    #[test]
    fn block_partition_balances_edges_not_vertices() {
        let g = datagen_like(&GenConfig::datagen(3_000, 5));
        let p = BlockPartition::by_edges(&g, 8);
        let sizes = p.edge_sizes(&g);
        assert_eq!(sizes.iter().sum::<u64>(), g.num_edges());
        let mean = g.num_edges() as f64 / 8.0;
        let max = *sizes.iter().max().unwrap() as f64;
        assert!(max / mean < 1.35, "edge imbalance {}", max / mean);
    }

    #[test]
    fn block_partition_single_machine() {
        let g = uniform(100, 500, 1);
        let p = BlockPartition::by_edges(&g, 1);
        assert_eq!(p.range(0), 0..100);
        assert_eq!(p.owner_of(99), 0);
    }

    #[test]
    fn block_partition_more_machines_than_edges() {
        let g = Graph::from_edges(4, &[(0, 1)]);
        let p = BlockPartition::by_edges(&g, 8);
        assert_eq!(p.k(), 8);
        // Every vertex still has exactly one owner.
        for v in 0..4 {
            assert!(p.owner_of(v) < 8);
        }
    }
}
