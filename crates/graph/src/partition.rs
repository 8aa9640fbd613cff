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
//! a bitset of `ceil(k / 64)` words in one flat array while it places
//! edges. It ends with a flat replica CSR and, parallel to it, how many of
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
    pub edge_owner: Vec<u16>,
    /// Number of machines.
    pub k: u16,
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
    pub fn greedy(g: &Graph, k: u16) -> VertexCutPartition {
        assert!(k > 0, "need at least one machine");
        let n = g.num_vertices() as usize;
        let words = (k as usize).div_ceil(64);
        let mut bits = vec![0u64; n * words];
        let mut load = vec![0u64; k as usize];
        let mut edge_owner = Vec::with_capacity(g.num_edges() as usize);

        for s in 0..n {
            for &t in g.neighbors(s as VertexId) {
                let (s, t) = (s * words, t as usize * words);
                let (rs, rt) = (&bits[s..s + words], &bits[t..t + words]);
                let mut best = None;
                for (i, (a, b)) in rs.iter().zip(rt).enumerate() {
                    least_loaded(&mut best, i, a & b, &load);
                }
                if best.is_none() {
                    for (i, &a) in rs.iter().enumerate() {
                        least_loaded(&mut best, i, a, &load);
                    }
                    for (i, &b) in rt.iter().enumerate() {
                        least_loaded(&mut best, i, b, &load);
                    }
                }
                let choice = match best {
                    Some((_, m)) => m,
                    None => (0..k).min_by_key(|&m| load[m as usize]).expect("k > 0"),
                };
                edge_owner.push(choice);
                load[choice as usize] += 1;
                let (word, bit) = (choice as usize / 64, 1u64 << (choice % 64));
                bits[s + word] |= bit;
                bits[t + word] |= bit;
            }
        }

        let mut replica_offsets = Vec::with_capacity(n + 1);
        replica_offsets.push(0);
        let mut replicas = Vec::new();
        for set in bits.chunks_exact(words) {
            for (i, &word) in set.iter().enumerate() {
                let mut w = word;
                while w != 0 {
                    replicas.push((i * 64) as u16 + w.trailing_zeros() as u16);
                    w &= w - 1;
                }
            }
            replica_offsets.push(replicas.len());
        }

        // Per replica, the vertex's in- and out-edges its machine holds, in
        // one more walk over the edges. A source's out-edges are tallied per
        // machine and spread over its replicas once its edges are done; a
        // target's replica index is the number of its machines below the
        // edge's.
        let rank = |v: usize, m: u16| {
            let (set, (w, b)) = (&bits[v * words..], (m as usize / 64, m % 64));
            let below: u32 = set[..w].iter().map(|x| x.count_ones()).sum();
            below as usize + (set[w] & ((1u64 << b) - 1)).count_ones() as usize
        };
        let mut in_edges = vec![0u32; replicas.len()];
        let mut out_edges = vec![0u32; replicas.len()];
        let mut tally = vec![0u32; k as usize];
        let mut owners = edge_owner.iter();
        for s in 0..n {
            for &t in g.neighbors(s as VertexId) {
                let m = *owners.next().expect("one owner per edge");
                tally[m as usize] += 1;
                in_edges[replica_offsets[t as usize] + rank(t as usize, m)] += 1;
            }
            let (first, end) = (replica_offsets[s], replica_offsets[s + 1]);
            for (count, &m) in out_edges[first..end].iter_mut().zip(&replicas[first..end]) {
                *count = std::mem::take(&mut tally[m as usize]);
            }
        }

        VertexCutPartition {
            edge_owner,
            k,
            replica_offsets,
            replicas,
            in_edges,
            out_edges,
        }
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
        let mut sizes = vec![0u64; self.k as usize];
        for &o in &self.edge_owner {
            sizes[o as usize] += 1;
        }
        sizes
    }
}

/// Lowers `best`, a `(load, machine)` pair, to each machine of bitset word
/// `i` (machines `64 i..64 i + 63`) that is strictly less loaded, in
/// ascending order: the first least-loaded machine wins a tie.
fn least_loaded(best: &mut Option<(u64, u16)>, i: usize, mut word: u64, load: &[u64]) {
    while word != 0 {
        let m = i * 64 + word.trailing_zeros() as usize;
        word &= word - 1;
        if best.is_none_or(|(l, _)| load[m] < l) {
            *best = Some((load[m], m as u16));
        }
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
