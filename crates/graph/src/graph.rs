//! Compressed sparse row (CSR) graphs.
//!
//! Directed graphs with `u32` vertex ids, stored in forward CSR with a
//! lazily-shared reverse CSR for in-neighbour traversal (needed by GAS
//! gather phases and by algorithms that treat the graph as undirected).

/// Vertex identifier.
pub type VertexId = u32;

/// A directed graph in CSR form, with optional edge weights.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    /// Out-edge offsets, length `n + 1`.
    out_offsets: Vec<u64>,
    /// Out-edge targets, length `m`.
    out_targets: Vec<VertexId>,
    /// In-edge offsets, length `n + 1`.
    in_offsets: Vec<u64>,
    /// In-edge sources, length `m`.
    in_sources: Vec<VertexId>,
    /// Optional per-out-edge weights (parallel to `out_targets`).
    weights: Option<Vec<f32>>,
    /// Optional per-in-edge weights (parallel to `in_sources`).
    in_weights: Option<Vec<f32>>,
}

impl Graph {
    /// Builds a graph from an edge list. Self-loops and duplicates are kept
    /// (real-world datasets have them; platforms must cope).
    pub fn from_edges(n: u32, edges: &[(VertexId, VertexId)]) -> Graph {
        Self::from_edges_weighted(n, edges, None)
    }

    /// Builds a weighted graph; `weights`, when given, must parallel `edges`.
    pub fn from_edges_weighted(
        n: u32,
        edges: &[(VertexId, VertexId)],
        weights: Option<&[f32]>,
    ) -> Graph {
        if let Some(w) = weights {
            assert_eq!(w.len(), edges.len(), "weights must parallel edges");
        }
        let n = n as usize;
        let mut out_deg = vec![0u64; n + 1];
        let mut in_deg = vec![0u64; n + 1];
        for &(s, t) in edges {
            assert!(
                (s as usize) < n && (t as usize) < n,
                "edge ({s},{t}) out of range"
            );
            out_deg[s as usize + 1] += 1;
            in_deg[t as usize + 1] += 1;
        }
        for i in 0..n {
            out_deg[i + 1] += out_deg[i];
            in_deg[i + 1] += in_deg[i];
        }
        let m = edges.len();
        let mut out_targets = vec![0 as VertexId; m];
        let mut in_sources = vec![0 as VertexId; m];
        let mut out_w = weights.map(|_| vec![0.0f32; m]);
        let mut in_w = weights.map(|_| vec![0.0f32; m]);
        // Fill with `out_deg[s]` and `in_deg[t]` as the cursors: afterwards
        // each holds the start of the next vertex, so one shift restores
        // the offsets (no cursor copies at the CSR-build peak).
        for (i, &(s, t)) in edges.iter().enumerate() {
            let oc = &mut out_deg[s as usize];
            out_targets[*oc as usize] = t;
            if let (Some(ws), Some(w)) = (&mut out_w, weights) {
                ws[*oc as usize] = w[i];
            }
            *oc += 1;
            let ic = &mut in_deg[t as usize];
            in_sources[*ic as usize] = s;
            if let (Some(ws), Some(w)) = (&mut in_w, weights) {
                ws[*ic as usize] = w[i];
            }
            *ic += 1;
        }
        for offsets in [&mut out_deg, &mut in_deg] {
            offsets.copy_within(0..n, 1);
            offsets[0] = 0;
        }
        Graph {
            out_offsets: out_deg,
            out_targets,
            in_offsets: in_deg,
            in_sources,
            weights: out_w,
            in_weights: in_w,
        }
    }

    /// Builds an **out-edges-only** graph from a replayable edge stream,
    /// without ever materializing an edge list.
    ///
    /// `sources` emits the source of every edge and counts the
    /// out-degrees; `edges` then emits the same edges in the same order and
    /// fills the CSR, so a stream whose targets are costly can skip them in
    /// the first pass. This is the full-scale loader: a dg1000-sized graph
    /// (~927 M edges) costs only the out-CSR itself (~4.5 GB) instead of
    /// the ~17 GB that [`Graph::from_edges`] needs for the edge list plus
    /// both CSR directions.
    ///
    /// The reverse CSR is left empty: [`Graph::in_neighbors`] and
    /// [`Graph::in_degree`] report no in-edges. Use this constructor only
    /// for forward-traversal algorithms (BFS, PageRank-by-push, SSSP).
    pub fn from_out_edges(
        n: u32,
        sources: impl FnOnce(&mut dyn FnMut(VertexId)),
        edges: impl FnOnce(&mut dyn FnMut(VertexId, VertexId)),
    ) -> Graph {
        let nu = n as usize;
        let mut offsets = vec![0u64; nu + 1];
        let mut m = 0u64;
        sources(&mut |s| {
            assert!((s as usize) < nu, "source {s} out of range");
            offsets[s as usize + 1] += 1;
            m += 1;
        });
        for i in 0..nu {
            offsets[i + 1] += offsets[i];
        }
        // Fill with `offsets[s]` as the cursor of `s`: afterwards it holds
        // the start of `s + 1`, so one shift restores the offsets.
        let mut out_targets = vec![0 as VertexId; m as usize];
        let mut m2 = 0u64;
        edges(&mut |s, t| {
            assert!((t as usize) < nu, "target {t} out of range");
            let c = &mut offsets[s as usize];
            out_targets[*c as usize] = t;
            *c += 1;
            m2 += 1;
        });
        assert_eq!(m, m2, "edge stream must replay identically across passes");
        offsets.copy_within(0..nu, 1);
        offsets[0] = 0;
        Graph {
            out_offsets: offsets,
            out_targets,
            in_offsets: vec![0u64; nu + 1],
            in_sources: Vec::new(),
            weights: None,
            in_weights: None,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u32 {
        (self.out_offsets.len() - 1) as u32
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> u64 {
        self.out_targets.len() as u64
    }

    /// Out-neighbours of `v`.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let (a, b) = (
            self.out_offsets[v as usize],
            self.out_offsets[v as usize + 1],
        );
        &self.out_targets[a as usize..b as usize]
    }

    /// In-neighbours of `v`.
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        let (a, b) = (self.in_offsets[v as usize], self.in_offsets[v as usize + 1]);
        &self.in_sources[a as usize..b as usize]
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: VertexId) -> u32 {
        (self.out_offsets[v as usize + 1] - self.out_offsets[v as usize]) as u32
    }

    /// In-degree of `v`.
    pub fn in_degree(&self, v: VertexId) -> u32 {
        (self.in_offsets[v as usize + 1] - self.in_offsets[v as usize]) as u32
    }

    /// Out-edge weights of `v` (parallel to [`Graph::neighbors`]); `None`
    /// when the graph is unweighted.
    pub fn edge_weights(&self, v: VertexId) -> Option<&[f32]> {
        let w = self.weights.as_ref()?;
        let (a, b) = (
            self.out_offsets[v as usize],
            self.out_offsets[v as usize + 1],
        );
        Some(&w[a as usize..b as usize])
    }

    /// In-edge weights of `v` (parallel to [`Graph::in_neighbors`]); `None`
    /// when the graph is unweighted.
    pub fn in_edge_weights(&self, v: VertexId) -> Option<&[f32]> {
        let w = self.in_weights.as_ref()?;
        let (a, b) = (self.in_offsets[v as usize], self.in_offsets[v as usize + 1]);
        Some(&w[a as usize..b as usize])
    }

    /// True when the graph carries edge weights.
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Iterates over all edges `(src, dst)` in CSR order.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.num_vertices()).flat_map(move |v| self.neighbors(v).iter().map(move |&t| (v, t)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        Graph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn csr_shape() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(3), &[] as &[u32]);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(3), 2);
    }

    #[test]
    fn reverse_csr_mirrors_forward() {
        let g = diamond();
        let mut ins = g.in_neighbors(3).to_vec();
        ins.sort_unstable();
        assert_eq!(ins, vec![1, 2]);
        assert_eq!(g.in_neighbors(0), &[] as &[u32]);
    }

    #[test]
    fn weights_parallel_neighbors() {
        let g = Graph::from_edges_weighted(3, &[(0, 1), (0, 2)], Some(&[0.5, 2.5]));
        assert!(g.is_weighted());
        assert_eq!(g.edge_weights(0), Some(&[0.5f32, 2.5][..]));
        assert_eq!(g.edge_weights(1), Some(&[][..]));
    }

    #[test]
    fn self_loops_and_duplicates_kept() {
        let g = Graph::from_edges(2, &[(0, 0), (0, 1), (0, 1)]);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(0), &[0, 1, 1]);
    }

    #[test]
    fn edges_iterator_roundtrips() {
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        Graph::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn from_out_edges_matches_from_edges_forward() {
        let edges = [(0u32, 1u32), (0, 2), (1, 3), (2, 3), (3, 3), (0, 1)];
        let dense = Graph::from_edges(4, &edges);
        let streamed = Graph::from_out_edges(
            4,
            |sink| edges.iter().for_each(|&(s, _)| sink(s)),
            |sink| edges.iter().for_each(|&(s, t)| sink(s, t)),
        );
        assert_eq!(streamed.num_vertices(), dense.num_vertices());
        assert_eq!(streamed.num_edges(), dense.num_edges());
        for v in 0..4 {
            assert_eq!(streamed.neighbors(v), dense.neighbors(v), "vertex {v}");
            assert_eq!(streamed.out_degree(v), dense.out_degree(v));
        }
        // The reverse direction is intentionally absent.
        assert_eq!(streamed.in_neighbors(3), &[] as &[u32]);
        assert_eq!(streamed.in_degree(3), 0);
    }

    #[test]
    #[should_panic(expected = "replay identically")]
    fn from_out_edges_rejects_diverging_streams() {
        Graph::from_out_edges(2, |sink| sink(0), |_| {});
    }
}
