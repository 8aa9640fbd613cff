//! Synthetic graph generators.
//!
//! `dg1000` — the LDBC Datagen graph of the paper — is a social network
//! with a heavily skewed degree distribution. [`datagen_like`] reproduces
//! that shape: vertex "popularity" follows a truncated power law, sources
//! are chosen uniformly-ish and destinations proportionally to popularity,
//! which yields the hub structure that drives PowerGraph-style vertex-cuts
//! and Pregel-style superstep imbalance; [`datagen_like_full`] builds the
//! same graph out-CSR only, for full-scale runs. [`rmat`] and [`uniform`]
//! cover the other common benchmark families.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::graph::{Graph, VertexId};

/// Parameters of the Datagen-like generator.
#[derive(Debug, Clone, PartialEq)]
pub struct GenConfig {
    /// Number of vertices.
    pub vertices: u32,
    /// Target number of directed edges.
    pub edges: u64,
    /// Power-law exponent of the popularity distribution (Datagen's degree
    /// tail is roughly `alpha ≈ 2.2`).
    pub alpha: f64,
    /// RNG seed; identical configs produce identical graphs.
    pub seed: u64,
}

impl GenConfig {
    /// A convenient scaled-down Datagen-like config: `scale` vertices with
    /// average degree 9 (close to dg1000's edge/vertex ratio).
    pub fn datagen(scale: u32, seed: u64) -> Self {
        GenConfig {
            vertices: scale,
            edges: scale as u64 * 9,
            alpha: 2.2,
            seed,
        }
    }
}

/// Generates a Datagen-like directed graph with a power-law in-degree tail.
pub fn datagen_like(cfg: &GenConfig) -> Graph {
    let (sampler, rng) = popularity(cfg);
    let mut edges = Vec::with_capacity(cfg.edges as usize);
    stream_edges(cfg, &sampler, rng, true, |s, t| edges.push((s, t)));
    // The table is not needed for the CSR build; free it before the peak.
    drop(sampler);
    Graph::from_edges(cfg.vertices, &edges)
}

/// Generates the same graph as [`datagen_like`] as out-CSR only, replaying
/// its edge stream twice through [`Graph::from_out_edges`] instead of
/// holding an edge list. The counting pass skips the target draws (the RNG
/// still advances past them). Memory high-water is the out-CSR plus the
/// sampler (~6 GB for dg1000's 103 M vertices / 927 M edges). No reverse
/// CSR is built, so only forward traversals work on the result.
pub fn datagen_like_full(cfg: &GenConfig) -> Graph {
    let (sampler, rng) = popularity(cfg);
    Graph::from_out_edges(
        cfg.vertices,
        |sink| stream_edges(cfg, &sampler, rng.clone(), false, |s, _| sink(s)),
        |sink| stream_edges(cfg, &sampler, rng.clone(), true, sink),
    )
}

/// The popularity weight of every vertex: `1/(rank+1)^(1/(alpha-1))`
/// (Zipf-like) over a seed-determined random permutation of the vertices,
/// so hubs are not clustered at low ids. Also returns the RNG positioned
/// after the permutation, where the edge stream starts.
pub fn popularity_weights(cfg: &GenConfig) -> (Vec<f64>, StdRng) {
    assert!(cfg.vertices > 0, "need at least one vertex");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n = cfg.vertices;
    let exponent = 1.0 / (cfg.alpha - 1.0).max(0.1);
    let mut perm: Vec<u32> = (0..n).collect();
    for i in (1..n as usize).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    let mut weight = vec![0.0f64; n as usize];
    for (rank, &v) in perm.iter().enumerate() {
        weight[v as usize] = 1.0 / ((rank + 1) as f64).powf(exponent);
    }
    (weight, rng)
}

fn popularity(cfg: &GenConfig) -> (WeightedSampler, StdRng) {
    let (weight, rng) = popularity_weights(cfg);
    (WeightedSampler::new(&weight), rng)
}

/// Emits `cfg.edges` Datagen-like edges into `emit`, drawing from `rng`.
/// Sources are mildly skewed too (active users post more); destinations
/// follow popularity. Without `targets`, every target draw is skipped and
/// 0 is emitted in its place; the sources stay the same.
fn stream_edges<F: FnMut(VertexId, VertexId)>(
    cfg: &GenConfig,
    sampler: &WeightedSampler,
    mut rng: StdRng,
    targets: bool,
    mut emit: F,
) {
    let n = cfg.vertices;
    for _ in 0..cfg.edges {
        let src = if rng.gen_bool(0.3) {
            sampler.sample(&mut rng) as VertexId
        } else {
            rng.gen_range(0..n)
        };
        if !targets {
            sampler.skip(&mut rng);
            emit(src, 0);
            continue;
        }
        let mut dst = sampler.sample(&mut rng) as VertexId;
        if dst == src {
            dst = (dst + 1) % n;
        }
        emit(src, dst);
    }
}

/// Guide-table buckets per weight. Draws are uniform over the buckets, so
/// a draw reads on average at most `1 / BUCKETS_PER_WEIGHT` running sums.
const BUCKETS_PER_WEIGHT: usize = 2;

/// Draws an index with probability proportional to its weight, in O(1)
/// expected time per draw.
///
/// For every RNG state it returns exactly the index `WeightedIndex` of
/// the workspace's `rand` (`shims/rand`) returns: both take one
/// `rng.gen::<f64>() * total` draw and look for the first index whose
/// running sum exceeds it. Instead of a binary search, a guide table
/// splits `[0, total)` into equal buckets; each bucket holds the first
/// index whose running sum falls in it or above, which bounds the answer
/// from below, and the next bucket's entry bounds it from above. A bucket
/// that lies inside one index's interval thus yields the answer without
/// touching the running sums. A draw that equals a running sum exactly
/// falls back to `WeightedIndex`'s own binary search, so even its tie and
/// clamp behaviour is reproduced.
#[derive(Debug, Clone)]
pub struct WeightedSampler {
    /// Running sums of the weights, accumulated in index order.
    cumulative: Vec<f64>,
    /// The last running sum.
    total: f64,
    /// Buckets per unit of weight.
    scale: f64,
    /// Index of the last bucket.
    last_bucket: usize,
    /// `guide[b]`: the first index whose running sum lies in bucket `b` or
    /// a later one (`cumulative.len()` if none); one entry per bucket plus
    /// a final sentinel.
    guide: Vec<u32>,
}

impl WeightedSampler {
    /// Builds the sampler in O(n). Weights must be finite and non-negative
    /// and sum to a positive finite value.
    pub fn new(weights: &[f64]) -> WeightedSampler {
        let n = weights.len();
        assert!(n > 0 && n < u32::MAX as usize, "bad table size {n}");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for &w in weights {
            assert!(w.is_finite() && w >= 0.0, "invalid weight {w}");
            total += w;
            cumulative.push(total);
        }
        assert!(
            total.is_finite() && total > 0.0,
            "weights must sum to a positive finite value"
        );
        let buckets = n * BUCKETS_PER_WEIGHT;
        let mut sampler = WeightedSampler {
            cumulative,
            total,
            scale: buckets as f64 / total,
            last_bucket: buckets - 1,
            guide: Vec::with_capacity(buckets + 1),
        };
        let mut i = 0;
        for b in 0..=buckets {
            while i < n && sampler.bucket(sampler.cumulative[i]) < b {
                i += 1;
            }
            sampler.guide.push(i as u32);
        }
        sampler
    }

    /// The bucket of a point in `[0, total]`: monotone in `x`, which is
    /// all the guide's bounds rely on.
    #[inline]
    fn bucket(&self, x: f64) -> usize {
        ((x * self.scale) as usize).min(self.last_bucket)
    }

    /// Draws one index.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let x = rng.gen::<f64>() * self.total;
        let b = self.bucket(x);
        let (mut i, end) = (self.guide[b] as usize, self.guide[b + 1] as usize);
        // Every running sum before `guide[b]` is below `x` and the one at
        // `guide[b + 1]` above it.
        while i < end {
            let c = self.cumulative[i];
            if c > x {
                break;
            }
            if c == x {
                return self.search(x);
            }
            i += 1;
        }
        i
    }

    /// Advances `rng` exactly as [`WeightedSampler::sample`] does, without
    /// the lookup.
    pub fn skip<R: Rng + ?Sized>(&self, rng: &mut R) {
        let _: f64 = rng.gen();
    }

    /// `WeightedIndex`'s lookup: a binary search, clamped to the last
    /// index.
    fn search(&self, x: f64) -> usize {
        let last = self.cumulative.len() - 1;
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&x).expect("finite weights"))
        {
            Ok(i) => (i + 1).min(last),
            Err(i) => i.min(last),
        }
    }
}

/// Generates an R-MAT (Kronecker) graph: `2^scale` vertices, `edges` edges,
/// with the canonical Graph500 probabilities `(a, b, c) = (0.57, 0.19, 0.19)`.
pub fn rmat(scale: u32, edges: u64, seed: u64) -> Graph {
    let n: u32 = 1 << scale;
    let (a, b, c) = (0.57, 0.19, 0.19);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut list = Vec::with_capacity(edges as usize);
    for _ in 0..edges {
        let (mut x, mut y) = (0u32, 0u32);
        for bit in (0..scale).rev() {
            let r: f64 = rng.gen();
            let (dx, dy) = if r < a {
                (0, 0)
            } else if r < a + b {
                (0, 1)
            } else if r < a + b + c {
                (1, 0)
            } else {
                (1, 1)
            };
            x |= dx << bit;
            y |= dy << bit;
        }
        list.push((x, y));
    }
    Graph::from_edges(n, &list)
}

/// Generates a uniform (Erdős–Rényi G(n, m)) directed graph.
pub fn uniform(n: u32, m: u64, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut list = Vec::with_capacity(m as usize);
    for _ in 0..m {
        list.push((rng.gen_range(0..n), rng.gen_range(0..n)));
    }
    Graph::from_edges(n, &list)
}

/// Attaches uniform random weights in `(0, max_w]` to a graph's edges,
/// producing the weighted variant used by SSSP.
pub fn with_uniform_weights(g: &Graph, max_w: f32, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let edges: Vec<(VertexId, VertexId)> = g.edges().collect();
    let weights: Vec<f32> = edges
        .iter()
        .map(|_| rng.gen::<f32>() * max_w + 1e-3)
        .collect();
    Graph::from_edges_weighted(g.num_vertices(), &edges, Some(&weights))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::DegreeStats;

    #[test]
    fn datagen_is_deterministic() {
        let cfg = GenConfig::datagen(1_000, 42);
        let g1 = datagen_like(&cfg);
        let g2 = datagen_like(&cfg);
        assert_eq!(g1, g2);
        assert_eq!(g1.num_vertices(), 1_000);
        assert_eq!(g1.num_edges(), 9_000);
    }

    #[test]
    fn datagen_seeds_differ() {
        let g1 = datagen_like(&GenConfig::datagen(1_000, 1));
        let g2 = datagen_like(&GenConfig::datagen(1_000, 2));
        assert_ne!(g1, g2);
    }

    #[test]
    fn datagen_in_degree_is_skewed() {
        let g = datagen_like(&GenConfig::datagen(5_000, 7));
        let stats = DegreeStats::in_degrees(&g);
        // Hubs exist: max in-degree far above the mean.
        assert!(
            stats.max as f64 > 20.0 * stats.mean,
            "max={} mean={}",
            stats.max,
            stats.mean
        );
    }

    #[test]
    fn datagen_has_no_self_loops() {
        let g = datagen_like(&GenConfig::datagen(2_000, 3));
        assert!(g.edges().all(|(s, t)| s != t));
    }

    #[test]
    fn rmat_shape() {
        let g = rmat(10, 16_000, 5);
        assert_eq!(g.num_vertices(), 1024);
        assert_eq!(g.num_edges(), 16_000);
        let stats = DegreeStats::out_degrees(&g);
        assert!(stats.max > 100, "R-MAT should have hubs, max={}", stats.max);
    }

    #[test]
    fn uniform_has_no_heavy_hubs() {
        let g = uniform(1_000, 10_000, 5);
        let stats = DegreeStats::out_degrees(&g);
        // Binomial(10_000, 1/1000): mean 10, tail far below 100.
        assert!(stats.max < 50, "max={}", stats.max);
    }

    #[test]
    fn weights_attach_to_every_edge() {
        let g = uniform(100, 500, 9);
        let w = with_uniform_weights(&g, 10.0, 11);
        assert!(w.is_weighted());
        assert_eq!(w.num_edges(), 500);
        for v in 0..w.num_vertices() {
            let ws = w.edge_weights(v).unwrap();
            assert!(ws.iter().all(|&x| x > 0.0 && x <= 10.0 + 1e-2));
        }
    }
}
