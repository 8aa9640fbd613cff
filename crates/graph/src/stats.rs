//! Degree statistics: the structural properties the cost models consume.

use crate::graph::Graph;

/// Summary statistics of a degree distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// Smallest degree.
    pub min: u32,
    /// Largest degree.
    pub max: u32,
    /// Mean degree.
    pub mean: f64,
    /// Degree at the 99th percentile.
    pub p99: u32,
    /// Gini coefficient of the degrees — 0 for perfectly regular graphs,
    /// approaching 1 for extreme hub concentration. A robust skew measure
    /// that does not assume an exact power law.
    pub gini: f64,
}

impl DegreeStats {
    /// Statistics of the out-degree distribution.
    pub fn out_degrees(g: &Graph) -> DegreeStats {
        Self::from_degrees((0..g.num_vertices()).map(|v| g.out_degree(v)).collect())
    }

    /// Statistics of the in-degree distribution.
    pub fn in_degrees(g: &Graph) -> DegreeStats {
        Self::from_degrees((0..g.num_vertices()).map(|v| g.in_degree(v)).collect())
    }

    /// Builds stats from a raw degree vector.
    pub fn from_degrees(mut degrees: Vec<u32>) -> DegreeStats {
        assert!(!degrees.is_empty(), "degree vector must be non-empty");
        degrees.sort_unstable();
        let n = degrees.len();
        let sum: u64 = degrees.iter().map(|&d| d as u64).sum();
        let mean = sum as f64 / n as f64;
        let p99 = degrees[((n - 1) as f64 * 0.99) as usize];
        // Gini from the sorted vector: G = (2*sum(i*x_i)/(n*sum) - (n+1)/n).
        let gini = if sum == 0 {
            0.0
        } else {
            let weighted: f64 = degrees
                .iter()
                .enumerate()
                .map(|(i, &d)| (i as f64 + 1.0) * d as f64)
                .sum();
            (2.0 * weighted / (n as f64 * sum as f64)) - (n as f64 + 1.0) / n as f64
        };
        DegreeStats {
            min: degrees[0],
            max: degrees[n - 1],
            mean,
            p99,
            gini,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regular_degrees_have_zero_gini() {
        let s = DegreeStats::from_degrees(vec![4; 100]);
        assert_eq!(s.min, 4);
        assert_eq!(s.max, 4);
        assert!((s.gini).abs() < 1e-9);
    }

    #[test]
    fn single_hub_has_high_gini() {
        let mut d = vec![0u32; 99];
        d.push(1000);
        let s = DegreeStats::from_degrees(d);
        assert!(s.gini > 0.95, "gini={}", s.gini);
        assert_eq!(s.max, 1000);
    }

    #[test]
    fn mean_and_percentile() {
        let s = DegreeStats::from_degrees((1..=100).collect());
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert_eq!(s.p99, 99);
    }
}
