//! Per-second resource-usage traces: the simulated "environment logs".
//!
//! The trace plays the role of the `sar`/`/proc` sampling a real Granula
//! deployment runs on every node: per second and per node, how much CPU time
//! was consumed and how many bytes moved through disk and network.

use serde::{Deserialize, Serialize};

use crate::intern::Symbol;
use crate::topology::{ClusterSpec, NodeId};

/// Which channel of the trace to read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Channel {
    /// Busy core-seconds per second (a node with 8 fully-busy cores shows 8.0).
    Cpu,
    /// Disk bytes per second.
    Disk,
    /// Network receive bytes per second.
    NetIn,
    /// Network transmit bytes per second.
    NetOut,
}

/// Accumulated per-node, per-bucket resource usage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UsageTrace {
    /// Bucket width in microseconds (default: one second).
    pub bucket_us: u64,
    /// Interned node names — `Copy`-cheap records, no per-trace `String`
    /// clones; serde round-trips them as text so archives stay portable.
    node_names: Vec<Symbol>,
    cpu: Vec<Vec<f64>>,
    disk: Vec<Vec<f64>>,
    net_in: Vec<Vec<f64>>,
    net_out: Vec<Vec<f64>>,
}

impl UsageTrace {
    /// An empty trace for `cluster` with one-second buckets.
    pub fn new(cluster: &ClusterSpec) -> Self {
        Self::with_bucket(cluster, 1_000_000)
    }

    /// An empty trace with a custom bucket width.
    pub fn with_bucket(cluster: &ClusterSpec, bucket_us: u64) -> Self {
        assert!(bucket_us > 0, "bucket width must be positive");
        let n = cluster.len();
        UsageTrace {
            bucket_us,
            node_names: cluster
                .nodes
                .iter()
                .map(|s| Symbol::intern(&s.name))
                .collect(),
            cpu: vec![Vec::new(); n],
            disk: vec![Vec::new(); n],
            net_in: vec![Vec::new(); n],
            net_out: vec![Vec::new(); n],
        }
    }

    /// Node names in [`NodeId`] order, as interned symbols
    /// ([`Symbol::as_str`] resolves the text).
    pub fn node_names(&self) -> &[Symbol] {
        &self.node_names
    }

    /// Accumulates a constant-rate usage of `rate` (unit/µs) on `node` over
    /// `[t0_us, t1_us)` into the channel. For CPU the rate is in cores, so a
    /// bucket's value is busy core-seconds within that second.
    #[doc(hidden)]
    pub fn add(&mut self, ch: Channel, node: NodeId, t0_us: f64, t1_us: f64, rate: f64) {
        if t1_us <= t0_us || rate <= 0.0 {
            return;
        }
        let bucket = self.bucket_us as f64;
        let series = self.series_mut(ch, node);
        let scale = match ch {
            // cores * µs -> core-seconds
            Channel::Cpu => 1e-6,
            // bytes/µs * µs -> bytes; buckets are per second already
            _ => 1.0,
        };
        let first = (t0_us / bucket).floor() as usize;
        let last = ((t1_us / bucket).ceil() as usize).max(first + 1);
        if series.len() < last {
            series.resize(last, 0.0);
        }
        // Slice from `first` directly — a skip() over the full series would
        // cost O(first) per call, which adds up for spans late in long runs.
        for (off, slot) in series[first..last].iter_mut().enumerate() {
            let lo = ((first + off) as f64) * bucket;
            let hi = lo + bucket;
            let overlap = (t1_us.min(hi) - t0_us.max(lo)).max(0.0);
            *slot += rate * overlap * scale;
        }
    }

    fn series_mut(&mut self, ch: Channel, node: NodeId) -> &mut Vec<f64> {
        let i = node.0 as usize;
        match ch {
            Channel::Cpu => &mut self.cpu[i],
            Channel::Disk => &mut self.disk[i],
            Channel::NetIn => &mut self.net_in[i],
            Channel::NetOut => &mut self.net_out[i],
        }
    }

    fn series_ref(&self, ch: Channel, node: NodeId) -> &[f64] {
        let i = node.0 as usize;
        match ch {
            Channel::Cpu => &self.cpu[i],
            Channel::Disk => &self.disk[i],
            Channel::NetIn => &self.net_in[i],
            Channel::NetOut => &self.net_out[i],
        }
    }

    /// The `(bucket_start_us, value)` series of a node and channel.
    pub fn series(&self, ch: Channel, node: NodeId) -> Vec<(u64, f64)> {
        self.series_ref(ch, node)
            .iter()
            .enumerate()
            .map(|(b, &v)| (b as u64 * self.bucket_us, v))
            .collect()
    }

    /// Cluster-wide sum per bucket for a channel (Figures 6–7's cumulative
    /// CPU line).
    pub fn cumulative(&self, ch: Channel) -> Vec<(u64, f64)> {
        let n_buckets = (0..self.node_names.len())
            .map(|i| self.series_ref(ch, NodeId(i as u16)).len())
            .max()
            .unwrap_or(0);
        (0..n_buckets)
            .map(|b| {
                let sum: f64 = (0..self.node_names.len())
                    .map(|i| {
                        self.series_ref(ch, NodeId(i as u16))
                            .get(b)
                            .copied()
                            .unwrap_or(0.0)
                    })
                    .sum();
                (b as u64 * self.bucket_us, sum)
            })
            .collect()
    }

    /// Peak cluster-wide value of a channel.
    pub fn peak(&self, ch: Channel) -> f64 {
        self.cumulative(ch)
            .into_iter()
            .map(|(_, v)| v)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::NodeSpec;

    fn cluster() -> ClusterSpec {
        ClusterSpec::homogeneous(
            2,
            NodeSpec {
                name: String::new(),
                cores: 8,
                disk_bps: 1e8,
                nic_bps: 1e8,
                mem_bytes: 1,
            },
        )
    }

    #[test]
    fn cpu_accumulates_core_seconds_per_bucket() {
        let mut t = UsageTrace::new(&cluster());
        // 4 cores busy for 2.5 seconds starting at t=0.
        t.add(Channel::Cpu, NodeId(0), 0.0, 2_500_000.0, 4.0);
        let s = t.series(Channel::Cpu, NodeId(0));
        assert_eq!(s.len(), 3);
        assert!((s[0].1 - 4.0).abs() < 1e-9);
        assert!((s[1].1 - 4.0).abs() < 1e-9);
        assert!((s[2].1 - 2.0).abs() < 1e-9); // half of the third second
    }

    #[test]
    fn spans_crossing_bucket_boundaries_split_proportionally() {
        let mut t = UsageTrace::new(&cluster());
        t.add(Channel::Cpu, NodeId(0), 500_000.0, 1_500_000.0, 2.0);
        let s = t.series(Channel::Cpu, NodeId(0));
        assert!((s[0].1 - 1.0).abs() < 1e-9);
        assert!((s[1].1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cumulative_sums_nodes() {
        let mut t = UsageTrace::new(&cluster());
        t.add(Channel::Cpu, NodeId(0), 0.0, 1_000_000.0, 3.0);
        t.add(Channel::Cpu, NodeId(1), 0.0, 1_000_000.0, 5.0);
        let c = t.cumulative(Channel::Cpu);
        assert_eq!(c.len(), 1);
        assert!((c[0].1 - 8.0).abs() < 1e-9);
        assert!((t.peak(Channel::Cpu) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn zero_or_negative_spans_ignored() {
        let mut t = UsageTrace::new(&cluster());
        t.add(Channel::Disk, NodeId(0), 5.0, 5.0, 100.0);
        t.add(Channel::Disk, NodeId(0), 10.0, 5.0, 100.0);
        assert!(t.series(Channel::Disk, NodeId(0)).is_empty());
    }

    #[test]
    fn disk_bytes_accumulate_raw() {
        let mut t = UsageTrace::new(&cluster());
        // 100 bytes/µs over 1s = 1e8 bytes in the bucket.
        t.add(Channel::Disk, NodeId(0), 0.0, 1_000_000.0, 100.0);
        let s = t.series(Channel::Disk, NodeId(0));
        assert!((s[0].1 - 1e8).abs() < 1.0);
    }
}
