//! Environment monitoring: resource-usage time series per cluster node.
//!
//! Environment logs "reveal the performance impact on the underlying cluster
//! environment" (paper §3.3). Granula maps fine-grained resource data, such
//! as per-node CPU usage, onto the corresponding system operations —
//! Figures 6 and 7 of the paper are exactly this mapping.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use granula_model::{Info, InfoValue, OperationTree};

/// The resource a sample measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ResourceKind {
    /// CPU time consumed per second of wall time (i.e. busy cores).
    Cpu,
    /// Resident memory, bytes.
    Memory,
    /// Network throughput, bytes/second.
    Network,
    /// Disk throughput, bytes/second.
    Disk,
}

/// One environment-monitor sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResourceSample {
    /// Sample time, microseconds since job epoch.
    pub time_us: u64,
    /// Node the sample was taken on.
    pub node: String,
    /// Resource measured.
    pub kind: ResourceKind,
    /// Value in the resource's unit (busy cores for CPU, bytes for memory,
    /// bytes/s for network and disk).
    pub value: f64,
}

/// Aggregate usage of one node over some interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeUsage {
    /// Node name.
    pub node: String,
    /// Mean value over the interval.
    pub mean: f64,
    /// Peak value over the interval.
    pub peak: f64,
    /// Number of samples in the interval.
    pub samples: usize,
}

/// The environment log of one experiment: samples per (node, resource),
/// sorted by time.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EnvLog {
    series: BTreeMap<(String, ResourceKind), Vec<(u64, f64)>>,
}

impl EnvLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingests one sample (samples may arrive out of order).
    pub fn push(&mut self, sample: ResourceSample) {
        let series = self.series.entry((sample.node, sample.kind)).or_default();
        series.push((sample.time_us, sample.value));
        // Keep sorted; samples are usually appended in order so this is O(1).
        let n = series.len();
        if n > 1 && series[n - 2].0 > series[n - 1].0 {
            series.sort_by_key(|&(t, _)| t);
        }
    }

    /// Ingests many samples.
    pub fn extend(&mut self, samples: impl IntoIterator<Item = ResourceSample>) {
        for s in samples {
            self.push(s);
        }
    }

    /// All node names that have at least one sample.
    pub fn nodes(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self.series.keys().map(|(n, _)| n.as_str()).collect();
        out.dedup();
        out
    }

    /// The full series for a node and resource.
    pub fn series(&self, node: &str, kind: ResourceKind) -> Option<&[(u64, f64)]> {
        self.series
            .get(&(node.to_string(), kind))
            .map(Vec::as_slice)
    }

    /// Samples of a node/resource within `[start_us, end_us)`.
    pub fn window(
        &self,
        node: &str,
        kind: ResourceKind,
        start_us: u64,
        end_us: u64,
    ) -> &[(u64, f64)] {
        let Some(series) = self.series(node, kind) else {
            return &[];
        };
        let lo = series.partition_point(|&(t, _)| t < start_us);
        let hi = series.partition_point(|&(t, _)| t < end_us);
        &series[lo..hi]
    }

    /// Aggregate usage of a node/resource within an interval. Operations
    /// shorter than the sampling period fall back to the sample covering
    /// their start (samples describe the bucket *starting* at their
    /// timestamp).
    pub fn usage(
        &self,
        node: &str,
        kind: ResourceKind,
        start_us: u64,
        end_us: u64,
    ) -> Option<NodeUsage> {
        let mut w = self.window(node, kind, start_us, end_us);
        if w.is_empty() {
            // Fall back to the covering bucket: the last sample at or
            // before `start_us`, provided the series extends past it.
            let series = self.series(node, kind)?;
            let idx = series.partition_point(|&(t, _)| t <= start_us);
            if idx == 0 {
                return None;
            }
            w = &series[idx - 1..idx];
        }
        let sum: f64 = w.iter().map(|&(_, v)| v).sum();
        let peak = w.iter().map(|&(_, v)| v).fold(f64::NEG_INFINITY, f64::max);
        Some(NodeUsage {
            node: node.to_string(),
            mean: sum / w.len() as f64,
            peak,
            samples: w.len(),
        })
    }

    /// Cluster-wide cumulative series: at every sample time of any node, the
    /// sum of the latest value of each node (step-wise). This is the
    /// "cumulative CPU usage of distributed Linux processes" of Figures 6-7.
    pub fn cumulative(&self, kind: ResourceKind) -> Vec<(u64, f64)> {
        let mut nodes: Vec<&Vec<(u64, f64)>> = self
            .series
            .iter()
            .filter(|((_, k), _)| *k == kind)
            .map(|(_, v)| v)
            .collect();
        nodes.retain(|s| !s.is_empty());
        if nodes.is_empty() {
            return vec![];
        }
        let mut times: Vec<u64> = nodes
            .iter()
            .flat_map(|s| s.iter().map(|&(t, _)| t))
            .collect();
        times.sort_unstable();
        times.dedup();
        let mut cursors = vec![0usize; nodes.len()];
        let mut latest = vec![0.0f64; nodes.len()];
        let mut out = Vec::with_capacity(times.len());
        for t in times {
            for (i, s) in nodes.iter().enumerate() {
                while cursors[i] < s.len() && s[cursors[i]].0 <= t {
                    latest[i] = s[cursors[i]].1;
                    cursors[i] += 1;
                }
            }
            out.push((t, latest.iter().sum()));
        }
        out
    }

    /// **Operation mapping** (paper §4.3): attach, to every operation in the
    /// tree that has timestamps and a `Node` info, the mean and peak usage of
    /// `kind` on that node during the operation's interval, as infos
    /// `"<Kind>Mean"` / `"<Kind>Peak"`. Operations without a node get the
    /// cluster-wide aggregate. Returns the number of operations annotated.
    pub fn map_to_operations(&self, tree: &mut OperationTree, kind: ResourceKind) -> usize {
        let (mean_name, peak_name) = match kind {
            ResourceKind::Cpu => ("CpuMean", "CpuPeak"),
            ResourceKind::Memory => ("MemoryMean", "MemoryPeak"),
            ResourceKind::Network => ("NetworkMean", "NetworkPeak"),
            ResourceKind::Disk => ("DiskMean", "DiskPeak"),
        };
        let mut annotated = 0;
        for id in tree.dfs() {
            let op = tree.op(id);
            let (Some(s), Some(e)) = (op.start_us(), op.end_us()) else {
                continue;
            };
            let node = op
                .info_value(granula_model::names::NODE)
                .and_then(|v| v.as_text())
                .map(str::to_string);
            let usage = match &node {
                Some(n) => self.usage(n, kind, s, e),
                None => {
                    // Cluster-wide view for node-less (job-level) operations.
                    let cum = self.cumulative(kind);
                    let w: Vec<&(u64, f64)> =
                        cum.iter().filter(|&&(t, _)| t >= s && t < e).collect();
                    if w.is_empty() {
                        None
                    } else {
                        let sum: f64 = w.iter().map(|&&(_, v)| v).sum();
                        let peak = w.iter().map(|&&(_, v)| v).fold(f64::NEG_INFINITY, f64::max);
                        Some(NodeUsage {
                            node: "<cluster>".into(),
                            mean: sum / w.len() as f64,
                            peak,
                            samples: w.len(),
                        })
                    }
                }
            };
            if let Some(u) = usage {
                let op = tree.op_mut(id);
                op.set_info(Info::raw(mean_name, InfoValue::Float(u.mean)));
                op.set_info(Info::raw(peak_name, InfoValue::Float(u.peak)));
                annotated += 1;
            }
        }
        annotated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use granula_model::{names, Actor, Mission};

    fn sample(t: u64, node: &str, v: f64) -> ResourceSample {
        ResourceSample {
            time_us: t,
            node: node.into(),
            kind: ResourceKind::Cpu,
            value: v,
        }
    }

    #[test]
    fn window_selects_half_open_interval() {
        let mut log = EnvLog::new();
        log.extend([
            sample(0, "n0", 1.0),
            sample(10, "n0", 2.0),
            sample(20, "n0", 3.0),
        ]);
        let w = log.window("n0", ResourceKind::Cpu, 0, 20);
        assert_eq!(w, &[(0, 1.0), (10, 2.0)]);
    }

    #[test]
    fn out_of_order_samples_get_sorted() {
        let mut log = EnvLog::new();
        log.extend([sample(20, "n0", 3.0), sample(0, "n0", 1.0)]);
        assert_eq!(log.series("n0", ResourceKind::Cpu).unwrap()[0].0, 0);
    }

    #[test]
    fn usage_mean_and_peak() {
        let mut log = EnvLog::new();
        log.extend([
            sample(0, "n0", 1.0),
            sample(10, "n0", 5.0),
            sample(20, "n0", 3.0),
        ]);
        let u = log.usage("n0", ResourceKind::Cpu, 0, 30).unwrap();
        assert_eq!(u.mean, 3.0);
        assert_eq!(u.peak, 5.0);
        assert_eq!(u.samples, 3);
    }

    #[test]
    fn cumulative_sums_latest_per_node() {
        let mut log = EnvLog::new();
        log.extend([
            sample(0, "n0", 1.0),
            sample(0, "n1", 2.0),
            sample(10, "n0", 4.0),
        ]);
        let c = log.cumulative(ResourceKind::Cpu);
        assert_eq!(c, vec![(0, 3.0), (10, 6.0)]);
    }

    #[test]
    fn cumulative_empty_for_unmeasured_resource() {
        let mut log = EnvLog::new();
        log.push(sample(0, "n0", 1.0));
        assert!(log.cumulative(ResourceKind::Disk).is_empty());
    }

    #[test]
    fn map_to_operations_annotates_node_bound_ops() {
        let mut log = EnvLog::new();
        log.extend([
            sample(0, "n0", 2.0),
            sample(10, "n0", 4.0),
            sample(20, "n0", 6.0),
        ]);
        let mut tree = OperationTree::new();
        let root = tree
            .add_root(Actor::new("Job", "0"), Mission::new("Job", "0"))
            .unwrap();
        tree.set_info(root, Info::raw(names::START_TIME, InfoValue::Int(0)))
            .unwrap();
        tree.set_info(root, Info::raw(names::END_TIME, InfoValue::Int(15)))
            .unwrap();
        tree.set_info(root, Info::raw(names::NODE, InfoValue::Text("n0".into())))
            .unwrap();
        let n = log.map_to_operations(&mut tree, ResourceKind::Cpu);
        assert_eq!(n, 1);
        assert_eq!(tree.op(root).info_f64("CpuMean"), Some(3.0));
        assert_eq!(tree.op(root).info_f64("CpuPeak"), Some(4.0));
    }

    #[test]
    fn map_to_operations_uses_cluster_view_without_node() {
        let mut log = EnvLog::new();
        log.extend([sample(0, "n0", 1.0), sample(0, "n1", 2.0)]);
        let mut tree = OperationTree::new();
        let root = tree
            .add_root(Actor::new("Job", "0"), Mission::new("Job", "0"))
            .unwrap();
        tree.set_info(root, Info::raw(names::START_TIME, InfoValue::Int(0)))
            .unwrap();
        tree.set_info(root, Info::raw(names::END_TIME, InfoValue::Int(10)))
            .unwrap();
        log.map_to_operations(&mut tree, ResourceKind::Cpu);
        assert_eq!(tree.op(root).info_f64("CpuMean"), Some(3.0));
    }

    #[test]
    fn nodes_lists_each_node_once() {
        let mut log = EnvLog::new();
        log.extend([
            sample(0, "n0", 1.0),
            sample(1, "n0", 1.0),
            sample(0, "n1", 1.0),
        ]);
        assert_eq!(log.nodes(), vec!["n0", "n1"]);
    }
}
