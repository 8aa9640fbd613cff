//! Cluster topology: nodes and their raw capacities.

use serde::{Deserialize, Serialize};

/// Index of a node within a [`ClusterSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u16);

/// Capacities of one compute node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Hostname, e.g. `"node340"`.
    pub name: String,
    /// Hardware threads available to jobs (the sharing unit of the CPU
    /// resource).
    pub cores: u32,
    /// Local disk bandwidth, bytes/second.
    pub disk_bps: f64,
    /// NIC bandwidth (full duplex; same capacity each direction), bytes/second.
    pub nic_bps: f64,
    /// Main memory, bytes. Tracked for archive metadata; the simulator does
    /// not currently model memory pressure.
    pub mem_bytes: u64,
}

/// The simulated cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// All nodes, indexed by [`NodeId`].
    pub nodes: Vec<NodeSpec>,
    /// Aggregate bandwidth of the shared-filesystem server, bytes/second.
    /// Used by [`crate::ActivityKind::SharedRead`] activities.
    pub shared_fs_bps: f64,
}

impl ClusterSpec {
    /// A homogeneous cluster of `n` identical nodes.
    pub fn homogeneous(n: u16, spec: NodeSpec) -> Self {
        let nodes = (0..n)
            .map(|i| NodeSpec {
                name: format!("node{:03}", 300 + i),
                ..spec.clone()
            })
            .collect();
        ClusterSpec {
            nodes,
            shared_fs_bps: 1.0e9,
        }
    }

    /// A DAS5-like cluster: dual 8-core Xeon (32 hardware threads), 10 Gbit/s
    /// interconnect, local spinning disks, NFS-style shared storage.
    pub fn das5(n: u16) -> Self {
        let mut c = Self::homogeneous(
            n,
            NodeSpec {
                name: String::new(),
                cores: 32,
                disk_bps: 400.0e6,
                nic_bps: 1.25e9, // 10 Gbit/s
                mem_bytes: 64 << 30,
            },
        );
        c.shared_fs_bps = 1.0e9;
        c
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Borrow a node spec.
    pub fn node(&self, id: NodeId) -> &NodeSpec {
        &self.nodes[id.0 as usize]
    }

    /// Iterate over `(NodeId, &NodeSpec)`.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &NodeSpec)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u16), n))
    }

    /// Look up a node by name.
    pub fn by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|n| n.name == name)
            .map(|i| NodeId(i as u16))
    }

    /// Total core count across the cluster.
    pub fn total_cores(&self) -> u32 {
        self.nodes.iter().map(|n| n.cores).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn das5_preset_shape() {
        let c = ClusterSpec::das5(8);
        assert_eq!(c.len(), 8);
        assert_eq!(c.total_cores(), 256);
        assert_eq!(c.node(NodeId(0)).cores, 32);
        assert!(c.nodes.iter().all(|n| n.name.starts_with("node3")));
    }

    #[test]
    fn names_are_unique_and_resolvable() {
        let c = ClusterSpec::das5(4);
        for (id, n) in c.iter() {
            assert_eq!(c.by_name(&n.name), Some(id));
        }
        assert_eq!(c.by_name("nosuch"), None);
    }
}
