//! The HDFS-like distributed file system: how a logical read or write
//! decomposes into disk and network activities.
//!
//! Table 1 of the paper distinguishes platforms by their file system.
//! Giraph and GraphX read their input from and write their output to
//! HDFS, which this module models: data-local reads with a remainder
//! served by a remote replica, and a replication pipeline on writes.
//! Platforms on local or shared storage add
//! [`ActivityKind::DiskRead`] or [`ActivityKind::SharedRead`] activities
//! directly.

use crate::activity::{ActivityGraph, ActivityId, ActivityKind};
use crate::topology::{ClusterSpec, NodeId};

/// Fraction of a node's read that local replicas satisfy (data-local task
/// placement usually achieves 0.7–0.95).
const LOCALITY: f64 = 0.85;

/// Replication factor of writes (the HDFS default).
const REPLICATION: u32 = 3;

/// The replica holder after `node`: a deterministic neighbour choice.
fn next_node(cluster: &ClusterSpec, node: NodeId) -> NodeId {
    NodeId(((node.0 as usize + 1) % cluster.len()) as u16)
}

/// Plans an HDFS read of `bytes` on `node`: the local share from the
/// node's own disk, the rest from the next node's disk over the network.
/// Returns the activity whose completion means the read is done (a
/// barrier when the read has a remote part).
pub fn hdfs_read(
    cluster: &ClusterSpec,
    g: &mut ActivityGraph,
    node: NodeId,
    bytes: f64,
    deps: &[ActivityId],
    tag: &str,
) -> ActivityId {
    let local_bytes = bytes * LOCALITY;
    let remote_bytes = bytes - local_bytes;
    let local = g.add(
        ActivityKind::DiskRead {
            node,
            bytes: local_bytes,
        },
        deps,
        format!("{tag}/local"),
    );
    if remote_bytes <= 0.0 || cluster.len() < 2 {
        return local;
    }
    let replica = next_node(cluster, node);
    let remote_disk = g.add(
        ActivityKind::DiskRead {
            node: replica,
            bytes: remote_bytes,
        },
        deps,
        format!("{tag}/replica-disk"),
    );
    let xfer = g.add(
        ActivityKind::Transfer {
            src: replica,
            dst: node,
            bytes: remote_bytes,
        },
        &[remote_disk],
        format!("{tag}/replica-xfer"),
    );
    g.barrier(&[local, xfer], format!("{tag}/done"))
}

/// Plans an HDFS write of `bytes` from `node`: the replication pipeline
/// of a local write, then a transfer and a write per further replica.
/// Returns the last replica's write.
pub fn hdfs_write(
    cluster: &ClusterSpec,
    g: &mut ActivityGraph,
    node: NodeId,
    bytes: f64,
    deps: &[ActivityId],
    tag: &str,
) -> ActivityId {
    let mut last = g.add(
        ActivityKind::DiskWrite { node, bytes },
        deps,
        format!("{tag}/replica0"),
    );
    let mut holder = node;
    for r in 1..REPLICATION {
        if cluster.len() < 2 {
            break;
        }
        let next = next_node(cluster, holder);
        let xfer = g.add(
            ActivityKind::Transfer {
                src: holder,
                dst: next,
                bytes,
            },
            &[last],
            format!("{tag}/replica{r}-xfer"),
        );
        last = g.add(
            ActivityKind::DiskWrite { node: next, bytes },
            &[xfer],
            format!("{tag}/replica{r}"),
        );
        holder = next;
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulation;
    use crate::topology::NodeSpec;

    fn cluster(n: u16) -> ClusterSpec {
        ClusterSpec::homogeneous(
            n,
            NodeSpec {
                name: String::new(),
                cores: 8,
                disk_bps: 100e6, // 100 B/µs
                nic_bps: 100e6,
                mem_bytes: 1,
            },
        )
    }

    #[test]
    fn shared_reads_contend_on_server() {
        let mut c = cluster(2);
        c.shared_fs_bps = 100e6; // 100 B/µs server
        let mut g = ActivityGraph::new();
        for node in 0..2u16 {
            g.add(
                ActivityKind::SharedRead {
                    node: NodeId(node),
                    bytes: 1e6,
                },
                &[],
                "r",
            );
        }
        let res = Simulation::new(c).run(&g).unwrap();
        // Two 1e6-byte readers share 100 B/µs -> 20_000 µs, vs 10_000 alone.
        assert!(
            (res.makespan_us - 20_000.0).abs() < 10.0,
            "{}",
            res.makespan_us
        );
    }

    #[test]
    fn dfs_read_splits_local_and_remote() {
        let c = cluster(2);
        let mut g = ActivityGraph::new();
        hdfs_read(&c, &mut g, NodeId(0), 1e6, &[], "r");
        // local disk read + replica disk read + transfer + barrier
        assert_eq!(g.len(), 4);
        let res = Simulation::new(c).run(&g).unwrap();
        // Local path: 0.85e6 B disk (8_500 µs); the remote path, 0.15e6 B
        // disk (1_500 µs) + transfer (1_500 µs), ends first.
        assert!(
            (res.makespan_us - 8_500.0).abs() < 10.0,
            "{}",
            res.makespan_us
        );
    }

    #[test]
    fn dfs_write_builds_replication_pipeline() {
        let c = cluster(3);
        let mut g = ActivityGraph::new();
        let last = hdfs_write(&c, &mut g, NodeId(0), 1e6, &[], "w");
        // write + (xfer + write) * 2
        assert_eq!(g.len(), 5);
        let res = Simulation::new(c).run(&g).unwrap();
        // Each stage takes 10_000 µs; five of them in a chain.
        assert!(
            (res.of(last).end_us - 50_000.0).abs() < 10.0,
            "{}",
            res.of(last).end_us
        );
    }

    #[test]
    fn single_node_cluster_degrades_gracefully() {
        let c = cluster(1);
        let mut g = ActivityGraph::new();
        hdfs_read(&c, &mut g, NodeId(0), 1e6, &[], "r");
        hdfs_write(&c, &mut g, NodeId(0), 1e6, &[], "w");
        // No remote peers available: plain local read + single write.
        assert_eq!(g.len(), 2);
        assert!(Simulation::new(c).run(&g).is_ok());
    }
}
