//! Max-min fair rate assignment by water filling.
//!
//! Every running activity demands one or two resources (node cores, disk
//! bandwidth, NIC in/out, the shared-FS server). Rates are assigned by
//! progressive filling: all unfrozen activities' rates rise together; when a
//! resource saturates, its users freeze; when an activity reaches its own
//! cap (e.g. a compute activity's parallelism), it freezes. The result is
//! the classic max-min fair allocation, which models processor sharing and
//! TCP-like bandwidth sharing closely enough for the phenomena Granula
//! observes (contention, stragglers, sequential bottlenecks).
//!
//! [`fill_rates`] is the one implementation: the incremental engine in
//! `sched` calls it over each refill's affected set and the dense oracle
//! in [`crate::sim`] over all running activities, both with caller-owned
//! [`FillScratch`].

use crate::activity::ActivityKind;
use crate::topology::{ClusterSpec, NodeId};

/// A resource index in the flattened capacity table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Res {
    Cpu(NodeId),
    Disk(NodeId),
    NicIn(NodeId),
    NicOut(NodeId),
    SharedFs,
}

/// Flattened view of all cluster resources with capacities in unit/µs.
pub(crate) struct ResourceTable {
    /// Capacity per resource index.
    pub(crate) caps: Vec<f64>,
    nodes: usize,
}

impl ResourceTable {
    pub(crate) fn new(cluster: &ClusterSpec) -> Self {
        let n = cluster.len();
        let mut caps = vec![0.0; 4 * n + 1];
        for (id, spec) in cluster.iter() {
            let i = id.0 as usize;
            caps[i] = spec.cores as f64; // cores (core-µs per µs)
            caps[n + i] = spec.disk_bps / 1e6; // bytes per µs
            caps[2 * n + i] = spec.nic_bps / 1e6;
            caps[3 * n + i] = spec.nic_bps / 1e6;
        }
        caps[4 * n] = cluster.shared_fs_bps / 1e6;
        ResourceTable { caps, nodes: n }
    }

    fn index(&self, r: Res) -> usize {
        match r {
            Res::Cpu(n) => n.0 as usize,
            Res::Disk(n) => self.nodes + n.0 as usize,
            Res::NicIn(n) => 2 * self.nodes + n.0 as usize,
            Res::NicOut(n) => 3 * self.nodes + n.0 as usize,
            Res::SharedFs => 4 * self.nodes,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.caps.len()
    }
}

/// The resources and cap of one running activity.
#[derive(Debug, Clone, Copy)]
pub struct Demand {
    /// Resource indices (0, 1 or 2 entries).
    pub resources: [usize; 2],
    /// Number of valid entries in `resources`.
    pub n_resources: u8,
    /// Per-activity rate cap (f64::INFINITY when only resource-limited).
    pub cap: f64,
}

/// Builds the demand of one activity kind against the table.
pub(crate) fn demand(table: &ResourceTable, kind: &ActivityKind) -> Demand {
    match kind {
        ActivityKind::Compute {
            node, parallelism, ..
        } => Demand {
            resources: [table.index(Res::Cpu(*node)), 0],
            n_resources: 1,
            cap: *parallelism as f64,
        },
        ActivityKind::DiskRead { node, .. } | ActivityKind::DiskWrite { node, .. } => Demand {
            resources: [table.index(Res::Disk(*node)), 0],
            n_resources: 1,
            cap: f64::INFINITY,
        },
        ActivityKind::Transfer { src, dst, .. } => {
            if src == dst {
                Demand {
                    resources: [0, 0],
                    n_resources: 0,
                    cap: f64::INFINITY,
                }
            } else {
                Demand {
                    resources: [
                        table.index(Res::NicOut(*src)),
                        table.index(Res::NicIn(*dst)),
                    ],
                    n_resources: 2,
                    cap: f64::INFINITY,
                }
            }
        }
        ActivityKind::SharedRead { node, .. } => Demand {
            resources: [table.index(Res::SharedFs), table.index(Res::NicIn(*node))],
            n_resources: 2,
            cap: f64::INFINITY,
        },
        // A delay progresses at exactly 1 µs/µs.
        ActivityKind::Delay { .. } => Demand {
            resources: [0, 0],
            n_resources: 0,
            cap: 1.0,
        },
        ActivityKind::Barrier => Demand {
            resources: [0, 0],
            n_resources: 0,
            cap: f64::INFINITY,
        },
    }
}

/// Caller-owned scratch for [`fill_rates`]. Per-resource columns grow to
/// the capacity table once; afterwards a call allocates nothing.
#[derive(Debug, Default)]
pub struct FillScratch {
    /// Capacity not yet handed out, per resource.
    rem: Vec<f64>,
    /// Unfrozen users per resource; all zero between calls.
    users: Vec<u32>,
    /// Each involved resource's users are `members[first[r]..stop[r]]`.
    first: Vec<u32>,
    stop: Vec<u32>,
    members: Vec<u32>,
    /// Involved resources that still have unfrozen users.
    live: Vec<u32>,
    /// Demands with a finite cap, by ascending cap.
    by_cap: Vec<u32>,
    frozen: Vec<bool>,
    /// Filling rounds run so far, summed over calls.
    pub(crate) rounds: u64,
}

/// Max-min fair rates by water filling: `rate[k]` for `demands[k]`
/// against per-resource capacities `caps` (units per µs).
///
/// Progressive filling raises every unfrozen activity by the same `delta`
/// per round. All of them start at 0 and see the same `delta` sequence, so
/// they hold one shared `level`, bit for bit, and a round needs no sweep
/// over the activities: `delta` is the smallest `rem/users` over resources
/// with unfrozen users or the smallest unfrozen cap less `level` (a cursor
/// over the caps, sorted once; `cap - level` is monotone in `cap`). Each
/// resource then loses `delta` once per unfrozen user — repeated
/// subtraction, not `users * delta`, so `rem` keeps the bits of one
/// subtraction per user. The users of saturated resources (walked through
/// per-resource member lists) and the activities at their cap freeze at
/// the current `level`, each once. The rates equal the per-activity sweep
/// bit for bit.
///
/// Demands without resources take their cap (a delay's 1 µs/µs), or 1
/// when uncapped.
pub fn fill_rates(caps: &[f64], demands: &[Demand], rate: &mut Vec<f64>, s: &mut FillScratch) {
    const EPS: f64 = 1e-12;
    rate.clear();
    rate.resize(demands.len(), 0.0);
    s.frozen.clear();
    s.frozen.resize(demands.len(), false);
    if s.users.len() < caps.len() {
        s.rem.resize(caps.len(), 0.0);
        s.users.resize(caps.len(), 0);
        s.first.resize(caps.len(), 0);
        s.stop.resize(caps.len(), 0);
    }
    s.live.clear();
    s.by_cap.clear();
    let mut unfrozen = 0usize;
    for (k, d) in demands.iter().enumerate() {
        let res = &d.resources[..d.n_resources as usize];
        if res.is_empty() {
            rate[k] = if d.cap.is_finite() { d.cap } else { 1.0 };
            s.frozen[k] = true;
            continue;
        }
        unfrozen += 1;
        for &r in res {
            if s.users[r] == 0 {
                s.live.push(r as u32);
            }
            s.users[r] += 1;
        }
        // An infinite cap never binds: `inf - level` never wins the
        // minimum and `level >= inf - EPS` never holds.
        if d.cap.is_finite() {
            s.by_cap.push(k as u32);
        }
    }
    s.by_cap
        .sort_unstable_by(|&a, &b| demands[a as usize].cap.total_cmp(&demands[b as usize].cap));

    // Group demand indices by resource: `first[r]` starts at the end of
    // r's run and counts down as members are placed.
    let mut end = 0u32;
    for &r in &s.live {
        let r = r as usize;
        end += s.users[r];
        (s.first[r], s.stop[r]) = (end, end);
        s.rem[r] = caps[r];
    }
    s.members.clear();
    s.members.resize(end as usize, 0);
    for (k, d) in demands.iter().enumerate() {
        for &r in &d.resources[..d.n_resources as usize] {
            s.first[r] -= 1;
            s.members[s.first[r] as usize] = k as u32;
        }
    }

    let mut level = 0.0f64;
    let mut cursor = 0usize;
    while unfrozen > 0 {
        let mut delta = f64::INFINITY;
        for &r in &s.live {
            let r = r as usize;
            delta = delta.min(s.rem[r] / s.users[r] as f64);
        }
        while cursor < s.by_cap.len() && s.frozen[s.by_cap[cursor] as usize] {
            cursor += 1;
        }
        if let Some(&k) = s.by_cap.get(cursor) {
            delta = delta.min(demands[k as usize].cap - level);
        }
        if !delta.is_finite() || delta < 0.0 {
            break; // nothing left to fill
        }
        s.rounds += 1;
        level += delta;
        for &r in &s.live {
            let r = r as usize;
            let mut rem = s.rem[r];
            for _ in 0..s.users[r] {
                rem -= delta;
            }
            s.rem[r] = rem;
        }

        // Freeze the users of saturated resources, then the activities at
        // their cap. `users` only falls while freezing, so a resource whose
        // users are already all frozen is skipped.
        let mut freeze = |k: usize, s: &mut FillScratch, rate: &mut [f64]| {
            s.frozen[k] = true;
            rate[k] = level;
            unfrozen -= 1;
            let d = &demands[k];
            for &r in &d.resources[..d.n_resources as usize] {
                s.users[r] -= 1;
            }
        };
        for i in 0..s.live.len() {
            let r = s.live[i] as usize;
            if s.users[r] > 0 && s.rem[r] <= EPS * caps[r].max(1.0) {
                for j in s.first[r] as usize..s.stop[r] as usize {
                    let k = s.members[j] as usize;
                    if !s.frozen[k] {
                        freeze(k, s, rate);
                    }
                }
            }
        }
        while let Some(&k) = s.by_cap.get(cursor) {
            let k = k as usize;
            if !s.frozen[k] {
                if level < demands[k].cap - EPS {
                    break;
                }
                freeze(k, s, rate);
            }
            cursor += 1;
        }
        let users = &s.users;
        s.live.retain(|&r| users[r as usize] > 0);
    }
    for (k, f) in s.frozen.iter().enumerate() {
        if !f {
            rate[k] = level;
        }
    }
    for &r in &s.live {
        s.users[r as usize] = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::NodeSpec;

    fn kernel(caps: &[f64], demands: &[Demand]) -> Vec<f64> {
        let mut rate = Vec::new();
        fill_rates(caps, demands, &mut rate, &mut FillScratch::default());
        rate
    }

    fn cluster() -> ClusterSpec {
        ClusterSpec::homogeneous(
            2,
            NodeSpec {
                name: String::new(),
                cores: 8,
                disk_bps: 100e6,
                nic_bps: 10e6,
                mem_bytes: 1 << 30,
            },
        )
    }

    fn rates(kinds: &[ActivityKind]) -> Vec<f64> {
        let c = cluster();
        let table = ResourceTable::new(&c);
        let demands: Vec<Demand> = kinds.iter().map(|k| demand(&table, k)).collect();
        kernel(&table.caps, &demands)
    }

    #[test]
    fn single_compute_capped_by_parallelism() {
        let r = rates(&[ActivityKind::Compute {
            node: NodeId(0),
            work_core_us: 1.0,
            parallelism: 4,
        }]);
        assert!((r[0] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn compute_shares_cores_fairly_with_spillover() {
        // Two activities on an 8-core node: caps 2 and 16. The small one gets
        // its 2 cores; the big one takes the remaining 6.
        let r = rates(&[
            ActivityKind::Compute {
                node: NodeId(0),
                work_core_us: 1.0,
                parallelism: 2,
            },
            ActivityKind::Compute {
                node: NodeId(0),
                work_core_us: 1.0,
                parallelism: 16,
            },
        ]);
        assert!((r[0] - 2.0).abs() < 1e-9, "{r:?}");
        assert!((r[1] - 6.0).abs() < 1e-9, "{r:?}");
    }

    #[test]
    fn compute_on_different_nodes_does_not_contend() {
        let r = rates(&[
            ActivityKind::Compute {
                node: NodeId(0),
                work_core_us: 1.0,
                parallelism: 8,
            },
            ActivityKind::Compute {
                node: NodeId(1),
                work_core_us: 1.0,
                parallelism: 8,
            },
        ]);
        assert!((r[0] - 8.0).abs() < 1e-9 && (r[1] - 8.0).abs() < 1e-9);
    }

    #[test]
    fn disk_readers_split_bandwidth() {
        let r = rates(&[
            ActivityKind::DiskRead {
                node: NodeId(0),
                bytes: 1.0,
            },
            ActivityKind::DiskRead {
                node: NodeId(0),
                bytes: 1.0,
            },
        ]);
        // 100 MB/s = 100 bytes/µs split two ways.
        assert!((r[0] - 50.0).abs() < 1e-6, "{r:?}");
        assert!((r[1] - 50.0).abs() < 1e-6);
    }

    #[test]
    fn transfer_limited_by_both_nics() {
        // Two transfers into node 1 from node 0: they share node0 NIC-out
        // and node1 NIC-in (both 10 bytes/µs) -> 5 each.
        let r = rates(&[
            ActivityKind::Transfer {
                src: NodeId(0),
                dst: NodeId(1),
                bytes: 1.0,
            },
            ActivityKind::Transfer {
                src: NodeId(0),
                dst: NodeId(1),
                bytes: 1.0,
            },
        ]);
        assert!((r[0] - 5.0).abs() < 1e-6, "{r:?}");
    }

    #[test]
    fn delay_progresses_at_unit_rate() {
        let r = rates(&[ActivityKind::Delay { duration_us: 100.0 }]);
        assert!((r[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shared_fs_single_reader_gets_full_server_bw() {
        let c = cluster(); // shared_fs_bps = 1e9 -> 1000 bytes/µs, NIC 10
        let table = ResourceTable::new(&c);
        let demands = vec![demand(
            &table,
            &ActivityKind::SharedRead {
                node: NodeId(0),
                bytes: 1.0,
            },
        )];
        let r = kernel(&table.caps, &demands);
        // Limited by the reader's NIC (10 bytes/µs), not the 1000 of the server.
        assert!((r[0] - 10.0).abs() < 1e-6, "{r:?}");
    }

    #[test]
    fn mixed_unrelated_resources_fill_independently() {
        let r = rates(&[
            ActivityKind::Compute {
                node: NodeId(0),
                work_core_us: 1.0,
                parallelism: 8,
            },
            ActivityKind::DiskRead {
                node: NodeId(0),
                bytes: 1.0,
            },
        ]);
        assert!((r[0] - 8.0).abs() < 1e-9);
        assert!((r[1] - 100.0).abs() < 1e-6);
    }
}
