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
//! One round loop serves both callers. [`fill_rates`] fills a set of
//! demands from scratch: the dense oracle in the equivalence tests calls it
//! over all running activities, and `RefillMode::Audit` checks each refill
//! wave against it. The incremental engine in `sched` fills each refill
//! wave's closure through `Fill`, which keeps a trail of its last fill and,
//! when the next closure covers the same resources, resumes at the first
//! round a change can reach instead of starting over.

use crate::activity::ActivityKind;
use crate::sim::RefillMode;
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
#[doc(hidden)]
pub struct ResourceTable {
    /// Capacity per resource index.
    pub caps: Vec<f64>,
    nodes: usize,
}

impl ResourceTable {
    pub fn new(cluster: &ClusterSpec) -> Self {
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
#[doc(hidden)]
pub fn demand(table: &ResourceTable, kind: &ActivityKind) -> Demand {
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

/// Saturation threshold, relative to a resource's capacity.
const EPS: f64 = 1e-12;

/// Freeze round of an item no fill has rated: a fixed-rate demand, or a
/// slot that started or left since the engine's last fill.
const UNFILLED: u32 = u32::MAX;

/// Caller-owned scratch for [`fill_rates`]. Per-resource columns grow to
/// the capacity table once; afterwards a call allocates nothing.
#[derive(Debug, Default)]
pub struct FillScratch {
    fill: Fill,
    /// Demand indices per resource.
    lists: Vec<Vec<u32>>,
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
/// per-resource user lists) and the activities at their cap freeze at the
/// current `level`, each once. The rates equal the per-activity sweep bit
/// for bit, and depend on the set of demands, not on their order.
///
/// Demands without resources take their cap (a delay's 1 µs/µs), or 1
/// when uncapped.
pub fn fill_rates(caps: &[f64], demands: &[Demand], rate: &mut Vec<f64>, s: &mut FillScratch) {
    rate.clear();
    rate.resize(demands.len(), 0.0);
    s.fill.round.clear();
    s.fill.round.resize(demands.len(), UNFILLED);
    s.lists.resize(caps.len(), Vec::new());
    s.lists.iter_mut().for_each(Vec::clear);
    for (k, d) in demands.iter().enumerate() {
        if d.n_resources == 0 {
            rate[k] = if d.cap.is_finite() { d.cap } else { 1.0 };
        }
        for &r in &d.resources[..d.n_resources as usize] {
            s.lists[r].push(k as u32);
        }
    }
    let items = s.lists.iter().flatten().copied();
    s.fill.start(caps, demands, items);
    let (lists, none) = (&s.lists, &[][..]);
    let c = Closure {
        caps,
        demands,
        resources: none,
        lists,
        dirty: none,
    };
    s.fill.run(&c, rate, 1);
}

/// What a fill reads: capacities, demands, per-resource user lists and,
/// for a refill wave of the incremental engine, its closure of the dirty
/// resources over shared users.
pub(crate) struct Closure<'a> {
    pub(crate) caps: &'a [f64],
    pub(crate) demands: &'a [Demand],
    pub(crate) resources: &'a [usize],
    /// Every resource's users (slot indices).
    pub(crate) lists: &'a [Vec<u32>],
    /// Resources whose users or capacity changed since the last wave.
    pub(crate) dirty: &'a [usize],
}

/// Water filling over items: demand indices for [`fill_rates`], slot
/// indices for the incremental engine. The engine's fills leave a trail;
/// a fill whose closure covers the same resources as the last one
/// resumes from it at the first round a change can reach
/// ([`Fill::resume`]), any other runs from round 1 and records a new one.
#[derive(Debug, Default)]
pub(crate) struct Fill {
    /// Per resource: capacity not yet handed out, and unfrozen users (all
    /// zero between fills).
    rem: Vec<f64>,
    users: Vec<u32>,
    /// Involved resources that still have unfrozen users; unfrozen items
    /// with a finite cap, by ascending cap; frozen items in freeze order.
    live: Vec<u32>,
    by_cap: Vec<u32>,
    froze: Vec<u32>,
    /// The rate every unfrozen item has reached.
    level: f64,
    unfrozen: usize,
    /// Per item: the round it froze in, 0 while unfrozen.
    round: Vec<u32>,
    /// The trail: the filled resources and each one's column (`NONE`
    /// outside); per round start (numbered from 1, the last following the
    /// last round run) the level, a row of `(users, rem)` per column, and
    /// where in `froze` the items frozen from then on begin; per round run
    /// its delta.
    set: Vec<usize>,
    col: Vec<u32>,
    levels: Vec<f64>,
    rows: Vec<(u32, f64)>,
    froze_at: Vec<usize>,
    deltas: Vec<f64>,
    /// The earliest freeze round of a slot that left since the last fill.
    departed: u32,
    pub(crate) mode: RefillMode,
    /// The items a resumed fill rates again.
    refilled: Vec<u32>,
    pub(crate) rounds: u64,
    pub(crate) resumed: u64,
    pub(crate) skipped_rounds: u64,
}

impl Fill {
    const NONE: u32 = u32::MAX;

    /// The round-1 state of a fill from scratch of `items` (each with a
    /// resource, listed once or more, none frozen at 0), with an empty
    /// trail.
    fn start(&mut self, caps: &[f64], demands: &[Demand], items: impl Iterator<Item = u32>) {
        self.rem.resize(caps.len().max(self.rem.len()), 0.0);
        self.users.resize(caps.len().max(self.users.len()), 0);
        (self.level, self.unfrozen) = (0.0, 0);
        self.live.clear();
        self.by_cap.clear();
        self.froze.clear();
        self.refilled.clear();
        self.cut(1);
        for k in items {
            if self.round[k as usize] != 0 {
                self.thaw(demands, k);
                let d = &demands[k as usize];
                for &r in &d.resources[..d.n_resources as usize] {
                    if self.users[r] == 0 {
                        self.live.push(r as u32);
                    }
                    self.users[r] += 1;
                }
            }
        }
        self.sort_caps(demands);
        for &r in &self.live {
            self.rem[r as usize] = caps[r as usize];
        }
    }

    fn sort_caps(&mut self, demands: &[Demand]) {
        (self.by_cap)
            .sort_unstable_by(|&a, &b| demands[a as usize].cap.total_cmp(&demands[b as usize].cap));
    }

    /// The one water-filling round loop: runs rounds `j, j + 1, …` until
    /// every item is frozen, marking each round start into the trail. An
    /// item that freezes in round `j` gets `round[k] = j` and `rate[k]` =
    /// the level after that round.
    fn run(&mut self, c: &Closure, rate: &mut [f64], mut j: u32) {
        let (caps, demands, lists) = (c.caps, c.demands, c.lists);
        let mut cursor = 0usize;
        loop {
            self.mark();
            if self.unfrozen == 0 {
                break;
            }
            let mut delta = f64::INFINITY;
            for &r in &self.live {
                let r = r as usize;
                delta = delta.min(self.rem[r] / self.users[r] as f64);
            }
            while cursor < self.by_cap.len() && self.round[self.by_cap[cursor] as usize] != 0 {
                cursor += 1;
            }
            if let Some(&k) = self.by_cap.get(cursor) {
                delta = delta.min(demands[k as usize].cap - self.level);
            }
            if !delta.is_finite() || delta < 0.0 {
                break; // nothing left to fill
            }
            self.rounds += 1;
            self.deltas.push(delta);
            self.level += delta;
            for &r in &self.live {
                let r = r as usize;
                let mut rem = self.rem[r];
                for _ in 0..self.users[r] {
                    rem -= delta;
                }
                self.rem[r] = rem;
            }

            // Freeze the users of saturated resources, then the items at
            // their cap. `users` only falls while freezing, so a resource
            // whose users are already all frozen is skipped.
            for i in 0..self.live.len() {
                let r = self.live[i] as usize;
                if self.users[r] > 0 && self.rem[r] <= EPS * caps[r].max(1.0) {
                    for &k in &lists[r] {
                        self.freeze(demands, k, j, rate);
                    }
                }
            }
            while let Some(&k) = self.by_cap.get(cursor) {
                if self.round[k as usize] == 0 && self.level < demands[k as usize].cap - EPS {
                    break;
                }
                self.freeze(demands, k, j, rate);
                cursor += 1;
            }
            let users = &self.users;
            self.live.retain(|&r| users[r as usize] > 0);
            j += 1;
        }
        // Whatever is still unfrozen takes the level reached.
        for i in 0..self.live.len() {
            let r = self.live[i] as usize;
            for &k in &lists[r] {
                self.freeze(demands, k, j, rate);
            }
        }
    }

    /// Makes item `k` unfrozen, to be rated by the coming rounds. An
    /// infinite cap never binds (`inf - level` never wins the minimum and
    /// `level >= inf - EPS` never holds), so only finite caps are queued.
    fn thaw(&mut self, demands: &[Demand], k: u32) {
        self.round[k as usize] = 0;
        self.refilled.push(k);
        self.unfrozen += 1;
        if demands[k as usize].cap.is_finite() {
            self.by_cap.push(k);
        }
    }

    /// Freezes item `k`, unless frozen already, at the level of round `j`.
    fn freeze(&mut self, demands: &[Demand], k: u32, j: u32, rate: &mut [f64]) {
        if self.round[k as usize] == 0 {
            (self.round[k as usize], rate[k as usize]) = (j, self.level);
            self.froze.push(k);
            self.unfrozen -= 1;
            let d = &demands[k as usize];
            for &r in &d.resources[..d.n_resources as usize] {
                self.users[r] -= 1;
            }
        }
    }

    /// Records the state at the start of the next round.
    fn mark(&mut self) {
        self.levels.push(self.level);
        let row = self.set.iter().map(|&r| (self.users[r], self.rem[r]));
        self.rows.extend(row);
        self.froze_at.push(self.froze.len());
    }

    /// Drops the round starts from `stop` on.
    fn cut(&mut self, stop: usize) {
        self.levels.truncate(stop - 1);
        self.deltas.truncate(stop - 1);
        self.froze_at.truncate(stop - 1);
        self.rows.truncate((stop - 1) * self.set.len());
        self.departed = UNFILLED;
    }

    /// Slot `si` started: no fill has rated it.
    pub(crate) fn arrive(&mut self, si: usize) {
        self.round.resize(self.round.len().max(si + 1), UNFILLED);
        self.round[si] = UNFILLED;
    }

    /// Slot `si` left: the trail holds no later than its freeze round.
    pub(crate) fn depart(&mut self, si: usize) {
        self.departed = self.departed.min(self.round[si]);
        self.round[si] = UNFILLED;
    }

    /// Rates the users of `c`'s resources into `rate` and returns the
    /// ones it rated, in no set order: a resumed fill leaves the others'
    /// rates as they were.
    pub(crate) fn fill(&mut self, c: &Closure, rate: &mut [f64]) -> &[u32] {
        let covers = c.resources.len() == self.set.len()
            && c.resources
                .iter()
                .all(|&r| self.col.get(r).is_some_and(|&c| c != Fill::NONE));
        let from = if covers && self.mode != RefillMode::Scratch {
            let j = self.resume(c);
            self.resumed += 1;
            self.skipped_rounds += j as u64 - 1;
            j
        } else {
            self.set.iter().for_each(|&r| self.col[r] = Fill::NONE);
            self.col.resize(c.caps.len(), Fill::NONE);
            self.set.clear();
            for &r in c.resources {
                self.col[r] = self.set.len() as u32;
                self.set.push(r);
            }
            let items = c.resources.iter().flat_map(|&r| &c.lists[r]).copied();
            self.start(c.caps, c.demands, items);
            1
        };
        self.run(c, rate, from as u32);
        if self.mode == RefillMode::Audit {
            let mut ks: Vec<u32> = c
                .resources
                .iter()
                .flat_map(|&r| c.lists[r].clone())
                .collect();
            ks.sort_unstable();
            ks.dedup();
            let demands: Vec<Demand> = ks.iter().map(|&k| c.demands[k as usize]).collect();
            let mut want = Vec::new();
            fill_rates(c.caps, &demands, &mut want, &mut FillScratch::default());
            for (&k, w) in ks.iter().zip(&want) {
                assert_eq!(
                    rate[k as usize].to_bits(),
                    w.to_bits(),
                    "slot {k} from round {from}"
                );
            }
        }
        &self.refilled
    }

    /// Finds the first round `j*` that a change since the last fill can
    /// reach, restores the state at its start and cuts the trail there.
    ///
    /// Arrivals and departures touch only dirty resources, so before `j*`
    /// every other resource has the same users, `rem` and `delta` in both
    /// fills, as long as in no earlier round
    /// - a dirty resource's share, old or new, is at most `delta`, or its
    ///   `rem` saturates (its new users: the old ones, less the departed,
    ///   plus the arrived);
    /// - a capped arrival's cap sets `delta` or is reached;
    /// - a departed slot froze ([`Fill::depart`]).
    ///
    /// Each dirty resource's column is rewritten with its new state up to
    /// `j*`, so the rows before `j*` stay those of a fill from scratch.
    fn resume(&mut self, c: &Closure) -> usize {
        let mut stop = self.levels.len().min(self.departed as usize);
        self.unfrozen = 0;
        self.refilled.clear();
        self.by_cap.clear();
        for &r in c.dirty {
            stop = self.replay(r, c, stop);
        }
        let width = self.set.len();
        self.level = self.levels[stop - 1];
        self.live.clear();
        for (&r, &(users, rem)) in self.set.iter().zip(&self.rows[(stop - 1) * width..]) {
            if users > 0 {
                (self.users[r], self.rem[r]) = (users, rem);
                self.live.push(r as u32);
            }
        }
        // The items frozen from round `stop` on fill again, with the
        // arrivals. A slot that left holds `UNFILLED`; one listed twice
        // (left, reused, refilled) is taken once.
        let at = self.froze_at[stop - 1];
        for i in at..self.froze.len() {
            let (k, f) = (self.froze[i], self.round[self.froze[i] as usize]);
            if f != UNFILLED && f as usize >= stop {
                self.thaw(c.demands, k);
            }
        }
        self.froze.truncate(at);
        self.cut(stop);
        self.sort_caps(c.demands);
        stop
    }

    /// Replays dirty resource `r`'s new `(users, rem)` from round 1
    /// against its old column, overwriting it, up to `stop` or to the
    /// first round in which `r` or a capped arrival on it can change the
    /// fill. Returns the round reached.
    fn replay(&mut self, r: usize, c: &Closure, mut stop: usize) -> usize {
        let (mut common, mut arrived) = (0u32, 0u32);
        for &k in &c.lists[r] {
            let f = self.round[k as usize];
            if f != UNFILLED && f != 0 {
                common += 1;
                continue;
            }
            arrived += 1;
            if f == UNFILLED {
                // First sighting of an arrival (it may use two dirty
                // resources).
                self.thaw(c.demands, k);
                let (cap, level) = (c.demands[k as usize].cap, &self.levels);
                let binds =
                    |&i: &usize| cap - level[i - 1] <= self.deltas[i - 1] || level[i] >= cap - EPS;
                stop = (1..stop).find(binds).unwrap_or(stop);
            }
        }
        // Round 1 holds the old users and capacity; the departed stay
        // unfrozen in the old fill before `stop`.
        let (width, col) = (self.set.len(), self.col[r] as usize);
        let ((users0, old_cap), new_cap) = (self.rows[col], c.caps[r]);
        let departed = users0 - common;
        let mut rem = new_cap;
        for i in 1..=stop {
            let cell = &mut self.rows[(i - 1) * width + col];
            let (old_users, old_rem) = *cell;
            let users = old_users + arrived - departed;
            *cell = (users, rem);
            if i == stop {
                break;
            }
            let d = self.deltas[i - 1];
            let reaches = |rem: f64, users: u32| users > 0 && rem / users as f64 <= d;
            if reaches(old_rem, old_users) || reaches(rem, users) {
                return i;
            }
            for _ in 0..users {
                rem -= d;
            }
            let full = |rem: f64, users: u32, cap: f64| users > 0 && rem <= EPS * cap.max(1.0);
            if full(self.rows[i * width + col].1, old_users, old_cap) || full(rem, users, new_cap) {
                return i;
            }
        }
        stop
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
