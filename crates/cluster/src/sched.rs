//! Incremental max-min scheduler: the engine behind
//! [`crate::sim::Simulation::run`] for every DAG.
//!
//! A dense loop re-rates *all* running activities at every event and
//! rescans them for the earliest completion; the equivalence tests keep one
//! as this engine's oracle (`tests/dense_oracle/`). This engine exploits
//! the component structure of max-min fairness instead: the fixpoint
//! decomposes over connected components of the bipartite
//! activity↔resource graph, so an arrival or departure can only change the
//! rates of activities *transitively coupled to it through shared
//! resources*. Per event the engine keeps:
//!
//! - **dirty resources** — resources whose user set or capacity changed;
//! - an **affected set** — the transitive closure of the dirty resources
//!   over `resource → users → their resources`, found by BFS;
//! - a **refill** of the affected set by the shared water-filling loop
//!   (`resources::Fill`). A wave whose closure covers the last fill's
//!   resources resumes from that fill's **trail** at the first round its
//!   dirty resources or capped arrivals can reach (the certificate in
//!   `Fill::resume`); any other wave falls back to a fill from round 1.
//!   Changed slots are applied in BFS order, which fixes the order of the
//!   floating-point usage sums;
//! - a **lazy completion heap** of `(projected finish, slot, generation)`
//!   entries. A slot's generation bumps whenever its rate changes, and
//!   stale entries are skipped on pop.
//!
//! The whole graph runs as one simulation. Platform DAGs are one connected
//! component over `dependency ∪ shared-resource` edges anyway: every
//! 32-node choke-matrix job (3.4k–12.6k activities) is, and a PageRank
//! refill couples about 490 activities.
//!
//! Slot state lives in `Slots`, a struct-of-arrays. Remaining work is
//! accounted lazily: each slot stores `(anchor_us, remaining-at-anchor,
//! rate)` and is re-anchored only when its rate changes. Usage is flushed
//! per `(channel, node)` pair per event (`PairUsage`), not per activity.
//!
//! Determinism: iteration orders (ready stack, BFS discovery, heap
//! tie-breaks by slot index, kills by activity id) are pure functions of
//! the input graph, so a given `(cluster, graph, plan)` triple always
//! produces bit-identical results.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::activity::{ActivityGraph, ActivityId, ActivityKind};
use crate::fault::{FaultClock, FaultEvent, FaultPlan};
use crate::resources::{demand, Closure, Demand, Fill, ResourceTable};
use crate::sim::{ActivityResult, RefillMode, SimError, SimResult};
use crate::topology::{ClusterSpec, NodeId};
use crate::trace::{Channel, UsageTrace};

/// One pending completion: `slot` is projected to finish at `finish_us`
/// under the rate it had at generation `gen`. Entries whose generation no
/// longer matches the slot's are stale and skipped on pop.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    finish_us: f64,
    slot: u32,
    gen: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed so the std max-heap pops the earliest finish; ties break
        // toward the lowest slot index for determinism.
        other
            .finish_us
            .total_cmp(&self.finish_us)
            .then_with(|| other.slot.cmp(&self.slot))
            .then_with(|| other.gen.cmp(&self.gen))
    }
}

/// Where a slot's usage is charged (up to two `(channel, node)` targets).
#[derive(Debug, Clone, Copy)]
pub struct TraceTargets {
    pub ch: [(Channel, NodeId); 2],
    pub n: u8,
}

pub fn trace_targets(kind: &ActivityKind) -> TraceTargets {
    let mut t = TraceTargets {
        ch: [(Channel::Cpu, NodeId(0)); 2],
        n: 0,
    };
    match kind {
        ActivityKind::Compute { node, .. } => {
            t.ch[0] = (Channel::Cpu, *node);
            t.n = 1;
        }
        ActivityKind::DiskRead { node, .. } | ActivityKind::DiskWrite { node, .. } => {
            t.ch[0] = (Channel::Disk, *node);
            t.n = 1;
        }
        ActivityKind::Transfer { src, dst, .. } => {
            t.ch[0] = (Channel::NetOut, *src);
            t.ch[1] = (Channel::NetIn, *dst);
            t.n = 2;
        }
        ActivityKind::SharedRead { node, .. } => {
            t.ch[0] = (Channel::NetIn, *node);
            t.n = 1;
        }
        ActivityKind::Delay { .. } | ActivityKind::Barrier => {}
    }
    t
}

fn channel_index(ch: Channel) -> usize {
    match ch {
        Channel::Cpu => 0,
        Channel::Disk => 1,
        Channel::NetIn => 2,
        Channel::NetOut => 3,
    }
}

fn channel_of(i: usize) -> Channel {
    match i {
        0 => Channel::Cpu,
        1 => Channel::Disk,
        2 => Channel::NetIn,
        _ => Channel::NetOut,
    }
}

/// Aggregate-rate usage tracking for the incremental engine.
///
/// Rates are piecewise constant between scheduling events, so each
/// `(channel, node)` pair's usage is fully described by its *summed* rate
/// over time. This keeps that sum and emits one [`UsageTrace`] span per
/// pair per event — independent of how many activities share the pair,
/// and without per-activity whole-lifetime flushes (a long-stable activity
/// would otherwise walk its entire bucket range at completion).
///
/// Rate changes are deferred: the apply/completion loops call [`defer`]
/// per slot (cheap dense accumulation) and a single [`commit`] per event
/// flushes each touched pair once.
///
/// [`defer`]: PairUsage::defer
/// [`commit`]: PairUsage::commit
struct PairUsage {
    rate: Vec<f64>,
    anchor: Vec<f64>,
    pending: Vec<f64>,
    on: Vec<bool>,
    touched: Vec<u32>,
    nodes: usize,
}

impl PairUsage {
    fn new(nodes: usize) -> Self {
        PairUsage {
            rate: vec![0.0; 4 * nodes],
            anchor: vec![0.0; 4 * nodes],
            pending: vec![0.0; 4 * nodes],
            on: vec![false; 4 * nodes],
            touched: Vec::new(),
            nodes,
        }
    }

    /// Queues a rate change of `delta` on `(ch, node)`, effective at the
    /// `now` of the next [`PairUsage::commit`].
    fn defer(&mut self, ch: Channel, node: NodeId, delta: f64) {
        let i = channel_index(ch) * self.nodes + node.0 as usize;
        if !self.on[i] {
            self.on[i] = true;
            self.touched.push(i as u32);
        }
        self.pending[i] += delta;
    }

    /// Applies every queued delta at time `now`; usage accrued since each
    /// touched pair's anchor is flushed first.
    fn commit(&mut self, trace: &mut UsageTrace, now: f64) {
        for k in 0..self.touched.len() {
            let i = self.touched[k] as usize;
            self.on[i] = false;
            let ch = channel_of(i / self.nodes);
            let node = NodeId((i % self.nodes) as u16);
            trace.add(ch, node, self.anchor[i], now, self.rate[i]);
            self.anchor[i] = now;
            self.rate[i] += self.pending[i];
            self.pending[i] = 0.0;
        }
        self.touched.clear();
    }
}

/// Struct-of-arrays slot storage for running activities.
///
/// Each array is indexed by slot; slots are recycled through a free list so
/// the arrays stay dense at O(peak concurrency). The hot loops each touch
/// only the arrays they need: heap-validity checks read `live`/`gen`, the
/// refill wave reads `demand`, re-anchoring reads/writes the four `f64`
/// columns — contiguous scans instead of striding over a 100-byte struct.
///
/// `gen` survives slot reuse (it is incremented, never reset), so heap
/// entries from a slot's previous occupant can never validate against the
/// new one.
struct Slots {
    /// Activity id occupying the slot.
    id: Vec<u32>,
    demand: Vec<Demand>,
    rate: Vec<f64>,
    anchor_us: Vec<f64>,
    remaining: Vec<f64>,
    /// Completion tolerance in work units (`1e-6 × amount`, floored at
    /// `1e-6`), matching the dense oracle's epsilon grouping.
    eps_work: Vec<f64>,
    gen: Vec<u32>,
    live: Vec<bool>,
    trace: Vec<TraceTargets>,
    /// Position of this slot inside each of its resources' user lists,
    /// kept in sync by the O(1) swap-remove on completion.
    res_pos: Vec<[u32; 2]>,
}

impl Slots {
    fn new() -> Self {
        Slots {
            id: Vec::new(),
            demand: Vec::new(),
            rate: Vec::new(),
            anchor_us: Vec::new(),
            remaining: Vec::new(),
            eps_work: Vec::new(),
            gen: Vec::new(),
            live: Vec::new(),
            trace: Vec::new(),
            res_pos: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.id.len()
    }

    /// Appends one vacant slot and returns its index.
    fn push_vacant(&mut self) -> usize {
        self.id.push(0);
        self.demand.push(Demand {
            resources: [0, 0],
            n_resources: 0,
            cap: 0.0,
        });
        self.rate.push(0.0);
        self.anchor_us.push(0.0);
        self.remaining.push(0.0);
        self.eps_work.push(0.0);
        self.gen.push(0);
        self.live.push(false);
        self.trace.push(TraceTargets {
            ch: [(Channel::Cpu, NodeId(0)); 2],
            n: 0,
        });
        self.res_pos.push([0; 2]);
        self.id.len() - 1
    }
}

/// A user list entry's other resource when the slot demands only one.
const NO_RESOURCE: u32 = u32::MAX;

/// Per-resource user lists (slot indices) and the resources whose user
/// set or capacity changed since the last refill.
struct ResUsers {
    lists: Vec<Vec<u32>>,
    /// Parallel to `lists`: each user's other resource, or [`NO_RESOURCE`].
    others: Vec<Vec<u32>>,
    dirty: Vec<bool>,
    dirty_list: Vec<usize>,
}

impl ResUsers {
    fn mark(&mut self, r: usize) {
        if !self.dirty[r] {
            self.dirty[r] = true;
            self.dirty_list.push(r);
        }
    }

    /// Appends slot `si` to its resources' user lists.
    fn attach(&mut self, slots: &mut Slots, si: usize) {
        let d = slots.demand[si];
        let res = &d.resources[..d.n_resources as usize];
        for (j, &r) in res.iter().enumerate() {
            slots.res_pos[si][j] = self.lists[r].len() as u32;
            self.lists[r].push(si as u32);
            let other = res.get(1 - j).map_or(NO_RESOURCE, |&o| o as u32);
            self.others[r].push(other);
            self.mark(r);
        }
    }

    /// Retires slot `si`: its usage stops and it leaves its user lists in
    /// O(1) — the slot knows its position in each list, and the entry
    /// swapped into its place gets its back-pointer fixed up. Returns the
    /// slot's rate.
    fn retire(&mut self, slots: &mut Slots, si: usize, usage: &mut PairUsage) -> f64 {
        slots.live[si] = false;
        let rate = slots.rate[si];
        if rate > 0.0 {
            let targets = slots.trace[si];
            for &(ch, node) in &targets.ch[..targets.n as usize] {
                usage.defer(ch, node, -rate);
            }
        }
        let d = slots.demand[si];
        for (j, &r) in d.resources[..d.n_resources as usize].iter().enumerate() {
            let list = &mut self.lists[r];
            let pos = slots.res_pos[si][j] as usize;
            debug_assert_eq!(list[pos] as usize, si);
            list.swap_remove(pos);
            self.others[r].swap_remove(pos);
            if let Some(&moved) = list.get(pos) {
                let md = slots.demand[moved as usize];
                let j2 = md.resources[..md.n_resources as usize]
                    .iter()
                    .position(|&x| x == r)
                    .expect("a listed user demands the resource");
                slots.res_pos[moved as usize][j2] = pos as u32;
            }
            self.mark(r);
        }
        rate
    }
}

/// Hot-loop telemetry, accumulated locally and flushed to the trace
/// registry once per [`run_incremental`] call.
#[derive(Default)]
struct EngineStats {
    events: u64,
    refill_waves: u64,
    compactions: u64,
    heap_pops: u64,
    stale_pops: u64,
    rate_changes: u64,
    noop_waves: u64,
}

/// Records the node events of one fault boundary, restarts before
/// crashes — the order the dense oracle shares with this engine.
pub fn record_node_events(
    faults: &mut Vec<FaultEvent>,
    restarted: &[NodeId],
    crashed: &[NodeId],
    at_us: f64,
) {
    for &node in restarted {
        faults.push(FaultEvent::NodeRestarted { node, at_us });
    }
    for &node in crashed {
        faults.push(FaultEvent::NodeCrashed { node, at_us });
    }
}

/// Counts down the pending dependencies of `dependents`, readying each
/// that has none left.
fn release(dependents: &[u32], indeg: &mut [u32], ready: &mut Vec<u32>) {
    for &dep in dependents {
        indeg[dep as usize] -= 1;
        if indeg[dep as usize] == 0 {
            ready.push(dep);
        }
    }
}

/// Executes `graph` on `cluster` with the incremental scheduler, honoring
/// `plan` (see [`crate::fault`]). Node and plan validity are the caller's
/// responsibility ([`crate::sim::Simulation::run`] checks before calling
/// here).
///
/// Fault events are recorded inline in the dense oracle's order: at each
/// boundary `NodeRestarted`, then `NodeCrashed`, then `ActivityKilled` in
/// activity id order.
pub(crate) fn run_incremental(
    cluster: &ClusterSpec,
    graph: &ActivityGraph,
    plan: &FaultPlan,
    mode: RefillMode,
) -> Result<SimResult, SimError> {
    let n = graph.len();
    let _span = granula_trace::span!("engine", "run_incremental activities={n}");
    let mut stats = EngineStats::default();
    let mut table = ResourceTable::new(cluster);
    let base_caps = table.caps.clone();
    let active = !plan.is_empty();
    let mut clock = FaultClock::new(plan, cluster.len());
    let mut faults: Vec<FaultEvent> = Vec::new();
    let mut parked: Vec<u32> = Vec::new();
    let mut crashed_buf: Vec<NodeId> = Vec::new();
    let mut restarted_buf: Vec<NodeId> = Vec::new();
    let mut doomed: Vec<(u32, NodeId)> = Vec::new();
    let mut caps_scratch = vec![0.0f64; base_caps.len()];
    let n_res = table.len();
    let mut trace = UsageTrace::new(cluster);
    let mut results = vec![
        ActivityResult {
            start_us: f64::NAN,
            end_us: f64::NAN
        };
        n
    ];

    // Dependency bookkeeping as a CSR built in two passes. Filling in
    // ascending id order keeps each dependent list ascending.
    let mut indeg = vec![0u32; n];
    let mut dep_off = vec![0u32; n + 1];
    for (i, indeg) in indeg.iter_mut().enumerate() {
        let deps = graph.deps_of(ActivityId(i as u32));
        *indeg = deps.len() as u32;
        for d in deps {
            dep_off[d.0 as usize + 1] += 1;
        }
    }
    for i in 0..n {
        dep_off[i + 1] += dep_off[i];
    }
    let mut dep_cursor = dep_off[..n].to_vec();
    let mut dep_buf = vec![0u32; dep_off[n] as usize];
    for i in 0..n {
        for d in graph.deps_of(ActivityId(i as u32)) {
            let d = d.0 as usize;
            dep_buf[dep_cursor[d] as usize] = i as u32;
            dep_cursor[d] += 1;
        }
    }
    let dependents = |i: usize| &dep_buf[dep_off[i] as usize..dep_off[i + 1] as usize];

    let mut ready: Vec<u32> = (0..n as u32).filter(|&i| indeg[i as usize] == 0).collect();

    // SoA slot storage with a free list; slot indices are reused so every
    // column stays dense.
    let mut slots = Slots::new();
    let mut free: Vec<u32> = Vec::new();
    let mut occupied = 0usize;

    let mut users = ResUsers {
        lists: vec![Vec::new(); n_res],
        others: vec![Vec::new(); n_res],
        dirty: vec![false; n_res],
        dirty_list: Vec::new(),
    };
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::new();
    // Entries orphaned by generation bumps. When they outnumber the live
    // entries the heap is compacted in one O(n) pass, keeping pushes and
    // pops near O(log live) instead of O(log total-ever-pushed).
    let mut heap_stale = 0usize;

    // Run-owned scratch, reused across steps.
    let mut changed: Vec<(u64, u32)> = Vec::new();
    let mut res_list: Vec<usize> = Vec::new();
    let mut res_seen = vec![false; n_res];
    // Each discovered resource's position in `res_list`.
    let mut rank = vec![0u32; n_res];
    let mut new_rate: Vec<f64> = Vec::new();
    let mut refill = Fill::default();
    refill.mode = mode;
    let mut completing: Vec<u32> = Vec::new();
    let mut usage = PairUsage::new(cluster.len());

    let mut done = 0usize;
    let mut now = 0.0f64;

    // Faults scheduled at t=0 take effect before anything starts, so
    // activities bound to a node that is dead from the outset park instead
    // of starting (mirrors the dense oracle).
    if active && matches!(clock.next_boundary(), Some(b) if b <= 0.0) {
        let caps_changed = clock.advance(0.0, &mut crashed_buf, &mut restarted_buf);
        record_node_events(&mut faults, &restarted_buf, &crashed_buf, 0.0);
        if caps_changed {
            clock.refresh_caps(&base_caps, &mut table.caps, 0.0);
        }
    }

    loop {
        // Start everything ready; zero-amount activities finish at once,
        // cascading through their dependents. Under an active plan,
        // activities bound to a down node park until its restart (or fail
        // the run if it never restarts).
        while let Some(i) = ready.pop() {
            let i = i as usize;
            let kind = graph.kind_of(ActivityId(i as u32));
            if active {
                if let Some(node) = clock.blocking_node(kind) {
                    if clock.has_pending_restart(node) {
                        parked.push(i as u32);
                        continue;
                    }
                    return Err(SimError::NodeLost {
                        node,
                        activity: ActivityId(i as u32),
                        at_us: now.round() as u64,
                    });
                }
            }
            let amount = kind.amount();
            results[i].start_us = now;
            if amount <= 0.0 {
                results[i].end_us = now;
                done += 1;
                release(dependents(i), &mut indeg, &mut ready);
                continue;
            }
            let d = demand(&table, kind);
            let si = match free.pop() {
                Some(s) => s as usize,
                None => {
                    let s = slots.push_vacant();
                    new_rate.push(0.0);
                    s
                }
            };
            let gen = slots.gen[si].wrapping_add(1);
            slots.id[si] = i as u32;
            slots.demand[si] = d;
            slots.rate[si] = 0.0;
            slots.anchor_us[si] = now;
            slots.remaining[si] = amount;
            slots.eps_work[si] = 1e-6 * amount.max(1.0);
            slots.gen[si] = gen;
            slots.live[si] = true;
            slots.trace[si] = trace_targets(kind);
            slots.res_pos[si] = [0; 2];
            refill.arrive(si);
            occupied += 1;
            if d.n_resources == 0 {
                // No shared resource: the rate is fixed for the slot's
                // lifetime (a delay's 1 µs/µs), so it never refills.
                let rate = if d.cap.is_finite() { d.cap } else { 1.0 };
                slots.rate[si] = rate;
                heap.push(HeapEntry {
                    finish_us: now + amount / rate,
                    slot: si as u32,
                    gen,
                });
            } else {
                users.attach(&mut slots, si);
            }
        }
        if done == n {
            break;
        }
        if occupied == 0 && (!active || clock.next_boundary().is_none()) {
            return Err(SimError::Deadlock {
                unstarted: n - done,
            });
        }

        if !users.dirty_list.is_empty() {
            stats.refill_waves += 1;
            // Transitive closure of the dirty resources over the
            // activity↔resource bipartite graph, in BFS order: resources
            // in discovery order, each user list scanned in order for its
            // users' other resources.
            res_list.clear();
            for &r in &users.dirty_list {
                if !res_seen[r] {
                    res_seen[r] = true;
                    rank[r] = res_list.len() as u32;
                    res_list.push(r);
                }
            }
            let mut head = 0;
            while let Some(&r) = res_list.get(head) {
                head += 1;
                for &r2 in &users.others[r] {
                    if r2 != NO_RESOURCE && !res_seen[r2 as usize] {
                        res_seen[r2 as usize] = true;
                        rank[r2 as usize] = res_list.len() as u32;
                        res_list.push(r2 as usize);
                    }
                }
            }
            // Water filling restricted to the affected set. The closure
            // contains every user of every involved resource, so filling
            // against full capacities reproduces the joint fixpoint for
            // exactly these activities.
            let closure = Closure {
                caps: &table.caps,
                demands: &slots.demand,
                resources: &res_list,
                lists: &users.lists,
                dirty: &users.dirty_list,
            };
            let rated = refill.fill(&closure, &mut new_rate);
            // The slots whose rate changed, in BFS order: by the first
            // discovered of a slot's resources, then by its place in that
            // resource's list.
            changed.clear();
            for &si in rated {
                let si = si as usize;
                if new_rate[si] != slots.rate[si] {
                    let d = &slots.demand[si];
                    let j = usize::from(
                        d.n_resources == 2 && rank[d.resources[1]] < rank[d.resources[0]],
                    );
                    let key =
                        u64::from(rank[d.resources[j]]) << 32 | u64::from(slots.res_pos[si][j]);
                    changed.push((key, si as u32));
                }
            }
            changed.sort_unstable();
            for &r in &users.dirty_list {
                users.dirty[r] = false;
            }
            users.dirty_list.clear();
            for &r in &res_list {
                res_seen[r] = false;
            }

            // Apply in discovery order, so the usage deltas sum in a fixed
            // order: re-anchor, bump generations, and re-key the heap for
            // slots whose rate actually changed; untouched slots keep
            // their (still valid) heap entries.
            stats.rate_changes += changed.len() as u64;
            stats.noop_waves += u64::from(changed.is_empty());
            for &(_, si) in &changed {
                let si = si as usize;
                let r_new = new_rate[si];
                if slots.rate[si] > 0.0 && now > slots.anchor_us[si] {
                    slots.remaining[si] -= slots.rate[si] * (now - slots.anchor_us[si]);
                }
                let targets = slots.trace[si];
                for t in 0..targets.n as usize {
                    let (ch, node) = targets.ch[t];
                    usage.defer(ch, node, r_new - slots.rate[si]);
                }
                slots.anchor_us[si] = now;
                if slots.rate[si] > 0.0 {
                    // The slot's previous heap entry (one exists whenever it
                    // had a positive rate) is orphaned by the gen bump.
                    heap_stale += 1;
                }
                slots.rate[si] = r_new;
                slots.gen[si] = slots.gen[si].wrapping_add(1);
                if r_new > 0.0 {
                    heap.push(HeapEntry {
                        finish_us: now + slots.remaining[si].max(0.0) / r_new,
                        slot: si as u32,
                        gen: slots.gen[si],
                    });
                }
            }
            usage.commit(&mut trace, now);
        }

        // Compact the heap once stale entries outnumber valid ones, so the
        // working set stays O(live) instead of O(total pushes).
        if heap_stale > 128 && heap_stale * 2 > heap.len() {
            stats.compactions += 1;
            let mut entries = std::mem::take(&mut heap).into_vec();
            entries.retain(|e| {
                let si = e.slot as usize;
                slots.live[si] && slots.gen[si] == e.gen
            });
            heap = BinaryHeap::from(entries);
            heap_stale = 0;
        }

        // Next event: the earliest valid projected completion, weighed
        // against the next fault boundary when a plan is active.
        let top: Option<HeapEntry> = if occupied == 0 {
            None
        } else {
            loop {
                match heap.pop() {
                    None => break None,
                    Some(e) => {
                        stats.heap_pops += 1;
                        let si = e.slot as usize;
                        if slots.live[si] && slots.gen[si] == e.gen {
                            break Some(e);
                        }
                        heap_stale -= 1;
                        stats.stale_pops += 1;
                    }
                }
            }
        };
        let boundary = if active { clock.next_boundary() } else { None };
        let take_boundary = match (&top, boundary) {
            // A completion at exactly a boundary instant wins (strict `<`),
            // matching the dense oracle.
            (Some(e), Some(b)) => b < e.finish_us,
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (None, None) => {
                // Live slots remain but none can finish and no fault
                // boundary can change that — stalled on a zero-capacity
                // resource. Report the lowest live id (deterministic
                // regardless of slot layout).
                let activity = (0..slots.len())
                    .filter(|&si| slots.live[si])
                    .map(|si| ActivityId(slots.id[si]))
                    .min()
                    .expect("occupied > 0 implies a live slot");
                return Err(SimError::Stalled { activity });
            }
        };

        stats.events += 1;

        if take_boundary {
            // The popped completion (if any) lies beyond the boundary; put
            // it back and process the fault instead.
            if let Some(e) = top {
                heap.push(e);
            }
            let b = boundary.expect("take_boundary implies a boundary");
            now = now.max(b);
            crashed_buf.clear();
            restarted_buf.clear();
            let caps_changed = clock.advance(now, &mut crashed_buf, &mut restarted_buf);
            record_node_events(&mut faults, &restarted_buf, &crashed_buf, now);
            if !crashed_buf.is_empty() {
                // Kill every in-flight activity touching a down node:
                // forced completion at the crash instant, dependents
                // released. Killed in ActivityId order for determinism.
                doomed.clear();
                for si in 0..slots.len() {
                    if slots.live[si] {
                        let id = ActivityId(slots.id[si]);
                        if let Some(node) = clock.blocking_node(graph.kind_of(id)) {
                            doomed.push((si as u32, node));
                        }
                    }
                }
                doomed.sort_by_key(|&(si, _)| slots.id[si as usize]);
                for &(si, node) in &doomed {
                    let si = si as usize;
                    let i = slots.id[si] as usize;
                    refill.depart(si);
                    if users.retire(&mut slots, si, &mut usage) > 0.0 {
                        // Its heap entry is orphaned by the kill.
                        heap_stale += 1;
                    }
                    occupied -= 1;
                    results[i].end_us = now;
                    done += 1;
                    faults.push(FaultEvent::ActivityKilled {
                        activity: ActivityId(i as u32),
                        node,
                        at_us: now,
                    });
                    free.push(si as u32);
                    release(dependents(i), &mut indeg, &mut ready);
                }
            }
            if !crashed_buf.is_empty() || !restarted_buf.is_empty() {
                // Re-examine parked activities: a restarted node frees
                // them; a node that lost its last pending restart is gone
                // for good.
                let mut kept = 0;
                for k in 0..parked.len() {
                    let id = ActivityId(parked[k]);
                    match clock.blocking_node(graph.kind_of(id)) {
                        None => ready.push(id.0),
                        Some(node) => {
                            if !clock.has_pending_restart(node) {
                                return Err(SimError::NodeLost {
                                    node,
                                    activity: id,
                                    at_us: now.round() as u64,
                                });
                            }
                            parked[kept] = id.0;
                            kept += 1;
                        }
                    }
                }
                parked.truncate(kept);
            }
            if caps_changed {
                // Re-derive capacities and mark every changed resource
                // dirty so the next refill re-rates its users.
                clock.refresh_caps(&base_caps, &mut caps_scratch, now);
                for (r, (&new_cap, cur)) in
                    caps_scratch.iter().zip(table.caps.iter_mut()).enumerate()
                {
                    if new_cap != *cur {
                        *cur = new_cap;
                        users.mark(r);
                    }
                }
            }
            usage.commit(&mut trace, now);
            continue;
        }

        let top = top.expect("take_boundary is false, so a completion was popped");
        now = now.max(top.finish_us);

        // Complete the popped slot plus every further slot projected to
        // land within its own tolerance of `now` — the heap-shaped
        // equivalent of the dense oracle's epsilon sweep.
        completing.clear();
        completing.push(top.slot);
        while let Some(&e) = heap.peek() {
            let si = e.slot as usize;
            if !(slots.live[si] && slots.gen[si] == e.gen) {
                heap.pop();
                heap_stale -= 1;
                stats.heap_pops += 1;
                stats.stale_pops += 1;
                continue;
            }
            if (e.finish_us - now) * slots.rate[si] <= slots.eps_work[si] {
                completing.push(e.slot);
                heap.pop();
                stats.heap_pops += 1;
            } else {
                break;
            }
        }
        for &si in &completing {
            let si = si as usize;
            let i = slots.id[si] as usize;
            refill.depart(si);
            users.retire(&mut slots, si, &mut usage);
            occupied -= 1;
            results[i].end_us = now;
            done += 1;
            free.push(si as u32);
            release(dependents(i), &mut indeg, &mut ready);
        }
        usage.commit(&mut trace, now);
    }

    if granula_trace::enabled() {
        granula_trace::counter_add("engine.events_processed", stats.events);
        granula_trace::counter_add("engine.refill_waves", stats.refill_waves);
        granula_trace::counter_add("engine.heap_compactions", stats.compactions);
        granula_trace::counter_add("engine.heap_pops", stats.heap_pops);
        granula_trace::counter_add("engine.heap_stale_pops", stats.stale_pops);
        granula_trace::counter_add("engine.fill_rounds", refill.rounds);
        granula_trace::counter_add("engine.rate_changes", stats.rate_changes);
        granula_trace::counter_add("engine.noop_waves", stats.noop_waves);
        granula_trace::counter_add("engine.resumed_refills", refill.resumed);
        granula_trace::counter_add("engine.skipped_rounds", refill.skipped_rounds);
        if stats.heap_pops > 0 {
            granula_trace::gauge_set(
                "engine.stale_entry_ratio",
                stats.stale_pops as f64 / stats.heap_pops as f64,
            );
        }
    }

    let makespan_us = results.iter().map(|r| r.end_us).fold(0.0, f64::max);
    Ok(SimResult {
        results,
        makespan_us,
        trace,
        faults,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_orders_by_finish_then_slot() {
        let mut h = BinaryHeap::new();
        h.push(HeapEntry {
            finish_us: 5.0,
            slot: 2,
            gen: 0,
        });
        h.push(HeapEntry {
            finish_us: 3.0,
            slot: 9,
            gen: 0,
        });
        h.push(HeapEntry {
            finish_us: 3.0,
            slot: 1,
            gen: 0,
        });
        let a = h.pop().unwrap();
        assert_eq!((a.finish_us, a.slot), (3.0, 1));
        let b = h.pop().unwrap();
        assert_eq!((b.finish_us, b.slot), (3.0, 9));
        assert_eq!(h.pop().unwrap().slot, 2);
    }
}
