//! Partitioned incremental max-min scheduler: the engine behind
//! [`crate::sim::Simulation::run`] above its cutover.
//!
//! The dense loop in [`crate::sim`] re-rates *all* running activities at
//! every event and rescans them for the earliest completion. This engine
//! exploits the component structure of max-min fairness instead.
//!
//! **Within an event**, the fixpoint decomposes over connected components
//! of the bipartite activity↔resource graph, so an arrival or departure
//! can only change the rates of activities *transitively coupled to it
//! through shared resources*. Per event the engine keeps:
//!
//! - **dirty resources** — resources whose user set or capacity changed;
//! - an **affected set** — the transitive closure of the dirty resources
//!   over `resource → users → their resources`, found by BFS;
//! - a **refill** of the affected set by the shared water-filling kernel
//!   ([`crate::resources::fill_rates`]);
//! - a **lazy completion heap** of `(projected finish, slot, generation)`
//!   entries. A slot's generation bumps whenever its rate changes, and
//!   stale entries are skipped on pop.
//!
//! **Across the whole run**, [`partition`] splits the graph into connected
//! components over `dependency ∪ shared-resource` edges and
//! [`run_partitioned`] simulates each independently — optionally on scoped
//! worker threads — then merges results, traces and fault events
//! deterministically: components never exchange rates and never share a
//! `(channel, node)` trace series. Platform DAGs do not split: every
//! 32-node choke-matrix job (3.4k–12.6k activities) is one component, and
//! a PageRank refill couples about 490 activities.
//!
//! Slot state lives in [`Slots`], a struct-of-arrays. Remaining work is
//! accounted lazily: each slot stores `(anchor_us, remaining-at-anchor,
//! rate)` and is re-anchored only when its rate changes. Usage is flushed
//! per `(channel, node)` pair per event ([`PairUsage`]), not per activity.
//!
//! Determinism: iteration orders (ready stack, BFS discovery, heap
//! tie-breaks by slot index, component order by minimum activity id, merge
//! order by component index) are pure functions of the input graph, so a
//! given `(cluster, graph, plan)` triple always produces bit-identical
//! results at any thread count.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Mutex;

use crate::activity::{ActivityGraph, ActivityId, ActivityKind};
use crate::fault::{FaultClock, FaultEvent, FaultPlan};
use crate::resources::{demand, fill_rates, Demand, FillScratch, ResourceTable};
use crate::sim::{ActivityResult, SimError, SimResult};
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
pub(crate) struct TraceTargets {
    pub(crate) ch: [(Channel, NodeId); 2],
    pub(crate) n: u8,
}

pub(crate) fn trace_targets(kind: &ActivityKind) -> TraceTargets {
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

/// Dense per-`(channel, node)` accumulator batching [`UsageTrace`] spans.
///
/// Within one flush wave every pushed span ends at the same boundary, so
/// spans sharing `(channel, node, start)` — the common case when a whole
/// component re-anchors at once — merge into a single `UsageTrace::add`.
pub(crate) struct FlushWave {
    t0: Vec<f64>,
    rate: Vec<f64>,
    on: Vec<bool>,
    touched: Vec<u32>,
    nodes: usize,
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

impl FlushWave {
    pub(crate) fn new(nodes: usize) -> Self {
        FlushWave {
            t0: vec![0.0; 4 * nodes],
            rate: vec![0.0; 4 * nodes],
            on: vec![false; 4 * nodes],
            touched: Vec::new(),
            nodes,
        }
    }

    fn slot_index(&self, ch: Channel, node: NodeId) -> usize {
        channel_index(ch) * self.nodes + node.0 as usize
    }

    /// Adds the span `[t0, t1) @ rate`; merges with a pending span of the
    /// same `(channel, node, t0)`, else emits the pending one first.
    pub(crate) fn push(
        &mut self,
        trace: &mut UsageTrace,
        ch: Channel,
        node: NodeId,
        t0: f64,
        t1: f64,
        rate: f64,
    ) {
        let i = self.slot_index(ch, node);
        if self.on[i] {
            if self.t0[i] == t0 {
                self.rate[i] += rate;
                return;
            }
            trace.add(ch, node, self.t0[i], t1, self.rate[i]);
            self.t0[i] = t0;
            self.rate[i] = rate;
        } else {
            self.on[i] = true;
            self.t0[i] = t0;
            self.rate[i] = rate;
            self.touched.push(i as u32);
        }
    }

    /// Emits every pending span, all ending at `t1`.
    pub(crate) fn flush_all(&mut self, trace: &mut UsageTrace, t1: f64) {
        for k in 0..self.touched.len() {
            let i = self.touched[k] as usize;
            if self.on[i] {
                let ch = channel_of(i / self.nodes);
                let node = NodeId((i % self.nodes) as u16);
                trace.add(ch, node, self.t0[i], t1, self.rate[i]);
                self.on[i] = false;
            }
        }
        self.touched.clear();
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
    /// Component-local activity index occupying the slot.
    id: Vec<u32>,
    demand: Vec<Demand>,
    rate: Vec<f64>,
    anchor_us: Vec<f64>,
    remaining: Vec<f64>,
    /// Completion tolerance in work units (`1e-6 × amount`, floored at
    /// `1e-6`), matching the reference engine's epsilon grouping.
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

/// Per-resource user lists (slot indices) and the resources whose user
/// set or capacity changed since the last refill.
struct ResUsers {
    lists: Vec<Vec<u32>>,
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
        for (j, &r) in d.resources[..d.n_resources as usize].iter().enumerate() {
            slots.res_pos[si][j] = self.lists[r].len() as u32;
            self.lists[r].push(si as u32);
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

/// Hot-loop telemetry, accumulated locally per component and flushed to the
/// trace registry once per [`run_partitioned`] call.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct EngineStats {
    pub(crate) events: u64,
    pub(crate) refill_waves: u64,
    pub(crate) compactions: u64,
    pub(crate) heap_pops: u64,
    pub(crate) stale_pops: u64,
    pub(crate) fill_rounds: u64,
}

impl EngineStats {
    fn absorb(&mut self, o: &EngineStats) {
        self.events += o.events;
        self.refill_waves += o.refill_waves;
        self.compactions += o.compactions;
        self.heap_pops += o.heap_pops;
        self.stale_pops += o.stale_pops;
        self.fill_rounds += o.fill_rounds;
    }
}

/// Result of simulating one connected component in isolation.
struct CompOutcome {
    /// Per-activity results, indexed by component-local activity index.
    results: Vec<ActivityResult>,
    trace: UsageTrace,
    /// `(at_us, global activity id, node)` for every activity killed by a
    /// crash, in the order the component emitted them (ascending time,
    /// ascending id within a time).
    kills: Vec<(f64, u32, NodeId)>,
    /// Highest fault boundary this component processed in its main loop
    /// (prestep boundaries at t ≤ 0 excluded).
    last_boundary: Option<f64>,
    makespan: f64,
    stats: EngineStats,
}

/// Connected components of the activity graph over
/// `dependency ∪ shared-resource` edges.
///
/// `comp_items[comp_off[c]..comp_off[c+1]]` lists component `c`'s activity
/// ids in ascending order; components are numbered by their minimum
/// activity id. `g2l[i]` is activity `i`'s index within its component —
/// ascending global order maps to ascending local order, which is what
/// keeps the per-component engine's iteration orders identical to the
/// monolithic engine's.
pub(crate) struct Partition {
    pub(crate) comp_off: Vec<u32>,
    pub(crate) comp_items: Vec<u32>,
    pub(crate) g2l: Vec<u32>,
}

impl Partition {
    pub(crate) fn component_count(&self) -> usize {
        self.comp_off.len().saturating_sub(1)
    }
}

fn uf_find(parent: &mut [u32], mut x: u32) -> u32 {
    // Path halving.
    while parent[x as usize] != x {
        let gp = parent[parent[x as usize] as usize];
        parent[x as usize] = gp;
        x = gp;
    }
    x
}

fn uf_union(parent: &mut [u32], a: u32, b: u32) {
    let ra = uf_find(parent, a);
    let rb = uf_find(parent, b);
    if ra != rb {
        // Smaller root wins so roots stay stable-ish; correctness does not
        // depend on it (component numbering re-sorts by min id below).
        if ra < rb {
            parent[rb as usize] = ra;
        } else {
            parent[ra as usize] = rb;
        }
    }
}

/// Partitions `graph` into connected components over dependency edges and
/// shared-resource co-use (two activities demanding the same resource are
/// coupled, transitively). Max-min fair rates — and therefore the whole
/// event timeline — decompose exactly over these components.
pub(crate) fn partition(cluster: &ClusterSpec, graph: &ActivityGraph) -> Partition {
    let n = graph.len();
    let table = ResourceTable::new(cluster);
    let mut parent: Vec<u32> = (0..n as u32).collect();
    // First activity seen demanding each resource; later users union with it.
    let mut res_rep: Vec<u32> = vec![u32::MAX; table.len()];
    for i in 0..n {
        let id = ActivityId(i as u32);
        for &d in graph.deps_of(id) {
            uf_union(&mut parent, i as u32, d.0);
        }
        let dem = demand(&table, graph.kind_of(id));
        for &r in &dem.resources[..dem.n_resources as usize] {
            if res_rep[r] == u32::MAX {
                res_rep[r] = i as u32;
            } else {
                uf_union(&mut parent, i as u32, res_rep[r]);
            }
        }
    }
    // Number components by first appearance (== minimum activity id) and
    // group members with a counting sort so each component's items ascend.
    let mut comp_of = vec![0u32; n];
    let mut comp_sizes: Vec<u32> = Vec::new();
    for i in 0..n {
        let root = uf_find(&mut parent, i as u32) as usize;
        let c = if root == i {
            comp_sizes.push(0);
            (comp_sizes.len() - 1) as u32
        } else {
            // The root has a smaller id than any non-root member under the
            // min-root union rule, so it was numbered already.
            comp_of[root]
        };
        comp_of[i] = c;
        comp_sizes[c as usize] += 1;
    }
    let k = comp_sizes.len();
    let mut comp_off = vec![0u32; k + 1];
    for c in 0..k {
        comp_off[c + 1] = comp_off[c] + comp_sizes[c];
    }
    let mut cursor: Vec<u32> = comp_off[..k].to_vec();
    let mut comp_items = vec![0u32; n];
    let mut g2l = vec![0u32; n];
    for i in 0..n {
        let c = comp_of[i] as usize;
        let pos = cursor[c];
        comp_items[pos as usize] = i as u32;
        g2l[i] = pos - comp_off[c];
        cursor[c] += 1;
    }
    Partition {
        comp_off,
        comp_items,
        g2l,
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

/// Simulates one connected component in isolation.
///
/// `ids` lists the component's activities (ascending global ids) and `g2l`
/// maps global activity id → component-local index (only entries for this
/// component's activities are read). The body is an exact port of the
/// pre-partitioning monolithic engine with component-local indexing: for a
/// single-component graph every f64 operation happens in the same order,
/// so results, traces, and fault timing are bit-identical to it.
///
/// Fault handling differs from the monolithic engine in bookkeeping only:
/// `NodeCrashed`/`NodeRestarted` events are *not* recorded here (every
/// component sees the same global fault plan; [`run_partitioned`] replays
/// the plan once to reconstruct them), while `ActivityKilled` events are
/// recorded as raw `(at_us, id, node)` rows for the merge to splice into
/// the replayed timeline.
fn run_component(
    cluster: &ClusterSpec,
    graph: &ActivityGraph,
    plan: &FaultPlan,
    ids: &[u32],
    g2l: &[u32],
) -> Result<CompOutcome, SimError> {
    let n = ids.len();
    let mut stats = EngineStats::default();
    let mut table = ResourceTable::new(cluster);
    let base_caps = table.caps.clone();
    let active = !plan.is_empty();
    let mut clock = FaultClock::new(plan, cluster.len());
    let mut kills: Vec<(f64, u32, NodeId)> = Vec::new();
    let mut last_boundary: Option<f64> = None;
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

    // Dependency bookkeeping over component-local indices, as a CSR built
    // in two passes. Filling ascending keeps each dependent list in
    // ascending local (== global) order, matching the monolithic engine's
    // push order.
    let mut indeg = vec![0u32; n];
    let mut dep_cnt = vec![0u32; n];
    for (li, &gi) in ids.iter().enumerate() {
        let deps = graph.deps_of(ActivityId(gi));
        indeg[li] = deps.len() as u32;
        for d in deps {
            dep_cnt[g2l[d.0 as usize] as usize] += 1;
        }
    }
    let mut dep_off = vec![0u32; n + 1];
    for i in 0..n {
        dep_off[i + 1] = dep_off[i] + dep_cnt[i];
    }
    let mut dep_cursor = dep_off[..n].to_vec();
    let mut dep_buf = vec![0u32; dep_off[n] as usize];
    for (li, &gi) in ids.iter().enumerate() {
        for d in graph.deps_of(ActivityId(gi)) {
            let dl = g2l[d.0 as usize] as usize;
            dep_buf[dep_cursor[dl] as usize] = li as u32;
            dep_cursor[dl] += 1;
        }
    }
    let dependents = |li: usize| &dep_buf[dep_off[li] as usize..dep_off[li + 1] as usize];

    let mut ready: Vec<u32> = (0..n as u32)
        .filter(|&li| indeg[li as usize] == 0)
        .collect();

    // SoA slot storage with a free list; slot indices are reused so every
    // column stays dense.
    let mut slots = Slots::new();
    let mut free: Vec<u32> = Vec::new();
    let mut occupied = 0usize;

    let mut users = ResUsers {
        lists: vec![Vec::new(); n_res],
        dirty: vec![false; n_res],
        dirty_list: Vec::new(),
    };
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::new();
    // Entries orphaned by generation bumps. When they outnumber the live
    // entries the heap is compacted in one O(n) pass, keeping pushes and
    // pops near O(log live) instead of O(log total-ever-pushed).
    let mut heap_stale = 0usize;

    // Run-owned scratch, reused across steps.
    let mut affected: Vec<u32> = Vec::new();
    let mut in_affected: Vec<bool> = Vec::new();
    let mut res_list: Vec<usize> = Vec::new();
    let mut res_seen = vec![false; n_res];
    let mut aff_demand: Vec<Demand> = Vec::new();
    let mut new_rate: Vec<f64> = Vec::new();
    let mut fill = FillScratch::default();
    let mut completing: Vec<u32> = Vec::new();
    let mut usage = PairUsage::new(cluster.len());

    let mut done = 0usize;
    let mut now = 0.0f64;

    // Faults scheduled at t=0 take effect before anything starts, so
    // activities bound to a node that is dead from the outset park instead
    // of starting (mirrors the reference engine). The events themselves
    // are replayed by the merge.
    if active && matches!(clock.next_boundary(), Some(b) if b <= 0.0) {
        let caps_changed = clock.advance(0.0, &mut crashed_buf, &mut restarted_buf);
        if caps_changed {
            clock.refresh_caps(&base_caps, &mut table.caps, 0.0);
        }
    }

    loop {
        // Start everything ready; zero-amount activities finish at once,
        // cascading through their dependents. Under an active plan,
        // activities bound to a down node park until its restart (or fail
        // the run if it never restarts).
        while let Some(li) = ready.pop() {
            let li = li as usize;
            let kind = graph.kind_of(ActivityId(ids[li]));
            if active {
                if let Some(node) = clock.blocking_node(kind) {
                    if clock.has_pending_restart(node) {
                        parked.push(li as u32);
                        continue;
                    }
                    return Err(SimError::NodeLost {
                        node,
                        activity: ActivityId(ids[li]),
                        at_us: now.round() as u64,
                    });
                }
            }
            let amount = kind.amount();
            results[li].start_us = now;
            if amount <= 0.0 {
                results[li].end_us = now;
                done += 1;
                release(dependents(li), &mut indeg, &mut ready);
                continue;
            }
            let d = demand(&table, kind);
            let si = match free.pop() {
                Some(i) => i as usize,
                None => {
                    let i = slots.push_vacant();
                    in_affected.push(false);
                    i
                }
            };
            let gen = slots.gen[si].wrapping_add(1);
            slots.id[si] = li as u32;
            slots.demand[si] = d;
            slots.rate[si] = 0.0;
            slots.anchor_us[si] = now;
            slots.remaining[si] = amount;
            slots.eps_work[si] = 1e-6 * amount.max(1.0);
            slots.gen[si] = gen;
            slots.live[si] = true;
            slots.trace[si] = trace_targets(kind);
            slots.res_pos[si] = [0; 2];
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
            // activity↔resource bipartite graph: BFS alternating
            // resource → users → their other resources.
            affected.clear();
            aff_demand.clear();
            res_list.clear();
            for &r in &users.dirty_list {
                if !res_seen[r] {
                    res_seen[r] = true;
                    res_list.push(r);
                }
            }
            let mut head = 0;
            while head < res_list.len() {
                let r = res_list[head];
                head += 1;
                for &si in &users.lists[r] {
                    if !in_affected[si as usize] {
                        in_affected[si as usize] = true;
                        affected.push(si);
                        // Copy the demand into a dense scratch row so the
                        // fill rounds below iterate contiguously.
                        let d = slots.demand[si as usize];
                        aff_demand.push(d);
                        for &r2 in &d.resources[..d.n_resources as usize] {
                            if !res_seen[r2] {
                                res_seen[r2] = true;
                                res_list.push(r2);
                            }
                        }
                    }
                }
            }
            for &r in &users.dirty_list {
                users.dirty[r] = false;
            }
            users.dirty_list.clear();

            // Water filling restricted to the affected set. The closure
            // contains every user of every involved resource, so filling
            // against full capacities reproduces the joint fixpoint for
            // exactly these activities.
            fill_rates(&table.caps, &aff_demand, &mut new_rate, &mut fill);
            for &r in &res_list {
                res_seen[r] = false;
            }

            // Apply: re-anchor, bump generations, and re-key the heap for
            // slots whose rate actually changed; untouched slots keep
            // their (still valid) heap entries.
            for (k, &si) in affected.iter().enumerate() {
                let si = si as usize;
                in_affected[si] = false;
                let r_new = new_rate[k];
                if r_new == slots.rate[si] {
                    continue;
                }
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
            // matching the reference engine.
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
                    .map(|si| ActivityId(ids[slots.id[si] as usize]))
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
            last_boundary = Some(b);
            crashed_buf.clear();
            restarted_buf.clear();
            let caps_changed = clock.advance(now, &mut crashed_buf, &mut restarted_buf);
            if !crashed_buf.is_empty() {
                // Kill every in-flight activity touching a down node:
                // forced completion at the crash instant, dependents
                // released. Killed in ActivityId order for determinism.
                doomed.clear();
                for si in 0..slots.len() {
                    if slots.live[si] {
                        let gi = ids[slots.id[si] as usize];
                        if let Some(node) = clock.blocking_node(graph.kind_of(ActivityId(gi))) {
                            doomed.push((si as u32, node));
                        }
                    }
                }
                doomed.sort_by_key(|&(si, _)| slots.id[si as usize]);
                for &(si, node) in &doomed {
                    let si = si as usize;
                    let li = slots.id[si] as usize;
                    if users.retire(&mut slots, si, &mut usage) > 0.0 {
                        // Its heap entry is orphaned by the kill.
                        heap_stale += 1;
                    }
                    occupied -= 1;
                    results[li].end_us = now;
                    done += 1;
                    kills.push((now, ids[li], node));
                    free.push(si as u32);
                    release(dependents(li), &mut indeg, &mut ready);
                }
            }
            if !crashed_buf.is_empty() || !restarted_buf.is_empty() {
                // Re-examine parked activities: a restarted node frees
                // them; a node that lost its last pending restart is gone
                // for good.
                let mut kept = 0;
                for i in 0..parked.len() {
                    let li = parked[i];
                    match clock.blocking_node(graph.kind_of(ActivityId(ids[li as usize]))) {
                        None => ready.push(li),
                        Some(node) => {
                            if !clock.has_pending_restart(node) {
                                return Err(SimError::NodeLost {
                                    node,
                                    activity: ActivityId(ids[li as usize]),
                                    at_us: now.round() as u64,
                                });
                            }
                            parked[kept] = li;
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
        // equivalent of the reference engine's epsilon sweep.
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
            let li = slots.id[si] as usize;
            users.retire(&mut slots, si, &mut usage);
            occupied -= 1;
            results[li].end_us = now;
            done += 1;
            free.push(si as u32);
            release(dependents(li), &mut indeg, &mut ready);
        }
        usage.commit(&mut trace, now);
    }

    stats.fill_rounds = fill.rounds;
    let makespan = results.iter().map(|r| r.end_us).fold(0.0, f64::max);
    Ok(CompOutcome {
        results,
        trace,
        kills,
        last_boundary,
        makespan,
        stats,
    })
}

/// Executes `graph` on `cluster` with the incremental scheduler, honoring
/// `plan` (see [`crate::fault`]). The graph is partitioned into connected
/// components which are simulated independently — on up to `threads`
/// scoped worker threads when `threads > 1` — and merged deterministically.
/// Node and plan validity are the caller's responsibility
/// ([`crate::sim::Simulation::run`] checks before dispatching here).
///
/// Results are identical for every value of `threads`: workers pull
/// component indices from an atomic cursor but deposit outcomes by index,
/// and every merge step iterates in component order.
pub(crate) fn run_partitioned(
    cluster: &ClusterSpec,
    graph: &ActivityGraph,
    plan: &FaultPlan,
    threads: usize,
) -> Result<SimResult, SimError> {
    let n = graph.len();
    let part = partition(cluster, graph);
    let k = part.component_count();
    let _span = granula_trace::span!(
        "engine",
        "run_partitioned activities={n} components={k} threads={threads}"
    );

    // Simulate every component (even after one errors: the canonical error
    // merge below needs all verdicts to pick the same error the monolithic
    // engine would have reported).
    let mut outcomes: Vec<Option<Result<CompOutcome, SimError>>> = Vec::with_capacity(k);
    if threads <= 1 || k <= 1 {
        for c in 0..k {
            let items = &part.comp_items[part.comp_off[c] as usize..part.comp_off[c + 1] as usize];
            outcomes.push(Some(run_component(cluster, graph, plan, items, &part.g2l)));
        }
    } else {
        outcomes.resize_with(k, || None);
        let slots = Mutex::new(&mut outcomes);
        let cursor = AtomicUsize::new(0);
        let workers = threads.min(k);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut local: Vec<(usize, Result<CompOutcome, SimError>)> = Vec::new();
                    loop {
                        let c = cursor.fetch_add(1, AtomicOrdering::Relaxed);
                        if c >= k {
                            break;
                        }
                        let items = &part.comp_items
                            [part.comp_off[c] as usize..part.comp_off[c + 1] as usize];
                        local.push((c, run_component(cluster, graph, plan, items, &part.g2l)));
                    }
                    let mut out = slots.lock().unwrap();
                    for (c, r) in local {
                        out[c] = Some(r);
                    }
                });
            }
        });
    }

    // Canonical error merge, matching what the monolithic engine reports:
    // the first node loss in time wins over everything (it aborts the run
    // mid-timeline); a stall wins over deadlock (stalls are detected while
    // other components still hold live work, deadlock only once nothing
    // does); deadlock reports the total unstarted count.
    let mut comps: Vec<CompOutcome> = Vec::with_capacity(k);
    let mut node_lost: Option<(u64, u32, NodeId)> = None;
    let mut stalled: Option<u32> = None;
    let mut deadlocked = false;
    let mut unstarted_total = 0usize;
    for r in outcomes.into_iter().map(|o| o.expect("all components ran")) {
        match r {
            Ok(c) => comps.push(c),
            Err(SimError::NodeLost {
                node,
                activity,
                at_us,
            }) => {
                let better = node_lost.is_none_or(|(a, id, _)| (at_us, activity.0) < (a, id));
                if better {
                    node_lost = Some((at_us, activity.0, node));
                }
            }
            Err(SimError::Stalled { activity }) => {
                stalled = Some(stalled.map_or(activity.0, |s| s.min(activity.0)));
            }
            Err(SimError::Deadlock { unstarted }) => {
                deadlocked = true;
                unstarted_total += unstarted;
            }
            Err(e) => return Err(e),
        }
    }
    if let Some((at_us, id, node)) = node_lost {
        return Err(SimError::NodeLost {
            node,
            activity: ActivityId(id),
            at_us,
        });
    }
    if let Some(id) = stalled {
        return Err(SimError::Stalled {
            activity: ActivityId(id),
        });
    }
    if deadlocked {
        return Err(SimError::Deadlock {
            unstarted: unstarted_total,
        });
    }

    // Scatter per-activity results back to global ids and fold makespan in
    // component order.
    let mut results = vec![
        ActivityResult {
            start_us: f64::NAN,
            end_us: f64::NAN
        };
        n
    ];
    let mut makespan_us = 0.0f64;
    for (c, comp) in comps.iter().enumerate() {
        let items = &part.comp_items[part.comp_off[c] as usize..part.comp_off[c + 1] as usize];
        for (li, r) in comp.results.iter().enumerate() {
            results[items[li] as usize] = *r;
        }
        makespan_us = makespan_us.max(comp.makespan);
    }

    // Components never share a (channel, node) series — trace targets are
    // derived from the same resources that define the partition — so the
    // merged trace is an element-wise sum onto zeros. The single-component
    // case moves its trace through untouched (bit-identical path).
    let trace = if comps.len() == 1 {
        std::mem::replace(&mut comps[0].trace, UsageTrace::new(cluster))
    } else {
        let mut t = UsageTrace::new(cluster);
        for comp in &comps {
            t.absorb(&comp.trace);
        }
        t
    };

    // Rebuild the global fault timeline: replay the plan's boundaries that
    // the run reached (all below the makespan, plus a final boundary
    // landing exactly on it if some component processed one there), and
    // splice each component's kill records in at their boundary instants,
    // sorted by activity id within an instant — exactly the monolithic
    // engine's emission order.
    let mut faults: Vec<FaultEvent> = Vec::new();
    if !plan.is_empty() {
        let mut kills: Vec<(f64, u32, NodeId)> = Vec::new();
        for comp in &comps {
            kills.extend_from_slice(&comp.kills);
        }
        kills.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        // The highest boundary any component processed decides whether a
        // boundary landing exactly on the makespan was reached.
        let last = comps
            .iter()
            .filter_map(|c| c.last_boundary)
            .reduce(f64::max);
        let mut clock = FaultClock::new(plan, cluster.len());
        let mut crashed: Vec<NodeId> = Vec::new();
        let mut restarted: Vec<NodeId> = Vec::new();
        if matches!(clock.next_boundary(), Some(b) if b <= 0.0) {
            clock.advance(0.0, &mut crashed, &mut restarted);
            for &node in &restarted {
                faults.push(FaultEvent::NodeRestarted { node, at_us: 0.0 });
            }
            for &node in &crashed {
                faults.push(FaultEvent::NodeCrashed { node, at_us: 0.0 });
            }
        }
        let mut ki = 0usize;
        while let Some(b) = clock.next_boundary() {
            let reached = b < makespan_us || last.is_some_and(|m| m == b);
            if !reached {
                break;
            }
            crashed.clear();
            restarted.clear();
            clock.advance(b, &mut crashed, &mut restarted);
            for &node in &restarted {
                faults.push(FaultEvent::NodeRestarted { node, at_us: b });
            }
            for &node in &crashed {
                faults.push(FaultEvent::NodeCrashed { node, at_us: b });
            }
            while ki < kills.len() && kills[ki].0 == b {
                faults.push(FaultEvent::ActivityKilled {
                    activity: ActivityId(kills[ki].1),
                    node: kills[ki].2,
                    at_us: b,
                });
                ki += 1;
            }
        }
        debug_assert_eq!(ki, kills.len(), "every kill maps to a replayed boundary");
    }

    if granula_trace::enabled() {
        let mut stats = EngineStats::default();
        for comp in &comps {
            stats.absorb(&comp.stats);
        }
        granula_trace::counter_add("engine.events_processed", stats.events);
        granula_trace::counter_add("engine.refill_waves", stats.refill_waves);
        granula_trace::counter_add("engine.heap_compactions", stats.compactions);
        granula_trace::counter_add("engine.heap_pops", stats.heap_pops);
        granula_trace::counter_add("engine.heap_stale_pops", stats.stale_pops);
        granula_trace::counter_add("engine.fill_rounds", stats.fill_rounds);
        granula_trace::gauge_set("engine.components", k as f64);
        if stats.heap_pops > 0 {
            granula_trace::gauge_set(
                "engine.stale_entry_ratio",
                stats.stale_pops as f64 / stats.heap_pops as f64,
            );
        }
    }

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
    use crate::topology::NodeSpec;

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

    #[test]
    fn flush_wave_merges_same_span() {
        let cluster = ClusterSpec::homogeneous(
            2,
            NodeSpec {
                name: String::new(),
                cores: 8,
                disk_bps: 1e8,
                nic_bps: 1e8,
                mem_bytes: 1,
            },
        );
        let mut trace = UsageTrace::new(&cluster);
        let mut wave = FlushWave::new(2);
        // Three readers on node 0's disk over the same span merge into one
        // accumulation; a fourth on node 1 stays separate.
        for _ in 0..3 {
            wave.push(&mut trace, Channel::Disk, NodeId(0), 0.0, 10.0, 5.0);
        }
        wave.push(&mut trace, Channel::Disk, NodeId(1), 0.0, 10.0, 7.0);
        wave.flush_all(&mut trace, 10.0);
        let s0 = trace.series(Channel::Disk, NodeId(0));
        let s1 = trace.series(Channel::Disk, NodeId(1));
        assert!((s0[0].1 - 150.0).abs() < 1e-9, "{s0:?}");
        assert!((s1[0].1 - 70.0).abs() < 1e-9, "{s1:?}");
    }

    #[test]
    fn flush_wave_splits_differing_starts() {
        let cluster = ClusterSpec::homogeneous(
            1,
            NodeSpec {
                name: String::new(),
                cores: 8,
                disk_bps: 1e8,
                nic_bps: 1e8,
                mem_bytes: 1,
            },
        );
        let mut trace = UsageTrace::new(&cluster);
        let mut wave = FlushWave::new(1);
        // Same (channel, node), different anchors: both spans must land.
        wave.push(&mut trace, Channel::Disk, NodeId(0), 0.0, 20.0, 1.0);
        wave.push(&mut trace, Channel::Disk, NodeId(0), 10.0, 20.0, 1.0);
        wave.flush_all(&mut trace, 20.0);
        let s = trace.series(Channel::Disk, NodeId(0));
        // 1.0 over [0,20) plus 1.0 over [10,20) = 30 units in the bucket.
        assert!((s[0].1 - 30.0).abs() < 1e-9, "{s:?}");
    }

    #[test]
    fn partition_separates_independent_islands() {
        use crate::activity::ActivityGraph;
        let cluster = ClusterSpec::homogeneous(
            2,
            NodeSpec {
                name: String::new(),
                cores: 4,
                disk_bps: 1e8,
                nic_bps: 1e8,
                mem_bytes: 1,
            },
        );
        let mut g = ActivityGraph::new();
        // Island A: chain of two computes on node 0.
        let a0 = g.add(
            ActivityKind::Compute {
                node: NodeId(0),
                work_core_us: 1e6,
                parallelism: 4,
            },
            &[],
            "a0",
        );
        let _a1 = g.add(
            ActivityKind::Compute {
                node: NodeId(0),
                work_core_us: 1e6,
                parallelism: 4,
            },
            &[a0],
            "a1",
        );
        // Island B: one disk read on node 1.
        let _b0 = g.add(
            ActivityKind::DiskRead {
                node: NodeId(1),
                bytes: 1e6,
            },
            &[],
            "b0",
        );
        let p = partition(&cluster, &g);
        assert_eq!(p.component_count(), 2);
        assert_eq!(&p.comp_items[..], &[0, 1, 2]);
        assert_eq!(&p.comp_off[..], &[0, 2, 3]);
        assert_eq!(&p.g2l[..], &[0, 1, 0]);
    }

    #[test]
    fn partition_couples_via_shared_resources() {
        use crate::activity::ActivityGraph;
        let cluster = ClusterSpec::homogeneous(
            1,
            NodeSpec {
                name: String::new(),
                cores: 4,
                disk_bps: 1e8,
                nic_bps: 1e8,
                mem_bytes: 1,
            },
        );
        let mut g = ActivityGraph::new();
        // No dependency edges, but both computes land on node 0's cores —
        // max-min couples them, so they must share a component.
        g.add(
            ActivityKind::Compute {
                node: NodeId(0),
                work_core_us: 1e6,
                parallelism: 4,
            },
            &[],
            "x",
        );
        g.add(
            ActivityKind::Compute {
                node: NodeId(0),
                work_core_us: 1e6,
                parallelism: 4,
            },
            &[],
            "y",
        );
        let p = partition(&cluster, &g);
        assert_eq!(p.component_count(), 1);
    }
}
