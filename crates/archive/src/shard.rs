//! The archive query engine: sharded, concurrently readable, and the
//! one place that owns indexes, a result cache and invalidation.
//!
//! Every query surface runs on [`ShardedEngine`]: the `serve` daemon
//! over a fleet, and — with [`ServeOptions`] `{ shards: 1, .. }` over an
//! eagerly loaded store — `granula-cli archive query`/`stat` and the
//! regression history. Its shape:
//!
//! * **Sharding.** Jobs are distributed over [`DEFAULT_SHARDS`] shards by
//!   an FNV-1a hash of the job id ([`shard_of`]), so unrelated jobs never
//!   contend on the same cache lock.
//! * **Snapshot reads of shard contents.** Each shard's job table is an
//!   immutable [`ShardData`] snapshot behind an [`ArcCell`]; writers
//!   publish a whole new snapshot (clone-and-swap), readers evaluate on
//!   the `Arc` they grabbed and can never observe a half-applied upsert.
//! * **Per-shard LRU result cache**, generation-tagged: a cached result
//!   is served only when its generation matches the current snapshot's,
//!   so a swap implicitly invalidates every stale entry for that shard.
//! * **Admission/eviction for resident jobs.** Fleet files are opened as
//!   [`MappedStore`]s — jobs stay as cold mmap extents until a query
//!   (or [`ShardedEngine::job`]) lands on one, which decodes and indexes
//!   it into a bounded per-shard resident LRU. Evicting a resident job
//!   costs nothing but the memory: the mmap extent is still there, and
//!   the next query re-admits it.
//! * **Batching.** [`ShardedEngine::query_batch`] groups a batch by
//!   shard and reuses one snapshot + one cache lock per shard group.
//!
//! Evaluation itself is [`TreeIndex::evaluate`], so every answer is
//! bit-identical to the linear scans ([`Query::scan`]) of the same
//! archive — the equivalence `tests/differential.rs` pins.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use granula_model::OpId;
use serde::{Deserialize, Serialize};

use crate::archive::JobArchive;
use crate::binfmt::BinError;
use crate::index::TreeIndex;
use crate::lru::LruMap;
use crate::query::{Query, QueryMode};
use crate::store::{ArchiveStore, RunMeta};
use crate::swap::ArcCell;
use crate::zerocopy::MappedStore;

/// Default shard count. Shards bound lock contention, not capacity, so a
/// modest power of two covers typical fleets; tune via
/// [`ServeOptions::shards`].
pub const DEFAULT_SHARDS: usize = 8;

/// Default result-cache capacity per shard (entries, not bytes: query
/// results are id lists, small relative to the archives themselves).
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

/// Default bound on decoded-and-indexed jobs resident per shard.
pub const DEFAULT_RESIDENT_CAPACITY: usize = 64;

/// Routes `job_id` to a shard: FNV-1a over the id bytes, mod `shards`.
/// Deterministic across processes, so operators can predict placement.
pub fn shard_of(job_id: &str, shards: usize) -> usize {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in job_id.as_bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash % shards.max(1) as u64) as usize
}

/// Errors raised by fleet assembly and serving.
#[derive(Debug)]
pub enum ServeError {
    /// Two fleet files claim the same job id. Loading would silently
    /// let the last file win; name both so the operator can fix the
    /// fleet instead.
    DuplicateJob {
        /// The contested job id.
        job_id: String,
        /// File that introduced the job first.
        first: PathBuf,
        /// File that tried to introduce it again.
        second: PathBuf,
    },
    /// An archive file failed to open, verify, or decode.
    Bin(BinError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::DuplicateJob {
                job_id,
                first,
                second,
            } => write!(
                f,
                "job id `{job_id}` appears in two fleet files: {} and {}",
                first.display(),
                second.display()
            ),
            ServeError::Bin(e) => write!(f, "archive error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<BinError> for ServeError {
    fn from(e: BinError) -> Self {
        ServeError::Bin(e)
    }
}

/// A decoded, indexed job — the resident form queries evaluate against.
/// The index is always the one built from the archive's tree.
#[derive(Debug)]
pub struct ResidentJob {
    archive: JobArchive,
    index: TreeIndex,
}

impl ResidentJob {
    fn new(archive: JobArchive) -> Self {
        let index = TreeIndex::build(&archive.tree);
        ResidentJob { archive, index }
    }

    /// The decoded archive.
    pub fn archive(&self) -> &JobArchive {
        &self.archive
    }

    /// The secondary indexes of [`archive`](Self::archive)'s tree.
    pub fn index(&self) -> &TreeIndex {
        &self.index
    }
}

/// Where a job's bytes live.
#[derive(Debug, Clone)]
enum JobSource {
    /// Cold extent of a mapped fleet file; decoded on first query.
    Mapped(Arc<MappedStore>),
    /// Directly owned (added via [`ShardedEngine::from_store`] or
    /// [`ShardedEngine::upsert`]); always resident.
    Owned(Arc<ResidentJob>),
}

/// One shard's immutable job table. Published behind an [`ArcCell`];
/// never mutated after publication.
#[derive(Debug)]
pub struct ShardData {
    /// Bumped on every publication; tags cache entries.
    generation: u64,
    jobs: HashMap<String, JobSource>,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ResultKey {
    job_id: String,
    mode: QueryMode,
    query: String,
}

/// A memoized result, valid only for the generation it was computed on.
#[derive(Debug)]
struct CachedResult {
    generation: u64,
    result: Arc<Vec<OpId>>,
}

/// Mutable per-shard state, behind one short-held Mutex: cache probes
/// and inserts only — evaluation and decoding happen outside it.
#[derive(Debug)]
struct ShardState {
    results: LruMap<ResultKey, CachedResult>,
    /// Jobs decoded from mmap extents, bounded by the admission policy.
    /// Values are generation-tagged like results: an upsert makes the
    /// decoded copy stale.
    resident: LruMap<String, (u64, Arc<ResidentJob>)>,
}

#[derive(Debug)]
struct Shard {
    data: ArcCell<ShardData>,
    state: Mutex<ShardState>,
}

/// Serving counters, all monotone. Atomics so the query path never
/// takes a stats lock.
#[derive(Debug, Default)]
pub struct ServeStats {
    queries: AtomicU64,
    batches: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    result_evictions: AtomicU64,
    admissions: AtomicU64,
    resident_evictions: AtomicU64,
    decode_races: AtomicU64,
    swaps: AtomicU64,
}

/// A point-in-time copy of [`ServeStats`], for `STAT` responses and the
/// bench report.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeSnapshot {
    /// Queries answered (batch members count individually).
    pub queries: u64,
    /// Batches processed (a single query is a batch of one).
    pub batches: u64,
    /// Queries answered from a shard's result cache.
    pub cache_hits: u64,
    /// Queries that had to be evaluated.
    pub cache_misses: u64,
    /// Cached results evicted by the per-shard LRU bound.
    pub result_evictions: u64,
    /// Cold jobs decoded + indexed into residency.
    pub admissions: u64,
    /// Resident jobs evicted by the admission bound.
    pub resident_evictions: u64,
    /// Concurrent first touches that decoded the same job twice.
    pub decode_races: u64,
    /// Shard snapshot publications (upserts).
    pub swaps: u64,
    /// Jobs known across all shards.
    pub jobs: u64,
    /// Shard count.
    pub shards: u64,
    /// Jobs currently resident (decoded or owned).
    pub resident_jobs: u64,
}

/// Tuning knobs for [`ShardedEngine`].
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Number of shards (≥1).
    pub shards: usize,
    /// Result-cache entries per shard.
    pub result_capacity: usize,
    /// Decoded jobs resident per shard before eviction.
    pub resident_capacity: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            shards: DEFAULT_SHARDS,
            result_capacity: DEFAULT_CACHE_CAPACITY,
            resident_capacity: DEFAULT_RESIDENT_CAPACITY,
        }
    }
}

/// The concurrent serving engine: shards of immutable job tables with
/// per-shard caches. All query methods take `&self` and are safe to
/// call from many threads at once.
#[derive(Debug)]
pub struct ShardedEngine {
    shards: Vec<Shard>,
    options: ServeOptions,
    run: RunMeta,
    /// Mapped fleet files, kept alive for the engine's lifetime (job
    /// sources hold their own Arcs; this is the roster for STAT/fsck).
    sources: Vec<Arc<MappedStore>>,
    stats: ServeStats,
}

impl ShardedEngine {
    /// Files every `(job id, source)` into its shard's table and
    /// publishes each table as generation 1.
    fn with_jobs(
        options: ServeOptions,
        run: RunMeta,
        sources: Vec<Arc<MappedStore>>,
        jobs: impl IntoIterator<Item = (String, JobSource)>,
    ) -> Self {
        let count = options.shards.max(1);
        let mut tables: Vec<HashMap<String, JobSource>> = vec![HashMap::new(); count];
        for (job_id, source) in jobs {
            tables[shard_of(&job_id, count)].insert(job_id, source);
        }
        let shards = tables
            .into_iter()
            .map(|jobs| Shard {
                data: ArcCell::new(Arc::new(ShardData {
                    generation: 1,
                    jobs,
                })),
                state: Mutex::new(ShardState {
                    results: LruMap::new(options.result_capacity),
                    resident: LruMap::new(options.resident_capacity),
                }),
            })
            .collect();
        ShardedEngine {
            shards,
            options,
            run,
            sources,
            stats: ServeStats::default(),
        }
    }

    /// Opens a fleet of `.gar` files zero-copy and shards their jobs by
    /// id. Jobs stay cold (mmap extents) until queried. Two files
    /// claiming the same job id is a [`ServeError::DuplicateJob`] naming
    /// both — never silent last-wins.
    pub fn open_fleet(
        paths: &[impl AsRef<Path>],
        options: ServeOptions,
    ) -> Result<Self, ServeError> {
        let mut run = RunMeta::default();
        let mut sources = Vec::new();
        let mut owner: HashMap<String, PathBuf> = HashMap::new();
        let mut jobs = Vec::new();
        for path in paths {
            let mapped = Arc::new(MappedStore::open(path)?);
            if run.is_empty() {
                run = mapped.run().clone();
            }
            for job_id in mapped.job_ids() {
                if let Some(first) = owner.get(job_id) {
                    return Err(ServeError::DuplicateJob {
                        job_id: job_id.to_string(),
                        first: first.clone(),
                        second: mapped.path().to_path_buf(),
                    });
                }
                owner.insert(job_id.to_string(), mapped.path().to_path_buf());
                jobs.push((job_id.to_string(), JobSource::Mapped(Arc::clone(&mapped))));
            }
            sources.push(mapped);
        }
        Ok(Self::with_jobs(options, run, sources, jobs))
    }

    /// Wraps an in-memory store: every job becomes owned (resident). The
    /// archives are moved in, not copied.
    pub fn from_store(store: ArchiveStore, options: ServeOptions) -> Self {
        let run = store.run().clone();
        let jobs = store.into_iter().map(|archive| {
            (
                archive.meta.job_id.clone(),
                JobSource::Owned(Arc::new(ResidentJob::new(archive))),
            )
        });
        Self::with_jobs(options, run, Vec::new(), jobs)
    }

    /// The fleet's run header (from the first mapped file carrying one).
    pub fn run(&self) -> &RunMeta {
        &self.run
    }

    /// The tuning knobs this engine was built with.
    pub fn options(&self) -> ServeOptions {
        self.options
    }

    /// The mapped fleet files this engine serves (empty for
    /// [`from_store`](Self::from_store) engines).
    pub fn sources(&self) -> &[Arc<MappedStore>] {
        &self.sources
    }

    /// Job ids across all shards, sorted.
    pub fn job_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self
            .shards
            .iter()
            .flat_map(|s| s.data.load().jobs.keys().cloned().collect::<Vec<_>>())
            .collect();
        ids.sort();
        ids
    }

    /// Total jobs across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.data.load().jobs.len()).sum()
    }

    /// True when no shard holds a job.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Evaluates one query. `None` for an unknown job id; results are
    /// bit-identical to [`Query::scan`] of the job's archive.
    pub fn query(
        &self,
        job_id: &str,
        query: &Query,
        mode: QueryMode,
    ) -> Result<Option<Arc<Vec<OpId>>>, BinError> {
        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        let shard = &self.shards[shard_of(job_id, self.shards.len())];
        let snapshot = shard.data.load();
        self.query_on(shard, &snapshot, job_id, query, mode)
    }

    /// Evaluates a batch, grouped by shard: one snapshot grab per shard
    /// touched, cache probes amortized under one lock acquisition per
    /// request but a single generation per group.
    pub fn query_batch(
        &self,
        requests: &[(String, Query, QueryMode)],
    ) -> Vec<Result<Option<Arc<Vec<OpId>>>, BinError>> {
        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, (job_id, _, _)) in requests.iter().enumerate() {
            groups[shard_of(job_id, self.shards.len())].push(i);
        }
        let mut out: Vec<Result<Option<Arc<Vec<OpId>>>, BinError>> =
            (0..requests.len()).map(|_| Ok(None)).collect();
        for (shard, group) in self.shards.iter().zip(groups) {
            if group.is_empty() {
                continue;
            }
            // One snapshot for the whole group: every answer in a batch
            // comes from a single shard generation.
            let snapshot = shard.data.load();
            for i in group {
                let (job_id, query, mode) = &requests[i];
                out[i] = self.query_on(shard, &snapshot, job_id, query, *mode);
            }
        }
        out
    }

    /// A job's decoded archive and index, admitting a cold job the way a
    /// query does (decode, index, count an admission). `None` for an
    /// unknown job id.
    pub fn job(&self, job_id: &str) -> Result<Option<Arc<ResidentJob>>, BinError> {
        let shard = &self.shards[shard_of(job_id, self.shards.len())];
        let snapshot = shard.data.load();
        let resident = {
            let mut state = shard.state.lock().expect("shard state poisoned");
            resident_at(&mut state, job_id, snapshot.generation)
        };
        self.admit(shard, &snapshot, job_id, resident)
    }

    /// The query path proper, against a caller-chosen snapshot.
    fn query_on(
        &self,
        shard: &Shard,
        snapshot: &Arc<ShardData>,
        job_id: &str,
        query: &Query,
        mode: QueryMode,
    ) -> Result<Option<Arc<Vec<OpId>>>, BinError> {
        self.stats.queries.fetch_add(1, Ordering::Relaxed);
        let key = ResultKey {
            job_id: job_id.to_string(),
            mode,
            query: query.to_string(),
        };

        // Probe both caches under one short lock hold.
        let resident = {
            let mut state = shard.state.lock().expect("shard state poisoned");
            if let Some(hit) = state.results.get(&key) {
                if hit.generation == snapshot.generation {
                    self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(Some(Arc::clone(&hit.result)));
                }
            }
            resident_at(&mut state, job_id, snapshot.generation)
        };
        self.stats.cache_misses.fetch_add(1, Ordering::Relaxed);

        let Some(job) = self.admit(shard, snapshot, job_id, resident)? else {
            return Ok(None);
        };
        // Evaluate outside any lock.
        let result = Arc::new(job.index.evaluate(&job.archive.tree, query, mode));

        let mut state = shard.state.lock().expect("shard state poisoned");
        if state.results.insert(
            key,
            CachedResult {
                generation: snapshot.generation,
                result: Arc::clone(&result),
            },
        ) {
            self.stats.result_evictions.fetch_add(1, Ordering::Relaxed);
        }
        Ok(Some(result))
    }

    /// Resolves `job_id` in `snapshot` to its resident form: owned jobs
    /// directly, mapped ones from `resident` (the caller's probe of the
    /// resident LRU) or else by decoding outside the lock and admitting.
    fn admit(
        &self,
        shard: &Shard,
        snapshot: &ShardData,
        job_id: &str,
        resident: Option<Arc<ResidentJob>>,
    ) -> Result<Option<Arc<ResidentJob>>, BinError> {
        let mapped = match snapshot.jobs.get(job_id) {
            None => return Ok(None),
            Some(JobSource::Owned(job)) => return Ok(Some(Arc::clone(job))),
            Some(JobSource::Mapped(mapped)) => mapped,
        };
        if let Some(job) = resident {
            return Ok(Some(job));
        }
        let decoded = Arc::new(ResidentJob::new(mapped.decode_job(job_id)?));
        let mut state = shard.state.lock().expect("shard state poisoned");
        // Another thread may have admitted the same job while we decoded;
        // keep the first copy so concurrent queries share one index.
        if let Some(raced) = resident_at(&mut state, job_id, snapshot.generation) {
            self.stats.decode_races.fetch_add(1, Ordering::Relaxed);
            return Ok(Some(raced));
        }
        self.stats.admissions.fetch_add(1, Ordering::Relaxed);
        if state.resident.insert(
            job_id.to_string(),
            (snapshot.generation, Arc::clone(&decoded)),
        ) {
            self.stats
                .resident_evictions
                .fetch_add(1, Ordering::Relaxed);
        }
        Ok(Some(decoded))
    }

    /// Adds or replaces a job by publishing a new snapshot of its shard
    /// (clone-and-swap). Readers mid-query keep the generation they
    /// grabbed; the swap implicitly invalidates that shard's stale cache
    /// entries (generation tags no longer match).
    pub fn upsert(&self, archive: JobArchive) {
        let job_id = archive.meta.job_id.clone();
        let shard = &self.shards[shard_of(&job_id, self.shards.len())];
        let resident = Arc::new(ResidentJob::new(archive));
        // Serialize writers on the shard's state lock so concurrent
        // upserts can't interleave their clone-and-swap.
        let mut state = shard.state.lock().expect("shard state poisoned");
        let current = shard.data.load();
        let mut jobs = current.jobs.clone();
        jobs.insert(job_id.clone(), JobSource::Owned(resident));
        shard.data.store(Arc::new(ShardData {
            generation: current.generation + 1,
            jobs,
        }));
        self.stats.swaps.fetch_add(1, Ordering::Relaxed);
        // The generation tags already make stale entries unservable;
        // drop them eagerly so they don't occupy LRU slots.
        state.results.retain(|k, _| k.job_id != job_id);
        state.resident.remove(&job_id);
    }

    /// Serving counters plus fleet shape, as one coherent copy.
    pub fn snapshot(&self) -> ServeSnapshot {
        let resident_jobs = self
            .shards
            .iter()
            .map(|s| {
                let state = s.state.lock().expect("shard state poisoned");
                let decoded = state.resident.len() as u64;
                let owned = s
                    .data
                    .load()
                    .jobs
                    .values()
                    .filter(|src| matches!(src, JobSource::Owned(_)))
                    .count() as u64;
                decoded + owned
            })
            .sum();
        ServeSnapshot {
            queries: self.stats.queries.load(Ordering::Relaxed),
            batches: self.stats.batches.load(Ordering::Relaxed),
            cache_hits: self.stats.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.stats.cache_misses.load(Ordering::Relaxed),
            result_evictions: self.stats.result_evictions.load(Ordering::Relaxed),
            admissions: self.stats.admissions.load(Ordering::Relaxed),
            resident_evictions: self.stats.resident_evictions.load(Ordering::Relaxed),
            decode_races: self.stats.decode_races.load(Ordering::Relaxed),
            swaps: self.stats.swaps.load(Ordering::Relaxed),
            jobs: self.len() as u64,
            shards: self.shards.len() as u64,
            resident_jobs,
        }
    }
}

/// The resident copy of `job_id` decoded at `generation`, if any; the
/// caller holds the shard's state lock.
fn resident_at(state: &mut ShardState, job_id: &str, generation: u64) -> Option<Arc<ResidentJob>> {
    state
        .resident
        .get(job_id)
        .filter(|(gen, _)| *gen == generation)
        .map(|(_, job)| Arc::clone(job))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::JobMeta;
    use crate::index::QueryPlan;
    use granula_model::{names, Actor, Info, InfoValue, Mission, OperationTree};

    fn archive(job_id: &str, supersteps: i64) -> JobArchive {
        let mut t = OperationTree::new();
        let job = t
            .add_root(Actor::new("Job", "0"), Mission::new("GiraphJob", "0"))
            .unwrap();
        for s in 0..supersteps {
            let ss = t
                .add_child(
                    job,
                    Actor::new("Job", "0"),
                    Mission::new("Superstep", s.to_string()),
                )
                .unwrap();
            t.set_info(ss, Info::raw(names::START_TIME, InfoValue::Int(s * 100)))
                .unwrap();
            for w in 0..2 {
                t.add_child(
                    ss,
                    Actor::new("Worker", w.to_string()),
                    Mission::new("Compute", "0"),
                )
                .unwrap();
            }
        }
        JobArchive::new(
            JobMeta {
                job_id: job_id.into(),
                platform: "Giraph".into(),
                algorithm: "BFS".into(),
                dataset: "d".into(),
                nodes: 2,
                model: "m".into(),
            },
            t,
        )
    }

    fn store_with(jobs: &[(&str, i64)]) -> ArchiveStore {
        let mut store = ArchiveStore::new();
        for (id, n) in jobs {
            store.add(archive(id, *n)).unwrap();
        }
        store
    }

    fn one_shard() -> ServeOptions {
        ServeOptions {
            shards: 1,
            ..ServeOptions::default()
        }
    }

    fn queries() -> Vec<(Query, QueryMode)> {
        [
            ("Compute", QueryMode::FindAll),
            ("Superstep/Compute@Worker-1", QueryMode::FindAll),
            ("GiraphJob/Superstep/Compute", QueryMode::Select),
            ("GiraphJob/Superstep-2", QueryMode::Select),
            ("Superstep[100..300]", QueryMode::FindAll),
            ("*@Worker", QueryMode::FindAll),
            ("*-1", QueryMode::FindAll),
            ("Compute/Nope", QueryMode::FindAll),
        ]
        .into_iter()
        .map(|(s, m)| (Query::parse(s).unwrap(), m))
        .collect()
    }

    /// Answers every [`queries`] shape on job `j` of a one-shard engine,
    /// checks each against the scan, and counts the indexed plans.
    fn indexed_plans(supersteps: i64) -> usize {
        let engine = ShardedEngine::from_store(store_with(&[("j", supersteps)]), one_shard());
        let job = engine.job("j").unwrap().unwrap();
        let mut indexed = 0;
        for (q, mode) in queries() {
            let got = engine.query("j", &q, mode).unwrap().unwrap();
            assert_eq!(
                *got,
                q.scan(&job.archive.tree, mode),
                "query `{q}` ({mode:?})"
            );
            if !matches!(job.index.plan_for(&q, mode), QueryPlan::FullScan { .. }) {
                indexed += 1;
            }
        }
        indexed
    }

    #[test]
    fn indexed_results_equal_scans() {
        // Big enough to clear the planner's SCAN_THRESHOLD so both access
        // paths are exercised; small trees legitimately always scan.
        let indexed = indexed_plans(100);
        assert!(indexed >= 2, "{indexed} indexed plans");
        assert!(queries().len() - indexed >= 5, "{indexed} indexed plans");
    }

    #[test]
    fn tiny_archives_always_take_the_scan_path() {
        assert_eq!(indexed_plans(5), 0); // 16 ops <= SCAN_THRESHOLD
    }

    #[test]
    fn shard_routing_is_deterministic_and_spread() {
        for id in ["a", "b", "job-42", ""] {
            assert_eq!(shard_of(id, 8), shard_of(id, 8));
            assert!(shard_of(id, 8) < 8);
            assert_eq!(shard_of(id, 1), 0);
        }
        // Many ids must not all land on one shard.
        let hits: std::collections::HashSet<usize> =
            (0..64).map(|i| shard_of(&format!("job-{i}"), 8)).collect();
        assert!(hits.len() >= 4, "FNV spreads 64 ids over ≥4 of 8 shards");
    }

    #[test]
    fn sharded_results_match_the_scans_bit_for_bit() {
        let store = store_with(&[("a", 40), ("b", 7), ("c", 100)]);
        let trees: Vec<OperationTree> = store.iter().map(|a| a.tree.clone()).collect();
        let sharded = ShardedEngine::from_store(store, ServeOptions::default());
        for (q, mode) in queries() {
            for (job, tree) in ["a", "b", "c"].into_iter().zip(&trees) {
                let got = sharded.query(job, &q, mode).unwrap().unwrap();
                assert_eq!(*got, q.scan(tree, mode), "job {job}, query `{q}`");
            }
        }
        assert!(sharded
            .query("nope", &Query::parse("X").unwrap(), QueryMode::FindAll)
            .unwrap()
            .is_none());
        assert!(sharded.job("nope").unwrap().is_none());
    }

    #[test]
    fn batch_matches_individual_queries() {
        let store = store_with(&[("a", 10), ("b", 10)]);
        let sharded = ShardedEngine::from_store(store, ServeOptions::default());
        let q = Query::parse("Compute").unwrap();
        let batch: Vec<(String, Query, QueryMode)> = ["a", "b", "a", "missing"]
            .iter()
            .map(|j| (j.to_string(), q.clone(), QueryMode::FindAll))
            .collect();
        let got = sharded.query_batch(&batch);
        assert_eq!(got.len(), 4);
        for (i, (job, q, mode)) in batch.iter().enumerate() {
            let single = sharded.query(job, q, *mode).unwrap();
            assert_eq!(*got[i].as_ref().unwrap(), single, "batch member {i}");
        }
        assert!(got[3].as_ref().unwrap().is_none(), "unknown job is None");
    }

    #[test]
    fn upsert_swaps_generation_and_invalidates_results() {
        let store = store_with(&[("a", 3)]);
        let sharded = ShardedEngine::from_store(store, ServeOptions::default());
        let q = Query::parse("Compute").unwrap();
        let before = sharded.query("a", &q, QueryMode::FindAll).unwrap().unwrap();
        assert_eq!(before.len(), 6);
        sharded.upsert(archive("a", 5));
        let after = sharded.query("a", &q, QueryMode::FindAll).unwrap().unwrap();
        assert_eq!(after.len(), 10, "post-swap queries see the new job");
        let snap = sharded.snapshot();
        assert_eq!(snap.swaps, 1);
        assert_eq!(snap.cache_hits, 0, "the stale memo must not serve");
    }

    #[test]
    fn repeated_queries_hit_the_per_shard_cache() {
        let store = store_with(&[("a", 4)]);
        let sharded = ShardedEngine::from_store(store, ServeOptions::default());
        let q = Query::parse("Compute").unwrap();
        let x = sharded.query("a", &q, QueryMode::FindAll).unwrap().unwrap();
        let y = sharded.query("a", &q, QueryMode::FindAll).unwrap().unwrap();
        assert!(Arc::ptr_eq(&x, &y), "second answer is the memo");
        let snap = sharded.snapshot();
        assert_eq!((snap.cache_hits, snap.cache_misses), (1, 1));
        // Same text, different mode: a distinct entry.
        sharded.query("a", &q, QueryMode::Select).unwrap();
        assert_eq!(sharded.snapshot().cache_misses, 2);
    }

    #[test]
    fn upsert_invalidates_only_that_shard() {
        // `a` and `other` sit in different shards.
        let other = ["b", "c", "d", "e"]
            .into_iter()
            .find(|id| shard_of(id, DEFAULT_SHARDS) != shard_of("a", DEFAULT_SHARDS))
            .unwrap();
        let q = Query::parse("Compute").unwrap();
        for (opts, other_hits) in [(ServeOptions::default(), 1), (one_shard(), 0)] {
            let sharded = ShardedEngine::from_store(store_with(&[("a", 3), (other, 3)]), opts);
            sharded.query("a", &q, QueryMode::FindAll).unwrap();
            sharded.query(other, &q, QueryMode::FindAll).unwrap();
            sharded.upsert(archive("a", 6));
            let fresh = sharded.query("a", &q, QueryMode::FindAll).unwrap().unwrap();
            assert_eq!(fresh.len(), 12);
            // The other job is still answered right: from the cache when
            // its shard was not swapped, re-evaluated when it was.
            let kept = sharded
                .query(other, &q, QueryMode::FindAll)
                .unwrap()
                .unwrap();
            assert_eq!(kept.len(), 6);
            assert_eq!(sharded.snapshot().cache_hits, other_hits, "{opts:?}");
        }
    }

    #[test]
    fn lru_bound_evicts_least_recently_used() {
        let opts = ServeOptions {
            result_capacity: 2,
            ..one_shard()
        };
        let sharded = ShardedEngine::from_store(store_with(&[("j", 3)]), opts);
        let [q1, q2, q3] = ["Compute", "Superstep", "GiraphJob"].map(|t| Query::parse(t).unwrap());
        let ask = |q: &Query| sharded.query("j", q, QueryMode::FindAll).unwrap();
        ask(&q1);
        ask(&q2);
        // Touch q1 so q2 is the LRU, then overflow.
        ask(&q1);
        ask(&q3);
        assert_eq!(sharded.snapshot().result_evictions, 1);
        // q1 survived; q2 was evicted.
        ask(&q1);
        assert_eq!(sharded.snapshot().cache_hits, 2);
        ask(&q2);
        assert_eq!(sharded.snapshot().cache_misses, 4);
    }

    #[test]
    fn saved_stores_answer_like_the_originals() {
        let store = store_with(&[("a", 4), ("b", 2)]);
        let path = std::env::temp_dir().join(format!("granula-shard-{}.gar", std::process::id()));
        store.save(&path).unwrap();
        let original = ShardedEngine::from_store(store, one_shard());
        let loaded = ShardedEngine::from_store(ArchiveStore::load(&path).unwrap(), one_shard());
        let mapped = ShardedEngine::open_fleet(&[&path], ServeOptions::default()).unwrap();
        let _ = std::fs::remove_file(&path);

        assert_eq!(loaded.job_ids(), ["a", "b"]);
        for (q, mode) in queries() {
            for job in ["a", "b"] {
                let want = original.query(job, &q, mode).unwrap();
                assert_eq!(
                    loaded.query(job, &q, mode).unwrap(),
                    want,
                    "job {job}, `{q}`"
                );
                assert_eq!(
                    mapped.query(job, &q, mode).unwrap(),
                    want,
                    "job {job}, `{q}`"
                );
            }
        }
    }

    #[test]
    fn fleet_admission_is_lazy_and_bounded() {
        let dir = std::env::temp_dir().join(format!("granula-fleet-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ids: Vec<String> = (0..6).map(|i| format!("job-{i}")).collect();
        let mut paths = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            let store = store_with(&[(id, 3)]);
            let path = dir.join(format!("f{i}.gar"));
            store.save(&path).unwrap();
            paths.push(path);
        }
        let opts = ServeOptions {
            shards: 1,
            resident_capacity: 2,
            ..ServeOptions::default()
        };
        let sharded = ShardedEngine::open_fleet(&paths, opts).unwrap();
        assert_eq!(sharded.len(), 6);
        assert_eq!(sharded.snapshot().resident_jobs, 0, "all jobs start cold");

        let q = Query::parse("Compute").unwrap();
        for id in &ids {
            assert_eq!(
                sharded
                    .query(id, &q, QueryMode::FindAll)
                    .unwrap()
                    .unwrap()
                    .len(),
                6
            );
        }
        // The accessor admits like a query does, and shares the copy.
        let job = sharded.job(&ids[0]).unwrap().unwrap();
        assert_eq!(job.archive.meta.job_id, ids[0]);
        let snap = sharded.snapshot();
        assert_eq!(
            snap.admissions, 7,
            "each job decoded once, job-0 re-admitted"
        );
        assert_eq!(snap.resident_jobs, 2, "residency bounded by capacity");
        assert_eq!(snap.resident_evictions, 5);
        let uncached = Query::parse("Superstep").unwrap();
        sharded
            .query(&ids[0], &uncached, QueryMode::FindAll)
            .unwrap();
        assert_eq!(
            sharded.snapshot().admissions,
            7,
            "the query found it resident"
        );
        // Decode counters on the sources agree: one decode per admission.
        let decoded: u64 = sharded.sources().iter().map(|s| s.decoded_jobs()).sum();
        assert_eq!(decoded, 7);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_job_across_fleet_files_names_both_paths() {
        let dir = std::env::temp_dir().join(format!("granula-dup-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p1 = dir.join("one.gar");
        let p2 = dir.join("two.gar");
        store_with(&[("shared", 2), ("only-one", 2)])
            .save(&p1)
            .unwrap();
        store_with(&[("shared", 3)]).save(&p2).unwrap();
        match ShardedEngine::open_fleet(&[&p1, &p2], ServeOptions::default()) {
            Err(ServeError::DuplicateJob {
                job_id,
                first,
                second,
            }) => {
                assert_eq!(job_id, "shared");
                assert_eq!(first, p1);
                assert_eq!(second, p2);
                let msg = ServeError::DuplicateJob {
                    job_id,
                    first,
                    second,
                }
                .to_string();
                assert!(msg.contains("one.gar") && msg.contains("two.gar"));
            }
            other => panic!("expected DuplicateJob, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
