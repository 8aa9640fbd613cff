//! # granula-archive
//!
//! The Granula **performance archive** (paper §3.3, P3).
//!
//! After experiments, the info of each job is collected, filtered, and stored
//! in a performance archive with a standardized format. The archive
//! encapsulates the performance results of one job — its full operation tree
//! with raw and derived infos — and lets users *query* the contents
//! systematically (path expressions over the operation hierarchy), *share*
//! results (a versioned JSON envelope), and *compare* jobs across platforms
//! and configurations (the [`store::ArchiveStore`], keyed by unique job
//! id — duplicate ids are rejected by [`ArchiveStore::add`] or replaced
//! by [`ArchiveStore::upsert`]).
//!
//! Query patterns split `kind-id` on the *first* dash, so ids may contain
//! dashes (`Compute@Worker-node-302` matches the actor id `node-302`);
//! dangling or leading dashes are [`QueryError::BadSegment`] errors. A
//! trailing `[start..end]` window restricts matches to operations starting
//! inside the half-open microsecond range. See [`query`] for the full
//! grammar.
//!
//! Beyond the per-query scans, the crate provides a *serving layer*:
//!
//! * [`binfmt`] — a versioned, self-describing binary format with
//!   per-frame CRC32C checksums and a per-job offset trailer
//!   ([`ArchiveStore::save`]/[`ArchiveStore::load`]) so archives are
//!   simulated once and re-queried forever;
//! * [`durable`] — atomic, fsync'd file replacement backing every save,
//!   so a crash mid-write never leaves a torn archive;
//! * [`salvage`] — best-effort recovery ([`ArchiveStore::salvage`])
//!   that pulls every checksum-intact job out of a damaged file;
//! * [`mutate`] — seedable fault injection (truncation, bit flips, torn
//!   tails) powering the corruption test harness and `archive fuzz`;
//! * [`index::TreeIndex`] — kind→ops, actor→ops, and start-time interval
//!   indexes with a query planner, and [`TreeIndex::evaluate`], the one
//!   function that turns a plan into results;
//! * [`shard::ShardedEngine`] — the query engine: indexed jobs behind
//!   per-shard LRU result caches, invalidated on `upsert`. The `serve`
//!   daemon runs it over a fleet; the CLI and `granula-regress` run it
//!   with one shard over a loaded store;
//! * [`engine::QueryEngine`] — a cache-less reference kept only for the
//!   benchmark's answer check.
//!
//! ```
//! use granula_archive::{JobArchive, JobMeta, Query};
//! use granula_model::{Actor, Mission, OperationTree};
//!
//! let mut tree = OperationTree::new();
//! let job = tree.add_root(Actor::new("Job", "0"), Mission::new("Job", "0")).unwrap();
//! tree.add_child(job, Actor::new("Worker", "1"), Mission::new("Compute", "4")).unwrap();
//! let archive = JobArchive::new(JobMeta::default(), tree);
//!
//! let q = Query::parse("Job/Compute-4@Worker-1").unwrap();
//! assert_eq!(q.select(&archive.tree).len(), 1);
//! ```

pub mod archive;
pub mod binfmt;
pub mod crc;
pub mod durable;
pub mod engine;
pub mod format;
pub mod index;
pub mod lru;
pub mod mmapio;
pub mod mutate;
pub mod query;
pub mod salvage;
pub mod serve;
pub mod shard;
pub mod store;
pub mod swap;
pub mod zerocopy;

pub use archive::{JobArchive, JobMeta};
pub use binfmt::{
    frame_table, store_from_bytes, store_to_bytes, BinError, FrameInfo, TrailerEntry,
    BIN_FORMAT_VERSION, FRAME_JOB, FRAME_RUN, FRAME_TRAILER, MAGIC, MAX_VALUE_DEPTH,
};
pub use crc::crc32c;
pub use durable::write_atomic;
pub use engine::QueryEngine;
pub use format::{from_json, to_json, to_json_pretty, FormatError, FORMAT_VERSION};
pub use index::{QueryPlan, TreeIndex, SCAN_FALLBACK_FACTOR, SCAN_THRESHOLD};
pub use lru::LruMap;
pub use mmapio::Mapped;
pub use mutate::{flip_bit, torn_tail, truncate_at, Mutation, Mutator};
pub use query::{KindPattern, Query, QueryError, QueryMode, Segment, TimeWindow};
pub use salvage::{salvage_from_bytes, LostFrame, SalvageReport};
pub use serve::{format_ids, Server};
pub use shard::{
    shard_of, ResidentJob, ServeError, ServeOptions, ServeSnapshot, ShardedEngine,
    DEFAULT_CACHE_CAPACITY, DEFAULT_RESIDENT_CAPACITY, DEFAULT_SHARDS,
};
pub use store::{ArchiveStore, ComparisonRow, DuplicateJobId, RunMeta};
pub use swap::ArcCell;
pub use zerocopy::MappedStore;
