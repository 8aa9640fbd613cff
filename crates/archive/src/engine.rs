//! The in-process reference that perfbench's `serve_mixed` workload
//! checks the daemon's answers against.
//!
//! [`QueryEngine`] exists only for that reference: it holds an eagerly
//! loaded store and one [`TreeIndex`] per job, and answers through the
//! shared evaluation function [`TreeIndex::evaluate`], with no result
//! cache and no mutation. Every other caller — the CLI, the regression
//! history, the daemon — queries through [`crate::shard::ShardedEngine`].
//! When perfbench's reference moves onto that engine, this module goes.

use std::path::Path;

use granula_model::OpId;

use crate::binfmt::BinError;
use crate::index::TreeIndex;
use crate::query::{Query, QueryMode};
use crate::store::ArchiveStore;

/// A loaded store with one index per job.
#[derive(Debug)]
pub struct QueryEngine {
    store: ArchiveStore,
    /// One index per archive, in store order.
    indexes: Vec<TreeIndex>,
}

impl QueryEngine {
    /// Loads a persisted store ([`ArchiveStore::load`]) and indexes it.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, BinError> {
        let store = ArchiveStore::load(path)?;
        let indexes = store.iter().map(|a| TreeIndex::build(&a.tree)).collect();
        Ok(QueryEngine { store, indexes })
    }

    /// The loaded store.
    pub fn store(&self) -> &ArchiveStore {
        &self.store
    }

    /// Evaluates `query` against the archive `job_id`; `None` for an
    /// unknown job id. Results equal the [`Query::scan`] of that archive.
    pub fn query(&self, job_id: &str, query: &Query, mode: QueryMode) -> Option<Vec<OpId>> {
        let (archive, index) = self
            .store
            .iter()
            .zip(&self.indexes)
            .find(|(a, _)| a.meta.job_id == job_id)?;
        Some(index.evaluate(&archive.tree, query, mode))
    }
}
