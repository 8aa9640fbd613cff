//! A collection of archives, for cross-job and cross-platform comparison.
//!
//! Identical domain-level operations "allow us to derive common performance
//! metrics across all platforms, enabling cross-platform performance
//! comparison and benchmarking" (paper §4.1). The store groups archives and
//! produces comparison tables over any mission kind.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::archive::JobArchive;

/// Metadata identifying one archived run inside a history sequence.
///
/// A store written by a benchmark or CI run carries this header so a
/// directory of `.gar` files can be ordered into a time series without
/// relying on filenames or filesystem timestamps. An empty header marks
/// a store that never claimed a place in a history.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunMeta {
    /// Stable identifier of the run (e.g. `r4`, a CI build number).
    pub run_id: String,
    /// Wall-clock timestamp of the run, microseconds since the epoch.
    /// Zero when unknown; ordering falls back to `run_id`.
    pub timestamp_us: u64,
    /// Free-form description (branch, commit, machine).
    pub label: String,
}

impl RunMeta {
    /// Creates a fully specified run header.
    pub fn new(run_id: impl Into<String>, timestamp_us: u64, label: impl Into<String>) -> Self {
        RunMeta {
            run_id: run_id.into(),
            timestamp_us,
            label: label.into(),
        }
    }

    /// True when no field was ever set.
    pub fn is_empty(&self) -> bool {
        self.run_id.is_empty() && self.timestamp_us == 0 && self.label.is_empty()
    }

    /// History ordering: by timestamp, then run id as a tie-break.
    pub fn sort_key(&self) -> (u64, &str) {
        (self.timestamp_us, &self.run_id)
    }
}

/// Error returned by [`ArchiveStore::add`] when the store already holds
/// an archive with the same job id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DuplicateJobId(pub String);

impl fmt::Display for DuplicateJobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "archive store already holds job id `{}`", self.0)
    }
}

impl std::error::Error for DuplicateJobId {}

/// One row of a cross-archive comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComparisonRow {
    /// Job id of the archive the row describes.
    pub job_id: String,
    /// Platform name.
    pub platform: String,
    /// Total job runtime in microseconds.
    pub total_us: u64,
    /// Aggregated duration of the compared mission kind, microseconds.
    pub mission_us: u64,
    /// `mission_us / total_us`.
    pub fraction: f64,
}

/// In-memory collection of performance archives.
#[derive(Debug, Clone, Default)]
pub struct ArchiveStore {
    archives: Vec<JobArchive>,
    /// Run header stamped when the store is one entry of a history.
    run: RunMeta,
}

impl ArchiveStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The run header, empty unless [`set_run`](Self::set_run) stamped it.
    pub fn run(&self) -> &RunMeta {
        &self.run
    }

    /// Stamps the run header carried by the serialized store.
    pub fn set_run(&mut self, run: RunMeta) {
        self.run = run;
    }

    /// Builder-style [`set_run`](Self::set_run).
    pub fn with_run(mut self, run: RunMeta) -> Self {
        self.run = run;
        self
    }

    /// Adds an archive. Job ids are the store's lookup key
    /// ([`get`](Self::get)), so a duplicate id is rejected rather than silently shadowed; use
    /// [`upsert`](Self::upsert) to replace an existing archive.
    pub fn add(&mut self, archive: JobArchive) -> Result<(), DuplicateJobId> {
        if self.get(&archive.meta.job_id).is_some() {
            return Err(DuplicateJobId(archive.meta.job_id.clone()));
        }
        self.archives.push(archive);
        Ok(())
    }

    /// Adds an archive, replacing (and returning) any archive already
    /// stored under the same job id.
    pub fn upsert(&mut self, archive: JobArchive) -> Option<JobArchive> {
        match self
            .archives
            .iter_mut()
            .find(|a| a.meta.job_id == archive.meta.job_id)
        {
            Some(slot) => Some(std::mem::replace(slot, archive)),
            None => {
                self.archives.push(archive);
                None
            }
        }
    }

    /// Number of archives held.
    pub fn len(&self) -> usize {
        self.archives.len()
    }

    /// True when the store is empty.
    pub fn is_empty(&self) -> bool {
        self.archives.is_empty()
    }

    /// Iterates over all archives.
    pub fn iter(&self) -> impl Iterator<Item = &JobArchive> {
        self.archives.iter()
    }

    /// Finds an archive by job id.
    pub fn get(&self, job_id: &str) -> Option<&JobArchive> {
        self.archives.iter().find(|a| a.meta.job_id == job_id)
    }

    /// Archives for one platform.
    pub fn by_platform<'a>(&'a self, platform: &'a str) -> impl Iterator<Item = &'a JobArchive> {
        self.archives
            .iter()
            .filter(move |a| a.meta.platform == platform)
    }

    /// Archives for one `(algorithm, dataset)` workload across platforms.
    pub fn by_workload<'a>(
        &'a self,
        algorithm: &'a str,
        dataset: &'a str,
    ) -> impl Iterator<Item = &'a JobArchive> {
        self.archives
            .iter()
            .filter(move |a| a.meta.algorithm == algorithm && a.meta.dataset == dataset)
    }

    /// Builds a comparison table: for every archive, the total runtime and
    /// the aggregated duration of `mission_kind`. Archives without a total
    /// runtime are skipped.
    pub fn compare(&self, mission_kind: &str) -> Vec<ComparisonRow> {
        self.archives
            .iter()
            .filter_map(|a| {
                let total = a.total_runtime_us()?;
                if total == 0 {
                    return None;
                }
                let mission = a.total_duration_of_us(mission_kind);
                Some(ComparisonRow {
                    job_id: a.meta.job_id.clone(),
                    platform: a.meta.platform.clone(),
                    total_us: total,
                    mission_us: mission,
                    fraction: mission as f64 / total as f64,
                })
            })
            .collect()
    }
}

/// Moves the archives out, in store order; the run header is dropped.
impl IntoIterator for ArchiveStore {
    type Item = JobArchive;
    type IntoIter = std::vec::IntoIter<JobArchive>;

    fn into_iter(self) -> Self::IntoIter {
        self.archives.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::JobMeta;
    use granula_model::{names, Actor, Info, InfoValue, Mission, OperationTree};

    fn archive(job_id: &str, platform: &str, total_us: i64, load_us: i64) -> JobArchive {
        let mut t = OperationTree::new();
        let job = t
            .add_root(Actor::new("Job", "0"), Mission::new("Job", "0"))
            .unwrap();
        t.set_info(job, Info::raw(names::START_TIME, InfoValue::Int(0)))
            .unwrap();
        t.set_info(job, Info::raw(names::END_TIME, InfoValue::Int(total_us)))
            .unwrap();
        let l = t
            .add_child(job, Actor::new("Job", "0"), Mission::new("LoadGraph", "0"))
            .unwrap();
        t.set_info(l, Info::raw(names::START_TIME, InfoValue::Int(0)))
            .unwrap();
        t.set_info(l, Info::raw(names::END_TIME, InfoValue::Int(load_us)))
            .unwrap();
        JobArchive::new(
            JobMeta {
                job_id: job_id.into(),
                platform: platform.into(),
                algorithm: "BFS".into(),
                dataset: "d".into(),
                nodes: 8,
                model: "m".into(),
            },
            t,
        )
    }

    fn store() -> ArchiveStore {
        let mut s = ArchiveStore::new();
        s.add(archive("g0", "Giraph", 80_000_000, 35_000_000))
            .unwrap();
        s.add(archive("p0", "PowerGraph", 400_000_000, 380_000_000))
            .unwrap();
        s
    }

    #[test]
    fn compare_builds_fraction_rows() {
        let rows = store().compare("LoadGraph");
        assert_eq!(rows.len(), 2);
        let g = rows.iter().find(|r| r.platform == "Giraph").unwrap();
        assert!((g.fraction - 0.4375).abs() < 1e-9);
        let p = rows.iter().find(|r| r.platform == "PowerGraph").unwrap();
        assert!((p.fraction - 0.95).abs() < 1e-9);
    }

    #[test]
    fn lookup_by_platform_and_workload() {
        let s = store();
        assert_eq!(s.by_platform("Giraph").count(), 1);
        assert_eq!(s.by_workload("BFS", "d").count(), 2);
        assert_eq!(s.by_workload("PageRank", "d").count(), 0);
    }

    #[test]
    fn duplicate_job_id_is_rejected() {
        let mut s = store();
        assert_eq!(
            s.add(archive("g0", "Giraph", 1, 1)),
            Err(DuplicateJobId("g0".into()))
        );
        assert_eq!(s.len(), 2);
        // The original archive is untouched by the failed add.
        assert_eq!(s.get("g0").unwrap().total_runtime_us(), Some(80_000_000));
    }

    #[test]
    fn upsert_replaces_same_job_id() {
        let mut s = store();
        let replaced = s.upsert(archive("g0", "Giraph", 90_000_000, 35_000_000));
        assert_eq!(replaced.unwrap().total_runtime_us(), Some(80_000_000));
        assert_eq!(s.len(), 2);
        assert_eq!(s.get("g0").unwrap().total_runtime_us(), Some(90_000_000));
        // Upserting a fresh id behaves like add.
        assert!(s.upsert(archive("x0", "Giraph", 1, 1)).is_none());
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn run_header_roundtrips_and_orders() {
        let mut s = store();
        assert!(s.run().is_empty());
        s.set_run(RunMeta::new("r7", 1_700_000_000_000_000, "nightly"));
        let back = crate::binfmt::store_from_bytes(&crate::binfmt::store_to_bytes(&s)).unwrap();
        assert_eq!(back.run(), s.run());
        assert_eq!(back.len(), s.len());

        let earlier = RunMeta::new("r9", 1_600_000_000_000_000, "x");
        assert!(earlier.sort_key() < s.run().sort_key());
        // Equal timestamps fall back to the run id.
        let tie = RunMeta::new("r8", s.run().timestamp_us, "y");
        assert!(s.run().sort_key() < tie.sort_key());
    }
}
