//! One job's performance archive: metadata plus the operation tree.

use serde::{Deserialize, Serialize};

use granula_model::{names, OpId, Operation, OperationTree};

/// Descriptive metadata of the archived job.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobMeta {
    /// Unique id of the job run, e.g. `"giraph-bfs-dg1000-r0"`.
    pub job_id: String,
    /// Platform under test, e.g. `"Giraph"`.
    pub platform: String,
    /// Algorithm executed, e.g. `"BFS"`.
    pub algorithm: String,
    /// Dataset identifier, e.g. `"dg1000"`.
    pub dataset: String,
    /// Number of compute nodes used.
    pub nodes: u32,
    /// Name of the performance model the archive was assembled under.
    pub model: String,
}

/// The performance archive of one job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobArchive {
    /// Job metadata.
    pub meta: JobMeta,
    /// The assembled operation hierarchy with all infos.
    pub tree: OperationTree,
}

impl JobArchive {
    /// Wraps an operation tree with metadata.
    pub fn new(meta: JobMeta, tree: OperationTree) -> Self {
        JobArchive { meta, tree }
    }

    /// The root (job) operation.
    pub fn job(&self) -> Option<&Operation> {
        self.tree.root().map(|r| self.tree.op(r))
    }

    /// Total job runtime in microseconds: the root's duration, falling back
    /// to the span of all timestamped operations.
    pub fn total_runtime_us(&self) -> Option<u64> {
        if let Some(d) = self.job().and_then(|j| j.duration_us()) {
            return Some(d);
        }
        self.tree.span_us().map(|(s, e)| e - s)
    }

    /// Sums `Duration` over all operations with the given mission kind.
    /// For iterative operations (e.g. supersteps) this is the aggregated
    /// runtime the paper uses for `ProcessGraph`.
    pub fn total_duration_of_us(&self, mission_kind: &str) -> u64 {
        self.tree
            .by_mission_kind(mission_kind)
            .filter_map(|o| o.duration_us())
            .sum()
    }

    /// Fraction of the job runtime spent in `mission_kind` (summed over all
    /// instances); `None` when the job has no runtime.
    pub fn runtime_fraction(&self, mission_kind: &str) -> Option<f64> {
        let total = self.total_runtime_us()? as f64;
        if total <= 0.0 {
            return None;
        }
        Some(self.total_duration_of_us(mission_kind) as f64 / total)
    }

    /// Number of operations in the archive.
    pub fn num_operations(&self) -> usize {
        self.tree.len()
    }

    /// Number of info records across all operations.
    pub fn num_infos(&self) -> usize {
        self.tree.iter().map(|o| o.infos.len()).sum()
    }

    /// Ids of operations missing an `EndTime` — evidence of lost log events
    /// or a crashed operation; useful for failure diagnosis.
    pub fn unclosed_operations(&self) -> Vec<OpId> {
        self.tree
            .iter()
            .filter(|o| o.info(names::START_TIME).is_some() && o.info(names::END_TIME).is_none())
            .map(|o| o.id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use granula_model::{Actor, Info, InfoValue, Mission};

    fn archive() -> JobArchive {
        let mut t = OperationTree::new();
        let job = t
            .add_root(Actor::new("Job", "0"), Mission::new("GiraphJob", "0"))
            .unwrap();
        t.set_info(job, Info::raw(names::START_TIME, InfoValue::Int(0)))
            .unwrap();
        t.set_info(job, Info::raw(names::END_TIME, InfoValue::Int(1_000_000)))
            .unwrap();
        for (i, (s, e)) in [(0i64, 300_000i64), (300_000, 400_000)].iter().enumerate() {
            let ss = t
                .add_child(
                    job,
                    Actor::new("Job", "0"),
                    Mission::new("Superstep", i.to_string()),
                )
                .unwrap();
            t.set_info(ss, Info::raw(names::START_TIME, InfoValue::Int(*s)))
                .unwrap();
            t.set_info(ss, Info::raw(names::END_TIME, InfoValue::Int(*e)))
                .unwrap();
        }
        JobArchive::new(
            JobMeta {
                job_id: "j0".into(),
                platform: "Giraph".into(),
                algorithm: "BFS".into(),
                dataset: "dgX".into(),
                nodes: 8,
                model: "giraph-v1".into(),
            },
            t,
        )
    }

    #[test]
    fn total_runtime_is_root_duration() {
        assert_eq!(archive().total_runtime_us(), Some(1_000_000));
    }

    #[test]
    fn mission_kind_durations_aggregate_iterations() {
        let a = archive();
        assert_eq!(a.total_duration_of_us("Superstep"), 400_000);
        assert_eq!(a.runtime_fraction("Superstep"), Some(0.4));
    }

    #[test]
    fn unclosed_operations_detected() {
        let mut a = archive();
        let root = a.tree.root().unwrap();
        let dangling = a
            .tree
            .add_child(
                root,
                Actor::new("Worker", "9"),
                Mission::new("Compute", "0"),
            )
            .unwrap();
        a.tree
            .set_info(dangling, Info::raw(names::START_TIME, InfoValue::Int(5)))
            .unwrap();
        assert_eq!(a.unclosed_operations(), vec![dangling]);
    }

    #[test]
    fn counts() {
        let a = archive();
        assert_eq!(a.num_operations(), 3);
        assert_eq!(a.num_infos(), 6);
    }

    #[test]
    fn runtime_fraction_none_for_empty_tree() {
        let a = JobArchive::new(JobMeta::default(), OperationTree::new());
        assert_eq!(a.runtime_fraction("X"), None);
    }
}
