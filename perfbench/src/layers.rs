//! Per-layer accounting for the traced pass.
//!
//! Two sources feed it. The benchmark times its own calls into each
//! crate from outside (`run_on`, `evaluate`, `save`, `load`,
//! `render_svg`) and wraps each call in a `perfbench` span. Inside those
//! calls, the spans and counters the crates already emit through
//! `granula-trace` split the time further (`*.vertex_program`,
//! `*.simulate`, `assemble`, `derive_metrics`, `engine.*`, ...).
//!
//! The collected spans are also folded into a Granula operation tree
//! (workload → job → layer → span) and written as a `.gar` store plus a
//! JSON envelope, so `granula-cli archive query` and `breakdown` run on
//! the benchmark's own trace.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;
use std::path::Path;

use granula_archive::{ArchiveStore, JobArchive, JobMeta};
use granula_model::{names, Actor, Info, InfoValue, Mission, OpId, OperationTree};
use granula_trace::SpanRecord;

/// The per-layer metric a crate span's time belongs to, by the span's
/// name (its first word). Spans of the same layer never nest, so summing
/// their durations counts no interval twice.
pub fn layer_of_span(name: &str) -> Option<&'static str> {
    let head = name.split(' ').next().unwrap_or("");
    match head {
        "giraph.vertex_program"
        | "powergraph.gas_program"
        | "grape.eval"
        | "graphx.vertex_program" => Some("platforms.program_s"),
        // PowerGraph lays its DAG out one iteration at a time and has no
        // enclosing build span.
        "powergraph.iteration.build" => Some("platforms.build_dag_s"),
        h if h.ends_with(".build_dag") => Some("platforms.build_dag_s"),
        h if h.ends_with(".simulate") => Some("cluster.simulate_s"),
        h if h.ends_with(".emit_events") => Some("platforms.emit_events_s"),
        "assemble" => Some("monitor.assemble_s"),
        "derive_metrics" => Some("model.derive_s"),
        "map_environment" => Some("monitor.map_env_s"),
        "validate" => Some("model.validate_s"),
        _ => None,
    }
}

/// The Granula domain phase a benchmark layer is filed under in the
/// self-trace tree, so `granula-cli breakdown` splits the run into
/// set-up, input/output and processing like any other job.
fn domain_kind(layer: &str) -> &'static str {
    match layer {
        "graph.gen" | "model.build" => "Startup",
        "archive.load" | "archive.replay" => "LoadGraph",
        "archive.save" | "viz.render" => "OffloadGraph",
        _ => "ProcessGraph",
    }
}

/// Sums of per-layer times (seconds) and counts over a number of jobs.
#[derive(Debug, Default, Clone)]
pub struct LayerSums {
    /// Jobs the sums cover.
    pub jobs: u64,
    /// Metric name → summed value.
    pub sums: BTreeMap<&'static str, f64>,
}

impl LayerSums {
    /// Adds `value` to the metric `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.sums.entry(name).or_insert(0.0) += value;
    }

    /// Adds every classified crate span's duration to its layer.
    pub fn add_spans(&mut self, spans: &[SpanRecord]) {
        for span in spans {
            if let Some(layer) = layer_of_span(&span.name) {
                self.add(layer, span.dur_us as f64 / 1e6);
            }
        }
    }

    /// The summed value of `name`, 0 when nothing was added.
    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// The mean per job of `name`, 0 when no job ran.
    pub fn per_job(&self, name: &str) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.sum(name) / self.jobs as f64
        }
    }
}

/// One job's spans, grouped for the self-trace tree.
#[derive(Debug, Clone)]
pub struct JobTrace {
    /// Job id (or a phase name such as `setup`).
    pub job: String,
    /// The spans recorded while the job ran.
    pub spans: Vec<SpanRecord>,
}

/// Builds the workload → job → layer → span operation tree from traced
/// jobs. Layers are the benchmark's own `perfbench` spans; everything
/// nested under one becomes a span operation below it. Times are
/// microseconds since the first span of the workload.
pub fn self_trace_tree(workload: &str, jobs: &[JobTrace]) -> OperationTree {
    let mut tree = OperationTree::new();
    let t0 = jobs
        .iter()
        .flat_map(|j| j.spans.iter().map(|s| s.start_us))
        .min()
        .unwrap_or(0);
    let t1 = jobs
        .iter()
        .flat_map(|j| j.spans.iter().map(|s| s.start_us + s.dur_us))
        .max()
        .unwrap_or(t0);
    let actor = Actor::new("Perfbench", workload);
    let root = tree
        .add_root(actor.clone(), Mission::new("Workload", workload))
        .expect("fresh tree takes a root");
    set_times(&mut tree, root, 0, t1 - t0);

    for job in jobs {
        let Some(start) = job.spans.iter().map(|s| s.start_us).min() else {
            continue;
        };
        let end = job
            .spans
            .iter()
            .map(|s| s.start_us + s.dur_us)
            .max()
            .unwrap_or(start);
        let job_op = tree
            .add_child(root, actor.clone(), Mission::new("Job", job.job.as_str()))
            .expect("root exists");
        set_times(&mut tree, job_op, start - t0, end - t0);

        let mut children: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
        let ids: HashSet<u64> = job.spans.iter().map(|s| s.id).collect();
        let mut layers = Vec::new();
        for span in &job.spans {
            match span.parent.filter(|p| ids.contains(p)) {
                Some(parent) => children.entry(parent).or_default().push(span),
                None if span.stage == "perfbench" => layers.push(span),
                None => {}
            }
        }
        layers.sort_by_key(|s| (s.start_us, s.id));
        for layer in layers {
            let name = layer.name.split(' ').next().unwrap_or("");
            let op = tree
                .add_child(
                    job_op,
                    Actor::new("Layer", name),
                    Mission::new(domain_kind(name), name),
                )
                .expect("job exists");
            set_times(
                &mut tree,
                op,
                layer.start_us - t0,
                layer.start_us + layer.dur_us - t0,
            );
            add_descendants(&mut tree, op, layer.id, &children, t0);
        }
    }
    tree
}

fn add_descendants(
    tree: &mut OperationTree,
    parent_op: OpId,
    parent_span: u64,
    children: &HashMap<u64, Vec<&SpanRecord>>,
    t0: u64,
) {
    let Some(kids) = children.get(&parent_span) else {
        return;
    };
    let mut kids = kids.clone();
    kids.sort_by_key(|s| (s.start_us, s.id));
    for span in kids {
        let name = span.name.split(' ').next().unwrap_or("span");
        let op = tree
            .add_child(
                parent_op,
                Actor::new("Stage", span.stage),
                Mission::new("Span", name),
            )
            .expect("parent exists");
        set_times(
            tree,
            op,
            span.start_us - t0,
            span.start_us + span.dur_us - t0,
        );
        add_descendants(tree, op, span.id, children, t0);
    }
}

fn set_times(tree: &mut OperationTree, op: OpId, start_us: u64, end_us: u64) {
    let operation = tree.op_mut(op);
    operation.set_info(Info::raw(
        names::START_TIME,
        InfoValue::Int(start_us as i64),
    ));
    operation.set_info(Info::raw(names::END_TIME, InfoValue::Int(end_us as i64)));
    operation.set_info(Info::raw(
        names::DURATION,
        InfoValue::Int(end_us.saturating_sub(start_us) as i64),
    ));
}

/// Writes the self-trace as `<dir>/selftrace.gar` and
/// `<dir>/selftrace.json`; returns the `.gar` path.
pub fn write_self_trace(
    dir: &Path,
    workload: &str,
    seed: u64,
    jobs: &[JobTrace],
) -> Result<std::path::PathBuf, String> {
    let archive = JobArchive::new(
        JobMeta {
            job_id: format!("perfbench-{workload}"),
            platform: "Granula".into(),
            algorithm: workload.into(),
            dataset: format!("seed{seed}"),
            nodes: 1,
            model: "perfbench-layers".into(),
        },
        self_trace_tree(workload, jobs),
    );
    let json = granula_archive::to_json_pretty(&archive).map_err(|e| e.to_string())?;
    std::fs::write(dir.join("selftrace.json"), json).map_err(|e| e.to_string())?;
    let mut store = ArchiveStore::new();
    store.upsert(archive);
    let path = dir.join("selftrace.gar");
    store.save(&path).map_err(|e| e.to_string())?;
    Ok(path)
}

/// Renders a per-job layer table in Markdown: one row per job, one
/// column per layer, seconds, with a Total column (the job's wall time).
pub fn table(rows: &[(String, BTreeMap<&'static str, f64>, f64)], columns: &[&str]) -> String {
    let mut out = String::new();
    let _ = write!(out, "| Job |");
    for c in columns {
        let _ = write!(out, " {c} |");
    }
    out.push_str(" Total |\n|-----|");
    for _ in columns {
        out.push_str("----|");
    }
    out.push_str("-------|\n");
    for (job, layers, total) in rows {
        let _ = write!(out, "| {job} |");
        for c in columns {
            let _ = write!(out, " {:.4}s |", layers.get(c).copied().unwrap_or(0.0));
        }
        let _ = writeln!(out, " {total:.4}s |");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u64,
        parent: Option<u64>,
        stage: &'static str,
        name: &str,
        start: u64,
        dur: u64,
    ) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            stage,
            name: name.into(),
            start_us: start,
            dur_us: dur,
            tid: 1,
        }
    }

    #[test]
    fn crate_spans_map_to_layers() {
        assert_eq!(
            layer_of_span("giraph.vertex_program j1"),
            Some("platforms.program_s")
        );
        assert_eq!(
            layer_of_span("grape.build_dag j"),
            Some("platforms.build_dag_s")
        );
        assert_eq!(
            layer_of_span("powergraph.iteration.build it3"),
            Some("platforms.build_dag_s")
        );
        assert_eq!(layer_of_span("powergraph.gather.build it3"), None);
        assert_eq!(
            layer_of_span("graphx.simulate j"),
            Some("cluster.simulate_s")
        );
        assert_eq!(
            layer_of_span("assemble events=12"),
            Some("monitor.assemble_s")
        );
        assert_eq!(layer_of_span("validate j"), Some("model.validate_s"));
        assert_eq!(layer_of_span("run_partitioned activities=9"), None);
    }

    #[test]
    fn tree_nests_workload_job_layer_span() {
        let spans = vec![
            span(2, Some(1), "platform", "giraph.simulate j", 110, 50),
            span(1, None, "perfbench", "platforms.run_on j", 100, 100),
            span(3, None, "perfbench", "archive.save j", 210, 20),
        ];
        let tree = self_trace_tree(
            "fig5",
            &[JobTrace {
                job: "j".into(),
                spans,
            }],
        );
        assert_eq!(tree.len(), 5);
        let root = tree.root().expect("root");
        assert_eq!(tree.op(root).duration_us(), Some(130));
        let job = tree.child_by_mission(root, "Job").expect("job op");
        let run = tree
            .child_by_mission(job, "ProcessGraph")
            .expect("layer op");
        let sim = tree.child_by_mission(run, "Span").expect("span op");
        assert_eq!(tree.op(sim).start_us(), Some(10));
        assert_eq!(tree.op(sim).duration_us(), Some(50));
        assert!(tree.child_by_mission(job, "OffloadGraph").is_some());
    }

    #[test]
    fn table_has_a_total_column() {
        let mut layers = BTreeMap::new();
        layers.insert("run", 1.5);
        let text = table(&[("j".into(), layers, 2.0)], &["run", "save"]);
        assert!(
            text.contains("| j | 1.5000s | 0.0000s | 2.0000s |"),
            "{text}"
        );
    }
}
