//! Self-contained HTML report for one archive: the shareable artifact of
//! the visualization stage.

use granula_archive::JobArchive;
use granula_monitor::{EnvLog, ResourceKind};

use crate::breakdown::{BreakdownChart, BreakdownRow};
use crate::gantt::GanttChart;
use crate::timeline::TimelineChart;
use crate::tree::render_operation_tree;

fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Builds a single-file HTML report: metadata, domain breakdown, CPU
/// timeline with phase bands, a worker Gantt of the Compute operations, and
/// the operation tree (pruned).
pub fn html_report(archive: &JobArchive, env: &EnvLog) -> String {
    let _span = granula_trace::span!("visualization", "html_report {}", archive.meta.job_id);
    let meta = &archive.meta;
    let mut html = String::new();
    html.push_str("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n");
    html.push_str(&format!(
        "<title>Granula report — {}</title>\n",
        esc(&meta.job_id)
    ));
    html.push_str(
        "<style>body{font-family:sans-serif;margin:24px;}pre{background:#f7f7f7;\
         padding:8px;overflow-x:auto;}h2{border-bottom:1px solid #ddd;}</style>\n</head><body>\n",
    );
    html.push_str(&format!(
        "<h1>Granula performance report: {}</h1>\n",
        esc(&meta.job_id)
    ));
    html.push_str(&format!(
        "<p>Platform <b>{}</b>, algorithm <b>{}</b>, dataset <b>{}</b>, {} nodes, \
         model <code>{}</code>. Total runtime: <b>{:.2} s</b>. {} operations, {} infos.</p>\n",
        esc(&meta.platform),
        esc(&meta.algorithm),
        esc(&meta.dataset),
        meta.nodes,
        esc(&meta.model),
        archive.total_runtime_us().unwrap_or(0) as f64 / 1e6,
        archive.num_operations(),
        archive.num_infos(),
    ));

    // Domain breakdown.
    if let Some(total) = archive.total_runtime_us() {
        let mut row = BreakdownRow::new(meta.platform.clone(), total);
        for kind in [
            "Startup",
            "LoadGraph",
            "ProcessGraph",
            "OffloadGraph",
            "Cleanup",
        ] {
            let d = archive.total_duration_of_us(kind);
            if d > 0 {
                row = row.with_segment(kind, d);
            }
        }
        let mut chart = BreakdownChart::new();
        chart.add_row(row);
        html.push_str("<h2>Domain-level job decomposition</h2>\n");
        html.push_str(&chart.render_svg());
    }

    // CPU timeline with domain phase bands.
    let mut timeline = TimelineChart::new(env, ResourceKind::Cpu);
    if let Some(root) = archive.tree.root() {
        for kind in [
            "Startup",
            "LoadGraph",
            "ProcessGraph",
            "OffloadGraph",
            "Cleanup",
        ] {
            if let Some(id) = archive.tree.child_by_mission(root, kind) {
                let op = archive.tree.op(id);
                if let (Some(s), Some(e)) = (op.start_us(), op.end_us()) {
                    timeline = timeline.with_phase(kind, s, e);
                }
            }
        }
    }
    html.push_str("<h2>CPU utilization per node</h2>\n");
    html.push_str(&timeline.render_svg());

    // Memory timeline, when the environment log carries it.
    if !env.cumulative(ResourceKind::Memory).is_empty() {
        let mut mem = TimelineChart::new(env, ResourceKind::Memory);
        if let Some(root) = archive.tree.root() {
            for kind in [
                "Startup",
                "LoadGraph",
                "ProcessGraph",
                "OffloadGraph",
                "Cleanup",
            ] {
                if let Some(id) = archive.tree.child_by_mission(root, kind) {
                    let op = archive.tree.op(id);
                    if let (Some(s), Some(e)) = (op.start_us(), op.end_us()) {
                        mem = mem.with_phase(kind, s, e);
                    }
                }
            }
        }
        html.push_str("<h2>Memory (RSS) per node</h2>\n");
        html.push_str(&mem.render_svg());
    }

    // Worker Gantt of the compute-level operations, if modeled.
    let gantt = GanttChart::from_archive(
        archive,
        &[
            "PreStep", "Compute", "PostStep", "Gather", "Apply", "Scatter",
        ],
        "Compute",
    );
    if !gantt.is_empty() {
        html.push_str("<h2>Per-worker operation timeline</h2>\n");
        html.push_str(&gantt.render_svg());
    }

    // Pruned operation tree.
    html.push_str("<h2>Operation hierarchy (pruned to 3 levels)</h2>\n<pre>");
    html.push_str(&esc(&render_operation_tree(&archive.tree, 3)));
    html.push_str("</pre>\n</body></html>\n");
    html
}

#[cfg(test)]
mod tests {
    use super::*;
    use granula_archive::JobMeta;
    use granula_model::{names, Actor, Info, InfoValue, Mission, OperationTree};
    use granula_monitor::ResourceSample;

    fn archive() -> JobArchive {
        let mut t = OperationTree::new();
        let job = t
            .add_root(Actor::new("Job", "0"), Mission::new("GiraphJob", "0"))
            .unwrap();
        t.set_info(job, Info::raw(names::START_TIME, InfoValue::Int(0)))
            .unwrap();
        t.set_info(job, Info::raw(names::END_TIME, InfoValue::Int(10_000_000)))
            .unwrap();
        let load = t
            .add_child(job, Actor::new("Job", "0"), Mission::new("LoadGraph", "0"))
            .unwrap();
        t.set_info(load, Info::raw(names::START_TIME, InfoValue::Int(0)))
            .unwrap();
        t.set_info(load, Info::raw(names::END_TIME, InfoValue::Int(6_000_000)))
            .unwrap();
        JobArchive::new(
            JobMeta {
                job_id: "demo".into(),
                platform: "Giraph".into(),
                algorithm: "BFS".into(),
                dataset: "dg".into(),
                nodes: 2,
                model: "giraph-v4".into(),
            },
            t,
        )
    }

    fn env() -> EnvLog {
        let mut e = EnvLog::new();
        for t in 0..10u64 {
            e.push(ResourceSample {
                time_us: t * 1_000_000,
                node: "n0".into(),
                kind: ResourceKind::Cpu,
                value: t as f64,
            });
        }
        e
    }

    #[test]
    fn report_contains_all_sections() {
        let html = html_report(&archive(), &env());
        assert!(html.contains("<!DOCTYPE html>"));
        assert!(html.contains("Granula performance report: demo"));
        assert!(html.contains("Domain-level job decomposition"));
        assert!(html.contains("CPU utilization per node"));
        assert!(html.contains("Operation hierarchy"));
        assert!(html.contains("<svg"));
        // No unescaped raw labels that could break HTML.
        assert!(!html.contains("<LoadGraph"));
    }

    #[test]
    fn gantt_section_omitted_without_worker_ops() {
        let html = html_report(&archive(), &env());
        assert!(!html.contains("Per-worker operation timeline"));
    }

    #[test]
    fn memory_section_present_only_with_memory_samples() {
        let html = html_report(&archive(), &env());
        assert!(!html.contains("Memory (RSS) per node"));
        let mut e = env();
        e.push(ResourceSample {
            time_us: 0,
            node: "n0".into(),
            kind: ResourceKind::Memory,
            value: 1e9,
        });
        let html = html_report(&archive(), &e);
        assert!(html.contains("Memory (RSS) per node"));
    }
}
