//! Self-observability for the Granula pipeline: "Granula on Granula".
//!
//! Granula's pitch is fine-grained visibility into *other* systems'
//! performance; this crate gives the tool chain the same visibility into
//! itself. It provides a process-wide tracer with
//!
//! * a lightweight span API — [`span!`] records a named interval with a
//!   monotonic microsecond timestamp, the recording thread, and a link to
//!   the enclosing span on the same thread;
//! * a counter/gauge registry — [`counter_add`] / [`gauge_set`] for
//!   aggregate statistics that would be too hot to record as spans
//!   (engine events processed, refill waves, heap compactions);
//! * exporters — [`chrome_trace_json`] renders spans in the Chrome
//!   trace-event format (loadable in `chrome://tracing` or Perfetto) and
//!   [`metrics_snapshot`] renders the registry as plain text.
//!
//! # Zero cost when disabled
//!
//! The tracer is off by default. [`span!`] expands to a single relaxed
//! atomic load when disabled — the name is not even formatted — and the
//! metric functions return immediately. Hot loops should go one step
//! further and accumulate plain local integers, flushing them through
//! [`counter_add`] once per run (see the engine instrumentation in
//! `gpsim-cluster`).
//!
//! # Usage
//!
//! ```
//! granula_trace::enable();
//! {
//!     let _span = granula_trace::span!("archiving", "assemble job {}", 7);
//!     granula_trace::counter_add("archive.events", 120);
//! }
//! let spans = granula_trace::take_spans();
//! assert_eq!(spans.len(), 1);
//! let json = granula_trace::chrome_trace_json(&spans);
//! assert!(json.contains("\"traceEvents\""));
//! granula_trace::disable();
//! granula_trace::reset();
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One completed span: a named interval on one thread, linked to its
/// parent span (the span that was open on the same thread when this one
/// started).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Process-unique span id (monotonically assigned).
    pub id: u64,
    /// Id of the enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Pipeline stage the span belongs to (Chrome trace "category"),
    /// e.g. `"modeling"`, `"monitoring"`, `"archiving"`,
    /// `"visualization"`, `"engine"`, `"platform"`.
    pub stage: &'static str,
    /// Human-readable span name.
    pub name: String,
    /// Start time in microseconds since the tracer epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Small sequential id of the recording thread.
    pub tid: u64,
}

/// A metric registered through [`counter_add`] or [`gauge_set`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// Monotonically accumulated count.
    Counter(u64),
    /// Last-write-wins measurement.
    Gauge(f64),
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());
static METRICS: Mutex<BTreeMap<String, MetricValue>> = Mutex::new(BTreeMap::new());

thread_local! {
    /// Stack of open span ids on this thread; the top is the parent of
    /// the next span started here.
    static OPEN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds elapsed since the tracer epoch (first use in the
/// process). Monotonic.
pub fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Is the tracer currently recording? A single relaxed atomic load; this
/// is the only cost [`span!`] pays when tracing is off.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn recording on. Pins the epoch so the first span does not pay for
/// `OnceLock` initialization.
pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turn recording off. Spans already open keep recording when they
/// close; new [`span!`] calls become no-ops.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Clear all recorded spans and metrics. Does not change the enabled
/// flag or the epoch.
pub fn reset() {
    SPANS.lock().expect("span sink poisoned").clear();
    METRICS.lock().expect("metric registry poisoned").clear();
}

/// Drain and return all completed spans, ordered by completion time.
pub fn take_spans() -> Vec<SpanRecord> {
    std::mem::take(&mut *SPANS.lock().expect("span sink poisoned"))
}

/// Add `delta` to the named counter. No-op while disabled.
pub fn counter_add(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    let mut metrics = METRICS.lock().expect("metric registry poisoned");
    match metrics
        .entry(name.to_string())
        .or_insert(MetricValue::Counter(0))
    {
        MetricValue::Counter(total) => *total += delta,
        MetricValue::Gauge(_) => {}
    }
}

/// Set the named gauge to `value` (last write wins). No-op while
/// disabled.
pub fn gauge_set(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    METRICS
        .lock()
        .expect("metric registry poisoned")
        .insert(name.to_string(), MetricValue::Gauge(value));
}

/// Clone the metric registry.
pub fn metrics() -> BTreeMap<String, MetricValue> {
    METRICS.lock().expect("metric registry poisoned").clone()
}

/// Render the metric registry as a plain-text snapshot, one
/// `name kind value` line per metric, sorted by name.
pub fn metrics_snapshot() -> String {
    let metrics = METRICS.lock().expect("metric registry poisoned");
    let mut out = String::new();
    for (name, value) in metrics.iter() {
        match value {
            MetricValue::Counter(total) => {
                out.push_str(&format!("{name} counter {total}\n"));
            }
            MetricValue::Gauge(v) => {
                out.push_str(&format!("{name} gauge {v}\n"));
            }
        }
    }
    out
}

/// RAII guard for an open span; records a [`SpanRecord`] when dropped.
///
/// Construct through [`span!`] (which skips construction entirely while
/// the tracer is disabled) or [`start_span`].
pub struct SpanGuard {
    id: u64,
    parent: Option<u64>,
    stage: &'static str,
    name: String,
    start_us: u64,
    tid: u64,
}

/// Open a span unconditionally. Prefer [`span!`], which formats the name
/// lazily and checks [`enabled`] first.
pub fn start_span(stage: &'static str, name: String) -> SpanGuard {
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let parent = stack.last().copied();
        stack.push(id);
        parent
    });
    SpanGuard {
        id,
        parent,
        stage,
        name,
        start_us: now_us(),
        tid: THREAD_ID.with(|t| *t),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end_us = now_us();
        OPEN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if stack.last() == Some(&self.id) {
                stack.pop();
            } else {
                // Out-of-order drop (guards moved across scopes); unlink
                // without disturbing the rest of the stack.
                stack.retain(|&open| open != self.id);
            }
        });
        SPANS.lock().expect("span sink poisoned").push(SpanRecord {
            id: self.id,
            parent: self.parent,
            stage: self.stage,
            name: std::mem::take(&mut self.name),
            start_us: self.start_us,
            dur_us: end_us.saturating_sub(self.start_us),
            tid: self.tid,
        });
    }
}

/// Open a span for the current scope: `span!(stage, name-format, args…)`.
///
/// Expands to a single relaxed atomic load when tracing is disabled —
/// the name format arguments are not evaluated. Bind the result to a
/// named variable (`let _span = span!(…)`); binding to `_` drops the
/// guard immediately and records an empty interval.
#[macro_export]
macro_rules! span {
    ($stage:expr, $($name:tt)+) => {
        if $crate::enabled() {
            Some($crate::start_span($stage, format!($($name)+)))
        } else {
            None
        }
    };
}

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Render spans in the Chrome trace-event JSON format.
///
/// The output is an object with a `traceEvents` array of `ph:"X"`
/// (complete) events and an `otherData.metrics` object holding the
/// current metric registry. Load it in `chrome://tracing` or
/// <https://ui.perfetto.dev>.
pub fn chrome_trace_json(spans: &[SpanRecord]) -> String {
    let mut out = String::with_capacity(128 + spans.len() * 160);
    out.push_str("{\"traceEvents\":[");
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        escape_json(&span.name, &mut out);
        out.push_str("\",\"cat\":\"");
        escape_json(span.stage, &mut out);
        out.push_str("\",\"ph\":\"X\",\"ts\":");
        out.push_str(&span.start_us.to_string());
        out.push_str(",\"dur\":");
        out.push_str(&span.dur_us.to_string());
        out.push_str(",\"pid\":1,\"tid\":");
        out.push_str(&span.tid.to_string());
        out.push_str(",\"args\":{\"id\":");
        out.push_str(&span.id.to_string());
        if let Some(parent) = span.parent {
            out.push_str(",\"parent\":");
            out.push_str(&parent.to_string());
        }
        out.push_str("}}");
    }
    out.push_str("],\"displayTimeUnit\":\"ms\",\"otherData\":{\"metrics\":{");
    let metrics = METRICS.lock().expect("metric registry poisoned");
    for (i, (name, value)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_json(name, &mut out);
        out.push_str("\":");
        match value {
            MetricValue::Counter(total) => out.push_str(&total.to_string()),
            MetricValue::Gauge(v) if v.is_finite() => out.push_str(&format!("{v}")),
            MetricValue::Gauge(_) => out.push_str("null"),
        }
    }
    out.push_str("}}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests share one process-global tracer; serialize them.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static TEST_LOCK: Mutex<()> = Mutex::new(());
        TEST_LOCK
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let _guard = lock();
        disable();
        reset();
        {
            let _span = span!("engine", "should not appear {}", 1);
            counter_add("engine.events", 42);
            gauge_set("engine.ratio", 0.5);
        }
        assert!(take_spans().is_empty());
        assert!(metrics().is_empty());
        assert_eq!(metrics_snapshot(), "");
    }

    #[test]
    fn enabled_tracer_nests_spans_across_threads() {
        let _guard = lock();
        disable();
        reset();
        enable();
        {
            let _outer = span!("archiving", "outer");
            {
                let _inner = span!("archiving", "inner");
            }
            let handles: Vec<_> = (0..2)
                .map(|worker| {
                    std::thread::spawn(move || {
                        let _root = span!("monitoring", "worker {worker}");
                        let _child = span!("monitoring", "worker {worker} child");
                    })
                })
                .collect();
            for handle in handles {
                handle.join().expect("worker thread");
            }
        }
        disable();
        let spans = take_spans();
        assert_eq!(spans.len(), 6);

        let by_name = |name: &str| {
            spans
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("span {name} recorded"))
        };
        let outer = by_name("outer");
        let inner = by_name("inner");
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.tid, outer.tid);
        assert!(inner.start_us >= outer.start_us);

        // Each worker thread nests its own pair, has no parent link into
        // the main thread, and reports a distinct thread id.
        let mut worker_tids = Vec::new();
        for worker in 0..2 {
            let root = by_name(&format!("worker {worker}"));
            let child = by_name(&format!("worker {worker} child"));
            assert_eq!(root.parent, None);
            assert_eq!(child.parent, Some(root.id));
            assert_eq!(child.tid, root.tid);
            assert_ne!(root.tid, outer.tid);
            worker_tids.push(root.tid);
        }
        assert_ne!(worker_tids[0], worker_tids[1]);
    }

    #[test]
    fn metrics_accumulate_and_snapshot() {
        let _guard = lock();
        disable();
        reset();
        enable();
        counter_add("engine.events", 10);
        counter_add("engine.events", 5);
        gauge_set("engine.stale_ratio", 0.25);
        gauge_set("engine.stale_ratio", 0.75);
        disable();
        assert_eq!(
            metrics().get("engine.events"),
            Some(&MetricValue::Counter(15))
        );
        assert_eq!(
            metrics().get("engine.stale_ratio"),
            Some(&MetricValue::Gauge(0.75))
        );
        let snapshot = metrics_snapshot();
        assert!(snapshot.contains("engine.events counter 15"));
        assert!(snapshot.contains("engine.stale_ratio gauge 0.75"));
    }

    #[test]
    fn chrome_trace_json_is_well_formed() {
        let _guard = lock();
        disable();
        reset();
        enable();
        {
            let _span = span!("visualization", "render \"fig5\"\n\\tab");
            counter_add("pipeline.runs", 1);
            gauge_set("pipeline.nan", f64::NAN);
        }
        disable();
        let spans = take_spans();
        let json = chrome_trace_json(&spans);
        let value: serde::Value = serde_json::from_str(&json).expect("valid JSON");
        let events = value
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].get("name"),
            Some(&serde::Value::Str("render \"fig5\"\n\\tab".into()))
        );
        assert_eq!(events[0].get("ph"), Some(&serde::Value::Str("X".into())));
        assert_eq!(
            events[0].get("cat"),
            Some(&serde::Value::Str("visualization".into()))
        );
        let metrics_obj = value
            .get("otherData")
            .and_then(|v| v.get("metrics"))
            .expect("metrics object");
        assert!(matches!(
            metrics_obj.get("pipeline.runs"),
            Some(serde::Value::Int(1) | serde::Value::UInt(1))
        ));
        assert_eq!(metrics_obj.get("pipeline.nan"), Some(&serde::Value::Null));
        reset();
    }

    #[test]
    fn empty_trace_is_still_valid_json() {
        let _guard = lock();
        disable();
        reset();
        let json = chrome_trace_json(&[]);
        let value: serde::Value = serde_json::from_str(&json).expect("valid JSON");
        let events = value.get("traceEvents").expect("traceEvents key");
        assert!(events.as_array().expect("array").is_empty());
    }
}
