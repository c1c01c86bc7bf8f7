//! # xmodel-obs — structured observability for the X-model workspace
//!
//! One small crate giving every layer of the workspace the same three
//! primitives:
//!
//! * **Spans** — RAII phase timers on the monotonic clock.
//!   `let _s = xmodel_obs::span!("solve");` times the enclosing scope,
//!   emits a `span` event on completion, and feeds the per-phase totals
//!   reported in the run manifest.
//! * **Events** — structured JSONL records with typed fields.
//!   `xmodel_obs::event!("solver.bracket", lo = 1.0, hi = 2.0);`
//!   Each event carries a microsecond timestamp and the innermost
//!   enclosing span.
//! * **Metrics** — named counters, gauges, and fixed-bucket histograms
//!   ([`metrics`]), folded into the manifest at end of run.
//!
//! ## Enabling a trace
//!
//! Tracing is off by default and costs one relaxed atomic load per
//! instrumentation site. It turns on when a sink is installed:
//!
//! ```no_run
//! xmodel_obs::init_jsonl(std::path::Path::new("out.jsonl")).unwrap();
//! // ... instrumented work ...
//! let manifest = xmodel_obs::manifest::RunManifest::collect(
//!     "sim", std::collections::BTreeMap::new(), Some(42));
//! xmodel_obs::finish(Some(&manifest));
//! ```
//!
//! The CLI wires this to `--trace <path>` and the `XMODEL_TRACE`
//! environment variable (see [`init_from_env`]), and appends a
//! [`manifest::RunManifest`] as the final line of every traced run.
//!
//! Two consumption layers sit on top of the raw stream:
//!
//! * [`profile`] folds a trace's span events back into a call-tree
//!   profile (self/total time, call counts, p50/p95/p99) and emits a
//!   flamegraph-compatible folded-stack rendering — `xmodel profile`.
//! * [`diff`] aligns two such profiles by span name + tree path and
//!   reports per-span self/total-time deltas and percentile shifts —
//!   `xmodel trace-diff`, the regression-attribution layer.
//! * [`export`] serves the live metrics registry as Prometheus text
//!   format over `std::net` — `xmodel --metrics-addr HOST:PORT` or the
//!   `XMODEL_METRICS_ADDR` environment variable. [`init_metrics_from_env`]
//!   mirrors [`init_from_env`] for that variable. The exporter thread is
//!   only spawned when an address is configured.
//!
//! ## Trace format
//!
//! One JSON object per line, schema [`event::SCHEMA`]. Every line has a
//! `"kind"`; events add `"t_us"` (µs since trace start), `"span"`, and
//! their payload fields inline. Two kinds are structural: `span`
//! (completed span: `name`, `dur_us`, `parent`) and `run_manifest`
//! (final line). `xmodel trace-report <file>` ([`report`]) summarizes a
//! trace; determinism of traced runs is guaranteed because
//! instrumentation only ever *reads* model and simulator state.

#![forbid(unsafe_code)]

pub mod diff;
pub mod event;
pub mod export;
pub mod http;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod names;
pub mod profile;
pub mod report;
pub mod residual;
pub mod simtrace;
pub mod sink;
pub mod span;

pub use event::{Event, Value};
pub use sink::{FaultySink, JsonlSink, MemSink, NullSink, Sink, SinkFaultCounters};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Option<Box<dyn Sink>>> = Mutex::new(None);
static ANCHOR: OnceLock<Instant> = OnceLock::new();

/// Serializes unit tests that touch the process-global tracing state
/// (shared across this crate's test modules).
#[cfg(test)]
pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

/// Is tracing live? Instrumentation sites check this first; when false
/// they do no other work (the "NullSink" fast path).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Microseconds since the process's trace clock started.
pub fn now_us() -> u64 {
    ANCHOR.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// Install a sink and enable tracing. Clears span aggregates and metrics
/// so the new trace starts from a clean slate.
pub fn install(sink: Box<dyn Sink>) {
    ANCHOR.get_or_init(Instant::now);
    span::reset_aggregates();
    metrics::reset();
    *SINK.lock().unwrap_or_else(|e| e.into_inner()) = Some(sink);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Install a buffered JSONL file sink writing to `path`.
pub fn init_jsonl(path: &std::path::Path) -> std::io::Result<()> {
    install(Box::new(JsonlSink::create(path)?));
    Ok(())
}

/// Read the JSONL trace at `path` and hand its lines to `parse`, the one
/// reader behind every trace consumer's `from_path`. Invalid UTF-8 is
/// replaced, not fatal: a torn write mid-line must still yield a
/// best-effort result. Only a missing or unreadable file errors.
pub fn read_trace_lines<T>(
    path: &std::path::Path,
    parse: impl FnOnce(std::str::Lines<'_>) -> T,
) -> std::io::Result<T> {
    let bytes = std::fs::read(path)?;
    Ok(parse(String::from_utf8_lossy(&bytes).lines()))
}

/// Install a JSONL sink at `$XMODEL_TRACE` if that variable is set.
/// Returns the path used, or `None` when the variable is unset. A path
/// that cannot be created is reported on stderr and tracing stays off.
pub fn init_from_env() -> Option<std::path::PathBuf> {
    let path = std::path::PathBuf::from(std::env::var_os("XMODEL_TRACE")?);
    match init_jsonl(&path) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("warning: XMODEL_TRACE={}: {e}", path.display());
            None
        }
    }
}

/// Start the background `/metrics` exporter on `addr` (port 0 picks a
/// free port; the bound address is in the returned handle). When no
/// sink is live this installs a [`NullSink`] first so spans and metrics
/// record for the exporter to serve; a later [`install`] replaces the
/// sink without disturbing the exporter. When no address is configured
/// this is never called and no exporter thread exists.
pub fn serve_metrics(addr: &str) -> std::io::Result<export::MetricsServer> {
    if !enabled() {
        install(Box::new(NullSink));
    }
    export::serve(addr)
}

/// Start the exporter at `$XMODEL_METRICS_ADDR` if that variable is
/// set. Returns the bound server, or `None` when the variable is unset.
/// An address that cannot be bound is reported on stderr and the
/// exporter stays off.
pub fn init_metrics_from_env() -> Option<export::MetricsServer> {
    let addr = std::env::var("XMODEL_METRICS_ADDR").ok()?;
    match serve_metrics(&addr) {
        Ok(server) => Some(server),
        Err(e) => {
            eprintln!("warning: XMODEL_METRICS_ADDR={addr}: {e}");
            None
        }
    }
}

/// Emit an event with the current thread's innermost span attached.
/// Callers should gate on [`enabled`] first (the [`event!`] macro does);
/// emitting while disabled is a silent no-op.
pub fn emit(kind: &'static str, fields: Vec<(&'static str, Value)>) {
    emit_with_span(kind, span::current(), fields);
}

/// Emit an event with an explicit span attribution (used by span
/// completion, which attributes itself to its parent).
pub fn emit_with_span(
    kind: &'static str,
    span: Option<&'static str>,
    fields: Vec<(&'static str, Value)>,
) {
    if !enabled() {
        return;
    }
    let event = Event {
        kind,
        t_us: now_us(),
        span,
        fields,
    };
    if let Some(sink) = SINK.lock().unwrap_or_else(|e| e.into_inner()).as_ref() {
        sink.emit(&event);
    }
}

/// Flush the active sink's buffers.
pub fn flush() {
    if let Some(sink) = SINK.lock().unwrap_or_else(|e| e.into_inner()).as_ref() {
        sink.flush();
    }
}

/// End the trace: optionally append the run manifest as the final line,
/// flush, uninstall the sink, and disable tracing.
pub fn finish(manifest: Option<&manifest::RunManifest>) {
    let sink = {
        ENABLED.store(false, Ordering::SeqCst);
        SINK.lock().unwrap_or_else(|e| e.into_inner()).take()
    };
    if let Some(sink) = sink {
        if let Some(m) = manifest {
            sink.emit_raw(&m.to_json());
        }
        sink.flush();
    }
}

/// Emit a structured trace event:
/// `xmodel_obs::event!("sim.snapshot", cycle = now, k = running);`
/// Field values may be any integer, float, bool, or string type.
/// Compiles to a single relaxed atomic load when tracing is disabled.
#[macro_export]
macro_rules! event {
    ($kind:literal $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::emit($kind, vec![$((stringify!($key), $crate::Value::from($val))),*]);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;
    use std::collections::BTreeMap;

    // Global tracing state is process-wide; serialize tests that touch it.
    use crate::TEST_LOCK;

    fn with_mem_sink(f: impl FnOnce()) -> Vec<String> {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let sink = MemSink::new();
        install(Box::new(sink.clone()));
        f();
        let lines = sink.lines();
        finish(None);
        lines
    }

    #[test]
    fn jsonl_round_trip() {
        let lines = with_mem_sink(|| {
            event!(
                "test.kinds",
                unsigned = 7u64,
                signed = -3i32,
                float = 2.5f64,
                flag = true,
                label = "bi\"stable\"",
            );
        });
        assert_eq!(lines.len(), 1);
        let parsed = json::parse(&lines[0]).expect("emitted line parses");
        assert_eq!(parsed.get("kind").unwrap().as_str(), Some("test.kinds"));
        assert_eq!(parsed.get("unsigned").unwrap().as_u64(), Some(7));
        assert_eq!(parsed.get("signed").unwrap().as_f64(), Some(-3.0));
        assert_eq!(parsed.get("float").unwrap().as_f64(), Some(2.5));
        assert_eq!(parsed.get("flag"), Some(&JsonValue::Bool(true)));
        assert_eq!(parsed.get("label").unwrap().as_str(), Some("bi\"stable\""));
        assert!(parsed.get("t_us").unwrap().as_f64().is_some());
    }

    #[test]
    fn span_nesting_attributes_parent_and_events() {
        let lines = with_mem_sink(|| {
            let _outer = span!("outer");
            event!("in.outer");
            {
                let _inner = span!("inner");
                event!("in.inner");
            }
        });
        let parsed: Vec<JsonValue> = lines.iter().map(|l| json::parse(l).unwrap()).collect();
        let kind = |v: &JsonValue| v.get("kind").unwrap().as_str().unwrap().to_string();

        assert_eq!(kind(&parsed[0]), "in.outer");
        assert_eq!(parsed[0].get("span").unwrap().as_str(), Some("outer"));
        assert_eq!(kind(&parsed[1]), "in.inner");
        assert_eq!(parsed[1].get("span").unwrap().as_str(), Some("inner"));

        // inner span closes before outer; both record their parent.
        assert_eq!(kind(&parsed[2]), "span");
        assert_eq!(parsed[2].get("name").unwrap().as_str(), Some("inner"));
        assert_eq!(parsed[2].get("parent").unwrap().as_str(), Some("outer"));
        assert_eq!(kind(&parsed[3]), "span");
        assert_eq!(parsed[3].get("name").unwrap().as_str(), Some("outer"));
        assert_eq!(parsed[3].get("parent"), None);

        assert_eq!(span::current(), None, "span stack unwound");
    }

    #[test]
    fn disabled_tracing_is_a_no_op() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!enabled());
        span::reset_aggregates();
        metrics::reset();
        // None of these may panic, allocate sinks, or record anything.
        event!("ignored.event", x = 1u32);
        {
            let _s = span!("ignored_span");
        }
        metrics::counter_add("ignored", 1);
        metrics::histogram_observe("ignored_h", &[1.0], 0.5);
        assert_eq!(span::aggregates().len(), 0);
        assert_eq!(metrics::snapshot().counters.len(), 0);
        // And the NullSink itself swallows direct emissions.
        let null = NullSink;
        null.emit(&Event {
            kind: "x",
            t_us: 0,
            span: None,
            fields: vec![],
        });
        null.emit_raw("{}");
        null.flush();
    }

    #[test]
    fn histogram_bucket_edges_are_inclusive_upper() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        install(Box::new(NullSink));
        let edges = [1.0, 2.0, 4.0];
        for v in [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 4.5, 100.0] {
            metrics::histogram_observe("h", &edges, v);
        }
        let snap = metrics::snapshot();
        finish(None);
        let h = &snap.histograms["h"];
        // v <= 1.0 → bucket 0; 1.0 < v <= 2.0 → 1; 2.0 < v <= 4.0 → 2; overflow → 3.
        assert_eq!(h.counts, vec![2, 2, 2, 2]);
        assert_eq!(h.count, 8);
        assert!((h.mean() - 116.5 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        install(Box::new(NullSink));
        metrics::counter_add("events", 3);
        metrics::counter_add("events", 4);
        metrics::gauge_set("level", 0.25);
        metrics::gauge_set("level", 0.75);
        let snap = metrics::snapshot();
        finish(None);
        assert_eq!(snap.counters["events"], 7);
        assert_eq!(snap.gauges["level"], 0.75);
    }

    #[test]
    fn manifest_serializes_and_parses() {
        let lines = with_mem_sink(|| {
            {
                let _phase = span!("solve");
            }
            metrics::counter_add("solver.brackets", 2);
            let mut params = BTreeMap::new();
            params.insert("warps".to_string(), "32".to_string());
            let m = manifest::RunManifest::collect("sim", params, Some(42));
            emit_with_span("noop", None, vec![]); // keep sink non-empty pre-manifest
            if let Some(sink) = SINK.lock().unwrap_or_else(|e| e.into_inner()).as_ref() {
                sink.emit_raw(&m.to_json());
            }
        });
        let manifest_line = lines.last().unwrap();
        let parsed = json::parse(manifest_line).expect("manifest parses");
        assert_eq!(parsed.get("kind").unwrap().as_str(), Some("run_manifest"));
        assert_eq!(parsed.get("schema").unwrap().as_str(), Some(event::SCHEMA));
        assert_eq!(parsed.get("command").unwrap().as_str(), Some("sim"));
        assert_eq!(parsed.get("seed").unwrap().as_u64(), Some(42));
        assert_eq!(
            parsed.get("params").unwrap().get("warps").unwrap().as_str(),
            Some("32")
        );
        let phases = match parsed.get("phases") {
            Some(JsonValue::Array(p)) => p,
            other => panic!("phases not an array: {other:?}"),
        };
        assert!(phases
            .iter()
            .any(|p| p.get("name").unwrap().as_str() == Some("solve")));
        assert_eq!(
            parsed
                .get("counters")
                .unwrap()
                .get("solver.brackets")
                .unwrap()
                .as_u64(),
            Some(2)
        );
    }

    #[test]
    fn report_summarizes_spans_and_counts() {
        let lines = with_mem_sink(|| {
            let _outer = span!("run");
            for _ in 0..3 {
                let _inner = span!("step");
                event!("work.item", n = 1u32);
            }
        });
        let report = report::TraceReport::from_lines(lines.iter().map(String::as_str));
        assert_eq!(report.malformed, 0);
        assert_eq!(report.counts["work.item"], 3);
        assert_eq!(report.spans["step"].count, 3);
        assert_eq!(report.spans["step"].parent.as_deref(), Some("run"));
        let rendered = report.render();
        assert!(rendered.contains("run"));
        assert!(rendered.contains("step"));
        assert!(rendered.contains("work.item"));
    }

    /// Panics in its first `emit`, while `emit_with_span` holds the
    /// global sink lock, and forwards every later call to `inner`.
    struct PanicOnceSink {
        fired: AtomicBool,
        inner: MemSink,
    }

    impl Sink for PanicOnceSink {
        fn emit(&self, event: &Event) {
            if !self.fired.swap(true, Ordering::SeqCst) {
                panic!("sink failure while holding the lock");
            }
            self.inner.emit(event);
        }

        fn emit_raw(&self, line: &str) {
            self.inner.emit_raw(line);
        }

        fn flush(&self) {
            self.inner.flush();
        }
    }

    #[test]
    fn tracing_survives_a_sink_that_panics_holding_the_lock() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mem = MemSink::new();
        install(Box::new(PanicOnceSink {
            fired: AtomicBool::new(false),
            inner: mem.clone(),
        }));
        let first = std::thread::spawn(|| event!("sink.first")).join();
        assert!(first.is_err(), "the first emit must panic");
        event!("sink.second");
        let lines = mem.lines();
        finish(None);
        assert_eq!(lines.len(), 1, "{lines:?}");
        let parsed = json::parse(&lines[0]).expect("line parses");
        assert_eq!(parsed.get("kind").unwrap().as_str(), Some("sink.second"));
    }
}
