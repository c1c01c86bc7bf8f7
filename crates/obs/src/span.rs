//! Span timing: RAII guards measuring named phases on the monotonic
//! clock. Each completed span emits a `span` event carrying its duration
//! and parent, and folds into a global per-name aggregate that the run
//! manifest reports as wall-time per phase.

use crate::event::Value;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

thread_local! {
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Aggregate timing for one span name.
#[derive(Debug, Clone, Default)]
pub struct SpanAgg {
    /// Number of completed spans with this name.
    pub count: u64,
    /// Total time across them, nanoseconds.
    pub total_ns: u128,
}

static AGGREGATES: Mutex<BTreeMap<&'static str, SpanAgg>> = Mutex::new(BTreeMap::new());

/// Innermost active span name on this thread.
pub fn current() -> Option<&'static str> {
    SPAN_STACK.with(|s| s.borrow().last().copied())
}

/// Snapshot of all span aggregates, keyed by name.
pub fn aggregates() -> BTreeMap<&'static str, SpanAgg> {
    AGGREGATES.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Clear aggregates (between runs in one process, and in tests).
pub fn reset_aggregates() {
    AGGREGATES.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// RAII span. Create via [`crate::span!`]; the span ends (and its event
/// is emitted) when the guard drops. Inert when tracing is disabled —
/// not even the clock is read.
pub struct SpanGuard {
    inner: Option<ActiveSpan>,
}

struct ActiveSpan {
    name: &'static str,
    parent: Option<&'static str>,
    start: Instant,
}

impl SpanGuard {
    /// Start a span named `name` if tracing is enabled.
    pub fn begin(name: &'static str) -> SpanGuard {
        if !crate::enabled() {
            return SpanGuard { inner: None };
        }
        let parent = current();
        SPAN_STACK.with(|s| s.borrow_mut().push(name));
        SpanGuard {
            inner: Some(ActiveSpan {
                name,
                parent,
                start: Instant::now(),
            }),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.inner.take() else {
            return;
        };
        let elapsed = active.start.elapsed();
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            debug_assert_eq!(stack.last(), Some(&active.name), "span stack imbalance");
            stack.pop();
        });
        {
            let mut aggs = AGGREGATES.lock().unwrap_or_else(|e| e.into_inner());
            let agg = aggs.entry(active.name).or_default();
            agg.count += 1;
            agg.total_ns += elapsed.as_nanos();
        }
        // Duration distribution per span name, for the p50/p95/p99
        // columns of the manifest phase summary and the /metrics export.
        crate::metrics::histogram_observe(
            &crate::metrics::span_histogram_name(active.name),
            crate::metrics::latency_edges_us(),
            elapsed.as_nanos() as f64 / 1e3,
        );
        let mut fields = vec![
            ("name", Value::from(active.name)),
            ("dur_us", Value::F64(elapsed.as_nanos() as f64 / 1e3)),
        ];
        if let Some(parent) = active.parent {
            fields.push(("parent", Value::from(parent)));
        }
        crate::emit_with_span("span", active.parent, fields);
    }
}

/// Start a timed span for the enclosing scope:
/// `let _span = xmodel_obs::span!(xmodel_obs::names::span::SOLVER_SOLVE);`
///
/// The name must be `&'static str`; workspace crates take it from
/// [`crate::names`] (enforced by the `span-name-registry` lint).
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::SpanGuard::begin($name)
    };
}
