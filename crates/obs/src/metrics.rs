//! Process-wide metrics registry: named counters, gauges, and fixed-
//! bucket histograms. Generalizes the ad-hoc counters in `SimStats` for
//! consumers outside the simulator; values are folded into the run
//! manifest at the end of a traced run.
//!
//! All update paths are gated on the global tracing flag, so a build with
//! tracing disabled pays one relaxed atomic load per call.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// Monotonically increasing counter value.
#[derive(Debug, Clone, Default)]
pub struct Counter(pub u64);

/// Last-write-wins instantaneous value.
#[derive(Debug, Clone, Default)]
pub struct Gauge(pub f64);

/// Histogram over fixed, caller-supplied bucket edges.
///
/// With edges `[e0, e1, ..., en]` there are `n + 2` buckets: values
/// `v <= e0` land in bucket 0, `e_{i-1} < v <= e_i` in bucket `i`, and
/// `v > en` in the final overflow bucket.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Upper bucket edges (inclusive), ascending.
    pub edges: Vec<f64>,
    /// Per-bucket observation counts (`edges.len() + 1` entries).
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
    /// Total number of observations.
    pub count: u64,
}

impl Histogram {
    /// Empty histogram over `edges` (strictly ascending upper bounds).
    /// Also usable standalone, outside the global registry — the span
    /// profiler builds one per span name.
    pub fn with_edges(edges: &[f64]) -> Self {
        assert!(
            edges.windows(2).all(|w| matches!(w, [a, b] if a < b)),
            "histogram edges must be strictly ascending"
        );
        Histogram {
            edges: edges.to_vec(),
            counts: vec![0; edges.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    fn new(edges: &[f64]) -> Self {
        Self::with_edges(edges)
    }

    /// Record one observation.
    pub fn record(&mut self, v: f64) {
        self.observe(v);
    }

    fn observe(&mut self, v: f64) {
        let bucket = self.edges.partition_point(|&e| e < v);
        self.counts[bucket] += 1;
        self.sum += v;
        self.count += 1;
    }

    /// Mean of all observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimate the `q`-quantile (`0 <= q <= 1`) by linear interpolation
    /// within the bucket containing the target rank. Returns `None` when
    /// the histogram is empty. The underflow bucket interpolates from 0,
    /// the overflow bucket is pinned to its lower edge (the estimate is
    /// then a lower bound — the registry has no upper bound to offer).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cumulative = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let next = cumulative + n;
            if next as f64 >= target {
                let frac = ((target - cumulative as f64) / n as f64).clamp(0.0, 1.0);
                let (lo, hi) = self.bucket_bounds(i);
                return Some(match hi {
                    Some(hi) => lo + frac * (hi - lo),
                    None => lo, // overflow bucket: lower bound
                });
            }
            cumulative = next;
        }
        // Unreachable with count > 0, but stay total.
        self.edges.last().copied().map(|e| e.max(0.0))
    }

    /// `(lower, upper)` value bounds of bucket `i`; upper is `None` for
    /// the overflow bucket.
    fn bucket_bounds(&self, i: usize) -> (f64, Option<f64>) {
        if self.edges.is_empty() {
            return (0.0, None);
        }
        if i == 0 {
            let first = self.edges.first().copied().unwrap_or(0.0);
            (0.0f64.min(first), Some(first))
        } else if i < self.edges.len() {
            (self.edges[i - 1], Some(self.edges[i]))
        } else {
            (self.edges[self.edges.len() - 1], None)
        }
    }
}

/// Log-spaced bucket edges for latency-in-microseconds histograms:
/// 1 µs … ~100 s in quarter-decade steps. Shared by the span timer
/// ([`crate::span`]), the manifest phase summaries, and the profiler so
/// their percentiles agree.
pub fn latency_edges_us() -> &'static [f64] {
    static EDGES: OnceLock<Vec<f64>> = OnceLock::new();
    EDGES.get_or_init(|| {
        (0..33)
            .map(|i| 10f64.powf(i as f64 / 4.0))
            .collect::<Vec<f64>>()
    })
}

/// Log-spaced bucket edges for count-valued histograms (items per
/// worker, cells per chunk, …): 1 … 10⁸ in half-decade steps. Counts of
/// zero land in the underflow bucket.
pub fn count_edges() -> &'static [f64] {
    static EDGES: OnceLock<Vec<f64>> = OnceLock::new();
    EDGES.get_or_init(|| {
        (0..17)
            .map(|i| 10f64.powf(i as f64 / 2.0))
            .collect::<Vec<f64>>()
    })
}

/// Histogram name under which a span's duration distribution is
/// registered: `span_us.<span name>`.
pub fn span_histogram_name(span: &str) -> String {
    format!("span_us.{span}")
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);

fn with_registry<R>(f: impl FnOnce(&mut Registry) -> R) -> R {
    let mut guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    f(guard.get_or_insert_with(Registry::default))
}

/// Add `delta` to the named counter (created at zero on first use).
pub fn counter_add(name: &str, delta: u64) {
    if !crate::enabled() {
        return;
    }
    with_registry(|r| r.counters.entry(name.to_string()).or_default().0 += delta);
}

/// Set the named gauge.
pub fn gauge_set(name: &str, value: f64) {
    if !crate::enabled() {
        return;
    }
    with_registry(|r| r.gauges.entry(name.to_string()).or_default().0 = value);
}

/// Observe `value` in the named histogram, creating it with `edges` on
/// first use (later calls may pass the same or empty edges; the first
/// registration wins).
pub fn histogram_observe(name: &str, edges: &[f64], value: f64) {
    if !crate::enabled() {
        return;
    }
    with_registry(|r| {
        r.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(edges))
            .observe(value);
    });
}

/// Snapshot of every metric, for the manifest and for tests.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
}

/// Take a snapshot of the registry.
pub fn snapshot() -> MetricsSnapshot {
    with_registry(|r| MetricsSnapshot {
        counters: r.counters.iter().map(|(k, v)| (k.clone(), v.0)).collect(),
        gauges: r.gauges.iter().map(|(k, v)| (k.clone(), v.0)).collect(),
        histograms: r.histograms.clone(),
    })
}

/// Clear all metrics (between runs in one process, and in tests).
pub fn reset() {
    *REGISTRY.lock().unwrap_or_else(|e| e.into_inner()) = None;
}
