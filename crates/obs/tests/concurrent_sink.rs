//! Concurrency contract of the sink layer: many threads emitting spans
//! and events into one shared `JsonlSink` (a `FileSink` in spirit — a
//! buffered writer over one file) must produce valid, line-atomic JSONL
//! with nothing torn, interleaved, or lost.
//!
//! These tests drive the *global* pipeline (`install` + macros) the way
//! a multi-threaded sweep would, on `std::thread::scope` threads like
//! `core::sweep`'s.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

const THREADS: usize = 8;
const EVENTS_PER_THREAD: usize = 250;

// Tracing state is process-global; the two tests here must not overlap.
static GLOBAL_TRACE_LOCK: Mutex<()> = Mutex::new(());

/// A unique temp-file path per call (no tempfile crate in the tree).
fn temp_trace(tag: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    std::env::temp_dir().join(format!(
        "xmodel-obs-{tag}-{}-{}.jsonl",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

#[test]
fn concurrent_writers_produce_line_atomic_jsonl() {
    let _guard = GLOBAL_TRACE_LOCK.lock().unwrap();
    let path = temp_trace("concurrent");
    xmodel_obs::init_jsonl(&path).expect("create trace file");

    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            scope.spawn(move || {
                for i in 0..EVENTS_PER_THREAD {
                    let _span = xmodel_obs::span!("worker.step");
                    xmodel_obs::event!(
                        "worker.tick",
                        thread = thread as u64,
                        i = i as u64,
                        // A value that would corrupt neighbours if lines tore.
                        payload = "quote\" backslash\\ and\nnewline",
                    );
                    xmodel_obs::metrics::counter_add("worker.ticks", 1);
                }
            });
        }
    });

    let manifest = xmodel_obs::manifest::RunManifest::collect(
        "concurrent-test",
        std::collections::BTreeMap::new(),
        None,
    );
    assert_eq!(
        manifest.counters.get("worker.ticks"),
        Some(&((THREADS * EVENTS_PER_THREAD) as u64)),
        "counter updates lost under contention"
    );
    xmodel_obs::finish(Some(&manifest));

    let text = std::fs::read_to_string(&path).expect("read trace back");
    std::fs::remove_file(&path).ok();

    let mut ticks = 0usize;
    let mut spans = 0usize;
    let mut manifests = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let value = xmodel_obs::json::parse(line)
            .unwrap_or_else(|e| panic!("line {} not valid JSON ({e}): {line}", lineno + 1));
        match value
            .get("kind")
            .and_then(xmodel_obs::json::JsonValue::as_str)
        {
            Some("worker.tick") => ticks += 1,
            Some("span") => spans += 1,
            Some("run_manifest") => manifests += 1,
            other => panic!("unexpected kind {other:?} on line {}", lineno + 1),
        }
    }
    assert_eq!(ticks, THREADS * EVENTS_PER_THREAD, "events lost or torn");
    assert_eq!(spans, THREADS * EVENTS_PER_THREAD, "span events lost");
    assert_eq!(manifests, 1);
}

#[test]
fn concurrent_histogram_observations_are_not_lost() {
    let _guard = GLOBAL_TRACE_LOCK.lock().unwrap();
    let path = temp_trace("hist");
    xmodel_obs::init_jsonl(&path).expect("create trace file");

    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for i in 0..EVENTS_PER_THREAD {
                    xmodel_obs::metrics::histogram_observe(
                        "latency",
                        &[1.0, 10.0, 100.0],
                        i as f64,
                    );
                }
            });
        }
    });

    let snap = xmodel_obs::metrics::snapshot();
    xmodel_obs::finish(None);
    std::fs::remove_file(&path).ok();

    let h = &snap.histograms["latency"];
    assert_eq!(h.count, (THREADS * EVENTS_PER_THREAD) as u64);
    assert_eq!(h.counts.iter().sum::<u64>(), h.count);
}
