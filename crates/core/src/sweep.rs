//! Deterministic parallel grid engine.
//!
//! [`run`] fans an item slice out over `std::thread::scope` worker
//! threads and collects the per-item results back **in index order**,
//! so the output is a pure function of the inputs — identical for any
//! job count, byte for byte (CI verifies this on the `xmodel sweep`
//! JSON output). Work is claimed chunk-by-chunk from an
//! atomic cursor — idle workers steal the next chunk — so uneven
//! per-item cost load-balances without scheduling-dependent output.
//!
//! The job count comes from (in order) an explicit argument, the
//! `XMODEL_JOBS` environment variable, or the number of available
//! cores; see [`default_jobs`]. Each run emits a `sweep.run` span, one
//! `sweep.chunk` span per claimed chunk and `sweep.items`/`sweep.chunks`
//! counters, so sweep concurrency is visible in `xmodel profile`. With
//! tracing enabled a run additionally publishes per-worker executor
//! metrics — `sweep.chunk_claims`, the `sweep.worker_cells` histogram,
//! and the `sweep.workers` / `sweep.utilization` / `sweep.imbalance`
//! gauges — gathered outside the result-collection path, so they cannot
//! perturb the byte-identical output.
//!
//! Each worker returns its `(start, results)` chunks and its tally
//! through its join handle, so collection takes no lock. A worker panic
//! is re-raised in the caller once the handles are joined.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Per-worker tallies of one run, filled in only while tracing is
/// enabled and published as `sweep.*` metrics after the join. The
/// result-collection path never reads these, so instrumentation cannot
/// perturb the byte-identical-output contract.
#[derive(Debug, Clone, Copy, Default)]
struct WorkerTally {
    cells: u64,
    claims: u64,
    busy: Duration,
}

/// Fold per-worker tallies into the `sweep.*` counters and gauges.
fn publish_tallies(jobs: usize, wall: Duration, tallies: &[WorkerTally]) {
    use xmodel_obs::metrics::{count_edges, counter_add, gauge_set, histogram_observe};
    use xmodel_obs::names::metric;
    let claims: u64 = tallies.iter().map(|t| t.claims).sum();
    counter_add(metric::SWEEP_CHUNK_CLAIMS, claims);
    for t in tallies {
        histogram_observe(metric::SWEEP_WORKER_CELLS, count_edges(), t.cells as f64);
    }
    gauge_set(metric::SWEEP_WORKERS, jobs as f64);
    let wall_s = wall.as_secs_f64();
    let busy: Vec<f64> = tallies.iter().map(|t| t.busy.as_secs_f64()).collect();
    let total: f64 = busy.iter().sum();
    if wall_s > 0.0 && jobs > 0 {
        gauge_set(
            metric::SWEEP_UTILIZATION,
            (total / (wall_s * jobs as f64)).clamp(0.0, 1.0),
        );
    }
    let max = busy.iter().fold(0.0f64, |m, &b| m.max(b));
    let min = busy.iter().fold(f64::INFINITY, |m, &b| m.min(b));
    gauge_set(
        metric::SWEEP_IMBALANCE,
        if max > 0.0 && min.is_finite() {
            ((max - min) / max).clamp(0.0, 1.0)
        } else {
            0.0
        },
    );
}

/// Environment variable overriding the default job count.
pub const JOBS_ENV: &str = "XMODEL_JOBS";

/// Chunks handed out per worker (on average): small enough to
/// load-balance uneven items, large enough to amortize claim overhead.
const CHUNKS_PER_JOB: usize = 4;

/// Job count from the `XMODEL_JOBS` environment variable, when set to a
/// positive integer (anything else is ignored).
pub fn env_jobs() -> Option<usize> {
    // xlint: allow(nondeterminism-in-result-path, job count only affects scheduling; chunk reassembly keeps output byte-identical for any value)
    std::env::var(JOBS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&jobs| jobs >= 1)
}

/// Default job count: `XMODEL_JOBS` when set, otherwise the number of
/// available cores (at least 1).
pub fn default_jobs() -> usize {
    env_jobs().unwrap_or_else(|| {
        // xlint: allow(nondeterminism-in-result-path, core count picks the worker pool size only; results are reassembled by chunk index)
        std::thread::available_parallelism()
            .map(|cores| cores.get())
            .unwrap_or(1)
    })
}

/// [`run`] with [`default_jobs`] workers.
// xlint: determinism-root
pub fn map<I, R, F>(items: &[I], op: F) -> Vec<R>
where
    I: Sync,
    R: Send,
    F: Fn(usize, &I) -> R + Sync,
{
    run(default_jobs(), items, op)
}

/// Evaluate `op(index, &item)` for every item using `jobs` worker
/// threads, returning the results in input order.
///
/// Every item is computed exactly once by the same pure call, and the
/// results are reassembled by chunk index — the job count affects
/// wall-clock time only, never the output.
// xlint: determinism-root
pub fn run<I, R, F>(jobs: usize, items: &[I], op: F) -> Vec<R>
where
    I: Sync,
    R: Send,
    F: Fn(usize, &I) -> R + Sync,
{
    let _span = xmodel_obs::span!(xmodel_obs::names::span::SWEEP_RUN);
    xmodel_obs::metrics::counter_add(xmodel_obs::names::metric::SWEEP_ITEMS, items.len() as u64);
    // Tally only while tracing is on: disabled runs pay a single relaxed
    // atomic load here and no `Instant::now` calls (PR 5 measured +44%
    // on `solver/solve` from unconditional counting).
    let instrument = xmodel_obs::enabled();
    // xlint: allow(nondeterminism-in-result-path, tracing-gated tally timer; result collection never reads it)
    let run_start = instrument.then(Instant::now);
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs == 1 {
        let _chunk = xmodel_obs::span!(xmodel_obs::names::span::SWEEP_CHUNK);
        xmodel_obs::metrics::counter_add(xmodel_obs::names::metric::SWEEP_CHUNKS, 1);
        let out: Vec<R> = items.iter().enumerate().map(|(i, it)| op(i, it)).collect();
        if let Some(t0) = run_start {
            let busy = t0.elapsed();
            let tally = WorkerTally {
                cells: items.len() as u64,
                claims: 1,
                busy,
            };
            publish_tallies(1, busy, &[tally]);
        }
        return out;
    }
    let chunk = items.len().div_ceil(jobs * CHUNKS_PER_JOB).max(1);
    let cursor = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        let mut tally = WorkerTally::default();
        loop {
            tally.claims += 1;
            let start = cursor.fetch_add(1, Ordering::Relaxed).saturating_mul(chunk);
            if start >= items.len() {
                break;
            }
            let _chunk_span = xmodel_obs::span!(xmodel_obs::names::span::SWEEP_CHUNK);
            // xlint: allow(nondeterminism-in-result-path, tracing-gated per-chunk timer; feeds sweep.* metrics only)
            let chunk_start = instrument.then(Instant::now);
            let end = (start + chunk).min(items.len());
            let out: Vec<R> = items[start..end]
                .iter()
                .enumerate()
                .map(|(off, it)| op(start + off, it))
                .collect();
            if let Some(t0) = chunk_start {
                tally.busy += t0.elapsed();
                tally.cells += (end - start) as u64;
            }
            xmodel_obs::metrics::counter_add(xmodel_obs::names::metric::SWEEP_CHUNKS, 1);
            done.push((start, out));
        }
        (done, tally)
    };
    let joined = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs).map(|_| scope.spawn(worker)).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect::<Vec<_>>()
    });
    if let Some(t0) = run_start {
        let tallies: Vec<WorkerTally> = joined.iter().map(|&(_, tally)| tally).collect();
        publish_tallies(jobs, t0.elapsed(), &tallies);
    }
    let mut chunks: Vec<_> = joined.into_iter().flat_map(|(done, _)| done).collect();
    chunks.sort_unstable_by_key(|&(start, _)| start);
    chunks
        .into_iter()
        .flat_map(|(_, results)| results)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_input_order_for_any_job_count() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items.iter().map(|&v| v * v).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let parallel = run(jobs, &items, |_, &v| v * v);
            assert_eq!(parallel, serial, "jobs = {jobs}");
        }
    }

    #[test]
    fn index_argument_matches_position() {
        let items = vec!["a", "b", "c", "d", "e"];
        let got = run(3, &items, |i, &s| format!("{i}:{s}"));
        assert_eq!(got, ["0:a", "1:b", "2:c", "3:d", "4:e"]);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(run(8, &empty, |_, &v| v).is_empty());
        assert_eq!(run(8, &[7u32], |_, &v| v + 1), [8]);
    }

    #[test]
    fn zero_jobs_is_clamped_to_one() {
        let items = [1u32, 2, 3];
        assert_eq!(run(0, &items, |_, &v| v), [1, 2, 3]);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn uneven_items_still_ordered() {
        // Make late items cheap and early items slow, so chunks finish
        // out of claim order.
        let items: Vec<u32> = (0..64).collect();
        let got = run(4, &items, |_, &v| {
            if v < 8 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            v
        });
        assert_eq!(got, items);
    }

    #[test]
    #[should_panic(expected = "item 5 failed")]
    fn worker_panic_reaches_the_caller() {
        let items: Vec<u32> = (0..64).collect();
        run(4, &items, |_, &v| {
            if v == 5 {
                panic!("item 5 failed");
            }
            v
        });
    }
}
