//! Write side of the `xmodel-simtrace/1` timeline probes.
//!
//! Both simulators ([`crate::sm::Sm`] and [`crate::exec::IrSm`]) sample
//! their warp-state occupancy and memory-subsystem depth once per
//! snapshot interval while measuring, through [`ProbeCursor::sample`].
//! This module turns those samples into `sim.snapshot`, `sim.probe` and
//! `sim.probe_header` trace events plus the registered `sim.*` metrics,
//! and owns the only mutable probe state — a cursor of previously
//! sampled counters used to emit per-interval deltas.
//!
//! Determinism contract: everything here *reads* simulator state. The
//! cursor is written only from inside `xmodel_obs::enabled()` blocks and
//! is never consulted by the simulation path, so enabling tracing cannot
//! perturb results (`crates/sim/tests/determinism.rs` pins this).

use crate::stats::{ProbeCounters, SimStats};

/// Cycle period of `sim.snapshot` trace events when tracing is live and
/// no explicit `trajectory_interval` is set.
pub(crate) const SNAPSHOT_INTERVAL: u64 = 256;

/// Per-SM probe cursor: lazily emits the header, then differences the
/// monotone counters between frames.
#[derive(Debug, Clone)]
pub(crate) struct ProbeCursor {
    /// SM index (0 for single-SM runs; set by the chip driver).
    pub sm: u16,
    /// Resident warps `n`.
    warps: u32,
    /// RNG seed the SM was built with.
    seed: u64,
    // Compute intensity `z` (warp-ops per request) and ILP width `e`.
    z: f64,
    e: f64,
    header_emitted: bool,
    prev: ProbeCounters,
}

impl ProbeCursor {
    /// The cursor of SM 0 running `warps` warps of intensity `z` and ILP
    /// `e`, built with `seed`.
    pub(crate) fn new(warps: u32, seed: u64, z: f64, e: f64) -> Self {
        Self {
            sm: 0,
            warps,
            seed,
            z,
            e,
            header_emitted: false,
            prev: ProbeCounters::default(),
        }
    }

    /// Sample measured cycle `now` of a run sampled every `interval`
    /// cycles: emit its `sim.snapshot` event, then its probe frame (and,
    /// on the first call, the header). `counts` holds the warps
    /// computing, queued, waiting and stalled, `k` of them in MS; `depth`
    /// is the memory side's [`crate::mem::MemSide::depth`]. Call only
    /// under `xmodel_obs::enabled()` while measuring.
    pub(crate) fn sample(
        &mut self,
        interval: u64,
        now: u64,
        counts: [u32; 4],
        k: u32,
        (mshrs_busy, dram_inflight, dram_backlog): (usize, usize, u64),
        stats: &SimStats,
    ) {
        use xmodel_obs::names::metric;
        xmodel_obs::event!(
            "sim.snapshot",
            cycle = now,
            k = k,
            x = self.warps - k,
            mshrs_busy = mshrs_busy,
            dram_inflight = dram_inflight,
            dram_backlog = dram_backlog,
            hit_rate = stats.hit_rate(),
        );
        if !self.header_emitted {
            self.header_emitted = true;
            xmodel_obs::event!(
                "sim.probe_header",
                schema = xmodel_obs::simtrace::SCHEMA,
                sm = self.sm,
                interval = interval,
                warps = self.warps,
                seed = self.seed,
                z = self.z,
                e = self.e,
            );
        }
        let [computing, queued, waiting, stalled] = counts;
        let now_counters = stats.probe_counters();
        let d = now_counters.delta(&self.prev);
        self.prev = now_counters;
        xmodel_obs::event!(
            "sim.probe",
            cycle = now,
            sm = self.sm,
            computing = computing,
            queued = queued,
            waiting = waiting,
            stalled = stalled,
            k = k,
            dram_inflight = dram_inflight as u64,
            dram_backlog = dram_backlog,
            d_cycles = d.cycles,
            d_ops = d.ops,
            d_requests = d.requests,
            d_hits = d.hits,
            d_misses = d.misses,
            d_merges = d.merges,
            d_mshr_stalls = d.mshr_stalls,
            hit_rate = stats.hit_rate(),
        );
        xmodel_obs::metrics::counter_add(metric::SIM_PROBE_FRAMES, 1);
        if d.mshr_stalls > 0 {
            xmodel_obs::metrics::counter_add(metric::SIM_MSHR_STALLS, d.mshr_stalls);
        }
        xmodel_obs::metrics::histogram_observe(
            metric::SIM_DRAM_INFLIGHT,
            &xmodel_obs::simtrace::QUEUE_DEPTH_EDGES,
            dram_inflight as f64,
        );
        xmodel_obs::metrics::histogram_observe(
            metric::SIM_DRAM_BACKLOG,
            &xmodel_obs::simtrace::QUEUE_DEPTH_EDGES,
            dram_backlog as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_differences_counters_and_emits_header_once() {
        let sink = xmodel_obs::MemSink::new();
        xmodel_obs::install(Box::new(sink.clone()));
        let mut cursor = ProbeCursor::new(8, 42, 10.0, 1.5);
        cursor.sm = 3;
        let mut stats = SimStats::new(8);
        stats.cycles = 256;
        stats.ops_retired = 100.0;
        stats.requests_completed = 10;
        cursor.sample(256, 256, [5, 1, 2, 0], 3, (0, 4, 7), &stats);
        stats.cycles = 512;
        stats.ops_retired = 180.0;
        stats.requests_completed = 19;
        cursor.sample(256, 512, [5, 1, 2, 0], 3, (0, 4, 7), &stats);
        let lines = sink.lines();
        xmodel_obs::finish(None);
        // The sink is process-global and other tests may simulate while
        // it is installed; key every assertion on this test's sm id.
        let headers: Vec<_> = lines
            .iter()
            .filter(|l| l.contains("\"kind\":\"sim.probe_header\"") && l.contains("\"sm\":3"))
            .collect();
        assert_eq!(headers.len(), 1, "header emitted exactly once");
        assert!(headers[0].contains("xmodel-simtrace/1"));
        let frames: Vec<_> = lines
            .iter()
            .filter(|l| l.contains("\"kind\":\"sim.probe\"") && l.contains("\"sm\":3"))
            .collect();
        assert_eq!(frames.len(), 2);
        // First frame deltas are totals since measuring started; the
        // second differences against the first sample.
        assert!(frames[0].contains("\"d_requests\":10"));
        assert!(frames[1].contains("\"d_requests\":9"));
        assert!(frames[1].contains("\"d_cycles\":256"));
    }
}
