//! Simulation counters and derived observables.

use serde::{Deserialize, Serialize};

/// Everything measured during the post-warm-up window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimStats {
    /// Measured cycles (excludes warm-up).
    pub cycles: u64,
    /// Warp-operations retired by CS.
    pub ops_retired: f64,
    /// Warp memory requests completed (data returned to a warp).
    pub requests_completed: u64,
    /// Bytes delivered to warps (`requests × line bytes`).
    pub bytes_delivered: u64,
    /// L1 hits observed during measurement.
    pub l1_hits: u64,
    /// L1 misses (fresh MSHR allocations).
    pub l1_misses: u64,
    /// Secondary misses merged onto an existing MSHR.
    pub l1_merges: u64,
    /// Issue attempts rejected because every MSHR was busy.
    pub mshr_stalls: u64,
    /// Completions absorbed because their target was not waiting — a
    /// duplicated or stale delivery under fault injection (always 0 in a
    /// fault-free run).
    pub spurious_wakes: u64,
    /// Lost (dropped-completion) requests re-submitted by the recovery
    /// sweep under fault injection.
    pub lost_recovered: u64,
    /// Σ over cycles of warps resident in MS (issuing/waiting/stalled).
    pub sum_k: f64,
    /// Σ over cycles of warps resident in CS.
    pub sum_x: f64,
    /// `(cycle, k)` samples of the spatial state, one per sample interval.
    pub trajectory: Vec<(u64, u32)>,
    /// Histogram of the instantaneous `k` (index = k, value = cycles).
    pub k_histogram: Vec<u64>,
}

impl SimStats {
    /// New empty stats for `warps` resident warps.
    pub fn new(warps: u32) -> Self {
        Self {
            cycles: 0,
            ops_retired: 0.0,
            requests_completed: 0,
            bytes_delivered: 0,
            l1_hits: 0,
            l1_misses: 0,
            l1_merges: 0,
            mshr_stalls: 0,
            spurious_wakes: 0,
            lost_recovered: 0,
            sum_k: 0.0,
            sum_x: 0.0,
            trajectory: Vec::new(),
            k_histogram: vec![0; warps as usize + 1],
        }
    }

    /// MS throughput in requests per cycle.
    pub fn ms_throughput(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.requests_completed as f64 / self.cycles as f64
        }
    }

    /// CS throughput in warp-ops per cycle.
    pub fn cs_throughput(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.ops_retired / self.cycles as f64
        }
    }

    /// Mean number of warps in MS (the spatial state the model predicts).
    pub fn avg_k(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.sum_k / self.cycles as f64
        }
    }

    /// Mean number of warps in CS.
    pub fn avg_x(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.sum_x / self.cycles as f64
        }
    }

    /// L1 hit rate over the measurement window (0 when no L1 traffic).
    pub fn hit_rate(&self) -> f64 {
        let total = self.l1_hits + self.l1_misses + self.l1_merges;
        if total == 0 {
            0.0
        } else {
            self.l1_hits as f64 / total as f64
        }
    }

    /// Most frequently observed `k` (mode of the spatial-state histogram).
    pub fn mode_k(&self) -> u32 {
        self.k_histogram
            .iter()
            .enumerate()
            .fold(
                (0usize, 0u64),
                |best, (k, &c)| {
                    if c > best.1 {
                        (k, c)
                    } else {
                        best
                    }
                },
            )
            .0 as u32
    }
}

/// One consistent sample of the monotone counters the simtrace probe
/// layer ([`crate::probe`]) differences per frame. Keeping the sampling
/// in one method means a counter cannot be added to the probe stream
/// without being added here, and the probe side never touches the stats
/// fields directly.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct ProbeCounters {
    pub cycles: u64,
    pub ops: f64,
    pub requests: u64,
    pub hits: u64,
    pub misses: u64,
    pub merges: u64,
    pub mshr_stalls: u64,
}

impl ProbeCounters {
    /// Per-frame delta against the previous sample. Counters are
    /// monotone during a run, so plain subtraction is exact; saturating
    /// keeps a (hypothetical) reset from underflowing.
    pub(crate) fn delta(&self, prev: &ProbeCounters) -> ProbeCounters {
        ProbeCounters {
            cycles: self.cycles.saturating_sub(prev.cycles),
            ops: (self.ops - prev.ops).max(0.0),
            requests: self.requests.saturating_sub(prev.requests),
            hits: self.hits.saturating_sub(prev.hits),
            misses: self.misses.saturating_sub(prev.misses),
            merges: self.merges.saturating_sub(prev.merges),
            mshr_stalls: self.mshr_stalls.saturating_sub(prev.mshr_stalls),
        }
    }
}

impl SimStats {
    /// Count one measured cycle that retired `retired` warp-ops with `k`
    /// of its `n` warps in MS.
    pub(crate) fn count_cycle(&mut self, retired: f64, k: usize, n: usize) {
        self.cycles += 1;
        self.ops_retired += retired;
        self.sum_k += k as f64;
        self.sum_x += (n - k) as f64;
        self.k_histogram[k] += 1;
    }

    /// Sample every counter the probe layer differences, in one read.
    pub(crate) fn probe_counters(&self) -> ProbeCounters {
        ProbeCounters {
            cycles: self.cycles,
            ops: self.ops_retired,
            requests: self.requests_completed,
            hits: self.l1_hits,
            misses: self.l1_misses,
            merges: self.l1_merges,
            mshr_stalls: self.mshr_stalls,
        }
    }
}

impl std::fmt::Display for SimStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MS {:.4} req/cyc, CS {:.4} ops/cyc, k/x = {:.1}/{:.1}, L1 hit {:.2} ({} stalls) over {} cycles",
            self.ms_throughput(),
            self.cs_throughput(),
            self.avg_k(),
            self.avg_x(),
            self.hit_rate(),
            self.mshr_stalls,
            self.cycles
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zero() {
        let s = SimStats::new(8);
        assert_eq!(s.ms_throughput(), 0.0);
        assert_eq!(s.cs_throughput(), 0.0);
        assert_eq!(s.avg_k(), 0.0);
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.mode_k(), 0);
        assert_eq!(s.k_histogram.len(), 9);
    }

    #[test]
    fn derived_rates() {
        let mut s = SimStats::new(4);
        s.cycles = 100;
        s.requests_completed = 25;
        s.ops_retired = 300.0;
        s.sum_k = 150.0;
        s.sum_x = 250.0;
        s.l1_hits = 30;
        s.l1_misses = 10;
        assert!((s.ms_throughput() - 0.25).abs() < 1e-12);
        assert!((s.cs_throughput() - 3.0).abs() < 1e-12);
        assert!((s.avg_k() - 1.5).abs() < 1e-12);
        assert!((s.avg_x() - 2.5).abs() < 1e-12);
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn display_summarizes() {
        let mut s = SimStats::new(4);
        s.cycles = 100;
        s.requests_completed = 25;
        s.ops_retired = 300.0;
        let text = s.to_string();
        assert!(text.contains("MS 0.2500"));
        assert!(text.contains("100 cycles"));
    }

    #[test]
    fn mode_of_histogram() {
        let mut s = SimStats::new(4);
        s.k_histogram = vec![1, 5, 9, 2, 0];
        assert_eq!(s.mode_k(), 2);
    }
}
