//! DRAM model: fixed service latency plus a bandwidth token bucket.
//!
//! A request accepted at cycle `t` completes at
//! `max(t, channel_free) + latency`, and the channel-free pointer advances
//! by `bytes / bytes_per_cycle`. This reproduces the two regimes of the
//! model's `L_m = max{L, k/R}` (Eq. 4): latency-bound while the channel is
//! underutilized, bandwidth-bound (queueing) once it saturates.

use crate::config::DramConfig;
use crate::fault::{FaultCounters, FaultInjector};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Opaque tag the caller attaches to each request (MSHR index, warp id…).
pub type Tag = u64;

/// The DRAM channel.
#[derive(Debug)]
pub struct Dram {
    cfg: DramConfig,
    /// Next cycle at which the channel can accept a new transfer, in
    /// fixed-point 1/256 cycles to honour fractional bytes/cycle rates.
    channel_free_fp: u64,
    /// Pending completions: (complete_cycle, tag).
    pending: BinaryHeap<Reverse<(u64, Tag)>>,
    /// Total requests accepted.
    accepted: u64,
    /// Total bytes transferred.
    bytes: u64,
    /// Optional fault injector perturbing latency, bandwidth and
    /// completion delivery (see [`crate::fault`]).
    faults: Option<FaultInjector>,
}

const FP: u64 = 256;

impl Dram {
    /// Build from a configuration.
    pub fn new(cfg: DramConfig) -> Self {
        assert!(cfg.bytes_per_cycle > 0.0);
        Self {
            cfg,
            channel_free_fp: 0,
            pending: BinaryHeap::new(),
            accepted: 0,
            bytes: 0,
            faults: None,
        }
    }

    /// Install a fault injector; subsequent submissions may spike, drop,
    /// duplicate or throttle (deterministically, per the injector's seed).
    pub fn set_faults(&mut self, injector: FaultInjector) {
        self.faults = Some(injector);
    }

    /// Faults injected so far, if an injector is installed.
    pub fn fault_counters(&self) -> Option<FaultCounters> {
        self.faults.as_ref().map(FaultInjector::counters)
    }

    /// Submit a request of `bytes` at cycle `now`; returns its completion
    /// cycle. The channel serializes transfers at the configured bandwidth.
    pub fn submit(&mut self, now: u64, bytes: u64, tag: Tag) -> u64 {
        let mut latency = self.cfg.latency;
        let mut bandwidth = self.cfg.bytes_per_cycle;
        let mut lose = false;
        let mut duplicate = false;
        if let Some(inj) = self.faults.as_mut() {
            if let Some(factor) = inj.throttle(now) {
                bandwidth = (bandwidth * factor).max(1e-6);
            }
            if let Some(factor) = inj.spike() {
                latency = ((latency as f64) * factor).ceil() as u64;
            }
            lose = inj.drop_completion();
            duplicate = !lose && inj.duplicate_completion();
        }
        let now_fp = now * FP;
        let start_fp = self.channel_free_fp.max(now_fp);
        let dur_fp = ((bytes as f64 / bandwidth) * FP as f64).ceil() as u64;
        self.channel_free_fp = start_fp + dur_fp;
        let complete = (start_fp + dur_fp).div_ceil(FP) + latency;
        // A dropped completion still consumed channel time; it just never
        // comes back. A duplicated one comes back twice, one cycle apart.
        if !lose {
            self.pending.push(Reverse((complete, tag)));
            if duplicate {
                self.pending.push(Reverse((complete + 1, tag)));
            }
        }
        self.accepted += 1;
        self.bytes += bytes;
        complete
    }

    /// Pop all requests completing at or before `now`.
    pub fn drain_completions(&mut self, now: u64, out: &mut Vec<Tag>) {
        while let Some(&Reverse((t, tag))) = self.pending.peek() {
            if t > now {
                break;
            }
            self.pending.pop();
            out.push(tag);
        }
    }

    /// The earliest pending completion cycle, if any request is in flight.
    pub fn next_completion(&self) -> Option<u64> {
        self.pending.peek().map(|&Reverse((t, _))| t)
    }

    /// Requests in flight.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// `(accepted requests, bytes)` counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.accepted, self.bytes)
    }

    /// The earliest cycle the channel could accept a new transfer.
    pub fn channel_free(&self) -> u64 {
        self.channel_free_fp.div_ceil(FP)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram(latency: u64, bw: f64) -> Dram {
        Dram::new(DramConfig {
            latency,
            bytes_per_cycle: bw,
        })
    }

    #[test]
    fn single_request_completes_after_latency() {
        let mut d = dram(100, 128.0);
        let t = d.submit(10, 128, 1);
        // 1 cycle transfer + 100 latency.
        assert_eq!(t, 111);
        let mut out = Vec::new();
        d.drain_completions(110, &mut out);
        assert!(out.is_empty());
        d.drain_completions(111, &mut out);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn bandwidth_serializes_back_to_back() {
        // 8 bytes/cycle: each 128-byte request occupies 16 cycles.
        let mut d = dram(100, 8.0);
        let t1 = d.submit(0, 128, 1);
        let t2 = d.submit(0, 128, 2);
        let t3 = d.submit(0, 128, 3);
        assert_eq!(t1, 116);
        assert_eq!(t2, 132);
        assert_eq!(t3, 148);
    }

    #[test]
    fn idle_channel_resets_queueing() {
        let mut d = dram(100, 8.0);
        let _ = d.submit(0, 128, 1);
        // Long gap: the second request sees no queueing.
        let t2 = d.submit(1000, 128, 2);
        assert_eq!(t2, 1116);
    }

    #[test]
    fn fractional_bandwidth_accumulates() {
        // 6.4 bytes/cycle: a 128-byte transfer takes 20 cycles.
        let mut d = dram(0, 6.4);
        let t1 = d.submit(0, 128, 1);
        assert_eq!(t1, 20);
        let t2 = d.submit(0, 128, 2);
        assert_eq!(t2, 40);
    }

    #[test]
    fn sustained_rate_matches_bandwidth() {
        let mut d = dram(200, 8.0);
        for i in 0..1000 {
            d.submit(0, 128, i);
        }
        // Last completion ≈ 1000 * 16 + 200.
        let mut out = Vec::new();
        d.drain_completions(1000 * 16 + 200, &mut out);
        assert_eq!(out.len(), 1000);
        let (req, bytes) = d.counters();
        assert_eq!(req, 1000);
        assert_eq!(bytes, 128_000);
    }

    #[test]
    fn dropped_completions_never_return() {
        use crate::fault::{FaultInjector, FaultSpec};
        let mut d = dram(10, 128.0);
        d.set_faults(FaultInjector::new(
            &FaultSpec::parse("seed=1,drop=1").unwrap(),
        ));
        d.submit(0, 128, 1);
        d.submit(0, 128, 2);
        let mut out = Vec::new();
        d.drain_completions(u64::MAX / 2, &mut out);
        assert!(out.is_empty());
        assert_eq!(d.fault_counters().unwrap().drops, 2);
    }

    #[test]
    fn duplicated_completions_return_twice() {
        use crate::fault::{FaultInjector, FaultSpec};
        let mut d = dram(10, 128.0);
        d.set_faults(FaultInjector::new(
            &FaultSpec::parse("seed=1,dup=1").unwrap(),
        ));
        d.submit(0, 128, 7);
        let mut out = Vec::new();
        d.drain_completions(1_000, &mut out);
        assert_eq!(out, vec![7, 7]);
        assert_eq!(d.fault_counters().unwrap().dups, 1);
    }

    #[test]
    fn spike_and_throttle_stretch_timing() {
        use crate::fault::{FaultInjector, FaultSpec};
        // Always-spike ×4: 1 cycle transfer + 400 latency.
        let mut d = dram(100, 128.0);
        d.set_faults(FaultInjector::new(
            &FaultSpec::parse("seed=1,spike=1x4").unwrap(),
        ));
        assert_eq!(d.submit(10, 128, 1), 411);
        // Permanent throttle to 1/4 bandwidth: 4-cycle transfer.
        let mut t = dram(100, 128.0);
        t.set_faults(FaultInjector::new(
            &FaultSpec::parse("seed=1,throttle=1000:1:0.25").unwrap(),
        ));
        assert_eq!(t.submit(0, 128, 1), 104);
    }

    #[test]
    fn completions_drain_in_time_order() {
        let mut d = dram(10, 128.0);
        d.submit(0, 128, 3);
        d.submit(5, 128, 7);
        let mut out = Vec::new();
        d.drain_completions(100, &mut out);
        assert_eq!(out, vec![3, 7]);
    }
}
