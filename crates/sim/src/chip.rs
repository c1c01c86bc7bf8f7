//! Chip-level simulation: several SMs sharing one DRAM channel.
//!
//! The paper (and `xmodel-core`) normalizes everything per SM, giving each
//! SM a static `1/N` share of chip bandwidth. This module is the ablation
//! of that assumption: N simulated SMs contend for a single DRAM channel,
//! so an SM running a memory-hungry kernel can *steal* bandwidth from an
//! SM running a compute-heavy one — the effect the static partition
//! cannot express. Homogeneous chips validate the partition (each SM gets
//! ≈ 1/N); heterogeneous chips quantify its error.

use crate::config::{SimConfig, SimWorkload};
use crate::dram::Dram;
use crate::mem::{TAG_SM_BITS, TAG_SM_SHIFT};
use crate::run::Driver;
use crate::sm::Sm;
use crate::stats::SimStats;
use std::cell::RefCell;
use std::rc::Rc;

/// Most SMs one chip holds: shared DRAM tags carry the SM id in
/// `TAG_SM_BITS` bits, so ids run from 0 to 32,767.
const MAX_SMS: usize = 1 << TAG_SM_BITS;

/// A multi-SM chip sharing one DRAM channel.
///
/// ## Example
///
/// ```
/// use xmodel_sim::prelude::*;
/// use xmodel_workloads::TraceSpec;
///
/// let cfg = SimConfig::builder().lanes(4.0).dram(400, 8.0).build();
/// let wl = SimWorkload {
///     trace: TraceSpec::Stream { region_lines: 1 << 20 },
///     ops_per_request: 10.0,
///     ilp: 1.0,
///     warps: 16,
/// };
/// // Four SMs share a channel of 4x the per-SM bandwidth.
/// let stats = simulate_chip(&cfg, &wl, 4, 32.0, 2_000, 8_000);
/// assert_eq!(stats.len(), 4);
/// ```
pub struct ChipSim {
    sms: Vec<Sm>,
    shared: Rc<RefCell<Dram>>,
    cycle: u64,
    route_buf: Vec<u64>,
    inboxes: Vec<Vec<u64>>,
}

impl ChipSim {
    /// Build a chip of `(config, workload)` pairs — one per SM — sharing a
    /// DRAM channel of `chip_bytes_per_cycle` total bandwidth and the
    /// latency of the first SM's DRAM configuration.
    ///
    /// Each SM's own `dram.bytes_per_cycle` is ignored; L1/L2 stages stay
    /// private per SM.
    ///
    /// # Panics
    ///
    /// With no nodes, more than 32,768 of them (the SM id field of a
    /// shared DRAM tag), or a non-positive bandwidth.
    pub fn new(nodes: &[(SimConfig, SimWorkload)], chip_bytes_per_cycle: f64, seed: u64) -> Self {
        assert!(!nodes.is_empty(), "need at least one SM");
        assert!(
            nodes.len() <= MAX_SMS,
            "{} SMs exceed the {}-bit SM id field of shared DRAM tags",
            nodes.len(),
            TAG_SM_BITS
        );
        assert!(chip_bytes_per_cycle > 0.0);
        let latency = nodes.first().map_or(0, |(cfg, _)| cfg.dram.latency);
        let shared = Rc::new(RefCell::new(Dram::new(crate::config::DramConfig {
            latency,
            bytes_per_cycle: chip_bytes_per_cycle,
        })));
        let sms = nodes
            .iter()
            .enumerate()
            .map(|(i, (cfg, wl))| {
                let mut sm = Sm::new(cfg, wl, seed ^ (i as u64).wrapping_mul(0x9E37_79B9));
                sm.attach_shared_dram(Rc::clone(&shared), i as u16);
                sm
            })
            .collect::<Vec<_>>();
        let n = sms.len();
        Self {
            sms,
            shared,
            cycle: 0,
            route_buf: Vec::new(),
            inboxes: vec![Vec::new(); n],
        }
    }

    /// Number of SMs.
    pub fn sm_count(&self) -> usize {
        self.sms.len()
    }

    /// Advance the whole chip one cycle.
    pub fn step(&mut self) {
        // Route shared-DRAM completions to their SMs.
        self.route_buf.clear();
        self.shared
            .borrow_mut()
            .drain_completions(self.cycle, &mut self.route_buf);
        for inbox in &mut self.inboxes {
            inbox.clear();
        }
        let sm_mask = ((1u64 << TAG_SM_BITS) - 1) << TAG_SM_SHIFT;
        for &tag in &self.route_buf {
            let sm = ((tag & sm_mask) >> TAG_SM_SHIFT) as usize;
            // Strip the SM bits; the direct-wake bit lies above them.
            self.inboxes[sm].push(tag & !sm_mask);
        }
        for (sm, inbox) in self.sms.iter_mut().zip(&self.inboxes) {
            sm.step_with(inbox);
        }
        self.cycle += 1;
    }

    /// Run `warmup` unmeasured cycles then `measure` measured ones and
    /// return per-SM statistics.
    // xlint: determinism-root
    pub fn run(&mut self, warmup: u64, measure: u64) -> Vec<SimStats> {
        crate::run::run(self, xmodel_obs::names::span::SIM_CHIP, warmup, measure);
        self.sms.iter().map(|s| s.stats().clone()).collect()
    }

    /// Aggregate chip MS throughput (requests/cycle across all SMs).
    pub fn total_ms_throughput(stats: &[SimStats]) -> f64 {
        stats.iter().map(SimStats::ms_throughput).sum()
    }
}

impl Driver for ChipSim {
    fn measure(&mut self, on: bool) {
        for sm in &mut self.sms {
            sm.set_measuring(on);
        }
    }

    fn advance(&mut self, _most: u64) -> u64 {
        self.step();
        1
    }

    fn completed(&self) -> u64 {
        self.sms.iter().map(Sm::completed).sum()
    }
}

/// Convenience: homogeneous chip of `n_sms` identical SMs.
pub fn simulate_chip(
    cfg: &SimConfig,
    wl: &SimWorkload,
    n_sms: usize,
    chip_bytes_per_cycle: f64,
    warmup: u64,
    measure: u64,
) -> Vec<SimStats> {
    let nodes: Vec<_> = (0..n_sms).map(|_| (*cfg, *wl)).collect();
    ChipSim::new(&nodes, chip_bytes_per_cycle, 42).run(warmup, measure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmodel_workloads::TraceSpec;

    fn stream_wl(warps: u32, z: f64) -> SimWorkload {
        SimWorkload {
            trace: TraceSpec::Stream {
                region_lines: 1 << 22,
            },
            ops_per_request: z,
            ilp: 1.0,
            warps,
        }
    }

    fn cfg() -> SimConfig {
        SimConfig::builder()
            .lanes(4.0)
            .issue_width(4)
            .lsu(2)
            .dram(400, 8.0)
            .build()
    }

    #[test]
    fn homogeneous_chip_matches_static_partition() {
        // 4 memory-bound SMs sharing 32 B/cyc: each should get ~8 B/cyc =
        // 1/16 req/cyc — the paper's per-SM normalization assumption.
        let stats = simulate_chip(&cfg(), &stream_wl(32, 2.0), 4, 32.0, 20_000, 40_000);
        assert_eq!(stats.len(), 4);
        let share = 8.0 / 128.0;
        for (i, s) in stats.iter().enumerate() {
            assert!(
                (s.ms_throughput() - share).abs() < 0.15 * share,
                "SM{i}: {} vs {share}",
                s.ms_throughput()
            );
        }
        let total = ChipSim::total_ms_throughput(&stats);
        assert!((total - 4.0 * share).abs() < 0.1 * 4.0 * share);
    }

    #[test]
    fn heterogeneous_chip_steals_bandwidth() {
        // One memory-hungry SM + three compute-heavy SMs: the hungry SM
        // must exceed its static 1/4 share — the partition's error case.
        let hungry = (cfg(), stream_wl(48, 2.0));
        let compute = (cfg(), stream_wl(48, 400.0));
        let nodes = vec![hungry, compute, compute, compute];
        let stats = ChipSim::new(&nodes, 32.0, 7).run(20_000, 40_000);
        let share = 8.0 / 128.0; // static quarter
        assert!(
            stats[0].ms_throughput() > 1.5 * share,
            "hungry SM got {} (static share {share})",
            stats[0].ms_throughput()
        );
        // And the chip channel is the binding resource overall.
        let total = ChipSim::total_ms_throughput(&stats);
        assert!(total <= 32.0 / 128.0 + 1e-6);
    }

    #[test]
    fn single_sm_chip_equals_standalone() {
        let wl = stream_wl(24, 10.0);
        let chip = simulate_chip(&cfg(), &wl, 1, 8.0, 10_000, 30_000);
        let solo = crate::sm::simulate(&cfg(), &wl, 10_000, 30_000);
        // Same configuration, same seed handling differences only in the
        // seed mix: throughput should agree closely.
        assert!(
            (chip[0].ms_throughput() - solo.ms_throughput()).abs() < 0.05 * solo.ms_throughput(),
            "chip {} vs solo {}",
            chip[0].ms_throughput(),
            solo.ms_throughput()
        );
    }

    #[test]
    fn chip_is_deterministic() {
        let wl = stream_wl(16, 5.0);
        let a = simulate_chip(&cfg(), &wl, 2, 16.0, 5_000, 10_000);
        let b = simulate_chip(&cfg(), &wl, 2, 16.0, 5_000, 10_000);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "SM id field")]
    fn sm_ids_past_the_tag_field_are_rejected() {
        // Id 32,768 would set the direct-wake bit and route its fills to
        // SM 0; the assertion fires before any SM is built.
        let nodes = vec![(cfg(), stream_wl(1, 10.0)); MAX_SMS + 1];
        ChipSim::new(&nodes, 8.0, 1);
    }

    #[test]
    fn thread_conservation_per_sm() {
        let stats = simulate_chip(&cfg(), &stream_wl(20, 10.0), 3, 24.0, 5_000, 10_000);
        for s in &stats {
            assert!((s.avg_k() + s.avg_x() - 20.0).abs() < 1e-9);
        }
    }
}
