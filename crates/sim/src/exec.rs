//! IR-driven simulation: execute a `xmodel-isa` kernel directly.
//!
//! The parametric [`crate::Sm`] abstracts a kernel to `(Z, E)` — exactly
//! the abstraction the analytic model makes. This module is the ablation
//! of that abstraction: warps fetch the *actual instruction stream*,
//! issue it in its dual-issue groups, stall on global memory, take a
//! fixed-latency shared-memory path for `LDS`/`STS`, and synchronize at
//! `BAR` barriers with the other warps of their thread block — behaviour
//! the scalar `(Z, E)` pair cannot express (visible in the `nw`/`lud`
//! workloads). Comparing the two modes quantifies what the paper's
//! three-parameter application abstraction loses. Below the warps, it
//! shares [`crate::Sm`]'s memory system, fault recovery included.

use crate::config::SimConfig;
use crate::mem::MemSide;
use crate::probe::{ProbeCursor, SNAPSHOT_INTERVAL};
use crate::stats::SimStats;
use crate::{FaultCounters, FaultSpec, SimError, Watchdog};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use xmodel_isa::{Kernel, MemSpace, OpClass, Opcode};
use xmodel_workloads::{AddressStream, TraceSpec};

/// Cycles an `LDS`/`STS` access keeps a warp waiting.
const SMEM_LATENCY: u64 = 24;

/// A warp's state, in the order the probe counts them: computing,
/// queued, waiting, stalled.
#[derive(Debug, Clone, Copy, PartialEq)]
enum WarpState {
    /// Executing instructions.
    Running,
    /// Parked at a barrier until the block arrives.
    AtBarrier,
    /// Waiting for a memory return (global or shared path).
    Waiting,
    /// Memory request rejected (MSHRs full); retry.
    Stalled,
}

struct WarpCtx {
    state: WarpState,
    /// Current block index.
    block: usize,
    /// Instruction index within the block.
    pc: usize,
    /// Remaining iterations of the current block.
    trips_left: u64,
    stream: Box<dyn AddressStream>,
    rng: SmallRng,
    pending_addr: u64,
}

/// An SM executing kernel IR.
///
/// ## Example
///
/// ```
/// use xmodel_sim::prelude::*;
/// use xmodel_workloads::microbench::{stream_kernel, stream_trace};
///
/// let cfg = SimConfig::builder().lanes(6.0).dram(540, 13.7).build();
/// let stats = simulate_ir(&cfg, &stream_kernel(false), stream_trace(), 32, 5_000, 20_000);
/// assert!(stats.ms_throughput() > 0.0);
/// ```
pub struct IrSm {
    cfg: SimConfig,
    kernel: Kernel,
    warps: Vec<WarpCtx>,
    warps_per_cta: usize,
    mem: MemSide,
    cycle: u64,
    rr: usize,
    measuring: bool,
    stats: SimStats,
    /// Simtrace probe cursor — tracing-only side state; never read by
    /// the simulation path.
    probe: ProbeCursor,
}

impl IrSm {
    /// Build an IR-driven SM running `warps` copies of `kernel`, with
    /// global addresses drawn from `trace`.
    ///
    /// # Panics
    ///
    /// With no warps, or a kernel a warp cannot walk: one with an empty
    /// block, or with no block of positive weight.
    pub fn new(cfg: &SimConfig, kernel: &Kernel, trace: TraceSpec, warps: u32, seed: u64) -> Self {
        let blocks = &kernel.blocks;
        assert!(warps >= 1, "need at least one warp");
        assert!(
            blocks.iter().all(|b| !b.insts.is_empty()) && blocks.iter().any(|b| b.weight > 0.0),
            "kernel {} has an empty block or no block of positive weight",
            kernel.name
        );
        let analysis = kernel.analyze();
        let warps_per_cta = kernel.warps_per_block().max(1) as usize;
        let ctxs = (0..warps)
            .map(|w| {
                let mut rng =
                    SmallRng::seed_from_u64(seed ^ (w as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));
                let trips = trip_count(kernel.blocks.first().map_or(0.0, |b| b.weight), &mut rng);
                WarpCtx {
                    state: WarpState::Running,
                    block: 0,
                    pc: 0,
                    trips_left: trips,
                    stream: trace.instantiate(w, seed),
                    rng,
                    pending_addr: 0,
                }
            })
            .collect();
        Self {
            cfg: *cfg,
            kernel: kernel.clone(),
            warps: ctxs,
            warps_per_cta,
            mem: MemSide::new(cfg, warps),
            cycle: 0,
            rr: 0,
            measuring: false,
            stats: SimStats::new(warps),
            probe: ProbeCursor::new(warps, seed, analysis.intensity, analysis.ilp),
        }
    }

    /// Advance the warp's control flow past its current instruction.
    fn next_inst(&mut self, wi: usize) {
        let w = &mut self.warps[wi];
        w.pc += 1;
        let block_len = self.kernel.blocks[w.block].insts.len();
        if w.pc < block_len {
            return;
        }
        w.pc = 0;
        if w.trips_left > 1 {
            w.trips_left -= 1;
            return;
        }
        // Next block (skipping zero-trip blocks), wrapping to restart the
        // kernel for steady-state measurement.
        w.trips_left = 0;
        while w.trips_left == 0 {
            w.block = (w.block + 1) % self.kernel.blocks.len();
            w.trips_left = trip_count(self.kernel.blocks[w.block].weight, &mut w.rng);
        }
    }

    fn wake(&mut self, warp: u32, is_global: bool) {
        let wi = warp as usize;
        if self.warps[wi].state != WarpState::Waiting {
            // A duplicate or stale completion under fault injection.
            self.stats.spurious_wakes += 1;
            return;
        }
        self.warps[wi].state = WarpState::Running;
        if is_global && self.measuring {
            self.stats.requests_completed += 1;
            self.stats.bytes_delivered += self.mem.request_bytes();
        }
        self.next_inst(wi);
    }

    /// Release thread block `cta` (warps `cta·w .. (cta+1)·w` for `w`
    /// warps per block) once all its warps are at the barrier.
    fn release_barrier_if_ready(&mut self, cta: usize) {
        let wpc = self.warps_per_cta;
        let members = cta * wpc..(cta * wpc + wpc).min(self.warps.len());
        let parked = |w: &WarpCtx| w.state == WarpState::AtBarrier;
        if self.warps[members.clone()].iter().all(parked) {
            for i in members {
                self.warps[i].state = WarpState::Running;
                self.next_inst(i);
            }
        }
    }

    /// Advance one cycle.
    pub fn step(&mut self) {
        let now = self.cycle;

        // 1. Memory completions (DRAM + L2 channel + smem/hit returns).
        self.mem.complete(now, &[], &mut self.stats);
        while let Some((w, is_global)) = self.mem.next_wake() {
            self.wake(w, is_global);
        }

        // 2. Retry stalled memory requests through the LSU.
        let n = self.warps.len();
        let mut lsu_used = 0u32;
        for wi in 0..n {
            if self.warps[wi].state == WarpState::Stalled && lsu_used < self.cfg.lsu_per_cycle {
                lsu_used += 1;
                self.issue_global(wi, now);
            }
        }

        // 3. Scheduler: pick up to issue_width running warps, each issuing
        // one dual-issue group; lane credit caps total ops.
        let mut credit = self.cfg.lanes;
        let mut selected = 0u32;
        let mut retired = 0.0f64;
        let mut barriers_hit: Vec<usize> = Vec::new();
        for off in 0..n {
            if credit <= 1e-12 || selected >= self.cfg.issue_width {
                break;
            }
            let wi = (self.rr + off) % n;
            if self.warps[wi].state != WarpState::Running {
                continue;
            }
            selected += 1;

            // Issue one group: current inst plus trailing dual-issue pairs.
            loop {
                let (block, pc) = (self.warps[wi].block, self.warps[wi].pc);
                let inst = self.kernel.blocks[block].insts[pc];
                match inst.opcode.class() {
                    OpClass::Memory(MemSpace::Global) => {
                        if lsu_used >= self.cfg.lsu_per_cycle {
                            // LSU port busy: warp retries next cycle.
                            break;
                        }
                        lsu_used += 1;
                        retired += 1.0;
                        credit -= 1.0;
                        self.warps[wi].pending_addr = self.warps[wi].stream.next_addr();
                        self.issue_global(wi, now);
                        // pc stays on the load; it advances at wake-up.
                        break;
                    }
                    OpClass::Memory(_) => {
                        // Shared/constant/local path: fixed short latency,
                        // no request accounting; pc advances at return.
                        retired += 1.0;
                        credit -= 1.0;
                        self.warps[wi].state = WarpState::Waiting;
                        self.mem.push_return(now + SMEM_LATENCY, wi as u32, false);
                        break;
                    }
                    OpClass::Control if inst.opcode == Opcode::BAR => {
                        self.warps[wi].state = WarpState::AtBarrier;
                        barriers_hit.push(wi / self.warps_per_cta);
                        // pc advances when the barrier releases.
                        break;
                    }
                    _ => {
                        retired += 1.0;
                        credit -= 1.0;
                        self.next_inst(wi);
                    }
                }
                // Continue the group only while the next inst pairs with
                // its predecessor (pc == 0 means we wrapped into a new
                // block or iteration: a fresh group).
                let (block, pc) = (self.warps[wi].block, self.warps[wi].pc);
                let next = self.kernel.blocks[block].insts[pc];
                if !next.dual_issue || credit <= 1e-12 || pc == 0 {
                    break;
                }
            }
        }
        self.rr = (self.rr + 1) % n;

        for cta in barriers_hit {
            self.release_barrier_if_ready(cta);
        }

        // 4. Accounting: warps at a barrier count as queued, but in CS.
        if self.measuring {
            let mut counts = [0u32; 4];
            for w in &self.warps {
                counts[w.state as usize] += 1;
            }
            let [_, _, waiting, stalled] = counts;
            let k = waiting + stalled;
            self.stats.count_cycle(retired, k as usize, n);
            // Trace snapshot (read-only; see `Sm::step_with`).
            if xmodel_obs::enabled() && now % SNAPSHOT_INTERVAL == 0 {
                let depth = self.mem.depth(now);
                self.probe
                    .sample(SNAPSHOT_INTERVAL, now, counts, k, depth, &self.stats);
            }
        }
        self.cycle += 1;
    }

    /// Hand warp `wi`'s pending global request to the memory side; with
    /// no MSHR free the warp stalls and retries through the LSU.
    fn issue_global(&mut self, wi: usize, now: u64) {
        let (addr, measuring) = (self.warps[wi].pending_addr, self.measuring);
        self.warps[wi].state = match self.mem.issue(now, wi, addr, measuring, &mut self.stats) {
            true => WarpState::Waiting,
            false => WarpState::Stalled,
        };
    }

    /// Inject `spec`'s memory faults on the DRAM channel, recovered as
    /// [`crate::Sm::with_faults`] recovers them. A spec that drops every
    /// completion still stalls the run: pair it with [`IrSm::run_watched`]
    /// to surface that as a typed error.
    pub fn set_faults(&mut self, spec: &FaultSpec) {
        self.mem.set_faults(spec);
    }

    /// Faults injected so far, if [`IrSm::set_faults`] was called.
    pub fn fault_counters(&self) -> Option<FaultCounters> {
        self.mem.fault_counters()
    }

    /// Run `warmup` unmeasured cycles then `measure` measured ones.
    // xlint: determinism-root
    pub fn run(&mut self, warmup: u64, measure: u64) -> &SimStats {
        crate::run::run(self, xmodel_obs::names::span::SIM_RUN_IR, warmup, measure);
        &self.stats
    }

    /// [`IrSm::run`] under a [`Watchdog`] (see `Sm::run_watched`):
    /// budget overruns and fault-induced hangs become typed errors.
    // xlint: determinism-root
    pub fn run_watched(
        &mut self,
        warmup: u64,
        measure: u64,
        watchdog: &Watchdog,
    ) -> Result<&SimStats, SimError> {
        let span = xmodel_obs::names::span::SIM_RUN_IR;
        crate::run::run_watched(self, span, warmup, measure, watchdog)?;
        Ok(&self.stats)
    }

    /// Stats so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }
}

impl crate::run::Driver for IrSm {
    fn measure(&mut self, on: bool) {
        self.measuring = on;
    }

    fn advance(&mut self, _most: u64) -> u64 {
        self.step();
        1
    }

    fn completed(&self) -> u64 {
        self.stats.requests_completed
    }
}

/// Randomized rounding of a fractional trip count (mean-preserving).
fn trip_count(weight: f64, rng: &mut SmallRng) -> u64 {
    if weight <= 0.0 {
        return 0;
    }
    let base = weight.floor();
    let frac = weight - base;
    base as u64 + u64::from(rng.random::<f64>() < frac)
}

/// Convenience: run a kernel IR on a configuration.
pub fn simulate_ir(
    cfg: &SimConfig,
    kernel: &Kernel,
    trace: TraceSpec,
    warps: u32,
    warmup: u64,
    measure: u64,
) -> SimStats {
    let mut sm = IrSm::new(cfg, kernel, trace, warps, 42);
    sm.run(warmup, measure);
    sm.stats().clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sm::simulate;
    use crate::SimWorkload;
    use xmodel_workloads::microbench::{peak_ops_kernel, stream_kernel, stream_trace};
    use xmodel_workloads::Workload;

    fn cfg() -> SimConfig {
        SimConfig::builder()
            .lanes(6.0)
            .issue_width(8)
            .lsu(2)
            .dram(540, 13.7)
            .build()
    }

    #[test]
    fn deterministic() {
        let k = stream_kernel(false);
        let a = simulate_ir(&cfg(), &k, stream_trace(), 16, 5_000, 20_000);
        let b = simulate_ir(&cfg(), &k, stream_trace(), 16, 5_000, 20_000);
        assert_eq!(a, b);
    }

    #[test]
    fn pure_compute_ir_saturates_lanes() {
        let k = peak_ops_kernel(2.0);
        let s = simulate_ir(&cfg(), &k, stream_trace(), 16, 2_000, 10_000);
        assert!(
            (s.cs_throughput() - 6.0).abs() < 0.2,
            "cs = {}",
            s.cs_throughput()
        );
        assert_eq!(s.requests_completed, 0);
    }

    #[test]
    fn single_warp_dual_issue_rate() {
        let k = peak_ops_kernel(2.0);
        let s = simulate_ir(&cfg(), &k, stream_trace(), 1, 2_000, 10_000);
        // One warp with fully-paired FMAs retires ~2 ops/cycle (minus the
        // group-boundary solo instructions).
        assert!(
            s.cs_throughput() > 1.7 && s.cs_throughput() <= 2.0 + 1e-9,
            "cs = {}",
            s.cs_throughput()
        );
    }

    #[test]
    fn ir_stream_matches_parametric_sim() {
        // The core ablation: executing the stream kernel's IR should give
        // the same throughput as the (Z, E) abstraction of it.
        let kernel = stream_kernel(false);
        let a = kernel.analyze();
        let ir = simulate_ir(&cfg(), &kernel, stream_trace(), 48, 20_000, 60_000);
        let par = simulate(
            &cfg(),
            &SimWorkload {
                trace: stream_trace(),
                ops_per_request: a.intensity,
                ilp: a.ilp,
                warps: 48,
            },
            20_000,
            60_000,
        );
        let rel = (ir.ms_throughput() - par.ms_throughput()).abs() / par.ms_throughput();
        assert!(
            rel < 0.15,
            "IR {} vs parametric {}",
            ir.ms_throughput(),
            par.ms_throughput()
        );
    }

    #[test]
    fn every_suite_kernel_executes() {
        for w in Workload::suite() {
            let s = simulate_ir(&cfg(), &w.kernel, w.trace, 16, 5_000, 15_000);
            assert!(s.cs_throughput() > 0.0, "{} retired nothing", w.name);
            assert!(s.requests_completed > 0, "{} made no requests", w.name);
        }
    }

    #[test]
    fn barriers_keep_blocks_in_lockstep() {
        use xmodel_isa::Opcode::*;
        // Two warps per block; each iteration does one load + barrier.
        let k = xmodel_isa::Kernel::builder("bar", 64)
            .block(1000.0, |b| b.inst(LDG).inst(IADD).inst(BAR))
            .build();
        let trace = TraceSpec::Gather {
            footprint_lines: 1 << 16,
            skew: 0.0,
        };
        let s = simulate_ir(&cfg(), &k, trace, 8, 5_000, 30_000);
        assert!(s.requests_completed > 0);
        // A barrier-free variant must be at least as fast.
        let free = xmodel_isa::Kernel::builder("nobar", 64)
            .block(1000.0, |b| b.inst(LDG).inst(IADD).inst(IADD))
            .build();
        let sf = simulate_ir(&cfg(), &free, trace, 8, 5_000, 30_000);
        assert!(
            sf.ms_throughput() >= s.ms_throughput() * 0.99,
            "barrier {} vs free {}",
            s.ms_throughput(),
            sf.ms_throughput()
        );
    }

    #[test]
    fn smem_ops_take_the_short_path() {
        use xmodel_isa::Opcode::*;
        // Shared-memory-heavy kernel: no DRAM traffic from LDS/STS.
        let k = xmodel_isa::Kernel::builder("smem", 64)
            .block(1000.0, |b| b.inst(LDS).inst(FFMA).inst(STS).inst(IADD))
            .build();
        let s = simulate_ir(&cfg(), &k, stream_trace(), 8, 2_000, 10_000);
        assert_eq!(s.requests_completed, 0, "smem must not touch DRAM");
        assert!(s.cs_throughput() > 0.0);
    }

    #[test]
    #[should_panic(expected = "kernel gap has an empty block")]
    fn kernel_with_an_empty_block_is_rejected() {
        use xmodel_isa::Opcode::*;
        let k = xmodel_isa::Kernel::builder("gap", 32)
            .block(1.0, |b| b)
            .block(10.0, |b| b.inst(FFMA))
            .build();
        IrSm::new(&cfg(), &k, stream_trace(), 4, 1);
    }

    #[test]
    #[should_panic(expected = "no block of positive weight")]
    fn kernel_with_no_positive_weight_is_rejected() {
        use xmodel_isa::Opcode::*;
        let k = xmodel_isa::Kernel::builder("idle", 32)
            .block(0.0, |b| b.inst(FFMA))
            .block(0.0, |b| b.inst(IADD).inst(BAR))
            .build();
        IrSm::new(&cfg(), &k, stream_trace(), 4, 1);
    }

    #[test]
    fn zero_weight_blocks_are_skipped() {
        use xmodel_isa::Opcode::*;
        let k = xmodel_isa::Kernel::builder("zw", 32)
            .block(0.0, |b| b.inst(BAR).inst(BAR))
            .block(10.0, |b| b.inst(FFMA).inst(IADD))
            .build();
        let s = simulate_ir(&cfg(), &k, stream_trace(), 4, 1_000, 5_000);
        assert!(s.cs_throughput() > 0.0);
    }
}
