//! The SM driver: cycle-exact, with idle-cycle jumps.
//!
//! [`Sm::step`] advances exactly one cycle in four phases, and each does
//! only the work it has:
//!
//! 1. Completions. The memory side returns at once when no tag is
//!    injected, no drop-fault ledger is kept and nothing is due on the
//!    DRAM channel, the L2 channel or the return queue. A woken warp
//!    draws its next address only if an L1 or an L2 stage will read it.
//! 2. The LSU, only while some warp is queued or stalled.
//! 3. The compute scheduler.
//! 4. Accounting, from the counts.
//!
//! The scheduler never scans every warp. A `Census` keeps one bitset of
//! `Computing` warps, one of warps the LSU serves (`IssuePending |
//! Stalled`), and a count per state. It changes only when a warp changes
//! class, so a compute pick that leaves its warp computing writes only
//! that warp's `ops_left`. Both phases visit only set bits, a bitset word
//! at a time, in the round-robin order `(rr + off) % n` gives, and
//! `lsu_rr` and `rr` turn every cycle whether their phase ran or not.
//!
//! None of this moves a pick, a draw or a float. A skipped LSU round had
//! no warp to serve, a skipped drain had nothing to collect, and an
//! address nothing reads decides nothing. The compute picks, each wake's
//! `sample_ops` draw, every fault draw, and the `ops_left`,
//! `ops_retired`, `sum_k` and `sum_x` updates keep their cycle and their
//! order; `tests/sm_parity.rs` pins the statistics bit for bit.
//!
//! The run loops ([`Sm::run`], [`Sm::run_watched`],
//! [`Sm::run_until_requests`]) also skip cycles in which nothing can
//! happen. While every warp is `Waiting`, a cycle changes only the
//! round-robin pointers and the idle counters, until the first of these
//! boundaries: a DRAM, L2-channel or L1-hit completion, a recovery
//! sweep under fault injection, a trajectory or trace sample, a watchdog
//! check, or the end of the phase. The loop jumps straight there and
//! applies the skipped cycles' effect in one step, so every statistic,
//! trace frame and fault draw matches the stepped run bit for bit.
//! Fault draws are made only in `Dram::submit`, which runs only inside a
//! stepped cycle.

use crate::config::{SimConfig, SimWorkload};
use crate::dram::Dram;
use crate::error::{SimError, Watchdog};
use crate::fault::{FaultCounters, FaultSpec};
use crate::mem::MemSide;
use crate::probe::{ProbeCursor, SNAPSHOT_INTERVAL};
use crate::run::Driver;
use crate::stats::SimStats;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;
use xmodel_workloads::AddressStream;

#[derive(Debug, Clone, Copy, PartialEq)]
enum WarpState {
    /// Executing: `ops_left` warp-ops until the next memory request.
    Computing { ops_left: f64 },
    /// Has a memory request ready to hand to the LSU.
    IssuePending,
    /// Request in flight (L1 hit pipeline, MSHR fill, or direct DRAM).
    Waiting,
    /// Rejected for MSHR exhaustion; retries through the LSU.
    Stalled,
}

/// Index of `Waiting` in [`Census::counts`].
const WAITING: usize = 2;

impl WarpState {
    /// Slot in [`Census::counts`]: computing, queued, waiting, stalled.
    fn slot(self) -> usize {
        match self {
            WarpState::Computing { .. } => 0,
            WarpState::IssuePending => 1,
            WarpState::Waiting => WAITING,
            WarpState::Stalled => 3,
        }
    }
}

/// What the scheduler reads instead of scanning every warp: a bitset of
/// `Computing` warps for the CS phase, a bitset of the warps the LSU
/// serves (`IssuePending | Stalled`), and the number of warps per state.
#[derive(Debug, PartialEq)]
struct Census {
    computing: Vec<u64>,
    issuing: Vec<u64>,
    counts: [u32; 4],
}

impl Census {
    fn new(states: impl ExactSizeIterator<Item = WarpState>) -> Self {
        let words = states.len().div_ceil(64);
        let mut census = Census {
            computing: vec![0; words],
            issuing: vec![0; words],
            counts: [0; 4],
        };
        for (wi, state) in states.enumerate() {
            census.counts[state.slot()] += 1;
            census.mark(wi, state);
        }
        census
    }

    /// Record warp `wi` moving from `from` to `to`.
    fn moved(&mut self, wi: usize, from: WarpState, to: WarpState) {
        self.counts[from.slot()] -= 1;
        self.counts[to.slot()] += 1;
        self.mark(wi, to);
    }

    fn mark(&mut self, wi: usize, state: WarpState) {
        let (word, bit) = (wi / 64, 1u64 << (wi % 64));
        let (computing, issuing) = match state {
            WarpState::Computing { .. } => (bit, 0),
            WarpState::IssuePending | WarpState::Stalled => (0, bit),
            WarpState::Waiting => (0, 0),
        };
        self.computing[word] = self.computing[word] & !bit | computing;
        self.issuing[word] = self.issuing[word] & !bit | issuing;
    }
}

/// Visits the set bits of a warp bitset in the circular order
/// `start, start + 1, …, n - 1, 0, …, start - 1` that `(start + off) % n`
/// gives, one word at a time: the word holding `start` from that bit up,
/// every other word in turn, then that first word below `start`. A word
/// is read when the ring reaches it. Serving a warp may change only that
/// warp's bit, which the ring has already taken, so a word read once
/// stays current for the rest of the phase.
struct Ring {
    /// The bits of the current word not yet visited.
    live: u64,
    word: usize,
    /// Words still to read after the current one.
    left: usize,
    /// Bits of the first word visited last, after the wrap.
    tail: u64,
}

impl Ring {
    fn new(start: usize, bits: &[u64]) -> Self {
        let (word, head) = (start / 64, u64::MAX << (start % 64));
        Ring {
            live: bits[word] & head,
            word,
            left: bits.len(),
            tail: !head,
        }
    }

    fn next(&mut self, bits: &[u64]) -> Option<usize> {
        while self.live == 0 {
            if self.left == 0 {
                return None;
            }
            self.left -= 1;
            self.word = if self.word + 1 == bits.len() {
                0
            } else {
                self.word + 1
            };
            self.live = bits[self.word];
            if self.left == 0 {
                self.live &= self.tail;
            }
        }
        let wi = self.word * 64 + self.live.trailing_zeros() as usize;
        self.live &= self.live - 1;
        Some(wi)
    }
}

struct Warp {
    state: WarpState,
    pending_addr: u64,
    stream: Box<dyn AddressStream>,
    rng: SmallRng,
}

/// One simulated streaming multiprocessor.
pub struct Sm {
    cfg: SimConfig,
    wl: SimWorkload,
    warps: Vec<Warp>,
    mem: MemSide,
    census: Census,
    cycle: u64,
    rr: usize,
    lsu_rr: usize,
    measuring: bool,
    stats: SimStats,
    /// Sample the spatial trajectory every this many cycles (0 = never).
    pub trajectory_interval: u64,
    /// Simtrace probe cursor — tracing-only side state; never read by
    /// the simulation path.
    probe: ProbeCursor,
}

impl Sm {
    /// Build an SM with every warp starting in CS (a fresh compute
    /// quantum). `seed` controls the per-warp address streams and compute
    /// jitter; identical seeds give identical runs.
    pub fn new(cfg: &SimConfig, wl: &SimWorkload, seed: u64) -> Self {
        Self::with_initial_ms_fraction(cfg, wl, seed, 0.0)
    }

    /// Build an SM with the first `ms_fraction` of warps starting with an
    /// immediate memory request (threads initially in MS) — the knob used
    /// to probe the bistable regime of §III-D.
    pub fn with_initial_ms_fraction(
        cfg: &SimConfig,
        wl: &SimWorkload,
        seed: u64,
        ms_fraction: f64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&ms_fraction));
        assert!(wl.warps >= 1, "need at least one warp");
        assert!(wl.ilp > 0.0 && wl.ops_per_request > 0.0);
        let in_ms = (ms_fraction * wl.warps as f64).round() as u32;
        let warps: Vec<Warp> = (0..wl.warps)
            .map(|w| {
                let mut rng =
                    SmallRng::seed_from_u64(seed ^ (w as u64).wrapping_mul(0xA24B_AED4_963E_E407));
                let mut stream = wl.trace.instantiate(w, seed);
                let state = if w < in_ms {
                    WarpState::IssuePending
                } else {
                    WarpState::Computing {
                        ops_left: sample_ops(wl.ops_per_request, &mut rng),
                    }
                };
                let pending_addr = stream.next_addr();
                Warp {
                    state,
                    pending_addr,
                    stream,
                    rng,
                }
            })
            .collect();
        Self {
            census: Census::new(warps.iter().map(|w| w.state)),
            warps,
            mem: MemSide::new(cfg, wl.warps),
            cycle: 0,
            rr: 0,
            lsu_rr: 0,
            measuring: false,
            stats: SimStats::new(wl.warps),
            cfg: *cfg,
            wl: *wl,
            trajectory_interval: 0,
            probe: ProbeCursor::new(wl.warps, seed, wl.ops_per_request, wl.ilp),
        }
    }

    /// Build an SM whose private DRAM channel injects the faults in
    /// `spec` (latency spikes, dropped/duplicated completions, bandwidth
    /// throttling). Dropped completions are recovered by a periodic sweep
    /// that re-submits overdue requests under their original tag; the
    /// recoveries and any absorbed duplicate completions are counted in
    /// [`SimStats::lost_recovered`] / [`SimStats::spurious_wakes`]. The
    /// spec's sink and solver fields are ignored here — they perturb
    /// other layers (`xmodel_obs::fault`, `xmodel_core::degrade`).
    pub fn with_faults(cfg: &SimConfig, wl: &SimWorkload, seed: u64, spec: &FaultSpec) -> Self {
        let mut sm = Self::new(cfg, wl, seed);
        sm.mem.set_faults(spec);
        sm
    }

    /// Build an SM from pre-instantiated per-warp address streams (for
    /// recorded/algorithm-derived traces); `z`/`e` play the same role as
    /// in [`SimWorkload`]. The workload's own trace field is ignored.
    pub fn with_streams(
        cfg: &SimConfig,
        streams: Vec<Box<dyn xmodel_workloads::AddressStream>>,
        ops_per_request: f64,
        ilp: f64,
        seed: u64,
    ) -> Self {
        assert!(!streams.is_empty());
        let wl = SimWorkload {
            trace: xmodel_workloads::TraceSpec::Stream { region_lines: 1 },
            ops_per_request,
            ilp,
            warps: streams.len() as u32,
        };
        let mut sm = Self::new(cfg, &wl, seed);
        for (w, stream) in sm.warps.iter_mut().zip(streams) {
            w.stream = stream;
            w.pending_addr = w.stream.next_addr();
        }
        sm
    }

    /// Re-attach this SM to a chip-shared DRAM channel (used by
    /// [`crate::chip::ChipSim`]). Completions must then be injected via
    /// [`Sm::step_with`].
    pub(crate) fn attach_shared_dram(&mut self, dram: Rc<RefCell<Dram>>, sm_id: u16) {
        self.mem.attach_shared_dram(dram, sm_id);
        self.probe.sm = sm_id;
    }

    /// Move warp `wi` to `state`: the one place a warp changes state, so
    /// the census always matches the warps. The census tracks classes
    /// only, so a move within one (a CS pick that leaves the warp
    /// `Computing`, a stalled warp stalling again) leaves it alone.
    fn set_state(&mut self, wi: usize, state: WarpState) {
        let from = std::mem::replace(&mut self.warps[wi].state, state);
        if from.slot() != state.slot() {
            self.census.moved(wi, from, state);
        }
    }

    fn wake(&mut self, warp: u32) {
        let wi = warp as usize;
        if self.warps[wi].state != WarpState::Waiting {
            // A duplicated or stale completion under fault injection:
            // absorb it rather than corrupting the warp's state machine.
            self.stats.spurious_wakes += 1;
            return;
        }
        let ops = sample_ops(self.wl.ops_per_request, &mut self.warps[wi].rng);
        self.set_state(wi, WarpState::Computing { ops_left: ops });
        // Only an L1 or an L2 stage reads an address; with neither, the
        // next one decides nothing and is not drawn.
        if self.mem.reads_addresses() {
            let w = &mut self.warps[wi];
            w.pending_addr = w.stream.next_addr();
        }
        if self.measuring {
            self.stats.requests_completed += 1;
            self.stats.bytes_delivered += self.mem.request_bytes();
        }
    }

    /// Advance one cycle (private-DRAM configuration).
    pub fn step(&mut self) {
        self.step_with(&[]);
    }

    /// Advance one cycle, additionally delivering `injected` completion
    /// tags routed from a chip-shared DRAM channel.
    pub fn step_with(&mut self, injected: &[u64]) {
        let now = self.cycle;

        // 1. Completions: DRAM first, then the L1 hit pipeline.
        self.mem.complete(now, injected, &mut self.stats);
        while let Some((w, _)) = self.mem.next_wake() {
            self.wake(w);
        }

        // 2. LSU: issue up to lsu_per_cycle pending requests, round-robin,
        // when any warp is queued or stalled.
        let n = self.warps.len();
        let [_, queued, _, stalled] = self.census.counts;
        if queued + stalled > 0 {
            let mut ring = Ring::new(self.lsu_rr, &self.census.issuing);
            for _ in 0..self.cfg.lsu_per_cycle {
                let Some(wi) = ring.next(&self.census.issuing) else {
                    break;
                };
                // An MSHR-full rejection leaves the warp `Stalled` to retry.
                let (addr, measuring) = (self.warps[wi].pending_addr, self.measuring);
                let state = match self.mem.issue(now, wi, addr, measuring, &mut self.stats) {
                    true => WarpState::Waiting,
                    false => WarpState::Stalled,
                };
                self.set_state(wi, state);
            }
        }
        self.lsu_rr = (self.lsu_rr + 1) % n;

        // 3. CS: spend up to `lanes` warp-ops, round-robin, each selected
        // warp retiring at most its ILP width.
        let mut credit = self.cfg.lanes;
        let mut selected = 0;
        let mut retired = 0.0;
        let mut ring = Ring::new(self.rr, &self.census.computing);
        while credit > 1e-12 && selected < self.cfg.issue_width {
            let Some(wi) = ring.next(&self.census.computing) else {
                break;
            };
            if let WarpState::Computing { ops_left } = &mut self.warps[wi].state {
                let take = self.wl.ilp.min(*ops_left).min(credit);
                let left = *ops_left - take;
                credit -= take;
                retired += take;
                selected += 1;
                // A warp that keeps computing stays in its class: only
                // `ops_left` changes, and the census does not.
                if left > 1e-9 {
                    *ops_left = left;
                } else {
                    self.set_state(wi, WarpState::IssuePending);
                }
            }
        }
        self.rr = (self.rr + 1) % n;

        // 4. Accounting.
        if self.measuring {
            let [_, queued, waiting, stalled] = self.census.counts;
            let k = queued + waiting + stalled;
            self.stats.count_cycle(retired, k as usize, n);
            if self.trajectory_interval > 0 && now % self.trajectory_interval == 0 {
                self.stats.trajectory.push((now, k));
            }
            // Trace snapshot: a superset of the trajectory sample. Reads
            // simulator state only — determinism is unaffected by tracing.
            if xmodel_obs::enabled() {
                let interval = if self.trajectory_interval > 0 {
                    self.trajectory_interval
                } else {
                    SNAPSHOT_INTERVAL
                };
                if now % interval == 0 {
                    let counts = self.census.counts;
                    let depth = self.mem.depth(now);
                    self.probe
                        .sample(interval, now, counts, k, depth, &self.stats);
                }
            }
        }

        self.cycle += 1;
    }

    /// Enable or disable measurement (chip driver control).
    pub fn set_measuring(&mut self, on: bool) {
        self.measuring = on;
    }

    /// How many cycles from now can be skipped without stepping, never
    /// past `limit`: 0 unless every warp is `Waiting` on a private DRAM
    /// channel. Such a cycle issues nothing and retires nothing, so the
    /// span runs up to the first cycle that must be stepped: a DRAM,
    /// L2-channel or L1-hit completion, a recovery sweep, or (while
    /// measuring) a trajectory or trace sample.
    fn idle_span(&self, limit: u64) -> u64 {
        let n = self.warps.len() as u64;
        if u64::from(self.census.counts[WAITING]) != n {
            return 0;
        }
        let now = self.cycle;
        let Some(mut until) = self.mem.idle_until(now, limit) else {
            return 0;
        };
        let next = |period: u64| now.checked_next_multiple_of(period).unwrap_or(u64::MAX);
        if self.measuring {
            if self.trajectory_interval > 0 {
                until = until.min(next(self.trajectory_interval));
            } else if xmodel_obs::enabled() {
                until = until.min(next(SNAPSHOT_INTERVAL));
            }
        }
        until.saturating_sub(now)
    }

    /// Apply `span` idle cycles at once: what stepping them would do,
    /// since each only turns the round-robin pointers and, while
    /// measuring, counts a cycle with all `n` warps in MS (it retires
    /// 0.0 ops and adds 0.0 to `sum_x`). `sum_k` holds whole numbers, so
    /// one addition of `n · span` equals `span` additions of `n` while
    /// it stays below 2^53, some 7·10^13 cycles at 128 warps.
    fn skip_idle(&mut self, span: u64) {
        let n = self.warps.len();
        let turn = (span % n as u64) as usize;
        self.rr = (self.rr + turn) % n;
        self.lsu_rr = (self.lsu_rr + turn) % n;
        if self.measuring {
            self.stats.cycles += span;
            self.stats.sum_k += (span * n as u64) as f64;
            self.stats.k_histogram[n] += span;
        }
        self.cycle += span;
    }

    /// Run `warmup` unmeasured cycles then `measure` measured ones.
    // xlint: determinism-root
    pub fn run(&mut self, warmup: u64, measure: u64) -> &SimStats {
        crate::run::run(self, xmodel_obs::names::span::SIM_RUN, warmup, measure);
        &self.stats
    }

    /// [`Sm::run`] under a [`Watchdog`]: the run is aborted with a typed
    /// [`SimError::Watchdog`] when it exceeds its cycle or wall-clock
    /// budget, or (during the measured phase) stops completing requests
    /// for `stall_cycles` — converting a fault-induced hang into an error
    /// instead of spinning forever or returning garbage stats.
    // xlint: determinism-root
    pub fn run_watched(
        &mut self,
        warmup: u64,
        measure: u64,
        watchdog: &Watchdog,
    ) -> Result<&SimStats, SimError> {
        let span = xmodel_obs::names::span::SIM_RUN;
        crate::run::run_watched(self, span, warmup, measure, watchdog)?;
        Ok(&self.stats)
    }

    /// Run with measurement on until `requests` warp requests complete or
    /// `max_cycles` elapse; returns the cycles spent (None on timeout).
    /// Used to validate the execution-time extension of `xmodel-core`.
    pub fn run_until_requests(&mut self, requests: u64, max_cycles: u64) -> Option<u64> {
        self.measuring = true;
        let start = self.cycle;
        let end = start.saturating_add(max_cycles);
        while self.stats.requests_completed < requests {
            if self.cycle >= end {
                return None;
            }
            self.advance(end - self.cycle);
        }
        Some(self.cycle - start)
    }

    /// Stats collected so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Faults the DRAM channel has injected, when built via
    /// [`Sm::with_faults`] (None otherwise).
    pub fn fault_counters(&self) -> Option<FaultCounters> {
        self.mem.fault_counters()
    }

    /// Requests currently awaiting completion in the recovery ledger
    /// (0 unless drop faults are active).
    pub fn outstanding_requests(&self) -> usize {
        self.mem.outstanding_requests()
    }
}

impl Driver for Sm {
    fn measure(&mut self, on: bool) {
        self.measuring = on;
    }

    /// Jump an idle span if one starts now, else step one cycle.
    fn advance(&mut self, most: u64) -> u64 {
        let start = self.cycle;
        match self.idle_span(start + most) {
            0 => self.step(),
            span => self.skip_idle(span),
        }
        self.cycle - start
    }

    fn completed(&self) -> u64 {
        self.stats.requests_completed
    }
}

/// Uniform jitter in `[0.5·z, 1.5·z)` with mean `z`, desynchronising warps
/// the way variable control flow does on hardware. Infinite `z` (pure
/// compute) passes through.
fn sample_ops(z: f64, rng: &mut SmallRng) -> f64 {
    if z.is_infinite() {
        return f64::INFINITY;
    }
    z * (0.5 + rng.random::<f64>())
}

/// Run a fresh SM to completion and return its stats (seed 42).
pub fn simulate(cfg: &SimConfig, wl: &SimWorkload, warmup: u64, measure: u64) -> SimStats {
    simulate_with_seed(cfg, wl, warmup, measure, 42)
}

/// [`simulate`] with an explicit seed.
pub fn simulate_with_seed(
    cfg: &SimConfig,
    wl: &SimWorkload,
    warmup: u64,
    measure: u64,
    seed: u64,
) -> SimStats {
    let mut sm = Sm::new(cfg, wl, seed);
    sm.run(warmup, measure);
    sm.stats().clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmodel_workloads::TraceSpec;

    fn stream_wl(warps: u32, z: f64, e: f64) -> SimWorkload {
        SimWorkload {
            trace: TraceSpec::Stream {
                region_lines: 1 << 22,
            },
            ops_per_request: z,
            ilp: e,
            warps,
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = SimConfig::builder().lanes(4.0).dram(400, 8.0).build();
        let wl = stream_wl(16, 10.0, 1.0);
        let a = simulate_with_seed(&cfg, &wl, 5_000, 20_000, 7);
        let b = simulate_with_seed(&cfg, &wl, 5_000, 20_000, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn pure_compute_saturates_lanes() {
        let cfg = SimConfig::builder().lanes(4.0).issue_width(8).build();
        let wl = SimWorkload {
            trace: TraceSpec::Stream { region_lines: 64 },
            ops_per_request: f64::INFINITY,
            ilp: 1.0,
            warps: 16,
        };
        let s = simulate(&cfg, &wl, 1_000, 10_000);
        assert!(
            (s.cs_throughput() - 4.0).abs() < 0.01,
            "{}",
            s.cs_throughput()
        );
        assert_eq!(s.requests_completed, 0);
        assert_eq!(s.avg_k(), 0.0);
    }

    #[test]
    fn few_threads_cannot_saturate_lanes() {
        let cfg = SimConfig::builder().lanes(4.0).issue_width(8).build();
        let wl = SimWorkload {
            trace: TraceSpec::Stream { region_lines: 64 },
            ops_per_request: f64::INFINITY,
            ilp: 1.0,
            warps: 2,
        };
        let s = simulate(&cfg, &wl, 1_000, 10_000);
        // Two warps at ILP 1 retire 2 ops/cycle on 4 lanes.
        assert!((s.cs_throughput() - 2.0).abs() < 0.01);
    }

    #[test]
    fn ilp_multiplies_single_warp_throughput() {
        let cfg = SimConfig::builder().lanes(4.0).issue_width(8).build();
        let mk = |e| SimWorkload {
            trace: TraceSpec::Stream { region_lines: 64 },
            ops_per_request: f64::INFINITY,
            ilp: e,
            warps: 1,
        };
        let s1 = simulate(&cfg, &mk(1.0), 1_000, 5_000);
        let s2 = simulate(&cfg, &mk(2.0), 1_000, 5_000);
        assert!((s1.cs_throughput() - 1.0).abs() < 0.01);
        assert!((s2.cs_throughput() - 2.0).abs() < 0.01);
    }

    #[test]
    fn memory_bound_stream_saturates_dram_bandwidth() {
        // Z tiny: throughput pinned by DRAM: 8 B/cyc = 1/16 req/cyc.
        let cfg = SimConfig::builder()
            .lanes(4.0)
            .issue_width(8)
            .dram(400, 8.0)
            .build();
        let s = simulate(&cfg, &stream_wl(48, 2.0, 1.0), 20_000, 50_000);
        let expect = 8.0 / 128.0;
        assert!(
            (s.ms_throughput() - expect).abs() < 0.1 * expect,
            "ms = {}, expect {}",
            s.ms_throughput(),
            expect
        );
    }

    #[test]
    fn latency_bound_throughput_scales_with_warps() {
        // Few warps, huge bandwidth: each warp turns around in
        // ~Z + latency cycles => ms ≈ n / (L + Z).
        let cfg = SimConfig::builder()
            .lanes(8.0)
            .issue_width(8)
            .lsu(8)
            .dram(400, 1e6)
            .build();
        let s4 = simulate(&cfg, &stream_wl(4, 10.0, 1.0), 10_000, 40_000);
        let s8 = simulate(&cfg, &stream_wl(8, 10.0, 1.0), 10_000, 40_000);
        let ratio = s8.ms_throughput() / s4.ms_throughput();
        assert!((ratio - 2.0).abs() < 0.15, "ratio = {ratio}");
        let expect4 = 4.0 / 410.0;
        assert!(
            (s4.ms_throughput() - expect4).abs() < 0.15 * expect4,
            "ms = {} vs {}",
            s4.ms_throughput(),
            expect4
        );
    }

    #[test]
    fn spatial_state_concentrates_in_ms_for_memory_bound() {
        let cfg = SimConfig::builder().lanes(4.0).dram(400, 8.0).build();
        let s = simulate(&cfg, &stream_wl(32, 2.0, 1.0), 10_000, 40_000);
        // Memory bound: nearly every warp waits in MS.
        assert!(s.avg_k() > 28.0, "avg_k = {}", s.avg_k());
        assert!((s.avg_k() + s.avg_x() - 32.0).abs() < 1e-9);
    }

    #[test]
    fn cache_hits_cut_memory_traffic() {
        let wl = SimWorkload {
            trace: TraceSpec::PrivateWorkingSet {
                ws_lines: 8,
                stream_prob: 0.0,
                reuse_skew: 0.0,
            },
            ops_per_request: 10.0,
            ilp: 1.0,
            warps: 8,
        };
        let base = SimConfig::builder().lanes(4.0).dram(400, 8.0);
        let no_l1 = base.clone().build();
        let with_l1 = base.l1(64 * 1024, 20, 32).build();
        let s0 = simulate(&no_l1, &wl, 10_000, 40_000);
        let s1 = simulate(&with_l1, &wl, 10_000, 40_000);
        assert!(s1.hit_rate() > 0.9, "hit rate = {}", s1.hit_rate());
        assert!(
            s1.ms_throughput() > 3.0 * s0.ms_throughput(),
            "cached {} vs uncached {}",
            s1.ms_throughput(),
            s0.ms_throughput()
        );
    }

    #[test]
    fn thrashing_working_set_degrades_hit_rate() {
        let mk = |warps| SimWorkload {
            trace: TraceSpec::PrivateWorkingSet {
                ws_lines: 32,
                stream_prob: 0.0,
                reuse_skew: 0.0,
            },
            ops_per_request: 10.0,
            ilp: 1.0,
            warps,
        };
        let cfg = SimConfig::builder()
            .lanes(4.0)
            .dram(400, 8.0)
            // 16 KiB = 128 lines: four warps' working sets fit.
            .l1(16 * 1024, 20, 32)
            .build();
        let few = simulate(&cfg, &mk(4), 20_000, 40_000);
        let many = simulate(&cfg, &mk(48), 20_000, 40_000);
        assert!(few.hit_rate() > 0.9, "few = {}", few.hit_rate());
        assert!(
            many.hit_rate() < 0.5,
            "many = {} should thrash",
            many.hit_rate()
        );
    }

    #[test]
    fn bypass_fraction_sends_warps_straight_to_dram() {
        let wl = SimWorkload {
            trace: TraceSpec::PrivateWorkingSet {
                ws_lines: 8,
                stream_prob: 0.0,
                reuse_skew: 0.0,
            },
            ops_per_request: 10.0,
            ilp: 1.0,
            warps: 8,
        };
        let all_cached = SimConfig::builder()
            .lanes(4.0)
            .dram(400, 8.0)
            .l1(64 * 1024, 20, 32)
            .build();
        let all_bypass = SimConfig::builder()
            .lanes(4.0)
            .dram(400, 8.0)
            .l1(64 * 1024, 20, 32)
            .bypass(1.0)
            .build();
        let sc = simulate(&all_cached, &wl, 5_000, 20_000);
        let sb = simulate(&all_bypass, &wl, 5_000, 20_000);
        assert!(sc.l1_hits > 0);
        assert_eq!(sb.l1_hits + sb.l1_misses + sb.l1_merges, 0);
    }

    #[test]
    fn mshr_pressure_is_observable() {
        // Streaming misses with very few MSHRs: stalls must appear.
        let cfg = SimConfig::builder()
            .lanes(4.0)
            .lsu(4)
            .dram(600, 4.0)
            .l1(16 * 1024, 20, 2)
            .build();
        let s = simulate(&cfg, &stream_wl(32, 2.0, 1.0), 5_000, 20_000);
        assert!(s.mshr_stalls > 0);
    }

    #[test]
    fn initial_distribution_knob() {
        let cfg = SimConfig::builder().lanes(4.0).dram(400, 8.0).build();
        let wl = stream_wl(16, 50.0, 1.0);
        let mut all_ms = Sm::with_initial_ms_fraction(&cfg, &wl, 1, 1.0);
        // Before any step, every warp sits in MS.
        all_ms.run(0, 1);
        assert!(all_ms.stats().avg_k() >= 15.0);
    }

    #[test]
    fn fault_free_run_has_no_spurious_or_recovered() {
        let cfg = SimConfig::builder().lanes(4.0).dram(400, 8.0).build();
        let s = simulate(&cfg, &stream_wl(16, 10.0, 1.0), 5_000, 20_000);
        assert_eq!(s.spurious_wakes, 0);
        assert_eq!(s.lost_recovered, 0);
    }

    #[test]
    fn faulted_run_is_deterministic() {
        let cfg = SimConfig::builder()
            .lanes(4.0)
            .dram(400, 8.0)
            .l1(16 * 1024, 20, 16)
            .build();
        let wl = stream_wl(16, 10.0, 1.0);
        let spec =
            FaultSpec::parse("seed=5,spike=0.05x4,drop=0.02,dup=0.02,throttle=2000:0.25:0.5")
                .unwrap();
        let run = || {
            let mut sm = Sm::with_faults(&cfg, &wl, 7, &spec);
            sm.run(5_000, 20_000);
            (sm.stats().clone(), sm.fault_counters().unwrap())
        };
        let (sa, ca) = run();
        let (sb, cb) = run();
        assert_eq!(sa, sb);
        assert_eq!(ca, cb);
        assert!(ca.total() > 0, "{ca:?}");
    }

    #[test]
    fn dropped_completions_are_recovered() {
        let cfg = SimConfig::builder().lanes(4.0).dram(200, 64.0).build();
        let wl = stream_wl(8, 10.0, 1.0);
        let spec = FaultSpec::parse("seed=11,drop=0.05").unwrap();
        let mut sm = Sm::with_faults(&cfg, &wl, 3, &spec);
        sm.run(0, 200_000);
        let drops = sm.fault_counters().unwrap().drops;
        assert!(drops > 0, "no drops injected");
        assert!(
            sm.stats().lost_recovered > 0,
            "drops = {drops} but nothing recovered"
        );
        // The run keeps making progress despite every drop.
        assert!(sm.stats().requests_completed > 1_000);
        // Whatever is still outstanding is bounded by the in-flight set.
        assert!(sm.outstanding_requests() <= wl.warps as usize);
    }

    #[test]
    fn duplicated_completions_are_absorbed() {
        let cfg = SimConfig::builder()
            .lanes(4.0)
            .dram(200, 64.0)
            .l1(16 * 1024, 20, 16)
            .build();
        let wl = stream_wl(8, 10.0, 1.0);
        let spec = FaultSpec::parse("seed=11,dup=0.2").unwrap();
        let mut sm = Sm::with_faults(&cfg, &wl, 3, &spec);
        sm.run(0, 50_000);
        assert!(sm.fault_counters().unwrap().dups > 0);
        assert!(sm.stats().spurious_wakes > 0);
        assert!(sm.stats().requests_completed > 100);
    }

    #[test]
    fn watchdog_converts_hang_to_typed_error() {
        // Drop every completion with no L2: no request ever completes.
        let cfg = SimConfig::builder().lanes(4.0).dram(200, 64.0).build();
        let wl = stream_wl(8, 5.0, 1.0);
        let spec = FaultSpec::parse("seed=1,drop=1").unwrap();
        let mut sm = Sm::with_faults(&cfg, &wl, 3, &spec);
        let watchdog = crate::error::Watchdog {
            stall_cycles: 20_000,
            ..Default::default()
        };
        let err = sm.run_watched(0, 10_000_000, &watchdog).unwrap_err();
        assert_eq!(
            err,
            SimError::Watchdog {
                reason: "no forward progress",
                cycles: 20_481,
                requests_completed: 0,
            }
        );
        // The stepped loop stopped on the same cycle, after the same
        // recovery sweeps, with every warp's request still outstanding.
        assert_eq!(sm.cycle(), 20_481);
        assert_eq!(sm.stats().lost_recovered, 80);
        assert_eq!(sm.outstanding_requests(), 8);
    }

    #[test]
    fn run_watched_matches_run_when_within_budget() {
        let cfg = SimConfig::builder().lanes(4.0).dram(400, 8.0).build();
        let wl = stream_wl(16, 10.0, 1.0);
        let mut a = Sm::new(&cfg, &wl, 7);
        a.run(2_000, 8_000);
        let mut b = Sm::new(&cfg, &wl, 7);
        b.run_watched(2_000, 8_000, &Watchdog::default()).unwrap();
        assert_eq!(a.stats(), b.stats());
    }

    /// The ring visits exactly the set bits, in the order `(start + off)
    /// % n` gives, also when each served bit is cleared as it is visited
    /// (a warp leaving the phase's class).
    #[test]
    fn ring_visits_set_bits_in_circular_order() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..2_000 {
            let n = rng.random_range(1usize..=192);
            let words = n.div_ceil(64);
            let density = rng.random_range(0.0..1.0);
            let mut bits = vec![0u64; words];
            for wi in 0..n {
                if rng.random::<f64>() < density {
                    bits[wi / 64] |= 1 << (wi % 64);
                }
            }
            let start = rng.random_range(0..n);
            let set = |bits: &[u64], wi: usize| bits[wi / 64] >> (wi % 64) & 1 == 1;
            let want: Vec<usize> = (0..n)
                .map(|off| (start + off) % n)
                .filter(|&wi| set(&bits, wi))
                .collect();
            let clear = rng.random::<f64>() < 0.5;
            let mut ring = Ring::new(start, &bits);
            let mut got = Vec::new();
            while let Some(wi) = ring.next(&bits) {
                got.push(wi);
                if clear {
                    bits[wi / 64] &= !(1 << (wi % 64));
                }
            }
            assert_eq!(got, want, "n {n}, start {start}");
        }
    }

    /// The census the scheduler reads equals one rebuilt from the warps
    /// after every stepped cycle: all four counts and both bitsets. Seeded
    /// configurations span 1–130 warps, MSHR files of 1–4, an L2 stage with
    /// partial bypass, DRAM faults and an initial MS fraction.
    #[test]
    fn census_matches_a_recount_after_every_cycle() {
        let specs = [
            None,
            Some("seed=3,spike=0.2x6,dup=0.1"),
            Some("seed=5,drop=0.05,throttle=700:0.4:0.2"),
        ];
        for seed in 0..24u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let warps = match seed % 4 {
                0 => rng.random_range(1u32..9),
                1 => rng.random_range(60u32..70),
                2 => rng.random_range(124u32..=130),
                _ => rng.random_range(1u32..=130),
            };
            let mut b = SimConfig::builder()
                .lanes(rng.random_range(1.0..8.0))
                .issue_width(rng.random_range(1u32..9))
                .lsu(rng.random_range(1u32..5))
                .dram(rng.random_range(20u64..400), rng.random_range(2.0..64.0));
            // Warp counts follow `seed % 4`, the L1 `seed / 4`, the L2
            // `seed / 12` and the fault spec `seed % 3`, so the four vary
            // independently of one another.
            if (seed / 4) % 3 != 0 {
                b = b.l1(4096, rng.random_range(1u64..30), rng.random_range(1u32..5));
            }
            if seed / 12 == 0 {
                b = b.l2(8192, 40, 32.0).bypass(rng.random_range(0.0..1.0));
            }
            let cfg = b.build();
            let wl = SimWorkload {
                trace: TraceSpec::PrivateWorkingSet {
                    ws_lines: rng.random_range(1u64..64),
                    stream_prob: 0.3,
                    reuse_skew: 1.0,
                },
                ops_per_request: rng.random_range(0.3..40.0),
                ilp: rng.random_range(1.0..3.0),
                warps,
            };
            let mut sm = match specs[seed as usize % specs.len()] {
                Some(text) => Sm::with_faults(&cfg, &wl, seed, &FaultSpec::parse(text).unwrap()),
                None => Sm::with_initial_ms_fraction(&cfg, &wl, seed, rng.random_range(0.0..1.0)),
            };
            sm.set_measuring((seed / 2) % 2 == 1);
            for cycle in 0..3_000 {
                sm.step();
                let recount = Census::new(sm.warps.iter().map(|w| w.state));
                assert_eq!(sm.census, recount, "seed {seed}, cycle {cycle}");
            }
        }
    }

    #[test]
    fn trajectory_sampling() {
        let cfg = SimConfig::builder().lanes(4.0).dram(400, 8.0).build();
        let wl = stream_wl(8, 10.0, 1.0);
        let mut sm = Sm::new(&cfg, &wl, 3);
        sm.trajectory_interval = 100;
        sm.run(0, 1_000);
        assert!(sm.stats().trajectory.len() >= 9);
    }
}
