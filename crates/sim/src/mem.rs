//! The memory side both SM drivers share: what lies between a warp's
//! request and its wake-up. [`crate::sm::Sm`] and [`crate::exec::IrSm`]
//! each own one; they differ only above it, in how a warp comes to make a
//! request and what it does when woken.

use crate::cache::{Access, L1Cache, SimpleCache};
use crate::config::{DramConfig, SimConfig};
use crate::dram::Dram;
use crate::fault::{FaultCounters, FaultInjector, FaultSpec};
use crate::stats::SimStats;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::rc::Rc;

/// Tag bit marking a DRAM completion that wakes a warp directly (bypass or
/// no-L1) rather than completing an MSHR fill.
pub(crate) const TAG_DIRECT: u64 = 1 << 63;

/// Bit offset where a chip-level simulation stores the SM id in shared
/// DRAM tags (see [`crate::chip`]).
pub(crate) const TAG_SM_SHIFT: u32 = 48;

/// Width of the SM id field: bits `TAG_SM_SHIFT..63`, below [`TAG_DIRECT`].
pub(crate) const TAG_SM_BITS: u32 = 63 - TAG_SM_SHIFT;

/// Cycle period of the lost-request recovery sweep under fault injection.
const RECOVERY_SWEEP: u64 = 256;

/// A DRAM attachment: private channel, or a chip-shared channel the SM
/// submits to with its id encoded in the tag (completions are routed back
/// by the chip driver).
enum DramPort {
    Own(Box<Dram>),
    Shared(Rc<RefCell<Dram>>, u64),
}

/// One SM's L1 with its MSHRs, L2 stage, DRAM port, return queue, drop
/// ledger and completion drain.
pub(crate) struct MemSide {
    l1: Option<L1Cache>,
    l2: Option<(SimpleCache, Dram)>,
    dram: DramPort,
    /// `(cycle, warp, counts_as_request)` returns that skip the DRAM
    /// model: L1 hits, which complete a request, and the IR driver's
    /// shared-memory accesses, which do not.
    returns: BinaryHeap<Reverse<(u64, u32, bool)>>,
    drain_buf: Vec<u64>,
    /// This cycle's `(warp, counts_as_request)` wake-ups, in order.
    wakes: VecDeque<(u32, bool)>,
    cfg: SimConfig,
    /// Bytes one request moves: `request_bytes` rounded, at least 1.
    bytes: u64,
    warps: u32,
    /// Under drop faults, the age in cycles at which a request in the
    /// ledger is presumed lost and re-submitted; `None` keeps no ledger.
    recovery_timeout: Option<u64>,
    /// In-flight requests by tag → `(submit_cycle, addr)`, kept under
    /// drop faults (a `BTreeMap` so sweep order is deterministic).
    outstanding: BTreeMap<u64, (u64, u64)>,
}

impl MemSide {
    /// The memory side of an SM with `warps` resident warps, on a private
    /// DRAM channel.
    pub(crate) fn new(cfg: &SimConfig, warps: u32) -> Self {
        Self {
            l1: cfg.l1.map(L1Cache::new),
            l2: cfg.l2.map(|l2| {
                (
                    SimpleCache::new(l2.capacity_bytes, 128),
                    Dram::new(DramConfig {
                        latency: l2.latency,
                        bytes_per_cycle: l2.bytes_per_cycle,
                    }),
                )
            }),
            dram: DramPort::Own(Box::new(Dram::new(cfg.dram))),
            returns: BinaryHeap::new(),
            drain_buf: Vec::new(),
            wakes: VecDeque::new(),
            cfg: *cfg,
            bytes: cfg.request_bytes.round().max(1.0) as u64,
            warps,
            recovery_timeout: None,
            outstanding: BTreeMap::new(),
        }
    }

    /// Inject `spec`'s memory faults on the private DRAM channel. If it
    /// drops completions, keep a ledger of requests in flight, from which
    /// a periodic sweep re-submits overdue ones under their original tag.
    pub(crate) fn set_faults(&mut self, spec: &FaultSpec) {
        if !spec.perturbs_memory() {
            return;
        }
        if let DramPort::Own(d) = &mut self.dram {
            d.set_faults(FaultInjector::new(spec));
        }
        // Overdue: older than the worst-case service time under the spec's
        // spike and throttle factors plus full-fleet queueing, with margin.
        // Too short only re-submits requests whose second completion the
        // wake guard absorbs; too long delays recovery.
        let cfg = &self.cfg;
        let transfer = (cfg.request_bytes / cfg.dram.bytes_per_cycle)
            .ceil()
            .max(1.0);
        let slow = 1.0 / spec.throttle_factor.clamp(0.01, 1.0);
        let latency = cfg.dram.latency as f64 * spec.spike_factor.max(1.0);
        let queueing = self.warps as f64 * transfer * slow;
        let timeout = (4.0 * (latency + transfer * slow) + queueing).ceil() as u64 + 1024;
        self.recovery_timeout = (spec.drop_prob > 0.0).then_some(timeout);
    }

    /// Bytes one request moves, and delivers when it completes.
    #[inline]
    pub(crate) fn request_bytes(&self) -> u64 {
        self.bytes
    }

    /// Whether a request's address decides anything here: only an L1 or
    /// an L2 stage reads it. The drop ledger keeps it only to hand it
    /// back to them when it re-submits a lost request.
    #[inline]
    pub(crate) fn reads_addresses(&self) -> bool {
        self.l1.is_some() || self.l2.is_some()
    }

    /// Submit to a chip-shared DRAM channel as SM `sm_id` from now on.
    pub(crate) fn attach_shared_dram(&mut self, dram: Rc<RefCell<Dram>>, sm_id: u16) {
        self.dram = DramPort::Shared(dram, (sm_id as u64) << TAG_SM_SHIFT);
    }

    /// Send a request for `addr` into the memory hierarchy below L1:
    /// probe L2 when configured (hits ride the L2 channel; misses install
    /// the line and fall through to DRAM), else go straight to DRAM.
    fn submit(&mut self, now: u64, addr: u64, tag: u64) {
        let bytes = self.bytes;
        if self.recovery_timeout.is_some() {
            self.outstanding.insert(tag, (now, addr));
        }
        if let Some((cache, channel)) = self.l2.as_mut() {
            if cache.probe_insert(addr) {
                channel.submit(now, bytes, tag);
                return;
            }
        }
        match &mut self.dram {
            DramPort::Own(d) => d.submit(now, bytes, tag),
            DramPort::Shared(d, smbits) => d.borrow_mut().submit(now, bytes, tag | *smbits),
        };
    }

    /// Hand `warp`'s request for `addr` to the memory system: a bypassing
    /// warp goes straight below L1, the rest access L1 (counted in `stats`
    /// while `measuring`). False when no MSHR is free: the warp stalls.
    #[inline]
    pub(crate) fn issue(
        &mut self,
        now: u64,
        warp: usize,
        addr: u64,
        measuring: bool,
        stats: &mut SimStats,
    ) -> bool {
        let bypass = warp as f64 >= (1.0 - self.cfg.bypass_fraction) * self.warps as f64;
        let Some(l1) = self.l1.as_mut().filter(|_| !bypass) else {
            self.submit(now, addr, TAG_DIRECT | warp as u64);
            return true;
        };
        let (counter, accepted) = match l1.access(addr, warp as u32) {
            Access::Hit => {
                let at = now + self.cfg.l1.map_or(1, |c| c.hit_latency);
                self.returns.push(Reverse((at, warp as u32, true)));
                (&mut stats.l1_hits, true)
            }
            Access::MissAllocated { mshr } => {
                self.submit(now, addr, mshr as u64);
                (&mut stats.l1_misses, true)
            }
            Access::MissMerged { .. } => (&mut stats.l1_merges, true),
            Access::MshrFull => (&mut stats.mshr_stalls, false),
        };
        if measuring {
            *counter += 1;
        }
        accepted
    }

    /// Wake `warp` at cycle `at` without going through DRAM; `counts`
    /// says whether that completes a memory request.
    pub(crate) fn push_return(&mut self, at: u64, warp: u32, counts: bool) {
        self.returns.push(Reverse((at, warp, counts)));
    }

    /// Collect cycle `now`'s wake-ups for [`MemSide::next_wake`], in
    /// order: the `injected` tags a chip routed from its shared channel,
    /// the private DRAM channel's, the L2 channel's, then the returns due.
    /// A fill wakes every warp merged on its MSHR; one for an idle MSHR (a
    /// duplicate under fault injection) counts as a spurious wake. Under
    /// drop faults the recovery sweep runs before the returns.
    ///
    /// A cycle with no injected tag, no ledger and nothing due returns
    /// before touching a queue: it has nothing to collect.
    #[inline]
    pub(crate) fn complete(&mut self, now: u64, injected: &[u64], stats: &mut SimStats) {
        if injected.is_empty() && self.recovery_timeout.is_none() && self.next_due() > now {
            return;
        }
        let mut tags = std::mem::take(&mut self.drain_buf);
        tags.extend_from_slice(injected);
        if let DramPort::Own(d) = &mut self.dram {
            d.drain_completions(now, &mut tags);
        }
        if let Some((_, channel)) = self.l2.as_mut() {
            channel.drain_completions(now, &mut tags);
        }
        for tag in tags.drain(..) {
            if self.recovery_timeout.is_some() {
                self.outstanding.remove(&tag);
            }
            if tag & TAG_DIRECT != 0 {
                self.wakes.push_back(((tag & !TAG_DIRECT) as u32, true));
                continue;
            }
            // A fill wakes its waiters in order and leaves the MSHR their
            // buffer; one for an idle MSHR, or without an L1, is absorbed.
            match self
                .l1
                .as_mut()
                .and_then(|l1| l1.try_complete_fill(tag as usize))
            {
                Some(waiters) => self.wakes.extend(waiters.iter().map(|&w| (w, true))),
                None => stats.spurious_wakes += 1,
            }
        }
        self.drain_buf = tags;
        if let Some(timeout) = self.recovery_timeout {
            if now % RECOVERY_SWEEP == 0 && !self.outstanding.is_empty() {
                self.recover_lost(now, timeout, stats);
            }
        }
        while let Some(&Reverse((t, warp, counts))) = self.returns.peek() {
            if t > now {
                break;
            }
            self.returns.pop();
            self.wakes.push_back((warp, counts));
        }
    }

    /// The next `(warp, counts_as_request)` wake-up of this cycle.
    pub(crate) fn next_wake(&mut self) -> Option<(u32, bool)> {
        self.wakes.pop_front()
    }

    /// Re-submit requests whose completion is overdue (lost to a drop
    /// fault) under their original tag, so the eventual completion still
    /// routes to the right MSHR or warp.
    fn recover_lost(&mut self, now: u64, timeout: u64, stats: &mut SimStats) {
        let overdue: Vec<(u64, u64)> = self
            .outstanding
            .iter()
            .filter(|&(_, &(t0, _))| now.saturating_sub(t0) >= timeout)
            .map(|(&tag, &(_, addr))| (tag, addr))
            .collect();
        for (tag, addr) in overdue {
            stats.lost_recovered += 1;
            xmodel_obs::event!("sim.fault.recovered", cycle = now, tag = tag);
            self.submit(now, addr, tag);
        }
    }

    /// The earliest cycle at which something falls due on this side's own
    /// queues: a completion on the private DRAM channel or the L2 channel,
    /// or a return. `u64::MAX` while all three are empty.
    #[inline]
    fn next_due(&self) -> u64 {
        let head = |t: Option<u64>| t.unwrap_or(u64::MAX);
        let dram = match &self.dram {
            DramPort::Own(d) => head(d.next_completion()),
            DramPort::Shared(..) => u64::MAX,
        };
        let l2 = self
            .l2
            .as_ref()
            .map_or(u64::MAX, |(_, l2)| head(l2.next_completion()));
        let ret = head(self.returns.peek().map(|&Reverse((t, _, _))| t));
        dram.min(l2).min(ret)
    }

    /// The first cycle after `now`, capped at `limit`, at which this side
    /// has work: a completion or return due or, under drop faults, a
    /// recovery sweep. `None` on a chip-shared channel, whose completions
    /// arrive from outside.
    pub(crate) fn idle_until(&self, now: u64, limit: u64) -> Option<u64> {
        if let DramPort::Shared(..) = self.dram {
            return None;
        }
        let sweep = self
            .recovery_timeout
            .and_then(|_| now.checked_next_multiple_of(RECOVERY_SWEEP));
        Some(sweep.map_or(limit, |t| t.min(limit)).min(self.next_due()))
    }

    /// `(busy MSHRs, DRAM requests in flight, cycles from now until the
    /// DRAM channel frees)`, for trace snapshots.
    pub(crate) fn depth(&self, now: u64) -> (usize, usize, u64) {
        let mshrs = self.l1.as_ref().map_or(0, L1Cache::mshrs_busy);
        let depth = |d: &Dram| (mshrs, d.in_flight(), d.channel_free().saturating_sub(now));
        match &self.dram {
            DramPort::Own(d) => depth(d),
            DramPort::Shared(d, _) => depth(&d.borrow()),
        }
    }

    /// Faults the DRAM channel has injected, if it has an injector.
    pub(crate) fn fault_counters(&self) -> Option<FaultCounters> {
        match &self.dram {
            DramPort::Own(d) => d.fault_counters(),
            DramPort::Shared(d, _) => d.borrow().fault_counters(),
        }
    }

    /// Requests in the recovery ledger (0 unless drop faults are active).
    pub(crate) fn outstanding_requests(&self) -> usize {
        self.outstanding.len()
    }
}
