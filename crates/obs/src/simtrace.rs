//! `xmodel-simtrace/1` — the simulator timeline probe schema.
//!
//! The cycle-level simulators (`xmodel::sim::{Sm, IrSm, ChipSim}`) emit,
//! when tracing is live, one `sim.probe` event per accounting interval:
//! warp-state occupancy (how many warps are computing / queued for issue
//! / waiting on memory / stalled on MSHRs), the measured `k(t)` the
//! analytic model predicts as `k*`, DRAM in-flight and backlog depths,
//! and interval deltas of every monotone counter (ops, requests, hits,
//! misses, merges, MSHR stalls) so rates and stall attribution can be
//! recovered offline. A one-time `sim.probe_header` event per simulated
//! SM records the static context: probe interval, warp count, workload
//! intensity `z` and ILP `e`, and the SM's seed.
//!
//! This module is the *read* side: [`SimTrace`] parses a JSONL trace
//! back into typed [`ProbeFrame`]s (tolerating foreign lines — the
//! probes share the stream with spans, snapshots and the manifest) and
//! [`SimTrace::summary`] folds them into the occupancy/stall/DRAM
//! digest that `xmodel sim-report` renders. The write side lives in
//! `xmodel::sim::probe` and only ever *reads* simulator state, so traced
//! and untraced runs are byte-identical (asserted by
//! `crates/sim/tests/determinism.rs`).

use crate::json::{self, JsonValue};
use serde::Serialize;

/// Version tag for the simulator probe stream; bump when the
/// `sim.probe` / `sim.probe_header` field set changes incompatibly.
pub const SCHEMA: &str = "xmodel-simtrace/1";

/// Bucket edges (requests / cycles) shared by the DRAM in-flight and
/// backlog depth histograms the probe layer feeds; powers of two because
/// queue depths are compared against power-of-two channel counts.
pub const QUEUE_DEPTH_EDGES: [f64; 9] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0];

/// Static per-SM context from a `sim.probe_header` event.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ProbeHeader {
    /// SM index (0 for single-SM runs).
    pub sm: u16,
    /// Probe cadence in cycles.
    pub interval: u64,
    /// Resident warps on this SM.
    pub warps: u32,
    /// RNG seed of this SM (chip runs mix the run seed per SM).
    pub seed: u64,
    /// Workload intensity Z (ops per request); `None` when non-finite
    /// (a compute-only workload serializes Z = ∞ as JSON `null`).
    pub z: Option<f64>,
    /// Workload ILP E.
    pub e: Option<f64>,
}

/// One `sim.probe` event: the simulator's internal state at an interval
/// boundary, plus deltas of the monotone counters since the previous
/// frame (or since measurement start, for the first frame).
#[derive(Debug, Clone, PartialEq, Serialize, Default)]
pub struct ProbeFrame {
    /// Absolute simulation cycle of the sample.
    pub cycle: u64,
    /// SM index the sample belongs to.
    pub sm: u16,
    /// Warps executing compute ops (the model's x = n − k).
    pub computing: u32,
    /// Warps queued for issue this cycle (IssuePending).
    pub queued: u32,
    /// Warps waiting on an outstanding memory request.
    pub waiting: u32,
    /// Warps stalled on MSHR exhaustion (or at a barrier, IR mode).
    pub stalled: u32,
    /// Measured k: warps in the memory subsystem.
    pub k: u32,
    /// DRAM requests in flight at the sample cycle.
    pub dram_inflight: u64,
    /// DRAM channel backlog in cycles (0 when the channel is free).
    pub dram_backlog: u64,
    /// Measured cycles covered by this frame's deltas.
    pub d_cycles: u64,
    /// Warp-ops retired in the frame.
    pub d_ops: f64,
    /// Memory requests completed in the frame.
    pub d_requests: u64,
    /// L1 hits in the frame.
    pub d_hits: u64,
    /// L1 misses in the frame.
    pub d_misses: u64,
    /// L1 MSHR merges in the frame.
    pub d_merges: u64,
    /// Issue attempts rejected for MSHR exhaustion in the frame.
    pub d_mshr_stalls: u64,
    /// Cumulative L1 hit rate at the sample cycle.
    pub hit_rate: f64,
}

impl ProbeFrame {
    /// Warps accounted in this frame (resident warp count).
    pub fn warps(&self) -> u32 {
        self.computing + self.queued + self.waiting + self.stalled
    }

    /// Memory-system throughput over the frame, requests/cycle.
    pub fn ms_throughput(&self) -> Option<f64> {
        (self.d_cycles > 0).then(|| self.d_requests as f64 / self.d_cycles as f64)
    }

    /// Compute-system throughput over the frame, warp-ops/cycle.
    pub fn cs_throughput(&self) -> Option<f64> {
        (self.d_cycles > 0).then(|| self.d_ops / self.d_cycles as f64)
    }

    /// Little's-law memory latency estimate over the frame, cycles:
    /// `k · Δcycles / Δrequests`. `None` when no request completed.
    pub fn latency(&self) -> Option<f64> {
        (self.d_requests > 0).then(|| self.k as f64 * self.d_cycles as f64 / self.d_requests as f64)
    }
}

/// A parsed simulator probe trace: headers and frames in emission order,
/// plus whatever run-manifest context the trace carries.
#[derive(Debug, Clone, Default)]
pub struct SimTrace {
    /// One header per simulated SM, in emission order.
    pub headers: Vec<ProbeHeader>,
    /// All probe frames, in emission order (SMs interleave under
    /// `sim::chip`).
    pub frames: Vec<ProbeFrame>,
    /// Count of legacy `sim.snapshot` events seen (a trace predating
    /// this schema has snapshots but no frames).
    pub snapshots: usize,
    /// `params` map of the trace's run manifest, when present.
    pub params: std::collections::BTreeMap<String, String>,
    /// Lines that failed to parse as JSON (torn writes, truncation).
    pub malformed: usize,
}

impl SimTrace {
    /// Parse probe events out of trace lines; foreign kinds are skipped,
    /// malformed lines counted. Never fails: a trace with no probes is
    /// simply empty.
    pub fn from_lines<'a>(lines: impl Iterator<Item = &'a str>) -> SimTrace {
        let mut trace = SimTrace::default();
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            let Ok(v) = json::parse(line) else {
                trace.malformed += 1;
                continue;
            };
            match v.get("kind").and_then(JsonValue::as_str) {
                Some("sim.probe") => {
                    if let Some(frame) = parse_frame(&v) {
                        trace.frames.push(frame);
                    } else {
                        trace.malformed += 1;
                    }
                }
                Some("sim.probe_header") => {
                    if let Some(h) = parse_header(&v) {
                        trace.headers.push(h);
                    } else {
                        trace.malformed += 1;
                    }
                }
                Some("sim.snapshot") => trace.snapshots += 1,
                Some("run_manifest") => {
                    if let Some(JsonValue::Object(params)) = v.get("params") {
                        for (key, val) in params {
                            if let Some(s) = val.as_str() {
                                trace.params.insert(key.clone(), s.to_string());
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        trace
    }

    /// Parse a trace file from disk through [`crate::read_trace_lines`]:
    /// invalid UTF-8 is replaced, not fatal; only a missing/unreadable
    /// file errors.
    pub fn from_path(path: &std::path::Path) -> std::io::Result<SimTrace> {
        crate::read_trace_lines(path, |lines| Self::from_lines(lines))
    }

    /// No probe frames at all?
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Distinct SM indices with frames, ascending.
    pub fn sms(&self) -> Vec<u16> {
        let mut sms: Vec<u16> = self.frames.iter().map(|f| f.sm).collect();
        sms.sort_unstable();
        sms.dedup();
        sms
    }

    /// The header for one SM, if the trace carries it.
    pub fn header_for(&self, sm: u16) -> Option<&ProbeHeader> {
        self.headers.iter().find(|h| h.sm == sm)
    }

    /// Resident warps per SM: first header's, else inferred from the
    /// first frame's state counts.
    pub fn warps(&self) -> Option<u32> {
        self.headers
            .first()
            .map(|h| h.warps)
            .or_else(|| self.frames.first().map(ProbeFrame::warps))
    }

    /// Probe cadence in cycles: first header's, else inferred from the
    /// first two frames of the same SM.
    pub fn interval(&self) -> Option<u64> {
        if let Some(h) = self.headers.first() {
            return Some(h.interval);
        }
        let first = self.frames.first()?;
        self.frames
            .iter()
            .find(|f| f.sm == first.sm && f.cycle > first.cycle)
            .map(|f| f.cycle - first.cycle)
    }

    /// Fold the frames into the digest `xmodel sim-report` renders.
    pub fn summary(&self) -> SimTraceSummary {
        let mut s = SimTraceSummary {
            schema: SCHEMA,
            sms: self.sms().len(),
            warps: self.warps().unwrap_or(0),
            interval: self.interval().unwrap_or(0),
            frames: self.frames.len(),
            snapshots: self.snapshots,
            malformed: self.malformed,
            ..SimTraceSummary::default()
        };
        if self.frames.is_empty() {
            return s;
        }
        s.first_cycle = self.frames.iter().map(|f| f.cycle).min().unwrap_or(0);
        s.last_cycle = self.frames.iter().map(|f| f.cycle).max().unwrap_or(0);
        let n = self.frames.len() as f64;
        for f in &self.frames {
            s.mean_computing += f.computing as f64 / n;
            s.mean_queued += f.queued as f64 / n;
            s.mean_waiting += f.waiting as f64 / n;
            s.mean_stalled += f.stalled as f64 / n;
            s.mean_k += f.k as f64 / n;
            s.d_cycles += f.d_cycles;
            s.d_ops += f.d_ops;
            s.d_requests += f.d_requests;
            s.d_hits += f.d_hits;
            s.d_misses += f.d_misses;
            s.d_merges += f.d_merges;
            s.d_mshr_stalls += f.d_mshr_stalls;
        }
        if s.d_cycles > 0 {
            // Rates are per SM: frames partition each SM's measured
            // cycles, so summed deltas over summed cycles is the mean.
            s.ms_throughput = s.d_requests as f64 / s.d_cycles as f64;
            s.cs_throughput = s.d_ops / s.d_cycles as f64;
        }
        if s.d_hits + s.d_misses > 0 {
            s.hit_rate = s.d_hits as f64 / (s.d_hits + s.d_misses) as f64;
        }
        let mut inflight: Vec<f64> = self.frames.iter().map(|f| f.dram_inflight as f64).collect();
        let (p50, p95, max) = sorted_quantiles(&mut inflight);
        (
            s.dram_inflight_p50,
            s.dram_inflight_p95,
            s.dram_inflight_max,
        ) = (p50, p95, max);
        let mut backlog: Vec<f64> = self.frames.iter().map(|f| f.dram_backlog as f64).collect();
        let (p50, p95, max) = sorted_quantiles(&mut backlog);
        (s.dram_backlog_p50, s.dram_backlog_p95, s.dram_backlog_max) = (p50, p95, max);
        s
    }
}

/// In-place sort + (p50, p95, max) of a sample vector; zeros when empty.
fn sorted_quantiles(values: &mut [f64]) -> (f64, f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    values.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let at = |q: f64| values[((values.len() - 1) as f64 * q).round() as usize];
    (at(0.50), at(0.95), values[values.len() - 1])
}

/// The occupancy/stall/DRAM digest of one simtrace, serialized by
/// `xmodel sim-report --json` (schema [`SCHEMA`]).
#[derive(Debug, Clone, Default, Serialize)]
pub struct SimTraceSummary {
    /// Schema tag ([`SCHEMA`]).
    pub schema: &'static str,
    /// Distinct SMs sampled.
    pub sms: usize,
    /// Resident warps per SM.
    pub warps: u32,
    /// Probe cadence, cycles.
    pub interval: u64,
    /// Probe frames parsed.
    pub frames: usize,
    /// Legacy `sim.snapshot` events seen.
    pub snapshots: usize,
    /// Unparseable lines.
    pub malformed: usize,
    /// First sampled cycle.
    pub first_cycle: u64,
    /// Last sampled cycle.
    pub last_cycle: u64,
    /// Mean warps executing compute ops.
    pub mean_computing: f64,
    /// Mean warps queued for issue.
    pub mean_queued: f64,
    /// Mean warps waiting on memory.
    pub mean_waiting: f64,
    /// Mean warps stalled on MSHRs/barriers.
    pub mean_stalled: f64,
    /// Mean measured k.
    pub mean_k: f64,
    /// Total measured cycles across frames (per-SM cycles summed).
    pub d_cycles: u64,
    /// Total warp-ops retired in frames.
    pub d_ops: f64,
    /// Total requests completed in frames.
    pub d_requests: u64,
    /// Total L1 hits in frames.
    pub d_hits: u64,
    /// Total L1 misses in frames.
    pub d_misses: u64,
    /// Total MSHR merges in frames.
    pub d_merges: u64,
    /// Total MSHR-exhaustion stalls in frames.
    pub d_mshr_stalls: u64,
    /// Mean per-SM MS throughput, requests/cycle.
    pub ms_throughput: f64,
    /// Mean per-SM CS throughput, warp-ops/cycle.
    pub cs_throughput: f64,
    /// Aggregate L1 hit rate over the frames.
    pub hit_rate: f64,
    /// Median DRAM in-flight depth at probe boundaries.
    pub dram_inflight_p50: f64,
    /// 95th-percentile DRAM in-flight depth.
    pub dram_inflight_p95: f64,
    /// Maximum DRAM in-flight depth.
    pub dram_inflight_max: f64,
    /// Median DRAM backlog, cycles.
    pub dram_backlog_p50: f64,
    /// 95th-percentile DRAM backlog, cycles.
    pub dram_backlog_p95: f64,
    /// Maximum DRAM backlog, cycles.
    pub dram_backlog_max: f64,
}

impl SimTraceSummary {
    /// Serialize as one compact JSON line.
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }

    /// Occupancy shares of warp-time by state, in render order
    /// `(label, mean warps, share of resident warps)`.
    pub fn occupancy_shares(&self) -> [(&'static str, f64, f64); 4] {
        let total =
            (self.mean_computing + self.mean_queued + self.mean_waiting + self.mean_stalled)
                .max(f64::MIN_POSITIVE);
        let row = |label, mean: f64| (label, mean, mean / total);
        [
            row("computing", self.mean_computing),
            row("queued", self.mean_queued),
            row("waiting", self.mean_waiting),
            row("stalled", self.mean_stalled),
        ]
    }

    /// Render the human-readable digest (the top half of
    /// `xmodel sim-report`; the occupancy timeline chart follows it).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if self.frames == 0 {
            out.push_str("simtrace: no sim.probe frames in trace");
            if self.snapshots > 0 {
                let _ = write!(
                    out,
                    " ({} legacy sim.snapshot events; re-run the sim with this build to probe)",
                    self.snapshots
                );
            }
            out.push('\n');
            return out;
        }
        let _ = writeln!(
            out,
            "simtrace: {} frame(s) from {} SM(s), {} warps, interval {} (cycles {}..{})",
            self.frames, self.sms, self.warps, self.interval, self.first_cycle, self.last_cycle
        );
        if self.malformed > 0 {
            let _ = writeln!(out, "warning: {} malformed line(s) skipped", self.malformed);
        }
        out.push_str("warp-state occupancy (mean warps, share of warp-time):\n");
        for (label, mean, share) in self.occupancy_shares() {
            let bar = "#".repeat((share * 32.0).round() as usize);
            let _ = writeln!(
                out,
                "  {label:<10} {mean:>6.2}  {:>5.1}%  {bar}",
                share * 100.0
            );
        }
        let _ = writeln!(
            out,
            "measured state: mean k = {:.2} (model's k*), mean x = {:.2}",
            self.mean_k,
            (self.warps as f64 - self.mean_k).max(0.0)
        );
        let _ = writeln!(
            out,
            "throughput from probe deltas: MS {:.4} req/cyc, CS {:.4} ops/cyc per SM",
            self.ms_throughput, self.cs_throughput
        );
        let _ = writeln!(
            out,
            "DRAM: in-flight p50 {:.0} p95 {:.0} max {:.0}; backlog cycles p50 {:.0} p95 {:.0} max {:.0}",
            self.dram_inflight_p50,
            self.dram_inflight_p95,
            self.dram_inflight_max,
            self.dram_backlog_p50,
            self.dram_backlog_p95,
            self.dram_backlog_max
        );
        if self.d_hits + self.d_misses > 0 {
            let _ = writeln!(
                out,
                "L1: hit rate {:.2} ({} hits / {} misses / {} merges, {} MSHR stalls)",
                self.hit_rate, self.d_hits, self.d_misses, self.d_merges, self.d_mshr_stalls
            );
        }
        out
    }
}

fn get_u64(v: &JsonValue, key: &str) -> Option<u64> {
    v.get(key).and_then(JsonValue::as_u64)
}

fn get_f64(v: &JsonValue, key: &str) -> Option<f64> {
    v.get(key).and_then(JsonValue::as_f64)
}

fn parse_header(v: &JsonValue) -> Option<ProbeHeader> {
    Some(ProbeHeader {
        sm: get_u64(v, "sm")? as u16,
        interval: get_u64(v, "interval")?,
        warps: get_u64(v, "warps")? as u32,
        seed: get_u64(v, "seed")?,
        z: get_f64(v, "z"),
        e: get_f64(v, "e"),
    })
}

fn parse_frame(v: &JsonValue) -> Option<ProbeFrame> {
    Some(ProbeFrame {
        cycle: get_u64(v, "cycle")?,
        sm: get_u64(v, "sm")? as u16,
        computing: get_u64(v, "computing")? as u32,
        queued: get_u64(v, "queued")? as u32,
        waiting: get_u64(v, "waiting")? as u32,
        stalled: get_u64(v, "stalled")? as u32,
        k: get_u64(v, "k")? as u32,
        dram_inflight: get_u64(v, "dram_inflight")?,
        dram_backlog: get_u64(v, "dram_backlog")?,
        d_cycles: get_u64(v, "d_cycles")?,
        d_ops: get_f64(v, "d_ops")?,
        d_requests: get_u64(v, "d_requests")?,
        d_hits: get_u64(v, "d_hits").unwrap_or(0),
        d_misses: get_u64(v, "d_misses").unwrap_or(0),
        d_merges: get_u64(v, "d_merges").unwrap_or(0),
        d_mshr_stalls: get_u64(v, "d_mshr_stalls").unwrap_or(0),
        hit_rate: get_f64(v, "hit_rate").unwrap_or(0.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_line(cycle: u64, sm: u16, k: u32, d_requests: u64) -> String {
        format!(
            r#"{{"kind":"sim.probe","t_us":1,"cycle":{cycle},"sm":{sm},"computing":3,"queued":1,"waiting":{},"stalled":2,"k":{k},"dram_inflight":12,"dram_backlog":0,"d_cycles":256,"d_ops":800.5,"d_requests":{d_requests},"d_hits":10,"d_misses":30,"d_merges":2,"d_mshr_stalls":5,"hit_rate":0.25}}"#,
            k - 2
        )
    }

    #[test]
    fn parses_headers_frames_and_manifest_params() {
        let lines = [
            r#"{"kind":"sim.probe_header","t_us":0,"schema":"xmodel-simtrace/1","sm":0,"interval":256,"warps":24,"seed":42,"z":20,"e":1}"#.to_string(),
            frame_line(256, 0, 18, 19),
            frame_line(512, 0, 20, 21),
            r#"{"kind":"sim.snapshot","t_us":2,"cycle":256,"k":18}"#.to_string(),
            r#"{"kind":"run_manifest","params":{"workload":"gesummv","gpu":"fermi"}}"#.to_string(),
            "not json".to_string(),
        ];
        let trace = SimTrace::from_lines(lines.iter().map(String::as_str));
        assert_eq!(trace.frames.len(), 2);
        assert_eq!(trace.headers.len(), 1);
        assert_eq!(trace.snapshots, 1);
        assert_eq!(trace.malformed, 1);
        assert_eq!(trace.warps(), Some(24));
        assert_eq!(trace.interval(), Some(256));
        assert_eq!(trace.sms(), vec![0]);
        assert_eq!(trace.params["workload"], "gesummv");
        let f = &trace.frames[0];
        assert_eq!(f.warps(), 3 + 1 + 16 + 2);
        assert!((f.ms_throughput().unwrap() - 19.0 / 256.0).abs() < 1e-12);
        assert!((f.cs_throughput().unwrap() - 800.5 / 256.0).abs() < 1e-12);
        assert!((f.latency().unwrap() - 18.0 * 256.0 / 19.0).abs() < 1e-9);
    }

    #[test]
    fn summary_aggregates_and_renders() {
        let lines = [
            frame_line(256, 0, 18, 19),
            frame_line(512, 0, 20, 21),
            frame_line(256, 1, 10, 9),
        ];
        let trace = SimTrace::from_lines(lines.iter().map(String::as_str));
        let s = trace.summary();
        assert_eq!(s.frames, 3);
        assert_eq!(s.sms, 2);
        assert_eq!(s.d_requests, 49);
        assert_eq!(s.d_cycles, 3 * 256);
        assert!((s.ms_throughput - 49.0 / 768.0).abs() < 1e-12);
        assert!((s.mean_k - (18.0 + 20.0 + 10.0) / 3.0).abs() < 1e-12);
        assert!(s.hit_rate > 0.0 && s.hit_rate < 1.0);
        let text = s.render();
        assert!(text.contains("warp-state occupancy"));
        assert!(text.contains("computing"));
        assert!(text.contains("DRAM"));
        // Shares sum to ~1.
        let total: f64 = s.occupancy_shares().iter().map(|(_, _, sh)| sh).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_and_headerless_traces_degrade_gracefully() {
        let empty = SimTrace::from_lines(std::iter::empty());
        assert!(empty.is_empty());
        assert_eq!(empty.warps(), None);
        assert_eq!(empty.interval(), None);
        let text = empty.summary().render();
        assert!(text.contains("no sim.probe frames"));

        // No header: warps and interval inferred from frames.
        let lines = [frame_line(256, 0, 18, 19), frame_line(512, 0, 20, 21)];
        let trace = SimTrace::from_lines(lines.iter().map(String::as_str));
        assert_eq!(trace.warps(), Some(3 + 1 + 16 + 2));
        assert_eq!(trace.interval(), Some(256));
        // Single frame: interval cannot be inferred.
        let one = SimTrace::from_lines(std::iter::once(lines[0].as_str()));
        assert_eq!(one.interval(), None);
        assert_eq!(one.summary().frames, 1);
    }
}
