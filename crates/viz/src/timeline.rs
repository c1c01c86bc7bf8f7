//! k(t) timeline reconstructed from `sim.snapshot` trace events.
//!
//! The simulator emits one `sim.snapshot` event per sampling interval
//! while tracing is enabled (`xmodel sim --trace out.jsonl`). This
//! module parses a JSONL trace back into time series — warps in the
//! memory phase `k(t)`, compute phase `x(t)`, MSHR occupancy and L1 hit
//! rate — and renders them as an ASCII chart or an SVG figure. It is the
//! dynamic companion to the static X-graph: where the X-graph shows the
//! fixed points of Eq. (1), the timeline shows the trajectory the
//! simulated SM actually follows between them.

use crate::chart::{Chart, Series};
use crate::prelude::AsciiChart;
use xmodel_obs::json::{parse, JsonValue};

/// Time series extracted from one trace file.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// `(cycle, k)` — warps waiting on memory.
    pub k: Vec<(f64, f64)>,
    /// `(cycle, x)` — warps in the compute phase.
    pub x: Vec<(f64, f64)>,
    /// `(cycle, mshrs_busy)` — occupied miss-status registers.
    pub mshrs: Vec<(f64, f64)>,
    /// `(cycle, hit_rate)` — cumulative L1 hit rate.
    pub hit_rate: Vec<(f64, f64)>,
    /// Snapshot lines seen (`k.len()` unless some were malformed).
    pub snapshots: usize,
}

impl Timeline {
    /// Build a timeline from trace lines, keeping only `sim.snapshot`
    /// events. Malformed lines and other event kinds are skipped.
    pub fn from_lines<'a>(lines: impl Iterator<Item = &'a str>) -> Timeline {
        let mut tl = Timeline::default();
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let Ok(v) = parse(line) else { continue };
            if v.get("kind").and_then(JsonValue::as_str) != Some("sim.snapshot") {
                continue;
            }
            let Some(cycle) = v.get("cycle").and_then(JsonValue::as_f64) else {
                continue;
            };
            tl.snapshots += 1;
            let push = |dst: &mut Vec<(f64, f64)>, key: &str| {
                if let Some(y) = v.get(key).and_then(JsonValue::as_f64) {
                    dst.push((cycle, y));
                }
            };
            push(&mut tl.k, "k");
            push(&mut tl.x, "x");
            push(&mut tl.mshrs, "mshrs_busy");
            push(&mut tl.hit_rate, "hit_rate");
        }
        tl
    }

    /// Read a JSONL trace file through [`xmodel_obs::read_trace_lines`]
    /// (invalid UTF-8 is replaced, not fatal) and build the timeline.
    pub fn from_path(path: &std::path::Path) -> std::io::Result<Timeline> {
        xmodel_obs::read_trace_lines(path, |lines| Timeline::from_lines(lines))
    }

    /// True when the trace held no snapshot events.
    pub fn is_empty(&self) -> bool {
        self.snapshots == 0
    }

    /// Terminal rendering: `k(t)` (`*`) and `x(t)` (`o`) on one grid.
    pub fn render_ascii(&self, width: usize, height: usize) -> String {
        if self.is_empty() {
            return "timeline: no sim.snapshot events in trace\n".to_string();
        }
        let mut c = AsciiChart::new(
            format!("k(t) [*] and x(t) [o], {} snapshots", self.snapshots),
            width,
            height,
        );
        c.add(&self.k);
        c.add(&self.x);
        c.render()
    }

    /// SVG rendering of the full timeline (k, x, MSHRs; hit rate on the
    /// right axis when present).
    pub fn to_chart(&self) -> Chart {
        let mut chart = Chart::new("Simulated SM trajectory", "cycle", "warps")
            .with(Series::line("k (memory)", self.k.clone(), 0))
            .with(Series::line("x (compute)", self.x.clone(), 1));
        if self.mshrs.iter().any(|&(_, y)| y > 0.0) {
            chart = chart.with(Series::line("MSHRs busy", self.mshrs.clone(), 2).dashed());
        }
        if self.hit_rate.iter().any(|&(_, y)| y > 0.0) {
            chart = chart
                .right_axis("L1 hit rate")
                .with(Series::line("hit rate", self.hit_rate.clone(), 3).on_right_axis());
        }
        chart
    }
}

/// Warp-state occupancy reconstructed from `sim.probe` frames
/// (`xmodel-simtrace/1` — see [`xmodel_obs::simtrace`]).
///
/// Multi-SM traces are summed per cycle, so the series show chip-wide
/// occupancy; use [`xmodel_obs::simtrace::SimTrace::header_for`] and
/// filter frames upstream for a per-SM view.
#[derive(Debug, Clone, Default)]
pub struct OccupancyTimeline {
    /// `(cycle, warps)` executing in CS.
    pub computing: Vec<(f64, f64)>,
    /// `(cycle, warps)` holding a ready request not yet issued.
    pub queued: Vec<(f64, f64)>,
    /// `(cycle, warps)` with a request in flight.
    pub waiting: Vec<(f64, f64)>,
    /// `(cycle, warps)` stalled on MSHR exhaustion.
    pub stalled: Vec<(f64, f64)>,
    /// `(cycle, k)` — warps counted in MS.
    pub k: Vec<(f64, f64)>,
    /// Probe frames consumed (across all SMs).
    pub frames: usize,
}

impl OccupancyTimeline {
    /// Aggregate a parsed simtrace into chip-wide occupancy series.
    pub fn from_trace(trace: &xmodel_obs::simtrace::SimTrace) -> OccupancyTimeline {
        use std::collections::BTreeMap;
        #[derive(Default)]
        struct Acc {
            computing: f64,
            queued: f64,
            waiting: f64,
            stalled: f64,
            k: f64,
        }
        let mut by_cycle: BTreeMap<u64, Acc> = BTreeMap::new();
        for f in &trace.frames {
            let e = by_cycle.entry(f.cycle).or_default();
            e.computing += f64::from(f.computing);
            e.queued += f64::from(f.queued);
            e.waiting += f64::from(f.waiting);
            e.stalled += f64::from(f.stalled);
            e.k += f64::from(f.k);
        }
        let mut occ = OccupancyTimeline {
            frames: trace.frames.len(),
            ..OccupancyTimeline::default()
        };
        for (cycle, v) in by_cycle {
            let c = cycle as f64;
            occ.computing.push((c, v.computing));
            occ.queued.push((c, v.queued));
            occ.waiting.push((c, v.waiting));
            occ.stalled.push((c, v.stalled));
            occ.k.push((c, v.k));
        }
        occ
    }

    /// True when the trace held no probe frames.
    pub fn is_empty(&self) -> bool {
        self.frames == 0
    }

    /// Terminal rendering: `k(t)` (`*`), computing (`o`), stalled (`+`).
    pub fn render_ascii(&self, width: usize, height: usize) -> String {
        if self.is_empty() {
            return "occupancy: no sim.probe frames in trace\n".to_string();
        }
        let mut c = AsciiChart::new(
            format!(
                "warp occupancy: k [*], computing [o], stalled [+], {} frames",
                self.frames
            ),
            width,
            height,
        );
        c.add(&self.k);
        c.add(&self.computing);
        c.add(&self.stalled);
        c.render()
    }

    /// SVG chart of every state series plus the derived `k(t)`.
    pub fn to_chart(&self) -> Chart {
        Chart::new("Warp-state occupancy", "cycle", "warps")
            .with(Series::line("computing", self.computing.clone(), 0))
            .with(Series::line("queued", self.queued.clone(), 1).dashed())
            .with(Series::line("waiting", self.waiting.clone(), 2))
            .with(Series::line("stalled", self.stalled.clone(), 3).dashed())
            .with(Series::line("k (in MS)", self.k.clone(), 4))
    }

    /// Heatmap of warp-state occupancy over time: one row per state
    /// (0 = computing, 1 = queued, 2 = waiting, 3 = stalled), one column
    /// per sampled cycle. `None` when the trace held no frames.
    pub fn to_heatmap(&self) -> Option<crate::heatmap::Heatmap> {
        if self.is_empty() {
            return None;
        }
        let xs: Vec<f64> = self.computing.iter().map(|&(c, _)| c).collect();
        let ys: Vec<f64> = (0..4).map(f64::from).collect();
        let rows = [&self.computing, &self.queued, &self.waiting, &self.stalled];
        let mut values = Vec::with_capacity(xs.len() * 4);
        for row in rows {
            values.extend(row.iter().map(|&(_, y)| y));
        }
        Some(crate::heatmap::Heatmap {
            title: "warp-state occupancy (0=computing 1=queued 2=waiting 3=stalled)".into(),
            x_label: "cycle".into(),
            y_label: "state".into(),
            xs,
            ys,
            values,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(cycle: u64, k: u64, x: u64) -> String {
        format!(
            "{{\"kind\":\"sim.snapshot\",\"t_us\":1,\"cycle\":{cycle},\"k\":{k},\"x\":{x},\
             \"mshrs_busy\":2,\"dram_inflight\":1,\"dram_backlog\":0,\"hit_rate\":0.5}}"
        )
    }

    #[test]
    fn extracts_snapshot_series() {
        let lines = [
            snapshot(256, 10, 22),
            "{\"kind\":\"solver.result\",\"t_us\":3,\"n\":32}".to_string(),
            snapshot(512, 12, 20),
            "not json at all".to_string(),
        ];
        let tl = Timeline::from_lines(lines.iter().map(String::as_str));
        assert_eq!(tl.snapshots, 2);
        assert_eq!(tl.k, vec![(256.0, 10.0), (512.0, 12.0)]);
        assert_eq!(tl.x, vec![(256.0, 22.0), (512.0, 20.0)]);
        assert_eq!(tl.mshrs.len(), 2);
        assert_eq!(tl.hit_rate, vec![(256.0, 0.5), (512.0, 0.5)]);
    }

    #[test]
    fn empty_trace_renders_placeholder() {
        let tl = Timeline::from_lines([].into_iter());
        assert!(tl.is_empty());
        assert!(tl.render_ascii(40, 8).contains("no sim.snapshot"));
    }

    #[test]
    fn ascii_render_has_both_series() {
        let lines: Vec<String> = (1..=32).map(|i| snapshot(i * 256, i, 32 - i)).collect();
        let tl = Timeline::from_lines(lines.iter().map(String::as_str));
        let s = tl.render_ascii(60, 12);
        assert!(s.contains('*') && s.contains('o'));
    }

    #[test]
    fn single_snapshot_renders_without_panic() {
        let line = snapshot(256, 10, 22);
        let tl = Timeline::from_lines([line.as_str()].into_iter());
        assert_eq!(tl.snapshots, 1);
        let ascii = tl.render_ascii(40, 8);
        assert!(ascii.contains('*'), "single-interval ascii renders");
        let svg = tl.to_chart().to_svg(320.0, 200.0);
        assert!(svg.contains("<svg"), "single-interval svg renders");
    }

    fn probe(cycle: u64, sm: u16, computing: u64, waiting: u64) -> String {
        format!(
            "{{\"kind\":\"sim.probe\",\"t_us\":1,\"cycle\":{cycle},\"sm\":{sm},\
             \"computing\":{computing},\"queued\":0,\"waiting\":{waiting},\"stalled\":0,\
             \"k\":{waiting},\"dram_inflight\":2,\"dram_backlog\":0,\"d_cycles\":256,\
             \"d_ops\":100.0,\"d_requests\":10}}"
        )
    }

    #[test]
    fn occupancy_sums_across_sms() {
        let lines = [
            probe(256, 0, 20, 12),
            probe(256, 1, 18, 14),
            probe(512, 0, 22, 10),
            probe(512, 1, 21, 11),
        ];
        let trace = xmodel_obs::simtrace::SimTrace::from_lines(lines.iter().map(String::as_str));
        let occ = OccupancyTimeline::from_trace(&trace);
        assert_eq!(occ.frames, 4);
        assert_eq!(occ.computing, vec![(256.0, 38.0), (512.0, 43.0)]);
        assert_eq!(occ.k, vec![(256.0, 26.0), (512.0, 21.0)]);
        assert!(occ.render_ascii(40, 8).contains('*'));
        assert!(occ.to_chart().to_svg(320.0, 200.0).contains("computing"));
        let hm = occ.to_heatmap().expect("non-empty heatmap");
        assert_eq!(hm.xs.len(), 2);
        assert_eq!(hm.values.len(), 8);
    }

    #[test]
    fn occupancy_handles_empty_and_single_frame_traces() {
        let empty = OccupancyTimeline::from_trace(&xmodel_obs::simtrace::SimTrace::from_lines(
            [].into_iter(),
        ));
        assert!(empty.is_empty());
        assert!(empty.render_ascii(40, 8).contains("no sim.probe"));
        assert!(empty.to_chart().to_svg(320.0, 200.0).contains("(no data)"));
        assert!(empty.to_heatmap().is_none());

        let line = probe(256, 0, 20, 12);
        let single = OccupancyTimeline::from_trace(&xmodel_obs::simtrace::SimTrace::from_lines(
            [line.as_str()].into_iter(),
        ));
        assert_eq!(single.frames, 1);
        assert!(single.render_ascii(40, 8).contains('*'));
        assert!(single.to_chart().to_svg(320.0, 200.0).contains("<svg"));
        let hm = single.to_heatmap().expect("single-frame heatmap");
        let _ = hm.to_svg(200.0, 120.0);
        let _ = hm.to_ascii();
    }

    #[test]
    fn svg_chart_includes_hit_rate_axis() {
        let lines: Vec<String> = (1..=8).map(|i| snapshot(i * 256, i, 8 - i)).collect();
        let tl = Timeline::from_lines(lines.iter().map(String::as_str));
        let svg = tl.to_chart().to_svg(640.0, 400.0);
        assert!(svg.contains("hit rate"));
        assert!(svg.contains("k (memory)"));
    }
}
