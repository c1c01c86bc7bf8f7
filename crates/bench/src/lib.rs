//! # xmodel-bench — experiment harness
//!
//! One binary per table/figure of the paper (see `src/bin/`), each
//! printing the regenerated rows/series to stdout and writing CSV data
//! plus an SVG rendering under `target/experiments/`. The `benches/`
//! directory holds Criterion micro-benchmarks of the reproduction itself
//! (solver, simulator, cache model, trace generation) including the
//! ablations DESIGN.md calls out.

#![forbid(unsafe_code)]

/// Bench-snapshot format version, shared by `bench-report` (the
/// measure/compare harness) and `serve-load` (the daemon load
/// generator) so `scripts/bench_gate.sh` can gate either file; bump on
/// incompatible change.
pub const BENCH_SCHEMA: &str = "xmodel-bench/1";

use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;

/// Experiment output directory (`target/experiments`), created on demand.
pub fn out_dir() -> io::Result<PathBuf> {
    let dir = PathBuf::from("target/experiments");
    std::fs::create_dir_all(dir.join("figs"))?;
    Ok(dir)
}

/// Write a CSV file under the experiment directory.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) -> io::Result<PathBuf> {
    let mut text = String::new();
    let _ = writeln!(text, "{}", header.join(","));
    for row in rows {
        let _ = writeln!(text, "{}", row.join(","));
    }
    let path = out_dir()?.join(format!("{name}.csv"));
    std::fs::write(&path, text)?;
    Ok(path)
}

/// Write an SVG figure under `target/experiments/figs`.
pub fn save_svg(name: &str, svg: &str) -> io::Result<PathBuf> {
    let path = out_dir()?.join("figs").join(format!("{name}.svg"));
    std::fs::write(&path, svg)?;
    Ok(path)
}

/// Write a JSON report under the experiment directory.
pub fn write_json<T: serde::Serialize>(name: &str, value: &T) -> io::Result<PathBuf> {
    let text = xmodel_obs::json::try_to_string(value).map_err(io::Error::other)?;
    let path = out_dir()?.join(format!("{name}.json"));
    std::fs::write(&path, text)?;
    Ok(path)
}

/// Print an aligned table to stdout.
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            let _ = write!(s, "{:>w$}  ", c, w = widths.get(i).copied().unwrap_or(8));
        }
        println!("{}", s.trim_end());
    };
    line(&header.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Format a float with `d` decimals, as a `String` cell.
pub fn cell(v: f64, d: usize) -> String {
    format!("{v:.d$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_writes_and_is_readable() {
        let p = write_csv(
            "selftest",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        )
        .unwrap();
        let text = std::fs::read_to_string(p).unwrap();
        assert_eq!(text, "a,b\n1,2\n3,4\n");
    }

    #[test]
    fn svg_saved() {
        let p = save_svg("selftest", "<svg/>").unwrap();
        assert!(p.exists());
    }

    #[test]
    fn cell_formats() {
        assert_eq!(cell(1.23456, 2), "1.23");
        assert_eq!(cell(10.0, 0), "10");
    }
}

/// Shared setup for the §VI case-study experiments (Figs. 12–18).
pub mod case_study {
    use xmodel::prelude::*;

    /// The case-study application.
    pub fn app() -> Workload {
        Workload::get(WorkloadId::Gesummv)
    }

    /// The case-study platform.
    pub fn gpu() -> GpuSpec {
        GpuSpec::fermi_gtx570()
    }

    /// Assembled analytic model with an `l1_kib` KiB L1.
    pub fn model(l1_kib: u64) -> xmodel::core::XModel {
        xmodel::profile::fitting::assemble_model(&gpu(), &app(), l1_kib * 1024)
    }

    /// Simulator configuration for the case study: Fermi SM share with an
    /// L1 of `l1_kib` KiB (0 disables), a 51 KiB L2 share, gesummv's 3×
    /// coalescing factor, and `bypass` fraction of warps skipping L1.
    pub fn sim_config(l1_kib: u64, bypass: f64) -> SimConfig {
        let base = xmodel::profile::sim_config_for(&gpu(), Precision::Single);
        let mut b = SimConfig::builder()
            .lanes(base.lanes)
            .issue_width(base.issue_width)
            .lsu(base.lsu_per_cycle)
            .dram(base.dram.latency, base.dram.bytes_per_cycle)
            .request_bytes(128.0 * app().coalesce)
            .l2(51 * 1024, 180, base.dram.bytes_per_cycle * 2.0);
        if l1_kib > 0 {
            b = b.l1(l1_kib * 1024, 28, 64).bypass(bypass);
        }
        b.build()
    }

    /// Simulator workload for gesummv at `warps` resident warps.
    pub fn sim_workload(warps: u32) -> SimWorkload {
        let a = app().kernel.analyze();
        SimWorkload {
            trace: app().trace,
            ops_per_request: a.intensity,
            ilp: a.ilp,
            warps,
        }
    }

    /// Measured MS throughput (useful requests/cycle) for a configuration.
    pub fn measure(l1_kib: u64, bypass: f64, warps: u32) -> f64 {
        xmodel::sim::simulate(
            &sim_config(l1_kib, bypass),
            &sim_workload(warps),
            30_000,
            80_000,
        )
        .ms_throughput()
    }
}
