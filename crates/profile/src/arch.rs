//! GPU preset → simulator configuration, and the simulator side of a
//! §V pairing of a preset, a suite app and an L1.

use crate::fitting::{resident_warps, workload_precision};
use xmodel_core::presets::{GpuSpec, Precision};
use xmodel_sim::{CacheConfig, SimConfig, SimWorkload};
use xmodel_workloads::Workload;

/// Build a per-SM simulator configuration for a GPU at a precision.
///
/// * DRAM bandwidth: the SM's share of the *sustained* chip bandwidth
///   (Table II δ column), expressed in bytes/cycle of 128-byte sim lines —
///   for double precision each model request is two lines, so the line
///   rate is the same but the caller interprets bytes at 256 B/request.
/// * DRAM latency: the preset's derived `L` minus the L1 hit latency the
///   request path adds (floor 100 cycles).
/// * Lanes/issue/LSU widths follow Table II (`SP/32`, dispatch units,
///   `LDS/16` half-warp ports).
///
/// The L1 is *not* configured here — [`sim_pairing`] adds it per
/// experiment (Kepler global loads skip L1 by default; the Fermi case
/// study turns it on at 16 or 48 KiB).
pub fn sim_config_for(spec: &GpuSpec, precision: Precision) -> SimConfig {
    let params = spec.machine_params(precision);
    // Requests/cycle × 128-byte sim lines.
    let line_bytes_per_cycle = params.r * 128.0;
    let dram_latency = (params.l - 60.0).max(100.0) as u64;
    SimConfig::builder()
        .lanes(params.m)
        .issue_width(spec.dispatch as u32)
        .lsu((spec.lds_per_sm as u32 / 16).max(1))
        .dram(dram_latency, line_bytes_per_cycle)
        .build()
}

/// The simulator side of pairing `workload` with `spec` at an `l1_bytes`
/// L1 (0 for none); [`crate::fitting::assemble_model`] at the same
/// arguments is the model side.
///
/// * [`sim_config_for`] at the workload's precision, with `128 · coalesce`
///   bytes per request (the model divides `R` by `coalesce` instead);
/// * for a non-zero `l1_bytes`, an L1 of 128-byte lines, 8 ways, 28-cycle
///   hits and 64 MSHRs;
/// * `Z` and `E` from the kernel's static analysis, and the model's `n` as
///   the warp count. That is 0 when the L1 leaves a block no shared memory
///   (all 64 KiB on Fermi), which [`SimWorkload::validate`] rejects.
///
/// It fits no locality: the simulator has no use for the model's `(α, β)`.
pub fn sim_pairing(spec: &GpuSpec, workload: &Workload, l1_bytes: u64) -> (SimConfig, SimWorkload) {
    let mut cfg = sim_config_for(spec, workload_precision(workload));
    cfg.request_bytes = 128.0 * workload.coalesce;
    if l1_bytes > 0 {
        cfg.l1 = Some(CacheConfig {
            capacity_bytes: l1_bytes,
            line_bytes: 128,
            ways: 8,
            hit_latency: 28,
            mshrs: 64,
        });
    }
    let analysis = workload.kernel.analyze();
    let wl = SimWorkload {
        trace: workload.trace,
        ops_per_request: analysis.intensity,
        ilp: analysis.ilp,
        warps: resident_warps(spec, workload, l1_bytes),
    };
    (cfg, wl)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kepler_sp_config() {
        let spec = GpuSpec::kepler_k40();
        let cfg = sim_config_for(&spec, Precision::Single);
        assert_eq!(cfg.lanes, 6.0);
        assert_eq!(cfg.issue_width, 8);
        assert_eq!(cfg.lsu_per_cycle, 2);
        // R ≈ 0.107 req/cyc → ≈ 13.7 line-bytes/cycle.
        assert!((cfg.dram.bytes_per_cycle - 13.7).abs() < 0.2);
        assert!(cfg.l1.is_none());
    }

    #[test]
    fn fermi_has_narrow_lsu() {
        let cfg = sim_config_for(&GpuSpec::fermi_gtx570(), Precision::Single);
        assert_eq!(cfg.lsu_per_cycle, 1);
        assert_eq!(cfg.lanes, 1.0);
    }

    #[test]
    fn dp_keeps_line_rate_but_fewer_lanes() {
        let spec = GpuSpec::kepler_k40();
        let sp = sim_config_for(&spec, Precision::Single);
        let dp = sim_config_for(&spec, Precision::Double);
        assert!(dp.lanes < sp.lanes);
        // Sustained DP bandwidth (200 GB/s) exceeds SP's (180): line rate
        // at 256 B per request is lower than SP's at 128 B.
        assert!(dp.dram.bytes_per_cycle < sp.dram.bytes_per_cycle);
    }

    #[test]
    fn pairing_runs_the_models_n() {
        use crate::fitting::assemble_model;
        for spec in GpuSpec::all() {
            for w in Workload::suite() {
                for l1_kib in [0, 16, 48, 64] {
                    let (_, wl) = sim_pairing(&spec, &w, l1_kib * 1024);
                    let n = assemble_model(&spec, &w, l1_kib * 1024).workload.n;
                    assert_eq!(f64::from(wl.warps), n, "{} on {}", w.name, spec.name);
                }
            }
        }
    }

    #[test]
    fn latency_floor_applies() {
        for spec in GpuSpec::all() {
            for p in [Precision::Single, Precision::Double] {
                let cfg = sim_config_for(&spec, p);
                assert!(cfg.dram.latency >= 100);
            }
        }
    }
}
