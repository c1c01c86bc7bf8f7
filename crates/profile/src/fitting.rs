//! Assemble a complete X-model for one workload on one architecture.
//!
//! This is the §IV pipeline end-to-end: machine parameters from the
//! Table II presets (equivalently, from stream/peak profiling), workload
//! parameters `E`/`Z` from static analysis of the kernel IR, `n` from the
//! occupancy calculation, and — when an L1 is modelled — locality `(α, β)`
//! fitted from the workload's trace.

use xmodel_core::cache::CacheParams;
use xmodel_core::params::WorkloadParams;
use xmodel_core::presets::{GpuGeneration, GpuSpec, Precision};
use xmodel_core::XModel;
use xmodel_isa::{ArchLimits, Occupancy};
use xmodel_workloads::locality::fit_trace_capacities;
use xmodel_workloads::Workload;

/// Architecture residency limits for a GPU spec (for the occupancy step).
pub fn arch_limits(spec: &GpuSpec, l1_bytes: u64) -> ArchLimits {
    match spec.generation {
        GpuGeneration::Fermi => {
            // Fermi splits a 64 KiB array between L1 and shared memory;
            // an L1 claiming all of it (or more) leaves no shared memory.
            let shared = (64 * 1024u64).saturating_sub(l1_bytes);
            ArchLimits::fermi(shared as u32)
        }
        GpuGeneration::Kepler => ArchLimits::kepler(),
        GpuGeneration::Maxwell => ArchLimits::maxwell(),
    }
}

/// Precision a workload needs (from its FP64 usage).
pub fn workload_precision(w: &Workload) -> Precision {
    if w.kernel.analyze().uses_fp64 {
        Precision::Double
    } else {
        Precision::Single
    }
}

/// Build the X-model for `workload` on `spec`.
///
/// `l1_bytes = 0` produces the basic (cache-less) model — also the right
/// choice for Kepler where global loads skip L1.
pub fn assemble_model(spec: &GpuSpec, workload: &Workload, l1_bytes: u64) -> XModel {
    let _span = xmodel_obs::span!(xmodel_obs::names::span::PROFILE_ASSEMBLE);
    let precision = workload_precision(workload);
    let mut machine = spec.machine_params(precision);
    // Uncoalesced access splits each request into `coalesce` transactions:
    // the effective sustainable request rate shrinks accordingly, while the
    // unloaded latency stays the DRAM round trip.
    machine.r /= workload.coalesce;

    let analysis = workload.kernel.analyze();
    let occ = Occupancy::compute(&workload.kernel, &arch_limits(spec, l1_bytes));
    let n = occ.warps.min(spec.max_warps as u32) as f64;
    let wp = WorkloadParams::new(analysis.intensity, analysis.ilp, n);
    xmodel_obs::event!(
        "profile.model",
        workload = workload.name,
        gpu = spec.name,
        n = n,
        z = analysis.intensity,
        e = analysis.ilp,
        l1_bytes = l1_bytes,
    );

    if l1_bytes == 0 {
        XModel::new(machine, wp)
    } else {
        // Locality is a workload signature: fit one (alpha, beta) pair
        // across reference capacities, then apply it to this cache size.
        let fit = fit_trace_capacities(&workload.trace, &[8 * 1024, 16 * 1024, 48 * 1024]);
        xmodel_obs::event!(
            "profile.locality_fit",
            workload = workload.name,
            alpha = fit.alpha,
            beta = fit.beta,
        );
        match CacheParams::try_new(
            l1_bytes as f64,
            (machine.l * 0.05).min(30.0), // L1 pipeline is ~30 cycles
            fit.alpha.max(1.01 + 1e-6),
            fit.beta,
        ) {
            Ok(cache) => XModel::with_cache(machine, wp, cache),
            // A degenerate locality fit (e.g. β ≤ 0 from a pathological
            // trace) degrades to the cache-less model instead of
            // panicking mid-pipeline.
            Err(e) => {
                xmodel_obs::event!(
                    "profile.cache_fit_invalid",
                    workload = workload.name,
                    error = e.to_string(),
                );
                XModel::new(machine, wp)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmodel_workloads::WorkloadId;

    #[test]
    fn fermi_l1_beyond_the_array_leaves_no_shared_memory() {
        let fermi = GpuSpec::fermi_gtx570();
        assert_eq!(arch_limits(&fermi, 16 * 1024).smem_per_sm, 48 * 1024);
        assert_eq!(arch_limits(&fermi, 64 * 1024).smem_per_sm, 0);
        assert_eq!(arch_limits(&fermi, 100 * 1024).smem_per_sm, 0);
    }

    #[test]
    fn cacheless_model_for_kepler() {
        let spec = GpuSpec::kepler_k40();
        let w = Workload::get(WorkloadId::Nn);
        let m = assemble_model(&spec, &w, 0);
        assert!(m.cache.is_none());
        assert_eq!(m.workload.n, 64.0);
        assert!(m.workload.e >= 1.0 && m.workload.z > 2.0);
        // SP workload on Kepler: M = 6.
        assert_eq!(m.machine.m, 6.0);
    }

    #[test]
    fn dp_workload_selects_dp_machine() {
        let spec = GpuSpec::kepler_k40();
        let w = Workload::get(WorkloadId::Hpccg);
        let m = assemble_model(&spec, &w, 0);
        // DP lanes on K40 = 2.
        assert_eq!(m.machine.m, 2.0);
    }

    #[test]
    fn cached_model_for_fermi_gesummv() {
        let spec = GpuSpec::fermi_gtx570();
        let w = Workload::get(WorkloadId::Gesummv);
        let m = assemble_model(&spec, &w, 16 * 1024);
        let c = m.cache.expect("cache expected");
        assert_eq!(c.s_cache, 16.0 * 1024.0);
        assert!(c.alpha > 1.0 && c.beta > 0.0);
        // gesummv launches 48 warps on Fermi (§VI).
        assert_eq!(m.workload.n, 48.0);
    }

    #[test]
    fn occupancy_respects_smem_limits() {
        let spec = GpuSpec::kepler_k40();
        let w = Workload::get(WorkloadId::Nw);
        let m = assemble_model(&spec, &w, 0);
        assert!(
            m.workload.n < 64.0,
            "nw is smem-limited, n = {}",
            m.workload.n
        );
    }

    #[test]
    fn every_workload_assembles_on_every_gpu() {
        for spec in GpuSpec::all() {
            for w in Workload::suite() {
                let m = assemble_model(&spec, &w, 0);
                assert!(m.workload.n >= 1.0, "{} on {}", w.name, spec.name);
                let eq = m.solve();
                assert!(
                    eq.operating_point().is_some(),
                    "{} on {} has no operating point",
                    w.name,
                    spec.name
                );
            }
        }
    }
}
