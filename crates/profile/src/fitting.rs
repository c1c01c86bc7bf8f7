//! Assemble a complete X-model for one workload on one architecture.
//!
//! This is the §IV pipeline end-to-end: machine parameters from the
//! Table II presets (equivalently, from stream/peak profiling), workload
//! parameters `E`/`Z` from static analysis of the kernel IR, `n` from the
//! occupancy calculation, and — when an L1 is modelled — locality `(α, β)`
//! fitted from the workload's trace.

use std::cell::RefCell;
use xmodel_core::cache::CacheParams;
use xmodel_core::params::WorkloadParams;
use xmodel_core::presets::{GpuGeneration, GpuSpec, Precision};
use xmodel_core::XModel;
use xmodel_isa::{ArchLimits, Occupancy};
use xmodel_workloads::locality::{fit_trace_capacities, JacobFit};
use xmodel_workloads::{TraceSpec, Workload};

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

/// Resident warps of `workload` on `spec` with an `l1_bytes` L1: its
/// occupancy under [`arch_limits`], capped at the preset's `max_warps`.
/// The model's `n` ([`assemble_model`]) and the simulator's warp count
/// ([`crate::arch::sim_pairing`]) both come from here.
pub(crate) fn resident_warps(spec: &GpuSpec, workload: &Workload, l1_bytes: u64) -> u32 {
    Occupancy::compute(&workload.kernel, &arch_limits(spec, l1_bytes))
        .warps
        .min(spec.max_warps as u32)
}

/// Precision a workload needs (from its FP64 usage).
pub fn workload_precision(w: &Workload) -> Precision {
    if w.kernel.analyze().uses_fp64 {
        Precision::Double
    } else {
        Precision::Single
    }
}

/// Reference capacities a trace's locality signature is fitted over.
const REFERENCE_CAPACITIES: [u64; 3] = [8 * 1024, 16 * 1024, 48 * 1024];

/// Traces one thread's locality memo holds: the suite's twelve and room
/// to spare. A new trace past that evicts the oldest.
const LOCALITY_MEMO_LEN: usize = 16;

thread_local! {
    /// This thread's locality fits, oldest first, keyed by [`trace_key`].
    static LOCALITY_MEMO: RefCell<Vec<([u64; 4], JacobFit)>> = const { RefCell::new(Vec::new()) };
}

/// A trace spec as exact bits: its variant, then its fields. Comparing
/// specs with `==` would match `0.0` with `-0.0` and never match a NaN.
fn trace_key(trace: &TraceSpec) -> [u64; 4] {
    match *trace {
        TraceSpec::Stream { region_lines } => [0, region_lines, 0, 0],
        TraceSpec::Strided {
            stride_lines,
            region_lines,
        } => [1, stride_lines, region_lines, 0],
        TraceSpec::PrivateWorkingSet {
            ws_lines,
            stream_prob,
            reuse_skew,
        } => [2, ws_lines, stream_prob.to_bits(), reuse_skew.to_bits()],
        TraceSpec::SharedVector {
            vector_lines,
            region_lines,
            vector_prob,
        } => [3, vector_lines, region_lines, vector_prob.to_bits()],
        TraceSpec::Gather {
            footprint_lines,
            skew,
        } => [4, footprint_lines, skew.to_bits(), 0],
    }
}

/// The locality signature of `trace`: [`fit_trace_capacities`] over the
/// reference capacities, fitted once per trace and thread. A repeat
/// returns the fit the first call made, so it is bit for bit a fresh
/// fit; the flag says whether it was a repeat.
fn locality_fit(trace: &TraceSpec) -> (JacobFit, bool) {
    let key = trace_key(trace);
    let memo_hit =
        LOCALITY_MEMO.with_borrow(|memo| memo.iter().find(|(k, _)| *k == key).map(|&(_, fit)| fit));
    if let Some(fit) = memo_hit {
        return (fit, true);
    }
    let fit = fit_trace_capacities(trace, &REFERENCE_CAPACITIES);
    LOCALITY_MEMO.with_borrow_mut(|memo| {
        if memo.len() == LOCALITY_MEMO_LEN {
            memo.remove(0);
        }
        memo.push((key, fit));
    });
    (fit, false)
}

/// Build the X-model for `workload` on `spec`.
///
/// `l1_bytes = 0` produces the basic (cache-less) model — also the right
/// choice for Kepler where global loads skip L1.
// xlint: determinism-root
pub fn assemble_model(spec: &GpuSpec, workload: &Workload, l1_bytes: u64) -> XModel {
    let _span = xmodel_obs::span!(xmodel_obs::names::span::PROFILE_ASSEMBLE);
    let precision = workload_precision(workload);
    let mut machine = spec.machine_params(precision);
    // Uncoalesced access splits each request into `coalesce` transactions:
    // the effective sustainable request rate shrinks accordingly, while the
    // unloaded latency stays the DRAM round trip.
    machine.r /= workload.coalesce;

    let analysis = workload.kernel.analyze();
    let n = f64::from(resident_warps(spec, workload, l1_bytes));
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
        let (fit, memo_hit) = locality_fit(&workload.trace);
        xmodel_obs::event!(
            "profile.locality_fit",
            workload = workload.name,
            alpha = fit.alpha,
            beta = fit.beta,
            memo_hit = memo_hit,
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

    /// `fit` equals `want` bit for bit.
    fn assert_same_fit(fit: JacobFit, want: JacobFit, what: &str) {
        assert_eq!(fit.alpha.to_bits(), want.alpha.to_bits(), "{what}: alpha");
        assert_eq!(fit.beta.to_bits(), want.beta.to_bits(), "{what}: beta");
        assert_eq!(fit.rmse.to_bits(), want.rmse.to_bits(), "{what}: rmse");
    }

    /// Run `f` on a new thread, whose locality memo starts empty.
    fn on_cold_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        std::thread::spawn(f).join().expect("cold thread")
    }

    #[test]
    fn memoized_fit_is_a_fresh_fit_on_miss_and_hit() {
        on_cold_thread(|| {
            // The twelve suite traces are distinct.
            for w in Workload::suite() {
                let fresh = fit_trace_capacities(&w.trace, &REFERENCE_CAPACITIES);
                let (miss, memo_hit) = locality_fit(&w.trace);
                assert!(!memo_hit, "{}: first call", w.name);
                assert_same_fit(miss, fresh, w.name);
                let (hit, memo_hit) = locality_fit(&w.trace);
                assert!(memo_hit, "{}: second call", w.name);
                assert_same_fit(hit, fresh, w.name);
            }
        });
    }

    #[test]
    fn warm_assembly_equals_cold_assembly() {
        fn gesummv_on_fermi(l1_kib: u64) -> String {
            let w = Workload::get(WorkloadId::Gesummv);
            format!(
                "{:?}",
                assemble_model(&GpuSpec::fermi_gtx570(), &w, l1_kib * 1024)
            )
        }
        let warm = on_cold_thread(|| [gesummv_on_fermi(16), gesummv_on_fermi(48)]);
        let cold = [16, 48].map(|l1_kib| on_cold_thread(move || gesummv_on_fermi(l1_kib)));
        assert_eq!(warm, cold);
    }

    #[test]
    fn memo_past_its_bound_still_fits_right() {
        on_cold_thread(|| {
            let traces: Vec<TraceSpec> = (1..=LOCALITY_MEMO_LEN as u64 + 1)
                .map(|region_lines| TraceSpec::Stream { region_lines })
                .collect();
            for t in &traces {
                let (fit, memo_hit) = locality_fit(t);
                assert!(!memo_hit, "{t:?}");
                assert_same_fit(fit, fit_trace_capacities(t, &REFERENCE_CAPACITIES), "fill");
            }
            assert_eq!(LOCALITY_MEMO.with_borrow(Vec::len), LOCALITY_MEMO_LEN);
            // The first trace was evicted and is fitted afresh; the last
            // is still held.
            let (fit, memo_hit) = locality_fit(&traces[0]);
            assert!(!memo_hit);
            assert_same_fit(
                fit,
                fit_trace_capacities(&traces[0], &REFERENCE_CAPACITIES),
                "evicted",
            );
            assert!(locality_fit(&traces[LOCALITY_MEMO_LEN]).1);
        });
    }

    #[test]
    fn trace_key_tells_signed_zeros_apart() {
        let skew = |skew| TraceSpec::Gather {
            footprint_lines: 64,
            skew,
        };
        assert_ne!(trace_key(&skew(0.0)), trace_key(&skew(-0.0)));
        assert_eq!(trace_key(&skew(f64::NAN)), trace_key(&skew(f64::NAN)));
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
