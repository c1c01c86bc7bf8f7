//! Trace calibration: fit a synthetic generator to a recorded trace.
//!
//! The `concrete_traces` ablation shows where the statistical generators
//! diverge from the real algorithms. This module closes that loop: grid
//! search the [`TraceSpec::PrivateWorkingSet`] knobs so the synthetic
//! hit-rate-vs-sharers curve matches the recorded one, measured on the
//! same shared-LRU reference cache.

use serde::{Deserialize, Serialize};
use xmodel_core::ModelError;
use xmodel_workloads::concrete::RecordedTraces;
use xmodel_workloads::locality::measure_hit_rate_streams;
use xmodel_workloads::TraceSpec;

/// Warp counts sampled when comparing hit curves.
const KS: [u32; 6] = [1, 2, 4, 8, 16, 32];

/// A hit rate is plausible iff it is a finite probability.
fn plausible_hit_rate(h: f64) -> bool {
    h.is_finite() && (0.0..=1.0).contains(&h)
}

/// Drop curve points whose hit rate is non-finite or outside `[0, 1]`
/// (outlier rejection for torn measurements). Returns the survivors and
/// how many points were rejected.
pub fn reject_outliers(curve: &[(f64, f64)]) -> (Vec<(f64, f64)>, usize) {
    let kept: Vec<(f64, f64)> = curve
        .iter()
        .copied()
        .filter(|&(_, h)| plausible_hit_rate(h))
        .collect();
    let rejected = curve.len() - kept.len();
    (kept, rejected)
}

/// Result of a calibration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Calibration {
    /// The best-fitting synthetic spec.
    pub spec: TraceSpec,
    /// RMS distance between the hit curves after calibration.
    pub rms: f64,
    /// The recorded trace's hit curve `(k, h)`.
    pub target_curve: Vec<(f64, f64)>,
}

/// Hit curve of a recorded trace across sharer counts.
pub fn recorded_hit_curve(
    traces: &RecordedTraces,
    cache_bytes: u64,
    accesses: usize,
) -> Vec<(f64, f64)> {
    KS.iter()
        .map(|&k| {
            let streams = traces.streams(k);
            (
                k as f64,
                measure_hit_rate_streams(streams, cache_bytes, accesses),
            )
        })
        .collect()
}

/// Hit curve of a synthetic spec across sharer counts.
pub fn synthetic_hit_curve(spec: &TraceSpec, cache_bytes: u64, accesses: usize) -> Vec<(f64, f64)> {
    KS.iter()
        .map(|&k| {
            let streams = (0..k).map(|w| spec.instantiate(w, 7)).collect();
            (
                k as f64,
                measure_hit_rate_streams(streams, cache_bytes, accesses),
            )
        })
        .collect()
}

/// RMS distance between two curves sampled at the same points.
pub fn curve_rms(a: &[(f64, f64)], b: &[(f64, f64)]) -> f64 {
    assert_eq!(a.len(), b.len());
    let sum: f64 = a
        .iter()
        .zip(b)
        .map(|(&(_, ha), &(_, hb))| (ha - hb) * (ha - hb))
        .sum();
    (sum / a.len() as f64).sqrt()
}

/// [`recorded_hit_curve`] with a plausibility check: a point whose hit
/// rate is not a finite probability is a typed
/// [`ModelError::NoConvergence`] rather than a silent NaN in the curve.
/// The measurement is a pure function of its inputs, so it is taken once.
pub fn recorded_hit_curve_checked(
    traces: &RecordedTraces,
    cache_bytes: u64,
    accesses: usize,
) -> xmodel_core::Result<Vec<(f64, f64)>> {
    KS.iter()
        .map(|&k| {
            let h = measure_hit_rate_streams(traces.streams(k), cache_bytes, accesses);
            plausible_hit_rate(h)
                .then_some((k as f64, h))
                .ok_or(ModelError::NoConvergence {
                    routine: "calibrate",
                })
        })
        .collect()
}

/// Fallible calibration: like [`calibrate_private_ws`] but with
/// plausibility checks on the recorded curve, outlier rejection of
/// implausible grid evaluations, and a typed error when nothing usable
/// remains.
pub fn try_calibrate_private_ws(
    traces: &RecordedTraces,
    cache_bytes: u64,
    accesses: usize,
) -> xmodel_core::Result<Calibration> {
    let _span = xmodel_obs::span!(xmodel_obs::names::span::PROFILE_CALIBRATE);
    let target = recorded_hit_curve_checked(traces, cache_bytes, accesses)?;
    let mut best: Option<(TraceSpec, f64)> = None;
    for &ws in &[4u64, 8, 16, 24, 32, 48, 64, 96, 128] {
        for &stream in &[0.0, 0.05, 0.1, 0.2, 0.35, 0.5, 0.7] {
            for &skew in &[0.0, 0.8, 1.5, 2.5] {
                let spec = TraceSpec::PrivateWorkingSet {
                    ws_lines: ws,
                    stream_prob: stream,
                    reuse_skew: skew,
                };
                let curve = synthetic_hit_curve(&spec, cache_bytes, accesses / 2);
                // Outlier rejection: a grid point whose synthetic curve
                // lost samples to implausible measurements is compared on
                // the surviving points only; one with no survivors (or a
                // non-finite rms) is skipped and counted.
                let (kept, rejected) = reject_outliers(&curve);
                let target_kept: Vec<(f64, f64)> = target
                    .iter()
                    .copied()
                    .filter(|(k, _)| kept.iter().any(|(kk, _)| kk == k))
                    .collect();
                let rms = if kept.is_empty() {
                    f64::NAN
                } else {
                    curve_rms(&target_kept, &kept)
                };
                if !rms.is_finite() {
                    xmodel_obs::metrics::counter_add(
                        xmodel_obs::names::metric::PROFILE_CALIBRATE_SKIPPED,
                        1,
                    );
                    xmodel_obs::event!(
                        "calibrate.skipped",
                        ws_lines = ws,
                        stream_prob = stream,
                        reuse_skew = skew,
                        rejected = rejected as u64,
                    );
                    continue;
                }
                let improved = best.as_ref().map(|&(_, b)| rms < b).unwrap_or(true);
                xmodel_obs::event!(
                    "calibrate.eval",
                    ws_lines = ws,
                    stream_prob = stream,
                    reuse_skew = skew,
                    rms = rms,
                    improved = improved,
                );
                if improved {
                    best = Some((spec, rms));
                }
            }
        }
    }
    let (spec, rms) = best.ok_or(ModelError::NoConvergence {
        routine: "calibrate",
    })?;
    Ok(Calibration {
        spec,
        rms,
        target_curve: target,
    })
}

/// Fit a [`TraceSpec::PrivateWorkingSet`] to a recorded trace by grid
/// search over working-set size, stream probability and reuse skew.
///
/// Infallible facade over [`try_calibrate_private_ws`]: when calibration
/// fails outright it degrades to the first grid point with an infinite
/// rms (recorded on the `profile.calibrate.skipped` metric) rather than
/// panicking.
pub fn calibrate_private_ws(
    traces: &RecordedTraces,
    cache_bytes: u64,
    accesses: usize,
) -> Calibration {
    try_calibrate_private_ws(traces, cache_bytes, accesses).unwrap_or_else(|_| {
        xmodel_obs::event!("calibrate.empty_grid");
        xmodel_obs::metrics::counter_add(xmodel_obs::names::metric::PROFILE_CALIBRATE_SKIPPED, 1);
        Calibration {
            spec: TraceSpec::PrivateWorkingSet {
                ws_lines: 4,
                stream_prob: 0.0,
                reuse_skew: 0.0,
            },
            rms: f64::INFINITY,
            target_curve: recorded_hit_curve(traces, cache_bytes, accesses),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmodel_workloads::concrete;

    #[test]
    fn outlier_rejection_drops_implausible_points() {
        let curve = vec![
            (1.0, 0.5),
            (2.0, f64::NAN),
            (4.0, 1.5),
            (8.0, -0.1),
            (16.0, 0.9),
            (32.0, f64::INFINITY),
        ];
        let (kept, rejected) = reject_outliers(&curve);
        assert_eq!(kept, vec![(1.0, 0.5), (16.0, 0.9)]);
        assert_eq!(rejected, 4);
    }

    #[test]
    fn try_calibrate_agrees_with_infallible_facade() {
        let traces = concrete::spmv_csr(1024, 8, 8, 7);
        let a = calibrate_private_ws(&traces, 8 * 1024, 2_000);
        let b = try_calibrate_private_ws(&traces, 8 * 1024, 2_000).unwrap();
        assert_eq!(a, b);
        assert!(b.rms.is_finite());
    }

    #[test]
    fn curve_rms_basics() {
        let a = vec![(1.0, 0.5), (2.0, 0.7)];
        let b = vec![(1.0, 0.5), (2.0, 0.7)];
        assert_eq!(curve_rms(&a, &b), 0.0);
        let c = vec![(1.0, 0.4), (2.0, 0.8)];
        assert!((curve_rms(&a, &c) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn calibration_beats_the_default_spmv_spec() {
        let traces = concrete::spmv_csr(4096, 8, 32, 7);
        let cache = 16 * 1024;
        let cal = calibrate_private_ws(&traces, cache, 8_000);
        // The default suite spec for spmv (a weak gather) fits worse than
        // the calibrated private-working-set spec.
        let default_spec =
            xmodel_workloads::Workload::get(xmodel_workloads::WorkloadId::Spmv).trace;
        let default_curve = synthetic_hit_curve(&default_spec, cache, 8_000);
        let default_rms = curve_rms(&cal.target_curve, &default_curve);
        assert!(
            cal.rms < default_rms,
            "calibrated {} vs default {}",
            cal.rms,
            default_rms
        );
        assert!(cal.rms < 0.25, "calibrated rms {}", cal.rms);
    }

    #[test]
    fn stencil_reuse_is_inter_warp() {
        // A genuinely instructive recorded-trace property: a single warp
        // strides rows far apart (no private reuse at transaction
        // granularity), while neighbouring warps share each other's halo
        // rows — so the stencil's hit rate *rises* with sharers, the
        // opposite of the private-working-set assumption behind Eq. (3).
        // A large grid so the single-warp measurement does not wrap its
        // recorded trace (wrapping would manufacture artificial reuse).
        let traces = concrete::stencil5(1024, 256, 32);
        let curve = recorded_hit_curve(&traces, 16 * 1024, 800);
        let h1 = curve.first().unwrap().1;
        let h32 = curve.last().unwrap().1;
        // A lone warp only hits on the halo ping-pong at line boundaries
        // (~1/3 of transactions); neighbours sharing rows push it higher.
        assert!(h1 < 0.45, "single-warp stencil hit rate {h1}");
        assert!(h32 > h1 + 0.1, "sharers must raise reuse: {h1} -> {h32}");
        for &(_, h) in &curve {
            assert!((0.0..=1.0).contains(&h));
        }
    }
}
