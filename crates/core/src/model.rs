//! The [`XModel`] type: machine + workload (+ optional shared cache).

use crate::balance::{self, BalanceReport};
use crate::cache::{CacheParams, CachedMsCurve, MsCurveFeatures};
use crate::cs::CsCurve;
use crate::metrics::ParallelismReport;
use crate::ms::MsCurve;
use crate::params::{MachineParams, WorkloadParams};
use crate::solver::{self, Equilibria};
use crate::units::{ReqPerCycle, Threads};
use serde::{Deserialize, Serialize};

/// A fully-specified X-model instance.
///
/// Combines the three architecture parameters (`M`, `R`, `L`), the three
/// application parameters (`Z`, `E`, `n`) and — for the regular form of the
/// model (§III-B) — the shared-cache parameters (`S$`, `L$`, `α`, `β`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct XModel {
    /// Architecture-side parameters.
    pub machine: MachineParams,
    /// Application-side parameters.
    pub workload: WorkloadParams,
    /// Shared-cache parameters; `None` selects the basic (cache-less) form.
    pub cache: Option<CacheParams>,
}

impl XModel {
    /// Basic X-model without cache effects.
    pub fn new(machine: MachineParams, workload: WorkloadParams) -> Self {
        Self {
            machine,
            workload,
            cache: None,
        }
    }

    /// Regular X-model with shared-cache effects (§III-B).
    pub fn with_cache(
        machine: MachineParams,
        workload: WorkloadParams,
        cache: CacheParams,
    ) -> Self {
        Self {
            machine,
            workload,
            cache: Some(cache),
        }
    }

    /// The CS throughput curve `g(x)`.
    pub fn cs_curve(&self) -> CsCurve {
        CsCurve::new(&self.machine, &self.workload)
    }

    /// MS supply throughput `f(k)`: Eq. (5) when a cache is configured,
    /// otherwise the plain roofline `min(k/L, R)`.
    ///
    /// This is the plain-`f64` convenience facade over the dimensionally
    /// typed curves ([`MsCurve::f`] / [`CachedMsCurve::f`]); use those
    /// directly when unit safety matters.
    pub fn fk(&self, k: f64) -> f64 {
        match self.cache {
            Some(c) => CachedMsCurve::new(&self.machine, c).f(Threads(k)).get(),
            None => MsCurve::new(&self.machine).f(Threads(k)).get(),
        }
    }

    /// CS throughput `g(x) = min(E·x, M)` in ops/cycle.
    pub fn gx(&self, x: f64) -> f64 {
        self.cs_curve().g(Threads(x)).get()
    }

    /// CS demand on MS, `ĝ(x) = g(x)/Z`, in requests/cycle.
    pub fn g_hat(&self, x: f64) -> f64 {
        self.cs_curve().g_hat(Threads(x)).get()
    }

    /// `π = M/E` — CS transition point.
    pub fn pi(&self) -> f64 {
        self.cs_curve().pi().get()
    }

    /// `δ` of the cache-less roofline, `R·L`. For the cache-integrated
    /// curve use [`XModel::ms_features`] which locates the plateau onset.
    pub fn delta(&self) -> f64 {
        self.machine.delta().get()
    }

    /// Solve for all flow-balance intersections at the current `n`.
    pub fn solve(&self) -> Equilibria {
        self.solve_with(solver::DEFAULT_SAMPLES)
    }

    /// Solve with an explicit dense-scan resolution (ablation knob).
    pub fn solve_with(&self, samples: usize) -> Equilibria {
        let f = |k: Threads| ReqPerCycle(self.fk(k.get()));
        let g = |x: Threads| ReqPerCycle(self.g_hat(x.get()));
        solver::solve_with(
            &f,
            &g,
            self.workload.threads(),
            self.workload.intensity(),
            samples,
        )
    }

    /// Resolve an operating point via the graceful-degradation ladder
    /// ([`crate::degrade`]): exact solve → closest-approach grid scan →
    /// roofline/Little's-law baseline. Unlike
    /// [`Equilibria::operating_point`](crate::solver::Equilibria::operating_point)
    /// this never returns "no answer" for parameters the constructors
    /// accept — it returns a weaker answer tagged with its provenance.
    pub fn resolve_operating_point(
        &self,
    ) -> crate::error::Result<crate::degrade::ResolvedOperatingPoint> {
        self.resolve_operating_point_with(
            solver::DEFAULT_SAMPLES,
            crate::degrade::DegradeForce::None,
        )
    }

    /// [`XModel::resolve_operating_point`] with an explicit scan
    /// resolution and a fault-injection forcing knob.
    pub fn resolve_operating_point_with(
        &self,
        samples: usize,
        force: crate::degrade::DegradeForce,
    ) -> crate::error::Result<crate::degrade::ResolvedOperatingPoint> {
        crate::degrade::resolve(self, samples, force)
    }

    /// Feature set (cache peak ψ, valley, plateau, δ) of the MS curve,
    /// scanned over `k ∈ (0, k_max]`.
    pub fn ms_features(&self, k_max: f64) -> MsCurveFeatures {
        match self.cache {
            Some(c) => CachedMsCurve::new(&self.machine, c).features(Threads(k_max)),
            None => {
                let ms = MsCurve::new(&self.machine);
                MsCurveFeatures {
                    peak: None,
                    valley: None,
                    delta: (ms.delta().get() <= k_max).then(|| ms.delta().get()),
                    plateau: ms.r.get(),
                }
            }
        }
    }

    /// The four parallelism metrics of §III-A for machine and workload.
    pub fn parallelism(&self) -> ParallelismReport {
        ParallelismReport::new(self)
    }

    /// Machine-balance / bound analysis (§III-A3, Fig. 5).
    pub fn balance(&self) -> BalanceReport {
        balance::analyze(self)
    }

    /// Sample `f(k)` at `count` evenly spaced points over `[0, k_max]`,
    /// for plotting.
    pub fn sample_fk(&self, k_max: f64, count: usize) -> Vec<(f64, f64)> {
        sample(|k| self.fk(k), k_max, count)
    }

    /// Sample `ĝ(x)` at `count` evenly spaced points over `[0, x_max]`.
    pub fn sample_ghat(&self, x_max: f64, count: usize) -> Vec<(f64, f64)> {
        sample(|x| self.g_hat(x), x_max, count)
    }
}

fn sample(f: impl Fn(f64) -> f64, max: f64, count: usize) -> Vec<(f64, f64)> {
    assert!(count >= 2);
    (0..count)
        .map(|i| {
            let v = max * i as f64 / (count - 1) as f64;
            (v, f(v))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> XModel {
        XModel::new(
            MachineParams::new(4.0, 0.1, 500.0),
            WorkloadParams::new(20.0, 1.0, 48.0),
        )
    }

    fn cached_model() -> XModel {
        XModel::with_cache(
            MachineParams::new(6.0, 0.1, 600.0),
            WorkloadParams::new(40.0, 1.0, 48.0),
            CacheParams::try_new(16.0 * 1024.0, 30.0, 5.0, 2048.0).unwrap(),
        )
    }

    #[test]
    fn cacheless_fk_is_roofline() {
        let m = model();
        assert!((m.fk(25.0) - 0.05).abs() < 1e-12);
        assert_eq!(m.fk(1e6), 0.1);
    }

    #[test]
    fn solve_matches_closed_form() {
        let eq = model().solve();
        let p = eq.operating_point().unwrap();
        assert!((p.k - 500.0 * 48.0 / 520.0).abs() < 1e-6);
    }

    #[test]
    fn cached_model_differs_from_basic() {
        let basic = XModel::new(cached_model().machine, cached_model().workload);
        let m = cached_model();
        // At small k the cache boosts supply well above the roofline.
        assert!(m.fk(6.0) > 2.0 * basic.fk(6.0));
    }

    #[test]
    fn ms_features_for_cacheless_model() {
        let m = model();
        let f = m.ms_features(100.0);
        assert!(f.peak.is_none());
        assert_eq!(f.delta, Some(50.0));
        assert_eq!(f.plateau, 0.1);
        // delta beyond scan range is reported as None.
        assert_eq!(m.ms_features(10.0).delta, None);
    }

    #[test]
    fn sampling_covers_endpoints() {
        let m = model();
        let s = m.sample_fk(64.0, 65);
        assert_eq!(s.len(), 65);
        assert_eq!(s[0], (0.0, 0.0));
        assert!((s[64].0 - 64.0).abs() < 1e-12);
    }

    #[test]
    fn pi_and_delta_accessors() {
        let m = model();
        assert_eq!(m.pi(), 4.0);
        assert_eq!(m.delta(), 50.0);
    }

    #[test]
    fn model_is_copy_and_comparable() {
        let a = cached_model();
        let b = a;
        assert_eq!(a, b);
        assert_ne!(a, model());
    }

    #[test]
    fn real_report_types_serialize() {
        let model = XModel::new(
            MachineParams::new(6.0, 0.1, 600.0),
            WorkloadParams::new(20.0, 1.0, 48.0),
        );
        let json = xmodel_obs::json::to_string(&model.solve());
        assert!(json.contains("\"ms_throughput\""), "{json}");
        assert!(json.contains("\"Stable\""), "{json}");
        assert!(xmodel_obs::json::to_string(&model.parallelism()).contains("machine_mlp"));
    }
}
