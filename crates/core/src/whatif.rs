//! What-if evaluation of the §VI case-study optimizations.
//!
//! Under cache thrashing (intersection on the descending slope of `f(k)`),
//! the paper derives four optimization strategies from the model:
//!
//! * **thread throttling** (`--n`, Fig. 14) — best when `g(x)` comes to
//!   pass through the cache peak `ψ`;
//! * **cache bypassing** (`++R`, Fig. 15) — best when `R` rises to the
//!   cache-peak level;
//! * **increasing compute intensity** (`++Z`, Fig. 16) — raises CS
//!   throughput, barely moves MS throughput;
//! * **reducing ILP** (`--E`, Fig. 17) — the paper's novel observation:
//!   a *lower* ILP degree can raise both CS and MS throughput while the
//!   cache is thrashing.
//!
//! Plus the capacity change of Figs. 12–13 (`S$` 16 KB → 48 KB) and the
//! L1-disable reference configuration of Fig. 18.

use crate::model::XModel;
use crate::solver::{Equilibria, Intersection};
use crate::sweep;
use crate::tuning::TuningEffect;
use serde::{Deserialize, Serialize};

/// One §VI optimization applied to a model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Optimization {
    /// Thread throttling: restrict concurrency to `n` threads (Fig. 14).
    ThreadThrottle {
        /// New (smaller) thread count.
        n: f64,
    },
    /// Cache bypassing: a subset of requests skips L1 for the next memory
    /// level, raising the effective memory-side bandwidth to `r` (Fig. 15).
    CacheBypass {
        /// New effective `R`.
        r: f64,
    },
    /// Algorithmic change raising compute intensity to `z` (Fig. 16).
    IncreaseIntensity {
        /// New `Z`.
        z: f64,
    },
    /// Scheduling/compilation change reducing the ILP degree to `e`
    /// (Fig. 17).
    ReduceIlp {
        /// New `E`.
        e: f64,
    },
    /// Enlarge the shared cache to `s_cache` bytes (Fig. 12 → Fig. 13).
    EnlargeCache {
        /// New `S$` in bytes.
        s_cache: f64,
    },
    /// Disable the cache entirely (the Fig. 18 reference configuration).
    DisableCache,
}

impl Optimization {
    /// Apply to a model, returning the optimized copy.
    #[must_use]
    pub fn apply(&self, model: &XModel) -> XModel {
        let mut out = *model;
        match *self {
            Optimization::ThreadThrottle { n } => {
                assert!(n >= 0.0);
                out.workload.n = n;
            }
            Optimization::CacheBypass { r } => {
                assert!(r > 0.0);
                out.machine.r = r;
            }
            Optimization::IncreaseIntensity { z } => {
                assert!(z > 0.0);
                out.workload.z = z;
            }
            Optimization::ReduceIlp { e } => {
                assert!(e > 0.0);
                out.workload.e = e;
            }
            Optimization::EnlargeCache { s_cache } => {
                assert!(s_cache >= 0.0);
                if let Some(c) = out.cache.as_mut() {
                    c.s_cache = s_cache;
                }
            }
            Optimization::DisableCache => out.cache = None,
        }
        out
    }
}

/// What-if engine around a base model.
///
/// ## Example
///
/// ```
/// use xmodel_core::prelude::*;
///
/// let model = XModel::with_cache(
///     MachineParams::new(6.0, 0.02, 600.0),
///     WorkloadParams::new(40.0, 2.0, 20.0),
///     CacheParams::try_new(16.0 * 1024.0, 30.0, 5.0, 2048.0).unwrap(),
/// );
/// let what_if = WhatIf::new(model);
/// assert!(what_if.is_thrashing());
/// let n_star = what_if.optimal_throttle().unwrap();
/// let effect = what_if
///     .evaluate(Optimization::ThreadThrottle { n: n_star })
///     .unwrap();
/// assert!(effect.ms_speedup() > 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WhatIf {
    /// The baseline (typically thrashing) model.
    pub model: XModel,
    /// Scan range used when locating cache features.
    pub k_max: f64,
}

impl WhatIf {
    /// Build for a model; `k_max` defaults to `4·n` (enough to see the
    /// cache features around the operating region).
    pub fn new(model: XModel) -> Self {
        Self {
            model,
            k_max: (model.workload.n * 4.0).max(64.0),
        }
    }

    /// `true` when the current operating point sits on the descending
    /// slope of `f(k)` — the cache-thrashing condition of Fig. 12.
    pub fn is_thrashing(&self) -> bool {
        self.is_thrashing_at(self.model.solve().operating_point())
    }

    /// [`WhatIf::is_thrashing`] at a base operating point the caller has
    /// already solved (`None` when the base has no equilibrium).
    pub fn is_thrashing_at(&self, base: Option<Intersection>) -> bool {
        match base {
            Some(p) => {
                let h = (self.model.workload.n * 1e-6).max(1e-9);
                let df = (self.model.fk(p.k + h) - self.model.fk((p.k - h).max(0.0)))
                    / (p.k + h - (p.k - h).max(0.0));
                df < -1e-12
            }
            None => false,
        }
    }

    /// Evaluate one optimization: operating points before and after.
    pub fn evaluate(&self, opt: Optimization) -> Option<TuningEffect> {
        self.evaluate_seq(&[opt])
    }

    /// Evaluate a *combination* of optimizations applied in order (the
    /// Fig. 18 configurations combine cache size with throttling or
    /// bypassing).
    pub fn evaluate_seq(&self, opts: &[Optimization]) -> Option<TuningEffect> {
        self.evaluate_seq_from(self.model.solve().operating_point(), opts, XModel::solve)
    }

    /// [`WhatIf::evaluate_seq`] from a base operating point the caller
    /// has already solved, solving the optimized model with `solve`. The
    /// effect equals [`WhatIf::evaluate_seq`]'s whenever `solve` answers
    /// bit for bit as [`XModel::solve`] does, as the tabulated fast path
    /// at [`crate::solver::DEFAULT_SAMPLES`] does.
    pub fn evaluate_seq_from(
        &self,
        base: Option<Intersection>,
        opts: &[Optimization],
        solve: impl Fn(&XModel) -> Equilibria,
    ) -> Option<TuningEffect> {
        let before = base?;
        let mut model = self.model;
        for opt in opts {
            model = opt.apply(&model);
        }
        let after = solve(&model).operating_point()?;
        Some(TuningEffect {
            ms_before: before.ms_throughput,
            ms_after: after.ms_throughput,
            cs_before: before.cs_throughput,
            cs_after: after.cs_throughput,
        })
    }

    /// The optimal throttled thread count: `n* = ψ + x*` with
    /// `ĝ(x*) = f(ψ)`, so that the demand curve passes exactly through the
    /// cache peak (Fig. 14). `None` when the MS curve has no cache peak.
    pub fn optimal_throttle(&self) -> Option<f64> {
        let feats = self.model.ms_features(self.k_max);
        let peak = feats.peak?;
        let e = self.model.workload.e;
        let z = self.model.workload.z;
        let m = self.model.machine.m;
        // Threads needed in CS to absorb the peak supply.
        let x_star = if peak.value >= m / z {
            // CS saturates first: park pi threads there.
            self.model.pi()
        } else {
            peak.value * z / e
        };
        Some(peak.k + x_star)
    }

    /// Upper bound on MS throughput attainable by throttling alone:
    /// `min(f(ψ), M/Z)` (§VI — "best performance is achieved when g(x)
    /// coincides with the cache peak"). Falls back to the current plateau
    /// when no peak exists.
    pub fn throttle_bound(&self) -> f64 {
        let feats = self.model.ms_features(self.k_max);
        let demand_cap = self.model.machine.m / self.model.workload.z;
        match feats.peak {
            Some(p) => p.value.min(demand_cap),
            None => feats.plateau.min(demand_cap),
        }
    }

    /// Rank a candidate list by achieved MS-throughput speedup, best
    /// first. Candidates are evaluated in parallel through
    /// [`crate::sweep`] ([`sweep::default_jobs`] workers); the ranking is
    /// identical for any job count.
    pub fn rank(&self, candidates: &[Optimization]) -> Vec<(Optimization, TuningEffect)> {
        self.rank_jobs(candidates, sweep::default_jobs())
    }

    /// [`WhatIf::rank`] with an explicit parallelism level.
    pub fn rank_jobs(
        &self,
        candidates: &[Optimization],
        jobs: usize,
    ) -> Vec<(Optimization, TuningEffect)> {
        let mut out: Vec<(Optimization, TuningEffect)> = sweep::run(jobs, candidates, |_, &opt| {
            self.evaluate(opt).map(|e| (opt, e))
        })
        .into_iter()
        .flatten()
        .collect();
        out.sort_by(|a, b| b.1.ms_speedup().total_cmp(&a.1.ms_speedup()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheParams;
    use crate::params::{MachineParams, WorkloadParams};

    /// A gesummv-like thrashing configuration: demand plateau (M/Z = 0.15)
    /// sits above the cache peak (≈ 0.122 at ψ ≈ 8), so the single
    /// intersection lands on the descending slope of f — the Fig. 12 state.
    fn thrashing_model() -> XModel {
        XModel::with_cache(
            MachineParams::new(6.0, 0.02, 600.0),
            WorkloadParams::new(40.0, 2.0, 20.0),
            CacheParams::try_new(16.0 * 1024.0, 30.0, 5.0, 2048.0).unwrap(),
        )
    }

    #[test]
    fn fixture_is_thrashing() {
        let w = WhatIf::new(thrashing_model());
        assert!(w.is_thrashing(), "fixture must thrash for the case study");
    }

    #[test]
    fn thread_throttling_improves_throughput() {
        // Fig. 14: throttling to the cache peak raises both CS and MS.
        let w = WhatIf::new(thrashing_model());
        let n_star = w.optimal_throttle().expect("peak exists");
        assert!(n_star < w.model.workload.n, "throttle must reduce n");
        let eff = w
            .evaluate(Optimization::ThreadThrottle { n: n_star })
            .unwrap();
        assert!(eff.ms_speedup() > 1.3, "ms speedup = {}", eff.ms_speedup());
        assert!(eff.cs_speedup() > 1.3);
        // Achieved throughput approaches but does not exceed the bound.
        assert!(eff.ms_after <= w.throttle_bound() + 1e-6);
        assert!(eff.ms_after >= 0.9 * w.throttle_bound());
    }

    #[test]
    fn over_throttling_degrades_again() {
        // §VI: "further thread throttling beyond the cache peak will start
        // to degrade the performance again."
        let w = WhatIf::new(thrashing_model());
        let n_star = w.optimal_throttle().unwrap();
        let at_peak = w
            .evaluate(Optimization::ThreadThrottle { n: n_star })
            .unwrap();
        let beyond = w
            .evaluate(Optimization::ThreadThrottle { n: n_star * 0.4 })
            .unwrap();
        assert!(beyond.ms_after < at_peak.ms_after);
    }

    #[test]
    fn cache_bypassing_improves_throughput() {
        // Fig. 15: raising effective R lifts the valley region.
        let w = WhatIf::new(thrashing_model());
        let eff = w.evaluate(Optimization::CacheBypass { r: 0.08 }).unwrap();
        assert!(eff.ms_speedup() > 1.2, "ms speedup = {}", eff.ms_speedup());
        assert!(eff.cs_speedup() > 1.2);
    }

    #[test]
    fn increasing_intensity_boosts_cs_only() {
        // Fig. 16: ++Z raises CS throughput; MS throughput barely moves.
        let w = WhatIf::new(thrashing_model());
        let eff = w
            .evaluate(Optimization::IncreaseIntensity { z: 80.0 })
            .unwrap();
        assert!(eff.cs_speedup() > 1.5, "cs speedup = {}", eff.cs_speedup());
        let ms_change = (eff.ms_after - eff.ms_before).abs() / eff.ms_before;
        assert!(ms_change < 0.10, "MS moved {:.1}%", ms_change * 100.0);
    }

    #[test]
    fn reducing_ilp_improves_both() {
        // Fig. 17: the paper's novel observation — a lower E raises both
        // CS and MS throughput under thrashing.
        let w = WhatIf::new(thrashing_model());
        let eff = w.evaluate(Optimization::ReduceIlp { e: 0.5 }).unwrap();
        assert!(eff.ms_speedup() > 1.2, "ms speedup = {}", eff.ms_speedup());
        assert!(eff.cs_speedup() > 1.2);
    }

    #[test]
    fn enlarging_cache_helps_in_pure_model() {
        // Fig. 13 in the pure analytic model (no MSHR limits): a 48 KB L1
        // raises the peak and resolves the thrash.
        let w = WhatIf::new(thrashing_model());
        let eff = w
            .evaluate(Optimization::EnlargeCache {
                s_cache: 48.0 * 1024.0,
            })
            .unwrap();
        assert!(eff.ms_speedup() > 1.0);
    }

    #[test]
    fn disable_cache_gives_roofline() {
        let w = WhatIf::new(thrashing_model());
        let off = Optimization::DisableCache.apply(&w.model);
        assert!(off.cache.is_none());
        // Without cache the supply is the plain roofline min(k/L, R).
        assert!((off.fk(6.0) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn rank_orders_by_ms_speedup() {
        let w = WhatIf::new(thrashing_model());
        let n_star = w.optimal_throttle().unwrap();
        let ranked = w.rank(&[
            Optimization::IncreaseIntensity { z: 80.0 },
            Optimization::ThreadThrottle { n: n_star },
            Optimization::CacheBypass { r: 0.08 },
        ]);
        assert_eq!(ranked.len(), 3);
        for pair in ranked.windows(2) {
            assert!(pair[0].1.ms_speedup() >= pair[1].1.ms_speedup());
        }
        // Intensity ranks last on MS throughput.
        assert!(matches!(
            ranked[2].0,
            Optimization::IncreaseIntensity { .. }
        ));
    }

    #[test]
    fn combined_optimizations_compose() {
        // 48 KiB L1 plus throttling to the (new) peak beats either alone —
        // the Fig. 18 "48KB + throttling" configuration.
        let w = WhatIf::new(thrashing_model());
        let enlarge = Optimization::EnlargeCache {
            s_cache: 48.0 * 1024.0,
        };
        let enlarged = WhatIf::new(enlarge.apply(&w.model));
        let n_star = enlarged.optimal_throttle().expect("peak exists");
        let combo = w
            .evaluate_seq(&[enlarge, Optimization::ThreadThrottle { n: n_star }])
            .unwrap();
        let alone = w.evaluate(enlarge).unwrap();
        assert!(
            combo.ms_speedup() >= alone.ms_speedup() - 1e-9,
            "combo {} vs enlarge-only {}",
            combo.ms_speedup(),
            alone.ms_speedup()
        );
        assert!(combo.ms_speedup() > 1.0);
    }

    #[test]
    fn empty_sequence_is_identity() {
        let w = WhatIf::new(thrashing_model());
        let eff = w.evaluate_seq(&[]).unwrap();
        assert!((eff.ms_speedup() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn optimal_throttle_none_without_cache_peak() {
        let basic = XModel::new(
            MachineParams::new(6.0, 0.02, 600.0),
            WorkloadParams::new(40.0, 2.0, 20.0),
        );
        assert!(WhatIf::new(basic).optimal_throttle().is_none());
    }
}
