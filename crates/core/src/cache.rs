//! Shared-cache model and the cache-integrated MS throughput (§III-B).
//!
//! A shared cache is placed ahead of main memory inside MS (Fig. 6). With
//! `k` threads in MS, each sees `S$/k` of the capacity and, following the
//! Jacob et al. power-law locality model, the per-thread hit rate is
//!
//! ```text
//! h(S$/k) = 1 − (S$/(β·k) + 1)^−(α−1)          (Eq. 3)
//! ```
//!
//! The loaded average latency is `L_k = h·L$ + (1−h)·L_m` (Eq. 1) with the
//! queue-stretched memory latency `L_m = max{L, k/R}` (Eq. 4), giving the
//! cache-integrated supply curve
//!
//! ```text
//! f(k) = k / [L$ + (max{L, k/R} − L$)·(S$/(β·k) + 1)^(1−α)]   (Eq. 5)
//! ```
//!
//! Its characteristic shape (Fig. 7) — an almost-linear rise to a **cache
//! peak** `ψ`, a **cache valley** as thrashing sets in, a second rise as raw
//! memory parallelism takes over, and a **memory plateau** at `R` — is
//! extracted numerically by [`CachedMsCurve::features`]. Cache-insensitive
//! workloads (α barely above 1, Fig. 8-A curve 1) show no significant peak
//! and the curve degenerates to the plain roofline.

use crate::error::{ModelError, Result};
use crate::params::MachineParams;
use crate::units::{Cycles, ReqPerCycle, Threads};
use serde::{Deserialize, Serialize};

/// Shared-cache parameters: `S$`, `L$` plus the workload locality pair
/// `(α, β)` of the Jacob model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheParams {
    /// `S$` — cache capacity, in the same unit as `β` (bytes throughout this
    /// crate). `0` disables the cache and Eq. (5) degenerates to the
    /// roofline `min(k/L, R)`.
    pub s_cache: f64,
    /// `L$` — raw cache access latency in cycles.
    pub l_cache: f64,
    /// `α` — locality exponent (> 1). Larger α ⇒ stronger locality ⇒ more
    /// cache-sensitive workload (Fig. 8-A).
    pub alpha: f64,
    /// `β` — per-thread working-set scale (bytes/thread).
    pub beta: f64,
}

impl CacheParams {
    /// Fallible constructor: `S$ ≥ 0`, `L$ > 0`, `α > 1`, `β > 0`.
    pub fn try_new(s_cache: f64, l_cache: f64, alpha: f64, beta: f64) -> Result<Self> {
        if s_cache < 0.0 || !s_cache.is_finite() {
            return Err(ModelError::InvalidParameter {
                name: "S$",
                value: s_cache,
                constraint: ">= 0",
            });
        }
        if l_cache <= 0.0 || !l_cache.is_finite() {
            return Err(ModelError::InvalidParameter {
                name: "L$",
                value: l_cache,
                constraint: "> 0",
            });
        }
        if alpha <= 1.0 || !alpha.is_finite() {
            return Err(ModelError::InvalidParameter {
                name: "alpha",
                value: alpha,
                constraint: "> 1",
            });
        }
        if beta <= 0.0 || !beta.is_finite() {
            return Err(ModelError::InvalidParameter {
                name: "beta",
                value: beta,
                constraint: "> 0",
            });
        }
        Ok(Self {
            s_cache,
            l_cache,
            alpha,
            beta,
        })
    }

    /// Hit rate seen by one of `k` sharing threads, Eq. (3).
    /// `h = 1 − (S$/(β·k) + 1)^−(α−1)`, in `[0, 1]` (dimensionless).
    pub fn hit_rate(&self, k: Threads) -> f64 {
        if self.s_cache <= 0.0 {
            return 0.0;
        }
        if k <= Threads::ZERO {
            // A single (infinitesimal) sharer sees the whole cache.
            return 1.0;
        }
        let share = self.s_cache / (self.beta * k.get());
        1.0 - (share + 1.0).powf(-(self.alpha - 1.0))
    }

    /// `L$` as a typed quantity: the raw cache access latency.
    pub fn latency(&self) -> Cycles {
        Cycles(self.l_cache)
    }

    /// Number of threads whose aggregate working set exactly fills the
    /// cache, `S$/β` — a useful scale for where the cache peak can sit.
    pub fn fit_threads(&self) -> Threads {
        Threads(self.s_cache / self.beta)
    }

    /// Return a copy with a different capacity (tuning knob `S$`, Fig. 8-B).
    #[must_use]
    pub fn with_capacity(mut self, s_cache: f64) -> Self {
        assert!(s_cache >= 0.0);
        self.s_cache = s_cache;
        self
    }

    /// Return a copy with a different access latency (knob `L$`, Fig. 8-C).
    #[must_use]
    pub fn with_latency(mut self, l_cache: f64) -> Self {
        assert!(l_cache > 0.0);
        self.l_cache = l_cache;
        self
    }

    /// Return a copy with different locality (knob `α, β`, Fig. 8-A).
    #[must_use]
    pub fn with_locality(mut self, alpha: f64, beta: f64) -> Self {
        assert!(alpha > 1.0 && beta > 0.0);
        self.alpha = alpha;
        self.beta = beta;
        self
    }
}

/// The cache-integrated MS supply curve, Eq. (5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachedMsCurve {
    /// `R` — main-memory peak throughput (requests/cycle).
    pub r: ReqPerCycle,
    /// `L` — unloaded main-memory latency (cycles).
    pub l: Cycles,
    /// Cache parameters.
    pub cache: CacheParams,
}

/// Fraction above the plateau a local maximum must reach to count as a
/// *cache peak* (filters out the sub-permille hump that Eq. (5) develops at
/// the saturation knee even for cache-insensitive workloads).
const PEAK_SIGNIFICANCE: f64 = 0.05;

/// Relative tolerance used when locating the plateau onset `δ`.
const PLATEAU_TOL: f64 = 0.05;

impl CachedMsCurve {
    /// Build from machine and cache parameters.
    pub fn new(machine: &MachineParams, cache: CacheParams) -> Self {
        Self {
            r: machine.peak_ms(),
            l: machine.latency(),
            cache,
        }
    }

    /// Queue-stretched memory latency `L_m = max{L, k/R}` (Eq. 4).
    pub fn memory_latency(&self, k: Threads) -> Cycles {
        self.l.max(k.max(Threads::ZERO) / self.r)
    }

    /// Loaded average MS latency `L_k` (Eq. 1) combined with Eqs. (3)–(4).
    pub fn loaded_latency(&self, k: Threads) -> Cycles {
        let h = self.cache.hit_rate(k);
        let lm = self.memory_latency(k);
        h * self.cache.latency() + (1.0 - h) * lm
    }

    /// The cache-integrated supply throughput `f(k)`, Eq. (5).
    pub fn f(&self, k: Threads) -> ReqPerCycle {
        if k <= Threads::ZERO {
            return ReqPerCycle::ZERO;
        }
        k / self.loaded_latency(k)
    }

    /// Central-difference derivative `df/dk` (requests/cycle per thread)
    /// with relative step.
    pub fn df_dk(&self, k: Threads) -> f64 {
        let k = k.get();
        let h = (k.abs() * 1e-6).max(1e-9);
        let lo = (k - h).max(0.0);
        let hi = k + h;
        (self.f(Threads(hi)) - self.f(Threads(lo))).get() / (hi - lo)
    }

    /// The memory-plateau value: `lim k→∞ f(k) = R`.
    pub fn plateau(&self) -> ReqPerCycle {
        self.r
    }

    /// Extract the characteristic features of Fig. 7 by dense scanning over
    /// `k ∈ (0, k_max]` followed by local ternary-search refinement.
    ///
    /// * The **cache peak** is the first interior local maximum whose value
    ///   exceeds the plateau by at least 5%; cache-insensitive shapes report
    ///   `peak = None`.
    /// * The **cache valley** is the first local minimum after the peak.
    /// * `δ` is the onset of the memory plateau: the smallest sampled `k`
    ///   from which the curve stays within 5% of `R` up to `k_max`. It is
    ///   `None` when the plateau lies beyond `k_max`.
    pub fn features(&self, k_max: Threads) -> MsCurveFeatures {
        scan_features(|k| self.f(k), self.plateau(), k_max)
    }

    /// Eq. (5) with a finite miss-status-holding-register file — the
    /// §III-C "other effects (e.g. … MSHRs)" extension, and the effect §VI
    /// blames for 48 KiB L1 failing to fix gesummv's thrashing on silicon.
    ///
    /// At most `mshrs` line misses can be outstanding, so the miss stream
    /// is capped at `mshrs / L_m` requests per cycle:
    ///
    /// ```text
    /// f_mshr(k) = min( f(k),  mshrs / (L_m · (1 − h(k))) )
    /// ```
    ///
    /// (the second term is the total request rate whose miss fraction
    /// saturates the MSHR file; it goes to infinity as h → 1).
    pub fn f_mshr(&self, k: Threads, mshrs: f64) -> ReqPerCycle {
        assert!(mshrs > 0.0);
        let base = self.f(k);
        let miss = 1.0 - self.cache.hit_rate(k);
        if miss <= 1e-12 {
            return base;
        }
        let cap = ReqPerCycle(mshrs / (self.memory_latency(k).get() * miss));
        base.min(cap)
    }
}

/// Scan any MS supply curve for the Fig. 7 feature set (see
/// [`CachedMsCurve::features`] for the semantics). Exposed so alternative
/// `f(k)` shapes — e.g. the two-level hierarchy of
/// [`crate::multilevel`] — share one feature definition.
pub fn scan_features(
    f: impl Fn(Threads) -> ReqPerCycle,
    plateau: ReqPerCycle,
    k_max: Threads,
) -> MsCurveFeatures {
    const SAMPLES: usize = 4096;
    let f = move |k: f64| f(Threads(k)).get();
    let plateau = plateau.get();
    let k_max = k_max.get();
    assert!(k_max > 0.0, "k_max must be positive");
    let step = k_max / SAMPLES as f64;
    let ks: Vec<f64> = (0..=SAMPLES).map(|i| step * i as f64).collect();
    let fs: Vec<f64> = ks.iter().map(|&k| f(k)).collect();

    // First significant interior local maximum = the cache peak.
    let mut peak_idx = None;
    for i in 1..SAMPLES {
        if fs[i] > fs[i - 1] && fs[i] >= fs[i + 1] && fs[i] >= plateau * (1.0 + PEAK_SIGNIFICANCE) {
            peak_idx = Some(i);
            break;
        }
    }

    let peak = peak_idx.map(|i| {
        let (k, v) = refine_extremum(&f, ks[i - 1], ks[i + 1], true);
        CurvePoint { k, value: v }
    });

    // First local minimum after the peak = the cache valley.
    let valley = peak_idx.and_then(|pi| {
        for i in (pi + 1)..SAMPLES {
            if fs[i] < fs[i - 1] && fs[i] <= fs[i + 1] {
                let (k, v) = refine_extremum(&f, ks[i - 1], ks[i + 1], false);
                return Some(CurvePoint { k, value: v });
            }
        }
        None
    });

    // Plateau onset: smallest k from which the tail stays within tol.
    let tol = PLATEAU_TOL * plateau;
    let mut delta = None;
    for i in (1..=SAMPLES).rev() {
        if (fs[i] - plateau).abs() <= tol {
            delta = Some(ks[i]);
        } else {
            break;
        }
    }

    MsCurveFeatures {
        peak,
        valley,
        delta,
        plateau,
    }
}

/// A `(k, f(k))` pair marking a curve feature.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CurvePoint {
    /// Thread count at the feature.
    pub k: f64,
    /// Throughput at the feature.
    pub value: f64,
}

/// The Fig. 7 feature set of a cache-integrated MS curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MsCurveFeatures {
    /// The cache peak `ψ` (absent for cache-insensitive shapes).
    pub peak: Option<CurvePoint>,
    /// The cache valley (absent when the curve never dips).
    pub valley: Option<CurvePoint>,
    /// The MS transition point `δ` — onset of the memory plateau (absent
    /// when it lies beyond the scanned range).
    pub delta: Option<f64>,
    /// The memory-plateau throughput (= `R`).
    pub plateau: f64,
}

impl MsCurveFeatures {
    /// `ψ` — position of the cache peak, when present.
    pub fn psi(&self) -> Option<f64> {
        self.peak.map(|p| p.k)
    }

    /// Depth of the cache valley relative to the peak (`0` when either is
    /// missing): `(peak − valley)/peak`.
    pub fn valley_depth(&self) -> f64 {
        match (self.peak, self.valley) {
            (Some(p), Some(v)) if p.value > 0.0 => (p.value - v.value) / p.value,
            _ => 0.0,
        }
    }
}

/// Ternary search for a local extremum of `f` in `[lo, hi]`.
fn refine_extremum(f: impl Fn(f64) -> f64, lo: f64, hi: f64, maximize: bool) -> (f64, f64) {
    let (mut lo, mut hi) = (lo.max(0.0), hi);
    for _ in 0..200 {
        let m1 = lo + (hi - lo) / 3.0;
        let m2 = hi - (hi - lo) / 3.0;
        let keep_left = if maximize {
            f(m1) > f(m2)
        } else {
            f(m1) < f(m2)
        };
        if keep_left {
            hi = m2;
        } else {
            lo = m1;
        }
        if hi - lo < 1e-10 * (1.0 + hi.abs()) {
            break;
        }
    }
    let k = 0.5 * (lo + hi);
    (k, f(k))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> MachineParams {
        MachineParams::new(6.0, 0.1, 600.0)
    }

    /// A highly cache-sensitive configuration (α = 5, working sets of 8
    /// threads fill the cache) that exhibits the full peak/valley shape.
    fn hcs_cache() -> CacheParams {
        CacheParams::try_new(16.0 * 1024.0, 30.0, 5.0, 2048.0).unwrap()
    }

    #[test]
    fn hit_rate_in_unit_interval_and_decreasing() {
        let c = hcs_cache();
        let mut prev = c.hit_rate(Threads(0.5));
        for i in 1..200 {
            let h = c.hit_rate(Threads(i as f64 * 0.5));
            assert!((0.0..=1.0).contains(&h), "h out of range: {h}");
            assert!(h <= prev + 1e-12, "hit rate must not increase with k");
            prev = h;
        }
    }

    #[test]
    fn zero_capacity_means_zero_hit_rate() {
        let c = CacheParams::try_new(0.0, 30.0, 2.0, 1024.0).unwrap();
        assert_eq!(c.hit_rate(Threads(10.0)), 0.0);
    }

    #[test]
    fn zero_capacity_degenerates_to_roofline() {
        let m = machine();
        let nocache = CachedMsCurve::new(&m, CacheParams::try_new(0.0, 30.0, 2.0, 1024.0).unwrap());
        let roofline = crate::ms::MsCurve::new(&m);
        for i in 0..100 {
            let k = Threads(i as f64);
            assert!(
                (nocache.f(k) - roofline.f(k)).get().abs() < 1e-12,
                "mismatch at k={}: {} vs {}",
                k.get(),
                nocache.f(k),
                roofline.f(k)
            );
        }
    }

    #[test]
    fn tiny_k_runs_at_cache_speed() {
        let curve = CachedMsCurve::new(&machine(), hcs_cache());
        // One thread with the whole cache to itself: latency close to L$.
        let l1 = curve.loaded_latency(Threads(1.0));
        assert!(
            l1 < Cycles(0.1 * machine().l),
            "latency {l1} should be cache-like"
        );
    }

    #[test]
    fn full_shape_has_peak_valley_plateau() {
        let curve = CachedMsCurve::new(&machine(), hcs_cache());
        let feats = curve.features(Threads(256.0));
        let peak = feats.peak.expect("cache peak expected");
        let valley = feats.valley.expect("cache valley expected");
        assert!(peak.k < valley.k, "peak must precede valley");
        assert!(peak.value > valley.value, "peak must exceed valley");
        // Cache peak exceeds raw memory bandwidth (Fig. 7 / Fig. 9).
        assert!(peak.value > curve.plateau().get());
        assert!(feats.valley_depth() > 0.0);
        // The peak sits near the thread count whose working sets fill S$.
        assert!(peak.k < 2.5 * hcs_cache().fit_threads().get());
    }

    #[test]
    fn plateau_is_r() {
        let curve = CachedMsCurve::new(&machine(), hcs_cache());
        assert_eq!(curve.plateau(), ReqPerCycle(0.1));
        // Far out, f approaches R.
        let f_far = curve.f(Threads(1e7)).get();
        assert!((f_far - 0.1).abs() < 1e-2, "f(1e7) = {f_far}");
    }

    #[test]
    fn cache_insensitive_has_no_peak() {
        // alpha barely above 1: almost no locality (Fig. 8-A curve 1).
        let ci = CacheParams::try_new(16.0 * 1024.0, 30.0, 1.01, 2048.0).unwrap();
        let curve = CachedMsCurve::new(&machine(), ci);
        let feats = curve.features(Threads(128.0));
        assert!(feats.peak.is_none(), "CI workload must show no cache peak");
        assert!(feats.valley.is_none());
    }

    #[test]
    fn faster_cache_dominates_pointwise() {
        // Fig. 8-C: "a fast cache is always beneficial" — f with a smaller
        // L$ dominates f with a larger L$ at every k.
        let slow = CachedMsCurve::new(&machine(), hcs_cache().with_latency(60.0));
        let fast = CachedMsCurve::new(&machine(), hcs_cache().with_latency(10.0));
        for i in 1..=256 {
            let k = Threads(i as f64);
            assert!(
                fast.f(k).get() >= slow.f(k).get() - 1e-12,
                "fast cache slower at k={}",
                k.get()
            );
        }
        let ps = slow.features(Threads(256.0)).peak;
        let pf = fast
            .features(Threads(256.0))
            .peak
            .expect("fast cache must peak");
        if let Some(ps) = ps {
            assert!(pf.value > ps.value, "fast cache peak must be higher");
        }
    }

    #[test]
    fn bigger_cache_moves_peak_right_and_up() {
        // Fig. 8-B: enlarging S$ scales the peak outwards.
        // 16 KB vs 48 KB — the L1 configurations of Figs. 12–13.
        let small = CachedMsCurve::new(&machine(), hcs_cache().with_capacity(16.0 * 1024.0));
        let big = CachedMsCurve::new(&machine(), hcs_cache().with_capacity(48.0 * 1024.0));
        let fs = small
            .features(Threads(512.0))
            .peak
            .expect("small-cache peak");
        let fb = big.features(Threads(512.0)).peak.expect("big-cache peak");
        assert!(fb.k > fs.k, "bigger cache peaks at larger k");
        assert!(fb.value > fs.value, "bigger cache peaks higher");
    }

    #[test]
    fn stronger_locality_means_higher_peak() {
        // Fig. 8-A: HCS (large alpha) peaks higher than MCS.
        let mcs = CachedMsCurve::new(&machine(), hcs_cache().with_locality(4.0, 2048.0));
        let hcs = CachedMsCurve::new(&machine(), hcs_cache().with_locality(6.0, 2048.0));
        let pm = mcs.features(Threads(256.0)).peak.expect("MCS peak");
        let ph = hcs.features(Threads(256.0)).peak.expect("HCS peak");
        assert!(ph.value > pm.value);
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(CacheParams::try_new(-1.0, 30.0, 2.0, 100.0).is_err());
        assert!(CacheParams::try_new(1.0, 0.0, 2.0, 100.0).is_err());
        assert!(CacheParams::try_new(1.0, 30.0, 1.0, 100.0).is_err());
        assert!(CacheParams::try_new(1.0, 30.0, 2.0, 0.0).is_err());
    }

    #[test]
    fn f_zero_at_zero() {
        let curve = CachedMsCurve::new(&machine(), hcs_cache());
        assert_eq!(curve.f(Threads(0.0)), ReqPerCycle::ZERO);
        assert_eq!(curve.f(Threads(-1.0)), ReqPerCycle::ZERO);
    }

    #[test]
    fn memory_latency_matches_eq4() {
        let curve = CachedMsCurve::new(&machine(), hcs_cache());
        assert_eq!(curve.memory_latency(Threads(10.0)), Cycles(600.0));
        assert!((curve.memory_latency(Threads(120.0)).get() - 1200.0).abs() < 1e-9);
    }

    #[test]
    fn derivative_sign_tracks_shape() {
        let curve = CachedMsCurve::new(&machine(), hcs_cache());
        let feats = curve.features(Threads(256.0));
        let peak = feats.peak.unwrap();
        let valley = feats.valley.unwrap();
        // Rising before the peak, falling between peak and valley.
        assert!(curve.df_dk(Threads(peak.k * 0.5)) > 0.0);
        let mid = 0.5 * (peak.k + valley.k);
        assert!(curve.df_dk(Threads(mid)) < 0.0);
    }

    #[test]
    fn fit_threads_scale() {
        assert_eq!(hcs_cache().fit_threads(), Threads(8.0));
    }

    #[test]
    fn mshr_cap_binds_only_under_miss_pressure() {
        let curve = CachedMsCurve::new(&machine(), hcs_cache());
        // Plenty of MSHRs: identical to Eq. (5).
        for i in 1..=128 {
            let k = Threads(i as f64);
            assert!((curve.f_mshr(k, 1e6) - curve.f(k)).get().abs() < 1e-12);
        }
        // Two MSHRs: the memory-parallel tail collapses while the
        // cache-fed region (h near 1) is untouched.
        let tight = 2.0;
        assert!(
            (curve.f_mshr(Threads(2.0), tight) - curve.f(Threads(2.0)))
                .get()
                .abs()
                < 1e-9
        );
        assert!(curve.f_mshr(Threads(64.0), tight) < 0.5 * curve.f(Threads(64.0)));
        // The cap equals mshrs/(Lm*miss) when it binds.
        let k = Threads(64.0);
        let miss = 1.0 - hcs_cache().hit_rate(k);
        let expect = tight / (curve.memory_latency(k).get() * miss);
        assert!((curve.f_mshr(k, tight).get() - expect).abs() < 1e-9);
    }

    #[test]
    fn mshr_cap_explains_fig13_silicon() {
        // §VI: enlarging the cache raised the analytic peak, yet silicon
        // barely improved because MSHRs still bound the miss stream. With
        // a tight MSHR file, the 48 KiB curve's *tail* (thrashing regime)
        // matches the 16 KiB curve's tail even though its peak is higher.
        let small = CachedMsCurve::new(&machine(), hcs_cache());
        let big = CachedMsCurve::new(&machine(), hcs_cache().with_capacity(48.0 * 1024.0));
        let mshrs = 4.0;
        let peak_gain = big.features(Threads(64.0)).peak.unwrap().value
            / small.features(Threads(64.0)).peak.unwrap().value;
        assert!(peak_gain > 1.5, "peak gain {peak_gain}");
        // Deep in the thrashing regime (both caches overwhelmed) the MSHR
        // cap keeps the large-cache advantage far below its peak gain.
        let k_thrash = Threads(200.0);
        let tail_gain = big.f_mshr(k_thrash, mshrs) / small.f_mshr(k_thrash, mshrs);
        assert!(
            tail_gain < 1.0 + 0.5 * (peak_gain - 1.0),
            "tail gain {tail_gain} should lag peak gain {peak_gain}"
        );
    }
}
