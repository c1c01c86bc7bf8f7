//! Flow-balance solver: all intersections of `f(k)` and `ĝ(n−k)`.
//!
//! A steady state of the machine satisfies `f(k) = g(x)/Z` with `x = n − k`
//! (§II, flow balance). With the cache-integrated `f(k)` of Eq. (5) up to
//! three intersections exist (Fig. 9-B): the outer two stable (`σ′`, `σ″`)
//! and the middle one (`σ`) unstable. The solver dense-scans
//! `F(k) = f(k) − ĝ(n−k)` over `k ∈ [0, n]` for sign changes and refines
//! each bracket by bisection, then classifies stability from the local
//! slopes (Eq. 6).

use crate::stability::{classify, Stability};
use crate::units::{OpsPerRequest, ReqPerCycle, Threads};
use serde::{Deserialize, Serialize};
use std::cell::Cell;

/// One flow-balance intersection: a candidate spatial state of the machine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Intersection {
    /// Threads in MS at the equilibrium.
    pub k: f64,
    /// Threads in CS at the equilibrium (`x = n − k`).
    pub x: f64,
    /// MS throughput `f(k) = g(x)/Z` (requests/cycle).
    pub ms_throughput: f64,
    /// CS throughput `g(x) = Z·f(k)` (operations/cycle).
    pub cs_throughput: f64,
    /// Stability per Eq. (6).
    pub stability: Stability,
}

/// The full set of intersections for one model instance, sorted by `k`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Equilibria {
    points: Vec<Intersection>,
    n: f64,
    /// Root de-duplication tolerance applied by [`finish`], recorded so
    /// fast-tier and exact-tier solves can prove they deduped under the
    /// same rule (`DEDUP_STEP_FACTOR · step`). `0.0` for results that
    /// never went through dedup (empty solves).
    #[serde(default)]
    dedup_tol: f64,
}

impl Equilibria {
    /// All intersections in increasing `k` order.
    pub fn points(&self) -> &[Intersection] {
        &self.points
    }

    /// Total threads this solve was performed for.
    pub fn n(&self) -> f64 {
        self.n
    }

    /// The dedup tolerance recorded at solve time: roots closer than this
    /// in `k` were collapsed into one. `0.0` when no dedup pass ran.
    pub fn dedup_tolerance(&self) -> f64 {
        self.dedup_tol
    }

    /// The stable intersections only.
    pub fn stable(&self) -> impl Iterator<Item = &Intersection> {
        self.points.iter().filter(|p| p.stability.is_stable())
    }

    /// The *default operating point*: the stable intersection with the
    /// smallest `k` (σ′ in Fig. 9-B — most threads computing, highest
    /// performance). §III-D notes the machine may instead settle at σ″
    /// depending on the initial thread distribution; use
    /// [`crate::dynamics`] to resolve basins of attraction explicitly.
    ///
    /// When only marginal intersections exist (e.g. the exact machine
    /// balance `Z = M/R`, where both plateaus coincide over a continuum),
    /// the first marginal point is returned.
    pub fn operating_point(&self) -> Option<Intersection> {
        self.stable().next().copied().or_else(|| {
            self.points
                .iter()
                .find(|p| p.stability == Stability::Marginal)
                .copied()
        })
    }

    /// The worst stable intersection (σ″): largest `k` among stable points,
    /// falling back to the last marginal point when none is stable.
    pub fn worst_stable(&self) -> Option<Intersection> {
        self.stable()
            .last()
            .or_else(|| {
                self.points
                    .iter()
                    .rfind(|p| p.stability == Stability::Marginal)
            })
            .copied()
    }

    /// `true` when two distinct stable states exist (the bistable scenario
    /// of Fig. 9-B with σ′ and σ″ separated by the unstable σ).
    pub fn is_bistable(&self) -> bool {
        self.stable().count() >= 2
    }

    /// The unstable intersections (σ in Fig. 9-B), if any.
    pub fn unstable(&self) -> impl Iterator<Item = &Intersection> {
        self.points
            .iter()
            .filter(|p| p.stability == Stability::Unstable)
    }

    /// Magnitude of the potential performance drop from the best to the
    /// worst stable state (§III-D2), in MS-throughput units. Zero when not
    /// bistable.
    pub fn degradation(&self) -> f64 {
        // Single pass over the points instead of separate
        // `operating_point()` / `worst_stable()` scans (this runs once per
        // solve, inside the result event).
        let mut first_stable: Option<&Intersection> = None;
        let mut last_stable: Option<&Intersection> = None;
        let mut first_marginal: Option<&Intersection> = None;
        let mut last_marginal: Option<&Intersection> = None;
        for p in &self.points {
            if p.stability.is_stable() {
                first_stable.get_or_insert(p);
                last_stable = Some(p);
            } else if p.stability == Stability::Marginal {
                first_marginal.get_or_insert(p);
                last_marginal = Some(p);
            }
        }
        match (
            first_stable.or(first_marginal),
            last_stable.or(last_marginal),
        ) {
            (Some(best), Some(worst)) if best.k < worst.k => {
                (best.ms_throughput - worst.ms_throughput).max(0.0)
            }
            _ => 0.0,
        }
    }

    /// Crate-internal constructor used by the solver entry points
    /// ([`solve_with`] and [`crate::fastpath::solve_fast`]).
    pub(crate) fn from_points(points: Vec<Intersection>, n: f64) -> Self {
        Self {
            points,
            n,
            dedup_tol: 0.0,
        }
    }
}

/// Default number of scan samples used by [`solve`].
pub const DEFAULT_SAMPLES: usize = 2048;

/// Most scan samples a caller-supplied count may ask for: the daemon
/// clamps to it and `xmodel sweep` rejects more. Each sample costs a
/// curve evaluation per solve, so an unbounded count is a hang.
pub const MAX_SAMPLES: usize = 65_536;

/// Bisection iterations per bracketed root. Shared with the screened
/// bisection in [`crate::fastpath`], which must run the exact same
/// midpoint sequence to stay bit-identical.
pub(crate) const BISECT_ITERS: usize = 80;

/// Dedup radius in units of the dense-scan step: roots within
/// `DEDUP_STEP_FACTOR · step` of each other collapse to one. Every solve
/// tier (exact and fast) funnels through [`finish`], so this is
/// the single place the tolerance is defined; the applied value is
/// recorded in [`Equilibria::dedup_tolerance`].
pub(crate) const DEDUP_STEP_FACTOR: f64 = 1.5;

/// Find all intersections of `f(k)` with `ĝ(n−k)` for `k ∈ [0, n]`.
///
/// * `f` — MS supply curve, [`ReqPerCycle`] as a function of the MS
///   thread count.
/// * `g_hat` — CS demand curve (`g(x)/Z`), also [`ReqPerCycle`],
///   evaluated at `x` (threads in CS).
/// * `n` — total resident threads.
/// * `z` — compute intensity, used to report CS throughput.
/// * `samples` — dense-scan resolution (the ablation knob; see
///   `DEFAULT_SAMPLES`).
// xlint: determinism-root
pub fn solve_with(
    f: &dyn Fn(Threads) -> ReqPerCycle,
    g_hat: &dyn Fn(Threads) -> ReqPerCycle,
    n: Threads,
    z: OpsPerRequest,
    samples: usize,
) -> Equilibria {
    assert!(samples >= 2, "need at least two scan samples");
    let _span = xmodel_obs::span!(xmodel_obs::names::span::SOLVER_SOLVE);
    // Numeric kernel: unwrap the quantities once at the boundary so the
    // scan/bisection arithmetic is the exact f64 expression it always was.
    let n = n.get();
    let z = z.get();
    if n <= 0.0 {
        return Equilibria::from_points(Vec::new(), n);
    }
    let step = n / samples as f64;
    let fr = |k: f64| f(Threads(k)).get();
    let gr = |x: f64| g_hat(Threads(x)).get();
    // Count curve evaluations only while a tracing sink is listening:
    // the counting wrapper costs a measurable fraction of the cheap
    // roofline solve, so the quiet path stays wrapper-free.
    let points = if xmodel_obs::enabled() {
        let evals = Cell::new(0u64);
        let cf = |k: f64| {
            evals.set(evals.get() + 1);
            fr(k)
        };
        let cg = |x: f64| {
            evals.set(evals.get() + 1);
            gr(x)
        };
        let points = scan_dense(&cf, &cg, n, z, samples);
        xmodel_obs::metrics::counter_add(
            xmodel_obs::names::metric::SOLVER_CURVE_EVALS,
            evals.get(),
        );
        points
    } else {
        scan_dense(&fr, &gr, n, z, samples)
    };
    finish(points, n, step)
}

/// The dense sign-change scan at `k_i = n·i/samples`: exact zeros become
/// roots directly; sign flips between consecutive samples are polished
/// by [`bisect`].
///
/// Inlined into both [`solve_with`] branches so the locally-built
/// closures devirtualize; as an outlined `&dyn` call the quiet path
/// pays ~25% on the roofline solve.
#[inline(always)]
fn scan_dense(
    f: &dyn Fn(f64) -> f64,
    g_hat: &dyn Fn(f64) -> f64,
    n: f64,
    z: f64,
    samples: usize,
) -> Vec<Intersection> {
    let big_f = |k: f64| f(k) - g_hat(n - k);
    let step = n / samples as f64;
    let mut points = Vec::new();
    let mut prev_k = 0.0;
    let mut prev_v = big_f(0.0);

    // Treat an exact zero at the left boundary as a root.
    if prev_v == 0.0 {
        points.push(make_point(f, g_hat, n, z, 0.0));
    }

    for i in 1..=samples {
        let k = step * i as f64;
        let v = big_f(k);
        if v == 0.0 {
            points.push(make_point(f, g_hat, n, z, k));
        } else if prev_v != 0.0 && (prev_v < 0.0) != (v < 0.0) {
            let root = bisect(&big_f, prev_k, k, prev_v);
            xmodel_obs::event!("solver.bracket", lo = prev_k, hi = k, root = root);
            points.push(make_point(f, g_hat, n, z, root));
        }
        prev_k = k;
        prev_v = v;
    }
    points
}

/// Shared tail of [`solve_with`] and [`crate::fastpath::solve_fast`]:
/// de-duplicate roots, assemble the [`Equilibria`] and emit the solve
/// counter and result event.
pub(crate) fn finish(mut points: Vec<Intersection>, n: f64, step: f64) -> Equilibria {
    // De-duplicate roots that collapsed to the same k, and collapse
    // zero-runs (a continuum of plateau-on-plateau contact, e.g. the exact
    // machine balance Z = M/R) to their first contact point.
    let dedup_tol = DEDUP_STEP_FACTOR * step;
    points.sort_by(|a, b| a.k.total_cmp(&b.k));
    points.dedup_by(|b, a| (b.k - a.k).abs() <= dedup_tol);

    let eq = Equilibria {
        points,
        n,
        dedup_tol,
    };
    xmodel_obs::metrics::counter_add(xmodel_obs::names::metric::SOLVER_SOLVES, 1);
    xmodel_obs::event!(
        "solver.result",
        n = n,
        roots = eq.points.len(),
        bistable = eq.is_bistable(),
        degradation = eq.degradation(),
    );
    eq
}

/// The point of closest approach between supply and demand: the `k`
/// minimizing `|f(k) − ĝ(n−k)|` over a dense grid, refined by golden-ish
/// trisection, together with the residual gap at that point.
///
/// This is the grid-scan rung of the degradation ladder
/// ([`crate::degrade`]): when sign-change bracketing finds no root —
/// tangential (flat-`g`) contact, NaN holes in a curve, or an injected
/// solver fault — the closest approach is still well-defined wherever the
/// curves evaluate finitely. Samples where either curve is non-finite are
/// skipped; `None` is returned when every sample is non-finite or `n ≤ 0`.
pub fn closest_approach(
    f: &dyn Fn(Threads) -> ReqPerCycle,
    g_hat: &dyn Fn(Threads) -> ReqPerCycle,
    n: Threads,
    z: OpsPerRequest,
    samples: usize,
) -> Option<(Intersection, f64)> {
    assert!(samples >= 2, "need at least two scan samples");
    let n = n.get();
    let z = z.get();
    if n <= 0.0 {
        return None;
    }
    let f = |k: f64| f(Threads(k)).get();
    let g_hat = |x: f64| g_hat(Threads(x)).get();
    let f: &dyn Fn(f64) -> f64 = &f;
    let g_hat: &dyn Fn(f64) -> f64 = &g_hat;
    let gap = |k: f64| (f(k) - g_hat(n - k)).abs();

    let step = n / samples as f64;
    let mut best: Option<(f64, f64)> = None;
    for i in 0..=samples {
        let k = step * i as f64;
        let g = gap(k);
        if g.is_finite() && best.is_none_or(|(_, bg)| g < bg) {
            best = Some((k, g));
        }
    }
    let (mut k, mut best_gap) = best?;
    // Local refinement: shrink a one-step-wide window around the best
    // sample (the gap need not be smooth, so plain interval thirds are
    // safer than derivative-based steps).
    let mut lo = (k - step).max(0.0);
    let mut hi = (k + step).min(n);
    for _ in 0..48 {
        let m1 = lo + (hi - lo) / 3.0;
        let m2 = hi - (hi - lo) / 3.0;
        let (g1, g2) = (gap(m1), gap(m2));
        match (g1.is_finite(), g2.is_finite()) {
            (true, true) => {
                if g1 <= g2 {
                    hi = m2;
                } else {
                    lo = m1;
                }
            }
            (true, false) => hi = m2,
            (false, true) => lo = m1,
            (false, false) => break,
        }
    }
    let mid = 0.5 * (lo + hi);
    let mid_gap = gap(mid);
    if mid_gap.is_finite() && mid_gap <= best_gap {
        k = mid;
        best_gap = mid_gap;
    }
    let point = make_point(f, g_hat, n, z, k);
    Some((point, best_gap))
}

/// [`solve_with`] at the default resolution.
// xlint: determinism-root
pub fn solve(
    f: &dyn Fn(Threads) -> ReqPerCycle,
    g_hat: &dyn Fn(Threads) -> ReqPerCycle,
    n: Threads,
    z: OpsPerRequest,
) -> Equilibria {
    solve_with(f, g_hat, n, z, DEFAULT_SAMPLES)
}

pub(crate) fn make_point(
    f: &dyn Fn(f64) -> f64,
    g_hat: &dyn Fn(f64) -> f64,
    n: f64,
    z: f64,
    k: f64,
) -> Intersection {
    let x = n - k;
    let ms = f(k);
    // Central-difference slopes for the stability test.
    let h = (n * 1e-7).max(1e-9);
    let k_lo = (k - h).max(0.0);
    let x_lo = (x - h).max(0.0);
    let df = (f(k + h) - f(k_lo)) / (k + h - k_lo);
    let dg = (g_hat(x + h) - g_hat(x_lo)) / (x + h - x_lo);
    let stability = classify(df, dg);
    xmodel_obs::event!(
        "solver.classify",
        k = k,
        x = x,
        ms = ms,
        stability = format!("{stability:?}"),
    );
    Intersection {
        k,
        x,
        ms_throughput: ms,
        cs_throughput: ms * z,
        stability,
    }
}

pub(crate) fn bisect(big_f: &dyn Fn(f64) -> f64, mut lo: f64, mut hi: f64, f_lo: f64) -> f64 {
    let lo_neg = f_lo < 0.0;
    for _ in 0..BISECT_ITERS {
        let mid = 0.5 * (lo + hi);
        let v = big_f(mid);
        if v == 0.0 {
            return mid;
        }
        if (v < 0.0) == lo_neg {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-12 * (1.0 + hi.abs()) {
            break;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Transit-style configuration with a closed-form solution.
    /// f(k) = min(k/L, R), ghat(x) = min(E x, M)/Z.
    fn transit_curves() -> (
        impl Fn(Threads) -> ReqPerCycle,
        impl Fn(Threads) -> ReqPerCycle,
    ) {
        let (r, l) = (0.1_f64, 500.0_f64);
        let (m, e, z) = (4.0_f64, 1.0_f64, 20.0_f64);
        (
            move |k: Threads| ReqPerCycle((k.get().max(0.0) / l).min(r)),
            move |x: Threads| ReqPerCycle((e * x.get().max(0.0)).min(m) / z),
        )
    }

    #[test]
    fn single_intersection_transit() {
        let (f, g) = transit_curves();
        let n = 48.0;
        let eq = solve(&f, &g, Threads(n), OpsPerRequest(20.0));
        assert_eq!(eq.points().len(), 1);
        let p = eq.operating_point().unwrap();
        // Closed form: on slopes of both curves, k/500 = (n-k)/20
        // => 20k = 500n - 500k => k = 500*48/520 = 46.1538...
        let expect_k = 500.0 * 48.0 / 520.0;
        assert!((p.k - expect_k).abs() < 1e-6, "k = {}", p.k);
        assert!((p.x + p.k - n).abs() < 1e-9);
        assert!((p.ms_throughput - expect_k / 500.0).abs() < 1e-9);
        assert!((p.cs_throughput - 20.0 * p.ms_throughput).abs() < 1e-9);
        assert!(p.stability.is_stable());
    }

    #[test]
    fn zero_threads_no_equilibrium() {
        let (f, g) = transit_curves();
        let eq = solve(&f, &g, Threads(0.0), OpsPerRequest(20.0));
        assert!(eq.points().is_empty());
        assert!(eq.operating_point().is_none());
        assert_eq!(eq.degradation(), 0.0);
    }

    #[test]
    fn saturated_cs_intersection_on_flat_g() {
        // Plenty of threads: g saturates, intersection on its flat part.
        let (f, g) = transit_curves();
        // Demand plateau = M/Z = 0.2 > R = 0.1, so MS saturates instead:
        // equilibrium on the flat part of f at ms = R... but then demand
        // 0.2 > supply 0.1 pushes k to where g's slope region starts.
        let n = 2000.0;
        let eq = solve(&f, &g, Threads(n), OpsPerRequest(20.0));
        let p = eq.operating_point().unwrap();
        // Supply capped at R=0.1; demand min(x,4)/20 = 0.1 at x = 2.
        assert!((p.ms_throughput - 0.1).abs() < 1e-6);
        assert!((p.x - 2.0).abs() < 1e-3, "x = {}", p.x);
    }

    #[test]
    fn three_intersections_with_cache_shape() {
        // Synthetic f with a tall peak and a deep valley, crossing a
        // roofline g three times (Fig. 9-B).
        let f = |k: Threads| {
            // peak at k=8 of height 0.3, valley at k=24 of 0.05, plateau 0.1
            let k = k.get().max(0.0);
            ReqPerCycle(if k <= 8.0 {
                0.3 * k / 8.0
            } else if k <= 24.0 {
                0.3 - 0.25 * (k - 8.0) / 16.0
            } else if k <= 60.0 {
                0.05 + 0.05 * (k - 24.0) / 36.0
            } else {
                0.1
            })
        };
        // plateau 0.2
        let g = |x: Threads| ReqPerCycle((x.get().max(0.0) * 1.0).min(10.0) / 50.0);
        let n = 64.0;
        let eq = solve(&f, &g, Threads(n), OpsPerRequest(50.0));
        assert_eq!(eq.points().len(), 3, "points: {:?}", eq.points());
        let pts = eq.points();
        // Middle one unstable, outer two stable.
        assert!(pts[0].stability.is_stable());
        assert_eq!(pts[1].stability, Stability::Unstable);
        assert!(pts[2].stability.is_stable());
        assert!(eq.is_bistable());
        // sigma' (small k) outperforms sigma'' (large k).
        let best = eq.operating_point().unwrap();
        let worst = eq.worst_stable().unwrap();
        assert!(best.ms_throughput > worst.ms_throughput);
        assert!(eq.degradation() > 0.0);
    }

    #[test]
    fn resolution_ablation_converges() {
        let (f, g) = transit_curves();
        let coarse = solve_with(&f, &g, Threads(48.0), OpsPerRequest(20.0), 64);
        let fine = solve_with(&f, &g, Threads(48.0), OpsPerRequest(20.0), 8192);
        let kc = coarse.operating_point().unwrap().k;
        let kf = fine.operating_point().unwrap().k;
        assert!((kc - kf).abs() < 1e-6);
    }

    #[test]
    fn bisect_budget_still_returns_finite_root() {
        // A step discontinuity between two scan samples: bisection can
        // never drive the residual to zero, so it must stop on its
        // interval/iteration budget and return the midpoint — finite and
        // inside the bracket — rather than looping forever.
        let jump = 29.618_033_98_f64; // irrational-ish, never a sample
        let f = move |k: Threads| ReqPerCycle(if k.get() < jump { 0.0 } else { 1.0 });
        let g = |_: Threads| ReqPerCycle(0.5);
        let eq = solve(&f, &g, Threads(64.0), OpsPerRequest(10.0));
        assert_eq!(eq.points().len(), 1);
        let p = eq.points()[0];
        assert!(p.k.is_finite());
        assert!((p.k - jump).abs() < 1e-6, "k = {}", p.k);
    }

    #[test]
    fn zero_threads_closest_approach_is_none() {
        let (f, g) = transit_curves();
        assert!(closest_approach(&f, &g, Threads(0.0), OpsPerRequest(20.0), 256).is_none());
        assert!(closest_approach(&f, &g, Threads(-3.0), OpsPerRequest(20.0), 256).is_none());
    }

    #[test]
    fn tangential_flat_contact_found_by_closest_approach() {
        // Supply plateau exactly equal to the demand plateau: the curves
        // touch without crossing (F ≥ 0 everywhere, zero on the overlap),
        // so sign-change bracketing may find nothing. Closest approach
        // must locate the contact with zero gap.
        let f = |k: Threads| ReqPerCycle((k.get().max(0.0) / 500.0).min(0.1));
        let g = |x: Threads| ReqPerCycle((x.get().max(0.0) * 1.0).min(2.0) / 20.0);
        let n = 500.0; // supply needs k = 50 to reach 0.1 = demand plateau
        let (p, gap) = closest_approach(&f, &g, Threads(n), OpsPerRequest(20.0), 2048).unwrap();
        assert!(gap < 1e-9, "gap = {gap}");
        assert!((p.ms_throughput - 0.1).abs() < 1e-6);
        assert!(p.k >= 50.0 - 1.0 && p.k <= n - 2.0 + 1.0, "k = {}", p.k);
    }

    #[test]
    fn closest_approach_agrees_with_exact_root() {
        let (f, g) = transit_curves();
        let eq = solve(&f, &g, Threads(48.0), OpsPerRequest(20.0));
        let exact = eq.operating_point().unwrap();
        let (p, gap) = closest_approach(&f, &g, Threads(48.0), OpsPerRequest(20.0), 2048).unwrap();
        assert!(gap < 1e-6, "gap = {gap}");
        assert!((p.k - exact.k).abs() < 0.1, "{} vs {}", p.k, exact.k);
    }

    #[test]
    fn closest_approach_skips_nan_holes() {
        // f is NaN over a third of the domain; the scan must skip the hole
        // and still find the true intersection outside it.
        let f = |k: Threads| {
            let k = k.get();
            ReqPerCycle(if (10.0..20.0).contains(&k) {
                f64::NAN
            } else {
                (k.max(0.0) / 500.0).min(0.1)
            })
        };
        let g = |x: Threads| ReqPerCycle(x.get().clamp(0.0, 4.0) / 20.0);
        let (p, gap) = closest_approach(&f, &g, Threads(48.0), OpsPerRequest(20.0), 2048).unwrap();
        assert!(p.k.is_finite() && p.ms_throughput.is_finite());
        assert!(gap < 1e-6, "gap = {gap}");
    }

    #[test]
    fn all_nan_curves_yield_none_not_panic() {
        let f = |_: Threads| ReqPerCycle(f64::NAN);
        let g = |_: Threads| ReqPerCycle(f64::NAN);
        assert!(closest_approach(&f, &g, Threads(48.0), OpsPerRequest(20.0), 256).is_none());
    }

    #[test]
    fn bistable_operating_point_is_ambiguous_but_deterministic() {
        // Same three-intersection shape as above: operating_point() commits to
        // σ′ (smallest k) even though σ″ is also stable — the ambiguity is
        // reported via is_bistable()/worst_stable(), never by flip-flopping.
        let f = |k: Threads| {
            let k = k.get().max(0.0);
            ReqPerCycle(if k <= 8.0 {
                0.3 * k / 8.0
            } else if k <= 24.0 {
                0.3 - 0.25 * (k - 8.0) / 16.0
            } else if k <= 60.0 {
                0.05 + 0.05 * (k - 24.0) / 36.0
            } else {
                0.1
            })
        };
        let g = |x: Threads| ReqPerCycle((x.get().max(0.0) * 1.0).min(10.0) / 50.0);
        let a = solve(&f, &g, Threads(64.0), OpsPerRequest(50.0));
        let b = solve(&f, &g, Threads(64.0), OpsPerRequest(50.0));
        assert!(a.is_bistable());
        assert_eq!(a.operating_point(), b.operating_point());
        let op = a.operating_point().unwrap();
        assert_eq!(
            op.k,
            a.points()[0].k,
            "must commit to the smallest-k stable point"
        );
        assert!(a.worst_stable().unwrap().k > op.k);
    }

    #[test]
    fn flow_balance_holds_at_every_root() {
        let (f, g) = transit_curves();
        let eq = solve(&f, &g, Threads(48.0), OpsPerRequest(20.0));
        for p in eq.points() {
            assert!(
                (f(Threads(p.k)) - g(Threads(p.x))).get().abs() < 1e-9,
                "imbalance at k={}",
                p.k
            );
        }
    }
}
