//! Solver fast path: tabulate `f(k)` once, then solve many instances.
//!
//! The Eq. (5) supply curve dominates the solver's cost: the
//! `(S$/(β·k)+1)^(1−α)` hit-rate `powf` is re-evaluated at every one of
//! the ~2048 dense-scan samples plus every bisection step, for every
//! solve — yet `f(k)` depends only on `(R, L, S$, L$, α, β)`, never on
//! `n` or `Z`, so one tabulation amortizes across an entire sweep. A
//! [`CurveTable`] samples `f` once per curve and [`solve_fast`] answers
//! each solve from the table with a three-layer engine:
//!
//! * **span descent** — the engine recursively screens dense-sample
//!   spans with O(1) min/max/margin range queries over a block-indexed
//!   sparse table: a span whose bracketed `f(k) − ĝ(n−k)` range excludes
//!   zero cannot contain a root and is skipped wholesale;
//! * **refine** — surviving leaf spans are classified sample by sample;
//!   each sample uses the interpolated `f̃(k)` and consults the exact
//!   curve only where `|f̃(k) − ĝ(n−k)|` falls within the tabulated
//!   interpolation margin;
//! * **screened bisection** — brackets are polished between the same
//!   dense-grid endpoints the reference would use, with each midpoint's
//!   *sign* decided from the table whenever the margin allows and from
//!   the exact curve otherwise; since a sound margin can neither flip a
//!   sign nor hide an exact zero, the midpoint sequence — and therefore
//!   the root — is bit-identical to [`solver::solve_with`]'s.
//!
//! Every layer preserves one invariant: the sign class the engine
//! assigns to a dense sample (or proves for a whole span) equals the
//! class the reference computes exactly, so the emitted brackets,
//! bisections and intersection points are the ones the reference emits
//! — pinned bitwise by the parity suites in `tests/fastpath.rs`.
//! Non-finite samples mark their intervals *unsound* (infinite margin):
//! those are never skipped and always evaluated exactly, preserving the
//! reference's NaN-hole behaviour.
//!
//! [`SolveCache`] wraps a table with staleness tracking for use inside
//! sweeps, and [`reference_stats`] wraps the exact solver with the same
//! evaluation counters for head-to-head comparisons.

use crate::cache::CacheParams;
use crate::model::XModel;
use crate::solver::{self, Equilibria, Intersection};
use crate::units::{ReqPerCycle, Threads};
use std::cell::Cell;

/// Default number of table intervals.
pub const DEFAULT_RESOLUTION: usize = 4096;

/// Safety factor applied to the probe-estimated interpolation error.
/// For one curvature sign or a single kink inside an interval the worst
/// lerp deviation is within ~1.6× of the worse third-point probe.
const MARGIN_SAFETY: f64 = 8.0;

/// Table intervals per [`SpanIndex`] block.
const INDEX_BLOCK: usize = 32;

/// Dense-sample span width at which descent stops subdividing and
/// refines sample-by-sample.
const REFINE_LEAF: usize = 32;

/// The parameters a [`CurveTable`] is keyed on: everything that shapes
/// the supply curve `f(k)` — and nothing that does not (`n`, `Z`, `E`
/// and `M` only move the demand curve).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurveKey {
    /// `R` — peak MS throughput, requests/cycle.
    pub r: f64,
    /// `L` — unloaded MS latency, cycles.
    pub l: f64,
    /// Cache parameters when the Eq. (5) form is selected.
    pub cache: Option<CacheParams>,
}

impl CurveKey {
    /// The key of a model's supply curve.
    pub fn of(model: &XModel) -> Self {
        Self {
            r: model.machine.r,
            l: model.machine.l,
            cache: model.cache,
        }
    }
}

/// One [`SpanIndex`] summary: sample min/max and worst interval margin.
#[derive(Debug, Clone, Copy)]
struct SpanBlock {
    min: f64,
    max: f64,
    margin: f64,
}

impl SpanBlock {
    fn merge(a: Self, b: Self) -> Self {
        Self {
            min: a.min.min(b.min),
            max: a.max.max(b.max),
            margin: a.margin.max(b.margin),
        }
    }
}

/// O(1) range queries over the tabulated samples: a sparse table (doubling
/// windows) over blocks of [`INDEX_BLOCK`] intervals, each summarizing the
/// min/max sampled value and the worst interpolation margin. Non-finite
/// samples are covered by their intervals' infinite margins: any block
/// touching one reports an infinite margin, so queries over it are
/// rejected as unsound rather than answered with `f64::min`-laundered
/// NaN bounds.
#[derive(Debug, Clone)]
struct SpanIndex {
    /// `levels[l][b]` summarizes blocks `b..b + 2^l`.
    levels: Vec<Vec<SpanBlock>>,
}

impl SpanIndex {
    fn build(values: &[f64], margins: &[f64]) -> Self {
        let intervals = margins.len();
        let blocks = intervals.div_ceil(INDEX_BLOCK);
        let mut base = Vec::with_capacity(blocks);
        for b in 0..blocks {
            let i0 = b * INDEX_BLOCK;
            let i1 = ((b + 1) * INDEX_BLOCK).min(intervals);
            // Samples i0..=i1 (inclusive right edge: interval i ends at
            // sample i+1), intervals i0..i1.
            let mut blk = SpanBlock {
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
                margin: 0.0,
            };
            for &v in &values[i0..=i1] {
                blk.min = blk.min.min(v);
                blk.max = blk.max.max(v);
            }
            for &m in &margins[i0..i1] {
                blk.margin = blk.margin.max(m);
            }
            base.push(blk);
        }
        let mut levels = vec![base];
        let mut width = 1usize;
        while width * 2 <= blocks {
            let next: Vec<SpanBlock> = match levels.last() {
                Some(prev) => (0..=blocks - width * 2)
                    .map(|b| SpanBlock::merge(prev[b], prev[b + width]))
                    .collect(),
                None => break,
            };
            levels.push(next);
            width *= 2;
        }
        Self { levels }
    }

    /// Merged summary of blocks `ba..=bb`.
    fn query(&self, ba: usize, bb: usize) -> SpanBlock {
        let len = bb - ba + 1;
        let l = (usize::BITS - 1 - len.leading_zeros()) as usize;
        let lvl = &self.levels[l];
        SpanBlock::merge(lvl[ba], lvl[bb + 1 - (1 << l)])
    }
}

/// Piecewise-linear tabulation of one supply curve over `[0, k_max]`,
/// with sound interpolation-error margins and a block-indexed sparse
/// table for O(1) span queries.
#[derive(Debug, Clone)]
pub struct CurveTable {
    /// `None` for tables built from raw closures via
    /// [`CurveTable::tabulate`], where no model key exists.
    key: Option<CurveKey>,
    k_max: f64,
    step: f64,
    /// `resolution + 1` exact samples `f(i·step)`.
    values: Vec<f64>,
    /// Per-interval interpolation margins (`+∞` on unsound intervals).
    /// Unsound intervals need no separate index: any [`SpanIndex`] block
    /// touching one reports an infinite margin.
    margins: Vec<f64>,
    span_index: SpanIndex,
    build_evals: u64,
}

impl CurveTable {
    /// Tabulate `model`'s supply curve over `[0, k_max]` at
    /// [`DEFAULT_RESOLUTION`].
    pub fn build(model: &XModel, k_max: f64) -> Self {
        Self::build_with(model, k_max, DEFAULT_RESOLUTION)
    }

    /// Tabulate with an explicit interval count. The resolution must
    /// resolve the curve's features (peak/valley widths) for the
    /// screening margins to be sound; [`DEFAULT_RESOLUTION`] does so for
    /// the model's Eq. (2)/(5) curves over any practical domain.
    pub fn build_with(model: &XModel, k_max: f64, resolution: usize) -> Self {
        Self::from_curve(
            Some(CurveKey::of(model)),
            &|k| model.fk(k),
            k_max,
            resolution,
        )
    }

    /// Tabulate an arbitrary supply curve from a raw closure (used with
    /// [`solve_fast_curves`], e.g. for fault-injected curves in tests).
    /// The resulting table carries no model key; pairing it with the
    /// same curve at solve time is the caller's responsibility.
    pub fn tabulate(f: &dyn Fn(f64) -> f64, k_max: f64, resolution: usize) -> Self {
        Self::from_curve(None, f, k_max, resolution)
    }

    /// Sample `curve` at the `resolution + 1` grid points, probe each
    /// interval at its two third-points, and derive the margins and the
    /// span index from them.
    fn from_curve(
        key: Option<CurveKey>,
        curve: &dyn Fn(f64) -> f64,
        k_max: f64,
        resolution: usize,
    ) -> Self {
        assert!(k_max.is_finite() && k_max > 0.0, "k_max must be positive");
        assert!(resolution >= 16, "need at least 16 table intervals");
        let step = k_max / resolution as f64;
        let values: Vec<f64> = (0..=resolution).map(|i| curve(step * i as f64)).collect();
        let mut margins = Vec::with_capacity(resolution);
        for i in 0..resolution {
            let a = step * i as f64;
            let p1 = curve(a + step / 3.0);
            let p2 = curve(a + 2.0 * step / 3.0);
            let va = values[i];
            let vb = values[i + 1];
            let e1 = (p1 - (va + (vb - va) / 3.0)).abs();
            let e2 = (p2 - (va + (vb - va) * 2.0 / 3.0)).abs();
            let sound = va.is_finite() && vb.is_finite() && p1.is_finite() && p2.is_finite();
            margins.push(if sound {
                MARGIN_SAFETY * e1.max(e2) + 1e-12 * (va.abs().max(vb.abs()) + 1.0)
            } else {
                f64::INFINITY
            });
        }
        let build_evals = (3 * resolution + 1) as u64;
        let span_index = SpanIndex::build(&values, &margins);
        if xmodel_obs::enabled() {
            use xmodel_obs::metrics::counter_add;
            use xmodel_obs::names::metric;
            counter_add(metric::FASTPATH_TABLE_BUILDS, 1);
            counter_add(metric::FASTPATH_TABLE_EVALS, build_evals);
        }
        Self {
            key,
            k_max,
            step,
            values,
            margins,
            span_index,
            build_evals,
        }
    }

    /// The curve parameters this table was built for (`None` for raw
    /// [`CurveTable::tabulate`] tables).
    pub fn key(&self) -> Option<&CurveKey> {
        self.key.as_ref()
    }

    /// Upper end of the tabulated domain.
    pub fn k_max(&self) -> f64 {
        self.k_max
    }

    /// Number of table intervals.
    pub fn resolution(&self) -> usize {
        self.margins.len()
    }

    /// Exact curve evaluations spent building this table.
    pub fn build_evals(&self) -> u64 {
        self.build_evals
    }

    /// `true` when the sampled curve is monotone non-decreasing with no
    /// unsound intervals, so `f` crosses any non-increasing `ĝ(n−k)` at
    /// most once (the non-retrograde Gunther-USL shape every Eq. (2)
    /// roofline has). Finite margins imply finite samples.
    pub fn usl_single_crossing(&self) -> bool {
        let mut steps = self.values.iter().zip(self.values.iter().skip(1));
        self.margins.iter().all(|m| m.is_finite()) && steps.all(|(a, b)| b >= a)
    }

    /// Interpolated `f̃(k)` with the containing interval's margin
    /// (`+∞` on unsound intervals). `k` should lie within `[0, k_max]`.
    pub fn interp(&self, k: f64) -> (f64, f64) {
        let i = self.interval_of(k);
        (self.lerp_in(i, k), self.margins[i])
    }

    fn interval_of(&self, k: f64) -> usize {
        ((k / self.step) as usize).min(self.margins.len().saturating_sub(1))
    }

    fn lerp_in(&self, i: usize, k: f64) -> f64 {
        let t = k / self.step - i as f64;
        self.values[i] + (self.values[i + 1] - self.values[i]) * t
    }

    /// Bounds `(lo, hi)` on the true curve over `[a, b]`, or `None` when
    /// the covering index blocks touch an unsound interval. The answer
    /// may cover a superset of `[a, b]` (block granularity): wider
    /// bounds are still sound.
    fn span_bounds(&self, a: f64, b: f64) -> Option<(f64, f64)> {
        let ba = self.interval_of(a) / INDEX_BLOCK;
        let bb = self.interval_of(b) / INDEX_BLOCK;
        let blk = self.span_index.query(ba, bb);
        if !blk.margin.is_finite() {
            return None;
        }
        // Lerped values lie between their interval's endpoint samples,
        // which the blocks cover, so sample min/max bound the whole
        // piecewise-linear surrogate; the margin extends that to `f`.
        Some((blk.min - blk.margin, blk.max + blk.margin))
    }
}

/// Evaluation counts of one solve. The fast path's purpose is to drive
/// `f_evals` (the `powf`-bearing curve) toward zero away from roots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Exact `f(k)` evaluations.
    pub f_evals: u64,
    /// Exact `ĝ(x)` evaluations (cheap, counted for completeness).
    pub g_evals: u64,
    /// Dense samples answered from the interpolated table.
    pub interp_evals: u64,
    /// Dense-sample spans skipped wholesale by range screening.
    pub blocks_skipped: u64,
    /// Leaf spans that survived screening and were refined
    /// sample-by-sample.
    pub blocks_refined: u64,
    /// Span screens disabled by an unsound (non-finite-margin) table
    /// interval.
    pub unsound_disables: u64,
}

impl SolveStats {
    /// Total exact curve evaluations (`f` + `ĝ`) — the quantity reported
    /// on the `solver.curve_evals` counter.
    pub fn total(&self) -> u64 {
        self.f_evals + self.g_evals
    }
}

/// Sign classes mirroring the reference's comparisons: NaN sorts with
/// the non-negative side there (`v < 0.0` is false), so it does here.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    Neg,
    Zero,
    NonNeg,
}

fn classify(v: f64) -> Class {
    if v == 0.0 {
        Class::Zero
    } else if v < 0.0 {
        Class::Neg
    } else {
        Class::NonNeg
    }
}

/// The layered solve engine over one `(f, ĝ, table, n)` instance.
///
/// Soundness invariant shared by every layer: the class assigned to a
/// dense sample — via the interpolation-margin route, the exact route,
/// or a whole-span screen — always equals `classify` of the exact
/// residual at that sample, so the set of emitted brackets (and the
/// bisection midpoint sequence inside each) is independent of which
/// layer ran.
struct Engine<'a, F: Fn(f64) -> f64 + ?Sized, G: Fn(f64) -> f64 + ?Sized> {
    f: &'a F,
    g: &'a G,
    table: &'a CurveTable,
    n: f64,
    z: f64,
    step: f64,
    points: Vec<Intersection>,
    prev_k: f64,
    prev_class: Class,
    f_evals: Cell<u64>,
    g_evals: Cell<u64>,
    interp_evals: Cell<u64>,
    unsound: Cell<u64>,
    blocks_skipped: u64,
    blocks_refined: u64,
}

impl<F: Fn(f64) -> f64 + ?Sized, G: Fn(f64) -> f64 + ?Sized> Engine<'_, F, G> {
    fn f_exact(&self, k: f64) -> f64 {
        self.f_evals.set(self.f_evals.get() + 1);
        (self.f)(k)
    }

    fn g_exact(&self, x: f64) -> f64 {
        self.g_evals.set(self.g_evals.get() + 1);
        (self.g)(x)
    }

    /// Append the classified intersection at `k`, evaluating the exact
    /// curves for the stability slopes like the reference does.
    fn emit_point(&mut self, k: f64) {
        let p = {
            let f = |kk: f64| self.f_exact(kk);
            let g = |xx: f64| self.g_exact(xx);
            solver::make_point(&f, &g, self.n, self.z, k)
        };
        self.points.push(p);
    }

    /// Screened bisection over `[lo, hi]`: the reference's exact
    /// midpoint sequence, with each midpoint's sign read from the table
    /// when `|f̃ − ĝ|` clears the interval margin (then the true residual
    /// has the same sign and cannot be zero, since sound margins are
    /// strictly positive) and from the exact curve otherwise. Returns
    /// the bit-identical root.
    fn bisect(&self, mut lo: f64, mut hi: f64, lo_neg: bool) -> f64 {
        for _ in 0..solver::BISECT_ITERS {
            let mid = 0.5 * (lo + hi);
            let gk = self.g_exact(self.n - mid);
            let (ft, margin) = self.table.interp(mid);
            let vt = ft - gk;
            let neg = if vt.abs() > margin {
                self.interp_evals.set(self.interp_evals.get() + 1);
                vt < 0.0
            } else {
                let v = self.f_exact(mid) - gk;
                if v == 0.0 {
                    return mid;
                }
                v < 0.0
            };
            if neg == lo_neg {
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

    /// Screen dense samples `i..=j`: `Some(class)` when the residual
    /// range over `[step·(i−1), step·j]` strictly excludes zero (then
    /// every sample in the span — and the left neighbour — has that
    /// class and no root or exact zero can hide inside), `None` when
    /// inconclusive.
    fn screen_span(&self, i: usize, j: usize) -> Option<Class> {
        let a = self.step * (i - 1) as f64;
        let b = self.step * j as f64;
        let Some((f_lo, f_hi)) = self.table.span_bounds(a, b) else {
            self.unsound.set(self.unsound.get() + 1);
            return None;
        };
        // ĝ(n−k) is non-increasing in k (g is non-decreasing in x), so
        // its range over the span is bracketed by the endpoints.
        let g_hi = self.g_exact(self.n - a);
        let g_lo = self.g_exact(self.n - b);
        if f_lo - g_hi > 0.0 {
            Some(Class::NonNeg)
        } else if f_hi - g_lo < 0.0 {
            Some(Class::Neg)
        } else {
            None
        }
    }

    /// Consume a screened-uniform span `i..=j`: only its left edge can
    /// bracket, exactly as the reference would between dense samples
    /// `i−1` and `i`.
    fn skip_span(&mut self, i: usize, j: usize, class: Class) {
        if self.prev_class != Class::Zero && self.prev_class != class {
            let k_first = self.step * i as f64;
            let root = self.bisect(self.prev_k, k_first, self.prev_class == Class::Neg);
            xmodel_obs::event!(
                "solver.bracket",
                lo = self.prev_k,
                hi = k_first,
                root = root
            );
            self.emit_point(root);
        }
        self.blocks_skipped += 1;
        self.prev_k = self.step * j as f64;
        self.prev_class = class;
    }

    /// Classify one refined sample and run the reference's per-sample
    /// bracket logic against the running `(prev_k, prev_class)` state.
    fn refine_sample(&mut self, k: f64, gk: f64) {
        let (ft, margin) = self.table.interp(k);
        let vt = ft - gk;
        let class = if vt.abs() > margin {
            self.interp_evals.set(self.interp_evals.get() + 1);
            classify(vt)
        } else {
            classify(self.f_exact(k) - gk)
        };
        match class {
            Class::Zero => self.emit_point(k),
            _ => {
                if self.prev_class != Class::Zero && self.prev_class != class {
                    let root = self.bisect(self.prev_k, k, self.prev_class == Class::Neg);
                    xmodel_obs::event!("solver.bracket", lo = self.prev_k, hi = k, root = root);
                    self.emit_point(root);
                }
            }
        }
        self.prev_k = k;
        self.prev_class = class;
    }

    /// Refine dense samples `i..=j` one by one.
    fn refine_span(&mut self, i: usize, j: usize) {
        self.blocks_refined += 1;
        for idx in i..=j {
            let k = self.step * idx as f64;
            let gk = self.g_exact(self.n - k);
            self.refine_sample(k, gk);
        }
    }

    /// The cold path: recursive span descent over dense samples `i..=j`.
    fn descend(&mut self, i: usize, j: usize) {
        if let Some(class) = self.screen_span(i, j) {
            self.skip_span(i, j, class);
            return;
        }
        if j - i < REFINE_LEAF {
            self.refine_span(i, j);
            return;
        }
        let mid = i + (j - i) / 2;
        self.descend(i, mid);
        self.descend(mid + 1, j);
    }
}

/// The shared solve core behind every fast-path entry point.
fn solve_core<F, G>(
    f: &F,
    g: &G,
    table: &CurveTable,
    n: f64,
    z: f64,
    samples: usize,
) -> (Equilibria, SolveStats)
where
    F: Fn(f64) -> f64 + ?Sized,
    G: Fn(f64) -> f64 + ?Sized,
{
    assert!(samples >= 2, "need at least two scan samples");
    let _span = xmodel_obs::span!(xmodel_obs::names::span::SOLVER_SOLVE_FAST);
    if n <= 0.0 {
        return (
            Equilibria::from_points(Vec::new(), n),
            SolveStats::default(),
        );
    }
    assert!(
        n <= table.k_max * (1.0 + 1e-9),
        "CurveTable covers k <= {}, solve needs {}",
        table.k_max,
        n
    );
    let step = n / samples as f64;
    let mut engine = Engine {
        f,
        g,
        table,
        n,
        z,
        step,
        points: Vec::new(),
        prev_k: 0.0,
        prev_class: Class::NonNeg,
        f_evals: Cell::new(0),
        g_evals: Cell::new(0),
        interp_evals: Cell::new(0),
        unsound: Cell::new(0),
        blocks_skipped: 0,
        blocks_refined: 0,
    };
    // Dense index 0 is always evaluated exactly, like the reference.
    let v0 = engine.f_exact(0.0) - engine.g_exact(n - 0.0);
    if v0 == 0.0 {
        engine.emit_point(0.0);
    }
    engine.prev_class = classify(v0);
    engine.descend(1, samples);

    let stats = SolveStats {
        f_evals: engine.f_evals.get(),
        g_evals: engine.g_evals.get(),
        interp_evals: engine.interp_evals.get(),
        blocks_skipped: engine.blocks_skipped,
        blocks_refined: engine.blocks_refined,
        unsound_disables: engine.unsound.get(),
    };
    let eq = solver::finish(engine.points, n, step);
    if xmodel_obs::enabled() {
        use xmodel_obs::metrics::counter_add;
        use xmodel_obs::names::metric;
        counter_add(metric::SOLVER_CURVE_EVALS, stats.total());
        counter_add(metric::FASTPATH_BLOCKS_SCREENED, stats.blocks_skipped);
        counter_add(metric::FASTPATH_BLOCKS_REFINED, stats.blocks_refined);
        counter_add(metric::FASTPATH_INTERP_EVALS, stats.interp_evals);
        counter_add(metric::FASTPATH_EXACT_EVALS, stats.f_evals);
        counter_add(metric::FASTPATH_UNSOUND_DISABLES, stats.unsound_disables);
    }
    (eq, stats)
}

/// Solve `model` against a prebuilt [`CurveTable`], returning the same
/// [`Equilibria`] as [`XModel::solve_with`] at the same `samples`.
///
/// # Panics
///
/// When `table` was built for a different supply curve, does not cover
/// `[0, n]`, or `samples < 2`.
// xlint: determinism-root
pub fn solve_fast(model: &XModel, table: &CurveTable, samples: usize) -> Equilibria {
    solve_fast_stats(model, table, samples).0
}

/// [`solve_fast`] returning evaluation statistics alongside the result.
// xlint: determinism-root
pub fn solve_fast_stats(
    model: &XModel,
    table: &CurveTable,
    samples: usize,
) -> (Equilibria, SolveStats) {
    assert!(
        table.key == Some(CurveKey::of(model)),
        "CurveTable was built for a different supply curve"
    );
    solve_core(
        &|k| model.fk(k),
        &|x| model.g_hat(x),
        table,
        model.workload.n,
        model.workload.z,
        samples,
    )
}

/// [`solve_fast`] over raw curve closures paired with a
/// [`CurveTable::tabulate`] table of the same `f` — the entry point for
/// curves that exist outside an [`XModel`] (fault-injected or synthetic
/// shapes). `g_hat` must be non-decreasing in `x` (every Eq. (1) demand
/// curve is) for the span screening to be sound.
// xlint: determinism-root
pub fn solve_fast_curves(
    curve_f: &dyn Fn(f64) -> f64,
    curve_g_hat: &dyn Fn(f64) -> f64,
    table: &CurveTable,
    n: f64,
    z: f64,
    samples: usize,
) -> (Equilibria, SolveStats) {
    solve_core(curve_f, curve_g_hat, table, n, z, samples)
}

/// Run the exact reference [`XModel::solve_with`] while counting curve
/// evaluations, for fast-vs-reference comparisons in tests and benches.
pub fn reference_stats(model: &XModel, samples: usize) -> (Equilibria, SolveStats) {
    let f_evals = Cell::new(0u64);
    let g_evals = Cell::new(0u64);
    let f = |k: Threads| {
        f_evals.set(f_evals.get() + 1);
        ReqPerCycle(model.fk(k.get()))
    };
    let g = |x: Threads| {
        g_evals.set(g_evals.get() + 1);
        ReqPerCycle(model.g_hat(x.get()))
    };
    let eq = solver::solve_with(
        &f,
        &g,
        model.workload.threads(),
        model.workload.intensity(),
        samples,
    );
    (
        eq,
        SolveStats {
            f_evals: f_evals.get(),
            g_evals: g_evals.get(),
            ..SolveStats::default()
        },
    )
}

/// Reusable solver state for parameter sweeps: keeps the [`CurveTable`]
/// across iterations and rebuilds it only when the supply curve changes
/// or the tabulated domain must grow.
#[derive(Debug, Clone, Default)]
pub struct SolveCache {
    table: Option<CurveTable>,
    rebuilds: u64,
    hits: u64,
}

impl SolveCache {
    /// Empty cache; its tables are built at [`DEFAULT_RESOLUTION`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Solve at dense-scan resolution `samples`, building or growing the
    /// table first when it is missing or stale.
    // xlint: determinism-root
    pub fn solve_with(&mut self, model: &XModel, samples: usize) -> Equilibria {
        let n = model.workload.n;
        if n <= 0.0 {
            return Equilibria::from_points(Vec::new(), n);
        }
        let had_table = self.table.is_some();
        let stale = match &self.table {
            Some(t) => t.key != Some(CurveKey::of(model)) || t.k_max < n,
            None => true,
        };
        if xmodel_obs::enabled() {
            use xmodel_obs::metrics::counter_add;
            use xmodel_obs::names::metric;
            counter_add(
                match (stale, had_table) {
                    (false, _) => metric::FASTPATH_CACHE_HITS,
                    (true, false) => metric::FASTPATH_CACHE_MISSES,
                    (true, true) => metric::FASTPATH_CACHE_STALE,
                },
                1,
            );
        }
        if stale {
            // Grow the domain in powers of two so an ascending n-sweep
            // rebuilds the table O(log n) times, not once per step.
            let mut k_max = 64.0f64;
            while k_max < n {
                k_max *= 2.0;
            }
            self.table = Some(CurveTable::build(model, k_max));
            self.rebuilds += 1;
        } else {
            self.hits += 1;
        }
        match &self.table {
            Some(t) => solve_fast(model, t, samples),
            // Unreachable (just built); degrade to the exact reference
            // rather than panicking.
            None => model.solve_with(samples),
        }
    }

    /// The cached table, when one has been built.
    pub fn table(&self) -> Option<&CurveTable> {
        self.table.as_ref()
    }

    /// Number of table (re)builds performed.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Number of solves that reused the cached table.
    pub fn hits(&self) -> u64 {
        self.hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{MachineParams, WorkloadParams};
    use crate::presets::Precision;

    fn cached_model() -> XModel {
        XModel::with_cache(
            MachineParams::new(6.0, 0.1, 600.0),
            WorkloadParams::new(40.0, 1.0, 48.0),
            CacheParams::try_new(16.0 * 1024.0, 30.0, 5.0, 2048.0).unwrap(),
        )
    }

    fn basic_model() -> XModel {
        XModel::new(
            MachineParams::new(4.0, 0.1, 500.0),
            WorkloadParams::new(20.0, 1.0, 48.0),
        )
    }

    #[test]
    fn table_matches_curve_at_grid_points() {
        let m = cached_model();
        let t = CurveTable::build_with(&m, 64.0, 256);
        for i in [0usize, 17, 128, 256] {
            let k = 64.0 * i as f64 / 256.0;
            let (v, _) = t.interp(k);
            assert!((v - m.fk(k)).abs() < 1e-12, "grid point {i}");
        }
        assert_eq!(t.build_evals(), 3 * 256 + 1);
    }

    #[test]
    fn interp_margin_bounds_true_error() {
        let m = cached_model();
        let t = CurveTable::build(&m, 64.0);
        // Off-grid probes: the interpolation error stays within margin.
        for i in 0..999 {
            let k = 64.0 * (i as f64 + 0.413) / 999.0;
            let (v, margin) = t.interp(k);
            assert!(
                (v - m.fk(k)).abs() <= margin,
                "margin violated at k = {k}: |{v} - {}| > {margin}",
                m.fk(k)
            );
        }
    }

    #[test]
    fn span_bounds_contain_true_curve() {
        let m = cached_model();
        let t = CurveTable::build(&m, 64.0);
        for (a, b) in [(0.5, 3.0), (10.0, 11.0), (0.0, 64.0), (40.0, 63.5)] {
            let (lo, hi) = t.span_bounds(a, b).expect("sound table");
            for i in 0..=200 {
                let k = a + (b - a) * i as f64 / 200.0;
                let v = m.fk(k);
                assert!(v >= lo && v <= hi, "f({k}) = {v} outside [{lo}, {hi}]");
            }
        }
    }

    #[test]
    fn usl_screen_gates_on_monotonicity() {
        // Every cacheless roofline is monotone: single-crossing.
        let t = CurveTable::build(&basic_model(), 64.0);
        assert!(t.usl_single_crossing());
        for spec in crate::presets::table2() {
            for precision in [Precision::Single, Precision::Double] {
                let m = XModel::new(
                    spec.machine_params(precision),
                    WorkloadParams::new(16.0, 1.0, 64.0),
                );
                let t = CurveTable::build(&m, 64.0);
                assert!(t.usl_single_crossing(), "{} {precision:?}", spec.name);
            }
        }
        // The Eq. (5) peak/valley curve is retrograde: screen off.
        let t = CurveTable::build(&cached_model(), 64.0);
        assert!(!t.usl_single_crossing());
        // Raw tables: the gate reads only the samples and margins.
        let gate =
            |f: &dyn Fn(f64) -> f64| CurveTable::tabulate(f, 64.0, 256).usl_single_crossing();
        // A NaN hole makes its intervals unsound, rising or not.
        assert!(!gate(&|k| if (20.0..21.0).contains(&k) {
            f64::NAN
        } else {
            k / 500.0
        }));
        // One falling interval (32 → 32.25) in an otherwise rising curve.
        assert!(!gate(&|k| if k <= 32.0 {
            k / 500.0
        } else {
            (k - 0.5) / 500.0
        }));
        // Flat samples count as non-decreasing.
        assert!(gate(&|_| 0.05));
        let m = cached_model();
        assert!(!gate(&|k| m.fk(k)));
    }

    #[test]
    fn fast_matches_reference_bitwise_on_fixtures() {
        for m in [basic_model(), cached_model()] {
            let t = CurveTable::build(&m, 64.0);
            let exact = m.solve();
            let fast = solve_fast(&m, &t, solver::DEFAULT_SAMPLES);
            assert_eq!(exact, fast, "fast path must reproduce the reference");
        }
    }

    #[test]
    fn fast_spends_fewer_curve_evals() {
        let m = cached_model();
        let t = CurveTable::build(&m, 64.0);
        let (_, fast) = solve_fast_stats(&m, &t, solver::DEFAULT_SAMPLES);
        let (_, reference) = reference_stats(&m, solver::DEFAULT_SAMPLES);
        assert!(
            fast.total() < reference.total(),
            "fast {} vs reference {}",
            fast.total(),
            reference.total()
        );
        assert!(fast.blocks_skipped > 0, "screening never engaged");
    }

    #[test]
    fn solve_cache_rebuilds_only_on_curve_change() {
        let mut cache = SolveCache::new();
        let m = cached_model();
        let a = cache.solve_with(&m, solver::DEFAULT_SAMPLES);
        assert_eq!(cache.rebuilds(), 1);
        // n moves the demand curve only: table is reused.
        let mut m2 = m;
        m2.workload.n = 32.0;
        let _ = cache.solve_with(&m2, solver::DEFAULT_SAMPLES);
        assert_eq!(cache.rebuilds(), 1);
        assert_eq!(cache.hits(), 1);
        // R reshapes the supply curve: rebuild.
        let mut m3 = m;
        m3.machine.r = 0.05;
        let _ = cache.solve_with(&m3, solver::DEFAULT_SAMPLES);
        assert_eq!(cache.rebuilds(), 2);
        assert_eq!(a, m.solve());
    }

    #[test]
    fn solve_cache_grows_domain_for_large_n() {
        let mut cache = SolveCache::new();
        let mut m = basic_model();
        m.workload.n = 1000.0;
        let eq = cache.solve_with(&m, solver::DEFAULT_SAMPLES);
        assert_eq!(eq, m.solve());
        assert!(cache.table().map(|t| t.k_max()).unwrap_or(0.0) >= 1000.0);
    }

    #[test]
    fn zero_threads_is_empty() {
        let mut cache = SolveCache::new();
        let mut m = basic_model();
        m.workload.n = 0.0;
        assert!(cache
            .solve_with(&m, solver::DEFAULT_SAMPLES)
            .points()
            .is_empty());
    }
}
