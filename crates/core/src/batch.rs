//! Lane-batched evaluation kernels for the Eq. (2)/(5) curves.
//!
//! [`SupplyKernel`] and [`DemandKernel`] are flattened, precomputed forms
//! of the MS supply curve `f(k)` ([`crate::ms`]/[`crate::cache`]) and the
//! CS demand curve `ĝ(x)` ([`crate::cs`]): plain-`f64` structs whose
//! scalar [`SupplyKernel::eval`] reproduces the dimensionally-typed
//! facade **bit for bit** (the `quantity` types delegate `min`/`max`/
//! arithmetic straight to `f64`, so unwrapping them once up front cannot
//! change a single ULP — pinned by the parity tests below), and whose
//! [`SupplyKernel::eval8`] evaluates eight grid points per loop body over
//! `[f64; 8]` lanes. The roofline arms are branch-free `max`/`min`/
//! division chains that LLVM auto-vectorizes; the Eq. (5) arm keeps a
//! `powf` per lane (not vectorizable without `unsafe` intrinsics — the
//! crate stays `#![forbid(unsafe_code)]`) but still gains from unrolled
//! instruction-level parallelism and hoisted parameter loads.
//!
//! [`crate::fastpath`] builds its curve tables through
//! [`SupplyKernel::eval8`] and refines leaf spans through
//! [`DemandKernel::eval8`].

use crate::model::XModel;

/// Fixed lane width of the batched kernels. Eight `f64`s span two AVX2
/// registers or one AVX-512 register; on narrower targets LLVM splits the
/// loop body without changing results.
pub const LANES: usize = 8;

/// Flattened cache parameters of Eq. (5) with the exponent precomputed.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CacheKernel {
    s_cache: f64,
    l_cache: f64,
    beta: f64,
    /// `−(α − 1)` — the Eq. (3) exponent, hoisted out of the grid loop.
    /// Same expression [`crate::cache::CacheParams::hit_rate`] folds per
    /// call, so precomputing it is bit-neutral.
    neg_am1: f64,
}

/// Batched MS supply curve `f(k)`: Eq. (2) roofline, or Eq. (5) when the
/// model carries shared-cache parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupplyKernel {
    r: f64,
    l: f64,
    cache: Option<CacheKernel>,
}

impl SupplyKernel {
    /// Flatten the supply-curve parameters of `model`.
    pub fn of(model: &XModel) -> Self {
        Self {
            r: model.machine.r,
            l: model.machine.l,
            cache: model.cache.map(|c| CacheKernel {
                s_cache: c.s_cache,
                l_cache: c.l_cache,
                beta: c.beta,
                neg_am1: -(c.alpha - 1.0),
            }),
        }
    }

    /// Scalar `f(k)`, bit-identical to [`XModel::fk`].
    #[inline]
    pub fn eval(&self, k: f64) -> f64 {
        match self.cache {
            // Eq. (2): f(k) = min(k/L, R), negative k clamped to zero.
            None => (k.max(0.0) / self.l).min(self.r),
            Some(c) => {
                // Eq. (5) in the exact operation order of
                // `CachedMsCurve::f` / `CacheParams::hit_rate`.
                if k <= 0.0 {
                    return 0.0;
                }
                let h = if c.s_cache <= 0.0 {
                    0.0
                } else {
                    let share = c.s_cache / (c.beta * k);
                    1.0 - (share + 1.0).powf(c.neg_am1)
                };
                let lm = self.l.max(k.max(0.0) / self.r);
                let loaded = h * c.l_cache + (1.0 - h) * lm;
                k / loaded
            }
        }
    }

    /// Eight `f(k)` evaluations in one loop body. Each lane computes the
    /// exact scalar expression, so lane `i` equals `eval(ks[i])` bitwise.
    #[inline]
    pub fn eval8(&self, ks: &[f64; LANES]) -> [f64; LANES] {
        let mut out = [0.0; LANES];
        match self.cache {
            None => {
                for lane in 0..LANES {
                    out[lane] = (ks[lane].max(0.0) / self.l).min(self.r);
                }
            }
            Some(_) => {
                for lane in 0..LANES {
                    out[lane] = self.eval(ks[lane]);
                }
            }
        }
        out
    }
}

/// Batched CS demand curve `ĝ(x) = min(E·x, M)/Z`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DemandKernel {
    m: f64,
    e: f64,
    z: f64,
}

impl DemandKernel {
    /// Flatten the demand-curve parameters of `model`.
    pub fn of(model: &XModel) -> Self {
        Self {
            m: model.machine.m,
            e: model.workload.e,
            z: model.workload.z,
        }
    }

    /// Scalar `ĝ(x)`, bit-identical to [`XModel::g_hat`].
    #[inline]
    pub fn eval(&self, x: f64) -> f64 {
        (self.e * x.max(0.0)).min(self.m) / self.z
    }

    /// Eight `ĝ(x)` evaluations in one auto-vectorizable loop body.
    #[inline]
    pub fn eval8(&self, xs: &[f64; LANES]) -> [f64; LANES] {
        let mut out = [0.0; LANES];
        for lane in 0..LANES {
            out[lane] = (self.e * xs[lane].max(0.0)).min(self.m) / self.z;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheParams;
    use crate::params::{MachineParams, WorkloadParams};

    fn basic() -> XModel {
        XModel::new(
            MachineParams::new(4.0, 0.1, 500.0),
            WorkloadParams::new(20.0, 1.2, 64.0),
        )
    }

    fn cached() -> XModel {
        XModel::with_cache(
            MachineParams::new(6.0, 0.1, 600.0),
            WorkloadParams::new(40.0, 1.0, 48.0),
            CacheParams::try_new(16.0 * 1024.0, 30.0, 5.0, 2048.0).unwrap(),
        )
    }

    /// Probe grid covering negatives, zero, subnormal-adjacent values,
    /// the roofline knee and far saturation.
    fn probes(n: f64) -> Vec<f64> {
        let mut ks: Vec<f64> = (-8..=512).map(|i| n * i as f64 / 256.0).collect();
        ks.extend_from_slice(&[0.0, -0.0, 1e-300, 1e300, f64::NAN]);
        ks
    }

    #[test]
    fn supply_kernel_matches_model_bitwise() {
        for m in [basic(), cached()] {
            let kern = SupplyKernel::of(&m);
            for k in probes(m.workload.n) {
                assert_eq!(
                    kern.eval(k).to_bits(),
                    m.fk(k).to_bits(),
                    "f mismatch at k={k}"
                );
            }
        }
    }

    #[test]
    fn demand_kernel_matches_model_bitwise() {
        for m in [basic(), cached()] {
            let kern = DemandKernel::of(&m);
            for x in probes(m.workload.n) {
                assert_eq!(
                    kern.eval(x).to_bits(),
                    m.g_hat(x).to_bits(),
                    "ghat mismatch at x={x}"
                );
            }
        }
    }

    #[test]
    fn eval8_lanes_equal_scalar_eval() {
        for m in [basic(), cached()] {
            let sup = SupplyKernel::of(&m);
            let dem = DemandKernel::of(&m);
            let grid = probes(m.workload.n);
            for chunk in grid.chunks_exact(LANES) {
                let ks: [f64; LANES] = chunk.try_into().unwrap();
                let fs = sup.eval8(&ks);
                let gs = dem.eval8(&ks);
                for lane in 0..LANES {
                    assert_eq!(fs[lane].to_bits(), sup.eval(ks[lane]).to_bits());
                    assert_eq!(gs[lane].to_bits(), dem.eval(ks[lane]).to_bits());
                }
            }
        }
    }

    #[test]
    fn zero_capacity_cache_kernel_degenerates() {
        let mut m = cached();
        m.cache = Some(CacheParams::try_new(0.0, 30.0, 2.0, 1024.0).unwrap());
        let kern = SupplyKernel::of(&m);
        for k in probes(m.workload.n) {
            assert_eq!(kern.eval(k).to_bits(), m.fk(k).to_bits());
        }
    }
}
