//! Stability of flow-balance intersections (§III-D1, Eq. 6).
//!
//! The machine state drifts according to `dk/dt = ĝ(n−k) − f(k)`: threads
//! enter MS at the CS demand rate and leave at the MS supply rate. An
//! equilibrium `f(k) = ĝ(n−k)` is *stable* when a perturbation is revised
//! — i.e. when `d(dk/dt)/dk < 0`, which rearranges to
//!
//! ```text
//! f'(k) + ĝ'(x) > 0        (x = n − k)
//! ```
//!
//! On the descending slope of a cache-integrated `f(k)` (where `f' < 0`)
//! this is the paper's Eq. (6): the intersection is stable iff the slope of
//! `g` is steeper than that of `f`, `|∂g/∂x| > |∂f/∂k|`. The middle
//! intersection `σ` of Fig. 9-B violates it and can never be observed on a
//! real machine.

use serde::{Deserialize, Serialize};

/// Stability classification of one intersection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Stability {
    /// Perturbations decay; the machine can settle here.
    Stable,
    /// Perturbations grow; the state diverges towards a stable neighbour.
    Unstable,
    /// The derivative criterion is within tolerance of zero (tangency).
    Marginal,
}

/// Tolerance on the stability indicator below which an intersection is
/// declared [`Stability::Marginal`].
pub const MARGINAL_TOL: f64 = 1e-9;

/// Classify an intersection from the two curve slopes at the equilibrium:
/// `df_dk` is `∂f/∂k` and `dghat_dx` is `∂ĝ/∂x` (both in MS-throughput
/// space).
pub fn classify(df_dk: f64, dghat_dx: f64) -> Stability {
    let s = df_dk + dghat_dx;
    if s > MARGINAL_TOL {
        Stability::Stable
    } else if s < -MARGINAL_TOL {
        Stability::Unstable
    } else {
        Stability::Marginal
    }
}

impl Stability {
    /// `true` for [`Stability::Stable`].
    pub fn is_stable(self) -> bool {
        matches!(self, Stability::Stable)
    }

    /// Lowercase wire form (`stable` / `unstable` / `marginal`) shared by
    /// the served bodies and the `xmodel-sweep/1` rows.
    pub fn as_str(self) -> &'static str {
        match self {
            Stability::Stable => "stable",
            Stability::Unstable => "unstable",
            Stability::Marginal => "marginal",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rising_f_is_always_stable() {
        // On the rising part of f any non-negative g-slope keeps it stable.
        assert_eq!(classify(0.01, 0.0), Stability::Stable);
        assert_eq!(classify(0.01, 0.5), Stability::Stable);
    }

    #[test]
    fn falling_f_with_flat_g_is_unstable() {
        // Fig. 9-B: intersection on the descending slope of f against the
        // flat part of g — perturbations grow.
        assert_eq!(classify(-0.01, 0.0), Stability::Unstable);
    }

    #[test]
    fn eq6_criterion_on_descending_slope() {
        // |g'| > |f'| with f' < 0 => stable (Eq. 6).
        assert_eq!(classify(-0.02, 0.05), Stability::Stable);
        // |g'| < |f'| => unstable.
        assert_eq!(classify(-0.05, 0.02), Stability::Unstable);
    }

    #[test]
    fn tangency_is_marginal() {
        assert_eq!(classify(-0.05, 0.05), Stability::Marginal);
        assert_eq!(classify(0.0, 0.0), Stability::Marginal);
    }

    #[test]
    fn is_stable_helper() {
        assert!(Stability::Stable.is_stable());
        assert!(!Stability::Unstable.is_stable());
        assert!(!Stability::Marginal.is_stable());
    }
}
