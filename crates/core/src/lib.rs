//! # xmodel-core — the X-model analytic engine
//!
//! Implementation of *"X: A Comprehensive Analytic Model for Parallel
//! Machines"* (Li et al., IPPS 2016).
//!
//! The X-model views a parallel machine as two coupled subsystems:
//!
//! * a **computation system (CS)** with `M` in-order lanes whose throughput
//!   with `x` resident threads is `g(x) = min(E·x, M)` operations/cycle, and
//! * a **memory system (MS)** whose supply throughput with `k` resident
//!   threads is `f(k)` requests/cycle — a simple roofline `min(k/L, R)`
//!   without a cache, or the cache-integrated Eq. (5) of the paper with one.
//!
//! With `n` total threads, `x` of them execute in CS and `k = n − x` wait in
//! MS. Flow balance pins the machine's *spatial state*: the equilibrium is
//! the intersection of `f(k)` with the demand curve `g(n−k)/Z` plotted in MS
//! throughput space. Everything else in the paper — the parallelism metrics
//! (ILP/TLP/MLP/DLP), the cache peak/valley/plateau, stable and unstable
//! intersections, severe performance degradation, and the what-if tuning
//! operations — is derived from that picture.
//!
//! ## Quick start
//!
//! ```
//! use xmodel_core::prelude::*;
//!
//! // A Kepler-like SM (warp-granularity units: threads are warps,
//! // requests are 128-byte coalesced transactions).
//! let machine = MachineParams::new(6.0, 0.10, 600.0);
//! let workload = WorkloadParams::new(24.0, 1.2, 48.0);
//! let model = XModel::new(machine, workload);
//!
//! let eq = model.solve();
//! let op = eq.operating_point().expect("one stable equilibrium");
//! assert!(op.ms_throughput > 0.0);
//! assert!((op.k + op.x - 48.0).abs() < 1e-6);
//! ```
//!
//! ## Module map
//!
//! | module | contents |
//! |---|---|
//! | [`params`] | machine / workload / cache parameter sets (Table I) |
//! | [`cs`] | CS throughput `g(x)`, transition point `π` |
//! | [`ms`] | cache-less MS supply `f(k)`, transition point `δ` |
//! | [`cache`] | Jacob hit-rate model, Eq. (5), peak/valley/plateau features |
//! | [`multilevel`] | two-level (L1+L2) extension of Eq. (5), mechanical bypass |
//! | [`solver`] | flow-balance root finding, all intersections |
//! | [`fastpath`] | tabulated supply curve, three-layer `solve_fast`, `SolveCache` |
//! | [`sweep`] | deterministic parallel grid engine on `std::thread::scope` |
//! | [`degrade`] | graceful-degradation ladder: exact → grid-scan → baseline |
//! | [`stability`] | Eq. (6) stability classification |
//! | [`dynamics`] | thread-migration ODE, convergence, hysteresis |
//! | [`exectime`] | execution-time prediction (the §VII extension) |
//! | [`transit`] | the predecessor Transit model, Principles 1–3, bounds |
//! | [`balance`] | machine balance / capacity bound, machine TLP |
//! | [`metrics`] | ILP/TLP/MLP/DLP of machine and workload |
//! | [`report`] | textual performance report card |
//! | [`sensitivity`] | elasticity of throughput in every knob |
//! | [`tuning`] | the nine tuning knobs of Figs. 4 & 8 |
//! | [`whatif`] | case-study optimizations (§VI): throttling, bypassing, ±Z, ±E |
//! | [`presets`] | Fermi / Kepler / Maxwell architecture presets (Table II) |
//! | [`units`] | conversions between model space and GB/s / GF/s |
//! | [`xgraph`] | assembled X-graph description for rendering |

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod balance;
pub mod cache;
pub mod cs;
pub mod degrade;
pub mod dynamics;
pub mod error;
pub mod exectime;
pub mod fastpath;
pub mod metrics;
pub mod ms;
pub mod multilevel;
pub mod params;
pub mod presets;
pub mod report;
pub mod sensitivity;
pub mod solver;
pub mod stability;
pub mod sweep;
pub mod transit;
pub mod tuning;
pub mod units;
pub mod whatif;
pub mod xgraph;

mod model;

pub use degrade::{Degradation, DegradeForce, ResolvedOperatingPoint, DEGRADE_SCHEMA};
pub use error::{ModelError, Result};
pub use model::XModel;

/// Convenient glob import of the most-used types.
pub mod prelude {
    pub use crate::balance::{BalanceReport, BoundKind};
    pub use crate::cache::{CacheParams, MsCurveFeatures};
    pub use crate::degrade::{Degradation, DegradeForce, ResolvedOperatingPoint};
    pub use crate::dynamics::{Trajectory, TrajectoryEnd};
    pub use crate::fastpath::{CurveTable, SolveCache};
    pub use crate::metrics::ParallelismReport;
    pub use crate::model::XModel;
    pub use crate::params::{MachineParams, WorkloadParams};
    pub use crate::presets::{GpuGeneration, GpuSpec, Precision};
    pub use crate::solver::{Equilibria, Intersection};
    pub use crate::stability::Stability;
    pub use crate::transit::TransitModel;
    pub use crate::tuning::{CacheKnob, Knob, TuningOp};
    pub use crate::units::{
        Cycles, Ops, OpsPerCycle, OpsPerRequest, ReqPerCycle, Requests, Threads, UnitContext,
    };
    pub use crate::whatif::{Optimization, WhatIf};
    pub use crate::xgraph::XGraph;
}
