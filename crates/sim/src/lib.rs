//! # xmodel-sim — a cycle-level multithreaded-SM simulator
//!
//! The paper measures its claims on real GPUs; this crate is the
//! substitute substrate: a deterministic, cycle-exact simulator of one
//! streaming multiprocessor with
//!
//! * a **computation system** — `M` warp-ops/cycle of lane capacity, a
//!   round-robin dual-issue scheduler honouring each warp's ILP width;
//! * a **memory system** — optional set-associative LRU L1 with a finite
//!   MSHR file, load/store-unit issue limits, and a DRAM model with fixed
//!   service latency plus a bandwidth token bucket;
//! * per-warp **address streams** from `xmodel-workloads`;
//! * counters for exactly the observables the paper reads off hardware
//!   (MS GB/s, CS ops/s, hit rates) *plus* the one thing hardware hides:
//!   the instantaneous spatial state `(x, k)` — how many warps sit in CS
//!   vs MS — which is what the X-model predicts.
//!
//! The simulator intentionally includes second-order effects the analytic
//! model abstracts away (MSHR exhaustion, issue-port contention, discrete
//! line granularity) so that model-vs-simulator comparisons are meaningful
//! validation rather than tautology.
//!
//! [`Sm`] and the kernel-IR driver [`IrSm`] share one memory system, down
//! to the ledger that re-submits completions lost to drop faults, and one
//! set of run loops. [`Sm`]'s loops jump over cycles in which every warp
//! waits on memory, and its scheduler visits only the warps that can act;
//! the statistics equal those of stepping every cycle bit for bit (see
//! [`sm`]). [`IrSm`] and [`ChipSim`] step every cycle.
//!
//! ```
//! use xmodel_sim::prelude::*;
//! use xmodel_workloads::TraceSpec;
//!
//! let cfg = SimConfig::builder()
//!     .lanes(6.0)
//!     .dram(600, 12.8)
//!     .l1(16 * 1024, 30, 32)
//!     .build();
//! let wl = SimWorkload {
//!     trace: TraceSpec::Stream { region_lines: 1 << 20 },
//!     ops_per_request: 10.0,
//!     ilp: 1.5,
//!     warps: 32,
//! };
//! let stats = simulate(&cfg, &wl, 20_000, 5_000);
//! assert!(stats.ms_throughput() > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod chip;
pub mod config;
pub mod dram;
pub mod error;
pub mod exec;
pub mod fault;
pub(crate) mod mem;
pub(crate) mod probe;
pub(crate) mod run;
pub mod sm;
pub mod stats;

pub use chip::{simulate_chip, ChipSim};
pub use config::{CacheConfig, DramConfig, SimConfig, SimConfigBuilder, SimWorkload};
pub use error::{SimError, Watchdog};
pub use exec::{simulate_ir, IrSm};
pub use fault::{FaultCounters, FaultInjector, FaultSpec, SolverFault};
pub use sm::{simulate, simulate_with_seed, Sm};
pub use stats::SimStats;

/// Glob import of the common types.
pub mod prelude {
    pub use crate::chip::{simulate_chip, ChipSim};
    pub use crate::config::{CacheConfig, DramConfig, SimConfig, SimWorkload};
    pub use crate::error::{SimError, Watchdog};
    pub use crate::exec::{simulate_ir, IrSm};
    pub use crate::fault::{FaultCounters, FaultSpec, SolverFault};
    pub use crate::sm::{simulate, simulate_with_seed, Sm};
    pub use crate::stats::SimStats;
}
