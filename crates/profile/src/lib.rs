//! # xmodel-profile — profiling harness on the simulator
//!
//! §IV of the paper builds *architectural* X-graphs by profiling each GPU
//! once: a Stream-style benchmark recovers the MS curve (`R`, `L`, δ), a
//! Volkov-style microbenchmark recovers the lane count `M`, and the
//! cache-bypassing technique of [13] recovers trace-points of `f(k)` for a
//! concrete application. This crate reproduces that methodology against
//! the `xmodel-sim` substrate:
//!
//! * [`arch`] — turn a [`xmodel_core::presets::GpuSpec`] into a simulator
//!   configuration (per-SM DRAM share, lane count, issue widths), and
//!   pair a preset, a suite app and an L1 with the simulator the way
//!   [`fitting`] pairs them with the model ([`sim_pairing`]);
//! * [`stream`] — sweep warp counts with the stream kernel to profile
//!   `f(k)` and extract `R`, `L`, `δ`;
//! * [`peak`] — saturate CS with register-only FMA kernels to profile `M`;
//! * [`bypass`] — vary the number of cache-eligible warps to trace
//!   `f(k)` points for a cached workload (the Fig. 12 yellow dots);
//! * [`fitting`] — assemble a complete [`xmodel_core::XModel`] for one
//!   workload on one architecture from profiled + statically-analysed
//!   parameters;
//! * [`validate`] — the §V experiment: model prediction vs simulator
//!   measurement for every workload, with the paper's accuracy metric.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arch;
pub mod bypass;
pub mod calibrate;
pub mod fitting;
pub mod peak;
pub mod stream;
pub mod validate;

pub use arch::{sim_config_for, sim_pairing};
pub use fitting::assemble_model;
pub use validate::{validate_suite, AppValidation, ValidationReport};

/// Glob import of the common types.
pub mod prelude {
    pub use crate::arch::{sim_config_for, sim_pairing};
    pub use crate::bypass::bypass_trace_points;
    pub use crate::calibrate::{calibrate_private_ws, Calibration};
    pub use crate::fitting::assemble_model;
    pub use crate::peak::profile_lanes;
    pub use crate::stream::{profile_stream, StreamProfile};
    pub use crate::validate::{validate_suite, AppValidation, ValidationReport};
}
