//! # xmodel-serve — the `xmodel serve` daemon
//!
//! The HTTP service in front of the analytic model of `xmodel-core`:
//! the sockets, the accept thread, the bounded request queue and the
//! worker pool live here, so the model crate binds nothing. The
//! daemon's routes (`/solve`, `/sweep`, `/whatif`, health, metrics and
//! drain), admission control, deadlines and load shedding are
//! described in the `serve` module.
//!
//! [`Server::start`] binds a [`ServeConfig`] and runs the daemon until
//! a drain; [`Server::wait`] returns its [`ServeReport`].
//! [`ShardedSolveCache`] is the per-supply-curve solve cache every
//! served route reads.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod serve;

pub use serve::{ServeConfig, ServeReport, Server, ShardedSolveCache};
