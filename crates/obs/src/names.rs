//! Central registry of span and metric names.
//!
//! Every span or counter name used by the workspace crates (`core`,
//! `sim`, `profile`, `cli`) must be a constant from this module, so the
//! Prometheus label sets, folded profile trees and manifest phase tables
//! stay consistent across crates. The `span-name-registry` lint
//! (`cargo run -p xlint`) enforces this: a bare string literal passed to
//! [`crate::span!`], [`crate::metrics::counter_add`],
//! [`crate::metrics::gauge_set`] or
//! [`crate::metrics::histogram_observe`] in those crates is a finding.

/// Span names: `<subsystem>.<phase>`, dot-separated, lowercase.
pub mod span {
    /// The dense scan + bisection pass of the flow-balance solver.
    pub const SOLVER_SOLVE: &str = "solver.solve";
    /// The tabulated fast path of the flow-balance solver
    /// (coarse-scan-then-refine over a `CurveTable`).
    pub const SOLVER_SOLVE_FAST: &str = "solver.solve_fast";
    /// One full parallel grid sweep (`core::sweep::run`).
    pub const SWEEP_RUN: &str = "sweep.run";
    /// One work-stealing chunk of a parallel grid sweep.
    pub const SWEEP_CHUNK: &str = "sweep.chunk";
    /// One cycle-level simulator run (interval machine).
    pub const SIM_RUN: &str = "sim.run";
    /// One IR-driven simulator run.
    pub const SIM_RUN_IR: &str = "sim.run_ir";
    /// Warm-up portion of a simulator run (excluded from measurement).
    pub const SIM_WARMUP: &str = "sim.warmup";
    /// Measured portion of a simulator run.
    pub const SIM_MEASURE: &str = "sim.measure";
    /// Assembling machine/workload parameters from profile counters.
    pub const PROFILE_ASSEMBLE: &str = "profile.assemble";
    /// Grid-search calibration of cache locality parameters.
    pub const PROFILE_CALIBRATE: &str = "profile.calibrate";
    /// One multi-SM chip simulation (`sim::chip::ChipSim::run`).
    pub const SIM_CHIP: &str = "sim.chip";
    /// Aligning a simtrace against the analytic model's predictions
    /// (`xmodel residuals`).
    pub const RESIDUAL_COMPARE: &str = "residual.compare";
    /// One admitted request handled by the `xmodel serve` daemon
    /// (`xmodel-serve`): routing (body parse and solve) through the
    /// response write. The request read and the admission queue lie
    /// outside it.
    pub const SERVE_REQUEST: &str = "serve.request";
    /// Reading one admitted request off its socket
    /// (`obs::http::read_request`), before `serve.request` opens.
    pub const SERVE_READ: &str = "serve.read";
    /// Writing one response to its socket (`obs::http::write_response`),
    /// nested in `serve.request`.
    pub const SERVE_WRITE: &str = "serve.write";
}

/// Counter / gauge names: `<subsystem>.<noun>`, dot-separated, lowercase.
pub mod metric {
    /// Number of flow-balance solves performed.
    pub const SOLVER_SOLVES: &str = "solver.solves";
    /// Calibration grid points whose fit failed and were skipped.
    pub const PROFILE_CALIBRATE_SKIPPED: &str = "profile.calibrate.skipped";
    /// Operating points resolved below the exact rung of the
    /// degradation ladder (grid-scan or baseline-estimate provenance).
    pub const SOLVER_DEGRADED: &str = "solver.degraded";
    /// Exact `f`/`ĝ` curve evaluations performed by the solver, summed
    /// per solve (both the dense reference and the fast path emit it, so
    /// the fast path's saving is visible in `xmodel profile`).
    pub const SOLVER_CURVE_EVALS: &str = "solver.curve_evals";
    /// Grid points dispatched through `core::sweep::run`.
    pub const SWEEP_ITEMS: &str = "sweep.items";
    /// Work-stealing chunks executed by `core::sweep::run`.
    pub const SWEEP_CHUNKS: &str = "sweep.chunks";

    // --- core::fastpath deep introspection -----------------------------

    /// `CurveTable` constructions (one tabulation of Eq. (2)/(5)).
    pub const FASTPATH_TABLE_BUILDS: &str = "fastpath.table_builds";
    /// Exact curve evaluations spent building `CurveTable`s.
    pub const FASTPATH_TABLE_EVALS: &str = "fastpath.table_evals";
    /// `SolveCache` solves answered from the already-built table.
    pub const FASTPATH_CACHE_HITS: &str = "fastpath.cache_hits";
    /// `SolveCache` solves that had no table yet (cold build).
    pub const FASTPATH_CACHE_MISSES: &str = "fastpath.cache_misses";
    /// `SolveCache` rebuilds forced by a supply-curve key change or a
    /// domain that no longer covers `n` (stale table).
    pub const FASTPATH_CACHE_STALE: &str = "fastpath.cache_stale";
    /// Coarse blocks skipped wholesale by monotone-range screening.
    pub const FASTPATH_BLOCKS_SCREENED: &str = "fastpath.blocks_screened";
    /// Coarse blocks that survived screening and were refined
    /// sample-by-sample.
    pub const FASTPATH_BLOCKS_REFINED: &str = "fastpath.blocks_refined";
    /// Dense samples answered from the interpolated table.
    pub const FASTPATH_INTERP_EVALS: &str = "fastpath.interp_evals";
    /// Exact `f(k)` evaluations spent inside fast-path solves.
    pub const FASTPATH_EXACT_EVALS: &str = "fastpath.exact_evals";
    /// Coarse blocks whose screening was disabled by an unsound
    /// (non-finite-margin) table interval.
    pub const FASTPATH_UNSOUND_DISABLES: &str = "fastpath.unsound_disables";

    // --- core::sweep executor introspection ----------------------------

    /// Chunk claims taken from the atomic cursor, including the final
    /// empty claim each worker uses to discover the queue is drained.
    pub const SWEEP_CHUNK_CLAIMS: &str = "sweep.chunk_claims";
    /// Distribution of grid cells completed per worker per run
    /// (histogram; a tight distribution means good load balance).
    pub const SWEEP_WORKER_CELLS: &str = "sweep.worker_cells";
    /// Worker threads used by the most recent sweep (gauge).
    pub const SWEEP_WORKERS: &str = "sweep.workers";
    /// Mean worker busy fraction of the last sweep's wall time (gauge,
    /// 0–1; 1.0 means every worker computed the whole time).
    pub const SWEEP_UTILIZATION: &str = "sweep.utilization";
    /// Relative busy-time spread `(max − min) / max` across workers of
    /// the last sweep (gauge, 0 = perfectly balanced).
    pub const SWEEP_IMBALANCE: &str = "sweep.imbalance";

    // --- core::degrade ladder introspection ----------------------------

    /// Operating points resolved by the exact rung.
    pub const DEGRADE_RUNG_EXACT: &str = "degrade.rung_exact";
    /// Operating points resolved by the grid-scan rung.
    pub const DEGRADE_RUNG_GRID_SCAN: &str = "degrade.rung_grid_scan";
    /// Operating points resolved by the baseline-estimate rung.
    pub const DEGRADE_RUNG_BASELINE: &str = "degrade.rung_baseline";
    /// Time spent attempting the exact rung, µs (histogram).
    pub const DEGRADE_EXACT_US: &str = "degrade.exact_us";
    /// Time spent attempting the grid-scan rung, µs (histogram).
    pub const DEGRADE_GRID_SCAN_US: &str = "degrade.grid_scan_us";
    /// Time spent computing the baseline rung, µs (histogram).
    pub const DEGRADE_BASELINE_US: &str = "degrade.baseline_us";

    // --- sim probe layer (`xmodel-simtrace/1`) --------------------------

    /// `sim.probe` frames emitted by the simulator probe layer.
    pub const SIM_PROBE_FRAMES: &str = "sim.probe_frames";
    /// DRAM requests in flight at probe boundaries (histogram over
    /// `crate::simtrace::QUEUE_DEPTH_EDGES`).
    pub const SIM_DRAM_INFLIGHT: &str = "sim.dram_inflight";
    /// DRAM channel backlog in cycles at probe boundaries (histogram
    /// over `crate::simtrace::QUEUE_DEPTH_EDGES`).
    pub const SIM_DRAM_BACKLOG: &str = "sim.dram_backlog";
    /// Warp issue attempts rejected for MSHR exhaustion, summed from
    /// probe-frame deltas.
    pub const SIM_MSHR_STALLS: &str = "sim.mshr_stalls";

    // --- residual analysis (`xmodel-residual/1`) ------------------------

    /// Observables compared by a residual report.
    pub const RESIDUAL_VARIABLES: &str = "residual.variables";
    /// Gated observables whose relative residual exceeded the
    /// tolerance.
    pub const RESIDUAL_EXCEEDANCES: &str = "residual.exceedances";

    // --- xmodel-serve daemon (`xmodel serve`) ---------------------------

    /// Requests admitted and answered by the serve worker pool
    /// (any status, including typed errors).
    pub const SERVE_REQUESTS: &str = "serve.requests";
    /// Connections shed at admission (429 + `Retry-After`) because the
    /// queue was at capacity or the server was draining (503).
    pub const SERVE_SHED: &str = "serve.shed";
    /// Current request-queue depth (gauge, sampled at admission).
    pub const SERVE_QUEUE_DEPTH: &str = "serve.queue_depth";
    /// Requests whose deadline budget expired mid-solve (504).
    pub const SERVE_DEADLINE_EXCEEDED: &str = "serve.deadline_exceeded";
    /// Connections rejected as malformed, oversized or timed out while
    /// reading (400/408/413).
    pub const SERVE_MALFORMED: &str = "serve.malformed";
    /// `/solve` and `/sweep` requests forced below the exact ladder rung
    /// by queue pressure (`/whatif` has no ladder and is never forced).
    pub const SERVE_FORCED_DEGRADE: &str = "serve.forced_degrade";
    /// End-to-end latency of admitted requests in µs, accept to
    /// response write (histogram).
    pub const SERVE_LATENCY_US: &str = "serve.latency_us";
    /// Time admitted connections wait in the request queue in µs,
    /// accept to dequeue by a worker (histogram).
    pub const SERVE_QUEUE_WAIT_US: &str = "serve.queue_wait_us";
    /// Serve solves answered by a curve table already resident in the
    /// shard's LRU.
    pub const SERVE_CACHE_HITS: &str = "serve.cache_hits";
    /// Serve solves whose curve key was absent from the shard's LRU
    /// (fresh entry inserted).
    pub const SERVE_CACHE_MISSES: &str = "serve.cache_misses";
    /// LRU entries evicted from a serve shard to admit a new curve key.
    pub const SERVE_CACHE_EVICTIONS: &str = "serve.cache_evictions";
}

/// One-line help text for a registered metric name, used for the
/// `# HELP` lines of the Prometheus exposition (`crate::export`).
/// Returns `None` for names outside the registry (ad-hoc test metrics).
pub fn metric_help(name: &str) -> Option<&'static str> {
    Some(match name {
        metric::SOLVER_SOLVES => "flow-balance solves performed",
        metric::SOLVER_DEGRADED => "operating points resolved below the exact ladder rung",
        metric::SOLVER_CURVE_EVALS => "exact curve evaluations performed by the solver",
        metric::PROFILE_CALIBRATE_SKIPPED => "calibration grid points skipped after fit failure",
        metric::SWEEP_ITEMS => "grid points dispatched through the sweep executor",
        metric::SWEEP_CHUNKS => "work-stealing chunks executed by the sweep executor",
        metric::FASTPATH_TABLE_BUILDS => "CurveTable tabulations built",
        metric::FASTPATH_TABLE_EVALS => "exact curve evaluations spent building CurveTables",
        metric::FASTPATH_CACHE_HITS => "SolveCache solves reusing the cached table",
        metric::FASTPATH_CACHE_MISSES => "SolveCache solves building a table cold",
        metric::FASTPATH_CACHE_STALE => "SolveCache rebuilds forced by a stale table",
        metric::FASTPATH_BLOCKS_SCREENED => "coarse blocks skipped wholesale by range screening",
        metric::FASTPATH_BLOCKS_REFINED => "coarse blocks refined sample-by-sample",
        metric::FASTPATH_INTERP_EVALS => "dense samples answered from the interpolated table",
        metric::FASTPATH_EXACT_EVALS => "exact f(k) evaluations inside fast-path solves",
        metric::FASTPATH_UNSOUND_DISABLES => {
            "coarse blocks with screening disabled by an unsound margin"
        }
        metric::SWEEP_CHUNK_CLAIMS => "chunk claims taken from the sweep cursor",
        metric::SWEEP_WORKER_CELLS => "cells completed per worker per sweep run",
        metric::SWEEP_WORKERS => "worker threads used by the most recent sweep",
        metric::SWEEP_UTILIZATION => "mean worker busy fraction of the last sweep",
        metric::SWEEP_IMBALANCE => "relative worker busy-time spread of the last sweep",
        metric::DEGRADE_RUNG_EXACT => "operating points resolved by the exact rung",
        metric::DEGRADE_RUNG_GRID_SCAN => "operating points resolved by the grid-scan rung",
        metric::DEGRADE_RUNG_BASELINE => "operating points resolved by the baseline rung",
        metric::DEGRADE_EXACT_US => "time spent attempting the exact rung in microseconds",
        metric::DEGRADE_GRID_SCAN_US => "time spent attempting the grid-scan rung in microseconds",
        metric::DEGRADE_BASELINE_US => "time spent computing the baseline rung in microseconds",
        metric::SIM_PROBE_FRAMES => "sim.probe frames emitted by the simulator probe layer",
        metric::SIM_DRAM_INFLIGHT => "DRAM requests in flight at probe boundaries",
        metric::SIM_DRAM_BACKLOG => "DRAM channel backlog in cycles at probe boundaries",
        metric::SIM_MSHR_STALLS => "warp issue attempts rejected for MSHR exhaustion",
        metric::RESIDUAL_VARIABLES => "observables compared by a residual report",
        metric::RESIDUAL_EXCEEDANCES => "gated observables exceeding the residual tolerance",
        metric::SERVE_REQUESTS => "requests admitted and answered by the serve worker pool",
        metric::SERVE_SHED => "connections shed at admission (queue full or draining)",
        metric::SERVE_QUEUE_DEPTH => "current serve request-queue depth",
        metric::SERVE_DEADLINE_EXCEEDED => "requests whose deadline budget expired mid-solve",
        metric::SERVE_MALFORMED => "connections rejected as malformed, oversized or timed out",
        metric::SERVE_FORCED_DEGRADE => {
            "solve and sweep requests forced below the exact rung by queue pressure"
        }
        metric::SERVE_LATENCY_US => "end-to-end latency of admitted requests in microseconds",
        metric::SERVE_QUEUE_WAIT_US => {
            "accept-to-dequeue wait of admitted requests in microseconds"
        }
        metric::SERVE_CACHE_HITS => "serve solves answered by a table resident in the shard LRU",
        metric::SERVE_CACHE_MISSES => "serve solves inserting a fresh entry into the shard LRU",
        metric::SERVE_CACHE_EVICTIONS => "LRU entries evicted from a serve shard",
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    /// Registry invariants: names are lowercase dot-separated identifiers
    /// and globally unique.
    #[test]
    fn names_are_well_formed_and_unique() {
        let all = [
            super::span::SOLVER_SOLVE,
            super::span::SOLVER_SOLVE_FAST,
            super::span::SWEEP_RUN,
            super::span::SWEEP_CHUNK,
            super::span::SIM_RUN,
            super::span::SIM_RUN_IR,
            super::span::SIM_WARMUP,
            super::span::SIM_MEASURE,
            super::span::PROFILE_ASSEMBLE,
            super::span::PROFILE_CALIBRATE,
            super::span::SIM_CHIP,
            super::span::RESIDUAL_COMPARE,
            super::span::SERVE_REQUEST,
            super::span::SERVE_READ,
            super::span::SERVE_WRITE,
            super::metric::SOLVER_SOLVES,
            super::metric::SOLVER_CURVE_EVALS,
            super::metric::SWEEP_ITEMS,
            super::metric::SWEEP_CHUNKS,
            super::metric::PROFILE_CALIBRATE_SKIPPED,
            super::metric::SOLVER_DEGRADED,
            super::metric::FASTPATH_TABLE_BUILDS,
            super::metric::FASTPATH_TABLE_EVALS,
            super::metric::FASTPATH_CACHE_HITS,
            super::metric::FASTPATH_CACHE_MISSES,
            super::metric::FASTPATH_CACHE_STALE,
            super::metric::FASTPATH_BLOCKS_SCREENED,
            super::metric::FASTPATH_BLOCKS_REFINED,
            super::metric::FASTPATH_INTERP_EVALS,
            super::metric::FASTPATH_EXACT_EVALS,
            super::metric::FASTPATH_UNSOUND_DISABLES,
            super::metric::SWEEP_CHUNK_CLAIMS,
            super::metric::SWEEP_WORKER_CELLS,
            super::metric::SWEEP_WORKERS,
            super::metric::SWEEP_UTILIZATION,
            super::metric::SWEEP_IMBALANCE,
            super::metric::DEGRADE_RUNG_EXACT,
            super::metric::DEGRADE_RUNG_GRID_SCAN,
            super::metric::DEGRADE_RUNG_BASELINE,
            super::metric::DEGRADE_EXACT_US,
            super::metric::DEGRADE_GRID_SCAN_US,
            super::metric::DEGRADE_BASELINE_US,
            super::metric::SIM_PROBE_FRAMES,
            super::metric::SIM_DRAM_INFLIGHT,
            super::metric::SIM_DRAM_BACKLOG,
            super::metric::SIM_MSHR_STALLS,
            super::metric::RESIDUAL_VARIABLES,
            super::metric::RESIDUAL_EXCEEDANCES,
            super::metric::SERVE_REQUESTS,
            super::metric::SERVE_SHED,
            super::metric::SERVE_QUEUE_DEPTH,
            super::metric::SERVE_DEADLINE_EXCEEDED,
            super::metric::SERVE_MALFORMED,
            super::metric::SERVE_FORCED_DEGRADE,
            super::metric::SERVE_LATENCY_US,
            super::metric::SERVE_QUEUE_WAIT_US,
            super::metric::SERVE_CACHE_HITS,
            super::metric::SERVE_CACHE_MISSES,
            super::metric::SERVE_CACHE_EVICTIONS,
        ];
        for name in all {
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'),
                "bad name {name:?}"
            );
            assert!(!name.starts_with('.') && !name.ends_with('.'));
        }
        let mut sorted = all.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate registry entry");

        // Every metric constant (entries after the span block above) must
        // carry Prometheus HELP text; span names must not.
        for name in &all[15..] {
            assert!(
                super::metric_help(name).is_some(),
                "metric {name:?} missing metric_help entry"
            );
        }
        for name in &all[..15] {
            assert!(
                super::metric_help(name).is_none(),
                "span {name:?} unexpectedly has metric_help"
            );
        }
    }
}
