//! `bench-report` — the continuous-benchmark harness.
//!
//! Two modes:
//!
//! * **Measure** (default): run the workspace's performance-critical
//!   paths — solver solve, the Eq. (5) cache-supply sweep, simulator
//!   measurement intervals, trace profiling, and an end-to-end §V
//!   validation — with the same calibrate-then-measure loop the
//!   criterion-compat harness uses, and write a schema-versioned
//!   `BENCH_<label>.json` snapshot. The committed `BENCH_seed.json` at
//!   the repo root seeds the PR-over-PR trajectory.
//! * **Compare** (`--compare BASE NEW`): diff two snapshots bench by
//!   bench and exit non-zero when any bench regressed beyond the
//!   relative threshold. `scripts/bench_gate.sh` wraps this mode.
//!
//! ```text
//! bench-report [--label L] [--out PATH] [--smoke]
//! bench-report --compare BASE NEW [--threshold 0.25]
//! ```
//!
//! Exit codes in compare mode: 0 = within threshold, 1 = regression,
//! 2 = unreadable/incompatible snapshot (schema errors stay fatal even
//! when a CI wrapper downgrades regressions to warnings).

use serde::Serialize;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use xmodel::prelude::*;
use xmodel::workloads::TraceSpec;
use xmodel_obs::json::{self as obs_json, JsonValue};

/// Snapshot format version; bump on incompatible change.
const SCHEMA: &str = xmodel_bench::BENCH_SCHEMA;

/// Default relative regression threshold for compare mode.
const DEFAULT_THRESHOLD: f64 = 0.25;

#[derive(Debug, Clone, Serialize)]
struct BenchResult {
    /// Bench name, `group/name` style (matches the criterion benches).
    name: String,
    /// Best-pass mean time per iteration, nanoseconds.
    ns_per_iter: f64,
    /// Iterations per measurement pass.
    iters: u64,
}

#[derive(Debug, Clone, Serialize)]
struct BenchSnapshot {
    schema: &'static str,
    label: String,
    version: String,
    os: String,
    arch: String,
    smoke: bool,
    wall_s: f64,
    benches: Vec<BenchResult>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
        return ExitCode::SUCCESS;
    }
    let result = if args.iter().any(|a| a == "--compare") {
        cmd_compare(&args)
    } else {
        cmd_measure(&args).map(|()| ExitCode::SUCCESS)
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage() {
    eprintln!(
        "usage: bench-report [--label L] [--out PATH] [--smoke]\n\
         \u{20}      bench-report --compare BASE NEW [--threshold {DEFAULT_THRESHOLD}]\n\
         \n\
         Measure the solver/simulator/cache hot paths and write a\n\
         schema-versioned BENCH_<label>.json snapshot, or compare two\n\
         snapshots (exit 1 on regression beyond the threshold, exit 2 on\n\
         schema/load errors)."
    );
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

// ---------------------------------------------------------------------
// Measure mode
// ---------------------------------------------------------------------

/// Calibrate-then-measure, mirroring the criterion-compat harness: find
/// an iteration count filling the window, then take the best of
/// `passes` timed passes (min is the stable statistic for gating).
fn time_bench<O>(window: Duration, passes: usize, mut routine: impl FnMut() -> O) -> (f64, u64) {
    let mut n: u64 = 1;
    let calibrate_target = window / 10;
    loop {
        let start = Instant::now();
        for _ in 0..n {
            std::hint::black_box(routine());
        }
        let elapsed = start.elapsed();
        if elapsed >= calibrate_target || n >= 1 << 30 {
            let per_iter = elapsed.as_nanos() as f64 / n as f64;
            n = ((window.as_nanos() as f64 / per_iter.max(1.0)) as u64).clamp(1, 1 << 30);
            break;
        }
        n = n.saturating_mul(4);
    }
    let mut best = f64::INFINITY;
    for _ in 0..passes.max(1) {
        let start = Instant::now();
        for _ in 0..n {
            std::hint::black_box(routine());
        }
        best = best.min(start.elapsed().as_nanos() as f64 / n as f64);
    }
    (best, n)
}

fn kepler_model() -> XModel {
    let gpu = GpuSpec::kepler_k40();
    XModel::new(
        gpu.machine_params(Precision::Single),
        WorkloadParams::new(20.0, 1.2, 64.0),
    )
}

fn cached_model() -> XModel {
    let gpu = GpuSpec::kepler_k40();
    XModel::with_cache(
        gpu.machine_params(Precision::Single),
        WorkloadParams::new(20.0, 1.2, 64.0),
        CacheParams::try_new(16.0 * 1024.0, 30.0, 3.0, 2048.0).unwrap(),
    )
}

fn sim_setup(l1: bool) -> (SimConfig, SimWorkload) {
    let mut builder = SimConfig::builder().lanes(6.0).dram(540, 13.7);
    if l1 {
        builder = builder.l1(16 * 1024, 28, 32);
    }
    let cfg = builder.build();
    let wl = SimWorkload {
        trace: TraceSpec::PrivateWorkingSet {
            ws_lines: 32,
            stream_prob: 0.1,
            reuse_skew: 1.0,
        },
        ops_per_request: 10.0,
        ilp: 1.0,
        warps: 32,
    };
    (cfg, wl)
}

/// A synthetic span trace exercising the profile fold path.
fn synthetic_trace_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for i in 0..400 {
        lines.push(format!(
            r#"{{"kind":"span","t_us":{i},"name":"leaf","dur_us":{},"parent":"mid"}}"#,
            10 + i % 7
        ));
        if i % 4 == 0 {
            lines.push(format!(
                r#"{{"kind":"span","t_us":{i},"name":"mid","dur_us":{},"parent":"root"}}"#,
                50 + i % 13
            ));
        }
    }
    lines.push(r#"{"kind":"span","t_us":9999,"name":"root","dur_us":9000.0}"#.to_string());
    lines
}

fn cmd_measure(args: &[String]) -> Result<(), String> {
    let smoke = args.iter().any(|a| a == "--smoke");
    let label = flag_value(args, "--label").unwrap_or_else(|| "local".to_string());
    let out_path = flag_value(args, "--out").unwrap_or_else(|| format!("BENCH_{label}.json"));
    // Smoke mode shrinks the measurement window, never the work per
    // iteration — ns/iter stays comparable across smoke and full runs.
    let (window, passes) = if smoke {
        (Duration::from_millis(20), 1)
    } else {
        (Duration::from_millis(200), 3)
    };
    let sim_cycles = 10_000u64;
    let started = Instant::now();
    let mut benches = Vec::new();
    let mut run = |name: &str, result: (f64, u64)| {
        let (ns_per_iter, iters) = result;
        println!(
            "bench: {name:<28} {:>12.1} ns/iter  (x{iters})",
            ns_per_iter
        );
        benches.push(BenchResult {
            name: name.to_string(),
            ns_per_iter,
            iters,
        });
    };

    // Solver: the g(x)/f(k) intersection machinery (paper §III).
    let model = kepler_model();
    run("solver/solve", time_bench(window, passes, || model.solve()));
    let cached = cached_model();
    run(
        "solver/solve_cached",
        time_bench(window, passes, || cached.solve()),
    );

    // Fast path: the same cached model answered from a warm SolveCache
    // (table built once outside the timer, as a sweep would hold it).
    let samples = xmodel::core::solver::DEFAULT_SAMPLES;
    let mut solve_cache = SolveCache::new();
    std::hint::black_box(solve_cache.solve_with(&cached, samples));
    run(
        "solver/solve_fast",
        time_bench(window, passes, || solve_cache.solve_with(&cached, samples)),
    );

    // 1024-point n-sweep through the parallel sweep engine, sharing one
    // tabulated supply curve across all points.
    let sweep_table = xmodel::core::fastpath::CurveTable::build(&cached, 1024.0);
    let sweep_ns: Vec<f64> = (1..=1024).map(|i| i as f64).collect();
    run(
        "solver/sweep_1k",
        time_bench(window, passes, || {
            xmodel::core::sweep::run(xmodel::core::sweep::default_jobs(), &sweep_ns, |_, &n| {
                let mut m = cached;
                m.workload.n = n;
                xmodel::core::fastpath::solve_fast(&m, &sweep_table, samples).operating_point()
            })
        }),
    );

    // Eq. (5) cache supply: f(k) sweep over the thread range.
    run(
        "cache/fk_sweep_eq5",
        time_bench(window, passes, || cached.sample_fk(64.0, 256)),
    );

    // Simulator measurement interval.
    let (cfg, wl) = sim_setup(false);
    run(
        "sim/measure",
        time_bench(window, passes, || {
            xmodel::sim::simulate(&cfg, &wl, 0, sim_cycles)
        }),
    );
    let (cfg_l1, wl_l1) = sim_setup(true);
    run(
        "sim/measure_l1",
        time_bench(window, passes, || {
            xmodel::sim::simulate(&cfg_l1, &wl_l1, 0, sim_cycles)
        }),
    );

    // Trace consumption: fold a span stream into a call-tree profile.
    let lines = synthetic_trace_lines();
    run(
        "obs/profile_fold",
        time_bench(window, passes, || {
            xmodel_obs::profile::SpanProfile::from_lines(lines.iter().map(String::as_str))
        }),
    );

    // End-to-end: model assembly + prediction + simulator measurement
    // for one §V app (the full validate_one pipeline).
    let gpu = GpuSpec::kepler_k40();
    let gesummv = Workload::by_name("gesummv").ok_or("gesummv missing from suite")?;
    run(
        "e2e/validate_gesummv",
        time_bench(window, 1, || {
            xmodel::profile::validate::validate_one(&gpu, &gesummv).expect("validation failed")
        }),
    );

    let snapshot = BenchSnapshot {
        schema: SCHEMA,
        label,
        version: xmodel_obs::manifest::describe_version(),
        os: std::env::consts::OS.to_string(),
        arch: std::env::consts::ARCH.to_string(),
        smoke,
        wall_s: started.elapsed().as_secs_f64(),
        benches,
    };
    let json = obs_json::try_to_string(&snapshot).map_err(|e| e.to_string())?;
    std::fs::write(&out_path, format!("{json}\n")).map_err(|e| format!("{out_path}: {e}"))?;
    println!("wrote {out_path} ({:.1} s)", snapshot.wall_s);
    Ok(())
}

// ---------------------------------------------------------------------
// Compare mode
// ---------------------------------------------------------------------

struct LoadedSnapshot {
    label: String,
    smoke: bool,
    benches: Vec<(String, f64)>,
}

fn load_snapshot(path: &str) -> Result<LoadedSnapshot, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let value = obs_json::parse(text.trim()).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    let schema = value
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("{path}: missing schema field"))?;
    if schema != SCHEMA {
        return Err(format!(
            "{path}: incompatible schema {schema:?} (expected {SCHEMA:?})"
        ));
    }
    let benches = match value.get("benches") {
        Some(JsonValue::Array(items)) => items
            .iter()
            .map(|item| {
                let name = item
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| format!("{path}: bench entry missing name"))?;
                let ns = item
                    .get("ns_per_iter")
                    .and_then(JsonValue::as_f64)
                    .filter(|v| v.is_finite() && *v > 0.0)
                    .ok_or_else(|| format!("{path}: bench {name:?} has no valid ns_per_iter"))?;
                Ok((name.to_string(), ns))
            })
            .collect::<Result<Vec<_>, String>>()?,
        _ => return Err(format!("{path}: missing benches array")),
    };
    Ok(LoadedSnapshot {
        label: value
            .get("label")
            .and_then(JsonValue::as_str)
            .unwrap_or("?")
            .to_string(),
        smoke: value.get("smoke") == Some(&JsonValue::Bool(true)),
        benches,
    })
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let i = args.iter().position(|a| a == "--compare").unwrap_or(0);
    let base_path = args
        .get(i + 1)
        .filter(|a| !a.starts_with("--"))
        .ok_or("--compare requires BASE and NEW snapshot paths")?;
    let new_path = args
        .get(i + 2)
        .filter(|a| !a.starts_with("--"))
        .ok_or("--compare requires BASE and NEW snapshot paths")?;
    let threshold = match flag_value(args, "--threshold") {
        Some(v) => v
            .parse::<f64>()
            .ok()
            .filter(|t| *t >= 0.0)
            .ok_or_else(|| format!("--threshold: invalid value {v:?}"))?,
        None => DEFAULT_THRESHOLD,
    };
    let base = load_snapshot(base_path)?;
    let new = load_snapshot(new_path)?;
    if base.smoke != new.smoke {
        eprintln!(
            "note: comparing smoke={} against smoke={} snapshots; timings are noisier",
            base.smoke, new.smoke
        );
    }
    println!(
        "bench gate: {} -> {} (threshold {:+.0}%)",
        base.label,
        new.label,
        threshold * 100.0
    );
    println!(
        "{:<28} {:>14} {:>14} {:>9}",
        "bench", "base ns/iter", "new ns/iter", "delta"
    );

    let mut regressions = 0usize;
    let mut matched = 0usize;
    for (name, base_ns) in &base.benches {
        let Some((_, new_ns)) = new.benches.iter().find(|(n, _)| n == name) else {
            eprintln!("warning: bench {name:?} missing from {new_path}");
            continue;
        };
        matched += 1;
        let delta = (new_ns - base_ns) / base_ns;
        let verdict = if delta > threshold {
            regressions += 1;
            "  REGRESSED"
        } else if delta < -threshold {
            "  improved"
        } else {
            ""
        };
        println!(
            "{name:<28} {base_ns:>14.1} {new_ns:>14.1} {delta:>+8.1}%{verdict}",
            delta = delta * 100.0
        );
    }
    for (name, _) in &new.benches {
        if !base.benches.iter().any(|(n, _)| n == name) {
            println!("{name:<28} {:>14} (new bench, no baseline)", "-");
        }
    }
    if matched == 0 {
        return Err("no benches in common between the two snapshots".to_string());
    }
    if regressions > 0 {
        eprintln!(
            "bench gate: {regressions} bench(es) regressed beyond {:.0}%",
            threshold * 100.0
        );
        return Ok(ExitCode::FAILURE);
    }
    println!("bench gate: OK ({matched} benches within threshold)");
    Ok(ExitCode::SUCCESS)
}
