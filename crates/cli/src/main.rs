//! `xmodel` — command-line front end for the X-model reproduction.
//!
//! ```text
//! xmodel list                         available GPUs and workloads
//! xmodel glossary                     Table I parameter glossary
//! xmodel draw [opts]                  draw an X-graph for explicit params
//! xmodel workload <name> [opts]       analyze a suite workload on a GPU
//! xmodel validate [--gpu <gpu>]       run the §V validation suite
//! xmodel whatif [opts]                evaluate the §VI optimizations
//! xmodel serve [opts]                 overload-safe solve/what-if daemon
//! ```
//!
//! Every command accepts a global `--trace FILE` flag (or the
//! `XMODEL_TRACE` environment variable) that streams structured JSONL
//! events — solver spans, per-interval simulator snapshots, a final run
//! manifest — to `FILE`; `xmodel trace-report FILE` summarizes one and
//! `xmodel profile FILE` folds it into a call-tree profile with a
//! flamegraph-compatible folded-stack output. A second global flag,
//! `--metrics-addr HOST:PORT` (or `XMODEL_METRICS_ADDR`), serves the
//! live metrics registry as Prometheus text format while a run is in
//! flight. Flags win over their environment variables.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io::Write;
use std::process::ExitCode;
use std::sync::OnceLock;
use xmodel::core::degrade::DegradeForce;
use xmodel::core::xgraph::XGraph;
use xmodel::prelude::*;
use xmodel::render;
use xmodel::sim::{FaultSpec, SolverFault, Watchdog};
use xmodel_obs::json;
use xmodel_obs::manifest::RunManifest;

/// The exit-code contract (asserted by `scripts/ci.sh`):
///
/// * `0` — success; a *degraded* result is still exit 0 but prints a
///   `warning:` line on stderr with the provenance.
/// * `1` — a well-formed invocation hit a typed model/simulation error,
///   an unreadable input file or an unwritable output file, or an
///   analysis command found what it was asked to look for
///   (`trace-diff`: significant differences — mirroring `bench-report
///   --compare`'s regression exit).
/// * `2` — usage error: unknown command/flag/value (usage text follows).
#[derive(Debug)]
enum CliError {
    /// Bad invocation; exits 2 and prints usage.
    Usage(String),
    /// Typed model or simulation error; exits 1.
    Model(String),
    /// An analysis found reportable differences; exits 1 with the
    /// message on stderr but no `error:` prefix and no usage text.
    Findings(String),
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Usage(msg)
    }
}

impl CliError {
    fn model(err: impl std::fmt::Display) -> Self {
        CliError::Model(err.to_string())
    }
}

/// Write `args` to stdout and flush it: the one path to stdout of every
/// command but `sweep` (its own writer). A failed write or
/// flush, such as a full disk or a closed pipe, is a typed error naming
/// stdout (exit 1), never a panic.
fn emit(args: std::fmt::Arguments<'_>) -> Result<(), CliError> {
    let mut stdout = std::io::stdout().lock();
    stdout
        .write_fmt(args)
        .and_then(|()| stdout.flush())
        .map_err(|e| io_error("stdout", e))
}

/// `print!` through [`emit`].
macro_rules! out {
    ($($arg:tt)*) => {
        emit(format_args!($($arg)*))
    };
}

/// `println!` through [`emit`].
macro_rules! outln {
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Write `args` to stderr: the one path to stderr of every command but
/// `serve`. A failed write is dropped, because stderr is where failures
/// are reported and there is nowhere left to report it; the command keeps
/// the exit code it would have returned.
fn note(args: std::fmt::Arguments<'_>) {
    let _ = std::io::stderr().lock().write_fmt(args);
}

/// `eprintln!` through [`note`].
macro_rules! noteln {
    ($($arg:tt)*) => {
        note(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// The fault spec parsed from `--fault-spec` / `XMODEL_FAULT_SPEC`;
/// defaults to no faults.
static FAULT_SPEC: OnceLock<FaultSpec> = OnceLock::new();

fn fault_spec() -> FaultSpec {
    FAULT_SPEC.get().copied().unwrap_or_default()
}

/// Solver-fault forcing for the degradation ladder, from the fault spec.
fn solver_force() -> DegradeForce {
    match fault_spec().solver {
        SolverFault::None => DegradeForce::None,
        SolverFault::NoBracket => DegradeForce::SkipExact,
        SolverFault::NoGrid => DegradeForce::SkipGrid,
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = init_faults(&mut args) {
        noteln!("error: {e}");
        usage();
        return ExitCode::from(2);
    }
    let tracing = match init_tracing(&mut args) {
        Ok(t) => t,
        Err(e) => {
            noteln!("error: {e}");
            usage();
            return ExitCode::from(2);
        }
    };
    if let Err(e) = init_metrics(&mut args) {
        noteln!("error: {e}");
        usage();
        return ExitCode::from(2);
    }
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => {
            usage();
            return ExitCode::from(2);
        }
    };
    let result = match cmd {
        "list" => cmd_list(rest),
        "glossary" => cmd_glossary(rest),
        "draw" => cmd_draw(parse_flags(rest)),
        "workload" => cmd_workload(rest),
        "validate" => cmd_validate(parse_flags(rest)),
        "whatif" => cmd_whatif(parse_flags(rest)),
        "serve" => cmd_serve(parse_flags(rest)),
        "sim" => cmd_sim(rest),
        "sweep" => cmd_sweep(parse_flags(rest)),
        "trace-report" => cmd_trace_report(rest),
        "sim-report" => cmd_sim_report(rest),
        "residuals" => cmd_residuals(rest),
        "profile" => cmd_profile(rest),
        "trace-diff" => cmd_trace_diff(rest),
        "help" | "--help" | "-h" => {
            usage();
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    };
    if tracing {
        let manifest = RunManifest::collect(cmd, manifest_params(rest), None);
        xmodel_obs::finish(Some(&manifest));
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Model(e)) => {
            noteln!("error: {e}");
            ExitCode::from(1)
        }
        Err(CliError::Findings(msg)) => {
            noteln!("{msg}");
            ExitCode::from(1)
        }
        Err(CliError::Usage(e)) => {
            noteln!("error: {e}");
            usage();
            ExitCode::from(2)
        }
    }
}

/// Strip a global `--fault-spec SPEC` flag (falling back to the
/// `XMODEL_FAULT_SPEC` environment variable) and install the parsed
/// [`FaultSpec`] for the rest of the run. A malformed spec is a usage
/// error.
fn init_faults(args: &mut Vec<String>) -> Result<(), String> {
    let text = if let Some(i) = args.iter().position(|a| a == "--fault-spec") {
        if i + 1 >= args.len() {
            return Err("--fault-spec requires a spec string".to_string());
        }
        let spec = args.remove(i + 1);
        args.remove(i);
        Some(spec)
    } else {
        std::env::var("XMODEL_FAULT_SPEC").ok()
    };
    if let Some(text) = text {
        let spec = FaultSpec::parse(&text).map_err(|e| format!("--fault-spec: {e}"))?;
        let _ = FAULT_SPEC.set(spec);
    }
    Ok(())
}

/// Strip a global `--trace FILE` flag from `args` and install the JSONL
/// sink; fall back to the `XMODEL_TRACE` environment variable. When the
/// fault spec perturbs the sink, the JSONL writer is wrapped in a
/// [`xmodel_obs::FaultySink`] injecting torn writes and write errors.
/// Returns whether tracing is live (a run manifest is then owed at exit).
fn init_tracing(args: &mut Vec<String>) -> Result<bool, String> {
    let path: Option<std::path::PathBuf> = if let Some(i) = args.iter().position(|a| a == "--trace")
    {
        if i + 1 >= args.len() {
            return Err("--trace requires a file path".to_string());
        }
        let p = args.remove(i + 1);
        args.remove(i);
        Some(p.into())
    } else {
        std::env::var_os("XMODEL_TRACE").map(Into::into)
    };
    let Some(path) = path else { return Ok(false) };
    let sink = xmodel_obs::JsonlSink::create(&path)
        .map_err(|e| format!("--trace {}: {e}", path.display()))?;
    let spec = fault_spec();
    if spec.perturbs_sink() {
        xmodel_obs::install(Box::new(xmodel_obs::FaultySink::new(
            Box::new(sink),
            spec.sink_tear_prob,
            spec.sink_error_prob,
            spec.seed,
        )));
    } else {
        xmodel_obs::install(Box::new(sink));
    }
    Ok(true)
}

/// Strip a global `--metrics-addr HOST:PORT` flag and start the live
/// Prometheus exporter; fall back to the `XMODEL_METRICS_ADDR`
/// environment variable (the flag wins when both are present). With
/// neither, the exporter thread is never spawned. The bound address is
/// reported on stderr so `--metrics-addr 127.0.0.1:0` is scrapable.
fn init_metrics(args: &mut Vec<String>) -> Result<(), String> {
    if let Some(i) = args.iter().position(|a| a == "--metrics-addr") {
        if i + 1 >= args.len() {
            return Err("--metrics-addr requires HOST:PORT".to_string());
        }
        let addr = args.remove(i + 1);
        args.remove(i);
        let server =
            xmodel_obs::serve_metrics(&addr).map_err(|e| format!("--metrics-addr {addr}: {e}"))?;
        noteln!("metrics: serving http://{}/metrics", server.addr());
        return Ok(());
    }
    if let Some(server) = xmodel_obs::init_metrics_from_env() {
        noteln!("metrics: serving http://{}/metrics", server.addr());
    }
    Ok(())
}

/// Flags (plus any leading positional argument) of the traced command,
/// recorded verbatim in the run manifest.
fn manifest_params(rest: &[String]) -> BTreeMap<String, String> {
    let mut params: BTreeMap<String, String> = parse_flags(rest).into_iter().collect();
    if let Some(first) = rest.first() {
        if !first.starts_with("--") {
            params.insert("arg".to_string(), first.clone());
        }
    }
    params
}

/// The `xmodel help` text, printed on stderr after a usage error too.
/// Each row keeps its leading spaces: continuation rows line up under
/// their command's first flag, or under the description column.
const USAGE: &str = "\
usage: xmodel <command>

commands:
  list                               GPUs and workloads
  glossary                           Table I parameters
  draw --m M --r R --l L --z Z --e E --n N [--l1 KIB --alpha A --beta B] [--svg FILE]
  draw --gpu GPU [--dp] --z Z --e E --n N [--l1 KIB ...]
  workload NAME [--gpu GPU] [--l1 KIB] [--svg FILE]
  validate [--gpu GPU]
  whatif [--gpu GPU] [--workload NAME] [--l1 KIB]
  serve [--addr H:P] [--workers N] [--queue N] [--timeout MS]
        [--drain-timeout MS] [--grid-watermark F] [--baseline-watermark F]
        [--shards N] [--samples S] [--io-timeout MS]
        (solve/sweep/whatif daemon; drain with POST /quitck)
  sim --workload NAME [--gpu GPU] [--warps N] [--l1 KIB] [--ir]
  sweep --n-max N (--gpu GPU [--dp] | --m M --r R --l L) --z Z [--e E]
        [--l1 KIB --alpha A --beta B --l1-latency C] [--points P]
        [--samples S] [--jobs J] [--out FILE]
        (output is byte-identical for any --jobs)
  trace-report FILE [--timeline] [--svg FILE] [--profile]
  sim-report FILE [--json] [--svg FILE] [--heatmap FILE]
  residuals FILE [--preset GPU] [--workload NAME] [--l1 KIB]
        [--rel FRAC] [--json]        (exit 1 when residuals exceed --rel)
  profile FILE [--folded FILE] [--top N]
  trace-diff BASE NEW [--json] [--folded FILE] [--top N]
        [--min-us US] [--rel FRAC]   (exit 1 when differences found)

global flags:
  --trace FILE          stream JSONL trace events to FILE
  --metrics-addr H:P    serve live Prometheus metrics on HOST:PORT
  --fault-spec SPEC     inject deterministic faults (chaos testing), e.g.
                        seed=7,spike=0.01x8,drop=0.001,dup=0.001,
                        throttle=1000:0.2:0.25,sink-tear=0.01,sink-error=0.01,
                        solver=no-bracket|no-grid,serve-slow-client=0.1,
                        serve-torn-body=0.1,serve-stall=40

environment:
  XMODEL_TRACE          trace file, when --trace is absent
  XMODEL_METRICS_ADDR   metrics HOST:PORT, when --metrics-addr is absent
  XMODEL_FAULT_SPEC     fault spec, when --fault-spec is absent
  XMODEL_JOBS           sweep worker threads, when --jobs is absent

exit codes:
  0  success (degraded results add a `warning:` line on stderr)
  1  typed model/simulation error, an unreadable input or unwritable
     output file (stdout included), or trace-diff differences found
  2  usage error
";

fn usage() {
    note(format_args!("{USAGE}"));
}

/// Every flag `xmodel trace-report` reads.
const TRACE_REPORT_FLAGS: &[&str] = &["timeline", "svg", "profile"];

fn cmd_trace_report(args: &[String]) -> Result<(), CliError> {
    let file = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| "trace-report: trace file required".to_string())?;
    let flags = parse_flags(&args[1..]);
    reject_unknown_flags("trace-report", &flags, TRACE_REPORT_FLAGS)?;
    let path = std::path::Path::new(file);
    let unreadable = |e: std::io::Error| CliError::Model(format!("{file}: {e}"));
    let report = xmodel_obs::report::TraceReport::from_path(path).map_err(unreadable)?;
    out!("{}", report.render())?;
    if flags.contains_key("timeline") || flags.contains_key("svg") {
        let tl = xmodel::viz::Timeline::from_path(path).map_err(unreadable)?;
        outln!("\n{}", tl.render_ascii(72, 16))?;
        if let Some(svg) = flags.get("svg") {
            if tl.is_empty() {
                outln!("skipping {svg}: no snapshot frames to chart")?;
            } else {
                write_output(svg, tl.to_chart().to_svg(640.0, 400.0))?;
                outln!("wrote {svg}")?;
            }
        }
    }
    if flags.contains_key("profile") {
        let profile = xmodel_obs::profile::SpanProfile::from_path(path).map_err(unreadable)?;
        outln!("\n{}", profile.render().trim_end())?;
    }
    Ok(())
}

/// Every flag `xmodel sim-report` reads.
const SIM_REPORT_FLAGS: &[&str] = &["json", "svg", "heatmap"];

/// `xmodel sim-report TRACE` — occupancy/stall/DRAM digest of a
/// simulator trace recorded with `xmodel sim ... --trace FILE`. Renders
/// the `xmodel-simtrace/1` summary (warp-state shares, measured k/x,
/// probe-delta throughputs, DRAM depth quantiles) plus the occupancy
/// timeline; `--json` emits the summary as one JSON line, `--svg` /
/// `--heatmap` write the occupancy chart / state heatmap as SVG.
fn cmd_sim_report(args: &[String]) -> Result<(), CliError> {
    let file = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| "sim-report: trace file required".to_string())?;
    let flags = parse_flags(&args[1..]);
    reject_unknown_flags("sim-report", &flags, SIM_REPORT_FLAGS)?;
    let path = std::path::Path::new(file);
    let trace = xmodel_obs::simtrace::SimTrace::from_path(path)
        .map_err(|e| CliError::Model(format!("{file}: {e}")))?;
    let summary = trace.summary();
    let occ = xmodel::viz::OccupancyTimeline::from_trace(&trace);
    if flags.contains_key("json") {
        outln!("{}", summary.to_json())?;
    } else {
        out!("{}", summary.render())?;
        if !occ.is_empty() {
            outln!("\n{}", occ.render_ascii(72, 16))?;
        }
    }
    // Keep stdout machine-parseable under --json: notices go to stderr.
    let notice = |msg: String| {
        if flags.contains_key("json") {
            noteln!("{msg}");
            Ok(())
        } else {
            outln!("{msg}")
        }
    };
    if let Some(svg) = flags.get("svg") {
        if occ.is_empty() {
            notice(format!("skipping {svg}: no probe frames to chart"))?;
        } else {
            write_output(svg, occ.to_chart().to_svg(640.0, 400.0))?;
            notice(format!("wrote {svg}"))?;
        }
    }
    if let Some(hm_path) = flags.get("heatmap") {
        match occ.to_heatmap() {
            Some(hm) => {
                write_output(hm_path, hm.to_svg(640.0, 300.0))?;
                notice(format!("wrote {hm_path}"))?;
            }
            None => notice(format!("skipping {hm_path}: no probe frames to chart"))?,
        }
    }
    Ok(())
}

/// Every flag `xmodel residuals` reads (`--gpu` is a synonym of
/// `--preset`).
const RESIDUALS_FLAGS: &[&str] = &["preset", "gpu", "workload", "l1", "rel", "json"];

/// `xmodel residuals TRACE` — align a recorded simtrace against the
/// analytic model's predicted operating point and rank the per-variable
/// residuals (`xmodel-residual/1`). The preset/workload/L1 default to
/// what the trace's run manifest recorded, so a bare
/// `xmodel residuals TRACE` validates the trace against the very
/// configuration that produced it; `--preset` compares against a
/// different Table II machine. Exits 1 (`Findings`) when any gated
/// observable's relative residual exceeds `--rel`.
fn cmd_residuals(args: &[String]) -> Result<(), CliError> {
    let file = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| "residuals: trace file required".to_string())?;
    let flags = parse_flags(&args[1..]);
    reject_unknown_flags("residuals", &flags, RESIDUALS_FLAGS)?;
    let path = std::path::Path::new(file);
    let trace = xmodel_obs::simtrace::SimTrace::from_path(path)
        .map_err(|e| CliError::Model(format!("{file}: {e}")))?;
    if trace.is_empty() {
        return Err(CliError::Model(format!(
            "{file}: no sim.probe frames — record one with `xmodel sim ... --trace FILE`"
        )));
    }
    let manifest_param = |key: &str| trace.params.get(key).cloned();
    let gpu_name = flags
        .get("preset")
        .or_else(|| flags.get("gpu"))
        .cloned()
        .or_else(|| manifest_param("gpu"))
        .unwrap_or_else(|| "kepler".to_string());
    let gpu = gpu_by_name(&gpu_name)?;
    let wl_name = flags
        .get("workload")
        .cloned()
        .or_else(|| manifest_param("workload"))
        .unwrap_or_else(|| "gesummv".to_string());
    let w = workload_by_name(&wl_name)?;
    let l1 = match flags.get("l1").cloned().or_else(|| manifest_param("l1")) {
        Some(v) => parse_l1_kib(&v)?,
        None => 0,
    };
    let rel = get_f64(&flags, "rel")?.unwrap_or(xmodel_obs::residual::DEFAULT_REL_TOL);
    if rel < 0.0 {
        return Err(CliError::Usage("--rel must be non-negative".to_string()));
    }

    let _span = xmodel_obs::span!(xmodel_obs::names::span::RESIDUAL_COMPARE);
    let mut model = xmodel::profile::fitting::assemble_model(&gpu, &w, l1 * 1024);
    // The traced run's resident-warp count is the n the model must
    // predict for; the header records it exactly.
    if let Some(n) = trace.warps() {
        model.workload.n = f64::from(n);
    }
    let resolved = model
        .resolve_operating_point_with(xmodel::core::solver::DEFAULT_SAMPLES, solver_force())
        .map_err(CliError::model)?;
    if resolved.degradation.is_degraded() {
        noteln!(
            "warning: operating point degraded to `{}` (residual {:.3e})",
            resolved.degradation,
            resolved.residual
        );
    }
    let p = &resolved.point;
    let pred = xmodel_obs::residual::ModelPrediction {
        k: p.k,
        x: p.x,
        ms_throughput: p.ms_throughput,
        cs_throughput: p.cs_throughput,
        latency: if p.ms_throughput > 0.0 {
            p.k / p.ms_throughput
        } else {
            f64::INFINITY
        },
    };
    let report = xmodel_obs::residual::ResidualReport::between(&trace, &pred);
    let exceeded = report.exceeding(rel).len();
    xmodel_obs::metrics::counter_add(
        xmodel_obs::names::metric::RESIDUAL_VARIABLES,
        report.series.len() as u64,
    );
    xmodel_obs::metrics::counter_add(
        xmodel_obs::names::metric::RESIDUAL_EXCEEDANCES,
        exceeded as u64,
    );
    if flags.contains_key("json") {
        outln!("{}", report.to_json())?;
    } else {
        outln!(
            "{} on {} (L1 {} KiB, n = {:.0}, {} frame(s))",
            w.name,
            gpu.name,
            l1,
            model.workload.n,
            report.frames
        )?;
        out!("{}", report.render(rel))?;
    }
    if exceeded > 0 {
        return Err(CliError::Findings(format!(
            "residuals: {exceeded} gated observable(s) exceed rel {:.0}% \
             against the {} prediction",
            rel * 100.0,
            gpu.name
        )));
    }
    Ok(())
}

/// Every flag `xmodel profile` reads.
const PROFILE_FLAGS: &[&str] = &["folded", "top"];

fn cmd_profile(args: &[String]) -> Result<(), CliError> {
    let file = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| "profile: trace file required".to_string())?;
    let flags = parse_flags(&args[1..]);
    reject_unknown_flags("profile", &flags, PROFILE_FLAGS)?;
    let path = std::path::Path::new(file);
    let profile = xmodel_obs::profile::SpanProfile::from_path(path)
        .map_err(|e| CliError::Model(format!("{file}: {e}")))?;
    out!("{}", profile.render())?;
    if !profile.is_empty() {
        let top = match flags.get("top") {
            Some(v) => v.parse::<usize>().map_err(|e| format!("--top: {e}"))?,
            None => 10,
        };
        outln!("\nhot spans (self time):")?;
        out!(
            "{}",
            xmodel::viz::flame::self_time_bars(&profile.hotspots(), 40, top)
        )?;
    }
    if let Some(folded) = flags.get("folded") {
        write_output(folded, profile.to_folded())?;
        outln!("wrote {folded}")?;
    }
    Ok(())
}

/// Every flag `xmodel trace-diff` reads.
const TRACE_DIFF_FLAGS: &[&str] = &["json", "folded", "top", "min-us", "rel"];

/// `xmodel trace-diff BASE NEW` — regression attribution between two
/// trace runs. Renders the aligned per-span delta table (or `--json`
/// one JSON line, or `--folded FILE` a signed differential folded
/// stack) and exits 1 when any delta clears the significance
/// thresholds, so scripts can gate on "did anything move?".
fn cmd_trace_diff(args: &[String]) -> Result<(), CliError> {
    let (base_file, new_file) = match args {
        [base, new, ..] if !base.starts_with("--") && !new.starts_with("--") => (base, new),
        _ => {
            return Err(CliError::Usage(
                "trace-diff: base and new trace files required".to_string(),
            ))
        }
    };
    let flags = parse_flags(&args[2..]);
    reject_unknown_flags("trace-diff", &flags, TRACE_DIFF_FLAGS)?;
    let top = match flags.get("top") {
        Some(v) => v.parse::<usize>().map_err(|e| format!("--top: {e}"))?,
        None => 20,
    };
    let min_us = get_f64(&flags, "min-us")?.unwrap_or(xmodel_obs::diff::DEFAULT_MIN_US);
    let rel = get_f64(&flags, "rel")?.unwrap_or(xmodel_obs::diff::DEFAULT_REL);
    if min_us < 0.0 || rel < 0.0 {
        return Err(CliError::Usage(
            "--min-us and --rel must be non-negative".to_string(),
        ));
    }

    let read = |file: &str| {
        xmodel_obs::profile::SpanProfile::from_path(std::path::Path::new(file))
            .map_err(|e| CliError::Model(format!("{file}: {e}")))
    };
    let diff = xmodel_obs::diff::TraceDiff::between(&read(base_file)?, &read(new_file)?);

    if flags.contains_key("json") {
        outln!("{}", diff.to_json())?;
    } else {
        out!("{}", diff.render(top, min_us, rel))?;
        let bars: Vec<(String, f64)> = diff
            .deltas
            .iter()
            .map(|d| (d.name.clone(), d.self_delta_us))
            .collect();
        if bars.iter().any(|(_, v)| *v != 0.0) {
            outln!("\nself-time deltas (− faster | slower +):")?;
            out!("{}", xmodel::viz::flame::delta_bars(&bars, 24, top))?;
        }
    }
    if let Some(folded) = flags.get("folded") {
        write_output(folded, diff.to_folded())?;
        // Keep stdout pure JSON under --json so the output stays
        // machine-parseable; the notice is advisory either way.
        if flags.contains_key("json") {
            noteln!("wrote {folded}");
        } else {
            outln!("wrote {folded}")?;
        }
    }

    let significant = diff.significant(min_us, rel).len();
    if significant > 0 {
        return Err(CliError::Findings(format!(
            "trace-diff: {significant} significant difference(s) \
             (thresholds: {min_us} µs and {:.0}% of base self time)",
            rel * 100.0
        )));
    }
    Ok(())
}

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut map = HashMap::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(key) = a.strip_prefix("--") {
            let val = match it.peek() {
                Some(v) if !v.starts_with("--") => it.next().unwrap().clone(),
                _ => "true".to_string(),
            };
            map.insert(key.to_string(), val);
        }
    }
    map
}

/// A usage error naming every flag in `flags` that `command` does not
/// read, so a misspelt flag cannot silently run the wrong thing.
fn reject_unknown_flags(
    command: &str,
    flags: &HashMap<String, String>,
    known: &[&str],
) -> Result<(), CliError> {
    let mut unknown: Vec<&str> = flags
        .keys()
        .map(String::as_str)
        .filter(|k| !known.contains(k))
        .collect();
    if unknown.is_empty() {
        return Ok(());
    }
    unknown.sort_unstable();
    Err(CliError::Usage(format!(
        "{command}: unknown flag(s) --{}",
        unknown.join(", --")
    )))
}

/// A usage error for a command that takes no arguments: it names the
/// flags, or else the first stray argument.
fn reject_arguments(command: &str, args: &[String]) -> Result<(), CliError> {
    reject_unknown_flags(command, &parse_flags(args), &[])?;
    match args.first() {
        Some(arg) => Err(CliError::Usage(format!(
            "{command}: unexpected argument `{arg}`"
        ))),
        None => Ok(()),
    }
}

/// Write an output file; failing that is a typed error naming the file
/// (exit 1), not a usage error.
fn write_output(path: &str, contents: impl AsRef<[u8]>) -> Result<(), CliError> {
    std::fs::write(path, contents).map_err(|e| io_error(path, e))
}

/// A failed write to `name` (an output file, or `stdout`) as a typed
/// error (exit 1), never a panic.
fn io_error(name: &str, e: std::io::Error) -> CliError {
    CliError::Model(format!("{name}: {e}"))
}

fn get_f64(flags: &HashMap<String, String>, key: &str) -> Result<Option<f64>, String> {
    match flags.get(key) {
        Some(v) => v
            .parse::<f64>()
            .map(Some)
            .map_err(|e| format!("--{key}: {e}")),
        None => Ok(None),
    }
}

/// Largest L1 `--l1` takes, in KiB: the whole 64 KiB array Fermi splits
/// between L1 and shared memory.
const L1_MAX_KIB: f64 = 64.0;

/// Parse an L1 size in KiB for the commands that fit locality to it
/// (`workload`, `whatif`, `residuals`) or simulate it (`sim`, whose
/// Table II presets have at most 64 KiB): a number from 0 to 64, whole
/// KiB taken. Negative, non-finite and larger values are usage errors.
fn parse_l1_kib(value: &str) -> Result<u64, String> {
    let kib = value.parse::<f64>().map_err(|e| format!("--l1: {e}"))?;
    if !(0.0..=L1_MAX_KIB).contains(&kib) {
        return Err(format!(
            "--l1 must be an L1 size from 0 to {L1_MAX_KIB} KiB, got `{value}`"
        ));
    }
    Ok(kib as u64)
}

/// `--l1` through [`parse_l1_kib`], or `default` when absent.
fn get_l1_kib(flags: &HashMap<String, String>, default: u64) -> Result<u64, String> {
    flags.get("l1").map_or(Ok(default), |v| parse_l1_kib(v))
}

fn gpu_by_name(name: &str) -> Result<GpuSpec, String> {
    match name.to_ascii_lowercase().as_str() {
        "fermi" | "gtx570" => Ok(GpuSpec::fermi_gtx570()),
        "kepler" | "k40" => Ok(GpuSpec::kepler_k40()),
        "maxwell" | "gtx750ti" => Ok(GpuSpec::maxwell_gtx750ti()),
        other => Err(format!("unknown GPU `{other}` (fermi, kepler, maxwell)")),
    }
}

fn workload_by_name(name: &str) -> Result<Workload, String> {
    Workload::by_name(name).ok_or_else(|| format!("unknown workload `{name}` (try `xmodel list`)"))
}

fn cmd_list(args: &[String]) -> Result<(), CliError> {
    reject_arguments("list", args)?;
    outln!("GPUs (Table II):")?;
    for g in GpuSpec::all() {
        outln!(
            "  {:<10} {:?}, {} SMs x {} SPs, {} GB/s, {} warps/SM",
            g.name,
            g.generation,
            g.sm_count,
            g.sp_per_sm,
            g.mem_bw_gbs,
            g.max_warps
        )?;
    }
    outln!("\nworkloads (the 12-app validation suite):")?;
    for w in Workload::suite() {
        let a = w.kernel.analyze();
        outln!(
            "  {:<10} [{}] E={:.2} Z={:.1}  {}",
            w.name,
            w.origin,
            a.ilp,
            a.intensity,
            w.description
        )?;
    }
    Ok(())
}

fn cmd_glossary(args: &[String]) -> Result<(), CliError> {
    reject_arguments("glossary", args)?;
    for e in xmodel::core::params::TABLE_I {
        outln!("  {:<6} {}", e.symbol, e.description)?;
    }
    Ok(())
}

fn build_model(flags: &HashMap<String, String>) -> Result<(XModel, Option<UnitContext>), CliError> {
    let (machine, units) = if let Some(gpu) = flags.get("gpu") {
        let spec = gpu_by_name(gpu)?;
        let precision = if flags.contains_key("dp") {
            Precision::Double
        } else {
            Precision::Single
        };
        (spec.machine_params(precision), Some(spec.units(precision)))
    } else {
        let m = get_f64(flags, "m")?.ok_or_else(|| "--m or --gpu required".to_string())?;
        let r = get_f64(flags, "r")?.ok_or_else(|| "--r required".to_string())?;
        let l = get_f64(flags, "l")?.ok_or_else(|| "--l required".to_string())?;
        (
            MachineParams::try_new(m, r, l).map_err(CliError::model)?,
            None,
        )
    };
    let z = get_f64(flags, "z")?.ok_or_else(|| "--z required".to_string())?;
    let e = get_f64(flags, "e")?.unwrap_or(1.0);
    let n = get_f64(flags, "n")?.ok_or_else(|| "--n required".to_string())?;
    let workload = WorkloadParams::try_new(z, e, n).map_err(CliError::model)?;

    let model = match get_f64(flags, "l1")? {
        // 0 means no cache; sizes above Table II's 64 KiB stay legal
        // here, since the analytic model is not tied to a preset's L1.
        Some(kib) if !(kib.is_finite() && kib >= 0.0) => {
            return Err(CliError::Usage(format!(
                "--l1 must be an L1 size of at least 0 KiB, got `{kib}`"
            )))
        }
        Some(kib) if kib > 0.0 => {
            let alpha = get_f64(flags, "alpha")?.unwrap_or(3.0);
            let beta = get_f64(flags, "beta")?.unwrap_or(2048.0);
            let l1_lat = get_f64(flags, "l1-latency")?.unwrap_or(30.0);
            XModel::with_cache(
                machine,
                workload,
                CacheParams::try_new(kib * 1024.0, l1_lat, alpha, beta).map_err(CliError::model)?,
            )
        }
        _ => XModel::new(machine, workload),
    };
    Ok((model, units))
}

fn report(
    model: &XModel,
    units: Option<&UnitContext>,
    svg: Option<&String>,
) -> Result<(), CliError> {
    // Resolve through the degradation ladder first: a model whose curves
    // defeat exact bracketing (or a forced `--fault-spec solver=...`)
    // still reports, with the provenance on stderr; only a model that
    // defeats every rung is a hard error (exit 1).
    let resolved = model
        .resolve_operating_point_with(xmodel::core::solver::DEFAULT_SAMPLES, solver_force())
        .map_err(CliError::model)?;
    if resolved.degradation.is_degraded() {
        noteln!(
            "warning: operating point degraded to `{}` (residual {:.3e}, schema {})",
            resolved.degradation,
            resolved.residual,
            xmodel::core::degrade::DEGRADE_SCHEMA
        );
        outln!(
            "operating point ({}): k = {:.2}, x = {:.2}, MS {:.4} req/cyc, CS {:.4} ops/cyc",
            resolved.degradation,
            resolved.point.k,
            resolved.point.x,
            resolved.point.ms_throughput,
            resolved.point.cs_throughput
        )?;
    }
    // The shared report card from xmodel-core, then the terminal X-graph.
    out!("{}", xmodel::core::report::render(model, units))?;
    let graph = XGraph::build(model, 384);
    outln!("\n{}", render::xgraph_ascii(&graph, 72, 16))?;
    if let Some(path) = svg {
        let svg_text = render::xgraph_chart(&graph, units).to_svg(640.0, 400.0);
        write_output(path, svg_text)?;
        outln!("wrote {path}")?;
    }
    Ok(())
}

/// Every flag `xmodel draw` reads.
const DRAW_FLAGS: &[&str] = &[
    "gpu",
    "dp",
    "m",
    "r",
    "l",
    "z",
    "e",
    "n",
    "l1",
    "alpha",
    "beta",
    "l1-latency",
    "svg",
];

fn cmd_draw(flags: HashMap<String, String>) -> Result<(), CliError> {
    reject_unknown_flags("draw", &flags, DRAW_FLAGS)?;
    let (model, units) = build_model(&flags)?;
    report(&model, units.as_ref(), flags.get("svg"))
}

/// Every flag `xmodel workload` reads.
const WORKLOAD_FLAGS: &[&str] = &["gpu", "l1", "svg"];

fn cmd_workload(args: &[String]) -> Result<(), CliError> {
    let name = args
        .first()
        .ok_or_else(|| "workload name required".to_string())?;
    let flags = parse_flags(&args[1..]);
    reject_unknown_flags("workload", &flags, WORKLOAD_FLAGS)?;
    let w = workload_by_name(name)?;
    let gpu = gpu_by_name(flags.get("gpu").map(String::as_str).unwrap_or("kepler"))?;
    let l1 = get_l1_kib(&flags, 0)?;
    let model = xmodel::profile::fitting::assemble_model(&gpu, &w, l1 * 1024);
    let a = w.kernel.analyze();
    outln!("{} on {} (L1 {} KiB)", w.name, gpu.name, l1)?;
    outln!("  {}", w.description)?;
    outln!(
        "  extracted: E={:.2} Z={:.2} n={} coalesce={}",
        a.ilp,
        a.intensity,
        model.workload.n,
        w.coalesce
    )?;
    let precision = xmodel::profile::fitting::workload_precision(&w);
    report(&model, Some(&gpu.units(precision)), flags.get("svg"))
}

/// Every flag `xmodel validate` reads.
const VALIDATE_FLAGS: &[&str] = &["gpu"];

fn cmd_validate(flags: HashMap<String, String>) -> Result<(), CliError> {
    reject_unknown_flags("validate", &flags, VALIDATE_FLAGS)?;
    let gpu = gpu_by_name(flags.get("gpu").map(String::as_str).unwrap_or("kepler"))?;
    outln!("validating on {} ...", gpu.name)?;
    let rep = validate_suite(&gpu).map_err(CliError::model)?;
    outln!("{:<11} {:>8} {:>8} {:>7}", "app", "PCT", "RCT", "acc")?;
    for a in &rep.apps {
        outln!(
            "{:<11} {:>8.3} {:>8.3} {:>6.1}%",
            a.name,
            a.predicted_cs,
            a.measured_cs,
            a.accuracy() * 100.0
        )?;
    }
    outln!("mean accuracy: {:.1}%", rep.mean_accuracy() * 100.0)?;
    Ok(())
}

/// Every flag `xmodel sim` reads; anything else is a usage error.
const SIM_FLAGS: &[&str] = &["workload", "gpu", "warps", "l1", "ir"];

fn cmd_sim(args: &[String]) -> Result<(), CliError> {
    // `parse_flags` skips an argument that is neither a flag nor a flag's
    // value; here that is almost always a workload named without
    // `--workload`, which would otherwise simulate the default.
    let mut value_allowed = false;
    for arg in args {
        let is_flag = arg.starts_with("--");
        if !is_flag && !value_allowed {
            return Err(CliError::Usage(format!(
                "sim: unexpected argument `{arg}` (name a workload with --workload {arg})"
            )));
        }
        value_allowed = is_flag;
    }
    let flags = parse_flags(args);
    reject_unknown_flags("sim", &flags, SIM_FLAGS)?;
    let gpu = gpu_by_name(flags.get("gpu").map(String::as_str).unwrap_or("kepler"))?;
    let w = workload_by_name(
        flags
            .get("workload")
            .map(String::as_str)
            .unwrap_or("gesummv"),
    )?;
    let l1 = get_l1_kib(&flags, 0)?;
    let (cfg, mut wl) = sim_pairing(&gpu, &w, l1 * 1024);
    if let Some(v) = flags.get("warps") {
        wl.warps = parse_warps(v, gpu.max_warps as u32)?;
    }
    // Without `--warps`, an L1 that leaves a block no shared memory pairs
    // 0 warps: a typed error here, not an assert inside either driver.
    wl.validate().map_err(CliError::model)?;

    let ir_mode = flags.contains_key("ir");
    let spec = fault_spec();
    // A hang (e.g. `--fault-spec drop=1` losing every completion) becomes
    // a typed Watchdog error and exit 1, never a silently-zero result.
    // The threshold must sit well inside the 50k-cycle measure phase or
    // it can never trip; healthy runs complete requests every few hundred
    // cycles, so 25k idle cycles is unambiguous.
    let watchdog = Watchdog {
        stall_cycles: 25_000,
        ..Watchdog::default()
    };
    let (stats, faults) = if ir_mode {
        let mut sm = xmodel::sim::IrSm::new(&cfg, &w.kernel, w.trace, wl.warps, 42);
        if spec.perturbs_memory() {
            sm.set_faults(&spec);
        }
        let stats = sm
            .run_watched(15_000, 50_000, &watchdog)
            .map_err(CliError::model)?
            .clone();
        (stats, sm.fault_counters())
    } else {
        let mut sm = xmodel::sim::Sm::with_faults(&cfg, &wl, 42, &spec);
        let stats = sm
            .run_watched(15_000, 50_000, &watchdog)
            .map_err(CliError::model)?
            .clone();
        (stats, sm.fault_counters())
    };
    if let Some(f) = faults {
        noteln!(
            "warning: injected memory faults: {} spikes, {} drops, {} dups, {} throttled \
             ({} recovered, {} spurious wakes absorbed)",
            f.spikes,
            f.drops,
            f.dups,
            f.throttled,
            stats.lost_recovered,
            stats.spurious_wakes
        );
    }
    let units = gpu.units(xmodel::profile::fitting::workload_precision(&w));
    outln!(
        "{} on {} ({} warps, {} mode{})",
        w.name,
        gpu.name,
        wl.warps,
        if ir_mode { "IR" } else { "parametric" },
        if cfg.l1.is_some() { ", L1 on" } else { "" }
    )?;
    outln!(
        "  MS {:.4} req/cyc ({:.2} GB/s per SM)   CS {:.4} ops/cyc ({:.2} GF/s per SM)",
        stats.ms_throughput(),
        units.ms_to_gbs(stats.ms_throughput()),
        stats.cs_throughput(),
        units.cs_to_gflops(stats.cs_throughput())
    )?;
    outln!(
        "  spatial state: avg k = {:.1}, avg x = {:.1}, mode k = {}",
        stats.avg_k(),
        stats.avg_x(),
        stats.mode_k()
    )?;
    if cfg.l1.is_some() {
        outln!(
            "  L1: hit rate {:.2} ({} hits / {} misses / {} merges, {} MSHR stalls)",
            stats.hit_rate(),
            stats.l1_hits,
            stats.l1_misses,
            stats.l1_merges,
            stats.mshr_stalls
        )?;
    }
    Ok(())
}

/// Parse `sim --warps`: a whole number of resident warps from 1 to the
/// preset's `max_warps` (48 on Fermi, 64 on Kepler and Maxwell).
fn parse_warps(value: &str, max_warps: u32) -> Result<u32, String> {
    match value.parse::<u32>() {
        Ok(warps) if (1..=max_warps).contains(&warps) => Ok(warps),
        _ => Err(format!(
            "--warps must be a whole number from 1 to {max_warps}, got `{value}`"
        )),
    }
}

/// Most rows `xmodel sweep` writes: 2^20 rows is about 130 MB of JSON.
const SWEEP_MAX_POINTS: usize = 1 << 20;

/// Every flag `xmodel sweep` reads; anything else is a usage error.
const SWEEP_FLAGS: &[&str] = &[
    "n-max",
    "gpu",
    "dp",
    "m",
    "r",
    "l",
    "z",
    "e",
    "l1",
    "alpha",
    "beta",
    "l1-latency",
    "points",
    "samples",
    "jobs",
    "out",
];

fn cmd_sweep(flags: HashMap<String, String>) -> Result<(), CliError> {
    reject_unknown_flags("sweep", &flags, SWEEP_FLAGS)?;
    let n_max = get_f64(&flags, "n-max")?.ok_or_else(|| "--n-max required".to_string())?;
    if !n_max.is_finite() || n_max <= 0.0 {
        return Err(CliError::Usage("--n-max must be positive".to_string()));
    }
    let points = match flags.get("points") {
        Some(v) => v.parse::<usize>().map_err(|e| format!("--points: {e}"))?,
        None => 256,
    };
    if !(1..=SWEEP_MAX_POINTS).contains(&points) {
        return Err(CliError::Usage(format!(
            "--points must be from 1 to {SWEEP_MAX_POINTS}"
        )));
    }
    let samples = match flags.get("samples") {
        Some(v) => v.parse::<usize>().map_err(|e| format!("--samples: {e}"))?,
        None => xmodel::core::solver::DEFAULT_SAMPLES,
    };
    if !(2..=xmodel::core::solver::MAX_SAMPLES).contains(&samples) {
        return Err(CliError::Usage(format!(
            "--samples must be from 2 to {}",
            xmodel::core::solver::MAX_SAMPLES
        )));
    }
    // Flag beats XMODEL_JOBS beats the detected core count.
    let jobs = match flags.get("jobs") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|e| format!("--jobs: {e}"))?
            .max(1),
        None => xmodel::core::sweep::default_jobs(),
    };

    // Reuse the draw/validate model builder with `n = n_max`; each grid
    // point then overrides the thread count (the one workload knob the
    // tabulated supply curve does not depend on).
    let mut mflags = flags.clone();
    mflags.insert("n".to_string(), format!("{n_max}"));
    let (base, _units) = build_model(&mflags)?;

    let table = xmodel::core::fastpath::CurveTable::build(&base, n_max);
    let ns: Vec<f64> = (1..=points)
        .map(|i| n_max * i as f64 / points as f64)
        .collect();
    let rows = xmodel::core::sweep::run(jobs, &ns, |_, &n| {
        let mut m = base;
        m.workload.n = n;
        let eq = xmodel::core::fastpath::solve_fast(&m, &table, samples);
        (n, eq.points().len(), eq.operating_point())
    });

    let out = flags.get("out");
    let _span = xmodel_obs::span!(xmodel_obs::names::span::SWEEP_WRITE);
    let (mut sink, name): (Box<dyn Write>, &str) = match out {
        Some(path) => (
            Box::new(std::fs::File::create(path).map_err(|e| io_error(path, e))?),
            path,
        ),
        None => (Box::new(std::io::stdout().lock()), "stdout"),
    };
    write_sweep(&mut *sink, &base, n_max, samples, &rows).map_err(|e| io_error(name, e))?;
    if let Some(path) = out {
        let mut stdout = std::io::stdout().lock();
        writeln!(stdout, "wrote {path} ({points} points, {jobs} jobs)")
            .and_then(|()| stdout.flush())
            .map_err(|e| io_error("stdout", e))?;
    }
    Ok(())
}

/// `xmodel sweep` hands its buffer to the output sink whenever it
/// passes this many bytes.
const SWEEP_FLUSH_BYTES: usize = 32 * 1024;

/// More than one sweep row can take: five numbers of at most 330
/// characters each (`f64` prints without an exponent), the root count
/// and the keys.
const SWEEP_ROW_MAX_BYTES: usize = 2048;

/// One `xmodel sweep` row: `n`, the root count, and the operating point
/// if there is one.
type SweepRow = (f64, usize, Option<xmodel::core::solver::Intersection>);

/// Write an `xmodel sweep` document (schema `xmodel-sweep/1`) to `sink`,
/// one row per line. Every number goes through `obs::json::write_f64`
/// into one buffer, handed to `sink` each time it passes
/// [`SWEEP_FLUSH_BYTES`]. The rows arrive in index order and the worker
/// count is not recorded, so the bytes are identical for any `--jobs`
/// (asserted by scripts/ci.sh).
fn write_sweep(
    sink: &mut dyn Write,
    base: &XModel,
    n_max: f64,
    samples: usize,
    rows: &[SweepRow],
) -> std::io::Result<()> {
    // Room for the row that carries the buffer past the flush mark, so
    // it never grows.
    let mut buf = String::with_capacity(SWEEP_FLUSH_BYTES + SWEEP_ROW_MAX_BYTES);
    buf.push_str("{\n  \"schema\": \"xmodel-sweep/1\",\n");
    push_num(&mut buf, "  \"machine\": {\"m\": ", base.machine.m);
    push_num(&mut buf, ", \"r\": ", base.machine.r);
    push_num(&mut buf, ", \"l\": ", base.machine.l);
    push_num(&mut buf, "},\n  \"workload\": {\"z\": ", base.workload.z);
    push_num(&mut buf, ", \"e\": ", base.workload.e);
    push_num(&mut buf, ", \"n_max\": ", n_max);
    match base.cache {
        Some(c) => {
            push_num(&mut buf, "},\n  \"cache\": {\"s_bytes\": ", c.s_cache);
            push_num(&mut buf, ", \"l_cache\": ", c.l_cache);
            push_num(&mut buf, ", \"alpha\": ", c.alpha);
            push_num(&mut buf, ", \"beta\": ", c.beta);
            buf.push_str("},\n");
        }
        None => buf.push_str("},\n  \"cache\": null,\n"),
    }
    let _ = write!(
        buf,
        "  \"points\": {},\n  \"samples\": {samples},\n  \"rows\": [\n",
        rows.len()
    );
    for (i, row) in rows.iter().enumerate() {
        write_sweep_row(&mut buf, row, i + 1 == rows.len());
        if buf.len() >= SWEEP_FLUSH_BYTES {
            sink.write_all(buf.as_bytes())?;
            buf.clear();
        }
    }
    buf.push_str("  ]\n}\n");
    sink.write_all(buf.as_bytes())?;
    sink.flush()
}

/// Append one sweep row and its line end; `null` stands for every field
/// of a missing operating point.
fn write_sweep_row(buf: &mut String, (n, roots, op): &SweepRow, last: bool) {
    push_num(buf, "    {\"n\": ", *n);
    let _ = write!(buf, ", \"roots\": {roots}");
    match op {
        Some(p) => {
            push_num(buf, ", \"k\": ", p.k);
            push_num(buf, ", \"x\": ", p.x);
            push_num(buf, ", \"ms\": ", p.ms_throughput);
            push_num(buf, ", \"cs\": ", p.cs_throughput);
            let _ = write!(buf, ", \"stability\": \"{}\"}}", p.stability.as_str());
        }
        None => buf.push_str(
            ", \"k\": null, \"x\": null, \"ms\": null, \"cs\": null, \"stability\": null}",
        ),
    }
    buf.push_str(if last { "\n" } else { ",\n" });
}

/// Append `prefix`, then `v` as `obs::json` writes a number.
fn push_num(buf: &mut String, prefix: &str, v: f64) {
    buf.push_str(prefix);
    json::write_f64(buf, v);
}

/// Every flag `xmodel whatif` reads.
const WHATIF_FLAGS: &[&str] = &["gpu", "workload", "l1"];

fn cmd_whatif(flags: HashMap<String, String>) -> Result<(), CliError> {
    reject_unknown_flags("whatif", &flags, WHATIF_FLAGS)?;
    let gpu = gpu_by_name(flags.get("gpu").map(String::as_str).unwrap_or("fermi"))?;
    let w = workload_by_name(
        flags
            .get("workload")
            .map(String::as_str)
            .unwrap_or("gesummv"),
    )?;
    let l1 = get_l1_kib(&flags, 16)?;
    let model = xmodel::profile::fitting::assemble_model(&gpu, &w, l1 * 1024);
    let what_if = WhatIf::new(model);
    outln!(
        "{} on {} with {} KiB L1: thrashing = {}",
        w.name,
        gpu.name,
        l1,
        what_if.is_thrashing()
    )?;
    let n_star = what_if.optimal_throttle();
    let mut candidates = vec![
        (
            "bypass (R x3)".to_string(),
            Optimization::CacheBypass {
                r: model.machine.r * 3.0,
            },
        ),
        (
            "intensity (Z x2)".to_string(),
            Optimization::IncreaseIntensity {
                z: model.workload.z * 2.0,
            },
        ),
        (
            "reduce ILP (E /2)".to_string(),
            Optimization::ReduceIlp {
                e: model.workload.e * 0.5,
            },
        ),
        (
            "enlarge cache (x3)".to_string(),
            Optimization::EnlargeCache {
                s_cache: l1 as f64 * 1024.0 * 3.0,
            },
        ),
    ];
    if let Some(n) = n_star {
        candidates.insert(
            0,
            (
                format!("throttle (n={n:.1})"),
                Optimization::ThreadThrottle { n },
            ),
        );
    }
    for (name, opt) in candidates {
        match what_if.evaluate(opt) {
            Some(eff) => outln!(
                "  {:<20} MS {:>5.2}x  CS {:>5.2}x",
                name,
                eff.ms_speedup(),
                eff.cs_speedup()
            )?,
            None => outln!("  {name:<20} (no equilibrium)")?,
        }
    }
    Ok(())
}

/// Parse an optional unsigned-integer flag.
fn get_u64(flags: &HashMap<String, String>, key: &str) -> Result<Option<u64>, String> {
    match flags.get(key) {
        Some(v) => v
            .parse::<u64>()
            .map(Some)
            .map_err(|e| format!("--{key}: {e}")),
        None => Ok(None),
    }
}

/// Parse an optional queue-fill watermark for `serve`'s load shedding: a
/// finite number ≥ 0. A negative one would shed on an idle daemon, and
/// NaN would compare false everywhere and turn shedding off.
fn get_watermark(flags: &HashMap<String, String>, key: &str) -> Result<Option<f64>, String> {
    match get_f64(flags, key)? {
        Some(v) if !v.is_finite() || v < 0.0 => Err(format!(
            "--{key} must be a finite number >= 0, got `{}`",
            flags[key]
        )),
        v => Ok(v),
    }
}

/// Every flag `xmodel serve` reads.
const SERVE_FLAGS: &[&str] = &[
    "addr",
    "workers",
    "queue",
    "timeout",
    "drain-timeout",
    "grid-watermark",
    "baseline-watermark",
    "shards",
    "io-timeout",
    "samples",
];

/// `xmodel serve`: boot the overload-safe daemon (`xmodel-serve`) and
/// block until it drains (`POST /quitck`). The listen address is
/// printed to stdout (and flushed) before blocking so scripts can bind
/// port 0 and scrape the resolved port. Worker stalls from the global
/// fault spec (`serve-stall=MS`) are wired through for chaos testing.
fn cmd_serve(flags: HashMap<String, String>) -> Result<(), CliError> {
    use xmodel_serve::{ServeConfig, Server};
    reject_unknown_flags("serve", &flags, SERVE_FLAGS)?;
    let defaults = ServeConfig::default();
    let cfg = ServeConfig {
        addr: flags
            .get("addr")
            .cloned()
            .unwrap_or_else(|| defaults.addr.clone()),
        workers: get_u64(&flags, "workers")?.map_or(defaults.workers, |v| v.max(1) as usize),
        queue_capacity: get_u64(&flags, "queue")?
            .map_or(defaults.queue_capacity, |v| v.max(1) as usize),
        default_deadline_ms: get_u64(&flags, "timeout")?
            .map_or(defaults.default_deadline_ms, |v| v.max(1)),
        drain_deadline_ms: get_u64(&flags, "drain-timeout")?
            .map_or(defaults.drain_deadline_ms, |v| v.max(1)),
        grid_watermark: get_watermark(&flags, "grid-watermark")?.unwrap_or(defaults.grid_watermark),
        baseline_watermark: get_watermark(&flags, "baseline-watermark")?
            .unwrap_or(defaults.baseline_watermark),
        stall_ms: fault_spec().serve_stall_ms,
        cache_shards: get_u64(&flags, "shards")?
            .map_or(defaults.cache_shards, |v| v.max(1) as usize),
        io_timeout_ms: get_u64(&flags, "io-timeout")?.map_or(defaults.io_timeout_ms, |v| v.max(1)),
        samples: get_u64(&flags, "samples")?.map_or(defaults.samples, |v| {
            v.clamp(64, xmodel::core::solver::MAX_SAMPLES as u64) as usize
        }),
    };
    // The serve.* counters/gauges/histograms are silently dropped when
    // no sink is installed; a daemon must always be scrapeable.
    if !xmodel_obs::enabled() {
        xmodel_obs::install(Box::new(xmodel_obs::NullSink));
    }
    let server = Server::start(cfg).map_err(|e| CliError::Model(format!("serve: {e}")))?;
    // `outln!` flushes, so a client reading the port from the first line
    // sees it before the daemon blocks in `wait`.
    outln!("serve: listening on http://{}", server.addr())?;
    let report = server.wait();
    outln!(
        "serve: drained — served {} shed {} deadline-exceeded {} malformed {} forced-degrade {}",
        report.served,
        report.shed,
        report.deadline_exceeded,
        report.malformed,
        report.forced_degrade
    )?;
    if !report.clean_drain {
        return Err(CliError::Model(
            "serve: drain deadline exceeded; in-flight work abandoned".to_string(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmodel::core::solver::Intersection;
    use xmodel::core::stability::Stability;

    fn row(n: f64, roots: usize, op: Option<Intersection>, last: bool) -> String {
        let mut buf = String::new();
        write_sweep_row(&mut buf, &(n, roots, op), last);
        buf
    }

    #[test]
    fn row_without_an_operating_point_is_all_null() {
        assert_eq!(
            row(12.5, 0, None, false),
            "    {\"n\": 12.5, \"roots\": 0, \"k\": null, \"x\": null, \"ms\": null, \
             \"cs\": null, \"stability\": null},\n"
        );
        assert!(row(12.5, 0, None, true).ends_with("\"stability\": null}\n"));
    }

    #[test]
    fn row_writes_non_finite_numbers_as_null() {
        let op = Intersection {
            k: f64::NAN,
            x: f64::INFINITY,
            ms_throughput: f64::NEG_INFINITY,
            cs_throughput: 0.25,
            stability: Stability::Unstable,
        };
        assert_eq!(
            row(f64::NAN, 3, Some(op), true),
            "    {\"n\": null, \"roots\": 3, \"k\": null, \"x\": null, \"ms\": null, \
             \"cs\": 0.25, \"stability\": \"unstable\"}\n"
        );
    }

    /// The buffer reserves `SWEEP_ROW_MAX_BYTES` past the flush mark;
    /// the longest numbers `f64` prints must fit in it.
    #[test]
    fn longest_row_fits_the_reserve() {
        let op = Intersection {
            k: -f64::MAX,
            x: -5e-324,
            ms_throughput: -f64::MAX,
            cs_throughput: -5e-324,
            stability: Stability::Unstable,
        };
        let longest = row(-f64::MAX, usize::MAX, Some(op), false);
        assert!(longest.len() < SWEEP_ROW_MAX_BYTES, "{}", longest.len());
    }
}
