//! End-to-end and per-layer benchmark for the xmodel workspace.
//!
//! ```text
//! perfbench --workload <validate|validate_l1|sweep|serve> --seed N \
//!           --seconds S --trace <0|1> --xmodel <path to xmodel binary>
//! ```
//!
//! With `--trace 0` the run measures the workload through the entry
//! points users call and prints the end-to-end metrics. With `--trace 1`
//! it alternates untraced passes with traced ones that record a span
//! around every call into a layer, and prints the per-layer metrics.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! `perfbench pass ...` is the child process of one validation pass;
//! `perfbench refgen` rewrites the reference outputs under `reference/`.

mod serve;
mod sweep;
mod trace;
mod util;
mod validate;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// End-to-end metrics: `(name, unit)`. Reported by every workload with
/// `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("mean_accuracy", "%"),
];

/// Application names of the Table II suite, for the per-app metrics.
pub const APPS: [&str; 12] = [
    "bfs",
    "backprop",
    "stencil",
    "gesummv",
    "hpccg",
    "heartwall",
    "leukocyte",
    "nw",
    "nn",
    "spmv",
    "atax",
    "lud",
];

/// Per-layer metrics: `(name, unit)`. Reported by every workload with
/// `--trace 1`; a layer a workload does not reach reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("sm.setup_ms", "ms"),
        ("sm.warmup_ms", "ms"),
        ("sm.measure_ms", "ms"),
        ("sm.cycles_per_s", "1/s"),
        ("sm.ms_share", "ratio"),
        ("cache.l1_hit_rate", "ratio"),
        ("cache.mshr_stalls", "count"),
        ("fitting.assemble_ms", "ms"),
        ("fitting.repeat_share", "ratio"),
        ("locality.fit_ms", "ms"),
        ("degrade.resolve_ms", "ms"),
        ("fastpath.build_ms", "ms"),
        ("fastpath.usl_share", "ratio"),
        ("fastpath.cell_p50_us", "us"),
        ("fastpath.cell_p99_us", "us"),
        ("fastpath.multi_root_share", "ratio"),
        ("sweep.run_ms", "ms"),
        ("sweep.parallel_eff", "ratio"),
        ("cli.startup_ms", "ms"),
        ("cli.write_ms", "ms"),
        ("cli.out_bytes", "bytes"),
        ("serve.request_ms", "ms"),
        ("solver.dense_ms", "ms"),
        ("solver.fast_ms", "ms"),
        ("serve.table_builds_per_req", "count"),
        ("serve.cache_hit_rate", "ratio"),
        ("serve.forced_degrade", "count"),
        ("serve.fresh_share", "ratio"),
        ("serve.outside_ms", "ms"),
        ("serve.solve_p50_ms", "ms"),
        ("serve.sweep_p50_ms", "ms"),
        ("serve.whatif_p50_ms", "ms"),
        ("serve.littles_law_err", "ratio"),
        ("op_p99_ms", "ms"),
        ("op_count", "count"),
        ("unattributed_ms", "ms"),
        ("unattributed_share", "ratio"),
        ("trace_overhead", "ratio"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    out.extend(
        APPS.iter()
            .map(|app| (format!("sm.ms_share.{app}"), "ratio")),
    );
    out
}

/// Command-line options of a measured run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub xmodel: PathBuf,
}

/// What one run observed: op counts, failures and metric values.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Reasons for failed ops or self-checks (first few are printed).
    pub errors: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.errors.push(why.into());
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Fold in another phase's counts and errors (not its metrics).
    pub fn absorb_counts(&mut self, other: &Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors.iter().cloned());
    }
}

/// Ops finished in one stretch of a run (a pass, or a slice of time),
/// in order, with the wall time they took.
#[derive(Default)]
pub struct Chunk {
    pub op_ms: Vec<f64>,
    pub wall_s: f64,
}

/// Fewest ops in a window, so its p90 has at least ten ops beyond it.
const MIN_WINDOW_OPS: usize = 100;

/// Throughput and latency metrics. Consecutive chunks are merged into
/// windows of at least [`MIN_WINDOW_OPS`] ops (a short remainder joins
/// the last window); `ops_per_s`, `op_p50_ms` and `op_p90_ms` are the
/// medians over windows of each window's value, so a burst of host
/// noise inside a run moves one window, not the result. `op_p99_ms`
/// and `op_count` cover every op.
pub fn latency_metrics(out: &mut Outcome, chunks: &[Chunk]) {
    let mut windows: Vec<Chunk> = Vec::new();
    for chunk in chunks {
        match windows.last_mut() {
            Some(w) if w.op_ms.len() < MIN_WINDOW_OPS => {
                w.op_ms.extend(&chunk.op_ms);
                w.wall_s += chunk.wall_s;
            }
            _ => windows.push(Chunk {
                op_ms: chunk.op_ms.clone(),
                wall_s: chunk.wall_s,
            }),
        }
    }
    if windows.len() > 1
        && windows
            .last()
            .is_some_and(|w| w.op_ms.len() < MIN_WINDOW_OPS)
    {
        let tail = windows.pop().unwrap_or_default();
        if let Some(w) = windows.last_mut() {
            w.op_ms.extend(tail.op_ms);
            w.wall_s += tail.wall_s;
        }
    }
    let per = |f: &dyn Fn(&Chunk) -> f64| util::median(&windows.iter().map(f).collect::<Vec<_>>());
    out.set(
        "ops_per_s",
        per(&|w| util::ratio(w.op_ms.len() as f64, w.wall_s)),
    );
    out.set("op_p50_ms", per(&|w| util::median(&w.op_ms)));
    out.set("op_p90_ms", per(&|w| util::quantile(&w.op_ms, 0.9)));
    let all = all_ms(chunks);
    out.set("op_p99_ms", util::quantile(&all, 0.99));
    out.set("op_count", all.len() as f64);
}

pub fn all_ms(chunks: &[Chunk]) -> Vec<f64> {
    chunks
        .iter()
        .flat_map(|c| c.op_ms.iter().copied())
        .collect()
}

/// Traced median op latency over the untraced one, minus 1.
pub fn trace_overhead(untraced: &[Chunk], traced: &[Chunk]) -> f64 {
    util::ratio(
        util::median(&all_ms(traced)),
        util::median(&all_ms(untraced)),
    ) - 1.0
}

/// Where a traced run writes its spans: beside the harness binary, one
/// file per workload, replaced by the next traced run.
pub fn spans_path(workload: &str) -> PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|d| d.to_path_buf()))
        .unwrap_or_default();
    dir.join("perfbench-spans")
        .join(format!("{workload}.jsonl"))
}

fn parse_args(argv: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut map = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key.to_string(), value.clone());
    }
    Ok(map)
}

fn get<'a>(flags: &'a BTreeMap<String, String>, key: &str) -> Result<&'a str, String> {
    flags
        .get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("--{key} is required"))
}

fn parse<T: std::str::FromStr>(flags: &BTreeMap<String, String>, key: &str) -> Result<T, String> {
    get(flags, key)?
        .parse()
        .map_err(|_| format!("--{key}: not a valid value"))
}

fn measured_run(flags: &BTreeMap<String, String>) -> Result<Outcome, String> {
    let args = Args {
        workload: get(flags, "workload")?.to_string(),
        seed: parse(flags, "seed")?,
        seconds: parse(flags, "seconds")?,
        trace: match get(flags, "trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        },
        xmodel: PathBuf::from(get(flags, "xmodel")?),
    };
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    match args.workload.as_str() {
        "validate" => validate::run(validate::Kind::Validate, &args),
        "validate_l1" => validate::run(validate::Kind::ValidateL1, &args),
        "sweep" => sweep::run(&args),
        "serve" => serve::run(&args),
        other => Err(format!(
            "unknown workload `{other}` (validate|validate_l1|sweep|serve)"
        )),
    }
}

/// The result line: every end-to-end metric (`trace` off) or every
/// per-layer metric (`trace` on), each with its unit.
fn result_line(out: &Outcome, trace: bool) -> String {
    let names: Vec<(String, &str)> = if trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = out.metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("pass") => match parse_args(&argv[1..]) {
            Ok(flags) => validate::pass_main(&flags),
            Err(e) => {
                eprintln!("perfbench pass: {e}");
                2
            }
        },
        Some("refgen") => validate::refgen(),
        _ => match parse_args(&argv).and_then(|flags| {
            let before = util::cpu_ticks();
            let out = measured_run(&flags)?;
            if let (Some((s0, t0)), Some((s1, t1))) = (before, util::cpu_ticks()) {
                let steal = 100.0 * util::ratio((s1 - s0) as f64, (t1 - t0) as f64);
                eprintln!("perfbench: host steal {steal:.1}% of CPU time during the run");
            }
            Ok(out)
        }) {
            Ok(out) => {
                for e in out.errors.iter().take(10) {
                    eprintln!("perfbench: failed: {e}");
                }
                let trace = argv.windows(2).any(|w| w[0] == "--trace" && w[1] == "1");
                println!("{}", result_line(&out, trace));
                0
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                1
            }
        },
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmodel::obs::json::{self, JsonValue};

    fn listed(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
        match doc.get(key) {
            Some(JsonValue::Array(items)) => items
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect(),
            _ => panic!("BENCHMARK.json has no `{key}` list"),
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_harness_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed(&doc, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed(&doc, "per_layer"), layers);
    }

    /// The `xmodel` binary of the same target directory, as `run.py`
    /// builds it.
    fn traced_args(workload: &str, seconds: f64) -> Args {
        let exe = std::env::current_exe().unwrap();
        let xmodel = exe
            .parent()
            .and_then(|deps| deps.parent())
            .unwrap()
            .join("xmodel");
        assert!(
            xmodel.exists(),
            "{} is missing: build it first with `cargo build --release -p xmodel-cli` into the same target directory",
            xmodel.display()
        );
        Args {
            workload: workload.to_string(),
            seed: 7,
            seconds,
            trace: true,
            xmodel,
        }
    }

    #[test]
    fn serve_closed_loop_obeys_littles_law() {
        let out = serve::run(&traced_args("serve", 2.0)).unwrap();
        assert!(out.attempted > 100 && out.failed == 0, "{:?}", out.errors);
        let err = out.metrics["serve.littles_law_err"];
        assert!(
            err < 0.05,
            "clients ≠ throughput × mean latency: error {err}"
        );
    }

    #[test]
    fn in_process_sweep_replay_matches_the_cli() {
        let out = sweep::run(&traced_args("sweep", 0.2)).unwrap();
        assert!(out.attempted > 0 && out.failed == 0, "{:?}", out.errors);
        assert!(out.metrics["sweep.run_ms"] > 0.0 && out.metrics["cli.write_ms"] > 0.0);
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.set("op_p50_ms", 1.25);
        let doc = json::parse(&result_line(&out, false)).unwrap();
        assert!(matches!(doc.get("correct"), Some(JsonValue::Bool(true))));
        let metrics = doc.get("metrics").unwrap();
        for (name, unit) in END_TO_END {
            assert_eq!(
                metrics
                    .get(name)
                    .and_then(|m| m.get("unit"))
                    .and_then(JsonValue::as_str),
                Some(*unit)
            );
        }
        let p50 = metrics.get("op_p50_ms").and_then(|m| m.get("value"));
        assert_eq!(p50.and_then(JsonValue::as_f64), Some(1.25));
    }
}
