//! The `sweep` workload: `xmodel sweep` run as a child process over a
//! seeded design grid, one call per op, as users run it (no `--jobs`,
//! `XMODEL_JOBS` unset).
//!
//! The grid is 3 GPUs × {no L1, 16 KiB, 48 KiB} × seeded `Z`, with
//! seeded locality `α ∈ [2,6)`, `β ∈ [1024,4096)` on the cached entries:
//! the cacheless third takes the USL single-crossing screen and the
//! cached two thirds the full descent. Every call's output is checked
//! off the clock: exit code, schema, row count, and a seeded sample of
//! rows against the dense solver on the model rebuilt from the header.
//!
//! The traced half replays each call in-process with the calls the CLI
//! makes (`CurveTable::build`, then `sweep::run` over `solve_fast`,
//! then the JSON text) and times a 1-point call for process start-up.

use crate::trace::{self, Tracer};
use crate::util::{self, Rng};
use crate::{Args, Chunk, Outcome};
use std::path::Path;
use std::time::Instant;
use xmodel::core::cache::CacheParams;
use xmodel::core::fastpath::{solve_fast, CurveTable};
use xmodel::core::params::{MachineParams, WorkloadParams};
use xmodel::core::presets::{GpuSpec, Precision};
use xmodel::core::solver::{Intersection, DEFAULT_SAMPLES};
use xmodel::core::stability::Stability;
use xmodel::core::XModel;
use xmodel::obs::json::{self, JsonValue};

const N_MAX: f64 = 64.0;
const POINTS: usize = 2048;
/// Seeded `Z` values per (GPU, cache) cell of the grid.
const Z_PER_CELL: usize = 8;
/// Rows per call checked against the dense solver.
const CHECK_ROWS: usize = 4;
/// 1-point calls timed before the measured phase (`setup_s`).
const SETUP_CALLS: usize = 5;
/// `--l1-latency` default of the CLI.
const L1_LATENCY: f64 = 30.0;
const SCHEMA: &str = "xmodel-sweep/1";

/// One grid entry: the CLI flags of one call.
#[derive(Clone, Debug)]
struct Entry {
    gpu: &'static str,
    z: f64,
    /// `(KiB, α, β)` when the entry models an L1.
    cache: Option<(u64, f64, f64)>,
}

impl Entry {
    fn args(&self, points: usize) -> Vec<String> {
        let mut args: Vec<String> = ["sweep", "--gpu", self.gpu, "--z"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        args.push(format!("{}", self.z));
        args.extend(["--n-max".to_string(), format!("{N_MAX}")]);
        args.extend(["--points".to_string(), points.to_string()]);
        if let Some((kib, alpha, beta)) = self.cache {
            args.extend(["--l1".to_string(), kib.to_string()]);
            args.extend(["--alpha".to_string(), format!("{alpha}")]);
            args.extend(["--beta".to_string(), format!("{beta}")]);
        }
        args
    }

    /// The model the CLI builds from these flags (`n = n_max`).
    fn model(&self) -> Result<XModel, String> {
        model(self.gpu, self.z, N_MAX, self.cache)
    }
}

/// The model the CLI and the daemon build from a preset name, `Z`, `n`
/// and optional `(L1 KiB, α, β)`, with their defaults `E = 1` and a
/// 30-cycle L1.
pub fn model(gpu: &str, z: f64, n: f64, cache: Option<(u64, f64, f64)>) -> Result<XModel, String> {
    let spec = match gpu {
        "fermi" => GpuSpec::fermi_gtx570(),
        "kepler" => GpuSpec::kepler_k40(),
        "maxwell" => GpuSpec::maxwell_gtx750ti(),
        other => return Err(format!("unknown gpu {other}")),
    };
    let machine = spec.machine_params(Precision::Single);
    let workload = WorkloadParams::try_new(z, 1.0, n).map_err(|e| e.to_string())?;
    Ok(match cache {
        Some((kib, alpha, beta)) => {
            let cache = CacheParams::try_new(kib as f64 * 1024.0, L1_LATENCY, alpha, beta)
                .map_err(|e| e.to_string())?;
            XModel::with_cache(machine, workload, cache)
        }
        None => XModel::new(machine, workload),
    })
}

/// The seeded grid. Within each (GPU, cache) cell, `Z`, `α` and `β` are
/// drawn by Latin hypercube: each of `Z_PER_CELL` equal strata of each
/// range holds one value. Seeds then move values, not the mix of cheap
/// and costly calls, so one pass costs about the same for every seed.
fn grid(seed: u64) -> Vec<Entry> {
    let mut rng = Rng::new(seed, 0x5EED);
    let mut grid = Vec::new();
    let strata = Z_PER_CELL as f64;
    for gpu in ["fermi", "kepler", "maxwell"] {
        for kib in [0u64, 16, 48] {
            let mut alpha_strata: Vec<usize> = (0..Z_PER_CELL).collect();
            let mut beta_strata = alpha_strata.clone();
            rng.shuffle(&mut alpha_strata);
            rng.shuffle(&mut beta_strata);
            for k in 0..Z_PER_CELL {
                let mut draw = |stratum: usize, lo: f64, hi: f64| {
                    lo + (hi - lo) * (stratum as f64 + rng.unit()) / strata
                };
                let z = draw(k, 2.0, 40.0);
                let cache = (kib > 0).then(|| {
                    let alpha = draw(alpha_strata[k], 2.0, 6.0);
                    (kib, alpha, draw(beta_strata[k], 1024.0, 4096.0))
                });
                grid.push(Entry { gpu, z, cache });
            }
        }
    }
    grid
}

/// One finished CLI call.
struct Call {
    wall_ns: u64,
    stdout: Vec<u8>,
}

fn call(xmodel: &Path, entry: &Entry, points: usize) -> Result<Call, String> {
    let mut cmd = util::xmodel_command(xmodel);
    cmd.args(entry.args(points));
    let start = Instant::now();
    let out = cmd
        .output()
        .map_err(|e| format!("spawn xmodel sweep: {e}"))?;
    let wall_ns = start.elapsed().as_nanos() as u64;
    if !out.status.success() {
        return Err(format!(
            "xmodel {} exited with {}: {}",
            entry.args(points).join(" "),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(Call {
        wall_ns,
        stdout: out.stdout,
    })
}

fn stability_str(s: Stability) -> &'static str {
    match s {
        Stability::Stable => "stable",
        Stability::Unstable => "unstable",
        Stability::Marginal => "marginal",
    }
}

fn num_eq(v: Option<&JsonValue>, x: f64) -> bool {
    match v {
        Some(JsonValue::Number(n)) => n.to_bits() == x.to_bits(),
        Some(JsonValue::Null) => !x.is_finite(),
        _ => false,
    }
}

/// Does a JSON point (`k`, `x`, `ms`, `cs`, `stability`) equal `point`
/// bit for bit? No point reads as a missing or null `k`.
pub fn point_matches(v: &JsonValue, point: Option<Intersection>) -> bool {
    match point {
        Some(p) => {
            num_eq(v.get("k"), p.k)
                && num_eq(v.get("x"), p.x)
                && num_eq(v.get("ms"), p.ms_throughput)
                && num_eq(v.get("cs"), p.cs_throughput)
                && v.get("stability").and_then(JsonValue::as_str)
                    == Some(stability_str(p.stability))
        }
        None => matches!(v.get("k"), Some(JsonValue::Null) | None),
    }
}

/// Does an output row equal `(n, roots, point)` bit for bit?
pub fn row_matches(row: &JsonValue, n: f64, roots: usize, point: Option<Intersection>) -> bool {
    num_eq(row.get("n"), n)
        && row.get("roots").and_then(JsonValue::as_f64) == Some(roots as f64)
        && point_matches(row, point)
}

fn get_f64(doc: &JsonValue, path: &[&str]) -> Result<f64, String> {
    let mut v = doc;
    for key in path {
        v = v
            .get(key)
            .ok_or_else(|| format!("output has no `{}`", path.join(".")))?;
    }
    v.as_f64()
        .ok_or_else(|| format!("`{}` is not a number", path.join(".")))
}

/// The model the output header describes (`n = n_max`).
fn header_model(doc: &JsonValue) -> Result<XModel, String> {
    let e = |err: xmodel::core::ModelError| err.to_string();
    let machine = MachineParams::try_new(
        get_f64(doc, &["machine", "m"])?,
        get_f64(doc, &["machine", "r"])?,
        get_f64(doc, &["machine", "l"])?,
    )
    .map_err(e)?;
    let workload = WorkloadParams::try_new(
        get_f64(doc, &["workload", "z"])?,
        get_f64(doc, &["workload", "e"])?,
        get_f64(doc, &["workload", "n_max"])?,
    )
    .map_err(e)?;
    Ok(match doc.get("cache") {
        Some(JsonValue::Null) | None => XModel::new(machine, workload),
        Some(_) => XModel::with_cache(
            machine,
            workload,
            CacheParams::try_new(
                get_f64(doc, &["cache", "s_bytes"])?,
                get_f64(doc, &["cache", "l_cache"])?,
                get_f64(doc, &["cache", "alpha"])?,
                get_f64(doc, &["cache", "beta"])?,
            )
            .map_err(e)?,
        ),
    })
}

fn parse_row(line: &str) -> Result<JsonValue, String> {
    json::parse(line).map_err(|e| format!("row is not JSON: {e}: {line}"))
}

/// Check one call's output; returns its row lines. `accuracy` collects
/// `1 − |cs − cs_dense| / cs_dense` of the checked rows.
///
/// The CLI prints one row per line. Rows are parsed one line at a time
/// and the header as the document without them, because
/// `obs::json::parse` takes time quadratic in the length of a document
/// with many strings.
fn check<'a>(
    entry: &Entry,
    stdout: &'a [u8],
    points: usize,
    rng: &mut Rng,
    accuracy: &mut Vec<f64>,
) -> Result<Vec<&'a str>, String> {
    let text = std::str::from_utf8(stdout).map_err(|_| "output is not UTF-8")?;
    let (mut head, mut rows) = (String::new(), Vec::with_capacity(points));
    for line in text.lines() {
        let t = line.trim();
        if t.starts_with("{\"n\"") {
            rows.push(t.strip_suffix(',').unwrap_or(t));
        } else {
            head.push_str(t);
        }
    }
    let doc = json::parse(&head).map_err(|e| format!("output is not JSON: {e}"))?;
    if doc.get("schema").and_then(JsonValue::as_str) != Some(SCHEMA) {
        return Err(format!("schema is not {SCHEMA}"));
    }
    if !matches!(doc.get("rows"), Some(JsonValue::Array(_))) {
        return Err("output has no rows".to_string());
    }
    if rows.len() != points || get_f64(&doc, &["points"])? != points as f64 {
        return Err(format!("{} rows, expected {points}", rows.len()));
    }
    let base = header_model(&doc)?;
    if base != entry.model()? {
        return Err("header describes a different model than the flags".to_string());
    }
    let samples = get_f64(&doc, &["samples"])? as usize;
    for _ in 0..CHECK_ROWS {
        let row = parse_row(rows[rng.below(rows.len())])?;
        let row = &row;
        let n = row
            .get("n")
            .and_then(JsonValue::as_f64)
            .ok_or("row without n")?;
        let mut model = base;
        model.workload.n = n;
        let eq = model.solve_with(samples);
        let point = eq.operating_point();
        if !row_matches(row, n, eq.points().len(), point) {
            return Err(format!("row n={n} differs from the dense solver"));
        }
        if let Some(p) = point.filter(|p| p.cs_throughput > 0.0) {
            let cs = row
                .get("cs")
                .and_then(JsonValue::as_f64)
                .unwrap_or(f64::NAN);
            accuracy.push(1.0 - (cs - p.cs_throughput).abs() / p.cs_throughput);
        }
    }
    Ok(rows)
}

/// The CLI's JSON text for a sweep (`cmd_sweep`), rebuilt in-process to
/// time the formatting the CLI does after solving.
fn cli_text(base: &XModel, rows: &[(f64, usize, Option<Intersection>)]) -> String {
    let j = util::jnum;
    let mut out = String::new();
    out.push_str(&format!("{{\n  \"schema\": \"{SCHEMA}\",\n"));
    out.push_str(&format!(
        "  \"machine\": {{\"m\": {}, \"r\": {}, \"l\": {}}},\n",
        j(base.machine.m),
        j(base.machine.r),
        j(base.machine.l)
    ));
    out.push_str(&format!(
        "  \"workload\": {{\"z\": {}, \"e\": {}, \"n_max\": {}}},\n",
        j(base.workload.z),
        j(base.workload.e),
        j(N_MAX)
    ));
    match base.cache {
        Some(c) => out.push_str(&format!(
            "  \"cache\": {{\"s_bytes\": {}, \"l_cache\": {}, \"alpha\": {}, \"beta\": {}}},\n",
            j(c.s_cache),
            j(c.l_cache),
            j(c.alpha),
            j(c.beta)
        )),
        None => out.push_str("  \"cache\": null,\n"),
    }
    out.push_str(&format!(
        "  \"points\": {},\n  \"samples\": {DEFAULT_SAMPLES},\n  \"rows\": [\n",
        rows.len()
    ));
    for (i, (n, roots, op)) in rows.iter().enumerate() {
        let body = match op {
            Some(p) => format!(
                "\"k\": {}, \"x\": {}, \"ms\": {}, \"cs\": {}, \"stability\": \"{}\"",
                j(p.k),
                j(p.x),
                j(p.ms_throughput),
                j(p.cs_throughput),
                stability_str(p.stability)
            ),
            None => "\"k\": null, \"x\": null, \"ms\": null, \"cs\": null, \"stability\": null"
                .to_string(),
        };
        let sep = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"n\": {}, \"roots\": {roots}, {body}}}{sep}\n",
            j(*n)
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Traced-half observations beyond the spans.
#[derive(Default)]
struct Replay {
    /// Cells with more than one root.
    multi_root: usize,
    /// Calls whose table passes the USL single-crossing screen.
    usl: usize,
    /// Bytes each call printed.
    out_bytes: Vec<f64>,
}

/// Replay one call in-process, recording spans as children of `op_id`,
/// and check its rows against the CLI's.
fn replay(
    xmodel: &Path,
    entry: &Entry,
    cli_rows: &[&str],
    op_id: u64,
    tr: &mut Tracer,
    rp: &mut Replay,
) -> Result<(), String> {
    let one_start = tr.now_ns();
    call(xmodel, entry, 1)?;
    let one_end = tr.now_ns();
    let base = entry.model()?;
    let t0 = tr.now_ns();
    let table = CurveTable::build(&base, N_MAX);
    let t1 = tr.now_ns();
    tr.record(Some(op_id), "fastpath.build", t0, t1);
    // The 1-point call builds the same table; the rest is start-up.
    let build_ns = t1 - t0;
    tr.record(
        Some(op_id),
        "cli.startup",
        one_start,
        one_end.saturating_sub(build_ns).max(one_start),
    );
    rp.usl += usize::from(table.usl_single_crossing());
    let ns: Vec<f64> = (1..=POINTS)
        .map(|i| N_MAX * i as f64 / POINTS as f64)
        .collect();
    let jobs = util::cores();
    let epoch = tr.epoch;
    let run_start = tr.now_ns();
    let cells = xmodel::core::sweep::run(jobs, &ns, |_, &n| {
        let start = epoch.elapsed().as_nanos() as u64;
        let mut m = base;
        m.workload.n = n;
        let eq = solve_fast(&m, &table, DEFAULT_SAMPLES);
        let row = (n, eq.points().len(), eq.operating_point());
        (row, start, epoch.elapsed().as_nanos() as u64)
    });
    let run_end = tr.now_ns();
    let run_id = tr.record(Some(op_id), "sweep.run", run_start, run_end);
    for &(_, start, end) in &cells {
        tr.record(Some(run_id), "fastpath.cell", start, end);
    }
    let rows: Vec<(f64, usize, Option<Intersection>)> = cells.iter().map(|c| c.0).collect();
    rp.multi_root += rows.iter().filter(|r| r.1 > 1).count();
    let t0 = tr.now_ns();
    std::hint::black_box(cli_text(&base, &rows));
    tr.record(Some(op_id), "cli.write", t0, tr.now_ns());
    let same = cli_rows.len() == rows.len()
        && cli_rows
            .iter()
            .zip(&rows)
            .all(|(c, &(n, roots, p))| parse_row(c).is_ok_and(|c| row_matches(&c, n, roots, p)));
    if !same {
        return Err(format!(
            "in-process replay differs from the CLI for {entry:?}"
        ));
    }
    Ok(())
}

/// What one phase observed.
#[derive(Default)]
struct Phase {
    out: Outcome,
    /// One chunk per pass over the grid: call latencies and their sum.
    chunks: Vec<Chunk>,
    accuracy: Vec<f64>,
    spans: Vec<trace::Span>,
    replay: Replay,
}

/// Run whole passes over the grid until `--seconds` have elapsed:
/// `[untraced, traced]`. With `--trace 1` the passes alternate between
/// the two, so drift in host speed falls on both alike.
fn phases(args: &Args) -> Result<[Phase; 2], String> {
    let grid = grid(args.seed);
    let mut phases = [Phase::default(), Phase::default()];
    let mut tr = Tracer::new(false);
    let mut check_rng = Rng::new(args.seed, 0xC4EC);
    let min_passes = if args.trace { 2 } else { 1 };
    let started = Instant::now();
    let mut pass = 0u64;
    while pass < min_passes || started.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && pass % 2 == 1;
        tr.on = traced;
        let ph = &mut phases[usize::from(traced)];
        let mut order = grid.clone();
        Rng::new(args.seed, 0x100 + pass).shuffle(&mut order);
        let mut chunk = Chunk::default();
        for entry in &order {
            ph.out.attempted += 1;
            tr.op += 1;
            let op_id = tr.begin("op");
            let result = call(&args.xmodel, entry, POINTS);
            tr.end();
            let c = match result {
                Ok(c) => c,
                Err(e) => {
                    ph.out.fail(e);
                    continue;
                }
            };
            chunk.op_ms.push(c.wall_ns as f64 / 1e6);
            chunk.wall_s += c.wall_ns as f64 / 1e9;
            let checked = check(entry, &c.stdout, POINTS, &mut check_rng, &mut ph.accuracy)
                .map_err(|e| format!("{entry:?}: {e}"));
            let checked = match (checked, traced) {
                (Ok(rows), true) => {
                    ph.replay.out_bytes.push(c.stdout.len() as f64);
                    replay(&args.xmodel, entry, &rows, op_id, &mut tr, &mut ph.replay)
                }
                (other, _) => other.map(|_| ()),
            };
            if let Err(e) = checked {
                ph.out.fail(e);
            }
        }
        ph.chunks.push(chunk);
        pass += 1;
    }
    phases[1].spans = std::mem::take(&mut tr.spans);
    Ok(phases)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    if !args.trace {
        let first = &grid(args.seed)[0];
        for _ in 0..SETUP_CALLS {
            setup_s.push(call(&args.xmodel, first, 1)?.wall_ns as f64 / 1e9);
        }
    }
    let [a, b] = phases(args)?;
    out.absorb_counts(&a.out);
    out.absorb_counts(&b.out);
    crate::latency_metrics(&mut out, &a.chunks);
    if !args.trace {
        out.set("setup_s", util::median(&setup_s));
        out.set("peak_rss_mb", util::children_peak_rss_mb().unwrap_or(0.0));
        out.set("mean_accuracy", 100.0 * util::mean(&a.accuracy));
        return Ok(out);
    }
    let f = trace::fold(&b.spans);
    let ops = f.ops.len().max(1) as f64;
    let rp = &b.replay;
    let cells_us: Vec<f64> = b
        .spans
        .iter()
        .filter(|s| s.name == "fastpath.cell")
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();
    out.set("fastpath.build_ms", f.total_ms("fastpath.build") / ops);
    out.set("fastpath.usl_share", rp.usl as f64 / ops);
    out.set("fastpath.cell_p50_us", util::median(&cells_us));
    out.set("fastpath.cell_p99_us", util::quantile(&cells_us, 0.99));
    out.set(
        "fastpath.multi_root_share",
        util::ratio(rp.multi_root as f64, cells_us.len() as f64),
    );
    out.set("sweep.run_ms", f.total_ms("sweep.run") / ops);
    out.set(
        "sweep.parallel_eff",
        util::ratio(
            f.total_ms("fastpath.cell"),
            util::cores() as f64 * f.total_ms("sweep.run"),
        ),
    );
    out.set("cli.startup_ms", f.total_ms("cli.startup") / ops);
    out.set("cli.write_ms", f.total_ms("cli.write") / ops);
    out.set("cli.out_bytes", util::mean(&rp.out_bytes));
    let (gap_ms, gap_share) = f.unattributed();
    out.set("unattributed_ms", gap_ms);
    out.set("unattributed_share", gap_share);
    out.set(
        "trace_overhead",
        crate::trace_overhead(&a.chunks, &b.chunks),
    );
    eprintln!(
        "perfbench: sweep: traced {} calls; per-call ms: op {:.3} = startup {:.3} + build {:.3} + run {:.3} + write {:.3} + unattributed {:.3}; {} jobs, parallel efficiency {:.2}",
        f.ops.len(),
        util::mean(&crate::all_ms(&b.chunks)),
        out.metrics["cli.startup_ms"],
        out.metrics["fastpath.build_ms"],
        out.metrics["sweep.run_ms"],
        out.metrics["cli.write_ms"],
        gap_ms,
        util::cores(),
        out.metrics["sweep.parallel_eff"],
    );
    trace::write_jsonl(&crate::spans_path("sweep"), &b.spans);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_seeded_and_splits_cacheless_and_cached() {
        let g = grid(3);
        assert_eq!(g.len(), 3 * 3 * Z_PER_CELL);
        assert_eq!(g.iter().filter(|e| e.cache.is_none()).count(), g.len() / 3);
        assert_eq!(format!("{:?}", grid(3)), format!("{g:?}"));
        assert_ne!(format!("{:?}", grid(4)), format!("{g:?}"));
        for e in &g {
            assert!(e.model().is_ok(), "{e:?}");
        }
    }

    #[test]
    fn cli_text_round_trips_through_the_checker() {
        let entry = &grid(9)[5];
        let base = entry.model().unwrap();
        let table = CurveTable::build(&base, N_MAX);
        let rows: Vec<_> = (1..=16)
            .map(|i| {
                let mut m = base;
                m.workload.n = N_MAX * i as f64 / 16.0;
                let eq = solve_fast(&m, &table, DEFAULT_SAMPLES);
                (m.workload.n, eq.points().len(), eq.operating_point())
            })
            .collect();
        let text = cli_text(&base, &rows);
        let mut acc = Vec::new();
        let parsed = check(entry, text.as_bytes(), 16, &mut Rng::new(1, 1), &mut acc).unwrap();
        assert!(parsed.iter().zip(&rows).all(|(p, &(n, r, op))| row_matches(
            &parse_row(p).unwrap(),
            n,
            r,
            op
        )));
        assert!(acc.iter().all(|&a| a == 1.0));
    }
}
