//! The `validate` and `validate_l1` workloads: the §V model-vs-simulator
//! pipeline, one app at a time on one thread.
//!
//! Each pass runs in a fresh child process (`perfbench pass`), so no
//! state the program keeps inside a process carries from one pass to
//! the next: users pay these costs once per process. The seed only
//! orders the ops of a pass; every op's output record must match the
//! reference under `reference/` bit for bit.

use crate::trace::{self, Span, Tracer};
use crate::util::{self, Rng};
use crate::{Args, Chunk, Outcome};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::time::Instant;
use xmodel::core::presets::GpuSpec;
use xmodel::obs::json::{self, JsonValue};
use xmodel::profile::fitting::{assemble_model, workload_precision};
use xmodel::profile::sim_config_for;
use xmodel::profile::validate::{validate_one, AppValidation};
use xmodel::sim::{simulate, CacheConfig, SimStats, SimWorkload, Sm};
use xmodel::workloads::locality::fit_trace_capacities;
use xmodel::workloads::Workload;

/// Simulator window of `validate_one`: warm-up, then measured cycles.
const WARMUP: u64 = 15_000;
const MEASURE: u64 = 60_000;
/// Seed `sim::simulate` uses.
const SIM_SEED: u64 = 42;
/// L1 sizes of the cached-Fermi study (§VI).
const L1_KIB: [u64; 2] = [16, 48];
/// Reference capacities `assemble_model` fits locality over.
const FIT_CAPACITIES: [u64; 3] = [8 * 1024, 16 * 1024, 48 * 1024];

const REF_VALIDATE: &str = include_str!("../reference/validate.jsonl");
const REF_VALIDATE_L1: &str = include_str!("../reference/validate_l1.jsonl");

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// 12 apps × K40, GTX570, GTX750Ti, cacheless: `validate_one`.
    Validate,
    /// 12 apps on the GTX570 with a 16 and a 48 KiB L1.
    ValidateL1,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Validate => "validate",
            Kind::ValidateL1 => "validate_l1",
        }
    }

    fn parse(name: &str) -> Option<Kind> {
        match name {
            "validate" => Some(Kind::Validate),
            "validate_l1" => Some(Kind::ValidateL1),
            _ => None,
        }
    }

    fn reference(self) -> &'static str {
        match self {
            Kind::Validate => REF_VALIDATE,
            Kind::ValidateL1 => REF_VALIDATE_L1,
        }
    }
}

fn gpus() -> [(&'static str, GpuSpec); 3] {
    [
        ("kepler", GpuSpec::kepler_k40()),
        ("fermi", GpuSpec::fermi_gtx570()),
        ("maxwell", GpuSpec::maxwell_gtx750ti()),
    ]
}

/// One op: an app on a GPU with an L1 size (0 = cacheless).
#[derive(Clone, Copy, Debug)]
struct OpSpec {
    gpu: usize,
    app: usize,
    l1_kib: u64,
}

impl OpSpec {
    fn key(&self) -> String {
        format!(
            "{}/{}/l1={}",
            gpus()[self.gpu].0,
            crate::APPS[self.app],
            self.l1_kib
        )
    }
}

/// Every op of one pass, in canonical order.
fn op_specs(kind: Kind) -> Vec<OpSpec> {
    let mut ops = Vec::new();
    match kind {
        Kind::Validate => {
            for gpu in 0..3 {
                for app in 0..crate::APPS.len() {
                    ops.push(OpSpec {
                        gpu,
                        app,
                        l1_kib: 0,
                    });
                }
            }
        }
        Kind::ValidateL1 => {
            for app in 0..crate::APPS.len() {
                for l1_kib in L1_KIB {
                    ops.push(OpSpec {
                        gpu: 1,
                        app,
                        l1_kib,
                    });
                }
            }
        }
    }
    ops
}

/// The ops of pass `pass`, in the order seed `seed` gives them.
fn pass_order(kind: Kind, seed: u64, pass: u64) -> Vec<OpSpec> {
    let mut ops = op_specs(kind);
    Rng::new(seed, pass).shuffle(&mut ops);
    ops
}

/// Share of a pass's ops whose locality fit repeats one made earlier in
/// the pass (same trace, same reference capacities).
fn repeated_fit_share(order: &[OpSpec]) -> f64 {
    let fits: Vec<usize> = order
        .iter()
        .filter(|op| op.l1_kib > 0)
        .map(|op| op.app)
        .collect();
    let repeats = (0..fits.len())
        .filter(|&i| fits[..i].contains(&fits[i]))
        .count();
    util::ratio(repeats as f64, order.len() as f64)
}

/// The op's output record as one canonical JSON line. Floats print as
/// shortest round-trip decimals, so equal text means equal bits.
fn record_json(key: &str, v: &AppValidation) -> String {
    let f = |x: f64| format!("{x}");
    format!(
        "{{\"key\":\"{key}\",\"name\":\"{}\",\"predicted_cs\":{},\"measured_cs\":{},\"predicted_ms\":{},\"measured_ms\":{},\"predicted_k\":{},\"measured_k\":{},\"n\":{},\"degraded\":{}}}",
        v.name,
        f(v.predicted_cs),
        f(v.measured_cs),
        f(v.predicted_ms),
        f(v.measured_ms),
        f(v.predicted_k),
        f(v.measured_k),
        f(v.n),
        v.degraded
            .as_ref()
            .map_or("null".to_string(), |d| format!("\"{d}\"")),
    )
}

/// Run one op. Untraced `validate` calls `validate_one` itself; every
/// other case makes the calls it is made of, in its order, with a span
/// around each when tracing.
fn run_op(
    kind: Kind,
    spec: &GpuSpec,
    w: &Workload,
    l1_kib: u64,
    tr: &mut Tracer,
) -> Result<(AppValidation, Option<SimStats>), String> {
    if kind == Kind::Validate && !tr.on {
        return validate_one(spec, w)
            .map(|v| (v, None))
            .map_err(|e| e.to_string());
    }
    let model = tr.span("fitting.assemble", || {
        assemble_model(spec, w, l1_kib * 1024)
    });
    let resolved = tr
        .span("degrade.resolve", || model.resolve_operating_point())
        .map_err(|e| e.to_string())?;
    let cfg = tr.span("profile.config", || {
        let mut cfg = sim_config_for(spec, workload_precision(w));
        cfg.request_bytes = 128.0 * w.coalesce;
        if l1_kib > 0 {
            // The L1 `xmodel sim --l1` configures.
            cfg.l1 = Some(CacheConfig {
                capacity_bytes: l1_kib * 1024,
                line_bytes: 128,
                ways: 8,
                hit_latency: 28,
                mshrs: 64,
            });
        }
        cfg
    });
    let wl = SimWorkload {
        trace: w.trace,
        ops_per_request: model.workload.z,
        ilp: model.workload.e,
        warps: model.workload.n as u32,
    };
    let stats = if tr.on {
        // `Sm::run(w, 0)` then `Sm::run(0, m)` steps exactly as
        // `Sm::run(w, m)` does, so the split keeps the output.
        let mut sm = tr.span("sm.setup", || Sm::new(&cfg, &wl, SIM_SEED));
        tr.span("sm.warmup", || {
            sm.run(WARMUP, 0);
        });
        tr.span("sm.measure", || {
            sm.run(0, MEASURE);
        });
        sm.stats().clone()
    } else {
        simulate(&cfg, &wl, WARMUP, MEASURE)
    };
    let op = resolved.point;
    let record = AppValidation {
        name: w.name.to_string(),
        predicted_cs: op.cs_throughput,
        measured_cs: stats.cs_throughput(),
        predicted_ms: op.ms_throughput,
        measured_ms: stats.ms_throughput(),
        predicted_k: op.k,
        measured_k: stats.avg_k(),
        n: model.workload.n,
        degraded: resolved
            .degradation
            .is_degraded()
            .then(|| resolved.degradation.as_str().to_string()),
    };
    Ok((record, Some(stats)))
}

fn one_line(text: &str) -> String {
    text.replace(['\t', '\n', '\r'], " ")
}

/// Child process of one pass: report `ready` once the inputs are
/// built, run every op, then report op records, spans and `VmHWM`.
pub fn pass_main(flags: &BTreeMap<String, String>) -> i32 {
    let parsed = (|| -> Result<(Kind, u64, u64, bool), String> {
        let kind = Kind::parse(crate::get(flags, "workload")?).ok_or("bad --workload")?;
        Ok((
            kind,
            crate::parse(flags, "seed")?,
            crate::parse(flags, "pass")?,
            crate::get(flags, "trace")? == "1",
        ))
    })();
    let (kind, seed, pass, trace) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench pass: {e}");
            return 2;
        }
    };
    let suite = Workload::suite();
    let gpus = gpus();
    let order = pass_order(kind, seed, pass);
    let mut tr = Tracer::new(trace);
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    if writeln!(lock, "ready").and_then(|()| lock.flush()).is_err() {
        return 1;
    }
    let mut report = String::new();
    for (i, op) in order.iter().enumerate() {
        let (spec, w) = (&gpus[op.gpu].1, &suite[op.app]);
        tr.op = i as u64;
        let start = Instant::now();
        tr.begin("op");
        let result = run_op(kind, spec, w, op.l1_kib, &mut tr);
        tr.end();
        let wall_ns = start.elapsed().as_nanos();
        if trace && op.l1_kib > 0 {
            // The fit `assemble_model` makes internally, timed on its
            // own outside the op.
            tr.span("locality.fit", || {
                std::hint::black_box(fit_trace_capacities(&w.trace, &FIT_CAPACITIES));
            });
        }
        match result {
            Ok((v, stats)) => {
                let (hit, stalls) = stats
                    .filter(|_| op.l1_kib > 0)
                    .map_or((-1.0, -1.0), |s| (s.hit_rate(), s.mshr_stalls as f64));
                report.push_str(&format!(
                    "op\t{i}\t{wall_ns}\t{hit}\t{stalls}\t{}\n",
                    record_json(&op.key(), &v)
                ));
            }
            Err(e) => report.push_str(&format!("err\t{i}\t{wall_ns}\t{}\n", one_line(&e))),
        }
    }
    for s in &tr.spans {
        report.push_str(&format!("span\t{}\n", s.to_tsv()));
    }
    report.push_str(&format!(
        "rss\t{}\n",
        util::vm_hwm_mb("self").unwrap_or(0.0)
    ));
    match lock
        .write_all(report.as_bytes())
        .and_then(|()| lock.flush())
    {
        Ok(()) => 0,
        Err(_) => 1,
    }
}

/// What one phase (a sequence of passes) observed.
#[derive(Default)]
struct Phase {
    out: Outcome,
    /// One chunk per pass: its op latencies and its wall time from spawn
    /// to exit.
    chunks: Vec<Chunk>,
    setup_s: Vec<f64>,
    rss_mb: Vec<f64>,
    accuracy: Vec<f64>,
    ms_share: BTreeMap<String, Vec<f64>>,
    l1_hit: Vec<f64>,
    mshr_stalls: Vec<f64>,
    repeat_share: Vec<f64>,
    spans: Vec<Span>,
}

fn parse_reference(kind: Kind) -> Result<BTreeMap<String, String>, String> {
    let mut map = BTreeMap::new();
    for line in kind.reference().lines().filter(|l| !l.trim().is_empty()) {
        let doc = json::parse(line).map_err(|e| format!("reference: {e}"))?;
        let key = doc
            .get("key")
            .and_then(JsonValue::as_str)
            .ok_or("reference line without key")?;
        map.insert(key.to_string(), line.to_string());
    }
    if map.len() != op_specs(kind).len() {
        return Err(format!(
            "reference/{}.jsonl has {} records, expected {}",
            kind.name(),
            map.len(),
            op_specs(kind).len()
        ));
    }
    Ok(map)
}

fn field(doc: &JsonValue, key: &str) -> f64 {
    doc.get(key).and_then(JsonValue::as_f64).unwrap_or(f64::NAN)
}

/// Check one op line from a pass against the reference and fold it in.
fn take_op(
    ph: &mut Phase,
    order: &[OpSpec],
    reference: &BTreeMap<String, String>,
    fields: &[&str],
) -> Result<usize, String> {
    let index: usize = fields[1].parse().map_err(|_| "bad op index")?;
    let op = order.get(index).ok_or("op index out of range")?;
    let wall_ns: f64 = fields[2].parse().map_err(|_| "bad op time")?;
    if let Some(chunk) = ph.chunks.last_mut() {
        chunk.op_ms.push(wall_ns / 1e6);
    }
    if fields[0] == "err" {
        ph.out
            .fail(format!("{}: {}", op.key(), fields.get(3).unwrap_or(&"")));
        return Ok(index);
    }
    let &[_, _, _, hit, stalls, record] = fields else {
        return Err(format!("bad op line: {}", fields.join("\t")));
    };
    if reference.get(&op.key()).map(String::as_str) != Some(record) {
        ph.out.fail(format!(
            "{}: output differs from reference: {record}",
            op.key()
        ));
        return Ok(index);
    }
    let doc = json::parse(record).map_err(|e| format!("record: {e}"))?;
    let v = AppValidation {
        name: crate::APPS[op.app].to_string(),
        predicted_cs: field(&doc, "predicted_cs"),
        measured_cs: field(&doc, "measured_cs"),
        predicted_ms: field(&doc, "predicted_ms"),
        measured_ms: field(&doc, "measured_ms"),
        predicted_k: field(&doc, "predicted_k"),
        measured_k: field(&doc, "measured_k"),
        n: field(&doc, "n"),
        degraded: None,
    };
    ph.accuracy.push(v.accuracy());
    ph.ms_share
        .entry(v.name.clone())
        .or_default()
        .push(util::ratio(v.measured_k, v.n));
    if let (Ok(hit), Ok(stalls)) = (hit.parse::<f64>(), stalls.parse::<f64>()) {
        if hit >= 0.0 {
            ph.l1_hit.push(hit);
            ph.mshr_stalls.push(stalls);
        }
    }
    Ok(index)
}

/// Run whole passes until `seconds` have elapsed (at least one).
/// Run whole passes until `--seconds` have elapsed: `[untraced, traced]`.
/// With `--trace 1` the passes alternate between the two, so drift in
/// host speed falls on both alike.
fn phases(kind: Kind, args: &Args) -> Result<[Phase; 2], String> {
    let reference = parse_reference(kind)?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut phases = [Phase::default(), Phase::default()];
    let min_passes = if args.trace { 2 } else { 1 };
    let started = Instant::now();
    let mut pass = 0u64;
    while pass < min_passes || started.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && pass % 2 == 1;
        let ph = &mut phases[usize::from(traced)];
        let order = pass_order(kind, args.seed, pass);
        ph.repeat_share.push(repeated_fit_share(&order));
        ph.out.attempted += order.len() as u64;
        ph.chunks.push(Chunk::default());
        let spawned = Instant::now();
        let offset_ns = started.elapsed().as_nanos() as u64;
        let mut child = Command::new(&exe)
            .args(["pass", "--workload", kind.name()])
            .args([
                "--seed",
                &args.seed.to_string(),
                "--pass",
                &pass.to_string(),
            ])
            .args(["--trace", if traced { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn pass: {e}"))?;
        let stdout = child.stdout.take();
        let mut seen = vec![false; order.len()];
        let read = (|| -> Result<(), String> {
            for line in BufReader::new(stdout.ok_or("pass has no stdout")?).lines() {
                let line = line.map_err(|e| format!("read pass output: {e}"))?;
                let fields: Vec<&str> = line.splitn(6, '\t').collect();
                match fields[0] {
                    "ready" => ph.setup_s.push(spawned.elapsed().as_secs_f64()),
                    "op" | "err" if fields.len() >= 4 => {
                        let index = take_op(ph, &order, &reference, &fields)?;
                        seen[index] = true;
                    }
                    "span" => {
                        let mut s = Span::from_tsv(&line[5..]).ok_or("bad span line")?;
                        s.id += pass << 32;
                        s.parent = s.parent.map(|p| p + (pass << 32));
                        s.op += pass << 32;
                        s.start_ns += offset_ns;
                        s.end_ns += offset_ns;
                        ph.spans.push(s);
                    }
                    "rss" => ph
                        .rss_mb
                        .push(fields.get(1).and_then(|v| v.parse().ok()).unwrap_or(0.0)),
                    _ => return Err(format!("unexpected pass output: {line}")),
                }
            }
            Ok(())
        })();
        if read.is_err() {
            let _ = child.kill();
        }
        let status = child.wait().map_err(|e| format!("wait pass: {e}"));
        read?;
        let status = status?;
        if let Some(chunk) = ph.chunks.last_mut() {
            chunk.wall_s = spawned.elapsed().as_secs_f64();
        }
        let missing = seen.iter().filter(|s| !**s).count();
        if !status.success() || missing > 0 {
            ph.out.failed += missing as u64;
            ph.out.errors.push(format!(
                "pass {pass} exited with {status}; {missing} op(s) unreported"
            ));
        }
        pass += 1;
    }
    Ok(phases)
}

pub fn run(kind: Kind, args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let [a, b] = phases(kind, args)?;
    out.absorb_counts(&a.out);
    out.absorb_counts(&b.out);
    crate::latency_metrics(&mut out, &a.chunks);
    if !args.trace {
        out.set("setup_s", util::median(&a.setup_s));
        out.set("peak_rss_mb", util::median(&a.rss_mb));
        out.set("mean_accuracy", 100.0 * util::mean(&a.accuracy));
        return Ok(out);
    }
    let f = trace::fold(&b.spans);
    let ops = f.ops.len().max(1) as f64;
    for (metric, span) in [
        ("sm.setup_ms", "sm.setup"),
        ("sm.warmup_ms", "sm.warmup"),
        ("sm.measure_ms", "sm.measure"),
        ("fitting.assemble_ms", "fitting.assemble"),
        ("degrade.resolve_ms", "degrade.resolve"),
        ("locality.fit_ms", "locality.fit"),
    ] {
        out.set(metric, f.self_ms(span) / ops);
    }
    let sim_s = (f.total_ms("sm.warmup") + f.total_ms("sm.measure")) / 1e3;
    out.set(
        "sm.cycles_per_s",
        util::ratio(f.ops.len() as f64 * (WARMUP + MEASURE) as f64, sim_s),
    );
    let mut per_app: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (app, v) in a.ms_share.iter().chain(&b.ms_share) {
        per_app.entry(app).or_default().extend(v);
    }
    for (app, v) in &per_app {
        out.set(&format!("sm.ms_share.{app}"), util::mean(v));
    }
    let shares: Vec<f64> = per_app.values().flatten().copied().collect();
    out.set("sm.ms_share", util::mean(&shares));
    let hits: Vec<f64> = a.l1_hit.iter().chain(&b.l1_hit).copied().collect();
    let stalls: Vec<f64> = a
        .mshr_stalls
        .iter()
        .chain(&b.mshr_stalls)
        .copied()
        .collect();
    out.set("cache.l1_hit_rate", util::mean(&hits));
    out.set("cache.mshr_stalls", util::mean(&stalls));
    out.set("fitting.repeat_share", util::mean(&a.repeat_share));
    let (gap_ms, gap_share) = f.unattributed();
    out.set("unattributed_ms", gap_ms);
    out.set("unattributed_share", gap_share);
    out.set(
        "trace_overhead",
        crate::trace_overhead(&a.chunks, &b.chunks),
    );
    eprintln!(
        "perfbench: {}: traced {} ops; per-op ms: assemble {:.3}, resolve {:.3}, sm.setup {:.3}, warmup {:.3}, measure {:.3}, fit {:.3}, unattributed {:.3}",
        kind.name(),
        f.ops.len(),
        out.metrics["fitting.assemble_ms"],
        out.metrics["degrade.resolve_ms"],
        out.metrics["sm.setup_ms"],
        out.metrics["sm.warmup_ms"],
        out.metrics["sm.measure_ms"],
        out.metrics["locality.fit_ms"],
        gap_ms
    );
    trace::write_jsonl(&crate::spans_path(kind.name()), &b.spans);
    Ok(out)
}

/// Rewrite `reference/*.jsonl` from the code as it stands: one record
/// per op, in canonical order.
pub fn refgen() -> i32 {
    let suite = Workload::suite();
    let gpus = gpus();
    for kind in [Kind::Validate, Kind::ValidateL1] {
        let mut text = String::new();
        for op in op_specs(kind) {
            let mut tr = Tracer::new(false);
            match run_op(kind, &gpus[op.gpu].1, &suite[op.app], op.l1_kib, &mut tr) {
                Ok((v, _)) => text.push_str(&format!("{}\n", record_json(&op.key(), &v))),
                Err(e) => {
                    eprintln!("perfbench refgen: {}: {e}", op.key());
                    return 1;
                }
            }
        }
        let path = format!(
            "{}/reference/{}.jsonl",
            env!("CARGO_MANIFEST_DIR"),
            kind.name()
        );
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("perfbench refgen: {path}: {e}");
            return 1;
        }
        eprintln!("perfbench refgen: wrote {path}");
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmodel::workloads::WorkloadId;

    #[test]
    fn split_run_reproduces_validate_one_bit_for_bit() {
        let spec = GpuSpec::kepler_k40();
        for id in [WorkloadId::Nw, WorkloadId::Gesummv] {
            let w = Workload::get(id);
            let mut tr = Tracer::new(true);
            let (split, _) = run_op(Kind::Validate, &spec, &w, 0, &mut tr).unwrap();
            assert_eq!(split, validate_one(&spec, &w).unwrap());
            let names: Vec<&str> = tr.spans.iter().map(|s| s.name.as_str()).collect();
            assert_eq!(
                names,
                [
                    "fitting.assemble",
                    "degrade.resolve",
                    "profile.config",
                    "sm.setup",
                    "sm.warmup",
                    "sm.measure"
                ]
            );
        }
    }

    #[test]
    fn traced_and_untraced_l1_ops_agree_with_the_reference() {
        let reference = parse_reference(Kind::ValidateL1).unwrap();
        let w = Workload::get(WorkloadId::Nw);
        let spec = GpuSpec::fermi_gtx570();
        let key = OpSpec {
            gpu: 1,
            app: 7,
            l1_kib: 16,
        }
        .key();
        for traced in [false, true] {
            let (v, stats) =
                run_op(Kind::ValidateL1, &spec, &w, 16, &mut Tracer::new(traced)).unwrap();
            assert_eq!(record_json(&key, &v), reference[&key]);
            assert!(stats.is_some());
        }
    }

    #[test]
    fn seed_orders_the_ops_and_nothing_else() {
        for kind in [Kind::Validate, Kind::ValidateL1] {
            let keys = |seed, pass| {
                let mut k: Vec<String> = pass_order(kind, seed, pass)
                    .iter()
                    .map(OpSpec::key)
                    .collect();
                k.sort();
                k
            };
            assert_eq!(keys(1, 0), keys(2, 3));
            let order = |seed| {
                pass_order(kind, seed, 0)
                    .iter()
                    .map(OpSpec::key)
                    .collect::<Vec<_>>()
            };
            assert_ne!(order(1), order(2));
            assert_eq!(parse_reference(kind).unwrap().len(), op_specs(kind).len());
        }
        assert_eq!(repeated_fit_share(&pass_order(Kind::ValidateL1, 5, 0)), 0.5);
        assert_eq!(repeated_fit_share(&pass_order(Kind::Validate, 5, 0)), 0.0);
    }
}
