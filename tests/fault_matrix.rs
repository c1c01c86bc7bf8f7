//! Chaos suite: fault-injection matrix across the solver → simulator →
//! observability pipeline.
//!
//! The contract under test: **every injected fault is either recovered
//! (with provenance recorded) or surfaces as a typed error — never a
//! panic, never a silent NaN.** Runs are deterministic given the fault
//! seed, so any failure here reproduces exactly.

use std::sync::{Mutex, MutexGuard, PoisonError};
use xmodel::baselines::Roofline;
use xmodel::core::degrade::{self, Degradation, DegradeForce, DEGRADE_SCHEMA};
use xmodel::core::presets::{GpuSpec, Precision};
use xmodel::core::solver::DEFAULT_SAMPLES;
use xmodel::core::XModel;
use xmodel::obs::{FaultySink, MemSink, Sink};
use xmodel::profile::arch::sim_config_for;
use xmodel::sim::{
    FaultCounters, FaultInjector, FaultSpec, IrSm, SimError, SimStats, SimWorkload, Sm, Watchdog,
};
use xmodel::workloads::microbench::stream_kernel;
use xmodel::workloads::TraceSpec;

/// Fault specs swept by the matrix: each single fault class alone, then a
/// compound spec mixing all of them.
const FAULT_SPECS: &[&str] = &[
    "",
    "spike=0.05x8",
    "drop=0.02",
    "dup=0.05",
    "throttle=500:0.3:0.25",
    "spike=0.02x4,drop=0.01,dup=0.02,throttle=1000:0.2:0.5",
];

/// The trace sink is process-wide and the degradation ladder reports
/// every degraded solve to it, so a test that reads the sink must not
/// overlap a test that degrades. Every test that installs a sink or
/// drives the ladder holds this lock for its whole body.
static TRACE_BUS: Mutex<()> = Mutex::new(());

/// Take [`TRACE_BUS`]. The lock guards no data, so a test that failed
/// while holding it leaves nothing to repair and must not fail the rest.
fn trace_bus() -> MutexGuard<'static, ()> {
    TRACE_BUS.lock().unwrap_or_else(PoisonError::into_inner)
}

fn workload() -> SimWorkload {
    SimWorkload {
        trace: TraceSpec::Stream { region_lines: 256 },
        ops_per_request: 20.0,
        ilp: 1.0,
        warps: 32,
    }
}

/// The simulator drivers the matrix runs: the parametric `Sm` on
/// [`workload`], and the IR-driven `IrSm` executing the stream kernel over
/// the same trace and warps.
#[derive(Debug, Clone, Copy)]
enum Driver {
    Parametric,
    Ir,
}

impl Driver {
    /// A watched run of 5k warm-up and 20k measured cycles, and the fault
    /// counters the injector reports after it.
    fn run(
        self,
        gpu: &GpuSpec,
        spec: &FaultSpec,
        seed: u64,
        watchdog: &Watchdog,
    ) -> (Result<SimStats, SimError>, Option<FaultCounters>) {
        let cfg = sim_config_for(gpu, Precision::Single);
        let wl = workload();
        match self {
            Driver::Parametric => {
                let mut sm = Sm::with_faults(&cfg, &wl, seed, spec);
                let stats = sm.run_watched(5_000, 20_000, watchdog).cloned();
                (stats, sm.fault_counters())
            }
            Driver::Ir => {
                let mut sm = IrSm::new(&cfg, &stream_kernel(false), wl.trace, wl.warps, seed);
                sm.set_faults(spec);
                let stats = sm.run_watched(5_000, 20_000, watchdog).cloned();
                (stats, sm.fault_counters())
            }
        }
    }
}

fn run_faulted(
    driver: Driver,
    gpu: &GpuSpec,
    spec: &FaultSpec,
    seed: u64,
) -> Result<SimStats, SimError> {
    let watchdog = Watchdog {
        stall_cycles: 10_000,
        ..Watchdog::default()
    };
    driver.run(gpu, spec, seed, &watchdog).0
}

fn assert_stats_finite(stats: &SimStats, label: &str) {
    for (name, v) in [
        ("ms_throughput", stats.ms_throughput()),
        ("cs_throughput", stats.cs_throughput()),
        ("avg_k", stats.avg_k()),
        ("avg_x", stats.avg_x()),
        ("hit_rate", stats.hit_rate()),
    ] {
        assert!(v.is_finite(), "{label}: {name} = {v} is not finite");
        assert!(v >= 0.0, "{label}: {name} = {v} is negative");
    }
}

/// The tentpole assertion: the full fault-spec × GPU-preset matrix, on
/// both drivers, either completes with finite stats or returns a typed
/// error, and a run that completes recovers lost completions whenever
/// the injector dropped any. (A panic or a NaN anywhere fails the test
/// harness directly.)
#[test]
fn matrix_faults_recover_or_error_never_panic() {
    for (driver, gpu) in [Driver::Parametric, Driver::Ir]
        .into_iter()
        .flat_map(|d| GpuSpec::all().into_iter().map(move |g| (d, g)))
    {
        for text in FAULT_SPECS {
            let spec = FaultSpec::parse(text).expect("matrix specs parse");
            let label = format!("{driver:?} {} / {text:?}", gpu.name);
            match run_faulted(driver, &gpu, &spec, 42) {
                Ok(stats) => {
                    assert_stats_finite(&stats, &label);
                    assert!(
                        stats.requests_completed > 0,
                        "{label}: no requests completed yet no error"
                    );
                    if spec.perturbs_memory() {
                        // Provenance: the injector's counters surface.
                        let (rerun, counters) = driver.run(&gpu, &spec, 42, &Watchdog::default());
                        let c = counters.unwrap_or_else(|| panic!("{label}: no fault counters"));
                        assert!(
                            spec.spike_prob == 0.0 || c.spikes > 0,
                            "{label}: spikes enabled but none recorded"
                        );
                        // Recovery: when completions were dropped, the
                        // ledger re-submitted some instead of leaving
                        // their warps parked.
                        let recovered = rerun.map_or(0, |s| s.lost_recovered);
                        assert!(
                            c.drops == 0 || recovered > 0,
                            "{label}: {} drops injected, none recovered",
                            c.drops
                        );
                    }
                }
                Err(e) => {
                    // Typed errors are an acceptable outcome; their Display
                    // must round-trip through the error machinery, not be
                    // a panic message.
                    assert!(!e.to_string().is_empty(), "{label}: empty error");
                }
            }
        }
    }
}

/// Identical (spec, seed) ⇒ identical run, bit for bit: stats and
/// injected-fault counters.
#[test]
fn faulted_runs_are_deterministic_given_seed() {
    let gpu = GpuSpec::kepler_k40();
    let spec = FaultSpec::parse("seed=7,spike=0.1x6,drop=0.02,dup=0.05,throttle=800:0.25:0.5")
        .expect("spec parses");
    let cfg = sim_config_for(&gpu, Precision::Single);
    let mut runs = Vec::new();
    for _ in 0..2 {
        let mut sm = Sm::with_faults(&cfg, &workload(), 42, &spec);
        let stats = sm
            .run_watched(5_000, 20_000, &Watchdog::default())
            .expect("run completes")
            .clone();
        runs.push((stats, sm.fault_counters().expect("counters")));
    }
    let (a, b) = (&runs[0], &runs[1]);
    assert_eq!(a.0, b.0, "stats differ between identical runs");
    assert_eq!(a.1, b.1, "fault counters differ between identical runs");
}

/// Different fault seeds draw different fault schedules (the PRNG streams
/// are decorrelated — deterministic check, not a statistical one).
#[test]
fn fault_seed_decorrelates_schedules() {
    let mk = |seed: u64| {
        let spec = FaultSpec {
            seed,
            spike_prob: 0.2,
            spike_factor: 4.0,
            ..FaultSpec::default()
        };
        let mut inj = FaultInjector::new(&spec);
        (0..256).map(|_| inj.spike().is_some()).collect::<Vec<_>>()
    };
    assert_ne!(mk(1), mk(2), "seeds 1 and 2 drew identical schedules");
    assert_eq!(mk(1), mk(1), "same seed must redraw the same schedule");
}

/// A total-loss fault (every completion dropped beyond recovery pace)
/// surfaces as the watchdog's typed error, not a hang and not a panic.
#[test]
fn watchdog_converts_hang_into_typed_error() {
    let gpu = GpuSpec::kepler_k40();
    let spec = FaultSpec::parse("drop=1").expect("spec parses");
    let cfg = sim_config_for(&gpu, Precision::Single);
    let mut sm = Sm::with_faults(&cfg, &workload(), 42, &spec);
    let watchdog = Watchdog {
        stall_cycles: 8_000,
        ..Watchdog::default()
    };
    let err = sm
        .run_watched(2_000, 20_000, &watchdog)
        .expect_err("total drop must trip the watchdog");
    match err {
        SimError::Watchdog { reason, .. } => {
            assert!(!reason.is_empty());
        }
        other => panic!("expected Watchdog error, got {other}"),
    }
    assert!(
        err.to_string().contains("watchdog"),
        "Display names the watchdog: {err}"
    );
}

/// The degradation ladder: a healthy model solves exactly; each forced
/// rung yields finite results tagged with the right provenance.
#[test]
fn degradation_ladder_provenance_and_finiteness() {
    let _bus = trace_bus();
    let model = XModel::new(
        xmodel::core::params::MachineParams::new(6.0, 0.107, 520.0),
        xmodel::core::params::WorkloadParams::new(20.0, 1.0, 48.0),
    );
    let cases = [
        (DegradeForce::None, Degradation::Exact),
        (DegradeForce::SkipExact, Degradation::GridScan),
        (DegradeForce::SkipGrid, Degradation::BaselineEstimate),
    ];
    for (force, expected) in cases {
        let resolved = degrade::resolve(&model, DEFAULT_SAMPLES, force)
            .unwrap_or_else(|e| panic!("{force:?}: ladder failed: {e}"));
        assert_eq!(resolved.degradation, expected, "{force:?}");
        assert!(resolved.point.k.is_finite() && resolved.point.k >= 0.0);
        assert!(resolved.point.ms_throughput.is_finite());
        assert!(resolved.point.cs_throughput.is_finite());
        assert!(resolved.residual.is_finite());
        assert_eq!(
            resolved.degradation.is_degraded(),
            expected != Degradation::Exact
        );
    }
}

/// Every degradation rung lands in the same ballpark: grid-scan and the
/// baseline estimate stay within a factor-2 band of the exact point.
#[test]
fn degraded_rungs_bracket_the_exact_answer() {
    let _bus = trace_bus();
    let model = XModel::new(
        xmodel::core::params::MachineParams::new(6.0, 0.107, 520.0),
        xmodel::core::params::WorkloadParams::new(20.0, 1.0, 48.0),
    );
    let exact = degrade::resolve(&model, DEFAULT_SAMPLES, DegradeForce::None)
        .expect("exact solve")
        .point;
    for force in [DegradeForce::SkipExact, DegradeForce::SkipGrid] {
        let p = degrade::resolve(&model, DEFAULT_SAMPLES, force)
            .expect("degraded solve")
            .point;
        assert!(
            p.cs_throughput > 0.4 * exact.cs_throughput
                && p.cs_throughput < 2.5 * exact.cs_throughput,
            "{force:?}: cs {} vs exact {}",
            p.cs_throughput,
            exact.cs_throughput
        );
    }
}

/// The last-resort rung is a roofline bound: its compute throughput never
/// exceeds `min(M, Z·R)` — the baseline estimate degrades toward the
/// classical model, not past it.
#[test]
fn baseline_rung_respects_the_roofline() {
    let _bus = trace_bus();
    for gpu in GpuSpec::all() {
        for precision in [Precision::Single, Precision::Double] {
            let machine = gpu.machine_params(precision);
            let z = 24.0;
            let model = XModel::new(
                machine,
                xmodel::core::params::WorkloadParams::new(z, 1.0, 40.0),
            );
            let roof = Roofline::new(machine.m, machine.r);
            let est = degrade::baseline_estimate(&model).expect("baseline estimate");
            assert!(
                est.cs_throughput <= roof.attainable(z) + 1e-9,
                "{} {precision:?}: baseline cs {} above roofline {}",
                gpu.name,
                est.cs_throughput,
                roof.attainable(z)
            );
        }
    }
}

/// Sink faults partition the stream exactly (torn + dropped + delivered
/// = emitted), and the trace reader tolerates every torn line.
#[test]
fn faulty_sink_partitions_and_reader_tolerates() {
    let mem = MemSink::new();
    let sink = FaultySink::new(Box::new(mem.clone()), 0.2, 0.1, 0xFA17);
    let counters = sink.counters();
    const N: u64 = 500;
    for i in 0..N {
        sink.emit_raw(&format!("{{\"kind\":\"chaos\",\"i\":{i}}}"));
    }
    sink.flush();
    let (torn, dropped, delivered) = (counters.torn(), counters.dropped(), counters.delivered());
    assert_eq!(torn + dropped + delivered, N, "stream must partition");
    assert!(
        torn > 0 && dropped > 0,
        "probabilities 0.2/0.1 over 500 draws"
    );

    let lines = mem.lines();
    assert_eq!(lines.len() as u64, torn + delivered);
    let report = xmodel::obs::report::TraceReport::from_lines(lines.iter().map(String::as_str));
    assert_eq!(
        report.malformed as u64, torn,
        "every torn line is counted malformed, nothing else"
    );
}

/// Degraded solves announce themselves on the trace bus: a
/// `solver.degraded` event tagged with the one schema constant.
#[test]
fn degraded_event_carries_schema_tag() {
    let _bus = trace_bus();
    let mem = MemSink::new();
    xmodel::obs::install(Box::new(mem.clone()));
    let model = XModel::new(
        xmodel::core::params::MachineParams::new(6.0, 0.107, 520.0),
        xmodel::core::params::WorkloadParams::new(20.0, 1.0, 48.0),
    );
    degrade::resolve(&model, DEFAULT_SAMPLES, DegradeForce::SkipExact).expect("grid-scan rung");
    xmodel::obs::finish(None);
    let lines = mem.lines();
    let degraded: Vec<&String> = lines
        .iter()
        .filter(|l| l.contains("solver.degraded"))
        .collect();
    assert!(!degraded.is_empty(), "no solver.degraded event emitted");
    for line in degraded {
        assert!(
            line.contains(DEGRADE_SCHEMA),
            "degraded event missing schema tag: {line}"
        );
        assert!(line.contains("grid-scan"), "missing provenance: {line}");
    }
}

/// Provenance strings are a closed vocabulary under one schema version:
/// `as_str` and `parse` are inverses, and unknown text is rejected.
#[test]
fn degradation_vocabulary_round_trips() {
    // Pinned without repeating the versioned literal — the
    // `schema-version-once` lint keeps `DEGRADE_SCHEMA` the single source.
    assert_eq!(DEGRADE_SCHEMA.strip_prefix("xmodel-degrade/"), Some("1"));
    for d in [
        Degradation::Exact,
        Degradation::GridScan,
        Degradation::BaselineEstimate,
    ] {
        assert_eq!(Degradation::parse(d.as_str()), Some(d));
    }
    for bad in ["", "exactly", "grid scan", "roofline"] {
        assert_eq!(Degradation::parse(bad), None, "{bad:?} must not parse");
    }
}

/// The spec grammar rejects garbage with the offending token named, and
/// accepts the full compound grammar.
#[test]
fn fault_spec_grammar_accepts_and_rejects() {
    assert_eq!(FaultSpec::parse("").expect("empty"), FaultSpec::default());
    let spec = FaultSpec::parse("seed=9,spike=0.5x16,drop=0.1,dup=0.2,throttle=100:0.5:0.5")
        .expect("compound spec");
    assert_eq!(spec.seed, 9);
    assert!(spec.perturbs_memory());
    for bad in [
        "spike=2x4",          // probability out of range
        "spike=0.5",          // missing factor
        "throttle=100:2:0.5", // duty out of range
        "solver=no-such",     // unknown solver fault
        "gremlins=1",         // unknown key
        "drop",               // not key=value
    ] {
        let err = FaultSpec::parse(bad).expect_err(bad);
        assert!(!err.to_string().is_empty(), "{bad}: error must render");
    }
}
