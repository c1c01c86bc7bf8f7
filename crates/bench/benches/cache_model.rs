//! Criterion benches for the analytic cache machinery: Eq. (5)
//! evaluation, feature extraction, locality fitting.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use xmodel::core::cache::{CacheParams, CachedMsCurve};
use xmodel::core::params::MachineParams;
use xmodel::core::units::Threads;
use xmodel::workloads::locality::{fit_jacob, fit_trace_capacities, jacob_hit_rate};
use xmodel::workloads::{Workload, WorkloadId};

fn curve() -> CachedMsCurve {
    CachedMsCurve::new(
        &MachineParams::new(6.0, 0.1, 600.0),
        CacheParams::try_new(16.0 * 1024.0, 30.0, 5.0, 2048.0).unwrap(),
    )
}

fn bench_eq5(c: &mut Criterion) {
    let cu = curve();
    c.bench_function("cache/eq5_eval", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 1..=256 {
                acc += cu.f(Threads(black_box(i as f64 * 0.5))).get();
            }
            acc
        })
    });
    c.bench_function("cache/features_scan", |b| {
        b.iter(|| black_box(cu.features(Threads(256.0))))
    });
}

fn bench_multilevel(c: &mut Criterion) {
    use xmodel::core::multilevel::{L2Params, TwoLevelMsCurve};
    let curve = TwoLevelMsCurve::new(
        &MachineParams::new(6.0, 0.02, 900.0),
        CacheParams::try_new(16.0 * 1024.0, 28.0, 5.0, 2048.0).unwrap(),
        L2Params::new(96.0 * 1024.0, 180.0, 0.06),
    );
    c.bench_function("cache/two_level_eval", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 1..=256 {
                acc += curve.f(black_box(i as f64 * 0.5));
            }
            acc
        })
    });
    let single = CachedMsCurve::new(
        &MachineParams::new(6.0, 0.02, 900.0),
        CacheParams::try_new(16.0 * 1024.0, 28.0, 5.0, 2048.0).unwrap(),
    );
    c.bench_function("cache/mshr_capped_eval", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 1..=256 {
                acc += single
                    .f_mshr(Threads(black_box(i as f64 * 0.5)), 32.0)
                    .get();
            }
            acc
        })
    });
}

fn bench_fitting(c: &mut Criterion) {
    // Synthetic samples so the bench measures the fitter, not the trace.
    let samples: Vec<(f64, f64)> = (1..=48)
        .map(|k| (k as f64, jacob_hit_rate(16384.0, k as f64, 3.0, 2048.0)))
        .collect();
    c.bench_function("cache/fit_jacob_grid", |b| {
        b.iter(|| black_box(fit_jacob(&samples, 16384.0)))
    });
    // The whole locality fit `assemble_model` makes: the hit-count passes
    // over the trace at the reference capacities, then the grid fit.
    let trace = Workload::get(WorkloadId::Gesummv).trace;
    c.bench_function("cache/fit_trace_capacities", |b| {
        b.iter(|| {
            black_box(fit_trace_capacities(
                &trace,
                &[8 * 1024, 16 * 1024, 48 * 1024],
            ))
        })
    });
}

criterion_group!(benches, bench_eq5, bench_multilevel, bench_fitting);
criterion_main!(benches);
