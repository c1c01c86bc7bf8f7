//! Criterion benches for the flow-balance solver, including the
//! scan-resolution ablation DESIGN.md calls out.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use xmodel::prelude::*;

fn cached_model() -> XModel {
    XModel::with_cache(
        MachineParams::new(6.0, 0.02, 600.0),
        WorkloadParams::new(66.0, 0.25, 60.0),
        CacheParams::try_new(16.0 * 1024.0, 30.0, 5.0, 2048.0).unwrap(),
    )
}

fn basic_model() -> XModel {
    XModel::new(
        MachineParams::new(6.0, 0.107, 598.0),
        WorkloadParams::new(20.0, 1.0, 64.0),
    )
}

fn bench_solve(c: &mut Criterion) {
    let basic = basic_model();
    let cached = cached_model();
    c.bench_function("solve/basic_roofline", |b| {
        b.iter(|| black_box(basic.solve()).operating_point())
    });
    c.bench_function("solve/cached_bistable", |b| {
        b.iter(|| black_box(cached.solve()).operating_point())
    });
}

/// Ablation: dense-scan resolution vs cost. Accuracy for the same sweep is
/// checked by the resolution test in xmodel-core; here is the time side.
fn bench_resolution_ablation(c: &mut Criterion) {
    let cached = cached_model();
    let mut g = c.benchmark_group("solve/resolution");
    for samples in [128usize, 512, 2048, 8192] {
        g.bench_with_input(BenchmarkId::from_parameter(samples), &samples, |b, &s| {
            b.iter(|| black_box(cached.solve_with(s)))
        });
    }
    g.finish();
}

fn bench_derived_analyses(c: &mut Criterion) {
    let cached = cached_model();
    c.bench_function("analysis/ms_features", |b| {
        b.iter(|| black_box(cached.ms_features(256.0)))
    });
    c.bench_function("analysis/balance", |b| {
        b.iter(|| black_box(cached.balance()))
    });
    c.bench_function("analysis/dynamics_converge", |b| {
        b.iter(|| black_box(xmodel::core::dynamics::converge_from(&cached, 0.0)))
    });
}

criterion_group!(
    benches,
    bench_solve,
    bench_resolution_ablation,
    bench_derived_analyses
);
criterion_main!(benches);
