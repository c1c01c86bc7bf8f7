//! Property tests for [`xmodel_serve::ShardedSolveCache`]: N
//! threads hammering M distinct supply curves through the sharded cache
//! must produce results bit-identical to the single-threaded dense
//! reference, and the per-shard staleness bookkeeping must stay
//! race-free (every solve is exactly one hit or one rebuild).

use xmodel_core::params::{MachineParams, WorkloadParams};
use xmodel_core::solver::Equilibria;
use xmodel_core::XModel;
use xmodel_serve::ShardedSolveCache;

const SAMPLES: usize = 1024;

/// A family of models with distinct supply curves (`r`, `l` vary, so
/// each has its own `CurveKey`) and distinct demand curves (`n` varies).
fn model_family() -> Vec<XModel> {
    let mut models = Vec::new();
    for (i, r) in [0.08, 0.10, 0.12, 0.15].iter().enumerate() {
        for (j, l) in [400.0, 600.0, 800.0].iter().enumerate() {
            let machine = MachineParams::try_new(6.0, *r, *l).expect("machine");
            let n = 24.0 + 8.0 * (i as f64) + 4.0 * (j as f64);
            let workload = WorkloadParams::try_new(20.0, 1.2, n).expect("workload");
            models.push(XModel::new(machine, workload));
        }
    }
    models
}

/// Exact structural equality: same intersections bit-for-bit, same `n`.
fn assert_bit_identical(got: &Equilibria, want: &Equilibria, context: &str) {
    assert_eq!(
        got.n().to_bits(),
        want.n().to_bits(),
        "{context}: n differs"
    );
    assert_eq!(
        got.points().len(),
        want.points().len(),
        "{context}: root count differs"
    );
    for (g, w) in got.points().iter().zip(want.points()) {
        assert_eq!(g.k.to_bits(), w.k.to_bits(), "{context}: k differs");
        assert_eq!(g.x.to_bits(), w.x.to_bits(), "{context}: x differs");
        assert_eq!(
            g.ms_throughput.to_bits(),
            w.ms_throughput.to_bits(),
            "{context}: ms differs"
        );
        assert_eq!(
            g.cs_throughput.to_bits(),
            w.cs_throughput.to_bits(),
            "{context}: cs differs"
        );
        assert_eq!(g.stability, w.stability, "{context}: stability differs");
    }
}

#[test]
fn concurrent_sharded_solves_match_single_threaded_reference() {
    let models = model_family();
    let reference: Vec<Equilibria> = models.iter().map(|m| m.solve_with(SAMPLES)).collect();

    const THREADS: usize = 8;
    const ROUNDS: usize = 5;
    let cache = ShardedSolveCache::new(4);

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let cache = &cache;
            let models = &models;
            let reference = &reference;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    // Each thread walks the family from a different
                    // offset so shards see interleaved key churn.
                    for step in 0..models.len() {
                        let i = (t + round + step) % models.len();
                        let got = cache.solve_with(&models[i], SAMPLES);
                        assert_bit_identical(
                            &got,
                            &reference[i],
                            &format!("thread {t} round {round} model {i}"),
                        );
                    }
                }
            });
        }
    });

    // Race-free accounting: every solve is classified exactly once, as
    // a hit (fresh table) or a rebuild (cold/stale table).
    let total = (THREADS * ROUNDS * models.len()) as u64;
    assert_eq!(
        cache.hits() + cache.rebuilds(),
        total,
        "hits {} + rebuilds {} must equal {} solves",
        cache.hits(),
        cache.rebuilds(),
        total
    );
    assert!(
        cache.rebuilds() >= 1,
        "cold start must rebuild at least once"
    );
}

#[test]
fn same_key_growing_n_stays_exact_under_contention() {
    // One supply curve (one CurveKey, one shard) but a demand curve
    // whose n grows past the tabulated domain: the k_max staleness path
    // must rebuild rather than serve truncated tables, under contention.
    let machine = MachineParams::try_new(6.0, 0.10, 600.0).expect("machine");
    let ns: Vec<f64> = (1..=12).map(|i| 8.0 * i as f64).collect();
    let models: Vec<XModel> = ns
        .iter()
        .map(|n| {
            XModel::new(
                machine,
                WorkloadParams::try_new(20.0, 1.2, *n).expect("workload"),
            )
        })
        .collect();
    let reference: Vec<Equilibria> = models.iter().map(|m| m.solve_with(SAMPLES)).collect();

    let cache = ShardedSolveCache::new(2);
    std::thread::scope(|scope| {
        for t in 0..6 {
            let cache = &cache;
            let models = &models;
            let reference = &reference;
            let ns = &ns;
            scope.spawn(move || {
                // Even threads sweep n upward, odd threads downward, so
                // the shard alternates between hit and domain-growth
                // staleness while others are mid-solve.
                let order: Vec<usize> = if t % 2 == 0 {
                    (0..models.len()).collect()
                } else {
                    (0..models.len()).rev().collect()
                };
                for _ in 0..4 {
                    for &i in &order {
                        let got = cache.solve_with(&models[i], SAMPLES);
                        assert_bit_identical(&got, &reference[i], &format!("n={}", ns[i]));
                    }
                }
            });
        }
    });
    assert_eq!(cache.hits() + cache.rebuilds(), (6 * 4 * 12) as u64);
}

#[test]
fn single_shard_degenerate_config_is_still_correct() {
    // shards=0 clamps to one shard: everything serializes through a
    // single SolveCache but answers stay exact.
    let models = model_family();
    let cache = ShardedSolveCache::new(0);
    for model in &models {
        let got = cache.solve_with(model, SAMPLES);
        assert_bit_identical(&got, &model.solve_with(SAMPLES), "single shard");
    }
}
