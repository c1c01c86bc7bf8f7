//! Fig. 8: the three cache-tuning operations — (A) workload locality
//! (α, β), (B) cache capacity S$, (C) cache access latency L$ — each as a
//! three-curve family of Eq. (5).

use xmodel::core::cache::CachedMsCurve;
use xmodel::prelude::*;
use xmodel::viz::chart::{Chart, Series};
use xmodel::viz::grid::PanelGrid;
use xmodel_bench::{cell, save_svg, write_csv};

fn main() -> std::io::Result<()> {
    let machine = MachineParams::new(6.0, 0.1, 600.0);
    let base = CacheParams::try_new(16.0 * 1024.0, 30.0, 5.0, 2048.0).unwrap();
    let sample = |cache: CacheParams| -> Vec<(f64, f64)> {
        let c = CachedMsCurve::new(&machine, cache);
        (0..=256)
            .map(|i| {
                let k = 128.0 * i as f64 / 256.0;
                (k, c.f(Threads(k)).get())
            })
            .collect()
    };

    let mut rows = Vec::new();
    let mut record = |panel: &str, label: &str, cache: CacheParams| {
        let c = CachedMsCurve::new(&machine, cache);
        let f = c.features(Threads(128.0));
        rows.push(vec![
            panel.to_string(),
            label.to_string(),
            f.peak.map(|p| cell(p.k, 1)).unwrap_or("-".into()),
            f.peak.map(|p| cell(p.value, 4)).unwrap_or("-".into()),
            f.valley.map(|v| cell(v.value, 4)).unwrap_or("-".into()),
        ]);
    };

    // (A) locality
    let ci = base.with_locality(1.05, 2048.0);
    let mcs = base.with_locality(3.0, 2048.0);
    let hcs = base.with_locality(6.0, 2048.0);
    record("A", "cache insensitive", ci);
    record("A", "moderately sensitive", mcs);
    record("A", "highly sensitive", hcs);
    let panel_a = Chart::new("(A) locality α", "MS threads (k)", "MS throughput")
        .with(Series::line("CI (α=1.05)", sample(ci), 0))
        .with(Series::line("MCS (α=3)", sample(mcs), 1))
        .with(Series::line("HCS (α=6)", sample(hcs), 2));

    // (B) capacity
    let none = base.with_capacity(0.0);
    let small = base.with_capacity(16.0 * 1024.0);
    let large = base.with_capacity(48.0 * 1024.0);
    record("B", "no cache", none);
    record("B", "16 KiB", small);
    record("B", "48 KiB", large);
    let panel_b = Chart::new("(B) capacity S$", "MS threads (k)", "MS throughput")
        .with(Series::line("no cache", sample(none), 0))
        .with(Series::line("16 KiB", sample(small), 1))
        .with(Series::line("48 KiB", sample(large), 2));

    // (C) latency
    let offchip = base.with_latency(600.0);
    let slow = base.with_latency(90.0);
    let fast = base.with_latency(15.0);
    record("C", "off-chip speed", offchip);
    record("C", "slow cache", slow);
    record("C", "fast cache", fast);
    let panel_c = Chart::new("(C) cache latency L$", "MS threads (k)", "MS throughput")
        .with(Series::line("L$=600 (off-chip)", sample(offchip), 0))
        .with(Series::line("L$=90 (slow)", sample(slow), 1))
        .with(Series::line("L$=15 (fast)", sample(fast), 2));

    let grid = PanelGrid::new("Fig. 8 — tuning the cache-integrated f(k)", 3)
        .with(panel_a)
        .with(panel_b)
        .with(panel_c);
    let path = save_svg("fig08_cache_tuning", &grid.to_svg())?;
    xmodel_bench::print_table(&["panel", "curve", "ψ", "peak f", "valley f"], &rows);
    write_csv(
        "fig08_cache_tuning",
        &["panel", "curve", "psi", "peak", "valley"],
        &rows,
    )?;
    println!("\nwrote {}", path.display());
    Ok(())
}
