//! Fig. 7: the cache-integrated MS throughput f(k) of Eq. (5) with its
//! characteristic features — cache peak ψ, cache valley, memory plateau —
//! located automatically.

use xmodel::core::cache::CachedMsCurve;
use xmodel::prelude::*;
use xmodel::viz::chart::{Chart, Marker, Series};
use xmodel_bench::{cell, save_svg, write_csv};

fn main() -> std::io::Result<()> {
    let machine = MachineParams::new(6.0, 0.1, 600.0);
    let cache = CacheParams::try_new(16.0 * 1024.0, 30.0, 5.0, 2048.0).unwrap();
    let curve = CachedMsCurve::new(&machine, cache);

    let pts: Vec<(f64, f64)> = (0..=512)
        .map(|i| {
            let k = 256.0 * i as f64 / 512.0;
            (k, curve.f(Threads(k)).get())
        })
        .collect();
    let feats = curve.features(Threads(256.0));
    let peak = feats.peak.expect("peak");
    let valley = feats.valley.expect("valley");

    println!("Fig. 7 — cache-integrated f(k), Eq. (5)\n");
    println!(
        "cache peak   ψ  = {:>7} threads, f = {}",
        cell(peak.k, 2),
        cell(peak.value, 4)
    );
    println!(
        "cache valley    = {:>7} threads, f = {}",
        cell(valley.k, 2),
        cell(valley.value, 4)
    );
    println!("valley depth    = {:.1}%", 100.0 * feats.valley_depth());
    println!("memory plateau  = {} (= R)", cell(feats.plateau, 4));
    match feats.delta {
        Some(d) => println!("MS transition δ = {} threads", cell(d, 1)),
        None => println!("MS transition δ lies beyond the scanned range (slow cache decay)"),
    }

    let mut chart = Chart::new(
        "Fig. 7 — f(k) with shared cache",
        "MS threads (k)",
        "MS throughput",
    )
    .with(Series::line("f(k), Eq. (5)", pts.clone(), 0))
    .with(
        Series::line(
            "memory bound R",
            vec![(0.0, machine.r), (256.0, machine.r)],
            6,
        )
        .dashed(),
    )
    .with_marker(Marker {
        label: "ψ (cache peak)".into(),
        x: peak.k,
        y: Some(peak.value),
    })
    .with_marker(Marker {
        label: "cache valley".into(),
        x: valley.k,
        y: Some(valley.value),
    });
    if let Some(d) = feats.delta {
        chart = chart.with_marker(Marker {
            label: "δ".into(),
            x: d,
            y: None,
        });
    }
    let path = save_svg("fig07_cache_fk", &chart.to_svg(640.0, 380.0))?;

    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|&(k, f)| vec![cell(k, 2), cell(f, 6)])
        .collect();
    write_csv("fig07_cache_fk", &["k", "f"], &rows)?;
    println!("\nwrote {}", path.display());
    Ok(())
}
