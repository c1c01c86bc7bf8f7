//! Fig. 15: optimization 2 — cache bypassing (++R). Keeping only a few
//! warps cache-eligible raises the effective memory-side bandwidth; the
//! model expresses it as lifting R toward the cache-peak level.

use xmodel::core::xgraph::XGraph;
use xmodel::prelude::*;
use xmodel::render;
use xmodel::viz::grid::PanelGrid;
use xmodel_bench::case_study;
use xmodel_bench::{cell, print_table, save_svg, write_csv};

fn main() -> std::io::Result<()> {
    let model = case_study::model(16);
    let what_if = WhatIf::new(model);
    let units = case_study::gpu().units(Precision::Single);
    let peak = model.ms_features(64.0).peak.expect("cache peak");

    println!("Fig. 15 — cache bypassing (++R)\n");
    println!(
        "base R = {} req/cyc; cache peak f(ψ) = {} req/cyc — the best bypass",
        cell(model.machine.r, 4),
        cell(peak.value, 4)
    );
    println!("raises effective R to the peak level (then gains saturate).\n");

    // Model: sweep effective R up to and past the peak level.
    let mut rows = Vec::new();
    for mult in [1.0, 1.25, 1.5, 2.0, peak.value / model.machine.r, 4.0] {
        let r = model.machine.r * mult;
        let eff = what_if.evaluate(Optimization::CacheBypass { r }).unwrap();
        rows.push(vec![
            cell(mult, 2),
            cell(units.ms_to_gbs(eff.ms_after), 3),
            cell(eff.ms_speedup(), 2),
        ]);
    }
    print_table(&["R multiplier", "model MS GB/s", "model speedup"], &rows);
    write_csv("fig15_bypass_model", &["mult", "gbs", "speedup"], &rows)?;

    // Simulator: sweep the number of cache-eligible warps.
    println!("\nsimulator sweep (j warps keep using the L1, rest bypass):");
    let mut sim_rows = Vec::new();
    for j in [48u32, 32, 16, 8, 4, 2] {
        let frac = 1.0 - j as f64 / 48.0;
        let thr = case_study::measure(16, frac, 48);
        sim_rows.push(vec![j.to_string(), cell(units.ms_to_gbs(thr), 3)]);
    }
    print_table(&["cached warps", "sim MS GB/s"], &sim_rows);
    write_csv("fig15_bypass_sim", &["cached_warps", "gbs"], &sim_rows)?;

    let best_r = peak.value;
    let before = XGraph::build(&model, 512);
    let after = XGraph::build(&Optimization::CacheBypass { r: best_r }.apply(&model), 512);
    let grid = PanelGrid::new("Fig. 15 — cache bypassing", 2)
        .with(render::xgraph_chart(&before, Some(&units)))
        .with(render::xgraph_chart(&after, Some(&units)));
    let path = save_svg("fig15_bypassing", &grid.to_svg())?;
    println!("\nwrote {}", path.display());
    Ok(())
}
