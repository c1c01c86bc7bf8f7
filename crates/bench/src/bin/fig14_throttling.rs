//! Fig. 14: optimization 1 — thread throttling (--n). The intersection
//! climbs the descending slope of f until g(x) passes through the cache
//! peak ψ; throttling further degrades again.

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
    let n_star = what_if.optimal_throttle().expect("cache peak exists");

    println!("Fig. 14 — thread throttling (--n)\n");
    println!(
        "optimal throttle n* = ψ + x* = {:.1} warps (of {})",
        n_star, model.workload.n
    );
    println!(
        "throttle bound: min(f(ψ), M/Z) = {} GB/s per SM\n",
        cell(units.ms_to_gbs(what_if.throttle_bound()), 2)
    );

    let mut rows = Vec::new();
    for n in [48.0, 40.0, 32.0, 24.0, n_star, 12.0, 8.0, 4.0, 2.0] {
        let eff = what_if
            .evaluate(Optimization::ThreadThrottle { n })
            .expect("equilibrium");
        let sim = case_study::measure(16, 0.0, n.round().max(1.0) as u32);
        rows.push(vec![
            cell(n, 1),
            cell(units.ms_to_gbs(eff.ms_after), 3),
            cell(eff.ms_speedup(), 2),
            cell(units.ms_to_gbs(sim), 3),
        ]);
    }
    print_table(
        &["n (warps)", "model MS GB/s", "model speedup", "sim MS GB/s"],
        &rows,
    );
    println!("\nPrinciple 2: the intersection climbs while Z is unchanged, so CS and");
    println!("MS improve together; beyond ψ the curve falls again (last rows).");
    write_csv(
        "fig14_throttling",
        &["n", "model_gbs", "model_speedup", "sim_gbs"],
        &rows,
    )?;

    let before = XGraph::build(&model, 512);
    let after = XGraph::build(
        &Optimization::ThreadThrottle { n: n_star }.apply(&model),
        512,
    );
    let grid = PanelGrid::new("Fig. 14 — thread throttling", 2)
        .with(render::xgraph_chart(&before, Some(&units)))
        .with(render::xgraph_chart(&after, Some(&units)));
    let path = save_svg("fig14_throttling", &grid.to_svg())?;
    println!("wrote {}", path.display());
    Ok(())
}
