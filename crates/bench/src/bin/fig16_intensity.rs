//! Fig. 16: optimization 3 — increasing compute intensity (++Z).
//! Principle 3: CS throughput rises markedly while the MS intersection
//! barely moves (algorithm-level change required).

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

    println!("Fig. 16 — increasing compute intensity (++Z)\n");
    let mut rows = Vec::new();
    for mult in [1.0, 1.5, 2.0, 3.0, 4.0] {
        let z = model.workload.z * mult;
        let eff = what_if
            .evaluate(Optimization::IncreaseIntensity { z })
            .unwrap();
        rows.push(vec![
            cell(z, 2),
            cell(units.ms_to_gbs(eff.ms_after), 3),
            cell(eff.ms_speedup(), 3),
            cell(units.cs_to_gflops(eff.cs_after), 2),
            cell(eff.cs_speedup(), 2),
        ]);
    }
    print_table(
        &["Z", "MS GB/s", "MS speedup", "CS GF/s", "CS speedup"],
        &rows,
    );
    println!("\nMS throughput improvement is very limited while CS throughput");
    println!("scales with Z — exactly the Fig. 16 narrative (Principle 3).");
    write_csv(
        "fig16_intensity",
        &["z", "ms_gbs", "ms_speedup", "cs_gflops", "cs_speedup"],
        &rows,
    )?;

    let before = XGraph::build(&model, 512);
    let after = XGraph::build(
        &Optimization::IncreaseIntensity {
            z: model.workload.z * 2.0,
        }
        .apply(&model),
        512,
    );
    let grid = PanelGrid::new("Fig. 16 — increasing Z", 2)
        .with(render::xgraph_chart(&before, Some(&units)))
        .with(render::xgraph_chart(&after, Some(&units)));
    let path = save_svg("fig16_intensity", &grid.to_svg())?;
    println!("wrote {}", path.display());
    Ok(())
}
