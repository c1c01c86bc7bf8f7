//! Fig. 12: the gesummv X-graph on GTX570 with the default 16 KiB L1 —
//! analytic curves plus the isolated f(k) trace-points profiled through
//! the bypassing technique of [13] (here: on the simulator).

use xmodel::core::xgraph::XGraph;
use xmodel::prelude::*;
use xmodel::profile::bypass::bypass_trace_points;
use xmodel::render;
use xmodel::viz::chart::Series;
use xmodel_bench::case_study;
use xmodel_bench::{cell, save_svg, write_csv};

fn main() -> std::io::Result<()> {
    let model = case_study::model(16);
    let units = case_study::gpu().units(Precision::Single);
    let op = model.solve().operating_point().expect("operating point");

    println!("Fig. 12 — gesummv on GTX570, 16 KiB L1, 48 warps\n");
    println!(
        "model operating point: k = {:.1}, MS = {} GB/s per SM",
        op.k,
        cell(units.ms_to_gbs(op.ms_throughput), 2)
    );
    println!(
        "thrashing: {} (intersection on the descending slope of f)",
        WhatIf::new(model).is_thrashing()
    );
    if let Some(peak) = model.ms_features(64.0).peak {
        println!(
            "cache peak ψ = {:.1} warps at {} GB/s per SM",
            peak.k,
            cell(units.ms_to_gbs(peak.value), 2)
        );
    }

    // Profiled trace-points via bypassing (the yellow dots of Fig. 12).
    let cfg = case_study::sim_config(16, 0.0);
    let wl = case_study::sim_workload(48);
    let pts = bypass_trace_points(&cfg, &wl, 4);
    println!("\nbypass-profiled f(k) trace-points:");
    let mut rows = Vec::new();
    for &(j, thr) in &pts {
        println!(
            "  {:>2} cached warps: {} GB/s per SM",
            j,
            cell(units.ms_to_gbs(thr), 2)
        );
        rows.push(vec![
            j.to_string(),
            cell(thr, 5),
            cell(units.ms_to_gbs(thr), 3),
        ]);
    }
    write_csv(
        "fig12_trace_points",
        &["cached_warps", "req_per_cycle", "gbs"],
        &rows,
    )?;

    let graph = XGraph::build(&model, 512);
    let mut chart = render::xgraph_chart(&graph, Some(&units));
    chart.title = "Fig. 12 — gesummv, 16 KiB L1".into();
    chart = chart.with(Series::scatter(
        "profiled trace-points",
        pts.iter()
            .map(|&(j, t)| (j as f64, units.ms_to_gbs(t)))
            .collect(),
        3,
    ));
    let path = save_svg("fig12_gesummv_16k", &chart.to_svg(640.0, 400.0))?;
    println!("\nwrote {}", path.display());
    Ok(())
}
