//! Fig. 4: the six operating knobs of the X-model — R, L, M, Z, E, n —
//! each drawn as a family of three curves (low/base/high) in MS space.

use xmodel::core::tuning::{sweep, Knob, TuningOp};
use xmodel::prelude::*;
use xmodel::viz::chart::{Chart, Series};
use xmodel::viz::grid::PanelGrid;
use xmodel_bench::{cell, save_svg, write_csv};

fn base_model() -> XModel {
    XModel::new(
        MachineParams::new(4.0, 0.1, 500.0),
        WorkloadParams::new(20.0, 1.0, 48.0),
    )
}

type Panel = (&'static str, fn(f64) -> TuningOp, [f64; 3], bool);

fn main() -> std::io::Result<()> {
    let base = base_model();
    let panels: Vec<Panel> = vec![
        (
            "(A) memory bandwidth R",
            |v| TuningOp::Machine(Knob::MemBandwidth(v)),
            [0.05, 0.1, 0.2],
            true,
        ),
        (
            "(B) memory latency L",
            |v| TuningOp::Machine(Knob::MemLatency(v)),
            [250.0, 500.0, 1000.0],
            true,
        ),
        (
            "(C) compute lanes M",
            |v| TuningOp::Machine(Knob::Lanes(v)),
            [2.0, 4.0, 8.0],
            false,
        ),
        (
            "(D) compute intensity Z",
            |v| TuningOp::Machine(Knob::Intensity(v)),
            [10.0, 20.0, 40.0],
            false,
        ),
        (
            "(E) ILP degree E",
            |v| TuningOp::Machine(Knob::Ilp(v)),
            [1.0, 2.0, 4.0],
            false,
        ),
        (
            "(F) machine threads n",
            |v| TuningOp::Machine(Knob::Threads(v)),
            [24.0, 48.0, 96.0],
            false,
        ),
    ];

    let mut grid = PanelGrid::new("Fig. 4 — operating the X-model", 3);
    let mut rows = Vec::new();
    for (title, make, values, vary_f) in panels {
        let mut chart = Chart::new(title, "threads", "MS throughput");
        for (i, model) in sweep(&base, make, &values).iter().enumerate() {
            let series_pts = if vary_f {
                model.sample_fk(96.0, 97)
            } else {
                (0..97)
                    .map(|j| {
                        let x = 96.0 * j as f64 / 96.0;
                        (x, model.g_hat(x))
                    })
                    .collect()
            };
            chart = chart.with(Series::line(
                format!(
                    "{} = {}",
                    title.split(' ').next_back().unwrap_or("v"),
                    values[i]
                ),
                series_pts,
                i,
            ));
            let op = model.solve().operating_point().unwrap();
            rows.push(vec![
                title.to_string(),
                cell(values[i], 2),
                cell(op.ms_throughput, 5),
                cell(op.cs_throughput, 4),
                cell(op.k, 2),
            ]);
        }
        // The unchanged opposite curve for context.
        if vary_f {
            let ghat: Vec<(f64, f64)> = (0..97)
                .map(|j| {
                    let x = 96.0 * j as f64 / 96.0;
                    (x, base.g_hat(x))
                })
                .collect();
            chart = chart.with(Series::line("g/Z (fixed)", ghat, 7).dashed());
        } else {
            chart = chart.with(Series::line("f (fixed)", base.sample_fk(96.0, 97), 7).dashed());
        }
        grid = grid.with(chart);
    }
    let path = save_svg("fig04_tuning_ops", &grid.to_svg())?;
    write_csv(
        "fig04_tuning_ops",
        &["knob", "value", "ms", "cs", "k"],
        &rows,
    )?;
    println!("Fig. 4 regenerated: {} knob settings evaluated", rows.len());
    for r in &rows {
        println!(
            "  {:<26} = {:>7}: MS {:>8} CS {:>7} k {:>6}",
            r[0], r[1], r[2], r[3], r[4]
        );
    }
    println!("wrote {}", path.display());
    Ok(())
}
