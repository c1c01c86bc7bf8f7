//! Fig. 5: capacity bound / machine balance — both subsystems at their
//! best simultaneously, with (right) and without (left) idle threads.

use xmodel::core::xgraph::XGraph;
use xmodel::prelude::*;
use xmodel::render;
use xmodel::viz::grid::PanelGrid;
use xmodel_bench::{cell, print_table, save_svg};

fn main() -> std::io::Result<()> {
    // Balanced workload: Z = M/R so both plateaus meet.
    let machine = MachineParams::new(4.0, 0.1, 500.0);
    let z = machine.m / machine.r; // 40
    let tlp = machine.m / 1.0 + machine.delta().get(); // pi + delta = 54

    println!("Fig. 5 — machine balance at Z = M/R = {z}\n");
    let mut rows = Vec::new();
    let mut grid = PanelGrid::new("Fig. 5 — capacity bound / machine balance", 2);
    for (label, n) in [
        ("exact balance (n = pi + delta)", tlp),
        ("surplus threads", tlp + 40.0),
    ] {
        let model = XModel::new(machine, WorkloadParams::new(z, 1.0, n));
        let rep = model.balance();
        rows.push(vec![
            label.to_string(),
            cell(n, 0),
            format!("{:?}", rep.bound),
            cell(rep.cs_utilization, 3),
            cell(rep.ms_utilization, 3),
            cell(rep.idle_threads, 1),
        ]);
        let graph = XGraph::build(&model, 256);
        grid = grid.with(render::xgraph_chart(&graph, None));
    }
    print_table(
        &[
            "scenario",
            "n",
            "bound",
            "CS util",
            "MS util",
            "idle threads",
        ],
        &rows,
    );
    let path = save_svg("fig05_machine_balance", &grid.to_svg())?;
    println!("\nThe machine TLP (minimum n for balance) is pi + delta = {tlp}.");
    println!("wrote {}", path.display());
    Ok(())
}
