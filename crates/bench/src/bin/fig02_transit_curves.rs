//! Fig. 2: the two subsystem curves of the transit model — MS supply
//! `f(k)` (panel A) and CS demand `g(x)/Z` (panel B, axis reversed in the
//! combined figure).

use xmodel::prelude::*;
use xmodel::viz::chart::{Chart, Marker, Series};
use xmodel::viz::grid::PanelGrid;
use xmodel_bench::{cell, save_svg, write_csv};

fn main() -> std::io::Result<()> {
    let machine = MachineParams::new(4.0, 0.1, 500.0);
    let model = TransitModel::new(machine, OpsPerRequest(20.0), Threads(48.0)).to_xmodel();

    let fk = model.sample_fk(80.0, 161);
    let ghat: Vec<(f64, f64)> = (0..161)
        .map(|i| {
            let x = 80.0 * i as f64 / 160.0;
            (x, model.g_hat(x))
        })
        .collect();

    let panel_a = Chart::new("(A) MS supply f(k)", "MS threads (k)", "MS throughput")
        .with(Series::line("f(k) = min(k/L, R)", fk.clone(), 0))
        .with_marker(Marker {
            label: "δ".into(),
            x: machine.delta().get(),
            y: None,
        });
    let panel_b = Chart::new("(B) CS demand g(x)/Z", "CS threads (x)", "MS throughput")
        .with(Series::line("g(x)/Z = min(Ex, M)/Z", ghat.clone(), 1))
        .with_marker(Marker {
            label: "π".into(),
            x: model.pi(),
            y: None,
        });
    let svg = PanelGrid::new("Fig. 2 — supply and demand throughput", 2)
        .with(panel_a)
        .with(panel_b)
        .to_svg();
    let path = save_svg("fig02_transit_curves", &svg)?;

    let rows: Vec<Vec<String>> = fk
        .iter()
        .zip(&ghat)
        .map(|(&(k, f), &(x, g))| vec![cell(k, 1), cell(f, 5), cell(x, 1), cell(g, 5)])
        .collect();
    write_csv("fig02_transit_curves", &["k", "f_k", "x", "ghat_x"], &rows)?;

    println!(
        "Fig. 2 regenerated: delta = {} threads, pi = {} threads",
        machine.delta(),
        model.pi()
    );
    println!(
        "supply plateau R = {}, demand plateau M/Z = {}",
        machine.r,
        machine.m / 20.0
    );
    println!("wrote {}", path.display());
    Ok(())
}
