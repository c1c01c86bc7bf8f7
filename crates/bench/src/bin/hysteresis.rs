//! Extension experiment: hysteresis in the bistable region (§III-D).
//!
//! In the bistable region the branch the machine occupies depends on its
//! history. Sweeping the compute intensity `Z` (optimizing the kernel,
//! then de-optimizing it) with each step warm-started from the previous
//! equilibrium traces a loop: coming from low Z the machine sits on the
//! thrashing branch σ″ and stays there deep into the bistable window;
//! coming from high Z it rides the good branch σ′ until that branch
//! disappears. No static model (roofline, valley) can express this.

use xmodel::core::dynamics;
use xmodel::prelude::*;
use xmodel::viz::chart::{Chart, Series};
use xmodel_bench::{cell, print_table, save_svg, write_csv};

fn model_at(z: f64) -> XModel {
    XModel::with_cache(
        MachineParams::new(6.0, 0.02, 600.0),
        WorkloadParams::new(z, 0.25, 60.0),
        CacheParams::try_new(16.0 * 1024.0, 30.0, 5.0, 2048.0).unwrap(),
    )
}

fn main() -> std::io::Result<()> {
    println!("Hysteresis sweep of compute intensity Z through the bistable window\n");
    let zs: Vec<f64> = (40..=150).step_by(2).map(|z| z as f64).collect();

    // Up-sweep (Z rising: progressively optimizing the kernel),
    // warm-starting each step from the previous spatial state.
    let mut k: f64 = 60.0; // kernels launch by loading: start in MS
    let mut up = Vec::new();
    for &z in &zs {
        let m = model_at(z);
        k = dynamics::converge_from(&m, k);
        up.push((z, m.fk(k), k));
    }
    // Down-sweep (de-optimizing again).
    let mut down = Vec::new();
    for &z in zs.iter().rev() {
        let m = model_at(z);
        k = dynamics::converge_from(&m, k);
        down.push((z, m.fk(k), k));
    }
    down.reverse();

    let mut rows = Vec::new();
    let mut loop_width = 0usize;
    for (u, d) in up.iter().zip(&down) {
        let split = (u.1 - d.1).abs() > 1e-4;
        if split {
            loop_width += 1;
        }
        rows.push(vec![
            cell(u.0, 0),
            cell(u.1, 4),
            cell(u.2, 1),
            cell(d.1, 4),
            cell(d.2, 1),
            if split { "<-- hysteresis" } else { "" }.to_string(),
        ]);
    }
    print_table(
        &["Z", "up MS thr", "up k", "down MS thr", "down k", ""],
        &rows,
    );
    println!(
        "\n{} of {} sweep points sit on different branches depending on",
        loop_width,
        zs.len()
    );
    println!("history — the same kernel at the same Z runs at two different");
    println!("speeds depending on where it came from. A concrete protocol a");
    println!("hardware measurement could reproduce (§III-D made testable).");
    write_csv(
        "hysteresis",
        &["z", "up", "up_k", "down", "down_k", "split"],
        &rows,
    )?;

    let chart = Chart::new(
        "Hysteresis loop: MS throughput vs Z (warm-started sweeps)",
        "compute intensity Z",
        "MS throughput (req/cycle)",
    )
    .with(Series::line(
        "Z rising (from thrashing sigma'')",
        up.iter().map(|&(z, f, _)| (z, f)).collect(),
        0,
    ))
    .with(Series::line(
        "Z falling (from healthy sigma')",
        down.iter().map(|&(z, f, _)| (z, f)).collect(),
        1,
    ));
    let path = save_svg("hysteresis", &chart.to_svg(640.0, 400.0))?;
    println!("wrote {}", path.display());
    Ok(())
}
