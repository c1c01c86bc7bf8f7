//! Table II: the experiment platforms, with the δ(SP)/δ(DP) saturation
//! columns *re-measured* by running the Stream microbenchmark on the
//! simulator — the same procedure the paper used on silicon.

use xmodel::prelude::*;
use xmodel_bench::{cell, print_table, write_csv};

fn main() -> std::io::Result<()> {
    println!("Table II — experiment platforms (measured on the simulator)\n");
    let mut rows = Vec::new();
    for gpu in GpuSpec::all() {
        let mut deltas = Vec::new();
        for precision in [Precision::Single, Precision::Double] {
            let cfg = xmodel::profile::sim_config_for(&gpu, precision);
            let profile = xmodel::profile::stream::profile_stream(&cfg, gpu.max_warps as u32, 4);
            let units = gpu.units(precision);
            let sustained = units.ms_to_gbs(profile.r) * gpu.sm_count as f64;
            deltas.push((profile.delta, sustained, gpu.delta(precision)));
        }
        let (sp, dp) = (&deltas[0], &deltas[1]);
        rows.push(vec![
            gpu.name.to_string(),
            format!("{:?}", gpu.generation),
            format!("{}x{}", gpu.sm_count, gpu.sp_per_sm),
            gpu.lds_per_sm.to_string(),
            format!("{} MHz", gpu.freq_mhz),
            format!("{} GB/s", gpu.mem_bw_gbs),
            gpu.max_warps.to_string(),
            gpu.schedulers.to_string(),
            gpu.dispatch.to_string(),
            format!("{}/{}", cell(sp.0, 0), cell(sp.1, 0)),
            format!("{}/{}", cell(sp.2 .0, 0), cell(sp.2 .1, 0)),
            format!("{}/{}", cell(dp.0, 0), cell(dp.1, 0)),
            format!("{}/{}", cell(dp.2 .0, 0), cell(dp.2 .1, 0)),
        ]);
    }
    print_table(
        &[
            "GPU",
            "arch",
            "SMxSP",
            "LDS",
            "freq",
            "mem BW",
            "warps",
            "schr",
            "disp",
            "δ(SP) meas",
            "δ(SP) paper",
            "δ(DP) meas",
            "δ(DP) paper",
        ],
        &rows,
    );
    write_csv(
        "table2",
        &[
            "gpu",
            "arch",
            "sm_sp",
            "lds",
            "freq",
            "bw",
            "warps",
            "schr",
            "disp",
            "dsp_meas",
            "dsp_paper",
            "ddp_meas",
            "ddp_paper",
        ],
        &rows,
    )?;
    println!("\nδ columns are `warps / sustained GB/s` at MS saturation.");
    Ok(())
}
