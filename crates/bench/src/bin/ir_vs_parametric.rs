//! Ablation: how much does the paper's three-parameter application
//! abstraction `(Z, E, n)` lose against executing the actual instruction
//! stream? The IR-driven simulator honours dual-issue groups, the
//! shared-memory path and `BAR` barriers; the parametric simulator *is*
//! the model's abstraction. Their agreement bounds the abstraction error
//! separately from the model-vs-machine error of Fig. 11.

use xmodel::prelude::*;
use xmodel::sim::exec::simulate_ir;
use xmodel_bench::{cell, print_table, write_csv};

fn main() -> std::io::Result<()> {
    let gpu = GpuSpec::kepler_k40();
    println!(
        "IR-driven vs parametric simulation, {} (no L1, per-SM share)\n",
        gpu.name
    );

    let mut rows = Vec::new();
    let mut errs = Vec::new();
    for w in Workload::suite() {
        let (cfg, wl) = sim_pairing(&gpu, &w, 0);
        let n = wl.warps;

        let par = xmodel::sim::simulate(&cfg, &wl, 15_000, 50_000);
        let ir = simulate_ir(&cfg, &w.kernel, w.trace, n, 15_000, 50_000);

        let err = if par.cs_throughput() > 0.0 {
            (ir.cs_throughput() - par.cs_throughput()).abs() / par.cs_throughput()
        } else {
            0.0
        };
        errs.push(err);
        let has_bar = w.kernel.dynamic_count(|o| o == xmodel::isa::Opcode::BAR) > 0.0;
        let has_smem = w
            .kernel
            .dynamic_count(|o| o.is_mem() && !o.is_offchip_mem())
            > 0.0;
        rows.push(vec![
            w.name.to_string(),
            n.to_string(),
            cell(par.cs_throughput(), 3),
            cell(ir.cs_throughput(), 3),
            format!("{:.1}%", err * 100.0),
            if has_bar { "yes" } else { "" }.to_string(),
            if has_smem { "yes" } else { "" }.to_string(),
        ]);
    }
    print_table(
        &["app", "n", "parametric CS", "IR CS", "gap", "BAR", "smem"],
        &rows,
    );
    let mean = errs.iter().sum::<f64>() / errs.len() as f64;
    let max = errs.iter().cloned().fold(0.0f64, f64::max);
    println!(
        "\nmean abstraction gap {:.1}%, worst {:.1}% — the kernels with",
        mean * 100.0,
        max * 100.0
    );
    println!("barriers/shared memory lose the most information in (Z, E, n),");
    println!("which is where the Fig. 11 prediction error concentrates too.");
    write_csv(
        "ir_vs_parametric",
        &["app", "n", "par_cs", "ir_cs", "gap", "bar", "smem"],
        &rows,
    )?;
    Ok(())
}
