//! §VII extension experiment: the X-model against the three baseline
//! analytic models (Roofline, Valley, MWP-CWP) on the 12-workload suite,
//! all judged against the cycle-level simulator.

use xmodel::prelude::*;
use xmodel::profile::fitting::{assemble_model, workload_precision};
use xmodel::profile::validate::validate_one;
use xmodel_bench::{cell, print_table, write_csv};

fn accuracy(pred: f64, meas: f64) -> f64 {
    if meas <= 0.0 {
        return 0.0;
    }
    (1.0 - (pred - meas).abs() / meas).max(0.0)
}

fn main() -> std::io::Result<()> {
    let gpu = GpuSpec::kepler_k40();
    println!(
        "X-model vs baselines on {} (CS throughput, warp-ops/cycle)\n",
        gpu.name
    );

    let mut rows = Vec::new();
    let mut sums = [0.0f64; 4];
    for w in Workload::suite() {
        let v = validate_one(&gpu, &w).expect("validation failed"); // X-model + simulator
        let model = assemble_model(&gpu, &w, 0);
        let machine = model.machine;
        let a = w.kernel.analyze();
        let _ = workload_precision(&w);

        // Roofline: intensity-only bound (no thread awareness).
        let roofline = Roofline::new(machine.m, machine.r).attainable(a.intensity);
        // Valley model: all n threads share the (absent) cache -> no cache
        // term here; thread-aware but fixed latency.
        let valley = ValleyModel {
            m: machine.m,
            r: machine.r,
            l: machine.l,
            z: a.intensity,
            s_cache: 0.0,
            alpha: 2.0,
            beta: 1024.0,
        }
        .perf(model.workload.n);
        // MWP-CWP.
        let mwp = MwpCwp {
            mem_latency: machine.l,
            departure_delay: 1.0,
            mwp_peak_bw: machine.r * machine.l,
            comp_cycles: a.intensity / a.ilp,
            ops_per_iter: a.intensity,
            warps: model.workload.n,
        }
        .throughput();

        let accs = [
            v.accuracy(),
            accuracy(roofline, v.measured_cs),
            accuracy(valley, v.measured_cs),
            accuracy(mwp, v.measured_cs),
        ];
        for (s, a) in sums.iter_mut().zip(accs) {
            *s += a;
        }
        rows.push(vec![
            w.name.to_string(),
            cell(v.measured_cs, 3),
            cell(v.predicted_cs, 3),
            cell(roofline, 3),
            cell(valley, 3),
            cell(mwp, 3),
            format!(
                "{:.0}/{:.0}/{:.0}/{:.0}",
                accs[0] * 100.0,
                accs[1] * 100.0,
                accs[2] * 100.0,
                accs[3] * 100.0
            ),
        ]);
    }
    print_table(
        &[
            "app",
            "measured",
            "X-model",
            "roofline",
            "valley",
            "MWP-CWP",
            "acc% X/R/V/M",
        ],
        &rows,
    );
    let n = rows.len() as f64;
    println!(
        "\nmean accuracy: X-model {:.1}%, roofline {:.1}%, valley {:.1}%, MWP-CWP {:.1}%",
        sums[0] / n * 100.0,
        sums[1] / n * 100.0,
        sums[2] / n * 100.0,
        sums[3] / n * 100.0
    );
    println!("\nRoofline ignores n (overpredicts occupancy-limited kernels);");
    println!("the valley model fixes latency; MWP-CWP lacks what-if structure.");
    write_csv(
        "cmp_baselines",
        &[
            "app", "measured", "xmodel", "roofline", "valley", "mwpcwp", "accs",
        ],
        &rows,
    )?;
    Ok(())
}
