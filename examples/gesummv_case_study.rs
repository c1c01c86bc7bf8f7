//! The §VI case study, end to end: `gesummv` on a Fermi GTX570.
//!
//! Reproduces the narrative of Figs. 12–18: detect cache thrashing, try a
//! bigger L1, then derive the four model-guided optimizations (thread
//! throttling, cache bypassing, higher compute intensity, *lower* ILP)
//! and validate each on the cycle-level simulator.
//!
//! ```sh
//! cargo run --release -p xmodel --example gesummv_case_study
//! ```

use xmodel::prelude::*;
use xmodel::render;
use xmodel_core::xgraph::XGraph;
use xmodel_profile::fitting;

fn main() {
    let gpu = GpuSpec::fermi_gtx570();
    let app = Workload::get(WorkloadId::Gesummv);
    let units = gpu.units(Precision::Single);
    let out = std::path::Path::new("target/experiments/figs");
    std::fs::create_dir_all(out).expect("create output dir");

    // --- Fig. 12: the default 16 KiB L1 state -------------------------
    let model16 = fitting::assemble_model(&gpu, &app, 16 * 1024);
    let what_if = WhatIf::new(model16);
    let op16 = model16.solve().operating_point().unwrap();
    println!("== gesummv on {} with 16 KiB L1 ==", gpu.name);
    println!(
        "operating point: k = {:.1}/{} warps in MS, MS = {:.2} GB/s per SM",
        op16.k,
        model16.workload.n,
        units.ms_to_gbs(op16.ms_throughput)
    );
    println!(
        "thrashing (intersection on the falling slope of f)? {}",
        what_if.is_thrashing()
    );
    let g16 = XGraph::build(&model16, 512);
    std::fs::write(
        out.join("case_study_16k.svg"),
        render::xgraph_chart(&g16, Some(&units)).to_svg(560.0, 360.0),
    )
    .unwrap();

    // --- Fig. 13: enlarge L1 to 48 KiB --------------------------------
    let eff48 = what_if
        .evaluate(Optimization::EnlargeCache {
            s_cache: 48.0 * 1024.0,
        })
        .unwrap();
    println!(
        "\n48 KiB L1 (model): MS speedup {:.2}x — the model says a higher",
        eff48.ms_speedup()
    );
    println!("cache peak is now reachable; usage 1: identify the limiting factor.");

    // --- Figs. 14-17: the four optimizations --------------------------
    println!("\n== model-guided optimizations (usage 2: derive options) ==");
    let n_star = what_if.optimal_throttle().unwrap_or(model16.workload.n);
    let candidates = [
        (
            "thread throttling (--n)",
            Optimization::ThreadThrottle { n: n_star },
        ),
        (
            "cache bypassing  (++R)",
            Optimization::CacheBypass {
                r: model16.machine.r * 3.0,
            },
        ),
        (
            "algorithmic      (++Z)",
            Optimization::IncreaseIntensity {
                z: model16.workload.z * 2.0,
            },
        ),
        (
            "reduce ILP       (--E)",
            Optimization::ReduceIlp {
                e: model16.workload.e * 0.5,
            },
        ),
    ];
    for (name, opt) in candidates {
        let eff = what_if.evaluate(opt).unwrap();
        println!(
            "{name}: MS {:.2}x, CS {:.2}x",
            eff.ms_speedup(),
            eff.cs_speedup()
        );
    }
    println!(
        "usage 3 (bound the technique): throttling can reach at most {:.2} GB/s per SM",
        units.ms_to_gbs(what_if.throttle_bound())
    );
    println!("usage 4 (new opportunity): reducing E helps under thrashing — Fig. 17.");

    // --- Fig. 18: validate on the cycle-level simulator ---------------
    println!("\n== simulator validation (Fig. 18) ==");
    let mk = |l1_kib: u64, bypass: f64, throttle: Option<u32>| {
        let (mut cfg, mut w) = sim_pairing(&gpu, &app, l1_kib * 1024);
        // Per-SM share of the 768 KiB chip L2: bypassed requests ride its
        // higher bandwidth.
        cfg.l2 = Some(xmodel_sim::config::L2Config {
            capacity_bytes: 51 * 1024,
            latency: 180,
            bytes_per_cycle: cfg.dram.bytes_per_cycle * 2.0,
        });
        if cfg.l1.is_some() {
            cfg.bypass_fraction = bypass;
        }
        if let Some(n) = throttle {
            w.warps = n;
        }
        xmodel_sim::simulate(&cfg, &w, 30_000, 80_000).ms_throughput()
    };

    let base = mk(16, 0.0, None);
    // Like the paper's tuned results, throttling and bypassing pick their
    // best setting from a small sweep.
    let sweep_n = [2u32, 3, 4, 6, 8, 12, 16, 24, 32];
    let best_throttle = |l1: u64| {
        sweep_n
            .iter()
            .map(|&n| mk(l1, 0.0, Some(n)))
            .fold(mk(l1, 0.0, None), f64::max)
    };
    let best_bypass = |l1: u64| {
        sweep_n
            .iter()
            .map(|&j| mk(l1, 1.0 - j as f64 / 48.0, None))
            .fold(mk(l1, 0.0, None), f64::max)
    };
    let rows = [
        ("16KB L1 (default)", base),
        ("16KB + throttling", best_throttle(16)),
        ("16KB + bypassing", best_bypass(16)),
        ("48KB L1", mk(48, 0.0, None)),
        ("48KB + throttling", best_throttle(48)),
        ("48KB + bypassing", best_bypass(48)),
        ("L1 disabled", mk(0, 0.0, None)),
    ];
    println!("{:<22} {:>10} {:>9}", "config", "GB/s/SM", "speedup");
    for (name, thr) in rows {
        println!(
            "{:<22} {:>10.3} {:>8.2}x",
            name,
            units.ms_to_gbs(thr),
            thr / base
        );
    }
}
