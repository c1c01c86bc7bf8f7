//! Ablation: the paper's per-SM bandwidth partition vs true chip-level
//! contention. The X-model (and §IV's profiling) gives every SM a static
//! `1/N` share of chip bandwidth. The multi-SM simulator lets N SMs
//! contend for one DRAM channel, so we can measure when the partition
//! assumption holds and by how much it errs.

use xmodel::prelude::*;
use xmodel::sim::chip::ChipSim;
use xmodel::workloads::TraceSpec;
use xmodel_bench::{cell, print_table, write_csv};

/// Per-SM share of chip bandwidth, bytes/cycle (kept low enough that a
/// 48-warp SM could consume several shares if the others let it).
const SHARE_BPC: f64 = 6.0;

fn cfg() -> SimConfig {
    SimConfig::builder()
        .lanes(6.0)
        .issue_width(8)
        .lsu(2)
        .dram(540, SHARE_BPC)
        .build()
}

fn stream(warps: u32, z: f64) -> SimWorkload {
    SimWorkload {
        trace: TraceSpec::Stream {
            region_lines: 1 << 22,
        },
        ops_per_request: z,
        ilp: 1.0,
        warps,
    }
}

fn main() -> std::io::Result<()> {
    println!("Chip-level contention vs the per-SM static partition\n");
    let n_sms = 4;
    let chip_bw = SHARE_BPC * n_sms as f64;

    // The partition prediction: a solo SM given exactly 1/N of the chip
    // bandwidth (this is precisely how the model's per-SM R is derived).
    let solo = xmodel::sim::simulate(&cfg(), &stream(48, 2.0), 20_000, 60_000).ms_throughput();
    println!(
        "static-partition prediction (solo SM at 1/{} bandwidth): {} req/cyc\n",
        n_sms,
        cell(solo, 4)
    );

    // Homogeneous: all SMs memory-bound. Partition should hold.
    let nodes: Vec<_> = (0..n_sms).map(|_| (cfg(), stream(48, 2.0))).collect();
    let stats = ChipSim::new(&nodes, chip_bw, 42).run(20_000, 60_000);
    println!("homogeneous chip ({} memory-bound SMs):", n_sms);
    let mut rows = Vec::new();
    for (i, s) in stats.iter().enumerate() {
        rows.push(vec![
            format!("SM{i}"),
            cell(s.ms_throughput(), 4),
            cell(solo, 4),
            format!("{:+.1}%", 100.0 * (s.ms_throughput() / solo - 1.0)),
        ]);
    }
    print_table(&["sm", "measured", "partition pred.", "error"], &rows);
    write_csv(
        "chip_partition_homogeneous",
        &["sm", "measured", "solo", "err"],
        &rows,
    )?;

    // Heterogeneous: one hungry SM among compute-bound neighbours.
    println!("\nheterogeneous chip (1 memory-hungry + 3 compute-bound SMs):");
    let mut nodes = vec![(cfg(), stream(48, 2.0))];
    for _ in 1..n_sms {
        nodes.push((cfg(), stream(48, 400.0)));
    }
    let stats = ChipSim::new(&nodes, chip_bw, 42).run(20_000, 60_000);
    let mut rows = Vec::new();
    for (i, s) in stats.iter().enumerate() {
        rows.push(vec![
            format!("SM{i}{}", if i == 0 { " (hungry)" } else { "" }),
            cell(s.ms_throughput(), 4),
            cell(s.cs_throughput(), 3),
            format!("{:+.0}%", 100.0 * (s.ms_throughput() / solo - 1.0)),
        ]);
    }
    print_table(&["sm", "MS thr", "CS thr", "vs partition pred."], &rows);
    write_csv(
        "chip_partition_heterogeneous",
        &["sm", "ms", "cs", "vs_share"],
        &rows,
    )?;

    println!("\nConclusion: with symmetric workloads the static 1/N partition the");
    println!("paper assumes holds within a few percent; with asymmetric mixes an");
    println!("SM can draw several times its share, so per-SM models of mixed");
    println!("workloads should re-profile R under co-location.");
    Ok(())
}
