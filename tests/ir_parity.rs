//! Pins the IR-driven simulator (`IrSm`) bit for bit outside drop faults.
//!
//! Each case runs a short `IrSm` simulation and folds its `SimStats`
//! (floats by `to_bits`) and its injected-fault counters into one FNV-1a
//! digest. The cases cover the 12 suite kernels on the three Table II
//! presets with and without a 16 KiB L1, an L2 stage with half the warps
//! bypassing L1, and a fault spec that spikes, duplicates and throttles
//! but drops nothing. A change to how the IR driver issues, completes or
//! counts a request changes a digest.

use xmodel::core::presets::GpuSpec;
use xmodel::profile::sim_pairing;
use xmodel::sim::config::L2Config;
use xmodel::sim::{FaultCounters, FaultSpec, IrSm, SimConfig, SimStats};
use xmodel::workloads::Workload;

const WARPS: u32 = 32;
const WARMUP: u64 = 2_000;
const MEASURE: u64 = 8_000;

/// Expected digests by case label, captured from the IR driver before it
/// shared the parametric driver's memory side.
const PINS: &[(&str, u64)] = &[
    ("bfs/GTX570/no-l1", 0x84aa948330c80108),
    ("backprop/GTX570/no-l1", 0x9d0617c41cb51317),
    ("stencil/GTX570/no-l1", 0xf980d4dda272034f),
    ("gesummv/GTX570/no-l1", 0x7f6164a8e3609f2e),
    ("hpccg/GTX570/no-l1", 0x9c4fa58cb44360f7),
    ("heartwall/GTX570/no-l1", 0x414c92cd902162c4),
    ("leukocyte/GTX570/no-l1", 0xd723ff92ab8d0e5c),
    ("nw/GTX570/no-l1", 0x799da248b43cf79f),
    ("nn/GTX570/no-l1", 0xc4e5e0f3ca11e230),
    ("spmv/GTX570/no-l1", 0xe82b6f90f752b1f8),
    ("atax/GTX570/no-l1", 0x413471ad50a306b1),
    ("lud/GTX570/no-l1", 0x7da90c4750325cea),
    ("bfs/GTX570/l1", 0x0c0a5766f2b84922),
    ("backprop/GTX570/l1", 0x2ba87be8236ec5ef),
    ("stencil/GTX570/l1", 0xa55e6054af8cc09a),
    ("gesummv/GTX570/l1", 0x264d348ffab55d0a),
    ("hpccg/GTX570/l1", 0x9a5f9da5a172b5ec),
    ("heartwall/GTX570/l1", 0xc7ee07c66c923c1c),
    ("leukocyte/GTX570/l1", 0xcbc86f386ca69de0),
    ("nw/GTX570/l1", 0xbf146e4338ea3271),
    ("nn/GTX570/l1", 0x602a192f59f9a05d),
    ("spmv/GTX570/l1", 0x4cefe505b678a443),
    ("atax/GTX570/l1", 0xfdc0100166590ce8),
    ("lud/GTX570/l1", 0x565bbe2688c8f4a0),
    ("bfs/Tesla K40/no-l1", 0x64957ef8d168086b),
    ("backprop/Tesla K40/no-l1", 0xbd334916dc400abc),
    ("stencil/Tesla K40/no-l1", 0x9ca47c2ecb4fa2a8),
    ("gesummv/Tesla K40/no-l1", 0x575d77c077668d25),
    ("hpccg/Tesla K40/no-l1", 0x47e6f18c5a7e8ba1),
    ("heartwall/Tesla K40/no-l1", 0xd8c57092a8b36676),
    ("leukocyte/Tesla K40/no-l1", 0xe25ca7534be96efb),
    ("nw/Tesla K40/no-l1", 0x059d4fd120983202),
    ("nn/Tesla K40/no-l1", 0xcd5b4b442cb6c847),
    ("spmv/Tesla K40/no-l1", 0xe2f2df1be44e5909),
    ("atax/Tesla K40/no-l1", 0x004304d6e8a68a96),
    ("lud/Tesla K40/no-l1", 0x93f632994c0712ac),
    ("bfs/Tesla K40/l1", 0x7bacd6c99e820e8a),
    ("backprop/Tesla K40/l1", 0xd95092b299956f28),
    ("stencil/Tesla K40/l1", 0xccdb5fa990161fc4),
    ("gesummv/Tesla K40/l1", 0x72b41c8664dc77c2),
    ("hpccg/Tesla K40/l1", 0x440460e777ae9b79),
    ("heartwall/Tesla K40/l1", 0x3b080cc4e12217b6),
    ("leukocyte/Tesla K40/l1", 0x5461b78e1d7853f3),
    ("nw/Tesla K40/l1", 0xd6905720a75ac636),
    ("nn/Tesla K40/l1", 0xc0b9eabb30bda065),
    ("spmv/Tesla K40/l1", 0x0c6d526b621b81d9),
    ("atax/Tesla K40/l1", 0xa1e4aad2aec1384f),
    ("lud/Tesla K40/l1", 0xd5df30a2ae2ae8c6),
    ("bfs/GTX750Ti/no-l1", 0x6209379075afa539),
    ("backprop/GTX750Ti/no-l1", 0x5aba34456237bd59),
    ("stencil/GTX750Ti/no-l1", 0xace659cea15214b6),
    ("gesummv/GTX750Ti/no-l1", 0x365b42da5e5c2aca),
    ("hpccg/GTX750Ti/no-l1", 0xced9d91cb5f60bc9),
    ("heartwall/GTX750Ti/no-l1", 0x7f3a58a4d1d260cc),
    ("leukocyte/GTX750Ti/no-l1", 0x8ef3addb5ca70215),
    ("nw/GTX750Ti/no-l1", 0x89e14d2ba4429aff),
    ("nn/GTX750Ti/no-l1", 0xa0893e316228e5d5),
    ("spmv/GTX750Ti/no-l1", 0xc33b9db74213dfd9),
    ("atax/GTX750Ti/no-l1", 0x5b98fa570b3b9d34),
    ("lud/GTX750Ti/no-l1", 0xdaddb71b9d23b0ef),
    ("bfs/GTX750Ti/l1", 0x4bdf7aa14fb2da19),
    ("backprop/GTX750Ti/l1", 0xdecda1fe0123a790),
    ("stencil/GTX750Ti/l1", 0x699f182c7798f3b4),
    ("gesummv/GTX750Ti/l1", 0xcd6be05e36d9de56),
    ("hpccg/GTX750Ti/l1", 0x877cb3cefb109733),
    ("heartwall/GTX750Ti/l1", 0x032c48bc03a32b1e),
    ("leukocyte/GTX750Ti/l1", 0x1b51cf527e57ec57),
    ("nw/GTX750Ti/l1", 0x88e39158aa505567),
    ("nn/GTX750Ti/l1", 0xc0e087138b919fee),
    ("spmv/GTX750Ti/l1", 0x097f355e09374597),
    ("atax/GTX750Ti/l1", 0x04f69e7b022548e0),
    ("lud/GTX750Ti/l1", 0x566241a2f4779c92),
    ("bfs/l2-bypass", 0x88947ce299d00ef1),
    ("backprop/l2-bypass", 0xa140d5b2a0b75136),
    ("stencil/l2-bypass", 0x4872e06577f25168),
    ("gesummv/l2-bypass", 0x81927e76568bdc79),
    ("hpccg/l2-bypass", 0xce64e2b0cbf0d7fd),
    ("heartwall/l2-bypass", 0xa2d69af68d9cba25),
    ("leukocyte/l2-bypass", 0xff960429e4f42bfd),
    ("nw/l2-bypass", 0xe563f12ded48a009),
    ("nn/l2-bypass", 0x4b7ce7118923621a),
    ("spmv/l2-bypass", 0x6ccd6766a7c91516),
    ("atax/l2-bypass", 0x604e63bac898787d),
    ("lud/l2-bypass", 0x8a3d255dc5a6c2cb),
    ("bfs/faults", 0x7278d7b57140b166),
    ("backprop/faults", 0xaa1c67340c0f49b0),
    ("stencil/faults", 0x5ce45b160106caf3),
    ("gesummv/faults", 0xf1f4f5f33610814a),
    ("hpccg/faults", 0xc8af4405dd9bf3fd),
    ("heartwall/faults", 0x4e226e6967910599),
    ("leukocyte/faults", 0xa0d12d93b90d388e),
    ("nw/faults", 0x38e47ebc57d5609b),
    ("nn/faults", 0xa50ca18789baad4b),
    ("spmv/faults", 0x8d7f4264527dbc58),
    ("atax/faults", 0x95aa6dd71fc953fa),
    ("lud/faults", 0x5435797a103951a6),
];

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn digest(stats: &SimStats, faults: Option<FaultCounters>) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for v in [
        stats.cycles,
        stats.ops_retired.to_bits(),
        stats.requests_completed,
        stats.bytes_delivered,
        stats.l1_hits,
        stats.l1_misses,
        stats.l1_merges,
        stats.mshr_stalls,
        stats.spurious_wakes,
        stats.lost_recovered,
        stats.sum_k.to_bits(),
        stats.sum_x.to_bits(),
    ] {
        h.word(v);
    }
    h.word(stats.trajectory.len() as u64);
    for &(cycle, k) in &stats.trajectory {
        h.word(cycle);
        h.word(u64::from(k));
    }
    h.word(stats.k_histogram.len() as u64);
    for &cycles in &stats.k_histogram {
        h.word(cycles);
    }
    match faults {
        Some(f) => [f.spikes, f.drops, f.dups, f.throttled]
            .into_iter()
            .for_each(|v| h.word(v)),
        None => h.word(u64::MAX),
    }
    h.0
}

/// The configuration of `gpu`'s pairing with `w` at an `l1_kib` L1, as
/// `xmodel sim` runs it. Every case runs [`WARPS`] warps.
fn preset(gpu: &GpuSpec, w: &Workload, l1_kib: u64) -> SimConfig {
    sim_pairing(gpu, w, l1_kib * 1024).0
}

fn run(
    cfg: &SimConfig,
    w: &Workload,
    faults: Option<&FaultSpec>,
) -> (SimStats, Option<FaultCounters>) {
    let mut sm = IrSm::new(cfg, &w.kernel, w.trace, WARPS, 42);
    if let Some(spec) = faults {
        sm.set_faults(spec);
    }
    sm.run(WARMUP, MEASURE);
    (sm.stats().clone(), sm.fault_counters())
}

/// Every case's label and digest, in a fixed order.
fn cases() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for gpu in GpuSpec::all() {
        for l1_kib in [0, 16] {
            for w in Workload::suite() {
                let cfg = preset(&gpu, &w, l1_kib);
                let tag = if cfg.l1.is_some() { "l1" } else { "no-l1" };
                let (stats, faults) = run(&cfg, &w, None);
                let label = format!("{}/{}/{tag}", w.name, gpu.name);
                out.push((label, digest(&stats, faults)));
            }
        }
    }
    let kepler = GpuSpec::kepler_k40();
    for w in Workload::suite() {
        let mut cfg = preset(&kepler, &w, 16);
        cfg.l2 = Some(L2Config {
            capacity_bytes: 256 * 1024,
            latency: 120,
            bytes_per_cycle: 48.0,
        });
        cfg.bypass_fraction = 0.5;
        let (stats, faults) = run(&cfg, &w, None);
        out.push((format!("{}/l2-bypass", w.name), digest(&stats, faults)));
    }
    let spec = FaultSpec::parse("seed=9,spike=0.05x4,dup=0.05,throttle=700:0.3:0.5")
        .expect("fault spec parses");
    assert_eq!(spec.drop_prob, 0.0);
    let fermi = GpuSpec::fermi_gtx570();
    let (mut injected, mut absorbed) = (FaultCounters::default(), 0);
    for w in Workload::suite() {
        let cfg = preset(&fermi, &w, 16);
        let (stats, faults) = run(&cfg, &w, Some(&spec));
        let f = faults.expect("an injector reports its counters");
        injected.spikes += f.spikes;
        injected.dups += f.dups;
        injected.throttled += f.throttled;
        absorbed += stats.spurious_wakes;
        out.push((format!("{}/faults", w.name), digest(&stats, faults)));
    }
    // The spec reaches the runs: every fault kind fires, and duplicated
    // completions are absorbed rather than waking a warp twice.
    assert!(injected.spikes > 0 && injected.dups > 0 && injected.throttled > 0);
    assert!(absorbed > 0, "{injected:?}");
    out
}

#[test]
fn ir_runs_match_their_pinned_digests() {
    let got = cases();
    assert_eq!(got.len(), 3 * 2 * 12 + 12 + 12);
    let wrong: Vec<String> = got
        .iter()
        .filter(|(label, digest)| {
            PINS.iter()
                .find(|(pin, _)| pin == label)
                .is_none_or(|&(_, want)| want != *digest)
        })
        .map(|(label, digest)| format!("    (\"{label}\", {digest:#018x}),"))
        .collect();
    assert!(
        wrong.is_empty(),
        "{} of {} IR runs differ from their pins (got):\n{}",
        wrong.len(),
        got.len(),
        wrong.join("\n")
    );
    assert_eq!(PINS.len(), got.len(), "a pin names no case");
}

#[test]
fn digest_sees_every_stat() {
    let base = SimStats::new(4);
    let mut moved = base.clone();
    moved.sum_x = f64::from_bits(base.sum_x.to_bits() + 1);
    assert_ne!(digest(&base, None), digest(&moved, None));
    assert_ne!(
        digest(&base, None),
        digest(&base, Some(FaultCounters::default()))
    );
}
