//! Pins the parametric simulator (`Sm`) bit for bit.
//!
//! Each case runs a short simulation and folds its `SimStats` (floats by
//! `to_bits`) and its injected-fault counters into one FNV-1a digest. The
//! cases cover the 12 suite kernels on the three Table II presets with
//! and without a 16 KiB L1, an L2 stage with half the warps bypassing
//! L1 and one with no L1 in front, a fault spec that spikes, duplicates
//! and throttles, one that drops completions for the recovery sweep to
//! heal (with and without an L1), a trajectory interval with an initial
//! MS fraction, 65–128 warps (two bitset words), and one chip of SMs
//! sharing a DRAM channel. A change to how `Sm` issues, completes,
//! schedules or counts changes a digest.

use xmodel_core::presets::GpuSpec;
use xmodel_profile::arch::sim_config_for;
use xmodel_profile::fitting::{assemble_model, workload_precision};
use xmodel_sim::config::L2Config;
use xmodel_sim::{CacheConfig, ChipSim, FaultCounters, FaultSpec, SimConfig, SimStats};
use xmodel_sim::{SimWorkload, Sm};
use xmodel_workloads::Workload;

const WARMUP: u64 = 2_000;
const MEASURE: u64 = 8_000;
const SEED: u64 = 42;

/// The L1 `xmodel sim --l1 16` configures.
const L1_16K: CacheConfig = CacheConfig {
    capacity_bytes: 16 * 1024,
    line_bytes: 128,
    ways: 8,
    hit_latency: 28,
    mshrs: 64,
};

/// Expected digests by case label, captured from `Sm` before its stepped
/// cycle learned to skip work it does not have.
const PINS: &[(&str, u64)] = &[
    ("bfs/GTX570/no-l1", 0x3e6e4f676c12adb8),
    ("backprop/GTX570/no-l1", 0x5c9797288316b966),
    ("stencil/GTX570/no-l1", 0x7a90dc61966199e9),
    ("gesummv/GTX570/no-l1", 0x2f6407020918a8a7),
    ("hpccg/GTX570/no-l1", 0x05abf977747c1409),
    ("heartwall/GTX570/no-l1", 0x65fbb7909f17efbf),
    ("leukocyte/GTX570/no-l1", 0xb0c05e6033360961),
    ("nw/GTX570/no-l1", 0x53a5dacf29d94819),
    ("nn/GTX570/no-l1", 0xdcdfdc2aa441b28a),
    ("spmv/GTX570/no-l1", 0x45553e95b38d795c),
    ("atax/GTX570/no-l1", 0xa0a9b5fba1f90bbc),
    ("lud/GTX570/no-l1", 0x40d7298a9a178169),
    ("bfs/GTX570/l1", 0x3798b95664e454b9),
    ("backprop/GTX570/l1", 0x19aadae08b5607a7),
    ("stencil/GTX570/l1", 0xbe76331bcc980c00),
    ("gesummv/GTX570/l1", 0x31750838b3d66d01),
    ("hpccg/GTX570/l1", 0x54c9fddac6fc2eac),
    ("heartwall/GTX570/l1", 0x0ebb84f85f2aa5a7),
    ("leukocyte/GTX570/l1", 0x3d0f50942a7caba0),
    ("nw/GTX570/l1", 0xeda81076f6053ec4),
    ("nn/GTX570/l1", 0xb4b034bae01d4f63),
    ("spmv/GTX570/l1", 0xb0b5a5fa4884f39a),
    ("atax/GTX570/l1", 0x1f5a992d66ae4185),
    ("lud/GTX570/l1", 0x06f457e6d351a0f4),
    ("bfs/Tesla K40/no-l1", 0x2c1e221c3b58c92c),
    ("backprop/Tesla K40/no-l1", 0x6dcd7144e938b055),
    ("stencil/Tesla K40/no-l1", 0xda942d43c7a24c9d),
    ("gesummv/Tesla K40/no-l1", 0xbbe1acd5698e07f9),
    ("hpccg/Tesla K40/no-l1", 0x8c9dff523c8ffe3a),
    ("heartwall/Tesla K40/no-l1", 0x925ed6f0c19ebdc3),
    ("leukocyte/Tesla K40/no-l1", 0x402cdd34757a789b),
    ("nw/Tesla K40/no-l1", 0xb4515afb097359aa),
    ("nn/Tesla K40/no-l1", 0x2fed3bbf214f56cf),
    ("spmv/Tesla K40/no-l1", 0xa8d781fe0d3bbe06),
    ("atax/Tesla K40/no-l1", 0x9acc1f0e6b5fd78a),
    ("lud/Tesla K40/no-l1", 0x622cae2ffcfc4998),
    ("bfs/Tesla K40/l1", 0x7df8d381a4dd7cf2),
    ("backprop/Tesla K40/l1", 0xfcc2fefd4bc7cc71),
    ("stencil/Tesla K40/l1", 0xe95ef801072b8090),
    ("gesummv/Tesla K40/l1", 0x3d68d1aa7df2b4c5),
    ("hpccg/Tesla K40/l1", 0x2d3e1840c3733158),
    ("heartwall/Tesla K40/l1", 0x36c92453bd20e339),
    ("leukocyte/Tesla K40/l1", 0x82522f732cb5ae7b),
    ("nw/Tesla K40/l1", 0xb196efff49ce152e),
    ("nn/Tesla K40/l1", 0x7dd5f44481cc85d6),
    ("spmv/Tesla K40/l1", 0x97fe72a7e3187356),
    ("atax/Tesla K40/l1", 0x8cf7ce2614f89ee5),
    ("lud/Tesla K40/l1", 0x064f97b712982599),
    ("bfs/GTX750Ti/no-l1", 0x5c67cadc689fc3c7),
    ("backprop/GTX750Ti/no-l1", 0x83f28fd0f217d657),
    ("stencil/GTX750Ti/no-l1", 0xc8bb70c5440f88b6),
    ("gesummv/GTX750Ti/no-l1", 0x662705b0d5cafca0),
    ("hpccg/GTX750Ti/no-l1", 0xec797a66067cde6c),
    ("heartwall/GTX750Ti/no-l1", 0x32c797feb392498d),
    ("leukocyte/GTX750Ti/no-l1", 0x01c3fe92045559ff),
    ("nw/GTX750Ti/no-l1", 0xbe2d7163c44a5f37),
    ("nn/GTX750Ti/no-l1", 0x5bac729671720926),
    ("spmv/GTX750Ti/no-l1", 0x822aef248577cab6),
    ("atax/GTX750Ti/no-l1", 0x0c75e168753ca421),
    ("lud/GTX750Ti/no-l1", 0xdb999cd33201c9d2),
    ("bfs/GTX750Ti/l1", 0x7ed3aa4b1011f1ff),
    ("backprop/GTX750Ti/l1", 0x0602124b34c82e65),
    ("stencil/GTX750Ti/l1", 0x188b881a5eb69013),
    ("gesummv/GTX750Ti/l1", 0x539e463a16568b78),
    ("hpccg/GTX750Ti/l1", 0xa04a943222e87aaa),
    ("heartwall/GTX750Ti/l1", 0x3c979708d6f562d1),
    ("leukocyte/GTX750Ti/l1", 0xbcbff4d9cce7132c),
    ("nw/GTX750Ti/l1", 0xafa8ab3493ee7fbf),
    ("nn/GTX750Ti/l1", 0x615ce8a5e594c7d2),
    ("spmv/GTX750Ti/l1", 0x46d39ee56a6dfce3),
    ("atax/GTX750Ti/l1", 0xcafe0de1a23ed4f2),
    ("lud/GTX750Ti/l1", 0x843ab054c2ecfa05),
    ("bfs/l2-bypass", 0xdad96aafc1d43f33),
    ("backprop/l2-bypass", 0x7fcc8b477e5f6f50),
    ("stencil/l2-bypass", 0xd34e302d757af147),
    ("gesummv/l2-bypass", 0xb114b362818682f0),
    ("hpccg/l2-bypass", 0x81ebf0f97f04ed2b),
    ("heartwall/l2-bypass", 0x062a48c328db67b5),
    ("leukocyte/l2-bypass", 0xded71b87938db428),
    ("nw/l2-bypass", 0x90cba8b8e879bc20),
    ("nn/l2-bypass", 0xaf7fa36bea83f75d),
    ("spmv/l2-bypass", 0xa572311f23f7fb4d),
    ("atax/l2-bypass", 0x78d0cc6595a033f2),
    ("lud/l2-bypass", 0x6ce3bb0597c64b3c),
    ("bfs/l2-no-l1", 0xc40d37423e8eacc7),
    ("backprop/l2-no-l1", 0xde351cf76a94ab8b),
    ("stencil/l2-no-l1", 0xb76af0f4f7649b69),
    ("gesummv/l2-no-l1", 0x65654e3effab4048),
    ("hpccg/l2-no-l1", 0x27969842de98407d),
    ("heartwall/l2-no-l1", 0x20557e3e291e198a),
    ("leukocyte/l2-no-l1", 0x5bfdf5f2560e18cd),
    ("nw/l2-no-l1", 0xb4515afb097359aa),
    ("nn/l2-no-l1", 0x2fed3bbf214f56cf),
    ("spmv/l2-no-l1", 0xe78ba8312e8698eb),
    ("atax/l2-no-l1", 0xc5b0f0722d26f168),
    ("lud/l2-no-l1", 0x3ef36aa91428c31b),
    ("bfs/faults", 0xe05bf7d24765ddb9),
    ("backprop/faults", 0x7bc837d1803f9344),
    ("stencil/faults", 0xedb8ec9fd80ed65b),
    ("gesummv/faults", 0x67466b16d7ffa120),
    ("hpccg/faults", 0xeb2219230e720224),
    ("heartwall/faults", 0x7c2a936c9e271840),
    ("leukocyte/faults", 0xce2e4a378dbf8c7f),
    ("nw/faults", 0x14c0f64195c3f6f0),
    ("nn/faults", 0xc50e2f095861686f),
    ("spmv/faults", 0xbfa2b920015a5740),
    ("atax/faults", 0x6f449c122fb82c95),
    ("lud/faults", 0x3a7c7a4d24c23ddc),
    ("bfs/drops", 0xc4ba1882d540b858),
    ("backprop/drops", 0x97fab98435450c5e),
    ("stencil/drops", 0xf78807f31be9a3a9),
    ("gesummv/drops", 0xfb0dd89f641d03ca),
    ("hpccg/drops", 0x3372053a72d1af28),
    ("heartwall/drops", 0x385a6b228e360950),
    ("leukocyte/drops", 0x8d618739a2f4b38e),
    ("nw/drops", 0x31d79d50502e6798),
    ("nn/drops", 0x2fa077ee31dd8546),
    ("spmv/drops", 0x392cb811e49e383d),
    ("atax/drops", 0xdbc2a50013a72b2a),
    ("lud/drops", 0x7ece6a294e33c71a),
    ("bfs/drops-no-l1", 0x1ae4dd405b5297e8),
    ("backprop/drops-no-l1", 0xe358cb7dfd9acd78),
    ("stencil/drops-no-l1", 0x0b182c554ca0210a),
    ("gesummv/drops-no-l1", 0x49413d5a8bc492b9),
    ("hpccg/drops-no-l1", 0x4e7abf5e094717eb),
    ("heartwall/drops-no-l1", 0x8525f188e57f3cd8),
    ("leukocyte/drops-no-l1", 0x5b9649a089478fba),
    ("nw/drops-no-l1", 0x03a9d821f13d5203),
    ("nn/drops-no-l1", 0x1effc5737849e558),
    ("spmv/drops-no-l1", 0xc02825c71e486d94),
    ("atax/drops-no-l1", 0xe763532b487f621e),
    ("lud/drops-no-l1", 0x8eb6af3eb724e690),
    ("bfs/trajectory", 0x830031ecb7e1d039),
    ("backprop/trajectory", 0x0cc165ab85ba2990),
    ("stencil/trajectory", 0xd96ff1f9991e3dc1),
    ("gesummv/trajectory", 0x9e6be754b47ad728),
    ("hpccg/trajectory", 0x45a59f167b625388),
    ("heartwall/trajectory", 0xdcf234594b6b0a6a),
    ("leukocyte/trajectory", 0x4772ee58e4082182),
    ("nw/trajectory", 0x86a321a5ed409d51),
    ("nn/trajectory", 0xbce4044edc24e771),
    ("spmv/trajectory", 0x6090c9379ba20827),
    ("atax/trajectory", 0x5ba5c3290d125d2a),
    ("lud/trajectory", 0xd20548cbfefe9365),
    ("bfs/warps=65", 0x73ca9d41aafbca02),
    ("backprop/warps=65", 0xb498d53017a44e72),
    ("stencil/warps=65", 0xa23e15d9a12da50c),
    ("gesummv/warps=65", 0x9b1c30d9600a7550),
    ("hpccg/warps=65", 0xebd5c4b741f87d80),
    ("heartwall/warps=65", 0x768b4bcf94cc8fde),
    ("leukocyte/warps=65", 0x4293ed34adac10a9),
    ("nw/warps=65", 0xa6b9583132c533b0),
    ("nn/warps=65", 0x8652d2bdd8d7a853),
    ("spmv/warps=65", 0xa3f8d162b68c4bd4),
    ("atax/warps=65", 0xb10072c2b141857f),
    ("lud/warps=65", 0x78a9b39a5fe36531),
    ("bfs/warps=100", 0xb4eef39fb178cb22),
    ("backprop/warps=100", 0x6674178f21ea47e2),
    ("stencil/warps=100", 0x9236bc1672703a25),
    ("gesummv/warps=100", 0xd7c523b2c54f1c70),
    ("hpccg/warps=100", 0x940503b34fbc4005),
    ("heartwall/warps=100", 0xe33f761ec92ae871),
    ("leukocyte/warps=100", 0xb07eaa153e8b7f53),
    ("nw/warps=100", 0x32d4d4b866ec38f7),
    ("nn/warps=100", 0xe7c8ebd552dce9d4),
    ("spmv/warps=100", 0xc1ca4dec38c170fd),
    ("atax/warps=100", 0xf606c0d4887eadbe),
    ("lud/warps=100", 0x6511395b79da4abd),
    ("bfs/warps=128", 0x5fa4d8908c3fe9db),
    ("backprop/warps=128", 0x2e84f18986151c57),
    ("stencil/warps=128", 0xa4f0fb2af92c8cad),
    ("gesummv/warps=128", 0xb4d48e0eb6d90a91),
    ("hpccg/warps=128", 0xa15c7fe2065d693d),
    ("heartwall/warps=128", 0xad980d02d6710367),
    ("leukocyte/warps=128", 0x672afba55346f7da),
    ("nw/warps=128", 0x30cb7f91f242b706),
    ("nn/warps=128", 0xd660c439306654bb),
    ("spmv/warps=128", 0x5cef3dd9b19bcb7c),
    ("atax/warps=128", 0x632d364fb693546c),
    ("lud/warps=128", 0xc24d3853b8234eda),
    ("chip/sm0", 0x20d056dbe9d2073c),
    ("chip/sm1", 0x064bbbadbfd3cdfb),
    ("chip/sm2", 0xa1a92520512baaa6),
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

/// `gpu`'s cacheless preset for `w` and the workload `validate_one`
/// simulates on it.
fn preset(gpu: &GpuSpec, w: &Workload) -> (SimConfig, SimWorkload) {
    let model = assemble_model(gpu, w, 0);
    let mut cfg = sim_config_for(gpu, workload_precision(w));
    cfg.request_bytes = 128.0 * w.coalesce;
    let wl = SimWorkload {
        trace: w.trace,
        ops_per_request: model.workload.z,
        ilp: model.workload.e,
        warps: model.workload.n as u32,
    };
    (cfg, wl)
}

/// Run `sm` over the short window and digest what it leaves.
fn finish(mut sm: Sm) -> (u64, SimStats, Option<FaultCounters>) {
    sm.run(WARMUP, MEASURE);
    let faults = sm.fault_counters();
    (digest(sm.stats(), faults), sm.stats().clone(), faults)
}

/// Every case's label and digest, in a fixed order.
fn cases() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let suite = Workload::suite();
    for gpu in GpuSpec::all() {
        for l1 in [None, Some(L1_16K)] {
            for w in &suite {
                let (mut cfg, wl) = preset(&gpu, w);
                cfg.l1 = l1;
                let tag = if l1.is_some() { "l1" } else { "no-l1" };
                let (d, ..) = finish(Sm::new(&cfg, &wl, SEED));
                out.push((format!("{}/{}/{tag}", w.name, gpu.name), d));
            }
        }
    }
    // An L2 stage behind the L1 with half the warps bypassing it, and one
    // with no L1 in front: there the L2 alone reads the addresses.
    let kepler = GpuSpec::kepler_k40();
    for (tag, l1, bypass) in [("l2-bypass", Some(L1_16K), 0.5), ("l2-no-l1", None, 0.0)] {
        for w in &suite {
            let (mut cfg, wl) = preset(&kepler, w);
            cfg.l1 = l1;
            cfg.l2 = Some(L2Config {
                capacity_bytes: 256 * 1024,
                latency: 120,
                bytes_per_cycle: 48.0,
            });
            cfg.bypass_fraction = bypass;
            let (d, ..) = finish(Sm::new(&cfg, &wl, SEED));
            out.push((format!("{}/{tag}", w.name), d));
        }
    }
    // Without an L1, the recovery sweep re-submits lost requests whose
    // addresses nothing reads.
    let fermi = GpuSpec::fermi_gtx570();
    let specs = [
        (
            "faults",
            Some(L1_16K),
            "seed=9,spike=0.05x4,dup=0.05,throttle=700:0.3:0.5",
        ),
        ("drops", Some(L1_16K), "seed=5,drop=0.03,dup=0.02"),
        ("drops-no-l1", None, "seed=5,drop=0.03,dup=0.02"),
    ];
    for (tag, l1, text) in specs {
        let spec = FaultSpec::parse(text).expect("fault spec parses");
        let (mut injected, mut absorbed, mut recovered) = (FaultCounters::default(), 0, 0);
        for w in &suite {
            let (mut cfg, wl) = preset(&fermi, w);
            cfg.l1 = l1;
            let (d, stats, faults) = finish(Sm::with_faults(&cfg, &wl, SEED, &spec));
            let f = faults.expect("an injector reports its counters");
            injected.spikes += f.spikes;
            injected.drops += f.drops;
            injected.dups += f.dups;
            injected.throttled += f.throttled;
            absorbed += stats.spurious_wakes;
            recovered += stats.lost_recovered;
            out.push((format!("{}/{tag}", w.name), d));
        }
        // Each spec reaches the runs: duplicated completions are absorbed
        // rather than waking a warp twice, and the recovery sweep heals
        // dropped ones.
        assert!(injected.dups > 0 && absorbed > 0, "{tag}: {injected:?}");
        if spec.drop_prob > 0.0 {
            assert!(injected.drops > 0 && recovered > 0, "{tag}: {injected:?}");
        } else {
            assert!(
                injected.spikes > 0 && injected.throttled > 0,
                "{tag}: {injected:?}"
            );
        }
    }
    let maxwell = GpuSpec::maxwell_gtx750ti();
    for w in &suite {
        let (cfg, wl) = preset(&maxwell, w);
        let mut sm = Sm::with_initial_ms_fraction(&cfg, &wl, SEED, 0.5);
        sm.trajectory_interval = 37;
        let (d, ..) = finish(sm);
        out.push((format!("{}/trajectory", w.name), d));
    }
    for warps in [65, 100, 128] {
        for w in &suite {
            let (mut cfg, mut wl) = preset(&kepler, w);
            cfg.l1 = Some(CacheConfig { mshrs: 4, ..L1_16K });
            wl.warps = warps;
            let (d, ..) = finish(Sm::new(&cfg, &wl, SEED));
            out.push((format!("{}/warps={warps}", w.name), d));
        }
    }
    // Three SMs on one channel: every completion arrives injected.
    let nodes: Vec<(SimConfig, SimWorkload)> = ["gesummv", "leukocyte", "spmv"]
        .iter()
        .map(|name| {
            let w = Workload::by_name(name).expect("suite app");
            let (mut cfg, wl) = preset(&kepler, &w);
            cfg.l1 = Some(L1_16K);
            (cfg, wl)
        })
        .collect();
    let chip_bw = nodes.iter().map(|(cfg, _)| cfg.dram.bytes_per_cycle).sum();
    let stats = ChipSim::new(&nodes, chip_bw, SEED).run(WARMUP, MEASURE);
    for (i, s) in stats.iter().enumerate() {
        out.push((format!("chip/sm{i}"), digest(s, None)));
    }
    out
}

#[test]
fn sm_runs_match_their_pinned_digests() {
    let got = cases();
    assert_eq!(got.len(), 3 * 2 * 12 + 2 * 12 + 3 * 12 + 12 + 3 * 12 + 3);
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
        "{} of {} Sm runs differ from their pins (got):\n{}",
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
