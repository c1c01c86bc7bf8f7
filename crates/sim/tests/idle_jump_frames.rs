//! Trace frames under idle-cycle jumps: a traced `Sm::run` emits the same
//! `sim.*` events, in the same order and with the same fields, as a
//! traced loop of single-cycle `Sm::step` calls. The obs sink is
//! process-global, so this file holds a single test.

use xmodel_obs::MemSink;
use xmodel_sim::prelude::*;
use xmodel_workloads::TraceSpec;

/// Remove the `"key":value,` field from a JSONL event line (values here
/// hold no commas).
fn drop_field(line: &str, key: &str) -> String {
    let Some(at) = line.find(key) else {
        return line.to_string();
    };
    let end = line[at..].find(',').map_or(line.len(), |i| at + i + 1);
    format!("{}{}", &line[..at], &line[end..])
}

/// The `sim.*` events emitted while `run` runs under a live sink, less the
/// wall-clock stamp and the enclosing span's name.
fn frames(run: impl FnOnce()) -> Vec<String> {
    let sink = MemSink::new();
    xmodel_obs::install(Box::new(sink.clone()));
    run();
    xmodel_obs::finish(None);
    sink.lines()
        .iter()
        .filter(|l| l.contains("\"kind\":\"sim."))
        .map(|l| drop_field(&drop_field(l, "\"t_us\":"), "\"span\":"))
        .collect()
}

#[test]
fn traced_run_emits_the_stepped_loop_frames() {
    let cached = SimConfig::builder()
        .lanes(4.0)
        .dram(400, 8.0)
        .l1(16 * 1024, 28, 64)
        .build();
    let cases = [
        (
            SimConfig::builder().lanes(4.0).dram(540, 13.7).build(),
            TraceSpec::Stream {
                region_lines: 1 << 20,
            },
            None,
            0,
        ),
        (
            cached,
            TraceSpec::PrivateWorkingSet {
                ws_lines: 64,
                stream_prob: 0.5,
                reuse_skew: 1.0,
            },
            Some("seed=5,drop=0.05,spike=0.1x4"),
            37,
        ),
    ];
    for (cfg, trace, faults, trajectory_interval) in cases {
        let wl = SimWorkload {
            trace,
            ops_per_request: 3.0,
            ilp: 1.5,
            warps: 40,
        };
        let build = || {
            let mut sm = match faults {
                Some(spec) => Sm::with_faults(&cfg, &wl, 7, &FaultSpec::parse(spec).unwrap()),
                None => Sm::new(&cfg, &wl, 7),
            };
            sm.trajectory_interval = trajectory_interval;
            sm
        };
        let jumped = frames(|| {
            build().run(3_000, 12_000);
        });
        let stepped = frames(|| {
            let mut sm = build();
            for _ in 0..3_000 {
                sm.step();
            }
            sm.set_measuring(true);
            for _ in 0..12_000 {
                sm.step();
            }
        });
        assert_eq!(jumped, stepped, "{faults:?}");
        assert!(jumped.len() > 40, "{faults:?}: {} frames", jumped.len());
    }
}
