//! Oracle for the idle-cycle jumps: `Sm::run` and `Sm::run_until_requests`
//! must leave an SM exactly where a loop of single-cycle `Sm::step` calls
//! leaves it — the same `SimStats`, cycle, fault draws and outstanding
//! requests — and `Sm::run_watched` must trip on the same cycle. The
//! cases cross the 64- and 128-warp bitset word boundaries, stall and
//! merge on small MSHR files, route through an L2 stage with partial
//! bypass, and inject every DRAM fault.

use proptest::prelude::*;
use xmodel_sim::prelude::*;
use xmodel_workloads::TraceSpec;

#[derive(Debug, Clone)]
struct Case {
    cfg: SimConfig,
    wl: SimWorkload,
    seed: u64,
    ms_fraction: f64,
    faults: Option<&'static str>,
    trajectory_interval: u64,
}

impl Case {
    fn sm(&self) -> Sm {
        let mut sm = match self.faults {
            Some(spec) => {
                let spec = FaultSpec::parse(spec).expect("valid fault spec");
                Sm::with_faults(&self.cfg, &self.wl, self.seed, &spec)
            }
            None => Sm::with_initial_ms_fraction(&self.cfg, &self.wl, self.seed, self.ms_fraction),
        };
        sm.trajectory_interval = self.trajectory_interval;
        sm
    }
}

type Outcome = (SimStats, u64, Option<FaultCounters>, usize);

fn outcome(sm: &Sm) -> Outcome {
    (
        sm.stats().clone(),
        sm.cycle(),
        sm.fault_counters(),
        sm.outstanding_requests(),
    )
}

/// The reference for `Sm::run`: every cycle stepped.
fn stepped_run(sm: &mut Sm, warmup: u64, measure: u64) {
    sm.set_measuring(false);
    for _ in 0..warmup {
        sm.step();
    }
    sm.set_measuring(true);
    for _ in 0..measure {
        sm.step();
    }
}

/// The reference for `Sm::run_watched` without a wall-clock budget: every
/// cycle stepped, the budgets checked after every 512th.
fn stepped_watched(
    sm: &mut Sm,
    warmup: u64,
    measure: u64,
    watchdog: &Watchdog,
) -> Result<(), SimError> {
    let mut last_completed = sm.stats().requests_completed;
    let mut last_progress = 0;
    let mut measuring = false;
    sm.set_measuring(false);
    for i in 0..warmup + measure {
        if i == warmup {
            measuring = true;
            sm.set_measuring(true);
            last_progress = i;
        }
        sm.step();
        if i % 512 == 0 {
            let completed = sm.stats().requests_completed;
            if completed != last_completed {
                last_completed = completed;
                last_progress = i;
            }
            let stalled = if measuring { i - last_progress } else { 0 };
            let reason = if i + 1 >= watchdog.max_cycles {
                "cycle budget exhausted"
            } else if stalled >= watchdog.stall_cycles {
                "no forward progress"
            } else {
                continue;
            };
            return Err(SimError::Watchdog {
                reason,
                cycles: i + 1,
                requests_completed: completed,
            });
        }
    }
    Ok(())
}

/// The reference for `Sm::run_until_requests`: every cycle stepped.
fn stepped_until(sm: &mut Sm, requests: u64, max_cycles: u64) -> Option<u64> {
    sm.set_measuring(true);
    let start = sm.cycle();
    while sm.stats().requests_completed < requests {
        if sm.cycle() - start >= max_cycles {
            return None;
        }
        sm.step();
    }
    Some(sm.cycle() - start)
}

fn any_trace() -> impl Strategy<Value = TraceSpec> {
    prop_oneof![
        (8u64..4096).prop_map(|r| TraceSpec::Stream { region_lines: r }),
        (1u64..64, 0.0f64..0.5, 0.0f64..2.0).prop_map(|(w, p, k)| {
            TraceSpec::PrivateWorkingSet {
                ws_lines: w,
                stream_prob: p,
                reuse_skew: k,
            }
        }),
        (1u64..32, 16u64..1024, 0.0f64..1.0).prop_map(|(v, r, p)| TraceSpec::SharedVector {
            vector_lines: v,
            region_lines: r,
            vector_prob: p,
        }),
    ]
}

fn any_config() -> impl Strategy<Value = SimConfig> {
    let core = (1.0f64..8.0, 1u32..5, 1u32..5, 20u64..600, 2.0f64..64.0);
    let l1 = prop::option::of((
        prop::sample::select(vec![1024u64, 4096, 16 * 1024]),
        1u64..40,
        1u32..5,
    ));
    let l2 = prop::option::of((
        prop::sample::select(vec![2048u64, 64 * 1024]),
        10u64..200,
        8.0f64..128.0,
    ));
    let bypass = prop_oneof![Just(0.0), 0.0f64..1.0, Just(1.0)];
    let request_bytes = prop::sample::select(vec![32.0, 128.0, 384.0]);
    (core, l1, l2, bypass, request_bytes).prop_map(
        |((lanes, issue, lsu, latency, bw), l1, l2, bypass, request_bytes)| {
            let mut b = SimConfig::builder()
                .lanes(lanes)
                .issue_width(issue)
                .lsu(lsu)
                .dram(latency, bw)
                .bypass(bypass)
                .request_bytes(request_bytes);
            if let Some((capacity, hit_latency, mshrs)) = l1 {
                b = b.l1(capacity, hit_latency, mshrs);
            }
            if let Some((capacity, l2_latency, l2_bw)) = l2 {
                b = b.l2(capacity, l2_latency, l2_bw);
            }
            b.build()
        },
    )
}

/// Few warps idle most often; 63–65 and 127–130 straddle bitset words.
fn any_warps() -> impl Strategy<Value = u32> {
    prop_oneof![
        1u32..9,
        1u32..131,
        prop::sample::select(vec![63u32, 64, 65, 127, 128, 129, 130]),
    ]
}

fn any_case() -> impl Strategy<Value = Case> {
    let wl = (any_trace(), any_warps(), 0.3f64..40.0, 1.0f64..3.0);
    let faults = prop::option::of(prop::sample::select(vec![
        "seed=3,spike=0.2x6",
        "seed=5,drop=0.05",
        "seed=7,dup=0.1",
        "seed=9,throttle=700:0.4:0.2",
        "seed=11,spike=0.05x8,drop=0.02,dup=0.02,throttle=2000:0.25:0.5",
        "seed=13,drop=1",
    ]));
    let ms_fraction = prop_oneof![Just(0.0), 0.0f64..1.0, Just(1.0)];
    let trajectory_interval = prop::sample::select(vec![0u64, 1, 37, 256]);
    (
        any_config(),
        wl,
        0u64..1000,
        ms_fraction,
        faults,
        trajectory_interval,
    )
        .prop_map(
            |(cfg, (trace, warps, z, e), seed, ms_fraction, faults, trajectory_interval)| Case {
                cfg,
                wl: SimWorkload {
                    trace,
                    ops_per_request: z,
                    ilp: e,
                    warps,
                },
                seed,
                ms_fraction,
                faults,
                trajectory_interval,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// `Sm::run` equals the stepped loop, zero-length phases included.
    #[test]
    fn run_equals_the_stepped_loop(
        case in any_case(),
        warmup in prop::sample::select(vec![0u64, 1, 700, 2500]),
        measure in prop::sample::select(vec![0u64, 1, 300, 4000, 12_000]),
    ) {
        let mut jumped = case.sm();
        jumped.run(warmup, measure);
        let mut stepped = case.sm();
        stepped_run(&mut stepped, warmup, measure);
        prop_assert_eq!(outcome(&jumped), outcome(&stepped));
    }

    /// `Sm::run_watched` trips on the same cycle as the stepped loop, or
    /// finishes as it does.
    #[test]
    fn run_watched_equals_the_stepped_loop(
        case in any_case(),
        warmup in prop::sample::select(vec![0u64, 1, 1500]),
        measure in prop::sample::select(vec![0u64, 1, 6000]),
        max_cycles in prop::sample::select(vec![u64::MAX, 1, 513, 1800, 5000]),
        stall_cycles in prop::sample::select(vec![u64::MAX, 600, 2500]),
    ) {
        let watchdog = Watchdog { max_cycles, stall_cycles, ..Watchdog::default() };
        let mut jumped = case.sm();
        let a = jumped.run_watched(warmup, measure, &watchdog).map(|_| ());
        let mut stepped = case.sm();
        let b = stepped_watched(&mut stepped, warmup, measure, &watchdog);
        prop_assert_eq!(a, b);
        prop_assert_eq!(outcome(&jumped), outcome(&stepped));
    }

    /// `Sm::run_until_requests` returns what the stepped loop returns and
    /// stops on the same cycle, after a warm-up or none.
    #[test]
    fn run_until_requests_equals_the_stepped_loop(
        case in any_case(),
        warmup in prop::sample::select(vec![0u64, 900]),
        requests in 0u64..150,
        max_cycles in prop::sample::select(vec![0u64, 1, 2000, 8000]),
    ) {
        let mut jumped = case.sm();
        jumped.run(warmup, 0);
        let a = jumped.run_until_requests(requests, max_cycles);
        let mut stepped = case.sm();
        stepped_run(&mut stepped, warmup, 0);
        let b = stepped_until(&mut stepped, requests, max_cycles);
        prop_assert_eq!(a, b);
        prop_assert_eq!(outcome(&jumped), outcome(&stepped));
    }
}
