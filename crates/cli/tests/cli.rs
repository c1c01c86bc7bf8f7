//! End-to-end tests of the `xmodel` binary.

use std::process::Command;

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_xmodel"))
        .args(args)
        .output()
        .expect("spawn xmodel");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn no_args_prints_usage_and_fails() {
    let (ok, _, err) = run(&[]);
    assert!(!ok);
    assert!(err.contains("usage: xmodel"));
}

#[test]
fn unknown_command_fails_with_message() {
    let (ok, _, err) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(err.contains("unknown command"));
}

#[test]
fn list_shows_gpus_and_workloads() {
    let (ok, out, _) = run(&["list"]);
    assert!(ok);
    assert!(out.contains("GTX570"));
    assert!(out.contains("Tesla K40"));
    assert!(out.contains("gesummv"));
    assert!(out.contains("leukocyte"));
}

#[test]
fn glossary_lists_table1() {
    let (ok, out, _) = run(&["glossary"]);
    assert!(ok);
    assert!(out.contains("Compute intensity"));
    assert!(out.contains("psi"));
}

#[test]
fn draw_with_explicit_params() {
    let (ok, out, _) = run(&[
        "draw", "--m", "4", "--r", "0.1", "--l", "500", "--z", "20", "--n", "48",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("state:"));
    assert!(out.contains("X-graph"));
    assert!(out.contains("bound:"));
    assert!(out.contains("advice:"));
}

#[test]
fn draw_with_gpu_preset_and_units() {
    let (ok, out, _) = run(&[
        "draw", "--gpu", "kepler", "--z", "20", "--e", "1.2", "--n", "64",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("GB/s"));
    assert!(out.contains("GF/s"));
}

#[test]
fn draw_missing_params_fails() {
    let (ok, _, err) = run(&["draw", "--gpu", "kepler"]);
    assert!(!ok);
    assert!(err.contains("--z required"));
}

#[test]
fn draw_bad_gpu_fails() {
    let (ok, _, err) = run(&["draw", "--gpu", "voodoo2", "--z", "1", "--n", "1"]);
    assert!(!ok);
    assert!(err.contains("unknown GPU"));
}

#[test]
fn draw_writes_svg() {
    let dir = std::env::temp_dir().join("xmodel_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("graph.svg");
    let path_str = path.to_str().unwrap();
    let (ok, out, _) = run(&[
        "draw", "--m", "4", "--r", "0.1", "--l", "500", "--z", "20", "--n", "48", "--svg", path_str,
    ]);
    assert!(ok, "{out}");
    let svg = std::fs::read_to_string(&path).unwrap();
    assert!(svg.contains("<svg"));
    std::fs::remove_file(path).ok();
}

#[test]
fn draw_with_cache_reports_cached_curve() {
    let (ok, out, _) = run(&[
        "draw", "--m", "6", "--r", "0.02", "--l", "600", "--z", "66", "--e", "0.25", "--n", "60",
        "--l1", "16", "--alpha", "5", "--beta", "2048",
    ]);
    assert!(ok, "{out}");
    // The bistable configuration shows several intersections.
    assert!(out.matches("state:").count() >= 3, "{out}");
    assert!(out.contains("UNSTABLE"));
    assert!(out.contains("bistable"));
}

#[test]
fn workload_command_analyzes_suite_member() {
    let (ok, out, _) = run(&["workload", "spmv", "--gpu", "kepler"]);
    assert!(ok, "{out}");
    assert!(out.contains("spmv on Tesla K40"));
    assert!(out.contains("extracted: E="));
}

#[test]
fn workload_unknown_name_fails() {
    let (ok, _, err) = run(&["workload", "doom"]);
    assert!(!ok);
    assert!(err.contains("unknown workload"));
}

#[test]
fn sim_runs_parametric_and_ir() {
    let (ok, out, _) = run(&["sim", "--workload", "spmv", "--warps", "16"]);
    assert!(ok, "{out}");
    assert!(out.contains("parametric"));
    assert!(out.contains("spatial state"));
    let (ok, out, _) = run(&["sim", "--workload", "spmv", "--warps", "16", "--ir"]);
    assert!(ok, "{out}");
    assert!(out.contains("IR"));
}

#[test]
fn sim_with_l1_reports_hit_rate() {
    let (ok, out, _) = run(&[
        "sim",
        "--workload",
        "gesummv",
        "--gpu",
        "fermi",
        "--l1",
        "16",
        "--warps",
        "24",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("hit rate"));
}

#[test]
fn whatif_runs_case_study() {
    let (ok, out, _) = run(&[
        "whatif",
        "--gpu",
        "fermi",
        "--workload",
        "gesummv",
        "--l1",
        "16",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("thrashing"));
    assert!(out.contains("bypass"));
}

/// Like [`run`], but with extra environment variables set.
fn run_env(args: &[&str], envs: &[(&str, &str)]) -> (bool, String, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_xmodel"));
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("spawn xmodel");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("xmodel_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{}-{name}", std::process::id()))
}

#[test]
fn help_documents_observability_env_vars() {
    let (ok, _, err) = run(&["--help"]);
    assert!(ok);
    assert!(err.contains("XMODEL_TRACE"), "{err}");
    assert!(err.contains("XMODEL_METRICS_ADDR"), "{err}");
    assert!(err.contains("--metrics-addr"), "{err}");
    assert!(err.contains("profile FILE"), "{err}");
}

#[test]
fn trace_flag_wins_over_env_var() {
    let flag_trace = temp_path("flag.jsonl");
    let env_trace = temp_path("env.jsonl");
    let (ok, _, _) = run_env(
        &["list", "--trace", flag_trace.to_str().unwrap()],
        &[("XMODEL_TRACE", env_trace.to_str().unwrap())],
    );
    assert!(ok);
    assert!(flag_trace.exists(), "--trace path must be used");
    assert!(!env_trace.exists(), "env path must be ignored when flagged");
    std::fs::remove_file(&flag_trace).ok();
}

#[test]
fn trace_env_var_used_when_flag_absent() {
    let env_trace = temp_path("env-only.jsonl");
    let (ok, _, _) = run_env(&["list"], &[("XMODEL_TRACE", env_trace.to_str().unwrap())]);
    assert!(ok);
    let text = std::fs::read_to_string(&env_trace).expect("env trace written");
    assert!(text.contains("\"kind\":\"run_manifest\""));
    std::fs::remove_file(&env_trace).ok();
}

#[test]
fn metrics_addr_flag_wins_over_env_var() {
    // The env var is unbindable garbage; the flag is valid. Success plus
    // a serving line proves the flag took precedence.
    let (ok, _, err) = run_env(
        &["list", "--metrics-addr", "127.0.0.1:0"],
        &[("XMODEL_METRICS_ADDR", "not-an-address")],
    );
    assert!(ok, "{err}");
    assert!(err.contains("metrics: serving http://127.0.0.1:"), "{err}");
}

#[test]
fn metrics_exporter_absent_without_flag_or_env() {
    let (ok, _, err) = run(&["list"]);
    assert!(ok);
    assert!(!err.contains("metrics:"), "{err}");
}

#[test]
fn metrics_addr_invalid_fails() {
    let (ok, _, err) = run(&["list", "--metrics-addr", "not-an-address"]);
    assert!(!ok);
    assert!(err.contains("--metrics-addr"), "{err}");
}

#[test]
fn profile_command_renders_call_tree_and_folded_stacks() {
    let trace = temp_path("profile.jsonl");
    let folded = temp_path("profile.folded");
    let (ok, _, _) = run(&[
        "validate",
        "--gpu",
        "kepler",
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert!(ok);

    let (ok, out, _) = run(&[
        "profile",
        trace.to_str().unwrap(),
        "--folded",
        folded.to_str().unwrap(),
    ]);
    assert!(ok, "{out}");
    // Call-tree table with self/total/percentile columns.
    assert!(out.contains("total ms"), "{out}");
    assert!(out.contains("self ms"), "{out}");
    assert!(out.contains("p95"), "{out}");
    assert!(out.contains("sim.measure"), "{out}");
    assert!(out.contains("hot spans"), "{out}");

    // Folded-stack file: `frame;frame value` lines, flamegraph.pl-style.
    let text = std::fs::read_to_string(&folded).expect("folded file written");
    assert!(!text.is_empty());
    for line in text.lines() {
        let (stack, value) = line.rsplit_once(' ').expect("stack + count");
        assert!(!stack.is_empty());
        assert!(value.parse::<u64>().is_ok(), "bad folded line: {line}");
    }
    assert!(
        text.lines().any(|l| l.starts_with("sim.run;")),
        "nested stacks present:\n{text}"
    );
    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&folded).ok();
}

#[test]
fn trace_report_profile_flag_appends_profile() {
    let trace = temp_path("tr-profile.jsonl");
    let (ok, _, _) = run(&[
        "sim",
        "--workload",
        "spmv",
        "--warps",
        "8",
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert!(ok);
    let (ok, out, _) = run(&["trace-report", trace.to_str().unwrap(), "--profile"]);
    assert!(ok, "{out}");
    assert!(out.contains("events:"), "{out}");
    assert!(out.contains("self ms"), "{out}");
    std::fs::remove_file(&trace).ok();
}

#[test]
fn profile_and_trace_report_survive_malformed_traces() {
    const SPAN: &str = "{\"kind\":\"span\",\"t_us\":1,\"name\":\"a\",\"dur_us\":5}";
    let empty = temp_path("empty.jsonl");
    std::fs::write(&empty, "").unwrap();
    let (ok, out, _) = run(&["profile", empty.to_str().unwrap()]);
    assert!(ok, "{out}");
    assert!(out.contains("warning"), "{out}");
    let (ok, out, _) = run(&["trace-report", empty.to_str().unwrap()]);
    assert!(ok, "{out}");
    assert!(out.contains("warning: trace is empty"), "{out}");

    let torn = temp_path("torn.jsonl");
    std::fs::write(&torn, format!("{SPAN}\n{{\"kind\":\"sp")).unwrap();
    let (ok, out, _) = run(&["profile", torn.to_str().unwrap()]);
    assert!(ok, "{out}");
    assert!(out.contains("malformed"), "{out}");
    assert!(out.contains('a'), "{out}");
    let (ok, out, _) = run(&["trace-report", torn.to_str().unwrap()]);
    assert!(ok, "{out}");
    assert!(out.contains("1 malformed"), "{out}");

    // A line nested far past the parser's depth cap is one more
    // malformed line, not a stack overflow.
    let deep = temp_path("deep.jsonl");
    std::fs::write(&deep, format!("{SPAN}\n{}\n", "[".repeat(200_000))).unwrap();
    for command in ["profile", "trace-report"] {
        let (ok, out, _) = run(&[command, deep.to_str().unwrap()]);
        assert!(ok, "{command}: {out}");
        assert!(out.contains("1 malformed"), "{command}: {out}");
    }

    // A simulator trace with an invalid UTF-8 byte appended reads the
    // same way in every trace command: the byte is one malformed line.
    let sim = temp_path("sim-utf8.jsonl");
    let (ok, _, err) = run(&[
        "sim",
        "--workload",
        "gesummv",
        "--gpu",
        "fermi",
        "--l1",
        "16",
        "--trace",
        sim.to_str().unwrap(),
    ]);
    assert!(ok, "{err}");
    let invalid = temp_path("sim-utf8-invalid.jsonl");
    let mut bytes = std::fs::read(&sim).unwrap();
    bytes.extend_from_slice(b"\xff\n");
    std::fs::write(&invalid, bytes).unwrap();
    let (sim, invalid) = (sim.to_str().unwrap(), invalid.to_str().unwrap());
    let commands: [&[&str]; 5] = [
        &["trace-report", invalid, "--timeline"],
        &["profile", invalid],
        &["sim-report", invalid],
        &["residuals", invalid],
        &["trace-diff", invalid, sim],
    ];
    for command in commands {
        let (ok, out, err) = run(command);
        assert!(ok, "{command:?}: {err}");
        assert!(!out.is_empty(), "{command:?}: no report");
    }
    std::fs::remove_file(&empty).ok();
    std::fs::remove_file(&torn).ok();
    std::fs::remove_file(&deep).ok();
    std::fs::remove_file(sim).ok();
    std::fs::remove_file(invalid).ok();
}

#[test]
fn sweep_emits_schema_and_rows() {
    let (ok, out, _) = run(&[
        "sweep", "--gpu", "kepler", "--z", "24", "--e", "1.2", "--n-max", "64", "--points", "8",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("\"schema\": \"xmodel-sweep/1\""), "{out}");
    assert!(out.matches("\"n\": ").count() >= 8, "{out}");
    assert!(out.contains("\"stability\": \"stable\""), "{out}");
}

#[test]
fn sweep_requires_n_max() {
    let (ok, _, err) = run(&["sweep", "--gpu", "kepler", "--z", "24"]);
    assert!(!ok);
    assert!(err.contains("--n-max"), "{err}");
}

/// Run `xmodel` to completion, killing it and failing the test if it
/// is still running after 20 s (a `serve` that started instead of
/// rejecting its arguments).
fn run_bounded(args: &[&str]) -> std::process::Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_xmodel"))
        .args(args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn xmodel");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while child.try_wait().expect("poll child").is_none() {
        if std::time::Instant::now() > deadline {
            child.kill().ok();
            panic!("{args:?}: still running after 20 s");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    child.wait_with_output().expect("collect output")
}

/// Every command rejects a flag it does not read, before doing any
/// work: a misspelt flag must not run the default in its place.
#[test]
fn commands_reject_flags_they_do_not_read() {
    let simtrace = concat!(env!("CARGO_MANIFEST_DIR"), "/../../SIMTRACE_seed.jsonl");
    let cases: [(&[&str], &str); 15] = [
        (&["list"], "--gpu"),
        (&["glossary"], "--bogus"),
        (
            &["draw", "--gpu", "kepler", "--z", "20", "--n", "48"],
            "--l1-lat",
        ),
        (&["workload", "gesummv", "--gpu", "fermi"], "--L1"),
        (&["validate", "--gpu", "fermi"], "--l1"),
        (&["whatif", "--gpu", "fermi"], "--wokload"),
        (
            &["serve", "--addr", "127.0.0.1:0", "--workers", "1"],
            "--queue-capacity",
        ),
        (&["sim", "--workload", "nn", "--gpu", "fermi"], "--warp"),
        (
            &["sweep", "--gpu", "kepler", "--z", "24", "--n-max", "64"],
            "--warm",
        ),
        (
            &["sweep", "--gpu", "kepler", "--z", "24", "--n-max", "64"],
            "--point",
        ),
        (&["trace-report", simtrace], "--timelines"),
        (&["sim-report", simtrace], "--heat-map"),
        (&["residuals", simtrace], "--tol"),
        (&["profile", simtrace], "--fold"),
        (&["trace-diff", simtrace, simtrace], "--min-ms"),
    ];
    for (args, flag) in cases {
        let out = run_bounded(&[args, &[flag, "16"]].concat());
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} {flag}: {err}");
        assert!(err.contains(flag), "{args:?}: {flag} not named: {err}");
        assert!(
            out.stdout.is_empty(),
            "{args:?} {flag}: no run on a usage error"
        );
    }
}

/// `list` and `glossary` take no arguments, stray words included.
#[test]
fn list_and_glossary_reject_stray_arguments() {
    for command in ["list", "glossary"] {
        let (ok, out, err) = run(&[command, "fermi"]);
        assert!(!ok, "{command}: {out}");
        assert!(err.contains("`fermi`"), "{command}: {err}");
        assert!(out.is_empty(), "{command}: no run on a usage error");
    }
}

/// An output file that cannot be written is a typed error naming the
/// file (exit 1, no usage text), in every command that writes one.
#[test]
fn unwritable_output_file_is_a_typed_error() {
    let simtrace = concat!(env!("CARGO_MANIFEST_DIR"), "/../../SIMTRACE_seed.jsonl");
    let bad = temp_path("no-such-dir").join("out");
    let bad = bad.to_str().unwrap();
    let cases: [&[&str]; 8] = [
        &[
            "draw", "--gpu", "fermi", "--z", "4", "--e", "1", "--n", "32", "--svg", bad,
        ],
        &["workload", "nn", "--gpu", "fermi", "--svg", bad],
        &["trace-report", simtrace, "--svg", bad],
        &["sim-report", simtrace, "--svg", bad],
        &["sim-report", simtrace, "--heatmap", bad],
        &["profile", simtrace, "--folded", bad],
        &["trace-diff", simtrace, simtrace, "--folded", bad],
        &[
            "sweep", "--gpu", "kepler", "--z", "24", "--n-max", "64", "--out", bad,
        ],
    ];
    for args in cases {
        let out = run_bounded(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.contains(&format!("error: {bad}: ")), "{args:?}: {err}");
        assert!(!err.contains("usage"), "{args:?}: {err}");
    }
}

/// A full stdout is a typed error naming stdout (exit 1, no usage
/// text), never a panic, in the one-shot commands. Skipped where there
/// is no `/dev/full`.
#[test]
fn full_stdout_is_a_typed_error() {
    let Ok(full) = std::fs::OpenOptions::new().write(true).open("/dev/full") else {
        return;
    };
    let trace = concat!(env!("CARGO_MANIFEST_DIR"), "/../../TRACE_seed.jsonl");
    let cases: [&[&str]; 6] = [
        &["list"],
        &["glossary"],
        &["workload", "gesummv", "--gpu", "fermi", "--l1", "16"],
        &["validate", "--gpu", "fermi"],
        &[
            "draw", "--gpu", "kepler", "--z", "20", "--e", "1.2", "--n", "64",
        ],
        &["trace-report", trace, "--profile"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_xmodel"))
            .args(args)
            .stdout(full.try_clone().expect("reopen /dev/full"))
            .output()
            .expect("spawn xmodel");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.starts_with("error: stdout: "), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(!err.contains("usage"), "{args:?}: {err}");
    }
}

/// A full stderr changes no exit code and no stdout byte: `help` is
/// still exit 0, an unknown command exit 2, and a degraded `draw` exit 0
/// with its warning line dropped, never a panic (101). Skipped where
/// there is no `/dev/full`.
#[test]
fn full_stderr_keeps_exit_codes_and_stdout() {
    let Ok(full) = std::fs::OpenOptions::new().write(true).open("/dev/full") else {
        return;
    };
    let draw = [
        "draw",
        "--m",
        "6",
        "--r",
        "0.107",
        "--l",
        "520",
        "--z",
        "20",
        "--e",
        "1",
        "--n",
        "48",
        "--fault-spec",
        "solver=no-bracket",
    ];
    let cases: [(&[&str], i32); 3] = [(&["help"], 0), (&["frobnicate"], 2), (&draw, 0)];
    for (args, code) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_xmodel"))
            .args(args)
            .stderr(full.try_clone().expect("reopen /dev/full"))
            .output()
            .expect("spawn xmodel");
        assert_eq!(out.status.code(), Some(code), "{args:?}");
        let (_, want, err) = run(args);
        assert_eq!(String::from_utf8_lossy(&out.stdout), want, "{args:?}");
        assert!(!err.is_empty(), "{args:?} writes stderr");
    }
}

/// `trace-report --svg` on a trace without simulator snapshots says
/// it writes nothing.
#[test]
fn trace_report_svg_says_when_it_skips() {
    let trace = concat!(env!("CARGO_MANIFEST_DIR"), "/../../TRACE_seed.jsonl");
    let svg = temp_path("tr-skip.svg");
    let svg = svg.to_str().unwrap();
    let (ok, out, err) = run(&["trace-report", trace, "--svg", svg]);
    assert!(ok, "{err}");
    assert!(
        out.contains(&format!("skipping {svg}: no snapshot frames to chart")),
        "{out}"
    );
    assert!(!std::path::Path::new(svg).exists());
}

/// `sim` rejects what it does not read instead of running the default:
/// a workload named without `--workload` and misspelt or unknown flags.
#[test]
fn sim_rejects_flags_and_arguments_it_does_not_read() {
    let cases: [(&[&str], &str); 5] = [
        (&["sim", "bfs", "--gpu", "fermi"], "--workload bfs"),
        (&["sim", "--gpu", "fermi", "bfs"], "--workload bfs"),
        (&["sim", "--gpu", "fermi", "--L1", "16"], "--L1"),
        (&["sim", "--gpu", "fermi", "--warp", "8"], "--warp"),
        (&["sim", "--gpu", "fermi", "--cycles", "1000"], "--cycles"),
    ];
    for (args, named) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_xmodel"))
            .args(args)
            .output()
            .expect("spawn xmodel");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(named), "{args:?}: `{named}` not named: {err}");
        assert!(out.stdout.is_empty(), "{args:?}: no run on a usage error");
    }
    // The global flags are stripped before `sim` sees its arguments.
    let trace = temp_path("sim-globals.jsonl");
    let (ok, out, err) = run(&[
        "sim",
        "--workload",
        "nn",
        "--gpu",
        "fermi",
        "--warps",
        "8",
        "--fault-spec",
        "seed=1,spike=0.1x2",
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert!(ok, "{err}");
    assert!(out.contains("nn on GTX570 (8 warps"), "{out}");
    assert!(err.contains("injected memory faults"), "{err}");
    assert!(std::fs::metadata(&trace).unwrap().len() > 0);
    std::fs::remove_file(&trace).ok();
}

/// `--l1` outside 0–64 KiB is a usage error naming the flag, in every
/// command that fits locality to it or simulates it — not a cacheless
/// model, an overflowed byte count, an exabyte cache allocation or an
/// underflowed Fermi shared-memory split.
#[test]
fn l1_out_of_range_is_a_usage_error() {
    let simtrace = concat!(env!("CARGO_MANIFEST_DIR"), "/../../SIMTRACE_seed.jsonl");
    let commands: [&[&str]; 4] = [
        &["workload", "gesummv"],
        &["whatif", "--workload", "gesummv"],
        &["residuals", simtrace],
        &["sim", "--workload", "gesummv"],
    ];
    for command in commands {
        for l1 in ["-16", "NaN", "1e30", "100"] {
            let out = Command::new(env!("CARGO_BIN_EXE_xmodel"))
                .args(command)
                .args(["--gpu", "fermi", "--l1", l1])
                .output()
                .expect("spawn xmodel");
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{command:?} --l1 {l1}: {err}");
            assert!(err.contains("--l1"), "{command:?} --l1 {l1}: {err}");
            assert!(out.stdout.is_empty(), "{command:?} --l1 {l1}: no output");
        }
    }
}

/// `sim --warps` takes a whole number from 1 to the preset's
/// `max_warps` (48 on Fermi): not a panic on zero, a huge allocation,
/// or a silently truncated fraction.
#[test]
fn sim_warps_out_of_range_is_a_usage_error() {
    for warps in ["0", "-3", "NaN", "2.5", "1e30", "49"] {
        let out = Command::new(env!("CARGO_BIN_EXE_xmodel"))
            .args(["sim", "--workload", "gesummv", "--gpu", "fermi"])
            .args(["--warps", warps])
            .output()
            .expect("spawn xmodel");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--warps {warps}: {err}");
        assert!(err.contains("--warps"), "--warps {warps}: {err}");
        assert!(out.stdout.is_empty(), "--warps {warps}: no output");
    }
    let (ok, out, err) = run(&[
        "sim",
        "--workload",
        "gesummv",
        "--gpu",
        "fermi",
        "--warps",
        "48",
    ]);
    assert!(ok, "{err}");
    assert!(out.contains("(48 warps"), "{out}");
}

/// `--l1` on the analytic model (`draw`, `sweep`) is a size from 0 KiB
/// up: a negative or non-finite value is a usage error naming the flag,
/// not a cacheless model or a model error from an infinite cache.
#[test]
fn model_l1_negative_or_non_finite_is_a_usage_error() {
    let commands: [&[&str]; 2] = [
        &["draw", "--gpu", "fermi", "--z", "16", "--n", "32"],
        &["sweep", "--gpu", "fermi", "--z", "16", "--n-max", "64"],
    ];
    for command in commands {
        for l1 in ["-16", "NaN", "inf"] {
            let out = Command::new(env!("CARGO_BIN_EXE_xmodel"))
                .args(command)
                .args(["--l1", l1])
                .output()
                .expect("spawn xmodel");
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{command:?} --l1 {l1}: {err}");
            assert!(err.contains("--l1"), "{command:?} --l1 {l1}: {err}");
            assert!(out.stdout.is_empty(), "{command:?} --l1 {l1}: no output");
        }
    }
}

/// `sweep` caps `--points` at 2^20 rows and `--samples` at
/// `solver::MAX_SAMPLES`, so a huge value is a usage error instead of an
/// aborted allocation, a capacity-overflow panic or a hang. Each run is
/// held to 2 GB of address space and 20 s of CPU, so a regression fails
/// here rather than taking the host's memory.
#[test]
fn sweep_rejects_huge_points_and_samples() {
    let cases = [
        ("--points", "100000000000"),
        ("--points", "18446744073709551615"),
        ("--samples", "1000000000000"),
        ("--samples", "18446744073709551615"),
    ];
    for (flag, value) in cases {
        let out = Command::new("sh")
            .args([
                "-c",
                r#"ulimit -v 2000000 && ulimit -t 20 && exec "$@""#,
                "sh",
            ])
            .arg(env!("CARGO_BIN_EXE_xmodel"))
            .args(["sweep", "--gpu", "fermi", "--z", "16", "--n-max", "64"])
            .args([flag, value])
            .output()
            .expect("spawn xmodel");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {err}");
        assert!(err.contains(flag), "{flag} {value}: {err}");
        assert!(out.stdout.is_empty(), "{flag} {value}: no output");
    }
}

#[test]
fn l1_range_ends_are_accepted() {
    for l1 in ["0", "64"] {
        let (ok, out, err) = run(&["workload", "gesummv", "--gpu", "fermi", "--l1", l1]);
        assert!(ok, "--l1 {l1}: {err}");
        assert!(out.contains(&format!("(L1 {l1} KiB)")), "{out}");
    }
}

#[test]
fn sweep_output_is_byte_identical_for_any_jobs() {
    let args = [
        "sweep", "--gpu", "fermi", "--z", "16", "--l1", "16", "--n-max", "48", "--points", "64",
    ];
    let with_jobs = |j: &str| {
        let (ok, out, err) = run(&[&args[..], &["--jobs", j]].concat());
        assert!(ok, "{err}");
        out
    };
    let one = with_jobs("1");
    assert_eq!(one, with_jobs("4"), "--jobs must not change the bytes");
    // XMODEL_JOBS is the fallback when the flag is absent.
    let (ok, out, err) = run_env(&args, &[("XMODEL_JOBS", "3")]);
    assert!(ok, "{err}");
    assert_eq!(one, out, "XMODEL_JOBS must not change the bytes");
}

#[test]
fn sweep_writes_out_file() {
    let path = temp_path("sweep.json");
    let (ok, out, err) = run(&[
        "sweep",
        "--gpu",
        "maxwell",
        "--z",
        "30",
        "--n-max",
        "32",
        "--points",
        "4",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(ok, "{err}");
    assert!(out.contains("wrote "), "{out}");
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains("\"xmodel-sweep/1\""));
    std::fs::remove_file(&path).ok();
}

fn span_line(name: &str, parent: Option<&str>, dur_us: u64) -> String {
    match parent {
        Some(p) => format!(
            r#"{{"kind":"span","t_us":1,"name":"{name}","dur_us":{dur_us},"parent":"{p}"}}"#
        ),
        None => format!(r#"{{"kind":"span","t_us":1,"name":"{name}","dur_us":{dur_us}}}"#),
    }
}

fn write_trace(name: &str, spans: &[(&str, Option<&str>, u64)]) -> std::path::PathBuf {
    let path = temp_path(name);
    let body: String = spans
        .iter()
        .map(|(n, p, d)| span_line(n, *p, *d) + "\n")
        .collect();
    std::fs::write(&path, body).unwrap();
    path
}

#[test]
fn trace_diff_of_identical_traces_reports_no_differences() {
    let trace = temp_path("td-self.jsonl");
    let (ok, _, _) = run(&[
        "validate",
        "--gpu",
        "kepler",
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert!(ok);
    let (ok, out, err) = run(&[
        "trace-diff",
        trace.to_str().unwrap(),
        trace.to_str().unwrap(),
    ]);
    assert!(ok, "self-diff must exit 0: {err}");
    assert!(out.contains("Δself ms"), "{out}");
    assert!(
        !out.contains('!'),
        "no significant rows in a self-diff:\n{out}"
    );
    assert!(err.is_empty(), "{err}");
    std::fs::remove_file(&trace).ok();
}

#[test]
fn trace_diff_ranks_injected_slow_span_first_and_exits_one() {
    let base = write_trace(
        "td-base.jsonl",
        &[
            ("root", None, 30_000),
            ("mid", Some("root"), 10_000),
            ("leaf", Some("mid"), 4_000),
        ],
    );
    let new = write_trace(
        "td-new.jsonl",
        &[
            ("root", None, 50_000),
            ("mid", Some("root"), 30_000),
            ("leaf", Some("mid"), 4_000),
        ],
    );
    let folded = temp_path("td.folded");
    let (ok, out, err) = run(&[
        "trace-diff",
        base.to_str().unwrap(),
        new.to_str().unwrap(),
        "--folded",
        folded.to_str().unwrap(),
    ]);
    assert!(!ok, "differences must exit non-zero");
    assert!(err.contains("significant difference(s)"), "{err}");
    assert!(
        !err.contains("error:"),
        "findings are not a typed error: {err}"
    );
    // `mid` gained 20 ms of self time (root only gained 20 ms total,
    // which is all inherited) — it must be the top culprit row.
    let first_row = out
        .lines()
        .find(|l| l.starts_with('!') || l.starts_with('·'))
        .expect("a data row");
    assert!(first_row.contains("mid"), "top culprit:\n{out}");
    assert!(
        first_row.starts_with('!'),
        "top culprit is significant:\n{out}"
    );
    assert!(out.contains("self-time deltas"), "{out}");

    let text = std::fs::read_to_string(&folded).unwrap();
    assert!(text.contains("root;mid +20000"), "folded deltas:\n{text}");
    for path in [&base, &new, &folded] {
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn trace_diff_json_carries_schema_and_statuses() {
    let base = write_trace(
        "td-json-a.jsonl",
        &[("root", None, 10_000), ("old", Some("root"), 5_000)],
    );
    let new = write_trace(
        "td-json-b.jsonl",
        &[("root", None, 10_000), ("fresh", Some("root"), 5_000)],
    );
    let (ok, out, _) = run(&[
        "trace-diff",
        base.to_str().unwrap(),
        new.to_str().unwrap(),
        "--json",
    ]);
    assert!(!ok, "new/vanished spans are differences");
    assert!(out.contains("\"schema\":\"xmodel-trace-diff/1\""), "{out}");
    assert!(out.contains("\"vanished\""), "{out}");
    assert!(out.contains("\"new\""), "{out}");
    for path in [&base, &new] {
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn trace_diff_thresholds_silence_small_shifts() {
    let base = write_trace("td-th-a.jsonl", &[("root", None, 100_000)]);
    let new = write_trace("td-th-b.jsonl", &[("root", None, 101_000)]);
    // +1 ms on 100 ms is above the absolute floor but below 5% relative;
    // raising --min-us above it silences it too.
    let (ok, _, err) = run(&["trace-diff", base.to_str().unwrap(), new.to_str().unwrap()]);
    assert!(ok, "1% shift is noise under default thresholds: {err}");
    let (ok, _, err) = run(&[
        "trace-diff",
        base.to_str().unwrap(),
        new.to_str().unwrap(),
        "--rel",
        "0.005",
    ]);
    assert!(!ok, "lowering --rel must surface the shift");
    assert!(err.contains("1 significant"), "{err}");
    for path in [&base, &new] {
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn trace_diff_usage_and_io_errors() {
    let (ok, _, err) = run(&["trace-diff"]);
    assert!(!ok);
    assert!(err.contains("usage"), "{err}");
    let (ok, _, err) = run(&["trace-diff", "a.jsonl", "b.jsonl", "--rel", "-1"]);
    assert!(!ok);
    assert!(err.contains("--rel"), "{err}");
    // An unreadable trace is a typed error (exit 1, no usage text) in
    // every command that reads one.
    let missing = temp_path("td-missing.jsonl");
    let missing = missing.to_str().unwrap();
    let commands: [&[&str]; 5] = [
        &["trace-report", missing],
        &["profile", missing],
        &["sim-report", missing],
        &["residuals", missing],
        &["trace-diff", missing, missing],
    ];
    for command in commands {
        let out = Command::new(env!("CARGO_BIN_EXE_xmodel"))
            .args(command)
            .output()
            .expect("spawn xmodel");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command:?}: {err}");
        assert!(
            err.contains("error:"),
            "{command:?}: unreadable trace is a typed error: {err}"
        );
        assert!(!err.contains("usage"), "{command:?}: {err}");
    }
}

#[test]
fn sweep_output_is_byte_identical_with_tracing_enabled() {
    // The sweep worker tallies must stay a side channel: enabling the
    // trace sink (which turns on every gated counter/gauge) must not
    // perturb the result bytes, at any worker count.
    let t1 = temp_path("sweep-traced-1.jsonl");
    let t4 = temp_path("sweep-traced-4.jsonl");
    let base = [
        "sweep", "--gpu", "fermi", "--z", "16", "--l1", "16", "--n-max", "48", "--points", "64",
    ];
    let traced = |jobs: &str, trace: &std::path::Path| {
        let (ok, out, err) = run(&[
            &base[..],
            &["--jobs", jobs, "--trace", trace.to_str().unwrap()],
        ]
        .concat());
        assert!(ok, "{err}");
        out
    };
    let one = traced("1", &t1);
    assert_eq!(
        one,
        traced("4", &t4),
        "tracing instrumentation must not change sweep bytes"
    );
    // And a traced run matches an untraced one.
    let (ok, plain, err) = run(&[&base[..], &["--jobs", "4"]].concat());
    assert!(ok, "{err}");
    assert_eq!(one, plain, "trace sink must not change sweep bytes");
    std::fs::remove_file(&t1).ok();
    std::fs::remove_file(&t4).ok();
}

/// A watermark that is negative or not finite is a usage error, raised
/// before the daemon binds (a daemon that did start is killed and fails
/// the test rather than hanging it).
#[test]
fn serve_rejects_meaningless_watermarks() {
    let cases = [
        ("--baseline-watermark", "-1"),
        ("--baseline-watermark", "nan"),
        ("--grid-watermark", "-0.5"),
        ("--grid-watermark", "inf"),
    ];
    for (flag, value) in cases {
        let out = run_bounded(&["serve", "--addr", "127.0.0.1:0", flag, value]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {err}");
        assert!(err.contains(flag), "{flag} not named: {err}");
        assert!(out.stdout.is_empty(), "{flag} {value}: no listen banner");
    }
}

#[test]
fn serve_boots_answers_and_drains_clean() {
    use std::io::{BufRead, BufReader, Read, Write};

    let mut child = Command::new(env!("CARGO_BIN_EXE_xmodel"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--queue",
            "8",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn xmodel serve");
    let mut lines = BufReader::new(child.stdout.take().expect("child stdout")).lines();
    let banner = lines
        .next()
        .expect("listening banner")
        .expect("read banner");
    let addr = banner
        .split("http://")
        .nth(1)
        .expect("address in banner")
        .trim()
        .to_string();

    let request = |raw: &str| -> String {
        let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .expect("timeout");
        stream.write_all(raw.as_bytes()).expect("write");
        let mut text = String::new();
        stream.read_to_string(&mut text).expect("read");
        text
    };
    let post = |path: &str, body: &str| -> String {
        request(&format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ))
    };

    // A good solve answers 200 with exact-rung provenance.
    let solve = post(
        "/solve",
        "{\"gpu\":\"fermi\",\"z\":20,\"n\":48,\"l1_kib\":16}",
    );
    assert!(solve.starts_with("HTTP/1.1 200"), "{solve:?}");
    assert!(solve.contains("\"degradation\":\"exact\""), "{solve:?}");

    // Garbage is a typed 400, not a crash.
    let bad = post("/solve", "{not json");
    assert!(bad.starts_with("HTTP/1.1 400"), "{bad:?}");

    // Health endpoints respond.
    let health = request("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(health.starts_with("HTTP/1.1 200"), "{health:?}");

    // Drain via /quitck: the process must exit 0 on its own.
    let drain = post("/quitck", "");
    assert!(drain.starts_with("HTTP/1.1 200"), "{drain:?}");
    let status = child.wait().expect("wait for drained server");
    assert!(status.success(), "drained server must exit 0: {status:?}");
}

/// `xmodel sweep`'s stdout, checked for exit 0.
fn sweep_stdout(args: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_xmodel"))
        .arg("sweep")
        .args(args)
        .output()
        .expect("spawn xmodel");
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// The first line where `got` and `want` differ, for a readable failure.
fn first_difference(got: &[u8], want: &str) -> String {
    let got = String::from_utf8_lossy(got);
    match got.lines().zip(want.lines()).position(|(g, w)| g != w) {
        Some(i) => format!(
            "line {}: got {:?}, want {:?}",
            i + 1,
            got.lines().nth(i).unwrap_or(""),
            want.lines().nth(i).unwrap_or("")
        ),
        None => format!("{} bytes, want {}", got.len(), want.len()),
    }
}

/// `xmodel sweep` bytes on three configurations, pinned by documents the
/// binary wrote before rows were streamed through a bounded buffer.
#[test]
fn sweep_bytes_match_pinned_fixtures() {
    let cases: [(&[&str], &str); 3] = [
        (
            &["--gpu", "fermi", "--z", "10", "--n-max", "48"],
            include_str!("fixtures/sweep_fermi.json"),
        ),
        (
            &[
                "--gpu", "kepler", "--z", "24", "--l1", "16", "--alpha", "3.1", "--beta", "2000",
                "--n-max", "64",
            ],
            include_str!("fixtures/sweep_kepler_l1_16.json"),
        ),
        (
            &[
                "--gpu", "maxwell", "--dp", "--z", "0.75", "--l1", "48", "--alpha", "5.5",
                "--beta", "4000", "--n-max", "64",
            ],
            include_str!("fixtures/sweep_maxwell_dp_l1_48.json"),
        ),
    ];
    for (flags, want) in cases {
        for jobs in ["1", "2"] {
            let args = [flags, &["--points", "64", "--jobs", jobs]].concat();
            let got = sweep_stdout(&args);
            assert!(
                got == want.as_bytes(),
                "{args:?}: {}",
                first_difference(&got, want)
            );
        }
    }
}

/// 64-bit FNV-1a, enough to pin a document too large for a fixture.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A 4096-row document (~650 KB) crosses the output buffer's flush mark
/// about twenty times; its bytes are pinned by length and digest, and
/// `--out FILE` writes the same bytes as stdout.
#[test]
fn large_sweep_matches_its_digest_on_stdout_and_out_file() {
    let args = [
        "--gpu", "kepler", "--z", "20", "--l1", "16", "--n-max", "64", "--points", "4096",
    ];
    let stdout = sweep_stdout(&args);
    assert_eq!(stdout.len(), 646_049);
    assert_eq!(fnv1a64(&stdout), 0x81d1_e1c8_bd31_7e9d);

    let path = temp_path("sweep-4096.json");
    let path = path.to_str().unwrap();
    let said = sweep_stdout(&[&args[..], &["--out", path]].concat());
    let said = String::from_utf8(said).unwrap();
    assert!(
        said.starts_with(&format!("wrote {path} (4096 points, ")) && said.ends_with(" jobs)\n"),
        "{said}"
    );
    assert!(std::fs::read(path).unwrap() == stdout, "--out bytes differ");
    std::fs::remove_file(path).ok();
}

/// A stdout that closes early or cannot take the bytes is a typed error
/// (exit 1, `error: stdout: …`, no usage text), never a panic.
#[test]
fn sweep_closed_or_full_stdout_is_a_typed_error() {
    use std::process::Stdio;
    // ~3 MB of rows: more than a pipe holds, so the write cannot finish
    // before the read end is gone.
    let args = [
        "sweep", "--gpu", "fermi", "--z", "10", "--n-max", "64", "--points", "20000",
    ];
    let check = |out: std::process::Output, what: &str| {
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{what}: {err}");
        assert!(err.starts_with("error: stdout: "), "{what}: {err}");
        assert!(!err.contains("panicked"), "{what}: {err}");
        assert!(!err.contains("usage"), "{what}: {err}");
    };

    let mut child = Command::new(env!("CARGO_BIN_EXE_xmodel"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn xmodel");
    drop(child.stdout.take());
    check(child.wait_with_output().expect("wait"), "closed pipe");

    let full = std::path::Path::new("/dev/full");
    if full.exists() {
        let full = std::fs::OpenOptions::new()
            .write(true)
            .open(full)
            .expect("open /dev/full");
        let out = Command::new(env!("CARGO_BIN_EXE_xmodel"))
            .args(args)
            .stdout(full)
            .output()
            .expect("spawn xmodel");
        check(out, "/dev/full");
    }
}

/// The whole `xmodel help` text, columns included.
#[test]
fn help_text_keeps_its_columns() {
    const HELP: &str = "\
usage: xmodel <command>

commands:
  list                               GPUs and workloads
  glossary                           Table I parameters
  draw --m M --r R --l L --z Z --e E --n N [--l1 KIB --alpha A --beta B] [--svg FILE]
  draw --gpu GPU [--dp] --z Z --e E --n N [--l1 KIB ...]
  workload NAME [--gpu GPU] [--l1 KIB] [--svg FILE]
  validate [--gpu GPU]
  whatif [--gpu GPU] [--workload NAME] [--l1 KIB]
  serve [--addr H:P] [--workers N] [--queue N] [--timeout MS]
        [--drain-timeout MS] [--grid-watermark F] [--baseline-watermark F]
        [--shards N] [--samples S] [--io-timeout MS]
        (solve/sweep/whatif daemon; drain with POST /quitck)
  sim --workload NAME [--gpu GPU] [--warps N] [--l1 KIB] [--ir]
  sweep --n-max N (--gpu GPU [--dp] | --m M --r R --l L) --z Z [--e E]
        [--l1 KIB --alpha A --beta B --l1-latency C] [--points P]
        [--samples S] [--jobs J] [--out FILE]
        (output is byte-identical for any --jobs)
  trace-report FILE [--timeline] [--svg FILE] [--profile]
  sim-report FILE [--json] [--svg FILE] [--heatmap FILE]
  residuals FILE [--preset GPU] [--workload NAME] [--l1 KIB]
        [--rel FRAC] [--json]        (exit 1 when residuals exceed --rel)
  profile FILE [--folded FILE] [--top N]
  trace-diff BASE NEW [--json] [--folded FILE] [--top N]
        [--min-us US] [--rel FRAC]   (exit 1 when differences found)

global flags:
  --trace FILE          stream JSONL trace events to FILE
  --metrics-addr H:P    serve live Prometheus metrics on HOST:PORT
  --fault-spec SPEC     inject deterministic faults (chaos testing), e.g.
                        seed=7,spike=0.01x8,drop=0.001,dup=0.001,
                        throttle=1000:0.2:0.25,sink-tear=0.01,sink-error=0.01,
                        solver=no-bracket|no-grid,serve-slow-client=0.1,
                        serve-torn-body=0.1,serve-stall=40

environment:
  XMODEL_TRACE          trace file, when --trace is absent
  XMODEL_METRICS_ADDR   metrics HOST:PORT, when --metrics-addr is absent
  XMODEL_FAULT_SPEC     fault spec, when --fault-spec is absent
  XMODEL_JOBS           sweep worker threads, when --jobs is absent

exit codes:
  0  success (degraded results add a `warning:` line on stderr)
  1  typed model/simulation error, an unreadable input or unwritable
     output file (stdout included), or trace-diff differences found
  2  usage error
";
    let (ok, out, err) = run(&["help"]);
    assert!(ok, "{err}");
    assert!(out.is_empty(), "{out}");
    assert!(err == HELP, "{}", first_difference(err.as_bytes(), HELP));
}
