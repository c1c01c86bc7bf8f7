//! Regression-gate contract tests for the `bench-report` binary:
//! measure mode writes a schema-versioned snapshot, and compare mode's
//! exit codes distinguish "within threshold" (0), "regressed" (1), and
//! "broken snapshot" (2).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bench_report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench-report"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn bench-report")
}

fn fixture(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
        .to_str()
        .unwrap()
        .to_string()
}

fn temp_out(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("xmodel-bench-{}-{name}", std::process::id()))
}

#[test]
fn compare_within_threshold_exits_zero() {
    let out = bench_report(&[
        "--compare",
        &fixture("bench_base.json"),
        &fixture("bench_ok.json"),
        "--threshold",
        "0.25",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("bench gate: OK"), "{stdout}");
}

#[test]
fn compare_with_synthetic_regression_exits_one() {
    let out = bench_report(&[
        "--compare",
        &fixture("bench_base.json"),
        &fixture("bench_regressed.json"),
        "--threshold",
        "0.25",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stdout}{stderr}");
    assert!(stdout.contains("REGRESSED"), "{stdout}");
    assert!(stdout.contains("solver/solve"), "{stdout}");
    assert!(stderr.contains("regressed beyond"), "{stderr}");
}

#[test]
fn regression_tolerated_under_looser_threshold() {
    // solver/solve is +160% in the fixture; a 2.0 (=200%) threshold passes.
    let out = bench_report(&[
        "--compare",
        &fixture("bench_base.json"),
        &fixture("bench_regressed.json"),
        "--threshold",
        "2.0",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn incompatible_schema_exits_two() {
    let out = bench_report(&[
        "--compare",
        &fixture("bench_base.json"),
        &fixture("bench_bad_schema.json"),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("incompatible schema"), "{stderr}");
}

#[test]
fn missing_snapshot_exits_two() {
    let out = bench_report(&[
        "--compare",
        &fixture("bench_base.json"),
        "/nonexistent.json",
    ]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn smoke_measure_writes_comparable_snapshot() {
    let out_path = temp_out("smoke.json");
    let out = bench_report(&[
        "--smoke",
        "--label",
        "test",
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&out_path).expect("snapshot written");
    assert!(text.contains("\"schema\":\"xmodel-bench/1\""), "{text}");
    assert!(text.contains("solver/solve"), "{text}");
    for name in [
        "sim/measure_l1_l2",
        "sim/chip_4sm",
        "sim/measure_ir",
        "e2e/validate_gesummv",
        "e2e/validate_leukocyte",
    ] {
        assert!(text.contains(name), "{name}: {text}");
    }

    // A fresh snapshot must be comparable against itself (exit 0).
    let cmp = bench_report(&[
        "--compare",
        out_path.to_str().unwrap(),
        out_path.to_str().unwrap(),
    ]);
    assert!(
        cmp.status.success(),
        "{}",
        String::from_utf8_lossy(&cmp.stdout)
    );
    std::fs::remove_file(&out_path).ok();
}
