//! Fixture-driven lint tests plus the live-workspace self-check.
//!
//! Each lint has a positive fixture (must be caught), a negative fixture
//! (must stay silent), and a baseline-suppression check. Fixtures live
//! under `tests/fixtures/` — a path the lints themselves exempt, so the
//! deliberately offending code never pollutes a real workspace run.

use std::path::Path;

use xlint::{analyze_files, Baseline, Finding, SourceFile};

fn run(rel: &str, src: &str) -> Vec<Finding> {
    analyze_files(&[SourceFile {
        rel: rel.to_string(),
        text: src.to_string(),
    }])
}

fn lints_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.lint).collect()
}

#[test]
fn no_panic_positive() {
    let findings = run(
        "crates/demo/src/lib.rs",
        include_str!("fixtures/no_panic_pos.rs"),
    );
    let ids = lints_of(&findings);
    assert_eq!(ids.len(), 4, "{findings:#?}");
    assert!(ids.iter().all(|&l| l == "no-panic-in-lib"));
    let messages: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
    assert!(messages.iter().any(|m| m.contains("index")));
    assert!(messages.iter().any(|m| m.contains("unwrap")));
    assert!(messages.iter().any(|m| m.contains("expect")));
    assert!(messages.iter().any(|m| m.contains("panic!")));
}

#[test]
fn no_panic_negative() {
    let findings = run(
        "crates/demo/src/lib.rs",
        include_str!("fixtures/no_panic_neg.rs"),
    );
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn no_panic_baseline_suppression() {
    let findings = run(
        "crates/demo/src/lib.rs",
        include_str!("fixtures/no_panic_pos.rs"),
    );
    assert!(!findings.is_empty());
    let baseline = Baseline::parse(&Baseline::render(&findings));
    let (fresh, suppressed) = baseline.partition(&findings);
    assert!(
        fresh.is_empty(),
        "baselined findings resurfaced: {fresh:#?}"
    );
    assert_eq!(suppressed.len(), findings.len());
}

#[test]
fn span_names_positive() {
    let findings = run(
        "crates/sim/src/demo.rs",
        include_str!("fixtures/span_names_pos.rs"),
    );
    assert_eq!(
        lints_of(&findings),
        ["span-name-registry"; 4],
        "{findings:#?}"
    );
}

#[test]
fn span_names_negative() {
    let findings = run(
        "crates/sim/src/demo.rs",
        include_str!("fixtures/span_names_neg.rs"),
    );
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn span_names_cover_every_workspace_crate() {
    // The lint fires in any `crates/*` source, not just the originally
    // instrumented core/sim/profile/cli set — new instrumentation in
    // e.g. viz or bench must register its names too.
    let findings = run(
        "crates/viz/src/demo.rs",
        include_str!("fixtures/span_names_pos.rs"),
    );
    assert_eq!(
        lints_of(&findings),
        ["span-name-registry"; 4],
        "{findings:#?}"
    );
    // Non-crate paths (scripts, top-level tests) stay exempt.
    let findings = run("tests/demo.rs", include_str!("fixtures/span_names_pos.rs"));
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn schema_positive() {
    let findings = run(
        "crates/demo/src/report.rs",
        include_str!("fixtures/schema_pos.rs"),
    );
    assert_eq!(
        lints_of(&findings),
        ["schema-version-once"],
        "{findings:#?}"
    );
    assert!(findings.iter().all(|f| f.message.contains("xmodel-demo/1")));
}

#[test]
fn schema_negative() {
    let findings = run(
        "crates/demo/src/report.rs",
        include_str!("fixtures/schema_neg.rs"),
    );
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn schema_duplicates_across_files() {
    let one = SourceFile {
        rel: "crates/a/src/lib.rs".to_string(),
        text: "pub const SCHEMA: &str = \"xmodel-demo/2\";\n".to_string(),
    };
    let two = SourceFile {
        rel: "crates/b/src/lib.rs".to_string(),
        text: "pub const SCHEMA: &str = \"xmodel-demo/2\";\n".to_string(),
    };
    let findings = analyze_files(&[one, two]);
    assert_eq!(
        lints_of(&findings),
        ["schema-version-once"],
        "{findings:#?}"
    );
    // The later path (in sort order) is the duplicate.
    assert_eq!(
        findings.first().map(|f| f.path.as_str()),
        Some("crates/b/src/lib.rs")
    );
}

#[test]
fn quantity_positive() {
    let findings = run(
        "crates/core/src/ms.rs",
        include_str!("fixtures/quantity_pos.rs"),
    );
    assert_eq!(lints_of(&findings), ["quantity-api"; 2], "{findings:#?}");
    let params: Vec<&str> = findings
        .iter()
        .filter_map(|f| f.message.split('`').nth(1))
        .collect();
    assert_eq!(params, ["k: f64", "k_max: f64"]);
}

#[test]
fn quantity_negative() {
    let findings = run(
        "crates/core/src/ms.rs",
        include_str!("fixtures/quantity_neg.rs"),
    );
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn quantity_lint_scoped_to_equation_modules() {
    // The same bare-f64 signatures outside the Eq. (1)–(6) modules are
    // not quantity-api findings (only the panic-free rule sees the file).
    let findings = run(
        "crates/core/src/report.rs",
        include_str!("fixtures/quantity_pos.rs"),
    );
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn nondet_two_deep_is_caught_with_witness_chain() {
    let findings = run(
        "crates/demo/src/lib.rs",
        include_str!("fixtures/nondet_pos.rs"),
    );
    let nondet: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.lint == "nondeterminism-in-result-path")
        .collect();
    assert_eq!(nondet.len(), 1, "{findings:#?}");
    let f = nondet.first().expect("one finding");
    assert!(f.message.contains("wall-clock"), "{f:#?}");
    assert_eq!(f.chain, ["demo::assemble", "demo::helper", "demo::deep"]);
}

#[test]
fn nondet_allow_directive_suppresses() {
    let analysis = xlint::analyze_files_full(&[SourceFile {
        rel: "crates/demo/src/lib.rs".to_string(),
        text: include_str!("fixtures/nondet_neg.rs").to_string(),
    }]);
    assert!(analysis.findings.is_empty(), "{:#?}", analysis.findings);
    assert_eq!(
        analysis
            .allowed
            .iter()
            .filter(|f| f.lint == "nondeterminism-in-result-path")
            .count(),
        1,
        "{:#?}",
        analysis.allowed
    );
}

#[test]
fn lock_in_result_path_is_caught() {
    let findings = run(
        "crates/demo/src/lib.rs",
        include_str!("fixtures/lock_pos.rs"),
    );
    let locks: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.lint == "lock-in-result-path")
        .collect();
    assert_eq!(locks.len(), 1, "{findings:#?}");
    assert_eq!(locks.first().expect("one finding").chain, ["demo::collect"]);
}

#[test]
fn lock_allow_directive_suppresses() {
    let analysis = xlint::analyze_files_full(&[SourceFile {
        rel: "crates/demo/src/lib.rs".to_string(),
        text: include_str!("fixtures/lock_neg.rs").to_string(),
    }]);
    assert!(analysis.findings.is_empty(), "{:#?}", analysis.findings);
    assert_eq!(
        analysis
            .allowed
            .iter()
            .filter(|f| f.lint == "lock-in-result-path")
            .count(),
        1
    );
}

#[test]
fn hash_iteration_in_result_path_is_caught() {
    let src = "use std::collections::HashMap;\n\
               // xlint: determinism-root\n\
               pub fn assemble(m: &HashMap<u32, u32>) -> Vec<u32> {\n\
                   m.values().copied().collect()\n\
               }\n";
    let findings = run("crates/demo/src/lib.rs", src);
    assert!(
        findings
            .iter()
            .any(|f| f.lint == "nondeterminism-in-result-path"
                && f.message.contains("hash iteration order")),
        "{findings:#?}"
    );
}

#[test]
fn allow_without_reason_or_with_unknown_lint_is_flagged() {
    let findings = run(
        "crates/demo/src/lib.rs",
        include_str!("fixtures/allow_bad.rs"),
    );
    let bad: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.lint == "allow-missing-reason")
        .collect();
    assert_eq!(bad.len(), 2, "{findings:#?}");
    assert!(bad.iter().any(|f| f.message.contains("reason")));
    assert!(bad.iter().any(|f| f.message.contains("made-up-lint")));
    // The reasonless allow does NOT suppress its target finding.
    assert!(
        findings.iter().any(|f| f.lint == "no-panic-in-lib"),
        "{findings:#?}"
    );
}

#[test]
fn allow_with_reason_suppresses_any_lint() {
    let analysis = xlint::analyze_files_full(&[SourceFile {
        rel: "crates/demo/src/lib.rs".to_string(),
        text: include_str!("fixtures/allow_good.rs").to_string(),
    }]);
    assert!(analysis.findings.is_empty(), "{:#?}", analysis.findings);
    assert_eq!(
        analysis
            .allowed
            .iter()
            .filter(|f| f.lint == "no-panic-in-lib")
            .count(),
        1
    );
}

/// End-to-end walk of the deliberately broken fixture workspace: both
/// dataflow lints fire with full witness chains, and the fixture
/// DESIGN.md inventory mismatches both ways.
#[test]
fn badws_fixture_tree_reports_all_dataflow_lints() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/badws");
    let analysis = xlint::analyze(&root).expect("fixture walk succeeds");
    let lint_ids: Vec<&str> = analysis.findings.iter().map(|f| f.lint).collect();
    assert!(
        lint_ids.contains(&"nondeterminism-in-result-path"),
        "{:#?}",
        analysis.findings
    );
    assert!(lint_ids.contains(&"lock-in-result-path"));
    assert_eq!(
        lint_ids
            .iter()
            .filter(|&&l| l == "metric-docs-sync")
            .count(),
        2,
        "one undocumented + one unregistered: {:#?}",
        analysis.findings
    );
    let nondet = analysis
        .findings
        .iter()
        .find(|f| f.lint == "nondeterminism-in-result-path")
        .expect("nondet finding");
    assert_eq!(nondet.chain, ["demo::sweep", "demo::stamp", "demo::clock"]);
    let lock = analysis
        .findings
        .iter()
        .find(|f| f.lint == "lock-in-result-path")
        .expect("lock finding");
    assert_eq!(lock.chain, ["demo::sweep", "demo::stamp"]);
}

/// The tentpole acceptance check: the workspace as committed must report
/// zero findings against an empty `xlint.baseline`. This is the same
/// invariant `scripts/ci.sh` enforces with `--deny-stale`, kept here so
/// plain `cargo test` catches regressions too.
#[test]
fn live_workspace_is_clean_against_committed_baseline() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let analysis = xlint::analyze(&root).expect("workspace walk succeeds");
    assert!(
        !analysis.allowed.is_empty(),
        "the walk met no inline-allowed findings at all — wrong root?"
    );
    let baseline_text = std::fs::read_to_string(root.join("xlint.baseline"))
        .expect("committed xlint.baseline exists at the workspace root");
    assert!(
        Baseline::parse(&baseline_text).is_empty(),
        "xlint.baseline must stay empty: fix a finding or allow it inline with a reason"
    );
    assert!(
        analysis.findings.is_empty(),
        "lint findings in the live workspace:\n{}",
        analysis
            .findings
            .iter()
            .map(|f| format!("  {}:{} [{}] {}", f.path, f.line, f.lint, f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The determinism dataflow lints must report nothing un-sanctioned on
/// the live workspace: every wall-clock / lock / RNG site reachable from
/// a determinism root carries an inline `xlint: allow` with a reason.
#[test]
fn live_workspace_has_no_unsanctioned_nondeterminism() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let analysis = xlint::analyze(&root).expect("workspace walk succeeds");
    let dataflow: Vec<&Finding> = analysis
        .findings
        .iter()
        .filter(|f| f.lint == "nondeterminism-in-result-path" || f.lint == "lock-in-result-path")
        .collect();
    assert!(
        dataflow.is_empty(),
        "unsanctioned nondeterminism/locks in the result path:\n{}",
        dataflow
            .iter()
            .map(|f| format!(
                "  {}:{} [{}] {}\n    via {}",
                f.path,
                f.line,
                f.lint,
                f.message,
                f.chain.join(" → ")
            ))
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The roots themselves must have been discovered, or the lint is
    // vacuously green.
    assert!(
        analysis
            .allowed
            .iter()
            .any(|f| f.lint == "nondeterminism-in-result-path"),
        "no inline-allowed nondeterminism findings — roots not wired up?"
    );
}
