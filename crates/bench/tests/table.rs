//! The evaluation table and its gate: a failed check fails the process, the
//! sidecar is valid JSON, names resolve, and the cheapest rows run end to
//! end.

use std::path::PathBuf;

use bench::gate::{gate, Report};
use bench::rows::{run, usage, TABLE};
use simnet::metrics::validate_json;

/// A per-test sidecar directory (tests run in parallel).
fn dir(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test)
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|a| a.to_string()).collect()
}

#[test]
fn failed_check_fails_the_gate_with_a_regression_line() {
    let mut report = Report::default();
    report.check("holds", true);
    report.check("p=4 throughput >= 1.6x p=1", false);
    let verdict = gate("failing", &report, &dir("failing")).expect_err("a failed check must gate");
    assert!(verdict.contains("REGRESSION: p=4 throughput >= 1.6x p=1"));
    assert!(!verdict.contains("REGRESSION: holds"));
    assert!(verdict.contains("1/2 checks passed"));

    let passing = Report {
        checks: vec![("holds".into(), true)],
        ..Report::default()
    };
    let summary = gate("passing", &passing, &dir("failing")).expect("no failed check");
    assert!(summary.contains("1/1 checks passed"));
}

#[test]
fn sidecar_is_valid_json_with_quotes_escaped() {
    let mut report = Report::default();
    report.section("points", "[1,2.5]".into());
    report.check(r#"the "fast" path \ wins"#, true);
    let dir = dir("escaped");
    gate("escaped", &report, &dir).expect("passes");
    let json = std::fs::read_to_string(dir.join("escaped.json")).expect("sidecar written");
    validate_json(&json).expect("valid JSON");
    assert_eq!(
        json,
        r#"{"points":[1,2.5],"checks":{"the \"fast\" path \\ wins":true}}"#
    );
    assert!(report.text.contains(r#"- [x] the "fast" path"#));
}

#[test]
fn names_are_unique_and_an_unknown_name_lists_them() {
    let mut names: Vec<&str> = TABLE.iter().map(|row| row.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), TABLE.len(), "duplicate row name");
    assert!(!names.contains(&"all"), "`all` is the runner, not a row");
    for name in names {
        assert!(usage().contains(name), "usage omits {name}");
    }
    assert_ne!(run(&strings(&["no_such_experiment"]), &dir("unknown")), 0);
    assert_ne!(run(&[], &dir("unknown")), 0);
    assert!(!dir("unknown").exists(), "nothing ran, nothing written");
}

#[test]
fn cheapest_rows_pass_end_to_end() {
    let dir = dir("rows");
    for argv in [
        &["kv_throughput"][..],
        &["geo_sweep", "8"],
        &["recovery_drill"],
    ] {
        assert_eq!(run(&strings(argv), &dir), 0, "{argv:?} failed its gate");
        let json = std::fs::read_to_string(dir.join(format!("{}.json", argv[0])))
            .expect("sidecar written");
        validate_json(&json).expect("valid JSON");
        assert!(json.contains("\"checks\":{\""), "{argv:?} gated nothing");
        assert!(!json.contains(":false"), "{argv:?} recorded a failure");
    }
}
