//! Checks over the whole scenario table, run as `--test scenarios`.

#[path = "mod.rs"]
mod scenarios;

use std::env::VarError;
use std::fs;
use std::panic::catch_unwind;

use scenarios::common::{self, chaos_seed};
use scenarios::golden;
use scenarios::rows::{self, compare, Compare};
use scenarios::scenario::{run, Ops::Incs, Outcome, Scenario, Step::*};

/// The golden files' only writer: runs every row of the table at the
/// current `CHAOS_SEED`, with every check, and rewrites that seed's file
/// with the rows' lines. A change that keeps behaviour leaves every file as
/// it is; one that changes it rewrites all five in the same commit:
///
/// ```text
/// CHAOS_SEED=3 cargo test --release --test scenarios -- --ignored
/// ```
#[test]
#[ignore]
fn row_snapshot_hashes() {
    let mut text = String::new();
    for (name, scenarios) in rows::table() {
        let outcomes: Vec<Outcome> = scenarios.iter().map(run).collect();
        text += &golden::line(name, &outcomes);
        text.push('\n');
    }
    let file = golden::path(chaos_seed());
    fs::write(&file, text).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
}

/// Every golden file has exactly one line per table row, in table order,
/// with one hash per scenario of the row: a row added, renamed or deleted
/// without rewriting the files fails here, at every seed.
#[test]
fn golden_files_cover_exactly_the_table() {
    let table = rows::table();
    for seed in 1..=5 {
        let file = golden::path(seed);
        let text = fs::read_to_string(&file).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
        let lines: Vec<&str> = text.lines().collect();
        for (i, (line, (name, scenarios))) in lines.iter().zip(&table).enumerate() {
            let mut words = line.split(' ');
            assert_eq!(words.next(), Some(*name), "seed{seed}.txt line {}", i + 1);
            let hashes: Vec<&str> = words.collect();
            assert_eq!(
                hashes.len(),
                scenarios.len(),
                "seed{seed}.txt: `{name}`'s hashes"
            );
            for h in hashes {
                let hex = h.len() == 64 && h.bytes().all(|b| b.is_ascii_hexdigit());
                assert!(hex, "seed{seed}.txt: `{name}`: {h:?} is not a sha256");
            }
        }
        assert_eq!(lines.len(), table.len(), "seed{seed}.txt: one line per row");
    }
}

/// The cross-row comparison bites: two counter rows that differ only in
/// how many increments client 0 sends do not show the same outcome.
#[test]
#[should_panic(expected = "rows `ten` and `nine`")]
fn rows_with_different_replies_are_not_the_same() {
    let incs = |name, n| Scenario {
        name,
        ..Scenario::new(rows::Stack::Direct, 1).steps([Burst(Incs(n)), Complete(n), Idle])
    };
    compare(Compare::Same, &[incs("ten", 10), incs("nine", 9)]);
}

/// The golden check bites: a row whose hashes differ from its line fails,
/// naming the row, the seed, both hashes and how to rewrite the file.
#[test]
#[should_panic(expected = "row `ten` at CHAOS_SEED=3: this run hashes \
    1111111111111111111111111111111111111111111111111111111111111111, seed3.txt holds \
    2222222222222222222222222222222222222222222222222222222222222222; if the change is meant, \
    rewrite the file with `CHAOS_SEED=3 cargo test --release --test scenarios -- --ignored`")]
fn a_row_that_differs_from_its_golden_line_fails() {
    let [ran, held] = ["1".repeat(64), "2".repeat(64)];
    let golden = format!("nine {ran}\nten {held}\n");
    golden::check_in(&golden, 3, &format!("ten {ran}"));
}

#[test]
fn chaos_seed_is_a_positive_integer_or_absent() {
    assert_eq!(common::seed_from(Err(VarError::NotPresent)), 1);
    assert_eq!(common::seed_from(Ok("3".into())), 3);
    for typo in ["seed3", "0", "-1", "", " 2"] {
        let taken = catch_unwind(|| common::seed_from(Ok(typo.into())));
        assert!(taken.is_err(), "CHAOS_SEED={typo:?} was taken");
    }
}
