//! Checks over the whole scenario table, run as `--test scenarios`.

#[path = "mod.rs"]
mod scenarios;

use std::env::VarError;
use std::panic::catch_unwind;

use scenarios::common;
use scenarios::rows::{self, compare, Compare};
use scenarios::scenario::{run, Ops::Incs, Scenario, Step::*};

/// Runs every row of the table at the current `CHAOS_SEED`, with every
/// check, and prints `row seed sha256(snapshot JSON)`. A change that
/// claims the same behaviour shows the same sorted lines at seeds 1–5
/// before and after:
///
/// ```text
/// CHAOS_SEED=3 cargo test --release --test scenarios -- --ignored --nocapture
/// ```
#[test]
#[ignore]
fn row_snapshot_hashes() {
    for s in rows::table() {
        let outcome = run(&s);
        let digest = bft_crypto::sha256(outcome.snapshot.as_bytes());
        let hex: String = digest.iter().map(|b| format!("{b:02x}")).collect();
        println!("{} {} {hex}", s.name, outcome.seed);
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

#[test]
fn chaos_seed_is_a_positive_integer_or_absent() {
    assert_eq!(common::seed_from(Err(VarError::NotPresent)), 1);
    assert_eq!(common::seed_from(Ok("3".into())), 3);
    for typo in ["seed3", "0", "-1", "", " 2"] {
        let taken = catch_unwind(|| common::seed_from(Ok(typo.into())));
        assert!(taken.is_err(), "CHAOS_SEED={typo:?} was taken");
    }
}
