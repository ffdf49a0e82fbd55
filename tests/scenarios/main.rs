//! Checks over the whole scenario table, run as `--test scenarios`.

#[path = "mod.rs"]
mod scenarios;

use std::env::VarError;
use std::panic::catch_unwind;

use scenarios::{common, rows, scenario::run};

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

#[test]
fn chaos_seed_is_a_positive_integer_or_absent() {
    assert_eq!(common::seed_from(Err(VarError::NotPresent)), 1);
    assert_eq!(common::seed_from(Ok("3".into())), 3);
    for typo in ["seed3", "0", "-1", "", " 2"] {
        let taken = catch_unwind(|| common::seed_from(Ok(typo.into())));
        assert!(taken.is_err(), "CHAOS_SEED={typo:?} was taken");
    }
}
