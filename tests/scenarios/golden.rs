//! Golden behaviour: `golden/seed{s}.txt` holds one line per table row,
//! in table order, for `CHAOS_SEED=s`: the row's name, then one hash per
//! scenario it runs, in order. A scenario's hash is sha256 of its published
//! snapshot JSON, a newline and its KV history, so any change to a row's
//! timeline, counters, gauges or history changes its line.
//!
//! Every row's test checks its own line. A structural change leaves every
//! file as it is; a behaviour change rewrites the files in the same commit,
//! and their diff is the list of rows whose behaviour moved.

use std::fs;
use std::path::PathBuf;

use bft_crypto::{Digest, Sha256};

use super::common::chaos_seed;
use super::scenario::Outcome;

/// The golden file for `CHAOS_SEED=seed`.
pub fn path(seed: u64) -> PathBuf {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/scenarios/golden");
    PathBuf::from(format!("{dir}/seed{seed}.txt"))
}

/// sha256(`published` ‖ `"\n"` ‖ `history`), in hex.
fn hash(o: &Outcome) -> String {
    let mut h = Sha256::new();
    h.update(o.published.as_bytes());
    h.update(b"\n");
    h.update(o.history.as_bytes());
    Digest(h.finalize()).to_string()
}

/// Row `name`'s golden line, without the newline.
pub fn line(name: &str, outcomes: &[Outcome]) -> String {
    let hashes: Vec<String> = outcomes.iter().map(hash).collect();
    format!("{name} {}", hashes.join(" "))
}

/// Checks row `name`'s outcomes against its line at the running
/// `CHAOS_SEED`.
///
/// # Panics
///
/// Panics if the file or the line is missing or the hashes differ.
#[allow(dead_code)] // `row_tests!` calls it in the group files.
pub fn check(name: &str, outcomes: &[Outcome]) {
    let seed = chaos_seed();
    let file = path(seed);
    let text = fs::read_to_string(&file).unwrap_or_else(|e| {
        panic!(
            "row `{name}` at CHAOS_SEED={seed}: {}: {e}; {}",
            file.display(),
            rewrite(seed)
        )
    });
    check_in(&text, seed, &line(name, outcomes));
}

/// Checks `line` against the line of the same row in `golden`, the text
/// of the file for `CHAOS_SEED=seed`.
///
/// # Panics
///
/// Panics naming the row, the seed and both lines' hashes if `golden`
/// has no line for the row or a different one.
pub fn check_in(golden: &str, seed: u64, line: &str) {
    let (name, ran) = line.split_once(' ').expect("a row name, then hashes");
    let want = golden
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '));
    if want != Some(ran) {
        panic!(
            "row `{name}` at CHAOS_SEED={seed}: this run hashes {ran}, seed{seed}.txt holds {}; {}",
            want.unwrap_or("no line"),
            rewrite(seed)
        );
    }
}

/// How to rewrite the file for `seed` after a deliberate behaviour change.
fn rewrite(seed: u64) -> String {
    format!("if the change is meant, rewrite the file with `CHAOS_SEED={seed} cargo test --release --test scenarios -- --ignored` and explain each changed line")
}
