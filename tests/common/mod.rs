//! Shared by the scenario batteries (`mod common;`).

use std::env::VarError;

/// Seed for a scenario timeline: the `CHAOS_SEED` environment variable
/// (CI sweeps 1–5), default 1.
///
/// # Panics
///
/// Panics, naming the value, if the variable is set to anything but a
/// positive integer: a typo must not quietly re-run seed 1.
pub fn chaos_seed() -> u64 {
    seed_from(std::env::var("CHAOS_SEED"))
}

/// [`chaos_seed`] of the variable's value.
pub fn seed_from(var: Result<String, VarError>) -> u64 {
    match var {
        Err(VarError::NotPresent) => 1,
        Err(VarError::NotUnicode(value)) => {
            panic!("CHAOS_SEED={value:?} is not a positive integer")
        }
        Ok(value) => match value.parse() {
            Ok(seed) if seed > 0 => seed,
            _ => panic!("CHAOS_SEED={value:?} is not a positive integer"),
        },
    }
}
