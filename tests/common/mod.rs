//! Shared by the scenario batteries (`mod common;`).

/// Seed for a scenario timeline: the `CHAOS_SEED` environment variable
/// (CI sweeps 1–5), default 1.
pub fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}
