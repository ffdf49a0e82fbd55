//! Fault scenarios as data: one [`scenario::Scenario`] value, one runner,
//! one table.
//!
//! `rows` holds every test that a timeline of steps can express —
//! network faults from the fault plane, replica crashes, cold restarts,
//! Byzantine modes, epoch rolls, drive faults, proactive recovery, YCSB
//! phases, closed loops and geo fabrics, and rows compared with each other
//! across stacks, pipeline counts and seeds — grouped by the test file
//! that runs them. Those files keep only what reaches inside a replica,
//! a transport or the verbs layer by hand, or measures the heap.
//!
//! Every seed follows one rule: a row stores the seed it uses at
//! `CHAOS_SEED=1` (the default) and runs at `seed + CHAOS_SEED − 1`, so the
//! CI matrix sweeps every row over seeds 1–5.

#[path = "../common/mod.rs"]
pub mod common;
pub mod golden;
pub mod scenario;
#[macro_use]
pub mod rows;
