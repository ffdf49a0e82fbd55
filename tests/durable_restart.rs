//! Durable-restart scenarios: crash-consistent recovery from the simulated
//! local drive under injected storage faults.
//!
//! The storage layer itself is the adversary, following the torn-write
//! fault model: a replica's drive survives its crash, but the bytes on it
//! may be torn mid-frame, bit-flipped, or silently lost after the ack. The
//! durability layer must always recover a clean prefix — never panic,
//! never install wrong state — and fetch only the missing delta from peers.

// This file runs one group of the table; `--test scenarios` lints it all.
#[allow(dead_code)]
#[macro_use]
mod scenarios;

durable_rows!(row_tests);
