//! Same-seed replay determinism for full KV runs.
//!
//! The one-sided read path adds asynchronous machinery on both sides of
//! the wire — lease grants, parallel quorum READs, two-phase region
//! writes with scheduled commit closures, denial-driven re-queries — and
//! none of it may cost the simulator its reproducibility guarantee. A
//! fixed-seed YCSB run must match its golden line, a hash of the full
//! metrics snapshot JSON (every counter, gauge, and trace) and the
//! rendered operation history, for both canonical workload mixes, across
//! COP pipeline counts, on both comm stacks.

// This file runs one group of the table; `--test scenarios` lints it all.
#[allow(dead_code)]
#[macro_use]
mod scenarios;

kv_replay_rows!(row_tests);
