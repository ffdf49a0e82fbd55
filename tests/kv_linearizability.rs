//! The linearizability battery gating the agreement-free read path.
//!
//! Every row runs the replicated KV service under a YCSB-style workload,
//! records each client's full operation history (one-sided reads and
//! message-path operations alike, with exact invoke/response instants),
//! and the runner feeds it to the exhaustive Wing–Gong checker. One-sided
//! reads bypass agreement entirely, so *only* a linearizability oracle can
//! certify that the lease/version-stamp machinery never serves a stale or
//! torn value. The revocation rows assert that the RNIC actually denied a
//! revoked rkey and that the client's fallback engaged.

// This file runs one group of the table; `--test scenarios` lints it all.
#[allow(dead_code)]
#[macro_use]
mod scenarios;

kv_rows!(row_tests);
