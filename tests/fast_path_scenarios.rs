//! One-sided fast-path agreement scenarios: the current view's leader
//! proposes by RDMA WRITE into per-view follower slot regions instead of
//! sending PRE-PREPARE messages (the paper's thesis applied to the
//! proposal step: RNIC WRITE *permission* replaces the MAC).
//!
//! The fast path engages in the common case and commits two one-way
//! network delays after the WRITE lands; with `fast_path: false` the
//! replica leaves zero trace of the feature; and on a transport without a
//! one-sided write (the NIO socket stack) the message path takes over.

// This file runs one group of the table; `--test scenarios` lints it all.
#[allow(dead_code)]
#[macro_use]
mod scenarios;

fast_path_rows!(row_tests);
