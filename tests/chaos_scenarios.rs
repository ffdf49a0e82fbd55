//! End-to-end failure-recovery scenarios: PBFT agreement driven over the
//! full comm stacks while the fault plane injects loss, duplication,
//! reordering, corruption, partitions and host crashes.
//!
//! The layered recovery story under test:
//! * lost RDMA packets are retransmitted by the RC queue pair, lost TCP
//!   segments by the kernel stack's go-back-N — agreement never notices
//!   a few percent of loss;
//! * duplicated or reordered frames are suppressed below the protocol
//!   (QP sequence dedup, TCP sequence dedup) and above it (replica
//!   client-request dedup), so nothing executes twice;
//! * corrupted frames fail MAC verification and are dropped;
//! * a crashed primary breaks queue pairs / streams, the live replicas
//!   view-change to a new primary, and the transport layer re-dials the
//!   restarted host with exponential backoff;
//! * a replica cut off past the group's watermark window rejoins by
//!   checkpoint state transfer, routed around Byzantine responders.

// This file runs one group of the table; `--test scenarios` lints it all.
#[allow(dead_code)]
#[macro_use]
mod scenarios;

chaos_rows!(row_tests);
