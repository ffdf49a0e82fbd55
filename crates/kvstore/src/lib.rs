//! A replicated key-value service with agreement-free one-sided reads.
//!
//! The paper's thesis is that RDMA's one-sided operations and
//! RNIC-enforced permissions belong in the BFT protocol itself, not just
//! under it. This crate applies that to the read path of a replicated KV
//! store (the `rabia-kvstore` shape): replicas expose their applied state
//! as a version-stamped cell region behind an RDMA read lease
//! ([`region`]), and clients serve `Get`s by one-sided-READing the key's
//! cell from `2f + 1` replicas — no agreement, no replica CPU — falling
//! back to the ordinary message path whenever any cell is torn, poisoned,
//! or denied ([`client`]).
//!
//! The whole stack is gated by an exhaustive per-key linearizability
//! checker ([`lin`]) over histories recorded from the deterministic
//! simulation ([`harness`]), driven by YCSB-style workloads
//! ([`workload`]).

#![warn(missing_docs)]

pub mod client;
pub mod harness;
pub mod lin;
mod read_log;
pub mod region;
pub mod service;
pub mod workload;

pub use client::KvClient;
pub use harness::{kv_config, KvHarness, Stack};
pub use lin::{check_linearizable, KvEvent, KvHistOp};
pub use region::{
    bucket_of, cell_offset, decode_cell, judge, CellRead, KeyVerdict, CELL_SIZE, DEFAULT_CAPACITY,
    HEADER_SIZE, KEY_MAX, VAL_MAX,
};
pub use service::KvStoreService;
pub use workload::{ClientWorkload, YcsbSpec};
