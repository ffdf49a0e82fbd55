#![doc = include_str!("../README.md")]

pub use bft_crypto;
pub use rdma_verbs;
pub use reptor;
pub use rubin;
pub use simnet;
pub use simnet_socket;
