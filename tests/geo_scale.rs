//! Scale-out geo scenarios: replica groups spread across WAN latency
//! matrices, clients packed many-per-host, and fault composition on WAN
//! links.
//!
//! The largest shapes — the n = 31 WAN group, the n = 13 RUBIN group and
//! a thousand clients on eight hosts — take at most about a second each in
//! a debug build, so they run in the regular suite like the rest.

#[path = "../crates/simnet/tests/support/counting_alloc.rs"]
mod counting_alloc;
// This file runs one group of the table; `--test scenarios` lints it all.
#[allow(dead_code)]
#[macro_use]
mod scenarios;

use counting_alloc::{live_bytes, CountingAlloc};
use reptor::{ReptorConfig, Stack};
use scenarios::scenario::{world, Scenario};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

geo_rows!(row_tests);

/// A 13-replica group (f = 4) with two clients over RUBIN — 210 channel
/// ends, each with 128 pre-registered 128 KiB buffers. The group's heap is
/// what those buffers hold, not the ≈ 3 GB they span: about 10 MB live, in
/// debug and release alike.
#[test]
fn rubin_13_replica_group_commits() {
    let before = live_bytes();
    let group = Scenario::new(Stack::Rubin, 13).cfg(ReptorConfig::for_f(4));
    let mut c = world(&group.clients(2));
    for client in c.clients.clone() {
        for _ in 0..8 {
            client.submit(&mut c.sim, b"inc".to_vec());
        }
    }
    assert!(c.run_until_completed(8, 400_000_000), "no agreement");
    assert!(c.clients.iter().all(|client| client.stats().completed == 8));
    c.assert_safety();
    let live = live_bytes() - before;
    println!("13-replica RUBIN group: {live} bytes live");
    assert!(live < 256 << 20, "the group holds {live} bytes");
}
