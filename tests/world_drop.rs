//! Worlds drop: a `Cluster` that goes out of scope gives all of its memory
//! back, on every comm stack, so one process can run any number of them.
//! Ownership runs one way (caller → replica/client → transport → selector
//! → channel → queue pair → device → network) and every callback stored
//! lower down refers back up through a `Weak` (DESIGN.md "Registered
//! memory"); one forgotten strong handle leaks the whole world and fails
//! these tests.

#[path = "../crates/simnet/tests/support/counting_alloc.rs"]
mod counting_alloc;

use std::rc::{Rc, Weak};

use bft_crypto::Digest;
use counting_alloc::{live_bytes, CountingAlloc};
use kvstore::{kv_config, KvHarness, YcsbSpec};
use reptor::{Cluster, ReptorConfig, Request, Stack, StateMachine, Transport};
use simnet::zipf::KeyDist;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// What a run of worlds may leave behind. They leave nothing; the slack is
/// far below one leaked endpoint (an idle NIO mesh endpoint is ~90 KiB, a
/// RUBIN one over 1 MiB).
const SLACK: u64 = 64 << 10;

/// An echo service carrying a token, so the test can tell when the replica
/// that owns the service has really been freed.
struct Witness(#[allow(dead_code)] Rc<()>);

impl StateMachine for Witness {
    fn apply(&mut self, req: &Request) -> Vec<u8> {
        req.payload.clone()
    }

    fn state_digest(&self) -> Digest {
        Digest::of(b"witness")
    }
}

/// Builds a world on `stack`, drives 50 requests through it and drops it.
/// Returns a weak handle to something replica 0 owned and to endpoint 0.
fn one_world(stack: Stack, seed: u64) -> (Weak<()>, Weak<dyn Transport>) {
    let token = Rc::new(());
    let mut c = Cluster::build(stack, ReptorConfig::small(), 1, seed, || {
        Box::new(Witness(token.clone()))
    });
    c.submit_sequentially((0..50u8).map(|i| vec![i; 256]));
    c.assert_safety();
    let replica = Rc::downgrade(&token);
    let transport = Rc::downgrade(&c.transports[0]);
    drop(token);
    assert!(replica.upgrade().is_some() && transport.upgrade().is_some());
    drop(c);
    (replica, transport)
}

fn twenty_worlds_give_everything_back(stack: Stack) {
    let before = live_bytes();
    for seed in 0..20 {
        let (replica, transport) = one_world(stack, seed);
        assert!(replica.upgrade().is_none(), "replica 0 outlived its world");
        assert!(
            transport.upgrade().is_none(),
            "endpoint 0 outlived its world"
        );
    }
    let grown = live_bytes().saturating_sub(before);
    println!("20 {} worlds left {grown} bytes behind", stack.label());
    assert!(
        grown <= SLACK,
        "{} worlds left {grown} bytes behind",
        stack.label()
    );
}

#[test]
fn twenty_rubin_worlds_give_everything_back() {
    twenty_worlds_give_everything_back(Stack::Rubin);
}

#[test]
fn twenty_nio_worlds_give_everything_back() {
    twenty_worlds_give_everything_back(Stack::Nio);
}

#[test]
fn twenty_direct_worlds_give_everything_back() {
    twenty_worlds_give_everything_back(Stack::Direct);
}

/// The `kv_read_heavy` shape of the system benchmark: four replicas with
/// read leases, four KV clients, 95 % one-sided gets.
#[test]
fn ten_kv_read_heavy_laps_give_everything_back() {
    let spec = YcsbSpec {
        read_ratio: 0.95,
        dist: KeyDist::zipfian(1_000, 0.99),
        val_size: 32,
    };
    let before = live_bytes();
    for seed in 0..10 {
        let mut h = KvHarness::build(Stack::Rubin, seed, 4, kv_config(), 4096);
        assert!(h.run_ycsb(&spec, seed, 100, 5_000_000), "lap {seed} wedged");
        assert!(
            h.total("kv_read_onesided") > 0,
            "lap {seed} read one-sidedly"
        );
        h.check_history().expect("linearizable");
    }
    let grown = live_bytes().saturating_sub(before);
    println!("10 KV laps left {grown} bytes behind");
    assert!(grown <= SLACK, "ten KV laps left {grown} bytes behind");
}
