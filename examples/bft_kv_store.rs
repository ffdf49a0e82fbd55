//! A Byzantine fault-tolerant key/value store whose replicas communicate
//! over RUBIN (RDMA) — the paper's target system: Reptor with the RDMA
//! comm stack.
//!
//! Four replicas (f = 1) run PBFT; a client performs puts/gets and waits
//! for f+1 matching replies. One replica is crashed mid-run to show the
//! service staying available.
//!
//! Run with: `cargo run --example bft_kv_store`

use reptor::{ByzantineMode, Cluster, KvOp, KvService, ReptorConfig, Stack};

fn main() {
    // Four replicas and one client, replica communication over the RUBIN
    // RDMA stack.
    let mut c = Cluster::build(Stack::Rubin, ReptorConfig::small(), 1, 7, || {
        Box::new(KvService::default())
    });
    let client = c.clients[0].clone();

    println!("== putting keys through BFT consensus over RDMA ==");
    let mut want = 0;
    for (k, v) in [("alice", "42"), ("bob", "17"), ("carol", "99")] {
        client.submit(
            &mut c.sim,
            KvOp::Put(k.as_bytes().to_vec(), v.as_bytes().to_vec()).encode(),
        );
        want += 1;
    }
    c.run_to_completion(want);
    for put in client.completions() {
        println!(
            "  put #{} -> {:?} in {}",
            put.timestamp,
            String::from_utf8_lossy(&put.result),
            put.latency()
        );
    }

    println!("\n== crashing replica 3 (f = 1 tolerated) ==");
    c.replicas[3].set_byzantine(ByzantineMode::Crash);

    client.submit(&mut c.sim, KvOp::Get(b"bob".to_vec()).encode());
    want += 1;
    c.run_to_completion(want);
    let got = client.completions().last().unwrap().clone();
    println!(
        "  get bob -> {:?} in {} (despite the crash)",
        String::from_utf8_lossy(&got.result),
        got.latency()
    );
    assert_eq!(got.result, b"17");

    println!("\n== replica states ==");
    for r in &c.replicas {
        let digest = r.with_service(|s| s.state_digest());
        println!(
            "  replica {}: executed {} requests, state digest {}",
            r.id(),
            r.stats().executed_requests,
            digest.short()
        );
    }
    let m = c.metrics();
    println!(
        "\nRDMA work across the group: {} sends posted ({} inline), {} retransmits",
        m.total("sends_posted"),
        m.total("inline_sends"),
        m.total("retransmits")
    );
}
