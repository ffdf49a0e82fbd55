//! `METRICS.md` is the metric catalogue: every key pattern the system
//! records, with its kind. This test regenerates it from live registries
//! (`Metrics::catalogue`) and fails when the committed file has drifted —
//! a renamed or new metric must show up in the catalogue in the same
//! change, because the system benchmark and the determinism gates read
//! these keys by their exact spelling.
//!
//! The scenarios below are chosen to reach every layer's name table: a
//! proactive-recovery rotation on the direct fabric (restarts, state
//! transfer, view changes) and a KV group — PBFT underneath — over faulty
//! links on NIO and on RUBIN, the latter with the one-sided fast path,
//! read leases, a WAL, and a replica restarting from its drive. Keys only
//! a rarer event bumps (an RNR retry, an abandoned view change) are in the
//! layer's `metric_names!` table but not here.

use std::collections::BTreeSet;

use kvstore::{KvHarness, KvStoreService, Stack, YcsbSpec};
use reptor::{
    Cluster, CounterService, DurabilityConfig, RecoveryConfig, RecoveryScheduler, ReptorConfig,
};
use simnet::{HostId, MetricKind, Nanos, Network, Simulator};

type Catalogue = BTreeSet<(MetricKind, String)>;

/// Replaces every run of digits with `<N>`, so `host.h3.syscalls`,
/// `rdma.h0.qp12.sends_posted` and `tcp.h1:49152.copies` each collapse
/// into one pattern.
fn pattern(key: &str) -> String {
    let mut out = String::with_capacity(key.len());
    let mut in_digits = false;
    for c in key.chars() {
        if c.is_ascii_digit() {
            if !in_digits {
                out.push_str("<N>");
            }
            in_digits = true;
        } else {
            out.push(c);
            in_digits = false;
        }
    }
    out
}

fn collect(into: &mut Catalogue, net: &Network, sim: &Simulator) {
    net.publish_sim_gauges(sim);
    for (kind, key) in net.metrics().catalogue() {
        into.insert((kind, pattern(&key)));
    }
}

/// A full proactive-recovery rotation under closed-loop load on the
/// direct fabric.
fn recovery_rotation(into: &mut Catalogue) {
    let cfg = ReptorConfig {
        checkpoint_interval: 4,
        ..ReptorConfig::small()
    };
    let mut c = Cluster::sim_transport(cfg, 1, 7, || Box::new(CounterService::default()));
    let client = c.clients[0].clone();
    for _ in 0..6 {
        client.submit(&mut c.sim, b"inc".to_vec());
    }
    assert!(c.run_until_completed(6, 2_000_000));
    c.settle();
    let sched = RecoveryScheduler::new(
        c.replicas.clone(),
        RecoveryConfig {
            period: Nanos::from_millis(30),
            poll: Nanos::from_millis(2),
            refresh_deadline: Nanos::from_millis(400),
        },
        c.metrics(),
        Box::new(|| Box::new(CounterService::default())),
    );
    sched.start(&mut c.sim, 1);
    let mut done = client.stats().completed;
    while sched.stats().rotations_completed < 1 {
        client.submit(&mut c.sim, b"inc".to_vec());
        done += 1;
        assert!(
            c.run_until_completed(done, 2_000_000),
            "stalled mid-rotation"
        );
        assert!(done < 10_000, "rotation never completed");
    }
    c.settle();
    collect(into, &c.net, &c.sim);
}

/// YCSB-A on a four-replica KV group (PBFT underneath) over `stack`, with
/// frame faults on the primary's links to a client and to one backup.
/// With `durable`, replicas keep a WAL and snapshots, and one of them
/// restarts from its drive halfway.
fn kv_group(into: &mut Catalogue, stack: Stack, seed: u64, durable: bool) {
    const CELLS: usize = 64;
    let cfg = ReptorConfig {
        batch_size: 1,
        window: 64,
        checkpoint_interval: 8,
        read_leases: true,
        fast_path: stack == Stack::Rubin,
        durability: durable.then(DurabilityConfig::default),
        ..ReptorConfig::small()
    };
    let n = cfg.n as u32;
    let mut h = KvHarness::build(stack, seed, 3, cfg, CELLS);
    // `TestBed::cluster` numbers hosts like nodes: replicas, then clients.
    let (primary, peers) = (HostId(0), [HostId(1), HostId(n)]);
    h.cluster.net.with_faults(|f| {
        for peer in peers {
            f.set_loss(peer, primary, 0.1);
            f.set_duplication(primary, peer, 0.2);
            f.set_corruption(primary, peer, 0.1);
        }
    });
    assert!(
        h.run_ycsb(&YcsbSpec::a(12), seed, 40, 40_000_000),
        "KV run wedged"
    );
    h.cluster.net.with_faults(|f| f.clear());
    if durable {
        h.cluster.replicas[1].restart(&mut h.cluster.sim, Box::new(KvStoreService::new(CELLS)));
        assert!(
            h.run_ycsb(&YcsbSpec::a(12), seed + 1, 40, 40_000_000),
            "KV run wedged after the restart"
        );
    }
    h.check_history().expect("KV run must linearize");
    collect(into, &h.cluster.net, &h.cluster.sim);
}

fn render(catalogue: &Catalogue) -> String {
    let mut out = String::from(
        "# Metric catalogue\n\
         \n\
         Every key pattern the simulated system records into its `simnet::Metrics`\n\
         registry, with its kind. Digit runs are written `<N>` (`h<N>` a host,\n\
         `r<N>` a replica, `c<N>` a client, `qp<N>` a queue pair, `h<N>:<N>` a socket\n\
         address, `pipeline.<N>` / `lane<N>` a COP pipeline). The spellings are read\n\
         by `benchmark/` and by the determinism gates: renaming one is a benchmark\n\
         change.\n\
         \n\
         A key exists from the first time something is recorded under it. The table\n\
         is what the scenarios of `tests/metric_catalogue.rs` reach (recovery\n\
         rotation; KV over faulty links on NIO and on RUBIN, durable, with a restart);\n\
         that test fails when this file and the code disagree and writes the current\n\
         file to `target/tmp/METRICS.md`. A key only a rarer event bumps (an RNR\n\
         retry, an abandoned view change) is listed where all names live: in the\n\
         `simnet::metric_names!` table next to the code that bumps it.\n\
         \n\
         | kind | key |\n\
         |---|---|\n",
    );
    for (kind, key) in catalogue {
        out.push_str(&format!("| {} | `{key}` |\n", kind.as_str()));
    }
    out
}

#[test]
fn metrics_md_lists_every_key_the_system_records() {
    let mut catalogue = Catalogue::new();
    recovery_rotation(&mut catalogue);
    kv_group(&mut catalogue, Stack::Nio, 0x3A, false);
    kv_group(&mut catalogue, Stack::Rubin, 0x2A, true);

    // The key families `benchmark/` reads must all be there.
    for family in [
        "host.h<N>.",
        "rdma.h<N>.qp<N>.",
        "tcp.h<N>:<N>.",
        "rubin.h<N>.selector.",
        "rubin.h<N>.pool.",
        "reptor.r<N>.",
        "reptor.r<N>.phase.",
        "reptor.r<N>.pipeline.<N>.committed",
        "nio_transport.<N>.",
        "rubin_transport.<N>.",
        "kv.c<N>.",
        "disk.r<N>.",
        "recovery.",
        "net.h<N>.h<N>.faults_",
        "sim.events_",
        "pool.net.",
    ] {
        assert!(
            catalogue.iter().any(|(_, key)| key.starts_with(family)),
            "no `{family}*` key was recorded"
        );
    }

    let current = render(&catalogue);
    let committed = include_str!("../METRICS.md");
    if current != committed {
        let path = concat!(env!("CARGO_TARGET_TMPDIR"), "/METRICS.md");
        std::fs::write(path, &current).expect("write the regenerated catalogue");
        let (new, old): (BTreeSet<&str>, BTreeSet<&str>) =
            (current.lines().collect(), committed.lines().collect());
        for line in new.difference(&old) {
            println!("+ {line}");
        }
        for line in old.difference(&new) {
            println!("- {line}");
        }
        panic!("METRICS.md has drifted from the code; the regenerated file is at {path}");
    }
}
