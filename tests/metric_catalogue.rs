//! `METRICS.md` is the metric catalogue: every key pattern the system
//! declares, with its kind. This test regenerates it from the declarations
//! of built worlds (`Metrics::catalogue`) and fails when the committed file
//! has drifted — a renamed or new metric must show up in the catalogue in
//! the same change, because the system benchmark and the determinism gates
//! read these keys by their exact spelling.
//!
//! A key is declared when the handle that writes it is built, which is when
//! the handle's owner is built, so the worlds below are only built: a
//! direct-fabric group with a proactive-recovery scheduler, and a KV group
//! on NIO and on RUBIN, the latter with the one-sided fast path, read
//! leases and a WAL. Building a group runs its mesh until the links
//! connect. One scripted partition while the NIO mesh dials makes the
//! per-pair fault counters, which the fabric builds on a pair's first
//! fault.

use std::collections::BTreeSet;

use kvstore::{KvHarness, KvStoreService, Stack};
use reptor::{
    Cluster, CounterService, DurabilityConfig, RecoveryConfig, RecoveryScheduler, ReptorConfig,
};
use simnet::{ChaosAction, ChaosSchedule, MetricKind, Nanos, TestBed};

type Catalogue = BTreeSet<(MetricKind, String)>;

const CELLS: usize = 64;

/// The union of the catalogues of every world, each built from `base`.
fn worlds(base: &ReptorConfig) -> Catalogue {
    let mut catalogue = Catalogue::new();

    let direct = Cluster::sim_transport(base.clone(), 1, 7, || Box::new(CounterService::default()));
    RecoveryScheduler::new(
        direct.replicas.clone(),
        RecoveryConfig::default(),
        direct.metrics(),
        Box::new(|| Box::new(CounterService::default())),
    );
    catalogue.extend(direct.metrics().catalogue());

    let kv = ReptorConfig {
        read_leases: true,
        ..base.clone()
    };
    let (mut sim, net, hosts) = TestBed::cluster(0x3A, kv.n + 1);
    let (a, b) = (hosts[0], hosts[1]);
    ChaosSchedule::new()
        .at(Nanos::ZERO, ChaosAction::Partition { a, b })
        .at(Nanos::from_micros(600), ChaosAction::Heal { a, b })
        .install(&mut sim, &net);
    let nio = Cluster::on_fabric(Stack::Nio, kv.clone(), sim, net, hosts, || {
        Box::new(KvStoreService::new(CELLS))
    });
    catalogue.extend(nio.metrics().catalogue());

    let rubin = ReptorConfig {
        fast_path: true,
        durability: Some(DurabilityConfig::default()),
        ..kv
    };
    let h = KvHarness::build(Stack::Rubin, 0x2A, 1, rubin, CELLS);
    catalogue.extend(h.cluster.metrics().catalogue());
    catalogue
}

fn render(catalogue: &Catalogue) -> String {
    let mut out = String::from(
        "# Metric catalogue\n\
         \n\
         Every key pattern the simulated system declares in its `simnet::Metrics`\n\
         registry, with its kind. Digit runs are written `<N>` (`h<N>` a host,\n\
         `r<N>` a replica, `c<N>` a client, `qp<N>` a queue pair, `h<N>:<N>` a socket\n\
         address, `pipeline.<N>` / `lane<N>` a COP pipeline). The spellings are read\n\
         by `benchmark/` and by the determinism gates: renaming one is a benchmark\n\
         change.\n\
         \n\
         A key is declared when the handle that writes it is built, and a snapshot\n\
         lists it once something is recorded under it. The table is generated from\n\
         the declarations of the worlds `tests/metric_catalogue.rs` builds (a\n\
         direct-fabric group with proactive recovery; KV on NIO and on RUBIN with\n\
         the fast path, read leases and a WAL), not from a run; that test fails\n\
         when this file and the code disagree and writes the current file to\n\
         `target/tmp/METRICS.md`.\n\
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
    let base = ReptorConfig::small();
    let catalogue = worlds(&base);

    let mut slower = base.clone();
    slower.crypto.hmac_base_ns += 1;
    assert_eq!(
        worlds(&slower),
        catalogue,
        "the catalogue must not depend on the run's timeline"
    );

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
        "chaos.actions_applied",
        "sim.events_",
        "pool.net.",
    ] {
        assert!(
            catalogue.iter().any(|(_, key)| key.starts_with(family)),
            "no `{family}*` key was declared"
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
