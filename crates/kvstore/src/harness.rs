//! A deterministic test harness: a replicated KV group — a
//! [`reptor::Cluster`] whose replicas run [`KvStoreService`] (DESIGN.md
//! "Building a world") — plus a fleet of [`KvClient`]s that record full
//! operation histories for the linearizability checker, under a YCSB-style
//! closed-loop driver.

pub use reptor::Stack;
use reptor::{Cluster, ReptorConfig};

use crate::client::KvClient;
use crate::lin::{check_linearizable, KvEvent, KvHistOp};
use crate::service::KvStoreService;
use crate::workload::{ClientWorkload, YcsbSpec};

/// The default replica-group configuration for KV runs: the standard
/// 4-replica small() group with read leases armed.
pub fn kv_config() -> ReptorConfig {
    ReptorConfig {
        read_leases: true,
        ..ReptorConfig::small()
    }
}

/// A replicated KV group with history-recording clients.
pub struct KvHarness {
    /// The replica group: simulator, fabric, replicas and the agreement
    /// clients the KV clients wrap.
    pub cluster: Cluster,
    /// The KV clients (node ids `n ..`).
    pub clients: Vec<KvClient>,
}

impl KvHarness {
    /// Builds a group of `cfg.n` replicas and `num_clients` KV clients on
    /// `stack`, each replica running a [`KvStoreService`] with `capacity`
    /// region cells.
    pub fn build(
        stack: Stack,
        seed: u64,
        num_clients: usize,
        cfg: ReptorConfig,
        capacity: usize,
    ) -> KvHarness {
        let cluster = Cluster::build(stack, cfg, num_clients, seed, || {
            Box::new(KvStoreService::new(capacity))
        });
        let endpoints = &cluster.transports[cluster.cfg.n..];
        let clients = cluster
            .clients
            .iter()
            .zip(endpoints)
            .map(|(client, transport)| {
                KvClient::new(
                    client.clone(),
                    &cluster.cfg,
                    transport.clone(),
                    cluster.metrics(),
                )
            })
            .collect();
        KvHarness { cluster, clients }
    }

    /// The run's full cross-layer metrics snapshot.
    pub fn metrics_snapshot(&self) -> simnet::MetricsSnapshot {
        self.cluster.metrics_snapshot()
    }

    /// Drives every client through `ops_per_client` operations of `spec`
    /// in a closed loop (one op in flight per client), then drains.
    /// Returns false if the run exceeds `max_events` simulator events or
    /// the simulator goes idle with operations still outstanding.
    pub fn run_ycsb(
        &mut self,
        spec: &YcsbSpec,
        run_seed: u64,
        ops_per_client: u64,
        max_events: u64,
    ) -> bool {
        let mut wls: Vec<ClientWorkload> = self
            .clients
            .iter()
            .map(|c| ClientWorkload::new(c.id(), spec.clone(), run_seed))
            .collect();
        for c in &self.clients {
            c.query_leases(&mut self.cluster.sim);
        }
        let mut events = 0u64;
        loop {
            let mut all_issued = true;
            for (i, c) in self.clients.iter().enumerate() {
                if wls[i].issued() >= ops_per_client {
                    continue;
                }
                all_issued = false;
                if c.busy() {
                    continue;
                }
                match wls[i].next_op() {
                    KvHistOp::Get { key, .. } => c.get(&mut self.cluster.sim, key),
                    KvHistOp::Put { key, val } => c.put(&mut self.cluster.sim, key, val),
                    KvHistOp::Del { key } => c.del(&mut self.cluster.sim, key),
                }
            }
            if all_issued && self.clients.iter().all(|c| !c.busy()) {
                return true;
            }
            let mut stepped = false;
            for _ in 0..256 {
                if !self.cluster.sim.step() {
                    break;
                }
                stepped = true;
                events += 1;
                // Re-sweep as soon as any client with work left goes
                // idle — a one-sided read completes in a handful of
                // events, and letting the queue drain past it would jump
                // the clock to the next (stale) retransmission timer —
                // and stop stepping the moment the whole run is done,
                // for the same reason: the trailing timers would inflate
                // the run's measured duration.
                let ready = self
                    .clients
                    .iter()
                    .enumerate()
                    .any(|(i, c)| wls[i].issued() < ops_per_client && !c.busy());
                let done = self.clients.iter().all(|c| !c.busy());
                if ready || done {
                    break;
                }
            }
            if !stepped {
                // Idle with work outstanding: the run is wedged.
                return false;
            }
            if events >= max_events {
                return false;
            }
        }
    }

    /// The merged operation history across all clients.
    pub fn history(&self) -> Vec<KvEvent> {
        let mut h: Vec<KvEvent> = self.clients.iter().flat_map(|c| c.history()).collect();
        h.sort_by_key(|e| (e.invoke, e.response, e.client));
        h
    }

    /// Checks the recorded history for linearizability.
    pub fn check_history(&self) -> Result<(), String> {
        check_linearizable(&self.history())
    }

    /// Sum of a per-node counter across the whole run (suffix-matched,
    /// i.e. both replica- and client-side counters).
    pub fn total(&self, metric: &str) -> u64 {
        self.cluster.metrics().total(metric)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_stack_ycsb_is_linearizable() {
        let mut h = KvHarness::build(Stack::Direct, 7, 3, kv_config(), 64);
        assert!(h.run_ycsb(&YcsbSpec::a(16), 7, 20, 4_000_000));
        h.check_history().expect("linearizable");
        // No one-sided path on the direct stack: every read fell back.
        assert!(h.total("kv_read_fallback") > 0);
        assert_eq!(h.total("kv_read_onesided"), 0);
    }

    #[test]
    fn rubin_stack_serves_onesided_reads() {
        let mut h = KvHarness::build(Stack::Rubin, 11, 2, kv_config(), 64);
        assert!(h.run_ycsb(&YcsbSpec::b(8), 11, 30, 8_000_000));
        h.check_history().expect("linearizable");
        assert!(
            h.total("kv_read_onesided") > 0,
            "one-sided reads never engaged: fallback={} onesided={}",
            h.total("kv_read_fallback"),
            h.total("kv_read_onesided"),
        );
    }
}
