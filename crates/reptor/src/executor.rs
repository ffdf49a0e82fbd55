//! The deterministic COP executor stage.
//!
//! Agreement runs in `p` parallel pipelines, but the replicated service is
//! a sequential state machine: results must not depend on which pipeline
//! commits first. The executor enforces COP's total-order rule — commit
//! *execution* strictly by sequence number: instance `s` is applied only
//! after every instance `< s` has been applied, regardless of commit
//! order across pipelines. Because `seq mod p` statically names the
//! owning pipeline, the executor never scans: it polls exactly one
//! pipeline per step, the owner of `last_executed + 1`.
//!
//! Execution (and everything downstream of it — service application,
//! checkpoint digests, client replies) is charged to the dedicated
//! execution core (core 0) by the replica, keeping the sequential stage
//! off the agreement cores.

use bft_crypto::Digest;
use simnet::Nanos;

use crate::messages::{Request, SeqNum};
use crate::pipeline::Pipeline;

/// A committed instance handed from a pipeline to the execution stage.
#[derive(Debug)]
pub(crate) struct ExecutableBatch {
    pub(crate) seq: SeqNum,
    pub(crate) batch: Vec<Request>,
    /// When the instance committed (feeds `phase.committed_to_executed`).
    pub(crate) committed_at: Option<Nanos>,
    /// The earliest arrival among the batch's requests, if this replica
    /// witnessed one (feeds the request-timer estimate).
    pub(crate) arrived_at: Option<Nanos>,
}

/// Totally orders committed batches across pipelines before the service
/// sees them.
#[derive(Debug, Default)]
pub(crate) struct Executor {
    /// Highest contiguously executed sequence number.
    pub(crate) last_executed: SeqNum,
    /// Executed history `(seq, batch digest)` — the safety witness used by
    /// tests.
    pub(crate) executed_log: Vec<(SeqNum, Digest)>,
}

impl Executor {
    pub(crate) fn new() -> Executor {
        Executor::default()
    }

    /// The sequence number the executor will apply next.
    pub(crate) fn next_seq(&self) -> SeqNum {
        self.last_executed + 1
    }

    /// Jumps the execution horizon to `seq` after a completed state
    /// transfer: everything at or below `seq` is embodied in the installed
    /// checkpoint, so the per-instance history is skipped. The executed
    /// log keeps a gap — the safety witness only compares digests at
    /// sequence numbers both replicas actually executed.
    pub(crate) fn fast_forward(&mut self, seq: SeqNum) {
        debug_assert!(seq >= self.last_executed);
        self.last_executed = seq;
    }

    /// Records one batch replayed from the durable WAL: the batch was
    /// committed by agreement before it was logged, so replay re-enters it
    /// into the executed history (safety witness included) without going
    /// through a pipeline.
    pub(crate) fn replay_record(&mut self, seq: SeqNum, digest: Digest) {
        debug_assert_eq!(seq, self.next_seq(), "WAL replay must be contiguous");
        self.last_executed = seq;
        self.executed_log.push((seq, digest));
    }

    /// Pops the next batch in total order, if its owning pipeline has
    /// committed it: marks the instance executed, advances the execution
    /// horizon and appends to the safety witness. Returns `None` while the
    /// head-of-line instance is still in agreement (later seqs may already
    /// be committed in other pipelines — they wait their turn).
    ///
    /// The batch is moved out of its log entry, not copied; the caller
    /// hands it back with [`Executor::put_back`] once it has executed.
    pub(crate) fn pop_ready(&mut self, pipelines: &mut [Pipeline]) -> Option<ExecutableBatch> {
        let next = self.next_seq();
        let entry = pipelines[lane_of(next, pipelines)].log.get_mut(&next)?;
        if !entry.committed || entry.executed {
            return None;
        }
        entry.executed = true;
        let digest = entry.digest.expect("committed instance has digest");
        let batch = entry.batch.take().expect("committed instance has batch");
        let (committed_at, arrived_at) = (entry.committed_at, entry.arrived_at);
        self.last_executed = next;
        self.executed_log.push((next, digest));
        Some(ExecutableBatch {
            seq: next,
            batch,
            committed_at,
            arrived_at,
        })
    }

    /// Returns an executed batch to its log entry, which keeps serving it
    /// (catch-up replies, prepared proofs) until a checkpoint truncates it.
    pub(crate) fn put_back(pipelines: &mut [Pipeline], seq: SeqNum, batch: Vec<Request>) {
        if let Some(entry) = pipelines[lane_of(seq, pipelines)].log.get_mut(&seq) {
            entry.batch = Some(batch);
        }
    }
}

/// The pipeline owning `seq`.
fn lane_of(seq: SeqNum, pipelines: &[Pipeline]) -> usize {
    let lane = (seq % pipelines.len() as u64) as usize;
    debug_assert!(pipelines[lane].owns(seq, pipelines.len()));
    lane
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Instance;
    use simnet::CoreId;

    fn committed(seq: SeqNum) -> Instance {
        Instance {
            digest: Some(Digest::of_parts(&[&seq.to_le_bytes()])),
            batch: Some(vec![]),
            pre_prepared: true,
            prepared: true,
            committed: true,
            ..Instance::default()
        }
    }

    #[test]
    fn executes_in_total_order_across_pipelines() {
        let mut pls = vec![Pipeline::new(0, CoreId(1)), Pipeline::new(1, CoreId(2))];
        let mut ex = Executor::new();
        // Pipeline 0 commits seq 2 before pipeline 1 commits seq 1: the
        // executor must still emit 1 then 2.
        pls[0].install(2, committed(2));
        assert!(ex.pop_ready(&mut pls).is_none(), "seq 1 not committed yet");
        pls[1].install(1, committed(1));
        assert_eq!(ex.pop_ready(&mut pls).expect("seq 1").seq, 1);
        assert_eq!(ex.pop_ready(&mut pls).expect("seq 2").seq, 2);
        assert!(ex.pop_ready(&mut pls).is_none());
        assert_eq!(ex.last_executed, 2);
        assert_eq!(ex.executed_log.len(), 2);
    }

    #[test]
    fn popped_batch_moves_out_and_is_put_back() {
        let mut pls = vec![Pipeline::new(0, CoreId(1)), Pipeline::new(1, CoreId(2))];
        let mut ex = Executor::new();
        pls[1].install(1, committed(1));
        let exec = ex.pop_ready(&mut pls).expect("seq 1");
        assert!(pls[1].log[&1].batch.is_none(), "moved, not copied");
        Executor::put_back(&mut pls, exec.seq, exec.batch);
        assert_eq!(pls[1].log[&1].batch, Some(vec![]));
        assert!(ex.pop_ready(&mut pls).is_none(), "executed once");
    }

    #[test]
    fn head_of_line_blocks_later_commits() {
        let mut pls = vec![
            Pipeline::new(0, CoreId(1)),
            Pipeline::new(1, CoreId(2)),
            Pipeline::new(2, CoreId(3)),
        ];
        let mut ex = Executor::new();
        // Seqs 2 and 3 committed, 1 missing: nothing executes.
        pls[2].install(2, committed(2));
        pls[0].install(3, committed(3));
        assert!(ex.pop_ready(&mut pls).is_none());
        pls[1].install(1, committed(1));
        let order: Vec<SeqNum> =
            std::iter::from_fn(|| ex.pop_ready(&mut pls).map(|b| b.seq)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }
}
